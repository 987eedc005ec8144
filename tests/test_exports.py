"""Every name a dmt module lists in __all__ exists, so a deleted symbol
cannot linger as a stale export, every autodiff export has a caller
outside the tests, and no dmt module imports another's private names."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import dmt
from dmt import autodiff

MODULES = sorted(m.name for m in pkgutil.iter_modules(dmt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"dmt.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_modules_found():
    assert {"corpus", "decoding", "experiment", "pipeline"} <= set(MODULES)


def test_autodiff_exports_have_callers():
    """Every autodiff export is used by the rest of dmt or by perfbench
    (as ad.name, autodiff.name, an import from autodiff, or the quoted name
    that perfbench traces), so the tape holds no op that only a test calls."""
    root = Path(autodiff.__file__).resolve().parent
    files = [p for p in root.glob("*.py") if p.name != "autodiff.py"]
    files += sorted((root.parents[1] / "perfbench").glob("*.py"))
    text = "\n".join(p.read_text(encoding="utf-8") for p in files)
    unused = [n for n in autodiff.__all__ if not re.search(
        rf'(\bad\.|\bautodiff\.|"|autodiff import [^\n]*\b){n}\b', text)]
    assert unused == []


def test_no_module_imports_a_private_name_from_another():
    """A rule that two modules need lives in a public name: no dmt module
    imports a _-prefixed name (dunders aside) from another dmt module."""
    root = Path(dmt.__file__).resolve().parent
    private = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "dmt"):
                private += [f"{path.name}: {a.name}" for a in node.names
                            if a.name.startswith("_") and not a.name.endswith("__")]
    assert private == []
