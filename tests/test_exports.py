"""Every name a dmt module lists in __all__ exists, so a deleted symbol
cannot linger as a stale export, and every autodiff export has a caller
outside the tests."""

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
