"""Every third-party module the tests and perfbench import is declared in
pyproject.toml, as a runtime dependency or in the `test` extra, so
`pip install -e '.[test]'` gives a checkout that collects."""

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("tests", "perfbench")


def _name(requirement: str) -> str:
    """The normalised distribution name of a requirement string."""
    return re.split(r"[\s\[<>=!~;]", requirement.strip(), maxsplit=1)[0].lower().replace("-", "_")


def _imported_modules(path: Path) -> set:
    """Top-level names of the absolute imports in one source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {_name(r) for r in project["dependencies"]}
    declared |= {_name(r) for r in project["optional-dependencies"]["test"]}
    # first-party: the src packages and the scanned directories' own modules
    local = {p.name for p in (ROOT / "src").iterdir() if p.is_dir()} | set(SCANNED)
    files = [p for d in SCANNED for p in sorted((ROOT / d).rglob("*.py"))]
    local |= {p.stem for p in files}
    dists = packages_distributions()
    missing = {}
    for path in files:
        for module in _imported_modules(path) - local - set(sys.stdlib_module_names):
            names = {_name(module)} | {_name(d) for d in dists.get(module, ())}
            if not names & declared:
                missing.setdefault(module, []).append(str(path.relative_to(ROOT)))
    assert missing == {}, f"imported but not declared in pyproject.toml: {missing}"
