"""Every name a dmt module lists in __all__ exists, so a deleted symbol
cannot linger as a stale export."""

import importlib
import pkgutil

import pytest

import dmt

MODULES = sorted(m.name for m in pkgutil.iter_modules(dmt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"dmt.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_modules_found():
    assert {"corpus", "decoding", "experiment", "pipeline"} <= set(MODULES)
