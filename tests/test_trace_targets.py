"""perfbench's traced run wraps dmt functions by name: every target it
names must exist, and installing then uninstalling the tracer must leave
every dmt name as it was. A rename or deletion of a traced function fails
here, not only in the traced benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def _names(targets):
    """Every name a Tracer.install can rebind: the vars of each loaded dmt
    module and of each class that owns a traced method."""
    owners = [m for k, m in sys.modules.items() if k == "dmt" or k.startswith("dmt.")]
    owners += [owner for owner, *_ in targets if isinstance(owner, type)]
    return {(id(owner), key): value for owner in owners
            for key, value in vars(owner).items()}


def test_every_trace_target_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in layers.targets(Tracer())
               if not hasattr(owner, attr)]
    assert not missing


def test_install_then_uninstall_restores_every_name():
    tr = Tracer()
    targets = layers.targets(tr)
    before = _names(targets)
    tr.install(targets)
    try:
        assert any(before[key] is not value for key, value in _names(targets).items())
    finally:
        tr.uninstall()
    after = _names(targets)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
