"""perfbench's traced run wraps dmt functions by name: every target it
names must exist, and installing then uninstalling the tracer must leave
every dmt name as it was, and the arguments its hooks read must keep
their names and positions. A rename or deletion of a traced function, or
of an argument a hook reads, fails here, not only in the traced benchmark
run."""

import inspect
import sys
from pathlib import Path

import pytest

from dmt import decoding, models, training

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


# the arguments perfbench's hooks read by position or by name
@pytest.mark.parametrize("fn,names", [
    (decoding.greedy_decode_batch, ["model", "src_batch", "src_pad_mask", "config"]),
    (decoding.beam_decode, ["model", "src_ids", "config"]),
    (training.save_checkpoint, ["ckpt", "path"]),
    *[(cls.decode_step, ["self", "memory", "tgt_prefix"])
      for cls in (models.TransformerModel, models.LstmModel, models.ConvModel)],
], ids=["greedy_decode_batch", "beam_decode", "save_checkpoint",
        "TransformerModel.decode_step", "LstmModel.decode_step", "ConvModel.decode_step"])
def test_hooked_arguments_keep_their_names_and_positions(fn, names):
    assert list(inspect.signature(fn).parameters)[:len(names)] == names
