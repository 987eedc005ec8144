"""Incremental decoding: every architecture's init_state/step against the
teacher-forced decode_step it must reproduce, and greedy and beam search
through step against the full-recompute RecomputeDecoder."""

import numpy as np
import pytest

import dmt.autodiff as ad
from dmt.autodiff import RngState
from dmt.decoding import DecodeConfig, RecomputeDecoder, beam_decode, greedy_decode_batch
from dmt.errors import ConfigError, ShapeError
from dmt.models import build_model, config_for_arch
from dmt.subword import BOS_ID, PAD_ID

from test_decoding import tiny_real_model
from test_models import ARCHS, tiny_config, tiny_model, vocab_of_size
from toymodels import random_table_model

TOL = 1e-9
STEPS = 7

# edge configs beside the tiny ones: a conv window wider than the first
# positions, and ragged transformer heads (8 over 3 -> 3/3/2)
EDGE_CONFIGS = {
    "conv-k5": config_for_arch("conv", enc_layers=1, dec_layers=2, dim=6,
                               kernel_width=5, dropout=0.0, max_positions=32),
    "transformer-uneven": config_for_arch("transformer", enc_layers=1, dec_layers=2,
                                          d_model=8, n_heads=3, d_ffn=12, dropout=0.0,
                                          max_positions=32, allow_uneven_heads=True),
}
CASES = ARCHS + sorted(EDGE_CONFIGS)


def case_model(case, seed=0):
    if case in EDGE_CONFIGS:
        return build_model(EDGE_CONFIGS[case], vocab_of_size(12), vocab_of_size(12), seed)
    return tiny_model(case, seed)


def padded_batch(seed):
    """Two source rows, the second padded, and a BOS-led target prefix."""
    rng = RngState(seed)
    src = np.array(rng.uniform((2, 5), 4, 12), dtype=np.int64)
    src[1, 3:] = PAD_ID
    tgt = np.array(rng.uniform((2, STEPS), 4, 12), dtype=np.int64)
    tgt[:, 0] = BOS_ID
    return src, tgt


def teacher_forced(model, src, tgt):
    with ad.no_grad():
        return model.decode_step(model.encode(src), tgt).data


def stepped(model, state, tgt):
    """Feed tgt column by column; returns ([B, T, V] logits, final state)."""
    out = []
    with ad.no_grad():
        for t in range(tgt.shape[1]):
            logits, state = model.step(state, tgt[:, t])
            out.append(logits)
    return np.stack(out, axis=1), state


@pytest.mark.parametrize("case", CASES)
def test_step_matches_decode_step_at_every_position(case):
    model = case_model(case)
    src, tgt = padded_batch(11)
    with ad.no_grad():
        state = model.init_state(model.encode(src))
    got, state = stepped(model, state, tgt)
    assert got.shape == (2, STEPS, model.tgt_vocab_size)
    assert state.t == STEPS
    np.testing.assert_allclose(got, teacher_forced(model, src, tgt), rtol=0, atol=TOL)


@pytest.mark.parametrize("case", CASES)
def test_step_after_select_matches_reordered_decode_step(case):
    model = case_model(case, seed=1)
    src, tgt = padded_batch(12)
    rows = [1, 0, 1]  # permutes and duplicates
    split = 3
    with ad.no_grad():
        state = model.init_state(model.encode(src))
    _, state = stepped(model, state, tgt[:, :split])
    got, _ = stepped(model, state.select(rows), tgt[rows, split:])
    want = teacher_forced(model, src[rows], tgt[rows])[:, split:]
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("arch", ["transformer", "conv"])
def test_step_past_max_positions_rejected(arch):
    model = tiny_model(arch)
    with ad.no_grad():
        state = model.init_state(model.encode(np.array([[4, 5]])))
        state.t = tiny_config(arch).max_positions
        with pytest.raises(ShapeError):
            model.step(state, np.array([BOS_ID]))


@pytest.mark.parametrize("arch", ARCHS)
def test_search_outputs_equal_the_recompute_path(arch):
    rng = RngState(31)
    batch = np.array([[4, 5, 6, 7], [8, 9, PAD_ID, PAD_ID], [5, PAD_ID, PAD_ID, PAD_ID]])
    for seed in range(4):
        model = tiny_real_model(arch, seed)
        reference = RecomputeDecoder(model)
        cfg = DecodeConfig(beam=1, max_len=int(rng.uniform((), 3, 10)))
        fast = greedy_decode_batch(model, batch, config=cfg)
        slow = greedy_decode_batch(reference, batch, config=cfg)
        assert [h.ids for h in fast] == [h.ids for h in slow]
        for f, s in zip(fast, slow):
            assert abs(f.logprob - s.logprob) <= TOL
        for src in ([4, 5, 6], [7]):
            cfg = DecodeConfig(beam=3, max_len=8, length_penalty=[0.0, 1.0][seed % 2])
            (_, fast_n), (_, slow_n) = (beam_decode(m, src, cfg) for m in (model, reference))
            assert [h.ids for h in fast_n] == [h.ids for h in slow_n]
            for f, s in zip(fast_n, slow_n):
                assert abs(f.logprob - s.logprob) <= TOL


def test_recompute_select_is_limited_to_one_source_sentence():
    decoder = RecomputeDecoder(random_table_model(3, 8))
    state = decoder.init_state(decoder.encode(np.array([[4, 5], [6, 7]])))
    _, state = decoder.step(state, np.array([BOS_ID, BOS_ID]))
    with pytest.raises(ConfigError):
        state.select([1, 0])
