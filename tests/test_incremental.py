"""Incremental decoding: every architecture's init_state/step against the
teacher-forced decode_step it must reproduce, greedy and beam search
through step against the full-recompute RecomputeDecoder of
tests/oracles.py, and sentences searched together against each searched
alone."""

import numpy as np
import pytest

import dmt.autodiff as ad
from dmt.autodiff import RngState
from dmt.decoding import (DecodeConfig, beam_decode, decode_many, greedy_decode,
                          greedy_decode_batch)
from dmt.errors import ShapeError
from dmt.models import build_model, config_for_arch
from dmt.subword import BOS_ID, EOS_ID, PAD_ID

from oracles import RecomputeDecoder
from test_decoding import tiny_real_model
from test_models import ARCHS, tiny_config, tiny_model, vocab_of_size
from toymodels import random_table_model

TOL = 1e-9
STEPS = 7

# edge configs beside the tiny ones: a conv window wider than the first
# positions, a zero-width conv window, and ragged transformer heads (8 over
# 3 -> 3/3/2)
EDGE_CONFIGS = {
    "conv-k1": config_for_arch("conv", enc_layers=1, dec_layers=2, dim=6,
                               kernel_width=1, dropout=0.0, max_positions=32),
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


@pytest.mark.parametrize("arch", ["transformer", "conv"])
def test_length_cap_kept_within_max_positions(arch):
    """A source whose default cap (2 * length + 10) passes max_positions
    decodes to max_positions tokens, and the sentence searched beside it
    decodes as it does alone."""
    model = tiny_model(arch)
    model.params["out.b"].data[EOS_ID] = -1e4  # every hypothesis runs to its cap
    long_src, short_src = [4 + i % 8 for i in range(12)], [5, 6]
    for beam in (1, 3):
        cfg = DecodeConfig(beam=beam)
        long_hyp, short_hyp = decode_many(model, [long_src, short_src], cfg)
        alone = decode_many(model, [short_src], cfg)[0]
        assert len(long_hyp.ids) == tiny_config(arch).max_positions
        assert short_hyp.ids == alone.ids
        assert abs(short_hyp.logprob - alone.logprob) <= TOL


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


@pytest.mark.parametrize("case", ["table"] + ARCHS)
def test_recompute_select_reorders_rows_across_sentences(case):
    model = random_table_model(3, 12) if case == "table" else tiny_model(case, seed=2)
    decoder = RecomputeDecoder(model)
    src, tgt = padded_batch(14)
    rows = [1, 0, 1]  # permutes and repeats rows of two sentences
    split = 3
    with ad.no_grad():
        state = decoder.init_state(decoder.encode(src))
    _, state = stepped(decoder, state, tgt[:, :split])
    got, _ = stepped(decoder, state.select(rows), tgt[rows, split:])
    want = teacher_forced(model, src[rows], tgt[rows])[:, split:]
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("arch", ARCHS)
def test_encoder_memory_select_equals_encoding_those_rows(arch):
    model = tiny_model(arch, seed=3)
    src, _ = padded_batch(15)
    rows = [1, 0, 1]
    with ad.no_grad():
        got = model.encode(src).select(rows)
        alone = [model.encode(src[r:r + 1]) for r in rows]
    for i, want in enumerate(alone):
        np.testing.assert_array_equal(got.pad_mask[i], want.pad_mask[0])
        for name in ("states", "h0", "c0"):
            g, w = getattr(got, name), getattr(want, name)
            assert (g is None) == (w is None)
            if w is not None:
                np.testing.assert_allclose(g.data[i], w.data[0], rtol=0, atol=TOL)


@pytest.mark.parametrize("case", ARCHS + ["table"])
def test_sentences_decoded_together_equal_each_decoded_alone(case):
    """decode_many searches several sentences of different lengths in one
    state; each must get the ids of beam_decode / greedy_decode on that
    sentence alone, at beam 5 and beam 1."""
    sources = [[4, 5, 6, 7, 8], [9], [5, 7, 4], [6, 6]]
    for seed in range(3):
        model = (random_table_model(40 + seed, 10) if case == "table"
                 else tiny_real_model(case, seed))
        for beam, alpha in ((5, 1.0), (5, 0.0), (1, 1.0)):
            cfg = DecodeConfig(beam=beam, length_penalty=alpha)
            together = decode_many(model, sources, cfg)
            alone = [beam_decode(model, src, cfg)[0] if beam > 1
                     else greedy_decode(model, src, cfg) for src in sources]
            assert [h.ids for h in together] == [h.ids for h in alone]
            for t, a in zip(together, alone):
                assert abs(t.logprob - a.logprob) <= TOL
