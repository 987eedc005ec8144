"""Greedy/beam search contracts and exhaustive-search equivalence."""

import math

import numpy as np
import pytest

from dmt.autodiff import RngState
from dmt.decoding import (DecodeConfig, Hypothesis, beam_decode, decode_many,
                          greedy_decode, greedy_decode_batch)
from dmt.errors import ConfigError
from dmt.models import build_model, config_for_arch
from dmt.subword import BOS_ID, EOS_ID, PAD_ID

from oracles import exhaustive_best
from toymodels import TableModel, cipher_table_model, random_table_model, small_vocab


def masked_logprobs(model, src, prefix_gen):
    """Independent step-distribution builder for the exhaustive oracle."""
    row = model.logits_fn(tuple(src), tuple(prefix_gen)).astype(float)
    row[PAD_ID] = -np.inf
    row[BOS_ID] = -np.inf
    m = row.max()
    z = row - m
    return z - math.log(np.exp(z).sum())


def tiny_real_model(arch, seed, v=10):
    vocab = small_vocab(v - 4)
    if arch in ("lstm", "bilstm"):
        cfg = config_for_arch(arch, embed_dim=6, hidden_dim=8, dropout=0.0)
    elif arch == "conv":
        cfg = config_for_arch(arch, enc_layers=1, dec_layers=1, dim=6,
                              kernel_width=3, dropout=0.0, max_positions=64)
    else:
        cfg = config_for_arch(arch, enc_layers=1, dec_layers=1, d_model=8,
                              n_heads=2, d_ffn=12, dropout=0.0, max_positions=64)
    return build_model(cfg, vocab, vocab, seed)


class TestDecodeConfig:
    def test_defaults(self):
        cfg = DecodeConfig()
        assert cfg.beam == 5 and cfg.length_penalty == 1.0
        assert cfg.resolved_max_len(7) == 24

    def test_explicit_max_len(self):
        assert DecodeConfig(max_len=5).resolved_max_len(100) == 5

    def test_validation(self):
        with pytest.raises(ConfigError):
            DecodeConfig(beam=0)
        with pytest.raises(ConfigError):
            DecodeConfig(max_len=0)

    @pytest.mark.parametrize("kwargs", [
        {"beam": 2.5}, {"beam": True}, {"beam": "5"}, {"max_len": 3.5},
        {"length_penalty": float("nan")}, {"length_penalty": float("inf")}],
        ids=["beam-float", "beam-bool", "beam-str", "max_len-float", "alpha-nan",
             "alpha-inf"])
    def test_malformed_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DecodeConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = DecodeConfig(beam=np.int64(3), max_len=np.int32(7))
        assert cfg.beam == 3 and cfg.resolved_max_len(1) == 7


class TestGreedy:
    def test_immediate_eos_gives_empty_output(self):
        vocab = small_vocab(4)
        model = TableModel(lambda src, gen: np.eye(len(vocab))[EOS_ID] * 10,
                           vocab, vocab)
        hyp = greedy_decode(model, [4, EOS_ID])
        assert hyp.ids == (EOS_ID,)
        assert hyp.output_ids == ()

    def test_deterministic(self):
        model = random_table_model(3, 9)
        a = greedy_decode(model, [4, 5, EOS_ID], DecodeConfig(max_len=6))
        b = greedy_decode(model, [4, 5, EOS_ID], DecodeConfig(max_len=6))
        assert a == b

    def test_tie_breaks_to_lowest_id(self):
        vocab = small_vocab(6)

        def fn(src, gen):
            if len(gen) >= 1:
                return np.eye(len(vocab))[EOS_ID] * 10.0
            row = np.full(len(vocab), -5.0)
            row[7] = 2.0
            row[5] = 2.0  # tied with 7; 5 must win
            return row

        hyp = greedy_decode(TableModel(fn, vocab, vocab), [4])
        assert hyp.ids == (5, EOS_ID)

    def test_all_tied_picks_lowest_unmasked(self):
        vocab = small_vocab(6)
        fn = lambda src, gen: np.zeros(len(vocab))
        hyp = greedy_decode(TableModel(fn, vocab, vocab), [4], DecodeConfig(max_len=3))
        # PAD(0) and BOS(2) are barred, so the lowest unmasked id is UNK(1)
        assert hyp.ids[0] == 1

    def test_respects_max_len_cap(self):
        vocab = small_vocab(4)
        fn = lambda src, gen: np.eye(len(vocab))[4] * 5  # never EOS
        hyp = greedy_decode(TableModel(fn, vocab, vocab), [4], DecodeConfig(max_len=7))
        assert len(hyp.ids) == 7
        assert EOS_ID not in hyp.ids

    def test_default_cap_tracks_source_length(self):
        vocab = small_vocab(4)
        fn = lambda src, gen: np.eye(len(vocab))[4] * 5
        hyp = greedy_decode(TableModel(fn, vocab, vocab), [4, 5, 6])
        assert len(hyp.ids) == 2 * 3 + 10

    def test_no_pad_or_bos_in_output(self):
        for seed in range(10):
            model = random_table_model(seed, 8)
            hyp = greedy_decode(model, [4, 5], DecodeConfig(max_len=8))
            assert PAD_ID not in hyp.ids
            assert BOS_ID not in hyp.ids
            assert EOS_ID not in hyp.output_ids

    def test_batch_matches_single(self):
        model = random_table_model(11, 9)
        sources = [[4, 5], [6], [7, 8, 4]]
        batch = np.full((3, 3), PAD_ID, dtype=np.int64)
        for i, s in enumerate(sources):
            batch[i, :len(s)] = s
        hyps = greedy_decode_batch(model, batch, config=DecodeConfig(beam=1))
        for s, hyp in zip(sources, hyps):
            assert hyp == greedy_decode(model, s, DecodeConfig(beam=1))


class TestBeam:
    @pytest.mark.parametrize("arch", ["lstm", "bilstm", "conv", "transformer"])
    def test_beam_one_equals_greedy_real_models(self, arch):
        rng = RngState(17)
        for trial in range(5):
            model = tiny_real_model(arch, seed=trial)
            n = int(rng.uniform((), 1, 6))
            src = [int(rng.uniform((), 4, 10)) for _ in range(n)]
            cfg = DecodeConfig(beam=1, max_len=8)
            g = greedy_decode(model, src, cfg)
            b, _ = beam_decode(model, src, cfg)
            assert g.ids == b.ids
            assert abs(g.logprob - b.logprob) < 1e-12

    def test_beam_one_equals_greedy_table_models(self):
        for seed in range(25):
            model = random_table_model(seed, 9)
            cfg = DecodeConfig(beam=1, max_len=6)
            g = greedy_decode(model, [4, 5], cfg)
            b, _ = beam_decode(model, [4, 5], cfg)
            assert g.ids == b.ids

    def test_beam_finds_better_sequence_than_greedy(self):
        """Constructed trap: the greedy first token leads to a weak
        continuation; beam=2 recovers the higher-probability sequence."""
        vocab = small_vocab(2)  # ids 4, 5
        A, B = 4, 5

        def fn(src, gen):
            row = np.full(len(vocab), -30.0)
            if len(gen) == 0:
                row[A] = math.log(0.6)
                row[B] = math.log(0.4)
            elif gen[0] == A:
                row[A] = math.log(0.55)   # greedy path dribbles on
                row[EOS_ID] = math.log(0.2)
            else:
                row[EOS_ID] = math.log(0.95)
            return row

        model = TableModel(fn, vocab, vocab)
        cfg = DecodeConfig(beam=2, max_len=3, length_penalty=0.0)
        greedy = greedy_decode(model, [4], DecodeConfig(beam=1, max_len=3,
                                                        length_penalty=0.0))
        best, nbest = beam_decode(model, [4], cfg)
        assert greedy.ids[0] == A
        assert best.ids == (B, EOS_ID)
        assert best.logprob > greedy.logprob
        # oracle agrees
        oracle_ids, oracle_lp = exhaustive_best(
            lambda p: masked_logprobs(model, (4,), p), len(vocab), EOS_ID,
            max_len=3, alpha=0.0)
        assert tuple(oracle_ids) == best.ids
        assert abs(oracle_lp - best.logprob) < 1e-12

    def test_nbest_sorted_by_normalized_score(self):
        model = random_table_model(5, 8)
        _, nbest = beam_decode(model, [4, 5], DecodeConfig(beam=4, max_len=5))
        scores = [h.normalized_score for h in nbest]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_full_width_beam_matches_exhaustive_oracle(self, alpha):
        rng = RngState(23)
        for trial in range(12):
            v = int(rng.uniform((), 5, 10))  # includes 4 specials
            model = random_table_model(100 + trial, v)
            max_len = int(rng.uniform((), 2, 5))
            src = [4]
            cfg = DecodeConfig(beam=v ** max_len, max_len=max_len,
                               length_penalty=alpha)
            best, _ = beam_decode(model, src, cfg)
            oracle_ids, oracle_lp = exhaustive_best(
                lambda p: masked_logprobs(model, (4,), p), v, EOS_ID,
                max_len=max_len, alpha=alpha)
            assert best.ids == tuple(oracle_ids)
            assert abs(best.logprob - oracle_lp) < 1e-10

    def test_longer_cap_keeps_eos_terminated_output(self):
        mapping = {4: 5, 5: 6, 6: 7}
        vocab = small_vocab(6)
        model = cipher_table_model(mapping, vocab, vocab)
        short = beam_decode(model, [4, 5], DecodeConfig(beam=3, max_len=6))[0]
        longer = beam_decode(model, [4, 5], DecodeConfig(beam=3, max_len=20))[0]
        assert short.ids == longer.ids == (5, 6, EOS_ID)

    def test_cipher_model_exact(self):
        mapping = {4: 7, 5: 6, 6: 5, 7: 4}
        vocab = small_vocab(6)
        model = cipher_table_model(mapping, vocab, vocab)
        hyp, _ = beam_decode(model, [6, 6, 4], DecodeConfig(beam=2))
        assert hyp.output_ids == (5, 5, 7)


class TestSearchEntries:
    @pytest.mark.parametrize("arch", ["lstm", "bilstm", "conv", "transformer"])
    def test_every_entry_gives_the_same_hypotheses(self, arch):
        """decode_many, greedy_decode_batch (mask derived or explicit),
        greedy_decode and beam_decode at beam 1 are one search: on the same
        sources they return equal ids and log-probs."""
        model = tiny_real_model(arch, seed=3)
        cfg = DecodeConfig(beam=1, max_len=8)
        sources = [[4, 5, 6, 7, EOS_ID], [8, EOS_ID], [5, 9, 6, EOS_ID]]
        batch = np.full((3, 5), PAD_ID, dtype=np.int64)
        for i, s in enumerate(sources):
            batch[i, :len(s)] = s
        many = decode_many(model, sources, cfg)
        assert greedy_decode_batch(model, batch, config=cfg) == many
        assert greedy_decode_batch(model, batch, batch == PAD_ID, cfg) == many
        for s in sources:
            alone = decode_many(model, [s], cfg)
            assert greedy_decode_batch(model, np.array([s]), config=cfg) == alone
            assert [greedy_decode(model, s, cfg)] == alone
            assert [beam_decode(model, s, cfg)[0]] == alone

    def test_beam_decode_rejects_two_rows(self):
        model = random_table_model(3, 8)
        with pytest.raises(ConfigError):
            beam_decode(model, np.array([[4, 5], [6, 7]]), DecodeConfig(beam=2))

    def test_empty_batch_gives_no_hypotheses(self):
        model = tiny_real_model("transformer", seed=0)
        assert decode_many(model, [], DecodeConfig(beam=2)) == []
        assert greedy_decode_batch(model, np.zeros((0, 4), dtype=np.int64)) == []


class TestHypothesis:
    def test_normalized_score(self):
        h = Hypothesis((4, 5, EOS_ID), -1.5, alpha=1.0)
        assert h.normalized_score == -0.5

    def test_alpha_zero_is_raw_logprob(self):
        h = Hypothesis((4, 5), -1.5, alpha=0.0)
        assert h.normalized_score == -1.5

    def test_logprob_nonpositive(self):
        for seed in range(5):
            model = random_table_model(seed, 8)
            hyp = greedy_decode(model, [4], DecodeConfig(max_len=5))
            assert hyp.logprob <= 0.0

    def test_empty_hypothesis_score_defined(self):
        assert Hypothesis((), 0.0).normalized_score == 0.0
