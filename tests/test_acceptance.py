"""Acceptance gates: one test per criterion, each printing a pass line
with its wall time (run with `pytest tests/test_acceptance.py -v -s`).

Every expected value here is either computed by an independent oracle in
tests/oracles.py (brute-force BLEU, finite differences, exhaustive
search) or asserted structurally (round trips, bit-identity, counts).
"""

import math
import time
import unicodedata

import numpy as np
import pytest

import dmt.autodiff as ad
from dmt import textnorm
from dmt.autodiff import RngState, Tensor
from dmt.backtranslation import bt_experiment, mix
from dmt.bleu import corpus_average, modified_precision, sentence_bleu
from dmt.corpus import (LanguageTag, MonolingualCorpus, ParallelCorpus,
                        SentencePair, load_monolingual, load_parallel)
from dmt.decoding import DecodeConfig, beam_decode, greedy_decode
from dmt.experiment import run_experiment
from dmt.models import build_model, config_for_arch, label_smoothed_loss
from dmt.subword import (BOS_ID, EOS_ID, PAD_ID, apply_bpe, build_vocab,
                         learn_bpe, undo_bpe)
from dmt.training import TrainConfig, restore_model, save_checkpoint, snapshot, train
from dmt.training import load_checkpoint

from oracles import bleu_oracle, exhaustive_best, fd_grad, fd_grad_sampled, max_rel_err
from test_bleu import GOLDEN_CASES, to_ref_lists
from test_decoding import masked_logprobs, tiny_real_model
from toymodels import random_table_model

ARCHS = ["lstm", "bilstm", "conv", "transformer"]
KN, ML = LanguageTag("kn"), LanguageTag("ml")


@pytest.fixture
def announce(capsys):
    """Reporter that prints one pass line per criterion, past the capture."""

    def _announce(number, label, elapsed, detail=""):
        extra = f"; {detail}" if detail else ""
        with capsys.disabled():
            print(f"\n[criterion {number:02d}] PASS {label} "
                  f"({elapsed:.1f}s{extra})")

    return _announce


def random_tokens(rng, vocab_size, length):
    return [str(int(rng.uniform((), 0, vocab_size))) for _ in range(length)]


# ---------------------------------------------------------------------------


class TestC01BleuOracleSuite:
    def test_golden_cases_match_brute_force(self, announce):
        t0 = time.time()
        assert len(GOLDEN_CASES) == 20
        # the clipped-unigram flagship case
        cand = "the the the the the the the".split()
        refs = ["the cat is on the mat".split()]
        assert modified_precision(cand, refs, 1) == (2, 7)
        # zero 4-gram cases present and scored 0
        zeros = 0
        worst = 0.0
        scores = []
        for case in GOLDEN_CASES:
            c, rs = to_ref_lists(case)
            expected = bleu_oracle(c, rs)
            got = sentence_bleu(c, rs)
            worst = max(worst, abs(got - expected))
            zeros += expected == 0.0
            scores.append(got)
        assert worst < 1e-12
        assert zeros >= 2
        mean = corpus_average(scores).mean
        assert abs(mean - math.fsum(scores) / len(scores)) < 1e-15
        elapsed = time.time() - t0
        assert elapsed < 1.0
        announce(1, "BLEU oracle suite (20 golden cases, mean arithmetic)",
                 elapsed, f"max deviation {worst:.2e}")


class TestC02BleuPropertySweep:
    def test_sweep_and_monotonicity(self, announce):
        t0 = time.time()
        rng = RngState(202)
        worst = 0.0
        for _ in range(1000):
            cand = random_tokens(rng, 10, int(rng.uniform((), 0, 13)))
            refs = [random_tokens(rng, 10, int(rng.uniform((), 1, 13)))
                    for _ in range(int(rng.uniform((), 1, 3)))]
            worst = max(worst, abs(sentence_bleu(cand, refs) - bleu_oracle(cand, refs)))
        assert worst < 1e-12

        holds = 0
        for _ in range(500):
            cand = random_tokens(rng, 10, int(rng.uniform((), 1, 13)))
            refs = [random_tokens(rng, 10, int(rng.uniform((), 1, 13)))]
            before = sentence_bleu(cand, refs)
            refs.append(random_tokens(rng, 10, int(rng.uniform((), 1, 13))))
            holds += sentence_bleu(cand, refs) >= before - 1e-15
        assert holds == 500
        announce(2, "BLEU property sweep (1000 pairs vs oracle, 500 "
                    "monotonicity trials)", time.time() - t0,
                 f"max deviation {worst:.2e}")


class TestC03BpeRoundTrip:
    def test_ten_models_thousand_sentences(self, announce):
        t0 = time.time()
        rng = RngState(303)
        total = 0
        for trial in range(10):
            alphabet = "abcdefghijkl"[: int(rng.uniform((), 4, 13))]
            n_train = int(rng.uniform((), 100, 400))
            budget = int(rng.uniform((), 0, 5001))

            def sentence():
                words = []
                for _ in range(int(rng.uniform((), 1, 7))):
                    k = int(rng.uniform((), 1, 7))
                    words.append("".join(
                        alphabet[int(rng.uniform((), 0, len(alphabet)))]
                        for _ in range(k)))
                return words

            model = learn_bpe([sentence() for _ in range(n_train)], budget)
            for _ in range(1000):
                probe = sentence()
                assert undo_bpe(apply_bpe(model, probe)) == probe
                total += 1
        elapsed = time.time() - t0
        assert total == 10_000
        assert elapsed < 30.0
        announce(3, "BPE round trip (10 models x 1000 sentences, exact)", elapsed)


class TestC04TransliterationRoundTrip:
    def test_exhaustive_block_sweep(self, announce):
        t0 = time.time()
        scripts = (textnorm.KANNADA, textnorm.TAMIL, textnorm.TELUGU,
                   textnorm.MALAYALAM)
        mapped = passthrough = 0
        for script in scripts:
            for cp in range(script.block_base,
                            script.block_base + textnorm.ScriptId.BLOCK_SIZE):
                ch = chr(cp)
                if unicodedata.category(ch) == "Cn":
                    continue
                dev, n_pass = textnorm.transliterate_counted(
                    ch, script, textnorm.DEVANAGARI)
                assert textnorm.detransliterate(dev, script) == ch
                if n_pass:
                    passthrough += 1
                    assert dev == ch
                else:
                    mapped += 1
        # the reverse direction hits block gaps (Tamil especially): those
        # codepoints must pass through unchanged and be counted
        gap_counted = 0
        for script in scripts:
            for cp in range(0x0900, 0x0980):
                ch = chr(cp)
                if unicodedata.category(ch) == "Cn":
                    continue
                native, n_pass = textnorm.transliterate_counted(
                    ch, textnorm.DEVANAGARI, script)
                if n_pass:
                    gap_counted += 1
                    assert native == ch
                else:
                    assert textnorm.transliterate(native, script,
                                                  textnorm.DEVANAGARI) == ch
        elapsed = time.time() - t0
        assert mapped > 300
        assert gap_counted > 0
        assert elapsed < 1.0
        announce(4, "transliteration round trip (exhaustive 4-block sweep)",
                 elapsed, f"{mapped} mapped, {passthrough + gap_counted} "
                          f"counted passthrough")


class TestC05GradientChecks:
    def _check(self, build, tensors, rng, tol=1e-4):
        out = build()
        w = rng.uniform(out.shape if out.shape else (1,), -1, 1).reshape(out.shape)
        ad.backward(ad.reduce_sum(ad.mul(out, w)))
        analytic = [t.grad.copy() for t in tensors]

        def f():
            with ad.no_grad():
                return float((build().data * w).sum())

        for t, a in zip(tensors, analytic):
            err = max_rel_err(a, fd_grad(f, t.data))
            assert err < tol, f"op gradient rel err {err}"
        ad.zero_grad(tensors)

    def test_every_op(self, announce):
        t0 = time.time()
        rng = RngState(505)

        def rand(*shape):
            return Tensor(rng.uniform(shape, -1.0, 1.0), requires_grad=True)

        checked = 0
        for trial in range(10):
            a, b = rand(2, 3), rand(2, 3)
            bc = rand(1, 3)
            m1, m2 = rand(3, 4), rand(4, 2)
            bm1, bm2 = rand(2, 3, 4), rand(2, 4, 2)
            x3 = rand(2, 4, 3)
            kernel = rand(3, 3, 4)
            gamma, beta = rand(3), rand(3)
            # keep activation inputs away from the relu kink
            act = Tensor(rng.uniform((3, 3), 0.1, 1.5)
                         * np.sign(rng.uniform((3, 3), -1, 1)), requires_grad=True)
            table = rand(5, 3)
            ids = np.array(rng.uniform((4,), 0, 5), dtype=np.int64)
            gl = np.array(rng.uniform((2, 4), 0, 3), dtype=np.int64)
            st = np.array(rng.uniform((2,), 0, 4), dtype=np.int64)
            perm = np.stack([RngState(trial * 7 + i).permutation(4)
                             for i in range(2)])
            # lstm inputs from their own stream, so the other cases see
            # the same inputs as before the op was added
            lstm_rng = RngState(600 + trial)
            w_ih, w_hh, lb, h0, c0 = (
                Tensor(lstm_rng.uniform(shape, -1.0, 1.0), requires_grad=True)
                for shape in ((3, 8), (2, 8), (8,), (2, 2), (2, 2)))
            # attention inputs from their own stream too: even heads over
            # a padded source, ragged heads (5 over 3) under a causal mask
            attn_rng = RngState(700 + trial)
            aq, ak, av, rq, rk, rv = (
                Tensor(attn_rng.uniform(shape, -1.0, 1.0), requires_grad=True)
                for shape in ((2, 3, 4), (2, 4, 4), (2, 4, 4),
                              (2, 3, 5), (2, 3, 5), (2, 3, 5)))
            pad_bias = Tensor(np.where(np.arange(4)[None, None, :] >= np.array(
                [[[4]], [[2]]]), ad.NEG_INF, 0.0))
            causal = Tensor(np.triu(np.full((1, 3, 3), ad.NEG_INF), k=1))
            # the LSTM and conv decoders' attention: one unscaled head,
            # the source states as both keys and values, a pad bias
            dot_rng = RngState(800 + trial)
            uq, us = (Tensor(dot_rng.uniform(shape, -1.0, 1.0), requires_grad=True)
                      for shape in ((2, 3, 4), (2, 5, 4)))
            src_bias = Tensor(np.where(np.arange(5)[None, None, :] >= np.array(
                [[[5]], [[3]]]), ad.NEG_INF, 0.0))
            cases = [
                (lambda: ad.add(a, b), [a, b]),
                (lambda: ad.mul(a, bc), [a, bc]),
                (lambda: ad.matmul(m1, m2), [m1, m2]),
                (lambda: ad.matmul(bm1, bm2), [bm1, bm2]),
                (lambda: ad.matmul(bm1, m2), [bm1, m2]),
                (lambda: ad.reduce_sum(x3, axis=1), [x3]),
                (lambda: ad.softmax(a, axis=-1), [a]),
                (lambda: ad.log_softmax(a, axis=-1), [a]),
                (lambda: ad.sigmoid(act), [act]),
                (lambda: ad.tanh(act), [act]),
                (lambda: ad.relu(act), [act]),
                (lambda: ad.layer_norm(x3, gamma, beta), [x3, gamma, beta]),
                (lambda: ad.embedding(table, ids), [table]),
                (lambda: ad.conv1d(x3, kernel, "same"), [x3, kernel]),
                (lambda: ad.conv1d(x3, kernel, "valid"), [x3, kernel]),
                (lambda: ad.glu(rand(2, 3, 6)), None),
                (lambda: ad.dropout(a, 0.4, RngState(trial), training=True), [a]),
                (lambda: ad.concat([a, b], axis=0), [a, b]),
                (lambda: ad.slice_axis(x3, 1, 1, 3), [x3]),
                (lambda: ad.transpose(x3, (0, 2, 1)), [x3]),
                (lambda: ad.reshape(x3, (2, 12)), [x3]),
                (lambda: ad.gather_last(x3, gl), [x3]),
                (lambda: ad.select_time(x3, st), [x3]),
                (lambda: ad.gather_time(x3, perm), [x3]),
                (lambda: ad.lstm(x3, w_ih, w_hh, lb)[0], [x3, w_ih, w_hh, lb]),
                (lambda: ad.lstm(x3, w_ih, w_hh, lb, h0, c0)[1],
                 [x3, w_ih, w_hh, lb, h0, c0]),
                (lambda: ad.attention(aq, ak, av, pad_bias, [2, 2], 1 / np.sqrt([2, 2])),
                 [aq, ak, av]),
                (lambda: ad.attention(rq, rk, rv, causal, [2, 2, 1], 1 / np.sqrt([2, 2, 1])),
                 [rq, rk, rv]),
                (lambda: ad.attention(uq, us, us, src_bias, [4], 1.0), [uq, us]),
            ]
            for build, tensors in cases:
                if tensors is None:
                    g = rand(2, 3, 6)
                    self._check(lambda: ad.glu(g), [g], rng)
                else:
                    self._check(build, tensors, rng)
                checked += 1
        elapsed = time.time() - t0
        announce(5, f"gradient checks, op level ({checked} op instances)",
                 elapsed, "rel err < 1e-4")
        assert elapsed < 60.0

    def test_every_architecture_loss(self, announce):
        t0 = time.time()
        rng = RngState(506)
        for arch in ARCHS:
            for trial in range(10):
                vs = int(rng.uniform((), 8, 14))
                vt = int(rng.uniform((), 8, 14))
                src_vocab = build_vocab([[f"s{i}" for i in range(vs - 4)
                                          for _ in range(2)]])
                tgt_vocab = build_vocab([[f"t{i}" for i in range(vt - 4)
                                          for _ in range(2)]])
                if arch in ("lstm", "bilstm"):
                    cfg = config_for_arch(arch, embed_dim=int(rng.uniform((), 4, 9)),
                                          hidden_dim=int(rng.uniform((), 4, 9)),
                                          dropout=0.0)
                elif arch == "conv":
                    cfg = config_for_arch(arch, enc_layers=1, dec_layers=1,
                                          dim=int(rng.uniform((), 4, 9)),
                                          kernel_width=3, dropout=0.0,
                                          max_positions=16)
                else:
                    cfg = config_for_arch(arch, enc_layers=1, dec_layers=1,
                                          d_model=2 * int(rng.uniform((), 2, 5)),
                                          n_heads=2,
                                          d_ffn=int(rng.uniform((), 4, 10)),
                                          dropout=0.0, max_positions=16)
                model = build_model(cfg, src_vocab, tgt_vocab,
                                    seed=trial * 31 + 7)
                b, s, t = 2, int(rng.uniform((), 2, 5)), int(rng.uniform((), 2, 5))
                src = np.array(rng.uniform((b, s), 4, len(src_vocab)), dtype=np.int64)
                tgt_in = np.array(rng.uniform((b, t), 4, len(tgt_vocab)), dtype=np.int64)
                tgt_in[:, 0] = BOS_ID
                tgt_out = np.roll(tgt_in, -1, axis=1)
                tgt_out[:, -1] = EOS_ID
                pad = src == PAD_ID

                def loss_value():
                    with ad.no_grad():
                        logits = model.forward(src, pad, tgt_in)
                        return label_smoothed_loss(logits, tgt_out,
                                                   epsilon=0.1).item()

                loss = label_smoothed_loss(model.forward(src, pad, tgt_in),
                                           tgt_out, epsilon=0.1)
                ad.backward(loss)
                pick = RngState(trial * 101 + 13)
                for name, p in model.params.items():
                    assert p.grad is not None, f"{arch}.{name} got no gradient"
                    n_idx = min(3, p.size)
                    idx = np.unique(np.array(
                        pick.uniform((n_idx,), 0, p.size), dtype=np.int64))
                    numeric = fd_grad_sampled(loss_value, p.data, idx)
                    analytic = p.grad.reshape(-1)[idx]
                    err = max_rel_err(analytic, numeric)
                    assert err < 1e-4, f"{arch}.{name}: rel err {err}"
                ad.zero_grad(model.params)
        elapsed = time.time() - t0
        assert elapsed < 120.0
        announce(5, "gradient checks, architecture level (4 archs x 10 configs)",
                 elapsed, "rel err < 1e-4")


class TestC06CausalityAndMasking:
    def test_all_architectures(self, announce):
        t0 = time.time()
        for arch in ARCHS:
            rng = RngState(606)
            for trial in range(10):
                model = tiny_real_model(arch, seed=trial)
                b = int(rng.uniform((), 1, 3))
                s = int(rng.uniform((), 2, 7))
                t = int(rng.uniform((), 2, 7))
                src = np.array(rng.uniform((b, s), 4, 10), dtype=np.int64)
                pad = np.zeros((b, s), dtype=bool)
                tgt = np.array(rng.uniform((b, t), 4, 10), dtype=np.int64)
                tgt[:, 0] = BOS_ID
                with ad.no_grad():
                    base = model.forward(src, pad, tgt).data
                # causality: tolerance 0
                for pos in range(1, t):
                    bumped = tgt.copy()
                    bumped[:, pos] = 4 + (bumped[:, pos] - 4 + 1) % 6
                    with ad.no_grad():
                        out = model.forward(src, pad, bumped).data
                    assert np.array_equal(out[:, :pos, :], base[:, :pos, :]), \
                        f"{arch}: future perturbation leaked (pos {pos})"
                # masking: appended pads and masked-token changes <= 1e-9
                padded = np.concatenate(
                    [src, np.full((b, 2), PAD_ID, dtype=np.int64)], axis=1)
                with ad.no_grad():
                    out = model.forward(padded, padded == PAD_ID, tgt).data
                assert np.abs(out - base).max() <= 1e-9, f"{arch}: pad leak"
                masked = np.concatenate(
                    [src, np.array(rng.uniform((b, 2), 4, 10), dtype=np.int64)],
                    axis=1)
                with ad.no_grad():
                    out = model.forward(masked, padded == PAD_ID, tgt).data
                assert np.abs(out - base).max() <= 1e-9, \
                    f"{arch}: masked token leak"
        elapsed = time.time() - t0
        assert elapsed < 60.0
        announce(6, "causality (tolerance 0) and pad masking (<= 1e-9), "
                    "all 4 architectures x 10 cases", elapsed)


def copy_corpus(seed, n_pairs, vocab, alphabet, lo=4, hi=10):
    rng = RngState(seed)
    pairs = []
    for _ in range(n_pairs):
        k = int(rng.uniform((), lo, hi + 1))
        ids = vocab.encode([alphabet[int(rng.uniform((), 0, len(alphabet)))]
                            for _ in range(k)])
        pairs.append((ids, ids))
    return pairs


COPY_ALPHABET = [chr(ord("a") + i) for i in range(16)]


@pytest.fixture(scope="module")
def copy_vocab():
    return build_vocab([COPY_ALPHABET * 2])


class TestC07CopyTaskOverfit:
    ALPHABET = COPY_ALPHABET

    def run_copy(self, arch, model_cfg, train_cfg, vocab):
        pairs = copy_corpus(71, 64, vocab, self.ALPHABET)
        model = build_model(model_cfg, vocab, vocab, seed=3)
        t0 = time.time()
        ckpt, report = train(model, pairs, pairs, train_cfg)
        elapsed = time.time() - t0
        best = max(r.dev_bleu for r in report.epochs)
        return best, len(report.epochs), elapsed

    def test_transformer_paper_config(self, copy_vocab, announce):
        vocab = copy_vocab
        # 3+3 layers, width 256, FFN 512, dropout 0.1, Adam lr 5e-4,
        # heads adjusted to 4
        cfg = config_for_arch("transformer", enc_layers=3, dec_layers=3,
                              d_model=256, n_heads=4, d_ffn=512, dropout=0.1,
                              max_positions=64)
        tc = TrainConfig(arch="transformer", learning_rate=5e-4, batch_size=16,
                         epochs=300, label_smoothing=0.1, seed=5,
                         lr_shrink=1.0, target_bleu=0.99)
        best, epochs, elapsed = self.run_copy("transformer", cfg, tc, vocab)
        assert best >= 0.99, f"transformer reached only {best:.4f}"
        assert epochs <= 300
        assert elapsed < 300.0
        announce(7, "copy-task overfit: transformer (256/512, 3+3, heads=4, "
                    "lr 5e-4)", elapsed, f"BLEU {best:.4f} at epoch {epochs}")

    @pytest.mark.parametrize("arch", ["lstm", "bilstm", "conv"])
    def test_recurrent_and_conv(self, copy_vocab, arch, announce):
        vocab = copy_vocab
        if arch in ("lstm", "bilstm"):
            cfg = config_for_arch(arch, embed_dim=64, hidden_dim=128, dropout=0.2)
            tc = TrainConfig(arch=arch, learning_rate=5e-3, batch_size=16,
                             epochs=500, label_smoothing=0.1, seed=5,
                             lr_shrink=1.0, clip_norm=1.0, target_bleu=0.95)
        else:
            cfg = config_for_arch(arch, enc_layers=2, dec_layers=2, dim=64,
                                  kernel_width=3, dropout=0.1, max_positions=64)
            tc = TrainConfig(arch=arch, learning_rate=3e-3, batch_size=16,
                             epochs=500, label_smoothing=0.1, seed=5,
                             lr_shrink=1.0, target_bleu=0.95)
        best, epochs, elapsed = self.run_copy(arch, cfg, tc, vocab)
        assert best >= 0.95, f"{arch} reached only {best:.4f}"
        assert epochs <= 500
        assert elapsed < 300.0
        announce(7, f"copy-task overfit: {arch}", elapsed,
                 f"BLEU {best:.4f} at epoch {epochs}")


class TestC08BeamGreedyEquivalence:
    def test_beam_one_equals_greedy_100_models(self, announce):
        t0 = time.time()
        rng = RngState(808)
        n = 0
        for trial in range(60):
            model = random_table_model(trial, int(rng.uniform((), 6, 11)))
            src = [int(rng.uniform((), 4, 9))
                   for _ in range(int(rng.uniform((), 1, 5)))]
            cfg = DecodeConfig(beam=1, max_len=int(rng.uniform((), 2, 8)))
            g = greedy_decode(model, src, cfg)
            b, _ = beam_decode(model, src, cfg)
            assert g.ids == b.ids and abs(g.logprob - b.logprob) < 1e-12
            n += 1
        for arch in ARCHS:
            for trial in range(10):
                model = tiny_real_model(arch, seed=trial)
                src = [int(rng.uniform((), 4, 10))
                       for _ in range(int(rng.uniform((), 1, 5)))]
                cfg = DecodeConfig(beam=1, max_len=8)
                g = greedy_decode(model, src, cfg)
                b, _ = beam_decode(model, src, cfg)
                assert g.ids == b.ids and abs(g.logprob - b.logprob) < 1e-12
                n += 1
        assert n == 100
        announce(8, "beam=1 equals greedy on 100 frozen models", time.time() - t0)

    def test_full_width_beam_equals_exhaustive_50_trials(self, announce):
        t0 = time.time()
        rng = RngState(809)
        wins = 0
        for trial in range(50):
            vocab_size = 5  # ids 0..4: pad/unk/bos/eos + one word
            model = random_table_model(900 + trial, vocab_size)
            max_len = int(rng.uniform((), 2, 5))
            alpha = [0.0, 1.0][trial % 2]
            cfg = DecodeConfig(beam=vocab_size ** max_len, max_len=max_len,
                               length_penalty=alpha)
            best, _ = beam_decode(model, [4], cfg)
            oracle_ids, oracle_lp = exhaustive_best(
                lambda p: masked_logprobs(model, (4,), p), vocab_size, EOS_ID,
                max_len=max_len, alpha=alpha)
            assert best.ids == tuple(oracle_ids)
            assert abs(best.logprob - oracle_lp) < 1e-10
            wins += 1
        assert wins == 50
        announce(8, "full-width beam equals exhaustive optimum (50 trials)",
                 time.time() - t0)


class TestC09BackTranslationExperiment:
    LETTERS = [chr(ord("a") + i) for i in range(26)] + ["A", "B", "C", "D"]
    CIPHER = {c: c + c for c in LETTERS}

    def sentences(self, rng, n, lo=5, hi=9):
        out = []
        for _ in range(n):
            k = int(rng.uniform((), lo, hi + 1))
            out.append(" ".join(
                self.LETTERS[int(rng.uniform((), 0, len(self.LETTERS)))]
                for _ in range(k)))
        return out

    def cipher_text(self, s):
        return " ".join(self.CIPHER[t] for t in s.split())

    def test_augmented_beats_baseline_in_4_of_5_seeds(self, announce):
        t0 = time.time()
        fwd = TrainConfig(arch="transformer", learning_rate=3e-3, batch_size=32,
                          epochs=14, label_smoothing=0.1, lr_shrink=1.0)
        rev = TrainConfig(arch="transformer", learning_rate=3e-3, batch_size=32,
                          epochs=20, label_smoothing=0.1, lr_shrink=1.0)
        overrides = dict(enc_layers=1, dec_layers=1, d_model=32, n_heads=2,
                         d_ffn=64, max_positions=64)
        wins = 0
        rows = []
        for seed in range(1, 6):
            rng = RngState(9000 + seed)
            real = ParallelCorpus(
                [SentencePair(s, self.cipher_text(s))
                 for s in self.sentences(rng, 200)], KN, ML)
            dev = ParallelCorpus(
                [SentencePair(s, self.cipher_text(s))
                 for s in self.sentences(rng, 50)], KN, ML)
            mono = MonolingualCorpus(
                [self.cipher_text(s) for s in self.sentences(rng, 2000)], ML)
            out = bt_experiment(real, mono, dev, fwd, rev,
                                model_overrides=overrides, bpe_merges=30,
                                decode_config=DecodeConfig(beam=1), seed=seed)
            assert out.n_pseudo + out.n_dropped == 2000
            rows.append(f"seed {seed}: {out.baseline_bleu:.3f} -> "
                        f"{out.augmented_bleu:.3f}")
            wins += out.improved
        elapsed = time.time() - t0
        assert wins >= 4, f"improvement in only {wins}/5 seeds ({rows})"
        assert elapsed < 900.0
        announce(9, f"back-translation desk experiment ({wins}/5 seeds improved)",
                 elapsed, "; ".join(rows))


class TestC10MixingArithmetic:
    def test_table_sized_counts(self, tmp_path, announce):
        t0 = time.time()
        # official kn-ml training size, from real files
        src = tmp_path / "big.kn"
        tgt = tmp_path / "big.ml"
        src.write_text("".join(f"s {i}\n" for i in range(90_974)), encoding="utf-8")
        tgt.write_text("".join(f"t {i}\n" for i in range(90_974)), encoding="utf-8")
        real = load_parallel(src, tgt, KN, ML)
        assert len(real) == 90_974

        mono_path = tmp_path / "mono.ml"
        mono_path.write_text("".join(f"m {i}\n" for i in range(80_000)),
                             encoding="utf-8")
        mono = load_monolingual(mono_path, ML)
        assert len(mono) == 80_000

        pseudo = ParallelCorpus(
            [SentencePair(f"p {i}", line, True)
             for i, line in enumerate(mono.sentences)], KN, ML)
        mixed = mix(real, pseudo, upsample_real=1, seed=1)
        assert len(mixed) == 170_974

        # official kn-tu training size
        from dmt.corpus import stats
        tu = ParallelCorpus([SentencePair(f"a {i}", f"b {i}")
                             for i in range(9_470)], KN, LanguageTag("tu"))
        assert stats(tu).n_pairs == 9_470
        elapsed = time.time() - t0
        assert elapsed < 10.0
        announce(10, "mixing arithmetic: 90,974 + 80,000 = 170,974 "
                     "(and kn-tu 9,470)", elapsed)


class TestC11DeterminismAndPersistence:
    ALPHABET = [chr(ord("a") + i) for i in range(12)]

    def test_bit_identical_trajectories_and_checkpoints(self, tmp_path, announce):
        t0 = time.time()
        vocab = build_vocab([self.ALPHABET * 2])
        pairs = copy_corpus(111, 24, vocab, self.ALPHABET, lo=4, hi=8)
        cfg = config_for_arch("transformer", enc_layers=1, dec_layers=1,
                              d_model=32, n_heads=2, d_ffn=64, dropout=0.1,
                              max_positions=32)
        tc = TrainConfig(arch="transformer", learning_rate=2e-3, batch_size=8,
                         epochs=5, label_smoothing=0.1, seed=9)

        def run():
            model = build_model(cfg, vocab, vocab, seed=4)
            ckpt, report = train(model, pairs, pairs[:6], tc)
            return model, ckpt, report

        m1, c1, r1 = run()
        m2, c2, r2 = run()
        for name in m1.params:
            assert np.array_equal(m1.params[name].data, m2.params[name].data), \
                f"trajectory diverged at {name}"
        assert [(e.train_loss, e.dev_loss, e.dev_bleu) for e in r1.epochs] == \
               [(e.train_loss, e.dev_loss, e.dev_bleu) for e in r2.epochs]

        # save -> load -> forward bit-identical
        path = tmp_path / "model.dmt"
        save_checkpoint(snapshot(m1), path)
        restored = restore_model(load_checkpoint(path), vocab, vocab)
        src = np.array([pairs[0][0]])
        tgt = np.array([[BOS_ID] + pairs[0][1][:-1]])
        with ad.no_grad():
            a = m1.forward(src, src == PAD_ID, tgt).data
            b = restored.forward(src, src == PAD_ID, tgt).data
        assert np.array_equal(a, b)
        announce(11, "determinism: bit-identical 5-epoch trajectories and "
                     "checkpoint round trip", time.time() - t0)

    def test_completed_experiment_rerun_does_no_work(self, copy_experiment, announce):
        t0 = time.time()
        run_dir = copy_experiment["run_dir"]
        stamps = {p: p.stat().st_mtime_ns
                  for p in (run_dir / "best.dmt", run_dir / "results.tsv",
                            run_dir / "outputs" / "test.hyp")}
        run_experiment(copy_experiment["config"],
                       runs_dir=copy_experiment["runs_dir"])
        for p, stamp in stamps.items():
            assert p.stat().st_mtime_ns == stamp, f"{p.name} was rewritten"
        assert "nothing to do" in (run_dir / "log.txt").read_text()
        announce(11, "persistence: completed experiment rerun performs no "
                     "stage work", time.time() - t0)
