"""Pseudo-parallel generation, mixing arithmetic, and the paired experiment."""

from types import SimpleNamespace

import pytest

from dmt.autodiff import RngState
from dmt.backtranslation import bt_experiment, generate_pseudo_parallel, mix
from dmt.corpus import LanguageTag, MonolingualCorpus, ParallelCorpus, SentencePair
from dmt.decoding import DecodeConfig
from dmt.errors import CorpusError
from dmt.pipeline import build_context
from dmt.training import TrainConfig

from toymodels import cipher_table_model

KN = LanguageTag("kn")
ML = LanguageTag("ml")

SRC_LETTERS = list("abcdefg")
CIPHER = {c: chr(ord(c) + 13) for c in SRC_LETTERS}  # a->n, b->o, ...


def cipher_text(text):
    return " ".join(CIPHER[t] for t in text.split())


def make_sentences(rng, n, lo=4, hi=8):
    out = []
    for _ in range(n):
        k = int(rng.uniform((), lo, hi + 1))
        out.append(" ".join(SRC_LETTERS[int(rng.uniform((), 0, len(SRC_LETTERS)))]
                            for _ in range(k)))
    return out


def make_real(rng, n):
    sents = make_sentences(rng, n)
    return ParallelCorpus([SentencePair(s, cipher_text(s)) for s in sents], KN, ML)


def reverse_cipher_model(reverse_ctx):
    """Exact deciphering reverse model over the reverse context's vocabs."""
    mapping = {}
    for c in SRC_LETTERS:
        ml_id = reverse_ctx.src_vocab.id_of[CIPHER[c]]
        kn_id = reverse_ctx.tgt_vocab.id_of[c]
        mapping[ml_id] = kn_id
    return cipher_table_model(mapping, reverse_ctx.src_vocab, reverse_ctx.tgt_vocab)


@pytest.fixture(scope="module")
def setup():
    rng = RngState(77)
    real = make_real(rng, 60)
    reverse_ctx = build_context(real.swapped(), num_merges=0)
    model = reverse_cipher_model(reverse_ctx)
    return real, reverse_ctx, model


class TestGeneratePseudoParallel:
    def test_empty_mono(self, setup):
        _, ctx, model = setup
        pseudo = generate_pseudo_parallel(model, MonolingualCorpus([], ML), ctx,
                                          DecodeConfig(beam=1))
        assert len(pseudo) == 0
        assert pseudo.provenance.n_dropped == 0

    def test_full_coverage_when_no_empties(self, setup):
        _, ctx, model = setup
        rng = RngState(5)
        mono = MonolingualCorpus([cipher_text(s) for s in make_sentences(rng, 50)], ML)
        pseudo = generate_pseudo_parallel(model, mono, ctx, DecodeConfig(beam=1))
        assert len(pseudo) == 50
        assert pseudo.provenance.n_dropped == 0

    def test_exact_decipherment(self, setup):
        _, ctx, model = setup
        rng = RngState(6)
        originals = make_sentences(rng, 30)
        mono = MonolingualCorpus([cipher_text(s) for s in originals], ML)
        pseudo = generate_pseudo_parallel(model, mono, ctx, DecodeConfig(beam=1))
        for pair, original in zip(pseudo.pairs, originals):
            assert pair.source == original

    def test_targets_verbatim_and_synthetic_flag(self, setup):
        _, ctx, model = setup
        rng = RngState(7)
        mono = MonolingualCorpus([cipher_text(s) for s in make_sentences(rng, 20)], ML)
        pseudo = generate_pseudo_parallel(model, mono, ctx, DecodeConfig(beam=1))
        for pair, line in zip(pseudo.pairs, mono.sentences):
            assert pair.target == line
            assert pair.synthetic

    def test_forward_orientation(self, setup):
        _, ctx, model = setup
        mono = MonolingualCorpus([cipher_text("a b c d")], ML)
        pseudo = generate_pseudo_parallel(model, mono, ctx, DecodeConfig(beam=1))
        assert pseudo.src_lang == KN and pseudo.tgt_lang == ML

    def test_provenance_traceable(self, setup):
        _, ctx, model = setup
        rng = RngState(8)
        mono = MonolingualCorpus([cipher_text(s) for s in make_sentences(rng, 10)], ML)
        pseudo = generate_pseudo_parallel(model, mono, ctx, DecodeConfig(beam=1),
                                          checkpoint_fingerprint="cafe0123")
        assert pseudo.mono_indices == list(range(10))
        lines = pseudo.sidecar_lines()
        assert len(lines) == 10
        assert all(ln.split("\t")[1] == "cafe0123" for ln in lines)

    def test_source_beyond_max_positions_dropped(self, setup):
        _, ctx, _ = setup
        model = reverse_cipher_model(ctx)
        model.config = SimpleNamespace(max_positions=8)  # the limit search reads
        lines = ["a b c", " ".join("abcdefga"), "d e f g"]
        mono = MonolingualCorpus([cipher_text(s) for s in lines], ML)
        pseudo = generate_pseudo_parallel(model, mono, ctx, DecodeConfig(beam=1))
        assert [p.source for p in pseudo.pairs] == [lines[0], lines[2]]
        assert pseudo.mono_indices == [0, 2]
        assert pseudo.provenance.n_dropped == 1

    def test_language_mismatch_rejected(self, setup):
        _, ctx, model = setup
        with pytest.raises(CorpusError):
            generate_pseudo_parallel(model, MonolingualCorpus(["a b"], KN), ctx)


class TestMix:
    def make(self, n, synthetic=False):
        pairs = [SentencePair(f"s {i} x q", f"t {i} y w", synthetic) for i in range(n)]
        return ParallelCorpus(pairs, KN, ML)

    def test_size_arithmetic(self):
        mixed = mix(self.make(7), self.make(5, True), upsample_real=1, seed=1)
        assert len(mixed) == 12

    def test_empty_pseudo_is_permutation(self):
        real = self.make(9)
        mixed = mix(real, self.make(0, True), seed=2)
        assert sorted(p.source for p in mixed) == sorted(p.source for p in real)

    def test_upsample_doubles_real_only(self):
        mixed = mix(self.make(4), self.make(3, True), upsample_real=2, seed=3)
        assert len(mixed) == 2 * 4 + 3
        assert sum(1 for p in mixed if not p.synthetic) == 8

    def test_synthetic_flags_preserved(self):
        mixed = mix(self.make(4), self.make(3, True), seed=4)
        assert sum(p.synthetic for p in mixed) == 3

    def test_deterministic_under_seed(self):
        a = mix(self.make(10), self.make(5, True), seed=9)
        b = mix(self.make(10), self.make(5, True), seed=9)
        assert [p.source for p in a] == [p.source for p in b]

    def test_tag_mismatch_rejected(self):
        other = ParallelCorpus([SentencePair("a b", "c d")], KN, LanguageTag("ta"))
        with pytest.raises(CorpusError):
            mix(self.make(2), other)

    def test_bad_upsample(self):
        with pytest.raises(CorpusError):
            mix(self.make(2), self.make(1, True), upsample_real=0)


class TestBtExperiment:
    def tiny_cfg(self, epochs=2):
        return TrainConfig(arch="transformer", learning_rate=2e-3, batch_size=32,
                           epochs=epochs, label_smoothing=0.1, lr_shrink=1.0)

    def overrides(self):
        return dict(enc_layers=1, dec_layers=1, d_model=16, n_heads=2,
                    d_ffn=32, max_positions=64)

    def test_empty_mono_reuses_baseline(self):
        rng = RngState(30)
        real = make_real(rng, 30)
        dev = make_real(rng, 8)
        outcome = bt_experiment(real, MonolingualCorpus([], ML), dev,
                                self.tiny_cfg(), self.tiny_cfg(),
                                model_overrides=self.overrides(), bpe_merges=0,
                                seed=4)
        assert outcome.n_pseudo == 0
        assert outcome.baseline_bleu == outcome.augmented_bleu
        assert outcome.baseline_report is outcome.augmented_report

    def test_run_directory_artifacts(self, tmp_path):
        rng = RngState(31)
        real = make_real(rng, 30)
        dev = make_real(rng, 6)
        mono = MonolingualCorpus([cipher_text(s) for s in make_sentences(rng, 20)], ML)
        outcome = bt_experiment(real, mono, dev, self.tiny_cfg(), self.tiny_cfg(),
                                model_overrides=self.overrides(), bpe_merges=0,
                                seed=4, run_dir=tmp_path / "bt")
        root = tmp_path / "bt"
        assert (root / "pseudo.src").exists()
        assert (root / "pseudo.tgt").exists()
        sidecar = (root / "pseudo.provenance.tsv").read_text().splitlines()
        assert len(sidecar) == outcome.n_pseudo
        comparison = (root / "comparison.tsv").read_text()
        assert "baseline" in comparison and "augmented" in comparison
        assert (root / "baseline" / "best.dmt").exists()
        assert (root / "augmented" / "best.dmt").exists()
        assert (root / "reverse" / "best.dmt").exists()

    def test_pseudo_targets_match_mono(self, tmp_path):
        rng = RngState(32)
        real = make_real(rng, 30)
        dev = make_real(rng, 6)
        mono_lines = [cipher_text(s) for s in make_sentences(rng, 15)]
        outcome = bt_experiment(real, MonolingualCorpus(mono_lines, ML), dev,
                                self.tiny_cfg(), self.tiny_cfg(),
                                model_overrides=self.overrides(), bpe_merges=0,
                                seed=4, run_dir=tmp_path / "bt")
        saved = (tmp_path / "bt" / "pseudo.tgt").read_text(encoding="utf-8").splitlines()
        sidecar = (tmp_path / "bt" / "pseudo.provenance.tsv").read_text().splitlines()
        kept = [int(ln.split("\t")[0]) for ln in sidecar]
        # target sides are the monolingual lines at the traced indices,
        # byte for byte; dropped (empty) translations are accounted for
        assert saved == [mono_lines[i] for i in kept]
        assert len(saved) + outcome.n_dropped == len(mono_lines)
