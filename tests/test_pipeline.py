"""Pipeline context: text<->id plumbing, stage order, fingerprint guard."""

import pytest

import dmt.pipeline
from dmt import textnorm
from dmt.autodiff import RngState
from dmt.corpus import LanguageTag, ParallelCorpus, SentencePair
from dmt.decoding import DecodeConfig, translate_lines
from dmt.errors import FingerprintError
from dmt.models import build_model, config_for_arch
from dmt.pipeline import build_context, encode_corpus
from dmt.subword import EOS_ID

from toymodels import cipher_table_model

KN, ML = LanguageTag("kn"), LanguageTag("ml")


def small_corpus(n=30):
    rng = RngState(11)
    letters = list("abcdef")
    pairs = []
    for _ in range(n):
        k = int(rng.uniform((), 4, 8))
        src = " ".join(letters[int(rng.uniform((), 0, 6))] for _ in range(k))
        tgt = " ".join(t.upper() for t in src.split())
        pairs.append(SentencePair(src, tgt))
    return ParallelCorpus(pairs, KN, ML)


class TestBuildContext:
    def test_per_side_models(self):
        ctx = build_context(small_corpus(), num_merges=10)
        assert ctx.bpe_src is not ctx.bpe_tgt
        assert ctx.src_vocab.fingerprint() != ctx.tgt_vocab.fingerprint()

    def test_joint_shares_model_and_vocab(self):
        # joint: one BPE model learned over both sides and used by both;
        # each side keeps its own vocabulary over that model
        corpus = ParallelCorpus([SentencePair("ab ab abc", "XY XY XYZ")] * 3, KN, ML)
        ctx = build_context(corpus, num_merges=4, joint=True)
        assert ctx.bpe_src is ctx.bpe_tgt
        merged = "".join(a + b for a, b in ctx.bpe_src.merges)
        assert "a" in merged and "X" in merged
        specials = set(ctx.src_vocab.token_of[:4])
        assert set(ctx.src_vocab.token_of) - specials == {"ab", "a@@", "b@@", "c"}
        assert set(ctx.tgt_vocab.token_of) - specials == {"XY", "XYZ"}

    def test_scripts_follow_language_tags(self):
        ctx = build_context(small_corpus(), num_merges=0)
        assert ctx.src_script is textnorm.KANNADA
        assert ctx.tgt_script is textnorm.MALAYALAM

    def test_encode_corpus_appends_eos(self):
        corpus = small_corpus(5)
        ctx = build_context(corpus, num_merges=0)
        data = encode_corpus(ctx, corpus)
        assert len(data) == 5
        for src_ids, tgt_ids in data:
            assert src_ids[-1] == EOS_ID
            assert tgt_ids[-1] == EOS_ID

    def test_round_trip_through_ids(self):
        corpus = small_corpus(5)
        ctx = build_context(corpus, num_merges=0)
        for pair in corpus:
            ids = ctx.target_ids(pair.target)
            assert ctx.target_text(ids) == pair.target

    def test_tulu_and_sanskrit_pass_without_loss(self):
        # Tulu rides the Kannada block; Sanskrit is already Devanagari.
        # Both must survive the full text -> ids -> text chain exactly.
        samples = {
            "tu": ["ಶೈಕ್ಷಣಿಕ ವಿದ್ಯಾರ್ಹತೆ ಇದೆ ಇದೆ", "ಪುಸ್ತಕ ಮೇಜಿನ ಮೇಲೆ ಇದೆ"],
            "sn": ["शैक्षणिक योग्यता अस्ति अस्ति", "सत्यमेव जयते इति वचनम्"],
        }
        for lang, lines in samples.items():
            pairs = [SentencePair(ln, ln) for ln in lines]
            corpus = ParallelCorpus(pairs, LanguageTag(lang), LanguageTag(lang))
            ctx = build_context(corpus, num_merges=5)
            for ln in lines:
                assert ctx.target_text(ctx.target_ids(ln)) == ln
                assert ctx.target_text(ctx.source_ids(ln)) == ln


class TestTranslateGuard:
    def test_fingerprint_mismatch_rejected(self):
        corpus = small_corpus()
        ctx = build_context(corpus, num_merges=0)
        other_ctx = build_context(small_corpus(10), num_merges=0)
        model = cipher_table_model({}, other_ctx.src_vocab, other_ctx.tgt_vocab)
        with pytest.raises(FingerprintError):
            translate_lines(model, ["a b c d"], ctx, DecodeConfig(beam=1))[0]

    def test_empty_input_empty_output(self):
        corpus = small_corpus()
        ctx = build_context(corpus, num_merges=0)
        model = cipher_table_model({}, ctx.src_vocab, ctx.tgt_vocab)
        assert translate_lines(model, [""], ctx, DecodeConfig(beam=1))[0] == ""
        assert translate_lines(model, ["   "], ctx, DecodeConfig(beam=1))[0] == ""

    @pytest.mark.parametrize("arch", ["conv", "transformer"])
    def test_source_beyond_max_positions_left_untranslated(self, arch):
        """A line with more source ids than the model has positions
        translates to "", and the others as they would alone."""
        ctx = build_context(small_corpus(), num_merges=0)
        dims = (dict(dim=8, kernel_width=3) if arch == "conv"
                else dict(d_model=8, n_heads=2, d_ffn=16))
        cfg = config_for_arch(arch, enc_layers=1, dec_layers=1, dropout=0.0,
                              max_positions=32, **dims)
        model = build_model(cfg, ctx.src_vocab, ctx.tgt_vocab, seed=5)
        fits, too_long = " ".join("abcdef" * 6)[:61], " ".join("abcdef" * 6)[:63]
        assert [len(ctx.source_ids(ln)) for ln in (fits, too_long)] == [32, 33]
        lines = ["a b", too_long, "c d e", fits]
        config = DecodeConfig(beam=2)
        out = translate_lines(model, lines, ctx, config)
        assert out[1] == ""
        for i in (0, 2, 3):
            assert out[i] == translate_lines(model, [lines[i]], ctx, config)[0]


class TestStageOrder:
    def test_translate_runs_stages_in_order(self, monkeypatch):
        """The pipeline applies: normalize, tokenize, transliterate, BPE,
        decode, undo-BPE, detokenize, detransliterate."""
        corpus = small_corpus()
        ctx = build_context(corpus, num_merges=0)
        mapping = {}
        for tok in "abcdef":
            sub = ctx.source_subwords(tok)[0]
            out_tok = tok.upper()
            tgt_sub = ctx.target_subwords(out_tok)[0]
            mapping[ctx.src_vocab.id_of[sub]] = ctx.tgt_vocab.id_of[tgt_sub]
        model = cipher_table_model(mapping, ctx.src_vocab, ctx.tgt_vocab)

        calls = []

        def spy(module, name, label):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(label)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spy(dmt.pipeline.textnorm, "normalize", "normalize")
        spy(dmt.pipeline.textnorm, "tokenize", "tokenize")
        spy(dmt.pipeline.textnorm, "transliterate", "transliterate")
        spy(dmt.pipeline, "apply_bpe", "apply_bpe")
        spy(dmt.pipeline, "undo_bpe", "undo_bpe")
        spy(dmt.pipeline.textnorm, "detokenize", "detokenize")
        spy(dmt.pipeline.textnorm, "detransliterate", "detransliterate")

        out = translate_lines(model, ["a b c d"], ctx, DecodeConfig(beam=1))[0]
        assert out == "A B C D"
        expected = ["normalize", "tokenize", "transliterate", "apply_bpe",
                    "undo_bpe", "detokenize", "detransliterate"]
        first_seen = [calls.index(label) for label in expected]
        assert first_seen == sorted(first_seen)
        assert set(calls) == set(expected)
