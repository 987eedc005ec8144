"""Text <-> id plumbing shared by decoding, back-translation, and the
experiment runner: normalize, tokenize, transliterate to Devanagari,
BPE, and vocabulary encoding, plus the inverse chain.

``prep_tokens`` is the one text chain (normalize -> tokenize ->
transliterate); the pipeline context, ``build_context`` and the runner's
prep stage all call it. ``learn_bpe_models`` (the one joint rule) and
``build_side_vocab`` are the one subword-model builder, called by
``build_context`` and by the runner's bpe and vocab stages. Joint BPE
learns one model over both sides and keeps the vocabularies per side:
the models tie no embeddings, so a shared vocabulary would only widen
both embedding tables and the output projection.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import textnorm
from .corpus import LanguageTag, ParallelCorpus
from .errors import FingerprintError
from .subword import (BpeModel, Vocabulary, apply_bpe, build_vocab, learn_bpe,
                      undo_bpe)

__all__ = ["PipelineContext", "prep_tokens", "learn_bpe_models", "build_side_vocab",
           "build_context", "encode_corpus"]


def prep_tokens(text: str, script, transliterate: bool = True,
                keep_joiners: bool = False) -> list:
    """Normalize, tokenize and (optionally) transliterate `text` from
    `script` to Devanagari; returns the tokens."""
    norm = textnorm.normalize(text, keep_joiners=keep_joiners)
    tokens = list(textnorm.tokenize(norm).tokens)
    if transliterate:
        tokens = [textnorm.transliterate(t, script, textnorm.DEVANAGARI)
                  for t in tokens]
    return tokens


@dataclass
class PipelineContext:
    """Everything needed to move text through a trained system's pipeline."""
    src_lang: LanguageTag
    tgt_lang: LanguageTag
    bpe_src: BpeModel
    bpe_tgt: BpeModel
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    transliterate: bool = True
    keep_joiners: bool = False

    @property
    def src_script(self):
        return textnorm.script_for_lang(self.src_lang.code)

    @property
    def tgt_script(self):
        return textnorm.script_for_lang(self.tgt_lang.code)

    # -- text -> subwords -> ids

    def source_subwords(self, text: str) -> list:
        return apply_bpe(self.bpe_src, prep_tokens(
            text, self.src_script, self.transliterate, self.keep_joiners))

    def target_subwords(self, text: str) -> list:
        return apply_bpe(self.bpe_tgt, prep_tokens(
            text, self.tgt_script, self.transliterate, self.keep_joiners))

    def source_ids(self, text: str) -> list:
        return self.src_vocab.encode(self.source_subwords(text))

    def target_ids(self, text: str) -> list:
        return self.tgt_vocab.encode(self.target_subwords(text))

    # -- ids -> text

    def target_text(self, ids) -> str:
        tokens = undo_bpe(self.tgt_vocab.decode(ids))
        text = textnorm.detokenize(tokens)
        if self.transliterate:
            text = textnorm.detransliterate(text, self.tgt_script)
        return text

    def check_model(self, model):
        got = model.vocab_fingerprints()
        want = (self.src_vocab.fingerprint(), self.tgt_vocab.fingerprint())
        if got != want:
            raise FingerprintError(
                f"model vocab fingerprints {got} do not match pipeline {want}")


def learn_bpe_models(src_tok, tgt_tok, num_merges: int, joint: bool):
    """(source, target) BPE models from per-side prepped token lists: one
    model per side, or with `joint` one model over both sides, used for
    both."""
    if joint:
        model = learn_bpe(src_tok + tgt_tok, num_merges)
        return model, model
    return learn_bpe(src_tok, num_merges), learn_bpe(tgt_tok, num_merges)


def build_side_vocab(bpe: BpeModel, tokens, min_count: int,
                     max_vocab: int = None) -> Vocabulary:
    """One side's vocabulary: its prepped token lists under its BPE model."""
    return build_vocab([apply_bpe(bpe, t) for t in tokens],
                       min_count=min_count, max_size=max_vocab)


def build_context(corpus: ParallelCorpus, num_merges: int = 8000,
                  min_count: int = 1, max_vocab: int = None,
                  joint: bool = False, transliterate: bool = True,
                  keep_joiners: bool = False) -> PipelineContext:
    """Learn BPE models (see learn_bpe_models) and per-side vocabularies
    from a parallel corpus."""
    src_script = textnorm.script_for_lang(corpus.src_lang.code)
    tgt_script = textnorm.script_for_lang(corpus.tgt_lang.code)
    src_tok = [prep_tokens(p.source, src_script, transliterate, keep_joiners)
               for p in corpus.pairs]
    tgt_tok = [prep_tokens(p.target, tgt_script, transliterate, keep_joiners)
               for p in corpus.pairs]
    bpe_src, bpe_tgt = learn_bpe_models(src_tok, tgt_tok, num_merges, joint)
    return PipelineContext(
        corpus.src_lang, corpus.tgt_lang, bpe_src, bpe_tgt,
        build_side_vocab(bpe_src, src_tok, min_count, max_vocab),
        build_side_vocab(bpe_tgt, tgt_tok, min_count, max_vocab),
        transliterate, keep_joiners)


def encode_corpus(ctx: PipelineContext, corpus: ParallelCorpus) -> list:
    """Binarize: [(src id list, tgt id list)] with EOS appended to each side."""
    return [(ctx.source_ids(p.source), ctx.target_ids(p.target))
            for p in corpus.pairs]
