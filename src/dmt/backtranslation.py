"""Back-translation: generate pseudo-parallel corpora from monolingual
target-language text with a reverse-direction model, mix them with real
parallel data, and run the paired baseline-vs-augmented experiment.

Pseudo pairs keep the authentic monolingual sentence as the target side,
verbatim; the synthetic side is the reverse model's output. Every pair is
traceable to its monolingual line index and the reverse checkpoint.

``backtranslate`` is the one back-translation path, called by
``bt_experiment`` and by the experiment runner; ``save_pseudo`` and
``load_pseudo`` are the one writer and reader of pseudo-corpus files.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .autodiff import RngState, fan_seed
from .corpus import (LanguageTag, MonolingualCorpus, ParallelCorpus, SentencePair,
                     load_parallel, save_parallel, write_lines)
from .decoding import DecodeConfig, translate_lines
from .errors import CorpusError
from .models import build_model, config_for_arch
from .pipeline import PipelineContext, build_context, encode_corpus
from .training import TrainConfig, restore_model, snapshot, train

__all__ = ["Provenance", "PseudoParallelCorpus", "BtOutcome", "save_pseudo",
           "load_pseudo", "generate_pseudo_parallel", "mix", "backtranslate",
           "bt_experiment"]


def _decode_config_hash(config: DecodeConfig) -> str:
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


@dataclass
class Provenance:
    checkpoint_fingerprint: str
    decode_config_hash: str
    n_dropped: int = 0


@dataclass
class PseudoParallelCorpus(ParallelCorpus):
    provenance: Provenance = None
    mono_indices: list = field(default_factory=list)

    def sidecar_lines(self) -> list:
        return [f"{i}\t{self.provenance.checkpoint_fingerprint}"
                f"\t{self.provenance.decode_config_hash}"
                for i in self.mono_indices]


def save_pseudo(pseudo: PseudoParallelCorpus, prefix):
    """Write `prefix`.src, `prefix`.tgt and the provenance sidecar
    `prefix`.provenance.tsv, one row per pseudo pair."""
    save_parallel(pseudo, f"{prefix}.src", f"{prefix}.tgt")
    write_lines(f"{prefix}.provenance.tsv", pseudo.sidecar_lines())


def load_pseudo(prefix, src_lang: LanguageTag, tgt_lang: LanguageTag) -> ParallelCorpus:
    """Read `prefix`.src/.tgt back as pairs flagged synthetic."""
    raw = load_parallel(f"{prefix}.src", f"{prefix}.tgt", src_lang, tgt_lang)
    return ParallelCorpus([SentencePair(p.source, p.target, True) for p in raw.pairs],
                          src_lang, tgt_lang)


def generate_pseudo_parallel(reverse_model, mono: MonolingualCorpus,
                             reverse_ctx: PipelineContext,
                             decode_config: DecodeConfig = None,
                             checkpoint_fingerprint: str = None) -> PseudoParallelCorpus:
    """Translate each monolingual sentence back to the source language.

    The reverse context runs target -> source; the emitted corpus is
    oriented forward (synthetic source, authentic target). Empty
    translations are dropped and counted in the provenance record.
    """
    decode_config = decode_config or DecodeConfig()
    if reverse_ctx.src_lang != mono.lang:
        raise CorpusError(
            f"monolingual corpus is {mono.lang} but the reverse pipeline "
            f"translates from {reverse_ctx.src_lang}")
    reverse_ctx.check_model(reverse_model)
    if checkpoint_fingerprint is None:
        if hasattr(reverse_model, "params"):
            checkpoint_fingerprint = snapshot(reverse_model).fingerprint()
        else:
            checkpoint_fingerprint = "unfingerprinted"

    synthetic_sources = translate_lines(reverse_model, mono.sentences,
                                        reverse_ctx, decode_config)
    pairs, indices = [], []
    dropped = 0
    for i, (src_text, tgt_text) in enumerate(zip(synthetic_sources, mono.sentences)):
        if not src_text.strip():
            dropped += 1
            continue
        pairs.append(SentencePair(src_text, tgt_text, synthetic=True))
        indices.append(i)
    return PseudoParallelCorpus(
        pairs=pairs, src_lang=reverse_ctx.tgt_lang, tgt_lang=mono.lang,
        provenance=Provenance(checkpoint_fingerprint,
                              _decode_config_hash(decode_config), dropped),
        mono_indices=indices)


def mix(real: ParallelCorpus, pseudo: ParallelCorpus, upsample_real: int = 1,
        seed: int = 0) -> ParallelCorpus:
    """Concatenate upsample_real copies of the real corpus with the pseudo
    corpus and shuffle; synthetic flags survive the shuffle."""
    if (real.src_lang, real.tgt_lang) != (pseudo.src_lang, pseudo.tgt_lang):
        raise CorpusError(
            f"language tag mismatch: real {real.src_lang}-{real.tgt_lang}, "
            f"pseudo {pseudo.src_lang}-{pseudo.tgt_lang}")
    if upsample_real < 1:
        raise CorpusError("upsample_real must be >= 1")
    pairs = list(real.pairs) * upsample_real + list(pseudo.pairs)
    order = RngState(fan_seed(seed, "mix")).permutation(len(pairs))
    return ParallelCorpus([pairs[i] for i in order], real.src_lang, real.tgt_lang)


@dataclass
class BtOutcome:
    baseline_bleu: float
    augmented_bleu: float
    baseline_report: object
    augmented_report: object
    reverse_report: object
    n_pseudo: int
    n_dropped: int
    provenance: Provenance

    @property
    def improved(self) -> bool:
        return self.augmented_bleu > self.baseline_bleu


def _train_system(corpus: ParallelCorpus, dev: ParallelCorpus,
                  train_cfg: TrainConfig, model_cfg, model_seed: int,
                  run_dir=None, **context_options):
    """Build the pipeline from `corpus` (`context_options` go to
    build_context) and train a model seeded with `model_seed` under
    `train_cfg`; returns (ctx, best checkpoint, report)."""
    ctx = build_context(corpus, **context_options)
    train_data = encode_corpus(ctx, corpus)
    dev_data = encode_corpus(ctx, dev)
    model = build_model(model_cfg, ctx.src_vocab, ctx.tgt_vocab, seed=model_seed)
    ckpt, report = train(model, train_data, dev_data, train_cfg, run_dir=run_dir)
    return ctx, ckpt, report


def backtranslate(real: ParallelCorpus, dev: ParallelCorpus,
                  mono: MonolingualCorpus, train_cfg: TrainConfig, model_cfg,
                  model_seed: int, decode_config: DecodeConfig, out_dir=None,
                  **context_options):
    """Train the reverse system on the swapped corpora (see _train_system)
    and back-translate `mono` with its best checkpoint; with `out_dir`,
    keep the reverse run in out_dir/reverse and save out_dir/pseudo.*.
    Returns (pseudo corpus, reverse report)."""
    out_dir = None if out_dir is None else Path(out_dir)
    ctx, ckpt, report = _train_system(
        real.swapped(), dev.swapped(), train_cfg, model_cfg, model_seed,
        run_dir=None if out_dir is None else out_dir / "reverse",
        **context_options)
    model = restore_model(ckpt, ctx.src_vocab, ctx.tgt_vocab)
    pseudo = generate_pseudo_parallel(model, mono, ctx, decode_config,
                                      checkpoint_fingerprint=ckpt.fingerprint())
    if out_dir is not None:
        save_pseudo(pseudo, out_dir / "pseudo")
    return pseudo, report


def bt_experiment(real: ParallelCorpus, mono: MonolingualCorpus,
                  dev: ParallelCorpus, forward_cfg: TrainConfig,
                  reverse_cfg: TrainConfig, model_overrides: dict = None,
                  bpe_merges: int = 200, decode_config: DecodeConfig = None,
                  upsample_real: int = 1, seed: int = 1,
                  run_dir=None) -> BtOutcome:
    """The full second-system procedure on one language pair:

    1. train a reverse model on the swapped real corpus,
    2. back-translate the monolingual corpus into pseudo-parallel data,
    3. train a baseline (real only) and an augmented (real + pseudo) model,
    4. compare their best dev BLEU.
    """
    decode_config = decode_config or DecodeConfig(beam=1)
    run_dir = Path(run_dir) if run_dir is not None else None

    def model_cfg_for(cfg: TrainConfig):
        overrides = dict(model_overrides or {})
        overrides.setdefault("dropout", cfg.dropout)
        return config_for_arch(cfg.arch, **overrides)

    def seeded(cfg: TrainConfig, system_seed: int):
        return (dataclasses.replace(cfg, seed=fan_seed(system_seed, "bt-train")),
                model_cfg_for(cfg), fan_seed(system_seed, "bt-model"))

    # 1-2. reverse system (target -> source) and the pseudo-parallel data
    pseudo, reverse_report = backtranslate(
        real, dev, mono, *seeded(reverse_cfg, fan_seed(seed, "reverse")),
        decode_config, out_dir=run_dir, num_merges=bpe_merges)

    # 3. baseline and augmented forward systems; both share the forward
    # seed so the comparison is paired (only the data differs)
    forward = seeded(forward_cfg, fan_seed(seed, "forward"))
    _, base_ckpt, base_report = _train_system(
        real, dev, *forward, num_merges=bpe_merges,
        run_dir=None if run_dir is None else run_dir / "baseline")
    if len(pseudo) == 0 and upsample_real == 1:
        # nothing to augment with: the runs would train on the same corpus
        aug_ckpt, aug_report = base_ckpt, base_report
    else:
        mixed = mix(real, pseudo, upsample_real=upsample_real,
                    seed=fan_seed(seed, "mix"))
        _, aug_ckpt, aug_report = _train_system(
            mixed, dev, *forward, num_merges=bpe_merges,
            run_dir=None if run_dir is None else run_dir / "augmented")

    outcome = BtOutcome(
        baseline_bleu=base_ckpt.dev_bleu, augmented_bleu=aug_ckpt.dev_bleu,
        baseline_report=base_report, augmented_report=aug_report,
        reverse_report=reverse_report, n_pseudo=len(pseudo),
        n_dropped=pseudo.provenance.n_dropped, provenance=pseudo.provenance)

    if run_dir is not None:
        (run_dir / "comparison.tsv").write_text(
            "system\tdev_bleu\n"
            f"baseline\t{outcome.baseline_bleu:.4f}\n"
            f"augmented\t{outcome.augmented_bleu:.4f}\n", encoding="utf-8")
    return outcome
