"""Config-driven experiment runner: one run directory per experiment, a
stage graph with persisted intermediates, and idempotent resumption.

Every split's pairs are admitted by ``corpus.load_parallel`` (a pair
blank on one side is rejected and counted in the log). Train and dev go
through the prep, bpe, vocab and binarize stages, which persist what
``pipeline.build_context`` + ``encode_corpus`` build from the same pairs:
the one text chain, ``pipeline.prep_tokens``, then ``learn_bpe_models``
and ``build_side_vocab``. The decode stage writes the admitted test
pairs' translations and references to ``outputs/test.hyp`` and
``outputs/test.ref``; the score stage scores those two files. With
back-translation on, the backtranslate stage runs the one
back-translation path, ``backtranslation.backtranslate``, and the mix
stage reads its pseudo files back with ``backtranslation.load_pseudo``.
Files are read with ``corpus.read_lines`` (LF only) and written with
``corpus.write_lines``. Completed stages are stamped and skipped on
rerun; a rerun of a finished experiment performs no stage work.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import textnorm
from .autodiff import fan_seed
from .backtranslation import backtranslate, load_pseudo, mix
from .bleu import score_files
from .corpus import (LanguageTag, load_monolingual, load_parallel, read_lines,
                     save_parallel, write_lines)
from .decoding import DecodeConfig, translate_lines
from .errors import ConfigError, ExperimentError
from .models import ARCH_CONFIGS, build_model, config_for_arch
from .pipeline import PipelineContext, build_side_vocab, learn_bpe_models, prep_tokens
from .subword import BpeModel, Vocabulary, apply_bpe
from .training import (PRESETS, TrainConfig, dump_fields, format_entries, load_checkpoint,
                       load_fields, parse_entries, preset, restore_model, train)

__all__ = ["ExperimentConfig", "run_experiment", "runs_root", "aggregate_report"]

_ARCH_PRESET = {"transformer": "transformer-scratch", "lstm": "lstm",
                "bilstm": "bilstm", "conv": "conv"}

def runs_root(override=None) -> Path:
    if override is not None:
        return Path(override)
    return Path(os.environ.get("DMT_RUNS_DIR", "runs"))


@dataclass
class ExperimentConfig:
    name: str = ""
    src_lang: str = ""
    tgt_lang: str = ""
    train_src: str = ""
    train_tgt: str = ""
    dev_src: str = ""
    dev_tgt: str = ""
    test_src: str = ""
    test_tgt: str = ""
    mono: str = ""
    bpe_merges: int = 8000
    min_count: int = 1
    joint_bpe: bool = False
    transliterate: bool = True
    keep_joiners: bool = False
    arch: str = "transformer"
    preset: str = ""
    beam: int = 5
    max_len: int = 0              # 0: derive from source length
    length_penalty: float = 1.0
    backtranslation: bool = False
    upsample_real: int = 1
    detranslit_score: bool = True
    seed: int = 1
    # the text of the train.* and model.* entries, read by train_config()
    # and model_config()
    train_overrides: dict = field(default_factory=dict, metadata={"section": "train"})
    model_overrides: dict = field(default_factory=dict, metadata={"section": "model"})

    @classmethod
    def from_file(cls, path, overrides=None) -> "ExperimentConfig":
        """The config of a `key=value` file (blank and # lines skipped),
        with `overrides` winning."""
        lines = [ln for ln in read_lines(path)
                 if ln.strip() and not ln.strip().startswith("#")]
        return cls.from_pairs({**parse_entries(lines), **(overrides or {})})

    @classmethod
    def from_pairs(cls, pairs: dict) -> "ExperimentConfig":
        return cls(**load_fields(cls, pairs, strict=True))

    def snapshot(self) -> str:
        return format_entries(dump_fields(self))

    def validate(self):
        """Reject a bad config before any stage runs or the run directory exists."""
        if not self.name or any(c in self.name for c in "/\\ \t"):
            raise ConfigError(f"bad run name {self.name!r}")
        LanguageTag(self.src_lang)
        LanguageTag(self.tgt_lang)
        required = ["train_src", "train_tgt", "dev_src", "dev_tgt"]
        if self.test_src or self.test_tgt:
            required += ["test_src", "test_tgt"]
        if self.backtranslation:
            required.append("mono")
        for name in required:
            path = getattr(self, name)
            if not path:
                raise ConfigError(f"{name} is required")
            if not Path(path).exists():
                raise ConfigError(f"{name}: no such file {path}")
        if self.preset and self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.arch not in _ARCH_PRESET:
            raise ConfigError(f"unknown architecture {self.arch!r}; "
                              f"known: {sorted(_ARCH_PRESET)}")
        self.model_config(self.train_config().dropout)
        self.decode_config()

    # resolved sub-configs -------------------------------------------------

    def train_config(self) -> TrainConfig:
        base = preset(self.preset) if self.preset else preset(_ARCH_PRESET[self.arch])
        base.arch = self.arch
        base.seed = fan_seed(self.seed, "train")
        base = dataclasses.replace(
            base, **load_fields(TrainConfig, dump_fields(self), "train", strict=True))
        base.validate()
        return base

    def model_config(self, dropout: float):
        overrides = load_fields(ARCH_CONFIGS[self.arch], dump_fields(self), "model",
                                strict=True)
        return config_for_arch(self.arch, **{"dropout": dropout, **overrides})

    def decode_config(self) -> DecodeConfig:
        return DecodeConfig(beam=self.beam,
                            max_len=self.max_len if self.max_len > 0 else None,
                            length_penalty=self.length_penalty)


class _Logger:
    def __init__(self, path: Path):
        self.path = path

    def __call__(self, message: str):
        stamp = time.strftime("%Y-%m-%d %H:%M:%S")
        line = f"[{stamp}] {message}"
        print(line, file=sys.stderr)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


def _read_ids(path: Path):
    return [[int(tok) for tok in ln.split()] for ln in read_lines(path)]


class _Runner:
    def __init__(self, config: ExperimentConfig, run_dir: Path):
        self.cfg = config
        self.dir = run_dir
        self.log = _Logger(run_dir / "log.txt")
        self.stage_dir = run_dir / ".stages"
        self.stage_dir.mkdir(exist_ok=True)
        self.did_work = False

    def stage(self, name: str, fn):
        marker = self.stage_dir / f"{name}.done"
        if marker.exists():
            self.log(f"stage {name}: fresh, skipping")
            return
        self.log(f"stage {name}: running")
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as e:
            self.log(f"stage {name}: FAILED: {e}")
            raise ExperimentError(f"stage {name}: {e}") from e
        marker.write_text("done\n")
        self.did_work = True
        self.log(f"stage {name}: done in {time.perf_counter() - t0:.3f}s")

    # ---- stage bodies ----

    def do_backtranslate(self):
        cfg = self.cfg
        real = self._admit("backtranslate", "train", cfg.train_src, cfg.train_tgt)
        dev = self._admit("backtranslate", "dev", cfg.dev_src, cfg.dev_tgt)
        mono = load_monolingual(cfg.mono, real.tgt_lang)
        tc = cfg.train_config()
        tc.seed = fan_seed(cfg.seed, "reverse-train")
        self.log(f"backtranslate: training reverse model "
                 f"({cfg.tgt_lang}->{cfg.src_lang}, {len(real)} pairs)")
        pseudo, _ = backtranslate(
            real, dev, mono, tc, cfg.model_config(tc.dropout),
            fan_seed(cfg.seed, "reverse-model"), cfg.decode_config(),
            out_dir=self.dir / "bt", num_merges=cfg.bpe_merges,
            min_count=cfg.min_count, joint=cfg.joint_bpe,
            transliterate=cfg.transliterate, keep_joiners=cfg.keep_joiners)
        self.log(f"backtranslate: {len(pseudo)} pseudo pairs "
                 f"({pseudo.provenance.n_dropped} dropped)")

    def do_mix(self):
        cfg = self.cfg
        real = self._admit("mix", "train", cfg.train_src, cfg.train_tgt)
        bt_dir = self.dir / "bt"
        pseudo = load_pseudo(bt_dir / "pseudo", real.src_lang, real.tgt_lang)
        mixed = mix(real, pseudo, upsample_real=cfg.upsample_real,
                    seed=fan_seed(cfg.seed, "mix"))
        self.log(f"mix: {len(real)} real + {len(pseudo)} pseudo -> {len(mixed)}")
        save_parallel(mixed, bt_dir / "augmented.src", bt_dir / "augmented.tgt")

    def _admit(self, stage, name, src_path, tgt_path):
        """The pairs of one split that load_parallel admits; the count it
        rejects is logged."""
        corpus = load_parallel(src_path, tgt_path, LanguageTag(self.cfg.src_lang),
                               LanguageTag(self.cfg.tgt_lang))
        if corpus.n_rejected:
            self.log(f"{stage}: {name}: {corpus.n_rejected} pairs rejected "
                     f"(blank on one side)")
        return corpus

    def _tokens(self, split_name, side):
        """The prepped token lists of one side of a split."""
        path = self.dir / "prep" / f"{split_name}.{side}"
        return [ln.split() for ln in read_lines(path)]

    def do_prep(self):
        """Prep train and dev; with back-translation on, train is the
        mixed corpus."""
        cfg, bt = self.cfg, self.dir / "bt"
        prep = self.dir / "prep"
        prep.mkdir(exist_ok=True)
        train = ((bt / "augmented.src", bt / "augmented.tgt") if cfg.backtranslation
                 else (cfg.train_src, cfg.train_tgt))
        for name, src_path, tgt_path in (("train", *train),
                                         ("dev", cfg.dev_src, cfg.dev_tgt)):
            corpus = self._admit("prep", name, src_path, tgt_path)
            for side, lang, texts in (
                    ("src", corpus.src_lang, [p.source for p in corpus]),
                    ("tgt", corpus.tgt_lang, [p.target for p in corpus])):
                script = textnorm.script_for_lang(lang.code)
                write_lines(prep / f"{name}.{side}", [
                    " ".join(prep_tokens(text, script, cfg.transliterate,
                                         cfg.keep_joiners)) for text in texts])

    def do_bpe(self):
        out = self.dir / "bpe"
        out.mkdir(exist_ok=True)
        bpe_src, bpe_tgt = learn_bpe_models(
            self._tokens("train", "src"), self._tokens("train", "tgt"),
            self.cfg.bpe_merges, self.cfg.joint_bpe)
        bpe_src.save(out / "src.model")
        bpe_tgt.save(out / "tgt.model")

    def do_vocab(self):
        out = self.dir / "vocab"
        out.mkdir(exist_ok=True)
        for side in ("src", "tgt"):
            bpe = BpeModel.load(self.dir / "bpe" / f"{side}.model")
            build_side_vocab(bpe, self._tokens("train", side),
                             self.cfg.min_count).save(out / f"{side}.vocab")

    def do_binarize(self):
        ctx = self._load_context()
        out = self.dir / "bin"
        out.mkdir(exist_ok=True)
        sides = {"src": (ctx.bpe_src, ctx.src_vocab), "tgt": (ctx.bpe_tgt, ctx.tgt_vocab)}
        for name in ("train", "dev"):
            for side, (bpe, vocab) in sides.items():
                write_lines(out / f"{name}.{side}.ids", [
                    " ".join(str(i) for i in vocab.encode(apply_bpe(bpe, tokens)))
                    for tokens in self._tokens(name, side)])

    def _load_context(self) -> PipelineContext:
        return PipelineContext(
            src_lang=LanguageTag(self.cfg.src_lang),
            tgt_lang=LanguageTag(self.cfg.tgt_lang),
            bpe_src=BpeModel.load(self.dir / "bpe" / "src.model"),
            bpe_tgt=BpeModel.load(self.dir / "bpe" / "tgt.model"),
            src_vocab=Vocabulary.load(self.dir / "vocab" / "src.vocab"),
            tgt_vocab=Vocabulary.load(self.dir / "vocab" / "tgt.vocab"),
            transliterate=self.cfg.transliterate,
            keep_joiners=self.cfg.keep_joiners)

    def _load_split(self, name):
        src = _read_ids(self.dir / "bin" / f"{name}.src.ids")
        tgt = _read_ids(self.dir / "bin" / f"{name}.tgt.ids")
        if len(src) != len(tgt):
            raise ExperimentError(f"binarized {name} sides differ in length")
        return list(zip(src, tgt))

    def do_train(self):
        ctx = self._load_context()
        train_data = self._load_split("train")
        dev_data = self._load_split("dev")
        tc = self.cfg.train_config()
        model = build_model(self.cfg.model_config(tc.dropout), ctx.src_vocab,
                            ctx.tgt_vocab, seed=fan_seed(self.cfg.seed, "model"))
        self.log(f"train: {self.cfg.arch} on {len(train_data)} pairs "
                 f"({model.param_count()} parameters)")
        ckpt, report = train(model, train_data, dev_data, tc, run_dir=self.dir)
        self.log(f"train: best epoch {report.best_epoch} "
                 f"dev BLEU {ckpt.dev_bleu:.4f}")

    def do_decode(self):
        """Translate the admitted test sources into outputs/test.hyp, and
        write their references, in the same order, to outputs/test.ref."""
        test = self._admit("decode", "test", self.cfg.test_src, self.cfg.test_tgt)
        ctx = self._load_context()
        ckpt = load_checkpoint(self.dir / "best.dmt")
        model = restore_model(ckpt, ctx.src_vocab, ctx.tgt_vocab)
        out = self.dir / "outputs"
        out.mkdir(exist_ok=True)
        hyps = translate_lines(model, [p.source for p in test], ctx,
                               self.cfg.decode_config())
        write_lines(out / "test.hyp", hyps)
        write_lines(out / "test.ref", [p.target for p in test])

    def do_score(self):
        out = self.dir / "outputs"
        hyp, ref = out / "test.hyp", out / "test.ref"
        surface = "native-script"
        if not self.cfg.detranslit_score:
            # score on the pooled Devanagari surface instead
            surface = "devanagari"
            tgt_script = textnorm.script_for_lang(LanguageTag(self.cfg.tgt_lang).code)
            for in_path, name in ((hyp, "test.hyp.dev"), (ref, "test.ref.dev")):
                write_lines(out / name,
                            [textnorm.transliterate(ln, tgt_script,
                                                    textnorm.DEVANAGARI)
                             for ln in read_lines(in_path)])
            hyp, ref = out / "test.hyp.dev", out / "test.ref.dev"
        report = score_files(hyp, ref, report_path=out / "test.score.tsv")
        write_lines(out / "score.meta", [f"surface={surface}"])
        pair = f"{self.cfg.src_lang}-{self.cfg.tgt_lang}"
        write_lines(self.dir / "results.tsv",
                    ["system\tpair\tmean_sentence_bleu",
                     f"{self.cfg.arch}\t{pair}\t{report.mean:.4f}"])
        self.log(f"score: mean sentence BLEU {report.mean:.4f} "
                 f"(surface: {surface})")


def run_experiment(config: ExperimentConfig, runs_dir=None) -> Path:
    """Execute (or resume) the full stage graph for one experiment."""
    config.validate()
    root = runs_root(runs_dir)
    run_dir = root / config.name
    run_dir.mkdir(parents=True, exist_ok=True)

    snapshot_path = run_dir / "config.txt"
    snapshot = config.snapshot()
    if snapshot_path.exists():
        if snapshot_path.read_text(encoding="utf-8") != snapshot:
            raise ExperimentError(
                f"run {config.name!r} exists with a different configuration; "
                f"pick a new run name")
    else:
        snapshot_path.write_text(snapshot, encoding="utf-8")

    lock = run_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ExperimentError(f"run {config.name!r} is locked (already running?); "
                              f"remove {lock} if stale")
    os.close(fd)
    runner = _Runner(config, run_dir)
    try:
        if config.backtranslation:
            runner.stage("backtranslate", runner.do_backtranslate)
            runner.stage("mix", runner.do_mix)
        runner.stage("prep", runner.do_prep)
        runner.stage("bpe", runner.do_bpe)
        runner.stage("vocab", runner.do_vocab)
        runner.stage("binarize", runner.do_binarize)
        runner.stage("train", runner.do_train)
        if config.test_src:
            runner.stage("decode", runner.do_decode)
            runner.stage("score", runner.do_score)
        if not runner.did_work:
            runner.log("all stages fresh; nothing to do")
    finally:
        lock.unlink(missing_ok=True)
    return run_dir


def aggregate_report(runs_dir=None, fmt: str = "tsv") -> str:
    """Collect per-run results.tsv files into a systems-by-pairs matrix."""
    root = runs_root(runs_dir)
    cells = {}
    pairs, systems = [], []
    for results in sorted(root.glob("*/results.tsv")):
        for line in read_lines(results)[1:]:
            system, pair, score = line.split("\t")
            if pair not in pairs:
                pairs.append(pair)
            if system not in systems:
                systems.append(system)
            cells[(system, pair)] = score
    if fmt == "markdown":
        head = "| system | " + " | ".join(pairs) + " |"
        sep = "|" + "---|" * (len(pairs) + 1)
        rows = ["| " + " | ".join([s] + [cells.get((s, p), "-") for p in pairs]) + " |"
                for s in systems]
        return "\n".join([head, sep] + rows) + "\n"
    lines = ["system\t" + "\t".join(pairs)]
    for s in systems:
        lines.append("\t".join([s] + [cells.get((s, p), "-") for p in pairs]))
    return "\n".join(lines) + "\n"
