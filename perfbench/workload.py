"""The four phases every benchmark run goes through, and their checks.

Each workload runs all four phases on its own inputs, so every run
reports every end-to-end metric:

- train: ``training.train`` for one epoch of one batch per architecture
  (the paper model configs and recipes), with a two-line dev set and
  the checkpoint write path.
- translate: ``decoding.translate_lines``, greedy (batched) and beam 5,
  with random-init models restored from a checkpoint round trip. The
  EOS output bias is pinned very negative, so every hypothesis runs to
  its length cap and the work does not depend on model arithmetic.
- prep: ``corpus.load_parallel`` -> ``pipeline.build_context`` ->
  ``pipeline.encode_corpus``, a direct ``subword.learn_bpe``, and
  ``bleu.score_corpus``: pure-Python text work with no autodiff, the
  control that every autodiff, model or decoding change leaves flat.
- run: ``experiment.run_experiment`` with back-translation on a
  tiny-model cipher recipe, then a rerun that must do no stage work.

A phase repeats identical rounds until its share of the measuring time
is spent, and each metric is the median over its timed calls.
"""

from __future__ import annotations

import math
import re
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import layers
from clock import Clock
from spans import Tracer
from dmt import autodiff as ad
from dmt import bleu, corpus, decoding, experiment, pipeline, subword, textnorm
from dmt import training
from dmt.corpus import LanguageTag
from dmt.decoding import DecodeConfig
from dmt.models import build_model, config_for_arch
from dmt.subword import BOS_ID, EOS_ID, PAD_ID

KN, ML = LanguageTag("kn"), LanguageTag("ml")
TRAIN_ARCHS = ("transformer", "lstm", "bilstm", "conv")
DECODE_ARCHS = ("transformer", "lstm", "conv")
PRESET = {"transformer": "transformer-scratch", "lstm": "lstm",
          "bilstm": "bilstm", "conv": "conv"}
EOS_PIN = -1.0e4          # added to the EOS logit: never chosen, still finite
SETUP_REPEATS = 3
MERGES = 2000             # BPE merges of the train/translate pipeline
MAX_VOCAB = 750           # caps both vocabularies, so their size is fixed
PREP_MERGES = 1500
# share of the measuring time each phase gets
SHARES = {"train": 0.38, "translate": 0.28, "prep": 0.16, "run": 0.18}
RUN_BLEU_FLOOR = 0.05
BLEU_REPEATS = 5

# every end-to-end metric a run reports with tracing off, and its unit
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB",
    **{f"train_tok_s.{a}": "tok/s" for a in TRAIN_ARCHS},
    **{f"{mode}_sent_s.{a}": "sent/s" for mode in ("greedy", "beam5")
       for a in DECODE_ARCHS},
    "prep_lines_s": "lines/s", "bpe_learn_merges_s": "merges/s",
    "bleu_sent_s": "sent/s", "run_s": "s",
}


@dataclass(frozen=True)
class Spec:
    """Input sizes of one workload."""
    lo: int                   # words per line
    hi: int
    ctx_lines: int            # corpus the train/translate pipeline is learned on
    train_lines: int          # one batch per architecture
    greedy_lengths: tuple     # words per translated line, greedy batch
    beam_lengths: tuple       # words per translated line, beam 5
    prep_lines: int


WORKLOADS = {
    # why: short sentences; decoding caps are low, so per-call overheads
    # (Python, small GEMMs, tape bookkeeping) weigh most
    "short": Spec(lo=4, hi=9, ctx_lines=500, train_lines=48,
                  greedy_lengths=(4, 6, 7, 9), beam_lengths=(6,),
                  prep_lines=1000),
    # why: long sentences; decode cost grows with output length (every
    # step recomputes the prefix), and batches carry more padding
    "long": Spec(lo=12, hi=20, ctx_lines=250, train_lines=24,
                 greedy_lengths=(12, 13), beam_lengths=(12,),
                 prep_lines=500),
}


# ---------------------------------------------------------------------------
# inputs


class Inputs:
    """Every file and list a run feeds the program, made from the seed."""

    def __init__(self, spec: Spec, seed: int, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        lex = inputs.lexicon(seed)
        ctx_pairs = inputs.parallel(seed, "ctx", lex, spec.ctx_lines, spec.lo, spec.hi)
        self.write_pair("ctx", ctx_pairs)
        # the train batch and the translated lines use only frequent
        # words, so their subword counts (batch widths, decode caps) are
        # the same for every seed; dev is one one-word line, since a dev
        # decode of a barely trained model may run to its cap
        rng = np.random.default_rng([seed, 7])
        self.write_pair("train", [lex.frequent_pair(rng, int(k)) for k in
                                  inputs.lengths(spec.train_lines, spec.lo, spec.hi, rng)])
        self.write_pair("dev", [lex.frequent_pair(rng, 1)])
        self.greedy_lines = [lex.frequent_pair(rng, k)[0] for k in spec.greedy_lengths]
        self.beam_lines = [lex.frequent_pair(rng, k)[0] for k in spec.beam_lengths]
        # the re-anchor batch of the traced run: 128 lines of 4-20 words
        self.reanchor = inputs.parallel(seed, "reanchor", lex, 128, 4, 20)
        prep = inputs.parallel(seed, "prep", lex, spec.prep_lines, spec.lo, spec.hi)
        self.write_pair("prep", prep)
        self.bleu_cands = [inputs.perturb(rng, t.split()) for _, t in prep]
        for name, n in (("train", 100), ("dev", 16), ("test", 16)):
            self.write_pair(f"bt-{name}", inputs.cipher_parallel(seed, f"bt-{name}", n, 4, 8))
        inputs.write_lines(root / "bt-mono.ml",
                           [t for _, t in inputs.cipher_parallel(seed, "bt-mono", 24, 4, 8)])

    def write_pair(self, name, pairs):
        inputs.write_lines(self.root / f"{name}.kn", [s for s, _ in pairs])
        inputs.write_lines(self.root / f"{name}.ml", [t for _, t in pairs])

    def path(self, name, side):
        return self.root / f"{name}.{side}"


# ---------------------------------------------------------------------------
# set-up


class State:
    pass


def setup(inp: Inputs, work: Path) -> State:
    """Everything the timed phases need: the pipeline context, encoded
    train/dev data, and the decode models after a checkpoint
    save/load/restore round trip, plus a warm-up decode. Train rounds
    build their own models (outside the timing), so the four training
    models are not resident all run long."""
    st = State()
    ctx_corpus = corpus.load_parallel(inp.path("ctx", "kn"), inp.path("ctx", "ml"), KN, ML)
    st.ctx = pipeline.build_context(ctx_corpus, num_merges=MERGES, max_vocab=MAX_VOCAB)
    st.train_data = pipeline.encode_corpus(st.ctx, corpus.load_parallel(
        inp.path("train", "kn"), inp.path("train", "ml"), KN, ML))
    st.dev_data = pipeline.encode_corpus(st.ctx, corpus.load_parallel(
        inp.path("dev", "kn"), inp.path("dev", "ml"), KN, ML))
    st.saved, st.decode_models = {}, {}
    for i, arch in enumerate(DECODE_ARCHS):
        model = build_model(config_for_arch(arch, dropout=0.0), st.ctx.src_vocab,
                            st.ctx.tgt_vocab, seed=200 + i)
        model.params["out.b"].data[EOS_ID] = EOS_PIN
        path = work / f"{arch}.dmt"
        training.save_checkpoint(training.snapshot(model), path)
        st.decode_models[arch] = training.restore_model(
            training.load_checkpoint(path), st.ctx.src_vocab, st.ctx.tgt_vocab)
        st.saved[arch] = model
        # warm-up: one short greedy decode
        decoding.translate_lines(st.decode_models[arch], inp.greedy_lines[:1], st.ctx,
                                 DecodeConfig(beam=1, max_len=2))
    return st


def timed_setup(inp, work, clock):
    """Run the set-up SETUP_REPEATS times; returns the last state and
    the Lap of each set-up."""
    laps, st = [], None
    for _ in range(SETUP_REPEATS):
        st = None
        st, lap = clock.timed(setup, inp, work)
        laps.append(lap)
    return st, laps


# ---------------------------------------------------------------------------
# phases


class Ledger:
    """Operations attempted (optimizer steps, sentences decoded, lines
    prepared, stages run) and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok: bool, reason: str, n: int = 1):
        if not ok:
            self.failed += n
            self.reasons.append(reason)


def train_config(arch):
    cfg = training.preset(PRESET[arch])
    cfg.epochs = 1
    return cfg


def train_model(st, arch):
    return build_model(config_for_arch(arch), st.ctx.src_vocab, st.ctx.tgt_vocab,
                       seed=100 + TRAIN_ARCHS.index(arch))


def train_round(st, work: Path, ledger: Ledger, rnd: int, archs, clock) -> dict:
    """One train() call per architecture from the same initial weights;
    returns {arch: (target tokens trained, Lap)}."""
    rates = {}
    tokens = sum(len(t) for _, t in st.train_data)
    for arch in archs:
        model = train_model(st, arch)
        cfg = train_config(arch)
        run_dir = work / f"train-{arch}-{rnd}"
        (_, report), lap = clock.timed(training.train, model, st.train_data,
                                       st.dev_data, cfg, run_dir=run_dir)
        rates[arch] = (tokens, lap)
        steps = len(training.make_batches(st.train_data, cfg.max_tokens,
                                          cfg.batch_size)[0])
        rows = (run_dir / "report.tsv").read_text(encoding="utf-8").splitlines()
        ok = (not report.diverged and len(report.epochs) == 1 and len(rows) == 2
              and all(math.isfinite(e.train_loss) and math.isfinite(e.dev_loss)
                      for e in report.epochs))
        ledger.attempted += steps
        ledger.check(ok, f"train {arch}: diverged, non-finite loss or "
                         f"report.tsv rows {len(rows) - 1} != 1", steps)
        shutil.rmtree(run_dir)
    return rates


def translate_round(st, inp: Inputs, outputs: dict, ledger: Ledger, clock) -> dict:
    """Greedy and beam-5 translation per architecture; returns
    {(mode, arch): (sentences, Lap)}."""
    rates = {}
    for arch in DECODE_ARCHS:
        model = st.decode_models[arch]
        for mode, lines, beam in (("greedy", inp.greedy_lines, 1),
                                  ("beam5", inp.beam_lines, 5)):
            out, lap = clock.timed(decoding.translate_lines, model, lines, st.ctx,
                                   DecodeConfig(beam=beam))
            rates[(mode, arch)] = (len(lines), lap)
            ledger.attempted += len(lines)
            outputs.setdefault((mode, arch), []).append(out)
    return rates


def prep_round(inp: Inputs, ledger: Ledger, clock) -> tuple:
    """Raw lines to ids, a direct BPE learn, and BLEU scoring; returns
    ({metric: (work done, Lap)}, artefacts for the checks)."""
    (corp, ctx, data), t_prep = clock.timed(_prepare, inp)
    ledger.attempted += len(corp)
    texts = [ctx.target_text(t) for _, t in data]
    toks = [_chain(p.source, ctx.src_script) for p in corp.pairs]
    model, t_learn = clock.timed(subword.learn_bpe, toks, PREP_MERGES)
    refs = [[t.split()] for t in texts]
    rates = {"prep_lines_s": (len(corp), t_prep),
             "bpe_learn_merges_s": (len(model.merges), t_learn)}
    for i in range(BLEU_REPEATS):
        report, lap = clock.timed(bleu.score_corpus, inp.bleu_cands, refs)
        rates[f"bleu_sent_s.{i}"] = (len(refs), lap)
    return rates, (corp, ctx, data, texts, toks, refs, report)


def _prepare(inp):
    corp = corpus.load_parallel(inp.path("prep", "kn"), inp.path("prep", "ml"), KN, ML)
    ctx = pipeline.build_context(corp, num_merges=PREP_MERGES)
    return corp, ctx, pipeline.encode_corpus(ctx, corp)


def _chain(text, script) -> list:
    norm = textnorm.normalize(text)
    return [textnorm.transliterate(t, script, textnorm.DEVANAGARI)
            for t in textnorm.tokenize(norm).tokens]


def run_config(inp: Inputs, name: str):
    p = inp.path
    return experiment.ExperimentConfig.from_pairs({
        "name": name, "src_lang": "kn", "tgt_lang": "ml",
        "train_src": str(p("bt-train", "kn")), "train_tgt": str(p("bt-train", "ml")),
        "dev_src": str(p("bt-dev", "kn")), "dev_tgt": str(p("bt-dev", "ml")),
        "test_src": str(p("bt-test", "kn")), "test_tgt": str(p("bt-test", "ml")),
        "mono": str(inp.root / "bt-mono.ml"), "backtranslation": "True",
        "bpe_merges": "30", "arch": "conv", "beam": "5", "seed": "1",
        "model.enc_layers": "2", "model.dec_layers": "2", "model.dim": "32",
        "model.max_positions": "256",
        "train.learning_rate": "0.01", "train.batch_size": "16",
        "train.max_tokens": "0", "train.epochs": "20", "train.lr_shrink": "1.0",
    })


def run_round(inp: Inputs, runs: Path, ledger: Ledger, rnd: int, clock) -> tuple:
    """A back-translation experiment, then its rerun; returns
    (Lap of the run, Lap of the rerun, run directory)."""
    cfg = run_config(inp, f"bt{rnd}")
    run_dir, t_run = clock.timed(experiment.run_experiment, cfg, runs_dir=runs)
    log_len = len((run_dir / "log.txt").read_text(encoding="utf-8").splitlines())
    _, t_rerun = clock.timed(experiment.run_experiment, cfg, runs_dir=runs)

    log = (run_dir / "log.txt").read_text(encoding="utf-8").splitlines()
    stages = len(layers.STAGES)
    done = sum(f"stage {s}: done" in ln for s in layers.STAGES for ln in log[:log_len])
    rerun_work = [ln for ln in log[log_len:] if ": running" in ln]
    results = run_dir / "results.tsv"
    bleu_value = (float(results.read_text(encoding="utf-8").splitlines()[1].split("\t")[2])
                  if results.exists() else -1.0)
    ledger.attempted += stages
    ledger.check(done == stages, f"run: {done} of {stages} stages done", stages - done)
    ledger.check(not rerun_work, f"rerun did stage work: {rerun_work}")
    ledger.check(bleu_value >= RUN_BLEU_FLOOR,
                 f"run: test BLEU {bleu_value} below floor {RUN_BLEU_FLOOR}")
    return t_run, t_rerun, run_dir


# ---------------------------------------------------------------------------
# checks outside the timed rounds


def check_restore(st, inp: Inputs, ledger: Ledger):
    """The restored decode models' logits are bit-identical to those of
    the models that were saved; the saved ones are dropped afterwards."""
    ids = st.ctx.source_ids(inp.greedy_lines[-1])
    src = np.array([ids + [PAD_ID]], dtype=np.int64)
    tgt = np.array([[BOS_ID] + ids[:3]], dtype=np.int64)
    for arch in DECODE_ARCHS:
        with ad.no_grad():
            a = st.saved[arch].forward(src, src == PAD_ID, tgt).data
            b = st.decode_models[arch].forward(src, src == PAD_ID, tgt).data
        ledger.check(np.array_equal(a, b),
                     f"{arch}: restored logits differ from the saved model's")
    st.saved = None


def reference_decode(st, inp: Inputs, ledger: Ledger) -> dict:
    """Decode the translated lines with greedy_decode_batch and
    beam_decode directly, checking that every hypothesis runs exactly to
    its cap and that greedy equals beam 1; returns the texts that every
    translate_lines call must reproduce, keyed (mode, arch). This is
    also the translate phase's untimed warm-up."""
    ctx, want = st.ctx, {}
    caps = DecodeConfig()
    for arch in DECODE_ARCHS:
        model = st.decode_models[arch]
        ids = [ctx.source_ids(ln) for ln in inp.greedy_lines]
        batch = np.full((len(ids), max(map(len, ids))), PAD_ID, dtype=np.int64)
        for r, row in enumerate(ids):
            batch[r, :len(row)] = row
        hyps = decoding.greedy_decode_batch(model, batch)
        beams = [decoding.beam_decode(model, ctx.source_ids(ln), DecodeConfig(beam=5))[0]
                 for ln in inp.beam_lines]
        for mode, lines, found in (("greedy", inp.greedy_lines, hyps),
                                   ("beam5", inp.beam_lines, beams)):
            for ln, h in zip(lines, found):
                cap = caps.resolved_max_len(len(ctx.source_ids(ln)))
                ledger.check(len(h.ids) == cap,
                             f"{arch} {mode}: {len(h.ids)} tokens, cap {cap}")
            want[(mode, arch)] = [ctx.target_text(list(h.output_ids)) for h in found]
        row = ctx.source_ids(min(inp.greedy_lines, key=len))
        b1, _ = decoding.beam_decode(model, row, DecodeConfig(beam=1))
        ledger.check(decoding.greedy_decode(model, row).ids == b1.ids,
                     f"{arch}: greedy != beam 1")
    return want


def check_outputs(want: dict, outputs: dict, ledger: Ledger):
    """Every sentence of every translate_lines output equals the direct
    decode's; each one that differs is a failure."""
    for key, outs in outputs.items():
        for out in outs:
            for i, text in enumerate(want[key]):
                ledger.check(i < len(out) and out[i] == text,
                             f"{key} line {i}: translate_lines output differs "
                             f"from the direct decode")


def check_prep(artefacts, ledger: Ledger):
    corp, ctx, data, texts, toks, refs, report = artefacts
    for p, tok, text in zip(corp.pairs, toks, texts):
        pieces = subword.apply_bpe(ctx.bpe_src, tok)
        ok = subword.undo_bpe(pieces) == tok
        src_norm = textnorm.normalize(p.source)
        ok &= textnorm.detransliterate(
            textnorm.transliterate(src_norm, ctx.src_script, textnorm.DEVANAGARI),
            ctx.src_script) == src_norm
        ok &= text == textnorm.normalize(p.target)
        ledger.check(ok, f"prep round trip failed on {p.source!r}")
    self_bleu = bleu.score_corpus([r[0] for r in refs], refs).mean
    ledger.check(self_bleu == 1.0, f"self-BLEU {self_bleu} != 1.0")
    ledger.check(all(0.0 <= s <= 1.0 for s in report.per_sentence),
                 "a BLEU score outside [0, 1]")


# ---------------------------------------------------------------------------
# one run


def run(spec: Spec, args, work: Path, out_dir: Path) -> dict:
    """Set up, measure for args.seconds (or trace), check; returns
    {"attempted", "failed", "metrics": {name: (value, unit)}}."""
    inp = Inputs(spec, args.seed, work / "inputs")
    (work / "setup").mkdir()
    ledger = Ledger()
    if args.trace:
        values = traced_run(inp, work, out_dir, args, ledger)
        units = layers.metric_units()
    else:
        values = measured_run(inp, work, args.seconds, ledger)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    for reason in ledger.reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    return {"attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": {k: (values.get(k, 0), unit) for k, unit in units.items()}}


def warm_up(st, work, ledger, clock):
    """The first train() of a process runs slower (allocator and page
    warm-up): one untimed transformer epoch takes that cost."""
    train_round(st, work, ledger, -1, TRAIN_ARCHS[:1], clock)


def measured_run(inp, work, seconds, ledger) -> dict:
    clock = Clock()
    st, setup_laps = timed_setup(inp, work / "setup", clock)
    check_restore(st, inp, ledger)
    warm_up(st, work, ledger, clock)
    want = reference_decode(st, inp, ledger)
    budget = {p: SHARES[p] * seconds for p in SHARES}
    spent = dict.fromkeys(SHARES, 0.0)
    rounds = dict.fromkeys(SHARES, 0)
    results = {p: [] for p in SHARES}
    outputs = {}

    def one_round(p, i):
        if p == "train":
            return train_round(st, work, ledger, i, TRAIN_ARCHS, clock)
        if p == "translate":
            return translate_round(st, inp, outputs, ledger, clock)
        if p == "prep":
            return prep_round(inp, ledger, clock)
        return run_round(inp, work / "runs", ledger, i, clock)[0]

    # every phase runs at least once, then until its budget is spent
    def wants(p):
        return not rounds[p] or spent[p] < budget[p]

    while any(wants(p) for p in SHARES):
        for p in [p for p in SHARES if wants(p)]:
            t0 = perf_counter()
            results[p].append(one_round(p, rounds[p]))
            spent[p] += perf_counter() - t0
            rounds[p] += 1
    print(f"rounds {rounds}", file=sys.stderr)
    check_outputs(want, outputs, ledger)
    check_prep(results["prep"][-1][1], ledger)

    # (metric, work done or None for a time, Lap) per timed call
    samples = [("setup_s", None, lap) for lap in setup_laps]
    samples += [("run_s", None, lap) for lap in results["run"]]
    for r in results["train"]:
        samples += [(f"train_tok_s.{arch}", n, lap) for arch, (n, lap) in r.items()]
    for r in results["translate"]:
        samples += [("%s_sent_s.%s" % key, n, lap) for key, (n, lap) in r.items()]
    for r, _ in results["prep"]:
        samples += [(key.split(".")[0], n, lap) for key, (n, lap) in r.items()]
    return summarize(samples)


def summarize(samples) -> dict:
    """Per metric, the median over its samples of work per second, or of
    seconds for a time."""
    values = {}
    for name, work, lap in samples:
        t = lap.seconds
        values.setdefault(name, []).append(t if work is None else work / t)
    return {name: statistics.median(v) for name, v in values.items()}


# ---------------------------------------------------------------------------
# the traced run


def traced_run(inp, work, out_dir, args, ledger) -> dict:
    """One untraced and one traced round of every phase (and of the
    set-up); per-layer metrics come from the traced ones, and each
    phase's tracing overhead is its traced round time over its untraced
    one, minus 1."""
    tr = Tracer()
    clock = Clock()
    targets = layers.targets(tr)
    overhead = {}
    faults = 0

    def traced(fn, *args):
        """fn(*args) with the tracer installed; softmax faults raised
        meanwhile add to autodiff.faults."""
        nonlocal faults
        faults0 = ad.fault_count()
        tr.install(targets)
        try:
            return fn(*args)
        finally:
            tr.uninstall()
            faults += ad.fault_count() - faults0

    st = setup(inp, work / "setup")
    check_restore(st, inp, ledger)
    traced_st = traced(setup, inp, work / "setup")
    traced_st.saved = None
    warm_up(st, work, ledger, clock)

    outputs = {}
    rounds = {
        "train": lambda s, i: train_round(s, work, ledger, i, TRAIN_ARCHS, clock),
        "translate": lambda s, i: translate_round(s, inp, outputs, ledger, clock),
        "prep": lambda s, i: prep_round(inp, ledger, clock),
        "run": lambda s, i: run_round(inp, work / "runs", ledger, i, clock),
    }
    results = {}
    for phase, fn in rounds.items():
        _, untraced = clock.timed(fn, st, 0)
        results[phase], lap = traced(clock.timed, fn, traced_st, 1)
        overhead[phase] = lap.seconds / untraced.seconds - 1.0
    tr.counts["autodiff.faults"] = faults
    check_outputs(reference_decode(st, inp, ledger), outputs, ledger)
    check_prep(results["prep"][1], ledger)

    m = layers.span_metrics(tr)
    t_run, t_rerun, run_dir = results["run"]
    for ln in (run_dir / "log.txt").read_text(encoding="utf-8").splitlines():
        hit = re.search(r"stage (\w+): done in ([0-9.]+)s", ln)
        if hit:
            m[f"experiment.stage.{hit.group(1)}_s"] = float(hit.group(2))
    m["experiment.rerun_s"] = t_rerun.seconds
    results_tsv = (run_dir / "results.tsv").read_text(encoding="utf-8")
    m["experiment.test_bleu"] = float(results_tsv.splitlines()[1].split("\t")[2])
    for phase, share in overhead.items():
        m[f"trace.overhead.{phase}"] = share
    m.update(reanchor(st, inp))
    name = f"trace-{args.workload}-{args.seed}.tsv"
    out_dir.mkdir(exist_ok=True)
    tr.write(out_dir / name, header=f"workload={args.workload} seed={args.seed}")
    return m


def reanchor(st, inp) -> dict:
    """One optimizer step on a 128-sentence batch of 4-20-word lines per
    architecture, untraced: the forward/backward/Adam split of the
    transformer and each architecture's tokens per second."""
    data = [(st.ctx.source_ids(s), st.ctx.target_ids(t)) for s, t in inp.reanchor]
    batch = training.pad_batch(data, range(len(data)))
    out = {"reanchor.batch_tokens": batch.n_tokens,
           "reanchor.vocab": len(st.ctx.tgt_vocab)}
    for arch in layers.REANCHOR_ARCHS:
        model = train_model(st, arch)
        opt = training.AdamState.init(model.params)
        t0 = perf_counter()
        logits = model.forward(batch.src, batch.src_pad_mask, batch.tgt_in,
                               training=True, rng=ad.RngState(1))
        loss = training.label_smoothed_loss(logits, batch.tgt_out, PAD_ID, 0.1)
        t1 = perf_counter()
        ad.zero_grad(model.params)
        ad.backward(loss)
        t2 = perf_counter()
        training.adam_step(model.params, opt, 1e-4)
        t3 = perf_counter()
        if arch == "transformer":
            out.update({"reanchor.transformer.forward_s": t1 - t0,
                        "reanchor.transformer.backward_s": t2 - t1,
                        "reanchor.transformer.adam_s": t3 - t2})
        out[f"reanchor.{arch}.tok_s"] = batch.n_tokens / (t3 - t0)
    return out
