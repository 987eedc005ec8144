"""The `dmt` executable: every pipeline stage as a subcommand, plus the
config-driven experiment runner and the multi-run report aggregator.

Filter-style subcommands read stdin and write stdout unless --in/--out
are given; all failures exit nonzero with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, textnorm
from .backtranslation import generate_pseudo_parallel, load_pseudo, mix, save_pseudo
from .bleu import score_files
from .corpus import (LanguageTag, load_monolingual, load_parallel, read_lines,
                     save_parallel, split, stats, write_lines)
from .decoding import DecodeConfig, translate_lines
from .errors import DmtError
from .experiment import ExperimentConfig, aggregate_report, run_experiment
from .pipeline import PipelineContext
from .subword import (BpeModel, Vocabulary, apply_bpe, build_vocab, learn_bpe,
                      undo_bpe_counted)
from .training import load_checkpoint, parse_entries, restore_model

# each script flag stands for the first language textnorm lists in it (kannada: kn)
_SCRIPT_LANG = {name: next(code for code, s in textnorm.LANG_SCRIPT.items() if s is script)
                for name, script in textnorm.SCRIPTS.items()}


def _read_lines(args):
    """The lines of --in, or of stdin, split on LF only (corpus.read_lines)."""
    return read_lines(getattr(args, "infile", None) or sys.stdin)


def _write_lines(args, lines):
    if getattr(args, "outfile", None):
        write_lines(args.outfile, lines)
    else:
        sys.stdout.write("".join(ln + "\n" for ln in lines))


def _in_flag(p):
    p.add_argument("--in", dest="infile", metavar="FILE",
                   help="input file (default: stdin)")


def _io_flags(p):
    _in_flag(p)
    p.add_argument("--out", dest="outfile", metavar="FILE",
                   help="output file (default: stdout)")


def _context_from_flags(args) -> PipelineContext:
    bpe_src = BpeModel.load(args.bpe_model)
    bpe_tgt = BpeModel.load(args.bpe_model_tgt) if args.bpe_model_tgt else bpe_src
    return PipelineContext(
        src_lang=LanguageTag(_SCRIPT_LANG[args.src_script]),
        tgt_lang=LanguageTag(_SCRIPT_LANG[args.tgt_script]),
        bpe_src=bpe_src, bpe_tgt=bpe_tgt,
        src_vocab=Vocabulary.load(args.vocab_src),
        tgt_vocab=Vocabulary.load(args.vocab_tgt),
        transliterate=not args.no_translit)


def _pipeline_flags(p, checkpoint_flag="--checkpoint"):
    p.add_argument(checkpoint_flag, dest="checkpoint", required=True,
                   help="trained model checkpoint (.dmt)")
    p.add_argument("--bpe-model", required=True, help="source-side merge file")
    p.add_argument("--bpe-model-tgt", help="target-side merge file "
                   "(default: same as --bpe-model)")
    p.add_argument("--vocab-src", required=True, help="source vocabulary file")
    p.add_argument("--vocab-tgt", required=True, help="target vocabulary file")
    p.add_argument("--src-script", choices=sorted(_SCRIPT_LANG), required=True,
                   help="script of the input text")
    p.add_argument("--tgt-script", choices=sorted(_SCRIPT_LANG), required=True,
                   help="script of the output text")
    p.add_argument("--beam", type=int, default=5, help="beam width")
    p.add_argument("--max-len", type=int, default=0, help="0: 2*source+10")
    p.add_argument("--length-penalty", type=float, default=1.0,
                   help="score divided by length^alpha")
    p.add_argument("--no-translit", action="store_true",
                   help="skip the Devanagari pooling step")


def _decode_config(args) -> DecodeConfig:
    return DecodeConfig(beam=args.beam,
                        max_len=args.max_len if args.max_len > 0 else None,
                        length_penalty=args.length_penalty)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_prep_normalize(args):
    out = [textnorm.normalize(ln, lang=args.lang, keep_joiners=args.keep_joiners)
           for ln in _read_lines(args)]
    _write_lines(args, out)


def cmd_prep_tokenize(args):
    _write_lines(args, [textnorm.tokenize(ln).text() for ln in _read_lines(args)])


def cmd_prep_detok(args):
    _write_lines(args, [textnorm.detokenize(ln.split()) for ln in _read_lines(args)])


def cmd_prep_translit(args):
    src = textnorm.script(args.src_script)
    dst = textnorm.script(args.tgt_script)
    total = 0
    out = []
    for ln in _read_lines(args):
        text, n = textnorm.transliterate_counted(ln, src, dst)
        out.append(text)
        total += n
    _write_lines(args, out)
    if total:
        print(f"unmapped codepoints passed through: {total}", file=sys.stderr)


def cmd_bpe_learn(args):
    corpus = [ln.split() for ln in _read_lines(args)]
    model = learn_bpe(corpus, args.merges)
    model.save(args.out_model)
    print(f"learned {len(model.merges)} merges -> {args.out_model}", file=sys.stderr)


def cmd_bpe_apply(args):
    model = BpeModel.load(args.model)
    _write_lines(args, [" ".join(apply_bpe(model, ln.split()))
                        for ln in _read_lines(args)])


def cmd_bpe_undo(args):
    dangling = 0
    out = []
    for ln in _read_lines(args):
        tokens, bad = undo_bpe_counted(ln.split())
        out.append(" ".join(tokens))
        dangling += bad
    _write_lines(args, out)
    if dangling:
        print(f"dangling continuation markers: {dangling}", file=sys.stderr)


def cmd_vocab_build(args):
    corpus = [ln.split() for ln in _read_lines(args)]
    vocab = build_vocab(corpus, min_count=args.min_count, max_size=args.max_size)
    vocab.save(args.out)
    print(f"{len(vocab)} entries (specials included) -> {args.out}", file=sys.stderr)


def cmd_binarize(args):
    vocab = Vocabulary.load(args.vocab)
    _write_lines(args, [" ".join(str(i) for i in vocab.encode(ln.split()))
                        for ln in _read_lines(args)])


def cmd_split(args):
    corpus = load_parallel(args.src, args.tgt, LanguageTag(args.src_lang),
                           LanguageTag(args.tgt_lang))
    parts = split(corpus, args.train_n, args.dev_n, args.test_n, seed=args.seed,
                  shuffle=not args.no_shuffle)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for part, name in zip(parts, ("train", "dev", "test")):
        save_parallel(part, out / f"{name}.{args.src_lang}",
                      out / f"{name}.{args.tgt_lang}")
    print(f"split {len(corpus)} pairs into "
          f"{args.train_n}/{args.dev_n}/{args.test_n} under {out}", file=sys.stderr)


def cmd_stats(args):
    corpus = load_parallel(args.src, args.tgt, LanguageTag(args.src_lang),
                           LanguageTag(args.tgt_lang))
    print(stats(corpus).as_tsv())


def cmd_translate(args):
    ctx = _context_from_flags(args)
    ckpt = load_checkpoint(args.checkpoint)
    model = restore_model(ckpt, ctx.src_vocab, ctx.tgt_vocab)
    _write_lines(args, translate_lines(model, _read_lines(args), ctx,
                                       _decode_config(args)))


def cmd_backtranslate(args):
    ctx = _context_from_flags(args)
    ckpt = load_checkpoint(args.checkpoint)
    model = restore_model(ckpt, ctx.src_vocab, ctx.tgt_vocab)
    mono = load_monolingual(args.mono, ctx.src_lang)
    pseudo = generate_pseudo_parallel(model, mono, ctx, _decode_config(args),
                                      checkpoint_fingerprint=ckpt.fingerprint())
    prefix = Path(args.out)
    save_pseudo(pseudo, prefix)
    print(f"{len(pseudo)} pseudo pairs ({pseudo.provenance.n_dropped} dropped) "
          f"-> {prefix}.src/.tgt", file=sys.stderr)


def cmd_mix(args):
    src_lang, tgt_lang = LanguageTag(args.src_lang), LanguageTag(args.tgt_lang)
    real = load_parallel(f"{args.real}.src", f"{args.real}.tgt", src_lang, tgt_lang)
    pseudo = load_pseudo(args.pseudo, src_lang, tgt_lang)
    mixed = mix(real, pseudo, upsample_real=args.upsample_real, seed=args.seed)
    save_parallel(mixed, f"{args.out}.src", f"{args.out}.tgt")
    print(f"{len(mixed)} pairs -> {args.out}.src/.tgt", file=sys.stderr)


def cmd_score(args):
    detranslit = textnorm.script(args.detranslit) if args.detranslit else None
    report = score_files(args.cand, args.ref, do_undo_bpe=args.undo_bpe,
                         do_detok=args.detok, detranslit_script=detranslit,
                         report_path=args.report)
    print(report.summary_line())


def cmd_run(args):
    config = ExperimentConfig.from_file(args.config, parse_entries(args.set or []))
    run_dir = run_experiment(config, runs_dir=args.runs_dir)
    print(run_dir)


def cmd_report(args):
    text = aggregate_report(runs_dir=args.runs_dir, fmt=args.format)
    if args.outfile:
        Path(args.outfile).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# parser


def _add_parser(sub, name, **kwargs):
    kwargs.setdefault("formatter_class", argparse.ArgumentDefaultsHelpFormatter)
    return sub.add_parser(name, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmt",
        description="Desk-scale NMT toolkit for Indic language pairs: "
                    "preprocessing, BPE, four seq2seq architectures, "
                    "back-translation, and averaged sentence BLEU.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    prep = _add_parser(sub, "prep", help="normalization, tokenization, scripts")
    prep_sub = prep.add_subparsers(dest="subcommand", required=True)
    p = _add_parser(prep_sub, "normalize", help="canonicalize text")
    p.add_argument("--lang", help="language tag (informational)")
    p.add_argument("--keep-joiners", action="store_true",
                   help="retain ZWJ/ZWNJ characters")
    _io_flags(p)
    p.set_defaults(func=cmd_prep_normalize)
    p = _add_parser(prep_sub, "tokenize", help="split tokens and punctuation")
    _io_flags(p)
    p.set_defaults(func=cmd_prep_tokenize)
    p = _add_parser(prep_sub, "detok", help="rejoin tokens into surface text")
    _io_flags(p)
    p.set_defaults(func=cmd_prep_detok)
    p = _add_parser(prep_sub, "translit", help="offset-map between Indic scripts")
    p.add_argument("--from", dest="src_script", required=True,
                   choices=sorted(_SCRIPT_LANG))
    p.add_argument("--to", dest="tgt_script", required=True,
                   choices=sorted(_SCRIPT_LANG))
    _io_flags(p)
    p.set_defaults(func=cmd_prep_translit)

    bpe = _add_parser(sub, "bpe", help="byte-pair encoding")
    bpe_sub = bpe.add_subparsers(dest="subcommand", required=True)
    p = _add_parser(bpe_sub, "learn", help="learn merge rules")
    p.add_argument("--merges", type=int, default=8000)
    p.add_argument("--out-model", required=True)
    _in_flag(p)
    p.set_defaults(func=cmd_bpe_learn)
    p = _add_parser(bpe_sub, "apply", help="segment tokens into subwords")
    p.add_argument("--model", required=True)
    _io_flags(p)
    p.set_defaults(func=cmd_bpe_apply)
    p = _add_parser(bpe_sub, "undo", help="rejoin subwords into tokens")
    _io_flags(p)
    p.set_defaults(func=cmd_bpe_undo)

    vocab = _add_parser(sub, "vocab", help="vocabulary construction")
    vocab_sub = vocab.add_subparsers(dest="subcommand", required=True)
    p = _add_parser(vocab_sub, "build", help="frequency-ranked vocabulary")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--out", required=True)
    _in_flag(p)
    p.set_defaults(func=cmd_vocab_build)

    p = _add_parser(sub, "binarize", help="map subword lines to id lines")
    p.add_argument("--vocab", required=True)
    _io_flags(p)
    p.set_defaults(func=cmd_binarize)

    p = _add_parser(sub, "split", help="shuffle and partition a parallel corpus")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--src-lang", required=True)
    p.add_argument("--tgt-lang", required=True)
    p.add_argument("--train-n", type=int, required=True)
    p.add_argument("--dev-n", type=int, required=True)
    p.add_argument("--test-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-shuffle", action="store_true",
                   help="take contiguous partitions in file order")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_split)

    p = _add_parser(sub, "stats", help="corpus statistics as TSV")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--src-lang", required=True)
    p.add_argument("--tgt-lang", required=True)
    p.set_defaults(func=cmd_stats)

    p = _add_parser(sub, "translate", help="translate text through a checkpoint")
    _pipeline_flags(p)
    _io_flags(p)
    p.set_defaults(func=cmd_translate)

    p = _add_parser(sub, "backtranslate",
                       help="generate pseudo-parallel data from monolingual text")
    _pipeline_flags(p, checkpoint_flag="--reverse-checkpoint")
    p.add_argument("--mono", required=True,
                   help="monolingual corpus in the reverse model's source language")
    p.add_argument("--out", required=True, help="output prefix (.src/.tgt)")
    p.set_defaults(func=cmd_backtranslate)

    p = _add_parser(sub, "mix", help="combine real and pseudo-parallel corpora")
    p.add_argument("--real", required=True, help="prefix of real pair files")
    p.add_argument("--pseudo", required=True, help="prefix of pseudo pair files")
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--upsample-real", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--src-lang", required=True)
    p.add_argument("--tgt-lang", required=True)
    p.set_defaults(func=cmd_mix)

    p = _add_parser(sub, "score", help="averaged sentence BLEU between two files")
    p.add_argument("--cand", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--undo-bpe", action="store_true")
    p.add_argument("--detok", action="store_true")
    p.add_argument("--detranslit", choices=sorted(_SCRIPT_LANG),
                   help="map Devanagari back to this script before scoring")
    p.add_argument("--report", help="write per-line TSV report here")
    p.set_defaults(func=cmd_score)

    p = _add_parser(sub, "run", help="run a config-driven experiment end to end")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--runs-dir", help="runs root (default $DMT_RUNS_DIR or ./runs)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config entry (repeatable; flags win)")
    p.set_defaults(func=cmd_run)

    p = _add_parser(sub, "report", help="aggregate run results into a matrix")
    p.add_argument("--runs-dir")
    p.add_argument("--format", choices=("tsv", "markdown"), default="tsv")
    p.add_argument("--out", dest="outfile")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DmtError as e:
        print(f"dmt: error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
