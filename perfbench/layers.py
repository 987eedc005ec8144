"""Which dmt functions the traced run wraps, and the per-layer metrics it
derives from their spans and boundary counts.

Every name in ``metric_units()`` is reported by every traced run, as the total
over one traced round of each phase; a layer that a workload does not
reach reports 0.
"""

from __future__ import annotations

import os

import numpy as np

from spans import Tracer
from dmt import (autodiff, backtranslation, bleu, corpus, decoding, models,
                 pipeline, subword, textnorm, training)
from dmt.decoding import DecodeConfig
from dmt.subword import PAD_ID

AD_OPS = ("matmul", "add", "mul", "softmax", "log_softmax", "layer_norm",
          "embedding", "slice_axis", "concat", "reshape", "transpose",
          "sigmoid", "tanh", "relu", "conv1d", "glu", "dropout", "gather_last",
          "select_time", "gather_time", "reduce_sum")

# spans that also report their number of calls
WITH_CALLS = {f"autodiff.{op}" for op in AD_OPS} | {"models.decode_step", "models.tile"}

STAGES = ("backtranslate", "mix", "prep", "bpe", "vocab", "binarize", "train",
          "decode", "score")
PHASES = ("train", "translate", "prep", "run")
REANCHOR_ARCHS = ("transformer", "lstm", "conv")

# counts taken at span boundaries, and other per-layer values: name -> unit
COUNTS = {
    "autodiff.tape_nodes": "count", "autodiff.faults": "count",
    "models.decode_positions": "count",
    "training.steps": "count", "training.tokens": "count",
    "training.pad_share": "share", "training.ckpt_bytes": "bytes",
    "decoding.tokens_out": "count", "decoding.cap_hits": "count",
    "subword.apply_bpe.tokens": "count", "bleu.sentences": "count",
    "backtranslation.pseudo_pairs": "count", "backtranslation.dropped": "count",
    **{f"experiment.stage.{s}_s": "s" for s in STAGES},
    "experiment.rerun_s": "s", "experiment.test_bleu": "score",
    **{f"trace.overhead.{p}": "share" for p in PHASES},
    **{f"reanchor.transformer.{k}_s": "s" for k in ("forward", "backward", "adam")},
    **{f"reanchor.{a}.tok_s": "tok/s" for a in REANCHOR_ARCHS},
    "reanchor.batch_tokens": "count", "reanchor.vocab": "count",
}


def span_names() -> list:
    """Every span name the traced run records, in report order."""
    return list(dict.fromkeys(name for _, _, name, _, _ in targets(Tracer())))


def metric_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    out = {}
    for name in span_names():
        out[f"{name}.self_s"] = "s"
        if name in WITH_CALLS:
            out[f"{name}.calls"] = "count"
    out.update(COUNTS)
    return out


def targets(tr) -> list:
    """(owner, attribute, span name, before, after) for Tracer.install."""
    t = [(autodiff, op, f"autodiff.{op}", None, None) for op in AD_OPS]
    t.append((autodiff, "backward", "autodiff.backward",
              lambda a, k: tr.count("autodiff.tape_nodes", autodiff.tape_size()),
              None))

    def positions(a, k):
        prefix = np.asarray(a[2] if len(a) > 2 else k["tgt_prefix"])
        tr.count("models.decode_positions", int(prefix.shape[0] * prefix.shape[1]))

    for cls in (models.TransformerModel, models.LstmModel, models.ConvModel):
        t.append((cls, "encode", "models.encode", None, None))
        t.append((cls, "decode_step", "models.decode_step", positions, None))
    t.append((models.EncoderMemory, "tile", "models.tile", None, None))
    t.append((models, "label_smoothed_loss", "models.label_smoothed_loss", None, None))

    def batch_counts(a, k, batch):
        # only the batches train() steps on, not evaluate_loss's
        if tr.current() == "training.train":
            tr.count("training.tokens", batch.n_tokens)
            tr.count("training.positions", int(batch.tgt_out.size))

    def ckpt_bytes(a, k, _):
        tr.count("training.ckpt_bytes", os.path.getsize(a[1] if len(a) > 1 else k["path"]))

    t += [(training, "train", "training.train", None, None),
          (training, "make_batches", "training.make_batches", None, None),
          (training, "pad_batch", "training.pad_batch", None, batch_counts),
          (training, "adam_step", "training.adam_step",
           lambda a, k: tr.count("training.steps"), None),
          (training, "evaluate_loss", "training.evaluate_loss", None, None),
          (training, "evaluate_bleu", "training.evaluate_bleu", None, None),
          (training, "save_checkpoint", "training.save_checkpoint", None, ckpt_bytes),
          (training, "load_checkpoint", "training.load_checkpoint", None, None),
          (training, "restore_model", "training.restore_model", None, None)]

    def greedy_out(a, k, hyps):
        src = np.asarray(a[1] if len(a) > 1 else k["src_batch"])
        src = src[None, :] if src.ndim == 1 else src
        mask = k.get("src_pad_mask", a[2] if len(a) > 2 else None)
        mask = src == PAD_ID if mask is None else mask
        config = k.get("config", a[3] if len(a) > 3 else None) or DecodeConfig(beam=1)
        for n, h in zip((~mask).sum(axis=1), hyps):
            _decoded(h, config.resolved_max_len(int(n)))

    def beam_out(a, k, result):
        src = np.asarray(a[1] if len(a) > 1 else k["src_ids"])
        config = k.get("config", a[2] if len(a) > 2 else None) or DecodeConfig()
        _decoded(result[0], config.resolved_max_len(int((src != PAD_ID).sum())))

    def _decoded(hyp, cap):
        tr.count("decoding.tokens_out", len(hyp.ids))
        tr.count("decoding.cap_hits", int(len(hyp.ids) == cap))

    t += [(decoding, "greedy_decode_batch", "decoding.greedy_decode_batch", None, greedy_out),
          (decoding, "beam_decode", "decoding.beam_decode", None, beam_out),
          (decoding, "translate_lines", "decoding.translate_lines", None, None)]

    t += [(subword, "learn_bpe", "subword.learn_bpe", None, None),
          (subword, "apply_bpe", "subword.apply_bpe", None,
           lambda a, k, r: tr.count("subword.apply_bpe.tokens", len(r))),
          (subword, "build_vocab", "subword.build_vocab", None, None),
          (subword.Vocabulary, "encode", "subword.Vocabulary.encode", None, None),
          (subword.Vocabulary, "decode", "subword.Vocabulary.decode", None, None),
          (subword, "undo_bpe", "subword.undo_bpe", None, None)]
    t += [(textnorm, f, f"textnorm.{f}", None, None) for f in (
        "normalize", "tokenize", "transliterate", "detransliterate", "detokenize")]
    t += [(pipeline, "build_context", "pipeline.build_context", None, None),
          (pipeline, "encode_corpus", "pipeline.encode_corpus", None, None),
          (pipeline.PipelineContext, "target_text", "pipeline.PipelineContext.target_text",
           None, None)]
    t.append((bleu, "score_corpus", "bleu.score_corpus", None,
              lambda a, k, r: tr.count("bleu.sentences", len(r.per_sentence))))
    t += [(corpus, f, f"corpus.{f}", None, None) for f in (
        "load_parallel", "load_monolingual", "save_parallel")]

    def pseudo(a, k, r):
        tr.count("backtranslation.pseudo_pairs", len(r))
        tr.count("backtranslation.dropped", r.provenance.n_dropped)

    t += [(backtranslation, "generate_pseudo_parallel",
           "backtranslation.generate_pseudo_parallel", None, pseudo),
          (backtranslation, "mix", "backtranslation.mix", None, None)]
    return t


def span_metrics(tr) -> dict:
    """Per-layer span and count metrics from one tracer, names as in
    metric_units(); values not seen are 0."""
    totals = tr.totals()
    out = {}
    for name in span_names():
        calls, own = totals.get(name, (0, 0.0))
        out[f"{name}.self_s"] = own
        if name in WITH_CALLS:
            out[f"{name}.calls"] = calls
    for key in COUNTS:
        if key in tr.counts:
            out[key] = tr.counts[key]
    positions = tr.counts.get("training.positions", 0)
    out["training.pad_share"] = (
        1.0 - tr.counts.get("training.tokens", 0) / positions if positions else 0.0)
    return out
