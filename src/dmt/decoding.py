"""Autoregressive inference: greedy and beam search with length-normalized
scores, plus the full text-to-text translation pipeline.

Search drives a model through the incremental contract of ``models``:
``init_state(memory)``, then ``step(state, last_ids)`` once per output
position, with ``state.select(rows)`` carrying beam parents forward. A
model that implements only ``encode``/``decode_step`` is wrapped in
RecomputeDecoder, which re-runs the whole prefix on every step. Greedy
decoding of many sentences (``translate_lines``, dev BLEU in training)
goes through ``greedy_decode_many``, GREEDY_CHUNK sentences per batch.
``translate_lines`` is the one text -> text loop; beam search runs
``beam_decode`` once per line.

Hypothesis ordering is deterministic everywhere: score ties break to
higher raw log-probability, then shorter output, then lexicographically
smaller id sequence; token-level argmax ties break to the lowest id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .pipeline import PipelineContext
from .subword import BOS_ID, EOS_ID, PAD_ID

__all__ = ["DecodeConfig", "Hypothesis", "RecomputeDecoder", "greedy_decode",
           "greedy_decode_batch", "greedy_decode_many", "beam_decode",
           "translate_lines"]

GREEDY_CHUNK = 64  # sentences per greedy_decode_batch call


@dataclass(frozen=True)
class DecodeConfig:
    beam: int = 5
    max_len: int = None          # None: 2 * source length + 10
    length_penalty: float = 1.0  # score divided by length**alpha

    def __post_init__(self):
        if self.beam < 1:
            raise ConfigError(f"beam must be >= 1, got {self.beam}")
        if self.max_len is not None and self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")
        if self.length_penalty < 0.0:
            raise ConfigError("length_penalty must be >= 0")

    def resolved_max_len(self, src_len: int) -> int:
        return self.max_len if self.max_len is not None else 2 * src_len + 10


@dataclass(frozen=True)
class Hypothesis:
    ids: tuple          # generated ids; at most one EOS, at the end
    logprob: float
    alpha: float = 1.0

    @property
    def normalized_score(self) -> float:
        return self.logprob / max(len(self.ids), 1) ** self.alpha

    @property
    def output_ids(self) -> tuple:
        """Generated ids with the terminating EOS stripped."""
        if self.ids and self.ids[-1] == EOS_ID:
            return self.ids[:-1]
        return self.ids

    def sort_key(self):
        return (self.normalized_score, self.logprob, -len(self.ids),
                tuple(-i for i in self.ids))


@dataclass(frozen=True)
class _PrefixState:
    memory: object                # encoder memory of the source batch
    prefix: np.ndarray = None     # [B, t] ids fed so far
    tiled: bool = False           # rows are hypotheses of one source sentence

    def select(self, rows) -> "_PrefixState":
        if not self.tiled and len(self.prefix) != 1:
            raise ConfigError("recompute decoding reorders the hypotheses of "
                              "one source sentence only")
        return _PrefixState(self.memory, self.prefix[np.asarray(rows, dtype=np.int64)],
                            tiled=True)


class RecomputeDecoder:
    """The incremental contract for a model that implements only
    ``encode``/``decode_step``: the state is the encoder memory and the
    prefix, and every step re-runs ``decode_step`` over the whole prefix,
    so a step costs time linear in its position. It decodes duck-typed
    models, and it is the reference the models' own ``step`` is tested
    against."""

    def __init__(self, model):
        self.model = model

    def encode(self, src_ids, src_pad_mask=None):
        return self.model.encode(src_ids, src_pad_mask)

    def init_state(self, memory) -> _PrefixState:
        return _PrefixState(memory)

    def step(self, state: _PrefixState, last_ids):
        last = np.asarray(last_ids, dtype=np.int64)[:, None]
        prefix = last if state.prefix is None else np.concatenate(
            [state.prefix, last], axis=1)
        memory = state.memory.tile(len(prefix)) if state.tiled else state.memory
        logits = self.model.decode_step(memory, prefix).data[:, -1, :]
        return logits, _PrefixState(state.memory, prefix, state.tiled)


def _incremental(model):
    return model if hasattr(model, "init_state") else RecomputeDecoder(model)


def _step_logprobs(logits: np.ndarray) -> np.ndarray:
    """Next-token log-probs with PAD and BOS barred from generation."""
    x = logits.copy()
    x[:, PAD_ID] = -np.inf
    x[:, BOS_ID] = -np.inf
    m = x.max(axis=-1, keepdims=True)
    z = x - m
    with np.errstate(invalid="ignore"):
        return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _as_batch(src_ids) -> np.ndarray:
    arr = np.asarray(src_ids, dtype=np.int64)
    return arr[None, :] if arr.ndim == 1 else arr


def greedy_decode_batch(model, src_batch, src_pad_mask=None,
                        config: DecodeConfig = None) -> list:
    """Greedy decoding of a padded source batch; one Hypothesis per row."""
    config = config or DecodeConfig(beam=1)
    src = _as_batch(src_batch)
    if src_pad_mask is None:
        src_pad_mask = src == PAD_ID
    b = src.shape[0]
    lengths = (~src_pad_mask).sum(axis=1)
    caps = np.array([config.resolved_max_len(int(n)) for n in lengths])
    decoder = _incremental(model)
    with ad.no_grad():
        state = decoder.init_state(model.encode(src, src_pad_mask))
        nxt = np.full(b, BOS_ID, dtype=np.int64)
        ids = [[] for _ in range(b)]
        logprob = np.zeros(b)
        done = np.zeros(b, dtype=bool)
        for _ in range(int(caps.max())):
            logits, state = decoder.step(state, nxt)
            logp = _step_logprobs(logits)
            choice = logp.argmax(axis=1)  # first max = lowest id
            nxt = np.full(b, PAD_ID, dtype=np.int64)
            for i in range(b):
                if done[i]:
                    continue
                v = int(choice[i])
                ids[i].append(v)
                logprob[i] += logp[i, v]
                nxt[i] = v
                if v == EOS_ID or len(ids[i]) >= caps[i]:
                    done[i] = True
            if done.all():
                break
    return [Hypothesis(tuple(s), float(lp), config.length_penalty)
            for s, lp in zip(ids, logprob)]


def greedy_decode_many(model, id_lists, config: DecodeConfig = None) -> list:
    """Greedy decoding of many id lists, GREEDY_CHUNK at a time, each chunk
    padded to its longest row; one Hypothesis per list, in order."""
    hyps = []
    for lo in range(0, len(id_lists), GREEDY_CHUNK):
        chunk = id_lists[lo:lo + GREEDY_CHUNK]
        batch = np.full((len(chunk), max(len(ids) for ids in chunk)), PAD_ID,
                        dtype=np.int64)
        for r, ids in enumerate(chunk):
            batch[r, :len(ids)] = ids
        hyps += greedy_decode_batch(model, batch, config=config)
    return hyps


def greedy_decode(model, src_ids, config: DecodeConfig = None) -> Hypothesis:
    """At each step append the argmax token (ties to the lowest id);
    stop at EOS or the length cap."""
    return greedy_decode_batch(model, _as_batch(src_ids), config=config)[0]


def beam_decode(model, src_ids, config: DecodeConfig = None):
    """Beam search over one source sentence.

    Returns (best, n_best): live hypotheses expand by every token, the
    global top-beam by raw log-probability survive, EOS moves a hypothesis
    to the done set, and search stops early once the best finished
    normalized score can no longer be beaten.
    """
    config = config or DecodeConfig()
    alpha = config.length_penalty
    src = _as_batch(src_ids)
    if src.shape[0] != 1:
        raise ConfigError("beam_decode works on a single sentence")
    max_len = config.resolved_max_len(int((src != PAD_ID).sum()))
    decoder = _incremental(model)

    with ad.no_grad():
        state = decoder.init_state(model.encode(src))
        live = [Hypothesis((), 0.0, alpha)]
        last = np.array([BOS_ID], dtype=np.int64)
        done = []
        while True:
            k = len(live)
            logits, state = decoder.step(state, last)
            logp = _step_logprobs(logits)
            vocab = logp.shape[1]
            scores = np.array([h.logprob for h in live])[:, None] + logp
            flat = scores.reshape(-1)
            rows = np.repeat(np.arange(k), vocab)
            toks = np.tile(np.arange(vocab), k)
            order = np.lexsort((toks, rows, -flat))[:config.beam]
            new_live, parents = [], []
            for pick in order:
                i, v = int(rows[pick]), int(toks[pick])
                hyp = Hypothesis(live[i].ids + (v,), float(flat[pick]), alpha)
                if v == EOS_ID or len(hyp.ids) >= max_len:
                    done.append(hyp)
                else:
                    new_live.append(hyp)
                    parents.append(i)
            live = new_live
            if not live:
                break
            if done:
                best_done = max(h.normalized_score for h in done)
                best_possible = max(h.logprob for h in live) / max_len ** alpha
                if best_done >= best_possible:
                    break
            state = state.select(parents)
            last = np.array([h.ids[-1] for h in live], dtype=np.int64)
    done.sort(key=Hypothesis.sort_key, reverse=True)
    return done[0], done


def translate_lines(model, lines, ctx: PipelineContext,
                    config: DecodeConfig = None) -> list:
    """The full pipeline over many lines: normalize, tokenize,
    transliterate, BPE, decode (greedy batched through
    greedy_decode_many, beam search one line at a time), un-BPE,
    detokenize, detransliterate back to the target script. A line with
    no subwords translates to ""."""
    config = config or DecodeConfig()
    ctx.check_model(model)
    out = [""] * len(lines)
    rows, todo = [], []
    for i, ln in enumerate(lines):
        subwords = ctx.source_subwords(ln)
        if subwords:  # encode() appends EOS, so test emptiness before it
            rows.append(i)
            todo.append(ctx.src_vocab.encode(subwords))
    if config.beam == 1:
        hyps = greedy_decode_many(model, todo, config)
    else:
        hyps = [beam_decode(model, ids, config)[0] for ids in todo]
    for i, hyp in zip(rows, hyps):
        out[i] = ctx.target_text(list(hyp.output_ids))
    return out
