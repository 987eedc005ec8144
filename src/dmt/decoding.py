"""Autoregressive inference: beam search with length-normalized scores
(greedy is beam 1), and the full text-to-text translation pipeline.

One search loop, ``_search``, drives a model through the incremental
contract of ``models``: ``init_state(memory)``, then ``step(state,
last_ids)`` once per position. ``step`` runs the same decoder body as the
teacher-forced ``decode_step`` that training uses, one token at a time.
The loop's rows are sentences x beam, and ``state.select(rows)`` carries
parents forward and drops finished hypotheses and sentences. A
sentence's length cap is also kept within the positions the model can
feed (``max_positions`` of the conv and transformer configs), and
``translate_lines`` leaves a source longer than that untranslated.
``greedy_decode_batch``, ``greedy_decode`` and ``beam_decode`` wrap the
search; ``decode_many`` (``translate_lines``, dev BLEU in training) runs
it DECODE_CHUNK sentences at a time.

Ordering is deterministic: a sentence keeps its top candidates by raw
log-probability, ties to the lower parent row, then the lower token id;
finished hypotheses rank by normalized score, then raw log-probability,
then shorter output, then the lexicographically smaller id sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .pipeline import PipelineContext
from .subword import BOS_ID, EOS_ID, PAD_ID

__all__ = ["DecodeConfig", "Hypothesis", "greedy_decode",
           "greedy_decode_batch", "decode_many", "beam_decode", "translate_lines"]

DECODE_CHUNK = 64  # sentences per search in decode_many


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


def _top(score: np.ndarray, sent: np.ndarray, beam: int):
    """Each sentence's top ``beam`` expansions from [rows, V] scores whose
    rows are grouped by sentence (``sent``): (parent rows, tokens, scores),
    by sentence, then score descending, then parent row, then token id."""
    if beam == 1:  # one row per sentence; argmax takes the lowest id on ties
        rows, toks = np.arange(len(score)), score.argmax(axis=1)
        return rows, toks, score[rows, toks]
    vocab = score.shape[1]
    b = min(beam, vocab)
    # a row's top b, ties included, holds all its candidates in its sentence's
    # top beam; a row is all NaN or has none, and a NaN threshold keeps it all
    thr = np.partition(score, vocab - b, axis=1)[:, vocab - b]
    cand = np.flatnonzero(~(score < thr[:, None]))
    flat, s = score.reshape(-1)[cand], sent[cand // vocab]
    order = np.lexsort((-flat, s))  # stable: (row, token) order within ties
    s = s[order]
    order = order[np.arange(len(s)) - np.searchsorted(s, s) < beam]
    rows, toks = np.divmod(cand[order], vocab)
    return rows, toks, flat[order]


def _max_positions(model):
    """The most positions the model can feed (inf when it has no bound)."""
    return getattr(getattr(model, "config", None), "max_positions", None) or np.inf


def _search(model, src, pad_mask, config: DecodeConfig, beam: int) -> list:
    """Beam search over every row of a padded source batch at once; one
    n-best list per source row, best first.

    Every live hypothesis of every sentence is a row of one decoder
    state, a sentence's rows kept together. Each step expands every row
    by every token, and each sentence keeps its top ``beam`` candidates
    by raw log-probability (ties: parent row, then token id). A candidate
    that ends in EOS or reaches its sentence's length cap joins that
    sentence's done set. A sentence stops when none of its candidates
    lives on, or when its best finished normalized score can no longer be
    beaten; its rows then leave the state. Greedy search is beam 1.
    """
    alpha = config.length_penalty
    n = src.shape[0]
    # a hypothesis of c tokens feeds positions 0 .. c - 1
    limit = _max_positions(model)
    caps = np.array([min(config.resolved_max_len(int(k)), limit)
                     for k in (~pad_mask).sum(axis=1)])
    bound = np.array([float(c) ** alpha for c in caps])  # best score / bound: best possible
    done = [[] for _ in range(n)]
    best_done = np.full(n, np.nan)  # best finished normalized score; NaN: none yet
    with ad.no_grad():
        state = model.init_state(model.encode(src, pad_mask))
        sent = np.arange(n)                     # the sentence of each live row
        ids = np.zeros((n, 0), dtype=np.int64)  # the tokens of each live row
        logprob = np.zeros(n)
        last = np.full(n, BOS_ID, dtype=np.int64)
        while len(sent):
            logits, state = model.step(state, last)
            # expand outlives the step: freed before the next one is made, its
            # pages went back to the system and faulted in again every step
            expand = _step_logprobs(logits)
            expand += logprob[:, None]
            rows, toks, score = _top(expand, sent, beam)
            s = sent[rows]
            ids = np.concatenate([ids[rows], toks[:, None]], axis=1)
            ended = (toks == EOS_ID) | (ids.shape[1] >= caps[s])
            for i in np.flatnonzero(ended):
                hyp = Hypothesis(tuple(ids[i].tolist()), float(score[i]), alpha)
                done[s[i]].append(hyp)
                best_done[s[i]] = np.fmax(best_done[s[i]], hyp.normalized_score)
            live = ~ended
            best_live = np.full(n, -np.inf)
            np.maximum.at(best_live, s[live], score[live])
            keep = live & ~(best_done >= best_live / bound)[s]
            parents = rows[keep]
            if len(parents) and not np.array_equal(parents, np.arange(len(sent))):
                state = state.select(parents)
            sent, ids, logprob, last = s[keep], ids[keep], score[keep], toks[keep]
    return [sorted(n_best, key=Hypothesis.sort_key, reverse=True) for n_best in done]


def greedy_decode_batch(model, src_batch, src_pad_mask=None,
                        config: DecodeConfig = None) -> list:
    """Greedy decoding of a padded source batch; one Hypothesis per row."""
    src = _as_batch(src_batch)
    if src_pad_mask is None:
        src_pad_mask = src == PAD_ID
    return [n_best[0] for n_best in
            _search(model, src, src_pad_mask, config or DecodeConfig(beam=1), 1)]


def decode_many(model, id_lists, config: DecodeConfig) -> list:
    """Beam search over many id lists, DECODE_CHUNK at a time, each chunk
    padded to its longest row; the best Hypothesis of each list, in
    order."""
    hyps = []
    for lo in range(0, len(id_lists), DECODE_CHUNK):
        chunk = id_lists[lo:lo + DECODE_CHUNK]
        batch = np.full((len(chunk), max(len(ids) for ids in chunk)), PAD_ID,
                        dtype=np.int64)
        for r, ids in enumerate(chunk):
            batch[r, :len(ids)] = ids
        hyps += [n_best[0] for n_best in
                 _search(model, batch, batch == PAD_ID, config, config.beam)]
    return hyps


def greedy_decode(model, src_ids, config: DecodeConfig = None) -> Hypothesis:
    """At each step append the argmax token (ties to the lowest id);
    stop at EOS or the length cap."""
    return greedy_decode_batch(model, _as_batch(src_ids), config=config)[0]


def beam_decode(model, src_ids, config: DecodeConfig = None):
    """Beam search over one source sentence; returns (best, n_best), the
    finished hypotheses best first."""
    config = config or DecodeConfig()
    src = _as_batch(src_ids)
    if src.shape[0] != 1:
        raise ConfigError("beam_decode works on a single sentence")
    n_best = _search(model, src, src == PAD_ID, config, config.beam)[0]
    return n_best[0], n_best


def translate_lines(model, lines, ctx: PipelineContext,
                    config: DecodeConfig = None) -> list:
    """The full pipeline over many lines: normalize, tokenize,
    transliterate, BPE, decode (through decode_many), un-BPE,
    detokenize, detransliterate back to the target script. A line with
    no subwords, or with more source ids than the model has positions,
    translates to ""."""
    config = config or DecodeConfig()
    ctx.check_model(model)
    limit = _max_positions(model)
    out = [""] * len(lines)
    rows, todo = [], []
    for i, ln in enumerate(lines):
        subwords = ctx.source_subwords(ln)
        if not subwords:  # encode() appends EOS, so test emptiness before it
            continue
        ids = ctx.src_vocab.encode(subwords)
        if len(ids) <= limit:
            rows.append(i)
            todo.append(ids)
    for i, hyp in zip(rows, decode_many(model, todo, config)):
        out[i] = ctx.target_text(list(hyp.output_ids))
    return out
