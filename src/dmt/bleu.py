"""Sentence-level BLEU with uniform 4-gram weights, averaged arithmetically
over the corpus (not pooled corpus BLEU).

Scores live in [0, 1]. A sentence with any zero n-gram precision -- which
includes every candidate shorter than 4 tokens -- scores 0; there is no
smoothing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from . import textnorm
from .corpus import read_lines, write_lines
from .errors import ScoringError
from .subword import undo_bpe

__all__ = [
    "BleuReport", "modified_precision", "sentence_bleu",
    "corpus_average", "score_corpus", "score_files",
]

MAX_N = 4               # n-gram orders 1 .. MAX_N
WEIGHT = 1.0 / MAX_N    # each order's weight in the geometric mean


@dataclass
class BleuReport:
    per_sentence: list
    mean: float
    counts: list = field(default_factory=list)  # per sentence: [(match, total)] per n

    def summary_line(self) -> str:
        return f"mean_sentence_bleu\t{self.mean:.4f}"


def _ngrams(tokens, n):
    counts = Counter()
    for i in range(len(tokens) - n + 1):
        counts[tuple(tokens[i:i + n])] += 1
    return counts


def modified_precision(candidate, references, n: int):
    """Clipped n-gram matches and total candidate n-grams of order n.

    Candidate counts are clipped by the maximum count of the same n-gram
    in any single reference.
    """
    if n < 1:
        raise ScoringError(f"n must be >= 1, got {n}")
    cand = _ngrams(candidate, n)
    total = max(0, len(candidate) - n + 1)
    if not cand:
        return 0, total
    max_ref = Counter()
    for ref in references:
        for gram, cnt in _ngrams(ref, n).items():
            if cnt > max_ref[gram]:
                max_ref[gram] = cnt
    clipped = sum(min(cnt, max_ref[gram]) for gram, cnt in cand.items())
    return clipped, total


def _effective_ref_len(candidate_len, references):
    return min((len(r) for r in references),
               key=lambda rl: (abs(rl - candidate_len), rl))


def _sentence_bleu_counted(candidate, references):
    if not references:
        raise ScoringError("empty reference set")
    candidate = list(candidate)
    references = [list(r) for r in references]
    counts = [modified_precision(candidate, references, n)
              for n in range(1, MAX_N + 1)]
    if not candidate:
        return 0.0, counts

    log_sum = 0.0
    for match, total in counts:
        if total == 0 or match == 0:
            return 0.0, counts
        log_sum += WEIGHT * math.log(match / total)

    c = len(candidate)
    r = _effective_ref_len(c, references)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum), counts


def sentence_bleu(candidate, references) -> float:
    """BLEU for one candidate against one or more references.

    Tokens are compared as given (whitespace-split surface text upstream).
    """
    return _sentence_bleu_counted(candidate, references)[0]


def corpus_average(scores) -> BleuReport:
    """Arithmetic mean of per-sentence scores (the headline metric)."""
    scores = list(scores)
    if not scores:
        raise ScoringError("no scores to average")
    return BleuReport(per_sentence=scores, mean=math.fsum(scores) / len(scores))


def score_corpus(candidates, reference_lists) -> BleuReport:
    if len(candidates) != len(reference_lists):
        raise ScoringError(
            f"candidate/reference count mismatch: {len(candidates)} vs "
            f"{len(reference_lists)}")
    scores, counts = [], []
    for cand, refs in zip(candidates, reference_lists):
        s, c = _sentence_bleu_counted(cand, refs)
        scores.append(s)
        counts.append(c)
    report = corpus_average(scores)
    report.counts = counts
    return report


def _surface_tokens(line: str, do_undo_bpe: bool, do_detok: bool,
                    detranslit_script) -> list:
    tokens = line.split()
    if do_undo_bpe:
        tokens = undo_bpe(tokens)
    if do_detok:
        tokens = textnorm.detokenize(tokens).split()
    if detranslit_script is not None:
        tokens = [textnorm.detransliterate(t, detranslit_script) for t in tokens]
    return tokens


def score_files(cand_path, ref_path, do_undo_bpe: bool = False, do_detok: bool = False,
                detranslit_script=None, report_path=None) -> BleuReport:
    """Score two line-aligned files; optional preprocessing mirrors the
    generation pipeline so either scoring surface is reproducible."""
    cand_lines = read_lines(cand_path)
    ref_lines = read_lines(ref_path)
    if len(cand_lines) != len(ref_lines):
        raise ScoringError(
            f"line-count mismatch: {cand_path} has {len(cand_lines)}, "
            f"{ref_path} has {len(ref_lines)}")
    cands = [_surface_tokens(ln, do_undo_bpe, do_detok, detranslit_script)
             for ln in cand_lines]
    refs = [[_surface_tokens(ln, do_undo_bpe, do_detok, detranslit_script)]
            for ln in ref_lines]
    report = score_corpus(cands, refs)
    if report_path is not None:
        lines = [f"{i}\t{s:.6f}" for i, s in enumerate(report.per_sentence)]
        lines.append(report.summary_line())
        write_lines(report_path, lines)
    return report
