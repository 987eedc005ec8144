"""Seeded synthetic Kannada->Malayalam inputs for the benchmark.

Every generator takes the workload seed and draws from its own
``numpy.random.Generator``; none touches ``dmt``'s RNG, so a change to the
program cannot change what it is fed. The program only ever sees the
files and lists made here.

Line lengths come from a fixed multiset that the seed only shuffles, so
the amount of work is nearly the same for every seed while the words,
their Zipfian ranks, punctuation, digits, nukta and joiners vary.
"""

from __future__ import annotations

import hashlib

import numpy as np

KN, ML = 0x0C80, 0x0D00
# consonant offsets assigned in both the Kannada and the Malayalam block
_CONSONANTS = [o for o in range(0x15, 0x3A) if o not in (0x29, 0x34)]
_VOWEL_SIGNS = [0x3E, 0x3F, 0x40, 0x41, 0x42, 0x46, 0x47, 0x48, 0x4A, 0x4B, 0x4C]
_VOWELS = [0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0E, 0x0F, 0x10, 0x12, 0x13, 0x14]
_VIRAMA, _NUKTA = 0x4D, 0x3C
_NUKTA_BASES = [0x1C, 0x2B]          # ja, pha take a nukta in Kannada loanwords
ZWJ, ZWNJ = "\u200d", "\u200c"
_END_PUNCT = [".", "?", "!", "।"]  # danda included


def _word(rng, base: int, nukta: bool) -> str:
    out = []
    if rng.random() < 0.15:
        out.append(chr(base + int(rng.choice(_VOWELS))))
    for _ in range(int(rng.integers(1, 4))):
        cons = int(rng.choice(_CONSONANTS))
        if nukta and rng.random() < 0.04:
            cons = int(rng.choice(_NUKTA_BASES))
            out.append(chr(base + cons) + chr(base + _NUKTA))
        else:
            out.append(chr(base + cons))
        r = rng.random()
        if r < 0.6:
            out.append(chr(base + int(rng.choice(_VOWEL_SIGNS))))
        elif r < 0.7:
            out.append(chr(base + _VIRAMA))
            if rng.random() < 0.3:
                out.append(ZWNJ if rng.random() < 0.5 else ZWJ)
            out.append(chr(base + int(rng.choice(_CONSONANTS))))
    return "".join(out)


def _number(rng) -> str:
    if rng.random() < 0.3:
        return f"{int(rng.integers(1, 100))}.{int(rng.integers(0, 10))}"
    return str(int(rng.integers(1, 3000)))


def lengths(n: int, lo: int, hi: int, rng) -> np.ndarray:
    """n line lengths cycling through lo..hi, in seeded order."""
    return rng.permutation(lo + np.arange(n) % (hi - lo + 1))


class Lexicon:
    """A Zipfian Kannada lexicon with a fixed Malayalam rendering per word."""

    def __init__(self, rng, size: int):
        seen, src, tgt = set(), [], []
        while len(src) < size:
            w = _word(rng, KN, nukta=True)
            if w in seen:
                continue
            seen.add(w)
            src.append(w)
            # the target word: a different syllable string in Malayalam,
            # so the pair is a real (if arbitrary) translation task
            tgt.append(_word(rng, ML, nukta=False))
        self.src, self.tgt = src, tgt
        p = 1.0 / np.arange(1, size + 1)
        self.p = p / p.sum()

    def frequent_pair(self, rng, n_words: int, top: int = 60):
        """A line pair of n_words drawn evenly from the top-ranked words,
        which are frequent enough to be single subwords, so the pair's
        length in subwords is fixed."""
        idx = rng.integers(0, top, size=n_words)
        return (" ".join(self.src[i] for i in idx) + ".",
                " ".join(self.tgt[i] for i in idx) + ".")

    def pair(self, rng, n_words: int):
        """One (Kannada, Malayalam) line pair of n_words words."""
        idx = rng.choice(len(self.src), size=n_words, p=self.p)
        s_words, t_words = [], []
        for k, i in enumerate(idx):
            if rng.random() < 0.05:
                num = _number(rng)
                s_words.append(num)
                t_words.append(num)
                continue
            s, t = self.src[i], self.tgt[i]
            if k < n_words - 1 and rng.random() < 0.08:
                s, t = s + ",", t + ","
            s_words.append(s)
            t_words.append(t)
        end = str(rng.choice(_END_PUNCT))
        return " ".join(s_words) + end, " ".join(t_words) + end


def lexicon(seed: int, size: int = 3000) -> Lexicon:
    return Lexicon(np.random.default_rng([seed, _label_key("lexicon")]), size)


def parallel(seed: int, label: str, lex: Lexicon, n: int, lo: int, hi: int):
    """n seeded line pairs of lo..hi words from lex; the label keeps the
    streams of different corpora of one seed apart."""
    rng = np.random.default_rng([seed, _label_key(label)])
    return [lex.pair(rng, int(k)) for k in lengths(n, lo, hi, rng)]


# the back-translation recipe: a learnable word cipher over a small
# Kannada syllable alphabet; each word's target is its Malayalam
# rendering doubled, as in the desk back-translation experiment
_CIPHER_SYLLABLES = [chr(KN + c) + chr(KN + v) for c, v in
                     zip(_CONSONANTS[:30], (_VOWEL_SIGNS * 3)[:30])]


def _cipher(word: str) -> str:
    ml = "".join(chr(ord(ch) - KN + ML) for ch in word)
    return ml + ml


def cipher_parallel(seed: int, label: str, n: int, lo: int, hi: int):
    rng = np.random.default_rng([seed, _label_key(label)])
    out = []
    for k in lengths(n, lo, hi, rng):
        words = [_CIPHER_SYLLABLES[int(i)]
                 for i in rng.integers(0, len(_CIPHER_SYLLABLES), size=int(k))]
        out.append((" ".join(words), " ".join(_cipher(w) for w in words)))
    return out


def perturb(rng, words: list) -> list:
    """A BLEU candidate: the reference with some words dropped or swapped."""
    out = [w for w in words if rng.random() >= 0.1] or list(words[:1])
    for _ in range(int(rng.integers(0, 3))):
        i, j = rng.integers(0, len(out), size=2)
        out[i], out[j] = out[j], out[i]
    return out


def _label_key(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8],
                          "little")


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(ln + "\n" for ln in lines))
