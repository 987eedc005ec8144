"""Byte-pair encoding: merge learning, application with "@@" continuation
markers, vocabulary construction, and id encoding/decoding.

Learning follows the classic iterative procedure: each word is a character
sequence whose final character carries an end-of-word sentinel; the most
frequent adjacent symbol pair (weighted by word frequency) is merged until
the budget is spent or no pair occurs at least twice. Ties break to the
lexicographically smallest (left, right).
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .corpus import read_lines, write_lines
from .errors import VocabError

__all__ = [
    "BpeModel", "Vocabulary", "PAD_ID", "UNK_ID", "BOS_ID", "EOS_ID",
    "learn_bpe", "apply_bpe", "undo_bpe", "build_vocab",
]

EOW = "</w>"
MARKER = "@@"

PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<unk>", "<s>", "</s>")

_MODEL_HEADER = "dmt-bpe v1"


@dataclass
class BpeModel:
    merges: list
    version: str = _MODEL_HEADER

    def __post_init__(self):
        if len(set(self.merges)) != len(self.merges):
            raise VocabError("duplicate merge pair in model")
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._cache = {}

    def save(self, path):
        write_lines(path, [self.version] + [f"{a} {b}" for a, b in self.merges])

    @classmethod
    def load(cls, path) -> "BpeModel":
        lines = read_lines(path)
        if not lines or not lines[0].startswith("dmt-bpe"):
            raise VocabError(f"{path} is not a merge file (missing header)")
        merges = []
        for ln in lines[1:]:
            parts = ln.split()  # any whitespace, so a CRLF file loads the same
            if not parts:
                continue
            if len(parts) != 2:
                raise VocabError(f"malformed merge line {ln!r}")
            merges.append((parts[0], parts[1]))
        return cls(merges, version=lines[0].rstrip())

    def fingerprint(self) -> str:
        payload = "\n".join(f"{a} {b}" for a, b in self.merges)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _word_symbols(token: str):
    """A token as its learning-time symbol tuple: last char carries EOW."""
    return tuple(token[:-1]) + (token[-1] + EOW,)


def _pair_stats(vocab):
    """Pair frequencies plus an index of which words contain each pair."""
    stats = Counter()
    where = defaultdict(lambda: defaultdict(int))
    for wi, (word, freq) in enumerate(vocab):
        for a, b in zip(word, word[1:]):
            stats[(a, b)] += freq
            where[(a, b)][wi] += 1
    return stats, where


def _merge_word(word, pair):
    a, b = pair
    out = []
    i = 0
    while i < len(word):
        if i < len(word) - 1 and word[i] == a and word[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(word[i])
            i += 1
    return tuple(out)


def learn_bpe(corpus, num_merges: int) -> BpeModel:
    """Learn up to num_merges merge rules from a tokenized corpus.

    Stops early when no adjacent pair occurs at least twice. Deterministic:
    the same corpus and budget always produce the same merge list.
    """
    if num_merges < 0:
        raise VocabError(f"num_merges must be >= 0, got {num_merges}")
    word_freq = Counter()
    for sentence in corpus:
        word_freq.update(sentence)
    vocab = [(_word_symbols(w), f) for w, f in sorted(word_freq.items())]

    merges = []
    stats, where = _pair_stats(vocab)
    for _ in range(num_merges):
        if not stats:
            break
        best = min(stats.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if stats[best] < 2:
            break
        merges.append(best)
        # update only the words that contain the merged pair
        for wi in list(where[best]):
            word, freq = vocab[wi]
            new_word = _merge_word(word, best)
            for a, b in zip(word, word[1:]):
                stats[(a, b)] -= freq
                where[(a, b)][wi] -= 1
                if where[(a, b)][wi] <= 0:
                    del where[(a, b)][wi]
                if stats[(a, b)] <= 0:
                    del stats[(a, b)]
            for a, b in zip(new_word, new_word[1:]):
                stats[(a, b)] += freq
                where[(a, b)][wi] += 1
            vocab[wi] = (new_word, freq)
    return BpeModel(merges)


def _segment(model: BpeModel, token: str):
    cached = model._cache.get(token)
    if cached is not None:
        return cached
    word = list(_word_symbols(token))
    ranks = model._ranks
    while len(word) > 1:
        best_rank = None
        best_pair = None
        for a, b in zip(word, word[1:]):
            r = ranks.get((a, b))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, (a, b)
        if best_pair is None:
            break
        word = list(_merge_word(tuple(word), best_pair))
    # strip the sentinel, mark non-final pieces
    word[-1] = word[-1][:-len(EOW)]
    pieces = tuple(w + MARKER for w in word[:-1]) + (word[-1],)
    model._cache[token] = pieces
    return pieces


def apply_bpe(model: BpeModel, sentence):
    """Split each token into learned subword pieces.

    Non-final pieces of a split token carry the "@@" continuation marker;
    unsplit tokens come through as themselves.
    """
    out = []
    for token in sentence:
        out.extend(_segment(model, token))
    return out


def undo_bpe(subwords):
    """Rejoin "@@"-continued pieces into surface tokens.

    A dangling marker on the final piece is stripped and counted; use
    undo_bpe_counted when the count matters.
    """
    return undo_bpe_counted(subwords)[0]


def undo_bpe_counted(subwords):
    tokens = []
    buf = ""
    dangling = 0
    for piece in subwords:
        if piece.endswith(MARKER):
            buf += piece[:-len(MARKER)]
        else:
            tokens.append(buf + piece)
            buf = ""
    if buf:
        tokens.append(buf)
        dangling = 1
    return tokens, dangling


@dataclass
class Vocabulary:
    """Token-to-id bijection with pinned special ids 0..3."""
    id_of: dict
    token_of: list
    counts: dict = field(default_factory=dict)

    @classmethod
    def from_counts(cls, counts: Counter, min_count: int = 1,
                    max_size: int = None) -> "Vocabulary":
        if max_size is not None and max_size < 0:
            raise VocabError(f"max_size must be >= 0, got {max_size}")
        ranked = sorted((t for t, c in counts.items() if c >= min_count),
                        key=lambda t: (-counts[t], t))
        if max_size is not None:
            ranked = ranked[:max_size]
        token_of = list(SPECIAL_TOKENS) + ranked
        id_of = {t: i for i, t in enumerate(token_of)}
        if len(id_of) != len(token_of):
            raise VocabError("corpus token collides with a special token")
        return cls(id_of, token_of, {t: counts[t] for t in ranked})

    def __len__(self):
        return len(self.token_of)

    def __contains__(self, token):
        return token in self.id_of

    def encode(self, subwords) -> list:
        """Map subwords to ids (unknowns to UNK) and append EOS."""
        return [self.id_of.get(s, UNK_ID) for s in subwords] + [EOS_ID]

    def decode(self, ids) -> list:
        """Inverse map; PAD/BOS/EOS dropped, UNK rendered as <unk>."""
        out = []
        for i in ids:
            i = int(i)
            if i < 0 or i >= len(self.token_of):
                raise VocabError(f"id {i} out of range [0, {len(self.token_of)})")
            if i in (PAD_ID, BOS_ID, EOS_ID):
                continue
            out.append(self.token_of[i])
        return out

    def save(self, path):
        lines = [f"{t}\t{self.counts.get(t, 0)}"
                 for t in self.token_of[len(SPECIAL_TOKENS):]]
        write_lines(path, lines)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        token_of = list(SPECIAL_TOKENS)
        counts = {}
        for ln in read_lines(path):
            if not ln:
                continue
            try:
                token, count = ln.split("\t")
                counts[token] = int(count)
            except ValueError:
                raise VocabError(f"malformed vocab line {ln!r}")
            token_of.append(token)
        id_of = {t: i for i, t in enumerate(token_of)}
        if len(id_of) != len(token_of):
            raise VocabError(f"duplicate token in {path}")
        return cls(id_of, token_of, counts)

    def fingerprint(self) -> str:
        payload = "\n".join(self.token_of)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def build_vocab(corpus, min_count: int = 1, max_size: int = None) -> Vocabulary:
    """Vocabulary over a BPE-applied corpus: frequency-ranked, ties broken
    lexicographically, ids starting at 4 after the specials."""
    counts = Counter()
    for sentence in corpus:
        counts.update(sentence)
    return Vocabulary.from_counts(counts, min_count=min_count, max_size=max_size)
