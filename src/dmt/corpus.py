"""Parallel and monolingual corpus loading, splitting, and statistics.

One sentence per line, UTF-8, LF line endings; a trailing newline at EOF
is optional. Lines are stored verbatim so that writing a corpus back
reproduces the input files byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .autodiff import RngState, fan_seed
from .errors import CorpusError
from .textnorm import LANG_SCRIPT

__all__ = [
    "LanguageTag", "SentencePair", "ParallelCorpus", "MonolingualCorpus",
    "CorpusStats", "load_parallel", "load_monolingual",
    "save_parallel", "read_lines", "write_lines", "split", "stats",
]

_ALIASES = {"sa": "sn"}


@dataclass(frozen=True)
class LanguageTag:
    """A language code with a script in textnorm.LANG_SCRIPT, after the
    alias sa -> sn."""
    code: str

    def __post_init__(self):
        code = _ALIASES.get(self.code, self.code)
        if code not in LANG_SCRIPT:
            raise CorpusError(
                f"unknown language tag {self.code!r}; known: {sorted(LANG_SCRIPT)}")
        object.__setattr__(self, "code", code)

    def __str__(self):
        return self.code


@dataclass(frozen=True)
class SentencePair:
    source: str
    target: str
    synthetic: bool = False

    def __post_init__(self):
        for side in (self.source, self.target):
            if "\n" in side:
                raise CorpusError("sentence contains an embedded newline")
            if not side.strip():
                raise CorpusError("sentence is empty after trimming")


@dataclass
class ParallelCorpus:
    pairs: list
    src_lang: LanguageTag
    tgt_lang: LanguageTag
    n_rejected: int = 0

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]

    def swapped(self) -> "ParallelCorpus":
        """Reverse translation direction (for reverse-model training)."""
        return ParallelCorpus(
            [SentencePair(p.target, p.source, p.synthetic) for p in self.pairs],
            self.tgt_lang, self.src_lang)


@dataclass
class MonolingualCorpus:
    sentences: list
    lang: LanguageTag

    def __len__(self):
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)


@dataclass
class CorpusStats:
    n_pairs: int
    n_tokens_src: int
    n_tokens_tgt: int
    mean_len_src: float
    mean_len_tgt: float

    def as_tsv(self) -> str:
        rows = [("n_pairs", self.n_pairs),
                ("n_tokens_src", self.n_tokens_src),
                ("n_tokens_tgt", self.n_tokens_tgt),
                ("mean_len_src", f"{self.mean_len_src:.4f}"),
                ("mean_len_tgt", f"{self.mean_len_tgt:.4f}")]
        return "\n".join(f"{k}\t{v}" for k, v in rows)


def read_lines(path) -> list:
    """The lines of a UTF-8 text file, split on LF only (other Unicode
    line breaks such as \\f or U+2028 stay inside their line). `path`
    may also be an open file such as sys.stdin, read as bytes where it
    has a binary buffer."""
    try:
        if hasattr(path, "read"):
            data = getattr(path, "buffer", path).read()
        else:
            data = Path(path).read_bytes()
        text = data if isinstance(data, str) else data.decode("utf-8")
    except FileNotFoundError:
        raise CorpusError(f"no such file: {path}")
    except OSError as e:
        raise CorpusError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise CorpusError(f"{getattr(path, 'name', path)} is not valid UTF-8: {e}")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def write_lines(path, lines):
    """Write `lines` as a UTF-8 file, each ended by LF: the inverse of
    read_lines."""
    Path(path).write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")


def load_parallel(src_path, tgt_path, src_lang: LanguageTag,
                  tgt_lang: LanguageTag) -> ParallelCorpus:
    """Zip two line-aligned files into sentence pairs.

    Lines blank on both sides are dropped silently; a line blank on one
    side only rejects the pair and counts it in n_rejected.
    """
    src_lines = read_lines(src_path)
    tgt_lines = read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusError(
            f"sides are misaligned (line-count mismatch): {src_path} has "
            f"{len(src_lines)} lines, {tgt_path} has {len(tgt_lines)}")
    pairs = []
    rejected = 0
    for s, t in zip(src_lines, tgt_lines):
        s_empty, t_empty = not s.strip(), not t.strip()
        if s_empty and t_empty:
            continue
        if s_empty or t_empty:
            rejected += 1
            continue
        pairs.append(SentencePair(s, t))
    return ParallelCorpus(pairs, src_lang, tgt_lang, n_rejected=rejected)


def load_monolingual(path, lang: LanguageTag) -> MonolingualCorpus:
    lines = [ln for ln in read_lines(path) if ln.strip()]
    return MonolingualCorpus(lines, lang)


def save_parallel(corpus: ParallelCorpus, src_path, tgt_path):
    write_lines(src_path, [p.source for p in corpus.pairs])
    write_lines(tgt_path, [p.target for p in corpus.pairs])


def split(corpus: ParallelCorpus, train_n: int, dev_n: int, test_n: int,
          seed: int, shuffle: bool = True):
    """Deterministic shuffle then contiguous partition into three corpora.

    shuffle=False takes the partition from the corpus in file order.
    """
    if min(train_n, dev_n, test_n) < 0:
        raise CorpusError(f"negative split size in {train_n}/{dev_n}/{test_n}")
    total = train_n + dev_n + test_n
    if total > len(corpus):
        raise CorpusError(
            f"split sizes {train_n}+{dev_n}+{test_n} exceed corpus length {len(corpus)}")
    if shuffle:
        order = RngState(fan_seed(seed, "corpus-split")).permutation(len(corpus))
        pairs = [corpus.pairs[i] for i in order]
    else:
        pairs = list(corpus.pairs)

    def part(lo, hi):
        return ParallelCorpus(pairs[lo:hi], corpus.src_lang, corpus.tgt_lang)

    return (part(0, train_n),
            part(train_n, train_n + dev_n),
            part(train_n + dev_n, total))


def stats(corpus: ParallelCorpus) -> CorpusStats:
    n = len(corpus)
    n_src = sum(len(p.source.split()) for p in corpus.pairs)
    n_tgt = sum(len(p.target.split()) for p in corpus.pairs)
    return CorpusStats(
        n_pairs=n,
        n_tokens_src=n_src,
        n_tokens_tgt=n_tgt,
        mean_len_src=n_src / n if n else 0.0,
        mean_len_tgt=n_tgt / n if n else 0.0,
    )
