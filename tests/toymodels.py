"""Duck-typed toy models for decoding tests: logits come from a plain
function of (source ids, generated prefix), so search behavior can be
checked against exhaustive enumeration."""

import numpy as np

from dmt.autodiff import Tensor, RngState, fan_seed
from dmt.subword import EOS_ID, PAD_ID, build_vocab


def small_vocab(n_words):
    return build_vocab([[f"t{i}" for i in range(n_words) for _ in range(2)]])


class TableMemory:
    def __init__(self, src_rows):
        self.src_rows = src_rows

    def select(self, rows):
        return TableMemory([self.src_rows[r] for r in rows])


class TableModel:
    """Model protocol implementation backed by a logits function."""

    arch = "table"

    def __init__(self, logits_fn, src_vocab, tgt_vocab):
        self.logits_fn = logits_fn
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab

    def encode(self, src_ids, src_pad_mask=None, training=False, rng=None):
        src = np.asarray(src_ids)
        rows = [tuple(int(x) for x in row if x != PAD_ID) for row in src]
        return TableMemory(rows)

    def decode_step(self, memory, prefix, training=False, rng=None):
        prefix = np.asarray(prefix)
        b, t = prefix.shape
        v = len(self.tgt_vocab)
        out = np.zeros((b, t, v))
        for i, src in enumerate(memory.src_rows):
            gen = tuple(int(x) for x in prefix[i, 1:])
            for j in range(t):
                out[i, j] = self.logits_fn(src, gen[:j])
        return Tensor(out)

    def vocab_fingerprints(self):
        return self.src_vocab.fingerprint(), self.tgt_vocab.fingerprint()


def random_table_model(seed, vocab_size, src_vocab=None):
    """Logits are a deterministic hash of (source, prefix): a frozen random
    model over sequences, enumerable for oracle comparisons."""
    vocab = small_vocab(vocab_size - 4)
    src_vocab = src_vocab or vocab

    def fn(src, gen):
        key = fan_seed(seed, f"{src}|{gen}")
        return RngState(key).uniform((len(vocab),), -3.0, 3.0)

    return TableModel(fn, src_vocab, vocab)


def cipher_table_model(mapping, src_vocab, tgt_vocab):
    """Deterministically translates each source id through `mapping`,
    then emits EOS: an exact substitution-cipher translator."""
    v = len(tgt_vocab)

    def fn(src, gen):
        t = len(gen)
        want = [mapping[s] for s in src if s in mapping]  # EOS etc. skipped
        nxt = want[t] if t < len(want) else EOS_ID
        row = np.full(v, -10.0)
        row[nxt] = 10.0
        return row

    return TableModel(fn, src_vocab, tgt_vocab)
