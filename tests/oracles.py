"""Independent reference implementations used as test oracles.

Nothing here calls back into the code paths under test: gradients come
from central finite differences, BLEU from direct n-gram enumeration,
search optima from exhaustive enumeration of candidate sequences, the
fused LSTM's reference is the per-step cell built from elementary ops, the
fused multi-head attention's reference is the per-head loop, and the im2col
convolution's reference is the per-tap loop over a zero-padded input. The
incremental decoders' reference, RecomputeDecoder, carries no decoder
state at all: every step re-runs the teacher-forced ``decode_step`` over
the whole prefix.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

import dmt.autodiff as ad
from dmt.autodiff import Tensor


# ---------------------------------------------------------------------------
# gradients: central finite differences


def fd_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """d f / d x by central differences, one entry at a time.

    f is a closure evaluating the scalar loss from the CURRENT contents
    of x (mutated in place here and restored afterwards).
    """
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def fd_grad_sampled(f, x: np.ndarray, idx: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Finite differences at a subset of flat indices (for big tensors)."""
    flat = x.reshape(-1)
    out = np.zeros(len(idx))
    for j, i in enumerate(idx):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        out[j] = (fp - fm) / (2.0 * h)
    return out


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray,
                abs_floor: float = 1e-7) -> float:
    """Relative error with an absolute floor near zero."""
    analytic = np.asarray(analytic, dtype=float).reshape(-1)
    numeric = np.asarray(numeric, dtype=float).reshape(-1)
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    rel = diff / scale
    rel[diff < abs_floor] = 0.0
    return float(rel.max()) if rel.size else 0.0


# ---------------------------------------------------------------------------
# recurrence: the LSTM as one cell per step of elementary ops


def lstm_reference(x, w_ih, w_hh, b, h0=None, c0=None):
    """(hs, cs) of ad.lstm, composed step by step from slice_axis, matmul,
    sigmoid, tanh, mul, add and concat, so its gradient comes from their
    VJPs rather than from a closed-form backprop through time."""
    bsz, t_len, _ = x.shape
    hd = w_hh.shape[0]
    h = Tensor(np.zeros((bsz, hd))) if h0 is None else h0
    c = Tensor(np.zeros((bsz, hd))) if c0 is None else c0
    hs, cs = [], []
    for t in range(t_len):
        x_t = ad.reshape(ad.slice_axis(x, 1, t, t + 1), (bsz, -1))
        gates = ad.add(ad.add(ad.matmul(x_t, w_ih), ad.matmul(h, w_hh)), b)
        i = ad.sigmoid(ad.slice_axis(gates, 1, 0, hd))
        f = ad.sigmoid(ad.slice_axis(gates, 1, hd, 2 * hd))
        g = ad.tanh(ad.slice_axis(gates, 1, 2 * hd, 3 * hd))
        o = ad.sigmoid(ad.slice_axis(gates, 1, 3 * hd, 4 * hd))
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, ad.tanh(c))
        hs.append(ad.reshape(h, (bsz, 1, hd)))
        cs.append(ad.reshape(c, (bsz, 1, hd)))
    return ad.concat(hs, axis=1), ad.concat(cs, axis=1)


# ---------------------------------------------------------------------------
# attention: one head at a time from elementary ops


def attention_reference(q, k, v, bias, head_dims, scale):
    """ad.attention composed head by head from slice_axis, mul, matmul,
    transpose, add, softmax and concat, so its gradient comes from their
    VJPs rather than from the fused closed form."""
    scales = np.broadcast_to(np.asarray(scale, dtype=np.float64), (len(head_dims),))
    outs = []
    off = 0
    for dh, sh in zip(head_dims, scales):
        qs = ad.mul(ad.slice_axis(q, 2, off, off + dh), float(sh))
        ks = ad.slice_axis(k, 2, off, off + dh)
        vs = ad.slice_axis(v, 2, off, off + dh)
        scores = ad.matmul(qs, ad.transpose(ks, (0, 2, 1)))
        if bias is not None:
            scores = ad.add(scores, bias)
        outs.append(ad.matmul(ad.softmax(scores, axis=-1), vs))
        off += dh
    return ad.concat(outs, axis=2)


# ---------------------------------------------------------------------------
# convolution: one product per kernel tap over a zero-padded input


def conv1d_reference(x, kernel, pad_mode):
    """ad.conv1d as the sum over taps j of the padded input's window
    starting at j times kernel[j], composed from concat (the zero padding),
    slice_axis, reshape, matmul and add, so its gradient comes from their
    VJPs rather than from the im2col closed form. Takes only shapes the op
    accepts."""
    k, cin, cout = kernel.shape
    left, right = {"same": (k // 2, k // 2), "causal": (k - 1, 0), "valid": (0, 0)}[pad_mode]
    bsz = x.shape[0]
    xp = ad.concat([Tensor(np.zeros((bsz, left, cin))), x,
                    Tensor(np.zeros((bsz, right, cin)))], axis=1)
    t = xp.shape[1] - k + 1
    out = Tensor(np.zeros((bsz, t, cout)))
    for j in range(k):
        tap = ad.reshape(ad.slice_axis(kernel, 0, j, j + 1), (cin, cout))
        out = ad.add(out, ad.matmul(ad.slice_axis(xp, 1, j, j + t), tap))
    return out


# ---------------------------------------------------------------------------
# BLEU: direct n-gram enumeration


def _ngram_counts(tokens, n):
    counts = Counter()
    for i in range(len(tokens) - n + 1):
        counts[tuple(tokens[i:i + n])] += 1
    return counts


def bleu_oracle(candidate, references, max_n: int = 4) -> float:
    """Sentence BLEU: uniform 1/max_n weights, closest-ref brevity penalty,
    score 0 if any clipped n-gram precision is zero."""
    c = len(candidate)
    if c == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand_counts = _ngram_counts(candidate, n)
        total = max(0, c - n + 1)
        if total == 0:
            return 0.0
        clipped = 0
        for gram, cnt in cand_counts.items():
            best = 0
            for ref in references:
                best = max(best, _ngram_counts(ref, n)[gram])
            clipped += min(cnt, best)
        if clipped == 0:
            return 0.0
        log_sum += (1.0 / max_n) * math.log(clipped / total)
    # effective reference length: closest to c, ties to the shorter
    r = min((len(ref) for ref in references),
            key=lambda rl: (abs(rl - c), rl))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum)


def clipped_matches_oracle(candidate, references, n: int):
    """(clipped match count, total candidate n-grams) for one order n."""
    cand_counts = _ngram_counts(candidate, n)
    total = max(0, len(candidate) - n + 1)
    clipped = 0
    for gram, cnt in cand_counts.items():
        best = max((_ngram_counts(ref, n)[gram] for ref in references), default=0)
        clipped += min(cnt, best)
    return clipped, total


# ---------------------------------------------------------------------------
# decoding: exhaustive search over all candidate sequences


def exhaustive_best(step_logprobs, vocab_size: int, eos_id: int, max_len: int,
                    alpha: float = 1.0):
    """Enumerate every decodable sequence and return the best hypothesis.

    step_logprobs(prefix_ids) -> np.ndarray[V] of next-token log-probs for
    the generated prefix so far (no BOS). Candidate space: sequences that
    end at their first EOS, plus EOS-free sequences cut at max_len. Ties:
    higher raw logprob, then shorter, then lexicographically smaller ids.
    """
    best = None

    def key(ids, lp):
        return (lp / max(len(ids), 1) ** alpha, lp, -len(ids), [-i for i in ids])

    def walk(prefix, lp):
        nonlocal best
        logp = step_logprobs(prefix)
        for v in range(vocab_size):
            if not math.isfinite(logp[v]):
                continue  # barred token (PAD/BOS)
            ids = prefix + [v]
            total = lp + float(logp[v])
            if v == eos_id or len(ids) == max_len:
                if best is None or key(ids, total) > key(*best):
                    best = (ids, total)
            else:
                walk(ids, total)

    walk([], 0.0)
    return best


# ---------------------------------------------------------------------------
# decoding: the whole prefix again at every step


@dataclass(frozen=True)
class PrefixState:
    memory: object                # encoder memory, one row per hypothesis
    prefix: np.ndarray = None     # [B, t] ids fed so far

    def select(self, rows) -> "PrefixState":
        rows = np.asarray(rows, dtype=np.int64)
        return PrefixState(self.memory.select(rows), self.prefix[rows])


class RecomputeDecoder:
    """The incremental contract over a model's ``encode``/``decode_step``
    alone: the state is the encoder memory and the prefix of each row, and
    every step re-runs ``decode_step`` over the whole prefix, so a step
    costs time linear in its position."""

    def __init__(self, model):
        self.model = model

    def encode(self, src_ids, src_pad_mask=None):
        return self.model.encode(src_ids, src_pad_mask)

    def init_state(self, memory) -> PrefixState:
        return PrefixState(memory)

    def step(self, state: PrefixState, last_ids):
        last = np.asarray(last_ids, dtype=np.int64)[:, None]
        prefix = last if state.prefix is None else np.concatenate(
            [state.prefix, last], axis=1)
        logits = self.model.decode_step(state.memory, prefix).data[:, -1, :]
        return logits, PrefixState(state.memory, prefix)
