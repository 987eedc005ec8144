"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records a node on a global tape while gradients are
enabled; ``backward(loss)`` walks the tape in reverse execution order
(a valid reverse topological order), accumulates gradients with ``+=``
into every tensor that requires them, and consumes the tape.

Masked attention positions are represented by additive -inf before
softmax, so -inf values are legitimate in pre-softmax scores; a fully
masked softmax row comes out all-zero and is counted by ``fault_count``.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

import numpy as np

from .errors import ShapeError

__all__ = [
    "Tensor", "RngState", "fan_seed", "no_grad", "backward", "zero_grad",
    "add", "sub", "mul", "matmul", "reduce_sum", "reduce_mean",
    "softmax", "log_softmax", "sigmoid", "tanh", "relu", "layer_norm",
    "embedding", "conv1d", "glu", "dropout", "concat", "slice_axis",
    "transpose", "reshape", "gather_last", "select_time", "gather_time",
    "attention", "lstm", "fault_count", "reset_faults", "tape_size",
]

NEG_INF = float("-inf")

# ---------------------------------------------------------------------------
# deterministic counter-based RNG


_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def fan_seed(seed: int, label: str) -> int:
    """Derive a stream seed from a master seed and a stage label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return (int(seed) ^ int.from_bytes(digest[:8], "little")) & 0x7FFFFFFFFFFFFFFF

class RngState:
    """Counter-based random stream: a 64-bit seed plus a position.

    The i-th draw is a pure function of (seed, i), so the same seed and
    call sequence always reproduce the same values, on any platform.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.position = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.position, self.position + n, dtype=np.uint64)
        self.position += int(n)
        with np.errstate(over="ignore"):
            return _mix64((np.uint64(self.seed) + (idx + np.uint64(1)) * _GOLDEN) & _M64)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        out = low + (high - low) * u
        return out.reshape(shape) if shape else out[0]

    def normal(self, shape=(), std: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        # Box-Muller; u1 in (0, 1] so log never sees zero
        u1 = (self._raw(m).astype(np.float64) + 1.0) * (2.0 ** -64)
        u2 = (self._raw(m) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])[:n]
        out = std * z
        return out.reshape(shape) if shape else out[0]

    def permutation(self, n: int) -> np.ndarray:
        keys = self.uniform((n,)) if n else np.zeros(0)
        return np.argsort(keys, kind="stable")

    def shuffle(self, items: list) -> list:
        return [items[i] for i in self.permutation(len(items))]


# ---------------------------------------------------------------------------
# tensor and tape


class Tensor:
    """Row-major float64 array with optional gradient accumulation."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("inputs", "output", "vjp")

    def __init__(self, inputs, output, vjp):
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


_TAPE: list = []
_GRAD_ENABLED = True
_FAULTS = 0


def tape_size() -> int:
    return len(_TAPE)


def fault_count() -> int:
    return _FAULTS


def reset_faults():
    global _FAULTS
    _FAULTS = 0


@contextmanager
def no_grad():
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, inputs, vjp) -> Tensor:
    """Wrap an op result; record it on the tape when gradients flow."""
    track = _GRAD_ENABLED and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=track)
    if track:
        _TAPE.append(_Node(inputs, out, vjp))
    return out


def backward(loss: Tensor):
    """Accumulate d(loss)/d(t) into t.grad for every tensor requiring grad.

    The tape is consumed: a second backward needs a fresh forward pass.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    try:
        for node in reversed(_TAPE):
            g = node.output.grad
            if g is None:
                continue
            for t, gi in zip(node.inputs, node.vjp(g)):
                if gi is None or not t.requires_grad:
                    continue
                if t.grad is None:
                    # copy: vjp results may alias buffers shared with
                    # sibling gradients (e.g. concat's split views)
                    t.grad = np.array(gi)
                else:
                    t.grad += gi
    finally:
        _TAPE.clear()


def zero_grad(params):
    values = params.values() if isinstance(params, dict) else params
    for p in values:
        p.grad = None


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")

    def vjp(g):
        return _unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)

    return _make(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape),
                _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), vjp)


def matmul(a, b) -> Tensor:
    """Batched matrix product over the last two axes.

    The common projection case (stacked activations times a 2-D weight)
    runs as a single flattened GEMM in both directions; everything else
    takes the generic batched path.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    if b.ndim == 2 and a.ndim > 2:
        k, n = b.shape
        data = (a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (n,))

        def vjp(g):
            g2 = g.reshape(-1, n)
            ga = (g2 @ b.data.T).reshape(a.shape)
            gb = a.data.reshape(-1, k).T @ g2
            return ga, gb

        return _make(data, (a, b), vjp)

    data = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.ascontiguousarray(np.swapaxes(b.data, -1, -2)))
        gb = np.matmul(np.ascontiguousarray(np.swapaxes(a.data, -1, -2)), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make(data, (a, b), vjp)


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _make(data, (x,), vjp)


def reduce_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    n = x.size if axis is None else x.shape[axis]
    return mul(reduce_sum(x, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid(d: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated so that exp never overflows."""
    e = np.exp(-np.abs(d))
    den = 1.0 + e
    return np.where(d >= 0, 1.0 / den, e / den)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    data = _sigmoid(x.data)

    def vjp(g):
        return (g * data * (1.0 - data),)

    return _make(data, (x,), vjp)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    data = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - data * data),)

    return _make(data, (x,), vjp)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def vjp(g):
        return (g * (x.data > 0),)

    return _make(data, (x,), vjp)


def _guarded_max(d: np.ndarray, axis: int):
    """Row max with -inf rows replaced by 0 so exp() stays NaN-free.

    Returns (max, all_masked_row_selector); fully masked rows are counted
    as faults by the callers.
    """
    m = d.max(axis=axis, keepdims=True)
    dead = ~np.isfinite(m) & (m < 0)
    if dead.any():
        m = np.where(dead, 0.0, m)
    return m, dead


def _softmax(d: np.ndarray, axis: int) -> np.ndarray:
    """Exponentials of d normalized along axis, max-subtracted for
    stability; a fully masked row comes out all-zero and is a fault."""
    global _FAULTS
    m, dead = _guarded_max(d, axis)
    if dead.any():
        _FAULTS += int(dead.sum())
    e = np.exp(d - m)
    s = e.sum(axis=axis, keepdims=True)
    return e / np.where(s == 0.0, 1.0, s)


def softmax(x, axis: int = -1) -> Tensor:
    """Exponentials normalized along axis, max-subtracted for stability.

    -inf inputs yield exact zeros; a fully masked row comes out all-zero
    and increments the fault counter.
    """
    x = _as_tensor(x)
    data = _softmax(x.data, axis)

    def vjp(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - inner),)

    return _make(data, (x,), vjp)


def log_softmax(x, axis: int = -1) -> Tensor:
    global _FAULTS
    x = _as_tensor(x)
    m, dead = _guarded_max(x.data, axis)
    if dead.any():
        _FAULTS += int(dead.sum())
    z = x.data - m
    e = np.exp(z)
    s = e.sum(axis=axis, keepdims=True)
    safe_s = np.where(s == 0.0, 1.0, s)
    with np.errstate(divide="ignore"):
        data = z - np.log(safe_s)
    probs = e / safe_s

    def vjp(g):
        return (g - probs * g.sum(axis=axis, keepdims=True),)

    return _make(data, (x,), vjp)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Standardize the last dimension, then scale and shift."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma/beta must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gamma.data + beta.data

    def vjp(g):
        dims = tuple(range(g.ndim - 1))
        g_gamma = (g * xhat).sum(axis=dims)
        g_beta = g.sum(axis=dims)
        gx_hat = g * gamma.data
        gx = inv / d * (d * gx_hat
                        - gx_hat.sum(axis=-1, keepdims=True)
                        - xhat * (gx_hat * xhat).sum(axis=-1, keepdims=True))
        return gx, g_gamma, g_beta

    return _make(data, (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# lookup / structural ops


def embedding(table, ids) -> Tensor:
    """Row gather: out[..., :] = table[ids[...], :]; backward scatter-adds."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding: id out of range [0, {table.shape[0]}): "
            f"min={ids.min()} max={ids.max()}")
    data = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (gt,)

    return _make(data, (table,), vjp)


def gather_last(x, ids) -> Tensor:
    """Pick one entry along the last axis per position: out[...] = x[..., ids[...]]."""
    x = _as_tensor(x)
    ids = np.asarray(ids)
    if ids.shape != x.shape[:-1]:
        raise ShapeError(f"gather_last: index shape {ids.shape} != {x.shape[:-1]}")
    idx = np.expand_dims(ids, -1)
    data = np.take_along_axis(x.data, idx, axis=-1)[..., 0]

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx, np.expand_dims(g, -1), axis=-1)
        return (gx,)

    return _make(data, (x,), vjp)


def select_time(x, idx) -> Tensor:
    """out[b] = x[b, idx[b]] for a [B, T, ...] tensor."""
    x = _as_tensor(x)
    idx = np.asarray(idx)
    rows = np.arange(x.shape[0])
    data = x.data[rows, idx]

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, idx), g)
        return (gx,)

    return _make(data, (x,), vjp)


def gather_time(x, perm) -> Tensor:
    """out[b, t] = x[b, perm[b, t]]; used for per-sentence time reversal."""
    x = _as_tensor(x)
    perm = np.asarray(perm)
    rows = np.arange(x.shape[0])[:, None]
    data = x.data[rows, perm]

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, perm), g)
        return (gx,)

    return _make(data, (x,), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def vjp(g):
        splits = np.cumsum(sizes[:-1])
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tuple(tensors), vjp)


def slice_axis(x, axis: int, start: int, stop: int) -> Tensor:
    x = _as_tensor(x)
    key = [slice(None)] * x.ndim
    key[axis] = slice(start, stop)
    key = tuple(key)
    data = x.data[key]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[key] = g
        return (gx,)

    return _make(data, (x,), vjp)


def transpose(x, axes=None) -> Tensor:
    x = _as_tensor(x)
    axes_ = tuple(axes) if axes is not None else tuple(reversed(range(x.ndim)))
    data = np.transpose(x.data, axes_)
    inverse = tuple(np.argsort(axes_))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _make(data, (x,), vjp)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    data = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.shape),)

    return _make(data, (x,), vjp)


# ---------------------------------------------------------------------------
# model-specific ops


def conv1d(x, kernel, pad_mode: str = "same") -> Tensor:
    """Temporal convolution of x[B, T, Cin] with kernel[K, Cin, Cout].

    "same" pads both sides (odd K required); "causal" pads left only, so
    output t never sees inputs beyond t; "valid" pads nothing and gives the
    T - K + 1 outputs whose window lies inside x. Runs as im2col: the K taps
    are copied side by side into one column buffer [B, T_out, K * Cin], so
    the output is one GEMM with the flattened kernel, and the kernel and
    input gradients are one GEMM each.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.ndim != 3 or kernel.ndim != 3 or kernel.shape[1] != x.shape[2]:
        raise ShapeError(f"conv1d: shapes {x.shape} x {kernel.shape}")
    k = kernel.shape[0]
    if pad_mode == "same":
        if k % 2 == 0:
            raise ShapeError("conv1d: same-padding requires odd kernel width")
        left, right = k // 2, k // 2
    elif pad_mode == "causal":
        left, right = k - 1, 0
    elif pad_mode == "valid":
        left, right = 0, 0
        if x.shape[1] < k:
            raise ShapeError(f"conv1d: {x.shape[1]} positions, kernel width {k}")
    else:
        raise ShapeError(f"conv1d: unknown pad_mode {pad_mode!r}")
    bsz, t_in, cin = x.shape
    cout = kernel.shape[2]
    t = t_in + left + right - k + 1
    # tap j of output i reads input i + j - left; outputs lo..hi-1 of tap j
    # read inside x, the rest stay zero, and a tap that misses x entirely
    # (T shorter than the padding) is dropped
    spans = [(j, max(0, left - j), min(t, t_in + left - j)) for j in range(k)]
    spans = [(j, lo, hi) for j, lo, hi in spans if lo < hi]
    cols = np.zeros((bsz, t, k, cin))
    for j, lo, hi in spans:
        cols[:, lo:hi, j] = x.data[:, lo + j - left:hi + j - left]
    cols2d = cols.reshape(bsz * t, k * cin)
    kernel2d = kernel.data.reshape(k * cin, cout)
    data = (cols2d @ kernel2d).reshape(bsz, t, cout)

    def vjp(g):
        g2d = g.reshape(bsz * t, cout)
        gk = (cols2d.T @ g2d).reshape(kernel.shape)
        gcols = (g2d @ kernel2d.T).reshape(bsz, t, k, cin)
        gx = np.zeros_like(x.data)
        for j, lo, hi in spans:
            gx[:, lo + j - left:hi + j - left] += gcols[:, lo:hi, j]
        return gx, gk

    return _make(data, (x, kernel), vjp)


def glu(x, axis: int = -1) -> Tensor:
    """Gated linear unit: first half of axis times sigmoid of second half."""
    x = _as_tensor(x)
    n = x.shape[axis]
    if n % 2 != 0:
        raise ShapeError(f"glu: axis extent {n} is odd")
    half = n // 2
    key_a = [slice(None)] * x.ndim
    key_b = [slice(None)] * x.ndim
    key_a[axis] = slice(0, half)
    key_b[axis] = slice(half, n)
    key_a, key_b = tuple(key_a), tuple(key_b)
    a = x.data[key_a]
    b = x.data[key_b]
    sig = _sigmoid(b)
    data = a * sig

    def vjp(g):
        gx = np.empty_like(x.data)
        gx[key_a] = g * sig
        gx[key_b] = g * a * sig * (1.0 - sig)
        return (gx,)

    return _make(data, (x,), vjp)


def _head_layout(head_dims, d: int):
    """(cols, valid) for splitting width d into heads zero-padded to the
    widest: cols[H, w] names the column of x each padded slot reads, and
    valid[H, w] is False at the padding; None when the heads are even."""
    if sum(head_dims) != d or min(head_dims) < 1:
        raise ShapeError(f"attention: head widths {list(head_dims)} do not split width {d}")
    if len(set(head_dims)) == 1:
        return None
    dims = np.asarray(head_dims)
    slots = np.arange(dims.max())
    valid = slots[None, :] < dims[:, None]
    cols = np.where(valid, (np.cumsum(dims) - dims)[:, None] + slots, 0)
    return cols, valid


def _split_heads(x: np.ndarray, n_heads: int, layout) -> np.ndarray:
    """[B, T, D] -> [B, H, T, w]; a view when the heads are even."""
    b, t, d = x.shape
    if layout is None:
        return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)
    cols, valid = layout
    return (x[:, :, cols] * valid).transpose(0, 2, 1, 3)


def _merge_heads(xh: np.ndarray, layout) -> np.ndarray:
    """[B, H, T, w] -> [B, T, D], dropping the padding of ragged heads."""
    b, h, t, w = xh.shape
    xt = xh.transpose(0, 2, 1, 3)
    if layout is None:
        return xt.reshape(b, t, h * w)
    return xt[:, :, layout[1]]


def attention(q, k, v, bias, head_dims, scale) -> Tensor:
    """Multi-head dot-product attention as one tape node.

    q[B, Tq, D] attends over k, v[B, Tk, D] (k may be v), split into heads
    of the given widths (summing to D); scale, one number or one per head,
    multiplies each head's queries. bias is a constant additive mask that
    broadcasts to [B, Tq, Tk] and is added to every head's scores, or None.
    Returns the heads' outputs side by side, [B, Tq, D]. Ragged heads are
    zero-padded to the widest, which adds nothing to their scores. A fully
    masked row of a head comes out all-zero and counts as one fault, as in
    softmax.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (q.ndim != 3 or k.ndim != 3 or k.shape != v.shape or q.shape[0] != k.shape[0]
            or q.shape[2] != k.shape[2]):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} "
                         f"must be [B, Tq, D], [B, Tk, D], [B, Tk, D]")
    n_heads = len(head_dims)
    layout = _head_layout(head_dims, q.shape[2])
    if np.ndim(scale):  # one per head
        scale = np.reshape(scale, (-1, 1, 1))
    qh = _split_heads(q.data, n_heads, layout) * scale
    kh = _split_heads(k.data, n_heads, layout)
    vh = _split_heads(v.data, n_heads, layout)
    scores = np.matmul(qh, kh.swapaxes(-1, -2))
    if bias is not None:
        bias = _as_tensor(bias)
        try:
            scores += np.expand_dims(bias.data, -3)
        except ValueError:
            raise ShapeError(f"attention: bias {bias.shape} does not broadcast to "
                             f"{(q.shape[0], q.shape[1], k.shape[1])}")
    p = _softmax(scores, -1)
    data = _merge_heads(np.matmul(p, vh), layout)

    def vjp(g):
        gh = _split_heads(g, n_heads, layout)
        gp = np.matmul(gh, vh.swapaxes(-1, -2))
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        return (_merge_heads(np.matmul(gs, kh) * scale, layout),
                _merge_heads(np.matmul(gs.swapaxes(-1, -2), qh), layout),
                _merge_heads(np.matmul(p.swapaxes(-1, -2), gh), layout))

    return _make(data, (q, k, v), vjp)


def lstm(x, w_ih, w_hh, b, h0=None, c0=None):
    """A whole LSTM recurrence over x[B, T, E] as one tape node.

    w_ih[E, 4H], w_hh[H, 4H] and b[4H] pack the gates in the order input,
    forget, candidate, output; h0 and c0 ([B, H]) default to zeros.
    Returns (hs, cs): the hidden and the cell state after every step, each
    [B, T, H]. One GEMM projects the inputs of all steps, so each step
    multiplies only by w_hh. Backward runs backprop through time in closed
    form: each step multiplies only by w_hh.T, and one GEMM over all steps
    each gives the gradients of w_ih, w_hh and x.

    The node's output stacks hs and cs as [2, B, T, H]; two ``_part``
    nodes hand them out, so gradient reaching only cs still flows.
    """
    x, w_ih, w_hh, b = (_as_tensor(t) for t in (x, w_ih, w_hh, b))
    if x.ndim != 3 or w_hh.ndim != 2:
        raise ShapeError(f"lstm: x {x.shape} must be [B, T, E], w_hh {w_hh.shape} [H, 4H]")
    bsz, t_len, e = x.shape
    hd = w_hh.shape[0]
    if w_ih.shape != (e, 4 * hd) or w_hh.shape != (hd, 4 * hd) or b.shape != (4 * hd,):
        raise ShapeError(f"lstm: weights {w_ih.shape}, {w_hh.shape}, {b.shape} "
                         f"do not fit input width {e} and hidden width {hd}")
    h0 = Tensor(np.zeros((bsz, hd))) if h0 is None else _as_tensor(h0)
    c0 = Tensor(np.zeros((bsz, hd))) if c0 is None else _as_tensor(c0)
    if h0.shape != (bsz, hd) or c0.shape != (bsz, hd):
        raise ShapeError(f"lstm: h0 {h0.shape} and c0 {c0.shape} must be {(bsz, hd)}")

    xw = (x.data.reshape(-1, e) @ w_ih.data).reshape(bsz, t_len, 4 * hd)
    acts = np.empty((bsz, t_len, 4 * hd))  # gate activations i, f, g, o
    hc = np.empty((2, bsz, t_len, hd))
    hs, cs = hc
    tanh_cs = np.empty((bsz, t_len, hd))
    h, c = h0.data, c0.data
    for t in range(t_len):
        z = xw[:, t] + h @ w_hh.data + b.data
        a = acts[:, t]
        a[:, :2 * hd] = _sigmoid(z[:, :2 * hd])
        a[:, 2 * hd:3 * hd] = np.tanh(z[:, 2 * hd:3 * hd])
        a[:, 3 * hd:] = _sigmoid(z[:, 3 * hd:])
        i, f, g, o = a[:, :hd], a[:, hd:2 * hd], a[:, 2 * hd:3 * hd], a[:, 3 * hd:]
        c = cs[:, t] = f * c + i * g
        tanh_cs[:, t] = np.tanh(c)
        h = hs[:, t] = o * tanh_cs[:, t]

    def vjp(g_hc):
        g_hs, g_cs = g_hc
        dz = np.empty_like(acts)
        dh = np.zeros((bsz, hd))
        dc = np.zeros((bsz, hd))
        for t in range(t_len - 1, -1, -1):
            dh = dh + g_hs[:, t]
            dc = dc + g_cs[:, t]
            a = acts[:, t]
            i, f, g, o = a[:, :hd], a[:, hd:2 * hd], a[:, 2 * hd:3 * hd], a[:, 3 * hd:]
            tc = tanh_cs[:, t]
            dc = dc + dh * o * (1.0 - tc * tc)
            c_prev = cs[:, t - 1] if t else c0.data
            dz[:, t, :hd] = dc * g * i * (1.0 - i)
            dz[:, t, hd:2 * hd] = dc * c_prev * f * (1.0 - f)
            dz[:, t, 2 * hd:3 * hd] = dc * i * (1.0 - g * g)
            dz[:, t, 3 * hd:] = dh * tc * o * (1.0 - o)
            dh = dz[:, t] @ w_hh.data.T
            dc = dc * f
        h_prev = np.concatenate([h0.data[:, None], hs], axis=1)[:, :t_len]
        dz2 = dz.reshape(-1, 4 * hd)
        return ((dz2 @ w_ih.data.T).reshape(x.shape),
                x.data.reshape(-1, e).T @ dz2,
                h_prev.reshape(-1, hd).T @ dz2,
                dz2.sum(axis=0), dh, dc)

    out = _make(hc, (x, w_ih, w_hh, b, h0, c0), vjp)
    return _part(out, 0), _part(out, 1)


def _part(x: Tensor, k: int) -> Tensor:
    """x[k]: one part of an op's stacked results."""
    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[k] = g
        return (gx,)

    return _make(x.data[k], (x,), vjp)


def dropout(x, p: float, rng: RngState = None, training: bool = False) -> Tensor:
    """Zero entries with probability p and rescale survivors by 1/(1-p).

    Identity (the same tensor) outside training or at p == 0.
    """
    x = _as_tensor(x)
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout: p={p} outside [0, 1)")
    if rng is None:
        raise ShapeError("dropout: training mode needs an RngState")
    keep = (rng.uniform(x.shape) >= p) / (1.0 - p)
    data = x.data * keep

    def vjp(g):
        return (g * keep,)

    return _make(data, (x,), vjp)
