"""The four encoder-decoder architectures and the label-smoothed loss.

All models share one contract. ``encode`` turns padded source id batches
into an EncoderMemory. ``init_state(memory)`` returns a DecodeState, and
each model runs its decoder through one body, ``_decode(state, ids)``,
which feeds ids[B, T] at the state's next T positions and returns their
logits [B, T, V] and the state after them. ``decode_step`` is that body
over a whole BOS-led target prefix from ``init_state``: the teacher-forced
logits that training uses, causal (logits at position t never see prefix
positions beyond t). ``step(state, last_ids)`` is the same body one token
per row (BOS first), returning ``(logits[B, V], state)`` at a cost that
does not grow with the prefix. Every attention block of every architecture
is one ``ad.attention`` node: the LSTM and conv decoders attend over the
encoder states (keys and values both) with one unscaled head, the
transformer with heads each scaled by 1/sqrt(its width). Masked source
positions receive exactly zero attention weight via additive -inf biases.

The LSTM state carries (h, c); the transformer caches per-layer
self-attention keys and values and projects the encoder memory for
cross-attention once, in ``init_state``; the conv decoder keeps each
layer's last k - 1 inputs. ``init_state`` is differentiable, so training
reaches the encoder through it; the state ``_decode`` returns is built
from plain arrays and records nothing on the tape. ``state.select(rows)``
reorders, repeats or drops rows, as search does with parent and finished
hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import RngState, Tensor, fan_seed
from .errors import ConfigError, ShapeError
from .subword import BOS_ID, PAD_ID

__all__ = [
    "LstmConfig", "ConvConfig", "TransformerConfig", "EncoderMemory",
    "DecodeState", "SeqModel", "LstmModel", "ConvModel", "TransformerModel",
    "build_model", "config_for_arch", "label_smoothed_loss", "ARCH_CONFIGS",
]

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# configs


@dataclass(frozen=True)
class LstmConfig:
    embed_dim: int = 256
    hidden_dim: int = 512
    dropout: float = 0.2
    bidirectional: bool = False

    def validate(self):
        if min(self.embed_dim, self.hidden_dim) < 1:
            raise ConfigError("lstm config extents must be positive")

    @property
    def arch(self):
        return "bilstm" if self.bidirectional else "lstm"


@dataclass(frozen=True)
class ConvConfig:
    enc_layers: int = 4
    dec_layers: int = 4
    dim: int = 256
    kernel_width: int = 3
    dropout: float = 0.1
    max_positions: int = 512

    def validate(self):
        if min(self.enc_layers, self.dec_layers, self.dim, self.kernel_width) < 1:
            raise ConfigError("conv config extents must be positive")
        if self.kernel_width % 2 == 0:
            raise ConfigError("conv kernel width must be odd")

    @property
    def arch(self):
        return "conv"


@dataclass(frozen=True)
class TransformerConfig:
    enc_layers: int = 3
    dec_layers: int = 3
    d_model: int = 256
    n_heads: int = 4
    d_ffn: int = 512
    dropout: float = 0.1
    max_positions: int = 512
    allow_uneven_heads: bool = False

    def validate(self):
        if min(self.enc_layers, self.dec_layers, self.d_model,
               self.n_heads, self.d_ffn) < 1:
            raise ConfigError("transformer config extents must be positive")
        if self.d_model % self.n_heads != 0 and not self.allow_uneven_heads:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}; "
                f"set allow_uneven_heads to permit ragged head widths")

    def head_dims(self) -> list:
        base, rem = divmod(self.d_model, self.n_heads)
        return [base + 1 if i < rem else base for i in range(self.n_heads)]

    @property
    def arch(self):
        return "transformer"


ARCH_CONFIGS = {
    "lstm": LstmConfig,
    "bilstm": LstmConfig,
    "conv": ConvConfig,
    "transformer": TransformerConfig,
}


def config_for_arch(arch: str, **overrides):
    if arch not in ARCH_CONFIGS:
        raise ConfigError(f"unknown architecture {arch!r}; known: {sorted(ARCH_CONFIGS)}")
    if arch == "bilstm":
        overrides.setdefault("bidirectional", True)
    if arch == "lstm":
        overrides.setdefault("bidirectional", False)
    cfg = ARCH_CONFIGS[arch](**overrides)
    cfg.validate()
    if cfg.arch != arch:
        raise ConfigError(f"config resolves to {cfg.arch!r}, requested {arch!r}")
    return cfg


# ---------------------------------------------------------------------------
# shared pieces


@dataclass
class EncoderMemory:
    """What the decoder sees: per-position states plus masking metadata."""
    states: Tensor              # [B, S, H]
    pad_mask: np.ndarray        # [B, S]; True at PAD positions
    h0: Tensor = None           # recurrent decoders: initial hidden
    c0: Tensor = None

    def select(self, rows) -> "EncoderMemory":
        """The memory of the given rows, in order; rows may repeat."""
        rows = np.asarray(rows, dtype=np.int64)
        pick = lambda t: None if t is None else Tensor(t.data[rows])
        return EncoderMemory(states=pick(self.states), pad_mask=self.pad_mask[rows],
                             h0=pick(self.h0), c0=pick(self.c0))

    def tile(self, k: int) -> "EncoderMemory":
        """Repeat each batch row k times."""
        return self.select(np.repeat(np.arange(len(self.pad_mask)), k))


class DecodeState:
    """What an incremental decoder carries from one step to the next: the
    number of positions decoded so far and named tensors whose first axis
    is the batch row (recurrent state, caches, encoder-side projections)."""

    def __init__(self, t: int, **tensors):
        self.t = t
        self.tensors = tensors

    def select(self, rows) -> "DecodeState":
        """The state of the given rows, in order; rows may repeat."""
        rows = np.asarray(rows, dtype=np.int64)
        return DecodeState(self.t, **{k: Tensor(v.data[rows])
                                      for k, v in self.tensors.items()})

    def advance(self, n: int, **updates) -> "DecodeState":
        """The state n positions later, with some tensors replaced."""
        return DecodeState(self.t + n, **{**self.tensors, **updates})


def _pad_bias(pad_mask: np.ndarray) -> Tensor:
    """[B, 1, S] additive bias: -inf at pads, 0 elsewhere."""
    return Tensor(np.where(pad_mask[:, None, :], NEG_INF, 0.0))


def _causal_bias(t: int) -> Tensor:
    bias = np.triu(np.full((t, t), NEG_INF), k=1)
    return Tensor(bias[None, :, :])


def _tail(prev: np.ndarray, new: np.ndarray, n: int) -> np.ndarray:
    """The last n positions (axis 1) of prev followed by new; n may be 0."""
    if new.shape[1] < n:
        new = np.concatenate([prev, new], axis=1)
    return new[:, new.shape[1] - n:]


def _linear(x, w, b=None):
    out = ad.matmul(x, w)
    return out if b is None else ad.add(out, b)


def _check_ids(ids: np.ndarray, vocab_size: int, what: str):
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ShapeError(f"{what} id out of range [0, {vocab_size})")
    return ids


def _sinusoid_table(max_positions: int, dim: int) -> np.ndarray:
    pos = np.arange(max_positions)[:, None]
    i = np.arange((dim + 1) // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((max_positions, dim))
    table[:, 0::2] = np.sin(angle[:, : table[:, 0::2].shape[1]])
    table[:, 1::2] = np.cos(angle[:, : table[:, 1::2].shape[1]])
    return table


class _ParamFactory:
    """Creates named parameters in a fixed order from one seeded stream."""

    def __init__(self, seed: int):
        self.rng = RngState(fan_seed(seed, "model-init"))
        self.params: dict = {}

    def uniform(self, name, shape, scale=0.1):
        return self._add(name, Tensor(self.rng.uniform(shape, -scale, scale),
                                      requires_grad=True))

    def normal(self, name, shape, std):
        return self._add(name, Tensor(self.rng.normal(shape, std),
                                      requires_grad=True))

    def zeros(self, name, shape):
        return self._add(name, Tensor(np.zeros(shape), requires_grad=True))

    def ones(self, name, shape):
        return self._add(name, Tensor(np.ones(shape), requires_grad=True))

    def _add(self, name, tensor):
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        self.params[name] = tensor
        return tensor


class SeqModel:
    """Base: parameter registry, vocab bookkeeping, shared loss plumbing,
    and the two ways of running a subclass's decoder body."""

    def __init__(self, config, src_vocab, tgt_vocab, seed: int):
        config.validate()
        self.config = config
        self.arch = config.arch
        self.seed = int(seed)
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab
        self.src_vocab_size = len(src_vocab)
        self.tgt_vocab_size = len(tgt_vocab)
        factory = _ParamFactory(seed)
        self._build(factory)
        self.params = factory.params

    # subclasses fill these in
    def _build(self, f: _ParamFactory):
        raise NotImplementedError

    def encode(self, src_ids, src_pad_mask=None, training=False, rng=None):
        raise NotImplementedError

    def init_state(self, memory) -> DecodeState:
        raise NotImplementedError

    def _decode(self, state: DecodeState, ids, training=False, rng=None):
        """The decoder over ids[B, T] fed at the state's next T positions
        (T > 1 only from ``init_state``): (logits Tensor[B, T, V], the state
        after them)."""
        raise NotImplementedError

    def decode_step(self, memory, tgt_prefix, training=False, rng=None):
        """Teacher-forced logits [B, T, V] at every position of a BOS-led
        prefix. Each subclass binds it as its own attribute, so that
        perfbench's tracer can wrap it per class."""
        tgt_prefix = self._prep_prefix(tgt_prefix)
        return self._decode(self.init_state(memory), tgt_prefix, training, rng)[0]

    def step(self, state: DecodeState, last_ids):
        """Feed one token per row; (logits [B, V], the next state)."""
        logits, state = self._decode(state, np.reshape(last_ids, (-1, 1)))
        return logits.data[:, 0], state

    def forward(self, src_ids, src_pad_mask, tgt_prefix, training=False, rng=None):
        memory = self.encode(src_ids, src_pad_mask, training=training, rng=rng)
        return self.decode_step(memory, tgt_prefix, training=training, rng=rng)

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def vocab_fingerprints(self):
        return self.src_vocab.fingerprint(), self.tgt_vocab.fingerprint()

    def _prep_source(self, src_ids, src_pad_mask):
        src_ids = _check_ids(src_ids, self.src_vocab_size, "source")
        if src_ids.ndim != 2:
            raise ShapeError(f"source ids must be [B, S], got {src_ids.shape}")
        if src_pad_mask is None:
            src_pad_mask = src_ids == PAD_ID
        return src_ids, np.asarray(src_pad_mask, dtype=bool)

    def _prep_prefix(self, tgt_prefix):
        tgt_prefix = _check_ids(tgt_prefix, self.tgt_vocab_size, "target")
        if tgt_prefix.ndim != 2 or tgt_prefix.shape[1] == 0:
            raise ShapeError("target prefix must be a non-empty [B, T] batch")
        if not (tgt_prefix[:, 0] == BOS_ID).all():
            raise ShapeError("target prefix must begin with BOS")
        return tgt_prefix


# ---------------------------------------------------------------------------
# recurrent family


class LstmModel(SeqModel):
    """Single-layer encoder-decoder LSTM with dot attention; the encoder
    may be bidirectional.

    The final real (non-pad) encoder state initializes the decoder; the
    decoder attends over per-position encoder states with dot-product
    attention and a tanh combination layer. Every recurrence is one
    ``ad.lstm`` node. Attention reads only the decoder's hidden states (no
    input feeding), so it runs once over all positions after the
    recurrence.
    """

    def _build(self, f: _ParamFactory):
        cfg = self.config
        e, h = cfg.embed_dim, cfg.hidden_dim
        f.uniform("src_embed", (self.src_vocab_size, e))
        f.uniform("tgt_embed", (self.tgt_vocab_size, e))
        directions = ["enc_f", "enc_b"] if cfg.bidirectional else ["enc_f"]
        for d in directions:
            f.uniform(f"{d}.w_ih", (e, 4 * h))
            f.uniform(f"{d}.w_hh", (h, 4 * h))
            f.zeros(f"{d}.b", (4 * h,))
        if cfg.bidirectional:
            f.uniform("proj_states.w", (2 * h, h))
            f.uniform("proj_h0.w", (2 * h, h))
            f.uniform("proj_c0.w", (2 * h, h))
        f.uniform("dec.w_ih", (e, 4 * h))
        f.uniform("dec.w_hh", (h, 4 * h))
        f.zeros("dec.b", (4 * h,))
        f.uniform("attn_combine.w", (2 * h, h))
        f.uniform("out.w", (h, self.tgt_vocab_size))
        f.zeros("out.b", (self.tgt_vocab_size,))

    def _recur(self, prefix, x, h0=None, c0=None):
        """The hidden and cell states [B, T, H] of one LSTM run over x."""
        p = self.params
        return ad.lstm(x, p[f"{prefix}.w_ih"], p[f"{prefix}.w_hh"], p[f"{prefix}.b"],
                       h0, c0)

    @staticmethod
    def _reverse_perm(pad_mask: np.ndarray) -> np.ndarray:
        """Per-sentence index map reversing the real span, fixing pads."""
        lengths = (~pad_mask).sum(axis=1, keepdims=True)
        t = np.arange(pad_mask.shape[1])[None, :]
        return np.where(t < lengths, lengths - 1 - t, t)

    def encode(self, src_ids, src_pad_mask=None, training=False, rng=None):
        cfg = self.config
        src_ids, pad = self._prep_source(src_ids, src_pad_mask)
        lengths = np.maximum((~pad).sum(axis=1), 1)
        x = ad.embedding(self.params["src_embed"], src_ids)
        x = ad.dropout(x, cfg.dropout, rng, training)

        hs_f, cs_f = self._recur("enc_f", x)
        last = lengths - 1
        h_last = ad.select_time(hs_f, last)
        c_last = ad.select_time(cs_f, last)
        if not cfg.bidirectional:
            return EncoderMemory(states=hs_f, pad_mask=pad, h0=h_last, c0=c_last)

        perm = self._reverse_perm(pad)
        x_rev = ad.gather_time(x, perm)
        hs_b, cs_b = self._recur("enc_b", x_rev)
        h_last_b = ad.select_time(hs_b, last)
        c_last_b = ad.select_time(cs_b, last)
        hs_b = ad.gather_time(hs_b, perm)  # align with original positions
        raw = ad.concat([hs_f, hs_b], axis=2)
        states = ad.matmul(raw, self.params["proj_states.w"])
        h0 = ad.matmul(ad.concat([h_last, h_last_b], axis=1), self.params["proj_h0.w"])
        c0 = ad.matmul(ad.concat([c_last, c_last_b], axis=1), self.params["proj_c0.w"])
        return EncoderMemory(states=states, pad_mask=pad, h0=h0, c0=c0)

    def _combine(self, hs, states, bias):
        """The decoder outputs [B, T, H]: tanh(W [h; attention(h)]) at every
        position at once, as the attention reads no earlier output."""
        ctx = ad.attention(hs, states, states, bias, [self.config.hidden_dim], 1.0)
        return ad.tanh(ad.matmul(ad.concat([hs, ctx], axis=2),
                                 self.params["attn_combine.w"]))

    decode_step = SeqModel.decode_step

    def init_state(self, memory) -> DecodeState:
        return DecodeState(0, h=memory.h0, c=memory.c0, states=memory.states,
                           bias=_pad_bias(memory.pad_mask))

    def _decode(self, state: DecodeState, ids, training=False, rng=None):
        cfg, s = self.config, state.tensors
        x = ad.embedding(self.params["tgt_embed"], ids)
        x = ad.dropout(x, cfg.dropout, rng, training)
        hs, cs = self._recur("dec", x, s["h"], s["c"])
        out = self._combine(hs, s["states"], s["bias"])
        out = ad.dropout(out, cfg.dropout, rng, training)
        logits = _linear(out, self.params["out.w"], self.params["out.b"])
        return logits, state.advance(ids.shape[1], h=Tensor(hs.data[:, -1]),
                                     c=Tensor(cs.data[:, -1]))


# ---------------------------------------------------------------------------
# convolutional family


class ConvModel(SeqModel):
    """Stacked gated convolutions with residuals and learned positions.

    Encoder layers use same-padding with pad positions zeroed before every
    convolution (so padding a batch never leaks into real positions);
    decoder layers are causal, each followed by dot-product attention over
    the encoder states.
    """

    def _build(self, f: _ParamFactory):
        cfg = self.config
        d, k = cfg.dim, cfg.kernel_width
        kstd = 1.0 / math.sqrt(k * d)
        f.uniform("src_embed", (self.src_vocab_size, d))
        f.uniform("tgt_embed", (self.tgt_vocab_size, d))
        f.uniform("enc_pos", (cfg.max_positions, d))
        f.uniform("dec_pos", (cfg.max_positions, d))
        for l in range(cfg.enc_layers):
            f.normal(f"enc.l{l}.kernel", (k, d, 2 * d), std=kstd)
            f.zeros(f"enc.l{l}.b", (2 * d,))
        for l in range(cfg.dec_layers):
            f.normal(f"dec.l{l}.kernel", (k, d, 2 * d), std=kstd)
            f.zeros(f"dec.l{l}.b", (2 * d,))
        f.uniform("out.w", (d, self.tgt_vocab_size))
        f.zeros("out.b", (self.tgt_vocab_size,))

    def _positions(self, name, n, start=0):
        if start + n > self.config.max_positions:
            raise ShapeError(f"sequence length {start + n} exceeds "
                             f"max_positions {self.config.max_positions}")
        return ad.slice_axis(self.params[name], 0, start, start + n)

    def encode(self, src_ids, src_pad_mask=None, training=False, rng=None):
        cfg = self.config
        src_ids, pad = self._prep_source(src_ids, src_pad_mask)
        b, s = src_ids.shape
        keep = Tensor((~pad)[:, :, None].astype(float))
        x = ad.add(ad.embedding(self.params["src_embed"], src_ids),
                   self._positions("enc_pos", s))
        x = ad.dropout(x, cfg.dropout, rng, training)
        x = ad.mul(x, keep)
        for l in range(cfg.enc_layers):
            y = ad.add(ad.conv1d(x, self.params[f"enc.l{l}.kernel"], "same"),
                       self.params[f"enc.l{l}.b"])
            g = ad.glu(y, axis=-1)
            x = ad.mul(ad.add(x, g), keep)
        return EncoderMemory(states=x, pad_mask=pad)

    decode_step = SeqModel.decode_step

    def init_state(self, memory) -> DecodeState:
        cfg = self.config
        b = memory.states.shape[0]
        # each layer's inputs at the k - 1 positions before the next one;
        # zeros before position 0, as causal padding has them
        windows = {f"win{l}": Tensor(np.zeros((b, cfg.kernel_width - 1, cfg.dim)))
                   for l in range(cfg.dec_layers)}
        return DecodeState(0, states=memory.states, bias=_pad_bias(memory.pad_mask),
                           **windows)

    def _decode(self, state: DecodeState, ids, training=False, rng=None):
        cfg, s, p = self.config, state.tensors, self.params
        n = ids.shape[1]
        y = ad.add(ad.embedding(p["tgt_embed"], ids),
                   self._positions("dec_pos", n, start=state.t))
        y = ad.dropout(y, cfg.dropout, rng, training)
        windows = {}
        for l in range(cfg.dec_layers):
            win = s[f"win{l}"]
            # from position 0, causal padding supplies the zeros before it
            conv_in, mode = (ad.concat([win, y], axis=1), "valid") if state.t else (y, "causal")
            windows[f"win{l}"] = Tensor(_tail(win.data, conv_in.data, cfg.kernel_width - 1))
            h = ad.glu(ad.add(ad.conv1d(conv_in, p[f"dec.l{l}.kernel"], mode),
                              p[f"dec.l{l}.b"]), axis=-1)
            ctx = ad.attention(h, s["states"], s["states"], s["bias"], [cfg.dim], 1.0)
            y = ad.add(y, ad.add(h, ctx))
        y = ad.dropout(y, cfg.dropout, rng, training)
        logits = _linear(y, p["out.w"], p["out.b"])
        return logits, state.advance(n, **windows)


# ---------------------------------------------------------------------------
# transformer


class TransformerModel(SeqModel):
    """Pre-norm transformer with sinusoidal positions.

    Head widths come from config.head_dims(): even division by default,
    ragged widths (e.g. 256 over 3 heads -> 86/85/85) when uneven heads
    are explicitly allowed. Every attention block, in training and in
    incremental decoding, is one ``ad.attention`` node over all heads,
    ragged or not, followed by the output projection.
    """

    def _build(self, f: _ParamFactory):
        cfg = self.config
        d = cfg.d_model
        std = 1.0 / math.sqrt(d)
        f.uniform("src_embed", (self.src_vocab_size, d))
        f.uniform("tgt_embed", (self.tgt_vocab_size, d))
        for side, n_layers, blocks in (("enc", cfg.enc_layers, ("self",)),
                                       ("dec", cfg.dec_layers, ("self", "cross"))):
            for l in range(n_layers):
                base = f"{side}.l{l}"
                for blk in blocks:
                    f.ones(f"{base}.{blk}.ln.g", (d,))
                    f.zeros(f"{base}.{blk}.ln.b", (d,))
                    for proj in ("q", "k", "v", "o"):
                        f.normal(f"{base}.{blk}.w_{proj}", (d, d), std=std)
                        f.zeros(f"{base}.{blk}.b_{proj}", (d,))
                f.ones(f"{base}.ffn.ln.g", (d,))
                f.zeros(f"{base}.ffn.ln.b", (d,))
                f.normal(f"{base}.ffn.w1", (d, cfg.d_ffn), std=std)
                f.zeros(f"{base}.ffn.b1", (cfg.d_ffn,))
                f.normal(f"{base}.ffn.w2", (cfg.d_ffn, d), std=std)
                f.zeros(f"{base}.ffn.b2", (d,))
        f.ones("enc.ln.g", (d,))
        f.zeros("enc.ln.b", (d,))
        f.ones("dec.ln.g", (d,))
        f.zeros("dec.ln.b", (d,))
        f.normal("out.w", (d, self.tgt_vocab_size), std=std)
        f.zeros("out.b", (self.tgt_vocab_size,))
        self._pe = _sinusoid_table(cfg.max_positions, d)
        self._head_dims = cfg.head_dims()
        self._head_scale = 1.0 / np.sqrt(np.asarray(self._head_dims, dtype=np.float64))

    def _embed(self, table, ids, rng, training, start=0):
        """Scaled embeddings of ids[B, n] plus the sinusoids of positions
        start .. start + n - 1."""
        cfg = self.config
        end = start + ids.shape[1]
        if end > cfg.max_positions:
            raise ShapeError(
                f"sequence length {end} exceeds max_positions {cfg.max_positions}")
        x = ad.mul(ad.embedding(table, ids), math.sqrt(cfg.d_model))
        x = ad.add(x, Tensor(self._pe[start:end]))
        return ad.dropout(x, cfg.dropout, rng, training)

    def _proj(self, base, name, x):
        p = self.params
        return _linear(x, p[f"{base}.w_{name}"], p[f"{base}.b_{name}"])

    def _heads(self, base, q, k, v, bias):
        """Multi-head attention of projected queries q over projected keys
        k and values v, then the output projection; bias None means every
        key is visible."""
        return self._proj(base, "o", ad.attention(q, k, v, bias, self._head_dims,
                                                  self._head_scale))

    def _attention(self, base, q_in, kv_in, bias):
        q = self._proj(base, "q", q_in)
        k = self._proj(base, "k", kv_in)
        v = self._proj(base, "v", kv_in)
        return self._heads(base, q, k, v, bias)

    def _ln(self, base, x):
        return ad.layer_norm(x, self.params[f"{base}.g"], self.params[f"{base}.b"])

    def _ffn(self, base, x):
        p = self.params
        h = ad.relu(_linear(x, p[f"{base}.w1"], p[f"{base}.b1"]))
        return _linear(h, p[f"{base}.w2"], p[f"{base}.b2"])

    def encode(self, src_ids, src_pad_mask=None, training=False, rng=None):
        cfg = self.config
        src_ids, pad = self._prep_source(src_ids, src_pad_mask)
        drop = lambda t: ad.dropout(t, cfg.dropout, rng, training)
        bias = _pad_bias(pad)
        x = self._embed(self.params["src_embed"], src_ids, rng, training)
        for l in range(cfg.enc_layers):
            base = f"enc.l{l}"
            a = self._ln(f"{base}.self.ln", x)
            x = ad.add(x, drop(self._attention(f"{base}.self", a, a, bias)))
            x = ad.add(x, drop(self._ffn(f"{base}.ffn",
                                         self._ln(f"{base}.ffn.ln", x))))
        return EncoderMemory(states=self._ln("enc.ln", x), pad_mask=pad)

    decode_step = SeqModel.decode_step

    def init_state(self, memory) -> DecodeState:
        cache = {}
        for l in range(self.config.dec_layers):
            base = f"dec.l{l}.cross"
            cache[f"cross_k{l}"] = self._proj(base, "k", memory.states)
            cache[f"cross_v{l}"] = self._proj(base, "v", memory.states)
        return DecodeState(0, bias=_pad_bias(memory.pad_mask), **cache)

    def _decode(self, state: DecodeState, ids, training=False, rng=None):
        cfg, s = self.config, state.tensors
        n = ids.shape[1]
        drop = lambda t: ad.dropout(t, cfg.dropout, rng, training)
        # more than one position is the whole prefix from position 0; a
        # single new position may see every key
        causal = _causal_bias(n) if n > 1 else None
        y = self._embed(self.params["tgt_embed"], ids, rng, training, start=state.t)
        cache = {}
        for l in range(cfg.dec_layers):
            base = f"dec.l{l}"
            a = self._ln(f"{base}.self.ln", y)
            q, k, v = (self._proj(f"{base}.self", name, a) for name in "qkv")
            if state.t:  # prepend the cached keys and values of earlier positions
                k = ad.concat([s[f"self_k{l}"], k], axis=1)
                v = ad.concat([s[f"self_v{l}"], v], axis=1)
            cache[f"self_k{l}"], cache[f"self_v{l}"] = Tensor(k.data), Tensor(v.data)
            y = ad.add(y, drop(self._heads(f"{base}.self", q, k, v, causal)))
            a = self._ln(f"{base}.cross.ln", y)
            q = self._proj(f"{base}.cross", "q", a)
            y = ad.add(y, drop(self._heads(f"{base}.cross", q, s[f"cross_k{l}"],
                                           s[f"cross_v{l}"], s["bias"])))
            y = ad.add(y, drop(self._ffn(f"{base}.ffn",
                                         self._ln(f"{base}.ffn.ln", y))))
        y = self._ln("dec.ln", y)
        logits = _linear(y, self.params["out.w"], self.params["out.b"])
        return logits, state.advance(n, **cache)


# ---------------------------------------------------------------------------


_MODEL_CLASSES = {
    LstmConfig: LstmModel,
    ConvConfig: ConvModel,
    TransformerConfig: TransformerModel,
}


def build_model(config, src_vocab, tgt_vocab, seed: int) -> SeqModel:
    """Instantiate the architecture a config describes, deterministically."""
    cls = _MODEL_CLASSES.get(type(config))
    if cls is None:
        raise ConfigError(f"unknown config type {type(config).__name__}")
    return cls(config, src_vocab, tgt_vocab, seed)


def label_smoothed_loss(logits: Tensor, target_ids, pad_id: int = PAD_ID,
                        epsilon: float = 0.1) -> Tensor:
    """Mean over non-pad positions of the smoothed negative log-likelihood:
    (1-eps) * -log p[target] + eps * mean_v(-log p[v]).

    Pad positions contribute nothing to the value or the gradient.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError(f"label smoothing epsilon {epsilon} outside [0, 1)")
    target_ids = np.asarray(target_ids)
    if target_ids.shape != logits.shape[:-1]:
        raise ShapeError(
            f"targets {target_ids.shape} do not match logits {logits.shape}")
    mask = target_ids != pad_id
    n_real = int(mask.sum())
    if n_real == 0:
        raise ShapeError("all target positions are pad")
    vocab = logits.shape[-1]
    logp = ad.log_softmax(logits, axis=-1)
    nll = ad.mul(ad.gather_last(logp, target_ids), -1.0)
    per_pos = ad.mul(nll, 1.0 - epsilon)
    if epsilon > 0.0:
        smooth = ad.mul(ad.reduce_sum(logp, axis=-1), -1.0 / vocab)
        per_pos = ad.add(per_pos, ad.mul(smooth, epsilon))
    weighted = ad.mul(per_pos, Tensor(mask.astype(float)))
    return ad.mul(ad.reduce_sum(weighted), 1.0 / n_real)
