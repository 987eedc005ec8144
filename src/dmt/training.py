"""Training: token-budget batching, bias-corrected Adam with plateau
lr-shrink, the epoch loop with per-epoch dev loss/BLEU and checkpointing,
and best-checkpoint selection by dev BLEU.

Everything is deterministic given (seed, corpus, config): batch packing,
batch order, dropout masks, and optimizer arithmetic all flow from the
one seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import shutil
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import RngState, fan_seed
from .bleu import score_corpus
from .decoding import DecodeConfig, decode_many
from .errors import (CheckpointError, ConfigError, DivergenceError,
                     FingerprintError)
from .models import ARCH_CONFIGS, build_model, label_smoothed_loss, max_positions
from .subword import BOS_ID, PAD_ID, undo_bpe
from .textnorm import detokenize

__all__ = [
    "TrainConfig", "dump_fields", "load_fields", "parse_entries",
    "format_entries", "AdamState", "PlateauScheduler", "Batch", "Checkpoint",
    "EpochStats", "TrainReport", "preset", "PRESETS", "make_batches",
    "pad_batch", "adam_step", "train", "evaluate_loss", "evaluate_bleu",
    "save_checkpoint", "load_checkpoint", "restore_model",
]


# ---------------------------------------------------------------------------
# config


@dataclass
class TrainConfig:
    arch: str = "transformer"
    learning_rate: float = 5e-4
    max_tokens: int = 0          # 0 = disabled; token-budget batching
    batch_size: int = 128        # 0 = disabled; fixed sentence count
    epochs: int = 10
    label_smoothing: float = 0.1
    dropout: float = 0.1
    lr_shrink: float = 0.5
    patience: int = 1
    min_improvement: float = 1e-4
    clip_norm: float = 0.0       # 0 = off; global L2 otherwise
    seed: int = 1
    keep_last: int = 0           # checkpoint pruning; 0 keeps everything
    target_bleu: float = 0.0     # > 0: stop once dev BLEU reaches it

    def validate(self):
        if self.arch not in ARCH_CONFIGS:
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if (self.max_tokens > 0) == (self.batch_size > 0):
            raise ConfigError("exactly one of max_tokens/batch_size must be set")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if not 0.0 < self.lr_shrink <= 1.0:
            raise ConfigError("lr_shrink must be in (0, 1]")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError("label_smoothing must be in [0, 1)")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")

    def betas(self):
        return (0.9, 0.98) if self.arch == "transformer" else (0.9, 0.999)


PRESETS = {
    # the from-scratch transformer recipe
    "transformer-scratch": TrainConfig(arch="transformer", learning_rate=5e-4,
                                       batch_size=128, epochs=10,
                                       label_smoothing=0.1, dropout=0.1),
    # recurrent recipes: token batching, plateau-halved lr
    "lstm": TrainConfig(arch="lstm", learning_rate=0.005, max_tokens=12000,
                        batch_size=0, epochs=25, dropout=0.2, lr_shrink=0.5,
                        clip_norm=1.0),
    "bilstm": TrainConfig(arch="bilstm", learning_rate=0.005, max_tokens=12000,
                          batch_size=0, epochs=25, dropout=0.2, lr_shrink=0.5,
                          clip_norm=1.0),
    "conv": TrainConfig(arch="conv", learning_rate=0.005, max_tokens=12000,
                        batch_size=0, epochs=20, dropout=0.1, lr_shrink=0.5),
    # settings for fine-tuning an external pretrained model; the model
    # itself is out of scope, the preset documents the recipe
    "finetune-pretrained": TrainConfig(arch="transformer", learning_rate=3e-5,
                                       max_tokens=1568, batch_size=0, epochs=10,
                                       label_smoothing=0.1, dropout=0.1),
}


def preset(name: str) -> TrainConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return dataclasses.replace(PRESETS[name])


# ---------------------------------------------------------------------------
# config text
#
# Every config dataclass has one text form, a `prefix.field=value` entry
# per field, for experiment config files, `dmt run --set`, config.txt
# snapshots, the train.*/model.* overrides and checkpoint headers:
# dump_fields writes it and load_fields reads it. A dict field whose
# metadata names a "section" holds the text of the `section.key` entries.

_BOOLS = {"True": True, "true": True, "1": True,
          "False": False, "false": False, "0": False}
_PARSERS = {"int": int, "float": float, "bool": _BOOLS.__getitem__, "str": str}


def parse_entries(lines) -> dict:
    """{key: value} from `key=value` lines, both sides stripped; later
    lines win, and a line without "=" is a ConfigError."""
    entries = {}
    for line in lines:
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"bad config line {line!r} (want key=value)")
        entries[key.strip()] = value.strip()
    return entries


def format_entries(entries: dict) -> str:
    """One `key=value` line per entry, in order: what parse_entries reads."""
    return "".join(f"{k}={v}\n" for k, v in entries.items())


def dump_fields(cfg, prefix: str = "") -> dict:
    """The dataclass instance cfg as `prefix.field` entries of text, in
    field order (a section's entries sorted by key)."""
    lead = f"{prefix}." if prefix else ""
    entries = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if "section" in f.metadata:
            entries.update((f"{lead}{f.metadata['section']}.{k}", str(v))
                           for k, v in sorted(value.items()))
        else:
            entries[f"{lead}{f.name}"] = str(value)
    return entries


def load_fields(cls, entries: dict, prefix: str = "", strict: bool = False) -> dict:
    """{field: value} for the entries under `prefix.` that name fields of
    the dataclass cls, typed by the field: int, float, bool
    (True/False/true/false/1/0) or str. A bad value, or a field of another
    type, is a ConfigError that names the key. Other entries under prefix
    are skipped, or with strict a ConfigError."""
    lead = f"{prefix}." if prefix else ""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    sections = {f.metadata["section"]: name for name, f in fields.items()
                if "section" in f.metadata}
    values = {name: {} for name in sections.values()}
    for key, text in entries.items():
        if not key.startswith(lead):
            continue
        name = key[len(lead):]
        section, dot, rest = name.partition(".")
        if dot and section in sections:
            values[sections[section]][rest] = text
        elif name in fields and "section" not in fields[name].metadata:
            parse = _PARSERS.get(getattr(fields[name].type, "__name__", fields[name].type))
            if parse is None:
                raise ConfigError(f"{key}: a {fields[name].type} field has no text form")
            try:
                values[name] = parse(text)
            except (KeyError, ValueError):
                raise ConfigError(f"{key}: bad value {text!r}") from None
        elif strict:
            raise ConfigError(f"unknown configuration key {key!r}")
    return values


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    src: np.ndarray        # [B, S] padded
    src_pad_mask: np.ndarray
    tgt_in: np.ndarray     # [B, T]: BOS + target[:-1]
    tgt_out: np.ndarray    # [B, T]: target (ends with EOS), PAD elsewhere
    indices: list
    n_tokens: int          # non-pad target tokens


def make_batches(pairs, max_tokens: int = 0, batch_size: int = 0,
                 seed: int = 0):
    """Group pair indices into batches.

    Token mode: sort by source length (stable), pack greedily so that
    padded_width * height stays within max_tokens on both sides. Sentence
    mode: fixed-size chunks of the sorted order. Batch order is shuffled
    under the seed. Returns (index batches, skipped pair count).
    """
    if (max_tokens > 0) == (batch_size > 0):
        raise ConfigError("exactly one of max_tokens/batch_size must be set")
    order = sorted(range(len(pairs)), key=lambda i: len(pairs[i][0]))
    batches = []
    skipped = 0
    if batch_size > 0:
        batches = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    else:
        cur, ws, wt = [], 0, 0
        for i in order:
            s, t = len(pairs[i][0]), len(pairs[i][1])
            if s > max_tokens or t > max_tokens:
                skipped += 1
                continue
            nws, nwt = max(ws, s), max(wt, t)
            n = len(cur) + 1
            if cur and (nws * n > max_tokens or nwt * n > max_tokens):
                batches.append(cur)
                cur, nws, nwt = [], s, t
            cur.append(i)
            ws, wt = nws, nwt
        if cur:
            batches.append(cur)
    perm = RngState(fan_seed(seed, "batch-order")).permutation(len(batches))
    return [batches[i] for i in perm], skipped


def pad_batch(pairs, indices) -> Batch:
    src_len = max(len(pairs[i][0]) for i in indices)
    tgt_len = max(len(pairs[i][1]) for i in indices)
    b = len(indices)
    src = np.full((b, src_len), PAD_ID, dtype=np.int64)
    tgt_in = np.full((b, tgt_len), PAD_ID, dtype=np.int64)
    tgt_out = np.full((b, tgt_len), PAD_ID, dtype=np.int64)
    for r, i in enumerate(indices):
        s, t = pairs[i]
        src[r, :len(s)] = s
        tgt_in[r, 0] = BOS_ID
        tgt_in[r, 1:len(t)] = t[:-1]
        tgt_out[r, :len(t)] = t
    return Batch(src, src == PAD_ID, tgt_in, tgt_out, list(indices),
                 int((tgt_out != PAD_ID).sum()))


# ---------------------------------------------------------------------------
# optimizer and scheduler


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def init(cls, params: dict) -> "AdamState":
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()},
                   t=0)


def adam_step(params: dict, state: AdamState, lr: float, betas=(0.9, 0.999),
              eps: float = 1e-8, clip_norm: float = 0.0):
    """One bias-corrected Adam update, in place.

    Gradients are globally L2-clipped first when clip_norm > 0; a NaN
    gradient aborts the step before any parameter moves.
    """
    grads = {}
    sq_sum = 0.0
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if np.isnan(g).any():
            raise DivergenceError(f"NaN gradient in {name}")
        grads[name] = g
        sq_sum += float((g * g).sum())
    if clip_norm > 0.0:
        norm = sq_sum ** 0.5
        if norm > clip_norm:
            scale = clip_norm / norm
            grads = {k: g * scale for k, g in grads.items()}
    b1, b2 = betas
    state.t += 1
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


class PlateauScheduler:
    """Multiply lr by `shrink` after `patience` epochs whose dev loss fails
    to improve on the best seen by at least `min_improvement`."""

    def __init__(self, lr: float, shrink: float, patience: int,
                 min_improvement: float):
        self.lr = lr
        self.shrink = shrink
        self.patience = patience
        self.min_improvement = min_improvement
        self.best = float("inf")
        self.bad_epochs = 0
        self.n_shrinks = 0

    def step(self, dev_loss: float) -> float:
        if dev_loss < self.best - self.min_improvement:
            self.best = dev_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.lr *= self.shrink
                self.n_shrinks += 1
                self.bad_epochs = 0
        return self.lr


# ---------------------------------------------------------------------------
# checkpoints


_MAGIC = b"DMT1"
_DTYPE_F64 = 0


@dataclass
class Checkpoint:
    arch: str
    model_config: object
    src_vocab_fp: str
    tgt_vocab_fp: str
    params: dict                  # name -> float64 ndarray
    opt: AdamState = None
    epoch: int = 0
    dev_loss: float = 0.0
    dev_bleu: float = 0.0
    train_config: TrainConfig = None
    version: int = 1

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        self.serialize(digest.update)
        return digest.hexdigest()[:16]

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        self.serialize(buf.write)
        return buf.getvalue()

    def serialize(self, write):
        """Serialize by calling write on each piece in file order; tensor
        data goes out as the arrays' own buffers, not as copies."""
        meta = {
            "version": str(self.version),
            "arch": self.arch,
            "epoch": str(self.epoch),
            "dev_loss": repr(float(self.dev_loss)),
            "dev_bleu": repr(float(self.dev_bleu)),
            "src_vocab_fp": self.src_vocab_fp,
            "tgt_vocab_fp": self.tgt_vocab_fp,
        }
        meta.update(dump_fields(self.model_config, "cfg"))
        if self.train_config is not None:
            meta.update(dump_fields(self.train_config, "train"))
        if self.opt is not None:
            meta["opt.t"] = str(self.opt.t)
        write(_MAGIC)
        meta_bytes = format_entries(dict(sorted(meta.items()))).encode("utf-8")
        write(struct.pack("<Q", len(meta_bytes)))
        write(meta_bytes)

        tensors = [(f"param.{k}", a) for k, a in sorted(self.params.items())]
        if self.opt is not None:
            tensors += [(f"opt.m.{k}", a) for k, a in sorted(self.opt.m.items())]
            tensors += [(f"opt.v.{k}", a) for k, a in sorted(self.opt.v.items())]
        write(struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            nb = name.encode("utf-8")
            write(struct.pack("<I", len(nb)))
            write(nb)
            write(struct.pack("<BB", _DTYPE_F64, arr.ndim))
            for ext in arr.shape:
                write(struct.pack("<Q", ext))
            write(np.ascontiguousarray(arr, dtype="<f8"))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Checkpoint":
        """Parse a checkpoint; any malformed input is a CheckpointError."""
        if bytes(raw[:4]) != _MAGIC:
            raise CheckpointError("bad magic bytes; not a checkpoint file")
        try:
            return cls._parse(memoryview(raw))
        except (struct.error, ValueError, KeyError, TypeError, ArithmeticError,
                ConfigError) as e:
            raise CheckpointError(f"malformed checkpoint: {type(e).__name__}: {e}") from None

    @classmethod
    def _parse(cls, view) -> "Checkpoint":
        off = 4
        (meta_len,) = struct.unpack_from("<Q", view, off)
        off += 8
        if off + meta_len > len(view):
            raise CheckpointError("truncated checkpoint (metadata)")
        meta = parse_entries(bytes(view[off:off + meta_len]).decode("utf-8").splitlines())
        off += meta_len
        if int(meta.get("version", -1)) != 1:
            raise CheckpointError(f"unsupported checkpoint version {meta.get('version')}")

        (n_tensors,) = struct.unpack_from("<I", view, off)
        off += 4
        tensors = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack_from("<I", view, off)
            off += 4
            name = bytes(view[off:off + name_len]).decode("utf-8")
            off += name_len
            dtype_tag, rank = struct.unpack_from("<BB", view, off)
            off += 2
            if dtype_tag != _DTYPE_F64:
                raise CheckpointError(f"unknown dtype tag {dtype_tag}")
            shape = struct.unpack_from(f"<{rank}Q", view, off)
            off += 8 * rank
            count = math.prod(shape)
            arr = np.frombuffer(view, dtype="<f8", count=count, offset=off)
            off += count * 8
            tensors[name] = arr.reshape(shape).astype(np.float64)
        if off != len(view):
            raise CheckpointError(f"{len(view) - off} trailing bytes after the last tensor")

        # entries of fields this version lacks are skipped, so older files load
        arch = meta["arch"]
        cfg_cls = ARCH_CONFIGS[arch]
        model_config = cfg_cls(**load_fields(cfg_cls, meta, "cfg"))
        train_config = (TrainConfig(**load_fields(TrainConfig, meta, "train"))
                        if any(k.startswith("train.") for k in meta) else None)
        params = {k[len("param."):]: a for k, a in tensors.items()
                  if k.startswith("param.")}
        opt = None
        if "opt.t" in meta:
            opt = AdamState(
                m={k[len("opt.m."):]: a for k, a in tensors.items()
                   if k.startswith("opt.m.")},
                v={k[len("opt.v."):]: a for k, a in tensors.items()
                   if k.startswith("opt.v.")},
                t=int(meta["opt.t"]))
        return cls(arch=arch, model_config=model_config,
                   src_vocab_fp=meta["src_vocab_fp"],
                   tgt_vocab_fp=meta["tgt_vocab_fp"], params=params, opt=opt,
                   epoch=int(meta["epoch"]), dev_loss=float(meta["dev_loss"]),
                   dev_bleu=float(meta["dev_bleu"]), train_config=train_config)


def save_checkpoint(ckpt: Checkpoint, path):
    with open(path, "wb") as f:
        ckpt.serialize(f.write)


def load_checkpoint(path) -> Checkpoint:
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"no such checkpoint: {path}")
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e.strerror}")
    return Checkpoint.from_bytes(raw)


def snapshot(model, opt: AdamState = None, epoch: int = 0, dev_loss: float = 0.0,
             dev_bleu: float = 0.0, train_config: TrainConfig = None) -> Checkpoint:
    src_fp, tgt_fp = model.vocab_fingerprints()
    return Checkpoint(
        arch=model.arch, model_config=model.config,
        src_vocab_fp=src_fp, tgt_vocab_fp=tgt_fp,
        params={k: p.data.copy() for k, p in model.params.items()},
        opt=None if opt is None else AdamState(
            m={k: a.copy() for k, a in opt.m.items()},
            v={k: a.copy() for k, a in opt.v.items()}, t=opt.t),
        epoch=epoch, dev_loss=dev_loss, dev_bleu=dev_bleu,
        train_config=train_config)


def restore_model(ckpt: Checkpoint, src_vocab, tgt_vocab):
    """Rebuild the model a checkpoint describes; forward outputs are
    bit-identical to the saved model's."""
    if (src_vocab.fingerprint(), tgt_vocab.fingerprint()) != (
            ckpt.src_vocab_fp, ckpt.tgt_vocab_fp):
        raise FingerprintError("vocabulary fingerprints do not match the checkpoint")
    model = build_model(ckpt.model_config, src_vocab, tgt_vocab, seed=0)
    if set(model.params) != set(ckpt.params):
        raise CheckpointError("checkpoint parameter names do not match the config")
    for name, arr in ckpt.params.items():
        if model.params[name].data.shape != arr.shape:
            raise CheckpointError(
                f"shape mismatch for {name}: {model.params[name].data.shape} "
                f"vs {arr.shape}")
        model.params[name].data = arr.copy()
    return model


# ---------------------------------------------------------------------------
# evaluation


def evaluate_loss(model, data, label_smoothing: float, max_tokens: int = 0,
                  batch_size: int = 0) -> float:
    if not data:
        return 0.0
    batches, _ = make_batches(data, max_tokens, batch_size, seed=0)
    total, tokens = 0.0, 0
    with ad.no_grad():
        for idxs in batches:
            batch = pad_batch(data, idxs)
            logits = model.forward(batch.src, batch.src_pad_mask, batch.tgt_in)
            loss = label_smoothed_loss(logits, batch.tgt_out, PAD_ID,
                                       label_smoothing)
            total += loss.item() * batch.n_tokens
            tokens += batch.n_tokens
    return total / max(tokens, 1)


def _score_tokens(vocab, ids) -> list:
    return detokenize(undo_bpe(vocab.decode(list(ids)))).split()


def evaluate_bleu(model, data, tgt_vocab) -> float:
    """Greedy-decode the dev sources and average sentence BLEU against the
    dev targets on the un-BPE'd, detokenized surface. The search runs in
    the model's search_dtype, as every search does, so for a transformer
    this dev BLEU, which picks the best checkpoint and the target_bleu
    stop, comes from a float32 decode."""
    if not data:
        return 0.0
    hyps = decode_many(model, [s for s, _ in data], DecodeConfig(beam=1))
    cands = [_score_tokens(tgt_vocab, hyp.output_ids) for hyp in hyps]
    refs = [[_score_tokens(tgt_vocab, t)] for _, t in data]
    return score_corpus(cands, refs).mean


# ---------------------------------------------------------------------------
# the training loop


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_loss: float
    dev_bleu: float
    lr: float


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)
    best_epoch: int = 0
    wall_time: float = 0.0
    diverged: bool = False
    stopped_early: bool = False
    skipped_pairs: int = 0  # past max_tokens or the model's positions

    def as_tsv(self) -> str:
        lines = ["epoch\ttrain_loss\tdev_loss\tdev_bleu\tlr"]
        for row in self.epochs:
            lines.append(f"{row.epoch}\t{row.train_loss:.6f}\t{row.dev_loss:.6f}"
                         f"\t{row.dev_bleu:.6f}\t{row.lr:.8g}")
        return "\n".join(lines) + "\n"


def train(model, train_data, dev_data, config: TrainConfig, run_dir=None):
    """Run the epoch loop and return (best checkpoint, report).

    Per epoch: teacher-forced label-smoothed steps over shuffled batches,
    then dev loss, dev BLEU (greedy), a checkpoint, and the lr-shrink
    decision. The best checkpoint maximizes dev BLEU, earliest epoch on
    ties. NaN loss aborts with the last good checkpoint. Training and dev
    pairs with more ids than the model has positions are left out.
    """
    config.validate()
    limit = max_positions(model)  # a target of n ids feeds n positions
    fits = lambda pairs: [p for p in pairs if max(len(p[0]), len(p[1])) <= limit]
    too_long = len(train_data) + len(dev_data)
    train_data, dev_data = fits(train_data), fits(dev_data)
    too_long -= len(train_data) + len(dev_data)
    if not train_data:
        raise ConfigError(f"empty training corpus ({too_long} pairs past the "
                          f"model's positions left out)")
    t0 = time.time()
    run_dir = Path(run_dir) if run_dir is not None else None
    ckpt_dir = None
    if run_dir is not None:
        ckpt_dir = run_dir / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)

    drop_rng = RngState(fan_seed(config.seed, "dropout"))
    opt = AdamState.init(model.params)
    sched = PlateauScheduler(config.learning_rate, config.lr_shrink,
                             config.patience, config.min_improvement)
    report = TrainReport()
    best = None  # (bleu, epoch, Checkpoint)
    saved_paths = []

    for epoch in range(1, config.epochs + 1):
        lr = sched.lr
        batches, skipped = make_batches(
            train_data, config.max_tokens, config.batch_size,
            seed=fan_seed(config.seed, f"epoch-{epoch}"))
        report.skipped_pairs = skipped + too_long
        total, tokens = 0.0, 0
        diverged = False
        for idxs in batches:
            batch = pad_batch(train_data, idxs)
            logits = model.forward(batch.src, batch.src_pad_mask, batch.tgt_in,
                                   training=True, rng=drop_rng)
            loss = label_smoothed_loss(logits, batch.tgt_out, PAD_ID,
                                       config.label_smoothing)
            value = loss.item()
            if not np.isfinite(value):
                diverged = True
                break
            ad.zero_grad(model.params)
            ad.backward(loss)
            try:
                adam_step(model.params, opt, lr, config.betas(),
                          clip_norm=config.clip_norm)
            except DivergenceError:
                diverged = True
                break
            total += value * batch.n_tokens
            tokens += batch.n_tokens
        if diverged:
            report.diverged = True
            break

        train_loss = total / max(tokens, 1)
        dev_loss = evaluate_loss(model, dev_data, config.label_smoothing,
                                 config.max_tokens, config.batch_size)
        dev_bleu = evaluate_bleu(model, dev_data, model.tgt_vocab)
        report.epochs.append(EpochStats(epoch, train_loss, dev_loss, dev_bleu, lr))

        ckpt = snapshot(model, opt, epoch, dev_loss, dev_bleu, config)
        if ckpt_dir is not None:
            path = ckpt_dir / f"epoch{epoch:03d}.dmt"
            save_checkpoint(ckpt, path)
            saved_paths.append(path)
        if best is None or dev_bleu > best[0]:
            best = (dev_bleu, epoch, ckpt)
            if ckpt_dir is not None:
                shutil.copyfile(ckpt_dir / f"epoch{epoch:03d}.dmt",
                                run_dir / "best.dmt")
        if ckpt_dir is not None and config.keep_last > 0:
            keep = {f"epoch{best[1]:03d}.dmt"} | {
                p.name for p in saved_paths[-config.keep_last:]}
            for p in list(saved_paths):
                if p.name not in keep and p.exists():
                    p.unlink()

        sched.step(dev_loss)
        if config.target_bleu > 0.0 and dev_bleu >= config.target_bleu:
            report.stopped_early = True
            break

    if best is None:
        # diverged before completing the first epoch
        best = (0.0, 0, snapshot(model, opt, 0, float("nan"), 0.0, config))
    report.best_epoch = best[1]
    report.wall_time = time.time() - t0
    if run_dir is not None:
        (run_dir / "report.tsv").write_text(report.as_tsv(), encoding="utf-8")
    return best[2], report
