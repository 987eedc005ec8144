"""Batching, Adam, lr scheduling, checkpointing, and train-loop contracts."""

import hashlib
import struct
from collections import Counter

import numpy as np
import pytest

import dmt.autodiff as ad
import dmt.training
from dmt.autodiff import RngState, Tensor
from dmt.errors import CheckpointError, ConfigError, DivergenceError, FingerprintError
from dmt.experiment import ExperimentConfig
from dmt.models import (ConvConfig, LstmConfig, TransformerConfig, build_model,
                        config_for_arch, label_smoothed_loss)
from dmt.subword import BOS_ID, EOS_ID, PAD_ID, build_vocab
from dmt.training import (AdamState, Checkpoint, PlateauScheduler, TrainConfig, adam_step,
                          dump_fields, format_entries, load_checkpoint, load_fields,
                          make_batches, pad_batch, parse_entries, preset,
                          restore_model, save_checkpoint, snapshot, train)

ALPHABET = [chr(ord("a") + i) for i in range(16)]


def copy_pairs(rng, n, vocab, lo=4, hi=9):
    pairs = []
    for _ in range(n):
        k = int(rng.uniform((), lo, hi))
        ids = vocab.encode([ALPHABET[int(rng.uniform((), 0, 16))] for _ in range(k)])
        pairs.append((ids, ids))
    return pairs


@pytest.fixture(scope="module")
def vocab():
    return build_vocab([ALPHABET * 2])


def tiny_transformer(vocab, seed=3, dropout=0.1):
    cfg = config_for_arch("transformer", enc_layers=1, dec_layers=1, d_model=32,
                          n_heads=2, d_ffn=64, dropout=dropout, max_positions=64)
    return build_model(cfg, vocab, vocab, seed)


class TestTrainConfig:
    def test_exactly_one_batching_mode(self):
        with pytest.raises(ConfigError):
            TrainConfig(max_tokens=100, batch_size=100).validate()
        with pytest.raises(ConfigError):
            TrainConfig(max_tokens=0, batch_size=0).validate()

    def test_default_betas_per_family(self):
        assert TrainConfig(arch="transformer").betas() == (0.9, 0.98)
        assert TrainConfig(arch="lstm", max_tokens=100, batch_size=0).betas() == (0.9, 0.999)

    def test_presets_carry_recipe_values(self):
        t = preset("transformer-scratch")
        assert (t.learning_rate, t.batch_size, t.epochs) == (5e-4, 128, 10)
        assert (t.label_smoothing, t.dropout) == (0.1, 0.1)
        r = preset("lstm")
        assert (r.learning_rate, r.max_tokens, r.epochs) == (0.005, 12000, 25)
        assert (r.dropout, r.lr_shrink) == (0.2, 0.5)
        assert preset("bilstm").epochs == 25
        assert preset("conv").epochs == 20
        ft = preset("finetune-pretrained")
        assert (ft.max_tokens, ft.learning_rate) == (1568, 3e-5)

    def test_preset_returns_copy(self):
        a, b = preset("lstm"), preset("lstm")
        a.epochs = 1
        assert b.epochs == 25


class TestMakeBatches:
    def test_token_packing_five_by_five(self):
        pairs = [([4] * 5, [4] * 5) for _ in range(10)]
        batches, skipped = make_batches(pairs, max_tokens=25, seed=0)
        assert skipped == 0
        assert sorted(len(b) for b in batches) == [5, 5]

    def test_sentence_chunking(self):
        pairs = [([4], [4]) for _ in range(300)]
        batches, _ = make_batches(pairs, batch_size=128, seed=0)
        assert sorted(len(b) for b in batches) == [44, 128, 128]

    def test_oversize_pair_skipped(self):
        pairs = [([4] * 30, [4] * 30), ([4] * 3, [4] * 3)]
        batches, skipped = make_batches(pairs, max_tokens=10, seed=0)
        assert skipped == 1
        assert [len(b) for b in batches] == [1]

    def test_budget_respected_on_random_corpora(self):
        rng = RngState(5)
        for trial in range(20):
            pairs = []
            for _ in range(int(rng.uniform((), 1, 80))):
                s = int(rng.uniform((), 1, 15))
                t = int(rng.uniform((), 1, 15))
                pairs.append(([4] * s, [4] * t))
            cap = int(rng.uniform((), 15, 60))
            batches, skipped = make_batches(pairs, max_tokens=cap, seed=trial)
            seen = [i for b in batches for i in b]
            assert len(seen) + skipped == len(pairs)
            assert len(set(seen)) == len(seen)
            for b in batches:
                ws = max(len(pairs[i][0]) for i in b)
                wt = max(len(pairs[i][1]) for i in b)
                assert ws * len(b) <= cap
                assert wt * len(b) <= cap

    def test_each_pair_exactly_once_per_epoch(self):
        pairs = [([4] * (i % 7 + 1), [4] * (i % 5 + 1)) for i in range(50)]
        batches, _ = make_batches(pairs, batch_size=8, seed=3)
        assert sorted(i for b in batches for i in b) == list(range(50))

    def test_order_shuffles_with_seed(self):
        pairs = [([4] * (i % 7 + 1), [4]) for i in range(64)]
        b1, _ = make_batches(pairs, batch_size=4, seed=1)
        b2, _ = make_batches(pairs, batch_size=4, seed=1)
        b3, _ = make_batches(pairs, batch_size=4, seed=2)
        assert b1 == b2
        assert b1 != b3

    def test_pad_batch_layout(self):
        pairs = [([5, 6, EOS_ID], [7, EOS_ID]), ([4, EOS_ID], [8, 9, 5, EOS_ID])]
        batch = pad_batch(pairs, [0, 1])
        assert batch.src.shape == (2, 3)
        np.testing.assert_array_equal(batch.src[1], [4, EOS_ID, PAD_ID])
        np.testing.assert_array_equal(batch.tgt_in[0], [BOS_ID, 7, PAD_ID, PAD_ID])
        np.testing.assert_array_equal(batch.tgt_out[0], [7, EOS_ID, PAD_ID, PAD_ID])
        np.testing.assert_array_equal(batch.tgt_in[1], [BOS_ID, 8, 9, 5])
        assert batch.n_tokens == 6


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        p.grad = np.zeros(2)
        state = AdamState.init({"p": p})
        adam_step({"p": p}, state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_is_minus_lr(self):
        # bias correction makes m-hat = v-hat = 1 on step one
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([1.0])
        state = AdamState.init({"p": p})
        adam_step({"p": p}, state, lr=0.1, betas=(0.9, 0.999), eps=1e-8)
        assert abs(p.data[0] - 0.9) < 1e-6

    def test_deterministic(self):
        def run():
            p = Tensor([0.5], requires_grad=True)
            state = AdamState.init({"p": p})
            for i in range(5):
                p.grad = np.array([0.3 * (i + 1)])
                adam_step({"p": p}, state, lr=0.01)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_nan_gradient_aborts_before_update(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([np.nan])
        state = AdamState.init({"p": p})
        with pytest.raises(DivergenceError):
            adam_step({"p": p}, state, lr=0.1)
        assert p.data[0] == 1.0
        assert state.t == 0

    def test_clip_norm_scales_update(self):
        p1 = Tensor([0.0], requires_grad=True)
        p2 = Tensor([0.0], requires_grad=True)
        p1.grad, p2.grad = np.array([30.0]), np.array([40.0])  # global norm 50
        state = AdamState.init({"a": p1, "b": p2})
        adam_step({"a": p1, "b": p2}, state, lr=1.0, clip_norm=5.0)
        # after clipping, grads are (3, 4); the Adam direction only sees
        # the clipped values, so both moments are built from them
        assert state.m["a"][0] == pytest.approx(0.1 * 3.0)
        assert state.m["b"][0] == pytest.approx(0.1 * 4.0)


class TestPlateauScheduler:
    def test_shrinks_after_patience(self):
        sched = PlateauScheduler(lr=0.005, shrink=0.5, patience=1, min_improvement=1e-4)
        assert sched.step(1.0) == 0.005          # first loss is an improvement
        assert sched.step(1.0) == 0.0025         # plateau -> halved
        assert sched.step(0.9999) == 0.00125     # < min_improvement -> halved again

    def test_improvement_resets(self):
        sched = PlateauScheduler(lr=0.1, shrink=0.5, patience=2, min_improvement=1e-4)
        sched.step(1.0)
        sched.step(1.0)
        assert sched.lr == 0.1                   # 1 bad epoch < patience
        sched.step(0.5)
        sched.step(0.5)
        assert sched.lr == 0.1
        assert sched.step(0.5) == 0.05           # second consecutive bad epoch

    def test_lr_after_k_shrinks_exact(self):
        sched = PlateauScheduler(lr=0.005, shrink=0.5, patience=1, min_improvement=1e-4)
        sched.step(1.0)
        for _ in range(4):
            sched.step(1.0)
        assert sched.n_shrinks == 4
        assert sched.lr == 0.005 * 0.5 ** 4


class TestCheckpoint:
    def make_ckpt(self, vocab, seed=3):
        model = tiny_transformer(vocab, seed)
        opt = AdamState.init(model.params)
        opt.t = 7
        return model, snapshot(model, opt, epoch=2, dev_loss=1.5, dev_bleu=0.25,
                               train_config=TrainConfig())

    def test_snapshot_and_restore_share_arrays_that_training_leaves_alone(self, vocab):
        pairs = copy_pairs(RngState(5), 6, vocab)
        batch = pad_batch(pairs, range(len(pairs)))
        rng = RngState(9)

        def step(model, opt):
            logits = model.forward(batch.src, batch.src_pad_mask, batch.tgt_in,
                                   training=True, rng=rng)
            ad.zero_grad(model.params)
            ad.backward(label_smoothed_loss(logits, batch.tgt_out, PAD_ID, 0.1))
            adam_step(model.params, opt, lr=0.01, betas=(0.9, 0.98))

        def arrays(ckpt):
            return [{k: np.copy(a) for k, a in d.items()}
                    for d in (ckpt.params, ckpt.opt.m, ckpt.opt.v)]

        def assert_unchanged(ckpt, frozen):
            for d, copies in zip((ckpt.params, ckpt.opt.m, ckpt.opt.v), frozen):
                assert d.keys() == copies.keys()
                for k in d:
                    np.testing.assert_array_equal(d[k], copies[k])

        model = tiny_transformer(vocab)
        opt = AdamState.init(model.params)
        step(model, opt)
        ckpt = snapshot(model, opt)
        frozen = arrays(ckpt)
        step(model, opt)
        step(model, opt)
        assert not np.array_equal(model.params["out.b"].data, ckpt.params["out.b"])
        assert_unchanged(ckpt, frozen)

        restored = restore_model(ckpt, vocab, vocab)
        step(restored, AdamState(dict(ckpt.opt.m), dict(ckpt.opt.v), ckpt.opt.t))
        assert not np.array_equal(restored.params["out.b"].data, ckpt.params["out.b"])
        assert_unchanged(ckpt, frozen)

    def test_save_load_save_byte_identical(self, vocab, tmp_path):
        _, ckpt = self.make_ckpt(vocab)
        p1, p2 = tmp_path / "a.dmt", tmp_path / "b.dmt"
        save_checkpoint(ckpt, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_streamed_file_equals_to_bytes_and_fingerprint(self, vocab, tmp_path):
        _, ckpt = self.make_ckpt(vocab)
        # a column-major tensor is written through a row-major copy
        name = next(k for k in sorted(ckpt.params) if ckpt.params[k].ndim == 2)
        ckpt.params[name] = np.asfortranarray(ckpt.params[name])
        assert not ckpt.params[name].flags.c_contiguous
        save_checkpoint(ckpt, tmp_path / "m.dmt")
        raw = (tmp_path / "m.dmt").read_bytes()
        assert raw == ckpt.to_bytes()
        assert ckpt.fingerprint() == hashlib.sha256(raw).hexdigest()[:16]
        np.testing.assert_array_equal(load_checkpoint(tmp_path / "m.dmt").params[name],
                                      ckpt.params[name])

    def test_forward_bit_identical_after_reload(self, vocab, tmp_path):
        model, ckpt = self.make_ckpt(vocab)
        save_checkpoint(ckpt, tmp_path / "m.dmt")
        restored = restore_model(load_checkpoint(tmp_path / "m.dmt"), vocab, vocab)
        src = np.array([[4, 5, 6, EOS_ID]])
        tgt = np.array([[BOS_ID, 4, 5]])
        with ad.no_grad():
            a = model.forward(src, src == PAD_ID, tgt).data
            b = restored.forward(src, src == PAD_ID, tgt).data
        np.testing.assert_array_equal(a, b)

    def test_metadata_round_trip(self, vocab, tmp_path):
        _, ckpt = self.make_ckpt(vocab)
        save_checkpoint(ckpt, tmp_path / "m.dmt")
        loaded = load_checkpoint(tmp_path / "m.dmt")
        assert loaded.arch == "transformer"
        assert loaded.epoch == 2
        assert loaded.dev_loss == 1.5
        assert loaded.model_config == ckpt.model_config
        assert loaded.train_config == TrainConfig()
        assert loaded.opt.t == 7
        for k in ckpt.params:
            np.testing.assert_array_equal(loaded.params[k], ckpt.params[k])
            np.testing.assert_array_equal(loaded.opt.m[k], ckpt.opt.m[k])

    def test_corrupt_magic_rejected(self, vocab, tmp_path):
        _, ckpt = self.make_ckpt(vocab)
        raw = bytearray(ckpt.to_bytes())
        raw[:4] = b"XXXX"
        bad = tmp_path / "bad.dmt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bad)

    def test_truncated_rejected(self, vocab, tmp_path):
        _, ckpt = self.make_ckpt(vocab)
        raw = ckpt.to_bytes()
        bad = tmp_path / "trunc.dmt"
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)

    def test_every_header_corruption_is_a_checkpoint_error(self, vocab):
        """Every bit flip and every cut up to the end of the first tensor's
        header (the magic, the length fields and the metadata), and one
        trailing byte: each parses or raises CheckpointError, never a raw
        exception."""
        cfg = config_for_arch("conv", enc_layers=1, dec_layers=1, dim=4,
                              kernel_width=3, dropout=0.0, max_positions=8)
        model = build_model(cfg, vocab, vocab, 0)
        raw = snapshot(model, AdamState.init(model.params),
                       train_config=TrainConfig()).to_bytes()
        (meta_len,) = struct.unpack_from("<Q", raw, 4)
        tensors = 4 + 8 + meta_len + 4  # magic, metadata length, metadata, count
        (name_len,) = struct.unpack_from("<I", raw, tensors)
        rank = raw[tensors + 4 + name_len + 1]
        header = tensors + 4 + name_len + 2 + 8 * rank
        cases = [raw[:cut] for cut in range(header)]
        for pos in range(header):
            for bit in range(8):
                bad = bytearray(raw)
                bad[pos] ^= 1 << bit
                cases.append(bytes(bad))
        escaped = Counter()
        for case in cases:
            try:
                Checkpoint.from_bytes(case)
            except CheckpointError:
                pass
            except Exception as e:  # an escape: counted, then asserted absent
                escaped[type(e).__name__] += 1
        assert not escaped
        with pytest.raises(CheckpointError, match="trailing"):
            Checkpoint.from_bytes(raw + b"\0")

    def test_vocab_fingerprint_mismatch(self, vocab, tmp_path):
        _, ckpt = self.make_ckpt(vocab)
        other = build_vocab([["zz", "yy"] * 2])
        with pytest.raises(FingerprintError):
            restore_model(ckpt, other, other)

    def test_fingerprint_stable(self, vocab):
        _, c1 = self.make_ckpt(vocab, seed=3)
        _, c2 = self.make_ckpt(vocab, seed=3)
        _, c3 = self.make_ckpt(vocab, seed=4)
        assert c1.fingerprint() == c2.fingerprint()
        assert c1.fingerprint() != c3.fingerprint()


def with_header(raw: bytes, edit) -> bytes:
    """The checkpoint raw with its metadata lines replaced by edit(lines)."""
    (meta_len,) = struct.unpack_from("<Q", raw, 4)
    lines = raw[12:12 + meta_len].decode("utf-8").splitlines()
    meta = "".join(ln + "\n" for ln in edit(lines)).encode("utf-8")
    return raw[:4] + struct.pack("<Q", len(meta)) + meta + raw[12 + meta_len:]


class TestConfigText:
    """One writer (dump_fields) and one reader (load_fields) carry every
    config dataclass through its `prefix.field=value` text."""

    @pytest.mark.parametrize("cls", [TrainConfig, LstmConfig, ConvConfig,
                                     TransformerConfig, ExperimentConfig])
    def test_default_survives_write_then_read(self, cls):
        # a field the reader cannot type fails here, not in a saved checkpoint
        for prefix in ("", "p"):
            text = format_entries(dump_fields(cls(), prefix))
            assert cls(**load_fields(cls, parse_entries(text.splitlines()), prefix)) == cls()

    def test_field_without_text_form_rejected(self):
        from dataclasses import dataclass

        @dataclass
        class Pair:
            widths: tuple = (1, 2)

        with pytest.raises(ConfigError, match="p.widths"):
            load_fields(Pair, dump_fields(Pair(), "p"), "p")

    @pytest.mark.parametrize("text,value", [
        ("True", True), ("true", True), ("1", True),
        ("False", False), ("false", False), ("0", False)])
    def test_bool_spellings(self, text, value):
        assert load_fields(TransformerConfig, {"allow_uneven_heads": text}) == {
            "allow_uneven_heads": value}

    @pytest.mark.parametrize("key,text", [
        ("allow_uneven_heads", "Fals?"), ("allow_uneven_heads", "no"),
        ("d_model", "6.5"), ("dropout", "x")])
    def test_bad_value_names_its_key(self, key, text):
        with pytest.raises(ConfigError, match=f"cfg.{key}"):
            load_fields(TransformerConfig, {f"cfg.{key}": text}, "cfg")

    def test_unknown_key_skipped_or_strict(self):
        entries = {"cfg.d_model": "8", "cfg.layers": "1", "train.epochs": "3"}
        assert load_fields(TransformerConfig, entries, "cfg") == {"d_model": 8}
        with pytest.raises(ConfigError, match="cfg.layers"):
            load_fields(TransformerConfig, entries, "cfg", strict=True)

    def test_corrupted_header_bool_is_a_checkpoint_error(self, vocab):
        raw = snapshot(tiny_transformer(vocab), train_config=TrainConfig()).to_bytes()
        bad = with_header(raw, lambda lines: [
            "cfg.allow_uneven_heads=Fals?" if ln.startswith("cfg.allow_uneven_heads=")
            else ln for ln in lines])
        assert bad != raw
        with pytest.raises(CheckpointError, match="allow_uneven_heads"):
            Checkpoint.from_bytes(bad)

    @pytest.mark.parametrize("arch", ["transformer", "lstm"])
    def test_header_with_removed_fields_loads(self, vocab, arch):
        """Files written before the Adam and LSTM settings became constants
        carry their entries; they load and restore to identical logits."""
        if arch == "lstm":
            model = build_model(config_for_arch("lstm", embed_dim=8, hidden_dim=8),
                                vocab, vocab, seed=2)
            extra = ["cfg.attention=True", "cfg.layers=1"]
        else:
            model = tiny_transformer(vocab)
            extra = []
        tc = TrainConfig(arch=arch, batch_size=0, max_tokens=100)
        raw = snapshot(model, train_config=tc).to_bytes()
        extra += ["train.adam_beta1=0.0", "train.adam_beta2=0.0", "train.adam_eps=1e-08"]
        old = with_header(raw, lambda lines: sorted(lines + extra))
        loaded = Checkpoint.from_bytes(old)
        assert loaded.model_config == model.config and loaded.train_config == tc
        restored = restore_model(loaded, vocab, vocab)
        src = np.array([[4, 5, 6, EOS_ID]])
        tgt = np.array([[BOS_ID, 4, 5]])
        with ad.no_grad():
            a = model.forward(src, src == PAD_ID, tgt).data
            b = restored.forward(src, src == PAD_ID, tgt).data
        np.testing.assert_array_equal(a, b)
        # written again, the file is what this version writes
        assert loaded.to_bytes() == raw


class TestTrainLoop:
    def base_config(self, **kw):
        kw.setdefault("arch", "transformer")
        kw.setdefault("learning_rate", 3e-3)
        kw.setdefault("batch_size", 16)
        kw.setdefault("epochs", 3)
        kw.setdefault("seed", 5)
        return TrainConfig(**kw)

    def test_empty_corpus_rejected(self, vocab):
        model = tiny_transformer(vocab)
        with pytest.raises(ConfigError):
            train(model, [], [], self.base_config())

    def test_same_seed_identical_reports_and_parameters(self, vocab):
        rng = RngState(2)
        pairs = copy_pairs(rng, 24, vocab)

        def run():
            model = tiny_transformer(vocab, seed=9)
            ckpt, report = train(model, pairs, pairs[:8], self.base_config(epochs=5))
            return ckpt, report

        c1, r1 = run()
        c2, r2 = run()
        assert [(e.train_loss, e.dev_loss, e.dev_bleu) for e in r1.epochs] == \
               [(e.train_loss, e.dev_loss, e.dev_bleu) for e in r2.epochs]
        for k in c1.params:
            np.testing.assert_array_equal(c1.params[k], c2.params[k])

    def test_memorization_loss_drops_10x(self, vocab):
        # 16-pair corpus, a few hundred steps: final loss < initial / 10
        rng = RngState(3)
        pairs = copy_pairs(rng, 16, vocab)
        model = tiny_transformer(vocab, seed=1, dropout=0.0)
        cfg = self.base_config(epochs=40, batch_size=16, label_smoothing=0.0)
        _, report = train(model, pairs, pairs[:4], cfg)
        assert report.epochs[-1].train_loss < report.epochs[0].train_loss / 10

    def test_best_epoch_maximizes_dev_bleu(self, vocab):
        rng = RngState(4)
        pairs = copy_pairs(rng, 24, vocab)
        model = tiny_transformer(vocab, seed=2)
        ckpt, report = train(model, pairs, pairs[:8], self.base_config(epochs=6))
        bleus = [e.dev_bleu for e in report.epochs]
        assert report.best_epoch == bleus.index(max(bleus)) + 1
        assert ckpt.epoch == report.best_epoch

    def test_run_dir_artifacts(self, vocab, tmp_path):
        rng = RngState(5)
        pairs = copy_pairs(rng, 12, vocab)
        model = tiny_transformer(vocab, seed=2)
        run_dir = tmp_path / "run"
        _, report = train(model, pairs, pairs[:4], self.base_config(epochs=3),
                          run_dir=run_dir)
        assert (run_dir / "best.dmt").exists()
        for e in (1, 2, 3):
            assert (run_dir / "checkpoints" / f"epoch{e:03d}.dmt").exists()
        tsv = (run_dir / "report.tsv").read_text().splitlines()
        assert tsv[0] == "epoch\ttrain_loss\tdev_loss\tdev_bleu\tlr"
        assert len(tsv) == 1 + len(report.epochs)

    def test_keep_last_prunes_but_keeps_best(self, vocab, tmp_path):
        rng = RngState(6)
        pairs = copy_pairs(rng, 12, vocab)
        model = tiny_transformer(vocab, seed=2)
        run_dir = tmp_path / "run"
        _, report = train(model, pairs, pairs[:4],
                          self.base_config(epochs=5, keep_last=1), run_dir=run_dir)
        kept = sorted(p.name for p in (run_dir / "checkpoints").iterdir())
        assert f"epoch{report.best_epoch:03d}.dmt" in kept
        assert len(kept) <= 2

    @pytest.mark.parametrize("long_end", ["source", "target"])
    @pytest.mark.parametrize("side", ["train", "dev"])
    def test_pair_past_max_positions_left_out(self, vocab, side, long_end):
        """A pair with more ids (41) than the model has positions (32) is
        left out and counted, and training runs as if it were absent."""
        pairs = copy_pairs(RngState(9), 10, vocab)
        long_ids = vocab.encode(["a"] * 40)
        long_pair = (long_ids, pairs[0][1]) if long_end == "source" else (pairs[0][0], long_ids)
        cfg = config_for_arch("conv", enc_layers=1, dec_layers=1, dim=16,
                              max_positions=32)
        runs = []
        for extra in ([], [long_pair]):
            model = build_model(cfg, vocab, vocab, seed=2)
            train_set = pairs + (extra if side == "train" else [])
            dev_set = pairs[:4] + (extra if side == "dev" else [])
            runs.append(train(model, train_set, dev_set,
                              self.base_config(arch="conv", epochs=2, batch_size=4)))
        (clean_ckpt, clean), (ckpt, report) = runs
        assert (clean.skipped_pairs, report.skipped_pairs) == (0, 1)
        assert report.epochs == clean.epochs
        assert ckpt.fingerprint() == clean_ckpt.fingerprint()

    def test_lr_shrink_on_constructed_plateau(self, vocab):
        """Frozen training (every pair over the token budget, so zero
        steps per epoch) pins dev loss, forcing the plateau rule to halve
        the lr from 0.005 to 0.0025."""
        rng = RngState(7)
        pairs = copy_pairs(rng, 8, vocab, lo=6, hi=9)
        model = tiny_transformer(vocab, seed=2)
        cfg = self.base_config(learning_rate=0.005, lr_shrink=0.5, patience=1,
                               batch_size=0, max_tokens=4, epochs=3)
        _, report = train(model, pairs, pairs[:4], cfg)
        assert report.skipped_pairs == 8
        lrs = [e.lr for e in report.epochs]
        assert lrs[0] == 0.005
        assert 0.0025 in lrs

    def test_divergence_aborts_with_last_good(self, vocab, monkeypatch):
        rng = RngState(8)
        pairs = copy_pairs(rng, 12, vocab)
        model = tiny_transformer(vocab, seed=2)
        real_loss = dmt.training.label_smoothed_loss
        calls = {"n": 0}

        def poisoned(logits, targets, pad_id, eps):
            calls["n"] += 1
            if calls["n"] > 3:
                return Tensor(np.array(np.nan))
            return real_loss(logits, targets, pad_id, eps)

        monkeypatch.setattr(dmt.training, "label_smoothed_loss", poisoned)
        ckpt, report = train(model, pairs, pairs[:4],
                             self.base_config(epochs=10, batch_size=6))
        assert report.diverged
        assert len(report.epochs) < 10
        assert ckpt is not None

    def test_target_bleu_stops_early(self, vocab):
        rng = RngState(9)
        pairs = copy_pairs(rng, 16, vocab)
        model = tiny_transformer(vocab, seed=1, dropout=0.0)
        cfg = self.base_config(epochs=500, batch_size=16, learning_rate=4e-3,
                               target_bleu=0.95)
        ckpt, report = train(model, pairs, pairs, cfg)
        assert report.stopped_early
        assert max(e.dev_bleu for e in report.epochs) >= 0.95
        assert len(report.epochs) < 500


class TestCapacitySmoke:
    @pytest.mark.parametrize("arch", ["lstm", "bilstm", "conv", "transformer"])
    def test_small_models_memorize_16_pairs(self, vocab, arch):
        """Every architecture drives training loss below 0.01 on a 16-pair
        memorization corpus within the step budget."""
        rng = RngState(10)
        pairs = copy_pairs(rng, 16, vocab)
        if arch in ("lstm", "bilstm"):
            cfg = config_for_arch(arch, embed_dim=32, hidden_dim=64, dropout=0.0)
            lr = 1e-2
        elif arch == "conv":
            cfg = config_for_arch(arch, enc_layers=2, dec_layers=2, dim=48,
                                  kernel_width=3, dropout=0.0, max_positions=64)
            lr = 3e-3
        else:
            cfg = config_for_arch(arch, enc_layers=1, dec_layers=1, d_model=48,
                                  n_heads=2, d_ffn=96, dropout=0.0, max_positions=64)
            lr = 3e-3
        model = build_model(cfg, vocab, vocab, seed=4)
        tc = TrainConfig(arch=arch, learning_rate=lr, batch_size=16, epochs=250,
                         label_smoothing=0.0, seed=11, lr_shrink=1.0)
        ckpt, report = train(model, pairs, [], tc)
        best_loss = min(e.train_loss for e in report.epochs)
        assert best_loss < 0.01, f"{arch}: best loss {best_loss}"
