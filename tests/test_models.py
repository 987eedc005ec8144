"""Architecture contracts: shapes, causality, masking, loss semantics."""

import dataclasses
import math

import numpy as np
import pytest

import dmt.autodiff as ad
from dmt.autodiff import RngState, Tensor
from dmt.errors import ConfigError, ShapeError
from dmt.models import (ConvConfig, LstmConfig, TransformerConfig,
                        build_model, config_for_arch, label_smoothed_loss)
from dmt.subword import BOS_ID, EOS_ID, PAD_ID, build_vocab

from oracles import fd_grad_sampled, max_rel_err

ARCHS = ["lstm", "bilstm", "conv", "transformer"]


def vocab_of_size(n):
    return build_vocab([[f"w{i:03d}" for i in range(n - 4) for _ in range(2)]])


def tiny_config(arch):
    if arch in ("lstm", "bilstm"):
        return config_for_arch(arch, embed_dim=8, hidden_dim=12, dropout=0.0)
    if arch == "conv":
        return config_for_arch(arch, enc_layers=2, dec_layers=2, dim=8,
                               kernel_width=3, dropout=0.0, max_positions=32)
    return config_for_arch(arch, enc_layers=2, dec_layers=2, d_model=8,
                           n_heads=2, d_ffn=16, dropout=0.0, max_positions=32)


def tiny_model(arch, seed=0, vs=12, vt=12):
    return build_model(tiny_config(arch), vocab_of_size(vs), vocab_of_size(vt), seed)


def random_batch(rng, b, s, t, vs, vt, pad_cols=0):
    src = np.array(rng.uniform((b, s), 4, vs), dtype=np.int64)
    if pad_cols:
        src = np.concatenate([src, np.full((b, pad_cols), PAD_ID, dtype=np.int64)], axis=1)
    tgt = np.array(rng.uniform((b, t), 4, vt), dtype=np.int64)
    tgt[:, 0] = BOS_ID
    return src, src == PAD_ID, tgt


class TestConfigs:
    def test_transformer_defaults(self):
        cfg = TransformerConfig()
        assert (cfg.enc_layers, cfg.dec_layers) == (3, 3)
        assert (cfg.d_model, cfg.d_ffn, cfg.dropout) == (256, 512, 0.1)
        assert cfg.n_heads == 4

    def test_lstm_defaults(self):
        cfg = LstmConfig()
        assert (cfg.embed_dim, cfg.hidden_dim, cfg.dropout) == (256, 512, 0.2)

    def test_conv_defaults(self):
        cfg = ConvConfig()
        assert (cfg.enc_layers, cfg.dec_layers, cfg.kernel_width) == (4, 4, 3)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            config_for_arch("transformer", d_model=256, n_heads=3)

    def test_uneven_heads_opt_in(self):
        cfg = config_for_arch("transformer", d_model=256, n_heads=3,
                              allow_uneven_heads=True)
        assert cfg.head_dims() == [86, 85, 85]
        assert sum(cfg.head_dims()) == 256

    def test_bilstm_flag(self):
        assert config_for_arch("bilstm").bidirectional
        assert not config_for_arch("lstm").bidirectional

    def test_unknown_arch(self):
        with pytest.raises(ConfigError):
            config_for_arch("rnn")


class TestTapeSize:
    @pytest.mark.parametrize("arch", ["lstm", "bilstm"])
    def test_recurrent_forward_tape_does_not_grow_with_length(self, arch):
        """One fused node per recurrence: the tape of a training forward
        pass has the same length for short and long sentences."""
        model = tiny_model(arch)
        sizes = []
        for s, t in ((1, 1), (3, 2), (11, 9)):
            src, pad, tgt = random_batch(RngState(s), 2, s, t, 12, 12, pad_cols=1)
            before = ad.tape_size()
            loss = label_smoothed_loss(model.forward(src, pad, tgt), np.roll(tgt, -1, axis=1))
            sizes.append(ad.tape_size() - before)
            ad.backward(loss)
            ad.zero_grad(model.params)
        assert sizes[0] == sizes[1] == sizes[2]

    def test_transformer_forward_tape_does_not_grow_with_heads(self):
        """One fused attention node for all heads: the tape of a training
        forward pass has the same length for 1, 2 and 4 heads."""
        src, pad, tgt = random_batch(RngState(5), 2, 4, 3, 12, 12, pad_cols=1)
        sizes = []
        for n_heads in (1, 2, 4):
            cfg = config_for_arch("transformer", enc_layers=1, dec_layers=1, d_model=8,
                                  n_heads=n_heads, d_ffn=16, max_positions=32)
            model = build_model(cfg, vocab_of_size(12), vocab_of_size(12), 0)
            before = ad.tape_size()
            logits = model.forward(src, pad, tgt, training=True, rng=RngState(1))
            loss = label_smoothed_loss(logits, np.roll(tgt, -1, axis=1))
            sizes.append(ad.tape_size() - before)
            ad.backward(loss)
        assert sizes[0] == sizes[1] == sizes[2]


# the loss and dropout stream position of one training forward per
# architecture; any change to training's op order or dropout draws shows here
PINNED_TRAINING_LOSS = {
    "lstm": (2.4849346776910624, 420),
    "bilstm": (2.484862352565579, 420),
    "conv": (2.480197485506641, 360),
    "transformer": (2.6259687575723976, 1440),
}


@pytest.mark.parametrize("arch", ARCHS)
def test_training_forward_matches_pinned_loss(arch):
    cfg = dataclasses.replace(tiny_config(arch), dropout=0.1)
    model = build_model(cfg, vocab_of_size(12), vocab_of_size(12), 4)
    src = np.array([[4, 5, 6, 7, 8], [9, 10, 11, PAD_ID, PAD_ID], [6, 4, PAD_ID, PAD_ID, PAD_ID]])
    tgt = np.array([[BOS_ID, 5, 7, 9, 11, EOS_ID], [BOS_ID, 8, 4, EOS_ID, PAD_ID, PAD_ID],
                    [BOS_ID, 10, 6, 11, EOS_ID, PAD_ID]])
    rng = RngState(2024)
    logits = model.forward(src, src == PAD_ID, tgt[:, :-1], training=True, rng=rng)
    loss = label_smoothed_loss(logits, tgt[:, 1:])
    ad.backward(loss)
    want_loss, want_position = PINNED_TRAINING_LOSS[arch]
    assert loss.item() == pytest.approx(want_loss, rel=1e-12, abs=0)
    assert rng.position == want_position


class TestBuild:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_same_seed_bit_identical(self, arch):
        m1, m2 = tiny_model(arch, seed=7), tiny_model(arch, seed=7)
        assert m1.params.keys() == m2.params.keys()
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_cast_copies_parameters_and_leaves_the_model(self, arch):
        model = tiny_model(arch)
        assert model.cast("float64") is model
        twin = model.cast("float32")
        assert twin.cast("float32") is twin and twin.dtype == np.float32
        for name, p in model.params.items():
            assert p.data.dtype == np.float64 and p.requires_grad
            q = twin.params[name]
            assert q.data.dtype == np.float32 and not q.requires_grad
            np.testing.assert_array_equal(q.data, p.data.astype(np.float32))

    def test_different_seed_differs(self):
        m1, m2 = tiny_model("transformer", seed=1), tiny_model("transformer", seed=2)
        assert any(not np.array_equal(m1.params[n].data, m2.params[n].data)
                   for n in m1.params)

    def test_transformer_param_count_closed_form(self):
        v = 100
        cfg = TransformerConfig()
        model = build_model(cfg, vocab_of_size(v), vocab_of_size(v), seed=0)
        d, f = cfg.d_model, cfg.d_ffn
        attn = 4 * (d * d + d) + 2 * d          # q/k/v/o projections + LN
        ffn = d * f + f + f * d + d + 2 * d     # two linears + LN
        enc_layer = attn + ffn
        dec_layer = 2 * attn + ffn
        expected = (2 * v * d                       # embeddings
                    + cfg.enc_layers * enc_layer
                    + cfg.dec_layers * dec_layer
                    + 2 * 2 * d                     # final encoder/decoder LN
                    + d * v + v)                    # output projection
        assert model.param_count() == expected

    def test_uneven_heads_same_param_count(self):
        v = 50
        even = build_model(config_for_arch("transformer", n_heads=4),
                           vocab_of_size(v), vocab_of_size(v), 0)
        uneven = build_model(
            config_for_arch("transformer", n_heads=3, allow_uneven_heads=True),
            vocab_of_size(v), vocab_of_size(v), 0)
        assert even.param_count() == uneven.param_count()


class TestForwardContracts:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_logit_shape(self, arch):
        model = tiny_model(arch)
        rng = RngState(1)
        src, pad, tgt = random_batch(rng, 3, 5, 4, 12, 12)
        logits = model.forward(src, pad, tgt)
        assert logits.shape == (3, 4, 12)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_batch_equivariance(self, arch):
        model = tiny_model(arch)
        rng = RngState(2)
        src, pad, tgt = random_batch(rng, 4, 6, 5, 12, 12, pad_cols=1)
        perm = [2, 0, 3, 1]
        with ad.no_grad():
            out = model.forward(src, pad, tgt).data
            out_p = model.forward(src[perm], pad[perm], tgt[perm]).data
        np.testing.assert_array_equal(out[perm], out_p)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_out_of_range_ids_rejected(self, arch):
        model = tiny_model(arch)
        with pytest.raises(ShapeError):
            model.encode(np.array([[99]]))

    @pytest.mark.parametrize("arch", ARCHS)
    def test_all_pad_input_flagged(self, arch):
        model = tiny_model(arch)
        src = np.full((2, 4), PAD_ID, dtype=np.int64)
        with ad.no_grad():
            memory = model.encode(src)
        assert memory.pad_mask.all()
        assert memory.states is not None

    @pytest.mark.parametrize("arch", ARCHS)
    def test_empty_prefix_rejected(self, arch):
        model = tiny_model(arch)
        memory = model.encode(np.array([[4, 5]]))
        with pytest.raises(ShapeError):
            model.decode_step(memory, np.zeros((1, 0), dtype=np.int64))

    @pytest.mark.parametrize("arch", ARCHS)
    def test_prefix_must_start_with_bos(self, arch):
        model = tiny_model(arch)
        memory = model.encode(np.array([[4, 5]]))
        with pytest.raises(ShapeError):
            model.decode_step(memory, np.array([[4, 5]]))

    def test_ragged_heads_step_and_causality(self):
        """Width 10 over 3 heads (4/3/3): incremental steps reproduce the
        teacher-forced logits at every position, and a future target token
        changes no earlier logit."""
        cfg = config_for_arch("transformer", enc_layers=1, dec_layers=2, d_model=10,
                              n_heads=3, d_ffn=12, dropout=0.0, max_positions=32,
                              allow_uneven_heads=True)
        assert cfg.head_dims() == [4, 3, 3]
        model = build_model(cfg, vocab_of_size(12), vocab_of_size(12), 0)
        src, pad, tgt = random_batch(RngState(6), 2, 5, 6, 12, 12, pad_cols=2)
        with ad.no_grad():
            memory = model.encode(src, pad)
            full = model.decode_step(memory, tgt).data
            state = model.init_state(memory)
            for t in range(tgt.shape[1]):
                logits, state = model.step(state, tgt[:, t])
                np.testing.assert_allclose(logits, full[:, t], rtol=0, atol=1e-9)
            for t in range(tgt.shape[1] - 1):
                bumped = tgt.copy()
                bumped[:, t + 1] = (bumped[:, t + 1] - 4 + 1) % 8 + 4
                out = model.decode_step(memory, bumped).data
                assert np.array_equal(out[:, :t + 1], full[:, :t + 1])

    def test_bilstm_memory_is_projected_to_decoder_width(self):
        # both directions' states and final states are projected from 2H to H
        model = tiny_model("bilstm")
        memory = model.encode(np.array([[4, 5, 6], [7, 8, PAD_ID]]))
        hd = model.config.hidden_dim
        assert memory.states.shape == (2, 3, hd)
        assert memory.h0.shape == (2, hd) and memory.c0.shape == (2, hd)

    def test_conv_zeroed_layers_are_identity(self):
        # with all conv kernels and biases zeroed, GLU gates output zero and
        # every residual block passes its input through unchanged
        model = tiny_model("conv")
        for name, p in model.params.items():
            if ".kernel" in name or name.endswith(".b") and "enc." in name:
                p.data[:] = 0.0
        ids = np.array([[4, 5, 6]])
        with ad.no_grad():
            states = model.encode(ids).states.data
            expected = (model.params["src_embed"].data[ids]
                        + model.params["enc_pos"].data[:3])
        np.testing.assert_allclose(states, expected, atol=1e-15)

    def test_bilstm_palindrome_probe(self):
        # reversing a palindromic input is a no-op, so the pooled encoder
        # state (and the whole memory) must come out identical
        model = tiny_model("bilstm")
        ids = np.array([[4, 7, 9, 7, 4]])
        with ad.no_grad():
            fwd = model.encode(ids)
            rev = model.encode(ids[:, ::-1].copy())
        np.testing.assert_array_equal(fwd.h0.data, rev.h0.data)
        np.testing.assert_array_equal(fwd.c0.data, rev.c0.data)
        np.testing.assert_array_equal(fwd.states.data, rev.states.data)


class TestCausality:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_future_target_perturbation(self, arch):
        """Changing the target token at t+1 leaves logits at <= t bit-identical."""
        model = tiny_model(arch)
        rng = RngState(3)
        src, pad, tgt = random_batch(rng, 2, 5, 6, 12, 12)
        with ad.no_grad():
            base = model.forward(src, pad, tgt).data
        for t in range(tgt.shape[1] - 1):
            bumped = tgt.copy()
            bumped[:, t + 1] = (bumped[:, t + 1] - 4 + 1) % 8 + 4
            with ad.no_grad():
                out = model.forward(src, pad, bumped).data
            assert np.array_equal(out[:, :t + 1, :], base[:, :t + 1, :]), \
                f"{arch}: future perturbation at {t + 1} leaked backwards"

    @pytest.mark.parametrize("arch", ARCHS)
    def test_pad_source_invariance(self, arch):
        """Appending masked pads to the source moves no logit by > 1e-9."""
        model = tiny_model(arch)
        rng = RngState(4)
        src, pad, tgt = random_batch(rng, 2, 5, 4, 12, 12)
        with ad.no_grad():
            base = model.forward(src, pad, tgt).data
        padded = np.concatenate([src, np.full((2, 3), PAD_ID, dtype=np.int64)], axis=1)
        with ad.no_grad():
            out = model.forward(padded, padded == PAD_ID, tgt).data
        assert np.abs(out - base).max() <= 1e-9

    @pytest.mark.parametrize("arch", ARCHS)
    def test_masked_source_token_invariance(self, arch):
        """Changing the id under a pad mask moves no logit by > 1e-9."""
        model = tiny_model(arch)
        rng = RngState(5)
        src, _, tgt = random_batch(rng, 2, 5, 4, 12, 12)
        pad = np.zeros_like(src, dtype=bool)
        pad[:, -1] = True
        with ad.no_grad():
            base = model.forward(src, pad, tgt).data
        bumped = src.copy()
        bumped[:, -1] = 4 + (bumped[:, -1] - 4 + 3) % 8
        with ad.no_grad():
            out = model.forward(bumped, pad, tgt).data
        assert np.abs(out - base).max() <= 1e-9


class TestLabelSmoothedLoss:
    def test_perfect_prediction_eps_zero(self):
        # probability ~1 on the target: loss ~ 0
        logits = Tensor(np.array([[[30.0, 0.0, 0.0, 0.0]]]))
        loss = label_smoothed_loss(logits, np.array([[0]]), pad_id=3, epsilon=0.0)
        assert loss.item() < 1e-10

    def test_uniform_logits_any_eps(self):
        logits = Tensor(np.zeros((1, 1, 4)))
        for eps in (0.0, 0.1, 0.5):
            loss = label_smoothed_loss(logits, np.array([[2]]), pad_id=0, epsilon=eps)
            assert abs(loss.item() - math.log(4)) < 1e-12

    def test_hand_case_binary_vocab(self):
        # |V|=2, p=(0.9, 0.1), target 0, eps 0.1; brute-force evaluation of
        # (1-eps)*(-ln p0) + eps*(1/2)*(-ln p0 - ln p1)
        p = np.array([0.9, 0.1])
        eps = 0.1
        expected = (1 - eps) * -math.log(p[0]) + eps * 0.5 * (
            -math.log(p[0]) - math.log(p[1]))
        assert abs(expected - 0.2152217446) < 1e-9
        logits = Tensor(np.log(p)[None, None, :])
        loss = label_smoothed_loss(logits, np.array([[0]]), pad_id=1, epsilon=eps)
        assert abs(loss.item() - expected) < 1e-12

    def test_pad_positions_contribute_nothing(self):
        rng = RngState(6)
        raw = rng.uniform((1, 2, 5), -2, 2)
        logits_short = Tensor(raw, requires_grad=True)
        loss_short = label_smoothed_loss(logits_short, np.array([[4, 3]]), epsilon=0.1)
        padded = np.concatenate([raw, rng.uniform((1, 2, 5), -2, 2)], axis=1)
        logits_pad = Tensor(padded, requires_grad=True)
        loss_pad = label_smoothed_loss(logits_pad,
                                       np.array([[4, 3, PAD_ID, PAD_ID]]), epsilon=0.1)
        assert abs(loss_short.item() - loss_pad.item()) < 1e-15
        ad.backward(loss_pad)
        assert np.abs(logits_pad.grad[:, 2:, :]).max() == 0.0
        ad.backward(loss_short)  # drain tape

    def test_all_pad_rejected(self):
        with pytest.raises(ShapeError):
            label_smoothed_loss(Tensor(np.zeros((1, 2, 4))),
                                np.array([[PAD_ID, PAD_ID]]), epsilon=0.1)

    def test_bad_epsilon(self):
        with pytest.raises(ConfigError):
            label_smoothed_loss(Tensor(np.zeros((1, 1, 4))), np.array([[1]]),
                                epsilon=1.0)

    def test_strictly_positive_for_positive_eps(self):
        logits = Tensor(np.array([[[50.0, 0.0, 0.0]]]))
        loss = label_smoothed_loss(logits, np.array([[0]]), pad_id=2, epsilon=0.1)
        assert loss.item() > 0.0

    def test_logit_shift_invariance(self):
        rng = RngState(7)
        raw = rng.uniform((2, 3, 6), -2, 2)
        tgt = np.array([[4, 5, 1], [2, 3, 1]])
        base = label_smoothed_loss(Tensor(raw), tgt, epsilon=0.1).item()
        shifted = label_smoothed_loss(Tensor(raw + 7.3), tgt, epsilon=0.1).item()
        assert abs(base - shifted) < 1e-12

    def test_probabilities_shift_invariant(self):
        rng = RngState(8)
        raw = rng.uniform((1, 1, 5), -3, 3)
        p1 = ad.softmax(Tensor(raw), axis=-1).data
        p2 = ad.softmax(Tensor(raw + 123.456), axis=-1).data
        assert np.abs(p1 - p2).max() < 1e-12


class TestArchGradients:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_loss_gradients_match_finite_differences(self, arch):
        model = tiny_model(arch, seed=11)
        rng = RngState(9)
        src, pad, tgt = random_batch(rng, 2, 4, 4, 12, 12)
        tgt_out = np.roll(tgt, -1, axis=1)
        tgt_out[:, -1] = EOS_ID

        def loss_value():
            with ad.no_grad():
                logits = model.forward(src, pad, tgt)
                return label_smoothed_loss(logits, tgt_out, epsilon=0.1).item()

        loss = label_smoothed_loss(model.forward(src, pad, tgt), tgt_out, epsilon=0.1)
        ad.backward(loss)
        check_rng = RngState(10)
        for name, p in model.params.items():
            assert p.grad is not None, f"{arch}: no gradient for {name}"
            n_idx = min(4, p.size)
            idx = np.unique((check_rng.uniform((n_idx,), 0, p.size)).astype(int))
            numeric = fd_grad_sampled(loss_value, p.data, idx)
            analytic = p.grad.reshape(-1)[idx]
            err = max_rel_err(analytic, numeric)
            assert err < 1e-4, f"{arch}.{name}: rel err {err}"
        ad.zero_grad(model.params)
