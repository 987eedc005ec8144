"""Tensor op semantics and gradient checks against central finite differences."""

import numpy as np
import pytest

import dmt.autodiff as ad
from dmt.autodiff import RngState, Tensor
from dmt.errors import ShapeError

from oracles import (attention_reference, conv1d_reference, fd_grad, lstm_reference,
                     max_rel_err)

GRAD_TOL = 1e-4
FD_H = 1e-5


def check_grads(build, tensors, tol=GRAD_TOL, seed=0):
    """Analytic gradients (backward) vs central finite differences.

    build() recomputes the op output from the current tensor contents;
    the loss is a fixed random weighting of the output so every entry
    contributes.
    """
    out = build()
    w = RngState(seed).uniform(out.shape if out.shape else (1,), -1.0, 1.0).reshape(out.shape)
    loss = ad.reduce_sum(ad.mul(out, w))
    ad.backward(loss)
    analytic = [t.grad.copy() for t in tensors]

    def f():
        with ad.no_grad():
            o = build()
        return float((o.data * w).sum())

    for t, a in zip(tensors, analytic):
        numeric = fd_grad(f, t.data, FD_H)
        err = max_rel_err(a, numeric)
        assert err < tol, f"gradient mismatch: rel err {err}"
    ad.zero_grad(tensors)


def rand(rng, *shape):
    return Tensor(rng.uniform(shape, -1.0, 1.0), requires_grad=True)


class TestElementwise:
    def test_add_values(self):
        out = ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mul_identity(self):
        x = Tensor([[1.0, -2.0], [0.5, 3.0]])
        out = ad.mul(x, Tensor(np.ones((2, 2))))
        np.testing.assert_array_equal(out.data, x.data)

    def test_broadcast_add_shape(self):
        out = ad.add(Tensor(np.zeros((2, 3))), Tensor(np.ones((1, 3))))
        assert out.shape == (2, 3)

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_grads(self, op):
        rng = RngState(11)
        a, b = rand(rng, 2, 3), rand(rng, 2, 3)
        check_grads(lambda: op(a, b), [a, b])

    def test_broadcast_grads(self):
        rng = RngState(12)
        a, b = rand(rng, 4, 3), rand(rng, 1, 3)
        check_grads(lambda: ad.mul(a, b), [a, b])


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_row_times_column(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_grad_of_sum_is_ones_times_bt(self):
        rng = RngState(13)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        loss = ad.reduce_sum(ad.matmul(a, b))
        ad.backward(loss)
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T, rtol=1e-12)

    def test_grads_2d(self):
        rng = RngState(14)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        check_grads(lambda: ad.matmul(a, b), [a, b])

    def test_grads_batched(self):
        rng = RngState(15)
        a, b = rand(rng, 2, 3, 4), rand(rng, 2, 4, 2)
        check_grads(lambda: ad.matmul(a, b), [a, b])

    def test_grads_batched_times_plain(self):
        rng = RngState(16)
        a, b = rand(rng, 2, 3, 4), rand(rng, 4, 5)
        check_grads(lambda: ad.matmul(a, b), [a, b])


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_stability(self):
        out = ad.softmax(Tensor([1000.0, 0.0]))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-300)

    def test_rows_sum_to_one(self):
        rng = RngState(17)
        x = Tensor(rng.uniform((50, 9), -30.0, 30.0))
        out = ad.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_masked_positions_exact_zero(self):
        x = Tensor([[1.0, ad.NEG_INF, 2.0]])
        out = ad.softmax(x, axis=-1)
        assert out.data[0, 1] == 0.0
        np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-15)

    def test_all_masked_row_is_zero_and_faulted(self):
        ad.reset_faults()
        out = ad.softmax(Tensor([[ad.NEG_INF, ad.NEG_INF]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])
        assert ad.fault_count() == 1
        ad.reset_faults()

    def test_log_softmax_matches_log_of_softmax(self):
        rng = RngState(18)
        x = rng.uniform((20, 7), -5.0, 5.0)
        ls = ad.log_softmax(Tensor(x), axis=-1)
        np.testing.assert_allclose(ls.data, np.log(ad.softmax(Tensor(x), axis=-1).data),
                                   atol=1e-9)

    def test_grads(self):
        rng = RngState(19)
        x = rand(rng, 3, 5)
        check_grads(lambda: ad.softmax(x, axis=-1), [x])
        check_grads(lambda: ad.log_softmax(x, axis=-1), [x])


class TestActivations:
    def test_fixed_points(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5
        assert ad.tanh(Tensor(0.0)).item() == 0.0
        assert ad.relu(Tensor(-1.0)).item() == 0.0

    @pytest.mark.parametrize("op", [ad.sigmoid, ad.tanh, ad.relu])
    def test_grads(self, op):
        rng = RngState(20)
        # keep points away from the relu kink
        x = Tensor(rng.uniform((4, 4), 0.1, 2.0) * np.sign(rng.uniform((4, 4), -1, 1)),
                   requires_grad=True)
        check_grads(lambda: op(x), [x], tol=1e-5)


class TestLayerNorm:
    def test_constant_row_gives_beta(self):
        x = Tensor(np.full((2, 4), 3.7))
        gamma, beta = Tensor(np.ones(4)), Tensor([1.0, -2.0, 0.5, 0.0])
        out = ad.layer_norm(x, gamma, beta)
        np.testing.assert_allclose(out.data, np.broadcast_to(beta.data, (2, 4)), atol=1e-12)

    def test_standardizes(self):
        rng = RngState(21)
        x = Tensor(rng.uniform((6, 16), -4.0, 4.0))
        out = ad.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-4)

    def test_grads(self):
        rng = RngState(22)
        x, gamma, beta = rand(rng, 3, 6), rand(rng, 6), rand(rng, 6)
        check_grads(lambda: ad.layer_norm(x, gamma, beta), [x, gamma, beta])


class TestEmbedding:
    def test_row_gather(self):
        table = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = ad.embedding(table, np.array([0, 2]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [5.0, 6.0]])

    def test_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.embedding(Tensor(np.zeros((3, 2))), np.array([3]))

    def test_duplicate_ids_accumulate(self):
        rng = RngState(23)
        table = rand(rng, 3, 2)
        ids = np.array([1, 1, 0])
        check_grads(lambda: ad.embedding(table, ids), [table])
        # explicit x2 check on the duplicated row
        out = ad.embedding(table, ids)
        ad.backward(ad.reduce_sum(out))
        np.testing.assert_allclose(table.grad[1], [2.0, 2.0])
        table.zero_grad()


class TestConv:
    def test_width_one_identity(self):
        rng = RngState(24)
        x = Tensor(rng.uniform((2, 5, 3)))
        kernel = Tensor(np.eye(3)[None, :, :])
        out = ad.conv1d(x, kernel, pad_mode="same")
        np.testing.assert_allclose(out.data, x.data)

    def test_causal_ignores_future(self):
        rng = RngState(25)
        base = rng.uniform((1, 6, 2))
        kernel = Tensor(rng.uniform((3, 2, 4)))
        out1 = ad.conv1d(Tensor(base), kernel, pad_mode="causal")
        bumped = base.copy()
        bumped[0, 4, :] += 10.0
        out2 = ad.conv1d(Tensor(bumped), kernel, pad_mode="causal")
        np.testing.assert_array_equal(out1.data[:, :4, :], out2.data[:, :4, :])
        assert not np.array_equal(out1.data[:, 4:, :], out2.data[:, 4:, :])

    def test_even_kernel_same_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv1d(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((2, 2, 2))), "same")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ShapeError, match="unknown pad_mode"):
            ad.conv1d(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((3, 2, 2))), "full")

    def test_valid_is_causal_without_the_padded_outputs(self):
        rng = RngState(27)
        x, kernel = Tensor(rng.uniform((2, 6, 3))), Tensor(rng.uniform((3, 3, 4)))
        valid = ad.conv1d(x, kernel, pad_mode="valid")
        assert valid.shape == (2, 4, 4)
        np.testing.assert_allclose(valid.data, ad.conv1d(x, kernel, "causal").data[:, 2:],
                                   rtol=0, atol=1e-12)
        with pytest.raises(ShapeError):
            ad.conv1d(Tensor(np.zeros((1, 2, 3))), kernel, "valid")

    @pytest.mark.parametrize("mode", ["same", "causal", "valid"])
    def test_grads(self, mode):
        rng = RngState(26)
        x, kernel = rand(rng, 2, 5, 3), rand(rng, 3, 3, 4)
        check_grads(lambda: ad.conv1d(x, kernel, pad_mode=mode), [x, kernel])

    @staticmethod
    def against_reference(bsz, t_len, k, mode, seed):
        """Largest relative deviations of the output and of the x and
        kernel gradients of ad.conv1d from the per-tap reference."""
        rng = RngState(seed)
        x, kernel = rand(rng, bsz, t_len, 3), rand(rng, k, 3, 4)

        def run(fn):
            out = fn(x, kernel, mode)
            w = RngState(seed + 1).uniform(out.shape, -1.0, 1.0)
            ad.backward(ad.reduce_sum(ad.mul(out, w)))
            grads = [x.grad, kernel.grad]
            ad.zero_grad([x, kernel])
            return out.data, grads

        out, grads = run(ad.conv1d)
        ref_out, ref_grads = run(conv1d_reference)
        assert out.shape == ref_out.shape
        return [rel_diff(out, ref_out)] + [rel_diff(g, r) for g, r in zip(grads, ref_grads)]

    # every pad mode and kernel width at T = 9, then inputs shorter than
    # the padding, where some taps read only zeros and their column spans
    # must come out empty, not wrap round
    @pytest.mark.parametrize("bsz, t_len, k, mode", [
        (bsz, 9, k, mode) for bsz in (1, 3) for k in (1, 3, 5, 7)
        for mode in ("same", "causal", "valid")] + [
        (2, 2, 7, "same"), (2, 1, 7, "same"), (2, 3, 7, "same"),
        (2, 1, 5, "causal"), (2, 2, 7, "causal")])
    def test_matches_per_tap_reference(self, bsz, t_len, k, mode):
        """im2col changes only the summation order: output and both
        gradients agree with the per-tap loop to rounding."""
        devs = self.against_reference(bsz, t_len, k, mode, seed=80 + bsz + t_len + k)
        assert max(devs) <= 1e-13, devs


class TestGlu:
    def test_zero_gate_halves(self):
        a = np.array([[2.0, -4.0]])
        x = Tensor(np.concatenate([a, np.zeros_like(a)], axis=-1))
        out = ad.glu(x)
        np.testing.assert_allclose(out.data, a * 0.5)

    def test_shape_halving(self):
        out = ad.glu(Tensor(np.zeros((2, 3, 8))))
        assert out.shape == (2, 3, 4)

    def test_grads(self):
        rng = RngState(27)
        x = rand(rng, 2, 3, 6)
        check_grads(lambda: ad.glu(x), [x])


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.arange(6.0))
        assert ad.dropout(x, 0.5, RngState(1), training=False) is x

    def test_p_zero_is_identity(self):
        x = Tensor(np.arange(6.0))
        assert ad.dropout(x, 0.0, RngState(1), training=True) is x

    def test_empirical_rate(self):
        rng = RngState(99)
        p = 0.1
        n = 1_000_000
        out = ad.dropout(Tensor(np.ones(n)), p, rng, training=True)
        zero_rate = float((out.data == 0.0).mean())
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(zero_rate - p) < 3 * sigma
        # survivors rescaled
        survivors = out.data[out.data != 0.0]
        np.testing.assert_allclose(survivors, 1.0 / (1 - p))

    def test_same_seed_same_mask(self):
        x = Tensor(np.ones(1000))
        m1 = ad.dropout(x, 0.3, RngState(5), training=True).data
        m2 = ad.dropout(x, 0.3, RngState(5), training=True).data
        np.testing.assert_array_equal(m1, m2)

    def test_grads_fixed_mask(self):
        rng = RngState(28)
        x = rand(rng, 5, 5)
        check_grads(lambda: ad.dropout(x, 0.4, RngState(3), training=True), [x])


class TestStructural:
    def test_concat_slice_roundtrip(self):
        a, b = Tensor(np.arange(6.0).reshape(2, 3)), Tensor(np.arange(8.0).reshape(2, 4))
        cat = ad.concat([a, b], axis=1)
        np.testing.assert_array_equal(ad.slice_axis(cat, 1, 0, 3).data, a.data)
        np.testing.assert_array_equal(ad.slice_axis(cat, 1, 3, 7).data, b.data)

    def test_reshape_preserves_order(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        np.testing.assert_array_equal(ad.reshape(x, (2, 6)).data.reshape(-1),
                                      np.arange(12.0))

    @pytest.mark.parametrize("build_name", ["concat", "slice", "transpose", "reshape",
                                            "gather_last", "select_time", "gather_time",
                                            "reduce_sum", "reduce_mean"])
    def test_grads(self, build_name):
        rng = RngState(29)
        x = rand(rng, 3, 4, 2)
        y = rand(rng, 3, 2, 2)
        builds = {
            "concat": (lambda: ad.concat([x, y], axis=1), [x, y]),
            "slice": (lambda: ad.slice_axis(x, 1, 1, 3), [x]),
            "transpose": (lambda: ad.transpose(x, (0, 2, 1)), [x]),
            "reshape": (lambda: ad.reshape(x, (3, 8)), [x]),
            "gather_last": (lambda: ad.gather_last(x, np.array([[1, 0, 1, 1],
                                                                [0, 0, 1, 0],
                                                                [1, 1, 0, 0]])), [x]),
            "select_time": (lambda: ad.select_time(x, np.array([0, 3, 2])), [x]),
            "gather_time": (lambda: ad.gather_time(x, np.array([[1, 0, 2, 3],
                                                                [3, 3, 0, 1],
                                                                [2, 1, 0, 0]])), [x]),
            "reduce_sum": (lambda: ad.reduce_sum(x, axis=1), [x]),
            "reduce_mean": (lambda: ad.reduce_mean(x, axis=-1), [x]),
        }
        build, tensors = builds[build_name]
        check_grads(build, tensors)


def rel_diff(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestLstm:
    E, H = 3, 4

    def inputs(self, t_len, seed):
        """A batch of three rows with real lengths t_len, t_len - 2 and 1 (at
        least 1), weights, and an initial state."""
        rng = RngState(seed)
        x = rand(rng, 3, t_len, self.E)
        w_ih, w_hh = rand(rng, self.E, 4 * self.H), rand(rng, self.H, 4 * self.H)
        b, h0, c0 = rand(rng, 4 * self.H), rand(rng, 3, self.H), rand(rng, 3, self.H)
        lengths = np.array([t_len, max(t_len - 2, 1), 1])
        return x, w_ih, w_hh, b, h0, c0, lengths

    @pytest.mark.parametrize("loss_on", ["hs", "cs", "both"])
    @pytest.mark.parametrize("initial", ["given", "omitted"])
    @pytest.mark.parametrize("t_len", [1, 2, 7])
    def test_matches_per_step_reference(self, t_len, initial, loss_on):
        x, w_ih, w_hh, b, h0, c0, lengths = self.inputs(t_len, 40 + t_len)
        state = (h0, c0) if initial == "given" else (None, None)
        inputs = [x, w_ih, w_hh, b] + ([h0, c0] if initial == "given" else [])
        pad = np.arange(t_len)[None, :] >= lengths[:, None]
        rng = RngState(7)
        w_hs = rng.uniform((3, t_len, self.H), -1.0, 1.0) * ~pad[:, :, None]
        w_cs = rng.uniform((3, self.H), -1.0, 1.0)

        def run(fn):
            hs, cs = fn(x, w_ih, w_hh, b, *state)
            terms = []
            if loss_on in ("hs", "both"):
                terms.append(ad.reduce_sum(ad.mul(hs, w_hs)))
            if loss_on in ("cs", "both"):
                # as the encoder reads it: the cell state at each row's last real step
                terms.append(ad.reduce_sum(ad.mul(ad.select_time(cs, lengths - 1), w_cs)))
            ad.backward(terms[0] if len(terms) == 1 else ad.add(*terms))
            grads = [t.grad for t in inputs]
            ad.zero_grad(inputs)
            return hs.data, cs.data, grads

        hs, cs, grads = run(ad.lstm)
        ref_hs, ref_cs, ref_grads = run(lstm_reference)
        assert hs.shape == cs.shape == ref_hs.shape == (3, t_len, self.H)
        assert rel_diff(hs, ref_hs) <= 1e-12 and rel_diff(cs, ref_cs) <= 1e-12
        for got, want in zip(grads, ref_grads):
            assert got is not None and rel_diff(got, want) <= 1e-12

    def test_mismatched_shapes_rejected(self):
        x, w_ih, w_hh, b, h0, c0, _ = self.inputs(2, 5)
        with pytest.raises(ShapeError):
            ad.lstm(x, w_hh, w_hh, b)
        with pytest.raises(ShapeError):
            ad.lstm(x, w_ih, w_hh, b, h0=Tensor(np.zeros((2, self.H))))


class TestAttention:
    # "dot" is the LSTM and conv decoders' attention: one unscaled head
    # over the encoder states as both keys and values
    HEADS = {"even": [4, 4], "ragged": [3, 3, 2], "dot": [8]}

    @staticmethod
    def bias_of(kind, tq, tk):
        if kind == "none":
            return None
        if kind == "causal":
            return Tensor(np.triu(np.full((tq, tk), ad.NEG_INF), k=1)[None])
        # source pads: row 1 has two pads, row 2 is all pad
        pad = np.zeros((3, tk), dtype=bool)
        pad[1, tk - 2:] = True
        pad[2] = True
        return Tensor(np.where(pad[:, None, :], ad.NEG_INF, 0.0))

    @pytest.mark.parametrize("heads", sorted(HEADS))
    @pytest.mark.parametrize("bias_kind, tq, tk", [
        ("none", 3, 5), ("none", 1, 5), ("pad", 3, 5), ("pad", 1, 5), ("causal", 4, 4)])
    def test_matches_per_head_reference(self, heads, bias_kind, tq, tk):
        """Output, q/k/v gradients and fault count of the fused op agree
        with the per-head composition, with Tq != Tk, the decode step's
        Tq = 1, no bias, a causal bias, source pads with one fully masked
        row, and keys that are the values."""
        dims = self.HEADS[heads]
        rng = RngState(60 + tq + tk)
        d = sum(dims)
        q, k = rand(rng, 3, tq, d), rand(rng, 3, tk, d)
        v = k if heads == "dot" else rand(rng, 3, tk, d)
        scale = 1.0 if heads == "dot" else 1.0 / np.sqrt(dims)
        bias = self.bias_of(bias_kind, tq, tk)
        w = rng.uniform((3, tq, d), -1.0, 1.0)

        def run(fn):
            ad.reset_faults()
            out = fn(q, k, v, bias, dims, scale)
            faults = ad.fault_count()
            ad.backward(ad.reduce_sum(ad.mul(out, w)))
            grads = [t.grad for t in (q, k, v)]
            ad.zero_grad([q, k, v])
            return out.data, grads, faults

        out, grads, faults = run(ad.attention)
        ref_out, ref_grads, ref_faults = run(attention_reference)
        ad.reset_faults()
        assert out.shape == (3, tq, d)
        assert faults == ref_faults == (len(dims) * tq if bias_kind == "pad" else 0)
        assert rel_diff(out, ref_out) <= 1e-12
        for got, want in zip(grads, ref_grads):
            assert got is not None and rel_diff(got, want) <= 1e-12

    def test_mismatched_shapes_rejected(self):
        x = Tensor(np.zeros((2, 3, 8)))
        with pytest.raises(ShapeError):
            ad.attention(x, Tensor(np.zeros((2, 3, 6))), Tensor(np.zeros((2, 3, 6))),
                         None, [4, 4], 0.5)
        with pytest.raises(ShapeError):
            ad.attention(x, x, x, None, [4, 3], 0.5)
        with pytest.raises(ShapeError):
            ad.attention(x, x, x, Tensor(np.zeros((2, 3, 4))), [4, 4], 0.5)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        loss = ad.reduce_sum(ad.mul(x, x))
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_two_backwards_with_zero_grad_match(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        ad.backward(ad.reduce_sum(ad.mul(x, x)))
        first = x.grad.copy()
        x.zero_grad()
        ad.backward(ad.reduce_sum(ad.mul(x, x)))
        np.testing.assert_array_equal(first, x.grad)
        x.zero_grad()

    def test_accumulation_over_two_uses(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ad.add(ad.mul(x, 3.0), ad.mul(x, x))  # 3x + x^2
        ad.backward(ad.reduce_sum(y))
        np.testing.assert_allclose(x.grad, 3.0 + 2.0 * x.data)

    def test_grad_accumulates_without_zero(self):
        x = Tensor([1.0], requires_grad=True)
        ad.backward(ad.reduce_sum(ad.mul(x, x)))
        ad.backward(ad.reduce_sum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            ad.backward(ad.mul(x, x))
        ad.backward(ad.reduce_sum(x))  # drain the tape
        x.zero_grad()

    def test_no_grad_records_nothing(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        before = ad.tape_size()
        with ad.no_grad():
            ad.mul(x, x)
        assert ad.tape_size() == before


class TestRng:
    def test_same_seed_same_stream(self):
        a = RngState(42)
        b = RngState(42)
        np.testing.assert_array_equal(a.uniform((100,)), b.uniform((100,)))
        np.testing.assert_array_equal(a.normal((100,)), b.normal((100,)))
        np.testing.assert_array_equal(a.permutation(50), b.permutation(50))

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngState(1).uniform((20,)), RngState(2).uniform((20,)))

    def test_position_advances(self):
        r = RngState(7)
        first = r.uniform((10,))
        second = r.uniform((10,))
        assert not np.array_equal(first, second)

    def test_uniform_range(self):
        u = RngState(3).uniform((10000,))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_normal_moments(self):
        z = RngState(4).normal((200000,))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_permutation_is_permutation(self):
        p = RngState(5).permutation(100)
        np.testing.assert_array_equal(np.sort(p), np.arange(100))

    def test_fan_seed_stable_and_distinct(self):
        assert ad.fan_seed(1, "split") == ad.fan_seed(1, "split")
        assert ad.fan_seed(1, "split") != ad.fan_seed(1, "batches")
        assert ad.fan_seed(1, "split") != ad.fan_seed(2, "split")
