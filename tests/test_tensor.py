import math

import numpy as np
import pytest

from rgtrec import tensor as T
from rgtrec.data import build_graph_from_edges
from oracles import check_gradients, matmul_triple_loop, max_rel_err


class TestMatmul:
    def test_identity(self):
        out = T.matmul(T.Tensor([[1, 0], [0, 1]]), T.Tensor([[3], [4]]))
        np.testing.assert_allclose(out.values, [[3], [4]])

    def test_scalar_case(self):
        out = T.matmul(T.Tensor([[2]]), T.Tensor([[3]]))
        np.testing.assert_allclose(out.values, [[6]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        np.testing.assert_allclose(out.values, matmul_triple_loop(a, b), atol=1e-6)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeMismatchError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2))))


class TestSoftmaxRows:
    def test_symmetry(self):
        out = T.softmax_rows(T.Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[1 / 3] * 3])

    def test_stability_no_overflow(self):
        out = T.softmax_rows(T.Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.values).all()
        np.testing.assert_allclose(out.values, [[1.0, 0.0]], atol=1e-12)

    def test_reference_values(self):
        # frozen from a float128-free high-precision evaluation of exp/normalize
        out = T.softmax_rows(T.Tensor([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out.values, [[0.0900, 0.2447, 0.6652]], atol=1e-4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = T.softmax_rows(T.Tensor(rng.normal(size=(6, 9)) * 10))
        np.testing.assert_allclose(out.values.sum(axis=1), np.ones(6), atol=1e-6)

    def test_empty_row_errors(self):
        with pytest.raises(ValueError, match="empty"):
            T.softmax_rows(T.Tensor(np.zeros((2, 0))))


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        x = T.parameter([1.0, 2.0, 3.0])
        with T.Tape() as tape:
            loss = T.tsum(x)
            T.backward(loss, tape)
        np.testing.assert_allclose(x.grad, [1, 1, 1])

    def test_grad_of_sum_of_squares(self):
        x = T.parameter([2.0, 3.0])
        with T.Tape() as tape:
            loss = T.tsum(T.mul(x, x))
            T.backward(loss, tape)
        np.testing.assert_allclose(x.grad, [4, 6])

    def test_non_scalar_loss_errors(self):
        x = T.parameter([1.0, 2.0])
        with T.Tape() as tape:
            y = T.mul(x, x)
            with pytest.raises(ValueError, match="scalar"):
                T.backward(y, tape)

    def test_empty_tape_errors(self):
        with pytest.raises(T.GradientError, match="tape"):
            T.backward(T.Tensor(1.0))

    def test_accumulation_across_tapes(self):
        x = T.parameter([1.0, 1.0])
        for _ in range(2):
            with T.Tape() as tape:
                T.backward(T.tsum(x), tape)
        np.testing.assert_allclose(x.grad, [2, 2])

    def test_composite_pipeline_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        w = T.parameter(rng.normal(size=(3, 4)), name="w")
        x = T.parameter(rng.normal(size=(5, 3)), name="x")

        def build():
            h = T.matmul(x, w)
            p = T.softmax_rows(h)
            return T.tsum(T.mul(p, T.log(T.add(T.exp(p), 1.0))))

        check_gradients(build, {"w": w, "x": x})

    def test_nonfinite_parameter_grad_raises(self):
        x = T.parameter([0.0], name="bad")
        with np.errstate(divide="ignore"), T.Tape() as tape:
            loss = T.tsum(T.log(x))  # log(0) -> -inf forward; grad 1/0 -> inf
            with pytest.raises(T.GradientError, match="bad"):
                T.backward(loss, tape)


class TestPrimitiveGradients:
    """Finite-difference checks for every differentiable primitive."""

    CASES = {
        "add": lambda a, b: T.tsum(T.add(a, b)),
        "sub": lambda a, b: T.tsum(T.mul(T.sub(a, b), T.sub(a, b))),
        "mul": lambda a, b: T.tsum(T.mul(a, b)),
        "div": lambda a, b: T.tsum(T.div(a, T.add(T.mul(b, b), 1.0))),
        "matmul": lambda a, b: T.tsum(T.matmul(a, T.transpose(b))),
        "exp": lambda a, b: T.tsum(T.exp(a)),
        "log": lambda a, b: T.tsum(T.log(T.add(T.mul(a, a), 0.5))),
        "sqrt": lambda a, b: T.tsum(T.sqrt(T.add(T.mul(a, a), 0.5))),
        "sigmoid": lambda a, b: T.tsum(T.sigmoid(a)),
        "softplus": lambda a, b: T.tsum(T.softplus(a)),
        "softmax": lambda a, b: T.tsum(T.mul(T.softmax_rows(a), b)),
        "mean": lambda a, b: T.tmean(T.mul(a, b)),
        "sum_axis": lambda a, b: T.tsum(T.mul(T.tsum(a, axis=1), T.tsum(b, axis=1))),
        "concat": lambda a, b: T.tsum(T.square(T.concat([a, b], axis=1))),
        "reshape": lambda a, b: T.tsum(T.mul(T.reshape(a, (-1,)), T.reshape(b, (-1,)))),
        "clip_min": lambda a, b: T.tsum(T.clip_min(a, 0.1)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_primitive(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        for trial in range(3):
            a = T.parameter(rng.normal(size=(4, 3)) + 2.0, name="a")
            b = T.parameter(rng.normal(size=(4, 3)) + 2.0, name="b")
            fn = self.CASES[name]
            check_gradients(lambda: fn(a, b), {"a": a, "b": b})

    def test_take_gradient(self):
        rng = np.random.default_rng(0)
        a = T.parameter(rng.normal(size=(5, 3)), name="a")
        idx = np.array([0, 2, 2, 4])

        def build():
            return T.tsum(T.square(T.take(a, idx)))

        check_gradients(build, {"a": a})

    def test_segment_sum_gradient(self):
        rng = np.random.default_rng(1)
        a = T.parameter(rng.normal(size=(6, 2)), name="a")
        idx = np.array([0, 0, 1, 2, 2, 2])

        def build():
            return T.tsum(T.square(T.segment_sum(a, idx, 4)))

        check_gradients(build, {"a": a})

    def test_segment_softmax_gradient_and_normalization(self):
        rng = np.random.default_rng(2)
        a = T.parameter(rng.normal(size=(7,)) * 3, name="a")
        idx = np.array([0, 0, 0, 1, 1, 3, 3])

        out = T.segment_softmax(a, idx, 4)
        sums = np.bincount(idx, weights=out.values, minlength=4)
        np.testing.assert_allclose(sums[[0, 1, 3]], 1.0, atol=1e-9)

        def build():
            p = T.segment_softmax(a, idx, 4)
            return T.tsum(T.mul(p, T.Tensor(np.arange(7.0))))

        check_gradients(build, {"a": a})

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(4)
        a = T.parameter(rng.normal(size=(4, 3)), name="a")
        col = T.parameter(rng.normal(size=(4, 1)), name="col")

        def build():
            return T.tsum(T.square(T.mul(a, col)))

        check_gradients(build, {"a": a, "col": col})

    def test_detach_blocks_gradient(self):
        x = T.parameter([1.0, 2.0])
        with T.Tape() as tape:
            loss = T.tsum(T.mul(x.detach(), x))
            T.backward(loss, tape)
        np.testing.assert_allclose(x.grad, [1.0, 2.0])  # only the live branch


class TestDeterminism:
    def test_identical_seed_identical_loss(self):
        def run():
            rng = np.random.default_rng(99)
            x = T.parameter(rng.normal(size=(8, 4)))
            w = T.parameter(rng.normal(size=(4, 4)))
            with T.Tape() as tape:
                loss = T.tsum(T.softmax_rows(T.matmul(x, w)))
                T.backward(loss, tape)
            return loss.values.copy(), x.grad.copy()

        (l1, g1), (l2, g2) = run(), run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(g1, g2)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = T.parameter([1.0, -2.0], name="p")
        opt = T.Adam({"p": p}, lr=0.01)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_allclose(p.values, [1.0, -2.0])

    def test_single_step_magnitude(self):
        p = T.parameter([0.0], name="p")
        opt = T.Adam({"p": p}, lr=0.001)
        p.grad = np.ones(1)
        opt.step()
        np.testing.assert_allclose(p.values, [-0.001], atol=1e-6)
        assert p.grad is None  # zeroed by the step

    def test_constant_gradient_update_approaches_lr(self):
        p = T.parameter([0.0], name="p")
        opt = T.Adam({"p": p}, lr=0.01)
        prev = p.values.copy()
        for _ in range(500):
            p.grad = np.full(1, 3.0)
            prev = p.values.copy()
            opt.step()
        assert abs(abs(float(p.values[0] - prev[0])) - 0.01) < 1e-4

    def test_nan_gradient_aborts_with_name(self):
        p = T.parameter([0.0], name="p")
        opt = T.Adam({"embedding.weird": p})
        p.grad = np.array([np.nan])
        with pytest.raises(T.OptimizerError, match="embedding.weird"):
            opt.step()

    def test_missing_gradient_skipped(self):
        p = T.parameter([1.0])
        opt = T.Adam({"p": p})
        opt.step()
        np.testing.assert_allclose(p.values, [1.0])


class TestDtypeControl:
    def test_default_dtype_switch(self):
        with T.using_dtype(np.float32):
            x = T.Tensor([1.0])
            assert x.dtype == np.float32
        y = T.Tensor([1.0])
        assert y.dtype == np.float64  # suite fixture keeps tests in 64-bit

    def test_rejects_non_float(self):
        with pytest.raises(ValueError):
            T.set_default_dtype(np.int32)


def kernel_graph():
    """Users 0-2, items 3-6; user 1 and item 6 have no edges."""
    return build_graph_from_edges(3, 4, np.array([[0, 3], [0, 4], [0, 5], [2, 3], [2, 5]]))


def slot_pairs(g):
    src = np.repeat(np.arange(g.num_nodes), np.diff(g.csr_offsets))
    return src, g.csr_neighbors


class TestGraphKernels:
    @pytest.mark.parametrize("heads", [1, 3])
    def test_edge_dot_values_and_gradients(self, heads):
        g = kernel_graph()
        rng = np.random.default_rng(heads)
        q = T.parameter(rng.normal(size=(g.num_nodes, 2 * heads)), name="q")
        k = T.parameter(rng.normal(size=(g.num_nodes, 2 * heads)), name="k")
        out = T.edge_dot(q, k, g, heads)
        src, dst = slot_pairs(g)
        assert out.shape == (len(dst), heads)
        for s, (a, b) in enumerate(zip(src, dst)):
            for hd in range(heads):
                cols = slice(2 * hd, 2 * hd + 2)
                assert abs(out.values[s, hd] - q.values[a, cols] @ k.values[b, cols]) < 1e-12
        weights = T.Tensor(rng.normal(size=(len(dst), heads)))
        check_gradients(lambda: T.tsum(T.mul(T.edge_dot(q, k, g, heads), weights)),
                        {"q": q, "k": k})

    @pytest.mark.parametrize("heads", [1, 3])
    def test_edge_spmm_values_and_gradients(self, heads):
        g = kernel_graph()
        rng = np.random.default_rng(10 + heads)
        w = T.parameter(rng.normal(size=(len(g.csr_neighbors), heads)), name="w")
        x = T.parameter(rng.normal(size=(g.num_nodes, 2 * heads)), name="x")
        out = T.edge_spmm(w, x, g, heads)
        src, dst = slot_pairs(g)
        expect = np.zeros((g.num_nodes, 2 * heads))
        for s, (a, b) in enumerate(zip(src, dst)):
            for hd in range(heads):
                cols = slice(2 * hd, 2 * hd + 2)
                expect[a, cols] += w.values[s, hd] * x.values[b, cols]
        np.testing.assert_allclose(out.values, expect, atol=1e-12)
        np.testing.assert_array_equal(out.values[[1, 6]], 0.0)  # isolated nodes
        check_gradients(lambda: T.tsum(T.square(T.edge_spmm(w, x, g, heads))),
                        {"w": w, "x": x})

    @pytest.mark.parametrize("heads", [1, 3])
    def test_edge_spmm_constant_weights_get_no_gradient(self, heads):
        g = kernel_graph()
        rng = np.random.default_rng(20 + heads)
        w = T.Tensor(rng.normal(size=(len(g.csr_neighbors), heads)))
        x = T.parameter(rng.normal(size=(g.num_nodes, 2 * heads)), name="x")
        check_gradients(lambda: T.tsum(T.square(T.edge_spmm(w, x, g, heads))), {"x": x})
        assert w.grad is None

    def test_kernels_reject_mismatched_shapes(self):
        g = kernel_graph()
        x = T.Tensor(np.zeros((g.num_nodes, 4)))
        with pytest.raises(T.ShapeMismatchError):
            T.edge_dot(x, x, g, heads=3)
        with pytest.raises(T.ShapeMismatchError):
            T.edge_spmm(T.Tensor(np.zeros((len(g.csr_neighbors) + 1, 2))), x, g, heads=2)

    def test_logsumexp_rows_values_and_gradient(self):
        from scipy.special import logsumexp
        rng = np.random.default_rng(5)
        a = T.parameter(rng.normal(size=(4, 6)) * 5, name="a")
        np.testing.assert_allclose(T.logsumexp_rows(a).values,
                                   logsumexp(a.values, axis=1), atol=1e-12)
        weights = T.Tensor(rng.normal(size=4))
        check_gradients(lambda: T.tsum(T.mul(T.logsumexp_rows(a), weights)), {"a": a})

    def test_segment_softmax_two_dimensional(self):
        rng = np.random.default_rng(6)
        a = T.parameter(rng.normal(size=(7, 3)) * 3, name="a")
        idx = np.array([0, 0, 0, 1, 1, 3, 3])
        out = T.segment_softmax(a, idx, 4)
        for col in range(3):
            np.testing.assert_allclose(out.values[:, col],
                                       T.segment_softmax(a.values[:, col], idx, 4).values,
                                       atol=1e-15)
        weights = T.Tensor(rng.normal(size=(7, 3)))
        check_gradients(lambda: T.tsum(T.mul(T.segment_softmax(a, idx, 4), weights)),
                        {"a": a})
