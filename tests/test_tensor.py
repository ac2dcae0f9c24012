import ctypes
import math
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from rgtrec import tensor as T
from rgtrec.data import build_graph_from_edges
from oracles import check_gradients, matmul_triple_loop, max_rel_err
from oracles import per_head_edge_dot, per_head_edge_spmm
from oracles import segment_softmax as generic_segment_softmax


class TestMatmul:
    """``T.linear(x, w)``, the one dense product: ``x @ w.T``."""

    def test_identity(self):
        out = T.linear(T.Tensor([[1, 0], [0, 1]]), T.Tensor([[3, 4]]))
        np.testing.assert_allclose(out.values, [[3], [4]])

    def test_scalar_case(self):
        out = T.linear(T.Tensor([[2]]), T.Tensor([[3]]))
        np.testing.assert_allclose(out.values, [[6]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        out = T.linear(T.Tensor(a), T.Tensor(b.T))
        np.testing.assert_allclose(out.values, matmul_triple_loop(a, b), atol=1e-6)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeMismatchError, match=r"\(2, 3\).*\(2, 2\)"):
            T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2))))
        with pytest.raises(T.ShapeMismatchError, match=r"2-D.*\(3,\).*\(2, 3\)"):
            T.linear(T.Tensor(np.zeros(3)), T.Tensor(np.zeros((2, 3))))

    def test_one_record_and_w_is_not_copied(self):
        rng = np.random.default_rng(8)
        x, w = T.parameter(rng.normal(size=(4, 3))), T.parameter(rng.normal(size=(2, 3)))
        with T.Tape() as tape:
            out = T.linear(x, w)
            grads = T.backward(T.tsum(out), tape)
        assert len(tape) == 2  # linear, then tsum
        assert tape.records[0].inputs == (x, w)
        g = np.ones((4, 2))
        np.testing.assert_array_equal(grads[x], g @ w.values)
        np.testing.assert_array_equal(grads[w], g.T @ x.values)


def grad_of_logsumexp(values):
    """Gradient of sum(logsumexp_rows(a)) at ``values``: the row softmax."""
    a = T.parameter(values)
    with T.Tape() as tape:
        return T.backward(T.tsum(T.logsumexp_rows(a)), tape)[a]


class TestSoftmaxRows:
    """The row softmax that ``logsumexp_rows`` computes in its backward."""

    def test_symmetry(self):
        np.testing.assert_allclose(grad_of_logsumexp([[0.0, 0.0, 0.0]]), [[1 / 3] * 3])

    def test_stability_no_overflow(self):
        grad = grad_of_logsumexp([[1000.0, 0.0]])
        assert np.isfinite(grad).all()
        np.testing.assert_allclose(grad, [[1.0, 0.0]], atol=1e-12)

    def test_reference_values(self):
        # frozen from a float128-free high-precision evaluation of exp/normalize
        grad = grad_of_logsumexp([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(grad, [[0.0900, 0.2447, 0.6652]], atol=1e-4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        grad = grad_of_logsumexp(rng.normal(size=(6, 9)) * 10)
        np.testing.assert_allclose(grad.sum(axis=1), np.ones(6), atol=1e-6)

    def test_empty_row_errors(self):
        with pytest.raises(ValueError, match="empty"):
            T.logsumexp_rows(T.Tensor(np.zeros((2, 0))))


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        x = T.parameter([1.0, 2.0, 3.0])
        with T.Tape() as tape:
            grads = T.backward(T.tsum(x), tape)
        np.testing.assert_allclose(grads[x], [1, 1, 1])

    def test_grad_of_sum_of_squares(self):
        x = T.parameter([2.0, 3.0])
        with T.Tape() as tape:
            grads = T.backward(T.tsum(T.mul(x, x)), tape)
        np.testing.assert_allclose(grads[x], [4, 6])

    def test_non_scalar_loss_errors(self):
        x = T.parameter([1.0, 2.0])
        with T.Tape() as tape:
            y = T.mul(x, x)
            with pytest.raises(ValueError, match="scalar"):
                T.backward(y, tape)

    def test_empty_tape_errors(self):
        with pytest.raises(ValueError, match="tape"):
            T.backward(T.Tensor(1.0), T.Tape())

    def test_intermediate_gradients_are_freed_and_leaves_keep_theirs(self):
        x = T.parameter([1.0, 2.0])
        w = T.parameter([0.5, -1.0])
        with T.Tape() as tape:
            y = T.mul(x, w)
            z = T.exp(y)
            loss = T.tsum(T.add(z, y))
            grads = T.backward(loss, tape)
        assert list(grads) == [x, w]  # y, z and loss left the map
        e = np.exp(x.values * w.values)
        np.testing.assert_allclose(grads[x], w.values * (e + 1.0), rtol=1e-15)
        np.testing.assert_allclose(grads[w], x.values * (e + 1.0), rtol=1e-15)

    def test_replays_return_equal_maps(self):
        # each replay returns its own map: gradients never add up across tapes
        x = T.parameter([1.0, 1.0])
        maps = []
        for _ in range(2):
            with T.Tape() as tape:
                maps.append(T.backward(T.tsum(x), tape))
        for grads in maps:
            assert list(grads) == [x]
            np.testing.assert_array_equal(grads[x], [1, 1])

    def test_composite_pipeline_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        w = T.parameter(rng.normal(size=(4, 3)))
        x = T.parameter(rng.normal(size=(5, 3)))

        def build():
            h = T.linear(x, w)
            p = T.logsumexp_rows(h)
            return T.tsum(T.mul(p, T.log(T.add(T.exp(p), 1.0))))

        check_gradients(build, {"w": w, "x": x})

    def test_nonfinite_parameter_grad_raises(self):
        # backward returns the non-finite gradient; Adam refuses it by name
        x = T.parameter([0.0])
        with np.errstate(divide="ignore"), T.Tape() as tape:
            loss = T.tsum(T.log(x))  # log(0) -> -inf forward; grad 1/0 -> inf
            grads = T.backward(loss, tape)
        assert np.isinf(grads[x]).all()
        with pytest.raises(FloatingPointError, match="parameter bad$"):
            T.Adam({"bad": x}).step(grads)


def spy_on_backward(tape):
    """Wrap every record's ``backward_fn`` so that each array it returns is
    kept with a copy; ``backward`` must leave them all as they were."""
    returned = []
    for record in tape.records:
        def spy(g, fn=record.backward_fn):
            out = fn(g)
            returned.extend((a, np.array(a)) for a in out if a is not None)
            return out
        record.backward_fn = spy
    return returned


class TestGradientAccumulation:
    """``backward`` adds a tensor's third and later gradients in place, into
    the sum that its second allocated, and never into an array that a
    ``backward_fn`` returned."""

    def run(self, build, x):
        with T.Tape() as tape:
            loss = build(x)
            returned = spy_on_backward(tape)
            grads = T.backward(loss, tape)
        for array, before in returned:
            np.testing.assert_array_equal(array, before)
        return grads[x]

    def test_add_of_a_tensor_to_itself(self):
        # add(x, x) is recorded last, so its gradients land first: one array,
        # tsum's read-only broadcast view, handed to both operands; the third
        # gradient, from mul, lands after both
        c = np.array([0.5, -2.0, 3.0])
        x = T.parameter([1.0, 2.0, 3.0])
        grad = self.run(lambda x: T.tsum(T.add(T.mul(x, c), T.add(x, x))), x)
        np.testing.assert_array_equal(grad, 2.0 + c)

    def test_sum_broadcast_views_used_three_times(self):
        x = T.parameter([1.0, 2.0])
        grad = self.run(lambda x: T.add(T.add(T.tsum(x), T.tsum(x)), T.tsum(x)), x)
        np.testing.assert_array_equal(grad, [3.0, 3.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_many_uses_sum_in_reverse_record_order(self, dtype):
        # the later record's gradient arrives first: ((c4 + c3) + c2) + ...
        rng = np.random.default_rng(3)
        consts = [rng.normal(size=(4, 3)).astype(dtype) for _ in range(5)]
        x = T.parameter(rng.normal(size=(4, 3)), dtype)
        grad = self.run(lambda x: T.tsum(T.concat([T.mul(x, c) for c in consts], 1)), x)
        expect = consts[-1]
        for c in consts[-2::-1]:
            expect = expect + c
        assert x.dtype == grad.dtype == dtype
        np.testing.assert_array_equal(grad, expect)

    def test_square_is_one_record_with_the_product_rule_gradient(self):
        x = T.parameter([1.5, -2.0, 0.25])
        with T.Tape() as tape:
            loss = T.tsum(T.square(x))
            assert [r.inputs for r in tape.records[:1]] == [(x,)]
            grads = T.backward(loss, tape)
        np.testing.assert_array_equal(grads[x], 2.0 * x.values)


class TestPrimitiveGradients:
    """Finite-difference checks for every differentiable primitive."""

    CASES = {
        "add": lambda a, b: T.tsum(T.add(a, b)),
        "sub": lambda a, b: T.tsum(T.mul(T.sub(a, b), T.sub(a, b))),
        "mul": lambda a, b: T.tsum(T.mul(a, b)),
        "div": lambda a, b: T.tsum(T.div(a, T.add(T.mul(b, b), 1.0))),
        "matmul": lambda a, b: T.tsum(T.linear(a, b)),  # the one dense product
        "exp": lambda a, b: T.tsum(T.exp(a)),
        "log": lambda a, b: T.tsum(T.log(T.add(T.mul(a, a), 0.5))),
        "sqrt": lambda a, b: T.tsum(T.sqrt(T.add(T.mul(a, a), 0.5))),
        "softplus": lambda a, b: T.tsum(T.softplus(a)),
        "mean": lambda a, b: T.tmean(T.mul(a, b)),
        "sum_axis": lambda a, b: T.tsum(T.mul(T.tsum(a, axis=1), T.tsum(b, axis=1))),
        "concat": lambda a, b: T.tsum(T.square(T.concat([a, b], axis=1))),
        "reshape": lambda a, b: T.tsum(T.mul(T.reshape(a, (-1,)), T.reshape(b, (-1,)))),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_primitive(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        for trial in range(3):
            a = T.parameter(rng.normal(size=(4, 3)) + 2.0)
            b = T.parameter(rng.normal(size=(4, 3)) + 2.0)
            fn = self.CASES[name]
            check_gradients(lambda: fn(a, b), {"a": a, "b": b})

    def test_take_gradient(self):
        rng = np.random.default_rng(0)
        a = T.parameter(rng.normal(size=(5, 3)))
        idx = np.array([0, 2, 2, 4])

        def build():
            return T.tsum(T.square(T.take(a, idx)))

        check_gradients(build, {"a": a})

    def test_segment_softmax_gradient_and_normalization(self):
        g = kernel_graph()
        rng = np.random.default_rng(2)
        slots = len(g.csr_neighbors)
        a = T.parameter(rng.normal(size=(slots, 1)) * 3)

        out = T.segment_softmax(a, g)
        sums = np.bincount(g.directed_src, weights=out.values[:, 0], minlength=g.num_nodes)
        np.testing.assert_allclose(sums[[0, 2, 3, 4, 5]], 1.0, atol=1e-9)
        np.testing.assert_array_equal(sums[[1, 6]], 0.0)  # isolated nodes

        def build():
            p = T.segment_softmax(a, g)
            return T.tsum(T.mul(p, T.Tensor(np.arange(float(slots)).reshape(-1, 1))))

        check_gradients(build, {"a": a})

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(4)
        a = T.parameter(rng.normal(size=(4, 3)))
        col = T.parameter(rng.normal(size=(4, 1)))

        def build():
            return T.tsum(T.square(T.mul(a, col)))

        check_gradients(build, {"a": a, "col": col})

    def test_detach_blocks_gradient(self):
        x = T.parameter([1.0, 2.0])
        with T.Tape() as tape:
            grads = T.backward(T.tsum(T.mul(x.detach(), x)), tape)
        np.testing.assert_allclose(grads[x], [1.0, 2.0])  # only the live branch


class TestDeterminism:
    def test_identical_seed_identical_loss(self):
        def run():
            rng = np.random.default_rng(99)
            x = T.parameter(rng.normal(size=(8, 4)))
            w = T.parameter(rng.normal(size=(4, 4)))
            with T.Tape() as tape:
                loss = T.tsum(T.logsumexp_rows(T.linear(x, w)))
                grads = T.backward(loss, tape)
            return loss.values.copy(), grads[x]

        (l1, g1), (l2, g2) = run(), run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(g1, g2)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = T.parameter([1.0, -2.0])
        opt = T.Adam({"p": p}, lr=0.01)
        opt.step({p: np.zeros(2)})
        np.testing.assert_allclose(p.values, [1.0, -2.0])

    def test_single_step_magnitude(self):
        p = T.parameter([0.0])
        opt = T.Adam({"p": p}, lr=0.001)
        opt.step({p: np.ones(1)})
        np.testing.assert_allclose(p.values, [-0.001], atol=1e-6)

    def test_constant_gradient_update_approaches_lr(self):
        p = T.parameter([0.0])
        opt = T.Adam({"p": p}, lr=0.01)
        prev = p.values.copy()
        for _ in range(500):
            prev = p.values.copy()
            opt.step({p: np.full(1, 3.0)})
        assert abs(abs(float(p.values[0] - prev[0])) - 0.01) < 1e-4

    def test_nan_gradient_aborts_with_name(self):
        p = T.parameter([0.0])
        opt = T.Adam({"embedding.weird": p})
        with pytest.raises(FloatingPointError,
                           match="non-finite gradient for parameter embedding.weird"):
            opt.step({p: np.array([np.nan])})

    def test_failed_step_changes_nothing(self):
        # the second parameter's NaN is found before the first one moves
        first, second = T.parameter([1.0]), T.parameter([2.0])
        opt = T.Adam({"first": first, "second": second}, lr=0.1)
        with pytest.raises(FloatingPointError, match="parameter second$"):
            opt.step({first: np.ones(1), second: np.array([np.nan])})
        np.testing.assert_array_equal(first.values, [1.0])
        np.testing.assert_array_equal(second.values, [2.0])
        for buffers in (opt.m, opt.v):
            for name in ("first", "second"):
                np.testing.assert_array_equal(buffers[name], [0.0])
        assert opt.t == 0

    def test_missing_gradient_skipped(self):
        p = T.parameter([1.0])
        opt = T.Adam({"p": p})
        opt.step({})
        np.testing.assert_allclose(p.values, [1.0])


class TestDtypeControl:
    """A tensor's dtype is its data's; there is no process-wide default."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_data_keeps_its_dtype(self, dtype):
        data = np.array([1.5, -2.0], dtype=dtype)
        assert T.Tensor(data).dtype == dtype
        assert T.parameter(data).dtype == dtype
        assert T.Tensor([1.5], dtype=dtype).dtype == dtype

    @pytest.mark.parametrize("data", [[1.0, 2.0], 0.5, np.array([1, 2], dtype=np.int32),
                                      np.array([True, False]), np.array([0.5], np.float16)],
                             ids=["list", "float", "int32", "bool", "float16"])
    def test_other_data_becomes_float64(self, data):
        t = T.Tensor(data)
        assert t.dtype == np.float64
        np.testing.assert_array_equal(t.values, np.asarray(data, dtype=np.float64))
        assert T.parameter(data).dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parameter_copies_values_in_dtype(self, dtype):
        source = np.array([0.1, 0.2])
        p = T.parameter(source, dtype)
        source[0] = 9.0
        assert p.dtype == dtype
        np.testing.assert_array_equal(p.values, np.array([0.1, 0.2], dtype=dtype))

    def test_using_dtype_changes_nothing(self):
        with T.using_dtype(np.float32):
            assert T.Tensor([1.0]).dtype == np.float64
            assert T.parameter([1.0]).dtype == np.float64
            assert T.mul(T.Tensor([1.0]), 0.1).dtype == np.float64
        with T.using_dtype("float64"):
            assert T.Tensor(np.ones(2, np.float32)).dtype == np.float32

    def test_rejects_non_float(self):
        with pytest.raises(ValueError, match="int32"):
            with T.using_dtype(np.int32):
                pass
        assert T.Tensor([1.0]).dtype == np.float64  # the refused switch left no trace

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op, np_op", [(T.add, np.add), (T.sub, np.subtract),
                                           (T.mul, np.multiply), (T.div, np.divide)],
                             ids=["add", "sub", "mul", "div"])
    @pytest.mark.parametrize("number", [0.1, 1 / 3, np.float64(1 / 7), np.float32(0.3), 3],
                             ids=["0.1", "1/3", "np.float64", "np.float32", "int"])
    def test_a_number_takes_the_tensors_dtype(self, dtype, op, np_op, number):
        # the values are those of the number first rounded to the tensor's dtype
        x = T.parameter(np.array([[0.7, -1.3], [2.9, 0.4]]), dtype)
        rounded = np.asarray(number, dtype=dtype)
        for out, want in ((op(x, number), np_op(x.values, rounded)),
                          (op(number, x), np_op(rounded, x.values))):
            assert out.dtype == dtype
            np.testing.assert_array_equal(out.values, want)
        with T.Tape() as tape:
            grads = T.backward(T.tsum(op(number, x)), tape)
        assert grads[x].dtype == dtype


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
        q = T.parameter(rng.normal(size=(g.num_nodes, 2 * heads)))
        k = T.parameter(rng.normal(size=(g.num_nodes, 2 * heads)))
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
        w = T.parameter(rng.normal(size=(len(g.csr_neighbors), heads)))
        x = T.parameter(rng.normal(size=(g.num_nodes, 2 * heads)))
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
        x = T.parameter(rng.normal(size=(g.num_nodes, 2 * heads)))

        def build():
            return T.tsum(T.square(T.edge_spmm(w, x, g, heads)))

        check_gradients(build, {"x": x})
        with T.Tape() as tape:
            assert list(T.backward(build(), tape)) == [x]

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
        a = T.parameter(rng.normal(size=(4, 6)) * 5)
        np.testing.assert_allclose(T.logsumexp_rows(a).values,
                                   logsumexp(a.values, axis=1), atol=1e-12)
        weights = T.Tensor(rng.normal(size=4))
        check_gradients(lambda: T.tsum(T.mul(T.logsumexp_rows(a), weights)), {"a": a})

    def test_segment_softmax_two_dimensional(self):
        g = kernel_graph()
        rng = np.random.default_rng(6)
        a = T.parameter(rng.normal(size=(len(g.csr_neighbors), 3)) * 3)
        out = T.segment_softmax(a, g)
        for col in range(3):
            np.testing.assert_allclose(out.values[:, [col]],
                                       T.segment_softmax(a.values[:, [col]], g).values,
                                       atol=1e-15)
        weights = T.Tensor(rng.normal(size=(len(g.csr_neighbors), 3)))
        check_gradients(lambda: T.tsum(T.mul(T.segment_softmax(a, g), weights)),
                        {"a": a})

    def test_segment_softmax_rejects_a_row_count_other_than_the_slots(self):
        g = kernel_graph()
        slots = len(g.csr_neighbors)
        # a 1-D input is refused too: scores are always (slots, heads)
        for shape in ((slots + 1, 2), (slots,)):
            with pytest.raises(T.ShapeMismatchError, match="slots"):
                T.segment_softmax(T.Tensor(np.zeros(shape)), g)


def graph_with_isolated_nodes(rng):
    """Random bipartite graph in which about a third of the nodes have no edges."""
    num_users, num_items = int(rng.integers(2, 30)), int(rng.integers(2, 30))
    users = rng.permutation(num_users)[:max(1, 2 * num_users // 3)]
    items = rng.permutation(num_items)[:max(1, 2 * num_items // 3)]
    edges = [(u, num_users + i) for u in users for i in items if rng.random() < 0.3]
    edges.append((int(users[0]), num_users + int(items[0])))
    return build_graph_from_edges(num_users, num_items, np.array(sorted(set(edges))))


class TestSegmentSoftmaxOracle:
    """``segment_softmax`` over CSR rows against the generic scatter form in
    ``oracles.segment_softmax``: equal bit for bit, values and gradients."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads", [1, 4], ids=["2d-1", "2d-4"])
    def test_bit_identical_to_generic_form(self, dtype, heads):
        rng = np.random.default_rng(40 + heads)
        for trial in range(20):
            g = graph_with_isolated_nodes(rng)
            assert (g.degree == 0).any()
            shape = (len(g.csr_neighbors), heads)
            # a coarse grid makes ties within a row, including at the maximum
            start = np.round(rng.normal(size=shape) * 8, 1 if trial % 2 else 6)
            weights = rng.normal(size=shape).astype(dtype)
            results = []
            for op in (lambda x: T.segment_softmax(x, g),
                       lambda x: generic_segment_softmax(x, g.directed_src, g.num_nodes)):
                a = T.parameter(start, dtype)
                with T.Tape() as tape:
                    out = op(a)
                    grads = T.backward(T.tsum(T.mul(out, T.Tensor(weights))), tape)
                assert out.dtype == a.dtype == grads[a].dtype == dtype
                results.append((out.values, grads[a]))
            (csr_out, csr_grad), (ref_out, ref_grad) = results
            np.testing.assert_array_equal(csr_out, ref_out)
            np.testing.assert_array_equal(csr_grad, ref_grad)


class TestAllHeadsOperator:
    """``edge_dot`` and ``edge_spmm`` apply every head in one product with the
    all-heads operator; they must equal the one-product-per-head reference
    in ``oracles`` bit for bit, values and gradients."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_bit_identical_to_per_head_products(self, dtype, heads):
        rng = np.random.default_rng(50 + heads)
        for _ in range(8):
            g = graph_with_isolated_nodes(rng)
            assert (g.degree == 0).any()
            width = heads * int(rng.integers(1, 4))
            tables = [rng.normal(size=(g.num_nodes, width)) for _ in range(2)]
            slots = rng.normal(size=(len(g.csr_neighbors), heads))
            weights = rng.normal(size=(len(g.csr_neighbors), heads)).astype(dtype)
            cotangent = rng.normal(size=(g.num_nodes, width)).astype(dtype)
            for fused, reference, a_start, b_start, w in (
                    (T.edge_dot, per_head_edge_dot, tables[0], tables[1], weights),
                    (T.edge_spmm, per_head_edge_spmm, slots, tables[0], cotangent)):
                results = []
                for op in (fused, reference):
                    a = T.parameter(a_start, dtype)
                    b = T.parameter(b_start, dtype)
                    with T.Tape() as tape:
                        out = op(a, b, g, heads)
                        grads = T.backward(T.tsum(T.mul(out, T.Tensor(w))), tape)
                    assert out.dtype == a.dtype == b.dtype == dtype
                    assert grads[a].dtype == grads[b].dtype == dtype
                    results.append((out.values, grads[a], grads[b]))
                for got, want in zip(*results):
                    np.testing.assert_array_equal(got, want)

    def test_operator_structure_is_built_once_per_graph_and_head_count(self, monkeypatch):
        g = graph_with_isolated_nodes(np.random.default_rng(0))
        built = []
        layout = T._heads_layout
        monkeypatch.setattr(T, "_heads_layout", lambda g, h: built.append(h) or layout(g, h))
        for heads in (2, 2, 4, 2, 4):
            x = T.Tensor(np.ones((g.num_nodes, 4)))
            T.edge_spmm(T.Tensor(np.ones((len(g.csr_neighbors), heads))), x, g, heads)
        assert built == [2, 4]


GLIBC_MALLINFO2 = (platform.libc_ver()[0] == "glibc"
                   and hasattr(ctypes.CDLL(None), "mallinfo2"))


@pytest.mark.skipif(not GLIBC_MALLINFO2, reason="glibc 2.33+ malloc statistics only")
def test_import_fixes_malloc_thresholds():
    """After ``import rgtrec.tensor`` a 20 MiB array comes from the heap in a
    fresh interpreter; under glibc's default dynamic threshold it is mmapped."""
    code = textwrap.dedent("""
        import ctypes
        import numpy as np
        import rgtrec.tensor

        class Info(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in (
                "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                "fsmblks", "uordblks", "fordblks", "keepcost")]

        libc = ctypes.CDLL(None)
        libc.mallinfo2.restype = Info
        before = libc.mallinfo2().hblkhd
        block = np.ones(20 << 20, dtype=np.uint8)
        print(libc.mallinfo2().hblkhd - before)
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert int(proc.stdout) == 0, "a 20 MiB array was mmapped"
