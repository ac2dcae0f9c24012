import numpy as np
import pytest

from rgtrec import propagation as P
from rgtrec import tensor as T
from rgtrec.attention import AttentionParams, residual_gt
from rgtrec.data import build_graph_from_edges
from rgtrec.topology import TopologyEncoder, sample_anchors
from oracles import assert_matches_reference, chain_layer_mean, check_gradients
from oracles import dense_sym_norm_adjacency, keep_mask_lightgcn, value_and_grads


def random_graph(rng, num_users, num_items, p=0.3, min_degree_one=True):
    edges = [(u, num_users + i)
             for u in range(num_users) for i in range(num_items) if rng.random() < p]
    if min_degree_one:
        # ensure no isolated node so the dense oracle needs no special rows
        for u in range(num_users):
            edges.append((u, num_users + int(rng.integers(num_items))))
        for i in range(num_items):
            edges.append((int(rng.integers(num_users)), num_users + i))
    edges = sorted(set(edges))
    return build_graph_from_edges(num_users, num_items, np.array(edges))


class TestLightGCNPropagate:
    def test_at_least_one_layer_required(self):
        g = build_graph_from_edges(1, 1, np.array([[0, 1]]))
        with pytest.raises(ValueError, match="at least one propagation layer"):
            P.lightgcn_propagate(g, T.Tensor(np.zeros((2, 2))), 0)

    def test_single_edge_swaps_embeddings(self):
        # layer 1 swaps the two rows; the output is the mean of layers 0 and 1
        g = build_graph_from_edges(1, 1, np.array([[0, 1]]))
        s0 = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = P.lightgcn_propagate(g, s0, 1)
        np.testing.assert_allclose(out.values, [[2, 3], [2, 3]])

    def test_star_weights(self):
        edges = np.array([[0, 1], [0, 2], [0, 3], [0, 4]])
        g = build_graph_from_edges(1, 4, edges)
        w = P.symmetric_edge_weights(g)
        # hub has degree 4, leaves degree 1: every weight is 1/sqrt(4*1)
        np.testing.assert_allclose(w, 0.5)

    def test_beta_symmetry(self):
        g = random_graph(np.random.default_rng(0), 6, 6)
        w = P.symmetric_edge_weights(g)
        src, dst = g.directed_src, g.csr_neighbors
        lookup = {(int(s), int(d)): float(x) for s, d, x in zip(src, dst, w)}
        for (s, d), x in lookup.items():
            assert lookup[(d, s)] == pytest.approx(x)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            g = random_graph(rng, int(rng.integers(3, 10)), int(rng.integers(3, 10)))
            n = g.num_nodes
            s0 = rng.normal(size=(n, 3))
            norm = dense_sym_norm_adjacency(n, g.edge_list)
            # the means for L = 1, 2, 3 together fix every layer's output
            for L in (1, 2, 3):
                out = P.lightgcn_propagate(g, T.Tensor(s0), L)
                acc = [np.linalg.matrix_power(norm, l) @ s0 for l in range(L + 1)]
                np.testing.assert_allclose(out.values, np.mean(acc, axis=0), atol=1e-6)

    def test_zero_degree_nodes_pass_through(self):
        g = build_graph_from_edges(2, 2, np.array([[0, 2]]))  # user 1, item 1 isolated
        s0 = np.random.default_rng(2).normal(size=(4, 3))
        out = P.lightgcn_propagate(g, T.Tensor(s0), 2)
        np.testing.assert_allclose(out.values[1], s0[1])
        np.testing.assert_allclose(out.values[3], s0[3])

    def test_regular_graph_equal_embeddings_identity(self):
        # complete bipartite 3x3 is 3-regular; equal rows are a fixed point
        edges = np.array([(u, 3 + i) for u in range(3) for i in range(3)])
        g = build_graph_from_edges(3, 3, edges)
        s0 = np.tile([1.5, -2.0], (6, 1))
        out = P.lightgcn_propagate(g, T.Tensor(s0), 1)
        np.testing.assert_allclose(out.values, s0, atol=1e-6)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 4, 4)
        s0 = T.parameter(rng.normal(size=(g.num_nodes, 3)))

        def build():
            out = P.lightgcn_propagate(g, s0, 2)
            return T.tsum(T.square(out))

        check_gradients(build, {"s0": s0})


class TestEncodeMasked:
    def setup_pipeline(self, seed=0, num_users=4, num_items=4, d=4):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, num_users, num_items)
        topo = TopologyEncoder(g, sample_anchors(g, 3, seed), q=2, latdim=d, num_layers=1,
                               seed=seed)
        attn = AttentionParams(latdim=d, heads=2, seed=seed)
        return g, topo, attn

    def test_no_edges_reduces_to_topology_encoding(self):
        g, topo, attn = self.setup_pipeline(seed=4)
        empty = g.edge_subgraph(np.array([], dtype=np.int64))
        s = T.Tensor(np.random.default_rng(4).normal(size=(g.num_nodes, 4)))
        out = P.encode_masked(empty, s, topo, attn, gt_layers=2)
        np.testing.assert_allclose(out.values, topo.encode(s).values, atol=1e-12)

    def test_without_topology_is_the_residual_transformer(self):
        g, _, attn = self.setup_pipeline(seed=7)
        s = T.Tensor(np.random.default_rng(7).normal(size=(g.num_nodes, 4)))
        out = P.encode_masked(g, s, None, attn, gt_layers=2, residual=False)
        expect = residual_gt(s, g, attn, n_layers=2, residual=False)
        np.testing.assert_array_equal(out.values, expect.values)

    def test_output_shape(self):
        g, topo, attn = self.setup_pipeline(seed=5)
        s = T.Tensor(np.random.default_rng(5).normal(size=(g.num_nodes, 4)))
        out = P.encode_masked(g, s, topo, attn, gt_layers=1)
        assert out.shape == (g.num_nodes, 4)

    def test_gradient_through_full_chain(self):
        g, topo, attn = self.setup_pipeline(seed=6)
        s0 = T.parameter(np.random.default_rng(6).normal(size=(g.num_nodes, 4)))

        def build():
            local = P.lightgcn_propagate(g, s0, 1)
            out = P.encode_masked(g, local, topo, attn, gt_layers=1)
            return T.tsum(T.square(out))

        params = {"s0": s0}
        params.update(topo.parameters())
        params.update(attn.parameters())
        check_gradients(build, params, max_components=20)


class TestLightGCNOperator:
    """A layer is one product with the cached normalized adjacency, in which
    every zero-degree node is a unit self-loop."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_bit_identical_to_keep_mask_reference(self, dtype, layers):
        rng = np.random.default_rng(60 + layers)
        for _ in range(8):
            g = random_graph(rng, int(rng.integers(2, 12)), int(rng.integers(2, 12)),
                             p=0.2, min_degree_one=False)
            assert (g.degree == 0).any()
            start = rng.normal(size=(g.num_nodes, 3))
            weights = T.Tensor(rng.normal(size=(g.num_nodes, 3)).astype(dtype))
            results = []
            for propagate in (P.lightgcn_propagate, keep_mask_lightgcn):
                s0 = T.parameter(start, dtype)
                with T.Tape() as tape:
                    out = propagate(g, s0, layers)
                    grads = T.backward(T.tsum(T.mul(out, weights)), tape)
                assert weights.dtype == s0.dtype == out.dtype == grads[s0].dtype == dtype
                results.append((out.values, grads[s0]))
            for got, want in zip(*results):
                np.testing.assert_array_equal(got, want)

    def test_one_record_for_any_layer_count(self):
        g = random_graph(np.random.default_rng(2), 4, 5)
        s0 = T.parameter(np.ones((g.num_nodes, 2)))
        for layers in (1, 2, 3):
            with T.Tape() as tape:
                P.lightgcn_propagate(g, s0, layers)
            assert len(tape) == 1, layers  # every layer and the mean

    def test_float32_and_float64_get_their_own_operators(self):
        # one graph serves both precisions in turn; each must match a fresh graph
        rng = np.random.default_rng(4)
        edges = random_graph(rng, 5, 7, min_degree_one=False).edge_list
        start = rng.normal(size=(12, 4))
        shared = build_graph_from_edges(5, 7, edges)
        for dtype in (np.float32, np.float64, np.float32):
            outs = []
            for g in (shared, build_graph_from_edges(5, 7, edges)):
                params = AttentionParams(latdim=4, heads=2, seed=0, dtype=dtype)
                local = P.lightgcn_propagate(g, T.Tensor(start, dtype=dtype), 2)
                out = P.encode_masked(g, local, None, params, gt_layers=2)
                assert params.wq.dtype == local.dtype == out.dtype == dtype
                outs.append(out.values)
            np.testing.assert_array_equal(*outs)


def graph_with_isolated_nodes(rng, num_users, num_items, p=0.3):
    """A random graph whose last user and last item have no edges."""
    edges = [(u, num_users + 1 + i)
             for u in range(num_users) for i in range(num_items) if rng.random() < p]
    edges = edges or [(0, num_users + 1)]
    return build_graph_from_edges(num_users + 1, num_items + 1, np.array(edges))


class TestFusedLayerMean:
    """``lightgcn_propagate`` is one ``T.layer_mean`` record; the spmm/add/div
    chain ``oracles.chain_layer_mean`` over the same operator is its reference."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_matches_chain(self, dtype, layers):
        rng = np.random.default_rng(80 + layers)
        for _ in range(5):
            g = graph_with_isolated_nodes(rng, int(rng.integers(2, 10)), int(rng.integers(2, 10)))
            start = rng.normal(size=(g.num_nodes, 3))
            cotangent = T.Tensor(rng.normal(size=(g.num_nodes, 3)).astype(dtype))
            op = P.lightgcn_operator(g, dtype)
            results = []
            for propagate in (lambda s0: P.lightgcn_propagate(g, s0, layers),
                              lambda s0: chain_layer_mean(op, s0, layers)):
                s0 = T.parameter(start, dtype)
                results.append(value_and_grads(lambda: propagate(s0), {"s0": s0}, cotangent))
            assert_matches_reference(*results, dtype)

    @pytest.mark.parametrize("layers", [1, 3])
    def test_finite_differences(self, layers):
        rng = np.random.default_rng(90 + layers)
        g = graph_with_isolated_nodes(rng, 4, 5)
        s0 = T.parameter(rng.normal(size=(g.num_nodes, 3)))
        cotangent = T.Tensor(rng.normal(size=(g.num_nodes, 3)))
        check_gradients(lambda: T.tsum(T.mul(P.lightgcn_propagate(g, s0, layers), cotangent)),
                        {"s0": s0})
