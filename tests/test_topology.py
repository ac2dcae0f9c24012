import numpy as np
import pytest

from rgtrec import tensor as T
from rgtrec import topology as topo
from rgtrec.data import build_graph_from_edges
from rgtrec.seeding import substream
from oracles import bfs_distances, check_gradients, neighbors


def random_bipartite(rng, num_users, num_items, p=0.2):
    edges = [(u, num_users + i)
             for u in range(num_users) for i in range(num_items)
             if rng.random() < p]
    if not edges:
        edges = [(0, num_users)]
    return build_graph_from_edges(num_users, num_items, np.array(edges))


def neighbor_dict(g):
    return {k: list(neighbors(g, k)) for k in range(g.num_nodes)}


class TestSampleAnchors:
    def test_full_sample_is_all_nodes(self):
        g = random_bipartite(np.random.default_rng(0), 5, 5)
        anchors = topo.sample_anchors(g, g.num_nodes, seed=1)
        np.testing.assert_array_equal(anchors, np.arange(g.num_nodes))

    def test_requested_count_distinct(self):
        g = random_bipartite(np.random.default_rng(1), 20, 20)
        anchors = topo.sample_anchors(g, 16, seed=2)
        assert len(anchors) == 16
        assert len(np.unique(anchors)) == 16
        assert anchors.max() < g.num_nodes

    def test_deterministic(self):
        g = random_bipartite(np.random.default_rng(2), 10, 10)
        a = topo.sample_anchors(g, 6, seed=7)
        b = topo.sample_anchors(g, 6, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_oversample_rejected(self):
        g = random_bipartite(np.random.default_rng(3), 3, 3)
        with pytest.raises(ValueError, match="anchors"):
            topo.sample_anchors(g, g.num_nodes + 1, seed=0)


class TestShortestPaths:
    def test_two_hop_path(self):
        # u0 - p0 - u1: users 0,1 and one item
        g = build_graph_from_edges(2, 1, np.array([[0, 2], [1, 2]]))
        anchors = np.array([0])
        distances = topo.shortest_paths(g, anchors, q=3)
        assert distances.shape == (3, 1)
        assert distances[1, 0] == 2.0

    def test_anchor_distance_zero_iff_self(self):
        g = random_bipartite(np.random.default_rng(4), 8, 8)
        anchors = topo.sample_anchors(g, 5, seed=3)
        distances = topo.shortest_paths(g, anchors, q=2)
        for col, a in enumerate(anchors):
            zero_rows = np.flatnonzero(distances[:, col] == 0)
            np.testing.assert_array_equal(zero_rows, [a])

    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            nu = int(rng.integers(3, 100))
            ni = int(rng.integers(3, 100))
            g = random_bipartite(rng, nu, ni, p=float(rng.uniform(0.02, 0.3)))
            q = int(rng.integers(1, 5))
            anchors = topo.sample_anchors(g, min(6, g.num_nodes), seed=trial)
            distances = topo.shortest_paths(g, anchors, q=q)
            nd = neighbor_dict(g)
            for col, a in enumerate(anchors):
                oracle = bfs_distances(g.num_nodes, nd, int(a), cutoff=q + 1)
                np.testing.assert_array_equal(distances[:, col], oracle)

    def test_invalid_cutoff(self):
        g = random_bipartite(np.random.default_rng(6), 3, 3)
        anchors = topo.sample_anchors(g, 2, seed=0)
        with pytest.raises(ValueError, match="cutoff"):
            topo.shortest_paths(g, anchors, q=0)


def correlation_rule(d, q):
    """1/(d+1) within the hop cutoff, 0 beyond it."""
    return 1.0 / (d + 1.0) if d <= q else 0.0


class TestCorrelationWeight:
    def test_zero_distance(self):
        assert topo.correlation_weights(np.array([[0.0]]), 2)[0, 0] == 1.0

    def test_at_cutoff(self):
        assert topo.correlation_weights(np.array([[2.0]]), 2)[0, 0] == pytest.approx(1 / 3)

    def test_beyond_cutoff(self):
        np.testing.assert_array_equal(topo.correlation_weights(np.array([[3.0, np.inf]]), 2),
                                      [[0.0, 0.0]])

    def test_table_matches_rule_exhaustively(self):
        rng = np.random.default_rng(8)
        g = random_bipartite(rng, 40, 40, p=0.05)
        q = 2
        anchors = topo.sample_anchors(g, 8, seed=5)
        distances = topo.shortest_paths(g, anchors, q=q)
        omega = topo.correlation_weights(distances, q)
        for k in range(g.num_nodes):
            for col in range(len(anchors)):
                assert omega[k, col] == correlation_rule(distances[k, col], q)
        nonzero = omega[omega > 0]
        assert ((nonzero >= 1 / (q + 1)) & (nonzero <= 1.0)).all()
        np.testing.assert_array_equal(omega == 0, distances > q)


class TestPgnnLayer:
    def make_inputs(self, num_nodes=6, d=3, num_anchors=2, seed=0):
        rng = substream(seed, "test-pgnn")
        h = T.parameter(rng.normal(size=(num_nodes, d)))
        anchors = np.sort(rng.choice(num_nodes, size=num_anchors, replace=False))
        omega = rng.uniform(0, 1, size=(num_nodes, num_anchors))
        w = T.parameter(rng.normal(size=(d, 2 * d)))
        return h, anchors, omega, w

    def test_all_zero_weights_give_zero_output(self):
        h, anchors, omega, w = self.make_inputs()
        out = topo.pgnn_layer(h, anchors, np.zeros_like(omega), w)
        np.testing.assert_allclose(out.values, 0.0)

    def test_identity_construction(self):
        d = 3
        h = T.Tensor(np.random.default_rng(1).normal(size=(4, d)))
        anchors = np.array([0, 1, 2, 3])
        # anchor a == k only: w[k,a] = 1 on the diagonal, W = [I | 0]
        w = T.Tensor(np.concatenate([np.eye(d), np.zeros((d, d))], axis=1))
        out = topo.pgnn_layer(h, anchors, np.eye(4), w)
        # each node sees weight 1 only for itself; [I|0] picks h_k, then /|V_A|
        np.testing.assert_allclose(out.values, h.values / 4, atol=1e-12)

    def test_matches_double_loop_oracle(self):
        h, anchors, om, w = self.make_inputs(num_nodes=6, d=3, num_anchors=2, seed=3)
        out = topo.pgnn_layer(h, anchors, om, w)

        hv, wv = h.values, w.values
        expect = np.zeros_like(hv)
        for k in range(hv.shape[0]):
            acc = np.zeros(hv.shape[1])
            for col, a in enumerate(anchors):
                concat = np.concatenate([hv[k], hv[a]])
                acc += om[k, col] * (wv @ concat)
            expect[k] = acc / len(anchors)
        np.testing.assert_allclose(out.values, expect, atol=1e-6)

    def test_gradients_match_finite_differences(self):
        h, anchors, omega, w = self.make_inputs(seed=9)

        def build():
            out = topo.pgnn_layer(h, anchors, omega, w)
            return T.tsum(T.square(out))

        check_gradients(build, {"h": h, "w": w})

    def test_dimension_mismatch_rejected(self):
        h, anchors, omega, _ = self.make_inputs()
        bad = T.parameter(np.zeros((3, 5)))
        with pytest.raises(T.ShapeMismatchError):
            topo.pgnn_layer(h, anchors, omega, bad)


class TestTopologyEncoder:
    def make_encoder(self, num_layers=2, seed=0):
        rng = np.random.default_rng(seed)
        g = random_bipartite(rng, 8, 8, p=0.25)
        enc = topo.TopologyEncoder(g, topo.sample_anchors(g, 4, seed), q=2, latdim=3,
                                   num_layers=num_layers, seed=seed)
        return g, enc

    def test_zero_weights_reduce_to_identity(self):
        g, enc = self.make_encoder()
        enc.omega = np.zeros_like(enc.omega)
        h_id = T.Tensor(np.random.default_rng(0).normal(size=(g.num_nodes, 3)))
        out = enc.encode(h_id)
        np.testing.assert_allclose(out.values, h_id.values)

    def test_output_shape_for_all_layer_counts(self):
        for n_layers in (1, 2, 3):
            g, enc = self.make_encoder(num_layers=n_layers, seed=n_layers)
            h_id = T.Tensor(np.random.default_rng(1).normal(size=(g.num_nodes, 3)))
            assert enc.encode(h_id).shape == h_id.shape

    def test_gradient_through_chain(self):
        g, enc = self.make_encoder(num_layers=2, seed=4)
        h_id = T.parameter(np.random.default_rng(2).normal(size=(g.num_nodes, 3)))

        def build():
            return T.tsum(T.square(enc.encode(h_id)))

        params = {"h": h_id}
        params.update(enc.parameters())
        check_gradients(build, params, max_components=40)

    def test_at_least_one_layer_required(self):
        with pytest.raises(ValueError, match="layer"):
            self.make_encoder(num_layers=0)

    def test_distance_cache_names_the_anchors(self):
        # same graph, seed and q: a different anchor count, then a different
        # set of the same size, must each get the weights of their own anchors
        g = random_bipartite(np.random.default_rng(7), 30, 40, p=0.1)
        first = topo.TopologyEncoder(g, topo.sample_anchors(g, 8, 6), q=2, latdim=3,
                                     num_layers=1, seed=6)
        fewer = topo.TopologyEncoder(g, topo.sample_anchors(g, 4, 6), q=2, latdim=3,
                                     num_layers=1, seed=6)
        other = np.setdiff1d(np.arange(g.num_nodes), fewer.anchors)[:4]
        moved = topo.TopologyEncoder(g, other, q=2, latdim=3, num_layers=1, seed=6)
        for enc in (first, fewer, moved):
            np.testing.assert_array_equal(
                enc.omega, topo.correlation_weights(topo.shortest_paths(g, enc.anchors, 2), 2))
