import numpy as np
import pytest

from rgtrec import attention as A
from rgtrec import tensor as T
from rgtrec.data import build_graph_from_edges
from rgtrec.seeding import substream
from oracles import check_gradients, per_head_light_self_attention


def line_graph():
    # u0 - p0, u1 - p0 (item node = 2)
    return build_graph_from_edges(2, 1, np.array([[0, 2], [1, 2]]))


def random_graph(rng, num_users=3, num_items=3, p=0.5):
    edges = [(u, num_users + i)
             for u in range(num_users) for i in range(num_items) if rng.random() < p]
    if not edges:
        edges = [(0, num_users)]
    return build_graph_from_edges(num_users, num_items, np.array(edges))


def brute_force_scores(h, g, params):
    """Direct per-pair evaluation of the scaled-dot attention and edge probs."""
    heads = params.heads
    dh = params.head_dim
    directed = {}  # (h, k, k2) -> alpha
    for hd in range(heads):
        rows = slice(hd * dh, (hd + 1) * dh)
        wq, wk = params.wq.values[rows], params.wk.values[rows]
        for k in range(g.num_nodes):
            nbrs = list(g.neighbors(k))
            if not nbrs:
                continue
            raws = [float((wq @ h[k]) @ (wk @ h[k2])) / np.sqrt(dh) for k2 in nbrs]
            e = np.exp(np.array(raws) - max(raws))
            alphas = e / e.sum()
            for k2, a in zip(nbrs, alphas):
                directed[(hd, k, int(k2))] = a

    mean = {}
    for k, k2 in g.edge_list:
        k, k2 = int(k), int(k2)
        fwd = np.mean([directed[(hd, k, k2)] for hd in range(heads)])
        bwd = np.mean([directed[(hd, k2, k)] for hd in range(heads)])
        mean[(k, k2)] = (fwd + bwd) / 2
    total = sum(mean.values())
    probs = np.array([mean[(int(k), int(k2))] / total for k, k2 in g.edge_list])
    return directed, probs


class TestAttentionScores:
    def test_single_neighbor_gets_weight_one(self):
        g = build_graph_from_edges(1, 1, np.array([[0, 1]]))
        params = A.AttentionParams(latdim=4, heads=2, seed=0)
        h = T.Tensor(np.random.default_rng(0).normal(size=(2, 4)))
        alphas = A.attention_scores(h, g, params)
        for hd in range(params.heads):
            np.testing.assert_allclose(alphas.values[:, hd], 1.0, atol=1e-12)

    def test_identical_keys_give_uniform_attention(self):
        g = build_graph_from_edges(1, 4, np.array([[0, 1], [0, 2], [0, 3], [0, 4]]))
        params = A.AttentionParams(latdim=4, heads=1, seed=1)
        h = np.random.default_rng(1).normal(size=(5, 4))
        h[1:] = h[1]  # all item embeddings identical
        alphas = A.attention_scores(T.Tensor(h), g, params)
        row = alphas.values[:4, 0]  # u0's four directed slots
        np.testing.assert_allclose(row, 0.25, atol=1e-9)

    def test_matches_per_pair_oracle(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 3, 2, p=0.8)
        params = A.AttentionParams(latdim=6, heads=2, seed=2)
        h = rng.normal(size=(g.num_nodes, 6))
        alphas = A.attention_scores(T.Tensor(h), g, params)
        directed, _ = brute_force_scores(h, g, params)
        src, dst = g.directed_src, g.csr_neighbors
        for hd in range(params.heads):
            for slot in range(len(src)):
                key = (hd, int(src[slot]), int(dst[slot]))
                assert abs(alphas.values[slot, hd] - directed[key]) < 1e-6

    def test_shift_invariance(self):
        # adding a constant to all raw scores of one node leaves alphas unchanged;
        # realized by scaling queries of that node... verified via direct recompute
        rng = np.random.default_rng(3)
        g = random_graph(rng, 3, 3, p=0.7)
        params = A.AttentionParams(latdim=4, heads=1, seed=3)
        h = rng.normal(size=(g.num_nodes, 4))
        base = A.attention_scores(T.Tensor(h), g, params).values[:, 0]

        # recompute raw scores, add a per-node constant, softmax again
        wq, wk = params.wq.values[:4], params.wk.values[:4]
        src, dst = g.directed_src, g.csr_neighbors
        raw = np.array([(wq @ h[s]) @ (wk @ h[d]) for s, d in zip(src, dst)]) / np.sqrt(4)
        raw += 13.7 * src  # constant per source node
        shifted = np.zeros_like(raw)
        for k in range(g.num_nodes):
            slots = np.flatnonzero(src == k)
            if len(slots) == 0:
                continue
            e = np.exp(raw[slots] - raw[slots].max())
            shifted[slots] = e / e.sum()
        np.testing.assert_allclose(base, shifted, atol=1e-6)


class TestEdgeRationaleProbs:
    def test_single_edge_prob_one(self):
        g = build_graph_from_edges(1, 1, np.array([[0, 1]]))
        params = A.AttentionParams(latdim=4, heads=2, seed=4)
        h = T.Tensor(np.random.default_rng(4).normal(size=(2, 4)))
        table = A.edge_rationale_probs(A.attention_scores(h, g, params), g)
        np.testing.assert_allclose(table.probs, [1.0])

    def test_identical_heads_mean_equals_single_head(self):
        g = line_graph()
        params = A.AttentionParams(latdim=4, heads=2, seed=5)
        dh = params.head_dim
        for w_src, w_dst in ((params.wq, params.wq), (params.wk, params.wk), (params.wv, params.wv)):
            w_dst.values[dh:2 * dh] = w_src.values[:dh]
        h = T.Tensor(np.random.default_rng(5).normal(size=(3, 4)))
        alphas = A.attention_scores(h, g, params)
        np.testing.assert_allclose(alphas.values[:, 0], alphas.values[:, 1], atol=1e-12)
        table = A.edge_rationale_probs(alphas, g)
        single = A.edge_rationale_probs(T.Tensor(alphas.values[:, :1]), g)
        np.testing.assert_allclose(table.probs, single.probs, atol=1e-12)

    def test_matches_brute_force_and_sums_to_one(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 4, 4, p=0.6)
        params = A.AttentionParams(latdim=8, heads=4, seed=6)
        h = rng.normal(size=(g.num_nodes, 8))
        table = A.edge_rationale_probs(A.attention_scores(T.Tensor(h), g, params), g)
        _, oracle = brute_force_scores(h, g, params)
        np.testing.assert_allclose(table.probs, oracle, atol=1e-6)
        assert abs(table.probs.sum() - 1.0) < 1e-6
        assert (table.probs >= 0).all()


class TestLightSelfAttention:
    def test_single_neighbor_identity_construction(self):
        g = build_graph_from_edges(1, 1, np.array([[0, 1]]))
        params = A.AttentionParams(latdim=2, heads=1, seed=7)
        params.wv.values[0:2] = np.eye(2)
        params.wo.values[:] = np.eye(2)
        h = np.random.default_rng(7).normal(size=(2, 2))
        out = A.light_self_attention(T.Tensor(h), g, params)
        np.testing.assert_allclose(out.values[0], h[1], atol=1e-9)
        np.testing.assert_allclose(out.values[1], h[0], atol=1e-9)

    def test_zero_value_matrices_give_zero_output(self):
        g = line_graph()
        params = A.AttentionParams(latdim=4, heads=2, seed=8)
        dh = params.head_dim
        for hd in range(params.heads):
            params.wv.values[hd * dh:(hd + 1) * dh] = 0.0
        h = T.Tensor(np.random.default_rng(8).normal(size=(3, 4)))
        out = A.light_self_attention(h, g, params)
        np.testing.assert_allclose(out.values, 0.0)

    def test_isolated_node_row_is_zero(self):
        g = build_graph_from_edges(2, 1, np.array([[0, 2]]))  # user 1 isolated
        params = A.AttentionParams(latdim=2, heads=1, seed=9)
        h = T.Tensor(np.random.default_rng(9).normal(size=(3, 2)))
        out = A.light_self_attention(h, g, params)
        np.testing.assert_allclose(out.values[1], 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, 3, 3, p=0.7)
        params = A.AttentionParams(latdim=4, heads=2, seed=10)
        h = T.parameter(rng.normal(size=(g.num_nodes, 4)), name="h")

        def build():
            return T.tsum(T.square(A.light_self_attention(h, g, params)))

        all_params = {"h": h}
        all_params.update(params.parameters())
        check_gradients(build, all_params, max_components=25)


class TestResidualGT:
    def test_zero_attention_params_give_identity(self):
        g = line_graph()
        params = A.AttentionParams(latdim=4, heads=2, seed=11)
        dh = params.head_dim
        for plist in (params.wv,):
            for hd in range(params.heads):
                plist.values[hd * dh:(hd + 1) * dh] = 0.0
        params.wo.values[:] = 0.0
        h = T.Tensor(np.random.default_rng(11).normal(size=(3, 4)))
        out = A.residual_gt(h, g, params, n_layers=3)
        np.testing.assert_array_equal(out.values, h.values)

    def test_finite_output_after_stacked_layers(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 4, 4, p=0.5)
        params = A.AttentionParams(latdim=8, heads=2, seed=12)
        h = T.Tensor(rng.normal(size=(g.num_nodes, 8)))
        out = A.residual_gt(h, g, params, n_layers=4)
        assert np.isfinite(out.values).all()

    def test_layer_count_validated(self):
        g = line_graph()
        params = A.AttentionParams(latdim=4, heads=1, seed=13)
        with pytest.raises(ValueError, match="layer"):
            A.residual_gt(T.Tensor(np.zeros((3, 4))), g, params, n_layers=0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(14)
        nu, ni = 5, 5
        g = random_graph(rng, nu, ni, p=0.5)
        params = A.AttentionParams(latdim=4, heads=2, seed=14)
        h = rng.normal(size=(g.num_nodes, 4))

        perm_users = rng.permutation(nu)
        perm_items = rng.permutation(ni)
        perm = np.concatenate([perm_users, nu + perm_items])  # old -> new id

        edges_new = np.stack([perm[g.edge_list[:, 0]], perm[g.edge_list[:, 1]]], axis=1)
        g_perm = build_graph_from_edges(nu, ni, edges_new)
        h_perm = np.empty_like(h)
        h_perm[perm] = h

        out = A.residual_gt(T.Tensor(h), g, params, n_layers=2).values
        out_perm = A.residual_gt(T.Tensor(h_perm), g_perm, params, n_layers=2).values
        np.testing.assert_allclose(out_perm[perm], out, atol=1e-9)

    def test_non_residual_mode(self):
        g = line_graph()
        params = A.AttentionParams(latdim=4, heads=1, seed=15)
        h = T.Tensor(np.random.default_rng(15).normal(size=(3, 4)))
        plain = A.residual_gt(h, g, params, n_layers=1, residual=False)
        attn = A.light_self_attention(h, g, params)
        np.testing.assert_allclose(plain.values, attn.values)


def graph_with_isolated_user(rng, num_users=4, num_items=4, p=0.6):
    """Random graph in which the last user has no edges."""
    edges = [(u, num_users + i)
             for u in range(num_users - 1) for i in range(num_items) if rng.random() < p]
    edges.append((0, num_users))
    return build_graph_from_edges(num_users, num_items, np.array(sorted(set(edges))))


class TestFusedHeads:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_per_head_loop(self, heads):
        rng = np.random.default_rng(30 + heads)
        g = graph_with_isolated_user(rng)
        params = A.AttentionParams(latdim=8, heads=heads, seed=heads)
        h = T.parameter(rng.normal(size=(g.num_nodes, 8)), name="h")
        tensors = {"h": h, **params.parameters()}
        results = []
        for layer in (A.light_self_attention, per_head_light_self_attention):
            for t in tensors.values():
                t.grad = None
            with T.Tape() as tape:
                out = layer(h, g, params)
                T.backward(T.tsum(T.square(out)), tape)
            results.append((out.values, {k: t.grad for k, t in tensors.items()}))
        (fused, fused_grads), (loop, loop_grads) = results
        np.testing.assert_allclose(fused, loop, rtol=1e-12, atol=1e-12)
        for name in tensors:
            np.testing.assert_allclose(fused_grads[name], loop_grads[name],
                                       rtol=1e-10, atol=1e-12, err_msg=name)

    def test_tape_records_do_not_grow_with_heads(self):
        g = graph_with_isolated_user(np.random.default_rng(40), 5, 5)
        h_values = np.random.default_rng(41).normal(size=(g.num_nodes, 8))
        records = []
        for heads in (1, 8):
            params = A.AttentionParams(latdim=8, heads=heads, seed=0)
            with T.Tape() as tape:
                A.light_self_attention(T.parameter(h_values, name="h"), g, params)
            records.append(len(tape))
        assert records[0] == records[1]

    def test_fused_init_equals_per_head_draws_stacked_by_row(self):
        latdim, heads, seed = 16, 4, 3
        params = A.AttentionParams(latdim, heads, seed)
        rng = substream(seed, "attn-init", "attn")
        scale = 1.0 / np.sqrt(latdim)
        for name in ("wq", "wk", "wv"):
            draws = [rng.uniform(-scale, scale, size=(latdim // heads, latdim))
                     for _ in range(heads)]
            np.testing.assert_array_equal(getattr(params, name).values, np.vstack(draws))
        np.testing.assert_array_equal(params.wo.values,
                                      rng.uniform(-scale, scale, size=(latdim, latdim)))


class TestAttentionParams:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            A.AttentionParams(latdim=6, heads=4, seed=0)

    def test_init_scale(self):
        params = A.AttentionParams(latdim=16, heads=4, seed=1)
        bound = 1 / np.sqrt(16)
        for w in params.parameters().values():
            assert np.abs(w.values).max() <= bound
