"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 6 (the real-dataset reproduction) needs the raw interaction file,
which is not redistributable; point RGTREC_LASTFM at it to enable the test.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest
from scipy import stats

import rgtrec.tensor as T
from rgtrec import attention as A
from rgtrec import losses as L
from rgtrec import propagation as P
from rgtrec import sampling as S
from rgtrec import topology as topo
from rgtrec.data import (TEST, VAL, build_graph, build_graph_from_edges,
                         load_interactions, split)
from rgtrec.evaluation import evaluate, ndcg_at_k, recall_at_k
from rgtrec.mf_baseline import BPRMatrixFactorization
from rgtrec.seeding import substream
from rgtrec.synthetic import make_block_dataset
from rgtrec.training import (TrainConfig, checkpoint_config, fit, init_pair,
                             load_checkpoint_into, negative_sample, predict_embeddings)
from oracles import (bfs_distances, check_gradients, dense_sym_norm_adjacency, neighbors,
                     plackett_luce_topk_inclusion)


def _report(criterion: int, message: str) -> None:
    print(f"\n[C{criterion}] PASS - {message}")


def random_instance(rng, max_nodes=12, d=4):
    nu = int(rng.integers(2, max_nodes // 2 + 1))
    ni = int(rng.integers(2, max_nodes - nu + 1))
    edges = set()
    edges.update((u, nu + i) for u in range(nu) for i in range(ni) if rng.random() < 0.5)
    edges.update((u, nu + int(rng.integers(ni))) for u in range(nu))
    edges.update((int(rng.integers(nu)), nu + i) for i in range(ni))
    # leave every user one non-neighbor item so negative sampling stays feasible
    for u in range(nu):
        edges.discard((u, nu + (u % ni)))
    edges.update((u, nu + ((u + 1) % ni)) for u in range(nu))
    g = build_graph_from_edges(nu, ni, np.array(sorted(edges)))
    h = T.parameter(rng.normal(size=(g.num_nodes, d)))
    return g, h


SYNTH_CFG = TrainConfig(latdim=32, heads=4, gcn_layers=2, gt_layers=1, pnn_layers=1,
                        anchor_set=16, batch_size=4096, lr=0.01, epochs=200,
                        patience=0, precision="float32")


def train_synthetic(cfg: TrainConfig, seed: int, stop_at: float | None = None):
    """Train on the 200x200 block benchmark; optionally stop once the test
    Recall@10 target is reached (the criterion asks within-N-epochs, not
    exactly-N)."""
    ds = split(make_block_dataset(200, 200, 10, 0.9, 15, seed=seed), seed=seed)
    cfg = dataclasses.replace(cfg, seed=seed)
    if stop_at is None:
        pair, _ = fit(ds, cfg)
        s = predict_embeddings(pair.teacher, pair.teacher.graph, cfg)
        return ds, evaluate(s, ds, TEST)

    from rgtrec.training import train_epoch
    graph = build_graph(ds)
    pair = init_pair(graph, cfg)
    result = None
    for epoch in range(cfg.epochs):
        train_epoch(pair, ds, graph, cfg, epoch)
        s = predict_embeddings(pair.teacher, graph, cfg)
        result = evaluate(s, ds, TEST)
        if result.macro("recall", 10) >= stop_at:
            break
    return ds, result


# ---------------------------------------------------------------------------
# 1. gradient integrity
# ---------------------------------------------------------------------------


def test_c1_gradient_integrity():
    started = time.time()
    rng = np.random.default_rng(101)

    def mae_loss(g, h):
        return L.loss_mae(h, g.edge_list[: max(1, g.num_edges // 3)], g,
                          substream(7, "acc-mae"))

    def cir_loss(g, h):
        other = T.take(h, np.arange(g.num_nodes)[::-1].copy())
        return L.loss_cir(h, other, temperature=0.5)

    def rec_loss(g, h):
        pairs = np.stack([g.edge_list[:3, 0], g.edge_list[:3, 1]], axis=1)
        return L.loss_rec(h, pairs, np.arange(g.num_users, g.num_nodes))

    def bpr_loss(g, h):
        triples = negative_sample(g, g.edge_list[:4, 0],
                                  substream(8, "acc-bpr"))
        return L.loss_bpr(h, triples)

    def distill_loss(g, h):
        fixed = np.random.default_rng(55)  # teacher constant across fd evaluations
        teacher = L.EmbeddingBundle(
            T.Tensor(fixed.normal(size=(g.num_users, h.shape[1]))),
            T.Tensor(fixed.normal(size=(g.num_items, h.shape[1]))),
            T.Tensor(fixed.normal(size=(2, h.shape[1]))),
            T.Tensor(fixed.normal(size=(1, h.shape[1]))))
        student = L.EmbeddingBundle(
            T.take(h, np.arange(g.num_users)),
            T.take(h, np.arange(g.num_users, g.num_nodes)),
            T.take(h, np.array([0, 1])), T.take(h, np.array([2])))
        return L.loss_distill(student, teacher)

    def combined_loss(g, h):
        rec = rec_loss(g, h)
        mae = mae_loss(g, h)
        bpr = bpr_loss(g, h)
        cir = cir_loss(g, h)
        dis = distill_loss(g, h)
        total, _ = L.total_loss(rec, mae, dis, bpr, cir, TrainConfig(), {"emb": h})
        return total

    def forward_chain(g, h):
        enc = topo.TopologyEncoder(g, topo.sample_anchors(g, min(4, g.num_nodes), 3), q=2,
                                   latdim=h.shape[1], num_layers=2, seed=3)
        attn = A.AttentionParams(h.shape[1], heads=2, seed=3)
        local = P.lightgcn_propagate(g, h, 2)
        out = P.encode_masked(g, local, enc, attn, gt_layers=2)
        return T.tsum(T.square(out))

    scenarios = {
        "mae": mae_loss, "cir": cir_loss, "rec": rec_loss, "bpr": bpr_loss,
        "distill": distill_loss, "combined": combined_loss, "chain": forward_chain,
    }
    for name, scenario in scenarios.items():
        for trial in range(10):
            g, h = random_instance(np.random.default_rng(1000 + 17 * trial))
            check_gradients(lambda: scenario(g, h), {"emb": h},
                            max_components=10, rng=rng)
    elapsed = time.time() - started
    assert elapsed < 60, f"gradient suite took {elapsed:.1f}s"
    _report(1, f"all losses and the forward chain match finite differences "
               f"(rel err < 1e-4, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. oracle equivalence
# ---------------------------------------------------------------------------


def test_c2_oracle_equivalence():
    rng = np.random.default_rng(202)

    # truncated shortest paths vs breadth-first search, 50 random graphs
    for trial in range(50):
        nu = int(rng.integers(3, 100))
        ni = int(rng.integers(3, 100))
        edges = [(u, nu + i) for u in range(nu) for i in range(ni)
                 if rng.random() < 0.05] or [(0, nu)]
        g = build_graph_from_edges(nu, ni, np.array(edges))
        q = int(rng.integers(1, 4))
        anchors = topo.sample_anchors(g, min(5, g.num_nodes), seed=trial)
        distances = topo.shortest_paths(g, anchors, q=q)
        nd = {k: list(neighbors(g, k)) for k in range(g.num_nodes)}
        for col, a in enumerate(anchors):
            oracle = bfs_distances(g.num_nodes, nd, int(a), cutoff=q + 1)
            np.testing.assert_array_equal(distances[:, col], oracle)

    # propagation vs the mean of dense normalized-adjacency powers; the means
    # for 1, 2 and 3 layers together fix every layer's output
    for trial in range(10):
        g, h = random_instance(np.random.default_rng(300 + trial), max_nodes=20, d=3)
        norm = dense_sym_norm_adjacency(g.num_nodes, g.edge_list)
        for layers in (1, 2, 3):
            out = P.lightgcn_propagate(g, T.Tensor(h.values), layers)
            expect = np.mean([np.linalg.matrix_power(norm, l) @ h.values
                              for l in range(layers + 1)], axis=0)
            np.testing.assert_allclose(out.values, expect, atol=1e-6)

    # attention and rationale probabilities vs brute-force evaluation
    from test_attention import brute_force_scores
    for trial in range(10):
        g, h = random_instance(np.random.default_rng(400 + trial), max_nodes=10, d=4)
        params = A.AttentionParams(latdim=4, heads=2, seed=trial)
        alphas = A.attention_scores(T.Tensor(h.values), g, params)
        directed, probs_oracle = brute_force_scores(h.values, g, params)
        src, dst = g.directed_src, g.csr_neighbors
        for hd in range(2):
            for slot in range(len(src)):
                key = (hd, int(src[slot]), int(dst[slot]))
                assert abs(alphas.values[slot, hd] - directed[key]) < 1e-6
        probs = A.edge_rationale_probs(alphas.values, g)
        np.testing.assert_allclose(probs, probs_oracle, atol=1e-6)

    _report(2, "shortest paths == BFS (50 graphs), propagation == mean of dense powers, "
               "attention == brute force (1e-6)")


# ---------------------------------------------------------------------------
# 3. distribution invariants
# ---------------------------------------------------------------------------


def test_c3_distribution_invariants():
    # edge probabilities sum to one on random forward passes
    for trial in range(5):
        g, h = random_instance(np.random.default_rng(500 + trial), max_nodes=16, d=4)
        params = A.AttentionParams(latdim=4, heads=2, seed=trial)
        probs = A.edge_rationale_probs(
            A.attention_scores(T.Tensor(h.values), g, params).values, g)
        assert abs(probs.sum() - 1.0) < 1e-6

    # sampler frequencies on the 5-edge fixture, 10,000 draws
    probs = np.array([0.40, 0.25, 0.15, 0.12, 0.08])
    draws = 10_000
    counts_r = np.zeros(5)
    counts_m = np.zeros(5)
    for seed in range(draws):
        counts_r[S.sample_rationale(probs, 0.2, seed=seed).edge_indices[0]] += 1
        counts_m[S.build_masked_graph(probs, 0.8, seed=seed).edge_indices] += 1
    np.testing.assert_allclose(counts_r / draws, probs, atol=0.02)
    expected_m = plackett_luce_topk_inclusion(S.inverted_weights(probs), k=4)
    np.testing.assert_allclose(counts_m / draws, expected_m, atol=0.02)

    # masked retention anti-correlated with rationale probability
    rho, _ = stats.spearmanr(probs, counts_m)
    assert rho < 0

    _report(3, "edge probabilities sum to 1; sampler frequencies within +/-0.02; "
               f"retention/rationale Spearman = {rho:.2f} < 0")


# ---------------------------------------------------------------------------
# 4. metric correctness
# ---------------------------------------------------------------------------


def test_c4_metric_correctness():
    log2 = math.log2
    # (ranking, relevant, k, expected recall, expected ndcg) - hand computed
    fixtures = [
        (np.array([5, 1, 2, 3]), {5}, 1, 1.0, 1.0),
        (np.array([1, 5, 2, 3]), {5}, 2, 1.0, 1 / log2(3)),
        (np.array([1, 2, 5, 3]), {5}, 3, 1.0, 1 / log2(4)),
        (np.array([1, 2, 3, 4]), {5}, 4, 0.0, 0.0),
        (np.array([5, 6, 1, 2]), {5, 6}, 2, 1.0, 1.0),
        (np.array([5, 1, 6, 2]), {5, 6}, 3, 1.0,
         (1 + 1 / log2(4)) / (1 + 1 / log2(3))),
        (np.array([5, 1, 6, 2]), {5, 6}, 2, 0.5, 1 / (1 + 1 / log2(3))),
        (np.array([9, 8, 7, 5]), {5, 6}, 4, 0.5,
         (1 / log2(5)) / (1 + 1 / log2(3))),
        (np.array([5, 6, 7, 1]), {5, 6, 7}, 3, 1.0, 1.0),
        (np.array([1, 5, 2, 6]), {5, 6, 7}, 4,
         2 / 3, (1 / log2(3) + 1 / log2(5)) / (1 + 1 / log2(3) + 1 / log2(4))),
    ]
    for ranking, relevant, k, want_recall, want_ndcg in fixtures:
        assert recall_at_k(ranking, relevant, k) == pytest.approx(want_recall, abs=1e-9)
        assert ndcg_at_k(ranking, relevant, k) == pytest.approx(want_ndcg, abs=1e-4)

    # the flagship reference value
    assert ndcg_at_k(np.array([1, 5]), {5}, 2) == pytest.approx(0.6309, abs=1e-4)

    # monotonicity over K for every user on a random evaluation
    ds = split(make_block_dataset(60, 60, 6, 0.9, 12, seed=9), seed=9)
    s = np.random.default_rng(9).normal(size=(120, 8))
    result = evaluate(s, ds, TEST, ks=(10, 20, 40))
    for row in range(len(result.user_ids)):
        assert result.recall[10][row] <= result.recall[20][row] <= result.recall[40][row]

    _report(4, "10 hand-computed ranking fixtures match (incl. 1/log2(3)); "
               "Recall@10 <= @20 <= @40 for every user")


# ---------------------------------------------------------------------------
# 5. synthetic learnability
# ---------------------------------------------------------------------------


def test_c5_synthetic_learnability():
    target = 0.60
    passed = 0
    per_seed = []
    for seed in range(5):
        started = time.time()
        ds, result = train_synthetic(SYNTH_CFG, seed, stop_at=target)
        elapsed = time.time() - started
        recall10 = result.macro("recall", 10)
        per_seed.append((seed, recall10, elapsed))
        assert elapsed < 600, f"seed {seed} exceeded the 10-minute budget"
        if recall10 >= target:
            passed += 1

        # a degenerate untrained scorer (random embedding table) stays low
        rand = np.random.default_rng(seed).normal(size=(400, SYNTH_CFG.latdim))
        untrained = evaluate(rand.astype(np.float32), ds, TEST, ks=(10,))
        assert untrained.macro("recall", 10) <= 0.10

    assert passed >= 3, f"only {passed}/5 seeds reached recall@10 >= {target}"
    detail = ", ".join(f"seed{s}={r:.2f}({t:.0f}s)" for s, r, t in per_seed)
    _report(5, f"{passed}/5 seeds reached test recall@10 >= {target}: {detail}")


# ---------------------------------------------------------------------------
# 6. real-dataset reproduction (needs the raw LastFM-scale file)
# ---------------------------------------------------------------------------


LASTFM_PATH = os.environ.get("RGTREC_LASTFM", "")


@pytest.mark.skipif(not LASTFM_PATH, reason=(
    "set RGTREC_LASTFM to the raw LastFM interaction file (tsv: user<TAB>item) "
    "to run the real-dataset comparison; the file is not redistributable"))
def test_c6_lastfm_reproduction():
    ds = load_interactions(LASTFM_PATH)
    assert (ds.num_users, ds.num_items, ds.num_interactions) == (1889, 15376, 51987), \
        "unexpected dataset statistics; is this the documented LastFM export?"
    ds = split(ds, (0.7, 0.05, 0.25), seed=0)

    cfg = TrainConfig(latdim=64, heads=8, gcn_layers=1, gt_layers=1, pnn_layers=2,
                      anchor_set=32, batch_size=4096, lr=0.001,
                      lambda_contrast=0.005, lambda_reg=0.0001,
                      epochs=120, patience=20, seed=0, precision="float32")
    pair, history = fit(ds, cfg)
    s = predict_embeddings(pair.teacher, pair.teacher.graph, cfg)
    test_result = evaluate(s, ds, TEST)
    recall40 = test_result.macro("recall", 40)
    ndcg40 = test_result.macro("ndcg", 40)

    baseline = BPRMatrixFactorization(ds.num_users, ds.num_items, factors=64,
                                      seed=0).fit(ds, epochs=30)
    base_result = evaluate(baseline.embeddings(), ds, TEST)
    base40 = base_result.macro("recall", 40)

    # gating requirement: beat the factorization baseline under identical splits
    assert recall40 >= base40, (
        f"model recall@40 {recall40:.4f} below the factorization baseline {base40:.4f}")

    # stretch targets, reported but not gating
    stretch = "MET" if (recall40 >= 0.25 and ndcg40 >= 0.18) else "NOT MET"
    _report(6, f"recall@40={recall40:.4f} (baseline {base40:.4f}), "
               f"ndcg@40={ndcg40:.4f}; stretch targets {stretch}")


# ---------------------------------------------------------------------------
# 7. ablation ordering
# ---------------------------------------------------------------------------


def test_c7_ablation_ordering():
    seeds = range(5)

    # component chain in a converged regime
    converged = dataclasses.replace(SYNTH_CFG, epochs=30)
    chain = {"full": [], "plain_gt": []}
    for seed in seeds:
        for name, patch in (
            ("full", {}),
            ("plain_gt", dict(use_topology=False, use_residual=False)),
        ):
            cfg = dataclasses.replace(converged, **patch)
            _, result = train_synthetic(cfg, seed)
            chain[name].append(result.macro("recall", 40))
    mean = {k: float(np.mean(v)) for k, v in chain.items()}
    assert mean["full"] >= mean["plain_gt"], mean

    # loss removals in an undertrained regime where the margins are visible
    undertrained = dataclasses.replace(SYNTH_CFG, epochs=3, lr=0.003)
    removals = {
        "no_ranking": dict(lambda_ranking=0.0),
        "no_rec": dict(lambda_rec=0.0),
        "no_reg": dict(lambda_reg=0.0),
    }
    margins = {name: [] for name in removals}
    for seed in seeds:
        _, full = train_synthetic(undertrained, seed)
        full40 = full.macro("recall", 40)
        for name, patch in removals.items():
            cfg = dataclasses.replace(undertrained, **patch)
            _, result = train_synthetic(cfg, seed)
            margins[name].append(full40 - result.macro("recall", 40))
    mean_margin = {k: float(np.mean(v)) for k, v in margins.items()}
    worst = max(mean_margin, key=mean_margin.get)
    assert worst == "no_rec", f"expected the recommendation loss to matter most: {mean_margin}"

    _report(7, f"component means {mean}; removal margins {mean_margin} "
               f"(recommendation loss removal degrades most)")


# ---------------------------------------------------------------------------
# 8. engineering contracts
# ---------------------------------------------------------------------------


def test_c8_engineering_contracts(tmp_path):
    ds = split(make_block_dataset(num_users=12, num_items=24, num_blocks=3,
                                  interactions_per_user=16, seed=5), seed=5)
    cfg = TrainConfig(latdim=8, heads=2, gcn_layers=1, gt_layers=1, pnn_layers=1,
                      anchor_set=6, batch_size=256, lr=0.01, epochs=2, patience=0,
                      seed=3, precision="float64")

    # reruns: bit-identical epoch losses across two runs
    _, h1 = fit(ds, cfg)
    pair, h2 = fit(ds, cfg, out_dir=tmp_path)
    assert h1 == h2

    # checkpoint round trip: identical forward outputs, bit for bit, in a pair
    # built from the checkpoint's own config whose parameters all differ first
    graph = build_graph(ds)
    ckpt = tmp_path / "model.ckpt"
    before = predict_embeddings(pair.teacher, graph, cfg)
    fresh = init_pair(graph, checkpoint_config(ckpt))
    for name, p in fresh.teacher.parameters().items():
        p.values += 1.0
        assert not np.array_equal(p.values, pair.teacher.parameters()[name].values)
    load_checkpoint_into(ckpt, fresh)
    after = predict_embeddings(fresh.teacher, graph, cfg)
    assert np.array_equal(before, after)

    # no val/test leakage into the graph, on several datasets
    for seed in range(3):
        d2 = split(make_block_dataset(num_users=20, num_items=20, num_blocks=4,
                                      interactions_per_user=10, seed=seed), seed=seed)
        g2 = build_graph(d2)
        graph_edges = {(int(a), int(b)) for a, b in g2.edge_list}
        held_out = {(int(u), int(d2.num_users + i))
                    for sp in (VAL, TEST) for u, i in d2.pairs(sp)}
        assert graph_edges.isdisjoint(held_out)

    _report(8, "bit-identical reruns, bit-exact checkpoint round trip, "
               "no val/test leakage")
