import numpy as np
import pytest
from scipy import stats

from rgtrec import sampling as S
from rgtrec.data import build_graph_from_edges
from oracles import plackett_luce_topk_inclusion


FIVE = np.array([0.40, 0.25, 0.15, 0.12, 0.08])


class TestSampleRationale:
    def test_full_rate_selects_all_edges(self):
        sub = S.sample_rationale(FIVE, 1.0, seed=0)
        np.testing.assert_array_equal(sub.edge_indices, np.arange(5))

    def test_dominant_edge_always_selected(self):
        t = np.array([0.9999, 0.000025, 0.000025, 0.000025, 0.000025])
        for seed in range(50):
            sub = S.sample_rationale(t, 0.2, seed=seed)
            assert 0 in sub.edge_indices

    def test_empty_sample_rejected(self):
        t = np.array(np.full(5, 0.2))
        with pytest.raises(ValueError, match="empty"):
            S.sample_rationale(t, 0.05, seed=0)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            S.sample_rationale(FIVE, 0.0, seed=0)
        with pytest.raises(ValueError):
            S.sample_rationale(FIVE, 1.2, seed=0)

    def test_selection_frequency_matches_probs(self):
        # with k=1 the inclusion probability is exactly the edge probability
        counts = np.zeros(5)
        for seed in range(10_000):
            sub = S.sample_rationale(FIVE, 0.2, seed=seed)
            counts[sub.edge_indices[0]] += 1
        np.testing.assert_allclose(counts / 10_000, FIVE, atol=0.02)


class TestBuildMaskedGraph:
    def test_rate_exactness(self):
        for rho in (0.9, 0.5, 0.7):
            sub = S.build_masked_graph(FIVE, rho, seed=1)
            assert len(sub) == int(np.floor(rho * 5 + 0.5))

    def test_uniform_scores_keep_requested_count(self):
        t = np.array(np.full(5, 0.2))
        sub = S.build_masked_graph(t, 0.6, seed=2)
        assert len(sub) == 3

    def test_max_rationale_edge_has_lowest_retention(self):
        counts = np.zeros(5)
        for seed in range(4_000):
            sub = S.build_masked_graph(FIVE, 0.4, seed=seed)
            counts[sub.edge_indices] += 1
        assert counts.argmin() == FIVE.argmax()

    def test_retention_frequency_matches_inverted_distribution(self):
        # k=1 retention draws exactly from the normalized inverted scores
        inv = S.inverted_weights(FIVE)
        target = inv / inv.sum()
        counts = np.zeros(5)
        for seed in range(10_000):
            sub = S.build_masked_graph(FIVE, 0.2, seed=seed)
            counts[sub.edge_indices[0]] += 1
        np.testing.assert_allclose(counts / 10_000, target, atol=0.02)

    def test_retention_matches_enumeration_oracle_for_k4(self):
        inv = S.inverted_weights(FIVE)
        expected = plackett_luce_topk_inclusion(inv, k=4)
        counts = np.zeros(5)
        n = 10_000
        for seed in range(n):
            sub = S.build_masked_graph(FIVE, 0.8, seed=seed)
            counts[sub.edge_indices] += 1
        np.testing.assert_allclose(counts / n, expected, atol=0.02)

    def test_masked_out_partition(self):
        sub = S.build_masked_graph(FIVE, 0.6, seed=3)
        out = sub.complement_indices(5)
        assert len(out) + len(sub) == 5
        assert np.intersect1d(out, sub.edge_indices).size == 0


class TestSampleComplement:
    def test_single_edge_sample(self):
        sub = S.sample_complement(FIVE, 0.2, seed=4)
        assert len(sub) == 1

    def test_frequencies_match_masking_distribution(self):
        # complement and masked-retention draw from the same inverted scores;
        # chi-square goodness of fit against that shared distribution
        inv = S.inverted_weights(FIVE)
        target = inv / inv.sum()
        counts = np.zeros(5)
        n = 10_000
        for seed in range(n):
            sub = S.sample_complement(FIVE, 0.2, seed=seed)
            counts[sub.edge_indices[0]] += 1
        result = stats.chisquare(counts, f_exp=target * n)
        assert result.pvalue > 0.01
        np.testing.assert_allclose(counts / n, target, atol=0.02)


class TestInvariants:
    def test_determinism(self):
        for fn in (
            lambda s: S.sample_rationale(FIVE, 0.4, seed=s),
            lambda s: S.build_masked_graph(FIVE, 0.8, seed=s),
            lambda s: S.sample_complement(FIVE, 0.2, seed=s),
        ):
            a, b = fn(123), fn(123)
            np.testing.assert_array_equal(a.edge_indices, b.edge_indices)

    def test_kinds_have_independent_streams(self):
        r = S.sample_rationale(np.array(np.full(10, 0.1)), 0.5, seed=7)
        m = S.build_masked_graph(np.array(np.full(10, 0.1)), 0.5, seed=7)
        assert not np.array_equal(r.edge_indices, m.edge_indices)

    def test_sizes_always_round_of_rate(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(4, 50))
            probs = rng.dirichlet(np.ones(n))
            t = probs
            rho = float(rng.uniform(0.1, 0.99))
            if int(np.floor(rho * n + 0.5)) < 1:
                continue
            sub = S.build_masked_graph(t, rho, seed=trial)
            assert len(sub) == int(np.floor(rho * n + 0.5))
            assert len(np.unique(sub.edge_indices)) == len(sub)
            assert sub.edge_indices.max() < n

    def test_retention_anticorrelated_with_rationale_probs(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.arange(1.0, 13.0))
        t = probs
        counts = np.zeros(12)
        for seed in range(3_000):
            sub = S.build_masked_graph(t, 0.5, seed=seed)
            counts[sub.edge_indices] += 1
        rho, _ = stats.spearmanr(probs, counts)
        assert rho < 0

    def test_dump_tsv(self, tmp_path):
        g = build_graph_from_edges(3, 3, np.array([[0, 3], [1, 4], [2, 5], [0, 4], [1, 5]]))
        sub = S.sample_rationale(FIVE, 0.4, seed=5)
        out = tmp_path / "sub.tsv"
        S.dump_subgraph_tsv(sub, g, out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 + len(sub)
        assert lines[1] == "edge_id\tuser_node\titem_node"
