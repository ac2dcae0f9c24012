import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rgtrec import evaluation as E
from rgtrec.data import InteractionDataset, TRAIN, VAL, TEST, split
from rgtrec.synthetic import make_block_dataset
from oracles import (ndcg_at_k, per_user_evaluate, rank_items, recall_at_k,
                     score_all_items)


class TestScoreAllItems:
    def test_aligned_item_ranks_first(self):
        num_users = 1
        s = np.zeros((4, 3))
        s[0] = [1, 0, 0]        # user
        s[1] = [0.2, 0, 0]      # item 0
        s[2] = [1.0, 0, 0]      # item 1, same direction as the user
        s[3] = [0, 1, 0]        # item 2, orthogonal
        scores = score_all_items(s, 0, np.array([], dtype=np.int64), num_users)
        assert rank_items(scores, 1)[0] == 1

    def test_train_items_masked(self):
        s = np.ones((4, 2))
        scores = score_all_items(s, 0, np.array([1]), 1)
        assert scores[1] == -np.inf

    def test_tie_break_ascending_item_id(self):
        s = np.ones((5, 2))  # every item scores identically
        scores = score_all_items(s, 0, np.array([], dtype=np.int64), 1)
        np.testing.assert_array_equal(rank_items(scores, 4), [0, 1, 2, 3])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(5 + 8, 4))
        for user in range(5):
            scores = score_all_items(s, user, np.array([], dtype=np.int64), 5)
            expect = np.array([s[user] @ s[5 + j] for j in range(8)])
            np.testing.assert_allclose(scores, expect, atol=1e-6)


class TestRecall:
    def test_single_hit(self):
        assert recall_at_k(np.array([3, 1, 2]), {3}, 2) == 1.0

    def test_partial_hit(self):
        assert recall_at_k(np.array([3, 1, 2]), {3, 9}, 3) == 0.5

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            topk = rng.permutation(30)[:10]
            relevant = set(int(x) for x in rng.choice(30, size=5, replace=False))
            k = int(rng.integers(1, 11))
            expect = len(set(int(x) for x in topk[:k]) & relevant) / len(relevant)
            assert recall_at_k(topk, relevant, k) == pytest.approx(expect)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(np.array([1]), set(), 1)


class TestNdcg:
    def test_relevant_at_rank_one(self):
        assert ndcg_at_k(np.array([7, 1, 2]), {7}, 3) == pytest.approx(1.0)

    def test_relevant_at_rank_two(self):
        value = ndcg_at_k(np.array([1, 7, 2]), {7}, 3)
        assert value == pytest.approx(1 / math.log2(3), abs=1e-4)

    def test_no_relevant_in_topk(self):
        assert ndcg_at_k(np.array([1, 2, 3]), {9}, 3) == 0.0

    def test_perfect_prefix_is_one(self):
        assert ndcg_at_k(np.array([4, 5, 6, 1]), {4, 5, 6}, 4) == pytest.approx(1.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            topk = rng.permutation(20)[:8]
            relevant = set(int(x) for x in rng.choice(20, size=4, replace=False))
            k = int(rng.integers(1, 9))
            dcg = sum(1 / math.log2(r + 2) for r, it in enumerate(topk[:k])
                      if int(it) in relevant)
            idcg = sum(1 / math.log2(r + 2) for r in range(min(k, len(relevant))))
            assert ndcg_at_k(topk, relevant, k) == pytest.approx(dcg / idcg)


def two_user_toy():
    """user u: train item 2u, val item 2u+1."""
    inter = np.array([[0, 0], [0, 1], [1, 2], [1, 3]])
    assignment = np.array([TRAIN, VAL, TRAIN, VAL], dtype=np.int8)
    return InteractionDataset(2, 4, inter, split_assignment=assignment)


class TestEvaluate:
    def test_perfect_embeddings_score_one(self):
        ds = two_user_toy()
        s = np.zeros((6, 2))
        s[0] = [1, 0]
        s[1] = [0, 1]
        s[2 + 0] = [0.9, 0]
        s[2 + 1] = [1.0, 0]
        s[2 + 2] = [0, 0.9]
        s[2 + 3] = [0, 1.0]
        result = E.evaluate(s, ds, VAL, ks=(1, 2))
        for k in (1, 2):
            assert result.macro("recall", k) == 1.0
            assert result.macro("ndcg", k) == 1.0

    def test_train_items_never_reported(self):
        ds = split(make_block_dataset(num_users=20, num_items=20, num_blocks=4,
                                      interactions_per_user=10, seed=1), seed=1)
        s = np.random.default_rng(3).normal(size=(40, 8))
        result = E.evaluate(s, ds, TEST, ks=(5, 10))
        train = ds.positives_by_user(TRAIN)
        for row, u in enumerate(result.user_ids):
            assert not set(int(x) for x in result.topk[row]) & set(int(x) for x in train[u])

    def test_monotonicity_over_k(self):
        ds = split(make_block_dataset(num_users=30, num_items=30, num_blocks=5,
                                      interactions_per_user=12, seed=2), seed=2)
        s = np.random.default_rng(4).normal(size=(60, 8))
        result = E.evaluate(s, ds, TEST, ks=(5, 10, 20))
        for row in range(len(result.user_ids)):
            assert result.recall[5][row] <= result.recall[10][row] <= result.recall[20][row]

    def test_users_without_relevant_items_excluded(self):
        inter = np.array([[0, 0], [0, 1], [1, 2]])
        assignment = np.array([TRAIN, VAL, TRAIN], dtype=np.int8)
        ds = InteractionDataset(2, 3, inter, split_assignment=assignment)
        result = E.evaluate(np.random.default_rng(5).normal(size=(5, 4)), ds, VAL, ks=(1,))
        np.testing.assert_array_equal(result.user_ids, [0])

    def test_random_embeddings_match_uniform_expectation(self):
        ds = split(make_block_dataset(num_users=60, num_items=200, num_blocks=20,
                                      interactions_per_user=12, seed=6), seed=6)
        s = np.random.default_rng(7).normal(size=(260, 16))
        result = E.evaluate(s, ds, TEST, ks=(20,))
        # ~20 slots over ~192 unseen items -> recall ~ 0.104
        expect = 20 / 192
        assert 0.3 * expect < result.macro("recall", 20) < 3 * expect

    def test_split_guard(self):
        ds = two_user_toy()
        with pytest.raises(ValueError):
            E.evaluate(np.zeros((6, 2)), ds, TRAIN)


def random_dataset(num_users, num_items, per_user, seed):
    """Random interactions, about half train, the rest split over val/test."""
    rng = np.random.default_rng(seed)
    inter = np.array([[u, i] for u in range(num_users)
                      for i in rng.choice(num_items, size=per_user[u], replace=False)])
    assignment = rng.choice([TRAIN, VAL, TEST], size=len(inter),
                            p=[0.5, 0.25, 0.25]).astype(np.int8)
    return InteractionDataset(num_users, num_items, inter, split_assignment=assignment)


class TestEvaluateMatchesOracle:
    """``evaluate`` (threshold top-k, hit-matrix metrics) against the
    per-user full argsort and set-based metrics of ``oracles.per_user_evaluate``."""

    KS = (5, 20, 40)

    def assert_matches(self, s, ds, split=TEST):
        result = E.evaluate(s, ds, split, ks=self.KS)
        users, topk, recall, ndcg = per_user_evaluate(s, ds, split, self.KS)
        assert len(users) > 0
        np.testing.assert_array_equal(result.user_ids, users)
        np.testing.assert_array_equal(result.topk, topk)
        for k in self.KS:
            np.testing.assert_array_equal(result.recall[k], recall[k])
            np.testing.assert_allclose(result.ndcg[k], ndcg[k], rtol=0, atol=1e-12)
        return result

    def test_random_embeddings(self):
        ds = random_dataset(300, 500, np.full(300, 30), seed=1)
        s = np.random.default_rng(2).normal(size=(800, 8))
        self.assert_matches(s, ds)
        self.assert_matches(s, ds, VAL)

    def test_forced_ties(self):
        # integer entries make every score exact, so ties are exact ties
        rng = np.random.default_rng(3)
        ds = random_dataset(300, 200, np.full(300, 20), seed=4)
        s = rng.integers(-2, 3, size=(500, 4)).astype(np.float64)
        s[300 + 100:] = s[300:300 + 100]      # every item row appears twice
        s[:300:3] = 0.0                       # every third user scores all items 0
        result = self.assert_matches(s, ds)
        zero_rows = np.flatnonzero(result.user_ids % 3 == 0)
        assert len(zero_rows) > 0
        train = ds.positives_by_user(TRAIN)
        for row in zero_rows[:5]:
            u = result.user_ids[row]
            want = np.setdiff1d(np.arange(ds.num_items), train[u])[:40]
            np.testing.assert_array_equal(result.topk[row], want)

    def test_fewer_unseen_items_than_max_k(self):
        # 60 items, users with up to 55 interactions: many have under 40
        # non-train items, so their top-40 runs into the -inf train items
        rng = np.random.default_rng(5)
        ds = random_dataset(200, 60, rng.integers(5, 56, size=200), seed=6)
        train = ds.positives_by_user(TRAIN)
        assert min(60 - len(t) for t in train) < 40
        s = rng.normal(size=(260, 8))
        self.assert_matches(s, ds)

    def test_nan_embeddings_rejected(self):
        ds = random_dataset(20, 60, np.full(20, 10), seed=9)
        s = np.random.default_rng(10).normal(size=(80, 4))
        s[ds.pairs(TEST)[0, 0]] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            E.evaluate(s, ds, TEST, ks=self.KS)

    def test_fewer_items_than_max_k(self):
        ds = random_dataset(50, 30, np.full(50, 12), seed=7)
        s = np.random.default_rng(8).normal(size=(80, 4))
        self.assert_matches(s, ds)


class TestEvaluateRejectsMalformedInput:
    """Each malformed call raises a one-line ``ValueError``; on a 20-user ×
    30-item set they used to report ids past the item table, a recall above
    1, a bare ``IndexError``, a metric at K = 0 or NDCG under another name."""

    @pytest.fixture
    def case(self):
        ds = random_dataset(20, 30, np.full(20, 10), seed=11)
        return ds, np.random.default_rng(12).normal(size=(50, 4))

    @staticmethod
    def assert_refused(call, match):
        with pytest.raises(ValueError, match=match) as info:
            call()
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("extra_rows", [7, -5])
    def test_s_without_one_row_per_user_and_item(self, case, extra_rows):
        ds, s = case
        s = np.random.default_rng(13).normal(size=(len(s) + extra_rows, 4))
        self.assert_refused(lambda: E.evaluate(s, ds, TEST, ks=(20, 40)),
                            r"num_users \+ num_items = 50 rows")

    @pytest.mark.parametrize("ks", [(0, 20), (-1,), (2.5,), (True,), ()])
    def test_k_below_one_or_not_an_integer(self, case, ks):
        ds, s = case
        self.assert_refused(lambda: E.evaluate(s, ds, TEST, ks=ks), "integer >= 1")

    def test_unknown_metric(self, case):
        ds, s = case
        result = E.evaluate(s, ds, TEST, ks=(20,))
        self.assert_refused(lambda: result.macro("precision", 20), "'recall' or 'ndcg'")

    @pytest.mark.parametrize("metric", ["recall", "ndcg"])
    def test_macro_at_a_k_not_evaluated(self, case, metric):
        ds, s = case
        result = E.evaluate(s, ds, TEST, ks=(20,))
        self.assert_refused(lambda: result.macro(metric, 10),
                            r"^k=10 was not evaluated; this result holds ks=\(20,\)$")


class TestTopK:
    """``_top_k`` is the first ``k`` of a stable argsort by descending score,
    found by sorting only the entries at or above a grouped-maximum bound."""

    @staticmethod
    def draw_scores(draw):
        """Integer-valued scores, so ties are exact, with some ``-inf``
        entries and some all-equal rows; ``n`` below, at and above the group
        count ``_GROUP`` and not always a multiple of it."""
        dtype = draw.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        rows = draw.draw(st.integers(1, 6), label="rows")
        n = draw.draw(st.integers(1, 12 * E._GROUP), label="n")
        spread = draw.draw(st.sampled_from([1, 3, 10 ** 6]), label="spread")
        rng = np.random.default_rng(draw.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        scores = rng.integers(-spread, spread + 1, size=(rows, n)).astype(dtype)
        scores[rng.random((rows, n)) < draw.draw(st.sampled_from([0, 0.3, 0.95]),
                                                 label="inf share")] = -np.inf
        flat = rng.random(rows) < draw.draw(st.sampled_from([0, 0.5]), label="flat share")
        scores[flat] = scores[flat, :1]
        return scores

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(draw=st.data())
    def test_matches_stable_argsort(self, draw):
        scores = self.draw_scores(draw)
        k = draw.draw(st.integers(1, scores.shape[1]), label="k")
        want = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(E._top_k(scores, k), want)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(draw=st.data())
    def test_nan_anywhere_is_refused(self, draw):
        scores = self.draw_scores(draw)
        rows, n = scores.shape
        scores[draw.draw(st.integers(0, rows - 1), label="row"),
               draw.draw(st.integers(0, n - 1), label="col")] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            E._top_k(scores, draw.draw(st.integers(1, n), label="k"))

    def test_no_partition_in_evaluate_sees_a_full_width_chunk(self, monkeypatch):
        ds = random_dataset(300, 500, np.full(300, 30), seed=1)
        s = np.random.default_rng(2).normal(size=(800, 8))
        widths, partition = [], np.partition

        def recording(a, *args, **kwargs):
            widths.append(np.shape(a)[-1])
            return partition(a, *args, **kwargs)

        monkeypatch.setattr(np, "partition", recording)
        E.evaluate(s, ds, TEST, ks=(5, 20, 40))
        # one partition per chunk of the (users, max_k or items / _GROUP)
        # group maxima; never the (users, items) scores
        assert widths == [max(40, -(-500 // E._GROUP))] * 2


class TestWriters:
    def test_metrics_csv(self, tmp_path):
        ds = two_user_toy()
        s = np.random.default_rng(8).normal(size=(6, 3))
        result = E.evaluate(s, ds, VAL, ks=(1, 2))
        out = tmp_path / "metrics.csv"
        E.write_metrics_csv(out, {"val": result})
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "split,K,recall,ndcg"
        assert len(lines) == 3
        # a stream gets the same bytes, lines ending in "\n" alone
        stream = io.StringIO()
        E.write_metrics_csv(stream, {"val": result})
        assert out.read_bytes() == stream.getvalue().encode()
        assert b"\r" not in out.read_bytes()

    def test_series_csv(self, tmp_path):
        rows = [{"variant": "full", "seed": 0, "recall@40": 0.5},
                {"variant": "full", "seed": 1, "recall@40": 0.6}]
        out = tmp_path / "series.csv"
        E.write_metric_series_csv(out, rows)
        assert out.read_text().startswith("variant,seed,recall@40")
