import math
import tracemalloc

import numpy as np
import pytest

from rgtrec import losses as L
from rgtrec import tensor as T
from rgtrec.data import build_graph_from_edges
from rgtrec.seeding import substream
from rgtrec.training import TrainConfig, negative_sample
from oracles import assert_matches_reference, check_gradients, logsumexp_loss_rec
from oracles import per_pair_loss_rec, value_and_grads


def softplus(x):
    return math.log1p(math.exp(-abs(x))) + max(x, 0.0)


def complete_minus_one(num_users=3, num_items=4):
    """Each user connects to every item except the aligned one, so the unique
    legal negative for user u is item node num_users + u."""
    edges = [(u, num_users + i)
             for u in range(num_users) for i in range(num_items) if i != u]
    return build_graph_from_edges(num_users, num_items, np.array(edges))


def reconstruction(g, edges, seed):
    """The (user, item node, negative item node) rows a training step scores
    for the masked-out ``edges``."""
    return negative_sample(g, np.asarray(edges), substream(seed, "mae"))


class TestLossMae:
    def test_uniform_zero_scores(self):
        g = complete_minus_one()
        s = T.Tensor(np.zeros((g.num_nodes, 3)))
        out = L.loss_mae(s, reconstruction(g, g.edge_list[:4], 0))
        assert float(out.values) == pytest.approx(2 * math.log(2), abs=1e-9)

    def test_saturated_limit_goes_to_zero(self):
        g = complete_minus_one(num_users=2, num_items=3)
        # give every node the same huge vector except forced negatives, which
        # get the opposite sign: positive pairs score >> 0, negatives << 0
        s = np.full((g.num_nodes, 2), 10.0)
        s[2 + 0] = [-10.0, 0.0]  # item 0 is the forced negative of user 0
        masked_out = np.array([[0, 3], [0, 4]])  # two of user 0's train edges
        out = L.loss_mae(T.Tensor(s), reconstruction(g, masked_out, 1))
        assert float(out.values) < 1e-6

    def test_matches_direct_evaluation(self):
        g = complete_minus_one(num_users=4, num_items=4)
        rng = np.random.default_rng(2)
        s = rng.normal(size=(g.num_nodes, 3))
        masked_out = g.edge_list[:4]
        out = L.loss_mae(T.Tensor(s), reconstruction(g, masked_out, 2))

        expect = 0.0
        for u, i in masked_out:
            forced_neg = 4 + (u if u < 4 else 0)  # aligned item node
            expect += softplus(-float(s[u] @ s[i])) + softplus(float(s[u] @ s[forced_neg]))
        expect /= len(masked_out)
        assert float(out.values) == pytest.approx(expect, abs=1e-9)

    def test_empty_masked_set_returns_zero_with_warning(self, caplog):
        for dtype in (np.float32, np.float64):  # the zero is in the embeddings' dtype
            s = T.Tensor(np.zeros((7, 2), dtype))
            with caplog.at_level("WARNING"):
                out = L.loss_mae(s, np.empty((0, 3), dtype=np.int64))
            assert float(out.values) == 0.0 and out.dtype == dtype
            assert "empty" in caplog.text

    # a user with every item has no negative: the step's sampler drops its edges

    def test_user_with_every_item_but_one(self):
        num_items, free = 5000, 4321
        g = build_graph_from_edges(1, num_items, np.array(
            [(0, 1 + i) for i in range(num_items) if i != free]))
        s = np.random.default_rng(5).normal(size=(g.num_nodes, 2))
        masked_out = g.edge_list[:200]
        triples = reconstruction(g, masked_out, 5)
        assert triples.tolist() == [[0, i, 1 + free] for i in masked_out[:, 1]]
        out = L.loss_mae(T.Tensor(s), triples)
        expect = np.mean([softplus(-float(s[0] @ s[i])) + softplus(float(s[0] @ s[1 + free]))
                          for i in masked_out[:, 1]])
        assert float(out.values) == pytest.approx(expect, abs=1e-9)

    def test_user_with_every_item_is_dropped_with_a_warning(self, caplog):
        # user 1 has both items; only user 0's edge is scored, against item 3
        g = build_graph_from_edges(2, 2, np.array([[0, 2], [1, 2], [1, 3]]))
        s = np.random.default_rng(6).normal(size=(g.num_nodes, 2))
        with caplog.at_level("WARNING"):
            triples = reconstruction(g, [[0, 2], [1, 3], [1, 2]], 6)
        assert triples.tolist() == [[0, 2, 3]]
        out = L.loss_mae(T.Tensor(s), triples)
        expect = softplus(-float(s[0] @ s[2])) + softplus(float(s[0] @ s[3]))
        assert float(out.values) == pytest.approx(expect, abs=1e-12)
        assert caplog.text.count("dropped the rows of 1 users") == 1

    def test_only_saturated_users_give_zero_with_warning(self, caplog):
        g = build_graph_from_edges(2, 2, np.array([[0, 2], [1, 2], [1, 3]]))
        s = T.Tensor(np.zeros((g.num_nodes, 2)))
        with caplog.at_level("WARNING"):
            triples = reconstruction(g, [[1, 3]], 6)
            out = L.loss_mae(s, triples)
        assert triples.shape == (0, 3)
        assert float(out.values) == 0.0
        assert "dropped the rows of 1 users" in caplog.text
        assert "empty" in caplog.text

    def test_gradients(self):
        g = complete_minus_one()
        rng = np.random.default_rng(4)
        s = T.parameter(rng.normal(size=(g.num_nodes, 3)))
        triples = reconstruction(g, g.edge_list[:4], 4)

        def build():
            return L.loss_mae(s, triples)

        check_gradients(build, {"s": s})


class TestLossCir:
    def test_all_parallel(self):
        v = np.tile([1.0, 2.0], (4, 1))
        out = L.loss_cir(T.Tensor(v), T.Tensor(v * 3), temperature=0.5)
        assert float(out.values) == pytest.approx(2 + math.log(4), abs=1e-6)

    def test_orthogonal(self):
        a = np.zeros((6, 2))
        b = np.zeros((6, 2))
        a[:, 0] = 1.0
        b[:, 1] = 1.0
        out = L.loss_cir(T.Tensor(a), T.Tensor(b), temperature=1.0)
        assert float(out.values) == pytest.approx(math.log(6), abs=1e-6)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(6, 4))
        tau = 0.7
        out = L.loss_cir(T.Tensor(a), T.Tensor(b), temperature=tau)
        cos = np.array([a[i] @ b[i] / (np.linalg.norm(a[i]) * np.linalg.norm(b[i]))
                        for i in range(6)])
        assert float(out.values) == pytest.approx(np.log(np.exp(cos / tau).sum()), abs=1e-6)

    def test_bounds(self):
        rng = np.random.default_rng(6)
        for tau in (0.5, 1.0, 2.0):
            a = rng.normal(size=(40, 5))
            b = rng.normal(size=(40, 5))
            val = float(L.loss_cir(T.Tensor(a), T.Tensor(b), temperature=tau).values)
            n = 40
            assert math.log(n) - 1 / tau - 1e-9 <= val <= math.log(n) + 1 / tau + 1e-9

    def test_zero_norm_treated_as_zero(self, caplog):
        a = np.zeros((3, 2))
        a[0] = [1, 0]
        b = np.tile([0.0, 1.0], (3, 1))
        with caplog.at_level("WARNING"):
            out = L.loss_cir(T.Tensor(a), T.Tensor(b), temperature=1.0)
        assert "zero-norm" in caplog.text
        assert float(out.values) == pytest.approx(math.log(3), abs=1e-5)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            L.loss_cir(T.Tensor(np.ones((2, 2))), T.Tensor(np.ones((2, 2))), temperature=0)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        a = T.parameter(rng.normal(size=(5, 3)))
        b = T.parameter(rng.normal(size=(5, 3)))

        def build():
            return L.loss_cir(a, b, temperature=0.5)

        check_gradients(build, {"a": a, "b": b})


class TestLossRec:
    def test_two_equal_items(self):
        s = np.zeros((3, 2))  # user node 0, item nodes 1 and 2, all-equal scores
        out = L.loss_rec(T.Tensor(s), np.array([[0, 1]]), np.array([1, 2]))
        assert float(out.values) == pytest.approx(math.log(2), abs=1e-9)

    def test_confident_positive_limit(self):
        s = np.zeros((3, 2))
        s[0] = [30.0, 0.0]
        s[1] = [30.0, 0.0]   # positive aligns with the user
        s[2] = [-30.0, 0.0]
        out = L.loss_rec(T.Tensor(s), np.array([[0, 1]]), np.array([1, 2]))
        assert float(out.values) < 1e-6

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(8)
        num_users, num_items = 3, 5
        s = rng.normal(size=(num_users + num_items, 4))
        items = np.arange(num_users, num_users + num_items)
        batch = np.array([[0, num_users + 1], [1, num_users + 0], [2, num_users + 4]])
        out = L.loss_rec(T.Tensor(s), batch, items)

        expect = 0.0
        for u, pos in batch:
            scores = np.array([s[u] @ s[j] for j in items])
            expect += np.log(np.exp(scores).sum()) - s[u] @ s[pos]
        assert float(out.values) == pytest.approx(expect / len(batch), abs=1e-7)

    def test_positive_missing_from_candidates(self):
        s = np.zeros((4, 2))
        with pytest.raises(ValueError, match="missing"):
            L.loss_rec(T.Tensor(s), np.array([[0, 3]]), np.array([1, 2]))

    def test_gradients(self):
        rng = np.random.default_rng(9)
        s = T.parameter(rng.normal(size=(8, 3)))
        batch = np.array([[0, 4], [1, 5], [2, 6]])
        items = np.arange(3, 8)

        def build():
            return L.loss_rec(s, batch, items)

        check_gradients(build, {"s": s})


class TestLossRecPerUser:
    """``loss_rec`` scores each distinct batch user once; the per-pair form
    in ``oracles.per_pair_loss_rec`` scores one row per pair."""

    NUM_USERS, NUM_ITEMS = 12, 30
    ALL_ITEMS = np.arange(NUM_USERS, NUM_USERS + NUM_ITEMS)

    def value_and_grad(self, fn, s0, batch, cands):
        s = T.parameter(s0.copy())
        with T.Tape() as tape:
            loss = fn(s, batch, cands)
            grads = T.backward(loss, tape)
        return float(loss.values), grads[s]

    def assert_matches_oracle(self, batch, cands, seed):
        s0 = np.random.default_rng(seed).normal(size=(self.NUM_USERS + self.NUM_ITEMS, 6))
        value, grad = self.value_and_grad(L.loss_rec, s0, batch, cands)
        want_value, want_grad = self.value_and_grad(per_pair_loss_rec, s0, batch, cands)
        assert grad.dtype == np.float64
        assert abs(value - want_value) <= 1e-12
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)

    def pairs(self, users, seed):
        rng = np.random.default_rng(seed)
        items = self.NUM_USERS + rng.integers(0, self.NUM_ITEMS, size=len(users))
        return np.stack([np.asarray(users), items], axis=1)

    def test_repeated_users(self):
        users = np.random.default_rng(1).integers(0, self.NUM_USERS, size=80)
        assert len(np.unique(users)) < len(users)
        self.assert_matches_oracle(self.pairs(users, 2), self.ALL_ITEMS, seed=3)

    def test_single_repeated_user(self):
        self.assert_matches_oracle(self.pairs(np.full(9, 5), 4), self.ALL_ITEMS, seed=5)

    def test_all_distinct_users(self):
        users = np.random.default_rng(6).permutation(self.NUM_USERS)
        self.assert_matches_oracle(self.pairs(users, 7), self.ALL_ITEMS, seed=8)

    def test_sampled_candidate_set(self):
        # as with rec_candidates > 0: the batch positives plus sampled items
        rng = np.random.default_rng(9)
        batch = self.pairs(rng.integers(0, self.NUM_USERS, size=40), 10)
        sampled = self.NUM_USERS + rng.choice(self.NUM_ITEMS, size=8, replace=False)
        cands = np.union1d(batch[:, 1], sampled)
        assert len(cands) < self.NUM_ITEMS
        self.assert_matches_oracle(batch, cands, seed=11)

    def test_score_matrix_has_one_row_per_distinct_user(self):
        batch = self.pairs(np.array([3, 3, 7, 3, 0, 7, 7, 3]), 12)
        s = T.parameter(np.random.default_rng(13).normal(
            size=(self.NUM_USERS + self.NUM_ITEMS, 4)))
        with T.Tape() as tape:
            L.loss_rec(s, batch, self.ALL_ITEMS)
        tables = [[x.shape for x in r.inputs] for r in tape.records
                  if r.backward_fn.__qualname__.split(".")[0] == "softmax_cross_entropy"]
        assert tables == [[(3, 4), (self.NUM_ITEMS, 4)]]


class TestFusedCrossEntropy:
    """``loss_rec`` is one ``T.softmax_cross_entropy`` record after its two
    gathers; the logsumexp chain ``oracles.logsumexp_loss_rec`` is its
    reference."""

    NUM_USERS, NUM_ITEMS = 10, 40

    def case(self, name, rng):
        """Pairs with repeated batch users against sampled candidates (as with
        ``rec_candidates`` > 0) or against the full item range."""
        users = rng.integers(0, self.NUM_USERS, size=60)
        assert len(np.unique(users)) < len(users)
        batch = np.stack([users, self.NUM_USERS + rng.integers(0, self.NUM_ITEMS, 60)], axis=1)
        items = np.arange(self.NUM_USERS, self.NUM_USERS + self.NUM_ITEMS)
        if name == "sampled_candidates":
            items = np.union1d(batch[:, 1], rng.choice(items, size=6, replace=False))
        return batch, items

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["full_items", "sampled_candidates"])
    def test_matches_logsumexp_chain(self, dtype, name):
        rng = np.random.default_rng(30)
        batch, items = self.case(name, rng)
        s0 = rng.normal(size=(self.NUM_USERS + self.NUM_ITEMS, 5)) * 2
        results = []
        for loss in (L.loss_rec, logsumexp_loss_rec):
            s = T.parameter(s0, dtype)
            results.append(value_and_grads(lambda: loss(s, batch, items), {"s": s}))
        assert_matches_reference(*results, dtype)

    @pytest.mark.parametrize("name", ["full_items", "sampled_candidates"])
    def test_finite_differences(self, name):
        rng = np.random.default_rng(31)
        batch, items = self.case(name, rng)
        s = T.parameter(rng.normal(size=(self.NUM_USERS + self.NUM_ITEMS, 4)))
        check_gradients(lambda: L.loss_rec(s, batch, items), {"s": s})

    def test_candidates_must_be_sorted_and_unique(self):
        s = T.Tensor(np.zeros((5, 2)))
        for cands in ([3, 2, 4], [2, 3, 3, 4]):
            with pytest.raises(ValueError, match="sorted and unique"):
                L.loss_rec(s, np.array([[0, 3]]), np.array(cands))

    def test_empty_batch_is_refused(self):
        with pytest.raises(ValueError, match="non-empty batch"):
            L.loss_rec(T.Tensor(np.zeros((5, 2))), np.empty((0, 2), np.int64), np.arange(2, 5))


class TestBlockedCrossEntropy:
    """``T.softmax_cross_entropy`` takes the users ``T._CE_ROWS`` rows at a time
    and makes its gradient block by block in the forward.  The reference is
    ``oracles.logsumexp_loss_rec`` over the stacked table ``[u; c]``, whose
    gradient splits into the two operands' (a user row without pairs gets a
    zero row)."""

    @staticmethod
    def case(num_users, num_candidates, num_pairs, seed, width=5):
        rng = np.random.default_rng(seed)
        u0 = rng.normal(size=(num_users, width)) * 2
        c0 = rng.normal(size=(num_candidates, width)) * 2
        rows = rng.integers(0, num_users, num_pairs)
        return u0, c0, rows, rng.integers(0, num_candidates, num_pairs)

    @staticmethod
    def blocked(u0, c0, rows, cols, dtype, seed_grad=None):
        u, c = T.parameter(u0, dtype), T.parameter(c0, dtype)

        def build():
            loss = T.softmax_cross_entropy(u, c, rows, cols)
            return loss if seed_grad is None else T.mul(loss, seed_grad)

        return value_and_grads(build, {"u": u, "c": c})

    @staticmethod
    def reference(u0, c0, rows, cols, dtype, seed_grad=None):
        num_users = len(u0)
        s = T.parameter(np.concatenate([u0, c0]), dtype)
        pairs = np.stack([rows, num_users + cols], axis=1)
        candidates = num_users + np.arange(len(c0))

        def build():
            loss = logsumexp_loss_rec(s, pairs, candidates)
            return loss if seed_grad is None else T.mul(loss, seed_grad)

        value, grads = value_and_grads(build, {"s": s})
        return value, {"u": grads["s"][:num_users], "c": grads["s"][num_users:]}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_more_users_than_one_block(self, dtype):
        num_users = 2 * T._CE_ROWS + 37
        u0, c0, rows, cols = self.case(num_users, 90, 1500, seed=40)
        assert len(np.unique(rows)) < num_users  # some rows have no pairs
        assert_matches_reference(self.blocked(u0, c0, rows, cols, dtype),
                                 self.reference(u0, c0, rows, cols, dtype), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_user_row_without_pairs_gets_zero_gradient(self, dtype):
        u0, c0, _, _ = self.case(5, 12, 0, seed=41)
        rows, cols = np.array([0, 4, 1, 4, 3, 0]), np.array([2, 2, 11, 5, 0, 7])
        fused = self.blocked(u0, c0, rows, cols, dtype)
        assert not fused[1]["u"][2].any()
        assert_matches_reference(fused, self.reference(u0, c0, rows, cols, dtype), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_seed_gradient_scales_the_saved_gradients(self, dtype):
        u0, c0, rows, cols = self.case(T._CE_ROWS + 9, 40, 400, seed=42)
        scaled = self.blocked(u0, c0, rows, cols, dtype, seed_grad=0.3)
        _, unit = self.blocked(u0, c0, rows, cols, dtype)
        for name in ("u", "c"):
            np.testing.assert_array_equal(scaled[1][name], dtype(0.3) * unit[name])
        assert_matches_reference(scaled, self.reference(u0, c0, rows, cols, dtype, 0.3), dtype)

    def test_no_gradient_work_without_a_recorded_gradient(self):
        u0, c0, rows, cols = self.case(300, 2000, 600, seed=43, width=128)

        def traced_peak(requires_grad, tape):
            u, c = T.Tensor(u0, requires_grad), T.Tensor(c0, requires_grad)
            tracemalloc.start()
            try:
                if tape:
                    with T.Tape() as t:
                        loss = T.softmax_cross_entropy(u, c, rows, cols)
                    assert len(t) == int(requires_grad)
                else:
                    loss = T.softmax_cross_entropy(u, c, rows, cols)
                return float(loss.values), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        value, with_grads = traced_peak(True, True)
        # the gradient tables du and dc are each allocated only with a record
        for requires_grad, tape in ((False, True), (True, False)):
            other, peak = traced_peak(requires_grad, tape)
            assert other == value
            assert peak <= with_grads - c0.nbytes - u0.nbytes

    def test_peak_stays_below_one_users_by_candidates_table(self):
        num_users, num_candidates = 600, 4800
        u0, c0, rows, cols = self.case(num_users, num_candidates, 6000, seed=44, width=64)
        table = num_users * num_candidates * np.dtype(np.float32).itemsize  # 11.5 MB
        u, c = T.parameter(u0, np.float32), T.parameter(c0, np.float32)
        tracemalloc.start()
        try:
            with T.Tape() as tape:
                loss = T.softmax_cross_entropy(u, c, rows, cols)
                saved = [cell.cell_contents for r in tape.records
                         for cell in r.backward_fn.__closure__ or ()]
                grads = T.backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grads[u].shape == u.shape and grads[c].shape == c.shape
        assert peak < table, f"traced peak {peak / 1e6:.1f} MB"
        assert max(a.size for a in saved if isinstance(a, np.ndarray)) < num_users * num_candidates


class TestLossBpr:
    def test_equal_scores(self):
        s = np.zeros((4, 2))
        out = L.loss_bpr(T.Tensor(s), np.array([[0, 1, 2]]))
        assert float(out.values) == pytest.approx(math.log(2), abs=1e-9)

    def test_large_margin_limit(self):
        s = np.zeros((3, 2))
        s[0] = [1.0, 0.0]
        s[1] = [40.0, 0.0]
        s[2] = [-40.0, 0.0]
        out = L.loss_bpr(T.Tensor(s), np.array([[0, 1, 2]]))
        assert float(out.values) < 1e-6

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(10)
        s = rng.normal(size=(12, 3))
        triples = np.stack([rng.integers(0, 4, 10),
                            rng.integers(4, 8, 10),
                            rng.integers(8, 12, 10)], axis=1)
        out = L.loss_bpr(T.Tensor(s), triples)
        expect = np.mean([softplus(-(s[u] @ s[p] - s[u] @ s[n])) for u, p, n in triples])
        assert float(out.values) == pytest.approx(expect, abs=1e-9)

    def test_gradients(self):
        rng = np.random.default_rng(11)
        s = T.parameter(rng.normal(size=(9, 3)))
        triples = np.array([[0, 3, 6], [1, 4, 7], [2, 5, 8]])

        def build():
            return L.loss_bpr(s, triples)

        check_gradients(build, {"s": s})

    def test_empty_triple_set_returns_zero_with_warning(self, caplog):
        for dtype in (np.float32, np.float64):  # the zero is in the table's dtype
            caplog.clear()
            s = T.Tensor(np.zeros((7, 2), dtype))
            with caplog.at_level("WARNING"):
                out = L.loss_bpr(s, np.empty((0, 3), np.int64))
            assert float(out.values) == 0.0 and out.dtype == dtype
            assert len(caplog.records) == 1 and "empty" in caplog.text


def random_tables(rng, num=6, d=3):
    """Tables shaped like the four that distillation matches."""
    return [T.Tensor(rng.normal(size=shape)) for shape in ((num, d), (num, d), (2 * num, d),
                                                            (3, d))]


class TestLossDistill:
    def test_identical_bundles_zero(self):
        b = random_tables(np.random.default_rng(12))
        assert float(L.loss_distill(b, b).values) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_offset(self):
        rng = np.random.default_rng(13)
        teacher = random_tables(rng)
        delta = 0.37
        student = [T.add(t, delta) for t in teacher]
        out = L.loss_distill(student, teacher)
        assert float(out.values) == pytest.approx(4 * delta ** 2, abs=1e-9)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(14)
        teacher, student = random_tables(rng), random_tables(rng)
        out = L.loss_distill(student, teacher)
        expect = sum(np.mean((s.values - t.values) ** 2) for s, t in zip(student, teacher))
        assert float(out.values) == pytest.approx(expect, abs=1e-9)

    def test_shape_mismatch_names_slot(self):
        rng = np.random.default_rng(15)
        teacher = random_tables(rng)
        student = random_tables(rng)
        student[2] = T.Tensor(rng.normal(size=(5, 3)))
        with pytest.raises(T.ShapeMismatchError, match="table 2"):
            L.loss_distill(student, teacher)
        with pytest.raises(ValueError):  # the lists must have equal lengths
            L.loss_distill(teacher[:3], teacher)

    def test_stop_gradient_teacher_gets_none(self):
        rng = np.random.default_rng(16)
        t_user = T.parameter(rng.normal(size=(4, 2)))
        s_user = T.parameter(rng.normal(size=(4, 2)))
        zero = T.Tensor(np.zeros((1, 2)))
        teacher = [t_user, zero, zero, zero]
        student = [s_user, zero, zero, zero]
        with T.Tape() as tape:
            out = L.loss_distill(student, teacher)
            grads = T.backward(out, tape)
        assert t_user not in grads
        assert np.abs(grads[s_user]).sum() > 0

    def test_gradients(self):
        rng = np.random.default_rng(17)
        s_user = T.parameter(rng.normal(size=(4, 2)))
        teacher = [T.Tensor(rng.normal(size=(4, 2)))] + [T.Tensor(np.zeros((1, 2)))] * 3

        def build():
            student = [s_user] + [T.Tensor(np.zeros((1, 2))) for _ in range(3)]
            return L.loss_distill(student, teacher)

        check_gradients(build, {"su": s_user})


class TestTotalLoss:
    def scalars(self, rng):
        return {name: T.Tensor(float(rng.uniform(0.1, 2.0)))
                for name in ("rec", "mae", "distill", "ranking", "contrast")}

    def test_all_weights_zero_except_rec(self):
        rng = np.random.default_rng(18)
        terms = self.scalars(rng)
        cfg = TrainConfig(lambda_rec=1.0, lambda_mae=0, lambda_distill=0, lambda_ranking=0,
                          lambda_contrast=0, lambda_reg=0)
        total, report = L.total_loss(params={}, cfg=cfg, **terms)
        assert float(total.values) == pytest.approx(float(terms["rec"].values))

    def test_zeroed_params_no_penalty(self):
        rng = np.random.default_rng(19)
        terms = self.scalars(rng)
        params = {"p": T.parameter(np.zeros((3, 3)))}
        _, report = L.total_loss(params=params, cfg=TrainConfig(lambda_reg=1.0), **terms)
        assert report.reg == 0.0

    def test_total_equals_hand_sum(self):
        rng = np.random.default_rng(20)
        terms = self.scalars(rng)
        params = {"p": T.parameter(rng.normal(size=(4, 2)))}
        w = TrainConfig(lambda_rec=1.0, lambda_mae=0.7, lambda_distill=0.2,
                        lambda_ranking=1.3, lambda_contrast=0.01, lambda_reg=1e-3)
        total, report = L.total_loss(params=params, cfg=w, **terms)
        expect = (w.lambda_rec * report.rec + w.lambda_mae * report.mae
                  + w.lambda_distill * report.distill + w.lambda_ranking * report.ranking
                  + w.lambda_contrast * report.contrast + w.lambda_reg * report.reg)
        assert report.total == pytest.approx(expect, abs=1e-6)
        assert report.reg == pytest.approx(float((params["p"].values ** 2).sum()))

    def test_nonfinite_term_names_itself(self):
        rng = np.random.default_rng(21)
        terms = self.scalars(rng)
        terms["mae"] = T.Tensor(np.nan)
        with pytest.raises(FloatingPointError, match="mae"):
            L.total_loss(params={}, cfg=TrainConfig(), **terms)

    def test_weights_validation(self):
        for term in ("rec", "mae", "distill", "ranking", "contrast", "reg"):
            with pytest.raises(ValueError, match=f"lambda_{term} must be >= 0"):
                TrainConfig(**{f"lambda_{term}": -0.1}).validate()
        with pytest.raises(ValueError, match="temperature must be positive"):
            TrainConfig(temperature=0.0).validate()

    def test_all_losses_nonnegative(self):
        rng = np.random.default_rng(22)
        g = complete_minus_one(4, 4)
        s = T.Tensor(rng.normal(size=(g.num_nodes, 3)))
        vals = [
            L.loss_mae(s, reconstruction(g, g.edge_list[:4], 0)),
            L.loss_rec(s, np.array([[0, 5], [1, 6]]), np.arange(4, 8)),
            L.loss_bpr(s, np.array([[0, 5, 4], [1, 6, 5]])),
            L.loss_distill(random_tables(rng), random_tables(rng)),
        ]
        for v in vals:
            assert float(v.values) >= 0.0
