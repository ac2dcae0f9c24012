import math

import numpy as np
import pytest

from rgtrec import losses as L
from rgtrec import tensor as T
from rgtrec.data import build_graph_from_edges
from rgtrec.seeding import substream
from rgtrec.training import TrainConfig
from oracles import check_gradients, per_pair_loss_rec


def softplus(x):
    return math.log1p(math.exp(-abs(x))) + max(x, 0.0)


def complete_minus_one(num_users=3, num_items=4):
    """Each user connects to every item except the aligned one, so the unique
    legal negative for user u is item node num_users + u."""
    edges = [(u, num_users + i)
             for u in range(num_users) for i in range(num_items) if i != u]
    return build_graph_from_edges(num_users, num_items, np.array(edges))


class TestLossMae:
    def test_uniform_zero_scores(self):
        g = complete_minus_one()
        s = T.Tensor(np.zeros((g.num_nodes, 3)))
        masked_out = g.edge_list[:4]
        out = L.loss_mae(s, masked_out, g, substream(0, "mae"))
        assert float(out.values) == pytest.approx(2 * math.log(2), abs=1e-9)

    def test_saturated_limit_goes_to_zero(self):
        g = complete_minus_one(num_users=2, num_items=3)
        # give every node the same huge vector except forced negatives, which
        # get the opposite sign: positive pairs score >> 0, negatives << 0
        s = np.full((g.num_nodes, 2), 10.0)
        s[2 + 0] = [-10.0, 0.0]  # item 0 is the forced negative of user 0
        masked_out = np.array([[0, 3], [0, 4]])  # two of user 0's train edges
        out = L.loss_mae(T.Tensor(s), masked_out, g, substream(1, "mae"))
        assert float(out.values) < 1e-6

    def test_matches_direct_evaluation(self):
        g = complete_minus_one(num_users=4, num_items=4)
        rng = np.random.default_rng(2)
        s = rng.normal(size=(g.num_nodes, 3))
        masked_out = g.edge_list[:4]
        out = L.loss_mae(T.Tensor(s), masked_out, g, substream(2, "mae"))

        expect = 0.0
        for u, i in masked_out:
            forced_neg = 4 + (u if u < 4 else 0)  # aligned item node
            expect += softplus(-float(s[u] @ s[i])) + softplus(float(s[u] @ s[forced_neg]))
        expect /= len(masked_out)
        assert float(out.values) == pytest.approx(expect, abs=1e-9)

    def test_empty_masked_set_returns_zero_with_warning(self, caplog):
        g = complete_minus_one()
        for dtype in (np.float32, np.float64):  # the zero is in the embeddings' dtype
            s = T.Tensor(np.zeros((g.num_nodes, 2), dtype))
            with caplog.at_level("WARNING"):
                out = L.loss_mae(s, np.empty((0, 2), dtype=np.int64), g, substream(0, "mae"))
            assert float(out.values) == 0.0 and out.dtype == dtype
            assert "empty" in caplog.text

    def test_user_with_every_item_but_one(self):
        num_items, free = 5000, 4321
        g = build_graph_from_edges(1, num_items, np.array(
            [(0, 1 + i) for i in range(num_items) if i != free]))
        s = np.random.default_rng(5).normal(size=(g.num_nodes, 2))
        masked_out = g.edge_list[:200]
        out = L.loss_mae(T.Tensor(s), masked_out, g, substream(5, "mae"))
        expect = np.mean([softplus(-float(s[0] @ s[i])) + softplus(float(s[0] @ s[1 + free]))
                          for i in masked_out[:, 1]])
        assert float(out.values) == pytest.approx(expect, abs=1e-9)

    def test_user_with_every_item_is_dropped_with_a_warning(self, caplog):
        # user 1 has both items; only user 0's edge is scored, against item 3
        g = build_graph_from_edges(2, 2, np.array([[0, 2], [1, 2], [1, 3]]))
        s = np.random.default_rng(6).normal(size=(g.num_nodes, 2))
        with caplog.at_level("WARNING"):
            out = L.loss_mae(T.Tensor(s), np.array([[0, 2], [1, 3], [1, 2]]), g,
                             substream(6, "mae"))
        expect = softplus(-float(s[0] @ s[2])) + softplus(float(s[0] @ s[3]))
        assert float(out.values) == pytest.approx(expect, abs=1e-12)
        assert caplog.text.count("skips the edges of 1 users") == 1

    def test_only_saturated_users_give_zero_with_warning(self, caplog):
        g = build_graph_from_edges(2, 2, np.array([[0, 2], [1, 2], [1, 3]]))
        s = T.Tensor(np.zeros((g.num_nodes, 2)))
        with caplog.at_level("WARNING"):
            out = L.loss_mae(s, np.array([[1, 3]]), g, substream(6, "mae"))
        assert float(out.values) == 0.0
        assert "skips the edges of 1 users" in caplog.text
        assert "empty" in caplog.text

    def test_gradients(self):
        g = complete_minus_one()
        rng = np.random.default_rng(4)
        s = T.parameter(rng.normal(size=(g.num_nodes, 3)))
        masked_out = g.edge_list[:4]

        def build():
            return L.loss_mae(s, masked_out, g, substream(4, "mae"))

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
        shapes = [r.out.shape for r in tape.records
                  if r.backward_fn.__qualname__.split(".")[0] == "linear"]
        assert shapes == [(3, self.NUM_ITEMS)]


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


def random_bundle(rng, num=6, d=3):
    return L.EmbeddingBundle(
        user=T.Tensor(rng.normal(size=(num, d))),
        item=T.Tensor(rng.normal(size=(num, d))),
        contrast=T.Tensor(rng.normal(size=(2 * num, d))),
        subgraph=T.Tensor(rng.normal(size=(3, d))),
    )


class TestLossDistill:
    def test_identical_bundles_zero(self):
        b = random_bundle(np.random.default_rng(12))
        assert float(L.loss_distill(b, b).values) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_offset(self):
        rng = np.random.default_rng(13)
        teacher = random_bundle(rng)
        delta = 0.37
        student = L.EmbeddingBundle(
            user=T.add(teacher.user, delta), item=T.add(teacher.item, delta),
            contrast=T.add(teacher.contrast, delta), subgraph=T.add(teacher.subgraph, delta))
        out = L.loss_distill(student, teacher)
        assert float(out.values) == pytest.approx(4 * delta ** 2, abs=1e-9)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(14)
        teacher, student = random_bundle(rng), random_bundle(rng)
        out = L.loss_distill(student, teacher)
        expect = sum(np.mean((getattr(student, slot).values - getattr(teacher, slot).values) ** 2)
                     for slot in ("user", "item", "contrast", "subgraph"))
        assert float(out.values) == pytest.approx(expect, abs=1e-9)

    def test_shape_mismatch_names_slot(self):
        rng = np.random.default_rng(15)
        teacher = random_bundle(rng)
        student = random_bundle(rng)
        student.contrast = T.Tensor(rng.normal(size=(5, 3)))
        with pytest.raises(T.ShapeMismatchError, match="contrast"):
            L.loss_distill(student, teacher)

    def test_stop_gradient_teacher_gets_none(self):
        rng = np.random.default_rng(16)
        t_user = T.parameter(rng.normal(size=(4, 2)))
        s_user = T.parameter(rng.normal(size=(4, 2)))
        zero = T.Tensor(np.zeros((1, 2)))
        teacher = L.EmbeddingBundle(t_user, zero, zero, zero)
        student = L.EmbeddingBundle(s_user, zero, zero, zero)
        with T.Tape() as tape:
            out = L.loss_distill(student, teacher)
            grads = T.backward(out, tape)
        assert t_user not in grads
        assert np.abs(grads[s_user]).sum() > 0

    def test_gradients(self):
        rng = np.random.default_rng(17)
        s_user = T.parameter(rng.normal(size=(4, 2)))
        teacher = L.EmbeddingBundle(T.Tensor(rng.normal(size=(4, 2))),
                                    T.Tensor(np.zeros((1, 2))),
                                    T.Tensor(np.zeros((1, 2))),
                                    T.Tensor(np.zeros((1, 2))))

        def build():
            student = L.EmbeddingBundle(s_user, T.Tensor(np.zeros((1, 2))),
                                        T.Tensor(np.zeros((1, 2))), T.Tensor(np.zeros((1, 2))))
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
            L.loss_mae(s, g.edge_list[:4], g, substream(0, "x")),
            L.loss_rec(s, np.array([[0, 5], [1, 6]]), np.arange(4, 8)),
            L.loss_bpr(s, np.array([[0, 5, 4], [1, 6, 5]])),
            L.loss_distill(random_bundle(rng), random_bundle(rng)),
        ]
        for v in vals:
            assert float(v.values) >= 0.0
