import numpy as np
import pytest
from scipy import stats

from rgtrec import data as D
from rgtrec.synthetic import make_block_dataset
from oracles import neighbors, per_user_lists_split, rejection_non_neighbors


def write_lines(tmp_path, lines, name="inter.tsv"):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


class TestLoadInteractions:
    def test_three_line_file(self, tmp_path):
        p = write_lines(tmp_path, ["a\tx", "a\ty", "b\tx"])
        ds = D.load_interactions(p)
        assert (ds.num_users, ds.num_items, ds.num_interactions) == (2, 2, 3)
        assert ds.user_tokens == ["a", "b"]
        assert ds.item_tokens == ["x", "y"]

    def test_csv_format(self, tmp_path):
        p = write_lines(tmp_path, ["a,x", "b,y"], name="inter.csv")
        ds = D.load_interactions(p, format="csv_pairs")
        assert ds.num_interactions == 2

    def test_duplicates_removed(self, tmp_path):
        p = write_lines(tmp_path, ["a\tx", "a\tx", "a\ty"])
        ds = D.load_interactions(p)
        assert ds.num_interactions == 2

    def test_comments_ignored(self, tmp_path):
        p = write_lines(tmp_path, ["# header", "a\tx"])
        assert D.load_interactions(p).num_interactions == 1

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = write_lines(tmp_path, ["a\tx", "broken-line"])
        with pytest.raises(D.DataFormatError, match=":2:"):
            D.load_interactions(p)

    @pytest.mark.parametrize("line", ["a\tb,i1", "a,i\t1"], ids=["user", "item"])
    def test_tab_inside_a_csv_token_rejected(self, tmp_path, line):
        # ids.tsv is tab-separated, so such a token could not be read back
        p = write_lines(tmp_path, ["a,x", line], name="inter.csv")
        with pytest.raises(D.DataFormatError, match=r"inter\.csv:2: a token contains a tab"):
            D.load_interactions(p, format="csv_pairs")

    def test_empty_file_errors(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(D.DataFormatError, match="no interactions"):
            D.load_interactions(p)

    def test_unknown_format_rejected(self, tmp_path):
        p = write_lines(tmp_path, ["a\tx"])
        with pytest.raises(ValueError, match="format"):
            D.load_interactions(p, format="json")


class TestSplit:
    def one_user_dataset(self, n):
        inter = np.stack([np.zeros(n, dtype=np.int64), np.arange(n, dtype=np.int64)], axis=1)
        return D.InteractionDataset(num_users=1, num_items=n, interactions=inter)

    def test_exact_70_5_25_on_100(self):
        ds = D.split(self.one_user_dataset(100), (0.7, 0.05, 0.25), seed=1)
        counts = np.bincount(ds.split_assignment, minlength=3)
        np.testing.assert_array_equal(counts, [70, 5, 25])

    def test_all_train_ratio(self):
        ds = D.split(self.one_user_dataset(10), (1.0, 0.0, 0.0), seed=1)
        assert (ds.split_assignment == D.TRAIN).all()

    def test_same_seed_identical(self):
        base = make_block_dataset(num_users=20, num_items=20, num_blocks=4,
                                  interactions_per_user=8, seed=3)
        a = D.split(base, seed=11).split_assignment
        b = D.split(base, seed=11).split_assignment
        np.testing.assert_array_equal(a, b)
        c = D.split(base, seed=12).split_assignment
        assert not np.array_equal(a, c)

    def test_proportions_within_one_per_user(self):
        ds = D.split(make_block_dataset(num_users=30, num_items=30, num_blocks=5,
                                        interactions_per_user=11, seed=0), seed=5)
        for u in range(ds.num_users):
            rows = ds.split_assignment[ds.interactions[:, 0] == u]
            n = len(rows)
            for code, ratio in zip((D.TRAIN, D.VAL, D.TEST), (0.7, 0.05, 0.25)):
                assert abs((rows == code).sum() - n * ratio) <= 1.0

    def test_small_users_keep_a_train_interaction(self):
        for n in (1, 2):
            ds = D.split(self.one_user_dataset(n), (0.0, 0.0, 1.0), seed=2)
            assert (ds.split_assignment == D.TRAIN).sum() >= 1

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            D.split(self.one_user_dataset(5), (0.9, -0.1, 0.2), seed=0)

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            D.split(self.one_user_dataset(5), (0.5, 0.1, 0.1), seed=0)

    @pytest.mark.parametrize("ratios, shown", [
        ((float("nan"), 0.5, 0.5), r"\(nan, 0\.5, 0\.5\)"),
        ((0.5, float("inf"), 0.5), r"\(0\.5, inf, 0\.5\)"),
    ], ids=["nan", "inf"])
    def test_non_finite_ratio_rejected_naming_the_ratios(self, ratios, shown):
        with pytest.raises(ValueError, match=rf"non-finite split ratio in {shown}$"):
            D.split(self.one_user_dataset(5), ratios, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_user_lists(self, seed):
        # users in first-appearance order, rows in row order, as a dict of lists
        ds = make_block_dataset(num_users=40, num_items=48, num_blocks=4,
                                interactions_per_user=9, seed=seed)
        rng = np.random.default_rng(seed)
        rows = ds.interactions[rng.permutation(ds.num_interactions)]
        sizes = rng.integers(0, 10, size=ds.num_users)  # some users left with 0-2 rows
        rank = np.array([(rows[:j, 0] == u).sum() for j, u in enumerate(rows[:, 0])])
        ds.interactions = rows[rank < sizes[rows[:, 0]]]
        ratios = (0.6, 0.15, 0.25)
        got = D.split(ds, ratios, seed=seed)
        np.testing.assert_array_equal(got.split_assignment,
                                      per_user_lists_split(ds, ratios, seed))
        for code in (D.TRAIN, D.VAL, D.TEST):
            positives = got.positives_by_user(code)
            assert len(positives) == ds.num_users
            for u, items in enumerate(positives):
                assert items.dtype == np.int64
                want = sorted(i for v, i in got.pairs(code) if v == u)
                np.testing.assert_array_equal(items, want)


class TestBuildGraph:
    def test_single_edge(self):
        ds = D.InteractionDataset(1, 1, np.array([[0, 0]]),
                                  split_assignment=np.array([D.TRAIN], dtype=np.int8))
        g = D.build_graph(ds)
        assert g.num_nodes == 2 and g.num_edges == 1
        np.testing.assert_array_equal(g.degree, [1, 1])
        np.testing.assert_array_equal(g.edge_list, [[0, 1]])

    def test_star(self):
        inter = np.stack([np.zeros(5, dtype=np.int64), np.arange(5)], axis=1)
        ds = D.InteractionDataset(1, 5, inter,
                                  split_assignment=np.zeros(5, dtype=np.int8))
        g = D.build_graph(ds)
        assert g.degree[0] == 5
        np.testing.assert_array_equal(sorted(neighbors(g, 0)), [1, 2, 3, 4, 5])

    def test_requires_split(self):
        ds = D.InteractionDataset(1, 1, np.array([[0, 0]]))
        with pytest.raises(ValueError, match="split"):
            D.build_graph(ds)

    def test_adjacency_matches_dense_oracle(self):
        ds = D.split(make_block_dataset(num_users=12, num_items=12, num_blocks=3,
                                        interactions_per_user=6, seed=4), seed=4)
        g = D.build_graph(ds)
        n = g.num_nodes
        dense = np.zeros((n, n), dtype=bool)
        for u, i in ds.pairs(D.TRAIN):
            dense[u, ds.num_users + i] = True
            dense[ds.num_users + i, u] = True
        for k in range(n):
            np.testing.assert_array_equal(np.flatnonzero(dense[k]), np.sort(neighbors(g, k)))

    def test_symmetry_and_edge_count(self):
        ds = D.split(make_block_dataset(num_users=10, num_items=10, num_blocks=2,
                                        interactions_per_user=5, seed=9), seed=9)
        g = D.build_graph(ds)
        assert g.num_edges == (ds.split_assignment == D.TRAIN).sum()
        for k, k2 in g.edge_list:
            assert k2 in neighbors(g, k) and k in neighbors(g, k2)
            assert k < ds.num_users <= k2

    def test_no_leakage(self):
        ds = D.split(make_block_dataset(num_users=20, num_items=20, num_blocks=4,
                                        interactions_per_user=10, seed=6), seed=6)
        g = D.build_graph(ds)
        graph_edges = {(int(k), int(k2)) for k, k2 in g.edge_list}
        held_out = {(int(u), int(ds.num_users + i))
                    for split in (D.VAL, D.TEST) for u, i in ds.pairs(split)}
        assert graph_edges.isdisjoint(held_out)

    def test_edge_subgraph(self):
        ds = D.split(make_block_dataset(num_users=10, num_items=10, num_blocks=2,
                                        interactions_per_user=6, seed=2), seed=2)
        g = D.build_graph(ds)
        keep = np.arange(g.num_edges // 2)
        sub = g.edge_subgraph(keep)
        assert sub.num_edges == len(keep)
        assert sub.num_nodes == g.num_nodes
        np.testing.assert_array_equal(np.sort(sub.edge_list, axis=0),
                                      np.sort(g.edge_list[keep], axis=0))

    def test_empty_subgraph(self):
        ds = D.split(make_block_dataset(num_users=4, num_items=4, num_blocks=2,
                                        interactions_per_user=3, seed=1), seed=1)
        g = D.build_graph(ds)
        sub = g.edge_subgraph(np.array([], dtype=np.int64))
        assert sub.num_edges == 0
        assert (sub.degree == 0).all()


def long_tail_graph(num_users=300, num_items=400, seed=0):
    """Power-law user degrees (rank^-0.9, from 1 up to every item but one)
    over popularity-skewed items (rank^-1), as in the long-tail workload."""
    rng = np.random.default_rng(seed)
    degree = np.clip(np.round(num_items * np.arange(1, num_users + 1) ** -0.9),
                     1, num_items - 1).astype(np.int64)
    rng.shuffle(degree)
    log_pop = -np.log(np.arange(1, num_items + 1))
    edges = [(u, num_users + i) for u, d in enumerate(degree)
             for i in np.argsort(-(log_pop + rng.gumbel(size=num_items)))[:d]]
    return D.build_graph_from_edges(num_users, num_items, np.array(edges))


class TestSampleNonNeighbors:
    def test_never_a_neighbor_for_any_user(self):
        g = long_tail_graph()
        users = np.repeat(np.arange(g.num_users), 20)
        draws = g.sample_non_neighbors(users, np.random.default_rng(1))
        assert ((draws >= g.num_users) & (draws < g.num_nodes)).all()
        for u in range(g.num_users):
            assert not np.isin(draws[users == u], neighbors(g, u)).any(), u

    def test_hub_user_uniform(self):
        g = long_tail_graph()
        hub = int(np.argsort(g.degree[:g.num_users])[-2])  # the top one misses one item
        free = np.setdiff1d(np.arange(g.num_users, g.num_nodes), neighbors(g, hub))
        assert len(free) > 100
        draws = g.sample_non_neighbors(np.full(50 * len(free), hub), np.random.default_rng(2))
        counts = np.array([np.count_nonzero(draws == i) for i in free])
        assert counts.sum() == len(draws)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_user_with_every_item_but_one(self):
        num_items = 5000
        edges = [(0, 1 + i) for i in range(num_items) if i != 4321]
        g = D.build_graph_from_edges(1, num_items, np.array(edges))
        draws = g.sample_non_neighbors(np.zeros(1000, dtype=np.int64),
                                       np.random.default_rng(3))
        assert (draws == 1 + 4321).all()

    def test_user_with_every_item_raises_naming_it(self):
        edges = [(0, 2), (1, 2), (1, 3), (1, 4)]
        g = D.build_graph_from_edges(2, 3, np.array(edges))
        with pytest.raises(ValueError, match="user node 1 interacts with every item"):
            g.sample_non_neighbors(np.array([0, 1, 0]), np.random.default_rng(4))

    def test_matches_rejection_reference(self):
        g = long_tail_graph(num_users=30, num_items=40, seed=5)
        user = int(np.argsort(g.degree[:g.num_users])[g.num_users // 2])
        users = np.full(4000, user)
        ours = g.sample_non_neighbors(users, np.random.default_rng(6))
        reference = rejection_non_neighbors(g, users, np.random.default_rng(7))
        free = np.setdiff1d(np.arange(g.num_users, g.num_nodes), neighbors(g, user))
        table = [[np.count_nonzero(d == i) for i in free] for d in (ours, reference)]
        assert stats.chi2_contingency(table).pvalue > 0.01


class TestManifests:
    def test_round_trip_bijection(self, tmp_path):
        lines = ["u_%d\titem-%d" % (u, i) for u in range(6) for i in range(u + 1)]
        ds = D.load_interactions(write_lines(tmp_path, lines))
        ds = D.split(ds, seed=3)
        D.save_prepared(ds, tmp_path / "prep")
        back = D.load_prepared(tmp_path / "prep")

        assert back.user_tokens == ds.user_tokens
        assert back.item_tokens == ds.item_tokens
        np.testing.assert_array_equal(back.interactions, ds.interactions)
        np.testing.assert_array_equal(back.split_assignment, ds.split_assignment)


class TestSynthetic:
    def test_shape_and_determinism(self):
        a = make_block_dataset(seed=5)
        b = make_block_dataset(seed=5)
        np.testing.assert_array_equal(a.interactions, b.interactions)
        assert a.num_users == a.num_items == 200
        # ~90% of interactions stay within the aligned block
        blocks_u = a.interactions[:, 0] // 20
        blocks_i = a.interactions[:, 1] // 20
        within = (blocks_u == blocks_i).mean()
        assert 0.8 < within < 0.97

    def test_no_duplicates(self):
        ds = make_block_dataset(seed=8)
        assert len({(int(u), int(i)) for u, i in ds.interactions}) == ds.num_interactions
