import json
import math

import numpy as np
import pytest
from scipy import stats

from rgtrec import training as TR
from rgtrec.data import InteractionDataset, TRAIN, VAL, build_graph, split
from rgtrec.seeding import substream
from rgtrec.synthetic import make_block_dataset
from rgtrec.training import TrainConfig


def tiny_cfg(**kw):
    base = dict(latdim=8, heads=2, gcn_layers=1, gt_layers=1, pnn_layers=1,
                anchor_set=6, q=2, batch_size=256, lr=0.01, epochs=3, patience=0,
                precision="float64", seed=1, determinism=True)
    base.update(kw)
    return TrainConfig(**base)


def tiny_dataset(seed=0):
    # 16 interactions per user keeps the 5% validation share above zero
    ds = make_block_dataset(num_users=12, num_items=24, num_blocks=3,
                            interactions_per_user=16, seed=seed)
    return split(ds, seed=seed)


class TestConfig:
    def test_parse_and_coerce(self):
        text = "latdim = 16\nlr = 0.05  # inline comment\nuse_topology = false\n\n# note\n"
        values = TR.parse_config_text(text)
        assert values == {"latdim": 16, "lr": 0.05, "use_topology": False}

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(TR.ConfigError, match="latdim"):
            TR.parse_config_text("latdimm = 3\n")

    def test_dump_round_trip(self):
        cfg = tiny_cfg(lr=0.007, use_residual=False)
        text = TR.dump_config(cfg)
        values = TR.parse_config_text(text)
        assert TrainConfig(**values) == cfg

    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("latdim = 8\nheads = 2\nepochs = 4\n")
        cfg = TR.load_config(path, overrides={"epochs": "2", "seed": 9})
        assert (cfg.latdim, cfg.epochs, cfg.seed) == (8, 2, 9)

    def test_validation_rejects_bad_combinations(self):
        with pytest.raises(TR.ConfigError, match="divisible"):
            tiny_cfg(latdim=10, heads=4).validate()
        with pytest.raises(TR.ConfigError, match="rho_m"):
            tiny_cfg(rho_r=0.95, rho_m=0.9).validate()
        with pytest.raises(TR.ConfigError, match="rho_c"):
            tiny_cfg(rho_c=0.5).validate()
        with pytest.raises(TR.ConfigError, match="boolean"):
            TR.parse_config_text("determinism = maybe\n")


class TestNegativeSample:
    def test_forced_negative(self):
        inter = np.array([[0, 0]])
        ds = InteractionDataset(1, 2, inter,
                                split_assignment=np.array([TRAIN], dtype=np.int8))
        triples = TR.negative_sample(ds, np.array([0]), substream(0, "neg"))
        assert triples.shape == (1, 3)
        assert triples[0, 2] == 1 + 1  # item node of the only non-positive

    def test_negatives_never_in_train(self):
        ds = tiny_dataset()
        positives = ds.positives_by_user(TRAIN)
        rng = substream(1, "neg")
        users = np.repeat(np.arange(ds.num_users), 50)
        triples = TR.negative_sample(ds, users, rng, positives=positives)
        for u, pos_node, neg_node in triples:
            assert (neg_node - ds.num_users) not in set(int(x) for x in positives[u])
            assert (pos_node - ds.num_users) in set(int(x) for x in positives[u])

    def test_positive_frequencies_uniform(self):
        inter = np.array([[0, i] for i in range(4)])
        ds = InteractionDataset(1, 8, inter,
                                split_assignment=np.zeros(4, dtype=np.int8))
        rng = substream(2, "neg")
        triples = TR.negative_sample(ds, np.zeros(10_000, dtype=np.int64), rng)
        counts = np.bincount(triples[:, 1] - ds.num_users, minlength=4)
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_all_items_user_skipped(self, caplog):
        inter = np.array([[0, 0], [0, 1]])
        ds = InteractionDataset(1, 2, inter,
                                split_assignment=np.zeros(2, dtype=np.int8))
        with caplog.at_level("WARNING"):
            triples = TR.negative_sample(ds, np.array([0]), substream(3, "neg"))
        assert len(triples) == 0
        assert "every item" in caplog.text


class TestTrainEpoch:
    def test_single_epoch_report_finite(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(epochs=1)
        graph = build_graph(ds)
        import rgtrec.tensor as T
        with T.using_dtype("float64"):
            pair = TR.init_pair(graph, cfg)
            report = TR.train_epoch(pair, ds, graph, cfg, epoch=0)
        for name in ("rec", "mae", "distill", "ranking", "contrast", "reg", "total"):
            assert math.isfinite(getattr(report, name))
        assert report.total == pytest.approx(
            report.rec * cfg.lambda_rec + report.mae * cfg.lambda_mae
            + report.distill * cfg.lambda_distill + report.ranking * cfg.lambda_ranking
            + report.contrast * cfg.lambda_contrast + report.reg * cfg.lambda_reg,
            abs=1e-6)


class TestCheckReport:
    NODES, TEMP = 36, 0.5

    def report(self, **kw):
        base = dict(rec=1.0, mae=0.5, distill=0.1, ranking=0.7,
                    contrast=math.log(self.NODES), reg=2.0)
        base.update(kw)
        return TR.LossReport(**base)

    @pytest.mark.parametrize("literal", [False, True])
    def test_in_range_report_passes(self, literal):
        TR._check_report(self.report(), self.NODES, self.TEMP, literal)

    def test_negative_mae_raises_in_default_mode(self):
        with pytest.raises(FloatingPointError, match="mae went negative"):
            TR._check_report(self.report(mae=-0.01), self.NODES, self.TEMP)

    def test_negative_mae_passes_in_literal_mode(self):
        TR._check_report(self.report(mae=-5.0), self.NODES, self.TEMP,
                         literal_mae=True)

    @pytest.mark.parametrize("literal", [False, True])
    @pytest.mark.parametrize("name", ["rec", "ranking", "distill", "reg"])
    def test_other_negative_terms_raise_in_both_modes(self, name, literal):
        with pytest.raises(FloatingPointError, match=f"{name} went negative"):
            TR._check_report(self.report(**{name: -0.01}), self.NODES, self.TEMP,
                             literal)

    @pytest.mark.parametrize("literal", [False, True])
    @pytest.mark.parametrize("offset", [-2.01, 2.01])
    def test_contrast_out_of_bounds_raises_in_both_modes(self, offset, literal):
        # the bound is log N +- 1/temperature = log N +- 2
        contrast = math.log(self.NODES) + offset
        with pytest.raises(FloatingPointError, match="contrast loss"):
            TR._check_report(self.report(contrast=contrast), self.NODES, self.TEMP,
                             literal)


class TestFit:
    def test_patience_zero_runs_all_epochs(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_cfg(epochs=3, patience=0)
        pair, history = TR.fit(ds, cfg, out_dir=tmp_path)
        assert len(history) == 3
        log_lines = (tmp_path / "train_log.jsonl").read_text().strip().splitlines()
        assert len(log_lines) == 3
        json.loads(log_lines[0])
        step_lines = (tmp_path / "steps.jsonl").read_text().strip().splitlines()
        assert len(step_lines) >= 3  # at least one step record per epoch
        first = json.loads(step_lines[0])
        assert {"epoch", "step", "rec", "total"} <= set(first)

    def test_determinism_bit_identical(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(epochs=2)
        _, h1 = TR.fit(ds, cfg)
        _, h2 = TR.fit(ds, cfg)
        for r1, r2 in zip(h1, h2):
            assert r1 == r2  # exact float equality, not approximate

    def test_best_checkpoint_is_best_validation_epoch(self):
        ds = tiny_dataset(seed=3)
        cfg = tiny_cfg(epochs=4)
        pair, history = TR.fit(ds, cfg)
        vals = [r["val_recall@20"] for r in history]
        assert pair.epoch == int(np.argmax(vals)) + 1

    def test_early_stopping_with_patience(self):
        ds = tiny_dataset(seed=4)
        cfg = tiny_cfg(epochs=50, patience=2, lr=0.0)  # lr 0: no improvement ever
        with pytest.raises(TR.ConfigError):
            cfg.validate()
        cfg = tiny_cfg(epochs=50, patience=2, lr=1e-12)
        _, history = TR.fit(ds, cfg)
        assert len(history) < 50

    def test_loss_decreases_with_rec_only(self):
        ds = tiny_dataset(seed=5)
        cfg = tiny_cfg(epochs=5, lr=0.05, lambda_mae=0, lambda_distill=0,
                       lambda_ranking=0, lambda_contrast=0, lambda_reg=0,
                       use_distillation=False)
        _, history = TR.fit(ds, cfg)
        assert history[-1]["total"] < history[0]["total"]

    def test_teacher_untouched_by_distillation(self):
        ds = tiny_dataset(seed=6)
        on, _ = TR.fit(ds, tiny_cfg(epochs=2, use_distillation=True))
        off, _ = TR.fit(ds, tiny_cfg(epochs=2, use_distillation=False))
        np.testing.assert_array_equal(on.teacher.emb.values, off.teacher.emb.values)

    def test_empty_validation_split_warns(self, caplog):
        ds = split(make_block_dataset(num_users=12, num_items=12, num_blocks=3,
                                      interactions_per_user=6, seed=7),
                   ratios=(0.75, 0.0, 0.25), seed=7)
        assert not (ds.split_assignment == VAL).any()
        with caplog.at_level("WARNING"):
            _, history = TR.fit(ds, tiny_cfg(epochs=1))
        assert "early stopping disabled" in caplog.text

    def test_ema_self_distillation_mode(self):
        ds = tiny_dataset(seed=8)
        cfg = tiny_cfg(epochs=2, self_distill_ema=0.9)
        pair, history = TR.fit(ds, cfg)
        assert pair.ema is not None and pair.student is None
        assert all(math.isfinite(r["distill"]) for r in history)
        assert history[-1]["distill"] > 0.0

    def test_anchor_resampling_per_epoch(self):
        ds = tiny_dataset(seed=12)
        cfg = tiny_cfg(epochs=2, resample_anchors_per_epoch=True)
        pair, history = TR.fit(ds, cfg)
        assert len(history) == 2
        assert all(math.isfinite(r["total"]) for r in history)

    def test_literal_reconstruction_mode(self):
        ds = tiny_dataset(seed=13)
        cfg = tiny_cfg(epochs=1, literal_mae=True)
        _, history = TR.fit(ds, cfg)
        assert math.isfinite(history[0]["mae"])  # the literal form may go negative

    def test_literal_mode_writes_model_not_crash_checkpoint(self, tmp_path):
        ds = tiny_dataset(seed=13)
        TR.fit(ds, tiny_cfg(epochs=1, literal_mae=True), out_dir=tmp_path)
        assert (tmp_path / "model.ckpt").exists()
        assert not (tmp_path / "crash.ckpt").exists()

    def test_crash_log_names_the_failed_check(self, tmp_path, monkeypatch, caplog):
        def fail(*args):
            raise FloatingPointError("contrast loss 9.0000 outside [1.5835, 5.5835]")
        monkeypatch.setattr(TR, "_check_report", fail)
        with pytest.raises(FloatingPointError):
            TR.fit(tiny_dataset(seed=13), tiny_cfg(epochs=1), out_dir=tmp_path)
        assert (tmp_path / "crash.ckpt").exists()
        assert "contrast loss 9.0000 outside" in caplog.text
        assert "crash.ckpt" in caplog.text

    def test_sampled_softmax_candidates(self):
        ds = tiny_dataset(seed=14)
        full = tiny_cfg(epochs=1)
        sampled = tiny_cfg(epochs=1, rec_candidates=8)
        _, h_full = TR.fit(ds, full)
        _, h_sampled = TR.fit(ds, sampled)
        # a smaller denominator can only shrink the cross-entropy
        assert h_sampled[0]["rec"] <= h_full[0]["rec"] + 1e-9


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = tiny_dataset(seed=9)
        cfg = tiny_cfg(epochs=2)
        import rgtrec.tensor as T
        pair, _ = TR.fit(ds, cfg, out_dir=tmp_path)
        graph = build_graph(ds)
        with T.using_dtype(cfg.precision):
            before = TR.predict_embeddings(pair.teacher, graph, cfg)

            fresh = TR.init_pair(graph, TrainConfig(**{**cfg.__dict__, "seed": 999}))
            TR.load_checkpoint_into(tmp_path / "model.ckpt", fresh)
            after = TR.predict_embeddings(fresh.teacher, graph, cfg)
        np.testing.assert_array_equal(before, after)
        assert fresh.epoch == pair.epoch

    def test_blocks_preserved_exactly(self, tmp_path):
        ds = tiny_dataset(seed=10)
        cfg = tiny_cfg(epochs=1)
        pair, _ = TR.fit(ds, cfg, out_dir=tmp_path)
        blocks = TR.read_checkpoint(tmp_path / "model.ckpt")
        snap = pair.teacher.snapshot()
        for key, arr in snap.items():
            np.testing.assert_array_equal(blocks[f"teacher/{key}"], arr)

    def test_version_one_rejected(self, v1_checkpoint):
        with pytest.raises(ValueError, match=r"^unsupported checkpoint version 1$"):
            TR.read_checkpoint(v1_checkpoint)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            TR.read_checkpoint(p)


class TestPredictEmbeddings:
    def test_shape(self):
        ds = tiny_dataset(seed=11)
        cfg = tiny_cfg(epochs=1)
        pair, _ = TR.fit(ds, cfg)
        graph = build_graph(ds)
        import rgtrec.tensor as T
        with T.using_dtype(cfg.precision):
            s = TR.predict_embeddings(pair.teacher, graph, cfg)
        assert s.shape == (ds.num_users + ds.num_items, cfg.latdim)
