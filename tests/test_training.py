import dataclasses
import io
import json
import math
import time
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from rgtrec import tensor as T
from rgtrec import training as TR
from rgtrec.data import InteractionDataset, TRAIN, VAL, build_graph, split
from rgtrec.seeding import substream
from rgtrec.synthetic import make_block_dataset
from rgtrec.training import TrainConfig
from conftest import npy_bytes, write_members, write_zip
from oracles import rejection_negative_sample


def tiny_cfg(**kw):
    base = dict(latdim=8, heads=2, gcn_layers=1, gt_layers=1, pnn_layers=1,
                anchor_set=6, q=2, batch_size=256, lr=0.01, epochs=3, patience=0,
                precision="float64", seed=1)
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
        with pytest.raises(TR.ConfigError, match="rho_m must exceed rho_r"):
            tiny_cfg(rho_r=1.0).validate()
        with pytest.raises(TR.ConfigError, match="rho_c"):
            tiny_cfg(rho_c=0.5).validate()
        tiny_cfg(rho_m=0.9, rho_c=0.225).validate()  # rho_c = rho_m / 4 is allowed
        with pytest.raises(TR.ConfigError, match="boolean"):
            TR.parse_config_text("use_residual = maybe\n")


class TestNegativeSample:
    def test_forced_negative(self):
        inter = np.array([[0, 0]])
        ds = InteractionDataset(1, 2, inter,
                                split_assignment=np.array([TRAIN], dtype=np.int8))
        triples = TR.negative_sample(build_graph(ds), np.array([0]), substream(0, "neg"))
        assert triples.shape == (1, 3)
        assert triples[0, 2] == 1 + 1  # item node of the only non-positive

    def test_negatives_never_in_train(self):
        ds = tiny_dataset()
        positives = ds.positives_by_user(TRAIN)
        rng = substream(1, "neg")
        users = np.repeat(np.arange(ds.num_users), 50)
        triples = TR.negative_sample(build_graph(ds), users, rng)
        for u, pos_node, neg_node in triples:
            assert (neg_node - ds.num_users) not in set(int(x) for x in positives[u])
            assert (pos_node - ds.num_users) in set(int(x) for x in positives[u])

    def test_positive_frequencies_uniform(self):
        inter = np.array([[0, i] for i in range(4)])
        ds = InteractionDataset(1, 8, inter,
                                split_assignment=np.zeros(4, dtype=np.int8))
        rng = substream(2, "neg")
        triples = TR.negative_sample(build_graph(ds), np.zeros(10_000, dtype=np.int64), rng)
        counts = np.bincount(triples[:, 1] - ds.num_users, minlength=4)
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_all_items_user_skipped(self, caplog):
        inter = np.array([[0, 0], [0, 1]])
        ds = InteractionDataset(1, 2, inter,
                                split_assignment=np.zeros(2, dtype=np.int8))
        with caplog.at_level("WARNING"):
            triples = TR.negative_sample(build_graph(ds), np.array([0]), substream(3, "neg"))
        assert len(triples) == 0
        assert "every item" in caplog.text

    def test_saturated_user_skipped_among_others(self, caplog):
        # user 0 has every item, user 1 one of them, user 2 none
        inter = np.array([[0, 0], [0, 1], [0, 2], [1, 1], [2, 0]])
        ds = InteractionDataset(3, 3, inter, split_assignment=np.array(
            [TRAIN, TRAIN, TRAIN, TRAIN, VAL], dtype=np.int8))
        with caplog.at_level("WARNING"):
            triples = TR.negative_sample(build_graph(ds), np.array([0, 1, 2, 0, 1]),
                                         substream(4, "neg"))
        assert triples[:, :2].tolist() == [[1, 3 + 1]] * 2
        assert set(triples[:, 2].tolist()) <= {3 + 0, 3 + 2}
        assert "skipped 1 users that interact with every item" in caplog.text

    def test_matches_rejection_reference(self):
        ds = tiny_dataset()
        users = np.full(4000, 5)
        ours = TR.negative_sample(build_graph(ds), users, substream(5, "neg"))
        reference = rejection_negative_sample(ds, users, substream(6, "neg"))
        for column in (1, 2):
            items = np.union1d(ours[:, column], reference[:, column])
            table = [[np.count_nonzero(t[:, column] == i) for i in items]
                     for t in (ours, reference)]
            assert stats.chi2_contingency(table).pvalue > 0.01


class TestTrainEpoch:
    def test_single_epoch_report_finite(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(epochs=1)
        graph = build_graph(ds)
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

    def test_in_range_report_passes(self):
        TR._check_report(self.report(), self.NODES, self.TEMP)

    def test_negative_mae_raises_in_default_mode(self):
        with pytest.raises(FloatingPointError, match="mae went negative"):
            TR._check_report(self.report(mae=-0.01), self.NODES, self.TEMP)

    @pytest.mark.parametrize("name", ["rec", "ranking", "distill", "reg"])
    def test_other_negative_terms_raise(self, name):
        with pytest.raises(FloatingPointError, match=f"{name} went negative"):
            TR._check_report(self.report(**{name: -0.01}), self.NODES, self.TEMP)

    @pytest.mark.parametrize("offset", [-2.01, 2.01])
    def test_contrast_out_of_bounds_raises(self, offset):
        # the bound is log N +- 1/temperature = log N +- 2
        contrast = math.log(self.NODES) + offset
        with pytest.raises(FloatingPointError, match="contrast loss"):
            TR._check_report(self.report(contrast=contrast), self.NODES, self.TEMP)


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

    def test_literal_mode_writes_model_not_crash_checkpoint(self, tmp_path):
        # named after the removed literal reconstruction mode; the guarded
        # behaviour holds for the one mode left: a fit that passes every
        # per-epoch loss check writes model.ckpt and leaves no crash.ckpt
        ds = tiny_dataset(seed=13)
        TR.fit(ds, tiny_cfg(epochs=1), out_dir=tmp_path)
        assert (tmp_path / "model.ckpt").exists()
        assert not (tmp_path / "crash.ckpt").exists()

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
                       lambda_ranking=0, lambda_contrast=0, lambda_reg=0)
        _, history = TR.fit(ds, cfg)
        assert history[-1]["total"] < history[0]["total"]

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
        assert pair.ema is not None
        assert all(math.isfinite(r["distill"]) for r in history)
        assert history[-1]["distill"] > 0.0

    def test_ema_forward_stays_off_the_tape(self, monkeypatch):
        ds = tiny_dataset(seed=8)
        cfg = tiny_cfg(epochs=1, self_distill_ema=0.9)
        graph = build_graph(ds)
        pair = TR.init_pair(graph, cfg)
        ema_params = {id(p) for p in pair.ema.parameters().values()}
        teacher_params = {id(p) for p in pair.teacher.parameters().values()}
        inputs = []
        backward = T.backward

        def recording_backward(loss, tape=None):
            inputs.extend(id(x) for record in tape.records for x in record.inputs)
            return backward(loss, tape)

        monkeypatch.setattr(T, "backward", recording_backward)
        TR.train_epoch(pair, ds, graph, cfg, 0)
        assert teacher_params & set(inputs)
        assert not ema_params & set(inputs)

    def test_ema_restored_with_the_best_epoch(self):
        # on this data every epoch reaches val Recall@20 = 1, so both runs keep
        # epoch 0, and both must hold epoch 0's teacher and ema
        ds = tiny_dataset(seed=0)
        snapshots = []
        for epochs in (1, 8):
            cfg = tiny_cfg(epochs=epochs, seed=0, self_distill_ema=0.9, lr=0.05)
            pair, _ = TR.fit(ds, cfg)
            assert pair.epoch == 1
            snapshots.append({f"{role}/{key}": arr for role, state in pair.states().items()
                              for key, arr in state.snapshot().items()})
        assert snapshots[0].keys() == snapshots[1].keys()
        assert any(name.startswith("ema/") for name in snapshots[0])
        for name, arr in snapshots[0].items():
            np.testing.assert_array_equal(arr, snapshots[1][name], err_msg=name)

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


def perturbed_pair(graph, cfg):
    """A pair for ``cfg`` whose every parameter differs from a fresh one's."""
    pair = TR.init_pair(graph, cfg)
    for p in pair.teacher.parameters().values():
        p.values += 1.0
    return pair


def state_of(pair) -> dict:
    """The epoch and every array of every model of ``pair``, copied."""
    out = {"epoch": np.asarray([pair.epoch], dtype=np.int64)}
    for role, model in pair.states().items():
        out.update({f"{role}/{k}": v for k, v in model.snapshot().items()})
    return out


def assert_state_equal(pair, expect: dict) -> None:
    got = state_of(pair)
    assert got.keys() == expect.keys()
    for key, arr in got.items():
        np.testing.assert_array_equal(arr, expect[key], err_msg=key)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = tiny_dataset(seed=9)
        cfg = tiny_cfg(epochs=2)
        pair, _ = TR.fit(ds, cfg, out_dir=tmp_path)
        graph = build_graph(ds)
        loaded_cfg = TR.checkpoint_config(tmp_path / "model.ckpt")
        assert loaded_cfg == cfg
        with T.using_dtype(cfg.precision):
            before = TR.predict_embeddings(pair.teacher, graph, cfg)
            fresh = perturbed_pair(graph, loaded_cfg)
            assert not np.array_equal(TR.predict_embeddings(fresh.teacher, graph, cfg), before)
            TR.load_checkpoint_into(tmp_path / "model.ckpt", fresh)
            after = TR.predict_embeddings(fresh.teacher, graph, cfg)
        np.testing.assert_array_equal(before, after)
        assert fresh.epoch == pair.epoch

    def test_blocks_preserved_exactly(self, tmp_path):
        ds = tiny_dataset(seed=10)
        cfg = tiny_cfg(epochs=1, self_distill_ema=0.9)
        pair, _ = TR.fit(ds, cfg, out_dir=tmp_path)
        members = TR.read_checkpoint(tmp_path / "model.ckpt")
        snap = pair.teacher.snapshot()
        # the served model only: no optimizer state, no EMA copy
        assert list(members) == ["version", "epoch", "config", "graph", *snap]
        assert members["version"][()] == TR._VERSION
        assert members["config"][()] == TR.dump_config(cfg)
        assert members["graph"][()] == pair.teacher.graph.content_hash()
        # a plain numpy.load sees the same members
        with np.load(tmp_path / "model.ckpt") as inspected:
            assert inspected.files == list(members)
            for key, arr in snap.items():
                np.testing.assert_array_equal(members[key], arr)
                np.testing.assert_array_equal(inspected[key], arr)

    def test_equal_pairs_write_equal_bytes(self, tmp_path, monkeypatch):
        # members carry a fixed date, not the time of the write
        pair = TR.init_pair(build_graph(tiny_dataset(seed=12)), tiny_cfg())
        written = []
        for now in (1.7e9, 1.7e9 + 3600):
            monkeypatch.setattr(time, "time", lambda: now)
            TR.write_checkpoint(tmp_path / "model.ckpt", pair)
            written.append((tmp_path / "model.ckpt").read_bytes())
        assert written[0] == written[1]

    def test_old_version_rejected(self, old_checkpoint):
        _, path = old_checkpoint
        with pytest.raises(ValueError, match=rf"^{path} is not a readable checkpoint: "
                                             "File is not a zip file$"):
            TR.read_checkpoint(path)

    @pytest.mark.parametrize("member, value, message", [
        ("version", np.int64(6), r"unsupported checkpoint version 6"),
        ("epoch", np.arange(2), r"epoch member is int64 \(2,\), not an integer scalar"),
        ("config", np.int64(1), r"config member is int64 \(\), not a string scalar"),
    ])
    def test_bad_header_member_rejected(self, tmp_path, member, value, message):
        path = tmp_path / "model.ckpt"
        pair = TR.init_pair(build_graph(tiny_dataset(seed=12)), tiny_cfg())
        TR.write_checkpoint(path, pair)
        write_members(path, {**TR.read_checkpoint(path), member: value})
        with pytest.raises(ValueError, match=rf"^{path}: {message}$"):
            TR.load_checkpoint_into(path, pair)

    def test_truncated_file_rejected_at_every_part(self, tmp_path):
        ds = tiny_dataset(seed=12)
        cfg = tiny_cfg(self_distill_ema=0.9)  # the ema is not stored
        whole = tmp_path / "whole.ckpt"
        pair = TR.init_pair(build_graph(ds), cfg)
        TR.write_checkpoint(whole, pair)
        data = whole.read_bytes()
        # inside each member's local header, at its payload and in the middle
        # of it, and every byte of the central directory's tail
        cuts = set(range(len(data) - 400, len(data)))
        with zipfile.ZipFile(whole) as zf:
            for info in zf.infolist():
                start = info.header_offset
                cuts |= {start, start + 1, start + 29, start + 30 + len(info.filename),
                         start + info.compress_size // 2}
        for cut in sorted(cuts):
            part = tmp_path / "part.ckpt"
            part.write_bytes(data[:cut])
            with pytest.raises(ValueError, match=rf"^{part} is not a readable checkpoint: "):
                TR.read_checkpoint(part)
            with pytest.raises(ValueError, match=r"is not a readable checkpoint: "):
                TR.load_checkpoint_into(part, pair)
        assert TR.read_checkpoint(whole)
        TR.load_checkpoint_into(whole, pair)

    def test_failed_load_changes_nothing(self, tmp_path):
        graph = build_graph(tiny_dataset(seed=12))
        cfg = tiny_cfg(self_distill_ema=0.9)
        path = tmp_path / "model.ckpt"
        TR.write_checkpoint(path, TR.init_pair(graph, cfg))
        members = TR.read_checkpoint(path)
        del members["anchors"]
        write_members(path, members)
        fresh = perturbed_pair(graph, TR.checkpoint_config(path))
        before = state_of(fresh)
        with pytest.raises(ValueError, match=r"^teacher snapshot: missing anchors$"):
            TR.load_checkpoint_into(path, fresh)
        assert_state_equal(fresh, before)
        assert fresh.epoch == 0

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        pair = TR.init_pair(build_graph(tiny_dataset(seed=12)), tiny_cfg())
        path = tmp_path / "model.ckpt"
        TR.write_checkpoint(path, pair)
        previous = path.read_bytes()
        pair.teacher.emb.values += 1.0
        write_array = np.lib.format.write_array
        written = []

        def fail_after_first_member(fp, arr, **kwargs):
            if written:
                raise OSError("disk full")
            written.append(arr.item())
            write_array(fp, arr, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", fail_after_first_member)
        with pytest.raises(OSError, match="disk full"):
            TR.write_checkpoint(path, pair)
        assert written == [TR._VERSION]
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_snapshot_keys_must_match_exactly(self):
        state = TR.init_pair(build_graph(tiny_dataset(seed=12)), tiny_cfg()).teacher
        snap = state.snapshot()
        with pytest.raises(ValueError, match=r"^teacher snapshot: missing anchors$"):
            state.load_snapshot({k: v for k, v in snap.items() if k != "anchors"})
        with pytest.raises(ValueError, match=r"^teacher snapshot: unexpected param/extra$"):
            state.load_snapshot({**snap, "param/extra": np.zeros(1)})

    @pytest.mark.parametrize("key, value, message", [
        pytest.param("param/attn.wo", np.zeros((8, 9)),
                     r"shape mismatch for param/attn.wo: \(8, 9\) vs \(8, 8\)", id="shape"),
        # anchors outside the graph and other nodes of it: neither is the model's
        pytest.param("anchors", np.full(6, 10**6, dtype=np.int64),
                     r"anchors differ from the model's", id="anchor_range"),
        pytest.param("anchors", np.arange(6, dtype=np.int64),
                     r"anchors differ from the model's", id="other_anchors"),
    ])
    def test_bad_snapshot_loads_nothing(self, key, value, message):
        state = TR.init_pair(build_graph(tiny_dataset(seed=12)), tiny_cfg()).teacher
        snap = state.snapshot()
        bad = {**snap, "param/emb": snap["param/emb"] + 1.0, key: value}
        with pytest.raises(ValueError, match=rf"^teacher snapshot: {message}$"):
            state.load_snapshot(bad)
        np.testing.assert_array_equal(state.emb.values, snap["param/emb"])

    def test_unknown_dtype_code_rejected(self, tmp_path):
        # a member whose .npy header names no dtype, under a CRC that matches
        path = tmp_path / "odd.ckpt"
        raw = npy_bytes(np.int64(1)).replace(b"'<i8'", b"'<x9'")
        write_zip(path, {"version": npy_bytes(np.int64(TR._VERSION)), "epoch": raw})
        with pytest.raises(ValueError, match=r"not a readable checkpoint: "
                                             r"descr is not a valid dtype descriptor: '<x9'$"):
            TR.read_checkpoint(path)

    def test_shape_beyond_the_payload_rejected(self, tmp_path):
        # a header naming 10**13 float64 values over 32 bytes of payload, under
        # a CRC that matches: no allocation error escapes
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (10**13,)})
        path = tmp_path / "huge.ckpt"
        write_zip(path, {"param/emb": header.getvalue() + bytes(32)})
        with pytest.raises(ValueError, match=rf"^{path} is not a readable checkpoint: "):
            TR.read_checkpoint(path)

    def test_half_width_dtype_with_its_old_crc_refused(self, tmp_path):
        # a member above 4 KB whose header names a dtype half as wide keeps
        # its kind and shape; a lazy np.load member read parses it without
        # reaching the member's end, where the CRC is checked
        graph = build_graph(tiny_dataset(seed=12))
        cfg = tiny_cfg(latdim=32)
        path = tmp_path / "model.ckpt"
        TR.write_checkpoint(path, TR.init_pair(graph, cfg))
        data = bytearray(path.read_bytes())
        assert TR.read_checkpoint(path)["param/emb"].nbytes > 4096
        at = data.index(b"'<f8'", data.index(b"param/emb"))
        data[at:at + 5] = b"'<f4'"
        path.write_bytes(bytes(data))
        pair = perturbed_pair(graph, cfg)
        before = state_of(pair)
        with pytest.raises(ValueError, match=r"Bad CRC-32 for file 'param/emb'$"):
            TR.load_checkpoint_into(path, pair)
        assert_state_equal(pair, before)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a readable checkpoint: File is not a zip file"):
            TR.read_checkpoint(p)


class TestCheckpointStrictness:
    """A checkpoint loads only into a pair of its own config, graph and
    anchors; anything else raises ``ValueError`` and changes nothing."""

    @pytest.fixture
    def saved(self, tmp_path):
        graph = build_graph(tiny_dataset(seed=12))
        cfg = tiny_cfg(self_distill_ema=0.9)
        source = TR.init_pair(graph, cfg)
        source.epoch = 2
        path = tmp_path / "model.ckpt"
        TR.write_checkpoint(path, source)
        return graph, cfg, path

    @staticmethod
    def refused(path, pair, message):
        before = state_of(pair)
        with pytest.raises(ValueError, match=message):
            TR.load_checkpoint_into(path, pair)
        assert_state_equal(pair, before)

    @pytest.mark.parametrize("change", [dict(heads=4), dict(seed=2)], ids=["heads", "seed"])
    def test_pair_of_another_config(self, saved, change):
        graph, cfg, path = saved
        pair = perturbed_pair(graph, dataclasses.replace(cfg, **change))
        self.refused(path, pair, "checkpoint config differs from the model's$")

    @pytest.mark.parametrize("block", ["config", "graph"])
    def test_flipped_payload_byte(self, saved, block):
        # the member's stored CRC-32 no longer matches what it holds
        graph, cfg, path = saved
        data = bytearray(path.read_bytes())
        start = data.index(b"\n", data.index(block.encode())) + 1  # its text
        data[start + 3] ^= 0x01
        path.write_bytes(bytes(data))
        self.refused(path, perturbed_pair(graph, cfg), f"Bad CRC-32 for file '{block}'$")

    @pytest.mark.parametrize("block", ["config", "graph"])
    def test_rewritten_header_member(self, saved, block):
        # another config or graph under a valid CRC: the loader's checks refuse it
        graph, cfg, path = saved
        members = TR.read_checkpoint(path)
        text = str(members[block][()])
        members[block] = np.str_(text.replace("q = 2\n", "q = 4\n") if block == "config"
                                 else text[::-1])
        write_members(path, members)
        self.refused(path, perturbed_pair(graph, cfg), f"checkpoint {block} ")

    def test_anchors_of_another_pair(self, saved):
        graph, cfg, path = saved
        members = TR.read_checkpoint(path)
        members["anchors"] = np.setdiff1d(np.arange(graph.num_nodes), members["anchors"])[:6]
        write_members(path, members)
        self.refused(path, perturbed_pair(graph, cfg),
                     "^teacher snapshot: anchors differ from the model's$")


class TestCheckpointProperties:
    """A damaged checkpoint either loads bit-exactly what was written or
    raises ``ValueError`` and leaves every array and the epoch unchanged."""

    @pytest.fixture(scope="class")
    def case(self, tmp_path_factory):
        with T.using_dtype(np.float64):
            ds = split(make_block_dataset(num_users=3, num_items=4, num_blocks=1,
                                          interactions_per_user=3, seed=0), seed=0)
            graph = build_graph(ds)
            cfg = tiny_cfg(latdim=2, heads=1, anchor_set=2, self_distill_ema=0.9)
            source = TR.init_pair(graph, cfg)
            source.epoch = 3
            target = perturbed_pair(graph, cfg)
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        TR.write_checkpoint(path, source)
        return path, path.read_bytes(), self.state(source), target, self.state(target)

    @staticmethod
    def state(pair) -> dict:
        """The epoch and the teacher's arrays: what a checkpoint holds."""
        out = {"epoch": np.asarray([pair.epoch], dtype=np.int64)}
        out.update(pair.teacher.snapshot())
        return out

    def differences(self, pair, expect: dict) -> list[str]:
        def exact(state):
            return {key: (arr.dtype.str, arr.shape, arr.tobytes()) for key, arr in state.items()}

        got, want = exact(self.state(pair)), exact(expect)
        return sorted(key for key in got.keys() | want.keys() if got.get(key) != want.get(key))

    def load(self, case, data: bytes) -> bool:
        """Load ``data`` into the target pair and check the property; True
        when it loaded, after which the target is restored."""
        path, _, source, target, before = case
        path.write_bytes(data)
        try:
            TR.load_checkpoint_into(path, target)
        except ValueError:
            assert self.differences(target, before) == []
            return False
        assert self.differences(target, source) == []
        target.teacher.load_snapshot({k: v for k, v in before.items() if k != "epoch"})
        target.epoch = int(before["epoch"][0])
        return True

    def test_every_truncation_is_refused(self, case):
        data = case[1]
        refused = [cut for cut in range(len(data)) if not self.load(case, data[:cut])]
        assert refused == list(range(len(data)))
        assert self.load(case, data)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(draw=st.data())
    def test_byte_flips_load_exactly_or_are_refused(self, case, draw):
        data = bytearray(case[1])
        for _ in range(draw.draw(st.integers(1, 3), label="flips")):
            pos = draw.draw(st.integers(0, len(data) - 1), label="byte")
            data[pos] ^= draw.draw(st.integers(1, 255), label="mask")
        self.load(case, bytes(data))

    def test_every_byte_with_one_bit_flipped(self, case):
        # bit ``pos % 8`` of byte ``pos``: every byte, and every bit position
        # in each field longer than a byte; among these are the zip's sizes,
        # offsets and CRCs, and each .npy header's dtype and shape
        data = case[1]
        loaded = 0
        for pos in range(len(data)):
            flipped = bytearray(data)
            flipped[pos] ^= 1 << (pos % 8)
            loaded += self.load(case, bytes(flipped))
        assert 0 < loaded < len(data) // 2  # dates, attributes and the like


class TestPrecision:
    def test_float32_matches_float64(self):
        # The 200x200 block synthetic of the acceptance suite, seed 0, 5
        # epochs.  The maximum relative difference of the predicted embeddings
        # (max |s32 - s64| over max |s64|) measured 1.7e-6 when this bound was
        # set, so 1e-4 leaves about 60x headroom.
        ds = split(make_block_dataset(200, 200, 10, 0.9, 15, seed=0), seed=0)
        s = {}
        for precision in ("float32", "float64"):
            cfg = TrainConfig(latdim=32, heads=4, gcn_layers=2, gt_layers=1, pnn_layers=1,
                              anchor_set=16, batch_size=4096, lr=0.01, epochs=5,
                              patience=0, precision=precision, seed=0)
            pair, _ = TR.fit(ds, cfg)
            with T.using_dtype(precision):
                s[precision] = TR.predict_embeddings(pair.teacher, pair.teacher.graph, cfg)
        assert s["float32"].dtype == np.float32
        diff = np.abs(s["float32"].astype(np.float64) - s["float64"]).max()
        assert diff / np.abs(s["float64"]).max() <= 1e-4


class TestPredictEmbeddings:
    def test_shape(self):
        ds = tiny_dataset(seed=11)
        cfg = tiny_cfg(epochs=1)
        pair, _ = TR.fit(ds, cfg)
        graph = build_graph(ds)
        with T.using_dtype(cfg.precision):
            s = TR.predict_embeddings(pair.teacher, graph, cfg)
        assert s.shape == (ds.num_users + ds.num_items, cfg.latdim)
