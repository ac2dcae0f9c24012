import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rgtrec import cli
from rgtrec import tensor as T
from rgtrec import training as TR
from rgtrec.cli import main
from rgtrec.synthetic import make_block_dataset
from rgtrec.training import _VERSION
from conftest import write_members


@pytest.fixture
def raw_file(tmp_path):
    ds = make_block_dataset(num_users=12, num_items=24, num_blocks=3,
                            interactions_per_user=16, seed=0)
    path = tmp_path / "raw.tsv"
    with path.open("w") as fh:
        for u, i in ds.interactions:
            fh.write(f"u{u}\ti{i}\n")
    return path


@pytest.fixture
def prepared(raw_file, tmp_path):
    data_dir = tmp_path / "data"
    assert main(["prepare", "--input", str(raw_file), "--out", str(data_dir)]) == 0
    return data_dir


TINY_FLAGS = ["--latdim", "8", "--heads", "2", "--anchor-set", "6",
              "--pnn-layers", "1", "--epochs", "1", "--patience", "0",
              "--batch-size", "256"]


# a misspelt key and keys that older versions accepted, with a value they
# took; then known keys with a value that does not parse
BAD_KEYS = [(key, value, f"unknown config key {key!r}") for key, value in [
    ("latdimm", "4"), ("literal_mae", "true"), ("resample_anchors_per_epoch", "true"),
    ("mae_negatives", "1"), ("combination", "mean_of_layers"),
    ("adam_beta1", "0.9"), ("adam_beta2", "0.999"), ("adam_eps", "1e-8"),
]] + [
    ("latdim", "abc", "latdim: expected an integer, got 'abc'"),
    ("lr", "fast", "lr: expected a number, got 'fast'"),
]


FLOAT_KEYS = [f.name for f in dataclasses.fields(TR.TrainConfig) if f.type == "float"]


def listed_twice(rows, split):
    """``splits.tsv`` rows with the first pair moved to train and listed again,
    last, in ``split``: a double train edge, or a test item that can never
    be ranked."""
    pair = rows[1].rsplit("\t", 1)[0]
    return rows[:1] + [pair + "\ttrain"] + rows[2:] + [pair + "\t" + split]


class TestPrepare:
    def test_writes_manifests(self, prepared, capsys):
        assert (prepared / "splits.tsv").exists()
        assert (prepared / "ids.tsv").exists()

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["prepare", "--input", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "d")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_ratios_exit_two(self, raw_file, tmp_path):
        code = main(["prepare", "--input", str(raw_file), "--out", str(tmp_path / "d"),
                     "--ratios", "0.5,0.5"])
        assert code == 2

    @pytest.mark.parametrize("ratios", ["nan,0.5,0.5", "0.5,nan,nan", "inf,0,0", "1,-inf,inf"])
    def test_non_finite_ratios_exit_two(self, raw_file, tmp_path, capsys, ratios):
        code = main(["prepare", "--input", str(raw_file), "--out", str(tmp_path / "d"),
                     "--ratios", ratios])
        assert code == 2
        assert capsys.readouterr().err == f"config error: ratios must be finite, got {ratios!r}\n"
        assert not (tmp_path / "d").exists()

    def test_tab_inside_a_csv_token_exits_one(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("a,i0\na\tb,i1\n", encoding="utf-8")
        out = tmp_path / "prep"
        assert main(["prepare", "--input", str(raw), "--format", "csv_pairs",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: {raw}:2: a token contains a tab, got 'a\\tb,i1\\n'\n"
        assert not out.exists()

    def test_idempotent(self, raw_file, tmp_path):
        for name in ("a", "b"):
            main(["prepare", "--input", str(raw_file), "--out", str(tmp_path / name),
                  "--seed", "5"])
        assert (tmp_path / "a" / "splits.tsv").read_bytes() == \
               (tmp_path / "b" / "splits.tsv").read_bytes()

    def test_unknown_flag_exits_two(self, raw_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["prepare", "--input", str(raw_file), "--bogus-flag", "1"])
        assert exc.value.code == 2

    def test_non_utf8_input_exits_one_naming_the_file(self, raw_file, tmp_path, capsys):
        raw_file.write_bytes(raw_file.read_bytes() + b"u\xff\ti0\n")
        assert main(["prepare", "--input", str(raw_file), "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err == f"error: {raw_file}: not UTF-8 text " \
                                          "(invalid start byte)\n"


class TestTrain:
    def test_smoke_run_writes_artifacts(self, prepared, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--data", str(prepared), "--out", str(out)] + TINY_FLAGS)
        assert code == 0
        for name in ("model.ckpt", "train_log.jsonl", "metrics.csv", "config.cfg"):
            assert (out / name).exists(), name
        assert "test recall@20" in capsys.readouterr().out

    def test_empty_test_split_is_reported_not_scored(self, raw_file, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["prepare", "--input", str(raw_file), "--out", str(data_dir),
                     "--ratios", "1,0,0"]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--out", str(out)] + TINY_FLAGS) == 0
        printed = capsys.readouterr().out
        assert "test split is empty: no test metrics" in printed.splitlines()
        assert "recall@" not in printed
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert rows and all(row.endswith(",nan,nan") for row in rows)

    def test_user_with_every_item_trains(self, tmp_path, caplog):
        ds = make_block_dataset(num_users=12, num_items=24, num_blocks=3,
                                interactions_per_user=16, seed=0)
        pairs = {(int(u), int(i)) for u, i in ds.interactions} | {(0, i) for i in range(24)}
        raw = tmp_path / "raw.tsv"
        raw.write_text("".join(f"u{u}\ti{i}\n" for u, i in sorted(pairs)))
        data_dir = tmp_path / "data"
        assert main(["prepare", "--input", str(raw), "--out", str(data_dir),
                     "--ratios", "1,0,0"]) == 0
        # rho_m = 0.6 masks out 40% of the edges, so some of user 0's are
        # among them in the first step
        with caplog.at_level("WARNING"):
            code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
                         "--rho-m", "0.6"] + TINY_FLAGS)
        assert code == 0
        assert "reconstruction skips the edges of 1 users" in caplog.text

    def test_nonfinite_gradient_exits_one_with_crash_checkpoint(self, prepared, tmp_path,
                                                                capsys, monkeypatch):
        # sqrt(0 * row 0) adds 0 to the loss, but its gradient is 0 * inf = NaN
        loss_bpr = TR.loss_bpr

        def nan_gradient_bpr(s, triples):
            return T.add(loss_bpr(s, triples), T.tmean(T.sqrt(T.mul(T.take(s, [0]), 0.0))))

        monkeypatch.setattr(TR, "loss_bpr", nan_gradient_bpr)
        out = tmp_path / "run"
        with np.errstate(divide="ignore", invalid="ignore"):
            code = main(["train", "--data", str(prepared), "--out", str(out)] + TINY_FLAGS)
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1, errors
        assert re.fullmatch(r"error: non-finite gradient for parameter \S+", errors[0]), errors
        assert (out / "crash.ckpt").exists()
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("key, value, message", BAD_KEYS,
                             ids=[k if m.startswith("unknown") else f"{k}={v}"
                                  for k, v, m in BAD_KEYS])
    def test_invalid_config_key_exits_two(self, prepared, tmp_path, capsys, key, value,
                                          message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        for command in (["train", "--config", str(cfg)], ["dump-config", "--config", str(cfg)],
                        ["grid", "--param", f"{key}={value}"]):
            if command[0] != "dump-config":
                command += ["--data", str(prepared), "--out", str(tmp_path / "r")]
            assert main(command) == 2, command
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {message}") and err.count("\n") == 1, err
        flag = ["train", "--data", str(prepared), "--out", str(tmp_path / "r"),
                "--" + key.replace("_", "-"), value]
        if message.startswith("unknown"):
            with pytest.raises(SystemExit) as exc:  # argparse has no such flag
                main(flag)
            assert exc.value.code == 2
        else:  # the flag's text is parsed as the config file's is
            assert main(flag) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("file, edit, message", [
        ("splits.tsv", lambda rows: rows + ["ghost\ti0\ttrain"],
         r"splits\.tsv:\d+: user 'ghost' is not in ids\.tsv"),
        ("splits.tsv", lambda rows: rows + ["u0\tghost\ttrain"],
         r"splits\.tsv:\d+: item 'ghost' is not in ids\.tsv"),
        ("splits.tsv", lambda rows: rows[:1] + [rows[1].rsplit("\t", 1)[0] + "\tholdout"],
         r"splits\.tsv:2: unknown split 'holdout'"),
        ("splits.tsv", lambda rows: rows + ["u0\ti0"],
         r"splits\.tsv:\d+: expected 3 tab-separated fields, got 2"),
        ("splits.tsv", lambda rows: rows[:1], r"splits\.tsv: no interactions"),
        ("splits.tsv", lambda rows: [], r"splits\.tsv: empty file"),
        ("ids.tsv", lambda rows: [], r"ids\.tsv: empty file"),
        ("ids.tsv", lambda rows: rows[:1] + ["user\tu0\t7"] + rows[2:],
         r"ids\.tsv:2: expected a new user token with index 0"),
        ("splits.tsv", lambda rows: listed_twice(rows, "train"),
         r"splits\.tsv:\d+: user 'u\d+' and item 'i\d+' already listed on line 2"),
        ("splits.tsv", lambda rows: listed_twice(rows, "test"),
         r"splits\.tsv:\d+: user 'u\d+' and item 'i\d+' already listed on line 2"),
    ], ids=["user", "item", "split", "columns", "no_rows", "empty_splits", "empty_ids",
            "index", "twice_in_train", "train_and_test"])
    def test_malformed_prepared_dir_exits_one_without_traceback(self, prepared, tmp_path,
                                                                file, edit, message):
        path = prepared / file
        rows = path.read_text().splitlines()
        path.write_text("".join(row + "\n" for row in edit(rows)))
        proc = subprocess.run(
            [sys.executable, "-m", "rgtrec.cli", "train", "--data", str(prepared),
             "--out", str(tmp_path / "r")] + TINY_FLAGS,
            capture_output=True, text=True)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert re.match(rf"^error: {re.escape(str(prepared))}/{message}", lines[0]), lines[0]

    @pytest.mark.parametrize("file", ["ids.tsv", "splits.tsv"])
    def test_non_utf8_prepared_file_exits_one_naming_it(self, prepared, tmp_path, capsys,
                                                        file):
        path = prepared / file
        path.write_bytes(path.read_bytes() + b"\xff\n")
        code = main(["train", "--data", str(prepared), "--out", str(tmp_path / "r")]
                    + TINY_FLAGS)
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text " \
                                          "(invalid start byte)\n"

    @pytest.mark.parametrize("key, value", [("lambda_rec", "nan"), ("temperature", "inf")])
    def test_non_finite_config_exits_two_before_training(self, prepared, tmp_path, capsys,
                                                         key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "r"
        code = main(["train", "--data", str(prepared), "--out", str(out), "--config", str(cfg)]
                    + TINY_FLAGS)
        assert code == 2
        assert capsys.readouterr().err == f"config error: {key} must be finite\n"
        assert not out.exists()

    def test_flag_overrides_config_file(self, prepared, tmp_path, capsys):
        cfg = tmp_path / "base.cfg"
        cfg.write_text("latdim = 8\nheads = 2\nanchor_set = 6\npnn_layers = 1\n"
                       "epochs = 7\nbatch_size = 256\npatience = 0\n")
        out = tmp_path / "run"
        code = main(["train", "--data", str(prepared), "--out", str(out),
                     "--config", str(cfg), "--epochs", "1"])
        assert code == 0
        lines = (out / "train_log.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1
        assert "epochs = 1" in (out / "config.cfg").read_text()

    def test_same_seed_identical_logs(self, prepared, tmp_path):
        logs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(["train", "--data", str(prepared), "--out", str(out),
                  "--seed", "7"] + TINY_FLAGS)
            logs.append((out / "train_log.jsonl").read_bytes())
        assert logs[0] == logs[1]

    def test_dump_subgraphs(self, prepared, tmp_path, monkeypatch):
        drawn = {}
        draw = TR.draw_subgraphs

        def record(probs, cfg, epoch):
            subs = draw(probs, cfg, epoch)
            drawn.setdefault(epoch, []).append(subs)
            return subs

        monkeypatch.setattr(TR, "draw_subgraphs", record)
        out = tmp_path / "run"
        code = main(["train", "--data", str(prepared), "--out", str(out),
                     "--dump-subgraphs"] + TINY_FLAGS)
        assert code == 0
        assert drawn.keys() == {0}  # training's draws; TINY_FLAGS run one epoch
        for subs in drawn[0]:
            for sub in subs:
                rows = (out / "subgraphs" / f"{sub.kind}.tsv").read_text().splitlines()[2:]
                dumped = [int(row.split("\t")[0]) for row in rows]
                assert dumped == sub.edge_indices.tolist(), sub.kind


def run_cli(*args):
    """``rgtrec`` in a fresh interpreter, so a traceback would show on stderr."""
    return subprocess.run([sys.executable, "-m", "rgtrec.cli", *map(str, args)],
                          capture_output=True, text=True)


class TestEvaluate:
    @pytest.fixture
    def run(self, prepared, tmp_path, capsys):
        """A run trained with TINY_FLAGS, whose ``--heads 2`` is not the default."""
        out = tmp_path / "run"
        assert main(["train", "--data", str(prepared), "--out", str(out)] + TINY_FLAGS) == 0
        capsys.readouterr()
        return out

    def test_checkpoint_metrics(self, prepared, run, capsys):
        # no config flag: the architecture comes from the checkpoint, so the
        # scores are exactly the ones training wrote
        code = main(["evaluate", "--data", str(prepared),
                     "--checkpoint", str(run / "model.ckpt"), "--split", "test"])
        assert code == 0
        output = capsys.readouterr().out.splitlines()
        rows = (run / "metrics.csv").read_text().splitlines()
        assert output[0] == rows[0] == "split,K,recall,ndcg"
        assert output[1:] == [row for row in rows if row.startswith("test,")]
        assert "test,20," in output[2]

    def test_config_flags_are_refused(self, prepared, run, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--data", str(prepared),
                  "--checkpoint", str(run / "model.ckpt"), "--heads", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --heads 4" in capsys.readouterr().err

    def test_help_lists_no_config_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["evaluate", "--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--data", "--checkpoint", "--split", "--out"}

    @pytest.mark.parametrize("source", ["other_data", "other_split_seed"])
    def test_other_graph_exits_one(self, raw_file, run, tmp_path, source):
        other = tmp_path / "other"
        if source == "other_data":
            ds = make_block_dataset(num_users=12, num_items=24, num_blocks=3,
                                    interactions_per_user=16, seed=1)
            raw_file = tmp_path / "other.tsv"
            raw_file.write_text("".join(f"u{u}\ti{i}\n" for u, i in ds.interactions))
            assert main(["prepare", "--input", str(raw_file), "--out", str(other)]) == 0
        else:
            assert main(["prepare", "--input", str(raw_file), "--out", str(other),
                         "--seed", "1"]) == 0
        proc = run_cli("evaluate", "--data", other, "--checkpoint", run / "model.ckpt")
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert re.match(rf"^error: {re.escape(str(run / 'model.ckpt'))}: checkpoint graph "
                        r"'[0-9a-f]{16}' differs from this data's graph '[0-9a-f]{16}'$",
                        proc.stderr), proc.stderr

    def test_edited_config_exits_one(self, prepared, run):
        # a config value changed in place, here q = 2 -> 4, still parses and
        # matches the anchors and graph; the member's CRC-32 refuses it
        path = run / "model.ckpt"
        data = path.read_bytes()
        line = "\nq = 2\n".encode("utf-32-le")
        assert data.count(line) == 1
        path.write_bytes(data.replace(line, "\nq = 4\n".encode("utf-32-le")))
        proc = run_cli("evaluate", "--data", prepared, "--checkpoint", path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: {path} is not a readable checkpoint: Bad CRC-32 for file 'config'"]

    def test_malformed_config_block_exits_one(self, prepared, tmp_path):
        path = tmp_path / "bad_config.ckpt"
        write_members(path, {"version": np.int64(_VERSION), "epoch": np.int64(1),
                             "config": np.str_("heads = many\n"), "graph": np.str_("0" * 16)})
        proc = run_cli("evaluate", "--data", prepared, "--checkpoint", path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: {path}: malformed config member: heads: expected an integer, got 'many'"]

    def test_missing_checkpoint_exits_one(self, prepared, tmp_path):
        code = main(["evaluate", "--data", str(prepared),
                     "--checkpoint", str(tmp_path / "none.ckpt")])
        assert code == 1

    def test_old_version_checkpoint_exits_one_without_traceback(self, prepared,
                                                                old_checkpoint):
        _, path = old_checkpoint
        proc = run_cli("evaluate", "--data", prepared, "--checkpoint", path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: {path} is not a readable checkpoint: File is not a zip file"]

    def test_truncated_checkpoint_exits_one_without_traceback(self, prepared,
                                                             truncated_checkpoint):
        proc = run_cli("evaluate", "--data", prepared, "--checkpoint", truncated_checkpoint)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: {truncated_checkpoint} is not a readable checkpoint: File is not a zip file"]

    def test_checkpoint_without_blocks_exits_one_without_traceback(self, prepared,
                                                                  tmp_path):
        # each file lacks the next header member; the error names it
        path = tmp_path / "header_only.ckpt"
        header = {"version": np.int64(_VERSION), "epoch": np.int64(1),
                  "config": np.str_("heads = 2\n"), "graph": np.str_("0" * 16)}
        for count, missing in enumerate(header):
            write_members(path, dict(list(header.items())[:count]))
            proc = run_cli("evaluate", "--data", prepared, "--checkpoint", path)
            assert proc.returncode == 1
            assert proc.stderr.splitlines() == [
                f"error: {path}: checkpoint has no {missing} member"]


@pytest.mark.parametrize("case", ["train_config_dir", "evaluate_checkpoint_dir",
                                  "train_out_file", "evaluate_out_under_file",
                                  "train_data_file", "prepare_input_dir"])
def test_wrong_path_kind_exits_one_with_one_line(raw_file, prepared, tmp_path, case):
    # a directory where a file belongs, or a file where a directory belongs
    out = tmp_path / "run"
    ckpt = tmp_path / "model.ckpt"
    if case.startswith("evaluate"):
        assert main(["train", "--data", str(prepared), "--out", str(out)] + TINY_FLAGS) == 0
        ckpt = out / "model.ckpt"
    args = {
        "train_config_dir": ["train", "--data", prepared, "--out", out, "--config", tmp_path],
        "evaluate_checkpoint_dir": ["evaluate", "--data", prepared, "--checkpoint", tmp_path],
        "train_out_file": ["train", "--data", prepared, "--out", raw_file] + TINY_FLAGS,
        "evaluate_out_under_file": ["evaluate", "--data", prepared, "--checkpoint", ckpt,
                                    "--out", raw_file / "m.csv"],
        "train_data_file": ["train", "--data", raw_file, "--out", out] + TINY_FLAGS,
        "prepare_input_dir": ["prepare", "--input", tmp_path, "--out", tmp_path / "d"],
    }[case]
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr


class TestAblate:
    def test_emits_rows_per_variant_per_seed(self, prepared, tmp_path):
        out = tmp_path / "ab"
        code = main(["ablate", "--data", str(prepared), "--out", str(out),
                     "--num-seeds", "2"] + TINY_FLAGS)
        assert code == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        # header + (3 component + 5 loss variants) x 2 seeds
        assert len(lines) == 1 + 8 * 2
        assert lines[0].startswith("group,variant,seed")
        variants = {line.split(",")[1] for line in lines[1:]}
        assert variants == {"gt", "rgt_la", "ad", "full",
                            "no_ranking", "no_rec", "no_distill", "no_reg"}

    def test_trains_each_distinct_model_once(self, prepared, tmp_path, monkeypatch):
        # with EMA off in the base config, full and no_distill are rgt_la's
        # model: 6 distinct models per seed, reported in all 8 rows
        seeds = []
        real_fit = cli.fit

        def counting_fit(ds, cfg, *args, **kwargs):
            seeds.append(cfg.seed)
            return real_fit(ds, cfg, *args, **kwargs)

        monkeypatch.setattr(cli, "fit", counting_fit)
        out = tmp_path / "ab"
        assert main(["ablate", "--data", str(prepared), "--out", str(out),
                     "--num-seeds", "2", "--seed", "3"] + TINY_FLAGS) == 0
        assert sorted(seeds) == [3] * 6 + [4] * 6
        rows = [line.split(",") for line in
                (out / "ablation.csv").read_text().strip().splitlines()[1:]]
        metrics = {(row[1], row[2]): row[3:] for row in rows}
        for seed in ("3", "4"):
            assert metrics[("full", seed)] == metrics[("rgt_la", seed)]
            assert metrics[("no_distill", seed)] == metrics[("rgt_la", seed)]

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_no_seeds_is_a_config_error(self, prepared, tmp_path, capsys, count):
        code = main(["ablate", "--data", str(prepared), "--out", str(tmp_path / "ab"),
                     "--num-seeds", count] + TINY_FLAGS)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --num-seeds") and err.count("\n") == 1, err


class TestGrid:
    def test_grid_rows(self, prepared, tmp_path):
        out = tmp_path / "grid"
        code = main(["grid", "--data", str(prepared), "--out", str(out),
                     "--param", "lr=0.01,0.001"] + TINY_FLAGS)
        assert code == 0
        lines = (out / "grid.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_requires_axis(self, prepared, tmp_path):
        code = main(["grid", "--data", str(prepared), "--out", str(tmp_path / "g")]
                    + TINY_FLAGS)
        assert code == 2

    def test_axis_without_values_is_a_config_error(self, prepared, tmp_path, capsys):
        code = main(["grid", "--data", str(prepared), "--out", str(tmp_path / "g"),
                     "--param", "lr="] + TINY_FLAGS)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --param lr") and err.count("\n") == 1, err

    def test_repeated_axis_is_a_config_error(self, prepared, tmp_path, capsys):
        out = tmp_path / "g"
        code = main(["grid", "--data", str(prepared), "--out", str(out),
                     "--param", "lr=0.1", "--param", "lr=0.2,0.3"] + TINY_FLAGS)
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: --param lr given more than once; list its values in one\n"
        assert not out.exists()


class TestDumpConfig:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_key_exits_two(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main(["dump-config", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {key} must be finite\n"

    def test_every_float_key_is_checked(self):
        assert len(FLOAT_KEYS) == 12

    def test_non_utf8_config_exits_two_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"lr = 0.01\xff\n")
        assert main(["dump-config", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {cfg}: not UTF-8 text " \
                                          "(invalid start byte)\n"

    def test_prints_resolved_config(self, capsys):
        code = main(["dump-config", "--latdim", "16", "--heads", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "latdim = 16" in out
        assert "heads = 4" in out

    def test_round_trips_through_parser(self, capsys, tmp_path):
        main(["dump-config", "--lr", "0.0042"])
        text = capsys.readouterr().out
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(text)
        code = main(["dump-config", "--config", str(cfg_file)])
        assert code == 0
        assert "lr = 0.0042" in capsys.readouterr().out


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 7.28 TiB for an array", "error: Unable to allocate 7.28 TiB for an array"),
    ("", "error: out of memory"),
])
def test_memory_error_exits_one_with_one_line(capsys, monkeypatch, message, line):
    # a raised MemoryError, never a real huge allocation
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "load_config", exhausted)
    assert main(["dump-config"]) == 1
    assert capsys.readouterr().err == line + "\n"


def test_public_api():
    import rgtrec
    for name in rgtrec.__all__:
        assert hasattr(rgtrec, name), name


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "rgtrec.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "prepare" in proc.stdout and "ablate" in proc.stdout


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestShippedConfigs:
    """The per-dataset config files pin the published tuning values."""

    def test_lastfm_row(self):
        from rgtrec.training import load_config
        cfg = load_config(CONFIG_DIR / "lastfm.cfg")
        assert (cfg.latdim, cfg.heads, cfg.gt_layers, cfg.pnn_layers) == (64, 8, 1, 2)
        assert (cfg.gcn_layers, cfg.anchor_set, cfg.batch_size) == (1, 32, 4096)
        assert (cfg.lr, cfg.lambda_reg, cfg.lambda_contrast) == (0.001, 0.0001, 0.005)

    def test_yelp_and_ifashion_rows(self):
        from rgtrec.training import load_config
        yelp = load_config(CONFIG_DIR / "yelp.cfg")
        assert (yelp.latdim, yelp.heads, yelp.gt_layers, yelp.gcn_layers) == (64, 2, 2, 3)
        assert (yelp.anchor_set, yelp.lambda_contrast) == (16, 0.005)
        ifashion = load_config(CONFIG_DIR / "ifashion.cfg")
        assert (ifashion.latdim, ifashion.heads, ifashion.gt_layers) == (32, 2, 1)
        assert (ifashion.anchor_set, ifashion.pnn_layers) == (64, 1)
        assert (ifashion.lambda_reg, ifashion.lambda_contrast) == (1e-5, 0.0005)

    def test_all_shipped_configs_validate(self):
        from rgtrec.training import load_config
        for name in ("lastfm", "yelp", "ifashion", "synthetic"):
            load_config(CONFIG_DIR / f"{name}.cfg").validate()
