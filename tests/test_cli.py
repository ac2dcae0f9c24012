import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rgtrec.cli import main
from rgtrec.synthetic import make_block_dataset


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
              "--batch-size", "256", "--determinism"]


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


class TestTrain:
    def test_smoke_run_writes_artifacts(self, prepared, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--data", str(prepared), "--out", str(out)] + TINY_FLAGS)
        assert code == 0
        for name in ("model.ckpt", "train_log.jsonl", "metrics.csv", "config.cfg"):
            assert (out / name).exists(), name
        assert "test recall@20" in capsys.readouterr().out

    def test_invalid_config_key_exits_two(self, prepared, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("latdimm = 4\n")
        code = main(["train", "--data", str(prepared), "--out", str(tmp_path / "r"),
                     "--config", str(cfg)])
        assert code == 2

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

    def test_dump_subgraphs(self, prepared, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--data", str(prepared), "--out", str(out),
                     "--dump-subgraphs"] + TINY_FLAGS)
        assert code == 0
        for kind in ("rationale", "masked", "complement"):
            assert (out / "subgraphs" / f"{kind}.tsv").exists()


class TestEvaluate:
    def test_checkpoint_metrics(self, prepared, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--data", str(prepared), "--out", str(out)] + TINY_FLAGS)
        capsys.readouterr()
        code = main(["evaluate", "--data", str(prepared),
                     "--checkpoint", str(out / "model.ckpt"),
                     "--split", "test"] + TINY_FLAGS[:-1])
        assert code == 0
        output = capsys.readouterr().out
        assert output.startswith("split,K,recall,ndcg")
        assert "test,20," in output

    def test_missing_checkpoint_exits_one(self, prepared, tmp_path):
        code = main(["evaluate", "--data", str(prepared),
                     "--checkpoint", str(tmp_path / "none.ckpt")] + TINY_FLAGS[:-1])
        assert code == 1

    def test_version_one_checkpoint_exits_one_without_traceback(self, prepared,
                                                                v1_checkpoint):
        proc = subprocess.run(
            [sys.executable, "-m", "rgtrec.cli", "evaluate", "--data", str(prepared),
             "--checkpoint", str(v1_checkpoint)] + TINY_FLAGS[:-1],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "error: unsupported checkpoint version 1" in proc.stderr
        assert "Traceback" not in proc.stderr


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


class TestDumpConfig:
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
