"""Command-line entry points for batch experiments.

Subcommands
-----------
prepare      split a raw interaction file and write the data manifests
train        train a model on a prepared directory
evaluate     score a checkpoint on the val/test split
ablate       train component and loss-removal variants across seeds
grid         exhaustive grid search over config keys
dump-config  print the fully resolved configuration

Exit codes: 0 success, 1 runtime/data error, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import logging
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import (DataFormatError, TEST, VAL, build_graph, load_interactions,
                   load_prepared, save_prepared, split)
from .evaluation import evaluate, write_metrics_csv, write_metric_series_csv
from .sampling import dump_subgraph_tsv
from .training import (ConfigError, TrainConfig, checkpoint_config, draw_subgraphs,
                       dump_config, fit, init_pair, load_checkpoint_into, load_config,
                       predict_embeddings, rationale_score_table)

log = logging.getLogger(__name__)

COMPONENT_VARIANTS = {
    # plain transformer -> + topology & residual light attention -> + EMA mean teacher
    "gt": dict(use_topology=False, use_residual=False, self_distill_ema=0.0),
    "rgt_la": dict(use_topology=True, use_residual=True, self_distill_ema=0.0),
    "ad": dict(use_topology=True, use_residual=True, self_distill_ema=0.99),
}

LOSS_VARIANTS = {
    "full": {},
    "no_ranking": dict(lambda_ranking=0.0),
    "no_rec": dict(lambda_rec=0.0),
    # with EMA off the distillation term is a constant 0 whatever lambda_distill
    # is, so this trains the base model unless the base config turns EMA on
    "no_distill": dict(self_distill_ema=0.0),
    "no_reg": dict(lambda_reg=0.0),
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("config overrides")
    for f in dataclasses.fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            group.add_argument(flag, dest=f.name, default=None,
                               action=argparse.BooleanOptionalAction)
        elif f.type == "int":
            group.add_argument(flag, dest=f.name, type=int, default=None)
        elif f.type == "float":
            group.add_argument(flag, dest=f.name, type=float, default=None)
        else:
            group.add_argument(flag, dest=f.name, type=str, default=None)


def _collect_overrides(args: argparse.Namespace) -> dict:
    out = {}
    for f in dataclasses.fields(TrainConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            out[f.name] = value
    return out


def _resolve_config(args: argparse.Namespace) -> TrainConfig:
    return load_config(getattr(args, "config", None), overrides=_collect_overrides(args))


def _parse_ratios(text: str) -> tuple[float, float, float]:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad ratio value in {text!r}: {exc}") from exc
    if len(parts) != 3:
        raise ConfigError(f"expected three comma-separated ratios, got {text!r}")
    if any(r < 0 for r in parts):
        raise ConfigError(f"ratios must be non-negative, got {text!r}")
    if abs(sum(parts) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must sum to 1, got {text!r}")
    return tuple(parts)  # type: ignore[return-value]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rgtrec",
                                     description="graph-transformer recommender experiments")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="split a raw interaction file")
    p.add_argument("--input", required=True, help="raw interaction file")
    p.add_argument("--out", required=True, help="output directory for manifests")
    p.add_argument("--format", default="tsv_pairs", choices=["tsv_pairs", "csv_pairs"])
    p.add_argument("--ratios", default="0.7,0.05,0.25",
                   help="train,val,test fractions (default 0.7,0.05,0.25)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train on a prepared directory")
    p.add_argument("--data", required=True, help="prepared data directory")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--dump-subgraphs", action="store_true",
                   help="write the first epoch's sampled edge lists as TSV")
    _add_config_flags(p)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint with the config it stores")
    p.add_argument("--data", required=True, help="the prepared directory it trained on")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=["val", "test"])
    p.add_argument("--out", default=None, help="metrics CSV path (default: stdout)")

    p = sub.add_parser("ablate", help="component and loss-removal comparison")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--num-seeds", type=int, default=5)
    _add_config_flags(p)

    p = sub.add_parser("grid", help="grid search over config keys")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--param", action="append", default=[], metavar="KEY=V1,V2",
                   help="grid axis; repeatable")
    _add_config_flags(p)

    p = sub.add_parser("dump-config", help="print the resolved configuration")
    p.add_argument("--config", default=None)
    _add_config_flags(p)

    return parser


def cmd_prepare(args) -> int:
    ds = load_interactions(args.input, format=args.format)
    ds = split(ds, ratios=_parse_ratios(args.ratios), seed=args.seed)
    save_prepared(ds, args.out)
    counts = np.bincount(ds.split_assignment, minlength=3)
    print(f"users={ds.num_users} items={ds.num_items} interactions={ds.num_interactions}")
    print(f"train={counts[0]} val={counts[1]} test={counts[2]}")
    print(f"manifests written to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    ds = load_prepared(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.cfg").write_text(dump_config(cfg), encoding="utf-8")

    if args.dump_subgraphs:
        _dump_first_epoch_subgraphs(ds, cfg, out / "subgraphs")

    pair, history = fit(ds, cfg, out_dir=out)
    results = dict(zip(("val", "test"), _evaluate_splits(pair, ds, cfg, VAL, TEST)))
    write_metrics_csv(out / "metrics.csv", results)

    print(f"finished after {len(history)} epochs (best epoch {pair.epoch})")
    if len(results["test"].user_ids):
        for key, value in results["test"].summary().items():
            print(f"test {key} = {value:.4f}")
    else:
        print("test split is empty: no test metrics")
    print(f"checkpoint: {out / 'model.ckpt'}")
    return 0


def _evaluate_splits(pair, ds, cfg: TrainConfig, *splits: int) -> list:
    """The teacher's ranking results on each split, on the graph it trained on."""
    with T.using_dtype(cfg.precision):
        s = predict_embeddings(pair.teacher, pair.teacher.graph, cfg)
    return [evaluate(s, ds, code) for code in splits]


def _dump_first_epoch_subgraphs(ds, cfg, out_dir) -> None:
    graph = build_graph(ds)
    with T.using_dtype(cfg.precision):
        pair = init_pair(graph, cfg)
        probs = rationale_score_table(pair.teacher, graph)
    for sub in draw_subgraphs(probs, cfg, epoch=0):
        dump_subgraph_tsv(sub, graph, Path(out_dir) / f"{sub.kind}.tsv")


def cmd_evaluate(args) -> int:
    cfg = checkpoint_config(args.checkpoint)
    ds = load_prepared(args.data)
    graph = build_graph(ds)
    with T.using_dtype(cfg.precision):
        pair = init_pair(graph, cfg)
        load_checkpoint_into(args.checkpoint, pair)
    (result,) = _evaluate_splits(pair, ds, cfg, VAL if args.split == "val" else TEST)
    if args.out:
        write_metrics_csv(args.out, {args.split: result})
        print(f"metrics written to {args.out}")
    else:
        print("split,K,recall,ndcg")
        for k in result.ks:
            print(f"{args.split},{k},{result.macro('recall', k):.6f},"
                  f"{result.macro('ndcg', k):.6f}")
    return 0


def run_variants(ds, base_cfg: TrainConfig, variants: dict[str, dict], seeds: list[int],
                 group: str, runs: dict) -> list[dict]:
    """One row per variant and seed; ``runs`` maps each ``dump_config`` text
    trained so far to its (val, test) results, so no config trains twice."""
    rows = []
    for name, patch in variants.items():
        for seed in seeds:
            cfg = dataclasses.replace(base_cfg, seed=seed, **patch)
            cfg.validate()
            key = dump_config(cfg)
            if key not in runs:
                pair, _ = fit(ds, cfg)
                runs[key] = _evaluate_splits(pair, ds, cfg, VAL, TEST)
            val, test = runs[key]
            rows.append({
                "group": group, "variant": name, "seed": seed,
                "test_recall@40": f"{test.macro('recall', 40):.6f}",
                "test_ndcg@40": f"{test.macro('ndcg', 40):.6f}",
                "val_recall@40": f"{val.macro('recall', 40):.6f}",
                "val_ndcg@40": f"{val.macro('ndcg', 40):.6f}",
            })
            log.info("variant %s seed %d: test recall@40 %s", name, seed,
                     rows[-1]["test_recall@40"])
    return rows


def cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    if args.num_seeds < 1:
        raise ConfigError(f"--num-seeds must be >= 1, got {args.num_seeds}")
    ds = load_prepared(args.data)
    seeds = [cfg.seed + i for i in range(args.num_seeds)]
    runs: dict = {}
    rows = run_variants(ds, cfg, COMPONENT_VARIANTS, seeds, "components", runs)
    rows += run_variants(ds, cfg, LOSS_VARIANTS, seeds, "losses", runs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_metric_series_csv(out / "ablation.csv", rows)
    print(f"{len(rows)} rows written to {out / 'ablation.csv'}")
    return 0


def cmd_grid(args) -> int:
    cfg = _resolve_config(args)
    axes = []
    for spec_text in args.param:
        if "=" not in spec_text:
            raise ConfigError(f"--param expects KEY=V1,V2,..., got {spec_text!r}")
        key, values = spec_text.split("=", 1)
        key = key.strip()
        values = [v.strip() for v in values.split(",") if v.strip()]
        if not values:
            raise ConfigError(f"--param {key}: no values given")
        axes.append((key, values))
    if not axes:
        raise ConfigError("grid search needs at least one --param axis")
    ds = load_prepared(args.data)

    rows = []
    for combo in itertools.product(*(values for _, values in axes)):
        overrides = {key: value for (key, _), value in zip(axes, combo)}
        run_cfg = load_config(None, overrides={**dataclasses.asdict(cfg), **overrides})
        pair, _ = fit(ds, run_cfg)
        (val,) = _evaluate_splits(pair, ds, run_cfg, VAL)
        rows.append({**overrides,
                     "val_recall@20": f"{val.macro('recall', 20):.6f}",
                     "val_ndcg@20": f"{val.macro('ndcg', 20):.6f}"})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_metric_series_csv(out / "grid.csv", rows)
    print(f"{len(rows)} combinations written to {out / 'grid.csv'}")
    return 0


def cmd_dump_config(args) -> int:
    sys.stdout.write(dump_config(_resolve_config(args)))
    return 0


_COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "grid": cmd_grid,
    "dump-config": cmd_dump_config,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
