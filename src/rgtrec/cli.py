"""Command-line entry points for batch experiments.

Subcommands
-----------
prepare      split a raw interaction file and write the data manifests
train        train a model on a prepared directory
evaluate     score a checkpoint on the val/test split
ablate       train component and loss-removal variants across seeds
grid         exhaustive grid search over config keys
dump-config  print the fully resolved configuration

``ablate`` and ``grid`` are each a list of labelled config patches run by
``run_plan``.

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

from .data import (DataFormatError, TEST, VAL, build_graph, load_interactions,
                   load_prepared, save_prepared, split)
from .evaluation import evaluate, write_csv
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
    """One flag per config key; its text is parsed as a config file's, bools included."""
    group = parser.add_argument_group("config overrides")
    for f in dataclasses.fields(TrainConfig):
        group.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None)


def _collect_overrides(args: argparse.Namespace) -> dict:
    out = {}
    for f in dataclasses.fields(TrainConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            out[f.name] = value
    return out


def _resolve_config(args: argparse.Namespace) -> TrainConfig:
    return load_config(getattr(args, "config", None), overrides=_collect_overrides(args))


def _parse_ratios(text: str) -> list[float]:
    """The comma-separated numbers of ``--ratios``; ``split`` checks their values."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad ratio value in {text!r}: {exc}") from exc


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
    ratios = _parse_ratios(args.ratios)
    try:
        ds = split(ds, ratios=ratios, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    write_csv(out / "metrics.csv", _metric_rows(results))

    kept = (f"best epoch {pair.epoch - 1}" if (ds.split_assignment == VAL).any()
            else "no validation split: the last epoch is kept")
    print(f"finished after {len(history)} epochs ({kept})")
    if len(results["test"].user_ids):
        for key, value in results["test"].summary().items():
            print(f"test {key} = {value:.4f}")
    else:
        print("test split is empty: no test metrics")
    print(f"checkpoint: {out / 'model.ckpt'}")
    return 0


def _evaluate_splits(pair, ds, cfg: TrainConfig, *splits: int) -> list:
    """The teacher's ranking results on each split, on the graph it trained on."""
    s = predict_embeddings(pair.teacher, pair.teacher.graph, cfg)
    return [evaluate(s, ds, code) for code in splits]


def _dump_first_epoch_subgraphs(ds, cfg, out_dir) -> None:
    graph = build_graph(ds)
    pair = init_pair(graph, cfg)
    probs = rationale_score_table(pair.teacher, graph)
    for sub in draw_subgraphs(probs, cfg, epoch=0):
        dump_subgraph_tsv(sub, graph, Path(out_dir) / f"{sub.kind}.tsv")


def cmd_evaluate(args) -> int:
    cfg = checkpoint_config(args.checkpoint)
    ds = load_prepared(args.data)
    graph = build_graph(ds)
    pair = init_pair(graph, cfg)
    load_checkpoint_into(args.checkpoint, pair)
    (result,) = _evaluate_splits(pair, ds, cfg, VAL if args.split == "val" else TEST)
    write_csv(args.out or sys.stdout, _metric_rows({args.split: result}))
    if args.out:
        print(f"metrics written to {args.out}")
    return 0


def _metric_rows(results: dict) -> list[dict]:
    """One (split, K, recall, ndcg) row per K of each named split, six decimals."""
    return [{"split": name, "K": k, "recall": f"{result.macro('recall', k):.6f}",
             "ndcg": f"{result.macro('ndcg', k):.6f}"}
            for name, result in results.items() for k in result.ks]


def _columns(k: int, **results) -> dict:
    """Recall and NDCG at ``k`` of each named split, six decimals."""
    return {f"{split}_{metric}@{k}": f"{result.macro(metric, k):.6f}"
            for split, result in results.items() for metric in ("recall", "ndcg")}


def run_plan(base: TrainConfig, patches: list[tuple[dict, dict]], data_dir, out_dir,
             csv_name: str, columns) -> list[dict]:
    """One CSV row per ``(labels, patch)``: the labels, then ``columns(val, test)``
    of ``base`` with the patch applied.  Every row's config is built (and so
    checked), then the data loads, then ``out_dir`` is made, all before the
    first fit; each distinct ``dump_config`` text trains once."""
    plan = [(labels, load_config(None, {**dataclasses.asdict(base), **patch}))
            for labels, patch in patches]
    ds = load_prepared(data_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs: dict[str, list] = {}
    rows = []
    for labels, cfg in plan:
        key = dump_config(cfg)
        if key not in runs:
            pair, _ = fit(ds, cfg)
            runs[key] = _evaluate_splits(pair, ds, cfg, VAL, TEST)
        rows.append({**labels, **columns(*runs[key])})
        log.info("%s", rows[-1])
    write_csv(out / csv_name, rows)
    print(f"{len(rows)} rows written to {out / csv_name}")
    return rows


def cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    if args.num_seeds < 1:
        raise ConfigError(f"--num-seeds must be >= 1, got {args.num_seeds}")
    groups = {"components": COMPONENT_VARIANTS, "losses": LOSS_VARIANTS}
    patches = [({"group": group, "variant": name, "seed": seed}, {**patch, "seed": seed})
               for group, variants in groups.items() for name, patch in variants.items()
               for seed in range(cfg.seed, cfg.seed + args.num_seeds)]
    run_plan(cfg, patches, args.data, args.out, "ablation.csv",
             lambda val, test: _columns(40, test=test, val=val))
    return 0


def cmd_grid(args) -> int:
    cfg = _resolve_config(args)
    axes: dict[str, list[str]] = {}
    for spec_text in args.param:
        if "=" not in spec_text:
            raise ConfigError(f"--param expects KEY=V1,V2,..., got {spec_text!r}")
        key, values = spec_text.split("=", 1)
        key = key.strip()
        if key in axes:
            raise ConfigError(f"--param {key} given more than once; list its values in one")
        if key in _collect_overrides(args):
            raise ConfigError(f"--param {key} is also set by --{key.replace('_', '-')}")
        axes[key] = [v.strip() for v in values.split(",") if v.strip()]
        if not axes[key]:
            raise ConfigError(f"--param {key}: no values given")
    if not axes:
        raise ConfigError("grid search needs at least one --param axis")
    combos = [dict(zip(axes, values)) for values in itertools.product(*axes.values())]
    run_plan(cfg, [(combo, combo) for combo in combos], args.data, args.out, "grid.csv",
             lambda val, test: _columns(20, val=val))
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
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
