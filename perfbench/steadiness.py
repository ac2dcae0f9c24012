"""Run the benchmark in two sets of seeds and say whether its figures are steady.

    python3 perfbench/steadiness.py --seeds 1-10 [--trace-seed 1]
        [--record perfbench/trajectory.json]

Reads ``BENCHMARK.json`` at the repo root for the command, the run length, the
workloads and each end-to-end metric's bound.  Runs are made one at a time (one
process loads the machine), seeds in the outer loop and workloads inside it,
so that drift in the machine's load reaches every workload alike.

For every workload and metric it prints each set's median, quartiles and
spread (interquartile distance as a share of the median), and a verdict:
``within bound`` when both sets' spreads are within the metric's bound and the
two medians differ by no more than the bound, in either direction, otherwise
``unresolved``.  It also checks that each seed gives the
same ``recall20`` and parameter digest in every set, and that every run passed
its output checks.  ``--trace-seed`` adds one traced run per workload, and
``--record`` appends the medians and that per-layer breakdown to a trajectory
file.  Exits 1 when any verdict is unresolved or any check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180
SETS = 2


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {TIMEOUT_S} s"}
    wall = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    out = {"detail": detail, "result": result, "wall_s": wall}
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        out["error"] = f"exit {proc.returncode}, failed {result['failed']}: " \
                       f"{proc.stderr.strip()[-500:]}"
    return out


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "n": len(values)}


def verdicts(spec: dict, sets: list[dict]) -> dict:
    """sets[i][workload][metric] -> list of values, one per seed."""
    out = {}
    for w in spec["workloads"]:
        name = w["name"]
        out[name] = {}
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            stats = [summary(s[name][metric]) for s in sets if s[name][metric]]
            if not stats:
                out[name][metric] = {"verdict": "unresolved", "reason": "no values"}
                continue
            base = stats[0]["median"]
            shifts = [(st["median"] - base) / base for st in stats[1:]]
            spread_ok = all(st["spread"] <= bound for st in stats)
            shift_ok = len(stats) == SETS and all(abs(sh) <= bound for sh in shifts)
            out[name][metric] = {
                "bound": bound, "sets": stats, "shift": shifts,
                "verdict": "within bound" if spread_ok and shift_ok else "unresolved",
            }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--record", type=Path, default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]

    errors, machine, walls = [], None, []
    sets, digests = [], {}
    for index in range(SETS):
        values = {w: {m: [] for m in metrics} for w in names}
        for seed in args.seeds:
            for w in names:
                run = run_once(spec, w, seed, 0)
                walls.append(run.get("wall_s", TIMEOUT_S))
                if "detail" in run:
                    machine = run["detail"]["machine"]
                    key = (w, seed)
                    ident = (run["detail"].get("recall20"), run["detail"].get("digest"))
                    if digests.setdefault(key, ident) != ident:
                        errors.append(f"{w} seed {seed}: recall20/digest {ident} differs "
                                      f"from the first set's {digests[key]}")
                    for m in metrics:
                        values[w][m].append(run["result"]["metrics"][m]["value"])
                if "error" in run:
                    errors.append(f"set {index} {w} seed {seed}: {run['error']}")
                print(f"set {index} seed {seed} {w}: {run.get('wall_s', 0):.1f} s "
                      + " ".join(f"{m}={run['result']['metrics'][m]['value']:.5g}"
                                 for m in metrics if "result" in run),
                      file=sys.stderr, flush=True)
        sets.append(values)

    traced = {}
    if args.trace_seed is not None:
        for w in names:
            run = run_once(spec, w, args.trace_seed, 1)
            if "error" in run:
                errors.append(f"traced {w}: {run['error']}")
            if "result" in run:
                traced[w] = {k: v["value"] for k, v in run["result"]["metrics"].items()}
                ident = (run["detail"].get("recall20"), run["detail"].get("digest"))
                first = digests.get((w, args.trace_seed))
                if first is not None and first != ident:
                    errors.append(f"traced {w}: recall20/digest {ident} differs from "
                                  f"the untraced {first}")

    report = {"machine": machine, "run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "run_wall_s": {"max": max(walls), "mean": statistics.mean(walls)},
              "verdicts": verdicts(spec, sets), "errors": errors, "traced": traced}
    print(json.dumps(report, indent=1))
    unresolved = [(w, m) for w, ms in report["verdicts"].items()
                  for m, v in ms.items() if v["verdict"] != "within bound"]

    if args.record is not None:
        entry = {
            "date": time.strftime("%Y-%m-%d"),
            "machine": machine, "run_seconds": spec["run_seconds"], "seeds": args.seeds,
            "sets": SETS,
            "end_to_end": {w: {m: v.get("sets", []) for m, v in ms.items()}
                           for w, ms in report["verdicts"].items()},
            "verdicts": {w: {m: v["verdict"] for m, v in ms.items()}
                         for w, ms in report["verdicts"].items()},
            "errors": errors,
            "per_layer": {"seed": args.trace_seed, **traced},
        }
        history = json.loads(args.record.read_text()) if args.record.exists() else []
        history.append(entry)
        args.record.write_text(json.dumps(history, indent=1) + "\n")

    for w, m in unresolved:
        print(f"unresolved: {w} {m}", file=sys.stderr)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if unresolved or errors else 0


if __name__ == "__main__":
    sys.exit(main())
