"""Calibrate the regression bounds, or compare a parent and a change.

Calibrate (this checkout)::

    python3 bench/compare.py --calibrate                    # 5 x seed 0, seeds 0..9
    python3 bench/compare.py --calibrate --runs 5 --seeds 10 --write

runs each workload untraced ``--runs`` times at ``--seed`` and once on each
of ``--seeds`` consecutive seeds from ``--seed``.  It prints, per
(end-to-end metric, workload), the range of the same-seed runs and the
quartile spread of the cross-seed runs, as shares of their medians.  A
metric's bound is the largest over workloads of: 3%, the same-seed range
(run-to-run noise), and three times the cross-seed quartile spread (so that
a set of runs on other seeds, as a regression gate draws them, stays well
inside the bound).  It is rounded up to a whole percent and capped at 25%;
``setup_s`` takes the largest bound.  ``--write`` stores the bounds in
BENCHMARK.json.  A metric whose same-seed range exceeds 10% is flagged:
give it a longer run or a lower rate, not a wider bound.

Compare two checkouts (each a full tree with ``bench/`` and ``src/``)::

    python3 bench/compare.py --parent ../parent --change . --pairs 10 --seed 100

runs alternating pairs (which side goes first alternates), one seed per
pair, and gives a verdict per (metric, workload): ``better`` when the
change wins at least 9 of 10 pairs and the medians differ by more than the
parent's quartile spread; ``worse`` when the change's median is worse than
the parent's by more than the bound; ``unresolved`` when the parent's own
spread is wider than the bound and the change does not beat every parent
run; otherwise ``same``.  A metric that repeats exactly at a fixed seed
(``recall_at_20``) is judged on its paired differences instead, against
the 3% floor: both runs of a pair share the seed, so every difference is
real.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from metrics import END_TO_END
from run import OUT, ROOT, WORKLOADS

_BOUND_FLOOR, _BOUND_CAP, _FLAG_RANGE = 0.03, 0.25, 0.10
#: Metrics that repeat exactly at a fixed seed: training is seeded (the
#: first-epoch loss is checked bit for bit) and serving recall is exact.
_EXACT_AT_SEED = {"recall_at_20"}


def run_once(checkout: Path, workload: str, seed: int, seconds=None) -> dict:
    command = [sys.executable, str(checkout / "bench" / "run.py"), "--workload",
               workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    child = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if child.returncode not in (0, 1):
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {child.returncode}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {checkout} {workload} seed {seed}: output checks failed",
              file=sys.stderr)
    return result


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _collect(workload: str, seeds: List[int], seconds) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {metric: [] for metric in END_TO_END}
    for seed in seeds:
        result = run_once(ROOT, workload, seed, seconds)
        for metric in END_TO_END:
            values[metric].append(result["metrics"][metric]["value"])
        print(f"{workload} seed {seed} done", file=sys.stderr)
    return values


def _share(value: float, median: float) -> float:
    return value / median if median else 0.0


def calibrate(args) -> int:
    same = [args.seed] * args.runs
    cross = [args.seed + i for i in range(args.seeds)]
    values = {workload: {"same_seed": _collect(workload, same, args.seconds),
                         "cross_seed": _collect(workload, cross, args.seconds)}
              for workload in args.workloads}
    raw = OUT / "calibration.json"
    raw.write_text(json.dumps({"same_seed": same, "cross_seed": cross,
                               "values": values}, indent=1))
    print(f"raw values: {raw}")
    print(f"{'workload':12} {'metric':18} {'median':>12} {'range/med':>9} "
          f"{'seeds iqr/med':>13}")
    bounds = {metric: _BOUND_FLOOR for metric in END_TO_END}
    for workload in args.workloads:
        for metric in END_TO_END:
            repeated = values[workload]["same_seed"][metric]
            median = statistics.median(repeated)
            spread = _share(max(repeated) - min(repeated), median)
            q1, cross_median, q3 = _quartiles(values[workload]["cross_seed"][metric])
            iqr = _share(q3 - q1, cross_median)
            flag = "  <- longer run or lower rate" if spread > _FLAG_RANGE else ""
            print(f"{workload:12} {metric:18} {median:12.6g} {spread:9.3f} "
                  f"{iqr:13.3f}{flag}")
            bounds[metric] = max(bounds[metric], spread, 3 * iqr)
    bounds = {metric: min(_BOUND_CAP, math.ceil(100 * bound - 1e-9) / 100)
              for metric, bound in bounds.items()}
    bounds["setup_s"] = max(bounds.values())
    print("proposed bounds: " + ", ".join(f"{m}={b:.2f}" for m, b in bounds.items()))
    if args.write:
        path = ROOT / "BENCHMARK.json"
        document = json.loads(path.read_text())
        for entry in document["end_to_end"]:
            entry["bound"] = bounds[entry["name"]]
        path.write_text(format_benchmark(document))
        print(f"wrote bounds to {path}")
    return 0


def format_benchmark(document: dict) -> str:
    """BENCHMARK.json with one line per workload and metric entry."""
    lines = ["{"]
    keys = list(document)
    for position, key in enumerate(keys):
        comma = "," if position < len(keys) - 1 else ""
        value = document[key]
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f'  "{key}": [')
            lines.extend(f"    {json.dumps(entry)}{',' if i < len(value) - 1 else ''}"
                         for i, entry in enumerate(value))
            lines.append(f"  ]{comma}")
        else:
            lines.append(f'  "{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def verdict(parent: List[float], change: List[float], better: str, bound: float,
            paired: bool = False) -> str:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p_median, p3 = _quartiles(parent)
    _, c_median, _ = _quartiles(change)
    if paired:
        gain = statistics.median(sign * (c - p) for p, c in zip(parent, change))
        noise, bound = 0.0, _BOUND_FLOOR
    else:
        gain = sign * (c_median - p_median)
        noise = p3 - p1
    if wins >= 0.9 * len(parent) and gain > noise:
        return "better"
    if gain < -bound * abs(p_median):
        return "worse"
    beats_all = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if not paired and p_median and noise / abs(p_median) > bound and not beats_all:
        return "unresolved"
    return "same"


def compare(args) -> int:
    bounds = {entry["name"]: entry["bound"] for entry in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    values = {side: {w: {m: [] for m in END_TO_END} for w in args.workloads}
              for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in args.workloads:
            for side in order:
                result = run_once(sides[side], workload, args.seed + pair, args.seconds)
                for metric in END_TO_END:
                    values[side][workload][metric].append(
                        result["metrics"][metric]["value"])
    print(f"{'workload':12} {'metric':18} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
    worse = False
    for workload in args.workloads:
        for metric, (_, better) in END_TO_END.items():
            parent = values["parent"][workload][metric]
            change = values["change"][workload][metric]
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            p1, pm, p3 = _quartiles(parent)
            c1, cm, c3 = _quartiles(change)
            result = verdict(parent, change, better, bounds[metric],
                             paired=metric in _EXACT_AT_SEED)
            worse |= result == "worse"
            print(f"{workload:12} {metric:18} {pm:12.6g} [{p1:9.4g}, {p3:9.4g}] "
                  f"{cm:12.6g} [{c1:9.4g}, {c3:9.4g}] {wins:3d}/{len(parent):<2d}  {result}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--runs", type=int, default=5,
                        help="calibration: repeated runs at --seed")
    parser.add_argument("--seeds", type=int, default=10,
                        help="calibration: runs on consecutive seeds from --seed")
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    if args.calibrate:
        return calibrate(args)
    if not (args.parent and args.change):
        parser.error("give --calibrate, or both --parent and --change")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
