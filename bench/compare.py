"""Compare two sets of benchmark results, for example a parent commit and a
change.

    python3 bench/compare.py bench/results/<parent> bench/results/<change>

Each directory holds result files written by bench/run.py.  Runs are paired
by seed (in file order when a seed repeats).  For each workload and metric
it prints both sides' median and quartiles, the share of pairs the change
won (ties count for neither), and a verdict:

  better / worse  the change won (lost) at least 9 of 10 pairs and the
                  medians differ by more than the parent's quartile spread;
  unresolved      otherwise.

End-to-end metrics also show whether the change's median is worse than the
parent's by more than the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

WIN_SHARE = 0.9
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """{(workload, trace): [result record, ...]} in file-name order."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith("-spans.json"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        runs[record["workload"], record["trace"]].append(record)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(parent, change):
    """(parent value index, change value index) pairs, matched by seed."""
    by_seed = defaultdict(list)
    for i, record in enumerate(change):
        by_seed[record["seed"]].append(i)
    pairs = []
    for i, record in enumerate(parent):
        if by_seed[record["seed"]]:
            pairs.append((i, by_seed[record["seed"]].pop(0)))
    return pairs


def verdict(p_vals, c_vals, pairs, lower_is_better):
    sign = 1 if lower_is_better else -1
    wins = sum(1 for i, j in pairs if sign * (c_vals[j] - p_vals[i]) < 0)
    losses = sum(1 for i, j in pairs if sign * (c_vals[j] - p_vals[i]) > 0)
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    resolved = abs(c_med - p_med) > p_q3 - p_q1
    if pairs and resolved and wins >= WIN_SHARE * len(pairs):
        return wins, "better"
    if pairs and resolved and losses >= WIN_SHARE * len(pairs):
        return wins, "worse"
    return wins, "unresolved"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="directory of the parent's result files")
    parser.add_argument("change", help="directory of the change's result files")
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("error: no result files in one of the directories", file=sys.stderr)
        return 2

    for side, runs in (("parent", parent), ("change", change)):
        envs = {(r["env"]["commit"], r["env"]["python"], r["env"]["nproc"]) for rs in runs.values() for r in rs}
        print(f"{side}: " + "; ".join(f"commit {c}, Python {v}, {n} cores" for c, v, n in sorted(envs)))
    print()
    header = f"{'workload':9s} {'metric':34s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'won':>7s}  verdict"
    print(header)
    print("-" * len(header))
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        pairs = pair_up(p_runs, c_runs)
        names = [n for n in metrics if n in p_runs[0]["metrics"] and n in c_runs[0]["metrics"]]
        if not trace:
            names.append("fail_ratio")
        for name in names:
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            spec_m = metrics.get(name, {"better": "lower"})
            wins, word = verdict(p_vals, c_vals, pairs, spec_m["better"] == "lower")
            p_q1, p_med, p_q3 = quartiles(p_vals)
            c_q1, c_med, c_q3 = quartiles(c_vals)
            if "bound" in spec_m:
                worse_by = (c_med - p_med) if spec_m["better"] == "lower" else (p_med - c_med)
                if p_med and worse_by > spec_m["bound"] * abs(p_med):
                    word += f", worse than the {spec_m['bound']:.0%} bound"
            print(
                f"{workload:9s} {name:34s} "
                f"{p_med:12.4g} [{p_q1:9.4g}, {p_q3:9.4g}] "
                f"{c_med:12.4g} [{c_q1:9.4g}, {c_q3:9.4g}] "
                f"{wins:3d}/{len(pairs):<3d}  {word}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
