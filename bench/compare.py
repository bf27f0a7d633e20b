"""Compare two result sets of the benchmark, per workload and end-to-end metric.

    python3 bench/compare.py .bench_results/parent .bench_results/change

Each directory holds the ``*-trace0.json`` files that ``suite.py`` (or
``run.py --keep``) saved.  For every workload and end-to-end metric the
table gives each side's median and quartiles, the fraction of paired runs
(same seed on both sides) the change won, and a verdict:

- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``gain``: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile distance;
- ``unresolved``: the run-to-run spread of either side exceeds the bound,
  unless every change run beats every parent run;
- ``same`` otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from suite import load_config, quartiles, spread


def load_results(directory: str) -> dict:
    """{(workload, seed): metrics} from one result directory."""
    out = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        with open(path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
        env = result["env"]
        out[(env["workload"], env["seed"])] = {k: m["value"] for k, m in result["metrics"].items()}
    return out


def verdict(parent: list[float], change: list[float], wins: float, lower_better: bool, bound: float) -> str:
    sign = 1.0 if lower_better else -1.0
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if sign * (cmed - pmed) > bound * pmed:
        return "worse"
    if wins >= 0.9 and abs(cmed - pmed) > p3 - p1:
        return "gain"
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    return "same"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    config = load_config()
    parent, change = load_results(args.parent), load_results(args.change)

    print(
        f"{'workload':12s} {'metric':12s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s}"
        f" {'won':>6s} {'pairs':>5s} {'bound':>5s}  verdict"
    )
    for workload in [w["name"] for w in config["workloads"]]:
        seeds = sorted(s for w, s in parent if w == workload)
        paired = [s for s in seeds if (workload, s) in change]
        if not seeds or not any(w == workload for w, _ in change):
            print(f"{workload:12s} missing on one side")
            continue
        for metric in config["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            pv = [parent[(workload, s)][name] for s in seeds]
            cv = [m[name] for (w, _), m in sorted(change.items()) if w == workload]
            won = [change[(workload, s)][name] < parent[(workload, s)][name] if lower
                   else change[(workload, s)][name] > parent[(workload, s)][name]
                   for s in paired]
            wins = sum(won) / len(won) if won else 0.0
            pq = "/".join(f"{x:.4g}" for x in quartiles(pv))
            cq = "/".join(f"{x:.4g}" for x in quartiles(cv))
            print(
                f"{workload:12s} {name:12s} {pq:>32s} {cq:>32s} {wins:6.2f} {len(paired):5d}"
                f" {metric['bound']:5.2f}  {verdict(pv, cv, wins, lower, metric['bound'])}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
