#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload over alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W [--pairs 10]

Pair k (seed k, for k = 1..pairs) runs
`python3 perfbench/run.py --workload W --seed k --trace 0` once in each
tree, at perfbench's own run length, one process at a time; odd pairs run
the parent first and even pairs the change, so a drift in host speed
favours neither side. Each run's last
line of standard output is its JSON result. For every end-to-end metric in
BENCHMARK.json the script prints each side's median and quartiles, the
number of pairs the change won, the change in the median and the parent's
interquartile range; then each side's failed operations; then one verdict
per metric:

* gain: the change is better in at least 9/10 of the pairs and its median
  is better than the parent's by more than the parent's interquartile range;
* unresolved: the parent's interquartile range exceeds the metric's
  BENCHMARK.json bound (relative to its median), unless every change run
  is better than every parent run;
* no regression: the change's median is worse than the parent's by no more
  than the bound;
* regression: anything else.

It exits 1 if any run reports `correct: false` or ends without a JSON
result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _pairs(parent: list[dict | None], change: list[dict | None],
           name: str) -> list[tuple[float, float]]:
    # (parent, change) values of `name` over the pairs where both runs report it
    return [(p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(parent, change)
            if p and c and name in p["metrics"] and name in c["metrics"]]


def summarize(parent: list[dict | None], change: list[dict | None],
              end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Report lines for paired results, and whether every run was correct.

    parent[k] and change[k] are pair k's parsed JSON results (None for a run
    that printed none); `end_to_end` is BENCHMARK.json's list of metrics,
    each with a name, unit and `better` direction. A pair counts towards a
    metric only if both of its runs report it.
    """
    lines = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = _pairs(parent, change, name)
        if not pairs:
            lines.append(f"{name}: no pair reports it")
            continue
        p_q, c_q = (_quartiles([pair[side] for pair in pairs]) for side in (0, 1))
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"parent {p_q[1]:.4f} [{p_q[0]:.4f}, {p_q[2]:.4f}]  "
            f"change {c_q[1]:.4f} [{c_q[0]:.4f}, {c_q[2]:.4f}]  "
            f"change better in {wins}/{len(pairs)} pairs, "
            f"median {100.0 * (c_q[1] / p_q[1] - 1.0):+.1f}%, "
            f"parent IQR {p_q[2] - p_q[0]:.4f}")
    correct = True
    for side, results in (("parent", parent), ("change", change)):
        done = [r for r in results if r]
        correct &= len(done) == len(results) and all(r["correct"] for r in done)
        lines.append(f"{side}: {sum(r['failed'] for r in done)} of "
                     f"{sum(r['attempted'] for r in done)} operations failed, "
                     f"{sum(not r['correct'] for r in done)} runs not correct, "
                     f"{len(results) - len(done)} runs without a result")
    return lines, correct


def verdicts(parent: list[dict | None], change: list[dict | None],
             end_to_end: list[dict]) -> list[str]:
    """One verdict line per end-to-end metric, by the rules in the module
    docstring; each metric's `bound` is a fraction of the parent's median."""
    lines = []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        pairs = _pairs(parent, change, name)
        if not pairs:
            lines.append(f"{name} verdict: no pair reports it")
            continue
        # Values signed so that lower is better, whichever way the metric goes.
        sign = 1.0 if metric["better"] == "lower" else -1.0
        ps, cs = ([sign * pair[side] for pair in pairs] for side in (0, 1))
        p_q, c_q = _quartiles(ps), _quartiles(cs)
        gain = p_q[1] - c_q[1]
        iqr = p_q[2] - p_q[0]
        wins = sum(c < p for p, c in zip(ps, cs))
        every_run_better = max(cs) < min(ps)
        if 10 * wins >= 9 * len(pairs) and gain > iqr:
            verdict = "gain"
        elif iqr > bound * abs(p_q[1]) and not every_run_better:
            verdict = "unresolved"
        elif -gain <= bound * abs(p_q[1]):
            verdict = "no regression"
        else:
            verdict = "regression"
        lines.append(f"{name} verdict: {verdict}")
    return lines


def _run(tree: Path, workload: str, seed: int) -> dict | None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(f"{tree}: seed {seed} exited with {out.returncode}\n{out.stderr}")
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    results: dict[str, list[dict | None]] = {"parent": [], "change": []}
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            results[side].append(_run(getattr(args, side), args.workload, seed))
        print(f"# pair {seed}/{args.pairs} done", file=sys.stderr)
    lines, correct = summarize(results["parent"], results["change"], end_to_end)
    print(f"{args.workload}: {args.pairs} pairs at seeds 1-{args.pairs}")
    for line in lines + verdicts(results["parent"], results["change"], end_to_end):
        print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
