#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload over alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W [--pairs 10]
        [--size {bench,headline}]

Pair k (seed k, for k = 1..pairs) runs
`python3 perfbench/run.py --workload W --seed k --trace 0 --size S` once in
each tree, at perfbench's own run length, one process at a time; odd pairs run
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

Its last line of standard output is one JSON record of the same numbers,
with the host and each tree's commit (schema in the README). It exits 1
if any run reports `correct: false` or ends without a JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = ("bench", "headline")  # perfbench/run.py --size; a record without "size" is bench


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


def _metric(parent: list[dict | None], change: list[dict | None],
            metric: dict) -> dict | None:
    """Each side's quartiles, the change's wins and the verdict for one
    end-to-end metric, by the rules in the module docstring; None if no
    pair reports it. The `bound` is a fraction of the parent's median."""
    pairs = _pairs(parent, change, metric["name"])
    if not pairs:
        return None
    lower = metric["better"] == "lower"
    ps, cs = ([pair[side] for pair in pairs] for side in (0, 1))
    (p1, pm, p3), (c1, cm, c3) = _quartiles(ps), _quartiles(cs)
    gain = pm - cm if lower else cm - pm
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    every_run_better = max(cs) < min(ps) if lower else min(cs) > max(ps)
    bound = metric["bound"] * abs(pm)
    if 10 * wins >= 9 * len(pairs) and gain > p3 - p1:
        verdict = "gain"
    elif p3 - p1 > bound and not every_run_better:
        verdict = "unresolved"
    elif -gain <= bound:
        verdict = "no regression"
    else:
        verdict = "regression"
    return {"parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "pairs": len(pairs), "wins": wins, "verdict": verdict}


def _failures(results: list[dict | None]) -> dict:
    done = [r for r in results if r]
    return {"failed": sum(r["failed"] for r in done),
            "attempted": sum(r["attempted"] for r in done),
            "not_correct": sum(not r["correct"] for r in done),
            "without_result": len(results) - len(done)}


def summarize(parent: list[dict | None], change: list[dict | None],
              end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Report lines for paired results, and whether every run was correct.

    parent[k] and change[k] are pair k's parsed JSON results (None for a run
    that printed none); `end_to_end` is BENCHMARK.json's list of metrics,
    each with a name, unit, `better` direction and bound. A pair counts
    towards a metric only if both of its runs report it.
    """
    lines = []
    for metric in end_to_end:
        m = _metric(parent, change, metric)
        if m is None:
            lines.append(f"{metric['name']}: no pair reports it")
            continue
        p, c = m["parent"], m["change"]
        lines.append(
            f"{metric['name']} ({metric['unit']}, {metric['better']} is better): "
            f"parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}]  "
            f"change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}]  "
            f"change better in {m['wins']}/{m['pairs']} pairs, "
            f"median {100.0 * (c['median'] / p['median'] - 1.0):+.1f}%, "
            f"parent IQR {p['q3'] - p['q1']:.4f}")
    correct = True
    for side, results in (("parent", parent), ("change", change)):
        f = _failures(results)
        correct &= f["not_correct"] == f["without_result"] == 0
        lines.append(f"{side}: {f['failed']} of {f['attempted']} operations failed, "
                     f"{f['not_correct']} runs not correct, "
                     f"{f['without_result']} runs without a result")
    return lines, correct


def verdicts(parent: list[dict | None], change: list[dict | None],
             end_to_end: list[dict]) -> list[str]:
    """One verdict line per end-to-end metric, by the rules in the module
    docstring."""
    lines = []
    for metric in end_to_end:
        m = _metric(parent, change, metric)
        lines.append(f"{metric['name']} verdict: "
                     f"{'no pair reports it' if m is None else m['verdict']}")
    return lines


def record(workload: str, trees: dict[str, Path], parent: list[dict | None],
           change: list[dict | None], end_to_end: list[dict],
           size: str = "bench") -> dict:
    """The JSON record of one workload's pairs at perfbench size `size`
    (schema in the README): the host, each tree's commit and failures, and
    every end-to-end metric's quartiles, wins and verdict."""
    return {
        "workload": workload,
        "size": size,
        "pairs": len(parent),
        "host": _host(),
        "parent": {**_commit(trees["parent"]), **_failures(parent)},
        "change": {**_commit(trees["change"]), **_failures(change)},
        "metrics": {m["name"]: _metric(parent, change, m) for m in end_to_end},
    }


def _host() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    libc, libc_version = platform.libc_ver()
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "glibc": libc_version if libc == "glibc" else None}


def _commit(tree: Path) -> dict:
    # `git rev-parse HEAD` of the tree (None outside a git checkout), and
    # whether its working files differ from that commit.
    def git(*args):
        out = subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                             text=True, check=False)
        return out.stdout.strip() if out.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    return {"commit": head, "dirty": None if head is None else bool(git("status", "--porcelain"))}


def _run(tree: Path, workload: str, seed: int, size: str) -> dict | None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0", "--size", size]
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
    parser.add_argument("--size", choices=SIZES, default="bench",
                        help="perfbench's workload size (default: bench)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    results: dict[str, list[dict | None]] = {"parent": [], "change": []}
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            results[side].append(_run(getattr(args, side), args.workload, seed, args.size))
        print(f"# pair {seed}/{args.pairs} done", file=sys.stderr)
    lines, correct = summarize(results["parent"], results["change"], end_to_end)
    print(f"{args.workload}: {args.pairs} pairs at seeds 1-{args.pairs}, size {args.size}")
    for line in lines + verdicts(results["parent"], results["change"], end_to_end):
        print(line)
    trees = {"parent": args.parent, "change": args.change}
    print(json.dumps(record(args.workload, trees, results["parent"], results["change"],
                            end_to_end, args.size)))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
