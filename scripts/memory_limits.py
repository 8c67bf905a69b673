#!/usr/bin/env python3
"""Wall time and peak memory of one experiment, one fresh process per run length.

    python3 scripts/memory_limits.py EXPERIMENT --runs R --iters N [N ...] [--seed S]

For each N, in turn, a fresh interpreter imports mcstat from ./src and runs
EXPERIMENT (figure1, figure2, figure3 or evidence, at its default settings
otherwise) with R runs of N iterations, writing into a temporary directory
that is removed afterwards. The child reports the experiment's wall time
(time.perf_counter around the run) and its own peak resident memory
(getrusage's ru_maxrss, which Linux gives in KiB), so each peak includes
the interpreter, numpy and the package. Prints one line per run length
under a header:

    experiment runs iters wall_s peak_rss_mb
    figure1 100 100000 3.770 116.4

Exits 1 if a child fails, after printing its standard error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The child: argv is (src, experiment, seed, runs, iters, out_dir).
_CHILD = """
import json, resource, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from mcstat.harness import ExperimentConfig, run_experiment
exp, seed, runs, iters, out = sys.argv[2], *map(int, sys.argv[3:6]), Path(sys.argv[6])
config = ExperimentConfig(exp, seed=seed, runs=runs, iters=iters, out_dir=out)
t0 = time.perf_counter()
run_experiment(config)
wall = time.perf_counter() - t0
print(json.dumps({"wall_s": wall,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def measure(experiment: str, seed: int, runs: int, iters: int) -> dict:
    """{"wall_s", "peak_rss_mb"} of one run of the experiment in a fresh child."""
    with tempfile.TemporaryDirectory() as out:
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, str(ROOT / "src"), experiment, str(seed),
             str(runs), str(iters), out],
            capture_output=True, text=True)
    if child.returncode != 0:
        raise RuntimeError(f"{experiment} at {runs} x {iters} failed:\n{child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiment", choices=("figure1", "figure2", "figure3", "evidence"))
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--iters", type=int, nargs="+", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print("experiment runs iters wall_s peak_rss_mb", flush=True)
    for iters in args.iters:
        try:
            m = measure(args.experiment, args.seed, args.runs, iters)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(f"{args.experiment} {args.runs} {iters} {m['wall_s']:.3f} "
              f"{m['peak_rss_mb']:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
