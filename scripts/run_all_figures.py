#!/usr/bin/env python3
"""Run the full experiment set into out/<experiment>/ directories.

Each experiment runs through the `mcstat` command line (mcstat.cli.main),
which prints its report and its errors. Defaults match the headline
experiment sizes (100 runs of 10^4 iterations); pass --quick for a fast
smoke pass. Exits with the first non-zero exit code of the five runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mcstat.cli import main as mcstat_main

# (output directory, experiment and its own flags)
_RUNS = [
    ("figure1_mu0", ["figure1", "--mu", "0.0"]),
    ("figure1_mu2.5", ["figure1", "--mu", "2.5"]),
    ("figure2", ["figure2"]),
    ("figure3", ["figure3", "--scale", "auto"]),
    ("evidence", ["evidence"]),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent / "out")
    parser.add_argument("--quick", action="store_true",
                        help="10 runs of 1000 iterations instead of 100 x 10000")
    args = parser.parse_args()

    runs, iters = (10, 1000) if args.quick else (100, 10_000)
    first_failure = 0
    for name, argv in _RUNS:
        t0 = time.time()
        code = mcstat_main(argv + ["--seed", str(args.seed), "--runs", str(runs),
                                   "--iters", str(iters), "--out", str(args.out / name)])
        print(f"{name}: exit {code}  [{time.time() - t0:.1f}s]")
        first_failure = first_failure or code
    return first_failure


if __name__ == "__main__":
    raise SystemExit(main())
