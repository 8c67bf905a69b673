#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that
* every workload, traced and untraced, prints exactly the metrics
  BENCHMARK.json names, each with its unit, and fails no operation;
* a corrupted output digest, stored or between passes, shows up as a
  nonzero failed_frac;
* without the package beside it the benchmark exits nonzero and prints no
  result.
Exits 0 when all hold. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import SIZES, WORKLOADS, Ledger, run_pass  # noqa: E402

WORK = HERE / ".work"


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def check_metrics(spec: dict) -> list[str]:
    errors = []
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in WORKLOADS:
        for trace, want in expected.items():
            out = _run(["--workload", name, "--seed", "0", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny"], ROOT)
            tag = f"{name} --trace {trace}"
            if out.returncode != 0:
                errors.append(f"{tag}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                errors.append(f"{tag}: metrics/units {sorted(got.items())} != "
                              f"{sorted(want.items())}")
            if res["failed"] or not res["correct"] or res["attempted"] < 1:
                errors.append(f"{tag}: {res['failed']}/{res['attempted']} operations failed")
    return errors


def check_corruption() -> list[str]:
    errors = []
    workload, size = WORKLOADS["iid_envelope"], SIZES["tiny"]
    out = WORK / "selftest"

    # a stored digest that does not match the outputs
    ledger = Ledger(workload, "tiny", seed=0)
    p = run_pass(workload, 0, size, out)
    ledger.stored = {op: "0" * 64 for op in p.results}
    ledger.record(p, "corrupted stored digest:")
    if not ledger.failed_frac > 0.0:
        errors.append("a corrupted stored digest left failed_frac at 0")

    # a CSV that changes between two passes of one run (seed 1: no stored digests)
    ledger = Ledger(workload, "tiny", seed=1)
    ledger.record(run_pass(workload, 1, size, out), "first pass:")
    p = run_pass(workload, 1, size, out)
    csv_path = p.results["figure1_mu0"].files["envelope.csv"]
    csv_path.write_bytes(csv_path.read_bytes().replace(b"0", b"1", 1))
    ledger.record(p, "corrupted CSV:")
    if not ledger.failed_frac > 0.0:
        errors.append("a CSV corrupted between passes left failed_frac at 0")
    return errors


def check_without_program() -> list[str]:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = _run(["--workload", "iid_envelope", "--seed", "0", "--seconds", "1",
                "--trace", "0"], bare)
    shutil.rmtree(bare)
    if out.returncode == 0 or out.stdout.strip():
        return [f"without src/ the benchmark exited {out.returncode} "
                f"and printed {out.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_metrics(spec) + check_corruption() + check_without_program()
    for e in errors:
        print(f"selftest: {e}", file=sys.stderr)
    print("selftest: ok" if not errors else f"selftest: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
