#!/usr/bin/env python3
"""mcstat benchmark: four experiment workloads, layer timings and a traced run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ./src. One
process, no threads; the only child processes are the fresh interpreters
that time set-up, started one at a time.

--trace 0 prints the end-to-end metrics: wall_s (median over passes of the
workload's call time), setup_s (median over fresh processes of
`import mcstat` plus the first build of the quadrature oracle) and
peak_rss_mb (peak resident memory of this process). Both times are
rescaled to a reference CPU speed by a probe timed alongside (cpu.py); raw
medians go to standard error. --trace 1 prints the per-layer metrics: warm
per-operation timings at each layer's entry points, then alternating
untraced and traced passes for per-layer self time and call counts, with
the spans written to perfbench/.work/.

Every pass is checked: an operation fails if it raises, if a check on its
output fails, or if its output digest differs from the run's first pass or,
at the default seed, from perfbench/digests.json. The last line of standard
output is one JSON object with keys correct, attempted, failed, metrics.

--workload all runs every workload in turn, each in its own child process,
and ends with one JSON object holding every workload's metrics plus its
failed_frac. See perfbench/README.md for the workloads and the noise notes.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOAD_NAMES = ("iid_envelope", "chain_envelope", "single_chain", "evidence")
SETUP_PROCESSES = 9

# Run in a fresh interpreter: time `import mcstat` (with the CLI module)
# plus the first build of the quadrature oracle, between two CPU probes.
_SETUP_CODE = """\
import time
{probe}
p0 = probe()
t0 = time.perf_counter()
import mcstat, mcstat.cli
mcstat.example_target_norm_const()
t1 = time.perf_counter()
print(t1 - t0, 0.5 * (p0 + probe()))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def measure_setup(chaser) -> tuple[float, float]:
    """Median set-up seconds over fresh interpreters, each started on the
    fastest CPU, rescaled by the probes the child ran and raw; the first
    child, which may write bytecode caches, is not counted."""
    from cpu import REFERENCE_PROBE_S, probe
    code = _SETUP_CODE.format(probe=inspect.getsource(probe))
    rescaled, raw = [], []
    for _ in range(SETUP_PROCESSES + 1):
        chaser.pin()
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                             capture_output=True, text=True, timeout=120, check=True)
        seconds, probe_s = map(float, out.stdout.split())
        raw.append(seconds)
        rescaled.append(seconds * REFERENCE_PROBE_S / probe_s)
    return statistics.median(rescaled[1:]), statistics.median(raw[1:])


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size_name: str) -> dict:
    # imported here: they import mcstat, which main() has just put on the path
    from cpu import CpuChaser
    from layers import layer_timings
    from tracer import LAYERS, Tracer
    from workloads import SIZES, WORKLOADS, Ledger, run_pass
    workload, size = WORKLOADS[name], SIZES[size_name]
    work = WORK / name
    chaser = CpuChaser()

    def timed_pass() -> tuple:
        """One pass, its raw wall time and its wall time rescaled to the
        reference CPU speed."""
        mark = chaser.mark()
        p = run_pass(workload, seed, size, work / "pass", chaser.clock)
        return p, p.wall, p.wall * chaser.speed_factor(mark)

    setup = None if trace else measure_setup(chaser)
    # Warm caches and lazy imports on a small pass that is neither timed nor counted.
    run_pass(workload, seed, SIZES["tiny"], work / "warm")

    ledger = Ledger(workload, size_name, seed)
    metrics: dict[str, tuple[float, str]] = {}
    raw, rescaled = [], []
    t_start = time.perf_counter()
    if not trace:
        with chaser:
            while True:
                p, wall, wall_ref = timed_pass()
                raw.append(wall)
                rescaled.append(wall_ref)
                ledger.record(p, f"pass {len(raw)}")
                elapsed = time.perf_counter() - t_start
                if len(raw) >= 2 and elapsed + wall > seconds:
                    break
        metrics["wall_s"] = (statistics.median(rescaled), "s")
        metrics["setup_s"] = (setup[0], "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
        print(f"# raw set-up median {setup[1]:.4f} s", file=sys.stderr)
    else:
        tracer = Tracer()
        chaser.on_pause.append(tracer.exclude)
        traced, selfs, calls, attributed = [], [], [], []
        with chaser:
            metrics.update(layer_timings(seed, size_name, size.runs, size.iters, work,
                                         chaser))
            while True:
                p, wall, wall_ref = timed_pass()
                raw.append(wall)
                rescaled.append(wall_ref)
                ledger.record(p, f"untraced pass {len(raw)}")
                with tracer:
                    p, wall, wall_ref = timed_pass()
                traced.append(wall_ref)
                selfs.append(tracer.self_seconds())
                calls.append(tracer.calls())
                attributed.append(sum(selfs[-1].values()) / wall)
                ledger.record(p, f"traced pass {len(traced)}")
                elapsed = time.perf_counter() - t_start
                if elapsed + raw[-1] + wall > seconds:
                    break
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (statistics.fmean(s[layer] for s in selfs), "s")
            metrics[f"{layer}.calls"] = (statistics.fmean(c[layer] for c in calls), "count")
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(rescaled) - 1.0, "ratio")
        metrics["trace.attributed_frac"] = (statistics.fmean(attributed), "ratio")
        metrics["failed_frac"] = (ledger.failed_frac, "ratio")
        out = WORK / f"trace-{name}-{size_name}-seed{seed}.json"
        out.write_text(json.dumps({"workload": name, "seed": seed, "size": size_name,
                                   "environment": environment(),
                                   "untraced_rescaled_s": rescaled, "traced_rescaled_s": traced,
                                   "last_traced_pass": tracer.dump()}, indent=1))
        print(f"# spans written to {out.relative_to(ROOT)}", file=sys.stderr)
    print(f"# {len(raw)} untraced passes, median wall raw {statistics.median(raw):.4f} s, "
          f"rescaled {statistics.median(rescaled):.4f} s", file=sys.stderr)
    print("# env " + json.dumps(environment()))
    print("# digests " + json.dumps(ledger.first, sort_keys=True))
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in its own child process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {out.returncode}")
        res = json.loads(lines[-1])
        for line in lines:
            print(f"{name}: {line}")
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
        combined["metrics"][f"{name}.failed_frac"] = {
            "value": res["failed"] / res["attempted"], "unit": "ratio"}
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("tiny", "bench", "headline"), default="bench",
                        help="bench (default) is what the timed runs use; headline is "
                             "the paper's 100 runs x 10^4 iterations")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")

    if not (SRC / "mcstat" / "__init__.py").is_file():
        print(f"perfbench: the mcstat package is not at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
