"""The four benchmark workloads and the checks on their outputs.

A workload makes its inputs from the workload seed only; the package sees
nothing but the resulting `ExperimentConfig` or call arguments. One pass of
a workload is a fixed list of public-API calls (the operations); each is
timed on its own, and a call that raises is recorded as failed instead of
stopping the pass. Checks and digests run after the pass, outside the
timed calls and outside any trace.

Sizes: `bench` is what the timed runs use, the headline experiments
(100 runs) at a tenth of their iterations, so that one run holds a dozen
passes or more; `headline` is the paper's 100 runs x 10^4 iterations; `tiny` is a
plumbing smoke test and skips the statistical checks, whose bounds are the
acceptance criteria's and assume 100 runs.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import mcstat.harness
import mcstat.mcmc
import mcstat.rng
from mcstat.harness import ExperimentConfig, ExperimentResult
from mcstat.mcmc import CalibrationReport, ChainTrace, RwProposal, batch_means_se
from mcstat.targets import EXAMPLE_TARGET, example_target_moment

DEFAULT_SEED = 0
DIGESTS = Path(__file__).with_name("digests.json")
TARGET_ACCEPT = 0.5


@dataclass(frozen=True)
class Size:
    runs: int           # replications per envelope / evidence experiment
    iters: int          # iterations per replication
    chain_steps: int    # steps of each single long chain
    stat_checks: bool   # apply the acceptance criteria's statistical bounds


SIZES = {
    "tiny": Size(runs=3, iters=400, chain_steps=4_000, stat_checks=False),
    "bench": Size(runs=100, iters=1_000, chain_steps=50_000, stat_checks=True),
    "headline": Size(runs=100, iters=10_000, chain_steps=500_000, stat_checks=True),
}


@dataclass
class Pass:
    """Results, call times and errors of one pass, keyed by operation."""

    clock: Callable[[], float] = time.perf_counter
    results: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def call(self, op: str, fn: Callable, *args):
        t0 = self.clock()
        try:
            result = fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.errors[op] = f"{type(exc).__name__}: {exc}"
            result = None
        self.seconds[op] = self.clock() - t0
        self.results[op] = result
        return result

    def skip(self, op: str, reason: str) -> None:
        self.errors[op] = f"skipped: {reason}"
        self.seconds[op] = 0.0
        self.results[op] = None

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())


def digest(result) -> str:
    """sha256 over every CSV an experiment wrote, or over a chain's arrays."""
    h = hashlib.sha256()
    if isinstance(result, ExperimentResult):
        for path in sorted(p for p in result.files.values() if p.suffix == ".csv"):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    elif isinstance(result, ChainTrace):
        h.update(result.states.tobytes())
        if result.accepted is not None:
            h.update(result.accepted.tobytes())
        h.update(repr((result.burn_in, result.seed_info)).encode())
    elif isinstance(result, CalibrationReport):
        h.update(repr((result.scale, result.measured_rate, result.windows_used)).encode())
    else:
        raise TypeError(f"no digest for {type(result).__name__}")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------

def _config(experiment: str, seed: int, size: Size, out: Path, **extra) -> ExperimentConfig:
    return ExperimentConfig(experiment, seed=seed, runs=size.runs, iters=size.iters,
                            out_dir=out, **extra)


def iid_envelope_calls(p: Pass, seed: int, size: Size, out: Path) -> None:
    # mu is passed as a float: ExperimentConfig.validate rejects the int 0.
    for mu, op in ((0.0, "figure1_mu0"), (2.5, "figure1_mu2.5")):
        p.call(op, mcstat.harness.figure1,
               _config("figure1", seed, size, out / op, mu=mu))


def chain_envelope_calls(p: Pass, seed: int, size: Size, out: Path) -> None:
    p.call("figure2", mcstat.harness.figure2, _config("figure2", seed, size, out / "figure2"))
    p.call("figure3", mcstat.harness.figure3,
           _config("figure3", seed, size, out / "figure3", scale="auto",
                   target_accept=TARGET_ACCEPT))


def single_chain_calls(p: Pass, seed: int, size: Size, out: Path) -> None:
    steps = size.chain_steps
    burn = steps // 10

    def stream(k: int):
        return mcstat.rng.derive_substream(mcstat.rng.rng_new(seed), k)

    report = p.call("calibrate", lambda: mcstat.mcmc.calibrate_scale_report(
        EXAMPLE_TARGET, TARGET_ACCEPT, 0.0, stream(0)))
    if report is None:
        p.skip("mh_chain", "calibration failed")
    else:
        p.call("mh_chain", lambda: mcstat.mcmc.run_mh_chain(
            EXAMPLE_TARGET, RwProposal(report.scale), 0.0, steps, burn, stream(1)))
    p.call("gibbs_chain", lambda: mcstat.mcmc.run_gibbs_chain(0.0, steps, burn, stream(2)))


def evidence_calls(p: Pass, seed: int, size: Size, out: Path) -> None:
    p.call("evidence", mcstat.harness.evidence, _config("evidence", seed, size, out / "evidence"))


# ---------------------------------------------------------------------------
# Checks: each returns {operation: [problem, ...]} for operations that ran
# ---------------------------------------------------------------------------

def _envelope_problems(res: ExperimentResult) -> list[str]:
    s = res.summary
    problems = []
    if not np.all(np.isfinite(s.per_run_traces)):
        problems.append("non-finite running mean")
    if not (np.all(s.band_lo <= s.q05) and np.all(s.q05 <= s.q95)
            and np.all(s.q95 <= s.band_hi)):
        problems.append("envelope bands out of order")
    return problems


def iid_envelope_checks(r: dict, size: Size) -> dict[str, list[str]]:
    out = {op: _envelope_problems(res) for op, res in r.items() if res is not None}
    res = r["figure1_mu2.5"]
    if size.stat_checks and res is not None:
        # criterion 6: terminal ensemble mean within 3 ensemble SEs of the
        # quadrature value
        term = res.summary.per_run_traces[:, -1]
        dev = abs(float(term.mean()) - res.info["reference_value"])
        band = 3.0 * float(term.std(ddof=1)) / math.sqrt(term.size)
        if not dev <= band:
            out["figure1_mu2.5"].append(f"criterion 6: |dev| {dev:.3e} > 3 se {band:.3e}")
    return out


def chain_envelope_checks(r: dict, size: Size) -> dict[str, list[str]]:
    out = {op: _envelope_problems(res) for op, res in r.items() if res is not None}
    g, m = r["figure2"], r["figure3"]
    if not size.stat_checks:
        return out
    # criterion 4: both terminal bands bracket 0, the Gibbs band is narrower
    for op, res in (("figure2", g), ("figure3", m)):
        if res is not None and not res.summary.band_lo[-1] <= 0.0 <= res.summary.band_hi[-1]:
            out[op].append("criterion 4: terminal band does not bracket 0")
    if g is not None and m is not None:
        g_w = g.summary.band_hi[-1] - g.summary.band_lo[-1]
        m_w = m.summary.band_hi[-1] - m.summary.band_lo[-1]
        if not g_w < m_w:
            out["figure3"].append(f"criterion 4: Gibbs band {g_w:.4f} not below MH band {m_w:.4f}")
    if m is not None:
        for key in ("calibration_rate", "measured_acceptance"):
            if not abs(m.info[key] - TARGET_ACCEPT) <= 0.05:
                out["figure3"].append(f"{key} {m.info[key]:.4f} not within 0.05 of "
                                      f"{TARGET_ACCEPT}")
    return out


@functools.cache
def _second_moment() -> float:
    return example_target_moment(2)


def single_chain_checks(r: dict, size: Size) -> dict[str, list[str]]:
    out = {op: [] for op, res in r.items() if res is not None}
    for op in ("mh_chain", "gibbs_chain"):
        tr = r[op]
        if tr is None:
            continue
        if tr.states.shape != (size.chain_steps,) or not np.all(np.isfinite(tr.states)):
            out[op].append("chain states have the wrong shape or are not finite")
            continue
        if not size.stat_checks:
            continue
        xs = tr.retained()
        if op == "mh_chain":
            rate = float(np.mean(tr.accepted[tr.burn_in:]))
            if not abs(rate - TARGET_ACCEPT) <= 0.05:
                out[op].append(f"acceptance {rate:.4f} not within 0.05 of {TARGET_ACCEPT}")
        for name, values, truth in (("x^3", xs**3, 0.0), ("x^2", xs**2, _second_moment())):
            dev = abs(float(values.mean()) - truth)
            se = batch_means_se(values)
            if not dev <= 4.0 * se:
                out[op].append(f"mean {name} off by {dev:.3e} > 4 batch-means se {se:.3e}")
    return out


def evidence_checks(r: dict, size: Size) -> dict[str, list[str]]:
    res = r["evidence"]
    if res is None:
        return {}
    problems = []
    with open(res.files["evidence_m0.csv"], newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    errs: dict[str, list[float]] = {"harmonic_mean": [], "bridge": [], "chib": []}
    for row in rows:
        errs[row["estimator"]].append(float(row["error"]))
    if any(len(v) != size.runs or not np.all(np.isfinite(v)) for v in errs.values()):
        problems.append("evidence_m0.csv lacks a finite error per estimator and run")
    elif size.stat_checks:
        # criterion 7, with its 90/100 read as 90% of the runs
        bridge, chib, hm = (np.array(errs[k]) for k in ("bridge", "chib", "harmonic_mean"))
        need = math.ceil(0.9 * size.runs)
        n_bridge = int(np.sum(np.abs(bridge) <= 0.05))
        n_chib = int(np.sum(np.abs(chib) <= 0.1))
        if n_bridge < need:
            problems.append(f"criterion 7: bridge within 0.05 on {n_bridge}/{size.runs}")
        if n_chib < need:
            problems.append(f"criterion 7: Chib within 0.1 on {n_chib}/{size.runs}")
        if not hm.std(ddof=1) > bridge.std(ddof=1):
            problems.append("criterion 7: harmonic-mean spread does not exceed bridge's")
    return {"evidence": problems}


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Callable[[Pass, int, Size, Path], None]
    checks: Callable[[dict, Size], dict[str, list[str]]]


WORKLOADS = {w.name: w for w in (
    Workload("iid_envelope", iid_envelope_calls, iid_envelope_checks),
    Workload("chain_envelope", chain_envelope_calls, chain_envelope_checks),
    Workload("single_chain", single_chain_calls, single_chain_checks),
    Workload("evidence", evidence_calls, evidence_checks),
)}


def run_pass(workload: Workload, seed: int, size: Size, out: Path,
             clock: Callable[[], float] = time.perf_counter) -> Pass:
    p = Pass(clock)
    workload.calls(p, seed, size, out)
    return p


class Ledger:
    """Counts operations and failures across the passes of one run.

    An operation fails if it raised, if a check on its output failed, or if
    its digest differs from the run's first pass or, at the default seed,
    from the digest stored in digests.json for its size.
    """

    def __init__(self, workload: Workload, size_name: str, seed: int):
        self.workload = workload
        self.size = SIZES[size_name]
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}
        stored = json.loads(DIGESTS.read_text()) if seed == DEFAULT_SEED else {}
        self.stored: dict[str, str] = stored.get(size_name, {}).get(workload.name, {})

    def record(self, p: Pass, label: str) -> None:
        """Check and digest every operation of a finished pass."""
        problems = {op: [err] for op, err in p.errors.items()}
        try:
            for op, found in self.workload.checks(p.results, self.size).items():
                problems.setdefault(op, []).extend(found)
        except Exception as exc:  # a check that cannot read the outputs fails them all
            for op in p.results:
                problems.setdefault(op, []).append(f"check raised {type(exc).__name__}: {exc}")
        for op, res in p.results.items():
            msgs = problems.get(op, [])
            if res is not None:
                try:
                    d = digest(res)
                except OSError as exc:
                    msgs.append(f"digest failed: {exc}")
                else:
                    if d != self.first.setdefault(op, d):
                        msgs.append("output digest differs from the run's first pass")
                    if op in self.stored and d != self.stored[op]:
                        msgs.append(f"output digest differs from {DIGESTS.name}")
            self.attempted += 1
            if msgs:
                self.failed += 1
                print(f"{label} {op} FAILED: {'; '.join(msgs)}", file=sys.stderr)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted
