"""Experiment harness: convergence envelopes, figure runs, evidence table.

Four experiments share one config type:

* figure1: plain Monte Carlo running means of x^3/(1+x^2+x^4) under
  N(mu, 1), across independent runs, with the quadrature truth as a
  reference line;
* figure2: the same envelope for the slice/Gibbs chain's running mean of
  x^3 on the ratio target, plus a histogram of retained states against the
  normalized density;
* figure3: as figure2 with random-walk MH chains, scale fixed or
  auto-calibrated, acceptance rate reported;
* evidence: harmonic mean / bridge / Chib log-evidence replications on a
  synthetic conjugate-normal dataset with analytic ground truth.

Replication k always consumes substream k of the config seed; datasets and
calibration get reserved substream ids far above any run index. figure1,
evidence and run_envelope replicate through one loop, `_replicate`, which
yields each result; the chain figures hand all their substreams to one
lockstep chain kernel (`run_gibbs_chains`, `run_mh_chains`), which steps
every run at once. Either way a failure names its replication and
substream, in the words of `_run_failed`. The envelope figures fill one
(runs, iters) block and reduce it with one lockstep `running_moments`. An
ExperimentConfig is checked when built. All CSV floats carry 17
significant digits, so outputs are byte-stable and the files round-trip
to full precision. The keys every info.csv shares
(experiment, seed, runs, iters) are written in one place, `_write_info`.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .estimators import (EvidenceEstimate, bridge_log_evidence, chib_log_evidence,
                         harmonic_mean_log_evidence, running_moments)
from .mcmc import (ChainFailure, ChainTrace, RwProposal, calibrate_scale_report,
                   run_gibbs_chains, run_mh_chains)
# Not called here: kept as module attributes because perfbench's tracer
# wraps mcstat.harness.run_gibbs_chain and mcstat.harness.run_mh_chain.
from .mcmc import run_gibbs_chain, run_mh_chain  # noqa: F401
from .rng import RngStream, derive_substream, normal_logpdf, normals, rng_new
# Not called here: kept as a module attribute because perfbench's tracer
# wraps mcstat.harness.sample_normal.
from .rng import sample_normal  # noqa: F401
from .svgplot import Band, Series, svg_histogram, svg_line_plot
from .targets import (EXAMPLE_TARGET, analytic_log_evidence, cubic_ratio,
                      example_target_cdf_many, example_target_pdf_many,
                      gaussian_functional_expectation, get_model,
                      posterior_params)

__all__ = [
    "EXPERIMENTS",
    "ConfigError",
    "ExperimentConfig",
    "EnvelopeSummary",
    "ExperimentResult",
    "checkpoints",
    "run_envelope",
    "figure1",
    "figure2",
    "figure3",
    "evidence",
    "run_experiment",
    "export_csv",
    "export_svg",
]

# Reserved substream indices; run indices occupy 0..runs-1.
_DATA_STREAM = 10**9 + 7
_CAL_STREAM = 10**9 + 9

_HIST_BINS = 50
_HIST_RANGE = (-4.0, 4.0)

# Diagnostic written to the evidence CSVs' ess_or_iterations column.
_EVIDENCE_DIAGNOSTIC = {"harmonic_mean": "ess", "bridge": "iterations",
                        "chib": "n_draws"}


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 1)."""


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings; a bad value raises ConfigError when built."""

    experiment: str
    seed: int = 0
    runs: int = 100
    iters: int = 10_000
    mu: float = 0.0                 # figure1 only
    scale: float | str = "auto"     # figure3 only: numeric or "auto"
    target_accept: float = 0.5
    burn_in: int | None = None      # None -> 10% of iters for MCMC figures
    out_dir: Path = Path(".")

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {EXPERIMENTS}")
        if not (_is_int(self.runs) and self.runs >= 1):
            raise ConfigError(f"runs must be an integer >= 1, got {self.runs!r}")
        if not (_is_int(self.iters) and self.iters >= 100):
            raise ConfigError(f"iters must be an integer >= 100, got {self.iters!r}")
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not (_is_real(self.mu) and math.isfinite(self.mu)):
            raise ConfigError(f"mu must be a finite real, got {self.mu!r}")
        if not (_is_real(self.target_accept) and 0.0 < self.target_accept < 1.0):
            raise ConfigError(f"target_accept must be in (0, 1), got {self.target_accept!r}")
        if self.scale != "auto":
            if not (_is_real(self.scale) and 0.0 < self.scale < math.inf):
                raise ConfigError(
                    f"scale must be a positive finite real or 'auto', got {self.scale!r}")
        if self.burn_in is not None:
            if not (_is_int(self.burn_in) and 0 <= self.burn_in < self.iters):
                raise ConfigError(f"burn_in must be an integer in [0, iters), got {self.burn_in!r}")

    def effective_burn_in(self) -> int:
        return self.iters // 10 if self.burn_in is None else self.burn_in


def checkpoints(iters: int) -> list[int]:
    """Geometric checkpoint grid: 10, then ratio sqrt(2), ending at iters."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if iters <= 10:
        return [iters]
    pts: list[int] = []
    c = 10.0
    while True:
        v = round(c)
        if v >= iters:
            break
        if not pts or v > pts[-1]:
            pts.append(v)
        c *= math.sqrt(2.0)
    pts.append(iters)
    return pts


@dataclass(frozen=True)
class EnvelopeSummary:
    """Running-mean trajectories across runs with min/max and quantile bands."""

    iters_axis: np.ndarray      # checkpoint iteration counts
    per_run_traces: np.ndarray  # shape (runs, checkpoints)
    band_lo: np.ndarray         # pointwise min across runs
    band_hi: np.ndarray         # pointwise max
    q05: np.ndarray
    q95: np.ndarray
    single_run: np.ndarray      # the substream-0 run


def _substreams(seed: int, runs: int) -> Iterator[RngStream]:
    """Substreams 0..runs-1 of `seed`: replication k consumes substream k."""
    root = rng_new(seed)
    return (derive_substream(root, k) for k in range(runs))


def _run_failed(label: str, k: int, exc: Exception) -> RuntimeError:
    """The error that replaces replication k's failure `exc`."""
    return RuntimeError(f"{label} {k} (substream {k}) failed: {exc}")


def _replicate(label: str, seed: int, runs: int,
               fn: Callable[[RngStream], object]) -> Iterator:
    """Yield fn(substream k of `seed`) for k < runs; a failure is re-raised
    as a RuntimeError naming the replication and its substream."""
    for k, rng in enumerate(_substreams(seed, runs)):
        try:
            result = fn(rng)
        except Exception as exc:
            raise _run_failed(label, k, exc) from exc
        yield result


def run_envelope(make_trace: Callable[[RngStream, Sequence[int]], Sequence[float]],
                 runs: int, iters: int, seed: int) -> EnvelopeSummary:
    """Run `runs` independent replications and collect their envelope.

    `make_trace(rng, cps)` must return the running-mean value at each
    checkpoint in cps; replication k receives substream k of `seed`.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    cps = checkpoints(iters)

    def trace(rng: RngStream) -> np.ndarray:
        tr = np.asarray(make_trace(rng, cps), dtype=float)
        if tr.shape != (len(cps),):
            raise ValueError(f"returned {tr.shape}, expected ({len(cps)},)")
        return tr

    return _summarize(cps, np.array(list(_replicate("envelope run", seed, runs, trace))))


def _summarize(cps: Sequence[int], traces: np.ndarray) -> EnvelopeSummary:
    """Envelope bands of per-run running means, shape (runs, len(cps))."""
    return EnvelopeSummary(
        iters_axis=np.asarray(cps, dtype=int),
        per_run_traces=traces,
        band_lo=traces.min(axis=0),
        band_hi=traces.max(axis=0),
        q05=np.quantile(traces, 0.05, axis=0),
        q95=np.quantile(traces, 0.95, axis=0),
        single_run=traces[0].copy(),
    )


@dataclass(frozen=True)
class ExperimentResult:
    summary: EnvelopeSummary | None
    files: dict = field(default_factory=dict)   # name -> Path
    info: dict = field(default_factory=dict)    # reported scalars


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    return path


def export_csv(summary: EnvelopeSummary, out_dir) -> tuple[Path, Path]:
    """Write envelope.csv (per-run traces) and summary.csv (bands); return paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    env_rows = ([k, int(cp), _fmt17(summary.per_run_traces[k, i])]
                for k in range(summary.per_run_traces.shape[0])
                for i, cp in enumerate(summary.iters_axis))
    env_path = _write_csv(out / "envelope.csv",
                          ["run", "checkpoint_iter", "running_mean"], env_rows)
    sum_rows = ([int(cp), _fmt17(summary.band_lo[i]), _fmt17(summary.band_hi[i]),
                 _fmt17(summary.q05[i]), _fmt17(summary.q95[i]),
                 _fmt17(summary.single_run[i])]
                for i, cp in enumerate(summary.iters_axis))
    sum_path = _write_csv(out / "summary.csv",
                          ["checkpoint_iter", "band_lo", "band_hi", "q05", "q95",
                           "single_run"], sum_rows)
    return env_path, sum_path


def export_svg(summary: EnvelopeSummary, path, *, title: str = "",
               y_label: str = "running mean", ref_y: float | None = None,
               ref_label: str = "", extra_series: Sequence[Series] = ()) -> Path:
    """Render the envelope: min/max and quantile bands plus the single run."""
    series = [Series("single run", summary.single_run)] + list(extra_series)
    bands = [Band("min/max band", summary.band_lo, summary.band_hi),
             Band("5%-95% band", summary.q05, summary.q95)]
    return svg_line_plot(summary.iters_axis, series, path, bands,
                         log_x=True, title=title, x_label="iterations",
                         y_label=y_label, ref_y=ref_y, ref_label=ref_label)


def _histogram_block(states: np.ndarray, out: Path, title: str) -> tuple[dict, dict]:
    """Histogram CSV/SVG for pooled chain states against the normalized density."""
    counts, edges = np.histogram(states, bins=_HIST_BINS, range=_HIST_RANGE)
    total = counts.sum()
    if total == 0:
        raise ValueError("no chain states fall inside the histogram range")
    masses = counts / total
    oracle_cdf = example_target_cdf_many(edges)
    oracle_masses = np.diff(oracle_cdf)
    oracle_masses = oracle_masses / oracle_masses.sum()
    tv = 0.5 * float(np.abs(masses - oracle_masses).sum())

    rows = ([_fmt17(edges[i]), _fmt17(edges[i + 1]), _fmt17(masses[i]),
             _fmt17(oracle_masses[i])] for i in range(_HIST_BINS))
    hist_csv = _write_csv(out / "hist.csv",
                          ["bin_lo", "bin_hi", "mass", "oracle_mass"], rows)
    grid = np.linspace(*_HIST_RANGE, 401)
    hist_svg = svg_histogram(edges, masses, out / "hist.svg",
                             overlay_x=grid, overlay_y=example_target_pdf_many(grid),
                             title=title, x_label="x", y_label="density")
    files = {"hist.csv": hist_csv, "hist.svg": hist_svg}
    info = {"tv_distance": tv, "hist_draws": int(total),
            "frac_in_range": float(total / states.size)}
    return files, info


def _write_info(config: ExperimentConfig, out: Path, info: dict) -> Path:
    """Add the keys every experiment shares to `info`; write it as info.csv."""
    info.update({"experiment": config.experiment, "seed": config.seed,
                 "runs": config.runs, "iters": config.iters})
    rows = ([k, _fmt17(v) if isinstance(v, float) else str(v)]
            for k, v in sorted(info.items()))
    return _write_csv(out / "info.csv", ["key", "value"], rows)


def _finish_envelope_experiment(config: ExperimentConfig, summary: EnvelopeSummary,
                                info: dict, *, ref_y: float | None, ref_label: str,
                                title: str, extra_series: Sequence[Series] = (),
                                hist: tuple[np.ndarray, str] | None = None
                                ) -> ExperimentResult:
    """Write the envelope CSVs and figure, the optional histogram of the
    chains' pooled retained states (`hist=(states, title)`), and info.csv."""
    out = Path(config.out_dir)
    env_path, sum_path = export_csv(summary, out)
    svg_path = export_svg(summary, out / "figure.svg", title=title,
                          y_label="running mean", ref_y=ref_y, ref_label=ref_label,
                          extra_series=extra_series)
    files = {"envelope.csv": env_path, "summary.csv": sum_path, "figure.svg": svg_path}
    if hist is not None:
        states, hist_title = hist
        hist_files, hist_info = _histogram_block(states, out, hist_title)
        files.update(hist_files)
        info.update(hist_info)
    files["info.csv"] = _write_info(config, out, info)
    return ExperimentResult(summary, files, info)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def figure1(config: ExperimentConfig) -> ExperimentResult:
    """iid Monte Carlo envelope for E[X^3/(1+X^2+X^4)], X ~ N(mu, 1)."""
    mu = float(config.mu)
    reference = gaussian_functional_expectation(mu)
    cps = checkpoints(config.iters)
    runs = _replicate("envelope run", config.seed, config.runs,
                      lambda rng: cubic_ratio(normals(rng, config.iters, mu, 1.0)))
    values = np.empty((config.runs, config.iters))
    for row, run in zip(values, runs):
        row[:] = run
    est = running_moments(values, cps)
    summary = _summarize(cps, est.mean)

    # +-3 SE overlay around the single (substream-0) run.
    se_lo = summary.single_run - 3.0 * est.se[0]
    se_hi = summary.single_run + 3.0 * est.se[0]

    info = {"mu": mu, "reference_value": reference,
            "terminal_ensemble_mean": float(np.mean(summary.per_run_traces[:, -1])),
            "terminal_ensemble_sd": float(np.std(summary.per_run_traces[:, -1], ddof=1))
            if config.runs > 1 else 0.0}
    return _finish_envelope_experiment(
        config, summary, info, ref_y=reference,
        ref_label=f"truth {reference:.5f}",
        title=f"Monte Carlo running means, N({mu:g}, 1)",
        extra_series=(Series("single run -3 se", se_lo, dashed=True),
                      Series("single run +3 se", se_hi, dashed=True)))


def _chain_envelope(config: ExperimentConfig, run_chains
                    ) -> tuple[EnvelopeSummary, list[ChainTrace], np.ndarray, dict]:
    """Envelope of running means of x^3 over retained chain states.

    `run_chains(iters, burn_in, rngs)` is a lockstep chain kernel; it runs
    every replication at once on the config's substreams. Each run
    executes burn_in + iters chain steps and retains `iters` states, so the
    envelope axis always ends at config.iters. Returns the summary, each
    run's trace, the (runs, iters) retained states, and the info entries
    both chain figures share.
    """
    burn = config.effective_burn_in()
    cps = checkpoints(config.iters)
    try:
        traces = run_chains(burn + config.iters, burn,
                            list(_substreams(config.seed, config.runs)))
    except ChainFailure as exc:
        raise _run_failed("envelope run", exc.row, exc) from exc
    states = traces[0].states.base[:, burn:]  # the kernel's (runs, steps) array
    summary = _summarize(cps, running_moments(states ** 3, cps).mean)
    info = {"burn_in": burn,
            "terminal_band_width": float(summary.band_hi[-1] - summary.band_lo[-1])}
    return summary, traces, states, info


def figure2(config: ExperimentConfig) -> ExperimentResult:
    """Slice/Gibbs envelope of running mean x^3, plus state histogram."""
    summary, _, states, info = _chain_envelope(
        config, lambda iters, burn, rngs: run_gibbs_chains(0.0, iters, burn, rngs))
    return _finish_envelope_experiment(
        config, summary, info, ref_y=0.0, ref_label="truth 0",
        title="Slice/Gibbs running means of x^3",
        hist=(states, "Slice/Gibbs draws vs target density"))


def figure3(config: ExperimentConfig) -> ExperimentResult:
    """Random-walk MH envelope of running mean x^3, scale fixed or calibrated."""
    info: dict = {"target_accept": config.target_accept}
    if config.scale == "auto":
        cal_rng = derive_substream(rng_new(config.seed), _CAL_STREAM)
        report = calibrate_scale_report(EXAMPLE_TARGET, config.target_accept,
                                        0.0, cal_rng)
        scale = report.scale
        info.update(scale_source="calibrated",
                    calibration_rate=report.measured_rate,
                    calibration_windows=report.windows_used)
    else:
        scale = float(config.scale)
        info["scale_source"] = "fixed"
    info["scale"] = scale

    prop = RwProposal(scale)
    summary, traces, states, chain_info = _chain_envelope(
        config,
        lambda iters, burn, rngs: run_mh_chains(EXAMPLE_TARGET, prop, 0.0, iters, burn,
                                                rngs))
    info.update(chain_info)
    rates = [float(np.mean(t.accepted[t.burn_in:])) for t in traces]
    info["measured_acceptance"] = float(np.mean(rates))
    return _finish_envelope_experiment(
        config, summary, info, ref_y=0.0, ref_label="truth 0",
        title=f"RW Metropolis running means of x^3 (scale {scale:.3g})",
        hist=(states, "RW Metropolis draws vs target density"))


def _synthetic_dataset(seed: int, n: int = 20) -> np.ndarray:
    """The evidence experiment's fixed dataset: n draws from N(0.5, 1)."""
    return normals(derive_substream(rng_new(seed), _DATA_STREAM), n, 0.5, 1.0)


def _evidence_replication(rng: RngStream, models, data: np.ndarray,
                          T: int) -> list[list[EvidenceEstimate]]:
    """One replication of `evidence`: [harmonic mean, bridge, Chib] per model."""
    ests = []
    for model in models:
        pm, pv = posterior_params(model, data)
        post = normals(rng, T, pm, math.sqrt(pv))
        hm = harmonic_mean_log_evidence(model.log_likelihood(data, post))
        fit_m = float(np.mean(post))
        fit_s = float(np.std(post, ddof=1))
        prop = normals(rng, T, fit_m, fit_s)
        bridge = bridge_log_evidence(post, prop,
                                     lambda th: model.log_posterior_unnorm(data, th),
                                     lambda th: normal_logpdf(th, fit_m, fit_s))
        ests.append([hm, bridge, chib_log_evidence(model, data, post)])
    return ests


def evidence(config: ExperimentConfig) -> ExperimentResult:
    """Replicated evidence estimates for two conjugate models, with truth.

    Per replication and model: T exact posterior draws feed the harmonic
    mean and Chib; the bridge pairs them with T draws from a normal
    proposal fitted to the posterior sample. Per-model CSVs follow the row
    schema (estimator, seed, T, log_evidence, analytic_truth, error,
    ess_or_iterations, converged); seed is the replication substream index.
    """
    data = _synthetic_dataset(config.seed)
    models = [get_model("conj-n01"), get_model("conj-n14")]
    truths = [analytic_log_evidence(m, data) for m in models]
    T = config.iters
    model_rows: list[list[list]] = [[], []]
    bf_rows: list[list] = []
    errors: dict[str, list[float]] = {name: [] for name in _EVIDENCE_DIAGNOSTIC}
    analytic_bf = truths[0] - truths[1]

    reps = _replicate("evidence replication", config.seed, config.runs,
                      lambda rng: _evidence_replication(rng, models, data, T))
    for r, ests in enumerate(reps):
        for mi, model_ests in enumerate(ests):
            for est in model_ests:
                err = est.log_evidence - truths[mi]
                diag = est.diagnostics[_EVIDENCE_DIAGNOSTIC[est.estimator]]
                model_rows[mi].append(
                    [est.estimator, r, T, _fmt17(est.log_evidence), _fmt17(truths[mi]),
                     _fmt17(err), _fmt17(float(diag)), est.converged])
                if mi == 0:
                    errors[est.estimator].append(err)

        for e0, e1 in zip(*ests):
            log_bf = e0.log_evidence - e1.log_evidence
            bf_rows.append([e0.estimator, r, _fmt17(log_bf), _fmt17(analytic_bf),
                            _fmt17(log_bf - analytic_bf),
                            e0.converged and e1.converged])

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ["estimator", "seed", "T", "log_evidence", "analytic_truth",
              "error", "ess_or_iterations", "converged"]
    files = {
        "evidence_m0.csv": _write_csv(out / "evidence_m0.csv", header, model_rows[0]),
        "evidence_m1.csv": _write_csv(out / "evidence_m1.csv", header, model_rows[1]),
        "bayes_factors.csv": _write_csv(
            out / "bayes_factors.csv",
            ["estimator", "seed", "log_bf", "analytic_log_bf", "error", "converged"],
            bf_rows),
    }
    info = {"n_data": len(data), "data_mean": float(np.mean(data)),
            "model0": models[0].name, "model1": models[1].name,
            "analytic_log_evidence_m0": truths[0],
            "analytic_log_evidence_m1": truths[1],
            "analytic_log_bf": analytic_bf}
    for name, errs in errors.items():
        info[f"{name}_error_sd_m0"] = float(np.std(errs, ddof=1)) if len(errs) > 1 else 0.0
    files["info.csv"] = _write_info(config, out, info)
    return ExperimentResult(None, files, info)


_DISPATCH = {"figure1": figure1, "figure2": figure2, "figure3": figure3,
             "evidence": evidence}
EXPERIMENTS = tuple(_DISPATCH)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the config's experiment."""
    return _DISPATCH[config.experiment](config)
