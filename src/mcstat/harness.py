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
calibration get reserved substream ids far above any run index.
run_envelope calls its trace function once per replication. figure1
reads every run's uniforms into one block and inverts the block in shared
slices (`rng._invert_open`). evidence runs its replications in groups of
max(1, 8192 // iters) rows (`_evidence_group`): one draw block per group,
and each estimator's row core (`estimators._harmonic_rows`,
`_bridge_rows`, `_chib_rows`), which checks its own input, once
per model and group. The chain figures are one pass, `_chain_figure`: it
hands all their substreams to one lockstep chain kernel
(`run_gibbs_chains`, `run_mh_chains`), which steps every run at once;
takes the retained states in slabs of whole runs of at most 8192 states
(one run if a run is longer), adding each slab's histogram counts and
then cubing the slab in place; summarises the running means of x^3; and
writes every file. Its working set is the kernel's (runs, burn+iters)
states (with figure3's boolean acceptance record of that shape) and the
one draw buffer of `mcmc._staged_blocks`: the states are held once.
In each case a failure names its replication and substream, in the words
of `_run_failed`. The envelope figures fill one (runs, iters) block and
reduce it with one lockstep `running_moments`; the 5%-95% bands are
`_column_quantile`, np.quantile's linear method bit for bit, which never
imports numpy.ma. An ExperimentConfig is checked when built. `_write_csv`
writes every CSV float cell with 17 significant digits, so outputs are
byte-stable and the files round-trip to full precision; it formats each
line itself, with csv.writer's minimal quoting, and writes the file in one
pass. The keys every info.csv shares (experiment, seed, runs, iters) are
written in one place, `_write_info`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .estimators import (_BRIDGE_MAX_ITER, _BRIDGE_TOL, EvidenceEstimate, _bridge_rows,
                         _chib_rows, _harmonic_rows, running_moments)
# Not called here: kept as module attributes because perfbench's tracer
# wraps mcstat.harness.bridge_log_evidence, harmonic_mean_log_evidence and
# chib_log_evidence.
from .estimators import (bridge_log_evidence, chib_log_evidence,  # noqa: F401
                         harmonic_mean_log_evidence)
from .mcmc import (ChainFailure, RwProposal, calibrate_scale_report, run_gibbs_chains,
                   run_mh_chains)
# Not called here: kept as module attributes because perfbench's tracer
# wraps mcstat.harness.run_gibbs_chain and mcstat.harness.run_mh_chain.
from .mcmc import run_gibbs_chain, run_mh_chain  # noqa: F401
from .rng import (_LOG_SQRT_2PI, NormalDist, RngStream, _count, _finite, _invert_open,
                  _libm, _real, derive_substream, normals, rng_new)
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
# `_chain_figure` counts and cubes the retained states in slabs of whole runs
# of at most this many states, or one run if a run is longer: a slab spreads
# numpy's per-call cost, and its copy and temporaries stay small.
_HIST_SLAB_STATES = 8192

# evidence runs its replications in groups of max(1, this // iters) rows:
# numpy calls span a group's rows, and its arrays stay bounded.
_EVIDENCE_GROUP_DRAWS = 8192

# Diagnostic written to the evidence CSVs' ess_or_iterations column.
_EVIDENCE_DIAGNOSTIC = {"harmonic_mean": "ess", "bridge": "iterations",
                        "chib": "n_draws"}


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 1)."""


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
        try:
            for name, lo, hi in (("runs", 1, None), ("iters", 100, None), ("seed", 0, 2**64)):
                object.__setattr__(self, name, _count(name, getattr(self, name), lo, hi))
            if self.burn_in is not None:
                object.__setattr__(self, "burn_in",
                                   _count("burn_in", self.burn_in, 0, self.iters))
            object.__setattr__(self, "mu", _real("mu", self.mu))
            object.__setattr__(self, "target_accept",
                               _real("target_accept", self.target_accept, 0.0, 1.0))
            if self.scale != "auto":
                object.__setattr__(self, "scale", _real("scale", self.scale, 0.0))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def effective_burn_in(self) -> int:
        return self.iters // 10 if self.burn_in is None else self.burn_in


def checkpoints(iters: int) -> list[int]:
    """Geometric checkpoint grid: 10, then ratio sqrt(2), ending at iters."""
    iters = _count("iters", iters, 1)
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


def run_envelope(make_trace: Callable[[RngStream, Sequence[int]], Sequence[float]],
                 runs: int, iters: int, seed: int) -> EnvelopeSummary:
    """Run `runs` independent replications and collect their envelope.

    `make_trace(rng, cps)` must return the finite running-mean value at
    each checkpoint in cps; replication k receives substream k of `seed`.
    Its failure, a wrong shape or a value that is not finite raises, naming
    the replication and substream.
    """
    runs = _count("runs", runs, 1)
    cps = checkpoints(iters)
    traces = np.empty((runs, len(cps)))
    for k, rng in enumerate(_substreams(seed, runs)):
        try:
            tr = np.asarray(make_trace(rng, cps), dtype=float)
            if tr.shape != (len(cps),):
                raise ValueError(f"returned {tr.shape}, expected ({len(cps)},)")
            _finite("trace", tr)
        except Exception as exc:
            raise _run_failed("envelope run", k, exc) from exc
        traces[k] = tr
    return _summarize(cps, traces)


def _summarize(cps: Sequence[int], traces: np.ndarray) -> EnvelopeSummary:
    """Envelope bands of per-run running means, shape (runs, len(cps))."""
    return EnvelopeSummary(
        iters_axis=np.asarray(cps, dtype=int),
        per_run_traces=traces,
        band_lo=traces.min(axis=0),
        band_hi=traces.max(axis=0),
        q05=_column_quantile(traces, 0.05),
        q95=_column_quantile(traces, 0.95),
        single_run=traces[0].copy(),
    )


def _column_quantile(traces: np.ndarray, q: float) -> np.ndarray:
    """np.quantile(traces, q, axis=0) bit for bit, for finite traces (as
    every envelope's are) and a float q in [0, 1].

    numpy 2.x's "linear" method (Hyndman & Fan's definition 7) by its own
    steps, without the np.unique call whose first use imports numpy.ma. A
    copy is partitioned at numpy's kth, {-1, 0, prev, next}, so a tie of
    -0.0 and 0.0 leaves the zero numpy leaves at each order statistic; the
    neighbours are interpolated from the nearer one, as numpy's _lerp does.
    numpy's step that gives NaN for a column holding NaN is left out.
    """
    n = traces.shape[0]
    virtual = (n - 1) * q
    prev = math.floor(virtual) if virtual < n - 1 else -1
    nxt = prev + 1 if prev >= 0 else -1
    arr = traces.copy()
    arr.partition(sorted({-1, 0, prev, nxt}), axis=0)
    a, b, g = arr[prev], arr[nxt], virtual - prev
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


@dataclass(frozen=True)
class ExperimentResult:
    summary: EnvelopeSummary | None
    files: dict = field(default_factory=dict)   # name -> Path
    info: dict = field(default_factory=dict)    # reported scalars


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

# Characters that make csv.writer's QUOTE_MINIMAL quote a cell; from
# Python 3.13 it quotes a carriage return too.
_CSV_QUOTED = ',"\n\r' if sys.version_info >= (3, 13) else ',"\n'


def _csv_text(v) -> str:
    # A non-float cell as csv.writer writes it: None as "", anything else as
    # str(v), quoted if it holds a delimiter, a quote or a line break.
    s = "" if v is None else str(v)
    if any(c in s for c in _CSV_QUOTED):
        return '"' + s.replace('"', '""') + '"'
    return s


def _csv_line(row) -> str:
    # One record as csv.writer(lineterminator="\n") writes it, float cells
    # with 17 significant digits; a record of one empty cell is written as
    # "" so that it is not a blank line.
    cells = ["%.17g" % v if isinstance(v, float) else str(v) if type(v) is int
             else _csv_text(v) for v in row]
    return ",".join(cells) + "\n" if cells != [""] else '""\n'


def _write_csv(path: Path, header: list[str], rows) -> Path:
    """Write a CSV in one pass of formatted lines: float cells with 17
    significant digits, others as csv.writer (minimal quoting) writes them."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_line(header))
        fh.writelines(map(_csv_line, rows))
    return path


def export_csv(summary: EnvelopeSummary, out_dir) -> tuple[Path, Path]:
    """Write envelope.csv (per-run traces) and summary.csv (bands); return paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cps = summary.iters_axis.tolist()
    env_rows = ([k, cp, v] for k, trace in enumerate(summary.per_run_traces.tolist())
                for cp, v in zip(cps, trace))
    env_path = _write_csv(out / "envelope.csv",
                          ["run", "checkpoint_iter", "running_mean"], env_rows)
    sum_rows = zip(cps, summary.band_lo.tolist(), summary.band_hi.tolist(),
                   summary.q05.tolist(), summary.q95.tolist(), summary.single_run.tolist())
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


def _write_info(config: ExperimentConfig, out: Path, info: dict) -> Path:
    """Add the keys every experiment shares to `info`; write it as info.csv."""
    info.update({"experiment": config.experiment, "seed": config.seed,
                 "runs": config.runs, "iters": config.iters})
    return _write_csv(out / "info.csv", ["key", "value"], sorted(info.items()))


def _finish_envelope_experiment(config: ExperimentConfig, summary: EnvelopeSummary,
                                info: dict, *, ref_y: float | None, ref_label: str,
                                title: str, extra_series: Sequence[Series] = ()
                                ) -> ExperimentResult:
    """Write the envelope CSVs and figure, and info.csv."""
    out = Path(config.out_dir)
    env_path, sum_path = export_csv(summary, out)
    svg_path = export_svg(summary, out / "figure.svg", title=title,
                          y_label="running mean", ref_y=ref_y, ref_label=ref_label,
                          extra_series=extra_series)
    files = {"envelope.csv": env_path, "summary.csv": sum_path, "figure.svg": svg_path,
             "info.csv": _write_info(config, out, info)}
    return ExperimentResult(summary, files, info)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def figure1(config: ExperimentConfig) -> ExperimentResult:
    """iid Monte Carlo envelope for E[X^3/(1+X^2+X^4)], X ~ N(mu, 1).

    Row k of the (runs, iters) block is run k's open floats from substream
    k; the quantile inverts the whole block in shared slices, and each row
    becomes x^3/(1+x^2+x^4) at x = mu + z. Row k is then
    cubic_ratio(normals(substream k, iters, mu, 1.0)) bit for bit, since
    normals computes mu + 1.0 * z and 1.0 * z is z. A non-finite value
    raises, naming its run and index.
    """
    mu = config.mu
    reference = gaussian_functional_expectation(mu)
    cps = checkpoints(config.iters)
    values = np.empty((config.runs, config.iters))
    for row, rng in zip(values, _substreams(config.seed, config.runs)):
        row[:] = rng.floats_open(config.iters)
    _invert_open(values.reshape(-1))
    for k, row in enumerate(values):
        try:
            row[:] = _finite("values", cubic_ratio(mu + row))
        except Exception as exc:
            raise _run_failed("envelope run", k, exc) from exc
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


def _chain_figure(config: ExperimentConfig, info: dict, name: str, title: str,
                  kernel: Callable, *args) -> ExperimentResult:
    """A chain figure in one pass: run the chains, count and cube their
    retained states, summarise the running means of x^3, and write.

    `kernel(*args, steps, burn_in, rngs)` is a lockstep chain kernel,
    `run_gibbs_chains` or `run_mh_chains` with its leading arguments; it
    runs every replication at once on the config's substreams. Each run
    executes burn_in + iters chain steps and retains `iters` states, so the
    envelope axis always ends at config.iters. A `ChainFailure` is re-raised
    naming its run as run_envelope does. An MH trace's acceptance record
    gives `measured_acceptance`: the mean over runs of each run's
    acceptance over its retained steps.

    The retained states are taken in slabs of whole runs of at most
    `_HIST_SLAB_STATES` states (one run if a run is longer): a slab's
    histogram counts are added, then the slab is cubed in place, so the
    (runs, steps) block is held once. An element falls in the same bin in
    a slab as in the whole block, so the summed counts are the block's.
    Writes the envelope (titled `title`), the histogram of the pooled
    retained states against the normalized density (`name` draws) as
    hist.csv and hist.svg, and `info`, with this pass's entries, as info.csv.
    """
    burn = config.effective_burn_in()
    cps = checkpoints(config.iters)
    try:
        trace = kernel(*args, burn + config.iters, burn,
                       list(_substreams(config.seed, config.runs)))
    except ChainFailure as exc:
        raise _run_failed("envelope run", exc.row, exc) from exc
    if trace.accepted is not None:
        rates = np.mean(trace.accepted[:, burn:], axis=1)  # per run
        info["measured_acceptance"] = float(np.mean(rates))
    states = trace.retained()
    counts = np.zeros(_HIST_BINS, dtype=np.intp)
    # Slabs, not whole blocks: np.histogram's temporaries grow with its
    # input, and histogramming whole (100, 1024) blocks read chain_envelope
    # peak_rss_mb 41.5 against 38.7 MB for slabs.
    slab_runs = max(1, _HIST_SLAB_STATES // config.iters)
    for first in range(0, config.runs, slab_runs):
        slab = states[first:first + slab_runs]
        slab_counts, edges = np.histogram(slab, bins=_HIST_BINS, range=_HIST_RANGE)
        counts += slab_counts
        np.power(slab, 3, out=slab)
    summary = _summarize(cps, running_moments(states, cps).mean)

    total = counts.sum()
    if total == 0:
        raise ValueError("no chain states fall inside the histogram range")
    masses = counts / total
    oracle_masses = np.diff(example_target_cdf_many(edges))
    oracle_masses = oracle_masses / oracle_masses.sum()
    info.update(burn_in=burn,
                terminal_band_width=float(summary.band_hi[-1] - summary.band_lo[-1]),
                tv_distance=0.5 * float(np.abs(masses - oracle_masses).sum()),
                hist_draws=int(total), frac_in_range=float(total / states.size))
    result = _finish_envelope_experiment(config, summary, info, ref_y=0.0,
                                         ref_label="truth 0", title=title)
    out = Path(config.out_dir)
    grid = np.linspace(*_HIST_RANGE, 401)
    result.files.update({
        "hist.csv": _write_csv(out / "hist.csv", ["bin_lo", "bin_hi", "mass", "oracle_mass"],
                               zip(edges, edges[1:], masses, oracle_masses)),
        "hist.svg": svg_histogram(edges, masses, out / "hist.svg", overlay_x=grid,
                                  overlay_y=example_target_pdf_many(grid),
                                  title=f"{name} draws vs target density", x_label="x",
                                  y_label="density")})
    return result


def figure2(config: ExperimentConfig) -> ExperimentResult:
    """Slice/Gibbs envelope of running mean x^3, plus state histogram."""
    return _chain_figure(config, {}, "Slice/Gibbs", "Slice/Gibbs running means of x^3",
                         run_gibbs_chains, 0.0)


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
        scale = config.scale
        info["scale_source"] = "fixed"
    info["scale"] = scale
    return _chain_figure(config, info, "RW Metropolis",
                         f"RW Metropolis running means of x^3 (scale {scale:.3g})",
                         run_mh_chains, EXAMPLE_TARGET, RwProposal(scale), 0.0)


def _synthetic_dataset(seed: int, n: int = 20) -> np.ndarray:
    """The evidence experiment's fixed dataset: n draws from N(0.5, 1)."""
    return normals(derive_substream(rng_new(seed), _DATA_STREAM), n, 0.5, 1.0)


def _evidence_group(rngs: Sequence[RngStream], posteriors, data: np.ndarray,
                    T: int) -> list[list[list[EvidenceEstimate]]]:
    """Replications of `evidence` on the streams `rngs`, in lockstep: per
    row, [harmonic mean, bridge, Chib] per posterior.

    Row k reads its whole budget of 2 * T draws per posterior from rngs[k]
    as one block of open floats, in stream order: each posterior's T draws,
    then the T draws of the normal proposal fitted to them. The quantile
    inverts every row's block at once, in shared slices, and a slice of
    row k's quantiles z becomes draws as `mean + sd * z`. That is the
    arithmetic of one `normals(rngs[k], T, mean, sd)` call per slice, so
    the draws are those calls' bit for bit: `normals(rng, 4T, 0.0, 1.0)`
    would give z itself, as 0.0 + 1.0 * z is z unless z = -0.0, and the
    quantile of an open float is never -0.0 (p = 0.5 gives +0.0, and every
    p > 0.5 is the negation of a strictly negative lower quantile).

    Per posterior, the draws, their log likelihood, the fits and the
    bridge's log densities are (rows, T) arrays, and each estimator runs
    once on all rows: the harmonic mean (`estimators._harmonic_rows`), the
    bridge (`_bridge_rows`, with bridge_log_evidence's defaults)
    and Chib (`_chib_rows`, on the fit's mean and variance). The fit's
    variance is taken once; its sd is the square root, as np.std takes it,
    and its log sd comes from libm. The posterior draws' log density is the
    likelihood already computed plus the log prior, which is
    log_posterior_unnorm's sum; the fit's log density is NormalDist.logpdf.
    The lowest row that fails a stage raises ChainFailure with the message
    a one-row group gives: the row cores check their own input, and the
    fit gets NormalDist's checks.
    """
    n = 2 * len(posteriors) * T
    z = np.empty((len(rngs), n))
    for row, rng in zip(z, rngs):
        row[:] = rng.floats_open(n)
    z = _invert_open(z.reshape(-1)).reshape(len(rngs), len(posteriors), 2, T)
    by_model = []
    for (model, pm, pv), (z_post, z_prop) in zip(posteriors, z.transpose(1, 2, 0, 3)):
        post = pm + math.sqrt(pv) * z_post
        ll = model.log_likelihood(data, post)
        harmonic = _harmonic_rows(ll)
        fit_mean, fit_var = np.mean(post, axis=1), np.var(post, axis=1, ddof=1)
        fit_sd = np.sqrt(fit_var)
        for r, (m, sd) in enumerate(zip(fit_mean.tolist(), fit_sd.tolist())):
            try:
                NormalDist(m, sd)
            except ValueError as exc:
                raise ChainFailure(r, exc) from exc
        log_sd = _libm(math.log, fit_sd)[:, None]
        m_col, sd_col = fit_mean[:, None], fit_sd[:, None]
        prop = m_col + sd_col * z_prop

        def fit_logpdf(x: np.ndarray) -> np.ndarray:
            zz = (x - m_col) / sd_col
            return -0.5 * zz * zz - log_sd - _LOG_SQRT_2PI

        # held until the next model's replace them: no heap trim and re-fault between
        post1, prop1 = ll + model.log_prior(post), fit_logpdf(post)
        post2, prop2 = model.log_posterior_unnorm(data, prop), fit_logpdf(prop)
        bridge = _bridge_rows(post1, prop1, post2, prop2, _BRIDGE_TOL, _BRIDGE_MAX_ITER)
        by_model.append((harmonic, bridge,
                         _chib_rows(model, data, fit_mean, fit_var, fit_mean, T)))
    return [[[hm[r], bridge[r], chib[r]] for hm, bridge, chib in by_model]
            for r in range(len(rngs))]


def evidence(config: ExperimentConfig) -> ExperimentResult:
    """Replicated evidence estimates for two conjugate models, with truth.

    Per replication and model: T exact posterior draws feed the harmonic
    mean and Chib; the bridge pairs them with T draws from a normal
    proposal fitted to the posterior sample. Replications run in groups of
    max(1, 8192 // T) rows (`_evidence_group`); a failure names its
    replication and substream. Per-model CSVs follow the row
    schema (estimator, seed, T, log_evidence, analytic_truth, error,
    ess_or_iterations, converged); seed is the replication substream index.
    """
    data = _synthetic_dataset(config.seed)
    models = [get_model("conj-n01"), get_model("conj-n14")]
    truths = [analytic_log_evidence(m, data) for m in models]
    posteriors = [(m, *posterior_params(m, data)) for m in models]
    T = config.iters
    model_rows: list[list[list]] = [[], []]
    bf_rows: list[list] = []
    analytic_bf = truths[0] - truths[1]

    streams = list(_substreams(config.seed, config.runs))
    group = max(1, _EVIDENCE_GROUP_DRAWS // T)
    reps: list[list[list[EvidenceEstimate]]] = []
    for first in range(0, config.runs, group):
        try:
            reps += _evidence_group(streams[first:first + group], posteriors, data, T)
        except ChainFailure as exc:
            raise _run_failed("evidence replication", first + exc.row, exc) from exc
    for r, ests in enumerate(reps):
        for mi, model_ests in enumerate(ests):
            for est in model_ests:
                model_rows[mi].append(
                    [est.estimator, r, T, est.log_evidence, truths[mi],
                     est.log_evidence - truths[mi],
                     est.diagnostics[_EVIDENCE_DIAGNOSTIC[est.estimator]], est.converged])

        for e0, e1 in zip(*ests):
            log_bf = e0.log_evidence - e1.log_evidence
            bf_rows.append([e0.estimator, r, log_bf, analytic_bf, log_bf - analytic_bf,
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
    for name in _EVIDENCE_DIAGNOSTIC:
        errs = [row[5] for row in model_rows[0] if row[0] == name]  # the error column
        info[f"{name}_error_sd_m0"] = float(np.std(errs, ddof=1)) if len(errs) > 1 else 0.0
    files["info.csv"] = _write_info(config, out, info)
    return ExperimentResult(None, files, info)


_DISPATCH = {"figure1": figure1, "figure2": figure2, "figure3": figure3,
             "evidence": evidence}
EXPERIMENTS = tuple(_DISPATCH)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the config's experiment."""
    return _DISPATCH[config.experiment](config)
