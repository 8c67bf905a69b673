"""Warm per-operation timings at each layer's public entry points.

Every timing is the median over `REPEATS` blocks of the per-call time of a
block of calls, after one warm-up block, rescaled to the reference CPU like
the end-to-end times (see cpu.py). Inputs come from the workload seed
through the package's own streams, and are built outside the timed blocks.
Per-draw timings include the benchmark loop's own ~30-50 ns per call.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path

import numpy as np

from mcstat import estimators, harness, mcmc, rng, svgplot, targets
from mcstat.targets import EXAMPLE_TARGET

from cpu import CpuChaser
from tracer import Tracer

REPEATS = 5

# block lengths for the per-draw timings, per benchmark size
_DRAWS = {"tiny": 500, "bench": 10_000, "headline": 10_000}

_SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def _with_unit(name: str, value: float) -> tuple[float, str]:
    """Timings are collected in seconds and reported in their name's unit."""
    unit = name.rsplit("_", 1)[-1]
    if unit in _SCALE:
        return value * _SCALE[unit], unit
    return value, unit if unit == "ratio" else "count"


def layer_timings(seed: int, size_name: str, runs: int, iters: int, work: Path,
                  chaser: CpuChaser) -> dict:
    """Per-layer metric name -> (value, unit); call inside `with chaser`."""
    n = _DRAWS[size_name]

    def seconds(fn) -> float:
        """Seconds of one call of fn(), rescaled to the reference CPU."""
        mark = chaser.mark()
        t0 = chaser.clock()
        fn()
        return (chaser.clock() - t0) * chaser.speed_factor(mark)

    def per_call(block, calls: int) -> float:
        """Median seconds per call of `block()`, which makes `calls` calls."""
        block()
        return statistics.median(seconds(block) for _ in range(REPEATS)) / calls

    m: dict[str, float] = {}
    root = rng.rng_new(seed)

    # -- rng ------------------------------------------------------------
    s = rng.derive_substream(root, 11)
    f = s.next_u32
    m["rng.next_u32_ns"] = per_call(lambda: [f() for _ in range(n)], n)
    f = s.next_float_open
    m["rng.next_float_open_ns"] = per_call(lambda: [f() for _ in range(n)], n)
    ps = [s.next_float_open() for _ in range(n)]
    ppf = rng.norm_ppf
    m["rng.norm_ppf_ns"] = per_call(lambda: [ppf(p) for p in ps], n)
    normal = rng.sample_normal
    m["rng.sample_normal_ns"] = per_call(lambda: [normal(s, 0.0, 1.0) for _ in range(n)], n)
    # truncation bounds as the slice sampler produces them
    bounds = [mcmc.slice_truncation_bound(u) for u in ps]
    trunc = rng.sample_truncated_normal
    m["rng.sample_truncated_normal_ns"] = per_call(
        lambda: [trunc(s, 0.0, 1.0, -b, b) for b in bounds], n)
    derive = rng.derive_substream
    m["rng.derive_substream_ns"] = per_call(lambda: [derive(root, k) for k in range(n)], n)

    # -- mcmc -----------------------------------------------------------
    report = mcmc.calibrate_scale_report(EXAMPLE_TARGET, 0.5, 0.0,
                                         rng.derive_substream(root, 12))
    m["mcmc.calibrate_ms"] = statistics.median(
        seconds(lambda: mcmc.calibrate_scale_report(EXAMPLE_TARGET, 0.5, 0.0,
                                                    rng.derive_substream(root, 12)))
        for _ in range(3))
    prop = mcmc.RwProposal(report.scale)
    chain_stream = rng.derive_substream(root, 13)
    traces = []

    def mh_block():
        traces.append(mcmc.run_mh_chain(EXAMPLE_TARGET, prop, 0.0, n, 0, chain_stream))

    m["mcmc.mh_step_ns"] = per_call(mh_block, n)
    m["mcmc.accept_ratio"] = float(np.mean([t.acceptance_rate for t in traces]))
    m["mcmc.gibbs_step_ns"] = per_call(
        lambda: mcmc.run_gibbs_chain(0.0, n, 0, chain_stream), n)

    # -- targets --------------------------------------------------------
    xs = [rng.sample_normal(s, 0.0, 1.5) for _ in range(n)]
    logpdf = EXAMPLE_TARGET.logpdf
    m["targets.logpdf_ns"] = per_call(lambda: [logpdf(x) for x in xs], n)
    cubic = targets.cubic_ratio
    m["targets.cubic_ratio_ns"] = per_call(lambda: [cubic(x) for x in xs], n)
    edges = np.linspace(-4.0, 4.0, 51)  # the histogram's bin edges
    m["targets.cdf_many_us"] = per_call(
        lambda: [targets.example_target_cdf_many(edges) for _ in range(20)], 20)
    model = targets.get_model("conj-n01")
    data = np.array([rng.sample_normal(s, 0.5, 1.0) for _ in range(20)])
    pm, pv = targets.posterior_params(model, data)
    post = np.array([rng.sample_normal(s, pm, math.sqrt(pv)) for _ in range(iters)])
    m["targets.log_likelihood_us"] = per_call(
        lambda: [model.log_likelihood(data, post) for _ in range(20)], 20)

    # -- quadrature -----------------------------------------------------
    m["quadrature.reference_ms"] = per_call(
        lambda: targets.gaussian_functional_expectation(2.5), 1)
    with Tracer() as tracer:
        targets.gaussian_functional_expectation(2.5)
    m["quadrature.evals"] = tracer.quadrature_evals

    # -- estimators: one replication of the evidence experiment per repeat
    cases = []
    for k in range(REPEATS):
        rs = rng.derive_substream(root, 100 + k)
        post_k = np.array([rng.sample_normal(rs, pm, math.sqrt(pv)) for _ in range(iters)])
        fm, fs = float(np.mean(post_k)), float(np.std(post_k, ddof=1))
        prop_k = np.array([rng.sample_normal(rs, fm, fs) for _ in range(iters)])
        cases.append((post_k, prop_k, fm, fs))

    def bridge(case):
        post_k, prop_k, fm, fs = case
        return estimators.bridge_log_evidence(
            post_k, prop_k, lambda th: model.log_posterior_unnorm(data, th),
            lambda th: (-0.5 * ((np.asarray(th) - fm) / fs) ** 2
                        - math.log(fs) - 0.5 * math.log(2.0 * math.pi)))

    bridge(cases[0])
    results = []
    m["estimators.bridge_ms"] = statistics.median(
        seconds(lambda: results.append(bridge(case))) for case in cases)
    m["estimators.bridge_iterations"] = statistics.median(
        r.diagnostics["iterations"] for r in results)
    m["estimators.bridge_converged_ratio"] = sum(r.converged for r in results) / len(results)
    loglik = model.log_likelihood(data, post)
    m["estimators.harmonic_mean_ms"] = per_call(
        lambda: [estimators.harmonic_mean_log_evidence(loglik) for _ in range(10)], 10)
    m["estimators.chib_ms"] = per_call(
        lambda: [estimators.chib_log_evidence(model, data, post) for _ in range(10)], 10)

    # -- harness: a trivial trace leaves substream derivation and quantiles
    def zeros(_rng, cps):
        return np.zeros(len(cps))

    m["harness.run_envelope_ms"] = per_call(
        lambda: harness.run_envelope(zeros, runs, iters, seed), 1)
    cps = harness.checkpoints(iters)
    traces_arr = np.array([[rng.sample_normal(s, 0.0, 1.0) for _ in cps] for _ in range(runs)])
    summary = harness.EnvelopeSummary(
        np.asarray(cps), traces_arr, traces_arr.min(axis=0), traces_arr.max(axis=0),
        np.quantile(traces_arr, 0.05, axis=0), np.quantile(traces_arr, 0.95, axis=0),
        traces_arr[0].copy())
    out = work / "layers"
    m["harness.export_csv_ms"] = per_call(lambda: harness.export_csv(summary, out), 1)

    # -- svgplot: the figure and histogram an experiment draws ----------------
    out.mkdir(parents=True, exist_ok=True)
    series = [svgplot.Series("single run", summary.single_run),
              svgplot.Series("-3 se", summary.single_run - 0.1, dashed=True),
              svgplot.Series("+3 se", summary.single_run + 0.1, dashed=True)]
    bands = [svgplot.Band("min/max", summary.band_lo, summary.band_hi),
             svgplot.Band("5%-95%", summary.q05, summary.q95)]
    m["svgplot.line_plot_ms"] = per_call(
        lambda: svgplot.svg_line_plot(summary.iters_axis, series, out / "figure.svg", bands,
                                      log_x=True, ref_y=0.0, ref_label="truth"), 1)
    masses = np.diff(targets.example_target_cdf_many(edges))
    grid = np.linspace(-4.0, 4.0, 401)
    dens = targets.example_target_pdf_many(grid)
    m["svgplot.histogram_ms"] = per_call(
        lambda: svgplot.svg_histogram(edges, masses, out / "hist.svg",
                                      overlay_x=grid, overlay_y=dens), 1)
    return {name: _with_unit(name, value) for name, value in m.items()}
