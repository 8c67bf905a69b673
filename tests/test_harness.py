"""Experiment harness: envelopes, exports, the four experiments, the CLI."""

import csv
import hashlib
import importlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mcstat
from mcstat.cli import _OPTIONS
from mcstat.cli import main as cli_main
from mcstat.estimators import (bridge_log_evidence, chib_log_evidence,
                               harmonic_mean_log_evidence, running_moments)
from mcstat.harness import (
    _CAL_STREAM,
    _EVIDENCE_DIAGNOSTIC,
    ConfigError,
    ExperimentConfig,
    checkpoints,
    evidence,
    export_csv,
    export_svg,
    figure1,
    figure2,
    figure3,
    run_envelope,
    run_experiment,
    _chain_figure,
    _column_quantile,
    _csv_line,
    _evidence_group,
    _synthetic_dataset,
    _write_csv,
)
from mcstat.mcmc import (CalibrationError, ChainTrace, RwProposal, calibrate_scale_report,
                         run_gibbs_chain, run_mh_chain)
from mcstat.rng import RngStream, derive_substream, normal_logpdf, normals, rng_new
from mcstat.svgplot import Band, Series, svg_histogram, svg_line_plot
from mcstat.targets import (EXAMPLE_TARGET, ConjugateNormalModel, analytic_log_evidence,
                            cubic_ratio, gaussian_functional_expectation, get_model,
                            posterior_params)

from conftest import NanStream


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoints_geometric_grid():
    cps = checkpoints(10_000)
    assert cps[0] == 10
    assert cps[-1] == 10_000
    assert all(a < b for a, b in zip(cps, cps[1:]))
    # interior ratio close to sqrt(2); terminal point is appended as-is
    ratios = [b / a for a, b in zip(cps[:-2], cps[1:-1])]
    assert all(1.3 <= r <= 1.5 for r in ratios)


def test_checkpoints_small_budgets():
    assert checkpoints(10) == [10]
    assert checkpoints(7) == [7]
    assert checkpoints(100)[-1] == 100
    assert checkpoints(101)[0] == 10


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_accepts_reasonable_values(tmp_path):
    # each config is checked when built
    cfg = ExperimentConfig("figure1", seed=3, runs=5, iters=500, mu=1.0,
                           out_dir=tmp_path)
    assert cfg.effective_burn_in() == 50  # default: iters // 10
    cfg2 = ExperimentConfig("figure2", iters=500, burn_in=7, out_dir=tmp_path)
    assert cfg2.effective_burn_in() == 7
    # integer-valued reals are reals
    ExperimentConfig("figure1", mu=0, out_dir=tmp_path)
    ExperimentConfig("figure3", scale=1, out_dir=tmp_path)


@pytest.mark.parametrize("kwargs", [
    {"experiment": "nope"},
    {"runs": 0},
    {"runs": 2.5},
    {"iters": 99},
    {"seed": -1},
    {"seed": 2 ** 64},
    {"mu": math.inf},
    {"target_accept": 0.0},
    {"target_accept": 1.0},
    {"scale": -1.0},
    {"scale": math.inf},
    {"scale": "fast"},
    {"burn_in": 10_000},
    {"burn_in": -5},
    {"runs": True},
    {"seed": True},
])
def test_config_rejects_bad_values(tmp_path, kwargs):
    base = dict(experiment="figure1", seed=0, runs=2, iters=10_000,
                out_dir=tmp_path)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# run_envelope
# ---------------------------------------------------------------------------

def _iid_trace(rng, cps):
    total = 0.0
    out = []
    nxt = 0
    for n in range(1, cps[-1] + 1):
        total += rng.next_float()
        if n == cps[nxt]:
            out.append(total / n)
            nxt += 1
    return out


def test_envelope_single_run_bands_coincide():
    s = run_envelope(_iid_trace, 1, 1000, seed=1)
    assert np.array_equal(s.band_lo, s.band_hi)
    assert np.array_equal(s.band_lo, s.single_run)


def test_envelope_uses_one_substream_per_run():
    s = run_envelope(_iid_trace, 5, 1000, seed=2)
    for k in range(5):
        direct = _iid_trace(derive_substream(rng_new(2), k),
                            list(s.iters_axis))
        assert np.array_equal(s.per_run_traces[k], np.array(direct))


def test_envelope_band_ordering():
    s = run_envelope(_iid_trace, 20, 1000, seed=3)
    assert np.all(s.band_lo <= s.q05 + 1e-15)
    assert np.all(s.q05 <= s.q95)
    assert np.all(s.q95 <= s.band_hi + 1e-15)


@pytest.mark.parametrize("q", [0.0, 0.05, 0.5, 0.95, 1.0])
def test_column_quantile_is_np_quantile_bit_for_bit(q):
    # For every run count from 1 to 130, on values rounded to one decimal
    # (many ties) with columns of planted -0.0/0.0 ties: equal bits, so each
    # band's sign of zero is numpy's too.
    gen = np.random.default_rng(9)
    for runs in range(1, 131):
        traces = np.round(gen.normal(size=(runs, 16)), 1)
        traces[:, :6] = gen.choice([-0.0, 0.0], size=(runs, 6))
        traces[:, 6:12] = gen.choice([-0.0, 0.0, 0.1, -0.1], size=(runs, 6))
        before = traces.copy()
        got = _column_quantile(traces, q)
        want = np.quantile(traces, q, axis=0)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (runs, got, want)
        assert np.array_equal(traces.view(np.int64), before.view(np.int64))  # not reordered


def test_envelope_experiments_never_import_numpy_ma(tmp_path):
    # np.quantile's first call imports numpy.ma (through np.unique); the
    # bands come from _column_quantile, so a fresh interpreter that runs
    # every envelope experiment never loads it.
    code = ("import sys\n"
            "from mcstat.harness import ExperimentConfig, figure1, figure2, figure3, "
            "run_envelope\n"
            f"out = {str(tmp_path)!r}\n"
            "for name, run, extra in [('figure1', figure1, {}), ('figure2', figure2, {}),\n"
            "                         ('figure3', figure3, {'scale': 'auto'})]:\n"
            "    run(ExperimentConfig(name, runs=3, iters=400, out_dir=f'{out}/{name}',\n"
            "                         **extra))\n"
            "run_envelope(lambda rng, cps: [rng.next_float()] * len(cps), 3, 400, 0)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_envelope_failure_names_the_run():
    def flaky(rng, cps):
        if rng.next_float() > -1:  # every run draws once
            raise ValueError("boom")

    with pytest.raises(RuntimeError, match="run 0"):
        run_envelope(flaky, 3, 100, seed=4)


def test_envelope_rejects_wrong_trace_length():
    with pytest.raises(RuntimeError, match="expected"):
        run_envelope(lambda rng, cps: [0.0], 2, 1000, seed=5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_envelope_rejects_a_trace_value_that_is_not_finite(bad):
    calls = []

    def trace(rng, cps):  # replication k is the k-th call
        out = [rng.next_float()] * len(cps)
        if len(calls) == 2:
            out[3] = bad
        calls.append(rng)
        return out

    with pytest.raises(RuntimeError, match=re.escape(
            f"envelope run 2 (substream 2) failed: trace must be finite, "
            f"got {bad!r} at index 3")):
        run_envelope(trace, 4, 1000, seed=5)


def test_envelope_width_halves_when_iters_quadruple():
    def trace(rng, cps):
        return _iid_trace(rng, cps)

    w1 = run_envelope(trace, 40, 10_000, seed=6)
    w4 = run_envelope(trace, 40, 40_000, seed=6)
    width1 = w1.band_hi[-1] - w1.band_lo[-1]
    width4 = w4.band_hi[-1] - w4.band_lo[-1]
    ratio = width1 / width4
    assert 1.4 <= ratio <= 2.6  # sqrt(4) = 2, with 30% slack


# ---------------------------------------------------------------------------
# figure1
# ---------------------------------------------------------------------------

def test_figure1_centered_truth(tmp_path):
    res = figure1(ExperimentConfig("figure1", seed=60, runs=30, iters=2000,
                                   mu=0.0, out_dir=tmp_path))
    term = res.summary.per_run_traces[:, -1]
    assert abs(term.mean()) <= 3.0 * term.std(ddof=1) / math.sqrt(len(term))
    assert res.info["reference_value"] == pytest.approx(0.0, abs=1e-10)
    for name in ("envelope.csv", "summary.csv", "figure.svg", "info.csv"):
        assert res.files[name].exists()


def test_figure1_offset_truth_brackets_reference(tmp_path):
    res = figure1(ExperimentConfig("figure1", seed=61, runs=30, iters=2000,
                                   mu=2.5, out_dir=tmp_path))
    ref = gaussian_functional_expectation(2.5)
    assert res.info["reference_value"] == pytest.approx(ref, rel=1e-12)
    assert res.summary.band_lo[-1] <= ref <= res.summary.band_hi[-1]


def test_figure1_csv_shapes(tmp_path):
    cfg = ExperimentConfig("figure1", seed=62, runs=4, iters=500,
                           out_dir=tmp_path)
    res = figure1(cfg)
    cps = checkpoints(500)
    env = _read_csv(res.files["envelope.csv"])
    assert len(env) == 4 * len(cps)
    summ = _read_csv(res.files["summary.csv"])
    assert len(summ) == len(cps)
    assert int(summ[-1]["checkpoint_iter"]) == 500


@pytest.mark.parametrize("mu", [1e80, 1e200, -1e103])
def test_figure1_at_a_huge_mu_writes_finite_csvs(tmp_path, mu):
    # x^2 + x^4 overflows at every draw; each value is then 1/x
    res = figure1(ExperimentConfig("figure1", seed=0, runs=3, iters=200, mu=mu,
                                   out_dir=tmp_path))
    for name in ("envelope.csv", "summary.csv"):
        rows = _read_csv(res.files[name])
        values = [float(v) for row in rows for k, v in row.items()
                  if k not in ("run", "checkpoint_iter")]
        assert values and all(math.isfinite(v) for v in values)
    assert res.summary.per_run_traces == pytest.approx(1.0 / mu, rel=1e-12)


def test_figure1_at_a_huge_negative_mu_from_the_cli(tmp_path):
    assert cli_main(["figure1", "--mu=-1e103", "--runs", "3", "--iters", "200",
                     "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "envelope.csv")
    assert all(math.isfinite(float(row["running_mean"])) for row in rows)


# 5 x 1500: slice boundaries of the shared inversion (every 4096 floats)
# fall inside runs 2 and 4; 2 x 5000: each run spans two slices.
@pytest.mark.parametrize("runs, iters", [(5, 1500), (2, 5000)])
@pytest.mark.parametrize("mu", [0.0, 2.5])
def test_figure1_block_rows_are_the_per_run_draws(tmp_path, monkeypatch, runs, iters, mu):
    blocks = []

    def keep_block(values, cps):
        blocks.append(values.copy())
        return running_moments(values, cps)

    monkeypatch.setattr("mcstat.harness.running_moments", keep_block)
    figure1(ExperimentConfig("figure1", seed=7, runs=runs, iters=iters, mu=mu,
                             out_dir=tmp_path))
    [block] = blocks
    assert block.shape == (runs, iters)
    for k, row in enumerate(block):
        want = cubic_ratio(normals(derive_substream(rng_new(7), k), iters, mu, 1.0))
        assert row.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("experiment", ["figure1", "figure2", "figure3", "evidence"])
def test_csvs_roundtrip_full_precision(tmp_path, experiment):
    # only figure3 reads the scale
    cfg = ExperimentConfig(experiment, seed=63, runs=3, iters=300, scale=0.8,
                           out_dir=tmp_path)
    res = run_experiment(cfg)
    # Every number in every CSV has 17 significant digits: a writer that
    # bypassed _write_csv would show, e.g. str(0.1) gives "0.1".
    csvs = [path for name, path in res.files.items() if name.endswith(".csv")]
    assert len(csvs) >= 3
    for path in csvs:
        with open(path, newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert cell == format(value, ".17g"), (path.name, row)
    if experiment == "figure1":
        for row in _read_csv(res.files["envelope.csv"]):
            k = int(row["run"])
            i = list(res.summary.iters_axis).index(int(row["checkpoint_iter"]))
            assert float(row["running_mean"]) == res.summary.per_run_traces[k, i]


# ---------------------------------------------------------------------------
# figure2 / figure3
# ---------------------------------------------------------------------------

def test_figure2_histogram_and_envelope(tmp_path):
    cfg = ExperimentConfig("figure2", seed=64, runs=10, iters=10_000,
                           burn_in=0, out_dir=tmp_path)
    res = figure2(cfg)
    rows = _read_csv(res.files["hist.csv"])
    masses = np.array([float(r["mass"]) for r in rows])
    oracle = np.array([float(r["oracle_mass"]) for r in rows])
    assert abs(masses.sum() - 1.0) <= 1e-12
    assert abs(oracle.sum() - 1.0) <= 1e-12
    # 1e5 retained draws: total variation against the quadrature density
    assert res.info["tv_distance"] <= 0.05
    assert res.summary.band_lo[-1] <= 0.0 <= res.summary.band_hi[-1]
    assert res.files["hist.svg"].exists()


def test_chain_figure_slab_counts_equal_the_whole_block(tmp_path, monkeypatch):
    # Counted over slabs of whole runs (here 8, 8 and 4 runs of 1020
    # states), the counts and edges are those of the whole block, for
    # states on interior bin edges, just below them, at +-4.0 and outside
    # the range too. hist.csv's masses are counts / total to the last bit,
    # so comparing them and hist_draws exactly compares the counts.
    edges = np.linspace(-4.0, 4.0, 51)
    outside = [-4.5, np.nextafter(4.0, 5.0), 7.0, -1e300, math.inf, 0.0]
    values = np.concatenate([edges, np.nextafter(edges, -math.inf), outside])
    block = np.stack([np.resize(np.roll(values, k), 1020) for k in range(20)])
    whole_counts, whole_edges = np.histogram(block, bins=50, range=(-4.0, 4.0))
    # The cubes of -1e300 and inf are not finite, which running_moments
    # rejects; the envelope is not what this test checks, so it is taken
    # over zeros.
    monkeypatch.setattr("mcstat.harness.running_moments",
                        lambda values, cps: running_moments(np.zeros_like(values), cps))
    with np.errstate(over="ignore"):
        res = _stub_chain_figure(block, 0, tmp_path)
    rows = _read_csv(res.files["hist.csv"])
    assert [float(r["bin_lo"]) for r in rows] == whole_edges[:-1].tolist()
    assert [float(r["bin_hi"]) for r in rows] == whole_edges[1:].tolist()
    assert [float(r["mass"]) for r in rows] == (whole_counts / whole_counts.sum()).tolist()
    assert res.info["hist_draws"] == whole_counts.sum()


def _stub_chain_figure(states: np.ndarray, burn: int, out_dir: Path):
    # _chain_figure with a stub kernel that returns a trace of `states`, so
    # no chain runs.
    runs, steps = states.shape
    trace = ChainTrace(states, None, burn, tuple((0, k) for k in range(runs)))
    cfg = ExperimentConfig("figure2", runs=runs, iters=steps - burn, burn_in=burn,
                           out_dir=out_dir)
    return _chain_figure(cfg, {}, "stub", "stub running means",
                         lambda n, b, rngs: trace)


def test_chain_envelope_holds_one_block_of_states(tmp_path):
    # Counting the histogram (one run per slab at 5000 retained states) and
    # cubing the retained states must not copy the (32, 5500) block: the
    # traced peak of the pass, writing included, stays below half of it. A
    # first, small call makes any first-call allocation outside the traced
    # window.
    _stub_chain_figure(np.ones((2, 110)), 10, tmp_path)
    states = 5.0 * np.sin(np.arange(32 * 5500.0)).reshape(32, 5500)
    expected_counts, _ = np.histogram(states[:, 500:], bins=50, range=(-4.0, 4.0))
    expected_means = running_moments(states[:, 500:] ** 3, checkpoints(5000)).mean
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        res = _stub_chain_figure(states, 500, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < states.nbytes / 2, (peak, states.nbytes)
    masses = [float(r["mass"]) for r in _read_csv(res.files["hist.csv"])]
    assert masses == (expected_counts / expected_counts.sum()).tolist()
    assert res.info["hist_draws"] == expected_counts.sum()
    assert np.array_equal(res.summary.per_run_traces, expected_means)


def test_chain_figure_measures_acceptance_on_mh_traces_only(tmp_path, monkeypatch):
    # Stub traces of 4 runs x 120 steps, burn-in 20: the MH one accepts every
    # burn-in step and 25, 50, 75 and 100 of run k's 100 retained steps, so
    # its measured acceptance is 0.625 over the retained steps (and 0.6875
    # over the whole trace).
    states = np.zeros((4, 120))
    accepted = np.ones((4, 120), dtype=bool)
    for k in range(4):
        accepted[k, 20 + 25 * (k + 1):] = False
    monkeypatch.setattr("mcstat.harness.run_gibbs_chains",
                        lambda init, n, b, rngs: ChainTrace(
                            states.copy(), None, b, tuple((0, k) for k in range(4))))
    monkeypatch.setattr("mcstat.harness.run_mh_chains",
                        lambda target, prop, init, n, b, rngs: ChainTrace(
                            states.copy(), accepted, b, tuple((0, k) for k in range(4))))
    cfg = dict(runs=4, iters=100, burn_in=20)
    gibbs = figure2(ExperimentConfig("figure2", out_dir=tmp_path / "g", **cfg))
    assert "measured_acceptance" not in gibbs.info
    mh = figure3(ExperimentConfig("figure3", scale=1.0, out_dir=tmp_path / "m", **cfg))
    assert mh.info["measured_acceptance"] == np.mean(accepted[:, 20:]) == 0.625
    info = {r["key"]: r["value"] for r in _read_csv(mh.files["info.csv"])}
    assert info["measured_acceptance"] == "0.625"


def test_figure3_fixed_scale_reports_acceptance(tmp_path):
    cfg = ExperimentConfig("figure3", seed=65, runs=10, iters=10_000,
                           scale=1.2, out_dir=tmp_path)
    res = figure3(cfg)
    assert res.info["scale_source"] == "fixed"
    assert abs(res.info["measured_acceptance"] - 0.5) <= 0.05
    assert res.info["terminal_band_width"] > 0.0


def test_figure3_auto_scale_calibrates(tmp_path):
    cfg = ExperimentConfig("figure3", seed=66, runs=4, iters=2000,
                           scale="auto", target_accept=0.5, out_dir=tmp_path)
    res = figure3(cfg)
    assert res.info["scale_source"] == "calibrated"
    assert 0.9 <= res.info["scale"] <= 1.5
    assert abs(res.info["calibration_rate"] - 0.5) <= 0.05


def test_gibbs_band_narrower_than_mh_quick(tmp_path):
    common = dict(seed=67, runs=20, iters=4000)
    g = figure2(ExperimentConfig("figure2", out_dir=tmp_path / "g", **common))
    m = figure3(ExperimentConfig("figure3", scale=1.2,
                                 out_dir=tmp_path / "m", **common))
    assert g.info["terminal_band_width"] < m.info["terminal_band_width"]


# ---------------------------------------------------------------------------
# evidence experiment
# ---------------------------------------------------------------------------

def test_synthetic_dataset_matches_goldens(goldens):
    data = _synthetic_dataset(0)
    assert len(data) == 20
    assert float(data[0]) == pytest.approx(goldens["evidence_seed0"]["data_first"],
                                           rel=1e-15)
    assert float(data.sum()) == pytest.approx(goldens["evidence_seed0"]["data_sum"],
                                              rel=1e-15)


def test_evidence_truths_match_goldens(tmp_path, goldens):
    res = evidence(ExperimentConfig("evidence", seed=0, runs=2, iters=500,
                                    out_dir=tmp_path))
    g = goldens["evidence_seed0"]
    assert res.info["analytic_log_evidence_m0"] == pytest.approx(
        g["log_evidence_m0"], rel=1e-13)
    assert res.info["analytic_log_evidence_m1"] == pytest.approx(
        g["log_evidence_m1"], rel=1e-13)
    assert res.info["analytic_log_bf"] == pytest.approx(
        g["log_bayes_factor"], rel=1e-12)


def test_evidence_csv_layout(tmp_path):
    runs = 5
    res = evidence(ExperimentConfig("evidence", seed=0, runs=runs, iters=500,
                                    out_dir=tmp_path))
    for name in ("evidence_m0.csv", "evidence_m1.csv"):
        rows = _read_csv(res.files[name])
        assert len(rows) == 3 * runs
        assert {r["estimator"] for r in rows} == \
               {"harmonic_mean", "bridge", "chib"}
        for r in rows:
            err = float(r["log_evidence"]) - float(r["analytic_truth"])
            assert float(r["error"]) == pytest.approx(err, abs=1e-15)
    bf = _read_csv(res.files["bayes_factors.csv"])
    assert len(bf) == 3 * runs
    # bridge and chib replicate the analytic Bayes factor far better than HM
    bridge_errs = [abs(float(r["error"])) for r in bf if r["estimator"] == "bridge"]
    assert max(bridge_errs) <= 0.1


def test_evidence_is_deterministic(tmp_path):
    cfg = dict(seed=5, runs=3, iters=400)
    a = evidence(ExperimentConfig("evidence", out_dir=tmp_path / "a", **cfg))
    b = evidence(ExperimentConfig("evidence", out_dir=tmp_path / "b", **cfg))
    assert a.files["evidence_m0.csv"].read_bytes() == \
           b.files["evidence_m0.csv"].read_bytes()
    assert a.files["bayes_factors.csv"].read_bytes() == \
           b.files["bayes_factors.csv"].read_bytes()


def _evidence_replication_by_model(rng, posteriors, data, T):
    # The replication as four sequential normals calls, one per block, and
    # the 1-D bridge_log_evidence.
    ests = []
    for model, pm, pv in posteriors:
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


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("T", [100, 1500])  # 4T = 6000 crosses _BLOCK and _PPF_SLICE
def test_evidence_replication_replays_four_normals_calls(seed, T):
    data = _synthetic_dataset(seed)
    posteriors = [(m, *posterior_params(m, data))
                  for m in (get_model("conj-n01"), get_model("conj-n14"))]
    runs = 5
    for k in (0, runs // 2, runs - 1):
        a = derive_substream(rng_new(seed), k)
        b = derive_substream(rng_new(seed), k)
        (got,) = _evidence_group([a], posteriors, data, T)
        want = _evidence_replication_by_model(b, posteriors, data, T)
        assert a.state_bytes() == b.state_bytes()
        for g, w in zip(sum(got, []), sum(want, []), strict=True):
            assert g.estimator == w.estimator
            assert np.float64(g.log_evidence).view(np.uint64) == \
                   np.float64(w.log_evidence).view(np.uint64)
            assert repr(g.diagnostics) == repr(w.diagnostics)


@pytest.mark.parametrize("T", [1000, 1500])  # groups of 8 + 3; 5 + 5 + 1 past _PPF_SLICE
def test_evidence_groups_match_replications_one_at_a_time(tmp_path, T):
    seed, runs = 4, 11
    res = evidence(ExperimentConfig("evidence", seed=seed, runs=runs, iters=T,
                                    out_dir=tmp_path))
    data = _synthetic_dataset(seed)
    posteriors = [(m, *posterior_params(m, data))
                  for m in (get_model("conj-n01"), get_model("conj-n14"))]
    want = [_evidence_replication_by_model(derive_substream(rng_new(seed), k),
                                           posteriors, data, T) for k in range(runs)]
    diagnostic = {"harmonic_mean": "ess", "bridge": "iterations", "chib": "n_draws"}
    for mi, name in enumerate(("evidence_m0.csv", "evidence_m1.csv")):
        rows = _read_csv(res.files[name])
        expected = [(k, est) for k, ests in enumerate(want) for est in ests[mi]]
        assert len(rows) == len(expected) == 3 * runs
        for row, (k, est) in zip(rows, expected):
            assert (row["estimator"], row["seed"], row["T"]) == (est.estimator, str(k), str(T))
            assert np.float64(row["log_evidence"]).view(np.uint64) == \
                   np.float64(est.log_evidence).view(np.uint64)
            diag = est.diagnostics[diagnostic[est.estimator]]
            assert row["ess_or_iterations"] == \
                   (format(diag, ".17g") if isinstance(diag, float) else str(diag))
            assert row["converged"] == str(est.converged)


@pytest.mark.parametrize("method, value, cause", [
    ("log_prior", math.inf, r"log density must be < \+inf, got inf"),
    ("log_likelihood", math.nan, r"log_liks_at_posterior_draws must be finite, got nan"),
    ("log_prior", math.nan, r"log density ratio at post_draws must be a number, got nan"),
], ids=["inf_log_prior", "nan_log_likelihood", "nan_log_prior"])
def test_evidence_failure_in_a_lockstep_stage_names_the_replication(tmp_path, monkeypatch,
                                                                    method, value, cause):
    # `value` from the model's `method` at replication 3's 18th posterior
    # draw for the first model; the group of 5 rows evaluates every row's
    # likelihoods and densities at once, and each row core checks its rows.
    seed, T = 0, 200
    data = _synthetic_dataset(seed)
    pm, pv = posterior_params(get_model("conj-n01"), data)
    draw = normals(derive_substream(rng_new(seed), 3), T, pm, math.sqrt(pv))[17]
    original = getattr(ConjugateNormalModel, method)

    def bad_at_draw(self, *args):
        theta = args[-1]
        return np.where(theta == draw, value, original(self, *args))

    monkeypatch.setattr(ConjugateNormalModel, method, bad_at_draw)
    msg = rf"^evidence replication 3 \(substream 3\) failed: {cause} at index 17$"
    with pytest.raises(RuntimeError, match=msg):
        evidence(ExperimentConfig("evidence", seed=seed, runs=5, iters=T,
                                  out_dir=tmp_path))


def test_figure1_non_finite_value_names_run_and_iteration(tmp_path, capsys,
                                                         monkeypatch):
    # the third call is run 2's block; its fifth value is iteration 5
    calls = []

    def nan_at_run2_iter5(x):
        calls.append(None)
        y = cubic_ratio(x)
        if len(calls) == 3:
            y[4] = math.nan
        return y

    monkeypatch.setattr("mcstat.harness.cubic_ratio", nan_at_run2_iter5)
    msg = r"envelope run 2 \(substream 2\) failed: values must be finite, got nan at index 4$"
    with pytest.raises(RuntimeError, match=msg):
        figure1(ExperimentConfig("figure1", seed=0, runs=4, iters=200,
                                 out_dir=tmp_path / "lib"))
    calls.clear()
    rc = cli_main(["figure1", "--runs", "4", "--iters", "200",
                   "--out", str(tmp_path / "cli")])
    assert rc == 2
    assert re.search(msg, capsys.readouterr().err)


def _assert_run_2_failure_named(exp, cause, tmp_path, capsys, monkeypatch):
    # substream 2 reads NaN floats, so run 2's first step fails in the kernel
    def derive(parent, k):
        rng = derive_substream(parent, k)
        return NanStream(rng.seed, rng.stream_id) if k == 2 else rng

    monkeypatch.setattr("mcstat.harness.derive_substream", derive)
    msg = r"envelope run 2 \(substream 2\) failed: " + cause
    with pytest.raises(RuntimeError, match=msg):
        run_experiment(ExperimentConfig(exp, seed=0, runs=4, iters=200,
                                        out_dir=tmp_path / "lib"))
    rc = cli_main([exp, "--runs", "4", "--iters", "200",
                   "--out", str(tmp_path / "cli")])
    assert rc == 2
    assert re.search(msg, capsys.readouterr().err)


def test_chain_envelope_failure_names_the_run(tmp_path, capsys, monkeypatch):
    _assert_run_2_failure_named("figure2", r"u must be in \(0, 1\], got nan",
                                tmp_path, capsys, monkeypatch)


def test_chain_envelope_failure_names_the_run_figure3(tmp_path, capsys, monkeypatch):
    _assert_run_2_failure_named("figure3", r"p must be in \(0, 1\), got nan at index 0$",
                                tmp_path, capsys, monkeypatch)


class _HalfStream(RngStream):
    """A stream whose open floats are all 0.5; it advances as RngStream does."""

    __slots__ = ()

    def floats_open(self, n):
        super().floats_open(n)
        return np.full(n, 0.5)


def test_evidence_failure_names_the_replication(tmp_path, capsys, monkeypatch):
    # Posterior means of 0.0, and substream 3 reads 0.5 only: its quantiles
    # are 0.0, its posterior draws all 0.0 and their fitted sd is 0, so
    # NormalDist's check fails for replication 3 in the group of rows 0..4.
    def derive(parent, k):
        rng = derive_substream(parent, k)
        return _HalfStream(rng.seed, rng.stream_id) if k == 3 else rng

    monkeypatch.setattr("mcstat.harness.derive_substream", derive)
    monkeypatch.setattr("mcstat.harness.posterior_params",
                        lambda model, data: (0.0, posterior_params(model, data)[1]))
    msg = (r"evidence replication 3 \(substream 3\) failed: "
           r"sd must be a real in \(0, inf\), got 0\.0$")
    with pytest.raises(RuntimeError, match=msg):
        evidence(ExperimentConfig("evidence", seed=0, runs=5, iters=200,
                                  out_dir=tmp_path / "lib"))
    rc = cli_main(["evidence", "--runs", "5", "--iters", "200",
                   "--out", str(tmp_path / "cli")])
    assert rc == 2
    assert re.search(msg, capsys.readouterr().err)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def test_export_svg_is_wellformed_xml(tmp_path):
    s = run_envelope(_iid_trace, 6, 1000, seed=70)
    # title, axis and legend labels with markup characters are escaped
    path = export_svg(s, tmp_path / "plot.svg", title="x < y", y_label="<mean>",
                      ref_y=0.5, ref_label="truth & more",
                      extra_series=(Series("a & b", s.single_run),))
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    body = path.read_text()
    assert body.count("<polyline") >= 1   # the single-run series
    assert body.count("<polygon") >= 2    # min/max and quantile bands
    texts = {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")}
    assert {"x < y", "<mean>", "truth & more", "a & b"} <= texts
    hist = svg_histogram([0.0, 1.0, 2.0], [0.5, 0.5], tmp_path / "hist.svg",
                         overlay_x=[0.0, 2.0], overlay_y=[0.5, 0.5], title="p < 1 & q",
                         x_label="<x>", y_label="f > 0", overlay_label="a & b")
    texts = {t.text for t in ET.parse(hist).getroot().iter("{http://www.w3.org/2000/svg}text")}
    assert {"p < 1 & q", "<x>", "f > 0", "a & b"} <= texts


@pytest.mark.parametrize("series, bands, label, n", [
    ([Series("short", [1.0, 2.0])], (), "series 'short'", 2),
    ([Series("ok", [1.0, 2.0, 3.0, 4.0])], [Band("thin", [0.0] * 4, [2.0])], "band 'thin'", 1),
    ([Series("ok", [1.0, 2.0, 3.0, 4.0])], [Band("long", [0.0] * 5, [2.0] * 4)],
     "band 'long'", 5),
], ids=["series", "band-hi", "band-lo"])
def test_svg_line_plot_rejects_a_series_or_band_of_the_wrong_length(tmp_path, series,
                                                                     bands, label, n):
    # zip would cut the longer side silently and draw a wrong figure
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError, match=f"^{label} has {n} values for 4 x values$"):
        svg_line_plot([1.0, 2.0, 3.0, 4.0], series, path, bands)
    assert not path.exists()


def test_svg_histogram_rejects_an_overlay_of_the_wrong_length(tmp_path):
    path = tmp_path / "hist.svg"
    with pytest.raises(ValueError,
                       match="^overlay 'target density' has 1 values for 4 x values$"):
        svg_histogram([0.0, 1.0, 2.0], [0.5, 0.5], path,
                      overlay_x=[0.0, 0.5, 1.5, 2.0], overlay_y=[0.5])
    assert not path.exists()


# Every label argument of the two plots, each with a value that is written.
_LINE_LABELS = {
    "title": lambda t: {"title": t},
    "x_label": lambda t: {"x_label": t},
    "y_label": lambda t: {"y_label": t},
    "ref_label": lambda t: {"ref_y": 1.5, "ref_label": t},
    "series": lambda t: {"series": [Series(t, [1.0, 2.0])]},
    "band": lambda t: {"bands": [Band(t, [0.0, 1.0], [2.0, 3.0])]},
}
_HIST_LABELS = ["title", "x_label", "y_label", "overlay_label"]


def _line_plot(path, series=(Series("s", [1.0, 2.0]),), **kwargs):
    return svg_line_plot([1.0, 10.0], series, path, **kwargs)


def _histogram(path, **kwargs):
    kwargs = {"overlay_x": [0.0, 2.0], "overlay_y": [0.5, 0.5], **kwargs}
    return svg_histogram([0.0, 1.0, 2.0], [0.5, 0.5], path, **kwargs)


@pytest.mark.parametrize("label", [*(f"line-{k}" for k in _LINE_LABELS),
                                   *(f"hist-{k}" for k in _HIST_LABELS)])
def test_svg_labels_reject_what_xml_forbids_and_keep_tab_and_newline(tmp_path, label):
    # "x\x0cy" or "a\x01b" was written as it is, and XML parsers rejected the file
    kind, arg = label.split("-", 1)
    path = tmp_path / "plot.svg"

    def draw(text):
        if kind == "line":
            return _line_plot(path, **_LINE_LABELS[arg](text))
        return _histogram(path, **{arg: text})

    for bad in ("x\x0cy", "a\x01b", "\x00", "\x0b", "\x1f", "\ud800", "\ufffe", "\uffff"):
        with pytest.raises(ValueError, match=f"^text {re.escape(repr(bad))} holds "):
            draw(bad)
        assert not path.exists()
    texts = {t.text for t in ET.parse(draw("a\tb\nc & <d>")).getroot().iter(
        "{http://www.w3.org/2000/svg}text")}
    assert "a\tb\nc & <d>" in texts


@pytest.mark.parametrize("draw, message", [
    (lambda p: _line_plot(p, series=[Series("a", [1.0, math.nan])]),
     "series 'a' must be finite, got nan at index 1"),
    (lambda p: _line_plot(p, series=[Series("a", [-math.inf, 1.0])]),
     "series 'a' must be finite, got -inf at index 0"),
    (lambda p: _line_plot(p, series=[Series("a", [-1e308, 1e308])]),
     "series 'a' must be at most 1e+300 in magnitude, got -1e+308 at index 0"),
    (lambda p: _line_plot(p, bands=[Band("b", [0.0, 1.0], [2.0, math.inf])]),
     "band 'b' must be finite, got inf at index 1"),
    (lambda p: _line_plot(p, ref_y=math.nan), "ref_y must be finite, got nan at index 0"),
    (lambda p: _line_plot(p, ref_y=1e301),
     "ref_y must be at most 1e+300 in magnitude, got 1e+301 at index 0"),
    (lambda p: svg_line_plot([1.0, math.inf], [Series("a", [1.0, 2.0])], p),
     "xs must be finite, got inf at index 1"),
    (lambda p: svg_line_plot([-1e308, 1e308], [Series("a", [1.0, 2.0])], p, log_x=False),
     "xs must be at most 1e+300 in magnitude, got -1e+308 at index 0"),
    (lambda p: svg_line_plot([1.0, -2.0, 3.0], [Series("a", [1.0, 2.0, 3.0])], p),
     "xs must be positive on a log-x axis, got -2.0 at index 1"),
    (lambda p: svg_histogram([0.0, 1.0, 1.0], [0.5, 0.5], p),
     "bin_edges must be increasing, got 1.0 at index 2"),
    (lambda p: svg_histogram([0.0, 2.0, 1.0], [0.5, 0.5], p),
     "bin_edges must be increasing, got 1.0 at index 2"),
    (lambda p: svg_histogram([math.nan, 1.0, 2.0], [0.5, 0.5], p),
     "bin_edges must be finite, got nan at index 0"),
    (lambda p: svg_histogram([-1e308, 0.0, 1e308], [0.5, 0.5], p),
     "bin_edges must be at most 1e+300 in magnitude, got -1e+308 at index 0"),
    (lambda p: svg_histogram([0.0, 1.0, 2.0], [0.5, math.nan], p),
     "masses must be finite, got nan at index 1"),
    (lambda p: svg_histogram([0.0, 5e-324, 2.0], [0.5, 0.5], p),
     "masses must be at most 1e+300 times the bin width, got 0.5 at index 0"),
    (lambda p: svg_histogram([0.0, 1.0, 2.0], [-0.5, 0.5], p),
     "masses must be at least 0, got -0.5 at index 0"),
    (lambda p: _histogram(p, overlay_y=[0.5, math.nan]),
     "overlay_y must be finite, got nan at index 1"),
    (lambda p: _histogram(p, overlay_x=[math.inf, 2.0]),
     "overlay_x must be finite, got inf at index 0"),
], ids=["series-nan", "series-inf", "series-span", "band-inf", "ref_y-nan", "ref_y-huge",
        "xs-inf", "xs-span", "xs-log-negative", "edges-zero-width", "edges-decreasing",
        "edges-nan", "edges-span", "mass-nan", "mass-density", "mass-negative",
        "overlay_y-nan", "overlay_x-inf"])
def test_svg_plots_reject_data_they_cannot_draw(tmp_path, draw, message):
    # NaN was written as "nan" silently; an infinity or a span past the float
    # range raised OverflowError, and a zero-width bin ZeroDivisionError; a
    # later x <= 0 on a log-x axis raised an unnamed math domain error, and a
    # negative mass was drawn as a rect of negative height
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        draw(path)
    assert not path.exists()


def test_svg_line_plot_rejects_a_plot_with_nothing_to_draw(tmp_path):
    # no series, no bands and no ref_y raised "min() arg is an empty sequence"
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError,
                       match="^nothing to plot: no series, no bands and no ref_y$"):
        svg_line_plot([1.0, 10.0], [], path)
    assert not path.exists()
    assert _line_plot(path, series=[], ref_y=1.5).exists()  # a reference line alone draws


def test_svg_line_plot_draws_a_range_narrower_than_its_tick_step(tmp_path):
    # Two values 1 ulp apart at 1e5 give a tick step below half an ulp of
    # the ticks: adding it never advanced the tick, and the plot hung.
    path = _line_plot(tmp_path / "plot.svg",
                      series=[Series("a", [1e5, math.nextafter(1e5, 2e5)])])
    assert ET.parse(path).getroot().tag.endswith("svg")


def test_write_csv_matches_csv_writer(tmp_path):
    # _write_csv formats its lines itself; they must be the bytes that
    # csv.writer gives for the same cells once floats are formatted.
    floats = np.random.default_rng(8).integers(0, 2**64, 600, dtype=np.uint64)
    rows = [
        [1, True, None, -7, 0],
        [np.int64(-3), np.float64(0.1), np.bool_(False), np.float32(0.1), np.uint8(200)],
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1 + 0.2],
        ["a,b", 'say "hi"', "two\nlines", "cr\rhere", '","', "plain", " pad "],
        [""],
        [None],
        [],
        ["", ""],
        [(1, 2), "x"],
        floats.view(np.float64).tolist(),
    ]
    header = ["key", "a,b", 'c"d']
    got = _write_csv(tmp_path / "got.csv", header, iter(rows))
    with open(tmp_path / "want.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row]
                    for row in rows)
    assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_export_csv_runs_equal_one(tmp_path):
    s = run_envelope(_iid_trace, 1, 120, seed=71)
    env_path, sum_path = export_csv(s, tmp_path)
    env = _read_csv(env_path)
    assert {r["run"] for r in env} == {"0"}
    summ = _read_csv(sum_path)
    for row in summ:
        assert row["band_lo"] == row["band_hi"] == row["single_run"]


# ---------------------------------------------------------------------------
# Replay: one replication's CSV lines rebuilt from its substream alone
# ---------------------------------------------------------------------------

def _replay_envelope(config, k, scale):
    """Run k's envelope.csv lines, from substream k on the scalar path:
    per-run draws or one scalar chain, and the 1-D running_moments."""
    rng = derive_substream(rng_new(config.seed), k)
    if config.experiment == "figure1":
        values = cubic_ratio(normals(rng, config.iters, config.mu, 1.0))
    else:
        burn = config.effective_burn_in()
        if config.experiment == "figure2":
            trace = run_gibbs_chain(0.0, burn + config.iters, burn, rng)
        else:
            trace = run_mh_chain(EXAMPLE_TARGET, RwProposal(scale), 0.0,
                                 burn + config.iters, burn, rng)
        values = np.power(trace.retained(), 3)  # the cube _chain_figure takes
    cps = checkpoints(config.iters)
    means = running_moments(values, cps).mean.tolist()
    return {"envelope.csv": [_csv_line([k, cp, v]) for cp, v in zip(cps, means)]}


def _replay_evidence(config, k):
    """Replication k's lines of the three evidence CSVs, from a one-row
    _evidence_group on substream k."""
    data = _synthetic_dataset(config.seed)
    models = [get_model("conj-n01"), get_model("conj-n14")]
    truths = [analytic_log_evidence(m, data) for m in models]
    posteriors = [(m, *posterior_params(m, data)) for m in models]
    (ests,) = _evidence_group([derive_substream(rng_new(config.seed), k)], posteriors,
                              data, config.iters)
    lines = {}
    for mi, (model_ests, truth) in enumerate(zip(ests, truths)):
        lines[f"evidence_m{mi}.csv"] = [
            _csv_line([e.estimator, k, config.iters, e.log_evidence, truth,
                       e.log_evidence - truth, e.diagnostics[_EVIDENCE_DIAGNOSTIC[e.estimator]],
                       e.converged]) for e in model_ests]
    analytic_bf = truths[0] - truths[1]
    lines["bayes_factors.csv"] = [
        _csv_line([e0.estimator, k, e0.log_evidence - e1.log_evidence, analytic_bf,
                   (e0.log_evidence - e1.log_evidence) - analytic_bf,
                   e0.converged and e1.converged]) for e0, e1 in zip(*ests)]
    return lines


# evidence at 4096 iters runs groups of 2 rows: run 3 is its group's second
# row and run 4 a group of its own.
@pytest.mark.parametrize("exp, extra, iters", [
    ("figure1", {"mu": 2.5}, 400),
    ("figure2", {}, 400),
    ("figure3", {"scale": 0.8}, 400),
    ("figure3", {"scale": "auto"}, 400),
    ("evidence", {}, 4096),
], ids=["figure1", "figure2", "figure3-fixed", "figure3-auto", "evidence"])
def test_a_replication_replays_its_csv_lines_from_its_substream_alone(tmp_path, exp, extra,
                                                                       iters):
    config = ExperimentConfig(exp, seed=5, runs=5, iters=iters, out_dir=tmp_path, **extra)
    res = run_experiment(config)
    scale = config.scale
    if scale == "auto":
        scale = calibrate_scale_report(EXAMPLE_TARGET, config.target_accept, 0.0,
                                       derive_substream(rng_new(config.seed), _CAL_STREAM)).scale
    for k in (0, 3, 4):
        replay = (_replay_evidence(config, k) if exp == "evidence"
                  else _replay_envelope(config, k, scale))
        for name, want in replay.items():
            column = 0 if name == "envelope.csv" else 1  # run, or seed
            lines = res.files[name].read_text(encoding="utf-8").splitlines(keepends=True)
            got = [line for line in lines[1:] if line.split(",")[column] == str(k)]
            assert got == want, (name, k)


# sha256 over (file name, bytes) of every CSV an experiment writes. Any
# change to a drawn number, a row or a formatted digit changes the digest,
# so a refactor of the experiment layer must leave these unchanged.
_PINNED_OUTPUTS = [
    ("figure1", {"mu": 2.5},
     "29d22f3dbb5bb7f2197305a05c9442c24976ac5aefc6b3c34aff3f48fdab1d66"),
    ("figure2", {},
     "ef71aad2dd691214afb26988176292071bb594dda8c7c43b4bc1a0368a8864c7"),
    ("figure3", {"scale": "auto"},
     "5925b63ceb9f7d93330ae9597273faf76e58e7fd856c65b850ffd9ed7b37c179"),
    ("figure3", {"scale": 0.8},
     "a940057801618ddaf7d0d802db17880a7c9269a5b7c7405988ac71bcbeeec818"),
    ("evidence", {},
     "47d2257d7118d20c0e5a04ca82d265cb9ef8c331dc4e728e8e818b8ff3c3a201"),
]


@pytest.mark.parametrize("exp, extra, digest", _PINNED_OUTPUTS,
                         ids=["figure1", "figure2", "figure3-auto",
                              "figure3-fixed", "evidence"])
def test_experiment_outputs_are_pinned(tmp_path, exp, extra, digest):
    res = run_experiment(ExperimentConfig(exp, seed=5, runs=4, iters=400,
                                          out_dir=tmp_path, **extra))
    h = hashlib.sha256()
    for name in sorted(res.files):
        if Path(name).suffix == ".csv":
            h.update(name.encode())
            h.update(res.files[name].read_bytes())
    assert h.hexdigest() == digest


# ROADMAP item 1: numpy's AVX-512 loops (np.exp, np.log, np.log1p, x ** 3)
# and OpenBLAS's dot and matvec kernels differ from libm and from each other
# in the last bits, so these settings move the pinned bytes.
_HOST_VARIANTS = [("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR"),
                  ("OPENBLAS_CORETYPE", "Haswell"),
                  ("OPENBLAS_CORETYPE", "Prescott")]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: without AVX-512 figure2 and figure3 (auto) "
                          "change bytes; with a Haswell BLAS kernel evidence does; with "
                          "a Prescott one evidence and, through hist.csv's oracle "
                          "matvec, figure2 and both figure3 configs do")
def test_pinned_outputs_do_not_depend_on_simd_or_blas_kernels():
    failed = []
    for var, value in _HOST_VARIANTS:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{__file__}::test_experiment_outputs_are_pinned"],
            env=dict(os.environ, **{var: value}), cwd=Path(__file__).parents[1],
            capture_output=True, text=True, timeout=300)
        if proc.returncode not in (0, 1):  # 1: some digest differs
            raise RuntimeError(f"{var}={value}: pytest exited {proc.returncode}\n"
                               f"{proc.stdout}{proc.stderr}")
        failed += [f"{var}={value}: {line}" for line in proc.stdout.splitlines()
                   if line.startswith("FAILED")]
    assert not failed, "\n".join(failed)


def test_perfbench_tracer_wrap_points_resolve_and_are_restored(monkeypatch):
    # The tracer wraps names such as mcstat.harness.run_gibbs_chain that
    # the package imports but does not call; deleting one breaks only a
    # traced benchmark run, so this is where it shows.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")

    def lookup(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    points = [(owner, attr) for owner, attr, _, _ in tracer.WRAP_POINTS]
    assert len(points) == 38
    originals = [lookup(*p) for p in points]
    t = tracer.Tracer()
    t.install()
    try:
        for p, original in zip(points, originals):
            assert lookup(*p).__wrapped__ is original
    finally:
        t.uninstall()
    assert all(lookup(*p) is original for p, original in zip(points, originals))


def test_run_experiment_dispatch(tmp_path):
    res = run_experiment(ExperimentConfig("figure1", seed=1, runs=2,
                                          iters=200, out_dir=tmp_path))
    assert res.info["experiment"] == "figure1"
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig("bogus", out_dir=tmp_path))


@pytest.mark.parametrize("module", ["rng", "targets", "quadrature", "estimators", "mcmc",
                                    "harness"])
def test_every_exported_name_is_defined_and_reexported_by_the_package(module):
    # A stale __all__ entry would break `from mcstat.<module> import *`.
    mod = importlib.import_module(f"mcstat.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    not_reexported = [name for name in mod.__all__
                      if getattr(mcstat, name, None) is not getattr(mod, name, None)]
    assert not missing and not not_reexported, (missing, not_reexported)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_success_writes_files(tmp_path, capsys):
    rc = cli_main(["figure1", "--seed", "1", "--runs", "3", "--iters", "300",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "envelope.csv").exists()
    assert (tmp_path / "info.csv").exists()
    out = capsys.readouterr().out
    assert "figure1" in out


def _cli_rc(args):
    # argparse rejects unknown subcommands / bad option values via SystemExit.
    try:
        return cli_main(args)
    except SystemExit as exc:
        return exc.code


def test_cli_validation_failures_exit_1(tmp_path, capsys):
    assert _cli_rc(["badexp", "--out", str(tmp_path)]) == 1
    assert _cli_rc(["figure1"]) == 1  # no --out anywhere
    assert _cli_rc(["figure1", "--runs", "0", "--out", str(tmp_path)]) == 1
    assert _cli_rc(["figure1", "--scale", "quick", "--out", str(tmp_path)]) == 1
    for scale in ("inf", "0", "-1", "nan"):
        assert _cli_rc(["figure3", "--scale", scale, "--out", str(tmp_path)]) == 1, scale
    assert _cli_rc(["figure1", "--config", str(tmp_path / "missing.cfg"),
                    "--out", str(tmp_path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("error", [
    CalibrationError("no luck", best_scale=0.1, measured_rate=0.9),
    # what numpy raises for a (runs, steps) block larger than memory
    MemoryError("Unable to allocate 8.00 TiB for an array with shape (100000, 11000000)"),
], ids=["calibration", "memory"])
def test_cli_numerical_failure_exits_2(tmp_path, capsys, monkeypatch, error):
    def explode(config):
        raise error

    monkeypatch.setattr("mcstat.cli.run_experiment", explode)
    rc = cli_main(["figure3", "--runs", "2", "--iters", "200",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"mcstat: figure3 failed: {error}\n"


def test_cli_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nruns = 4\niters = 600\nseed = 9\n"
                   f"out = {tmp_path / 'out'}\n")
    # CLI --iters overrides the file; file supplies runs, seed, out
    rc = cli_main(["figure1", "--config", str(cfg), "--iters", "800"])
    assert rc == 0
    env = _read_csv(tmp_path / "out" / "envelope.csv")
    assert len(env) == 4 * len(checkpoints(800))
    info = {r["key"]: r["value"] for r in _read_csv(tmp_path / "out" / "info.csv")}
    assert info["iters"] == "800"
    assert info["seed"] == "9"
    capsys.readouterr()


def test_cli_options_cover_config_fields():
    names = {f.name for f in fields(ExperimentConfig)} - {"experiment"}
    assert set(_OPTIONS) == names


def test_cli_rejects_bad_config_file_value(tmp_path, capsys):
    for line in ("runs = many", "scale = fast", "scale = -1", "mu = x"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert cli_main(["figure1", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 1, line
    capsys.readouterr()


def test_cli_rejects_a_config_file_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = 1\n\xff\n")
    assert cli_main(["figure1", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"mcstat: error: cannot read config file {cfg}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("walks = 4\n")
    assert cli_main(["figure1", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_cli_rejects_a_config_key_set_twice(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("runs = 4\n# comment\nseed = 1\nruns = 5\n")
    assert cli_main(["figure1", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert f"{cfg}:4: key 'runs' is set twice, on lines 1 and 4" in capsys.readouterr().err
    assert not (tmp_path / "info.csv").exists()


def test_cli_output_is_byte_deterministic(tmp_path):
    args = ["figure2", "--seed", "2", "--runs", "3", "--iters", "400"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("envelope.csv", "summary.csv", "hist.csv", "info.csv",
                 "figure.svg", "hist.svg"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes(), name


def test_run_all_figures_goes_through_the_cli(tmp_path):
    script = Path(__file__).parents[1] / "scripts" / "run_all_figures.py"

    def run(*args):
        return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                              text=True, timeout=300)

    done = run("--quick", "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    for name in ("figure1_mu0", "figure1_mu2.5", "figure2", "figure3", "evidence"):
        assert (tmp_path / "out" / name / "info.csv").exists(), name
    bad = run("--seed", "-1", "--quick", "--out", str(tmp_path / "bad"))
    assert bad.returncode == 1
    assert "mcstat: error:" in bad.stderr
    assert "Traceback" not in bad.stderr
