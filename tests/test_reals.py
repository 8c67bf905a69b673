"""Every real argument goes through one check, rng._real.

Any real type is accepted, numpy's included, and stored or used as the
Python float it equals; a bool, NaN, an infinity, a string or a value out of
range raises ValueError (ConfigError for ExperimentConfig) whose message
starts with the argument's name, and a rejected sampler call draws nothing.
A guard keeps the type rule for counts and reals in rng._count and rng._real.
"""

import ast
import csv
import dataclasses
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

import mcstat
from mcstat.estimators import bridge_log_evidence, chib_log_evidence
from mcstat.harness import ConfigError, ExperimentConfig, figure3
from mcstat.mcmc import (RwProposal, calibrate_scale_report, run_gibbs_chain,
                         run_gibbs_chains, run_mh_chain, run_mh_chains, slice_gibbs_step)
from mcstat.quadrature import gauss_legendre_integrate, quadrature_integrate
from mcstat.rng import (NormalDist, derive_substream, normal_logpdf, normals, rng_new,
                        sample_normal, sample_truncated_normal)
from mcstat.targets import (EXAMPLE_TARGET, ConjugateNormalModel,
                            gaussian_functional_expectation)

SEED = 11
_POST = np.random.default_rng(0).normal(0.3, 1.0, size=50)
_PROP = np.random.default_rng(1).normal(0.0, 1.5, size=50)
_MODEL = ConjugateNormalModel(0.0, 1.0, 1.0, "m")


def _bridge(tol):
    return bridge_log_evidence(_POST, _PROP, lambda t: -0.5 * (t - 0.3) ** 2,
                               lambda t: -0.5 * (t / 1.5) ** 2, tol=tol)


def _drawn(rng, value):
    # a sampler's result together with where it left its stream
    return value, rng.state_bytes()


# (name, call with the real and a fresh stream, a good value, a value out of
# range, error type); a call that draws must use the stream it is given
CALL_SITES = [
    pytest.param("mean", lambda v, r: _drawn(r, normals(r, 5, v, 1.0)), 0.1, -math.inf,
                 ValueError, id="normals-mean"),
    pytest.param("sd", lambda v, r: _drawn(r, normals(r, 5, 0.0, v)), 1.2, 0.0, ValueError,
                 id="normals-sd"),
    pytest.param("mean", lambda v, r: NormalDist(v, 1.0), 0.1, -math.inf, ValueError,
                 id="NormalDist-mean"),
    pytest.param("sd", lambda v, r: NormalDist(0.0, v), 1.2, 0.0, ValueError,
                 id="NormalDist-sd"),
    pytest.param("scale", lambda v, r: RwProposal(v), 1.2, 0.0, ValueError,
                 id="RwProposal-scale"),
    pytest.param("init", lambda v, r: _drawn(r, run_mh_chain(
        EXAMPLE_TARGET, RwProposal(1.0), v, 20, 2, r)), 0.3, -math.inf, ValueError,
                 id="run_mh_chain-init"),
    pytest.param("init", lambda v, r: _drawn(r, run_mh_chains(
        EXAMPLE_TARGET, RwProposal(1.0), v, 20, 2, [r])), 0.3, -math.inf, ValueError,
                 id="run_mh_chains-init"),
    pytest.param("init", lambda v, r: _drawn(r, calibrate_scale_report(
        EXAMPLE_TARGET, 0.5, v, r)), 0.3, -math.inf, ValueError,
                 id="calibrate_scale_report-init"),
    pytest.param("target_accept", lambda v, r: _drawn(r, calibrate_scale_report(
        EXAMPLE_TARGET, v, 0.0, r)), 0.3, 1.0, ValueError,
                 id="calibrate_scale_report-target_accept"),
    pytest.param("tol", lambda v, r: _drawn(r, calibrate_scale_report(
        EXAMPLE_TARGET, 0.5, 0.0, r, tol=v)), 0.1, -1.0, ValueError,
                 id="calibrate_scale_report-tol"),
    pytest.param("x", lambda v, r: _drawn(r, slice_gibbs_step(v, r)), 0.3, -math.inf,
                 ValueError, id="slice_gibbs_step-x"),
    pytest.param("init", lambda v, r: _drawn(r, run_gibbs_chain(v, 20, 2, r)), 0.3,
                 -math.inf, ValueError, id="run_gibbs_chain-init"),
    pytest.param("init", lambda v, r: _drawn(r, run_gibbs_chains(v, 20, 2, [r])), 0.3,
                 -math.inf, ValueError, id="run_gibbs_chains-init"),
    pytest.param("tol", lambda v, r: _bridge(v), 1e-6, -1.0, ValueError,
                 id="bridge_log_evidence-tol"),
    pytest.param("theta_star", lambda v, r: chib_log_evidence(_MODEL, [0.5], _POST, v), 0.3,
                 -math.inf, ValueError, id="chib_log_evidence-theta_star"),
    pytest.param("lo", lambda v, r: quadrature_integrate(math.sin, v, 1.0), 0.1, -math.inf,
                 ValueError, id="quadrature_integrate-lo"),
    pytest.param("hi", lambda v, r: quadrature_integrate(math.sin, 0.0, v), 1.2, -math.inf,
                 ValueError, id="quadrature_integrate-hi"),
    pytest.param("tol", lambda v, r: quadrature_integrate(math.sin, 0.0, 1.0, tol=v), 1e-6,
                 -1.0, ValueError, id="quadrature_integrate-tol"),
    pytest.param("lo", lambda v, r: gauss_legendre_integrate(math.sin, v, 1.0, 4), 0.1,
                 -math.inf, ValueError, id="gauss_legendre_integrate-lo"),
    pytest.param("hi", lambda v, r: gauss_legendre_integrate(math.sin, 0.0, v, 4), 1.2,
                 -math.inf, ValueError, id="gauss_legendre_integrate-hi"),
    pytest.param("mu", lambda v, r: gaussian_functional_expectation(v, tol=1e-8), 0.3,
                 -math.inf, ValueError, id="gaussian_functional_expectation-mu"),
    pytest.param("prior_mean", lambda v, r: ConjugateNormalModel(v, 1.0, 1.0), 0.1,
                 -math.inf, ValueError, id="ConjugateNormalModel-prior_mean"),
    pytest.param("prior_var", lambda v, r: ConjugateNormalModel(0.0, v, 1.0), 1.2, 0.0,
                 ValueError, id="ConjugateNormalModel-prior_var"),
    pytest.param("obs_var", lambda v, r: ConjugateNormalModel(0.0, 1.0, v), 1.2, -1.0,
                 ValueError, id="ConjugateNormalModel-obs_var"),
    pytest.param("mu", lambda v, r: ExperimentConfig("figure1", mu=v), 0.3, -math.inf,
                 ConfigError, id="ExperimentConfig-mu"),
    pytest.param("target_accept", lambda v, r: ExperimentConfig("figure3", target_accept=v),
                 0.3, 0.0, ConfigError, id="ExperimentConfig-target_accept"),
    pytest.param("scale", lambda v, r: ExperimentConfig("figure3", scale=v), 1.2, 0.0,
                 ConfigError, id="ExperimentConfig-scale"),
]


@pytest.mark.parametrize("name, call, good, out_of_range, error", CALL_SITES)
def test_every_real_is_checked_by_name_and_numpy_reals_act_as_floats(
        name, call, good, out_of_range, error):
    for bad in (True, math.nan, math.inf, "1.0", out_of_range):
        rng = rng_new(SEED)
        with pytest.raises(error, match=f"^{name} must be a real in "):
            call(bad, rng)
        assert rng.state_bytes() == rng_new(SEED).state_bytes()  # nothing drawn
    for numpy_real in (np.float32(good), np.float64(good)):
        got = call(numpy_real, rng_new(SEED))
        assert pickle.dumps(got) == pickle.dumps(call(float(numpy_real), rng_new(SEED)))
        if dataclasses.is_dataclass(got) and hasattr(got, name):
            assert type(getattr(got, name)) is float


def test_float32_scale_steps_the_scalar_runner_as_the_lockstep_row():
    prop = RwProposal(np.float32(1.2))
    rngs = [derive_substream(rng_new(5), k) for k in range(3)]
    lockstep = run_mh_chains(EXAMPLE_TARGET, prop, 0.0, 500, 0, rngs)
    scalar = run_mh_chain(EXAMPLE_TARGET, prop, 0.0, 500, 0, derive_substream(rng_new(5), 0))
    assert scalar.states.tobytes() == lockstep.states[0].tobytes()


def test_float32_mean_gives_a_float64_logpdf():
    got = NormalDist(np.float32(0.1), 1.0).logpdf(0.3)
    assert type(got) is float
    assert got == normal_logpdf(0.3, float(np.float32(0.1)), 1.0) == -0.9389385329066494


# The per-draw samplers check inline (no _real call per draw) and still run
# float64 arithmetic on a numpy real: (sampler, its real arguments, position).
_PER_DRAW = [pytest.param(sampler, args, i, id=f"{sampler.__name__}-{name}")
             for sampler, args in ((sample_normal, (0.5, 1.3)),
                                   (sample_truncated_normal, (0.5, 1.3, -1.0, 3.0)))
             for i, name in enumerate(("mean", "sd", "lo", "hi")[:len(args)])]


@pytest.mark.parametrize("sampler, args, position", _PER_DRAW)
def test_per_draw_samplers_run_float64_arithmetic_on_numpy_reals(sampler, args, position):
    want = sampler(rng_new(SEED), *args)
    assert type(want) is float
    for numpy_real in (np.float32, np.float64):
        given = list(args)
        given[position] = numpy_real(given[position])
        got = sampler(rng_new(SEED), *given)
        assert type(got) is float
        assert pickle.dumps(got) == pickle.dumps(sampler(rng_new(SEED), *map(float, given)))
    assert pickle.dumps(got) == pickle.dumps(want)  # a float64 draws what its float draws


def test_float32_target_accept_is_written_as_the_value_the_run_used(tmp_path):
    config = ExperimentConfig("figure3", seed=2, runs=2, iters=100,
                              target_accept=np.float32(0.3), out_dir=tmp_path)
    figure3(config)
    with open(tmp_path / "info.csv", newline="", encoding="utf-8") as fh:
        info = dict(csv.reader(fh))
    assert info["target_accept"] == "0.30000001192092896" == format(config.target_accept,
                                                                    ".17g")


# ---------------------------------------------------------------------------
# Guard: one type rule for counts and reals
# ---------------------------------------------------------------------------

_TYPE_RULE_OWNERS = {("rng.py", "_count"), ("rng.py", "_real")}


def _type_rule_uses(tree: ast.Module):
    # (top-level function or None, node) for each operator.index, numbers.<name>,
    # isinstance(..., bool) and from-import of numbers or operator in a module
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                    node.value.id == "numbers"
                    or (node.value.id, node.attr) == ("operator", "index")):
                yield owner, node
            elif isinstance(node, ast.ImportFrom) and node.module in ("numbers", "operator"):
                yield owner, node
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2
                  and any(isinstance(n, ast.Name) and n.id == "bool"
                          for n in ast.walk(node.args[1]))):
                yield owner, node


def test_counts_and_reals_are_typed_only_in_rng_count_and_real():
    src = Path(mcstat.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for owner, node in _type_rule_uses(ast.parse(path.read_text(encoding="utf-8"))):
            assert (path.name, owner) in _TYPE_RULE_OWNERS, \
                f"{path.name}:{node.lineno}: {ast.unparse(node)} outside rng._count/_real"
            found.add((path.name, owner))
    assert found == _TYPE_RULE_OWNERS  # the guard sees the rule where it lives
