"""Every count argument goes through one check, rng._count.

Any integer type is accepted, numpy's included, with the output of a plain
int; a bool, a float, a string or a value out of range raises ValueError
(ConfigError for ExperimentConfig) whose message starts with the
argument's name.
"""

import math
import pickle

import numpy as np
import pytest

from mcstat.estimators import (bridge_log_evidence, mc_estimate, running_moments,
                               self_normalized_is)
from mcstat.harness import ConfigError, ExperimentConfig, checkpoints, run_envelope
from mcstat.mcmc import (ChainTrace, RwProposal, batch_means_se, run_gibbs_chain,
                         run_gibbs_chains, run_mh_chain, run_mh_chains)
from mcstat.quadrature import gauss_legendre_integrate, quadrature_integrate
from mcstat.rng import NormalDist, RngStream, derive_substream, normals, rng_new, sample_normal
from mcstat.targets import EXAMPLE_TARGET, example_target_moment

RW = RwProposal(1.2)
_POST = np.random.default_rng(0).normal(0.3, 1.0, size=50)
_PROP = np.random.default_rng(1).normal(0.0, 1.5, size=50)


def _stream(r):
    return r.seed, r.stream_id, r.state_bytes()


def _streams():
    return [rng_new(3), rng_new(4)]


def _bridge(max_iter):
    return bridge_log_evidence(_POST, _PROP, lambda t: -0.5 * (t - 0.3) ** 2,
                               lambda t: -0.5 * (t / 1.5) ** 2, max_iter=max_iter)


# (name, call with the count, a good value, a value out of range, error type)
CALL_SITES = [
    pytest.param("seed", lambda v: _stream(RngStream(v, 1)), 5, 2**64, ValueError,
                 id="RngStream-seed"),
    pytest.param("stream_id", lambda v: _stream(RngStream(1, v)), 5, -1, ValueError,
                 id="RngStream-stream_id"),
    pytest.param("k", lambda v: _stream(derive_substream(rng_new(1), v)), 5, 2**64,
                 ValueError, id="derive_substream-k"),
    pytest.param("seed", lambda v: _stream(RngStream.from_state_bytes(
        rng_new(0).state_bytes(), v)), 5, -1, ValueError, id="from_state_bytes-seed"),
    pytest.param("n", lambda v: rng_new(2).floats_open(v), 5, -1, ValueError,
                 id="floats_open-n"),
    pytest.param("n", lambda v: normals(rng_new(2), v, 0.0, 1.0), 5, -1, ValueError,
                 id="normals-n"),
    pytest.param("iters", lambda v: run_mh_chain(EXAMPLE_TARGET, RW, 0.0, v, 2, rng_new(3)),
                 20, 2, ValueError, id="run_mh_chain-iters"),
    pytest.param("burn_in", lambda v: run_mh_chain(EXAMPLE_TARGET, RW, 0.0, 20, v, rng_new(3)),
                 3, -1, ValueError, id="run_mh_chain-burn_in"),
    pytest.param("iters", lambda v: run_mh_chains(EXAMPLE_TARGET, RW, 0.0, v, 2, _streams()),
                 20, 2, ValueError, id="run_mh_chains-iters"),
    pytest.param("burn_in", lambda v: run_mh_chains(EXAMPLE_TARGET, RW, 0.0, 20, v,
                                                    _streams()),
                 3, -1, ValueError, id="run_mh_chains-burn_in"),
    pytest.param("iters", lambda v: run_gibbs_chain(0.0, v, 2, rng_new(3)), 20, 0, ValueError,
                 id="run_gibbs_chain-iters"),
    pytest.param("burn_in", lambda v: run_gibbs_chain(0.0, 20, v, rng_new(3)), 3, -1,
                 ValueError, id="run_gibbs_chain-burn_in"),
    pytest.param("iters", lambda v: run_gibbs_chains(0.0, v, 2, _streams()), 20, 2,
                 ValueError, id="run_gibbs_chains-iters"),
    pytest.param("burn_in", lambda v: run_gibbs_chains(0.0, 20, v, _streams()), 3, -1,
                 ValueError, id="run_gibbs_chains-burn_in"),
    pytest.param("burn_in", lambda v: ChainTrace(np.arange(10.0), None, v, (0, 0)), 3, 11,
                 ValueError, id="ChainTrace-burn_in"),
    pytest.param("n_batches", lambda v: batch_means_se(np.arange(100.0) ** 1.5, v), 5, 1,
                 ValueError, id="batch_means_se-n_batches"),
    pytest.param("T", lambda v: mc_estimate(lambda g: sample_normal(g, 0.0, 1.0),
                                            lambda x: x, v, rng_new(5)),
                 20, 0, ValueError, id="mc_estimate-T"),
    pytest.param("T", lambda v: self_normalized_is(EXAMPLE_TARGET, NormalDist(0.0, 2.0),
                                                   lambda x: x * x, v, rng_new(6)),
                 20, 0, ValueError, id="self_normalized_is-T"),
    pytest.param("max_iter", _bridge, 3, 0, ValueError, id="bridge_log_evidence-max_iter"),
    pytest.param("max_evals", lambda v: quadrature_integrate(math.sin, 0.0, 1.0,
                                                             max_evals=v),
                 10_000, 0, ValueError, id="quadrature_integrate-max_evals"),
    pytest.param("panels", lambda v: gauss_legendre_integrate(math.sin, 0.0, 1.0, panels=v),
                 4, 0, ValueError, id="gauss_legendre_integrate-panels"),
    pytest.param("order", lambda v: gauss_legendre_integrate(math.sin, 0.0, 1.0, order=v),
                 6, 1, ValueError, id="gauss_legendre_integrate-order"),
    pytest.param("p", lambda v: example_target_moment(v, tol=1e-8), 2, -1, ValueError,
                 id="example_target_moment-p"),
    pytest.param("iters", checkpoints, 500, 0, ValueError, id="checkpoints-iters"),
    pytest.param("runs", lambda v: run_envelope(
        lambda rng, cps: [rng.next_float_open() for _ in cps], v, 100, 7), 3, 0, ValueError,
                 id="run_envelope-runs"),
    pytest.param("runs", lambda v: ExperimentConfig("figure2", runs=v), 3, 0, ConfigError,
                 id="ExperimentConfig-runs"),
    pytest.param("iters", lambda v: ExperimentConfig("figure2", iters=v), 200, 99,
                 ConfigError, id="ExperimentConfig-iters"),
    pytest.param("seed", lambda v: ExperimentConfig("figure2", seed=v), 5, 2**64,
                 ConfigError, id="ExperimentConfig-seed"),
    pytest.param("burn_in", lambda v: ExperimentConfig("figure2", burn_in=v), 10, 10_000,
                 ConfigError, id="ExperimentConfig-burn_in"),
]


@pytest.mark.parametrize("name, call, good, out_of_range, error", CALL_SITES)
def test_every_count_is_checked_by_name_and_numpy_integers_act_as_ints(
        name, call, good, out_of_range, error):
    for bad in (2.5, True, np.float64(3.0), "3", out_of_range):
        with pytest.raises(error, match=f"^{name} must be an integer "):
            call(bad)
    assert pickle.dumps(call(np.int64(good))) == pickle.dumps(call(good))


@pytest.mark.parametrize("cps", [[True, 20], [10.0, 20]])
def test_running_moments_checks_each_checkpoint_as_a_count(cps):
    with pytest.raises(ValueError, match=rf"^cps must be an integer >= 1, got {cps[0]!r}$"):
        running_moments(np.arange(20.0), cps)
