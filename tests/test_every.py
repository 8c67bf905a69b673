"""Every array check goes through one helper, rng._every.

It raises `<name> must be <rule>, got <v> at index <i>` at the first element
that breaks the rule, so a failure names the element at fault. The samplers'
per-draw failures share one text each with mcmc's slice steps. A guard keeps
the element search in rng._every.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import mcstat
from mcstat.estimators import bridge_log_evidence, ess, harmonic_mean_log_evidence
from mcstat.mcmc import ChainFailure, _slice_rows, _slice_steps
from mcstat.rng import norm_ppf, norm_ppf_many

_P_TEXT = r"^p must be in \(0, 1\), got "


def test_the_quantile_names_its_first_bad_element():
    with pytest.raises(ValueError, match=_P_TEXT + r"nan at index 1$"):
        norm_ppf_many([0.2, math.nan])
    with pytest.raises(ValueError, match=_P_TEXT + r"1\.0 at index \(1, 0\)$"):
        norm_ppf_many([[0.2, 0.3], [1.0, 0.0]])


def test_the_quantile_reads_one_domain_text_on_every_path():
    with pytest.raises(ValueError, match=_P_TEXT + r"1\.5$"):
        norm_ppf(1.5)
    with pytest.raises(ValueError, match=_P_TEXT + r"nan$"):
        _slice_steps(0.0, (0.5, math.nan))
    with pytest.raises(ChainFailure, match=_P_TEXT + r"nan$") as err:
        _slice_rows(np.zeros(3), np.full(3, 0.5), np.array([0.5, math.nan, math.nan]))
    assert err.value.row == 1


def test_a_numpy_float_reads_as_a_float_on_the_scalar_and_array_paths():
    with pytest.raises(ValueError, match=_P_TEXT + r"1\.5$"):
        norm_ppf(np.float64(1.5))
    with pytest.raises(ValueError, match=_P_TEXT + r"1\.5 at index 0$"):
        norm_ppf_many([1.5])
    with pytest.raises(ValueError, match=_P_TEXT + r"1\.5 at index 0$"):
        norm_ppf_many(np.array([np.float64(1.5)]))


def test_ess_names_its_first_bad_weight():
    with pytest.raises(ValueError, match=r"^log_weights must be < \+inf and not NaN, "
                                         r"got nan at index 1$"):
        ess([0.0, math.nan])
    with pytest.raises(ValueError, match=r"got inf at index 2$"):
        ess([0.0, -1.0, math.inf, math.nan])


def test_the_harmonic_mean_names_its_first_non_finite_log_likelihood():
    with pytest.raises(ValueError, match=r"^log_liks_at_posterior_draws must be finite, "
                                         r"got nan at index 1$"):
        harmonic_mean_log_evidence([0.0, math.nan])


def test_the_bridge_names_its_first_nan_ratio():
    # the posterior's log density is NaN at prop draws 7 and 9
    post = np.linspace(-1.0, 1.0, 40)
    prop = np.linspace(-3.0, 3.0, 40)

    def log_post(th):
        return np.where(np.isin(th, prop[[7, 9]]), math.nan, -0.5 * th * th)

    with pytest.raises(ValueError, match=r"^log density ratio at prop_draws must be a "
                                         r"number, got nan at index 7$"):
        bridge_log_evidence(post, prop, log_post, lambda th: -th * th / 18.0)


# ---------------------------------------------------------------------------
# Guard: the element search lives in rng._every
# ---------------------------------------------------------------------------

_SEARCHES = {"isnan", "isfinite", "flatnonzero", "unravel_index"}


def _searches(tree: ast.Module):
    # (np.<search> node, where): where is "body" inside a function named
    # _every, "argument" inside an argument of a call to _every, else None
    where = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_every":
            where.update((id(n), "body") for n in ast.walk(node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_every"):
            where.update((id(n), "argument") for arg in node.args for n in ast.walk(arg))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "np" and node.attr in _SEARCHES):
            yield node, where.get(id(node))


def test_element_searches_appear_only_in_rng_every_or_its_arguments():
    src = Path(mcstat.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, where in _searches(tree):
            at = f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            assert where is not None, f"{at} outside rng._every and its arguments"
            assert node.attr != "unravel_index" or where == "body", f"{at} outside rng._every"
            found.add((path.name, node.attr, where))
        defines = any(isinstance(n, ast.FunctionDef) and n.name == "_every"
                      for n in ast.walk(tree))
        assert defines == (path.name == "rng.py"), path.name
    # the guard sees the searches where they live
    assert {("rng.py", "unravel_index", "body"), ("rng.py", "isfinite", "argument"),
            ("estimators.py", "isnan", "argument")} <= found


def test_the_bridge_names_a_draw_where_both_densities_are_zero():
    # both log densities are -inf at post draw 3; -inf - -inf is a NaN
    # ratio, named without a RuntimeWarning (the suite raises warnings)
    post = np.linspace(-1.0, 1.0, 10)
    prop = np.linspace(-2.0, 2.0, 10)

    def zero_at_post3(f):
        return lambda th: np.where(th == post[3], -math.inf, f(th))

    with pytest.raises(ValueError, match=r"^log density ratio at post_draws must be a "
                                         r"number, got nan at index 3$"):
        bridge_log_evidence(post, prop, zero_at_post3(lambda th: -0.5 * th * th),
                            zero_at_post3(lambda th: -th * th / 8.0))
