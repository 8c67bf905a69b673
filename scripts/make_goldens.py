#!/usr/bin/env python3
"""Regenerate tests/goldens.json, the frozen oracle constants.

Every stored value is computed by at least two independent routes before
it is written:

* normalizing constant, moments, CDF points: adaptive Simpson vs composite
  Gauss-Legendre (and mpmath quadrature when available);
* E[X^3/(1+X^2+X^4)] under N(2.5, 1): quadrature vs a 10^7-draw Monte
  Carlo cross-check (skipped with --quick);
* conjugate evidence values for the seed-0 synthetic dataset: closed form
  vs quadrature of the evidence integral.

The script aborts rather than writing goldens if any two routes disagree.
With --check it writes nothing: it prints every key whose recomputed value
differs from the stored one, with both values and their distance in ulps,
and exits 1 if any key differs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mcstat.harness import _synthetic_dataset
from mcstat.quadrature import gauss_legendre_integrate, quadrature_integrate
from mcstat.rng import normals, rng_new
from mcstat.targets import (analytic_log_evidence, cubic_ratio,
                            example_target_cdf, example_target_logpdf,
                            example_target_moment, example_target_norm_const,
                            gaussian_functional_expectation, get_model,
                            numeric_log_evidence)


def _require(label: str, a: float, b: float, tol: float) -> None:
    if abs(a - b) > tol:
        raise SystemExit(f"oracle disagreement on {label}: {a!r} vs {b!r} "
                         f"(|diff| {abs(a - b):.3e} > {tol:g})")
    print(f"  {label}: {a:.17g}  (routes agree to {abs(a - b):.2e})")


def _flatten(d: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in d.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def _check(goldens: dict, path: Path) -> int:
    stored = _flatten(json.loads(path.read_text(encoding="utf-8")))
    fresh = _flatten(goldens)
    keys = sorted(stored.keys() | fresh.keys())
    differ = [k for k in keys if stored.get(k) != fresh.get(k)]
    for key in differ:
        a, b = stored.get(key), fresh.get(key)
        dist = "missing" if a is None or b is None else f"{abs(a - b) / math.ulp(a):.0f} ulp"
        print(f"  differs: {key}: stored {a!r}, computed {b!r} ({dist})")
    print(f"{len(differ)} of {len(keys)} keys differ from {path}")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="skip the 10^7-draw Monte Carlo cross-check")
    parser.add_argument("--check", action="store_true",
                        help="compare with the goldens file instead of writing it; "
                             "exit 1 if any key differs")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent / "tests" / "goldens.json")
    args = parser.parse_args()

    print("normalizing constant Z")
    z_simpson = quadrature_integrate(
        lambda x: math.exp(example_target_logpdf(x)), -10.0, 10.0, tol=1e-12).value
    z_gl = gauss_legendre_integrate(
        lambda x: math.exp(example_target_logpdf(x)), -10.0, 10.0, panels=200).value
    _require("Z (Simpson vs GL)", z_simpson, z_gl, 1e-12)
    z_table = example_target_norm_const()
    _require("Z (Simpson vs knot table)", z_simpson, z_table, 1e-12)

    print("moments and CDF")
    ex2 = example_target_moment(2)
    ex2_gl = (gauss_legendre_integrate(
        lambda x: x * x * math.exp(example_target_logpdf(x)), -10.0, 10.0,
        panels=200).value / z_gl)
    _require("E[X^2]", ex2, ex2_gl, 1e-10)
    f1 = example_target_cdf(1.0)
    f1_simpson = quadrature_integrate(
        lambda x: math.exp(example_target_logpdf(x)), -10.0, 1.0,
        tol=1e-13).value / z_simpson
    _require("F(1)", f1, f1_simpson, 1e-10)

    print("gaussian functional expectation at mu = 2.5")
    g = gaussian_functional_expectation(2.5)
    g_gl = gauss_legendre_integrate(
        lambda x: cubic_ratio(x) * math.exp(-0.5 * (x - 2.5) ** 2)
        / math.sqrt(2.0 * math.pi), -9.5, 14.5, panels=200).value
    _require("gfe(2.5) (adaptive vs GL)", g, g_gl, 1e-10)
    if not args.quick:
        rng = rng_new(12345)
        total = 0.0
        n, chunk = 10**7, 10**5
        for _ in range(n // chunk):
            total += float(np.sum(cubic_ratio(normals(rng, chunk, 2.5, 1.0))))
        mc = total / n
        # iid MC error at 1e7 draws: sd(h) ~ 0.1 -> 3 se ~ 1e-4
        _require("gfe(2.5) (quadrature vs 1e7 MC)", g, mc, 3e-4)

    print("conjugate evidence for the seed-0 dataset")
    data = _synthetic_dataset(0)
    m0, m1 = get_model("conj-n01"), get_model("conj-n14")
    ev0 = analytic_log_evidence(m0, data)
    ev1 = analytic_log_evidence(m1, data)
    _require("log evidence m0 (closed vs quadrature)", ev0,
             numeric_log_evidence(m0, data).value, 1e-8)
    _require("log evidence m1 (closed vs quadrature)", ev1,
             numeric_log_evidence(m1, data).value, 1e-8)

    goldens = {
        "example_norm_const": z_simpson,
        "example_moment2": ex2,
        "example_cdf_1": f1,
        "gfe_2.5": g,
        "evidence_seed0": {
            "data_sum": float(np.sum(data)),
            "data_first": float(data[0]),
            "log_evidence_m0": ev0,
            "log_evidence_m1": ev1,
            "log_bayes_factor": ev0 - ev1,
        },
    }
    if args.check:
        return _check(goldens, args.out)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(goldens, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
