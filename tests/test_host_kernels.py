"""Guard: no new SIMD-dispatched transcendental or BLAS product in mcstat.

numpy picks its exp, log, log1p and logaddexp loops by CPU feature, and
np.dot and `@` go to whichever BLAS kernel OpenBLAS picks, so their bits can
differ between hosts where libm's (rng._libm) and plain + - * / cannot.
ROADMAP item 1 removes them from every path that feeds a CSV. Until then
each site that exists today is allowed here, marked "item 1 debt" with the
CSVs it reaches; any other site fails, and so does an entry whose site is
gone.
"""

import ast
from collections import Counter
from pathlib import Path

import mcstat

_WATCHED = {"exp", "log", "log1p", "logaddexp", "dot"}

_EVIDENCE_CSVS = "evidence_m0.csv, evidence_m1.csv, bayes_factors.csv and evidence's info.csv"

# (file, function): ({operation: count}, the CSVs its result reaches)
_ALLOWED = {
    ("estimators.py", "_logsumexp_rows"): (
        {"np.exp": 1, "np.log": 1},
        f"item 1 debt: the bridge's log evidence, in {_EVIDENCE_CSVS}"),
    ("estimators.py", "_bridge_rows"): (
        {"np.logaddexp": 2},
        f"item 1 debt: the bridge's log evidence, in {_EVIDENCE_CSVS}"),
    ("estimators.py", "_harmonic_rows"): (
        {"np.log": 1},
        f"item 1 debt: the harmonic mean's log evidence, in {_EVIDENCE_CSVS}"),
    ("estimators.py", "_shifted_rows"): (
        {"np.exp": 1, "np.dot": 1},
        f"item 1 debt: the harmonic mean's log evidence and ESS, in {_EVIDENCE_CSVS}; "
        f"also ess and self_normalized_is, which no experiment writes to a CSV"),
    ("estimators.py", "self_normalized_is"): (
        {"np.dot": 2},
        "item 1 debt: the SNIS estimate and its bootstrap; no experiment writes "
        "them to a CSV"),
    ("targets.py", "_pdf_unnorm_many"): (
        {"np.exp": 1},
        "item 1 debt: the oracle density, in hist.csv's oracle_mass (figure2, figure3)"),
    ("targets.py", "_oracle_table"): (
        {"@": 1},
        "item 1 debt: the oracle's panel masses, in hist.csv's oracle_mass"),
    ("targets.py", "example_target_cdf_many"): (
        {"@": 1},
        "item 1 debt: the oracle CDF, in hist.csv's oracle_mass"),
    ("targets.py", "_suff_stats_of"): (
        {"np.dot": 1},
        f"item 1 debt: the data's sum of squares behind the analytic truths, in "
        f"{_EVIDENCE_CSVS}"),
}


def _sites(tree: ast.AST) -> Counter:
    """Count (function, operation) over `tree`: each np.<watched> attribute,
    each `.dot` method, each `@` and `@=`, under its enclosing function's
    dotted name ("" at module level)."""
    found = Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Attribute) and (
                    child.attr == "dot" or (child.attr in _WATCHED
                                            and isinstance(child.value, ast.Name)
                                            and child.value.id in ("np", "numpy"))):
                found[(scope, f"np.{child.attr}")] += 1
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and \
                    isinstance(child.op, ast.MatMult):
                found[(scope, "@")] += 1
            elif isinstance(child, ast.ImportFrom) and child.module == "numpy":
                for alias in child.names:
                    if alias.name in _WATCHED:
                        found[(scope, f"np.{alias.name}")] += 1
            visit(child, scope)

    visit(tree, "")
    return found


def test_the_guard_sees_every_form_of_a_site():
    tree = ast.parse(
        "from numpy import exp\n"
        "def f(a, b):\n"
        "    a @= b\n"
        "    def g(x):\n"
        "        return np.log(x) + numpy.log1p(x) + x.dot(x)\n"
        "    return np.logaddexp(a @ b, 0.0)\n")
    assert _sites(tree) == Counter({
        ("", "np.exp"): 1, ("f", "@"): 2, ("f", "np.logaddexp"): 1,
        ("f.g", "np.log"): 1, ("f.g", "np.log1p"): 1, ("f.g", "np.dot"): 1})


def test_simd_and_blas_kernels_appear_only_at_the_allowed_sites():
    src = Path(mcstat.__file__).parent
    found = Counter()
    for path in sorted(src.glob("*.py")):
        for (scope, op), n in _sites(ast.parse(path.read_text(encoding="utf-8"))).items():
            found[(path.name, scope, op)] += n
    allowed = Counter({(f, scope, op): n for (f, scope), (ops, reason) in _ALLOWED.items()
                       for op, n in ops.items()})
    assert all(reason.startswith("item 1 debt: ") for _, reason in _ALLOWED.values())
    new = found - allowed
    assert not new, (f"{dict(new)}: use rng._libm for transcendentals and np.sum of "
                     f"products for sums of squares (ROADMAP item 1)")
    gone = allowed - found
    assert not gone, f"{dict(gone)}: remove the allowlist entries of sites that are gone"
