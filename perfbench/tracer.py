"""Layer tracing from outside the package.

The tracer replaces the names each calling module imported (for example
`mcstat.harness.sample_normal`, or `RngStream.next_float_open` on the class)
with timing wrappers, and restores them on `uninstall`. Every wrapper
attributes its call's self time (duration minus the time of wrapped calls
beneath it) to one layer, so the layers' self times add up to the traced
wall time of the calls made while the tracer is installed.

Two kinds of wrapper:

* coarse calls (experiments, chain runners, estimators, exports) keep a
  full span: name, layer, start, end and the id of the enclosing coarse
  span;
* per-draw calls (samplers, `logpdf`, `cubic_ratio`) are only aggregated
  into a call count and a total duration per name, so a pass with ~10^6
  draws holds no per-call record. A per-draw call made from inside its own
  layer (say `sample_normal` calling `next_float_open`) runs unwrapped: its
  time already belongs to the caller's self time.

`<layer>.calls` counts calls that cross into a layer from another layer or
from the benchmark, not calls a layer makes to itself.
"""

from __future__ import annotations

import time

import mcstat.harness
import mcstat.mcmc
import mcstat.rng
import mcstat.targets
from mcstat.rng import RngStream
from mcstat.targets import ConjugateNormalModel, TargetDensity

LAYERS = ("rng", "quadrature", "targets", "estimators", "mcmc", "harness", "svgplot")

# (owner, attribute, layer, coarse). The owner is the module or class whose
# attribute the calling code looks up at call time.
WRAP_POINTS = (
    # experiments and their shared pieces, called by the benchmark and by
    # each other
    (mcstat.harness, "figure1", "harness", True),
    (mcstat.harness, "figure2", "harness", True),
    (mcstat.harness, "figure3", "harness", True),
    (mcstat.harness, "evidence", "harness", True),
    (mcstat.harness, "run_envelope", "harness", True),
    (mcstat.harness, "export_csv", "harness", True),
    (mcstat.harness, "export_svg", "harness", True),
    # draws made by the harness and the chain kernels
    (mcstat.harness, "sample_normal", "rng", False),
    (mcstat.harness, "rng_new", "rng", False),
    (mcstat.harness, "derive_substream", "rng", False),
    (mcstat.mcmc, "sample_normal", "rng", False),
    (mcstat.mcmc, "sample_truncated_normal", "rng", False),
    (mcstat.rng, "rng_new", "rng", False),
    (mcstat.rng, "derive_substream", "rng", False),
    (RngStream, "next_float_open", "rng", False),
    # chain runners and calibration
    (mcstat.harness, "run_gibbs_chain", "mcmc", True),
    (mcstat.harness, "run_mh_chain", "mcmc", True),
    (mcstat.harness, "calibrate_scale_report", "mcmc", True),
    (mcstat.mcmc, "run_gibbs_chain", "mcmc", True),
    (mcstat.mcmc, "run_mh_chain", "mcmc", True),
    (mcstat.mcmc, "calibrate_scale_report", "mcmc", True),
    # targets: per-draw densities, oracles, the conjugate model
    (TargetDensity, "logpdf", "targets", False),
    (mcstat.harness, "cubic_ratio", "targets", False),
    (mcstat.harness, "gaussian_functional_expectation", "targets", True),
    (mcstat.harness, "example_target_cdf_many", "targets", True),
    (mcstat.harness, "example_target_pdf_many", "targets", True),
    (mcstat.harness, "analytic_log_evidence", "targets", True),
    (mcstat.harness, "posterior_params", "targets", True),
    (mcstat.harness, "get_model", "targets", True),
    (ConjugateNormalModel, "log_likelihood", "targets", True),
    (ConjugateNormalModel, "log_posterior_unnorm", "targets", True),
    (ConjugateNormalModel, "log_prior", "targets", True),
    # quadrature, as the targets module reaches it
    (mcstat.targets, "quadrature_integrate", "quadrature", True),
    # evidence estimators
    (mcstat.harness, "harmonic_mean_log_evidence", "estimators", True),
    (mcstat.harness, "bridge_log_evidence", "estimators", True),
    (mcstat.harness, "chib_log_evidence", "estimators", True),
    # SVG rendering
    (mcstat.harness, "svg_line_plot", "svgplot", True),
    (mcstat.harness, "svg_histogram", "svgplot", True),
)


def _qualname(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__name__}.{attr}"
    return f"{owner.__name__}.{attr}"


class Tracer:
    """Installs the wrappers and accumulates spans, counts and self times.

    Self time is kept as a timeline: at every wrapped entry and exit, the
    time since the previous one is added to the layer that was running, the
    innermost wrapped call's layer (None for the benchmark's own code).
    """

    def __init__(self) -> None:
        self._stack: list[str | None] = [None]
        self._span_stack: list[int] = [-1]
        self._last = [0.0]
        self._originals: list[tuple[object, str, object]] = []
        self.self_s: dict[str | None, float] = dict.fromkeys((None, *LAYERS), 0.0)
        # layer -> [calls into the layer]
        self.layer_calls = {layer: [0] for layer in LAYERS}
        # per-draw name -> [calls, total seconds]
        self.fine: dict[str, list] = {}
        # [name, layer, start, end, parent span id]
        self.spans: list[list] = []
        self.quadrature_evals = 0

    def reset(self) -> None:
        """Forget everything recorded so far; the wrappers stay installed."""
        for key in self.self_s:
            self.self_s[key] = 0.0
        for cell in self.layer_calls.values():
            cell[0] = 0
        for cell in self.fine.values():
            cell[0] = 0
            cell[1] = 0.0
        self.spans.clear()
        self.quadrature_evals = 0
        self._last[0] = time.perf_counter()

    def exclude(self, seconds: float) -> None:
        """Leave out `seconds` just spent outside the program, such as probing
        CPUs from a signal handler, from every layer's self time."""
        self._last[0] += seconds

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer, coarse in WRAP_POINTS:
            layer = LAYERS[LAYERS.index(layer)]  # wrappers compare layers by identity
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            name = _qualname(owner, attr)
            wrapper = (self._coarse(original, name, layer) if coarse
                       else self._fine(original, name, layer))
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        self.reset()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers -------------------------------------------------------

    def _fine(self, fn, name: str, layer: str):
        stack, last, self_s = self._stack, self._last, self.self_s
        agg = self.fine.setdefault(name, [0, 0.0])
        calls = self.layer_calls[layer]
        clock = time.perf_counter

        def wrapper(*args):
            if stack[-1] is layer:
                return fn(*args)
            t0 = clock()
            self_s[stack[-1]] += t0 - last[0]
            stack.append(layer)
            last[0] = t0
            try:
                return fn(*args)
            finally:
                t1 = clock()
                self_s[layer] += t1 - last[0]
                stack.pop()
                last[0] = t1
                calls[0] += 1
                agg[0] += 1
                agg[1] += t1 - t0

        wrapper.__wrapped__ = fn
        return wrapper

    def _coarse(self, fn, name: str, layer: str):
        stack, last, self_s = self._stack, self._last, self.self_s
        span_ids, spans = self._span_stack, self.spans
        calls = self.layer_calls[layer]
        tracer = self
        clock = time.perf_counter
        observe_evals = name.endswith(".quadrature_integrate")

        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, span_ids[-1]]
            spans.append(span)
            span_ids.append(len(spans) - 1)
            if stack[-1] is not layer:
                calls[0] += 1
            t0 = clock()
            self_s[stack[-1]] += t0 - last[0]
            stack.append(layer)
            last[0] = t0
            try:
                result = fn(*args, **kwargs)
                if observe_evals:
                    tracer.quadrature_evals += result.evaluations
                return result
            finally:
                t1 = clock()
                self_s[layer] += t1 - last[0]
                stack.pop()
                last[0] = t1
                span_ids.pop()
                span[2] = t0
                span[3] = t1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        return {layer: self.self_s[layer] for layer in LAYERS}

    def calls(self) -> dict[str, int]:
        return {layer: cell[0] for layer, cell in self.layer_calls.items()}

    def dump(self) -> dict:
        """Spans and per-draw aggregates as JSON-ready data."""
        t_base = min((s[2] for s in self.spans), default=0.0)
        return {
            "spans": [{"id": i, "name": s[0], "layer": s[1],
                       "start_s": s[2] - t_base, "end_s": s[3] - t_base,
                       "parent": s[4]} for i, s in enumerate(self.spans)],
            "per_draw": {name: {"calls": c, "seconds": sec}
                         for name, (c, sec) in self.fine.items() if c},
            "layers": {layer: {"calls": self.layer_calls[layer][0],
                               "self_s": self.self_s[layer]} for layer in LAYERS},
            "quadrature_evals": self.quadrature_evals,
        }
