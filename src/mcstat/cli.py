"""Command line entry point for the experiment harness.

Exit codes: 0 on success, 1 on validation problems (bad flags, bad config
values, unreadable config file), 2 on failure while running (calibration
miss, quadrature budget, degenerate weights, I/O, an allocation too large
for memory).

Options may also come from a flat key=value config file via --config;
explicit command line flags win over file values, which win over defaults.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import EXPERIMENTS, ConfigError, ExperimentConfig, run_experiment

__all__ = ["main", "build_config"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; here that is a
    # validation error and must be status 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_scale(text: str):
    if text == "auto":
        return "auto"
    # The range check is ExperimentConfig's, made when it is built.
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"scale must be a number or 'auto', got {text!r}") from None


# One row per ExperimentConfig field except `experiment`:
# field -> (flag, converter, help). A flag's config-file key is its name
# with underscores (--burn-in -> burn_in, --out -> out).
_OPTIONS = {
    "seed": ("--seed", int,
             "root seed; replications use derived substreams (default 0)"),
    "runs": ("--runs", int, "number of independent replications (default 100)"),
    "iters": ("--iters", int, "iterations per replication (default 10000)"),
    "mu": ("--mu", float, "sampling mean for figure1 (default 0)"),
    "scale": ("--scale", _parse_scale,
              "figure3 proposal scale, or 'auto' to calibrate (default auto)"),
    "target_accept": ("--target-accept", float,
                      "acceptance rate targeted by auto calibration (default 0.5)"),
    "burn_in": ("--burn-in", int, "chain burn-in steps (default: 10%% of iters)"),
    "out_dir": ("--out", Path, "output directory for CSV/SVG files"),
}
_FILE_KEYS = {flag[2:].replace("-", "_"): name
              for name, (flag, _, _) in _OPTIONS.items()}


def _build_parser() -> _Parser:
    p = _Parser(prog="mcstat",
                description="Monte Carlo / MCMC convergence and evidence experiments")
    p.add_argument("experiment", choices=EXPERIMENTS,
                   help="which experiment to run")
    for name, (flag, convert, help_text) in _OPTIONS.items():
        p.add_argument(flag, type=convert, default=None, dest=name, help=help_text)
    p.add_argument("--config", type=Path, default=None,
                   help="flat key=value file supplying defaults for the flags above")
    return p


def _load_config_file(path: Path) -> dict:
    """Parse a flat key=value file; '#' starts a comment, blank lines skipped.
    A key set twice is a ConfigError naming both lines."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict = {}
    set_on: dict = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} "
                              f"(known: {', '.join(_FILE_KEYS)})")
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is set twice, on lines "
                              f"{set_on[key]} and {lineno}")
        set_on[key] = lineno
        name = _FILE_KEYS[key]
        try:
            values[name] = _OPTIONS[name][1](val)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge CLI flags over config-file values over defaults."""
    file_vals = _load_config_file(args.config) if args.config else {}
    merged = {}
    for name in _OPTIONS:
        cli_val = getattr(args, name)
        if cli_val is not None:
            merged[name] = cli_val
        elif name in file_vals:
            merged[name] = file_vals[name]
    if "out_dir" not in merged:
        raise ConfigError("an output directory is required: pass --out DIR "
                          "or set out= in the config file")
    return ExperimentConfig(experiment=args.experiment, **merged)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except ConfigError as exc:
        print(f"mcstat: error: {exc}", file=sys.stderr)
        return 1
    try:
        result = run_experiment(config)
    # CalibrationError and QuadratureError are RuntimeErrors. A config can
    # pass validation and still ask for more memory than the host has.
    except (ValueError, RuntimeError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"mcstat: {config.experiment} failed: {exc}", file=sys.stderr)
        return 2
    print(f"{config.experiment}: wrote {len(result.files)} files to {config.out_dir}")
    for key in ("reference_value", "measured_acceptance", "scale", "tv_distance",
                "analytic_log_bf"):
        if key in result.info:
            print(f"  {key} = {result.info[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
