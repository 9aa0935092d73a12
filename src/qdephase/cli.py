"""Command-line front end: evolve, region, critical, validate.

Scenario parameters come from a flat key=value config file (see
``CONFIG_KEYS``); flags override config values.  Exit codes: 0 success,
1 numerical or validation failure, 2 usage, config, domain or I/O error,
3 empty gain region (no bracket).  All diagnostics go to stderr; results go to
stdout or --out.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import TimeGrid, _critical, distance_series, region_map
from .bath import BathSpec, DisplacementSpec, ModelSpec
from .dynamics import QubitAmplitudes
from .errors import DomainError, PhysicalityError, QDephaseError
from .numerics import QuadratureSettings
from .validation import run_all

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_NO_BRACKET = 3

CSV_HEADER = "t,distance,abs_A1,abs_A2,r,s,phi"
# one row of floats: "%.17g" % v is the C conversion of f"{v:.17g}"
_CSV_ROW = ",".join(["%.17g"] * len(CSV_HEADER.split(","))) + "\n"

_FLOAT_KEYS = (
    "alpha", "gamma", "mu", "nu", "omega_c", "epsilon",
    "lambda1", "lambda2", "b_plus", "b_minus",
    "t_min", "t_max", "abs_tol", "rel_tol",
)
_INT_KEYS = ("points",)
_STR_KEYS = ("grid", "backend", "out")
_BOOL_KEYS = ("normalized",)
CONFIG_KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS + _BOOL_KEYS

_DEFAULTS = {
    "epsilon": 1.0,
    "omega_c": 1.0,
    "lambda2": 0.0,
    "t_min": 1e-3,
    "t_max": 1e4,
    "points": 400,
    "grid": "log",
    "backend": "closed_form",
    "normalized": False,
}

_BACKEND_ALIASES = {
    "closed": "closed_form",
    "closed_form": "closed_form",
    "quad": "quadrature",
    "quadrature": "quadrature",
}


class ConfigError(DomainError):
    """Malformed or incomplete scenario configuration."""


def parse_config(path: str) -> dict:
    """Read a flat key=value file; unknown or duplicate keys are rejected."""
    values: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if key in _FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} needs a number, got {value!r}")
        elif key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} needs an integer, got {value!r}")
        elif key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered not in ("true", "false", "0", "1"):
                raise ConfigError(f"{path}:{lineno}: {key} needs true/false, got {value!r}")
            values[key] = lowered in ("true", "1")
        else:
            values[key] = value
    return values


def _scenario(cfg: dict) -> dict:
    """The merged config, plus the library objects built from it."""
    merged = {**_DEFAULTS, **cfg}
    for key in ("alpha", "gamma", "mu", "nu"):
        if key not in merged:
            raise ConfigError(f"missing required config key {key!r}")
    has_bp, has_bm = "b_plus" in merged, "b_minus" in merged
    if has_bp != has_bm:
        raise ConfigError("b_plus and b_minus must be given together")
    if has_bp:
        amplitudes = QubitAmplitudes(complex(merged["b_plus"]), complex(merged["b_minus"]))
    else:
        amplitudes = QubitAmplitudes.balanced()
    backend = _BACKEND_ALIASES.get(str(merged["backend"]))
    if backend is None:
        raise ConfigError(f"backend must be 'closed' or 'quad', got {merged['backend']!r}")
    return {
        **merged,
        "model": ModelSpec(
            epsilon=merged["epsilon"],
            bath=BathSpec(alpha=merged["alpha"], mu=merged["mu"], omega_c=merged["omega_c"]),
            displacement=DisplacementSpec(gamma_coef=merged["gamma"], nu=merged["nu"]),
        ),
        "amplitudes": amplitudes,
        "backend": backend,
        "settings": QuadratureSettings(
            **{key: merged[key] for key in ("abs_tol", "rel_tol") if key in merged}
        ),
    }


def _load(args: argparse.Namespace) -> dict:
    """The scenario of the config file, with the config-key flags given on top."""
    cfg = parse_config(args.config) if args.config else {}
    cfg.update((key, value) for key, value in vars(args).items() if key in CONFIG_KEYS)
    return _scenario(cfg)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _parse_range(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be lo:hi:n, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"range must be lo:hi:n with numeric fields, got {spec!r}")
    if n < 1:
        raise ConfigError(f"range needs at least one point, got {spec!r}")
    if not -math.inf < lo <= hi < math.inf:
        raise ConfigError(f"range must satisfy lo <= hi with finite ends, got {spec!r}")
    try:
        return np.linspace(lo, hi, n)
    except (ValueError, MemoryError):
        raise DomainError(f"range of {n} points does not fit in memory, got {spec!r}")


def cmd_evolve(args: argparse.Namespace) -> int:
    scenario = _load(args)
    if "lambda1" not in scenario:
        raise ConfigError("missing required config key 'lambda1'")
    series = distance_series(
        scenario["model"],
        scenario["lambda1"],
        scenario["lambda2"],
        amplitudes=scenario["amplitudes"],
        grid=TimeGrid(scenario["grid"], scenario["t_min"], scenario["t_max"], scenario["points"]),
        backend=scenario["backend"],
        settings=scenario["settings"],
        normalized=scenario["normalized"],
    )
    rows = "".join(map(_CSV_ROW.__mod__, series.rows()))
    _emit(f"{CSV_HEADER}\n{rows}", scenario.get("out"))
    return EXIT_OK


def cmd_region(args: argparse.Namespace) -> int:
    scenario = _load(args)
    plane_parts = args.plane.split(",")
    if len(plane_parts) != 2:
        raise ConfigError(f"--plane must be X,Y, got {args.plane!r}")
    x_name, y_name = plane_parts[0].strip(), plane_parts[1].strip()
    result = region_map(
        scenario["model"],
        scenario.get("lambda1", 0.25),
        scenario["lambda2"],
        plane=(x_name, y_name),
        x_values=_parse_range(args.x_range),
        y_values=_parse_range(args.y_range),
        refine_boundary=args.refine_boundary,
    )
    payload = {
        "axes": {
            "x": {"name": x_name, "values": result.x_values.tolist()},
            "y": {"name": y_name, "values": result.y_values.tolist()},
        },
        "labels": result.labels,
        "gain_ratio": result.gain,
    }
    if args.refine_boundary:
        payload["boundary"] = result.boundary_points
    _emit(json.dumps(payload, indent=2) + "\n", scenario.get("out"))
    return EXIT_OK


def cmd_critical(args: argparse.Namespace) -> int:
    scenario = _load(args)
    parts = args.bracket.split(":")
    if len(parts) != 2:
        raise ConfigError(f"--bracket must be lo:hi, got {args.bracket!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"--bracket must be numeric lo:hi, got {args.bracket!r}")

    # the ratio is symmetric in the weights: --vary names the one searched
    fixed = scenario["lambda2"] if args.vary == "lambda1" else scenario.get("lambda1", 0.25)
    lambda_c, *ratios = _critical(scenario["model"], fixed, (lo, hi), args.tol)
    ratio_lo, ratio_hi = (r if r is not None and math.isfinite(r) else None for r in ratios)
    payload = {
        "lambda_c": lambda_c,
        "ratio_lo": ratio_lo,
        "ratio_hi": ratio_hi,
        "status": "no-bracket" if lambda_c is None else "ok",
    }
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_NO_BRACKET if lambda_c is None else EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    results = run_all(
        samples=args.samples,
        rel_tol=args.tol,
        seed=args.seed,
        double_s_offset=args.debug_double_s_offset,
    )
    for result in results:
        sys.stdout.write(result.line() + "\n")
    if all(result.passed for result in results):
        sys.stdout.write("all suites passed\n")
        return EXIT_OK
    sys.stdout.write("validation FAILED\n")
    return EXIT_NUMERICAL


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdephase",
        description=(
            "Exact qubit dephasing with correlated initial environment states: "
            "trace-distance series, gain/loss region maps, critical correlation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="emit a distance time series as CSV")
    p_evolve.add_argument("--config", help="key=value scenario file")
    p_evolve.add_argument("--t-max", type=float, dest="t_max", default=argparse.SUPPRESS)
    p_evolve.add_argument("--points", type=_positive_int, default=argparse.SUPPRESS)
    p_evolve.add_argument("--grid", choices=("linear", "log"), default=argparse.SUPPRESS)
    p_evolve.add_argument("--backend", choices=("closed", "quad"), default=argparse.SUPPRESS)
    p_evolve.add_argument(
        "--normalized", action="store_true", default=argparse.SUPPRESS,
        help="divide the distance column by |b+ b-*|",
    )
    p_evolve.add_argument("--out", default=argparse.SUPPRESS, help="output path (default stdout)")
    p_evolve.set_defaults(handler=cmd_evolve)

    p_region = sub.add_parser("region", help="classify a parameter plane as JSON")
    p_region.add_argument("--config", help="key=value scenario file")
    p_region.add_argument("--plane", required=True, help="X,Y parameter names")
    p_region.add_argument("--x-range", required=True, dest="x_range", help="lo:hi:n")
    p_region.add_argument("--y-range", required=True, dest="y_range", help="lo:hi:n")
    p_region.add_argument("--refine-boundary", action="store_true", dest="refine_boundary")
    p_region.add_argument("--out", default=argparse.SUPPRESS, help="output path (default stdout)")
    p_region.set_defaults(handler=cmd_region)

    p_critical = sub.add_parser("critical", help="bisect the critical correlation")
    p_critical.add_argument("--config", help="key=value scenario file")
    p_critical.add_argument("--vary", choices=("lambda1", "lambda2"), default="lambda1")
    p_critical.add_argument("--bracket", default="0.01:0.99", help="lo:hi")
    p_critical.add_argument("--tol", type=float, default=1e-4)
    p_critical.set_defaults(handler=cmd_critical)

    p_validate = sub.add_parser("validate", help="run the self-validation suites")
    p_validate.add_argument("--samples", type=_positive_int, default=100)
    p_validate.add_argument("--tol", type=float, default=1e-6)
    p_validate.add_argument("--seed", type=int, default=42)
    p_validate.add_argument(
        "--debug-double-s-offset", action="store_true", dest="debug_double_s_offset",
        help="debugging aid: double the static offset in s(0); the "
        "overlap-consistency suite must then fail",
    )
    p_validate.set_defaults(handler=cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built once per process: parse_args keeps no state in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (DomainError, PhysicalityError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except QDephaseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
