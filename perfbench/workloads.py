"""Seeded inputs, timed operations and correctness checks of each workload.

Inputs are plain dicts drawn with the standard library's ``random`` from a
string seed ``"<workload>/<seed>/<pass>"``, so they depend on the seed alone
and never on the library under test.  Pass ``-1`` is the warm-up pass; its
stream is disjoint from the timed passes.  Every op draws its own model, so
no two timed ops share a ``ModelSpec``.

``make_ops`` gives a pass's inputs, ``run_op`` is the timed call into the
library and ``CHECKS[workload]`` checks one result after the timed region,
returning a list of failure messages.  A ``QDephaseError`` or arithmetic error raised by an op
counts as a failed op; any other exception means the benchmark cannot drive
the library and aborts the run.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import importlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import replace

WORKLOADS = ("series", "plane", "quad", "cli")

# Ops per pass: one pass is the unit that ``wall_s`` times.
PASS_OPS = {"series": 100, "plane": 100, "quad": 16, "cli": 25}

# Check every n-th op of a pass (series/plane sample, quad/cli check all),
# in the first CHECK_PASSES passes.  Later results are dropped unchecked:
# kept results grow the process (a cli pass keeps ~1 MB of output), and
# peak_rss_mb must not grow with the number of passes the machine allowed.
CHECK_EVERY = {"series": 25, "plane": 20, "quad": 1, "cli": 1}
CHECK_PASSES = 4

# Parameter names of region-map planes (mirrors the library's
# PLANE_PARAMETERS) and the declared axis domain of each.
PLANE_AXES = {
    "alpha": (1e-5, 0.02),
    "gamma": (0.005, 0.5),
    "mu": (0.002, 1.0),
    "nu": (0.01, 1.0),
    "lambda1": (0.02, 0.98),
    "lambda2": (0.0, 0.98),
}
PLANE_POINTS = 30

BRACKET = (0.01, 0.99)
LAMBDA_TOL = 1e-4
TIE_TOL = 1e-9
SERIES_TOL = 1e-12
QUAD_ABS_FLOOR = 1e-8
QUAD_REL = 1e-6
ABS_A_TOL = 1e-9

# The pinned weak-coupling benchmark model of the acceptance suite.
BENCHMARK_MODEL = {"alpha": 0.0025, "mu": 0.01, "gamma": 0.05, "nu": 0.05, "epsilon": 1.0}

CLI_TIMEOUT_S = 120

# Sub-ohmic quad ops (mu <= 0) end their grid at t <= 10**SUB_OHMIC_LOG_T_MAX.
# Beyond about t = 4e3 the quadrature r(t) kernel raises ConvergenceError for
# mu below about -0.62; that corner is a probe in KNOWN_DEFECTS, not a timed op.
SUB_OHMIC_LOG_T_MAX = 3.5

# ``validate`` ops take the seeds 1, 2, 3, ... in order, skipping those on
# which a suite fails (probes in KNOWN_DEFECTS instead), so no seed repeats
# inside a run.  The library draws validate's models from that seed, and
# their quadrature cost varies (per-op CV ~0.4, ~70% of a pass): every run
# takes the same sequence so that this does not spread runs of other seeds.
VALIDATE_SEED_MAX = 2048
VALIDATE_FAILING = (1831,)
VALIDATE_SEEDS = tuple(s for s in range(1, VALIDATE_SEED_MAX + 1) if s not in VALIDATE_FAILING)
VALIDATE_SAMPLES = 5

# Inputs that fail at the first benchmarked commit.  A workload's timed ops
# stay clear of them, so that no timed op fails; every run of the workload
# runs them after its timed region and reports which still fail
# (``known_defects_failing``), so a fix or a new wrong result shows.
KNOWN_DEFECTS = {
    "quad": (
        {"alpha": 0.01, "mu": -0.9, "gamma": 0.05, "nu": 0.5, "epsilon": 1.0,
         "lambda1": 0.25, "lambda2": 0.0, "t_min": 1e-3, "t_max": 1e4},
    ),
    "cli": tuple(
        {"kind": "validate", "samples": VALIDATE_SAMPLES, "seed": s}
        for s in (*VALIDATE_FAILING, 65712907)
    ),
}

# Check messages with this prefix mark an op whose result is right but is a
# documented failure of the library (exit 1 of ``validate``); they count as
# failed ops, not as wrong results.
OP_FAILED = "op failed: "


def rng_for(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _scenario(rng: random.Random) -> dict:
    """A closed-form scenario: alpha, mu >= 0, gamma, nu, epsilon, lambdas."""
    return {
        "alpha": _log_uniform(rng, 10**-3.5, 10**-1.5),
        "mu": rng.uniform(0.0, 1.0),
        "gamma": _log_uniform(rng, 1e-2, 10**-0.5),
        "nu": rng.uniform(0.02, 1.0),
        "epsilon": rng.uniform(0.0, 2.0),
        "lambda1": rng.uniform(0.0, 1.0),
        "lambda2": rng.uniform(0.0, 1.0),
    }


def _template(rng: random.Random) -> dict:
    """A plane template near the weak-coupling gain regime."""
    return {
        "alpha": _log_uniform(rng, 1e-3, 6e-3),
        "mu": rng.uniform(0.005, 0.05),
        "gamma": _log_uniform(rng, 0.02, 0.1),
        "nu": rng.uniform(0.02, 0.1),
        "epsilon": rng.uniform(0.5, 1.5),
        "lambda1": rng.uniform(0.15, 0.35),
        "lambda2": rng.uniform(0.0, 0.05),
    }


PLANE_PAIRS = tuple(itertools.combinations(sorted(PLANE_AXES), 2))


def _plane(rng: random.Random, pair: tuple[str, str] | None = None) -> dict:
    """A plane over ``pair`` (random if None) in random orientation and ranges."""
    pair = pair or rng.choice(PLANE_PAIRS)
    x_name, y_name = pair if rng.random() < 0.5 else pair[::-1]
    out = {"plane": (x_name, y_name)}
    for axis, name in (("x", x_name), ("y", y_name)):
        lo, hi = PLANE_AXES[name]
        span = hi - lo
        out[f"{axis}_range"] = (lo + span * rng.uniform(0.0, 0.3), hi - span * rng.uniform(0.0, 0.3))
    return out


def _cells(rng: random.Random, count: int) -> list[tuple[int, int]]:
    return [(rng.randrange(PLANE_POINTS), rng.randrange(PLANE_POINTS)) for _ in range(count)]


def _strata(rng: random.Random, n: int) -> list[float]:
    """n values in [0, 1), one in each of n equal strata, in random order."""
    values = [(j + rng.random()) / n for j in range(n)]
    rng.shuffle(values)
    return values


def _series_ops(rng: random.Random, n: int) -> list[dict]:
    ops = []
    for i in range(n):
        op = _scenario(rng)
        op["normalized"] = i % 2 == 1
        op["check_points"] = [0, rng.randrange(1, 399), 399]
        ops.append(op)
    return ops


def _plane_ops(rng: random.Random, n: int) -> list[dict]:
    # every pass covers the parameter pairs evenly, in random order
    pairs = [PLANE_PAIRS[i % len(PLANE_PAIRS)] for i in range(n)]
    rng.shuffle(pairs)
    return [
        {"model": _template(rng), **_plane(rng, pair), "check_cells": _cells(rng, 3)}
        for pair in pairs
    ]


def _quad_ops(rng: random.Random, n: int) -> list[dict]:
    # mu classes in the ratio 3:3:2 -- (-1, 0], [0, 1], (1, 2] -- with mu and
    # the grid ends stratified, so every pass carries the same mix of work
    classes = [min(i * 8 // n, 7) for i in range(n)]
    neg = _strata(rng, sum(c < 3 for c in classes))
    mid = _strata(rng, sum(3 <= c < 6 for c in classes))
    high = _strata(rng, sum(c >= 6 for c in classes))
    t_lo, t_hi = _strata(rng, n), _strata(rng, n)
    ops = []
    for i, c in enumerate(classes):
        op = _scenario(rng)
        op["mu"] = -neg.pop() if c < 3 else mid.pop() if c < 6 else 2.0 - high.pop()
        op["alpha"] = _log_uniform(rng, 1e-4, 1e-1)
        op["gamma"] = _log_uniform(rng, 1e-3, 10**-0.5)
        op["nu"] = rng.uniform(0.05, 1.5)
        op["t_min"] = 10.0 ** (-3.0 + t_lo[i])
        op["t_max"] = 10.0 ** (3.0 + t_hi[i] * (SUB_OHMIC_LOG_T_MAX - 3.0 if c < 3 else 1.0))
        ops.append(op)
    return ops


def make_ops(workload: str, seed: int, k: int) -> list[dict]:
    """The op inputs of pass k (k = -1 is the warm-up pass, one op)."""
    rng = rng_for(workload, seed, k)
    n = PASS_OPS[workload] if k >= 0 else 1
    if workload == "series":
        return _series_ops(rng, n)
    if workload == "plane":
        return _plane_ops(rng, n)
    if workload == "quad":
        return _quad_ops(rng, n)
    if workload == "cli":
        ops = [_cli_op(rng, i % len(CLI_KINDS)) for i in range(n)]
        validates = [op for op in ops if op["kind"] == "validate"]
        for j, op in enumerate(validates):
            op["seed"] = VALIDATE_SEEDS[(k * len(validates) + j) % len(VALIDATE_SEEDS)]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


CLI_KINDS = ("evolve", "region", "critical-lambda1", "critical-lambda2", "validate")


def _cli_op(rng: random.Random, slot: int) -> dict:
    kind = CLI_KINDS[slot]
    if kind == "evolve":
        model = _scenario(rng)
        return {"kind": kind, "model": model, "normalized": rng.random() < 0.5}
    if kind == "validate":
        return {"kind": kind, "samples": VALIDATE_SAMPLES}
    op = {"kind": kind, "model": _template(rng)}
    if kind == "region":
        op.update(_plane(rng))
    return op


# ---------------------------------------------------------------- library glue


def build_model(lib, p: dict):
    return lib.ModelSpec(
        epsilon=p["epsilon"],
        bath=lib.BathSpec(alpha=p["alpha"], mu=p["mu"]),
        displacement=lib.DisplacementSpec(gamma_coef=p["gamma"], nu=p["nu"]),
    )


def failure_types(lib) -> tuple:
    """Exceptions that count as a failed op rather than aborting the run.

    Besides the library's own errors, raw arithmetic and value errors that
    escape it are failures of the op (a defect of the library), not of the
    benchmark.
    """
    return (lib.QDephaseError, ArithmeticError, ValueError)


def _axis(lo: float, hi: float):
    import numpy as np

    return np.linspace(lo, hi, PLANE_POINTS)


def run_op(lib, workload: str, op: dict):
    """The timed call.  Returns the op's result for ``check``."""
    if workload == "series":
        model = build_model(lib, op)
        series = lib.distance_series(model, op["lambda1"], op["lambda2"], normalized=op["normalized"])
        return series, lib.find_extremum(series)
    if workload == "plane":
        model = build_model(lib, op["model"])
        t = op["model"]
        rmap = lib.region_map(
            model, t["lambda1"], t["lambda2"], plane=op["plane"],
            x_values=_axis(*op["x_range"]), y_values=_axis(*op["y_range"]),
            refine_boundary=True,
        )
        try:
            lam = lib.find_lambda_c(model, t["lambda2"])
        except lib.NoBracketError:
            lam = None
        return rmap, lam
    if workload == "quad":
        model = build_model(lib, op)
        grid = lib.TimeGrid(kind="log", t_min=op["t_min"], t_max=op["t_max"], points=8)
        return lib.distance_series(
            model, op["lambda1"], op["lambda2"], grid=grid, backend="quadrature"
        )
    if workload == "cli":
        return run_cli(lib, op)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- reference

# The reference has a pure-Python float loop (about 20 ms) and a numpy array
# expression (about 30 ms): the library's time is split between the two kinds.
REFERENCE_ITERATIONS = 40_000
REFERENCE_ARRAY = 200_000
REFERENCE_ARRAY_REPEATS = 4

# Time the reference before every n-th op of an untraced pass and once after
# it: about every half second, so it follows the machine through the pass.
REFERENCE_EVERY = {"series": 100, "plane": 20, "quad": 4, "cli": 25}


@functools.lru_cache(maxsize=None)
def _reference_grid():
    import numpy as np

    return np.linspace(0.01, 40.0, REFERENCE_ARRAY)


def _reference_kernel(w) -> float:
    import numpy as np

    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        z = cmath.exp(complex(0.0, i * 1e-3))
        acc += math.exp(-i * 1e-5) * abs(z) + math.atan(i * 1e-3)
    for _ in range(REFERENCE_ARRAY_REPEATS):
        acc += float((w**-0.7 * np.exp(-w) * np.cos(3.0 * w)).sum())
    return acc


def time_reference() -> float:
    """Seconds taken by a fixed computation that never touches the library.

    The host this benchmark was tuned on runs the same code up to 2x slower
    for stretches of seconds to minutes.  A reference timed through each
    pass slows down with it, so pass time over reference time stays put
    while raw times move.  Like the library, it mixes scalar Python float
    code and numpy array code; with both parts the ratio repeated between
    passes about a third better than with either part alone.  It is timed
    before every REFERENCE_EVERY-th op of an untraced pass and after its
    last op, and the pass is divided by the mean of those timings.
    """
    w = _reference_grid()
    start = time.perf_counter()
    _reference_kernel(w)
    return time.perf_counter() - start


# ---------------------------------------------------------------- cli ops


def _config_text(model: dict, extra: dict) -> str:
    keys = {
        "alpha": model["alpha"], "gamma": model["gamma"], "mu": model["mu"],
        "nu": model["nu"], "epsilon": model["epsilon"],
        "lambda1": model["lambda1"], "lambda2": model["lambda2"], **extra,
    }
    return "".join(f"{k}={v!r}\n" if isinstance(v, float) else f"{k}={v}\n" for k, v in keys.items())


def cli_argv(op: dict, workdir: str, index: int) -> list[str]:
    """Write the op's config file and return the CLI argument list."""
    kind = op["kind"]
    if kind == "validate":
        return ["validate", "--samples", str(op["samples"]), "--seed", str(op["seed"])]
    extra = {"normalized": "true" if op.get("normalized") else "false"} if kind == "evolve" else {}
    path = os.path.join(workdir, f"op{index}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_config_text(op["model"], extra))
    if kind == "evolve":
        return ["evolve", "--config", path]
    if kind == "region":
        (x_lo, x_hi), (y_lo, y_hi) = op["x_range"], op["y_range"]
        return [
            "region", "--config", path, "--plane", ",".join(op["plane"]),
            "--x-range", f"{x_lo!r}:{x_hi!r}:{PLANE_POINTS}",
            "--y-range", f"{y_lo!r}:{y_hi!r}:{PLANE_POINTS}",
            "--refine-boundary",
        ]
    vary = "lambda1" if kind == "critical-lambda1" else "lambda2"
    return ["critical", "--config", path, "--vary", vary]


def run_cli(lib, op: dict) -> tuple[int, str]:
    """One CLI call through ``qdephase.cli.main``: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = importlib.import_module(f"{lib.__name__}.cli").main(op["argv"])
    return code, out.getvalue()


def run_cli_process(op: dict, ctx: dict) -> tuple[int, str, float]:
    """The same call as ``python -m qdephase.cli``: (exit code, stdout, seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qdephase.cli", *op["argv"]],
        cwd=ctx["workdir"], env=ctx["env"], capture_output=True,
        timeout=CLI_TIMEOUT_S, check=False,
    )
    return proc.returncode, proc.stdout.decode("utf-8"), time.perf_counter() - start


# ---------------------------------------------------------------- checks


def _classify(ratio) -> str:
    if ratio is None:
        return "0"
    if math.isinf(ratio) or ratio > 1.0 + TIE_TOL:
        return "+"
    if ratio < 1.0 - TIE_TOL:
        return "-"
    return "0"


def _override(model, l1: float, l2: float, name: str, value: float):
    if name == "alpha":
        return replace(model, bath=replace(model.bath, alpha=value)), l1, l2
    if name == "mu":
        return replace(model, bath=replace(model.bath, mu=value)), l1, l2
    if name == "gamma":
        return replace(model, displacement=replace(model.displacement, gamma_coef=value)), l1, l2
    if name == "nu":
        return replace(model, displacement=replace(model.displacement, nu=value)), l1, l2
    if name == "lambda1":
        return model, value, l2
    return model, l1, value


def _same_ratio(got, want) -> bool:
    if want is None or not math.isfinite(want):
        return got is None
    return got is not None and abs(got - want) <= 1e-12 * abs(want)


def _trace_distance_route(lib, model, l1, l2, t, amps):
    overlap = lib.ground_coherent_overlap(model.displacement, model.bath.omega_c)
    profile = lib.profile_at(model, t)
    a1 = lib.coherence_factor(lib.InitialStateSpec(amps, l1), profile, model.epsilon, overlap)
    a2 = lib.coherence_factor(lib.InitialStateSpec(amps, l2), profile, model.epsilon, overlap)
    d = lib.trace_distance(lib.reduced_state(amps, a1), lib.reduced_state(amps, a2))
    return d, abs(a1), abs(a2)


def check_series(lib, op, result) -> list[str]:
    series, ext = result
    model = build_model(lib, op)
    amps = lib.QubitAmplitudes.balanced()
    scale = amps.coherence_scale if op["normalized"] else 1.0
    errors = []
    for i in op["check_points"]:
        d, abs1, abs2 = _trace_distance_route(lib, model, op["lambda1"], op["lambda2"], float(series.times[i]), amps)
        gap = max(abs(series.distance[i] * scale - d), abs(series.abs_a1[i] - abs1), abs(series.abs_a2[i] - abs2))
        if not gap <= SERIES_TOL:
            errors.append(f"series point {i}: closed form vs trace distance differ by {gap:.3e}")
    if ext.kind != "none":
        t0, t1 = float(series.times[0]), float(series.times[-1])
        if ext.kind not in ("minimum", "maximum") or not t0 <= ext.t <= t1:
            errors.append(f"extremum {ext.kind} at t={ext.t} outside the grid")
        else:
            d, _, _ = _trace_distance_route(lib, model, op["lambda1"], op["lambda2"], ext.t, amps)
            if not abs(ext.value * scale - d) <= SERIES_TOL:
                errors.append(f"extremum value {ext.value} disagrees with trace distance {d / scale}")
    return errors


def _lambda_c_confirmed(ratio, lam, bracket=BRACKET, tol=LAMBDA_TOL) -> bool:
    lo, hi = bracket
    if not lo <= lam <= hi:
        return False
    below, above = ratio(max(lo, lam - tol)), ratio(min(hi, lam + tol))
    return below is not None and above is not None and below > 1.0 >= above


def _no_sign_change(ratio, bracket=BRACKET) -> bool:
    r_lo, r_hi = ratio(bracket[0]), ratio(bracket[1])
    return r_lo is None or r_hi is None or not (r_lo > 1.0 > r_hi)


def check_plane(lib, op, result) -> list[str]:
    rmap, lam = result
    t = op["model"]
    model = build_model(lib, t)
    x_name, y_name = op["plane"]
    errors = []
    for iy, ix in op["check_cells"]:
        m, l1, l2 = _override(model, t["lambda1"], t["lambda2"], x_name, float(rmap.x_values[ix]))
        m, l1, l2 = _override(m, l1, l2, y_name, float(rmap.y_values[iy]))
        want = lib.gain_ratio(m, l1, l2)
        got = rmap.gain[iy][ix]
        if not _same_ratio(got, want) or rmap.labels[iy][ix] != _classify(want):
            errors.append(f"cell ({iy},{ix}): map {got!r}/{rmap.labels[iy][ix]} vs direct {want!r}")
    (x_lo, x_hi), (y_lo, y_hi) = op["x_range"], op["y_range"]
    for bx, by in rmap.boundary_points:
        if not (x_lo <= bx <= x_hi and y_lo <= by <= y_hi):
            errors.append(f"boundary point ({bx}, {by}) outside the plane")
    ratio = lambda lam1: lib.gain_ratio(model, lam1, t["lambda2"])
    if lam is None:
        if not _no_sign_change(ratio):
            errors.append("find_lambda_c reported no bracket, but gain_ratio changes sign")
    elif not _lambda_c_confirmed(ratio, lam):
        errors.append(f"lambda_c={lam} not confirmed by gain_ratio")
    return errors


def check_fixed_model(lib) -> list[str]:
    """The pinned benchmark model: gain 2.52 +- 0.05 and lambda_c 0.49 +- 0.01."""
    model = build_model(lib, BENCHMARK_MODEL)
    errors = []
    ratio = lib.gain_ratio(model, 0.25, 0.0)
    if ratio is None or not abs(ratio - 2.52) <= 0.05:
        errors.append(f"benchmark model gain ratio {ratio!r}, expected 2.52 +- 0.05")
    lam = lib.find_lambda_c(model, 0.0)
    if not abs(lam - 0.49) <= 0.01:
        errors.append(f"benchmark model lambda_c {lam!r}, expected 0.49 +- 0.01")
    return errors


def quad_worst_of_tol(lib, op, series) -> float:
    """Worst closed-form vs quadrature gap as a fraction of max(1e-8, 1e-6 rel)."""
    model = build_model(lib, op)
    worst = 0.0
    for i, t in enumerate(series.times):
        closed = lib.profile_at(model, float(t), backend="closed_form")
        for want, got in ((closed.r, series.r[i]), (closed.s, series.s[i]), (closed.phi, series.phi[i])):
            worst = max(worst, abs(want - got) / max(QUAD_ABS_FLOOR, QUAD_REL * abs(want)))
    return worst


def check_quad(lib, op, series) -> list[str]:
    errors = []
    if not all(math.isfinite(float(v)) and v >= 0.0 for v in series.distance):
        errors.append("non-finite or negative distance")
    if op["mu"] >= 0.0:
        worst = quad_worst_of_tol(lib, op, series)
        if not worst <= 1.0:
            errors.append(f"backend disagreement {worst:.3e} of tolerance (mu={op['mu']})")
    else:
        peak = max(max(series.abs_a1), max(series.abs_a2))
        if not peak <= 1.0 + ABS_A_TOL:
            errors.append(f"|A| = {peak!r} > 1 + {ABS_A_TOL} at mu={op['mu']}")
    return errors


def _library_csv(lib, op) -> str:
    m = op["model"]
    series = lib.distance_series(
        build_model(lib, m), m["lambda1"], m["lambda2"],
        grid=lib.TimeGrid(kind="log", t_min=1e-3, t_max=1e4, points=400),
        normalized=bool(op.get("normalized")),
    )
    lines = ["t,distance,abs_A1,abs_A2,r,s,phi"]
    lines.extend(",".join(f"{v:.17g}" for v in row) for row in series.rows())
    return "\n".join(lines) + "\n"


def _bisect_lambda2(ratio, bracket=BRACKET, tol=LAMBDA_TOL):
    """The documented critical-point bisection, varying the second weight."""
    lo, hi = bracket
    r_lo, r_hi = ratio(lo), ratio(hi)
    if r_lo is None or r_hi is None or not (r_lo > 1.0 > r_hi):
        return None
    while 0.5 * (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        r_mid = ratio(mid)
        if r_mid is None:
            mid = math.nextafter(mid, hi)
            r_mid = ratio(mid)
        if r_mid > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _json_ratio(value):
    return value if value is not None and math.isfinite(value) else None


def check_cli(lib, op, result) -> list[str]:
    code, out = result
    kind = op["kind"]
    if kind == "evolve":
        if code != 0:
            return [f"evolve exit {code}"]
        return [] if out == _library_csv(lib, op) else ["evolve CSV differs from the library series"]
    if kind == "validate":
        validation = importlib.import_module(f"{lib.__name__}.validation")
        results = validation.run_all(samples=op["samples"], seed=op["seed"])
        passed = all(r.passed for r in results)
        want = "".join(r.line() + "\n" for r in results)
        want += "all suites passed\n" if passed else "validation FAILED\n"
        if (code, out) != (0 if passed else 1, want):
            return [f"validate exit {code} or output differs from the library suites"]
        # a failing suite, reported as documented, is the library's failure
        return [] if passed else [f"{OP_FAILED}validate seed {op['seed']}: {out.strip()}"]
    t = op["model"]
    model = build_model(lib, t)
    if kind == "region":
        if code != 0:
            return [f"region exit {code}"]
        payload = json.loads(out)
        if set(payload) != {"axes", "labels", "gain_ratio", "boundary"}:
            return [f"region keys {sorted(payload)}"]
        rmap = lib.region_map(
            model, t["lambda1"], t["lambda2"], plane=tuple(op["plane"]),
            x_values=_axis(*op["x_range"]), y_values=_axis(*op["y_range"]),
            refine_boundary=True,
        )
        want = {
            "x": [float(v) for v in rmap.x_values],
            "y": [float(v) for v in rmap.y_values],
            "labels": rmap.labels,
            "gain_ratio": rmap.gain,
            "boundary": [[x, y] for x, y in rmap.boundary_points],
        }
        got = {
            "x": payload["axes"]["x"]["values"],
            "y": payload["axes"]["y"]["values"],
            "labels": payload["labels"],
            "gain_ratio": payload["gain_ratio"],
            "boundary": payload["boundary"],
        }
        return [] if got == want else ["region JSON differs from the library map"]
    payload = json.loads(out)
    if set(payload) != {"lambda_c", "ratio_lo", "ratio_hi", "status"}:
        return [f"critical keys {sorted(payload)}"]
    if kind == "critical-lambda1":
        ratio = lambda lam: lib.gain_ratio(model, lam, t["lambda2"])
        try:
            want_lam = lib.find_lambda_c(model, t["lambda2"], bracket=BRACKET, tol=LAMBDA_TOL)
        except lib.NoBracketError:
            want_lam = None
    else:
        ratio = lambda lam: lib.gain_ratio(model, t["lambda1"], lam)
        want_lam = _bisect_lambda2(ratio)
    want = {
        "lambda_c": want_lam,
        "ratio_lo": _json_ratio(ratio(BRACKET[0])),
        "ratio_hi": _json_ratio(ratio(BRACKET[1])),
        "status": "ok" if want_lam is not None else "no-bracket",
    }
    want_code = 0 if want_lam is not None else 3
    if code != want_code:
        return [f"{kind} exit {code}, expected {want_code}"]
    return [] if payload == want else [f"{kind} JSON {payload} differs from the library {want}"]


CHECKS = {"series": check_series, "plane": check_plane, "quad": check_quad, "cli": check_cli}


def probe_known_defects(lib, workload: str) -> tuple[list[dict], list[str]]:
    """Run the workload's KNOWN_DEFECTS inputs, outside the timed region.

    Returns one record per probe (does it still fail, and how) and the
    check failures of probes that now return a result that is wrong.
    """
    records, wrong = [], []
    for op in KNOWN_DEFECTS.get(workload, ()):
        op = dict(op)
        if workload == "cli":
            op["argv"] = cli_argv(op, "", 0)
            name = " ".join(op["argv"])
        else:
            name = f"quadrature series mu={op['mu']} t={op['t_min']:g}..{op['t_max']:g}"
        try:
            result = run_op(lib, workload, op)
        except failure_types(lib) as exc:
            records.append({"probe": name, "fails": True, "message": f"{type(exc).__name__}: {exc}"})
            continue
        errors = CHECKS[workload](lib, op, result)
        failed = [e for e in errors if e.startswith(OP_FAILED)]
        wrong += [f"known-defect probe {name}: {e}" for e in errors if not e.startswith(OP_FAILED)]
        message = "; ".join(line for e in failed for line in e[len(OP_FAILED):].splitlines() if "FAIL" in line)
        records.append({"probe": name, "fails": bool(failed), "message": message})
    return records, wrong
