"""Seeded fuzz of the quadrature backend against the closed form.

Each draw is one model and a 9-point log grid of times; the quadrature
profile is compared with the closed-form profile at ``max(1e-8, 1e-6 *
|closed|)``, with every RuntimeWarning raised as an error.  Draws come in
three t_max bands (ordinary, tiny and huge times), each draw from its own
seed ``(seed, band, index)``, so a run's per-draw outcomes can be diffed
between two checkouts of the package:

    PYTHONPATH=src python tests/fuzz_quadrature.py --draws 600 --out outcomes.tsv

Outcomes: ``served`` (finite and within tolerance), ``unchecked`` (served,
but the closed form refuses the model), ``ConvergenceError``,
``DomainError``, ``raw`` (any other exception; its locus is the innermost
qdephase frame and the message) and ``disagrees``.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import traceback
import warnings
from collections import Counter

import numpy as np

from qdephase import (
    BathSpec,
    ConvergenceError,
    DisplacementSpec,
    DomainError,
    ModelSpec,
    QDephaseError,
    profile_at,
)

# name: the range of log10(t_max * max(1, omega_c))
BANDS = {"ordinary": (-3.0, 4.0), "tiny": (-150.0, -3.0), "huge": (12.0, 150.0)}
OUTCOMES = ("served", "unchecked", "ConvergenceError", "DomainError", "raw", "disagrees")


def draw(seed: int, band: str, index: int) -> tuple[dict, np.ndarray]:
    """The model parameters and times of one draw."""
    rng = np.random.default_rng([seed, list(BANDS).index(band), index])
    mu = rng.uniform(-0.99, 40.0)
    params = {
        "alpha": 10.0 ** rng.uniform(-12.0, 3.0),
        "mu": mu,
        "omega_c": 10.0 ** rng.uniform(-6.0, 6.0),
        "gamma_coef": 10.0 ** rng.uniform(-12.0, 3.0),
        "nu": rng.uniform(1e-3, min(50.0, 80.0 - mu)),
    }
    t_max = 10.0 ** rng.uniform(*BANDS[band]) / max(1.0, params["omega_c"])
    return params, np.logspace(math.log10(t_max) - 3.0, math.log10(t_max), 9)


def _locus(error: BaseException) -> str:
    """The innermost qdephase frame of a raw exception, and its message."""
    frames = [f for f in traceback.extract_tb(error.__traceback__) if "qdephase" in f.filename]
    where = frames[-1].name if frames else "?"
    return f"{where}: {type(error).__name__}: {error}"


def run_draw(params: dict, times: np.ndarray) -> tuple[str, str, float]:
    """``(outcome, detail, worst-of-tol)`` of one draw (worst nan unless compared)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = ModelSpec(0.0, BathSpec(params["alpha"], params["mu"], params["omega_c"]),
                              DisplacementSpec(params["gamma_coef"], params["nu"]))
            quadrature = profile_at(model, times, backend="quadrature")
        except ConvergenceError as error:
            return "ConvergenceError", str(error), math.nan
        except DomainError as error:
            return "DomainError", str(error), math.nan
        except Exception as error:  # noqa: BLE001 - every other exception is a finding
            return "raw", _locus(error), math.nan
        try:
            closed = profile_at(model, times)
        except (QDephaseError, ArithmeticError, RuntimeWarning) as error:
            return "unchecked", f"closed form: {type(error).__name__}: {error}", math.nan
    worst = 0.0
    for name in ("r", "s", "phi"):
        got, want = getattr(quadrature, name), getattr(closed, name)
        with np.errstate(all="ignore"):
            ratio = np.abs(got - want) / np.maximum(1e-8, 1e-6 * np.abs(want))
        ratio = np.where(np.isfinite(got) & np.isfinite(ratio), ratio, math.inf)
        worst = max(worst, float(ratio.max()))
    return ("served" if worst <= 1.0 else "disagrees"), "", worst


def fuzz(draws: int, seed: int = 0, out=None) -> dict[str, Counter]:
    """Outcome counts per band over ``draws`` draws per band; one line per
    draw to ``out`` (band, index, outcome, worst-of-tol, parameters, t_max,
    detail), tab-separated."""
    counts = {}
    for band in BANDS:
        counts[band] = Counter({outcome: 0 for outcome in OUTCOMES})
        for index in range(draws):
            params, times = draw(seed, band, index)
            outcome, detail, worst = run_draw(params, times)
            counts[band][outcome] += 1
            counts[band]["worst"] = max(counts[band]["worst"], 0.0 if math.isnan(worst) else worst)
            if outcome == "raw":
                counts[band]["raw: " + detail] += 1
            if out is not None:
                fields = [band, index, outcome, f"{worst:.3e}", *(f"{v:.6g}" for v in params.values()),
                          f"{times[-1]:.3e}", detail.replace("\t", " ").replace("\n", " ")]
                print(*fields, sep="\t", file=out)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=600, help="draws per band")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write one tab-separated line per draw here")
    args = parser.parse_args(argv)
    with open(args.out, "w") if args.out else contextlib.nullcontext() as out:
        counts = fuzz(args.draws, args.seed, out)
    for band, count in counts.items():
        print(f"{band} {BANDS[band]}: " + ", ".join(f"{k} {count[k]}" for k in OUTCOMES)
              + f", worst-of-tol {count['worst']:.3e}")
        for key in sorted(k for k in count if k.startswith("raw: ")):
            print(f"  {count[key]:4d} {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
