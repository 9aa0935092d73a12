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

Every served draw with mu > 0 also gets a long-time row with the same
outcomes: ``limit_exponents``, the Gamma route of the gain ratio, against
the quadrature's total moments r(inf) = total(4 alpha, mu) and s(inf) =
total(2 sqrt(alpha gamma_coef), kappa) - total(gamma_coef/2, nu), at the
same tolerance.

Per band, the run also counts the DE table rows that enter each level of
the quadrature's level loop (``"level N"``), over the profile and long-time
rows alike: a row that leaves at level 1 has entered levels 0 and 1.
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
    numerics,
    profile_at,
    total_moment,
)
from qdephase.bath import limit_exponents

# name: the range of log10(t_max * max(1, omega_c))
BANDS = {"ordinary": (-3.0, 4.0), "tiny": (-150.0, -3.0), "huge": (12.0, 150.0)}
OUTCOMES = ("served", "unchecked", "ConvergenceError", "DomainError", "raw", "disagrees")
# the count keys of the profile rows and of the long-time rows
PREFIXES = ("", "long-time ")


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


def _compare(quadrature, closed) -> tuple[str, str, float]:
    """``(outcome, detail, worst-of-tol)`` of one draw: the two routes' values
    as calls that return arrays (worst nan unless compared)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = quadrature()
        except ConvergenceError as error:
            return "ConvergenceError", str(error), math.nan
        except DomainError as error:
            return "DomainError", str(error), math.nan
        except Exception as error:  # noqa: BLE001 - every other exception is a finding
            return "raw", _locus(error), math.nan
        try:
            want = closed()
        except (QDephaseError, ArithmeticError, RuntimeWarning) as error:
            return "unchecked", f"closed form: {type(error).__name__}: {error}", math.nan
    with np.errstate(all="ignore"):
        ratio = np.abs(got - want) / np.maximum(1e-8, 1e-6 * np.abs(want))
    worst = float(np.where(np.isfinite(got) & np.isfinite(ratio), ratio, math.inf).max())
    return ("served" if worst <= 1.0 else "disagrees"), "", worst


def run_draw(params: dict, times: np.ndarray) -> tuple[str, str, float]:
    """``(outcome, detail, worst-of-tol)`` of one draw's profiles (r, s, phi)."""
    alpha, mu, omega_c, gamma_coef, nu = params.values()

    def profile(backend):
        model = ModelSpec(0.0, BathSpec(alpha, mu, omega_c), DisplacementSpec(gamma_coef, nu))
        p = profile_at(model, times, backend=backend)
        return np.stack([p.r, p.s, p.phi])

    return _compare(lambda: profile("quadrature"), lambda: profile("closed_form"))


def run_limits(params: dict) -> tuple[str, str, float]:
    """``(outcome, detail, worst-of-tol)`` of one draw's long-time row (mu > 0)."""
    alpha, mu, omega_c, gamma_coef, nu = params.values()

    def quadrature():
        s0, r_inf, s_kernel = total_moment(
            np.array([0.5 * gamma_coef, 4.0 * alpha, 2.0 * math.sqrt(alpha * gamma_coef)]),
            np.array([nu, mu, 0.5 * (mu + nu)]), omega_c,
        )
        return np.array([r_inf, s_kernel - s0])

    return _compare(quadrature, lambda: np.array(limit_exponents(*params.values())[1:]))


@contextlib.contextmanager
def _levels_into(count: Counter):
    """While active, add the rows entering each DE level to ``count["level N"]``:
    a spy on numerics._head_sums, which every row runs at every level it enters."""
    real = numerics._head_sums

    def spy(levels, m, *rest):
        for level in levels:
            count[f"level {level}"] += m.shape[1]
        return real(levels, m, *rest)

    numerics._head_sums = spy
    try:
        yield
    finally:
        numerics._head_sums = real


def fuzz(draws: int, seed: int = 0, out=None) -> dict[str, Counter]:
    """Outcome counts per band over ``draws`` draws per band, the long-time
    rows' keyed ``"long-time " + outcome``, and the rows entering each DE
    level keyed ``"level N"``; one line per draw to ``out`` (band, index,
    outcome, worst-of-tol, long-time outcome and worst-of-tol or '-' and nan,
    parameters, t_max, detail), tab-separated."""
    counts = {}
    for band in BANDS:
        count = counts[band] = Counter({p + o: 0 for p in PREFIXES for o in OUTCOMES})
        for index in range(draws):
            params, times = draw(seed, band, index)
            with _levels_into(count):
                rows = {"": run_draw(params, times)}
                if rows[""][0] == "served" and params["mu"] > 0.0:
                    rows["long-time "] = run_limits(params)
            for prefix, (outcome, detail, worst) in rows.items():
                count[prefix + outcome] += 1
                worst = 0.0 if math.isnan(worst) else worst
                count[prefix + "worst"] = max(count[prefix + "worst"], worst)
                if outcome == "raw":
                    count[prefix + "raw: " + detail] += 1
            if out is not None:
                (outcome, detail, worst), (limit, limit_detail, limit_worst) = (
                    rows[""], rows.get("long-time ", ("-", "", math.nan)))
                detail = " ".join(filter(None, (detail, limit_detail)))
                fields = [band, index, outcome, f"{worst:.3e}", limit, f"{limit_worst:.3e}",
                          *(f"{v:.6g}" for v in params.values()), f"{times[-1]:.3e}",
                          detail.replace("\t", " ").replace("\n", " ")]
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
        for prefix in PREFIXES:
            print((f"{band} {BANDS[band]}: " if not prefix else "  long-time: ")
                  + ", ".join(f"{k} {count[prefix + k]}" for k in OUTCOMES)
                  + f", worst-of-tol {count[prefix + 'worst']:.3e}")
            for key in sorted(k for k in count if k.startswith(prefix + "raw: ")):
                print(f"  {count[key]:4d} {key}")
        levels = sorted(int(k.split()[1]) for k in count if k.startswith("level "))
        print("  rows entering each level: "
              + ", ".join(f"{level}: {count[f'level {level}']}" for level in levels))
    return 0


if __name__ == "__main__":
    sys.exit(main())
