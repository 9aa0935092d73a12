"""Seeded self-validation suites: backend agreement, physicality, identities.

Each suite draws its own deterministic sample from a seed, checks one
contract on the whole sample at once (one array call per route), and reports
counts plus the worst observed error.  The CLI ``validate`` subcommand runs
them all; the test suite reuses them for the acceptance criteria.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .bath import DecoherenceProfile, _log_overlap, _ProfilePlan, limit_exponents
from .dynamics import (
    InitialStateSpec,
    QubitAmplitudes,
    _density_checks,
    _reduced_entries,
    coherence_factor,
    distance_same_amplitudes,
    distance_same_environment,
    pair_weights,
    reduced_state,
    trace_distance,
)
from .errors import DomainError
from .numerics import total_moment

__all__ = [
    "SuiteResult",
    "check_backend_agreement",
    "check_physicality",
    "check_overlap_consistency",
    "check_distance_equivalence",
    "run_all",
]

_ABS_FLOOR = 1e-8


@dataclass(frozen=True)
class SuiteResult:
    name: str
    samples: int
    failures: int
    worst: float
    tolerance: str

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.name}: {status} {self.samples - self.failures}/{self.samples} "
            f"(worst {self.worst:.3e}, tol {self.tolerance})"
        )


def _random_model(rng: np.random.Generator) -> tuple:
    """One model's parameter row ``(alpha, mu, omega_c, gamma_coef, nu,
    epsilon)``, drawn in the rng order alpha, gamma_coef, mu, nu, omega_c,
    epsilon that fixes the samples."""
    alpha = 10.0 ** rng.uniform(-4, 0)
    gamma_coef = 10.0 ** rng.uniform(-4, 0)
    mu = rng.uniform(-1.0, 2.0)
    nu = rng.uniform(1e-3, 2.0)
    omega_c = rng.uniform(0.5, 2.0)
    epsilon = rng.uniform(0.0, 2.0)
    return alpha, mu, omega_c, gamma_coef, nu, epsilon


def _random_amplitudes(rng: np.random.Generator) -> tuple[complex, complex]:
    """``(b_plus, b_minus)`` of a random normalized qubit state."""
    weight = rng.uniform(0.05, 0.95)
    phase_p = rng.uniform(0.0, 2.0 * math.pi)
    phase_m = rng.uniform(0.0, 2.0 * math.pi)
    b_plus = math.sqrt(weight) * complex(math.cos(phase_p), math.sin(phase_p))
    b_minus = math.sqrt(1.0 - weight) * complex(math.cos(phase_m), math.sin(phase_m))
    return b_plus, b_minus


def _draw(samples: int, seed: int, draw_one) -> tuple:
    """``samples`` seeded draws ``draw_one(rng, i) = (_random_model(rng), x,
    ...)`` as columns: the (6, samples) parameter rows, then one array per
    further value.  The draws stay a loop because their rng order fixes the
    samples."""
    try:
        operator.index(samples)
    except TypeError:
        raise DomainError(f"sample count must be an integer, got {samples!r}") from None
    if samples < 1:
        raise DomainError(f"sample count must be at least 1, got {samples}")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    params, *values = zip(*[draw_one(rng, i) for i in range(samples)])
    return np.array(params).T, *map(np.array, values)


def _sample_fields(params: np.ndarray, t: np.ndarray, backends) -> np.ndarray:
    """r, s, phi (rows) of every sample (columns of the parameter rows) on its
    backend, one name for all or one per sample, from one array evaluation
    per backend."""
    backends = np.broadcast_to(backends, t.shape)
    fields = np.empty((3, t.size))
    for backend in dict.fromkeys(backends.tolist()):
        rows = backends == backend
        fields[:, rows] = _ProfilePlan(*params[:5, rows], backend)(t[rows])
    return fields


def _overlaps(params: np.ndarray) -> np.ndarray:
    """ground_coherent_overlap of every sample, elementwise."""
    omega_c, gamma_coef, nu = params[2:5]
    return np.exp(_log_overlap(gamma_coef, nu, omega_c))


def _result(name: str, errors: np.ndarray, failed: np.ndarray, tolerance: str) -> SuiteResult:
    """A suite's result from its per-sample errors and failure mask."""
    return SuiteResult(
        name, errors.size, int(np.count_nonzero(failed)), float(errors.max(initial=0.0)), tolerance
    )


def _agreement(closed: np.ndarray, quadrature: np.ndarray, rel_tol: float) -> tuple:
    """The per-sample (column) worst gap between two routes as a fraction of
    max(_ABS_FLOOR, rel_tol*|closed|), and that tolerance for the report."""
    errors = np.abs(closed - quadrature) / np.maximum(_ABS_FLOOR, rel_tol * np.abs(closed))
    return errors.max(0), f"max({_ABS_FLOOR:g}, {rel_tol:g}*rel), reported as fraction of tol"


def check_backend_agreement(samples: int, rel_tol: float = 1e-6, seed: int = 42) -> SuiteResult:
    """Closed-form r, s, phi against the quadrature backend on random tuples."""
    if not 0.0 < rel_tol < math.inf:
        raise DomainError(f"rel_tol must be finite and positive, got {rel_tol}")
    params, t = _draw(samples, seed, lambda rng, i: (
        _random_model(rng), 0.0 if i % 25 == 0 else rng.uniform(0.0, 100.0)))
    closed = _sample_fields(params, t, "closed_form")
    quadr = _sample_fields(params, t, "quadrature")
    errors, tolerance = _agreement(closed, quadr, rel_tol)
    return _result("backend-agreement", errors, errors > 1.0, tolerance)


def check_physicality(samples: int, seed: int = 42) -> SuiteResult:
    """|A_lambda(t)| <= 1 + 1e-9 and valid density matrices, both backends."""
    params, t, lam, b_plus, b_minus = _draw(samples, seed, lambda rng, i: (
        _random_model(rng), rng.uniform(0.0, 100.0), rng.uniform(0.0, 1.0),
        *_random_amplitudes(rng)))
    backends = ["quadrature" if i % 2 else "closed_form" for i in range(samples)]
    # odd samples hold quadrature fields; nothing downstream reads the backend tag
    profile = DecoherenceProfile(t, *_sample_fields(params, t, backends), "closed_form")
    amps = QubitAmplitudes(b_plus, b_minus)
    factor = coherence_factor(InitialStateSpec(amps, lam), profile, params[5], _overlaps(params))
    excess = np.abs(factor) - 1.0
    valid = np.logical_and.reduce(_density_checks(_reduced_entries(amps, factor))[0])
    tolerance = "|A| - 1 <= 1e-9; density matrix PSD/trace/Hermitian"
    return _result("physicality", excess, (excess > 1e-9) | ~valid, tolerance)


def check_overlap_consistency(
    samples: int,
    rel_tol: float = 1e-12,
    seed: int = 42,
    double_s_offset: bool = False,
) -> SuiteResult:
    """exp(s(0)) by the gamma-free quadrature, s(0) = -(1/2) Int f^2, must
    equal the closed-form ground-coherent overlap to 1e-12 relative.

    ``double_s_offset`` deliberately doubles the static offset in s(0)
    (a debugging aid): the identity then fails by exp(offset/2), which is
    exactly what this suite is designed to catch.
    """
    return _quadrature_identities(samples, seed, rel_tol, 1e-6, double_s_offset)[0]


def _quadrature_identities(
    samples: int, seed: int, overlap_tol: float, limit_tol: float, double_s_offset: bool
) -> tuple[SuiteResult, SuiteResult]:
    """The overlap-consistency and long-time-limits suites, from one table of
    total moments: s(0) = -total(gamma_coef/2, nu) of every sample and, on the
    mu > 0 samples, r(inf) = total(4 alpha, mu) and s(inf) = s(0) + total(2
    sqrt(alpha gamma_coef), kappa).  The limits are compared with
    limit_exponents, the Gamma route of every gain ratio, at
    max(1e-8, limit_tol*rel)."""
    (params,) = _draw(samples, seed, lambda rng, i: (_random_model(rng),))
    alpha, mu, omega_c, gamma_coef, nu, _ = params
    on = mu > 0.0
    totals = total_moment(
        np.concatenate([0.5 * gamma_coef, 4.0 * alpha[on], 2.0 * np.sqrt(alpha * gamma_coef)[on]]),
        np.concatenate([nu, mu[on], 0.5 * (mu + nu)[on]]),
        np.concatenate([omega_c, omega_c[on], omega_c[on]]),
    )
    n, s0 = samples + np.count_nonzero(on), -totals[:samples]
    # the long-time limits before the debugging aid touches s(0)
    quadrature = np.stack([totals[samples:n], totals[n:] + s0[on]])
    if double_s_offset:
        s0 = 2.0 * s0
    overlap = _overlaps(params)
    err = np.abs(np.exp(s0) - overlap) / overlap
    closed = np.stack(limit_exponents(*params[:5, on])[1:])
    errors, tolerance = _agreement(closed, quadrature, limit_tol)
    return (
        _result("overlap-consistency", err, err > overlap_tol, f"{overlap_tol:g} relative"),
        _result("long-time-limits", errors, errors > 1.0, tolerance),
    )


def check_distance_equivalence(
    samples: int,
    abs_tol: float = 1e-12,
    seed: int = 42,
) -> SuiteResult:
    """Closed-form distances against the eigenvalue trace distance: the
    shared-amplitude pair (amps at lam1, lam2) and the shared-environment
    pair (amps, amps_b at lam1)."""
    params, t, lam1, lam2, *b = _draw(samples, seed, lambda rng, i: (
        _random_model(rng), rng.uniform(0.0, 50.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
        *_random_amplitudes(rng), *_random_amplitudes(rng)))
    b = np.array(b)  # b_plus, b_minus of amps, then of amps_b
    amps, amps_b = QubitAmplitudes(b[0], b[1]), QubitAmplitudes(b[2], b[3])
    profile = DecoherenceProfile(t, *_sample_fields(params, t, "closed_form"), "closed_form")
    overlap = _overlaps(params)
    state = InitialStateSpec(amps, np.stack([lam1, lam2]))
    a1, a2 = coherence_factor(state, profile, params[5], overlap)
    # one stack of the states (amps, a1), (amps, a2) and (amps_b, a1)
    rho = reduced_state(QubitAmplitudes(b[[0, 0, 2]], b[[1, 1, 3]]), np.stack([a1, a2, a1])).entries
    closed = np.stack([
        distance_same_amplitudes(pair_weights(lam1, lam2, overlap), profile, amps.coherence_scale),
        distance_same_environment(amps, amps_b, a1),
    ])
    err = np.abs(closed - trace_distance(rho[[0, 0]], rho[[1, 2]])).max(0)
    return _result("distance-equivalence", err, err > abs_tol, f"{abs_tol:g} absolute")


def run_all(
    samples: int,
    rel_tol: float = 1e-6,
    seed: int = 42,
    double_s_offset: bool = False,
) -> list[SuiteResult]:
    """Run every suite with a shared seed; deterministic for fixed inputs.
    The long-time limits are checked at the agreement tolerance ``rel_tol``."""
    return [
        check_backend_agreement(samples, rel_tol=rel_tol, seed=seed),
        check_physicality(samples, seed=seed),
        *_quadrature_identities(samples, seed, 1e-12, rel_tol, double_s_offset),
        check_distance_equivalence(samples, seed=seed),
    ]
