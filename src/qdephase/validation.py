"""Seeded self-validation suites: backend agreement, physicality, identities.

Each suite draws its own deterministic sample from a seed, checks one
contract, and reports counts plus the worst observed error.  The CLI
``validate`` subcommand runs them all; the test suite reuses them for the
acceptance criteria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import (
    BathSpec,
    DecoherenceProfile,
    DisplacementSpec,
    ModelSpec,
    _profiles,
    ground_coherent_overlap,
)
from .dynamics import (
    InitialStateSpec,
    QubitAmplitudes,
    coherence_factor,
    distance_same_amplitudes,
    distance_same_environment,
    pair_weights,
    reduced_state,
    trace_distance,
)
from .errors import DomainError, QDephaseError

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


def _random_model(rng: np.random.Generator) -> ModelSpec:
    alpha = 10.0 ** rng.uniform(-4, 0)
    gamma_coef = 10.0 ** rng.uniform(-4, 0)
    mu = rng.uniform(1e-3, 2.0)
    nu = rng.uniform(1e-3, 2.0)
    omega_c = rng.uniform(0.5, 2.0)
    epsilon = rng.uniform(0.0, 2.0)
    return ModelSpec(
        epsilon=epsilon,
        bath=BathSpec(alpha=alpha, mu=mu, omega_c=omega_c),
        displacement=DisplacementSpec(gamma_coef=gamma_coef, nu=nu),
    )


def _random_amplitudes(rng: np.random.Generator) -> QubitAmplitudes:
    weight = rng.uniform(0.05, 0.95)
    phase_p = rng.uniform(0.0, 2.0 * math.pi)
    phase_m = rng.uniform(0.0, 2.0 * math.pi)
    b_plus = math.sqrt(weight) * complex(math.cos(phase_p), math.sin(phase_p))
    b_minus = math.sqrt(1.0 - weight) * complex(math.cos(phase_m), math.sin(phase_m))
    return QubitAmplitudes(b_plus, b_minus)


def _sample_fields(draws: list[tuple], backends: list[str]) -> np.ndarray:
    """r, s, phi (rows) of every sample (columns) on its backend, from one
    array evaluation per backend.  Each draw starts with its model and t."""
    params = np.reshape(
        [(m.bath.alpha, m.bath.mu, m.bath.omega_c, m.displacement.gamma_coef, m.displacement.nu)
         for m, *_ in draws],
        (-1, 5),
    )
    t = np.array([d[1] for d in draws], dtype=float)
    fields = np.empty((3, len(draws)))
    for backend in dict.fromkeys(backends):
        rows = [i for i, b in enumerate(backends) if b == backend]
        fields[:, rows] = _profiles(*params[rows].T, t[rows], backend)
    return fields


def check_backend_agreement(samples: int, rel_tol: float = 1e-6, seed: int = 42) -> SuiteResult:
    """Closed-form r, s, phi against the quadrature backend on random tuples."""
    if not 0.0 < rel_tol < math.inf:
        raise DomainError(f"rel_tol must be finite and positive, got {rel_tol}")
    rng = np.random.default_rng(seed)
    draws = [
        (_random_model(rng), 0.0 if i % 25 == 0 else rng.uniform(0.0, 100.0))
        for i in range(samples)
    ]
    closed = _sample_fields(draws, ["closed_form"] * samples)
    quadr = _sample_fields(draws, ["quadrature"] * samples)
    errors = np.abs(closed - quadr) / np.maximum(_ABS_FLOOR, rel_tol * np.abs(closed))
    sample_worst = errors.max(0, initial=0.0)
    return SuiteResult(
        name="backend-agreement",
        samples=samples,
        failures=int(np.count_nonzero(sample_worst > 1.0)),
        worst=float(sample_worst.max(initial=0.0)),
        tolerance=f"max({_ABS_FLOOR:g}, {rel_tol:g}*rel), reported as fraction of tol",
    )


def check_physicality(samples: int, seed: int = 42) -> SuiteResult:
    """|A_lambda(t)| <= 1 + 1e-9 and valid density matrices, both backends."""
    rng = np.random.default_rng(seed)
    draws = [
        (_random_model(rng), rng.uniform(0.0, 100.0), rng.uniform(0.0, 1.0), _random_amplitudes(rng))
        for _ in range(samples)
    ]
    backends = ["quadrature" if i % 2 else "closed_form" for i in range(samples)]
    failures = 0
    worst = 0.0
    for (model, t, lam, amps), fields, backend in zip(
        draws, _sample_fields(draws, backends).T, backends
    ):
        overlap = ground_coherent_overlap(model.displacement, model.bath.omega_c)
        profile = DecoherenceProfile(t, *fields, backend)
        factor = coherence_factor(InitialStateSpec(amps, lam), profile, model.epsilon, overlap)
        excess = abs(factor) - 1.0
        worst = max(worst, excess)
        try:
            reduced_state(amps, factor)
        except QDephaseError:
            failures += 1
            continue
        if excess > 1e-9:
            failures += 1
    return SuiteResult(
        name="physicality",
        samples=samples,
        failures=failures,
        worst=worst,
        tolerance="|A| - 1 <= 1e-9; density matrix PSD/trace/Hermitian",
    )


def check_overlap_consistency(
    samples: int,
    rel_tol: float = 1e-12,
    seed: int = 42,
    double_s_offset: bool = False,
) -> SuiteResult:
    """exp(s(0)) must equal the ground-coherent overlap to 1e-12 relative.

    ``double_s_offset`` deliberately doubles the static offset in s(0)
    (a debugging aid): the identity then fails by exp(offset/2), which is
    exactly what this suite is designed to catch.
    """
    rng = np.random.default_rng(seed)
    draws = [(_random_model(rng), 0.0) for _ in range(samples)]
    failures = 0
    worst = 0.0
    for (model, _), s0 in zip(draws, _sample_fields(draws, ["closed_form"] * samples)[1]):
        overlap = ground_coherent_overlap(model.displacement, model.bath.omega_c)
        if double_s_offset:
            s0 = 2.0 * s0
        err = abs(math.exp(s0) - overlap) / overlap
        worst = max(worst, err)
        if err > rel_tol:
            failures += 1
    return SuiteResult(
        name="overlap-consistency",
        samples=samples,
        failures=failures,
        worst=worst,
        tolerance=f"{rel_tol:g} relative",
    )


def check_distance_equivalence(
    samples: int,
    abs_tol: float = 1e-12,
    seed: int = 42,
) -> SuiteResult:
    """Closed-form distances against the eigenvalue trace distance."""
    rng = np.random.default_rng(seed)
    draws = [
        (_random_model(rng), rng.uniform(0.0, 50.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
         _random_amplitudes(rng), _random_amplitudes(rng))
        for _ in range(samples)
    ]
    failures = 0
    worst = 0.0
    for (model, t, lam1, lam2, amps, amps_b), fields in zip(
        draws, _sample_fields(draws, ["closed_form"] * samples).T
    ):
        overlap = ground_coherent_overlap(model.displacement, model.bath.omega_c)
        profile = DecoherenceProfile(t, *fields, "closed_form")
        a1 = coherence_factor(InitialStateSpec(amps, lam1), profile, model.epsilon, overlap)
        a2 = coherence_factor(InitialStateSpec(amps, lam2), profile, model.epsilon, overlap)
        rho1 = reduced_state(amps, a1)
        rho2 = reduced_state(amps, a2)

        w = pair_weights(lam1, lam2, overlap)
        closed = distance_same_amplitudes(w, profile, amps.coherence_scale)
        generic = trace_distance(rho1, rho2)
        err = abs(closed - generic)

        closed_env = distance_same_environment(amps, amps_b, a1)
        generic_env = trace_distance(rho1, reduced_state(amps_b, a1))
        err = max(err, abs(closed_env - generic_env))

        worst = max(worst, err)
        if err > abs_tol:
            failures += 1
    return SuiteResult(
        name="distance-equivalence",
        samples=samples,
        failures=failures,
        worst=worst,
        tolerance=f"{abs_tol:g} absolute",
    )


def run_all(
    samples: int,
    rel_tol: float = 1e-6,
    seed: int = 42,
    double_s_offset: bool = False,
) -> list[SuiteResult]:
    """Run every suite with a shared seed; deterministic for fixed inputs."""
    return [
        check_backend_agreement(samples, rel_tol=rel_tol, seed=seed),
        check_physicality(samples, seed=seed),
        check_overlap_consistency(samples, seed=seed, double_s_offset=double_s_offset),
        check_distance_equivalence(samples, seed=seed),
    ]
