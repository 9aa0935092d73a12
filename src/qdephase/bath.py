"""Bosonic-environment parameters and the decoherence functions r, s, phi.

The environment enters the reduced qubit dynamics only through three real
functions of time, built from the effective coupling weight
``alpha * w**(mu-1) * exp(-w/omega_c)`` and the displacement weight
``gamma_coef * w**(nu-1) * exp(-w/omega_c)``:

    r(t)   = 4 * Int g_h^2(w) (1 - cos w t) dw          (coherence decay)
    s(t)   = 2 * Int g_h(w) f(w) (1 - cos w t) dw
             - (1/2) * Int f^2(w) dw                     (correlation weight)
    phi(t) =     Int g_h(w) f(w) sin(w t) dw             (correlation phase)

Each has a closed form through the Euler gamma function for every mu > -1,
and a gamma-free quadrature route that serves as its oracle; ``profile_at``
exposes both as interchangeable backends, for one time or an array of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DomainError
from .numerics import (
    _KERNEL,
    _SINE,
    KernelArgs,
    QuadratureSettings,
    _closed_kernel,
    _de_integral,
    _part,
    _time_terms,
    _total_part,
    all_true,
    gamma_moment,
)

__all__ = [
    "BathSpec",
    "DisplacementSpec",
    "ModelSpec",
    "DecoherenceProfile",
    "Backend",
    "ground_coherent_overlap",
    "profile_at",
    "profile_limit",
    "limit_exponents",
]

Backend = Literal["closed_form", "quadrature"]


@dataclass(frozen=True)
class BathSpec:
    """Spectral density parameters: coupling strength, ohmicity, cutoff.

    ``mu = 0`` is the ohmic case, ``mu > 0`` super-ohmic and ``mu`` in
    (-1, 0) sub-ohmic; both backends serve every ``mu > -1``.
    """

    alpha: float
    mu: float
    omega_c: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError(f"coupling alpha must be positive, got {self.alpha}")
        if not (math.isfinite(self.mu) and self.mu > -1.0):
            raise DomainError(f"ohmicity mu must be > -1, got {self.mu}")
        if not (math.isfinite(self.omega_c) and self.omega_c > 0.0):
            raise DomainError(f"cutoff omega_c must be positive, got {self.omega_c}")


@dataclass(frozen=True)
class DisplacementSpec:
    """Displacement profile parameters of the coherent environment branch.

    ``gamma_coef = 0`` degenerates the displaced state to the ground state
    (overlap 1); ``nu > 0`` keeps the displacement norm finite.
    """

    gamma_coef: float
    nu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma_coef) and self.gamma_coef >= 0.0):
            raise DomainError(
                f"displacement strength gamma_coef must be >= 0, got {self.gamma_coef}"
            )
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise DomainError(f"displacement exponent nu must be positive, got {self.nu}")


@dataclass(frozen=True)
class ModelSpec:
    """Full model: qubit splitting epsilon plus bath and displacement specs."""

    epsilon: float
    bath: BathSpec
    displacement: DisplacementSpec

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon):
            raise DomainError(f"epsilon must be finite, got {self.epsilon}")

    @property
    def kappa(self) -> float:
        """Mixed exponent (mu + nu) / 2 governing s(t) and phi(t)."""
        return 0.5 * (self.bath.mu + self.displacement.nu)


@dataclass(frozen=True)
class DecoherenceProfile:
    """The triple (r, s, phi) at one instant or on a time array, tagged with
    its backend.

    Fields are floats for one instant and arrays shaped like ``t`` for a
    time array.  ``t = inf`` marks the analytic long-time limit.  Invariants
    (r >= 0, s >= s(0), phi(0) = 0) follow from the defining integrals and
    are exercised by the test suite rather than revalidated here.
    """

    t: float | np.ndarray
    r: float | np.ndarray
    s: float | np.ndarray
    phi: float | np.ndarray
    backend: Backend


def ground_coherent_overlap(d: DisplacementSpec, omega_c: float) -> float:
    """Overlap of the ground and displaced environment states.

    Equals ``exp(-(1/2) * Int f^2) = exp(-gamma_coef*Gamma(nu)*omega_c**nu/2)``,
    which is also ``exp(s(0))``.
    """
    if not (math.isfinite(omega_c) and omega_c > 0.0):
        raise DomainError(f"omega_c must be positive, got {omega_c}")
    return float(np.exp(-gamma_moment(0.5 * d.gamma_coef, d.nu, omega_c)))


def _profiles(alpha, mu, omega_c, gamma_coef, nu, t, backend: Backend, settings=None):
    """``(r, s, phi)`` elementwise over broadcastable times and parameters of
    valid ModelSpecs: floats for one model, or arrays, e.g. one value per
    (model, t) sample.

    The quadrature backend evaluates one DE table (see numerics): the r
    kernel, the s kernel, the total moment of s(0) and the phi sine moment
    as its parts, each with one row per time (the total moment: per model),
    so 3N + 1 rows for one model at N times > 0.  The rows run through one
    level loop, in blocks of ``numerics._BLOCK``.
    """
    if backend not in ("closed_form", "quadrature"):
        raise DomainError(f"unknown backend {backend!r}")
    # the r row's parameters are a valid BathSpec's: only the s row and t need checks
    s_args = KernelArgs(np.sqrt(alpha * gamma_coef), 0.5 * (mu + nu), omega_c, t)
    if backend == "quadrature":
        r, s_kernel, total, phi = _de_integral(
            [_part(_KERNEL, KernelArgs(alpha, mu, omega_c, t)), _part(_KERNEL, s_args),
             _total_part(gamma_coef, nu, omega_c), _part(_SINE, s_args)],
            settings,
        )
        return np.maximum(4.0 * r, 0.0), 2.0 * s_kernel - 0.5 * total, phi
    terms = _time_terms(omega_c, t)
    r = 4.0 * _closed_kernel(alpha, mu, omega_c, terms)
    s_kernel, phi = _closed_kernel(s_args.c, s_args.p, omega_c, terms, sine=True)
    return r, 2.0 * s_kernel - gamma_moment(0.5 * gamma_coef, nu, omega_c), phi


def profile_at(
    m: ModelSpec,
    t: float | np.ndarray,
    backend: Backend = "closed_form",
    settings: QuadratureSettings | None = None,
) -> DecoherenceProfile:
    """Evaluate r(t), s(t), phi(t) with the chosen backend.

    ``t`` is one time or an array of times; the profile's fields have the
    same shape.  Both backends serve every mu > -1 and agree to quadrature
    tolerance.  The gamma-free quadrature is the oracle of the closed form.
    Both evaluate a whole time array in one numpy pass.
    """
    b, d = m.bath, m.displacement
    times = np.asarray(t, dtype=float)[()]
    r, s, phi = _profiles(b.alpha, b.mu, b.omega_c, d.gamma_coef, d.nu, times, backend, settings)
    return DecoherenceProfile(t=times, r=r, s=s, phi=phi, backend=backend)


def limit_exponents(alpha, mu, omega_c, gamma_coef, nu):
    """``(s(0), r(inf), s(inf))`` elementwise over broadcastable, validated
    parameters; s(0) is the log overlap.  Requires mu > 0 (see profile_limit).
    """
    if not all_true(mu > 0.0):
        raise DomainError(
            f"r(t) diverges as t -> inf for mu <= 0 (got mu={np.min(mu)}); "
            "all coherences vanish and the long-time distance limit is 0"
        )
    # a prefactor that overflows is inf, which gamma_moment refuses
    with np.errstate(over="ignore"):
        s0 = -gamma_moment(0.5 * gamma_coef, nu, omega_c)
        r_inf = gamma_moment(4.0 * alpha, mu, omega_c)
        s_inf = gamma_moment(2.0 * np.sqrt(alpha * gamma_coef), 0.5 * (mu + nu), omega_c) + s0
    return s0, r_inf, s_inf


def profile_limit(m: ModelSpec) -> DecoherenceProfile:
    """Analytic t -> inf profile: r and s saturate, phi vanishes.

    Requires ``mu > 0``: at and below the ohmic point r(t) grows without
    bound, every coherence dies, and the long-time distance limit is 0
    rather than a finite profile.
    """
    b, d = m.bath, m.displacement
    _, r_inf, s_inf = limit_exponents(b.alpha, b.mu, b.omega_c, d.gamma_coef, d.nu)
    return DecoherenceProfile(
        t=math.inf, r=float(r_inf), s=float(s_inf), phi=0.0, backend="closed_form"
    )
