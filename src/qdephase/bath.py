"""Bosonic-environment parameters and the decoherence functions r, s, phi.

The environment enters the reduced qubit dynamics only through three real
functions of time, built from the effective coupling weight
``alpha * w**(mu-1) * exp(-w/omega_c)`` and the displacement weight
``gamma_coef * w**(nu-1) * exp(-w/omega_c)``:

    r(t)   = 4 * Int g_h^2(w) (1 - cos w t) dw          (coherence decay)
    s(t)   = 2 * Int g_h(w) f(w) (1 - cos w t) dw
             - (1/2) * Int f^2(w) dw                     (correlation weight)
    phi(t) =     Int g_h(w) f(w) sin(w t) dw             (correlation phase)

Each has a closed form through the Euler gamma function and an independent
quadrature route; ``profile_at`` exposes both as interchangeable backends,
for one time or an array of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DomainError
from .numerics import (
    SMALL_EXPONENT_LIMIT,
    KernelArgs,
    QuadratureSettings,
    all_true,
    decay_kernel,
    gamma_moment,
    kernel_by_quadrature,
    oscillatory_moment,
    total_moment,
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

    ``mu = 0`` is the ohmic case, ``mu > 0`` super-ohmic.  The closed-form
    backend needs ``mu >= 0`` (with the documented mu -> 0 limit); values in
    (-1, 0) are served by the quadrature backend only.
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


def _phi_closed(sqrt_ag: float, kappa: float, omega_c: float, t: float | np.ndarray):
    x = omega_c * t
    if kappa < SMALL_EXPONENT_LIMIT:
        # kappa -> 0 limit of Gamma(kappa)*sin(kappa*atan x): atan x itself.
        return sqrt_ag * np.arctan(x)
    damp = np.exp(-0.5 * kappa * np.log1p(x * x))
    return gamma_moment(sqrt_ag, kappa, omega_c) * np.sin(kappa * np.arctan(x)) * damp


def _profile_closed(m: ModelSpec, t: float | np.ndarray) -> DecoherenceProfile:
    b, d = m.bath, m.displacement
    if b.mu < 0.0:
        raise DomainError(
            f"closed-form backend needs mu >= 0, got mu={b.mu}; "
            "use backend='quadrature' for mu in (-1, 0)"
        )
    r = 4.0 * decay_kernel(KernelArgs(b.alpha, b.mu, b.omega_c, t))
    if d.gamma_coef == 0.0:
        return DecoherenceProfile(t=t, r=r, s=0.0 * r, phi=0.0 * r, backend="closed_form")
    kappa = m.kappa
    sqrt_ag = math.sqrt(b.alpha * d.gamma_coef)
    s = (
        2.0 * decay_kernel(KernelArgs(sqrt_ag, kappa, b.omega_c, t))
        - gamma_moment(0.5 * d.gamma_coef, d.nu, b.omega_c)
    )
    phi = _phi_closed(sqrt_ag, kappa, b.omega_c, t)
    return DecoherenceProfile(t=t, r=r, s=s, phi=phi, backend="closed_form")


def _profile_quadrature(
    m: ModelSpec, t: float | np.ndarray, settings: QuadratureSettings | None
) -> DecoherenceProfile:
    b, d = m.bath, m.displacement
    r = 4.0 * kernel_by_quadrature(KernelArgs(b.alpha, b.mu, b.omega_c, t), settings)
    r = np.maximum(r, 0.0)
    if d.gamma_coef == 0.0:
        return DecoherenceProfile(t=t, r=r, s=0.0 * r, phi=0.0 * r, backend="quadrature")
    kappa = m.kappa
    sqrt_ag = math.sqrt(b.alpha * d.gamma_coef)
    s = (
        2.0 * kernel_by_quadrature(KernelArgs(sqrt_ag, kappa, b.omega_c, t), settings)
        - 0.5 * total_moment(d.gamma_coef, d.nu, b.omega_c, settings)
    )
    phi = oscillatory_moment(sqrt_ag, kappa, b.omega_c, t, "sin", settings)
    return DecoherenceProfile(t=t, r=r, s=s, phi=phi, backend="quadrature")


def profile_at(
    m: ModelSpec,
    t: float | np.ndarray,
    backend: Backend = "closed_form",
    settings: QuadratureSettings | None = None,
) -> DecoherenceProfile:
    """Evaluate r(t), s(t), phi(t) with the chosen backend.

    ``t`` is one time or an array of times; the profile's fields have the
    same shape.  Both backends agree to quadrature tolerance wherever both
    apply; the quadrature backend additionally serves ohmicity exponents in
    (-1, 0).  Both evaluate a whole time array in one numpy pass.
    """
    times = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0.0)):
        raise DomainError(f"time must be finite and >= 0, got {t}")
    if backend == "closed_form":
        return _profile_closed(m, times[()])
    if backend == "quadrature":
        return _profile_quadrature(m, times[()], settings)
    raise DomainError(f"unknown backend {backend!r}")


def limit_exponents(alpha, mu, omega_c, gamma_coef, nu):
    """``(s(0), r(inf), s(inf))`` elementwise over broadcastable, validated
    parameters; s(0) is the log overlap.  Requires mu > 0 (see profile_limit).
    """
    if not all_true(mu > 0.0):
        raise DomainError(
            f"r(t) diverges as t -> inf for mu <= 0 (got mu={np.min(mu)}); "
            "all coherences vanish and the long-time distance limit is 0"
        )
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
