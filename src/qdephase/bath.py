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

Evaluation comes in two steps.  A plan (``_ProfilePlan``) holds what one
scenario settles whatever the times: its checked arguments, s(0), and the
closed form's Gamma moments and branch choices (small-exponent limit, pole
brace) or the quadrature's checked table parts.  An evaluation takes times,
checks them and runs one array pass.  ``profile_at`` is one plan evaluated
once; a distance series and its extremum zoom rounds keep one plan.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DomainError
from .numerics import (
    _KERNEL,
    _SINE,
    QuadratureSettings,
    _check_kernel_args,
    _check_times,
    _closed_kernel,
    _de_integral,
    _kernel_setup,
    _part,
    _time_terms,
    _total_part,
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
    which is also ``exp(s(0))``: exactly 0 where that moment overflows a
    double (orthogonal branches).  s(t) itself is not finite there, so
    profile_at, profile_limit and distance_series refuse such a model.  A
    DomainError where the moment is a double but Gamma(nu) or omega_c**nu
    is not.
    """
    if not (math.isfinite(omega_c) and omega_c > 0.0):
        raise DomainError(f"omega_c must be positive, got {omega_c}")
    return float(np.exp(_log_overlap(d.gamma_coef, d.nu, omega_c)))


_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# log Gamma elementwise (numpy has none); inf past ~2.5e305, where math's overflows
_LGAMMA = np.frompyfunc(lambda x: math.lgamma(x) if x < 1e305 else math.inf, 1, 1)


def _log_overlap(gamma_coef, nu, omega_c):
    """s(0) = -gamma_coef/2 * Gamma(nu) * omega_c**nu elementwise over valid
    parameters, and -inf where the log of that moment exceeds a double's
    (overlap 0).  The log is formed only once the moment has raised; where
    it is in range but a factor is not, the DomainError stands."""
    c = 0.5 * gamma_coef
    try:
        return -gamma_moment(c, nu, omega_c)
    except DomainError:
        with np.errstate(divide="ignore"):  # c = 0: log 0 = -inf, in range
            log_moment = np.log(c) + np.asarray(_LGAMMA(nu), dtype=float) + nu * np.log(omega_c)
        lost = log_moment > _LOG_DOUBLE_MAX
        return np.where(lost, -math.inf, -gamma_moment(np.where(lost, 0.0, c), nu, omega_c))


class _ProfilePlan:
    """The plan of the module docstring, over floats (one model) or arrays that
    broadcast (e.g. one value per sample) of valid ModelSpec parameters; the
    r row's arguments are a valid BathSpec's, so only the s row's are checked.
    ``plan(t)`` gives ``(r, s, phi)``.  The closed form's two rows, the r kernel
    (alpha, mu) and the s kernel (sqrt(alpha * gamma_coef), kappa), are one
    numerics._kernel_setup, made at the first evaluation and kept for times
    of that dimension (the rows lead, with room for the times' axes); phi
    comes from the s row.  The quadrature's parts are the r and s kernels,
    the total moment of s(0) and the phi sine moment: 3N + 1 rows for one
    model at N times > 0."""

    __slots__ = ("omega_c", "settings", "s0", "_rows", "_setups", "_parts")

    def __init__(self, alpha, mu, omega_c, gamma_coef, nu, backend: Backend, settings=None):
        if backend not in ("closed_form", "quadrature"):
            raise DomainError(f"unknown backend {backend!r}")
        c, kappa = np.sqrt(alpha * gamma_coef), 0.5 * (mu + nu)
        _check_kernel_args(c, kappa, omega_c)
        self.omega_c, self.settings = omega_c, settings
        self._parts = self._rows = self.s0 = None
        if backend == "quadrature":
            self._parts = (
                _part(_KERNEL, alpha, mu, omega_c), _part(_KERNEL, c, kappa, omega_c),
                _total_part(gamma_coef, nu, omega_c), _part(_SINE, c, kappa, omega_c),
            )
            return
        self._rows, self._setups = [(alpha, mu), (c, kappa)], {}
        self.s0 = -gamma_moment(0.5 * gamma_coef, nu, omega_c)

    def __call__(self, t) -> tuple:
        times = np.asarray(t, dtype=float)
        _check_times(times, self.omega_c)
        if self._parts is not None:
            r, s_kernel, total, phi = _de_integral(
                [part if part[-1] is not None else (*part[:-1], times) for part in self._parts],
                self.settings,
            )
            return np.maximum(4.0 * r, 0.0), 2.0 * s_kernel - 0.5 * total, phi
        setup = self._setups.get(times.ndim)
        if setup is None:
            # r is 4 and s - s(0) 2 kernels: bounded by the moments where every q > 0
            setup = self._setups[times.ndim] = _kernel_setup(
                self._rows, self.omega_c, times.ndim, (4.0, 2.0))
        terms = _time_terms(self.omega_c, times)
        if setup[5] is None and setup[6] is None:
            kernel, phi = _closed_kernel(setup, terms, sine=1)
            return 4.0 * kernel[0], 2.0 * kernel[1] + self.s0, phi
        # the small-exponent limit and q < 0 grow with t: each evaluation is checked
        with np.errstate(over="ignore"):
            kernel, phi = _closed_kernel(setup, terms, sine=1)
            profile = 4.0 * kernel[0], 2.0 * kernel[1] + self.s0, phi
        if not all(np.isfinite(x).all() for x in profile):
            raise DomainError(f"closed-form r, s or phi overflows a double at t <= {times.max()}")
        return profile


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
    A call is one plan set up for the model (checks, Gamma moments, branch
    choices) and one evaluation on the whole time array, in one numpy pass;
    callers that evaluate a scenario at many time arrays keep the plan.

    One time is evaluated as an array of one time, so its fields carry the
    bits of that element of an array call.  Versions before the plan used
    numpy scalar arithmetic there, whose ``** 2`` is libm's pow where an
    array squares: a one-time closed-form r or s could then differ from the
    array element, and from today's value, by an ulp or two.  The set-up and
    the small arrays make a one-time closed-form call cost ~14 us (~9 us
    with scalar arithmetic); evaluate many times as one array.
    """
    b, d = m.bath, m.displacement
    times = np.asarray(t, dtype=float)[()]
    plan = _ProfilePlan(b.alpha, b.mu, b.omega_c, d.gamma_coef, d.nu, backend, settings)
    r, s, phi = plan(times)
    return DecoherenceProfile(t=times, r=r, s=s, phi=phi, backend=backend)


def limit_exponents(alpha, mu, omega_c, gamma_coef, nu):
    """``(s(0), r(inf), s(inf))`` elementwise over broadcastable, validated
    parameters with mu > 0; s(0) is the log overlap.  For mu <= 0 r(t) has
    no finite limit: callers refuse (profile_limit) or mask those elements.
    Where the overlap moment overflows a double, s(0) = s(inf) = -inf, since
    s(inf) <= r(inf) - Int f^2 / 4 (2 g f <= 4 g^2 + f^2 / 4): e**s(0) and
    e**(s(inf) - r(inf)) are 0 there.
    """
    # a prefactor that overflows is inf, which gamma_moment refuses
    with np.errstate(over="ignore"):
        s0 = _log_overlap(gamma_coef, nu, omega_c)
        r_inf = gamma_moment(4.0 * alpha, mu, omega_c)
        c, kappa = 2.0 * np.sqrt(alpha * gamma_coef), 0.5 * (mu + nu)
        try:
            s_inf = gamma_moment(c, kappa, omega_c) + s0
        except DomainError:  # where s0 = -inf this moment may overflow too: 0 stands in
            s_inf = gamma_moment(np.where(s0 > -math.inf, c, 0.0), kappa, omega_c) + s0
    return s0, r_inf, s_inf


def profile_limit(m: ModelSpec) -> DecoherenceProfile:
    """Analytic t -> inf profile: r and s saturate, phi vanishes.

    Requires ``mu > 0``: at and below the ohmic point r(t) grows without
    bound, every coherence dies, and the long-time distance limit is 0
    rather than a finite profile.
    """
    b, d = m.bath, m.displacement
    if not b.mu > 0.0:
        raise DomainError(
            f"r(t) diverges as t -> inf for mu <= 0 (got mu={b.mu}); "
            "all coherences vanish and the long-time distance limit is 0"
        )
    _, r_inf, s_inf = limit_exponents(b.alpha, b.mu, b.omega_c, d.gamma_coef, d.nu)
    if s_inf == -math.inf:
        raise DomainError(
            f"{0.5 * d.gamma_coef} * gamma({d.nu}) * {b.omega_c}**{d.nu} overflows a double: "
            "s(t) is not finite"
        )
    return DecoherenceProfile(
        t=math.inf, r=float(r_inf), s=float(s_inf), phi=0.0, backend="closed_form"
    )
