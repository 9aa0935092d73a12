"""Special functions and quadrature for exponential-cutoff spectral integrals.

Everything in this module revolves around moments of the weight
``w**(p-1) * exp(-w/omega_c)`` on ``[0, inf)``:

* ``gamma``            -- Euler gamma function (``math.gamma`` with domain
  and overflow checks),
* ``decay_kernel``     -- closed form of the dephasing kernel
  ``c * Int_0^inf w**(p-1) exp(-w/omega_c) (1 - cos(w t)) dw``, for one
  time or an array of times,
* ``total_moment`` / ``oscillatory_moment`` / ``kernel_by_quadrature``
  -- adaptive-quadrature evaluations of the same integrals, kept fully
  independent of the closed forms so the two routes can cross-check
  each other.

All functions are pure; nothing here holds mutable state, so concurrent
calls are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
from scipy.integrate import quad

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureSettings",
    "KernelArgs",
    "SMALL_EXPONENT_LIMIT",
    "gamma",
    "power",
    "decay_kernel",
    "total_moment",
    "oscillatory_moment",
    "kernel_by_quadrature",
]

# Below this exponent the closed-form kernel switches to its analytic
# p -> 0 limit (c/2)*log(1 + (omega_c*t)**2).  The stabilised evaluation
# (expm1 + half-angle sine) stays accurate for arbitrarily small p, so the
# switch only has to cover p = 0 itself; at the seam the two branches agree
# to ~1e-8 relative, comfortably inside the 1e-6 requirement.
SMALL_EXPONENT_LIMIT = 1e-7

# QUADPACK error estimates are bounds, routinely 1-3 orders above the true
# error and floor-limited near roundoff.  Internal convergence gates allow
# this much slack before declaring failure; end-to-end accuracy is pinned
# separately by the closed-form/quadrature agreement tests.
_GATE_SLACK = 50.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

_LONGMAN_PANELS_MIN = 96
_LONGMAN_PANELS_CAP = 256
_LONGMAN_PANELS_MAX = 16384


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and limits for the adaptive-quadrature backend."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000
    tail_cut_multiplier: float = 60.0

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if not (self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise DomainError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )
        if not (self.tail_cut_multiplier >= 10.0):
            raise DomainError(
                f"tail_cut_multiplier must be >= 10, got {self.tail_cut_multiplier}"
            )


@dataclass(frozen=True)
class KernelArgs:
    """Arguments of the decay kernel: prefactor, exponent, cutoff, time.

    ``p > -1`` keeps ``w**(p-1) * (1 - cos(w t))`` integrable at the origin;
    the closed-form branch additionally needs ``p >= 0`` (see decay_kernel).
    ``t`` may be one time or an array of times for ``decay_kernel``;
    ``kernel_by_quadrature`` takes one time.
    """

    c: float
    p: float
    omega_c: float
    t: float | np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise DomainError(f"kernel prefactor c must be >= 0, got {self.c}")
        if not (math.isfinite(self.p) and self.p > -1.0):
            raise DomainError(f"kernel exponent p must be > -1, got {self.p}")
        if not (math.isfinite(self.omega_c) and self.omega_c > 0.0):
            raise DomainError(f"omega_c must be positive, got {self.omega_c}")
        t = np.asarray(self.t, dtype=float)
        if not np.all(np.isfinite(t) & (t >= 0.0)):
            raise DomainError(f"time must be finite and >= 0, got {self.t}")


def gamma(x: float) -> float:
    """Euler gamma function for positive real arguments (``math.gamma``).

    Raises DomainError for x <= 0, non-finite x, and x above ~171.62, where
    the result overflows a double.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires a finite x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma({x}) overflows a double") from None


def power(base: float, exponent: float) -> float:
    """``base**exponent`` (``math.pow``); DomainError where it overflows a double."""
    try:
        return math.pow(base, exponent)
    except OverflowError:
        raise DomainError(f"{base}**{exponent} overflows a double") from None


def decay_kernel(args: KernelArgs) -> float | np.ndarray:
    """Closed form of ``c * Int_0^inf w**(p-1) e**(-w/omega_c) (1-cos(w t)) dw``.

    Equals ``c * gamma(p) * omega_c**p * (1 - cos(p*atan(x)) / (1+x^2)**(p/2))``
    with ``x = omega_c * t``, elementwise over an array ``t``.  The brace is
    evaluated via ``expm1`` and a half-angle sine so no precision is lost
    when ``p`` or ``t`` is small.  For ``p`` below SMALL_EXPONENT_LIMIT
    (including ``p = 0``) the analytic limit ``(c/2) * log(1 + x^2)`` is
    returned.  Strictly negative exponents are refused here;
    ``kernel_by_quadrature`` serves that regime.
    """
    c, p, omega_c, t = args.c, args.p, args.omega_c, args.t
    if p < 0.0:
        raise DomainError(
            f"closed-form kernel needs p >= 0, got p={p}; "
            "use kernel_by_quadrature for p in (-1, 0)"
        )
    x = omega_c * np.asarray(t, dtype=float)
    half_log = 0.5 * np.log1p(x * x)
    if p < SMALL_EXPONENT_LIMIT:
        return c * half_log
    b = p * half_log
    brace = -np.expm1(-b) + np.exp(-b) * 2.0 * np.sin(0.5 * p * np.arctan(x)) ** 2
    return c * gamma(p) * power(omega_c, p) * brace


def _upper_limit(omega_c: float, settings: QuadratureSettings) -> float:
    return omega_c * settings.tail_cut_multiplier


def _quad_checked(f, lo, hi, settings, *, abs_tol=None):
    eps = settings.abs_tol if abs_tol is None else abs_tol
    value, err = quad(
        f, lo, hi,
        epsabs=eps, epsrel=settings.rel_tol, limit=settings.max_subdivisions,
        full_output=1,
    )[:2]
    return value, err


def _graded_head(g: Callable[[float], float], q: float, delta: float, settings) -> tuple[float, float]:
    """``Int_0^delta w**(q-1) g(w) dw`` via the substitution ``w = delta*v**(1/q)``.

    Valid for q > 0 and smooth g; the transformed integrand is regular.
    """
    inv_q = 1.0 / q

    def transformed(v: float) -> float:
        return g(delta * v**inv_q)

    value, err = _quad_checked(transformed, 0.0, 1.0, settings, abs_tol=1e-14)
    scale = delta**q / q
    return value * scale, abs(err) * scale


def _binomial_mean(values: np.ndarray) -> float:
    """Mean of ``values`` under Binomial(len - 1, 1/2) weights, built in log
    space outward from the mode so nothing underflows or loses precision."""
    k = len(values) - 1
    mode = k // 2
    i = np.arange(k, dtype=float)
    log_ratio = np.log((k - i) / (i + 1.0))
    log_w = np.concatenate((
        np.cumsum(-log_ratio[:mode][::-1])[::-1],
        [0.0],
        np.cumsum(log_ratio[mode:]),
    ))
    w = np.exp(log_w)
    return float(w @ values / w.sum())


def _euler_sum(terms: np.ndarray) -> tuple[float, float]:
    """Accelerated sum of an alternating series by repeated averaging.

    n - 1 rounds of pairwise averaging of the n partial sums leave their
    Binomial(n-1, 1/2)-weighted mean; the round before ends in the
    Binomial(n-2, 1/2)-weighted mean of the last n - 1.  Both are formed
    directly, in O(n), and their gap is the error estimate.
    """
    partials = np.cumsum(terms)
    if len(partials) == 1:
        return float(partials[0]), float(abs(partials[0]))
    best = _binomial_mean(partials)
    return best, abs(best - _binomial_mean(partials[1:]))


def _longman_tail(
    p: float, omega_c: float, t: float, w0: float,
    kind: Literal["cos", "sin"], abs_tol: float,
) -> tuple[float, float]:
    """``Int_w0^inf w**(p-1) e**(-w/omega_c) trig(w t) dw`` by half-period panels.

    ``w0`` must sit on a zero of the trig factor so consecutive panel
    integrals alternate in sign; the envelope is completely monotone for
    p <= 1, which makes the averaged partial sums converge geometrically.
    The panel window covers the exponential support of the envelope when it
    can; beyond the panel cap (large t) the averaged extrapolation carries
    the remaining power-law-decaying series.  While its error estimate
    exceeds ``abs_tol`` the cap grows fourfold, up to _LONGMAN_PANELS_MAX,
    and only the added panels are evaluated.
    """
    trig = np.cos if kind == "cos" else np.sin
    h = math.pi / t
    support = 45.0 * omega_c
    needed = max(_LONGMAN_PANELS_MIN, math.ceil((support - w0) / h))
    terms = np.empty(0)
    cap = _LONGMAN_PANELS_CAP
    while True:
        n_panels = min(cap, needed)
        starts = w0 + h * np.arange(len(terms), n_panels)
        w = (starts + 0.5 * h)[:, None] + (0.5 * h) * _GL_NODES[None, :]
        vals = w ** (p - 1.0) * np.exp(-w / omega_c) * trig(w * t)
        terms = np.concatenate((terms, (0.5 * h) * (vals * _GL_WEIGHTS[None, :]).sum(axis=1)))
        value, est = _euler_sum(terms)
        if est <= abs_tol or n_panels == needed or cap >= _LONGMAN_PANELS_MAX:
            return value, est
        cap *= 4


def total_moment(
    c: float, p: float, omega_c: float,
    settings: QuadratureSettings | None = None,
) -> float:
    """``c * Int_0^inf w**(p-1) e**(-w/omega_c) dw`` by quadrature (p > 0)."""
    s = settings if settings is not None else QuadratureSettings()
    if not (math.isfinite(p) and p > 0.0):
        raise DomainError(f"total moment diverges for p <= 0, got p={p}")
    if not (omega_c > 0.0 and math.isfinite(omega_c)):
        raise DomainError(f"omega_c must be positive, got {omega_c}")
    if c == 0.0:
        return 0.0
    upper = _upper_limit(omega_c, s)

    def envelope(w: float) -> float:
        return w ** (p - 1.0) * math.exp(-w / omega_c)

    if p >= 1.0:
        value, err = _quad_checked(envelope, 0.0, upper, s)
    else:
        head, e1 = _graded_head(lambda w: math.exp(-w / omega_c), p, omega_c, s)
        tail, e2 = _quad_checked(envelope, omega_c, upper, s)
        value, err = head + tail, e1 + e2
    tol = _GATE_SLACK * max(s.abs_tol, s.rel_tol * abs(value))
    if err > tol:
        raise ConvergenceError(
            f"total moment (p={p}) did not converge: estimate {err:.3e} > {tol:.3e}"
        )
    return c * value


def oscillatory_moment(
    c: float, p: float, omega_c: float, t: float,
    kind: Literal["cos", "sin"],
    settings: QuadratureSettings | None = None,
) -> float:
    """``c * Int_0^inf w**(p-1) e**(-w/omega_c) trig(w t) dw`` by quadrature.

    The cosine moment needs p > 0; the sine moment converges for p > -1.
    Exponents above 1 are reduced with the exact integration-by-parts
    recurrence; p <= 1 uses a graded head panel up to the first trig zero
    plus accelerated half-period panel summation, which stays accurate for
    arbitrarily large t.
    """
    s = settings if settings is not None else QuadratureSettings()
    if kind not in ("cos", "sin"):
        raise DomainError(f"kind must be 'cos' or 'sin', got {kind!r}")
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"time must be finite and >= 0, got {t}")
    if kind == "cos" and p <= 0.0:
        raise DomainError(f"cosine moment diverges for p <= 0, got p={p}")
    if kind == "sin" and p <= -1.0:
        raise DomainError(f"sine moment diverges for p <= -1, got p={p}")
    if c == 0.0:
        return 0.0
    if t == 0.0:
        return total_moment(c, p, omega_c, s) if kind == "cos" else 0.0
    value, err = _osc_unit(p, omega_c, t, kind, s)
    tol = _GATE_SLACK * max(s.abs_tol, s.rel_tol * abs(c * value))
    if c * err > tol:
        raise ConvergenceError(
            f"oscillatory moment (p={p}, t={t}, {kind}) did not converge: "
            f"estimate {c * err:.3e} > {tol:.3e}"
        )
    return c * value


def _osc_unit(p, omega_c, t, kind, settings) -> tuple[float, float]:
    if p > 1.0:
        # integration by parts reduces the exponent by one:
        #   C(p) = (p-1)/(a^2+t^2) * (a*C(p-1) - t*S(p-1))
        #   S(p) = (p-1)/(a^2+t^2) * (t*C(p-1) + a*S(p-1))
        # with a = 1/omega_c.
        a = 1.0 / omega_c
        den = a * a + t * t
        cm, ec = _osc_unit(p - 1.0, omega_c, t, "cos", settings)
        sm, es = _osc_unit(p - 1.0, omega_c, t, "sin", settings)
        factor = (p - 1.0) / den
        if kind == "cos":
            return factor * (a * cm - t * sm), abs(factor) * (a * ec + t * es)
        return factor * (t * cm + a * sm), abs(factor) * (t * ec + a * es)

    mtrig = math.cos if kind == "cos" else math.sin
    delta = math.pi / (2.0 * t) if kind == "cos" else math.pi / t

    if p > 0.0:
        head, e_head = _graded_head(
            lambda w: math.exp(-w / omega_c) * mtrig(w * t), p, delta, settings
        )
    else:
        # sine only: fold one power of w into sin(w t)/w, which is smooth.
        head, e_head = _graded_head(
            lambda w: math.exp(-w / omega_c) * (math.sin(w * t) / w if w > 0.0 else t),
            p + 1.0, delta, settings,
        )

    tail, e_tail = _longman_tail(p, omega_c, t, delta, kind, settings.abs_tol)
    return head + tail, e_head + e_tail


def kernel_by_quadrature(
    args: KernelArgs, settings: QuadratureSettings | None = None
) -> float:
    """Quadrature evaluation of the decay kernel's defining integral.

    Serves as the independent oracle for ``decay_kernel`` and as the
    computational route for exponents in (-1, 0] where the closed form
    does not apply.  Strategy: direct adaptive integration while the
    oscillation count is modest (omega_c * t <= 4), otherwise a split into
    the non-oscillatory total minus the cosine moment (p > 1), or a
    head/smooth-tail/alternating-tail decomposition (p <= 1) that also
    covers negative exponents.
    """
    s = settings if settings is not None else QuadratureSettings()
    c, p, omega_c, t = args.c, args.p, args.omega_c, args.t
    if c == 0.0 or t == 0.0:
        return 0.0
    x = omega_c * t
    upper = _upper_limit(omega_c, s)

    if x <= 4.0:
        def integrand(w: float) -> float:
            return (
                w ** (p - 1.0)
                * math.exp(-w / omega_c)
                * 2.0 * math.sin(0.5 * w * t) ** 2
            )

        value, err = _quad_checked(integrand, 0.0, upper, s)
        tol = _GATE_SLACK * max(s.abs_tol, s.rel_tol * abs(value))
        if err > tol:
            raise ConvergenceError(
                f"kernel quadrature (p={p}, t={t}) did not converge: "
                f"estimate {err:.3e} > {tol:.3e}"
            )
        return c * value

    if p > 1.0:
        total = total_moment(1.0, p, omega_c, s)
        cosine, e_cos = _osc_unit(p, omega_c, t, "cos", s)
        return c * (total - cosine)

    delta = math.pi / (2.0 * t)

    def head_integrand(w: float) -> float:
        return (
            w ** (p - 1.0)
            * math.exp(-w / omega_c)
            * 2.0 * math.sin(0.5 * w * t) ** 2
        )

    head, e_head = _quad_checked(head_integrand, 0.0, delta, s, abs_tol=1e-14)

    def envelope(w: float) -> float:
        return w ** (p - 1.0) * math.exp(-w / omega_c)

    smooth, e_smooth = _quad_checked(envelope, delta, upper, s)
    cosine, e_cos = _longman_tail(p, omega_c, t, delta, "cos", s.abs_tol)

    value = head + smooth - cosine
    err = e_head + e_smooth + e_cos
    tol = _GATE_SLACK * max(s.abs_tol, s.rel_tol * abs(value))
    if err > tol:
        raise ConvergenceError(
            f"kernel quadrature (p={p}, t={t}) did not converge: "
            f"estimate {err:.3e} > {tol:.3e}"
        )
    return c * value
