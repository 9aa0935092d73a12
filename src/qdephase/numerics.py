"""Special functions and quadrature for exponential-cutoff spectral integrals.

Everything in this module revolves around moments of the weight
``w**(p-1) * exp(-w/omega_c)`` on ``[0, inf)``:

* ``gamma``            -- Euler gamma function (``math.gamma`` with domain
  and overflow checks),
* ``gamma_moment``     -- the closed-form total moment
  ``c * gamma(p) * omega_c**p``, guarded against overflow,
* ``decay_kernel``     -- closed form of the dephasing kernel
  ``c * Int_0^inf w**(p-1) exp(-w/omega_c) (1 - cos(w t)) dw``, for one
  time or an array of times,
* ``total_moment`` / ``oscillatory_moment`` / ``kernel_by_quadrature``
  -- double-exponential quadrature of the same integrals, kept fully
  independent of the closed forms (no gamma function anywhere) so the two
  routes can cross-check each other.

All functions are pure; nothing here holds mutable state (the node tables
are cached constants), so concurrent calls are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Literal

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureSettings",
    "KernelArgs",
    "SMALL_EXPONENT_LIMIT",
    "gamma",
    "gamma_moment",
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

# Every quadrature rule is a trapezoidal sum in a variable u with step
# _STEP / 2**level, for level = 0 .. _LEVELS - 1.
_STEP = 0.125
_LEVELS = 6


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances of the quadrature backend.

    A result is accepted once two successive step halvings agree to within
    ``max(abs_tol, rel_tol * |value|)`` at every time.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if not (self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")


@dataclass(frozen=True)
class KernelArgs:
    """Arguments of the decay kernel: prefactor, exponent, cutoff, time.

    ``p > -1`` keeps ``w**(p-1) * (1 - cos(w t))`` integrable at the origin;
    the closed-form branch additionally needs ``p >= 0`` (see decay_kernel).
    ``t`` may be one time or an array of times.
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
        _check_times(self.t)


def _check_times(t) -> np.ndarray:
    times = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0.0)):
        raise DomainError(f"time must be finite and >= 0, got {t}")
    return times


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


def all_true(mask) -> bool:
    """Every element of a boolean array or scalar is true (scalars skip numpy)."""
    return bool(mask.all()) if getattr(mask, "ndim", 0) else bool(mask)


def _float_moment(c: float, p: float, omega_c: float) -> float:
    try:
        return c * math.gamma(p) * math.pow(omega_c, p) if c != 0.0 else 0.0
    except OverflowError:
        return math.inf


def gamma_moment(c, p, omega_c):
    """``c * gamma(p) * omega_c**p``, the closed form of ``c * Int_0^inf
    w**(p-1) e**(-w/omega_c) dw``, for p > 0.

    Elementwise over broadcastable arrays, with the arithmetic of a call on
    floats (numpy has no gamma function).  A zero prefactor gives 0 whatever
    the exponent.  Raises DomainError where the result overflows a double.
    """
    if isinstance(c, float) and isinstance(p, float) and isinstance(omega_c, float):
        value = _float_moment(float(c), p, omega_c)
        if math.isfinite(value):
            return value
    else:
        with np.errstate(over="ignore"):
            value = np.asarray(np.frompyfunc(_float_moment, 3, 1)(c, p, omega_c), dtype=float)
        bad = ~np.isfinite(value)
        if not bad.any():
            return value
        c, p, omega_c = (np.broadcast_to(x, value.shape)[bad][0] for x in (c, p, omega_c))
    raise DomainError(f"{c} * gamma({p}) * {omega_c}**{p} overflows a double")


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
    return gamma_moment(c, p, omega_c) * brace


# ---------------------------------------------------------------------------
# Double-exponential (DE) quadrature.  Each quantity is split at a point
# delta > 0 into
#
#   head      Int_0^delta w**(q-1) g(w) dw with g smooth: w = delta*v**(1/r),
#             r = min(q, 1), absorbs the endpoint power, then tanh-sinh in v;
#   envelope  Int_delta^inf w**(p-1) e**(-w/omega_c) dw: w = delta/v, then
#             tanh-sinh in v (the integrand vanishes double exponentially
#             at v = 0);
#   sine      Int_0^inf F(y) sin(t*y) dy with F(y) = (delta+y)**(p-1)
#             e**(-(delta+y)/omega_c), by the Ooura-Mori DE formula for
#             Fourier-type integrals (J. Comput. Appl. Math. 112 (1999) 229).
#
# delta sits on a zero of the trig factor, so every oscillatory tail is the
# same sine integral.  The rules run on [times x nodes] arrays and share one
# level-halving loop and one convergence gate; each time leaves the loop at
# its own level, so its value does not depend on the other times.


@cache
def _tanh_sinh(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-sinh nodes in logit form, z = pi*sinh(u), and weights h*dz/du."""
    h = _STEP / 2**level
    u = h * np.arange(-math.ceil(3.2 / h), math.ceil(4.5 / h) + 1)
    return _frozen(math.pi * np.sinh(u), h * math.pi * np.cosh(u))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Read-only arrays: the cached node tables are shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _unit_nodes(level: int, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes v = 1/(1 + e**(shift - z)) on (0, 1) and weights, one row per shift.

    The shift moves the centre of the rule to v = 1/(1 + e**shift), where
    the integrand of that row has its scale.
    """
    z, dz = _tanh_sinh(level)
    ez = np.exp(shift - z)
    v = 1.0 / (1.0 + ez)
    return v, dz * ez * v * v


@cache
def _ooura_mori(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_n = M*phi(nh) and weights pi*sin(x_n)*phi'(nh) with
    ``Int_0^inf f(x) sin(x) dx ~= sum f(x_n) w_n``, M = pi/h.

    phi(u) = u / (1 - exp(-2u - alpha(1 - e**-u) - beta(e**u - 1))); the
    nodes approach the zeros n*pi of sin double exponentially, so the sum
    needs no truncation of the integrand.  sin(x_n) is evaluated as
    (-1)**n sin(M*(phi - u)) for n > 0 to keep its tiny values accurate.
    """
    h = _STEP / 2**level
    m = math.pi / h
    beta = 0.25
    alpha = beta / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    g1 = 2.0 + alpha + beta
    n = np.arange(-math.ceil(10.0 / h), math.ceil(5.5 / h) + 1)
    u = h * n
    with np.errstate(all="ignore"):
        g = 2.0 * u - alpha * np.expm1(-u) + beta * np.expm1(u)
        e, d = np.exp(-g), -np.expm1(-g)
        phi = np.where(n == 0, 1.0 / g1, u / d)
        dphi = np.where(
            n == 0,
            0.5 + 0.5 * (alpha - beta) / g1**2,
            (1.0 - u * (2.0 + alpha * np.exp(-u) + beta * np.exp(u)) * e / d) / d,
        )
        sine = np.where(n > 0, (-1.0) ** n * np.sin(m * u * e / d), np.sin(m * phi))
        weight = math.pi * sine * dphi
    keep = np.abs(weight) > 1e-30  # also drops the far-left 0/0 and inf/inf
    return _frozen(m * phi[keep], weight[keep])


def _de_integral(
    what: str, c: float, p: float, omega_c: float, t: np.ndarray, delta: np.ndarray,
    q: float, g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    envelope_tail: bool, sine_sign: float, settings: QuadratureSettings | None,
) -> np.ndarray:
    """``c * (head + [envelope] + sine_sign * sine)`` for 1-D ``t`` and ``delta``.

    ``g(w, t)`` is the smooth head factor.  Every level halves the step of
    all rules; a time is done once two successive levels agree to within
    ``max(abs_tol, rel_tol * |value|)``.
    """
    s = settings if settings is not None else QuadratureSettings()
    r = min(q, 1.0)
    rows = np.arange(len(t))
    tc, dc = t[:, None], delta[:, None]
    # centre the head where w = delta*v**(1/r) reaches omega_c when delta is
    # larger, the envelope tail where w = delta/v does (clipped so that
    # e**(shift - z) stays finite)
    head_shift = np.minimum(r * np.log1p(dc / omega_c), 650.0)
    tail_shift = np.minimum(np.log(omega_c / dc), 650.0)
    out = np.empty(len(t))
    prev = np.full(len(t), np.nan)
    for level in range(_LEVELS):
        v, dv = _unit_nodes(level, head_shift)
        head = (v ** (q / r - 1.0) * g(dc * v ** (1.0 / r), tc) * dv).sum(1)
        value = dc[:, 0] ** q / r * head
        if envelope_tail:
            v, dv = _unit_nodes(level, tail_shift)
            tail = (np.exp(-(p + 1.0) * np.log(v) - dc / (omega_c * v)) * dv).sum(1)
            value += dc[:, 0] ** p * tail
        if sine_sign:
            y, dy = _ooura_mori(level)
            w = dc + y / tc
            value += sine_sign / tc[:, 0] * (w ** (p - 1.0) * np.exp(-w / omega_c) * dy).sum(1)
        value *= c
        gap = np.abs(value - prev)
        tol = np.maximum(s.abs_tol, s.rel_tol * np.abs(value))
        done = gap <= tol
        out[rows[done]] = value[done]
        if done.all():
            return out
        more = ~done
        rows, prev, gap, tol = rows[more], value[more], gap[more], tol[more]
        tc, dc, head_shift, tail_shift = tc[more], dc[more], head_shift[more], tail_shift[more]
    worst = int(np.argmax(gap / tol))
    raise ConvergenceError(
        f"{what} (p={p}, t={t[rows[worst]]}) did not converge: "
        f"level gap {gap[worst]:.3e} > {tol[worst]:.3e}"
    )


def total_moment(
    c: float, p: float, omega_c: float,
    settings: QuadratureSettings | None = None,
) -> float:
    """``c * Int_0^inf w**(p-1) e**(-w/omega_c) dw`` by quadrature (p > 0)."""
    if not (math.isfinite(p) and p > 0.0):
        raise DomainError(f"total moment diverges for p <= 0, got p={p}")
    if not (omega_c > 0.0 and math.isfinite(omega_c)):
        raise DomainError(f"omega_c must be positive, got {omega_c}")
    if c == 0.0:
        return 0.0
    value = _de_integral(
        "total moment", c, p, omega_c, np.zeros(1), np.full(1, omega_c), p,
        lambda w, _: np.exp(-w / omega_c), True, 0.0, settings,
    )
    return float(value[0])


def _moment(
    what: str, c: float, p: float, omega_c: float, t, settings,
    zero_value: float, delta_periods: float, q: float,
    g: Callable[[np.ndarray, np.ndarray], np.ndarray], envelope_tail: bool, sine_sign: float,
) -> float | np.ndarray:
    """Shared driver: ``zero_value`` at t = 0, the DE sum at every t > 0."""
    times = _check_times(t)
    out = np.full(times.shape, zero_value)
    pos = times > 0.0
    if c != 0.0 and np.any(pos):
        tp = times[pos]
        out[pos] = _de_integral(
            what, c, p, omega_c, tp, delta_periods * math.pi / tp, q,
            g, envelope_tail, sine_sign, settings,
        )
    return out[()]


def oscillatory_moment(
    c: float, p: float, omega_c: float, t: float | np.ndarray,
    kind: Literal["cos", "sin"],
    settings: QuadratureSettings | None = None,
) -> float | np.ndarray:
    """``c * Int_0^inf w**(p-1) e**(-w/omega_c) trig(w t) dw`` by quadrature.

    ``t`` is one time or an array of times.  The cosine moment needs p > 0;
    the sine moment converges for p > -1.  The head runs to the first zero
    of the trig factor (pi/(2t) for cos, pi/t for sin); the rest is one
    Ooura-Mori sine integral, accurate for arbitrarily large t.
    """
    if kind not in ("cos", "sin"):
        raise DomainError(f"kind must be 'cos' or 'sin', got {kind!r}")
    if not (math.isfinite(p) and math.isfinite(omega_c) and omega_c > 0.0):
        raise DomainError(f"need a finite p and omega_c > 0, got p={p}, omega_c={omega_c}")
    if kind == "cos" and p <= 0.0:
        raise DomainError(f"cosine moment diverges for p <= 0, got p={p}")
    if kind == "sin" and p <= -1.0:
        raise DomainError(f"sine moment diverges for p <= -1, got p={p}")
    if kind == "cos":
        times = _check_times(t)
        total = total_moment(c, p, omega_c, settings) if np.any(times == 0.0) else 0.0
        return _moment(
            "cosine moment", c, p, omega_c, times, settings, total, 0.5, p,
            lambda w, tc: np.exp(-w / omega_c) * np.cos(w * tc), False, -1.0,
        )
    # one power of w goes into sin(w t)/w = t*sinc(w t/pi), which is smooth
    return _moment(
        "sine moment", c, p, omega_c, t, settings, 0.0, 1.0, p + 1.0,
        lambda w, tc: np.exp(-w / omega_c) * tc * np.sinc(w * tc / math.pi), False, -1.0,
    )


def kernel_by_quadrature(
    args: KernelArgs, settings: QuadratureSettings | None = None
) -> float | np.ndarray:
    """Quadrature evaluation of the decay kernel's defining integral.

    Serves as the independent oracle for ``decay_kernel`` and as the
    computational route for exponents in (-1, 0] where the closed form
    does not apply.  ``args.t`` is one time or an array of times.  With
    delta = pi/(2t), the kernel is the head of ``w**(p+1) *
    (1 - cos(w t))/w**2`` on [0, delta], plus the envelope tail, minus the
    cosine tail, which equals plus the Ooura-Mori sine integral.
    """
    c, p, omega_c = args.c, args.p, args.omega_c
    return _moment(
        "kernel quadrature", c, p, omega_c, args.t, settings, 0.0, 0.5, p + 2.0,
        lambda w, tc: np.exp(-w / omega_c) * 2.0 * (np.sin(0.5 * w * tc) / w) ** 2,
        True, 1.0,
    )
