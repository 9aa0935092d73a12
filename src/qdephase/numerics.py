"""Special functions and quadrature for exponential-cutoff spectral integrals.

Everything in this module revolves around moments of the weight
``w**(p-1) * exp(-w/omega_c)`` on ``[0, inf)``:

* ``gamma_moment``     -- the closed-form total moment
  ``c * gamma(p) * omega_c**p``, guarded against overflow,
* ``decay_kernel``     -- closed form of the dephasing kernel
  ``c * Int_0^inf w**(p-1) exp(-w/omega_c) (1 - cos(w t)) dw``, for one
  time or an array of times,
* ``total_moment`` / ``sine_moment`` / ``kernel_by_quadrature``
  -- double-exponential quadrature of the same integrals, kept fully
  independent of the closed forms (no gamma function anywhere): the oracle
  that the closed forms are checked against.

All functions are pure; nothing here holds mutable state (the node tables
are cached constants), so concurrent calls are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureSettings",
    "KernelArgs",
    "SMALL_EXPONENT_LIMIT",
    "gamma_moment",
    "decay_kernel",
    "total_moment",
    "sine_moment",
    "kernel_by_quadrature",
]

# For |p| < SMALL_EXPONENT_LIMIT the closed forms switch to their analytic
# p -> 0 limits, (c/2)*log(1 + x**2) and c*atan(x) with x = omega_c*t.  The
# limits are off by ~|p| log(x) relative for the sine moment and half that for
# the kernel, < 1e-9 relative at every accepted time.  The stabilised Gamma
# forms (expm1 + half-angle sine) stay within 1e-9 tolerances of 50-digit
# values down to |p| = 1e-20.
SMALL_EXPONENT_LIMIT = 1e-12

# Largest t and omega_c * t accepted.  The closed forms square x = omega_c * t,
# which overflows past ~1.34e154; this bound keeps them finite with room.
MAX_SCALED_TIME = 1e150

# Bound of the kernel's brace 1 - e**(-b) cos(q atan x) for 0 < q <= 1, where
# q atan x <= pi/2: 1, plus room for the brace's rounding (2 for q > 1).
_UNIT_BRACE = 1.0 + 2.0**-48

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
        if not 0.0 < self.abs_tol < math.inf:
            raise DomainError(f"abs_tol must be finite and positive, got {self.abs_tol}")
        if not 0.0 < self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be finite and positive, got {self.rel_tol}")


@dataclass(frozen=True)
class KernelArgs:
    """Arguments of the decay kernel: prefactor, exponent, cutoff, time.

    ``p > -1`` keeps ``w**(p-1) * (1 - cos(w t))`` integrable at the origin.
    Times need ``0 <= max(1, omega_c) * t <= MAX_SCALED_TIME``.  ``t`` is one
    time or an array of times; ``c``, ``p`` and ``omega_c`` are floats or
    arrays that broadcast against it.
    """

    c: float | np.ndarray
    p: float | np.ndarray
    omega_c: float | np.ndarray
    t: float | np.ndarray

    def __post_init__(self) -> None:
        _check_kernel_args(self.c, self.p, self.omega_c)
        _check_times(np.asarray(self.t, dtype=float), self.omega_c)


def _check_kernel_args(c, p, omega_c) -> None:
    """KernelArgs' checks of c, p and omega_c."""
    if not all_true(ok := (c >= 0.0) & (c < math.inf)):
        raise DomainError(f"kernel prefactor c must be >= 0, got {_first_failing(c, ok)}")
    if not all_true(ok := (p > -1.0) & (p < math.inf)):
        raise DomainError(f"kernel exponent p must be > -1, got {_first_failing(p, ok)}")
    if not all_true(ok := (omega_c > 0.0) & (omega_c < math.inf)):
        raise DomainError(f"omega_c must be positive, got {_first_failing(omega_c, ok)}")


def _check_times(times: np.ndarray, omega_c) -> None:
    """KernelArgs' check of the times."""
    # a quotient, not max(1, omega_c) * t, which can overflow
    bound = MAX_SCALED_TIME / (
        np.maximum(omega_c, 1.0) if isinstance(omega_c, np.ndarray) else max(omega_c, 1.0))
    if not ((times >= 0.0) & (times <= bound)).all():
        raise DomainError(
            f"time must satisfy 0 <= max(1, omega_c) * t <= {MAX_SCALED_TIME:g}, got t in "
            f"[{times.min()}, {times.max()}] at omega_c up to {np.max(omega_c)}"
        )


def all_true(mask) -> bool:
    """Every element of a boolean array or scalar is true (scalars skip numpy)."""
    return bool(mask.all()) if getattr(mask, "ndim", 0) else bool(mask)


def _first_failing(values, ok):
    """The first element of ``values`` where the mask ``ok`` is false, as a
    Python scalar: one value for a message, whatever the shape."""
    return np.broadcast_to(values, np.shape(ok))[np.logical_not(ok)][0].item()


def _gamma_and_power(p: float, omega_c: float) -> tuple[float, float]:
    """``(gamma(p), omega_c**p)`` on floats; both inf past overflow or at a pole."""
    try:
        return math.gamma(p), math.pow(omega_c, p)
    except (OverflowError, ValueError):
        return math.inf, math.inf


_GAMMA_AND_POWER = np.frompyfunc(_gamma_and_power, 2, 2)
# the builtins alone, without a Python frame per element; they raise where
# _gamma_and_power gives inf
_GAMMA, _POWER = np.frompyfunc(math.gamma, 1, 1), np.frompyfunc(math.pow, 2, 1)


def gamma_moment(c, p, omega_c):
    """``c * gamma(p) * omega_c**p``, the closed form of ``c * Int_0^inf
    w**(p-1) e**(-w/omega_c) dw`` for p > 0, and the Gamma prefactor of the
    oscillatory closed forms for every p > -1.

    Elementwise over broadcastable arrays, with the arithmetic of a call on
    floats (numpy has no gamma function), once per (p, omega_c) element, not
    per c: one float call where p and omega_c are 0-d, else math.gamma and
    math.pow elementwise.  A zero prefactor gives 0 whatever the exponent.
    Raises DomainError where the result overflows a double or p is a pole of
    Gamma.
    """
    if isinstance(c, float) and isinstance(p, float) and isinstance(omega_c, float):
        g, w = _gamma_and_power(p, omega_c)
        value = (float(c) * g) * w if c != 0.0 else 0.0
        if math.isfinite(value):
            return value
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            if np.ndim(p) == 0 and np.ndim(omega_c) == 0:
                g, w = _gamma_and_power(float(p), float(omega_c))
            else:
                try:
                    g, w = _GAMMA(p), _POWER(omega_c, p)
                except (OverflowError, ValueError):  # a pole or an overflow: inf there
                    g, w = _GAMMA_AND_POWER(p, omega_c)
                g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
            # (c * g) * w: the multiplication order of the float call
            value = np.where(c == 0.0, 0.0, (c * g) * w)
        bad = ~np.isfinite(value)
        if not bad.any():
            return value
        c, p, omega_c = (np.broadcast_to(x, value.shape)[bad][0] for x in (c, p, omega_c))
    raise DomainError(f"{c} * gamma({p}) * {omega_c}**{p} overflows a double")


def decay_kernel(args: KernelArgs) -> float | np.ndarray:
    """Closed form of ``c * Int_0^inf w**(p-1) e**(-w/omega_c) (1-cos(w t)) dw``.

    Equals ``c * gamma(p) * omega_c**p * (1 - cos(p*atan(x)) / (1+x^2)**(p/2))``
    with ``x = omega_c * t``, elementwise over the broadcast arguments.  The
    brace is evaluated via ``expm1`` and a half-angle sine so no precision
    is lost when ``p`` or ``t`` is small.  The form holds for every p > -1
    (Gradshteyn and Ryzhik, 3.944; on (-1, 0) Gamma(p) and the brace are both
    negative).  Below p = -1/2 the brace is evaluated about the pole of Gamma
    at -1, where it vanishes.  For |p| < SMALL_EXPONENT_LIMIT = 1e-12
    (including ``p = 0``) the analytic limit ``(c/2) * log(1 + x^2)`` is
    returned; it is off by ~|p| log(x)/2 relative, below 1e-9 at every
    accepted time.
    """
    ndim = np.broadcast(args.c, args.p, args.omega_c, args.t).ndim
    setup = _kernel_setup([(args.c, args.p)], args.omega_c, ndim)
    return _closed_kernel(setup, _time_terms(args.omega_c, args.t))[0]


def _time_terms(omega_c, t) -> tuple:
    """``(log(1 + x^2) / 2, atan(x), x)``, x = omega_c * t: all a closed form takes from t."""
    x = omega_c * np.asarray(t, dtype=float)
    return 0.5 * np.log1p(x * x), np.arctan(x), x


def _kernel_setup(rows: list, omega_c, ndim: int = 0, scales: tuple | None = None) -> tuple:
    """What _closed_kernel takes from kernel rows ``(c, p)`` of broadcastable
    arguments sharing omega_c, whatever the times: ``(c, q, -q, q/2, moment,
    small, pole)`` on a leading axis of rows, with room for ``ndim`` axes of
    the times.  q is p, or 1 where |p| < SMALL_EXPONENT_LIMIT (so Gamma never
    meets its pole at 0); moment is c * Gamma(q) * omega_c**q, 0 where p is
    small; small masks the p -> 0 limits and pole the brace of q < -1/2, each
    None where it holds nowhere (pole: where every q >= 0).  The brace of q > 0
    is at most 2, and at most 1 (q atan x <= pi/2) up to rounding for q <= 1:
    DomainError where that bound times moment and the row's ``scales`` overflows."""
    scales = scales or (1.0,) * len(rows)
    if isinstance(omega_c, float) and all(isinstance(x, float) for row in rows for x in row):
        # one model: each row through gamma_moment's float path, no Gamma for a
        # small p.  The array path gives the same bits but takes ~15 us instead
        # of ~3 (numpy calls on 2-element arrays): a closed-form series op
        # ~25% longer
        columns, any_small, negative = [], False, False
        for c, p in rows:
            if abs(p) < SMALL_EXPONENT_LIMIT:
                columns.append((c, 1.0, -1.0, 0.5, 0.0, 1.0))
                any_small = True
            else:
                columns.append((c, p, -p, 0.5 * p, gamma_moment(c, p, omega_c), 0.0))
                negative = negative or p < 0.0
        reach = [(2.0 if col[1] > 1.0 else _UNIT_BRACE) * k * col[4] if col[1] > 0.0 else 0.0
                 for col, k in zip(columns, scales)]
        stack = np.array(columns).T.reshape((6, len(rows)) + (1,) * ndim)
        c, q, minus_q, half_q, moment, small = stack
        small = small != 0.0 if any_small else None
    else:
        # [c, p] x row x (the shape of every c, p and omega_c), with room for the times
        *cp, _ = np.broadcast_arrays(*(x for field in zip(*rows) for x in field), omega_c)
        cp = np.array(cp, dtype=float)
        c, p = cp.reshape((2, len(rows)) + (1,) * (ndim + 1 - cp.ndim) + cp.shape[1:])
        small = abs(p) < SMALL_EXPONENT_LIMIT
        q = np.where(small, 1.0, p)
        moment = gamma_moment(np.where(small, 0.0, c), q, omega_c)
        minus_q, half_q, small = -q, 0.5 * q, small if small.any() else None
        negative = not all_true(q >= 0.0)
        with np.errstate(over="ignore"):
            k = np.reshape(scales, (-1,) + (1,) * (q.ndim - 1))
            reach = np.where(q > 1.0, 2.0, _UNIT_BRACE) * k * np.where(q > 0.0, moment, 0.0)
    if math.inf in reach:  # moment >= 0 where q > 0
        raise DomainError(f"closed-form kernel overflows a double: scaled by {scales}, it nears "
                          f"c * gamma(p) * omega_c**p = {np.max(np.where(q > 0, moment, 0))} "
                          "times 2 (1 where p <= 1)")
    return c, q, minus_q, half_q, moment, small, q < -0.5 if negative else None


def _closed_kernel(setup: tuple, terms: tuple, sine: int | None = None):
    """decay_kernel, one row per row of a _kernel_setup, on _time_terms.

    With ``sine``, a row, the pair of the kernels and that row's ``c *
    Int_0^inf w**(p-1) e**(-w/omega_c) sin(w t) dw``: the same moment times
    ``sin(p*atan(x)) / (1+x^2)**(p/2)`` (shared Gamma and damping).
    """
    c, q, minus_q, half_q, moment, small, pole = setup
    half_log, atan, x = terms
    minus_b = minus_q * half_log
    damp = np.exp(minus_b)
    brace = damp * 2.0 * np.sin(half_q * atan) ** 2 - np.expm1(minus_b)
    if pole is None:
        # the expression below gives the same bits here, but its pole brace
        # doubles the cost of an evaluation
        kernel = moment * brace
    else:
        # below p = -1/2, with d = p + 1, cos(p*atan(x)) / (1+x^2)**(p/2) is
        # (cos(d*atan(x)) + x sin(d*atan(x))) / (1+x^2)**(d/2): a brace that keeps
        # its digits as d -> 0, where the one above cancels to zero
        d = q + 1.0
        pole_brace = -np.expm1(-d * half_log) + np.exp(-d * half_log) * (
            2.0 * np.sin(0.5 * d * atan) ** 2 - x * np.sin(d * atan))
        # + 0.0 turns the -0.0 of a zero brace times a negative Gamma(p) into 0.0
        kernel = moment * np.where(pole, pole_brace, brace) + 0.0
    # p -> 0 limits: (c/2) log(1 + x^2), and c * atan(x) for Gamma(p) sin(p atan x)
    if small is not None:
        kernel = np.where(small, c * half_log, kernel)
    if sine is None:
        return kernel
    # + 0.0 turns the -0.0 of a zero prefactor and a negative sine into 0.0
    moment = moment[sine] * np.sin(q[sine] * atan) * damp[sine] + 0.0
    return kernel, moment if small is None else np.where(small[sine], c[sine] * atan, moment)


# ---------------------------------------------------------------------------
# Double-exponential (DE) quadrature.  Each quantity is split at a point
# delta > 0 into
#
#   head      Int_0^delta w**(q-1) e**(-w/omega_c) g dw, g smooth (t**q_offset
#             times a function of w*t): w = delta*v**(1/r), r = min(q, 1),
#             absorbs the endpoint power, then tanh-sinh in v;
#   envelope  Int_delta^inf w**(p-1) e**(-w/omega_c) dw: w = delta/v, then
#             tanh-sinh in v (the integrand vanishes double exponentially
#             at v = 0);
#   sine      Int_0^inf F(y) sin(t*y) dy with F(y) = (delta+y)**(p-1)
#             e**(-(delta+y)/omega_c), by the Ooura-Mori DE formula for
#             Fourier-type integrals (J. Comput. Appl. Math. 112 (1999) 229).
#
# Each row is taken relative to its integrand at a peak w0 (w**q e**(-w/omega_c)
# per unit log w in the head, w**p e**(-w/omega_c) in the envelope, F in the
# sine), so no term overflows.  Its factor, c times g's scale times that peak, is
# one exp of a log column, and a DomainError past a double before any node runs.
#
# Both tanh-sinh rules take v = 1/(1 + e**(shift - k*z)), fitted per row to
# where the integrand lives: a head with q > 1 centres on w = q*omega_c (when
# delta is larger) and an envelope with p > 0 on w - delta = (1+p)*omega_c,
# each with k = 1/sqrt(q) or 1/sqrt(1+p), the width of w**(q-1) e**(-w/omega_c)
# about its peak in log w, down to k = 1/4 (_PEAK_CAP).  Other rows centre
# on omega_c with k = 1.
#
# delta sits on a zero of the trig factor, so every oscillatory tail is the
# same sine integral.  An _Integral is one kind of quantity: its split, head
# and tails.  A part is one kind over broadcast arguments, with one row per
# element at t > 0 and c != 0.  _de_integral evaluates a table of parts on
# [rows x nodes] arrays, its rows stacked as
#
#   [ sine only (sine moments) | sine + envelope (kernels) | envelope only ]
#
# so that each part is a contiguous slice, the sine rows are the first and
# the envelope rows the last of every block, and all stay so as converged rows
# leave in order.  The node tables, the level-halving loop, the convergence
# gate and the error report are shared, and so is every power: _de_table
# fills each row's exponents, offsets and factors as table columns, and the
# sums form each term as the exp of a log, whatever the parameters' type.
# A smooth factor runs once per run of adjacent parts that share it.  Each
# row leaves the loop at its own level, so its value does not depend on the
# other rows (a batch row equals its one-model call to the bit), and the
# table runs in equal blocks of at most _BLOCK rows, which bound the [rows x
# nodes] temporaries of long arrays.
#
# The loop runs the levels in passes (0, 1), (2,), (3,), ...: most rows leave
# at level 1, so the first pass evaluates two levels at once.  Level 0's
# tanh-sinh nodes are level 1's even nodes and its weights twice theirs, bit
# for bit (ceil(3.2/h) and ceil(4.5/h) double when h halves, and k*z scales
# both alike), so the head and the envelope run on level 1's nodes and level
# 0's sum is twice the even-column sum (Takahasi and Mori, Publ. RIMS 9
# (1974) 721).  The Ooura-Mori nodes do not nest: the sine tail runs on both
# levels' nodes side by side.  Level 0 has no level before it to agree with,
# so only the last level of a pass can accept a row, and every row leaves at
# the level it would one level at a time.

# Rows of a DE table that go through the level loop together.
_BLOCK = 128

# Cap of the peak power that sets a row's k = power**-0.5: at k >= 1/4 the
# rule's v -> 1 end, k*pi*sinh(4.5) >= 35, leaves out e**-35 of w's range.
_PEAK_CAP = 16.0

# Fields of a DE table, one value per row each: the row's arguments, split point
# and delta/omega_c, and what the head, envelope and sine take from them.
(_C, _T, _DELTA, _WC, _P, _RATIO, _HEAD_SHIFT, _TAIL_SHIFT, _HEAD_SCALE, _TAIL_SCALE,
 _HEAD_FACTOR, _TAIL_FACTOR, _SINE_FACTOR, _HEAD_OFFSET, _TAIL_OFFSET, _SINE_PEAK,
 _HEAD_POWER, _NODE_POWER, _TAIL_POWER, _FIELDS) = range(20)


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


def _unit_nodes(level: int, shift: np.ndarray, scale: np.ndarray) -> tuple:
    """The nodes v = 1/(1 + e**a), a = shift - k*z, on (0, 1) as ``(a, e**a,
    log(1/v), dz)``, one row per shift and scale k.  The weights in log v are
    k*dz*e**(a - log(1/v)), their k in the row factor.  The shift centres the
    rule on the row's peak, at v = 1/(1 + e**shift), and k fits it to the
    peak's width."""
    z, dz = _tanh_sinh(level)
    # in place: the [rows x nodes] temporaries of a table are its largest allocations
    a = np.multiply(z, scale)
    np.subtract(shift, a, out=a)
    ez = np.exp(a)
    return a, ez, np.log1p(ez), dz


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


@cache
def _ooura_mori_levels(levels: tuple[int, ...]) -> tuple:
    """The Ooura-Mori nodes and weights of ``levels`` side by side, and the
    slice of each level's."""
    rules = [_ooura_mori(level) for level in levels]
    ends = np.cumsum([len(y) for y, _ in rules]).tolist()
    return (*_frozen(*(np.concatenate(arrays) for arrays in zip(*rules))),
            tuple(slice(a, b) for a, b in zip([0, *ends], ends)))


class _Integral(NamedTuple):
    """One kind of DE integral: its name, the split point ``split(t,
    omega_c)``, the head exponent ``q = p + q_offset`` and smooth factor
    ``t**q_offset g(w*t)`` of ``w**(q-1) e**(-w/omega_c)`` (g None for 1),
    whether it has the envelope tail, and the sign of its sine tail (0 for
    none)."""

    what: str
    split: Callable[[np.ndarray, np.ndarray], np.ndarray]
    q_offset: float
    g: Callable[[np.ndarray], np.ndarray] | None
    envelope: bool
    sine_sign: float


# With delta = pi/(2t), the kernel is the head of w**(p+1) * (1 - cos(w t))/w**2
# on [0, delta], plus the envelope tail, minus the cosine tail, which equals
# plus the Ooura-Mori sine integral.  (1 - cos(u))/w**2 = t**2 * 2 (sin(u/2)/u)**2
# with u = w t, which is > 0 on the head's nodes (v >= e**-689).
_KERNEL = _Integral(
    "kernel quadrature", lambda t, _: 0.5 * math.pi / t, 2.0,
    lambda u: 2.0 * (np.sin(0.5 * u) / u) ** 2, True, 1.0,
)
# one power of w goes into sin(w t)/w = t*sinc(w t/pi), which is smooth
_SINE = _Integral(
    "sine moment", lambda t, _: math.pi / t, 1.0, lambda u: np.sinc(u / math.pi), False, -1.0,
)
# no trig factor: any t > 0 will do, and the split is at omega_c
_TOTAL = _Integral("total moment", lambda t, wc: wc, 0.0, None, True, 0.0)


def _de_table(pieces: list, bounds: list[int]) -> np.ndarray:
    """The ``[_FIELDS x rows x 1]`` table of the pieces, whose rows start at
    ``bounds``: every column is one operation on the table.  A row factor
    past a double is a DomainError naming its part."""
    table = np.zeros((_FIELDS, bounds[-1]))
    for (integral, _, _, t, c, p, wc), a, b in zip(pieces, bounds, bounds[1:]):
        rows = table[:, a:b]
        rows[_C], rows[_T], rows[_DELTA], rows[_WC], rows[_P] = c, t, integral.split(t, wc), wc, p
        # held in power columns until the last lines: the power of t in g's
        # scale (q = p + q_offset), and the sine tail's sign
        rows[_NODE_POWER], rows[_TAIL_POWER] = integral.q_offset, integral.sine_sign
    c, t, delta, wc, p = table[:_RATIO]
    scale_power, sign = table[_NODE_POWER:]
    q = p + scale_power
    # the head's, envelope's and sine's peak powers, and w0: that times omega_c,
    # or delta where smaller (the head's) or larger (the tails')
    r, peaks = np.minimum(q, 1.0), np.array([np.maximum(q, 1.0), 1.0 + np.maximum(p, 0.0), p - 1.0])
    w0 = peaks * wc
    np.minimum(w0[0], delta, out=w0[0])
    np.maximum(w0[1:], delta, out=w0[1:])
    k = table[_HEAD_SCALE:_TAIL_SCALE + 1] = np.minimum(peaks[:2], _PEAK_CAP) ** -0.5
    with np.errstate(all="ignore"):  # a factor past a double is refused below
        ratio = table[_RATIO] = delta / wc
        # centre the head near w0 and the envelope where w - delta = (1 + max(p,
        # 0))*omega_c (clipped so that e**(shift - k*z) stays finite)
        table[_HEAD_SHIFT] = np.minimum(r * np.log1p(ratio / peaks[0]), 650.0)
        table[_TAIL_SHIFT] = np.minimum(np.log(peaks[1] / ratio), 650.0)
        log_c, log_t, log_delta = np.log(table[:_WC])
        log_w0, scaled = np.log(w0), w0 / wc
        powers = np.array([q, p, peaks[2]])
        table[_HEAD_OFFSET:_TAIL_OFFSET + 1] = powers[:2] * (log_delta - log_w0[:2]) + scaled[:2]
        table[_TAIL_OFFSET] -= ratio  # the envelope's w - w0 from w - delta
        # each integrand at w0 times c, the head's t**q_offset k/r (dlog w =
        # dlog v/r), the envelope's k and the sine's 1/t (dw = dy/t); 0 without the tail
        log_k = np.log(k)
        logs = powers * log_w0 - scaled + log_c + np.array(
            [scale_power * log_t + log_k[0] - np.log(r), log_k[1], -log_t])
        logs[1, :bounds[sum(not piece[0].envelope for piece in pieces)]] = -math.inf
        logs[2, bounds[sum(bool(piece[0].sine_sign) for piece in pieces)]:] = -math.inf
        factors = np.exp(logs)
    if not factors.max(initial=0.0) < math.inf:  # also nan
        row = int(np.argmin(np.isfinite(factors).all(0)))
        integral = pieces[int(np.searchsorted(bounds, row, "right")) - 1][0]
        at = f", t={t[row]}" if integral is not _TOTAL else ""  # its t stands in
        raise DomainError(f"{integral.what} overflows a double at c={c[row]}, p={p[row]}, "
                          f"omega_c={wc[row]}{at}")
    factors[2] *= sign
    table[_HEAD_FACTOR:_SINE_FACTOR + 1] = factors
    table[_HEAD_POWER], table[_NODE_POWER] = -1.0 - q / r, -1.0 / r
    table[_TAIL_POWER], table[_SINE_PEAK] = peaks[2], w0[2]
    return table[:, :, None]


def _spans(pieces: list, bounds: list[int], rows: np.ndarray) -> tuple:
    """The envelope rows (the last) and the sine rows (the first) of the block
    of table rows ``rows``, and ``(slice, g)`` of each piece in it with a
    smooth head factor g."""
    starts = np.searchsorted(rows, bounds).tolist()
    spans = []
    for piece, a, b in zip(pieces, starts, starts[1:]):
        if a < b and piece[0].g:
            if spans and spans[-1][1] is piece[0].g:  # adjacent pieces of one g: one call
                a = spans.pop()[0].start
            spans.append((slice(a, b), piece[0].g))
    n_sine_only = sum(not piece[0].envelope for piece in pieces)
    n_sine = sum(bool(piece[0].sine_sign) for piece in pieces)
    return slice(starts[n_sine_only], starts[-1]), slice(0, starts[n_sine]), spans


def _level_sums(f: np.ndarray, levels: tuple[int, ...]) -> np.ndarray:
    """Row sums of the tanh-sinh terms ``f`` on the nodes of the last of
    ``levels``, one column per level; level 0's are twice the even columns'."""
    total = f.sum(1, keepdims=True)
    if len(levels) == 1:
        return total
    return np.concatenate((2.0 * f[:, ::2].sum(1, keepdims=True), total), 1)


def _head_sums(levels: tuple[int, ...], m: np.ndarray, spans: list) -> np.ndarray:
    """The head sums of the table rows ``m`` at ``levels``, one column each:
    the tanh-sinh sums in log v of ``(w/w0)**q e**(-(w - w0)/omega_c) g(w t)``,
    ``w = delta*v**(1/r)``, the head per unit log w relative to its peak."""
    a, ez, log_1_v, dz = _unit_nodes(levels[-1], m[_HEAD_SHIFT], m[_HEAD_SCALE])
    y = np.exp(np.multiply(log_1_v, m[_NODE_POWER], out=ez), out=ez)  # w/delta
    # -(q/r + 1) log(1/v) + offset - w/omega_c and the weight's a
    f = log_1_v * m[_HEAD_POWER]
    f += a
    f += m[_HEAD_OFFSET]
    f -= np.multiply(y, m[_RATIO], out=log_1_v)
    np.exp(f, out=f)
    for i, g in spans:
        f[i] *= g(y[i] * (m[_DELTA, i] * m[_T, i]))
    f *= dz
    return _level_sums(f, levels)


def _envelope_sums(levels: tuple[int, ...], m: np.ndarray) -> np.ndarray:
    """The envelope tail sums of the table rows ``m`` at ``levels``: the
    tanh-sinh sums in log v of ``(w/w0)**p e**(-(w - w0)/omega_c)``, ``w =
    delta/v = delta (1 + e**a)``, the envelope per unit log w relative to its
    peak."""
    a, ez, log_w, dz = _unit_nodes(levels[-1], m[_TAIL_SHIFT], m[_TAIL_SCALE])
    # (p - 1) log(w/delta) + offset - (w - delta)/omega_c and the weight's a
    x = log_w * m[_TAIL_POWER]
    x += a
    x += m[_TAIL_OFFSET]
    ez *= m[_RATIO]
    x -= ez
    np.exp(x, out=x)
    x *= dz
    return _level_sums(x, levels)


def _sine_sums(levels: tuple[int, ...], m: np.ndarray) -> np.ndarray:
    """The Ooura-Mori sums of ``F(w)/F(w0)``, ``w = delta + y/t``, at
    ``levels`` over the sine rows ``m``: the sums of ``e**((p-1) log(w/w0) -
    (w - w0)/omega_c)``, each term at most 1."""
    y, dy, cuts = _ooura_mori_levels(levels)
    w = y / m[_T]
    w += m[_DELTA]
    x = np.divide(w, m[_SINE_PEAK])
    np.log(x, out=x)
    x *= m[_TAIL_POWER]
    w -= m[_SINE_PEAK]
    w /= m[_WC]
    x -= w
    np.exp(x, out=x)
    x *= dy
    return np.concatenate([x[:, cut].sum(1, keepdims=True) for cut in cuts], 1)


def _de_integral(parts: list[tuple], settings: QuadratureSettings | None) -> list:
    """Every part's ``c * (head + [envelope] + sine_sign * sine)``, elementwise
    over its broadcast arguments, from one table of rows; a part is
    ``(integral, c, p, omega_c, t)``, its value 0 at t = 0 or c = 0.

    Every level halves the step of all rules; a row is done once two
    successive levels agree to within ``max(abs_tol, rel_tol * |value|)``.
    The ConvergenceError of rows that never do names the one furthest from
    its tolerance.
    """
    s = settings if settings is not None else QuadratureSettings()
    outs, pieces = [], []
    for integral, *params, times in parts:
        times = np.asarray(times, dtype=float)
        if any(isinstance(x, np.ndarray) for x in params):
            times, *params = np.broadcast_arrays(times, *params)
        on = (times > 0.0) & (params[0] != 0.0)
        outs.append(np.zeros(times.shape))
        if on.any():
            c, p, wc = (x[on] if isinstance(x, np.ndarray) else x for x in params)
            pieces.append((integral, outs[-1], on, times[on], c, p, wc))
    # sine only, sine + envelope, envelope only
    pieces.sort(key=lambda piece: piece[0].envelope - bool(piece[0].sine_sign))
    bounds = [0]
    for piece in pieces:
        bounds.append(bounds[-1] + len(piece[3]))
    table = _de_table(pieces, bounds)
    values = np.empty(bounds[-1])
    failures = []
    # the fewest blocks of at most _BLOCK rows, all of one size
    n_blocks = -(-bounds[-1] // _BLOCK)
    size = -(-bounds[-1] // n_blocks) if n_blocks else 1
    for first in range(0, bounds[-1], size):
        m = table[:, first:first + size]
        rows = np.arange(first, first + m.shape[1])
        env, sine, spans = _spans(pieces, bounds, rows)
        value = np.full(len(rows), np.nan)
        for levels in ((0, 1), *((level,) for level in range(2, _LEVELS))):
            sums = m[_HEAD_FACTOR] * _head_sums(levels, m, spans)
            if env.start < env.stop:
                sums[env] += m[_TAIL_FACTOR, env] * _envelope_sums(levels, m[:, env])
            if sine.stop:
                sums[sine] += m[_SINE_FACTOR, sine] * _sine_sums(levels, m[:, sine])
            # the gate sees the last two levels: level 0 accepts no row
            prev = value if len(levels) == 1 else sums[:, -2]
            value = sums[:, -1]
            gap = np.abs(value - prev)
            with np.errstate(over="ignore"):  # an infinite tolerance accepts the row
                tol = np.maximum(s.abs_tol, s.rel_tol * np.abs(value))
            done = gap <= tol
            if done.any():
                values[rows[done]] = value[done]
                if done.all():
                    break
                more = ~done
                m, rows, value, gap, tol = m[:, more], rows[more], value[more], gap[more], tol[more]
                env, sine, spans = _spans(pieces, bounds, rows)
        else:
            worst = int(np.argmax(gap / tol))
            what = pieces[int(np.searchsorted(bounds, rows[worst], "right")) - 1][0].what
            failures.append((gap[worst] / tol[worst], (
                f"{what} (p={m[_P, worst, 0]}, t={m[_T, worst, 0]}) did not converge: "
                f"level gap {gap[worst]:.3e} > {tol[worst]:.3e}"
            )))
    if failures:
        raise ConvergenceError(failures[int(np.argmax([ratio for ratio, _ in failures]))][1])
    for (_, out, on, *_), a, b in zip(pieces, bounds, bounds[1:]):
        out[on] = values[a:b]
    return [out[()] for out in outs]


def _total_part(c, p, omega_c) -> tuple:
    """The total moment as a table part (p > 0)."""
    if not all_true(ok := p > 0.0):
        raise DomainError(f"total moment diverges for p <= 0, got p={_first_failing(p, ok)}")
    _check_kernel_args(c, p, omega_c)
    # the least t > 0, which no omega_c takes out of range
    return _TOTAL, c, p, omega_c, math.ulp(0.0)


def total_moment(c, p, omega_c, settings: QuadratureSettings | None = None):
    """``c * Int_0^inf w**(p-1) e**(-w/omega_c) dw`` by quadrature (p > 0),
    elementwise over broadcastable arguments."""
    return _de_integral([_total_part(c, p, omega_c)], settings)[0]


def sine_moment(
    c, p, omega_c, t: float | np.ndarray, settings: QuadratureSettings | None = None
) -> float | np.ndarray:
    """``c * Int_0^inf w**(p-1) e**(-w/omega_c) sin(w t) dw`` by quadrature, p > -1.

    ``t`` is one time or an array of times, and ``c``, ``p``, ``omega_c``
    floats or arrays that broadcast against it, validated as KernelArgs.
    The head runs to the first zero of sin(w t), pi/t; the rest is one
    Ooura-Mori sine integral, accurate for arbitrarily large t.
    """
    KernelArgs(c, p, omega_c, t)
    return _de_integral([(_SINE, c, p, omega_c, t)], settings)[0]


def kernel_by_quadrature(
    args: KernelArgs, settings: QuadratureSettings | None = None
) -> float | np.ndarray:
    """Quadrature evaluation of the decay kernel's defining integral.

    The independent oracle of ``decay_kernel``; elementwise over the
    broadcast arguments.
    """
    return _de_integral([(_KERNEL, args.c, args.p, args.omega_c, args.t)], settings)[0]
