"""Scenario-level analysis: distance series, gain ratios, region maps.

The central question: does the trace distance between two preparations end
up above its initial value?  ``gain_ratio`` answers it analytically through
the long-time profile, ``distance_series`` traces the full evolution,
``find_lambda_c`` locates the critical correlation where gain turns into
loss, and ``region_map`` classifies whole parameter planes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Literal, Sequence

import numpy as np

from .bath import (
    Backend,
    BathSpec,
    DisplacementSpec,
    ModelSpec,
    _ProfilePlan,
    limit_exponents,
)
from .dynamics import (
    InitialStateSpec,
    QubitAmplitudes,
    _check_unit,
    _checked_bscale,
    _exponentials,
    _mix,
    _normalization,
    _pair_weights,
)
from .errors import DomainError, NoBracketError
from .numerics import QuadratureSettings, all_true, gamma_moment

__all__ = [
    "TimeGrid",
    "DistanceSeries",
    "RegionMap",
    "Extremum",
    "PLANE_PARAMETERS",
    "distance_series",
    "gain_ratio",
    "find_lambda_c",
    "region_map",
    "find_extremum",
]

PLANE_PARAMETERS = ("alpha", "gamma", "mu", "nu", "lambda1", "lambda2")

_TIE_TOL = 1e-9
# find_extremum: times per zoom round (each round narrows the bracket 128x)
_ZOOM_POINTS = 257


@dataclass(frozen=True)
class TimeGrid:
    """A strictly increasing evaluation grid, linear or logarithmic."""

    kind: Literal["linear", "log"]
    t_min: float
    t_max: float
    points: int

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "log"):
            raise DomainError(f"grid kind must be 'linear' or 'log', got {self.kind!r}")
        if not (math.isfinite(self.t_min) and self.t_min >= 0.0):
            raise DomainError(f"t_min must be >= 0, got {self.t_min}")
        if not (math.isfinite(self.t_max) and self.t_max > self.t_min):
            raise DomainError(f"t_max must exceed t_min, got {self.t_max}")
        try:
            operator.index(self.points)
        except TypeError:
            raise DomainError(f"grid points must be an integer, got {self.points!r}") from None
        if self.points < 2:
            raise DomainError(f"grid needs at least 2 points, got {self.points}")
        if self.kind == "log" and self.t_min <= 0.0:
            raise DomainError("log grids require t_min > 0")

    def times(self) -> np.ndarray:
        """The grid's times; a log grid has np.geomspace's bits, at half its cost."""
        try:
            if self.kind == "linear":
                return np.linspace(self.t_min, self.t_max, self.points)
            times = np.logspace(*np.log10([self.t_min, self.t_max]), self.points)
        except (ValueError, MemoryError):
            raise DomainError(f"a grid of {self.points} points does not fit in memory") from None
        times[[0, -1]] = self.t_min, self.t_max
        return times


def default_grid(omega_c: float = 1.0, points: int = 400) -> TimeGrid:
    """The standard log grid, t in [1e-3, 1e4] in units of 1/omega_c."""
    return TimeGrid(kind="log", t_min=1e-3 / omega_c, t_max=1e4 / omega_c, points=points)


@dataclass(frozen=True)
class DistanceSeries:
    """Distance evolution for one (lambda1, lambda2) scenario.

    Parallel arrays aligned with ``times``; ``distance`` is raw
    D = |b+ b-*| |A1 - A2| unless ``normalized`` is set, in which case the
    common amplitude factor is divided out.  ``settings`` are the quadrature
    tolerances the series was computed with (None: the defaults).
    """

    model: ModelSpec
    lambda1: float
    lambda2: float
    amplitudes: QubitAmplitudes
    backend: Backend
    settings: QuadratureSettings | None
    normalized: bool
    grid: TimeGrid
    times: np.ndarray = field(repr=False)
    distance: np.ndarray = field(repr=False)
    abs_a1: np.ndarray = field(repr=False)
    abs_a2: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    # the evaluator that made the series, for find_extremum; dataclasses.replace drops it
    _evaluate: Callable | None = field(default=None, init=False, repr=False, compare=False)

    def rows(self) -> Iterator[tuple[float, float, float, float, float, float, float]]:
        """Yield (t, D, |A1|, |A2|, r, s, phi) per grid point."""
        columns = (self.times, self.distance, self.abs_a1, self.abs_a2, self.r, self.s, self.phi)
        return zip(*(column.tolist() for column in columns))


@dataclass(frozen=True)
class RegionMap:
    """Gain/loss classification of a 2-D parameter plane.

    ``labels[iy][ix]`` is '+' (gain), '-' (loss) or '0' (boundary or
    undefined); ``gain`` holds the matching ratio D_inf / D_0, with None
    where the ratio is undefined or infinite.  ``boundary_points`` is filled
    only when edge refinement was requested.
    """

    plane: tuple[str, str]
    x_values: np.ndarray
    y_values: np.ndarray
    labels: list[list[str]]
    gain: list[list[float | None]]
    boundary_points: list[tuple[float, float]]


@dataclass(frozen=True)
class Extremum:
    """An interior extremum of a distance series (or its absence)."""

    t: float | None
    value: float | None
    kind: Literal["minimum", "maximum", "none"]


def distance_series(
    model: ModelSpec,
    lambda1: float,
    lambda2: float,
    amplitudes: QubitAmplitudes | None = None,
    grid: TimeGrid | None = None,
    backend: Backend = "closed_form",
    settings: QuadratureSettings | None = None,
    normalized: bool = False,
) -> DistanceSeries:
    """Trace-distance evolution between the lambda1 and lambda2 preparations."""
    amps = amplitudes if amplitudes is not None else QubitAmplitudes.balanced()
    evaluate = _distance_evaluator(model, lambda1, lambda2, amps, backend, settings, normalized)
    time_grid = grid if grid is not None else default_grid(model.bath.omega_c)
    times = time_grid.times()
    (r, s, phi), dist, abs_a1, abs_a2 = evaluate(times, moduli=True)
    series = DistanceSeries(
        model=model,
        lambda1=lambda1,
        lambda2=lambda2,
        amplitudes=amps,
        backend=backend,
        settings=settings,
        normalized=normalized,
        grid=time_grid,
        times=times,
        distance=dist,
        abs_a1=abs_a1,
        abs_a2=abs_a2,
        r=r,
        s=s,
        phi=phi,
    )
    object.__setattr__(series, "_evaluate", evaluate)
    return series


def _distance_evaluator(model, lambda1, lambda2, amps, backend, settings, normalized):
    """The scenario's checks, profile plan, overlap, pair weights and C_lambda,
    once; then ``evaluate(times)`` gives D, or with ``moduli`` ((r, s, phi), D,
    |A1|, |A2|), as distance_same_amplitudes and unphased_coherence_factor on
    profile_at's profile would.  The overlap is exp(s0), ground_coherent_overlap's
    bits; a quadrature plan holds no Gamma moment, so s0 is formed here."""
    InitialStateSpec(amps, lambda1), InitialStateSpec(amps, lambda2)
    b, d = model.bath, model.displacement
    plan = _ProfilePlan(b.alpha, b.mu, b.omega_c, d.gamma_coef, d.nu, backend, settings)
    # s0 of either plan: a DomainError where it overflows, as s(t) does
    s0 = -gamma_moment(0.5 * d.gamma_coef, d.nu, b.omega_c) if plan.s0 is None else plan.s0
    overlap = float(np.exp(s0))
    # the weights are checked above, and an overlap exp(s0), s0 <= 0, lies in [0, 1]
    weights = _pair_weights(lambda1, lambda2, overlap)
    c1, c2 = _normalization(lambda1, overlap), _normalization(lambda2, overlap)
    bscale = _checked_bscale(amps.coherence_scale)

    def evaluate(times: np.ndarray, moduli: bool = False):
        profile = plan(times)
        exponentials = _exponentials(*profile)
        dist = bscale * np.abs(_mix(*weights, exponentials))
        if normalized:
            dist = dist / bscale
        if not moduli:
            return dist
        abs_a1 = np.abs(_mix(1.0 - lambda1, lambda1, exponentials) / c1)
        return profile, dist, abs_a1, np.abs(_mix(1.0 - lambda2, lambda2, exponentials) / c2)

    return evaluate


def _long_time_terms(alpha, mu, omega_c, gamma_coef, nu) -> tuple:
    """The gain ratio's weight-free terms (O, X, Y) = (e^s0, e^(-r_inf),
    e^(s_inf - r_inf)) elementwise over broadcastable valid bath parameters.

    For mu <= 0 r(t) diverges, and so does r - s >= Int (2g - f/2)^2 (1 -
    cos wt) dw: X = Y = 0.  Those elements form no Gamma of their limits
    (zero coupling and mu = 1 stand in), so no divergent limit overflows.
    Where the overlap moment gamma_coef/2 * Gamma(nu) * omega_c**nu
    overflows a double, limit_exponents' s0 = s_inf = -inf give O = Y = 0.
    """
    finite = mu > 0.0
    if all_true(finite):
        s0, r_inf, s_inf = limit_exponents(alpha, mu, omega_c, gamma_coef, nu)
        return np.exp(s0), np.exp(-r_inf), np.exp(s_inf - r_inf)
    overlap, x, y = _long_time_terms(
        np.where(finite, alpha, 0.0), np.where(finite, mu, 1.0), omega_c, gamma_coef, nu
    )
    return overlap, np.where(finite, x, 0.0), np.where(finite, y, 0.0)


def _gain_ratios(lambda1, lambda2, terms: tuple) -> np.ndarray:
    """gain_ratio elementwise over broadcastable weights and the
    _long_time_terms of their cells: NaN where it is undefined, inf where
    only D(0) vanishes.

    Unchecked arithmetic: the public entry points check the weights where
    they enter, once per call or search, and the overlap exp(s0), s0 <= 0,
    lies in [0, 1] by construction.

    A map cell and gain_ratio on that cell must agree to the bit (the
    cancellation in D(0) magnifies any ulp), so every operation here gives
    an element of an array what it gives a scalar.
    """
    overlap, x, y = terms
    a, b = _pair_weights(lambda1, lambda2, overlap)
    d0 = np.abs(a + b * overlap)
    d_inf = np.abs(a * x + b * y)
    # both distances carry the same roundoff floor; below it they are zeros
    # (lambda1 = lambda2 makes a = b = 0 exactly)
    tiny = 1e-14 * (np.abs(a) + np.abs(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d0 > tiny, d_inf / d0, np.where(d_inf > tiny, np.inf, np.nan))
    return np.where(overlap < 1.0, ratio, np.nan)


def gain_ratio(model: ModelSpec, lambda1: float, lambda2: float) -> float | None:
    """D(t=inf) / D(t=0) for the shared-amplitude scenario.

    Independent of the amplitudes (their common factor cancels).  Returns
    None when the distance vanishes identically (lambda1 = lambda2, or a
    trivial displacement with overlap 1 making every A_lambda equal) and
    +inf on the curve where only the initial distance is zero.  Values
    above 1 signal contractivity breakdown in the long-time limit.  For
    mu <= 0 every coherence dies, so the ratio is 0 (None where D(0) = 0).
    Symmetric in the two weights, to the bit: swapping them negates both
    pair weights exactly.
    """
    b, d = model.bath, model.displacement
    terms = _long_time_terms(b.alpha, b.mu, b.omega_c, d.gamma_coef, d.nu)
    weights = np.float64(lambda1), np.float64(lambda2)
    for weight in weights:
        _check_unit("correlation weight", weight)
    ratio = float(_gain_ratios(*weights, terms))
    return None if math.isnan(ratio) else ratio


def find_lambda_c(
    model: ModelSpec,
    fixed: float = 0.0,
    bracket: tuple[float, float] = (0.01, 0.99),
    tol: float = 1e-4,
) -> float:
    """Critical correlation where the long-time gain turns into loss.

    Bisects gain_ratio - 1 over ``bracket`` in one weight while the other
    stays at ``fixed``.  The ratio is symmetric in the two weights, to the
    bit, so the result is the threshold in lambda1 at lambda2 = ``fixed``
    and in lambda2 at lambda1 = ``fixed``.  Requires ratio(lo) > 1 >
    ratio(hi), otherwise NoBracketError (the gain region may be empty, or
    the ratio is undefined at a bracket end, or 0 everywhere for mu <= 0).
    A midpoint where the ratio is undefined (it equals ``fixed``) is stepped
    past by one ulp.  The bisection stops at ``tol`` or when the bracket can
    no longer be split.  The long-time terms (O, X, Y) are formed once per
    search, the ratio's closed-form root predicts the midpoints, and one
    evaluator call takes them with the bracket ends; a midpoint off that
    path costs a call of its own.  The result is the scalar bisection's
    float, bit for bit, whatever the prediction.
    """
    lambda_c, r_lo, r_hi = _critical(model, fixed, bracket, tol)
    if lambda_c is None:
        raise NoBracketError(
            f"no sign change across bracket [{bracket[0]}, {bracket[1]}]: "
            f"ratio(lo)={r_lo}, ratio(hi)={r_hi}; the gain region may be empty"
        )
    return lambda_c


def _critical(
    model: ModelSpec, fixed: float, bracket: tuple[float, float], tol: float
) -> tuple[float | None, float | None, float | None]:
    """find_lambda_c's search: (lambda_c, or None without a sign change, and
    the ratios at the bracket ends, None where undefined)."""
    lo, hi = bracket
    if not (0.0 <= lo < hi <= 1.0):
        raise DomainError(f"bracket must satisfy 0 <= lo < hi <= 1, got {bracket}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be positive, got {tol}")

    # the long-time terms do not depend on the weights: once per search
    b, d = model.bath, model.displacement
    terms = _long_time_terms(b.alpha, b.mu, b.omega_c, d.gamma_coef, d.nu)
    f = np.float64(fixed)
    _check_unit("correlation weight", f)  # the bracket is checked above

    # the bisection's midpoints if it closes on the closed-form root, all in one call
    root = _root(float(f), terms, lo, hi)
    path, a, b = [lo, hi], lo, hi
    while root is not None and 0.5 * (b - a) > tol and (mid := 0.5 * (a + b)) not in (a, b):
        path.append(mid)
        a, b = (mid, b) if mid < root else (a, mid)
    values = _gain_ratios(np.array(path, dtype=float), f, terms).tolist()
    known = dict(zip(path, values))

    def ratio(x: float) -> float:
        """The ratio at a point off the predicted path: one evaluator call."""
        return float(_gain_ratios(np.float64(x), f, terms))

    r_lo, r_hi = (None if math.isnan(v) else v for v in values[:2])
    if r_lo is None or r_hi is None or not (r_lo > 1.0 > r_hi):
        return None, r_lo, r_hi
    while 0.5 * (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        r_mid = known[mid] if mid in known else ratio(mid)
        if math.isnan(r_mid):  # step past it
            mid = math.nextafter(mid, hi)
            r_mid = ratio(mid)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if r_mid > 1.0 else (lo, mid)
    return 0.5 * (lo + hi), r_lo, r_hi


def _root(f: float, terms: tuple, lo: float, hi: float) -> float | None:
    """The weight in (lo, hi) at which the gain ratio against ``f`` is 1, in
    closed form, or None if no branch has one there; a prediction only.

    With the long-time terms (O, X, Y) the ratio is 1 where a(X - s) +
    b(Y - s O) = 0, s = +-1, that is where P(l)/C_l = K for the line P(l) = (1 - l)(X - s) + l(Y - s O) = p0 + p1 l and K = P(f)/C_f.
    Squared, with C_l^2 = 1 - q l + q l^2 and q = 2 (1 - O), that is the
    quadratic (p1^2 - q K^2) l^2 + (2 p0 p1 + q K^2) l + p0^2 - K^2 = 0.  One
    root is l = f, so the other is -B/A - f; it counts where P has the sign
    of P(f).
    """
    o, x, y = map(float, terms)
    for sign in (1.0, -1.0):
        p0, p1 = x - sign, (y - sign * o) - (x - sign)
        p_f = p0 + p1 * f
        c_f2 = (1.0 - f) * (1.0 - f) + f * f + 2.0 * f * (1.0 - f) * o
        k2q = p_f * p_f / c_f2 * 2.0 * (1.0 - o)
        if lead := p1 * p1 - k2q:
            root = -(2.0 * p0 * p1 + k2q) / lead - f
            if lo < root < hi and (p0 + p1 * root) * p_f > 0.0:
                return root
    return None


def region_map(
    model: ModelSpec,
    lambda1: float,
    lambda2: float,
    plane: tuple[str, str],
    x_values: Sequence[float],
    y_values: Sequence[float],
    refine_boundary: bool = False,
    boundary_resolution: float = 1e-4,
) -> RegionMap:
    """Classify gain vs loss over a 2-D plane of parameters.

    ``plane`` names the (x, y) parameters from PLANE_PARAMETERS; grid values
    override the template model / correlation weights cell by cell.  With
    ``refine_boundary`` the ratio = 1 crossing is located along every grid
    edge whose endpoints carry opposite definite labels, by a safeguarded
    secant on log ratio that evaluates two points per edge and round, to a
    resolution of ``boundary_resolution`` (finite, >= 0) times the axis span.
    Cells with mu <= 0 have ratio 0 (label '-'), as in gain_ratio; an edge
    that crosses mu = 0 is refined like any other.
    """
    x_name, y_name = plane
    for name in (x_name, y_name):
        if name not in PLANE_PARAMETERS:
            raise DomainError(
                f"unknown plane parameter {name!r}; expected one of {PLANE_PARAMETERS}"
            )
    if x_name == y_name:
        raise DomainError("plane parameters must differ")
    if not (math.isfinite(boundary_resolution) and boundary_resolution >= 0.0):
        raise DomainError(f"boundary resolution must be finite and >= 0, got {boundary_resolution}")
    xs = np.asarray(list(x_values), dtype=float)
    ys = np.asarray(list(y_values), dtype=float)
    if xs.size == 0 or ys.size == 0:
        raise DomainError("plane axes must contain at least one value each")

    # every domain is an interval: checking each axis at its ends (min and max
    # propagate nan) also covers the cells and the refinement points, which
    # are clipped into their edge
    d, omega_c = model.displacement, model.bath.omega_c
    template = (model.bath.alpha, d.gamma_coef, model.bath.mu, d.nu, lambda1, lambda2)
    args = dict(zip(PLANE_PARAMETERS, map(np.float64, template)))
    for name, values in ((x_name, xs), (y_name, ys)):
        for v in (values.min(), values.max()):
            cell = {**args, name: v}
            BathSpec(cell["alpha"], cell["mu"], omega_c)
            DisplacementSpec(cell["gamma"], cell["nu"])
            if name in ("lambda1", "lambda2"):
                _check_unit("correlation weight", v)

    def cells(xv: np.ndarray, yv: np.ndarray) -> tuple:
        """The weights and the long-time terms of the cells at (xv, yv)."""
        cell = {**args, x_name: xv, y_name: yv}
        terms = _long_time_terms(cell["alpha"], cell["mu"], omega_c, cell["gamma"], cell["nu"])
        return cell["lambda1"], cell["lambda2"], terms

    grid_cells = cells(xs[np.newaxis, :], ys[:, np.newaxis])
    # the evaluator checks nothing: the template weights that no axis replaces enter here
    for name in [name for name in ("lambda1", "lambda2") if name not in plane]:
        _check_unit("correlation weight", args[name])
    grid = _gain_ratios(*grid_cells)
    plus, minus = grid > 1.0 + _TIE_TOL, grid < 1.0 - _TIE_TOL
    labels = np.where(plus, "+", np.where(minus, "-", "0")).tolist()
    finite = np.isfinite(grid)
    gain = grid.tolist() if finite.all() else np.where(finite, grid, None).tolist()

    boundary: list[tuple[float, float]] = []
    if refine_boundary:
        # the ratio = 1 crossing on every edge between a '+' and a '-' cell,
        # x-edges row-major, then y-edges column-major, all refined in
        # lockstep: one ratios() call per round on the edges still open
        ey, ex = np.nonzero(plus[:, :-1] & minus[:, 1:] | minus[:, :-1] & plus[:, 1:])
        fx, fy = np.nonzero((plus[:-1, :] & minus[1:, :] | minus[:-1, :] & plus[1:, :]).T)
        along_x = np.arange(ex.size + fx.size) < ex.size
        lo = np.concatenate([xs[ex], ys[fy]])
        hi = np.concatenate([xs[ex + 1], ys[fy + 1]])
        fixed = np.concatenate([ys[ey], xs[fx]])
        lo_above = np.concatenate([plus[ey, ex], plus[fy, fx]])
        r_lo, r_hi = (np.concatenate([grid[ey, ex + d], grid[fy + d, fx]]) for d in (0, 1))
        # an edge runs from lo to hi, downwards on a descending axis
        x_res = boundary_resolution * abs(xs[-1] - xs[0]) if xs.size > 1 else 0.0
        y_res = boundary_resolution * abs(ys[-1] - ys[0]) if ys.size > 1 else 0.0
        res = np.where(along_x, x_res, y_res)

        def estimate(p, q, r_p, r_q, a, b):
            """The secant root of g = log ratio through p and q (symmetric in the two),
            or the midpoint of [a, b] where it is not finite or not strictly inside."""
            with np.errstate(divide="ignore", invalid="ignore"):
                g_p, g_q = np.log(r_p), np.log(r_q)
                m = (p * g_q - q * g_p) / (g_q - g_p)
            return np.where((np.minimum(a, b) < m) & (m < np.maximum(a, b)), m, 0.5 * (a + b))

        m = estimate(lo, hi, r_lo, r_hi, lo, hi)
        while True:
            mid = 0.5 * (lo + hi)
            k = np.flatnonzero((np.abs(hi - lo) > res) & (mid != lo) & (mid != hi))
            if k.size == 0:
                break
            # p-, p+ lie 0.49 max(res, 1e-3 |b - a|) either side of the estimate, p- toward lo,
            # so an estimate within 0.49 res of the crossing closes the bracket this round
            a, b, f = lo[k], hi[k], fixed[k]
            h = 0.49 * np.maximum(res[k], 1e-3 * np.abs(b - a)) * np.sign(b - a)
            # np.clip's bits (signed zeros included), without its Python-level dispatch
            p = np.minimum(
                np.maximum(m[k] + [[-1.0], [1.0]] * h, np.minimum(a, b)), np.maximum(a, b))
            r = _gain_ratios(*cells(np.where(along_x[k], p, f), np.where(along_x[k], f, p)))
            # the new bracket is [p-, p+] if it holds a sign change, else [a, p-] or [p+, b];
            # preferring the middle keeps the choice symmetric where the sign flips more than once
            same = (r > 1.0) == lo_above[k]
            j, ends, n = same.sum(axis=0), np.array([a, p[0], p[1], b]), np.arange(k.size)
            lo[k], hi[k] = ends[j, n], ends[j + 1, n]
            lo_above[k] ^= same[1] & ~same[0]  # that middle's lo end lies on the other side
            m[k] = estimate(p[0], p[1], r[0], r[1], lo[k], hi[k])
            lo[k[np.isnan(r).any(axis=0)]] = np.nan  # an undefined point drops the edge
        kept = ~np.isnan(lo)
        v, f, on_x = 0.5 * (lo + hi)[kept], fixed[kept], along_x[kept]
        boundary = list(zip(np.where(on_x, v, f).tolist(), np.where(on_x, f, v).tolist()))

    return RegionMap(
        plane=(x_name, y_name),
        x_values=xs,
        y_values=ys,
        labels=labels,
        gain=gain,
        boundary_points=boundary,
    )


def find_extremum(series: DistanceSeries) -> Extremum:
    """Refine the extremum of a distance series at its best interior grid point.

    Scans the grid for its lowest (highest) interior point, taken if strictly
    below (above) both series endpoints, then zooms on the bracket of that
    point's neighbours: each round evaluates the distance as ``distance_series``
    would (with the evaluator kept on a series it made) at 257 linear times
    between the neighbours of the best point so far.  Once those lie within
    2**-10 of t, a parabola through them predicts a last window, 2**-21 of t
    wide; it is kept only if its best point is interior and no worse than the
    best so far, else that round zooms as before.  The search stops once the
    neighbours lie within 2**-26 (sqrt eps) of t relative, over which a smooth
    extremum is flat to rounding.  ``value`` is the best distance evaluated in
    that bracket, exactly what ``distance_series`` gives at ``t``: on a coarse
    grid whose bracket holds several minima (maxima), not necessarily the
    deepest (highest).  Returns kind 'none' for flat or monotone series.
    """
    d = series.distance
    if len(d) < 3:
        raise DomainError("series needs at least 3 points for extremum detection")
    end_min, end_max = min(d[0], d[-1]), max(d[0], d[-1])
    i_min, i_max = 1 + int(np.argmin(d[1:-1])), 1 + int(np.argmax(d[1:-1]))
    has_min = d[i_min] < end_min and d[i_min] <= d[i_min - 1] and d[i_min] <= d[i_min + 1]
    has_max = d[i_max] > end_max and d[i_max] >= d[i_max - 1] and d[i_max] >= d[i_max + 1]
    if not has_min and not has_max:
        return Extremum(t=None, value=None, kind="none")
    if has_min and has_max:
        has_min = (end_min - d[i_min]) >= (d[i_max] - end_max)
    i, sign = (i_min, 1.0) if has_min else (i_max, -1.0)

    distance = series._evaluate or _distance_evaluator(
        series.model, series.lambda1, series.lambda2, series.amplitudes,
        series.backend, series.settings, series.normalized,
    )
    times = series.times
    t_best, v_best = float(times[i]), float(d[i])
    while True:
        # a zoom's best point may sit on its end (a tie with the bracket end)
        a, b = float(times[max(i - 1, 0)]), float(times[min(i + 1, len(times) - 1)])
        if b - a <= 2.0**-26 * b:
            break
        # a predicted window, sized so that its neighbours meet the stop rule
        t_v, h = _vertex(times, sign * d, i), 2.0**-22 * b
        if t_v is not None and a <= t_v - h and t_v + h <= b:
            dw = distance(window := np.linspace(t_v - h, t_v + h, _ZOOM_POINTS))
            j = int(np.argmin(sign * dw))
            if 0 < j < _ZOOM_POINTS - 1 and sign * dw[j] <= sign * v_best:
                times, d, i, t_best, v_best = window, dw, j, float(window[j]), float(dw[j])
                continue
        times = np.linspace(a, b, _ZOOM_POINTS)
        d = distance(times)
        i = int(np.argmin(sign * d))
        if sign * d[i] < sign * v_best:
            t_best, v_best = float(times[i]), float(d[i])
    return Extremum(t=t_best, value=v_best, kind="minimum" if has_min else "maximum")


def _vertex(times: np.ndarray, f: np.ndarray, i: int) -> float | None:
    """The vertex of the parabola through f at times i - 1, i, i + 1 (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5), or None
    unless i is interior, the parabola opens upwards, the spacing is at most
    2**-10 of t and the vertex lies within half a spacing of times[i]."""
    if not 0 < i < len(f) - 1:
        return None
    (t0, t1, t2), (f0, f1, f2) = times[i - 1:i + 2].tolist(), f[i - 1:i + 2].tolist()
    h0, h2 = t1 - t0, t2 - t1
    curvature = h2 * (f0 - f1) + h0 * (f2 - f1)
    if not (curvature > 0.0 and h2 <= 2.0**-10 * t1):
        return None
    x = 0.5 * (h2 * h2 * (f0 - f1) - h0 * h0 * (f2 - f1)) / curvature
    return t1 + x if abs(x) <= 0.5 * min(h0, h2) else None
