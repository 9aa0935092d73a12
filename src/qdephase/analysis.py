"""Scenario-level analysis: distance series, gain ratios, region maps.

The central question: does the trace distance between two preparations end
up above its initial value?  ``gain_ratio`` answers it analytically through
the long-time profile, ``distance_series`` traces the full evolution,
``find_lambda_c`` locates the critical correlation where gain turns into
loss, and ``region_map`` classifies whole parameter planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Literal, Sequence

import numpy as np

from .bath import (
    Backend,
    ModelSpec,
    ground_coherent_overlap,
    limit_exponents,
    profile_at,
)
from .dynamics import (
    InitialStateSpec,
    QubitAmplitudes,
    distance_same_amplitudes,
    pair_weights,
    unphased_coherence_factor,
)
from .errors import DomainError, NoBracketError
from .numerics import QuadratureSettings

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

# Plane parameter -> (model, lambda1, lambda2, value) -> the overridden triple.
_OVERRIDES = {
    "alpha": lambda m, l1, l2, v: (replace(m, bath=replace(m.bath, alpha=v)), l1, l2),
    "gamma": lambda m, l1, l2, v: (
        replace(m, displacement=replace(m.displacement, gamma_coef=v)), l1, l2
    ),
    "mu": lambda m, l1, l2, v: (replace(m, bath=replace(m.bath, mu=v)), l1, l2),
    "nu": lambda m, l1, l2, v: (
        replace(m, displacement=replace(m.displacement, nu=v)), l1, l2
    ),
    "lambda1": lambda m, l1, l2, v: (m, v, l2),
    "lambda2": lambda m, l1, l2, v: (m, l1, v),
}
PLANE_PARAMETERS = tuple(_OVERRIDES)
_RATIO_ARGS = ("alpha", "mu", "omega_c", "gamma", "nu", "lambda1", "lambda2")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_DEFAULT_TIE_TOL = 1e-9


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
        if self.points < 2:
            raise DomainError(f"grid needs at least 2 points, got {self.points}")
        if self.kind == "log" and self.t_min <= 0.0:
            raise DomainError("log grids require t_min > 0")

    def times(self) -> np.ndarray:
        if self.kind == "linear":
            return np.linspace(self.t_min, self.t_max, self.points)
        return np.geomspace(self.t_min, self.t_max, self.points)


def default_grid(omega_c: float = 1.0, points: int = 400) -> TimeGrid:
    """The standard log grid, t in [1e-3, 1e4] in units of 1/omega_c."""
    return TimeGrid(kind="log", t_min=1e-3 / omega_c, t_max=1e4 / omega_c, points=points)


@dataclass(frozen=True)
class DistanceSeries:
    """Distance evolution for one (lambda1, lambda2) scenario.

    Parallel arrays aligned with ``times``; ``distance`` is raw
    D = |b+ b-*| |A1 - A2| unless ``normalized`` is set, in which case the
    common amplitude factor is divided out.
    """

    model: ModelSpec
    lambda1: float
    lambda2: float
    amplitudes: QubitAmplitudes
    backend: Backend
    normalized: bool
    grid: TimeGrid
    times: np.ndarray = field(repr=False)
    distance: np.ndarray = field(repr=False)
    abs_a1: np.ndarray = field(repr=False)
    abs_a2: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)

    def rows(self) -> Iterator[tuple[float, float, float, float, float, float, float]]:
        """Yield (t, D, |A1|, |A2|, r, s, phi) per grid point."""
        for i in range(len(self.times)):
            yield (
                float(self.times[i]),
                float(self.distance[i]),
                float(self.abs_a1[i]),
                float(self.abs_a2[i]),
                float(self.r[i]),
                float(self.s[i]),
                float(self.phi[i]),
            )


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
    state1 = InitialStateSpec(amps, lambda1)
    state2 = InitialStateSpec(amps, lambda2)
    time_grid = grid if grid is not None else default_grid(model.bath.omega_c)
    overlap = ground_coherent_overlap(model.displacement, model.bath.omega_c)
    w = pair_weights(lambda1, lambda2, overlap)
    bscale = amps.coherence_scale

    times = time_grid.times()
    profile = profile_at(model, times, backend=backend, settings=settings)
    dist = distance_same_amplitudes(w, profile, bscale)
    if normalized:
        dist = dist / bscale
    return DistanceSeries(
        model=model,
        lambda1=lambda1,
        lambda2=lambda2,
        amplitudes=amps,
        backend=backend,
        normalized=normalized,
        grid=time_grid,
        times=times,
        distance=dist,
        abs_a1=np.abs(unphased_coherence_factor(state1, profile, overlap)),
        abs_a2=np.abs(unphased_coherence_factor(state2, profile, overlap)),
        r=profile.r,
        s=profile.s,
        phi=profile.phi,
    )


def _gain_ratios(alpha, mu, omega_c, gamma, nu, lambda1, lambda2) -> np.ndarray:
    """gain_ratio elementwise over broadcastable parameters (``gamma`` is
    gamma_coef): NaN where it is undefined, inf where only D(0) vanishes.

    A map cell and gain_ratio on that cell must agree to the bit (the
    cancellation in D(0) magnifies any ulp), so every operation here gives
    an element of an array what it gives a scalar.
    """
    s0, r_inf, s_inf = limit_exponents(alpha, mu, omega_c, gamma, nu)
    overlap = np.exp(s0)
    w = pair_weights(lambda1, lambda2, overlap)
    d0 = np.abs(w.a + w.b * overlap)
    d_inf = np.abs(w.a * np.exp(-r_inf) + w.b * np.exp(s_inf - r_inf))
    # both distances carry the same roundoff floor; below it they are zeros
    # (lambda1 = lambda2 makes a = b = 0 exactly)
    tiny = 1e-14 * (np.abs(w.a) + np.abs(w.b))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d0 > tiny, d_inf / d0, np.where(d_inf > tiny, np.inf, np.nan))
    return np.where(overlap < 1.0, ratio, np.nan)


def _ratio_args(model: ModelSpec, lambda1: float, lambda2: float) -> dict[str, np.float64]:
    """The arguments of _gain_ratios for one cell, as numpy float64 scalars."""
    b, d = model.bath, model.displacement
    values = (b.alpha, b.mu, b.omega_c, d.gamma_coef, d.nu, lambda1, lambda2)
    return dict(zip(_RATIO_ARGS, map(np.float64, values)))


def gain_ratio(model: ModelSpec, lambda1: float, lambda2: float) -> float | None:
    """D(t=inf) / D(t=0) for the shared-amplitude scenario.

    Independent of the amplitudes (their common factor cancels).  Returns
    None when the distance vanishes identically (lambda1 = lambda2, or a
    trivial displacement with overlap 1 making every A_lambda equal) and
    +inf on the curve where only the initial distance is zero.  Values
    above 1 signal contractivity breakdown in the long-time limit;
    requires mu > 0 so the limit exists.
    """
    ratio = float(_gain_ratios(**_ratio_args(model, lambda1, lambda2)))
    return None if math.isnan(ratio) else ratio


def find_lambda_c(
    model: ModelSpec,
    fixed: float = 0.0,
    bracket: tuple[float, float] = (0.01, 0.99),
    tol: float = 1e-4,
    *,
    vary: Literal["lambda1", "lambda2"] = "lambda1",
) -> float:
    """Critical correlation where the long-time gain turns into loss.

    Bisects gain_ratio - 1 over ``bracket`` in the weight named by ``vary``
    while the other weight stays at ``fixed``; requires ratio(lo) > 1 >
    ratio(hi), otherwise NoBracketError (the gain region may be empty, or
    the ratio is undefined at a bracket end).  A midpoint where the ratio
    is undefined (it equals ``fixed``) is stepped past by one ulp.  The
    bisection stops at ``tol`` or when the bracket can no longer be split.
    """
    lo, hi = bracket
    if not (0.0 <= lo < hi <= 1.0):
        raise DomainError(f"bracket must satisfy 0 <= lo < hi <= 1, got {bracket}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    if vary not in ("lambda1", "lambda2"):
        raise DomainError(f"vary must be 'lambda1' or 'lambda2', got {vary!r}")

    def ratio(lam: float) -> float | None:
        if vary == "lambda1":
            return gain_ratio(model, lam, fixed)
        return gain_ratio(model, fixed, lam)

    r_lo, r_hi = ratio(lo), ratio(hi)
    if r_lo is None or r_hi is None or not (r_lo > 1.0 > r_hi):
        raise NoBracketError(
            f"no sign change across bracket [{lo}, {hi}]: "
            f"ratio(lo)={r_lo}, ratio(hi)={r_hi}; the gain region may be empty"
        )
    while 0.5 * (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        r_mid = ratio(mid)
        if r_mid is None:
            mid = math.nextafter(mid, hi)
            r_mid = ratio(mid)
        if mid in (lo, hi):
            break
        if r_mid > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def region_map(
    model: ModelSpec,
    lambda1: float,
    lambda2: float,
    plane: tuple[str, str],
    x_values: Sequence[float],
    y_values: Sequence[float],
    tie_tol: float = _DEFAULT_TIE_TOL,
    refine_boundary: bool = False,
    boundary_resolution: float = 1e-4,
) -> RegionMap:
    """Classify gain vs loss over a 2-D plane of parameters.

    ``plane`` names the (x, y) parameters from PLANE_PARAMETERS; grid values
    override the template model / correlation weights cell by cell.  With
    ``refine_boundary`` the ratio = 1 crossing is bisected along every grid
    edge whose endpoints carry opposite definite labels, to a resolution of
    ``boundary_resolution`` times the axis span.
    """
    x_name, y_name = plane
    for name in (x_name, y_name):
        if name not in PLANE_PARAMETERS:
            raise DomainError(
                f"unknown plane parameter {name!r}; expected one of {PLANE_PARAMETERS}"
            )
    if x_name == y_name:
        raise DomainError("plane parameters must differ")
    xs = np.asarray(list(x_values), dtype=float)
    ys = np.asarray(list(y_values), dtype=float)
    if xs.size == 0 or ys.size == 0:
        raise DomainError("plane axes must contain at least one value each")

    # every domain is an interval: checking each axis value also covers the
    # cells and the bisection midpoints between them
    for name, values in ((x_name, xs), (y_name, ys)):
        for v in values.tolist():
            _OVERRIDES[name](model, lambda1, lambda2, v)
    args = _ratio_args(model, lambda1, lambda2)

    def ratios(xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
        return _gain_ratios(**{**args, x_name: xv, y_name: yv})

    grid = ratios(xs[np.newaxis, :], ys[:, np.newaxis])
    plus, minus = grid > 1.0 + tie_tol, grid < 1.0 - tie_tol
    labels = np.where(plus, "+", np.where(minus, "-", "0")).tolist()
    gain = [[v if math.isfinite(v) else None for v in row] for row in grid.tolist()]

    boundary: list[tuple[float, float]] = []
    if refine_boundary:
        # the ratio = 1 crossing on every edge between a '+' and a '-' cell,
        # x-edges row-major, then y-edges column-major, all bisected in
        # lockstep: one ratios() call per round on the edges still open
        ey, ex = np.nonzero(plus[:, :-1] & minus[:, 1:] | minus[:, :-1] & plus[:, 1:])
        fx, fy = np.nonzero((plus[:-1, :] & minus[1:, :] | minus[:-1, :] & plus[1:, :]).T)
        along_x = np.arange(ex.size + fx.size) < ex.size
        lo = np.concatenate([xs[ex], ys[fy]])
        hi = np.concatenate([xs[ex + 1], ys[fy + 1]])
        fixed = np.concatenate([ys[ey], xs[fx]])
        lo_above = np.concatenate([plus[ey, ex], plus[fy, fx]])
        x_res = boundary_resolution * (xs[-1] - xs[0]) if xs.size > 1 else 0.0
        y_res = boundary_resolution * (ys[-1] - ys[0]) if ys.size > 1 else 0.0
        res = np.where(along_x, x_res, y_res)
        while True:
            mid = 0.5 * (lo + hi)
            k = np.flatnonzero((hi - lo > res) & (mid != lo) & (mid != hi))
            if k.size == 0:
                break
            m, f = mid[k], fixed[k]
            r_mid = ratios(np.where(along_x[k], m, f), np.where(along_x[k], f, m))
            to_lo = (r_mid > 1.0) == lo_above[k]
            lo[k], hi[k] = np.where(to_lo, m, lo[k]), np.where(to_lo, hi[k], m)
            lo[k[np.isnan(r_mid)]] = np.nan  # an undefined midpoint drops the edge
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


def _golden_refine(f, lo: float, hi: float, minimize: bool, xtol: float = 1e-6):
    """Golden-section search for the extremum of f on [lo, hi]."""
    sign = 1.0 if minimize else -1.0
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = sign * f(x1), sign * f(x2)
    while b - a > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = sign * f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = sign * f(x2)
    x_star = 0.5 * (a + b)
    return x_star, f(x_star)


def find_extremum(series: DistanceSeries) -> Extremum:
    """Locate the dominant interior extremum of a distance series.

    Scans the grid for an interior point strictly below (above) both series
    endpoints that is also a local minimum (maximum), then refines it by
    golden-section search on the continuous scenario distance, to 1e-6 in t.
    Returns kind 'none' for flat or monotone series.
    """
    d = series.distance
    if len(d) < 3:
        raise DomainError("series needs at least 3 points for extremum detection")
    interior = d[1:-1]
    end_min = min(d[0], d[-1])
    end_max = max(d[0], d[-1])

    i_min = 1 + int(np.argmin(interior))
    i_max = 1 + int(np.argmax(interior))
    has_min = d[i_min] < end_min and d[i_min] <= d[i_min - 1] and d[i_min] <= d[i_min + 1]
    has_max = d[i_max] > end_max and d[i_max] >= d[i_max - 1] and d[i_max] >= d[i_max + 1]
    if not has_min and not has_max:
        return Extremum(t=None, value=None, kind="none")
    if has_min and has_max:
        if (end_min - d[i_min]) >= (d[i_max] - end_max):
            has_max = False
        else:
            has_min = False
    idx = i_min if has_min else i_max

    overlap = ground_coherent_overlap(series.model.displacement, series.model.bath.omega_c)
    w = pair_weights(series.lambda1, series.lambda2, overlap)
    bscale = series.amplitudes.coherence_scale
    scale = 1.0 / bscale if series.normalized else 1.0

    def d_of_t(t: float) -> float:
        profile = profile_at(series.model, t, backend=series.backend)
        return scale * distance_same_amplitudes(w, profile, bscale)

    t_star, value = _golden_refine(
        d_of_t,
        float(series.times[idx - 1]),
        float(series.times[idx + 1]),
        minimize=has_min,
    )
    return Extremum(t=t_star, value=value, kind="minimum" if has_min else "maximum")
