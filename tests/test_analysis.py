"""Distance series, gain ratios, critical correlation, and region maps."""

import contextlib
import inspect
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qdephase import analysis, bath, dynamics, numerics
from qdephase.analysis import PLANE_PARAMETERS
from qdephase.cli import main
from qdephase import (
    BathSpec,
    DisplacementSpec,
    DomainError,
    InitialStateSpec,
    KernelArgs,
    ModelSpec,
    NoBracketError,
    QDephaseError,
    QuadratureSettings,
    QubitAmplitudes,
    TimeGrid,
    decay_kernel,
    distance_same_amplitudes,
    distance_series,
    find_extremum,
    find_lambda_c,
    gain_ratio,
    ground_coherent_overlap,
    pair_weights,
    profile_at,
    profile_limit,
    region_map,
)
from qdephase.dynamics import unphased_coherence_factor


@pytest.fixture
def fast_converging_model():
    """mu = nu = 1: the long-time limit is reached well before t = 1e4."""
    return ModelSpec(
        epsilon=1.0,
        bath=BathSpec(alpha=0.05, mu=1.0, omega_c=1.0),
        displacement=DisplacementSpec(gamma_coef=0.3, nu=1.0),
    )


@pytest.fixture
def ratio_budget(monkeypatch):
    """Cap the calls of the array gain-ratio evaluator at 500.

    gain_ratio makes one call per ratio; find_lambda_c one for the bracket
    ends and its predicted bisection path, plus one per midpoint off that
    path; region_map one for the grid and one per refinement round.  A
    search that stops making progress then fails the test instead of
    hanging it.  A call checks no weight (the entry points do, once; see
    unit_checks), so the records count evaluations alone.
    """
    calls = []
    real = analysis._gain_ratios

    def counted(*args):
        calls.append(args)
        if len(calls) > 500:
            raise AssertionError("more than 500 gain-ratio evaluations")
        return real(*args)

    monkeypatch.setattr(analysis, "_gain_ratios", counted)
    return calls


@pytest.fixture
def unit_checks(monkeypatch):
    """Record every [0, 1] check of a weight or an overlap, by the name of
    the checked quantity: the checks of dynamics and those analysis makes
    where weights enter."""
    calls = []
    real = dynamics._check_unit

    def counted(name, x):
        calls.append(name)
        return real(name, x)

    monkeypatch.setattr(dynamics, "_check_unit", counted)
    monkeypatch.setattr(analysis, "_check_unit", counted, raising=False)
    return calls


@contextlib.contextmanager
def _series_calls(limit=200):
    """Record the distance_series calls made through the analysis module and
    every profile plan evaluation, failing after ``limit`` of them, so a
    search that stops making progress fails instead of hanging.

    Each record is (name, settings, nested): 'distance_series' or 'plan',
    the quadrature settings the call received (a plan evaluation: its
    plan's), and whether it ran inside a distance_series call.
    """
    calls, depth = [], [0]

    def counted(name, real, settings_of):
        def wrapper(*args, **kwargs):
            calls.append((name, settings_of(*args, **kwargs), depth[0] > 0))
            if len(calls) > limit:
                raise AssertionError(f"more than {limit} series/profile evaluations")
            depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    series = analysis.distance_series
    signature = inspect.signature(series)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "distance_series", counted(
            "distance_series", series,
            lambda *args, **kwargs: signature.bind(*args, **kwargs).arguments.get("settings"),
        ))
        mp.setattr(bath._ProfilePlan, "__call__", counted(
            "plan", bath._ProfilePlan.__call__, lambda plan, t: plan.settings
        ))
        yield calls


@pytest.fixture
def series_budget():
    with _series_calls() as calls:
        yield calls


def _benchmark_with_cutoff(omega_c):
    return ModelSpec(
        epsilon=1.0,
        bath=BathSpec(alpha=0.0025, mu=0.01, omega_c=omega_c),
        displacement=DisplacementSpec(gamma_coef=0.05, nu=0.05),
    )


class TestTimeGrid:
    def test_linear_values(self):
        grid = TimeGrid("linear", 0.0, 10.0, 11)
        assert np.allclose(grid.times(), np.linspace(0, 10, 11))

    def test_log_values_increasing(self):
        grid = TimeGrid("log", 1e-3, 1e3, 50)
        times = grid.times()
        assert times[0] == pytest.approx(1e-3)
        assert times[-1] == pytest.approx(1e3)
        assert np.all(np.diff(times) > 0)

    @pytest.mark.parametrize("points", [2, 3, 400])
    def test_log_values_are_geomspace_bits(self, points):
        # seeded grids, wide and narrow, with t_min down to 1e-300 and t_max
        # up to 1e150, and grids whose t_max is one ulp above t_min
        rng = np.random.default_rng(points)
        ends = [(1e-300, 1e150)] + [(t, math.nextafter(t, math.inf)) for t in (1e-300, 1e-3, 1.0)]
        for _ in range(200):
            lo = 10.0 ** rng.uniform(-300.0, 149.0)
            ends.append((lo, lo * 10.0 ** rng.uniform(1e-12, min(3.0, 150.0 - np.log10(lo)))))
            ends.append(tuple(np.sort(10.0 ** rng.uniform(-300.0, 150.0, 2)).tolist()))
        for t_min, t_max in ends:
            times = TimeGrid("log", t_min, t_max, points).times()
            expected = np.geomspace(t_min, t_max, points)
            assert times.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
            assert (times[0], times[-1]) == (t_min, t_max)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "cubic", "t_min": 0.0, "t_max": 1.0, "points": 5},
            {"kind": "linear", "t_min": -1.0, "t_max": 1.0, "points": 5},
            {"kind": "linear", "t_min": 2.0, "t_max": 1.0, "points": 5},
            {"kind": "linear", "t_min": 0.0, "t_max": 1.0, "points": 1},
            {"kind": "log", "t_min": 0.0, "t_max": 1.0, "points": 5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            TimeGrid(**kwargs)

    @pytest.mark.parametrize("points", [3.5, 3.0, math.nan, "5", None])
    def test_points_must_be_an_integer(self, points):
        with pytest.raises(DomainError, match="integer"):
            TimeGrid("linear", 0.0, 1.0, points)

    def test_numpy_integer_points(self):
        times = TimeGrid("linear", 0.0, 1.0, np.int64(5)).times()
        assert times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize("kind", ["linear", "log"])
    def test_unallocatable_point_count_is_a_domain_error(self, kind):
        # numpy refuses 10**20 points before it allocates (a raw ValueError before)
        grid = TimeGrid(kind, 1e-3, 1.0, 10**20)
        with pytest.raises(DomainError, match=f"grid of {10**20} points"):
            grid.times()


class TestDistanceSeries:
    def test_degenerate_pair_is_identically_zero(self, benchmark_model):
        series = distance_series(
            benchmark_model, 0.3, 0.3, grid=TimeGrid("log", 1e-2, 1e2, 40)
        )
        assert np.all(series.distance == 0.0)

    def test_benchmark_shape(self, benchmark_model):
        series = distance_series(benchmark_model, 0.25, 0.0)
        assert len(series.times) == 400
        assert series.distance[0] == pytest.approx(oracles.SCENARIO_D0, rel=1e-6)
        # non-monotone: an interior dip below both ends
        assert series.distance.min() < 0.5 * min(
            series.distance[0], oracles.SCENARIO_D_INF
        )
        assert np.all(series.distance >= 0.0)
        # |A| columns live in (0, 1]
        assert np.all(series.abs_a1 <= 1.0 + 1e-12)
        assert np.all(series.abs_a2 <= 1.0 + 1e-12)

    def test_rows_align_with_grid(self, benchmark_model):
        grid = TimeGrid("linear", 0.0, 5.0, 6)
        series = distance_series(benchmark_model, 0.25, 0.0, grid=grid)
        rows = list(series.rows())
        assert len(rows) == 6
        assert rows[0][0] == 0.0
        assert rows[-1][0] == 5.0

    def test_normalized_flag_scales_distance(self, benchmark_model):
        grid = TimeGrid("log", 1e-2, 1e2, 20)
        raw = distance_series(benchmark_model, 0.25, 0.0, grid=grid)
        norm = distance_series(benchmark_model, 0.25, 0.0, grid=grid, normalized=True)
        assert np.allclose(norm.distance, raw.distance / 0.5, rtol=1e-13)

    def test_backend_choice(self, benchmark_model):
        grid = TimeGrid("log", 1e-2, 1e2, 15)
        closed = distance_series(benchmark_model, 0.25, 0.0, grid=grid)
        quadr = distance_series(benchmark_model, 0.25, 0.0, grid=grid, backend="quadrature")
        assert np.allclose(closed.distance, quadr.distance, rtol=1e-6, atol=1e-9)

    def test_endpoint_reaches_limit_when_convergence_is_fast(self, fast_converging_model):
        series = distance_series(fast_converging_model, 0.25, 0.0)
        overlap_limit = profile_limit(fast_converging_model)
        from qdephase import distance_same_amplitudes, ground_coherent_overlap, pair_weights

        overlap = ground_coherent_overlap(fast_converging_model.displacement, 1.0)
        w = pair_weights(0.25, 0.0, overlap)
        d_inf = distance_same_amplitudes(w, overlap_limit, 0.5)
        assert series.distance[-1] == pytest.approx(d_inf, rel=1e-3)

    def test_rejects_zero_amplitudes(self, benchmark_model):
        with pytest.raises(DomainError):
            distance_series(
                benchmark_model, 0.25, 0.0, amplitudes=QubitAmplitudes(1.0, 0.0)
            )

    def test_both_weights_nonzero_ordering(self, benchmark_model):
        # lambda1 = 0.25 vs small lambda2 > 0: the long-time distance still
        # exceeds the initial one at weak coupling
        ratio = gain_ratio(benchmark_model, 0.25, 0.05)
        assert ratio is not None and ratio > 1.0


class TestGainRatio:
    def test_benchmark_value(self, benchmark_model):
        assert gain_ratio(benchmark_model, 0.25, 0.0) == pytest.approx(
            oracles.SCENARIO_GAIN, rel=1e-10
        )

    def test_strong_coupling_contracts(self, strong_model):
        assert gain_ratio(strong_model, 0.25, 0.0) == pytest.approx(
            oracles.STRONG_GAIN, rel=1e-10
        )

    def test_degenerate_weights_undefined(self, benchmark_model):
        assert gain_ratio(benchmark_model, 0.4, 0.4) is None

    def test_zero_displacement_is_degenerate(self):
        # overlap 1 makes A independent of the correlation weight: D vanishes
        # identically and the ratio is undefined rather than roundoff noise
        model = ModelSpec(
            epsilon=1.0,
            bath=BathSpec(alpha=0.1, mu=0.5, omega_c=1.0),
            displacement=DisplacementSpec(gamma_coef=0.0, nu=0.5),
        )
        assert gain_ratio(model, 0.7, 0.2) is None

    def test_independent_of_amplitudes(self, benchmark_model):
        # the ratio of series endpoints equals gain_ratio for any amplitudes
        ratio = gain_ratio(benchmark_model, 0.25, 0.0)
        for b_plus in (1.0 / math.sqrt(2.0), 0.9):
            amps = QubitAmplitudes(b_plus, math.sqrt(1 - b_plus**2))
            grid = TimeGrid("linear", 0.0, 1.0, 3)
            series = distance_series(benchmark_model, 0.25, 0.0, amplitudes=amps, grid=grid)
            from qdephase import distance_same_amplitudes, ground_coherent_overlap, pair_weights

            overlap = ground_coherent_overlap(benchmark_model.displacement, 1.0)
            w = pair_weights(0.25, 0.0, overlap)
            d_inf = distance_same_amplitudes(
                w, profile_limit(benchmark_model), amps.coherence_scale
            )
            assert d_inf / series.distance[0] == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.0, -0.5, -0.999])
    def test_ohmic_and_below_give_zero(self, benchmark_model, mu):
        # r(t) diverges for mu <= 0 and every coherence dies: D(inf) = 0
        model = replace(benchmark_model, bath=replace(benchmark_model.bath, mu=mu))
        assert gain_ratio(model, 0.25, 0.0) == 0.0
        assert gain_ratio(model, 0.0, 0.9) == 0.0
        # D(0) = 0 too: undefined, as at mu > 0
        assert gain_ratio(model, 0.4, 0.4) is None

    def test_huge_coupling_below_ohmic_gives_zero(self):
        # the masked cell forms no Gamma: 4e300 * gamma(mu) * 1e10**mu would overflow
        model = ModelSpec(1.0, BathSpec(1e300, -0.5, 1e10), DisplacementSpec(0.05, 0.5))
        assert gain_ratio(model, 0.25, 0.0) == 0.0

    def test_overflowing_prefactor_is_a_domain_error(self, benchmark_model):
        # alpha * gamma_coef = 1e600 overflows a double inside the t -> inf limit
        huge = ModelSpec(
            epsilon=1.0,
            bath=replace(benchmark_model.bath, alpha=1e300),
            displacement=replace(benchmark_model.displacement, gamma_coef=1e300),
        )
        with pytest.raises(DomainError, match="overflows"):
            gain_ratio(huge, 0.25, 0.0)

    @pytest.mark.parametrize("mu", [-0.8, 0.5])
    def test_overflowing_overlap_moment_gives_orthogonal_branches(self, mu):
        # 0.00459 * Gamma(29) * 4.48e42**29 overflows a double: O = 0, and Y = 0
        # too (r_inf - s_inf >= Int f^2 / 4), so the ratio is e^-r(inf), ~1 here
        # (r_inf ~ 3e-50), or 0 for mu <= 0
        model = ModelSpec(1.0, BathSpec(1.93e-72, mu, 4.48e42), DisplacementSpec(0.00918, 29.0))
        assert gain_ratio(model, 0.25, 0.0) == (1.0 if mu > 0.0 else 0.0)
        with pytest.raises(NoBracketError):
            find_lambda_c(model)

    def test_overflowing_factor_of_a_small_overlap_moment_is_refused(self):
        # Gamma(200) overflows, but 0.025 * Gamma(200) * 0.01**200 ~ 1e-29: the
        # overlap is ~1, so neither O = 0 nor a ratio e^-r(inf) would be right
        model = ModelSpec(1.0, BathSpec(0.1, 0.5, 0.01), DisplacementSpec(0.05, 200.0))
        with pytest.raises(DomainError, match="overflows a double"):
            gain_ratio(model, 0.25, 0.0)

    def test_orthogonal_displaced_branches(self, benchmark_model):
        # gamma = 1e6 underflows the overlap e^s(0) to 0, and e^s(t) stays 0:
        # A_lam(t) = (1 - lam) e^-r(t) / C_lam, so D(t) = D(0) e^-r(t) and the
        # gain ratio is e^-r(inf) = e^(-4 alpha Gamma(mu))
        far = replace(
            benchmark_model,
            displacement=replace(benchmark_model.displacement, gamma_coef=1e6),
        )
        assert gain_ratio(far, 0.25, 0.0) == pytest.approx(
            math.exp(-4.0 * 0.0025 * math.gamma(0.01)), rel=1e-12
        )
        series = distance_series(far, 0.25, 0.0, grid=TimeGrid("log", 1e-3, 1e4, 50))
        d0 = 0.5 * (1.0 - 0.75 / math.sqrt(0.625))
        np.testing.assert_allclose(series.distance, d0 * np.exp(-series.r), rtol=1e-12)


def _template_models(n, seed):
    """(model, weight) pairs near the weak-coupling gain regime, as the
    plane benchmark draws its templates."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(n):
        alpha, gamma_coef = 10.0 ** rng.uniform(np.log10([1e-3, 0.02]), np.log10([6e-3, 0.1]))
        bath = BathSpec(alpha=alpha, mu=rng.uniform(0.005, 0.05))
        displacement = DisplacementSpec(gamma_coef=gamma_coef, nu=rng.uniform(0.02, 0.1))
        model = ModelSpec(epsilon=1.0, bath=bath, displacement=displacement)
        models.append((model, rng.uniform(0.0, 0.35)))
    return models


TEMPLATE_MODELS = _template_models(210, seed=11)

# the first midpoint of the bracket (0.01, 0.99) is 0.5: at fixed = 0.5 the
# bisection meets an undefined ratio there
_DEGENERATE_MIDPOINT_MODEL = ModelSpec(
    epsilon=1.0,
    bath=BathSpec(alpha=0.0025, mu=0.01, omega_c=1.0),
    displacement=DisplacementSpec(gamma_coef=0.03, nu=0.05),
)


def _weight_ratio(model, fixed, vary):
    """The scalar gain_ratio as a function of the weight named by ``vary``."""
    if vary == "lambda1":
        return lambda lam: gain_ratio(model, lam, fixed)
    return lambda lam: gain_ratio(model, fixed, lam)


def _bits(ratio):
    """A gain ratio as a bit-exact key: None, or its float.hex (inf included)."""
    return None if ratio is None else ratio.hex()


class TestWeightSymmetry:
    """Swapping the two weights negates both pair weights exactly (x - y is
    -(y - x) in IEEE arithmetic), so the ratio and everything built on it is
    symmetric in lambda1 and lambda2, to the bit."""

    def test_gain_ratio(self, benchmark_model):
        # gamma = 1e-15 drops D(0) under its roundoff floor: an infinite ratio
        faint = replace(
            benchmark_model, displacement=replace(benchmark_model.displacement, gamma_coef=1e-15)
        )
        seen = set()
        for model, fixed in [*TEMPLATE_MODELS, (faint, 0.25)]:
            weights = (0.0, 1.0, fixed, 0.01, 0.3, 0.5, 0.99)
            for x, y in itertools.combinations_with_replacement(weights, 2):
                forward = _bits(gain_ratio(model, x, y))
                assert forward == _bits(gain_ratio(model, y, x)), (model, x, y)
                seen.add(forward if forward in (None, "inf") else "finite")
        assert seen == {None, "inf", "finite"}

    @pytest.mark.parametrize("index", range(0, 210, 21))
    def test_region_map(self, index):
        model, fixed = TEMPLATE_MODELS[index]
        # both axes hold 0.0: the cell lambda1 = lambda2 = 0 is undefined
        xs, ys = np.linspace(0.0, 0.9, 11), np.linspace(0.0, 0.99, 12)
        kwargs = dict(x_values=xs, y_values=ys, refine_boundary=True)
        forward = region_map(model, fixed, 0.0, plane=("lambda1", "lambda2"), **kwargs)
        swapped = region_map(model, 0.0, fixed, plane=("lambda2", "lambda1"), **kwargs)
        assert forward.labels == swapped.labels
        assert forward.gain == swapped.gain
        assert forward.boundary_points and forward.boundary_points == swapped.boundary_points


_WEIGHT_ERROR = "correlation weight must lie in [0, 1], got {}"


def _model_fault(model):
    """The model with a fault that the long-time limit refuses before any weight:
    alpha * gamma_coef = 1e600 overflows a double inside the t -> inf limit."""
    return ModelSpec(
        epsilon=1.0,
        bath=replace(model.bath, alpha=1e300),
        displacement=replace(model.displacement, gamma_coef=1e300),
    )

# two values per plane axis, inside the domain of each parameter
_AXES = {
    "alpha": [1e-3, 4e-3],
    "gamma": [0.01, 0.1],
    "mu": [0.01, 0.5],
    "nu": [0.05, 0.5],
    "lambda1": [0.1, 0.9],
    "lambda2": [0.0, 0.5],
}


class TestWeightEntryChecks:
    """The ratio evaluator is unchecked: gain_ratio, find_lambda_c and
    region_map check each weight where it enters, with the error, message
    and precedence that the evaluator's checks gave."""

    @pytest.mark.parametrize(
        "lambda1,lambda2,bad",
        [(1.5, 0.0, 1.5), (0.25, -0.5, -0.5), (math.nan, 0.0, math.nan),
         (0.25, math.nan, math.nan), (2, -1, 2.0), (1.5, -0.5, 1.5)],
    )
    def test_gain_ratio(self, benchmark_model, lambda1, lambda2, bad):
        with pytest.raises(DomainError) as raised:
            gain_ratio(benchmark_model, lambda1, lambda2)
        assert str(raised.value) == _WEIGHT_ERROR.format(bad)

    @pytest.mark.parametrize(
        "fixed,bad", [(1.5, 1.5), (-0.25, -0.25), (math.nan, math.nan), (2, 2.0)]
    )
    @pytest.mark.parametrize("vary", ["lambda1", "lambda2"])
    def test_find_lambda_c_fixed(self, benchmark_model, vary, fixed, bad):
        with pytest.raises(DomainError) as raised:
            find_lambda_c(benchmark_model, fixed)
        assert str(raised.value) == _WEIGHT_ERROR.format(bad)
        # the scalar ratio refuses the fixed weight alike in either position
        with pytest.raises(DomainError) as scalar:
            _weight_ratio(benchmark_model, fixed, vary)(0.5)
        assert str(scalar.value) == str(raised.value)

    @pytest.mark.parametrize(
        "lambda1,lambda2,plane,bad",
        [
            (1.5, 0.0, ("alpha", "mu"), 1.5),
            (0.25, -0.5, ("gamma", "nu"), -0.5),
            (1.5, -0.5, ("nu", "alpha"), 1.5),
            (0.25, math.nan, ("alpha", "lambda1"), math.nan),
            (math.nan, 0.0, ("lambda2", "mu"), math.nan),
        ],
    )
    def test_region_map_template_weight(self, benchmark_model, lambda1, lambda2, plane, bad):
        with pytest.raises(DomainError) as raised:
            region_map(
                benchmark_model, lambda1, lambda2, plane=plane,
                x_values=_AXES[plane[0]], y_values=_AXES[plane[1]],
            )
        assert str(raised.value) == _WEIGHT_ERROR.format(bad)

    @pytest.mark.parametrize(
        "lambda1,lambda2,plane",
        [(1.5, 0.0, ("lambda1", "alpha")), (0.25, math.nan, ("mu", "lambda2")),
         (-1.0, 2.0, ("lambda2", "lambda1"))],
    )
    def test_region_map_axis_weight_is_not_read(self, benchmark_model, lambda1, lambda2, plane):
        # the axis values replace the template weight in every cell
        kwargs = dict(
            plane=plane, x_values=_AXES[plane[0]], y_values=_AXES[plane[1]],
            refine_boundary=True,
        )
        got = region_map(benchmark_model, lambda1, lambda2, **kwargs)
        want = region_map(
            benchmark_model,
            0.25 if "lambda1" in plane else lambda1,
            0.0 if "lambda2" in plane else lambda2,
            **kwargs,
        )
        assert (got.labels, got.gain, got.boundary_points) == (
            want.labels, want.gain, want.boundary_points
        )

    @pytest.mark.parametrize("fault,match", [("overflow", "overflows")])
    def test_a_model_fault_comes_first(self, benchmark_model, fault, match):
        model = _model_fault(benchmark_model)
        with pytest.raises(DomainError, match=match):
            gain_ratio(model, 1.5, 0.0)
        with pytest.raises(DomainError, match=match):
            gain_ratio(model, 0.25, math.nan)
        with pytest.raises(DomainError, match=match):
            find_lambda_c(model, 1.5)
        with pytest.raises(DomainError, match=match):
            region_map(
                model, 1.5, -0.5, plane=("nu", "lambda2"),
                x_values=_AXES["nu"], y_values=_AXES["lambda2"],
            )

    @pytest.mark.parametrize("mu", [0.0, -0.5])
    def test_an_ohmic_model_is_no_fault(self, benchmark_model, mu):
        # mu <= 0 is served (ratio 0), so a bad weight is the error
        model = replace(benchmark_model, bath=replace(benchmark_model.bath, mu=mu))
        for call in (
            lambda: gain_ratio(model, 1.5, 0.0),
            lambda: find_lambda_c(model, 1.5),
            lambda: region_map(
                model, 1.5, -0.5, plane=("nu", "lambda2"),
                x_values=_AXES["nu"], y_values=_AXES["lambda2"],
            ),
        ):
            with pytest.raises(DomainError) as raised:
                call()
            assert str(raised.value) == _WEIGHT_ERROR.format(1.5)

    def test_a_plane_fault_comes_first(self, benchmark_model):
        def plane_error(plane, x_values):
            with pytest.raises(DomainError) as raised:
                region_map(
                    benchmark_model, 1.5, math.nan, plane=plane,
                    x_values=x_values, y_values=_AXES[plane[1]],
                )
            return str(raised.value)

        # an ohmic axis end is served, so the template weight is the error
        assert plane_error(("mu", "alpha"), [0.0, 0.5]) == _WEIGHT_ERROR.format(1.5)
        assert "overflows" in plane_error(("mu", "alpha"), [0.5, 200.0])
        assert plane_error(("alpha", "nu"), [-1.0, 0.01]) == (
            "coupling alpha must be positive, got -1.0"
        )
        assert plane_error(("lambda2", "alpha"), [0.5, 1.2]) == _WEIGHT_ERROR.format(1.2)

    def test_search_arguments_come_first(self, benchmark_model):
        with pytest.raises(DomainError, match="bracket"):
            find_lambda_c(benchmark_model, 1.5, bracket=(0.9, 0.1))
        with pytest.raises(DomainError, match="tolerance"):
            find_lambda_c(benchmark_model, 1.5, tol=0.0)
        with pytest.raises(DomainError, match="plane parameters"):
            region_map(benchmark_model, 1.5, 0.0, plane=("alpha", "alpha"),
                       x_values=[0.001], y_values=[0.001])

    def test_checks_do_not_grow_with_refinement_rounds(
        self, benchmark_model, ratio_budget, unit_checks
    ):
        # resolution 0.02 closes every edge of this map in one round, 1e-4 takes several
        counts = []
        for resolution in (0.02, 1e-4):
            calls, checks = len(ratio_budget), len(unit_checks)
            region_map(
                benchmark_model, 0.25, 0.0, plane=("alpha", "lambda1"),
                x_values=np.linspace(1e-5, 0.02, 30), y_values=np.linspace(0.02, 0.98, 30),
                refine_boundary=True, boundary_resolution=resolution,
            )
            counts.append((len(ratio_budget) - calls, len(unit_checks) - checks))
        (one_round, checks_one), (rounds, checks_many) = counts
        assert one_round == 2 and rounds > 4
        assert checks_one == checks_many

    @pytest.mark.parametrize("vary,fixed", [("lambda1", 0.0), ("lambda2", 0.25)])
    def test_checks_do_not_grow_with_bisection_levels(
        self, benchmark_model, ratio_budget, unit_checks, vary, fixed
    ):
        # tol 0.01 takes 6 bisection levels, 1e-4 takes 13: one evaluator call each
        counts = []
        for tol in (0.01, 1e-4):
            calls, checks = len(ratio_budget), len(unit_checks)
            find_lambda_c(benchmark_model, fixed, tol=tol)
            counts.append((len(ratio_budget) - calls, len(unit_checks) - checks))
        assert [calls for calls, _ in counts] == [1, 1]
        assert counts[0][1] == counts[1][1]


class TestFindLambdaC:
    def test_benchmark_location(self, benchmark_model):
        lam_c = find_lambda_c(benchmark_model, 0.0, bracket=(0.05, 0.95), tol=1e-5)
        assert lam_c == pytest.approx(oracles.SCENARIO_LAMBDA_C, abs=2e-5)

    def test_bracketing_property(self, benchmark_model):
        tol = 1e-4
        lam_c = find_lambda_c(benchmark_model, 0.0, bracket=(0.05, 0.95), tol=tol)
        lo = gain_ratio(benchmark_model, lam_c - 2 * tol, 0.0)
        hi = gain_ratio(benchmark_model, lam_c + 2 * tol, 0.0)
        assert lo > 1.0 > hi

    def test_loose_tolerance_contract(self, benchmark_model):
        lam_c = find_lambda_c(benchmark_model, 0.0, bracket=(0.05, 0.95), tol=0.5)
        assert abs(lam_c - oracles.SCENARIO_LAMBDA_C) <= 0.5

    def test_empty_gain_region_raises(self, benchmark_model):
        heavy = replace(benchmark_model, bath=replace(benchmark_model.bath, alpha=0.05))
        # scan confirms the ratio stays far below 1 everywhere
        grid_max = max(
            gain_ratio(heavy, lam, 0.0) for lam in np.linspace(0.01, 0.99, 25)
        )
        assert grid_max < 1.0
        with pytest.raises(NoBracketError):
            find_lambda_c(heavy, 0.0, bracket=(0.01, 0.99))

    @pytest.mark.parametrize("bracket", [(0.9, 0.1), (-0.1, 0.5), (0.5, 1.5)])
    def test_bad_bracket(self, benchmark_model, bracket):
        with pytest.raises(DomainError):
            find_lambda_c(benchmark_model, 0.0, bracket=bracket)

    @pytest.mark.parametrize("vary,fixed", [("lambda1", 0.0), ("lambda2", 0.25)])
    def test_tiny_tolerance_terminates(self, benchmark_model, ratio_budget, vary, fixed):
        # below float spacing the midpoint equals an endpoint; the bisection
        # must stop there rather than loop forever
        lam_c = find_lambda_c(benchmark_model, fixed, tol=1e-300)
        coarse = find_lambda_c(benchmark_model, fixed, tol=1e-6)
        assert lam_c == pytest.approx(coarse, abs=1e-6)
        assert len(ratio_budget) < 200

    @pytest.mark.parametrize("vary", ["lambda1", "lambda2"])
    def test_degenerate_midpoint_is_stepped_past(self, vary):
        # the first midpoint of (0.01, 0.99) equals the fixed weight 0.5,
        # where the ratio is undefined
        model = _DEGENERATE_MIDPOINT_MODEL
        assert 0.5 * (0.01 + 0.99) == 0.5
        tol = 1e-4
        lam_c = find_lambda_c(model, 0.5, bracket=(0.01, 0.99), tol=tol)
        assert lam_c == oracles.bisect_lambda_c(_weight_ratio(model, 0.5, vary), tol=tol)
        # the ratio is symmetric in the two weights
        below = gain_ratio(model, 0.5, lam_c - 2 * tol)
        above = gain_ratio(model, 0.5, lam_c + 2 * tol)
        assert below > 1.0 > above

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-300])
    @pytest.mark.parametrize("vary", ["lambda1", "lambda2"])
    def test_equals_the_scalar_bisection(self, vary, tol):
        # one call evaluates the predicted bisection path at once; the walk
        # along it must give the scalar bisection's float, bit for bit
        for model, fixed in TEMPLATE_MODELS:
            want = oracles.bisect_lambda_c(_weight_ratio(model, fixed, vary), tol=tol)
            if want is None:
                with pytest.raises(NoBracketError):
                    find_lambda_c(model, fixed, tol=tol)
            else:
                assert find_lambda_c(model, fixed, tol=tol) == want, (model, fixed)

    @pytest.mark.parametrize("fault", ["none", "off", "midpoint", "nan"])
    def test_a_wrong_prediction_costs_calls_not_bits(self, monkeypatch, ratio_budget, fault):
        # the predicted root only picks the points of the first evaluator
        # call; the walk applies the scalar rules to the ratios it reads
        real = analysis._root

        def predicted(f, terms, lo, hi):
            root = real(f, terms, lo, hi)
            return {
                "none": None,
                "off": None if root is None else root + 0.3,
                "midpoint": 0.5 * (lo + hi),
                "nan": math.nan,
            }[fault]

        monkeypatch.setattr(analysis, "_root", predicted)
        searches = [(model, fixed, 1e-4) for model, fixed in TEMPLATE_MODELS[::21]]
        searches += [(_DEGENERATE_MIDPOINT_MODEL, 0.5, 1e-4), (*TEMPLATE_MODELS[0], 1e-300)]
        for model, fixed, tol in searches:
            calls = len(ratio_budget)
            want = oracles.bisect_lambda_c(_weight_ratio(model, fixed, "lambda1"), tol=tol)
            if want is None:
                with pytest.raises(NoBracketError):
                    find_lambda_c(model, fixed, tol=tol)
            else:
                assert find_lambda_c(model, fixed, tol=tol) == want, (model, fixed)
            assert len(ratio_budget) - calls < 200

    def test_the_predicted_root_is_the_crossing(self):
        # on every bracketed template search; none lies close enough to the
        # fixed weight, where D(0) cancels, to move the root by 1e-9
        bracketed = 0
        for model, fixed in TEMPLATE_MODELS:
            b, d = model.bath, model.displacement
            terms = analysis._long_time_terms(b.alpha, b.mu, b.omega_c, d.gamma_coef, d.nu)
            root = analysis._root(fixed, terms, 0.01, 0.99)
            with contextlib.suppress(NoBracketError):
                lam_c = find_lambda_c(model, fixed, tol=1e-12)
                bracketed += 1
                assert root is not None and abs(root - lam_c) <= 1e-9, (model, fixed)
        assert bracketed >= 200

    def test_one_evaluator_call_per_template_search(self, ratio_budget):
        counts = []
        for model, fixed in TEMPLATE_MODELS:
            calls = len(ratio_budget)
            with contextlib.suppress(NoBracketError):
                find_lambda_c(model, fixed)
                counts.append(len(ratio_budget) - calls)
        assert len(counts) >= 200
        assert counts.count(1) >= 0.99 * len(counts)

    def test_wide_models_equal_the_scalar_bisection(self):
        # alpha and gamma over eight decades, mu and nu up to 3, omega_c over
        # six decades, with random fixed weights, brackets and tolerances; a
        # raw OverflowError or RuntimeWarning from the root fails the test
        rng = np.random.default_rng(22)
        bracketed = 0
        for _ in range(1500):
            bath_spec = BathSpec(
                10.0 ** rng.uniform(-6.0, 2.0), rng.uniform(1e-3, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)
            )
            displacement = DisplacementSpec(10.0 ** rng.uniform(-6.0, 2.0), rng.uniform(1e-3, 3.0))
            model = ModelSpec(epsilon=1.0, bath=bath_spec, displacement=displacement)
            fixed = float(rng.choice([0.0, 0.5, 1.0, rng.random()]))
            lo = float(rng.choice([0.0, 0.01, rng.uniform(0.0, 0.5)]))
            hi = float(rng.choice([1.0, 0.99, rng.uniform(lo + 1e-3, 1.0)]))
            tol = float(rng.choice([1e-4, 1e-6, 1e-12, 1e-300, 0.3]))
            ratio = _weight_ratio(model, fixed, "lambda1")
            want = oracles.bisect_lambda_c(ratio, bracket=(lo, hi), tol=tol)
            if want is None:
                with pytest.raises(NoBracketError):
                    find_lambda_c(model, fixed, bracket=(lo, hi), tol=tol)
            else:
                assert find_lambda_c(model, fixed, bracket=(lo, hi), tol=tol) == want
                bracketed += 1
        assert bracketed >= 50

    @pytest.mark.parametrize("vary", ["lambda1", "lambda2"])
    def test_integer_bracket_ends(self, benchmark_model, vary):
        # the midpoints of (0, 1) are floats, whatever the type of the ends
        lam_c = find_lambda_c(benchmark_model, 0.25, bracket=(0, 1))
        assert lam_c == find_lambda_c(benchmark_model, 0.25, bracket=(0.0, 1.0))
        want = oracles.bisect_lambda_c(_weight_ratio(benchmark_model, 0.25, vary), bracket=(0, 1))
        assert lam_c == want

    @pytest.mark.parametrize("vary,fixed", [("lambda1", 0.0), ("lambda2", 0.25)])
    def test_one_evaluator_call(self, benchmark_model, ratio_budget, vary, fixed):
        # 13 bisection levels at tol 1e-4: the bracket ends and the 13
        # midpoints predicted from the closed-form root, in one call
        find_lambda_c(benchmark_model, fixed, tol=1e-4)
        assert len(ratio_budget) == 1

    def test_undefined_ratio_at_bracket_end_is_no_bracket(self, benchmark_model):
        with pytest.raises(NoBracketError):
            find_lambda_c(benchmark_model, 0.01, bracket=(0.01, 0.99))

    @pytest.mark.parametrize("vary,fixed,tol", [("lambda1", 0.0, 1e-4), ("lambda2", 0.25, 1e-300)])
    def test_terms_once_per_search(self, benchmark_model, monkeypatch, vary, fixed, tol):
        # the long-time terms (O, X, Y) do not depend on the weights being bisected
        calls = []
        real = analysis._long_time_terms

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(analysis, "_long_time_terms", counted)
        find_lambda_c(benchmark_model, fixed, tol=tol)
        assert len(calls) == 1

    @pytest.mark.parametrize("mu", [0.0, -0.5])
    def test_ohmic_and_below_have_no_bracket(self, benchmark_model, mu):
        model = replace(benchmark_model, bath=replace(benchmark_model.bath, mu=mu))
        with pytest.raises(NoBracketError, match=r"ratio\(lo\)=0\.0, ratio\(hi\)=0\.0"):
            find_lambda_c(model, 0.0)


class TestRegionMap:
    def test_benchmark_plane_contains_both_phases(self, benchmark_model):
        result = region_map(
            benchmark_model,
            0.25,
            0.0,
            plane=("alpha", "lambda1"),
            x_values=[1e-5, 0.0025, 0.01, 0.02],
            y_values=[0.1, 0.25, 0.6, 0.9],
        )
        flat = [label for row in result.labels for label in row]
        assert "+" in flat and "-" in flat
        ix = result.x_values.tolist().index(0.0025)
        iy = result.y_values.tolist().index(0.25)
        assert result.labels[iy][ix] == "+"
        ix_strong = result.x_values.tolist().index(0.01)
        assert result.labels[iy][ix_strong] == "-"

    def test_labels_match_recomputed_ratios(self, benchmark_model):
        result = region_map(
            benchmark_model,
            0.25,
            0.0,
            plane=("alpha", "lambda1"),
            x_values=np.linspace(1e-4, 0.02, 5),
            y_values=np.linspace(0.05, 0.95, 5),
        )
        for iy, lam in enumerate(result.y_values):
            for ix, alpha in enumerate(result.x_values):
                model = replace(
                    benchmark_model, bath=replace(benchmark_model.bath, alpha=float(alpha))
                )
                ratio = gain_ratio(model, float(lam), 0.0)
                expected = (
                    "0"
                    if ratio is None
                    else ("+" if ratio > 1 + 1e-9 else "-" if ratio < 1 - 1e-9 else "0")
                )
                assert result.labels[iy][ix] == expected

    def test_diagonal_of_weight_plane_is_boundary(self, benchmark_model):
        values = [0.2, 0.5, 0.8]
        result = region_map(
            benchmark_model, 0.25, 0.0,
            plane=("lambda1", "lambda2"),
            x_values=values, y_values=values,
        )
        for i in range(3):
            assert result.labels[i][i] == "0"
            assert result.gain[i][i] is None

    def test_zero_displacement_has_no_gain_cells(self, benchmark_model):
        quiet = replace(
            benchmark_model,
            displacement=replace(benchmark_model.displacement, gamma_coef=0.0),
        )
        result = region_map(
            quiet, 0.25, 0.0,
            plane=("alpha", "lambda1"),
            x_values=[0.001, 0.01], y_values=[0.2, 0.6],
        )
        assert all(label != "+" for row in result.labels for label in row)

    def test_single_column_plane(self, benchmark_model):
        result = region_map(
            benchmark_model, 0.25, 0.0,
            plane=("alpha", "lambda1"),
            x_values=[0.0025], y_values=[0.1, 0.9],
        )
        assert len(result.labels) == 2
        assert all(len(row) == 1 for row in result.labels)

    def test_boundary_refinement_brackets_lambda_c(self, benchmark_model):
        result = region_map(
            benchmark_model, 0.25, 0.0,
            plane=("alpha", "lambda1"),
            x_values=[0.0025], y_values=[0.3, 0.7],
            refine_boundary=True,
        )
        assert result.boundary_points
        _, lam = result.boundary_points[0]
        assert lam == pytest.approx(oracles.SCENARIO_LAMBDA_C, abs=1e-3)

    @pytest.mark.parametrize("plane", [("alpha", "lambda1"), ("lambda1", "alpha")])
    def test_descending_axis_gives_the_ascending_point(self, benchmark_model, plane):
        # on a descending axis every edge runs downwards, hi - lo < 0
        def boundary(lams):
            axes = {"alpha": [0.0025], "lambda1": lams}
            return region_map(
                benchmark_model, 0.25, 0.0, plane=plane,
                x_values=axes[plane[0]], y_values=axes[plane[1]], refine_boundary=True,
            ).boundary_points

        ascending = boundary([0.3, 0.7])
        assert boundary([0.7, 0.3]) == ascending
        lam = ascending[0][plane.index("lambda1")]
        assert lam == pytest.approx(oracles.SCENARIO_LAMBDA_C, abs=1e-3)

    @pytest.mark.parametrize("resolution", [math.nan, math.inf, -math.inf, -1e-4])
    @pytest.mark.parametrize("refine", [True, False])
    def test_boundary_resolution_must_be_finite_and_non_negative(
        self, benchmark_model, resolution, refine
    ):
        # nan or inf would leave every edge unrefined (lambda1 = 0.4 for 0.4929
        # here), and a negative value would bisect down to float resolution
        with pytest.raises(DomainError, match="boundary resolution"):
            region_map(
                benchmark_model, 0.25, 0.0, plane=("lambda1", "alpha"),
                x_values=[0.3, 0.5], y_values=[0.0025],
                refine_boundary=refine, boundary_resolution=resolution,
            )

    def test_zero_boundary_resolution_terminates(self, benchmark_model, ratio_budget):
        result = region_map(
            benchmark_model, 0.25, 0.0,
            plane=("alpha", "lambda1"),
            x_values=[0.0025], y_values=[0.3, 0.7],
            refine_boundary=True, boundary_resolution=0.0,
        )
        assert len(result.boundary_points) == 1
        _, lam = result.boundary_points[0]
        assert lam == pytest.approx(oracles.SCENARIO_LAMBDA_C, abs=1e-3)
        assert len(ratio_budget) <= 24

    def test_unknown_plane_parameter(self, benchmark_model):
        with pytest.raises(DomainError):
            region_map(
                benchmark_model, 0.25, 0.0,
                plane=("alpha", "beta"), x_values=[0.1], y_values=[0.1],
            )

    @pytest.mark.parametrize("empty", ["x_values", "y_values"])
    def test_empty_axis_rejected(self, benchmark_model, empty):
        axes = {"x_values": [0.001], "y_values": [0.2], empty: []}
        with pytest.raises(DomainError, match="at least one value each"):
            region_map(benchmark_model, 0.25, 0.0, plane=("alpha", "lambda1"), **axes)


# Axis values of each plane parameter for the cell-by-cell comparison:
# gamma = 0 (overlap 1) and lambda1 = lambda2 give undefined cells, and
# gamma = 1e-16 pushes D(0) below its roundoff floor (infinite ratio).
CELL_AXES = {
    "alpha": [1e-5, 0.0025, 0.02],
    "gamma": [0.0, 1e-16, 0.05, 0.5],
    "mu": [0.002, 0.01, 1.0],
    "nu": [0.01, 0.05, 1.0],
    "lambda1": [0.0, 0.25, 1.0],
    "lambda2": [0.0, 0.6, 0.98],
}

# Plane spans with gain/loss crossings for the benchmark template.
SPANS = {
    "alpha": (1e-5, 0.02),
    "gamma": (0.005, 0.5),
    "mu": (0.002, 1.0),
    "nu": (0.01, 1.0),
    "lambda1": (0.02, 0.98),
    "lambda2": (0.0, 0.98),
}

ORDERED_PLANES = list(itertools.permutations(PLANE_PARAMETERS, 2))


def _override(model, l1, l2, name, value):
    """One plane coordinate applied to (model, lambda1, lambda2)."""
    if name == "alpha":
        return replace(model, bath=replace(model.bath, alpha=value)), l1, l2
    if name == "mu":
        return replace(model, bath=replace(model.bath, mu=value)), l1, l2
    if name == "gamma":
        return replace(model, displacement=replace(model.displacement, gamma_coef=value)), l1, l2
    if name == "nu":
        return replace(model, displacement=replace(model.displacement, nu=value)), l1, l2
    if name == "lambda1":
        return model, value, l2
    return model, l1, value


def _cell_ratio(model, l1, l2, plane, xv, yv):
    m, a, b = _override(model, l1, l2, plane[0], xv)
    m, a, b = _override(m, a, b, plane[1], yv)
    return gain_ratio(m, a, b)


def _scalar_boundary(model, l1, l2, plane, xs, ys, labels, resolution):
    """Edge-by-edge bisection on the scalar gain_ratio: x-edges row-major,
    then y-edges column-major; an undefined midpoint drops the edge.  Each
    point is (x, y, i) with i the index of its moving coordinate."""

    def crossing(fixed, lo, hi, axis, res):
        def h(v):
            return _cell_ratio(model, l1, l2, plane, v, fixed) if axis == "x" else (
                _cell_ratio(model, l1, l2, plane, fixed, v)
            )

        sign_lo = h(lo) > 1.0
        while hi - lo > res:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            r_mid = h(mid)
            if r_mid is None:
                return None
            if (r_mid > 1.0) == sign_lo:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    x_res = resolution * (xs[-1] - xs[0]) if len(xs) > 1 else 0.0
    y_res = resolution * (ys[-1] - ys[0]) if len(ys) > 1 else 0.0
    points = []
    for iy, yv in enumerate(ys):
        for ix in range(len(xs) - 1):
            if {labels[iy][ix], labels[iy][ix + 1]} == {"+", "-"}:
                v = crossing(yv, xs[ix], xs[ix + 1], "x", x_res)
                if v is not None:
                    points.append((v, yv, 0))
    for ix, xv in enumerate(xs):
        for iy in range(len(ys) - 1):
            if {labels[iy][ix], labels[iy + 1][ix]} == {"+", "-"}:
                v = crossing(xv, ys[iy], ys[iy + 1], "y", y_res)
                if v is not None:
                    points.append((xv, v, 1))
    return points


def _assert_boundary_near(result, model, plane, xs, ys, resolution):
    """region_map's boundary against the _scalar_boundary oracle: the same
    points in the same order, each with its fixed coordinate equal and its
    moving one within resolution * span of the oracle's.

    At resolution 0 the crossing is not unique: near it the sign of
    ratio - 1 flips back and forth over up to thousands of ulp.  There a
    point must lie on a sign change of the scalar ratio between adjacent
    floats, within 1e-12 of the span of the oracle's.
    """
    want = _scalar_boundary(model, 0.25, 0.0, plane, xs, ys, result.labels, resolution)
    got = result.boundary_points
    assert want and len(got) == len(want)
    spans = (abs(xs[-1] - xs[0]), abs(ys[-1] - ys[0]))
    for point, (*expected, i) in zip(got, want):
        assert point[1 - i] == expected[1 - i], (point, expected)
        assert abs(point[i] - expected[i]) <= (resolution or 1e-12) * spans[i], (point, expected)
        if resolution == 0.0:
            v, above = point[i], set()
            for u in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)):
                xy = (u, point[1]) if i == 0 else (point[0], u)
                above.add(_cell_ratio(model, 0.25, 0.0, plane, *xy) > 1.0)
            assert above == {False, True}, point


class TestRegionMapArrayPath:
    """region_map evaluates the plane in one array pass; every cell must
    equal, bit for bit, what the scalar gain_ratio gives, and every boundary
    point lie within the resolution of the scalar bisection's."""

    @staticmethod
    def assert_cells_equal_scalar_gain_ratio(result, model, plane, xs, ys):
        for iy, yv in enumerate(ys):
            for ix, xv in enumerate(xs):
                want = _cell_ratio(model, 0.25, 0.0, plane, xv, yv)
                if want is None:
                    assert result.gain[iy][ix] is None and result.labels[iy][ix] == "0"
                elif math.isinf(want):
                    assert result.gain[iy][ix] is None and result.labels[iy][ix] == "+"
                else:
                    assert result.gain[iy][ix] == want, (plane, xv, yv)

    @pytest.mark.parametrize("plane", ORDERED_PLANES, ids="-".join)
    def test_cells_equal_scalar_gain_ratio(self, benchmark_model, plane):
        xs, ys = CELL_AXES[plane[0]], CELL_AXES[plane[1]]
        result = region_map(benchmark_model, 0.25, 0.0, plane=plane, x_values=xs, y_values=ys)
        self.assert_cells_equal_scalar_gain_ratio(result, benchmark_model, plane, xs, ys)

    @pytest.mark.parametrize("plane", [("lambda1", "alpha"), ("lambda2", "alpha")])
    def test_many_weights_equal_scalar_gain_ratio(self, benchmark_model, plane):
        # the weights are squared in C_lambda; about one value in a thousand
        # rounds differently when an array and a scalar take different
        # routes to the square, so thousands of distinct weights are checked
        xs = np.random.default_rng(5).uniform(0.0, 1.0, 4000).tolist()
        result = region_map(benchmark_model, 0.25, 0.0, plane=plane, x_values=xs, y_values=[0.0025])
        self.assert_cells_equal_scalar_gain_ratio(result, benchmark_model, plane, xs, [0.0025])

    def test_undefined_and_infinite_cells_are_covered(self, benchmark_model):
        plane = ("gamma", "lambda1")
        ratios = {
            _cell_ratio(benchmark_model, 0.25, 0.0, plane, xv, yv)
            for xv in CELL_AXES["gamma"]
            for yv in CELL_AXES["lambda1"]
        }
        assert None in ratios and math.inf in ratios

    @pytest.mark.parametrize("plane", ORDERED_PLANES, ids="-".join)
    def test_dense_plane_equals_scalar_path(self, benchmark_model, plane):
        # a rounding difference between the two paths shows in about one
        # cell in a thousand, so every plane gets a dense grid
        xs = np.linspace(*SPANS[plane[0]], 12).tolist()
        ys = np.linspace(*SPANS[plane[1]], 12).tolist()
        result = region_map(
            benchmark_model, 0.25, 0.0, plane=plane, x_values=xs, y_values=ys,
            refine_boundary=True,
        )
        self.assert_cells_equal_scalar_gain_ratio(result, benchmark_model, plane, xs, ys)
        _assert_boundary_near(result, benchmark_model, plane, xs, ys, 1e-4)

    @pytest.mark.parametrize("points", [12, 30])
    @pytest.mark.parametrize("plane", ORDERED_PLANES, ids="-".join)
    def test_refinement_takes_no_more_rounds_than_bisection(
        self, benchmark_model, plane, points, ratio_budget
    ):
        # one evaluator call for the grid, one per round; bisection halves an
        # edge of span / (points - 1) down to 1e-4 span in ceil(log2(...)) rounds
        xs = np.linspace(*SPANS[plane[0]], points)
        ys = np.linspace(*SPANS[plane[1]], points)
        result = region_map(
            benchmark_model, 0.25, 0.0, plane=plane, x_values=xs, y_values=ys,
            refine_boundary=True,
        )
        assert result.boundary_points
        assert len(ratio_budget) - 1 <= math.ceil(math.log2(1.0 / ((points - 1) * 1e-4)))

    @pytest.mark.parametrize("resolution", [1e-4, 0.0])
    @pytest.mark.parametrize("points", [12, 30])
    @pytest.mark.parametrize("plane", ORDERED_PLANES, ids="-".join)
    def test_reversed_axes_give_the_same_boundary(
        self, benchmark_model, plane, points, resolution
    ):
        # every step of the refinement is symmetric in the two ends of an
        # edge, also at resolution 0, where the sign of ratio - 1 flips back
        # and forth near the crossing
        xs = np.linspace(*SPANS[plane[0]], points)
        ys = np.linspace(*SPANS[plane[1]], points)

        def boundary(xv, yv):
            return region_map(
                benchmark_model, 0.25, 0.0, plane=plane, x_values=xv, y_values=yv,
                refine_boundary=True, boundary_resolution=resolution,
            ).boundary_points

        ascending = boundary(xs, ys)
        assert ascending
        assert set(boundary(xs[::-1], ys[::-1])) == set(ascending)

    def test_boundary_at_zero_resolution_equals_scalar_bisection(
        self, benchmark_model, ratio_budget
    ):
        plane = ("lambda1", "lambda2")
        xs = np.linspace(0.02, 0.98, 5).tolist()
        ys = np.linspace(0.0, 0.98, 5).tolist()
        result = region_map(
            benchmark_model, 0.25, 0.0, plane=plane, x_values=xs, y_values=ys,
            refine_boundary=True, boundary_resolution=0.0,
        )
        assert len(ratio_budget) <= 36
        _assert_boundary_near(result, benchmark_model, plane, xs, ys, 0.0)

    def test_undefined_point_drops_the_edge(self, benchmark_model, monkeypatch):
        # the ratio made undefined between the grid values of lambda1: the
        # only crossing edge is dropped, wherever its first point falls
        real = analysis._gain_ratios

        def undefined_inside(lambda1, lambda2, terms):
            on_grid = np.isin(lambda1, [0.1, 0.5])
            return np.where(on_grid, real(lambda1, lambda2, terms), np.nan)

        monkeypatch.setattr(analysis, "_gain_ratios", undefined_inside)
        plane = ("lambda1", "lambda2")
        result = region_map(
            benchmark_model, 0.25, 0.0, plane=plane, x_values=[0.1, 0.5], y_values=[0.3],
            refine_boundary=True,
        )
        assert result.labels == [["+", "-"]]
        assert _scalar_boundary(
            benchmark_model, 0.25, 0.0, plane, [0.1, 0.5], [0.3], result.labels, 1e-4
        ) == []
        assert result.boundary_points == []

    def test_infinite_ratio_end_is_refined(self, benchmark_model):
        # below gamma ~ 1e-14 D(0) drops under its roundoff floor: the '+'
        # end of the edge has an infinite ratio and no usable secant
        plane, xs, ys = ("gamma", "lambda1"), [1e-15, 0.5], [0.5]
        result = region_map(
            benchmark_model, 0.25, 0.0, plane=plane, x_values=xs, y_values=ys,
            refine_boundary=True,
        )
        assert result.labels == [["+", "-"]] and result.gain[0][0] is None
        assert _cell_ratio(benchmark_model, 0.25, 0.0, plane, xs[0], ys[0]) == math.inf
        _assert_boundary_near(result, benchmark_model, plane, xs, ys, 1e-4)

    @pytest.mark.parametrize(
        "plane,x_values",
        [
            (("mu", "lambda1"), [-1.5, 0.5]),
            (("alpha", "lambda1"), [0.01, -0.01]),
            (("lambda1", "alpha"), [0.5, 1.2]),
            (("lambda2", "alpha"), [-0.1, 0.5]),
        ],
    )
    def test_out_of_domain_axis_value_raises(self, benchmark_model, plane, x_values):
        with pytest.raises(DomainError):
            region_map(
                benchmark_model, 0.25, 0.0, plane=plane,
                x_values=x_values, y_values=[0.003, 0.6],
            )

    @pytest.mark.parametrize(
        "name,value,spec",
        [
            ("alpha", -1.0, lambda v: BathSpec(alpha=v, mu=0.01)),
            ("mu", -2.0, lambda v: BathSpec(alpha=0.0025, mu=v)),
            ("gamma", -0.5, lambda v: DisplacementSpec(gamma_coef=v, nu=0.05)),
            ("nu", 0.0, lambda v: DisplacementSpec(gamma_coef=0.05, nu=v)),
        ],
    )
    def test_axis_value_error_is_the_spec_error(self, benchmark_model, name, value, spec):
        with pytest.raises(DomainError) as expected:
            spec(value)
        with pytest.raises(DomainError) as raised:
            region_map(
                benchmark_model, 0.25, 0.0, plane=(name, "lambda1"),
                x_values=[value], y_values=[0.6],
            )
        assert str(raised.value) == str(expected.value)

    def test_weight_axis_error_names_the_first_value(self, benchmark_model):
        # the axis is checked at its ends, so the message holds one value
        with pytest.raises(DomainError, match=r"got -1\.0$"):
            region_map(
                benchmark_model, 0.25, 0.0, plane=("lambda1", "lambda2"),
                x_values=np.linspace(-1.0, 2.0, 30), y_values=[0.0, 1.0],
            )

    def test_gamma_once_per_distinct_exponent(self, benchmark_model, monkeypatch):
        # alpha only scales the prefactors: each of the three long-time
        # exponents needs one Gamma for the whole 30x30 grid
        calls = []
        real = math.gamma

        def counted(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(math, "gamma", counted)
        region_map(
            benchmark_model, 0.25, 0.0, plane=("alpha", "lambda1"),
            x_values=np.linspace(1e-5, 0.02, 30), y_values=np.linspace(0.02, 0.98, 30),
        )
        assert 0 < len(calls) <= 3

    def test_ohmic_axis_value_exits_0(self, tmp_path, capsys):
        # mu = 0 is served: its column is all loss, with ratio 0
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "alpha = 0.0025\ngamma = 0.05\nmu = 0.01\nnu = 0.05\nlambda1 = 0.25\nlambda2 = 0\n",
            encoding="utf-8",
        )
        code = main(
            ["region", "--config", str(path), "--plane", "mu,lambda1",
             "--x-range", "0:0.5:3", "--y-range", "0.1:0.9:3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row[0] for row in payload["labels"]] == ["-", "-", "-"]
        assert [row[0] for row in payload["gain_ratio"]] == [0.0, 0.0, 0.0]

    def test_refined_map_across_the_ohmic_point(self, benchmark_model):
        # mu in [-0.5, 0.5]: every cell with mu <= 0 is loss with ratio 0, and
        # each '-' to '+' edge across mu = 0 gets its crossing inside the edge
        plane, xs, ys = ("mu", "alpha"), np.linspace(-0.5, 0.5, 11), [1e-3, 2.5e-3, 4e-3]
        result = region_map(
            benchmark_model, 0.25, 0.0, plane=plane, x_values=xs, y_values=ys, refine_boundary=True
        )
        for labels, gains in zip(result.labels, result.gain):
            assert labels[:6] == ["-"] * 6 and gains[:6] == [0.0] * 6
        crossing = [iy for iy, labels in enumerate(result.labels) if labels[6] == "+"]
        assert crossing
        for iy in crossing:
            inside = [bx for bx, by in result.boundary_points if by == ys[iy] and 0.0 < bx < xs[6]]
            assert len(inside) == 1
        self.assert_cells_equal_scalar_gain_ratio(result, benchmark_model, plane, xs, ys)
        _assert_boundary_near(result, benchmark_model, plane, xs, ys, 1e-4)

    def test_overflowing_cell_exits_2_with_one_line(self, tmp_path, capsys):
        # Gamma(mu) overflows in the last column: one short diagnostic
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "alpha = 0.0025\ngamma = 0.05\nmu = 0.01\nnu = 0.05\nlambda1 = 0.25\nlambda2 = 0\n",
            encoding="utf-8",
        )
        code = main(
            ["region", "--config", str(path), "--plane", "mu,alpha",
             "--x-range", "0.5:200:30", "--y-range", "0.001:0.01:30"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err
        assert err.count("\n") == 1 and len(err) < 200

    def test_evaluations_do_not_grow_with_crossings(self, benchmark_model, ratio_budget):
        # one grid evaluation plus one per lockstep bisection round, however
        # many edges cross
        resolution = 1e-4
        result = region_map(
            benchmark_model, 0.25, 0.0, plane=("alpha", "lambda1"),
            x_values=np.linspace(1e-5, 0.02, 30), y_values=np.linspace(0.02, 0.98, 30),
            refine_boundary=True, boundary_resolution=resolution,
        )
        bound = 1 + 2 + math.ceil(math.log2(1.0 / resolution))
        assert len(result.boundary_points) > 2 * bound
        assert len(ratio_budget) <= bound


class TestFindExtremum:
    def test_flat_series_has_none(self, benchmark_model):
        series = distance_series(
            benchmark_model, 0.3, 0.3, grid=TimeGrid("log", 1e-2, 1e2, 30)
        )
        result = find_extremum(series)
        assert result.kind == "none"

    def test_monotone_series_has_none(self):
        # pure decay without displacement: D(t) falls monotonically
        model = ModelSpec(
            epsilon=1.0,
            bath=BathSpec(alpha=0.2, mu=0.8, omega_c=1.0),
            displacement=DisplacementSpec(gamma_coef=0.0, nu=0.5),
        )
        series = distance_series(model, 0.9, 0.1, grid=TimeGrid("log", 1e-2, 1e3, 60))
        assert find_extremum(series).kind == "none"

    def test_benchmark_dip(self, benchmark_model):
        series = distance_series(benchmark_model, 0.25, 0.0)
        result = find_extremum(series)
        assert result.kind == "minimum"
        assert type(result.value) is float
        assert result.value < 0.5 * min(series.distance[0], oracles.SCENARIO_D_INF)
        assert result.t == pytest.approx(oracles.SCENARIO_DIP_T, rel=1e-4)
        assert result.value == pytest.approx(oracles.SCENARIO_DIP_D, rel=1e-6)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_zoom_is_a_few_series_calls(self, benchmark_model, normalized):
        series = distance_series(benchmark_model, 0.25, 0.0, normalized=normalized)
        with _series_calls() as calls:
            result = find_extremum(series)
        names = [name for name, _, nested in calls if not nested]
        assert set(names) == {"plan"}
        # one zoom round, then the predicted window
        assert len(names) == 2
        # the value is the series' own distance at t, not a re-evaluation
        again = distance_series(
            benchmark_model, 0.25, 0.0, normalized=normalized,
            grid=TimeGrid("linear", 0.5 * result.t, result.t, 2),
        )
        assert again.distance[-1] == result.value

    @pytest.mark.parametrize("backend", ["closed_form", "quadrature"])
    def test_one_plan_whatever_the_round_count(self, benchmark_model, monkeypatch, backend):
        # the zoom rounds only evaluate the series' own plan: none is set up,
        # and no Gamma moment formed, for 1 to 3 rounds.  A series made by
        # dataclasses.replace carries no evaluator: one plan, and for the
        # closed form one set of Gamma moments (r and s kernels, s(0))
        plans, moments = [], []
        plan_init, moment = bath._ProfilePlan.__init__, numerics.gamma_moment
        monkeypatch.setattr(
            bath._ProfilePlan, "__init__", lambda *a: plans.append(a) or plan_init(*a))
        for module in (analysis, bath, numerics):
            monkeypatch.setattr(module, "gamma_moment", lambda *a: moments.append(a) or moment(*a))
        rounds = set()
        for grid in (TimeGrid("log", 1e-3, 1e4, 12), TimeGrid("log", 1.0, 1e4, 60),
                     TimeGrid("linear", 600.0, 760.0, 300), TimeGrid("linear", 678.0, 680.0, 200)):
            series = distance_series(benchmark_model, 0.25, 0.0, grid=grid, backend=backend)
            for made, want in ((series, (0, 0)), (replace(series), (1, 3))):
                del plans[:], moments[:]
                with _series_calls() as calls:
                    assert find_extremum(made).kind == "minimum"
                rounds.add(len(calls))
                assert len(plans) == want[0]
                assert len(moments) == (want[1] if backend == "closed_form" else want[0])
        assert len(rounds) > 1

    def test_replaced_series_zooms_its_own_model(self, benchmark_model, strong_model):
        # replace() drops the kept evaluator, so the zoom evaluates the new
        # scenario: a series with another model's distance zooms as that
        # model's own series does
        series, other = (distance_series(m, 0.25, 0.0) for m in (benchmark_model, strong_model))
        swapped = replace(series, model=strong_model, distance=other.distance)
        assert swapped._evaluate is None and series._evaluate is not None
        result = find_extremum(swapped)
        assert result.kind == "minimum"
        assert result == find_extremum(other) != find_extremum(series)

    def test_refines_with_the_series_settings(self, benchmark_model):
        tolerances = QuadratureSettings(abs_tol=1e-9, rel_tol=1e-7)
        series = distance_series(
            benchmark_model, 0.25, 0.0, grid=TimeGrid("log", 10.0, 1e4, 40),
            backend="quadrature", settings=tolerances,
        )
        with _series_calls() as calls:
            result = find_extremum(series)
        assert result.kind == "minimum"
        assert calls and all(received is tolerances for _, received, _ in calls)
        assert {name for name, _, nested in calls if not nested} == {"plan"}
        assert series.settings is tolerances
        assert result.t == pytest.approx(oracles.SCENARIO_DIP_T, rel=1e-3)

    @pytest.mark.parametrize("omega_c", [1e-9, 1e-12])
    def test_tiny_cutoff_terminates(self, series_budget, omega_c):
        # the dip lies at t ~ 50 / omega_c, where one ulp of t exceeds 1e-6
        series = distance_series(_benchmark_with_cutoff(omega_c), 0.25, 0.0)
        result = find_extremum(series)
        assert result.kind == "minimum"
        assert 20.0 < result.t * omega_c < 100.0
        assert len(series_budget) <= 20

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(log_omega_c=st.floats(-12.0, 3.0))
    def test_zoom_stays_in_the_bracket_and_improves(self, log_omega_c):
        series = distance_series(_benchmark_with_cutoff(10.0**log_omega_c), 0.25, 0.0)
        with _series_calls():
            result = find_extremum(series)
        d = series.distance
        assert result.kind in ("minimum", "maximum")
        sign = 1.0 if result.kind == "minimum" else -1.0
        i = 1 + int(np.argmin(sign * d[1:-1]))
        assert series.times[i - 1] <= result.t <= series.times[i + 1]
        assert sign * result.value <= sign * d[i] + 1e-12 * abs(d[i])

    @pytest.mark.parametrize(
        "distance,kind",
        [([1.0, 0.2, 1.0, 1.5, 1.0], "minimum"), ([1.0, 0.8, 1.0, 1.5, 1.0], "maximum"),
         ([1.0, 0.5, 1.0, 1.5, 1.0], "minimum")],
        ids=["deeper-minimum", "higher-maximum", "equal-excursions"],
    )
    def test_larger_excursion_wins(self, benchmark_model, distance, kind):
        # an interior minimum and an interior maximum: the one further past
        # the series' ends wins, and equal excursions give the minimum
        series = distance_series(benchmark_model, 0.25, 0.0, grid=TimeGrid("linear", 1.0, 5.0, 5))
        result = find_extremum(replace(series, distance=np.array(distance)))
        assert result.kind == kind
        i = 1 if kind == "minimum" else 3
        assert series.times[i - 1] <= result.t <= series.times[i + 1]

    def test_short_series_rejected(self, benchmark_model):
        series = distance_series(
            benchmark_model, 0.25, 0.0, grid=TimeGrid("linear", 0.0, 1.0, 2)
        )
        with pytest.raises(DomainError):
            find_extremum(series)


def _series_scenarios(n, seed):
    """(model, lambda1, lambda2, normalized) as the series benchmark draws its
    scenarios: weak to moderate coupling, mu in [0, 1]."""
    rng = np.random.default_rng(seed)
    scenarios = []
    for k in range(n):
        alpha, gamma_coef = 10.0 ** rng.uniform([-3.5, -2.0], [-1.5, -0.5])
        mu, nu, epsilon, lambda1, lambda2 = rng.uniform([0, 0.02, 0, 0, 0], [1, 1, 2, 1, 1])
        model = ModelSpec(epsilon, BathSpec(alpha, mu), DisplacementSpec(gamma_coef, nu))
        scenarios.append((model, lambda1, lambda2, k % 2 == 1))
    return scenarios


def _zoom_reference(series):
    """oracles.zoom_extremum on a series, each round a distance_series call."""
    def distance(times):
        grid = TimeGrid("linear", times[0], times[-1], len(times))
        return distance_series(
            series.model, series.lambda1, series.lambda2, series.amplitudes, grid,
            series.backend, series.settings, series.normalized,
        ).distance

    return oracles.zoom_extremum(series.times, series.distance, distance)


def _assert_extremum_contract(series, result):
    """What every search must give: the reference's kind, t between the
    neighbours of the series' best point, the series' own distance at t to
    the bit, and a value no worse than the reference's by more than 1e-12."""
    kind, _, value = _zoom_reference(series)
    assert result.kind == kind
    if kind == "none":
        return
    sign = 1.0 if kind == "minimum" else -1.0
    i = 1 + int(np.argmin(sign * series.distance[1:-1]))
    assert series.times[i - 1] <= result.t <= series.times[i + 1]
    again = distance_series(
        series.model, series.lambda1, series.lambda2, series.amplitudes,
        TimeGrid("linear", 0.5 * result.t, result.t, 2), series.backend, series.settings,
        series.normalized,
    )
    assert again.distance[-1] == result.value
    assert sign * (result.value - value) <= 1e-12


class TestExtremumPrediction:
    """The last zoom window comes from a parabola through the best point and
    its neighbours; it is kept only when its best point is interior and no
    worse than the best so far, so a prediction costs calls, never results."""

    _SCENARIOS = _series_scenarios(120, seed=23)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        index=st.integers(0, len(_SCENARIOS) - 1),
        points=st.sampled_from([57, 150, 400]),
        quadrature=st.integers(0, 9),
    )
    def test_agrees_with_the_reference_zoom(self, index, points, quadrature):
        model, lambda1, lambda2, normalized = self._SCENARIOS[index]
        if quadrature == 0:  # one draw in ten, on a short grid
            kwargs = {"backend": "quadrature", "grid": TimeGrid("log", 1e-1, 1e3, 9)}
        else:
            kwargs = {"grid": TimeGrid("log", 1e-3, 1e4, points)}
        series = distance_series(model, lambda1, lambda2, normalized=normalized, **kwargs)
        with _series_calls():
            _assert_extremum_contract(series, find_extremum(series))

    @pytest.mark.parametrize("fault", ["none", "off", "near", "nan"])
    def test_a_missed_prediction_costs_calls_not_results(self, monkeypatch, fault):
        real = analysis._vertex

        def predicted(times, f, i):
            t_v = real(times, f, i)
            if t_v is None:
                return None
            return {"none": None, "off": t_v * (1.0 + 2.0**-19), "near": t_v * (1.0 + 2.0**-25),
                    "nan": math.nan}[fault]

        monkeypatch.setattr(analysis, "_vertex", predicted)
        extra = 0
        for model, lambda1, lambda2, normalized in self._SCENARIOS[:40]:
            series = distance_series(model, lambda1, lambda2, normalized=normalized)
            with _series_calls() as calls:
                result = find_extremum(series)
            _assert_extremum_contract(series, result)
            extra += max(len(calls) - 2, 0) if result.kind != "none" else 0
        # a window that misses is one call more; without one the zoom narrows 128x a round
        assert extra > 0 if fault != "near" else extra == 0

    def test_a_window_never_worsens_the_best(self, benchmark_model):
        # a series whose own values lie below its scenario's keeps its grid
        # point: every window has an interior best point, but a worse one
        series = distance_series(benchmark_model, 0.25, 0.0)
        halved = replace(series, distance=0.5 * series.distance)
        i = int(np.argmin(halved.distance))
        with _series_calls() as calls:
            result = find_extremum(halved)
        assert (result.t, result.value) == (series.times[i], halved.distance[i])
        assert len(calls) > 2

    def test_two_calls_on_benchmark_scenarios(self):
        counts = []
        for model, lambda1, lambda2, normalized in _series_scenarios(300, seed=1):
            series = distance_series(model, lambda1, lambda2, normalized=normalized)
            with _series_calls() as calls:
                if find_extremum(series).kind != "none":
                    counts.append(len(calls))
        assert len(counts) >= 60
        assert counts.count(2) >= 0.95 * len(counts)


class TestSeriesBitIdentity:
    """distance_series and find_extremum shortcut the public per-function
    route; these pin them to it, and to earlier results, bit for bit."""

    @staticmethod
    def _bits(x):
        return np.asarray(x, dtype=float).view(np.uint64).tolist()

    @pytest.mark.parametrize("backend", ["closed_form", "quadrature"])
    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize(
        "bath", [BathSpec(0.0025, 0.01, 1.0), BathSpec(0.003, 0.0, 40.0), BathSpec(0.02, 0.7, 0.3)]
    )
    def test_columns_equal_the_public_route(self, backend, normalized, bath):
        model = ModelSpec(0.7, bath, DisplacementSpec(0.05, 0.3))
        amps = QubitAmplitudes(0.6, 0.8j)
        grid = TimeGrid("log", 1e-3, 1e3, 40 if backend == "closed_form" else 5)
        series = distance_series(
            model, 0.8, 0.15, amplitudes=amps, grid=grid, backend=backend, normalized=normalized
        )
        times = grid.times()
        profile = profile_at(model, times, backend=backend)
        overlap = ground_coherent_overlap(model.displacement, bath.omega_c)
        bscale = amps.coherence_scale
        dist = distance_same_amplitudes(pair_weights(0.8, 0.15, overlap), profile, bscale)
        if normalized:
            dist = dist / bscale
        expected = [times, dist, profile.r, profile.s, profile.phi] + [
            np.abs(unphased_coherence_factor(InitialStateSpec(amps, lam), profile, overlap))
            for lam in (0.8, 0.15)
        ]
        got = [series.times, series.distance, series.r, series.s, series.phi,
               series.abs_a1, series.abs_a2]
        for want, have in zip(expected, got):
            assert self._bits(have) == self._bits(want)
        if backend == "closed_form":
            kernel = decay_kernel(KernelArgs(bath.alpha, bath.mu, bath.omega_c, times))
            assert self._bits(series.r) == self._bits(4.0 * kernel)

    # (kind, t, value) as float.hex, and the triple recorded when a zoom round
    # took 33 times (6 rounds on the default grid; then 4 of 129; now one of
    # 257 and the predicted window): the kind must stay and the value may
    # only improve
    @pytest.mark.parametrize(
        "model, lambdas, kwargs, expected, earlier",
        [
            (
                ModelSpec(1.0, BathSpec(0.0025, 0.01, 1.0), DisplacementSpec(0.05, 0.05)),
                (0.25, 0.0), {},
                ("minimum", "0x1.53f0696e98476p+9", "0x1.4abf7c4726d36p-9"),
                ("minimum", "0x1.53f06993b238ep+9", "0x1.4abf7c4726d37p-9"),
            ),
            (
                ModelSpec(0.5, BathSpec(0.0025, 0.0, 1e3), DisplacementSpec(0.05, 0.05)),
                (0.25, 0.0), {"amplitudes": QubitAmplitudes(0.6, 0.8), "normalized": True},
                ("minimum", "0x1.841ddf40540e4p+1", "0x1.57a4c6131a996p-8"),
                ("minimum", "0x1.841ddf638731bp+1", "0x1.57a4c6131a996p-8"),
            ),
            (
                ModelSpec(1.0, BathSpec(0.027, 0.33, 1.0), DisplacementSpec(0.018, 0.92)),
                (0.89, 0.7), {"normalized": True},
                ("maximum", "0x1.3a85749aa7ebdp+8", "0x1.d44188947f98fp-8"),
                ("maximum", "0x1.3a85784fde970p+8", "0x1.d44188947f985p-8"),
            ),
        ],
    )
    def test_extremum_is_pinned(self, model, lambdas, kwargs, expected, earlier):
        result = find_extremum(distance_series(model, *lambdas, **kwargs))
        assert (result.kind, result.t.hex(), result.value.hex()) == expected
        kind, _, value = earlier
        assert result.kind == kind
        sign = 1.0 if kind == "minimum" else -1.0
        assert sign * result.value <= sign * float.fromhex(value)


# Edge values of every float input: zeros, infinities, nan, the ends of the
# double range and exponents around Gamma's overflow at ~171.62.
_EDGES = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, 171.5, 171.7, 343.3, 1.0
)
_WILD = st.one_of(st.sampled_from(_EDGES), st.floats())
# a valid scenario (mu in (-1, 0.5], so ohmic and sub-ohmic baths too) with up
# to two of its seven inputs replaced by wild ones
_SCENARIO = ("alpha", "mu", "omega_c", "gamma", "nu", "lambda1", "lambda2")
_VALUES = st.builds(
    lambda valid, wild: {**valid, **wild},
    st.fixed_dictionaries({
        name: st.floats(-1.0, 0.5, exclude_min=True) if name == "mu" else st.floats(1e-3, 0.5)
        for name in _SCENARIO
    }),
    st.dictionaries(st.sampled_from(_SCENARIO), _WILD, max_size=2),
)
_AXIS = st.one_of(
    st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=3),
    st.lists(st.one_of(st.floats(1e-3, 1.0), _WILD), min_size=3, max_size=3),
)


def _is_documented_ratio(value) -> bool:
    """None (undefined), +inf (only D(0) vanishes) or a finite ratio >= 0."""
    return value is None or (type(value) is float and value >= 0.0)


class TestLibraryProperty:
    """Every input gets a documented result or a QDephaseError, nothing else
    (a RuntimeWarning already fails the suite)."""

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(
        values=_VALUES,
        plane=st.sampled_from(ORDERED_PLANES),
        xs=_AXIS,
        ys=_AXIS,
    )
    def test_gain_ratio_region_map_and_lambda_c(self, values, plane, xs, ys):
        try:
            model = ModelSpec(
                epsilon=1.0,
                bath=BathSpec(values["alpha"], values["mu"], values["omega_c"]),
                displacement=DisplacementSpec(values["gamma"], values["nu"]),
            )
        except QDephaseError:
            return
        l1, l2 = values["lambda1"], values["lambda2"]
        with contextlib.suppress(QDephaseError):
            assert _is_documented_ratio(gain_ratio(model, l1, l2))
        with contextlib.suppress(QDephaseError):
            result = region_map(
                model, l1, l2, plane=plane, x_values=xs, y_values=ys, refine_boundary=True
            )
            for label_row, gain_row in zip(result.labels, result.gain):
                for label, gain in zip(label_row, gain_row):
                    if gain is None:  # undefined ('0') or infinite ('+')
                        assert label in ("0", "+")
                        continue
                    assert type(gain) is float and 0.0 <= gain < math.inf
                    assert label == ("+" if gain > 1 + 1e-9 else "-" if gain < 1 - 1e-9 else "0")
            for bx, by in result.boundary_points:
                assert min(xs) <= bx <= max(xs) and min(ys) <= by <= max(ys)
        with contextlib.suppress(QDephaseError):
            lam_c = find_lambda_c(model, l2)
            assert 0.01 <= lam_c <= 0.99

    def test_refined_region_maps_over_wide_planes(self):
        # a fixed sample of refined maps: each parameter over a wide domain
        # (a few values outside it), axes in either order and direction,
        # 2-30 points, three resolutions
        rng = np.random.default_rng(18)
        draw = {
            "alpha": lambda: 10.0 ** rng.uniform(-8.0, 3.0),
            "gamma": lambda: 10.0 ** rng.uniform(-16.0, 1.0) * (rng.random() > 0.05),
            "mu": lambda: rng.uniform(-0.2, 4.0),
            "nu": lambda: 10.0 ** rng.uniform(-4.0, 1.5),
            "lambda1": lambda: rng.uniform(-0.02, 1.02),
            "lambda2": lambda: rng.uniform(-0.02, 1.02),
        }
        crossed = 0
        for _ in range(1000):
            v = {name: f() for name, f in draw.items()}
            plane = ORDERED_PLANES[rng.integers(len(ORDERED_PLANES))]
            xs, ys = (np.linspace(draw[n](), draw[n](), rng.integers(2, 31)) for n in plane)
            try:
                model = ModelSpec(
                    epsilon=1.0,
                    bath=BathSpec(v["alpha"], v["mu"], 10.0 ** rng.uniform(-2.0, 2.0)),
                    displacement=DisplacementSpec(v["gamma"], v["nu"]),
                )
                result = region_map(
                    model, v["lambda1"], v["lambda2"], plane=plane, x_values=xs, y_values=ys,
                    refine_boundary=True, boundary_resolution=rng.choice([1e-4, 1e-2, 0.0]),
                )
            except QDephaseError:
                continue
            crossed += bool(result.boundary_points)
            for bx, by in result.boundary_points:
                assert xs.min() <= bx <= xs.max() and ys.min() <= by <= ys.max()
        assert crossed >= 100


# Edge values of a time: both zeros, subnormals, the largest time the closed
# forms accept (MAX_SCALED_TIME / max(1, omega_c)) and the float just past it
_TIME_EDGES = (0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-3, 1.0, 1e4, 1e150,
               math.nextafter(1e150, math.inf), -1.0, math.nan, math.inf, -math.inf)
# Edge values of mu: next to the pole of Gamma at -1, the two closed-form
# braces' seam at -1/2, both sides of the small-exponent seam at 1e-12, 0,
# and exponents near 1e-7, where the p -> 0 limits would miss the tolerance
_MU_EDGES = (math.nextafter(-1.0, 0.0), -0.999, -0.5, -1e-7, -5e-8, -2e-12, -5e-13, 0.0,
             5e-13, 2e-12, 5e-8)
_MODELS = st.builds(
    lambda alpha, mu, log_omega_c, gamma, nu: ModelSpec(
        1.0, BathSpec(alpha, mu, 10.0**log_omega_c), DisplacementSpec(gamma, nu)
    ),
    st.floats(1e-4, 0.5),
    st.one_of(st.sampled_from(_MU_EDGES), st.floats(-1.0, 3.0, exclude_min=True)),
    st.floats(-6.0, 6.0),
    st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
    st.floats(1e-3, 3.0),
)


class TestLibraryPropertyOverTimes:
    """Closed-form profiles, series and extrema at any time or grid: a finite,
    physical result, or a QDephaseError exactly where a time is outside the
    domain 0 <= max(1, omega_c) * t <= 1e150.  The quadrature backend is left
    out (see ROADMAP, item 4)."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(model=_MODELS, data=st.data())
    def test_profile_at_any_times(self, model, data):
        bound = 1e150 / max(1.0, model.bath.omega_c)
        element = st.one_of(
            st.sampled_from(_TIME_EDGES + (bound, math.nextafter(bound, math.inf))),
            st.floats(0.0, bound),
            st.floats(),
        )
        t = data.draw(st.one_of(element, st.lists(element, min_size=1, max_size=6)))
        times = np.asarray(t, dtype=float)
        inside = bool(np.all((times >= 0.0) & (times <= bound)))
        try:
            profile = profile_at(model, t)
        except QDephaseError:
            assert not inside
            return
        assert inside
        s0 = profile_at(model, 0.0).s
        for field in (profile.r, profile.s, profile.phi):
            assert np.shape(field) == times.shape and np.all(np.isfinite(field))
        assert np.all(profile.r >= 0.0) and np.all(profile.s >= s0)
        assert np.all(np.asarray(profile.phi)[times == 0.0] == 0.0)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        # the benchmark scenario (a dip near t = 50 / omega_c) or any model
        model=st.one_of(
            st.floats(-1.0, 1.0).map(lambda e: _benchmark_with_cutoff(10.0**e)), _MODELS
        ),
        # each field valid (twice the weight) or wild
        kind=st.one_of(st.just("log"), st.just("log"), st.sampled_from(["linear", "cubic"])),
        t_min=st.one_of(
            st.floats(1e-4, 1.0), st.floats(1e-4, 1.0), st.sampled_from(_TIME_EDGES), st.floats()
        ),
        t_max=st.one_of(
            st.floats(10.0, 1e4), st.floats(10.0, 1e4), st.sampled_from(_TIME_EDGES), st.floats()
        ),
        points=st.one_of(
            st.integers(3, 60), st.integers(3, 60),
            st.sampled_from([-1, 0, 1, 2, 3.5, math.nan, True]),
        ),
        normalized=st.booleans(),
    )
    def test_series_and_extremum_on_any_grid(
        self, model, kind, t_min, t_max, points, normalized
    ):
        try:
            grid = TimeGrid(kind, t_min, t_max, points)
            series = distance_series(model, 0.25, 0.0, grid=grid, normalized=normalized)
        except QDephaseError:
            return
        assert series.times.tolist() == grid.times().tolist()
        assert np.all(np.isfinite(series.distance)) and np.all(series.distance >= 0.0)
        assert np.all(series.abs_a1 <= 1.0 + 1e-9) and np.all(series.abs_a2 <= 1.0 + 1e-9)
        with _series_calls():
            try:
                result = find_extremum(series)
            except QDephaseError:
                return
        if result.kind != "none":
            assert t_min <= result.t <= t_max
            assert math.isfinite(result.value) and result.value >= 0.0
