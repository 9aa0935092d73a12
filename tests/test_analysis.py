"""Distance series, gain ratios, critical correlation, and region maps."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from qdephase import analysis
from qdephase.analysis import PLANE_PARAMETERS
from qdephase.cli import main
from qdephase import (
    BathSpec,
    DisplacementSpec,
    DomainError,
    ModelSpec,
    NoBracketError,
    QubitAmplitudes,
    TimeGrid,
    distance_series,
    find_extremum,
    find_lambda_c,
    gain_ratio,
    profile_limit,
    region_map,
)


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

    gain_ratio, and so find_lambda_c, makes one call per ratio; region_map
    one for the grid and one per bisection round.  A bisection that stops
    making progress then fails the test instead of hanging it.
    """
    calls = []
    real = analysis._gain_ratios

    def counted(**kwargs):
        calls.append(kwargs)
        if len(calls) > 500:
            raise AssertionError("more than 500 gain-ratio evaluations")
        return real(**kwargs)

    monkeypatch.setattr(analysis, "_gain_ratios", counted)
    return calls


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

    def test_requires_positive_mu(self, benchmark_model):
        ohmic = replace(benchmark_model, bath=replace(benchmark_model.bath, mu=0.0))
        with pytest.raises(DomainError):
            gain_ratio(ohmic, 0.25, 0.0)


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
        lam_c = find_lambda_c(benchmark_model, fixed, tol=1e-300, vary=vary)
        coarse = find_lambda_c(benchmark_model, fixed, tol=1e-6, vary=vary)
        assert lam_c == pytest.approx(coarse, abs=1e-6)
        assert len(ratio_budget) < 200

    @pytest.mark.parametrize("vary", ["lambda1", "lambda2"])
    def test_degenerate_midpoint_is_stepped_past(self, vary):
        # the first midpoint of (0.01, 0.99) equals the fixed weight 0.5,
        # where the ratio is undefined
        model = ModelSpec(
            epsilon=1.0,
            bath=BathSpec(alpha=0.0025, mu=0.01, omega_c=1.0),
            displacement=DisplacementSpec(gamma_coef=0.03, nu=0.05),
        )
        assert 0.5 * (0.01 + 0.99) == 0.5
        tol = 1e-4
        lam_c = find_lambda_c(model, 0.5, bracket=(0.01, 0.99), tol=tol, vary=vary)
        # the ratio is symmetric in the two weights
        below = gain_ratio(model, 0.5, lam_c - 2 * tol)
        above = gain_ratio(model, 0.5, lam_c + 2 * tol)
        assert below > 1.0 > above

    def test_undefined_ratio_at_bracket_end_is_no_bracket(self, benchmark_model):
        with pytest.raises(NoBracketError):
            find_lambda_c(benchmark_model, 0.01, bracket=(0.01, 0.99))

    def test_unknown_vary_rejected(self, benchmark_model):
        with pytest.raises(DomainError):
            find_lambda_c(benchmark_model, 0.0, vary="alpha")


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
        assert len(ratio_budget) < 200

    def test_unknown_plane_parameter(self, benchmark_model):
        with pytest.raises(DomainError):
            region_map(
                benchmark_model, 0.25, 0.0,
                plane=("alpha", "beta"), x_values=[0.1], y_values=[0.1],
            )


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
    then y-edges column-major; an undefined midpoint drops the edge."""

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
                    points.append((v, yv))
    for ix, xv in enumerate(xs):
        for iy in range(len(ys) - 1):
            if {labels[iy][ix], labels[iy + 1][ix]} == {"+", "-"}:
                v = crossing(xv, ys[iy], ys[iy + 1], "y", y_res)
                if v is not None:
                    points.append((xv, v))
    return points


class TestRegionMapArrayPath:
    """region_map evaluates the plane in one array pass; every result must
    equal, bit for bit, what the scalar gain_ratio gives cell by cell."""

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
        want = _scalar_boundary(benchmark_model, 0.25, 0.0, plane, xs, ys, result.labels, 1e-4)
        assert want
        assert result.boundary_points == want

    def test_boundary_at_zero_resolution_equals_scalar_bisection(self, benchmark_model):
        plane = ("lambda1", "lambda2")
        xs = np.linspace(0.02, 0.98, 5).tolist()
        ys = np.linspace(0.0, 0.98, 5).tolist()
        result = region_map(
            benchmark_model, 0.25, 0.0, plane=plane, x_values=xs, y_values=ys,
            refine_boundary=True, boundary_resolution=0.0,
        )
        want = _scalar_boundary(benchmark_model, 0.25, 0.0, plane, xs, ys, result.labels, 0.0)
        assert want
        assert result.boundary_points == want

    def test_undefined_midpoint_drops_the_edge(self, benchmark_model):
        # the first midpoint of the only crossing edge is lambda1 = lambda2
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

    @pytest.mark.parametrize(
        "plane,x_values",
        [
            (("mu", "lambda1"), [0.5, 0.0]),
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

    def test_out_of_domain_axis_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "alpha = 0.0025\ngamma = 0.05\nmu = 0.01\nnu = 0.05\nlambda1 = 0.25\nlambda2 = 0\n",
            encoding="utf-8",
        )
        code = main(
            ["region", "--config", str(path), "--plane", "mu,lambda1",
             "--x-range", "0:0.5:3", "--y-range", "0.1:0.9:3"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

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
        assert result.value < 0.5 * min(series.distance[0], oracles.SCENARIO_D_INF)
        assert result.t == pytest.approx(oracles.SCENARIO_DIP_T, rel=1e-4)
        assert result.value == pytest.approx(oracles.SCENARIO_DIP_D, rel=1e-6)

    def test_short_series_rejected(self, benchmark_model):
        series = distance_series(
            benchmark_model, 0.25, 0.0, grid=TimeGrid("linear", 0.0, 1.0, 2)
        )
        with pytest.raises(DomainError):
            find_extremum(series)
