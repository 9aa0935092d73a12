"""Gamma function, decay kernel, and quadrature primitives."""

import io
import math
import re

import numpy as np
import pytest

import fuzz_quadrature
import oracles
from qdephase import (
    BathSpec,
    ConvergenceError,
    DisplacementSpec,
    DomainError,
    KernelArgs,
    ModelSpec,
    QuadratureSettings,
    decay_kernel,
    kernel_by_quadrature,
    numerics,
    profile_at,
    sine_moment,
    total_moment,
)
from qdephase.numerics import SMALL_EXPONENT_LIMIT, gamma_moment


def gamma(x):
    """Gamma through gamma_moment(1, x, 1), which equals math.gamma(x) bit for bit."""
    return gamma_moment(1.0, x, 1.0)


class TestGamma:
    def test_gamma_one(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_gamma_half_is_sqrt_pi(self):
        assert gamma(0.5) == pytest.approx(oracles.SQRT_PI, rel=1e-13)

    def test_small_argument_against_series_oracle(self):
        # recurrence Gamma(0.05) = Gamma(1.05)/0.05 with the series value
        assert oracles.series_gamma(1.05) == pytest.approx(oracles.GAMMA_1_05, rel=1e-13)
        assert gamma(0.05) == pytest.approx(oracles.GAMMA_1_05 / 0.05, rel=1e-13)
        assert gamma(0.05) == pytest.approx(oracles.GAMMA_0_05, rel=1e-13)

    @pytest.mark.parametrize("x", [0.01, 0.03, 0.05])
    def test_frozen_values(self, x):
        frozen = {0.01: oracles.GAMMA_0_01, 0.03: oracles.GAMMA_0_03, 0.05: oracles.GAMMA_0_05}
        assert gamma(x) == pytest.approx(frozen[x], rel=1e-13)

    def test_accuracy_against_series_over_domain(self):
        rng = np.random.default_rng(101)
        for x in np.concatenate([rng.uniform(1e-3, 50.0, 300), [1e-4, 0.5, 1.0, 2.0, 50.0]]):
            assert gamma(float(x)) == pytest.approx(oracles.series_gamma(float(x)), rel=1e-13)

    def test_recurrence_property(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.01, 10.0, 1000):
            lhs = gamma(float(x) + 1.0)
            rhs = float(x) * gamma(float(x))
            assert abs(lhs - rhs) <= 1e-12 * lhs

    def test_equals_math_gamma_bitwise(self):
        for x in np.random.default_rng(3).uniform(1e-3, 171.0, 500):
            assert gamma(float(x)) == math.gamma(float(x))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 172.0])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            gamma(bad)

    @pytest.mark.parametrize("array", [False, True])
    @pytest.mark.parametrize("pole", [0.0, -1.0])
    def test_pole_is_a_domain_error_on_both_paths(self, pole, array):
        # the float path raised a raw 'math domain error' here, the array path a DomainError
        p = np.array([0.5, pole]) if array else pole
        with pytest.raises(DomainError, match=r"gamma\(" + re.escape(repr(pole))):
            gamma_moment(1.0, p, 1.0)


def _float_path(c, p, omega_c):
    """gamma_moment elementwise through its float path, in the broadcast shape."""
    c, p, omega_c = np.broadcast_arrays(c, p, omega_c)
    values = [gamma_moment(*map(float, abw)) for abw in zip(c.flat, p.flat, omega_c.flat)]
    return np.array(values).reshape(c.shape)


class TestGammaMoment:
    """The array path must give every element the bits of the float call."""

    rng = np.random.default_rng(29)
    C = rng.uniform(0.0, 3.0, 7)
    P = rng.uniform(1e-3, 40.0, 7)
    W = rng.uniform(0.05, 20.0, 7)

    @pytest.mark.parametrize(
        "c,p,omega_c",
        [
            (C, 0.37, 1.0),
            (C[np.newaxis, :], 2.5, 3.0),
            (C[:, np.newaxis], 0.05, 0.5),
            (C, P, W),
            (C[:, np.newaxis], P[np.newaxis, :], W[:, np.newaxis]),
            (0.25, P[:, np.newaxis], W[np.newaxis, :]),
            (np.float64(0.25), P, 2.0),
            # 0-d exponents against an array c: one float call for the whole array
            (C, np.float64(0.37), np.float64(1.5)),
            (C[:, np.newaxis], np.asarray(2.5), np.asarray(3.0)),
            (np.asarray(0.75), np.asarray(0.05), 0.5),
            # a zero c at p in (-1, 0), where Gamma(p) < 0, gives +0.0, not -0.0
            (np.array([0.0, 0.5, 0.0, 2.0]), -0.5, 2.0),
            (np.array([[0.0], [1.5]]), np.array([-0.5, -0.99, 0.3]), np.array([1.0, 4.0, 0.2])),
        ],
    )
    def test_array_equals_float_path_bitwise(self, c, p, omega_c):
        got = gamma_moment(c, p, omega_c)
        want = _float_path(c, p, omega_c)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_zero_prefactor_with_overflowing_gamma_is_zero(self):
        got = gamma_moment(np.array([0.0, 0.5]), np.array([200.0, 2.0]), 1.0)
        assert got.tolist() == [0.0, 0.5]
        assert gamma_moment(np.zeros((2, 3)), 200.0, 1.0).tolist() == [[0.0] * 3] * 2
        assert gamma_moment(0.0, 200.0, 1.0) == 0.0

    @pytest.mark.parametrize(
        "c,p,omega_c,message",
        [
            (np.array([1.0, 2.0, 3.0]), np.array([1.0, 200.0, 300.0]), 1.0,
             "2.0 * gamma(200.0) * 1.0**200.0 overflows a double"),
            (np.array([[1.0], [2.0]]), 3.0, np.array([1e300, 2.0]),
             "1.0 * gamma(3.0) * 1e+300**3.0 overflows a double"),
            (np.array([1e300, 0.5]), 171.5, 1.0,
             "1e+300 * gamma(171.5) * 1.0**171.5 overflows a double"),
            # the builtins raise at a pole or an overflow inside an array of exponents
            (np.ones(3), np.array([0.5, -1.0, 0.0]), 1.0,
             "1.0 * gamma(-1.0) * 1.0**-1.0 overflows a double"),
            (np.ones(3), np.array([2.0, 40.0, 0.0]), 1e10,
             "1.0 * gamma(40.0) * 10000000000.0**40.0 overflows a double"),
            (np.array([[0.0], [3.0]]), np.float64(180.0), np.array([1.0, 0.5]),
             "3.0 * gamma(180.0) * 1.0**180.0 overflows a double"),
            (np.array([0.0, 2.0]), np.asarray(-2.0), 1.0,
             "2.0 * gamma(-2.0) * 1.0**-2.0 overflows a double"),
        ],
    )
    def test_overflow_names_the_first_element(self, c, p, omega_c, message):
        with pytest.raises(DomainError) as raised:
            gamma_moment(c, p, omega_c)
        assert str(raised.value) == message


class TestDecayKernel:
    def test_zero_time_is_zero(self):
        for c in (0.0, 0.3, 1.0):
            assert decay_kernel(KernelArgs(c, 0.5, 1.0, 0.0)) == 0.0

    def test_reference_value_against_quadrature_oracle(self):
        oracle = oracles.quad_kernel(1.0, 0.5, 1.0, 1.0)
        assert oracle == pytest.approx(oracles.KERNEL_HALF_AT_1, rel=1e-10)
        assert decay_kernel(KernelArgs(1.0, 0.5, 1.0, 1.0)) == pytest.approx(oracle, rel=1e-10)

    def test_zero_exponent_limit(self):
        # Frullani-type limit (c/2) ln(1 + (omega_c t)^2)
        value = decay_kernel(KernelArgs(1.0, 0.0, 1.0, 1.0))
        assert value == pytest.approx(0.5 * math.log(2.0), rel=1e-14)

    def test_small_exponent_continuity(self):
        limit = 0.5 * math.log1p(4.0**2)
        value = decay_kernel(KernelArgs(1.0, 1e-4, 1.0, 4.0))
        assert value == pytest.approx(limit, rel=1e-3)

    def test_branches_agree_at_the_switch(self):
        p = SMALL_EXPONENT_LIMIT * 1.0001
        for t in (0.3, 1.0, 20.0):
            exact = decay_kernel(KernelArgs(1.0, p, 1.0, t))
            limit = 0.5 * math.log1p(t * t)
            assert exact == pytest.approx(limit, rel=1e-6)

    def test_monotone_in_time_for_small_exponents(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            c = 10.0 ** rng.uniform(-3, 0)
            p = rng.uniform(1e-3, 1.0)
            wc = rng.uniform(0.5, 2.0)
            times = np.linspace(0.0, 50.0, 200)
            values = [decay_kernel(KernelArgs(c, p, wc, float(t))) for t in times]
            assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))

    def test_long_time_saturation(self):
        # the approach to c*Gamma(p)*omega_c**p goes as (omega_c*t)**(-p),
        # so a 1e-4 check at t = 1e6 needs p >= 0.7 or so
        rng = np.random.default_rng(6)
        for _ in range(20):
            c = 10.0 ** rng.uniform(-3, 0)
            p = rng.uniform(0.7, 2.0)
            wc = rng.uniform(0.5, 2.0)
            limit = c * math.gamma(p) * wc**p
            value = decay_kernel(KernelArgs(c, p, wc, 1e6 / wc))
            assert value == pytest.approx(limit, rel=1e-4)

    # p in (-1, 0), all through the Gamma form: -2e-7 and -5e-8 lie on either
    # side of -SMALL_EXPONENT_LIMIT; -0.5 takes the limit if the seam tests p
    SUB_OHMIC = (-0.999, -0.9, -0.5, -0.1, -1e-3, -1e-5, -2e-7, -5e-8)

    @pytest.mark.parametrize("p", SUB_OHMIC)
    @pytest.mark.parametrize("wc", [0.5, 1.0, 2.0])
    def test_negative_exponents_match_quadrature(self, p, wc):
        t = np.geomspace(1e-3, 1e4, 400)
        args = KernelArgs(0.7, p, wc, t)
        closed, oracle = decay_kernel(args), kernel_by_quadrature(args)
        assert np.all(np.abs(closed - oracle) <= np.maximum(1e-8, 1e-6 * np.abs(oracle)))
        for i in (0, 133, 399):
            assert decay_kernel(KernelArgs(0.7, p, wc, float(t[i]))) == closed[i]

    @pytest.mark.parametrize("p", SUB_OHMIC)
    def test_negative_exponents_match_direct_quadrature(self, p):
        # scipy on the raw integrands, and the sine moment that phi is made of
        for wc, t in ((0.5, 0.3), (1.0, 2.0), (2.0, 9.0)):
            closed = decay_kernel(KernelArgs(0.7, p, wc, t))
            oracle = oracles.quad_kernel(0.7, p, wc, t)
            assert abs(closed - oracle) <= max(1e-8, 1e-6 * abs(oracle))
            setup = numerics._kernel_setup([(0.7, p)], wc)
            _, sine = numerics._closed_kernel(setup, numerics._time_terms(wc, t), sine=0)
            oracle = oracles.quad_sine(0.7, p, wc, t)
            assert abs(sine - oracle) <= max(1e-8, 1e-6 * abs(oracle))

    @pytest.mark.parametrize("p", [-9.9999e-8, -5e-8, -1e-11, 9.9999e-8, 5e-8, 1e-11])
    def test_negative_seam_holds_to_long_times(self, p):
        # the p -> 0 limits are off by ~|p| log(x) relative: at |p| just below
        # 1e-7 the sine moment's would miss the tolerance 1.9-fold at x = 2e8,
        # so on either side of zero only |p| < 1e-12 takes them
        t = np.geomspace(1e-3, 1e8, 200)
        args = KernelArgs(0.7, p, 2.0, t)
        setup = numerics._kernel_setup([(0.7, p)], 2.0, t.ndim)
        (closed,), sine = numerics._closed_kernel(setup, numerics._time_terms(2.0, t), sine=0)
        for got, want in ((closed, kernel_by_quadrature(args)), (sine, sine_moment(0.7, p, 2.0, t))):
            assert np.all(np.abs(got - want) <= np.maximum(1e-8, 1e-6 * np.abs(want)))

    @pytest.mark.parametrize("p", [-0.0, -1e-13, 1e-13])
    def test_negative_exponents_next_to_zero_take_the_limit(self, p):
        t = np.geomspace(1e-3, 1e8, 20)
        assert np.array_equal(decay_kernel(KernelArgs(1.0, p, 1.0, t)), 0.5 * np.log1p(t * t))

    @pytest.mark.parametrize("d", [1e-6, 1e-10, 1e-14, 2.0**-53])
    def test_exponents_next_to_minus_one(self, d):
        # Gamma(p) has a pole at -1 and the brace a zero; the kernel tends to
        # c (x atan(x) - log(1 + x^2)/2) / omega_c, with an O(d) correction
        p, wc = d - 1.0, 1.5
        t = np.geomspace(1e-3, 1e4, 50)
        x = wc * t
        closed = decay_kernel(KernelArgs(0.7, p, wc, t))
        oracle = kernel_by_quadrature(KernelArgs(0.7, p, wc, t))
        assert np.all(np.abs(closed - oracle) <= np.maximum(1e-8, 1e-6 * np.abs(oracle)))
        limit = 0.7 * (x * np.arctan(x) - 0.5 * np.log1p(x * x)) / wc
        assert closed == pytest.approx(limit, rel=10.0 * d * np.log(x.max()))
        # x**2 is subnormal here, where a cancelling brace can round below zero
        tiny = np.geomspace(1e-170, 1e-150, 200)
        assert np.all(decay_kernel(KernelArgs(0.7, p, wc, tiny)) >= 0.0)

    @pytest.mark.parametrize("p", [0.5, 0.0, -0.7])
    @pytest.mark.parametrize("array", ["c", "p", "omega_c", "t"])
    def test_any_argument_may_be_an_array(self, p, array):
        # each element as the call on its own floats, bit for bit
        args = {"c": 0.7, "p": p, "omega_c": 1.3, "t": 2.0}
        values = {"c": [0.0, 0.7, 3.0], "p": [p, 0.3, -0.2], "omega_c": [0.5, 1.3, 4.0],
                  "t": [0.0, 2.0, 1e3]}[array]
        whole = decay_kernel(KernelArgs(**{**args, array: np.array(values)}))
        for i, v in enumerate(values):
            assert whole[i] == decay_kernel(KernelArgs(**{**args, array: v}))

    def test_zero_time_is_positive_zero(self):
        for p in (-0.9, -0.3, 0.0, 0.5):
            assert math.copysign(1.0, decay_kernel(KernelArgs(0.7, p, 1.0, 0.0))) == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1.0, 0.5, 1e-3])
    @pytest.mark.parametrize("array", [False, True])
    def test_moment_near_the_double_range_is_accepted_for_p_up_to_one(self, p, array):
        # for 0 < p <= 1 the brace is at most 1: a moment of 1e308 stays finite
        # at every time, where a bound of 2 moments refused it
        c = 1e308 / math.gamma(p)
        times = np.array([1e3, 1e150])
        kernel = decay_kernel(KernelArgs(np.array([c, 1.0]) if array else c, p, 1.0, times[:, None]))
        brace = 1.0 - np.cos(p * np.arctan(times)) * (1.0 + times * times) ** (-0.5 * p)
        assert np.all(np.isfinite(kernel))
        assert kernel[:, 0] == pytest.approx(gamma_moment(c, p, 1.0) * brace, rel=1e-12)

    @pytest.mark.parametrize("array", [False, True])
    def test_moment_near_the_double_range_is_refused_for_p_above_one(self, array):
        # the brace of p = 2 nears 2 at late times: 2e308 overflows
        c = np.array([1e308, 1.0]) if array else 1e308
        with pytest.raises(DomainError, match="overflows a double"):
            decay_kernel(KernelArgs(c, 2.0, 1.0, 1e3))

    def test_exponent_below_minus_one_rejected(self):
        with pytest.raises(DomainError):
            KernelArgs(1.0, -1.5, 1.0, 1.0)

    @pytest.mark.parametrize("field,value", [("c", -1.0), ("omega_c", 0.0), ("t", -1.0)])
    def test_kernel_args_validation(self, field, value):
        kwargs = {"c": 1.0, "p": 0.5, "omega_c": 1.0, "t": 1.0, field: value}
        with pytest.raises(DomainError):
            KernelArgs(**kwargs)


class TestDomainMessages:
    """A refused array argument is named by its first bad element; a float
    argument is printed as it always was."""

    @pytest.mark.parametrize(
        "call,bad,message",
        [
            (lambda x: KernelArgs(x, 0.5, 1.0, 1.0), -2.0,
             "kernel prefactor c must be >= 0, got -2.0"),
            (lambda x: KernelArgs(1.0, x, 1.0, 1.0), -2.0,
             "kernel exponent p must be > -1, got -2.0"),
            (lambda x: KernelArgs(1.0, 0.5, x, 1.0), -2.0, "omega_c must be positive, got -2.0"),
            (lambda x: kernel_by_quadrature(KernelArgs(1.0, x, 1.0, 1.0)), 45.0,
             "quadrature exponent p must be <= 40, got p=45.0"),
            (lambda x: total_moment(1.0, x, 1.0), -0.5,
             "total moment diverges for p <= 0, got p=-0.5"),
        ],
    )
    @pytest.mark.parametrize("array", [False, True])
    def test_names_the_bad_element(self, call, bad, message, array):
        with pytest.raises(DomainError) as raised:
            call(np.array([1.0, bad, 2.0]) if array else bad)
        assert str(raised.value) == message


class TestKernelOracleEquivalence:
    def test_closed_form_matches_quadrature_on_random_grid(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for i in range(100):
            c = 10.0 ** rng.uniform(-4, 0)
            p = rng.uniform(1e-3, 2.0)
            wc = rng.uniform(0.5, 2.0)
            t = 0.0 if i % 20 == 0 else rng.uniform(0.0, 100.0)
            args = KernelArgs(c, p, wc, t)
            closed = decay_kernel(args)
            oracle = kernel_by_quadrature(args)
            err = abs(closed - oracle) / max(1e-8, 1e-6 * abs(closed))
            worst = max(worst, err)
        assert worst <= 1.0

    def test_agreement_at_extreme_times(self):
        for (c, p, t) in [(0.01, 0.01, 1e6), (1.0, 0.5, 1e6), (0.5, 1.7, 1e4), (1.0, 0.03, 1e5)]:
            args = KernelArgs(c, p, 1.0, t)
            closed = decay_kernel(args)
            oracle = kernel_by_quadrature(args)
            assert oracle == pytest.approx(closed, rel=1e-7)

    def test_quadrature_serves_negative_exponents(self):
        # ohmic point p = 0: the kernel is exactly (c/2) ln(1 + (wc t)^2)
        for t in (0.5, 3.0, 40.0):
            value = kernel_by_quadrature(KernelArgs(1.0, 0.0, 1.0, t))
            assert value == pytest.approx(0.5 * math.log1p(t * t), rel=1e-8)
        # p in (-1, 0): finite pointwise; direct and split routes agree
        for p in (-0.3, -0.7):
            near = kernel_by_quadrature(KernelArgs(1.0, p, 1.0, 3.9))
            far = kernel_by_quadrature(KernelArgs(1.0, p, 1.0, 4.1))
            assert far > near > 0.0
            direct = oracles.quad_kernel(1.0, p, 1.0, 4.1)
            assert far == pytest.approx(direct, rel=1e-7)


class TestMoments:
    def test_total_moment_against_series_gamma(self):
        for (c, p, wc) in [(1.0, 0.01, 1.0), (0.05, 0.05, 1.0), (0.3, 1.5, 2.0)]:
            expected = c * oracles.series_gamma(p) * wc**p
            assert total_moment(c, p, wc) == pytest.approx(expected, rel=1e-9)

    def test_total_moment_rejects_divergent_exponent(self):
        with pytest.raises(DomainError):
            total_moment(1.0, 0.0, 1.0)

    def test_sine_moment_against_direct_quadrature(self):
        for (c, p, t) in [(1.0, 0.03, 1.0), (0.5, 0.9, 2.5), (1.0, 1.4, 0.7)]:
            expected = oracles.quad_sine(c, p, 1.0, t)
            assert sine_moment(c, p, 1.0, t) == pytest.approx(expected, rel=1e-8)

    def test_sine_moment_zero_time(self):
        assert sine_moment(1.0, 0.5, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("p,wc", [(math.nan, 1.0), (0.5, -1.0), (0.5, 0.0), (0.5, math.inf)])
    def test_bad_exponent_or_cutoff_rejected(self, p, wc):
        with pytest.raises(DomainError):
            sine_moment(1.0, p, wc, 1.0)

    def test_quadrature_needs_no_gamma(self, monkeypatch):
        # the quadrature backend is the oracle of the gamma closed forms
        def no_gamma(*args):
            raise AssertionError("gamma evaluated")

        monkeypatch.setattr(math, "gamma", no_gamma)
        monkeypatch.setattr(numerics, "gamma_moment", no_gamma)
        model = ModelSpec(0.3, BathSpec(0.01, 0.5, 1.0), DisplacementSpec(0.05, 1.5))
        times = np.array([0.0, 0.3, 7.0, 2e3])
        profile_at(model, times, backend="quadrature")
        kernel_by_quadrature(KernelArgs(0.3, -0.4, 1.0, times))
        sine_moment(0.3, 0.7, 1.0, times)
        total_moment(0.3, 0.7, 1.0)
        with pytest.raises(AssertionError, match="gamma evaluated"):
            profile_at(model, times)
        with pytest.raises(AssertionError, match="gamma evaluated"):
            decay_kernel(KernelArgs(0.3, 0.7, 1.0, times))


class TestQuadratureSettings:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"rel_tol": -1.0},
            {"abs_tol": math.nan},
            {"rel_tol": 0.0},
            {"abs_tol": math.inf},
            {"rel_tol": math.inf},
            {"abs_tol": math.inf, "rel_tol": math.inf},
        ],
    )
    def test_invalid_settings(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSettings(**kwargs)

    def test_infinite_tolerance_accepts_without_overflow(self):
        # rel_tol * |value| overflows to an infinite tolerance, which accepts
        # the row at level 1, not to a RuntimeWarning
        value = total_moment(1.0, 1e-300, 1.0, QuadratureSettings(rel_tol=1e300))
        assert math.isfinite(value) and value > 1e299

    def test_defaults(self):
        s = QuadratureSettings()
        assert s.abs_tol == 1e-10
        assert s.rel_tol == 1e-8


class TestDoubleExponentialRules:
    @pytest.mark.parametrize("p", [-0.9, -0.6])
    @pytest.mark.parametrize("t", [1e3, 1e4, 1e6])
    def test_sub_ohmic_kernel_at_long_times(self, p, t):
        # Gamma(p) for p in (-1, 0) from the series oracle and the recurrence;
        # no package code enters the expected value
        wc = 1.0
        x = wc * t
        gamma_p = oracles.series_gamma(p + 1.0) / p
        expected = gamma_p * wc**p * (1.0 - math.cos(p * math.atan(x)) * (1.0 + x * x) ** (-0.5 * p))
        got = kernel_by_quadrature(KernelArgs(1.0, p, wc, t))
        assert got == pytest.approx(expected, rel=1e-7)

    @pytest.mark.parametrize("p", [-0.6, 0.01, 0.5, 1.7])
    def test_kernel_array_equals_points(self, p):
        times = np.array([0.0, 1e-3, 0.7, 4.0, 55.0, 1e4])
        grid = kernel_by_quadrature(KernelArgs(0.3, p, 1.3, times))
        points = [kernel_by_quadrature(KernelArgs(0.3, p, 1.3, float(t))) for t in times]
        # every time leaves the level loop on its own, so the values are exact
        assert grid.shape == times.shape and list(grid) == points and grid[0] == 0.0

    @pytest.mark.parametrize("p", [-0.4, 0.8], ids=lambda p: f"sin-{p}")
    def test_moment_array_equals_points(self, p):
        times = np.array([0.0, 2e-3, 0.9, 13.0, 3e5])
        grid = sine_moment(0.7, p, 0.8, times)
        points = [sine_moment(0.7, p, 0.8, float(t)) for t in times]
        assert grid.shape == times.shape and list(grid) == points

    @pytest.mark.parametrize(
        "args",
        [(1.0, 0.5, 1.0, 1e4), (1.0, 1.7, 1.0, 1e5), (0.3, -0.5, 1.0, 300.0)],
    )
    def test_tiny_abs_tol_terminates_and_agrees(self, args):
        # abs_tol = 1e-300 leaves the relative tolerance in charge
        tight = sine_moment(*args, settings=QuadratureSettings(abs_tol=1e-300))
        assert tight == pytest.approx(sine_moment(*args), rel=1e-12)

    def test_unmeetable_tolerances_raise(self):
        # at these times the envelope's plateau leaves level gaps of 1e-12 to
        # 1e-10 relative, far above the rounding of the sums
        harsh = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-300)
        times = np.array([1e45, 1e48, 1e51, 1e55])
        with pytest.raises(ConvergenceError, match="converge"):
            kernel_by_quadrature(KernelArgs(1.0, 0.02, 1.0, times), harsh)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the envelope's tanh-sinh nodes stop at z = pi sinh 4.5")
    @pytest.mark.parametrize("p,t", [(-0.5, 1e100), (-0.9, 1e80), (-0.2, 1e100), (-0.1, 1e140)])
    def test_sub_ohmic_kernel_at_huge_times(self, p, t):
        # the rule never samples w in [delta, omega_c e**-141], which holds
        # most of the envelope for p < 0: the value comes out 0.09-0.55 of the
        # closed form, with no error
        args = KernelArgs(1.0, p, 1.0, t)
        assert kernel_by_quadrature(args) == pytest.approx(decay_kernel(args), rel=1e-6)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the envelope's tanh-sinh nodes stop at z = pi sinh 4.5")
    def test_sub_ohmic_profile_at_huge_times(self):
        model = ModelSpec(1.0, BathSpec(0.01, -0.5, 1.0), DisplacementSpec(0.05, 1.5))
        quadrature = profile_at(model, 1e80, backend="quadrature")
        assert quadrature.r == pytest.approx(profile_at(model, 1e80).r, rel=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_sine_tail_of_a_high_exponent_stays_finite(self):
        # kappa = 20.37: w**(p-1) of the sine tail's far nodes overflowed
        # before e**(-w/omega_c) damped it
        model = ModelSpec(1.0, BathSpec(1.6e-8, 39.064, 2.8e-4), DisplacementSpec(1.0, 1.678))
        t = np.logspace(-6.0, -3.0, 9)
        q, c = profile_at(model, t, backend="quadrature"), profile_at(model, t)
        for got, want in ((q.r, c.r), (q.s, c.s), (q.phi, c.phi)):
            assert np.all(np.abs(got - want) <= np.maximum(1e-8, 1e-6 * np.abs(want)))


def _hexes(values):
    return [float(x).hex() for x in np.ravel(values)]


class TestPairedFirstPass:
    """The level loop's first pass evaluates levels 0 and 1 together: level
    0's tanh-sinh nodes are level 1's even nodes, and the two Ooura-Mori
    levels run side by side."""

    def test_tanh_sinh_levels_nest_bit_for_bit(self):
        (z0, dz0), (z1, dz1) = numerics._tanh_sinh(0), numerics._tanh_sinh(1)
        assert z1[::2].tobytes() == z0.tobytes()
        assert (2.0 * dz1[::2]).tobytes() == dz0.tobytes()

    def test_ooura_mori_levels_side_by_side(self):
        y, dy, cuts = numerics._ooura_mori_levels((0, 1))
        assert len(cuts) == 2 and cuts[1].stop == len(y) == len(dy)
        for level, cut in enumerate(cuts):
            y_level, dy_level = numerics._ooura_mori(level)
            assert y[cut].tobytes() == y_level.tobytes()
            assert dy[cut].tobytes() == dy_level.tobytes()

    # values as float.hex, and the rows of the table at each level: every row
    # leaves where it did one level at a time.  Re-recorded when the DE powers
    # became exponentials of logs (1-2 ulps, 19 at the smallest phi), and when
    # head rows with q > 1 and envelope rows with p > 0 were fitted to their
    # peaks (up to 16 ulps; gamma = 0 now leaves at level 1).  Three rows
    # still leave at level 2: sub-ohmic kernels at omega_c t >= 2e3 (r at
    # p = -0.5, t = 2e3 and 1e4; s at p = -0.05, t = 1e4), whose envelope
    # keeps the unit rule
    PROFILES = {
        "sub-ohmic, t = 0": (
            ModelSpec(1.0, BathSpec(0.02, -0.5, 1.0), DisplacementSpec(0.05, 0.5)),
            [0.0, 0.01, 1.0, 100.0, 3000.0],
            {0: 13, 1: 13},
            (
                ["0x0.0p+0", "0x1.dbc64b88dc923p-19", "0x1.ca8626ee923edp-6",
                 "0x1.bb54b80591108p+0", "0x1.567498951853ep+3"],
                ["-0x1.6affa0e2a5923p-5", "-0x1.6af8ff3c3e7e9p-5", "-0x1.6edf4eb44b179p-6",
                 "0x1.f9c00eb828f89p-3", "0x1.d925280ecbe5ep-2"],
                ["0x0.0p+0", "0x1.4b93ea496173ap-12", "0x1.96ebb55021925p-6",
                 "0x1.94548d7b8ecf2p-5", "0x1.96d59a3269294p-5"],
            ),
        ),
        "gamma = 0": (
            ModelSpec(0.5, BathSpec(0.01, 1.0, 2.0), DisplacementSpec(0.0, 0.5)),
            [0.5, 20.0],
            {0: 2, 1: 2},
            (
                ["0x1.47ae147ae147bp-5", "0x1.4779af172f7dap-4"],
                ["0x0.0p+0", "0x0.0p+0"],
                ["0x0.0p+0", "0x0.0p+0"],
            ),
        ),
        "three rows leave at level 2": (
            ModelSpec(0.0, BathSpec(0.003, -0.5, 1.0), DisplacementSpec(0.02, 0.4)),
            [1e-3, 0.2, 2e3, 1e4],
            {0: 13, 1: 13, 2: 3},
            (
                ["0x1.6d67fc061dbd3p-28", "0x1.b89754f34fdc6p-13", "0x1.4d911a487e7dbp+0",
                 "0x1.7b97a5f6731aap+1"],
                ["-0x1.6b6c529834208p-6", "-0x1.668abe131e3b4p-6", "0x1.fc78b7082be4ep-4",
                 "0x1.4e31349684c10p-3"],
                ["0x1.0c16257621021p-17", "0x1.9dd4501bd2d53p-10", "0x1.2c48a9b26b266p-6",
                 "0x1.4587a57f74bdbp-6"],
            ),
        ),
    }

    @pytest.fixture
    def sums(self, monkeypatch):
        """``(function, levels, rows, same)`` of every head, envelope and sine
        sum; ``same``: a paired call equals its levels one at a time, bit for
        bit (None for one level)."""
        calls = []
        for name in ("_head_sums", "_envelope_sums", "_sine_sums"):
            real = getattr(numerics, name)

            def spy(levels, m, *rest, real=real, name=name):
                sums = real(levels, m, *rest)
                same = None
                if len(levels) > 1:
                    alone = np.concatenate([real((level,), m, *rest) for level in levels], 1)
                    same = sums.tobytes() == alone.tobytes()
                calls.append((name, levels, m.shape[1], same))
                return sums

            monkeypatch.setattr(numerics, name, spy)
        return calls

    @pytest.mark.parametrize("name", PROFILES)
    def test_profile_bits_and_levels(self, sums, name):
        model, times, rows, want = self.PROFILES[name]
        profile = profile_at(model, np.array(times), backend="quadrature")
        assert [_hexes(x) for x in (profile.r, profile.s, profile.phi)] == list(want)
        heads = [(levels, n) for f, levels, n, _ in sums if f == "_head_sums"]
        assert {level: n for levels, n in heads for level in levels} == rows

    T = np.array([0.0, 0.03, 2.0, 500.0])

    @pytest.mark.parametrize("call,want", [
        (lambda t: kernel_by_quadrature(KernelArgs(0.2, -0.3, 1.5, t)),
         ["0x0.0p+0", "0x1.556a41b33c30ep-13", "0x1.ed951ab71c9edp-3", "0x1.0d690e431009ap+2"]),
        (lambda t: sine_moment(0.2, 0.4, 1.5, t),
         ["0x0.0p+0", "0x1.3363d5373e33ap-7", "0x1.4300d1bf8a850p-3", "0x1.636e1e33849fap-6"]),
        (lambda t: total_moment(0.2, 0.4, 1.5), ["0x1.0b2250c59d6e9p-1"]),
    ], ids=["kernel", "sin", "total"])
    def test_one_part_bits(self, call, want):
        assert _hexes(call(self.T)) == want

    # a head with q <= 1 (the sine moment's q = p + 1 at p <= 0) and an
    # envelope with p <= 0 take the rule centred at omega_c with k = 1 exactly:
    # their bits are the unit rule's
    def test_rows_under_the_unit_rule_keep_their_bits(self, monkeypatch):
        assert _hexes(sine_moment(0.2, -0.4, 1.5, self.T)) == [
            "0x0.0p+0", "0x1.754e960bb8edcp-7", "0x1.ec44ab79c9124p-2", "0x1.50316558a05a6p+2"]
        envelopes = []
        real = numerics._envelope_sums
        monkeypatch.setattr(numerics, "_envelope_sums",
                            lambda levels, m: envelopes.append(real(levels, m)) or envelopes[-1])
        kernel_by_quadrature(KernelArgs(0.2, -0.3, 1.5, self.T))
        assert [_hexes(sums[:, -1]) for sums in envelopes] == [
            ["0x1.610630a01c4e4p-56", "0x1.c801fa6a100bbp-2", "0x1.54036b9378c20p+1"]]

    # rows that the unit rule takes to level 2 or more; references as in
    # oracles.py
    @pytest.mark.parametrize("call,want", [
        (lambda: kernel_by_quadrature(KernelArgs(0.04, 1.8, 1.0, 1100.0)),
         oracles.KERNEL_1_8_AT_1100),
        (lambda: total_moment(0.5, 1.9, 0.97), oracles.TOTAL_1_9),
        (lambda: sine_moment(1.0, 1.35, 1.0, 3e-3), oracles.SINE_1_35_AT_3E_3),
        (lambda: kernel_by_quadrature(KernelArgs(1.0, 10.0, 1.0, 10.0)), oracles.KERNEL_10_AT_10),
    ], ids=["kernel-1.8", "total-1.9", "sin-1.35", "kernel-10"])
    def test_peak_fitted_row_leaves_at_level_one(self, sums, call, want):
        assert call() == pytest.approx(want, rel=1e-13)
        assert [levels for f, levels, *_ in sums if f == "_head_sums"] == [(0, 1)]

    def test_steep_head_reaches_its_end_at_a_tight_tolerance(self):
        # q = 42 and delta = pi/(2t) ~ q omega_c: a scale 1/sqrt(42) would stop
        # the rule e**-22 of w short of delta, 2e-9 of the value at both levels
        got = kernel_by_quadrature(
            KernelArgs(1.0, 40.0, 1.0, 0.0375), QuadratureSettings(rel_tol=1e-10))
        assert got == pytest.approx(oracles.KERNEL_40_AT_0_0375, rel=1e-12)

    @pytest.mark.parametrize("name", PROFILES)
    def test_paired_pass_equals_each_level_alone(self, sums, name):
        model, times, _, _ = self.PROFILES[name]
        profile_at(model, np.array(times), backend="quadrature")
        assert [same for *_, same in sums if same is not None] == [True] * 3

    def test_rows_leaving_at_level_one_take_one_call_each(self, sums):
        model, times, rows, _ = self.PROFILES["sub-ohmic, t = 0"]
        assert rows == {0: 13, 1: 13}
        profile_at(model, np.array(times), backend="quadrature")
        assert sorted(call[:3] for call in sums) == [
            ("_envelope_sums", (0, 1), 9), ("_head_sums", (0, 1), 13), ("_sine_sums", (0, 1), 12)
        ]


class TestClosedFormBits:
    """Closed-form r, s, phi and decay_kernel for mu >= 0, as float.hex,
    recorded before the closed form served mu in (-1, 0): at mu = 0, which
    takes the p -> 0 limit, just above it and away from it.  The 5e-8 r and
    kernel rows were re-recorded when the small-exponent seam moved from 1e-7
    to 1e-12, so they come from the Gamma form."""

    T = np.array([0.0, 1e-3, 0.7, 30.0, 1e4])

    # mu: (r, s, phi, decay_kernel(KernelArgs(0.3, mu, 1.3, T)))
    GOLDEN = {
        0.0: (
            ["0x0.0p+0", "0x1.2256ec58e509cp-24", "0x1.8b5d1d6b47292p-6",
             "0x1.2c25591a5da45p-2", "0x1.840081e4f1abap-1"],
            ["-0x1.f88b91cdf4346p-5", "-0x1.f88b707d245ecp-5", "-0x1.4c1c93b40fe30p-5",
             "0x1.ab4897a7f1279p-4", "0x1.9ae7c4ea2dedcp-3"],
            ["0x0.0p+0", "0x1.4db0d1c310444p-15", "0x1.5b35b65d8b67fp-6",
             "0x1.6e609b3490a7dp-6", "0x1.d1f1ce31f2a7cp-8"],
            ["0x0.0p+0", "0x1.10317d9356b92p-22", "0x1.72a74b9492b69p-4",
             "0x1.19630388b7ca1p+0", "0x1.6bc079c6a290ep+1"],
        ),
        5e-08: (
            ["0x0.0p+0", "0x1.2256ecffc3f8cp-24", "0x1.8b5d1dfc82c37p-6",
             "0x1.2c25574fe0f20p-2", "0x1.84007ba34406dp-1"],
            ["-0x1.f88b91cdf4346p-5", "-0x1.f88b707d24538p-5", "-0x1.4c1c938cc498ap-5",
             "0x1.ab4895f7b2ec1p-4", "0x1.9ae7c1f5378e4p-3"],
            ["0x0.0p+0", "0x1.4db0d1bf5473ap-15", "0x1.5b35b6286e9c5p-6",
             "0x1.6e6098e4d1eebp-6", "0x1.d1f1c6d11d40dp-8"],
            ["0x0.0p+0", "0x1.10317e2fc7b94p-22", "0x1.72a74c1cba974p-4",
             "0x1.196301dae2e2ep+0", "0x1.6bc073e90fc67p+1"],
        ),
        1e-07: (
            ["0x0.0p+0", "0x1.2256eda6a2e8ap-24", "0x1.8b5d1e8dbe5e6p-6",
             "0x1.2c25558564439p-2", "0x1.8400756196842p-1"],
            ["-0x1.f88b91cdf4346p-5", "-0x1.f88b707d24484p-5", "-0x1.4c1c9365794e6p-5",
             "0x1.ab48944774b21p-4", "0x1.9ae7bf0041356p-3"],
            ["0x0.0p+0", "0x1.4db0d1bb98a30p-15", "0x1.5b35b5f351d0ep-6",
             "0x1.6e60969513395p-6", "0x1.d1f1bf7047f7cp-8"],
            ["0x0.0p+0", "0x1.10317ecc38ba0p-22", "0x1.72a74ca4e2787p-4",
             "0x1.1963002d0dff5p+0", "0x1.6bc06e0b7d1bdp+1"],
        ),
        0.5: (
            ["0x0.0p+0", "0x1.b80fe13418c7bp-24", "0x1.0625c76f34bc7p-5",
             "0x1.2524e288c3ec2p-3", "0x1.490d5721ad1b0p-3"],
            ["-0x1.f88b91cdf4346p-5", "-0x1.f88b68574a421p-5", "-0x1.301bfdb5a5ed0p-5",
             "0x1.d985336f7f67ep-5", "0x1.3b54212237703p-4"],
            ["0x0.0p+0", "0x1.57b249e7b8418p-15", "0x1.46c358e8f6ca6p-6",
             "0x1.1ab6829372608p-7", "0x1.4fdae6aa1a3cdp-11"],
            ["0x0.0p+0", "0x1.9c8ee320d73b3p-22", "0x1.eb86d5f082e14p-4",
             "0x1.12d2946037ad6p-1", "0x1.347c81af92495p-1"],
        ),
        2.0: (
            ["0x0.0p+0", "0x1.7001307f94ac5p-21", "0x1.06a5b017da084p-3",
             "0x1.15123fc8da7e0p-3", "0x1.14e3bceed7656p-3"],
            ["-0x1.f88b91cdf4346p-5", "-0x1.f88b328592f25p-5", "-0x1.17b63307ddd40p-6",
             "0x1.2ae12f3154d98p-6", "0x1.26650095ac760p-6"],
            ["0x0.0p+0", "0x1.044746cb55e91p-14", "0x1.5f7da3ac67bebp-6",
             "0x1.ed51783d25c4fp-12", "0x1.d5f072d21625dp-22"],
            ["0x0.0p+0", "0x1.59011d779b618p-19", "0x1.ec76aa2cb8cf6p-2",
             "0x1.03c11bcc4cd62p-1", "0x1.0395811fe9ef0p-1"],
        ),
    }

    @pytest.mark.parametrize("mu", GOLDEN)
    def test_bits(self, mu):
        model = ModelSpec(1.0, BathSpec(0.02, mu, 1.3), DisplacementSpec(0.05, 0.4))
        profile = profile_at(model, self.T)
        kernel = decay_kernel(KernelArgs(0.3, mu, 1.3, self.T))
        got = [_hexes(x) for x in (profile.r, profile.s, profile.phi, kernel)]
        assert got == [list(x) for x in self.GOLDEN[mu]]
        one = profile_at(model, float(self.T[2]))
        assert [one.r, one.s, one.phi] == [profile.r[2], profile.s[2], profile.phi[2]]


def test_quadrature_fuzz_counts_add_up():
    # a smoke run of tests/fuzz_quadrature.py: 10 draws per t_max band, and a
    # long-time row for each served draw with mu > 0
    out = io.StringIO()
    counts = fuzz_quadrature.fuzz(10, seed=0, out=out)
    assert list(counts) == list(fuzz_quadrature.BANDS)
    lines = [line.split("\t") for line in out.getvalue().splitlines()]
    assert len(lines) == 30
    for band, count in counts.items():
        assert sum(count[outcome] for outcome in fuzz_quadrature.OUTCOMES) == 10
        assert sum(n for key, n in count.items() if key.startswith("raw: ")) == count["raw"]
        # band, index, outcome, worst, long-time outcome, its worst, alpha, mu, ...
        rows = sum(f[0] == band and f[2] == "served" and float(f[7]) > 0.0 for f in lines)
        limits = [count["long-time " + outcome] for outcome in fuzz_quadrature.OUTCOMES]
        assert sum(limits) == rows == sum(f[0] == band and f[4] != "-" for f in lines)
    assert sum(count["long-time served"] for count in counts.values()) > 0
    # every row enters levels 0 and 1 together, and the spy is gone afterwards
    assert all(count["level 0"] == count["level 1"] > 0 for count in counts.values())
    assert numerics._head_sums.__module__ == "qdephase.numerics"
