"""Parameter records, decoherence profiles, and backend agreement."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qdephase import (
    BathSpec,
    QubitAmplitudes,
    analysis,
    decay_kernel,
    ConvergenceError,
    DisplacementSpec,
    DomainError,
    KernelArgs,
    ModelSpec,
    QuadratureSettings,
    TimeGrid,
    bath,
    distance_series,
    ground_coherent_overlap,
    kernel_by_quadrature,
    numerics,
    profile_at,
    profile_limit,
    sine_moment,
    total_moment,
    validation,
)
from qdephase.bath import _ProfilePlan


def _profiles(alpha, mu, omega_c, gamma_coef, nu, t, backend):
    """(r, s, phi) from one plan over the broadcast parameters, evaluated at t."""
    return _ProfilePlan(alpha, mu, omega_c, gamma_coef, nu, backend)(t)


def random_model(rng, mu_range=(-1.0, 3.0)):
    return ModelSpec(
        epsilon=rng.uniform(0.0, 2.0),
        bath=BathSpec(
            alpha=10.0 ** rng.uniform(-4, 0),
            mu=rng.uniform(*mu_range),
            omega_c=rng.uniform(0.5, 2.0),
        ),
        displacement=DisplacementSpec(
            gamma_coef=10.0 ** rng.uniform(-4, 0),
            nu=rng.uniform(1e-3, 2.0),
        ),
    )


class TestSpecs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0, "mu": 0.5},
            {"alpha": -0.1, "mu": 0.5},
            {"alpha": 0.1, "mu": -1.0},
            {"alpha": 0.1, "mu": 0.5, "omega_c": 0.0},
        ],
    )
    def test_bath_spec_rejects_bad_parameters(self, kwargs):
        with pytest.raises(DomainError):
            BathSpec(**kwargs)

    def test_displacement_spec_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            DisplacementSpec(gamma_coef=-0.1, nu=0.5)
        with pytest.raises(DomainError):
            DisplacementSpec(gamma_coef=0.1, nu=0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_model_spec_rejects_non_finite_epsilon(self, benchmark_model, epsilon):
        with pytest.raises(DomainError, match="epsilon must be finite"):
            ModelSpec(epsilon, benchmark_model.bath, benchmark_model.displacement)

    def test_kappa(self, benchmark_model):
        assert benchmark_model.kappa == pytest.approx(0.03, abs=1e-15)


class TestOverlap:
    def test_no_displacement(self):
        assert ground_coherent_overlap(DisplacementSpec(0.0, 0.3), 1.0) == 1.0

    @pytest.mark.parametrize("omega_c", [0.0, -1.0, math.nan])
    def test_rejects_bad_cutoff(self, omega_c):
        with pytest.raises(DomainError, match="omega_c must be positive"):
            ground_coherent_overlap(DisplacementSpec(0.05, 0.05), omega_c)

    def test_reference_value(self):
        d = DisplacementSpec(gamma_coef=0.05, nu=0.05)
        expected = math.exp(-0.5 * 0.05 * oracles.series_gamma(0.05))
        assert expected == pytest.approx(oracles.OVERLAP_REFERENCE, rel=1e-12)
        assert ground_coherent_overlap(d, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_unit_parameters(self):
        d = DisplacementSpec(gamma_coef=1.0, nu=1.0)
        assert ground_coherent_overlap(d, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-13)

    def test_overflowing_moment_gives_orthogonal_branches(self):
        # 0.00459 * Gamma(29) * 4.48e42**29 overflows a double: the overlap is 0,
        # while s(t) is not finite, so a profile or a series is still refused
        d = DisplacementSpec(0.00918, 29.0)
        assert ground_coherent_overlap(d, 4.48e42) == 0.0
        model = ModelSpec(1.0, BathSpec(1.93e-72, 0.5, 4.48e42), d)
        with pytest.raises(DomainError, match="overflows a double"):
            profile_at(model, 1e-40)
        for backend in ("closed_form", "quadrature"):
            with pytest.raises(DomainError, match="overflows a double"):
                distance_series(model, 0.25, 0.0, grid=TimeGrid("linear", 0.0, 1e-43, 3),
                                backend=backend)

    def test_overflowing_factor_of_a_small_moment_is_a_domain_error(self):
        # Gamma(200) overflows, but 0.025 * Gamma(200) * 0.01**200 ~ 1e-29: the
        # overlap is ~1, not 0, and a double cannot form it this way
        with pytest.raises(DomainError, match="overflows a double"):
            ground_coherent_overlap(DisplacementSpec(0.05, 200.0), 0.01)

    def test_overflow_is_decided_per_element(self):
        # the overflowing element is -inf in s0 and s_inf; the others keep the
        # bits of their float call
        alpha, mu = np.array([0.1, 1.93e-72, 0.02]), np.array([0.5, 0.5, 1.5])
        omega_c, gamma_coef, nu = np.array([1.0, 4.48e42, 2.0]), np.array([0.05, 0.00918, 0.3]), np.array([2.0, 29.0, 0.7])
        got = bath.limit_exponents(alpha, mu, omega_c, gamma_coef, nu)
        for i in (0, 2):
            one = bath.limit_exponents(*(float(x[i]) for x in (alpha, mu, omega_c, gamma_coef, nu)))
            assert [_bits(x[i]) for x in got] == [_bits(x) for x in one]
        assert (got[0][1], got[2][1]) == (-math.inf, -math.inf)
        assert 0.0 < got[1][1] < 1e-49

    def test_quadrature_cross_check(self):
        # exp(-(1/2) Int f^2) with the integral done numerically
        d = DisplacementSpec(gamma_coef=0.05, nu=0.05)
        integral = oracles.quad_total(0.05, 0.05, 1.0)
        assert ground_coherent_overlap(d, 1.0) == pytest.approx(
            math.exp(-0.5 * integral), rel=1e-9
        )


class TestProfileAt:
    @pytest.mark.parametrize("backend", ["closed_form", "quadrature"])
    @pytest.mark.parametrize("t", [1e160, 1.7e308])
    def test_time_beyond_bound_rejected(self, benchmark_model, backend, t):
        # x * x with x = omega_c * t overflows past ~1.34e154
        with pytest.raises(DomainError, match="t <= 1e\\+150"):
            profile_at(benchmark_model, t, backend=backend)

    @pytest.mark.parametrize("backend", ["closed_form", "quadrature"])
    @pytest.mark.parametrize("bad", [math.nan, -1.0, -5e-324, math.nextafter(2.5e148, math.inf)])
    @pytest.mark.parametrize("array", [False, True])
    def test_refused_times_keep_the_kernel_args_message(self, backend, bad, array):
        # the plan checks times where KernelArgs did, with its words; 2.5e148
        # is the bound 1e150 / omega_c itself
        model = ModelSpec(1.0, BathSpec(0.01, 0.5, 40.0), DisplacementSpec(0.05, 0.4))
        t = np.array([0.0, 2.0, bad, 2.5e148]) if array else bad
        with pytest.raises(DomainError) as want:
            KernelArgs(0.1, 0.5, 40.0, t)
        evaluate = analysis._distance_evaluator(
            model, 0.25, 0.0, QubitAmplitudes.balanced(), backend, None, False)
        for call in (lambda: profile_at(model, t, backend=backend), lambda: evaluate(t)):
            with pytest.raises(DomainError) as got:
                call()
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad_row", [2, 3])
    def test_mixed_validation_batch_keeps_the_kernel_args_message(self, bad_row):
        # odd samples on the quadrature backend, as check_physicality draws them;
        # the closed-form rows are evaluated first
        rng = np.random.default_rng(3)
        # validation's parameter rows: alpha, mu, omega_c, gamma_coef, nu, epsilon
        params = np.array([(m.bath.alpha, m.bath.mu, m.bath.omega_c, m.displacement.gamma_coef,
                            m.displacement.nu, m.epsilon) for m in
                           (random_model(rng) for _ in range(6))]).T
        t = np.array([0.5, 1.0, 2.0, 3.0, 4.0, 5.0])
        t[bad_row] = -1.0
        backends = ["quadrature" if i % 2 else "closed_form" for i in range(6)]
        rows = np.arange(6) % 2 == bad_row % 2
        with pytest.raises(DomainError) as want:
            KernelArgs(1.0, 0.5, params[2, rows], t[rows])
        with pytest.raises(DomainError) as got:
            validation._sample_fields(params, t, backends)
        assert str(got.value) == str(want.value)

    def test_time_bound_scales_with_cutoff(self, benchmark_model):
        fast = replace(benchmark_model, bath=replace(benchmark_model.bath, omega_c=1e10))
        profile_at(fast, 1e139)
        with pytest.raises(DomainError):
            profile_at(fast, 1e141)

    @pytest.mark.parametrize("backend", ["closed_form", "quadrature"])
    def test_time_bound_below_unit_cutoff(self, benchmark_model, backend):
        # omega_c * t = 1e60 is small, but the quadrature kernel squares t itself
        slow = replace(benchmark_model, bath=replace(benchmark_model.bath, omega_c=1e-100))
        with pytest.raises(DomainError):
            profile_at(slow, 1e160, backend=backend)

    def test_ohmic_r_at_the_time_bound(self, benchmark_model):
        # mu = 0: r(t) = 2 alpha log(1 + t^2), i.e. 4 alpha log t at large t
        ohmic = replace(benchmark_model, bath=replace(benchmark_model.bath, mu=0.0))
        r = profile_at(ohmic, 1e150).r
        assert r == pytest.approx(4.0 * 0.0025 * math.log(1e150), rel=1e-12)

    def test_quadrature_at_the_time_bound(self):
        m = ModelSpec(
            epsilon=1.0,
            bath=BathSpec(alpha=0.1, mu=0.5, omega_c=1.0),
            displacement=DisplacementSpec(gamma_coef=0.1, nu=0.5),
        )
        closed = profile_at(m, 1e150)
        quadr = profile_at(m, 1e150, backend="quadrature")
        assert quadr.r == pytest.approx(closed.r, rel=1e-12)
        assert quadr.s == pytest.approx(closed.s, rel=1e-12)

    def test_initial_values(self, benchmark_model):
        for backend in ("closed_form", "quadrature"):
            p = profile_at(benchmark_model, 0.0, backend=backend)
            assert p.r == 0.0
            assert p.phi == 0.0
            expected_s0 = -0.5 * 0.05 * oracles.GAMMA_0_05
            assert p.s == pytest.approx(expected_s0, rel=1e-9)

    def test_phase_function_unit_case(self):
        # alpha = gamma = mu = nu = 1: phi(1) = sin(atan 1)/sqrt(2) = 1/2,
        # which also equals Int e^-w sin(w) dw
        m = ModelSpec(
            epsilon=1.0,
            bath=BathSpec(alpha=1.0, mu=1.0, omega_c=1.0),
            displacement=DisplacementSpec(gamma_coef=1.0, nu=1.0),
        )
        assert profile_at(m, 1.0).phi == pytest.approx(0.5, abs=1e-13)
        assert profile_at(m, 1.0, backend="quadrature").phi == pytest.approx(0.5, abs=1e-10)

    def test_backend_agreement_random_grid(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for i in range(100):
            m = random_model(rng)
            t = 0.0 if i % 25 == 0 else rng.uniform(0.0, 100.0)
            closed = profile_at(m, t, backend="closed_form")
            quadr = profile_at(m, t, backend="quadrature")
            for lhs, rhs in ((closed.r, quadr.r), (closed.s, quadr.s), (closed.phi, quadr.phi)):
                worst = max(worst, abs(lhs - rhs) / max(1e-8, 1e-6 * abs(lhs)))
        assert worst <= 1.0

    def test_cauchy_schwarz_bound(self):
        # s(t) <= r(t) guarantees |A_1(t)| <= 1
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = random_model(rng)
            t = rng.uniform(0.0, 200.0)
            p = profile_at(m, t)
            assert p.s - p.r <= 1e-12

    def test_r_monotone_for_small_mu(self):
        # r'(t) is a positive multiple of sin((mu+1) atan(x)), which is >= 0 for mu <= 1
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_model(rng, mu_range=(-1.0, 1.0))
            times = np.geomspace(1e-3, 1e3, 120)
            values = [profile_at(m, float(t)).r for t in times]
            assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))

    @staticmethod
    def assert_backends_agree(closed, quadr):
        for got, want in zip(closed, quadr):
            assert np.all(np.abs(got - want) <= np.maximum(1e-8, 1e-6 * np.abs(want)))

    def test_negative_mu_closed_form_matches_quadrature(self):
        # mu in (-1, 0), with kappa = (mu + nu)/2 on either side of 0
        times = (1.0, np.geomspace(1e-3, 1e4, 400))
        for mu, nu in ((-0.5, 0.8), (-0.999, 0.4), (-0.9, 1.5), (-0.2, 0.2), (-2e-7, 0.05)):
            m = ModelSpec(0.0, BathSpec(0.1, mu, 1.0), DisplacementSpec(0.1, nu))
            for t in times:
                closed = profile_at(m, t)
                quadr = profile_at(m, t, backend="quadrature")
                self.assert_backends_agree(
                    (closed.r, closed.s, closed.phi), (quadr.r, quadr.s, quadr.phi)
                )
                assert np.all(closed.r > 0.0) and np.all(closed.s - closed.r <= 1e-12)

    def test_kappa_just_below_zero_matches_quadrature_to_long_times(self):
        # kappa = (mu + nu)/2 = -9.9999e-8: the p -> 0 limit would miss the
        # tolerance in s and phi past omega_c t ~ 1e5
        m = ModelSpec(0.0, BathSpec(0.1, -0.3, 2.0), DisplacementSpec(0.1, 0.3 - 1.99998e-7))
        assert -1e-7 < 0.5 * (m.bath.mu + m.displacement.nu) < -9.999e-8
        t = np.geomspace(1e-3, 1e8, 200)
        closed, quadr = profile_at(m, t), profile_at(m, t, backend="quadrature")
        self.assert_backends_agree((closed.r, closed.s, closed.phi), (quadr.r, quadr.s, quadr.phi))

    def test_kappa_just_above_zero_matches_quadrature_to_long_times(self):
        # kappa = +9.9999e-8: a p -> 0 limit taken there missed the tolerance
        # in phi 1.9-fold at omega_c t = 2e8
        m = ModelSpec(0.0, BathSpec(0.1, -0.3, 2.0), DisplacementSpec(0.1, 0.3 + 1.99998e-7))
        assert 9.999e-8 < 0.5 * (m.bath.mu + m.displacement.nu) < 1e-7
        t = np.geomspace(1e-3, 1e8, 200)
        closed, quadr = profile_at(m, t), profile_at(m, t, backend="quadrature")
        self.assert_backends_agree((closed.r, closed.s, closed.phi), (quadr.r, quadr.s, quadr.phi))

    @pytest.mark.parametrize("mu,nu", [(1e300, 0.05), (0.5, 1e300)])
    @pytest.mark.parametrize("backend", ["closed_form", "quadrature"])
    def test_overflowing_exponent_is_a_domain_error(self, mu, nu, backend):
        # mu = 1e300 overflowed delta**q in the head with a raw RuntimeWarning;
        # the closed form refuses the same input through Gamma's overflow
        m = ModelSpec(1.0, BathSpec(0.01, mu, 1.0), DisplacementSpec(0.05, nu))
        with pytest.raises(DomainError, match="overflows a double"):
            profile_at(m, 1.0, backend=backend)

    @pytest.mark.parametrize("mu,nu", [(41.0, 0.05), (0.5, 41.0), (45.0, 0.5), (0.5, 45.0)])
    def test_quadrature_serves_exponents_above_forty(self, mu, nu):
        # a quadrature exponent above 40 was refused, although the closed form
        # serves it; the sine moments of kappa >~ 20 still miss their tolerance
        # at omega_c t of a few (t = 3 and 10 here)
        m = ModelSpec(1.0, BathSpec(0.01, mu, 1.0), DisplacementSpec(0.05, nu))
        t = np.array([1e-3, 0.05, 0.5, 100.0, 1e4])
        closed, quadr = profile_at(m, t), profile_at(m, t, backend="quadrature")
        self.assert_backends_agree((closed.r, closed.s, closed.phi), (quadr.r, quadr.s, quadr.phi))

    def test_quadrature_at_tiny_times(self):
        # delta**q of the heads, delta = pi/(2t), overflowed with a raw RuntimeWarning
        m = ModelSpec(1.0, BathSpec(1.0, 1.0, 1.0), DisplacementSpec(1.0, 1.0))
        closed, quadr = profile_at(m, 1e-150), profile_at(m, 1e-150, backend="quadrature")
        assert closed.r == pytest.approx(4e-300, rel=1e-12)
        for got, want in ((quadr.r, closed.r), (quadr.s, closed.s), (quadr.phi, closed.phi)):
            assert got == pytest.approx(want, rel=1e-10)

    def test_moment_overflow_is_a_domain_error_on_quadrature(self):
        # the total moment of s(0) overflows a double (so do phi and the s
        # kernel): the quadrature warned 'overflow encountered in power' and
        # ended in the ConvergenceError 'level gap nan > inf'
        m = ModelSpec(1.0, BathSpec(1.93e-72, 0.5, 4.48e42), DisplacementSpec(0.00918, 29.0))
        for backend in ("closed_form", "quadrature"):
            with pytest.raises(DomainError, match="overflows a double"):
                profile_at(m, 1e-40, backend=backend)

    @pytest.mark.parametrize(
        "bath, t",
        [
            # q = -0.5: r grows like t**0.5 past a double (an overflow warning and
            # r = inf before); t = 1 stays finite
            (BathSpec(1.42e270, -0.5, 1.41e-4), 6.16e123),
            # the small-exponent limit 2 alpha log(1 + x^2) at x = 1e150
            (BathSpec(1e306, 1e-13, 1.0), 1e150),
            # a finite limit kernel (6.9e307) whose r = 4 kernels is not
            (BathSpec(2e305, 1e-13, 1.0), 1e150),
            # q = 1: r nears 4 moments = 2e308 at late times, refused at set-up
            # whatever the time (r(1e-3) is ~2e302)
            (BathSpec(5e307, 1.0, 1.0), 1e-3),
        ],
        ids=["negative-exponent", "small-exponent", "small-exponent-scaled", "bounded-by-moment"],
    )
    def test_closed_form_overflow_is_a_domain_error(self, bath, t):
        m = ModelSpec(1.0, bath, DisplacementSpec(0.0, 6.6e-6))
        with pytest.raises(DomainError, match="overflows a double"):
            profile_at(m, t)
        with pytest.raises(DomainError, match="overflows a double"):
            profile_at(m, [1e-3, t])
        # the array set-up of a batch (validation's) refuses it as well
        b, d = m.bath, m.displacement
        plan = _ProfilePlan(*(np.array([x, x]) for x in (b.alpha, b.mu, b.omega_c)),
                            np.zeros(2), np.full(2, d.nu), "closed_form")
        with pytest.raises(DomainError, match="overflows a double"):
            plan(np.array([[t], [t]]))
        if bath.mu < 0.5:
            profile_at(m, 1.0)

    def test_ohmic_closed_form_uses_limit_branch(self):
        # mu = 0: r(t) = 2 alpha ln(1 + (wc t)^2) exactly
        m = ModelSpec(
            epsilon=0.0,
            bath=BathSpec(alpha=0.3, mu=0.0, omega_c=1.0),
            displacement=DisplacementSpec(gamma_coef=0.0, nu=1.0),
        )
        for t in (0.5, 5.0, 50.0):
            expected = 2.0 * 0.3 * math.log1p(t * t)
            assert profile_at(m, t).r == pytest.approx(expected, rel=1e-12)
            assert profile_at(m, t, backend="quadrature").r == pytest.approx(expected, rel=1e-7)

    def test_zero_displacement_kills_s_and_phi(self):
        m = ModelSpec(
            epsilon=0.0,
            bath=BathSpec(alpha=0.2, mu=0.5, omega_c=1.0),
            displacement=DisplacementSpec(gamma_coef=0.0, nu=0.5),
        )
        for backend in ("closed_form", "quadrature"):
            p = profile_at(m, 2.0, backend=backend)
            assert p.s == 0.0 and p.phi == 0.0

    def test_cutoff_scaling_law(self):
        # r depends on (omega_c t) and scales as omega_c**mu; same for s, phi
        # with their own exponents
        m1 = ModelSpec(
            epsilon=0.0,
            bath=BathSpec(alpha=0.07, mu=0.6, omega_c=1.0),
            displacement=DisplacementSpec(gamma_coef=0.2, nu=0.9),
        )
        m2 = replace(m1, bath=replace(m1.bath, omega_c=2.0))
        kappa = m1.kappa
        for t in (0.3, 2.0, 17.0):
            p1 = profile_at(m1, t)
            p2 = profile_at(m2, t / 2.0)
            assert p2.r == pytest.approx(2.0**0.6 * p1.r, rel=1e-12)
            s0_1 = -0.5 * 0.2 * math.gamma(0.9)
            s0_2 = -0.5 * 0.2 * math.gamma(0.9) * 2.0**0.9
            assert p2.s - s0_2 == pytest.approx(2.0**kappa * (p1.s - s0_1), rel=1e-11)
            assert p2.phi == pytest.approx(2.0**kappa * p1.phi, rel=1e-12)

    def test_time_validation(self, benchmark_model):
        with pytest.raises(DomainError):
            profile_at(benchmark_model, -1.0)
        with pytest.raises(DomainError):
            profile_at(benchmark_model, math.inf)

    def test_unknown_backend(self, benchmark_model):
        with pytest.raises(DomainError):
            profile_at(benchmark_model, 1.0, backend="magic")

    def test_time_array_matches_single_times(self):
        rng = np.random.default_rng(12)
        times = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 40)])
        for k in range(20):
            model = random_model(rng)
            if k % 5 == 0:
                model = replace(model, displacement=replace(model.displacement, gamma_coef=0.0))
            whole = profile_at(model, times)
            assert whole.r.shape == whole.s.shape == whole.phi.shape == times.shape
            for i, t in enumerate(times):
                point = profile_at(model, float(t))
                for field in ("r", "s", "phi"):
                    assert abs(getattr(whole, field)[i] - getattr(point, field)) <= 1e-15

    def test_quadrature_time_array_matches_single_times(self, benchmark_model):
        times = np.array([0.0, 0.5, 7.0])
        whole = profile_at(benchmark_model, times, backend="quadrature")
        for i, t in enumerate(times):
            point = profile_at(benchmark_model, float(t), backend="quadrature")
            assert (whole.r[i], whole.s[i], whole.phi[i]) == (point.r, point.s, point.phi)

    @pytest.mark.parametrize(
        "mu,gamma_coef,nu", [(-0.6, 0.3, 0.9), (1.0, 0.0, 2.0), (2.0, 0.4, 0.5)]
    )
    def test_quadrature_time_array_matches_single_times_over_models(self, mu, gamma_coef, nu):
        model = ModelSpec(1.0, BathSpec(0.01, mu, 1.3), DisplacementSpec(gamma_coef, nu))
        times = np.array([0.0, 1e-3, 0.5, 7.0, 300.0, 1e4])
        whole = profile_at(model, times, backend="quadrature")
        for i, t in enumerate(times):
            point = profile_at(model, float(t), backend="quadrature")
            assert (whole.r[i], whole.s[i], whole.phi[i]) == (point.r, point.s, point.phi)

    @pytest.mark.parametrize("mu", [-0.5, np.array([0.5, -0.7, 1.0, -0.5])])
    def test_closed_form_serves_negative_mu(self, mu):
        t = np.array([0.0, 0.3, 40.0, 1e4])
        closed = _profiles(0.1, mu, 1.0, 0.1, 0.8, t, "closed_form")
        self.assert_backends_agree(closed, _profiles(0.1, mu, 1.0, 0.1, 0.8, t, "quadrature"))
        for i, row in enumerate(np.broadcast_to(mu, t.shape)):
            one = _profiles(0.1, float(row), 1.0, 0.1, 0.8, float(t[i]), "closed_form")
            assert one == tuple(field[i] for field in closed)

    def test_time_array_validation(self, benchmark_model):
        with pytest.raises(DomainError):
            profile_at(benchmark_model, np.array([0.0, 1.0, -1.0]))


def _uniform(low, high):
    """numpy's Generator.uniform(low, high), over all of its 2**53 outcomes."""
    return st.integers(0, 2**53 - 1).map(lambda k: low + (high - low) * (k * 2.0**-53))


# one validation sample (validation._random_model): alpha, mu, omega_c,
# gamma_coef, nu and t
_SAMPLE = st.tuples(
    _uniform(-4.0, 0.0).map(lambda e: 10.0**e),
    _uniform(-1.0, 2.0).filter(lambda mu: mu > -1.0),
    _uniform(0.5, 2.0),
    _uniform(-4.0, 0.0).map(lambda e: 10.0**e),
    _uniform(1e-3, 2.0),
    _uniform(0.0, 100.0),
)


class TestBatchedProfiles:
    @pytest.mark.parametrize("backend", ["closed_form", "quadrature"])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(_SAMPLE, min_size=1, max_size=8))
    def test_rows_equal_one_model_calls(self, backend, rows):
        batch = _profiles(*np.array(rows).T, backend)
        for i, (alpha, mu, omega_c, gamma_coef, nu, t) in enumerate(rows):
            model = ModelSpec(0.0, BathSpec(alpha, mu, omega_c), DisplacementSpec(gamma_coef, nu))
            one = profile_at(model, t, backend)
            for got, want in zip((field[i] for field in batch), (one.r, one.s, one.phi)):
                assert got == want

    def test_quadrature_rows_equal_one_model_plans_to_the_bit(self):
        # round exponents, whose float powers numpy once took through square,
        # sqrt and reciprocal, among them: 1680 (model, time) pairs
        mu, nu = np.meshgrid([-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0],
                             [0.01, 0.5, 1.0, 1.5, 2.0, 3.5], indexing="ij")
        mu, nu, t = mu.reshape(-1, 1), nu.reshape(-1, 1), np.logspace(-3.0, 4.0, 40)
        batch = _profiles(0.02, mu, 1.3, 0.05, nu, t, "quadrature")
        for i in range(mu.shape[0]):
            one = _profiles(0.02, mu[i, 0].item(), 1.3, 0.05, nu[i, 0].item(), t, "quadrature")
            assert [_bits(field[i]) for field in batch] == [_bits(field) for field in one]


    # (mu, nu): the r row's exponent mu and the s row's kappa = (mu + nu)/2 on
    # every branch: |p| < 1e-12, p < -1/2, -1/2 <= p < 0, p >= 0
    BRANCHES = [
        (0.0, 0.4), (-5e-13, 0.5), (-0.7, 0.5), (-0.3, 0.3), (-0.3, 0.3 + 1e-12),
        (0.5, 0.2), (-0.9, 0.1), (-0.99, 1.5), (2.0, 1e-3), (1.0, 1e-13),
    ]
    TIMES = np.array([0.0, 5e-324, 1e-150, 1e-3, 0.7, 30.0, 1e4, 1e60])

    def _model(self, mu, nu, gamma_coef=0.05):
        return ModelSpec(0.0, BathSpec(0.02, mu, 1.3), DisplacementSpec(gamma_coef, nu))

    @pytest.mark.parametrize("gamma_coef", [0.05, 0.0])
    @pytest.mark.parametrize("mu,nu", BRANCHES)
    def test_one_time_is_the_array_element(self, mu, nu, gamma_coef):
        model = self._model(mu, nu, gamma_coef)
        whole = profile_at(model, self.TIMES)
        kernel = decay_kernel(KernelArgs(0.02, mu, 1.3, self.TIMES))
        for i, t in enumerate(self.TIMES.tolist()):
            one = profile_at(model, t)
            assert (one.r, one.s, one.phi) == (whole.r[i], whole.s[i], whole.phi[i])
            assert decay_kernel(KernelArgs(0.02, mu, 1.3, t)) == kernel[i]

    def test_rows_on_different_branches_equal_one_model_calls(self):
        # every (model, time) pair of BRANCHES x TIMES in one batch: each row
        # of the stacked r and s kernels may take its own branch
        mu, nu = np.array(self.BRANCHES).T
        mu, nu, t = (x.ravel() for x in np.broadcast_arrays(mu[:, None], nu[:, None], self.TIMES))
        batch = _profiles(0.02, mu, 1.3, 0.05, nu, t, "closed_form")
        for i in range(t.size):
            one = profile_at(self._model(mu[i], nu[i]), t[i])
            assert tuple(field[i] for field in batch) == (one.r, one.s, one.phi)

    @pytest.mark.parametrize("name", ["alpha", "mu", "omega_c", "gamma_coef", "nu"])
    @pytest.mark.parametrize("t", [3.0, np.array([0.0, 3.0, 1e4])])
    def test_any_parameter_may_be_an_array(self, name, t):
        params = {"alpha": 0.02, "mu": -0.7, "omega_c": 1.3, "gamma_coef": 0.05, "nu": 0.5}
        values = {"alpha": [0.0025, 0.02, 0.5], "mu": [-0.7, 0.0, 1.5],
                  "omega_c": [0.5, 1.3, 40.0], "gamma_coef": [0.0, 0.05, 1.0],
                  "nu": [0.5, 1.4, 1e-3]}[name]
        batch = _profiles(**{**params, name: np.array(values)}, t=t, backend="closed_form")
        for i, v in enumerate(values):
            p = {**params, name: v}
            model = ModelSpec(0.0, BathSpec(p["alpha"], p["mu"], p["omega_c"]),
                              DisplacementSpec(p["gamma_coef"], p["nu"]))
            one = profile_at(model, t if np.ndim(t) == 0 else t[i])
            assert tuple(field[i] for field in batch) == (one.r, one.s, one.phi)

    @pytest.mark.parametrize("mu,nu", BRANCHES)
    def test_stacked_rows_are_the_one_kernel_formula(self, mu, nu):
        # the plan's r and s rows give decay_kernel's bits for their own arguments
        model = self._model(mu, nu)
        profile = profile_at(model, self.TIMES)
        c, kappa = math.sqrt(0.02 * 0.05), model.kappa
        s_kernel = decay_kernel(KernelArgs(c, kappa, 1.3, self.TIMES))
        assert _bits(profile.r) == _bits(4.0 * decay_kernel(KernelArgs(0.02, mu, 1.3, self.TIMES)))
        assert _bits(profile.s) == _bits(2.0 * s_kernel - numerics.gamma_moment(0.025, nu, 1.3))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


# exponents with numpy's fast paths for float powers (v ** 2.0 is v * v)
# among the draws
_MU = st.one_of(st.sampled_from([-0.5, 0.0, 0.5, 1.0, 2.0]), _uniform(-0.95, 2.0))
_NU = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), _uniform(1e-3, 2.0))
_TIMES = st.lists(
    st.one_of(st.just(0.0), _uniform(-3.0, 3.0).map(lambda e: 10.0**e)), min_size=1, max_size=6
)


class TestQuadratureTable:
    """The quadrature backend evaluates a profile as one DE table: the r
    kernel, the s kernel, the total moment of s(0) and the phi sine moment."""

    @pytest.fixture
    def tables(self, monkeypatch):
        """The number of parts of every DE table the bath layer evaluates."""
        calls = []
        real = bath._de_integral

        def counted(parts, settings):
            calls.append(len(parts))
            return real(parts, settings)

        monkeypatch.setattr(bath, "_de_integral", counted)
        return calls

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        alpha=_uniform(-4.0, 0.0).map(lambda e: 10.0**e), mu=_MU, omega_c=_uniform(0.5, 2.0),
        gamma_coef=st.one_of(st.just(0.0), _uniform(-4.0, 0.0).map(lambda e: 10.0**e)), nu=_NU,
        times=_TIMES,
    )
    def test_equals_the_moments_one_at_a_time(self, alpha, mu, omega_c, gamma_coef, nu, times):
        model = ModelSpec(0.0, BathSpec(alpha, mu, omega_c), DisplacementSpec(gamma_coef, nu))
        t = np.array(times)
        profile = profile_at(model, t, backend="quadrature")
        c, kappa = np.sqrt(alpha * gamma_coef), 0.5 * (mu + nu)
        r = np.maximum(4.0 * kernel_by_quadrature(KernelArgs(alpha, mu, omega_c, t)), 0.0)
        s = (2.0 * kernel_by_quadrature(KernelArgs(c, kappa, omega_c, t))
             - 0.5 * total_moment(gamma_coef, nu, omega_c))
        phi = sine_moment(c, kappa, omega_c, t)
        for got, want in ((profile.r, r), (profile.s, s), (profile.phi, phi)):
            assert got.tobytes() == want.tobytes()

    def test_one_table_per_profile(self, benchmark_model, tables):
        profile_at(benchmark_model, np.geomspace(1e-2, 1e3, 8), backend="quadrature")
        profile_at(benchmark_model, 2.0, backend="quadrature")
        profile_at(benchmark_model, np.geomspace(1e-2, 1e3, 8))
        assert tables == [4, 4]

    def test_one_table_per_series_evaluation(self, benchmark_model, tables):
        # s(0), and with it the overlap, comes from the table's total moment row
        grid = TimeGrid("log", 1e-2, 1e3, 8)
        series = distance_series(benchmark_model, 0.25, 0.0, grid=grid, backend="quadrature")
        assert tables == [4]
        series._evaluate(np.array([0.5, 2.0]))
        assert tables == [4, 4]

    @pytest.mark.parametrize(
        "suite", [validation.check_backend_agreement, validation.check_physicality]
    )
    def test_one_table_per_suite(self, tables, suite):
        assert suite(9).passed
        assert tables == [4]

    def test_unmet_tolerance_names_the_worst_row(self):
        # two models: at t = 1e55 both kernels' level gaps stay above 1e-10
        # relative (the envelope's plateau), at kappa = 12 and t = 10 the sine
        # moment's above 1e-8; every other row's gap is rounding, far below 1e-12
        alpha, mu, gamma_coef = 0.3, -0.2, 0.3
        nu, t = np.array([0.2, 24.2]), np.array([1e55, 10.0])
        harsh = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-12)
        with pytest.raises(ConvergenceError) as raised:
            _ProfilePlan(alpha, mu, 1.0, gamma_coef, nu, "quadrature", harsh)(t)
        c, kappa = math.sqrt(alpha * gamma_coef), 0.5 * (mu + nu)
        alone = []
        for moment in (
            lambda: kernel_by_quadrature(KernelArgs(alpha, mu, 1.0, t), harsh),
            lambda: kernel_by_quadrature(KernelArgs(c, kappa, 1.0, t), harsh),
            lambda: total_moment(gamma_coef, nu, 1.0, harsh),
            lambda: sine_moment(c, kappa, 1.0, t, harsh),
        ):
            try:
                moment()
            except ConvergenceError as error:
                alone.append(str(error))

        def ratio(message):
            gap, tol = re.search(r"level gap (\S+) > (\S+)$", message).groups()
            return float(gap) / float(tol)

        # both kernels fail too, but the sine moment is furthest from its tolerance
        assert len(alone) == 3 and str(raised.value) == max(alone, key=ratio)
        assert str(raised.value).startswith("sine moment (p=12.0, t=")

    def test_mixed_table_equals_each_part_alone(self, monkeypatch):
        # array alpha and mu, float gamma, nu and omega_c; at these times rows
        # leave at levels 1 and 2 (the last, at mu = -0.46 and t = 1e5: a
        # sub-ohmic kernel at omega_c t >~ 1e3 needs level 2)
        rng = np.random.default_rng(5)
        t = np.geomspace(1e-3, 1e5, 40)
        alpha, mu = 10.0 ** rng.uniform(-4.0, 0.0, t.size), rng.uniform(-0.9, 2.0, t.size)
        gamma_coef, nu, omega_c = 0.05, 0.5, 1.0
        counts = []  # rows of each part in the block, whenever rows have left
        real = numerics._spans

        def spy(pieces, bounds, rows):
            counts.append(np.bincount(np.searchsorted(bounds, rows, "right"), minlength=len(bounds)))
            return real(pieces, bounds, rows)

        monkeypatch.setattr(numerics, "_spans", spy)
        r, s, phi = _profiles(alpha, mu, omega_c, gamma_coef, nu, t, "quadrature")
        assert any(((0 < b) & (b < a)).any() for a, b in zip(counts, counts[1:]))
        c, kappa = np.sqrt(alpha * gamma_coef), 0.5 * (mu + nu)
        alone = (
            np.maximum(4.0 * kernel_by_quadrature(KernelArgs(alpha, mu, omega_c, t)), 0.0),
            2.0 * kernel_by_quadrature(KernelArgs(c, kappa, omega_c, t))
            - 0.5 * total_moment(gamma_coef, nu, omega_c),
            sine_moment(c, kappa, omega_c, t),
        )
        for got, want in zip((r, s, phi), alone):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mu,nu", [(1e300, 0.5), (0.5, 1e300)])
    def test_overflow_refused_before_any_node(self, tables, monkeypatch, mu, nu):
        # the table is built, and its row factors refuse it before the level loop
        heads = []
        real = numerics._head_sums
        monkeypatch.setattr(numerics, "_head_sums", lambda *a: heads.append(a) or real(*a))
        model = ModelSpec(1.0, BathSpec(0.01, mu, 1.0), DisplacementSpec(0.05, nu))
        harsh = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-300)
        with pytest.raises(DomainError, match="overflows a double"):
            profile_at(model, np.array([0.5, 3.0]), backend="quadrature", settings=harsh)
        assert tables == [4] and heads == []


class TestProfileLimit:
    def test_benchmark_values(self, benchmark_model):
        lim = profile_limit(benchmark_model)
        assert math.isinf(lim.t)
        assert lim.r == pytest.approx(oracles.SCENARIO_R_INF, rel=1e-12)
        assert lim.s == pytest.approx(oracles.SCENARIO_S_INF, rel=1e-12)
        assert lim.phi == 0.0
        # independent reconstruction from the series-gamma oracle
        r_oracle = 4.0 * 0.0025 * oracles.series_gamma(0.01)
        s_oracle = (
            2.0 * math.sqrt(0.0025 * 0.05) * oracles.series_gamma(0.03)
            - 0.5 * 0.05 * oracles.series_gamma(0.05)
        )
        assert lim.r == pytest.approx(r_oracle, rel=1e-12)
        assert lim.s == pytest.approx(s_oracle, rel=1e-12)

    def test_strong_coupling_values(self, strong_model):
        lim = profile_limit(strong_model)
        assert lim.r == pytest.approx(oracles.STRONG_R_INF, rel=1e-12)
        assert lim.s == pytest.approx(oracles.STRONG_S_INF, rel=1e-12)

    def test_r_inf_example(self):
        m = ModelSpec(
            epsilon=0.0,
            bath=BathSpec(alpha=0.01, mu=0.01, omega_c=1.0),
            displacement=DisplacementSpec(gamma_coef=0.0, nu=1.0),
        )
        assert profile_limit(m).r == pytest.approx(4.0 * 0.01 * oracles.GAMMA_0_01, rel=1e-12)

    def test_vanishing_coupling(self, benchmark_model):
        # s_inf - s(0) scales as sqrt(alpha), r_inf as alpha
        weak = replace(benchmark_model, bath=replace(benchmark_model.bath, alpha=1e-16))
        lim = profile_limit(weak)
        s0 = profile_at(weak, 0.0).s
        assert lim.r == pytest.approx(0.0, abs=1e-9)
        assert lim.s == pytest.approx(s0, abs=1e-6)

    def test_zero_displacement(self):
        m = ModelSpec(
            epsilon=0.0,
            bath=BathSpec(alpha=0.1, mu=0.5, omega_c=1.0),
            displacement=DisplacementSpec(gamma_coef=0.0, nu=0.5),
        )
        lim = profile_limit(m)
        assert lim.s == 0.0 and lim.phi == 0.0

    @pytest.mark.parametrize("mu", [0.0, -0.5])
    def test_ohmic_and_below_refused(self, mu):
        m = ModelSpec(
            epsilon=0.0,
            bath=BathSpec(alpha=0.1, mu=mu, omega_c=1.0),
            displacement=DisplacementSpec(gamma_coef=0.1, nu=0.5),
        )
        with pytest.raises(DomainError, match="distance limit is 0"):
            profile_limit(m)

    def test_overflowing_overlap_moment_refused(self):
        # s(inf) <= r(inf) - Int f^2 / 4 is no double: the limit is refused
        m = ModelSpec(1.0, BathSpec(1.93e-72, 0.5, 4.48e42), DisplacementSpec(0.00918, 29.0))
        with pytest.raises(DomainError, match="s\\(t\\) is not finite"):
            profile_limit(m)

    def test_profiles_approach_the_limit(self):
        # the residual scales as (omega_c t)**(-mu): testable at t = 1e4
        # once mu and kappa are sizable
        rng = np.random.default_rng(21)
        for _ in range(10):
            m = ModelSpec(
                epsilon=0.0,
                bath=BathSpec(
                    alpha=10.0 ** rng.uniform(-3, 0),
                    mu=rng.uniform(0.75, 2.0),
                    omega_c=rng.uniform(0.5, 2.0),
                ),
                displacement=DisplacementSpec(
                    gamma_coef=10.0 ** rng.uniform(-3, 0),
                    nu=rng.uniform(0.75, 2.0),
                ),
            )
            lim = profile_limit(m)
            late = profile_at(m, 1e4 / m.bath.omega_c)
            assert late.r == pytest.approx(lim.r, rel=1e-3)
            assert late.s == pytest.approx(lim.s, rel=1e-3, abs=1e-9)


class TestOverlapProfileConsistency:
    def test_exp_s0_equals_overlap(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = random_model(rng)
            overlap = ground_coherent_overlap(m.displacement, m.bath.omega_c)
            s0 = profile_at(m, 0.0).s
            assert math.exp(s0) == pytest.approx(overlap, rel=1e-12)


class TestQuadratureFormsNoGamma:
    """The quadrature backend is the oracle of the Gamma closed forms, so it
    must reach its values without them."""

    @pytest.fixture
    def no_gamma(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the quadrature route formed a Gamma closed form")

        for module, name in [
            (numerics, "gamma_moment"), (numerics, "_gamma_and_power"), (numerics, "_GAMMA"),
            (numerics, "_POWER"), (numerics, "_GAMMA_AND_POWER"), (bath, "gamma_moment"),
            (bath, "_LGAMMA"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        # a module that imported it by name would bypass the patches above
        monkeypatch.setattr(analysis, "gamma_moment", forbidden, raising=False)

    @pytest.mark.parametrize("mu", [-0.5, 0.0, 1.5], ids=["sub-ohmic", "ohmic", "super-ohmic"])
    def test_series(self, request, mu):
        # the overlap, the pair weights and C_lambda come from the quadrature's s(0)
        model = ModelSpec(0.3, BathSpec(0.05, mu, 1.5), DisplacementSpec(0.2, 0.7))
        grid = TimeGrid("log", 0.5, 40.0, 4)
        closed = distance_series(model, 0.8, 0.15, grid=grid)
        request.getfixturevalue("no_gamma")
        quadrature = distance_series(model, 0.8, 0.15, grid=grid, backend="quadrature")
        for column in ("distance", "abs_a1", "abs_a2"):
            got, want = getattr(quadrature, column), getattr(closed, column)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("mu", [-0.5, 0.0, 1.5], ids=["sub-ohmic", "ohmic", "super-ohmic"])
    def test_profile(self, request, mu):
        model = ModelSpec(0.3, BathSpec(0.05, mu, 1.5), DisplacementSpec(0.2, 0.7))
        t = np.array([0.0, 0.5, 3.0, 40.0])
        closed = profile_at(model, t)
        request.getfixturevalue("no_gamma")
        quadrature = profile_at(model, t, backend="quadrature")
        for got, want in zip((quadrature.r, quadrature.s, quadrature.phi),
                             (closed.r, closed.s, closed.phi)):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-12)

    def test_moments_and_kernel(self, request):
        c, p, omega_c = np.array([0.5, 1.0, 2.0]), np.array([-0.5, 0.0, 1.5]), np.array([1.0, 2.0, 0.5])
        args = KernelArgs(c, p, omega_c, np.array([[0.5], [3.0]]))
        closed = numerics.gamma_moment(c, p + 1.0, omega_c), decay_kernel(args)
        request.getfixturevalue("no_gamma")
        assert total_moment(c, p + 1.0, omega_c) == pytest.approx(closed[0], rel=1e-8)
        assert np.all(np.isfinite(sine_moment(c, p, omega_c, args.t)))
        assert kernel_by_quadrature(args) == pytest.approx(closed[1], rel=1e-8)
