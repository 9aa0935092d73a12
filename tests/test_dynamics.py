"""Reduced states, coherence factor, and the three distance routes."""

import cmath
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import oracles
from qdephase import (
    BathSpec,
    DisplacementSpec,
    DomainError,
    InitialStateSpec,
    ModelSpec,
    PhysicalityError,
    QubitAmplitudes,
    QubitDensityMatrix,
    coherence_factor,
    distance_same_amplitudes,
    distance_same_environment,
    ground_coherent_overlap,
    normalization_c,
    pair_weights,
    profile_at,
    profile_limit,
    reduced_state,
    trace_distance,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_scenario(rng):
    model = ModelSpec(
        epsilon=rng.uniform(0.0, 2.0),
        bath=BathSpec(
            alpha=10.0 ** rng.uniform(-4, 0),
            mu=rng.uniform(1e-3, 2.0),
            omega_c=rng.uniform(0.5, 2.0),
        ),
        displacement=DisplacementSpec(
            gamma_coef=10.0 ** rng.uniform(-4, 0), nu=rng.uniform(1e-3, 2.0)
        ),
    )
    return model, ground_coherent_overlap(model.displacement, model.bath.omega_c)


def random_amplitudes(rng):
    weight = rng.uniform(0.05, 0.95)
    return QubitAmplitudes(
        math.sqrt(weight) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
        math.sqrt(1 - weight) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
    )


class TestAmplitudesAndStates:
    def test_balanced(self):
        amps = QubitAmplitudes.balanced()
        assert amps.coherence_scale == pytest.approx(0.5, rel=1e-14)

    def test_normalization_enforced(self):
        with pytest.raises(DomainError):
            QubitAmplitudes(1.0, 1.0)

    @pytest.mark.parametrize(
        "b_plus,b_minus",
        [(1e200, 0.0), (0.0, -1e200), (1e155, 1e155), (np.array([INV_SQRT2, 1e200]), np.zeros(2))],
    )
    def test_overflowing_norm_rejected(self, b_plus, b_minus):
        # |b|**2 of a Python float raises OverflowError and an array's warns;
        # the norm check must see inf
        with pytest.raises(DomainError):
            QubitAmplitudes(b_plus, b_minus)

    def test_zero_amplitude_allowed_in_raw_type(self):
        QubitAmplitudes(1.0, 0.0)

    def test_initial_state_rejects_zero_amplitudes(self):
        with pytest.raises(DomainError):
            InitialStateSpec(QubitAmplitudes(1.0, 0.0), 0.3)

    @pytest.mark.parametrize("lam", [-0.1, 1.1, math.nan])
    def test_initial_state_rejects_bad_lambda(self, lam):
        with pytest.raises(DomainError):
            InitialStateSpec(QubitAmplitudes.balanced(), lam)


class TestQubitDensityMatrix:
    def test_valid_matrix(self):
        rho = QubitDensityMatrix([[0.5, 0.5], [0.5, 0.5]])
        assert rho.entries[0, 1] == 0.5

    def test_rejects_non_hermitian(self):
        with pytest.raises(PhysicalityError):
            QubitDensityMatrix([[0.5, 0.2], [0.3, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(PhysicalityError):
            QubitDensityMatrix([[0.6, 0.0], [0.0, 0.5]])

    def test_rejects_negative_determinant(self):
        with pytest.raises(PhysicalityError):
            QubitDensityMatrix([[0.3, 0.6], [0.6, 0.7]])

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            QubitDensityMatrix([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_repr_rebuilds_the_matrix(self):
        rho = QubitDensityMatrix([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]])
        rebuilt = eval(repr(rho), {"QubitDensityMatrix": QubitDensityMatrix})
        assert repr(rho).startswith("QubitDensityMatrix([[")
        assert np.array_equal(rebuilt.entries, rho.entries)

    def test_entries_read_only(self):
        rho = QubitDensityMatrix([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 2.0


class TestNormalization:
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_endpoints_are_unity(self, lam):
        for overlap in (0.1, 0.5, 1.0):
            assert normalization_c(lam, overlap) == pytest.approx(1.0, rel=1e-14)

    def test_reference_value(self):
        value = normalization_c(0.25, oracles.OVERLAP_REFERENCE)
        assert value == pytest.approx(oracles.SCENARIO_C_QUARTER, rel=1e-12)
        # direct arithmetic with the rounded overlap
        assert normalization_c(0.25, 0.61461) == pytest.approx(
            math.sqrt(0.625 + 0.375 * 0.61461), rel=1e-14
        )

    @pytest.mark.parametrize(
        "lam,overlap", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, math.nan), (0.5, 1.5)]
    )
    def test_domain(self, lam, overlap):
        with pytest.raises(DomainError):
            normalization_c(lam, overlap)

    def test_orthogonal_branches(self):
        # overlap 0 (an underflowed exp(s(0))) is legal: C^2 = (1-lam)^2 + lam^2
        assert normalization_c(0.5, 0.0) == math.sqrt(0.5)


class TestCoherenceFactor:
    def test_uncorrelated_at_t0(self, benchmark_model):
        profile = profile_at(benchmark_model, 0.0)
        overlap = ground_coherent_overlap(benchmark_model.displacement, 1.0)
        state = InitialStateSpec(QubitAmplitudes.balanced(), 0.0)
        assert coherence_factor(state, profile, 1.0, overlap) == pytest.approx(1.0, abs=1e-14)

    def test_reference_value_at_t0(self, benchmark_model):
        profile = profile_at(benchmark_model, 0.0)
        overlap = ground_coherent_overlap(benchmark_model.displacement, 1.0)
        state = InitialStateSpec(QubitAmplitudes.balanced(), 0.25)
        value = coherence_factor(state, profile, 1.0, overlap)
        assert value.imag == pytest.approx(0.0, abs=1e-15)
        assert value.real == pytest.approx(oracles.SCENARIO_A_QUARTER_T0, rel=1e-12)

    def test_uncorrelated_time_dependence(self, benchmark_model):
        overlap = ground_coherent_overlap(benchmark_model.displacement, 1.0)
        state = InitialStateSpec(QubitAmplitudes.balanced(), 0.0)
        for t in (0.5, 3.0):
            profile = profile_at(benchmark_model, t)
            value = coherence_factor(state, profile, benchmark_model.epsilon, overlap)
            expected = cmath.exp(-2j * benchmark_model.epsilon * t) * math.exp(-profile.r)
            assert value == pytest.approx(expected, rel=1e-13)

    def test_full_correlation_modulus(self, benchmark_model):
        overlap = ground_coherent_overlap(benchmark_model.displacement, 1.0)
        state = InitialStateSpec(QubitAmplitudes.balanced(), 1.0)
        for t in (0.0, 1.0, 10.0):
            profile = profile_at(benchmark_model, t)
            value = coherence_factor(state, profile, 0.0, overlap)
            assert abs(value) == pytest.approx(math.exp(profile.s - profile.r), rel=1e-13)

    def test_overflowing_free_phase_is_a_domain_error(self, benchmark_model):
        overlap = ground_coherent_overlap(benchmark_model.displacement, 1.0)
        state = InitialStateSpec(QubitAmplitudes.balanced(), 0.25)
        profile = profile_at(benchmark_model, np.array([1.0, 1e4]))
        with pytest.raises(DomainError, match="overflows"):
            coherence_factor(state, profile, 1e305, overlap)

    @pytest.mark.parametrize("epsilon", [1e305, np.array([1.0, 1e305, 2.0])])
    def test_overflowing_free_phase_names_the_epsilon(self, benchmark_model, epsilon):
        overlap = ground_coherent_overlap(benchmark_model.displacement, 1.0)
        state = InitialStateSpec(QubitAmplitudes.balanced(), 0.25)
        profile = profile_at(benchmark_model, np.array([1.0, 1e4, 2.0]))
        with pytest.raises(DomainError) as raised:
            coherence_factor(state, profile, epsilon, overlap)
        # an array epsilon is named by its first element that overflows
        assert str(raised.value) == "free phase 2*epsilon*t overflows a double (epsilon=1e+305)"

    def test_t0_factor_real_and_unit_only_when_uncorrelated(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            model, overlap = random_scenario(rng)
            profile = profile_at(model, 0.0)
            lam = rng.uniform(0.01, 1.0)
            state = InitialStateSpec(QubitAmplitudes.balanced(), lam)
            value = coherence_factor(state, profile, model.epsilon, overlap)
            assert abs(value.imag) < 1e-14
            expected = (1 - lam + lam * overlap) / normalization_c(lam, overlap)
            assert value.real == pytest.approx(expected, rel=1e-12)
            # |A(0)| = 1 only for lam = 0 or a trivial displacement
            if overlap < 1.0 - 1e-12:
                assert abs(value) < 1.0

    def test_physicality_random(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            model, overlap = random_scenario(rng)
            state = InitialStateSpec(random_amplitudes(rng), rng.uniform(0.0, 1.0))
            profile = profile_at(model, rng.uniform(0.0, 100.0))
            value = coherence_factor(state, profile, model.epsilon, overlap)
            assert abs(value) <= 1.0 + 1e-9

    def test_limit_profile_has_unit_phase(self, benchmark_model):
        overlap = ground_coherent_overlap(benchmark_model.displacement, 1.0)
        state = InitialStateSpec(QubitAmplitudes.balanced(), 0.6)
        limit = profile_limit(benchmark_model)
        value = coherence_factor(state, limit, 1.0, overlap)
        assert value.imag == pytest.approx(0.0, abs=1e-15)


class TestReducedState:
    def test_pure_excited_edge(self):
        rho = reduced_state(QubitAmplitudes(1.0, 0.0), 0.5 + 0.1j)
        assert np.allclose(rho.entries, [[1.0, 0.0], [0.0, 0.0]])

    def test_balanced_full_coherence(self):
        rho = reduced_state(QubitAmplitudes.balanced(), 1.0)
        assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)))

    def test_reference_entries(self):
        rho = reduced_state(QubitAmplitudes.balanced(), oracles.SCENARIO_A_QUARTER_T0)
        assert rho.entries[0, 1].real == pytest.approx(0.5 * oracles.SCENARIO_A_QUARTER_T0, rel=1e-12)
        det = np.linalg.det(rho.entries).real
        assert det >= 0.0

    def test_rejects_superunit_coherence(self):
        with pytest.raises(PhysicalityError):
            reduced_state(QubitAmplitudes.balanced(), 1.0 + 1e-8)

    def test_roundoff_band_is_renormalized(self):
        rho = reduced_state(QubitAmplitudes.balanced(), (1.0 + 5e-10) * cmath.exp(0.3j))
        assert abs(rho.entries[0, 1]) <= 0.5 + 1e-15


class TestTraceDistance:
    def test_identical_states(self):
        rho = QubitDensityMatrix([[0.7, 0.1], [0.1, 0.3]])
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        rho1 = QubitDensityMatrix([[1.0, 0.0], [0.0, 0.0]])
        rho2 = QubitDensityMatrix([[0.0, 0.0], [0.0, 1.0]])
        assert trace_distance(rho1, rho2) == pytest.approx(1.0, rel=1e-14)

    def test_closed_form_reference(self):
        rho1 = QubitDensityMatrix([[0.6, 0.2], [0.2, 0.4]])
        rho2 = QubitDensityMatrix([[0.5, 0.0], [0.0, 0.5]])
        assert trace_distance(rho1, rho2) == pytest.approx(math.sqrt(0.01 + 0.04), rel=1e-14)

    def test_accepts_plain_arrays(self):
        assert trace_distance(
            np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        ) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_arrays_that_are_not_two_by_two(self):
        with pytest.raises(DomainError, match="must be 2x2"):
            trace_distance(np.eye(3), np.eye(3))

    def test_rejects_non_hermitian_arrays(self):
        with pytest.raises(DomainError):
            trace_distance(np.array([[0.5, 0.4], [0.1, 0.5]]), np.diag([0.5, 0.5]))

    def test_matches_two_by_two_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            rho1 = reduced_state(random_amplitudes(rng), rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 7)))
            rho2 = reduced_state(random_amplitudes(rng), rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 7)))
            diff = rho1.entries - rho2.entries
            closed = math.sqrt(diff[0, 0].real ** 2 + abs(diff[0, 1]) ** 2)
            assert trace_distance(rho1, rho2) == pytest.approx(closed, abs=1e-12)

    def test_metric_axioms(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            states = [
                reduced_state(
                    random_amplitudes(rng),
                    rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 7)),
                )
                for _ in range(3)
            ]
            d01 = trace_distance(states[0], states[1])
            d10 = trace_distance(states[1], states[0])
            d02 = trace_distance(states[0], states[2])
            d12 = trace_distance(states[1], states[2])
            assert d01 == d10
            assert 0.0 <= d01 <= 1.0
            assert d01 <= d02 + d12 + 1e-12


class TestDistanceSameEnvironment:
    def test_equal_amplitudes(self):
        amps = QubitAmplitudes.balanced()
        assert distance_same_environment(amps, amps, 0.7) == 0.0

    def test_zero_coherence_leaves_population_gap(self):
        b1 = QubitAmplitudes(math.sqrt(0.7), math.sqrt(0.3))
        b2 = QubitAmplitudes(math.sqrt(0.3), math.sqrt(0.7))
        assert distance_same_environment(b1, b2, 0.0) == pytest.approx(0.4, rel=1e-13)

    def test_matches_generic_route(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            b1, b2 = random_amplitudes(rng), random_amplitudes(rng)
            factor = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 7))
            closed = distance_same_environment(b1, b2, factor)
            generic = trace_distance(reduced_state(b1, factor), reduced_state(b2, factor))
            assert closed == pytest.approx(generic, abs=1e-12)

    def test_monotone_in_coherence_modulus(self):
        b1 = QubitAmplitudes(math.sqrt(0.7), math.sqrt(0.3))
        b2 = QubitAmplitudes(math.sqrt(0.4), math.sqrt(0.6))
        values = [distance_same_environment(b1, b2, a) for a in np.linspace(0, 1, 30)]
        assert all(y >= x for x, y in zip(values, values[1:]))

    def test_contraction_under_decaying_coherence(self):
        # shared environment state: D(t) proportional decay through |A(t)|
        rng = np.random.default_rng(19)
        for _ in range(100):
            model = ModelSpec(
                epsilon=rng.uniform(0, 2),
                bath=BathSpec(
                    alpha=10.0 ** rng.uniform(-4, 0),
                    mu=rng.uniform(1e-3, 1.0),
                    omega_c=rng.uniform(0.5, 2.0),
                ),
                displacement=DisplacementSpec(gamma_coef=0.0, nu=1.0),
            )
            b1, b2 = random_amplitudes(rng), random_amplitudes(rng)
            times = np.geomspace(1e-3, 1e3, 40)
            factors = [
                cmath.exp(-2j * model.epsilon * t) * math.exp(-profile_at(model, float(t)).r)
                for t in times
            ]
            d0 = distance_same_environment(b1, b2, 1.0)
            values = [distance_same_environment(b1, b2, a) for a in factors]
            assert all(v <= d0 + 1e-14 for v in values)


class TestPairWeights:
    def test_equal_weights_vanish(self):
        w = pair_weights(0.4, 0.4, 0.7)
        assert w.a == 0.0 and w.b == 0.0

    def test_extreme_pair(self):
        w = pair_weights(1.0, 0.0, 0.37)
        assert w.a == pytest.approx(-1.0, rel=1e-14)
        assert w.b == pytest.approx(1.0, rel=1e-14)

    def test_reference_values(self):
        w = pair_weights(0.25, 0.0, oracles.OVERLAP_REFERENCE)
        assert w.a == pytest.approx(oracles.SCENARIO_PAIR_A, rel=1e-12)
        assert w.b == pytest.approx(oracles.SCENARIO_PAIR_B, rel=1e-12)


class TestDistanceSameAmplitudes:
    def test_degenerate_pair_is_zero(self, benchmark_model):
        w = pair_weights(0.3, 0.3, 0.5)
        profile = profile_at(benchmark_model, 2.0)
        assert distance_same_amplitudes(w, profile, 0.5) == 0.0

    def test_initial_value(self, benchmark_model):
        overlap = ground_coherent_overlap(benchmark_model.displacement, 1.0)
        w = pair_weights(0.25, 0.0, overlap)
        profile = profile_at(benchmark_model, 0.0)
        value = distance_same_amplitudes(w, profile, 0.5)
        assert value == pytest.approx(0.5 * abs(w.a + w.b * overlap), rel=1e-13)
        assert value == pytest.approx(oracles.SCENARIO_D0, rel=1e-12)

    def test_long_time_value(self, benchmark_model):
        overlap = ground_coherent_overlap(benchmark_model.displacement, 1.0)
        w = pair_weights(0.25, 0.0, overlap)
        limit = profile_limit(benchmark_model)
        value = distance_same_amplitudes(w, limit, 0.5)
        assert value == pytest.approx(oracles.SCENARIO_D_INF, rel=1e-12)

    def test_matches_explicit_formula(self, benchmark_model):
        # e^(-r) sqrt(a^2 + b^2 e^(2s) + 2ab e^s cos(2 phi)) at moderate values
        overlap = ground_coherent_overlap(benchmark_model.displacement, 1.0)
        w = pair_weights(0.6, 0.1, overlap)
        for t in (0.3, 2.0, 30.0):
            p = profile_at(benchmark_model, t)
            explicit = 0.5 * math.exp(-p.r) * math.sqrt(
                w.a**2
                + w.b**2 * math.exp(2 * p.s)
                + 2 * w.a * w.b * math.exp(p.s) * math.cos(2 * p.phi)
            )
            assert distance_same_amplitudes(w, p, 0.5) == pytest.approx(explicit, rel=1e-12)

    def test_matches_factor_difference_and_generic(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            model, overlap = random_scenario(rng)
            lam1, lam2 = rng.uniform(0, 1), rng.uniform(0, 1)
            amps = random_amplitudes(rng)
            profile = profile_at(model, rng.uniform(0.0, 50.0))
            s1 = InitialStateSpec(amps, lam1)
            s2 = InitialStateSpec(amps, lam2)
            a1 = coherence_factor(s1, profile, model.epsilon, overlap)
            a2 = coherence_factor(s2, profile, model.epsilon, overlap)
            w = pair_weights(lam1, lam2, overlap)
            closed = distance_same_amplitudes(w, profile, amps.coherence_scale)
            assert closed == pytest.approx(
                amps.coherence_scale * abs(a1 - a2), abs=1e-12
            )
            generic = trace_distance(reduced_state(amps, a1), reduced_state(amps, a2))
            assert closed == pytest.approx(generic, abs=1e-12)

    def test_bscale_domain(self, benchmark_model):
        profile = profile_at(benchmark_model, 1.0)
        with pytest.raises(DomainError):
            distance_same_amplitudes(pair_weights(0.3, 0.1, 0.5), profile, 0.7)


class TestEpsilonInvariance:
    def test_distances_do_not_depend_on_splitting(self, benchmark_model):
        overlap = ground_coherent_overlap(benchmark_model.displacement, 1.0)
        amps = QubitAmplitudes.balanced()
        w = pair_weights(0.25, 0.0, overlap)
        references = None
        for epsilon in (0.0, 1.0, 10.0):
            model = replace(benchmark_model, epsilon=epsilon)
            values = []
            for t in (0.0, 0.7, 5.0, 80.0):
                profile = profile_at(model, t)
                s1 = InitialStateSpec(amps, 0.25)
                s2 = InitialStateSpec(amps, 0.0)
                a1 = coherence_factor(s1, profile, epsilon, overlap)
                a2 = coherence_factor(s2, profile, epsilon, overlap)
                values.append(distance_same_amplitudes(w, profile, 0.5))
                values.append(trace_distance(reduced_state(amps, a1), reduced_state(amps, a2)))
                values.append(distance_same_environment(amps, random_b(), a1))
            if references is None:
                references = values
            else:
                assert all(
                    abs(v - ref) <= 1e-12 for v, ref in zip(values, references)
                )


def random_b():
    return QubitAmplitudes(math.sqrt(0.8), math.sqrt(0.2))


def _stack_inputs(n, seed=23):
    """Two lists of n random amplitudes and n factors with moduli up to the
    roundoff band, where reduced_state rescales onto the unit disc."""
    rng = np.random.default_rng(seed)
    amps = [random_amplitudes(rng) for _ in range(n)]
    amps_b = [random_amplitudes(rng) for _ in range(n)]
    return amps, amps_b, rng.uniform(0.0, 1.0 + 5e-10, n) * np.exp(1j * rng.uniform(0.0, 7.0, n))


class TestStacks:
    """Stacked inputs give what per-element scalar calls give."""

    AMPS, AMPS_B, FACTORS = _stack_inputs(60)

    @staticmethod
    def stacked(amps):
        return QubitAmplitudes(np.array([a.b_plus for a in amps]), np.array([a.b_minus for a in amps]))

    def test_reduced_state(self):
        stack = reduced_state(self.stacked(self.AMPS), self.FACTORS).entries
        assert stack.shape == (60, 2, 2)
        for amps, factor, entries in zip(self.AMPS, self.FACTORS, stack):
            np.testing.assert_allclose(
                entries, reduced_state(amps, complex(factor)).entries, rtol=0.0, atol=1e-15
            )

    def test_trace_distance_is_bitwise_on_the_same_entries(self):
        rho1 = reduced_state(self.stacked(self.AMPS), self.FACTORS)
        rho2 = reduced_state(self.stacked(self.AMPS_B), self.FACTORS[::-1])
        for pair in ((rho1, rho2), (rho1.entries, rho2.entries)):
            stacked = trace_distance(*pair)
            assert stacked.shape == (60,)
            singles = [trace_distance(QubitDensityMatrix(a), QubitDensityMatrix(b))
                       for a, b in zip(rho1.entries, rho2.entries)]
            assert stacked.tolist() == singles

    def test_distance_same_environment(self):
        stacked = distance_same_environment(self.stacked(self.AMPS), self.stacked(self.AMPS_B), self.FACTORS)
        singles = [distance_same_environment(a, b, complex(f))
                   for a, b, f in zip(self.AMPS, self.AMPS_B, self.FACTORS)]
        np.testing.assert_allclose(stacked, singles, rtol=0.0, atol=1e-15)

    def test_scalar_calls_return_floats(self):
        amps, amps_b = self.AMPS[0], self.AMPS_B[0]
        rho = reduced_state(amps, 0.3j)
        assert rho.entries.shape == (2, 2)
        assert type(trace_distance(rho, reduced_state(amps_b, 0.3j))) is float
        assert type(distance_same_environment(amps, amps_b, 0.3j)) is float

    @pytest.mark.parametrize(
        "bad,error,message",
        [
            ([[np.nan, 0.0], [0.0, 1.0]], DomainError, "density matrix entries must be finite"),
            ([[0.5, 0.2], [0.3, 0.5]], PhysicalityError, "density matrix is not Hermitian within 1e-12"),
            ([[0.6, 0.0], [0.0, 0.5]], PhysicalityError,
             "density matrix trace differs from 1 by more than 1e-12"),
            ([[0.3, 0.6], [0.6, 0.7]], PhysicalityError,
             "density matrix is not positive semidefinite (det = -1.500e-01)"),
            # det = -1e-14 passes the PSD check, |rho01| > sqrt(rho11*rho22) = 0 does not
            ([[1.0, 1e-7], [1e-7, 0.0]], PhysicalityError,
             "off-diagonal element exceeds sqrt(rho11*rho22)"),
        ],
    )
    @pytest.mark.parametrize("in_stack", [False, True])
    def test_one_bad_matrix_raises_the_single_matrix_error(self, bad, error, message, in_stack):
        valid = [[0.5, 0.5], [0.5, 0.5]]
        entries = [valid, bad, valid] if in_stack else bad
        with pytest.raises(error) as info:
            QubitDensityMatrix(entries)
        assert str(info.value) == message

    def test_superunit_factor_in_a_stack_names_its_modulus(self):
        factors = np.array([0.5, 1.0 + 1e-8, 0.2])
        with pytest.raises(PhysicalityError, match=re.escape(f"modulus {abs(1.0 + 1e-8)!r} > 1")):
            reduced_state(QubitAmplitudes.balanced(), factors)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_initial_state_refuses_an_array_weight_with_one_bad_element(self, bad):
        with pytest.raises(DomainError, match=f"got {bad}"):
            InitialStateSpec(QubitAmplitudes.balanced(), np.array([0.2, bad, 0.7]))

    def test_array_amplitudes_are_checked_elementwise(self):
        with pytest.raises(DomainError, match="got 2.0"):
            QubitAmplitudes(np.array([INV_SQRT2, 1.0]), np.array([INV_SQRT2, 1.0]))
        with pytest.raises(DomainError, match="non-zero amplitudes"):
            InitialStateSpec(QubitAmplitudes(np.array([INV_SQRT2, 1.0]), np.array([INV_SQRT2, 0.0])), 0.5)
