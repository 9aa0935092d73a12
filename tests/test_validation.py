"""Self-validation suites: one array profile evaluation per backend."""

import math

import numpy as np
import pytest

from qdephase import DomainError, bath, dynamics, validation
from qdephase.cli import main


@pytest.fixture
def profile_calls(monkeypatch):
    """Record (backend, rows) of every bath evaluation the suites make."""
    calls = []
    real = validation._ProfilePlan

    def counted(*args):
        plan = real(*args)

        def evaluate(t):
            calls.append((args[5], t.size))
            return plan(t)

        return evaluate

    monkeypatch.setattr(validation, "_ProfilePlan", counted)
    return calls


@pytest.mark.parametrize("samples", [1, 5, 100])
@pytest.mark.parametrize(
    "suite,backends",
    [
        (validation.check_backend_agreement, lambda n: [("closed_form", n), ("quadrature", n)]),
        # odd samples run on the quadrature backend
        (
            validation.check_physicality,
            lambda n: [("closed_form", n - n // 2), ("quadrature", n // 2)][: min(n, 2)],
        ),
        # s(0) comes from the quadrature's total moments, which need no plan
        (validation.check_overlap_consistency, lambda n: []),
        (validation.check_distance_equivalence, lambda n: [("closed_form", n)]),
    ],
)
def test_one_profile_evaluation_per_backend(profile_calls, suite, backends, samples):
    # a loop over samples would make one call per sample instead
    assert suite(samples).passed
    assert profile_calls == backends(samples)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1.0])
def test_agreement_tolerance_must_be_finite_and_positive(rel_tol):
    # nan would pass every sample, and 0 or -1 would fall back to the absolute floor
    with pytest.raises(DomainError):
        validation.check_backend_agreement(2, rel_tol=rel_tol)


def test_physicality_lets_a_programming_error_surface(monkeypatch):
    # only a sample's own verdict is a physicality failure; a TypeError from a
    # broken call inside the stacked route is a defect and must surface
    def broken(rho):
        raise TypeError("broken density check")

    monkeypatch.setattr(validation, "_density_checks", broken)
    with pytest.raises(TypeError, match="broken density check"):
        validation.check_physicality(3)


def test_physicality_counts_a_library_error_as_a_failure(monkeypatch):
    # one unphysical sample among 7 is one failure: r = s = -1, phi = 0 on the
    # first sample give |A| = ((1 - lam) e + lam) / C > 1
    real = validation._ProfilePlan

    def one_unphysical(*args):
        def evaluate(t):
            r, s, phi = (np.array(x, dtype=float) for x in real(*args)(t))
            if args[5] == "closed_form":
                r[0], s[0], phi[0] = -1.0, -1.0, 0.0
            return r, s, phi

        return evaluate

    monkeypatch.setattr(validation, "_ProfilePlan", one_unphysical)
    result = validation.check_physicality(7)
    assert result.failures == 1 and not result.passed
    assert result.worst > 1e-9


SUITES = [
    validation.check_backend_agreement,
    validation.check_physicality,
    validation.check_overlap_consistency,
    validation.check_distance_equivalence,
]


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("samples", [-3, 0, 2.5, "5", None])
def test_sample_count_must_be_a_positive_integer(suite, samples):
    # -3 printed 'pass -3/-3', 0 passed vacuously and 2.5 raised a raw TypeError
    with pytest.raises(DomainError, match="sample count"):
        suite(samples)


@pytest.mark.parametrize("suite", [*SUITES, validation.run_all])
@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_seed_must_be_a_non_negative_integer(suite, seed):
    # -1 raised numpy's raw ValueError, 1.5 a raw TypeError
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        suite(2, seed=seed)


ROUTE_FUNCTIONS = (
    "coherence_factor",
    "_reduced_entries",
    "_density_checks",
    "reduced_state",
    "trace_distance",
    "distance_same_amplitudes",
    "distance_same_environment",
)


@pytest.mark.parametrize(
    "suite,expected",
    [
        # reduced_state assembles its stack with _reduced_entries and checks it with _density_checks
        (validation.check_physicality,
         {"coherence_factor": 1, "_reduced_entries": 1, "_density_checks": 1}),
        (validation.check_overlap_consistency, {}),
        (validation.check_distance_equivalence,
         {"coherence_factor": 1, "_reduced_entries": 1, "_density_checks": 1, "reduced_state": 1,
          "trace_distance": 1, "distance_same_amplitudes": 1, "distance_same_environment": 1}),
    ],
)
@pytest.mark.parametrize("samples", [1, 9])
def test_one_call_per_route_whatever_the_sample_count(monkeypatch, suite, expected, samples):
    calls = dict.fromkeys(ROUTE_FUNCTIONS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ROUTE_FUNCTIONS:
        # patch both modules: reduced_state looks its helpers up in dynamics
        for module in (validation, dynamics):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(dynamics, name)))
    assert suite(samples).passed
    assert {k: v for k, v in calls.items() if v} == expected


def test_overlap_identity_compares_two_routes():
    # s(0) by quadrature against the closed-form overlap: a float compared
    # with itself would read worst 0
    result = validation.check_overlap_consistency(100)
    assert result.passed and result.worst > 0.0


@pytest.mark.parametrize("samples", [1, 5, 100])
def test_one_table_of_total_moments(monkeypatch, samples):
    # s(0) of every sample and the two long-time totals of the mu > 0 samples
    calls = []
    real = validation.total_moment

    def counted(c, p, omega_c):
        calls.append(np.size(c))
        return real(c, p, omega_c)

    monkeypatch.setattr(validation, "total_moment", counted)
    results = validation.run_all(samples)
    assert all(result.passed for result in results)
    long_time = results[3]
    assert long_time.name == "long-time-limits"
    assert calls == [samples + 2 * long_time.samples]


def _s_inf_without_s0(alpha, mu, omega_c, gamma_coef, nu):
    s0, r_inf, s_inf = bath.limit_exponents(alpha, mu, omega_c, gamma_coef, nu)
    return s0, r_inf, s_inf - s0


def _r_inf_with_omega_c_to_mu_plus_1(alpha, mu, omega_c, gamma_coef, nu):
    s0, r_inf, s_inf = bath.limit_exponents(alpha, mu, omega_c, gamma_coef, nu)
    return s0, r_inf * omega_c, s_inf


@pytest.mark.parametrize("mutation", [_s_inf_without_s0, _r_inf_with_omega_c_to_mu_plus_1])
def test_a_mutated_long_time_route_fails_validate(monkeypatch, capsys, mutation):
    monkeypatch.setattr(validation, "limit_exponents", mutation)
    long_time = validation.run_all(100)[3]
    assert long_time.samples > 50 and long_time.failures == long_time.samples
    assert main(["validate", "--samples", "8"]) == 1
    out = capsys.readouterr().out
    assert "long-time-limits: FAIL" in out and "overlap-consistency: pass" in out
