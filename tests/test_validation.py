"""Self-validation suites: one array profile evaluation per backend."""

import math

import pytest

from qdephase import DomainError, PhysicalityError, validation


@pytest.fixture
def profile_calls(monkeypatch):
    """Record (backend, rows) of every bath evaluation the suites make."""
    calls = []
    real = validation._profiles

    def counted(*args):
        calls.append((args[6], args[5].size))
        return real(*args)

    monkeypatch.setattr(validation, "_profiles", counted)
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
        (validation.check_overlap_consistency, lambda n: [("closed_form", n)]),
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
    # only a library error is a physicality failure; a TypeError from a
    # broken call is a defect and must not be counted as one
    def broken(amps, factor):
        raise TypeError("broken reduced_state")

    monkeypatch.setattr(validation, "reduced_state", broken)
    with pytest.raises(TypeError, match="broken reduced_state"):
        validation.check_physicality(3)


def test_physicality_counts_a_library_error_as_a_failure(monkeypatch):
    def unphysical(amps, factor):
        raise PhysicalityError("not a density matrix")

    monkeypatch.setattr(validation, "reduced_state", unphysical)
    result = validation.check_physicality(3)
    assert result.failures == 3 and not result.passed
