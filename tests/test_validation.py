"""Self-validation suites: one array profile evaluation per backend."""

import math

import pytest

from qdephase import DomainError, validation


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
