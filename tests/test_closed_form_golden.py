"""Bit goldens of the closed-form route: r, s, phi, decay_kernel and the
distance evaluator on 144 models x 408 times, hashed with sha256.

The models cover every branch of the closed form: mu on both sides of the
small-exponent seam (|p| < 1e-12) and at 5e-8, on both sides of the pole
brace at p = -1/2, and far from both; the mixed exponent kappa = (mu + nu)/2
at and next to 0; a zero displacement (s row prefactor 0).  The times are
400 log-spaced ones in [1e-3, 1e4] plus 0, the least subnormal, 1e-150 and
large times up to 1e140.  The array digest was recorded before the closed
form was split into a per-scenario plan and an evaluation over times (the
one-time digest after it, see SCALAR_DIGEST); any change of a single bit
fails them.
"""

import hashlib

import numpy as np
import pytest

from qdephase import (
    BathSpec,
    DisplacementSpec,
    KernelArgs,
    ModelSpec,
    QubitAmplitudes,
    analysis,
    decay_kernel,
    profile_at,
)

MU = (
    -0.999, -0.9, -0.5000001, -0.5, -0.4999999, -0.3, -1e-3, -5e-8, -2e-12, -1e-12, -5e-13, 0.0,
    5e-13, 1e-12, 2e-12, 5e-8, 1e-7, 1e-3, 0.01, 0.5, 1.0, 1.7, 2.0, 3.0,
)
# (alpha, omega_c, gamma_coef, nu(mu)): the last two put kappa next to and at 0
OTHERS = (
    (0.0025, 1.0, 0.05, lambda mu: 0.05),
    (0.02, 1.3, 0.05, lambda mu: 0.4),
    (0.3, 0.5, 0.0, lambda mu: 1.0),
    (1e-3, 40.0, 0.2, lambda mu: 2.0),
    (0.05, 2.0, 0.1, lambda mu: -mu + 4e-12 if mu < -1e-3 else 0.7),
    (0.01, 0.7, 0.03, lambda mu: max(1e-3, -mu)),
)
SPECIAL_TIMES = np.array([0.0, 5e-324, 1e-150, 1e-8, 1e6, 1e12, 1e60, 1e140])
TIMES = np.concatenate([SPECIAL_TIMES, np.geomspace(1e-3, 1e4, 400)])
# one-time calls: the special times and every 8th log time
SCALAR_TIMES = np.concatenate([SPECIAL_TIMES, TIMES[8::8]])
LAMBDAS = ((0.25, 0.0), (0.8, 0.15), (0.89, 0.7))


def _models():
    for k, (alpha, omega_c, gamma_coef, nu) in enumerate(OTHERS):
        for j, mu in enumerate(MU):
            i = k * len(MU) + j
            bath = BathSpec(alpha, mu, omega_c)
            model = ModelSpec(1.0, bath, DisplacementSpec(gamma_coef, nu(mu)))
            amps = QubitAmplitudes.balanced() if i % 2 else QubitAmplitudes(0.6, 0.8j)
            yield model, LAMBDAS[i % 3], amps, i % 4 == 0


def _evaluator(model, lambdas, amps, normalized):
    return analysis._distance_evaluator(
        model, *lambdas, amps, "closed_form", None, normalized
    )


def _digest(columns) -> str:
    h = hashlib.sha256()
    for column in columns:
        h.update(np.ascontiguousarray(column, dtype=float).tobytes())
    return h.hexdigest()


def test_model_set_covers_every_branch():
    models = [m for m, *_ in _models()]
    assert len(models) == 144 and len(TIMES) == 408
    mus = np.array([m.bath.mu for m in models])
    kappas = np.array([m.kappa for m in models])
    for p in (mus, kappas):
        assert (np.abs(p) < 1e-12).any() and ((np.abs(p) >= 1e-12) & (np.abs(p) < 1e-11)).any()
    assert (mus < -0.5).any() and (mus == -0.5).any() and ((mus > -0.5) & (mus < 0.0)).any()
    assert (mus == 5e-8).any() and (mus > 0.0).any()
    assert (kappas == 0.0).any()


ARRAY_DIGEST = "1991375eaffc9be89bbcef150a2cea01ba4d08f0cddaf31082fdca61b53c234b"
# Not the digest recorded before the plan.  That one read
# f933c64b7908e947855f53fe700eb966b16e5f175076a7fb72194bbd8ac308bf: one time
# went through numpy scalar arithmetic, whose ``** 2`` is libm's pow where an
# array squares, and 2 of these values (r and decay_kernel at alpha 0.02,
# mu -0.5, omega_c 1.3, t = 0.0483...) were one ulp off their array elements.
# The plan evaluates one time as an array of one time, so those 2 values
# moved by one ulp and this digest was recorded after that change; the
# assertion below pins every one-time value to its array element.
SCALAR_DIGEST = "899ebc8bbf3cba9358014010669f4635d05af9c8f676bf05d57e21bda2f84c6e"


def test_arrays():
    columns = []
    for model, lambdas, amps, normalized in _models():
        b = model.bath
        profile = profile_at(model, TIMES)
        kernel = decay_kernel(KernelArgs(b.alpha, b.mu, b.omega_c, TIMES))
        _, dist, abs_a1, abs_a2 = _evaluator(model, lambdas, amps, normalized)(TIMES, moduli=True)
        columns += [profile.r, profile.s, profile.phi, kernel, dist, abs_a1, abs_a2]
    assert _digest(columns) == ARRAY_DIGEST


def test_scalars():
    values, elements = [], []
    for model, lambdas, amps, normalized in _models():
        b = model.bath
        evaluate = _evaluator(model, lambdas, amps, normalized)
        for t in SCALAR_TIMES.tolist():
            profile = profile_at(model, t)
            kernel = decay_kernel(KernelArgs(b.alpha, b.mu, b.omega_c, t))
            values += [profile.r, profile.s, profile.phi, kernel, *evaluate(t, moduli=True)[1:]]
        profile = profile_at(model, SCALAR_TIMES)
        kernel = decay_kernel(KernelArgs(b.alpha, b.mu, b.omega_c, SCALAR_TIMES))
        columns = (
            profile.r, profile.s, profile.phi, kernel, *evaluate(SCALAR_TIMES, moduli=True)[1:])
        elements += [float(v) for row in zip(*columns) for v in row]
    assert _digest([values]) == SCALAR_DIGEST
    assert np.array(values).view(np.uint64).tolist() == np.array(elements).view(np.uint64).tolist()


@pytest.mark.parametrize("i", [0, 11, 50, 77, 143])
def test_scalars_are_array_elements(i):
    model, lambdas, amps, normalized = list(_models())[i]
    profile = profile_at(model, TIMES)
    _, dist, *_ = _evaluator(model, lambdas, amps, normalized)(TIMES, moduli=True)
    for j in range(0, len(TIMES), 37):
        one = profile_at(model, float(TIMES[j]))
        assert (one.r, one.s, one.phi) == (profile.r[j], profile.s[j], profile.phi[j])
        assert _evaluator(model, lambdas, amps, normalized)(float(TIMES[j])) == dist[j]
