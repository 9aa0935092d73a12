"""Bit golden of the quadrature route: r, s, phi from profile_at with
backend='quadrature' on the 144 models of test_closed_form_golden at t = 0
and 13 log-spaced times in [1e-3, 1e3], hashed with sha256.

Every model serves every one of these times, and none is a locus of the
strict xfails (huge sub-ohmic times, tiny times).  One batch evaluation of
the same rows, as the validation suites make it, must give the same bits.
Any change of a single bit of a quadrature profile fails them.
"""

import numpy as np

from qdephase import profile_at, validation
from test_closed_form_golden import _digest, _models

TIMES = np.concatenate([[0.0], np.logspace(-3.0, 3.0, 13)])
MODELS = [model for model, *_ in _models()]
DIGEST = "cad17fda09a69be35e6c62a7d1fe7467b1d5c1b352dc52cf44a6482d7951cda8"


def test_profiles():
    columns = []
    for model in MODELS:
        profile = profile_at(model, TIMES, backend="quadrature")
        columns += [profile.r, profile.s, profile.phi]
    assert _digest(columns) == DIGEST


def test_one_batch_of_every_row():
    params = np.array([
        (m.bath.alpha, m.bath.mu, m.bath.omega_c, m.displacement.gamma_coef, m.displacement.nu,
         m.epsilon)
        for m in MODELS
    ]).T
    fields = validation._sample_fields(
        np.repeat(params, TIMES.size, axis=1), np.tile(TIMES, len(MODELS)), "quadrature")
    # (field, model, time) -> (model, field, time): the order of test_profiles' columns
    columns = fields.reshape(3, len(MODELS), TIMES.size).transpose(1, 0, 2)
    assert _digest(columns.reshape(-1, TIMES.size)) == DIGEST
