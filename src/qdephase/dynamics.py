"""Reduced qubit states, the decoherence factor, and trace distances.

The reduced 2x2 state keeps its populations |b+|^2, |b-|^2 forever; only the
coherence evolves, multiplied by the factor

    A_lambda(t) = (1/C_lambda) e^(-2 i eps t) e^(-r)
                  [ (1 - lambda) + lambda e^(-2 i phi) e^(s) ]

with C_lambda the normalization of the correlated environment superposition.
Exponents are grouped as exp(-r) and exp(s - r) (both <= 1 by a
Cauchy-Schwarz argument on the defining integrals) so nothing overflows even
deep in the strong-coupling regime.

Three distance routes are provided: the generic eigenvalue trace distance
(the reference), and the closed forms for a shared environment state and for
shared amplitudes (the fast paths).  They agree to 1e-12 by construction.
Every route takes arrays, which broadcast elementwise, and ``(..., 2, 2)``
stacks of density matrices; scalars keep Python arithmetic and give floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import DecoherenceProfile
from .errors import DomainError, PhysicalityError
from .numerics import _first_failing, all_true

__all__ = [
    "QubitAmplitudes",
    "InitialStateSpec",
    "QubitDensityMatrix",
    "PairWeights",
    "normalization_c",
    "unphased_coherence_factor",
    "coherence_factor",
    "reduced_state",
    "trace_distance",
    "distance_same_environment",
    "pair_weights",
    "distance_same_amplitudes",
]

_NORM_TOL = 1e-12
_ABS_A_TOL = 1e-9


@dataclass(frozen=True)
class QubitAmplitudes:
    """Superposition amplitudes of the excited/ground qubit branches.

    Must be normalized: |b_plus|^2 + |b_minus|^2 = 1 within 1e-12.  Zero
    amplitudes are legal here (edge states); the correlated-scenario
    constructor InitialStateSpec rejects them.  Arrays hold one state per
    element.
    """

    b_plus: complex | np.ndarray
    b_minus: complex | np.ndarray

    def __post_init__(self) -> None:
        # x * x, not x ** 2: a float power raises OverflowError, a product is inf
        with np.errstate(over="ignore"):
            norm = abs(self.b_plus) * abs(self.b_plus) + abs(self.b_minus) * abs(self.b_minus)
        if not all_true(ok := abs(norm - 1.0) <= _NORM_TOL):
            raise DomainError(
                f"amplitudes must satisfy |b+|^2 + |b-|^2 = 1 within {_NORM_TOL}, "
                f"got {_first_failing(norm, ok)!r}"
            )

    @classmethod
    def balanced(cls) -> "QubitAmplitudes":
        """The equal-weight superposition b+ = b- = 1/sqrt(2)."""
        return _BALANCED

    @property
    def coherence_scale(self) -> float | np.ndarray:
        """|b+ b-*|, the prefactor of every off-diagonal element (<= 1/2)."""
        return abs(self.b_plus) * abs(self.b_minus)


# one shared instance: the type is immutable, and checking it once saves every series a check
_BALANCED = QubitAmplitudes(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class InitialStateSpec:
    """A correlated initial preparation: amplitudes plus correlation weight.

    ``lam = 0`` is the uncorrelated product state, ``lam = 1`` the maximally
    correlated member of the family.  Both amplitudes must be non-zero for a
    correlated scenario to be meaningful.  ``lam`` may be an array that
    broadcasts against the amplitudes.
    """

    amplitudes: QubitAmplitudes
    lam: float | np.ndarray

    def __post_init__(self) -> None:
        _check_unit("correlation weight", self.lam)
        if not all_true(self.amplitudes.coherence_scale != 0.0):
            raise DomainError("correlated scenarios need non-zero amplitudes on both branches")


_DENSITY_ERRORS = (
    (DomainError, "density matrix entries must be finite"),
    (PhysicalityError, "density matrix is not Hermitian within 1e-12"),
    (PhysicalityError, "density matrix trace differs from 1 by more than 1e-12"),
    (PhysicalityError, "density matrix is not positive semidefinite (det = {:.3e})"),
    (PhysicalityError, "off-diagonal element exceeds sqrt(rho11*rho22)"),
)


def _density_checks(rho: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The definition of a density matrix: one mask per condition of
    _DENSITY_ERRORS, true where a matrix of the ``(..., 2, 2)`` stack meets
    it, in that order; and the determinants."""
    with np.errstate(over="ignore", invalid="ignore"):
        p, q, off = rho[..., 0, 0].real, rho[..., 1, 1].real, rho[..., 0, 1]
        det = (rho[..., 0, 0] * rho[..., 1, 1] - off * rho[..., 1, 0]).real
        checks = (
            np.isfinite(rho.view(float)).all((-2, -1)),
            abs(rho - rho.conj().swapaxes(-2, -1)).max((-2, -1)) <= _NORM_TOL,
            abs(p + q - 1.0) <= _NORM_TOL,
            det >= -_NORM_TOL,
            abs(off) <= np.sqrt(np.maximum(p, 0.0) * np.maximum(q, 0.0)) + _NORM_TOL,
        )
    return checks, det


class QubitDensityMatrix:
    """A validated 2x2 density matrix (Hermitian, unit trace, PSD), or a
    ``(..., 2, 2)`` stack of them.

    Basis order is (excited, ground).  The entries array is read-only.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        arr = np.array(entries, dtype=complex)
        if arr.shape[-2:] != (2, 2):
            raise DomainError(f"density matrix must be 2x2, got shape {arr.shape}")
        checks, det = _density_checks(arr)
        for ok, (error, message) in zip(checks, _DENSITY_ERRORS):
            if not ok.all():
                raise error(message.format(det[~ok][0]))
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __repr__(self) -> str:
        return f"QubitDensityMatrix({self.entries.tolist()!r})"


@dataclass(frozen=True)
class PairWeights:
    """Weights a, b of the two-correlation distance formula.

    a = (1-l1)/C_l1 - (1-l2)/C_l2 and b = l1/C_l1 - l2/C_l2; both vanish
    exactly when l1 = l2.  Arrays when the weights or the overlap are.
    """

    a: float | np.ndarray
    b: float | np.ndarray


def _check_unit(name: str, x) -> None:
    if not all_true(ok := (x >= 0.0) & (x <= 1.0)):
        raise DomainError(f"{name} must lie in [0, 1], got {_first_failing(x, ok)}")


def normalization_c(lam, overlap):
    """Normalization C_lambda of the correlated environment superposition.

    C^2 = (1-lam)^2 + lam^2 + 2 lam (1-lam) * overlap; C_0 = C_1 = 1.
    Elementwise over broadcastable arrays.
    """
    _check_unit("correlation weight", lam)
    _check_unit("overlap", overlap)
    return _normalization(lam, overlap)


def _normalization(lam, overlap):
    """normalization_c on inputs known to lie in [0, 1], unchecked."""
    # x * x, not x ** 2: numpy squares arrays but calls pow on scalars
    return np.sqrt((1.0 - lam) * (1.0 - lam) + lam * lam + 2.0 * lam * (1.0 - lam) * overlap)


def unphased_coherence_factor(
    state: InitialStateSpec, profile: DecoherenceProfile, overlap: float
) -> complex | np.ndarray:
    """A_lambda(t) without its free phase e^(-2 i eps t), the only factor that
    depends on epsilon: |A| equals the modulus of this."""
    lam = state.lam
    exponentials = _exponentials(profile.r, profile.s, profile.phi)
    return _mix(1.0 - lam, lam, exponentials) / normalization_c(lam, overlap)


def _exponentials(r, s, phi) -> tuple:
    """``(e^(-r), e^(s-r), e^(-2 i phi))``: what every A_lambda takes from a profile."""
    return np.exp(-r), np.exp(s - r), np.exp(-2.0j * phi)


def _mix(a, b, exponentials):
    """``a e^(-r) + b e^(s-r) e^(-2 i phi)`` on precomputed ``_exponentials``."""
    decay, weight, phase = exponentials
    return a * decay + b * weight * phase


def coherence_factor(
    state: InitialStateSpec,
    profile: DecoherenceProfile,
    epsilon: float,
    overlap: float,
) -> complex | np.ndarray:
    """The decoherence factor A_lambda(t) multiplying the qubit coherence.

    |A| <= 1 always; A_0(t) = e^(-2 i eps t) e^(-r(t)).  For the t = inf
    profile the free phase e^(-2 i eps t) is undefined and set to 1 -- it
    cancels from every distance anyway.  Complex array for a profile on a
    time array.  Raises DomainError where 2 eps t overflows a double.
    """
    t = np.where(np.isinf(profile.t), 0.0, profile.t)
    with np.errstate(over="ignore"):
        angle = 2.0 * epsilon * t
    if not all_true(ok := np.isfinite(angle)):
        raise DomainError(
            f"free phase 2*epsilon*t overflows a double (epsilon={_first_failing(epsilon, ok)})"
        )
    return np.exp(-1.0j * angle) * unphased_coherence_factor(state, profile, overlap)


def _reduced_entries(amplitudes: QubitAmplitudes, coherence) -> np.ndarray:
    """The ``(..., 2, 2)`` entries of the reduced states, unchecked; moduli
    |A| > 1 are rescaled onto the unit disc."""
    b_plus, b_minus = amplitudes.b_plus, amplitudes.b_minus
    off = b_plus * b_minus.conjugate() * (coherence / np.maximum(abs(coherence), 1.0))
    rho = np.empty(np.shape(off) + (2, 2), dtype=complex)
    rho[..., 0, 0], rho[..., 0, 1] = abs(b_plus) ** 2, off
    rho[..., 1, 0], rho[..., 1, 1] = off.conjugate(), abs(b_minus) ** 2
    return rho


def reduced_state(amplitudes: QubitAmplitudes, coherence) -> QubitDensityMatrix:
    """Assemble the reduced qubit state from amplitudes and the factor A;
    a stack of states for arrays, which broadcast elementwise.

    Rejects |A| > 1 + 1e-9; moduli within that roundoff band are rescaled
    onto the unit disc so the PSD validation cannot trip on noise.
    """
    mag = abs(coherence)
    if not all_true(ok := np.logical_not(mag > 1.0 + _ABS_A_TOL)):
        bad = _first_failing(mag, ok)
        raise PhysicalityError(f"coherence factor has modulus {bad!r} > 1 + {_ABS_A_TOL}")
    return QubitDensityMatrix(_reduced_entries(amplitudes, coherence))


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, QubitDensityMatrix):
        return rho.entries
    arr = np.asarray(rho, dtype=complex)
    if arr.shape[-2:] != (2, 2):
        raise DomainError(f"density matrix must be 2x2, got shape {arr.shape}")
    if np.max(np.abs(arr - arr.conj().swapaxes(-2, -1))) > 1e-10:
        raise DomainError("trace_distance requires Hermitian matrices")
    return arr


def trace_distance(rho1, rho2) -> float | np.ndarray:
    """Trace distance (1/2) Tr |rho1 - rho2| via eigenvalues of the difference.

    Accepts QubitDensityMatrix instances or plain Hermitian 2x2 arrays, or
    ``(..., 2, 2)`` stacks of either, which give an array of distances.
    For a traceless Hermitian difference with diagonal gap d and
    off-diagonal c this equals sqrt(d^2 + |c|^2).
    """
    eigenvalues = np.linalg.eigvalsh(_as_matrix(rho1) - _as_matrix(rho2))
    distance = 0.5 * np.sum(np.abs(eigenvalues), axis=-1)
    return float(distance) if distance.ndim == 0 else distance


def distance_same_environment(
    b1: QubitAmplitudes, b2: QubitAmplitudes, coherence
) -> float | np.ndarray:
    """Distance of two states differing only in amplitudes (shared A).

    D^2 = (|b1+|^2 - |b2+|^2)^2 + |b1+ b1-* - b2+ b2-*|^2 |A|^2, which is
    monotone in |A|: with a decaying factor this scenario always contracts.
    Elementwise over array amplitudes and factors.
    """
    diag_gap = abs(b1.b_plus) ** 2 - abs(b2.b_plus) ** 2
    off_gap = b1.b_plus * b1.b_minus.conjugate() - b2.b_plus * b2.b_minus.conjugate()
    distance = np.sqrt(diag_gap**2 + abs(off_gap) ** 2 * abs(coherence) ** 2)
    return float(distance) if np.ndim(distance) == 0 else distance


def pair_weights(lambda1, lambda2, overlap) -> PairWeights:
    """Weights (a, b) for the shared-amplitude distance, elementwise over arrays."""
    _check_unit("correlation weight", lambda1)
    _check_unit("overlap", overlap)
    _check_unit("correlation weight", lambda2)
    return PairWeights(*_pair_weights(lambda1, lambda2, overlap))


def _pair_weights(lambda1, lambda2, overlap) -> tuple:
    """pair_weights' ``(a, b)`` on inputs known to lie in [0, 1], unchecked."""
    c1 = _normalization(lambda1, overlap)
    c2 = _normalization(lambda2, overlap)
    return (1.0 - lambda1) / c1 - (1.0 - lambda2) / c2, lambda1 / c1 - lambda2 / c2


def _checked_bscale(bscale):
    if not all_true(ok := (bscale >= 0.0) & (bscale <= 0.5 + _NORM_TOL)):
        bad = _first_failing(bscale, ok)
        raise DomainError(f"bscale = |b+ b-*| must lie in [0, 1/2], got {bad}")
    return bscale


def distance_same_amplitudes(
    w: PairWeights, profile: DecoherenceProfile, bscale
) -> float | np.ndarray:
    """Distance of two states sharing amplitudes but not correlation weight.

    Equals bscale * e^(-r) * sqrt(a^2 + b^2 e^(2s) + 2 a b e^s cos(2 phi))
    with bscale = |b+ b-*|; evaluated through exp(-r) and exp(s - r) so the
    intermediate e^(2s) cannot overflow.  The qubit splitting epsilon drops
    out entirely.  Array-valued for a profile on a time array or an array
    ``bscale``.
    """
    exponentials = _exponentials(profile.r, profile.s, profile.phi)
    return _checked_bscale(bscale) * np.abs(_mix(w.a, w.b, exponentials))
