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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import DecoherenceProfile
from .errors import DomainError, PhysicalityError
from .numerics import all_true

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
    constructor InitialStateSpec rejects them.
    """

    b_plus: complex
    b_minus: complex

    def __post_init__(self) -> None:
        # x * x, not x ** 2: a float power raises OverflowError, a product is inf
        norm = abs(self.b_plus) * abs(self.b_plus) + abs(self.b_minus) * abs(self.b_minus)
        if not math.isfinite(norm) or abs(norm - 1.0) > _NORM_TOL:
            raise DomainError(
                f"amplitudes must satisfy |b+|^2 + |b-|^2 = 1 within {_NORM_TOL}, "
                f"got {norm!r}"
            )

    @classmethod
    def balanced(cls) -> "QubitAmplitudes":
        """The equal-weight superposition b+ = b- = 1/sqrt(2)."""
        inv = 1.0 / math.sqrt(2.0)
        return cls(inv, inv)

    @property
    def coherence_scale(self) -> float:
        """|b+ b-*|, the prefactor of every off-diagonal element (<= 1/2)."""
        return abs(self.b_plus) * abs(self.b_minus)


@dataclass(frozen=True)
class InitialStateSpec:
    """A correlated initial preparation: amplitudes plus correlation weight.

    ``lam = 0`` is the uncorrelated product state, ``lam = 1`` the maximally
    correlated member of the family.  Both amplitudes must be non-zero for a
    correlated scenario to be meaningful.
    """

    amplitudes: QubitAmplitudes
    lam: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and 0.0 <= self.lam <= 1.0):
            raise DomainError(f"correlation weight must lie in [0, 1], got {self.lam}")
        if abs(self.amplitudes.b_plus) == 0.0 or abs(self.amplitudes.b_minus) == 0.0:
            raise DomainError(
                "correlated scenarios need non-zero amplitudes on both branches"
            )


class QubitDensityMatrix:
    """A validated 2x2 density matrix (Hermitian, unit trace, PSD).

    Basis order is (excited, ground).  The entries array is read-only.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        arr = np.array(entries, dtype=complex)
        if arr.shape != (2, 2):
            raise DomainError(f"density matrix must be 2x2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.view(float))):
            raise DomainError("density matrix entries must be finite")
        if np.max(np.abs(arr - arr.conj().T)) > _NORM_TOL:
            raise PhysicalityError("density matrix is not Hermitian within 1e-12")
        if abs(arr[0, 0].real + arr[1, 1].real - 1.0) > _NORM_TOL:
            raise PhysicalityError("density matrix trace differs from 1 by more than 1e-12")
        det = (arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0]).real
        if det < -_NORM_TOL:
            raise PhysicalityError(
                f"density matrix is not positive semidefinite (det = {det:.3e})"
            )
        bound = math.sqrt(max(arr[0, 0].real, 0.0) * max(arr[1, 1].real, 0.0))
        if abs(arr[0, 1]) > bound + _NORM_TOL:
            raise PhysicalityError("off-diagonal element exceeds sqrt(rho11*rho22)")
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


def _first_outside_unit(x) -> float:
    """The first element of x outside [0, 1], for a one-value message."""
    values = np.ravel(x)
    return values[~((values >= 0.0) & (values <= 1.0))][0]


def normalization_c(lam, overlap):
    """Normalization C_lambda of the correlated environment superposition.

    C^2 = (1-lam)^2 + lam^2 + 2 lam (1-lam) * overlap; C_0 = C_1 = 1.
    Elementwise over broadcastable arrays.
    """
    if not all_true((lam >= 0.0) & (lam <= 1.0)):
        raise DomainError(f"correlation weight must lie in [0, 1], got {_first_outside_unit(lam)}")
    if not all_true((overlap >= 0.0) & (overlap <= 1.0)):
        raise DomainError(f"overlap must lie in [0, 1], got {_first_outside_unit(overlap)}")
    # x * x, not x ** 2: numpy squares arrays but calls pow on scalars
    return np.sqrt((1.0 - lam) * (1.0 - lam) + lam * lam + 2.0 * lam * (1.0 - lam) * overlap)


def unphased_coherence_factor(
    state: InitialStateSpec, profile: DecoherenceProfile, overlap: float
) -> complex | np.ndarray:
    """A_lambda(t) without its free phase e^(-2 i eps t), the only factor that
    depends on epsilon: |A| equals the modulus of this."""
    lam = state.lam
    return _mix(1.0 - lam, lam, _exponentials(profile)) / normalization_c(lam, overlap)


def _exponentials(profile: DecoherenceProfile) -> tuple:
    """``(e^(-r), e^(s-r), e^(-2 i phi))``: what every A_lambda takes from the profile."""
    return np.exp(-profile.r), np.exp(profile.s - profile.r), np.exp(-2.0j * profile.phi)


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
    if not all_true(np.isfinite(angle)):
        raise DomainError(f"free phase 2*epsilon*t overflows a double (epsilon={epsilon})")
    return np.exp(-1.0j * angle) * unphased_coherence_factor(state, profile, overlap)


def reduced_state(amplitudes: QubitAmplitudes, coherence: complex) -> QubitDensityMatrix:
    """Assemble the reduced qubit state from amplitudes and the factor A.

    Rejects |A| > 1 + 1e-9; moduli within that roundoff band are rescaled
    onto the unit disc so the PSD validation cannot trip on noise.
    """
    mag = abs(coherence)
    if mag > 1.0 + _ABS_A_TOL:
        raise PhysicalityError(
            f"coherence factor has modulus {mag!r} > 1 + {_ABS_A_TOL}"
        )
    if mag > 1.0:
        coherence = coherence / mag
    off = amplitudes.b_plus * amplitudes.b_minus.conjugate() * coherence
    return QubitDensityMatrix(
        [
            [abs(amplitudes.b_plus) ** 2, off],
            [off.conjugate(), abs(amplitudes.b_minus) ** 2],
        ]
    )


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, QubitDensityMatrix):
        return rho.entries
    arr = np.asarray(rho, dtype=complex)
    if arr.shape != (2, 2):
        raise DomainError(f"density matrix must be 2x2, got shape {arr.shape}")
    if np.max(np.abs(arr - arr.conj().T)) > 1e-10:
        raise DomainError("trace_distance requires Hermitian matrices")
    return arr


def trace_distance(rho1, rho2) -> float:
    """Trace distance (1/2) Tr |rho1 - rho2| via eigenvalues of the difference.

    Accepts QubitDensityMatrix instances or plain Hermitian 2x2 arrays.
    For a traceless Hermitian difference with diagonal gap d and
    off-diagonal c this equals sqrt(d^2 + |c|^2).
    """
    diff = _as_matrix(rho1) - _as_matrix(rho2)
    eigenvalues = np.linalg.eigvalsh(diff)
    return float(0.5 * np.sum(np.abs(eigenvalues)))


def distance_same_environment(
    b1: QubitAmplitudes, b2: QubitAmplitudes, coherence: complex
) -> float:
    """Distance of two states differing only in amplitudes (shared A).

    D^2 = (|b1+|^2 - |b2+|^2)^2 + |b1+ b1-* - b2+ b2-*|^2 |A|^2, which is
    monotone in |A|: with a decaying factor this scenario always contracts.
    """
    diag_gap = abs(b1.b_plus) ** 2 - abs(b2.b_plus) ** 2
    off_gap = b1.b_plus * b1.b_minus.conjugate() - b2.b_plus * b2.b_minus.conjugate()
    return math.sqrt(diag_gap**2 + abs(off_gap) ** 2 * abs(coherence) ** 2)


def pair_weights(lambda1, lambda2, overlap) -> PairWeights:
    """Weights (a, b) for the shared-amplitude distance, elementwise over arrays."""
    c1 = normalization_c(lambda1, overlap)
    c2 = normalization_c(lambda2, overlap)
    return PairWeights(
        a=(1.0 - lambda1) / c1 - (1.0 - lambda2) / c2,
        b=lambda1 / c1 - lambda2 / c2,
    )


def _checked_bscale(bscale: float) -> float:
    if not (math.isfinite(bscale) and 0.0 <= bscale <= 0.5 + _NORM_TOL):
        raise DomainError(f"bscale = |b+ b-*| must lie in [0, 1/2], got {bscale}")
    return bscale


def distance_same_amplitudes(
    w: PairWeights, profile: DecoherenceProfile, bscale: float
) -> float | np.ndarray:
    """Distance of two states sharing amplitudes but not correlation weight.

    Equals bscale * e^(-r) * sqrt(a^2 + b^2 e^(2s) + 2 a b e^s cos(2 phi))
    with bscale = |b+ b-*|; evaluated through exp(-r) and exp(s - r) so the
    intermediate e^(2s) cannot overflow.  The qubit splitting epsilon drops
    out entirely.  Array-valued for a profile on a time array.
    """
    return _checked_bscale(bscale) * np.abs(_mix(w.a, w.b, _exponentials(profile)))
