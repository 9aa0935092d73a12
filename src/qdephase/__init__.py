"""Exact dephasing dynamics of a qubit with correlated initial environment states.

The toolkit evaluates the reduced qubit state exactly (no Markov or weak
coupling approximation), tracks the trace distance between two preparations
that differ in their initial qubit-environment correlation, and maps the
parameter regions where that distance ends up above its initial value --
the breakdown of distance contractivity induced by initial correlations.
"""

from .analysis import (
    DistanceSeries,
    Extremum,
    RegionMap,
    TimeGrid,
    default_grid,
    distance_series,
    find_extremum,
    find_lambda_c,
    gain_ratio,
    region_map,
)
from .bath import (
    BathSpec,
    DecoherenceProfile,
    DisplacementSpec,
    ModelSpec,
    ground_coherent_overlap,
    profile_at,
    profile_limit,
)
from .dynamics import (
    InitialStateSpec,
    PairWeights,
    QubitAmplitudes,
    QubitDensityMatrix,
    coherence_factor,
    distance_same_amplitudes,
    distance_same_environment,
    normalization_c,
    pair_weights,
    reduced_state,
    trace_distance,
)
from .errors import (
    ConvergenceError,
    DomainError,
    NoBracketError,
    PhysicalityError,
    QDephaseError,
)
from .numerics import (
    KernelArgs,
    QuadratureSettings,
    decay_kernel,
    kernel_by_quadrature,
    sine_moment,
    total_moment,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numerics
    "QuadratureSettings",
    "KernelArgs",
    "decay_kernel",
    "total_moment",
    "sine_moment",
    "kernel_by_quadrature",
    # bath
    "BathSpec",
    "DisplacementSpec",
    "ModelSpec",
    "DecoherenceProfile",
    "ground_coherent_overlap",
    "profile_at",
    "profile_limit",
    # dynamics
    "QubitAmplitudes",
    "InitialStateSpec",
    "QubitDensityMatrix",
    "PairWeights",
    "normalization_c",
    "coherence_factor",
    "reduced_state",
    "trace_distance",
    "distance_same_environment",
    "pair_weights",
    "distance_same_amplitudes",
    # analysis
    "TimeGrid",
    "DistanceSeries",
    "RegionMap",
    "Extremum",
    "default_grid",
    "distance_series",
    "gain_ratio",
    "find_lambda_c",
    "region_map",
    "find_extremum",
    # errors
    "QDephaseError",
    "DomainError",
    "ConvergenceError",
    "PhysicalityError",
    "NoBracketError",
]
