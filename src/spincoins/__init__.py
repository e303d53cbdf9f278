"""Three-coin probability representation of single-qubit states.

States are triples of heads probabilities, one coin per measurement axis.
The package provides the bidirectional map between triples and 2x2 density
matrices, the quantum-admissibility ball constraint, Malevich-square
geometry with its classical (6) and quantum (3) area bounds, coin-game
observables with a full moment calculus, and a seeded Monte Carlo coin
simulator. All operations are pure functions on immutable values and are
safe to call concurrently.
"""

from .core import (
    BlochVector,
    CoinStateError,
    DensityMatrix,
    InvalidBlochVectorError,
    InvalidDensityMatrixError,
    InvalidProbabilityError,
    NonQuantumStateError,
    ProbabilityTriple,
    ValidityReport,
    bloch_to_probs,
    density_to_probs,
    overlap,
    probs_to_bloch,
    probs_to_density,
    quantum_validity,
)
from .coinsim import (
    RngSpec,
    SampleStats,
    TossRecord,
    estimate,
    quantum_fraction,
    sample_states,
    toss,
)
from .observables import (
    GameObservable,
    InvalidObservableError,
    MomentSequence,
    generating_function,
    mean,
    moments,
    outcome_distribution,
    second_moment,
)
from .suprematism import (
    ExtremizationResult,
    MalevichTriad,
    area_sum_closed_form,
    maximize_area,
    render_triad_svg,
    side_lengths,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "CoinStateError",
    "DensityMatrix",
    "ExtremizationResult",
    "GameObservable",
    "InvalidBlochVectorError",
    "InvalidDensityMatrixError",
    "InvalidObservableError",
    "InvalidProbabilityError",
    "MalevichTriad",
    "MomentSequence",
    "NonQuantumStateError",
    "ProbabilityTriple",
    "RngSpec",
    "SampleStats",
    "TossRecord",
    "ValidityReport",
    "area_sum_closed_form",
    "bloch_to_probs",
    "density_to_probs",
    "estimate",
    "generating_function",
    "maximize_area",
    "mean",
    "moments",
    "outcome_distribution",
    "overlap",
    "probs_to_bloch",
    "probs_to_density",
    "quantum_fraction",
    "quantum_validity",
    "render_triad_svg",
    "sample_states",
    "second_moment",
    "side_lengths",
    "toss",
    "__version__",
]
