"""Three-coin probability representation of single-qubit states.

States are triples of heads probabilities, one coin per measurement axis.
The package provides the bidirectional map between triples and 2x2 density
matrices, the quantum-admissibility ball constraint, Malevich-square
geometry with its classical (6) and quantum (3) area bounds, coin-game
observables with a full moment calculus, and a seeded Monte Carlo coin
simulator. All operations are pure functions on immutable values and are
safe to call concurrently.

Each public name is imported from its module on first use (PEP 562), so
``import spincoins`` loads no submodule, and a call loads only the modules
it computes with.
"""

__version__ = "0.1.0"

# Each public name and the module that defines it: the one list of the package's API.
_EXPORTS = {
    name: module
    for module, names in {
        "core": "BlochVector CoinStateError DensityMatrix InvalidBlochVectorError InvalidDensityMatrixError"
        " InvalidProbabilityError NonQuantumStateError ProbabilityTriple ValidityReport bloch_to_probs"
        " density_to_probs overlap probs_to_bloch probs_to_density quantum_validity",
        "coinsim": "RngSpec SampleStats TossRecord estimate quantum_fraction sample_states toss",
        "observables": "GameObservable InvalidObservableError MomentSequence generating_function mean moments"
        " outcome_distribution second_moment",
        "suprematism": "ExtremizationResult MalevichTriad area_sum_closed_form maximize_area render_triad_svg side_lengths",
    }.items()
    for name in names.split()
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str) -> object:
    """A public name or a library module, imported on first use; a name is then kept, so later reads skip this hook."""
    module = _EXPORTS.get(name, name)
    if module not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # binds the module here; unlike importlib's, this import shows in -X importtime
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    """The names an eager import would bind: the module's own, every public name and the four library modules."""
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()} - {"_EXPORTS", "__getattr__", "__dir__"})
