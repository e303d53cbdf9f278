"""State types and the bijection between coin probabilities and density matrices.

A single-qubit state is coordinatized by three heads probabilities
(p1, p2, p3), one per measurement axis. Any point of the unit cube is a
legal triple of independent coins; only the ball of radius 1/2 around
(1/2, 1/2, 1/2) corresponds to positive semidefinite (genuinely quantum)
density matrices. Triples outside that ball map to Hermitian unit-trace
matrices with a negative eigenvalue, which this module treats as
first-class values rather than errors.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import numpy as np

# Boundary membership in the quantum ball is decided with an additive
# tolerance so exact pure states survive floating-point round trips.
QUANTUM_BALL_ATOL = 1e-9

# Input matrices may deviate from exact Hermiticity by at most this much;
# smaller deviations are symmetrized away, larger ones are rejected.
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-12

BALL_CENTER = 0.5
BALL_RADIUS_SQ = 0.25


class CoinStateError(ValueError):
    """Base error for invalid states and state conversions."""


class InvalidProbabilityError(CoinStateError):
    """A probability component lies outside [0, 1]."""


class InvalidBlochVectorError(CoinStateError):
    """A mean spin projection lies outside [-1, 1]."""


class InvalidDensityMatrixError(CoinStateError):
    """Input is not a 2x2 Hermitian matrix with unit trace."""


class NonQuantumStateError(CoinStateError):
    """The operation is only defined for triples inside the quantum ball."""


def _dot(u, v):
    """Inner product (u0 v0 + u1 v1) + u2 v2 of two 3-vectors: the one home of the quadratic forms in d = p - 1/2.

    Takes sequences of floats or of equally shaped arrays. The sum runs left to right, the order
    the samplers' pinned streams depend on; on arrays numpy adds each product into the running
    total in place, with the total and one product as the only temporaries. ``quantum_fraction``
    writes the same sum of squares, in the same order, in place in its own buffers.
    """
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _in_ball(radius_squared):
    """The one ball test, of a float or array; only the ball sampler keeps a strict <= 1/4: its rows lie in the ball."""
    return radius_squared <= BALL_RADIUS_SQ + QUANTUM_BALL_ATOL


def _offset(p: ProbabilityTriple) -> tuple[float, float, float]:
    """Offset d = p - 1/2 of a triple from the ball center; each component is exact for p_k >= 1/4."""
    return (p.p1 - BALL_CENTER, p.p2 - BALL_CENTER, p.p3 - BALL_CENTER)


def _is_numpy(value: Any, *kinds: str) -> bool:
    """Whether ``value`` is an instance of one of the named numpy types, found without importing numpy.

    A numpy value cannot exist before numpy is imported, nor one of a type
    that numpy, still being imported in another thread, has not defined yet.
    """
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, tuple(getattr(np, kind, ()) for kind in kinds))


def _is_number(value: Any) -> bool:
    """The one input test for numeric fields: an int or float, numpy ones included, never a bool or timedelta."""
    if type(value) is float:  # the common case, tested first to keep the constructors cheap
        return True
    if isinstance(value, (int, float)):  # numpy's float64 included
        return not isinstance(value, bool)
    return _is_numpy(value, "integer", "floating") and not _is_numpy(value, "timedelta64")


def _show(value: Any) -> str:
    """``repr(value)`` for an error message; an int of more than 4300 digits cannot be printed."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _abridged(text: str) -> str:
    """``repr(text)`` for an error message, cut to its first 20 characters and its length when longer than 40."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"


# The bounds of the numbers that spincoins.cli checks before it imports the module that takes them.
# Largest seed an RngSpec takes: one unsigned 64-bit word.
MAX_SEED = 2**64 - 1
# Most tosses per coin: numpy's binomial computes a count in doubles, which hold every integer only up to 2**53.
MAX_TOSSES = 2**53
# Largest SVG scale, in pixels per unit side length; it keeps the canvas under 6 x 10^5 px a side,
# where a finite but huge scale would write a width no viewer can draw.
MAX_SCALE = 1e5


def _as_float(value: Any, name: str, kind: type[ValueError], domain: str) -> float:
    """The one conversion of an input number: ``value`` as a float, or ``kind`` naming the field ``name``."""
    if not _is_number(value):
        raise kind(f"field {name!r} must be a number, got {_show(value)}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise kind(f"field {name!r} is too large a number to be {domain}") from None


def _as_int(value: Any, name: str, low: int, high: int | None = None) -> int:
    """The one integer check, of every count, seed and order: ``value`` as a Python int in [low, high].

    An int, numpy ones included, never a bool, ``np.bool_``, ``timedelta64`` or float; else ValueError naming ``name``.
    """
    if type(value) is not int:  # the common case skips the type tests, to keep the records cheap
        if not ((isinstance(value, int) or _is_numpy(value, "integer")) and _is_number(value)):
            raise ValueError(f"{name} must be an integer, got {_show(value)}")
        value = int(value)
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {_show(value)}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {_show(value)}")
    return value


def _coerce_fields(
    obj: Any, names: tuple[str, ...], kind: type[CoinStateError], low: float, high: float, domain: str
) -> None:
    """The one number check of the value types: store each field as a finite float in [low, high], or raise ``kind``."""
    for name in names:
        value = getattr(obj, name)
        numeric = value if type(value) is float else _as_float(value, name, kind, domain)
        if not (math.isfinite(numeric) and low <= numeric <= high):
            raise kind(f"field {name!r} must be {domain}, got {value!r}")
        if numeric is not value:  # a plain float is checked where the dataclass __init__ stored it
            object.__setattr__(obj, name, numeric)


def _payload_fields(payload: Any, names: tuple[str, ...], kind: type[CoinStateError]) -> list[Any]:
    """The raw values of an object payload with exactly the named fields; checks its shape only, not the values."""
    if not isinstance(payload, Mapping):
        raise kind(f"expected an object with {', '.join(names)}, got {_show(payload)}")
    for name in names:
        if name not in payload:
            raise kind(f"missing field {name!r}")
    for name in payload:
        if name not in names:
            raise kind(f"unexpected field {_abridged(name) if isinstance(name, str) else _show(name)}")
    return [payload[name] for name in names]


@dataclass(frozen=True, slots=True)
class ProbabilityTriple:
    """Heads probabilities of the three coins (spin-up along x, y, z).

    The components are independent coordinates in the unit cube. They do
    not sum to one; the triple is a set of three two-outcome distributions
    (p_k, 1 - p_k), not a single three-outcome distribution.
    """

    p1: float
    p2: float
    p3: float

    def __post_init__(self) -> None:
        _coerce_fields(
            self, ("p1", "p2", "p3"), InvalidProbabilityError, 0.0, 1.0, "a coin probability in [0, 1]"
        )

    @classmethod
    def _from_columns(cls, p1s: list[float], p2s: list[float], p3s: list[float]) -> list["ProbabilityTriple"]:
        """Trusted bulk constructor: one triple per row of three equal-length columns of floats already in [0, 1].

        Skips ``__post_init__`` and runs no Python code per triple: the triples
        are allocated empty, then each field is filled, column by column,
        through its slot descriptor.
        """
        triples = list(map(object.__new__, repeat(cls, len(p1s))))
        for slot, column in ((cls.p1, p1s), (cls.p2, p2s), (cls.p3, p3s)):
            deque(map(slot.__set__, triples, column), maxlen=0)
        return triples

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p1, self.p2, self.p3)

    def to_dict(self) -> dict[str, float]:
        return {"p1": self.p1, "p2": self.p2, "p3": self.p3}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProbabilityTriple":
        return cls(*_payload_fields(payload, ("p1", "p2", "p3"), InvalidProbabilityError))


@dataclass(frozen=True, slots=True)
class BlochVector:
    """Mean spin projections along x, y, z; each component in [-1, 1]."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self) -> None:
        _coerce_fields(
            self, ("x1", "x2", "x3"), InvalidBlochVectorError, -1.0, 1.0, "a mean spin projection in [-1, 1]"
        )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BlochVector":
        return cls(*_payload_fields(payload, ("x1", "x2", "x3"), InvalidBlochVectorError))


@dataclass(frozen=True, slots=True, init=False)
class DensityMatrix:
    """2x2 Hermitian unit-trace matrix indexed by spin projections +1/2, -1/2.

    Positivity is deliberately not an invariant: triples of independent
    coins may map to indefinite matrices. Whether a matrix is a genuine
    quantum state is a queryable property (see :func:`quantum_validity`),
    not a construction-time constraint.

    ``entries`` holds the matrix row-major as four Python complexes.
    """

    entries: tuple[complex, complex, complex, complex]

    def __init__(self, matrix: Any) -> None:
        if not isinstance(matrix, (list, tuple)) and _is_numpy(matrix, "ndarray"):
            # tolist() gives Python numbers, but would turn timedelta64 and datetime64 entries into ints
            if matrix.shape == (2, 2) and matrix.dtype.kind not in "mM":
                matrix = matrix.tolist()
        # lists and tuples only: bytes rows, sets and dicts unpack to numbers too
        if not (
            isinstance(matrix, (list, tuple)) and len(matrix) == 2
            and all(isinstance(row, (list, tuple)) and len(row) == 2 for row in matrix)
        ):
            raise InvalidDensityMatrixError("field 'm' must be a 2x2 matrix of numbers")
        a, b, c, d = [
            complex(v) if isinstance(v, complex) or not _is_number(v) and _is_numpy(v, "complexfloating")
            else complex(_as_float(v, "m", InvalidDensityMatrixError, "a matrix entry"))
            for row in matrix for v in row
        ]
        # m + m^H, twice the stored entries: non-finite if an entry is, or if Python addition overflowed to inf
        sums = (a + a.conjugate(), b + c.conjugate(), c + b.conjugate(), d + d.conjugate())
        if not all(map(cmath.isfinite, sums)):
            raise InvalidDensityMatrixError("field 'm' contains non-finite entries or a non-finite Hermitian part")
        deviation = max(abs(b - c.conjugate()), abs(a - a.conjugate()), abs(d - d.conjugate()))
        if deviation > HERMITICITY_ATOL:
            raise InvalidDensityMatrixError(
                f"field 'm' is not Hermitian: max deviation {deviation:.3e} exceeds {HERMITICITY_ATOL:.0e}"
            )
        trace = a.real + d.real
        if abs(trace - 1.0) > TRACE_ATOL:
            raise InvalidDensityMatrixError(f"field 'm' must have unit trace, got {trace!r}")
        # Store the Hermitian part (m + m^H) / 2 even for an exact conjugate pair:
        # it is not a fixed point bit for bit. Each sum is halved as numpy does,
        # by Smith's division by 2+0j, whose zero cross terms can flip the sign
        # of a zero. Not as z / 2.0: from Python 3.14 a real divisor divides
        # each part alone, and the zeros numpy flips keep their sign.
        halves = [complex((z.real + z.imag * 0.0) / 2.0, (z.imag - z.real * 0.0) / 2.0) for z in sums]
        object.__setattr__(self, "entries", tuple(halves))

    @property
    def matrix(self) -> np.ndarray:
        """The stored matrix as a complex128 array; each access builds a new read-only one."""
        import numpy as np

        a, b, c, d = self.entries
        m = np.array([[a, b], [c, d]], dtype=complex)
        m.setflags(write=False)
        return m

    def purity(self) -> float:
        """Tr(rho^2) = a^2 + d^2 + 2|b|^2; equals 1 for pure states and 1/2 for the maximally mixed state."""
        a, b, _, d = self.entries
        return a.real * a.real + d.real * d.real + 2.0 * (b.real * b.real + b.imag * b.imag)

    def to_dict(self) -> dict[str, list[list[float]]]:
        """Row-major list of [re, im] entry pairs under key 'm'."""
        return {"m": [[v.real, v.imag] for v in self.entries]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DensityMatrix":
        (entries,) = _payload_fields(payload, ("m",), InvalidDensityMatrixError)
        if not isinstance(entries, (list, tuple)) or len(entries) != 4 or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in entries
        ):
            raise InvalidDensityMatrixError("field 'm' must list four [re, im] pairs row-major")
        a, b, c, d = [
            complex(*(_as_float(part, "m", InvalidDensityMatrixError, "a matrix entry") for part in pair))
            for pair in entries
        ]
        return cls([[a, b], [c, d]])


@dataclass(frozen=True, slots=True)
class ValidityReport:
    """Outcome of the quantum-admissibility check for a probability triple.

    ``radius_squared`` is the squared distance of the triple from the ball
    center (1/2, 1/2, 1/2); the matrix eigenvalues are 1/2 -+ its square
    root. ``purity_defect`` vanishes exactly on the pure-state sphere.
    Non-quantum triples are a legal regime, hence a report, not an error.
    """

    radius_squared: float
    is_quantum: bool
    eigenvalues: tuple[float, float]
    purity_defect: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "radius_squared": self.radius_squared,
            "is_quantum": self.is_quantum,
            "eigenvalues": list(self.eigenvalues),
            "purity_defect": self.purity_defect,
        }


def probs_to_density(p: ProbabilityTriple) -> DensityMatrix:
    """Map a coin triple to its 2x2 matrix representation.

    The z coin fixes the diagonal (p3, 1 - p3); the x and y coins fix the
    off-diagonal entry (p1 - 1/2) + i (p2 - 1/2) and its conjugate. The
    result is always Hermitian with unit trace, but positive semidefinite
    only for triples inside the quantum ball. The matrix goes through the
    one :class:`DensityMatrix` constructor, like every other matrix.
    """
    off = complex(p.p1 - 0.5, p.p2 - 0.5)
    return DensityMatrix([[p.p3, off.conjugate()], [off, 1.0 - p.p3]])


def density_to_probs(rho: DensityMatrix | np.ndarray) -> ProbabilityTriple:
    """Recover the coin triple from a Hermitian unit-trace matrix.

    Inverse of :func:`probs_to_density`: p1 and p2 come from the real and
    imaginary parts of the lower off-diagonal entry, p3 from the upper
    diagonal entry. Raw arrays and nested lists are checked (and sub-tolerance
    asymmetry symmetrized) by the one :class:`DensityMatrix` constructor.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    a, _, lower, _ = rho.entries
    probs = (0.5 + lower.real, 0.5 + lower.imag, a.real)
    for value in probs:  # the matrix maps outside the cube: name it, not a coin it never had
        if not 0.0 <= value <= 1.0:
            raise InvalidDensityMatrixError(f"field 'm' must map to coin probabilities in [0, 1], got {value!r}")
    return ProbabilityTriple(*probs)


def quantum_validity(p: ProbabilityTriple) -> ValidityReport:
    """Check whether a coin triple is a genuine quantum state.

    The triple is quantum-admissible iff its squared distance from the
    ball center is at most 1/4, equivalently iff the smaller matrix
    eigenvalue 1/2 - sqrt(radius_squared) is nonnegative.
    """
    d = _offset(p)
    radius_squared = _dot(d, d)
    root = math.sqrt(radius_squared)
    return ValidityReport(
        radius_squared=radius_squared,
        is_quantum=_in_ball(radius_squared),
        eigenvalues=(0.5 - root, 0.5 + root),
        purity_defect=radius_squared - BALL_RADIUS_SQ,
    )


def overlap(p: ProbabilityTriple, q: ProbabilityTriple) -> float:
    """State overlap Tr(rho_p rho_q) = 1/2 + 2 d_p . d_q, with d = p - 1/2 the offsets from the ball center.

    Defined only for quantum-admissible triples; equals 1/2 for the
    maximally mixed state with any state, and 1 iff both states are pure
    and identical.
    """
    d_p, d_q = _offset(p), _offset(q)
    for name, triple, d in (("p", p, d_p), ("q", q, d_q)):
        radius_squared = _dot(d, d)
        if not _in_ball(radius_squared):
            raise NonQuantumStateError(
                f"{name}={triple.as_tuple()} is outside the quantum ball "
                f"(radius_squared={radius_squared!r} > 0.25)"
            )
    return 0.5 + 2.0 * _dot(d_p, d_q)


def bloch_to_probs(x: BlochVector) -> ProbabilityTriple:
    """Affine map p_k = (x_k + 1) / 2 from mean spin projections to coin probabilities."""
    return ProbabilityTriple((x.x1 + 1.0) / 2.0, (x.x2 + 1.0) / 2.0, (x.x3 + 1.0) / 2.0)


def probs_to_bloch(p: ProbabilityTriple) -> BlochVector:
    """Affine map x_k = 2 p_k - 1, inverse of :func:`bloch_to_probs`."""
    return BlochVector(2.0 * p.p1 - 1.0, 2.0 * p.p2 - 1.0, 2.0 * p.p3 - 1.0)
