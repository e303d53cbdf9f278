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

import math
from dataclasses import dataclass
from typing import Any, Mapping

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


def _radius_squared(d1, d2, d3):
    """Squared length (d1^2 + d2^2) + d3^2 of a 3-vector d, such as a triple's offset p - 1/2 from the ball center.

    Takes floats or equally shaped arrays. The sum runs left to right, the
    order the samplers' pinned streams depend on; on arrays numpy adds each
    square into the running total in place, so the only temporaries are the
    total and one square.
    """
    return d1 * d1 + d2 * d2 + d3 * d3


def _is_number(value: Any) -> bool:
    """The one input test for numeric fields: an int or float (numpy floats included), never a bool."""
    if type(value) is float:  # the common case, tested first to keep the constructors cheap
        return True
    return isinstance(value, (int, float, np.floating)) and not isinstance(value, bool)


def _coerce_fields(
    obj: Any, names: tuple[str, ...], kind: type[CoinStateError], low: float, high: float, domain: str
) -> None:
    """Store each named field as a finite float in [low, high]; else raise ``kind``, naming the field."""
    for name in names:
        value = getattr(obj, name)
        if not _is_number(value):
            raise kind(f"{name}={value!r} is not a number")
        try:
            numeric = float(value)
        except OverflowError:  # an int past the float range; its repr may be too long to print
            raise kind(f"{name} is too large a number to be {domain}") from None
        if not (math.isfinite(numeric) and low <= numeric <= high):
            raise kind(f"{name}={value!r} is not {domain}")
        object.__setattr__(obj, name, numeric)


def _require_number(payload: Mapping[str, Any], field: str, kind: type[CoinStateError]) -> float:
    if field not in payload:
        raise kind(f"missing field {field!r}")
    value = payload[field]
    if not _is_number(value):
        raise kind(f"field {field!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise kind(f"field {field!r} is too large a number for a float") from None


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^H) / 2, the form in which :class:`DensityMatrix` stores every matrix."""
    return (m + m.conj().T) / 2.0


@dataclass(frozen=True)
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
    def _unchecked(cls, p1: float, p2: float, p3: float) -> "ProbabilityTriple":
        """Trusted constructor for floats already known to lie in [0, 1]; skips ``__post_init__``."""
        triple = object.__new__(cls)
        object.__setattr__(triple, "p1", p1)
        object.__setattr__(triple, "p2", p2)
        object.__setattr__(triple, "p3", p3)
        return triple

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p1, self.p2, self.p3)

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3])

    def distributions(self) -> tuple[tuple[float, float], ...]:
        """The three (heads, tails) distributions derived from the triple."""
        return tuple((p, 1.0 - p) for p in self.as_tuple())

    def cycled(self) -> "ProbabilityTriple":
        """Cyclic relabeling of the axes: (p1, p2, p3) -> (p2, p3, p1)."""
        return ProbabilityTriple(self.p2, self.p3, self.p1)

    def to_dict(self) -> dict[str, float]:
        return {"p1": self.p1, "p2": self.p2, "p3": self.p3}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProbabilityTriple":
        if not isinstance(payload, Mapping):
            raise InvalidProbabilityError(f"expected an object with p1, p2, p3, got {payload!r}")
        return cls(*(_require_number(payload, f, InvalidProbabilityError) for f in ("p1", "p2", "p3")))


@dataclass(frozen=True)
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

    def to_dict(self) -> dict[str, float]:
        return {"x1": self.x1, "x2": self.x2, "x3": self.x3}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BlochVector":
        if not isinstance(payload, Mapping):
            raise InvalidBlochVectorError(f"expected an object with x1, x2, x3, got {payload!r}")
        return cls(*(_require_number(payload, f, InvalidBlochVectorError) for f in ("x1", "x2", "x3")))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """2x2 Hermitian unit-trace matrix indexed by spin projections +1/2, -1/2.

    Positivity is deliberately not an invariant: triples of independent
    coins may map to indefinite matrices. Whether a matrix is a genuine
    quantum state is a queryable property (see :func:`quantum_validity`),
    not a construction-time constraint.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidDensityMatrixError(f"field 'm' must be a 2x2 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise InvalidDensityMatrixError("field 'm' contains non-finite entries")
        deviation = float(np.max(np.abs(m - m.conj().T)))
        if deviation > HERMITICITY_ATOL:
            raise InvalidDensityMatrixError(
                f"field 'm' is not Hermitian: max deviation {deviation:.3e} exceeds {HERMITICITY_ATOL:.0e}"
            )
        m = _hermitian_part(m)
        trace = m[0, 0].real + m[1, 1].real
        if abs(trace - 1.0) > TRACE_ATOL:
            raise InvalidDensityMatrixError(
                f"field 'm' must have unit trace, got {trace!r}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _unchecked(cls, m: np.ndarray) -> "DensityMatrix":
        """Trusted constructor for a finite complex 2x2 array that is Hermitian with unit trace.

        It skips the checks but stores the same Hermitian part as the
        validated constructor, so the matrix is bit-identical to
        ``DensityMatrix(m)``. Even an exact conjugate pair is not a fixed
        point bit for bit: halving complex sums can flip the sign of a zero
        imaginary part.
        """
        rho = object.__new__(cls)
        h = _hermitian_part(m)
        h.setflags(write=False)
        object.__setattr__(rho, "matrix", h)
        return rho

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return bool(np.array_equal(self.matrix, other.matrix))

    def entry(self, row: int, col: int) -> complex:
        return complex(self.matrix[row, col])

    def min_eigenvalue(self) -> float:
        """Smaller eigenvalue, by the closed-form quadratic for 2x2 Hermitian matrices."""
        half_gap = (self.matrix[0, 0].real - self.matrix[1, 1].real) / 2.0
        shift = math.sqrt(half_gap * half_gap + abs(self.matrix[1, 0]) ** 2)
        return 0.5 - shift

    def purity(self) -> float:
        """Tr(rho^2); equals 1 for pure states and 1/2 for the maximally mixed state."""
        return float(np.trace(self.matrix @ self.matrix).real)

    def to_dict(self) -> dict[str, list[list[float]]]:
        """Row-major list of [re, im] entry pairs under key 'm'."""
        return {
            "m": [[float(v.real), float(v.imag)] for v in self.matrix.reshape(-1)]
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DensityMatrix":
        if not isinstance(payload, Mapping) or "m" not in payload:
            raise InvalidDensityMatrixError("expected an object with field 'm'")
        entries = payload["m"]
        if not isinstance(entries, (list, tuple)) or len(entries) != 4:
            raise InvalidDensityMatrixError("field 'm' must list four [re, im] pairs row-major")
        values = []
        for pair in entries:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise InvalidDensityMatrixError(f"field 'm' entry {pair!r} is not a [re, im] pair")
            re, im = pair
            if isinstance(re, bool) or isinstance(im, bool) \
                    or not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
                raise InvalidDensityMatrixError(f"field 'm' entry {pair!r} must hold two numbers")
            values.append(complex(re, im))
        return cls(np.array(values, dtype=complex).reshape(2, 2))


@dataclass(frozen=True)
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
    only for triples inside the quantum ball. The matrix is built through
    the trusted constructor, because the triple is already validated.
    """
    off = complex(p.p1 - 0.5, p.p2 - 0.5)
    return DensityMatrix._unchecked(
        np.array([[p.p3, off.conjugate()], [off, 1.0 - p.p3]], dtype=complex)
    )


def density_to_probs(rho: DensityMatrix | np.ndarray) -> ProbabilityTriple:
    """Recover the coin triple from a Hermitian unit-trace matrix.

    Inverse of :func:`probs_to_density`: p1 and p2 come from the real and
    imaginary parts of the lower off-diagonal entry, p3 from the upper
    diagonal entry. Raw arrays are validated (and sub-tolerance asymmetry
    symmetrized) through the :class:`DensityMatrix` constructor.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(np.asarray(rho))
    lower = rho.matrix[1, 0]
    return ProbabilityTriple(0.5 + lower.real, 0.5 + lower.imag, rho.matrix[0, 0].real)


def quantum_validity(p: ProbabilityTriple) -> ValidityReport:
    """Check whether a coin triple is a genuine quantum state.

    The triple is quantum-admissible iff its squared distance from the
    ball center is at most 1/4, equivalently iff the smaller matrix
    eigenvalue 1/2 - sqrt(radius_squared) is nonnegative.
    """
    d1, d2, d3 = p.p1 - BALL_CENTER, p.p2 - BALL_CENTER, p.p3 - BALL_CENTER
    radius_squared = _radius_squared(d1, d2, d3)
    root = math.sqrt(radius_squared)
    return ValidityReport(
        radius_squared=radius_squared,
        is_quantum=radius_squared <= BALL_RADIUS_SQ + QUANTUM_BALL_ATOL,
        eigenvalues=(0.5 - root, 0.5 + root),
        purity_defect=d1 * d1 + d2 * d2 - p.p3 * (1.0 - p.p3),
    )


def overlap(p: ProbabilityTriple, q: ProbabilityTriple) -> float:
    """State overlap Tr(rho_p rho_q) in coin coordinates.

    Both diagonal terms enter with a plus sign:

        p3 q3 + (1 - p3)(1 - q3) + 2 [(p1 - 1/2)(q1 - 1/2) + (p2 - 1/2)(q2 - 1/2)]

    The sign of the second term is forced by the maximally mixed
    self-overlap, which must be 1/2 (a minus sign there would give 0).
    Defined only for quantum-admissible triples; equals 1 iff both states
    are pure and identical.
    """
    for name, triple in (("p", p), ("q", q)):
        report = quantum_validity(triple)
        if not report.is_quantum:
            raise NonQuantumStateError(
                f"{name}={triple.as_tuple()} is outside the quantum ball "
                f"(radius_squared={report.radius_squared:.6f} > 0.25)"
            )
    return (
        p.p3 * q.p3
        + (1.0 - p.p3) * (1.0 - q.p3)
        + 2.0 * ((p.p1 - 0.5) * (q.p1 - 0.5) + (p.p2 - 0.5) * (q.p2 - 0.5))
    )


def bloch_to_probs(x: BlochVector) -> ProbabilityTriple:
    """Affine map p_k = (x_k + 1) / 2 from mean spin projections to coin probabilities."""
    return ProbabilityTriple((x.x1 + 1.0) / 2.0, (x.x2 + 1.0) / 2.0, (x.x3 + 1.0) / 2.0)


def probs_to_bloch(p: ProbabilityTriple) -> BlochVector:
    """Affine map x_k = 2 p_k - 1, inverse of :func:`bloch_to_probs`."""
    return BlochVector(2.0 * p.p1 - 1.0, 2.0 * p.p2 - 1.0, 2.0 * p.p3 - 1.0)
