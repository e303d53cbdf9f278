"""Coin-game observables: matrix form, statistics, and the two-point outcome law.

A game assigns payoffs to the faces of the three coins: coin 1 pays +x or
-x, coin 2 pays +y or -y, coin 3 pays z1 or z2. The same quadruple packs
into a Hermitian 2x2 matrix, so every qubit observable is a coin game and
vice versa. In any state the observable takes the two values c +- r
with weights fixed by its mean, so every moment is read off that
two-point law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .core import CoinStateError, NonQuantumStateError, ProbabilityTriple, _coerce_fields, _payload_fields

# Below this payoff radius the observable is a multiple of the identity
# and the anisotropy coefficient is undefined.
DEGENERATE_RADIUS_ATOL = 1e-12

# Outcome probabilities tolerate this much floating-point overshoot in the
# anisotropy coefficient before the state is flagged as non-quantum.
ANISOTROPY_ATOL = 1e-9


class InvalidObservableError(CoinStateError):
    """Payoff quadruple contains a non-finite or non-numeric entry."""


@dataclass(frozen=True)
class GameObservable:
    """Payoff quadruple (x, y, z1, z2) of the three-coin game.

    Derived quantities: ``c = (z1 + z2) / 2`` is the isotropic payoff
    offset, ``z = (z1 - z2) / 2`` the half payoff gap of the third coin,
    and ``r = sqrt(x^2 + y^2 + z^2)`` the payoff radius. The matrix form
    has eigenvalues c - r and c + r.
    """

    x: float
    y: float
    z1: float
    z2: float

    def __post_init__(self) -> None:
        _coerce_fields(self, ("x", "y", "z1", "z2"), InvalidObservableError, -math.inf, math.inf, "finite")

    @property
    def c(self) -> float:
        """Isotropic payoff offset (z1 + z2) / 2."""
        return (self.z1 + self.z2) / 2.0

    @property
    def z(self) -> float:
        """Half payoff gap (z1 - z2) / 2 of the third coin."""
        return (self.z1 - self.z2) / 2.0

    @property
    def r(self) -> float:
        """Payoff radius sqrt(x^2 + y^2 + z^2)."""
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def is_degenerate(self) -> bool:
        """True when the observable is a multiple of the identity (r = 0)."""
        return self.r < DEGENERATE_RADIUS_ATOL

    def to_matrix(self) -> np.ndarray:
        """Hermitian matrix form [[z1, x - iy], [x + iy, z2]].

        Equals c * I + x * sigma_x + y * sigma_y + z * sigma_z.
        """
        return np.array(
            [[self.z1, complex(self.x, -self.y)], [complex(self.x, self.y), self.z2]],
            dtype=complex,
        )

    def eigenvalues(self) -> tuple[float, float]:
        """Outcome values (c - r, c + r)."""
        return (self.c - self.r, self.c + self.r)

    def to_dict(self) -> dict[str, float]:
        return {"x": self.x, "y": self.y, "z1": self.z1, "z2": self.z2}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GameObservable":
        return cls(*_payload_fields(payload, ("x", "y", "z1", "z2"), InvalidObservableError))


@dataclass(frozen=True)
class MomentSequence:
    """Moments m_0 .. m_N of a game observable in a given state.

    ``f`` is the anisotropy coefficient (mean - c) / r, the cosine between
    the state's mean spin and the payoff direction; it is ``None`` for
    degenerate observables (r = 0), whose moments are just powers of c.
    """

    moments: tuple[float, ...]
    c: float
    r: float
    f: float | None

    def __len__(self) -> int:
        return len(self.moments)

    def to_dict(self) -> dict[str, Any]:
        return {
            "moments": list(self.moments),
            "c": self.c,
            "r": self.r,
            "f": self.f,
        }


def mean(p: ProbabilityTriple, obs: GameObservable) -> float:
    """Game average (2 p1 - 1) x + (2 p2 - 1) y + p3 z1 + (1 - p3) z2.

    Accepts any cube triple: for quantum-admissible triples this equals
    the matrix trace Tr(rho A); for general independent coins it is the
    plain classical expected payoff. The caller chooses the reading.
    """
    return (
        (2.0 * p.p1 - 1.0) * obs.x
        + (2.0 * p.p2 - 1.0) * obs.y
        + p.p3 * obs.z1
        + (1.0 - p.p3) * obs.z2
    )


def _two_point_law(p: ProbabilityTriple, obs: GameObservable) -> tuple[float, float, float]:
    """Anisotropy f = (<A> - c) / r (0 if r = 0) and the weights (1 + f) / 2, (1 - f) / 2 of c + r, c - r."""
    f = 0.0 if obs.is_degenerate() else (mean(p, obs) - obs.c) / obs.r
    return f, (1.0 + f) / 2.0, (1.0 - f) / 2.0


def second_moment(p: ProbabilityTriple, obs: GameObservable) -> float:
    """Second moment w+ (c + r)^2 + w- (c - r)^2, valid for any cube triple: the order-2 term of :func:`moments`."""
    return moments(p, obs, 2).moments[2]


def generating_function(p: ProbabilityTriple, obs: GameObservable, lam: float) -> float:
    """Moment generating function G(lam) = Tr(rho exp(lam A)) in closed form.

    From the two-point law, G(lam) = w+ exp(lam (c + r)) + w- exp(lam (c - r));
    for degenerate observables (r = 0) this collapses to exp(lam c).
    """
    if not math.isfinite(lam):
        raise ValueError(f"lam={lam!r} is not finite")
    _, w_plus, w_minus = _two_point_law(p, obs)
    c, r = obs.c, obs.r
    return w_plus * math.exp(lam * (c + r)) + w_minus * math.exp(lam * (c - r))


def moments(p: ProbabilityTriple, obs: GameObservable, n_max: int) -> MomentSequence:
    """Moments m_n = w+ (c + r)^n + w- (c - r)^n for n = 0 .. n_max, from the two-point law.

    Every moment depends on the state only through the mean, and each is
    accurate at every order; a power beyond the float range raises OverflowError.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    f, w_plus, w_minus = _two_point_law(p, obs)
    c, r = obs.c, obs.r
    # A list, not a generator: tuple() of a list allocates the exact size, which
    # keeps CPython's per-size tuple free lists from filling up (MBs of RSS).
    return MomentSequence(
        moments=tuple([w_plus * (c + r) ** n + w_minus * (c - r) ** n for n in range(n_max + 1)]),
        c=c,
        r=r,
        f=None if obs.is_degenerate() else f,
    )


def outcome_distribution(
    p: ProbabilityTriple, obs: GameObservable
) -> list[tuple[float, float]]:
    """Measurement outcomes (c + r, c - r) with their Born probabilities.

    The probabilities are (1 + f) / 2 and (1 - f) / 2; a degenerate
    observable yields the single outcome c with probability 1. Requires a
    quantum-admissible state: |f| beyond 1 + 1e-9 cannot come from a state
    inside the ball and is reported as an error rather than clamped away.
    """
    if obs.is_degenerate():
        return [(obs.c, 1.0)]
    f, _, _ = _two_point_law(p, obs)
    if abs(f) > 1.0 + ANISOTROPY_ATOL:
        raise NonQuantumStateError(
            f"anisotropy coefficient {f!r} exceeds 1 in magnitude; "
            f"p={p.as_tuple()} is not a quantum state for this observable"
        )
    f = max(-1.0, min(1.0, f))
    c, r = obs.c, obs.r
    return [(c + r, (1.0 + f) / 2.0), (c - r, (1.0 - f) / 2.0)]
