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
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .core import (
    CoinStateError, NonQuantumStateError, ProbabilityTriple,
    _as_float, _as_int, _coerce_fields, _dot, _in_ball, _offset, _payload_fields,
)

if TYPE_CHECKING:
    import numpy as np


class InvalidObservableError(CoinStateError):
    """Payoff quadruple contains a non-finite or non-numeric entry."""


@dataclass(frozen=True, slots=True)
class GameObservable:
    """Payoff quadruple (x, y, z1, z2) of the three-coin game.

    Derived quantities, computed once at construction: ``c = z1/2 + z2/2``
    is the isotropic payoff offset, ``z = z1/2 - z2/2`` the half payoff gap
    of the third coin (neither overflows), and ``r = hypot(x, y, z)`` the
    payoff radius, 0 only if x = y = z = 0. They are stored fields that take
    no argument and play no part in equality, hashing or repr. The matrix
    form has eigenvalues c - r and c + r.
    """

    x: float
    y: float
    z1: float
    z2: float
    c: float = field(init=False, repr=False, compare=False)
    z: float = field(init=False, repr=False, compare=False)
    r: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _coerce_fields(self, ("x", "y", "z1", "z2"), InvalidObservableError, -math.inf, math.inf, "finite")
        z = self.z1 / 2.0 - self.z2 / 2.0
        object.__setattr__(self, "c", self.z1 / 2.0 + self.z2 / 2.0)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "r", math.hypot(self.x, self.y, z))

    def is_degenerate(self) -> bool:
        """True when the observable is a multiple of the identity (r = 0)."""
        return self.r == 0.0

    def to_matrix(self) -> np.ndarray:
        """Hermitian matrix form [[z1, x - iy], [x + iy, z2]].

        Equals c * I + x * sigma_x + y * sigma_y + z * sigma_z.
        """
        import numpy as np

        return np.array(
            [[self.z1, complex(self.x, -self.y)], [complex(self.x, self.y), self.z2]],
            dtype=complex,
        )

    def eigenvalues(self) -> tuple[float, float]:
        """Outcome values (c - r, c + r)."""
        return (self.c - self.r, self.c + self.r)

    def _coin_means(self, p1: float, p2: float, p3: float) -> tuple[float, float, float]:
        """Coin means (2 p1 - 1) x, (2 p2 - 1) y, p3 z1 + (1 - p3) z2: the one formula that :func:`mean` sums."""
        return (2.0 * p1 - 1.0) * self.x, (2.0 * p2 - 1.0) * self.y, p3 * self.z1 + (1.0 - p3) * self.z2

    def to_dict(self) -> dict[str, float]:
        return {"x": self.x, "y": self.y, "z1": self.z1, "z2": self.z2}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GameObservable":
        return cls(*_payload_fields(payload, ("x", "y", "z1", "z2"), InvalidObservableError))


@dataclass(frozen=True, slots=True)
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
    mean_x, mean_y, mean_z = obs._coin_means(p.p1, p.p2, p.p3)
    return mean_x + mean_y + mean_z


def _two_point_law(
    p: ProbabilityTriple, obs: GameObservable
) -> tuple[float, tuple[float, float], tuple[float, float], tuple[float, float]]:
    """Anisotropy f = (<A> - c) / r (0 if r = 0), c + r and c - r each with its weight (1 +- f) / 2, and (c - r, c + r).

    f is computed as 2 (d . (x, y, z) / r) with d = p - 1/2: free of the cancellation in <A> - c that can
    push |f| of a pure state past 1, and finite wherever f is, as the quotient is taken before the doubling.
    An outcome of weight 0 (f = +-1, so the other weight is 1.0) is paired with the zero of its sign, whole only in
    the last item: its power or exponential cannot overflow, and w v^n (n >= 2) and w exp(lam v) keep their bits.
    """
    f = 0.0 if obs.is_degenerate() else 2.0 * (_dot(_offset(p), (obs.x, obs.y, obs.z)) / obs.r)
    (down, up), w_plus, w_minus = obs.eigenvalues(), (1.0 + f) / 2.0, (1.0 - f) / 2.0
    return (f, (up if w_plus else math.copysign(0.0, up), w_plus), (down if w_minus else math.copysign(0.0, down), w_minus),
            (down, up))


def second_moment(p: ProbabilityTriple, obs: GameObservable) -> float:
    """Second moment w+ (c + r)^2 + w- (c - r)^2, valid for any cube triple: the order-2 term of :func:`moments`."""
    return moments(p, obs, 2).moments[2]


def generating_function(p: ProbabilityTriple, obs: GameObservable, lam: float) -> float:
    """Moment generating function G(lam) = Tr(rho exp(lam A)) in closed form.

    From the two-point law, G(lam) = w+ exp(lam (c + r)) + w- exp(lam (c - r));
    for degenerate observables (r = 0) this collapses to exp(lam c).
    """
    lam = _as_float(lam, "lam", ValueError, "finite")
    if not math.isfinite(lam):
        raise ValueError(f"lam={lam!r} is not finite")
    _, (up, w_plus), (down, w_minus), _ = _two_point_law(p, obs)
    return w_plus * math.exp(lam * up) + w_minus * math.exp(lam * down)


def moments(p: ProbabilityTriple, obs: GameObservable, n_max: int) -> MomentSequence:
    """Moments m_n = w+ (c + r)^n + w- (c - r)^n for n = 0 .. n_max, from the two-point law.

    m_0 is Tr rho = 1 and m_1 is :func:`mean`. Every moment depends on the state only through
    the mean, and each is accurate at every order; a power beyond the float range raises OverflowError.
    """
    n_max = _as_int(n_max, "n_max", 0)
    f, (up, w_plus), (down, w_minus), _ = _two_point_law(p, obs)
    # A list, not a generator: a tuple made of a list has the exact size, which
    # keeps CPython's per-size tuple free lists from filling up (MBs of RSS).
    law = [w_plus * up**n + w_minus * down**n for n in range(2, n_max + 1)]
    return MomentSequence(moments=(1.0, mean(p, obs), *law)[: n_max + 1], c=obs.c, r=obs.r, f=None if obs.is_degenerate() else f)


def outcome_distribution(
    p: ProbabilityTriple, obs: GameObservable
) -> list[tuple[float, float]]:
    """Measurement outcomes (c + r, c - r) with their Born probabilities.

    The probabilities are (1 + f) / 2 and (1 - f) / 2; a degenerate
    observable yields the single outcome c with probability 1. Requires a
    quantum state: an f whose half, d = p - 1/2 along the payoffs, fails the
    ball test (NaN included) is reported as an error rather than clamped away.
    """
    if obs.is_degenerate():
        return [(obs.c, 1.0)]
    f, (_, w_plus), (_, w_minus), (down, up) = _two_point_law(p, obs)
    if not _in_ball(f * f / 4.0):
        raise NonQuantumStateError(
            f"anisotropy coefficient {f!r} exceeds 1 in magnitude; "
            f"p={p.as_tuple()} is not a quantum state for this observable"
        )
    if abs(f) > 1.0:  # past 1 by no more than the ball's tolerance: the probabilities of f = +-1
        w_plus, w_minus = (1.0, 0.0) if f > 0.0 else (0.0, 1.0)
    return [(up, w_plus), (down, w_minus)]
