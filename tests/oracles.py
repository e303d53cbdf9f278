"""Closed-form reference computations, independent of the library paths they check.

Everything here is deliberately written from the raw 2x2 matrix entries
(quadratic eigenvalue formula, traceless-split exponential, literal trace
products) so that agreement with the library is evidence, not tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np


def _constant(values: list[list[complex]]) -> np.ndarray:
    m = np.array(values, dtype=complex)
    m.setflags(write=False)
    return m


IDENTITY_2 = _constant([[1, 0], [0, 1]])
PAULI_X = _constant([[0, 1], [1, 0]])
PAULI_Y = _constant([[0, -1j], [1j, 0]])
PAULI_Z = _constant([[1, 0], [0, -1]])


def coin_matrix(p1: float, p2: float, p3: float) -> np.ndarray:
    """Matrix of a coin triple, rebuilt from scratch for oracle use."""
    off = complex(p1 - 0.5, p2 - 0.5)
    return np.array([[p3, off.conjugate()], [off, 1.0 - p3]], dtype=complex)


def cycled(p):
    """Cyclic relabeling of the axes: (p1, p2, p3) -> (p2, p3, p1)."""
    return type(p)(p.p2, p.p3, p.p1)


def hermitian_eigenvalues(matrix: np.ndarray) -> tuple[float, float]:
    """Eigenvalues (low, high) of a 2x2 Hermitian matrix via the quadratic formula."""
    a = matrix[0, 0].real
    d = matrix[1, 1].real
    center = (a + d) / 2.0
    shift = np.sqrt(((a - d) / 2.0) ** 2 + abs(matrix[1, 0]) ** 2)
    return (center - shift, center + shift)


def expm_hermitian_2x2(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential of a 2x2 Hermitian matrix.

    Splits the matrix into a multiple of the identity plus a traceless
    remainder T. Since T^2 = r^2 I for Hermitian traceless T, the series
    collapses to exp = e^c [cosh(r) I + (sinh(r) / r) T].
    """
    m = np.asarray(matrix, dtype=complex)
    c = np.trace(m).real / 2.0
    t = m - c * np.eye(2)
    r = float(np.sqrt(abs(t[1, 0]) ** 2 + t[0, 0].real ** 2))
    if r == 0.0:
        return np.exp(c) * np.eye(2, dtype=complex)
    return np.exp(c) * (np.cosh(r) * np.eye(2) + (np.sinh(r) / r) * t)


def hermitian_part(matrix) -> np.ndarray:
    """(m + m^H) / 2 of a 2x2 matrix in complex128, as numpy computes it: the bytes a DensityMatrix stores."""
    m = np.array(matrix, dtype=complex)
    return (m + m.conj().T) / 2.0


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Tr(a @ b) by literal matrix multiplication."""
    return float(np.trace(a @ b).real)


def random_cube_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform samples from the unit cube, shape (count, 3)."""
    return rng.random((count, 3))


def random_ball_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform samples from the quantum ball via rejection, shape (count, 3)."""
    points = np.empty((0, 3))
    while len(points) < count:
        batch = rng.random((2 * (count - len(points)) + 16, 3))
        inside = batch[np.sum((batch - 0.5) ** 2, axis=1) <= 0.25]
        points = np.vstack([points, inside])
    return points[:count]


def reference_states(region: str, count: int, gen: np.random.Generator) -> list[tuple[float, float, float]]:
    """Per-draw sampler: ``count`` triples, drawing one row of three numbers at a time.

    Cube rows are kept as drawn. Ball rows are redrawn until the
    left-to-right sum of squared offsets from 1/2 is at most 1/4. Sphere
    rows are standard normal directions, redrawn while their norm is 0 and
    scaled onto the sphere of radius 1/2 around the center, with the norm
    summed in order and rooted by ``math.sqrt``.
    """
    states = []
    while len(states) < count:
        if region == "cube":
            states.append(tuple(gen.random(3).tolist()))
        elif region == "ball":
            point = gen.random(3).tolist()
            d = [x - 0.5 for x in point]
            if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= 0.25:
                states.append(tuple(point))
        elif region == "sphere":
            x0, x1, x2 = gen.standard_normal(3).tolist()
            norm = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
            if norm > 0.0:
                scale = 0.5 / norm
                states.append((0.5 + x0 * scale, 0.5 + x1 * scale, 0.5 + x2 * scale))
        else:
            raise ValueError(f"unknown region {region!r}")
    return states


def binomial_pmf(n: int, p: float) -> list[float]:
    """Pmf of the heads count of ``n`` tosses of a coin with heads probability ``p``: each term exact, rounded once.

    With p = a / d exactly, the term k is comb(n, k) a^k (d - a)^(n - k) / d^n, an integer
    ratio that Python's true division rounds correctly.
    """
    heads = Fraction(p)
    a, d = heads.numerator, heads.denominator
    tails_powers = [1]
    for _ in range(n):
        tails_powers.append(tails_powers[-1] * (d - a))
    total, heads_power, pmf = d**n, 1, []
    for k in range(n + 1):
        pmf.append(math.comb(n, k) * heads_power * tails_powers[n - k] / total)
        heads_power *= a
    return pmf


def chi_square_survival(statistic: float, df: int) -> float:
    """P(X >= statistic) for X chi-square distributed with ``df`` degrees of freedom."""
    return float(mpmath.gammainc(df / 2, statistic / 2, mpmath.inf, regularized=True))


def edge_cube_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Cube samples that reach the cube's edge cases, shape (count, 3).

    A quarter of the rows lie within 10^-3 of a cube corner, at distances
    spread from 10^-16 to 10^-3 on a log scale. In the other rows each
    component is uniform, within 10^-3 of a face, or one of the values
    0, 1/4, 1/2, 1, 1 - 2^-53, 2^-60, 1e-300 and the smallest subnormal.
    """
    corner = rng.integers(0, 2, size=(count, 3)).astype(float)
    inward = 10.0 ** rng.uniform(-16.0, -3.0, size=(count, 3))
    near_corner = np.abs(corner - inward)
    special = np.array([0.0, 0.25, 0.5, 1.0, 1.0 - 2.0**-53, 2.0**-60, 1e-300, 5e-324])
    mixed = rng.random((count, 3))
    kind = rng.integers(0, 4, size=(count, 3))
    mixed = np.where(kind == 1, near_corner, mixed)
    mixed = np.where(kind == 2, special[rng.integers(0, len(special), size=(count, 3))], mixed)
    return np.where((np.arange(count) < count // 4)[:, None], near_corner, mixed)


def exact_offset(triple) -> list[Fraction]:
    """Offset p - 1/2 of a triple of floats from the ball center, in exact rationals."""
    return [Fraction(v) - Fraction(1, 2) for v in triple]


def exact_area(d: list[Fraction]) -> Fraction:
    """Summed square area 3/2 + 3 |d|^2 + (d1 + d2 + d3)^2 at the offset d = p - 1/2, in exact rationals."""
    return Fraction(3, 2) + 3 * sum(dk * dk for dk in d) + sum(d) ** 2


def exact_side_squared(a: float, b: float) -> Fraction:
    """Squared side (a - 1 + b)^2 + (a - 1)^2 + b^2 of the square coupling coins a and b, in exact rationals."""
    a, b = Fraction(a), Fraction(b)
    return (a - 1 + b) ** 2 + (a - 1) ** 2 + b * b


def exact_real(value: Fraction) -> mpmath.mpf:
    """A rational as an mpmath number at the working precision (60 digits inside ``mpmath.workdps(60)``)."""
    return mpmath.mpf(value.numerator) / value.denominator


def sqrt_relative_error(value: float, square: Fraction) -> float:
    """Relative error of ``value`` as the square root of ``square``, measured at 60 digits; 0 only if exact."""
    if square == 0:
        return 0.0 if value == 0.0 else math.inf
    with mpmath.workdps(60):
        root = mpmath.sqrt(exact_real(square))
        return float(abs(value - root) / root)


def moments_oracle(p, obs, n_max: int) -> tuple[float, ...]:
    """Moments m_0 .. m_{n_max} by literal matrix powers Tr(rho A^n); no recurrence."""
    rho = coin_matrix(*p.as_tuple())
    a = obs.to_matrix()
    values = []
    power = np.eye(2, dtype=complex)
    for _ in range(n_max + 1):
        values.append(trace_product(rho, power))
        power = power @ a
    return tuple(values)


def moments_exact(p, obs, n_max: int) -> tuple[float, ...]:
    """Moments m_0 .. m_{n_max} of the float inputs, each exactly computed then rounded once.

    By Cayley-Hamilton A^2 = 2c A + (r^2 - c^2) I, so the moments obey
    m_{n+2} = 2c m_{n+1} + (r^2 - c^2) m_n from m_0 = 1 and m_1 = Tr(rho A).
    Floats are dyadic rationals, so the denominators of 2c, r^2 - c^2 and
    m_1 are powers of two; with S the largest of them, M_n = S^n m_n is an
    integer sequence with integer coefficients. It is run exactly, and each
    M_n / S^n is rounded once by Python's correctly rounded int division.
    """
    p1, p2, p3 = (Fraction(v) for v in p.as_tuple())
    x, y, z1, z2 = (Fraction(v) for v in (obs.x, obs.y, obs.z1, obs.z2))
    c, z = (z1 + z2) / 2, (z1 - z2) / 2
    coeff = x * x + y * y + z * z - c * c
    first = (2 * p1 - 1) * x + (2 * p2 - 1) * y + p3 * z1 + (1 - p3) * z2
    scale = max(q.denominator for q in (2 * c, coeff, first))
    a, b = int(2 * c * scale), int(coeff * scale * scale)
    numerators = [1, int(first * scale)]
    while len(numerators) <= n_max:
        numerators.append(a * numerators[-1] + b * numerators[-2])
    return tuple(m / scale**n for n, m in enumerate(numerators[: n_max + 1]))


def area_polynomial(points: np.ndarray) -> np.ndarray:
    """Summed square area in the expanded p form, for points of shape (..., 3).

    2 [3 + 2 (p1^2 + p2^2 + p3^2) - 3 (p1 + p2 + p3) + p1 p2 + p2 p3 + p3 p1]
    """
    p1, p2, p3 = points[..., 0], points[..., 1], points[..., 2]
    return 2.0 * (
        3.0
        + 2.0 * (p1 * p1 + p2 * p2 + p3 * p3)
        - 3.0 * (p1 + p2 + p3)
        + p1 * p2 + p2 * p3 + p3 * p1
    )


def _project(point: np.ndarray, region: str) -> np.ndarray:
    """Clip to the cube; for the ball, first pull outside points radially onto the sphere."""
    if region == "ball":
        offset = point - 0.5
        norm_sq = float(offset @ offset)
        if norm_sq > 0.25:
            point = 0.5 + offset * np.sqrt(0.25 / norm_sq)
    return np.clip(point, 0.0, 1.0)


def compass_search_max_area(
    region: str,
    grid_density: int = 50,
    refinement_steps: int = 20,
    max_sweeps_per_step: int = 64,
) -> tuple[np.ndarray, float]:
    """Numeric area maximum over the cube or ball: (best point, best value).

    A dense axis-aligned grid scan picks the starting point, then a compass
    search refines it, halving the step ``refinement_steps`` times. Steps
    leaving the cube are clipped; steps leaving the ball are projected
    radially onto the sphere, and the radial projection of the current
    point is offered as an extra candidate.
    """
    axis = np.linspace(0.0, 1.0, grid_density)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    if region == "ball":
        grid = grid[np.sum((grid - 0.5) ** 2, axis=1) <= 0.25 + 1e-12]
    values = area_polynomial(grid)
    best_index = int(np.argmax(values))
    point = grid[best_index].copy()
    best_value = float(values[best_index])

    step = 1.0 / (grid_density - 1)
    for _ in range(refinement_steps):
        for _ in range(max_sweeps_per_step):
            candidates = []
            for k in range(3):
                for move in (step, -step):
                    moved = point.copy()
                    moved[k] += move
                    candidates.append(_project(moved, region))
            if region == "ball":
                offset = point - 0.5
                norm_sq = float(offset @ offset)
                if norm_sq > 1e-30:
                    candidates.append(0.5 + offset * np.sqrt(0.25 / norm_sq))
            candidate_values = [float(area_polynomial(c)) for c in candidates]
            sweep_best = int(np.argmax(candidate_values))
            if candidate_values[sweep_best] <= best_value:
                break
            best_value = candidate_values[sweep_best]
            point = candidates[sweep_best]
        step *= 0.5
    return point, best_value
