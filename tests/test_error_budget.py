"""Error budget of the scalar formulas: their worst error over a seeded sweep of the accepted domain.

Each test runs one seeded sweep, measures the largest error of a formula
against an exact oracle and asserts the bound stated in the README's
error-budget table. The oracle is rational arithmetic (``fractions``)
where the exact value is rational, and mpmath at 60 digits where a square
root or an exponential enters. Bounds are in units of U = 2^-53, the unit
roundoff of a float.

The triples cover the whole cube: uniform points, points near its
corners and faces, and the edge values 0, 1/2, 1, 1 - 2^-53 and tiny or
subnormal components. Quantum states are ball points and pure states on
the sphere. Payoffs range over 1e-150 to 1e150 with offsets c up to 1e3,
every observable but r = 0 included; moments whose size (|c| + r)^n
leaves 2^-1000 to 2^1000 and results past the float range are outside
this budget.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

import spincoins as sc
from oracles import (
    edge_cube_points,
    exact_area,
    exact_offset,
    exact_real,
    exact_side_squared,
    moments_exact,
    reference_states,
    sqrt_relative_error,
)

U = 2.0**-53
SEED = 12
SMALLEST_NORMAL = Fraction(2) ** -1022


def _cube_triples(count: int, seed: int) -> list[sc.ProbabilityTriple]:
    return [sc.ProbabilityTriple(*point) for point in edge_cube_points(np.random.default_rng(seed), count).tolist()]


def _quantum_triples(count: int, seed: int) -> list[sc.ProbabilityTriple]:
    """Half ball points, half pure states on the sphere."""
    gen = np.random.default_rng(seed)
    points = reference_states("ball", count // 2, gen) + reference_states("sphere", count - count // 2, gen)
    return [sc.ProbabilityTriple(*point) for point in points]


def _observables(count: int, seed: int) -> list[sc.GameObservable]:
    """Payoffs x, y, z of magnitude 1e-150 to 1e150 (each zero one time in eight) around an offset c of up to 1e3."""
    gen = np.random.default_rng(seed)
    result = []
    for _ in range(count):
        x, y, z = (
            0.0 if gen.random() < 0.125 else float(gen.choice((-1.0, 1.0)) * 10.0 ** gen.uniform(-150.0, 150.0))
            for _ in range(3)
        )
        c = 0.0 if gen.random() < 0.25 else float(gen.choice((-1.0, 1.0)) * 10.0 ** gen.uniform(-3.0, 3.0))
        obs = sc.GameObservable(x, y, c + z, c - z)
        if not obs.is_degenerate():
            result.append(obs)
    return result


def _exact_f(p: sc.ProbabilityTriple, obs: sc.GameObservable) -> mpmath.mpf:
    """Anisotropy 2 d . (x, y, z) / r of the float inputs, at the working precision."""
    d = exact_offset(p.as_tuple())
    x, y = Fraction(obs.x), Fraction(obs.y)
    z = (Fraction(obs.z1) - Fraction(obs.z2)) / 2
    radius = mpmath.sqrt(exact_real(x * x + y * y + z * z))
    return exact_real(2 * (d[0] * x + d[1] * y + d[2] * z)) / radius


def test_payoff_radius():
    # r = hypot(x, y, z) with z = z1/2 - z2/2: z rounds once (0.5 U relative to
    # r), and hypot is within one ulp (2 U) of the r of the rounded z.
    worst = 0.0
    for obs in _observables(3000, SEED + 8):
        z = (Fraction(obs.z1) - Fraction(obs.z2)) / 2
        worst = max(worst, sqrt_relative_error(obs.r, Fraction(obs.x) ** 2 + Fraction(obs.y) ** 2 + z * z))
    print(f"r {worst / U:.3f} U")
    assert worst <= 2.5 * U


def test_radius_squared_purity_defect_and_eigenvalues():
    # radius_squared sums three squares of offsets, each exact or within U
    # relative, so its error is relative: 5 roundings. The defect adds one
    # subtraction and the eigenvalues a root and a sum; both are absolute.
    worst_radius = worst_defect = worst_eigen = 0.0
    for p in _cube_triples(3000, SEED):
        report = sc.quantum_validity(p)
        d = exact_offset(p.as_tuple())
        exact = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
        if exact == 0:
            assert report.radius_squared == 0.0
        else:
            worst_radius = max(worst_radius, float(abs(Fraction(report.radius_squared) - exact) / exact))
        worst_defect = max(worst_defect, float(abs(Fraction(report.purity_defect) - (exact - Fraction(1, 4)))))
        with mpmath.workdps(60):
            root = mpmath.sqrt(exact_real(exact))
            low, high = report.eigenvalues
            worst_eigen = max(worst_eigen, float(abs(low - (0.5 - root))), float(abs(high - (0.5 + root))))
    print(f"radius_squared {worst_radius / U:.3f} U, purity_defect {worst_defect / U:.3f} U, eigenvalues {worst_eigen / U:.3f} U")
    assert worst_radius <= 5 * U
    assert worst_defect <= 4 * U
    assert worst_eigen <= 4 * U


def test_overlap_including_antipodal_pure_pairs():
    # |d_p . d_q| <= 1/4 on the ball, so 1/2 + 2 d_p . d_q is within 2.5 U of exact.
    states = _quantum_triples(4000, SEED + 1)
    pairs = list(zip(states[::2], states[1::2]))
    # q = 1 - p, rounded, is the antipode of p; for the pure p of the second half their overlap is about 0
    pairs += [(p, sc.ProbabilityTriple(*(1.0 - v for v in p.as_tuple()))) for p in states[len(states) // 2 :]]
    worst = 0.0
    for p, q in pairs:
        dp, dq = exact_offset(p.as_tuple()), exact_offset(q.as_tuple())
        exact = Fraction(1, 2) + 2 * (dp[0] * dq[0] + dp[1] * dq[1] + dp[2] * dq[2])
        worst = max(worst, float(abs(Fraction(sc.overlap(p, q)) - exact)))
    print(f"overlap {worst / U:.3f} U")
    assert worst <= 3 * U


def test_side_lengths_and_area():
    # A side's error is relative down to the smallest normal float; below
    # it, a side is a subnormal and within the smallest subnormal. The area
    # is at least 3/2, so its error is relative too.
    worst_side = worst_tiny = worst_area = 0.0
    for p in _cube_triples(3000, SEED + 2):
        triad = sc.side_lengths(p)
        components = p.as_tuple()
        for k, side in enumerate(triad.sides):
            square = exact_side_squared(components[k], components[(k + 1) % 3])
            if square >= SMALLEST_NORMAL * SMALLEST_NORMAL:
                worst_side = max(worst_side, sqrt_relative_error(side, square))
            else:
                with mpmath.workdps(60):
                    worst_tiny = max(worst_tiny, float(abs(side - mpmath.sqrt(exact_real(square))) * 2**1074))
        exact = exact_area(exact_offset(components))
        assert triad.area_sum == sc.area_sum_closed_form(p)
        worst_area = max(worst_area, float(abs(Fraction(triad.area_sum) - exact) / exact))
    print(f"sides {worst_side / U:.3f} U, subnormal sides {worst_tiny:.3f} x 2^-1074, area {worst_area / U:.3f} U")
    assert worst_side <= 2 * U
    assert worst_tiny <= 1.0
    assert worst_area <= 4 * U


def test_probs_to_density_and_density_to_probs():
    # Each image is perturbed inside the constructor's tolerances: the
    # off-diagonal pair loses Hermiticity by up to 6e-11 (its Hermitian part
    # is unchanged) and the trace moves by up to 3e-13.
    gen = np.random.default_rng(SEED + 3)
    worst_matrix = worst_probs = 0.0
    for p in _cube_triples(4000, SEED + 3):
        p1, p2, p3 = (Fraction(v) for v in p.as_tuple())
        off = (p1 - Fraction(1, 2), p2 - Fraction(1, 2))
        a, b, c, d = sc.probs_to_density(p).entries
        for value, (re, im) in zip((a, b, c, d), ((p3, 0), (off[0], -off[1]), off, (1 - p3, 0))):
            worst_matrix = max(worst_matrix, float(abs(Fraction(value.real) - re)), float(abs(Fraction(value.imag) - im)))
        j1, j2, j3 = gen.uniform(-3e-11, 3e-11, size=3).tolist()
        m = [[a, complex(b.real + j1, b.imag + j2)], [complex(c.real - j1, c.imag + j2), d + j3 * 1e-2]]
        exact = (
            Fraction(1, 2) + (Fraction(m[1][0].real) + Fraction(m[0][1].real)) / 2,
            Fraction(1, 2) + (Fraction(m[1][0].imag) - Fraction(m[0][1].imag)) / 2,
            p3,
        )
        for value, exact_value in zip(sc.density_to_probs(m).as_tuple(), exact):
            worst_probs = max(worst_probs, float(abs(Fraction(value) - exact_value)))
    print(f"probs_to_density {worst_matrix / U:.3f} U, density_to_probs {worst_probs / U:.3f} U")
    assert worst_matrix <= 0.5 * U
    assert worst_probs <= 1 * U


def test_mean_and_anisotropy():
    # The mean's error is relative to |x| + |y| + |z1| + |z2|, which bounds
    # |<A>| over the cube; f's error is absolute, and |f| <= 1 on the ball.
    observables = _observables(2000, SEED + 4)
    worst_mean = worst_f = 0.0
    for p, obs in zip(_cube_triples(len(observables), SEED + 4), observables):
        p1, p2, p3 = (Fraction(v) for v in p.as_tuple())
        x, y, z1, z2 = (Fraction(v) for v in (obs.x, obs.y, obs.z1, obs.z2))
        exact = (2 * p1 - 1) * x + (2 * p2 - 1) * y + p3 * z1 + (1 - p3) * z2
        scale = abs(x) + abs(y) + abs(z1) + abs(z2)
        worst_mean = max(worst_mean, float(abs(Fraction(sc.mean(p, obs)) - exact) / scale))
    for p, obs in zip(_quantum_triples(len(observables), SEED + 5), observables):
        f = sc.moments(p, obs, 0).f
        with mpmath.workdps(60):
            worst_f = max(worst_f, float(abs(f - _exact_f(p, obs))))
        assert abs(f) <= 1.0 + 1e-15
    print(f"mean {worst_mean / U:.3f} U, f {worst_f / U:.3f} U")
    assert worst_mean <= 5 * U
    assert worst_f <= 8 * U


def test_moments_to_order_20():
    # Error relative to (|w+| + |w-|) (|c| + r)^n, the size of the two-point
    # law's terms: c + r and c - r are within about 2.5 U of exact on the
    # scale |c| + r, and the n-th power multiplies that by n. Orders whose
    # (|c| + r)^n leaves 2^-1000 to 2^1000 are outside the budget.
    observables = _observables(600, SEED + 6)
    worst, counts = [0.0] * 21, [0] * 21
    for p, obs in zip(_cube_triples(len(observables), SEED + 6), observables):
        reach = abs(obs.c) + obs.r
        n_max = max(n for n in range(21) if n * abs(math.log2(reach)) <= 1000)
        seq = sc.moments(p, obs, n_max)
        weight = abs(1.0 + seq.f) / 2.0 + abs(1.0 - seq.f) / 2.0
        for n, (value, exact) in enumerate(zip(seq.moments, moments_exact(p, obs, n_max))):
            worst[n] = max(worst[n], abs(value - exact) / (weight * reach**n))
            counts[n] += 1
    print("moments", " ".join(f"{n}:{w / U:.2f}" for n, w in enumerate(worst)), "count at n = 20:", counts[20])
    assert counts[20] >= 50
    assert all(w <= (2 * n + 4) * U for n, w in enumerate(worst))


def test_generating_function():
    # Error relative to e^{lam (c + r)} + e^{lam (c - r)}, as a weight's
    # absolute error multiplies either exponential, per unit of 1 + |lam| (|c| + r):
    # an exponent's rounding grows with the size of its argument.
    observables = _observables(1200, SEED + 7)
    gen = np.random.default_rng(SEED + 7)
    worst = 0.0
    for p, obs in zip(_cube_triples(len(observables), SEED + 7), observables):
        reach = abs(obs.c) + obs.r
        lam = float(gen.choice((-1.0, 1.0)) * 10.0 ** gen.uniform(-3.0, 2.8)) / reach
        value = sc.generating_function(p, obs, lam)
        z1, z2 = Fraction(obs.z1), Fraction(obs.z2)
        with mpmath.workdps(60):
            f = _exact_f(p, obs)
            c = exact_real((z1 + z2) / 2)
            r = mpmath.sqrt(exact_real(Fraction(obs.x) ** 2 + Fraction(obs.y) ** 2 + ((z1 - z2) / 2) ** 2))
            up, down = mpmath.exp(lam * (c + r)), mpmath.exp(lam * (c - r))
            error = abs(value - ((1 + f) / 2 * up + (1 - f) / 2 * down)) / (up + down)
            worst = max(worst, float(error / (1 + abs(lam) * reach)))
    print(f"genfun {worst / U:.3f} U per unit of 1 + |lam| (|c| + r)")
    assert worst <= 4 * U
