"""The samplers draw from their exact laws, not only from their pinned streams.

Each law below is the uniform law on [0, 1] of one number per row, so a
one-sample Kolmogorov-Smirnov statistic checks it:
- cube: each coordinate p_k;
- ball: the cubed radius (2|d|)^3, with d = p - 1/2, and each direction
  component (d_k/|d| + 1)/2;
- sphere: each coordinate p_k, by Archimedes' hat-box theorem.
The hit count of ``quantum_fraction`` is binomial with mean pi/6, so its
Wilson score interval (Wilson, JASA 22, 1927) must contain pi/6.

Fixed before any result was looked at: 10^5 rows per region and 10^6
quantum_fraction samples, all from seed ``LAW_SEED`` on streams 0 to 3,
and alpha of about 1e-6 for each of the 11 checks (3 cube, 4 ball,
3 sphere, 1 Wilson). The Kolmogorov bound sqrt(n) D <= 2.69 is taken from
the asymptotic distribution (Marsaglia, Tsang & Wang, J. Stat. Softw.
8(18), 2003), and the Wilson interval is taken at z = 4.89. A correct
sampler fails this file with probability about 1.1e-5.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import spincoins as sc

LAW_SEED = 27
LAW_ROWS = 10**5
LAW_QF_SAMPLES = 10**6
KS_BOUND = 2.69
WILSON_Z = 4.89
STREAMS = {"cube": 0, "ball": 1, "sphere": 2, "quantum_fraction": 3}


def ks_uniform(values: np.ndarray) -> float:
    """sqrt(n) D, where D is the largest distance between the empirical CDF of ``values`` and the uniform CDF on [0, 1]."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    ranks = np.arange(1, n + 1)
    return math.sqrt(n) * max(float(np.max(ranks / n - x)), float(np.max(x - (ranks - 1) / n)))


def wilson_interval(hits: int, n: int, z: float) -> tuple[float, float]:
    """The Wilson score interval of a binomial proportion ``hits / n`` at ``z`` standard deviations."""
    p = hits / n
    scale = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / scale
    half = z / scale * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n))
    return centre - half, centre + half


def rows(region: str) -> np.ndarray:
    return np.array([s.as_tuple() for s in sc.sample_states(region, LAW_ROWS, sc.RngSpec(LAW_SEED, STREAMS[region]))])


def ball_laws(points: np.ndarray) -> list[np.ndarray]:
    """The four numbers of each ball row that are uniform on [0, 1]: the cubed radius, then the three direction components."""
    d = points - 0.5
    norm = np.sqrt(np.sum(d * d, axis=1))
    return [(2.0 * norm) ** 3, *((d / norm[:, None] + 1.0) / 2.0).T]


def test_the_bounds_have_alpha_near_one_in_a_million():
    kolmogorov_tail = 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * KS_BOUND**2) for k in range(1, 20))
    normal_tail = math.erfc(WILSON_Z / math.sqrt(2.0))
    for alpha in (kolmogorov_tail, normal_tail):
        assert 0.9e-6 <= alpha <= 1.1e-6


@pytest.mark.parametrize("region", ["cube", "sphere"])
def test_each_coordinate_is_uniform(region):
    statistics = [ks_uniform(column) for column in rows(region).T]
    assert max(statistics) <= KS_BOUND, statistics


def test_ball_radius_cubed_and_direction_are_uniform():
    statistics = [ks_uniform(values) for values in ball_laws(rows("ball"))]
    assert max(statistics) <= KS_BOUND, statistics


def test_quantum_fraction_wilson_interval_holds_pi_over_six():
    fraction = sc.quantum_fraction(LAW_QF_SAMPLES, sc.RngSpec(LAW_SEED, STREAMS["quantum_fraction"]))
    low, high = wilson_interval(round(fraction * LAW_QF_SAMPLES), LAW_QF_SAMPLES, WILSON_Z)
    assert low <= math.pi / 6.0 <= high, (low, fraction, high)


# The checks above refuse samplers that draw from a wrong law on the right support.


def test_the_sphere_check_refuses_normalised_cube_points():
    d = rows("cube") - 0.5
    on_sphere = 0.5 + d * (0.5 / np.sqrt(np.sum(d * d, axis=1)))[:, None]
    assert min(ks_uniform(column) for column in on_sphere.T) > KS_BOUND


def test_the_ball_check_refuses_a_uniform_radius():
    d = rows("ball") - 0.5
    radius = 0.5 * np.random.default_rng(LAW_SEED).random(LAW_ROWS)
    statistics = [ks_uniform(values) for values in ball_laws(0.5 + d * (radius / np.sqrt(np.sum(d * d, axis=1)))[:, None])]
    assert statistics[0] > KS_BOUND
    assert max(statistics[1:]) <= KS_BOUND


def test_the_wilson_check_refuses_a_count_six_standard_errors_off():
    exact = math.pi / 6.0
    off = round((exact + 6.0 * math.sqrt(exact * (1.0 - exact) / LAW_QF_SAMPLES)) * LAW_QF_SAMPLES)
    assert not wilson_interval(off, LAW_QF_SAMPLES, WILSON_Z)[0] <= exact
