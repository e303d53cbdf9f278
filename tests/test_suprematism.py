"""Tests for the Malevich-square geometry and the exact area maxima."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import spincoins as sc
from oracles import compass_search_max_area, cycled

probabilities = st.floats(min_value=0.0, max_value=1.0)
triples = st.builds(sc.ProbabilityTriple, probabilities, probabilities, probabilities)


class TestSideLengths:
    def test_ball_center(self):
        triad = sc.side_lengths(sc.ProbabilityTriple(0.5, 0.5, 0.5))
        assert triad.sides == pytest.approx((math.sqrt(0.5),) * 3, abs=1e-12)
        assert triad.area_sum == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("corner", [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
    def test_classical_maximum_corners(self, corner):
        triad = sc.side_lengths(sc.ProbabilityTriple(*corner))
        assert triad.sides == pytest.approx((math.sqrt(2.0),) * 3, abs=1e-12)
        assert triad.area_sum == pytest.approx(6.0, abs=1e-12)

    def test_cyclic_index_order(self):
        # Side k couples coins (k, k+1): for (1, 0, 0) the pairs are
        # (1,0) -> 0, (0,0) -> sqrt 2, (0,1) -> sqrt 2.
        triad = sc.side_lengths(sc.ProbabilityTriple(1.0, 0.0, 0.0))
        assert triad.sides == pytest.approx((0.0, math.sqrt(2.0), math.sqrt(2.0)), abs=1e-12)

    def test_sides_nonnegative_at_degenerate_pair(self):
        triad = sc.side_lengths(sc.ProbabilityTriple(1.0, 0.0, 0.5))
        assert min(triad.sides) >= 0.0

    def test_negative_rounded_radicand_clamps_to_zero(self):
        # The expanded radicand of side 1 rounds to about -4.4e-16 here.
        triad = sc.side_lengths(sc.ProbabilityTriple(0.999999999, 4e-09, 0.5))
        assert triad.sides[0] == 0.0


class TestAreaClosedForm:
    def test_classical_maximum(self):
        assert sc.area_sum_closed_form(sc.ProbabilityTriple(0.0, 0.0, 0.0)) == 6.0

    def test_ball_center(self):
        assert sc.area_sum_closed_form(sc.ProbabilityTriple(0.5, 0.5, 0.5)) == pytest.approx(1.5, abs=1e-12)

    def test_pure_state(self):
        value = sc.area_sum_closed_form(sc.ProbabilityTriple(1.0, 0.5, 0.5))
        assert value == pytest.approx(2.5, abs=1e-12)

    @given(triples)
    @settings(max_examples=300)
    def test_matches_summed_side_squares(self, p):
        assert sc.side_lengths(p).area_sum == pytest.approx(sc.area_sum_closed_form(p), abs=1e-12)

    @given(triples)
    def test_cyclic_symmetry(self, p):
        assert sc.area_sum_closed_form(cycled(p)) == pytest.approx(
            sc.area_sum_closed_form(p), abs=1e-12
        )


def test_radicand_nonnegative_on_cube_bulk():
    # 1e6 random cube points; the side radicand never dips below -1e-12.
    gen = np.random.default_rng(5)
    points = gen.random((10**6, 3))
    worst = math.inf
    for k in range(3):
        a, b = points[:, k], points[:, (k + 1) % 3]
        radicand = 2 * a * a + 2 * b * b + 2 * a * b - 4 * a - 2 * b + 2
        worst = min(worst, float(np.min(radicand)))
    assert worst >= -1e-12


class TestMaximizeArea:
    def test_cube_bound(self):
        result = sc.maximize_area("cube")
        assert result.best_value == pytest.approx(6.0, abs=1e-6)
        components = result.best_p.as_tuple()
        assert components[0] == components[1] == components[2]
        assert components[0] in (0.0, 1.0)

    def test_ball_bound(self):
        result = sc.maximize_area("ball")
        assert result.best_value == pytest.approx(3.0, abs=1e-4)
        assert sc.quantum_validity(result.best_p).radius_squared <= 0.25 + 1e-9

    def test_ball_coarse_scan_never_exceeds_bound(self):
        result = sc.maximize_area("ball")
        assert result.best_value <= 3.0 + 1e-9

    def test_bound_separation(self):
        cube = sc.maximize_area("cube")
        ball = sc.maximize_area("ball")
        assert ball.best_value < cube.best_value

    def test_deterministic(self):
        first = sc.maximize_area("ball")
        second = sc.maximize_area("ball")
        assert first == second

    def test_rejects_bad_region(self):
        with pytest.raises(ValueError, match="region"):
            sc.maximize_area("sphere")

    def test_cube_maximum_is_exact_at_first_vertex(self):
        result = sc.maximize_area("cube")
        assert result.best_value == 6.0
        assert result.best_p == sc.ProbabilityTriple(0.0, 0.0, 0.0)
        assert result.iterations == 8

    def test_ball_maximum_is_exact_on_the_diagonal(self):
        result = sc.maximize_area("ball")
        p_k = 0.5 - math.sqrt(3.0) / 6.0
        assert result.best_value == 3.0
        assert result.best_p == sc.ProbabilityTriple(p_k, p_k, p_k)
        assert sc.quantum_validity(result.best_p).radius_squared <= 0.25
        assert result.iterations == 2


class TestCompassSearchOracle:
    @pytest.mark.parametrize("region", ["cube", "ball"])
    @pytest.mark.parametrize("grid_density,refinement_steps", [(10, 0), (10, 1), (20, 8), (50, 20)])
    def test_never_beats_exact_maximum(self, region, grid_density, refinement_steps):
        _, value = compass_search_max_area(region, grid_density, refinement_steps)
        assert value <= sc.maximize_area(region).best_value + 1e-12

    @pytest.mark.parametrize("region", ["cube", "ball"])
    def test_reaches_exact_maximum(self, region):
        point, value = compass_search_max_area(region)
        assert value >= sc.maximize_area(region).best_value - 1e-4
        assert sc.area_sum_closed_form(sc.ProbabilityTriple(*point)) == pytest.approx(value, abs=1e-12)


class TestExactAreaAlgebra:
    def test_p_polynomial_equals_offset_form(self):
        p = sympy.symbols("p1 p2 p3", real=True)
        half = sympy.Rational(1, 2)
        d = [pk - half for pk in p]
        polynomial = 2 * (
            3 + 2 * sum(pk**2 for pk in p) - 3 * sum(p) + p[0] * p[1] + p[1] * p[2] + p[2] * p[0]
        )
        offset_form = sympy.Rational(3, 2) + 3 * sum(dk**2 for dk in d) + sum(d) ** 2
        side_squares = sum(
            2 * a**2 + 2 * b**2 + 2 * a * b - 4 * a - 2 * b + 2
            for a, b in zip(p, p[1:] + p[:1])
        )
        assert sympy.expand(polynomial - offset_form) == 0
        assert sympy.expand(side_squares - offset_form) == 0

    def test_cube_maximum_in_rationals(self):
        half = Fraction(1, 2)
        areas = {
            vertex: _exact_area([Fraction(v) - half for v in vertex])
            for vertex in itertools.product((0, 1), repeat=3)
        }
        assert max(areas.values()) == 6
        assert [v for v, a in areas.items() if a == 6] == [(0, 0, 0), (1, 1, 1)]
        assert Fraction(sc.maximize_area("cube").best_value) == 6

    def test_ball_maximum_in_rationals(self):
        # On the diagonal d = -t (1, 1, 1) the sphere |d|^2 = 1/4 has t^2 = 1/12,
        # where the area is 3/2 + 3 (3 t^2) + 9 t^2 = 3.
        t_squared = Fraction(1, 12)
        assert 3 * t_squared == Fraction(1, 4)
        assert Fraction(3, 2) + 9 * t_squared + 9 * t_squared == 3
        result = sc.maximize_area("ball")
        d = [Fraction(x) - Fraction(1, 2) for x in result.best_p.as_tuple()]
        assert sum(dk * dk for dk in d) <= Fraction(1, 4)
        assert abs(_exact_area(d) - 3) <= Fraction(1, 2**50)
        assert Fraction(result.best_value) == 3


def _exact_area(d: list[Fraction]) -> Fraction:
    return Fraction(3, 2) + 3 * sum(dk * dk for dk in d) + sum(d) ** 2


class TestRenderTriadSvg:
    def test_deterministic_bytes(self):
        triad = sc.side_lengths(sc.ProbabilityTriple(0.3, 0.7, 0.2))
        assert sc.render_triad_svg(triad) == sc.render_triad_svg(triad)

    def test_three_squares_in_palette_order(self):
        svg = sc.render_triad_svg(sc.side_lengths(sc.ProbabilityTriple(0.5, 0.5, 0.5)))
        fills = [part.split('"')[1] for part in svg.split("fill=")[1:]]
        assert fills == ["red", "black", "white"]
        assert svg.count("<rect") == 3
        assert svg.count('stroke="black"') == 3

    def test_side_lengths_scale_linearly(self):
        triad = sc.side_lengths(sc.ProbabilityTriple(0.5, 0.5, 0.5))
        svg = sc.render_triad_svg(triad, scale=200.0)
        expected = 200.0 * triad.sides[0]
        assert f'width="{expected:.4f}"' in svg

    def test_zero_side_square_renders(self):
        svg = sc.render_triad_svg(sc.side_lengths(sc.ProbabilityTriple(1.0, 0.0, 0.0)))
        assert 'width="0.0000"' in svg

    def test_rejects_bad_scale(self):
        triad = sc.side_lengths(sc.ProbabilityTriple(0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="scale"):
            sc.render_triad_svg(triad, scale=0.0)
