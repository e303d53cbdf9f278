"""Malevich-square geometry of a coin triple: side lengths, areas, extremes.

Each probability triple defines three squares whose side lengths couple
cyclically adjacent coins. The summed square area separates the two
admissible regions: it reaches 6 over the whole cube (independent coins)
but only 3 over the quantum ball.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Literal

from .core import BALL_CENTER, ProbabilityTriple, _radius_squared

Region = Literal["cube", "ball"]

# Offset of the ball's area maximisers from the center along (1, 1, 1):
# the ball radius 1/2 divided by sqrt(3).
_BALL_DIAGONAL_OFFSET = math.sqrt(3.0) / 6.0

# Largest SVG scale, in pixels per unit side length; it keeps the canvas
# under 6 x 10^5 px a side, where a finite but huge scale would write a
# width no viewer can draw.
MAX_SCALE = 1e5

# Fixed canvas proportions for the SVG triad, in units of the scale factor.
_SVG_PAD = 0.25
_SVG_GAP = 0.25
_MAX_SIDE = math.sqrt(2.0)
_SQUARE_FILLS = ("red", "black", "white")


@dataclass(frozen=True)
class MalevichTriad:
    """Side lengths of the three squares and their summed area."""

    sides: tuple[float, float, float]
    area_sum: float


@dataclass(frozen=True)
class ExtremizationResult:
    """Area maximiser over a region, from :func:`maximize_area`.

    ``iterations`` is the number of candidate points evaluated.
    """

    best_p: ProbabilityTriple
    best_value: float
    iterations: int
    region: Region

    def to_dict(self) -> dict:
        return {
            "region": self.region,
            "best_value": self.best_value,
            "best_p": self.best_p.to_dict(),
            "iterations": self.iterations,
        }


def _side_squared(a: float, b: float) -> float:
    return 2.0 * a * a + 2.0 * b * b + 2.0 * a * b - 4.0 * a - 2.0 * b + 2.0


def side_lengths(p: ProbabilityTriple) -> MalevichTriad:
    """Side lengths y_1, y_2, y_3 of the triad, plus the summed area.

    Side k couples coin k with coin k+1, indices wrapping 3 -> 1:

        y_k^2 = 2 p_k^2 + 2 p_{k+1}^2 + 2 p_k p_{k+1} - 4 p_k - 2 p_{k+1} + 2

    The quadratic term in p_{k+1} makes the summed area coincide with the
    closed form of :func:`area_sum_closed_form`; that identity is enforced
    by the test suite. The radicand is the sum of squares
    (p_k + p_{k+1} - 1)^2 + (p_k - 1)^2 + p_{k+1}^2; rounding of the expanded
    form can take it a few ulps below zero near p_k = 1, p_{k+1} = 0, so it
    is clamped at zero.
    """
    components = p.as_tuple()
    sides = []
    for k in range(3):
        radicand = _side_squared(components[k], components[(k + 1) % 3])
        sides.append(math.sqrt(radicand if radicand >= 0.0 else 0.0))
    area_sum = sum(side * side for side in sides)
    return MalevichTriad((sides[0], sides[1], sides[2]), area_sum)


def area_sum_closed_form(p: ProbabilityTriple) -> float:
    """Summed square area, directly in closed form.

    With d = p - (1/2, 1/2, 1/2) the area is 3/2 + 3 |d|^2 + (d1 + d2 + d3)^2:
    3/2 at the ball center, 3 on the sphere along +-(1, 1, 1), and 6 at the
    cube vertices (0, 0, 0) and (1, 1, 1).
    """
    d1, d2, d3 = p.p1 - BALL_CENTER, p.p2 - BALL_CENTER, p.p3 - BALL_CENTER
    offset_sum = d1 + d2 + d3
    return 1.5 + 3.0 * _radius_squared(d1, d2, d3) + offset_sum * offset_sum


def maximize_area(region: Region) -> ExtremizationResult:
    """Exact maximum of the summed square area over the cube or the quantum ball.

    The area is a convex function of p (see :func:`area_sum_closed_form`),
    so its maximum over either region lies at an extreme point. Over the
    cube the candidates are the eight vertices, in ``itertools.product``
    order; the maximum 6 is attained at (0, 0, 0) and (1, 1, 1). Over the
    ball |d|^2 <= 1/4 and (d1 + d2 + d3)^2 <= 3 |d|^2, with equality only
    along +-(1, 1, 1); the candidates are p_k = 1/2 - sqrt(3)/6 and then
    p_k = 1/2 + sqrt(3)/6, and the maximum is 3. The first candidate with
    the largest area wins, and ``iterations`` counts the candidates
    evaluated (8 for the cube, 2 for the ball).
    """
    if region == "cube":
        points = itertools.product((0.0, 1.0), repeat=3)
    elif region == "ball":
        points = ((BALL_CENTER + sign * _BALL_DIAGONAL_OFFSET,) * 3 for sign in (-1.0, 1.0))
    else:
        raise ValueError(f"region must be 'cube' or 'ball', got {region!r}")
    candidates = [ProbabilityTriple(*point) for point in points]
    best_p = max(candidates, key=area_sum_closed_form)
    return ExtremizationResult(
        best_p=best_p,
        best_value=area_sum_closed_form(best_p),
        iterations=len(candidates),
        region=region,
    )


def _fmt(value: float) -> str:
    """Fixed-precision pixel coordinate; keeps SVG output byte deterministic."""
    return f"{value:.4f}"


def render_triad_svg(triad: MalevichTriad, *, scale: float = 100.0) -> str:
    """Render the triad as an SVG 1.1 document string.

    Three axis-aligned squares sit on a common baseline, left to right in
    index order, filled red, black, and white with black outlines. Side
    lengths are ``scale`` pixels per unit, at most :data:`MAX_SCALE`, on a
    canvas whose size must be finite. Output bytes are deterministic for a
    fixed triad and scale.
    """
    pad = _SVG_PAD * scale
    gap = _SVG_GAP * scale
    sides_px = [side * scale for side in triad.sides]
    width = 2.0 * pad + sum(sides_px) + 2.0 * gap
    height = 2.0 * pad + _MAX_SIDE * scale
    if not (0.0 < scale <= MAX_SCALE and math.isfinite(width) and math.isfinite(height)):
        raise ValueError(
            f"scale must be a positive number of at most {MAX_SCALE:g} px per unit giving a finite canvas, got {scale!r}"
        )
    baseline = height - pad

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    cursor = pad
    for side, fill in zip(sides_px, _SQUARE_FILLS):
        lines.append(
            f'  <rect x="{_fmt(cursor)}" y="{_fmt(baseline - side)}" '
            f'width="{_fmt(side)}" height="{_fmt(side)}" '
            f'fill="{fill}" stroke="black" stroke-width="1"/>'
        )
        cursor += side + gap
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
