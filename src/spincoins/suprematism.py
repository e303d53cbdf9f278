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

from .core import BALL_CENTER, MAX_SCALE, ProbabilityTriple, _as_float, _dot, _offset, _show

Region = Literal["cube", "ball"]

# Offset of the ball's area maximisers from the center along (1, 1, 1):
# the ball radius 1/2 divided by sqrt(3).
_BALL_DIAGONAL_OFFSET = math.sqrt(3.0) / 6.0

# Fixed canvas proportions for the SVG triad, in units of the scale factor.
_SVG_PAD = 0.25
_SVG_GAP = 0.25
_MAX_SIDE = math.sqrt(2.0)
_SQUARE_FILLS = ("red", "black", "white")


@dataclass(frozen=True, slots=True)
class MalevichTriad:
    """Side lengths of the three squares and their summed area."""

    sides: tuple[float, float, float]
    area_sum: float


@dataclass(frozen=True, slots=True)
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


def side_lengths(p: ProbabilityTriple) -> MalevichTriad:
    """Side lengths y_1, y_2, y_3 of the triad, plus the summed area.

    Side k couples coin k with coin k+1, indices wrapping 3 -> 1:

        y_k = sqrt((p_k - 1 + p_{k+1})^2 + (p_k - 1)^2 + p_{k+1}^2)

    The radicand is a sum of squares, never negative, and ``math.hypot``
    roots it without squaring into underflow. As p_k - 1 is exact for
    p_k >= 1/2, a side above the smallest normal float has a relative error
    below 2^-52, even near the corners p_k = 1, p_{k+1} = 0 where it
    vanishes. The summed area
    y_1^2 + y_2^2 + y_3^2 is :func:`area_sum_closed_form`, its one formula.
    """
    p1, p2, p3 = p.as_tuple()
    sides = tuple(math.hypot(a - 1.0 + b, a - 1.0, b) for a, b in ((p1, p2), (p2, p3), (p3, p1)))
    return MalevichTriad(sides, area_sum_closed_form(p))


def area_sum_closed_form(p: ProbabilityTriple) -> float:
    """Summed square area, directly in closed form.

    With d = p - (1/2, 1/2, 1/2) the area is 3/2 + 3 |d|^2 + (d1 + d2 + d3)^2:
    3/2 at the ball center, 3 on the sphere along +-(1, 1, 1), and 6 at the
    cube vertices (0, 0, 0) and (1, 1, 1).
    """
    d = _offset(p)
    offset_sum = d[0] + d[1] + d[2]
    return 1.5 + 3.0 * _dot(d, d) + offset_sum * offset_sum


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
        raise ValueError(f"region must be 'cube' or 'ball', got {_show(region)}")
    candidates = [ProbabilityTriple(*point) for point in points]
    best_p = max(candidates, key=area_sum_closed_form)
    return ExtremizationResult(
        best_p=best_p,
        best_value=area_sum_closed_form(best_p),
        iterations=len(candidates),
        region=region,
    )


def render_triad_svg(triad: MalevichTriad, *, scale: float = 100.0) -> str:
    """Render the triad as an SVG 1.1 document string.

    Three axis-aligned squares sit on a common baseline, left to right in
    index order, filled red, black, and white with black outlines. Side
    lengths are ``scale`` pixels per unit, at most :data:`MAX_SCALE`, on a
    canvas whose size must be finite. Every coordinate has four fixed
    decimals, so output bytes are deterministic for a fixed triad and scale.
    """
    scale = _as_float(scale, "scale", ValueError, f"at most {MAX_SCALE:g} px per unit")
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
        f'width="{width:.4f}" height="{height:.4f}" '
        f'viewBox="0 0 {width:.4f} {height:.4f}">',
    ]
    cursor = pad
    for side, fill in zip(sides_px, _SQUARE_FILLS):
        lines.append(
            f'  <rect x="{cursor:.4f}" y="{baseline - side:.4f}" '
            f'width="{side:.4f}" height="{side:.4f}" '
            f'fill="{fill}" stroke="black" stroke-width="1"/>'
        )
        cursor += side + gap
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
