"""Seeded input generation shared by the workloads (standard library only).

Every input is drawn from a ``random.Random`` seeded by the benchmark's
``--seed``; the program under test only ever sees the generated values.
"""

from __future__ import annotations

import random

# Ball states are drawn strictly inside radius^2 = 0.24 and non-quantum
# states strictly outside radius^2 = 0.30, so that no input sits within
# floating-point reach of the quantum-ball boundary, where either answer
# of the admissibility test is correct.
BALL_INNER_RADIUS_SQ = 0.24
OUTSIDE_RADIUS_SQ = 0.30


def radius_sq(state: dict[str, float]) -> float:
    return sum((state[k] - 0.5) ** 2 for k in ("p1", "p2", "p3"))


def cube_state(rng: random.Random) -> dict[str, float]:
    return {"p1": rng.random(), "p2": rng.random(), "p3": rng.random()}


def ball_state(rng: random.Random) -> dict[str, float]:
    while True:
        d = [rng.uniform(-0.5, 0.5) for _ in range(3)]
        if sum(x * x for x in d) <= BALL_INNER_RADIUS_SQ:
            return {"p1": 0.5 + d[0], "p2": 0.5 + d[1], "p3": 0.5 + d[2]}


def outside_state(rng: random.Random) -> dict[str, float]:
    while True:
        state = cube_state(rng)
        if radius_sq(state) >= OUTSIDE_RADIUS_SQ:
            return state


def observable(rng: random.Random) -> dict[str, float]:
    return {k: rng.uniform(-2.0, 2.0) for k in ("x", "y", "z1", "z2")}


def density_payload(state: dict[str, float]) -> dict[str, list[list[float]]]:
    """The CLI's row-major [re, im] matrix payload of a state."""
    re, im = state["p1"] - 0.5, state["p2"] - 0.5
    return {"m": [[state["p3"], 0.0], [re, -im], [re, im], [1.0 - state["p3"], 0.0]]}
