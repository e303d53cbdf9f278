"""lib_scalar and lib_bulk workloads: spincoins called in this process.

Functions of the package are always reached through their module
attributes (``core.overlap``), so that the traced run, which replaces those
attributes with recording wrappers, sees every call. Each check compares an
output with an independent closed form and runs outside the timed interval.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from dataclasses import dataclass
from typing import Any

import numpy as np

import inputs
from spincoins import coinsim, core, observables, suprematism

# lib_scalar
SCALAR_CASES = 2000  # distinct generated states; the timed loop cycles through them
N_TOSSES = 10**4
MAX_MOMENT_ORDER = 20  # the tested range; the recurrence is known to lose accuracy above n ~ 30

# lib_bulk: one round; the counts make the samplers, quantum_fraction and
# maximize_area each a sizeable share of the round's time.
SAMPLE_COUNT = 2 * 10**4  # per region
QF_SAMPLES = 10**7
MAX_AREA_CALLS = 20  # per region
AREA_BOUNDS = {"cube": 6.0, "ball": 3.0}

AMBIGUOUS_BAND = 1e-6  # |radius^2 - 1/4| or ||f| - 1| below this accepts either answer


@dataclass(frozen=True)
class ScalarCase:
    state: dict[str, float]
    other: dict[str, float]  # a ball state, the second argument of overlap
    obs: dict[str, float]
    raw: np.ndarray  # the state's matrix with a sub-tolerance asymmetry in the upper off-diagonal
    lam: float
    n: int
    scale: float
    toss_seed: int


def scalar_cases(seed: int) -> list[ScalarCase]:
    """Alternately a cube state (often non-quantum) and a ball state, each with its own observable."""
    rng = random.Random(seed)
    cases = []
    for i in range(SCALAR_CASES):
        state = (inputs.cube_state if i % 2 == 0 else inputs.ball_state)(rng)
        d1, d2, p3 = state["p1"] - 0.5, state["p2"] - 0.5, state["p3"]
        asymmetry = rng.choice((-1.0, 1.0)) * rng.uniform(1e-13, 1e-12)
        raw = np.array([[p3, complex(d1, -d2 + asymmetry)], [complex(d1, d2), 1.0 - p3]])
        cases.append(
            ScalarCase(
                state=state,
                other=inputs.ball_state(rng),
                obs=inputs.observable(rng),
                raw=raw,
                lam=rng.uniform(-1.0, 1.0),
                n=rng.randint(1, MAX_MOMENT_ORDER),
                scale=rng.uniform(20.0, 200.0),
                toss_seed=rng.randrange(2**63),
            )
        )
    return cases


def scalar_op(case: ScalarCase) -> dict[str, Any]:
    """One state through every value constructor and scalar formula."""
    p = core.ProbabilityTriple.from_dict(case.state)
    obs = observables.GameObservable.from_dict(case.obs)
    out: dict[str, Any] = {"p": p}
    out["report"] = core.quantum_validity(p)
    out["rho"] = core.probs_to_density(p)
    out["back"] = core.density_to_probs(case.raw)
    out["bloch"] = core.probs_to_bloch(p)
    out["from_bloch"] = core.bloch_to_probs(out["bloch"])
    out["overlap"] = _raised(core.overlap, p, core.ProbabilityTriple.from_dict(case.other))
    out["triad"] = suprematism.side_lengths(p)
    out["area"] = suprematism.area_sum_closed_form(p)
    out["svg"] = suprematism.render_triad_svg(out["triad"], scale=case.scale)
    out["mean"] = observables.mean(p, obs)
    out["m2"] = observables.second_moment(p, obs)
    out["moments"] = observables.moments(p, obs, case.n)
    out["genfun"] = observables.generating_function(p, obs, case.lam)
    out["outcomes"] = _raised(observables.outcome_distribution, p, obs)
    out["record"] = coinsim.toss(p, N_TOSSES, coinsim.RngSpec(seed=case.toss_seed))
    out["stats"] = coinsim.estimate(out["record"], obs)
    return out


def _raised(fn: Any, *args: Any) -> Any:
    """The result, or the NonQuantumStateError that is the expected result for non-quantum states."""
    try:
        return fn(*args)
    except core.NonQuantumStateError as exc:
        return exc


def _area(d: list[float]) -> float:
    """Summed Malevich area from the offsets d = p - 1/2: 3/2 + 3|d|^2 + (sum d)^2."""
    return 1.5 + 3.0 * math.fsum(x * x for x in d) + sum(d) ** 2


def _close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol


def scalar_failure(case: ScalarCase, out: dict[str, Any]) -> str | None:
    """Why ``out`` is wrong for ``case``, or None; every expectation is an independent closed form."""
    p = (case.state["p1"], case.state["p2"], case.state["p3"])
    d = [x - 0.5 for x in p]
    e = [case.other[k] - 0.5 for k in ("p1", "p2", "p3")]
    rsq = math.fsum(x * x for x in d)
    ambiguous = abs(rsq - 0.25) < AMBIGUOUS_BAND
    quantum = rsq <= 0.25

    if out["p"].as_tuple() != p:
        return "from_dict changed the triple"
    report = out["report"]
    if not ambiguous and report.is_quantum != quantum:
        return "quantum_validity misclassified the state"
    root = math.sqrt(rsq)
    if not (
        _close(report.radius_squared, rsq, 1e-15)
        and _close(report.eigenvalues[0], 0.5 - root, 1e-12)
        and _close(report.eigenvalues[1], 0.5 + root, 1e-12)
        and _close(report.purity_defect, d[0] ** 2 + d[1] ** 2 - p[2] * (1.0 - p[2]), 1e-12)
    ):
        return "quantum_validity report differs from the closed form"

    m = out["rho"].matrix
    if not (
        m[0, 0] == p[2] and m[1, 1] == 1.0 - p[2]
        and m[1, 0] == complex(d[0], d[1]) and m[0, 1] == complex(d[0], -d[1])
    ):
        return "probs_to_density is not the exact coin-to-matrix map"
    if any(not _close(a, b, 1e-12) for a, b in zip(out["back"].as_tuple(), p)):
        return "density_to_probs did not invert the (slightly asymmetric) matrix"
    if any(not _close(a, 2.0 * b - 1.0, 1e-15) for a, b in zip(out["bloch"].as_tuple(), p)) or any(
        not _close(a, b, 1e-15) for a, b in zip(out["from_bloch"].as_tuple(), p)
    ):
        return "Bloch maps are not the affine pair x = 2p - 1"

    overlap = out["overlap"]
    if isinstance(overlap, Exception):
        if not (ambiguous or not quantum):
            return "overlap raised for a quantum state"
    elif not ambiguous and not quantum:
        return "overlap accepted a non-quantum state"
    elif not _close(overlap, 0.5 + 2.0 * math.fsum(a * b for a, b in zip(d, e)), 1e-12):
        return "overlap differs from (1 + x_p . x_q) / 2"

    area = _area(d)
    triad = out["triad"]
    if not (
        _close(triad.area_sum, area, 1e-12)
        and _close(out["area"], area, 1e-12)
        and all(s >= 0.0 for s in triad.sides)
        and _close(sum(s * s for s in triad.sides), triad.area_sum, 1e-12)
    ):
        return "area differs from 3/2 + 3|d|^2 + (sum d)^2"
    svg = out["svg"]
    if svg.count("<rect ") != 3 or any(f'width="{s * case.scale:.4f}"' not in svg for s in triad.sides):
        return "SVG does not draw the three squares"

    x, y, z1, z2 = (case.obs[k] for k in ("x", "y", "z1", "z2"))
    c, z = (z1 + z2) / 2.0, (z1 - z2) / 2.0
    r = math.sqrt(x * x + y * y + z * z)
    f = 2.0 * (d[0] * x + d[1] * y + d[2] * z) / r
    # The two-point law: outcome c + r with weight w+ and c - r with weight w-.
    wp, wm, hi, lo = (1.0 + f) / 2.0, (1.0 - f) / 2.0, c + r, c - r

    def law(k: int) -> tuple[float, float]:
        return wp * hi**k + wm * lo**k, abs(wp) * abs(hi) ** k + abs(wm) * abs(lo) ** k

    for k, value in ((1, out["mean"]), (2, out["m2"])):
        exact, scale = law(k)
        if not _close(value, exact, 1e-12 * max(1.0, scale)):
            return f"moment {k} differs from the two-point law"
    seq = out["moments"]
    if len(seq.moments) != case.n + 1 or seq.c != c or not _close(seq.r, r, 1e-12 * r) or not _close(seq.f, f, 1e-12):
        return "moments returned the wrong order, c, r or f"
    for k, value in enumerate(seq.moments):
        exact, scale = law(k)
        if not _close(value, exact, 1e-9 * max(1.0, scale)):
            return f"moment {k} of {case.n} differs from the two-point law"
    g = wp * math.exp(case.lam * hi) + wm * math.exp(case.lam * lo)
    g_scale = abs(wp) * math.exp(case.lam * hi) + abs(wm) * math.exp(case.lam * lo)
    if not _close(out["genfun"], g, 1e-12 * max(1.0, g_scale)):
        return "generating_function differs from w+ e^(lam(c+r)) + w- e^(lam(c-r))"

    outcomes = out["outcomes"]
    if abs(abs(f) - 1.0) >= AMBIGUOUS_BAND:
        if isinstance(outcomes, Exception) != (abs(f) > 1.0):
            return "outcome_distribution raised for |f| <= 1 or accepted |f| > 1"
        if not isinstance(outcomes, Exception):
            (v1, w1), (v2, w2) = outcomes
            if not (_close(v1, hi, 1e-12 * max(1.0, abs(hi))) and _close(v2, lo, 1e-12 * max(1.0, abs(lo)))
                    and _close(w1, wp, 1e-12) and _close(w2, wm, 1e-12)):
                return "outcome_distribution differs from the two-point law"

    record, stats = out["record"], out["stats"]
    if record.n_tosses != N_TOSSES:
        return "toss returned the wrong number of tosses"
    p_hat = [count / N_TOSSES for count in record.heads_counts]
    for k in range(3):
        sigma = math.sqrt(p[k] * (1.0 - p[k]) / N_TOSSES)
        if abs(p_hat[k] - p[k]) > 8.0 * sigma + 10.0 / N_TOSSES:
            return f"coin {k + 1} heads frequency is more than 8 standard errors from p"
    expected = (
        (2.0 * p_hat[0] - 1.0) * x,
        (2.0 * p_hat[1] - 1.0) * y,
        p_hat[2] * z1 + (1.0 - p_hat[2]) * z2,
        *(math.sqrt(ph * (1.0 - ph) / N_TOSSES) for ph in p_hat),
    )
    got = (stats.mean_x, stats.mean_y, stats.mean_z, *stats.stderr)
    if stats.p_hat.as_tuple() != tuple(p_hat) or any(not _close(a, b, 1e-15 * max(1.0, abs(b))) for a, b in zip(got, expected)):
        return "estimate differs from the statistics of the heads counts"
    return None


# ---------------------------------------------------------------- lib_bulk

def bulk_calls() -> list[tuple[str, str]]:
    """One round: (operation, region) in the order they run."""
    return (
        [("sample_states", region) for region in ("cube", "ball", "sphere")]
        + [("quantum_fraction", "cube")]
        + [("maximize_area", region) for region in ("cube", "ball") for _ in range(MAX_AREA_CALLS)]
    )


def bulk_call(kind: str, region: str, seed: int, alloc: list[float] | None = None) -> Any:
    if kind == "sample_states":
        return coinsim.sample_states(region, SAMPLE_COUNT, coinsim.RngSpec(seed=seed))
    if kind == "quantum_fraction":
        if alloc is None:
            return coinsim.quantum_fraction(QF_SAMPLES, coinsim.RngSpec(seed=seed))
        tracemalloc.start()
        try:
            return coinsim.quantum_fraction(QF_SAMPLES, coinsim.RngSpec(seed=seed))
        finally:
            alloc.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
    return suprematism.maximize_area(region)


def bulk_failure(kind: str, region: str, out: Any) -> str | None:
    if kind == "sample_states":
        if len(out) != SAMPLE_COUNT or not all(isinstance(s, core.ProbabilityTriple) for s in out):
            return "sample_states returned the wrong number of triples"
        radii = [math.fsum((x - 0.5) ** 2 for x in s.as_tuple()) for s in out]
        if region == "ball" and max(radii) > 0.25 + 1e-15:
            return "a ball sample lies outside the ball"
        if region == "sphere" and max(abs(v - 0.25) for v in radii) > 1e-12:
            return "a sphere sample lies off the sphere"
        if region == "cube" and not all(0.0 <= x <= 1.0 for s in out for x in s.as_tuple()):
            return "a cube sample lies outside the cube"
        return None
    if kind == "quantum_fraction":
        exact = math.pi / 6.0
        if abs(out - exact) > 5.0 * math.sqrt(exact * (1.0 - exact) / QF_SAMPLES):
            return f"quantum_fraction {out} is more than 5 standard errors from pi/6"
        return None
    if out.region != region or abs(out.best_value - AREA_BOUNDS[region]) > 1e-6:
        return f"maximize_area({region}) returned {out.best_value}, not {AREA_BOUNDS[region]}"
    if abs(_area([x - 0.5 for x in out.best_p.as_tuple()]) - out.best_value) > 1e-12:
        return "maximize_area's best value is not the area at its best point"
    return None

