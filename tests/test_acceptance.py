"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
execute; without ``-s`` pytest still reports one verdict per criterion.
Every tolerance is pinned here, not calibrated elsewhere.
"""

from __future__ import annotations

import io
import math
import time
from pathlib import Path

import numpy as np

import spincoins as sc
from golden_cases import JSON_CASES, SVG_CASES
from oracles import (
    coin_matrix,
    expm_hermitian_2x2,
    hermitian_eigenvalues,
    moments_oracle,
    random_ball_points,
    random_cube_points,
    trace_product,
)
from spincoins.cli import run

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MC_SEED = 0


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_classical_area_bound():
    start = time.perf_counter()
    result = sc.maximize_area("cube")
    elapsed = time.perf_counter() - start
    components = result.best_p.as_tuple()
    ok = (
        abs(result.best_value - 6.0) <= 1e-6
        and components[0] == components[1] == components[2]
        and components[0] in (0.0, 1.0)
        and elapsed < 5.0
    )
    _report(
        "criterion 1 classical area bound",
        ok,
        f"max over cube {result.best_value!r} at {components}, {elapsed:.2f}s",
    )


def test_criterion_02_quantum_area_bound_and_separation():
    start = time.perf_counter()
    ball = sc.maximize_area("ball")
    elapsed = time.perf_counter() - start
    cube = sc.maximize_area("cube")
    separation = cube.best_value - ball.best_value
    ok = (
        abs(ball.best_value - 3.0) <= 1e-4
        and abs(separation - 3.0) <= 1e-3
        and elapsed < 10.0
    )
    _report(
        "criterion 2 quantum area bound",
        ok,
        f"max over ball {ball.best_value!r}, separation {separation!r}, {elapsed:.2f}s",
    )


def test_criterion_03_side_length_area_consistency():
    points = random_cube_points(np.random.default_rng(103), 10**4)
    worst = 0.0
    for point in points:
        p = sc.ProbabilityTriple(*point)
        triad = sc.side_lengths(p)
        worst = max(worst, abs(sum(side * side for side in triad.sides) - triad.area_sum))
    ok = worst <= 1e-12
    _report(
        "criterion 3 side-length/area consistency",
        ok,
        f"worst |sum y_k^2 - area_sum| = {worst:.3e} over 10^4 triples",
    )


def test_criterion_04_positivity_equivalence():
    points = random_cube_points(np.random.default_rng(104), 10**5)
    disagreements = 0
    for point in points:
        p = sc.ProbabilityTriple(*point)
        is_quantum = sc.quantum_validity(p).is_quantum
        low, _ = hermitian_eigenvalues(sc.probs_to_density(p).matrix)
        if is_quantum != (low >= -1e-9):
            disagreements += 1
    ok = disagreements == 0
    _report(
        "criterion 4 positivity equivalence",
        ok,
        f"{disagreements} disagreements over 10^5 triples",
    )


def test_criterion_05_moment_machinery():
    gen = np.random.default_rng(105)
    points = random_ball_points(gen, 10**3)
    worst_moment = 0.0
    worst_genfun = 0.0
    for point in points:
        p = sc.ProbabilityTriple(*point)
        obs = sc.GameObservable(*gen.uniform(-10.0, 10.0, size=4))
        fast = sc.moments(p, obs, 20).moments
        slow = moments_oracle(p, obs, 20)
        for a, b in zip(fast, slow):
            worst_moment = max(worst_moment, abs(a - b) / max(1.0, abs(b)))
        matrix = obs.to_matrix()
        rho = coin_matrix(*point)
        for lam in (-1.0, -0.1, 0.1, 1.0):
            oracle = trace_product(rho, expm_hermitian_2x2(lam * matrix))
            value = sc.generating_function(p, obs, lam)
            worst_genfun = max(worst_genfun, abs(value - oracle) / max(1.0, abs(oracle)))
    ok = worst_moment <= 1e-10 and worst_genfun <= 1e-10
    _report(
        "criterion 5 moment machinery",
        ok,
        f"worst moment rel err {worst_moment:.3e}, worst genfun rel err {worst_genfun:.3e} "
        f"over 10^3 state/observable pairs",
    )


def test_criterion_06_moments_depend_only_on_mean():
    gen = np.random.default_rng(106)
    checked = 0
    worst = 0.0
    while checked < 100:
        point = random_ball_points(gen, 1)[0]
        if abs(point[0] - point[1]) < 1e-3:
            continue
        shared = float(gen.uniform(-2.0, 2.0))
        obs = sc.GameObservable(shared, shared, *gen.uniform(-2.0, 2.0, size=2))
        p = sc.ProbabilityTriple(*point)
        q = sc.ProbabilityTriple(point[1], point[0], point[2])
        assert p != q and sc.mean(p, obs) == sc.mean(q, obs)
        seq_p = sc.moments(p, obs, 20).moments
        seq_q = sc.moments(q, obs, 20).moments
        worst = max(worst, max(abs(a - b) for a, b in zip(seq_p, seq_q)))
        checked += 1
    ok = worst <= 1e-12
    _report(
        "criterion 6 moments depend on mean only",
        ok,
        f"worst sequence deviation {worst:.3e} over 100 equal-mean state pairs (n <= 20)",
    )


def test_criterion_07_overlap_sign_correction():
    gen = np.random.default_rng(107)
    pairs = random_ball_points(gen, 2 * 10**3).reshape(-1, 2, 3)
    worst = 0.0
    for first, second in pairs:
        p = sc.ProbabilityTriple(*first)
        q = sc.ProbabilityTriple(*second)
        oracle = trace_product(coin_matrix(*first), coin_matrix(*second))
        worst = max(worst, abs(sc.overlap(p, q) - oracle))
    mixed = sc.ProbabilityTriple(0.5, 0.5, 0.5)
    mixed_self = sc.overlap(mixed, mixed)
    ok = worst <= 1e-12 and mixed_self == 0.5
    _report(
        "criterion 7 overlap sign correction",
        ok,
        f"worst |overlap - Tr(rho1 rho2)| = {worst:.3e} over 10^3 pairs; "
        f"mixed self-overlap = {mixed_self} (a minus sign on the tails term would give 0)",
    )


def test_criterion_08_monte_carlo():
    start = time.perf_counter()
    fraction = sc.quantum_fraction(10**6, sc.RngSpec(seed=MC_SEED))
    fraction_err = abs(fraction - math.pi / 6.0)

    canonical_pairs = [
        ((0.5, 0.5, 1.0), (0, 0, 1, -1)),
        ((1.0, 0.5, 0.5), (1, 0, 0, 0)),
        ((0.75, 0.5, 0.5), (1, 0, 0, 0)),
        ((0.5, 0.5, 0.5), (1, 1, 1, -1)),
        ((0.7, 0.4, 0.6), (2, -1, 0.5, 1.5)),
    ]
    n = 10**6
    mean_ok = True
    details = []
    for index, (state_values, payoffs) in enumerate(canonical_pairs):
        p = sc.ProbabilityTriple(*state_values)
        obs = sc.GameObservable(*payoffs)
        exact = sc.mean(p, obs)
        variance = (
            (2.0 * obs.x) ** 2 * p.p1 * (1.0 - p.p1)
            + (2.0 * obs.y) ** 2 * p.p2 * (1.0 - p.p2)
            + (obs.z1 - obs.z2) ** 2 * p.p3 * (1.0 - p.p3)
        ) / n
        record = sc.toss(p, n, sc.RngSpec(MC_SEED, stream=index))
        deviation = abs(sc.estimate(record, obs).mean_total - exact)
        bound = 3.0 * math.sqrt(variance)
        mean_ok = mean_ok and deviation <= bound
        details.append(f"{deviation:.2e}<={bound:.2e}")
    elapsed = time.perf_counter() - start
    ok = fraction_err <= 0.0015 and mean_ok and elapsed < 30.0
    _report(
        "criterion 8 Monte Carlo",
        ok,
        f"|fraction - pi/6| = {fraction_err:.2e} at 10^6 samples; "
        f"empirical means within 3 sigma [{', '.join(details)}]; {elapsed:.2f}s",
    )


def test_criterion_09_round_trip_bijection():
    points = random_cube_points(np.random.default_rng(109), 10**5)
    worst = 0.0
    for point in points:
        p = sc.ProbabilityTriple(*point)
        back = sc.density_to_probs(sc.probs_to_density(p))
        worst = max(
            worst, max(abs(a - b) for a, b in zip(back.as_tuple(), p.as_tuple()))
        )
    ok = worst <= 1e-12
    _report(
        "criterion 9 round-trip bijection",
        ok,
        f"worst componentwise error {worst:.3e} over 10^5 triples",
    )


def test_criterion_10_cli_determinism(tmp_path):
    mismatches = []
    for name, argv, _schema in JSON_CASES:
        buffer = io.StringIO()
        code = run(argv, stdout=buffer)
        golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
        if code != 0 or buffer.getvalue() != golden:
            mismatches.append(name)
    for name, state, scale in SVG_CASES:
        out_path = tmp_path / f"{name}.svg"
        code = run(["render", state, "--out", str(out_path), "--scale", scale])
        if code != 0 or out_path.read_bytes() != (GOLDEN_DIR / f"{name}.svg").read_bytes():
            mismatches.append(name)
    ok = not mismatches
    _report(
        "criterion 10 CLI determinism",
        ok,
        f"{len(JSON_CASES)} JSON subcommands and {len(SVG_CASES)} SVG renders "
        f"against goldens; mismatches: {mismatches or 'none'}",
    )
