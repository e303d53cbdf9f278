"""The pure-Python PCG64 stream draws exactly what numpy's Generator draws for the same RngSpec."""

from __future__ import annotations

import collections
import inspect
import itertools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincoins import coinsim
from spincoins._pcg64 import _MULTIPLIER, Stream

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
RANDOM_SEEDS = list(map(random.Random(19).getrandbits, [64] * 5))  # one generator, five distinct seeds
STREAMS = [0, 1, 2**70 + 3]
# numpy's branch points and float edges: n p <= 30 takes inversion, above it BTPE, p > 1/2 the mirror.
EDGE_PROBABILITIES = [0.0, 1.0, 0.5, 1e-300, 1e-18, 1.0 - 2**-53, 5e-324, 2**-53]
BINOMIAL_SEEDS, DRAWS_PER_SEED = 2000, 10


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("seed", EDGE_SEEDS + RANDOM_SEEDS)
def test_doubles_match_generator_random(seed, stream):
    pure = Stream(seed, stream)
    assert [pure.random() for _ in range(100)] == coinsim.RngSpec(seed, stream).generator().random(100).tolist()


def binomial_case(rng: random.Random) -> tuple[int, float]:
    """One (n, p): n up to the most tosses toss takes, p uniform, log-uniform or an edge."""
    kind = rng.random()
    if kind < 0.25:
        n = rng.randint(0, 100)
    elif kind < 0.5:
        n = rng.randint(0, 10**6)
    elif kind < 0.95:
        n = rng.randint(0, 2 ** rng.randint(1, 53))
    else:
        n = coinsim.MAX_TOSSES
    kind = rng.random()
    if kind < 0.25:
        p = rng.choice(EDGE_PROBABILITIES)
    elif kind < 0.5:
        p = 10 ** rng.uniform(-20, 0)
    elif kind < 0.6 and n:
        p = min(1.0, rng.uniform(28.0, 32.0) / n)  # either side of the inversion/BTPE split
    else:
        p = rng.random()
    return n, p if rng.random() < 0.5 else 1.0 - p


def test_binomials_match_generator_binomial():
    # Each seed's stream takes ten draws in turn, so a draw that used a different
    # number of doubles would also shift every later draw of that stream.
    rng = random.Random(20261019)
    branches = {"inversion": 0, "btpe": 0}
    for _ in range(BINOMIAL_SEEDS):
        spec = coinsim.RngSpec(rng.getrandbits(64), rng.choice(STREAMS))
        pure, reference = Stream(spec.seed, spec.stream), spec.generator()
        for _ in range(DRAWS_PER_SEED):
            n, p = binomial_case(rng)
            if n and 0.0 < p < 1.0:
                branches["inversion" if min(p, 1.0 - p) * n <= 30.0 else "btpe"] += 1
            assert pure.binomial(n, p) == reference.binomial(n, p), (n, p, spec)
    assert min(branches.values()) >= 5000, branches


# BTPE's two tail rejections, found once by a search over seeds and confirmed by a line trace to
# be taken by the first draw of each stream: a left-tail candidate y < 0 (n p near 31) and a
# right-tail candidate y > n (p near 1/2, n = 63). The branches that need a chosen double are
# pinned by RARE_BRANCHES below.
TAIL_REJECTIONS = {
    "left-680": (4787644678407225177, 680, 0.04532813159511023),
    "left-575": (11074907437122933099, 575, 0.05592364501366351),
    "right-63a": (14182714434162694751, 63, 0.49636863115670465),
    "right-63b": (4253457339914835205, 63, 0.49433073656738435),
}


@pytest.mark.parametrize("case", sorted(TAIL_REJECTIONS))
def test_btpe_tail_rejections_match_generator_binomial(case):
    seed, n, p = TAIL_REJECTIONS[case]
    assert Stream(seed, 0).binomial(n, p) == coinsim.RngSpec(seed).generator().binomial(n, p)


def traced(call, function):
    """``call()``'s result, the line numbers of ``function`` it ran, counted, and that function's locals at its last return."""
    code, lines, last = function.__code__, collections.Counter(), {}

    def tracer(frame, event, _arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            lines[frame.f_lineno] += 1
        elif event == "return":
            last.update(frame.f_locals)
        return tracer

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = call()
    finally:
        sys.settrace(before)
    return result, lines, last


def line_after(function, text, occurrence):
    """The number of the line after the ``occurrence``-th line of ``function`` whose code, comment aside, is ``text``."""
    source, first = inspect.getsourcelines(function)
    return first + 1 + [i for i, line in enumerate(source) if line.split("#")[0].strip() == text][occurrence]


def crafted(first, second):
    """A PCG64 (state, increment) whose next two doubles are ``first`` and ``second`` in [0, 1), each cut to a multiple of 2**-53.

    Each of the two post-step states is below 2**64, so its XSL-RR rotation is 0 and its output is its
    low word: the double's 53 bits, shifted up by 11. The increment makes the second step land on the
    second state, and the first state is the step back from the first by the multiplier's inverse.
    """
    s1, s2 = int(first * 2**53) << 11, int(second * 2**53) << 11
    increment = (s2 - s1 * _MULTIPLIER) % 2**128
    return (s1 - increment) * pow(_MULTIPLIER, -1, 2**128) % 2**128, increment


# BTPE's regions for binomial(10**4, 0.3), read from its locals: the triangle ends at p1, the
# parallelograms at p2, the left tail at p3 and the right tail at p4, each a share of p4 of the first double.
_, _, BTPE = traced(lambda: Stream(0, 0).binomial(10**4, 0.3), Stream._btpe)
# The least double whose u = double * p4 passes p1: x rounds to xl there, so v = 0.0 for a second double of 0.0.
JUST_PAST_P1 = next(k * 2**-53 for k in itertools.count(math.floor(BTPE["p1"] / BTPE["p4"] * 2**53)) if k * 2**-53 * BTPE["p4"] > BTPE["p1"])
# Branches that about one draw in 2**53 takes, each reached by a chosen first double and a second double of 0.0:
# (n, p, the function, the line before the branch, which of its occurrences, the first double).
RARE_BRANCHES = {
    # u = 1 - 2**-53 outlasts the pmf's rounded sum, so x passes its bound and the inversion draws again.
    "inversion-restart": (5, 0.1, Stream._inversion, "if x > bound:", 0, 1.0 - 2**-53),
    # u in the left tail (p2, p3] and v == 0.0, whose log C takes and then rejects.
    "btpe-left-tail-v-zero": (10**4, 0.3, Stream._btpe, "if v == 0.0:", 0, (BTPE["p2"] + BTPE["p3"]) / 2 / BTPE["p4"]),
    # u in the right tail (p3, p4] and v == 0.0.
    "btpe-right-tail-v-zero": (10**4, 0.3, Stream._btpe, "if v == 0.0:", 1, (BTPE["p3"] + BTPE["p4"]) / 2 / BTPE["p4"]),
    # u just past p1, in the left parallelogram: v = 0.0, and the squeeze accepts y = xl = m - 97.
    "btpe-squeeze-v-zero": (10**4, 0.3, Stream._btpe, "if not v > 0.0:", 0, JUST_PAST_P1),
}


@pytest.mark.parametrize("case", list(RARE_BRANCHES))
def test_rare_branches_match_generator_binomial(case):
    n, p, function, text, occurrence, first = RARE_BRANCHES[case]
    state, increment = crafted(first, 0.0)
    pure = Stream(0, 0)
    pure._state, pure._increment = state, increment
    reference = np.random.Generator(np.random.PCG64(0))
    reference.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": increment}, "has_uint32": 0, "uinteger": 0,
    }
    draw, lines, _ = traced(lambda: pure.binomial(n, p), function)
    assert lines[line_after(function, text, occurrence)] == 1, case
    assert draw == reference.binomial(n, p)
    assert pure.random() == reference.random()


# Parity over the whole domain the library draws in: any seed, stream ids past 64 bits, n up to 2^53,
# and p at and near the float edges and numpy's branch points.
seeds, streams = st.integers(0, 2**64 - 1), st.integers(0, 2**80 - 1)
P_EDGES = [0.0, 2.0**-1074, 0.5, 1.0 - 2**-53, 1.0]


def ulps_from(edge: float, steps: int) -> float:
    """The float ``steps`` ulps above (or below, when negative) ``edge``, clamped to [0, 1]."""
    for _ in range(abs(steps)):
        edge = math.nextafter(edge, 1.0 if steps > 0 else 0.0)
    return edge


probabilities = st.one_of(
    st.sampled_from(P_EDGES),
    st.builds(ulps_from, st.sampled_from(P_EDGES), st.integers(-4, 4)),
    st.floats(0.0, 1.0),
    st.floats(-1074.0, 0.0).map(lambda e: 2.0**e),  # log-uniform, down to the least subnormal
)
# n p either side of numpy's inversion/BTPE split at 30
near_the_split = st.builds(lambda n, mean: (n, min(1.0, mean / n)), st.integers(1, 2**53), st.floats(28.0, 32.0))
# and each mirrored to p > 1/2, which numpy draws as n minus a draw with 1 - p
binomial_cases = st.builds(
    lambda case, mirror: (case[0], 1.0 - case[1] if mirror else case[1]),
    st.one_of(st.tuples(st.one_of(st.integers(0, 100), st.integers(0, 2**53)), probabilities), near_the_split),
    st.booleans(),
)


@settings(max_examples=400, deadline=None)
@given(seeds, streams, st.lists(binomial_cases, min_size=1, max_size=5))
def test_binomial_matches_generator_binomial_over_its_domain(seed, stream, cases):
    # draws in turn from one stream, so a draw that used a different number of doubles shifts the rest
    pure, reference = Stream(seed, stream), coinsim.RngSpec(seed, stream).generator()
    for n, p in cases:
        assert pure.binomial(n, p) == reference.binomial(n, p), (seed, stream, n, p)
