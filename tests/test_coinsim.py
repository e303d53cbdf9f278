"""Tests for the seeded coin-toss simulator and its estimators."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import os
import random
import re
import statistics
import struct
import sys
import threading
import time
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest

import spincoins as sc
import spincoins._pcg64
from spincoins import coinsim
from oracles import binomial_pmf, chi_square_survival, reference_states

PI_SIXTH = math.pi / 6.0
# Seeds either side of where SeedSequence splits a seed into 32-bit words, and five random ones.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, *map(random.Random(19).getrandbits, [64] * 5)]


class TestRngSpec:
    def test_identical_specs_reproduce_draws(self):
        p = sc.ProbabilityTriple(0.5, 0.5, 0.5)
        first = sc.toss(p, 1000, sc.RngSpec(seed=123))
        second = sc.toss(p, 1000, sc.RngSpec(seed=123))
        assert first == second

    def test_streams_are_independent(self):
        p = sc.ProbabilityTriple(0.5, 0.5, 0.5)
        assert sc.toss(p, 1000, sc.RngSpec(123)) != sc.toss(p, 1000, sc.RngSpec(123, stream=1))

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(TypeError, match="algorithm"):
            sc.RngSpec(seed=1, algorithm="mt19937")

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            sc.RngSpec(seed=seed)

    def test_rejects_negative_stream(self):
        with pytest.raises(ValueError, match="stream"):
            sc.RngSpec(seed=1, stream=-2)

    @pytest.mark.parametrize(
        "seed, stream",
        [(np.int64(5), 0), (5, np.uint8(3)), (np.uint64(2**64 - 1), np.int32(1))],
        ids=["numpy-seed", "numpy-stream", "numpy-both"],
    )
    def test_takes_numpy_integers_and_stores_python_ints(self, seed, stream):
        spec = sc.RngSpec(seed, stream)
        assert spec == sc.RngSpec(int(seed), int(stream))
        assert type(spec.seed) is int and type(spec.stream) is int
        assert type(sc.RngSpec(spec.seed, stream=np.int16(2)).stream) is int
        assert spec.generator().random() == sc.RngSpec(int(seed), int(stream)).generator().random()

    @pytest.mark.parametrize(
        "seed, stream, message",
        [
            (np.True_, 0, f"seed must be an integer, got {np.True_!r}"),
            (np.float64(5.0), 0, f"seed must be an integer, got {np.float64(5.0)!r}"),
            (np.timedelta64(5), 0, f"seed must be an integer, got {np.timedelta64(5)!r}"),
            (np.int64(-1), 0, "seed must be at least 0, got -1"),
            (1, np.True_, f"stream must be an integer, got {np.True_!r}"),
            (1, True, "stream must be an integer, got True"),
            (1, 1.5, "stream must be an integer, got 1.5"),
            (1, np.int64(-2), "stream must be at least 0, got -2"),
        ],
        ids=["np-bool-seed", "np-float-seed", "timedelta-seed", "np-negative-seed",
             "np-bool-stream", "bool-stream", "float-stream", "np-negative-stream"],
    )
    def test_rejects_numpy_bools_and_non_integers(self, seed, stream, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sc.RngSpec(seed, stream)


# The modules missing in each import state: neither numpy nor numpy.random imported, numpy alone (as a bare
# `import numpy` leaves numpy 2: a library user's process before its first toss), or both.
MISSING = {"bare": ("numpy", "numpy.random"), "numpy": ("numpy.random",), "numpy.random": ()}
DRAWING_CALLS = {
    "toss": lambda count, spec: sc.toss(sc.ProbabilityTriple(0.5, 0.5, 0.5), count, spec),
    "sample_states": lambda count, spec: sc.sample_states("ball", count, spec),
    "quantum_fraction": sc.quantum_fraction,
}


class Chosen(Exception):
    """Raised with what ``_pure_stream`` returned, so the call stops before it draws."""


# Each call at each threshold, and the stream it draws from in each import state: the pure stream, or
# numpy's Generator. A toss draws one row whatever its count.
CHOICES = [
    ("toss", 10**6, {"bare": "pure", "numpy": "numpy", "numpy.random": "numpy"}),
    ("sample_states", 5000, {"bare": "pure", "numpy": "numpy", "numpy.random": "numpy"}),
    ("sample_states", 5001, {"bare": "numpy", "numpy": "numpy", "numpy.random": "numpy"}),
    ("quantum_fraction", 2**17 - 1, {"bare": "pure", "numpy": "numpy", "numpy.random": "numpy"}),
    ("quantum_fraction", 2**17, {"bare": "numpy", "numpy": "numpy", "numpy.random": "numpy"}),
]


class TestPureStreamChoice:
    @pytest.mark.parametrize(
        "call, count, imported, path",
        [(call, count, imported, path) for call, count, paths in CHOICES for imported, path in paths.items()],
    )
    def test_each_call_at_each_threshold_and_import_state(self, call, count, imported, path, monkeypatch):
        assert (coinsim._PURE_MAX_COUNT, coinsim._PURE_MAX_SAMPLES) == (5000, 2**17 - 1)
        spec = sc.RngSpec(seed=2**64 - 1, stream=5)
        first = spec.generator().random()
        choose = coinsim._pure_stream

        def chosen(*args):
            raise Chosen(choose(*args))

        monkeypatch.setattr(coinsim, "_pure_stream", chosen)
        for name in MISSING[imported]:
            monkeypatch.delitem(sys.modules, name)
        with pytest.raises(Chosen) as info:
            DRAWING_CALLS[call](count, spec)
        stream = info.value.args[0]
        if path == "numpy":
            assert stream is None
        else:
            assert type(stream) is spincoins._pcg64.Stream
            assert stream.random() == first  # seeded at the start of the spec's stream


class TestToss:
    def test_certain_coins(self):
        record = sc.toss(sc.ProbabilityTriple(1, 1, 1), 100, sc.RngSpec(seed=0))
        assert record == sc.TossRecord(100, (100, 100, 100))

    def test_impossible_coins(self):
        record = sc.toss(sc.ProbabilityTriple(0, 0, 0), 100, sc.RngSpec(seed=0))
        assert record.heads_counts == (0, 0, 0)

    def test_fair_coins_within_three_sigma(self):
        n = 10**5
        record = sc.toss(sc.ProbabilityTriple(0.5, 0.5, 0.5), n, sc.RngSpec(seed=0))
        band = 3.0 * math.sqrt(n / 4.0)
        for count in record.heads_counts:
            assert abs(count - n / 2) <= band

    def test_scalar_draws_match_one_array_draw(self):
        # toss draws each coin with a scalar binomial call; they must give the
        # counts one array draw of the three probabilities gives from the same stream
        gen = np.random.default_rng(20)
        edges = [0.0, 1.0, 0.5, 1e-7, 1.0 - 1e-7, 5e-324]
        sizes = [1, 2, 17, 10**6, 2**40, coinsim.MAX_TOSSES]
        for case in range(300):
            probs = [float(gen.choice(edges)) if gen.random() < 0.5 else float(gen.random()) for _ in range(3)]
            n = sizes[case % len(sizes)] if case < 60 else int(gen.integers(1, coinsim.MAX_TOSSES, endpoint=True))
            spec = sc.RngSpec(seed=int(gen.integers(2**63)), stream=case % 3)
            expected = tuple(spec.generator().binomial(n, probs).tolist())
            assert sc.toss(sc.ProbabilityTriple(*probs), n, spec).heads_counts == expected, (probs, n, spec)

    def test_without_numpy_the_pure_stream_draws_the_same_counts(self, monkeypatch):
        # A process without numpy draws every toss from the pure-Python copy of the stream;
        # the counts equal those of numpy's array draw.
        gen = np.random.default_rng(21)
        edges = [0.0, 1.0, 0.5, 1e-7, 1.0 - 1e-7, 5e-324]
        sizes = [1, 2, 17, 10**6, 2**40, coinsim.MAX_TOSSES]
        cases = []
        for case in range(300):
            probs = [float(gen.choice(edges)) if gen.random() < 0.5 else float(gen.random()) for _ in range(3)]
            n = sizes[case % len(sizes)] if case < 60 else int(gen.integers(1, 2 ** int(gen.integers(1, 54)), endpoint=True))
            spec = sc.RngSpec(seed=int(gen.integers(2**63)), stream=case % 3)
            cases.append((probs, n, spec, tuple(spec.generator().binomial(n, probs).tolist())))

        def numpy_path(_spec):
            raise RuntimeError("numpy path")

        monkeypatch.delitem(sys.modules, "numpy")
        monkeypatch.setattr(coinsim.RngSpec, "generator", numpy_path)
        for probs, n, spec, expected in cases:
            assert sc.toss(sc.ProbabilityTriple(*probs), n, spec).heads_counts == expected, (probs, n, spec)
        # every accepted n, MAX_TOSSES included, draws without calling RngSpec.generator
        assert max(n for _probs, n, _spec, _expected in cases) == coinsim.MAX_TOSSES

    def test_rejects_zero_tosses(self):
        with pytest.raises(ValueError, match="n"):
            sc.toss(sc.ProbabilityTriple(0.5, 0.5, 0.5), 0, sc.RngSpec(seed=0))

    def test_rejects_counts_beyond_exact_doubles(self):
        with pytest.raises(ValueError, match=r"^n must be at most 9007199254740992, got 9007199254740993$"):
            sc.toss(sc.ProbabilityTriple(0.5, 0.5, 0.5), 2**53 + 1, sc.RngSpec(seed=0))

    def test_record_validates_counts(self):
        with pytest.raises(ValueError, match="heads_counts"):
            sc.TossRecord(10, (11, 0, 0))

    @pytest.mark.parametrize(
        "n_tosses, heads_counts, message",
        [
            (0, (0, 0, 0), "n_tosses must be at least 1, got 0"),
            (5, (1, 2), "heads_counts must hold exactly three counts"),
            (5, (1, 2, 6), r"heads_counts\[2\] must be at most 5, got 6"),
            (5, (-1, 0, 0), r"heads_counts\[0\] must be at least 0, got -1"),
            (2.5, (1, 2, 2), "n_tosses must be an integer, got 2.5"),
            (True, (1, 0, 1), "n_tosses must be an integer, got True"),
            (np.bool_(True), (1, 0, 1), r"n_tosses must be an integer, got np.True_"),
            (5, (1.5, 0, 0), r"heads_counts\[0\] must be an integer, got 1.5"),
            (5, (0, np.float64(2.0), 0), r"heads_counts\[1\] must be an integer, got np.float64\(2.0\)"),
            (5, (0, 0, False), r"heads_counts\[2\] must be an integer, got False"),
            (5, "abc", r"heads_counts\[0\] must be an integer, got 'a'"),
            (5, 5, "heads_counts must hold exactly three counts, got 5"),
        ],
    )
    def test_record_rejects_each_bad_field(self, n_tosses, heads_counts, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sc.TossRecord(n_tosses, heads_counts)

    @pytest.mark.parametrize(
        "n_tosses, heads_counts",
        [(5, [1, 2, 3]), (np.int64(5), (np.int32(1), np.uint8(2), 3)), (5, np.array([1, 2, 3]))],
        ids=["list", "numpy-integers", "array"],
    )
    def test_record_stores_a_tuple_of_python_ints(self, n_tosses, heads_counts):
        record = sc.TossRecord(n_tosses, heads_counts)
        assert record == sc.TossRecord(5, (1, 2, 3))
        assert type(record.n_tosses) is int
        assert type(record.heads_counts) is tuple
        assert all(type(count) is int for count in record.heads_counts)
        hash(record)

    @pytest.mark.parametrize(
        "n, message", [(10.5, "n must be an integer, got 10.5"), (True, "n must be an integer, got True")]
    )
    def test_rejects_non_integer_toss_counts(self, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sc.toss(sc.ProbabilityTriple(0.5, 0.5, 0.5), n, sc.RngSpec(seed=0))

    def test_numpy_integer_toss_count_is_recorded_as_int(self):
        p = sc.ProbabilityTriple(0.5, 0.5, 0.5)
        record = sc.toss(p, np.int64(10), sc.RngSpec(seed=0))
        assert type(record.n_tosses) is int
        assert record == sc.toss(p, 10, sc.RngSpec(seed=0))


class TestEstimate:
    def test_all_heads_record(self):
        stats = sc.estimate(sc.TossRecord(100, (100, 100, 100)), sc.GameObservable(0, 0, 1, -1))
        assert stats.mean_z == 1.0
        assert stats.p_hat == sc.ProbabilityTriple(1.0, 1.0, 1.0)
        assert stats.stderr == (0.0, 0.0, 0.0)

    def test_balanced_record_has_zero_mean(self):
        stats = sc.estimate(sc.TossRecord(100, (50, 50, 50)), sc.GameObservable(1, 1, 1, -1))
        assert stats.mean_total == 0.0

    def test_empirical_mean_converges_to_exact(self):
        p = sc.ProbabilityTriple(0.75, 0.5, 0.5)
        obs = sc.GameObservable(1, 0, 0, 0)
        record = sc.toss(p, 10**6, sc.RngSpec(seed=0))
        assert abs(sc.estimate(record, obs).mean_total - sc.mean(p, obs)) <= 0.005

    def test_stderr_is_binomial_formula(self):
        stats = sc.estimate(sc.TossRecord(400, (100, 200, 300)), sc.GameObservable(1, 1, 1, 0))
        assert stats.stderr[0] == pytest.approx(math.sqrt(0.25 * 0.75 / 400), abs=1e-15)
        assert stats.stderr[1] == pytest.approx(math.sqrt(0.5 * 0.5 / 400), abs=1e-15)

    def test_mean_components_follow_payoffs(self):
        stats = sc.estimate(sc.TossRecord(10, (10, 0, 5)), sc.GameObservable(2, 3, 1, -1))
        assert stats.mean_x == 2.0
        assert stats.mean_y == -3.0
        assert stats.mean_z == 0.0

    def test_mean_total_is_the_mean_at_p_hat_bit_for_bit(self):
        # The coin means keep their formulas; mean_total, their sum, is the library's game average.
        gen = np.random.default_rng(37)
        for _ in range(2000):
            n = int(gen.integers(1, 10**6))
            obs = sc.GameObservable(*gen.uniform(-3.0, 3.0, size=4))
            stats = sc.estimate(sc.TossRecord(n, tuple(gen.integers(0, n + 1, size=3).tolist())), obs)
            p1, p2, p3 = stats.p_hat.as_tuple()
            coin_means = ((2.0 * p1 - 1.0) * obs.x, (2.0 * p2 - 1.0) * obs.y, p3 * obs.z1 + (1.0 - p3) * obs.z2)
            assert struct.pack("<4d", stats.mean_x, stats.mean_y, stats.mean_z, stats.mean_total) == struct.pack(
                "<4d", *coin_means, sc.mean(stats.p_hat, obs)
            ), (n, stats)


class TestSampleState:
    def test_sphere_samples_sit_on_pure_surface(self):
        for seed in range(20):
            p = sc.sample_states("sphere", 1, sc.RngSpec(seed=seed))[0]
            report = sc.quantum_validity(p)
            assert report.radius_squared == pytest.approx(0.25, abs=1e-12)
            assert abs(report.purity_defect) <= 1e-12

    def test_ball_samples_are_quantum(self):
        for seed in range(20):
            p = sc.sample_states("ball", 1, sc.RngSpec(seed=seed))[0]
            assert sc.quantum_validity(p).is_quantum

    def test_cube_samples_in_range(self):
        for seed in range(20):
            p = sc.sample_states("cube", 1, sc.RngSpec(seed=seed))[0]
            assert all(0.0 <= v <= 1.0 for v in p.as_tuple())

    def test_deterministic_per_spec(self):
        spec = sc.RngSpec(seed=77)
        assert sc.sample_states("ball", 1, spec)[0] == sc.sample_states("ball", 1, spec)[0]

    @pytest.mark.parametrize("numpy_loaded", [True, False], ids=["numpy", "pure"])
    def test_rejects_unknown_region(self, numpy_loaded, monkeypatch):
        if not numpy_loaded:
            monkeypatch.delitem(sys.modules, "numpy")
        with pytest.raises(ValueError, match="region"):
            sc.sample_states("torus", 1, sc.RngSpec(seed=0))

    def test_a_long_region_is_shown_cut(self):
        message = "region must be 'cube', 'ball' or 'sphere', got 'xxxxxxxxxxxxxxxxxxxx'... (100000 characters)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sc.sample_states("x" * 10**5, 1, sc.RngSpec(seed=0))

    def test_bulk_sampler_draws_sequentially(self):
        spec = sc.RngSpec(seed=5)
        states = sc.sample_states("cube", 4, spec)
        assert len(states) == 4
        assert len(set(states)) == 4
        assert states == sc.sample_states("cube", 4, spec)

    # A cube block of _SAMPLE_DRAWS draws keeps them all, so one fewer, as many and one more rows end
    # inside, at and just past the first block; 20000 rows span several blocks in every region.
    @pytest.mark.parametrize("count", [coinsim._SAMPLE_DRAWS - 1, coinsim._SAMPLE_DRAWS, coinsim._SAMPLE_DRAWS + 1, 20000])
    @pytest.mark.parametrize("region", ["cube", "ball", "sphere"])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_streams_match_per_draw_reference(self, region, seed, count):
        spec = sc.RngSpec(seed=seed)
        states = [s.as_tuple() for s in sc.sample_states(region, count, spec)]
        assert states == reference_states(region, count, spec.generator())
        assert all(0.0 <= x <= 1.0 for row in states for x in row)

    @pytest.mark.parametrize("region", ["cube", "ball", "sphere"])
    def test_working_memory_stays_within_one_block(self, region):
        # Beyond the triples it returns, the array path holds one block of at most _SAMPLE_DRAWS draws,
        # bounded by four arrays of three doubles a draw. 64 KiB covers the Python objects around them.
        spec = sc.RngSpec(seed=0)
        sc.sample_states(region, 10**5, spec)  # warms numpy's caches first
        tracemalloc.start()
        try:
            states = sc.sample_states(region, 10**5, spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(states) == 10**5
        assert peak - held <= 3 * 8 * 4 * coinsim._SAMPLE_DRAWS + 64 * 1024

    @staticmethod
    def take_path(path, monkeypatch):
        """Pin the path of a call of up to 2*10^4 rows: numpy's blocks, or the pure stream with its limit raised that far."""
        if path == "pure":
            monkeypatch.delitem(sys.modules, "numpy")
            monkeypatch.setattr(coinsim, "_PURE_MAX_COUNT", 2 * 10**4)
            monkeypatch.setattr(coinsim.RngSpec, "generator", None)  # the numpy path would fail on it

    @pytest.fixture
    def collector(self):
        """The collector's state, put back as it was after the test."""
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("path", ["numpy", "pure"])
    @pytest.mark.parametrize("region", ["cube", "ball", "sphere"])
    def test_no_automatic_collection_runs_in_the_call(self, region, path, monkeypatch, collector):
        # 2*10^4 triples are many times gen0's threshold of allocations; a collection in the call could
        # free none of them, since a triple holds only floats, so the collector is paused for the call.
        self.take_path(path, monkeypatch)
        started = []

        def hook(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.enable()
        gc.callbacks.append(hook)
        try:
            states = sc.sample_states(region, 2 * 10**4, sc.RngSpec(seed=0))
        finally:
            gc.callbacks.remove(hook)
        assert len(states) == 2 * 10**4
        assert started == []
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("path", ["numpy", "pure"])
    def test_the_collector_state_is_restored_on_return_and_on_raise(self, path, enabled, monkeypatch, collector):
        self.take_path(path, monkeypatch)
        (gc.enable if enabled else gc.disable)()
        sc.sample_states("ball", 2 * 10**4, sc.RngSpec(seed=0))
        assert gc.isenabled() is enabled
        # raise part-way: in the array path's second block, or in the pure path's first
        name = "_draw" if path == "numpy" else "_pure_draw"
        draw, calls = getattr(coinsim, name), []

        def failing(*args):
            calls.append(args)
            if len(calls) == (2 if path == "numpy" else 1):
                raise RuntimeError("draw failed")
            return draw(*args)

        monkeypatch.setattr(coinsim, name, failing)
        with pytest.raises(RuntimeError, match="draw failed"):
            sc.sample_states("cube", 2 * 10**4, sc.RngSpec(seed=0))
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("region", ["cube", "ball", "sphere"])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_without_numpy_the_pure_stream_draws_the_same_rows(self, region, seed, monkeypatch):
        spec = sc.RngSpec(seed, stream=3)
        expected = sc.sample_states(region, coinsim._PURE_MAX_COUNT, spec)

        def numpy_path(_spec):
            raise RuntimeError("numpy path")

        monkeypatch.delitem(sys.modules, "numpy")
        monkeypatch.setattr(coinsim.RngSpec, "generator", numpy_path)
        pure = sc.sample_states(region, coinsim._PURE_MAX_COUNT, spec)
        assert [s.as_tuple() for s in pure] == [s.as_tuple() for s in expected]
        assert all(type(v) is float for s in pure for v in s.as_tuple())
        assert all(0.0 <= v <= 1.0 for s in pure + expected for v in s.as_tuple())
        with pytest.raises(RuntimeError, match="numpy path"):
            sc.sample_states(region, coinsim._PURE_MAX_COUNT + 1, spec)

    @pytest.mark.parametrize("n", [1, 2, coinsim._SAMPLE_DRAWS])
    @pytest.mark.parametrize("region", ["cube", "ball", "sphere"])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_both_draws_keep_the_same_rows_of_the_same_draws(self, region, seed, n):
        stream, gen = spincoins._pcg64.Stream(seed, 3), sc.RngSpec(seed, 3).generator()
        pure = coinsim._pure_draw(region, stream.random, n)
        array = coinsim._draw(region, gen.random, n)
        assert all(type(x) is float and 0.0 <= x <= 1.0 for column in pure + array for x in column)
        assert [[x.hex() for x in column] for column in pure] == [[x.hex() for x in column] for column in array]
        assert stream.random().hex() == gen.random().hex()  # both consumed exactly n draws

    def test_bulk_sampler_rejects_zero_count(self):
        with pytest.raises(ValueError, match="count"):
            sc.sample_states("cube", 0, sc.RngSpec(seed=0))

    @pytest.mark.parametrize("numpy_loaded", [True, False], ids=["numpy", "pure"])
    def test_a_sphere_coordinate_rounded_past_zero_is_clamped(self, numpy_loaded, monkeypatch):
        # u from the stream double 0x1.2bec333018874p-3 and v = 0 (from the double 1/2): the exact
        # coordinate 1/2 + u sqrt(1 - s) is at least 0, and both paths round it to -2^-53.
        doubles = [float.fromhex("0x1.2bec333018874p-3"), 0.5]
        u = 2.0 * doubles[0] - 1.0
        assert coinsim._on_sphere(u, 0.0, u * u + 0.0 * 0.0, math.sqrt)[0] == -(2.0**-53)

        class Stream:
            def __init__(self, seed, stream):
                # a one-row block is 2 draws; zeros give u = v = -1, outside the disc, as the array fake's zero rows do
                self.random = iter(doubles + [0.0, 0.0]).__next__

        class Generator:
            def random(self, shape):
                rows = np.zeros(shape)  # u = v = -1 lie outside the disc, so only the first pair is kept
                rows[0] = doubles
                return rows

        if not numpy_loaded:
            monkeypatch.delitem(sys.modules, "numpy")
        monkeypatch.setattr(spincoins._pcg64, "Stream", Stream)
        monkeypatch.setattr(coinsim.RngSpec, "generator", lambda _spec: Generator())
        row = sc.sample_states("sphere", 1, sc.RngSpec(seed=0))[0].as_tuple()
        assert row == (0.0, 0.5, 1.0 - u * u)

    @pytest.mark.parametrize("region", ["cube", "ball", "sphere"])
    def test_sampled_triples_are_ordinary_triples(self, region):
        for s in sc.sample_states(region, 50, sc.RngSpec(seed=2)):
            assert all(type(v) is float for v in s.as_tuple())
            built = sc.ProbabilityTriple(*s.as_tuple())
            assert s == built
            assert hash(s) == hash(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                s.p1 = 0.5


class TestQuantumFraction:
    def test_small_sample_near_ball_volume_ratio(self):
        fraction = sc.quantum_fraction(1000, sc.RngSpec(seed=0))
        assert abs(fraction - PI_SIXTH) <= 0.05

    def test_fraction_is_a_probability(self):
        for seed in range(5):
            assert 0.0 <= sc.quantum_fraction(1000, sc.RngSpec(seed=seed)) <= 1.0

    def test_rejects_small_sample_count(self):
        with pytest.raises(ValueError, match="n_samples"):
            sc.quantum_fraction(999, sc.RngSpec(seed=0))

    def test_matches_recount_of_the_same_stream(self):
        # Redraw seed 1, stream 0 straight from PCG64 and count ball hits
        # row by row with exactly rounded sums.
        n = 123457
        sequence = np.random.SeedSequence(entropy=1, spawn_key=(0,))
        points = np.random.Generator(np.random.PCG64(sequence)).random((n, 3))
        hits = sum(math.fsum((x - 0.5) ** 2 for x in row) <= 0.25 + 1e-9 for row in points.tolist())
        assert sc.quantum_fraction(n, sc.RngSpec(seed=1)) == hits / n

    def test_matches_blocked_recount_at_ten_million(self):
        # The same recount over 10^7 rows, drawn in blocks to bound memory.
        # numpy's sum of the rounded squares is within a few ulps of the
        # exactly rounded one, so only rows within 1e-12 of the threshold
        # are recounted with math.fsum.
        n, block, threshold = 10**7, 2**20, 0.25 + 1e-9
        sequence = np.random.SeedSequence(entropy=1, spawn_key=(0,))
        gen = np.random.Generator(np.random.PCG64(sequence))
        hits = 0
        for start in range(0, n, block):
            squares = (gen.random((min(block, n - start), 3)) - 0.5) ** 2
            radius_sq = squares.sum(axis=1)
            near = np.abs(radius_sq - threshold) <= 1e-12
            hits += int(np.count_nonzero(radius_sq[~near] <= threshold))
            hits += sum(math.fsum(row) <= threshold for row in squares[near].tolist())
        assert sc.quantum_fraction(n, sc.RngSpec(seed=1)) == hits / n

    def test_same_fraction_for_any_cpu_count(self, monkeypatch):
        # Each chunk's generator is advanced to its first row, so splitting
        # the stream over threads changes no row and no count. A short switch
        # interval makes the threads interleave often, so a lost update shows.
        # b is a lone Generator worker's block: b - 1 and b rows fill one block, b + 1 and 2b + 1 end on a one-row block.
        # Below 2 * _BLOCK_ROWS = 4b rows one worker counts them all. Up to _PURE_MAX_SAMPLES rows a process without
        # numpy counts them on the pure stream, one row at a time, in one thread whatever the CPU count; beyond it
        # both processes draw through numpy's generators. So the limit and the limit + 1 are the last count the pure
        # stream takes and the first it leaves.
        b, most = coinsim._BLOCK_ROWS // 2, coinsim._PURE_MAX_SAMPLES
        sizes = (1000, b - 1, b, b + 1, 2 * b + 1, 123457, most, most + 1, 3 * 2**16 + 1, 10**7)
        pure_sizes = sizes[: sizes.index(most + 1)]
        fractions = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for numpy_loaded, cpu_counts, counts in ((True, (1, 2, 3, 5, 8), sizes), (False, (1,), pure_sizes)):
                if not numpy_loaded:
                    for name in MISSING["bare"]:
                        monkeypatch.delitem(sys.modules, name)
                for cpus in cpu_counts:
                    monkeypatch.setattr(coinsim, "_usable_cpus", lambda cpus=cpus: cpus)
                    fractions[numpy_loaded, cpus] = [sc.quantum_fraction(n, sc.RngSpec(seed=1)) for n in counts]
        finally:
            sys.setswitchinterval(interval)
        assert all(values == fractions[True, 1][: len(values)] for values in fractions.values())

    def test_the_pure_count_sums_and_tests_each_row_as_the_array_count_does(self, monkeypatch):
        # Crafted rows whose squared radius lies within an ulp of the ball test's 1/4 + 1e-9. The first and
        # third are misses in _dot's order, (d0^2 + d1^2) + d2^2, and hits when d2^2 is added first: to d0^2
        # for the first, to either for the third. The second is a hit at exactly 1/4 + 1e-9 in every order,
        # and a miss against a strict 1/4. The centre and the corner of the cube are a plain hit and a plain
        # miss. So a count in another order counts more hits, and one with a strict 1/4 fewer.
        rows = [
            tuple(map(float.fromhex, ("0x1.3eecf89059360p-1", "0x1.7bcb8116f23eep-1", "0x1.d70f9490d17f9p-1"))),
            tuple(map(float.fromhex, ("0x1.db208fa389760p-5", "0x1.03ce9dcdbd9d7p-1", "0x1.779d72f664860p-1"))),
            tuple(map(float.fromhex, ("0x1.e2ffa6cff07a8p-1", "0x1.4c46648351904p-1", "0x1.5a7f49d3b816ep-1"))),
            (0.5, 0.5, 0.5),
            (0.0, 0.0, 0.0),
        ]
        n = 1000  # the fewest samples quantum_fraction takes, 200 of each row
        doubles = [x for _ in range(n // len(rows)) for row in rows for x in row]

        def fill(out):
            out[...] = np.reshape(doubles, out.shape)

        array_hits = coinsim._count_hits(fill, np.empty((n, 3)), np.empty(n))
        monkeypatch.setattr(coinsim, "_pure_stream", lambda *args: types.SimpleNamespace(random=iter(doubles).__next__))
        assert array_hits == 2 * n // len(rows)
        assert sc.quantum_fraction(n, sc.RngSpec(seed=0)) == array_hits / n

    # Edge and random seeds on each stream. Consecutive counts each add one row, so a pure count that drew a
    # row too many or too few differs from the Generator's at one of them; a Generator block and one row more
    # ends numpy's count on a one-row block.
    @pytest.mark.parametrize("n", [1000, 1001, 1002, 1003, 1004, coinsim._BLOCK_ROWS // 2 + 1])
    @pytest.mark.parametrize("stream", [0, 1, 2**70 + 3])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_without_numpy_the_pure_stream_counts_the_same_hits(self, seed, stream, n, monkeypatch):
        spec = sc.RngSpec(seed, stream)
        expected = sc.quantum_fraction(n, spec)

        def numpy_path(_spec):
            raise RuntimeError("numpy path")

        for name in MISSING["bare"]:
            monkeypatch.delitem(sys.modules, name)
        monkeypatch.setattr(coinsim.RngSpec, "generator", numpy_path)
        assert sc.quantum_fraction(n, spec) == expected

    @staticmethod
    def _block_failing_off_the_main_thread(monkeypatch):
        count_hits = coinsim._count_hits

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("draw failed in a worker")
            return count_hits(*args)

        monkeypatch.setattr(coinsim, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(coinsim, "_count_hits", failing)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        self._block_failing_off_the_main_thread(monkeypatch)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="draw failed in a worker"):
            sc.quantum_fraction(10**6, sc.RngSpec(seed=0))
        assert threading.active_count() == before

    def test_no_thread_below_one_block(self, monkeypatch):
        self._block_failing_off_the_main_thread(monkeypatch)
        assert 0.0 < sc.quantum_fraction(coinsim._BLOCK_ROWS - 1, sc.RngSpec(seed=0)) < 1.0

    def test_an_interrupted_join_stops_the_workers(self, monkeypatch):
        # Ctrl-C while the caller joins a worker raises KeyboardInterrupt there; the worker must stop
        # drawing a count that is lost. The join raises before it waits, so the worker can be joined
        # afterwards, and each worker block is slowed so that the worker is still running then.
        count_hits, join = coinsim._count_hits, threading.Thread.join
        interrupted = threading.Event()
        after_interrupt = []  # one entry per worker block begun after the interrupt
        workers = []

        def slow(*args):
            if threading.current_thread() is not threading.main_thread():
                if interrupted.is_set():
                    after_interrupt.append(1)
                time.sleep(0.02)
            return count_hits(*args)

        def interrupted_join(thread, timeout=None):
            monkeypatch.setattr(threading.Thread, "join", join)  # raise once
            workers.append(thread)
            interrupted.set()
            raise KeyboardInterrupt

        monkeypatch.setattr(coinsim, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(coinsim, "_count_hits", slow)
        monkeypatch.setattr(threading.Thread, "join", interrupted_join)
        with pytest.raises(KeyboardInterrupt):
            sc.quantum_fraction(10**6, sc.RngSpec(seed=0))  # the worker's chunk is 16 blocks
        workers[0].join(timeout=30)
        assert not workers[0].is_alive()
        assert len(after_interrupt) <= 2

    @pytest.mark.parametrize(
        "cpus, n, numpy_loaded", [*itertools.product([1, 2, 8], [10**5, 10**6], [True]), (1, 2**17 - 1, False)]
    )
    def test_working_memory_stays_within_the_buffer_bound(self, cpus, n, numpy_loaded, monkeypatch):
        # All workers' buffers together hold at most _BLOCK_ROWS rows of 33 bytes: three doubles,
        # one double of running total and the one-byte mask of a block's ball test. 64 KiB covers the Python objects around them.
        # Without numpy, the most samples counted on the pure stream hold one row at a time, and 8 KiB covers
        # the stream and the few objects of the row being counted, for any count.
        monkeypatch.setattr(coinsim, "_usable_cpus", lambda: cpus)
        if not numpy_loaded:
            for name in MISSING["bare"]:
                monkeypatch.delitem(sys.modules, name)
        sc.quantum_fraction(n, sc.RngSpec(seed=0))  # imports what the call needs and warms its caches first
        tracemalloc.start()
        try:
            sc.quantum_fraction(n, sc.RngSpec(seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (coinsim._BLOCK_ROWS * 33 + 64 * 1024 if numpy_loaded else 8 * 1024)

    def test_without_an_affinity_mask_the_cpu_count_sets_the_workers(self, monkeypatch):
        # Platforms without os.sched_getaffinity (macOS, Windows) fall back on os.cpu_count,
        # which may return None; the fraction is the same for any worker count.
        n = 3 * 2**16 + 1
        expected = sc.quantum_fraction(n, sc.RngSpec(seed=1))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus, workers in ((3, 3), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            assert coinsim._usable_cpus() == workers
            assert sc.quantum_fraction(n, sc.RngSpec(seed=1)) == expected

    def test_ball_rejection_rate_cross_check(self):
        # The ball sampler accepts cube draws at the same pi/6 rate that
        # quantum_fraction estimates.
        states = sc.sample_states("cube", 20000, sc.RngSpec(seed=9))
        accepted = sum(sc.quantum_validity(s).is_quantum for s in states) / len(states)
        assert abs(accepted - PI_SIXTH) <= 0.02
        assert abs(accepted - sc.quantum_fraction(20000, sc.RngSpec(seed=9))) <= 0.02


# Fixed before any result was looked at: the triple, 2000 records per case, and alpha = 1e-6
# for each of the 12 checks (numpy and pure paths, 20 and 500 tosses, three coins), so a
# correct toss fails the class with probability at most 1.2e-5.
LAW_TRIPLE = (0.3, 0.6, 0.85)
LAW_RECORDS = 2000
LAW_ALPHA = 1e-6


class TestTossFollowsTheBinomialLaw:
    # 20 tosses take numpy's inversion branch for all three coins, 500 tosses its BTPE branch.
    @pytest.mark.parametrize("n", [20, 500])
    @pytest.mark.parametrize("numpy_loaded", [True, False], ids=["numpy", "pure"])
    def test_each_coin_count_passes_a_chi_square_test(self, numpy_loaded, n, monkeypatch):
        if not numpy_loaded:
            monkeypatch.delitem(sys.modules, "numpy")
        state = sc.ProbabilityTriple(*LAW_TRIPLE)
        records = [sc.toss(state, n, sc.RngSpec(seed=n * LAW_RECORDS + k)) for k in range(LAW_RECORDS)]
        for coin, p in enumerate(LAW_TRIPLE):
            observed = Counter(record.heads_counts[coin] for record in records)
            # Neighbouring counts are pooled from the low end until a bin expects at least 5
            # records; the high tail joins the last bin.
            bins, expected, seen = [], 0, 0
            for heads, weight in enumerate(binomial_pmf(n, p)):
                expected, seen = expected + LAW_RECORDS * weight, seen + observed[heads]
                if expected >= 5:
                    bins.append([expected, seen])
                    expected, seen = 0, 0
            bins[-1][0] += expected
            bins[-1][1] += seen
            statistic = sum((seen - expected) ** 2 / expected for expected, seen in bins)
            assert chi_square_survival(statistic, len(bins) - 1) >= LAW_ALPHA, (coin, statistic, len(bins))


# Fixed before any result was looked at: the count (the bound itself), 2000 draws per case
# (the three coins of 667 records, seeds 0 to 666 on stream 20) and a band of six standard
# deviations, which a correct toss leaves with probability about 2e-9 per case.
PARITY_TOSSES = coinsim.MAX_TOSSES
PARITY_DRAWS = 2000


class TestTossCountsAreExact:
    # Above 2**53 a double cannot hold every count, and numpy's BTPE, which computes the count
    # in doubles, loses its low bits: at 2**55 every count it returns is even. At MAX_TOSSES the
    # parity of a binomial count is a fair coin for these p, so the share of odd counts in
    # PARITY_DRAWS draws lies within six standard deviations of 1/2.
    @pytest.mark.parametrize("p", [0.5, 0.37])
    @pytest.mark.parametrize("numpy_loaded", [True, False], ids=["numpy", "pure"])
    def test_odd_counts_are_half_of_all(self, numpy_loaded, p, monkeypatch):
        if not numpy_loaded:
            monkeypatch.delitem(sys.modules, "numpy")
        state = sc.ProbabilityTriple(p, p, p)
        records = [sc.toss(state, PARITY_TOSSES, sc.RngSpec(seed=k, stream=20)) for k in range(PARITY_DRAWS // 3 + 1)]
        counts = [count for record in records for count in record.heads_counts][:PARITY_DRAWS]
        odd_share = sum(count % 2 for count in counts) / PARITY_DRAWS
        assert abs(odd_share - 0.5) <= 6.0 * math.sqrt(0.25 / PARITY_DRAWS), odd_share


def test_estimator_error_scales_as_inverse_sqrt():
    # Median absolute frequency error should shrink tenfold from n=1e3 to
    # n=1e5 (within 50 percent).
    p = sc.ProbabilityTriple(0.3, 0.6, 0.8)
    medians = {}
    for n in (10**3, 10**5):
        errors = []
        for seed in range(60):
            record = sc.toss(p, n, sc.RngSpec(seed=seed))
            p_hat = [count / n for count in record.heads_counts]
            errors.append(max(abs(a - b) for a, b in zip(p_hat, p.as_tuple())))
        medians[n] = statistics.median(errors)
    ratio = medians[10**3] / medians[10**5]
    assert 5.0 <= ratio <= 15.0
