"""Tests for game observables, the moment recurrence, and its matrix oracles."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

import spincoins as sc
from oracles import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    coin_matrix,
    expm_hermitian_2x2,
    moments_exact,
    moments_oracle,
    random_ball_points,
    trace_product,
)

SIGMA_X_GAME = sc.GameObservable(1, 0, 0, 0)
SIGMA_Z_GAME = sc.GameObservable(0, 0, 1, -1)

SPIN_UP = sc.ProbabilityTriple(0.5, 0.5, 1.0)
PLUS_X = sc.ProbabilityTriple(1.0, 0.5, 0.5)
TILTED_X = sc.ProbabilityTriple(0.75, 0.5, 0.5)
MIXED = sc.ProbabilityTriple(0.5, 0.5, 0.5)


def random_observable(gen: np.random.Generator, span: float = 10.0) -> sc.GameObservable:
    return sc.GameObservable(*gen.uniform(-span, span, size=4))


class TestGameObservable:
    def test_sigma_x_payoffs(self):
        assert np.array_equal(SIGMA_X_GAME.to_matrix(), PAULI_X)

    def test_sigma_z_payoffs(self):
        assert np.array_equal(SIGMA_Z_GAME.to_matrix(), PAULI_Z)

    def test_isotropic_payoff_is_degenerate(self):
        obs = sc.GameObservable(0, 0, 5, 5)
        assert np.array_equal(obs.to_matrix(), 5.0 * IDENTITY_2)
        assert obs.r == 0.0
        assert obs.is_degenerate()

    def test_derived_quantities(self):
        obs = sc.GameObservable(3.0, 4.0, 2.0, -2.0)
        assert obs.c == 0.0
        assert obs.z == 2.0
        assert obs.r == pytest.approx(math.sqrt(9 + 16 + 4), abs=1e-15)
        assert obs.eigenvalues() == (-obs.r, obs.r)

    def test_pauli_decomposition(self):
        gen = np.random.default_rng(3)
        for _ in range(50):
            obs = random_observable(gen)
            composed = (
                obs.c * IDENTITY_2
                + obs.x * PAULI_X
                + obs.y * PAULI_Y
                + obs.z * PAULI_Z
            )
            assert np.allclose(obs.to_matrix(), composed, atol=1e-12)

    def test_rejects_non_finite_payoff(self):
        with pytest.raises(sc.InvalidObservableError, match="z1"):
            sc.GameObservable(1.0, 0.0, math.inf, 0.0)

    def test_dict_round_trip(self):
        obs = sc.GameObservable(1.5, -2.0, 0.25, 3.0)
        assert sc.GameObservable.from_dict(obs.to_dict()) == obs

    def test_from_dict_names_missing_field(self):
        with pytest.raises(sc.InvalidObservableError, match="z2"):
            sc.GameObservable.from_dict({"x": 1, "y": 0, "z1": 0})

    @pytest.mark.parametrize("bad", ["1", False])
    def test_numeric_strings_and_bools_rejected(self, bad):
        with pytest.raises(sc.InvalidObservableError, match=f"^field 'z1' must be a number, got {re.escape(repr(bad))}$"):
            sc.GameObservable(1, 0, bad, 0)
        with pytest.raises(sc.InvalidObservableError, match="field 'z1' must be a number"):
            sc.GameObservable.from_dict({"x": 1, "y": 0, "z1": bad, "z2": 0})

    def test_ints_past_the_float_range_name_their_field(self):
        with pytest.raises(sc.InvalidObservableError, match="^field 'z1' is too large a number to be finite"):
            sc.GameObservable(1, 0, 10**400, 0)
        with pytest.raises(sc.InvalidObservableError, match="^field 'z1' is too large a number"):
            sc.GameObservable.from_dict({"x": 1, "y": 0, "z1": 10**400, "z2": 0})


class TestMean:
    def test_spin_up_eigenstate_of_sigma_z(self):
        assert sc.mean(SPIN_UP, SIGMA_Z_GAME) == 1.0

    def test_plus_x_eigenstate_of_sigma_x(self):
        assert sc.mean(PLUS_X, SIGMA_X_GAME) == 1.0

    def test_tilted_state_matches_trace_oracle(self):
        assert sc.mean(TILTED_X, SIGMA_X_GAME) == pytest.approx(0.5, abs=1e-15)
        oracle = trace_product(coin_matrix(*TILTED_X.as_tuple()), SIGMA_X_GAME.to_matrix())
        assert sc.mean(TILTED_X, SIGMA_X_GAME) == pytest.approx(oracle, abs=1e-14)

    def test_accepts_classical_cube_triples(self):
        corner = sc.ProbabilityTriple(1.0, 1.0, 1.0)
        assert sc.mean(corner, sc.GameObservable(1, 1, 1, -1)) == 3.0

    def test_random_states_match_trace_oracle(self):
        gen = np.random.default_rng(17)
        for point in random_ball_points(gen, 100):
            p = sc.ProbabilityTriple(*point)
            obs = random_observable(gen)
            oracle = trace_product(coin_matrix(*point), obs.to_matrix())
            assert sc.mean(p, obs) == pytest.approx(oracle, abs=1e-12)


class TestSecondMoment:
    @pytest.mark.parametrize("state", [SPIN_UP, MIXED, TILTED_X])
    def test_involutive_games_give_one(self, state):
        assert sc.second_moment(state, SIGMA_Z_GAME) == pytest.approx(1.0, abs=1e-15)
        assert sc.second_moment(state, SIGMA_X_GAME) == pytest.approx(1.0, abs=1e-15)

    def test_projector_style_payoff(self):
        obs = sc.GameObservable(0, 0, 2, 0)
        assert sc.mean(SPIN_UP, obs) == 2.0
        assert sc.second_moment(SPIN_UP, obs) == pytest.approx(4.0, abs=1e-15)

    def test_matches_matrix_square_oracle(self):
        gen = np.random.default_rng(23)
        for point in random_ball_points(gen, 100):
            p = sc.ProbabilityTriple(*point)
            obs = random_observable(gen)
            a = obs.to_matrix()
            oracle = trace_product(coin_matrix(*point), a @ a)
            assert sc.second_moment(p, obs) == pytest.approx(oracle, rel=1e-12, abs=1e-12)
            assert sc.second_moment(p, obs) == sc.moments(p, obs, 2).moments[2]


class TestGeneratingFunction:
    def test_eigenstate_gives_pure_exponential(self):
        for lam in (-1.0, -0.3, 0.0, 0.5, 2.0):
            assert sc.generating_function(SPIN_UP, SIGMA_Z_GAME, lam) == pytest.approx(
                math.exp(lam), rel=1e-14
            )

    def test_value_at_zero_is_one(self):
        gen = np.random.default_rng(29)
        for point in random_ball_points(gen, 20):
            p = sc.ProbabilityTriple(*point)
            assert sc.generating_function(p, random_observable(gen), 0.0) == 1.0

    def test_ball_center_gives_cosh(self):
        assert sc.generating_function(MIXED, SIGMA_Z_GAME, 1.0) == pytest.approx(
            math.cosh(1.0), abs=1e-12
        )

    def test_degenerate_observable_ignores_state(self):
        obs = sc.GameObservable(0, 0, 5, 5)
        for p in (SPIN_UP, MIXED):
            assert sc.generating_function(p, obs, 0.2) == pytest.approx(math.exp(1.0), rel=1e-14)

    def test_matches_matrix_exponential_oracle(self):
        gen = np.random.default_rng(31)
        for point in random_ball_points(gen, 100):
            p = sc.ProbabilityTriple(*point)
            obs = random_observable(gen)
            for lam in (-1.0, -0.1, 0.1, 1.0):
                oracle = trace_product(coin_matrix(*point), expm_hermitian_2x2(lam * obs.to_matrix()))
                value = sc.generating_function(p, obs, lam)
                assert value == pytest.approx(oracle, rel=1e-10)

    def test_rejects_non_finite_lambda(self):
        with pytest.raises(ValueError, match="lam"):
            sc.generating_function(MIXED, SIGMA_Z_GAME, math.nan)


class TestMoments:
    def test_alternating_sigma_x_sequence(self):
        seq = sc.moments(TILTED_X, SIGMA_X_GAME, 6)
        assert seq.moments == (1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0)
        assert seq.c == 0.0 and seq.r == 1.0 and seq.f == 0.5

    def test_eigenvalue_powers(self):
        seq = sc.moments(SPIN_UP, sc.GameObservable(0, 0, 2, 0), 3)
        assert seq.moments == (1.0, 2.0, 4.0, 8.0)

    def test_degenerate_observable_gives_scalar_powers(self):
        seq = sc.moments(MIXED, sc.GameObservable(0, 0, 5, 5), 3)
        assert seq.moments == (1.0, 5.0, 25.0, 125.0)
        assert seq.f is None

    def test_zeroth_order_only(self):
        seq = sc.moments(MIXED, SIGMA_X_GAME, 0)
        assert seq.moments == (1.0,)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="n_max"):
            sc.moments(MIXED, SIGMA_X_GAME, -1)

    def test_recurrence_holds_along_sequence(self):
        gen = np.random.default_rng(37)
        for point in random_ball_points(gen, 50):
            p = sc.ProbabilityTriple(*point)
            obs = random_observable(gen)
            seq = sc.moments(p, obs, 12)
            coeff = obs.r**2 - obs.c**2
            for n in range(len(seq) - 2):
                expected = 2 * obs.c * seq.moments[n + 1] + coeff * seq.moments[n]
                assert seq.moments[n + 2] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_moments_bounded_by_extreme_eigenvalue_powers(self):
        gen = np.random.default_rng(39)
        for point in random_ball_points(gen, 50):
            p = sc.ProbabilityTriple(*point)
            obs = random_observable(gen)
            reach = max(abs(v) for v in obs.eigenvalues())
            seq = sc.moments(p, obs, 20)
            for n, m in enumerate(seq.moments):
                assert abs(m) <= reach**n * (1.0 + 1e-9) + 1e-12


def assert_moments_exact(p: sc.ProbabilityTriple, obs: sc.GameObservable, n_max: int) -> None:
    # Error bound relative to the two-point law's absolute scale
    # |w+| |c + r|^n + |w-| |c - r|^n, floored at 1. The oracle is exact to
    # half an ulp, far inside the bound.
    seq = sc.moments(p, obs, n_max)
    f = 0.0 if seq.f is None else seq.f
    w_plus, w_minus = abs(1.0 + f) / 2.0, abs(1.0 - f) / 2.0
    hi, lo = abs(seq.c + seq.r), abs(seq.c - seq.r)
    for n, (value, exact) in enumerate(zip(seq.moments, moments_exact(p, obs, n_max))):
        scale = max(1.0, w_plus * hi**n + w_minus * lo**n)
        assert abs(value - exact) <= 1e-12 * scale, (n, value, exact)


class TestMomentsExact:
    def test_random_pairs_to_order_200(self):
        gen = np.random.default_rng(67)
        for point in random_ball_points(gen, 200):
            assert_moments_exact(sc.ProbabilityTriple(*point), random_observable(gen), 200)

    def test_eigenstates_of_smaller_outcome_to_order_200(self):
        # Diagonal games with payoffs on a 1/64 grid, in the eigenstate of
        # the outcome of smaller magnitude: c, r and f = +-1 are exact, so
        # all weight sits on the outcome a forward recurrence loses.
        gen = np.random.default_rng(71)
        for _ in range(200):
            z1, z2 = (float(v) / 64.0 for v in gen.integers(-640, 641, size=2))
            p = sc.ProbabilityTriple(0.5, 0.5, 1.0 if abs(z1) < abs(z2) else 0.0)
            assert_moments_exact(p, sc.GameObservable(0.0, 0.0, z1, z2), 200)

    def test_weight_on_smaller_outcome_at_order_60(self):
        # All weight sits on the outcome -0.625 while the other is 4, the
        # case where a forward recurrence amplifies rounding by (4/0.625)^n.
        p = sc.ProbabilityTriple(0.5, 0.5, 0.0)
        obs = sc.GameObservable(0.0, 0.0, 4.0, -0.625)
        assert_moments_exact(p, obs, 60)
        assert sc.moments(p, obs, 60).moments[60] == pytest.approx(0.625**60, rel=1e-14)


class TestMomentsOracle:
    def test_mirrors_recurrence_examples(self):
        assert moments_oracle(TILTED_X, SIGMA_X_GAME, 6) == pytest.approx(
            (1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0), abs=1e-14
        )
        assert moments_oracle(SPIN_UP, sc.GameObservable(0, 0, 2, 0), 3) == pytest.approx(
            (1.0, 2.0, 4.0, 8.0), abs=1e-14
        )
        assert moments_oracle(MIXED, sc.GameObservable(0, 0, 5, 5), 3) == pytest.approx(
            (1.0, 5.0, 25.0, 125.0), abs=1e-11
        )

    def test_eigenstate_first_moment(self):
        assert moments_oracle(SPIN_UP, SIGMA_Z_GAME, 1) == pytest.approx(
            (1.0, 1.0), abs=1e-14
        )

    def test_mixed_state_sigma_x(self):
        assert moments_oracle(MIXED, SIGMA_X_GAME, 2) == pytest.approx(
            (1.0, 0.0, 1.0), abs=1e-14
        )

    def test_recurrence_agrees_with_matrix_powers(self):
        gen = np.random.default_rng(41)
        for point in random_ball_points(gen, 200):
            p = sc.ProbabilityTriple(*point)
            obs = random_observable(gen)
            fast = sc.moments(p, obs, 20).moments
            slow = moments_oracle(p, obs, 20)
            for a, b in zip(fast, slow):
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


class TestTaylorAndDerivative:
    def test_partial_taylor_sum_approximates_generating_function(self):
        gen = np.random.default_rng(43)
        observables_under_test = [sc.GameObservable(1, 1, 1, -1), SIGMA_Z_GAME]
        for _ in range(10):
            payoffs = gen.uniform(-1, 1, size=4)
            observables_under_test.append(sc.GameObservable(*payoffs))
        for obs in observables_under_test:
            reach = abs(obs.c) + obs.r
            if reach == 0.0:
                continue
            lam = 0.9 / reach
            for point in random_ball_points(gen, 5):
                p = sc.ProbabilityTriple(*point)
                seq = sc.moments(p, obs, 12).moments
                partial = sum(lam**n * m / math.factorial(n) for n, m in enumerate(seq))
                assert partial == pytest.approx(sc.generating_function(p, obs, lam), abs=1e-8)

    def test_finite_difference_slope_at_origin_is_first_moment(self):
        gen = np.random.default_rng(47)
        cases = [(SPIN_UP, SIGMA_Z_GAME), (TILTED_X, SIGMA_X_GAME)]
        for point in random_ball_points(gen, 10):
            cases.append((sc.ProbabilityTriple(*point), random_observable(gen, span=2.0)))
        step = 1e-5
        for p, obs in cases:
            slope = (
                sc.generating_function(p, obs, step) - sc.generating_function(p, obs, -step)
            ) / (2 * step)
            assert slope == pytest.approx(sc.mean(p, obs), abs=1e-6)


class TestMomentDependenceOnMeanOnly:
    def test_swapped_states_share_all_moments(self):
        # With equal payoffs on the first two coins, swapping p1 and p2
        # leaves the mean bit-identical, hence the whole sequence.
        gen = np.random.default_rng(53)
        found = 0
        while found < 50:
            point = random_ball_points(gen, 1)[0]
            if abs(point[0] - point[1]) < 1e-3:
                continue
            shared = float(gen.uniform(-2, 2))
            obs = sc.GameObservable(shared, shared, *gen.uniform(-2, 2, size=2))
            p = sc.ProbabilityTriple(*point)
            q = sc.ProbabilityTriple(point[1], point[0], point[2])
            assert p != q
            assert sc.mean(p, obs) == sc.mean(q, obs)
            assert sc.moments(p, obs, 20) == sc.moments(q, obs, 20)
            found += 1

    def test_oracle_confirms_on_distinct_matrices(self):
        obs = sc.GameObservable(1.0, 1.0, 0.5, -0.5)
        p = sc.ProbabilityTriple(0.6, 0.4, 0.5)
        q = sc.ProbabilityTriple(0.4, 0.6, 0.5)
        fast_p = moments_oracle(p, obs, 20)
        fast_q = moments_oracle(q, obs, 20)
        for a, b in zip(fast_p, fast_q):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


class TestOutcomeDistribution:
    def test_eigenstate(self):
        assert sc.outcome_distribution(SPIN_UP, SIGMA_Z_GAME) == [(1.0, 1.0), (-1.0, 0.0)]

    def test_maximally_mixed(self):
        assert sc.outcome_distribution(MIXED, SIGMA_Z_GAME) == [(1.0, 0.5), (-1.0, 0.5)]

    def test_tilted_state(self):
        assert sc.outcome_distribution(TILTED_X, SIGMA_X_GAME) == [(1.0, 0.75), (-1.0, 0.25)]

    def test_degenerate_observable_single_outcome(self):
        assert sc.outcome_distribution(MIXED, sc.GameObservable(0, 0, 5, 5)) == [(5.0, 1.0)]

    def test_probabilities_form_distribution(self):
        gen = np.random.default_rng(59)
        for point in random_ball_points(gen, 100):
            p = sc.ProbabilityTriple(*point)
            obs = random_observable(gen)
            pairs = sc.outcome_distribution(p, obs)
            probs = [w for _, w in pairs]
            assert all(0.0 <= w <= 1.0 for w in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_first_two_moments_match(self):
        gen = np.random.default_rng(61)
        for point in random_ball_points(gen, 100):
            p = sc.ProbabilityTriple(*point)
            obs = random_observable(gen)
            pairs = sc.outcome_distribution(p, obs)
            first = sum(v * w for v, w in pairs)
            second = sum(v * v * w for v, w in pairs)
            assert first == pytest.approx(sc.mean(p, obs), rel=1e-10, abs=1e-10)
            assert second == pytest.approx(sc.second_moment(p, obs), rel=1e-10, abs=1e-10)

    def test_flags_non_quantum_state(self):
        corner = sc.ProbabilityTriple(1.0, 1.0, 1.0)
        obs = sc.GameObservable(1, 1, 0, 0)
        with pytest.raises(sc.NonQuantumStateError):
            sc.outcome_distribution(corner, obs)
