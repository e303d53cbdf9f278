"""Tests for game observables, the moment recurrence, and its matrix oracles."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import re
import struct
import sys
from fractions import Fraction

import mpmath
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


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _stored_quantities_sweep() -> list[tuple[float, float, float, float]]:
    """Payoff quadruples over the whole finite range: random spans, signed zeros, subnormals and payoffs near +-1e308."""
    gen = np.random.default_rng(13)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -1.5, 1e154, 1.7e308, -1.7e308, 1e308, -1e308]
    quadruples = [tuple(float(v) for v in gen.choice(special, size=4)) for _ in range(400)]
    for span in (1e-300, 1e-160, 1.0, 1e150, 1e300, 1.7e308):
        quadruples += [tuple(float(v) for v in span * gen.uniform(-1.0, 1.0, size=4)) for _ in range(50)]
    return quadruples


def _exact_radius(x: float, y: float, z: float) -> mpmath.mpf:
    """sqrt(x^2 + y^2 + z^2) of the floats at 60 digits; its squares are exact."""
    with mpmath.workdps(60):
        return mpmath.sqrt(mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2 + mpmath.mpf(z) ** 2)


def _within_one_ulp(value: float, exact: mpmath.mpf) -> bool:
    """``value`` is within one ulp of ``exact``, or inf where ``exact`` rounds past the float range."""
    nearest = float(exact)
    if math.isinf(nearest):
        return value == nearest
    with mpmath.workdps(60):
        return abs(value - exact) <= math.ulp(nearest)


class TestStoredQuantities:
    """c, z and r are computed once, at construction, and are invisible to equality, hashing and repr."""

    def test_c_and_z_halve_first_and_r_is_within_one_ulp(self):
        # c = z1/2 + z2/2 and z = z1/2 - z2/2 never overflow. With exact halves each is the correctly
        # rounded exact value, so it is the formula (z1 +- z2) / 2 bit for bit wherever that is finite
        # and normal. r = hypot(x, y, z) is checked to one ulp, as hypot's last bit differs across
        # Python versions.
        checked = 0
        for payoffs in _stored_quantities_sweep():
            obs = sc.GameObservable(*payoffs)
            x, y, z1, z2 = payoffs
            halves_exact = z1 / 2.0 * 2.0 == z1 and z2 / 2.0 * 2.0 == z2
            for value, sign in ((obs.c, 1), (obs.z, -1)):
                formula = (z1 + sign * z2) / 2.0
                if halves_exact and math.isfinite(formula) and (formula == 0.0 or abs(formula) >= sys.float_info.min):
                    assert _bits(value) == _bits(formula), payoffs
                    checked += 1
                exact = (Fraction(z1) + sign * Fraction(z2)) / 2
                if halves_exact:
                    assert value == float(exact), payoffs
                else:  # a subnormal half may round, by at most half the smallest subnormal
                    assert abs(Fraction(value) - exact) <= Fraction(math.ulp(value)) / 2 + Fraction(2) ** -1074, payoffs
            assert _within_one_ulp(obs.r, _exact_radius(x, y, obs.z)), payoffs
        assert checked > 900

    def test_no_overflow_where_the_exact_value_is_finite(self):
        # (z1 - z2) / 2 overflowed here to -inf; the exact z is -1.35e308.
        obs = sc.GameObservable(1e308, 1e308, -1.7e308, 1e308)
        assert obs.z == -1.35e308
        assert obs.c == float((Fraction(-1.7e308) + Fraction(1e308)) / 2)
        # sqrt(x^2 + y^2 + z^2) overflowed here to inf.
        obs = sc.GameObservable(1, 1, 1e308, -1e308)
        assert obs.r == obs.z == 1e308
        assert obs.c == 0.0

    def test_degenerate_exactly_when_r_is_zero(self):
        assert sc.GameObservable(0.0, -0.0, 7.0, 7.0).is_degenerate()
        tiny = [(5e-324, 0.0, 1.0, 1.0), (0.0, 2e-300, 0.0, 0.0), (0.0, 0.0, 1e-300, -1e-300), (1e-13, 0, 0, 0)]
        for payoffs in tiny:
            obs = sc.GameObservable(*payoffs)
            assert obs.r > 0.0
            assert not obs.is_degenerate()

    def test_ignored_by_eq_hash_and_repr(self):
        obs = sc.GameObservable(3.0, 4.0, 2.0, -2.0)
        tampered = sc.GameObservable(3.0, 4.0, 2.0, -2.0)
        for name in ("c", "z", "r"):
            object.__setattr__(tampered, name, 99.0)
        assert tampered == obs
        assert hash(tampered) == hash(obs)
        assert repr(tampered) == repr(obs) == "GameObservable(x=3.0, y=4.0, z1=2.0, z2=-2.0)"
        assert tampered.to_dict() == {"x": 3.0, "y": 4.0, "z1": 2.0, "z2": -2.0}

    def test_are_fields_that_take_no_argument(self):
        described = {f.name: (f.init, f.repr, f.compare) for f in dataclasses.fields(sc.GameObservable)}
        assert described == {
            "x": (True, True, True), "y": (True, True, True), "z1": (True, True, True), "z2": (True, True, True),
            "c": (False, False, False), "z": (False, False, False), "r": (False, False, False),
        }
        with pytest.raises(TypeError):
            sc.GameObservable(1.0, 0.0, 0.0, 0.0, r=2.0)

    @pytest.mark.parametrize(
        "how",
        [
            lambda obs: dataclasses.replace(obs, z2=-0.0),
            lambda obs: pickle.loads(pickle.dumps(obs)),
            copy.deepcopy,
            copy.copy,
        ],
        ids=["replace", "pickle", "deepcopy", "copy"],
    )
    def test_copies_match_a_fresh_construction(self, how):
        for payoffs in _stored_quantities_sweep()[::7]:
            again = how(sc.GameObservable(*payoffs))
            fresh = sc.GameObservable(again.x, again.y, again.z1, again.z2)
            assert [_bits(v) for v in (again.c, again.z, again.r)] == [_bits(v) for v in (fresh.c, fresh.z, fresh.r)]

    def test_are_frozen(self):
        obs = sc.GameObservable(1.0, -0.5, 2.0, 0.25)
        for name in ("c", "z", "r"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obs, name, 0.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obs, name)
        assert (obs.c, obs.z, obs.r) == (1.125, 0.875, math.hypot(1.0, -0.5, 0.875))


def _scaled(obs: sc.GameObservable, k: int) -> sc.GameObservable:
    """The observable 2^k A: every payoff times 2^k, exactly where the result is normal."""
    return sc.GameObservable(*(math.ldexp(v, k) for v in (obs.x, obs.y, obs.z1, obs.z2)))


def _scale_cases() -> list[tuple[int, sc.ProbabilityTriple, sc.GameObservable]]:
    """Every k in [-1000, 1000], with a ball state and payoffs of magnitude 2^-10 to 2^10, each zero one time in eight."""
    gen = np.random.default_rng(29)
    states = random_ball_points(gen, 2001)
    cases = []
    for k, point in zip(range(-1000, 1001), states):
        payoffs = gen.choice((-1.0, 1.0), size=4) * 2.0 ** gen.uniform(-10, 10, size=4)
        obs = sc.GameObservable(*(0.0 if gen.random() < 0.125 else float(v) for v in payoffs))
        if not obs.is_degenerate():
            cases.append((k, sc.ProbabilityTriple(*point), obs))
    return cases


class TestTwoPointLawOverTheFloatRange:
    """r, f and the moments follow the payoffs' scale 2^k over the float range, bit for bit where the maths allows."""

    def test_radius_scales_bit_for_bit(self):
        for k, _, obs in _scale_cases():
            assert _bits(_scaled(obs, k).r) == _bits(math.ldexp(obs.r, k)), (k, obs)

    def test_anisotropy_is_scale_free_bit_for_bit(self):
        checked = 0
        for k, p, obs in _scale_cases():
            scaled = _scaled(obs, k)
            d = (p.p1 - 0.5, p.p2 - 0.5, p.p3 - 0.5)
            products = [u * v for u, v in zip(d, (scaled.x, scaled.y, scaled.z))]
            if all(q == 0.0 or abs(q) >= sys.float_info.min for q in products):
                assert _bits(sc.moments(p, scaled, 0).f) == _bits(sc.moments(p, obs, 0).f), (k, p, obs)
                checked += 1
        assert checked > 1500

    def test_moments_scale_within_the_error_budget(self):
        # m_n(2^k A) = 2^{kn} m_n(A): both sides are within the budget (2n + 4) U of
        # tests/test_error_budget.py, relative to (|w+| + |w-|)(|c| + r)^n, so they
        # differ by at most twice it. Orders whose scaled size leaves 2^+-1000 are
        # outside the budget; pow is not correctly rounded, so this is not bit for bit.
        unit = 2.0**-53
        for k, p, obs in _scale_cases():
            seq = sc.moments(p, obs, 20)
            weight = abs(1.0 + seq.f) / 2.0 + abs(1.0 - seq.f) / 2.0
            reach = abs(obs.c) + obs.r
            orders = [n for n in range(21) if abs(n * (k + math.log2(reach))) <= 1000]
            scaled = sc.moments(p, _scaled(obs, k), orders[-1]).moments
            for n in orders:
                difference = abs(math.ldexp(scaled[n], -k * n) - seq.moments[n])
                assert difference <= 2 * (2 * n + 4) * unit * weight * reach**n, (k, n, p, obs)

    def test_tiny_payoffs_keep_the_mean_and_the_generating_function(self):
        # r = 2^-40 was below the old absolute degeneracy cut-off 1e-12: m_1 read 0 and G(2^40) read cosh 1.
        p, obs = TILTED_X, sc.GameObservable(2.0**-40, 0.0, 0.0, 0.0)
        assert sc.moments(p, obs, 1).moments[1] == sc.mean(p, obs) == 2.0**-41
        assert sc.moments(p, obs, 1).f == 0.5
        assert sc.generating_function(p, obs, 2.0**40) == pytest.approx(0.75 * math.e + 0.25 / math.e, rel=1e-15)

    def test_anisotropy_stays_finite_where_twice_the_dot_product_overflows(self):
        # 2 d.(x, y, z) = 1.8e308 overflows; d.(x, y, z) / r does not, so m_0 and G(0) stay 1 (they read NaN).
        p, obs = sc.ProbabilityTriple(1.0, 0.9, 0.5), sc.GameObservable(1e308, 1e308, 0.0, 0.0)
        seq = sc.moments(p, obs, 0)
        assert seq.f == pytest.approx(0.9 * math.sqrt(2.0), rel=1e-15)
        assert seq.moments == (1.0,)
        assert sc.generating_function(p, obs, 0.0) == 1.0


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

    @pytest.mark.parametrize(
        "lam, message",
        [
            (True, "field 'lam' must be a number, got True"),
            ("1", "field 'lam' must be a number, got '1'"),
            (10**400, "field 'lam' is too large a number to be finite"),
        ],
        ids=["bool", "string", "huge-int"],
    )
    def test_lambda_takes_the_value_types_number_test(self, lam, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sc.generating_function(TILTED_X, SIGMA_X_GAME, lam)

    def test_int_and_numpy_lambdas_are_used_as_floats(self):
        for lam in (1, np.float64(1.0), np.int32(1)):
            value = sc.generating_function(TILTED_X, SIGMA_X_GAME, lam)
            assert type(value) is float and value == sc.generating_function(TILTED_X, SIGMA_X_GAME, 1.0)


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

    def test_pure_state_with_tiny_payoff_gap_is_quantum(self):
        # <A> - c cancels here and gave f = 1.0000000827; the exact f is 1.
        pairs = sc.outcome_distribution(PLUS_X, sc.GameObservable(1e-11, 0, 5, 5))
        assert [w for _, w in pairs] == [1.0, 0.0]

    def test_refuses_a_state_exactly_where_quantum_validity_does(self):
        # Just inside the ball test's bound radius^2 <= 1/4 + 1e-9, f = 2|d| exceeded the old bound
        # 1 + 1e-9 on |f|, so a state that quantum_validity and overlap accept was refused.
        a = math.sqrt((0.25 + 0.9e-9) / 2.0)
        inside = sc.ProbabilityTriple(0.5 + a, 0.5 + a, 0.5)
        assert sc.quantum_validity(inside).is_quantum
        outcomes = sc.outcome_distribution(inside, sc.GameObservable(1, 1, 0, 0))
        assert [v for v, _ in outcomes] == [math.sqrt(2), -math.sqrt(2)]
        # A seeded sweep within 1e-8 of the bound, each with payoffs along d: f / 2 = |d|.
        gen = np.random.default_rng(67)
        bound, refused = 0.25 + 1e-9, 0
        for _ in range(2000):
            u = gen.standard_normal(3)
            u /= np.linalg.norm(u)
            point = 0.5 + u * math.sqrt(bound + gen.uniform(-1e-8, 1e-8))
            if not all(0.0 <= v <= 1.0 for v in point):
                continue
            p = sc.ProbabilityTriple(*point.tolist())
            d = [v - 0.5 for v in p.as_tuple()]
            scale, c = 10.0 ** gen.uniform(-3, 3), gen.uniform(-5, 5)
            obs = sc.GameObservable(scale * d[0], scale * d[1], c + scale * d[2], c - scale * d[2])
            report = sc.quantum_validity(p)
            if abs(report.radius_squared - bound) <= 1e-15:
                continue
            try:
                sc.outcome_distribution(p, obs)
            except sc.NonQuantumStateError:
                assert not report.is_quantum, p
                refused += 1
            else:
                assert report.is_quantum, p
        assert 500 < refused < 1500

    def test_flags_non_quantum_state(self):
        corner = sc.ProbabilityTriple(1.0, 1.0, 1.0)
        obs = sc.GameObservable(1, 1, 0, 0)
        with pytest.raises(sc.NonQuantumStateError):
            sc.outcome_distribution(corner, obs)
