"""Tests for the state types and the probability/density-matrix bijection."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spincoins as sc
from oracles import (
    coin_matrix,
    cycled,
    hermitian_eigenvalues,
    hermitian_part,
    random_ball_points,
    random_cube_points,
    trace_product,
)

probabilities = st.floats(min_value=0.0, max_value=1.0)
triples = st.builds(sc.ProbabilityTriple, probabilities, probabilities, probabilities)

_directions = st.floats(min_value=-1.0, max_value=1.0)
_radii = st.floats(min_value=0.0, max_value=0.5)


def _ball_triple(u1: float, u2: float, u3: float, radius: float) -> sc.ProbabilityTriple:
    """Quantum-admissible triple at the given radius along direction (u1, u2, u3)."""
    norm = math.sqrt(u1 * u1 + u2 * u2 + u3 * u3)
    if norm == 0.0:
        return sc.ProbabilityTriple(0.5, 0.5, 0.5)
    scale = radius / norm
    components = (0.5 + u1 * scale, 0.5 + u2 * scale, 0.5 + u3 * scale)
    return sc.ProbabilityTriple(*(min(1.0, max(0.0, v)) for v in components))


def quantum_triples() -> st.SearchStrategy[sc.ProbabilityTriple]:
    return st.builds(_ball_triple, _directions, _directions, _directions, _radii)


class TestProbabilityTriple:
    def test_unit_cube_accepted(self):
        p = sc.ProbabilityTriple(0.0, 0.5, 1.0)
        assert p.as_tuple() == (0.0, 0.5, 1.0)

    def test_components_need_not_sum_to_one(self):
        assert sc.ProbabilityTriple(1.0, 1.0, 1.0).as_tuple() == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [(-0.1, 0.5, 0.5), (0.5, 1.2, 0.5), (0.5, 0.5, math.nan)])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(sc.InvalidProbabilityError):
            sc.ProbabilityTriple(*bad)

    def test_dict_round_trip(self):
        p = sc.ProbabilityTriple(0.25, 0.5, 0.75)
        assert sc.ProbabilityTriple.from_dict(p.to_dict()) == p

    def test_from_dict_names_missing_field(self):
        with pytest.raises(sc.InvalidProbabilityError, match="p2"):
            sc.ProbabilityTriple.from_dict({"p1": 0.5, "p3": 0.5})

    def test_from_dict_rejects_non_numeric(self):
        with pytest.raises(sc.InvalidProbabilityError, match="p1"):
            sc.ProbabilityTriple.from_dict({"p1": "half", "p2": 0.5, "p3": 0.5})

    @pytest.mark.parametrize("bad", ["0.5", True, None])
    def test_constructor_and_from_dict_share_one_number_test(self, bad):
        with pytest.raises(sc.InvalidProbabilityError, match=f"^field 'p1' must be a number, got {re.escape(repr(bad))}$"):
            sc.ProbabilityTriple(bad, 0.5, 0)
        with pytest.raises(sc.InvalidProbabilityError, match="field 'p1' must be a number"):
            sc.ProbabilityTriple.from_dict({"p1": bad, "p2": 0.5, "p3": 0})

    @pytest.mark.parametrize("huge", [10**400, -(10**5000)], ids=["1e400", "-1e5000"])
    def test_ints_past_the_float_range_name_their_field(self, huge):
        with pytest.raises(sc.InvalidProbabilityError, match=r"^field 'p1' is too large a number to be a coin probability"):
            sc.ProbabilityTriple(huge, 0.5, 0)
        with pytest.raises(sc.InvalidProbabilityError, match=r"^field 'p1' is too large a number to be a coin probability in \[0, 1\]$"):
            sc.ProbabilityTriple.from_dict({"p1": huge, "p2": 0.5, "p3": 0})

    def test_value_too_long_to_print_names_its_field(self):
        with pytest.raises(sc.InvalidProbabilityError, match="^field 'p1' must be a number, got <list too long to print>$"):
            sc.ProbabilityTriple([10**5000], 0, 0)

    def test_payload_too_long_to_print_names_the_fields(self):
        with pytest.raises(sc.InvalidProbabilityError, match="^expected an object with p1, p2, p3, got <list too long to print>$"):
            sc.ProbabilityTriple.from_dict([10**5000])

    def test_ints_and_numpy_floats_become_floats(self):
        p = sc.ProbabilityTriple(1, np.float32(0.5), np.float64(0.25))
        assert p.as_tuple() == (1.0, 0.5, 0.25)
        assert all(type(v) is float for v in p.as_tuple())


class TestDensityMatrix:
    def test_wrong_shape_rejected(self):
        with pytest.raises(sc.InvalidDensityMatrixError):
            sc.DensityMatrix(np.eye(3, dtype=complex))

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.3], [0.3 + 1e-8j, 0.5]], dtype=complex)
        with pytest.raises(sc.InvalidDensityMatrixError, match="Hermitian"):
            sc.DensityMatrix(m)

    def test_non_unit_trace_rejected(self):
        with pytest.raises(sc.InvalidDensityMatrixError, match="trace"):
            sc.DensityMatrix(np.array([[0.6, 0.0], [0.0, 0.5]], dtype=complex))

    def test_non_finite_rejected(self):
        with pytest.raises(sc.InvalidDensityMatrixError):
            sc.DensityMatrix(np.array([[math.inf, 0.0], [0.0, 1.0]], dtype=complex))

    def test_non_finite_hermitian_part_rejected(self):
        with pytest.raises(sc.InvalidDensityMatrixError, match="'m' .* non-finite Hermitian part"):
            sc.DensityMatrix([[0.5, 1e308], [1e308, 0.5]])

    def test_largest_finite_hermitian_part_accepted(self):
        rho = sc.DensityMatrix([[0.5, 8e307], [8e307, 0.5]])
        assert rho.matrix[0, 1] == rho.matrix[1, 0] == 8e307

    def test_sub_tolerance_asymmetry_is_symmetrized(self):
        m = np.array([[0.5, 0.1], [0.1 + 8e-11j, 0.5]], dtype=complex)
        rho = sc.DensityMatrix(m)
        assert rho.matrix[0, 1] == rho.matrix[1, 0].conjugate()
        assert rho.matrix[0, 0].imag == 0.0

    def test_matrix_is_read_only(self):
        rho = sc.probs_to_density(sc.ProbabilityTriple(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0

    @given(triples)
    @example(sc.ProbabilityTriple(0.0, 0.5, 0.0))  # a zero imaginary part whose sign symmetrising flips
    def test_trusted_matrix_is_bit_identical_to_validated_one(self, p):
        rho = sc.probs_to_density(p)
        validated = sc.DensityMatrix(coin_matrix(*p.as_tuple()))
        assert rho.matrix.tobytes() == validated.matrix.tobytes()
        assert not rho.matrix.flags.writeable

    def test_dict_round_trip(self):
        rho = sc.probs_to_density(sc.ProbabilityTriple(0.3, 0.8, 0.6))
        again = sc.DensityMatrix.from_dict(rho.to_dict())
        assert again == rho

    def test_from_dict_names_field(self):
        with pytest.raises(sc.InvalidDensityMatrixError, match="'m'"):
            sc.DensityMatrix.from_dict({"matrix": []})
        with pytest.raises(sc.InvalidDensityMatrixError, match="'m'"):
            sc.DensityMatrix.from_dict({"m": [[1, 0], [0, 0], [0, 0]]})

    @pytest.mark.parametrize(
        "pair,message",
        [
            ([True, 0], r"must be a number, got True$"),
            (["0.5", 0], r"must be a number, got '0\.5'$"),
            ([10**400, 0], "is too large a number to be a matrix entry$"),
            ([0, 10**400], "is too large a number to be a matrix entry$"),
        ],
        ids=["bool", "string", "1e400-re", "1e400-im"],
    )
    def test_from_dict_rejects_entries_that_are_not_finite_numbers(self, pair, message):
        with pytest.raises(sc.InvalidDensityMatrixError, match="^field 'm' " + message):
            sc.DensityMatrix.from_dict({"m": [[0.5, 0], pair, [0, 0], [0.5, 0]]})

    def test_from_dict_entry_too_long_to_print_names_field(self):
        with pytest.raises(sc.InvalidDensityMatrixError, match="^field 'm' is too large a number to be a matrix entry$"):
            sc.DensityMatrix.from_dict({"m": [[10**5000, "x"], [0, 0], [0, 0], [1, 0]]})
        with pytest.raises(sc.InvalidDensityMatrixError, match="^field 'm' must be a number, got 'x'$"):
            sc.DensityMatrix.from_dict({"m": [["x", 10**5000], [0, 0], [0, 0], [1, 0]]})


def _hex(entries) -> list[tuple[str, str]]:
    """(re, im) of each entry by float.hex, so a last bit or the sign of a zero counts."""
    return [(float(v.real).hex(), float(v.imag).hex()) for v in entries]


# Parts at the edges of the float range: signed zeros, the least subnormal,
# a tiny normal, and off-diagonal parts whose doubled sums reach 1.6e308 or overflow.
EDGE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.5, -0.5, 1.0, 8e307, -8e307, 1e308, -1e308]
SMALL_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]


def _edge_matrices(count: int, seed: int):
    """Seeded nested lists of unit-trace, nearly Hermitian matrices with parts drawn mostly from EDGE_PARTS."""
    rng = random.Random(seed)

    def part() -> float:
        return rng.choice(EDGE_PARTS) if rng.random() < 0.7 else rng.uniform(-1.0, 1.0)

    def twin(x: float) -> float:  # x, the other signed zero if x is a zero, or the next float up
        return rng.choice([x, -x if x == 0.0 else x, math.nextafter(x, math.inf)])

    for _ in range(count):
        diagonal, x, y = part(), part(), part()
        a = complex(diagonal, rng.choice(SMALL_PARTS))
        d = complex(1.0 - diagonal, rng.choice(SMALL_PARTS))
        b, c = complex(x, y), complex(twin(x), twin(-y))
        # half the entries with a +0.0 imaginary part pass as floats, as probs_to_density's diagonal does
        real = [v.real if v.imag.hex() == "0x0.0p+0" and rng.random() < 0.5 else v for v in (a, b, c, d)]
        yield [real[:2], real[2:]]


class TestStoredEntries:
    """The constructor stores numpy's (m + m^H) / 2 in Python complexes, byte for byte."""

    def test_edge_sweep_matches_the_numpy_hermitian_part(self):
        accepted = 0
        for m in _edge_matrices(6000, seed=11):
            try:
                rho = sc.DensityMatrix(m)
            except sc.InvalidDensityMatrixError:
                continue  # not Hermitian, not of unit trace, or overflowing; the checks are tested elsewhere
            accepted += 1
            expected = hermitian_part(m)
            assert _hex(rho.entries) == _hex(expected.reshape(-1)), m
            assert rho.matrix.tobytes() == expected.tobytes()
            assert _hex(sc.DensityMatrix(np.array(m, dtype=complex)).entries) == _hex(rho.entries)
        assert accepted >= 1500

    @given(
        diagonal=st.floats(-1e3, 1e3),
        x=st.floats(-8e307, 8e307),
        y=st.floats(-8e307, 8e307),
        small=st.lists(st.sampled_from(SMALL_PARTS) | st.floats(-1e-11, 1e-11), min_size=4, max_size=4),
    )
    @example(diagonal=0.0, x=-0.5, y=0.0, small=[0.0, -0.0, 0.0, 0.0])  # p = (0, 1/2, 0)
    @example(diagonal=0.5, x=-0.0, y=0.0, small=[0.0, 0.0, -0.0, -0.0])
    def test_matches_the_numpy_hermitian_part(self, diagonal, x, y, small):
        ai, di, dx, dy = small
        m = [[complex(diagonal, ai), complex(x, y)], [complex(x + dx, dy - y), complex(1.0 - diagonal, di)]]
        rho = sc.DensityMatrix(m)
        assert _hex(rho.entries) == _hex(hermitian_part(m).reshape(-1))

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[1, 0], [0, 0]]),
            np.array([[2, -3], [-3, -1]], dtype=np.int8),
            np.array([[0.25, -0.0], [-0.0, 0.75]]),
            np.array([[1e-300, 5e-324], [5e-324, 1.0]]),
            np.array([[0.5, -0.25j], [0.25j, 0.5]], dtype=np.complex64),
            np.array([[complex(0.5, -0.0), complex(-0.0, -0.0)], [complex(-0.0, 0.0), 0.5]], dtype=np.complex64),
            np.array([[0.5, 8e307 + 1e-300j], [8e307 - 1e-300j, 0.5]]),
        ],
        ids=["int", "int8", "float-signed-zeros", "float-subnormal", "complex64", "complex64-signed-zeros", "complex128-8e307"],
    )
    def test_array_inputs_match_the_numpy_hermitian_part(self, matrix):
        rho = sc.DensityMatrix(matrix)
        assert _hex(rho.entries) == _hex(hermitian_part(matrix).reshape(-1))
        assert all(type(v) is complex for v in rho.entries)

    @pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")
    def test_np_matrix_input_matches_the_numpy_hermitian_part(self):
        matrix = np.matrix([[0.5, complex(-0.0, 0.5)], [complex(-0.0, -0.5), 0.5]])
        rho = sc.DensityMatrix(matrix)
        assert _hex(rho.entries) == _hex(hermitian_part(matrix).reshape(-1))

    def test_matrix_builds_a_new_read_only_array_on_each_access(self):
        rho = sc.probs_to_density(sc.ProbabilityTriple(0.3, 0.8, 0.6))
        first, second = rho.matrix, rho.matrix
        assert first is not second
        assert first.dtype == np.complex128 and first.shape == (2, 2)
        assert not first.flags.writeable and not second.flags.writeable
        assert first.tobytes() == second.tobytes() == np.array(rho.entries).reshape(2, 2).tobytes()


class TestProbsToDensity:
    def test_spin_up_basis_state(self):
        rho = sc.probs_to_density(sc.ProbabilityTriple(0.5, 0.5, 1.0))
        assert np.array_equal(rho.matrix, np.array([[1, 0], [0, 0]], dtype=complex))

    def test_plus_x_projector(self):
        rho = sc.probs_to_density(sc.ProbabilityTriple(1.0, 0.5, 0.5))
        assert np.array_equal(rho.matrix, np.full((2, 2), 0.5, dtype=complex))

    def test_classical_corner_is_indefinite(self):
        rho = sc.probs_to_density(sc.ProbabilityTriple(1.0, 1.0, 1.0))
        expected = np.array([[1.0, 0.5 - 0.5j], [0.5 + 0.5j, 0.0]], dtype=complex)
        assert np.allclose(rho.matrix, expected, atol=0)
        low, high = hermitian_eigenvalues(rho.matrix)
        assert low == pytest.approx(0.5 - math.sqrt(3) / 2, abs=1e-12)
        assert high == pytest.approx(0.5 + math.sqrt(3) / 2, abs=1e-12)
        assert low < 0


class TestDensityToProbs:
    def test_spin_up_inverse(self):
        p = sc.density_to_probs(np.array([[1, 0], [0, 0]], dtype=complex))
        assert p == sc.ProbabilityTriple(0.5, 0.5, 1.0)

    def test_plus_y_projector(self):
        p = sc.density_to_probs(np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex))
        assert p == sc.ProbabilityTriple(0.5, 1.0, 0.5)

    def test_maximally_mixed(self):
        p = sc.density_to_probs(np.eye(2, dtype=complex) / 2.0)
        assert p == sc.ProbabilityTriple(0.5, 0.5, 0.5)

    def test_rejects_non_hermitian_array(self):
        with pytest.raises(sc.InvalidDensityMatrixError):
            sc.density_to_probs(np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex))

    def test_passes_python_floats_to_the_triple(self):
        with pytest.raises(sc.InvalidDensityMatrixError, match=r"got 1\.4$"):
            sc.density_to_probs([[0.5, 0.9], [0.9, 0.5]])


class TestQuantumValidity:
    def test_ball_center(self):
        report = sc.quantum_validity(sc.ProbabilityTriple(0.5, 0.5, 0.5))
        assert report.radius_squared == 0.0
        assert report.is_quantum
        assert report.eigenvalues == (0.5, 0.5)

    def test_classical_corner(self):
        report = sc.quantum_validity(sc.ProbabilityTriple(1.0, 1.0, 1.0))
        assert report.radius_squared == pytest.approx(0.75, abs=0)
        assert not report.is_quantum
        assert report.eigenvalues[0] == pytest.approx(0.5 - math.sqrt(3) / 2, abs=1e-15)

    def test_pure_state_on_sphere(self):
        report = sc.quantum_validity(sc.ProbabilityTriple(1.0, 0.5, 0.5))
        assert report.radius_squared == pytest.approx(0.25, abs=0)
        assert report.is_quantum
        assert report.purity_defect == pytest.approx(0.0, abs=0)

    @given(triples)
    def test_eigenvalues_sum_to_one(self, p):
        low, high = sc.quantum_validity(p).eigenvalues
        assert low + high == pytest.approx(1.0, abs=1e-12)


class TestOverlap:
    def test_pure_state_with_itself(self):
        p = sc.ProbabilityTriple(0.5, 0.5, 1.0)
        assert sc.overlap(p, p) == 1.0

    def test_orthogonal_basis_states(self):
        up = sc.ProbabilityTriple(0.5, 0.5, 1.0)
        down = sc.ProbabilityTriple(0.5, 0.5, 0.0)
        assert sc.overlap(up, down) == 0.0

    def test_maximally_mixed_self_overlap_is_half(self):
        mixed = sc.ProbabilityTriple(0.5, 0.5, 0.5)
        assert sc.overlap(mixed, mixed) == 0.5

    def test_rejects_non_quantum_input(self):
        corner = sc.ProbabilityTriple(1.0, 1.0, 1.0)
        mixed = sc.ProbabilityTriple(0.5, 0.5, 0.5)
        with pytest.raises(sc.NonQuantumStateError):
            sc.overlap(corner, mixed)
        with pytest.raises(sc.NonQuantumStateError):
            sc.overlap(mixed, corner)

    def test_ball_test_at_the_boundary_is_that_of_quantum_validity(self):
        # p1 steps one ulp at a time while radius_squared crosses 0.25 + 1e-9, the
        # ball test's bound, so it takes the float below, at and above the bound.
        bound = 0.25 + 1e-9
        wanted = {math.nextafter(bound, 0.0), bound, math.nextafter(bound, 1.0)}
        p1 = math.nextafter(0.5 + math.sqrt(0.125 + 1e-9), 0.0)
        for _ in range(40):
            p1 = math.nextafter(p1, 0.0)
        triples = {}
        for _ in range(80):
            triple = sc.ProbabilityTriple(p1, 0.75, 0.75)
            triples.setdefault(sc.quantum_validity(triple).radius_squared, triple)
            p1 = math.nextafter(p1, 1.0)
        assert wanted <= set(triples)
        mixed = sc.ProbabilityTriple(0.5, 0.5, 0.5)
        for radius_squared in sorted(wanted):
            triple = triples[radius_squared]
            quantum = sc.quantum_validity(triple).is_quantum
            assert quantum == (radius_squared <= bound)
            for name, args in (("p", (triple, mixed)), ("q", (mixed, triple))):
                if quantum:
                    assert sc.overlap(*args) == 0.5
                    continue
                message = (
                    f"{name}={triple.as_tuple()} is outside the quantum ball "
                    f"(radius_squared={radius_squared!r} > 0.25)"
                )
                with pytest.raises(sc.NonQuantumStateError, match=f"^{re.escape(message)}$"):
                    sc.overlap(*args)


class TestBlochMaps:
    def test_zero_vector_is_ball_center(self):
        assert sc.bloch_to_probs(sc.BlochVector(0, 0, 0)) == sc.ProbabilityTriple(0.5, 0.5, 0.5)

    def test_unit_x_projection(self):
        assert sc.bloch_to_probs(sc.BlochVector(1, 0, 0)) == sc.ProbabilityTriple(1.0, 0.5, 0.5)

    def test_spin_down_along_z(self):
        assert sc.bloch_to_probs(sc.BlochVector(0, 0, -1)) == sc.ProbabilityTriple(0.5, 0.5, 0.0)

    def test_as_tuple_reads_x_equal_to_2p_minus_1(self):
        assert sc.probs_to_bloch(sc.ProbabilityTriple(1, 0.5, 0.25)).as_tuple() == (1.0, 0.0, -0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(sc.InvalidBlochVectorError):
            sc.BlochVector(1.5, 0.0, 0.0)

    def test_none_component_names_field(self):
        with pytest.raises(sc.InvalidBlochVectorError, match="^field 'x1' must be a number, got None$"):
            sc.BlochVector(None, 0, 0)

    def test_non_numeric_string_names_field(self):
        with pytest.raises(sc.InvalidBlochVectorError, match="^field 'x1' must be a number, got 'a'$"):
            sc.BlochVector("a", 0, 0)

    @pytest.mark.parametrize("bad", ["0.5", True])
    def test_numeric_strings_and_bools_rejected(self, bad):
        with pytest.raises(sc.InvalidBlochVectorError, match=f"^field 'x2' must be a number, got {re.escape(repr(bad))}$"):
            sc.BlochVector(0, bad, 0)
        with pytest.raises(sc.InvalidBlochVectorError, match="field 'x2' must be a number"):
            sc.BlochVector.from_dict({"x1": 0, "x2": bad, "x3": 0})

    def test_ints_past_the_float_range_name_their_field(self):
        with pytest.raises(sc.InvalidBlochVectorError, match="^field 'x2' is too large a number"):
            sc.BlochVector(0, 10**400, 0)
        with pytest.raises(sc.InvalidBlochVectorError, match="^field 'x2' is too large a number"):
            sc.BlochVector.from_dict({"x1": 0, "x2": 10**400, "x3": 0})

    @given(triples)
    def test_maps_are_mutually_inverse(self, p):
        back = sc.bloch_to_probs(sc.probs_to_bloch(p))
        assert back.as_tuple() == pytest.approx(p.as_tuple(), abs=1e-15)


HOSTILE = {
    "none": None,
    "bool": True,
    "numpy-bool": np.True_,
    "str": "0.5",
    "list": [0.5],
    "dict": {"v": 0.5},
    "1e400": 10**400,
    "list-1e5000": [10**5000],
    "nan": math.nan,
    "inf": math.inf,
    "int64": np.int64(0),
    "float32": np.float32(0.5),
    "complex64": np.complex64(0.5),
    "timedelta": np.timedelta64(1, "D"),
}
SCALAR_VALUE_TYPES = [
    (sc.ProbabilityTriple, {"p1": 0.5, "p2": 0.5, "p3": 0.5}, sc.InvalidProbabilityError),
    (sc.BlochVector, {"x1": 0.0, "x2": 0.0, "x3": 0.0}, sc.InvalidBlochVectorError),
    (sc.GameObservable, {"x": 1.0, "y": 0.0, "z1": 0.0, "z2": 0.0}, sc.InvalidObservableError),
]
SPIN_UP_MATRIX = np.array([[1, 0], [0, 0]], dtype=complex)


def _returns_or_names_field(kind, name, call, *args, **kwargs):
    """Call; a value is fine, and so is ``kind`` naming ``name``; any other exception fails the test."""
    try:
        call(*args, **kwargs)
    except kind as error:
        assert f"field {name!r}" in str(error)


class TestHostileInput:
    @pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE.keys())
    @pytest.mark.parametrize("cls,fields,kind", SCALAR_VALUE_TYPES, ids=["triple", "bloch", "observable"])
    def test_scalar_value_types_return_or_name_the_field(self, cls, fields, kind, value):
        for name in fields:
            payload = {**fields, name: value}
            _returns_or_names_field(kind, name, cls, **payload)
            _returns_or_names_field(kind, name, cls.from_dict, payload)

    @pytest.mark.parametrize(
        "cls,fields,kind",
        [*SCALAR_VALUE_TYPES, (sc.DensityMatrix, {"m": [[1, 0], [0, 0], [0, 0], [0, 0]]}, sc.InvalidDensityMatrixError)],
        ids=["triple", "bloch", "observable", "matrix"],
    )
    def test_from_dict_names_the_first_unexpected_field(self, cls, fields, kind):
        assert cls.from_dict(fields) == cls.from_dict(dict(reversed(fields.items())))
        with pytest.raises(kind, match="^unexpected field 'spin'$"):
            cls.from_dict({**fields, "spin": 0.5, "p4": 1})
        with pytest.raises(kind, match="^unexpected field 10$"):
            cls.from_dict({10: 0.5, **fields})
        with pytest.raises(kind, match=r"^unexpected field 'ssssssssssssssssssss'\.\.\. \(100000 characters\)$"):
            cls.from_dict({**fields, "s" * 10**5: 0.5})

    @pytest.mark.parametrize(
        "value", [*HOSTILE.values(), [[1, 2], [3]], np.eye(3)], ids=[*HOSTILE.keys(), "ragged", "3x3"]
    )
    def test_density_matrix_returns_or_names_the_field(self, value):
        for call, arg in (
            (sc.DensityMatrix, value),
            (sc.density_to_probs, value),
            (sc.DensityMatrix, [[0.5, value], [value, 0.5]]),
            (sc.DensityMatrix.from_dict, {"m": value}),
            (sc.DensityMatrix.from_dict, {"m": [[0.5, 0], [value, 0], [value, 0], [0.5, 0]]}),
        ):
            _returns_or_names_field(sc.InvalidDensityMatrixError, "m", call, arg)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[True, 0], [0, 0]],
            [[0.5, 0], [0, "0.5"]],
            [[10**400, 0], [0, 0]],
            "ab",
            [[1, 2], [3]],
            np.array([[True, False], [False, False]]),
            [b"\x01\x00", b"\x00\x00"],
            {(1, 0): 0, (0, 0): 0},
            [{1, 0}, {0, 1}],
            np.array([[1, 0], [0, 0]], dtype="m8[ns]"),
        ],
        ids=["bool", "str-entry", "1e400", "str", "ragged", "bool-array", "bytes-rows", "dict", "set-rows", "timedelta-array"],
    )
    def test_matrices_of_non_numbers_are_rejected_naming_the_field(self, matrix):
        for call in (sc.DensityMatrix, sc.density_to_probs):
            with pytest.raises(sc.InvalidDensityMatrixError, match="^field 'm' "):
                call(matrix)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[1, 0], [0, 0]]),
            SPIN_UP_MATRIX.astype(np.complex64),
            SPIN_UP_MATRIX,
            [[np.int64(1), np.int64(0)], [np.int64(0), np.int64(0)]],
        ],
        ids=["int-array", "complex64-array", "complex128-array", "int64-list"],
    )
    def test_numeric_matrices_stay_accepted(self, matrix):
        assert sc.DensityMatrix(matrix).matrix.tobytes() == sc.DensityMatrix(SPIN_UP_MATRIX).matrix.tobytes()
        assert sc.density_to_probs(matrix) == sc.ProbabilityTriple(0.5, 0.5, 1.0)

    @pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")
    def test_np_matrix_is_read_as_its_array(self):
        self.test_numeric_matrices_stay_accepted(np.matrix([[1, 0], [0, 0]]))

    def test_numpy_ints_are_numbers(self):
        p = sc.ProbabilityTriple(np.int64(1), np.uint8(0), np.int32(1))
        assert p.as_tuple() == (1.0, 0.0, 1.0)
        assert all(type(v) is float for v in p.as_tuple())


class TestRoundTripBijection:
    @given(triples)
    def test_probs_density_probs(self, p):
        back = sc.density_to_probs(sc.probs_to_density(p))
        assert back.as_tuple() == pytest.approx(p.as_tuple(), abs=1e-12)

    @given(triples)
    def test_density_probs_density(self, p):
        rho = sc.probs_to_density(p)
        again = sc.probs_to_density(sc.density_to_probs(rho))
        assert np.max(np.abs(again.matrix - rho.matrix)) <= 1e-12


class TestPositivityEquivalence:
    @given(triples)
    @settings(max_examples=300)
    def test_ball_membership_matches_eigenvalue_sign(self, p):
        report = sc.quantum_validity(p)
        # Stay off the decision boundary itself; the two thresholds are
        # consistent only up to an O(1e-18) sliver there.
        assume(abs(report.radius_squared - (0.25 + 1e-9)) > 1e-12)
        low, _ = hermitian_eigenvalues(coin_matrix(*p.as_tuple()))
        assert report.is_quantum == (low >= -1e-9)

    @given(triples)
    def test_reported_eigenvalues_match_oracle(self, p):
        report = sc.quantum_validity(p)
        oracle = hermitian_eigenvalues(coin_matrix(*p.as_tuple()))
        assert report.eigenvalues == pytest.approx(oracle, abs=1e-12)


class TestPurityEquivalence:
    @given(triples)
    def test_trace_purity_identity(self, p):
        # Tr(rho^2) - 1 equals exactly twice the purity defect; this single
        # identity ties the two purity criteria together.
        rho = coin_matrix(*p.as_tuple())
        defect = sc.quantum_validity(p).purity_defect
        assert trace_product(rho, rho) - 1.0 == pytest.approx(2.0 * defect, abs=2e-14)

    def test_sphere_states_are_pure_by_both_criteria(self):
        gen = np.random.default_rng(11)
        for _ in range(200):
            direction = gen.standard_normal(3)
            point = 0.5 + direction / (2.0 * np.linalg.norm(direction))
            p = sc.ProbabilityTriple(*point)
            assert abs(sc.quantum_validity(p).purity_defect) <= 1e-12
            rho = coin_matrix(*p.as_tuple())
            assert abs(trace_product(rho, rho) - 1.0) <= 1e-9

    def test_purity_against_exact_fractions(self):
        # purity() sums a^2 + d^2 + 2|b|^2 of the stored entries in floats. Against
        # the exact sum of the same entries, the largest error over this sweep is
        # 2.56e-16 (np.trace(m @ m) reached 2.94e-16); the bound is one ulp at 2,
        # the purity of the cube corner (1, 1, 1).
        gen = np.random.default_rng(5)
        points = np.vstack([random_cube_points(gen, 4000), random_ball_points(gen, 4000)])
        worst = Fraction(0)
        for p in points.tolist():
            rho = sc.probs_to_density(sc.ProbabilityTriple(*p))
            a, b, _, d = rho.entries
            re, im = Fraction(b.real), Fraction(b.imag)
            exact = Fraction(a.real) ** 2 + Fraction(d.real) ** 2 + 2 * (re * re + im * im)
            worst = max(worst, abs(Fraction(rho.purity()) - exact))
        assert worst <= 2 * 2.0**-52

    def test_mixed_state_impure_by_both_criteria(self):
        p = sc.ProbabilityTriple(0.5, 0.5, 0.5)
        assert sc.quantum_validity(p).purity_defect == -0.25
        assert sc.probs_to_density(p).purity() == 0.5

    @given(triples)
    def test_purity_defect_invariant_under_cyclic_permutation(self, p):
        defect = sc.quantum_validity(p).purity_defect
        assert sc.quantum_validity(cycled(p)).purity_defect == pytest.approx(defect, abs=1e-12)


class TestOverlapProperties:
    @given(quantum_triples(), quantum_triples())
    @settings(max_examples=300)
    def test_matches_trace_oracle(self, p, q):
        oracle = trace_product(coin_matrix(*p.as_tuple()), coin_matrix(*q.as_tuple()))
        assert sc.overlap(p, q) == pytest.approx(oracle, abs=1e-12)

    @given(quantum_triples(), quantum_triples())
    def test_symmetric(self, p, q):
        assert sc.overlap(p, q) == pytest.approx(sc.overlap(q, p), abs=1e-15)

    @given(quantum_triples())
    def test_self_overlap_in_purity_range(self, p):
        value = sc.overlap(p, p)
        assert 0.5 - 1e-9 <= value <= 1.0 + 1e-9
