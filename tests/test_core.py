"""Tests for the state types and the probability/density-matrix bijection."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spincoins as sc
from oracles import coin_matrix, hermitian_eigenvalues, trace_product

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

    def test_distributions_are_heads_tails_pairs(self):
        dists = sc.ProbabilityTriple(0.2, 0.5, 0.9).distributions()
        assert dists == ((0.2, 0.8), (0.5, 0.5), (0.9, 0.09999999999999998))
        assert all(abs(sum(d) - 1.0) < 1e-15 for d in dists)

    def test_cycled_relabels_axes(self):
        assert sc.ProbabilityTriple(0.1, 0.2, 0.3).cycled() == sc.ProbabilityTriple(0.2, 0.3, 0.1)

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
        with pytest.raises(sc.InvalidProbabilityError, match=f"p1={bad!r} is not a number"):
            sc.ProbabilityTriple(bad, 0.5, 0)
        with pytest.raises(sc.InvalidProbabilityError, match="field 'p1' must be a number"):
            sc.ProbabilityTriple.from_dict({"p1": bad, "p2": 0.5, "p3": 0})

    @pytest.mark.parametrize("huge", [10**400, -(10**5000)], ids=["1e400", "-1e5000"])
    def test_ints_past_the_float_range_name_their_field(self, huge):
        with pytest.raises(sc.InvalidProbabilityError, match=r"^p1 is too large a number to be a coin probability"):
            sc.ProbabilityTriple(huge, 0.5, 0)
        with pytest.raises(sc.InvalidProbabilityError, match="^field 'p1' is too large a number for a float"):
            sc.ProbabilityTriple.from_dict({"p1": huge, "p2": 0.5, "p3": 0})

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


class TestBlochMaps:
    def test_zero_vector_is_ball_center(self):
        assert sc.bloch_to_probs(sc.BlochVector(0, 0, 0)) == sc.ProbabilityTriple(0.5, 0.5, 0.5)

    def test_unit_x_projection(self):
        assert sc.bloch_to_probs(sc.BlochVector(1, 0, 0)) == sc.ProbabilityTriple(1.0, 0.5, 0.5)

    def test_spin_down_along_z(self):
        assert sc.bloch_to_probs(sc.BlochVector(0, 0, -1)) == sc.ProbabilityTriple(0.5, 0.5, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(sc.InvalidBlochVectorError):
            sc.BlochVector(1.5, 0.0, 0.0)

    def test_none_component_names_field(self):
        with pytest.raises(sc.InvalidBlochVectorError, match="x1=None is not a number"):
            sc.BlochVector(None, 0, 0)

    def test_non_numeric_string_names_field(self):
        with pytest.raises(sc.InvalidBlochVectorError, match="x1='a' is not a number"):
            sc.BlochVector("a", 0, 0)

    @pytest.mark.parametrize("bad", ["0.5", True])
    def test_numeric_strings_and_bools_rejected(self, bad):
        with pytest.raises(sc.InvalidBlochVectorError, match=f"x2={bad!r} is not a number"):
            sc.BlochVector(0, bad, 0)
        with pytest.raises(sc.InvalidBlochVectorError, match="field 'x2' must be a number"):
            sc.BlochVector.from_dict({"x1": 0, "x2": bad, "x3": 0})

    def test_ints_past_the_float_range_name_their_field(self):
        with pytest.raises(sc.InvalidBlochVectorError, match="^x2 is too large a number"):
            sc.BlochVector(0, 10**400, 0)
        with pytest.raises(sc.InvalidBlochVectorError, match="^field 'x2' is too large a number"):
            sc.BlochVector.from_dict({"x1": 0, "x2": 10**400, "x3": 0})

    @given(triples)
    def test_maps_are_mutually_inverse(self, p):
        back = sc.bloch_to_probs(sc.probs_to_bloch(p))
        assert back.as_tuple() == pytest.approx(p.as_tuple(), abs=1e-15)


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

    def test_mixed_state_impure_by_both_criteria(self):
        p = sc.ProbabilityTriple(0.5, 0.5, 0.5)
        assert sc.quantum_validity(p).purity_defect == -0.25
        assert sc.probs_to_density(p).purity() == 0.5

    @given(triples)
    def test_purity_defect_invariant_under_cyclic_permutation(self, p):
        defect = sc.quantum_validity(p).purity_defect
        cycled = sc.quantum_validity(p.cycled()).purity_defect
        assert cycled == pytest.approx(defect, abs=1e-12)


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
