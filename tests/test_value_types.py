"""Every public value type is a frozen, slotted dataclass that copies and pickles to an equal value,
and checks each number field it takes."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import re
import struct
import weakref

import numpy as np
import pytest

import spincoins as sc
from spincoins import coinsim

_P = sc.ProbabilityTriple(0.3, 0.8, 0.6)
_OBS = sc.GameObservable(1.0, -0.5, 2.0, 0.25)

EXAMPLES = {
    "ProbabilityTriple": _P,
    "BlochVector": sc.BlochVector(0.1, -0.2, 1.0),
    "DensityMatrix": sc.probs_to_density(_P),
    "ValidityReport": sc.quantum_validity(_P),
    "GameObservable": _OBS,
    "MomentSequence": sc.moments(_P, _OBS, 4),
    "MalevichTriad": sc.side_lengths(_P),
    "ExtremizationResult": sc.maximize_area("ball"),
    "RngSpec": sc.RngSpec(seed=7, stream=2),
    "TossRecord": sc.TossRecord(10, (1, 5, 10)),
    "SampleStats": sc.estimate(sc.TossRecord(10, (1, 5, 10)), _OBS),
}


def test_examples_cover_every_public_value_type():
    public = {name for name in sc.__all__ if dataclasses.is_dataclass(getattr(sc, name, None))}
    assert public == set(EXAMPLES)
    for name, value in EXAMPLES.items():
        assert type(value) is getattr(sc, name)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
class TestValueType:
    def test_is_slotted(self, name):
        value = EXAMPLES[name]
        assert not hasattr(value, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(value)

    def test_pickle_round_trip_is_equal(self, name):
        value = EXAMPLES[name]
        again = pickle.loads(pickle.dumps(value))
        assert type(again) is type(value)
        assert again == value

    def test_deepcopy_is_equal(self, name):
        value = EXAMPLES[name]
        assert copy.deepcopy(value) == value

    def test_every_field_is_frozen(self, name):
        value = EXAMPLES[name]
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))

    def test_takes_no_extra_attribute(self, name):
        # FrozenInstanceError is an AttributeError; Python 3.11 raises TypeError
        # from the generated frozen __setattr__ of a slotted class instead
        with pytest.raises((AttributeError, TypeError)):
            EXAMPLES[name].extra = 1


def test_from_columns_matches_the_checked_constructor():
    columns = ([0.0, -0.0, 1.0, 0.25], [1.0, 0.0, -0.0, 0.5], [-0.0, 1.0, 0.0, 0.75])
    triples = sc.ProbabilityTriple._from_columns(*columns)
    assert len(triples) == 4
    for triple, row in zip(triples, zip(*columns)):
        checked = sc.ProbabilityTriple(*row)
        assert type(triple) is sc.ProbabilityTriple
        assert triple == checked
        assert hash(triple) == hash(checked)
        assert repr(triple) == repr(checked)  # the sign of each zero too
        with pytest.raises(dataclasses.FrozenInstanceError):
            triple.p1 = 0.5


# p = (0, 1/2, 0) leaves signed zeros in its stored matrix; the second matrix
# stores a -0.0 that re-running the constructor's symmetrisation turns into +0.0.
STORED_MATRICES = {
    "p=(0,1/2,0)": sc.probs_to_density(sc.ProbabilityTriple(0.0, 0.5, 0.0)),
    "re-symmetrised-zero": sc.DensityMatrix([[0.5, complex(-0.0, 0.0)], [complex(-0.0, -0.0), 0.5]]),
}
COPIES = {
    "pickle": lambda rho: pickle.loads(pickle.dumps(rho)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("case", sorted(STORED_MATRICES))
def test_density_matrix_copies_are_read_only_with_identical_bytes(case, how):
    rho = STORED_MATRICES[case]
    again = COPIES[how](rho)
    assert type(again) is sc.DensityMatrix
    assert again == rho
    assert again.matrix.tobytes() == rho.matrix.tobytes()
    assert again.matrix.dtype == rho.matrix.dtype and again.matrix.shape == (2, 2)
    assert not again.matrix.flags.writeable
    with pytest.raises(ValueError):
        again.matrix[1, 0] = 5.0


def test_re_running_the_constructor_would_change_a_stored_matrix():
    rho = STORED_MATRICES["re-symmetrised-zero"]
    assert sc.DensityMatrix(rho.matrix).matrix.tobytes() != rho.matrix.tobytes()


class _Float(float):
    pass


# Each input in each field of each checked type, with what the type does with it:
# the value it stores, or the exact message of the error it raises.
FIELD_INPUTS = {
    "float-subclass": _Float(0.25),
    "numpy-float64": np.float64(0.25),
    "int": 1,
    "bool": True,
    "negative-zero": -0.0,
    "nan": math.nan,
}
FLOAT_FIELD_CHECKS = {
    "ProbabilityTriple": (
        sc.ProbabilityTriple, ("p1", "p2", "p3"), 0.5, sc.InvalidProbabilityError,
        "field {name!r} must be a coin probability in [0, 1], got nan",
    ),
    "BlochVector": (
        sc.BlochVector, ("x1", "x2", "x3"), 0.0, sc.InvalidBlochVectorError,
        "field {name!r} must be a mean spin projection in [-1, 1], got nan",
    ),
    "GameObservable": (
        sc.GameObservable, ("x", "y", "z1", "z2"), 0.5, sc.InvalidObservableError, "field {name!r} must be finite, got nan",
    ),
}
STORED_FLOATS = {"float-subclass": 0.25, "numpy-float64": 0.25, "int": 1.0, "negative-zero": -0.0}


@pytest.mark.parametrize("given", sorted(FIELD_INPUTS))
@pytest.mark.parametrize("type_name", sorted(FLOAT_FIELD_CHECKS))
def test_float_fields_accept_refuse_and_store_as_before(type_name, given):
    cls, names, filler, kind, out_of_domain = FLOAT_FIELD_CHECKS[type_name]
    for position, name in enumerate(names):
        args = [filler] * len(names)
        args[position] = FIELD_INPUTS[given]
        if given in STORED_FLOATS:
            value = cls(*args)
            stored = [getattr(value, field) for field in names]
            assert all(type(field) is float for field in stored)
            assert struct.pack("<d", stored[position]) == struct.pack("<d", STORED_FLOATS[given])
            assert value == cls(*(float(arg) for arg in args))
        else:
            message = ("field {name!r} must be a number, got True" if given == "bool" else out_of_domain).format(name=name)
            with pytest.raises(kind, match=f"^{re.escape(message)}$"):
                cls(*args)


# The integer arguments: the name each one's messages use, a call that passes
# it, and the range [low, high] it accepts (high None: no upper bound).
_SPEC = sc.RngSpec(0)
INTEGER_ARGUMENTS = (
    ("n_tosses", lambda value: sc.TossRecord(value, (0, 0, 0)), 1, None),
    ("heads_counts[0]", lambda value: sc.TossRecord(5, (value, 0, 0)), 0, 5),
    ("seed", lambda value: sc.RngSpec(value), 0, 2**64 - 1),
    ("stream", lambda value: sc.RngSpec(0, value), 0, None),
    ("n", lambda value: sc.toss(_P, value, _SPEC), 1, coinsim.MAX_TOSSES),
    ("count", lambda value: sc.sample_states("cube", value, _SPEC), 1, None),
    ("n_samples", lambda value: sc.quantum_fraction(value, _SPEC), 1000, None),
    ("n_max", lambda value: sc.moments(_P, _OBS, value), 0, None),
)
# Inputs that every integer argument refuses, with the exact message each gets.
NON_INTEGER_ERRORS = {
    "float-subclass": "must be an integer, got 0.25",
    "numpy-float64": "must be an integer, got np.float64(0.25)",
    "bool": "must be an integer, got True",
    "negative-zero": "must be an integer, got -0.0",
    "nan": "must be an integer, got nan",
    "numpy-bool": "must be an integer, got np.True_",
    "timedelta64": "must be an integer, got np.timedelta64(1)",
    "string": "must be an integer, got '1'",
}
NON_INTEGERS = {**FIELD_INPUTS, "numpy-bool": np.True_, "timedelta64": np.timedelta64(1), "string": "1"}


@pytest.mark.parametrize("given", sorted([*NON_INTEGER_ERRORS, "int", "numpy-int64", "below-range", "above-range"]))
def test_toss_record_accepts_and_refuses_as_before(given):
    """Every count, seed and order goes through one integer check, with the same three messages."""
    for name, build, low, high in INTEGER_ARGUMENTS:
        if given in ("int", "numpy-int64"):
            # a numpy int is used as the Python int: the results match, repr included
            assert repr(build(np.int64(low) if given == "numpy-int64" else low)) == repr(build(low)), name
            continue
        if given == "below-range":
            value, message = low - 1, f"must be at least {low}, got {low - 1}"
        elif given == "above-range":
            if high is None:
                continue
            value, message = high + 1, f"must be at most {high}, got {high + 1}"
        else:
            value, message = NON_INTEGERS[given], NON_INTEGER_ERRORS[given]
        with pytest.raises(ValueError, match=f"^{re.escape(name)} {re.escape(message)}$"):
            build(value)
