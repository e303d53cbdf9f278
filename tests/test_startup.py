"""Each CLI call loads only the library modules its subcommand computes with.

The scalar entry points, tosses and samples of up to 5000 rows in any
region run without importing numpy, and the tosses and samples without
importing ``threading``; quantum-fraction and larger samples load numpy
and still work, and quantum-fraction below 2^17 samples loads no
``numpy.random``. Each call's stdout in a fresh process equals the same
call made in this one, where ``numpy.random`` is imported, so the
pure-Python stream and its vectorised fill draw what numpy draws.
"""

from __future__ import annotations

import functools
import io
import json
import math
import subprocess
import sys

import numpy.random  # loaded, so the in-process reference draws through numpy itself
import pytest

from spincoins.cli import run
from spincoins import RngSpec, coinsim
from spincoins.core import MAX_TOSSES

STATE = '{"p1": 0.5, "p2": 0.75, "p3": 0.5}'
OBS = '{"x": 1, "y": 0, "z1": 1, "z2": -1}'
SKEWED = '{"p1": 0.3, "p2": 0.6, "p3": 0.85}'

# Runs in a fresh interpreter: imports the package or runs one CLI call, then prints the exit code, the
# captured stdout, the spincoins modules loaded, whether numpy and numpy.random got imported and every
# module the call newly imported (those that site or the probe itself had loaded before it are not).
PROBE = """
import io, json, sys
argv = json.loads(sys.argv[1])
out = io.StringIO()
before = set(sys.modules)
if argv is None:
    import spincoins
    code = 0
else:
    from spincoins import cli
    code = cli.run(argv, stdout=out)
modules = sorted(name for name in sys.modules if name.partition(".")[0] == "spincoins")
print(json.dumps({"code": code, "stdout": out.getvalue(), "modules": modules, "numpy": "numpy" in sys.modules,
                  "numpy.random": "numpy.random" in sys.modules, "imported": sorted(set(sys.modules) - before)}))
"""

# The modules a call loads beyond the package, the CLI and core.
CORE: tuple[str, ...] = ()
SUPREMATISM = ("suprematism",)
OBSERVABLES = ("observables",)
TOSS = ("coinsim", "observables", "_pcg64")
PURE_SAMPLE = ("coinsim", "_pcg64")

SCALAR_CALLS = {
    "validate": (["validate", STATE], 0, CORE),
    "overlap": (["overlap", STATE, STATE], 0, CORE),
    "area": (["area", STATE], 0, SUPREMATISM),
    "render": (["render", STATE, "--out", "OUT"], 0, SUPREMATISM),
    "moments": (["moments", "--state", STATE, "--obs", OBS, "--n", "4"], 0, OBSERVABLES),
    "genfun": (["genfun", "--state", STATE, "--obs", OBS, "--lam", "0.5"], 0, OBSERVABLES),
    "max-area": (["max-area", "--region", "ball"], 0, SUPREMATISM),
    "to-density": (["to-density", STATE], 0, CORE),
    "to-probs": (["to-probs", '{"m": [[0.5, 0], [0, 0.25], [0, -0.25], [0.5, 0]]}'], 0, CORE),
    "exit-1": (["validate", '{"p1": 7, "p2": 0, "p3": 0}'], 1, CORE),
    "exit-2": (["validate", '{"p1": 0.5,'], 2, CORE),
    "simulate": (["simulate", "--state", STATE, "--obs", OBS, "--n-tosses", "100", "--seed", "3"], 0, TOSS),
    "simulate-inversion": (["simulate", "--state", STATE, "--obs", OBS, "--n-tosses", "40", "--seed", "4"], 0, TOSS),
    "simulate-most-pure-tosses": (["simulate", "--state", STATE, "--obs", OBS, "--n-tosses", str(MAX_TOSSES), "--seed", "5"], 0, TOSS),
    # refused when --n-tosses is checked, after --obs and --seed have loaded their modules, before any draw
    "simulate-beyond-max-tosses": (["simulate", "--state", STATE, "--obs", OBS, "--n-tosses", str(MAX_TOSSES + 1)], 1, ("coinsim", "observables")),
    "simulate-skewed-inversion": (["simulate", "--state", SKEWED, "--obs", OBS, "--n-tosses", "20", "--seed", "5"], 0, TOSS),
    "simulate-skewed-btpe": (["simulate", "--state", SKEWED, "--obs", OBS, "--n-tosses", str(10**6), "--seed", str(2**64 - 1)], 0, TOSS),
    "sample-ball": (["sample", "--region", "ball", "--count", "3", "--seed", "3"], 0, PURE_SAMPLE),
    "sample-ball-1000": (["sample", "--region", "ball", "--count", "1000", "--seed", "8"], 0, PURE_SAMPLE),
    "sample-cube": (["sample", "--region", "cube", "--count", "20", "--seed", str(2**64 - 1)], 0, PURE_SAMPLE),
    "sample-cube-seed-2-32": (["sample", "--region", "cube", "--count", "20", "--seed", str(2**32)], 0, PURE_SAMPLE),
    "sample-ball-most-pure-rows": (["sample", "--region", "ball", "--count", "5000", "--seed", "7"], 0, PURE_SAMPLE),
    "sample-sphere": (["sample", "--region", "sphere", "--count", "3", "--seed", "3"], 0, PURE_SAMPLE),
    "sample-sphere-most-pure-rows": (["sample", "--region", "sphere", "--count", "5000", "--seed", str(2**64 - 1)], 0, PURE_SAMPLE),
}

# name -> (argv, the modules it loads beyond the package, the CLI and core, whether it imports numpy.random)
ARRAY_CALLS = {
    "sample-beyond-pure-count": (["sample", "--region", "cube", "--count", "5001", "--seed", "3"], ("coinsim",), True),
    "sample-ball-beyond-pure-count": (["sample", "--region", "ball", "--count", "5001", "--seed", "3"], ("coinsim",), True),
    "sample-sphere-beyond-pure-count": (["sample", "--region", "sphere", "--count", "5001", "--seed", "3"], ("coinsim",), True),
    # below two blocks, quantum-fraction fills its rows through the pure stream's uint64 arithmetic
    "quantum-fraction": (["quantum-fraction", "--n-samples", "100000", "--seed", "3"], ("coinsim", "_pcg64"), False),
    "quantum-fraction-fewest": (["quantum-fraction", "--n-samples", "1000", "--seed", "3"], ("coinsim", "_pcg64"), False),
    # the most samples the fill path takes, which end on a partial block
    "quantum-fraction-most-filled": (["quantum-fraction", "--n-samples", str(2**17 - 1), "--seed", "3"], ("coinsim", "_pcg64"), False),
    "quantum-fraction-two-blocks": (["quantum-fraction", "--n-samples", str(2**17), "--seed", "3"], ("coinsim",), True),
}


def probe(argv: list[str] | None) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)], capture_output=True, text=True, check=True, timeout=120
    )
    return json.loads(result.stdout.splitlines()[-1])


@functools.cache
def bare_numpy_imports_random() -> bool:
    """Whether ``import numpy`` alone loads ``numpy.random``, as numpy 1 does; quantum-fraction then draws through it."""
    check = "import sys, numpy; print('numpy.random' in sys.modules)"
    return subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, check=True).stdout.strip() == "True"


def in_process(argv: list[str]) -> tuple[int, str]:
    assert "numpy.random" in sys.modules
    buffer = io.StringIO()
    return run(argv, stdout=buffer), buffer.getvalue()


def loaded(*extra: str) -> list[str]:
    return sorted({"spincoins", "spincoins.cli", "spincoins.core", *(f"spincoins.{name}" for name in extra)})


def test_importing_the_package_loads_no_submodule():
    report = probe(None)
    assert report["modules"] == ["spincoins"]
    assert report["numpy"] is False


@pytest.mark.parametrize("name", sorted(SCALAR_CALLS))
def test_scalar_entry_points_never_import_numpy(name, tmp_path):
    argv, code, extra = SCALAR_CALLS[name]
    argv = [str(tmp_path / "triad.svg") if arg == "OUT" else arg for arg in argv]
    report = probe(argv)
    assert report["code"] == code
    assert report["modules"] == loaded(*extra)
    assert report["numpy"] is False
    if name.startswith(("simulate", "sample")):  # only quantum_fraction starts threads
        assert "threading" not in report["imported"]
    assert (report["code"], report["stdout"]) == in_process(argv)


@pytest.mark.parametrize("name", sorted(ARRAY_CALLS))
def test_array_subcommands_import_numpy_and_still_work(name):
    argv, extra, numpy_random = ARRAY_CALLS[name]
    if bare_numpy_imports_random():
        extra, numpy_random = ("coinsim",), True
    report = probe(argv)
    assert report["code"] == 0
    assert report["modules"] == loaded(*extra)
    assert report["numpy"] is True
    assert report["numpy.random"] is numpy_random
    assert report["stdout"]
    assert (report["code"], report["stdout"]) == in_process(argv)


# Every (count, seed, stream) of the sphere check: one row, two rows and the most the pure stream draws.
SPHERE_CASES = [(count, seed, stream) for count in (1, 2, 5000) for seed in (0, 7, 2**64 - 1) for stream in (0, 3)]

# Runs in a fresh interpreter: prints the sphere rows of each case, and whether numpy got imported.
SPHERE_PROBE = """
import json, sys
from spincoins import RngSpec, coinsim
rows = [[p.as_tuple() for p in coinsim.sample_states("sphere", count, RngSpec(seed, stream))]
        for count, seed, stream in json.loads(sys.argv[1])]
print(json.dumps({"rows": json.dumps(rows), "numpy": "numpy" in sys.modules}))
"""


def test_pure_and_numpy_sphere_rows_are_byte_identical_and_on_the_sphere():
    result = subprocess.run(
        [sys.executable, "-c", SPHERE_PROBE, json.dumps(SPHERE_CASES)], capture_output=True, text=True, check=True, timeout=120
    )
    report = json.loads(result.stdout)
    assert report["numpy"] is False
    rows = [[p.as_tuple() for p in coinsim.sample_states("sphere", count, RngSpec(seed, stream))]
            for count, seed, stream in SPHERE_CASES]
    assert report["rows"] == json.dumps(rows)
    radii = [math.fsum((x - 0.5) ** 2 for x in row) for case in rows for row in case]
    assert len(radii) == 6 * 5003
    assert max(abs(r - 0.25) for r in radii) <= 2**-50
