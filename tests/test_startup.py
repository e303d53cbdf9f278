"""The scalar entry points, tosses and small cube and ball samples run without importing numpy.

The sphere sampler and quantum-fraction still load it and still work. Each
call's stdout in a fresh process equals the same call made in this one,
where numpy is imported, so the pure-Python stream draws what numpy draws.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys

import numpy  # loaded, so the in-process reference draws through numpy itself
import pytest

from spincoins.cli import run
from spincoins.coinsim import MAX_TOSSES

STATE = '{"p1": 0.5, "p2": 0.75, "p3": 0.5}'
OBS = '{"x": 1, "y": 0, "z1": 1, "z2": -1}'
SKEWED = '{"p1": 0.3, "p2": 0.6, "p3": 0.85}'

# Runs in a fresh interpreter: imports the package or runs one CLI call, then
# prints the exit code, the captured stdout and whether numpy got imported.
PROBE = """
import io, json, sys
argv = json.loads(sys.argv[1])
out = io.StringIO()
if argv is None:
    import spincoins
    code = 0
else:
    from spincoins import cli
    code = cli.run(argv, stdout=out)
print(json.dumps({"code": code, "stdout": out.getvalue(), "numpy": "numpy" in sys.modules}))
"""

SCALAR_CALLS = {
    "import spincoins": (None, 0),
    "validate": (["validate", STATE], 0),
    "overlap": (["overlap", STATE, STATE], 0),
    "area": (["area", STATE], 0),
    "render": (["render", STATE, "--out", "OUT"], 0),
    "moments": (["moments", "--state", STATE, "--obs", OBS, "--n", "4"], 0),
    "genfun": (["genfun", "--state", STATE, "--obs", OBS, "--lam", "0.5"], 0),
    "max-area": (["max-area", "--region", "ball"], 0),
    "to-density": (["to-density", STATE], 0),
    "to-probs": (["to-probs", '{"m": [[0.5, 0], [0, 0.25], [0, -0.25], [0.5, 0]]}'], 0),
    "exit-1": (["validate", '{"p1": 7, "p2": 0, "p3": 0}'], 1),
    "exit-2": (["validate", '{"p1": 0.5,'], 2),
    "simulate": (["simulate", "--state", STATE, "--obs", OBS, "--n-tosses", "100", "--seed", "3"], 0),
    "simulate-inversion": (["simulate", "--state", STATE, "--obs", OBS, "--n-tosses", "40", "--seed", "4"], 0),
    "simulate-most-pure-tosses": (["simulate", "--state", STATE, "--obs", OBS, "--n-tosses", str(MAX_TOSSES), "--seed", "5"], 0),
    "simulate-beyond-max-tosses": (["simulate", "--state", STATE, "--obs", OBS, "--n-tosses", str(MAX_TOSSES + 1)], 1),
    "simulate-skewed-inversion": (["simulate", "--state", SKEWED, "--obs", OBS, "--n-tosses", "20", "--seed", "5"], 0),
    "simulate-skewed-btpe": (["simulate", "--state", SKEWED, "--obs", OBS, "--n-tosses", str(10**6), "--seed", str(2**64 - 1)], 0),
    "sample-ball": (["sample", "--region", "ball", "--count", "3", "--seed", "3"], 0),
    "sample-ball-1000": (["sample", "--region", "ball", "--count", "1000", "--seed", "8"], 0),
    "sample-cube": (["sample", "--region", "cube", "--count", "20", "--seed", str(2**64 - 1)], 0),
    "sample-cube-seed-2-32": (["sample", "--region", "cube", "--count", "20", "--seed", str(2**32)], 0),
    "sample-ball-most-pure-rows": (["sample", "--region", "ball", "--count", "5000", "--seed", "7"], 0),
}

ARRAY_CALLS = {
    "sample": ["sample", "--region", "sphere", "--count", "3", "--seed", "3"],
    "sample-beyond-pure-count": ["sample", "--region", "cube", "--count", "5001", "--seed", "3"],
    "quantum-fraction": ["quantum-fraction", "--n-samples", "1000", "--seed", "3"],
}


def probe(argv: list[str] | None) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)], capture_output=True, text=True, check=True, timeout=120
    )
    return json.loads(result.stdout.splitlines()[-1])


def in_process(argv: list[str]) -> tuple[int, str]:
    assert "numpy" in sys.modules
    buffer = io.StringIO()
    return run(argv, stdout=buffer), buffer.getvalue()


@pytest.mark.parametrize("name", sorted(SCALAR_CALLS))
def test_scalar_entry_points_never_import_numpy(name, tmp_path):
    argv, code = SCALAR_CALLS[name]
    if argv is not None:
        argv = [str(tmp_path / "triad.svg") if arg == "OUT" else arg for arg in argv]
    report = probe(argv)
    assert report["code"] == code
    assert report["numpy"] is False
    if argv is not None:
        assert (report["code"], report["stdout"]) == in_process(argv)


@pytest.mark.parametrize("name", sorted(ARRAY_CALLS))
def test_array_subcommands_import_numpy_and_still_work(name):
    report = probe(ARRAY_CALLS[name])
    assert report["code"] == 0
    assert report["numpy"] is True
    assert report["stdout"]
    assert (report["code"], report["stdout"]) == in_process(ARRAY_CALLS[name])
