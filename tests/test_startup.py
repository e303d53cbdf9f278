"""The scalar entry points run without importing numpy; the array paths still load it and still work."""

from __future__ import annotations

import io
import json
import subprocess
import sys

import pytest

from spincoins.cli import run

STATE = '{"p1": 0.5, "p2": 0.75, "p3": 0.5}'
OBS = '{"x": 1, "y": 0, "z1": 1, "z2": -1}'

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
    "exit-1": (["validate", '{"p1": 7, "p2": 0, "p3": 0}'], 1),
    "exit-2": (["validate", '{"p1": 0.5,'], 2),
}

ARRAY_CALLS = {
    "to-density": ["to-density", STATE],
    "to-probs": ["to-probs", '{"m": [[0.5, 0], [0, 0.25], [0, -0.25], [0.5, 0]]}'],
    "simulate": ["simulate", "--state", STATE, "--obs", OBS, "--n-tosses", "100", "--seed", "3"],
    "sample": ["sample", "--region", "ball", "--count", "3", "--seed", "3"],
    "quantum-fraction": ["quantum-fraction", "--n-samples", "1000", "--seed", "3"],
}


def probe(argv: list[str] | None) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)], capture_output=True, text=True, check=True, timeout=120
    )
    return json.loads(result.stdout.splitlines()[-1])


def in_process(argv: list[str]) -> tuple[int, str]:
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
