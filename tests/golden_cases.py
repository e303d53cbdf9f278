"""Canonical CLI invocations shared by the golden tests and make_goldens.py.

Each JSON case is (name, argv, schema_def): the golden file is
golden/<name>.json and schema_def names the entry of
schemas/cli_payloads.schema.json that the output must validate against.
SVG cases are (name, state_json, scale) rendered to golden/<name>.svg.
"""

from __future__ import annotations

STATE_BASIS_UP = '{"p1": 0.5, "p2": 0.5, "p3": 1.0}'
STATE_MIXED = '{"p1": 0.5, "p2": 0.5, "p3": 0.5}'
STATE_CLASSICAL_MAX = '{"p1": 0.0, "p2": 0.0, "p3": 0.0}'
STATE_TILTED = '{"p1": 0.75, "p2": 0.5, "p3": 0.5}'
OBS_SIGMA_X = '{"x": 1, "y": 0, "z1": 0, "z2": 0}'
OBS_SIGMA_Z = '{"x": 0, "y": 0, "z1": 1, "z2": -1}'

JSON_CASES: list[tuple[str, list[str], str]] = [
    (
        "validate",
        ["validate", '{"p1": 1, "p2": 1, "p3": 1}'],
        "validity_report",
    ),
    (
        "to_density",
        ["to-density", '{"p1": 1, "p2": 0.5, "p3": 0.5}'],
        "density_matrix",
    ),
    (
        "to_probs",
        ["to-probs", '{"m": [[0.5, 0], [0, -0.5], [0, 0.5], [0.5, 0]]}'],
        "probability_triple",
    ),
    (
        "overlap",
        ["overlap", STATE_BASIS_UP, STATE_MIXED],
        "overlap_result",
    ),
    (
        "area",
        ["area", STATE_CLASSICAL_MAX],
        "area_result",
    ),
    (
        "moments",
        ["moments", "--n", "4", "--state", STATE_TILTED, "--obs", OBS_SIGMA_X],
        "moments_result",
    ),
    (
        "genfun",
        ["genfun", "--lam", "1.0", "--state", STATE_MIXED, "--obs", OBS_SIGMA_Z],
        "genfun_result",
    ),
    (
        "simulate",
        [
            "simulate",
            "--state", STATE_TILTED,
            "--obs", OBS_SIGMA_X,
            "--n-tosses", "1000",
            "--seed", "42",
        ],
        "simulate_result",
    ),
    (
        "sample",
        ["sample", "--region", "ball", "--count", "3", "--seed", "7"],
        "sample_result",
    ),
    (
        "sample_cube",
        ["sample", "--region", "cube", "--count", "3", "--seed", "7"],
        "sample_result",
    ),
    (
        "sample_sphere",
        ["sample", "--region", "sphere", "--count", "3", "--seed", "7"],
        "sample_result",
    ),
    (
        "max_area",
        ["max-area", "--region", "ball"],
        "max_area_result",
    ),
    (
        "quantum_fraction",
        ["quantum-fraction", "--n-samples", "1000", "--seed", "3"],
        "quantum_fraction_result",
    ),
]

SVG_CASES: list[tuple[str, str, str]] = [
    ("render_basis_up", STATE_BASIS_UP, "100"),
    ("render_mixed", STATE_MIXED, "100"),
    ("render_classical_max", STATE_CLASSICAL_MAX, "100"),
]
