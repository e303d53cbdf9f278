"""Tests for the command-line front end: payloads, exit codes, golden files."""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from golden_cases import JSON_CASES, SVG_CASES, STATE_MIXED, STATE_TILTED, OBS_SIGMA_X
from spincoins import coinsim
from spincoins.cli import DEFAULT_SEED, MAX_MOMENT_ORDER, MAX_QF_SAMPLES, MAX_SAMPLE_COUNT, SEED_ENV_VAR, run

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schemas" / "cli_payloads.schema.json"


def run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    code = run(argv, stdout=buffer)
    return code, buffer.getvalue()


class TestSubcommands:
    def test_validate_classical_corner(self):
        code, out = run_cli(["validate", '{"p1": 1, "p2": 1, "p3": 1}'])
        assert code == 0
        payload = json.loads(out)
        assert payload["is_quantum"] is False
        assert payload["radius_squared"] == 0.75

    def test_area_classical_maximum(self):
        code, out = run_cli(["area", '{"p1": 0, "p2": 0, "p3": 0}'])
        assert code == 0
        assert json.loads(out)["area_sum"] == pytest.approx(6.0, abs=1e-12)

    def test_moments_alternating_sequence(self):
        code, out = run_cli(
            ["moments", "--n", "4", "--state", STATE_TILTED, "--obs", OBS_SIGMA_X]
        )
        assert code == 0
        assert json.loads(out)["moments"] == [1, 0.5, 1, 0.5, 1]

    def test_genfun_at_ball_center(self):
        code, out = run_cli(
            ["genfun", "--lam", "1.0", "--state", STATE_MIXED,
             "--obs", '{"x": 0, "y": 0, "z1": 1, "z2": -1}']
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.cosh(1.0), abs=1e-12)

    def test_to_density_to_probs_round_trip(self):
        state = '{"p1": 0.3, "p2": 0.8, "p3": 0.6}'
        code, density_out = run_cli(["to-density", state])
        assert code == 0
        code, probs_out = run_cli(["to-probs", density_out])
        assert code == 0
        recovered = json.loads(probs_out)
        for key, expected in (("p1", 0.3), ("p2", 0.8), ("p3", 0.6)):
            assert recovered[key] == pytest.approx(expected, abs=1e-12)

    def test_overlap_of_mixed_with_itself(self):
        code, out = run_cli(["overlap", STATE_MIXED, STATE_MIXED])
        assert code == 0
        assert json.loads(out)["overlap"] == 0.5

    def test_sample_ball_states_are_quantum(self):
        code, out = run_cli(["sample", "--region", "ball", "--count", "5", "--seed", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["algorithm"] == "pcg64"
        for state in payload["states"]:
            offsets = [(state[k] - 0.5) ** 2 for k in ("p1", "p2", "p3")]
            assert sum(offsets) <= 0.25 + 1e-9

    def test_max_area_cube(self):
        code, out = run_cli(["max-area", "--region", "cube"])
        assert code == 0
        assert json.loads(out)["best_value"] == pytest.approx(6.0, abs=1e-6)

    def test_quantum_fraction_in_range(self):
        code, out = run_cli(["quantum-fraction", "--n-samples", "2000", "--seed", "0"])
        assert code == 0
        assert 0.0 <= json.loads(out)["fraction"] <= 1.0

    def test_simulate_reports_rng_spec(self):
        code, out = run_cli(
            ["simulate", "--state", STATE_MIXED, "--obs", OBS_SIGMA_X,
             "--n-tosses", "100", "--seed", "5"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 5
        assert payload["algorithm"] == "pcg64"
        assert payload["mean_total"] == payload["mean_x"] + payload["mean_y"] + payload["mean_z"]

    def test_state_argument_accepts_file_path(self, tmp_path):
        state_file = tmp_path / "state.json"
        state_file.write_text(STATE_MIXED, encoding="utf-8")
        code, out = run_cli(["validate", str(state_file)])
        assert code == 0
        assert json.loads(out)["is_quantum"] is True

    def test_render_writes_svg_file(self, tmp_path):
        out_path = tmp_path / "triad.svg"
        code, out = run_cli(["render", STATE_MIXED, "--out", str(out_path)])
        assert code == 0
        assert out == ""
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("<?xml")
        assert text.count("<rect") == 3


class TestExitCodes:
    def test_domain_error_invalid_probability(self, capsys):
        code, _ = run_cli(["validate", '{"p1": 2, "p2": 0.5, "p3": 0.5}'])
        assert code == 1
        assert "p1" in capsys.readouterr().err

    def test_domain_error_non_hermitian_matrix(self, capsys):
        code, _ = run_cli(["to-probs", '{"m": [[0.5, 0], [0.4, 0], [0.1, 0], [0.5, 0]]}'])
        assert code == 1
        assert "Hermitian" in capsys.readouterr().err

    def test_domain_error_non_quantum_overlap(self):
        code, _ = run_cli(["overlap", '{"p1": 1, "p2": 1, "p3": 1}', STATE_MIXED])
        assert code == 1

    def test_domain_error_zero_tosses(self):
        code, _ = run_cli(["simulate", "--state", STATE_MIXED, "--obs", OBS_SIGMA_X,
                           "--n-tosses", "0"])
        assert code == 1

    def test_domain_error_overflowing_moments_prints_no_json(self, capsys):
        code, out = run_cli(
            ["moments", "--n", "400", "--state", '{"p1": 0.5, "p2": 0.5, "p3": 1}',
             "--obs", '{"x": 0, "y": 0, "z1": 10, "z2": -10}']
        )
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--grid-density", "--refinement-steps"])
    def test_usage_error_max_area_takes_only_region(self, flag):
        code, out = run_cli(["max-area", "--region", "ball", flag, "20"])
        assert code == 2
        assert out == ""

    def test_domain_error_render_scale_overflowing_canvas(self, tmp_path, capsys):
        out_path = tmp_path / "triad.svg"
        code, out = run_cli(["render", STATE_MIXED, "--out", str(out_path), "--scale", "1e308"])
        assert code == 1
        assert out == ""
        assert not out_path.exists()
        assert "finite canvas" in capsys.readouterr().err

    def test_domain_error_render_scale_above_bound(self, tmp_path, capsys):
        out_path = tmp_path / "triad.svg"
        code, out = run_cli(["render", STATE_MIXED, "--out", str(out_path), "--scale", "1e300"])
        assert code == 1
        assert out == ""
        assert not out_path.exists()
        assert "at most 100000 px per unit" in capsys.readouterr().err

    def test_domain_error_sample_count_above_bound(self, capsys):
        code, out = run_cli(["sample", "--region", "cube", "--count", str(MAX_SAMPLE_COUNT + 1)])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("error: --count must be at most")

    def test_domain_error_moment_order_above_bound(self, capsys):
        code, out = run_cli(["moments", "--n", str(MAX_MOMENT_ORDER + 1), "--state", STATE_MIXED, "--obs", OBS_SIGMA_X])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("error: --n must be at most")

    def test_domain_error_tosses_beyond_a_c_long(self, capsys):
        code, out = run_cli(["simulate", "--state", STATE_MIXED, "--obs", OBS_SIGMA_X, "--n-tosses", str(10**23)])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("error: n must be at most 2**63 - 1")

    def test_domain_error_quantum_fraction_samples_above_bound(self, capsys):
        code, out = run_cli(["quantum-fraction", "--n-samples", str(MAX_QF_SAMPLES + 1)])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("error: --n-samples must be at most")

    def test_domain_error_out_of_memory_prints_no_traceback(self, monkeypatch, capsys):
        def exhausted(*_args):
            raise MemoryError

        monkeypatch.setattr(coinsim, "quantum_fraction", exhausted)
        code, out = run_cli(["quantum-fraction", "--n-samples", "1000"])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_domain_error_integer_past_the_float_range_names_field(self, capsys):
        code, out = run_cli(["validate", '{"p1": 1' + "0" * 400 + ', "p2": 0, "p3": 0}'])
        assert code == 1
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'p1'" in err

    def test_domain_error_matrix_entry_past_the_float_range_names_field(self, capsys):
        code, out = run_cli(["to-probs", '{"m": [[1' + "0" * 400 + ', 0], [0, 0], [0, 0], [0, 0]]}'])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err == "error: field 'm' is too large a number to be a matrix entry\n"

    def test_domain_error_matrix_with_overflowing_hermitian_part_names_field(self):
        # In a fresh process, so a numpy warning would reach stderr.
        result = subprocess.run(
            [sys.executable, "-m", "spincoins.cli", "to-probs", '{"m": [[0.5,0],[1e308,0],[1e308,0],[0.5,0]]}'],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert "'m'" in result.stderr
        assert "Warning" not in result.stderr

    def test_domain_error_recovered_triple_shows_a_plain_float(self, capsys):
        code, out = run_cli(["to-probs", '{"m": [[0.5,0],[0.9,0],[0.9,0],[0.5,0]]}'])
        assert code == 1
        assert out == ""
        err = capsys.readouterr().err
        assert "got 1.4" in err
        assert "np." not in err

    def test_usage_error_payload_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_bytes(b"\xff\xfe" + STATE_MIXED.encode("utf-8"))
        code, out = run_cli(["validate", str(path)])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: state: cannot read file {str(path)!r} (")
        assert "codec can't decode byte 0xff" in err

    def test_usage_error_file_path_with_nul_byte(self, capsys):
        code, out = run_cli(["validate", "state\x00.json"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == "usage error: state: cannot read file 'state\\x00.json' (embedded null byte)\n"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("source", ["inline", "file"])
    def test_usage_error_non_standard_json_constants(self, token, source, tmp_path, capsys):
        payload = '{"p1": %s, "p2": 0.5, "p3": 0.5}' % token
        if source == "file":
            path = tmp_path / "state.json"
            path.write_text(payload, encoding="utf-8")
            payload = str(path)
        code, out = run_cli(["overlap", STATE_MIXED, payload])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == f"usage error: state_q: malformed JSON ({token} is not a JSON number)\n"

    def test_usage_error_integer_past_the_digit_limit(self, capsys):
        code, out = run_cli(["validate", '{"p1": 1' + "0" * 5000 + ', "p2": 0, "p3": 0}'])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("usage error: state: unreadable JSON")

    def test_usage_error_json_nested_too_deep(self, capsys):
        code, out = run_cli(["validate", "[" * 100000])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("usage error: state: unreadable JSON")

    def test_usage_error_malformed_json(self, capsys):
        code, _ = run_cli(["validate", '{"p1": 0.5, "p2":'])
        assert code == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_usage_error_missing_file(self, capsys):
        code, _ = run_cli(["validate", "no_such_file.json"])
        assert code == 2
        assert "state" in capsys.readouterr().err

    def test_usage_error_unknown_subcommand(self):
        code, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_usage_error_missing_required_flag(self):
        code, _ = run_cli(["moments", "--n", "4", "--state", STATE_MIXED])
        assert code == 2

    def test_usage_error_unwritable_render_path(self, tmp_path, capsys):
        code, _ = run_cli(["render", STATE_MIXED, "--out", str(tmp_path / "missing" / "x.svg")])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestSeedHandling:
    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        _, with_env = run_cli(["sample", "--region", "cube", "--count", "2"])
        monkeypatch.delenv(SEED_ENV_VAR)
        _, with_flag = run_cli(["sample", "--region", "cube", "--count", "2", "--seed", "123"])
        assert with_env == with_flag

    def test_flag_wins_over_env_var(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        _, out = run_cli(["sample", "--region", "cube", "--count", "2", "--seed", "9"])
        assert json.loads(out)["seed"] == 9

    def test_default_seed_documented_value(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        _, out = run_cli(["sample", "--region", "cube", "--count", "1"])
        assert json.loads(out)["seed"] == DEFAULT_SEED

    def test_invalid_env_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
        code, _ = run_cli(["sample", "--region", "cube", "--count", "1"])
        assert code == 2
        assert SEED_ENV_VAR in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize("name,argv,_schema", JSON_CASES, ids=[c[0] for c in JSON_CASES])
    def test_repeat_invocations_are_byte_identical(self, name, argv, _schema):
        assert run_cli(argv) == run_cli(argv)

    @pytest.mark.parametrize("name,argv,_schema", JSON_CASES, ids=[c[0] for c in JSON_CASES])
    def test_json_outputs_match_goldens(self, name, argv, _schema):
        code, out = run_cli(argv)
        assert code == 0
        golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
        assert out == golden

    @pytest.mark.parametrize("name,state,scale", SVG_CASES, ids=[c[0] for c in SVG_CASES])
    def test_svg_renders_match_goldens(self, name, state, scale, tmp_path):
        out_path = tmp_path / f"{name}.svg"
        code, _ = run_cli(["render", state, "--out", str(out_path), "--scale", scale])
        assert code == 0
        assert out_path.read_bytes() == (GOLDEN_DIR / f"{name}.svg").read_bytes()


class TestSchemas:
    def test_schema_file_is_valid(self):
        schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
        Draft202012Validator.check_schema(schema)

    @pytest.mark.parametrize("name,argv,schema_def", JSON_CASES, ids=[c[0] for c in JSON_CASES])
    def test_outputs_validate_against_published_schema(self, name, argv, schema_def):
        schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
        validator = Draft202012Validator(
            {"$ref": f"#/$defs/{schema_def}", "$defs": schema["$defs"]}
        )
        _, out = run_cli(argv)
        validator.validate(json.loads(out))


def test_module_entry_point_matches_in_process_output():
    argv = ["validate", '{"p1": 1, "p2": 1, "p3": 1}']
    result = subprocess.run(
        [sys.executable, "-m", "spincoins.cli", *argv],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    _, expected = run_cli(argv)
    assert result.stdout == expected


def test_module_entry_point_exit_codes():
    bad_domain = subprocess.run(
        [sys.executable, "-m", "spincoins.cli", "validate", '{"p1": 7, "p2": 0, "p3": 0}'],
        capture_output=True,
        text=True,
        check=False,
    )
    assert bad_domain.returncode == 1
    bad_usage = subprocess.run(
        [sys.executable, "-m", "spincoins.cli", "no-such-command"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert bad_usage.returncode == 2
