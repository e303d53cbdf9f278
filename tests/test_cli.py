"""Tests for the command-line front end: payloads, exit codes, golden files."""

from __future__ import annotations

import argparse
import errno
import io
import json
import math
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from golden_cases import JSON_CASES, SVG_CASES, STATE_MIXED, STATE_TILTED, OBS_SIGMA_X, OBS_SIGMA_Z
from spincoins import cli, coinsim, core
from spincoins.cli import _SUBCOMMANDS, DEFAULT_SEED, SEED_ENV_VAR, run

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schemas" / "cli_payloads.schema.json"


def run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    code = run(argv, stdout=buffer)
    return code, buffer.getvalue()


def child_env(unbuffered: bool) -> dict[str, str]:
    """This process's environment, with ``PYTHONUNBUFFERED`` set to 1 or unset."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def run_with_no_reader(args: list[str], unbuffered: bool) -> subprocess.CompletedProcess:
    """Run the interpreter with ``args``, its stdout a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, *args], stdout=write_end, stderr=subprocess.PIPE,
                              env=child_env(unbuffered), check=False, timeout=60)
    finally:
        os.close(write_end)


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


# Every integer flag of the subcommand table, with its range.
INTEGER_FLAGS = [
    (command, name, kind)
    for command, (_help, arguments, _compute) in _SUBCOMMANDS.items()
    for name, kind, *_ in arguments if isinstance(kind, range)
]
INTEGER_FLAG_IDS = [f"{command}{flag}" for command, flag, _bounds in INTEGER_FLAGS]
# More digits than int() converts by default (4300), but a valid argv on Linux.
LONG_DIGITS = "7" * 5000


class TestExitCodes:
    @pytest.mark.parametrize("command,flag,bounds", INTEGER_FLAGS, ids=INTEGER_FLAG_IDS)
    def test_domain_error_integer_flag_past_the_digit_limit_names_its_length(self, command, flag, bounds, capsys):
        for sign, end, bound, kind in (("", "most", bounds[-1], "an"), ("-", "least", bounds[0], "a negative")):
            code, out = run_cli([*BASE_ARGV[command], flag, sign + LONG_DIGITS])
            assert (code, out) == (1, "")
            assert capsys.readouterr().err == f"error: {flag} must be at {end} {bound}, got {kind} integer of 5000 digits\n"

    @pytest.mark.parametrize("command,flag,bounds", INTEGER_FLAGS, ids=INTEGER_FLAG_IDS)
    def test_integer_flag_with_thousands_of_leading_zeros_is_its_value(self, command, flag, bounds):
        assert run_cli([*BASE_ARGV[command], flag, "0" * 5000 + str(bounds[0])]) == run_cli([*BASE_ARGV[command], flag, str(bounds[0])])

    @pytest.mark.parametrize("command,flag,bounds", INTEGER_FLAGS, ids=INTEGER_FLAG_IDS)
    def test_usage_error_long_non_integer_flag_is_shortened(self, command, flag, bounds, capsys):
        code, out = run_cli([*BASE_ARGV[command], flag, LONG_DIGITS + "x"])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid int value: '{LONG_DIGITS[:20]}'... (5001 characters)" in err
        assert len(err) < 500

    def test_domain_error_only_values_past_forty_digits_are_shortened(self, capsys):
        for digits, shown in ((40, "7" * 40), (41, "an integer of 41 digits")):
            code, out = run_cli([*BASE_ARGV["sample"], "--seed", "7" * digits])
            assert (code, out) == (1, "")
            assert capsys.readouterr().err == f"error: --seed must be at most {2**64 - 1}, got {shown}\n"

    # Each message that echoes a long payload value or path shows its first 20 characters and its length.
    LONG_ECHOES = {
        "file-path": (2, "x" * 10**5, "usage error: state: cannot read file 'xxxxxxxxxxxxxxxxxxxx'... (100000 characters) (File name too long)"),
        "p1-string": (1, json.dumps({"p1": "x" * 10**5, "p2": 0.5, "p3": 0.5}), "error: field 'p1' must be a number, got 'xxxxxxxxxxxxxxxxxxxx'... (100000 characters)"),
        "list-payload": (1, json.dumps([0.5] * 20000), "error: expected an object with p1, p2, p3, got [0.5, 0.5, 0.5, 0.5,... (100000 characters)"),
        "p1-past-the-cube": (1, json.dumps({"p1": 10**100, "p2": 0.5, "p3": 0.5}), "error: field 'p1' must be a coin probability in [0, 1], got 10000000000000000000... (101 characters)"),
    }

    @pytest.mark.parametrize("case", sorted(LONG_ECHOES))
    def test_error_echoing_a_long_value_is_one_short_line(self, case, capsys):
        code, payload, message = self.LONG_ECHOES[case]
        assert run_cli(["validate", payload]) == (code, "")
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("command", ["simulate", "sample", "quantum-fraction"])
    def test_env_seed_past_the_digit_limit(self, command, monkeypatch, capsys):
        argv = BASE_ARGV[command]
        at = argv.index("--seed")
        monkeypatch.setenv(SEED_ENV_VAR, LONG_DIGITS)
        assert run_cli(argv[:at] + argv[at + 2:]) == (1, "")
        assert capsys.readouterr().err == f"error: {SEED_ENV_VAR} must be at most {2**64 - 1}, got an integer of 5000 digits\n"
        monkeypatch.setenv(SEED_ENV_VAR, LONG_DIGITS + "x")
        assert run_cli(argv[:at] + argv[at + 2:]) == (2, "")
        err = capsys.readouterr().err
        assert err == f"usage error: {SEED_ENV_VAR}='{LONG_DIGITS[:20]}'... (5001 characters) is not an integer seed\n"

    def test_domain_error_invalid_probability(self, capsys):
        code, _ = run_cli(["validate", '{"p1": 2, "p2": 0.5, "p3": 0.5}'])
        assert code == 1
        assert "p1" in capsys.readouterr().err

    def test_domain_error_non_hermitian_matrix(self, capsys):
        code, _ = run_cli(["to-probs", '{"m": [[0.5, 0], [0.4, 0], [0.1, 0], [0.5, 0]]}'])
        assert code == 1
        assert "Hermitian" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix,value", [
        # within the trace and Hermiticity tolerances, yet p3 = 1.0000000000005 and p1 = 1.000000000025
        ("[[1.0000000000005, 0], [0, 0], [0, 0], [0, 0]]", "1.0000000000005"),
        ("[[0.5, 0], [0.5, 0], [0.50000000005, 0], [0.5, 0]]", "1.000000000025"),
    ], ids=["p3", "p1"])
    def test_domain_error_matrix_mapping_outside_the_cube_names_the_matrix(self, matrix, value, capsys):
        assert run_cli(["to-probs", f'{{"m": {matrix}}}']) == (1, "")
        assert capsys.readouterr().err == f"error: field 'm' must map to coin probabilities in [0, 1], got {value}\n"

    def test_domain_error_non_quantum_overlap(self, capsys):
        code, _ = run_cli(["overlap", '{"p1": 1, "p2": 1, "p3": 1}', STATE_MIXED])
        assert code == 1
        # radius^2 = 0.25000000200000005, past the ball test's bound 0.25 + 1e-9 but 0.250000 at 6 decimals
        p = 0.5 + math.sqrt((0.25 + 2e-9) / 3)
        state = json.dumps({"p1": p, "p2": p, "p3": p})
        capsys.readouterr()
        assert run_cli(["overlap", state, STATE_MIXED]) == (1, "")
        assert capsys.readouterr().err == (
            f"error: p=({p!r}, {p!r}, {p!r}) is outside the quantum ball (radius_squared=0.25000000200000005 > 0.25)\n"
        )

    def test_domain_error_zero_tosses(self):
        code, _ = run_cli(["simulate", "--state", STATE_MIXED, "--obs", OBS_SIGMA_X,
                           "--n-tosses", "0"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        # 10^400 overflows in a power, e^1000 in an exponential, and m_1 = 1.8e308 only when written out
        ["moments", "--n", "400", "--state", '{"p1": 0.5, "p2": 0.5, "p3": 1}', "--obs", '{"x": 0, "y": 0, "z1": 10, "z2": -10}'],
        ["genfun", "--lam", "1000", "--state", STATE_MIXED, "--obs", OBS_SIGMA_Z],
        ["moments", "--n", "1", "--state", '{"p1": 1, "p2": 0.9, "p3": 0.5}', "--obs", '{"x": 1e308, "y": 1e308, "z1": 0, "z2": 0}'],
        # the first overflow is at order 98 936 of 100 000, so a streamed writer has printed most of the moments by then
        ["moments", "--n", "100000", "--state", '{"p1":0.75,"p2":0.5,"p3":0.5}', "--obs", '{"x":1.0072,"y":0,"z1":0,"z2":0}'],
    ], ids=["power", "exponential", "payload", "late"])
    def test_domain_error_overflow_has_one_error_line(self, argv, capsys):
        assert run_cli(argv) == (1, "")
        assert capsys.readouterr().err == "error: a result too large for a finite JSON number\n"

    def test_zero_weight_outcome_with_overflowing_exponential(self):
        # All weight sits on the outcome -1, so e^{+710} is never taken; the exact value is e^{-710}.
        code, out = run_cli(
            ["genfun", "--lam", "710", "--state", '{"p1": 0.5, "p2": 0.5, "p3": 0}', "--obs", OBS_SIGMA_Z]
        )
        assert code == 0
        assert json.loads(out)["value"] == math.exp(-710.0)

    def test_zero_weight_outcome_with_overflowing_power(self):
        # All weight sits on the outcome -10, so 110^200 is never taken; the exact m_200 is 1e200.
        code, out = run_cli(
            ["moments", "--n", "200", "--state", '{"p1": 0.5, "p2": 0.5, "p3": 0}',
             "--obs", '{"x": 0, "y": 0, "z1": 110, "z2": -10}']
        )
        assert code == 0
        assert json.loads(out)["moments"][200] == pytest.approx(1e200, rel=1e-13)

    def test_tiny_payoffs_keep_their_radius(self):
        # Their squares underflow: r read 0.0, where the exact r is 5e-170.
        code, out = run_cli(["moments", "--n", "1", "--state", STATE_MIXED,
                             "--obs", '{"x": 3e-170, "y": 4e-170, "z1": 0, "z2": 0}'])
        assert code == 0
        assert json.loads(out)["r"] == 5e-170

    def test_huge_payoffs_give_a_finite_mean(self):
        # x^2 overflows: r read inf and m_1 NaN (exit 1), where the exact m_1 is 5e199.
        code, out = run_cli(["moments", "--n", "1", "--state", STATE_TILTED,
                             "--obs", '{"x": 1e200, "y": 0, "z1": 0, "z2": 0}'])
        assert code == 0
        assert json.loads(out)["moments"] == [1.0, 5e199]

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

    def test_domain_error_render_negative_scale_in_exponent_form(self, tmp_path, capsys):
        out_path = tmp_path / "triad.svg"
        code, out = run_cli(["render", STATE_MIXED, "--out", str(out_path), "--scale", "-1e2"])
        assert (code, out) == (1, "")
        assert not out_path.exists()
        assert "scale must be a positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["-1e-3", "-1E2", "-5e-05"])
    def test_negative_value_in_exponent_form_is_the_flag_value(self, lam):
        argv = ["genfun", "--state", STATE_TILTED, "--obs", OBS_SIGMA_X]
        code, out = run_cli([*argv, "--lam", lam])
        assert code == 0
        assert (code, out) == run_cli([*argv, f"--lam={lam}"])

    @pytest.mark.parametrize("command", list(_SUBCOMMANDS))
    def test_help_is_that_of_argparse_own_negative_number_rule(self, command, monkeypatch):
        code, out = run_cli([command, "--help"])
        # build_parser with argparse's default rule, which differs between Python versions
        default = argparse.ArgumentParser()._negative_number_matcher
        monkeypatch.setattr(cli, "re", types.SimpleNamespace(compile=lambda _pattern: default))
        if default.match("-1e-3") is None:  # a rule under which --lam -1e-3 is a missing value
            assert run_cli(["genfun", "--state", STATE_TILTED, "--obs", OBS_SIGMA_X, "--lam", "-1e-3"])[0] == 2
        assert (code, out) == run_cli([command, "--help"])
        assert code == 0 and out.startswith(f"usage: spincoins {command} [-h]")

    @pytest.mark.parametrize("argv", [
        ["validate", '{"p1": 0.5, "p2": 0.5, "p3": 0.5, "p4": 1}'],
        ["genfun", "--lam", "1", "--state", STATE_MIXED, "--obs", '{"x": 1, "y": 0, "p4": 1, "z1": 0, "z2": 0}'],
        ["to-probs", '{"m": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]], "p4": 1, "n": 2}'],
    ], ids=["state", "observable", "matrix"])
    def test_domain_error_unexpected_payload_field_is_named(self, argv, capsys):
        assert run_cli(argv) == (1, "")
        assert capsys.readouterr().err == "error: unexpected field 'p4'\n"

    def test_moments_stay_finite_where_twice_the_dot_product_overflows(self, capsys):
        # f = 2 (d.(x, y, z) / r) is finite, so m_0 is 1; the exact m_1 = 1.8e308 does overflow.
        state, obs = '{"p1": 1, "p2": 0.9, "p3": 0.5}', '{"x": 1e308, "y": 1e308, "z1": 0, "z2": 0}'
        code, out = run_cli(["moments", "--n", "0", "--state", state, "--obs", obs])
        assert code == 0
        assert json.loads(out)["moments"] == [1.0]
        code, out = run_cli(["genfun", "--lam", "0", "--state", state, "--obs", obs])
        assert code == 0
        assert json.loads(out)["value"] == 1.0
        code, out = run_cli(["moments", "--n", "1", "--state", state, "--obs", obs])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err == "error: a result too large for a finite JSON number\n"

    def test_domain_error_tosses_beyond_exact_counts(self, capsys):
        code, out = run_cli(["simulate", "--state", STATE_MIXED, "--obs", OBS_SIGMA_X, "--n-tosses", str(2**53 + 1)])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err == "error: --n-tosses must be at most 9007199254740992, got 9007199254740993\n"

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
        assert err.startswith(f"usage error: state: cannot read file {core._show(str(path))} (")
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

    @pytest.mark.parametrize("argv", [["validate", STATE_MIXED], ["--help"]], ids=["json", "help"])
    def test_usage_error_unwritable_stdout(self, argv, capsys):
        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        code = run(argv, stdout=FullStdout())
        assert code == 2
        assert capsys.readouterr() == ("", f"usage error: cannot write output ({os.strerror(errno.ENOSPC)})\n")

    @pytest.mark.parametrize("argv", [["validate", STATE_MIXED], ["--help"]], ids=["json", "help"])
    @pytest.mark.parametrize("at_start", [True, False], ids=["closed-at-start", "closed-in-process"])
    def test_usage_error_closed_stdout(self, argv, at_start, monkeypatch, capsys):
        closed = io.StringIO()
        closed.close()
        if at_start:
            monkeypatch.setattr(sys, "stdout", None)  # as Python sets it when the process starts with stdout closed
        code = run(argv, stdout=None if at_start else closed)
        monkeypatch.undo()
        assert code == 2
        assert capsys.readouterr().err == f"usage error: cannot write output ({os.strerror(errno.EBADF)})\n"

    def test_help_goes_to_the_given_stdout(self, capsys):
        code, out = run_cli(["validate", "--help"])
        assert code == 0
        assert out.startswith("usage: spincoins validate [-h] state\n")
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
    @pytest.mark.parametrize("argv, expected", [
        (["validate", '{"p1": 2, "p2": 0.5, "p3": 0.5}'], 1),
        (["validate", '{"p1": 2'], 2),
        (["frobnicate"], 2),
    ], ids=["domain", "malformed", "unknown"])
    def test_error_with_unwritable_stderr_keeps_its_exit_code_and_an_empty_stdout(self, argv, expected, redirect, unbuffered):
        # The error line is lost; it must not move to stdout, nor fail the exit-time flush (exit 120).
        result = subprocess.run(
            ["sh", "-c", f'exec "$0" -m spincoins.cli "$@" {redirect}', sys.executable, *argv],
            capture_output=True, env=child_env(unbuffered), check=False, timeout=60,
        )
        assert (result.returncode, result.stdout) == (expected, b"")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["validate", "--help"]], ids=["help", "subcommand-help"])
    def test_help_into_a_pipe_with_no_reader_exits_2_without_a_traceback(self, argv, unbuffered):
        result = run_with_no_reader(["-m", "spincoins.cli", *argv], unbuffered)
        assert result.returncode == 2
        assert result.stderr == f"usage error: cannot write output ({os.strerror(errno.EPIPE)})\n".encode()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs Linux's /proc/self/fd")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_failed_stdout_write_leaves_fd_1_where_it_was(self, unbuffered):
        # In process, run must not point fd 1 elsewhere: the code after it writes to the same pipe.
        script = (
            "import os; from spincoins.cli import run; code = run(['validate', '{\"p1\": 1, \"p2\": 1, \"p3\": 1}']); "
            "os.write(2, f'{code} {os.readlink(\"/proc/self/fd/1\")}'.encode())"
        )
        result = run_with_no_reader(["-c", script], unbuffered)
        code, _, fd_1 = result.stderr.decode().rpartition("\n")[2].partition(" ")
        assert code == "2"
        assert fd_1.startswith("pipe:")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device every write to fails")
    def test_full_stdout_exits_2_without_a_traceback(self):
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "spincoins.cli", "validate", STATE_MIXED],
                stdout=full, stderr=subprocess.PIPE, text=True, check=False, timeout=60,
            )
        assert result.returncode == 2
        # the one line, so neither a traceback nor the exit-time flush's "Exception ignored"
        assert result.stderr == f"usage error: cannot write output ({os.strerror(errno.ENOSPC)})\n"

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_stdout_pipe_closed_part_way_exits_2_without_a_traceback(self, unbuffered):
        # About 100 kB of rows, more than a pipe holds, so the reader closes it while the call still writes.
        # Unbuffered, stdout's buffer is a raw file whose short write the text layer would drop silently.
        with subprocess.Popen(
            [sys.executable, "-m", "spincoins.cli", "sample", "--region", "ball", "--count", "1000", "--seed", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(unbuffered),
        ) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            stderr = proc.stderr.read()
        assert proc.returncode == 2
        assert stderr == f"usage error: cannot write output ({os.strerror(errno.EPIPE)})\n".encode()

    @pytest.mark.skipif(sys.platform == "win32", reason="select waits only on sockets there, not on pipes")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_full_non_blocking_stdout_waits_for_its_reader(self, unbuffered):
        # About 100 kB of rows fill the pipe, whose reader starts after 1 s. A full non-blocking file takes
        # nothing, so the call must wait for room: retrying at once would spin a CPU for that second.
        import resource

        argv = ["sample", "--region", "ball", "--count", "1000", "--seed", "0"]
        read_end, write_end = os.pipe()
        os.set_blocking(write_end, False)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(read_end, "rb") as reader:
            with open(write_end, "wb") as writer:
                proc = subprocess.Popen([sys.executable, "-m", "spincoins.cli", *argv], stdout=writer,
                                        env=child_env(unbuffered))
            time.sleep(1.0)
            out = reader.read()
        assert proc.wait(timeout=60) == 0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert out == run_cli(argv)[1].encode()
        assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 0.5


# The first golden argv of each subcommand: a valid call that a repeated flag can override.
BASE_ARGV = {argv[0]: argv for _name, argv, _schema in reversed(JSON_CASES)}
# One value past each end of every integer flag's range in the subcommand table.
REFUSED_INTEGERS = [
    (command, name, value, f"{command}-{name.lstrip('-')}-{end}")
    for command, (_help, arguments, _compute) in _SUBCOMMANDS.items()
    for name, kind, *_ in arguments if isinstance(kind, range)
    for value, end in ((kind[0] - 1, "low"), (kind[-1] + 1, "high"))
]
SEEDED = [command for command, (_help, arguments, _compute) in _SUBCOMMANDS.items() if "--seed" in [a[0] for a in arguments]]


class TestSubcommandTable:
    @pytest.mark.parametrize("command,flag,value", [c[:3] for c in REFUSED_INTEGERS], ids=[c[3] for c in REFUSED_INTEGERS])
    def test_refused_integer_flag_is_named(self, command, flag, value, capsys):
        code, out = run_cli([*BASE_ARGV[command], flag, str(value)])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith(f"error: {flag} must be at")

    def test_every_seeded_subcommand_bounds_its_seed(self):
        assert SEEDED == ["simulate", "sample", "quantum-fraction"]
        refused = {(c, v) for c, flag, v, _id in REFUSED_INTEGERS if flag == "--seed"}
        assert refused == {(c, v) for c in SEEDED for v in (-1, 2**64)}

    @pytest.mark.parametrize("value", [-1, 2**64])
    @pytest.mark.parametrize("command", SEEDED)
    def test_refused_env_seed_is_named(self, command, value, monkeypatch, capsys):
        argv = BASE_ARGV[command]
        at = argv.index("--seed")
        monkeypatch.setenv(SEED_ENV_VAR, str(value))
        code, out = run_cli(argv[:at] + argv[at + 2:])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith(f"error: {SEED_ENV_VAR} must be at")

    def test_forty_digits_hold_every_bound(self):
        # _bounded_int refuses a value of more than 40 digits unconverted, so no bound may be longer
        bounds = [kind[end] for _help, arguments, _compute in _SUBCOMMANDS.values()
                  for _name, kind, *_ in arguments if isinstance(kind, range) for end in (0, -1)]
        assert bounds and max(len(str(abs(bound))) for bound in bounds) <= 40

    def test_every_subcommand_has_a_golden_and_a_schema(self):
        defs = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))["$defs"]
        json_schemas = {argv[0]: schema for _name, argv, schema in JSON_CASES}
        for command in _SUBCOMMANDS:
            if command == "render":  # the one subcommand that writes a file, not JSON
                assert SVG_CASES
            else:
                assert json_schemas.get(command) in defs, command
        assert set(json_schemas) <= set(_SUBCOMMANDS)


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

    def test_simulate_result_holds_at_most_exact_counts(self):
        schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
        validator = Draft202012Validator({"$ref": "#/$defs/simulate_result", "$defs": schema["$defs"]})
        _, out = run_cli(["simulate", "--state", STATE_MIXED, "--obs", OBS_SIGMA_X, "--n-tosses", str(coinsim.MAX_TOSSES)])
        payload = json.loads(out)
        validator.validate(payload)
        for field, value in (("n_tosses", coinsim.MAX_TOSSES + 1), ("heads_counts", [coinsim.MAX_TOSSES + 1, 0, 0])):
            assert not validator.is_valid({**payload, field: value}), field


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
