"""cli_mix workload: one-shot ``python -m spincoins.cli`` calls, one at a time.

A round runs a fixed list of 45 generated argv lists, covering all 12
subcommands, in a freshly shuffled order; every argv therefore repeats
once per round, which the byte-identity check relies on. Only the child
process's wall time is timed; every check runs after the child has been
reaped.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import inputs

# Which $defs entry of schemas/cli_payloads.schema.json each subcommand's stdout must match.
SCHEMA_DEFS = {
    "validate": "validity_report",
    "to-density": "density_matrix",
    "to-probs": "probability_triple",
    "overlap": "overlap_result",
    "area": "area_result",
    "moments": "moments_result",
    "genfun": "genfun_result",
    "simulate": "simulate_result",
    "sample": "sample_result",
    "max-area": "max_area_result",
    "quantum-fraction": "quantum_fraction_result",
}

MIN_ROUNDS = 2  # a single round would leave the repeat check nothing to compare


@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]
    exit_code: int
    svg: Path | None = None


@dataclass
class Call:
    code: int
    stdout: bytes
    stderr: bytes
    svg: bytes | None


def make_cases(seed: int, workdir: Path) -> list[Case]:
    """One round: the 21 light argv lists twice, with fresh payloads, and the 3 heavy ones once.

    The heavy calls (``sample --count 1000``, ``max-area``, ``quantum-fraction``)
    are 3 of 45, fewer than the 10% above p90, so p90 falls among the light
    calls rather than on the step between the two groups, where a small
    shift would move it far. File payloads are written into ``workdir``.
    """
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    def seed_flag() -> tuple[str, str]:
        return ("--seed", str(rng.randrange(2**32)))

    heavy = [
        Case(("sample", "--region", "ball", "--count", "1000", *seed_flag()), 0),
        Case(("max-area", "--region", rng.choice(("cube", "ball"))), 0),
        # A fixed size: this call's arrays make it the largest child, which sets peak_rss_mb.
        Case(("quantum-fraction", "--n-samples", str(10**5), *seed_flag()), 0),
    ]
    return _light_cases(rng, workdir / "a") + _light_cases(rng, workdir / "b") + heavy


def _light_cases(rng: random.Random, workdir: Path) -> list[Case]:
    """21 cheap calls over every subcommand but max-area and quantum-fraction; 5 must fail."""
    workdir.mkdir(exist_ok=True)

    def state() -> str:
        return json.dumps(rng.choice((inputs.cube_state, inputs.ball_state))(rng))

    def obs() -> str:
        return json.dumps(inputs.observable(rng))

    def file_arg(name: str, payload: dict[str, Any]) -> str:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def seed_flag() -> tuple[str, str]:
        return ("--seed", str(rng.randrange(2**32)))

    svg = workdir / "triad.svg"
    bad_prob = {k: rng.choice((-1.0, 1.0)) * rng.uniform(1.01, 2.0) for k in ("p1", "p2", "p3")}
    non_hermitian = inputs.density_payload(inputs.ball_state(rng))
    non_hermitian["m"][1][0] += rng.uniform(0.01, 0.1)
    usage_errors = (
        ("moments", "--n", "three", "--state", state(), "--obs", obs()),
        ("sample", "--region", "torus"),
        ("frobnicate", state()),
        ("max-area",),
    )
    return [
        Case(("validate", state()), 0),
        Case(("validate", file_arg("validate", inputs.cube_state(rng))), 0),
        Case(("validate", json.dumps(bad_prob)), 1),
        Case(("to-density", state()), 0),
        Case(("to-density", file_arg("to_density", inputs.ball_state(rng))), 0),
        Case(("to-probs", json.dumps(inputs.density_payload(inputs.cube_state(rng)))), 0),
        Case(("to-probs", json.dumps(non_hermitian)), 1),
        Case(("overlap", json.dumps(inputs.ball_state(rng)), json.dumps(inputs.ball_state(rng))), 0),
        Case(("overlap", json.dumps(inputs.outside_state(rng)), json.dumps(inputs.ball_state(rng))), 1),
        Case(("area", state()), 0),
        Case(("area", file_arg("area", inputs.cube_state(rng))), 0),
        Case(("render", state(), "--out", str(svg), "--scale", repr(rng.uniform(20.0, 200.0))), 0, svg),
        Case(("moments", "--n", str(rng.randint(1, 20)), "--state", state(), "--obs", obs()), 0),
        Case(
            (
                "moments", "--n", str(rng.randint(1, 20)),
                "--state", file_arg("moments_state", inputs.ball_state(rng)),
                "--obs", file_arg("moments_obs", inputs.observable(rng)),
            ),
            0,
        ),
        Case(("genfun", "--lam", repr(rng.uniform(-2.0, 2.0)), "--state", state(), "--obs", obs()), 0),
        Case(("genfun", "--lam", repr(rng.uniform(-2.0, 2.0)), "--state", state(), "--obs", obs()), 0),
        Case(("simulate", "--state", state(), "--obs", obs(), "--n-tosses", str(rng.randint(10**3, 10**5)), *seed_flag()), 0),
        Case(("simulate", "--state", state(), "--obs", obs(), "--n-tosses", str(rng.randint(10**3, 10**5))), 0),
        Case(("sample", "--region", rng.choice(("cube", "ball", "sphere")), "--count", str(rng.randint(1, 20)), *seed_flag()), 0),
        Case(("validate", state()[:-9]), 2),
        Case(rng.choice(usage_errors), 2),
    ]


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    env.pop("SPINCOINS_SEED", None)
    return env


def run_child(case: Case, env: dict[str, str], stderr_file: Any) -> tuple[Call, int, int]:
    """One CLI process: (call, wall ns from spawn to reap, max RSS in KiB).

    The child is reaped with ``wait4`` for its own resource usage. Its stderr
    goes to a file, so a large stderr cannot block it while stdout is read.
    """
    _remove_svg(case)
    stderr_file.seek(0)
    stderr_file.truncate()
    start = time.perf_counter_ns()
    proc = subprocess.Popen(
        [sys.executable, "-m", "spincoins.cli", *case.argv],
        stdout=subprocess.PIPE, stderr=stderr_file, env=env,
    )
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.perf_counter_ns() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    stderr_file.seek(0)
    return Call(proc.returncode, out, stderr_file.read(), _read_svg(case)), elapsed, usage.ru_maxrss


def run_in_process(case: Case, run: Callable[..., int]) -> Call:
    """The same call through ``spincoins.cli.run`` inside this process."""
    _remove_svg(case)
    out = io.StringIO()
    with redirect_stderr(io.StringIO()) as err:
        code = run(list(case.argv), stdout=out)
    return Call(code, out.getvalue().encode(), err.getvalue().encode(), _read_svg(case))


def _remove_svg(case: Case) -> None:
    # A stale file from an earlier call must not pass for this call's output.
    if case.svg:
        case.svg.unlink(missing_ok=True)


def _read_svg(case: Case) -> bytes | None:
    return case.svg.read_bytes() if case.svg and case.svg.exists() else None


class Checker:
    """Checks one call's exit code and output; remembers outputs to compare repeats."""

    def __init__(self, schema_path: Path) -> None:
        from jsonschema import Draft202012Validator

        defs = json.loads(schema_path.read_text(encoding="utf-8"))["$defs"]
        self.validators = {
            command: Draft202012Validator({"$ref": f"#/$defs/{name}", "$defs": defs})
            for command, name in SCHEMA_DEFS.items()
        }
        self.seen: dict[tuple[str, ...], tuple[bytes, bytes | None]] = {}

    def failure(self, case: Case, call: Call) -> str | None:
        """Why the call is wrong, or None when it is right."""
        if call.code != case.exit_code:
            return f"exit {call.code}, expected {case.exit_code}"
        if b"Traceback" in call.stderr:
            return "traceback on stderr"
        if case.exit_code != 0:
            if call.stdout:
                return "stdout not empty on error"
            return None if call.stderr else "no error message"
        if call.stderr:
            return "stderr not empty on success"
        command = case.argv[0]
        if command == "render":
            if call.stdout or not call.svg or not call.svg.startswith(b"<?xml") or call.svg.count(b"<rect ") != 3:
                return "render did not write a three-square SVG"
        else:
            try:
                payload = json.loads(call.stdout, parse_constant=_reject_constant)
            except ValueError as exc:
                return f"stdout is not strict JSON: {exc}"
            if not self.validators[command].is_valid(payload):
                return f"stdout does not match schema {SCHEMA_DEFS[command]}"
            if command == "sample" and len(payload["states"]) != int(case.argv[case.argv.index("--count") + 1]):
                return "sample returned the wrong number of states"
        previous = self.seen.setdefault(case.argv, (call.stdout, call.svg))
        if previous != (call.stdout, call.svg):
            return "output differs from an earlier run of the same argv"
        return None


def _reject_constant(token: str) -> Any:
    raise ValueError(f"non-finite number {token}")
