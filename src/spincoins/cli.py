"""Command-line front end: JSON payloads in, JSON on stdout, SVG to file.

Stdout holds strict JSON (never NaN or Infinity), the ``--help`` text, or nothing. Every error is
one line on stderr (after argparse's usage text for a bad flag), lost, never moved to stdout, when
stderr is closed or cannot be written; the exit code still holds. Exit codes: 0 on success, 1 on
domain errors (invalid probability, non-Hermitian matrix, non-quantum state, a result too large for
a finite JSON number, running out of memory), 2 on usage errors (unknown subcommand, bad flags,
malformed JSON such as NaN or Infinity, a payload file that is not UTF-8, an ``--out`` file or a
stdout that cannot be written). Output is byte deterministic for identical argv and seed;
``SPINCOINS_SEED`` overrides the default seed.

Each subcommand is one row of ``_SUBCOMMANDS``, which holds the range of each integer flag; a
decimal integer of any length outside it exits 1 and names the flag, or ``SPINCOINS_SEED``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import io
import json
import os
import re
import sys
from pathlib import Path
from typing import Any, Callable, TextIO

import spincoins

from . import core

SEED_ENV_VAR = "SPINCOINS_SEED"
DEFAULT_SEED = 0
MAX_SAMPLE_COUNT = 10**5
MAX_MOMENT_ORDER = 10**5
# quantum-fraction counts in at most 2.2 MB of buffers for any count; this
# bounds its time, which grows linearly with the count.
MAX_QF_SAMPLES = 10**9
# A decimal integer as int() spells one: a sign, digits of any script with single underscores
# between them, and spaces around. int() refuses more than sys.get_int_max_str_digits() digits,
# so an integer flag's digits are counted against its bounds before any conversion.
_DECIMAL = re.compile(r"\s*([+-]?)(\d+(?:_\d+)*)\s*")


class UsageError(Exception):
    """Malformed invocation or unparseable payload; maps to exit code 2."""


def _json_argument(raw: str, field: str) -> Any:
    """Parse an inline JSON argument, or read it from a file path; input is strict JSON, as output is."""
    text = raw.strip()
    if not text.startswith(("{", "[")):
        try:
            text = Path(raw).read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"{field}: cannot read file {core._show(raw)} ({exc.strerror})") from None
        except ValueError as exc:  # not UTF-8, or a NUL byte in the path
            raise UsageError(f"{field}: cannot read file {core._show(raw)} ({exc})") from None

    def reject_constant(token: str) -> Any:
        raise UsageError(f"{field}: malformed JSON ({token} is not a JSON number)")

    try:
        return json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{field}: malformed JSON ({exc.msg} at position {exc.pos})") from None
    except (ValueError, RecursionError) as exc:  # an integer past Python's digit limit, or nesting too deep
        raise UsageError(f"{field}: unreadable JSON ({exc})") from None


def _decimal(text: str) -> str:
    """argparse type of the integer flags: ``text`` if it spells a decimal integer, of any length; _checked converts it."""
    if _DECIMAL.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {core._show(text)}")
    return text


def _bounded_int(text: str, name: str, bounds: range) -> int:
    """A decimal integer's text as an int in ``bounds``, else ValueError naming ``name``.

    A value of more than 40 digits is refused by its digit count, never converted or echoed.
    """
    sign, digits = _DECIMAL.fullmatch(text).groups()
    digits = digits.replace("_", "")
    digits = digits[next((i for i, digit in enumerate(digits) if int(digit)), len(digits)):]  # leading zeros of any script
    if len(digits) > 40:
        end, bound, kind = ("least", bounds[0], "a negative") if sign == "-" else ("most", bounds[-1], "an")
        raise ValueError(f"{name} must be at {end} {bound}, got {kind} integer of {len(digits)} digits")
    return core._as_int(int(sign + (digits or "0")), name, bounds[0], bounds[-1])


def _render(state: spincoins.ProbabilityTriple, out: str, scale: float) -> None:
    svg = spincoins.suprematism.render_triad_svg(spincoins.suprematism.side_lengths(state), scale=scale)
    Path(out).write_bytes(svg.encode("utf-8"))


def _simulate(state: spincoins.ProbabilityTriple, obs: spincoins.GameObservable, rng: spincoins.RngSpec, n: int) -> dict:
    record = spincoins.coinsim.toss(state, n, rng)
    return {"n_tosses": record.n_tosses, "heads_counts": list(record.heads_counts),
            **spincoins.coinsim.estimate(record, obs).to_dict(), "seed": rng.seed, "algorithm": rng.algorithm}


_STATE, _OBS = "ProbabilityTriple", "GameObservable"
_STATE_HELP, _OBS_HELP = "state JSON or file path", "payoffs JSON or file path"
_SEED = ("--seed", range(core.MAX_SEED + 1), f"RNG seed (default: ${SEED_ENV_VAR} if set, else {DEFAULT_SEED})", None)

# The one description of each subcommand: name -> (help, arguments, compute). An argument is
# (name, kind, help[, default]); a flag without a default is required. Its kind is the public
# name of a payload class (read through from_dict), float, str, a tuple of choices, or the range
# of an integer. run checks the arguments in the order listed and passes their values, in that
# order, to compute, which returns the JSON payload, or None to print nothing. Compute reads the
# library modules as attributes of the package, which imports each on first use, so a call
# loads only the modules its subcommand computes with.
_SUBCOMMANDS: dict[str, tuple[str, list[tuple], Callable[..., dict | None]]] = {
    "validate": (
        "quantum-admissibility report for a state",
        [("state", _STATE, 'state JSON {"p1":..,"p2":..,"p3":..} or a file path')],
        lambda state: core.quantum_validity(state).to_dict(),
    ),
    "to-density": (
        "map a state to its density matrix",
        [("state", _STATE, _STATE_HELP)],
        lambda state: core.probs_to_density(state).to_dict(),
    ),
    "to-probs": (
        "map a density matrix back to a state",
        [("matrix", "DensityMatrix", 'matrix JSON {"m":[[re,im],...]} or a file path')],
        lambda rho: core.density_to_probs(rho).to_dict(),
    ),
    "overlap": (
        "overlap Tr(rho_p rho_q) of two states",
        [("state_p", _STATE, "first state JSON or file path"), ("state_q", _STATE, "second state JSON or file path")],
        lambda p, q: {"overlap": core.overlap(p, q)},
    ),
    "area": (
        "Malevich triad side lengths and summed area",
        [("state", _STATE, _STATE_HELP)],
        lambda state: dataclasses.asdict(spincoins.suprematism.side_lengths(state)),
    ),
    "render": (
        "render the Malevich triad to an SVG file",
        [
            ("state", _STATE, _STATE_HELP),
            ("--out", str, "output SVG path"),
            ("--scale", float, f"pixels per unit side length (at most {core.MAX_SCALE:g})", 100.0),
        ],
        _render,
    ),
    "moments": (
        "observable moments m_0..m_N from the two-point law",
        [
            ("--n", range(MAX_MOMENT_ORDER + 1), f"highest moment order N (at most {MAX_MOMENT_ORDER})"),
            ("--state", _STATE, _STATE_HELP),
            ("--obs", _OBS, 'payoffs JSON {"x":..,"y":..,"z1":..,"z2":..}'),
        ],
        lambda n, state, obs: spincoins.observables.moments(state, obs, n).to_dict(),
    ),
    "genfun": (
        "moment generating function at one point",
        [("--state", _STATE, _STATE_HELP), ("--obs", _OBS, _OBS_HELP), ("--lam", float, "evaluation point lambda")],
        lambda state, obs, lam: {"lambda": lam, "value": spincoins.observables.generating_function(state, obs, lam)},
    ),
    "simulate": (
        "toss the coins and estimate payoff statistics",
        [
            ("--state", _STATE, _STATE_HELP),
            ("--obs", _OBS, _OBS_HELP),
            _SEED,
            ("--n-tosses", range(1, core.MAX_TOSSES + 1), f"tosses per coin (at most {core.MAX_TOSSES})"),
        ],
        _simulate,
    ),
    "sample": (
        "draw random states from a region",
        [
            ("--region", ("cube", "ball", "sphere"), None),
            _SEED,
            ("--count", range(1, MAX_SAMPLE_COUNT + 1), f"number of states to draw (at most {MAX_SAMPLE_COUNT})", "1"),
        ],
        lambda region, rng, count: {"region": region, "seed": rng.seed, "algorithm": rng.algorithm,
                                    "states": [s.to_dict() for s in spincoins.coinsim.sample_states(region, count, rng)]},
    ),
    "max-area": (
        "exact maximum of the summed square area over a region",
        [("--region", ("cube", "ball"), None)],
        lambda region: spincoins.suprematism.maximize_area(region).to_dict(),
    ),
    "quantum-fraction": (
        "Monte Carlo ball/cube volume ratio",
        [_SEED, ("--n-samples", range(1000, MAX_QF_SAMPLES + 1), f"cube samples (at least 1000, at most {MAX_QF_SAMPLES})")],
        lambda rng, n: {"n_samples": n, "fraction": spincoins.coinsim.quantum_fraction(n, rng),
                        "seed": rng.seed, "algorithm": rng.algorithm},
    ),
}


def _checked(args: argparse.Namespace, name: str, kind: Any) -> Any:
    """An argument's value as compute takes it: a payload loaded, an integer in its range, ``--seed`` an RngSpec.

    Payloads are loaded here, after parse_args, never through an argparse
    ``type=``, which would turn an invalid probability into exit 2.
    """
    value = getattr(args, dest := name.lstrip("-").replace("-", "_"))
    if isinstance(kind, str):  # a payload class, by its public name
        return getattr(spincoins, kind).from_dict(_json_argument(value, dest))
    if not isinstance(kind, range):
        return value  # a float, str or choice, which parse_args has checked
    if value is None:  # only --seed has no default: $SPINCOINS_SEED stands in for it, and DEFAULT_SEED for both
        name, value = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
        if _DECIMAL.fullmatch(value) is None:  # parse_args has checked the flags' spelling, through _decimal
            raise UsageError(f"{SEED_ENV_VAR}={core._show(value)} is not an integer seed")
    value = _bounded_int(value, name, kind)
    return spincoins.RngSpec(value) if dest == "seed" else value


def _write(out: TextIO | None, text: str) -> None:
    """The only writer of the CLI's stdout and stderr: all of ``text`` to ``out`` and flushed, or OSError.

    The bytes, the same on POSIX, go past any buffer to the raw file until all are taken: a failed write leaves nothing
    for the exit-time flush, and the write after a short one raises, EPIPE on a closed pipe. A closed stream, or ``None``
    (one closed at process start), raises EBADF; a stream with no buffer, such as a ``StringIO``, takes the text.
    """
    if out is None or out.closed:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        out.write(text)
    else:
        out.flush()  # text written to out earlier goes first
        raw, data = getattr(buffer, "raw", buffer), memoryview(text.encode(out.encoding, out.errors))
        while data:
            if (taken := raw.write(data)) is None:  # a full non-blocking file takes nothing: wait until it has room
                import select
                select.select((), (raw,), ())
            data = data[taken:]
    out.flush()


def _finish(code: int, out: TextIO | None, shown: str = "", said: str = "") -> int:
    """Return ``code`` after writing ``shown`` to ``out`` (2 if it cannot) and ``said`` to stderr (lost if it cannot)."""
    if shown:
        try:
            _write(out, shown)
        except OSError as exc:
            code, said = 2, f"usage error: cannot write output ({exc.strerror})\n"
    if said:
        with contextlib.suppress(OSError):
            _write(sys.stderr, said)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincoins",
        description="Three-coin probability representation of single-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for command, (help_text, arguments, _compute) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        # argparse takes an argument that starts with "-" for a value only if _negative_number_matcher matches it; its default
        # differs between Python versions, and some miss exponents such as -1e-3. No option here is "-" then a digit or ".digit".
        p._negative_number_matcher = re.compile(r"-\.?\d")
        # Added in the order --help and usage lines have always shown: integer flags after the rest, --seed last
        for name, kind, help_text, *default in sorted(arguments, key=lambda a: isinstance(a[1], range) + (a[0] == "--seed")):
            options = {"required": not default, "default": default[0] if default else None} if name.startswith("--") else {}
            p.add_argument(
                name, help=help_text, **options, choices=kind if isinstance(kind, tuple) else None,
                type=_decimal if isinstance(kind, range) else kind if kind in (float, str) else None,
            )
    return parser


def run(argv: list[str] | None = None, stdout: TextIO | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as shown, contextlib.redirect_stderr(io.StringIO()) as said:
            args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error, with the text argparse printed
        return _finish(int(exc.code or 0), out, shown.getvalue(), said.getvalue())
    _help, arguments, compute = _SUBCOMMANDS[args.command]
    payload = None
    try:
        payload = compute(*[_checked(args, name, kind) for name, kind, *_ in arguments])
        return _finish(0, out, "" if payload is None else json.dumps(payload, indent=2, allow_nan=False) + "\n")
    except UsageError as exc:
        return _finish(2, out, said=f"usage error: {exc}\n")
    except OSError as exc:  # an --out file that cannot be written
        return _finish(2, out, said=f"usage error: cannot write output ({exc.strerror})\n")
    except (ValueError, ArithmeticError) as exc:
        # an overflow, or an inf or NaN that json.dumps refused, which with finite inputs only an overflow makes
        too_large = isinstance(exc, OverflowError) or payload is not None
        return _finish(1, out, said=f"error: {'a result too large for a finite JSON number' if too_large else exc}\n")
    except MemoryError:  # also in encoding the JSON, before its first byte is written
        return _finish(1, out, said="error: out of memory\n")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
