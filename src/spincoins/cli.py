"""Command-line front end: JSON payloads in, JSON on stdout, SVG to file.

Exit codes: 0 on success, 1 on domain errors (invalid probability,
non-Hermitian matrix, non-quantum state, a result too large for a finite
JSON number), 2 on usage errors (unknown subcommand, bad flags, malformed
JSON such as NaN or Infinity, a payload file that is not UTF-8). Stdout
is strict JSON, never NaN or Infinity, and stays empty on an error.
Output is byte deterministic for identical argv and seed; the default
seed can be overridden with the ``SPINCOINS_SEED`` environment variable.

Flags that size the work have upper bounds, and a larger value exits 1:
``sample --count`` at most ``MAX_SAMPLE_COUNT``, ``moments --n`` at most
``MAX_MOMENT_ORDER``, ``quantum-fraction --n-samples`` at most
``MAX_QF_SAMPLES``, ``render --scale`` at most ``suprematism.MAX_SCALE``
and ``simulate --n-tosses`` at most ``coinsim.MAX_TOSSES``. Running out of
memory also exits 1, with an ``error:`` line and no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, TextIO

from . import coinsim, core, observables, suprematism

SEED_ENV_VAR = "SPINCOINS_SEED"
DEFAULT_SEED = 0
MAX_SAMPLE_COUNT = 10**5
MAX_MOMENT_ORDER = 10**5
# quantum-fraction needs O(block) memory for any count; this bounds its
# time, which grows linearly with the count.
MAX_QF_SAMPLES = 10**9


class UsageError(Exception):
    """Malformed invocation or unparseable payload; maps to exit code 2."""


def _rng(args: argparse.Namespace) -> coinsim.RngSpec:
    """The spec for ``--seed``, else for ``$SPINCOINS_SEED``, else for ``DEFAULT_SEED``."""
    raw = os.environ.get(SEED_ENV_VAR, DEFAULT_SEED) if args.seed is None else args.seed
    try:
        seed = int(raw)
    except ValueError:  # only the environment variable can hold a non-integer
        raise UsageError(f"{SEED_ENV_VAR}={raw!r} is not an integer seed") from None
    return coinsim.RngSpec(seed=seed)


def _json_argument(raw: str, field: str) -> Any:
    """Parse an inline JSON argument, or read it from a file path; input is strict JSON, as output is."""
    text = raw.strip()
    if not text.startswith(("{", "[")):
        try:
            text = Path(raw).read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"{field}: cannot read file {raw!r} ({exc.strerror})") from None
        except ValueError as exc:  # not UTF-8, or a NUL byte in the path
            raise UsageError(f"{field}: cannot read file {raw!r} ({exc})") from None

    def reject_constant(token: str) -> Any:
        raise UsageError(f"{field}: malformed JSON ({token} is not a JSON number)")

    try:
        return json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{field}: malformed JSON ({exc.msg} at position {exc.pos})") from None
    except (ValueError, RecursionError) as exc:  # an integer past Python's digit limit, or nesting too deep
        raise UsageError(f"{field}: unreadable JSON ({exc})") from None


def _state(raw: str, field: str = "state") -> core.ProbabilityTriple:
    return core.ProbabilityTriple.from_dict(_json_argument(raw, field))


def _observable(raw: str, field: str = "obs") -> observables.GameObservable:
    return observables.GameObservable.from_dict(_json_argument(raw, field))


def _cmd_validate(args: argparse.Namespace) -> dict[str, Any]:
    report = core.quantum_validity(_state(args.state))
    return report.to_dict()


def _cmd_to_density(args: argparse.Namespace) -> dict[str, Any]:
    return core.probs_to_density(_state(args.state)).to_dict()


def _cmd_to_probs(args: argparse.Namespace) -> dict[str, Any]:
    rho = core.DensityMatrix.from_dict(_json_argument(args.matrix, "matrix"))
    return core.density_to_probs(rho).to_dict()


def _cmd_overlap(args: argparse.Namespace) -> dict[str, Any]:
    p = _state(args.state_p, "state_p")
    q = _state(args.state_q, "state_q")
    return {"overlap": core.overlap(p, q)}


def _cmd_area(args: argparse.Namespace) -> dict[str, Any]:
    triad = suprematism.side_lengths(_state(args.state))
    return {"sides": list(triad.sides), "area_sum": triad.area_sum}


def _cmd_render(args: argparse.Namespace) -> None:
    triad = suprematism.side_lengths(_state(args.state))
    svg = suprematism.render_triad_svg(triad, scale=args.scale)
    Path(args.out).write_bytes(svg.encode("utf-8"))


def _at_most(value: int, bound: int, flag: str) -> int:
    if value > bound:
        raise ValueError(f"{flag} must be at most {bound}, got {value}")
    return value


def _cmd_moments(args: argparse.Namespace) -> dict[str, Any]:
    n = _at_most(args.n, MAX_MOMENT_ORDER, "--n")
    seq = observables.moments(_state(args.state), _observable(args.obs), n)
    return seq.to_dict()


def _cmd_genfun(args: argparse.Namespace) -> dict[str, Any]:
    value = observables.generating_function(
        _state(args.state), _observable(args.obs), args.lam
    )
    return {"lambda": args.lam, "value": value}


def _cmd_simulate(args: argparse.Namespace) -> dict[str, Any]:
    state = _state(args.state)
    obs = _observable(args.obs)
    rng = _rng(args)
    record = coinsim.toss(state, args.n_tosses, rng)
    stats = coinsim.estimate(record, obs)
    payload: dict[str, Any] = {
        "n_tosses": record.n_tosses,
        "heads_counts": list(record.heads_counts),
    }
    payload.update(stats.to_dict())
    payload["seed"] = rng.seed
    payload["algorithm"] = rng.algorithm
    return payload


def _cmd_sample(args: argparse.Namespace) -> dict[str, Any]:
    rng = _rng(args)
    states = coinsim.sample_states(args.region, _at_most(args.count, MAX_SAMPLE_COUNT, "--count"), rng)
    return {
        "region": args.region,
        "seed": rng.seed,
        "algorithm": rng.algorithm,
        "states": [s.to_dict() for s in states],
    }


def _cmd_max_area(args: argparse.Namespace) -> dict[str, Any]:
    return suprematism.maximize_area(args.region).to_dict()


def _cmd_quantum_fraction(args: argparse.Namespace) -> dict[str, Any]:
    rng = _rng(args)
    fraction = coinsim.quantum_fraction(_at_most(args.n_samples, MAX_QF_SAMPLES, "--n-samples"), rng)
    return {
        "n_samples": args.n_samples,
        "fraction": fraction,
        "seed": rng.seed,
        "algorithm": rng.algorithm,
    }


def _add_seed_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"RNG seed (default: ${SEED_ENV_VAR} if set, else {DEFAULT_SEED})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincoins",
        description="Three-coin probability representation of single-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add(name: str, handler: Callable[[argparse.Namespace], Any], help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("validate", _cmd_validate, "quantum-admissibility report for a state")
    p.add_argument("state", help='state JSON {"p1":..,"p2":..,"p3":..} or a file path')

    p = add("to-density", _cmd_to_density, "map a state to its density matrix")
    p.add_argument("state", help="state JSON or file path")

    p = add("to-probs", _cmd_to_probs, "map a density matrix back to a state")
    p.add_argument("matrix", help='matrix JSON {"m":[[re,im],...]} or a file path')

    p = add("overlap", _cmd_overlap, "overlap Tr(rho_p rho_q) of two states")
    p.add_argument("state_p", help="first state JSON or file path")
    p.add_argument("state_q", help="second state JSON or file path")

    p = add("area", _cmd_area, "Malevich triad side lengths and summed area")
    p.add_argument("state", help="state JSON or file path")

    p = add("render", _cmd_render, "render the Malevich triad to an SVG file")
    p.add_argument("state", help="state JSON or file path")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument(
        "--scale", type=float, default=100.0, help=f"pixels per unit side length (at most {suprematism.MAX_SCALE:g})"
    )

    p = add("moments", _cmd_moments, "observable moments m_0..m_N from the two-point law")
    p.add_argument("--state", required=True, help="state JSON or file path")
    p.add_argument("--obs", required=True, help='payoffs JSON {"x":..,"y":..,"z1":..,"z2":..}')
    p.add_argument("--n", type=int, required=True, help=f"highest moment order N (at most {MAX_MOMENT_ORDER})")

    p = add("genfun", _cmd_genfun, "moment generating function at one point")
    p.add_argument("--state", required=True, help="state JSON or file path")
    p.add_argument("--obs", required=True, help="payoffs JSON or file path")
    p.add_argument("--lam", type=float, required=True, help="evaluation point lambda")

    p = add("simulate", _cmd_simulate, "toss the coins and estimate payoff statistics")
    p.add_argument("--state", required=True, help="state JSON or file path")
    p.add_argument("--obs", required=True, help="payoffs JSON or file path")
    p.add_argument("--n-tosses", type=int, required=True, help="tosses per coin (at most 2**63 - 1)")
    _add_seed_option(p)

    p = add("sample", _cmd_sample, "draw random states from a region")
    p.add_argument("--region", choices=("cube", "ball", "sphere"), required=True)
    p.add_argument("--count", type=int, default=1, help=f"number of states to draw (at most {MAX_SAMPLE_COUNT})")
    _add_seed_option(p)

    p = add("max-area", _cmd_max_area, "exact maximum of the summed square area over a region")
    p.add_argument("--region", choices=("cube", "ball"), required=True)

    p = add("quantum-fraction", _cmd_quantum_fraction, "Monte Carlo ball/cube volume ratio")
    p.add_argument("--n-samples", type=int, required=True, help=f"cube samples (at least 1000, at most {MAX_QF_SAMPLES})")
    _add_seed_option(p)

    return parser


def run(argv: list[str] | None = None, stdout: TextIO | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.handler(args)
        text = None if payload is None else json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"usage error: cannot write output ({exc.strerror})", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    if text is not None:
        out.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
