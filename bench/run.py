"""spincoins benchmark: one workload per run, end-to-end or traced per layer.

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see BENCHMARK.json for why each was chosen):

- ``cli_mix``: one-shot ``python -m spincoins.cli`` child processes, one at a time.
- ``lib_scalar``: one generated state at a time through the scalar API, in process.
- ``lib_bulk``: rounds of ``sample_states``, ``quantum_fraction`` and ``maximize_area``.

Each is a closed loop with one client and no worker threads. Every timed
output is checked after its timer stops; a failed check counts in
``failed``. ``--trace 0`` measures the end-to-end metrics. ``--trace 1``
instead wraps the public module-level functions of ``spincoins.cli``,
``core``, ``suprematism``, ``observables`` and ``coinsim`` from here, runs
a fixed traced pass of every workload's operations to get the per-layer
metrics, and repeats the selected workload's pass traced and untraced for
``--seconds`` to measure the tracing overhead. Spans are written to
``bench/out/``. The last line of stdout is the JSON result; the lines
before it give each metric by name and unit, including each workload's
own metrics (``cli_latency_p50_ms``, ``scalar_states_per_s``, ...) and
``error_rate``, and then the machine context.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schemas" / "cli_payloads.schema.json"
OUT = ROOT / "bench" / "out"
WORKLOADS = ("cli_mix", "lib_scalar", "lib_bulk")

SETUP_REPEATS = 7  # setup_s is the median of this many fresh set-ups
STARTUP_REPEATS = 5
TRACE_SCALAR_CASES = 1000
MIN_OVERHEAD_PAIRS = 3
SHOWN_FAILURES = 10

CORE_FNS = ("probs_to_density", "density_to_probs", "quantum_validity", "overlap", "bloch_to_probs", "probs_to_bloch")
SUPREMATISM_FNS = ("side_lengths", "area_sum_closed_form", "render_triad_svg")
OBSERVABLES_FNS = ("mean", "moments", "generating_function", "outcome_distribution", "second_moment")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measurement time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "spincoins" / "__init__.py", SCHEMA) if not p.is_file()]
    if missing:
        print(f"bench: {', '.join(map(str, missing))} not found; run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("SPINCOINS_SEED", None)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, workdir)
            return 0
        run = traced_run if args.trace else measured_run
        named, metrics, attempted, failed = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    named["error_rate"] = (failed / attempted, "ratio")
    for name, (value, unit) in named.items():
        print(f"{name} {value!r} {unit}")
    print("context " + json.dumps(machine_context(args.workload, args.seed, args.seconds, args.trace)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------- set-up

def set_up(workload: str, seed: int, workdir: Path) -> Any:
    """What a run needs before its first timed operation."""
    if workload == "cli_mix":
        import climix

        compileall.compile_dir(SRC, quiet=1)
        cases = climix.make_cases(seed, workdir)
        with open(workdir / "warmup.stderr", "w+b") as err:
            climix.run_child(cases[0], climix.child_env(SRC), err)
        return cases
    import lib

    return lib.scalar_cases(seed) if workload == "lib_scalar" else None


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that each do the workload's set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------- helpers

def timed(fn: Callable[..., Any], *args: Any, tracer: Any = None, name: str = "", op_id: int = 0) -> tuple[int, Any]:
    """(ns, result) of one operation; with a tracer, the operation is the root span ``name``."""
    start = time.perf_counter_ns()
    if tracer is None:
        out = fn(*args)
    else:
        tracer.op_id = op_id
        with tracer.span(name):
            out = fn(*args)
    return time.perf_counter_ns() - start, out


def percentile(values: list[int], q: int) -> float:
    """The q-th percentile, linearly interpolated between order statistics."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Failures:
    """Counts failed checks and shows the first few on stderr."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, where: str, reason: str | None) -> None:
        if reason is None:
            return
        self.count += 1
        if self.count <= SHOWN_FAILURES:
            print(f"check failed: {where}: {reason}", file=sys.stderr)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- end-to-end runs

def measured_run(workload: str, seed: int, seconds: float, workdir: Path):
    setup_s = setup_seconds(workload, seed)
    state = set_up(workload, seed, workdir)
    named, ns, peak_mb, attempted, failed = MEASURE[workload](state, seed, seconds, workdir)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "op_latency_p90_ms": (percentile(ns, 90) / 1e6, "ms"),
    }
    named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"], **named}
    return named, metrics, attempted, failed


def measure_cli(cases: list[Any], seed: int, seconds: float, workdir: Path):
    import climix

    checker = climix.Checker(SCHEMA)
    env = climix.child_env(SRC)
    order = random.Random(seed)
    failures = Failures()
    ns: list[int] = []
    peak_kib = 0
    rounds = 0
    with open(workdir / "cli.stderr", "w+b") as err:
        start = time.perf_counter()
        while rounds < climix.MIN_ROUNDS or time.perf_counter() - start < seconds:
            for case in order.sample(cases, len(cases)):
                call, elapsed, maxrss = climix.run_child(case, env, err)
                ns.append(elapsed)
                peak_kib = max(peak_kib, maxrss)
                failures.add(" ".join(case.argv)[:120], checker.failure(case, call))
            rounds += 1
    named = {
        "cli_latency_p50_ms": (statistics.median(ns) / 1e6, "ms"),
        "cli_latency_p90_ms": (percentile(ns, 90) / 1e6, "ms"),
        "cli_calls": (len(ns), "count"),
    }
    return named, ns, peak_kib / 1024.0, len(ns), failures.count


def measure_scalar(cases: list[Any], seed: int, seconds: float, workdir: Path):
    import lib

    failures = Failures()
    ns: list[int] = []
    attempted = 0
    start = time.perf_counter()
    while attempted < len(cases) or time.perf_counter() - start < seconds:
        elapsed = scalar_op_checked(lib, cases[attempted % len(cases)], failures, attempted)
        if elapsed is not None:
            ns.append(elapsed)
        attempted += 1
    named = {
        "scalar_states_per_s": (len(ns) / (sum(ns) / 1e9), "1/s"),
        "scalar_latency_p50_us": (statistics.median(ns) / 1e3, "us"),
        "scalar_latency_p99_us": (percentile(ns, 99) / 1e3, "us"),
    }
    return named, ns, own_peak_rss_mb(), attempted, failures.count


def scalar_op_checked(lib: Any, case: Any, failures: Failures, index: int, tracer: Any = None) -> int | None:
    """ns of one checked lib_scalar operation, or None when it raised."""
    try:
        elapsed, out = timed(lib.scalar_op, case, tracer=tracer, name="op.lib_scalar", op_id=index)
    except Exception as exc:  # an unexpected error is a failed operation, not the end of the run
        failures.add(f"state {index}", f"raised {exc!r}")
        return None
    failures.add(f"state {index}", lib.scalar_failure(case, out))
    return elapsed


def measure_bulk(_state: None, seed: int, seconds: float, workdir: Path):
    import lib

    rng = random.Random(seed)
    failures = Failures()
    rounds: list[int] = []
    by_kind: dict[str, list[int]] = {"sample_states": [], "quantum_fraction": [], "maximize_area": []}
    attempted = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        results = bulk_round(lib, rng.randrange(2**63), failures)
        rounds.append(sum(elapsed for _, _, elapsed, _ in results))
        for kind, _, elapsed, _ in results:
            by_kind[kind].append(elapsed)
        attempted += len(lib.bulk_calls())
    named = {
        "sample_states_per_s": (3 * lib.SAMPLE_COUNT * len(rounds) / (sum(by_kind["sample_states"]) / 1e9), "1/s"),
        "qf_samples_per_s": (lib.QF_SAMPLES / (statistics.median(by_kind["quantum_fraction"]) / 1e9), "1/s"),
        "max_area_ms": (statistics.median(by_kind["maximize_area"]) / 1e6, "ms"),
        "bulk_round_p50_ms": (statistics.median(rounds) / 1e6, "ms"),
        "bulk_rounds": (len(rounds), "count"),
    }
    return named, rounds, own_peak_rss_mb(), attempted, failures.count


def bulk_round(lib: Any, seed: int, failures: Failures, tracer: Any = None, alloc: list[float] | None = None):
    """One lib_bulk round: (kind, region, ns, output) per call that did not raise, each checked after its timer stops."""
    rng = random.Random(seed)
    results = []
    for index, (kind, region) in enumerate(lib.bulk_calls()):
        call_seed = rng.randrange(2**63)
        try:
            elapsed, out = timed(lib.bulk_call, kind, region, call_seed, alloc, tracer=tracer, name="op.lib_bulk", op_id=index)
        except Exception as exc:  # an unexpected error is a failed operation, not the end of the run
            failures.add(f"{kind}({region})", f"raised {exc!r}")
            continue
        failures.add(f"{kind}({region})", lib.bulk_failure(kind, region, out))
        results.append((kind, region, elapsed, out))
    return results


MEASURE = {"cli_mix": measure_cli, "lib_scalar": measure_scalar, "lib_bulk": measure_bulk}


# ---------------------------------------------------------------- traced run

def startup_ms() -> dict[str, tuple[float, str]]:
    """Median wall time of child processes that only start, import numpy, or import the CLI."""
    import climix

    env = climix.child_env(SRC)
    commands = {
        "startup.interpreter_ms": "pass",
        "startup.import_numpy_ms": "import numpy",
        "startup.import_spincoins_cli_ms": "import spincoins.cli",
    }
    times: dict[str, list[float]] = {name: [] for name in commands}
    for _ in range(STARTUP_REPEATS):
        for name, code in commands.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, env=env)
            times[name].append((time.perf_counter() - start) * 1e3)
    return {name: (statistics.median(values), "ms") for name, values in times.items()}


def traced_run(workload: str, seed: int, seconds: float, workdir: Path):
    import climix
    import lib
    import tracing
    from spincoins import cli, coinsim, core, observables, suprematism

    tracer = tracing.Tracer()

    def traced() -> Any:
        return tracing.installed(
            tracer,
            [cli, core, suprematism, observables, coinsim],
            [
                (coinsim.RngSpec, "generator", "coinsim.RngSpec.generator"),
                (coinsim, "sample_states", lambda region, *_a, **_k: f"coinsim.sample_states.{region}"),
            ],
        )

    failures = Failures()
    attempted = 0
    extras: dict[str, float] = {}

    cli_cases = climix.make_cases(seed, workdir)
    checker = climix.Checker(SCHEMA)
    scalar_cases = lib.scalar_cases(seed)[:TRACE_SCALAR_CASES]
    bulk_seed = random.Random(seed).randrange(2**63)

    def cli_pass(tr: Any, _alloc: Any = None) -> int:
        total = 0
        extras["cli_stdout_bytes"] = 0
        for index, case in enumerate(cli_cases):
            elapsed, call = timed(climix.run_in_process, case, cli.run, tracer=tr, name="op.cli_mix", op_id=index)
            total += elapsed
            extras["cli_stdout_bytes"] += len(call.stdout)
            failures.add(" ".join(case.argv)[:120], checker.failure(case, call))
        return total

    def scalar_pass(tr: Any, _alloc: Any = None) -> int:
        return sum(scalar_op_checked(lib, case, failures, i, tr) or 0 for i, case in enumerate(scalar_cases))

    def bulk_pass(tr: Any, alloc: list[float] | None = None) -> int:
        results = bulk_round(lib, bulk_seed, failures, tr, alloc)
        # one call per region: 46 (ball) + 20 (cube) at the commit that defined this benchmark
        iterations = {region: out.iterations for kind, region, _, out in results if kind == "maximize_area"}
        extras["max_area_iterations"] = sum(iterations.values())
        return sum(elapsed for _, _, elapsed, _ in results)

    passes = {"cli_mix": (cli_pass, len(cli_cases)), "lib_scalar": (scalar_pass, len(scalar_cases)), "lib_bulk": (bulk_pass, len(lib.bulk_calls()))}

    startup = startup_ms()
    self_ns: dict[str, dict[str, list[int]]] = {}
    spans: dict[str, list[Any]] = {}
    alloc: list[float] = []
    for name, (run_pass, ops) in passes.items():
        run_pass(None)  # warm-up, untraced
        tracer.clear()
        with traced():
            run_pass(tracer, alloc)
        self_ns[name] = tracer.self_times_ns()
        spans[name] = list(tracer.spans)
        attempted += 2 * ops

    run_pass, ops = passes[workload]
    untraced_ns, traced_ns = [], []
    start = time.perf_counter()
    while len(traced_ns) < MIN_OVERHEAD_PAIRS or time.perf_counter() - start < seconds:
        untraced_ns.append(run_pass(None))
        tracer.clear()
        with traced():
            traced_ns.append(run_pass(tracer))
        attempted += 2 * ops
    tracer.clear()
    overhead = statistics.median(traced_ns) / statistics.median(untraced_ns)

    def us(segment: str, span: str) -> float:
        return statistics.median(self_ns[segment][span]) / 1e3

    def calls(segment: str, span: str) -> int:
        return len(self_ns[segment][span])

    metrics: dict[str, tuple[float, str]] = dict(startup)
    metrics["cli.run.self_us"] = (us("cli_mix", "cli.run"), "us")
    metrics["cli.build_parser.self_us"] = (us("cli_mix", "cli.build_parser"), "us")
    metrics["cli.run.calls"] = (calls("cli_mix", "cli.run"), "count")
    metrics["cli.stdout_bytes"] = (extras["cli_stdout_bytes"], "B")
    for fn in CORE_FNS:
        metrics[f"core.{fn}.self_us"] = (us("lib_scalar", f"core.{fn}"), "us")
        metrics[f"core.{fn}.calls"] = (calls("lib_scalar", f"core.{fn}"), "count")
    for fn in SUPREMATISM_FNS:
        metrics[f"suprematism.{fn}.self_us"] = (us("lib_scalar", f"suprematism.{fn}"), "us")
    metrics["suprematism.maximize_area.self_ms"] = (us("lib_bulk", "suprematism.maximize_area") / 1e3, "ms")
    metrics["suprematism.maximize_area.iterations"] = (extras["max_area_iterations"], "count")
    for fn in OBSERVABLES_FNS:
        metrics[f"observables.{fn}.self_us"] = (us("lib_scalar", f"observables.{fn}"), "us")
    for fn in ("toss", "estimate", "RngSpec.generator"):
        metrics[f"coinsim.{fn}.self_us"] = (us("lib_scalar", f"coinsim.{fn}"), "us")
    for region in ("cube", "ball", "sphere"):
        metrics[f"coinsim.sample_states.{region}.self_ms"] = (us("lib_bulk", f"coinsim.sample_states.{region}") / 1e3, "ms")
    metrics["coinsim.quantum_fraction.self_ms"] = (us("lib_bulk", "coinsim.quantum_fraction") / 1e3, "ms")
    metrics["coinsim.quantum_fraction.alloc_peak_mb"] = (alloc[0], "MB")
    metrics["coinsim.quantum_fraction.bytes_computed"] = (lib.QF_SAMPLES * 3 * 8, "B")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    named = {
        f"{workload}.untraced_pass_ms": (statistics.median(untraced_ns) / 1e6, "ms"),
        f"{workload}.traced_pass_ms": (statistics.median(traced_ns) / 1e6, "ms"),
        **metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as f:
        json.dump({
            "context": machine_context(workload, seed, seconds, 1),
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
            "segments": spans,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }, f)
    return named, metrics, attempted, failures.count


# ---------------------------------------------------------------- context

def machine_context(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """Where and how the numbers were taken; reads /proc and /sys only if present."""
    context: dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "quantum_fraction_bytes": "computed as n*3*8 (240 MB at n=10^7); the array is under 4x a 300 MB L3, "
                                  "so its time is not a memory-bandwidth measurement",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                context["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            context[f"l{level}_cache"] = size
    return context


if __name__ == "__main__":
    sys.exit(main())
