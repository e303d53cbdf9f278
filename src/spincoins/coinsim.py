"""Seeded Monte Carlo for the three-coin model: tosses, estimators, samplers.

The three coins are always tossed independently. The quantum-ball
constraint restricts which parameter triples describe a qubit; it does not
correlate the toss outcomes themselves. Every sampler takes an explicit
:class:`RngSpec` so results are bit-for-bit reproducible. There are two
ways to draw its one PCG64 stream, and they give the same numbers:

- the pure-Python copy ``spincoins._pcg64.Stream``, one double at a time, in a
  process that has not imported numpy, which it spares numpy's import, for
  tosses, samples of up to ``_PURE_MAX_COUNT`` rows and ``quantum_fraction``
  counts of up to ``_PURE_MAX_SAMPLES``;
- numpy's ``Generator`` otherwise.

``_pure_stream`` makes this choice for all three callers.

Every sampler maps uniform doubles with IEEE-exact operations only, so each
way gives the same rows: the sphere's by Marsaglia's method (Ann. Math. Stat.
43(2), 1972).
"""

from __future__ import annotations

import gc
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Literal

from .core import (
    BALL_CENTER,
    BALL_RADIUS_SQ,
    MAX_SEED,
    MAX_TOSSES,
    ProbabilityTriple,
    _as_int,
    _dot,
    _in_ball,
    _show,
)

if TYPE_CHECKING:
    import numpy as np

    from ._pcg64 import Stream
    from .observables import GameObservable

SampleRegion = Literal["cube", "ball", "sphere"]

# Rows in all of quantum_fraction's buffers and masks together (33 bytes a row, 2.2 MB).
_BLOCK_ROWS = 2**16
# Most draws in one of sample_states' blocks, each made triples before the next is drawn (at most 96 KiB of doubles).
_SAMPLE_DRAWS = 2**12
# Most rows sample_states draws without numpy. Measured on a shared 2-CPU host: 5000 ball rows
# took 30-50 ms in pure Python, against 80-110 ms for importing numpy and drawing them there.
_PURE_MAX_COUNT = 5000
# Most samples quantum_fraction counts without numpy: at 10^5, 16.3 against numpy's 29.7 MB of RSS but 288 against 221 ms
# (CLI child medians; shared 2-vCPU host, Python 3.11.7, numpy 2.4.6). Kept, as cli_mix's 10^5-sample call is its one child
# above the harness's own RSS: numpy there would read about +24% on its peak_rss_mb.
_PURE_MAX_SAMPLES = 2**17 - 1
# Most threads quantum_fraction splits its stream over; keeps blocks of at least 2^13 rows, with little Python per row.
_MAX_WORKERS = 8
_ACCEPTANCE = {"cube": 1.0, "ball": math.pi / 6, "sphere": math.pi / 4}  # share of draws kept; sizes each block


@dataclass(frozen=True, slots=True)
class RngSpec:
    """Seeded random generator specification; the bit generator is always PCG64.

    Identical specs produce bit-identical draws. ``stream`` selects an
    independent substream of the same seed, so parallel sampling stays
    reproducible. A single stream is one sequence of 64-bit outputs; a
    generator moved ahead with ``bit_generator.advance(k)`` starts exactly
    at its k-th output, which splits a stream into contiguous parts exactly.
    """

    seed: int
    stream: int = 0
    algorithm: ClassVar[str] = "pcg64"

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", 0, MAX_SEED))
        object.__setattr__(self, "stream", _as_int(self.stream, "stream", 0))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this spec's stream."""
        import numpy as np

        sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(sequence))


def _pure_stream(rng: RngSpec, count: int, most: int) -> Stream | None:
    """``rng``'s stream drawn in pure Python for a call of ``count`` rows, or None when numpy's ``Generator`` draws them.

    One rule for every caller: the pure stream draws in a process that has not imported numpy, which it spares
    that import, and for at most ``most`` rows, the caller's limit: one for a ``toss``, which draws one row,
    ``_PURE_MAX_COUNT`` for ``sample_states`` and ``_PURE_MAX_SAMPLES`` for ``quantum_fraction``. It imports
    nothing to decide.
    """
    if "numpy" in sys.modules or count > most:
        return None
    from ._pcg64 import Stream

    return Stream(rng.seed, rng.stream)


_COUNT_NAMES = tuple(f"heads_counts[{k}]" for k in range(3))


@dataclass(frozen=True, slots=True)
class TossRecord:
    """Raw outcome of tossing each coin ``n_tosses`` times.

    Both fields take ints (numpy ones included, never a bool): ``n_tosses``
    at least 1 and each count from 0 to ``n_tosses``. The counts are stored
    as a tuple of Python ints.
    """

    n_tosses: int
    heads_counts: tuple[int, int, int]

    def __post_init__(self) -> None:
        n = _as_int(self.n_tosses, "n_tosses", 1)
        try:
            counts = tuple(self.heads_counts)
        except TypeError:  # not iterable
            raise ValueError(f"heads_counts must hold exactly three counts, got {_show(self.heads_counts)}") from None
        if len(counts) != 3:
            raise ValueError("heads_counts must hold exactly three counts")
        object.__setattr__(self, "n_tosses", n)
        object.__setattr__(self, "heads_counts", tuple(map(_as_int, counts, _COUNT_NAMES, (0, 0, 0), (n, n, n))))


@dataclass(frozen=True, slots=True)
class SampleStats:
    """Empirical triple and per-coin payoff means derived from a record."""

    p_hat: ProbabilityTriple
    mean_x: float
    mean_y: float
    mean_z: float
    stderr: tuple[float, float, float]

    @property
    def mean_total(self) -> float:
        """Empirical estimate of the game average <A> = <X> + <Y> + <Z>."""
        return self.mean_x + self.mean_y + self.mean_z

    def to_dict(self) -> dict:
        return {
            "p_hat": self.p_hat.to_dict(),
            "mean_x": self.mean_x,
            "mean_y": self.mean_y,
            "mean_z": self.mean_z,
            "mean_total": self.mean_total,
            "stderr": list(self.stderr),
        }


def toss(p: ProbabilityTriple, n: int, rng: RngSpec) -> TossRecord:
    """Toss the three coins ``n`` times each, independently.

    The counts are three binomial draws with success probabilities
    (p1, p2, p3); fixing the spec fixes the record exactly. ``n`` is an int
    (numpy ones included, never a bool) from 1 to :data:`MAX_TOSSES`, so every count is
    exact. ``_pure_stream`` chooses the stream that draws them; each gives the counts numpy's
    ``Generator`` would.
    """
    n = _as_int(n, "n", 1, MAX_TOSSES)
    binomial = (_pure_stream(rng, 1, 1) or rng.generator()).binomial
    # three scalar draws in coin order give the counts of one array draw, as Python ints
    return TossRecord(n_tosses=n, heads_counts=(binomial(n, p.p1), binomial(n, p.p2), binomial(n, p.p3)))


def estimate(record: TossRecord, obs: GameObservable) -> SampleStats:
    """Empirical frequencies and payoff means for a toss record.

    The coin means are the observable's at p^, so their sum, ``mean_total``,
    is ``observables.mean(p_hat, obs)`` bit for bit. Standard errors are the
    binomial sqrt(p^ (1 - p^) / n).
    """
    n = record.n_tosses
    p_hat = tuple(count / n for count in record.heads_counts)
    stderr = tuple(math.sqrt(ph * (1.0 - ph) / n) for ph in p_hat)
    mean_x, mean_y, mean_z = obs._coin_means(*p_hat)
    return SampleStats(ProbabilityTriple(*p_hat), mean_x, mean_y, mean_z, stderr)


def _on_sphere(u, v, s, sqrt):
    """Marsaglia's point (1/2 + u k, 1/2 + v k, 1 - s), k = sqrt(1 - s), of a pair in the unit disc, s = u^2 + v^2 < 1.

    It is 1/2 + 1/2 (2u k, 2v k, 1 - 2s), a uniform point of the pure-state
    sphere. Takes floats with ``math.sqrt`` or arrays with ``np.sqrt``, which
    round alike, so the pure and the array paths give the same bits.
    """
    k = sqrt(1.0 - s)
    return BALL_CENTER + u * k, BALL_CENTER + v * k, 1.0 - s


def _draw(region: SampleRegion, random: Callable[..., np.ndarray], n: int) -> list[list[float]]:
    """The accepted rows among the next ``n`` draws of ``random``, a ``Generator``'s bound method, as three columns.

    A cube or ball draw is three doubles; ball rows are the cube rows with
    r^2 <= 1/4 (acceptance rate pi/6). A sphere draw is two doubles, u and
    v = 2 x - 1, kept when s = u^2 + v^2 < 1 (acceptance rate pi/4) and
    mapped onto the sphere by ``_on_sphere``, then clamped to [0, 1]: rounding
    can take a coordinate, whose exact value lies in [0, 1], 2^-53 past 0 or
    1, about once in 10^18 rows.
    """
    import numpy as np

    if region == "sphere":
        u, v = 2.0 * random((n, 2)).T - 1.0
        s = u * u + v * v
        keep = s < 1.0
        return np.clip(_on_sphere(u[keep], v[keep], s[keep], np.sqrt), 0.0, 1.0).tolist()
    rows = random((n, 3))
    if region == "ball":
        centred = (rows - BALL_CENTER).T
        rows = rows[_dot(centred, centred) <= BALL_RADIUS_SQ]
    return rows.T.tolist()


def _pure_draw(region: SampleRegion, random: Callable[[], float], n: int) -> list[list[float]]:
    """The accepted rows among the next ``n`` draws of ``random``, one double a call, drawn and clamped without numpy as ``_draw`` draws them."""
    columns: list[list[float]] = [[], [], []]
    for _ in range(n):
        if region == "sphere":
            u, v = 2.0 * random() - 1.0, 2.0 * random() - 1.0
            s = u * u + v * v
            if s >= 1.0:
                continue
            # np.clip's values by comparisons; min(max(x, 0.0), 1.0) costs about 1 us more a row
            row = [0.0 if x < 0.0 else 1.0 if x > 1.0 else x for x in _on_sphere(u, v, s, math.sqrt)]
        else:
            row = (random(), random(), random())
            if region == "ball":
                centred = [x - BALL_CENTER for x in row]
                if _dot(centred, centred) > BALL_RADIUS_SQ:
                    continue
        for column, x in zip(columns, row):
            column.append(x)
    return columns


def sample_states(region: SampleRegion, count: int, rng: RngSpec) -> list[ProbabilityTriple]:
    """Draw ``count`` triples sequentially from a single stream: its first ``count`` accepted rows.

    ``_pure_stream`` chooses the stream once, and with it the draw: the
    pure-Python ``_pure_draw`` or numpy's ``_draw``, which keep the same rows
    of the same draws. One loop draws blocks of at most ``_SAMPLE_DRAWS``
    draws, each sized by the region's acceptance rate to the rows still
    missing, and makes each block's rows triples before it draws the next,
    so beyond the triples it holds one block's columns for any count. Both
    draws bound their rows in [0, 1] where they build them, so the rows are
    not checked again: they become triples through the trusted bulk
    constructor ``ProbabilityTriple._from_columns``, which fills them column
    by column with no per-field validation and no Python code per triple.
    The cyclic garbage collector is paused for the call, safely, as a
    triple holds only floats and is in no cycle; it is switched back on
    after, only if it was on at entry. The pause is process-wide: another
    thread that switches it meanwhile can be overridden.
    """
    count = _as_int(count, "count", 1)
    if region not in ("cube", "ball", "sphere"):
        raise ValueError(f"region must be 'cube', 'ball' or 'sphere', got {_show(region)}")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        stream = _pure_stream(rng, count, _PURE_MAX_COUNT)
        draw, random = (_draw, rng.generator().random) if stream is None else (_pure_draw, stream.random)
        states: list[ProbabilityTriple] = []
        while len(states) < count:
            columns = draw(region, random, min(math.ceil((count - len(states)) / _ACCEPTANCE[region]), _SAMPLE_DRAWS))
            for column in columns:
                del column[count - len(states) :]
            states += ProbabilityTriple._from_columns(*columns)
        return states
    finally:
        if gc_was_enabled:
            gc.enable()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _count_hits(random: Callable[..., object], rows: np.ndarray, total: np.ndarray) -> int:
    """Ball hits among the next ``len(rows)`` cube rows that ``random(out=rows)`` draws, counted in place in these buffers, in ``_dot``'s order."""
    import numpy as np

    random(out=rows)
    rows -= BALL_CENTER
    rows *= rows
    np.add(rows[:, 0], rows[:, 1], out=total)
    total += rows[:, 2]
    return int(np.count_nonzero(_in_ball(total)))


def quantum_fraction(n_samples: int, rng: RngSpec) -> float:
    """Fraction of uniform cube samples that are quantum-admissible.

    Converges to the ball/cube volume ratio pi/6 ~ 0.5235988 as the sample count grows. Where
    ``_pure_stream`` chooses the pure stream (up to ``_PURE_MAX_SAMPLES`` samples, in a process without
    numpy), each row is drawn and tested by ``_in_ball(_dot(d, d))`` in turn: the doubles, the sum order
    and the ball test of ``_count_hits``, so the fraction is the same bit for bit, with no import and no
    thread. Otherwise the rows come from numpy's ``Generator``. The rows of one stream are split into
    contiguous chunks, one per usable CPU (at most ``_MAX_WORKERS``, each of at least ``_BLOCK_ROWS``
    rows), counted in parallel threads from generators advanced to each chunk's first row, so every row
    is the one a sequential pass would draw and the result is bit-identical for any CPU count. The
    caller allocates each thread's buffers before any starts, 32 bytes a row, for blocks of
    ``_BLOCK_ROWS // max(2, workers)`` rows (a lone thread's 1.1 MB fit a core's 2 MB L2); with each
    block's 1-byte ball-test mask, all of them hold at most ``_BLOCK_ROWS`` rows, 2.2 MB.
    """
    n_samples = _as_int(n_samples, "n_samples", 1000)
    stream = _pure_stream(rng, n_samples, _PURE_MAX_SAMPLES)
    if stream is not None:
        random = stream.random
        rows = ((random() - BALL_CENTER, random() - BALL_CENTER, random() - BALL_CENTER) for _ in range(n_samples))
        return sum(_in_ball(_dot(d, d)) for d in rows) / n_samples
    import threading

    import numpy as np

    workers = max(1, min(_usable_cpus(), n_samples // _BLOCK_ROWS, _MAX_WORKERS))
    bounds = [n_samples * k // workers for k in range(workers + 1)]
    block = min(_BLOCK_ROWS // max(2, workers), n_samples)  # a lone worker's chunk may be shorter than its block
    # Built and advanced in the calling thread, so the threads call only private helpers. Row r starts
    # at 64-bit output 3r, one per double; RngSpec builds only PCG64, which has advance.
    gens = [rng.generator() for _ in range(workers)]
    for gen, first in zip(gens, bounds):
        gen.bit_generator.advance(3 * first)
    # Allocated here, so that no worker thread's malloc arena keeps a block of them after the call.
    buffers = [(np.empty((block, 3)), np.empty(block)) for _ in range(workers)]
    hits = [0] * workers
    errors: list[BaseException] = []

    def count(k: int) -> None:
        try:
            for start in range(bounds[k], bounds[k + 1], block):
                if errors:  # another chunk failed, or the caller was interrupted; the count is lost anyway
                    return
                hits[k] += _count_hits(gens[k].random, *(buffer[: bounds[k + 1] - start] for buffer in buffers[k]))
        except BaseException as exc:  # re-raised in the caller; a thread would drop it
            errors.append(exc)

    threads = [threading.Thread(target=count, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    count(0)
    try:
        for thread in threads:
            thread.join()
    except BaseException as exc:  # Ctrl-C in a join: stop the threads, whose count is lost
        errors.append(exc)
        raise
    if errors:
        raise errors[0]
    return sum(hits) / n_samples
