"""Seeded Monte Carlo for the three-coin model: tosses, estimators, samplers.

The three coins are always tossed independently. The quantum-ball
constraint restricts which parameter triples describe a qubit; it does not
correlate the toss outcomes themselves. Every sampler takes an explicit
:class:`RngSpec` so results are bit-for-bit reproducible. The array
paths draw through numpy in bounded blocks. A process that has not
imported numpy draws its tosses, and small cube and ball samples, from a
pure-Python copy of the same PCG64 stream (``spincoins._pcg64``), which
gives the same numbers without paying numpy's import.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Literal

from .core import (
    BALL_CENTER,
    BALL_RADIUS_SQ,
    InvalidProbabilityError,
    ProbabilityTriple,
    _as_int,
    _dot,
    _in_ball,
    _show,
)
from .observables import GameObservable

if TYPE_CHECKING:
    import numpy as np

SampleRegion = Literal["cube", "ball", "sphere"]

# Most tosses per coin: numpy's binomial computes a count in doubles, which hold every integer only up to 2**53.
MAX_TOSSES = 2**53
# Largest seed a spec takes: one unsigned 64-bit word.
MAX_SEED = 2**64 - 1
# Rows per array draw; bounds the samplers' temporaries at a few MB.
_BLOCK_ROWS = 2**16
# Most rows sample_states draws without numpy. Measured on a shared 2-CPU host: 5000 ball rows
# took 30-50 ms in pure Python, against 80-110 ms for importing numpy and drawing them there.
_PURE_MAX_COUNT = 5000
# Most threads quantum_fraction splits its stream over; keeps each thread's
# blocks large, so the Python held under the GIL per block stays small.
_MAX_WORKERS = 8


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


def _numpy_loaded() -> bool:
    """Whether this process has imported numpy; if not, tosses and small samples are drawn without it."""
    return "numpy" in sys.modules


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
    exact. Without numpy loaded the draws come from the pure-Python stream, which gives
    the counts numpy would.
    """
    n = _as_int(n, "n", 1, MAX_TOSSES)
    if not _numpy_loaded():
        from ._pcg64 import Stream

        binomial = Stream(rng.seed, rng.stream).binomial
    else:
        binomial = rng.generator().binomial
    # three scalar draws in coin order give the counts of one array draw, as Python ints
    return TossRecord(n_tosses=n, heads_counts=(binomial(n, p.p1), binomial(n, p.p2), binomial(n, p.p3)))


def estimate(record: TossRecord, obs: GameObservable) -> SampleStats:
    """Empirical frequencies and payoff means for a toss record.

    mean_x = (2 p^_1 - 1) x, mean_y = (2 p^_2 - 1) y and
    mean_z = p^_3 z1 + (1 - p^_3) z2, so their sum estimates the game
    average. Standard errors are the binomial sqrt(p^ (1 - p^) / n).
    """
    n = record.n_tosses
    p_hat = tuple(count / n for count in record.heads_counts)
    stderr = tuple(math.sqrt(ph * (1.0 - ph) / n) for ph in p_hat)
    return SampleStats(
        p_hat=ProbabilityTriple(*p_hat),
        mean_x=(2.0 * p_hat[0] - 1.0) * obs.x,
        mean_y=(2.0 * p_hat[1] - 1.0) * obs.y,
        mean_z=p_hat[2] * obs.z1 + (1.0 - p_hat[2]) * obs.z2,
        stderr=stderr,
    )


def _draw(region: SampleRegion, gen: np.random.Generator, n: int) -> np.ndarray:
    """Accepted rows, in stream order, among ``n`` rows drawn from ``gen``.

    Ball rows are cube rows with r^2 <= 1/4 (acceptance rate pi/6). Sphere
    rows are normal directions scaled onto the pure-state sphere; their norm
    is summed in order, not by BLAS, so the stream is the same on every build.
    """
    import numpy as np

    if region == "cube":
        return gen.random((n, 3))
    if region == "ball":
        rows = gen.random((n, 3))
        centred = (rows - BALL_CENTER).T
        return rows[_dot(centred, centred) <= BALL_RADIUS_SQ]
    if region == "sphere":
        rows = gen.standard_normal((n, 3))
        norm = np.sqrt(_dot(rows.T, rows.T))
        keep = norm > 0.0
        return BALL_CENTER + rows[keep] * (0.5 / norm[keep])[:, None]
    raise ValueError(f"region must be 'cube', 'ball' or 'sphere', got {region!r}")


def sample_states(region: SampleRegion, count: int, rng: RngSpec) -> list[ProbabilityTriple]:
    """Draw ``count`` triples sequentially from a single stream: its first ``count`` accepted rows.

    The rows are range-checked once, as one array, and a row outside
    [0, 1] (NaN included) raises :class:`InvalidProbabilityError` naming
    it. The checked rows then become triples through the trusted bulk
    constructor ``ProbabilityTriple._from_columns``, which fills them column
    by column with no per-field validation and no Python code per triple.
    Without numpy loaded, up to ``_PURE_MAX_COUNT`` cube or ball rows come
    from the pure-Python stream, one row of three doubles at a time: the
    same rows, which lie in [0, 1) by construction.
    """
    count = _as_int(count, "count", 1)
    if not _numpy_loaded() and region in ("cube", "ball") and count <= _PURE_MAX_COUNT:
        return ProbabilityTriple._from_columns(*_pure_columns(region, count, rng))
    import numpy as np

    gen = rng.generator()
    blocks, held = [], 0
    while held < count:
        blocks.append(_draw(region, gen, min(count, _BLOCK_ROWS)))
        held += len(blocks[-1])
    rows = np.concatenate(blocks)[:count]
    in_range = (rows >= 0.0) & (rows <= 1.0)
    if not in_range.all():
        bad = int(np.flatnonzero(~in_range.all(axis=1))[0])
        raise InvalidProbabilityError(f"sampled row {bad}={rows[bad].tolist()!r} is not a coin probability in [0, 1]")
    return ProbabilityTriple._from_columns(*rows.T.tolist())


def _pure_columns(region: SampleRegion, count: int, rng: RngSpec) -> tuple[list[float], list[float], list[float]]:
    """The first ``count`` accepted cube or ball rows of ``rng``'s stream, as three columns, drawn without numpy."""
    from ._pcg64 import Stream

    random = Stream(rng.seed, rng.stream).random
    columns: tuple[list[float], list[float], list[float]] = ([], [], [])
    while len(columns[0]) < count:
        row = (random(), random(), random())
        if region == "ball":
            centred = [x - BALL_CENTER for x in row]
            if _dot(centred, centred) > BALL_RADIUS_SQ:
                continue
        for column, x in zip(columns, row):
            column.append(x)
    return columns


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def quantum_fraction(n_samples: int, rng: RngSpec) -> float:
    """Fraction of uniform cube samples that are quantum-admissible.

    Converges to the ball/cube volume ratio pi/6 ~ 0.5235988 as the sample
    count grows. The rows of one stream are split into contiguous chunks,
    one per usable CPU (at most ``_MAX_WORKERS``, each of at least
    ``_BLOCK_ROWS`` rows), counted in parallel threads; each chunk's
    generator is advanced to the chunk's first row, so every row is the one
    a sequential pass would draw and the result is bit-identical for any
    CPU count. Each thread draws blocks of ``_BLOCK_ROWS // workers`` rows,
    so memory is O(``_BLOCK_ROWS``) for any count; each block is centred in
    place and its radius^2 summed with one running total.
    """
    import numpy as np

    n_samples = _as_int(n_samples, "n_samples", 1000)
    workers = max(1, min(_usable_cpus(), n_samples // _BLOCK_ROWS, _MAX_WORKERS))
    bounds = [n_samples * k // workers for k in range(workers + 1)]
    block = _BLOCK_ROWS // workers
    # Built and advanced here, in the calling thread, so the threads call only
    # private helpers. Each double from Generator.random takes one 64-bit
    # output, so row r starts at output 3r; RngSpec builds only PCG64, which
    # has advance.
    gens = [rng.generator() for _ in range(workers)]
    for gen, first in zip(gens, bounds):
        gen.bit_generator.advance(3 * first)
    hits = [0] * workers
    errors: list[BaseException] = []

    def count(k: int) -> None:
        try:
            for start in range(bounds[k], bounds[k + 1], block):
                if errors:  # another chunk failed; the count is lost anyway
                    return
                rows = _draw("cube", gens[k], min(block, bounds[k + 1] - start))
                rows -= BALL_CENTER
                hits[k] += int(np.count_nonzero(_in_ball(_dot(rows.T, rows.T))))
        except BaseException as exc:  # re-raised in the caller; a thread would drop it
            errors.append(exc)

    threads = [threading.Thread(target=count, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    count(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return sum(hits) / n_samples
