"""Seeded Monte Carlo for the three-coin model: tosses, estimators, samplers.

The three coins are always tossed independently. The quantum-ball
constraint restricts which parameter triples describe a qubit; it does not
correlate the toss outcomes themselves. Every sampler takes an explicit
:class:`RngSpec` so results are bit-for-bit reproducible, and all of
them draw rows through one array path, in bounded blocks.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, ClassVar, Literal

from .core import (
    BALL_CENTER,
    BALL_RADIUS_SQ,
    QUANTUM_BALL_ATOL,
    InvalidProbabilityError,
    ProbabilityTriple,
    _is_number,
    _is_numpy,
    _radius_squared,
    _show,
)
from .observables import GameObservable

if TYPE_CHECKING:
    import numpy as np

SampleRegion = Literal["cube", "ball", "sphere"]

# Most tosses per coin: numpy's binomial takes the count as a C long.
MAX_TOSSES = 2**63 - 1
# Rows per array draw; bounds the samplers' temporaries at a few MB.
_BLOCK_ROWS = 2**16
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
        seed = _as_int(self.seed, "seed")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must fit an unsigned 64-bit integer, got {seed}")
        stream = _as_int(self.stream, "stream")
        if stream < 0:
            raise ValueError(f"stream must be a nonnegative integer, got {stream!r}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream", stream)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this spec's stream."""
        import numpy as np

        sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(sequence))

    def with_stream(self, stream: int) -> "RngSpec":
        """Sibling spec drawing from an independent substream of the same seed."""
        return replace(self, stream=stream)


def _as_int(value: object, name: str) -> int:
    """``value`` as a Python int: an int, numpy ones included, never a bool; else ValueError naming ``name``."""
    if type(value) is int:  # the common case, tested first to keep the record cheap
        return value
    if not ((isinstance(value, int) or _is_numpy(value, "integer")) and _is_number(value)):
        raise ValueError(f"{name} must be an integer, got {_show(value)}")
    return int(value)


_COUNT_NAMES = tuple(f"heads_counts[{k}]" for k in range(3))


@dataclass(frozen=True, slots=True)
class TossRecord:
    """Raw outcome of tossing each coin ``n_tosses`` times.

    Both fields take ints (numpy ones included, never a bool); the counts
    are stored as a tuple of Python ints.
    """

    n_tosses: int
    heads_counts: tuple[int, int, int]

    def __post_init__(self) -> None:
        n = _as_int(self.n_tosses, "n_tosses")
        if n < 1:
            raise ValueError(f"n_tosses must be at least 1, got {n}")
        try:
            counts = tuple(self.heads_counts)
        except TypeError:  # not iterable
            raise ValueError(f"heads_counts must hold exactly three counts, got {_show(self.heads_counts)}") from None
        if len(counts) != 3:
            raise ValueError("heads_counts must hold exactly three counts")
        counts = tuple(map(_as_int, counts, _COUNT_NAMES))
        for k, count in enumerate(counts):
            if not 0 <= count <= n:
                raise ValueError(f"heads_counts[{k}]={count} outside [0, {n}]")
        object.__setattr__(self, "n_tosses", n)
        object.__setattr__(self, "heads_counts", counts)


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
    (numpy ones included, never a bool) from 1 to :data:`MAX_TOSSES`.
    """
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > MAX_TOSSES:
        raise ValueError(f"n must be at most 2**63 - 1, got {n}")
    # three scalar draws in coin order give the counts of one array draw, as Python ints
    binomial = rng.generator().binomial
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
        return rows[_radius_squared(*(rows - BALL_CENTER).T) <= BALL_RADIUS_SQ]
    if region == "sphere":
        rows = gen.standard_normal((n, 3))
        norm = np.sqrt(_radius_squared(*rows.T))
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
    """
    import numpy as np

    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
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

    if n_samples < 1000:
        raise ValueError(f"n_samples must be at least 1000, got {n_samples}")
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
                hits[k] += int(np.count_nonzero(_radius_squared(*rows.T) <= BALL_RADIUS_SQ + QUANTUM_BALL_ATOL))
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
