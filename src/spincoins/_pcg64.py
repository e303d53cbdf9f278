"""numpy's seeded PCG64 stream without ``numpy.random``: in pure Python, or filled in numpy's uint64 arithmetic.

``Stream(seed, stream)`` gives, draw for draw, what ``RngSpec(seed, stream).generator()``
gives: the same seeding, ``SeedSequence(entropy=seed, spawn_key=(stream,))`` then
``PCG64`` (O'Neill, HMC-CS-2014-0905); ``random()`` as ``Generator.random``;
``binomial(n, p)`` as ``Generator.binomial`` for n up to 2**53, by numpy's
inversion and BTPE branches (Kachitvichyanukul & Schmeiser, CACM 31(2), 1988);
and ``fill(out)``, for a C-contiguous float64 ``out`` of at least one element,
as ``Generator.random(out=out)``. ``fill`` steps many LCG states at once by
jump-ahead constants (Brown, "Random number generation with arbitrary
strides", Trans. ANS 71, 1994), each state a pair of uint64 words. The tests
compare each draw with numpy's.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
# SeedSequence's hash constants, and its pool of four uint32 words.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier.
_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
# Doubles per step of fill; a whole block at once would raise the peak RSS by its temporaries.
_CHUNK = 4096


def _words(value: int) -> list[int]:
    """``value`` as little-endian uint32 words, as SeedSequence splits an int; 0 is one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_words(seed: int, stream: int) -> list[int]:
    """``SeedSequence(entropy=seed, spawn_key=(stream,)).generate_state(8)``: eight uint32 words."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    # With a spawn key present, numpy pads the seed's words with zeros to the pool size.
    seed_words = _words(seed)
    entropy = seed_words + [0] * (_POOL_SIZE - len(seed_words)) + _words(stream)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, out = _INIT_B, []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return out


class Stream:
    """One seeded PCG64 stream: ``random`` and ``binomial`` draw from it as numpy's Generator does."""

    __slots__ = ("_state", "_increment", "_lanes")

    def __init__(self, seed: int, stream: int) -> None:
        words = _seed_words(seed, stream)
        # generate_state(4, uint64) pairs the words little-endian: the first two uint64 are
        # the initial state, high word first, the last two the sequence.
        u64 = [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]
        state, sequence = u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]
        # pcg_setseq_128_srandom_r: step from 0, add the initial state, step again.
        self._increment = (sequence << 1 | 1) & _MASK128
        self._state = ((self._increment + state) * _MULTIPLIER + self._increment) & _MASK128
        # the state the last fill left, with its last chunk's states and jump; None unless that chunk was whole
        self._lanes: tuple[int, np.ndarray, np.ndarray, int, int] | None = None

    def random(self) -> float:
        """The next double in [0, 1): the top 53 bits of the next 64-bit output."""
        self._state = state = (self._state * _MULTIPLIER + self._increment) & _MASK128
        value, rotation = (state >> 64 ^ state) & _MASK64, state >> 122  # XSL-RR of the new state
        return (((value >> rotation | value << 64 - rotation) & _MASK64) >> 11) * 2.0**-53

    def fill(self, out: np.ndarray) -> None:
        """Write the next ``out.size`` doubles into ``out``, as ``Generator.random(out=out)`` does.

        ``out`` must be a C-contiguous float64 array of at least one element; neither is checked.
        The first chunk's states grow from one LCG step by leapfrog: the next k states are
        a s + c of the k so far, and (a, c) becomes (a^2, a c + c), the jump of 2k steps.
        Each later chunk is the one before it moved by the jump of a whole chunk. A fill that
        ends on a whole chunk keeps that chunk's states and jump, and the next fill resumes from
        them while the stream is still where that fill left it, instead of growing them again.
        """
        import numpy as np

        flat, n, size = out.reshape(-1), out.size, min(out.size, _CHUNK)
        if self._lanes is not None and self._lanes[0] == self._state:
            _, lo, hi, mult, add = self._lanes
            lo, hi = _mul_add(lo[:size], hi[:size], mult, add)
        else:
            state = (self._state * _MULTIPLIER + self._increment) & _MASK128
            lo, hi = np.array([state & _MASK64], np.uint64), np.array([state >> 64], np.uint64)
            mult, add = _MULTIPLIER, self._increment
            while lo.size < size:
                next_lo, next_hi = _mul_add(lo, hi, mult, add)
                lo, hi = np.concatenate((lo, next_lo)), np.concatenate((hi, next_hi))
                mult, add = mult * mult & _MASK128, (mult * add + add) & _MASK128
            lo, hi = lo[:size], hi[:size]
        start = 0
        while True:
            value, rotation = hi ^ lo, hi >> 58  # XSL-RR, with the left shift kept below 64
            value = value >> rotation | value << ((64 - rotation) & 63)
            np.multiply(value >> 11, 2.0**-53, out=flat[start : start + size])
            start += size
            if start == n:
                break
            size = min(n - start, _CHUNK)
            lo, hi = _mul_add(lo[:size], hi[:size], mult, add)
        self._state = int(hi[-1]) << 64 | int(lo[-1])
        # (mult, add) is the jump of a whole chunk whenever a chunk is whole
        self._lanes = (self._state, lo, hi, mult, add) if size == _CHUNK else None

    def binomial(self, n: int, p: float) -> int:
        """Heads among ``n`` tosses of a coin with heads probability ``p``, for n from 0 to 2**53."""
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            return self._inversion(n, p) if p * n <= 30.0 else self._btpe(n, p)
        q = 1.0 - p
        return n - (self._inversion(n, q) if q * n <= 30.0 else self._btpe(n, q))

    # Both branches follow numpy's C line by line. Where C converts an int64 to a double, Python
    # converts the int to the same float, inside int-float arithmetic or by an explicit float():
    # comparisons need the explicit one, as Python compares an int with a float exactly.

    def _inversion(self, n: int, p: float) -> int:
        q = 1.0 - p
        qn = math.exp(n * math.log1p(-p))
        mean = n * p
        bound = int(min(float(n), mean + 10.0 * math.sqrt(mean * q + 1)))
        x, px, u = 0, qn, self.random()
        while u > px:
            x += 1
            if x > bound:
                x, px, u = 0, qn, self.random()
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        return x

    def _btpe(self, n: int, p: float) -> int:
        """BTPE for p <= 1/2: a triangle, two parallelograms and two exponential tails over the pmf."""
        r, q = p, 1.0 - p
        fm = n * r + r
        m = math.floor(fm)
        p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl, xr = xm - p1, xm + p1
        c = 0.134 + 20.5 / (15.3 + m)
        a = (fm - xl) / (fm - xl * r)
        laml = a * (1.0 + a / 2.0)
        a = (xr - fm) / (xr * q)
        lamr = a * (1.0 + a / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3 = p2 + c / laml
        p4 = p3 + c / lamr
        nrq = n * r * q
        while True:
            u = self.random() * p4
            v = self.random()
            if not u > p1:
                return math.floor(xm - p1 * v + u)
            if not u > p2:
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = math.floor(x)
            elif not u > p3:
                if v == 0.0:  # C takes log(0), then rejects
                    continue
                y = math.floor(xl + math.log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:
                if v == 0.0:
                    continue
                y = math.floor(xr - math.log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr
            k = abs(y - m)
            if not (k > 20 and float(k) < nrq / 2.0 - 1):
                # f(y) / f(m) by the pmf's recurrence
                s = r / q
                a = s * (n + 1)
                f = 1.0
                for i in range(m + 1, y + 1):
                    f *= a / i - s
                for i in range(y + 1, m + 1):
                    f /= a / i - s
                if v > f:
                    continue
                return y
            # squeeze on log(f(y) / f(m)), then its Stirling bound
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.1666666666666) / nrq + 0.5)
            t = float(-k * k) / (2 * nrq)
            if not v > 0.0:  # C's log gives -inf or NaN here, and either accepts
                return y
            log_v = math.log(v)
            if log_v < t - rho:
                return y
            if log_v > t + rho:
                continue
            # numpy sums z in doubles: at n = 2**53, n + 1 rounds to n
            x1, f1, z, w = float(y + 1), float(m + 1), n + 1.0 - m, float(n - y + 1)
            bound = (xm * math.log(f1 / x1) + (float(n - m) + 0.5) * math.log(z / w)
                     + (y - m) * math.log(w * r / (x1 * q))
                     + _stirling(f1) + _stirling(z) + _stirling(x1) + _stirling(w))
            if log_v > bound:
                continue
            return y


def _mul_add(lo: np.ndarray, hi: np.ndarray, mult: int, add: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi 2^64 + lo) mult + add mod 2^128 of uint64 word arrays, as new arrays; lo mult's high word is built from 32-bit halves.

    Every operand is a uint64 array or a Python int below 2^64, so numpy neither promotes to
    float64 nor warns of a scalar overflow; uint64 array arithmetic wraps silently.
    """
    m_lo, a_lo = mult & _MASK64, add & _MASK64
    x0, x1, y0, y1 = lo & _MASK32, lo >> 32, m_lo & _MASK32, m_lo >> 32
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    carry = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    new_lo = lo * m_lo + a_lo
    new_hi = x1 * y1 + (p01 >> 32) + (p10 >> 32) + (carry >> 32) + lo * (mult >> 64) + hi * m_lo + (add >> 64) + (new_lo < a_lo)
    return new_lo, new_hi


def _stirling(x: float) -> float:
    """The tail of Stirling's series for log x!, as BTPE evaluates it."""
    x2 = x * x
    return (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.
