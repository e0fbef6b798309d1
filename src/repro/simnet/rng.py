"""Seeded random-number management.

Every stochastic component in the simulator (VBR traffic draws, TopoSense
backoff intervals, report jitter, ...) draws from its own :class:`Pcg64`
stream, ``Pcg64(stream_seed(seed, name))``, named where it is made and
seeded from the single experiment seed.  Seeding by *name* rather than by
creation order means adding a new random component does not perturb the
draws seen by existing ones, which keeps regression baselines stable.

:class:`Pcg64` is PCG64 (O'Neill 2014, XSL-RR 128/64) seeded through numpy's
``SeedSequence``, in pure Python: each of its draws equals the same draw
from ``numpy.random.default_rng(seed)`` bit for bit (held by
``tests/test_pcg64.py``).  Owning the stream keeps numpy out of a run's
process and pins seeded runs against numpy releases, which may change a
``Generator`` method's output (NEP 19).  Every random draw under ``src/``
comes from it — ``exponential`` through numpy's ziggurat, whose tables
:mod:`repro.simnet.ziggurat` holds — and nothing under ``src/`` imports
numpy at all.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from itertools import accumulate
from typing import Any, List, MutableSequence, Optional, Sequence, Union

from .ziggurat import FE, KE, R, WE

__all__ = ["Pcg64", "pairwise_sum", "stream_seed", "zipf_weights"]

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: 2**-53: a 53-bit integer times this is a double in [0, 1).
_TWO_M53 = 1.0 / 9007199254740992.0


def _words(seed: Union[int, Sequence[int]]) -> List[int]:
    """``seed`` as SeedSequence's entropy: 32-bit words, least significant
    first, a list's elements one after another."""
    if isinstance(seed, int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        words = [seed & _M32]
        seed >>= 32
        while seed:
            words.append(seed & _M32)
            seed >>= 32
        return words
    return [w for part in seed for w in _words(part)]


def _seed_sequence(seed: Union[int, Sequence[int]]) -> List[int]:
    """The four 64-bit words ``SeedSequence(seed).generate_state(4, uint64)``
    returns: the entropy hashed into a pool of four 32-bit words, then the
    pool hashed out again."""
    entropy = _words(seed)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _M32
        value = (value * hash_const) & _M32
        out.append(value ^ (value >> 16))
    return [out[2 * i] | out[2 * i + 1] << 32 for i in range(4)]


class Pcg64:
    """A PCG64 stream equal, draw for draw, to ``numpy.random.default_rng(seed)``.

    ``seed`` is a non-negative int or a sequence of them.  Only the draws
    this program makes are here; each follows numpy's algorithm for it.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: Union[int, Sequence[int]]) -> None:
        s0, s1, i0, i1 = _seed_sequence(seed)
        inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        state = (inc + (s0 << 64 | s1)) & _M128
        self._state = (state * _MULT + inc) & _M128
        self._inc = inc
        #: The unused high half of the last 64-bit draw ``_next32`` split.
        self._half: Optional[int] = None

    def _next64(self) -> int:
        state = self._state = (self._state * _MULT + self._inc) & _M128
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def random(self) -> float:
        """A double in ``[0, 1)`` from the top 53 bits of one 64-bit draw."""
        return (self._next64() >> 11) * _TWO_M53

    def uniform(self, low: float, high: float) -> float:
        """A double in ``[low, high)``: ``low + (high - low) * random()``."""
        return low + (high - low) * self.random()

    def integers(self, low: int, high: Optional[int] = None) -> int:
        """An int in ``[low, high)`` (``[0, low)`` with one argument), by
        Lemire's multiply-and-reject method on 32-bit draws."""
        if high is None:
            low, high = 0, low
        span = high - 1 - low
        if span < 0:
            raise ValueError("low >= high")
        if span == 0:
            return low
        excl = span + 1
        if excl > _M32:
            raise ValueError("integers() draws ranges below 2**32 only")
        m = self._next32() * excl
        if m & _M32 < excl:
            threshold = (_M32 - span) % excl
            while m & _M32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)

    def exponential(self, scale: float = 1.0) -> float:
        """``scale`` times a standard exponential draw, by numpy's 256-box
        ziggurat: 8 bits of a 64-bit draw pick a box and 53 bits a point
        in it, accepted at once in the box's core; box 0 is the tail
        beyond ``R``, any other box's wedge accepts by one ``random()``."""
        while True:
            ri = self._next64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * WE[idx]
            if ri < KE[idx]:
                return scale * x
            if idx == 0:
                return scale * (R - math.log1p(-self.random()))
            if (FE[idx - 1] - FE[idx]) * self.random() + FE[idx] < math.exp(-x):
                return scale * x

    def choice(self, n: int, size: int, p: Sequence[float]) -> List[int]:
        """``size`` indices in ``range(n)`` drawn with replacement, index
        ``i`` with probability ``p[i]``: one ``random()`` each, looked up
        in the cumulative sum normalised by its last value."""
        if len(p) != n:
            raise ValueError("p must have one probability per index")
        cdf = _cdf(p)
        return [bisect_right(cdf, self.random()) for _ in range(size)]

    def sample(self, n: int, size: int, p: Sequence[float]) -> List[int]:
        """``size`` distinct indices in ``range(n)``, index ``i`` weighted
        by ``p[i]``, as numpy's ``choice(..., replace=False, p=p)``: in
        rounds, one ``random()`` per index still missing, looked up in the
        cumulative sum with the indices already found weighted 0; each new
        index is kept at its first occurrence, in draw order.
        """
        if len(p) != n:
            raise ValueError("p must have one probability per index")
        weights = list(p)
        if sum(w > 0 for w in weights) < size:
            raise ValueError("fewer non-zero entries in p than size")
        found: List[int] = []
        while len(found) < size:
            draws = [self.random() for _ in range(size - len(found))]
            for i in found:
                weights[i] = 0.0
            cdf = _cdf(weights)
            found.extend(dict.fromkeys(bisect_right(cdf, x) for x in draws))
        return found

    def shuffle(self, items: MutableSequence[Any]) -> None:
        """Shuffle ``items`` in place: Fisher-Yates from the end, each swap
        partner drawn in ``[0, i]`` by masked rejection on 32-bit draws (not
        Lemire's)."""
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            items[i], items[j] = items[j], items[i]


def _cdf(weights: Sequence[float]) -> List[float]:
    """The running sum of ``weights`` (in order, as ``np.cumsum``) divided
    by its last value."""
    cdf = list(accumulate(weights))
    total = cdf[-1]
    return [c / total for c in cdf]


def _pairwise(a: List[float], lo: int, n: int) -> float:
    if n < 8:
        res = 0.0
        for x in a[lo:lo + n]:
            res += x
        return res
    if n <= 128:
        stop = lo + n - n % 8
        r = []
        for j in range(lo, lo + 8):
            acc = a[j]
            for x in a[j + 8:stop:8]:
                acc += x
            r.append(acc)
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[stop:lo + n]:
            res += x
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(a, lo, half) + _pairwise(a, lo + half, n - half)


def pairwise_sum(values: Sequence[float]) -> float:
    """The sum of ``values`` in numpy's order, so equal to ``np.sum`` of
    a float64 array bit for bit (and ``pairwise_sum(v) / len(v)`` to
    ``np.mean(v)``): eight running lanes over blocks of up to 128, halves
    above that."""
    return 0.0 + _pairwise(list(values), 0, len(values))


def stream_seed(seed: int, name: str) -> int:
    """The integer seed of stream ``name`` under experiment ``seed``.

    BLAKE2 over ``"<seed>:<name>"``: distinct names give statistically
    independent streams, and a stream's seed depends on nothing but its own
    name — adding a stream (or a federation domain) never perturbs another.

    Example
    -------
    >>> a = Pcg64(stream_seed(42, "vbr/source0"))
    >>> a.random() == Pcg64(stream_seed(42, "vbr/source0")).random()
    True
    >>> stream_seed(42, "vbr/source0") == stream_seed(42, "backoff")
    False
    """
    digest = hashlib.blake2b(
        f"{int(seed)}:{name}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def zipf_weights(n: int, s: float) -> List[float]:
    """Normalised Zipf(``s``) weights over ranks ``1..n`` (index order).

    Rank ``k`` (0-based index) gets mass proportional to ``1/(k+1)**s`` —
    the first few entries dominate, modelling popularity skew.  Lives here,
    below both its users (:mod:`repro.experiments.membership` and
    :mod:`repro.workloads.builders`), so neither package imports the other
    for it.
    """
    if n < 1:
        raise ValueError("need at least one rank for Zipf weights")
    if s <= 0:
        raise ValueError("zipf_s must be positive")
    weights = [1.0 / (k + 1) ** s for k in range(n)]
    total = pairwise_sum(weights)
    return [w / total for w in weights]

