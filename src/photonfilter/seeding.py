"""Every trajectory's generator, numpy's ``default_rng`` of child i of
``SeedSequence(seed)`` (of the root, for a ``trajectory`` run), or only its
first ``random()`` (photon counting's one uniform), for a whole ensemble at once.

SeedSequence's hashes and PCG64's seeding and step (all frozen by numpy's
policy NEP 19) run over every child together, in lanes of one Python int:
a 32-bit word in a 64-bit lane, a 128-bit state in a 256-bit lane, so a
product stays in its lane.  (numpy's uint32 ufuncs would map 64-128 KB of
numpy's code that no run touches otherwise.)  Only :func:`children` and
:func:`generators` load ``numpy.random``, which the generators need.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

_M = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (O'Neill's PCG_DEFAULT_MULTIPLIER_128)
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M64, _M128 = 2**64 - 1, 2**128 - 1


class Child(NamedTuple):
    """Child ``spawn_key[0]`` of a seed's SeedSequence (the root itself at
    ``spawn_key`` ()), holding the words its ``generate_state(4, uint64)``
    gives: an ISeedSequence for PCG64."""

    words: np.ndarray
    spawn_key: tuple[int, ...]

    def generate_state(self, n_words, dtype=None):
        return self.words


def _load_random():
    """numpy.random's Generator and PCG64, loaded at the first call, with
    :class:`Child` registered as an ISeedSequence."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(Child)  # a no-op once registered
    return Generator, PCG64


def _ones(m: int, width: int = 8) -> int:
    """1 in each of m lanes of ``width`` bytes."""
    return int.from_bytes((b"\1" + b"\0" * (width - 1)) * m, "little")


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix, its constant advancing by ``mult`` per call, of
    one word (``ones`` = 1) or of each lane (``ones`` = :func:`_ones`)."""
    def hashmix(v, ones=1):
        nonlocal const
        v ^= const * ones
        const = const * mult & _M
        v = v * const & _M * ones
        return v ^ v >> 16 & _M * ones
    return hashmix


def _mix(x, y, ones=1):
    """SeedSequence's mix, L x - R y in each lane as L x + (2**32 - R) y."""
    mask = _M * ones
    x = (x * 0xCA01F9DD & mask) + (y * (2**32 - 0x4973F715) & mask) & mask
    return x ^ x >> 16 & mask


def _pools(seed: int, m: int | None) -> tuple[list[int], int]:
    """``SeedSequence(seed).spawn(m)``'s four pool words, child i's in lane i
    of four ints, and :func:`_ones` of m; with m None, ``SeedSequence(seed)
    .pool`` and 1.  ``mix_entropy`` hashes the seed's 32-bit words, zero-padded
    to 4 (as the root's missing words hash), then each child's index."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if m is not None and m > 2**32:
        raise ValueError(f"at most 2**32 children take one index word each, got {m}")
    words = [seed >> s & _M for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        pool = [_mix(p, hashmix(w)) for p in pool]
    if m is None:
        return pool, 1
    ones, index = _ones(m), int.from_bytes(np.arange(m, dtype="<u8").tobytes(), "little")
    return [_mix(p * ones, hashmix(index, ones), ones) for p in pool], ones


def _state(seed: int, m: int | None) -> list[int]:
    """``generate_state(4, uint64)`` of :func:`_pools`' pools, in their lanes:
    eight 32-bit words hashed from the pool's, two to a word, lower first."""
    lanes, ones = _pools(seed, m)
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    w = [hashmix(lanes[i % 4], ones) for i in range(8)]
    return [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]


def children(seed: int, m: int | None = None) -> list[Child]:
    """``SeedSequence(seed).spawn(m)``, or with m None ``[SeedSequence(seed)]``,
    each with its state words (:func:`_state`)."""
    # numpy.random loads before the children are allocated, as under numpy's own
    # spawn: loaded after them, it left the homodyne benchmark's peak RSS 0.16 MB higher.
    _load_random()
    n = 1 if m is None else m
    words = np.stack([np.frombuffer(w.to_bytes(8 * n, "little"), "<u8") for w in _state(seed, m)],
                     axis=1).astype(np.uint64, copy=False)
    return [Child(w, () if m is None else (i,)) for i, w in enumerate(words)]


def generators(seed_seqs) -> list:
    """``[default_rng(s) for s in seed_seqs]``, of :class:`Child` or SeedSequences."""
    Generator, PCG64 = _load_random()
    return [Generator(PCG64(s)) for s in seed_seqs]


def _wide(lo: int, hi: int, m: int) -> int:
    """lo + 2**64 hi in m 256-bit lanes, from the 64-bit lanes of lo and hi."""
    z = np.zeros((m, 4), "<u8")
    z[:, 0], z[:, 1] = (np.frombuffer(v.to_bytes(8 * m, "little"), "<u8") for v in (lo, hi))
    return int.from_bytes(z.tobytes(), "little")


def _randoms(state: int, inc: int, m: int) -> list[float]:
    """``random()`` of m PCG64s, their states and increments in 256-bit lanes:
    one LCG step and XSL-RR's xor of the halves and rotation count (the top
    six bits) in every lane; per generator the rotation and the top 53 bits."""
    ones = _ones(m, 32)
    state = (state * _MULT + inc) & _M128 * ones
    out = ((state >> 64 ^ state) & _M64 * ones) | (state >> 122 & 63 * ones) << 64
    xr = np.frombuffer(out.to_bytes(32 * m, "little"), "<u8").reshape(m, 4)[:, :2].tolist()
    return [((x >> r | x << 64 - r & _M64) >> 11) * 2.0**-53 for x, r in xr]


def uniforms(seed: int, m: int | None = None) -> list[float]:
    """``[default_rng(c).random() for c in SeedSequence(seed).spawn(m)]``, or
    with m None ``[default_rng(seed).random()]``, without numpy.random.  PCG64
    takes the state words s0..s3 (:func:`_state`) as initstate s0:s1 and
    initseq s2:s3, sets inc = 2 initseq + 1, steps from 0, adds initstate and
    steps (:func:`_randoms`)."""
    s, n = _state(seed, m), 1 if m is None else m
    ones = _ones(n, 32)
    inc = (_wide(s[3], s[2], n) << 1 | ones) & _M128 * ones
    return _randoms(((inc + _wide(s[1], s[0], n)) * _MULT + inc) & _M128 * ones, inc, n)
