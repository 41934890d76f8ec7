"""Every trajectory's generator, numpy's ``default_rng`` of child i of
``SeedSequence(seed)``, for a whole ensemble at once.

SeedSequence's hashes (frozen by numpy's policy NEP 19) run over all the
children together, each child's 32-bit word in a 64-bit lane of one Python
int: a lane times a 32-bit constant stays inside its lane, so each hash step
is a few int operations over every lane.  (numpy's uint32 ufuncs would map
64-128 KB of numpy's code that no run touches otherwise.)  ``numpy.random``
loads at the first call, not when the CLI is imported.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

_M = 0xFFFFFFFF


class Child(NamedTuple):
    """Child ``spawn_key[0]`` of a seed's SeedSequence, with its entropy pool."""

    pool: np.ndarray
    spawn_key: tuple[int]


class _Words:
    """An ISeedSequence that hands a PCG64 the state words computed for it."""

    words = None

    def generate_state(self, n_words, dtype=None):
        return self.words


def _random():
    """numpy.random's Generator and PCG64, loaded at the first call, with the
    holder registered as its ISeedSequence."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    if not issubclass(_Words, ISeedSequence):
        ISeedSequence.register(_Words)
    return Generator, PCG64


def _lanes(words) -> int:
    """The 32-bit ``words`` as the 64-bit lanes of one int, the first lowest."""
    z = np.zeros((len(words), 2), "<u4")
    z[:, 0] = words
    return int.from_bytes(z.tobytes(), "little")


def _ones(m: int) -> int:
    """1 in each of m lanes."""
    return int.from_bytes(b"\1\0\0\0\0\0\0\0" * m, "little")


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


def children(seed: int, m: int) -> list[Child]:
    """``SeedSequence(seed).spawn(m)``'s pools, from ``mix_entropy`` over every
    child's entropy: the seed's 32-bit words, zero-padded to 4, then its
    index.  The pool is one for all children until the index mixes in."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if m > 2**32:
        raise ValueError(f"at most 2**32 children take one index word each, got {m}")
    # numpy.random, which the children's generators need, loads before the
    # children are allocated, as it did under numpy's own spawn: loaded after
    # them, it left the homodyne benchmark's peak RSS 0.16 MB higher.
    _random()
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
    ones, index = _ones(m), _lanes(np.arange(m))
    pool = [_mix(p * ones, hashmix(index, ones), ones).to_bytes(8 * m, "little") for p in pool]
    pools = np.stack([np.frombuffer(p, "<u4")[::2] for p in pool], axis=1)
    return [Child(p, (i,)) for i, p in enumerate(pools)]


def generators(seed_seqs) -> list:
    """``[default_rng(s) for s in seed_seqs]`` for entries with a ``.pool``:
    ``generate_state(4, uint64)`` once over all of them, then one reused holder."""
    Generator, PCG64 = _random()
    m = len(seed_seqs)
    pools = np.concatenate([s.pool for s in seed_seqs]).reshape(m, -1)
    lanes, ones = [_lanes(col) for col in pools.T], _ones(m)
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    w = [hashmix(lanes[i % len(lanes)], ones) for i in range(8)]
    state = np.stack([np.frombuffer((w[i] | w[i + 1] << 32).to_bytes(8 * m, "little"), "<u8")
                      for i in range(0, 8, 2)], axis=1)
    hold, gens = _Words(), []
    for hold.words in state.astype(np.uint64, copy=False):
        gens.append(Generator(PCG64(hold)))
    hold.words = None
    return gens
