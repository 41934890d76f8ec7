"""Every trajectory's generator, numpy's ``default_rng`` of child i of
``SeedSequence(seed)``, for a whole ensemble at once, or only its first
``random()``, the one uniform that photon counting draws.

SeedSequence's hashes (frozen by numpy's policy NEP 19) run over all the
children together, each child's 32-bit word in a 64-bit lane of one Python
int: a lane times a 32-bit constant stays inside its lane, so each hash step
is a few int operations over every lane.  (numpy's uint32 ufuncs would map
64-128 KB of numpy's code that no run touches otherwise.)  The uniforms
follow PCG64's seeding, its step and its XSL-RR output on Python ints (the
same algorithm, also frozen by NEP 19), so only :func:`generators` loads
``numpy.random``, at its first call.
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
    """Child ``spawn_key[0]`` of a seed's SeedSequence, with its entropy pool."""

    pool: np.ndarray
    spawn_key: tuple[int]


class _Words:
    """An ISeedSequence that hands a PCG64 the state words computed for it."""

    words = None

    def generate_state(self, n_words, dtype=None):
        return self.words


def load_random():
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
    index.  The pool is one for all children until the index mixes in.
    ``numpy.random`` does not load here: only :func:`generators` needs it."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if m > 2**32:
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
    ones, index = _ones(m), _lanes(np.arange(m))
    pool = [_mix(p * ones, hashmix(index, ones), ones).to_bytes(8 * m, "little") for p in pool]
    pools = np.stack([np.frombuffer(p, "<u4")[::2] for p in pool], axis=1)
    return [Child(p, (i,)) for i, p in enumerate(pools)]


def _state_words(seed_seqs) -> np.ndarray:
    """Each entry's ``generate_state(4, uint64)`` (entries with a ``.pool``),
    one row each, hashed over all of them at once."""
    m = len(seed_seqs)
    pools = np.concatenate([s.pool for s in seed_seqs]).reshape(m, -1)
    lanes, ones = [_lanes(col) for col in pools.T], _ones(m)
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    w = [hashmix(lanes[i % len(lanes)], ones) for i in range(8)]
    return np.stack([np.frombuffer((w[i] | w[i + 1] << 32).to_bytes(8 * m, "little"), "<u8")
                     for i in range(0, 8, 2)], axis=1)


def generators(seed_seqs) -> list:
    """``[default_rng(s) for s in seed_seqs]`` for entries with a ``.pool``:
    their state words (:func:`_state_words`), then one reused holder."""
    Generator, PCG64 = load_random()
    hold, gens = _Words(), []
    for hold.words in _state_words(seed_seqs).astype(np.uint64, copy=False):
        gens.append(Generator(PCG64(hold)))
    hold.words = None
    return gens


def _pcg_random(state: int, inc: int) -> float:
    """``random()`` of a PCG64 at ``state`` with increment ``inc``: one LCG
    step, the XSL-RR output of the new state (its halves xor-ed, rotated
    right by its top six bits), and that output's top 53 bits over 2**53."""
    state = (state * _MULT + inc) & _M128
    x, rot = (state >> 64 ^ state) & _M64, state >> 122
    return (((x >> rot | x << 64 - rot) & _M64) >> 11) * 2.0**-53


def uniforms(seed_seqs) -> list[float]:
    """``[default_rng(s).random() for s in seed_seqs]`` for entries with a
    ``.pool``, without numpy.random: PCG64 takes state words s0..s3 as
    initstate s0:s1 and initseq s2:s3, sets inc = 2 initseq + 1, and from
    state 0 steps (to inc), adds initstate and steps again; random() then
    takes one more step (:func:`_pcg_random`)."""
    out = []
    for s0, s1, q0, q1 in _state_words(seed_seqs).tolist():
        inc = (q0 << 65 | q1 << 1 | 1) & _M128
        out.append(_pcg_random(((inc + (s0 << 64 | s1)) * _MULT + inc) & _M128, inc))
    return out
