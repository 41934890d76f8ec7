"""Reproducible noise and the trajectory driver.

Every trajectory draws from ``default_rng`` of its own SeedSequence (child
i of the master seed's for trajectory i of an ensemble, the root for a
``trajectory`` run), computed for all of them at once by a hash equal to
numpy's under NEP 19 (:mod:`photonfilter.seeding`), so results do not
depend on scheduling, and a trajectory in a block matches itself run alone to rounding.
:func:`run_block` runs homodyne trajectories in lock-step, by
Euler-Maruyama on the cascade's pure state or on the filter compiled by
:mod:`photonfilter.filter_moments`.  Photon counting steps nothing:
:func:`count_photons` inverts the closed-form probability of no count for a
whole run at once, one uniform per trajectory, its generator's first
``random()``, computed from the seed words without building a generator or
loading ``numpy.random``.  Every error names the time and the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import filter_moments as fm
from . import seeding
from . import wavepacket as wp
from .config import SimConfig
from .errors import FilterDivergenceError
from .filter_generic import SLHModel

# Trajectories per ensemble block, whose sums fold in block order.
_ENSEMBLE_BLOCK = 500
# Steps of Wiener increments held at once, in one buffer per homodyne block
# (2 MB at m = 500, so it stays in cache), with the coefficients of those
# steps; both engines guard and fold n once per chunk.
_CHUNK = 512
# Steps of the generic filter whose maps are evaluated at once (each entry is
# one product, so any batch gives the same maps; a chunk's would take 700 KB).
_SUB = 8


@dataclass
class Trajectory:
    """One realization: conditional photon number plus the measurement record."""

    times: np.ndarray
    n_cond: np.ndarray
    record: np.ndarray
    jumps: list[float]


@dataclass
class BlockStats:
    """Per-block accumulators; ensembles fold these in trajectory-index order.

    ``sum_n`` and ``sumsq_n`` hold the sums of n and n^2 over the block's
    trajectories at each grid time, ``count_times`` each trajectory's count
    time (NaN where it has none; only photon counting counts).
    """

    m: int
    times: np.ndarray
    sum_n: np.ndarray
    sumsq_n: np.ndarray
    count_times: np.ndarray
    n_min: float = np.inf
    n_max: float = -np.inf
    series: np.ndarray | None = None
    record: np.ndarray | None = None


def _fold(blocks: list[BlockStats]) -> BlockStats:
    """Deterministic reduction of block accumulators, in block order."""
    out = blocks[0]
    for b in blocks[1:]:
        out.m += b.m
        out.sum_n += b.sum_n
        out.sumsq_n += b.sumsq_n
        out.n_max = max(out.n_max, b.n_max)
        out.n_min = min(out.n_min, b.n_min)
    out.count_times = np.concatenate([b.count_times for b in blocks])
    return out


def _chunk_noise(gens, n: int, sqrt_dt: float, out: np.ndarray) -> np.ndarray:
    """Wiener increments of ``n`` steps, one column per generator: column j
    is ``gens[j].standard_normal(n)``, and the block is then scaled by
    ``sqrt_dt`` once, in place.  They fill ``out[:n]`` (at least n rows, one
    column per generator), which is returned."""
    out = out[:n]
    for j, g in enumerate(gens):
        out[:, j] = g.standard_normal(n)
    out *= sqrt_dt
    return out


def _noise_chunks(gens, steps: int, sqrt_dt: float, noise: np.ndarray | None):
    """Yield (start, increments) for the chunks of at most ``_CHUNK`` steps of
    a grid of ``steps``: the trajectories' own draws (:func:`_chunk_noise`),
    or rows start, start + 1, ... of ``noise``, copied.  Every chunk fills
    one buffer that the next overwrites, and the caller may overwrite it."""
    buf = np.empty((min(_CHUNK, steps), len(gens)))
    for start in range(0, steps, _CHUNK):
        n = min(_CHUNK, steps - start)
        if noise is None:
            yield start, _chunk_noise(gens, n, sqrt_dt, buf)
        else:
            np.copyto(buf[:n], noise[start:start + n])
            yield start, buf[:n]


def _name(seed_seqs, j: int) -> int:
    """Trajectory j's index in the ensemble (the last entry of its seed
    sequence's spawn key), or else its block column."""
    key = getattr(seed_seqs[j], "spawn_key", ())
    return key[-1] if key else j


def _fail(exc, what: str, t: float, seed_seqs, j: int):
    """Raise ``exc`` naming t and trajectory j (:func:`_name`)."""
    raise exc(f"{what} at t={t:.6g} in trajectory {_name(seed_seqs, j)}")


def run_block(cfg: SimConfig, seed_seqs, *, noise: np.ndarray | None = None,
              record_series: bool = False) -> BlockStats:
    """Advance a block of homodyne trajectories (one per seed sequence) in
    lock-step; photon counting steps nothing (:func:`count_photons`).

    ``cfg.engine`` selects the filter: ``cascade`` steps one complex
    amplitude per trajectory (:func:`_cascade`); ``generic`` compiles it from
    the cavity's (L, H), restricted to the nine entries its drift and diffusion
    reach from the vacuum at every D (:func:`filter_moments.support`), on real
    coordinates (:func:`filter_moments.real_filter` raises before the first
    step if the maps do not keep them real or do not conserve pi11(I)).  One
    product evaluates the stacked real map [Fd dt; Fg; k] at the xi(t) of
    ``_SUB`` steps; a step is one real (19 x 9) . (9 x m) product and the
    Euler update, its n overwriting its spent increment, with numpy's
    overflow warnings off, so that the guard (:func:`_guard`) names a
    divergence.  Both engines draw their Wiener
    increments ``_CHUNK`` steps at a time into one buffer per block
    (:func:`_noise_chunks`), evaluate their coefficients at that chunk's
    times only, and guard and fold n (:func:`_accumulate`) once per chunk,
    so that a block holds nothing the length of its grid but its times, its
    two sums and a recorded series and record.  ``noise`` (steps x m)
    replaces the Wiener increments; any other shape raises ``ValueError``.
    """
    if cfg.detector != "homodyne":
        raise ValueError(f"run_block steps homodyne detection, not {cfg.detector}")
    steps, times = cfg.steps, cfg.times()
    m = len(seed_seqs)
    if noise is not None and np.shape(noise) != (steps, m):
        raise ValueError(f"noise for homodyne detection must have shape {(steps, m)}, "
                         f"got {np.shape(noise)}")
    gens = seeding.generators(seed_seqs)
    stats = BlockStats(m, times, np.zeros(steps + 1), np.zeros(steps + 1), np.full(m, np.nan))
    if record_series:
        stats.series, stats.record = np.zeros((steps + 1, m)), np.zeros((steps + 1, m))
    if cfg.engine == "cascade":
        _cascade(cfg, stats, seed_seqs, gens, noise)
        return stats
    f = fm.compile_filter(SLHModel.cavity(cfg.fock_dim, cfg.kappa, cfg.delta))
    g = fm.real_filter(f, fm.support(f, f.drift, f.diffusion))
    del f  # the full maps are not held while stepping
    d = g.initial.size
    # A step's map: rows :d give Fd u dt, rows d:2d Fg u and the last K.
    stack = np.concatenate([g.drift * cfg.dt, g.diffusion, g.k[:, None]], axis=1)
    readout, u = g.readout, np.repeat(g.initial[:, None], m, axis=1)  # n11
    w = wp.Wavepacket(cfg.gamma, cfg.t0)
    y, fx = np.empty((2 * d + 1, m)), np.empty((d, m))
    _accumulate(stats, 0, readout @ u)
    for start, nz in _noise_chunks(gens, steps, np.sqrt(cfg.dt), noise):
        xis = wp.xi(w, times[start:start + len(nz)])
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging state; _guard names it
            for s0 in range(0, len(nz), _SUB):
                for i, step in enumerate(fm.evaluate(stack, xis[s0:s0 + _SUB]), s0):
                    np.matmul(step, u, out=y)  # u += Fd u dt + (Fg u - K u) dW
                    np.multiply(u, y[-1], out=fx)
                    np.subtract(y[d:-1], fx, out=fx)
                    fx *= nz[i]
                    u += y[:d]
                    u += fx
                    if record_series:
                        stats.record[start + i + 1] = y[-1] * cfg.dt + nz[i]  # dY = K dt + dW
                    np.matmul(readout, u, out=nz[i:i + 1])  # n over its spent increment
        _guard(nz, times[start + 1:], seed_seqs)
        _accumulate(stats, start + 1, nz)
    return stats


def _guard(n: np.ndarray, times, seed_seqs) -> None:
    """Raise at the first non-finite pi11(n) of a generic chunk: row i holds
    n of the state at times[i].  min and max propagate nan, so a finite chunk
    passes with no mask."""
    if not (-np.inf < n.min() and n.max() < np.inf):
        i, j = divmod(int(np.argmin(np.isfinite(n))), n.shape[1])
        _fail(FilterDivergenceError, f"filter diverged to pi11(n) = {n[i, j]}", times[i],
              seed_seqs, j)


def _cascade(cfg: SimConfig, stats: BlockStats, seed_seqs, gens, noise) -> None:
    """Homodyne detection on the pure state alpha|e,0> + beta|g,1> + c|g,0> of
    a two-level source, excited at t0, feeding the cavity.

    alpha^2 = tail_norm and beta (:func:`wavepacket.cavity_amplitude`) do not
    see the record; only c does, with f = xi + sqrt(kappa) beta:
    dc = f (K dt + dW), K = 2 Re(conj(c) f) / N, N = alpha^2 + |beta|^2 + |c|^2.
    The noise is additive (strong order 1).  Each chunk of the block's noise
    buffer (:func:`_noise_chunks`, which copies ``noise`` in rather than
    writing to it) evaluates beta, f, the gain and the floor alpha^2 +
    |beta|^2 at its own times.  Each step's N overwrites its spent increment,
    the guard raises at the first N of the chunk that is not finite or is
    +0 (where |beta|^2 is 0 too and n would be 0 / 0; the steps past it
    divide by it, with numpy's warnings off), and n = |beta|^2 / N
    then replaces N in place and goes through :func:`_accumulate`; n is in
    [0, 1] exactly, as |beta|^2 <= N holds in floating point.  The last
    row's N carries to the next chunk.
    A block steps as (2 x m) arrays, except a block of one trajectory (a
    ``trajectory`` run, or an ensemble block that holds one), which steps on
    Python floats (:func:`_cascade_floats`): a step is a few flops, and on
    length-1 arrays the numpy calls' overhead cost about ten times as much.
    """
    times, dt = stats.times, cfg.dt
    w = wp.Wavepacket(cfg.gamma, cfg.t0)
    c, nrm = np.zeros((2, stats.m)), np.ones(stats.m)  # the photon starts in the source
    y, tmp = np.empty(stats.m), np.empty((2, stats.m))
    _accumulate(stats, 0, np.zeros((1, stats.m)))  # beta(0) = 0, as t0 >= 0
    for start, nz in _noise_chunks(gens, len(times) - 1, np.sqrt(dt), noise):
        t = times[start:start + len(nz) + 1]  # the chunk's steps run from t[i] to t[i + 1]
        beta = wp.cavity_amplitude(w, cfg.kappa, cfg.delta, t)
        bb, f = np.abs(beta) ** 2, wp.xi(w, t) + np.sqrt(cfg.kappa) * beta
        floor = wp.tail_norm(w, t) + bb  # N at c = 0
        fc = np.stack([f.real, f.imag], axis=1)[:, :, None]
        gain = 2.0 * dt * fc[:, :, 0]  # K dt = gain . (Re c, Im c) / N
        if stats.m == 1:
            ys = _cascade_floats(c, nrm, gain[:-1], fc[:-1, :, 0], floor[1:], nz)
            if stats.record is not None:
                stats.record[start + 1:start + len(nz) + 1, 0] = ys
        else:
            with np.errstate(divide="ignore", invalid="ignore"):  # past an N of +0
                for i in range(len(nz)):
                    np.dot(gain[i], c, out=y)
                    y /= nrm
                    y += nz[i]  # dY = K dt + dW
                    c += np.multiply(fc[i], y, out=tmp)
                    np.multiply(c, c, out=tmp)
                    nrm = np.add(tmp[0], tmp[1], out=nz[i])
                    nrm += floor[i + 1]
                    if stats.record is not None:
                        stats.record[start + i + 1] = y
        nrm = nz[-1].copy()
        if not (nz.min() > 0.0 and nz.max() < np.inf):  # min and max propagate nan
            i, j = divmod(int(np.argmin((nz > 0.0) & (nz < np.inf))), stats.m)
            n = bb[i + 1] / nz[i, j] if nz[i, j] else math.nan  # N = +0: 0 / 0
            _fail(FilterDivergenceError, f"filter diverged to pi11(n) = {n}", t[i + 1],
                  seed_seqs, j)
        _accumulate(stats, start + 1, np.divide(bb[1:, None], nz, out=nz))


def _cascade_floats(c, nrm, gain, fc, floor, nz) -> list[float]:
    """The steps of :func:`_cascade` over one chunk for a block of one
    trajectory, on Python floats: at m = 1 each of the block loop's numpy
    calls costs far more than its few flops.  The same operations in the same
    order; only the block's ``np.dot`` may round differently.  ``c`` (2 x 1)
    and ``nrm`` (1,) hold the state before the chunk, ``c`` is left holding it
    after; each step's N overwrites its increment in ``nz``.  Returns the
    steps' dY."""
    (c0,), (c1,) = c.tolist()
    n = float(nrm[0])
    ys, ns = [], []
    for (g0, g1), (fr, fi), fl, dw in zip(gain.tolist(), fc.tolist(), floor.tolist(),
                                        nz[:, 0].tolist()):
        num = g0 * c0 + g1 * c1
        try:
            y = num / n + dw  # dY = K dt + dW
        except ZeroDivisionError:  # N underflowed to +0; numpy's x / +0 is x * inf
            y = num * math.inf + dw
        c0 += fr * y
        c1 += fi * y
        n = c0 * c0 + c1 * c1 + fl
        ys.append(y)
        ns.append(n)
    c[:, 0] = c0, c1
    nz[:, 0] = ns
    return ys


def count_photons(cfg: SimConfig, *, noise=None, record_series: bool = False) -> BlockStats:
    """Photon counting for a whole run in one pass, by inversion of the
    probability s = <n> + tail_norm of no count, with <n> = |beta|^2 and n =
    <n> / s as 1 / (1 + tail / <n>), in [0, 1] where s underflows
    (:func:`wavepacket.photon_and_tail_ratio`), each evaluated once,
    ``wp.ROWS`` rows at a time.  Trajectory i takes the first ``random()`` of
    child i of SeedSequence(cfg.seed), all ``cfg.ntraj`` from the seed words
    at once (:func:`seeding.uniforms`), or entry i of ``noise`` (shape (m,),
    in [0, 1]), and counts (leaving |g,0>, so n = 0) at the first row where
    the running minimum of s falls below it, one ``searchsorted`` for all:
    P(no count by row k) = min_{i <= k} s_i even where rounding raises s by
    an ulp.  Sums fold over blocks of ``_ENSEMBLE_BLOCK`` in block order."""
    v = np.asarray(seeding.uniforms(cfg.seed, cfg.ntraj) if noise is None else noise,
                   dtype=float)
    if v.ndim != 1 or not v.size:
        raise ValueError(f"noise for photon counting must have shape (m,), got {v.shape}")
    # 1 counts as soon as s falls below 1; above 1 every trajectory would
    # count at t = 0, below 0 or at nan none ever would
    ok = (0.0 <= v) & (v <= 1.0)
    if not ok.all():
        j = int(np.argmin(ok))
        raise ValueError(f"photon-counting noise must be uniforms in [0, 1], got {v[j]} "
                         f"in trajectory {j}")
    times, w = cfg.times(), wp.Wavepacket(cfg.gamma, cfg.t0)
    s, q = np.empty(times.size), np.empty(times.size)  # q: tail / <n>, then n
    for lo in range(0, times.size, wp.ROWS):
        r = slice(lo, lo + wp.ROWS)
        n_me, q[r] = wp.photon_and_tail_ratio(w, cfg.kappa, cfg.delta, times[r])
        s[r] = n_me + wp.tail_norm(w, times[r])
    # V waits while V <= the least s so far (at = times.size: always); the
    # rows someone waits at are those before the last count
    at = np.searchsorted(np.negative(np.fmin.accumulate(s, out=s), out=s), -v, side="right")
    e = int(at.max())
    n = np.divide(1.0, np.add(1.0, q[:e], out=q[:e]), out=q[:e])
    if not np.isfinite(n).all():
        i = int(np.argmin(np.isfinite(n)))
        raise FilterDivergenceError(f"filter diverged to pi11(n) = {n[i]} at t={times[i]:.6g} "
                                    f"in trajectory {int(np.argmax(at > i))}")
    stats = BlockStats(v.size, times, np.zeros(times.size), np.zeros(times.size),
                       np.full(v.size, np.nan), float(n.min()), float(n.max()))
    for lo in range(0, v.size, _ENSEMBLE_BLOCK):
        blk = at[lo:lo + _ENSEMBLE_BLOCK]
        live = blk.size - np.cumsum(np.bincount(blk, minlength=e + 1)[:e])
        stats.sum_n[:e] += n * live
        stats.sumsq_n[:e] += n * n * live
    counted = at < times.size
    stats.count_times[counted] = times[at[counted]]
    if record_series:  # q holds n on the rows someone waits at, rows < e
        rows = np.arange(times.size)[:, None]
        stats.series, stats.record = np.where(at > rows, q[:, None], 0.0), (rows >= at) * 1.0
    return stats


def _accumulate(stats, k, n):
    """Fold the photon numbers ``n`` (steps x m trajectories) of steps k, k +
    1, ...: their sums and sums of squares, their range and, when one is
    recorded, the series."""
    rows = slice(k, k + len(n))
    stats.sum_n[rows], stats.sumsq_n[rows] = n.sum(axis=1), np.einsum("ij,ij->i", n, n)
    stats.n_min = min(stats.n_min, float(n.min()))
    stats.n_max = max(stats.n_max, float(n.max()))
    if stats.series is not None:
        stats.series[rows] = n


def simulate_trajectory(cfg: SimConfig) -> Trajectory:
    """Run the trajectory of ``cfg.detector`` seeded by ``cfg.seed`` and
    return its full time series: exactly an ensemble block of one, whose
    generator is ``default_rng(SeedSequence(cfg.seed))``, the root's
    (:func:`seeding.children`), or whose uniform is that generator's first
    ``random()`` (:func:`seeding.uniforms`, without loading ``numpy.random``).
    The record holds dY increments for homodyne detection and cumulative
    counts for photon counting, and ``jumps`` the count time, if any.
    """
    stats = (run_block(cfg, seed_seqs=seeding.children(cfg.seed), record_series=True)
             if cfg.detector == "homodyne" else
             count_photons(cfg, noise=seeding.uniforms(cfg.seed), record_series=True))
    t = float(stats.count_times[0])
    return Trajectory(stats.times, stats.series[:, 0].copy(), stats.record[:, 0].copy(),
                      [] if math.isnan(t) else [t])
