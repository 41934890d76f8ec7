"""Reproducible noise and the trajectory driver.

Every trajectory draws from its own ``numpy.random.SeedSequence`` (an
ensemble spawns child i of the master seed for trajectory i), so results do
not depend on scheduling, and a trajectory inside a block matches the same
trajectory run alone to rounding.  :func:`run_block` runs a block in
lock-step: homodyne detection by Euler-Maruyama on the cascade's pure state
(on Python floats when the block holds one trajectory) or on the filter
compiled by :mod:`photonfilter.filter_moments`, on real coordinates (each
chunk of steps guarded and folded once), photon counting by inverting the
probability of no count, one uniform per trajectory.  Every error names the
time and the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import filter_moments as fm
from . import wavepacket as wp
from .config import SimConfig
from .errors import FilterDivergenceError
from .filter_generic import SLHModel

# Steps of Wiener increments held at once, in one buffer per homodyne block
# (2 MB at m = 500, so it stays in cache), with the coefficients of those
# steps; both engines guard and fold n once per chunk.
_CHUNK = 512
# Steps of the master equation's path held at once.  Its stage maps take
# about 3 KB a step; at _CHUNK steps they raised the peak resident memory
# of a homodyne ensemble, which also integrates the master equation.
_PATH = 64
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
    seed: object


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


def _fail(exc, what: str, t: float, seed_seqs, j: int):
    """Raise ``exc`` naming t and trajectory j: its index in the ensemble (the
    last entry of its seed sequence's spawn key), or else its block column."""
    key = getattr(seed_seqs[j], "spawn_key", ())
    raise exc(f"{what} at t={t:.6g} in trajectory {key[-1] if key else j}")


def _support(f, *maps) -> np.ndarray:
    """Indices of the state entries that ``f.initial`` reaches through the
    union of the nonzero patterns of ``maps`` (any power of xi; the drift
    alone by default); the others stay exact zeros.  From the vacuum the
    drift reaches five at every D: |0><0| and |1><1| of block 11, one
    coherence each in blocks 10 and 01, and |0><0| of block 00.  Drift and
    diffusion reach nine: all of |0>, |1> in block 11, |0><0| and |0><1| of
    block 10, |0><0| and |1><0| of block 01, and |0><0| of block 00."""
    # feeds[i, j]: entry j drives entry i
    feeds = np.logical_or.reduce([(p != 0).any(axis=0) for p in maps or (f.drift,)])
    on = f.initial != 0
    while True:
        grown = on | feeds[:, on].any(axis=1)
        if (grown == on).all():
            return np.flatnonzero(on)
        on = grown


def master_path(cfg: SimConfig, f):
    """Classical RK4 of the master equation dx = Fd(xi(t)) x dt from the vacuum.

    Yields (k0, states) for chunks of at most ``_PATH`` steps: the full
    states at steps k0, k0 + 1, ... of the grid of ``cfg``, in a buffer that
    the next chunk overwrites.  The state is held until the wavepacket
    arrives at t0, and the step t0 falls in is integrated from t0 on, so the
    right-hand side is smooth within every step.

    Only the entries in :func:`_support` are stepped, whatever the Fock
    truncation; the rest of every state is exactly 0.  Per chunk, the drift
    restricted to them is evaluated at the three sample times of every step
    in one product, and RK4's stages compose into one increment map per
    step, E = (h/6)(K1 + 2 K2 + 2 K3 + K4) with K1 = A, K2 = B(I + h/2 K1),
    K3 = B(I + h/2 K2), K4 = C(I + h K3) for the drift A, B, C at t, t + h/2
    and t + h; the step is then y + E y.
    """
    dt, t0, steps = cfg.dt, cfg.t0, cfg.steps
    w = wp.Wavepacket(cfg.gamma, t0)
    on = _support(f)
    poly = f.drift[:, on[:, None], on]
    eye = np.eye(on.size)
    buf = np.zeros((_PATH + 1, f.initial.size), dtype=np.complex128)
    y = np.empty((_PATH + 1, on.size), dtype=np.complex128)
    dy = np.empty(on.size, dtype=np.complex128)
    y[0] = f.initial[on]
    for k0 in range(0, steps, _PATH):
        n = min(_PATH, steps - k0)
        t = dt * np.arange(k0, k0 + n + 1)  # bit for bit the grid's times
        h, ta, tb = np.full(n, dt), t[:-1].copy(), t[:-1] + 0.5 * dt
        cut = (t[:-1] < t0) & (t[1:] > t0)
        h[cut] = t[1:][cut] - t0
        ta[cut], tb[cut] = t0, t[1:][cut] - 0.5 * h[cut]
        z = wp.xi(w, np.concatenate([ta, tb, t[1:]]))
        a, b, c = fm.evaluate(poly, z).reshape(3, n, on.size, on.size)
        h = h[:, None, None]
        k2 = b @ (0.5 * h * a + eye)
        k3 = b @ (0.5 * h * k2 + eye)
        e = c @ (h * k3 + eye)  # K4
        e += 2.0 * (k2 + k3) + a
        e *= h / 6.0
        e[t[1:] <= t0] = 0.0  # held until the wavepacket arrives
        for ei, yi, yn in zip(e, y, y[1:]):
            np.dot(ei, yi, out=dy)
            np.add(yi, dy, out=yn)
        buf[:n + 1, on] = y[:n + 1]
        yield k0, buf[:n + 1]
        y[0] = y[n]


def run_block(cfg: SimConfig, seed_seqs, *, noise: np.ndarray | None = None,
              record_series: bool = False) -> BlockStats:
    """Advance a block of trajectories (one per seed sequence) in lock-step.

    ``cfg.detector`` selects the detection scheme.  Photon counting draws
    one uniform per trajectory and counts where the closed-form probability
    of no count falls below it (:func:`_first_passage`).
    ``cfg.engine`` selects the homodyne filter: ``cascade`` steps one complex
    amplitude per trajectory (:func:`_cascade`), on Python floats in a block
    of one; ``generic`` compiles the filter once from the cavity's (S, L, H)
    at ``cfg.fock_dim`` and restricts it to the nine entries its drift and
    diffusion reach from the vacuum (:func:`_support`; the -K x term only
    rescales), the same at every D.  Every state of the filter is its own
    adjoint, so these nine complex entries carry nine real coordinates
    (:func:`filter_moments.real_filter`, which raises
    ``NonRealInnovationError`` here, before the first step, if the maps do
    not keep them real or do not conserve pi11(I) = 1 exactly).  One
    product evaluates the stacked real map [Fd dt; Fg; k] at the xi(t) of
    ``_SUB`` steps, a step is one real (19 x 9) . (9 x m) product and the
    Euler update, and its n overwrites its spent increment, as the cascade's
    N does; the finiteness guard (:func:`_guard`) and the sums
    (:func:`_accumulate`) then run once over the chunk.
    Both homodyne engines draw their Wiener increments ``_CHUNK`` steps at a
    time into one buffer per block (:func:`_noise_chunks`), evaluate the
    wavepacket and their coefficients at that chunk's times only, and fold
    n through the one :func:`_accumulate`, so that a block holds nothing the
    length of its grid but its times, its two sums and a recorded series and
    record.  ``noise`` replaces the trajectories' own draws: Wiener
    increments (steps x m) for homodyne detection, uniforms (m,) for photon
    counting; any other shape raises ``ValueError``.
    """
    steps, times = cfg.steps, cfg.times()
    m = len(seed_seqs)
    if noise is not None:
        want = (steps, m) if cfg.detector == "homodyne" else (m,)
        if np.shape(noise) != want:
            raise ValueError(f"noise for {cfg.detector} detection must have shape {want}, "
                             f"got {np.shape(noise)}")
    gens = [np.random.default_rng(ss) for ss in seed_seqs]
    stats = BlockStats(m, times, np.zeros(steps + 1), np.zeros(steps + 1), np.full(m, np.nan))
    if record_series:
        stats.series, stats.record = np.zeros((steps + 1, m)), np.zeros((steps + 1, m))
    if cfg.detector != "homodyne":
        _first_passage(cfg, stats, seed_seqs, gens, noise)
        return stats
    if cfg.engine == "cascade":
        _cascade(cfg, stats, seed_seqs, gens, noise)
        return stats
    f = fm.compile_filter(SLHModel.cavity(cfg.fock_dim, cfg.kappa, cfg.delta))
    g = fm.real_filter(f, _support(f, f.drift, f.diffusion))
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


def _first_passage(cfg: SimConfig, stats: BlockStats, seed_seqs, gens, noise) -> None:
    """Photon counting by inversion of the probability s = <n> + tail_norm of
    no count (the photon is in the cavity or still to come), with <n> =
    |beta|^2 in closed form (:func:`wavepacket.cavity_amplitude`) on the whole
    grid; n = <n> / s.  Each trajectory draws one uniform V and counts at the
    first row where the running minimum of s falls below V, so P(no count by
    row k) = min_{i <= k} s_i even where rounding raises s by an ulp; its
    count time is that row's time (NaN if there is none).  The count takes
    |e,0> and |g,1> to |g,0>, so n = 0 after it and it adds nothing to the
    sums; guards read rows where someone waits.
    """
    times, w = stats.times, wp.Wavepacket(cfg.gamma, cfg.t0)
    v = np.array([g.random() for g in gens]) if noise is None else np.asarray(noise, dtype=float)
    n_me = np.abs(wp.cavity_amplitude(w, cfg.kappa, cfg.delta, times)) ** 2
    s, rows = n_me + wp.tail_norm(w, times), np.arange(times.size)
    # V waits while V <= the least s so far, and counts at the first row
    # where that least falls below V (at = times.size: it never does).
    at = np.searchsorted(-np.fmin.accumulate(s), -v, side="right")
    live = stats.m - np.cumsum(np.bincount(at, minlength=times.size))[:times.size]
    e = int(np.count_nonzero(live))  # the rows someone waits at: a prefix
    n, live = n_me[:e] / s[:e], live[:e]
    bad = ~np.isfinite(n)
    if bad.any():
        i = int(np.argmax(bad))
        _fail(FilterDivergenceError, f"filter diverged to pi11(n) = {n[i]}", times[i],
              seed_seqs, np.argmax(at > i))
    stats.n_min, stats.n_max = float(n.min()), float(n.max())
    stats.sum_n[:e], stats.sumsq_n[:e] = n * live, n * n * live
    counted = at < times.size
    stats.count_times[counted] = times[at[counted]]
    if stats.series is not None:
        stats.series[:e] = np.where(at > rows[:e, None], n[:, None], 0.0)
        stats.record[:] = rows[:, None] >= at


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


def simulate_trajectory(cfg: SimConfig, seed=None) -> Trajectory:
    """Run one seeded trajectory of ``cfg.detector`` and return its full time series.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``; by default the
    config's seed is used.  The record holds dY increments for homodyne
    detection and cumulative counts for photon counting, and ``jumps`` the
    count time, if any.  It runs a block of one, so the cascade steps on
    Python floats (:func:`_cascade`).
    """
    seed = cfg.seed if seed is None else seed
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    stats = run_block(cfg, seed_seqs=[ss], record_series=True)
    t = float(stats.count_times[0])
    return Trajectory(stats.times, stats.series[:, 0].copy(), stats.record[:, 0].copy(),
                      [] if math.isnan(t) else [t], seed)
