"""Time grids, reproducible noise, and the trajectory driver.

Every trajectory draws from its own ``numpy.random.SeedSequence`` (an
ensemble spawns child i of the master seed for trajectory i), so results do
not depend on scheduling, and a trajectory inside a block matches the same
trajectory run alone to rounding.  :func:`run_block` runs a block in
lock-step: homodyne detection by Euler-Maruyama on the cascade's pure state
(on Python floats when the block holds one trajectory) or on the filter
compiled by :mod:`photonfilter.filter_moments` (in sub-chunks of steps that
share one evaluation of the maps, one pass of the guards and one of the
sums), photon counting by inverting the probability of no count, one
uniform per trajectory.  Every error names the time and the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import filter_moments as fm
from . import wavepacket as wp
from .config import SimConfig
from .errors import FilterDivergenceError, NonRealInnovationError
from .filter_generic import SLHModel

# Steps of Wiener increments held at once, in one buffer per homodyne block
# (2 MB at m = 500, so it stays in cache).  A multiple of _SUB, so that the
# generic filter's sub-chunks, and with them its outputs, do not move.
_CHUNK = 512
_PATH = 64  # steps of the master equation's path held at once
_SUB = 8  # steps of the generic filter whose maps are evaluated at once
# Imaginary residue of K: dropped up to _IM_ERR, a hard error above it
# (signals an index-ordering bug).
_IM_ERR = 1e-6


@dataclass(frozen=True)
class SimGrid:
    """Uniform time grid [t_start, t_end] with step dt."""

    t_start: float
    t_end: float
    dt: float

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        span = self.t_end - self.t_start
        steps = int(round(span / self.dt))
        if steps < 1:
            raise ValueError(f"grid needs at least one step, span={span}, dt={self.dt}")
        if abs(steps * self.dt - span) > 1e-12 * max(1.0, abs(span)):
            raise ValueError(
                f"span {span} is not an integer multiple of dt={self.dt}"
            )

    @property
    def steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.dt))

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.steps + 1)


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
    time (NaN where it has none; only photon counting counts).  The generic
    filter also tracks its residuals: |Im K|, the imaginary parts of
    pi11(n) and pi00(n), and |pi11(I) - 1|.
    """

    m: int
    times: np.ndarray
    sum_n: np.ndarray
    sumsq_n: np.ndarray
    count_times: np.ndarray
    n_min: float = np.inf
    n_max: float = -np.inf
    max_im_k: float = 0.0
    max_im_n: float = 0.0
    max_i11_dev: float = 0.0
    series: np.ndarray | None = None
    record: np.ndarray | None = None


def _fold(blocks: list[BlockStats]) -> BlockStats:
    """Deterministic reduction of block accumulators, in block order."""
    out = blocks[0]
    for b in blocks[1:]:
        out.m += b.m
        out.sum_n += b.sum_n
        out.sumsq_n += b.sumsq_n
        for name in ("n_max", "max_im_k", "max_im_n", "max_i11_dev"):
            setattr(out, name, max(getattr(out, name), getattr(b, name)))
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
    dt, t0 = cfg.dt, cfg.t0
    w = wp.Wavepacket(cfg.gamma, t0)
    steps = SimGrid(0.0, cfg.t_end, dt).steps
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
    rescales), the same at every D.  It steps in sub-chunks of ``_SUB``
    steps: one product evaluates the stacked map [Fd dt; Fg; k] at every
    step's xi(t), a step is one (19 x 9) . (9 x m) product, the Euler
    update and the readout into a buffer, and the guards (:func:`_guard`) and
    sums (:func:`_accumulate`) then run once over the sub-chunk's rows.
    Both homodyne engines draw their Wiener increments ``_CHUNK`` steps at a
    time into one buffer per block (:func:`_noise_chunks`).  ``noise``
    replaces the trajectories' own draws: Wiener increments (steps x m) for
    homodyne detection, uniforms (m,) for photon counting; any other shape
    raises ``ValueError``.
    """
    grid = SimGrid(0.0, cfg.t_end, cfg.dt)
    steps = grid.steps
    times = grid.times()
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
    on = _support(f, f.drift, f.diffusion)
    d, sq = on.size, np.ix_(range(4), on, on)
    # A step's map: rows :d give Fd x dt, rows d:2d Fg x and the last k . x.
    stack = np.concatenate([f.drift[sq] * cfg.dt, f.diffusion[sq], f.k[:, None, on]], axis=1)
    # The readouts the runner reads: n11, n00 and i11 (fm.READOUTS).
    readout, x = f.readout[:3, on], np.repeat(f.initial[on, None], m, axis=1)
    del f  # the full maps are not held while stepping
    xi_arr = wp.xi(wp.Wavepacket(cfg.gamma, cfg.t0), times[:-1])
    y = np.empty((2 * d + 1, m), dtype=np.complex128)
    fx = np.empty((d, m), dtype=np.complex128)
    kx = np.empty((_SUB, m), dtype=np.complex128)  # K of each step, before Re
    r = np.empty((_SUB, len(readout), m), dtype=np.complex128)
    _readout(readout, x, r[0])
    _accumulate(stats, 0, r[:1])
    if record_series:
        stats.series[0] = r[0, 0].real
    for start, nz in _noise_chunks(gens, steps, np.sqrt(cfg.dt), noise):
        for s0 in range(0, len(nz), _SUB):
            k0, ns = start + s0, min(_SUB, len(nz) - s0)
            maps = fm.evaluate(stack, xi_arr[k0:k0 + ns])
            for i in range(ns):  # x += Fd x dt + (Fg x - K x) dW
                np.matmul(maps[i], x, out=y)
                kx[i] = y[-1]
                np.multiply(x, y[-1].real, out=fx)
                np.subtract(y[d:-1], fx, out=fx)
                fx *= nz[s0 + i]
                x += y[:d]
                x += fx
                _readout(readout, x, out=r[i])
            im = np.abs(kx[:ns].imag)
            _guard(im, r[:ns, 0], times[k0:], seed_seqs)
            stats.max_im_k = max(stats.max_im_k, float(im.max()))
            _accumulate(stats, k0 + 1, r[:ns])
            if record_series:
                rows = slice(k0 + 1, k0 + ns + 1)
                stats.series[rows] = r[:ns, 0].real
                stats.record[rows] = kx[:ns].real * cfg.dt + nz[s0:s0 + ns]
    return stats


def _guard(im: np.ndarray, n: np.ndarray, times, seed_seqs) -> None:
    """Raise at the first bad step of a generic sub-chunk, in the order the
    steps meet them: row i holds |Im K| on the state at times[i] and pi11(n)
    of the state at times[i + 1]."""
    over, finite = im > _IM_ERR, np.isfinite(n)
    bad = over.any(axis=1) | ~finite.all(axis=1)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if over[i].any():
        j = int(np.argmax(over[i]))
        _fail(NonRealInnovationError, f"K_t has imaginary part {im[i, j]:.3e}",
              times[i], seed_seqs, j)
    j = int(np.argmin(finite[i]))
    _fail(FilterDivergenceError, f"filter diverged to pi11(n) = {n[i, j].real}",
          times[i + 1], seed_seqs, j)


def _cascade(cfg: SimConfig, stats: BlockStats, seed_seqs, gens, noise) -> None:
    """Homodyne detection on the pure state alpha|e,0> + beta|g,1> + c|g,0> of
    a two-level source, excited at t0, feeding the cavity.

    alpha^2 = tail_norm and beta (:func:`wavepacket.cavity_amplitude`) do not
    see the record; only c does, with f = xi + sqrt(kappa) beta:
    dc = f (K dt + dW), K = 2 Re(conj(c) f) / N, N = alpha^2 + |beta|^2 + |c|^2.
    n = |beta|^2 / N is in [0, 1] by construction.  The noise is additive
    (strong order 1).  Each step's N overwrites its spent increment in the
    block's noise buffer (:func:`_noise_chunks`, which copies ``noise`` in
    rather than writing to it), :func:`_fold_cascade` takes the sums per
    chunk, and the last row's N carries to the next.
    A block steps as (2 x m) arrays, except a block of one trajectory (a
    ``trajectory`` run, or an ensemble block that holds one), which steps on
    Python floats (:func:`_cascade_floats`): a step is a few flops, and on
    length-1 arrays the numpy calls' overhead cost about ten times as much.
    """
    times, dt = stats.times, cfg.dt
    w = wp.Wavepacket(cfg.gamma, cfg.t0)
    beta = wp.cavity_amplitude(w, cfg.kappa, cfg.delta, times)
    bb, f = np.abs(beta) ** 2, wp.xi(w, times) + np.sqrt(cfg.kappa) * beta
    floor = wp.tail_norm(w, times) + bb  # N at c = 0
    fc = np.stack([f.real, f.imag], axis=1)[:, :, None]
    gain = 2.0 * dt * fc[:, :, 0]  # K dt = gain . (Re c, Im c) / N
    c, nrm = np.zeros((2, stats.m)), np.ones(stats.m)  # the photon starts in the source
    y, tmp = np.empty(stats.m), np.empty((2, stats.m))
    _fold_cascade(stats, 0, bb, np.ones((1, stats.m)), seed_seqs)
    for start, nz in _noise_chunks(gens, len(times) - 1, np.sqrt(dt), noise):
        stop = start + len(nz)
        if stats.m == 1:
            ys = _cascade_floats(c, nrm, gain[start:stop], fc[start:stop, :, 0],
                                 floor[start + 1:stop + 1], nz)
            if stats.record is not None:
                stats.record[start + 1:stop + 1, 0] = ys
        else:
            for i, k in enumerate(range(start, stop)):
                np.dot(gain[k], c, out=y)
                y /= nrm
                y += nz[i]  # dY = K dt + dW
                c += np.multiply(fc[k], y, out=tmp)
                np.multiply(c, c, out=tmp)
                nrm = np.add(tmp[0], tmp[1], out=nz[i])
                nrm += floor[k + 1]
                if stats.record is not None:
                    stats.record[k + 1] = y
        nrm = nz[-1].copy()
        _fold_cascade(stats, start + 1, bb, nz, seed_seqs)


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


def _fold_cascade(stats: BlockStats, k: int, bb: np.ndarray, nrm: np.ndarray, seed_seqs):
    """Fold the norms N of rows k, k + 1, ..., which become 1 / N: with n =
    |beta|^2 / N, the sums of n and n^2 are |beta|^2 and |beta|^4 times the
    row sums of 1 / N and of its square."""
    finite = np.isfinite(nrm)
    if not finite.all():
        i, j = divmod(int(np.argmin(finite)), nrm.shape[1])
        _fail(FilterDivergenceError, f"filter diverged to pi11(n) = {bb[k + i] / nrm[i, j]}",
              stats.times[k + i], seed_seqs, j)
    u = np.reciprocal(nrm, out=nrm)
    rows, b = slice(k, k + len(u)), bb[k:k + len(u)]
    stats.sum_n[rows] = b * u.sum(axis=1)
    stats.sumsq_n[rows] = b * b * np.einsum("ij,ij->i", u, u)
    stats.n_min = min(stats.n_min, float((b * u.min(axis=1)).min()))
    stats.n_max = max(stats.n_max, float((b * u.max(axis=1)).max()))
    if stats.series is not None:
        stats.series[rows] = b[:, None] * u


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
    order, at = np.argsort(v, kind="stable"), np.full(stats.m, times.size)  # at: count rows
    n_me = np.abs(wp.cavity_amplitude(w, cfg.kappa, cfg.delta, times)) ** 2
    s, rows = n_me + wp.tail_norm(w, times), np.arange(times.size)
    # How many wait at each row (V <= the least s so far); the waiting with
    # the largest V count first, at the rows where that number drops.
    live = np.searchsorted(v[order], np.fmin.accumulate(s), side="right")
    at[order[live[-1]:][::-1]] = np.repeat(rows, -np.diff(live, prepend=stats.m))
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


def _readout(readout: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """Readouts of the (N, m) state into ``out``: the real readout matrix acts
    on the float views."""
    np.matmul(readout, x.view(np.float64), out=out.view(np.float64))


def _accumulate(stats, k, r):
    """Fold the homodyne readouts ``r`` (steps x (n11, n00, i11) x m
    trajectories) of steps k, k + 1, ..., and track the range of n and the
    invariant residuals."""
    rows, v = slice(k, k + len(r)), r[:, 0].real
    stats.sum_n[rows], stats.sumsq_n[rows] = v.sum(axis=1), np.einsum("ij,ij->i", v, v)
    stats.n_min = min(stats.n_min, float(v.min()))
    stats.n_max = max(stats.n_max, float(v.max()))
    stats.max_im_n = max(stats.max_im_n, float(np.abs(r[:, :2].imag).max()))
    stats.max_i11_dev = max(stats.max_i11_dev, float(np.abs(r[:, 2] - 1.0).max()))


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
