"""Time grids, reproducible noise, and the trajectory driver.

Every trajectory owns an independent random stream derived from a
``numpy.random.SeedSequence``; ensembles spawn one child sequence per
trajectory index from the master seed, so results are reproducible under
any degree of parallelism.  Integration is fixed-step Euler-Maruyama on the
Ito equations; photon-counting jumps use per-step Bernoulli thinning, valid
because nu * dt <= 0.1 is enforced.

The workhorse is :func:`run_block`, the one stepping loop for every Fock
truncation: it advances a whole block of trajectories in lock-step with the
filter compiled from (S, L, H) by :mod:`photonfilter.filter_moments`.
Photon counting steps one shared column: until its count every trajectory
has seen the same empty record, so all share one no-jump state, and the
count leaves the cavity in vacuum with nu = 0 for good.  A trajectory's
noise depends only on its own seed sequence, so a trajectory inside a block
matches the same trajectory run alone to rounding (BLAS kernels may pick a
different summation order for different batch widths); rerunning the same
command, including under parallel workers, is bit-identical because the
block decomposition is fixed.  Every error the runner raises names the time
and the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import filter_generic as fg
from . import filter_moments as fm
from . import wavepacket as wp
from .config import SimConfig
from .errors import (
    FilterDivergenceError,
    GridTooCoarseError,
    NonRealInnovationError,
)

_CHUNK = 4096


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
    """Per-block accumulators; ensembles fold these in trajectory-index order."""

    m: int
    times: np.ndarray
    sum_n: np.ndarray
    sumsq_n: np.ndarray
    sum_i00: np.ndarray
    sumsq_i00: np.ndarray
    jump_counts: np.ndarray
    n_min: float = np.inf
    n_max: float = -np.inf
    post_jump_max_n: float = -np.inf
    max_pair_dev: float = 0.0
    max_im_k: float = 0.0
    max_im_nu: float = 0.0
    max_im_n: float = 0.0
    max_i11_dev: float = 0.0
    min_nu: float = np.inf
    series: np.ndarray | None = None
    record: np.ndarray | None = None
    jump_times: list[list[float]] = field(default_factory=list)


def _fold(blocks: list[BlockStats]) -> BlockStats:
    """Deterministic reduction of block accumulators, in block order."""
    out = blocks[0]
    for b in blocks[1:]:
        out.m += b.m
        out.sum_n += b.sum_n
        out.sumsq_n += b.sumsq_n
        out.sum_i00 += b.sum_i00
        out.sumsq_i00 += b.sumsq_i00
        out.jump_counts = np.concatenate([out.jump_counts, b.jump_counts])
        out.n_min = min(out.n_min, b.n_min)
        out.n_max = max(out.n_max, b.n_max)
        out.post_jump_max_n = max(out.post_jump_max_n, b.post_jump_max_n)
        out.max_pair_dev = max(out.max_pair_dev, b.max_pair_dev)
        out.max_im_k = max(out.max_im_k, b.max_im_k)
        out.max_im_nu = max(out.max_im_nu, b.max_im_nu)
        out.max_im_n = max(out.max_im_n, b.max_im_n)
        out.max_i11_dev = max(out.max_i11_dev, b.max_i11_dev)
        out.min_nu = min(out.min_nu, b.min_nu)
        out.jump_times.extend(b.jump_times)
    return out


def _chunk_noise(gens, n: int, homodyne: bool, sqrt_dt: float) -> np.ndarray:
    out = np.empty((n, len(gens)))
    for j, g in enumerate(gens):
        if homodyne:
            out[:, j] = g.standard_normal(n) * sqrt_dt
        else:
            out[:, j] = g.random(n)
    return out


def _init_stats(m: int, times: np.ndarray, record_series: bool, steps: int) -> BlockStats:
    z = np.zeros(steps + 1)
    stats = BlockStats(
        m=m,
        times=times,
        sum_n=z.copy(),
        sumsq_n=z.copy(),
        sum_i00=z.copy(),
        sumsq_i00=z.copy(),
        jump_counts=np.zeros(m, dtype=np.int64),
        jump_times=[[] for _ in range(m)],
    )
    if record_series:
        stats.series = np.zeros((steps + 1, m))
        stats.record = np.zeros((steps + 1, m))
    return stats


def _fail(exc, fmt: str, values, bad, t: float, seed_seqs, alive):
    """Raise ``exc`` with ``fmt`` of the value, t and the first flagged trajectory
    still in ``alive`` (one entry each, or one for the shared column): its index
    in the ensemble (the last entry of its seed sequence's spawn key), or else
    its column in the block."""
    j = int(np.flatnonzero(np.broadcast_to(bad, alive.shape) & alive)[0])
    key = getattr(seed_seqs[j], "spawn_key", ())
    who = key[-1] if key else j
    value = np.broadcast_to(values, alive.shape)[j]
    raise exc(f"{fmt.format(value)} at t={t:.6g} in trajectory {who}")


def run_block(
    cfg: SimConfig,
    detector: str,
    seed_seqs,
    *,
    noise: np.ndarray | None = None,
    record_series: bool = False,
) -> BlockStats:
    """Advance a block of trajectories (one per seed sequence) in lock-step.

    The filter is compiled once from the cavity's (S, L, H) at
    ``cfg.fock_dim``; each step evaluates its maps at xi(t) and applies them
    with one matmul each, to a (4 D^2, m) state for homodyne detection and
    to the one shared no-jump column for photon counting, which stops once
    every trajectory has counted.  ``noise`` (steps x m) replaces the
    trajectories' own draws: Wiener increments for homodyne detection,
    uniforms for photon counting.
    """
    homodyne = detector == "homodyne"
    grid = SimGrid(0.0, cfg.t_end, cfg.dt)
    steps = grid.steps
    times = grid.times()
    dt = cfg.dt
    sqrt_dt = np.sqrt(dt)
    w = wp.Wavepacket(cfg.gamma, cfg.t0)
    xi_arr = np.asarray(wp.xi(w, times[:-1]))
    m = len(seed_seqs)
    gens = [np.random.default_rng(ss) for ss in seed_seqs]

    f = fm.compile_filter(fg.SLHModel.cavity(cfg.fock_dim, cfg.kappa, cfg.delta))
    x = np.repeat(f.initial[:, None], m if homodyne else 1, axis=1)
    # The trajectories on the state: all, or for photon counting those yet to count.
    alive = np.ones(m, dtype=bool)
    fd = fm.drift_matrix(f, 0j)
    if homodyne:
        fgm = fm.diffusion_matrix(f, 0j)
        kr = fm.k_row(f, 0j)
    else:
        fj = fm.jump_gain_matrix(f, 0j)
        nr = fm.nu_row(f, 0j)
    floor = fg.nu_floor(dt)

    stats = _init_stats(m, times, record_series, steps)
    r = _readout(f, x)
    _accumulate(stats, 0, r, 1 if homodyne else m)
    if record_series:
        stats.series[0] = r[0].real

    for start in range(0, steps, _CHUNK):
        n = min(_CHUNK, steps - start)
        if noise is not None:
            nz = noise[start:start + n]
        else:
            nz = _chunk_noise(gens, n, homodyne, sqrt_dt)
        for i in range(n):
            k = start + i
            xi_k = complex(xi_arr[k])
            drift = fm.drift_matrix(f, xi_k, out=fd) @ x
            if homodyne:
                fm.diffusion_matrix(f, xi_k, out=fgm)
                kc = fm.k_row(f, xi_k, out=kr) @ x
                im = np.abs(kc.imag)
                im_max = float(im.max())
                if im_max > fg._IM_ERR:
                    _fail(NonRealInnovationError, "K_t has imaginary part {:.3e}", im,
                          im > fg._IM_ERR, times[k], seed_seqs, alive)
                stats.max_im_k = max(stats.max_im_k, im_max)
                kk = kc.real
                dw = nz[i]
                x = x + drift * dt + ((fgm @ x) - kk * x) * dw
                if record_series:
                    stats.record[k + 1] = kk * dt + dw
            else:
                gains = fm.jump_gain_matrix(f, xi_k, out=fj) @ x
                nuc = (fm.nu_row(f, xi_k, out=nr) @ x)[0]
                im = float(abs(nuc.imag))
                if im > fg._IM_ERR:
                    _fail(NonRealInnovationError, "nu_t has imaginary part {:.3e}", im,
                          True, times[k], seed_seqs, alive)
                stats.max_im_nu = max(stats.max_im_nu, im)
                nu = float(nuc.real)
                if nu < -floor:
                    _fail(FilterDivergenceError, "jump intensity nu_t = {:.3e} strongly negative",
                          nu, True, times[k], seed_seqs, alive)
                nu = max(nu, 0.0)
                stats.min_nu = min(stats.min_nu, nu)
                nudt = nu * dt
                if nudt > 0.1:
                    _fail(GridTooCoarseError, "nu*dt = {:.3g} > 0.1 (refine the grid)", nudt,
                          True, times[k], seed_seqs, alive)
                if nu >= fg._NU_EPS:
                    jump = alive & (nz[i] < nudt)
                    if jump.any():
                        post_n = float(_readout(f, gains / nu)[0, 0].real)
                        stats.post_jump_max_n = max(stats.post_jump_max_n, post_n)
                        stats.jump_counts += jump
                        for idx in np.nonzero(jump)[0]:
                            stats.jump_times[idx].append(float(times[k + 1]))
                        if record_series:
                            stats.record[k + 1:, jump] = 1.0
                        alive &= ~jump
                    x = x + (drift - (gains - nu * x)) * dt
                else:
                    x = x + drift * dt
                if not alive.any():
                    return stats
            r = _readout(f, x)
            finite = np.isfinite(r[0])
            if not finite.all():
                _fail(FilterDivergenceError, "filter diverged to pi11(n) = {}", r[0].real,
                      ~finite, times[k + 1], seed_seqs, alive)
            _accumulate(stats, k + 1, r, 1 if homodyne else np.count_nonzero(alive))
            if record_series:
                stats.series[k + 1] = np.where(alive, r[0].real, 0.0)
    return stats


def _readout(f, x: np.ndarray) -> np.ndarray:
    """Readouts of the (N, m) state: the real readout matrix acts on its float view."""
    return (f.readout @ x.view(np.float64)).view(np.complex128)


def _accumulate(stats, k, r, weight):
    """Fold the readouts ``r`` (rows as in ``filter_moments.READOUTS``) at
    step k, each column standing for ``weight`` trajectories."""
    v = r[0].real
    stats.sum_n[k] = np.add.reduce(v) * weight
    stats.sumsq_n[k] = (v @ v) * weight
    u = r[2].real
    stats.sum_i00[k] = np.add.reduce(u) * weight
    stats.sumsq_i00[k] = (u @ u) * weight
    stats.n_min = min(stats.n_min, float(v.min()))
    stats.n_max = max(stats.n_max, float(v.max()))
    stats.max_im_n = max(stats.max_im_n, float(np.abs(r[:2].imag).max()))
    stats.max_i11_dev = max(stats.max_i11_dev, float(np.abs(r[3] - 1.0).max()))
    # The conjugation pairs (d10, a01), (i10, i01) and (d01, a10).
    dev = float(np.abs(r[4::2] - r[5::2].conj()).max())
    stats.max_pair_dev = max(stats.max_pair_dev, dev)


def simulate_trajectory(
    cfg: SimConfig,
    detector: str | None = None,
    seed=None,
) -> Trajectory:
    """Run one seeded trajectory and return its full time series.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``; by default the
    config's seed is used.  The record holds dY increments for homodyne
    detection and cumulative counts for photon counting.
    """
    detector = detector or cfg.detector
    if seed is None:
        seed = cfg.seed
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    stats = run_block(cfg, detector, seed_seqs=[ss], record_series=True)
    return Trajectory(
        times=stats.times,
        n_cond=stats.series[:, 0].copy(),
        record=stats.record[:, 0].copy(),
        jumps=list(stats.jump_times[0]),
        seed=seed,
    )
