"""Deterministic master-equation reference and ensemble statistics.

The master equation is obtained by zeroing the martingale terms of the Ito
hierarchy (classical averaging kills dW and the compensated counting
increments), which leaves the linear drift of the compiled filter.  From
the vacuum that drift reaches five entries of the state at every Fock
truncation, and the classical fixed-step RK4 of
:func:`photonfilter.sde_engine.master_path` steps only those, so the series
is the same at every D >= 2.  Homodyne
ensembles run the filter of ``cfg.engine``; photon-counting ensembles
sample their count times from the closed form below.

An independent closed-form oracle is provided as well, never computed from
the RK4 path it cross-checks: with c = i delta + kappa/2,

    <n>(t) = kappa * | integral_{t0}^{t} exp(-c (t-s)) xi(s) ds |^2 = |beta(t)|^2

for the cavity amplitude beta of :func:`photonfilter.wavepacket.cavity_amplitude`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import filter_generic as fg
from . import filter_moments as fm
from . import sde_engine as se
from . import wavepacket as wp
from .config import SimConfig

_ENSEMBLE_BLOCK = 500


@dataclass
class SeriesND:
    """A deterministic mean-photon-number series."""

    times: np.ndarray
    values: np.ndarray


@dataclass
class EnsembleStats:
    """Pointwise mean and standard error over an ensemble of trajectories."""

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    count: int
    diagnostics: se.BlockStats | None = None


def integrate_master(cfg: SimConfig) -> SeriesND:
    """RK4 integration of the compiled drift (:func:`photonfilter.sde_engine.master_path`);
    returns <n>(t), the same at every ``cfg.fock_dim``."""
    f = fm.compile_filter(fg.SLHModel.cavity(cfg.fock_dim, cfg.kappa, cfg.delta))
    times = se.SimGrid(0.0, cfg.t_end, cfg.dt).times()
    out = np.empty(times.shape)
    for k, states in se.master_path(cfg, f):
        n = out[k:k + len(states)] = (states @ f.readout[0]).real
        if not np.isfinite(n).all():
            t = times[k + int(np.argmin(np.isfinite(n)))]
            raise RuntimeError(f"master-equation integration diverged at t={t:.6g}")
    return SeriesND(times, out)


def analytic_mean_photon_series(cfg: SimConfig, times: np.ndarray) -> np.ndarray:
    """Closed-form master-equation photon number |beta|^2 at each of ``times``
    (:func:`photonfilter.wavepacket.cavity_amplitude`)."""
    w = wp.Wavepacket(cfg.gamma, cfg.t0)
    return np.abs(wp.cavity_amplitude(w, cfg.kappa, cfg.delta, times)) ** 2


def _ensemble_block(args):
    cfg, detector, seqs = args
    return se.run_block(cfg, detector, seed_seqs=seqs)


def run_ensemble(
    cfg: SimConfig,
    detector: str | None = None,
    M: int | None = None,
    master_seed: int | None = None,
    workers: int = 1,
) -> EnsembleStats:
    """Run M independent trajectories and return pointwise mean and stderr.

    Trajectory i draws its noise from child i of SeedSequence(master_seed),
    so the result is independent of how the work is scheduled.  Blocks of
    fixed size are folded in index order, making the reduction deterministic
    for any worker count.
    """
    detector = detector or cfg.detector
    m_total = M if M is not None else cfg.ntraj
    seed = master_seed if master_seed is not None else cfg.seed
    children = np.random.SeedSequence(seed).spawn(m_total)
    tasks = [
        (cfg, detector, children[lo:lo + _ENSEMBLE_BLOCK])
        for lo in range(0, m_total, _ENSEMBLE_BLOCK)
    ]
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_ensemble_block, tasks))
    else:
        blocks = [_ensemble_block(t) for t in tasks]
    stats = se._fold(blocks)
    mean = stats.sum_n / m_total
    if m_total > 1:
        var = np.clip(stats.sumsq_n - stats.sum_n**2 / m_total, 0.0, None) / (m_total - 1)
        stderr = np.sqrt(var / m_total)
    else:
        stderr = np.zeros_like(mean)
    return EnsembleStats(stats.times, mean, stderr, m_total, diagnostics=stats)


def weak_convergence_bias(
    cfg: SimConfig,
    M: int,
    master_seed: int,
) -> tuple[float, float]:
    """Homodyne ensemble-mean bias of ``cfg.engine`` vs the closed-form oracle
    at dt and dt/2.

    Uses common random numbers: each trajectory's fine-grid Wiener
    increments are drawn once and pairwise-summed to form its coarse-grid
    increments.  Trajectories run in blocks of ``_ENSEMBLE_BLOCK``, each
    drawing its own increments, and the blocks' sums are added in order.
    Returns (bias at dt, bias at dt/2), each a sup over the coarse grid.
    """
    grid = se.SimGrid(0.0, cfg.t_end, cfg.dt)
    steps = grid.steps
    cfg_f = cfg.with_(dt=0.5 * cfg.dt)
    children = np.random.SeedSequence(master_seed).spawn(M)
    sum_c, sum_f = np.zeros(steps + 1), np.zeros(2 * steps + 1)
    for lo in range(0, M, _ENSEMBLE_BLOCK):
        seqs = children[lo:lo + _ENSEMBLE_BLOCK]
        gens = [np.random.default_rng(ss) for ss in seqs]
        noise_f = se._chunk_noise(gens, 2 * steps, np.sqrt(0.5 * cfg.dt))
        noise_c = noise_f[0::2] + noise_f[1::2]
        sum_c += se.run_block(cfg, "homodyne", seed_seqs=seqs, noise=noise_c).sum_n
        sum_f += se.run_block(cfg_f, "homodyne", seed_seqs=seqs, noise=noise_f).sum_n
    mean_c = sum_c / M
    mean_f = sum_f[::2] / M
    oracle = analytic_mean_photon_series(cfg, grid.times())
    bias_c = float(np.abs(mean_c - oracle).max())
    bias_f = float(np.abs(mean_f - oracle).max())
    return bias_c, bias_f
