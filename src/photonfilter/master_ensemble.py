"""Deterministic master-equation reference and ensemble statistics.

The master equation is obtained by zeroing the martingale terms of the Ito
hierarchy (classical averaging kills dW and the compensated counting
increments), which leaves the linear drift of the compiled filter.  That
system is integrated with classical fixed-step RK4 at the configured Fock
truncation.

An independent closed-form oracle is provided as well: integrating the
drift of the off-diagonal coherence and substituting into the photon-number
equation gives, with tau = t - t0, c = i delta + kappa/2 and z = c - gamma/2,

    <n>(t) = kappa * | integral_{t0}^{t} exp(-c (t-s)) xi(s) ds |^2
           = kappa gamma | exp(-c tau) tau expm1(z tau) / (z tau) |^2,

never computed from the RK4 path it cross-checks.
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
    """RK4 integration of the compiled drift at ``cfg.fock_dim``; returns <n>(t)."""
    grid = se.SimGrid(0.0, cfg.t_end, cfg.dt)
    times = grid.times()
    w = wp.Wavepacket(cfg.gamma, cfg.t0)
    dt = cfg.dt
    xi_full = np.asarray(wp.xi(w, times))
    xi_half = np.asarray(wp.xi(w, times[:-1] + 0.5 * dt))
    f = fm.compile_filter(fg.SLHModel.cavity(cfg.fock_dim, cfg.kappa, cfg.delta))
    fd_a, fd_b, fd_c = (fm.drift_matrix(f, 0j) for _ in range(3))
    n_row = f.readout[0]
    x = f.initial.copy()
    out = np.empty(times.shape)
    out[0] = (n_row @ x).real
    for k in range(grid.steps):
        # The state is exactly the initial one until the wavepacket arrives;
        # starting the RK4 there keeps the right-hand side smooth.
        if times[k + 1] <= cfg.t0:
            out[k + 1] = out[0]
            continue
        fm.drift_matrix(f, complex(xi_full[k]), out=fd_a)
        fm.drift_matrix(f, complex(xi_half[k]), out=fd_b)
        fm.drift_matrix(f, complex(xi_full[k + 1]), out=fd_c)
        k1 = fd_a @ x
        k2 = fd_b @ (x + 0.5 * dt * k1)
        k3 = fd_b @ (x + 0.5 * dt * k2)
        k4 = fd_c @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = (n_row @ x).real
        if not np.isfinite(out[k + 1]):
            raise RuntimeError(f"master-equation integration diverged at t={times[k+1]:.6g}")
    return SeriesND(times, out)


def analytic_mean_photon_series(cfg: SimConfig, times: np.ndarray) -> np.ndarray:
    """Closed-form master-equation photon number at each of ``times``.

    The factor expm1(z tau) / (z tau) is 1 at z tau = 0, which covers the
    matched pulse (delta = 0, gamma = kappa) and the times up to t0.
    """
    tau = np.clip(np.asarray(times, dtype=float) - cfg.t0, 0.0, None)
    c = 1j * cfg.delta + 0.5 * cfg.kappa
    zt = (c - 0.5 * cfg.gamma) * tau
    nonzero = zt != 0
    ratio = np.ones_like(zt)
    ratio[nonzero] = np.expm1(zt[nonzero]) / zt[nonzero]
    return cfg.kappa * cfg.gamma * np.abs(np.exp(-c * tau) * tau * ratio) ** 2


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
    """Homodyne ensemble-mean bias vs the closed-form oracle at dt and dt/2.

    Uses common random numbers: each trajectory's fine-grid Wiener
    increments are drawn once and pairwise-summed to form its coarse-grid
    increments.  Returns (bias at dt, bias at dt/2), each a sup over the
    coarse grid.
    """
    grid = se.SimGrid(0.0, cfg.t_end, cfg.dt)
    steps = grid.steps
    cfg_f = cfg.with_(dt=0.5 * cfg.dt)
    children = np.random.SeedSequence(master_seed).spawn(M)
    gens = [np.random.default_rng(ss) for ss in children]
    sfine = np.sqrt(0.5 * cfg.dt)
    noise_f = np.empty((2 * steps, M))
    for j, g in enumerate(gens):
        noise_f[:, j] = g.standard_normal(2 * steps) * sfine
    noise_c = noise_f[0::2] + noise_f[1::2]

    stats_c = se.run_block(cfg, "homodyne", seed_seqs=children, noise=noise_c)
    stats_f = se.run_block(cfg_f, "homodyne", seed_seqs=children, noise=noise_f)
    mean_c = stats_c.sum_n / M
    mean_f = stats_f.sum_n[::2] / M
    oracle = analytic_mean_photon_series(cfg, stats_c.times)
    bias_c = float(np.abs(mean_c - oracle).max())
    bias_f = float(np.abs(mean_f - oracle).max())
    return bias_c, bias_f
