"""Deterministic master-equation reference and ensemble statistics.

The master equation is obtained by zeroing the martingale terms of the Ito
hierarchy (classical averaging kills dW and the compensated counting
increments), which leaves the linear drift of the compiled filter.  From
the vacuum that drift reaches five entries of the state at every Fock
truncation, and the classical fixed-step RK4 of
:func:`photonfilter.sde_engine.master_path` steps only those, so the series
is the same at every D >= 2; ``me`` reports it and ``verify`` checks it.
Homodyne ensembles run the filter of ``cfg.engine``, photon-counting ones
sample their count times from the closed form below, and ``ensemble`` sets
both beside that closed form, never computed from the RK4 path it
cross-checks: with c = i delta + kappa/2,

    <n>(t) = kappa * | integral_{t0}^{t} exp(-c (t-s)) xi(s) ds |^2 = |beta(t)|^2

for the cavity amplitude beta of :func:`photonfilter.wavepacket.cavity_amplitude`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import filter_moments as fm
from . import sde_engine as se
from . import seeding
from . import wavepacket as wp
from .config import SimConfig
from .filter_generic import SLHModel

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
    f = fm.compile_filter(SLHModel.cavity(cfg.fock_dim, cfg.kappa, cfg.delta))
    times = cfg.times()
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
    cfg, seqs = args
    return se.run_block(cfg, seed_seqs=seqs)


def run_ensemble(cfg: SimConfig, workers: int = 1) -> EnsembleStats:
    """Run ``cfg.ntraj`` independent trajectories and return pointwise mean and stderr.

    Trajectory i draws its noise from child i of SeedSequence(cfg.seed),
    so the result is independent of how the work is scheduled.  The
    children come from one vectorised hash equal to ``SeedSequence.spawn``
    under NEP 19 (:func:`photonfilter.seeding.children`).  Blocks of
    fixed size are folded in index order, making the reduction deterministic
    for any worker count.  At most one worker process starts per block.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    m_total = cfg.ntraj
    if cfg.detector == "homodyne":
        # numpy.random, which the homodyne generators need, loads before the
        # children are allocated, as it did under numpy's own spawn: loaded
        # after them, it left the homodyne benchmark's peak RSS 0.16 MB higher.
        # Photon counting computes its uniforms without it.
        seeding.load_random()
    children = seeding.children(cfg.seed, m_total)
    tasks = [(cfg, children[lo:lo + _ENSEMBLE_BLOCK]) for lo in range(0, m_total, _ENSEMBLE_BLOCK)]
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
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
