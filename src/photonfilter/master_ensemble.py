"""Deterministic master-equation reference and ensemble statistics.

The master equation is obtained by zeroing the martingale terms of the Ito
hierarchy (classical averaging kills dW and the compensated counting
increments), which leaves the linear drift of the compiled filter.  From
the vacuum that drift reaches five entries of the state at every Fock
truncation, and :func:`master_path` steps only those by the drift's exact
flow, with one 5 x 5 increment map per step that is a quadratic in xi built
once per run, so the series is the same at every D >= 2 and stable at any
step; ``me`` reports it and ``verify`` checks it.  A step too long for the
flow to be formed in double precision raises
:class:`~photonfilter.errors.UnstableStepError` before the first step.
Homodyne ensembles run the filter of ``cfg.engine`` in blocks,
photon-counting ones sample all their count times from the closed form
below in one pass, and ``ensemble`` sets both beside that closed form
(evaluated a chunk of rows at a time), never computed from the master path
it cross-checks: with c = i delta + kappa/2,

    <n>(t) = kappa * | integral_{t0}^{t} exp(-c (t-s)) xi(s) ds |^2 = |beta(t)|^2

for the cavity amplitude beta of :func:`photonfilter.wavepacket.cavity_amplitude`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import filter_moments as fm
from . import sde_engine as se
from . import seeding
from . import wavepacket as wp
from .config import SimConfig
from .errors import FilterDivergenceError, UnstableStepError
from .filter_generic import SLHModel

# Steps of the master equation's path held at once; their increment maps
# take 400 bytes a step.
_PATH = 64
# The most doublings a step's flow may take (:func:`_flow`).  Their rounding
# grows with h |G|: at this bound, h |G|_1 <= 2^15, <n> stayed within 3e-8
# of its peak from the closed form (kappa = gamma = 0.1, dt 1e-3 and 1e-2).
_DOUBLINGS = 16


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


def _flow(cfg: SimConfig, drift, h: float) -> np.ndarray:
    """The maps (M0, M1, M2) of the exact flow of dx = (F0 + xi F1) x dt
    over a step of length h, for the drift ``drift`` packed on 1 and xi: the
    step is y + (M0 + xi M1 + xi^2 M2) y for xi at the step's start.

    On a step xi(t + s) = xi(t) e^{-gamma s/2}, so the maps are the top block
    row of exp(hG) - I for G = [[F0, F1, 0], [0, F0 - gamma/2, F1],
    [0, 0, F0 - gamma]] (Van Loan, IEEE Trans. Autom. Control 23, 1978),
    formed without the identity, whose subtraction would cancel digits: 20
    terms of the Taylor series of exp - I on hG / 2^s, of 1-norm at most
    1/2, then s doublings E <- 2E + E E.  Each doubling adds its rounding,
    so a step that takes more than ``_DOUBLINGS`` of them raises
    :class:`UnstableStepError`, naming the largest dt that takes no more."""
    (f0, f1), d = drift, drift.shape[1]
    z, i = np.zeros((d, d)), np.eye(d)
    g = np.block([[f0, f1, z], [z, f0 - 0.5 * cfg.gamma * i, f1], [z, z, f0 - cfg.gamma * i]])
    norm = float(np.abs(g).sum(axis=0).max())
    if h * norm > 2.0 ** (_DOUBLINGS - 1):
        largest = 2.0 ** (_DOUBLINGS - 1) / norm
        scale = 10.0 ** (3 - math.floor(math.log10(largest)))
        raise UnstableStepError(
            f"the master equation's flow over dt={cfg.dt:g} for delta={cfg.delta:g} "
            f"takes more than {_DOUBLINGS} doublings, more than double precision carries; "
            f"dt <= {math.floor(largest * scale) / scale:g} stays within them")
    s = max(0, math.ceil(math.log2(2.0 * h * norm)))
    a, eye = g * (h / 2.0 ** s), np.eye(3 * d)
    e = a / 20.0
    for k in range(19, 0, -1):
        e = a @ (eye + e) / k
    for _ in range(s):
        e = 2.0 * e + e @ e
    return e[:d].reshape(d, 3, d).transpose(1, 0, 2)


def master_path(cfg: SimConfig, f):
    """The exact flow of the master equation dx = Fd(xi(t)) x dt from the vacuum.

    Yields (k0, states) for chunks of at most ``_PATH`` steps: the full
    states at steps k0, k0 + 1, ... of the grid of ``cfg``, in a buffer that
    the next chunk overwrites.  The state is held until the wavepacket
    arrives at t0, and the step t0 falls in is integrated from t0 on.

    Only the entries in :func:`photonfilter.filter_moments.support` are
    stepped, whatever the Fock truncation; the rest of every state is
    exactly 0.  There Fd = F0 + xi F1 with F0 block-diagonal, and F1 only
    feeds block 00 into blocks 10 and 01 and those into block 11, so every
    product with three F1 factors is 0 and a step's flow is exactly
    I + M0 + xi M1 + xi^2 M2 in xi at the step's start (:func:`_flow`).  The
    three maps are formed once per run and evaluated at a chunk's xi in one
    product (:func:`photonfilter.filter_moments.evaluate`); the step t0
    falls in takes the maps of its own length at xi(t0).  A step is y + E y.
    """
    dt, t0, steps = cfg.dt, cfg.t0, cfg.steps
    w = wp.Wavepacket(cfg.gamma, t0)
    on = fm.support(f)
    drift = f.drift[:, on[:, None], on]
    maps = _flow(cfg, drift, dt)
    buf = np.zeros((_PATH + 1, f.initial.size), dtype=np.complex128)
    y = np.empty((_PATH + 1, on.size), dtype=np.complex128)
    dy = np.empty(on.size, dtype=np.complex128)
    y[0] = f.initial[on]
    for k0 in range(0, steps, _PATH):
        n = min(_PATH, steps - k0)
        t = dt * np.arange(k0, k0 + n + 1)  # bit for bit the grid's times
        e = fm.evaluate(maps, wp.xi(w, t[:-1]))
        e[t[1:] <= t0] = 0.0  # held until the wavepacket arrives
        for i in np.flatnonzero((t[:-1] < t0) & (t[1:] > t0)):  # t0 falls in step i
            e[i] = fm.evaluate(_flow(cfg, drift, t[i + 1] - t0), wp.xi(w, t0))
        for ei, yi, yn in zip(e, y, y[1:]):
            np.dot(ei, yi, out=dy)
            np.add(yi, dy, out=yn)
        buf[:n + 1, on] = y[:n + 1]
        yield k0, buf[:n + 1]
        y[0] = y[n]


def integrate_master(cfg: SimConfig) -> SeriesND:
    """The compiled drift's exact flow (:func:`master_path`) read out as
    <n>(t), the same at every ``cfg.fock_dim``.  Raises
    :class:`UnstableStepError` before the first step where dt is too long
    for the flow to be formed in double precision, and
    :class:`FilterDivergenceError` naming the time where <n> stops being
    finite."""
    f = fm.compile_filter(SLHModel.cavity(cfg.fock_dim, cfg.kappa, cfg.delta))
    times = cfg.times()
    out = np.empty(times.shape)
    for k, states in master_path(cfg, f):
        n = out[k:k + len(states)] = (states @ f.readout[0]).real
        if not np.isfinite(n).all():
            t = times[k + int(np.argmin(np.isfinite(n)))]
            raise FilterDivergenceError(f"master-equation integration diverged at t={t:.6g}")
    return SeriesND(times, out)


def analytic_mean_photon_series(cfg: SimConfig, times: np.ndarray) -> np.ndarray:
    """Closed-form master-equation photon number |beta|^2 at each of ``times``
    (:func:`photonfilter.wavepacket.cavity_amplitude`), ``wp.ROWS`` at a time."""
    w, out = wp.Wavepacket(cfg.gamma, cfg.t0), np.empty(np.shape(times))
    for lo in range(0, len(out), wp.ROWS):
        r = slice(lo, lo + wp.ROWS)
        out[r] = np.abs(wp.cavity_amplitude(w, cfg.kappa, cfg.delta, times[r])) ** 2
    return out


def _ensemble_block(args):
    cfg, seqs = args
    return se.run_block(cfg, seed_seqs=seqs)


def run_ensemble(cfg: SimConfig, workers: int = 1) -> EnsembleStats:
    """Run ``cfg.ntraj`` independent trajectories and return pointwise mean and stderr.

    Trajectory i draws its noise from child i of SeedSequence(cfg.seed),
    computed for all of them at once (:mod:`photonfilter.seeding`), so the
    result is independent of how the work is scheduled.  Photon counting runs
    in one pass (:func:`photonfilter.sde_engine.count_photons`); ``workers``
    splits homodyne ensembles only, at most one process per block of 500,
    and the blocks' sums fold in block order for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    m_total = cfg.ntraj
    if cfg.detector != "homodyne":
        stats = se.count_photons(cfg)
    else:
        children = seeding.children(cfg.seed, m_total)
        tasks = [(cfg, children[lo:lo + se._ENSEMBLE_BLOCK])
                 for lo in range(0, m_total, se._ENSEMBLE_BLOCK)]
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
