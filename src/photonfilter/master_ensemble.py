"""Deterministic master-equation reference and ensemble statistics.

The master equation is obtained by zeroing the martingale terms of the Ito
hierarchy (classical averaging kills dW and the compensated counting
increments), which leaves the linear drift of the compiled filter.  From
the vacuum that drift reaches five entries of the state at every Fock
truncation, and the classical fixed-step RK4 of :func:`master_path` steps
only those, with one 5 x 5 increment map per step that is a quadratic in
xi built once per run, so the series is the same at every D >= 2; ``me``
reports it and ``verify`` checks it.  A step outside RK4's stability region
for a mode of the drift raises :class:`~photonfilter.errors.UnstableStepError`
before the first step.  Homodyne ensembles run the filter of
``cfg.engine`` in blocks, photon-counting ones sample all their count times
from the closed form below in one pass, and ``ensemble`` sets both beside
that closed form (evaluated a chunk of rows at a time), never computed from
the RK4 path it cross-checks: with c = i delta + kappa/2,

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
# The largest |R(lambda dt)| allowed: a mode with lambda = 0 gives exactly 1.
_STABLE = 1.0 + 1e-12


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


def _rk4_map(drift, h: float, xis) -> np.ndarray:
    """RK4's increment map over one step of length h of dx = F(xi) x dt, for
    the drift ``drift`` (packed on 1 and xi) with xi at the step's start,
    middle and end given by ``xis``: E = (h/6)(K1 + 2 K2 + 2 K3 + K4) with
    K1 = A, K2 = B(I + h/2 K1), K3 = B(I + h/2 K2), K4 = C(I + h K3) for the
    drift A, B, C there.  The step is y + E y."""
    a, b, c = fm.evaluate(drift, xis)
    eye = np.eye(len(a))
    k2 = b @ (0.5 * h * a + eye)
    k3 = b @ (0.5 * h * k2 + eye)
    e = c @ (h * k3 + eye)  # K4
    e += 2.0 * (k2 + k3) + a
    e *= h / 6.0
    return e


def _rk4_gain(lams, dt: float) -> float:
    """max |R(lambda dt)| over the modes ``lams``, for RK4's multiplier
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return max(abs(1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))) for z in
               (lam * dt for lam in lams))


def _check_stable(cfg: SimConfig, drift, e0) -> None:
    """Raise :class:`UnstableStepError` unless RK4's step at ``cfg.dt`` is
    stable for every mode of the restricted drift F0 = ``drift[0]``, whose
    map at xi = 0 is ``e0``.  In :func:`photonfilter.filter_moments.support`
    order F0 is upper triangular, so the eigenvalues of the step's multiplier
    I + e0 = R(dt F0) are 1 + diag(e0), read without a factorisation.  The
    largest stable dt named in the error bisects R over diag(F0), floored to
    four significant digits."""
    d = len(e0)
    assert not e0[np.arange(d)[:, None] > np.arange(d)].any(), "drift not triangular"
    gain = float(np.abs(1.0 + e0.diagonal()).max())
    if gain <= _STABLE:
        return
    lams = drift[0].diagonal().tolist()
    lo, hi = 0.0, cfg.dt
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _rk4_gain(lams, mid) <= _STABLE else (lo, mid)
    scale = 10.0 ** (3 - math.floor(math.log10(lo)))
    raise UnstableStepError(
        f"RK4 of the master equation is unstable at dt={cfg.dt:g} for delta={cfg.delta:g}: "
        f"a mode of the drift grows by {gain:.6g} per step; dt <= "
        f"{math.floor(lo * scale) / scale:g} is stable")


def master_path(cfg: SimConfig, f):
    """Classical RK4 of the master equation dx = Fd(xi(t)) x dt from the vacuum.

    Yields (k0, states) for chunks of at most ``_PATH`` steps: the full
    states at steps k0, k0 + 1, ... of the grid of ``cfg``, in a buffer that
    the next chunk overwrites.  The state is held until the wavepacket
    arrives at t0, and the step t0 falls in is integrated from t0 on, so the
    right-hand side is smooth within every step.

    Only the entries in :func:`photonfilter.filter_moments.support` are
    stepped, whatever the Fock truncation; the rest of every state is
    exactly 0.  There Fd = F0 + xi F1, and F1 only feeds block 00 into
    blocks 10 and 01 and those into block 11, so every product with three
    F1 factors is 0; on a full step, xi at t + h/2 and at t + h is xi(t)
    times a constant.  So a full step's increment map (:func:`_rk4_map`) is
    exactly E = M0 + xi M1 + xi^2 M2 in xi = xi(t): the three maps are
    formed once per run from E at xi = 0, 1 and -1, and evaluated at a
    chunk's xi in one product (:func:`photonfilter.filter_moments.evaluate`).
    The step t0 falls in takes its map from :func:`_rk4_map` directly.  A
    step is y + E y.  Before the first, :func:`_check_stable` checks I + M0.
    """
    dt, t0, steps = cfg.dt, cfg.t0, cfg.steps
    w = wp.Wavepacket(cfg.gamma, t0)
    on = fm.support(f)
    drift = f.drift[:, on[:, None], on]
    mid, end = math.exp(-0.25 * cfg.gamma * dt), math.exp(-0.5 * cfg.gamma * dt)
    e0, ep, em = (_rk4_map(drift, dt, [x, x * mid, x * end]) for x in (0.0, 1.0, -1.0))
    _check_stable(cfg, drift, e0)
    maps = np.stack([e0, 0.5 * (ep - em), 0.5 * (ep + em) - e0])
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
            h = t[i + 1] - t0
            e[i] = _rk4_map(drift, h, wp.xi(w, [t0, t[i + 1] - 0.5 * h, t[i + 1]]))
        for ei, yi, yn in zip(e, y, y[1:]):
            np.dot(ei, yi, out=dy)
            np.add(yi, dy, out=yn)
        buf[:n + 1, on] = y[:n + 1]
        yield k0, buf[:n + 1]
        y[0] = y[n]


def integrate_master(cfg: SimConfig) -> SeriesND:
    """RK4 integration of the compiled drift (:func:`master_path`); returns
    <n>(t), the same at every ``cfg.fock_dim``.  Raises
    :class:`UnstableStepError` before the first step on a grid RK4 cannot
    step, and :class:`FilterDivergenceError` naming the time where <n>
    stops being finite."""
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
