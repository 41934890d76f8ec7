import concurrent.futures

import numpy as np
import pytest

from helpers import weak_convergence_bias
from photonfilter import master_ensemble as me
from photonfilter.config import SimConfig
from photonfilter.sde_engine import simulate_trajectory
from photonfilter.wavepacket import Wavepacket, xi

PEAK = 4.0 * np.exp(-2.0)  # matched-pulse absorption maximum


def closed_form_matched(cfg, t):
    """gamma = kappa closed form: (kappa tau)^2 exp(-kappa tau)."""
    tau = np.clip(np.asarray(t, dtype=float) - cfg.t0, 0.0, None)
    return (cfg.kappa * tau) ** 2 * np.exp(-cfg.kappa * tau)


def gauss_legendre_mean_photon(cfg, times, nodes=160):
    """kappa |integral_{t0}^{t} exp(-c (t-s)) xi(s) ds|^2 by Gauss-Legendre quadrature."""
    times = np.asarray(times, dtype=float)
    out = np.zeros(times.shape)
    w = Wavepacket(cfg.gamma, cfg.t0)
    c = 1j * cfg.delta + 0.5 * cfg.kappa
    x, wts = np.polynomial.legendre.leggauss(nodes)
    after = times > cfg.t0
    ts = times[after]
    half = 0.5 * (ts - cfg.t0)
    s = cfg.t0 + half[:, None] * (x + 1.0)
    vals = np.exp(-c * (ts[:, None] - s)) * xi(w, s)
    out[after] = cfg.kappa * np.abs((vals @ wts) * half) ** 2
    return out


def analytic(cfg, t):
    return float(me.analytic_mean_photon_series(cfg, np.array([t]))[0])


def test_analytic_zero_before_arrival():
    cfg = SimConfig()
    assert analytic(cfg, cfg.t0) == 0.0
    assert analytic(cfg, 1.0) == 0.0


def test_analytic_matches_matched_pulse_closed_form():
    cfg = SimConfig()
    for t in (5.0, 13.0, 23.0, 60.0):
        assert analytic(cfg, t) == pytest.approx(closed_form_matched(cfg, t), abs=1e-10)


def test_analytic_peak_value():
    cfg = SimConfig()
    assert analytic(cfg, 23.0) == pytest.approx(PEAK, abs=1e-10)


def test_detuning_reduces_absorption():
    t = 23.0
    resonant = analytic(SimConfig(), t)
    detuned = analytic(SimConfig(delta=1.0), t)
    assert detuned < resonant


def test_series_oracle_matches_scalar_quadrature():
    # the closed form against numerical quadrature of its defining integral
    for cfg in (SimConfig(), SimConfig(delta=0.7), SimConfig(gamma=0.25)):
        ts = np.array([0.0, 2.0, 3.0, 4.5, 13.0, 23.0, 77.0])
        np.testing.assert_allclose(me.analytic_mean_photon_series(cfg, ts),
                                   gauss_legendre_mean_photon(cfg, ts), rtol=0, atol=1e-12)


def test_integrate_master_vs_oracle():
    cfg = SimConfig(dt=1e-2)
    series = me.integrate_master(cfg)
    oracle = me.analytic_mean_photon_series(cfg, series.times)
    assert np.abs(series.values - oracle).max() <= 1e-5


def test_integrate_master_detuned_vs_oracle():
    cfg = SimConfig(dt=1e-2, delta=0.5, t_end=53.0)
    series = me.integrate_master(cfg)
    oracle = me.analytic_mean_photon_series(cfg, series.times)
    assert np.abs(series.values - oracle).max() <= 1e-5


def test_single_trajectory_ensemble():
    cfg = SimConfig(t_end=13.0, dt=1e-2, ntraj=1, seed=4)
    stats = me.run_ensemble(cfg)
    child = np.random.SeedSequence(4).spawn(1)[0]
    traj = simulate_trajectory(cfg, seed=child)
    np.testing.assert_array_equal(stats.mean, traj.n_cond)
    np.testing.assert_array_equal(stats.stderr, np.zeros_like(stats.mean))


def test_normalization_martingale():
    # the ensemble mean of pi00(I) = 1 / N is a martingale pinned at 1.  On
    # the cascade n = |beta|^2 pi00(I), so pi00(I) is read from the sums of n
    # where |beta|^2 > 0; before t0 nothing has arrived and N = 1 exactly
    cfg = SimConfig(t_end=23.0, dt=1e-2, ntraj=300, seed=8)
    stats = me.run_ensemble(cfg)
    d = stats.diagnostics
    m = d.m
    bb = me.analytic_mean_photon_series(cfg, d.times)
    on = bb > 0.0
    assert d.times[~on].max() <= cfg.t0
    sum_i00, sumsq_i00 = d.sum_n[on] / bb[on], d.sumsq_n[on] / bb[on] ** 2
    mean_i00 = sum_i00 / m
    var = np.clip(sumsq_i00 - sum_i00**2 / m, 0.0, None) / (m - 1)
    stderr = np.sqrt(var / m)
    assert np.all(np.abs(mean_i00 - 1.0) <= 3.0 * stderr + 1e-12)


def test_parallel_reduction_identical():
    cfg = SimConfig(t_end=13.0, dt=1e-2, ntraj=600, seed=7)
    a = me.run_ensemble(cfg, workers=1)
    b = me.run_ensemble(cfg, workers=2)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.stderr, b.stderr)


def test_workers_capped_at_blocks(monkeypatch):
    # a pool forks all of its workers at the first submit, so it gets no
    # more than one per block; this pool records its size and starts nothing
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    cfg = SimConfig(t_end=5.0, dt=5e-2, ntraj=1000, seed=2)
    serial = me.run_ensemble(cfg)
    for workers in (2, 3, 5000):
        np.testing.assert_array_equal(me.run_ensemble(cfg, workers=workers).mean, serial.mean)
    assert sizes == [2, 2, 2]
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            me.run_ensemble(cfg, workers=workers)
    assert sizes == [2, 2, 2]


def test_weak_convergence_bias_smoke():
    cfg = SimConfig(t_end=13.0, dt=0.25, engine="generic")
    bc, bf = weak_convergence_bias(cfg, M=50, master_seed=0)
    assert np.isfinite(bc) and np.isfinite(bf)
    assert bc > 0.0 and bf > 0.0


def test_weak_convergence_bias_blocks(monkeypatch):
    # blocks draw each trajectory's own increments: the same biases as one
    # block, to the rounding of the summation order
    cfg = SimConfig(t_end=13.0, dt=0.25, engine="generic")
    whole = weak_convergence_bias(cfg, M=20, master_seed=3)
    monkeypatch.setattr(me, "_ENSEMBLE_BLOCK", 7)
    np.testing.assert_allclose(weak_convergence_bias(cfg, M=20, master_seed=3), whole,
                               rtol=0, atol=1e-15)
