import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import weak_convergence_bias
from photonfilter import filter_moments as fm
from photonfilter import master_ensemble as me
from photonfilter import sde_engine as se
from photonfilter.config import SimConfig
from photonfilter.errors import UnstableStepError
from photonfilter.filter_generic import SLHModel
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
    block = se.run_block(cfg, seed_seqs=[child], record_series=True)
    np.testing.assert_array_equal(stats.mean, block.series[:, 0])
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


def test_photocount_starts_no_workers(monkeypatch):
    # photon counting runs in one pass: --workers has nothing to share out,
    # starts no process and leaves every byte as it is
    def forbidden(*args, **kwargs):
        raise AssertionError("photon counting started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    cfg = SimConfig(t_end=13.0, dt=1e-2, ntraj=1200, seed=7, detector="photocount")
    a, b = me.run_ensemble(cfg, workers=2), me.run_ensemble(cfg)
    assert a.mean.tobytes() == b.mean.tobytes() and a.stderr.tobytes() == b.stderr.tobytes()


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
    monkeypatch.setattr(se, "_ENSEMBLE_BLOCK", 7)
    np.testing.assert_allclose(weak_convergence_bias(cfg, M=20, master_seed=3), whole,
                               rtol=0, atol=1e-15)


def _restricted_drift(cfg):
    """The compiled drift on the entries the master path steps."""
    f = fm.compile_filter(SLHModel.cavity(cfg.fock_dim, cfg.kappa, cfg.delta))
    on = fm.support(f)
    return f, f.drift[:, on[:, None], on]


class TestRK4Maps:
    @pytest.mark.parametrize("delta", [0.0, 0.7, 57.0])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_drift_triangular_on_support(self, dim, delta):
        # F0 upper triangular, so I + M0's eigenvalues are its diagonal; xi
        # only feeds block 00 into 10 and 01 and those into 11, so F1 is
        # strictly upper triangular and no product holds three F1 factors
        _, drift = _restricted_drift(SimConfig(delta=delta, fock_dim=dim))
        assert drift.shape == (2, 5, 5)
        assert not np.tril(drift[0], -1).any() and not np.tril(drift[1]).any()
        f1 = drift[1] != 0
        assert not (f1.astype(int) @ f1 @ f1).any()

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 7.0])
    @pytest.mark.parametrize("delta", [0.0, 0.7, 57.0])
    def test_step_map_quadratic_in_xi(self, delta, gamma):
        # a step's flow from xi at its start is exactly I + M0 + xi M1 +
        # xi^2 M2: against RK4 of the propagator in 1,000 substeps per unit
        # of delta h (at least 1,000), on which xi decays as e^{-gamma s/2},
        # at xi up to the wavepacket's sqrt(gamma), over a full step (up to
        # 4 doublings here) and over the shorter step that t0 cuts
        dt = 0.01 / max(0.1, gamma)
        cfg = SimConfig(delta=delta, gamma=gamma, dt=dt)
        _, drift = _restricted_drift(cfg)
        xis = np.linspace(0.0, math.sqrt(gamma), 5)
        for h in (dt, 0.37 * dt):
            maps = me._flow(cfg, drift, h)
            subs = 1000 * max(1, math.ceil(abs(delta) * h))
            u = h / subs
            phi = np.broadcast_to(np.eye(5, dtype=complex), (xis.size, 5, 5)).copy()
            for j in range(subs):
                fa, fb, fc = (drift[0] + np.multiply.outer(xis * math.exp(-0.5 * gamma * s),
                                                           drift[1])
                              for s in (j * u, (j + 0.5) * u, (j + 1) * u))
                k1 = fa @ phi
                k2 = fb @ (phi + 0.5 * u * k1)
                k3 = fb @ (phi + 0.5 * u * k2)
                k4 = fc @ (phi + u * k3)
                phi += (u / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            np.testing.assert_allclose(fm.evaluate(maps, xis), phi - np.eye(5),
                                       rtol=0, atol=1e-13)


class TestRK4Stability:
    # the exact flow is stable at any step; it refuses only a step whose
    # flow takes more doublings than double precision can carry

    def test_named_dt_is_the_largest_that_runs(self):
        # the dt the error names runs, and tracks the closed form; a step
        # 0.2% longer does not run
        cfg = SimConfig(delta=1e6, dt=0.05, t0=0.0, t_end=50.0)
        with pytest.raises(UnstableStepError, match=r"dt=0.05 for delta=1e\+06") as info:
            me.integrate_master(cfg)
        named = float(str(info.value).split("dt <= ")[1].split()[0])
        cfg = SimConfig(delta=1e6, dt=named, t0=0.0, t_end=1000 * named)
        series = me.integrate_master(cfg)
        oracle = me.analytic_mean_photon_series(cfg, series.times)
        assert np.abs(series.values - oracle).max() <= 1e-9 * oracle.max()
        with pytest.raises(UnstableStepError):
            me.integrate_master(SimConfig(delta=1e6, dt=1.002 * named, t0=0.0,
                                          t_end=1000 * named * 1.002))

    @pytest.mark.parametrize("delta, dt, t_end", [(57.0, 0.05, 53.0), (2900.0, 1e-3, 13.0)])
    def test_past_rk4_edge_tracks_closed_form(self, delta, dt, t_end):
        # RK4's multiplier of the coherences, -kappa/2 +- i delta, left the
        # unit disc past delta dt = 2.83; the flow has no such edge
        cfg = SimConfig(delta=delta, dt=dt, t_end=t_end)
        series = me.integrate_master(cfg)
        oracle = me.analytic_mean_photon_series(cfg, series.times)
        assert np.abs(series.values - oracle).max() <= 1e-12

    def test_stable_just_inside(self):
        # delta 56 at dt 0.05, just inside RK4's old edge, where RK4 was
        # within 8.8e-6 of the closed form: the flow is within rounding
        cfg = SimConfig(delta=56.0, dt=0.05, t_end=53.0)
        series = me.integrate_master(cfg)
        oracle = me.analytic_mean_photon_series(cfg, series.times)
        assert np.abs(series.values - oracle).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        kappa=st.floats(0.05, 1.0),
        gamma=st.floats(0.05, 1.0),
        delta=st.floats(-100.0, 100.0),
        t0=st.floats(0.0, 2.0),
        coarse=st.floats(0.005, 0.0999),
        after=st.integers(1, 1500),
    )
    @example(kappa=0.1, gamma=0.1, delta=57.0, t0=3.0, coarse=0.005, after=1000)
    @example(kappa=0.1, gamma=0.1, delta=56.0, t0=3.0, coarse=0.005, after=1000)
    # at kappa = gamma, <n> touches 0 at delta (t - t0) = 2 pi k, where RK4
    # went below it
    @example(kappa=0.0625, gamma=0.0625, delta=0.375, t0=0.0, coarse=0.0625, after=67)
    @example(kappa=0.375, gamma=0.375, delta=1.9140625, t0=0.0, coarse=0.0703125, after=1000)
    @example(kappa=0.05, gamma=0.05, delta=1.0, t0=0.25, coarse=0.005, after=189)
    @example(kappa=1.0, gamma=1.0, delta=2.0, t0=0.0, coarse=0.09375, after=67)
    @example(kappa=0.3125, gamma=0.3125, delta=1.0, t0=0.0, coarse=0.05078125, after=116)
    @example(kappa=1.0, gamma=1.0, delta=2.7578125, t0=0.5546875, coarse=0.06739179851793352,
             after=34)
    def test_accepted_grid_raises_at_setup_or_is_physical(self, kappa, gamma, delta, t0,
                                                          coarse, after):
        # on any grid the validator accepts, the master equation keeps n in
        # [0, 1].  It refuses only a step of more than 2^15 / |G|_1, and
        # these grids stay far inside that (|delta| dt <= 200)
        dt = coarse / max(kappa, gamma)
        steps = math.floor(t0 / dt) + after
        cfg = SimConfig(kappa=kappa, gamma=gamma, delta=delta, t0=t0, t_end=steps * dt, dt=dt)
        n = me.integrate_master(cfg).values
        assert -1e-9 <= n.min() and n.max() <= 1.0 + 1e-9
