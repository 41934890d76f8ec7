from types import SimpleNamespace

import numpy as np
import pytest

from einsum_oracle import einsum_block
from photonfilter import sde_engine as se
from photonfilter.config import SimConfig
from photonfilter.errors import FilterDivergenceError, GridTooCoarseError
from photonfilter.master_ensemble import integrate_master


def _noise(cfg, m, seed, homodyne=True):
    """Per-trajectory draws as the runner makes them, steps x m."""
    steps = se.SimGrid(0.0, cfg.t_end, cfg.dt).steps
    gens = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(m)]
    return se._chunk_noise(gens, steps, homodyne, np.sqrt(cfg.dt))


class TestSimGrid:
    def test_basic(self):
        g = se.SimGrid(0.0, 1.0, 0.25)
        assert g.steps == 4
        np.testing.assert_allclose(g.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_non_multiple_span(self):
        with pytest.raises(ValueError, match="multiple"):
            se.SimGrid(0.0, 1.0, 0.3)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            se.SimGrid(0.0, 1.0, 0.0)

    def test_rejects_empty_span(self):
        with pytest.raises(ValueError):
            se.SimGrid(1.0, 1.0, 0.1)


class TestNoise:
    def test_wiener_increment_mean(self):
        n = 10**6
        dt = 1e-3
        dw = se._chunk_noise([np.random.default_rng(0)], n, True, np.sqrt(dt))
        assert abs(dw.mean()) <= 3.0 * np.sqrt(dt / n)

    def test_wiener_increment_deterministic(self):
        a = se._chunk_noise([np.random.default_rng(7)], 3, True, np.sqrt(1e-3))
        b = se._chunk_noise([np.random.default_rng(7)], 3, True, np.sqrt(1e-3))
        np.testing.assert_array_equal(a, b)

    def test_jump_draw_never_fires_at_zero(self):
        # before t0 the intensity is exactly zero: even uniforms of 0, which
        # fire at any positive intensity, draw no count
        cfg = SimConfig(t0=5.0, t_end=6.0, dt=1e-2, detector="photocount")
        seqs = np.random.SeedSequence(0).spawn(4)
        stats = se.run_block(cfg, "photocount", seed_seqs=seqs, noise=np.zeros((600, 4)),
                             record_series=True)
        assert all(times == [pytest.approx(5.01)] for times in stats.jump_times)
        # every trajectory has counted: the runner stops, and the rest of
        # the series reads the vacuum and the record one count
        after = stats.times > 5.005
        assert (stats.record[after] == 1.0).all() and (stats.series[after] == 0.0).all()
        assert (stats.record[~after] == 0.0).all()

    def test_jump_draw_empirical_rate(self):
        # The photon is counted by t, left in the cavity or not yet emitted:
        # P(count by t) = 1 - <n>(t) - tail(t) = 1 - 5 e^-2 at t = t0 + 20.
        # With M = 2000 the counted fraction has sd 0.0105; the bound is 4 sd.
        cfg = SimConfig(t_end=23.0, dt=1e-2, detector="photocount")
        seqs = np.random.SeedSequence(1).spawn(2000)
        counted = np.concatenate([
            se.run_block(cfg, "photocount", seed_seqs=seqs[lo:lo + 500]).jump_counts
            for lo in range(0, 2000, 500)
        ])
        expect = 1.0 - 5.0 * np.exp(-2.0)
        assert abs(counted.mean() - expect) <= 4.0 * np.sqrt(expect * (1 - expect) / 2000)

    def test_jump_draw_guards(self):
        # a grid coarser than the validator allows: nu dt = 0.2 at t0
        cfg = SimpleNamespace(kappa=0.1, gamma=0.1, delta=0.0, t0=2.0, t_end=8.0,
                              dt=2.0, fock_dim=2)
        seqs = np.random.SeedSequence(0).spawn(3)
        with pytest.raises(GridTooCoarseError, match=r"at t=2 in trajectory 0"):
            se.run_block(cfg, "photocount", seed_seqs=seqs, noise=np.ones((4, 3)))
        # the no-jump path grows until nu dt passes 0.1 at t = 85.5;
        # trajectory 0 counted at t = 2.5, so the first one still waiting is named
        cfg = SimpleNamespace(kappa=0.1, gamma=0.1, delta=0.0, t0=2.0, t_end=102.0,
                              dt=0.5, fock_dim=2)
        noise = np.ones((200, 3))
        noise[:, 0] = 0.0
        with pytest.raises(GridTooCoarseError, match=r"at t=85\.5 in trajectory 1"):
            se.run_block(cfg, "photocount", seed_seqs=seqs, noise=noise)


class TestTrajectory:
    def test_quiet_before_arrival(self):
        cfg = SimConfig(t_end=13.0, dt=1e-2)
        traj = se.simulate_trajectory(cfg, seed=123)
        before = traj.times <= cfg.t0
        assert np.abs(traj.n_cond[before]).max() <= 1e-12

    def test_same_seed_bitwise_identical(self):
        cfg = SimConfig(t_end=13.0, dt=1e-2, detector="homodyne")
        a = se.simulate_trajectory(cfg, seed=7)
        b = se.simulate_trajectory(cfg, seed=7)
        np.testing.assert_array_equal(a.n_cond, b.n_cond)
        np.testing.assert_array_equal(a.record, b.record)

    def test_drift_only_tracks_master_equation(self):
        # with dW = 0 the homodyne step is the explicit Euler step of the drift
        cfg = SimConfig(t_end=33.0, dt=1e-2)
        steps = se.SimGrid(0.0, cfg.t_end, cfg.dt).steps
        stats = se.run_block(cfg, "homodyne", seed_seqs=[np.random.SeedSequence(0)],
                             noise=np.zeros((steps, 1)), record_series=True)
        me = integrate_master(cfg)
        # explicit Euler vs RK4: O(dt) agreement
        assert np.abs(stats.series[:, 0] - me.values).max() <= 1e-3

    def test_engines_agree_homodyne(self):
        # the compiled runner vs the einsum filter on shared noise, at D=3
        cfg = SimConfig(t_end=8.0, dt=1e-3, fock_dim=3, detector="homodyne")
        noise = _noise(cfg, 2, seed=5)
        seqs = np.random.SeedSequence(5).spawn(2)
        a = se.run_block(cfg, "homodyne", seed_seqs=seqs, noise=noise, record_series=True)
        series, record, _ = einsum_block(cfg, "homodyne", noise)
        assert np.abs(a.series - series).max() <= 1e-12
        assert np.abs(a.record - record).max() <= 1e-12

    def test_engines_agree_photocount(self):
        cfg = SimConfig(t_end=23.0, dt=1e-2, detector="photocount")
        noise = _noise(cfg, 8, seed=9, homodyne=False)
        seqs = np.random.SeedSequence(9).spawn(8)
        a = se.run_block(cfg, "photocount", seed_seqs=seqs, noise=noise, record_series=True)
        series, record, jumps = einsum_block(cfg, "photocount", noise)
        assert a.jump_times == jumps
        assert any(jumps)
        np.testing.assert_array_equal(a.record, record)
        assert np.abs(a.series - series).max() <= 1e-12

    def test_photocount_single_jump_and_collapse(self):
        cfg = SimConfig(t_end=103.0, dt=1e-2, detector="photocount")
        jumps_seen = 0
        for seed in range(12):
            traj = se.simulate_trajectory(cfg, seed=seed)
            assert len(traj.jumps) <= 1
            if traj.jumps:
                jumps_seen += 1
                k = int(np.searchsorted(traj.times, traj.jumps[0]))
                assert traj.n_cond[k] <= 1e-12
        assert jumps_seen > 0

    def test_trajectory_in_block_matches_alone(self):
        # batching must not change any individual trajectory (up to BLAS
        # summation-order rounding, which depends on the batch width)
        cfg = SimConfig(t_end=13.0, dt=1e-2)
        children = np.random.SeedSequence(11).spawn(3)
        block = se.run_block(cfg, "homodyne", seed_seqs=children, record_series=True)
        for j, child in enumerate(children):
            solo = se.simulate_trajectory(cfg, seed=child)
            np.testing.assert_allclose(block.series[:, j], solo.n_cond, atol=1e-13)

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            SimConfig(engine="exact")

    def test_error_names_time_and_trajectory(self):
        # trajectories 4..7 of an ensemble; a NaN increment in the third
        # column at step 250 makes the state non-finite at t = 2.51
        cfg = SimConfig(t_end=13.0, dt=1e-2)
        seqs = np.random.SeedSequence(3).spawn(8)[4:]
        noise = _noise(cfg, 4, seed=3)
        noise[250, 2] = np.nan
        with pytest.raises(FilterDivergenceError, match=r"at t=2\.51 in trajectory 6$"):
            se.run_block(cfg, "homodyne", seed_seqs=seqs, noise=noise)
