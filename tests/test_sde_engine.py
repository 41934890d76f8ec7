import functools
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einsum_oracle import einsum_block
from helpers import count_photons_by_blocks, evaluate_powers, jump_gain
from photonfilter import filter_moments as fm
from photonfilter import master_ensemble
from photonfilter import sde_engine as se
from photonfilter import seeding
from photonfilter import wavepacket as wp
from photonfilter.config import SimConfig
from photonfilter.errors import FilterDivergenceError, NonRealInnovationError
from photonfilter.filter_generic import SLHModel
from photonfilter.master_ensemble import (analytic_mean_photon_series, integrate_master,
                                          master_path, run_ensemble)


def _noise(cfg, m, seed):
    """Wiener increments as the runner draws them, steps x m."""
    steps = cfg.steps
    gens = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(m)]
    return se._chunk_noise(gens, steps, np.sqrt(cfg.dt), np.empty((steps, m)))


def _path_states(cfg, f):
    """``master_path``'s states over the whole grid."""
    x = np.empty((cfg.steps + 1, f.initial.size), dtype=complex)
    for k, states in master_path(cfg, f):
        x[k:k + len(states)] = states
    return x


def _path_s(cfg):
    """The probability of no count on the master path: |pi01(a)|^2 + tail."""
    f = fm.compile_filter(SLHModel.cavity(cfg.fock_dim, cfg.kappa, cfg.delta))
    times = cfg.times()
    s = np.empty(times.size)
    for k, states in master_path(cfg, f):
        s[k:k + len(states)] = np.abs(states @ f.readout[fm.READOUTS.index("a01")]) ** 2
    return s + wp.tail_norm(wp.Wavepacket(cfg.gamma, cfg.t0), times)


def _full_rk4(cfg, poly, x0):
    """Classical RK4 of dx = F(xi(t)) x dt on all 4 D^2 entries, one matrix-vector
    product per stage, for the polynomial ``poly`` of F (on any number of
    powers of xi): x0 is held until t0, and the step t0 falls in runs from
    t0 on, as in ``master_path``."""
    times = cfg.times()
    w = wp.Wavepacket(cfg.gamma, cfg.t0)
    x = np.empty((times.size, x0.size), dtype=complex)
    x[0] = x0
    for k in range(times.size - 1):
        if times[k + 1] <= cfg.t0:
            x[k + 1] = x[k]
            continue
        start = max(times[k], cfg.t0)
        h = times[k + 1] - start
        fa, fb, fc = (evaluate_powers(poly, wp.xi(w, u))
                      for u in (start, times[k + 1] - 0.5 * h, times[k + 1]))
        k1 = fa @ x[k]
        k2 = fb @ (x[k] + 0.5 * h * k1)
        k3 = fb @ (x[k] + 0.5 * h * k2)
        k4 = fc @ (x[k] + h * k3)
        x[k + 1] = x[k] + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _full_flow(cfg, drift, x0):
    """The exact flow of dx = Fd(xi(t)) x dt on all 4 D^2 entries, one
    matrix-vector product per step, with the maps of the step's length
    (``master_ensemble._flow`` of the whole drift) at xi at its start: x0 is
    held until t0, and the step t0 falls in runs from t0 on, as in
    ``master_path``."""
    times = cfg.times()
    w = wp.Wavepacket(cfg.gamma, cfg.t0)
    full = master_ensemble._flow(cfg, drift, cfg.dt)
    x = np.empty((times.size, x0.size), dtype=complex)
    x[0] = x0
    for k in range(times.size - 1):
        start = max(times[k], cfg.t0)
        if times[k + 1] <= start:
            x[k + 1] = x[k]
            continue
        maps = full if start == times[k] else master_ensemble._flow(cfg, drift,
                                                                    times[k + 1] - start)
        x[k + 1] = x[k] + evaluate_powers(maps, wp.xi(w, start)) @ x[k]
    return x


class TestMasterPath:
    # the master path steps only the five entries the vacuum reaches

    @pytest.mark.parametrize("t0", [3.0, 3.004, 3.0001])
    @pytest.mark.parametrize("delta", [0.0, 0.7])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_full_state(self, dim, delta, t0):
        # the exact flow on all 4 D^2 entries; t0 = 3.004 falls inside a
        # step, 3.0001 just after a grid point
        cfg = SimConfig(delta=delta, t0=t0, fock_dim=dim, t_end=23.0, dt=1e-2)
        f = fm.compile_filter(SLHModel.cavity(dim, cfg.kappa, delta))
        states = _path_states(cfg, f)
        np.testing.assert_allclose(states, _full_flow(cfg, f.drift, f.initial),
                                   rtol=0, atol=1e-12)
        off = np.setdiff1d(np.arange(f.initial.size), fm.support(f))
        assert fm.support(f).size == 5 and not states[:, off].any()

    @pytest.mark.parametrize("t0", [3.0, 3.004, 3.0001])
    @pytest.mark.parametrize("delta", [0.0, 0.7])
    def test_same_at_every_truncation(self, delta, t0):
        # the five entries and their drift are the same at every D >= 2
        cfg = SimConfig(delta=delta, t0=t0, t_end=23.0, dt=1e-2)
        n = integrate_master(cfg).values
        for dim in range(3, 6):
            np.testing.assert_array_equal(integrate_master(replace(cfg, fock_dim=dim)).values, n)


def _full_euler(cfg, f, noise):
    """Euler-Maruyama of the homodyne filter on all 4 D^2 entries, one
    trajectory per column of ``noise``, one step at a time: the runner's step
    without its restriction to the entries the vacuum reaches, its real
    coordinates or its chunks.  Returns the readouts (steps + 1, rows, m)
    and the record."""
    times = cfg.times()
    xis = wp.xi(wp.Wavepacket(cfg.gamma, cfg.t0), times[:-1])
    x = np.repeat(f.initial[:, None], noise.shape[1], axis=1)
    r = np.empty((times.size, len(fm.READOUTS), noise.shape[1]), dtype=complex)
    record = np.zeros((times.size, noise.shape[1]))
    r[0] = f.readout @ x
    for k, xi in enumerate(xis):
        fd, fgm, kr = (fm.evaluate(p, xi) for p in (f.drift, f.diffusion, f.k))
        kk = (kr @ x).real
        x = x + (fd @ x) * cfg.dt + ((fgm @ x) - kk * x) * noise[k]
        record[k + 1] = kk * cfg.dt + noise[k]
        r[k + 1] = f.readout @ x
    return r, record


def _tilt(monkeypatch, k_im: float = 0.0, start=None, k_re: float = 0.0):
    """Make the runner compile filters whose K gains (k_re + i k_im) pi11(n)
    and whose initial state adds ``start``; returns the patched compiler."""
    compile_filter = fm.compile_filter

    def tilted(model):
        f = compile_filter(model)
        k = f.k.copy()
        k[fm.ONE] += (k_re + 1j * k_im) * f.readout[0]
        return replace(f, k=k, initial=f.initial + (0.0 if start is None else start))

    monkeypatch.setattr(fm, "compile_filter", tilted)
    return tilted


def _basis(f, on):
    """The complex (B) and inverse (T) bases of ``fm.real_filter``'s
    coordinates on the entries ``on``: x = B u and u = T x."""
    dim = math.isqrt(f.initial.size // 4)
    n = dim * dim
    blk, i, j = on // n, on % n % dim, on % n // dim
    perm = np.searchsorted(on, np.array([fm.B11, fm.B01, fm.B10, fm.B00])[blk] * n + j + i * dim)
    a = np.flatnonzero(perm > np.arange(on.size))
    b = perm[a]
    basis = np.diag((perm == np.arange(on.size)).astype(complex))
    basis[a, a] = basis[b, a] = 1.0
    basis[a, b], basis[b, b] = 1j, -1j
    inverse = np.diag((perm == np.arange(on.size)).astype(complex))
    inverse[a, a] = inverse[a, b] = 0.5
    inverse[b, a], inverse[b, b] = -0.5j, 0.5j
    return basis, inverse


class TestGenericFilter:
    # the homodyne filter steps only the nine entries the vacuum reaches

    @pytest.mark.parametrize("delta", [0.0, 0.7])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_support(self, dim, delta):
        # drift and diffusion together: all of block 11 on |0>, |1>, two
        # coherences each in blocks 10 and 01, and |0><0| of block 00
        f = fm.compile_filter(SLHModel.cavity(dim, 1.0, delta))
        on = fm.support(f, f.drift, f.diffusion)
        n = dim * dim
        assert [(i // n, i % n % dim, i % n // dim) for i in on] == [
            (0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1),
            (2, 0, 0), (2, 1, 0), (3, 0, 0)]

    @pytest.mark.parametrize("delta", [0.0, 0.7])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_maps_commute_with_adjoint(self, dim, delta):
        # the adjoint takes rho10 to rho01 and transposes every block: on the
        # nine entries it is x -> conj(P x) for the mirror permutation P,
        # (block, i, j) -> (block with 10 and 01 swapped, j, i).  Each power
        # of the (real) xi commutes with it exactly, so the conjugation pairs
        # pi10(a^dag) = conj(pi01(a)), pi10(I) = conj(pi01(I)), ... hold to
        # the bit and K is real on every state the runner reaches
        f = fm.compile_filter(SLHModel.cavity(dim, 1.0, delta))
        on = fm.support(f, f.drift, f.diffusion)
        n = dim * dim
        blk, i, j = on // n, on % n % dim, on % n // dim
        mirror = np.array([fm.B11, fm.B01, fm.B10, fm.B00])[blk] * n + j + i * dim
        perm = np.searchsorted(on, mirror)
        assert (on[perm] == mirror).all()
        for p in (fm.ONE, fm.XI):
            for full in (f.drift, f.diffusion):
                restricted = full[p][np.ix_(on, on)]
                assert np.array_equal(restricted[np.ix_(perm, perm)], restricted.conj())
            assert np.array_equal(f.k[p, on][perm], f.k[p, on].conj())

    @pytest.mark.parametrize("delta", [0.0, 0.7])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_real_coordinates_exact(self, dim, delta):
        # mapped back through the basis, B G T for each real map G, k_real T
        # and B u0, the real filter is the complex one restricted to the nine
        # entries, power by power of xi, bit for bit
        f = fm.compile_filter(SLHModel.cavity(dim, 1.0, delta))
        on = fm.support(f, f.drift, f.diffusion)
        g = fm.real_filter(f, on)
        basis, inverse = _basis(f, on)
        for full, real in ((f.drift, g.drift), (f.diffusion, g.diffusion)):
            assert real.dtype == np.float64
            assert np.array_equal(basis @ real @ inverse, full[:, on[:, None], on])
        assert np.array_equal(g.k @ inverse, f.k[:, on])
        assert np.array_equal(g.readout @ inverse, f.readout[:1, on])
        assert np.array_equal(basis @ g.initial, f.initial[on])
        # and its maps conserve pi11(I) = 1 exactly: i11 . u0 = 1, i11 . G = 0
        # for every drift power and i11 . D = k for every diffusion power
        i11 = f.readout[fm.READOUTS.index("i11"), on] @ basis
        assert not i11.imag.any()
        assert i11.real @ g.initial == 1.0
        assert not (i11.real @ g.drift).any()
        assert np.array_equal(i11.real @ g.diffusion, g.k)
        # the real maps give the complex polynomial at any real xi
        z = np.array([0.3, -1.2])
        np.testing.assert_allclose(basis @ fm.evaluate(g.drift, z) @ inverse,
                                   fm.evaluate(f.drift, z)[:, on[:, None], on], rtol=0, atol=1e-15)

    def test_matches_full_state(self):
        # the same Euler-Maruyama steps on all 4 D^2 entries and shared noise
        cfg = SimConfig(t_end=23.0, dt=1e-2, delta=0.7, fock_dim=3, engine="generic")
        f = fm.compile_filter(SLHModel.cavity(3, cfg.kappa, cfg.delta))
        noise = _noise(cfg, 4, seed=8)
        stats = se.run_block(cfg, seed_seqs=np.random.SeedSequence(8).spawn(4),
                             noise=noise, record_series=True)
        r, record = _full_euler(cfg, f, noise)
        np.testing.assert_allclose(stats.series, r[:, 0].real, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stats.record, record, rtol=0, atol=1e-12)

    def test_same_at_every_truncation(self):
        # the nine entries and their maps are the same at every D >= 2
        cfg = SimConfig(t_end=23.0, dt=1e-2, delta=0.7, engine="generic")
        seqs = np.random.SeedSequence(6).spawn(8)
        names = ("sum_n", "sumsq_n", "n_min", "n_max")
        ref = se.run_block(cfg, seed_seqs=seqs)
        for dim in range(3, 6):
            stats = se.run_block(replace(cfg, fock_dim=dim), seed_seqs=seqs)
            for name in names:
                np.testing.assert_array_equal(getattr(stats, name), getattr(ref, name))

    @pytest.mark.parametrize("steps", [se._SUB - 3, se._SUB, 3 * se._SUB + 5,
                                       se._CHUNK - 3, se._CHUNK, 2 * se._CHUNK + 5])
    def test_sums_match_per_step_reference(self, steps, monkeypatch):
        # the runner evaluates its maps once per sub-chunk of _SUB steps and
        # folds its sums once per chunk; on grids shorter than one, of
        # exactly one and ending in a partial one, of either, they equal the
        # reductions of the one-step-at-a-time filter.  The start is tilted
        # off the physical states and stays its own adjoint, with pi11(I) = 1:
        # on both entries of a mirror pair, pi10(I) = conj(pi01(I)) = (1 + 2i) 1e-8
        start = np.zeros(36, dtype=complex)
        start[9], start[18] = 1e-8 + 2e-8j, 1e-8 - 2e-8j  # |0><0| in blocks 10 and 01
        tilted = _tilt(monkeypatch, start=start)
        cfg = SimConfig(kappa=1.0, gamma=1.0, delta=0.7, t0=0.0, dt=0.05, t_end=steps * 0.05,
                        fock_dim=3, engine="generic")
        f = tilted(SLHModel.cavity(3, cfg.kappa, cfg.delta))
        noise = _noise(cfg, 5, seed=2)
        stats = se.run_block(cfg, seed_seqs=np.random.SeedSequence(2).spawn(5),
                             noise=noise, record_series=True)
        r, record = _full_euler(cfg, f, noise)
        v = r[:, 0].real
        want = {
            "sum_n": v.sum(axis=1), "sumsq_n": (v * v).sum(axis=1),
            "n_min": v.min(), "n_max": v.max(), "series": v, "record": record,
        }
        assert stats.sum_n.size == steps + 1 and 0.0 < stats.n_max
        for name, value in want.items():
            np.testing.assert_allclose(getattr(stats, name), value, rtol=0, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("k", [3 * se._SUB + se._SUB // 2, 4 * se._SUB - 1,
                                   se._CHUNK + se._CHUNK // 2 + 3, 2 * se._CHUNK - 1, 1299],
                             ids=["mid-sub-chunk", "sub-chunk-end", "mid-chunk", "chunk-end",
                                  "grid-end"])
    def test_divergence_names_time_and_trajectory(self, k):
        # trajectories 4..7 of an ensemble; a NaN increment in the third
        # column at step k makes the state non-finite at the next grid time,
        # wherever step k falls in its sub-chunk of map evaluations or in its
        # chunk of the guard (1300 steps: the last is the end of a partial
        # chunk)
        cfg = SimConfig(t_end=13.0, dt=1e-2, engine="generic")
        seqs = np.random.SeedSequence(3).spawn(8)[4:]
        noise = _noise(cfg, 4, seed=3)
        noise[k, 2] = np.nan
        t = cfg.times()[k + 1]
        with pytest.raises(FilterDivergenceError,
                           match=rf"at t={re.escape(f'{t:.6g}')} in trajectory 6$"):
            se.run_block(cfg, seed_seqs=seqs, noise=noise)

    def test_overflow_named_not_warned(self):
        # a detuned ensemble on a grid so coarse that the filter diverges:
        # its state overflows within a chunk, and the chunk's guard names
        # the time and the trajectory instead of numpy warning on the way
        cfg = SimConfig(delta=0.7, dt=0.25, t_end=53.0, ntraj=500, seed=3, engine="generic")
        with pytest.raises(FilterDivergenceError,
                           match=r"^filter diverged to pi11\(n\) = nan at t=35 in trajectory 2$"):
            run_ensemble(cfg)

    def test_non_real_innovation_raises_before_first_step(self, monkeypatch):
        # a k row with Im K = 1e-3 pi11(n), or a start that is not its own
        # adjoint (an imaginary |1><1| in block 11, or |0><0| in block 10
        # without its mirror in block 01): the real coordinates cannot hold
        # the filter, and the runner raises when it sets up, before it draws
        # or steps anything
        def forbidden(*args, **kwargs):
            raise AssertionError("the runner stepped a filter that is not real")

        cfg = SimConfig(t_end=8.0, dt=1e-2, delta=0.7, fock_dim=3, engine="generic")
        for k_im, tilted, what in ((1e-3, [], "K row"), (0.0, [4], "initial state"),
                                   (0.0, [9], "initial state")):
            start = np.zeros(36, dtype=complex)
            start[tilted] = 1e-8j
            with monkeypatch.context() as mp:
                _tilt(mp, k_im, start)
                mp.setattr(se, "_noise_chunks", forbidden)
                with pytest.raises(NonRealInnovationError,
                                   match=f"^the filter's {what} is not real"):
                    se.run_block(cfg, seed_seqs=np.random.SeedSequence(5).spawn(4))

    def test_unconserved_normalisation_raises_before_first_step(self, monkeypatch):
        # a k row whose real part gains 1e-3 pi11(n): the maps stay real but
        # no longer conserve pi11(I) = 1 (i11 . D != k), and the runner
        # raises when it sets up, before it draws or steps anything
        def forbidden(*args, **kwargs):
            raise AssertionError("the runner stepped a filter that does not conserve pi11(I)")

        _tilt(monkeypatch, k_re=1e-3)
        monkeypatch.setattr(se, "_noise_chunks", forbidden)
        cfg = SimConfig(t_end=8.0, dt=1e-2, delta=0.7, fock_dim=3, engine="generic")
        with pytest.raises(NonRealInnovationError, match=r"^the filter's maps do not conserve "
                                                         r"pi11\(I\) \(residue 1\.000e-03\)$"):
            se.run_block(cfg, seed_seqs=np.random.SeedSequence(5).spawn(4))

    def test_trajectory_in_block_matches_alone(self):
        # a generic trajectory run alone steps (19 x 9) . (9 x 1) products,
        # in a block of five (9 x 5) ones, which may round differently
        cfg = SimConfig(t_end=13.0, dt=1e-2, delta=0.7, engine="generic")
        children = np.random.SeedSequence(11).spawn(5)
        block = se.run_block(cfg, seed_seqs=children, record_series=True)
        for j, child in enumerate(children):
            solo = se.run_block(cfg, seed_seqs=[child], record_series=True)
            np.testing.assert_allclose(block.series[:, j], solo.series[:, 0], rtol=0, atol=1e-15)
            np.testing.assert_allclose(block.record[:, j], solo.record[:, 0], rtol=0, atol=1e-15)


class TestNoCountPath:
    # the master equation's path against the closed form the runner samples

    @pytest.mark.parametrize("delta,gamma,dim", [(0.0, 0.1, 2), (0.7, 0.25, 3)])
    def test_closed_form(self, delta, gamma, dim):
        # no count so far: the photon is in the cavity or still to come, so
        # s = <n> + tail, and the cavity holds the master equation's <n>
        cfg = SimConfig(delta=delta, gamma=gamma, fock_dim=dim, t_end=53.0, dt=1e-2,
                        detector="photocount")
        model = SLHModel.cavity(dim, cfg.kappa, delta)
        f = fm.compile_filter(model)
        times = cfg.times()
        w = wp.Wavepacket(gamma, cfg.t0)
        # the unnormalised no-count state: classical RK4 of dx = (Fd - Fj) x dt,
        # Fd affine in xi and Fj quadratic
        no_count = -jump_gain(model)
        no_count[:2] += f.drift
        r = _full_rk4(cfg, no_count, f.initial) @ f.readout.T
        n = analytic_mean_photon_series(cfg, times)
        s = n + wp.tail_norm(w, times)
        np.testing.assert_allclose(r[:, fm.READOUTS.index("i11")], s, rtol=0, atol=1e-10)
        # the master equation's exact flow gives the cavity's <n> to rounding
        np.testing.assert_allclose(integrate_master(cfg).values, n, rtol=0, atol=1e-14)
        # on the master equation's path the cavity's <n> is |pi01(a)|^2, the
        # numerator the runner divides by s; the flow keeps this quadratic
        # identity to rounding
        for _, states in master_path(cfg, f):
            me = states @ f.readout.T
            np.testing.assert_allclose(np.abs(me[:, fm.READOUTS.index("a01")]) ** 2,
                                       me[:, 0].real, rtol=0, atol=1e-14)
        # the runner's conditional photon number: n_cond = <n> / s
        stats = se.count_photons(cfg, noise=np.zeros(1), record_series=True)
        np.testing.assert_allclose(stats.series[:, 0], n / s, rtol=0, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(
        kappa=st.floats(0.1, 1.0),
        gamma=st.floats(0.1, 1.0),
        delta=st.floats(-1.0, 1.0),
        t0=st.floats(0.0, 5.0),
        dim=st.integers(2, 4),
        coarse=st.sampled_from([0.01, 0.05, 0.099]),
    )
    # a detuning so small that z tau is subnormal, where expm1(z tau) / (z tau)
    # once overflowed to nan
    @example(kappa=1.0, gamma=1.0, delta=2.2250738585072014e-308, t0=0.0, dim=2, coarse=0.05)
    def test_physical(self, kappa, gamma, delta, t0, dim, coarse):
        # with no count, out to 20 lifetimes of the slower rate, on grids up
        # to the coarsest the validator accepts: the conditional photon
        # number stays in [0, 1], and the probability s of no count on the
        # master path never rises, so it falls from 1 and stays positive
        dt = coarse / max(kappa, gamma)
        steps = int(np.ceil((t0 + 20.0 / min(kappa, gamma)) / dt))
        cfg = SimConfig(kappa=kappa, gamma=gamma, delta=delta, t0=t0, t_end=steps * dt,
                        dt=dt, fock_dim=dim, detector="photocount")
        stats = se.count_photons(cfg, noise=np.zeros(1), record_series=True)
        assert np.isnan(stats.count_times).all()
        assert stats.series.min() >= 0.0 and stats.series.max() <= 1.0 + 1e-9
        assert (np.diff(_path_s(cfg)) <= 0.0).all()


class TestCascade:
    @pytest.mark.parametrize("delta,bounds", [(0.0, (3e-3, 1.5e-3)), (0.7, (6e-4, 3e-4))])
    def test_strong_convergence_to_generic(self, delta, bounds):
        # both filters on one Brownian path per trajectory, at dt and dt / 4:
        # the RMS gap of n is the generic filter's Euler error (strong order
        # 1/2, multiplicative noise) plus the cascade's (order 1, additive),
        # so it about halves (fine / coarse read 0.40-0.62 over seeds 1-5)
        cfg = SimConfig(t_end=13.0, dt=1e-3, delta=delta)
        seqs = np.random.SeedSequence(1).spawn(16)
        fine = _noise(cfg, 16, seed=1)
        coarse = fine.reshape(-1, 4, 16).sum(axis=1)
        gaps = []
        for c, noise in ((replace(cfg, dt=4e-3), coarse), (cfg, fine)):
            a, b = (se.run_block(replace(c, engine=e), seed_seqs=seqs, noise=noise,
                                 record_series=True).series for e in ("cascade", "generic"))
            gaps.append(np.sqrt(np.mean((a - b) ** 2)))
        assert gaps[0] <= bounds[0] and gaps[1] <= bounds[1]
        assert gaps[1] <= 0.7 * gaps[0]

    @settings(max_examples=20, deadline=None)
    @given(
        kappa=st.floats(0.1, 1.0),
        gamma=st.floats(0.1, 1.0),
        delta=st.floats(-5.0, 5.0),
        t0=st.floats(0.0, 5.0),
        coarse=st.floats(0.01, 0.099),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kappa=1.0, gamma=1.0, delta=2.2250738585072014e-308, t0=0.0, coarse=0.0625, seed=0)
    def test_physical(self, kappa, gamma, delta, t0, coarse, seed):
        # n = |beta|^2 / N with N >= |beta|^2 on every grid the validator
        # accepts, and |beta|^2 <= N holds in floating point too
        dt = coarse / max(kappa, gamma)
        steps = int(np.ceil((t0 + 10.0 / min(kappa, gamma)) / dt))
        cfg = SimConfig(kappa=kappa, gamma=gamma, delta=delta, t0=t0, t_end=steps * dt, dt=dt)
        stats = se.run_block(cfg, seed_seqs=np.random.SeedSequence(seed).spawn(8),
                             record_series=True)
        assert stats.series.min() >= 0.0 and stats.series.max() <= 1.0
        assert stats.n_min == stats.series.min() and stats.n_max == stats.series.max()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_past_underflow_same_at_one_and_two(self):
        # with no noise c stays 0 and N = alpha^2 + |beta|^2 underflows to +0
        # at t = 7587 (dt 0.5), where n = |beta|^2 / N is 0 / 0; the guard
        # names that row.  The next step's K dt = 0 / 0 too, and both blocks
        # take it before the chunk's guard runs: a block of one steps on
        # Python floats, where that division would raise ZeroDivisionError,
        # and must raise what the array loop of a wider block raises, with no
        # numpy warning from the wider block's 0 / 0
        cfg = SimConfig(t_end=8503.0, dt=0.5)
        steps = cfg.steps
        for m in (1, 2):
            with pytest.raises(
                    FilterDivergenceError,
                    match=r"^filter diverged to pi11\(n\) = nan at t=7587 in trajectory 0$"):
                se.run_block(cfg, seed_seqs=np.random.SeedSequence(0).spawn(m),
                             noise=np.zeros((steps, m)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [1, 2])
    def test_divergence_on_the_last_row(self, m):
        # N first reaches +0 on the grid's last row, t_end = 7587: no step
        # follows that would raise, and n = |beta|^2 / N would be 0 / 0.  The
        # guard raises at that row, before n is formed, with no numpy warning
        cfg = SimConfig(t_end=7587.0, dt=0.5)
        with pytest.raises(FilterDivergenceError,
                           match=r"^filter diverged to pi11\(n\) = nan at t=7587 in trajectory 0$"):
            se.run_block(cfg, seed_seqs=np.random.SeedSequence(0).spawn(m),
                         noise=np.zeros((cfg.steps, m)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [1, 2])
    def test_zero_noise_through_underflow(self, m):
        # with no noise c stays 0 and N = alpha^2 + |beta|^2 is subnormal
        # by t_end = 7503 but not yet 0: n = |beta|^2 / N stays in [0, 1],
        # the sums finite, and no numpy warning is raised (1 / N overflowed
        # here, and |beta|^4 (1 / N)^2 was 0 * inf)
        cfg = SimConfig(t_end=7503.0, dt=0.5)
        stats = se.run_block(cfg, seed_seqs=np.random.SeedSequence(0).spawn(m),
                             noise=np.zeros((cfg.steps, m)), record_series=True)
        assert np.isfinite(stats.sum_n).all() and np.isfinite(stats.sumsq_n).all()
        assert 0.0 <= stats.n_min <= stats.n_max <= 1.0
        assert 0.0 <= stats.series.min() and stats.series.max() <= 1.0

    def test_photocount_without_compiled_filter(self, monkeypatch):
        # photon counting reads s = alpha^2 + |beta|^2 in closed form: it
        # neither compiles the filter nor integrates the master equation
        def forbidden(*args, **kwargs):
            raise AssertionError("photon counting called the compiled filter")

        monkeypatch.setattr(master_ensemble, "master_path", forbidden)
        monkeypatch.setattr(fm, "compile_filter", forbidden)
        cfg = SimConfig(t_end=53.0, dt=1e-2, ntraj=50, seed=4, detector="photocount")
        stats = se.count_photons(cfg, record_series=True)
        assert not np.isnan(stats.count_times).all()
        assert 0.0 <= stats.n_min <= stats.n_max <= 1.0


class TestAcceptedConfigs:
    @settings(max_examples=30, deadline=None)
    @given(
        kappa=st.floats(0.05, 1.0),
        gamma=st.floats(0.05, 1.0),
        delta=st.floats(-1.0, 1.0),
        t0=st.floats(0.0, 5.0),
        coarse=st.floats(0.09, 0.0999),
        lifetimes=st.floats(1.0, 50.0),
        m=st.integers(1, 4),
        detector=st.sampled_from(["homodyne", "photocount"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_physical(self, kappa, gamma, delta, t0, coarse, lifetimes, m, detector, seed):
        # on the cascade and photon counting, on grids just under the
        # validator's dt bound and out to 50 lifetimes of the slower rate:
        # finite sums, n in [0, 1], and a count time (photon counting only)
        # that is a grid time after t0.  A numpy RuntimeWarning is an error
        # in this suite, so none is raised either
        dt = coarse / max(kappa, gamma)
        steps = int(np.ceil((t0 + lifetimes / min(kappa, gamma)) / dt))
        cfg = SimConfig(kappa=kappa, gamma=gamma, delta=delta, t0=t0, t_end=steps * dt,
                        dt=dt, ntraj=m, seed=seed, detector=detector)
        if detector == "homodyne":
            stats = se.run_block(cfg, seed_seqs=np.random.SeedSequence(seed).spawn(m),
                                 record_series=True)
        else:
            stats = se.count_photons(cfg, record_series=True)
        assert np.isfinite(stats.sum_n).all() and np.isfinite(stats.sumsq_n).all()
        assert -1e-9 <= stats.n_min and stats.n_max <= 1.0 + 1e-9
        assert -1e-9 <= stats.series.min() and stats.series.max() <= 1.0 + 1e-9
        counted = stats.count_times[~np.isnan(stats.count_times)]
        assert np.isin(counted, stats.times).all() and (counted > t0).all()
        assert counted.size == 0 or detector == "photocount"

    @settings(max_examples=30, deadline=None)
    @given(
        kappa=st.floats(0.05, 1.0),
        gamma=st.floats(0.05, 1.0),
        delta=st.floats(-1.0, 1.0),
        t0=st.floats(0.0, 5.0),
        coarse=st.floats(0.09, 0.0999),
        lifetimes=st.floats(50.0, 800.0),
        m=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    # past about 745 lifetimes s underflows to 0 on either side of kappa = gamma
    @example(kappa=0.3, gamma=0.05, delta=0.0, t0=1.0, coarse=0.09, lifetimes=800.0, m=2,
             seed=0)
    @example(kappa=0.05, gamma=1.0, delta=0.7, t0=5.0, coarse=0.0999, lifetimes=800.0, m=1,
             seed=1)
    def test_photocount_physical_where_it_underflows(self, kappa, gamma, delta, t0, coarse,
                                                     lifetimes, m, seed):
        # photon counting out to 800 lifetimes of the slower rate, where
        # |beta|^2 and the tail underflow to 0 (from about 745): one
        # closed-form evaluation per example, so the cascade stays at 50.
        # Trajectory 0 draws a uniform of 0 and waits to the end, so n is
        # formed on every row; the others keep their own draws
        dt = coarse / max(kappa, gamma)
        steps = int(np.ceil((t0 + lifetimes / min(kappa, gamma)) / dt))
        cfg = SimConfig(kappa=kappa, gamma=gamma, delta=delta, t0=t0, t_end=steps * dt,
                        dt=dt, detector="photocount")
        v = np.array([0.0, *seeding.uniforms(seed, m)[1:]])
        stats = se.count_photons(cfg, noise=v, record_series=True)
        assert np.isnan(stats.count_times[0])
        assert np.isfinite(stats.sum_n).all() and np.isfinite(stats.sumsq_n).all()
        assert -1e-9 <= stats.n_min and stats.n_max <= 1.0 + 1e-9
        assert -1e-9 <= stats.series.min() and stats.series.max() <= 1.0 + 1e-9
        counted = stats.count_times[~np.isnan(stats.count_times)]
        assert np.isin(counted, stats.times).all() and (counted > t0).all()


class TestNoise:
    def test_wiener_increment_mean(self):
        n = 10**6
        dt = 1e-3
        dw = se._chunk_noise([np.random.default_rng(0)], n, np.sqrt(dt), np.empty((n, 1)))
        assert abs(dw.mean()) <= 3.0 * np.sqrt(dt / n)

    def test_wiener_increment_deterministic(self):
        a = se._chunk_noise([np.random.default_rng(7)], 3, np.sqrt(1e-3), np.empty((3, 1)))
        b = se._chunk_noise([np.random.default_rng(7)], 3, np.sqrt(1e-3), np.empty((3, 1)))
        np.testing.assert_array_equal(a, b)

    def test_jump_draw_never_fires_at_zero(self):
        # before t0 the probability s of no count is exactly 1: even
        # uniforms of 1, which count as soon as s falls below 1, draw no count
        cfg = SimConfig(t0=5.0, t_end=6.0, dt=1e-2, detector="photocount")
        stats = se.count_photons(cfg, noise=np.ones(4), record_series=True)
        assert stats.count_times.tolist() == [pytest.approx(5.01)] * 4
        # every trajectory has counted: the runner stops, and the rest of
        # the series reads the vacuum and the record one count
        after = stats.times > 5.005
        assert (stats.record[after] == 1.0).all() and (stats.series[after] == 0.0).all()
        assert (stats.record[~after] == 0.0).all()

    @pytest.mark.parametrize("engine", ["cascade"])
    def test_jump_draw_empirical_rate(self, engine):
        # The photon is counted by t, left in the cavity or not yet emitted:
        # P(count by t) = 1 - <n>(t) - tail(t) = 1 - 5 e^-2 at t = t0 + 20.
        # With M = 2000 the counted fraction has sd 0.0105; the bound is 4 sd.
        cfg = SimConfig(t_end=23.0, dt=1e-2, ntraj=2000, seed=1, detector="photocount",
                        engine=engine)
        stats = se.count_photons(cfg)
        count_times = stats.count_times
        counted = ~np.isnan(count_times)
        expect = 1.0 - 5.0 * np.exp(-2.0)
        assert abs(counted.mean() - expect) <= 4.0 * np.sqrt(expect * (1 - expect) / 2000)
        # The whole law: the Kolmogorov-Smirnov distance of the count times
        # (+inf where none) from the closed form 1 - s on the grid.  The
        # Dvoretzky-Kiefer-Wolfowitz bound P(D > eps) <= 2 exp(-2 M eps^2)
        # holds for discrete laws too, so eps = sqrt(ln(2 / alpha) / (2 M))
        # = 0.0436 fails with probability at most alpha = 1e-3.
        times = stats.times
        counts = np.sort(count_times)  # NaN (no count) sorts last
        law = 1.0 - analytic_mean_photon_series(cfg, times) - wp.tail_norm(
            wp.Wavepacket(cfg.gamma, cfg.t0), times)
        ks = np.abs(np.searchsorted(counts, times, side="right") / counts.size - law).max()
        assert ks <= np.sqrt(np.log(2.0 / 1e-3) / (2 * counts.size))

    @pytest.mark.parametrize("engine", ["cascade"])
    def test_count_time_inverts_s(self, engine):
        # each trajectory counts at the first grid time where the probability
        # s of no count falls below its uniform (0.01 stays above s to t_end),
        # its record reads 1 from there on and its photon number 0
        cfg = SimConfig(t_end=53.0, dt=1e-2, detector="photocount", engine=engine)
        v = np.array([0.2, 0.9, 0.01, 0.5, 0.9])
        stats = se.count_photons(cfg, noise=v, record_series=True)
        times = stats.times
        n = analytic_mean_photon_series(cfg, times)
        s = n + wp.tail_norm(wp.Wavepacket(cfg.gamma, cfg.t0), times)
        expect = np.array([times[np.argmax(s < x)] if (s < x).any() else np.nan for x in v])
        np.testing.assert_array_equal(stats.count_times, expect)
        assert np.isnan(expect).tolist() == [False, False, True, False, False]
        for j, t in enumerate(expect):
            after = times >= t  # all False where t is NaN
            assert (stats.record[:, j] == after).all() and (stats.series[after, j] == 0).all()
            np.testing.assert_allclose(stats.series[~after, j], (n / s)[~after], rtol=0, atol=1e-10)
        np.testing.assert_allclose(stats.sum_n, stats.series.sum(axis=1), rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_jump_draw_through_underflow(self):
        # gamma (t - t0) reaches 750 on this grid: the tail underflows to 0
        # and s = <n> + tail falls below the smallest normal double.  Where a
        # uniform the runner draws (0 or at least 2^-53) can wait, s never
        # rises, so each uniform counts at the first row where s falls below
        # it.  With tiny uniforms among them, the run ends with finite sums,
        # at most one count each and n in [0, 1], and without a numpy warning:
        # n and 1 / s are formed on the rows someone waits at only
        cfg = SimConfig(t_end=7503.0, dt=0.5, detector="photocount")
        times = cfg.times()
        w = wp.Wavepacket(cfg.gamma, cfg.t0)
        s = analytic_mean_photon_series(cfg, times) + wp.tail_norm(w, times)
        assert wp.tail_norm(w, times[-1]) == 0.0 and s[-1] < np.finfo(float).tiny
        waits = s[:-1] >= 2.0**-53
        assert (s[1:][waits] <= s[:-1][waits]).all()
        v = np.array([2.0**-53, 1e-12, 1e-6, 0.3, 1.0 - 2.0**-53])
        for noise, m in ((v, v.size), (None, 200)):
            stats = se.count_photons(replace(cfg, ntraj=m, seed=0), noise=noise,
                                     record_series=True)
            for name in ("sum_n", "sumsq_n"):
                assert np.isfinite(getattr(stats, name)).all(), name
            assert stats.count_times.shape == (m,) and not np.isnan(stats.count_times).any()
            assert (stats.record[-1] == 1.0).all()
            assert 0.0 <= stats.n_min <= stats.n_max <= 1.0
            assert 0.0 <= stats.series.min() and stats.series.max() <= 1.0
            if noise is v:
                assert stats.count_times.tolist() == [times[np.argmax(s < x)] for x in v]

    @pytest.mark.parametrize("kappa,delta", [(0.1, 0.0), (0.1, 0.7), (0.15, 0.0), (0.05, 0.0)])
    def test_uniform_zero_waits_to_any_horizon(self, kappa, delta):
        # a uniform of exactly 0 (drawn with probability 2^-53) never counts.
        # Past gamma (t - t0) = 745 the tail underflows to 0, and so does <n>
        # where kappa >= gamma, so <n> / s would be 0 / 0; n = 1 / (1 + tail /
        # <n>) stays in [0, 1], near its limit kappa gamma tau^2 / (kappa gamma
        # tau^2 + 1) at kappa = gamma, delta = 0 (tier-1 turns a numpy warning
        # into an error)
        cfg = SimConfig(kappa=kappa, delta=delta, t_end=8503.0, dt=0.5, detector="photocount")
        stats = se.count_photons(cfg, noise=np.array([0.0, 0.5]), record_series=True)
        s = analytic_mean_photon_series(cfg, stats.times) + wp.tail_norm(
            wp.Wavepacket(cfg.gamma, cfg.t0), stats.times)
        assert (s[-1] == 0.0) == (kappa >= cfg.gamma)
        assert np.isnan(stats.count_times[0]) and not np.isnan(stats.count_times[1])
        n = stats.series[:, 0]
        assert np.isfinite(n).all() and 0.0 <= n.min() and n.max() <= 1.0
        assert np.isfinite(stats.sum_n).all() and np.isfinite(stats.sumsq_n).all()
        assert 0.0 <= stats.n_min <= stats.n_max <= 1.0
        if kappa == 0.1 and delta == 0.0:
            q = kappa * cfg.gamma * (stats.times[-1] - cfg.t0) ** 2
            assert n[-1] == pytest.approx(q / (q + 1.0), rel=1e-12)

    def test_jump_draw_guards(self):
        # a grid coarser than the validator allows (s falls by 15% in the
        # step after t0): the closed-form s stays the exact probability of no
        # count, so with none (uniforms of 0) the run finishes with n in [0, 1]
        cfg = SimConfig(t0=2.0, t_end=8.0, dt=0.5, detector="photocount")
        object.__setattr__(cfg, "dt", 2.0)  # past the validator
        stats = se.count_photons(cfg, noise=np.zeros(3), record_series=True)
        assert np.isnan(stats.count_times).all()
        assert 0.0 <= stats.series.min() and stats.series.max() <= 1.0
        # verify's photon-counting config with no count at all: the no-count
        # path stays physical to the end (an Euler no-jump step passes n = 1
        # at t = 88.5 here and a count probability of 0.1 per step at t = 141.03)
        cfg = SimConfig(t_end=203.0, dt=1e-2, detector="photocount")
        stats = se.count_photons(cfg, noise=np.zeros(3), record_series=True)
        assert np.isnan(stats.count_times).all()
        assert 0.0 <= stats.series.min() and stats.series.max() <= 1.0


class TestOnePass:
    # photon counting runs a whole ensemble in one pass: all uniforms from
    # the seed words at once, one closed form, one searchsorted; it must give
    # what the runs block by block gave, to the bit

    @settings(max_examples=12, deadline=None)
    @given(
        m=st.sampled_from([1, 499, 500, 501, 1000, 1501]),
        seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**64, 2**130)),
        delta=st.sampled_from([0.0, 0.7]),
        dt=st.sampled_from([2e-2, 1e-2]),
    )
    @example(m=1501, seed=2**64 + 5, delta=0.7, dt=1e-2)
    @example(m=501, seed=101, delta=0.0, dt=2e-2)
    def test_matches_blocks(self, m, seed, delta, dt):
        # at dt 1e-2 the grid's 5301 rows span two chunks of the closed form
        cfg = SimConfig(t_end=53.0, dt=dt, delta=delta, ntraj=m, seed=seed,
                        detector="photocount")
        ours, ref = se.count_photons(cfg), count_photons_by_blocks(cfg)
        for name in ("sum_n", "sumsq_n", "count_times"):
            assert getattr(ours, name).tobytes() == getattr(ref, name).tobytes(), name
        assert (ours.m, ours.n_min, ours.n_max) == (ref.m, ref.n_min, ref.n_max)

    @pytest.mark.parametrize("rows", [7, 4096])
    def test_closed_forms_in_chunks(self, rows, monkeypatch):
        # both closed forms are elementwise, so chunks of any size, with
        # boundaries anywhere in the grid's 10301 rows, give the bytes of one
        # evaluation over the whole grid
        cfg = SimConfig(t_end=103.0, dt=1e-2, delta=0.7, ntraj=600, seed=3,
                        detector="photocount")
        times = cfg.times()
        whole = np.abs(wp.cavity_amplitude(wp.Wavepacket(cfg.gamma, cfg.t0), cfg.kappa,
                                           cfg.delta, times)) ** 2
        ref = count_photons_by_blocks(cfg)
        monkeypatch.setattr(wp, "ROWS", rows)
        assert analytic_mean_photon_series(cfg, times).tobytes() == whole.tobytes()
        ours = se.count_photons(cfg)
        assert ours.sum_n.tobytes() == ref.sum_n.tobytes()
        assert ours.sumsq_n.tobytes() == ref.sumsq_n.tobytes()

    def test_divergence_names_index_in_run(self, monkeypatch):
        # a non-finite n from t = 13 on, where only trajectory 700 still
        # waits (uniforms of 1 count right after t0, 0 never): the error
        # names its index in the run, not its column in its block of 500
        cfg = SimConfig(t_end=23.0, dt=1e-2, detector="photocount")
        v = np.ones(1000)
        v[700] = 0.0
        exact = wp.photon_and_tail_ratio

        def poisoned(w, kappa, delta, t):
            bb, ratio = exact(w, kappa, delta, t)
            ratio[t >= 13.0] = np.nan
            return bb, ratio

        monkeypatch.setattr(wp, "photon_and_tail_ratio", poisoned)
        with pytest.raises(FilterDivergenceError,
                           match=r"^filter diverged to pi11\(n\) = nan at t=13 in trajectory 700$"):
            se.count_photons(cfg, noise=v)


class TestNoiseChunks:
    # both homodyne engines draw their increments in chunks of _CHUNK steps
    # into one buffer per block

    @pytest.mark.parametrize("engine,m", [("cascade", 5), ("generic", 5), ("cascade", 1)],
                             ids=["cascade", "generic", "cascade-m1"])
    def test_chunk_size_does_not_matter(self, engine, m, monkeypatch):
        # 1003 steps end in a partial chunk at every size tried; whether a
        # block draws its own increments or is given the same ones, in one
        # chunk or in many, every output is the same to the bit (a block of
        # one cascade trajectory steps on floats and carries its state
        # across chunks in the block's arrays)
        cfg = SimConfig(t_end=10.03, dt=1e-2, delta=0.7, engine=engine)
        steps = cfg.steps
        assert steps % se._SUB and steps % se._CHUNK and steps > se._CHUNK
        seqs = np.random.SeedSequence(12).spawn(m)
        noise = _noise(cfg, m, seed=12)
        ref = se.run_block(cfg, seed_seqs=seqs, record_series=True)
        for chunk in (se._SUB, 5 * se._SUB, se._CHUNK, steps + 1):
            monkeypatch.setattr(se, "_CHUNK", chunk)
            for given in (None, noise):
                stats = se.run_block(cfg, seed_seqs=seqs, noise=given,
                                     record_series=True)
                for fld in fields(se.BlockStats):
                    np.testing.assert_array_equal(getattr(stats, fld.name),
                                                  getattr(ref, fld.name), err_msg=fld.name)
        np.testing.assert_array_equal(noise, _noise(cfg, m, seed=12))  # only read

    @pytest.mark.parametrize("engine,m", [("cascade", 4), ("generic", 4), ("cascade", 1)],
                             ids=["cascade", "generic", "cascade-m1"])
    @pytest.mark.parametrize("k", [se._CHUNK - 1, se._CHUNK, 2 * se._CHUNK],
                             ids=["chunk-end", "chunk-start", "third-chunk-start"])
    def test_divergence_at_chunk_boundary(self, engine, m, k):
        # trajectories 4..7 of an ensemble (or trajectory 5 alone); a NaN
        # increment in trajectory 5's column at step k makes the state
        # non-finite at the next grid time, on the last step of a chunk and
        # on the first of a later one
        cfg = SimConfig(t_end=13.0, dt=1e-2, engine=engine)
        lo = 5 if m == 1 else 4
        seqs = np.random.SeedSequence(3).spawn(8)[lo:lo + m]
        noise = _noise(cfg, m, seed=3)
        noise[k, 5 - lo] = np.nan
        t = cfg.times()[k + 1]
        with pytest.raises(FilterDivergenceError,
                           match=rf"at t={re.escape(f'{t:.6g}')} in trajectory 5$"):
            se.run_block(cfg, seed_seqs=seqs, noise=noise)

    @pytest.mark.parametrize("engine,detector", [("cascade", "homodyne"),
                                                 ("generic", "homodyne"),
                                                 ("cascade", "photocount")])
    def test_noise_shape_checked(self, engine, detector):
        # too few steps, the wrong m, or one column for all trajectories:
        # the block raises rather than broadcast.  Photon counting takes one
        # uniform per trajectory, as many as it is given, and raises on a
        # scalar, on none or on a table rather than count nothing
        cfg = SimConfig(t_end=5.0, dt=5e-2, engine=engine, detector=detector)
        steps, m = 100, 3
        seqs = np.random.SeedSequence(0).spawn(m)
        if detector == "homodyne":
            want, bad = (steps, m), [(steps - 1, m), (steps, m - 1), (steps, m + 1), (steps, 1)]
            run = functools.partial(se.run_block, cfg, seqs)
        else:
            want, bad = (m,), [(), (0,), (steps, 1), (1, m), (steps, m)]
            run = functools.partial(se.count_photons, cfg)
        for shape in bad:
            with pytest.raises(ValueError, match=re.escape(
                    f"shape {'(m,)' if len(want) == 1 else want}, got {shape}")):
                run(noise=np.full(shape, 0.5))
        run(noise=np.full(want, 0.5))

    def test_run_block_is_homodyne_only(self):
        # photon counting steps nothing: a block runner given it raises
        # rather than step homodyne detection under its name
        cfg = SimConfig(t_end=5.0, dt=5e-2, detector="photocount")
        with pytest.raises(ValueError, match="run_block steps homodyne detection"):
            se.run_block(cfg, seed_seqs=np.random.SeedSequence(0).spawn(2))

    @pytest.mark.parametrize("bad", [1.5, -0.2, np.nan, np.inf])
    def test_photocount_noise_range_checked(self, bad):
        # above 1 every trajectory counted at t = 0 and the block then failed
        # on an empty minimum; below 0 or at nan the trajectory never counted
        # on a trajectory past the first block of 500, the error names its
        # index in the run
        cfg = SimConfig(t_end=23.0, dt=1e-2, detector="photocount")
        with pytest.raises(ValueError, match=re.escape(f"[0, 1], got {bad} in trajectory 1")):
            se.count_photons(cfg, noise=np.array([0.5, bad, 0.25]))
        with pytest.raises(ValueError, match=f"got {bad} in trajectory 0$"):
            se.count_photons(cfg, noise=np.array([bad]))
        v = np.full(1200, 0.5)
        v[[700, 900]] = bad
        with pytest.raises(ValueError, match=f"got {bad} in trajectory 700$"):
            se.count_photons(cfg, noise=v)

    @pytest.mark.parametrize("engine,m,cfg,bound_mb", [
        # 4600 steps: a block that held 4096 steps of increments peaked at 19.4 MB
        ("cascade", 500, SimConfig(t_end=23.0, dt=5e-3), 4.0),
        # the benchmark's generic-d3 block (1150 steps), at the peak it had
        # when it held all of its increments at once
        ("generic", 200, SimConfig(t_end=23.0, dt=2e-2, fock_dim=3), 2.64),
        # 20,300 steps of one trajectory: 2.33 MB when the cascade's
        # coefficients spanned the whole grid, 0.75 MB per chunk
        ("cascade", 1, SimConfig(t_end=203.0, dt=1e-2), 1.0),
    ], ids=["cascade", "generic-d3", "cascade-long-m1"])
    def test_peak_memory(self, engine, m, cfg, bound_mb):
        # a block holds one chunk of increments and of coefficients, not its
        # whole grid
        cfg = replace(cfg, engine=engine)
        seqs = np.random.SeedSequence(1).spawn(m)
        se.run_block(cfg, seed_seqs=seqs[:2])  # lazy imports and caches
        tracemalloc.start()
        try:
            se.run_block(cfg, seed_seqs=seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6


class TestTrajectory:
    def test_quiet_before_arrival(self):
        cfg = SimConfig(t_end=13.0, dt=1e-2)
        traj = se.simulate_trajectory(replace(cfg, seed=123))
        before = traj.times <= cfg.t0
        assert np.abs(traj.n_cond[before]).max() <= 1e-12

    def test_same_seed_bitwise_identical(self):
        cfg = SimConfig(t_end=13.0, dt=1e-2, detector="homodyne")
        a = se.simulate_trajectory(replace(cfg, seed=7))
        b = se.simulate_trajectory(replace(cfg, seed=7))
        np.testing.assert_array_equal(a.n_cond, b.n_cond)
        np.testing.assert_array_equal(a.record, b.record)

    @pytest.mark.parametrize("engine", ["cascade", "generic"])
    @pytest.mark.parametrize("delta", [0.0, 0.7])
    def test_homodyne_is_a_block_of_one(self, engine, delta):
        # a homodyne trajectory is the block of one seeded by numpy's own
        # root SeedSequence of its seed, bit for bit
        cfg = SimConfig(t_end=13.0, dt=1e-2, delta=delta, engine=engine, seed=2**64 + 5)
        traj = se.simulate_trajectory(cfg)
        ref = se.run_block(cfg, seed_seqs=[np.random.SeedSequence(cfg.seed)], record_series=True)
        assert traj.n_cond.tobytes() == ref.series[:, 0].tobytes()
        assert traj.record.tobytes() == ref.record[:, 0].tobytes()
        assert traj.times.tobytes() == ref.times.tobytes() and traj.jumps == []

    def test_drift_only_tracks_master_equation(self):
        # with dW = 0 the generic filter's homodyne step is the explicit Euler
        # step of the drift
        cfg = SimConfig(t_end=33.0, dt=1e-2, engine="generic")
        steps = cfg.steps
        stats = se.run_block(cfg, seed_seqs=[np.random.SeedSequence(0)],
                             noise=np.zeros((steps, 1)), record_series=True)
        me = integrate_master(cfg)
        # explicit Euler vs the exact flow: O(dt) agreement
        assert np.abs(stats.series[:, 0] - me.values).max() <= 1e-3

    def test_engines_agree_homodyne(self):
        # the compiled runner vs the einsum filter on shared noise, at D=3
        cfg = SimConfig(t_end=8.0, dt=1e-3, fock_dim=3, detector="homodyne", engine="generic")
        noise = _noise(cfg, 2, seed=5)
        seqs = np.random.SeedSequence(5).spawn(2)
        a = se.run_block(cfg, seed_seqs=seqs, noise=noise, record_series=True)
        series, record, _ = einsum_block(cfg, "homodyne", noise)
        assert np.abs(a.series - series).max() <= 1e-12
        assert np.abs(a.record - record).max() <= 1e-12

    def test_engines_agree_photocount(self):
        # the einsum filter takes Euler no-jump steps and the runner reads the
        # closed-form no-count path: with no count, their series agree to
        # first order in dt (the law of the count times is checked in TestNoise)
        cfg = SimConfig(t_end=23.0, dt=1e-2, detector="photocount")
        devs = []
        for c in (cfg, replace(cfg, dt=5e-3)):
            ones = np.ones((c.steps, 1))
            b = se.count_photons(c, noise=np.zeros(1), record_series=True)
            devs.append(np.abs(b.series - einsum_block(c, "photocount", ones)[0]).max())
        assert devs[0] <= 5e-4 and 1.8 <= devs[0] / devs[1] <= 2.2

    def test_photocount_single_jump_and_collapse(self):
        cfg = SimConfig(t_end=103.0, dt=1e-2, detector="photocount")
        jumps_seen = 0
        for seed in range(12):
            traj = se.simulate_trajectory(replace(cfg, seed=seed))
            assert len(traj.jumps) <= 1
            if traj.jumps:
                jumps_seen += 1
                k = int(np.searchsorted(traj.times, traj.jumps[0]))
                assert traj.n_cond[k] <= 1e-12
        assert jumps_seen > 0

    def test_trajectory_in_block_matches_alone(self):
        # batching must not change any individual trajectory.  Alone, a
        # trajectory steps on Python floats; in a block, on arrays, where
        # the gain's np.dot with (Re c, Im c) may round differently.  At
        # delta = 0 f is real, Im c stays 0 and the two agree to the bit
        children = np.random.SeedSequence(11).spawn(3)
        for delta, atol in ((0.0, 0.0), (0.7, 1e-15)):
            cfg = SimConfig(t_end=13.0, dt=1e-2, delta=delta)
            block = se.run_block(cfg, seed_seqs=children, record_series=True)
            for j, child in enumerate(children):
                solo = se.run_block(cfg, seed_seqs=[child], record_series=True)
                np.testing.assert_allclose(block.series[:, j], solo.series[:, 0], rtol=0,
                                           atol=atol)
                np.testing.assert_allclose(block.record[:, j], solo.record[:, 0], rtol=0,
                                           atol=atol)

    def test_unknown_engine(self):
        for engine in ("exact", "moments"):
            with pytest.raises(ValueError, match="engine"):
                SimConfig(engine=engine)

    def test_error_names_time_and_trajectory(self):
        # trajectories 4..7 of an ensemble; a NaN increment in the third
        # column at step 250 makes the state non-finite at t = 2.51
        cfg = SimConfig(t_end=13.0, dt=1e-2)
        seqs = np.random.SeedSequence(3).spawn(8)[4:]
        noise = _noise(cfg, 4, seed=3)
        noise[250, 2] = np.nan
        with pytest.raises(FilterDivergenceError, match=r"at t=2\.51 in trajectory 6$"):
            se.run_block(cfg, seed_seqs=seqs, noise=noise)
