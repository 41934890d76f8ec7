"""End-to-end acceptance checks, one printed pass/fail line per criterion."""

import filecmp
from dataclasses import replace

import numpy as np
import pytest

from photonfilter import cli
from photonfilter import sde_engine as se
from photonfilter.config import SimConfig
from einsum_oracle import einsum_block
from helpers import weak_convergence_bias
from photonfilter.master_ensemble import (
    analytic_mean_photon_series,
    integrate_master,
    run_ensemble,
)
from photonfilter.verify import run_checks

PEAK_VALUE = 4.0 * np.exp(-2.0)
PEAK_TIME = 23.0


def _report(num, name, ok, detail):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def me_coarse():
    return integrate_master(SimConfig(dt=1e-2))


@pytest.fixture(scope="module")
def me_fine():
    return integrate_master(SimConfig(dt=1e-3))


def _ensemble_vs_me(detector, me_series, engine="cascade"):
    cfg = SimConfig(ntraj=1000, detector=detector, seed=2026, engine=engine)
    stats = run_ensemble(cfg)
    dev = np.abs(stats.mean - me_series.values)
    sup = float(dev.max())
    coverage = float(np.mean(dev <= 4.0 * stats.stderr))
    return stats, sup, coverage


def test_criterion_1_matched_pulse_peak(me_coarse):
    k = int(np.argmax(me_coarse.values))
    dv = abs(me_coarse.values[k] - PEAK_VALUE)
    dtm = abs(me_coarse.times[k] - PEAK_TIME)
    _report(1, "matched-pulse absorption peak",
            dv <= 1e-3 and dtm <= 0.05,
            f"peak {me_coarse.values[k]:.6f} at t={me_coarse.times[k]:.3f}, "
            f"|dvalue|={dv:.2e}, |dt|={dtm:.2e}")


def test_criterion_2_me_oracle_agreement(me_coarse):
    oracle = analytic_mean_photon_series(SimConfig(dt=1e-2), me_coarse.times)
    sup = float(np.abs(me_coarse.values - oracle).max())
    # spot-check the closed form at the matched-pulse peak
    spot = abs(analytic_mean_photon_series(SimConfig(), np.array([23.0]))[0] - PEAK_VALUE)
    _report(2, "master equation vs closed-form oracle",
            sup <= 1e-5 and spot <= 1e-10,
            f"sup|ME - oracle| = {sup:.2e}")


def test_criterion_3_homodyne_ensemble(me_fine):
    _, sup, coverage = _ensemble_vs_me("homodyne", me_fine)
    _report(3, "homodyne ensemble mean vs ME (M=1000)",
            sup <= 0.05 and coverage >= 0.95,
            f"sup|mean - ME| = {sup:.4f}, 4-stderr coverage = {coverage:.2%}")


@pytest.mark.parametrize("engine", ["cascade"])
def test_criterion_4_photocount_ensemble(me_fine, engine):
    # photon counting samples the cascade's closed form; the collapse to
    # n = 0 at the count is checked per trajectory in test_sde_engine
    _, sup, coverage = _ensemble_vs_me("photocount", me_fine, engine)
    _report(4, f"photon-counting ensemble mean vs ME (M=1000, {engine})",
            sup <= 0.05 and coverage >= 0.95,
            f"sup|mean - ME| = {sup:.4f}, coverage = {coverage:.2%}")


def test_criterion_5_oracle_equivalence():
    cfg = SimConfig(t_end=10.0, dt=1e-3, seed=5, engine="generic")
    children = np.random.SeedSequence(cfg.seed).spawn(100)
    steps = cfg.steps
    noise = np.empty((steps, 100))
    for j, child in enumerate(children):
        noise[:, j] = np.random.default_rng(child).standard_normal(steps)
    noise *= np.sqrt(cfg.dt)
    c2 = se.run_block(cfg, seed_seqs=children, noise=noise, record_series=True)
    c3 = se.run_block(replace(cfg, fock_dim=3), seed_seqs=children, noise=noise,
                      record_series=True)
    oracle, _, _ = einsum_block(cfg, "homodyne", noise)
    dev_2 = float(np.abs(c2.series - oracle).max())
    dev_3 = float(np.abs(c3.series - oracle).max())
    _report(5, "compiled filter vs einsum oracle (100 seeds x 1e4 steps)",
            dev_2 <= 1e-9 and dev_3 <= 1e-9,
            f"max|D=2 - oracle| = {dev_2:.2e}, max|D=3 - oracle| = {dev_3:.2e}")


def test_criterion_6_invariant_suite():
    checks = run_checks()
    failed = [c.name for c in checks if not c.passed]
    _report(6, "invariant suite (verify subcommand)",
            not failed,
            f"{len(checks)} checks, failed: {failed or 'none'}")


def test_criterion_7_weak_convergence():
    # common-random-number bias at dt and dt/2; first-order Euler-Maruyama
    # halves the bias.  The ratio carries Monte Carlo noise: at M=40000 it
    # fell in the band for each of master seeds 1-24 (at M=4000 for 26 of
    # 40), and a fixed master seed pins the (deterministic) measurement.
    cfg = SimConfig(t_end=23.0, dt=0.25, engine="generic")
    bias_c, bias_f = weak_convergence_bias(cfg, M=40000, master_seed=6)
    ratio = bias_c / bias_f
    _report(7, "weak convergence under dt halving (M=40000, CRN)",
            1.5 <= ratio <= 3.0,
            f"bias {bias_c:.5f} -> {bias_f:.5f}, ratio = {ratio:.3f}")


def test_criterion_8_byte_identical_ensembles(tmp_path):
    args = ["ensemble", "--tend", "13", "--dt", "0.01", "--ntraj", "600",
            "--seed", "7"]
    paths = [str(tmp_path / f"run{i}.csv") for i in range(3)]
    assert cli.main([*args, "--out", paths[0]]) == 0
    assert cli.main([*args, "--out", paths[1]]) == 0
    assert cli.main([*args, "--workers", "2", "--out", paths[2]]) == 0
    same_rerun = filecmp.cmp(paths[0], paths[1], shallow=False)
    same_parallel = filecmp.cmp(paths[0], paths[2], shallow=False)
    _report(8, "byte-identical seeded ensembles (serial and parallel)",
            same_rerun and same_parallel,
            f"rerun identical: {same_rerun}, 2-worker identical: {same_parallel}")
