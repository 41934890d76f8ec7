"""Invariant suite backing the ``verify`` CLI subcommand."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import filter_moments as fm
from . import wavepacket as wp
from .config import SimConfig
from .filter_generic import SLHModel
from .master_ensemble import analytic_mean_photon_series, master_path, run_ensemble


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(results, name, passed, detail):
    results.append(CheckResult(name, bool(passed), detail))


def run_checks(seed: int = 2024) -> list[CheckResult]:
    """Run the full invariant suite; all checks must pass for a clean build."""
    results: list[CheckResult] = []

    # The detuned cavity's maps, whose trace the generic filter keeps at 1
    # exactly (the runner refuses, at setup, maps that do not).
    cfg_pc = SimConfig(t_end=203.0, dt=1e-2, ntraj=1000, seed=seed, delta=0.7,
                       detector="photocount")
    f = fm.compile_filter(SLHModel.cavity(cfg_pc.fock_dim, cfg_pc.kappa, cfg_pc.delta))
    off = fm.i11_residue(f)
    _check(results, "pi11(I) conserved by the generic filter's maps, exactly (delta=0.7)",
           off == 0.0, f"max of |i11.u0-1|, |i11.G|, |i11.D-k| {off:.2e}")

    # Photon counting samples the closed form s = <n> + tail; the RK4 path
    # must give the same s (its |pi01(a)|^2 against |beta|^2, the tail being
    # common to both) and a real pi11(n).
    s_dev = im_n = 0.0
    for k, x in master_path(cfg_pc, f):
        r = x @ f.readout[[0, fm.READOUTS.index("a01")]].T
        n_closed = analytic_mean_photon_series(cfg_pc, cfg_pc.dt * np.arange(k, k + len(x)))
        s_dev = max(s_dev, float(np.abs(np.abs(r[:, 1]) ** 2 - n_closed).max()))
        im_n = max(im_n, float(np.abs(r[:, 0].imag).max()))
    _check(results, "no-count s on the RK4 path within 1e-9 of closed form (delta=0.7)",
           s_dev <= 1e-9, f"max |s - closed form| {s_dev:.2e}")
    _check(results, "pi11(n) real on the master path (delta=0.7)",
           im_n <= 1e-9, f"max |Im| {im_n:.2e}")
    # The count times' law: P(count by t) = 1 - min_{t' <= t} s(t').  The
    # Kolmogorov-Smirnov distance of their empirical CDF exceeds 1.95 / sqrt(M)
    # with probability about 0.1% (asymptotically; less for a discrete law).
    pc = run_ensemble(cfg_pc).diagnostics
    times = pc.times
    s = analytic_mean_photon_series(cfg_pc, times) + wp.tail_norm(
        wp.Wavepacket(cfg_pc.gamma, cfg_pc.t0), times)
    counts = np.sort(pc.count_times)  # NaN (no count) sorts last
    ecdf = np.searchsorted(counts, times, side="right") / pc.m
    ks = float(np.abs(ecdf - (1.0 - np.fmin.accumulate(s))).max())
    _check(results, "count times follow 1 - min s (KS, M=1000)",
           ks <= 1.95 / np.sqrt(pc.m), f"sqrt(M) D = {np.sqrt(pc.m) * ks:.3f} (<= 1.95)")
    mean_count = float(np.mean(~np.isnan(pc.count_times)))
    _check(results, "mean total counts = 1 +/- 0.03 (M=1000)",
           abs(mean_count - 1.0) <= 0.03, f"mean count {mean_count:.4f}")
    hd = run_ensemble(SimConfig(t_end=23.0, ntraj=200, seed=seed)).diagnostics
    for name, st in (("homodyne", hd), ("photocount", pc)):
        _check(results, f"0 <= <n> <= 1 within 1e-9 ({name})",
               st.n_min >= -1e-9 and st.n_max <= 1.0 + 1e-9,
               f"n in [{st.n_min:.4g}, {st.n_max:.4g}]")
    return results
