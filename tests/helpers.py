"""Test-only builders on top of the package.

:func:`creation` and :func:`commutator` complete the operator algebra of
:mod:`photonfilter.operators`, which the runs do not need.
:func:`jump_gain` is the compiled counting map Fj, which the runner does not
need: photon counting samples the closed-form probability of no count.  It
is quadratic in xi, where the compiled maps are affine, and
:func:`evaluate_powers` gives it at any xi.
:func:`weak_convergence_bias` is the harness of the weak-convergence check.
:func:`count_photons_by_blocks` is photon counting as it once ran, block by
block from numpy's own generators, the reference of the one-pass runner.
"""

from dataclasses import replace

import numpy as np

from photonfilter import filter_moments as fm
from photonfilter import master_ensemble as me
from photonfilter import operators as ops
from photonfilter import sde_engine as se
from photonfilter import wavepacket as wp


def creation(dim: int) -> np.ndarray:
    """Creation operator ``a^dag``, the conjugate transpose of ``ops.annihilation``."""
    return ops.annihilation(dim).conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA for square matrices of equal dimension."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in commutator: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def jump_gain(model):
    """Packed (3, N, N) jump gain Fj of ``model`` on the powers (1, xi, xi^2),
    built like the maps of :func:`photonfilter.filter_moments.compile_filter`:

        counting:   dx += (Fj x / nu - x) dN,     nu = pi11(I) of Fj x  (real)

    At S = I a count still feeds xi^2 rho00 into block 11, so Fj has a third
    power, the identity from block 00 to block 11."""
    dim, n = model.dim, model.dim ** 2
    L = np.asarray(model.L, dtype=np.complex128)
    Ld, eye = L.conj().T, np.eye(dim)
    affine = fm._superop(dim, [
        *((fm.ONE, blk, blk, L, Ld) for blk in range(4)),
        (fm.XI, fm.B11, fm.B01, L, eye), (fm.XI, fm.B11, fm.B10, eye, Ld),
        (fm.XI, fm.B10, fm.B00, L, eye), (fm.XI, fm.B01, fm.B00, eye, Ld),
    ])
    xi2 = np.zeros_like(affine[:1])
    xi2[0, fm.B11 * n:(fm.B11 + 1) * n, fm.B00 * n:(fm.B00 + 1) * n] = np.eye(n)
    return np.concatenate([affine, xi2])


def evaluate_powers(poly, xi):
    """sum_p xi^p poly[p] at every entry of ``xi`` (a scalar or an array,
    real), for maps packed on any number of powers of xi: the compiled maps'
    two or the jump gain's three.  Shape xi.shape + poly.shape[1:]."""
    z = np.asarray(xi, dtype=poly.dtype)
    weights = np.stack([z ** p for p in range(len(poly))], axis=-1)
    return (weights @ poly.reshape(len(poly), -1)).reshape(z.shape + poly.shape[1:])


def weak_convergence_bias(cfg, M: int, master_seed: int) -> tuple[float, float]:
    """Homodyne ensemble-mean bias of ``cfg.engine`` vs the closed-form oracle
    at dt and dt/2.

    Uses common random numbers: each trajectory's fine-grid Wiener
    increments are drawn once and pairwise-summed to form its coarse-grid
    increments.  Trajectories run in blocks of ``_ENSEMBLE_BLOCK``, each
    drawing its own increments, and the blocks' sums are added in order.
    Returns (bias at dt, bias at dt/2), each a sup over the coarse grid.
    """
    steps = cfg.steps
    cfg_f = replace(cfg, dt=0.5 * cfg.dt)
    children = np.random.SeedSequence(master_seed).spawn(M)
    sum_c, sum_f = np.zeros(steps + 1), np.zeros(2 * steps + 1)
    for lo in range(0, M, se._ENSEMBLE_BLOCK):
        seqs = children[lo:lo + se._ENSEMBLE_BLOCK]
        gens = [np.random.default_rng(ss) for ss in seqs]
        noise_f = se._chunk_noise(gens, 2 * steps, np.sqrt(0.5 * cfg.dt),
                                  np.empty((2 * steps, len(gens))))
        noise_c = noise_f[0::2] + noise_f[1::2]
        sum_c += se.run_block(cfg, seed_seqs=seqs, noise=noise_c).sum_n
        sum_f += se.run_block(cfg_f, seed_seqs=seqs, noise=noise_f).sum_n
    mean_c = sum_c / M
    mean_f = sum_f[::2] / M
    oracle = me.analytic_mean_photon_series(cfg, cfg.times())
    bias_c = float(np.abs(mean_c - oracle).max())
    bias_f = float(np.abs(mean_f - oracle).max())
    return bias_c, bias_f


def count_photons_by_blocks(cfg) -> se.BlockStats:
    """Photon counting of ``cfg.ntraj`` trajectories block by block: each
    block of ``_ENSEMBLE_BLOCK`` draws its uniforms from numpy's
    ``default_rng`` of its SeedSequence children, evaluates the closed form
    over the whole grid at once, places its count times and forms its own
    sums, and the blocks fold in order (``se._fold``)."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.ntraj)
    times, w = cfg.times(), wp.Wavepacket(cfg.gamma, cfg.t0)
    n_me, tail_ratio = wp.photon_and_tail_ratio(w, cfg.kappa, cfg.delta, times)
    s = n_me + wp.tail_norm(w, times)
    blocks = []
    for lo in range(0, cfg.ntraj, se._ENSEMBLE_BLOCK):
        v = np.array([np.random.default_rng(c).random()
                      for c in children[lo:lo + se._ENSEMBLE_BLOCK]])
        at = np.searchsorted(-np.fmin.accumulate(s), -v, side="right")
        live = v.size - np.cumsum(np.bincount(at, minlength=times.size))[:times.size]
        e = int(np.count_nonzero(live))
        n, live = 1.0 / (1.0 + tail_ratio[:e]), live[:e]
        b = se.BlockStats(v.size, times, np.zeros(times.size), np.zeros(times.size),
                          np.full(v.size, np.nan), float(n.min()), float(n.max()))
        b.sum_n[:e], b.sumsq_n[:e] = n * live, n * n * live
        counted = at < times.size
        b.count_times[counted] = times[at[counted]]
        blocks.append(b)
    return se._fold(blocks)
