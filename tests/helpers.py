"""Test-only builders on top of the package.

:func:`creation` and :func:`commutator` complete the operator algebra of
:mod:`photonfilter.operators`, which the runs do not need.
:func:`jump_gain` is the compiled counting map Fj, which the runner does not
need: photon counting samples the closed-form probability of no count.
:func:`weak_convergence_bias` is the harness of the weak-convergence check.
"""

import numpy as np

from photonfilter import filter_moments as fm
from photonfilter import master_ensemble as me
from photonfilter import operators as ops
from photonfilter import sde_engine as se


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
    """Packed (3, N, N) jump gain Fj of ``model``, built like the maps of
    :func:`photonfilter.filter_moments.compile_filter`:

        counting:   dx += (Fj x / nu - x) dN,     nu = pi11(I) of Fj x  (real)
    """
    S, L = (np.asarray(v, dtype=np.complex128) for v in (model.S, model.L))
    Sd, Ld = S.conj().T, L.conj().T
    return fm._superop(model.dim, [
        *((fm.ONE, blk, blk, L, Ld) for blk in range(4)),
        (fm.XI, fm.B11, fm.B01, L, Sd), (fm.XI, fm.B11, fm.B10, S, Ld),
        (fm.XI2, fm.B11, fm.B00, S, Sd),
        (fm.XI, fm.B10, fm.B00, L, Sd), (fm.XI, fm.B01, fm.B00, S, Ld),
    ])


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
    cfg_f = cfg.with_(dt=0.5 * cfg.dt)
    children = np.random.SeedSequence(master_seed).spawn(M)
    sum_c, sum_f = np.zeros(steps + 1), np.zeros(2 * steps + 1)
    for lo in range(0, M, me._ENSEMBLE_BLOCK):
        seqs = children[lo:lo + me._ENSEMBLE_BLOCK]
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
