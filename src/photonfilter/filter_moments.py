"""Single-photon filter compiled from (L, H) into packed superoperators.

The filter state is the four coefficient matrices rho^{ij} of the
conditional moments pi^{ij}(X) = tr(rho^{ij} X), ij in {11, 10, 01, 00},
stacked as one vector of 4 D^2 entries: block ij holds vec(rho^{ij}) in
column-major order, so that

    vec(A rho B) = (B^T (x) A) vec(rho)    and    tr(rho X) = X.ravel() . vec(rho).

Every map of the hierarchy is linear in the state and affine in the real
wavepacket amplitude xi, as the model has no scattering (S = I, so the
drift's xi^2 term S rho00 S^dag - rho00 is 0),

    F(xi) = F0 + xi F1,

so each is compiled once into a packed array of shape (2, ...), and
:func:`evaluate` gives it, or any packed polynomial in xi, at a run of xi
values in one (n, p) . (p, r c) product (the hierarchy's xi and xi* terms
share F1: their nonzero patterns are disjoint, so the sum is exact):

    drift:      dx = Fd x dt
    homodyne:   dx += (Fg x - K x) dW,        K  = k . x  (real)

Photon counting needs no map of its own: it samples the closed-form
probability of no count (:func:`photonfilter.sde_engine.count_photons`).

Every term is built from L and H with the Kronecker identity above.  The
tests check the compiled maps against an independent einsum filter, which
lives with them in ``tests/einsum_oracle.py``.  :func:`real_filter` gives
the homodyne filter on real coordinates of :func:`support`, which the runner steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import operators as ops
from .errors import NonRealInnovationError
from .filter_generic import SLHModel

# Block order of the packed state and the powers of xi.
B11, B10, B01, B00 = range(4)
ONE, XI = range(2)

# Rows of the readout matrix: pi^{ij}(X), "a" being the annihilation
# operator.  n11, the photon number the runner reads, and i11, which the
# maps conserve (:func:`i11_residue`), are real (X Hermitian).  a01 gives
# the master equation's no-count probability (verify and the tests).
READOUTS = ("n11", "i11", "a01")


@dataclass(frozen=True)
class CompiledFilter:
    """Packed maps of one (L, H) model on N state entries (4 D^2 as compiled)."""

    drift: np.ndarray      # (2, N, N)
    diffusion: np.ndarray  # (2, N, N), without the -K x term
    k: np.ndarray          # (2, N)
    readout: np.ndarray    # (len(READOUTS), N), real
    initial: np.ndarray    # (N,) vacuum cavity: rho11 = rho00 = |0><0|


def _superop(dim: int, terms) -> np.ndarray:
    """Sum of ``w_p * A rho_src B`` into block ``dst`` for (p, dst, src, A, B)."""
    n = dim * dim
    out = np.zeros((2, 4 * n, 4 * n), dtype=np.complex128)
    for p, dst, src, a, b in terms:
        out[p, dst * n:(dst + 1) * n, src * n:(src + 1) * n] += np.kron(b.T, a)
    return out


def _row(dim: int, terms) -> np.ndarray:
    """Sum of ``w_p * tr(rho_src X)`` for (p, src, X)."""
    n = dim * dim
    out = np.zeros((2, 4 * n), dtype=np.complex128)
    for p, src, x in terms:
        out[p, src * n:(src + 1) * n] += x.ravel()
    return out


def compile_filter(model: SLHModel) -> CompiledFilter:
    """Compile the drift, diffusion and K maps of ``model``."""
    dim = model.dim
    L, H = (np.asarray(v, dtype=np.complex128) for v in (model.L, model.H))
    Ld = L.conj().T
    ldl = Ld @ L
    eye = np.eye(dim, dtype=np.complex128)

    def lindblad(blk):
        return [
            (ONE, blk, blk, -1j * H, eye), (ONE, blk, blk, eye, 1j * H),
            (ONE, blk, blk, L, Ld),
            (ONE, blk, blk, -0.5 * ldl, eye), (ONE, blk, blk, eye, -0.5 * ldl),
        ]

    drift = _superop(dim, [
        *(t for blk in range(4) for t in lindblad(blk)),
        (XI, B11, B01, L, eye), (XI, B11, B01, -eye, L),
        (XI, B11, B10, eye, Ld), (XI, B11, B10, -Ld, eye),
        (XI, B10, B00, L, eye), (XI, B10, B00, -eye, L),
        (XI, B01, B00, eye, Ld), (XI, B01, B00, -Ld, eye),
    ])
    diffusion = _superop(dim, [
        *(t for blk in range(4) for t in ((ONE, blk, blk, L, eye), (ONE, blk, blk, eye, Ld))),
        (XI, B11, B01, eye, eye), (XI, B11, B10, eye, eye),
        (XI, B10, B00, eye, eye), (XI, B01, B00, eye, eye),
    ])
    k = _row(dim, [(ONE, B11, L + Ld), (XI, B10, eye), (XI, B01, eye)])

    x_of = {"n": ops.number_op(dim), "i": eye, "a": ops.annihilation(dim)}
    blk_of = {"11": B11, "10": B10, "01": B01, "00": B00}
    # The readout operators are real in the Fock basis.
    readout = np.stack([
        _row(dim, [(ONE, blk_of[name[1:]], x_of[name[0]])])[ONE].real for name in READOUTS
    ])
    vac = np.zeros((dim, dim), dtype=np.complex128)
    vac[0, 0] = 1.0
    n = dim * dim
    initial = np.zeros(4 * n, dtype=np.complex128)
    initial[B11 * n:(B11 + 1) * n] = vac.ravel(order="F")
    initial[B00 * n:(B00 + 1) * n] = vac.ravel(order="F")
    return CompiledFilter(drift, diffusion, k, readout, initial)


def i11_residue(f: CompiledFilter) -> float:
    """How far the maps of ``f`` are from conserving pi11(I) = 1 exactly: the
    largest of |i11 . x0 - 1|, |i11 . Fd| and |i11 . Fg - k| over the powers
    of xi, i11 being the readout row of pi11(I).  At 0, a step changes
    pi11(I) by K (1 - pi11(I)) dW to rounding, so it stays 1."""
    i11 = f.readout[READOUTS.index("i11")]
    return float(max(abs(i11 @ f.initial - 1.0), np.abs(i11 @ f.drift).max(),
                     np.abs(i11 @ f.diffusion - f.k).max()))


def support(f: CompiledFilter, *maps) -> np.ndarray:
    """Indices of the state entries that ``f.initial`` reaches through the
    union of the nonzero patterns of ``maps`` (any power of xi; the drift
    alone by default); the others stay exact zeros.  From the vacuum the
    drift reaches five at every D: |0><0| and |1><1| of block 11, one
    coherence each in blocks 10 and 01, and |0><0| of block 00.  Drift and
    diffusion reach nine: all of |0>, |1> in block 11, |0><0| and |0><1| of
    block 10, |0><0| and |1><0| of block 01, and |0><0| of block 00."""
    # feeds[i, j]: entry j drives entry i
    feeds = np.logical_or.reduce([(p != 0).any(axis=0) for p in maps or (f.drift,)])
    on = f.initial != 0
    while True:
        grown = on | feeds[:, on].any(axis=1)
        if (grown == on).all():
            return np.flatnonzero(on)
        on = grown


def real_filter(f: CompiledFilter, on: np.ndarray) -> CompiledFilter:
    """The homodyne filter ``f`` on real coordinates of its entries ``on``.

    The adjoint takes entry (block, i, j) to its mirror (block with 10 and 01
    swapped, j, i), and every state of the filter is its own adjoint: a
    self-mirrored entry is real and a mirror pair a < b holds (z, conj z).
    The coordinates are Re x at a self entry, Re x_a at a and Im x_a at b, so
    x = B u with x_a = u_a + i u_b and x_b = u_a - i u_b.  A map F becomes
    u -> T F B u by index arithmetic, power by power of xi: column a of F B
    is F[:, a] + F[:, b] and column b is i (F[:, a] - F[:, b]); T keeps the
    real parts of rows a and of the self rows, and puts Im of row a at b.
    Returns the real drift, diffusion, k row, n11 readout and initial state.
    Raises :class:`NonRealInnovationError` unless the self rows' imaginary
    parts, the mismatches between mirror rows and the imaginary parts of k
    and the readouts are exactly 0, so K and the photon number are real
    throughout, and unless the real maps conserve pi11(I) = 1 exactly
    (:func:`i11_residue`), so the runner need not watch it.
    """
    dim = math.isqrt(f.initial.size // 4)
    n = dim * dim
    blk, i, j = on // n, on % n % dim, on % n // dim
    mirror = np.array([B11, B01, B10, B00])[blk] * n + j + i * dim
    perm = np.minimum(np.searchsorted(on, mirror), on.size - 1)  # a mirror not in on fails:
    if (on[perm] != mirror).any():
        raise NonRealInnovationError("the filter's entries are not closed under the adjoint")
    a = np.flatnonzero(perm > np.arange(on.size))
    b = perm[a]

    def checked(w, off, what):  # the real part of w, where off, its error, is 0
        if off != 0.0:
            raise NonRealInnovationError(
                f"the filter's {what} is not real on its real coordinates (residue {off:.3e})")
        return w.real.copy()

    def columns(w):  # w[..., on] B
        w = w[..., on].astype(np.complex128)
        w[..., a], w[..., b] = w[..., a] + w[..., b], 1j * (w[..., a] - w[..., b])
        return w

    def rows(w, what):  # T w, the state's entries running along axis -2
        u = checked(w, np.abs(w - w[..., perm, :].conj()).max(), what)
        u[..., b, :] = w[..., a, :].imag
        return u

    drift, diffusion = (rows(columns(p[:, on]), what)
                        for p, what in ((f.drift, "drift"), (f.diffusion, "diffusion")))
    k, readout = (checked(w, np.abs(w.imag).max(), what)
                  for w, what in ((columns(f.k), "K row"), (columns(f.readout[:2]), "readout")))
    initial = rows(f.initial[on, None], "initial state")[:, 0]
    g = CompiledFilter(drift, diffusion, k, readout, initial)
    if (off := i11_residue(g)) != 0.0:
        raise NonRealInnovationError(
            f"the filter's maps do not conserve pi11(I) (residue {off:.3e})")
    return replace(g, readout=readout[:1])


def evaluate(poly: np.ndarray, xi) -> np.ndarray:
    """sum_p xi^p poly[p] at every entry of ``xi`` (a scalar or an array, real),
    for two or more powers: shape xi.shape + poly.shape[1:], from one product
    with the weights (1, xi, xi xi, ...), held in the dtype of ``poly``."""
    z, p = np.asarray(xi), len(poly)
    weights = np.empty(z.shape + (p,), dtype=poly.dtype)
    weights[..., 0], weights[..., 1], zp = 1.0, z, z
    for k in range(2, p):
        weights[..., k] = zp = zp * z
    return (weights @ poly.reshape(p, -1)).reshape(z.shape + poly.shape[1:])
