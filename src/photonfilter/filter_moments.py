"""Single-photon filter compiled from (S, L, H) into packed superoperators.

The filter state is the four coefficient matrices rho^{ij} of the
conditional moments pi^{ij}(X) = tr(rho^{ij} X), ij in {11, 10, 01, 00},
stacked as one vector of 4 D^2 entries: block ij holds vec(rho^{ij}) in
column-major order, so that

    vec(A rho B) = (B^T (x) A) vec(rho)    and    tr(rho X) = X.ravel() . vec(rho).

Every map of the hierarchy is linear in the state and a polynomial in the
wavepacket amplitude xi,

    F(xi) = F0 + xi F1 + xi* F2 + |xi|^2 F3,

so each is compiled once into a packed array of shape (4, ...), and
:func:`evaluate` gives it at a run of xi values in one (n, 4) . (4, r c)
product:

    drift:      dx = Fd x dt
    homodyne:   dx += (Fg x - K x) dW,        K  = k . x  (real)

Photon counting needs no map of its own: it samples the closed-form
probability of no count (:func:`photonfilter.sde_engine.run_block`).

Every term is built from S, L and H with the Kronecker identity above.  The
tests check the compiled maps against an independent einsum filter, which
lives with them in ``tests/einsum_oracle.py``.  :func:`real_filter` gives
the homodyne filter on real coordinates, which the runner steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import NonRealInnovationError
from .filter_generic import SLHModel

# Block order of the packed state and the powers of the xi polynomial.
B11, B10, B01, B00 = range(4)
ONE, XI, CXI, AXI2 = range(4)

# Rows of the readout matrix: pi^{ij}(X), "a" being the annihilation
# operator.  The runner reads the first two, which are real (X Hermitian):
# n11, the photon number, and its residual pi11(I) - 1.  a01 gives the
# master equation's no-count probability (verify and the tests).
READOUTS = ("n11", "i11", "a01")


@dataclass(frozen=True)
class CompiledFilter:
    """Packed maps of one (S, L, H) model on N state entries (4 D^2 as compiled)."""

    drift: np.ndarray      # (4, N, N)
    diffusion: np.ndarray  # (4, N, N), without the -K x term
    k: np.ndarray          # (4, N)
    readout: np.ndarray    # (len(READOUTS), N), real
    initial: np.ndarray    # (N,) vacuum cavity: rho11 = rho00 = |0><0|


def _superop(dim: int, terms) -> np.ndarray:
    """Sum of ``w_p * A rho_src B`` into block ``dst`` for (p, dst, src, A, B)."""
    n = dim * dim
    out = np.zeros((4, 4 * n, 4 * n), dtype=np.complex128)
    for p, dst, src, a, b in terms:
        out[p, dst * n:(dst + 1) * n, src * n:(src + 1) * n] += np.kron(b.T, a)
    return out


def _row(dim: int, terms) -> np.ndarray:
    """Sum of ``w_p * tr(rho_src X)`` for (p, src, X)."""
    n = dim * dim
    out = np.zeros((4, 4 * n), dtype=np.complex128)
    for p, src, x in terms:
        out[p, src * n:(src + 1) * n] += x.ravel()
    return out


def compile_filter(model: SLHModel) -> CompiledFilter:
    """Compile the drift, diffusion and K maps of ``model``."""
    dim = model.dim
    S, L, H = (np.asarray(v, dtype=np.complex128) for v in (model.S, model.L, model.H))
    Sd, Ld = S.conj().T, L.conj().T
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
        (CXI, B11, B01, L, Sd), (CXI, B11, B01, -eye, Sd @ L),
        (XI, B11, B10, S, Ld), (XI, B11, B10, -Ld @ S, eye),
        (AXI2, B11, B00, S, Sd), (AXI2, B11, B00, -eye, eye),
        (CXI, B10, B00, L, Sd), (CXI, B10, B00, -eye, Sd @ L),
        (XI, B01, B00, S, Ld), (XI, B01, B00, -Ld @ S, eye),
    ])
    diffusion = _superop(dim, [
        *(t for blk in range(4) for t in ((ONE, blk, blk, L, eye), (ONE, blk, blk, eye, Ld))),
        (CXI, B11, B01, eye, Sd), (XI, B11, B10, S, eye),
        (CXI, B10, B00, eye, Sd), (XI, B01, B00, S, eye),
    ])
    k = _row(dim, [(ONE, B11, L + Ld), (CXI, B10, Sd), (XI, B01, S)])

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


def real_filter(f: CompiledFilter, on: np.ndarray) -> CompiledFilter:
    """The homodyne filter ``f`` on real coordinates of its entries ``on``.

    The adjoint takes entry (block, i, j) to its mirror (block with 10 and 01
    swapped, j, i), and every state of the filter is its own adjoint: a
    self-mirrored entry is real and a mirror pair a < b holds (z, conj z).
    The coordinates are Re x at a self entry, Re x_a at a and Im x_a at b, so
    x = B u with x_a = u_a + i u_b and x_b = u_a - i u_b.  A map F becomes
    u -> T F B u by index arithmetic: column a of F B is F[:, a] + F[:, b]
    and column b is i (F[:, a] - F[:, b]); T keeps the real parts of rows a
    and of the self rows, and puts Im of row a at b.  The polynomials regroup
    on (1, Re xi, Im xi, |xi|^2) with G1 = F1 + F2 and G2 = i (F1 - F2)
    (:func:`evaluate` with ``real``).  Returns the real drift, diffusion, k
    row, n11 and i11 readouts and initial state.  Raises
    :class:`NonRealInnovationError` unless the self rows' imaginary parts,
    the mismatches between mirror rows and the imaginary parts of k and the
    readouts are exactly 0, so K and the photon number are real throughout.
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

    def regroup(p):  # on (1, Re xi, Im xi, |xi|^2)
        return np.stack([p[ONE], p[XI] + p[CXI], 1j * (p[XI] - p[CXI]), p[AXI2]])

    drift, diffusion = (rows(columns(regroup(p)[:, on]), what)
                        for p, what in ((f.drift, "drift"), (f.diffusion, "diffusion")))
    k, readout = (checked(w, np.abs(w.imag).max(), what)
                  for w, what in ((columns(regroup(f.k)), "K row"),
                                  (columns(f.readout[:2]), "readout")))
    initial = rows(f.initial[on, None], "initial state")[:, 0]
    return CompiledFilter(drift, diffusion, k, readout, initial)


def evaluate(poly: np.ndarray, xi, *, real: bool = False) -> np.ndarray:
    """F0 + xi F1 + xi* F2 + |xi|^2 F3 at every entry of ``xi`` (a scalar or
    an array): shape xi.shape + poly.shape[1:], from one product.  With
    ``real``, the weights are (1, Re xi, Im xi, |xi|^2), those of the
    polynomials of :func:`real_filter`."""
    z = np.asarray(xi, dtype=np.complex128)
    lin = (z.real, z.imag) if real else (z, z.conj())
    weights = np.stack([np.ones_like(lin[0]), *lin, np.abs(z) ** 2], axis=-1)
    return (weights @ poly.reshape(4, -1)).reshape(z.shape + poly.shape[1:])
