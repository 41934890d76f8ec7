"""Operator-basis single-photon filter for an arbitrary (L, H) system with no
scattering (S = I), stepped by einsum: the independent oracle the compiled
filter is tested against.

The filter state carries four DxD coefficient matrices rho^{ij} such that
the conditional expectation of any operator X is

    pi^{ij}(X) = trace(rho^{ij} X),    ij in {11, 10, 01, 00}.

Updating pi^{ij}(E) for every basis operator E = |m><n| is equivalent to
updating the coefficient matrices with the adjoints of the maps appearing
in the hierarchy, e.g. trace(rho * LX) = trace(Lind(rho) * X) with Lind the
usual Lindblad superoperator.  That adjoint form is what is implemented
below; it is exact, not an approximation.

The oracle and :mod:`photonfilter.filter_moments` are kept deliberately
independent: the compiled maps are built from (L, H) by Kronecker
products, never by probing the step functions here.  The two share only the
model type, the grid, the wavepacket and the bound on the imaginary part of K.

All step functions accept stacked states: the rho arrays may carry leading
batch dimensions (..., D, D), with dW / jump supplied per batch element.
:func:`einsum_block` steps a block of trajectories on a run's grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from photonfilter import wavepacket as wp
from photonfilter.errors import FilterDivergenceError, NonRealInnovationError, PhotonFilterError
from photonfilter.filter_generic import SLHModel

# Jump intensities in [-_NU_EPS, 0) are rounding noise and clamp to zero;
# well below the discretization floor the filter has diverged.  The floor
# scales with dt because the exact no-jump intensity touches zero
# quadratically (source/cavity interference) and Euler undershoots it by
# O(dt) there.
_NU_EPS = 1e-10
_NU_ERR = 1e-6
# Imaginary residue of K_t and nu_t: dropped up to _IM_ERR, a hard error
# above it (it signals an index-ordering bug).
_IM_ERR = 1e-6


class InvalidJumpError(PhotonFilterError):
    """A detection jump was requested while the jump intensity is (numerically) zero."""


def _adj(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def nu_floor(dt: float | None = None) -> float:
    return _NU_ERR if dt is None else max(_NU_ERR, 0.1 * dt)


@dataclass
class GenericFilterState:
    """Coefficient matrices of the four-component hierarchy."""

    rho11: np.ndarray
    rho10: np.ndarray
    rho01: np.ndarray
    rho00: np.ndarray

    @property
    def dim(self) -> int:
        return self.rho11.shape[-1]

    def pi(self, which: str, x: np.ndarray):
        """Conditional expectation pi^{which}(X) = trace(rho_which X)."""
        rho = getattr(self, "rho" + which)
        return np.einsum("...ij,ji->...", rho, np.asarray(x))


def init_filter(eta: np.ndarray) -> GenericFilterState:
    """Initial state for cavity ket |eta>: rho11 = rho00 = |eta><eta|, rho10 = rho01 = 0."""
    eta = np.asarray(eta, dtype=np.complex128)
    norm2 = float(np.vdot(eta, eta).real)
    if abs(norm2 - 1.0) > 1e-12:
        raise ValueError(f"initial ket is not normalized: |eta|^2 = {norm2!r}")
    proj = np.outer(eta, eta.conj())
    zero = np.zeros_like(proj)
    return GenericFilterState(proj.copy(), zero.copy(), zero.copy(), proj.copy())


def _tr(rho: np.ndarray, x: np.ndarray):
    return np.einsum("...ij,ji->...", rho, x)


def _real_guard(value, label: str):
    """Truncate a tiny imaginary residue; flag anything above _IM_ERR."""
    value = np.asarray(value)
    im = np.abs(value.imag)
    worst = float(im.max()) if im.ndim else float(im)
    if worst > _IM_ERR:
        raise NonRealInnovationError(f"{label} has imaginary part {worst:.3e} > {_IM_ERR:g}")
    return value.real


def k_t(state: GenericFilterState, m: SLHModel, xi: complex):
    """Homodyne innovation gain K_t = pi11(L + L^dag) + pi10(I) xi* + pi01(I) xi."""
    eye = np.eye(m.dim)
    val = (
        _tr(state.rho11, m.L + _adj(m.L))
        + _tr(state.rho10, eye) * np.conj(xi)
        + _tr(state.rho01, eye) * xi
    )
    return _real_guard(val, "K_t")


def nu_t(state: GenericFilterState, m: SLHModel, xi: complex, dt: float | None = None):
    """Jump intensity nu_t >= 0 (tiny negative values clamp to zero).

    Passing the integrator step relaxes the strong-negativity floor to the
    expected Euler undershoot near the interference zero of the intensity.
    """
    ld = _adj(m.L)
    val = (
        _tr(state.rho11, ld @ m.L)
        + _tr(state.rho01, m.L) * np.conj(xi)
        + _tr(state.rho10, ld) * xi
        + _tr(state.rho00, np.eye(m.dim)) * (abs(xi) ** 2)
    )
    nu = np.asarray(_real_guard(val, "nu_t"))
    low = float(nu.min()) if nu.ndim else float(nu)
    if low < -nu_floor(dt):
        raise FilterDivergenceError(f"jump intensity nu_t = {low:.3e} strongly negative")
    nu = np.where(nu < 0.0, 0.0, nu)
    return nu if nu.ndim else float(nu)


def _lindblad(rho: np.ndarray, m: SLHModel) -> np.ndarray:
    ld = _adj(m.L)
    ldl = ld @ m.L
    return (
        -1j * (m.H @ rho - rho @ m.H)
        + m.L @ rho @ ld
        - 0.5 * (ldl @ rho + rho @ ldl)
    )


def _drifts(state: GenericFilterState, m: SLHModel, xi: complex):
    """dt-coefficients of the hierarchy (shared by both detection schemes).

    With S = I the |xi|^2 term of a11, S rho00 S^dag - rho00, is 0."""
    L = m.L
    ld = _adj(L)
    cxi = np.conj(xi)
    a11 = (
        _lindblad(state.rho11, m)
        + (L @ state.rho01 - state.rho01 @ L) * cxi
        + (state.rho10 @ ld - ld @ state.rho10) * xi
    )
    a10 = _lindblad(state.rho10, m) + (L @ state.rho00 - state.rho00 @ L) * cxi
    a01 = _lindblad(state.rho01, m) + (state.rho00 @ ld - ld @ state.rho00) * xi
    a00 = _lindblad(state.rho00, m)
    return a11, a10, a01, a00


def _check_finite(rho: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(rho)):
        raise FilterDivergenceError(f"filter state diverged ({label})")


def homodyne_step(
    state: GenericFilterState, m: SLHModel, xi: complex, dt: float, dW
):
    """One Euler-Maruyama step of the homodyne hierarchy.

    Returns the advanced state and the measurement increment
    dY = K_t dt + dW.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    L = m.L
    ld = _adj(L)
    cxi = np.conj(xi)
    k = k_t(state, m, xi)
    kb = np.asarray(k)[..., None, None]
    dwb = np.asarray(dW)[..., None, None]
    a11, a10, a01, a00 = _drifts(state, m, xi)
    g11 = L @ state.rho11 + state.rho11 @ ld + state.rho01 * cxi + state.rho10 * xi - state.rho11 * kb
    g10 = L @ state.rho10 + state.rho10 @ ld + state.rho00 * cxi - state.rho10 * kb
    g01 = L @ state.rho01 + state.rho01 @ ld + state.rho00 * xi - state.rho01 * kb
    g00 = L @ state.rho00 + state.rho00 @ ld - state.rho00 * kb
    new = GenericFilterState(
        state.rho11 + a11 * dt + g11 * dwb,
        state.rho10 + a10 * dt + g10 * dwb,
        state.rho01 + a01 * dt + g01 * dwb,
        state.rho00 + a00 * dt + g00 * dwb,
    )
    _check_finite(new.rho11, "homodyne step")
    return new, k * dt + dW


def _jump_gains(state: GenericFilterState, m: SLHModel, xi: complex):
    """Un-normalized dN-coefficients (the nu^-1 factor is applied by the caller)."""
    L = m.L
    ld = _adj(L)
    cxi = np.conj(xi)
    ax2 = abs(xi) ** 2
    g11 = (
        L @ state.rho11 @ ld
        + L @ state.rho01 * cxi
        + state.rho10 @ ld * xi
        + state.rho00 * ax2
    )
    g10 = L @ state.rho10 @ ld + L @ state.rho00 * cxi
    g01 = L @ state.rho01 @ ld + state.rho00 @ ld * xi
    g00 = L @ state.rho00 @ ld
    return g11, g10, g01, g00


def photocount_step(
    state: GenericFilterState, m: SLHModel, xi: complex, dt: float, jump
) -> GenericFilterState:
    """One step of the photon-counting hierarchy.

    Between jumps the compensated drift A - B nu is applied; a jump step
    applies the pure nu^-1-weighted reset (its O(dt) drift contribution is
    dropped so the collapse is exact).  Jumps are forbidden while nu < 1e-10.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    nu = np.asarray(nu_t(state, m, xi, dt))
    jump = np.asarray(jump)
    active = nu >= _NU_EPS
    if np.any(jump & ~active):
        raise InvalidJumpError("jump requested while nu_t < 1e-10")
    a11, a10, a01, a00 = _drifts(state, m, xi)
    g11, g10, g01, g00 = _jump_gains(state, m, xi)
    nub = nu[..., None, None]
    actb = active[..., None, None]
    jmpb = jump[..., None, None]
    nu_safe = np.where(nub == 0.0, 1.0, nub)
    rhos = []
    for rho, a, g in (
        (state.rho11, a11, g11),
        (state.rho10, a10, g10),
        (state.rho01, a01, g01),
        (state.rho00, a00, g00),
    ):
        comp = np.where(actb, g - rho * nub, 0.0)
        base = rho + (a - comp) * dt
        rhos.append(np.where(jmpb, g / nu_safe, base))
    new = GenericFilterState(*rhos)
    _check_finite(new.rho11, "photocount step")
    return new


def einsum_block(cfg, detector, noise):
    """Step ``noise.shape[1]`` trajectories; returns (n series, record, jump times).

    ``noise`` (steps x m) holds Wiener increments for homodyne detection and
    uniforms for photon counting.  The block shares with the compiled runner
    only the grid and the wavepacket, and takes the noise as given.  It
    counts when the step's uniform falls below nu * dt after an Euler
    no-jump step; the runner draws one uniform per trajectory and inverts
    the probability of no count.
    """
    times = cfg.times()
    xis = wp.xi(wp.Wavepacket(cfg.gamma, cfg.t0), times[:-1])
    dim = cfg.fock_dim
    model = SLHModel.cavity(dim, cfg.kappa, cfg.delta)
    n_op = np.diag(np.arange(dim, dtype=np.complex128))
    m = noise.shape[1]
    vac = init_filter(np.eye(dim)[0])
    state = GenericFilterState(
        *(np.broadcast_to(r, (m, dim, dim)).copy()
          for r in (vac.rho11, vac.rho10, vac.rho01, vac.rho00))
    )
    series = np.empty((times.size, m))
    record = np.zeros((times.size, m))
    jumps = [[] for _ in range(m)]
    series[0] = state.pi("11", n_op).real
    for k, xi in enumerate(xis):
        if detector == "homodyne":
            state, record[k + 1] = homodyne_step(state, model, xi, cfg.dt, noise[k])
        else:
            nu = np.asarray(nu_t(state, model, xi, cfg.dt))
            jump = (nu >= _NU_EPS) & (noise[k] < nu * cfg.dt)
            state = photocount_step(state, model, xi, cfg.dt, jump)
            for j in np.nonzero(jump)[0]:
                jumps[j].append(float(times[k + 1]))
            record[k + 1] = record[k] + jump
        series[k + 1] = state.pi("11", n_op).real
    return series, record, jumps
