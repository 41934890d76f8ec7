import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import einsum_oracle as eo
from helpers import creation, evaluate_powers, jump_gain
from photonfilter import filter_moments as fm
from photonfilter import operators as ops
from photonfilter import sde_engine as se
from photonfilter.config import SimConfig
from photonfilter.filter_generic import SLHModel
from photonfilter.wavepacket import Wavepacket, xi

KAPPA = 0.1
GAMMA = 0.1
SQ = np.sqrt(GAMMA)
F2 = fm.compile_filter(SLHModel.cavity(2, KAPPA))
FJ2 = jump_gain(SLHModel.cavity(2, KAPPA))


def read(f, x, name):
    """pi^{ij}(X) of a packed state of ``f``, named like ``fm.READOUTS``: X is
    n, i (the identity) or d (a^dag) by the first letter, ij the rest."""
    dim = math.isqrt(f.initial.size // 4)
    x_op = {"n": ops.number_op, "i": np.eye, "d": creation}[name[0]](dim)
    blk = {"11": fm.B11, "10": fm.B10, "01": fm.B01, "00": fm.B00}[name[1:]]
    return fm._row(dim, [(fm.ONE, blk, x_op)])[fm.ONE] @ x


def nu(f, fj, z, x):
    """The jump intensity: pi11(I) of the jump gain ``fj``."""
    return read(f, evaluate_powers(fj, z) @ x, "i11")


def pack(state):
    """Packed (N, ...) vector of a (stacked) einsum filter state."""
    blocks = [np.swapaxes(r, -1, -2) for r in (state.rho11, state.rho10, state.rho01, state.rho00)]
    flat = np.concatenate([b.reshape(*b.shape[:-2], -1) for b in blocks], axis=-1)
    return np.moveaxis(flat, -1, 0)


def unpack(x, dim):
    """The einsum filter state of a packed (N, ...) vector."""
    n = dim * dim
    return eo.GenericFilterState(*(
        np.swapaxes(np.moveaxis(x[b * n:(b + 1) * n], 0, -1).reshape(*x.shape[1:], dim, dim), -1, -2)
        for b in range(4)
    ))


def test_init_moments():
    x = F2.initial
    assert read(F2, x, "i11") == 1.0 and read(F2, x, "i00") == 1.0
    assert read(F2, x, "n11") == 0.0 and read(F2, x, "i10") == 0.0
    # |0><0| in the 11 and 00 blocks, nothing else
    assert np.count_nonzero(x) == 2


def test_hand_euler_step_ad10():
    # one drift step at the onset moves pi10(a^dag) by -sqrt(kappa) xi* dt
    x = F2.initial + fm.evaluate(F2.drift, SQ) @ F2.initial * 1e-3
    assert read(F2, x, "d10") == pytest.approx(-np.sqrt(KAPPA) * SQ * 1e-3)


def test_undriven_decay_matches_exponential():
    # xi = 0 forever: n11(t) = n11(0) exp(-kappa t) within O(dt)
    dt = 1e-3
    x = pack(eo.GenericFilterState(
        np.diag([0.5, 0.5]).astype(complex), np.zeros((2, 2), complex),
        np.zeros((2, 2), complex), np.diag([1.0, 0.0]).astype(complex),
    ))
    fd = fm.evaluate(F2.drift, 0.0)
    for _ in range(2000):
        x = x + fd @ x * dt
    exact = 0.5 * np.exp(-KAPPA * 2.0)
    assert read(F2, x, "n11").real == pytest.approx(exact, abs=5e-5)


def test_moment_k_matches_generic():
    model = SLHModel.cavity(2, KAPPA)
    state = eo.init_filter(np.eye(2)[0])
    state.rho11 = np.array([[0.7, 0.3], [0.3, 0.3]], dtype=complex)
    k = fm.evaluate(F2.k, 0.0) @ pack(state)
    assert k.real == pytest.approx(eo.k_t(state, model, 0.0))
    assert k.real == pytest.approx(2.0 * np.sqrt(KAPPA) * 0.3)


def test_moment_nu_at_onset():
    assert nu(F2, FJ2, SQ, F2.initial).real == pytest.approx(GAMMA)


def test_jump_consumes_photon():
    # the count leaves the cavity in vacuum with the photon gone: the
    # post-jump state neither drifts nor counts again, at any truncation
    dt = 1e-3
    w = Wavepacket(GAMMA, 0.0)
    for dim in (2, 3, 4):
        for delta in (0.0, 0.7):
            model = SLHModel.cavity(dim, KAPPA, delta)
            f, fj = fm.compile_filter(model), jump_gain(model)
            x = f.initial
            for k in range(2000):
                z = xi(w, k * dt)
                comp = evaluate_powers(fj, z) @ x - nu(f, fj, z, x).real * x
                x = x + (fm.evaluate(f.drift, z) @ x - comp) * dt
            z = xi(w, 2.0)
            post = evaluate_powers(fj, z) @ x / nu(f, fj, z, x).real
            assert abs(read(f, post, "i00")) <= 1e-12
            assert abs(read(f, post, "n11")) <= 1e-12
            assert read(f, post, "i11").real == pytest.approx(1.0, abs=1e-9)
            for later in (z, xi(w, 5.0)):
                assert abs(nu(f, fj, later, post)) <= 1e-12
                assert np.abs(fm.evaluate(f.drift, later) @ post).max() <= 1e-12


def test_jump_rejected_at_zero_intensity():
    # uniforms of 1 count as soon as the probability s of no count falls
    # below 1, yet nothing counts before the photon arrives: every
    # trajectory counts at the first row after t0
    cfg = SimConfig(t0=1.0, t_end=2.0, dt=1e-2, detector="photocount")
    stats = se.count_photons(cfg, noise=np.ones(3))
    assert stats.count_times.tolist() == [pytest.approx(1.01)] * 3


@pytest.mark.parametrize("name", ["drift", "diffusion", "jump_gain", "k"])
def test_evaluate_batch_matches_single(name):
    # one product over a run of real xi gives each map as the polynomial
    # sum_p xi^p F_p does, and as evaluated at that xi alone: the compiled
    # maps are affine in xi, the jump gain quadratic (three powers, as the
    # master path's RK4 maps)
    model = SLHModel.cavity(2, KAPPA, 0.05)
    poly = jump_gain(model) if name == "jump_gain" else getattr(fm.compile_filter(model), name)
    assert len(poly) == (3 if name == "jump_gain" else 2)
    xis = np.random.default_rng(0).standard_normal((2, 3))
    batch = fm.evaluate(poly, xis)
    assert batch.shape == xis.shape + poly.shape[1:]
    for z, got in zip(xis.ravel(), batch.reshape(-1, *poly.shape[1:])):
        want = sum(z ** p * f for p, f in enumerate(poly))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        np.testing.assert_allclose(fm.evaluate(poly, float(z)), want, rtol=0, atol=1e-14)


def test_scalar_steps_match_generic_filter():
    # one shared homodyne noise path: the compiled maps stepped by hand vs
    # the operator filter at D=2, record and photon number at every step
    rng = np.random.default_rng(42)
    dt = 1e-3
    model = SLHModel.cavity(2, KAPPA)
    gst = eo.init_filter(np.eye(2)[0])
    x = F2.initial
    w = Wavepacket(GAMMA, 0.5)
    n_op = ops.number_op(2)
    for k in range(3000):
        z = complex(xi(w, k * dt))
        dw = rng.standard_normal() * np.sqrt(dt)
        gst, dy_g = eo.homodyne_step(gst, model, z, dt, dw)
        kk = (fm.evaluate(F2.k, z) @ x).real
        x = x + fm.evaluate(F2.drift, z) @ x * dt + (fm.evaluate(F2.diffusion, z) @ x - kk * x) * dw
        assert abs(dy_g - (kk * dt + dw)) <= 1e-12
        assert abs(gst.pi("11", n_op) - read(F2, x, "n11")) <= 1e-12


def _random_model(rng, dim):
    """A random (L, H): any L, Hermitian H."""
    z = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
    return SLHModel(L=0.3 * z[0], H=0.2 * (z[1] + z[1].conj().T))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_any_model_conserves_trace(dim, seed):
    # with no scattering the maps of any (L, H) keep pi11(I) = 1 at any
    # real xi: i11 . x0 = 1, i11 . Fd = 0 and i11 . Fg = k, power by power
    f = fm.compile_filter(_random_model(np.random.default_rng(seed), dim))
    assert fm.i11_residue(f) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    kappa=st.floats(0.01, 2.0),
    delta=st.floats(-1.0, 1.0),
    z=st.floats(-1.0, 1.0),
    dim=st.sampled_from([2, 3]),
    general=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_maps_match_einsum(kappa, delta, z, dim, general, seed):
    # at a real xi, where the compiled maps' xi and xi* terms share a power
    rng = np.random.default_rng(seed)
    model = _random_model(rng, dim) if general else SLHModel.cavity(dim, kappa, delta)
    f, fj = fm.compile_filter(model), jump_gain(model)
    batch = 3

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    # the linear maps on an arbitrary stacked state
    x = rng.normal(size=(4 * dim * dim, batch)) + 1j * rng.normal(size=(4 * dim * dim, batch))
    state = unpack(x, dim)
    close(fm.evaluate(f.drift, z) @ x, pack(eo.GenericFilterState(*eo._drifts(state, model, z))))
    close(evaluate_powers(fj, z) @ x, pack(eo.GenericFilterState(*eo._jump_gains(state, model, z))))

    # K, nu and the diffusion on a state for which K and nu are real and
    # nu >= 0: rho^{ij} = |psi_j><psi_i| for random kets psi_1, psi_0
    psi = rng.normal(size=(2, batch, dim)) + 1j * rng.normal(size=(2, batch, dim))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    outer = lambda a, b: np.einsum("mi,mj->mij", a, b.conj())  # noqa: E731
    phys = eo.GenericFilterState(outer(psi[0], psi[0]), outer(psi[1], psi[0]),
                                 outer(psi[0], psi[1]), outer(psi[1], psi[1]))
    y = pack(phys)
    k = fm.evaluate(f.k, z) @ y
    close(k, eo.k_t(phys, model, z))
    close(nu(f, fj, z, y), eo.nu_t(phys, model, z))
    # the homodyne dW-coefficients are the step at dW = 1 minus the one at dW = 0
    unit, _ = eo.homodyne_step(phys, model, z, 1.0, np.ones(batch))
    base, _ = eo.homodyne_step(phys, model, z, 1.0, np.zeros(batch))
    close(fm.evaluate(f.diffusion, z) @ y - k.real * y, pack(unit) - pack(base))
