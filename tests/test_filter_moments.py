import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonfilter import filter_generic as fg
from photonfilter import filter_moments as fm
from photonfilter import operators as ops
from photonfilter import sde_engine as se
from photonfilter.config import SimConfig
from photonfilter.wavepacket import Wavepacket, xi

KAPPA = 0.1
GAMMA = 0.1
SQ = np.sqrt(GAMMA)
F2 = fm.compile_filter(fg.SLHModel.cavity(2, KAPPA))
F2_DETUNED = fm.compile_filter(fg.SLHModel.cavity(2, KAPPA, 0.05))


def read(f, x, name):
    """pi^{ij}(X) of a packed state, by its readout name."""
    return f.readout[fm.READOUTS.index(name)] @ x


def pack(state):
    """Packed (N, ...) vector of a (stacked) einsum filter state."""
    blocks = [np.swapaxes(r, -1, -2) for r in (state.rho11, state.rho10, state.rho01, state.rho00)]
    flat = np.concatenate([b.reshape(*b.shape[:-2], -1) for b in blocks], axis=-1)
    return np.moveaxis(flat, -1, 0)


def unpack(x, dim):
    """The einsum filter state of a packed (N, ...) vector."""
    n = dim * dim
    return fg.GenericFilterState(*(
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
    x = F2.initial + fm.drift_matrix(F2, SQ) @ F2.initial * 1e-3
    assert read(F2, x, "d10") == pytest.approx(-np.sqrt(KAPPA) * SQ * 1e-3)


def test_undriven_decay_matches_exponential():
    # xi = 0 forever: n11(t) = n11(0) exp(-kappa t) within O(dt)
    dt = 1e-3
    x = pack(fg.GenericFilterState(
        np.diag([0.5, 0.5]).astype(complex), np.zeros((2, 2), complex),
        np.zeros((2, 2), complex), np.diag([1.0, 0.0]).astype(complex),
    ))
    fd = fm.drift_matrix(F2, 0.0)
    for _ in range(2000):
        x = x + fd @ x * dt
    exact = 0.5 * np.exp(-KAPPA * 2.0)
    assert read(F2, x, "n11").real == pytest.approx(exact, abs=5e-5)


def test_moment_k_matches_generic():
    model = fg.SLHModel.cavity(2, KAPPA)
    state = fg.init_filter(np.eye(2)[0])
    state.rho11 = np.array([[0.7, 0.3], [0.3, 0.3]], dtype=complex)
    k = fm.k_row(F2, 0.0) @ pack(state)
    assert k.real == pytest.approx(fg.k_t(state, model, 0.0))
    assert k.real == pytest.approx(2.0 * np.sqrt(KAPPA) * 0.3)


def test_moment_nu_at_onset():
    assert (fm.nu_row(F2, SQ) @ F2.initial).real == pytest.approx(GAMMA)


def test_jump_consumes_photon():
    # the count leaves the cavity in vacuum with the photon gone: the
    # post-jump state neither drifts nor counts again, at any truncation
    dt = 1e-3
    w = Wavepacket(GAMMA, 0.0)
    for dim in (2, 3, 4):
        for delta in (0.0, 0.7):
            f = fm.compile_filter(fg.SLHModel.cavity(dim, KAPPA, delta))
            x = f.initial
            for k in range(2000):
                z = xi(w, k * dt)
                nu = (fm.nu_row(f, z) @ x).real
                comp = fm.jump_gain_matrix(f, z) @ x - nu * x
                x = x + (fm.drift_matrix(f, z) @ x - comp) * dt
            z = xi(w, 2.0)
            post = fm.jump_gain_matrix(f, z) @ x / (fm.nu_row(f, z) @ x).real
            assert abs(read(f, post, "i00")) <= 1e-12
            assert abs(read(f, post, "n11")) <= 1e-12
            assert read(f, post, "i11").real == pytest.approx(1.0, abs=1e-9)
            for later in (z, xi(w, 5.0)):
                assert abs(fm.nu_row(f, later) @ post) <= 1e-12
                assert np.abs(fm.drift_matrix(f, later) @ post).max() <= 1e-12


def test_jump_rejected_at_zero_intensity():
    # zero uniforms fire at any positive intensity, yet nothing fires
    # before the photon arrives: every trajectory counts in its first step
    # after t0
    cfg = SimConfig(t0=1.0, t_end=2.0, dt=1e-2, detector="photocount")
    seqs = np.random.SeedSequence(0).spawn(3)
    stats = se.run_block(cfg, "photocount", seed_seqs=seqs, noise=np.zeros((200, 3)))
    assert stats.jump_times == [[pytest.approx(1.01)]] * 3


@pytest.mark.parametrize("factory,args", [
    (fm.drift_matrix, (F2_DETUNED,)),
    (fm.diffusion_matrix, (F2,)),
    (fm.jump_gain_matrix, (F2,)),
    (fm.k_row, (F2,)),
])
def test_inplace_update_matches_fresh(factory, args):
    rng = np.random.default_rng(0)
    xis = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    out = factory(*args, complex(xis[0]))
    for z in xis[1:]:
        factory(*args, complex(z), out=out)
        np.testing.assert_array_equal(out, factory(*args, complex(z)))


def test_scalar_steps_match_generic_filter():
    # one shared homodyne noise path: the compiled maps stepped by hand vs
    # the operator filter at D=2, record and photon number at every step
    rng = np.random.default_rng(42)
    dt = 1e-3
    model = fg.SLHModel.cavity(2, KAPPA)
    gst = fg.init_filter(np.eye(2)[0])
    x = F2.initial
    w = Wavepacket(GAMMA, 0.5)
    n_op = ops.number_op(2)
    for k in range(3000):
        z = complex(xi(w, k * dt))
        dw = rng.standard_normal() * np.sqrt(dt)
        gst, dy_g = fg.homodyne_step(gst, model, z, dt, dw)
        kk = (fm.k_row(F2, z) @ x).real
        x = x + fm.drift_matrix(F2, z) @ x * dt + (fm.diffusion_matrix(F2, z) @ x - kk * x) * dw
        assert abs(dy_g - (kk * dt + dw)) <= 1e-12
        assert abs(gst.pi("11", n_op) - read(F2, x, "n11")) <= 1e-12


def _random_model(rng, dim):
    """A random (S, L, H): unitary S, any L, Hermitian H."""
    z = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    q, r = np.linalg.qr(z[0])
    s = q * (np.diag(r) / np.abs(np.diag(r)))
    return fg.SLHModel(S=s, L=0.3 * z[1], H=0.2 * (z[2] + z[2].conj().T))


@settings(max_examples=40, deadline=None)
@given(
    kappa=st.floats(0.01, 2.0),
    delta=st.floats(-1.0, 1.0),
    xi_re=st.floats(-1.0, 1.0),
    xi_im=st.floats(-1.0, 1.0),
    dim=st.sampled_from([2, 3]),
    general=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_maps_match_einsum(kappa, delta, xi_re, xi_im, dim, general, seed):
    rng = np.random.default_rng(seed)
    model = _random_model(rng, dim) if general else fg.SLHModel.cavity(dim, kappa, delta)
    f = fm.compile_filter(model)
    z = complex(xi_re, xi_im)
    batch = 3

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    # the linear maps on an arbitrary stacked state
    x = rng.normal(size=(4 * dim * dim, batch)) + 1j * rng.normal(size=(4 * dim * dim, batch))
    state = unpack(x, dim)
    close(fm.drift_matrix(f, z) @ x, pack(fg.GenericFilterState(*fg._drifts(state, model, z))))
    close(fm.jump_gain_matrix(f, z) @ x, pack(fg.GenericFilterState(*fg._jump_gains(state, model, z))))

    # K, nu and the diffusion on a state for which K and nu are real and
    # nu >= 0: rho^{ij} = |psi_j><psi_i| for random kets psi_1, psi_0
    psi = rng.normal(size=(2, batch, dim)) + 1j * rng.normal(size=(2, batch, dim))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    outer = lambda a, b: np.einsum("mi,mj->mij", a, b.conj())  # noqa: E731
    phys = fg.GenericFilterState(outer(psi[0], psi[0]), outer(psi[1], psi[0]),
                                 outer(psi[0], psi[1]), outer(psi[1], psi[1]))
    y = pack(phys)
    k = fm.k_row(f, z) @ y
    close(k, fg.k_t(phys, model, z))
    close(fm.nu_row(f, z) @ y, fg.nu_t(phys, model, z))
    # the homodyne dW-coefficients are the step at dW = 1 minus the one at dW = 0
    unit, _ = fg.homodyne_step(phys, model, z, 1.0, np.ones(batch))
    base, _ = fg.homodyne_step(phys, model, z, 1.0, np.zeros(batch))
    close(fm.diffusion_matrix(f, z) @ y - k.real * y, pack(unit) - pack(base))
