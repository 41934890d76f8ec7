"""The einsum oracle of ``einsum_oracle`` and the (L, H) model it steps."""

import numpy as np
import pytest

import einsum_oracle as eo
from einsum_oracle import InvalidJumpError
from helpers import creation
from photonfilter import operators as ops
from photonfilter.config import SimConfig
from photonfilter.errors import FilterDivergenceError, NonRealInnovationError
from photonfilter.filter_generic import SLHModel
from photonfilter.master_ensemble import analytic_mean_photon_series
from photonfilter.wavepacket import Wavepacket, xi

KAPPA = 0.1
GAMMA = 0.1


@pytest.fixture
def cavity():
    return SLHModel.cavity(2, KAPPA)


def vacuum_state(dim=2):
    return eo.init_filter(np.eye(dim)[0])


class TestSLHModel:
    def test_cavity_construction(self, cavity):
        np.testing.assert_allclose(cavity.L, np.sqrt(KAPPA) * ops.annihilation(2))
        assert cavity.dim == 2

    def test_rejects_nonhermitian_h(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            SLHModel(L=np.zeros((2, 2)), H=h)

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError):
            SLHModel.cavity(2, -0.1)


class TestInitFilter:
    def test_vacuum_expectations(self):
        st = vacuum_state()
        assert st.pi("11", np.eye(2)) == pytest.approx(1.0)
        assert st.pi("11", ops.number_op(2)) == pytest.approx(0.0)
        np.testing.assert_array_equal(st.rho10, np.zeros((2, 2)))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            eo.init_filter(np.array([1.0, 1.0]))


class TestInnovationGain:
    def test_zero_at_vacuum(self, cavity):
        st = vacuum_state()
        assert eo.k_t(st, cavity, 0.0) == 0.0
        # pi10(I) = pi01(I) = 0 initially, so any real xi still gives 0
        assert eo.k_t(st, cavity, np.sqrt(GAMMA)) == 0.0

    def test_hand_value(self, cavity):
        # pi11(a) = pi11(a^dag) = 0.3 -> K = 2 sqrt(kappa) * 0.3
        st = vacuum_state()
        st.rho11 = np.array([[0.7, 0.3], [0.3, 0.3]], dtype=complex)
        assert eo.k_t(st, cavity, 0.0) == pytest.approx(2.0 * np.sqrt(KAPPA) * 0.3)

    def test_flags_imaginary_gain(self, cavity):
        st = vacuum_state()
        st.rho11 = np.array([[0.0, 0.3j], [0.3j, 0.0]])
        with pytest.raises(NonRealInnovationError):
            eo.k_t(st, cavity, 0.0)


class TestJumpIntensity:
    def test_at_onset(self, cavity):
        # only the pi00(I)|xi|^2 term survives at t0
        assert eo.nu_t(vacuum_state(), cavity, np.sqrt(GAMMA)) == pytest.approx(GAMMA)

    def test_excited_cavity(self, cavity):
        st = vacuum_state()
        st.rho11 = np.diag([0.0, 1.0]).astype(complex)
        assert eo.nu_t(st, cavity, 0.0) == pytest.approx(KAPPA)

    def test_zero_state(self, cavity):
        st = vacuum_state()
        st.rho11 = np.zeros((2, 2), dtype=complex)
        st.rho00 = np.zeros((2, 2), dtype=complex)
        assert eo.nu_t(st, cavity, 0.0) == 0.0

    def test_small_negative_clamps(self, cavity):
        st = vacuum_state()
        st.rho11 = np.diag([1.0, -1e-7]).astype(complex)
        st.rho00 = np.zeros((2, 2), dtype=complex)
        assert eo.nu_t(st, cavity, 0.0) == 0.0

    def test_strong_negative_raises(self, cavity):
        st = vacuum_state()
        st.rho11 = np.diag([1.0, -0.1]).astype(complex)
        with pytest.raises(FilterDivergenceError):
            eo.nu_t(st, cavity, 0.0)

    def test_floor_scales_with_dt(self, cavity):
        st = vacuum_state()
        st.rho11 = np.diag([1.0, -5e-5]).astype(complex)
        st.rho00 = np.zeros((2, 2), dtype=complex)
        with pytest.raises(FilterDivergenceError):
            eo.nu_t(st, cavity, 0.0)
        # with the step known, -5e-6 is attributed to Euler undershoot
        assert eo.nu_t(st, cavity, 0.0, dt=1e-3) == 0.0


class TestHomodyneStep:
    def test_vacuum_fixed_point_without_drive(self, cavity):
        st = vacuum_state()
        new, dy = eo.homodyne_step(st, cavity, 0.0, 1e-3, 0.0)
        np.testing.assert_allclose(new.rho11, st.rho11, atol=1e-15)
        assert dy == 0.0
        assert new.pi("11", ops.number_op(2)) == pytest.approx(0.0, abs=1e-15)

    def test_hand_euler_step(self, cavity):
        # d pi10(a^dag) = -sqrt(kappa) pi00(I) xi* dt at the initial state
        dt = 1e-3
        new, _ = eo.homodyne_step(vacuum_state(), cavity, np.sqrt(GAMMA), dt, 0.0)
        got = new.pi("10", creation(2))
        assert got == pytest.approx(-np.sqrt(KAPPA) * np.sqrt(GAMMA) * dt)

    def test_drift_only_first_order_accuracy(self, cavity):
        # stepping with dW = 0 is the explicit-Euler mean dynamics; its
        # error against the closed-form mean photon number halves with dt
        cfg = SimConfig(t0=0.0, t_end=4.0)
        w = Wavepacket(GAMMA, 0.0)
        errs = []
        for dt in (0.04, 0.02):
            st = vacuum_state()
            nsteps = int(round(4.0 / dt))
            for k in range(nsteps):
                st, _ = eo.homodyne_step(st, cavity, xi(w, k * dt), dt, 0.0)
            n = st.pi("11", ops.number_op(2)).real
            errs.append(abs(n - analytic_mean_photon_series(cfg, np.array([4.0]))[0]))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.25)

    def test_batched_matches_scalar(self, cavity):
        rng = np.random.default_rng(3)
        st = vacuum_state()
        stacked = eo.GenericFilterState(
            *(np.broadcast_to(r, (4, 2, 2)).copy() for r in
              (st.rho11, st.rho10, st.rho01, st.rho00))
        )
        w = Wavepacket(GAMMA, 0.0)
        dws = rng.standard_normal((20, 4)) * np.sqrt(1e-3)
        singles = [vacuum_state() for _ in range(4)]
        for k in range(20):
            stacked, _ = eo.homodyne_step(stacked, cavity, xi(w, k * 1e-3), 1e-3, dws[k])
            for j in range(4):
                singles[j], _ = eo.homodyne_step(
                    singles[j], cavity, xi(w, k * 1e-3), 1e-3, dws[k, j]
                )
        for j in range(4):
            np.testing.assert_array_equal(stacked.rho11[j], singles[j].rho11)


class TestPhotocountStep:
    def _evolved(self, cavity, nsteps=2000, dt=1e-3):
        w = Wavepacket(GAMMA, 0.0)
        st = vacuum_state()
        for k in range(nsteps):
            st = eo.photocount_step(st, cavity, xi(w, k * dt), dt, False)
        return st

    def test_no_jump_vacuum_invariant(self, cavity):
        st = vacuum_state()
        new = eo.photocount_step(st, cavity, 0.0, 1e-3, False)
        np.testing.assert_allclose(new.rho11, st.rho11, atol=1e-12)

    def test_jump_consumes_photon(self, cavity):
        st = self._evolved(cavity)
        assert eo.nu_t(st, cavity, xi(Wavepacket(GAMMA, 0.0), 2.0)) > 1e-4
        post = eo.photocount_step(st, cavity, xi(Wavepacket(GAMMA, 0.0), 2.0), 1e-3, True)
        # photon observed: the 00 reference empties and the cavity collapses
        assert abs(post.pi("00", np.eye(2))) <= 1e-12
        assert abs(post.pi("11", ops.number_op(2))) <= 1e-12
        assert post.pi("11", np.eye(2)).real == pytest.approx(1.0, abs=1e-9)

    def test_jump_rejected_at_zero_intensity(self, cavity):
        with pytest.raises(InvalidJumpError):
            eo.photocount_step(vacuum_state(), cavity, 0.0, 1e-3, True)

    def test_bad_dt(self, cavity):
        with pytest.raises(ValueError):
            eo.photocount_step(vacuum_state(), cavity, 0.0, -1e-3, False)
