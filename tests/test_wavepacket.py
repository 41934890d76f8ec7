import numpy as np
import pytest
from scipy.integrate import quad

from photonfilter import wavepacket as wp
from photonfilter.errors import DepletedSourceError


@pytest.fixture
def pulse():
    return wp.Wavepacket(gamma=0.1, t0=3.0)


def test_xi_at_onset(pulse):
    assert wp.xi(pulse, 3.0) == pytest.approx(np.sqrt(0.1))


def test_xi_two_lifetimes_later(pulse):
    # t - t0 = 2/gamma gives one e-fold of the amplitude
    assert wp.xi(pulse, 23.0) == pytest.approx(np.sqrt(0.1) * np.exp(-1.0))


def test_xi_zero_before_onset(pulse):
    assert wp.xi(pulse, 2.999) == 0.0
    assert wp.xi(pulse, -50.0) == 0.0


def test_xi_array_matches_scalar(pulse):
    ts = np.linspace(0.0, 40.0, 401)
    arr = wp.xi(pulse, ts)
    scal = np.array([wp.xi(pulse, float(t)) for t in ts])
    np.testing.assert_array_equal(arr, scal)


def test_xi_unit_l2_norm(pulse):
    norm, _ = quad(lambda s: abs(wp.xi(pulse, s)) ** 2, 0.0, 300.0, limit=200)
    assert norm == pytest.approx(1.0, abs=1e-9)


def test_tail_norm_values(pulse):
    assert wp.tail_norm(pulse, 3.0) == 1.0
    assert wp.tail_norm(pulse, 1.0) == 1.0
    assert wp.tail_norm(pulse, 13.0) == pytest.approx(np.exp(-1.0))
    assert wp.tail_norm(pulse, 1e6) == pytest.approx(0.0, abs=1e-300)


def test_tail_norm_derivative_is_minus_xi_squared(pulse):
    ts = np.arange(0.0, 40.0, 1e-3)
    tail = np.asarray(wp.tail_norm(pulse, ts))
    deriv = np.gradient(tail, 1e-3)
    target = -np.abs(np.asarray(wp.xi(pulse, ts))) ** 2
    # away from the onset kink the central difference is clean
    interior = (ts < 2.99) | (ts > 3.01)
    assert np.abs(deriv - target)[interior].max() <= 1e-6


def test_source_coupling_constant_after_onset(pulse):
    assert wp.source_coupling(pulse, 3.0) == pytest.approx(np.sqrt(0.1))
    assert wp.source_coupling(pulse, 13.0) == pytest.approx(np.sqrt(0.1))
    assert wp.source_coupling(pulse, 1.0) == 0.0


def test_source_coupling_depletes(pulse):
    with pytest.raises(DepletedSourceError):
        wp.source_coupling(pulse, 3.0 + 300.0)


def test_wavepacket_validation():
    with pytest.raises(ValueError):
        wp.Wavepacket(gamma=0.0)
