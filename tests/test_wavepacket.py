import numpy as np
import pytest

from photonfilter import wavepacket as wp


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
    # Gauss-Legendre on [t0, 300]: xi vanishes before t0, and the tail
    # beyond 300 holds e^-29.7 of the norm
    x, wts = np.polynomial.legendre.leggauss(100)
    half = 0.5 * (300.0 - pulse.t0)
    norm = half * wts @ np.abs(wp.xi(pulse, pulse.t0 + half * (x + 1.0))) ** 2
    assert norm == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kappa,delta", [(0.1, 0.0), (0.3, 0.7)])
def test_cavity_amplitude_quadrature(pulse, kappa, delta):
    # beta = -sqrt(kappa) integral_{t0}^{t} exp(-c (t - s)) xi(s) ds, c = i delta + kappa/2,
    # by Gauss-Legendre quadrature; the first case is the matched pulse, z = 0
    ts = np.array([0.0, 3.0, 4.5, 13.0, 23.0, 77.0])
    c = 1j * delta + 0.5 * kappa
    x, wts = np.polynomial.legendre.leggauss(100)
    half = 0.5 * np.clip(ts - pulse.t0, 0.0, None)
    s = pulse.t0 + half[:, None] * (x + 1.0)
    expect = -np.sqrt(kappa) * (np.exp(-c * (ts[:, None] - s)) * wp.xi(pulse, s)) @ wts * half
    np.testing.assert_allclose(wp.cavity_amplitude(pulse, kappa, delta, ts), expect,
                               rtol=0, atol=1e-12)


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


def test_wavepacket_validation():
    with pytest.raises(ValueError):
        wp.Wavepacket(gamma=0.0)


def test_cavity_amplitude_tracks_slower_decay():
    # kappa > gamma: beta decays as the wavepacket does, and |beta|^2 / tail
    # tends to kappa gamma / |z|^2 = 0.6.  Written as exp(-c tau) times
    # expm1(z tau) it read 2.50 at tau = 4,956 and 0 from 4,957 on
    kappa, gamma, delta = 0.3, 0.1, 0.2
    w = wp.Wavepacket(gamma)
    z = complex(0.5 * (kappa - gamma), delta)
    tau = np.array([4956.0, 6000.0])
    ratio = np.abs(wp.cavity_amplitude(w, kappa, delta, tau)) ** 2 / wp.tail_norm(w, tau)
    np.testing.assert_allclose(ratio, kappa * gamma / abs(z) ** 2, rtol=0, atol=1e-12)
    # where both underflow, tail / |beta|^2 keeps its limit |z|^2 / (kappa gamma)
    tau = np.array([1e4, 1e5])
    assert (wp.tail_norm(w, tau) == 0.0).all()
    np.testing.assert_allclose(wp.photon_and_tail_ratio(w, kappa, delta, tau)[1],
                               abs(z) ** 2 / (kappa * gamma), rtol=1e-12, atol=0)


@pytest.mark.parametrize("kappa,delta", [(0.1, 0.0), (0.3, 0.2), (0.05, 0.7)])
def test_photon_and_tail_ratio(pulse, kappa, delta):
    # |beta|^2 to the bit, and the ratio: +inf up to t0, where beta is 0,
    # tail_norm / |beta|^2 where neither underflows
    ts = np.array([0.0, 3.0, 3.001, 13.0, 103.0, 503.0])
    bb, got = wp.photon_and_tail_ratio(pulse, kappa, delta, ts)
    np.testing.assert_array_equal(bb, np.abs(wp.cavity_amplitude(pulse, kappa, delta, ts)) ** 2)
    assert np.isposinf(got[:2]).all()
    np.testing.assert_allclose(got[2:], wp.tail_norm(pulse, ts[2:]) / bb[2:], rtol=1e-12, atol=0)
    # a scalar t gives scalars, as in xi and tail_norm, equal to the arrays' entries
    beta = wp.cavity_amplitude(pulse, kappa, delta, ts)
    for t, *want in zip(ts, beta, bb, got):
        scalars = (wp.cavity_amplitude(pulse, kappa, delta, float(t)),
                   *wp.photon_and_tail_ratio(pulse, kappa, delta, float(t)))
        assert [type(v) for v in scalars] == [np.complex128, np.float64, np.float64]
        assert scalars == tuple(want)

