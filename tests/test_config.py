import pytest

from photonfilter.config import SimConfig


def test_rejects_photon_before_grid_start():
    # the grid starts at 0, so a photon switched on earlier would be lost
    with pytest.raises(ValueError, match="t0"):
        SimConfig(t0=-20.0)
    assert SimConfig(t0=0.0).t0 == 0.0


def test_rejects_empty_cavity():
    # at D = 1 the annihilation operator is 0 and the cavity never holds the photon
    with pytest.raises(ValueError, match="fock_dim"):
        SimConfig(fock_dim=1)
    assert SimConfig(fock_dim=2).fock_dim == 2


def test_photon_counting_samples_closed_form():
    # --engine selects the homodyne filter; photon counting has one sampler
    with pytest.raises(ValueError, match="photon counting samples the exact closed form"):
        SimConfig(engine="generic", detector="photocount")
    assert SimConfig(engine="generic").detector == "homodyne"
    assert SimConfig(detector="photocount").engine == "cascade"
