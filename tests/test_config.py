import pytest

from photonfilter.config import SimConfig


def test_rejects_photon_before_grid_start():
    # the grid starts at 0, so a photon switched on earlier would be lost
    with pytest.raises(ValueError, match="t0"):
        SimConfig(t0=-20.0)
    assert SimConfig(t0=0.0).t0 == 0.0
