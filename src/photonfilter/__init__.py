"""Photon-number estimation for a one-sided cavity driven by a single photon.

Stochastic filtering (homodyne and photon-counting unravelings) of the
conditional cavity state, plus the deterministic master-equation reference
and ensemble-comparison tooling.
"""

from .config import SimConfig
from .filter_generic import SLHModel
from .filter_moments import CompiledFilter, compile_filter
from .master_ensemble import (
    EnsembleStats,
    SeriesND,
    analytic_mean_photon_series,
    integrate_master,
    run_ensemble,
)
from .sde_engine import SimGrid, Trajectory, simulate_trajectory
from .wavepacket import Wavepacket

__version__ = "0.1.0"

__all__ = [
    "SimConfig",
    "SLHModel",
    "CompiledFilter",
    "compile_filter",
    "EnsembleStats",
    "SeriesND",
    "analytic_mean_photon_series",
    "integrate_master",
    "run_ensemble",
    "SimGrid",
    "Trajectory",
    "simulate_trajectory",
    "Wavepacket",
    "__version__",
]
