"""Run configuration shared by the trajectory driver, ensembles, and the CLI."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, asdict

import numpy as np

DETECTORS = ("homodyne", "photocount")
ENGINES = ("cascade", "generic")


@dataclass(frozen=True)
class SimConfig:
    """All parameters of a seeded experiment.

    Defaults reproduce the headline run: kappa = gamma = 0.1, no detuning,
    photon arriving at t0 = 3, horizon t0 + 100 (over ten cavity lifetimes).
    The time grid runs from 0 to ``t_end`` in ``steps`` steps of ``dt``.
    ``engine`` selects the homodyne filter: the pure state of the source
    feeding the cavity (``cascade``, no Fock truncation) or the filter
    compiled from (L, H) at ``fock_dim`` (``generic``).  Photon counting
    samples the exact closed form of the cascade, so it takes ``cascade``.
    """

    kappa: float = 0.1
    gamma: float = 0.1
    delta: float = 0.0
    t0: float = 3.0
    t_end: float = 103.0
    dt: float = 1e-3
    fock_dim: int = 2
    ntraj: int = 100
    seed: int = 1
    engine: str = "cascade"
    detector: str = "homodyne"

    def __post_init__(self) -> None:
        # A nan passes every comparison below; an inf breaks the grid or the model.
        for name in ("kappa", "gamma", "delta", "t0", "t_end", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.t0 < 0:
            # The grid starts at 0: a photon switched on earlier would be
            # partly lost without a trace.
            raise ValueError(f"t0 must be >= 0, got {self.t0}")
        if self.t_end <= self.t0:
            raise ValueError(f"t_end ({self.t_end}) must exceed t0 ({self.t0})")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        steps = self.steps
        if steps < 1:
            raise ValueError(f"grid needs at least one step, t_end={self.t_end}, dt={self.dt}")
        if abs(steps * self.dt - self.t_end) > 1e-12 * max(1.0, self.t_end):
            raise ValueError(f"t_end {self.t_end} is not an integer multiple of dt={self.dt}")
        if self.dt >= 1.0 / (10.0 * max(self.kappa, self.gamma)):
            raise ValueError(
                f"dt = {self.dt} too coarse for rates kappa={self.kappa}, gamma={self.gamma}"
            )
        if self.fock_dim < 2:
            # At D = 1 the annihilation operator is 0: the cavity never holds
            # the photon.
            raise ValueError(f"fock_dim must be >= 2, got {self.fock_dim}")
        if self.ntraj < 1:
            raise ValueError(f"ntraj must be >= 1, got {self.ntraj}")
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # a numpy integer as a Python int, which the outputs' JSON can hold
        object.__setattr__(self, "seed", operator.index(self.seed))
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.detector == "photocount" and self.engine != "cascade":
            raise ValueError(
                f"engine {self.engine!r} is a homodyne filter; photon counting "
                "samples the exact closed form (engine 'cascade')"
            )

    @property
    def steps(self) -> int:
        return round(self.t_end / self.dt)

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)

    def asdict(self) -> dict:
        return asdict(self)
