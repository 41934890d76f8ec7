"""Single-photon temporal amplitude and the source-model coupling.

The only shape currently implemented is the decaying exponential emitted by
a two-level atom with decay rate gamma, switched on at t0:

    xi(t) = sqrt(gamma) * exp(-gamma/2 * (t - t0)) * step(t - t0)

which has unit L2 norm.  The amplitude is real for this shape, but every
consumer of xi treats it as complex so other shapes can slot in later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DepletedSourceError

_TAIL_EPS = 1e-12


@dataclass(frozen=True)
class Wavepacket:
    """Parameters of the single-photon temporal amplitude.

    Attributes
    ----------
    gamma : float
        Decay rate of the emitting two-level atom (> 0).
    t0 : float
        Arrival (switch-on) time of the wavepacket.
    """

    gamma: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")


def xi(w: Wavepacket, t):
    """Temporal amplitude xi(t); accepts scalars or numpy arrays.

    Zero before t0, sqrt(gamma) * exp(-gamma/2 (t - t0)) after.
    """
    t = np.asarray(t, dtype=float)
    tau = t - w.t0
    amp = np.where(tau >= 0.0, np.sqrt(w.gamma) * np.exp(-0.5 * w.gamma * np.clip(tau, 0.0, None)), 0.0)
    return amp.astype(np.complex128) if amp.ndim else complex(amp)


def tail_norm(w: Wavepacket, t):
    """Remaining photon content integral(|xi|^2, s=t..inf) in [0, 1]."""
    t = np.asarray(t, dtype=float)
    tau = t - w.t0
    val = np.where(tau <= 0.0, 1.0, np.exp(-w.gamma * np.clip(tau, 0.0, None)))
    return val if val.ndim else float(val)


def source_coupling(w: Wavepacket, t: float) -> complex:
    """Coefficient of sigma_- in the source model: xi(t) / sqrt(tail_norm(t)).

    For the decaying exponential this is 0 before t0 and sqrt(gamma) after.

    Raises
    ------
    DepletedSourceError
        If the remaining tail norm is below 1e-12 (photon fully emitted).
    """
    tail = tail_norm(w, t)
    if tail <= _TAIL_EPS:
        raise DepletedSourceError(
            f"source tail norm {tail:.3e} below {_TAIL_EPS:g} at t={t}"
        )
    return xi(w, t) / np.sqrt(tail)
