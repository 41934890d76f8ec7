"""Single-photon temporal amplitude, the share of it still to come, and the
amplitude it drives in a vacuum cavity.

The shape is the decaying exponential emitted by a two-level atom with
decay rate gamma, switched on at t0:

    xi(t) = sqrt(gamma) * exp(-gamma/2 * (t - t0)) * step(t - t0)

which has unit L2 norm.  The closed forms below hold for this shape only,
and photon counting and the cascade filter rest on them.  The amplitude is
real, as the compiled filter's maps assume (they conserve pi11(I) for it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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

    Zero before t0, sqrt(gamma) * exp(-gamma/2 (t - t0)) after; float64.
    """
    t = np.asarray(t, dtype=float)
    tau = t - w.t0
    amp = np.where(tau >= 0.0, np.sqrt(w.gamma) * np.exp(-0.5 * w.gamma * np.clip(tau, 0.0, None)), 0.0)
    return amp if amp.ndim else float(amp)


def tail_norm(w: Wavepacket, t):
    """Remaining photon content integral(|xi|^2, s=t..inf) in [0, 1]."""
    val = np.exp(-w.gamma * np.clip(np.asarray(t, dtype=float) - w.t0, 0.0, None))
    return val if val.ndim else float(val)


def cavity_amplitude(w: Wavepacket, kappa: float, delta: float, t):
    """Amplitude beta(t) of the photon in a vacuum cavity (rate kappa, detuning
    delta) driven by ``w``: d beta = -(c beta + sqrt(kappa) xi) dt, so with
    tau = t - t0, c = i delta + kappa/2 and z = c - gamma/2, beta = -sqrt(kappa
    gamma) exp(-c tau) tau expm1(z tau) / (z tau).  Where Re z > 0 (kappa >
    gamma) exp(-c tau) underflows long before the slower decay, so the same
    beta is written exp(-gamma tau / 2) tau expm1(-z tau) / (-z tau).  The
    last factor is 1 where |z tau| is 0 or subnormal (1 to double precision
    there, and the complex division overflows).  |beta|^2 is the master
    equation's <n>."""
    tau = np.clip(np.asarray(t, dtype=float) - w.t0, 0.0, None)
    c = 1j * delta + 0.5 * kappa
    z = c - 0.5 * w.gamma
    if z.real > 0:
        decay, zt = np.exp(-0.5 * w.gamma * tau), -z * tau
    else:
        decay, zt = np.exp(-c * tau), z * tau
    normal = np.abs(zt) >= np.finfo(float).tiny
    ratio = np.ones_like(zt)
    ratio[normal] = np.expm1(zt[normal]) / zt[normal]
    return -np.sqrt(kappa * w.gamma) * decay * tau * ratio
