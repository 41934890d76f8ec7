"""The (L, H) model of an open system driven by a single photon, with no
scattering (S = I).

:func:`photonfilter.filter_moments.compile_filter` builds the filter's maps
from it; :meth:`SLHModel.cavity` is the one-sided cavity every run uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops


@dataclass(frozen=True)
class SLHModel:
    """An (S, L, H) triple with S = I: the coupling L and the Hamiltonian H.

    H must be Hermitian (checked to 1e-10).
    """

    L: np.ndarray
    H: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.H)
        dim = h.shape[0]
        if np.asarray(self.L).shape != (dim, dim) or h.shape != (dim, dim):
            raise ValueError("L, H must be square matrices of equal dimension")
        if not np.allclose(h, h.conj().T, atol=1e-10):
            raise ValueError("Hamiltonian H is not Hermitian")

    @property
    def dim(self) -> int:
        return np.asarray(self.H).shape[0]

    @classmethod
    def cavity(cls, dim: int, kappa: float, delta: float = 0.0) -> "SLHModel":
        """One-sided cavity: L = sqrt(kappa) a, H = delta a^dag a."""
        if kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {kappa}")
        return cls(
            L=np.sqrt(kappa) * ops.annihilation(dim),
            H=delta * ops.number_op(dim),
        )
