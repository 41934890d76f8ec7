"""The (S, L, H) model of an open system driven by a single photon.

:func:`photonfilter.filter_moments.compile_filter` builds the filter's maps
from it; :meth:`SLHModel.cavity` is the one-sided cavity every run uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops


@dataclass(frozen=True)
class SLHModel:
    """An (S, L, H) triple.

    S must be unitary and H Hermitian (checked to 1e-10).
    """

    S: np.ndarray
    L: np.ndarray
    H: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.S)
        h = np.asarray(self.H)
        dim = s.shape[0]
        if s.shape != (dim, dim) or np.asarray(self.L).shape != (dim, dim) or h.shape != (dim, dim):
            raise ValueError("S, L, H must be square matrices of equal dimension")
        if not np.allclose(s.conj().T @ s, np.eye(dim), atol=1e-10):
            raise ValueError("scattering matrix S is not unitary")
        if not np.allclose(h, h.conj().T, atol=1e-10):
            raise ValueError("Hamiltonian H is not Hermitian")

    @property
    def dim(self) -> int:
        return np.asarray(self.S).shape[0]

    @classmethod
    def cavity(cls, dim: int, kappa: float, delta: float = 0.0) -> "SLHModel":
        """One-sided cavity: S = I, L = sqrt(kappa) a, H = delta a^dag a."""
        if kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {kappa}")
        return cls(
            S=ops.identity(dim),
            L=np.sqrt(kappa) * ops.annihilation(dim),
            H=delta * ops.number_op(dim),
        )
