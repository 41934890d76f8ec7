"""The cavity's operators in a truncated Fock space.

The annihilation and number operators as dense complex matrices on the
levels |0>, ..., |D-1>, all that the cavity's (L, H) and the filter's
readouts need (the identity is ``np.eye``).  All experiments in this
package use very small truncations (D = 2 by default, D <= 5 in the
robustness tests), so everything is plain dense numpy.

Note the truncation artifact: [a, a^dag] equals the identity on the first
D-1 levels but -(D-1) at the top diagonal entry.  Physics runs restrict to
states with no support on the top level, where the algebra is exact.
"""

from __future__ import annotations

import numpy as np


def annihilation(dim: int) -> np.ndarray:
    """Annihilation operator ``a`` with entries a[i, i+1] = sqrt(i+1).

    Parameters
    ----------
    dim : int
        Fock truncation D >= 1.
    """
    if dim < 1:
        raise ValueError(f"Fock dimension must be >= 1, got {dim}")
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(np.complex128)


def number_op(dim: int) -> np.ndarray:
    """Number operator n = a^dag a = diag(0, 1, ..., dim-1)."""
    if dim < 1:
        raise ValueError(f"Fock dimension must be >= 1, got {dim}")
    return np.diag(np.arange(dim, dtype=np.complex128))

