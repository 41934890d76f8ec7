"""Exception hierarchy for the simulation toolkit."""


class PhotonFilterError(Exception):
    """Base class for all toolkit errors."""


class NonRealInnovationError(PhotonFilterError):
    """The homodyne innovation gain K_t acquired a non-negligible imaginary part."""


class FilterDivergenceError(PhotonFilterError):
    """A filter state, or the photon number read from it, became NaN/inf."""
