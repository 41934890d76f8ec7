"""Exception hierarchy for the simulation toolkit."""


class PhotonFilterError(Exception):
    """Base class for all toolkit errors."""


class NonRealInnovationError(PhotonFilterError):
    """The homodyne innovation gain K_t acquired a non-negligible imaginary part."""


class FilterDivergenceError(PhotonFilterError):
    """A filter state became NaN/inf or its jump intensity went strongly negative."""


class InvalidJumpError(PhotonFilterError):
    """A detection jump was requested while the jump intensity is (numerically) zero."""
