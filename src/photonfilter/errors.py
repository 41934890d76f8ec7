"""Exception hierarchy for the simulation toolkit."""


class PhotonFilterError(Exception):
    """Base class for all toolkit errors."""


class NonRealInnovationError(PhotonFilterError):
    """The homodyne filter's maps do not keep K_t real or do not conserve
    pi11(I) = 1 exactly: raised when the filter is set up, before its first
    step."""


class FilterDivergenceError(PhotonFilterError):
    """A filter state, or the photon number read from it, became NaN/inf."""


class UnstableStepError(PhotonFilterError):
    """The step of a deterministic integration is too long for its flow to be
    formed in double precision: raised when the integration is set up,
    before its first step."""
