"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A model or scenario parameter is invalid; message names the field."""


class StreamFormatError(ValueError):
    """A time-tag file is malformed; message carries the byte offset or line."""


class PeaksNotFoundError(RuntimeError):
    """Fewer than two qualifying coincidence peaks in a histogram; the message says why."""


class ReconstructionError(RuntimeError):
    """Density-matrix search did not converge."""
