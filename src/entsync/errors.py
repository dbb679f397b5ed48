"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A model or scenario parameter is invalid; message names the field."""


class StreamFormatError(ValueError):
    """A time-tag file is malformed; message carries the byte offset or line."""


class PeaksNotFoundError(RuntimeError):
    """Fewer than two qualifying coincidence peaks in a histogram."""

    def __init__(self, message: str, summary: dict | None = None):
        super().__init__(message)
        self.summary = summary or {}


class ReconstructionError(RuntimeError):
    """Density-matrix search did not converge."""
