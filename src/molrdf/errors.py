"""Exception types shared across the package."""


class AnalysisError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AnalysisError):
    """Fatal problem with an input file, a directive value, or a cell tensor."""


class NoFramesError(AnalysisError):
    """The frame selection left nothing to process."""
