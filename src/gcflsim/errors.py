"""Exception hierarchy shared by all gcflsim modules."""


class GcflSimError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(GcflSimError, ValueError):
    """An operation was called with invalid arguments."""


class IngestionError(GcflSimError):
    """A dataset could not be read (missing or unreadable file)."""


class CorruptDatasetError(IngestionError):
    """Dataset files are present but internally inconsistent."""


class UndefinedEmbeddingError(GcflSimError):
    """A walk embedding or similarity histogram is undefined (edgeless graph)."""


class ConfigurationError(GcflSimError):
    """An experiment configuration is invalid or unsatisfiable."""


class DivergenceError(GcflSimError):
    """Training produced a non-finite update (nan or inf) or one whose norm overflows."""
