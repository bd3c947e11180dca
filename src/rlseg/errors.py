"""Exception hierarchy shared across the package."""

from contextlib import contextmanager


class RlsegError(Exception):
    """Base class for all rlseg errors."""


class MalformedRleError(RlsegError):
    """Run lengths violate the row contract (alternation or width sum)."""


class ParseError(RlsegError):
    """A file could not be parsed; carries the path and a 1-based line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line
        self.message = message


class OutOfBoundsError(RlsegError):
    """A coordinate fell outside the image."""


class EmptyRangeError(RlsegError):
    """A row range selects no rows."""


class EmptyLineError(RlsegError):
    """The text-line image contains no foreground runs."""


class EmptyWordError(RlsegError):
    """The word image contains no ink."""


class NoGapsError(RlsegError):
    """Automatic threshold selection needs at least one gap."""


class EmptyGroundTruthError(RlsegError):
    """Accuracy rate is undefined over an empty ground truth."""


class SettingError(RlsegError, ValueError):
    """A setting has a value outside its range; key names the setting."""

    in_config = False  # true where the bad value is a config file's own

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@contextmanager
def decoding(path):
    """A MemoryError decoding path's pixels, as an OSError naming path (exit 1)."""
    try:
        yield
    except MemoryError as exc:
        raise OSError(f"{path}: its decoded pixels do not fit in memory") from exc
