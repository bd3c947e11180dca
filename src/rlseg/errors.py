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


class EmptyGroundTruthError(RlsegError):
    """Accuracy rate is undefined over an empty ground truth."""


class SettingError(RlsegError, ValueError):
    """A setting has a value outside its range; key names the setting."""

    in_config = False  # true where the bad value is a config file's own

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@contextmanager
def named(path):
    """The failures of work on path's line, naming path: a MemoryError (its
    decoded pixels) as an OSError (exit 1), an empty-input error (exit 2) with
    path in front."""
    try:
        yield
    except MemoryError as exc:
        raise OSError(f"{path}: its decoded pixels do not fit in memory") from exc
    except (EmptyLineError, EmptyWordError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
