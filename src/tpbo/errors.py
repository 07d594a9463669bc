"""Exception types shared across the package, the file readers' integer
check, and `_write_text`, the one writer of every output file: session and
model JSON and the `bench` results and summary CSVs."""

import os


class TpboError(Exception):
    """Base class for package-specific failures."""


class VanishingKernelError(TpboError):
    """The reweighted covariance is numerically zero.

    Raised when every dual coefficient of the auxiliary fit vanishes, which
    happens when the auxiliary targets carry no usable signal (e.g. they are
    constant).  A zero covariance prior cannot drive optimization, so the
    condition is surfaced as an error instead of silently degenerating.
    """


class NumericalError(TpboError):
    """A linear-algebra step failed beyond the recoverable jitter range."""


def _json_int(value, name: str) -> int:
    """A JSON number that must be whole (3 or 3.0), as an int.

    ``int`` would truncate 1.7 to 1 and parse the string "3"; both are a
    ``ValueError`` naming the field here, as are bools and infinities.
    """
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _write_text(path, text: str) -> None:
    """Write `text` to `path` as UTF-8, replacing it atomically.

    The text goes to ``path + ".tmp"`` first and replaces `path` only once it
    is complete, so a write that fails partway leaves an existing file as it
    was; the partial temporary file is removed.  Line endings are written as
    given.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
