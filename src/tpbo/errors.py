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

    A symlinked `path` is resolved first, so the link's target is replaced
    and the link stays a link.  The text goes to a temporary file beside
    that target, under a fresh random name opened with ``O_EXCL``, so no
    existing file, an input among them, is ever opened for writing; it
    replaces the target only once it is complete, so a write that fails
    partway leaves an existing file as it was, and the partial temporary
    file is removed.  A replaced file keeps its permission bits; a new one
    gets mode 0o666, which the kernel reduces by the umask as it does for
    ``open(path, "w")``.  Line endings are written as given.
    """
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            try:
                os.fchmod(fd, os.stat(target).st_mode & 0o7777)
            except FileNotFoundError:
                pass
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise
