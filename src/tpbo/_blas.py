"""Thread counts of the OpenBLAS builds that numpy and scipy each bundle.

A process that imports both runs two BLAS thread pools.  An acquisition
pick makes hundreds of small batched calls into both, and where both pools
run more than one thread, the idle threads of one spin on the cores the
other needs: on a 2-core host, a pick polishing 64 starts at four
observations took about 4 s with both pools at their default 2 threads and
0.5 s with either pool at one.  `single_thread` runs a block with every
pool at one thread and then restores the counts it found; every pick and
the whole of `bench.run_benchmark` run inside it.  A process forked inside
a block inherits the one-thread counts, the found controls and the open
block, so its own blocks change nothing.  Where the libraries or their
thread controls cannot be found, nothing is changed.

The controls are found once, at the first block, among the libraries mapped
at that moment.  ``tpbo`` loads scipy on first use, so a first block can
come before anything has mapped scipy's OpenBLAS; `find_controls` therefore
loads scipy's LAPACK before it looks, and the pinning does not depend on
import order.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading

# (getter, setter) symbols of numpy's 64-bit-index build and of scipy's build
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def find_controls() -> list:
    """(getter, setter) of the thread count of every OpenBLAS mapped into this process.

    Loads scipy's LAPACK first, which maps scipy's OpenBLAS, so the controls
    found do not depend on whether the caller has used scipy yet.
    """
    import scipy.linalg.lapack  # noqa: F401

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_sym, set_sym in _SYMBOLS:
            getter, setter = getattr(handle, get_sym, None), getattr(handle, set_sym, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
    return controls


# Thread counts are process state, so the blocks of all threads share one
# limit: the first block to enter saves the counts and the last to leave
# restores them.
_lock = threading.Lock()
_controls = None  # found on first use; the libraries stay mapped
_saved: list = []
_holders = 0


@contextlib.contextmanager
def single_thread():
    """Run the block with every OpenBLAS in the process at one thread."""
    global _controls, _saved, _holders
    with _lock:
        if _controls is None:
            _controls = find_controls()
        if _holders == 0:
            _saved = [(setter, getter()) for getter, setter in _controls]
            for setter, _ in _saved:
                setter(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                for setter, count in _saved:
                    setter(count)
