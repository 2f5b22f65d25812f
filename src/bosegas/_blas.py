"""Pin the bundled OpenBLAS builds to one thread for the duration of a block.

numpy and scipy wheels each ship their own OpenBLAS.  With more than one
thread, OpenBLAS splits long dot products and the eigensolvers' inner
products across threads, so the summation order, and with it the last bits
of the results, depend on the thread count; on the small matrices this
package builds the threads also cost more than they save.  ``single_thread``
sets each library to one thread through its exported setters (the calls
threadpoolctl makes) and restores the previous counts on exit.  Where the
symbols are not found, for instance with a BLAS other than the bundled
OpenBLAS, it changes nothing and reports ``"unpinned"``.

The package itself needs numpy only, so numpy's OpenBLAS is always pinned.
scipy's is pinned only when the caller has already loaded it (by importing
``scipy.linalg``, say): it is looked up with ``RTLD_NOLOAD``, which finds a
loaded library and never loads one, because loading OpenBLAS starts its
worker threads.  The lookup runs on every entry, so a library the caller
loads later is pinned from then on.

The worker threads are left alone: setting a count starts and stops no
thread.  The worker numpy starts at its import busy-waits for about 0.1 s
and then sleeps; that wait mostly falls inside numpy's own import.
Stopping the workers on entry (``blas_thread_shutdown_``) would make the
restore on exit start a new worker, which busy-waits for another 0.1 s
after every block, and would make every entry wait for a thread to exit.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import os
from typing import Callable, Iterator

# (package, directory of its bundled libraries, library pattern, setter, getter)
_OPENBLAS = (
    ("numpy", "numpy.libs", "libscipy_openblas64_*.so",
     "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy.libs", "libscipy_openblas*.so",
     "scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def _controls() -> tuple[tuple[Callable, Callable], ...]:
    """(setter, getter) of every bundled OpenBLAS this process has loaded."""
    found = []
    for package, libs, pattern, set_name, get_name in _OPENBLAS:
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        site = os.path.dirname(os.path.dirname(spec.origin))
        for path in sorted(glob.glob(os.path.join(site, libs, pattern))):
            try:
                found.append(_loaded(path, set_name, get_name))
            except (OSError, AttributeError):
                continue
    return tuple(found)


@functools.cache
def _loaded(path: str, set_name: str, get_name: str) -> tuple[Callable, Callable]:
    """(setter, getter) of the library at ``path``.

    Raises OSError when the library is not loaded; a raising call is not
    cached, and a loaded library stays loaded, so only found ones are kept.
    """
    lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    setter, getter = getattr(lib, set_name), getattr(lib, get_name)
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return setter, getter


@contextlib.contextmanager
def single_thread() -> Iterator[int | str]:
    """Run the block with every loaded bundled OpenBLAS on one thread.

    Yields the thread count read back after pinning, or ``"unpinned"``
    when no library was found.  The previous counts come back on exit,
    also when the block raises.  Not for use while another thread is
    inside a BLAS call: the counts are global to the process.
    """
    controls = _controls()
    previous = [getter() for _, getter in controls]
    try:
        for setter, _ in controls:
            setter(1)
        yield max((getter() for _, getter in controls), default="unpinned")
    finally:
        for (setter, _), count in zip(controls, previous):
            setter(count)
