"""Pin the bundled OpenBLAS builds to one thread for the duration of a block.

numpy and scipy wheels each ship their own OpenBLAS.  With more than one
thread, OpenBLAS splits long dot products and the eigensolvers' inner
products across threads, so the summation order, and with it the last bits
of the results, depend on the thread count; on the small matrices this
package builds the threads also cost more than they save.  ``single_thread``
sets both libraries to one thread through their exported setters (the calls
threadpoolctl makes) and restores the previous counts on exit.  Where the
symbols are not found, for instance with a BLAS other than the bundled
OpenBLAS, it changes nothing and reports ``"unpinned"``.

Importing this module loads scipy's OpenBLAS (through ``scipy.linalg``),
and the package imports it first.  A freshly loaded OpenBLAS starts a
worker thread that busy-waits for about 0.1 s before it sleeps; loaded
this early, that wait overlaps the rest of the imports instead of the
first command.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from typing import Callable, Iterator

import numpy
import scipy
import scipy.linalg  # noqa: F401  (see the module docstring)

# (package, directory of its bundled libraries, library pattern, setter, getter)
_OPENBLAS = (
    (numpy, "numpy.libs", "libscipy_openblas64_*.so",
     "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    (scipy, "scipy.libs", "libscipy_openblas*.so",
     "scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@functools.cache
def _controls() -> tuple[tuple[Callable, Callable], ...]:
    """(setter, getter) of every bundled OpenBLAS found, looked up once per process."""
    found = []
    for package, libs, pattern, set_name, get_name in _OPENBLAS:
        site = os.path.dirname(os.path.dirname(package.__file__))
        for path in sorted(glob.glob(os.path.join(site, libs, pattern))):
            try:
                lib = ctypes.CDLL(path)
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
            except (OSError, AttributeError):
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            found.append((setter, getter))
    return tuple(found)


@contextlib.contextmanager
def single_thread() -> Iterator[int | str]:
    """Run the block with every bundled OpenBLAS on one thread.

    Yields the thread count read back after pinning, or ``"unpinned"``
    when no library was found.  The previous counts come back on exit,
    also when the block raises.
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
