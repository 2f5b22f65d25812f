"""Load numpy's bundled OpenBLAS at one thread, and pin it to one for a block.

With more than one thread, OpenBLAS splits long dot products and the
eigensolvers' inner products across threads, so the summation order, and
with it the last bits of the results, depend on the thread count; on the
small matrices this package builds the threads also cost more than they
save.  ``single_thread`` sets the library to one thread through its
exported setter (the call threadpoolctl makes) and restores the previous
count on exit.  Where the symbols are not found, for instance with a BLAS
other than the bundled OpenBLAS, it changes nothing and reports
``"unpinned"``.

The package calls numpy only, and numpy loads its OpenBLAS at import, so
that is the one library pinned.  Other wheels (scipy's, say) ship their
own OpenBLAS, a separate library with its own count that no result of
this package passes through; it is left alone.  The library is looked up
with ``RTLD_NOLOAD``, which finds a loaded library and never loads one.

OpenBLAS reads its thread count from the environment once, when the
library loads, and at more than one thread it starts its workers there;
each busy-waits for about 0.1 s of CPU before it sleeps, which a command
run right after the import pays for.  Setting the count later starts and
stops no thread, so it cannot end that wait, and stopping the workers on
entry (``blas_thread_shutdown_``) would make the restore on exit start a
new worker that busy-waits again.  So this module, which the package
imports before anything that imports numpy, loads numpy itself with
``OPENBLAS_NUM_THREADS=1`` when numpy is not loaded yet and the caller set
none of ``_THREAD_VARIABLES``; no worker is started.  The variable is
removed again right after, so child processes and libraries loaded later
see the caller's environment.  A count the caller set, or a numpy the
caller loaded first, is left as it is: ``single_thread`` is what pins the
commands, whatever the count outside.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import os
import sys
from typing import Callable, Iterator

# the variables OpenBLAS reads its thread count from at load, in its order
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" not in sys.modules and not any(name in os.environ for name in _THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

# (package, directory of its bundled libraries, library pattern, setter, getter)
_OPENBLAS = (
    ("numpy", "numpy.libs", "libscipy_openblas64_*.so",
     "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
)


def _controls() -> tuple[tuple[Callable, Callable], ...]:
    """(setter, getter) of every library of ``_OPENBLAS`` that is loaded."""
    found = []
    for package, libs, pattern, set_name, get_name in _OPENBLAS:
        site = os.path.dirname(os.path.dirname(importlib.util.find_spec(package).origin))
        for path in sorted(glob.glob(os.path.join(site, libs, pattern))):
            with contextlib.suppress(OSError, AttributeError):
                found.append(_loaded(path, set_name, get_name))
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
    """Run the block with numpy's bundled OpenBLAS on one thread.

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
