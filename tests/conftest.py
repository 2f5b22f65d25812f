"""Fixtures shared by the whole suite."""

import os

# before anything loads an OpenBLAS: numpy's and scipy's (a separate library
# that the reference loops call through scipy.linalg) then both load at one
# thread and start no worker.  Tests that start interpreters at another
# count set it in the child's environment.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from bosegas import _blas  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def single_blas_thread():
    """Run the suite with numpy's OpenBLAS on one thread, as ``bosegas.cli.main`` runs a command.

    The tests then see the bits the commands write, and no threaded BLAS
    call can stall on the workers' busy-wait.  Tests that need another
    count set it and restore it themselves.
    """
    with _blas.single_thread():
        yield
