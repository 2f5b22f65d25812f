"""Fixtures shared by the whole suite."""

import pytest

from bosegas import _blas


@pytest.fixture(scope="session", autouse=True)
def single_blas_thread():
    """Run the suite with numpy's OpenBLAS on one thread, as ``bosegas.cli.main`` runs a command.

    The tests then see the bits the commands write, and no threaded BLAS
    call can stall on the workers' busy-wait.  Tests that need another
    count set it and restore it themselves.
    """
    with _blas.single_thread():
        yield
