"""Conversions between the package's ``Triplets`` and ``scipy.sparse``, for the tests.

``bosegas.fock`` holds every operator as read-only (rows, cols, values)
triplets and does no sparse algebra.  Tests that multiply, add, subtract,
index or compare operators convert them to scipy's CSR with ``csr`` and
hand scipy-built matrices to the package with ``triplets``.
"""

import scipy.sparse as sp

from bosegas import fock


def csr(m) -> sp.csr_matrix:
    """A ``Triplets`` matrix, or the matrix of a ``HermitianOperator``, as CSR."""
    if isinstance(m, fock.HermitianOperator):
        m = m.matrix
    return sp.csr_matrix((m.values, (m.rows, m.cols)), shape=m.shape)


def triplets(m) -> fock.Triplets:
    """A square scipy sparse matrix as ``Triplets``."""
    coo = sp.coo_matrix(m)
    coo.sum_duplicates()
    return fock._from_entries(coo.shape[0], coo.row, coo.col, coo.data)
