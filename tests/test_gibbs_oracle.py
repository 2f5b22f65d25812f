"""The dense Gibbs state as the reference for the block-by-block one.

``fock.gibbs`` diagonalizes H one connected component of its sparsity
graph at a time and returns rho as ``Triplets`` that are nonzero only
inside the components.  The components come from min-label propagation;
``scipy.sparse.csgraph.connected_components``, which the package used
before, is their reference here.  ``reference_gibbs`` and ``reference_expect`` are the
routes the package used before: a diagonal operator takes its Boltzmann
weights straight from the diagonal, anything else goes through one dense
``eigh`` of the whole basis and a dense V diag(w) V^T.

The two eigensolvers see the same spectrum through differently sized
matrices, so energies, Z and expectations agree to a few units in the last
place of their scales: |H| for energies, beta |H| relative to Z, and |O|
for an expectation of O.  On a diagonal operator every
block is 1x1, for which ``eigh`` returns the entry itself, and Z is the
exactly rounded sum of the same weights, so both routes agree bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from bosegas import fock
from bosegas.fock import (
    build_basis,
    build_LN,
    expect,
    gibbs,
    ladder,
)
from bosegas.lattice import enumerate_shells
from fock_reference import build_D, number_operator, total_number
from sparse_reference import csr, triplets
from test_fock_oracle import PAIRS, soft_sphere_v_hat

MAX_STATES = 2_000
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class DenseGibbs:
    """The reference state: rho is dense, or CSR for a diagonal H."""

    rho: object
    Z: float
    beta: float
    ground_energy: float


def _is_diagonal(m) -> bool:
    coo = m.tocoo()
    return bool(np.all(coo.row == coo.col))


def reference_gibbs(H, beta):
    if _is_diagonal(csr(H)):
        energies = csr(H).diagonal()
        e0 = float(np.min(energies))
        weights = np.exp(-beta * (energies - e0))
        Z = float(math.fsum(weights.tolist()))
        rho = sp.diags(weights / Z).tocsr()
        return DenseGibbs(rho=rho, Z=Z, beta=beta, ground_energy=e0)
    matrix = csr(H).toarray()
    energies, vectors = np.linalg.eigh(matrix)
    e0 = float(energies[0])
    weights = np.exp(-beta * (energies - e0))
    Z = float(math.fsum(weights.tolist()))
    rho_dense = (vectors * (weights / Z)) @ vectors.T
    return DenseGibbs(rho=rho_dense, Z=Z, beta=beta, ground_energy=e0)


def reference_expect(r, o_mat) -> float:
    if sp.issparse(o_mat):
        if sp.issparse(r):
            return float(r.multiply(o_mat.T).sum())
        # sum_ij rho_ji O_ij over the nonzeros of O, without densifying O
        o = o_mat.tocoo()
        return float(np.asarray(r)[o.col, o.row] @ o.data)
    r_arr = r.toarray() if sp.issparse(r) else np.asarray(r)
    o_arr = o_mat.toarray() if sp.issparse(o_mat) else np.asarray(o_mat)
    return float(np.tensordot(r_arr, o_arr.T, axes=2))


def norm(m) -> float:
    """Largest absolute row sum, an upper bound on the spectral norm."""
    return float(abs(m).sum(axis=1).max())


@st.composite
def pair_bases(draw):
    """A basis over random +-p pairs of shells 1-2 with at most MAX_STATES states."""
    pairs = draw(st.lists(st.sampled_from(PAIRS), min_size=1, max_size=len(PAIRS), unique=True))
    modes = [m for pair in pairs for m in pair]
    n = len(modes)
    cap_max = 1
    while math.comb(cap_max + 1 + n, n) <= MAX_STATES:
        cap_max += 1
    return build_basis(modes, draw(st.integers(min_value=1, max_value=cap_max)))


@given(
    basis=pair_bases(),
    n_over_cap=st.integers(min_value=0, max_value=48),
    beta=st.floats(min_value=0.01, max_value=2.0),
    v0=st.floats(min_value=0.5, max_value=200.0),
    radius=st.floats(min_value=0.05, max_value=0.5),
)
@settings(max_examples=30, deadline=None)
def test_block_gibbs_matches_dense_on_LN(basis, n_over_cap, beta, v0, radius):
    N = basis.cap + n_over_cap
    H = build_LN(basis, N, soft_sphere_v_hat(v0, radius))
    new = gibbs(H, beta)
    ref = reference_gibbs(H, beta)

    # each scale is the largest the quantity can reach: |H| for energies,
    # beta |H| relative to Z (weights are exponentials of beta E), and |O|
    # for the expectation of O
    scale = norm(csr(H))
    assert abs(new.ground_energy - ref.ground_energy) <= 16 * EPS * scale
    assert abs(new.Z - ref.Z) <= 16 * EPS * beta * scale * ref.Z

    p, minus_p = basis.modes[0], basis.modes[1]
    operators = {
        "number": csr(number_operator(basis, p)),
        "pair": csr(ladder(basis, p, "create")) @ csr(ladder(basis, minus_p, "create")),
        "n_plus": csr(total_number(basis)),
        "cross": csr(ladder(basis, p, "create")) @ csr(ladder(basis, minus_p, "annihilate")),
    }
    for name, O in operators.items():
        value = expect(new, triplets(O))
        ref_value = reference_expect(ref.rho, O)
        assert abs(value - ref_value) <= 16 * EPS * norm(O), name
    # a*_p a_-p moves momentum 2p, so rho has no entry where it acts
    assert expect(new, triplets(operators["cross"])) == 0.0


@given(
    basis=pair_bases(),
    shell_eps=st.tuples(*(st.floats(min_value=0.0, max_value=20.0),) * 2),
    beta=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=60, deadline=None)
def test_block_gibbs_bit_equal_dense_on_diagonal(basis, shell_eps, beta):
    D = build_D(basis, [shell_eps[m.norm_sq - 1] for m in basis.modes])
    new = gibbs(D, beta)
    ref = reference_gibbs(D, beta)
    assert new.Z == ref.Z
    assert new.ground_energy == ref.ground_energy
    assert np.array_equal(csr(new.rho).diagonal(), ref.rho.diagonal())
    assert np.all(new.rho.rows == new.rho.cols)


@given(
    dim=st.integers(min_value=1, max_value=60),
    edges=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=80),
)
@settings(max_examples=100, deadline=None)
def test_components_match_csgraph_on_symmetric_patterns(dim, edges):
    edges = [(i, j) for i, j in edges if i < dim and j < dim]
    rows = np.array([i for i, j in edges] + [j for i, j in edges], dtype=np.int64)
    cols = np.array([j for i, j in edges] + [i for i, j in edges], dtype=np.int64)
    pattern = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(dim, dim))
    n_components, labels = connected_components(pattern, connection="weak")
    found = fock._components(dim, rows, cols)
    assert found.tolist() == labels.tolist()
    assert int(found.max()) + 1 == n_components


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_components_match_csgraph_on_LN_of_shells_1_2(cap):
    modes = [m for s in enumerate_shells(2) for m in s.members]
    basis = build_basis(modes, cap)
    H = build_LN(basis, 16, soft_sphere_v_hat(100.0, 0.5)).matrix
    n_components, labels = connected_components(csr(H), connection="weak")
    found = fock._components(len(basis), H.rows, H.cols)
    assert found.tolist() == labels.tolist()
    assert int(found.max()) + 1 == n_components
