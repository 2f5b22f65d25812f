"""Two generations of references for the Fock operators built from ladder words.

``bosegas.fock`` applies a word of ladder letters to every basis state at
once, sums the words of an operator per net occupation shift and ranks each
shift's targets once; ``ladder`` is the one-letter word.

The per-state loops below are the first reference: they visit every basis
state, copy its occupation tuple, change one slot at a time and look the
target up in a tuple-to-position dict built from ``basis.occupations()``.
Ladders and the plain pair generator multiply the same factors, so they
must agree bit for bit; the weighted generator and the excitation
Hamiltonian group their products differently and agree to a few units in
the last place of the largest entry.

The sparse products of ladder matrices are the second reference, the
assembly the package used before the words: the number operator and the
pair generators multiply the same two factors per entry and agree bit for
bit, and ``build_LN`` sums its terms in another order and agrees to
16 eps of its largest entry with the same sparsity pattern.
"""

import functools
import math
from typing import Callable, Sequence

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bosegas.fock import (
    FockBasis,
    HermitianOperator,
    build_basis,
    build_LN,
    build_quadratic_generator,
    ladder,
    number_operator,
    pair_partners,
    _check_shell_consistent,
)
from bosegas.lattice import enumerate_shells
from sparse_reference import csr

SHELLS_1_2 = [m for s in enumerate_shells(2) for m in s.members]
MODE_BY_TRIPLE = {m.n: m for m in SHELLS_1_2}
# the nine +-p pairs of shells 1 and 2, (+p, -p) with +p the larger triple
PAIRS = [(m, MODE_BY_TRIPLE[m.negated()]) for m in SHELLS_1_2 if m.n > m.negated()]
KINDS = ("create", "annihilate", "b_create", "b_annihilate")


def soft_sphere_v_hat(v0, radius):
    """Closed-form radial Fourier transform of v0 on the ball of ``radius``."""

    def v_hat(k):
        x = k * radius
        if x < 1e-3:
            return 4.0 * math.pi * v0 * radius**3 * (1.0 / 3.0 - x * x / 30.0)
        return 4.0 * math.pi * v0 * (math.sin(x) - x * math.cos(x)) / k**3

    return v_hat


def state_tuples(basis):
    """The basis states as tuples and the dict from tuple to position."""
    states = [tuple(occ) for occ in basis.occupations().tolist()]
    return states, {occ: i for i, occ in enumerate(states)}


class _SparseBuilder:
    def __init__(self, dim: int):
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.data: list[float] = []
        self.dim = dim

    def add(self, row: int, col: int, value: float):
        if value != 0.0:
            self.rows.append(row)
            self.cols.append(col)
            self.data.append(value)

    def tocsr(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.data, (self.rows, self.cols)), shape=(self.dim, self.dim)
        )


def reference_ladder(basis, mode, kind, N=None):
    j = basis.mode_index[mode.n]
    states, index_of = state_tuples(basis)

    rows, cols, data = [], [], []
    creating = kind in ("create", "b_create")
    for col, occ in enumerate(states):
        n_j = occ[j]
        total = basis.totals[col]
        if creating:
            if total + 1 > basis.cap:
                continue
            target = occ[:j] + (n_j + 1,) + occ[j + 1:]
            amp = math.sqrt(n_j + 1)
            if kind == "b_create":
                amp *= math.sqrt(1.0 - total / N)
        else:
            if n_j == 0:
                continue
            target = occ[:j] + (n_j - 1,) + occ[j + 1:]
            amp = math.sqrt(n_j)
            if kind == "b_annihilate":
                amp *= math.sqrt(1.0 - (total - 1) / N)
        rows.append(index_of[target])
        cols.append(col)
        data.append(amp)
    dim = len(basis)
    return sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))


def reference_build_LN(basis, N, v_hat):
    modes = basis.modes
    scale = math.sqrt(modes[0].p_sq / modes[0].norm_sq)
    index = basis.mode_index
    states, index_of = state_tuples(basis)
    dim = len(basis)
    n_modes = len(modes)

    def khat(n_triple) -> float:
        norm = math.sqrt(sum(c * c for c in n_triple))
        return v_hat(scale * norm / N)

    v0 = v_hat(0.0)
    vp = np.array([khat(m.n) for m in modes])

    builder = _SparseBuilder(dim)

    # diagonal blocks: kinetic + scalar/number + direct quadratic
    p_sq = np.array([m.p_sq for m in modes])
    occs = basis.occupations()
    totals = basis.totals
    kinetic = occs @ p_sq
    direct = (occs @ vp) * (N - totals) / N
    scalar = 0.5 * N * v0 - 0.5 * v0 * (1.0 - totals / N) - 0.5 * v0 * totals**2 / N
    for i in range(dim):
        builder.add(i, i, kinetic[i] + scalar[i] + direct[i])

    # anomalous quadratic block: (1/2) sum_p vp [b*_p b*_-p + b_p b_-p]
    neg_index = [index[modes[i].negated()] for i in range(n_modes)]
    active = [i for i in range(n_modes) if vp[i] != 0.0]
    for col, occ in enumerate(states):
        total = int(totals[col])
        for i in active:
            j = neg_index[i]
            # b*_p b*_-p: create at -p then at p, weights on intermediate totals
            if total + 2 <= basis.cap:
                amp = math.sqrt(occ[j] + 1) * math.sqrt(1.0 - total / N)
                mid = occ[:j] + (occ[j] + 1,) + occ[j + 1:]
                amp *= math.sqrt(mid[i] + 1) * math.sqrt(1.0 - (total + 1) / N)
                target = mid[:i] + (mid[i] + 1,) + mid[i + 1:]
                builder.add(index_of[target], col, 0.5 * vp[i] * amp)
            # b_p b_-p: annihilate at -p then at p
            if occ[j] >= 1:
                mid = occ[:j] + (occ[j] - 1,) + occ[j + 1:]
                if mid[i] >= 1:
                    amp = math.sqrt(occ[j]) * math.sqrt(1.0 - (total - 1) / N)
                    amp *= math.sqrt(mid[i]) * math.sqrt(1.0 - (total - 2) / N)
                    target = mid[:i] + (mid[i] - 1,) + mid[i + 1:]
                    builder.add(index_of[target], col, 0.5 * vp[i] * amp)

    # cubic block: N^{-1/2} sum vp [b*_{p+q} a*_{-p} a_q + h.c.], all legs in the set
    cubic_terms = []
    for ip, mp_ in enumerate(modes):
        for iq, mq in enumerate(modes):
            s = tuple(a + b for a, b in zip(mp_.n, mq.n))
            if s == (0, 0, 0) or s not in index or vp[ip] == 0.0:
                continue
            cubic_terms.append((index[s], neg_index[ip], iq, vp[ip]))
    inv_sqrt_n = 1.0 / math.sqrt(N)
    for col, occ in enumerate(states):
        total = int(totals[col])
        for i_s, i_mp, i_q, v in cubic_terms:
            # b*_{p+q} a*_{-p} a_q
            if occ[i_q] >= 1:
                amp = math.sqrt(occ[i_q])
                st1 = occ[:i_q] + (occ[i_q] - 1,) + occ[i_q + 1:]
                amp *= math.sqrt(st1[i_mp] + 1)
                st2 = st1[:i_mp] + (st1[i_mp] + 1,) + st1[i_mp + 1:]
                if total + 1 <= basis.cap:
                    amp3 = amp * math.sqrt(st2[i_s] + 1) * math.sqrt(1.0 - total / N)
                    target = st2[:i_s] + (st2[i_s] + 1,) + st2[i_s + 1:]
                    row = index_of[target]
                    value = inv_sqrt_n * v * amp3
                    builder.add(row, col, value)
                    builder.add(col, row, value)  # + h.c.

    # quartic block: (2N)^{-1} sum vhat(r/N) a*_{p+r} a*_q a_p a_{q+r}
    quartic_terms = []
    for ip, mp_ in enumerate(modes):
        for iq, mq in enumerate(modes):
            for is_, ms in enumerate(modes):
                r = tuple(a - b for a, b in zip(ms.n, mp_.n))
                t = tuple(a + b for a, b in zip(mq.n, r))
                if t not in index:
                    continue
                v_r = khat(r)
                if v_r == 0.0:
                    continue
                quartic_terms.append((is_, iq, ip, index[t], v_r))
    half_inv_n = 0.5 / N
    for col, occ in enumerate(states):
        for i_s, i_q, i_p, i_t, v in quartic_terms:
            if occ[i_t] == 0:
                continue
            amp = math.sqrt(occ[i_t])
            st1 = occ[:i_t] + (occ[i_t] - 1,) + occ[i_t + 1:]
            if st1[i_p] == 0:
                continue
            amp *= math.sqrt(st1[i_p])
            st2 = st1[:i_p] + (st1[i_p] - 1,) + st1[i_p + 1:]
            amp *= math.sqrt(st2[i_q] + 1)
            st3 = st2[:i_q] + (st2[i_q] + 1,) + st2[i_q + 1:]
            amp *= math.sqrt(st3[i_s] + 1)
            target = st3[:i_s] + (st3[i_s] + 1,) + st3[i_s + 1:]
            builder.add(index_of[target], col, half_inv_n * v * amp)

    return builder.tocsr()


def reference_generator(basis, c, kind="a_type", N=None):
    c = np.asarray(c, dtype=float)
    builder = _SparseBuilder(len(basis))
    pairs = pair_partners(basis)
    states, index_of = state_tuples(basis)
    for col, occ in enumerate(states):
        total = sum(occ)
        for i, j in pairs:
            coeff = c[i]
            if coeff == 0.0:
                continue
            # raising part X*_p X*_-p
            if total + 2 <= basis.cap:
                amp = math.sqrt(occ[j] + 1)
                mid = occ[:j] + (occ[j] + 1,) + occ[j + 1:]
                amp *= math.sqrt(mid[i] + 1)
                if kind == "b_type":
                    amp *= math.sqrt(1.0 - total / N) * math.sqrt(1.0 - (total + 1) / N)
                target = mid[:i] + (mid[i] + 1,) + mid[i + 1:]
                builder.add(index_of[target], col, coeff * amp)
            # lowering part -X_p X_-p
            if occ[j] >= 1:
                mid = occ[:j] + (occ[j] - 1,) + occ[j + 1:]
                if mid[i] >= 1:
                    amp = math.sqrt(occ[j]) * math.sqrt(mid[i])
                    if kind == "b_type":
                        amp *= math.sqrt(1.0 - (total - 1) / N) * math.sqrt(1.0 - (total - 2) / N)
                    target = mid[:i] + (mid[i] - 1,) + mid[i + 1:]
                    builder.add(index_of[target], col, -coeff * amp)
    return builder.tocsr()


def _ladders(basis: FockBasis, kind: str, N: int | None = None) -> list[sp.csr_matrix]:
    return [csr(ladder(basis, m, kind, N)) for m in basis.modes]


def sparse_product_build_LN(
    basis: FockBasis,
    N: int,
    v_hat: Callable[[float], float],
) -> HermitianOperator:
    """Excitation Hamiltonian on the capped basis, all interaction legs inside the mode set.

    ``v_hat`` is the radial Fourier transform of the interaction; it is
    sampled at |p|/N on the physical momenta of the basis modes, once per
    integer |p|^2.  Assembles the kinetic part plus the scalar/number
    block, the quadratic block with its anomalous pairs, the cubic block
    and the quartic block, keeping exactly the momentum-conserving terms
    whose every leg lies in the mode set.  The result commutes with total
    momentum and is symmetric up to roundoff.
    """
    if N < basis.cap:
        raise ValueError("build_LN needs N >= cap")
    if not basis.negation_closed:
        raise ValueError("build_LN needs a negation-closed mode set")
    modes = basis.modes
    scale = math.sqrt(modes[0].p_sq / modes[0].norm_sq)
    index = basis.mode_index

    @functools.cache
    def khat(norm_sq: int) -> float:
        return v_hat(scale * math.sqrt(norm_sq) / N)

    v0 = khat(0)
    vp = np.array([khat(m.norm_sq) for m in modes])
    neg = [index[m.negated()] for m in modes]
    a_up, a_down = _ladders(basis, "create"), _ladders(basis, "annihilate")
    b_up = _ladders(basis, "b_create", N)

    # diagonal blocks: kinetic + scalar/number + direct quadratic
    p_sq = np.array([m.p_sq for m in modes])
    occs = basis.occupations()
    totals = basis.totals
    kinetic = occs @ p_sq
    direct = (occs @ vp) * (N - totals) / N
    scalar = 0.5 * N * v0 - 0.5 * v0 * (1.0 - totals / N) - 0.5 * v0 * totals**2 / N
    H = sp.diags(kinetic + scalar + direct).tocsr()

    # anomalous quadratic block: (1/2) sum_p vp [b*_p b*_-p + b_-p b_p]
    for i, j in enumerate(neg):
        if vp[i] != 0.0:
            pair = b_up[i] @ b_up[j]
            H += (0.5 * vp[i]) * (pair + pair.T)

    # cubic block: N^{-1/2} sum vp [b*_{p+q} a*_{-p} a_q + h.c.], all legs in the set
    inv_sqrt_n = 1.0 / math.sqrt(N)
    cubic = sp.csr_matrix(H.shape)
    for ip, mp_ in enumerate(modes):
        for iq, mq in enumerate(modes):
            s = tuple(a + b for a, b in zip(mp_.n, mq.n))
            if s == (0, 0, 0) or s not in index or vp[ip] == 0.0:
                continue
            cubic += (inv_sqrt_n * vp[ip]) * (b_up[index[s]] @ a_up[neg[ip]] @ a_down[iq])
    H += cubic + cubic.T

    # quartic block: (2N)^{-1} sum vhat(r/N) a*_{p+r} a*_q a_p a_{q+r}, grouped
    # as a*_{p+r} M_r a_p with the hop M_r = sum_q a*_q a_{q+r}
    hops: dict[tuple[int, ...], sp.csr_matrix] = {}
    for iq, mq in enumerate(modes):
        for it, mt in enumerate(modes):
            r = tuple(b - a for a, b in zip(mq.n, mt.n))
            hop = a_up[iq] @ a_down[it]
            hops[r] = hops[r] + hop if r in hops else hop
    half_inv_n = 0.5 / N
    for ip, mp_ in enumerate(modes):
        for is_, ms in enumerate(modes):
            r = tuple(a - b for a, b in zip(ms.n, mp_.n))
            v_r = khat(sum(c * c for c in r))
            if v_r != 0.0:
                H += (half_inv_n * v_r) * (a_up[is_] @ hops[r] @ a_down[ip])

    return HermitianOperator(basis, H)


def sparse_product_generator(
    basis: FockBasis,
    c: Sequence[float],
    kind: str = "a_type",
    N: int | None = None,
) -> sp.csr_matrix:
    """Anti-symmetric generator (1/2) sum_p c_p (X*_p X*_-p - X_p X_-p).

    With X the plain ladder operators ('a_type') this is the standard
    pair-rotation generator; 'b_type' uses the weighted operators and needs
    N.  The coefficient must be constant on each +-p pair; the p-sum counts
    every pair twice, so each unordered pair enters with full weight c_p.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (len(basis.modes),):
        raise ValueError("need one coefficient per mode")
    if kind not in ("a_type", "b_type"):
        raise ValueError("kind must be 'a_type' or 'b_type'")
    if kind == "b_type":
        if N is None:
            raise ValueError("b_type generator needs N")
        if N < basis.cap:
            raise ValueError("b_type generator needs N >= cap")
    _check_shell_consistent(basis, c, "generator coefficient")

    pairs = pair_partners(basis)
    for i, j in pairs:
        if c[i] != c[j]:
            raise ValueError("generator coefficient must match on +-p pairs")
    up = _ladders(basis, "b_create" if kind == "b_type" else "create", N)
    dim = len(basis)
    G = sp.csr_matrix((dim, dim))
    for i, j in pairs:
        if c[i] != 0.0:
            # X_-p X_p is the exact transpose of X*_p X*_-p
            pair = up[i] @ up[j]
            G += c[i] * (pair - pair.T)
    return G


MAX_STATES = 400


@st.composite
def fock_cases(draw):
    """(basis, N): +-p pairs of shells 1-2 in any order, cap <= 4, cap <= N <= 40."""
    pairs = draw(st.lists(st.sampled_from(PAIRS), min_size=1, max_size=len(PAIRS), unique=True))
    modes = draw(st.permutations([m for pair in pairs for m in pair]))
    n = len(modes)
    cap_max = 1
    while cap_max < 4 and math.comb(cap_max + 1 + n, n) <= MAX_STATES:
        cap_max += 1
    cap = draw(st.integers(min_value=1, max_value=cap_max))
    N = draw(st.integers(min_value=cap, max_value=40))
    return build_basis(modes, cap), N


def assert_bit_equal(new, ref):
    new = csr(new)
    assert new.shape == ref.shape
    assert new.nnz == ref.nnz
    assert (new != ref).nnz == 0


@given(case=fock_cases())
@settings(max_examples=60, deadline=None)
def test_ladder_bit_equal_reference(case):
    basis, N = case
    assert basis.rank(basis.occupations()).tolist() == list(range(len(basis)))
    for mode in basis.modes:
        for kind in KINDS:
            assert_bit_equal(ladder(basis, mode, kind, N), reference_ladder(basis, mode, kind, N))


@given(
    case=fock_cases(),
    shell_coeffs=st.tuples(*(st.floats(min_value=-1.0, max_value=1.0),) * 2),
)
@settings(max_examples=50, deadline=None)
def test_quadratic_generator_matches_reference(case, shell_coeffs):
    basis, N = case
    c = [shell_coeffs[m.norm_sq - 1] for m in basis.modes]
    assert_bit_equal(build_quadratic_generator(basis, c), reference_generator(basis, c))

    new = csr(build_quadratic_generator(basis, c, "b_type", N))
    ref = reference_generator(basis, c, "b_type", N)
    assert new.nnz == ref.nnz
    scale = abs(ref).max() if ref.nnz else 0.0
    assert (abs(new - ref).max() if ref.nnz else 0.0) <= 1e-15 * scale


@given(
    case=fock_cases(),
    v0=st.floats(min_value=0.5, max_value=200.0),
    radius=st.floats(min_value=0.05, max_value=0.5),
)
@settings(max_examples=40, deadline=None)
def test_build_LN_matches_reference(case, v0, radius):
    basis, N = case
    v_hat = soft_sphere_v_hat(v0, radius)
    new = csr(build_LN(basis, N, v_hat))
    ref = reference_build_LN(basis, N, v_hat)
    assert ((new != 0) != (ref != 0)).nnz == 0
    assert abs(new - ref).max() <= 1e-14 * abs(ref).max()


EPS = np.finfo(float).eps


def assert_same_pattern_close(new, ref, rtol):
    new = csr(new)
    assert new.nnz == ref.nnz
    assert ((new != 0) != (ref != 0)).nnz == 0
    assert np.isfinite(new.data).all()
    assert (abs(new - ref).max() if ref.nnz else 0.0) <= rtol * abs(ref).max()


@given(
    case=fock_cases(),
    v0=st.floats(min_value=0.5, max_value=200.0),
    radius=st.floats(min_value=0.05, max_value=0.5),
)
@settings(max_examples=40, deadline=None)
def test_build_LN_matches_sparse_products(case, v0, radius):
    basis, N = case
    v_hat = soft_sphere_v_hat(v0, radius)
    new = build_LN(basis, N, v_hat).matrix
    ref = sparse_product_build_LN(basis, N, v_hat).matrix
    assert_same_pattern_close(new, ref, 16 * EPS)


# four +-p pairs of shells 1 and 2 in the xy plane: p + q stays in the set,
# so every block of L_N, the cubic one too, has terms
PLANE = [m for m in SHELLS_1_2 if m.n[2] == 0 and m.norm_sq <= 2]


@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_build_LN_at_N_equal_to_the_cap(cap):
    # sqrt(1 - t/N) meets totals past N on states a word annihilates or
    # lifts past the cap; their amplitude must be 0, not NaN
    assert len(PLANE) == 8
    basis = build_basis(PLANE, cap)
    v_hat = soft_sphere_v_hat(100.0, 0.5)
    new = build_LN(basis, cap, v_hat).matrix
    ref = sparse_product_build_LN(basis, cap, v_hat).matrix
    assert_same_pattern_close(new, ref, 16 * EPS)
    assert_same_pattern_close(new, reference_build_LN(basis, cap, v_hat), 1e-14)
    for kind in ("b_create", "b_annihilate"):
        for mode in PLANE:
            assert_bit_equal(
                ladder(basis, mode, kind, cap), reference_ladder(basis, mode, kind, cap)
            )


@given(
    case=fock_cases(),
    shell_coeffs=st.tuples(*(st.floats(min_value=-1.0, max_value=1.0),) * 2),
)
@settings(max_examples=30, deadline=None)
def test_number_operator_and_generators_bit_equal_sparse_products(case, shell_coeffs):
    basis, N = case
    for mode in basis.modes:
        product = csr(ladder(basis, mode, "create")) @ csr(ladder(basis, mode, "annihilate"))
        assert_bit_equal(number_operator(basis, mode), product)
    c = [shell_coeffs[m.norm_sq - 1] for m in basis.modes]
    assert_bit_equal(build_quadratic_generator(basis, c), sparse_product_generator(basis, c))
    assert_bit_equal(
        build_quadratic_generator(basis, c, "b_type", N),
        sparse_product_generator(basis, c, "b_type", N),
    )
