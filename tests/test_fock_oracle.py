"""The per-state loops as the reference for the ladder-product Fock operators.

``bosegas.fock`` moves occupations in one vectorized primitive, ``ladder``,
and composes every other operator as a sum of sparse products of ladder
matrices.  The functions below are the loops the package used before: they
visit every basis state, copy its occupation tuple, change one slot at a
time and look the target up in a tuple-to-position dict built from
``basis.occupations()``.  Ladders and the plain pair generator multiply the
same factors, so they must agree bit for bit; the weighted generator and
the excitation Hamiltonian group their products differently and agree to a
few units in the last place of the largest entry.
"""

import math

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bosegas.fock import (
    build_basis,
    build_LN,
    build_quadratic_generator,
    ladder,
    pair_partners,
)
from bosegas.lattice import enumerate_shells

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

    new = build_quadratic_generator(basis, c, "b_type", N)
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
    new = build_LN(basis, N, v_hat).matrix
    ref = reference_build_LN(basis, N, v_hat)
    assert ((new != 0) != (ref != 0)).nnz == 0
    assert abs(new - ref).max() <= 1e-14 * abs(ref).max()
