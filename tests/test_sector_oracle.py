"""The tuple enumerators as the reference for the shared capped-composition primitive.

``bosegas.fock.compositions`` enumerates capped compositions as one array
and ``bosegas.fock.composition_rank`` ranks them in closed form; the Fock
basis and the adjudication sectors of ``bosegas.oracles`` both use them.
The functions below are what the package used before: a recursive tuple
generator for the basis, and for the sectors two recursive generators, a
per-sector tuple-to-position dict, a loop that moves one pair number at
a time by tuple slicing, and one exponential per sector.  Lexicographic
order over the pair numbers k with sum k <= B is the lexicographic order of
the compositions of B with a slack slot, and likewise for the sector
labels, so every state order is unchanged.  The package now stacks the
sectors of one pair budget and exponentiates the stack in one call, which
runs the same code on every slice, and still adds the sector terms in label
order: the new path must agree bit for bit.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bosegas import fock, oracles
from bosegas.bogoliubov import dispersion, nu_coefficient
from bosegas.errors import GuardError
from bosegas.fock import build_basis, composition_rank, compositions
from bosegas.lattice import enumerate_shells, shell_modes

SHELLS_1_2 = [m for s in enumerate_shells(2) for m in s.members]
MODE_BY_TRIPLE = {m.n: m for m in SHELLS_1_2}
# the nine +-p pairs of shells 1 and 2, (+p, -p) with +p the larger triple
PAIRS = [(m, MODE_BY_TRIPLE[m.negated()]) for m in SHELLS_1_2 if m.n > m.negated()]


def _compositions(total: int, parts: int):
    """Occupation vectors summing to ``total``, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass
class _Sector:
    abs_d: tuple[int, ...]
    multiplicity: int
    kvecs: list[tuple[int, ...]]
    index: dict


def _sector_kvecs(abs_d: tuple[int, ...], cap: int) -> list[tuple[int, ...]]:
    base = sum(abs_d)
    budget = (cap - base) // 2
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, parts: int):
        if parts == 1:
            for k in range(remaining + 1):
                out.append(prefix + (k,))
            return
        for k in range(remaining + 1):
            rec(prefix + (k,), remaining - k, parts - 1)

    rec((), budget, len(abs_d))
    return out


def _iter_sectors(n_pairs: int, cap: int):
    """Absolute pair differences with multiplicity 2^(number of nonzero entries)."""

    def rec(prefix: tuple[int, ...], remaining: int, parts: int):
        if parts == 0:
            yield prefix
            return
        for d in range(remaining + 1):
            yield from rec(prefix + (d,), remaining - d, parts - 1)

    for abs_d in rec((), cap, n_pairs):
        mult = 1
        for d in abs_d:
            if d:
                mult *= 2
        kvecs = _sector_kvecs(abs_d, cap)
        yield _Sector(
            abs_d=abs_d,
            multiplicity=mult,
            kvecs=kvecs,
            index={kv: i for i, kv in enumerate(kvecs)},
        )


def _sector_matrices(sector: _Sector, nu_pairs, eps_pairs, cap: int):
    """Diagonals of N_+ and energy, and the generator, inside one sector."""
    kvecs = sector.kvecs
    dim = len(kvecs)
    occ = np.array(
        [[2 * k + d for k, d in zip(kv, sector.abs_d)] for kv in kvecs], dtype=float
    )
    nplus = occ.sum(axis=1)
    energy = occ @ np.asarray(eps_pairs, dtype=float)

    G = np.zeros((dim, dim))
    raises = []
    base = sum(sector.abs_d)
    for j, kv in enumerate(kvecs):
        total = 2 * sum(kv) + base
        for pi, (k, d) in enumerate(zip(kv, sector.abs_d)):
            if total + 2 <= cap:
                target = kv[:pi] + (k + 1,) + kv[pi + 1:]
                i = sector.index[target]
                amp = math.sqrt((k + 1) * (k + d + 1))
                G[i, j] += nu_pairs[pi] * amp
                G[j, i] -= nu_pairs[pi] * amp
                raises.append((pi, i, j, amp))
    return nplus, energy, G, raises


def _orthogonal_expm(G: np.ndarray) -> np.ndarray:
    """Exponential of an anti-symmetric block, orthogonality checked a posteriori."""
    U = expm(G)
    defect = float(np.max(np.abs(U.T @ U - np.eye(U.shape[0]))))
    if defect > 1e-10:
        raise GuardError(f"generator exponential lost orthogonality ({defect:.3e})")
    return U


def reference_sums(n_pairs, cap, nu_pairs, eps_pairs, beta, target_pair):
    """The sector loop of the rotated expectations: number, pairing and Z sums."""
    number_sum = 0.0
    pair_sum = 0.0
    z_sum = 0.0
    for sector in _iter_sectors(n_pairs, cap):
        nplus, energy, G, raises = _sector_matrices(sector, nu_pairs, eps_pairs, cap)
        weights = np.exp(-beta * energy)
        if not weights.any():
            continue
        U = _orthogonal_expm(G)
        conj_diag = (U * U).T @ nplus
        number_sum += sector.multiplicity * float(np.dot(weights, conj_diag))
        dim = len(sector.kvecs)
        R = np.zeros((dim, dim))
        for pi, i, j, amp in raises:
            if pi == target_pair:
                R[i, j] = amp
        conj_diag = np.einsum("ij,ij->j", U, R @ U)
        pair_sum += sector.multiplicity * float(np.dot(weights, conj_diag))
        z_sum += sector.multiplicity * float(np.sum(weights))
    return number_sum, pair_sum, z_sum


def assert_bits_equal(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert new.dtype == ref.dtype
    assert new.tobytes() == ref.tobytes()


def sector_states(n_pairs, cap):
    """Sum of the sector dimensions (each label once)."""
    return sum(
        math.comb((cap - sum(d)) // 2 + n_pairs, n_pairs)
        for d in _compositions(cap, n_pairs + 1)
    )


MAX_SECTOR_STATES = 4000
MAX_CAP = 24  # the adjudication runs at cap 14 by default
SIGNED_UNIT = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
ENERGY = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


@st.composite
def sector_cases(draw):
    """(n_pairs, cap, nu_pairs, eps_pairs): 1-4 pairs, cap <= 24, at most 4,000 sector states."""
    n_pairs = draw(st.integers(min_value=1, max_value=4))
    cap_max = 0
    while cap_max < MAX_CAP and sector_states(n_pairs, cap_max + 1) <= MAX_SECTOR_STATES:
        cap_max += 1
    cap = draw(st.integers(min_value=0, max_value=cap_max))
    nu_pairs = draw(st.lists(SIGNED_UNIT, min_size=n_pairs, max_size=n_pairs))
    eps_pairs = draw(st.lists(ENERGY, min_size=n_pairs, max_size=n_pairs))
    return n_pairs, cap, nu_pairs, eps_pairs


@given(case=sector_cases())
@settings(max_examples=60, deadline=None)
def test_sectors_bit_equal_reference(case):
    n_pairs, cap, nu_pairs, eps_pairs = case
    ref = list(_iter_sectors(n_pairs, cap))
    seen = np.zeros(len(ref), dtype=bool)
    for positions, abs_d, multiplicity, pattern in oracles._sectors(n_pairs, cap):
        stack = oracles._sector_matrices(
            abs_d, pattern, np.array(nu_pairs), np.array(eps_pairs)
        )
        _, pair, target, source = pattern
        for k, position in enumerate(positions.tolist()):
            sector = ref[position]
            assert not seen[position]
            seen[position] = True
            assert (tuple(abs_d[k].tolist()), int(multiplicity[k])) == (
                sector.abs_d,
                sector.multiplicity,
            )
            assert [tuple(kv) for kv in pattern[0].tolist()] == sector.kvecs
            nplus, energy, G, amp = (part[k] for part in stack)
            ref_nplus, ref_energy, ref_G, ref_raises = _sector_matrices(
                sector, nu_pairs, eps_pairs, cap
            )
            assert_bits_equal(nplus, ref_nplus)
            assert_bits_equal(energy, ref_energy)
            assert_bits_equal(G, ref_G)
            raises = list(zip(pair.tolist(), target.tolist(), source.tolist(), amp.tolist()))
            assert raises == ref_raises
    assert seen.all()


@st.composite
def rotation_cases(draw):
    """A basis of 1-3 +-p pairs of shells 1-2 with per-pair nu and eps inside the guard."""
    pairs = draw(st.lists(st.sampled_from(PAIRS), min_size=1, max_size=3, unique=True))
    cap = draw(st.integers(min_value=8, max_value=12))
    nu_pairs = draw(st.lists(st.floats(-0.3, 0.3), min_size=len(pairs), max_size=len(pairs)))
    eps_pairs = draw(st.lists(st.floats(0.5, 5.0), min_size=len(pairs), max_size=len(pairs)))
    beta = draw(st.floats(0.5, 3.0))
    modes = [m for pair in pairs for m in pair]
    nu = [v for v in nu_pairs for _ in range(2)]
    eps = [e for e in eps_pairs for _ in range(2)]
    mode = draw(st.sampled_from(modes))
    return build_basis(modes, cap), nu, eps, beta, mode


def assert_rotations_bit_equal(modes, cap, nu, eps, beta, mode):
    number, pairing = oracles._rotated_expectations(modes, cap, nu, eps, beta, mode)
    pairs = oracles.pair_partners(modes)
    position = [m.n for m in modes].index(mode.n)
    target_pair = next(pi for pi, pair in enumerate(pairs) if position in pair)
    number_sum, pair_sum, z_sum = reference_sums(
        len(pairs),
        cap,
        [nu[i] for i, _ in pairs],
        [eps[i] for i, _ in pairs],
        beta,
        target_pair,
    )
    assert number.Z == z_sum and pairing.Z == z_sum
    assert number.value == number_sum / z_sum
    assert pairing.value == pair_sum / z_sum


@given(case=rotation_cases())
@settings(max_examples=15, deadline=None)
def test_rotated_expectations_bit_equal_reference(case):
    basis, nu, eps, beta, mode = case
    assert_rotations_bit_equal(basis.modes, basis.cap, nu, eps, beta, mode)


def workload_rotation(beta=2.0):
    """Shell 1 at cap 14 and a = 0.045 on the unit lattice: 680 sectors.

    At beta = 2 the configuration of the ``oracle`` workload in
    perfbench/workloads.py, past the caps the property draws.
    """
    modes = shell_modes([1], momentum_scale=1.0)
    a = 0.045
    nu = [nu_coefficient(m.p_sq, a) for m in modes]
    eps = [dispersion(m.p_sq, a) for m in modes]
    return modes, 14, nu, eps, beta, modes[0]


# at beta = 60 every weight of the sectors with sum |d| >= 7 underflows
# (eps = 1.80), so part of most pair budgets stays out of the sums
@pytest.mark.parametrize("beta", [2.0, 60.0])
def test_rotated_expectations_bit_equal_reference_at_cap_14(beta):
    assert_rotations_bit_equal(*workload_rotation(beta))


def test_a_non_orthogonal_exponential_is_refused(monkeypatch):
    exact = oracles.expm

    def spoiled(G):
        U = exact(G)
        if len(G) > 1:
            U[-1] *= 1.0 + 1e-9  # the last of several slices: |U^T U - 1| = 2e-9
        return U

    monkeypatch.setattr(oracles, "expm", spoiled)
    with pytest.raises(GuardError, match="lost orthogonality"):
        oracles._rotated_expectations(*workload_rotation())


@pytest.mark.parametrize("parts", range(1, 8))
def test_compositions_match_generator(parts):
    for total in range(9):
        comps = compositions(total, parts)
        assert comps.dtype == np.int64
        assert not comps.flags.writeable
        assert comps.shape == (math.comb(total + parts - 1, parts - 1), parts)
        assert [tuple(c) for c in comps.tolist()] == list(_compositions(total, parts))
        assert composition_rank(comps).tolist() == list(range(len(comps)))


def reference_composition_rank(occ):
    """The rank with the stars table rebuilt by the double loop on every call."""
    n = occ.shape[1]
    suffix = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]
    stars = np.array(
        [[math.comb(s + k, k) for k in range(n)] for s in range(suffix[:, 0].max(initial=0) + 1)],
        dtype=np.int64,
    )
    k = np.arange(n - 1, 0, -1)
    return (stars[suffix[:, :-1], k] - stars[suffix[:, 1:], k]).sum(axis=1)


@given(
    rows=st.integers(1, 12).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n),
                           min_size=1, max_size=40)
    ),
)
@settings(max_examples=60, deadline=None)
def test_cached_stars_give_the_double_loop_ranks(rows):
    occ = np.array(rows, dtype=np.int64)
    assert composition_rank(occ).tolist() == reference_composition_rank(occ).tolist()
    # the cached table is shared between calls, so nobody may write to it
    stars = fock._stars(int(occ.sum(axis=1).max()), occ.shape[1])
    assert not stars.flags.writeable
    assert stars is fock._stars(int(occ.sum(axis=1).max()), occ.shape[1])


def test_compositions_need_a_part():
    with pytest.raises(ValueError):
        compositions(3, 0)


@given(
    modes=st.lists(st.sampled_from(SHELLS_1_2), min_size=1, max_size=7, unique=True),
    cap=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_basis_occupations_match_generator(modes, cap):
    basis = build_basis(modes, cap)
    states = list(
        itertools.chain.from_iterable(
            _compositions(total, len(modes)) for total in range(cap + 1)
        )
    )
    occ = basis.occupations()
    assert not occ.flags.writeable
    assert [tuple(s) for s in occ.tolist()] == states
    assert basis.totals.tolist() == [sum(s) for s in states]
    assert basis.rank(occ).tolist() == list(range(len(basis)))
