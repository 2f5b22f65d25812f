"""The tuple enumerators and the sector loops as the references of the capped oracles.

``bosegas.fock.compositions`` enumerates capped compositions as one array
and ``bosegas.fock.composition_rank`` ranks them in closed form; the Fock
basis uses them.  The functions below are what the package used before: a
recursive tuple generator for the basis, and for the rotated expectations
two recursive generators, a per-sector tuple-to-position dict, a loop that
moves one pair number at a time by tuple slicing, and one exponential per
sector.  Lexicographic order over the pair numbers k with sum k <= B is
the lexicographic order of the compositions of B with a slack slot, and
likewise for the sector labels, so every state order is unchanged.

Three loops sum the rotated expectations of pairs under one joint cap on
N_+: ``reference_sums`` over every per-pair sector, ``reference_orbit_sums``
over one sector per orbit of interchangeable pairs (equal nu and eps), with
the orbit weights, and ``reference_ladder_sums`` over the su(1,1) ladder
sectors of the groups of interchangeable pairs, stacked per pair budget,
which the package ran before it capped each group on its own.  The package
now caps N_+ of every group separately and exponentiates all ladders of a
group as one padded stack; with one group the two caps are the same.
``reference_rotation`` runs a joint loop on each group alone and combines
the groups as the package does: Z the product, N_+ the sum of the groups'
means, the pairing the target group's.  The package agrees with it within
the rounding of the two decompositions, with ``scipy.linalg.expm`` in place
of its exponential and with its own.

The package's own ``oracles.expm`` is a batched numpy Pade exponential;
``scipy.linalg.expm`` (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31
(2009)), which the package used before, is its reference, slice by slice.
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
from bosegas.bogoliubov import mode_coefficients
from bosegas.errors import GuardError
from bosegas.fock import build_basis, composition_rank, compositions
from bosegas.lattice import enumerate_shells, shell_modes

SHELLS_1_2 = [m for s in enumerate_shells(2) for m in s.members]
MODE_BY_TRIPLE = {m.n: m for m in SHELLS_1_2}
# the nine +-p pairs of shells 1 and 2, (+p, -p) with +p the larger triple
PAIRS = [(m, MODE_BY_TRIPLE[m.negated()]) for m in SHELLS_1_2 if m.n > m.negated()]
PAIRS_BY_SHELL = {
    norm_sq: [pair for pair in PAIRS if pair[0].norm_sq == norm_sq] for norm_sq in (1, 2)
}


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
    """Exponential of an anti-symmetric block or stack, orthogonality checked a posteriori."""
    U = expm(G)
    defect = float(np.max(np.abs(np.swapaxes(U, -1, -2) @ U - np.eye(U.shape[-1]))))
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


def _orbit_size(abs_d, groups):
    """Orbit size of a representative label (|d| non-increasing in every group), else None."""
    size = 1
    for members in groups:
        values = [abs_d[pi] for pi in members]
        if values != sorted(values, reverse=True):
            return None
        size *= math.factorial(len(values))
        for value in set(values):
            size //= math.factorial(values.count(value))
    return size


def reference_orbit_sums(n_pairs, cap, nu_pairs, eps_pairs, beta, target_pair):
    """The sector loop over orbit representatives: number, pairing and Z sums.

    Pairs with equal (nu, eps) are interchangeable.  A representative's
    terms count once per label of its orbit; the pairing term traces R_T,
    the raises of every pair of the target's group T (one dense R_t per
    pair, R_t U added in pair order), and the sum is divided by |T|.  Z
    takes every sector, as ``reference_sums`` does.
    """
    groups = {}
    for pi, key in enumerate(zip(nu_pairs, eps_pairs)):
        groups.setdefault(key, []).append(pi)
    target_group = groups[(nu_pairs[target_pair], eps_pairs[target_pair])]
    number_sum = 0.0
    pair_sum = 0.0
    z_sum = 0.0
    for sector in _iter_sectors(n_pairs, cap):
        nplus, energy, G, raises = _sector_matrices(sector, nu_pairs, eps_pairs, cap)
        weights = np.exp(-beta * energy)
        if not weights.any():
            continue
        z_sum += sector.multiplicity * float(np.sum(weights))
        orbit = _orbit_size(sector.abs_d, groups.values())
        if orbit is None:
            continue
        U = _orthogonal_expm(G)
        weight = sector.multiplicity * orbit
        conj_diag = (U * U).T @ nplus
        number_sum += weight * float(np.dot(weights, conj_diag))
        RU = np.zeros_like(U)
        for t in target_group:
            R = np.zeros_like(U)
            for pi, i, j, amp in raises:
                if pi == t:
                    R[i, j] = amp
            RU += R @ U
        conj_diag = np.einsum("ij,ij->j", U, RU)
        pair_sum += weight * float(np.dot(weights, conj_diag))
    return number_sum, pair_sum / len(target_group), z_sum


def _ladder_sectors(sizes, cap: int):
    """The ladder sectors grouped by pair budget, in increasing budget.

    ``sizes`` holds the number of pairs of each group.  Yields (positions,
    lowest, multiplicity, pattern) per budget: the positions of its labels
    in the lex order of all labels, the labels e (one lowest-weight N_+ per
    group, one row each), their multiplicities prod_g lw(m_g, e_g) and the
    pattern all of them share.
    """
    labels = compositions(cap, len(sizes) + 1)
    lowest = labels[:, :-1]
    budgets = labels[:, -1] // 2
    table = np.array([[oracles._lowest_weights(m, e) for e in range(cap + 1)] for m in sizes],
                     dtype=np.int64)
    multiplicity = table[np.arange(len(sizes)), lowest].prod(axis=1)
    for budget in sorted(set(budgets.tolist())):
        positions = np.flatnonzero(budgets == budget)
        pattern = _ladder_pattern(budget, len(sizes))
        yield positions, lowest[positions], multiplicity[positions], pattern


def _ladder_pattern(budget: int, n_groups: int):
    """Ladder steps k and raises of every sector with pair budget ``budget``.

    The states are the compositions of the budget into the groups plus a
    slack slot; raising group g moves one unit from the slack slot to slot
    g, and the composition rank locates the target.  Returns the ladder
    steps (one row per state) and the raises as (group, target, source)
    arrays in (source, group) order.
    """
    comps = compositions(budget, n_groups + 1)
    has_slack = np.repeat(comps[:, -1:] > 0, n_groups, axis=1)
    source, group = np.nonzero(has_slack)
    moved = comps[source]
    moved[np.arange(len(source)), group] += 1
    moved[:, -1] -= 1
    return comps[:, :-1], group, composition_rank(moved), source


def _ladder_diagonals(lowest, kvecs, eps_groups: np.ndarray):
    """Diagonals of N_+ and of the energy in every sector of one budget, one row per label."""
    occ = (2 * kvecs + np.asarray(lowest, dtype=np.int64)[:, None, :]).astype(float)
    return occ.sum(axis=2), occ @ eps_groups


def _ladder_matrices(lowest, pattern, nu_groups: np.ndarray, sizes: np.ndarray):
    """Generators and raise amplitudes of the sectors ``lowest`` of one budget.

    ``lowest`` holds one label per row, all of the budget of ``pattern``;
    both results have one slice per label.  Group g's raise from ladder
    step k has amplitude sqrt((k + 1) (k + e_g + m_g)).
    """
    kvecs, group, target, source = pattern
    e = np.asarray(lowest, dtype=np.int64)
    k = kvecs[source, group]
    amp = np.sqrt((k + 1) * (k + e[:, group] + sizes[group]))
    value = nu_groups[group] * amp
    G = np.zeros((len(e), len(kvecs), len(kvecs)))
    G[:, target, source] += value
    G[:, source, target] -= value
    return G, amp


def reference_ladder_sums(n_pairs, cap, nu_pairs, eps_pairs, beta, target_pair):
    """The ladder sectors under the joint cap: number, pairing and Z sums.

    A sector is labelled by one lowest weight e per group of interchangeable
    pairs, has budget B = (cap - sum e) // 2 and stands for prod lw(m, e)
    identical ones; the sectors of one budget go through one stacked
    exponential.  The pairing traces the target group's K_+ and is divided
    by the group's size.  Z takes every sector from its energies alone, and
    the terms are added in label order.
    """
    groups = oracles._pair_groups(np.array(nu_pairs, dtype=float), np.array(eps_pairs, dtype=float))
    target_group = next(g for g, members in enumerate(groups) if target_pair in members)
    sizes = np.array([len(members) for members in groups])
    first = [members[0] for members in groups]
    nu_groups = np.array(nu_pairs, dtype=float)[first]
    eps_groups = np.array(eps_pairs, dtype=float)[first]
    terms = np.zeros((3, math.comb(cap + len(groups), len(groups))))
    for positions, lowest, multiplicity, pattern in _ladder_sectors(sizes, cap):
        nplus, energy = _ladder_diagonals(lowest, pattern[0], eps_groups)
        weights = np.exp(-beta * energy)
        terms[2, positions] = multiplicity * weights.sum(axis=1)
        live = weights.any(axis=1)
        if not live.any():
            continue
        G, amp = _ladder_matrices(lowest[live], pattern, nu_groups, sizes)
        U = _orthogonal_expm(G)
        _, group, target, source = pattern
        mine = group == target_group
        KU = np.zeros_like(U)
        KU[:, target[mine]] += amp[:, mine, None] * U[:, source[mine]]
        number_diag = (U * U).transpose(0, 2, 1) @ nplus[live][:, :, None]
        pair_diag = np.einsum("kij,kij->kj", U, KU)[:, :, None]
        rows = weights[live][:, None, :]
        terms[:2, positions[live]] = multiplicity[live] * np.array(
            [(rows @ number_diag)[:, 0, 0], (rows @ pair_diag)[:, 0, 0]]
        )
    number_sum = pair_sum = z_sum = 0.0
    for number, pairing, z in zip(*terms.tolist()):
        number_sum += number
        pair_sum += pairing
        z_sum += z
    return number_sum, pair_sum / len(groups[target_group]), z_sum


def assert_bits_equal(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert new.dtype == ref.dtype
    assert new.tobytes() == ref.tobytes()


def sector_labels(n_pairs, cap):
    """Number of sector labels |d|: the compositions of the cap into the pairs and a slack slot."""
    return math.comb(cap + n_pairs, n_pairs)


MAX_SECTOR_LABELS = 4000
MAX_CAP = 24  # the adjudication runs at cap 14 by default
SIGNED_UNIT = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
ENERGY = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


@st.composite
def sector_cases(draw):
    """(n_pairs, cap, nu_pairs, eps_pairs): 1-4 pairs, cap <= 24, at most 4,000 sector labels."""
    n_pairs = draw(st.integers(min_value=1, max_value=4))
    cap_max = 0
    while cap_max < MAX_CAP and sector_labels(n_pairs, cap_max + 1) <= MAX_SECTOR_LABELS:
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
    # every pair a group of its own: the ladders are the |d| sectors
    sizes = np.ones(n_pairs, dtype=np.int64)
    for positions, abs_d, multiplicity, pattern in _ladder_sectors(sizes, cap):
        stack = (
            *_ladder_diagonals(abs_d, pattern[0], np.array(eps_pairs)),
            *_ladder_matrices(abs_d, pattern, np.array(nu_pairs), sizes),
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


@pytest.mark.parametrize("sizes, cap", [([1], 9), ([3], 14), ([2, 1], 8), ([3, 6], 4), ([1, 2, 3], 5)])
def test_ladder_sectors_count_the_capped_basis(sizes, cap):
    """Each ladder sector stands for prod_g lw(m_g, e_g) copies: together, every capped state."""
    states = 0
    for _, _, multiplicity, pattern in _ladder_sectors(sizes, cap):
        states += int(multiplicity.sum()) * len(pattern[0])
    modes = 2 * sum(sizes)
    assert states == math.comb(cap + modes, modes)


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


def rotation_groups(modes, nu, eps, mode):
    """Per group of interchangeable pairs: its (nu, eps), its size, and the position
    in it of the pair of ``mode`` if it holds that pair, else None."""
    pairs = oracles.pair_partners(modes)
    position = [m.n for m in modes].index(mode.n)
    groups, target = {}, None
    for pair in pairs:
        key = (nu[pair[0]], eps[pair[0]])
        members = groups.setdefault(key, [])
        if position in pair:
            target = (key, len(members))
        members.append(pair)
    return [(key, len(members), target[1] if key == target[0] else None)
            for key, members in groups.items()]


def reference_rotation(modes, cap, nu, eps, beta, mode, sums=reference_sums):
    """The number and pairing values and Z of a joint-cap loop run on each group alone.

    Combined as the package combines its groups: Z is the product of the
    groups' Z, N_+ the sum of their means and the pairing the target
    group's mean.  With one group it is the joint loop itself.
    """
    number, z, pairing = 0.0, 1.0, None
    for (nu_g, eps_g), m, target in rotation_groups(modes, nu, eps, mode):
        number_sum, pair_sum, z_sum = sums(m, cap, [nu_g] * m, [eps_g] * m, beta, target or 0)
        number += number_sum / z_sum
        z *= z_sum
        if target is not None:
            pairing = pair_sum / z_sum
    return number, pairing, z


EPS = np.finfo(float).eps


def rounding_bounds(m, cap, eps, beta):
    """The relative bound on Z and the absolute bound on a value of one group of m pairs.

    Fixed before measuring.  The terms: each value is a weighted mean of
    diagonal entries of U^T M U with |M| <= cap, so a few ulps of cap, and
    the two sums add at most one term per per-pair label in different
    orders, each within (n - 1) eps / 2 of the sum of the magnitudes
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.
    (2002), sec. 4.2): (16 + labels) eps cap.  The weights: a ladder's
    energy is eps N_+, a pair sector's the m-term dot product
    sum_i eps n_i, each within m eps E of the exact E <= cap eps, so
    e^{-beta E} moves by at most (2 m + 2) beta E eps relative, plus its
    own rounding.  A relative change delta of every weight moves Z by
    delta Z and a weighted mean of values up to cap by 2 delta cap.
    """
    labels = math.comb(cap + m, m)
    weight = (2 * m + 2) * beta * cap * eps * EPS + 2 * EPS
    terms = (16 + labels) * EPS
    return weight + terms, (terms + 2 * weight) * cap


def assert_rotations_near(number, pairing, reference, modes, cap, nu, eps, beta, mode):
    """The package's values and Z within the rounding of two decompositions of one trace.

    Per group ``rounding_bounds``; combining g groups adds their Z bounds
    and g - 1 roundings of the product, and their value bounds and the
    rounding of a sum of g means of at most cap each, g^2 eps cap.
    """
    number_value, pair_value, z = reference
    groups = rotation_groups(modes, nu, eps, mode)
    bounds = [rounding_bounds(m, cap, eps_g, beta) for (_, eps_g), m, _ in groups]
    z_bound = sum(z_g for z_g, _ in bounds) + len(groups) * EPS
    number_bound = sum(value for _, value in bounds) + len(groups) ** 2 * EPS * cap
    pair_bound = next(value for (_, value), (_, _, t) in zip(bounds, groups) if t is not None)
    for value in (number, pairing):
        assert abs(value.Z - z) <= z_bound * z
    assert abs(number.value - number_value) <= number_bound
    assert abs(pairing.value - pair_value) <= pair_bound


JOINT_LOOPS = (reference_sums, reference_orbit_sums, reference_ladder_sums)


def assert_rotations_match_references(modes, cap, nu, eps, beta, mode):
    """The package with scipy's exponential against every joint loop, per group.

    Within ``assert_rotations_near``'s bound of each loop; the per-pair and
    per-orbit loops share their Z bit for bit.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "expm", expm)
        number, pairing = oracles._rotated_expectations(modes, cap, nu, eps, beta, mode)
    case = (modes, cap, nu, eps, beta, mode)
    references = [reference_rotation(*case, sums=sums) for sums in JOINT_LOOPS]
    assert references[0][2] == references[1][2]
    for reference in references:
        assert_rotations_near(number, pairing, reference, *case)


@given(case=rotation_cases())
@settings(max_examples=15, deadline=None)
def test_rotated_expectations_bit_equal_reference(case):
    # pairs of their own (nu, eps): one group each, so mostly several groups
    basis, nu, eps, beta, mode = case
    assert_rotations_match_references(basis.modes, basis.cap, nu, eps, beta, mode)


def unit_rotation(shells, cap, beta, a=0.045):
    """The shells' modes on the unit lattice, their coefficients at ``a``, the first mode the target."""
    modes = shell_modes(shells, momentum_scale=1.0)
    c = mode_coefficients([m.p_sq for m in modes], a)
    return modes, cap, c.nu.tolist(), c.eps.tolist(), beta, modes[0]


def workload_rotation(beta=2.0):
    """Shell 1 at cap 14 and a = 0.045 on the unit lattice: 680 pair sectors, 15 ladders.

    At beta = 2 the configuration of the ``oracle`` workload in
    perfbench/workloads.py, past the caps the property draws.
    """
    return unit_rotation([1], 14, beta)


# at beta = 60 every weight of the sectors with sum |d| >= 7 (the ladders
# with e >= 7) underflows (eps = 1.80), so part of most pair budgets stays
# out of the sums; shell 1's three pairs are one group, whose cap is the joint cap
@pytest.mark.parametrize("beta", [2.0, 60.0])
def test_rotated_expectations_bit_equal_reference_at_cap_14(beta):
    assert_rotations_match_references(*workload_rotation(beta))


@pytest.mark.parametrize("beta", [2.0, 60.0])
def test_rotated_expectations_with_the_numpy_exponential_at_cap_14(beta):
    # the padded ladder stack against the loop over every sector, at the
    # bound of both decompositions
    assert_rotations_near_every_sector(*workload_rotation(beta))


@st.composite
def one_group_cases(draw):
    """1-3 +-p pairs of shell 1 with one (nu, eps): one group, cap 8-14, beta 0.5-60."""
    pairs = draw(st.lists(st.sampled_from(PAIRS_BY_SHELL[1]), min_size=1, max_size=3, unique=True))
    modes = [m for pair in pairs for m in pair]
    nu = [draw(st.floats(-0.3, 0.3))] * len(modes)
    eps = [draw(st.floats(0.5, 5.0))] * len(modes)
    cap = draw(st.integers(min_value=8, max_value=14))
    beta = draw(st.floats(0.5, 60.0))
    return modes, cap, nu, eps, beta, draw(st.sampled_from(modes))


@given(case=one_group_cases())
@settings(max_examples=20, deadline=None)
def test_one_group_matches_the_joint_references(case):
    """With one group the package's cap is the joint cap: every joint loop is its reference."""
    modes, _, nu, eps, _, mode = case
    assert len(rotation_groups(modes, nu, eps, mode)) == 1
    assert_rotations_near_every_sector(*case)
    assert_rotations_match_references(*case)


def sector_dimensions(n_pairs, cap):
    """Sum of the dimensions of all sectors: C(s + n - 1, n - 1) labels have sum |d| = s."""
    return sum(
        math.comb(total + n_pairs - 1, n_pairs - 1) * math.comb((cap - total) // 2 + n_pairs, n_pairs)
        for total in range(cap + 1)
    )


MAX_SHELL_STATES = 16000


@st.composite
def shell_rotation_cases(draw):
    """1-3 +-p pairs of shell 1 and 0-3 of shell 2, one (nu, eps) per shell, a target in either.

    The pairs of one shell are interchangeable, so there are one or two
    groups, and most orbits hold several sectors.  The cap is 8-12, and
    past 8 at most the largest cap with 16,000 sector states over all the
    pairs, which bounds the loop over every sector.
    """
    shells = [
        draw(st.lists(st.sampled_from(PAIRS_BY_SHELL[1]), min_size=1, max_size=3, unique=True)),
        draw(st.lists(st.sampled_from(PAIRS_BY_SHELL[2]), min_size=0, max_size=3, unique=True)),
    ]
    n_pairs = sum(len(pairs) for pairs in shells)
    cap_max = 8
    while cap_max < 12 and sector_dimensions(n_pairs, cap_max + 1) <= MAX_SHELL_STATES:
        cap_max += 1
    cap = draw(st.integers(min_value=8, max_value=cap_max))
    modes, nu, eps = [], [], []
    for pairs in shells:
        shell_nu = draw(st.floats(-0.3, 0.3))
        shell_eps = draw(st.floats(0.5, 5.0))
        modes += [m for pair in pairs for m in pair]
        nu += [shell_nu] * (2 * len(pairs))
        eps += [shell_eps] * (2 * len(pairs))
    beta = draw(st.floats(0.5, 3.0))
    return modes, cap, nu, eps, beta, draw(st.sampled_from(modes))


def assert_rotations_near_every_sector(modes, cap, nu, eps, beta, mode):
    """The numpy exponential over the padded ladder stacks against the loop over every sector.

    Per group, at ``assert_rotations_near``'s bound.  Where a group holds
    many pairs the loop's own summation order dominates: 4 pairs of energy
    1 and nu = 0 at cap 9 (715 labels) put the loop 5.0e-14 from the
    exactly rounded sum of its terms.
    """
    number, pairing = oracles._rotated_expectations(modes, cap, nu, eps, beta, mode)
    reference = reference_rotation(modes, cap, nu, eps, beta, mode)
    assert_rotations_near(number, pairing, reference, modes, cap, nu, eps, beta, mode)


@given(case=shell_rotation_cases())
@settings(max_examples=15, deadline=None)
def test_rotated_expectations_over_interchangeable_pairs(case):
    assert_rotations_near_every_sector(*case)
    assert_rotations_match_references(*case)


# at beta = 60 every weight with energy above 12.4 underflows: shell 1
# (eps = 1.80) from 7 quanta, shell 2 (eps = 2.92) from 5
@pytest.mark.parametrize("target_shell", [1, 2])
def test_rotated_expectations_over_two_shells_at_beta_60(target_shell):
    pairs = PAIRS_BY_SHELL[1] + PAIRS_BY_SHELL[2][:1]
    modes = [m for pair in pairs for m in pair]
    a = 0.045
    c = mode_coefficients([m.p_sq for m in modes], a)
    nu, eps = c.nu.tolist(), c.eps.tolist()
    mode = PAIRS_BY_SHELL[target_shell][0][1]
    assert_rotations_near_every_sector(modes, 12, nu, eps, 60.0, mode)
    assert_rotations_match_references(modes, 12, nu, eps, 60.0, mode)


@pytest.mark.parametrize("shells, cap, shapes", [
    pytest.param([1], 12, [(13, 7, 7)], id="cap12"),
    pytest.param([1], 14, [(15, 8, 8)], id="cap14"),
    pytest.param([1, 2], 10, [(11, 6, 6)] * 2, id="shells12-cap10"),
])
def test_one_exponential_per_group(monkeypatch, shells, cap, shapes):
    """One (cap + 1, cap // 2 + 1, cap // 2 + 1) stack per group of interchangeable pairs.

    Ladder e <= cap has (cap - e) // 2 + 1 states and is padded to the
    length of ladder 0; a shell's pairs are one group.
    """
    seen = []
    exact = oracles.expm

    def counting(G):
        seen.append(G.shape)
        return exact(G)

    monkeypatch.setattr(oracles, "expm", counting)
    oracles._rotated_expectations(*unit_rotation(shells, cap, 2.0))
    assert seen == shapes


@st.composite
def antisymmetric_stacks(draw, norms=st.floats(min_value=0.0, max_value=50.0)):
    """A (k, s, s) stack of anti-symmetric matrices whose largest 1-norm is drawn from ``norms``."""
    k = draw(st.integers(min_value=1, max_value=4))
    s = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    norm = draw(norms)
    X = np.random.default_rng(seed).standard_normal((k, s, s))
    A = X - X.transpose(0, 2, 1)
    return A * (norm / np.abs(A).sum(axis=1).max())


# norms inside the bound of each Pade degree (3, 5, 7, 9, 13) and past it,
# where the stack is scaled and squared 1-4 times
@pytest.mark.parametrize("norm", [0.0, 0.01, 0.2, 0.9, 2.0, 5.0, 10.0, 20.0, 50.0])
def test_expm_matches_scipy_at_every_pade_degree(norm):
    @given(stack=antisymmetric_stacks(norms=st.just(norm)))
    @settings(max_examples=10, deadline=None)
    def check(stack):
        assert_expm_matches_scipy(stack)

    check()


@given(stack=antisymmetric_stacks())
@settings(max_examples=60, deadline=None)
def test_expm_matches_scipy_on_random_norms(stack):
    assert_expm_matches_scipy(stack)


def assert_expm_matches_scipy(stack):
    """``oracles.expm`` against scipy's and against the spectral exponential, slice by slice.

    For anti-symmetric A, iA is Hermitian, so exp(A) = V diag(e^{-i lam}) V^H
    from its ``eigh``: a third route, accurate to O(s eps |A|).  The bound
    against it was fixed from the dtype: the truncation is backward stable
    to unit roundoff relative to |A|_1, and each of the s-term products and
    squarings adds O(s eps) relative to exp(A), whose entries are at most 1
    (it is orthogonal).  scipy's exponential is not held to that bound: on
    2 x 2 slices with |A|_1 near 17 or 33 it is 1,500-2,400 eps away from
    the closed-form rotation, so the slices need only agree with it to half
    the digits; the tight bound is the spectral one.
    """
    s = stack.shape[-1]
    norm = float(np.abs(stack).sum(axis=1).max())
    tol = 32 * s * EPS * (1.0 + norm)
    U = oracles.expm(stack)
    assert U.shape == stack.shape
    for A, u in zip(stack, U):
        lam, V = np.linalg.eigh(1j * A)
        spectral = ((V * np.exp(-1j * lam)) @ V.conj().T).real
        assert float(np.max(np.abs(u - spectral))) <= tol
        assert float(np.max(np.abs(u - expm(A)))) <= np.sqrt(EPS)


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
