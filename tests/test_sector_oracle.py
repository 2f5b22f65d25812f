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
labels, so every state order is unchanged.

The package now splits the capped problem into su(1,1) ladders, one
effective pair per group of interchangeable pairs (equal nu and eps), and
exponentiates the ladder sectors of one pair budget in one call; a group
of one pair is exactly one +-p pair's |d| sector.  ``reference_sums`` is
the loop over every per-pair sector, ``reference_orbit_sums`` the loop
over one sector per orbit of interchangeable pairs, with the orbit
weights, which the package ran before the ladders.  With
``scipy.linalg.expm``, which runs its per-slice code on every slice of a
stack, in place of the package's exponential, the package must agree with
both loops bit for bit when no two pairs are interchangeable, and within
the rounding of the two decompositions when some are.

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
    for positions, abs_d, multiplicity, pattern in oracles._sectors(sizes, cap):
        stack = (
            *oracles._sector_diagonals(abs_d, pattern[0], np.array(eps_pairs)),
            *oracles._sector_matrices(abs_d, pattern, np.array(nu_pairs), sizes),
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
    for _, _, multiplicity, pattern in oracles._sectors(sizes, cap):
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


def reference_rotation(modes, cap, nu, eps, beta, mode, sums=reference_sums):
    """A reference loop's number, pairing and Z sums for ``_rotated_expectations``."""
    pairs = oracles.pair_partners(modes)
    position = [m.n for m in modes].index(mode.n)
    target_pair = next(pi for pi, pair in enumerate(pairs) if position in pair)
    return sums(
        len(pairs),
        cap,
        [nu[i] for i, _ in pairs],
        [eps[i] for i, _ in pairs],
        beta,
        target_pair,
    )


EPS = np.finfo(float).eps


def assert_rotations_near(number, pairing, sums, modes, cap, eps, beta):
    """The package's values and Z within the rounding of two decompositions of one trace.

    Fixed before measuring.  The terms: each value is a weighted mean of
    diagonal entries of U^T M U with |M| <= cap, so a few ulps of cap, and
    the two sums add at most one term per per-pair label in different
    orders, each within (n - 1) eps / 2 of the sum of the magnitudes
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.
    (2002), sec. 4.2): (16 + labels) eps cap.  The weights: a ladder's
    energy is eps_g N_+^g, a pair sector's the n-term dot product
    sum_i eps_i n_i, each within n eps E of the exact E <= cap max(eps),
    so e^{-beta E} moves by at most (2 n + 2) beta E eps relative, plus
    its own rounding.  A relative change delta of every weight moves Z by
    delta Z and a weighted mean of values up to cap by 2 delta cap.
    """
    number_sum, pair_sum, z_sum = sums
    n_pairs = len(modes) // 2
    labels = math.comb(cap + n_pairs, n_pairs)
    weight = (2 * n_pairs + 2) * beta * cap * max(eps) * EPS + 2 * EPS
    terms = (16 + labels) * EPS
    for value in (number, pairing):
        assert abs(value.Z - z_sum) <= (weight + terms) * z_sum
    assert abs(number.value - number_sum / z_sum) <= (terms + 2 * weight) * cap
    assert abs(pairing.value - pair_sum / z_sum) <= (terms + 2 * weight) * cap


def assert_rotations_bit_equal(modes, cap, nu, eps, beta, mode):
    """The package with scipy's exponential against both reference loops.

    Bit for bit when every group of interchangeable pairs holds one pair,
    else within ``assert_rotations_near``'s bound of each loop; the loops
    share their Z bit for bit.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "expm", expm)
        number, pairing = oracles._rotated_expectations(modes, cap, nu, eps, beta, mode)
    case = (modes, cap, nu, eps, beta, mode)
    orbit_sums = reference_rotation(*case, sums=reference_orbit_sums)
    every_label = reference_rotation(*case)
    assert every_label[2] == orbit_sums[2]
    pairs = oracles.pair_partners(modes)
    if len({(nu[i], eps[i]) for i, _ in pairs}) == len(pairs):
        number_sum, pair_sum, z_sum = orbit_sums
        assert number.Z == z_sum and pairing.Z == z_sum
        assert number.value == number_sum / z_sum
        assert pairing.value == pair_sum / z_sum
        assert every_label == orbit_sums
    else:
        for sums in (every_label, orbit_sums):
            assert_rotations_near(number, pairing, sums, modes, cap, eps, beta)


@given(case=rotation_cases())
@settings(max_examples=15, deadline=None)
def test_rotated_expectations_bit_equal_reference(case):
    basis, nu, eps, beta, mode = case
    assert_rotations_bit_equal(basis.modes, basis.cap, nu, eps, beta, mode)


def workload_rotation(beta=2.0):
    """Shell 1 at cap 14 and a = 0.045 on the unit lattice: 680 pair sectors, 15 ladders.

    At beta = 2 the configuration of the ``oracle`` workload in
    perfbench/workloads.py, past the caps the property draws.
    """
    modes = shell_modes([1], momentum_scale=1.0)
    a = 0.045
    c = mode_coefficients([m.p_sq for m in modes], a)
    nu, eps = c.nu.tolist(), c.eps.tolist()
    return modes, 14, nu, eps, beta, modes[0]


# at beta = 60 every weight of the sectors with sum |d| >= 7 (the ladders
# with e >= 7) underflows (eps = 1.80), so part of most pair budgets stays
# out of the sums; shell 1's three pairs are one group, so the package is
# held to the rounding bound of the two decompositions
@pytest.mark.parametrize("beta", [2.0, 60.0])
def test_rotated_expectations_bit_equal_reference_at_cap_14(beta):
    assert_rotations_bit_equal(*workload_rotation(beta))


@pytest.mark.parametrize("beta", [2.0, 60.0])
def test_rotated_expectations_with_the_numpy_exponential_at_cap_14(beta):
    # shell 1's three pairs are one group: the ladders against the loop
    # over every sector, at the bound of both decompositions
    case = workload_rotation(beta)
    number, pairing = oracles._rotated_expectations(*case)
    modes, cap, _, eps, beta, _ = case
    sums = reference_rotation(*case)
    assert_rotations_near(number, pairing, sums, modes, cap, eps, beta)


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

    The pairs of one shell are interchangeable, so most orbits hold several
    sectors.  The cap is 8-12, and past 8 at most the largest cap with
    16,000 sector states, which bounds the loop over every sector.
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
    """The numpy exponential over the ladders against the loop over every sector.

    The bound is ``assert_rotations_near``'s.  Where a group holds many
    pairs the loop's own summation order dominates: 4 pairs of energy 1 and
    nu = 0 at cap 9 (715 labels) put the loop 5.0e-14 from the exactly
    rounded sum of its terms.
    """
    number, pairing = oracles._rotated_expectations(modes, cap, nu, eps, beta, mode)
    sums = reference_rotation(modes, cap, nu, eps, beta, mode)
    assert_rotations_near(number, pairing, sums, modes, cap, eps, beta)


@given(case=shell_rotation_cases())
@settings(max_examples=15, deadline=None)
def test_rotated_expectations_over_interchangeable_pairs(case):
    assert_rotations_near_every_sector(*case)
    assert_rotations_bit_equal(*case)


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
    assert_rotations_bit_equal(modes, 12, nu, eps, 60.0, mode)


@pytest.mark.parametrize("cap, calls, slices, cubes", [(12, 7, 13, 1_225), (14, 8, 15, 2_080)])
def test_one_exponential_per_ladder_budget(monkeypatch, cap, calls, slices, cubes):
    """Shell 1's three pairs are one group: one ladder per lowest weight e <= cap.

    Ladder e has (cap - e) // 2 + 1 states, and the ladders of one pair
    budget share one call: at cap 14 slices of 8, 7, 7, 6, 6, ... 1, 1 states.
    """
    shapes = []
    exact = oracles.expm

    def counting(G):
        shapes.append(G.shape)
        return exact(G)

    monkeypatch.setattr(oracles, "expm", counting)
    modes, _, nu, eps, beta, mode = workload_rotation()
    oracles._rotated_expectations(modes, cap, nu, eps, beta, mode)
    assert len(shapes) == calls
    assert sum(k for k, _, _ in shapes) == slices
    assert sum(k * s**3 for k, s, _ in shapes) == cubes


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
