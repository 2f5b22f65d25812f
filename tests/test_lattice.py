import math

import numpy as np
import pytest

from bosegas.lattice import (
    TWO_PI,
    enumerate_shells,
    lattice_sum,
    modes_up_to,
    shell_modes,
    shell_table,
    tail_norm_bound,
)
from bosegas.bogoliubov import mu_sq


def brute_multiplicities(max_norm_sq):
    counts = {}
    m = math.isqrt(max_norm_sq)
    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            for c in range(-m, m + 1):
                j = a * a + b * b + c * c
                if 1 <= j <= max_norm_sq:
                    counts[j] = counts.get(j, 0) + 1
    return counts


def test_shell_modes_lists_the_requested_shells_in_order():
    # repeated norms count once, and 7 is no sum of three squares
    modes = shell_modes([3, 1, 3, 7], momentum_scale=1.0)
    assert [m.norm_sq for m in modes] == [1] * 6 + [3] * 8
    assert modes[:6] == enumerate_shells(1, 1.0)[0].members
    assert [m.n for m in modes[6:]] == sorted(m.n for m in modes[6:])
    assert all(m.p_sq == m.norm_sq for m in modes)
    assert shell_modes([2]) == enumerate_shells(2)[1].members


def test_first_shell_is_the_six_unit_vectors():
    shells = enumerate_shells(1)
    assert len(shells) == 1
    assert shells[0].norm_sq == 1
    assert shells[0].multiplicity == 6
    assert {m.n for m in shells[0].members} == {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
    }


@pytest.mark.parametrize("max_norm_sq,expected", [(2, {1: 6, 2: 12}), (3, {1: 6, 2: 12, 3: 8})])
def test_small_shell_multiplicities(max_norm_sq, expected):
    shells = enumerate_shells(max_norm_sq)
    assert {s.norm_sq: s.multiplicity for s in shells} == expected


def test_multiplicities_match_brute_force_up_to_100():
    shells = enumerate_shells(100)
    assert {s.norm_sq: s.multiplicity for s in shells} == brute_multiplicities(100)


def test_shell_table_matches_brute_force_triple_count_up_to_2000():
    m = math.isqrt(2000)
    axis = np.arange(-m, m + 1) ** 2
    norms = (axis[:, None, None] + axis[None, :, None] + axis[None, None, :]).ravel()
    r3 = np.bincount(norms[norms <= 2000], minlength=2001)
    norm_sq, multiplicity, _ = shell_table(2000)
    assert norm_sq.tolist() == (np.flatnonzero(r3[1:]) + 1).tolist()
    assert multiplicity.tolist() == r3[norm_sq].tolist()


def test_shell_table_is_read_only_and_agrees_with_explicit_shells():
    shells = enumerate_shells(100)
    for scale in (TWO_PI, 1.0):
        norm_sq, multiplicity, p_sq = shell_table(100, scale)
        explicit = enumerate_shells(100, momentum_scale=scale)
        assert norm_sq.tolist() == [s.norm_sq for s in shells]
        assert multiplicity.tolist() == [s.multiplicity for s in shells]
        assert p_sq.tolist() == [s.members[0].p_sq for s in explicit]
        for column in (norm_sq, multiplicity, p_sq):
            with pytest.raises(ValueError):
                column[0] = 7
    with pytest.raises(ValueError):
        shell_table(0)


def test_unrepresentable_norms_are_absent():
    norms = {s.norm_sq for s in enumerate_shells(16)}
    assert 7 not in norms and 15 not in norms


def test_enumeration_is_deterministic_and_ordered():
    a = enumerate_shells(30)
    b = enumerate_shells(30)
    assert [s.norm_sq for s in a] == sorted(s.norm_sq for s in a)
    for sa, sb in zip(a, b):
        assert [m.n for m in sa.members] == [m.n for m in sb.members]
        assert [m.n for m in sa.members] == sorted(m.n for m in sa.members)


def test_modes_carry_scaled_momentum_and_negation_closure():
    modes = modes_up_to(5)
    triples = {m.n for m in modes}
    for m in modes:
        assert (-m.n[0], -m.n[1], -m.n[2]) in triples
        assert m.p == tuple(TWO_PI * c for c in m.n)
        assert m.p_sq == pytest.approx(TWO_PI**2 * m.norm_sq, rel=1e-15)


def test_zero_mode_is_rejected():
    from bosegas.lattice import Mode

    with pytest.raises(ValueError):
        Mode(n=(0, 0, 0), p=(0.0, 0.0, 0.0), p_sq=0.0)


def test_lattice_sum_of_zero_is_zero():
    res = lattice_sum(lambda p_sq: 0.0, 30, tail_exponent=2.0)
    assert res.value == 0.0
    assert res.tail_bound == 0.0
    assert res.cutoff_norm_sq == 30


def test_lattice_sum_of_mu_sq_vanishes_for_zero_scattering_length():
    res = lattice_sum(lambda p_sq: mu_sq(p_sq, 0.0), 20, tail_exponent=2.0)
    assert res.value == 0.0


def test_lattice_sum_rejects_non_summable_tail():
    with pytest.raises(ValueError):
        lattice_sum(lambda p_sq: p_sq**-2, 10, tail_exponent=1.5)


def test_inverse_quartic_sum_cutoff_consistency():
    f = lambda p_sq: p_sq**-2  # noqa: E731
    small = lattice_sum(f, 30, tail_exponent=2.0)
    large = lattice_sum(f, 120, tail_exponent=2.0)
    assert abs(large.value - small.value) <= small.tail_bound
    assert large.value >= small.value  # cutoff-monotone for non-negative f


def test_mu_sq_sum_tail_bound_covers_quadrupled_cutoff():
    f = lambda p_sq: mu_sq(p_sq, 1.0)  # noqa: E731
    small = lattice_sum(f, 100, tail_exponent=2.0)
    large = lattice_sum(f, 400, tail_exponent=2.0)
    assert abs(large.value - small.value) <= small.tail_bound


def test_lattice_sum_is_bit_reproducible():
    f = lambda p_sq: mu_sq(p_sq, 0.7)  # noqa: E731
    first = lattice_sum(f, 50, tail_exponent=2.0)
    second = lattice_sum(f, 50, tail_exponent=2.0)
    assert first.value == second.value
    assert first.tail_bound == second.tail_bound


def test_tail_norm_bound_dominates_true_tail():
    # sum over |n|^2 > K of |n|^-4, checked against a much larger cutoff
    f = lambda m: (m.norm_sq) ** -2.0  # noqa: E731
    total_far = sum(f(m) for m in modes_up_to(900))
    total_near = sum(f(m) for m in modes_up_to(64))
    assert total_far - total_near <= tail_norm_bound(64, 2.0)
