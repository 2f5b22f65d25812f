import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosegas.bogoliubov import (
    Variant,
    bose_occupation,
    depletion_sums,
    mode_coefficients,
)
from bosegas.lattice import TWO_PI, enumerate_shells, shell_table

# independently evaluated: sqrt((2 pi)^4 + 16 pi (2 pi)^2) at 40 digits
DISPERSION_UNIT_MODE_A1 = 59.522660929122006844


def test_dispersion_free_gas_reduces_to_kinetic():
    assert mode_coefficients(4.0 * math.pi**2, 0.0).eps == 4.0 * math.pi**2


def test_dispersion_frozen_value():
    val = mode_coefficients(TWO_PI**2, 1.0).eps
    assert val == pytest.approx(DISPERSION_UNIT_MODE_A1, rel=1e-14)


@pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
def test_dispersion_dominates_kinetic_energy(a):
    for shell in enumerate_shells(20):
        p_sq = shell.members[0].p_sq
        assert mode_coefficients(p_sq, a).eps > p_sq
        assert mode_coefficients(p_sq, 0.0).eps == p_sq


def test_dispersion_monotone_in_both_arguments():
    assert mode_coefficients(2.0, 1.0).eps < mode_coefficients(3.0, 1.0).eps
    assert mode_coefficients(2.0, 1.0).eps < mode_coefficients(2.0, 2.0).eps


def test_mu_sq_vanishes_without_interaction():
    assert mode_coefficients(7.7, 0.0).mu_sq == 0.0


def test_mu_sq_matches_direct_formula():
    c = mode_coefficients(5.0, 0.7)
    direct = (5.0 + 8 * math.pi * 0.7 - c.eps) / (2 * c.eps)
    assert c.mu_sq == pytest.approx(direct, rel=1e-12)


def test_mu_sq_large_momentum_envelope():
    # p^4 mu^2 approaches 16 pi^2 a^2 from below
    a = 0.3
    limit = 16.0 * math.pi**2 * a * a
    vals = []
    for norm_sq in (400, 1600):
        p_sq = TWO_PI**2 * norm_sq
        vals.append(p_sq**2 * mode_coefficients(p_sq, a).mu_sq)
    assert vals[0] < vals[1] < limit
    assert vals[1] == pytest.approx(limit, rel=1e-2)


def test_bose_occupation_is_stable_and_underflows_cleanly():
    assert bose_occupation(1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-15)
    assert bose_occupation(1e-8) == pytest.approx(1e8, rel=1e-6)
    assert bose_occupation(1e5) == 0.0


def test_theta_sq_zero_temperature_limit():
    c = mode_coefficients(TWO_PI**2, 1.0, 1e3)
    for variant in Variant:
        assert c.theta_sq(variant) < 1e-30


def test_theta_sq_free_gas_variant_B_is_bose_occupation():
    p_sq, beta = TWO_PI**2, 0.5
    assert mode_coefficients(p_sq, 0.0, beta).theta_sq_B == pytest.approx(
        bose_occupation(beta * p_sq), rel=1e-14
    )


def test_theta_sq_variants_differ_by_dispersion_factor():
    c = mode_coefficients(2.0 * TWO_PI**2, 0.4, 0.02)
    assert c.theta_sq_A == pytest.approx(c.theta_sq_B * c.eps, rel=1e-14)


def test_pairing_vanishes_without_interaction():
    c = mode_coefficients(3.0, 0.0, 1.0)
    for variant in Variant:
        assert c.pairing(variant) == 0.0


def test_pairing_variants_coincide_at_zero_temperature():
    a = 0.7
    c = mode_coefficients(TWO_PI**2, a, 1e3)
    for variant in Variant:
        val = c.pairing(variant)
        assert val == pytest.approx(-4.0 * math.pi * a / c.eps, rel=1e-14)
        assert val < 0.0


def test_pairing_variant_B_equals_rotation_identity():
    # B-form is sinh(2 nu)/2 * (1 + 2/(e^{beta eps}-1)), sinh(2 nu) = -8 pi a/eps
    a, beta = 0.05, 2.0
    c = mode_coefficients(1.0, a, beta)
    nu = float(c.nu)
    expected = 0.5 * math.sinh(2 * nu) * (1.0 + 2.0 * bose_occupation(beta * c.eps))
    assert c.pairing_B == pytest.approx(expected, rel=1e-12)
    assert math.sinh(2 * nu) == pytest.approx(-8.0 * math.pi * a / c.eps, rel=1e-12)


@pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
def test_hyperbolic_identities_on_shells(a):
    for shell in enumerate_shells(50):
        p_sq = shell.members[0].p_sq
        c = mode_coefficients(p_sq, a)
        assert math.sinh(c.nu) ** 2 == pytest.approx(c.mu_sq, rel=1e-12)
        assert math.cosh(2 * c.nu) == pytest.approx((p_sq + 8 * math.pi * a) / c.eps, rel=1e-12)


@given(
    a=st.floats(min_value=1e-3, max_value=50.0),
    norm_sq=st.integers(min_value=1, max_value=5000),
)
@settings(max_examples=200, deadline=None)
def test_hyperbolic_identities_property(a, norm_sq):
    c = mode_coefficients(TWO_PI**2 * norm_sq, a)
    assert math.sinh(c.nu) ** 2 == pytest.approx(c.mu_sq, rel=1e-11)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_theta_identities_per_convention(beta):
    a = 0.8
    for shell in enumerate_shells(20):
        c = mode_coefficients(shell.members[0].p_sq, a, beta)
        cosh2 = math.cosh(2.0 * c.nu)
        occ = bose_occupation(beta * c.eps)
        assert c.theta_sq_A == pytest.approx(cosh2 * c.eps * occ, rel=1e-12)
        assert c.theta_sq_B == pytest.approx(cosh2 * occ, rel=1e-12)


def test_coefficients_decrease_along_shells():
    a, beta = 1.0, 1.0
    rows = [mode_coefficients(s.members[0].p_sq, a, beta) for s in enumerate_shells(30)]
    for prev, cur in zip(rows[:-1], rows[1:]):
        assert cur.mu_sq < prev.mu_sq
        # theta saturates at exact 0 once the Bose factor underflows
        assert cur.theta_sq_A < prev.theta_sq_A or prev.theta_sq_A == 0.0
        assert cur.theta_sq_B < prev.theta_sq_B or prev.theta_sq_B == 0.0
        assert abs(cur.pairing_A) < abs(prev.pairing_A)
        assert abs(cur.pairing_B) < abs(prev.pairing_B)


def test_mode_coefficients_internal_consistency():
    shell = enumerate_shells(3)[1]
    c = mode_coefficients(shell.members[0].p_sq, 0.5, 0.7)
    assert c.theta_sq_A == pytest.approx(c.theta_sq_B * c.eps, rel=1e-14)
    assert c.mu_sq >= 0.0 and c.nu <= 0.0


def test_mode_coefficients_refuses_negative_a_and_non_positive_beta():
    # at beta <= 0 the Bose factor divides by zero or turns negative; a NaN
    # compares false both ways, so the checks are written to refuse it
    for a in (-1.0, math.nan):
        with pytest.raises(ValueError, match="scattering length must be non-negative"):
            mode_coefficients(TWO_PI**2, a, 1.0)
    for beta in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="inverse temperature must be positive"):
            mode_coefficients(TWO_PI**2, 1.0, beta)
    # beta = inf is zero temperature, which the adjudication and nu use
    assert mode_coefficients(TWO_PI**2, 1.0, math.inf).theta_sq_B == 0.0


def sums(a, beta, variant, cutoff):
    """``depletion_sums`` on the coefficient columns at the shells up to ``cutoff``."""
    return depletion_sums(mode_coefficients(shell_table(cutoff)[2], a, beta), variant, cutoff)


def test_depletion_sums_trivial_cases():
    zero_a = sums(0.0, 1.0, Variant.B, 30)
    assert zero_a["sum_mu"].value == 0.0
    cold = sums(1.0, 1e3, Variant.B, 30)
    assert cold["sum_theta"].value == 0.0


def test_depletion_sums_cutoff_self_consistency():
    small = sums(1.0, 1.0, Variant.B, 400)
    large = sums(1.0, 1.0, Variant.B, 1600)
    for key in ("sum_mu", "sum_theta"):
        assert abs(large[key].value - small[key].value) <= small[key].tail_bound


def test_shell_constancy_of_all_coefficients():
    a, beta = 0.6, 0.9
    for shell in enumerate_shells(9):
        c = mode_coefficients([m.p_sq for m in shell.members], a, beta)
        values = set(zip(c.eps.tolist(), c.mu_sq.tolist(), c.theta_sq_A.tolist(), c.nu.tolist()))
        assert len(values) == 1
