import math

import numpy as np
import pytest
from scipy.linalg import expm

from bosegas.bogoliubov import bose_occupation, dispersion, nu_coefficient
from bosegas.errors import GuardError
from bosegas.fock import (
    HermitianOperator,
    build_basis,
    build_D,
    build_quadratic_generator,
    expect,
    gibbs,
    ladder,
    number_operator,
    total_number,
)
from bosegas.lattice import enumerate_shells
from bosegas.oracles import (
    adjudicate_variants,
    occupation_closed_form,
    pairing_expectation,
    partition_product_check,
    rotated_number_expectation,
    squeezing_truncation_bound,
    toy_gibbs_experiment,
)
from bosegas.scattering import RadialPotential, zero_potential
from sparse_reference import csr

UNIT_SHELL1 = [m for s in enumerate_shells(1, momentum_scale=1.0) for m in s.members]
PHYS_SHELL1 = [m for s in enumerate_shells(1) for m in s.members]

# direct finite sum: sum_{k<=5} k e^-k / sum_{k<=5} e^-k at 40 digits
CAPPED_OCC_M5 = 0.5670672369282589


def unit_pair():
    return [m for m in UNIT_SHELL1 if m.n in ((1, 0, 0), (-1, 0, 0))]


class TestOccupationClosedForm:
    def test_single_mode_geometric_ratio(self):
        capped, uncapped = occupation_closed_form([1.0], beta=1.0, cap=5)
        assert capped == pytest.approx(CAPPED_OCC_M5, rel=1e-14)
        assert uncapped == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)

    def test_large_cap_recovers_bose_factor(self):
        capped, uncapped = occupation_closed_form([0.8], beta=1.0, cap=80)
        assert capped == pytest.approx(uncapped, rel=1e-12)

    def test_cold_limit_is_leading_boltzmann_weight(self):
        eps, beta = 1.0, 12.0
        capped, uncapped = occupation_closed_form([eps], beta=beta, cap=6)
        assert capped == pytest.approx(math.exp(-beta * eps), rel=1e-4)
        assert uncapped == pytest.approx(math.exp(-beta * eps), rel=1e-4)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_matches_gibbs_route_to_machine_precision(self, beta):
        a = 0.05
        eps = np.array([dispersion(m.p_sq, a) for m in UNIT_SHELL1])
        basis = build_basis(UNIT_SHELL1, 9)
        gs = gibbs(build_D(basis, eps), beta)
        for j, mode in enumerate(UNIT_SHELL1[:2]):
            via_gibbs = expect(gs, HermitianOperator(basis, number_operator(basis, mode)))
            capped, _ = occupation_closed_form(eps, beta, basis.cap, mode=j)
            assert via_gibbs == pytest.approx(capped, rel=1e-12)


class TestPartitionSandwich:
    def test_single_mode_is_exact_geometric_series(self):
        one = [m for m in UNIT_SHELL1 if m.n == (1, 0, 0)]
        basis = build_basis(one, 7)
        res = partition_product_check(basis, [1.5], beta=0.9)
        exact = sum(math.exp(-0.9 * 1.5 * k) for k in range(8))
        assert res.brute == pytest.approx(exact, rel=1e-14)
        assert res.brute == pytest.approx(res.product_upper, rel=1e-14)

    def test_shell_sandwich_and_monotone_gap(self):
        eps = np.array([dispersion(m.p_sq, 0.05) for m in UNIT_SHELL1])
        gaps, excesses = [], []
        for cap in (8, 12, 16):
            basis = build_basis(UNIT_SHELL1, cap)
            res = partition_product_check(basis, eps, beta=1.0)
            assert res.product_lower <= res.brute <= res.product_upper
            assert res.uncapped - res.brute <= res.gap
            gaps.append(res.gap)
            excesses.append(res.uncapped - res.brute)
        assert gaps[0] > gaps[1] > gaps[2]
        assert excesses[0] > excesses[1] > excesses[2]

    def test_doubling_beta_shrinks_everything(self):
        eps = np.array([dispersion(m.p_sq, 0.05) for m in UNIT_SHELL1])
        basis = build_basis(UNIT_SHELL1, 8)
        r1 = partition_product_check(basis, eps, beta=1.0)
        r2 = partition_product_check(basis, eps, beta=2.0)
        assert r2.brute < r1.brute
        assert r2.gap < r1.gap

    def test_mu_validation(self):
        basis = build_basis(unit_pair(), 4)
        with pytest.raises(ValueError):
            partition_product_check(basis, [1.0, 1.0], beta=1.0, mu=1.5)


class TestRotatedExpectations:
    def test_sector_route_matches_dense_conjugation(self):
        a, beta = 0.05, 2.0
        basis = build_basis(UNIT_SHELL1, 5)
        eps = np.array([dispersion(m.p_sq, a) for m in UNIT_SHELL1])
        nu = np.array([nu_coefficient(m.p_sq, a) for m in UNIT_SHELL1])
        G = build_quadratic_generator(basis, nu).toarray()
        U = expm(G)
        rho = gibbs(build_D(basis, eps), beta).rho.toarray()
        n_dense = float(np.trace(U.T @ total_number(basis).toarray() @ U @ rho))
        res = rotated_number_expectation(basis, nu, eps, beta)
        assert res.value == pytest.approx(n_dense, abs=1e-13)

        pair_mode = UNIT_SHELL1[0]
        neg = next(m for m in UNIT_SHELL1 if m.n == pair_mode.negated())
        P = (csr(ladder(basis, pair_mode, "create")) @ csr(ladder(basis, neg, "create"))).toarray()
        p_dense = float(np.trace(U.T @ P @ U @ rho))
        pres = pairing_expectation(basis, nu, eps, beta, pair_mode)
        assert pres.value == pytest.approx(p_dense, abs=1e-13)

    def test_sector_route_with_heterogeneous_pairs(self):
        # two +-pairs from different shells, distinct nu and eps per pair
        modes = [
            m
            for s in enumerate_shells(2, momentum_scale=1.0)
            for m in s.members
            if m.n in ((1, 0, 0), (-1, 0, 0), (1, 1, 0), (-1, -1, 0))
        ]
        nu = np.array([-0.25 if m.norm_sq == 1 else -0.1 for m in modes])
        eps = np.array([1.3 if m.norm_sq == 1 else 2.1 for m in modes])
        beta = 0.8
        basis = build_basis(modes, 6)
        G = build_quadratic_generator(basis, nu).toarray()
        U = expm(G)
        rho = gibbs(build_D(basis, eps), beta).rho.toarray()
        dense = float(np.trace(U.T @ total_number(basis).toarray() @ U @ rho))
        res = rotated_number_expectation(basis, nu, eps, beta)
        assert res.value == pytest.approx(dense, abs=1e-13)

        probe = next(m for m in modes if m.norm_sq == 2)
        neg = next(m for m in modes if m.n == probe.negated())
        P = (csr(ladder(basis, probe, "create")) @ csr(ladder(basis, neg, "create"))).toarray()
        dense_pair = float(np.trace(U.T @ P @ U @ rho))
        pres = pairing_expectation(basis, nu, eps, beta, probe)
        assert pres.value == pytest.approx(dense_pair, abs=1e-13)

    def test_zero_rotation_returns_capped_occupations(self):
        eps = np.array([dispersion(m.p_sq, 0.05) for m in UNIT_SHELL1])
        basis = build_basis(UNIT_SHELL1, 8)
        res = rotated_number_expectation(basis, np.zeros(6), eps, beta=1.0)
        expected = sum(
            occupation_closed_form(eps, 1.0, 8, mode=j)[0] for j in range(6)
        )
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_sector_partition_sum_matches_brute_enumeration(self):
        eps = np.array([dispersion(m.p_sq, 0.05) for m in UNIT_SHELL1])
        nu = np.array([nu_coefficient(m.p_sq, 0.05) for m in UNIT_SHELL1])
        basis = build_basis(UNIT_SHELL1, 9)
        res = rotated_number_expectation(basis, nu, eps, beta=1.1)
        energies = basis.occupations() @ eps
        brute = float(np.sum(np.exp(-1.1 * energies)))
        assert res.Z == pytest.approx(brute, rel=1e-12)

    def test_zero_rotation_has_no_pairing(self):
        eps = np.array([dispersion(m.p_sq, 0.05) for m in UNIT_SHELL1])
        basis = build_basis(UNIT_SHELL1, 8)
        res = pairing_expectation(basis, np.zeros(6), eps, beta=1.0, mode=UNIT_SHELL1[0])
        assert abs(res.value) < 1e-14

    def test_cold_limit_reproduces_squeezed_vacuum(self):
        a = 0.05
        eps = np.array([dispersion(m.p_sq, a) for m in UNIT_SHELL1])
        nu = np.array([nu_coefficient(m.p_sq, a) for m in UNIT_SHELL1])
        basis = build_basis(UNIT_SHELL1, 14)
        bound = squeezing_truncation_bound([nu[0]] * 3, 14)
        res = rotated_number_expectation(basis, nu, eps, beta=1e3)
        ideal = float(np.sum(np.sinh(nu) ** 2))
        assert abs(res.value - ideal) <= bound
        pres = pairing_expectation(basis, nu, eps, beta=1e3, mode=UNIT_SHELL1[0])
        ideal_pair = 0.5 * math.sinh(2.0 * nu[0])
        assert abs(pres.value - ideal_pair) <= bound

    def test_finite_temperature_pairing_wick_form(self):
        # single pair, small rotation: value = sinh(2 nu)/2 * (1 + 2 n_capped)
        pair = unit_pair()
        nu_val, beta = -0.1, 1.2
        eps = np.array([1.7, 1.7])
        basis = build_basis(pair, 16)
        res = pairing_expectation(basis, [nu_val] * 2, eps, beta, pair[0])
        n_capped, _ = occupation_closed_form(eps, beta, 16, mode=0)
        expected = 0.5 * math.sinh(2 * nu_val) * (1.0 + 2.0 * n_capped)
        # residual cap-boundary effects are ~3e-10 at this configuration
        assert res.value == pytest.approx(expected, abs=1e-8)

    def test_guard_rejects_rotations_near_the_cap(self):
        basis = build_basis(unit_pair(), 4)
        with pytest.raises(GuardError):
            rotated_number_expectation(basis, [2.5, 2.5], [1.0, 1.0], beta=1.0)

    def test_truncation_bound_dominates_measured_error_on_grid(self):
        for nu_val, cap in ((0.1, 8), (0.3, 12), (0.3, 16)):
            pair = unit_pair()
            basis = build_basis(pair, cap)
            res = rotated_number_expectation(
                basis, [-nu_val] * 2, [1.5, 1.5], beta=1e3
            )
            err = abs(res.value - 2.0 * math.sinh(nu_val) ** 2)
            assert err <= squeezing_truncation_bound([nu_val], cap)


class TestAdjudication:
    def test_judge_branches(self):
        from bosegas.oracles import _judge

        detail, verdict = _judge(1.0, {"A": 1.0001, "B": 2.0})
        assert verdict == "A" and detail["residual_ratio"] > 10
        _, verdict = _judge(1.5, {"A": 1.0, "B": 2.0})
        assert verdict == "inconclusive"
        _, verdict = _judge(1.0, {"A": 3.0, "B": 3.0})
        assert verdict == "degenerate"

    def test_interacting_case_has_clear_winner(self):
        rep = adjudicate_variants(a=0.05, beta=2.0, shells=[1], cap=14)
        assert rep.theta_winner in ("A", "B")
        assert rep.pairing_winner == rep.theta_winner
        assert rep.number["residual_ratio"] > 10.0
        assert rep.pairing["residual_ratio"] > 10.0

    def test_report_is_stable_across_reruns(self):
        r1 = adjudicate_variants(a=0.05, beta=2.0, shells=[1], cap=10)
        r2 = adjudicate_variants(a=0.05, beta=2.0, shells=[1], cap=10)
        assert r1.to_json() == r2.to_json()

    @pytest.mark.parametrize("a", [0.02, 0.1])
    @pytest.mark.parametrize("beta", [1.0, 3.0])
    def test_verdict_is_robust_across_couplings_and_temperatures(self, a, beta):
        rep = adjudicate_variants(a=a, beta=beta, shells=[1], cap=12)
        assert rep.theta_winner == "B"
        assert rep.pairing_winner == "B"
        assert rep.number["residual_ratio"] > 10.0

    def test_under_resolved_configuration_never_certifies_the_wrong_winner(self):
        # cap 6 shared over the 18 modes of shells {1,2} leaves truncation
        # comparable to the pairing separation; the report may then say
        # "inconclusive" but must never flip the verdict
        rep = adjudicate_variants(a=0.05, beta=2.0, shells=[1, 2], cap=6)
        assert rep.theta_winner in ("B", "inconclusive")
        assert rep.pairing_winner in ("B", "inconclusive")

    def test_free_case_is_degenerate(self):
        rep = adjudicate_variants(a=0.0, beta=2.0, shells=[1], cap=8)
        assert rep.theta_winner == "degenerate"
        assert rep.pairing_winner == "degenerate"

    def test_cold_case_is_degenerate(self):
        rep = adjudicate_variants(a=0.05, beta=1e3, shells=[1], cap=8)
        assert rep.theta_winner == "degenerate"
        assert rep.pairing_winner == "degenerate"


class TestToyGibbs:
    def test_free_gas_occupations_match_closed_form_exactly(self):
        eps = np.array([m.p_sq for m in PHYS_SHELL1])
        for beta in (0.5, 1.0, 2.0):
            report, rows = toy_gibbs_experiment(
                N=16, potential=zero_potential(), shells=[1], cap=12, beta=beta
            )
            capped, _ = occupation_closed_form(eps, beta, 12, mode=0)
            assert report.occupations[1] == pytest.approx(capped, rel=1e-12, abs=1e-300)
            assert report.pairings[1] == 0.0
            assert report.offdiagonal_max <= 1e-10

    def test_coupling_strengthens_depletion_monotonically(self):
        V = RadialPotential.soft_sphere(100.0, 0.5)
        values = []
        for coupling in (0.0, 0.1, 1.0):
            report, _ = toy_gibbs_experiment(
                N=16, potential=V, shells=[1], cap=6, beta=1.0, coupling=coupling
            )
            values.append(report.n_plus)
        assert values[0] < values[1] < values[2]

    def test_comparison_rows_carry_both_conventions(self):
        V = RadialPotential.soft_sphere(100.0, 0.5)
        report, rows = toy_gibbs_experiment(
            N=16, potential=V, shells=[1], cap=6, beta=1.0, a=0.3588
        )
        row = rows[0]
        assert set(row) == {
            "norm_sq", "oracle_occ", "model_occ_A", "model_occ_B",
            "oracle_pair", "model_pair_A", "model_pair_B",
        }
        assert row["model_pair_A"] < 0.0 and row["model_pair_B"] < 0.0
        assert report.n_plus > 0.0
        assert report.n_plus_sq >= 0.0
        # interactions generate anomalous pairing with the model's sign
        assert row["oracle_pair"] < 0.0
