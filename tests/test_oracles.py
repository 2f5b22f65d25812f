import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import bosegas.fock
import bosegas.oracles
from bosegas.bogoliubov import mode_coefficients
from bosegas.errors import BasisSizeError, GuardError
from bosegas.fock import (
    build_basis,
    expect,
    gibbs,
    ladder,
)
from bosegas.lattice import enumerate_shells, shell_modes
from bosegas.oracles import (
    adjudicate_variants,
    pairing_expectation,
    partition_product_check,
    rotated_number_expectation,
    squeezing_truncation_bound,
    toy_gibbs_experiment,
)
from bosegas.scattering import RadialPotential, zero_potential
from fock_reference import (
    build_D,
    build_quadratic_generator,
    enumerated_partition_sum,
    number_operator,
    occupation_closed_form,
    total_number,
    toy_gibbs_single_n,
)
from sparse_reference import csr

UNIT_SHELL1 = [m for s in enumerate_shells(1, momentum_scale=1.0) for m in s.members]
PHYS_SHELL1 = [m for s in enumerate_shells(1) for m in s.members]
UNIT_SHELLS12 = [m for s in enumerate_shells(2, momentum_scale=1.0) for m in s.members]

# direct finite sum: sum_{k<=5} k e^-k / sum_{k<=5} e^-k at 40 digits
CAPPED_OCC_M5 = 0.5670672369282589


def unit_shell1_coefficients(a):
    return mode_coefficients([m.p_sq for m in UNIT_SHELL1], a)


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
        eps = unit_shell1_coefficients(a).eps
        basis = build_basis(UNIT_SHELL1, 9)
        gs = gibbs(build_D(basis, eps), beta)
        for j, mode in enumerate(UNIT_SHELL1[:2]):
            via_gibbs = expect(gs, number_operator(basis, mode))
            capped, _ = occupation_closed_form(eps, beta, basis.cap, mode=j)
            assert via_gibbs == pytest.approx(capped, rel=1e-12)


class TestPartitionSandwich:
    def test_single_mode_is_exact_geometric_series(self):
        res = partition_product_check([1.5], 7, beta=0.9)
        exact = sum(math.exp(-0.9 * 1.5 * k) for k in range(8))
        assert res.brute == pytest.approx(exact, rel=1e-14)
        assert res.brute == pytest.approx(res.product_upper, rel=1e-14)

    def test_shell_sandwich_and_monotone_gap(self):
        eps = unit_shell1_coefficients(0.05).eps
        gaps, excesses = [], []
        for cap in (8, 12, 16):
            res = partition_product_check(eps, cap, beta=1.0)
            assert res.product_lower <= res.brute <= res.product_upper
            assert res.uncapped - res.brute <= res.gap
            gaps.append(res.gap)
            excesses.append(res.uncapped - res.brute)
        assert gaps[0] > gaps[1] > gaps[2]
        assert excesses[0] > excesses[1] > excesses[2]

    def test_doubling_beta_shrinks_everything(self):
        eps = unit_shell1_coefficients(0.05).eps
        r1 = partition_product_check(eps, 8, beta=1.0)
        r2 = partition_product_check(eps, 8, beta=2.0)
        assert r2.brute < r1.brute
        assert r2.gap < r1.gap

    def test_non_positive_energy_is_refused(self):
        for eps in ([1.0, 0.0], [1.0, -0.5], [math.nan, 1.0]):
            with pytest.raises(ValueError, match="every mode energy must be positive"):
                partition_product_check(eps, 4, beta=1.0)


@st.composite
def partition_cases(draw):
    """1-8 modes, cap 0-11 with at most 2,000 states, eps in [0.05, 5], beta in [0.1, 3]."""
    n = draw(st.integers(min_value=1, max_value=8))
    cap_max = max(c for c in range(12) if math.comb(c + n, n) <= 2000)
    cap = draw(st.integers(min_value=0, max_value=cap_max))
    eps = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
    beta = draw(st.floats(0.1, 3.0))
    return eps, cap, beta


@settings(max_examples=200, deadline=None)
@given(partition_cases())
def test_recurrence_partition_sum_matches_enumeration(case):
    # the largest relative difference measured over 80,000 of hypothesis's
    # own draws of these cases (four runs of 20,000) was 6.6e-16; the bound
    # is three times that
    eps, cap, beta = case
    brute = partition_product_check(eps, cap, beta).brute
    reference = enumerated_partition_sum(build_basis(UNIT_SHELLS12[: len(eps)], cap), eps, beta)
    assert abs(brute - reference) <= 2e-15 * reference


class TestRotatedExpectations:
    def test_sector_route_matches_dense_conjugation(self):
        a, beta = 0.05, 2.0
        basis = build_basis(UNIT_SHELL1, 5)
        c = unit_shell1_coefficients(a)
        eps, nu = c.eps, c.nu
        G = csr(build_quadratic_generator(basis, nu)).toarray()
        U = expm(G)
        rho = csr(gibbs(build_D(basis, eps), beta).rho).toarray()
        n_dense = float(np.trace(U.T @ csr(total_number(basis)).toarray() @ U @ rho))
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
        G = csr(build_quadratic_generator(basis, nu)).toarray()
        U = expm(G)
        rho = csr(gibbs(build_D(basis, eps), beta).rho).toarray()
        dense = float(np.trace(U.T @ csr(total_number(basis)).toarray() @ U @ rho))
        res = rotated_number_expectation(basis, nu, eps, beta)
        assert res.value == pytest.approx(dense, abs=1e-13)

        probe = next(m for m in modes if m.norm_sq == 2)
        neg = next(m for m in modes if m.n == probe.negated())
        P = (csr(ladder(basis, probe, "create")) @ csr(ladder(basis, neg, "create"))).toarray()
        dense_pair = float(np.trace(U.T @ P @ U @ rho))
        pres = pairing_expectation(basis, nu, eps, beta, probe)
        assert pres.value == pytest.approx(dense_pair, abs=1e-13)

    def test_zero_rotation_returns_capped_occupations(self):
        eps = unit_shell1_coefficients(0.05).eps
        basis = build_basis(UNIT_SHELL1, 8)
        res = rotated_number_expectation(basis, np.zeros(6), eps, beta=1.0)
        expected = sum(
            occupation_closed_form(eps, 1.0, 8, mode=j)[0] for j in range(6)
        )
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_sector_partition_sum_matches_brute_enumeration(self):
        c = unit_shell1_coefficients(0.05)
        eps, nu = c.eps, c.nu
        basis = build_basis(UNIT_SHELL1, 9)
        res = rotated_number_expectation(basis, nu, eps, beta=1.1)
        energies = basis.occupations() @ eps
        brute = float(np.sum(np.exp(-1.1 * energies)))
        assert res.Z == pytest.approx(brute, rel=1e-12)

    def test_zero_rotation_has_no_pairing(self):
        eps = unit_shell1_coefficients(0.05).eps
        basis = build_basis(UNIT_SHELL1, 8)
        res = pairing_expectation(basis, np.zeros(6), eps, beta=1.0, mode=UNIT_SHELL1[0])
        assert abs(res.value) < 1e-14

    def test_cold_limit_reproduces_squeezed_vacuum(self):
        a = 0.05
        c = unit_shell1_coefficients(a)
        eps, nu = c.eps, c.nu
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
        # repr round-trips every float and tells -0.0 from 0.0: equal bits
        assert repr(r1) == repr(r2)

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
            [(report, rows)] = toy_gibbs_experiment(
                [16], potential=zero_potential(), shells=[1], cap=12, beta=beta
            )
            capped, _ = occupation_closed_form(eps, beta, 12, mode=0)
            assert report.occupations[1] == pytest.approx(capped, rel=1e-12, abs=1e-300)
            assert report.pairings[1] == 0.0
            assert report.offdiagonal_max <= 1e-10

    def test_coupling_strengthens_depletion_monotonically(self):
        values = []
        for v0 in (0.0, 10.0, 100.0):
            [(report, _)] = toy_gibbs_experiment(
                [16], potential=RadialPotential.soft_sphere(v0, 0.5), shells=[1], cap=6, beta=1.0
            )
            values.append(report.n_plus)
        assert values[0] < values[1] < values[2]

    def test_comparison_rows_carry_both_conventions(self):
        V = RadialPotential.soft_sphere(100.0, 0.5)
        [(report, rows)] = toy_gibbs_experiment(
            [16], potential=V, shells=[1], cap=6, beta=1.0
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

    @pytest.mark.parametrize(
        "potential, cap, beta",
        [
            (zero_potential(), 5, 1.0),
            (RadialPotential.soft_sphere(100.0, 0.5), 4, 1.0),
            (RadialPotential.soft_sphere(30.0, 0.5), 5, 0.7),
            (RadialPotential.gaussian_truncated(40.0, 0.2, 0.6), 3, 2.0),
        ],
        ids=["free", "soft100", "soft30", "gauss40"],
    )
    def test_one_pass_over_n_and_2n_equals_single_n_runs(self, potential, cap, beta):
        runs = toy_gibbs_experiment([10, 20], potential=potential, shells=[1], cap=cap, beta=beta)
        for N, run in zip((10, 20), runs):
            [single] = toy_gibbs_experiment([N], potential=potential, shells=[1], cap=cap, beta=beta)
            # repr round-trips every float and tells -0.0 from 0.0: equal bits
            assert repr(run) == repr(single)

    def test_every_n_below_the_cap_is_refused_before_a_basis_is_built(self, monkeypatch):
        def no_sectors(*args, **kwargs):
            raise AssertionError("sectors built before the particle numbers were checked")

        # the sectors are the first thing the toy builds after the modes
        monkeypatch.setattr(bosegas.oracles, "_momentum_orbits", no_sectors)
        for ns in ([5], [16, 5], [5, 16]):
            with pytest.raises(ValueError, match="N >= cap"):
                toy_gibbs_experiment(ns, potential=zero_potential(), shells=[1], cap=6, beta=1.0)
        # with valid particle numbers the patched step is reached
        with pytest.raises(AssertionError, match="sectors built"):
            toy_gibbs_experiment([16], potential=zero_potential(), shells=[1], cap=6, beta=1.0)


@st.composite
def toy_cases(draw):
    """Shell 1 at caps 2-8, shells 1-2 at caps 2-3 or shell 9 at cap 2: at most 3,003 states.

    Shell 9 holds two cubic orbits, (3, 0, 0) and (2, 2, 1).
    """
    shells, cap = draw(st.one_of(
        st.tuples(st.just([1]), st.integers(2, 8)),
        st.tuples(st.just([1, 2]), st.integers(2, 3)),
        st.tuples(st.just([9]), st.just(2)),
    ))
    potential = draw(st.one_of(
        st.just(zero_potential()),
        st.builds(RadialPotential.soft_sphere, st.floats(0.5, 200.0), st.floats(0.05, 0.5)),
    ))
    return shells, cap, draw(st.integers(cap, 4 * cap)), potential


@settings(max_examples=30, deadline=None)
@given(case=toy_cases(), beta=st.floats(0.03, 2.0))
# a shell of two orbits: the first mode's value is not the shell's average
@example(case=([9], 2, 8, RadialPotential.soft_sphere(200.0, 0.5)), beta=0.5)
def test_sector_toy_matches_the_global_basis(case, beta):
    # the global-basis toy (every capped state, blocks found as components)
    # is the reference.  Both diagonalize the same sector matrices, but sum
    # the expectations over different entries in different orders, and the
    # sector toy weighs rho's entries relative to each stack's lowest
    # energy first.  Over 360 random draws of these cases the largest
    # differences were 0.80 eps relative for Z, 0.50 eps cap for N+, 0.16
    # eps cap for an occupation, 0.19 eps cap for a pairing and 0.11 eps
    # cap^2 for <N+(N+ - 1)>; the bounds are 8 eps on the same scales.
    shells, cap, N, potential = case
    [(new, rows)] = toy_gibbs_experiment([N], potential, shells, cap, beta)
    ref, ref_rows = toy_gibbs_single_n(N, potential, shells, cap, beta)
    bound = 8 * np.finfo(float).eps
    assert abs(new.partition - ref.partition) <= bound * ref.partition
    assert abs(new.n_plus - ref.n_plus) <= bound * cap
    assert abs(new.n_plus_sq - ref.n_plus_sq) <= bound * cap**2
    assert sorted(new.occupations) == sorted(ref.occupations) == sorted(new.pairings)
    for s in ref.occupations:
        assert abs(new.occupations[s] - ref.occupations[s]) <= bound * cap
        assert abs(new.pairings[s] - ref.pairings[s]) <= bound * cap
    assert new.offdiagonal_max == ref.offdiagonal_max == 0.0
    for row, ref_row in zip(rows, ref_rows, strict=True):
        assert row["oracle_occ"] == new.occupations[row["norm_sq"]]
        assert {k: v for k, v in row.items() if "model" in k} == \
            {k: v for k, v in ref_row.items() if "model" in k}


class TestSectors:
    @pytest.mark.parametrize("shells, cap", [([1], 7), ([1], 12), ([1, 2], 3), ([1, 2, 3], 2)])
    def test_orbit_weighted_sector_sizes_count_the_capped_basis(self, shells, cap):
        modes = shell_modes(shells)
        vectors = np.array([m.n for m in modes])
        momenta, orbit = bosegas.oracles._momentum_orbits(vectors, cap)
        occ = build_basis(modes, cap, momenta=momenta).occupations()
        moments = [tuple(p) for p in (occ @ vectors).tolist()]
        sizes = np.array([moments.count(tuple(p)) for p in momenta.tolist()])
        assert int(sizes @ orbit) == math.comb(cap + len(modes), len(modes))

    def test_orbit_sizes_count_the_signed_permutations(self):
        momenta, orbit = bosegas.oracles._momentum_orbits(np.eye(3, dtype=int), 4)
        for p, size in zip(momenta.tolist(), orbit.tolist()):
            images = {tuple(s * v for s, v in zip(signs, perm))
                      for perm in itertools.permutations(p)
                      for signs in itertools.product((1, -1), repeat=3)}
            assert size == len(images)
            assert p[0] >= p[1] >= p[2] >= 0

    @pytest.mark.parametrize("shells, cap", [([1], 6), ([1, 2], 3)])
    def test_sector_basis_is_the_global_basis_restricted(self, shells, cap):
        modes = shell_modes(shells)
        vectors = np.array([m.n for m in modes])
        momenta, _ = bosegas.oracles._momentum_orbits(vectors, cap)
        sector = build_basis(modes, cap, momenta=momenta)
        full = build_basis(modes, cap)
        wanted = {tuple(p) for p in momenta.tolist()}
        keep = [tuple(p) in wanted for p in (full.occupations() @ vectors).tolist()]
        assert np.array_equal(sector.occupations(), full.occupations()[keep])
        assert np.array_equal(sector.totals, full.totals[keep])
        assert np.array_equal(sector.rank(sector.occupations()), np.arange(len(sector)))
        with pytest.raises(ValueError, match="outside the basis"):
            sector.rank(full.occupations()[~np.array(keep)][:1])

    def test_the_size_guard_bounds_the_states_built(self, monkeypatch):
        # shell 1 at cap 7: 141 states in one sector per orbit, 1,716 in all;
        # one counting pass finds them all
        modes = shell_modes([1])
        momenta, _ = bosegas.oracles._momentum_orbits(np.array([m.n for m in modes]), 7)
        monkeypatch.setattr(bosegas.fock, "STATE_LIMIT", 141)
        assert len(build_basis(modes, 7, momenta=momenta)) == 141
        monkeypatch.setattr(bosegas.fock, "STATE_LIMIT", 140)
        with pytest.raises(BasisSizeError, match="141 states counted") as err:
            build_basis(modes, 7, momenta=momenta)
        assert (err.value.count, err.value.limit) == (141, 140)

    def test_an_oversized_toy_is_refused_before_its_states_are_built(self, monkeypatch):
        # shells 1-2 at cap 12: each half of the 18 modes alone has
        # C(21, 9) = 293,930 capped states, so neither is enumerated
        def no_states(*args, **kwargs):
            raise AssertionError("states built before the size check")

        monkeypatch.setattr(bosegas.fock, "compositions", no_states)
        with pytest.raises(BasisSizeError, match="293930 states counted"):
            toy_gibbs_experiment([16], zero_potential(), shells=[1, 2], cap=12, beta=1.0)
