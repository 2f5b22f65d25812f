"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and runtime budgets are fixed here, not configurable.

Unit conventions: the analytic-coefficient criteria (1-4, 10) use physical
torus momenta p = 2*pi*n.  The Fock-space oracle criteria (5-9) evaluate
their closed-form identities on the unit-scaled lattice (mode energy
|n|^2) where order-one inverse temperatures give resolvable thermal
occupations; the identities under test are algebraic in (p^2, a, beta), so
nothing depends on that scale.  Criterion 5/6 exactness checks are scale
independent and run in physical units as well.
"""

import json
import math
import time

import numpy as np
import pytest

from bosegas.bogoliubov import Variant, mode_coefficients
from bosegas.cli import main
from bosegas.density import build_rho1, build_rho2
from bosegas.fock import build_basis, expect, gibbs
from bosegas.lattice import TWO_PI, enumerate_shells, shell_table
from bosegas.oracles import (
    adjudicate_variants,
    pairing_expectation,
    partition_product_check,
    rotated_number_expectation,
    squeezing_truncation_bound,
    toy_gibbs_experiment,
)
from bosegas.scattering import (
    RadialPotential,
    energy_functional,
    kernel_identity_residuals,
    kernel_table,
    solve_neumann,
    solve_scattering,
    zero_potential,
)
from fock_reference import build_D, number_operator, occupation_closed_form

SOFT = RadialPotential.soft_sphere(100.0, 0.5)
SOFT_A = 0.35881866549216315  # R - tanh(kappa R)/kappa at 40 digits

UNIT_SHELL1 = [m for s in enumerate_shells(1, momentum_scale=1.0) for m in s.members]
PHYS_SHELL1 = [m for s in enumerate_shells(1) for m in s.members]


def _report(number: int, description: str, started: float):
    print(f"\n[criterion {number:02d}] PASS - {description} ({time.monotonic() - started:.2f}s)")


def test_criterion_01_hyperbolic_identity_suite():
    started = time.monotonic()
    for a in (0.1, 1.0, 10.0):
        for shell in enumerate_shells(50):
            p_sq = shell.members[0].p_sq
            c = mode_coefficients(p_sq, a)
            assert abs(math.sinh(c.nu) ** 2 / c.mu_sq - 1.0) <= 1e-12
            assert abs(math.cosh(2 * c.nu) * c.eps / (p_sq + 8 * math.pi * a) - 1.0) <= 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, "sinh^2(nu)=mu^2 and cosh(2 nu)=(p^2+8 pi a)/eps to 1e-12 on shells <= 50", started)


def test_criterion_02_scattering_oracle():
    started = time.monotonic()
    sol = solve_scattering(SOFT, r_max=20.0 * SOFT.support_radius, tol=1e-10)
    assert abs(sol.a / SOFT_A - 1.0) <= 1e-8
    functional = energy_functional(sol)
    assert abs(functional / sol.a - 1.0) <= 0.01
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(2, "soft-sphere length matches closed form to 1e-8; functional route within 1%", started)


def test_criterion_03_neumann_consistency():
    started = time.monotonic()
    errs = {}
    for factor in (100.0, 200.0):
        R = factor * SOFT.support_radius
        lam = solve_neumann(SOFT, R=R, tol=1e-10).lam
        errs[factor] = abs(lam * R**3 / 3.0 - SOFT_A) / SOFT_A
    assert errs[100.0] < 0.05
    assert errs[200.0] < 0.02
    assert errs[200.0] < errs[100.0]
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(3, "lambda R^3/3 within 5% (R=100 supports) improving below 2% (R=200)", started)


def test_criterion_04_kernel_bounds_and_decay():
    started = time.monotonic()
    # bounds and shell trends at N=50 (chosen so the smooth kernel envelope
    # dominates the finite-ball oscillation; see decisions notes)
    N = 50
    scattering = solve_scattering(SOFT, r_max=20.0 * SOFT.support_radius, tol=1e-10)
    neumann = solve_neumann(SOFT, R=N * 0.495, tol=1e-10)
    table = kernel_table(scattering, neumann, N, cutoff_norm_sq=400)
    p_sq = TWO_PI**2 * table.norm_sq
    eta_env = np.abs(table.eta) * p_sq
    tau_env = np.abs(table.tau) * p_sq**2
    assert np.all(np.isfinite(eta_env)) and np.all(np.isfinite(tau_env))
    half = len(table.norm_sq) // 2
    # per-shell decay of the pair kernel over the outer half
    assert np.all(np.diff(eta_env[half:]) <= 1e-15)
    # the residual kernel oscillates shell to shell (finite-ball term), so
    # its bound is asserted as an envelope: the outer half stays below the
    # inner-half maximum
    assert tau_env[half:].max() <= tau_env[:half].max()
    assert eta_env[half:].max() <= eta_env[:half].max()

    res, tol = kernel_identity_residuals(neumann, N, table.p_sq)
    assert np.all(np.abs(res) <= tol)

    gaps = {}
    for n_val in (100, 200):
        ball = solve_neumann(SOFT, R=n_val * 0.495, tol=1e-10)
        t = kernel_table(scattering, ball, n_val, cutoff_norm_sq=50)
        gaps[n_val] = np.max(np.abs(t.eta + t.tau - t.nu))
    assert gaps[200] <= 0.6 * gaps[100]
    _report(4, "kernel envelopes bounded/decaying, identity residual below quadrature "
               "tolerance, eta+tau-nu halves from N=100 to N=200", started)


def test_criterion_05_free_gas_exactness():
    started = time.monotonic()
    eps = np.array([m.p_sq for m in PHYS_SHELL1])
    for beta in (0.5, 1.0, 2.0):
        [(report, _)] = toy_gibbs_experiment(
            [16], potential=zero_potential(), shells=[1], cap=12, beta=beta
        )
        capped, _ = occupation_closed_form(eps, beta, 12, mode=0)
        assert abs(report.occupations[1] - capped) <= 1e-12 * max(capped, 1e-300)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(5, "free-gas toy occupations equal capped closed form to 1e-12 "
               "(shell 1, cap 12, beta in {0.5,1,2})", started)


def test_criterion_06_quadratic_oracle_exactness():
    started = time.monotonic()
    configs = [
        (mode_coefficients([m.p_sq for m in PHYS_SHELL1], SOFT_A).eps, PHYS_SHELL1),
        (mode_coefficients([m.p_sq for m in UNIT_SHELL1], 0.05).eps, UNIT_SHELL1),
    ]
    for eps, modes in configs:
        basis = build_basis(modes, 12)
        for beta in (0.5, 1.0, 2.0):
            gs = gibbs(build_D(basis, eps), beta)
            for j, mode in enumerate(modes):
                via_gibbs = expect(gs, number_operator(basis, mode))
                capped, _ = occupation_closed_form(eps, beta, 12, mode=j)
                assert abs(via_gibbs - capped) <= 1e-12 * max(capped, 1e-300)
    _report(6, "thermal occupations of the diagonal ensemble match the independent "
               "budget recursion to 1e-12", started)


def test_criterion_07_partition_sandwich():
    started = time.monotonic()
    eps = mode_coefficients([m.p_sq for m in UNIT_SHELL1], 0.05).eps
    gaps = []
    for cap in (8, 12, 16):
        res = partition_product_check(eps, cap, beta=1.0)
        assert res.uncapped - res.gap <= res.brute <= res.uncapped
        assert res.product_lower <= res.brute <= res.product_upper
        gaps.append(res.gap)
    assert gaps[0] > gaps[1] > gaps[2]
    _report(7, "brute partition sum inside the product sandwich, moment-bound gap "
               "monotone in the cap (caps 8/12/16)", started)


def test_criterion_08_rotation_oracle_cold_limit():
    started = time.monotonic()
    a, cap = 0.05, 14
    c = mode_coefficients([m.p_sq for m in UNIT_SHELL1], a)
    eps, nu = c.eps, c.nu
    basis = build_basis(UNIT_SHELL1, cap)
    bound = squeezing_truncation_bound([nu[0]] * 3, cap)

    rot = rotated_number_expectation(basis, nu, eps, beta=1e3)
    ideal = 3 * (2.0 * math.sinh(nu[0]) ** 2)  # 2 sinh^2 per +-p pair
    assert abs(rot.value - ideal) <= bound

    pair = pairing_expectation(basis, nu, eps, beta=1e3, mode=UNIT_SHELL1[0])
    assert abs(pair.value - 0.5 * math.sinh(2.0 * nu[0])) <= bound
    _report(8, "cold rotated ensemble reproduces 2 sinh^2(nu) per pair and "
               "sinh(2 nu)/2 within the computable truncation bound", started)


def test_criterion_09_variant_adjudication():
    started = time.monotonic()
    reports = [
        adjudicate_variants(a=0.05, beta=2.0, shells=[1], cap=14) for _ in range(2)
    ]
    rep = reports[0]
    assert rep.theta_winner in ("A", "B")
    assert rep.pairing_winner in ("A", "B")
    assert rep.number["residual_ratio"] > 10.0
    assert rep.pairing["residual_ratio"] > 10.0
    # repr round-trips every float and tells -0.0 from 0.0: equal bits
    assert repr(reports[0]) == repr(reports[1])
    _report(9, f"adjudication non-degenerate and rerun-stable: theta -> {rep.theta_winner}, "
               f"pairing -> {rep.pairing_winner} (ratios "
               f"{rep.number['residual_ratio']:.1e}, {rep.pairing['residual_ratio']:.1e})",
            started)


def test_criterion_10_density_model_bookkeeping():
    started = time.monotonic()
    N = 10**6
    warm = mode_coefficients(shell_table(100)[2], 1.0, 1.0)
    cold = mode_coefficients(shell_table(50)[2], 1.0, 1e3)
    for variant in Variant:
        assert build_rho1(warm, variant, N, cutoff=100).trace() == float(N)
        assert build_rho2(warm, variant, N, cutoff=100).trace() == float(N)

        dm1 = build_rho1(cold, variant, N, cutoff=50)
        assert dm1.norm_sq[0] == 1  # the smallest shell
        assert abs(dm1.excited_weights[0] - mode_coefficients(TWO_PI * TWO_PI, 1.0).mu_sq) <= 1e-30

        dm2 = build_rho2(cold, variant, N, cutoff=50)
        eps = mode_coefficients(TWO_PI * TWO_PI * dm2.norm_sq, 1.0).eps
        for pairing, e in zip(dm2.pairing.tolist(), eps.tolist()):
            expected = -4.0 * math.pi * 1.0 / e
            assert abs(pairing / expected - 1.0) <= 1e-6
    _report(10, "model traces equal N exactly; cold weights reduce to mu^2 (<=1e-30) "
                "and the pairing block to -4 pi a/eps (1e-6) in both conventions", started)


def test_criterion_11_cli_determinism(tmp_path):
    started = time.monotonic()
    out = tmp_path / "run"
    args = [
        "all", "--output-dir", str(out),
        "--set", "cutoff_norm_sq=30",
        "--set", "N=50",
        "--set", "oracle.cap=10",
        "--set", "oracle.toy.cap=4",
        "--set", "oracle.toy.N=10",
    ]
    snapshots = []
    for _ in range(2):
        assert main(args) == 0
        snapshots.append(
            {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.name != "provenance.json"
            }
        )
    assert snapshots[0].keys() == snapshots[1].keys()
    for name, blob in snapshots[0].items():
        assert blob == snapshots[1][name], f"{name} changed between identical runs"
    adjudication = json.loads((out / "adjudication.json").read_text())
    assert adjudication["theta_winner"] in ("A", "B", "degenerate", "inconclusive")
    _report(11, "two identical `all` runs emit byte-identical CSV/JSON payloads", started)
