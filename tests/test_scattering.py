import math

import numpy as np
import pytest

from bosegas.cli import main
from bosegas.errors import SolverError
from bosegas.lattice import shell_table
from bosegas.scattering import (
    RadialPotential,
    energy_functional,
    eta_coefficients,
    kernel_identity_residuals,
    kernel_table,
    nu_coefficients,
    potential_fourier,
    solve_neumann,
    solve_scattering,
    tau_coefficients,
    zero_potential,
)

SOFT = RadialPotential.soft_sphere(100.0, 0.5)
# closed form for the soft sphere: a = R - tanh(kappa R)/kappa, kappa = sqrt(v0/2)
SOFT_A = 0.35881866549216315


def soft_sphere_a(v0, radius):
    kappa = math.sqrt(v0 / 2.0)
    return radius - math.tanh(kappa * radius) / kappa


class TestPotentials:
    def test_soft_sphere_values(self):
        assert SOFT(0.3) == 100.0
        assert SOFT(0.7) == 0.0
        assert SOFT.support_radius == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialPotential.soft_sphere(-1.0, 0.5)
        with pytest.raises(ValueError):
            RadialPotential.soft_sphere(1.0, 0.0)
        with pytest.raises(ValueError):
            RadialPotential.tabulated([0.0, 0.1, 0.2], [1.0, -0.5, 0.0])
        with pytest.raises(ValueError):
            RadialPotential.gaussian_truncated(1.0, -0.1, 0.5)

    def test_tabulated_interpolates_and_truncates(self):
        pot = RadialPotential.tabulated([0.0, 0.5, 1.0], [2.0, 1.0, 0.0])
        assert pot(0.25) == pytest.approx(1.5)
        assert pot(2.0) == 0.0
        assert pot.support_radius == 1.0

    def test_tabulated_table_is_converted_once_and_read_only(self):
        grid = np.linspace(0.0, 0.5, 37)
        values = 100.0 * np.exp(-grid)
        pot = RadialPotential.tabulated(grid, values)
        r = np.linspace(-0.1, 0.6, 301)
        expected = np.where(
            r <= 0.5, np.interp(r, pot.grid, pot.values, left=pot.values[0], right=0.0), 0.0
        )
        assert pot(r).tobytes() == expected.tobytes()
        assert not pot._grid.flags.writeable and not pot._values.flags.writeable
        assert pot == RadialPotential.tabulated(grid, values)
        assert hash(pot) == hash(RadialPotential.tabulated(grid, values))

    def test_fourier_transform_matches_soft_sphere_closed_form(self):
        v_hat = potential_fourier(SOFT)
        v0, R = 100.0, 0.5
        for k in (0.0, 0.3, 1.0, 2.5):
            if k == 0.0:
                expected = 4.0 * math.pi * v0 * R**3 / 3.0
            else:
                expected = 4.0 * math.pi * v0 * (math.sin(k * R) - k * R * math.cos(k * R)) / k**3
            assert v_hat(k) == pytest.approx(expected, rel=1e-10)


class TestScattering:
    def test_soft_sphere_length_matches_closed_form(self):
        sol = solve_scattering(SOFT, r_max=10.0, tol=1e-10)
        assert sol.a == pytest.approx(soft_sphere_a(100.0, 0.5), rel=1e-10)
        assert sol.a == pytest.approx(SOFT_A, rel=1e-10)

    def test_free_problem_gives_zero_length_and_linear_profile(self):
        sol = solve_scattering(zero_potential(), r_max=5.0)
        assert abs(sol.a) < 1e-12
        grid = np.linspace(0.0, 5.0, 2001)
        assert np.max(np.abs(sol.dense.u(grid) - grid)) < 1e-10

    def test_profile_bounds_and_monotonicity_outside_support(self):
        sol = solve_scattering(SOFT, r_max=10.0, tol=1e-10)
        r = np.linspace(1e-6, 10.0, 500)
        f = sol.f(r)
        assert np.all(f >= -1e-10) and np.all(f <= 1.0 + 1e-10)
        outside = r > SOFT.support_radius
        assert np.all(np.diff(f[outside]) > 0)

    def test_affine_regime_reached(self):
        tol = 1e-10
        sol = solve_scattering(SOFT, r_max=8.0, tol=tol)
        r = np.linspace(SOFT.support_radius, 8.0, 100)
        assert np.max(np.abs(sol.dense.u(r) - (r - sol.a))) <= 10.0 * tol * 8.0

    def test_tolerance_consistency(self):
        tol = 1e-8
        a1 = solve_scattering(SOFT, r_max=10.0, tol=tol).a
        a2 = solve_scattering(SOFT, r_max=10.0, tol=tol / 10.0).a
        assert abs(a1 - a2) <= 10.0 * tol

    def test_rejects_rmax_inside_support(self):
        with pytest.raises(SolverError):
            solve_scattering(SOFT, r_max=0.4)

    def test_profile_beyond_r_max_is_the_affine_tail(self):
        sol = solve_scattering(SOFT, r_max=10.0, tol=1e-10)
        r = np.array([12.0, 20.0, 1e3])
        assert np.allclose(sol.f(r), 1.0 - sol.a / r, rtol=4.0 * np.finfo(float).eps, atol=0.0)

    def test_negative_radius_is_rejected(self):
        sol = solve_scattering(SOFT, r_max=10.0, tol=1e-10)
        with pytest.raises(ValueError, match="r >= 0"):
            sol.f([1.0, -0.5])
        with pytest.raises(ValueError, match="r >= 0"):
            sol.dense.state(-1e-300)


class TestOtherPotentialKinds:
    def test_gaussian_full_pipeline(self):
        pot = RadialPotential.gaussian_truncated(50.0, 0.2, 0.8)
        sol = solve_scattering(pot, r_max=16.0, tol=1e-10)
        assert 0.0 < sol.a < 0.8
        assert energy_functional(sol) == pytest.approx(sol.a, rel=1e-6)
        neumann = solve_neumann(pot, R=20.0, tol=1e-10)
        assert neumann.lam == pytest.approx(3.0 * sol.a / 20.0**3, rel=0.1)
        eta = eta_coefficients(neumann, 25, shell_table(5)[2])
        assert np.all(np.isfinite(eta)) and np.all(eta < 0.0)

    def test_tabulated_soft_sphere_reproduces_closed_form(self):
        grid = np.linspace(0.0, 0.5, 2001)
        pot = RadialPotential.tabulated(grid, np.full_like(grid, 100.0))
        sol = solve_scattering(pot, r_max=10.0, tol=1e-10)
        assert sol.a == pytest.approx(SOFT_A, rel=1e-6)


class TestEnergyFunctional:
    def test_matches_ode_route(self):
        sol = solve_scattering(SOFT, r_max=10.0, tol=1e-10)
        assert energy_functional(sol) == pytest.approx(sol.a, rel=1e-6)

    def test_zero_potential_gives_zero(self):
        sol = solve_scattering(zero_potential(), r_max=5.0)
        assert abs(energy_functional(sol)) < 1e-10

    def test_tail_deficit_shrinks_at_rate_one_over_rmax(self):
        near = solve_scattering(SOFT, r_max=10.0, tol=1e-10)
        far = solve_scattering(SOFT, r_max=20.0, tol=1e-10)
        # the deficit of the integral alone, without the a^2/r_max tail
        d_near = near.a - (energy_functional(near) - near.a**2 / 10.0)
        d_far = far.a - (energy_functional(far) - far.a**2 / 20.0)
        assert d_near == pytest.approx(near.a**2 / 10.0, rel=1e-4)
        assert d_near / d_far == pytest.approx(2.0, rel=1e-3)


class TestNeumann:
    def test_free_ball_is_trivial(self):
        sol = solve_neumann(zero_potential(), R=5.0)
        assert sol.lam == 0.0
        assert sol.f(2.5) == pytest.approx(1.0)

    def test_eigenvalue_reproduces_scattering_length(self):
        sol50 = solve_neumann(SOFT, R=50.0, tol=1e-10)
        err50 = abs(sol50.lam * 50.0**3 / 3.0 - SOFT_A) / SOFT_A
        assert sol50.lam > 0.0
        assert err50 < 0.05

    def test_doubling_radius_divides_eigenvalue_by_eight(self):
        lam1 = solve_neumann(SOFT, R=20.0, tol=1e-10).lam
        lam2 = solve_neumann(SOFT, R=40.0, tol=1e-10).lam
        assert lam1 / lam2 == pytest.approx(8.0, rel=0.1)

    def test_boundary_normalization_and_profile(self):
        sol = solve_neumann(SOFT, R=20.0, tol=1e-10)
        assert sol.dense.u(20.0)[0] == pytest.approx(20.0, rel=1e-12)
        r = np.linspace(1e-6, 20.0, 400)
        f = sol.f(r)
        assert np.all(f >= -1e-10) and np.all(f <= 1.0 + 1e-9)
        # reflecting boundary: u'(R) = u(R)/R
        assert sol.dense.u_prime(20.0)[0] == pytest.approx(1.0, abs=1e-6)

    def test_solution_beyond_the_ball_is_the_closed_form(self):
        sol = solve_neumann(SOFT, R=20.0, tol=1e-10)
        u, du = sol.dense.u(20.0)[0], sol.dense.u_prime(20.0)[0]
        kappa = math.sqrt(sol.lam)
        s = np.array([0.5, 3.0, 40.0])
        exact = u * np.cos(kappa * s) + du * np.sin(kappa * s) / kappa
        assert np.allclose(sol.dense.u(20.0 + s), exact, rtol=1e-13, atol=1e-13 * u)

    def test_rejects_ball_inside_support(self):
        with pytest.raises(SolverError):
            solve_neumann(SOFT, R=0.4)

    @pytest.mark.parametrize("R", [20.0, 50.0])
    def test_eigenvalue_matches_transcendental_matching_equation(self, R):
        # for the soft sphere the ball solution is piecewise closed form:
        # sinh(sqrt(v0/2 - lam) r) inside, C sin(sqrt(lam) r + phi) outside;
        # matching the log-derivative at the step and imposing the boundary
        # condition gives a one-variable root problem solvable to 40 digits
        import mpmath as mp

        mp.mp.dps = 40
        ours = solve_neumann(SOFT, R=R, tol=1e-12).lam
        v0, a0 = mp.mpf(100), mp.mpf("0.5")

        def defect(lam):
            kt = mp.sqrt(v0 / 2 - lam)
            sl = mp.sqrt(lam)
            phi = mp.acot(kt / mp.tanh(kt * a0) / sl) - sl * a0
            return sl / mp.tan(sl * mp.mpf(R) + phi) - 1 / mp.mpf(R)

        exact = float(mp.findroot(defect, mp.mpf(ours)))
        assert ours == pytest.approx(exact, rel=1e-10)


@pytest.fixture(scope="module")
def small_kernel_setup():
    N = 50
    p_sq = shell_table(20)[2]
    neumann = solve_neumann(SOFT, R=N * 0.495, tol=1e-10)
    scat = solve_scattering(SOFT, r_max=10.0, tol=1e-10)
    return N, p_sq, neumann, scat


class TestKernels:
    def test_eta_shell_constant_and_bounded(self, small_kernel_setup):
        # one value per shell by construction; that each mode of a shell
        # gets it is checked against the per-mode path in test_shell_oracle
        N, p_sq, neumann, _ = small_kernel_setup
        eta = eta_coefficients(neumann, N, p_sq)
        assert eta.shape == p_sq.shape
        assert np.max(np.abs(eta) * p_sq) < 100.0

    def test_eta_vanishes_for_zero_potential(self):
        neumann = solve_neumann(zero_potential(), R=10.0)
        eta = eta_coefficients(neumann, 20, shell_table(5)[2])
        assert np.max(np.abs(eta)) < 1e-12

    def test_tau_bounded_and_zero_for_free_gas(self, small_kernel_setup):
        N, p_sq, neumann, _ = small_kernel_setup
        eta = eta_coefficients(neumann, N, p_sq)
        tau = tau_coefficients(eta, neumann, N, p_sq)
        assert np.all(np.isfinite(tau))
        assert np.max(np.abs(tau) * p_sq**2) < 1e4

        neumann0 = solve_neumann(zero_potential(), R=10.0)
        p_sq0 = shell_table(3)[2]
        eta0 = eta_coefficients(neumann0, 20, p_sq0)
        tau0 = tau_coefficients(eta0, neumann0, 20, p_sq0)
        assert np.max(np.abs(tau0)) < 1e-12

    def test_nu_trivial_and_negative(self, small_kernel_setup):
        _, p_sq, _, scat = small_kernel_setup
        assert np.max(np.abs(nu_coefficients(0.0, p_sq))) == 0.0
        nu = nu_coefficients(scat.a, p_sq)
        assert np.all(nu < 0.0)

    def test_kernel_identity_residuals_within_quadrature_tolerance(self, small_kernel_setup):
        N, p_sq, neumann, _ = small_kernel_setup
        res, tol = kernel_identity_residuals(neumann, N, p_sq)
        assert np.all(np.abs(res) <= tol)

    def test_kernel_sum_approaches_nu_at_larger_N(self):
        gaps = {}
        scattering = solve_scattering(SOFT, r_max=10.0, tol=1e-10)
        for N in (50, 100):
            neumann = solve_neumann(SOFT, R=N * 0.495, tol=1e-10)
            table = kernel_table(scattering, neumann, N, cutoff_norm_sq=12)
            gaps[N] = np.max(np.abs(table.eta + table.tau - table.nu))
        assert gaps[100] <= 0.7 * gaps[50]

    def test_ball_transform_matches_high_precision_quadrature(self):
        # closed-form ball solution for the soft sphere (see the eigenvalue
        # matching test), transformed with 40-digit quadrature
        import mpmath as mp

        mp.mp.dps = 40
        R = 50.0
        neumann = solve_neumann(SOFT, R=R, tol=1e-12)
        v0, a0, Rm = mp.mpf(100), mp.mpf("0.5"), mp.mpf(R)

        def defect(lam):
            kt = mp.sqrt(v0 / 2 - lam)
            sl = mp.sqrt(lam)
            phi = mp.acot(kt / mp.tanh(kt * a0) / sl) - sl * a0
            return sl / mp.tan(sl * Rm + phi) - 1 / Rm

        lam = mp.findroot(defect, mp.mpf(neumann.lam))
        kt, sl = mp.sqrt(v0 / 2 - lam), mp.sqrt(lam)
        phi = mp.acot(kt / mp.tanh(kt * a0) / sl) - sl * a0
        c_out = Rm / mp.sin(sl * Rm + phi)
        c_in = c_out * mp.sin(sl * a0 + phi) / mp.sinh(kt * a0)

        def u_exact(r):
            r = mp.mpf(r)
            return c_in * mp.sinh(kt * r) if r <= a0 else c_out * mp.sin(sl * r + phi)

        from bosegas.scattering import _radial_transform

        transform = _radial_transform(SOFT, 1.0, -1.0, neumann)
        for k in (0.12566370614359174, 1.2566370614359172):
            ours = transform(np.array([k]))[0][0]
            exact = float(
                4 * mp.pi / k
                * mp.quad(lambda r: (r - u_exact(r)) * mp.sin(k * r), [0, a0, Rm])
            )
            assert ours == pytest.approx(exact, rel=1e-10)

    def test_wave_numbers_beyond_grid_resolution_are_rejected(self):
        from bosegas.errors import QuadratureError
        from bosegas.scattering import _RadialTransform

        coarse = _RadialTransform(lambda r: np.asarray(r), np.array([0.0, 1.0]),
                                  points_per_unit=70)
        with pytest.raises(QuadratureError):
            coarse(np.array([50.0]))

    def test_kernel_table_csv_layout(self, tmp_path):
        # the kernel table of the fixture's N and cutoff, as ``scatter`` writes it
        assert main(["scatter", "--output-dir", str(tmp_path),
                     "--set", "N=50", "--set", "cutoff_norm_sq=20"]) == 0
        lines = (tmp_path / "kernels.csv").read_text().strip().split("\n")
        assert lines[0].startswith("# version: ")
        assert lines[1].startswith("# config: ")
        assert lines[2] == "norm_sq,p_abs,eta,tau,nu"
        shells = shell_table(20)[0].tolist()
        assert len(lines) == 3 + len(shells)
        first = lines[3].split(",")
        assert int(first[0]) == shells[0]
