import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

import bosegas.fock
from bosegas.errors import BasisSizeError, GuardError
from bosegas.fock import (
    GibbsState,
    HermitianOperator,
    build_basis,
    build_LN,
    expect,
    gibbs,
    ladder,
)
from bosegas.lattice import TWO_PI, enumerate_shells
from bosegas.scattering import RadialPotential, potential_fourier
from fock_reference import build_D, build_quadratic_generator, total_number
from sparse_reference import csr, triplets

SHELL1 = [m for s in enumerate_shells(1) for m in s.members]


def single_pair():
    return [m for m in SHELL1 if m.n in ((1, 0, 0), (-1, 0, 0))]


def kinetic(basis):
    """Kinetic energy sum_p |p|^2 n_p."""
    return build_D(basis, [m.p_sq for m in basis.modes])


def total_momentum(basis):
    """(n_states, 3) total momentum of every basis state, in integer lattice units."""
    return basis.occupations() @ np.array([m.n for m in basis.modes])


def position(basis, occ):
    """Basis position of one occupation vector."""
    return int(basis.rank(np.array([occ]))[0])


class TestBasis:
    def test_state_counts_match_stars_and_bars(self):
        one = [m for m in SHELL1 if m.n == (1, 0, 0)]
        assert len(build_basis(one, 2)) == 3
        assert len(build_basis(single_pair(), 2)) == 6
        assert len(build_basis(SHELL1, 3)) == 84  # C(9, 6)

    def test_states_ordered_by_total_then_lex(self):
        basis = build_basis(single_pair(), 2)
        assert basis.occupations().tolist() == [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1], [2, 0]]

    def test_size_guard_reports_count(self):
        with pytest.raises(BasisSizeError) as err:
            build_basis(SHELL1, 30)
        assert err.value.count == math.comb(36, 6)

    def test_state_accessor(self):
        basis = build_basis(single_pair(), 3)
        assert basis.totals[1] == 1
        momentum = tuple(total_momentum(basis)[1].tolist())
        assert momentum in ((1, 0, 0), (-1, 0, 0))


class TestLadder:
    def test_creation_amplitudes(self):
        pair = single_pair()
        basis = build_basis(pair, 3)
        aplus = csr(ladder(basis, pair[0], "create"))
        ground = position(basis, (0, 0))
        one = position(basis, (0, 1)) if pair[0].n == (0, 0, 1) else position(basis, (1, 0))
        assert aplus[one, ground] == pytest.approx(1.0)
        two = position(basis, (2, 0))
        assert aplus[two, one] == pytest.approx(math.sqrt(2.0))

    def test_weighted_amplitude_carries_population_factor(self):
        pair = single_pair()
        basis = build_basis(pair, 4)
        N = 10
        bplus = csr(ladder(basis, pair[0], "b_create", N=N))
        src = position(basis, (1, 2))  # N_+ = 3
        dst = position(basis, (2, 2))
        assert bplus[dst, src] == pytest.approx(math.sqrt(2.0) * math.sqrt(1.0 - 3.0 / N))

    def test_adjoint_consistency_is_exact(self):
        basis = build_basis(SHELL1, 3)
        for kind_c, kind_a, N in (("create", "annihilate", None), ("b_create", "b_annihilate", 5)):
            up = csr(ladder(basis, SHELL1[0], kind_c, N=N))
            down = csr(ladder(basis, SHELL1[0], kind_a, N=N))
            assert (up.T != down).nnz == 0

    def test_ccr_on_interior_states(self):
        basis = build_basis(single_pair(), 4)
        a_op = csr(ladder(basis, single_pair()[0], "annihilate"))
        comm = (a_op @ a_op.T - a_op.T @ a_op).diagonal()
        for i in range(len(basis)):
            if basis.totals[i] < basis.cap:
                assert comm[i] == pytest.approx(1.0)

    def test_rejects_foreign_mode(self):
        basis = build_basis(single_pair(), 2)
        other = [m for m in SHELL1 if m.n == (0, 1, 0)][0]
        with pytest.raises(ValueError):
            ladder(basis, other, "create")
        with pytest.raises(ValueError):
            ladder(basis, single_pair()[0], "b_create", N=1)


class TestDiagonalBuilders:
    def test_quasiparticle_energies_per_state(self):
        basis = build_basis(SHELL1, 3)
        eps = np.full(6, 2.5)
        D = build_D(basis, eps)
        diag = csr(D).diagonal()
        vac = position(basis, (0,) * 6)
        assert diag[vac] == 0.0
        single = position(basis, (1, 0, 0, 0, 0, 0))
        assert diag[single] == pytest.approx(2.5)
        mixed = position(basis, (2, 1, 0, 0, 0, 0))
        assert diag[mixed] == pytest.approx(2 * 2.5 + 2.5)

    def test_kinetic_single_excitation(self):
        basis = build_basis(SHELL1, 2)
        K = kinetic(basis)
        single = position(basis, (1, 0, 0, 0, 0, 0))
        assert csr(K).diagonal()[single] == pytest.approx(TWO_PI**2, rel=1e-14)

    def test_kinetic_spectrum_is_occupation_sum(self):
        basis = build_basis(SHELL1, 3)
        K = kinetic(basis)
        p_sq = np.array([m.p_sq for m in basis.modes])
        assert np.allclose(csr(K).diagonal(), basis.occupations() @ p_sq, rtol=1e-14)

    def test_shell_consistency_enforced(self):
        basis = build_basis(SHELL1, 2)
        bad = np.arange(6.0)
        with pytest.raises(ValueError):
            build_D(basis, bad)


@pytest.fixture(scope="module")
def ln_setup():
    basis = build_basis(SHELL1, 4)
    v_hat = potential_fourier(RadialPotential.soft_sphere(100.0, 0.5))
    return basis, v_hat, build_LN(basis, N=16, v_hat=v_hat)


class TestExcitationHamiltonian:

    def test_free_gas_reduces_to_kinetic(self):
        basis = build_basis(SHELL1, 4)
        ln = build_LN(basis, N=16, v_hat=np.zeros_like)
        assert (csr(ln) - csr(kinetic(basis))).nnz == 0

    def test_vacuum_expectation(self, ln_setup):
        basis, v_hat, ln = ln_setup
        vac = position(basis, (0,) * 6)
        assert csr(ln)[vac, vac] == pytest.approx(15.0 / 2.0 * v_hat(0.0), rel=1e-13)

    def test_exactly_hermitian_and_momentum_conserving(self, ln_setup):
        basis, _, ln = ln_setup
        H = csr(ln)
        assert abs(H - H.T).max() <= 1e-12
        momenta = total_momentum(basis)
        for c in range(3):
            P = sp.diags(momenta[:, c].astype(float)).tocsr()
            comm = H @ P - P @ H
            assert (abs(comm).max() if comm.nnz else 0.0) <= 1e-10

    def test_two_mode_hamiltonian_matches_hand_formula(self):
        # on a single +-p pair the cubic block is empty and the quartic block
        # is diagonal, so the whole operator reduces to
        #   K + scalar/number block + direct term + v(2p/N)/N * n_+ n_-
        #   + v(0)/(2N) [n_+(n_+-1) + n_-(n_--1) + 2 n_+ n_-]
        #   + v(p/N) (b*_+ b*_- + h.c.)
        pair = single_pair()
        N, cap = 12, 3
        v_hat = potential_fourier(RadialPotential.soft_sphere(100.0, 0.5))
        basis = build_basis(pair, cap)
        ln = csr(build_LN(basis, N, v_hat)).toarray()

        v0, v1, v2 = v_hat(0.0), v_hat(TWO_PI / N), v_hat(2.0 * TWO_PI / N)
        ip = basis.mode_index[(1, 0, 0)]
        im = basis.mode_index[(-1, 0, 0)]
        expected = np.zeros_like(ln)
        for col, occ in enumerate(basis.occupations().tolist()):
            n_up, n_dn = occ[ip], occ[im]
            t = n_up + n_dn
            diag = TWO_PI**2 * t
            diag += 0.5 * N * v0 - 0.5 * v0 * (1 - t / N) - 0.5 * v0 * t * t / N
            diag += v1 * t * (N - t) / N
            diag += v0 / (2 * N) * (n_up * (n_up - 1) + n_dn * (n_dn - 1) + 2 * n_up * n_dn)
            diag += v2 / (2 * N) * 2 * n_up * n_dn
            expected[col, col] = diag
        b_up = csr(ladder(basis, pair[0], "b_create", N=N)).toarray()
        b_dn = csr(ladder(basis, pair[1], "b_create", N=N)).toarray()
        anom = v1 * (b_up @ b_dn)
        expected += anom + anom.T
        assert np.max(np.abs(ln - expected)) < 1e-12

    def test_needs_negation_closed_modes(self):
        half = [m for m in SHELL1 if m.n in ((1, 0, 0), (0, 1, 0))]
        basis = build_basis(half, 2)
        with pytest.raises(ValueError):
            build_LN(basis, N=8, v_hat=lambda k: 1.0)

    def test_needs_enough_particles(self):
        basis = build_basis(SHELL1, 4)
        with pytest.raises(ValueError):
            build_LN(basis, N=3, v_hat=lambda k: 1.0)


class TestQuadraticGenerator:
    def test_zero_coefficients_give_zero_matrix(self):
        basis = build_basis(SHELL1, 2)
        G = build_quadratic_generator(basis, np.zeros(6))
        assert G.nnz == 0

    @pytest.mark.parametrize("kind,N", [("a_type", None), ("b_type", 12)])
    def test_antisymmetry_is_exact(self, kind, N):
        basis = build_basis(SHELL1, 4)
        G = csr(build_quadratic_generator(basis, np.full(6, 0.2), kind, N=N))
        assert (G.T != -G).nnz == 0

    def test_two_mode_squeezed_occupation(self):
        # exponentiating the single-pair generator on the vacuum gives
        # <n_p> = sinh^2(c) up to the tanh-series tail beyond the cap
        pair = single_pair()
        for c, cap in ((0.1, 10), (0.3, 14)):
            basis = build_basis(pair, cap)
            G = csr(build_quadratic_generator(basis, [c, c])).toarray()
            psi = expm(G)[:, position(basis, (0, 0))]
            n_per_mode = float(psi @ (csr(total_number(basis)).toarray() @ psi)) / 2.0
            tail = math.tanh(c) ** (2 * (cap // 2 + 1))
            assert abs(n_per_mode - math.sinh(c) ** 2) <= 4.0 * tail + 1e-12

    def test_squeezed_amplitudes_follow_tanh_series(self):
        c, cap = 0.25, 12
        basis = build_basis(single_pair(), cap)
        G = csr(build_quadratic_generator(basis, [c, c])).toarray()
        psi = expm(G)[:, position(basis, (0, 0))]
        for k in range(cap // 2 + 1):
            expected = math.tanh(c) ** k / math.cosh(c)
            # truncating at pair number K perturbs amplitude k at the order
            # of the series terms it can no longer reach, tanh^(2(K+1)-k)
            tail_k = math.tanh(c) ** (2 * (cap // 2 + 1) - k)
            assert abs(psi[position(basis, (k, k))] - expected) <= 4.0 * tail_k + 1e-12
        # unpaired components never appear
        assert abs(psi[position(basis, (1, 0))]) < 1e-14

    def test_pair_mismatch_rejected(self):
        basis = build_basis(single_pair(), 2)
        with pytest.raises(ValueError):
            build_quadratic_generator(basis, [0.1, 0.2])


class TestGibbs:
    def test_zero_hamiltonian_gives_uniform_state(self):
        basis = build_basis(single_pair(), 2)
        H = HermitianOperator(basis, triplets(sp.csr_matrix((6, 6))))
        gs = gibbs(H, beta=1.0)
        assert np.allclose(csr(gs.rho).diagonal(), 1.0 / 6.0, rtol=1e-14)
        identity = triplets(sp.identity(6, format="csr"))
        assert expect(gs, identity) == pytest.approx(1.0)

    def test_diagonal_hamiltonian_boltzmann_weights(self):
        basis = build_basis(single_pair(), 3)
        D = build_D(basis, [1.3, 1.3])
        gs = gibbs(D, beta=0.7)
        energies = csr(D).diagonal()
        w = np.exp(-0.7 * (energies - energies.min()))
        assert np.allclose(csr(gs.rho).diagonal(), w / w.sum(), rtol=1e-14)
        assert gs.Z == pytest.approx(float(w.sum()), rel=1e-14)

    def test_trace_one_and_positivity_dense_route(self):
        basis = build_basis(single_pair(), 6)
        G = csr(build_quadratic_generator(basis, [0.2, 0.2]))
        H = HermitianOperator(basis, triplets(csr(build_D(basis, [1.0, 1.0])) + 0.3 * (G @ G)))
        gs = gibbs(H, beta=0.9)
        rho = csr(gs.rho).toarray()
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        assert float(np.linalg.eigvalsh(rho).min()) >= -1e-12

    def test_zero_temperature_projects_on_ground_state(self):
        basis = build_basis(single_pair(), 4)
        D = build_D(basis, [2.0, 2.0])
        gs = gibbs(D, beta=1e3)
        diag = csr(gs.rho).diagonal()
        vac = position(basis, (0, 0))
        assert diag[vac] == pytest.approx(1.0)
        assert float(np.sum(diag)) == pytest.approx(1.0)

    def test_dense_guard(self, monkeypatch):
        monkeypatch.setattr(bosegas.fock, "DENSE_LIMIT", 10)
        basis = build_basis(SHELL1, 6)
        G = csr(build_quadratic_generator(basis, np.full(6, 0.1)))
        H = HermitianOperator(basis, triplets(csr(kinetic(basis)) + (G - G.T)))
        with pytest.raises(GuardError):
            gibbs(H, beta=1.0)

    def test_trace_one_past_the_old_whole_basis_limit(self):
        basis = build_basis(SHELL1, 12)
        assert len(basis) == 18_564
        ln = build_LN(basis, N=16, v_hat=potential_fourier(RadialPotential.soft_sphere(100.0, 0.5)))
        gs = gibbs(ln, beta=0.03)
        assert abs(float(csr(gs.rho).diagonal().sum()) - 1.0) <= 1e-12

    def test_each_component_of_LN_has_one_total_momentum(self):
        # gibbs diagonalizes per component; a term of L_N that broke momentum
        # conservation would merge momentum sectors into one component
        modes = [m for s in enumerate_shells(2) for m in s.members]
        basis = build_basis(modes, 4)
        ln = build_LN(basis, N=16, v_hat=potential_fourier(RadialPotential.soft_sphere(100.0, 0.5)))
        n_components, labels = connected_components(csr(ln), connection="weak")
        momenta = np.column_stack([labels, total_momentum(basis)])
        assert len(np.unique(momenta, axis=0)) == n_components

    def test_expect_on_vacuum_projector(self):
        basis = build_basis(single_pair(), 2)
        vac = position(basis, (0, 0))
        rho = triplets(sp.csr_matrix(([1.0], ([vac], [vac])), shape=(6, 6)))
        state = GibbsState(rho=rho, Z=1.0, beta=1.0, ground_energy=0.0)
        assert expect(state, total_number(basis)) == 0.0

    def test_expect_rejects_basis_mismatch(self):
        b1 = build_basis(single_pair(), 2)
        b2 = build_basis(single_pair(), 3)
        state = gibbs(HermitianOperator(b1, total_number(b1)), beta=1.0)
        with pytest.raises(ValueError):
            expect(state, total_number(b2))
