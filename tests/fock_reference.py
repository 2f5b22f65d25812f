"""Exact references on a ``FockBasis``, for the tests.

No command builds these.  ``number_operator``, ``diagonal_operator`` and
``total_number`` are the observables of the global-basis toy.  The tests
compare the package against them: the
Gibbs state of the diagonal quasi-particle Hamiltonian ``build_D``, rotated
by the pair generator of ``build_quadratic_generator``, is the exact
quasi-free state of the Bogoliubov model on the capped basis, and
``occupation_closed_form`` gives that diagonal ensemble's occupations by an
independent route that never touches the eigensolver.
``enumerated_partition_sum`` sums the capped partition function state by
state, and ``toy_gibbs_single_n`` runs the toy Gibbs experiment at one N,
building everything for that N alone.
"""

import math
from typing import Sequence

import numpy as np

from bosegas.bogoliubov import Variant, bose_occupation, mode_coefficients
from bosegas.fock import (
    FockBasis,
    HermitianOperator,
    Triplets,
    _from_entries,
    _Letters,
    build_basis,
    build_LN,
    expect,
    gibbs,
    ladder_word,
    pair_partners,
)
from bosegas.lattice import Mode, shell_modes
from bosegas.oracles import GibbsReport
from bosegas.scattering import RadialPotential, default_r_max, potential_fourier, solve_scattering


def number_operator(basis: FockBasis, mode: Mode) -> Triplets:
    return ladder_word(basis, [(mode, "create"), (mode, "annihilate")])


def diagonal_operator(basis: FockBasis, values: np.ndarray) -> Triplets:
    """The operator that multiplies basis state i by values[i]."""
    states = np.arange(len(basis))
    return _from_entries(len(basis), states, states, values)


def total_number(basis: FockBasis) -> Triplets:
    return diagonal_operator(basis, basis.totals.astype(float))


def _check_shell_consistent(basis: FockBasis, values: np.ndarray, name: str):
    by_shell: dict[int, float] = {}
    for m, v in zip(basis.modes, values):
        key = m.norm_sq
        if key in by_shell and by_shell[key] != v:
            raise ValueError(f"{name} is not constant on shell |n|^2 = {key}")
        by_shell[key] = v


def build_D(basis: FockBasis, eps: Sequence[float]) -> HermitianOperator:
    """Diagonal quasi-particle Hamiltonian sum_p eps_p n_p."""
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (len(basis.modes),):
        raise ValueError("eps must give one energy per mode")
    _check_shell_consistent(basis, eps, "eps")
    return HermitianOperator(basis, diagonal_operator(basis, basis.occupations() @ eps))


def build_quadratic_generator(
    basis: FockBasis,
    c: Sequence[float],
    kind: str = "a_type",
    N: int | None = None,
) -> Triplets:
    """Anti-symmetric generator (1/2) sum_p c_p (X*_p X*_-p - X_p X_-p).

    With X the plain ladder operators ('a_type') this is the standard
    pair-rotation generator; 'b_type' uses the weighted operators and needs
    N.  The coefficient must be constant on each +-p pair; the p-sum counts
    every pair twice, so each unordered pair enters with full weight c_p.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (len(basis.modes),):
        raise ValueError("need one coefficient per mode")
    if kind not in ("a_type", "b_type"):
        raise ValueError("kind must be 'a_type' or 'b_type'")
    if kind == "b_type":
        if N is None:
            raise ValueError("b_type generator needs N")
        if N < basis.cap:
            raise ValueError("b_type generator needs N >= cap")
    _check_shell_consistent(basis, c, "generator coefficient")

    pairs = pair_partners(basis.modes)
    for i, j in pairs:
        if c[i] != c[j]:
            raise ValueError("generator coefficient must match on +-p pairs")
    weighted = kind == "b_type"
    raising = [
        (c[i], ((i, 1, weighted), (j, 1, weighted))) for i, j in pairs if c[i] != 0.0
    ]
    rows, cols, values = _Letters(basis, N).entries(raising)
    # X_-p X_p is the exact transpose of X*_p X*_-p
    return _from_entries(
        len(basis),
        np.concatenate((rows, cols)),
        np.concatenate((cols, rows)),
        np.concatenate((values, -values)),
    )


def _budget_partition(eps: Sequence[float], beta: float, cap: int) -> np.ndarray:
    """z[m] = sum over occupation vectors with total m of exp(-beta * energy)."""
    z = np.zeros(cap + 1)
    z[0] = 1.0
    for e in eps:
        g = np.exp(-beta * e * np.arange(cap + 1))
        out = np.zeros(cap + 1)
        for m in range(cap + 1):
            out[m] = float(np.dot(g[: m + 1], z[m::-1]))
        z = out
    return z


def occupation_closed_form(
    eps, beta: float, cap: int, mode: int = 0
) -> tuple[float, float]:
    """Mean occupation of one mode in the capped canonical ensemble.

    Returns (capped, uncapped).  The capped value is the explicit finite
    sum over the shared-budget basis, evaluated by convolving per-mode
    geometric weights; it never touches the eigensolver route.  The
    uncapped reference is the Bose factor 1/(exp(beta*eps)-1).
    """
    eps_arr = np.atleast_1d(np.asarray(eps, dtype=float))
    if not (0 <= mode < len(eps_arr)):
        raise ValueError("mode index out of range")
    rest = np.delete(eps_arr, mode)
    z_rest = _budget_partition(rest, beta, cap)
    z_rest_cum = np.cumsum(z_rest)  # z_rest_cum[m] = partitions with total <= m
    g = np.exp(-beta * eps_arr[mode] * np.arange(cap + 1))
    weights = g * z_rest_cum[::-1]
    z_total = math.fsum(weights.tolist())
    first_moment = math.fsum((np.arange(cap + 1) * weights).tolist())
    return first_moment / z_total, bose_occupation(beta * eps_arr[mode])


def enumerated_partition_sum(basis: FockBasis, eps: Sequence[float], beta: float) -> float:
    """sum_i exp(-beta E_i) over every state of the capped basis, E = occupations @ eps."""
    energies = basis.occupations() @ np.asarray(eps, dtype=float)
    return float(math.fsum(np.exp(-beta * energies).tolist()))


def toy_gibbs_single_n(
    N: int,
    potential: RadialPotential,
    shells: Sequence[int],
    cap: int,
    beta: float,
) -> tuple[GibbsReport, list[dict]]:
    """The toy Gibbs experiment at one N, with its basis, v_hat and observables built for it.

    The same report and comparison rows as ``toy_gibbs_experiment`` gives
    for that N.
    """
    modes = shell_modes(shells)
    basis = build_basis(modes, cap)
    if N < cap:
        raise ValueError("toy experiment needs N >= cap")

    v_hat = potential_fourier(potential)
    a_model = solve_scattering(potential, r_max=default_r_max(potential)).a

    state = gibbs(build_LN(basis, N, v_hat), beta)

    occupations = {}
    pairings = {}
    rows = []
    first_by_shell: dict[int, Mode] = {}
    for m in modes:
        first_by_shell.setdefault(m.norm_sq, m)
    firsts = sorted(first_by_shell.items())
    model = mode_coefficients([m.p_sq for _, m in firsts], a_model, beta)
    model_rows = zip(*(column.tolist() for column in (
        model.occupation(Variant.A), model.occupation(Variant.B),
        model.pairing(Variant.A), model.pairing(Variant.B),
    )))
    for (norm_sq, m), (occ_a, occ_b, pair_a, pair_b) in zip(firsts, model_rows):
        occ = expect(state, number_operator(basis, m))
        neg = next(mm for mm in modes if mm.n == m.negated())
        pair_val = expect(state, ladder_word(basis, [(m, "create"), (neg, "create")]))
        occupations[norm_sq] = occ
        pairings[norm_sq] = pair_val
        rows.append({
            "norm_sq": norm_sq,
            "oracle_occ": occ,
            "model_occ_A": occ_a,
            "model_occ_B": occ_b,
            "oracle_pair": pair_val,
            "model_pair_A": pair_a,
            "model_pair_B": pair_b,
        })

    offdiag_max = 0.0
    probe = modes[0]
    for other in modes[1:3]:
        cross = ladder_word(basis, [(probe, "create"), (other, "annihilate")])
        offdiag_max = max(offdiag_max, abs(expect(state, cross)))

    totals = basis.totals.astype(float)
    report = GibbsReport(
        beta=beta,
        partition=state.Z,
        occupations=occupations,
        pairings=pairings,
        n_plus=expect(state, total_number(basis)),
        n_plus_sq=expect(state, diagonal_operator(basis, totals * (totals - 1.0))),
        offdiagonal_max=offdiag_max,
    )
    return report, rows
