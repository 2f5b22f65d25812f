"""Closed-form and exact-diagonalization oracles on the truncated Fock space.

These routines re-derive, by independent routes, the quantities the
analytic coefficient formulas predict: capped partition sums, summed
exactly by a recurrence over the total excitation number, against
product-formula sandwiches; rotated-ensemble
expectations by exact matrix exponentials; and the thermal occupation and
pairing of the interacting excitation Hamiltonian by its exact Gibbs state,
built in one momentum sector per orbit of the cubic group, with the
sectors, the v_hat transform and the observables built once for all the
particle numbers of one call.  The reports are plain dataclasses;
``cli`` renders them.

The rotated expectations exploit that the pair generator conserves, for
every +-p pair, the occupation difference n_p - n_-p.  The capped basis
therefore splits into sectors labelled by those differences, inside which
everything is small and dense; the per-sector computation is exactly the
restriction of the full capped-space computation, not an approximation.
Pair i of the sector |d| holds 2 k_i + |d_i| quanta, so the sector states
are the compositions of the budget B = (cap - sum |d|) // 2 into the pairs
plus a slack slot, and a pair raise moves one unit from the slack slot to
the pair; the labels |d| are the compositions of the cap with a slack slot.
``fock.compositions`` and ``fock.composition_rank`` enumerate and rank both,
as they do the Fock basis; states and raises are built once per budget.
All sectors of one budget therefore have the same shape, and they pass
through the computation as one (k, s, s) stack: one generator write, one
``expm`` call, one orthogonality guard over all slices and batched matrix
products for the traces.

Pairs with exactly equal (nu, eps), as all pairs of one shell are, are
interchangeable: the generator and the energy see a pair only through its
own (k, d, nu, eps), and the cap only through totals, so permuting them
maps the sector |d| to the sector pi|d| with the same spectrum (one solve
per symmetry orbit, as in exact diagonalization; Sandvik, AIP Conf. Proc.
1297, 135 (2010)).  Only the orbit representatives, the labels whose |d|
is non-increasing inside every group of interchangeable pairs, are
exponentiated.  A representative's number term counts once per label of
its orbit.  The pairing sum over all sectors is the same for every pair
of the target's group T, so a representative traces R_T, the raises of
all of T, and the total is divided by |T|.  Z takes every sector, from
its energies alone.  The terms are added in label order, as a loop over
the sectors one at a time would add them; with no interchangeable pairs
every orbit is one label and the sums are those of that loop.

``expm`` is scaling and squaring with diagonal Pade approximants (Higham,
SIAM J. Matrix Anal. Appl. 26 (2005)) in numpy, batched over the stack:
the degree, and the scaling when the largest 1-norm of the stack exceeds
what degree 13 covers, are chosen once per stack, from the bounds on the
1-norm up to which each degree meets double-precision unit roundoff.

The adjudication runs on the unit lattice (mode energy |n|^2), the moment
bound of the partition sandwich takes mu = min(eps)/2, and the toy's v_hat
and scattering solve are those of any potential: 0.0 for the free gas.

Coefficient-convention candidates are assembled directly from the rotation
angles nu and energies eps: both the occupation and the pairing candidate
have the form "Bogoliubov weight times (1 + 2 n)", where n is the thermal
occupation proxy of the convention (bare Bose factor for B, the same
multiplied by eps for A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bogoliubov import Variant, bose_occupation, mode_coefficients
from .errors import GuardError
# gibbs, expect and ladder are looked up here by name by the benchmark's tracer
from .fock import (  # noqa: F401
    FockBasis,
    _Blocks,
    _Letters,
    build_basis,
    build_LN,
    check_basis_size,
    composition_rank,
    compositions,
    expect,
    gibbs,
    ladder,
    pair_partners,
)
# enumerate_shells is looked up here by name by the benchmark's tracer
from .lattice import Mode, enumerate_shells, shell_modes  # noqa: F401
from .scattering import (
    RadialPotential,
    default_r_max,
    potential_fourier,
    solve_scattering,
)

__all__ = [
    "PartitionSandwich",
    "partition_product_check",
    "RotatedExpectation",
    "rotated_number_expectation",
    "pairing_expectation",
    "squeezing_truncation_bound",
    "AdjudicationReport",
    "adjudicate_variants",
    "GibbsReport",
    "toy_gibbs_experiment",
]


# ---------------------------------------------------------------------------
# partition-function sandwich
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSandwich:
    brute: float
    product_lower: float
    product_upper: float
    uncapped: float
    gap: float
    mu: float


def partition_product_check(eps: Sequence[float], cap: int, beta: float) -> PartitionSandwich:
    """Exact capped partition sum against product-formula bounds.

    ``eps`` holds one energy per mode.  brute is the exact sum of
    e^{-beta E} over the occupation vectors of total at most ``cap``: the
    sum over t <= cap of the complete homogeneous symmetric polynomial
    h_t(x) in x_i = e^{-beta eps_i}, built by the recurrence that adds one
    mode at a time (z[t] += x_i z[t-1] for t = 1 .. cap).  The uncapped
    product overestimates it; the excess of states above the cap is bounded
    by the exponential moment bound exp(-beta*mu*cap) *
    prod 1/(1 - e^{-beta(eps-mu)}), taken at mu = min(eps)/2.  Every eps
    must be positive.  Violation of the sandwich is raised, not returned.
    """
    eps = np.asarray(eps, dtype=float)
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if not np.all(eps > 0.0):
        raise ValueError("every mode energy must be positive")
    mu = 0.5 * float(np.min(eps))
    z = [1.0] + [0.0] * cap  # z[t]: summed weight of the states of total t, modes so far
    for e in eps.tolist():
        x = math.exp(-beta * e)
        for t in range(1, cap + 1):
            z[t] += x * z[t - 1]
    brute = math.fsum(z)

    uncapped = float(np.prod(1.0 / (-np.expm1(-beta * eps))))
    gap = math.exp(-beta * mu * cap) * float(
        np.prod(1.0 / (-np.expm1(-beta * (eps - mu))))
    )
    orders = np.arange(cap + 1)
    product_upper = float(np.prod([math.fsum(np.exp(-beta * e * orders).tolist()) for e in eps]))
    per_mode = cap // len(eps)
    orders_lo = np.arange(per_mode + 1)
    product_lower = float(
        np.prod([math.fsum(np.exp(-beta * e * orders_lo).tolist()) for e in eps])
    )

    slack = 1e-12 * uncapped
    if not (product_lower <= brute * (1 + 1e-12) and brute <= product_upper * (1 + 1e-12)):
        raise GuardError("partition sum escaped its product sandwich")
    if not (brute <= uncapped + slack and uncapped - brute <= gap + slack):
        raise GuardError("partition sum violates the moment-bound gap")
    return PartitionSandwich(
        brute=brute,
        product_lower=product_lower,
        product_upper=product_upper,
        uncapped=uncapped,
        gap=gap,
        mu=mu,
    )


# ---------------------------------------------------------------------------
# pair-difference sectors
# ---------------------------------------------------------------------------

def _sectors(n_pairs: int, cap: int):
    """The sectors grouped by pair budget, in increasing budget.

    Yields (positions, abs_d, multiplicity, pattern) per budget: the
    positions of its labels in the lex order of all labels, the labels |d|
    (one row each), their multiplicities 2^(nonzero entries) and the
    pattern all of them share.
    """
    labels = compositions(cap, n_pairs + 1)
    abs_d = labels[:, :-1]
    budgets = labels[:, -1] // 2
    multiplicity = 2 ** np.count_nonzero(abs_d, axis=1)
    # not np.unique: its first flag-free call imports numpy.ma, ~10 ms
    for budget in sorted(set(budgets.tolist())):
        positions = np.flatnonzero(budgets == budget)
        pattern = _sector_pattern(budget, n_pairs)
        yield positions, abs_d[positions], multiplicity[positions], pattern


def _sector_pattern(budget: int, n_pairs: int):
    """Pair numbers k and pair raises of every sector with pair budget ``budget``.

    The states are the compositions of the budget into the pairs plus a
    slack slot; raising pair i moves one unit from the slack slot to slot
    i, and the composition rank locates the target.  Returns the pair
    numbers (one row per state) and the raises as (pair, target, source)
    arrays in (source, pair) order.
    """
    comps = compositions(budget, n_pairs + 1)
    has_slack = np.repeat(comps[:, -1:] > 0, n_pairs, axis=1)
    source, pair = np.nonzero(has_slack)
    moved = comps[source]
    moved[np.arange(len(source)), pair] += 1
    moved[:, -1] -= 1
    return comps[:, :-1], pair, composition_rank(moved), source


def _sector_diagonals(abs_d, kvecs, eps_pairs: np.ndarray):
    """Diagonals of N_+ and of the energy in every sector of one budget, one row per label."""
    occ = (2 * kvecs + np.asarray(abs_d, dtype=np.int64)[:, None, :]).astype(float)
    return occ.sum(axis=2), occ @ eps_pairs


def _sector_matrices(abs_d, pattern, nu_pairs: np.ndarray):
    """Generators and raise amplitudes of the sectors ``abs_d`` of one budget.

    ``abs_d`` holds one label per row, all of the budget of ``pattern``;
    both results have one slice per label.
    """
    kvecs, pair, target, source = pattern
    d = np.asarray(abs_d, dtype=np.int64)
    k = kvecs[source, pair]
    amp = np.sqrt((k + 1) * (k + d[:, pair] + 1))
    value = nu_pairs[pair] * amp
    G = np.zeros((len(d), len(kvecs), len(kvecs)))
    G[:, target, source] += value
    G[:, source, target] -= value
    return G, amp


def _pair_groups(nu_pairs: np.ndarray, eps_pairs: np.ndarray) -> list[list[int]]:
    """The interchangeable pairs: grouped by exactly equal (nu, eps), each group in pair order."""
    groups: dict = {}
    for pi, key in enumerate(zip(nu_pairs.tolist(), eps_pairs.tolist())):
        groups.setdefault(key, []).append(pi)
    return list(groups.values())


def _orbit_representatives(abs_d: np.ndarray, groups: list[list[int]]):
    """The rows of ``abs_d`` that represent their orbit, and the orbit sizes.

    A label represents its orbit when its |d| is non-increasing inside
    every group; its orbit size is the product over the groups of
    m! / prod (run length)!.
    """
    rep = np.ones(len(abs_d), dtype=bool)
    orbit = np.ones(len(abs_d), dtype=np.int64)
    for members in groups:
        values = abs_d[:, members]
        rep &= (values[:, :-1] >= values[:, 1:]).all(axis=1)
        # on a non-increasing row, run is the position of entry i inside
        # its run of equal entries, and every partial orbit is an integer
        run = np.ones_like(orbit)
        for i in range(1, len(members)):
            run = np.where(values[:, i] == values[:, i - 1], run + 1, 1)
            orbit = orbit * (i + 1) // run
    rows = np.flatnonzero(rep)
    return rows, orbit[rows]


# (degree m, largest 1-norm at which the degree's backward error stays
# below unit roundoff, numerator coefficients b_0 .. b_m) of the diagonal
# Pade approximants; the denominator has the same coefficients with
# alternating signs (Higham, SIAM J. Matrix Anal. Appl. 26 (2005)).
_PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1,
     (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    (9, 2.097847961257068e0,
     (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
      2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    (13, 5.371920351148152e0,
     (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
      1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
      33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
)


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of every slice of a (k, s, s) stack.

    The smallest Pade degree whose bound covers the largest 1-norm of the
    stack; past degree 13's bound the stack is scaled by 2^-j into it and
    the result squared j times.  The odd and even parts U, V of the
    numerator are built from the even powers of A (degree 13 by Higham's
    nested scheme, which needs A^2, A^4 and A^6 only), and exp(A) is
    (V - U)^-1 (V + U), solved per slice.
    """
    A = np.asarray(A, dtype=float)
    norm = float(np.abs(A).sum(axis=-2).max(initial=0.0))
    degree, theta, b = next((row for row in _PADE if norm <= row[1]), _PADE[-1])
    squarings = math.ceil(math.log2(norm / theta)) if norm > theta else 0
    A = A / 2.0**squarings
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    if degree < 13:
        powers = [eye, A2]
        while len(powers) <= degree // 2:
            powers.append(powers[-1] @ A2)
        odd = sum(b[2 * i + 1] * P for i, P in enumerate(powers))
        V = sum(b[2 * i] * P for i, P in enumerate(powers))
    else:
        A4 = A2 @ A2
        A6 = A4 @ A2
        odd = (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
               + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    U = A @ odd
    R = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        R = R @ R
    return R


def _orthogonal_expms(G: np.ndarray) -> np.ndarray:
    """Exponentials of a stack of anti-symmetric blocks, orthogonality checked a posteriori."""
    U = expm(G)
    defect = float(np.max(np.abs(U.transpose(0, 2, 1) @ U - np.eye(U.shape[-1]))))
    if defect > 1e-10:
        raise GuardError(f"generator exponential lost orthogonality ({defect:.3e})")
    return U


@dataclass(frozen=True)
class RotatedExpectation:
    """Exact capped rotated-ensemble value with the convention candidates."""

    value: float
    candidates: dict
    Z: float


def _convention_occupations(eps: np.ndarray, beta: float) -> dict:
    n_b = np.array([bose_occupation(beta * e) for e in eps])
    return {"A": eps * n_b, "B": n_b}


def _rotation_guard(nu: np.ndarray, eps: np.ndarray, beta: float, cap: int):
    occ_scale = math.sinh(float(np.max(np.abs(nu)))) ** 2
    thermal = 1.0 + 2.0 * bose_occupation(beta * float(np.min(eps)))
    if occ_scale * thermal * 10.0 > cap:
        raise GuardError(
            "squeezed occupations too close to the cap; the truncated oracle "
            f"would be corrupted (guard value {occ_scale * thermal * 10.0:g} > cap {cap})"
        )


def _pair_arrays(modes: Sequence[Mode], nu, eps):
    nu = np.asarray(nu, dtype=float)
    eps = np.asarray(eps, dtype=float)
    pairs = pair_partners(modes)
    for i, j in pairs:
        if nu[i] != nu[j] or eps[i] != eps[j]:
            raise ValueError("nu and eps must match on +-p pairs")
    nu_pairs = nu[[i for i, _ in pairs]]
    eps_pairs = eps[[i for i, _ in pairs]]
    return pairs, nu_pairs, eps_pairs, nu, eps


def _rotated_expectations(
    modes: Sequence[Mode], cap: int, nu, eps, beta: float, mode: Mode
) -> tuple[RotatedExpectation, RotatedExpectation]:
    """The N_+ and a*_p a*_-p expectations (p the pair of ``mode``) in one sector pass.

    The capped basis over ``modes`` is never built: the sectors enumerate
    it.  The live orbit representatives of one pair budget go through one
    stacked exponential, and each stands for its whole orbit; Z takes every
    sector from its energies alone.  The terms are added in label order.
    """
    pairs, nu_pairs, eps_pairs, nu, eps = _pair_arrays(modes, nu, eps)
    _rotation_guard(nu, eps, beta, cap)
    mode_pos = [m.n for m in modes].index(mode.n)
    target_pair = next(
        pi for pi, (i, j) in enumerate(pairs) if mode_pos in (i, j)
    )
    groups = _pair_groups(nu_pairs, eps_pairs)
    target_group = next(members for members in groups if target_pair in members)

    # the number, pairing and Z term of every label: multiplicity times the
    # sector's Z; for a representative, multiplicity times orbit size times
    # its number and R_T trace; 0 for the other labels and for those whose
    # weights all underflow
    terms = np.zeros((3, math.comb(cap + len(pairs), len(pairs))))
    for positions, abs_d, multiplicity, pattern in _sectors(len(pairs), cap):
        nplus, energy = _sector_diagonals(abs_d, pattern[0], eps_pairs)
        weights = np.exp(-beta * energy)
        terms[2, positions] = multiplicity * weights.sum(axis=1)
        reps, orbit = _orbit_representatives(abs_d, groups)
        live = weights[reps].any(axis=1)
        if not live.any():
            continue
        reps, orbit = reps[live], orbit[live]
        G, amp = _sector_matrices(abs_d[reps], pattern, nu_pairs)
        U = _orthogonal_expms(G)
        _, pair, target, source = pattern
        # R_T U: a single pair's R has one entry per target row, so each
        # pair of the group adds one row gather of U
        RU = np.zeros_like(U)
        for t in target_group:
            mine = pair == t
            RU[:, target[mine]] += amp[:, mine, None] * U[:, source[mine]]
        # the diagonals of U^T diag(nplus) U and of U^T R_T U
        number_diag = (U * U).transpose(0, 2, 1) @ nplus[reps][:, :, None]
        pair_diag = np.einsum("kij,kij->kj", U, RU)[:, :, None]
        rows = weights[reps][:, None, :]
        terms[:2, positions[reps]] = (multiplicity[reps] * orbit) * np.array(
            [(rows @ number_diag)[:, 0, 0], (rows @ pair_diag)[:, 0, 0]]
        )

    # added one label at a time in label order, as a loop over the sectors would
    number_sum = pair_sum = z_sum = 0.0
    for number, pairing, z in zip(*terms.tolist()):
        number_sum += number
        pair_sum += pairing
        z_sum += z

    sinh_sq = np.sinh(nu) ** 2
    occs = _convention_occupations(eps, beta)
    number = RotatedExpectation(
        value=number_sum / z_sum,
        candidates={
            key: float(np.sum(sinh_sq * (1.0 + 2.0 * occ) + occ))
            for key, occ in occs.items()
        },
        Z=z_sum,
    )

    j = mode_pos
    half_sinh2 = 0.5 * math.sinh(2.0 * nu[j])
    pairing = RotatedExpectation(
        value=pair_sum / len(target_group) / z_sum,
        candidates={
            key: float(half_sinh2 * (1.0 + 2.0 * occ[j])) for key, occ in occs.items()
        },
        Z=z_sum,
    )
    return number, pairing


def rotated_number_expectation(
    basis: FockBasis, nu, eps, beta: float
) -> RotatedExpectation:
    """tr(e^{-G} N_+ e^{G} rho_D) on the capped basis, G the pair-rotation generator.

    The trace is assembled sector by sector (see module docstring); each
    sector block is exponentiated exactly, so the only deviation from the
    analytic formulas is the cap itself.  Alongside the exact value the two
    coefficient-convention candidates sum(sinh^2 nu (1+2n) + n) are
    returned, with the uncapped thermal occupations.
    """
    return _rotated_expectations(basis.modes, basis.cap, nu, eps, beta, basis.modes[0])[0]


def pairing_expectation(
    basis: FockBasis, nu, eps, beta: float, mode: Mode
) -> RotatedExpectation:
    """tr(e^{-G} a*_p a*_{-p} e^{G} rho_D) for the pair containing ``mode``.

    The conjugation direction matches the generator convention used for the
    number expectation.  Candidates are sinh(2 nu_p)/2 * (1 + 2 n) with the
    per-convention occupation proxies.
    """
    return _rotated_expectations(basis.modes, basis.cap, nu, eps, beta, mode)[1]


# ---------------------------------------------------------------------------
# squeezing truncation bound
# ---------------------------------------------------------------------------

def squeezing_truncation_bound(nus: Sequence[float], cap: int) -> float:
    """Conservative overestimate of the cap-truncation error of the squeezing oracles.

    The ideal (uncapped) rotated vacuum has, per +-p pair, geometric weights
    tanh^{2k}(nu)/cosh^2(nu) over pair number k.  The bound combines the
    exactly computable tail of that product distribution beyond the cap
    with a boundary-coupling estimate for exponentiating the truncated
    generator, and a safety factor of ten on top.  It bounds both the
    number error and the per-pair pairing error in practice; see the test
    suite for the empirical margin.
    """
    t = np.array([math.tanh(abs(v)) ** 2 for v in nus], dtype=float)
    if np.any(t >= 1.0):
        raise ValueError("squeezing parameters must be finite")
    budget = cap // 2
    horizon = budget + 64
    dist = np.array([1.0])
    for tv in t:
        geom = (1.0 - tv) * tv ** np.arange(horizon + 1)
        geom[-1] += tv ** (horizon + 1)  # fold the remaining mass into the last bin
        dist = np.convolve(dist, geom)[: horizon + 1]
    s = np.arange(len(dist))
    tail_mask = s > budget
    tail_prob = float(dist[tail_mask].sum())
    tail_n = float((2.0 * s[tail_mask] * dist[tail_mask]).sum())
    ideal_n = float(np.sum(2.0 * np.sinh(np.abs(np.asarray(nus))) ** 2))

    # boundary coupling of the truncated generator: mass at the first
    # out-of-cap layer times the largest lowering amplitude
    layer = float(dist[budget + 1]) if budget + 1 < len(dist) else 0.0
    nu_max = max(abs(float(v)) for v in nus) if len(nus) else 0.0
    delta = math.sqrt(len(t)) * nu_max * (budget + 2) * math.sqrt(max(layer, 0.0))
    m2 = float(((2.0 * s) ** 2 * dist).sum())
    generator_term = 2.0 * delta * math.sqrt(m2 + 1.0) + delta * delta * 2.0 * cap

    return 10.0 * (tail_n + 2.0 * ideal_n * tail_prob + generator_term)


# ---------------------------------------------------------------------------
# convention adjudication
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdjudicationReport:
    """Which coefficient convention the capped rotation oracle agrees with."""

    a: float
    beta: float
    shells: tuple[int, ...]
    cap: int
    number: dict
    pairing: dict
    theta_winner: str
    pairing_winner: str
    momentum_scale: float = 1.0  # the oracle's lattice: mode energy |n|^2


def _judge(value: float, candidates: dict) -> tuple[dict, str]:
    res = {key: abs(value - cand) for key, cand in candidates.items()}
    separation = abs(candidates["A"] - candidates["B"])
    scale = max(abs(value), abs(candidates["A"]), abs(candidates["B"]), 1e-300)
    detail = {
        "oracle": value,
        "candidate_A": candidates["A"],
        "candidate_B": candidates["B"],
        "residual_A": res["A"],
        "residual_B": res["B"],
        "separation": separation,
    }
    if separation <= 1e-12 * scale:
        return detail, "degenerate"
    lo, hi = sorted(res.items(), key=lambda kv: kv[1])
    ratio = hi[1] / lo[1] if lo[1] > 0 else math.inf
    detail["residual_ratio"] = ratio
    if ratio < 2.0:
        return detail, "inconclusive"
    return detail, lo[0]


def adjudicate_variants(
    a: float,
    beta: float,
    shells: Sequence[int],
    cap: int,
) -> AdjudicationReport:
    """Run both rotation oracles and report the convention with smaller residual.

    The experiment runs on the unit-scaled lattice (mode energy |n|^2) so
    that the thermal occupations at order-one beta are resolvable in double
    precision; the identities being adjudicated are algebraic in
    (p^2, a, beta), so the verdict does not depend on that scale.
    """
    modes = shell_modes(shells, momentum_scale=1.0)
    if not modes:
        raise ValueError("no modes in the requested shells")
    coefficients = mode_coefficients([m.p_sq for m in modes], a)
    eps, nu = coefficients.eps, coefficients.nu
    check_basis_size(len(modes), cap)

    rot, pair = _rotated_expectations(modes, cap, nu, eps, beta, modes[0])
    number_detail, theta_winner = _judge(rot.value, rot.candidates)
    pairing_detail, pairing_winner = _judge(pair.value, pair.candidates)

    return AdjudicationReport(
        a=a,
        beta=beta,
        shells=tuple(sorted(set(shells))),
        cap=cap,
        number=number_detail,
        pairing=pairing_detail,
        theta_winner=theta_winner,
        pairing_winner=pairing_winner,
    )


# ---------------------------------------------------------------------------
# toy Gibbs experiment on the interacting excitation Hamiltonian
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GibbsReport:
    """Thermal expectations of the interacting excitation Hamiltonian.

    ``occupations`` and ``pairings`` are keyed by the shell's |n|^2.
    ``n_plus_sq`` is the factorial moment <N+(N+ - 1)> of the excitation
    number N+, not <N+^2>; the payload keeps that key name.
    """

    beta: float
    partition: float
    occupations: dict
    pairings: dict
    n_plus: float
    n_plus_sq: float
    offdiagonal_max: float


def _momentum_orbits(vectors: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical total momenta P = (a, b, c), a >= b >= c >= 0, and their orbit sizes.

    Each orbit of the 48 signed permutations holds one such P.  Listed are
    those the capped states over the mode momenta ``vectors`` might reach
    (cap times the largest |n|, per entry and in sum), in increasing
    (a, b, c), with the number of distinct signed permutations of each.
    """
    bound = cap * int(np.abs(vectors).max())
    a, b, c = np.mgrid[: bound + 1, : bound + 1, : bound + 1].reshape(3, -1)
    keep = (a >= b) & (b >= c) & (a + b + c <= cap * int(np.abs(vectors).sum(axis=1).max()))
    momenta = np.column_stack((a[keep], b[keep], c[keep]))
    orders = np.array([6, 3, 1])[(np.diff(momenta, axis=1) == 0).sum(axis=1)]
    return momenta, orders * 2 ** np.count_nonzero(momenta, axis=1)


def toy_gibbs_experiment(
    Ns: Sequence[int],
    potential: RadialPotential,
    shells: Sequence[int],
    cap: int,
    beta: float,
) -> list[tuple[GibbsReport, list[dict]]]:
    """Gibbs state of the capped excitation Hamiltonian per N of ``Ns``, against the model table.

    Returns, per N in the order given, the report plus one comparison row
    per shell with the exact thermal occupation and anomalous pairing next
    to the coefficient-model values of both conventions, evaluated at the
    scattering length of ``potential``.  To scale the interaction, scale
    the potential.

    L_N commutes with total momentum and with the signed permutations,
    which map full shells onto themselves, so the sectors of one orbit
    share a spectrum.  Only one sector per orbit is built, each a dense
    block whose weights count |orbit| times: Z = sum_O |O| Z_O.  A shell's
    values are the expectations of sum_q n_q and sum_q a*_q a*_-q over the
    cubic orbit of its first mode (a shell such as |n|^2 = 9 holds several),
    divided by the orbit's size: by the symmetry, that mode's value.  A
    cross term a*_p a_q, p != q, leaves every sector, so ``offdiagonal_max``
    is 0.0.

    Everything that does not depend on N is built once: the modes, the
    sectors, the ranks, the v_hat transform, the model columns and the
    observables.  Per N only the Hamiltonian, its blocks' eigenpairs and
    the expectations are computed, so each N's result is the one a
    single-N call gives.
    """
    if any(N < cap for N in Ns):
        raise ValueError("toy experiment needs N >= cap")
    modes = shell_modes(shells)
    vectors = np.array([m.n for m in modes])
    momenta, orbit = _momentum_orbits(vectors, cap)
    basis = build_basis(modes, cap, momenta=momenta)
    occ = basis.occupations()
    # each state's sector, numbered over the sectors that hold states
    place = (int(momenta.max()) + 1) ** np.arange(2, -1, -1)
    held, labels = np.unique(np.searchsorted(momenta @ place, (occ @ vectors) @ place),
                             return_inverse=True)
    blocks = _Blocks(labels)
    orbit = orbit[held][labels]

    v_hat = potential_fourier(potential)
    a_model = solve_scattering(potential, r_max=default_r_max(potential)).a

    # per shell, the modes of its first mode's cubic orbit
    shape = [sorted(map(abs, m.n)) for m in modes]
    by_shell: dict[int, list[int]] = {}
    for m, key in zip(modes, shape):
        by_shell.setdefault(m.norm_sq, [j for j, other in enumerate(shape) if other == key])
    norms = sorted(by_shell)
    model = mode_coefficients([modes[by_shell[s][0]].p_sq for s in norms], a_model, beta)
    model_rows = list(zip(*(column.tolist() for column in (
        model.occupation(Variant.A), model.occupation(Variant.B),
        model.pairing(Variant.A), model.pairing(Variant.B),
    ))))
    # every observable as the (block positions, values) of its entries:
    # per shell sum_q n_q, then per shell sum_q a*_q a*_-q, then N+ and
    # N+(N+ - 1); rho[c, r] pairs with the entry (r, c)
    states = np.arange(len(basis))
    diagonal = blocks.position(states, states)
    observables = [(diagonal, occ[:, by_shell[s]].sum(axis=1)) for s in norms]
    for s in norms:
        rows, cols, values = _Letters(basis).entries(
            [(1.0, ((i, 1, False), (basis.mode_index[modes[i].negated()], 1, False)))
             for i in by_shell[s]])
        observables.append((blocks.position(cols, rows), values))
    totals = basis.totals.astype(float)
    observables += [(diagonal, totals), (diagonal, totals * (totals - 1.0))]
    read = np.concatenate([at for at, _ in observables])
    order = np.argsort(read)
    placed = read[order]
    ends = np.cumsum([0] + [len(values) for _, values in observables])

    runs = []
    for N in Ns:
        H = build_LN(basis, N, v_hat)
        # rho's blocks one stack at a time, with weights relative to the
        # stack's lowest energy; its factor and 1/Z follow once e0 is known
        rho, at, spectra = np.empty(len(read)), 0, []
        for members, (energies, vectors_) in zip(blocks.members, blocks.eigh(H.matrix)):
            k, s = members.shape
            low, weight = float(energies.min()), orbit[members[:, :1]]
            scaled = vectors_ * (np.exp(-beta * (energies - low)) * weight)[:, None, :]
            lo, hi = np.searchsorted(placed, [at, at + k * s * s])
            rho[order[lo:hi]] = (scaled @ vectors_.transpose(0, 2, 1)).ravel()[placed[lo:hi] - at]
            spectra.append((energies, weight, low, order[lo:hi]))
            at += k * s * s
        e0 = min(low for _, _, low, _ in spectra)
        Z = float(math.fsum(np.concatenate(
            [(np.exp(-beta * (energies - e0)) * weight).ravel()
             for energies, weight, _, _ in spectra]).tolist()))
        for _, _, low, entries in spectra:
            rho[entries] *= math.exp(-beta * (low - e0)) / Z
        value = [float(rho[lo:hi] @ values)
                 for lo, hi, (_, values) in zip(ends, ends[1:], observables)]
        occupations, pairings, rows = {}, {}, []
        for i, (s, (occ_a, occ_b, pair_a, pair_b)) in enumerate(zip(norms, model_rows)):
            occupations[s] = value[i] / len(by_shell[s])
            pairings[s] = value[len(norms) + i] / len(by_shell[s])
            rows.append({
                "norm_sq": s,
                "oracle_occ": occupations[s],
                "model_occ_A": occ_a,
                "model_occ_B": occ_b,
                "oracle_pair": pairings[s],
                "model_pair_A": pair_a,
                "model_pair_B": pair_b,
            })
        report = GibbsReport(
            beta=beta,
            partition=Z,
            occupations=occupations,
            pairings=pairings,
            n_plus=value[-2],
            n_plus_sq=value[-1],
            offdiagonal_max=0.0,
        )
        runs.append((report, rows))
    return runs
