"""Closed-form and exact-diagonalization oracles on the truncated Fock space.

These routines re-derive, by independent routes, the quantities the
analytic coefficient formulas predict: capped canonical occupations by
dynamic programming over modes, partition functions by brute enumeration
against product-formula sandwiches, and rotated-ensemble expectations by
exact matrix exponentials.

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
products for the traces.  The sector terms are then added in label order,
as a loop over the sectors one at a time would add them.

``expm`` is scaling and squaring with diagonal Pade approximants (Higham,
SIAM J. Matrix Anal. Appl. 26 (2005)) in numpy, batched over the stack:
the degree, and the scaling when the largest 1-norm of the stack exceeds
what degree 13 covers, are chosen once per stack, from the bounds on the
1-norm up to which each degree meets double-precision unit roundoff.

Coefficient-convention candidates are assembled directly from the rotation
angles nu and energies eps: both the occupation and the pairing candidate
have the form "Bogoliubov weight times (1 + 2 n)", where n is the thermal
occupation proxy of the convention (bare Bose factor for B, the same
multiplied by eps for A).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bogoliubov import (
    Variant,
    bose_occupation,
    dispersion,
    mu_sq,
    nu_coefficient,
    pairing_coeff,
    theta_sq,
)
from .errors import GuardError
from .fock import (
    FockBasis,
    HermitianOperator,
    build_basis,
    build_LN,
    check_basis_size,
    composition_rank,
    compositions,
    diagonal_operator,
    gibbs,
    expect,
    ladder,  # noqa: F401  (looked up here by name by the benchmark's tracer)
    ladder_word,
    number_operator,
    pair_partners,
    total_number,
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
    "occupation_closed_form",
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
    "toy_scattering_length",
]


# ---------------------------------------------------------------------------
# capped canonical closed forms (dynamic programming over modes)
# ---------------------------------------------------------------------------

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


def partition_product_check(
    basis: FockBasis, eps: Sequence[float], beta: float, mu: float | None = None
) -> PartitionSandwich:
    """Brute-force partition sum against product-formula bounds.

    brute is the exact sum over the capped basis.  The uncapped product
    overestimates it; the excess of states above the cap is bounded by the
    exponential moment bound exp(-beta*mu*cap) * prod 1/(1 - e^{-beta(eps-mu)})
    for any 0 < mu < min eps.  Violation of the sandwich is raised, not
    returned.
    """
    eps = np.asarray(eps, dtype=float)
    if mu is None:
        mu = 0.5 * float(np.min(eps))
    if not (0.0 < mu < float(np.min(eps))):
        raise ValueError("mu must lie strictly between 0 and min eps")
    energies = basis.occupations() @ eps
    brute = float(math.fsum(np.exp(-beta * energies).tolist()))

    uncapped = float(np.prod(1.0 / (-np.expm1(-beta * eps))))
    gap = math.exp(-beta * mu * basis.cap) * float(
        np.prod(1.0 / (-np.expm1(-beta * (eps - mu))))
    )
    orders = np.arange(basis.cap + 1)
    product_upper = float(np.prod([math.fsum(np.exp(-beta * e * orders).tolist()) for e in eps]))
    per_mode = basis.cap // len(basis.modes)
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


def _sector_matrices(abs_d, pattern, nu_pairs: np.ndarray, eps_pairs: np.ndarray):
    """Diagonals of N_+ and energy, the generators and the raise amplitudes of one budget.

    ``abs_d`` holds one label per row, all of the budget of ``pattern``;
    every result has one slice per label.
    """
    kvecs, pair, target, source = pattern
    d = np.asarray(abs_d, dtype=np.int64)
    occ = (2 * kvecs + d[:, None, :]).astype(float)
    nplus = occ.sum(axis=2)
    energy = occ @ eps_pairs

    k = kvecs[source, pair]
    amp = np.sqrt((k + 1) * (k + d[:, pair] + 1))
    value = nu_pairs[pair] * amp
    G = np.zeros((len(d), len(kvecs), len(kvecs)))
    G[:, target, source] += value
    G[:, source, target] -= value
    return nplus, energy, G, amp


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
    candidates_capped: dict
    Z: float


def _convention_occupations(eps: np.ndarray, beta: float) -> dict:
    n_b = np.array([bose_occupation(beta * e) for e in eps])
    return {"A": eps * n_b, "B": n_b}


def _capped_occupations(eps: np.ndarray, beta: float, cap: int) -> np.ndarray:
    return np.array(
        [occupation_closed_form(eps, beta, cap, mode=j)[0] for j in range(len(eps))]
    )


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
    it.  The sectors of one pair budget go through one stacked exponential;
    both traces and Z of every sector are then added in label order.
    """
    pairs, nu_pairs, eps_pairs, nu, eps = _pair_arrays(modes, nu, eps)
    _rotation_guard(nu, eps, beta, cap)
    mode_pos = [m.n for m in modes].index(mode.n)
    target_pair = next(
        pi for pi, (i, j) in enumerate(pairs) if mode_pos in (i, j)
    )

    # multiplicity times the number, pairing and Z term of every label;
    # labels whose weights all underflow keep 0
    terms = np.zeros((3, math.comb(cap + len(pairs), len(pairs))))
    for positions, abs_d, multiplicity, pattern in _sectors(len(pairs), cap):
        nplus, energy, G, amp = _sector_matrices(abs_d, pattern, nu_pairs, eps_pairs)
        weights = np.exp(-beta * energy)
        live = weights.any(axis=1)
        if not live.any():
            continue
        weights, nplus, G, amp = weights[live], nplus[live], G[live], amp[live]
        U = _orthogonal_expms(G)
        _, pair, target, source = pattern
        mine = pair == target_pair
        R = np.zeros_like(G)
        R[:, target[mine], source[mine]] = amp[:, mine]
        # the diagonals of U^T diag(nplus) U and of U^T R U
        number_diag = (U * U).transpose(0, 2, 1) @ nplus[:, :, None]
        pair_diag = np.einsum("kij,kij->kj", U, R @ U)[:, :, None]
        rows = weights[:, None, :]
        terms[:, positions[live]] = multiplicity[live] * np.array(
            [(rows @ number_diag)[:, 0, 0], (rows @ pair_diag)[:, 0, 0], weights.sum(axis=1)]
        )

    # added one label at a time in label order, as a loop over the sectors would
    number_sum = pair_sum = z_sum = 0.0
    for number, pairing, z in zip(*terms.tolist()):
        number_sum += number
        pair_sum += pairing
        z_sum += z

    sinh_sq = np.sinh(nu) ** 2
    occs = _convention_occupations(eps, beta)
    n_cap = _capped_occupations(eps, beta, cap)
    number = RotatedExpectation(
        value=number_sum / z_sum,
        candidates={
            key: float(np.sum(sinh_sq * (1.0 + 2.0 * occ) + occ))
            for key, occ in occs.items()
        },
        candidates_capped={
            "A": float(np.sum(sinh_sq * (1.0 + 2.0 * eps * n_cap) + eps * n_cap)),
            "B": float(np.sum(sinh_sq * (1.0 + 2.0 * n_cap) + n_cap)),
        },
        Z=z_sum,
    )

    j = mode_pos
    half_sinh2 = 0.5 * math.sinh(2.0 * nu[j])
    pairing = RotatedExpectation(
        value=pair_sum / z_sum,
        candidates={
            key: float(half_sinh2 * (1.0 + 2.0 * occ[j])) for key, occ in occs.items()
        },
        candidates_capped={
            "A": float(half_sinh2 * (1.0 + 2.0 * eps[j] * n_cap[j])),
            "B": float(half_sinh2 * (1.0 + 2.0 * n_cap[j])),
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
    returned, once with the uncapped thermal occupations and once with the
    capped closed-form ones.
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
    momentum_scale: float
    number: dict
    pairing: dict
    theta_winner: str
    pairing_winner: str

    def to_json(self, provenance: dict | None = None) -> str:
        payload = {
            "a": self.a,
            "beta": self.beta,
            "shells": list(self.shells),
            "cap": self.cap,
            "momentum_scale": self.momentum_scale,
            "number": self.number,
            "pairing": self.pairing,
            "theta_winner": self.theta_winner,
            "pairing_winner": self.pairing_winner,
        }
        if provenance is not None:
            payload["provenance"] = provenance
        return json.dumps(payload, indent=2, sort_keys=True)


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
    momentum_scale: float = 1.0,
) -> AdjudicationReport:
    """Run both rotation oracles and report the convention with smaller residual.

    The experiment runs, by default, on the unit-scaled lattice (mode energy
    |n|^2) so that the thermal occupations at order-one beta are resolvable
    in double precision; the identities being adjudicated are algebraic in
    (p^2, a, beta), so the verdict does not depend on that scale.
    """
    modes = shell_modes(shells, momentum_scale)
    if not modes:
        raise ValueError("no modes in the requested shells")
    eps = np.array([dispersion(m.p_sq, a) for m in modes])
    nu = np.array([nu_coefficient(m.p_sq, a) for m in modes])
    check_basis_size(len(modes), cap)

    rot, pair = _rotated_expectations(modes, cap, nu, eps, beta, modes[0])
    number_detail, theta_winner = _judge(rot.value, rot.candidates)
    pairing_detail, pairing_winner = _judge(pair.value, pair.candidates)

    return AdjudicationReport(
        a=a,
        beta=beta,
        shells=tuple(sorted(set(shells))),
        cap=cap,
        momentum_scale=momentum_scale,
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
    """Thermal expectations of the interacting excitation Hamiltonian."""

    beta: float
    partition: float
    occupations: dict
    pairings: dict
    n_plus: float
    n_plus_sq: float
    offdiagonal_max: float

    def to_json(self, provenance: dict | None = None) -> str:
        payload = {
            "beta": self.beta,
            "partition": self.partition,
            "occupations": {str(k): v for k, v in self.occupations.items()},
            "pairings": {str(k): v for k, v in self.pairings.items()},
            "n_plus": self.n_plus,
            "n_plus_sq": self.n_plus_sq,
            "offdiagonal_max": self.offdiagonal_max,
        }
        if provenance is not None:
            payload["provenance"] = provenance
        return json.dumps(payload, indent=2, sort_keys=True)


def toy_gibbs_experiment(
    N: int,
    potential: RadialPotential,
    shells: Sequence[int],
    cap: int,
    beta: float,
    coupling: float = 1.0,
    a: float | None = None,
) -> tuple[GibbsReport, list[dict]]:
    """Gibbs state of the capped excitation Hamiltonian, against the model table.

    Returns the report plus one comparison row per shell with the exact
    thermal occupation and anomalous pairing next to the coefficient-model
    values of both conventions.  ``coupling`` scales the interaction;
    ``a`` overrides the scattering length used for the model columns
    (computed from the potential when omitted).
    """
    modes = shell_modes(shells)
    basis = build_basis(modes, cap)
    if N < cap:
        raise ValueError("toy experiment needs N >= cap")

    if potential.is_zero or coupling == 0.0:
        v_hat = lambda k: 0.0  # noqa: E731 - trivial free-gas sampler
    else:
        base = potential_fourier(potential)
        v_hat = (lambda k: coupling * base(k)) if coupling != 1.0 else base
    a_model = toy_scattering_length(potential, coupling) if a is None else a

    ln = build_LN(basis, N, v_hat)
    state = gibbs(ln, beta)

    occupations = {}
    pairings = {}
    rows = []
    offdiag_max = 0.0
    first_by_shell: dict[int, Mode] = {}
    for m in modes:
        first_by_shell.setdefault(m.norm_sq, m)
    for norm_sq, m in sorted(first_by_shell.items()):
        occ = expect(state, HermitianOperator(basis, number_operator(basis, m)))
        neg = next(mm for mm in modes if mm.n == m.negated())
        pair_op = ladder_word(basis, [(m, "create"), (neg, "create")])
        pair_val = expect(state, HermitianOperator(basis, pair_op))
        occupations[norm_sq] = occ
        pairings[norm_sq] = pair_val

        p_sq = m.p_sq
        rows.append(
            {
                "norm_sq": norm_sq,
                "oracle_occ": occ,
                "model_occ_A": mu_sq(p_sq, a_model) + theta_sq(p_sq, a_model, beta, Variant.A),
                "model_occ_B": mu_sq(p_sq, a_model) + theta_sq(p_sq, a_model, beta, Variant.B),
                "oracle_pair": pair_val,
                "model_pair_A": pairing_coeff(p_sq, a_model, beta, Variant.A),
                "model_pair_B": pairing_coeff(p_sq, a_model, beta, Variant.B),
            }
        )

    # translation invariance: <a*_p a_q> must vanish for p != q
    probe = modes[0]
    for other in modes[1:3]:
        cross = ladder_word(basis, [(probe, "create"), (other, "annihilate")])
        offdiag_max = max(
            offdiag_max, abs(expect(state, HermitianOperator(basis, cross)))
        )

    totals = basis.totals.astype(float)
    n_plus = expect(state, HermitianOperator(basis, total_number(basis)))
    pair_moment = diagonal_operator(basis, totals * (totals - 1.0))
    n_plus_sq = expect(state, HermitianOperator(basis, pair_moment))

    report = GibbsReport(
        beta=beta,
        partition=state.Z,
        occupations=occupations,
        pairings=pairings,
        n_plus=n_plus,
        n_plus_sq=n_plus_sq,
        offdiagonal_max=offdiag_max,
    )
    return report, rows


def toy_scattering_length(potential: RadialPotential, coupling: float = 1.0) -> float:
    """Scattering length of ``coupling`` times ``potential``: the toy's default model a.

    Zero for a free gas.  Solve it once and pass it as ``a`` to run the toy
    experiment at several N.
    """
    if potential.is_zero or coupling == 0.0:
        return 0.0
    scaled = potential if coupling == 1.0 else _scaled_potential(potential, coupling)
    return solve_scattering(scaled, r_max=default_r_max(potential)).a


def _scaled_potential(potential: RadialPotential, coupling: float) -> RadialPotential:
    if potential.kind == "soft_sphere":
        v0, radius = potential.params
        return RadialPotential.soft_sphere(coupling * v0, radius)
    if potential.kind == "gaussian_truncated":
        v0, width, support = potential.params
        return RadialPotential.gaussian_truncated(coupling * v0, width, support)
    return RadialPotential.tabulated(
        potential.grid, tuple(coupling * v for v in potential.values)
    )
