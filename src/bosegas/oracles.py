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

The rotated expectations exploit that pairs with exactly equal (nu, eps),
as all pairs of one shell are, form one su(1,1) (Perelomov, Generalized
Coherent States and Their Applications (1986)): for a group of m pairs,
K_+ = sum_i a*_p_i a*_-p_i, K_- = K_+* and K_0 = (N_+ + m)/2.  The
generator restricted to the group is nu (K_+ - K_-), the weights are
e^{-beta eps N_+}, and the cap on the group's N_+ is diagonal in K_0, so
the capped group splits exactly into lowest-weight ladders (Holman &
Biedenharn, Ann. Phys. 39, 1 (1966)), not an approximation.  A
lowest-weight state at N_+ = e (K_- kills it) spans the ladder |e, k>
with N_+ = e + 2k <= cap, on which K_+ raises k with amplitude
sqrt((k + 1)(k + e + m)); there are lw(m, e) of them, the states at e
less those at e - 2.  The cap bounds N_+ of each group on its own, so the
capped state is a product over the groups, and with one group it is the
joint cap.  A group's cap + 1 ladders are padded to the length of ladder 0
and go through the computation as one (cap + 1, s, s) stack: one
generator write, one ``expm`` call, one orthogonality guard and two
``einsum`` diagonals; the padding has no raise and no weight.  Z is the
product of the groups' Z, N_+ the sum of their means, and the pairing the
target group's K_+ mean divided by its m.  A cap whose stack would hold
more than ``fock.STATE_LIMIT`` entries is refused (cap 92 and above).

``expm`` is scaling and squaring with diagonal Pade approximants (Higham,
SIAM J. Matrix Anal. Appl. 26 (2005)) in numpy, batched over the stack:
the degree, and the scaling when the largest 1-norm of the stack exceeds
what degree 13 covers, are chosen once per stack, from the bounds on the
1-norm up to which each degree meets double-precision unit roundoff.

The adjudication runs on the unit lattice (mode energy |n|^2), the moment
bound of the partition sandwich takes mu = min(eps)/2 (the sandwich keeps
the joint cap: it sums every mode's states at total <= cap), and the
toy's v_hat and scattering solve are those of any potential: 0.0 for the
free gas.

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
from .errors import BasisSizeError, GuardError
# gibbs, expect and ladder are looked up here by name by the benchmark's tracer
from .fock import (  # noqa: F401
    STATE_LIMIT,
    FockBasis,
    _Blocks,
    _Letters,
    build_basis,
    build_LN,
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
# su(1,1) ladders
# ---------------------------------------------------------------------------

def _lowest_weights(m: int, e: int) -> int:
    """Lowest-weight states of the su(1,1) of m pairs at N_+ = e.

    K_+ is injective, so they number the states at e (the compositions of
    e into 2m modes) less those at e - 2.
    """
    def states(total):
        return math.comb(total + 2 * m - 1, 2 * m - 1) if total >= 0 else 0

    return states(e) - states(e - 2)


def _check_stack_size(cap: int):
    """Refuse a negative cap, or one whose padded stack holds more than ``STATE_LIMIT`` entries."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    entries = (cap + 1) * (cap // 2 + 1) ** 2
    if entries > STATE_LIMIT:
        raise BasisSizeError(entries, STATE_LIMIT, "one shell's padded su(1,1) ladder stack",
                             "entries")


def _group_traces(m: int, nu: float, eps: float, beta: float, cap: int):
    """The N_+ and K_+ traces and Z of one group of m interchangeable pairs at N_+ <= cap.

    Ladder e = 0 .. cap holds the steps k <= (cap - e) // 2 at N_+ = e + 2k;
    every ladder is padded to cap // 2 + 1 steps, with no raise and no
    weight on the padding, and the stack is exponentiated in one call.
    """
    e = np.arange(cap + 1)[:, None]
    k = np.arange(cap // 2 + 1)
    nplus = (e + 2 * k).astype(float)
    inside = nplus <= cap
    weights = np.where(inside, np.exp(-beta * (nplus * eps)), 0.0)
    # the raise from step k to k + 1 of ladder e
    amp = np.where(inside[:, 1:], np.sqrt((k[:-1] + 1) * (k[:-1] + e + m)), 0.0)
    G = np.zeros((cap + 1, len(k), len(k)))
    G[:, k[1:], k[:-1]] = nu * amp
    G[:, k[:-1], k[1:]] = -nu * amp
    U = _orthogonal_expms(G)
    # the diagonals of U^T diag(N_+) U and of U^T K_+ U, one row per ladder
    number = np.einsum("ekj,ek,ekj->ej", U, nplus, U)
    pairing = np.einsum("ekj,ek,ekj->ej", U[:, 1:], amp, U[:, :-1])
    lowest = np.array([_lowest_weights(m, i) for i in range(cap + 1)], dtype=float)
    return [float(lowest @ (weights * diag).sum(axis=1)) for diag in (number, pairing, 1.0)]


def _pair_groups(nu_pairs: np.ndarray, eps_pairs: np.ndarray) -> list[list[int]]:
    """The interchangeable pairs: grouped by exactly equal (nu, eps), each group in pair order."""
    groups: dict = {}
    for pi, key in enumerate(zip(nu_pairs.tolist(), eps_pairs.tolist())):
        groups.setdefault(key, []).append(pi)
    return list(groups.values())


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
    """Exact capped rotated-ensemble value with the convention candidates.

    ``Z`` is the product of the groups' capped partition sums.
    """

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
    """The N_+ and a*_p a*_-p expectations (p the pair of ``mode``) over the groups' ladders.

    N_+ of every group of interchangeable pairs is capped at ``cap`` on its
    own, so the state is a product over the groups: Z is the product of
    theirs, N_+ the sum of their means, and the pairing the mean of the
    target group's K_+ over its size.  No basis is built.
    """
    _check_stack_size(cap)
    pairs, nu_pairs, eps_pairs, nu, eps = _pair_arrays(modes, nu, eps)
    _rotation_guard(nu, eps, beta, cap)
    mode_pos = [m.n for m in modes].index(mode.n)
    target_pair = next(
        pi for pi, (i, j) in enumerate(pairs) if mode_pos in (i, j)
    )
    groups = _pair_groups(nu_pairs, eps_pairs)
    traces = [_group_traces(len(members), nu_pairs[members[0]], eps_pairs[members[0]], beta, cap)
              for members in groups]
    target = next(g for g, members in enumerate(groups) if target_pair in members)
    z = math.prod(z_g for _, _, z_g in traces)
    number_value = sum(number / z_g for number, _, z_g in traces)
    pair_sum, z_target = traces[target][1:]
    pair_value = pair_sum / len(groups[target]) / z_target

    sinh_sq = np.sinh(nu) ** 2
    occs = _convention_occupations(eps, beta)
    number = RotatedExpectation(
        value=number_value,
        candidates={
            key: float(np.sum(sinh_sq * (1.0 + 2.0 * occ) + occ))
            for key, occ in occs.items()
        },
        Z=z,
    )

    j = mode_pos
    half_sinh2 = 0.5 * math.sinh(2.0 * nu[j])
    pairing = RotatedExpectation(
        value=pair_value,
        candidates={
            key: float(half_sinh2 * (1.0 + 2.0 * occ[j])) for key, occ in occs.items()
        },
        Z=z,
    )
    return number, pairing


def rotated_number_expectation(
    basis: FockBasis, nu, eps, beta: float
) -> RotatedExpectation:
    """tr(e^{-G} N_+ e^{G} rho_D) with N_+ of each group capped, G the pair-rotation generator.

    The basis supplies the modes and the cap, which bounds N_+ of every
    group of interchangeable pairs (one shell) on its own; with one group
    that is the basis's own cap.  The trace is assembled over each group's
    su(1,1) ladders (see module docstring), exponentiated exactly, so the
    only deviation from the analytic formulas is the cap itself.  Alongside
    the exact value the two coefficient-convention candidates
    sum(sinh^2 nu (1+2n) + n) are returned, with the uncapped thermal
    occupations.
    """
    return _rotated_expectations(basis.modes, basis.cap, nu, eps, beta, basis.modes[0])[0]


def pairing_expectation(
    basis: FockBasis, nu, eps, beta: float, mode: Mode
) -> RotatedExpectation:
    """tr(e^{-G} a*_p a*_{-p} e^{G} rho_D) for the pair containing ``mode``.

    Every pair of the group of ``mode``'s pair has the same value, so it is
    the trace of the group's K_+ over its ladders, divided by the group's
    size; the cap bounds N_+ of each group, as for the number.  The
    conjugation direction matches the generator convention used for the
    number expectation.  Candidates are
    sinh(2 nu_p)/2 * (1 + 2 n) with the per-convention occupation proxies.
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
    """Which coefficient convention the capped rotation oracle agrees with.

    ``cap`` bounds N_+ of each shell's pairs on its own.
    """

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
