"""Truncated Fock space over a finite mode set, and the operators living on it.

The basis enumerates every occupation vector with total excitation number
at most the cap, ordered by (total, lexicographic occupation), which makes
all downstream results deterministic.  Operators are real sparse matrices
in that basis; every creation amplitude is sqrt(n+1) truncated at the cap,
and the weighted variants carry the extra factor sqrt(1 - total/N)
evaluated on the state to the right of the square root, so that creation
and annihilation are exact float adjoints of each other.

All matrices here are real symmetric (anti-symmetric for the quadratic
generators); hermiticity therefore means symmetry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import BasisSizeError, GuardError
from .lattice import Mode

__all__ = [
    "compositions",
    "composition_rank",
    "check_basis_size",
    "FockBasis",
    "HermitianOperator",
    "build_basis",
    "ladder",
    "number_operator",
    "total_number",
    "momentum_operator",
    "build_D",
    "build_K",
    "build_LN",
    "build_quadratic_generator",
    "GibbsState",
    "gibbs",
    "expect",
]

DEFAULT_STATE_LIMIT = 200_000
DEFAULT_DENSE_LIMIT = 6_000


class FockBasis:
    """Occupation-number basis with a total-excitation cap.

    The state count is the stars-and-bars value C(cap + n_modes, n_modes).
    The occupation vectors are held once, as a read-only integer array;
    positions are computed by ``rank``, so no per-state index is kept.
    """

    def __init__(
        self,
        modes: Sequence[Mode],
        cap: int,
        state_limit: int = DEFAULT_STATE_LIMIT,
    ):
        modes = tuple(modes)
        triples = {m.n for m in modes}
        if len(triples) != len(modes):
            raise ValueError("duplicate modes in basis")
        check_basis_size(len(modes), cap, state_limit)

        self.modes = modes
        self.cap = cap
        self.mode_index = {m.n: i for i, m in enumerate(modes)}
        self._n_vectors = np.array([m.n for m in modes], dtype=np.int64)

        self._occupations = np.concatenate(
            [compositions(total, len(modes)) for total in range(cap + 1)]
        )
        self._occupations.flags.writeable = False
        self.totals = self._occupations.sum(axis=1)

    def __len__(self) -> int:
        return len(self._occupations)

    @property
    def negation_closed(self) -> bool:
        triples = {m.n for m in self.modes}
        return all(m.negated() in triples for m in self.modes)

    def occupations(self) -> np.ndarray:
        """All occupation vectors as a read-only (n_states, n_modes) integer array."""
        return self._occupations

    def rank(self, occ: np.ndarray) -> np.ndarray:
        """Position of each occupation row in the (total, lex) order of the basis.

        The count of states with a lower total plus the row's position among
        the compositions of its own total.  Rows must have total at most the
        cap.
        """
        return np.searchsorted(self.totals, occ.sum(axis=1)) + composition_rank(occ)


def check_basis_size(n_modes: int, cap: int, state_limit: int = DEFAULT_STATE_LIMIT):
    """Refuse a capped basis of more than ``state_limit`` states, or a negative cap.

    The count is C(cap + n_modes, n_modes); raises BasisSizeError above the
    limit and ValueError for a negative cap.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    full_count = comb(cap + n_modes, n_modes)
    if full_count > state_limit:
        raise BasisSizeError(full_count, state_limit)


def compositions(total: int, parts: int) -> np.ndarray:
    """The compositions of ``total`` into ``parts`` non-negative parts.

    A read-only (C(total + parts - 1, parts - 1), parts) int64 array in
    lexicographic order.  Built slot by slot: every row so far is followed
    by each value from 0 to what is left of the total, and the last slot
    takes the rest.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    heads = np.zeros((1, 0), dtype=np.int64)
    for _ in range(parts - 1):
        counts = total - heads.sum(axis=1) + 1
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        nxt = np.arange(len(starts), dtype=np.int64) - starts
        heads = np.column_stack((np.repeat(heads, counts, axis=0), nxt))
    out = np.column_stack((heads, total - heads.sum(axis=1)))
    out.flags.writeable = False
    return out


def composition_rank(occ: np.ndarray) -> np.ndarray:
    """Lexicographic position of each row among the compositions of its own total.

    The combinatorial index of capped compositions (Zhang & Dong, Eur. J.
    Phys. 31, 591 (2010)): slot by slot, the rows with the same prefix and
    fewer quanta in the slot come first, counted in closed form by the
    hockey stick identity.
    """
    n = occ.shape[1]
    suffix = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]
    # stars[s, k] = C(s + k, k), the compositions of s into k + 1 parts
    stars = np.array(
        [[comb(s + k, k) for k in range(n)] for s in range(suffix[:, 0].max(initial=0) + 1)],
        dtype=np.int64,
    )
    k = np.arange(n - 1, 0, -1)
    return (stars[suffix[:, :-1], k] - stars[suffix[:, 1:], k]).sum(axis=1)


def build_basis(
    modes: Sequence[Mode],
    cap: int,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> FockBasis:
    return FockBasis(modes, cap, state_limit)


@dataclass(frozen=True)
class HermitianOperator:
    """A real sparse CSR matrix over a FockBasis."""

    basis: FockBasis
    matrix: sp.csr_matrix

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def hermiticity_defect(self) -> float:
        d = self.matrix - self.matrix.T
        return float(abs(d).max()) if d.nnz else 0.0

    def diagonal(self) -> np.ndarray:
        return np.asarray(self.matrix.diagonal())


def _check_same_basis(x: HermitianOperator, y: HermitianOperator):
    if x.basis is not y.basis:
        raise ValueError("operators live on different bases")


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------

def ladder(
    basis: FockBasis,
    mode: Mode,
    kind: str,
    N: int | None = None,
) -> sp.csr_matrix:
    """Sparse matrix of a (possibly weighted) creation or annihilation operator.

    kind is one of 'create', 'annihilate', 'b_create', 'b_annihilate'.  The
    weighted kinds need the particle number N >= cap and carry the factor
    sqrt(1 - total/N) with the total excitation number of the state the
    factor acts on, which keeps them inside the capped space.

    This is the one place that moves an occupation: every other operator
    on the basis is a product of these matrices.  All states move at once
    and the targets are ranked in closed form.
    """
    if mode.n not in basis.mode_index:
        raise ValueError(f"mode {mode.n} not in basis")
    if kind not in ("create", "annihilate", "b_create", "b_annihilate"):
        raise ValueError(f"unknown ladder kind {kind!r}")
    if kind.startswith("b_"):
        if N is None:
            raise ValueError("weighted ladder operators need N")
        if N < basis.cap:
            raise ValueError("weighted ladder operators need N >= cap")
    j = basis.mode_index[mode.n]
    occ = basis.occupations()
    totals = basis.totals

    if kind.endswith("create"):
        cols = np.flatnonzero(totals < basis.cap)
        amp = np.sqrt(occ[cols, j] + 1.0)
        weighted_total = totals[cols]
        step = 1
    else:
        cols = np.flatnonzero(occ[:, j])
        amp = np.sqrt(occ[cols, j].astype(float))
        weighted_total = totals[cols] - 1
        step = -1
    if kind.startswith("b_"):
        amp *= np.sqrt(1.0 - weighted_total / N)
    targets = occ[cols]
    targets[:, j] += step
    dim = len(basis)
    return sp.csr_matrix((amp, (basis.rank(targets), cols)), shape=(dim, dim))


def number_operator(basis: FockBasis, mode: Mode) -> sp.csr_matrix:
    return ladder(basis, mode, "create") @ ladder(basis, mode, "annihilate")


def total_number(basis: FockBasis) -> sp.csr_matrix:
    return sp.diags(basis.totals.astype(float)).tocsr()


def momentum_operator(basis: FockBasis, component: int) -> sp.csr_matrix:
    """Diagonal total-momentum component (integer lattice units)."""
    n_comp = np.array([m.n[component] for m in basis.modes], dtype=np.int64)
    diag = basis.occupations() @ n_comp
    return sp.diags(diag.astype(float)).tocsr()


# ---------------------------------------------------------------------------
# diagonal Hamiltonians
# ---------------------------------------------------------------------------

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
    diag = basis.occupations() @ eps
    return HermitianOperator(basis, sp.diags(diag).tocsr())


def build_K(basis: FockBasis) -> HermitianOperator:
    """Kinetic energy sum_p |p|^2 n_p."""
    p_sq = np.array([m.p_sq for m in basis.modes])
    return build_D(basis, p_sq)


# ---------------------------------------------------------------------------
# excitation Hamiltonian
# ---------------------------------------------------------------------------

def _ladders(basis: FockBasis, kind: str, N: int | None = None) -> list[sp.csr_matrix]:
    return [ladder(basis, m, kind, N) for m in basis.modes]


def build_LN(
    basis: FockBasis,
    N: int,
    v_hat: Callable[[float], float],
) -> HermitianOperator:
    """Excitation Hamiltonian on the capped basis, all interaction legs inside the mode set.

    ``v_hat`` is the radial Fourier transform of the interaction; it is
    sampled at |p|/N on the physical momenta of the basis modes, once per
    integer |p|^2.  Assembles the kinetic part plus the scalar/number
    block, the quadratic block with its anomalous pairs, the cubic block
    and the quartic block, keeping exactly the momentum-conserving terms
    whose every leg lies in the mode set.  The result commutes with total
    momentum and is symmetric up to roundoff.
    """
    if N < basis.cap:
        raise ValueError("build_LN needs N >= cap")
    if not basis.negation_closed:
        raise ValueError("build_LN needs a negation-closed mode set")
    modes = basis.modes
    scale = math.sqrt(modes[0].p_sq / modes[0].norm_sq)
    index = basis.mode_index

    @functools.cache
    def khat(norm_sq: int) -> float:
        return v_hat(scale * math.sqrt(norm_sq) / N)

    v0 = khat(0)
    vp = np.array([khat(m.norm_sq) for m in modes])
    neg = [index[m.negated()] for m in modes]
    a_up, a_down = _ladders(basis, "create"), _ladders(basis, "annihilate")
    b_up = _ladders(basis, "b_create", N)

    # diagonal blocks: kinetic + scalar/number + direct quadratic
    p_sq = np.array([m.p_sq for m in modes])
    occs = basis.occupations()
    totals = basis.totals
    kinetic = occs @ p_sq
    direct = (occs @ vp) * (N - totals) / N
    scalar = 0.5 * N * v0 - 0.5 * v0 * (1.0 - totals / N) - 0.5 * v0 * totals**2 / N
    H = sp.diags(kinetic + scalar + direct).tocsr()

    # anomalous quadratic block: (1/2) sum_p vp [b*_p b*_-p + b_-p b_p]
    for i, j in enumerate(neg):
        if vp[i] != 0.0:
            pair = b_up[i] @ b_up[j]
            H += (0.5 * vp[i]) * (pair + pair.T)

    # cubic block: N^{-1/2} sum vp [b*_{p+q} a*_{-p} a_q + h.c.], all legs in the set
    inv_sqrt_n = 1.0 / math.sqrt(N)
    cubic = sp.csr_matrix(H.shape)
    for ip, mp_ in enumerate(modes):
        for iq, mq in enumerate(modes):
            s = tuple(a + b for a, b in zip(mp_.n, mq.n))
            if s == (0, 0, 0) or s not in index or vp[ip] == 0.0:
                continue
            cubic += (inv_sqrt_n * vp[ip]) * (b_up[index[s]] @ a_up[neg[ip]] @ a_down[iq])
    H += cubic + cubic.T

    # quartic block: (2N)^{-1} sum vhat(r/N) a*_{p+r} a*_q a_p a_{q+r}, grouped
    # as a*_{p+r} M_r a_p with the hop M_r = sum_q a*_q a_{q+r}
    hops: dict[tuple[int, ...], sp.csr_matrix] = {}
    for iq, mq in enumerate(modes):
        for it, mt in enumerate(modes):
            r = tuple(b - a for a, b in zip(mq.n, mt.n))
            hop = a_up[iq] @ a_down[it]
            hops[r] = hops[r] + hop if r in hops else hop
    half_inv_n = 0.5 / N
    for ip, mp_ in enumerate(modes):
        for is_, ms in enumerate(modes):
            r = tuple(a - b for a, b in zip(ms.n, mp_.n))
            v_r = khat(sum(c * c for c in r))
            if v_r != 0.0:
                H += (half_inv_n * v_r) * (a_up[is_] @ hops[r] @ a_down[ip])

    return HermitianOperator(basis, H)


# ---------------------------------------------------------------------------
# quadratic generators
# ---------------------------------------------------------------------------

def pair_partners(modes: FockBasis | Sequence[Mode]) -> list[tuple[int, int]]:
    """Mode-index pairs (i, j) with modes[j] = -modes[i], each pair once.

    Takes the mode list, or a basis for its modes.
    """
    if isinstance(modes, FockBasis):
        modes = modes.modes
    index = {m.n: i for i, m in enumerate(modes)}
    if any(m.negated() not in index for m in modes):
        raise ValueError("mode set is not closed under negation")
    pairs = []
    seen = set()
    for i, m in enumerate(modes):
        if i in seen:
            continue
        j = index[m.negated()]
        seen.update((i, j))
        pairs.append((i, j))
    return pairs


def build_quadratic_generator(
    basis: FockBasis,
    c: Sequence[float],
    kind: str = "a_type",
    N: int | None = None,
) -> sp.csr_matrix:
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

    pairs = pair_partners(basis)
    for i, j in pairs:
        if c[i] != c[j]:
            raise ValueError("generator coefficient must match on +-p pairs")
    up = _ladders(basis, "b_create" if kind == "b_type" else "create", N)
    dim = len(basis)
    G = sp.csr_matrix((dim, dim))
    for i, j in pairs:
        if c[i] != 0.0:
            # X_-p X_p is the exact transpose of X*_p X*_-p
            pair = up[i] @ up[j]
            G += c[i] * (pair - pair.T)
    return G


# ---------------------------------------------------------------------------
# Gibbs states and expectations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GibbsState:
    """Normalized thermal state e^{-beta(H - E0)} / Z with the shifted partition sum."""

    rho: HermitianOperator
    Z: float
    beta: float
    ground_energy: float


def gibbs(
    H: HermitianOperator, beta: float, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> GibbsState:
    """Thermal state of H, diagonalized one connected component at a time.

    The states that H connects, directly or through other states, form
    its blocks; for ``build_LN`` these are the total-momentum sectors, and
    a diagonal H has one block per state.  Blocks of equal size go through
    one batched ``eigh``, and ``dense_limit`` caps the size of the largest
    block.  Energies are shifted by the global ground energy before
    exponentiation, which leaves all weight ratios invariant and cannot
    overflow; Z refers to the shifted convention and is the exactly
    rounded sum of all weights.  rho is a CSR matrix in basis order whose
    entries all lie inside the blocks.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    basis = H.basis
    dim = len(basis)
    _, labels = connected_components(H.matrix, connection="weak")
    sizes = np.bincount(labels)
    largest = int(sizes.max())
    if largest > dense_limit:
        raise GuardError(
            f"dense eigendecomposition of a {largest}-state block exceeds the limit {dense_limit}"
        )

    # Lay the blocks out by (size, label), each with its states in basis
    # order: the blocks of one size then fill one contiguous (k, s, s) stack
    # of a flat buffer.  slot is a state's position inside its block.
    blocks = np.argsort(sizes, kind="stable")
    states = np.lexsort((labels, sizes[labels]))
    ordered = sizes[blocks]
    first_state = np.repeat(np.cumsum(ordered) - ordered, ordered)
    slot = np.empty(dim, dtype=np.int64)
    slot[states] = np.arange(dim) - first_state
    first_entry = np.empty_like(ordered)
    first_entry[blocks] = np.cumsum(ordered**2) - ordered**2

    h = H.matrix.tocoo()
    block = labels[h.row]
    stacked = np.zeros(int(np.sum(ordered**2)))
    stacked[first_entry[block] + slot[h.row] * sizes[block] + slot[h.col]] = h.data

    groups = []
    state_at = entry_at = 0
    for s, k in zip(*np.unique(ordered, return_counts=True)):
        members = states[state_at : state_at + k * s].reshape(k, s)
        stack = stacked[entry_at : entry_at + k * s * s].reshape(k, s, s)
        groups.append((members, *np.linalg.eigh(stack)))
        state_at += k * s
        entry_at += k * s * s

    e0 = float(min(energies.min() for _, energies, _ in groups))
    weights = [np.exp(-beta * (energies - e0)) for _, energies, _ in groups]
    Z = float(math.fsum(np.concatenate([w.ravel() for w in weights]).tolist()))
    rows, cols, values = [], [], []
    for (members, _, vectors), w in zip(groups, weights):
        k, s = members.shape
        values.append(((vectors * (w / Z)[:, None, :]) @ vectors.transpose(0, 2, 1)).ravel())
        rows.append(np.broadcast_to(members[:, :, None], (k, s, s)).ravel())
        cols.append(np.broadcast_to(members[:, None, :], (k, s, s)).ravel())
    rho = sp.csr_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return GibbsState(
        rho=HermitianOperator(basis, rho), Z=Z, beta=beta, ground_energy=e0
    )


def expect(state, O) -> float:
    """tr(rho O) for a GibbsState (or bare HermitianOperator rho) and a sparse operator O."""
    rho_op = state.rho if isinstance(state, GibbsState) else state
    if isinstance(O, HermitianOperator):
        _check_same_basis(rho_op, O)
        O = O.matrix
    return float(rho_op.matrix.multiply(O.T).sum())
