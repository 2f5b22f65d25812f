"""Truncated Fock space over a finite mode set, and the operators living on it.

The basis enumerates the occupation vectors with total excitation number
at most the cap, all of them or those of chosen total momenta (built by a
meet in the middle, never from the whole capped basis), ordered by
(total, lexicographic occupation), which makes all downstream results
deterministic; a state is found by its packed key, its position in the
whole capped basis.  Operators are real sparse matrices
in that basis, held in one read-only form, ``Triplets``: their nonzero
entries as (rows, cols, values) arrays in row-major order.  Every creation
amplitude is sqrt(n+1) truncated at the cap, and the weighted variants
carry the extra factor sqrt(1 - total/N) evaluated on the state to the
right of the square root, so that creation and annihilation are exact float
adjoints of each other.  Every operator is a sum of words of these ladder
letters: a word acts on all basis states at once, and the words of one
operator are summed per net occupation shift before the shifted states are
ranked.

Gibbs states are built one connected component of H at a time; the
components come from min-label propagation over H's entries, and
expectations look the entries of rho up by their sorted (row, col) keys.
``_Blocks`` lays out and diagonalizes the blocks of any labelling of the
states, as the toy oracle's momentum sectors.  Two module constants bound
the work: a basis holds at most ``STATE_LIMIT`` states and a dense block at
most ``DENSE_LIMIT``; a basis over chosen momenta is refused as soon as its
join counts a sector above the latter.  The module needs numpy only.

The Hamiltonians and Gibbs states here are real symmetric; hermiticity
therefore means symmetry.  The exact quasi-free references the tests
compare against (the diagonal quasi-particle Hamiltonian and the
pair-rotation generator) are built in ``tests/fock_reference.py`` on
this module's basis and ladder letters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BasisSizeError, GuardError
from .lattice import Mode

__all__ = [
    "compositions",
    "composition_rank",
    "check_basis_size",
    "FockBasis",
    "Triplets",
    "HermitianOperator",
    "build_basis",
    "ladder",
    "ladder_word",
    "build_LN",
    "GibbsState",
    "gibbs",
    "expect",
]

# the most states a basis may hold, and the most a dense block may
STATE_LIMIT = 200_000
DENSE_LIMIT = 6_000


class FockBasis:
    """Occupation-number basis with a total-excitation cap, over all or chosen total momenta.

    All C(cap + n_modes, n_modes) capped states, or only those whose total
    momentum is a row of ``momenta``, held once as a read-only integer
    array in (total, lex) order next to their packed keys; ``rank`` finds
    rows by ``searchsorted`` on the keys.
    """

    def __init__(
        self,
        modes: Sequence[Mode],
        cap: int,
        momenta: np.ndarray | None = None,
    ):
        modes = tuple(modes)
        triples = {m.n for m in modes}
        if len(triples) != len(modes):
            raise ValueError("duplicate modes in basis")
        if momenta is None:  # a basis over chosen momenta counts its states as it builds them
            check_basis_size(len(modes), cap)

        self.modes = modes
        self.cap = cap
        self.mode_index = {m.n: i for i, m in enumerate(modes)}
        # the capped states of each total below t, at t
        self._first = np.cumsum([0] + [comb(t + len(modes) - 1, t) for t in range(cap)])
        if momenta is None:
            states = np.concatenate([compositions(t, len(modes)) for t in range(cap + 1)])
        else:
            states = _momentum_states(np.array([m.n for m in modes]), cap, np.asarray(momenta))
        keys = self._packed(states)
        order = np.argsort(keys)
        self._occupations, self._keys = states[order], keys[order]
        if np.any(np.diff(self._keys) == 0):
            raise ValueError("a momentum is given twice")
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

    def _packed(self, occ: np.ndarray) -> np.ndarray:
        return self._first[occ.sum(axis=1)] + composition_rank(occ)

    def rank(self, occ: np.ndarray) -> np.ndarray:
        """Position of each occupation row in the basis.

        Rows must have total at most the cap; a row the basis does not hold
        raises ValueError.
        """
        packed = self._packed(occ)
        at = np.searchsorted(self._keys, packed)
        if not np.array_equal(self._keys[np.minimum(at, len(self) - 1)], packed):
            raise ValueError("a state outside the basis")
        return at


def check_basis_size(n_modes: int, cap: int):
    """Refuse a capped basis of more than ``STATE_LIMIT`` states, or a negative cap.

    The count is C(cap + n_modes, n_modes); raises BasisSizeError above the
    limit and ValueError for a negative cap.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    full_count = comb(cap + n_modes, n_modes)
    if full_count > STATE_LIMIT:
        raise BasisSizeError(full_count, STATE_LIMIT)


def _momentum_states(vectors: np.ndarray, cap: int, momenta: np.ndarray) -> np.ndarray:
    """The capped occupation vectors of total momentum in ``momenta``, unordered.

    Meet in the middle: the capped states of each half of the modes
    (momenta ``vectors``) are built apart, the second half sorted by packed
    (momentum, total).  A first-half state of momentum Q and total t
    completes to P with the second-half states of momentum P - Q and total
    at most cap - t, one range of that order.  Refused before either half
    is built if it holds more than ``STATE_LIMIT`` states, and after each
    pass over the momenta as soon as more than ``STATE_LIMIT`` states of
    the sectors are found, or one sector holds more than a dense block may.
    """
    half = len(vectors) // 2
    for parts in (half, len(vectors) - half):
        check_basis_size(parts, cap)
    head, tail = (np.concatenate([compositions(t, parts) for t in range(cap + 1)])
                  for parts in (half, len(vectors) - half))
    reach = cap * int(np.abs(vectors).max()) + int(np.abs(momenta).max(initial=0))
    place = (2 * reach + 1) ** np.arange(3)
    tail_keys = ((tail @ vectors[half:] + reach) @ place) * (cap + 1) + tail.sum(axis=1)
    order = np.argsort(tail_keys)
    tail, tail_keys = tail[order], tail_keys[order]
    head_keys, head_totals = (head @ vectors[:half]) @ place, head.sum(axis=1)
    wanted = (momenta + reach) @ place
    found, ranges = 0, []
    step = max(1, 2**20 // len(head))  # (momentum, head state) pairs per pass
    for start in range(0, len(wanted), step):
        need = (wanted[start : start + step, None] - head_keys) * (cap + 1)
        lo = np.searchsorted(tail_keys, need)
        count = np.searchsorted(tail_keys, need + (cap - head_totals), side="right") - lo
        sectors = count.sum(axis=1)
        found += int(sectors.sum())
        if found > STATE_LIMIT:
            raise BasisSizeError(found, STATE_LIMIT)
        _check_block_size(int(sectors.max()))
        ranges.append((np.nonzero(count)[1], lo[count > 0], count[count > 0]))
    heads, lo, count = (np.concatenate(part) for part in zip(*ranges))
    first = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(found)
    return np.hstack((head[np.repeat(heads, count)], tail[first]))


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


@functools.cache
def _stars(max_total: int, slots: int) -> np.ndarray:
    """Read-only stars[s, k] = C(s + k, k), the compositions of s into k + 1 parts.

    For s <= max_total and k < slots, built once per pair of sizes.
    """
    stars = np.array(
        [[comb(s + k, k) for k in range(slots)] for s in range(max_total + 1)],
        dtype=np.int64,
    )
    stars.flags.writeable = False
    return stars


def composition_rank(occ: np.ndarray) -> np.ndarray:
    """Lexicographic position of each row among the compositions of its own total.

    The combinatorial index of capped compositions (Zhang & Dong, Eur. J.
    Phys. 31, 591 (2010)): slot by slot, the rows with the same prefix and
    fewer quanta in the slot come first, counted in closed form by the
    hockey stick identity.
    """
    n = occ.shape[1]
    suffix = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]
    stars = _stars(int(suffix[:, 0].max(initial=0)), n)
    k = np.arange(n - 1, 0, -1)
    return (stars[suffix[:, :-1], k] - stars[suffix[:, 1:], k]).sum(axis=1)


def build_basis(
    modes: Sequence[Mode], cap: int, momenta: np.ndarray | None = None
) -> FockBasis:
    return FockBasis(modes, cap, momenta)


@dataclass(frozen=True, eq=False)
class Triplets:
    """A real square sparse matrix: its nonzero entries in row-major order.

    ``rows``, ``cols`` and ``values`` are read-only arrays, one element per
    entry, sorted by (row, col) with no pair twice.  Built by
    ``_from_entries`` only.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.values)

    def lookup(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The entries at (rows[i], cols[i]), 0 where the matrix has none."""
        wanted = np.asarray(rows) * self.shape[1] + np.asarray(cols)
        if not self.nnz:
            return np.zeros(wanted.shape)
        keys = self.rows * self.shape[1] + self.cols
        at = np.minimum(np.searchsorted(keys, wanted), self.nnz - 1)
        return np.where(keys[at] == wanted, self.values[at], 0.0)


def _from_entries(dim: int, rows, cols, values) -> Triplets:
    """The dim x dim ``Triplets`` of the given entries, zeros dropped.

    Each (row, col) pair may appear once; the entries are put in row-major
    order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    keys = rows * dim + cols
    order = np.argsort(keys, kind="stable")
    order = order[values[order] != 0.0]
    if np.any(np.diff(keys[order]) == 0):
        raise ValueError("an entry is given twice")
    parts = [part[order] for part in (rows, cols, values)]
    for part in parts:
        part.flags.writeable = False
    return Triplets((dim, dim), *parts)


@dataclass(frozen=True)
class HermitianOperator:
    """A real sparse matrix (``Triplets``) over a FockBasis."""

    basis: FockBasis
    matrix: Triplets


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------

# A letter (slot, step, weighted) is a creation (step +1) or annihilation
# (step -1) at one mode slot, optionally carrying the factor sqrt(1 - t/N);
# a word is a tuple of letters in operator order, so its last letter acts
# first.
Letter = tuple[int, int, bool]


class _Letters:
    """The ladder letters on one basis, applied to every state at once.

    A letter contributes sqrt(n) (annihilation) or sqrt(n + 1) times the
    cap mask (creation) of the occupation n it meets, and a weighted letter
    also sqrt(1 - t/N) with t the smaller of the totals before and after
    it.  These per-state columns depend only on the slot and on how far the
    letters before moved its occupation and the total, so each is built
    once per instance.  Square roots read arguments clipped at 0: a state
    the word annihilates or lifts past the cap gets amplitude 0, never NaN,
    however far its later occupations and totals stray.
    """

    def __init__(self, basis: FockBasis, N: int | None = None):
        self.basis = basis
        self.N = N
        self._columns: dict[tuple, np.ndarray] = {}

    def _column(self, *key) -> np.ndarray:
        """The column ("root", j, offset), ("below_cap", offset) or ("weight", offset)."""
        column = self._columns.get(key)
        if column is None:
            basis = self.basis
            kind, offset = key[0], key[-1]
            if kind == "root":  # sqrt(n_j + offset)
                n = np.maximum(basis.occupations()[:, key[1]] + offset, 0)
                column = np.sqrt(n.astype(float))
            elif kind == "below_cap":  # creation allowed at total + offset
                column = (basis.totals + offset < basis.cap).astype(float)
            else:  # sqrt(1 - (total + offset)/N)
                column = np.sqrt(np.maximum(1.0 - (basis.totals + offset) / self.N, 0.0))
            self._columns[key] = column
        return column

    def word(self, word: Sequence[Letter]) -> tuple[np.ndarray, np.ndarray]:
        """Amplitude of ``word`` on every basis state, and its net occupation shift."""
        amp = None
        shift = [0] * len(self.basis.modes)
        moved = 0  # the shift of the total
        for j, step, weighted in reversed(word):
            if step > 0:
                factor = self._column("root", j, shift[j] + 1) * self._column("below_cap", moved)
                weighted_total = moved
            else:
                factor = self._column("root", j, shift[j])
                weighted_total = moved - 1
            if weighted:
                factor = factor * self._column("weight", weighted_total)
            amp = factor if amp is None else amp * factor
            shift[j] += step
            moved += step
        return amp, np.array(shift, dtype=np.int64)

    def entries(
        self,
        terms: Iterable[tuple[float, Sequence[Letter]]],
        diagonal: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero (rows, cols, values) of sum coefficient * word over (coefficient, word) terms.

        The terms are grouped by net shift: each group is summed as one
        dense column over the states, whose nonzero targets are ranked
        once.  ``diagonal`` starts the zero-shift group.
        """
        basis = self.basis
        n_modes = len(basis.modes)
        groups: dict[tuple[int, ...], list] = {}
        if diagonal is not None:
            groups[(0,) * n_modes] = []
        for coefficient, word in terms:
            shift = [0] * n_modes
            for j, step, _ in word:
                shift[j] += step
            groups.setdefault(tuple(shift), []).append((coefficient, word))
        if not groups:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)

        occ = basis.occupations()
        rows, cols, values = [], [], []
        for shift, members in groups.items():
            if diagonal is not None and not any(shift):
                column = diagonal.copy()
            else:
                column = np.zeros(len(basis))
            for coefficient, word in members:
                column += coefficient * self.word(word)[0]
            states = np.flatnonzero(column)
            rows.append(basis.rank(occ[states] + np.array(shift, dtype=np.int64)))
            cols.append(states)
            values.append(column[states])
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def _letter(basis: FockBasis, mode: Mode, kind: str, N: int | None) -> Letter:
    if mode.n not in basis.mode_index:
        raise ValueError(f"mode {mode.n} not in basis")
    if kind not in ("create", "annihilate", "b_create", "b_annihilate"):
        raise ValueError(f"unknown ladder kind {kind!r}")
    weighted = kind.startswith("b_")
    if weighted:
        if N is None:
            raise ValueError("weighted ladder operators need N")
        if N < basis.cap:
            raise ValueError("weighted ladder operators need N >= cap")
    return basis.mode_index[mode.n], 1 if kind.endswith("create") else -1, weighted


def ladder_word(
    basis: FockBasis,
    factors: Sequence[tuple[Mode, str]],
    N: int | None = None,
) -> Triplets:
    """Product of ladder operators, given as (mode, kind) factors in operator order.

    The last factor acts first; each kind is one of ``ladder``'s.  The
    product is applied to every state at once as one word, so an entry is
    the product of its factors' amplitudes.
    """
    word = tuple(_letter(basis, mode, kind, N) for mode, kind in factors)
    return _from_entries(len(basis), *_Letters(basis, N).entries([(1.0, word)]))


def ladder(
    basis: FockBasis,
    mode: Mode,
    kind: str,
    N: int | None = None,
) -> Triplets:
    """Sparse matrix of a (possibly weighted) creation or annihilation operator.

    kind is one of 'create', 'annihilate', 'b_create', 'b_annihilate'.  The
    weighted kinds need the particle number N >= cap and carry the factor
    sqrt(1 - total/N) with the total excitation number of the state the
    factor acts on, which keeps them inside the capped space.

    This is the one-letter word.  ``_Letters`` is the one place that moves
    an occupation, and every operator on the basis is a sum of its words:
    all states move at once and the targets are ranked in closed form.
    """
    return ladder_word(basis, [(mode, kind)], N)


# ---------------------------------------------------------------------------
# excitation Hamiltonian
# ---------------------------------------------------------------------------

def build_LN(
    basis: FockBasis,
    N: int,
    v_hat: Callable[[np.ndarray], np.ndarray],
) -> HermitianOperator:
    """Excitation Hamiltonian on the capped basis, all interaction legs inside the mode set.

    ``v_hat`` is the radial Fourier transform of the interaction, taking a
    column of wave numbers to a column of values; it is sampled at |p|/N on
    the physical momenta of the basis modes and of their differences (0
    among them), in one call on the column of every integer |p|^2 a term
    needs.  Assembles the kinetic part plus the scalar/number
    block, the quadratic block with its anomalous pairs, the cubic block
    and the quartic block, keeping exactly the momentum-conserving terms
    whose every leg lies in the mode set.  Every anomalous, cubic and
    quartic term is a word of ladder letters; the words are summed per net
    occupation shift and the whole matrix is built from one triplet list.
    The result commutes with total momentum and is symmetric up to
    roundoff.
    """
    if N < basis.cap:
        raise ValueError("build_LN needs N >= cap")
    if not basis.negation_closed:
        raise ValueError("build_LN needs a negation-closed mode set")
    modes = basis.modes
    scale = math.sqrt(modes[0].p_sq / modes[0].norm_sq)
    index = basis.mode_index

    n = np.array([m.n for m in modes])
    differences = ((n[:, None] - n[None, :]) ** 2).sum(axis=2).ravel().tolist()
    norm_sq = sorted({*(m.norm_sq for m in modes), *differences})
    khat = dict(zip(norm_sq, np.asarray(v_hat(scale * np.sqrt(norm_sq) / N)).tolist()))

    v0 = khat[0]
    vp = np.array([khat[m.norm_sq] for m in modes])
    neg = [index[m.negated()] for m in modes]

    # diagonal blocks: kinetic + scalar/number + direct quadratic
    p_sq = np.array([m.p_sq for m in modes])
    occs = basis.occupations()
    totals = basis.totals
    kinetic = occs @ p_sq
    direct = (occs @ vp) * (N - totals) / N
    scalar = 0.5 * N * v0 - 0.5 * v0 * (1.0 - totals / N) - 0.5 * v0 * totals**2 / N

    # anomalous quadratic block: (1/2) sum_p vp b*_p b*_-p, and
    # cubic block: N^{-1/2} sum vp b*_{p+q} a*_{-p} a_q, all legs in the set;
    # each is added with its adjoint, the exact transpose
    raising = [
        (0.5 * vp[i], ((i, 1, True), (j, 1, True)))
        for i, j in enumerate(neg)
        if vp[i] != 0.0
    ]
    inv_sqrt_n = 1.0 / math.sqrt(N)
    for ip, mp_ in enumerate(modes):
        for iq, mq in enumerate(modes):
            s = tuple(a + b for a, b in zip(mp_.n, mq.n))
            if s == (0, 0, 0) or s not in index or vp[ip] == 0.0:
                continue
            word = ((index[s], 1, True), (neg[ip], 1, False), (iq, -1, False))
            raising.append((inv_sqrt_n * vp[ip], word))

    # quartic block: (2N)^{-1} sum vhat(r/N) a*_{p+r} a*_q a_{q+r} a_p
    quartic = []
    half_inv_n = 0.5 / N
    for ip, mp_ in enumerate(modes):
        for is_, ms in enumerate(modes):
            r = tuple(a - b for a, b in zip(ms.n, mp_.n))
            v_r = khat[sum(c * c for c in r)]
            if v_r == 0.0:
                continue
            for iq, mq in enumerate(modes):
                t = tuple(a + b for a, b in zip(mq.n, r))
                if t in index:
                    word = ((is_, 1, False), (iq, 1, False), (index[t], -1, False), (ip, -1, False))
                    quartic.append((half_inv_n * v_r, word))

    letters = _Letters(basis, N)
    up_rows, up_cols, up_values = letters.entries(raising)
    rows, cols, values = letters.entries(quartic, diagonal=kinetic + scalar + direct)
    H = _from_entries(
        len(basis),
        np.concatenate((rows, up_rows, up_cols)),
        np.concatenate((cols, up_cols, up_rows)),
        np.concatenate((values, up_values, up_values)),
    )
    return HermitianOperator(basis, H)


# ---------------------------------------------------------------------------
# +-p pairs
# ---------------------------------------------------------------------------

def pair_partners(modes: Sequence[Mode]) -> list[tuple[int, int]]:
    """Mode-index pairs (i, j) with modes[j] = -modes[i], each pair once."""
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


# ---------------------------------------------------------------------------
# Gibbs states and expectations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GibbsState:
    """Normalized thermal state e^{-beta(H - E0)} / Z with the shifted partition sum."""

    rho: Triplets
    Z: float
    beta: float
    ground_energy: float


def gibbs(H: HermitianOperator, beta: float) -> GibbsState:
    """Thermal state of H, diagonalized one connected component at a time.

    The states that H connects, directly or through other states, form
    its blocks; for ``build_LN`` these are the total-momentum sectors, and
    a diagonal H has one block per state.  Blocks of equal size go through
    one batched ``eigh``, and ``DENSE_LIMIT`` caps the size of the largest
    block.  Energies are shifted by the global ground energy before
    exponentiation, which leaves all weight ratios invariant and cannot
    overflow; Z refers to the shifted convention and is the exactly
    rounded sum of all weights.  rho is a ``Triplets`` matrix in basis
    order whose entries all lie inside the blocks.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    dim = len(H.basis)
    h = H.matrix
    blocks = _Blocks(_components(dim, h.rows, h.cols))
    groups = list(blocks.eigh(h))
    e0 = float(min(energies.min() for energies, _ in groups))
    weights = [np.exp(-beta * (energies - e0)) for energies, _ in groups]
    Z = float(math.fsum(np.concatenate([w.ravel() for w in weights]).tolist()))
    rows, cols, values = [], [], []
    for members, (_, vectors), w in zip(blocks.members, groups, weights):
        k, s = members.shape
        values.append(((vectors * (w / Z)[:, None, :]) @ vectors.transpose(0, 2, 1)).ravel())
        rows.append(np.broadcast_to(members[:, :, None], (k, s, s)).ravel())
        cols.append(np.broadcast_to(members[:, None, :], (k, s, s)).ravel())
    rho = _from_entries(dim, *(np.concatenate(part) for part in (rows, cols, values)))
    return GibbsState(rho=rho, Z=Z, beta=beta, ground_energy=e0)


def _check_block_size(size: int):
    """Refuse a block of more than ``DENSE_LIMIT`` states for dense diagonalization."""
    if size > DENSE_LIMIT:
        raise GuardError(f"dense eigendecomposition of a {size}-state block "
                         f"exceeds the limit {DENSE_LIMIT}")


class _Blocks:
    """The diagonal blocks of matrices over states grouped by ``labels``.

    Laid out by (size, label), each with its states in basis order, the
    blocks of one size fill one contiguous (k, s, s) stack of a flat
    buffer; ``members`` holds each stack's (k, s) states, in increasing s.
    """

    def __init__(self, labels: np.ndarray):
        sizes = np.bincount(labels)
        _check_block_size(int(sizes.max()))
        blocks = np.argsort(sizes, kind="stable")
        states = np.lexsort((labels, sizes[labels]))
        ordered = sizes[blocks]
        first_state = np.repeat(np.cumsum(ordered) - ordered, ordered)
        self._slot = np.empty(len(labels), dtype=np.int64)  # a state's place in its block
        self._slot[states] = np.arange(len(labels)) - first_state
        self._first_entry = np.empty_like(ordered)
        self._first_entry[blocks] = np.cumsum(ordered**2) - ordered**2
        self._labels, self._sizes = labels, sizes
        s, k = np.unique(ordered, return_counts=True)
        self.members = [part.reshape(-1, size) for part, size
                        in zip(np.split(states, np.cumsum(s * k)[:-1]), s.tolist())]

    def position(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Buffer position of each entry (rows[i], cols[i]) inside a block."""
        block = self._labels[rows]
        return self._first_entry[block] + self._slot[rows] * self._sizes[block] + self._slot[cols]

    def eigh(self, h: Triplets) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(energies, vectors) of h's blocks, one batched ``eigh`` per stack.

        Each stack is filled just before its ``eigh``, so only one is held.
        """
        position = self.position(h.rows, h.cols)
        order = np.argsort(position)
        position, values = position[order], h.values[order]
        at = 0
        for members in self.members:
            k, s = members.shape
            lo, hi = np.searchsorted(position, [at, at + k * s * s])
            stack = np.zeros(k * s * s)
            stack[position[lo:hi] - at] = values[lo:hi]
            yield np.linalg.eigh(stack.reshape(k, s, s))
            at += k * s * s


def _components(dim: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected-component label of every state, the edges being the entries (rows, cols).

    Min-label propagation with pointer jumping: every state starts with
    its own index as label, each round gives both ends of every edge the
    smaller of their labels and then replaces each label by its label's
    label until that changes nothing.  Labels only fall and always name a
    state of the same component, so at the fixed point every state holds
    the smallest state of its component.  The components are numbered in
    the order of their smallest states.
    """
    label = np.arange(dim)
    while True:
        hooked = label.copy()
        low = np.minimum(label[rows], label[cols])
        np.minimum.at(hooked, rows, low)
        np.minimum.at(hooked, cols, low)
        while not np.array_equal(jumped := hooked[hooked], hooked):
            hooked = jumped
        if np.array_equal(hooked, label):
            return np.unique(label, return_inverse=True)[1]
        label = hooked


def expect(state: GibbsState, O: Triplets) -> float:
    """tr(rho O) for a GibbsState and an operator O of the same shape as rho.

    The sum of rho[c, r] O[r, c] over the entries of O, each entry of rho
    looked up by its (row, col) key.
    """
    if O.shape != state.rho.shape:
        raise ValueError(f"operator of shape {O.shape} against a state of shape {state.rho.shape}")
    return float(np.sum(state.rho.lookup(O.cols, O.rows) * O.values))
