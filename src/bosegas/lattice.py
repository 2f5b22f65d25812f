"""Momentum-lattice enumeration and convergent lattice sums.

Excitation momenta on the unit torus form the integer lattice scaled by
2*pi, with the zero mode removed.  Shells collect all modes of equal
squared integer norm.  Every sum over modes of a per-shell column goes
through ``mode_sum``, which rounds the exact per-mode sum once; lattice
sums carry an explicit tail bound obtained by comparing the beyond-cutoff
sum with a displaced radial integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "TWO_PI",
    "Mode",
    "Shell",
    "SumResult",
    "shell_table",
    "enumerate_shells",
    "modes_up_to",
    "shell_norms",
    "shell_modes",
    "mode_sum",
    "shell_sum",
    "tail_norm_bound",
]


@dataclass(frozen=True)
class Mode:
    """A single excitation mode: integer triple ``n``, momentum scale*n of square ``p_sq``."""

    n: tuple[int, int, int]
    p_sq: float

    def __post_init__(self):
        if self.n == (0, 0, 0):
            raise ValueError("the zero mode is not an excitation mode")

    @property
    def norm_sq(self) -> int:
        n1, n2, n3 = self.n
        return n1 * n1 + n2 * n2 + n3 * n3

    def negated(self) -> tuple[int, int, int]:
        return (-self.n[0], -self.n[1], -self.n[2])


def _make_mode(n: tuple[int, int, int], scale: float) -> Mode:
    norm_sq = n[0] * n[0] + n[1] * n[1] + n[2] * n[2]
    return Mode(n=n, p_sq=scale * scale * norm_sq)


@dataclass(frozen=True)
class Shell:
    """All modes with a common squared integer norm."""

    norm_sq: int
    members: tuple[Mode, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SumResult:
    """Value of a cutoff lattice sum together with a beyond-cutoff tail bound."""

    value: float
    tail_bound: float
    cutoff_norm_sq: int


@lru_cache(maxsize=32)
def enumerate_shells(max_norm_sq: int, momentum_scale: float = TWO_PI) -> tuple[Shell, ...]:
    """Enumerate shells with 1 <= |n|^2 <= max_norm_sq, ascending in |n|^2.

    Within a shell members are sorted lexicographically by (n1, n2, n3),
    so two calls with equal arguments produce identical ordered output.
    Norms not represented by any integer triple (e.g. 7) are simply absent.
    """
    if max_norm_sq < 1:
        raise ValueError("max_norm_sq must be >= 1")
    m = math.isqrt(max_norm_sq)
    axis = np.arange(-m, m + 1)
    n1, n2, n3 = np.meshgrid(axis, axis, axis, indexing="ij")
    triples = np.stack([n1.ravel(), n2.ravel(), n3.ravel()], axis=1)
    norms = (triples**2).sum(axis=1)
    keep = (norms >= 1) & (norms <= max_norm_sq)
    triples = triples[keep]
    norms = norms[keep]

    shells: list[Shell] = []
    # not np.unique: its first flag-free call imports numpy.ma, ~10 ms
    for norm in sorted(set(norms.tolist())):
        rows = triples[norms == norm]
        rows = rows[np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))]
        members = tuple(
            _make_mode((int(r[0]), int(r[1]), int(r[2])), momentum_scale) for r in rows
        )
        shells.append(Shell(norm_sq=int(norm), members=members))
    return tuple(shells)


def modes_up_to(max_norm_sq: int, momentum_scale: float = TWO_PI) -> tuple[Mode, ...]:
    """All modes with |n|^2 <= max_norm_sq, flattened in shell order."""
    out: list[Mode] = []
    for shell in enumerate_shells(max_norm_sq, momentum_scale):
        out.extend(shell.members)
    return tuple(out)


def shell_norms(norm_sqs: Iterable[int]) -> set[int]:
    """The distinct shell norms |n|^2 of ``norm_sqs``.

    An empty list of norms is refused, and so is a norm below 1: |n|^2 = 0
    is the condensate mode, no shell.
    """
    wanted = set(norm_sqs)
    if not wanted:
        raise ValueError("no shells given")
    if min(wanted) < 1:
        raise ValueError(f"shell norm |n|^2 = {min(wanted)} is below 1")
    return wanted


def shell_modes(norm_sqs: Iterable[int], momentum_scale: float = TWO_PI) -> tuple[Mode, ...]:
    """The modes of the shells |n|^2 in ``norm_sqs``, in shell order.

    Repeated norms count once; a norm no integer triple represents adds no
    mode.  The norms are checked by ``shell_norms``.
    """
    wanted = shell_norms(norm_sqs)
    return tuple(
        m
        for shell in enumerate_shells(max(wanted), momentum_scale)
        if shell.norm_sq in wanted
        for m in shell.members
    )


@lru_cache(maxsize=32)
def shell_table(max_norm_sq: int, momentum_scale: float = TWO_PI) -> tuple[np.ndarray, ...]:
    """Read-only (norm_sq, multiplicity, p_sq) of the shells 1 <= |n|^2 <= max_norm_sq.

    The multiplicity r3(j) > 0 of norm j is the q^j coefficient of theta_3(q)^3
    (Grosswald, *Representations of Integers as Sums of Squares*, 1985): the
    1-D square indicator convolved three times, here by shift-adding over the
    sqrt(L) squares, O(L sqrt(L)).  p_sq is rounded exactly as ``Mode.p_sq``.
    """
    if max_norm_sq < 1:
        raise ValueError("max_norm_sq must be >= 1")
    squares = [k * k for k in range(math.isqrt(max_norm_sq) + 1)]
    r1 = np.zeros(max_norm_sq + 1, dtype=np.int64)
    r1[squares] = 2
    r1[0] = 1
    counts = r1
    for _ in range(2):
        acc = np.zeros_like(r1)
        for k2 in squares:
            acc[k2:] += r1[k2] * counts[: max_norm_sq + 1 - k2]
        counts = acc
    norm_sq = np.flatnonzero(counts[1:]) + 1
    table = (norm_sq, counts[norm_sq], momentum_scale * momentum_scale * norm_sq)
    for column in table:
        column.flags.writeable = False
    return table


def tail_norm_bound(cutoff_norm_sq: int, s: float) -> float:
    """Upper bound for sum over |n|^2 > cutoff of |n|^(-2s), for s > 3/2.

    The first shells past the cutoff are summed exactly; the remainder is
    bounded by the radial integral over the union of unit cells, each of
    which lies at radius >= |n| - sqrt(3)/2.
    """
    if s <= 1.5:
        raise ValueError("tail exponent must exceed 3/2 for a summable tail")
    switch = max(cutoff_norm_sq, 64)
    norm_sq, multiplicity, _ = shell_table(switch)
    shells = zip(norm_sq.tolist(), multiplicity.tolist())
    exact = math.fsum(m * j ** (-s) for j, m in shells if j > cutoff_norm_sq)
    t0 = math.sqrt(switch) - math.sqrt(3.0)
    geometry = (1.0 + math.sqrt(3.0) / (2.0 * t0)) ** 2
    integral = geometry * 4.0 * math.pi * t0 ** (3.0 - 2.0 * s) / (2.0 * s - 3.0)
    return exact + integral


def mode_sum(extra: list[float], multiplicity: np.ndarray, *columns: np.ndarray) -> float:
    """Exactly rounded sum of ``extra`` and of each column entry once per mode.

    Veltkamp's split writes every entry exactly as hi + lo, each of at most
    26 significant bits; their products with a multiplicity below 2**26 are
    exact, so ``math.fsum`` rounds the exact per-mode sum once.
    """
    parts = list(extra)
    for values in columns:
        c = 134217729.0 * values
        hi = c - (c - values)
        parts += (multiplicity * hi).tolist() + (multiplicity * (values - hi)).tolist()
    return math.fsum(parts)


def shell_sum(values, max_norm_sq: int, tail_exponent: float) -> SumResult:
    """Compensated sum over the modes with |n|^2 <= cutoff of a per-shell column.

    ``values`` holds one summand per shell of ``shell_table(max_norm_sq)``,
    counted once per mode of the shell; the sum is exactly rounded
    (``mode_sum``).  ``tail_exponent`` s > 3/2 models the decay
    |f| <= C * |n|^(-2s) beyond the cutoff; C is estimated from the outermost
    shell, which presumes |f| * |n|^(2s) is non-increasing past the cutoff.
    """
    if tail_exponent <= 1.5:
        raise ValueError("tail exponent must exceed 3/2 for a summable tail")
    norm_sq, multiplicity, _ = shell_table(max_norm_sq)
    values = np.asarray(values, dtype=float)
    value = mode_sum([], multiplicity, values)

    c_tail = abs(float(values[-1])) * int(norm_sq[-1]) ** tail_exponent
    bound = c_tail * tail_norm_bound(max_norm_sq, tail_exponent)
    return SumResult(value=value, tail_bound=bound, cutoff_norm_sq=max_norm_sq)

