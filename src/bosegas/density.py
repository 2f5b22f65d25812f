"""Structured second-order models of the one- and two-particle density matrices.

Both models are stored structurally rather than as dense matrices: a
condensate scalar, per-shell diagonal weights, and (for the two-particle
model) the per-shell anomalous block coupling the doubly-condensed vector
to each zero-total-momentum pair.  Traces are the structural identities
``N = condensate + sum(weights)`` over all modes; no dense algebra is involved.

The two-particle model need not be positive at finite N; its minimum
eigenvalue is available as a diagnostic in closed form.

The builders take the coefficient columns the caller evaluated once, at
the ``p_sq`` of ``lattice.shell_table(cutoff)``; this module only does the
models' arithmetic, and ``cli`` renders them.  Traces, depletions, distances
and pairing norms are exactly rounded per-mode sums (``lattice.mode_sum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bogoliubov import ModeCoefficients, Variant
from .errors import ModelValidityError
from .lattice import mode_sum, shell_table

__all__ = [
    "SecondOrderDM1",
    "SecondOrderDM2",
    "build_rho1",
    "build_rho2",
    "dm_trace_norm_diff",
    "dm2_min_eigenvalue",
]


@dataclass(frozen=True)
class SecondOrderDM1:
    """Model of N * rho^(1): condensate weight plus a plane-wave diagonal.

    ``excited_weights`` holds the weight of every mode of each shell
    ``norm_sq``, which has ``multiplicity`` modes.
    """

    N: int
    cutoff: int
    variant: Variant
    condensate_weight: float
    norm_sq: np.ndarray
    multiplicity: np.ndarray
    excited_weights: np.ndarray

    def trace(self) -> float:
        return mode_sum([self.condensate_weight], self.multiplicity, self.excited_weights)


@dataclass(frozen=True)
class SecondOrderDM2(SecondOrderDM1):
    """Model of N * rho^(2): condensed weight, pair-diagonal, anomalous block.

    ``pairing`` holds, per shell, the coefficient of the ordered basis
    element |phi_0 phi_0><phi_p phi_-p| of each of its modes p (its adjoint
    is implied, the block is traceless).  The factor 4 of the symmetrized
    condensate-excited sector is absorbed into ``excited_weights``.
    """

    pairing: np.ndarray


def _model(kind, coefficients: ModeCoefficients, variant: Variant, N: int, cutoff: int,
           factor: float, depletion_name: str, **pairing):
    """A ``kind`` model with weights ``factor`` (mu^2 + theta^2) on every mode.

    Valid only while the depletion stays below N; otherwise the condensate
    weight would be non-positive and the asymptotic model meaningless, so a
    structured error is raised instead.
    """
    if N < 1:
        raise ValueError("particle number must be >= 1")
    norm_sq, multiplicity, p_sq = shell_table(cutoff)
    if coefficients.p_sq.shape != p_sq.shape:
        raise ValueError(f"coefficients of {coefficients.p_sq.size} shells given for the "
                         f"{p_sq.size} shells up to |n|^2 = {cutoff}")
    weights = factor * coefficients.occupation(variant)
    depletion = mode_sum([], multiplicity, weights)
    if depletion >= N:
        raise ModelValidityError(
            f"second-order model invalid at this N: {depletion_name} {depletion:g} >= N = {N}"
        )
    return kind(N=N, cutoff=cutoff, variant=Variant(variant), condensate_weight=N - depletion,
                norm_sq=norm_sq, multiplicity=multiplicity, excited_weights=weights, **pairing)


def build_rho1(coefficients: ModeCoefficients, variant: Variant, N: int,
               cutoff: int) -> SecondOrderDM1:
    """The one-particle model: weight mu^2 + theta^2 on every mode."""
    return _model(SecondOrderDM1, coefficients, variant, N, cutoff, 1.0, "depletion")


def build_rho2(coefficients: ModeCoefficients, variant: Variant, N: int,
               cutoff: int) -> SecondOrderDM2:
    """The two-particle model: weights 4(mu^2 + theta^2) and the pairing block."""
    return _model(SecondOrderDM2, coefficients, variant, N, cutoff, 4.0, "4*depletion",
                  pairing=coefficients.pairing(variant))


def _check_same_shape(x, y):
    if type(x) is not type(y):
        raise ValueError("density-matrix models of different kinds cannot be compared")
    if x.cutoff != y.cutoff or not np.array_equal(x.norm_sq, y.norm_sq):
        raise ValueError("density-matrix models must share cutoff and mode basis")


def dm_trace_norm_diff(x, y) -> float:
    """Trace norm of the structured difference of two same-shape models.

    The sectors are orthogonal, so the norm splits exactly: the condensate
    difference, the per-mode diagonal differences, and for two-particle
    models the singular values of the off-diagonal anomalous blocks, which
    contribute 2|delta| per +-p pair of modes.
    """
    _check_same_shape(x, y)
    gaps = [np.abs(x.excited_weights - y.excited_weights)]
    if isinstance(x, SecondOrderDM2):
        gaps.append(np.abs(x.pairing - y.pairing))
    return mode_sum([abs(x.condensate_weight - y.condensate_weight)], x.multiplicity, *gaps)


def dm2_min_eigenvalue(dm: SecondOrderDM2) -> float:
    """Smallest eigenvalue of the two-particle model, in closed form.

    The anomalous block couples the doubly-condensed vector to the pair
    vectors with zero model weight, an arrow-shaped matrix whose nonzero
    eigenvalues are (w00 +- sqrt(w00^2 + 4 sum c^2))/2; the rest of the
    spectrum is the non-negative diagonal.  Negative values are expected at
    finite N and merely reported.

    The smaller one is evaluated as -2 sum c^2 / (w00 + sqrt(w00^2 + 4 sum c^2)),
    which equals it for the positive w00 of a valid model and, unlike the
    difference, loses no digits when sum c^2 is small against w00^2.
    """
    c_sq = mode_sum([], dm.multiplicity, dm.pairing * dm.pairing)
    w00 = dm.condensate_weight
    # + 0.0 makes the free gas's -0.0 a 0.0
    arrow_min = -2.0 * c_sq / (w00 + math.sqrt(w00 * w00 + 4.0 * c_sq)) + 0.0
    # 0.0 is the arrow block's null space: a model has at least the 6 modes of shell 1
    return min(arrow_min, float(np.min(dm.excited_weights)), 0.0)
