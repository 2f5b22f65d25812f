"""Structured second-order models of the one- and two-particle density matrices.

Both models are stored structurally rather than as dense matrices: a
condensate scalar, per-shell diagonal weights, and (for the two-particle
model) the per-shell anomalous block coupling the doubly-condensed vector
to each zero-total-momentum pair.  Traces are the structural identities
``N = condensate + sum(weights)`` over all modes; no dense algebra is involved.

The two-particle model need not be positive at finite N; its minimum
eigenvalue is available as a diagnostic in closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bogoliubov import ThermalConfig, Variant, mode_coefficients
from .errors import ModelValidityError
from .lattice import shell_table

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
        return _mode_sum([self.condensate_weight], self.multiplicity, self.excited_weights)

    def to_json(self, provenance: dict | None = None) -> str:
        return _dm_json(self, pairing=None, provenance=provenance)


@dataclass(frozen=True)
class SecondOrderDM2(SecondOrderDM1):
    """Model of N * rho^(2): condensed weight, pair-diagonal, anomalous block.

    ``pairing`` holds, per shell, the coefficient of the ordered basis
    element |phi_0 phi_0><phi_p phi_-p| of each of its modes p (its adjoint
    is implied, the block is traceless).  The factor 4 of the symmetrized
    condensate-excited sector is absorbed into ``excited_weights``.
    """

    pairing: np.ndarray

    def to_json(self, provenance: dict | None = None) -> str:
        return _dm_json(self, pairing=self.pairing, provenance=provenance)


def _mode_sum(extra: list[float], multiplicity: np.ndarray, *columns: np.ndarray) -> float:
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


# repr's spelling of the non-finite floats, and json's
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dm_json(dm, pairing, provenance) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, with the ``modes``
    rows written straight from the columns through one row template."""
    columns = dict(norm_sq=dm.norm_sq, multiplicity=dm.multiplicity, weight=dm.excited_weights)
    if pairing is not None:
        columns["pairing"] = pairing
    keys = sorted(columns)
    # %r is int.__repr__ or float.__repr__, as json writes them when finite
    template = "    {\n" + ",\n".join(f"      {json.dumps(k)}: %r" for k in keys) + "\n    }"
    rows = ",\n".join([template % row for row in zip(*(columns[k].tolist() for k in keys))])
    for python, js in _JSON_FLOAT.items():
        rows = rows.replace(": " + python, ": " + js)  # ": inf" does not match ": -inf"
    payload = {
        "N": dm.N,
        "cutoff": dm.cutoff,
        "variant": dm.variant.value,
        "condensate": float(dm.condensate_weight),
        "trace": dm.trace(),
        "modes": 0,
    }
    if provenance is not None:
        payload["provenance"] = provenance
    # the top-level "modes" entry is the only line that starts with two spaces
    # and '"modes"': nested keys are indented deeper, and strings hold no newline
    text = json.dumps(payload, indent=2, sort_keys=True)
    return text.replace('\n  "modes": 0', '\n  "modes": ' + (f"[\n{rows}\n  ]" if rows else "[]"), 1)


def build_rho1(cfg: ThermalConfig, N: int, cutoff: int) -> SecondOrderDM1:
    """Assemble the one-particle model with weight mu^2 + theta^2 on every mode.

    Valid only while the depletion stays below N; otherwise the condensate
    weight would be non-positive and the asymptotic model meaningless, so a
    structured error is raised instead.
    """
    if N < 1:
        raise ValueError("particle number must be >= 1")
    norm_sq, multiplicity, p_sq = shell_table(cutoff)
    weights = mode_coefficients(p_sq, cfg.a, cfg.beta).occupation(cfg.variant)
    depletion = _mode_sum([], multiplicity, weights)
    if depletion >= N:
        raise ModelValidityError(
            f"second-order model invalid at this N: depletion {depletion:g} >= N = {N}"
        )
    return SecondOrderDM1(
        N=N,
        cutoff=cutoff,
        variant=cfg.variant,
        condensate_weight=N - depletion,
        norm_sq=norm_sq,
        multiplicity=multiplicity,
        excited_weights=weights,
    )


def build_rho2(cfg: ThermalConfig, N: int, cutoff: int) -> SecondOrderDM2:
    """Assemble the two-particle model: weights 4(mu^2+theta^2) and the pairing block."""
    if N < 1:
        raise ValueError("particle number must be >= 1")
    norm_sq, multiplicity, p_sq = shell_table(cutoff)
    coefficients = mode_coefficients(p_sq, cfg.a, cfg.beta)
    weights = 4.0 * coefficients.occupation(cfg.variant)
    depletion4 = _mode_sum([], multiplicity, weights)
    if depletion4 >= N:
        raise ModelValidityError(
            f"second-order model invalid at this N: 4*depletion {depletion4:g} >= N = {N}"
        )
    pairing = coefficients.pairing(cfg.variant)
    return SecondOrderDM2(
        N=N,
        cutoff=cutoff,
        variant=cfg.variant,
        condensate_weight=N - depletion4,
        norm_sq=norm_sq,
        multiplicity=multiplicity,
        excited_weights=weights,
        pairing=pairing,
    )


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
    return _mode_sum([abs(x.condensate_weight - y.condensate_weight)], x.multiplicity, *gaps)


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
    c_sq = _mode_sum([], dm.multiplicity, dm.pairing * dm.pairing)
    w00 = dm.condensate_weight
    # + 0.0 makes the free gas's -0.0 a 0.0
    arrow_min = -2.0 * c_sq / (w00 + math.sqrt(w00 * w00 + 4.0 * c_sq)) + 0.0
    # 0.0 is the arrow block's null space: a model has at least the 6 modes of shell 1
    return min(arrow_min, float(np.min(dm.excited_weights)), 0.0)
