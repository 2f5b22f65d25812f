"""Quasi-particle dispersion and depletion coefficients of the dilute Bose gas.

All quantities are functions of the squared momentum ``p_sq``, the
scattering length ``a`` and the inverse temperature ``beta``.  The thermal
occupation factor and the pairing coefficient are provided in two mutually
exclusive conventions, ``A`` and ``B``:

* convention A multiplies ``p_sq + 8*pi*a`` by the bare Bose factor
  ``1/(exp(beta*eps) - 1)``;
* convention B divides the same expression additionally by the dispersion
  ``eps``.

The two conventions coincide at zero temperature and differ by a factor
``eps`` in the thermal term.  Which one is consistent with the quadratic
Gibbs ensemble is not decided here; the Fock-space oracle
(:mod:`bosegas.oracles`) settles it numerically.

Every formula is written once, in ``mode_coefficients``, which evaluates
all coefficients as columns over an array of squared momenta (in practice
the ``p_sq`` column of ``lattice.shell_table``, one entry per shell).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import SumResult, shell_sum

__all__ = [
    "Variant",
    "ModeCoefficients",
    "bose_occupation",
    "mode_coefficients",
    "depletion_sums",
]


class Variant(str, enum.Enum):
    """Thermal-coefficient convention (see module docstring)."""

    A = "A"
    B = "B"


@dataclass(frozen=True)
class ModeCoefficients:
    """Every coefficient at each squared momentum of ``p_sq``, one column each."""

    p_sq: np.ndarray
    eps: np.ndarray
    mu_sq: np.ndarray
    theta_sq_A: np.ndarray
    theta_sq_B: np.ndarray
    nu: np.ndarray
    pairing_A: np.ndarray
    pairing_B: np.ndarray

    def theta_sq(self, variant: Variant) -> np.ndarray:
        return self.theta_sq_A if Variant(variant) is Variant.A else self.theta_sq_B

    def pairing(self, variant: Variant) -> np.ndarray:
        return self.pairing_A if Variant(variant) is Variant.A else self.pairing_B

    def occupation(self, variant: Variant) -> np.ndarray:
        """Model occupation mu^2 + theta^2 of a mode."""
        return self.mu_sq + self.theta_sq(variant)


def bose_occupation(x: float) -> float:
    """1/(exp(x)-1) for x > 0, stable for both tiny and huge arguments.

    Underflows to exact 0.0 once exp(-x) does, so zero-temperature limits
    are exact.
    """
    t = math.exp(-x)
    if t == 0.0:
        return 0.0
    return t / (-math.expm1(-x))


def _per_element(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """f of every entry of x, one Python float at a time."""
    return np.array([f(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def mode_coefficients(p_sq, a: float, beta: float = math.inf) -> ModeCoefficients:
    """All coefficients at the squared momenta ``p_sq`` (a float or an array).

    * eps = sqrt(p_sq^2 + 16*pi*a*p_sq), the quasi-particle energy (p_sq at
      a = 0);
    * mu^2 = (p_sq + 8*pi*a - eps) / (2*eps), the quantum-depletion weight,
      with the numerator rationalized to 64*pi^2*a^2 / (p_sq + 8*pi*a + eps):
      no catastrophic cancellation at large momenta, and exactly
      non-negative;
    * nu = -log(1 + 16*pi*a/p_sq)/4, the rotation angle of the
      diagonalizing transformation;
    * theta^2 = (p_sq + 8*pi*a) n, divided by eps in convention B, with n the
      Bose factor ``bose_occupation(beta*eps)``;
    * the anomalous-pair coefficient, negative for a > 0, equal in both
      conventions at T = 0: A: -4*pi*a * (1/eps + 2n),
      B: -(4*pi*a/eps) * (1 + 2n).

    ``beta = inf`` is zero temperature; a negative or NaN ``a`` and a
    non-positive or NaN ``beta`` are refused.  Arithmetic and square roots
    act on whole columns, where numpy rounds exactly as Python floats do;
    exp, expm1 and log1p go through ``math`` one entry at a time, because
    numpy's versions differ from it in the last bit on some arguments.
    """
    if not a >= 0:
        raise ValueError(f"scattering length must be non-negative, got {a!r}")
    if not beta > 0:
        raise ValueError(f"inverse temperature must be positive, got {beta!r}")
    p_sq = np.asarray(p_sq, dtype=float)
    eps = np.sqrt(p_sq * (p_sq + 16.0 * math.pi * a))
    fourpia = 4.0 * math.pi * a
    mu = 2.0 * fourpia * fourpia / (eps * (p_sq + 8.0 * math.pi * a + eps))
    nu = -0.25 * _per_element(math.log1p, 16.0 * math.pi * a / p_sq)
    occ = _per_element(lambda e: bose_occupation(beta * e), eps)
    theta_a = (p_sq + 8.0 * math.pi * a) * occ
    return ModeCoefficients(
        p_sq=p_sq,
        eps=eps,
        mu_sq=mu,
        theta_sq_A=theta_a,
        theta_sq_B=theta_a / eps,
        nu=nu,
        pairing_A=-4.0 * math.pi * a * (1.0 / eps + 2.0 * occ),
        pairing_B=-(4.0 * math.pi * a / eps) * (1.0 + 2.0 * occ),
    )


def depletion_sums(coefficients: ModeCoefficients, variant: Variant,
                   max_norm_sq: int) -> dict[str, SumResult]:
    """Lattice sums of mu^2 and theta^2 up to the cutoff, with tail bounds.

    ``coefficients`` holds the columns at the ``p_sq`` of
    ``shell_table(max_norm_sq)``.  mu^2 decays like |n|^(-4) (tail exponent
    2); theta^2 decays exponentially, for which the same power-law envelope
    estimated from the outermost shell is a valid (very conservative) model.
    """
    return {
        "sum_mu": shell_sum(coefficients.mu_sq, max_norm_sq, tail_exponent=2.0),
        "sum_theta": shell_sum(coefficients.theta_sq(variant), max_norm_sq, tail_exponent=2.0),
    }
