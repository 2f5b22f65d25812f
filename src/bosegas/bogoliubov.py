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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .lattice import SumResult, lattice_sum

__all__ = [
    "Variant",
    "ThermalConfig",
    "ModeCoefficients",
    "dispersion",
    "mu_sq",
    "nu_coefficient",
    "bose_occupation",
    "theta_sq",
    "pairing_coeff",
    "mode_coefficients",
    "depletion_sums",
    "COEFFICIENT_CSV_HEADER",
]


class Variant(str, enum.Enum):
    """Thermal-coefficient convention (see module docstring)."""

    A = "A"
    B = "B"


@dataclass(frozen=True)
class ThermalConfig:
    """Scattering length, inverse temperature and coefficient convention."""

    a: float
    beta: float
    variant: Variant = Variant.B

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("scattering length must be non-negative")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError("inverse temperature must be positive and finite")


def dispersion(p_sq: float, a: float) -> float:
    """Quasi-particle energy sqrt(p_sq^2 + 16*pi*a*p_sq); equals p_sq at a = 0."""
    return math.sqrt(p_sq * (p_sq + 16.0 * math.pi * a))


def mu_sq(p_sq: float, a: float) -> float:
    """Quantum-depletion weight (p_sq + 8*pi*a - eps) / (2*eps), evaluated cancellation-free.

    The numerator is rationalized to 64*pi^2*a^2 / (p_sq + 8*pi*a + eps),
    which avoids the catastrophic cancellation of the direct form at large
    momenta and keeps the value exactly non-negative.
    """
    eps = dispersion(p_sq, a)
    fourpia = 4.0 * math.pi * a
    return 2.0 * fourpia * fourpia / (eps * (p_sq + 8.0 * math.pi * a + eps))


def nu_coefficient(p_sq: float, a: float) -> float:
    """Rotation angle -log(1 + 16*pi*a/p_sq)/4 of the diagonalizing transformation."""
    return -0.25 * math.log1p(16.0 * math.pi * a / p_sq)


def bose_occupation(x: float) -> float:
    """1/(exp(x)-1) for x > 0, stable for both tiny and huge arguments.

    Underflows to exact 0.0 once exp(-x) does, so zero-temperature limits
    are exact.
    """
    t = math.exp(-x)
    if t == 0.0:
        return 0.0
    return t / (-math.expm1(-x))


def theta_sq(p_sq: float, a: float, beta: float, variant: Variant) -> float:
    """Thermal occupation weight in the requested convention."""
    eps = dispersion(p_sq, a)
    occ = bose_occupation(beta * eps)
    value = (p_sq + 8.0 * math.pi * a) * occ
    if Variant(variant) is Variant.B:
        value /= eps
    return value


def pairing_coeff(p_sq: float, a: float, beta: float, variant: Variant) -> float:
    """Anomalous-pair coefficient; negative for a > 0, both conventions meet at T=0.

    A: -4*pi*a * (1/eps + 2/(exp(beta*eps)-1))
    B: -(4*pi*a/eps) * (1 + 2/(exp(beta*eps)-1))
    """
    eps = dispersion(p_sq, a)
    occ = bose_occupation(beta * eps)
    if Variant(variant) is Variant.A:
        return -4.0 * math.pi * a * (1.0 / eps + 2.0 * occ)
    return -(4.0 * math.pi * a / eps) * (1.0 + 2.0 * occ)


@dataclass(frozen=True)
class ModeCoefficients:
    """All coefficients of a mode, evaluated at its squared momentum."""

    p_sq: float
    eps: float
    mu_sq: float
    theta_sq_A: float
    theta_sq_B: float
    nu: float
    pairing_A: float
    pairing_B: float


def mode_coefficients(p_sq: float, a: float, beta: float) -> ModeCoefficients:
    return ModeCoefficients(
        p_sq=p_sq,
        eps=dispersion(p_sq, a),
        mu_sq=mu_sq(p_sq, a),
        theta_sq_A=theta_sq(p_sq, a, beta, Variant.A),
        theta_sq_B=theta_sq(p_sq, a, beta, Variant.B),
        nu=nu_coefficient(p_sq, a),
        pairing_A=pairing_coeff(p_sq, a, beta, Variant.A),
        pairing_B=pairing_coeff(p_sq, a, beta, Variant.B),
    )


COEFFICIENT_CSV_HEADER = "norm_sq,eps,mu_sq,theta_sq_A,theta_sq_B,nu,pairing_A,pairing_B"


def depletion_sums(cfg: ThermalConfig, max_norm_sq: int) -> dict[str, SumResult]:
    """Lattice sums of mu^2 and theta^2 up to the cutoff, with tail bounds.

    mu^2 decays like |n|^(-4) (tail exponent 2); theta^2 decays
    exponentially, for which the same power-law envelope estimated from the
    outermost shell is a valid (very conservative) model.
    """
    if max_norm_sq < 1:
        raise ValueError("cutoff must be >= 1")
    sum_mu = lattice_sum(lambda p_sq: mu_sq(p_sq, cfg.a), max_norm_sq, tail_exponent=2.0)
    sum_theta = lattice_sum(
        lambda p_sq: theta_sq(p_sq, cfg.a, cfg.beta, cfg.variant),
        max_norm_sq,
        tail_exponent=2.0,
    )
    return {"sum_mu": sum_mu, "sum_theta": sum_theta}
