"""Numerical toolkit for the dilute Bose gas on the unit torus.

Explicit quasi-particle dispersion and depletion coefficients, structured
second-order models of the thermal one- and two-particle reduced density
matrices, the radial scattering/ball solvers producing the correlation
kernels, and a truncated Fock-space exact-diagonalization oracle that
verifies the closed-form trace identities and adjudicates the two thermal
coefficient conventions.
"""

__version__ = "0.1.0"

# first: it loads numpy at one BLAS thread unless the caller chose a count
from . import _blas  # noqa: F401
from .bogoliubov import (
    ModeCoefficients,
    Variant,
    bose_occupation,
    depletion_sums,
    mode_coefficients,
)
from .density import (
    SecondOrderDM1,
    SecondOrderDM2,
    build_rho1,
    build_rho2,
    dm2_min_eigenvalue,
    dm_trace_norm_diff,
)
from .fock import (
    FockBasis,
    HermitianOperator,
    build_basis,
    build_LN,
    expect,
    gibbs,
    ladder,
)
from .lattice import Mode, Shell, SumResult, enumerate_shells, modes_up_to
from .oracles import (
    AdjudicationReport,
    GibbsReport,
    adjudicate_variants,
    pairing_expectation,
    partition_product_check,
    rotated_number_expectation,
    squeezing_truncation_bound,
    toy_gibbs_experiment,
)
from .scattering import (
    KernelTable,
    NeumannSolution,
    RadialPotential,
    ScatteringSolution,
    energy_functional,
    eta_coefficients,
    kernel_identity_residuals,
    kernel_table,
    nu_coefficients,
    potential_fourier,
    solve_neumann,
    solve_scattering,
    tau_coefficients,
)
