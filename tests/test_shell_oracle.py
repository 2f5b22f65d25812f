"""The per-mode path as the reference for the shell-indexed core.

Lattice sums, density models and correlation kernels evaluate their
summands once per shell of equal |n|^2.  The reference below visits every
explicit mode of ``modes_up_to``, as the package did before, and counts
multiplicities by a brute-force triple loop.  Shell-weighted sums are exact
rearrangements of the per-mode ones, and a kernel takes the same transform
at the same k for every mode of a shell, so every comparison is bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosegas.bogoliubov import (
    ThermalConfig,
    Variant,
    depletion_sums,
    mu_sq,
    nu_coefficient,
    pairing_coeff,
    theta_sq,
)
from bosegas.density import build_rho1, build_rho2, dm2_min_eigenvalue, dm_trace_norm_diff
from bosegas.lattice import enumerate_shells, modes_up_to, shell_table
from bosegas.scattering import (
    RadialPotential,
    _radial_transform,
    default_r_max,
    kernel_table,
    solve_neumann,
    solve_scattering,
)


def brute_r3(limit):
    """r3(j) for 0 <= j <= limit by the triple loop over the cube."""
    m = math.isqrt(limit)
    counts = [0] * (limit + 1)
    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            base = a * a + b * b
            if base > limit:
                continue
            for c in range(-m, m + 1):
                if base + c * c <= limit:
                    counts[base + c * c] += 1
    return counts


def per_mode_tail_norm_bound(cutoff, s):
    switch = max(cutoff, 64)
    counts = brute_r3(switch)
    exact = math.fsum(
        counts[j] * j ** (-s) for j in range(cutoff + 1, switch + 1) if counts[j]
    )
    t0 = math.sqrt(switch) - math.sqrt(3.0)
    geometry = (1.0 + math.sqrt(3.0) / (2.0 * t0)) ** 2
    return exact + geometry * 4.0 * math.pi * t0 ** (3.0 - 2.0 * s) / (2.0 * s - 3.0)


def per_mode_lattice_sum(f, cutoff, s=2.0):
    """(value, tail bound): shell-ordered fsum over every mode's f(p_sq)."""
    shells = enumerate_shells(cutoff)
    value = math.fsum(math.fsum(f(m.p_sq) for m in shell.members) for shell in shells)
    outer = shells[-1]
    c_tail = max(abs(f(m.p_sq)) for m in outer.members) * outer.norm_sq**s
    return value, c_tail * per_mode_tail_norm_bound(cutoff, s)


def per_mode_model(cfg, N, cutoff, factor):
    """Per-mode weights, pairing and condensate weight of the rho1/rho2 models."""
    modes = modes_up_to(cutoff)
    weights = [
        factor * (mu_sq(m.p_sq, cfg.a) + theta_sq(m.p_sq, cfg.a, cfg.beta, cfg.variant))
        for m in modes
    ]
    pairing = [pairing_coeff(m.p_sq, cfg.a, cfg.beta, cfg.variant) for m in modes]
    return weights, pairing, N - math.fsum(weights)


def per_mode_kernel_csv(scattering, neumann, N, cutoff):
    """kernels.csv from one transform call per mode's k, keeping the first
    mode of each shell, in ascending |n|^2."""
    w_hat = _radial_transform(neumann.potential, 1.0, -1.0, neumann)
    vf_hat = _radial_transform(neumann.potential, 0.0, 1.0, neumann, times_v=True)
    rows = {}
    for m in modes_up_to(cutoff):
        k = math.sqrt(m.p_sq) / N
        eta = -w_hat(k)[0] / (N * N)
        tau = -0.25 * math.log1p(2.0 * vf_hat(k)[0] / m.p_sq) - eta
        nu = nu_coefficient(m.p_sq, scattering.a)
        rows.setdefault(m.norm_sq, (math.sqrt(m.p_sq), eta, tau, nu))
    lines = ["norm_sq,p_abs,eta,tau,nu"]
    for norm_sq in sorted(rows):
        p_abs, eta, tau, nu = rows[norm_sq]
        lines.append(f"{norm_sq},{p_abs!r},{eta!r},{tau!r},{nu!r}")
    return "\n".join(lines) + "\n"


cutoffs = st.integers(min_value=1, max_value=400)
scattering_lengths = st.floats(min_value=0.0, max_value=3.0)
# wide enough that the Bose factor of some shells is subnormal or 0
betas = st.floats(min_value=0.05, max_value=200.0)
variants = st.sampled_from(list(Variant))


@given(cutoff=cutoffs)
@settings(max_examples=30, deadline=None)
def test_shell_table_equals_brute_force_triple_count(cutoff):
    counts = brute_r3(cutoff)
    norm_sq, multiplicity, _ = shell_table(cutoff)
    expected = [j for j in range(1, cutoff + 1) if counts[j]]
    assert norm_sq.tolist() == expected
    assert multiplicity.tolist() == [counts[j] for j in expected]


@given(cutoff=cutoffs, a=scattering_lengths, beta=betas, variant=variants)
@settings(max_examples=20, deadline=None)
def test_depletion_sums_bit_equal_per_mode_reference(cutoff, a, beta, variant):
    cfg = ThermalConfig(a=a, beta=beta, variant=variant)
    sums = depletion_sums(cfg, cutoff)
    references = {
        "sum_mu": per_mode_lattice_sum(lambda p_sq: mu_sq(p_sq, a), cutoff),
        "sum_theta": per_mode_lattice_sum(
            lambda p_sq: theta_sq(p_sq, a, beta, variant), cutoff
        ),
    }
    for key, (value, tail_bound) in references.items():
        assert sums[key].value == value, key
        assert sums[key].tail_bound == tail_bound, key


@given(
    cutoff=cutoffs,
    a=scattering_lengths,
    beta=betas,
    # large enough that the depletion at beta = 0.05, a = 3 stays below N
    N=st.integers(min_value=10**8, max_value=10**12),
)
@settings(max_examples=20, deadline=None)
def test_density_models_bit_equal_per_mode_reference(cutoff, a, beta, N):
    built = {}
    for variant in Variant:
        cfg = ThermalConfig(a=a, beta=beta, variant=variant)
        for name, build, factor in (("dm1", build_rho1, 1.0), ("dm2", build_rho2, 4.0)):
            weights, pairing, condensate = per_mode_model(cfg, N, cutoff, factor)
            dm = build(cfg, N, cutoff)
            assert dm.condensate_weight == condensate
            assert dm.trace() == math.fsum([condensate, *weights])
            built[name, variant] = (dm, weights, pairing, condensate)

    for name in ("dm1", "dm2"):
        x, wx, px, cx = built[name, Variant.A]
        y, wy, py, cy = built[name, Variant.B]
        parts = [abs(cx - cy), *(abs(u - v) for u, v in zip(wx, wy))]
        if name == "dm2":
            parts.extend(abs(u - v) for u, v in zip(px, py))
        assert dm_trace_norm_diff(x, y) == math.fsum(parts)

    dm, weights, pairing, condensate = built["dm2", Variant.B]
    c = np.array(pairing)
    arrow_min = 0.5 * (condensate - math.sqrt(condensate * condensate + 4.0 * float(np.dot(c, c))))
    assert dm2_min_eigenvalue(dm) == min(arrow_min, min(weights), 0.0)


@pytest.mark.parametrize("potential", [
    RadialPotential.soft_sphere(100.0, 0.5),
    RadialPotential.tabulated(np.linspace(0.0, 0.6, 7),
                              [80.0, 60.0, 75.0, 30.0, 45.0, 10.0, 20.0]),
], ids=["soft_sphere", "tabulated"])
def test_kernel_table_bit_equal_per_mode_reference(potential):
    # the same k goes through the same transform, once per mode or once per shell
    N, ell, cutoff = 100, 0.495, 50
    scattering = solve_scattering(potential, r_max=default_r_max(potential), tol=1e-10)
    neumann = solve_neumann(potential, R=N * ell, tol=1e-10)
    table = kernel_table(potential, N=N, ell=ell, cutoff_norm_sq=cutoff,
                         scattering=scattering, neumann=neumann)
    assert table.to_csv() == per_mode_kernel_csv(scattering, neumann, N, cutoff)
