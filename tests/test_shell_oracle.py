"""The per-mode path as the reference for the shell-indexed core.

Lattice sums, coefficients, density models and correlation kernels
evaluate their summands once per shell of equal |n|^2, as numpy columns.
The reference below visits every explicit mode of ``modes_up_to``, as the
package did before, with scalar ``math`` formulas for the coefficients, and
counts multiplicities by a brute-force triple loop; its density-matrix JSON
goes through ``json.dumps`` as row dicts.  Shell-weighted sums are exact
rearrangements of the per-mode ones, a column operation rounds as the
scalar one does, and a kernel takes the same transform at the same k for
every mode of a shell, so every comparison is bit for bit.
"""

import collections
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bosegas import __version__
from bosegas.bogoliubov import Variant, depletion_sums, mode_coefficients
from bosegas.cli import _json_text, main
from bosegas.density import (
    SecondOrderDM1,
    SecondOrderDM2,
    build_rho1,
    build_rho2,
    dm2_min_eigenvalue,
    dm_trace_norm_diff,
)
from bosegas.lattice import enumerate_shells, modes_up_to, shell_table
from bosegas.scattering import (
    RadialPotential,
    _radial_transform,
    default_r_max,
    nu_coefficients,
    solve_neumann,
    solve_scattering,
)


# ---------------------------------------------------------------------------
# reference: scalar coefficients, one squared momentum at a time
# ---------------------------------------------------------------------------

# the scattering length, inverse temperature and convention the references read
Thermal = collections.namedtuple("Thermal", "a beta variant")


def ref_dispersion(p_sq, a):
    return math.sqrt(p_sq * (p_sq + 16.0 * math.pi * a))


def ref_mu_sq(p_sq, a):
    eps = ref_dispersion(p_sq, a)
    fourpia = 4.0 * math.pi * a
    return 2.0 * fourpia * fourpia / (eps * (p_sq + 8.0 * math.pi * a + eps))


def ref_nu(p_sq, a):
    return -0.25 * math.log1p(16.0 * math.pi * a / p_sq)


def ref_bose_occupation(x):
    t = math.exp(-x)
    if t == 0.0:
        return 0.0
    return t / (-math.expm1(-x))


def ref_theta_sq(p_sq, a, beta, variant):
    eps = ref_dispersion(p_sq, a)
    value = (p_sq + 8.0 * math.pi * a) * ref_bose_occupation(beta * eps)
    if Variant(variant) is Variant.B:
        value /= eps
    return value


def ref_pairing(p_sq, a, beta, variant):
    eps = ref_dispersion(p_sq, a)
    occ = ref_bose_occupation(beta * eps)
    if Variant(variant) is Variant.A:
        return -4.0 * math.pi * a * (1.0 / eps + 2.0 * occ)
    return -(4.0 * math.pi * a / eps) * (1.0 + 2.0 * occ)


def ref_mode_coefficients(p_sq, a, beta):
    """The eight coefficients.csv values of one squared momentum, as floats."""
    return (
        p_sq,
        ref_dispersion(p_sq, a),
        ref_mu_sq(p_sq, a),
        ref_theta_sq(p_sq, a, beta, Variant.A),
        ref_theta_sq(p_sq, a, beta, Variant.B),
        ref_nu(p_sq, a),
        ref_pairing(p_sq, a, beta, Variant.A),
        ref_pairing(p_sq, a, beta, Variant.B),
    )


def ref_excited_weights(cfg, p_sq):
    """mu^2 + theta^2 per shell."""
    return np.array([ref_mu_sq(p, cfg.a) + ref_theta_sq(p, cfg.a, cfg.beta, cfg.variant)
                     for p in p_sq.tolist()])


def ref_dm_json(dm, pairing, provenance, trace):
    """The density-matrix JSON with one dict per row, all through json.dumps."""
    columns = dict(norm_sq=dm.norm_sq, multiplicity=dm.multiplicity, weight=dm.excited_weights)
    if pairing is not None:
        columns["pairing"] = pairing
    rows = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
    payload = {
        "N": dm.N,
        "cutoff": dm.cutoff,
        "variant": dm.variant.value,
        "condensate": float(dm.condensate_weight),
        "trace": trace,
        "modes": rows,
    }
    if provenance is not None:
        payload["provenance"] = provenance
    return json.dumps(payload, indent=2, sort_keys=True)


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
    """(value, tail bound): one exactly rounded fsum over every mode's f(p_sq)."""
    shells = enumerate_shells(cutoff)
    value = math.fsum(f(m.p_sq) for shell in shells for m in shell.members)
    outer = shells[-1]
    c_tail = max(abs(f(m.p_sq)) for m in outer.members) * outer.norm_sq**s
    return value, c_tail * per_mode_tail_norm_bound(cutoff, s)


def per_mode_model(cfg, N, cutoff, factor):
    """Per-mode weights, pairing and condensate weight of the rho1/rho2 models."""
    modes = modes_up_to(cutoff)
    weights = [
        factor * (ref_mu_sq(m.p_sq, cfg.a) + ref_theta_sq(m.p_sq, cfg.a, cfg.beta, cfg.variant))
        for m in modes
    ]
    pairing = [ref_pairing(m.p_sq, cfg.a, cfg.beta, cfg.variant) for m in modes]
    return weights, pairing, N - math.fsum(weights)


def ref_arrow_min(condensate, pairing):
    """Smaller nonzero eigenvalue of the arrow block, from the per-mode pairing.

    -2 C / (w00 + sqrt(w00^2 + 4 C)), C = sum c^2 exactly rounded: the
    difference (w00 - sqrt(w00^2 + 4 C))/2 cancels.
    """
    c_sq = math.fsum(c * c for c in pairing)
    return -2.0 * c_sq / (condensate + math.sqrt(condensate * condensate + 4.0 * c_sq))


def per_mode_kernel_csv(scattering, neumann, N, cutoff):
    """kernels.csv from one transform call per mode's k, keeping the first
    mode of each shell, in ascending |n|^2."""
    w_hat = _radial_transform(neumann.potential, 1.0, -1.0, neumann)
    vf_hat = _radial_transform(neumann.potential, 0.0, 1.0, neumann, times_v=True)
    rows = {}
    for m in modes_up_to(cutoff):
        k = math.sqrt(m.p_sq) / N
        eta = -float(w_hat(np.array([k]))[0][0]) / (N * N)
        tau = -0.25 * math.log1p(2.0 * float(vf_hat(np.array([k]))[0][0]) / m.p_sq) - eta
        nu = ref_nu(m.p_sq, scattering.a)
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
    sums = depletion_sums(mode_coefficients(shell_table(cutoff)[2], a, beta), variant, cutoff)
    references = {
        "sum_mu": per_mode_lattice_sum(lambda p_sq: ref_mu_sq(p_sq, a), cutoff),
        "sum_theta": per_mode_lattice_sum(
            lambda p_sq: ref_theta_sq(p_sq, a, beta, variant), cutoff
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
    coefficients = mode_coefficients(shell_table(cutoff)[2], a, beta)
    for variant in Variant:
        cfg = Thermal(a, beta, variant)
        for name, build, factor in (("dm1", build_rho1, 1.0), ("dm2", build_rho2, 4.0)):
            weights, pairing, condensate = per_mode_model(cfg, N, cutoff, factor)
            dm = build(coefficients, variant, N, cutoff)
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
    assert dm2_min_eigenvalue(dm) == min(ref_arrow_min(condensate, pairing), min(weights), 0.0)


TABLE = {"grid": np.linspace(0.0, 0.6, 7).tolist(),
         "values": [80.0, 60.0, 75.0, 30.0, 45.0, 10.0, 20.0]}


@pytest.mark.parametrize("potential, spec", [
    (RadialPotential.soft_sphere(100.0, 0.5), {"kind": "soft_sphere", "v0": 100.0, "radius": 0.5}),
    (RadialPotential.tabulated(TABLE["grid"], TABLE["values"]), {"kind": "tabulated", **TABLE}),
], ids=["soft_sphere", "tabulated"])
def test_kernel_table_bit_equal_per_mode_reference(potential, spec, tmp_path):
    # the same k goes through the same transform, once per mode or once per shell;
    # N, ell, the tolerance and r_max are the config's defaults
    N, ell, cutoff = 100, 0.495, 50
    scattering = solve_scattering(potential, r_max=default_r_max(potential), tol=1e-10)
    neumann = solve_neumann(potential, R=N * ell, tol=1e-10)
    assert main(["scatter", "--output-dir", str(tmp_path), "--set", f"potential={json.dumps(spec)}",
                 "--set", f"cutoff_norm_sq={cutoff}"]) == 0
    lines = (tmp_path / "kernels.csv").read_text().splitlines(keepends=True)
    written = "".join(line for line in lines if not line.startswith("#"))
    assert written == per_mode_kernel_csv(scattering, neumann, N, cutoff)


@given(
    cutoff=st.integers(min_value=1, max_value=2000),
    a=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
    beta=st.one_of(st.sampled_from([1e-3, 50.0]), st.floats(min_value=1e-3, max_value=50.0)),
)
@example(cutoff=2000, a=1.0, beta=50.0)  # every outer occupation underflows to 0
@example(cutoff=2000, a=0.0, beta=1e-3)
@settings(max_examples=25, deadline=None)
def test_coefficient_columns_bit_equal_per_mode_reference(cutoff, a, beta):
    p_sq = shell_table(cutoff)[2]
    columns = mode_coefficients(p_sq, a, beta)
    reference = np.array([ref_mode_coefficients(p, a, beta) for p in p_sq.tolist()])
    for field, expected in zip(dataclasses.fields(columns), reference.T):
        assert getattr(columns, field.name).tobytes() == expected.tobytes(), field.name
    assert nu_coefficients(a, p_sq).tobytes() == reference[:, 5].tobytes()
    if beta == 50.0 and cutoff == 2000:
        assert reference[-1, 3] == 0.0


# finite entries stay below 1e200 so that the trace's exact sum cannot overflow
json_floats = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
    st.floats(min_value=-1e200, max_value=1e200),
)
provenances = st.one_of(
    st.none(),
    st.dictionaries(
        st.sampled_from(["modes", "config", "note"]),
        st.one_of(json_floats, st.text(),
                  st.dictionaries(st.sampled_from(["modes", "x"]), st.integers())),
        max_size=3,
    ),
)


@given(
    data=st.data(),
    size=st.integers(min_value=0, max_value=12),
    condensate=json_floats,
    provenance=provenances,
    two_particle=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_row_writer_is_json_dumps(data, size, condensate, provenance, two_particle):
    column = st.lists(json_floats, min_size=size, max_size=size).map(np.array)
    counts = st.lists(st.integers(0, 10**6), min_size=size, max_size=size)
    fields = dict(
        N=data.draw(st.integers(1, 10**9)),
        cutoff=data.draw(st.integers(1, 10**4)),
        variant=data.draw(st.sampled_from(list(Variant))),
        condensate_weight=condensate,
        norm_sq=np.array(data.draw(counts), dtype=np.int64),
        multiplicity=np.array(data.draw(counts), dtype=np.int64),
        excited_weights=data.draw(column),
    )
    if two_particle:
        dm = SecondOrderDM2(**fields, pairing=data.draw(column))
        pairing = dm.pairing
    else:
        dm, pairing = SecondOrderDM1(**fields), None
    with np.errstate(invalid="ignore"):  # the trace of non-finite entries is NaN
        trace = dm.trace()
    payload = {"N": dm.N, "cutoff": dm.cutoff, "variant": dm.variant.value,
               "condensate": float(dm.condensate_weight), "trace": trace}
    if provenance is not None:
        payload["provenance"] = provenance
    modes = {"norm_sq": dm.norm_sq, "multiplicity": dm.multiplicity, "weight": dm.excited_weights}
    if pairing is not None:
        modes["pairing"] = pairing
    assert _json_text(payload, modes) == ref_dm_json(dm, pairing, provenance, trace) + "\n"


def test_coeffs_and_rho_write_what_the_reference_renders(tmp_path):
    a, beta, N, cutoff = 0.0988, 0.7812, 100, 1000
    out = tmp_path / "out"
    sets = ["--set", f"a_override={a}", "--set", f"beta={beta}",
            "--set", f"cutoff_norm_sq={cutoff}", "--set", f"N={N}", "--output-dir", str(out)]
    assert main(["coeffs", *sets]) == 0
    config = json.loads((out / "provenance.json").read_text())["config"]
    assert main(["rho", *sets]) == 0
    provenance = {"config": config, "version": __version__}
    expected = {}

    lines = [f"# version: {__version__}", "# config: " + json.dumps(config, sort_keys=True),
             "norm_sq,eps,mu_sq,theta_sq_A,theta_sq_B,nu,pairing_A,pairing_B"]
    for shell in enumerate_shells(cutoff):
        _, *values = ref_mode_coefficients(shell.members[0].p_sq, a, beta)
        lines.append(",".join([str(shell.norm_sq), *map(repr, values)]))
    expected["coefficients.csv"] = "\n".join(lines) + "\n"

    depletion = {}
    summary = {"a": a, "beta": beta, "N": N, "cutoff_norm_sq": cutoff}
    models = {}
    norm_sq, multiplicity, p_sq = shell_table(cutoff)
    for variant in Variant:
        cfg = Thermal(a, beta, variant)
        depletion[variant.value] = {
            key: {"value": value, "tail_bound": bound, "cutoff_norm_sq": cutoff}
            for key, (value, bound) in (
                ("sum_mu", per_mode_lattice_sum(lambda p: ref_mu_sq(p, a), cutoff)),
                ("sum_theta", per_mode_lattice_sum(
                    lambda p: ref_theta_sq(p, a, beta, variant), cutoff)),
            )
        }
        shell_weights = ref_excited_weights(cfg, p_sq)
        shell_pairing = np.array([ref_pairing(p, a, beta, variant) for p in p_sq.tolist()])
        for name, factor in (("dm1", 1.0), ("dm2", 4.0)):
            weights, pairing, condensate = per_mode_model(cfg, N, cutoff, factor)
            trace = math.fsum([condensate, *weights])
            kind = SecondOrderDM2 if name == "dm2" else SecondOrderDM1
            extra = {"pairing": shell_pairing} if name == "dm2" else {}
            dm = kind(N=N, cutoff=cutoff, variant=variant, condensate_weight=condensate,
                      norm_sq=norm_sq, multiplicity=multiplicity,
                      excited_weights=factor * shell_weights, **extra)
            expected[f"{name}_{variant.value}.json"] = ref_dm_json(
                dm, extra.get("pairing"), provenance, trace) + "\n"
            summary[f"trace_{name}_{variant.value}"] = trace
            models[name, variant] = (weights, pairing, condensate)
        weights, pairing, condensate = models["dm2", variant]
        arrow_min = ref_arrow_min(condensate, pairing)
        summary[f"dm2_min_eigenvalue_{variant.value}"] = min(arrow_min, min(weights), 0.0)
    for name in ("dm1", "dm2"):
        wx, px, cx = models[name, Variant.A]
        wy, py, cy = models[name, Variant.B]
        parts = [abs(cx - cy), *(abs(u - v) for u, v in zip(wx, wy))]
        if name == "dm2":
            parts.extend(abs(u - v) for u, v in zip(px, py))
        summary[f"variant_distance_{name}"] = math.fsum(parts)

    for name, payload in (("depletion.json", {"a": a, "beta": beta, "cutoff_norm_sq": cutoff,
                                               "depletion": depletion}),
                          ("rho.json", summary)):
        payload["provenance"] = provenance
        expected[name] = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    for name, text in expected.items():
        assert (out / name).read_text() == text, name
