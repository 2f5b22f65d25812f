import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest

from bosegas import __version__
from bosegas.bogoliubov import Variant, mode_coefficients
from bosegas.cli import main
from bosegas.density import (
    build_rho1,
    build_rho2,
    dm2_min_eigenvalue,
    dm_trace_norm_diff,
)
from bosegas.errors import ModelValidityError
from bosegas.lattice import TWO_PI, shell_table


def model(build, a, beta, variant, N, cutoff):
    """``build`` on the coefficient columns at the shells up to ``cutoff``."""
    return build(mode_coefficients(shell_table(cutoff)[2], a, beta), variant, N, cutoff)


# scattering length, inverse temperature and convention
CFG = (1.0, 1.0, Variant.B)


def test_rho1_trace_is_exactly_N():
    for N in (100, 10**6):
        dm = model(build_rho1, *CFG, N, cutoff=50)
        assert dm.trace() == float(N)
        per_mode = np.repeat(dm.excited_weights, dm.multiplicity)
        assert dm.condensate_weight + math.fsum(per_mode.tolist()) == pytest.approx(N, rel=0)


def test_rho2_trace_is_exactly_N():
    dm = model(build_rho2, *CFG, 10**6, cutoff=50)
    assert dm.trace() == float(10**6)


def test_pure_condensate_limit():
    cfg = (0.0, 1e3, Variant.B)
    dm = model(build_rho1, *cfg, 500, cutoff=20)
    assert dm.condensate_weight == 500.0
    assert np.all(dm.excited_weights == 0.0)


def test_zero_temperature_weights_reduce_to_quantum_depletion():
    cfg = (1.0, 1e3, Variant.B)
    dm = model(build_rho1, *cfg, 10**6, cutoff=30)
    expected = mode_coefficients(TWO_PI * TWO_PI * dm.norm_sq, 1.0).mu_sq
    assert np.max(np.abs(dm.excited_weights - expected)) <= 1e-30


def test_positive_weights_at_positive_temperature():
    dm = model(build_rho1, 0.5, 0.01, Variant.A, 10**6, cutoff=20)
    assert np.all(dm.excited_weights > 0.0)


def test_validity_guard_raises_structured_error():
    cfg = (10.0, 0.5, Variant.B)
    with pytest.raises(ModelValidityError):
        model(build_rho1, *cfg, 1, cutoff=100)
    with pytest.raises(ModelValidityError):
        model(build_rho2, *cfg, 8, cutoff=100)


def test_rho2_weights_and_pairing_structure():
    dm2 = model(build_rho2, *CFG, 10**6, cutoff=30)
    dm1 = model(build_rho1, *CFG, 10**6, cutoff=30)
    assert np.allclose(dm2.excited_weights, 4.0 * dm1.excited_weights, rtol=1e-14)
    assert np.all(dm2.pairing < 0.0)


def test_rho2_pairing_zero_temperature_limit():
    for variant in Variant:
        cfg = (1.0, 1e3, variant)
        dm = model(build_rho2, *cfg, 10**6, cutoff=20)
        expected = -4.0 * math.pi * 1.0 / mode_coefficients(TWO_PI * TWO_PI * dm.norm_sq, 1.0).eps
        assert np.max(np.abs(dm.pairing / expected - 1.0)) < 1e-6


def test_rho2_free_gas_has_no_pairing():
    cfg = (0.0, 0.05, Variant.B)
    dm = model(build_rho2, *cfg, 10**6, cutoff=10)
    assert np.all(dm.pairing == 0.0)


class TestTraceNormDiff:
    def test_identical_models_have_zero_distance(self):
        x = model(build_rho1, *CFG, 1000, cutoff=20)
        assert dm_trace_norm_diff(x, x) == 0.0

    def test_dm1_distance_is_sum_of_weight_gaps(self):
        x = model(build_rho1, *CFG, 10**6, cutoff=20)
        y = model(build_rho1, 1.0, 2.0, Variant.B, 10**6, cutoff=20)
        direct = abs(x.condensate_weight - y.condensate_weight) + float(
            np.sum(x.multiplicity * np.abs(x.excited_weights - y.excited_weights))
        )
        assert dm_trace_norm_diff(x, y) == pytest.approx(direct, rel=1e-14)

    def test_pairing_block_counts_twice_per_pair(self):
        x = model(build_rho2, *CFG, 10**6, cutoff=4)
        delta = 1e-3
        pairing = x.pairing.copy()
        # perturb the blocks of shell 1: its 6 modes are 3 +-p pairs, each
        # with two ordered legs
        assert x.norm_sq[0] == 1 and x.multiplicity[0] == 6
        pairing[0] += delta
        y = dataclasses.replace(x, pairing=pairing)
        assert dm_trace_norm_diff(x, y) == pytest.approx(3 * 2.0 * delta, rel=1e-12)

    def test_metric_axioms_on_sample_triples(self):
        cfgs = [
            (1.0, b, Variant.B) for b in (0.5, 1.0, 2.0)
        ]
        dms = [model(build_rho2, *c, 10**6, cutoff=10) for c in cfgs]
        d01 = dm_trace_norm_diff(dms[0], dms[1])
        d12 = dm_trace_norm_diff(dms[1], dms[2])
        d02 = dm_trace_norm_diff(dms[0], dms[2])
        assert d01 == dm_trace_norm_diff(dms[1], dms[0])
        assert d02 <= d01 + d12 + 1e-12
        assert d01 > 0.0

    def test_shape_mismatch_rejected(self):
        x = model(build_rho1, *CFG, 1000, cutoff=10)
        y = model(build_rho1, *CFG, 1000, cutoff=20)
        with pytest.raises(ValueError):
            dm_trace_norm_diff(x, y)
        z = model(build_rho2, *CFG, 1000, cutoff=10)
        with pytest.raises(ValueError):
            dm_trace_norm_diff(x, z)


class TestMinEigenvalue:
    def test_free_gas_model_is_positive(self):
        cfg = (0.0, 0.05, Variant.B)
        dm = model(build_rho2, *cfg, 10**6, cutoff=10)
        assert dm2_min_eigenvalue(dm) >= 0.0

    def test_no_pairing_reduces_to_diagonal_minimum(self):
        dm = model(build_rho2, *CFG, 10**6, cutoff=10)
        flat = dataclasses.replace(dm, pairing=np.zeros_like(dm.pairing))
        expected = min(flat.condensate_weight, float(np.min(flat.excited_weights)), 0.0)
        assert dm2_min_eigenvalue(flat) == pytest.approx(expected)

    def test_closed_form_matches_dense_arrow_matrix(self):
        dm = model(build_rho2, *CFG, 1000, cutoff=4)
        pairing = np.repeat(dm.pairing, dm.multiplicity)  # one entry per mode
        m = len(pairing)
        arrow = np.zeros((m + 1, m + 1))
        arrow[0, 0] = dm.condensate_weight
        arrow[0, 1:] = pairing
        arrow[1:, 0] = pairing
        dense_min = float(np.linalg.eigvalsh(arrow).min())
        expected = min(dense_min, float(np.min(dm.excited_weights)))
        assert dm2_min_eigenvalue(dm) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("N", [100, 10**4, 10**6])
    def test_arrow_minimum_matches_50_digit_reference(self, N):
        # the arrow eigenvalue (w00 - sqrt(w00^2 + 4 sum c^2))/2 of the model's
        # own float entries; its difference form loses up to ~1e-2 relative
        # at N = 10^6, cutoff 1,000
        for a in (0.02, 0.05, 0.1, 0.2):
            for beta in (0.5, 2.0):
                dm = model(build_rho2, a, beta, Variant.B, N, cutoff=1000)
                with mpmath.workdps(50):
                    c_sq = mpmath.fsum(
                        m * mpmath.mpf(c) ** 2
                        for m, c in zip(dm.multiplicity.tolist(), dm.pairing.tolist())
                    )
                    w00 = mpmath.mpf(dm.condensate_weight)
                    exact = (w00 - mpmath.sqrt(w00 * w00 + 4 * c_sq)) / 2
                    assert abs(dm2_min_eigenvalue(dm) / exact - 1) <= 1e-15

    def test_negativity_shrinks_with_particle_number(self):
        small = dm2_min_eigenvalue(model(build_rho2, *CFG, 100, cutoff=10))
        large = dm2_min_eigenvalue(model(build_rho2, *CFG, 10**6, cutoff=10))
        assert small < 0.0
        assert abs(large) < abs(small)


def test_builders_refuse_coefficients_of_other_shells():
    coefficients = mode_coefficients(shell_table(20)[2], 1.0, 1.0)
    for build in (build_rho1, build_rho2):
        with pytest.raises(ValueError, match="shells given for the"):
            build(coefficients, Variant.B, 1000, 10)


def test_json_serialization_shape(tmp_path):
    assert main(["rho", "--output-dir", str(tmp_path), "--set", "a_override=1.0",
                 "--set", "beta=1.0", "--set", "N=1000", "--set", "cutoff_norm_sq=3"]) == 0
    payload = json.loads((tmp_path / "dm2_B.json").read_text())
    assert payload["N"] == 1000
    assert payload["variant"] == "B"
    assert {row["norm_sq"] for row in payload["modes"]} == {1, 2, 3}
    row = payload["modes"][0]
    assert set(row) == {"norm_sq", "multiplicity", "weight", "pairing"}
    payload1 = json.loads((tmp_path / "dm1_B.json").read_text())
    assert "pairing" not in payload1["modes"][0]
    assert payload1["provenance"]["version"] == __version__
    assert payload1["provenance"]["config"]["N"] == 1000
