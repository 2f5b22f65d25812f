"""The benchmark's own output checks pass on this tree.

``perfbench/checks.py`` compares every op's outputs with the values
recorded in ``perfbench/reference.json`` (1e-9 relative, 1e-6 downstream
of a solver) and requires each payload's keys to match exactly.  A payload
that drifts past those tolerances or gains a key fails every benchmark op,
yet ``tests/digests.json`` can simply be re-recorded.  So one case of each
workload runs here through ``cli.main`` and is checked as the benchmark
checks it; the perfbench files are only read.
"""

import importlib.util
from pathlib import Path

import pytest

from bosegas.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["bundle", "lattice", "oracle"])
def test_first_case_passes_the_benchmark_checks(workload, tmp_path):
    checks, workloads = load("checks"), load("workloads")
    spec = workloads.WORKLOADS[workload]
    case = spec["cases"][0]
    out = tmp_path / workloads.OUT
    codes = [main([str(out) if arg == workloads.OUT else arg for arg in argv])
             for argv in case["argvs"]]
    reference = checks.load_reference()[workload][case["id"]]
    assert checks.check_op(spec, out, codes, reference) == []
