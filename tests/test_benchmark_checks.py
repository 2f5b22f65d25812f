"""The benchmark's own output checks pass on this tree, on every case it runs.

``perfbench/checks.py`` compares every op's outputs with the values
recorded in ``perfbench/reference.json`` (1e-9 relative, 1e-6 downstream
of a solver) and requires each payload's keys to match exactly.  A payload
that drifts past those tolerances or gains a key fails every benchmark op,
yet ``tests/digests.json`` can simply be re-recorded.  So every case of
every workload runs here through ``cli.main`` and is checked as the
benchmark checks it: the first case of each workload, then the others.
The perfbench files are only read.
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


CHECKS, WORKLOADS = load("checks"), load("workloads")
LATER_CASES = [
    pytest.param(workload, index, id=f"{workload}-{case['id']}")
    for workload, spec in WORKLOADS.WORKLOADS.items()
    for index, case in enumerate(spec["cases"])
    if index > 0
]


def assert_case_passes(workload, index, tmp_path):
    spec = WORKLOADS.WORKLOADS[workload]
    case = spec["cases"][index]
    out = tmp_path / WORKLOADS.OUT
    codes = [main([str(out) if arg == WORKLOADS.OUT else arg for arg in argv])
             for argv in case["argvs"]]
    reference = CHECKS.load_reference()[workload][case["id"]]
    assert CHECKS.check_op(spec, out, codes, reference) == []


@pytest.mark.parametrize("workload", list(WORKLOADS.WORKLOADS))
def test_first_case_passes_the_benchmark_checks(workload, tmp_path):
    assert_case_passes(workload, 0, tmp_path)


@pytest.mark.parametrize("workload, index", LATER_CASES)
def test_later_cases_pass_the_benchmark_checks(workload, index, tmp_path):
    assert_case_passes(workload, index, tmp_path)
