"""The traced benchmark wraps package functions by name; every name must resolve.

``perfbench/child.py`` replaces each ``(module, attribute)`` of its
``WRAPPED`` list with a timing wrapper when an op runs with ``--trace 1``.
A refactor that renames or stops importing one of them would break traced
runs only, so this guards them in the ordinary test run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from bosegas.fock import build_basis, build_LN
from bosegas.lattice import enumerate_shells, modes_up_to, shell_modes
from sparse_reference import csr

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_every_wrapped_name_resolves():
    wrapped = load_child().WRAPPED
    assert wrapped
    missing = [
        (module, attr)
        for module, attr, _ in wrapped
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_record_counts_the_real_results():
    # ``Tracer.record`` reads len() of modes_up_to and build_basis, the
    # multiplicities of enumerate_shells and the nnz of build_LN's matrix;
    # a change to those types would break only traced benchmark runs
    Tracer = load_child().Tracer

    shells = Tracer(0)
    shells.record("lattice.enumerate_shells", enumerate_shells(2))
    assert shells.counts == {"lattice.shells": 2, "lattice.modes": 6 + 12}

    modes = Tracer(0)
    modes.record("lattice.modes_up_to", modes_up_to(2))
    assert modes.counts == {"lattice.modes": 6 + 12}

    fock = Tracer(0)
    basis = build_basis(shell_modes([1]), 2)
    fock.record("fock.build_basis", basis)
    ln = build_LN(basis, 16, np.ones_like)
    fock.record("fock.build_LN", ln)
    assert fock.counts == {"fock.basis_states": 28, "fock.ln_nnz": csr(ln).nnz}  # C(8, 6) states
    assert fock.counts["fock.ln_nnz"] > len(basis)  # the pair and quartic terms are counted
