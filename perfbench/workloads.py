"""The benchmark's workloads and its seeded per-op input generator.

A workload is a list of cases; each case is the ``bosegas.cli.main`` argv
list one op runs in a fresh interpreter.  Case parameters are drawn from
physical ranges that leave the work per op unchanged (same cutoff, cap, N
and ball radius), so every case of a workload costs the same.  The cases
are fixed here rather than drawn afresh per run because each one has a
recorded reference output in ``reference.json``; the seed picks which case
each op runs.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1
CASE_COUNT = 8

# Every op writes into ``out`` relative to its own working directory, so the
# output directory recorded in payloads is the same on every machine.
OUT = "out"


def _grid(lo: float, hi: float, i: int) -> float:
    """Midpoint of the i-th of CASE_COUNT equal slices of [lo, hi]."""
    return round(lo + (hi - lo) * (i + 0.5) / CASE_COUNT, 4)


def _lattice_case(i: int) -> dict:
    # a_override skips the scattering solve; beta is permuted against a so
    # that the cases cover the (a, beta) rectangle rather than its diagonal.
    a = _grid(0.02, 0.2, i)
    beta = _grid(0.5, 2.0, (3 * i) % CASE_COUNT)
    sets = ["--set", f"a_override={a}", "--set", f"beta={beta}",
            "--set", "cutoff_norm_sq=1000"]
    return {
        "id": f"a{a}-beta{beta}",
        "params": {"a_override": a, "beta": beta},
        "argvs": [["coeffs", "--output-dir", OUT, *sets],
                  ["rho", "--output-dir", OUT, *sets]],
    }


def _oracle_case(i: int) -> dict:
    a = _grid(0.02, 0.1, i)
    return {
        "id": f"a{a}",
        "params": {"oracle.a": a},
        "argvs": [["oracle", "--output-dir", OUT, "--set", "oracle.cap=14",
                   "--set", "oracle.toy.cap=7", "--set", f"oracle.a={a}"]],
    }


WORKLOADS: dict[str, dict] = {
    "bundle": {
        "why": "bosegas all with the default config, the command users run; "
               "dominated by the scattering layer",
        # the default config is the point of this workload, so it has one case
        "cases": [{"id": "default", "params": {},
                   "argvs": [["all", "--output-dir", OUT]]}],
        "files": ["kernels.csv", "scatter.json", "coefficients.csv", "depletion.json",
                  "dm1_A.json", "dm1_B.json", "dm2_A.json", "dm2_B.json", "rho.json",
                  "adjudication.json", "partition.json", "toy_gibbs.json",
                  "comparison.csv", "provenance.json"],
        # downstream of the scattering solve: everything but the oracle files
        "solver_files": ["kernels.csv", "scatter.json", "coefficients.csv",
                         "depletion.json", "dm1_A.json", "dm1_B.json", "dm2_A.json",
                         "dm2_B.json", "rho.json", "toy_gibbs.json", "comparison.csv"],
    },
    "lattice": {
        "why": "coeffs then rho at cutoff 1000 with a_override set; shell sums, "
               "coefficients and density models, no scattering or Fock space",
        "cases": [_lattice_case(i) for i in range(CASE_COUNT)],
        "files": ["coefficients.csv", "depletion.json", "dm1_A.json", "dm1_B.json",
                  "dm2_A.json", "dm2_B.json", "rho.json", "provenance.json"],
        "solver_files": [],
    },
    "oracle": {
        "why": "oracle at cap 14 with toy cap 7; Fock basis, dense Gibbs state "
               "and 1,360 expm calls of the adjudication",
        "cases": [_oracle_case(i) for i in range(CASE_COUNT)],
        "files": ["adjudication.json", "partition.json", "toy_gibbs.json",
                  "comparison.csv", "provenance.json"],
        # the toy Hamiltonian's v_hat is a radial quadrature
        "solver_files": ["toy_gibbs.json", "comparison.csv"],
    },
}


def op_cases(workload: str, seed: int):
    """Endless seeded sequence of the cases the ops of one run execute."""
    cases = WORKLOADS[workload]["cases"]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield cases[rng.randrange(len(cases))]
