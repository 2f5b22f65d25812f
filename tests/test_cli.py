import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bosegas
import bosegas.bogoliubov
import bosegas.cli
import bosegas.fock
import bosegas.lattice
import bosegas.scattering
from bosegas.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

FAST_SETS = [
    "--set", "cutoff_norm_sq=20",
    "--set", "N=40",
    "--set", "oracle.cap=8",
    "--set", "oracle.toy.cap=4",
    "--set", "oracle.toy.N=10",
]


def read_csv_payload(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def read_json_payload(path: Path) -> dict:
    payload = json.loads(path.read_text())
    payload.pop("provenance", None)
    return payload


def test_scatter_emits_summary_and_kernels(tmp_path):
    out = tmp_path / "run"
    assert main(["scatter", "--output-dir", str(out), *FAST_SETS]) == 0
    summary = read_json_payload(out / "scatter.json")
    assert summary["a_ode"] == pytest.approx(0.35881866549216315, rel=1e-8)
    assert summary["a_functional"] == pytest.approx(summary["a_ode"], rel=1e-2)
    assert summary["lambda"] > 0.0
    rows = read_csv_payload(out / "kernels.csv")
    assert rows[0] == "norm_sq,p_abs,eta,tau,nu"
    assert len(rows) > 10


def test_scatter_free_gas(tmp_path):
    out = tmp_path / "free"
    code = main([
        "scatter", "--output-dir", str(out), *FAST_SETS,
        "--set", "potential.v0=0.0",
    ])
    assert code == 0
    summary = read_json_payload(out / "scatter.json")
    assert abs(summary["a_ode"]) < 1e-10


def test_scatter_builds_no_mode(tmp_path, monkeypatch):
    # the kernels run on the shell table: no explicit mode is built, so a
    # large cutoff costs one row per shell; 1,668 of 1 <= j <= 2000 are
    # sums of three squares (Legendre: j not of the form 4^a (8b + 7))
    def refuse(self):
        raise AssertionError("scatter built a Mode")

    monkeypatch.setattr(bosegas.lattice.Mode, "__post_init__", refuse)
    out = tmp_path / "large"
    code = main(["scatter", "--set", "cutoff_norm_sq=2000", "--output-dir", str(out)])
    assert code == 0
    rows = read_csv_payload(out / "kernels.csv")
    assert len(rows) == 1 + 1668


def test_coeffs_zero_interaction_columns(tmp_path):
    out = tmp_path / "coeffs"
    code = main([
        "coeffs", "--output-dir", str(out), *FAST_SETS, "--set", "a_override=0.0",
    ])
    assert code == 0
    rows = read_csv_payload(out / "coefficients.csv")
    header = rows[0].split(",")
    for line in rows[1:]:
        record = dict(zip(header, line.split(",")))
        assert float(record["mu_sq"]) == 0.0
        assert float(record["pairing_A"]) == 0.0
        assert float(record["pairing_B"]) == 0.0
    depletion = read_json_payload(out / "depletion.json")
    assert depletion["depletion"]["A"]["sum_mu"]["value"] == 0.0


def test_coeffs_theta_decreases_in_beta(tmp_path):
    values = []
    for beta in (0.5, 1.0, 2.0):
        out = tmp_path / f"b{beta}"
        assert main([
            "coeffs", "--output-dir", str(out), *FAST_SETS,
            "--set", "a_override=1.0", "--set", f"beta={beta}",
        ]) == 0
        row = read_csv_payload(out / "coefficients.csv")[1].split(",")
        values.append(float(row[3]))  # theta_sq_A on the first shell
    assert values[0] > values[1] > values[2]


def test_rho_traces_and_variant_distance(tmp_path):
    out = tmp_path / "rho"
    # beta small enough that the thermal factors do not underflow
    assert main([
        "rho", "--output-dir", str(out), *FAST_SETS,
        "--set", "a_override=1.0", "--set", "N=1000000", "--set", "beta=0.02",
    ]) == 0
    summary = read_json_payload(out / "rho.json")
    assert summary["trace_dm1_A"] == 1000000.0
    assert summary["trace_dm2_B"] == 1000000.0
    assert summary["variant_distance_dm1"] > 0.0
    dm1 = read_json_payload(out / "dm1_B.json")
    assert dm1["trace"] == 1000000.0


def test_rho_variant_distance_vanishes_at_zero_temperature(tmp_path):
    out_cold = tmp_path / "cold"
    assert main([
        "rho", "--output-dir", str(out_cold), *FAST_SETS,
        "--set", "a_override=1.0", "--set", "N=1000000", "--set", "beta=1000.0",
    ]) == 0
    cold = read_json_payload(out_cold / "rho.json")
    out_warm = tmp_path / "warm"
    assert main([
        "rho", "--output-dir", str(out_warm), *FAST_SETS,
        "--set", "a_override=1.0", "--set", "N=1000000", "--set", "beta=0.02",
    ]) == 0
    warm = read_json_payload(out_warm / "rho.json")
    assert cold["variant_distance_dm1"] < 1e-12
    assert warm["variant_distance_dm1"] > cold["variant_distance_dm1"]


def test_oracle_emits_adjudication_and_comparison(tmp_path):
    out = tmp_path / "oracle"
    assert main(["oracle", "--output-dir", str(out), *FAST_SETS]) == 0
    report = read_json_payload(out / "adjudication.json")
    assert report["theta_winner"] in ("A", "B")
    rows = read_csv_payload(out / "comparison.csv")
    assert rows[0].startswith("norm_sq,oracle_occ,model_occ_A")
    toy = read_json_payload(out / "toy_gibbs.json")
    assert toy["offdiagonal_max"] <= 1e-10
    assert len(toy["pair_moment_over_N_trend"]) == 2
    partition = read_json_payload(out / "partition.json")
    assert partition["uncapped"] - partition["brute"] <= partition["gap"]


def test_all_is_deterministic(tmp_path):
    # identical config (including output dir) twice: every payload file is
    # byte-identical, only provenance.json (wall time) may differ
    out = tmp_path / "run"
    snapshots = []
    for _ in range(2):
        assert main(["all", "--output-dir", str(out), *FAST_SETS]) == 0
        snapshots.append(
            {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.name != "provenance.json"
            }
        )
    assert snapshots[0].keys() == snapshots[1].keys()
    assert len(snapshots[0]) >= 8
    for name in snapshots[0]:
        assert snapshots[0][name] == snapshots[1][name], name


def test_csv_cells_are_plain_numbers(tmp_path):
    out = tmp_path / "fmt"
    assert main(["all", "--output-dir", str(out), *FAST_SETS]) == 0
    for csv_path in out.glob("*.csv"):
        for line in read_csv_payload(csv_path)[1:]:
            assert "np.float" not in line
            for cell in line.split(","):
                float(cell)  # every cell must parse as a number


def test_every_emitted_file_carries_provenance(tmp_path):
    out = tmp_path / "prov"
    assert main(["scatter", "--output-dir", str(out), *FAST_SETS]) == 0
    for path in out.iterdir():
        if path.name == "provenance.json":
            continue
        text = path.read_text()
        if path.suffix == ".csv":
            assert text.startswith("# version:")
        else:
            assert "provenance" in json.loads(text)
    prov = json.loads((out / "provenance.json").read_text())
    assert "wall_time_s" in prov and "config" in prov


@pytest.mark.parametrize(
    "command,stages",
    [("oracle", {"oracle"}), ("all", {"scatter", "coeffs", "rho", "oracle"})],
)
def test_provenance_times_each_command_run(tmp_path, command, stages):
    out = tmp_path / command
    assert main([command, "--output-dir", str(out), *FAST_SETS]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    seconds = prov["stage_seconds"]
    assert set(seconds) == stages
    assert all(s >= 0.0 for s in seconds.values())
    assert sum(seconds.values()) <= prov["wall_time_s"]
    for path in out.iterdir():
        assert path.name == "provenance.json" or "stage_seconds" not in path.read_text()


def test_usage_error_exit_code(tmp_path):
    out = tmp_path / "x"
    code = main([
        "scatter", "--output-dir", str(out),
        "--set", "potential={\"kind\": \"unknown\"}",
    ])
    assert code == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "unknown potential kind" in record["message"]


@pytest.mark.parametrize("key", ["oracle.toy.enabled", "oracle.toy.coupling",
                                 "scatter_r_max_factor", "oracle.momentum_scale",
                                 "cutof_norm_sq"])
def test_unknown_config_key_is_usage_error(tmp_path, key):
    # four removed knobs and a misspelling: ignoring any of them would run
    # another configuration than the one asked for, unannounced
    nested = 1.0
    for part in reversed(key.split(".")):
        nested = {part: nested}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(nested))
    for source in (["--set", f"{key}=1.0"], ["--config", str(cfg_path)]):
        out = tmp_path / source[0].strip("-")
        assert main(["oracle", "--output-dir", str(out), *FAST_SETS, *source]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ValueError"
        assert repr(key) in record["message"]
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("assignment, key", [
    ("oracle.shells=2", "oracle.shells"),
    ("cutoff_norm_sq=abc", "cutoff_norm_sq"),
    ('oracle.shells=[1, "a"]', "oracle.shells"),
    ("N=true", "N"),
    ("N=1.5", "N"),
    ("beta=false", "beta"),
    ('a_override="small"', "a_override"),
    ("oracle.toy=3", "oracle.toy"),
])
def test_wrongly_typed_config_value_is_usage_error(tmp_path, assignment, key):
    # refused where the config is read, naming the key, not by whatever
    # later step first trips over the value
    out = tmp_path / "typed"
    assert main(["oracle", "--output-dir", str(out), *FAST_SETS, "--set", assignment]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert repr(key) in record["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("command, assignment", [
    *[(command, f"beta={beta}") for command in ("coeffs", "rho")
      for beta in ("0", "Infinity", "NaN")],
    ("oracle", "oracle.beta=0"),
    ("oracle", "oracle.toy.beta=0"),
    ("coeffs", "a_override=-1"),
    ("rho", "a_override=-1"),
    ("oracle", "oracle.shells=[]"),
    ("scatter", "N=0"),
    ("rho", "N=0"),
])
def test_non_positive_beta_and_negative_length_are_usage_errors(tmp_path, command, assignment):
    # beta = 0 used to divide by zero in the Bose factor, with a traceback
    # and no error record; a negative length read only "math domain error";
    # no shells read "max() arg is an empty sequence", and scatter at N = 0
    # was a solver failure, "ball radius must exceed the potential support"
    key = assignment.split("=")[0]
    message = {
        "a_override": "scattering length must be non-negative",
        "oracle.shells": "no shells given",
        "N": "particle number must be >= 1",
    }.get(key, f"{key!r} takes a positive finite inverse temperature")
    out = tmp_path / "refused"
    assert main([command, "--output-dir", str(out), *FAST_SETS, "--set", assignment]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert message in record["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("command, shells, bad", [
    ("oracle", "[0]", 0), ("oracle", "[-1]", -1), ("oracle", "[0,1]", 0), ("all", "[0]", 0),
])
def test_shell_norm_below_one_is_usage_error(tmp_path, command, shells, bad):
    # [0] and [-1] used to read "max_norm_sq must be >= 1", naming neither
    # the key nor the norm, and [0,1] ran with the 0 dropped; refused where
    # the config is read, `all` writes no other command's files first
    out = tmp_path / "refused"
    assert main([command, "--output-dir", str(out), *FAST_SETS,
                 "--set", f"oracle.shells={shells}"]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "'oracle.shells'" in record["message"]
    assert f"|n|^2 = {bad} is below 1" in record["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_default_all_solves_the_scattering_problem_once(tmp_path):
    # scatter, coeffs, rho and the toy ask for the same zero-energy problem
    bosegas.scattering._solve_scattering.cache_clear()
    assert main(["all", "--output-dir", str(tmp_path)]) == 0
    assert bosegas.scattering._solve_scattering.cache_info().misses == 1


@pytest.mark.parametrize("command", ["coeffs", "rho"])
def test_coeffs_and_rho_evaluate_the_coefficients_once(tmp_path, monkeypatch, command):
    # the depletion sums and both density models take the one evaluation
    original = bosegas.bogoliubov.mode_coefficients
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bosegas" and getattr(module, "mode_coefficients", None) is original:
            monkeypatch.setattr(module, "mode_coefficients", counted)
    assert main([command, "--output-dir", str(tmp_path), *FAST_SETS,
                 "--set", "a_override=0.1"]) == 0
    assert len(calls) == 1


def test_config_types_accept_ints_for_floats_and_a_null_override():
    config = bosegas.cli.load_config(None, ["beta=2", "oracle.a=1", "a_override=null"], {})
    assert (config["beta"], config["oracle"]["a"], config["a_override"]) == (2, 1, None)
    assert bosegas.cli.load_config(None, ["a_override=3"], {})["a_override"] == 3


def test_every_benchmark_setting_loads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = [argv for workload in workloads.WORKLOADS.values()
             for case in workload["cases"] for argv in case["argvs"]]
    assert any("--set" in argv for argv in argvs)
    for argv in argvs:
        sets = [value for flag, value in zip(argv, argv[1:]) if flag == "--set"]
        bosegas.cli.load_config(None, sets, {"output_dir": "out"})


def test_toy_payload_keys_shells_in_string_order(tmp_path):
    # the payload's shell keys are strings sorted as strings, "10" before
    # "2"; int keys would be dumped in numeric order
    out = tmp_path / "shells"
    assert main(["oracle", "--output-dir", str(out), "--set", "oracle.shells=[2,10]",
                 "--set", "oracle.cap=4", "--set", "oracle.toy.cap=2"]) == 0
    payload = dict(json.loads((out / "toy_gibbs.json").read_text(), object_pairs_hook=list))
    for name in ("occupations", "pairings"):
        assert [key for key, _ in payload[name]] == ["10", "2"], name


@pytest.mark.parametrize("ell", [0.0, -0.1, 0.5])
def test_ball_radius_outside_the_torus_is_refused_before_any_solve(tmp_path, monkeypatch, ell):
    def refuse(*args, **kwargs):
        raise AssertionError("scatter solved a radial problem for an invalid ell")

    monkeypatch.setattr(bosegas.cli, "solve_scattering", refuse)
    monkeypatch.setattr(bosegas.cli, "solve_neumann", refuse)
    out = tmp_path / "ell"
    assert main(["scatter", "--output-dir", str(out), *FAST_SETS, "--set", f"ell={ell}"]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "ell must lie in (0, 1/2)" in record["message"]


def test_missing_config_file_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["scatter", "--config", str(tmp_path / "nope.json")]) == 2
    assert list(tmp_path.iterdir()) == []  # no output directory is known
    out = tmp_path / "named"
    assert main(["scatter", "--config", str(tmp_path / "nope.json"),
                 "--output-dir", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "FileNotFoundError"


def test_guard_refusal_exit_code_and_error_record(tmp_path):
    out = tmp_path / "guard"
    code = main([
        "rho", "--output-dir", str(out), *FAST_SETS,
        "--set", "a_override=10.0", "--set", "N=1",
    ])
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ModelValidityError"


def test_oversized_basis_is_refused_with_count(tmp_path):
    # the adjudication's one allocation sized by the cap is a shell's padded
    # ladder stack: 101 ladders of 51 x 51 at cap 100, past the state limit
    out = tmp_path / "big"
    code = main([
        "oracle", "--output-dir", str(out), *FAST_SETS,
        "--set", "oracle.cap=100",
    ])
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "BasisSizeError"
    assert "ladder stack" in record["message"]
    assert "262701 entries" in record["message"]
    # refused by the adjudication, before any payload is written
    assert not (out / "adjudication.json").exists()
    assert not (out / "partition.json").exists()


def test_toy_whose_half_basis_is_oversized_is_refused_with_count(tmp_path):
    # 80 modes: the adjudication's 3,321 states at cap 2 pass, but each half
    # of the toy's modes at cap 6 has C(46, 6) = 9,366,819 states
    out = tmp_path / "wide"
    code = main([
        "oracle", "--output-dir", str(out),
        "--set", "oracle.cap=2", "--set", "oracle.shells=[1,2,3,4,5,6]",
    ])
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "BasisSizeError"
    assert "9366819 states" in record["message"]
    assert not (out / "toy_gibbs.json").exists()


def test_toy_with_an_oversized_sector_is_refused_after_one_join_pass(tmp_path, monkeypatch):
    # 80 modes at toy cap 4: the sector P = 0 alone holds 7,617 states, more
    # than one dense block may.  P = 0 is the first momentum the join looks
    # for, so its first pass counts that sector and no other pass runs.
    passes = []
    searchsorted = np.searchsorted

    def spy(*args, **kwargs):
        if kwargs.get("side") == "right":  # the join's range ends, once per pass
            passes.append(args)
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(bosegas.fock.np, "searchsorted", spy)
    out = tmp_path / "sector"
    code = main([
        "oracle", "--output-dir", str(out),
        "--set", "oracle.cap=2", "--set", "oracle.shells=[1,2,3,4,5,6]",
        "--set", "oracle.toy.cap=4",
    ])
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "GuardError"
    assert "7617-state block" in record["message"]
    assert len(passes) == 1
    assert not (out / "toy_gibbs.json").exists()


def test_every_config_leaf_is_read_by_some_command(tmp_path, monkeypatch):
    # a knob no command reads changes no output; the potential table counts
    # as one leaf, because its keys depend on its kind
    seen = set()

    class Recording(dict):
        def __init__(self, table, prefix=""):
            super().__init__({key: Recording(value, f"{prefix}{key}.")
                              if isinstance(value, dict) and key != "potential" else value
                              for key, value in table.items()})
            self.prefix = prefix

        def __getitem__(self, key):
            seen.add(self.prefix + key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            seen.add(self.prefix + key)
            return super().get(key, default)

    load_config = bosegas.cli.load_config
    monkeypatch.setattr(bosegas.cli, "load_config",
                        lambda *args: Recording(load_config(*args)))
    assert main(["all", "--output-dir", str(tmp_path), *FAST_SETS]) == 0

    def leaves(table, prefix=""):
        for key, value in table.items():
            if isinstance(value, dict) and key != "potential":
                yield from leaves(value, f"{prefix}{key}.")
            else:
                yield prefix + key

    assert sorted(set(leaves(bosegas.cli.DEFAULT_CONFIG)) - seen) == []


def test_solver_failure_exit_code(tmp_path):
    # N * ell = 0.4 puts the ball inside the potential's support radius 0.5
    out = tmp_path / "solver"
    code = main([
        "scatter", "--output-dir", str(out), *FAST_SETS,
        "--set", "N=1", "--set", "ell=0.4",
    ])
    assert code == 4
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "SolverError"


def test_variant_flag_restricts_outputs(tmp_path):
    out = tmp_path / "vb"
    assert main([
        "rho", "--output-dir", str(out), *FAST_SETS,
        "--set", "a_override=1.0", "--set", "N=1000000", "--variant", "B",
    ]) == 0
    assert (out / "dm1_B.json").exists()
    assert not (out / "dm1_A.json").exists()


def test_config_file_round_trip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cutoff_norm_sq": 12, "a_override": 0.5}))
    out = tmp_path / "cfgrun"
    assert main(["coeffs", "--config", str(cfg_path), "--output-dir", str(out)]) == 0
    payload = read_json_payload(out / "depletion.json")
    assert payload["a"] == 0.5
    assert payload["cutoff_norm_sq"] == 12


def test_all_is_independent_of_the_blas_thread_count(tmp_path):
    # fresh interpreters started under 1 and 2 OpenBLAS threads, the same
    # relative output directory (the config is part of every payload)
    src = Path(bosegas.__file__).resolve().parent.parent
    runs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "bosegas.cli", "all", "--output-dir", "out", *FAST_SETS],
            cwd=cwd, env=env, check=True, capture_output=True, timeout=300,
        )
        runs.append(cwd / "out")
    for out in runs:
        assert json.loads((out / "provenance.json").read_text())["blas_threads"] == 1
    names = sorted(p.name for p in runs[0].iterdir() if p.name != "provenance.json")
    assert names == sorted(p.name for p in runs[1].iterdir() if p.name != "provenance.json")
    assert len(names) >= 8
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_all_imports_neither_scipy_integrate_nor_scipy_optimize(tmp_path):
    # the radial solvers need numpy only; either module would add ~0.25 s
    # to every command's start-up
    src = Path(bosegas.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    script = (
        "import json, sys\n"
        "from bosegas.cli import main\n"
        f"code = main(['all', '--output-dir', 'out', *{FAST_SETS!r}])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "    if m.startswith(('scipy.integrate', 'scipy.optimize')))]))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         check=True, capture_output=True, text=True, timeout=300)
    code, loaded = json.loads(run.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == []


def test_all_imports_no_scipy_module(tmp_path):
    # the package needs numpy only; importing scipy.linalg or scipy.sparse
    # alone would add ~0.35 s to every command's start-up
    src = Path(bosegas.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    script = (
        "import json, sys\n"
        "from bosegas.cli import main\n"
        f"code = main(['all', '--output-dir', 'out', *{FAST_SETS!r}])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "    if m == 'scipy' or m.startswith('scipy.'))]))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         check=True, capture_output=True, text=True, timeout=300)
    code, loaded = json.loads(run.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == []


def test_runs_in_one_process_parse_their_own_arguments(tmp_path):
    assert main(["coeffs", "--output-dir", str(tmp_path / "first"), *FAST_SETS]) == 0
    # a later run's config holds its own sets only, not an earlier run's
    out = tmp_path / "second"
    assert main(["coeffs", "--output-dir", str(out), "--set", "a_override=0.0"]) == 0
    config = json.loads((out / "provenance.json").read_text())["config"]
    assert config["cutoff_norm_sq"] == 100 and config["N"] == 100
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_options_take_their_value_after_an_equals_sign_in_any_order(tmp_path):
    out = tmp_path / "joined"
    assert main([f"--output-dir={out}", "--set=a_override=0.0", "--variant=B", "coeffs",
                 "--set", "cutoff_norm_sq=20"]) == 0
    config = json.loads((out / "provenance.json").read_text())["config"]
    assert config["a_override"] == 0.0 and config["cutoff_norm_sq"] == 20
    assert config["variant"] == "B"
    assert json.loads((out / "depletion.json").read_text())["depletion"].keys() == {"B"}


@pytest.mark.parametrize("argv, message", [
    (["coeffs", "--output-dir"], "argument --output-dir: expected one argument"),
    (["coeffs", "--set", "--variant", "A"], "argument --set: expected one argument"),
    (["coeffs", "--variant", "C"], "argument --variant: invalid choice: 'C'"),
    (["coeffs", "--out", "x"], "unrecognized arguments: --out"),  # no abbreviations
    (["coeffs", "rho"], "unrecognized arguments: rho"),
    (["--set", "N=4"], "the following arguments are required: command"),
])
def test_malformed_arguments_exit_with_the_usage_line(tmp_path, monkeypatch, capsys, argv,
                                                      message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bosegas ")
    assert err.endswith(f"bosegas: error: {message}\n")
    assert list(tmp_path.iterdir()) == []  # refused before any output directory is made


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage_line_and_exits_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", flag, "--no-such-option"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: bosegas {scatter,coeffs,rho,oracle,all} ")
    assert "--set KEY=VALUE" in out and "--variant {A,B,both}" in out


# Modules that `import bosegas.cli` and a `coeffs` and a `rho` run load beyond
# what `import numpy` loads.  Every module added here costs set-up time on
# every command, so a new entry is a deliberate decision.
LATTICE_COMMAND_MODULES = {
    "__future__", "_json", "copy", "dataclasses", "glob",
    "json", "json.decoder", "json.encoder", "json.scanner",
    "bosegas", "bosegas._blas", "bosegas.bogoliubov", "bosegas.cli", "bosegas.density",
    "bosegas.errors", "bosegas.fock", "bosegas.lattice", "bosegas.oracles",
    "bosegas.scattering",
    "numpy.polynomial", "numpy.polynomial._polybase", "numpy.polynomial.chebyshev",
    "numpy.polynomial.hermite", "numpy.polynomial.hermite_e", "numpy.polynomial.laguerre",
    "numpy.polynomial.legendre", "numpy.polynomial.polynomial", "numpy.polynomial.polyutils",
}


def modules_loaded(tmp_path, argvs):
    """Exit codes, and the modules loaded beyond ``import numpy`` by ``import
    bosegas.cli`` and by the commands, in a fresh interpreter."""
    src = Path(bosegas.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    script = (
        "import json, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import bosegas.cli\n"
        "imported = set(sys.modules)\n"
        f"codes = [bosegas.cli.main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps([codes, sorted(imported - before),\n"
        "                  sorted(set(sys.modules) - imported)]))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         check=True, capture_output=True, text=True, timeout=300)
    return json.loads(run.stdout.splitlines()[-1])


def test_lattice_commands_import_no_new_module(tmp_path):
    sets = ["--output-dir", "out", "--set", "a_override=0.1", "--set", "cutoff_norm_sq=50"]
    codes, by_import, by_commands = modules_loaded(
        tmp_path, [[c, *sets] for c in ("coeffs", "rho")]
    )
    assert codes == [0, 0]
    assert sorted(set(by_import + by_commands) - LATTICE_COMMAND_MODULES) == []


# A command imports nothing beyond ``import bosegas.cli``; any import (a
# numpy submodule behind np.unique, or locale behind argparse's gettext
# lookup, say) would be paid inside every op.
@pytest.mark.parametrize("argv", [
    ["oracle", "--set", "oracle.cap=14", "--set", "oracle.toy.cap=7"],
    ["all"],
])
def test_oracle_commands_import_no_new_module(tmp_path, argv):
    codes, by_import, by_commands = modules_loaded(tmp_path, [[*argv, "--output-dir", "out"]])
    assert codes == [0]
    assert sorted(set(by_import) - LATTICE_COMMAND_MODULES) == []
    assert by_commands == []
