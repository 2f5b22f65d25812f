import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bosegas
from bosegas.cli import main

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
    out = tmp_path / "big"
    code = main([
        "oracle", "--output-dir", str(out), *FAST_SETS,
        "--set", "oracle.cap=60",
    ])
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "BasisSizeError"
    assert "states" in record["message"]


def test_solver_failure_exit_code(tmp_path):
    out = tmp_path / "solver"
    code = main([
        "scatter", "--output-dir", str(out), *FAST_SETS,
        "--set", "scatter_r_max_factor=0.5",
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
