"""Tests of the benchmark itself (about a minute; they run real ops).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import check_op, load_reference  # noqa: E402
from workloads import WORKLOADS, op_cases  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
ORACLE = WORKLOADS["oracle"]
CASE = ORACLE["cases"][3]


def _bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _bench("--workload", "oracle", "--seed", "5", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "bundle", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    """One untraced and one traced op of the same case, with copies of their outputs."""
    reference = load_reference()["oracle"]
    out = {}
    for traced in (False, True):
        record = run.run_op("oracle", CASE, 0, traced, reference)
        copy = tmp_path_factory.mktemp("traced" if traced else "untraced") / "out"
        shutil.copytree(run.WORK / "oracle" / "out", copy)
        out[traced] = (record, copy)
    return out


def _check(out_dir):
    return check_op(ORACLE, out_dir, [0], load_reference()["oracle"][CASE["id"]])


def test_traced_and_untraced_ops_pass_the_same_checks(ops):
    for record, out_dir in ops.values():
        assert record["problems"] == []
        assert _check(out_dir) == []
    layers = ops[True][0]["layers"]
    assert layers["oracles.expm.calls"] == 1360
    assert layers["fock.basis_states"] > 0 and layers["fock.ln_nnz"] > 0
    assert sum(layers[f"share.{layer}"] for layer in run.LAYERS) == pytest.approx(100.0)


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


CORRUPTIONS = {
    "winner": lambda d: _edit_json(d / "adjudication.json",
                                   lambda p: p.update(theta_winner="A")),
    "oracle_value": lambda d: _edit_json(
        d / "adjudication.json",
        lambda p: p["number"].update(oracle=p["number"]["oracle"] * (1 + 1e-7))),
    "partition": lambda d: _edit_json(d / "partition.json",
                                      lambda p: p.update(brute=p["brute"] * 1.01)),
    "offdiagonal": lambda d: _edit_json(d / "toy_gibbs.json",
                                        lambda p: p.update(offdiagonal_max=1e-3)),
    "missing_file": lambda d: (d / "toy_gibbs.json").unlink(),
    "csv_row": lambda d: (d / "comparison.csv").write_text(
        (d / "comparison.csv").read_text().replace(",-0.", ",-1.", 1)),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_a_corrupted_payload_fails_the_op(ops, tmp_path, corruption):
    out_dir = shutil.copytree(ops[False][1], tmp_path / "out")
    CORRUPTIONS[corruption](out_dir)
    assert _check(out_dir) != []


def test_roundoff_in_the_adjudication_passes(ops, tmp_path):
    def nudge(payload):
        d = payload["number"]
        d["oracle"] *= 1 + 1e-13
        d["residual_A"] = abs(d["oracle"] - d["candidate_A"])
        d["residual_B"] = abs(d["oracle"] - d["candidate_B"])
        d["residual_ratio"] = max(d["residual_A"], d["residual_B"]) / min(
            d["residual_A"], d["residual_B"])

    out_dir = shutil.copytree(ops[False][1], tmp_path / "out")
    _edit_json(out_dir / "adjudication.json", nudge)
    assert _check(out_dir) == []


def test_a_failed_main_call_fails_the_op(ops):
    assert check_op(ORACLE, ops[False][1], [0, 4], None) != []


def test_comparison_ignores_the_output_directory(ops, tmp_path):
    out_dir = shutil.copytree(ops[False][1], tmp_path / "out")
    for path in out_dir.iterdir():
        text = path.read_text().replace('"output_dir": "out"', '"output_dir": "/elsewhere/x"')
        path.write_text(text)
    assert _check(out_dir) == []


def test_self_times_add_up_to_the_op_time(tmp_path):
    # op 0..10 s; a (1..6) holds b (2..3) and c (4..5); d (7..8) stands alone
    spans = [["lattice.enumerate_shells", 1.0, 6.0, None, 0],
             ["bogoliubov.depletion_sums", 2.0, 3.0, 0, 0],
             ["density.build_rho1", 4.0, 5.0, 0, 0],
             ["fock.gibbs", 7.0, 8.0, None, 0]]
    result = {"spans": spans, "op_start": 0.0, "op_end": 10.0, "counts": {}}
    metrics, problems = run.layer_metrics(result, tmp_path)
    assert problems == []
    assert metrics["lattice.enumerate_shells.self_s"] == 3.0
    assert metrics["cli.self_s"] == 4.0
    assert metrics["share.lattice"] == 30.0 and metrics["share.fock"] == 10.0
    spans[1][2] = 6.5  # a child ending after its parent is inconsistent
    assert run.layer_metrics(result, tmp_path)[1] != []


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(21)]) == (10.0, 50.0, 10)
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0, 0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_seed_fixes_the_cases():
    def first(seed):
        cases = op_cases("lattice", seed)
        return [next(cases)["id"] for _ in range(6)]

    assert first(7) == first(7)
    assert first(7) != first(8)
