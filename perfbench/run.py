"""Benchmark of the bosegas command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload bundle --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py                      # every workload, untraced

Load is a closed loop with one client: each op runs in its own fresh
interpreter (``child.py``), one at a time, and calls ``bosegas.cli.main``
in-process there, so every op pays interpreter start, imports and the
``lru_cache`` fills a command-line user pays.  Ops start until the median
op so far would end past ``--seconds``.  Each op's outputs are checked (``checks.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` every other op is traced and the
metrics are the per-layer ones.  Lines before it report every metric with
its unit, the op-time tail, the failure ratio and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_op, load_reference
from child import V_HAT, WRAPPED
from workloads import DEFAULT_SEED, WORKLOADS, op_cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
# ops take seconds; a hung one must not keep a run past its 180 s limit
OP_TIMEOUT_S = 60

# fail_ratio is reported alongside these but is carried in the result line by
# "failed" and "attempted": it is 0 on a correct program, and a metric whose
# median is 0 has no relative spread.
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "op_cpu_p50_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ["cli", "lattice", "bogoliubov", "scattering", "density", "fock", "oracles"]
SPANS = [*dict.fromkeys(name for _, _, name in WRAPPED), V_HAT]
COUNTED_CALLS = [
    "lattice.enumerate_shells", "bogoliubov.depletion_sums",
    "bogoliubov.mode_coefficients", "scattering.solve_scattering", "scattering.v_hat",
    "fock.expect", "fock.ladder", "oracles.expm",
]
PER_LAYER = {
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    **{f"{name}.self_s": "s" for name in SPANS},
    **{f"{name}.calls": "count" for name in COUNTED_CALLS},
    "lattice.shells": "count",
    "lattice.modes": "count",
    "fock.basis_states": "count",
    "fock.ln_nnz": "count",
    **{f"share.{layer}": "%" for layer in LAYERS},
    "trace.op_p50_s": "s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# one op
# ---------------------------------------------------------------------------

def run_op(workload: str, case: dict, op_id: int, traced: bool,
           reference: dict | None) -> dict:
    """Run one op in a fresh interpreter, check its outputs, return its record.

    ``reference`` holds the workload's recorded fingerprints per case; None
    skips the comparison and is only for recording them.
    """
    op_dir = WORK / workload
    shutil.rmtree(op_dir, ignore_errors=True)
    (op_dir / "tmp").mkdir(parents=True)
    result_path = op_dir / "result.json"
    spec = {"argvs": case["argvs"], "trace": traced, "op_id": op_id,
            "src": str(SRC), "result": str(result_path)}
    env = dict(os.environ, TMPDIR=str(op_dir / "tmp"),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    record = {"case": case["id"], "traced": traced}

    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=op_dir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        record.update(wall_s=time.monotonic() - spawned,
                      problems=[f"timed out after {OP_TIMEOUT_S} s"])
        return record
    record["wall_s"] = time.monotonic() - spawned
    if not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-3:]
        record["problems"] = [f"child exited {proc.returncode} without a result: {tail}"]
        return record

    result = json.loads(result_path.read_text())
    out_dir = op_dir / "out"
    record.update(
        setup_s=result["ready"] - spawned,
        op_s=result["op_s"],
        cpu_s=result["cpu_s"],
        rss_mb=result["maxrss_kb"] / 1024.0,
        problems=check_op(WORKLOADS[workload], out_dir, result["exit_codes"],
                          None if reference is None else reference.get(case["id"], {})),
    )
    if proc.returncode != 0 and not record["problems"]:
        record["problems"] = [f"child exited {proc.returncode}"]
    if traced:
        record["layers"], problems = layer_metrics(result, out_dir)
        record["problems"] += problems
    return record


def layer_metrics(result: dict, out_dir: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced op, and any inconsistency of its spans.

    A span's self time is its duration minus its child spans'; ``cli.self_s``
    is the op time not covered by any span, so the self times and
    ``cli.self_s`` add up to the op time.
    """
    spans = result["spans"]
    op_start, op_end = result["op_start"], result["op_end"]
    op_s = op_end - op_start
    problems = []
    self_s = [end - start for _, start, end, _, _ in spans]
    top_level = 0.0
    for name, start, end, parent, _ in spans:
        lo, hi = (op_start, op_end) if parent is None else spans[parent][1:3]
        if not lo <= start <= end <= hi:
            problems.append(f"trace: span {name} lies outside its parent")
        if parent is None:
            top_level += end - start
        else:
            self_s[parent] -= end - start

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics["cli.self_s"] = op_s - top_level
    for (name, *_), own in zip(spans, self_s):
        metrics[f"{name}.self_s"] += own
        metrics[f"share.{name.split('.')[0]}"] += own
        if name in COUNTED_CALLS:
            metrics[f"{name}.calls"] += 1
    metrics["share.cli"] = metrics["cli.self_s"]
    for layer in LAYERS:
        metrics[f"share.{layer}"] *= 100.0 / op_s
    metrics.update(result["counts"])
    metrics["cli.bytes_written"] = sum(
        p.stat().st_size for p in out_dir.glob("*") if p.name != "provenance.json"
    )
    unaccounted = op_s - metrics["cli.self_s"] - sum(self_s)
    if abs(unaccounted) > 1e-6:
        problems.append(f"trace: self times miss {unaccounted:.3g} s of the op")
    return metrics, problems


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the op-time tail.

    The tail is the highest percentile with at least ten samples beyond it.
    Below 21 ops that percentile would lie under the median, so a shorter
    run reports its slowest op, with no sample beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 11 if n >= 21 else n - 1
    percentile = 100.0 * rank / (n - 1) if n > 1 else 100.0
    return ordered[rank], percentile, n - 1 - rank


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Ops of one run: traced and untraced alternate when ``trace`` is set."""
    reference = load_reference()[workload]
    minimum = 2 if trace else 1
    deadline = time.monotonic() + seconds
    ops: list[dict] = []
    for op_id, case in enumerate(op_cases(workload, seed)):
        ops.append(run_op(workload, case, op_id, trace and op_id % 2 == 0, reference))
        expected = statistics.median(op["wall_s"] for op in ops)
        if len(ops) >= minimum and time.monotonic() + expected > deadline:
            return ops


def summarize(ops: list[dict], trace: bool) -> dict:
    """Metrics of one run, as {name: {"value", "unit"}}."""
    measured = [op for op in ops if "op_s" in op]
    untraced = [op["op_s"] for op in measured if not op["traced"]]
    if trace:
        traced = [op for op in measured if op["traced"]]
        values = {name: statistics.median(op["layers"][name] for op in traced)
                  for name in PER_LAYER}
        values["trace.op_p50_s"] = statistics.median(op["op_s"] for op in traced)
        values["trace.overhead_s"] = values["trace.op_p50_s"] - statistics.median(untraced)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(op["setup_s"] for op in measured),
            "op_p50_s": statistics.median(untraced),
            "op_tail_s": tail(untraced)[0],
            "op_cpu_p50_s": statistics.median(op["cpu_s"] for op in measured),
            "peak_rss_mb": max(op["rss_mb"] for op in measured),
        }
        units = END_TO_END
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        libraries = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return getter()
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo") as fh:
        models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    return {
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "cpu_model": models[0] if models else platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "git_commit": commit,
    }


def loadavg() -> list[float]:
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def report(workload: str, ops: list[dict], failed: int, metrics: dict, trace: bool):
    """Human-readable lines: every op, every metric, the tail and the failures."""
    print(f"workload {workload}: {len(ops)} ops, trace={int(trace)}")
    for i, op in enumerate(ops):
        if "op_s" in op:
            print(f"  op {i} {op['case']}{' traced' if op['traced'] else ''}: "
                  f"setup {op['setup_s']:.3f} s, op {op['op_s']:.3f} s, "
                  f"cpu {op['cpu_s']:.3f} s, rss {op['rss_mb']:.1f} MB")
        for problem in op["problems"]:
            print(f"  op {i} ({op['case']}) FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    if not trace:
        untraced = [op["op_s"] for op in ops if "op_s" in op and not op["traced"]]
        _, percentile, beyond = tail(untraced)
        print(f"  op_tail_s is the p{percentile:.0f} of {len(untraced)} op times, "
              f"with {beyond} beyond it")
    print(f"  fail_ratio {failed / len(ops):.6g} ({failed} of {len(ops)} ops)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bosegas" / "__init__.py").is_file():
        print(f"no bosegas sources under {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    env["loadavg_start"] = loadavg()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        ops = run_workload(name, args.seed, args.seconds, bool(args.trace))
        kinds = {op["traced"] for op in ops if "op_s" in op}
        if kinds != ({True, False} if args.trace else {False}):
            for op in ops:
                print(f"op ({op['case']}): {op['problems']}", file=sys.stderr)
            print(f"{name}: too few ops produced a measurement", file=sys.stderr)
            return 1
        metrics = summarize(ops, bool(args.trace))
        failed = sum(1 for op in ops if op["problems"])
        report(name, ops, failed, metrics, bool(args.trace))
        results[name] = {"correct": failed == 0, "attempted": len(ops),
                         "failed": failed, "metrics": metrics}
    env["loadavg_end"] = loadavg()
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
