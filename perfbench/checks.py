"""Output checks for one benchmark op.

Exact checks: every ``main`` call exited 0, every expected file is present,
and the adjudication picked convention B for both quantities.  Checks with
tolerances: density-matrix traces equal N to rounding, ``a_ode`` agrees with
``a_functional``, and the toy experiment's off-diagonal probe is at
roundoff.  Then every data value is compared with the reference recorded in
``reference.json`` for the op's case.

Comparisons are path-independent: ``provenance`` entries of JSON payloads
and the ``#`` comment lines of CSV files (which carry the config, output
directory included) are dropped, and ``provenance.json`` is only required to
exist.  Long columns are compared through a fingerprint: their length, sum,
sum of magnitudes and a fixed sample of rows.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# Closed forms, exactly rounded lattice sums and exact linear algebra agree
# to rounding; values downstream of an ODE solve or a radial quadrature get
# the relative tolerance the test suite applies to the scattering solver.
EXACT_RTOL = 1e-9
SOLVER_RTOL = 1e-6
# roundoff-sized values (e.g. a variant distance of 4e-16) compare absolutely
ATOL = 1e-13
SAMPLE_ROWS = 32


def read_payload(path: Path):
    """Parsed, path-independent content of one output file."""
    text = path.read_text()
    if path.suffix == ".json":
        data = json.loads(text)
        data.pop("provenance", None)
        return data
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _flatten(data, prefix: str, out: dict):
    if isinstance(data, dict):
        for key, value in data.items():
            _flatten(value, f"{prefix}{key}.", out)
    elif isinstance(data, list) and data and isinstance(data[0], dict):
        for key in data[0]:  # a list of table rows becomes one column per key
            out[f"{prefix}{key}"] = [row[key] for row in data]
    else:
        out[prefix.rstrip(".")] = data


def fingerprint(data) -> dict:
    """Scalars verbatim; each column as length, sums and sampled rows."""
    flat: dict = {}
    _flatten(data, "", flat)
    out = {}
    for key, value in flat.items():
        if isinstance(value, list):
            n = len(value)
            step = max(1, n // SAMPLE_ROWS)
            rows = sorted(set(range(0, n, step)) | {n - 1}) if n else []
            value = {
                "n": n,
                "sum": math.fsum(value),
                "abs_sum": math.fsum(abs(x) for x in value),
                "rows": {str(i): value[i] for i in rows},
            }
        out[key] = value
    return out


def _estimates(file: str, data: dict) -> dict:
    """Error estimates a payload carries, keyed by the value they cover."""
    extra = {}
    if file == "depletion.json":
        for variant, sums in data["depletion"].items():
            for name, res in sums.items():
                extra[f"depletion.{variant}.{name}.value"] = res["tail_bound"]
    elif file == "partition.json":
        for key in ("brute", "uncapped", "product_lower", "product_upper"):
            extra[key] = data["gap"]
    elif file == "scatter.json":
        spread = abs(data["a_ode"] - data["a_functional"])
        extra["a_ode"] = extra["a_functional"] = spread
    elif file == "adjudication.json":
        # residuals are differences of O(1) values and inherit their error;
        # their ratio divides by the smaller one, which amplifies it
        for quantity in ("number", "pairing"):
            d = data[quantity]
            scale = EXACT_RTOL * max(abs(d["oracle"]), abs(d["candidate_A"]),
                                     abs(d["candidate_B"]))
            for key in ("residual_A", "residual_B", "separation"):
                extra[f"{quantity}.{key}"] = scale
            if "residual_ratio" in d:
                lo, hi = sorted((d["residual_A"], d["residual_B"]))
                extra[f"{quantity}.residual_ratio"] = d["residual_ratio"] * scale * (1 / lo + 1 / hi)
    return extra


def _close(value, ref, rtol: float, extra: float = 0.0) -> bool:
    if isinstance(ref, (bool, str)) or ref is None:
        return value == ref
    return abs(value - ref) <= rtol * abs(ref) + ATOL + extra


def compare(file: str, got: dict, ref: dict, rtol: float, extra: dict) -> list[str]:
    """Differences between two fingerprints of one file, as messages."""
    if set(got) != set(ref):
        return [f"{file}: keys differ: {sorted(set(got) ^ set(ref))}"]
    problems = []
    for key, r in ref.items():
        g = got[key]
        if isinstance(r, dict):
            if g["n"] != r["n"]:
                problems.append(f"{file}: {key} has {g['n']} rows, reference {r['n']}")
                continue
            scale = rtol * r["abs_sum"] + ATOL * r["n"]
            if not abs(g["sum"] - r["sum"]) <= scale or not abs(g["abs_sum"] - r["abs_sum"]) <= scale:
                problems.append(f"{file}: {key} column sums {g['sum']!r} vs {r['sum']!r}")
            for i, x in r["rows"].items():
                if not _close(g["rows"][i], x, rtol):
                    problems.append(f"{file}: {key}[{i}] = {g['rows'][i]!r}, reference {x!r}")
        elif not _close(g, r, rtol, extra.get(key, 0.0)):
            problems.append(f"{file}: {key} = {g!r}, reference {r!r}")
    return problems


def intrinsic(file: str, data: dict) -> list[str]:
    """Checks that hold for every case, with no reference needed."""
    problems = []
    if file == "adjudication.json":
        for key in ("theta_winner", "pairing_winner"):
            if data[key] != "B":
                problems.append(f"{file}: {key} is {data[key]!r}, expected 'B'")
    elif file == "rho.json":
        n = data["N"]
        for key, value in data.items():
            if key.startswith("trace_") and not abs(value - n) <= 1e-12 * n:
                problems.append(f"{file}: {key} = {value!r}, expected N = {n}")
    elif file.startswith("dm") and not abs(data["trace"] - data["N"]) <= 1e-12 * data["N"]:
        problems.append(f"{file}: trace {data['trace']!r}, expected N = {data['N']}")
    elif file == "scatter.json":
        if not abs(data["a_ode"] - data["a_functional"]) <= 1e-6 * data["a_ode"]:
            problems.append(f"{file}: a_ode {data['a_ode']!r} vs a_functional {data['a_functional']!r}")
    elif file == "toy_gibbs.json" and not data["offdiagonal_max"] <= 1e-10:
        problems.append(f"{file}: offdiagonal_max {data['offdiagonal_max']!r} above roundoff")
    return problems


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def check_op(workload: dict, out_dir: Path, exit_codes: list,
             reference: dict | None) -> list[str]:
    """All problems with one op's outputs; an empty list means it passed.

    ``reference`` maps file name to fingerprint for the op's case; None
    skips the comparison and is only for recording the reference itself.
    """
    if not exit_codes or any(code != 0 for code in exit_codes):
        return [f"exit statuses {exit_codes}"]
    problems = []
    for file in workload["files"]:
        path = out_dir / file
        if not path.is_file():
            problems.append(f"{file}: missing")
            continue
        if file == "provenance.json":
            continue
        try:
            data = read_payload(path)
        except (ValueError, IndexError) as exc:
            problems.append(f"{file}: unreadable ({exc})")
            continue
        try:
            problems += intrinsic(file, data)
            if reference is not None and file not in reference:
                problems.append(f"{file}: no reference recorded for this case")
            elif reference is not None:
                rtol = SOLVER_RTOL if file in workload["solver_files"] else EXACT_RTOL
                problems += compare(file, fingerprint(data), reference[file], rtol,
                                    _estimates(file, data))
        except (KeyError, TypeError) as exc:
            problems.append(f"{file}: unexpected structure ({exc!r})")
    return problems
