"""The determinism contract's runs and their byte digests.

Each run is a list of ``bosegas.cli.main`` argument lists writing into one
output directory: the default ``all``, the ``lattice`` and ``oracle`` cases
of ``perfbench/workloads.py`` (read from there, so the two stay the same
cases), and ``scatter`` on a 2,000-interval tabulated soft sphere.  Every
data file gets one sha256 over its bytes minus the run-dependent parts:
the ``# version`` and ``# config`` lines of a CSV file and the top-level
``provenance`` block of a JSON file; ``provenance.json`` itself is left out.

Bits of BLAS dots, ``eigh`` and libm can differ across CPUs and builds, so
the manifest also records the environment its digests were taken in.

Usage, from the repository root::

    PYTHONPATH=src python tests/record_digests.py

rewrites ``tests/digests.json``.  A change that moves bytes re-records it
and names the files and the largest change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from bosegas.cli import main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("digests.json")
WORKLOADS = ROOT / "perfbench" / "workloads.py"

TABULATED = {"kind": "tabulated", "grid": np.linspace(0.0, 0.5, 2001).tolist(),
             "values": [100.0] * 2001}


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _without_output_dir(argv: list[str]) -> list[str]:
    i = argv.index("--output-dir")
    return argv[:i] + argv[i + 2:]


def runs() -> dict[str, list[list[str]]]:
    """Run name -> the argument lists it passes to ``main``, without ``--output-dir``."""
    out = {"all": [["all"]]}
    for workload in ("lattice", "oracle"):
        for case in _workloads()[workload]["cases"]:
            out[f"{workload}/{case['id']}"] = [_without_output_dir(argv)
                                              for argv in case["argvs"]]
    out["scatter/tabulated"] = [["scatter", "--set", "potential=" + json.dumps(TABULATED)]]
    return out


def data_text(path: Path) -> str:
    """The file's text without its ``#`` lines or top-level ``provenance`` block."""
    lines = path.read_text().splitlines(keepends=True)
    if path.suffix == ".csv":
        return "".join(line for line in lines if not line.startswith("#"))
    if '  "provenance": {\n' not in lines:
        return "".join(lines)
    start = lines.index('  "provenance": {\n')
    # the block's closing brace is the next line indented as its key
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("  }"))
    return "".join(lines[:start] + lines[end + 1:])


def run_digests(argvs: list[list[str]], out: Path) -> dict[str, str]:
    """sha256 of each data file the argument lists write into ``out``."""
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):  # the list of files written
            code = main([*argv, "--output-dir", str(out)])
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}")
    return {
        path.name: hashlib.sha256(data_text(path).encode()).hexdigest()
        for path in sorted(out.iterdir()) if path.name != "provenance.json"
    }


def _openblas_config() -> str | None:
    """numpy's OpenBLAS build and run-time core, as the library reports them."""
    site = Path(np.__file__).resolve().parent.parent
    for path in sorted(glob.glob(str(site / "numpy.libs" / "libscipy_openblas64_*.so"))):
        try:
            get_config = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_config.restype = ctypes.c_char_p
        return get_config().decode()
    return None


def environment() -> dict:
    """What the bits of the digests can depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "libc": " ".join(platform.libc_ver()),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_config": _openblas_config(),
    }


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_digests(argvs, Path(tmp) / str(i))
                   for i, (name, argvs) in enumerate(runs().items())}
    return {"environment": environment(), "runs": digests}


if __name__ == "__main__":
    manifest = record()
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"{sum(map(len, manifest['runs'].values()))} digests of "
          f"{len(manifest['runs'])} runs written to {MANIFEST}", file=sys.stderr)
