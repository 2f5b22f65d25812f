"""The BLAS pin: one thread inside the block, the caller's counts restored after."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bosegas
from bosegas import _blas
from bosegas.cli import main

COEFFS = ["coeffs", "--set", "cutoff_norm_sq=20", "--set", "a_override=0.1"]


def counts() -> list[int]:
    return [getter() for _, getter in _blas._controls()]


@pytest.fixture
def two_threads():
    """Two threads, so that a restored count is told apart from 1."""
    controls = _blas._controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS found")
    before = counts()
    for setter, _ in controls:
        setter(2)
    yield
    for (setter, _), count in zip(controls, before):
        setter(count)


def test_pins_one_thread_and_restores(two_threads):
    with _blas.single_thread() as threads:
        assert threads == 1
        assert counts() == [1] * len(counts())
    assert counts() == [2] * len(counts())


def test_restores_when_the_body_raises(two_threads):
    with pytest.raises(RuntimeError):
        with _blas.single_thread():
            assert set(counts()) == {1}
            raise RuntimeError("body failed")
    assert set(counts()) == {2}


def test_nested_use_restores_the_outer_state(two_threads):
    with _blas.single_thread():
        with _blas.single_thread() as inner:
            assert inner == 1
        assert set(counts()) == {1}
    assert set(counts()) == {2}


def test_missing_symbols_change_nothing(two_threads, monkeypatch):
    real = counts()
    getters = [getter for _, getter in _blas._controls()]
    monkeypatch.setattr(
        _blas,
        "_OPENBLAS",
        tuple(entry[:3] + ("no_such_setter", "no_such_getter") for entry in _blas._OPENBLAS),
    )
    assert _blas._controls() == ()
    with _blas.single_thread() as threads:
        assert threads == "unpinned"
        assert [getter() for getter in getters] == real


def test_main_leaves_the_callers_count(two_threads, tmp_path):
    out = tmp_path / "coeffs"
    assert main([*COEFFS, "--output-dir", str(out)]) == 0
    assert set(counts()) == {2}
    assert json.loads((out / "provenance.json").read_text())["blas_threads"] == 1


def _fresh(script: str, **variables: str) -> list:
    """Run ``script`` in a fresh interpreter; its last line as JSON.

    Of the thread-count variables OpenBLAS reads, the child sees the given
    ones only, whatever the suite's own environment holds.
    """
    src = Path(bosegas.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k not in _blas._THREAD_VARIABLES}
    env.update(variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(run.stdout.splitlines()[-1])


def test_without_scipy_only_numpys_library_is_pinned():
    # loading scipy's OpenBLAS would start its worker thread, so the pin
    # must not load it when the caller has not
    threads, inside, after, controls, loaded = _fresh(
        "import json, sys\n"
        "from bosegas import _blas\n"
        "with _blas.single_thread() as threads:\n"
        "    inside = [g() for _, g in _blas._controls()]\n"
        "after = [g() for _, g in _blas._controls()]\n"
        "maps = open('/proc/self/maps').read() if sys.platform == 'linux' else ''\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([threads, inside, after, len(_blas._controls()),\n"
        "                  loaded + (['scipy.libs'] if 'scipy.libs' in maps else [])]))\n",
        OPENBLAS_NUM_THREADS="2",
    )
    assert threads == 1
    assert (inside, after, controls) == ([1], [2], 1)
    assert loaded == []


needs_workers = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc/self/task and two CPUs for a second BLAS thread",
)


@needs_workers
def test_the_block_leaves_the_workers_asleep():
    # stopping the workers inside the block would make the restore start a
    # new one, which busy-waits for about 0.1 s of CPU after the block; the
    # first sleep lets the worker numpy started end its own start-up wait
    before, inside, after, idle_cpu, product = _fresh(
        "import json, os, resource, time\n"
        "import numpy\n"
        "from bosegas import _blas\n"
        "def cpu():\n"
        "    usage = resource.getrusage(resource.RUSAGE_SELF)\n"
        "    return usage.ru_utime + usage.ru_stime\n"
        "time.sleep(0.3)\n"
        "before = len(os.listdir('/proc/self/task'))\n"
        "with _blas.single_thread():\n"
        "    inside = len(os.listdir('/proc/self/task'))\n"
        "after = len(os.listdir('/proc/self/task'))\n"
        "start = cpu()\n"
        "time.sleep(0.3)\n"
        "idle_cpu = cpu() - start\n"
        "big = numpy.ones((400, 400))\n"
        "print(json.dumps([before, inside, after, idle_cpu, float((big @ big)[0, 0])]))\n",
        OPENBLAS_NUM_THREADS="2",
    )
    assert (before, inside, after) == (2, 2, 2)
    assert idle_cpu < 0.05
    assert product == 400.0


def test_with_scipy_loaded_only_numpys_library_is_pinned():
    # scipy's wheel ships its own OpenBLAS, a separate library that no
    # command calls: the pin sets and restores numpy's count and leaves
    # scipy's as it was
    threads, inside, after = _fresh(
        "import ctypes, glob, json, os\n"
        "import scipy.linalg\n"
        "from bosegas import _blas\n"
        "site = os.path.dirname(os.path.dirname(scipy.__file__))\n"
        "[path] = glob.glob(os.path.join(site, 'scipy.libs', 'libscipy_openblas*.so'))\n"
        "scipy_count = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).scipy_openblas_get_num_threads\n"
        "scipy_count.argtypes, scipy_count.restype = [], ctypes.c_int\n"
        "def counts():\n"
        "    return [g() for _, g in _blas._controls()] + [scipy_count()]\n"
        "with _blas.single_thread() as threads:\n"
        "    inside = counts()\n"
        "print(json.dumps([threads, inside, counts()]))\n",
        OPENBLAS_NUM_THREADS="2",
    )
    assert threads == 1
    assert (inside, after) == ([1, 2], [2, 2])


def _import_probe(tmp_path, numpy_first: bool, **variables: str) -> list:
    """Threads before and after ``import bosegas``, numpy's count, whether the
    environment came back unchanged, the CPU of a 0.3 s sleep right after the
    import, and the exit code and recorded BLAS count of a ``coeffs`` run."""
    return _fresh(
        "import json, os, resource, time\n"
        + ("import numpy\n" if numpy_first else "")
        + "def cpu():\n"
        "    usage = resource.getrusage(resource.RUSAGE_SELF)\n"
        "    return usage.ru_utime + usage.ru_stime\n"
        "environ = dict(os.environ)\n"
        "before = len(os.listdir('/proc/self/task'))\n"
        "import bosegas\n"
        "from bosegas import _blas\n"
        "from bosegas.cli import main\n"
        "after = len(os.listdir('/proc/self/task'))\n"
        "counts = [g() for _, g in _blas._controls()]\n"
        "unchanged = dict(os.environ) == environ\n"
        "start = cpu()\n"
        "time.sleep(0.3)\n"
        "idle_cpu = cpu() - start\n"
        f"out = {str(tmp_path / 'coeffs')!r}\n"
        f"code = main([*{COEFFS!r}, '--output-dir', out])\n"
        "with open(os.path.join(out, 'provenance.json')) as fh:\n"
        "    recorded = json.load(fh)['blas_threads']\n"
        "print(json.dumps([before, after, counts, unchanged, idle_cpu, code, recorded]))\n",
        **variables,
    )


@needs_workers
def test_import_loads_numpy_at_one_thread(tmp_path):
    # with no count set, numpy's OpenBLAS would start a worker at load that
    # busy-waits for about 0.1 s, part of it inside the first command
    before, after, counts, unchanged, idle_cpu, code, recorded = _import_probe(tmp_path, False)
    assert (before, after, counts) == (1, 1, [1])
    assert unchanged
    assert idle_cpu < 0.01
    assert (code, recorded) == (0, 1)


@needs_workers
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_import_honours_the_callers_count(tmp_path, variable):
    before, after, counts, unchanged, _, code, recorded = _import_probe(
        tmp_path, False, **{variable: "2"})
    assert (before, after, counts) == (1, 2, [2])
    assert unchanged
    assert (code, recorded) == (0, 1)


@needs_workers
def test_import_after_numpy_leaves_its_count(tmp_path):
    # numpy loaded first has started its workers already; the import
    # neither stops them nor changes the count
    before, after, counts, unchanged, _, code, recorded = _import_probe(tmp_path, True)
    assert before == after >= 2
    assert counts == [before]
    assert unchanged
    assert (code, recorded) == (0, 1)
