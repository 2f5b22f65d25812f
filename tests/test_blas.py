"""The BLAS pin: one thread inside the block, the caller's counts restored after."""

import json

import pytest

from bosegas import _blas
from bosegas.cli import main

COEFFS = ["coeffs", "--set", "cutoff_norm_sq=20", "--set", "a_override=0.1"]


def counts() -> list[int]:
    return [getter() for _, getter in _blas._controls()]


@pytest.fixture
def two_threads():
    """Both libraries at two threads, so that a restored count is told apart from 1."""
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
    _blas._controls.cache_clear()
    try:
        assert _blas._controls() == ()
        with _blas.single_thread() as threads:
            assert threads == "unpinned"
            assert [getter() for getter in getters] == real
    finally:
        _blas._controls.cache_clear()


def test_main_leaves_the_callers_count(two_threads, tmp_path):
    out = tmp_path / "coeffs"
    assert main([*COEFFS, "--output-dir", str(out)]) == 0
    assert set(counts()) == {2}
    assert json.loads((out / "provenance.json").read_text())["blas_threads"] == 1
