"""The traced benchmark wraps package functions by name; every name must resolve.

``perfbench/child.py`` replaces each ``(module, attribute)`` of its
``WRAPPED`` list with a timing wrapper when an op runs with ``--trace 1``.
A refactor that renames or stops importing one of them would break traced
runs only, so this guards them in the ordinary test run.
"""

import importlib
import importlib.util
from pathlib import Path

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
