"""The determinism contract across commits: every data file of the recorded
runs has the bytes ``tests/digests.json`` holds for it.

A change that moves bytes re-records the manifest with
``tests/record_digests.py``.  Where the environment differs from the one
the manifest was recorded in, differing bytes are reported as that
difference, not as a broken contract.
"""

import json

import pytest

from record_digests import MANIFEST, environment, run_digests, runs


def test_data_files_match_the_recorded_digests(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    recorded = manifest["runs"]
    assert sorted(recorded) == sorted(runs())
    moved = []
    for i, (name, argvs) in enumerate(runs().items()):
        digests = run_digests(argvs, tmp_path / str(i))
        assert sorted(digests) == sorted(recorded[name]), name
        moved += [f"{name}/{file}" for file in digests if digests[file] != recorded[name][file]]
    here = environment()
    if moved and here != manifest["environment"]:
        differing = {key: (manifest["environment"].get(key), value)
                     for key, value in here.items() if manifest["environment"].get(key) != value}
        pytest.skip(f"recorded in another environment (recorded, here): {differing}; "
                    f"{len(moved)} files differ, first {moved[0]}")
    assert moved == []
