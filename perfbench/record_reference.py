"""Record ``reference.json``: the fingerprint of every case's outputs.

Run from the repository root, on a program whose outputs are trusted:

    python3 perfbench/record_reference.py

Each case of every workload runs once as an untraced op; its outputs must
pass the checks that need no reference before they are recorded.
"""

import json
import sys

from checks import REFERENCE, fingerprint, read_payload
from run import WORK, run_op
from workloads import WORKLOADS


def main() -> int:
    reference = {}
    for name, workload in WORKLOADS.items():
        reference[name] = {}
        for case in workload["cases"]:
            op = run_op(name, case, 0, False, None)
            if op["problems"]:
                print(f"{name} {case['id']}: {op['problems']}", file=sys.stderr)
                return 1
            out_dir = WORK / name / "out"
            reference[name][case["id"]] = {
                file: fingerprint(read_payload(out_dir / file))
                for file in workload["files"] if file != "provenance.json"
            }
            print(f"{name} {case['id']}: {op['op_s']:.2f} s")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
