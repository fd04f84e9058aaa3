"""Record the default-seed transcript digests that run.py checks.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json: for each workload, the sha256 of each of the
first operations' transcripts under the default seed. A change that alters
these digests changes behaviour; say so rather than re-recording quietly.
"""

import json
import os
import shutil

import run

OPERATIONS = {"exchange-512": 60, "bulk-goods": 36, "toy-sweep": 300}


def main() -> None:
    pkg = run.import_package()
    work_dir = run.OUT_DIR / "record"
    work_dir.mkdir(parents=True, exist_ok=True)
    path = os.path.join(work_dir, "transcript.jsonl")
    digests = {}
    try:
        for name, count in OPERATIONS.items():
            workload = run.WORKLOADS[name]
            digests[name] = []
            for index in range(count):
                result = run.run_op(pkg, workload, run.plan(workload, run.DEFAULT_SEED, index),
                                    path, 1)
                if result.problem is not None:
                    raise SystemExit(f"{name} op {index}: {result.problem}")
                digests[name].append(result.digest)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps({"seed": run.DEFAULT_SEED, "workloads": digests},
                                      indent=1) + "\n")


if __name__ == "__main__":
    main()
