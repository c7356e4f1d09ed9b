"""Regenerate ``reference.json``: fingerprints of every shipped job's output.

    python3 perfbench/make_reference.py   # from the repository root

The benchmark compares shipped jobs against these values at the test
suite's tolerance (see ``workloads.fingerprint``).  Regenerate only when a
change to finslerkit is meant to change shipped outputs.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        for job in workloads.shipped_jobs(name, None, workloads.MetricCache()):
            if job.label not in reference:
                reference[job.label] = workloads.fingerprint(job.execute())
    lines = [f"{json.dumps(label)}: {json.dumps(reference[label], sort_keys=True)}" for label in sorted(reference)]
    workloads.REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one job per line
    print(f"wrote {len(reference)} shipped-job references to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
