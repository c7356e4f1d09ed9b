"""Set-up time of one workload, measured in fresh processes.

    python3 perfbench/setup_probe.py < configs.json

Reads the workload's config texts (a JSON list) from standard input.  This
process imports nothing but the standard library; it forks ``RUNS``
children one after another, and each child times ``import finslerkit``
(with its CLI module) plus ``parse_config`` and ``build_metric`` for every
config.  Forking saves an interpreter start per run, and every child still
imports numpy, scipy and finslerkit from scratch.  Prints the children's
times as ``{"setup_s": [...], "raw_s": [...]}``, ``setup_s`` in nominal
seconds (see ``clock.py``).  ``run.py`` starts it before its warm-up pass
and after every measured pass, and reports the median of all the times.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import time
import traceback
from pathlib import Path

RUNS = 2


def child(texts: list) -> dict:
    t0 = time.perf_counter()
    import finslerkit.cli as cli

    for text in texts:
        spec, _ = cli.parse_config(text)
        cli.build_metric(spec)
    raw = time.perf_counter() - t0

    import clock

    return {"setup_s": raw * clock.Calibrator().factor(), "raw_s": raw}


def main() -> int:
    texts = json.load(sys.stdin)
    sys.path[:0] = [str(Path.cwd() / "src"), str(Path(__file__).resolve().parent)]
    runs = []
    for _ in range(RUNS):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            try:
                os.write(write_fd, json.dumps(child(texts)).encode())
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            out = pipe.read()
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            print("setup probe: a child failed", file=sys.stderr)
            return 1
        runs.append(json.loads(out))
    print(json.dumps({key: [r[key] for r in runs] for key in ("setup_s", "raw_s")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
