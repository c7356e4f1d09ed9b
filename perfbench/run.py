"""finslerkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: it imports finslerkit from ``src/``.  Each
workload (see ``workloads.py``) is a fixed, seeded list of jobs run one
after another in this single process, with BLAS/OpenMP threads pinned to 1.
After one warm-up pass it repeats the job list for at least S seconds and
at least four passes, checking every output.

``--trace 0`` reports the end-to-end metrics, in nominal seconds (each
job's time scaled by a reference kernel sampled around it, see
``clock.py``): ``wall_s`` (one warm pass: the sum over jobs of each job's
median run + check time), ``shipped_job_ms`` (median over the jobs taken
unchanged from ``configs/*.json`` of their median latency), ``setup_s``
(median over fresh processes, two before the warm-up pass and two after
every measured pass, of importing finslerkit plus parse_config +
build_metric for every job) and ``peak_rss_mb``.

``--trace 1`` alternates untraced and traced passes and reports per-layer
self time and call counts from spans recorded around the package's public
functions (``tracing.py``), the metric-node microbenchmark and exact work
counts (``microbench.py``), and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; names and units come from
``BENCHMARK.json``.  Result files go to ``.perfbench_out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in child processes

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock
import tracing

HERE = Path(__file__).resolve().parent
MIN_PASSES = 4
OUT_DIR = Path(".perfbench_out")


def run_pass(wl, tracer, cal, failures: list) -> dict:
    """Run every job once and check its output.

    Returns the (run s, check s) of each job and the reference-kernel
    times sampled before the first job and after every job.
    """
    times, samples = [], [cal.sample()]
    for k, job in enumerate(wl.jobs):
        tracer.job_id = k
        t0 = time.perf_counter()
        try:
            out = job.execute()
        except Exception as exc:  # a job that raises counts as failed; the pass goes on
            out = None
            failures.append(f"{job.label}: raised {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        if out is not None:
            with tracer.pause():
                try:
                    job.check(out)
                except Exception as exc:
                    failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
        times.append((t1 - t0, time.perf_counter() - t1))
        samples.append(cal.sample())
    tracer.job_id = -1
    return {"jobs": times, "kernel_s": samples}


def job_seconds(passes: list, part=lambda run, check: run + check, scaled: bool = True) -> list:
    """Per job, its median over passes of ``part`` in nominal (or raw) seconds.

    Each job is scaled by NOMINAL_S over the mean of the kernel times
    sampled just before and just after it (see ``clock.py``).
    """
    per_job = [[] for _ in passes[0]["jobs"]]
    for p in passes:
        kernel = p["kernel_s"]
        for k, (run, check) in enumerate(p["jobs"]):
            scale = clock.NOMINAL_S / (0.5 * (kernel[k] + kernel[k + 1])) if scaled else 1.0
            per_job[k].append(part(run, check) * scale)
    return [statistics.median(v) for v in per_job]


def measure_setup(wl, setup: dict) -> None:
    """Append the set-up times of a few fresh processes (``setup_probe.py``) to ``setup``."""
    texts = json.dumps([job.config for job in wl.jobs if job.config is not None])
    cmd = [sys.executable, str(HERE / "setup_probe.py")]
    proc = subprocess.run(cmd, input=texts, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    for key, values in json.loads(proc.stdout.strip().splitlines()[-1]).items():
        setup.setdefault(key, []).extend(values)


def untraced(wl, args, failures) -> tuple[dict, dict]:
    # The host's speed changes every few seconds and the reference kernel corrects
    # set-up time for it only in part, so set-up is sampled before the warm-up
    # and after every pass rather than all at once.
    setup: dict = {}
    measure_setup(wl, setup)
    cal = clock.Calibrator()
    run_pass(wl, tracing.NO_TRACER, cal, failures)  # warm-up: lazy imports, caches
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        passes.append(run_pass(wl, tracing.NO_TRACER, cal, failures))
        measure_setup(wl, setup)
    job_ms = [1000.0 * t for t in job_seconds(passes, lambda run, check: run)]
    metrics = {
        "wall_s": sum(job_seconds(passes)),
        "shipped_job_ms": statistics.median(ms for ms, job in zip(job_ms, wl.jobs) if job.shipped),
        "setup_s": statistics.median(setup["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "passes": 1 + len(passes),
        "raw_wall_s": sum(job_seconds(passes, scaled=False)),
        "setup_runs_s": setup["setup_s"],
        "setup_runs_raw_s": setup["raw_s"],
        "job_median_ms": job_ms,
        "pass_records": passes,
    }
    return metrics, detail


def traced(wl, args, failures, fk) -> tuple[dict, dict]:
    import microbench

    NO = tracing.NO_TRACER
    cal = clock.Calibrator()
    run_pass(wl, NO, cal, failures)  # warm-up
    tracer = tracing.Tracer()
    plain, with_spans = [], []
    t0 = time.perf_counter()
    while not with_spans or time.perf_counter() - t0 < args.seconds:
        plain.append(run_pass(wl, NO, cal, failures))
        tracer.keep_spans = not with_spans  # spans of the first traced pass only
        before = dict(wl.counters)
        tracing.install(tracer, fk)
        try:
            with_spans.append(run_pass(wl, tracer, cal, failures))
        finally:
            tracer.unpatch_all()
        for key, val in wl.counters.items():
            tracer.counters[key] += val - before.get(key, 0)
    metrics = tracing.layer_metrics(tracer, len(with_spans))
    traced_s, plain_s = sum(job_seconds(with_spans)), sum(job_seconds(plain))
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.spans_per_pass"] = float(tracer.span_count())
    metrics.update(microbench.probes(fk))
    metrics.update(microbench.node_throughput(fk, wl.seed))
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{wl.name}-seed{wl.seed}-spans.npz"
    tracing.write_spans(tracer, spans_path)
    detail = {
        "passes": 1 + len(plain) + len(with_spans),
        "untraced_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "layers": tracing.name_table(tracer, len(with_spans)),
        "spans_file": str(spans_path),
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    spec_path = Path.cwd() / "BENCHMARK.json"
    if not (src / "finslerkit" / "__init__.py").is_file():
        print("perfbench: run from a finslerkit checkout (src/finslerkit not found)", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print("perfbench: BENCHMARK.json not found in the working directory", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))
    import workloads

    import finslerkit.cli
    import finslerkit as fk

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    failures: list = []
    if args.trace:
        values, detail = traced(wl, args, failures, fk)
        declared = spec["per_layer"]
    else:
        values, detail = untraced(wl, args, failures)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1

    attempted = detail["passes"] * len(wl.jobs)
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": wl.name,
        "why": workloads.WORKLOADS[wl.name],
        "seed": wl.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "job_count": len(wl.jobs),
        "jobs": [{"id": k, "label": j.label, "shipped": j.shipped, "sizes": j.sizes} for k, j in enumerate(wl.jobs)],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "metrics": metrics,
        **detail,
    }
    path = OUT_DIR / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float))

    for msg in failures[:20]:
        print(f"FAILED {msg}")
    for name, m in metrics.items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{wl.name} jobs_attempted = {attempted}, jobs_failed = {len(failures)} ({len(wl.jobs)} jobs per pass)")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
