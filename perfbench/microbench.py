"""Metric-node microbenchmark and exact work-count probes of the traced run.

``node_throughput`` times ``F_many``/``in_domain_many``/``tensor_many`` at
batch 1 and batch 1e5 on four fixed metric trees (Euclidean, Randers, the
Lorentz gauge and the depth-3 tree).  ``probes`` counts, on fixed inputs,
the nested ConicMetric method calls per top-level call on the depth-3 tree
and the top-level ``tensor_many`` calls per RK4 step on randers_posdep.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

import tracing
import workloads

NODE_TREES = {
    "euclidean": workloads.EUCLID,
    "randers": workloads.RANDERS,
    "lorentz": workloads.LORENTZ,
    "tree": workloads.TREE,
}
# Angles inside each metric's cone (the Lorentz cone is (pi/4, 3pi/4)).
NODE_ANGLES = {"lorentz": (np.pi / 4 + 0.1, 3 * np.pi / 4 - 0.1)}
METHODS = ("F_many", "in_domain_many", "tensor_many")
B1_CALLS = 25
BIG_BATCH = 100_000
BIG_CALLS = 3


def _metric(fk, tree):
    spec, _ = fk.cli.parse_config(json.dumps({"metric": tree}))
    return fk.cli.build_metric(spec).metric


def _median_call_s(fn, base, vec, calls):
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn(base, vec)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def node_throughput(fk, seed: int) -> dict:
    rng = np.random.default_rng([seed, 99])
    out = {}
    for tag, tree in NODE_TREES.items():
        m = _metric(fk, tree)
        lo, hi = NODE_ANGLES.get(tag, (0.0, 2.0 * np.pi))
        th = rng.uniform(lo, hi, size=BIG_BATCH)
        vecs = rng.uniform(0.5, 2.0, size=(BIG_BATCH, 1)) * np.stack([np.cos(th), np.sin(th)], -1)
        bases = np.zeros_like(vecs)
        for meth in METHODS:
            fn = getattr(m, meth)
            fn(bases[0], vecs[0])  # first call of a path pays one-off costs
            out[f"metrics.{meth}.{tag}.b1_us"] = 1e6 * _median_call_s(fn, bases[0], vecs[0], B1_CALLS)
            out[f"metrics.{meth}.{tag}.b1e5_ms"] = 1e3 * _median_call_s(fn, bases, vecs, BIG_CALLS)
    return out


def probes(fk) -> dict:
    tree = _metric(fk, workloads.TREE)
    out = {}
    for meth, name in (("F_many", "node_calls_per_F"), ("tensor_many", "node_calls_per_tensor")):
        tr = tracing.Tracer()
        tr.keep_spans = False
        for attr in METHODS:
            tr.patch(fk.metrics.ConicMetric, attr, f"metrics.{attr}")
        try:
            getattr(tree, meth)(np.zeros(2), np.array([1.0, 0.3]))
        finally:
            tr.unpatch_all()
        out[f"combinators.{name}"] = float(sum(tr.calls.values()))

    rp = _metric(fk, workloads.RANDERS_POSDEP)
    tr = tracing.Tracer()
    tr.keep_spans = False
    tracing.install(tr, fk)
    try:
        fk.geodesy.geodesic_shoot(rp, fk.geodesy.GeodesicState([0.0, 0.0], [1.0, 0.3], 0.0), 0.1, 0.01)
    finally:
        tr.unpatch_all()
    per_step = tr.pair_calls[("geodesy.integrate", "metrics.tensor_many")] / tr.counters["rk4.steps"]
    out["geodesy.tensor_calls_per_rk4_step"] = float(per_step)
    return out
