"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of finslerkit from the outside: it
replaces module attributes (at the place where callers look the name up)
and ``ConicMetric`` methods with wrappers that record one span per call.
A span holds its name, start, end, parent span and job id.  Spans stay in
memory and are written out when the run ends; self time (duration minus
the time covered by child spans) and per-name aggregates are kept as the
spans close, so the report needs no second pass over the spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.name = array("l")
        self.keep_spans = True
        self.job_id = -1
        self._stack: list[list] = []  # [span index, name id, child time]
        self._active = defaultdict(int)  # name id -> open spans of that name
        self._active_layer = defaultdict(int)  # layer -> open spans of that layer
        self._paused = 0
        self._patches: list[tuple[object, str, object]] = []
        self.calls = defaultdict(int)  # name -> calls
        self.self_s = defaultdict(float)  # name -> summed self time
        self.outer_s = defaultdict(float)  # name -> time of spans not nested in the same name
        self.layer_outer_s = defaultdict(float)  # layer -> time of spans not nested in the layer
        self.pair_calls = defaultdict(int)  # (parent name, name) -> calls
        self.pair_s = defaultdict(float)  # (parent name, name) -> summed duration
        self.counters = defaultdict(float)  # filled by observers

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrapping --------------------------------------------------------
    def wrap(self, name: str, fn, observe=None):
        """Wrapper recording a span per call of ``fn``.

        ``observe(tracer, args, kwargs, result)`` may record counters and
        may return a replacement result (``None`` keeps the original).
        """
        nid = self._id(name)
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            outer = tracer._active[nid] == 0
            outer_layer = tracer._active_layer[layer] == 0
            tracer._active[nid] += 1
            tracer._active_layer[layer] += 1
            idx = -1
            if tracer.keep_spans:
                idx = len(tracer.start)
                tracer.start.append(0.0)
                tracer.end.append(0.0)
                tracer.parent.append(parent[0] if parent else -1)
                tracer.job.append(tracer.job_id)
                tracer.name.append(nid)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._active[nid] -= 1
                tracer._active_layer[layer] -= 1
                dur = t1 - t0
                if idx >= 0:
                    tracer.start[idx] = t0
                    tracer.end[idx] = t1
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[2]
                if outer:
                    tracer.outer_s[name] += dur
                if outer_layer:
                    tracer.layer_outer_s[layer] += dur
                if parent is not None:
                    parent[2] += dur
                    key = (tracer.names[parent[1]], name)
                    tracer.pair_calls[key] += 1
                    tracer.pair_s[key] += dur
            if observe is not None:
                replaced = observe(tracer, args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, observe=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def unpatch_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def pause(self):
        """Calls inside the block (the benchmark's own checks) record no spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def span_count(self) -> int:
        return len(self.start)


class _NoTracer:
    """Stand-in used by untraced passes: pausing is a no-op."""

    job_id = -1

    def pause(self):
        return contextlib.nullcontext()


NO_TRACER = _NoTracer()


# ---------------------------------------------------------------------------
# What the traced run wraps
# ---------------------------------------------------------------------------


def pairs_tried(resolution: int, neighbor_radius: int, dim: int) -> int:
    """Ordered node pairs a grid build tests: every nonzero offset within
    the radius times the nodes whose offset target stays on the grid."""
    per_axis = sum(max(0, resolution - abs(o)) for o in range(-neighbor_radius, neighbor_radius + 1))
    return per_axis**dim - resolution**dim


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _observe_graph(tracer, args, kwargs, graph):
    resolution = int(_arg(args, kwargs, 2, "resolution"))
    radius = int(_arg(args, kwargs, 3, "neighbor_radius"))
    tracer.counters["graph.edges_kept"] += int(graph.matrix.nnz)
    tracer.counters["graph.pairs_tried"] += pairs_tried(resolution, radius, graph.nodes.shape[1])


def _observe_integrate(tracer, args, kwargs, result):
    tracer.counters["rk4.steps"] += len(result[2]) - 1  # the times ts hold n_steps + 1 entries


def _observe_ball_gauge(tracer, args, kwargs, gauge):
    import dataclasses

    evaluate = tracer.wrap("minkowski.ball_gauge_value", gauge.value_unchecked)
    return dataclasses.replace(gauge, value_unchecked=evaluate)


def install(tracer: Tracer, fk) -> None:
    """Patch every traced function of the package namespace ``fk``."""
    cli, me, cb, gd, mk, nk = fk.cli, fk.metrics, fk.combinators, fk.geodesy, fk.minkowski, fk.numkernel
    for attr in ("parse_config", "build_metric", "run_command", "write_csv"):
        tracer.patch(cli, attr, f"cli.{attr}")
    for attr in ("F_many", "in_domain_many", "tensor_many"):
        tracer.patch(me.ConicMetric, attr, f"metrics.{attr}")
    for attr in ("eval_F", "tensor", "classify_point", "convexity_scan"):
        tracer.patch(me, attr, f"metrics.{attr}")
    tracer.patch(cb, "tensor", "metrics.tensor")
    for owner in (me, cb, nk):
        tracer.patch(owner, "eigen_classify", "numkernel.eigen_classify")
    for owner in (me, nk):
        tracer.patch(owner, "fd_hessian_batch", "numkernel.fd_hessian_batch")
    tracer.patch(mk, "ray_root", "numkernel.ray_root")
    tracer.patch(mk, "gauge_from_ball", "minkowski.gauge_from_ball", _observe_ball_gauge)
    for attr in ("combine", "power_q_combine", "phi_combine", "f1f2_combine", "named_family", "reversibilize"):
        tracer.patch(cb, attr, f"combinators.{attr}")
    tracer.patch(gd, "build_separation_graph", "geodesy.build_separation_graph", _observe_graph)
    for attr in (
        "separation",
        "df_ball",
        "reachability",
        "geodesic_shoot",
        "exp_map",
        "gauss_residuals",
        "radial_minimality_test",
        "curve_length",
    ):
        tracer.patch(gd, attr, f"geodesy.{attr}")
    # private, but the only place that knows the RK4 step count
    tracer.patch(gd, "_integrate", "geodesy.integrate", _observe_integrate)


# ---------------------------------------------------------------------------
# Per-layer report
# ---------------------------------------------------------------------------


def layer_metrics(tr: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer figures from the aggregates of ``passes`` traced passes."""
    ms = 1000.0 / passes

    def per(x):
        return x / passes

    build = "geodesy.build_separation_graph"
    pairs = tr.counters["graph.pairs_tried"]
    steps = tr.counters["rk4.steps"]
    out = {
        "cli.parse_build_ms": (tr.outer_s["cli.parse_config"] + tr.outer_s["cli.build_metric"]) * ms,
        "cli.run_command_self_ms": tr.self_s["cli.run_command"] * ms,
        "cli.write_csv_ms": tr.outer_s["cli.write_csv"] * ms,
    }
    for meth in ("F_many", "in_domain_many", "tensor_many"):
        out[f"metrics.{meth}.calls"] = per(tr.calls[f"metrics.{meth}"])
        out[f"metrics.{meth}.self_ms"] = tr.self_s[f"metrics.{meth}"] * ms
    out["metrics.pointwise.calls"] = per(
        sum(tr.calls[f"metrics.{n}"] for n in ("eval_F", "tensor", "classify_point"))
    )
    out["metrics.convexity_scan_ms"] = tr.outer_s["metrics.convexity_scan"] * ms
    out["combinators.build_ms"] = tr.layer_outer_s["combinators"] * ms
    out["minkowski.gauge_from_ball_ms"] = (
        tr.outer_s["minkowski.gauge_from_ball"] + tr.outer_s["minkowski.ball_gauge_value"]
    ) * ms
    vectors = tr.counters["ball.vectors"]
    out["minkowski.ball_member_calls_per_vector"] = tr.counters["ball.member_calls"] / vectors if vectors else 0.0
    out["numkernel.eigen_classify.calls"] = per(tr.calls["numkernel.eigen_classify"])
    out["numkernel.eigen_classify.ms"] = tr.outer_s["numkernel.eigen_classify"] * ms
    out["numkernel.fd_hessian_batch_ms"] = tr.outer_s["numkernel.fd_hessian_batch"] * ms
    out["numkernel.ray_root.calls"] = per(tr.calls["numkernel.ray_root"])
    out["numkernel.ray_root.ms"] = tr.outer_s["numkernel.ray_root"] * ms
    out["geodesy.graph_build_ms"] = tr.outer_s[build] * ms
    out["geodesy.graph.domain_ms"] = tr.pair_s[(build, "metrics.in_domain_many")] * ms
    out["geodesy.graph.quad_ms"] = tr.pair_s[(build, "metrics.F_many")] * ms
    out["geodesy.graph.assembly_ms"] = tr.self_s[build] * ms
    out["geodesy.graph.edges_kept"] = per(tr.counters["graph.edges_kept"])
    out["geodesy.graph.edge_keep_ratio"] = tr.counters["graph.edges_kept"] / pairs if pairs else 0.0
    out["geodesy.dijkstra_ms"] = sum(
        tr.outer_s[f"geodesy.{n}"] for n in ("separation", "df_ball", "reachability")
    ) * ms
    out["geodesy.integrate_ms"] = tr.outer_s["geodesy.integrate"] * ms
    out["geodesy.rk4_step_us"] = tr.outer_s["geodesy.integrate"] / steps * 1e6 if steps else 0.0
    out["geodesy.curve_length_ms"] = tr.outer_s["geodesy.curve_length"] * ms
    return out


def name_table(tr: Tracer, passes: int) -> list[dict]:
    """Calls, self time and outermost time per span name, per pass."""
    rows = []
    for name in sorted(tr.calls):
        rows.append(
            {
                "name": name,
                "calls": tr.calls[name] / passes,
                "self_ms": tr.self_s[name] * 1000.0 / passes,
                "outer_ms": tr.outer_s[name] * 1000.0 / passes,
            }
        )
    return rows


def write_spans(tr: Tracer, path) -> None:
    import numpy as np

    np.savez(
        path,
        names=np.array(tr.names),
        name=np.array(tr.name, dtype=np.int64),
        start=np.array(tr.start, dtype=np.float64),
        end=np.array(tr.end, dtype=np.float64),
        parent=np.array(tr.parent, dtype=np.int64),
        job=np.array(tr.job, dtype=np.int64),
    )
