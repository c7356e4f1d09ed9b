"""Seeded workloads: fixed job lists with an independent check per job.

A job is one CLI command (parse_config -> build_metric -> run_command ->
write_csv, called in-process through ``finslerkit.cli``) or one public
library call on a metric built from a config tree.  Inputs come from the
seed and from cone geometry written here (angle intervals, grid cones);
the metric under test is never called to pick or filter them.

Jobs taken unchanged from the shipped ``configs/*.json`` are compared with
``reference.json`` (see ``make_reference.py``); every other job is judged
by closed forms, identities or the acceptance criteria of the test suite.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from finslerkit import cli
from finslerkit import geodesy as gd
from finslerkit import minkowski as mk
from tracing import pairs_tried

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = {
    "posdep_graph": "graph build on position-dependent metrics, where nested F_many/in_domain_many "
    "calls inside build_separation_graph take most of the time",
    "cone_graph": "constant-metric graphs on cones with many Dijkstra queries, where sparse "
    "assembly and Dijkstra do the work and metric evaluation is negligible",
    "geodesic_flow": "RK4 geodesics, exponential map, Gauss lemma and radial minimality on "
    "position-dependent metrics: tensor_many with position derivatives, no graph",
    "pointwise_batch": "per-sample CLI loops, eigen classification, the finite-difference oracle "
    "and ray_root gauges, plus every small shipped pointwise job",
}

# Shipped config sections each workload runs unchanged.
SHIPPED = {
    "posdep_graph": [("euclidean", "separation"), ("halfplane_dy", "reach"), ("halfplane_dy", "separation")],
    "cone_graph": [
        ("euclidean", "separation"),
        ("halfplane_dy", "reach"),
        ("halfplane_dy", "separation"),
        ("lorentz_cone_ex36", "separation"),
        ("lorentz_cone_ex36", "reach"),
        ("lorentz_cone_ex36", "ball"),
    ],
    "geodesic_flow": [("randers_posdep", "geodesic"), ("randers_posdep", "expmap"), ("randers_posdep", "gauss")],
    "pointwise_batch": [
        (name, cmd)
        for name in (
            "euclidean",
            "f1f2_matsumoto",
            "kropina",
            "lorentz_ex216",
            "matsumoto",
            "parabola_ex215",
            "power_q2",
            "randers",
            "spiral_ex213",
            "sqrt_parabola_ex214",
            "sum_pair",
            "wavy_ex212",
        )
        for cmd in ("eval", "tensor", "classify", "scan", "detcheck", "oracle", "indicatrix")
    ],
}

# Metric trees.  Closed forms below are derived by hand, not by the package.
EUCLID = {"type": "euclidean", "dimension": 2}
RANDERS = {"type": "named", "family": "randers", "b": 0.5}
LORENTZ = {"type": "lorentz_example"}
MATSUMOTO = {"type": "named", "family": "matsumoto", "q": 1.0, "b": 0.5}
RANDERS_POSDEP = {
    "type": "named",
    "family": "randers",
    "base": {"type": "euclidean", "dimension": 2},
    "form": {"coeff_exprs": ["0.3*(1+0.2*sin(x))", "0"]},
}
RP_B_MAX = 0.36  # |0.3 (1 + 0.2 sin x)| <= 0.36
RIEMANN_POSDEP = {
    "type": "riemannian",
    "matrix_expr": [["1+0.3*sin(x)**2", "0.1*cos(y)"], ["0.1*cos(y)", "1+0.2*cos(y)"]],
}
RIEMANN_EIG = (0.7, 1.4)  # Gershgorin bounds of the matrix above


def _tree(form: dict) -> dict:
    """power_q (q=2) over [reversibilize(sum, randers b=0.5), randers b=0.5] plus a form."""
    return {
        "type": "power_q",
        "q": 2.0,
        "metrics": [{"type": "reversibilize", "mode": "sum", "inner": RANDERS}, RANDERS],
        "forms": [form],
    }


TREE = _tree({"coeffs": [0.2, 0.1]})
TREE_POSDEP = _tree({"coeff_exprs": ["0.2*(1+0.1*sin(y))", "0.1"]})

GRAPH_DETOUR = 1.03  # grid path over straight segment, with R >= 4 (measured <= 1.008)


class CheckFailed(Exception):
    pass


def expect(cond, msg: str) -> None:
    if not bool(cond):
        raise CheckFailed(msg)


@dataclass
class CliOutput:
    summary: dict
    header: list
    rows: list

    def column(self, name: str) -> np.ndarray:
        i = self.header.index(name)
        return np.array([r[i] for r in self.rows])

    def columns(self, prefix: str) -> np.ndarray:
        return np.stack([self.column(f"{prefix}{i}").astype(float) for i in range(2)], axis=-1)


@dataclass
class Job:
    label: str
    config: Optional[str]  # JSON text for cli.parse_config (None: no metric config)
    execute: Callable[[], object] = field(repr=False)
    check: Callable[[object], None] = field(repr=False)
    sizes: dict = field(default_factory=dict)
    shipped: bool = False


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list
    counters: dict = field(default_factory=dict)  # work counts the benchmark's own code observes


# ---------------------------------------------------------------------------
# Job constructors
# ---------------------------------------------------------------------------


def cli_job(label, doc: dict, command: str, check, sizes, shipped=False) -> Job:
    text = json.dumps(doc)

    def execute():
        spec, cfg = cli.parse_config(text)
        cli.build_metric(spec)
        summary, header, rows = cli.run_command(command, spec, cfg)
        buf = io.StringIO()
        cli.write_csv(buf, header, rows)
        return CliOutput(summary, header, rows)

    return Job(label, text, execute, check, sizes, shipped)


def lib_job(label, tree: dict, call, check, sizes) -> Job:
    text = json.dumps({"metric": tree})

    def execute():
        spec, _ = cli.parse_config(text)
        return call(cli.build_metric(spec).metric)

    return Job(label, text, execute, check, sizes)


class MetricCache:
    """Metrics the checks evaluate, built once per config text."""

    def __init__(self):
        self._built = {}

    def __call__(self, tree_or_text):
        text = tree_or_text if isinstance(tree_or_text, str) else json.dumps({"metric": tree_or_text})
        if text not in self._built:
            spec, _ = cli.parse_config(text)
            self._built[text] = cli.build_metric(spec).metric
        return self._built[text]


# ---------------------------------------------------------------------------
# Closed forms and independent checks
# ---------------------------------------------------------------------------


def _norm(v):
    return np.linalg.norm(v, axis=-1)


def f_randers(v, b=0.5):
    return _norm(v) + b * v[..., 0]


def f_tree(v):
    n = _norm(v)
    return np.sqrt(4.0 * n * n + (n + 0.5 * v[..., 0]) ** 2 + (0.2 * v[..., 0] + 0.1 * v[..., 1]) ** 2)


def f_matsumoto(v, b=0.5):
    n = _norm(v)
    return n * n / (n - b * v[..., 0])


def f_randers_posdep(x, v):
    return _norm(v) + 0.3 * (1.0 + 0.2 * np.sin(x[..., 0])) * v[..., 0]


def f_riemann_posdep(x, v):
    a = 1.0 + 0.3 * np.sin(x[..., 0]) ** 2
    c = 0.1 * np.cos(x[..., 1])
    d = 1.0 + 0.2 * np.cos(x[..., 1])
    return np.sqrt(a * v[..., 0] ** 2 + 2.0 * c * v[..., 0] * v[..., 1] + d * v[..., 1] ** 2)


def fd_tensor(f, v):
    """Hessians of f^2/2 at the rows of v, by central differences of the closed form f."""
    h = 1e-4 * np.maximum(1.0, _norm(v))[:, None]
    n = v.shape[-1]
    e = np.eye(n)

    def q(w):
        return 0.5 * f(w) ** 2

    out = np.empty(v.shape + (n,))
    for i in range(n):
        for j in range(n):
            hi, hj = h * e[i], h * e[j]
            out[:, i, j] = (q(v + hi + hj) - q(v + hi - hj) - q(v - hi + hj) + q(v - hi - hj)) / (4.0 * h[:, 0] ** 2)
    return out


def _close(a, b, rtol, what):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    expect(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    err = np.abs(a - b) / np.maximum(1.0, np.abs(b))
    expect(np.all(err <= rtol), f"{what}: max rel err {np.max(err):.3g} > {rtol:g}")


def check_eval(f, vectors):
    def check(out: CliOutput):
        expect(len(out.rows) == len(vectors), "eval row count")
        _close(out.column("F").astype(float), f(vectors), 1e-6, "eval F vs closed form")

    return check


def _tensors(out: CliOutput):
    return np.stack([out.column(f"g{i}{j}").astype(float) for i in range(2) for j in range(2)], -1).reshape(-1, 2, 2)


def check_tensor(f, vectors):
    def check(out: CliOutput):
        g = _tensors(out)
        expect(g.shape[0] == len(vectors), "tensor row count")
        gvv = np.einsum("ki,kij,kj->k", vectors, g, vectors)
        _close(gvv, f(vectors) ** 2, 1e-8, "g_v(v, v) = F^2")
        ref = fd_tensor(f, vectors)
        scale = np.maximum(1.0, np.max(np.abs(ref), axis=(-2, -1)))
        err = np.max(np.abs(g - ref), axis=(-2, -1)) / scale
        expect(np.all(err <= 1e-6), f"tensor vs FD of the closed form: {np.max(err):.3g} > 1e-6")

    return check


def check_classify(f, vectors):
    def check(out: CliOutput):
        expect(len(out.rows) == len(vectors), "classify row count")
        cls = out.column("classification")
        expect(np.all(cls == "PositiveDefinite"), "strongly convex metric classified not PD")
        ref = np.linalg.eigvalsh(fd_tensor(f, vectors))[:, 0]
        _close(out.column("min_eigenvalue").astype(float), ref, 1e-6, "min eigenvalue vs FD")

    return check


def witness_length_check(metric, path: np.ndarray, value: float, what: str):
    expect(path.shape[0] >= 2, f"{what}: witness path has {path.shape[0]} points")
    length = gd.curve_length(metric, gd.Polyline(points=path), nodes=gd.EDGE_QUAD_NODES)
    _close(length, value, 1e-6, f"{what}: Simpson length of the witness path")


def lorentz_floor(h: float, Q: np.ndarray, R: int) -> np.ndarray:
    """Lower bound of any grid path climbing Q rows with steps |p| <= q - 1, q <= R.

    Each edge costs h sqrt(q^2 - p^2) >= h sqrt(2q - 1), which is concave in
    q and so at least q h sqrt(2R' - 1) / R' with R' = min(R, Q).  With
    R = Q / 2 this is the 2 sqrt(2h - h^2) floor of criterion 6.
    """
    Rp = np.minimum(R, Q).astype(float)
    return h * Q * np.sqrt(2.0 * Rp - 1.0) / Rp


# ---------------------------------------------------------------------------
# Shipped jobs and their reference values
# ---------------------------------------------------------------------------

ERROR_FIELDS = ("max_rel_err", "max_abs_residual")  # judged by criteria, not by reference
ERROR_COLUMNS = ("rel_err", "residual")
REF_RTOL, REF_ATOL = 1e-6, 1e-12  # pytest.approx defaults, as the test suite compares values


def fingerprint(out: CliOutput) -> dict:
    """Values of a CLI result compared against the stored reference."""
    summary = {}
    for key, val in out.summary.items():
        if key in ("command",) + ERROR_FIELDS:
            continue
        summary[key] = val
    if out.summary["command"] == "separation":
        # equal-length witness paths may tie; the path is judged by its length
        return {"summary": summary}
    columns = {}
    for i, name in enumerate(out.header):
        if name in ERROR_COLUMNS:
            continue
        vals = [r[i] for r in out.rows]
        columns[name] = vals if vals and isinstance(vals[0], (str, bool)) else [float(v) for v in vals]
    return {"summary": summary, "rows": len(out.rows), "columns": columns}


def _same(a, b, what):
    if isinstance(b, dict):
        expect(isinstance(a, dict) and set(a) == set(b), f"{what}: keys {sorted(a)} != {sorted(b)}")
        for k in b:
            _same(a[k], b[k], f"{what}.{k}")
    elif isinstance(b, list):
        expect(isinstance(a, list) and len(a) == len(b), f"{what}: length {len(a)} != {len(b)}")
        if b and isinstance(b[0], float):  # one numeric column, compared row by row
            x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            ok = np.isclose(x, y, rtol=REF_RTOL, atol=REF_ATOL, equal_nan=True)
            bad = np.flatnonzero(~ok)
            expect(bad.size == 0, f"{what}: {bad.size} rows differ, first row {bad[:1]}: {x[bad[:1]]} != {y[bad[:1]]}")
        else:
            expect(a == b, f"{what}: values differ from the reference")
    elif isinstance(b, (bool, str)) or b is None:
        expect(a == b, f"{what}: {a!r} != {b!r}")
    else:
        expect(np.isclose(float(a), float(b), rtol=REF_RTOL, atol=REF_ATOL), f"{what}: {a!r} != reference {b!r}")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def shipped_jobs(workload: str, reference: Optional[dict], metrics: MetricCache) -> list:
    jobs = []
    for name, cmd in SHIPPED[workload]:
        doc = json.loads(cli.builtin_config(name))
        if cmd not in doc["run"]:
            continue
        label = f"shipped/{name}/{cmd}"
        ref = None if reference is None else reference[label]
        text = json.dumps(doc)
        jobs.append(
            cli_job(label, doc, cmd, _shipped_check(name, cmd, text, ref, metrics), {"section": doc["run"][cmd]}, True)
        )
    return jobs


def _shipped_check(name, cmd, text, ref, metrics):
    def check(out: CliOutput):
        if ref is not None:
            _same(fingerprint(out), ref, f"{name}/{cmd} vs reference")
        s = out.summary
        if cmd == "oracle":
            expect(s["max_rel_err"] <= 1e-6 and s["ok"], f"oracle max_rel_err {s['max_rel_err']:.3g} > 1e-6")
        if cmd == "detcheck":
            expect(s["max_rel_err"] < 1e-8, f"detcheck max_rel_err {s['max_rel_err']:.3g} >= 1e-8")
        if cmd == "gauss":
            expect(s["max_abs_residual"] < 1e-4, f"gauss residual {s['max_abs_residual']:.3g} >= 1e-4")
        if cmd == "geodesic":
            F = out.column("F").astype(float)
            expect(np.max(np.abs(F - F[0])) < 1e-6 * F[0], "geodesic speed drift >= 1e-6 F")
        if cmd == "indicatrix":
            pts = out.columns("s")
            F = metrics(text).F_many(np.zeros_like(pts), pts)
            _close(F, np.ones_like(F), 1e-9, "indicatrix F = 1")
        if cmd == "separation":
            path = out.columns("x")
            if name == "euclidean":
                expect(abs(s["value"] - 5.0) <= 0.1, f"euclidean separation {s['value']} not within 2% of 5")
            if name == "lorentz_cone_ex36":
                expect(s["value"] >= 2.0 * np.sqrt(2 * 0.05 - 0.05**2) - 1e-12, "lorentz below the grid floor")
            if s["reachable"]:
                witness_length_check(metrics(text), path, s["value"], f"{name} separation")

    return check


# ---------------------------------------------------------------------------
# Seeded grids
# ---------------------------------------------------------------------------


def _grid(lo, hi, res):
    ax = np.linspace(lo, hi, res)
    return np.stack(np.meshgrid(ax, ax, indexing="ij"), -1).reshape(-1, 2)


def _pick_node(rng, res, lo_j=0, hi_j=None):
    hi_j = res - 1 if hi_j is None else hi_j
    return int(rng.integers(0, res)), int(rng.integers(lo_j, hi_j + 1))


def _randers_posdep_separation(rng, metrics: MetricCache) -> Job:
    """Randers with a position-dependent form: separation between seeded nodes."""
    lo, hi, res, R = -2.0, 2.0, 31, 4
    nodes = _grid(lo, hi, res)
    while True:
        a, b = rng.integers(0, res * res, size=2)
        if _norm(nodes[a] - nodes[b]) >= 2.0:
            break
    src, dst = nodes[a].tolist(), nodes[b].tolist()
    sect = {"box": [[lo, lo], [hi, hi]], "resolution": res, "neighbor_radius": R, "source": src, "target": dst}
    dist = float(_norm(nodes[b] - nodes[a]))

    def check(out: CliOutput):
        s = out.summary
        expect(s["nodes"] == res * res and s["edges"] == pairs_tried(res, R, 2), "every pair admissible")
        expect((1 - RP_B_MAX) * dist <= s["value"] <= (1 + RP_B_MAX) * GRAPH_DETOUR * dist, "separation bounds")
        path = out.columns("x")
        expect(np.allclose(path[0], src) and np.allclose(path[-1], dst), "witness endpoints")
        witness_length_check(metrics(RANDERS_POSDEP), path, s["value"], "randers_posdep separation")

    doc = {"metric": RANDERS_POSDEP, "run": {"separation": sect}}
    return cli_job("separation/randers_posdep", doc, "separation", check, {"resolution": res, "neighbor_radius": R})


def _riemann_posdep_ball(rng) -> Job:
    """Position-dependent Riemannian metric: forward ball around a seeded node."""
    lo, hi, res, R = -2.0, 2.0, 31, 4
    nodes = _grid(lo, hi, res)
    c = int(rng.integers(0, res * res))
    r = float(rng.uniform(0.8, 1.5))
    sect = {"box": [[lo, lo], [hi, hi]], "resolution": res, "neighbor_radius": R, "center": nodes[c].tolist(), "radius": r}
    d = _norm(nodes - nodes[c])
    lam_lo, lam_hi = RIEMANN_EIG

    def check(out: CliOutput):
        idx = out.column("index").astype(int)
        expect(out.summary["count"] == idx.size, "ball count")
        inside = np.zeros(res * res, dtype=bool)
        inside[idx] = True
        must = (np.sqrt(lam_hi) * GRAPH_DETOUR * d < r) & (d > 0)
        never = np.sqrt(lam_lo) * d >= r
        expect(np.all(inside[must]), "ball misses nodes within the upper bound")
        expect(not np.any(inside[never]), "ball holds nodes beyond the lower bound")

    doc = {"metric": RIEMANN_POSDEP, "run": {"ball": sect}}
    return cli_job("ball/riemann_posdep", doc, "ball", check, {"resolution": res, "neighbor_radius": R})


def _tree_posdep_reach(rng) -> Job:
    """Depth-3 tree with a position-dependent form: everything is reachable."""
    lo, hi, res, R = -1.5, 1.5, 15, 3
    s = int(rng.integers(0, res * res))
    sect = {"box": [[lo, lo], [hi, hi]], "resolution": res, "neighbor_radius": R, "source": _grid(lo, hi, res)[s].tolist()}

    def check(out: CliOutput):
        expect(out.summary["count"] == res * res, "tree reach must cover the grid")

    doc = {"metric": TREE_POSDEP, "run": {"reach": sect}}
    return cli_job("reach/tree_posdep", doc, "reach", check, {"resolution": res, "neighbor_radius": R})


def posdep_graph_jobs(rng, metrics: MetricCache) -> list:
    return [_randers_posdep_separation(rng, metrics), _riemann_posdep_ball(rng), _tree_posdep_reach(rng)]


LORENTZ_BOX = (np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
QUERIES_PER_KIND = 33


def _lorentz_queries(rng, metrics: MetricCache, lor41: float) -> Job:
    """Lorentz cone ex36 at res 81 / R 20: seeded queries in the discrete future cone.

    A grid step (p, q) is admissible iff |p| <= q - 1 and q <= R, so a node
    (P, Q) steps away is reachable iff Q >= 1 and |P| <= Q - ceil(Q / R).
    """
    res, R = 81, 20
    lo, hi = LORENTZ_BOX
    h = 2.0 / (res - 1)
    ij = np.stack(np.meshgrid(np.arange(res), np.arange(res), indexing="ij"), -1).reshape(-1, 2)
    seps = []
    for _ in range(QUERIES_PER_KIND):
        i0, j0 = _pick_node(rng, res, 0, res - 2)
        Q = int(rng.integers(1, res - j0))
        reach = Q - -(-Q // R)  # widest |P| after ceil(Q / R) edges with |p| <= q - 1
        P = int(rng.integers(max(-reach, -i0), min(reach, res - 1 - i0) + 1))
        seps.append(((i0, j0), (i0 + P, j0 + Q)))
    balls = [(_pick_node(rng, res, 0, 60), float(rng.uniform(0.2, 0.8))) for _ in range(QUERIES_PER_KIND)]
    reaches = [_pick_node(rng, res) for _ in range(QUERIES_PER_KIND)]
    edges = sum((res - abs(p)) * (res - q) for q in range(1, R + 1) for p in range(-R, R + 1) if abs(p) < q)

    def node(k):
        return lo + h * np.asarray(k, dtype=float)

    def call(m):
        graph = gd.build_separation_graph(m, (lo, hi), res, R)
        out = {"nnz": graph.matrix.nnz, "fixed": gd.separation(graph, np.zeros(2), np.array([0.0, 2.0]))}
        out["seps"] = [gd.separation(graph, node(a), node(b)) for a, b in seps]
        out["balls"] = [gd.df_ball(graph, node(c), r, "forward") for c, r in balls]
        out["reaches"] = [gd.reachability(graph, node(c)) for c in reaches]
        return out

    def future(c):
        P = ij[:, 0] - c[0]
        Q = ij[:, 1] - c[1]
        return P, Q, (Q >= 1) & (np.abs(P) <= Q - -(-Q // R))

    def check(out):
        m = metrics(LORENTZ)
        expect(out["nnz"] == edges, f"edges {out['nnz']} != {edges} admissible pairs")
        fixed = out["fixed"].value
        expect(fixed >= lorentz_floor(h, np.array(80), R) * (1 - 1e-9), "fixed pair below the grid floor")
        expect(fixed <= lor41 * (1 + 1e-9), "res 81 separation above the res 41 one at the same radius")
        for (a, b), sep in zip(seps, out["seps"]):
            P, Q = b[0] - a[0], b[1] - a[1]
            upper = h * np.sqrt(Q * Q - P * P)  # reverse triangle inequality: no path beats F(delta) upwards
            floor = lorentz_floor(h, np.array(Q), R)
            expect(
                floor * (1 - 1e-9) <= sep.value <= upper * (1 + 1e-9),
                f"lorentz separation {sep.value:.6g} outside [{floor:.6g}, {upper:.6g}] for {a} -> {b}",
            )
            witness_length_check(m, sep.witness_path, sep.value, "lorentz separation")
        for (c, r), idx in zip(balls, out["balls"]):
            P, Q, fut = future(c)
            inside = np.zeros(res * res, dtype=bool)
            inside[idx] = True
            F = h * np.sqrt(np.maximum(Q * Q - P * P, 0))
            floor = lorentz_floor(h, np.maximum(Q, 1), R)
            expect(not np.any(inside & ~fut), "ball leaves the future cone")
            expect(np.all(inside[fut & (F < r * (1 - 1e-9))]), "ball misses nodes below F(delta)")
            expect(not np.any(inside & fut & (floor >= r * (1 + 1e-9))), "ball holds nodes above the floor")
        for c, idx in zip(reaches, out["reaches"]):
            expect(np.array_equal(idx, np.flatnonzero(future(c)[2])), "reach set != discrete future cone")

    sizes = {"resolution": res, "neighbor_radius": R, "queries": 1 + 3 * QUERIES_PER_KIND}
    return lib_job("graph/lorentz_ex36", LORENTZ, call, check, sizes)


def _lorentz_refinement(lor41: float) -> Job:
    """Constant R h refinement of the shipped res 41 / R 20 separation: res 21 / R 10."""

    def call(m):
        graph = gd.build_separation_graph(m, LORENTZ_BOX, 21, 10)
        return gd.separation(graph, np.zeros(2), np.array([0.0, 2.0]))

    def check(out):
        expect(out.value >= lorentz_floor(0.1, np.array(20), 10) * (1 - 1e-9), "res 21 below the grid floor")
        expect(out.value > lor41, "lorentz separation must drop strictly from res 21 to res 41")

    return lib_job("graph/lorentz_ex36_res21", LORENTZ, call, check, {"resolution": 21, "neighbor_radius": 10, "queries": 1})


def _matsumoto_queries(rng, metrics: MetricCache) -> Job:
    """Matsumoto (b = 0.5, convex): graph distance sits just above F(delta)."""
    res, R = 81, 10
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    nodes = _grid(-1.0, 1.0, res)
    n = res * res
    pairs = [tuple(int(k) for k in rng.choice(n, size=2, replace=False)) for _ in range(QUERIES_PER_KIND)]
    balls = [(int(rng.integers(0, n)), float(rng.uniform(0.3, 1.2))) for _ in range(QUERIES_PER_KIND)]
    reaches = [int(rng.integers(0, n)) for _ in range(QUERIES_PER_KIND + 1)]

    def call(m):
        graph = gd.build_separation_graph(m, (lo, hi), res, R)
        out = {"nnz": graph.matrix.nnz}
        out["seps"] = [gd.separation(graph, nodes[a], nodes[b]) for a, b in pairs]
        out["balls"] = [gd.df_ball(graph, nodes[c], r, "forward") for c, r in balls]
        out["reaches"] = [gd.reachability(graph, nodes[c]) for c in reaches]
        return out

    def check(out):
        m = metrics(MATSUMOTO)
        expect(out["nnz"] == pairs_tried(res, R, 2), "matsumoto: every pair admissible")
        for (a, b), sep in zip(pairs, out["seps"]):
            F = f_matsumoto(nodes[b] - nodes[a])
            expect(F * (1 - 1e-9) <= sep.value <= 1.02 * F, "matsumoto separation vs F(delta)")
            witness_length_check(m, sep.witness_path, sep.value, "matsumoto separation")
        for (c, r), idx in zip(balls, out["balls"]):
            inside = np.zeros(n, dtype=bool)
            inside[idx] = True
            other = np.arange(n) != c
            F = np.where(other, f_matsumoto(nodes - nodes[c] + ~other[:, None]), 0.0)
            expect(np.all(inside[other & (1.02 * F < r)]), "ball misses nodes below 1.02 F")
            expect(not np.any(inside[other & (F >= r * (1 + 1e-9))]), "ball holds nodes beyond F")
        for idx in out["reaches"]:
            expect(idx.size == n, "matsumoto reach must cover the grid")

    sizes = {"resolution": res, "neighbor_radius": R, "queries": 3 * QUERIES_PER_KIND + 1}
    return lib_job("graph/matsumoto", MATSUMOTO, call, check, sizes)


def cone_graph_jobs(rng, metrics: MetricCache, reference: dict) -> list:
    lor41 = reference["shipped/lorentz_cone_ex36/separation"]["summary"]["value"]
    return [_lorentz_queries(rng, metrics, lor41), _lorentz_refinement(lor41), _matsumoto_queries(rng, metrics)]


def geodesic_flow_jobs(rng, metrics: MetricCache) -> list:
    jobs = []
    for tag, tree, F, gauss_pairs in (
        ("randers_posdep", RANDERS_POSDEP, f_randers_posdep, 6),
        ("riemann_posdep", RIEMANN_POSDEP, f_riemann_posdep, 20),
    ):
        base = rng.uniform(-0.5, 0.5, size=2)
        th = rng.uniform(0.0, 2.0 * np.pi)
        vel = rng.uniform(0.8, 1.2) * np.array([np.cos(th), np.sin(th)])
        shot = {}

        def shoot(m, base=base, vel=vel):
            return gd.geodesic_shoot(m, gd.GeodesicState(base, vel, 0.0), 1.0, 0.01)

        def check_shoot(states, F=F, shot=shot):
            expect(len(states) == 101, "geodesic step count")
            x = np.array([s.position for s in states])
            v = np.array([s.velocity for s in states])
            speed = F(x, v)
            expect(np.max(np.abs(speed - speed[0])) < 1e-6 * speed[0], "speed drift >= 1e-6 F (criterion 7)")
            shot["end"] = x[-1]

        def expmap(m, base=base, vel=vel):
            return gd.exp_map(m, base, vel, 0.01)

        def check_exp(end, shot=shot):
            expect("end" in shot, "exp_map runs after its geodesic_shoot job")
            expect(np.max(np.abs(end - shot["end"])) < 1e-9, "exp_map endpoint != geodesic endpoint")

        gbase = rng.uniform(-0.5, 0.5, size=2)
        vs = rng.normal(size=(gauss_pairs, 2))
        ws = rng.normal(size=(gauss_pairs, 2))

        def gauss(m, gbase=gbase, vs=vs, ws=ws):
            return gd.gauss_residuals(m, gbase, vs, ws, 0.005)

        def check_gauss(res_, n=gauss_pairs):
            expect(res_.shape == (n,), "gauss residual count")
            expect(np.max(np.abs(res_)) < 1e-4, f"gauss residual {np.max(np.abs(res_)):.3g} >= 1e-4 (criterion 8)")

        jobs.append(lib_job(f"geodesic_shoot/{tag}", tree, shoot, check_shoot, {"steps": 100}))
        jobs.append(lib_job(f"exp_map/{tag}", tree, expmap, check_exp, {"steps": 100}))
        jobs.append(lib_job(f"gauss_residuals/{tag}", tree, gauss, check_gauss, {"pairs": gauss_pairs, "steps": 200}))

    rbase = rng.uniform(-0.5, 0.5, size=2)
    rseed = int(rng.integers(0, 2**31))

    def radial(m):
        return gd.radial_minimality_test(m, rbase, radius=1.0, trials=20, seed=rseed)

    def check_radial(rep):
        expect(rep.all_pass and rep.counted == 20, f"radial minimality: {rep} (criterion 9)")

    jobs.append(lib_job("radial_minimality/randers_posdep", RANDERS_POSDEP, radial, check_radial, {"trials": 20}))
    return jobs


def _vectors(rng, count, rmin=0.5, rmax=2.0):
    """Directions over the whole circle: every metric fed with them has a full domain."""
    th = rng.uniform(0.0, 2.0 * np.pi, size=count)
    r = rng.uniform(rmin, rmax, size=count)
    return r[:, None] * np.stack([np.cos(th), np.sin(th)], -1)


def pointwise_jobs(rng, workload: Workload) -> list:
    jobs = []
    for tag, tree, f, count in (("randers", RANDERS, f_randers, 1000), ("tree", TREE, f_tree, 100)):
        for cmd, make in (("eval", check_eval), ("tensor", check_tensor), ("classify", check_classify)):
            vs = _vectors(rng, count)
            doc = {"metric": tree, "run": {cmd: {"base": [0.0, 0.0], "vectors": vs.tolist()}}}
            jobs.append(cli_job(f"{cmd}/{tag}", doc, cmd, make(f, vs), {"vectors": count}))

    # Matsumoto on Euclidean: in 2D the tensor is PD iff 1 - 3s + 2b^2 > 0, s = b cos(theta).
    b = float(rng.uniform(0.6, 0.9))
    n = 5000
    doc = {"metric": {"type": "named", "family": "matsumoto", "q": 1.0, "b": b}, "run": {"scan": {"base": [0.0, 0.0], "samples": n}}}

    def check_scan(out: CliOutput):
        cos = np.cos(2.0 * np.pi * np.arange(n) / n)
        cut = (1.0 + 2.0 * b * b) / (3.0 * b)
        want = np.where(cos < cut, "PositiveDefinite", "Indefinite")
        clear = np.abs(cos - cut) > 1e-3
        got = out.column("status")
        expect(got.size == n and np.all((got == want)[clear]), "matsumoto scan vs the 2D characterization")

    jobs.append(cli_job("scan/matsumoto", doc, "scan", check_scan, {"samples": n}))

    seed = int(rng.integers(0, 2**31))
    doc = {"metric": RANDERS, "run": {"seed": seed, "detcheck": {"base": [0.0, 0.0], "samples": 2000}}}

    def check_det(out: CliOutput):
        expect(len(out.rows) == 2000 and out.summary["max_rel_err"] < 1e-8, "detcheck (criterion 4)")

    jobs.append(cli_job("detcheck/randers", doc, "detcheck", check_det, {"samples": 2000}))

    seed = int(rng.integers(0, 2**31))
    doc = {"metric": TREE, "run": {"seed": seed, "oracle": {"samples": 2000, "tolerance": 1e-6}}}

    def check_oracle(out: CliOutput):
        s = out.summary
        expect(len(out.rows) == 2000 and s["max_rel_err"] <= 1e-6, f"oracle {s['max_rel_err']:.3g} (criterion 1)")

    jobs.append(cli_job("oracle/tree", doc, "oracle", check_oracle, {"samples": 2000}))

    amp = float(rng.uniform(0.2, 0.4))
    n_ind = 20000
    doc = {"metric": {"type": "wavy_example", "amplitude": amp, "lobes": 3}, "run": {"indicatrix": {"base": [0.0, 0.0], "samples": n_ind}}}

    def check_ind(out: CliOutput):
        pts = out.columns("s")
        expect(len(pts) == n_ind, "wavy indicatrix covers every direction")
        F = _norm(pts) / (1.0 + amp * np.cos(3.0 * np.arctan2(pts[:, 1], pts[:, 0])))
        _close(F, np.ones_like(F), 1e-9, "indicatrix F = 1")

    jobs.append(cli_job("indicatrix/wavy", doc, "indicatrix", check_ind, {"samples": n_ind}))

    # Gauge of an ellipse given only by a membership predicate the benchmark owns.
    ax, ay = float(rng.uniform(1.0, 2.0)), float(rng.uniform(0.5, 1.0))
    vs = _vectors(rng, 2000, rmin=0.1, rmax=3.0)
    counters = workload.counters

    def member(v):
        counters["ball.member_calls"] = counters.get("ball.member_calls", 0) + 1
        return (v[0] / ax) ** 2 + (v[1] / ay) ** 2 <= 1.0

    def gauge_run():
        gauge = mk.gauge_from_ball(2, member, mk.whole_space_domain(2))
        counters["ball.vectors"] = counters.get("ball.vectors", 0) + len(vs)
        return gauge.value(vs)

    def check_gauge(vals):
        _close(vals, np.sqrt((vs[:, 0] / ax) ** 2 + (vs[:, 1] / ay) ** 2), 1e-9, "ball gauge vs ellipse norm")

    jobs.append(Job("gauge_from_ball/ellipse", None, gauge_run, check_gauge, {"vectors": len(vs)}))
    return jobs


def build(name: str, seed: int) -> Workload:
    """The job list of one workload for one seed."""
    if name not in WORKLOADS:
        raise KeyError(name)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    reference = load_reference()
    metrics = MetricCache()
    wl = Workload(name=name, seed=seed, jobs=[])
    jobs = shipped_jobs(name, reference, metrics)
    if name == "posdep_graph":
        jobs += posdep_graph_jobs(rng, metrics)
    elif name == "cone_graph":
        jobs += cone_graph_jobs(rng, metrics, reference)
    elif name == "geodesic_flow":
        jobs += geodesic_flow_jobs(rng, metrics)
    else:
        jobs += pointwise_jobs(rng, wl)
    wl.jobs = jobs
    return wl
