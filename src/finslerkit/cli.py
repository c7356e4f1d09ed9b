"""Configuration-driven command line front end.

One JSON config file describes a metric (as a declarative expression
tree) plus run parameters; one subcommand per invocation evaluates,
scans, shoots geodesics or runs graph separations and writes a CSV with
17-significant-digit floats so reruns are byte-identical.

Config schema (see README for the full grammar)::

    {
      "metric": {"type": "named", "family": "randers", "b": 0.5},
      "run": {"seed": 0, "scan": {"base": [0, 0], "samples": 360}}
    }
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Optional

import numpy as np

from . import combinators as cb
from . import geodesy as gd
from . import metrics as me
from . import minkowski as mk
from .errors import (
    DOMAIN_CODES,
    BadExponent,
    FinslerError,
    InvalidArgument,
    ParseError,
    ValidationError,
)
from .numkernel import central_derivatives

MAX_GRAPH_EDGES = 10**7  # candidate edges (geodesy.candidate_edges) of a graph command, checked before the build
MAX_LOBES = 10**4  # largest wavy_example lobe count

COMMANDS = (
    "eval",
    "tensor",
    "classify",
    "scan",
    "detcheck",
    "geodesic",
    "expmap",
    "gauss",
    "separation",
    "ball",
    "reach",
    "indicatrix",
    "oracle",
)

_EXPR_NAMES = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "arctan": np.arctan,
    "arctan2": np.arctan2,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": np.sign,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "pi": math.pi,
    "e": math.e,
}
# the syntax of an expression besides names and numbers: arithmetic, comparisons and calls
_EXPR_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Call, ast.Load, ast.operator, ast.unaryop,
               ast.cmpop)


def compile_expr(expr, variables: tuple[str, ...], path: str):
    """Compile a config expression, a string or a number, over the named variables.

    The expression is arithmetic: numbers, the named variables, the
    whitelisted math names, operators, comparisons and calls.  Its numbers are
    floats, so a huge power overflows instead of growing an integer without
    end.  Anything else, and an evaluation that raises an ArithmeticError,
    TypeError or ValueError, raises a ValidationError naming the offending
    config path.  The returned function gives a float array; its
    ``variables_used`` holds the variables the expression names.
    """
    _require(type(expr) in (str, int, float), f"expected an expression, got {expr!r}", path, "expression")
    try:
        tree = ast.parse(str(expr), mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"bad expression {expr!r}: {exc.msg}", path=path) from exc
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            known = node.id in _EXPR_NAMES or node.id in variables
            _require(known, f"expression {expr!r} uses unknown name {node.id!r}", path, "names")
        elif isinstance(node, ast.Constant):
            numeric = type(node.value) in (int, float)
            _require(numeric, f"expression {expr!r} has a non-numeric constant", path, "expression")
            node.value = float(node.value)
        else:
            allowed = isinstance(node, _EXPR_NODES)
            _require(allowed, f"expression {expr!r} uses {type(node).__name__}", path, "expression")
    code = compile(tree, f"<config:{path}>", "eval")

    def fn(*args):
        ns = dict(_EXPR_NAMES)
        ns.update(zip(variables, args))
        try:
            return np.asarray(eval(code, {"__builtins__": {}}, ns), dtype=float)  # noqa: S307 - checked above
        except (ArithmeticError, TypeError, ValueError) as exc:
            msg = f"expression {expr!r} failed: {exc}"
            raise ValidationError(msg, path=path, constraint="expression") from exc

    fn.variables_used = frozenset(code.co_names) & frozenset(variables)
    return fn


def _position_vars(dim: int) -> tuple[str, ...]:
    letters = ("x", "y", "z")[:dim] if dim <= 3 else ()
    indexed = tuple(f"x{i+1}" for i in range(dim))
    return letters + indexed


def _split_position(x: np.ndarray, dim: int):
    x = np.asarray(x, dtype=float)
    comps = [x[..., i] for i in range(dim)]
    letters = comps[: 3 if dim <= 3 else 0]
    return tuple(letters) + tuple(comps)


def _expr_field(exprs: list, dim: int, path: str, nested: bool = False):
    """``(field, constant)`` of a list (``nested``: a list of lists) of position expressions:
    ``field(x)`` stacks their values on trailing axes, ``constant`` says none names a position."""
    vars_ = _position_vars(dim)
    fns = [
        [compile_expr(e, vars_, f"{path}[{i}][{j}]" if nested else f"{path}[{j}]") for j, e in enumerate(row)]
        for i, row in enumerate(exprs if nested else [exprs])
    ]

    def field(x):
        args = _split_position(x, dim)
        shape = np.asarray(x)[..., 0].shape
        rows = [np.stack([np.broadcast_to(fn(*args), shape) for fn in row], axis=-1) for row in fns]
        return np.stack(rows, axis=-2) if nested else rows[0]

    return field, not any(fn.variables_used for row in fns for fn in row)


@dataclass(frozen=True)
class BuiltMetric:
    """A constructed metric plus the ingredients commands may need."""

    metric: me.ConicMetric
    phi_parts: Optional[tuple] = None  # (F0, beta, profile) for detcheck


@dataclass(frozen=True)
class MetricSpec:
    """Validated declarative metric tree plus the metric ``parse_config`` built
    while validating it."""

    tree: dict
    built: BuiltMetric = field(compare=False, repr=False)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    tolerance: float = 1e-9
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Parsing: one walk over the metric tree validates and builds it
# ---------------------------------------------------------------------------


def _require(cond: bool, msg: str, path: str, constraint: str = ""):
    if not cond:
        raise ValidationError(msg, path=path, constraint=constraint)


def _num(value, path: str, kind=float):
    """``kind(value)`` for a config scalar; a non-numeric, boolean or string
    one, or a fractional one when ``kind`` is ``int``, is a ValidationError."""
    if kind is int:
        integral = not isinstance(value, float) or not math.isfinite(value) or value.is_integer()
        integral = integral and not isinstance(value, (bool, str))
        _require(integral, f"expected an integer, got {value!r}", path, "integer")
    _require(not isinstance(value, (bool, str)), f"expected a number, got {value!r}", path, "number")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"expected a number, got {value!r}", path=path, constraint="number") from exc
    except OverflowError as exc:  # int(inf)
        raise ValidationError(f"{value!r} is out of range", path=path, constraint="finite") from exc


def _dimension(value, path: str) -> int:
    """A chart dimension read at ``path``; above ``metrics.MAX_DIMENSION`` it is a
    ValidationError, raised before anything of that size is allocated."""
    dim = _num(value, path, int)
    _require(dim <= me.MAX_DIMENSION, f"dimension must be at most {me.MAX_DIMENSION}", path, "maximum")
    return dim


def parse_config(text: str) -> tuple[MetricSpec, RunConfig]:
    """Parse a JSON config into (MetricSpec, RunConfig), building the metric.

    Every malformed metric node raises a ValidationError naming its path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, path="") from exc
    if not isinstance(doc, dict) or "metric" not in doc:
        raise ValidationError("config must be an object with a 'metric' section", path="metric")
    tree = doc["metric"]
    built = _build_node(tree, "metric")
    dim = built.metric.dimension

    run = doc.get("run", {})
    if not isinstance(run, dict):
        raise ValidationError("'run' section must be an object", path="run")
    for key in run:
        known = key in ("seed", "tolerance", "dimension") or key in COMMANDS
        _require(known, f"unknown run key {key!r}", f"run.{key}", "unknown_key")
    declared = run.get("dimension")
    if declared is not None and _num(declared, "run.dimension", int) != dim:
        raise ValidationError(
            f"run.dimension={declared} but the metric has dimension {dim}",
            path="run.dimension",
            constraint="dimension",
        )
    tol = _num(run.get("tolerance", 1e-9), "run.tolerance")
    _require(tol > 0, "tolerance must be positive", "run.tolerance", "positive")
    params = {k: v for k, v in run.items() if k not in ("dimension", "seed", "tolerance")}
    cfg = RunConfig(seed=_num(run.get("seed", 0), "run.seed", int), tolerance=tol, params=params)
    return MetricSpec(tree=tree, built=built), cfg


def render_config(spec: MetricSpec, cfg: RunConfig) -> str:
    """Canonical JSON text whose parse reproduces (spec, cfg)."""
    run: dict = {"seed": cfg.seed, "tolerance": cfg.tolerance}
    run.update(cfg.params)
    return json.dumps({"metric": spec.tree, "run": run}, indent=2, sort_keys=True)


def build_metric(spec: MetricSpec) -> BuiltMetric:
    """The metric of a spec, the one ``parse_config`` built."""
    return spec.built


def _build_form(node, path: str) -> tuple[me.OneFormAtom, int]:
    """One-form node {'coeffs': [...]} or {'coeff_exprs': [...]} and its dimension."""
    _require(isinstance(node, dict), "one-form node must be a dict", path)
    coeffs = node.get("coeffs")
    if isinstance(coeffs, list) and coeffs:
        dim = _dimension(len(coeffs), f"{path}.coeffs")
        return me.constant_oneform([_num(c, f"{path}.coeffs[{i}]") for i, c in enumerate(coeffs)]), dim
    exprs = node.get("coeff_exprs")
    _require(isinstance(exprs, list) and exprs, "one-form node needs 'coeffs' or 'coeff_exprs'", path)
    dim = _dimension(len(exprs), f"{path}.coeff_exprs")
    covector, constant = _expr_field(exprs, dim, f"{path}.coeff_exprs")
    return me.OneFormAtom(covector=covector, constant=constant), dim


def _build_riemann(node: dict, path: str) -> me.ConicMetric:
    key = "matrix" if "matrix" in node else "matrix_expr"
    rows = node.get(key)
    _require(
        isinstance(rows, list) and rows and all(isinstance(r, list) and len(r) == len(rows) for r in rows),
        "riemannian node needs a square 'matrix' or 'matrix_expr'",
        path,
    )
    dim = _dimension(len(rows), f"{path}.{key}")
    if key == "matrix":
        g = [[_num(e, f"{path}.matrix[{i}][{j}]") for j, e in enumerate(row)] for i, row in enumerate(rows)]
        return me.riemann_metric(me.constant_riemann(g), me.whole_plane(dim))
    metric_matrix, constant = _expr_field(rows, dim, f"{path}.matrix_expr", nested=True)
    return me.riemann_metric(me.RiemannAtom(metric_matrix=metric_matrix, constant=constant), me.whole_plane(dim))


def _spiral(node: dict, path: str) -> mk.PolarCurve2D:
    eps = _num(node.get("epsilon", 0.1), f"{path}.epsilon")
    _require(0 < eps < math.pi, "epsilon must be in (0, pi)", path)
    return mk.spiral_curve(eps)


def _wavy(node: dict, path: str) -> mk.PolarCurve2D:
    amplitude = _num(node.get("amplitude", 0.3), f"{path}.amplitude")
    lobes = _num(node.get("lobes", 3), f"{path}.lobes", int)
    _require(lobes <= MAX_LOBES, f"lobes must be at most {MAX_LOBES}", f"{path}.lobes", "maximum")
    return mk.wavy_curve(amplitude, lobes)


# named 2D reference gauges: node type -> indicatrix curve of (node, path)
_EXAMPLE_CURVES = {
    "lorentz_example": lambda node, path: mk.lorentz_curve(),
    "spiral_example": _spiral,
    "parabola_example": lambda node, path: mk.downward_parabola_curve(),
    "sqrt_parabola_example": lambda node, path: mk.sqrt_parabola_curve(),
    "wavy_example": _wavy,
}


def _build_profile(prof, path: str) -> cb.PhiProfile:
    """A family name, {'name': family, 'q': q}, or a custom {'phi', 'interval'} profile."""
    if prof is None or isinstance(prof, str):
        name, q = "randers" if prof is None else prof, None
    elif isinstance(prof, dict) and "name" in prof:
        name, q = prof["name"], None if prof.get("q") is None else _num(prof["q"], f"{path}.q")
    else:
        return _custom_profile(prof, path)
    _require(isinstance(name, str) and name in cb.FAMILIES, f"unknown profile {name!r}", path, "profile")
    try:
        return cb.family_profile(name, q)
    except BadExponent as exc:
        raise ValidationError(f"BadExponent: {exc}", path=path, constraint="q") from exc


def _custom_profile(prof, path: str) -> cb.PhiProfile:
    _require(
        isinstance(prof, dict) and "phi" in prof,
        "profile must be a family name or a dict with a 'name' or a 'phi'",
        path,
        "profile",
    )
    lo, hi = _point(prof.get("interval"), 2, f"{path}.interval").tolist()
    phi = compile_expr(prof["phi"], ("s",), f"{path}.phi")
    if "phi_dot" in prof:
        _require("phi_ddot" in prof, "custom profile with 'phi_dot' needs 'phi_ddot'", path, "phi_ddot")
        phi_dot = compile_expr(prof["phi_dot"], ("s",), f"{path}.phi_dot")
        phi_ddot = compile_expr(prof["phi_ddot"], ("s",), f"{path}.phi_ddot")
    else:
        phi_dot, phi_ddot = central_derivatives(phi)

    return cb.PhiProfile(phi=phi, phi_dot=phi_dot, phi_ddot=phi_ddot, intervals=((lo, hi),), name="custom")


def _metric_at(node, path: str) -> me.ConicMetric:
    return _build_node(node, path).metric


def _child(node: dict, key: str, path: str) -> me.ConicMetric:
    return _metric_at(node.get(key), f"{path}.{key}")


def _each(node: dict, key: str, path: str, build) -> list:
    items = node.get(key, [])
    _require(isinstance(items, list), f"'{key}' must be a list", f"{path}.{key}")
    return [build(item, f"{path}.{key}[{i}]") for i, item in enumerate(items)]


def _base_and_form(node: dict, path: str) -> tuple[me.ConicMetric, me.OneFormAtom]:
    """Base metric (Euclidean when absent) and one-form of a profile node.

    A ``named`` node may omit the form: it is then ``b`` times dx^1.
    """
    base = None if node.get("base") is None else _child(node, "base", path)
    if node["type"] == "phi" or "form" in node:
        form, dim = _build_form(node.get("form"), f"{path}.form")
    else:
        dim = _dimension(node.get("dimension", 2), f"{path}.dimension") if base is None else base.dimension
        _require(dim >= 1, "dimension must be at least 1", path, "dimension")
        coeffs = np.zeros(dim)
        coeffs[0] = _num(node.get("b", 0.5), f"{path}.b")
        form = me.constant_oneform(coeffs)
    if base is None:
        base = me.euclidean_metric(dim)
    _require(base.dimension == dim, f"{node['type']} base and form dimensions differ", path)
    return base, form


def _build_node(node, path: str) -> BuiltMetric:
    """Validate and build one metric node; a malformed node raises a
    ValidationError naming its config path.  Dimensions come from the
    built children."""
    _require(
        isinstance(node, dict) and isinstance(node.get("type"), str),
        "metric node must be a dict with a 'type'",
        path,
    )
    t = node["type"]
    if t == "euclidean":
        dim = _dimension(node.get("dimension", 2), f"{path}.dimension")
        _require(dim >= 1, "dimension must be at least 1", path, "dimension")
        return BuiltMetric(metric=me.euclidean_metric(dim))
    if t == "riemannian":
        return BuiltMetric(metric=_build_riemann(node, path))
    if t == "oneform_metric":
        form, dim = _build_form(node, path)
        return BuiltMetric(metric=me.oneform_metric(form, me.whole_plane(dim)))
    if t == "gauge_curve_2d":
        _require("r" in node, "gauge_curve_2d node needs 'r'", path)
        r_fn = compile_expr(node["r"], ("theta",), f"{path}.r")
        interval = node.get("interval")
        interval = None if interval is None else tuple(_point(interval, 2, f"{path}.interval").tolist())
        curve = mk.polar_curve(
            lambda th: r_fn(np.asarray(th, dtype=float)), theta_range=interval
        )
        return BuiltMetric(metric=me.minkowski_metric(mk.gauge_from_curve(curve)))
    if t in _EXAMPLE_CURVES:
        curve = _EXAMPLE_CURVES[t](node, path)
        return BuiltMetric(metric=me.minkowski_metric(mk.gauge_from_curve(curve), name=t[: -len("_example")]))
    if t == "sum":
        mets = _each(node, "terms", path, _metric_at)
        _require(len(mets) >= 1, "sum needs at least one term", path)
        _require(len({m.dimension for m in mets}) == 1, "sum terms must share one dimension", path)
        return BuiltMetric(metric=cb.combine(cb.sum_combiner(len(mets)), mets, []))
    if t == "power_q":
        mets = _each(node, "metrics", path, _metric_at)
        _require(len(mets) >= 1, "power_q needs at least one metric", path)
        forms = _each(node, "forms", path, _build_form)
        dims = {m.dimension for m in mets} | {d for _, d in forms}
        _require(len(dims) == 1, "power_q ingredients must share one dimension", path)
        _require("q" in node, "power_q node needs 'q'", path, "q")
        q = _num(node["q"], f"{path}.q")
        try:
            return BuiltMetric(metric=cb.power_q_combine(mets, [f for f, _ in forms], q))
        except BadExponent as exc:
            raise ValidationError(f"BadExponent: {exc}", path=path, constraint="q") from exc
    if t == "phi":
        base, form = _base_and_form(node, path)
        profile = _build_profile(node.get("profile"), f"{path}.profile")
        return BuiltMetric(metric=cb.phi_combine(base, form, profile), phi_parts=(base, form, profile))
    if t == "named":
        family = str(node.get("family", "")).lower()
        _require(family in cb.FAMILIES, f"unknown family {node.get('family')!r}", path, "family")
        base, form = _base_and_form(node, path)
        profile = _build_profile({"name": family, "q": node.get("q")}, path)
        return BuiltMetric(metric=cb.phi_combine(base, form, profile), phi_parts=(base, form, profile))
    if t == "f1f2":
        f1, f2 = _child(node, "f1", path), _child(node, "f2", path)
        _require(f1.dimension == f2.dimension, "f1f2 ingredients must share one dimension", path)
        profile = _build_profile(node.get("profile"), f"{path}.profile")
        return BuiltMetric(metric=cb.f1f2_combine(f1, f2, profile))
    if t == "reversibilize":
        inner = _child(node, "inner", path)
        try:
            return BuiltMetric(metric=cb.reversibilize(inner, str(node.get("mode", "sum"))))
        except InvalidArgument as exc:
            raise ValidationError(str(exc), path=path, constraint="mode") from exc
    raise ValidationError(f"unknown metric node type {t!r}", path=path, constraint="type")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _vec_cols(prefix: str, dim: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(dim)]


def _param(cfg: RunConfig, cmd: str, key: str, default=None, required: bool = False):
    sect = cfg.params.get(cmd, {})
    _require(isinstance(sect, dict), f"run.{cmd} must be an object", f"run.{cmd}", "object")
    if key in sect:
        return sect[key]
    if required and default is None:
        raise ValidationError(f"missing run.{cmd}.{key}", path=f"run.{cmd}.{key}", constraint="required")
    return default


def _point(value, dim: int, path: str) -> np.ndarray:
    """A point or vector of the config: a list of ``dim`` numbers."""
    _require(isinstance(value, list) and len(value) == dim, f"expected a list of {dim} numbers", path, "shape")
    return np.array([_num(x, f"{path}[{i}]") for i, x in enumerate(value)])


def _run_point(cfg: RunConfig, cmd: str, key: str, dim: int, required: bool = False) -> np.ndarray:
    """``run.<cmd>.<key>`` read by :func:`_point`; the origin when absent and not required."""
    return _point(_param(cfg, cmd, key, None if required else [0.0] * dim, required), dim, f"run.{cmd}.{key}")


def _run_num(cfg: RunConfig, cmd: str, key: str, default=None, kind=float, least=None, positive=False):
    """The scalar ``run.<cmd>.<key>`` (required when there is no default),
    at least ``least`` and, with ``positive``, greater than 0."""
    path = f"run.{cmd}.{key}"
    value = _num(_param(cfg, cmd, key, default, default is None), path, kind)
    _require(least is None or value >= least, f"{key} must be at least {least}", path, "minimum")
    _require(not positive or value > 0, f"{key} must be positive", path, "positive")
    return value


def _interior_ratio(phi_parts, base, vecs, margin: float) -> np.ndarray:
    """Mask of the samples whose ratio stays ``margin`` away from the profile
    endpoints, where the finite-difference oracle loses accuracy to the singularity."""
    F0, beta, profile = phi_parts
    s = beta.pair(base, vecs) / F0.F_many(base, vecs)
    keep = np.zeros(s.shape, dtype=bool)
    for lo, hi in profile.intervals:
        near_lo = np.isfinite(lo) & (s - lo < margin)
        near_hi = np.isfinite(hi) & (hi - s < margin)
        keep |= (lo < s) & (s < hi) & ~near_lo & ~near_hi
    return keep


def _base_vectors(cfg: RunConfig, cmd: str, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Base point and (K, N) vector stack of a per-vector command; :func:`_point` names a bad
    entry, and reads every list when one holds a boolean or a string, which numpy would take
    for a number."""
    base = _run_point(cfg, cmd, "base", dim)
    path = f"run.{cmd}.vectors"
    vectors = _param(cfg, cmd, "vectors", required=True)
    _require(isinstance(vectors, list), f"vectors must be a list of {dim}-vectors", path, "shape")
    try:
        vecs = np.array(vectors, dtype=float)
    except (TypeError, ValueError, OverflowError):  # a malformed entry, named below
        vecs = np.empty(0)
    if vecs.ndim != 2 or vecs.shape[1] != dim or any(type(x) in (bool, str) for row in vectors for x in row):
        vecs = np.array([_point(v, dim, f"{path}[{i}]") for i, v in enumerate(vectors)]).reshape(-1, dim)
    return base, vecs


def _in_domain_at(m: me.ConicMetric, base):
    """The ``accept`` of :func:`me.admissible_draws` for vectors admissible at ``base``."""
    return lambda vs: m.in_domain_many(np.broadcast_to(base, vs.shape), vs)


def run_command(cmd: str, spec: MetricSpec, cfg: RunConfig):
    """Execute one command; returns (summary dict, csv header, csv rows).
    The library checks the arguments it is given; its InvalidArgument is
    reported as a ValidationError at ``run.<cmd>.<parameter>``."""
    try:
        return _run(cmd, spec, cfg)
    except InvalidArgument as exc:
        raise ValidationError(str(exc), path=f"run.{cmd}.{exc.path}", constraint=exc.constraint) from exc


def _run(cmd: str, spec: MetricSpec, cfg: RunConfig):
    _require(cfg.seed >= 0, f"seed must be at least 0, got {cfg.seed}", "run.seed", "minimum")
    rng = np.random.default_rng(cfg.seed)
    built = build_metric(spec)
    m = built.metric
    dim = m.dimension
    tol = cfg.tolerance

    if cmd in ("eval", "tensor", "classify"):
        base, vecs = _base_vectors(cfg, cmd, dim)
        header = ["index"] + _vec_cols("base", dim) + _vec_cols("v", dim)
        if cmd == "eval":
            vals = me.eval_F_many(m, base, vecs)
            rows = [[i, *base, *v, float(f)] for i, (v, f) in enumerate(zip(vecs, vals))]
            return {"command": cmd, "count": len(rows)}, header + ["F"], rows
        gs = me.tensor(m, me.TangentVec(base, vecs))
        if cmd == "tensor":
            header += [f"g{i}{j}" for i in range(dim) for j in range(dim)]
            rows = [[i, *base, *v, *g.ravel()] for i, (v, g) in enumerate(zip(vecs, gs))]
            return {"command": cmd, "count": len(rows)}, header, rows
        reps = me.eigen_classify(gs, tol)
        rows = [
            [i, *base, *v, r.classification.value, r.min_eigenvalue]
            for i, (v, r) in enumerate(zip(vecs, reps))
        ]
        counts = dict(Counter(r.classification.value for r in reps))
        return {"command": cmd, "counts": counts}, header + ["classification", "min_eigenvalue"], rows

    if cmd == "scan":
        base = _run_point(cfg, "scan", "base", dim)
        samples = _run_num(cfg, "scan", "samples", 360, int)
        entries = me.convexity_scan(m, base, samples, tol)
        header = ["index"] + _vec_cols("dir", dim) + ["status", "min_eigenvalue"]
        rows = [
            [i, *e.direction, e.status, e.report.min_eigenvalue if e.report else float("nan")]
            for i, e in enumerate(entries)
        ]
        counts = dict(Counter(e.status for e in entries))
        pd_frac = counts.get("PositiveDefinite", 0) / samples
        return {"command": cmd, "counts": counts, "pd_fraction": pd_frac}, header, rows

    if cmd == "detcheck":
        if built.phi_parts is None:
            raise ValidationError(
                "detcheck needs a profile-family metric (phi or named node)", path="metric"
            )
        F0, beta, profile = built.phi_parts
        base = _run_point(cfg, "detcheck", "base", dim)
        samples = _run_num(cfg, "detcheck", "samples", 100, int)
        header = ["index"] + _vec_cols("v", dim) + ["det_formula", "det_direct", "rel_err"]
        vs = me.admissible_draws(rng, samples, dim, _in_domain_at(m, base))
        tv = me.TangentVec(base, vs)
        lhs = cb.det_tensor_formula(F0, beta, profile, tv)
        rhs = np.linalg.det(me.tensor(m, tv))
        errs = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
        rows = [[i, *v, float(a), float(b), float(e)] for i, (v, a, b, e) in enumerate(zip(vs, lhs, rhs, errs))]
        return {"command": cmd, "max_rel_err": float(np.max(errs, initial=0.0))}, header, rows

    if cmd == "geodesic":
        base = _run_point(cfg, "geodesic", "base", dim)
        vel = _run_point(cfg, "geodesic", "velocity", dim, required=True)
        t_end = _run_num(cfg, "geodesic", "t_end", 1.0)
        step = _run_num(cfg, "geodesic", "step", gd.DEFAULT_STEP)
        states = gd.geodesic_shoot(m, gd.GeodesicState(base, vel, 0.0), t_end, step)
        header = ["t"] + _vec_cols("x", dim) + _vec_cols("v", dim) + ["F"]
        xs = np.array([s.position for s in states])
        vs = np.array([s.velocity for s in states])
        speeds = me.eval_F_many(m, xs, vs)
        rows = [[s.parameter, *x, *v, float(f)] for s, x, v, f in zip(states, xs, vs, speeds)]
        return {"command": cmd, "steps": len(rows) - 1}, header, rows

    if cmd == "expmap":
        base = _run_point(cfg, "expmap", "base", dim)
        vel = _run_point(cfg, "expmap", "velocity", dim, required=True)
        end = gd.exp_map(m, base, vel)
        header = _vec_cols("base", dim) + _vec_cols("v", dim) + _vec_cols("exp", dim)
        rows = [[*base, *vel, *end]]
        return {"command": cmd, "endpoint": [float(v) for v in end]}, header, rows

    if cmd == "gauss":
        base = _run_point(cfg, "gauss", "base", dim)
        samples = _run_num(cfg, "gauss", "samples", 10, int)
        header = ["index"] + _vec_cols("v", dim) + _vec_cols("w", dim) + ["residual"]
        vs, ws = me.admissible_draws(rng, samples, dim, _in_domain_at(m, base), paired=True)
        res = gd.gauss_residuals(m, base, vs, ws)
        rows = [[i, *v, *w, float(r)] for i, (v, w, r) in enumerate(zip(vs, ws, res))]
        worst = float(np.max(np.abs(res)))
        return {"command": cmd, "max_abs_residual": worst}, header, rows

    if cmd in ("separation", "ball", "reach"):
        box = _param(cfg, cmd, "box", required=True)
        _require(isinstance(box, list) and len(box) == 2, "box must be [lo, hi]", f"run.{cmd}.box", "shape")
        lo, hi = (_point(c, dim, f"run.{cmd}.box[{i}]") for i, c in enumerate(box))
        resolution = _run_num(cfg, cmd, "resolution", 21, int)
        gd.grid_spacing((lo, hi), resolution)
        radius = _run_num(cfg, cmd, "neighbor_radius", 3, int, least=1)
        _require(
            gd.candidate_edges(dim, resolution, radius) <= MAX_GRAPH_EDGES,
            f"resolution^{dim} grid nodes x neighbour offsets must be at most {MAX_GRAPH_EDGES} candidate edges",
            f"run.{cmd}.resolution",
            "maximum",
        )

        def node(key: str) -> int:
            """Grid node of the point ``run.<cmd>.<key>``, checked before the graph is built."""
            point = _run_point(cfg, cmd, key, dim, required=True)
            try:
                return gd.grid_node_id((lo, hi), resolution, point)
            except InvalidArgument as exc:  # grid_node_id names its argument "point"
                raise ValidationError(f"{key}: {exc}", path=f"run.{cmd}.{key}", constraint=exc.constraint) from exc

        if cmd == "ball":
            center = node("center")
            r = _run_num(cfg, cmd, "radius", positive=True)
            direction = str(_param(cfg, cmd, "direction", "forward"))
            mk.check_ball_direction(direction)
        else:
            src = node("source")
            dst = node("target") if cmd == "separation" else None
        graph = gd.build_separation_graph(m, (lo, hi), resolution, radius)
        if cmd == "separation":
            result = gd.separation(graph, src, dst)
            header = ["step"] + _vec_cols("x", dim)
            rows = [[i, *pt] for i, pt in enumerate(result.witness_path)]
            return (
                {
                    "command": cmd,
                    "value": float(result.value) if np.isfinite(result.value) else "Infinity",
                    "reachable": bool(result.reachable),
                    "nodes": graph.node_count,
                    "edges": int(graph.matrix.nnz),
                },
                header,
                rows,
            )
        idx = gd.reachability(graph, src) if cmd == "reach" else gd.df_ball(graph, center, r, direction)
        header = ["index"] + _vec_cols("x", dim)
        rows = [[int(i), *graph.nodes[i]] for i in idx]
        return {"command": cmd, "count": int(idx.size)}, header, rows

    if cmd == "indicatrix":
        base = _run_point(cfg, "indicatrix", "base", dim)
        samples = _run_num(cfg, "indicatrix", "samples", 256, int)
        dirs = me.unit_directions(dim, samples)
        ok, vals = m.jet(np.broadcast_to(base, dirs.shape), dirs)
        header = ["index"] + _vec_cols("dir", dim) + _vec_cols("s", dim)
        rows = []
        for i in range(samples):
            if ok[i] and np.isfinite(vals[i]) and vals[i] > 0:
                pt = dirs[i] / vals[i]
                rows.append([i, *dirs[i], *pt])
        return {"command": cmd, "count": len(rows)}, header, rows

    if cmd == "oracle":
        samples = _run_num(cfg, "oracle", "samples", 200, int)
        otol = _run_num(cfg, "oracle", "tolerance", 1e-6)
        margin = _run_num(cfg, "oracle", "interior_margin", 0.15)
        base = _run_point(cfg, "oracle", "base", dim)
        header = ["index"] + _vec_cols("v", dim) + ["rel_err"]

        def accept(vs):
            vs = vs / np.linalg.norm(vs, axis=-1, keepdims=True)
            keep = m.in_domain_many(np.broadcast_to(base, vs.shape), vs)
            return keep if built.phi_parts is None else keep & _interior_ratio(built.phi_parts, base, vs, margin)

        vs = me.admissible_draws(rng, samples, dim, accept)
        vs /= np.linalg.norm(vs, axis=-1, keepdims=True)
        bases = np.broadcast_to(base, vs.shape)
        ga = m.tensor_many(bases, vs)
        gf = m.fd_tensor_many(bases, vs)
        scale = np.maximum(1.0, np.max(np.abs(gf), axis=(-2, -1)))
        errs = np.max(np.abs(ga - gf), axis=(-2, -1)) / scale
        rows = [[i, *v, float(e)] for i, (v, e) in enumerate(zip(vs, errs))]
        worst = float(np.max(errs)) if errs.size else 0.0
        return (
            {"command": cmd, "max_rel_err": worst, "tolerance": otol, "ok": bool(worst <= otol)},
            header,
            rows,
        )

    raise ValidationError(f"unknown command {cmd!r}", path="command", constraint="command")


def write_csv(stream, header: list[str], rows: list[list]):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])


def builtin_config(name: str) -> str:
    """Text of a shipped example config (see `finslerkit/configs/`)."""
    return resources.files("finslerkit").joinpath(f"configs/{name}.json").read_text()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="finslerkit",
        description="Conic pseudo-Finsler metric toolkit: evaluations, convexity scans, "
        "geodesics and graph separations driven by one JSON config per run.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--out", default=None, help="CSV output path (default: <command>_out.csv)")
    parser.add_argument("--seed", type=int, default=None, help="override run.seed")
    parser.add_argument("--tolerance", type=float, default=None, help="override run.tolerance")
    parser.add_argument("--json", action="store_true", help="print the summary as JSON")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        spec, cfg = parse_config(text)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.tolerance is not None:
            cfg = replace(cfg, tolerance=args.tolerance)
        summary, header, rows = run_command(args.command, spec, cfg)
        summary["csv"] = args.out or f"{args.command}_out.csv"
        buf = io.StringIO()
        write_csv(buf, header, rows)
        with open(summary["csv"], "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    except FinslerError as exc:
        code = 2 if exc.code in DOMAIN_CODES else 3
        where = f" at {exc.path}" if isinstance(exc, ValidationError) and exc.path else ""
        print(f"error [{exc.code}]{where}: {exc}", file=sys.stderr)
        return code
    except OSError as exc:
        print(f"error [validation_error]: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(summary.items()) if k != "command")
        print(f"{args.command}: {parts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
