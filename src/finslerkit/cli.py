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

import ast
import csv
import io
import itertools
import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Optional

import numpy as np

from . import combinators as cb
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
from .numkernel import Definiteness, central_jet

_EXPR_NAMES = dict(
    {name: getattr(np, name) for name in
     "sin cos tan arctan arctan2 sinh cosh tanh exp log sqrt abs sign minimum maximum".split()},
    pi=math.pi,
    e=math.e,
)
_EXPR_GLOBALS = dict(_EXPR_NAMES, __builtins__={})  # the globals of every compiled expression
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
    config path.  The expression is compiled once, into a function of the
    variables whose globals are the whitelisted names.  The returned function
    gives a float array; its ``variables_used`` holds the variables the
    expression names.
    """
    _require(type(expr) in (str, int, float), f"expected an expression, got {expr!r}", path, "expression")
    try:
        tree = ast.parse(str(expr), mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"bad expression {expr!r}: {exc.msg}", path=path) from exc
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            known = node.id in _EXPR_NAMES or node.id in variables
            _require(known, f"expression {expr!r} uses unknown name {node.id!r}", path, "names")
            used.add(node.id)
        elif isinstance(node, ast.Constant):
            numeric = type(node.value) in (int, float)
            _require(numeric, f"expression {expr!r} has a non-numeric constant", path, "expression")
            node.value = float(node.value)
        else:
            allowed = isinstance(node, _EXPR_NODES)
            _require(allowed, f"expression {expr!r} uses {type(node).__name__}", path, "expression")
    at = dict(lineno=1, col_offset=0, end_lineno=1, end_col_offset=0)  # compile needs every node's position
    params = ast.arguments(posonlyargs=[], args=[ast.arg(arg=name, **at) for name in variables], kwonlyargs=[],
                           kw_defaults=[], defaults=[])
    tree.body = ast.Lambda(args=params, body=tree.body, **at)
    body = eval(compile(tree, f"<config:{path}>", "eval"), _EXPR_GLOBALS)  # noqa: S307 - checked above

    def fn(*args):
        try:
            return np.asarray(body(*args), dtype=float)
        except (ArithmeticError, TypeError, ValueError) as exc:
            msg = f"expression {expr!r} failed: {exc}"
            raise ValidationError(msg, path=path, constraint="expression") from exc

    fn.variables_used = frozenset(used.intersection(variables))
    return fn


def _expr_field(exprs: list, dim: int, path: str, nested: bool = False):
    """``(field, constant)`` of a list (``nested``: a list of lists) of position expressions
    in ``x, y, z`` (up to 3 dimensions) and ``x1 .. xN``: ``field(x)`` holds their values
    on trailing axes, in one new array per call, with x's batch shape only when one names
    a position (the atom broadcasts the rest), ``constant`` says none names a position.
    Each distinct expression text is compiled once, at its first path, and evaluated once
    per call."""
    letters = ("x", "y", "z")[:dim] if dim <= 3 else ()
    variables = letters + tuple(f"x{i+1}" for i in range(dim))
    rows = exprs if nested else [exprs]
    fns, slot = {}, []  # text -> compiled expression; each entry's text, row by row
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            text = str(e)
            if text not in fns:
                fns[text] = compile_expr(e, variables, f"{path}[{i}][{j}]" if nested else f"{path}[{j}]")
            slot.append(text)

    def field(x):
        x = np.asarray(x, dtype=float)
        comps = [x[..., i] for i in range(dim)]
        args = comps[: len(letters)] + comps
        values = {text: fn(*args) for text, fn in fns.items()}
        out = np.empty(np.broadcast_shapes(*(v.shape for v in values.values())) + (len(slot),))
        for j, text in enumerate(slot):
            out[..., j] = values[text]
        return out.reshape(out.shape[:-1] + (len(rows), -1)) if nested else out

    return field, not any(fn.variables_used for fn in fns.values())


@dataclass(frozen=True)
class BuiltMetric:
    """A constructed metric plus the ingredients commands may need."""

    metric: me.ConicMetric
    phi_parts: Optional[tuple] = None  # (F0, beta, profile) for detcheck


@dataclass(frozen=True)
class MetricSpec:
    """The metric ``parse_config`` built while validating its declarative tree."""

    built: BuiltMetric


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    tolerance: float = 1e-9
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Parsing: one check of every object's keys, then one walk over the metric
# tree validates and builds it
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


def _float(value, path: str, dim: int = 0) -> float:
    return _num(value, path)


def _int(value, path: str, dim: int = 0) -> int:
    return _num(value, path, int)


def _text(value, path: str, dim: int = 0) -> str:
    return str(value)


def _point(value, path: str, dim: int) -> np.ndarray:
    """A point or vector of the config: a list of ``dim`` numbers."""
    _require(isinstance(value, list) and len(value) == dim, f"expected a list of {dim} numbers", path, "shape")
    return np.array([_num(x, f"{path}[{i}]") for i, x in enumerate(value)])


def _vectors(value, path: str, dim: int) -> np.ndarray:
    """A (K, N) vector stack; :func:`_point` names a bad entry, and reads every
    list when one holds a boolean or a string, which numpy would take for a number."""
    _require(isinstance(value, list), f"vectors must be a list of {dim}-vectors", path, "shape")
    try:
        vecs = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # a malformed entry, named below
        vecs = np.empty(0)
    if vecs.ndim != 2 or vecs.shape[1] != dim or any(type(x) in (bool, str) for row in value for x in row):
        vecs = np.array([_point(v, f"{path}[{i}]", dim) for i, v in enumerate(value)]).reshape(-1, dim)
    return vecs


def _box(value, path: str, dim: int) -> tuple:
    """A graph box ``[lo, hi]`` of two points."""
    _require(isinstance(value, list) and len(value) == 2, "box must be [lo, hi]", path, "shape")
    return tuple(_point(c, f"{path}[{i}]", dim) for i, c in enumerate(value))


def _dimension(value, path: str) -> int:
    """A dimension read at ``path``; above ``metrics.MAX_DIMENSION`` it is a
    ValidationError, raised before anything of that size is allocated."""
    dim = _num(value, path, int)
    _require(dim <= me.MAX_DIMENSION, f"dimension must be at most {me.MAX_DIMENSION}", path, "maximum")
    return dim


def _known_keys(obj: dict, keys: str, path: str, what: str, common: tuple = ()):
    """Check the keys of a config object against ``common`` and ``keys``, names
    that ``" | "`` splits into alternatives: another key is a ValidationError at
    its path (constraint ``unknown_key``), keys of two alternatives one at the
    object (constraint ``exclusive``)."""
    groups = [set(group.split()) for group in keys.split("|")]
    for key in obj:
        known = key in common or any(key in group for group in groups)
        _require(known, f"unknown {what} key {key!r}", f"{path}.{key}", "unknown_key")
    held = [next(k for k in obj if k in group) for group in groups if obj.keys() & group]
    if len(held) > 1:
        raise ValidationError(f"{what} takes {held[0]!r} or {held[1]!r}, not both", path=path, constraint="exclusive")


def _check_keys(value, path: str, kind: str = "node"):
    """Check the keys of every node, form and profile of a metric (sub)tree of
    ``kind`` (``node``, ``form``, ``profile``, or a list of nodes or forms)
    against the node table; a value of the wrong shape is left to its builder."""
    if kind in ("nodes", "forms"):
        for i, item in enumerate(value if isinstance(value, list) else ()):
            _check_keys(item, f"{path}[{i}]", kind[:-1])
    elif not isinstance(value, dict):
        return
    elif kind != "node":
        _known_keys(value, _FORM_KEYS if kind == "form" else _PROFILE_KEYS, path, kind)
    elif isinstance(value.get("type"), str) and value["type"] in _NODES:
        _known_keys(value, _NODES[value["type"]][1], path, f"{value['type']} node", ("type",))
        for key, child in value.items():
            if key in _CHILDREN:
                _check_keys(child, f"{path}.{key}", _CHILDREN[key])


def parse_config(text: str) -> tuple[MetricSpec, RunConfig]:
    """Parse a JSON config into (MetricSpec, RunConfig), building the metric.

    An unknown key of any node, form, profile or ``run`` section (also of a
    command that is not run) is a ValidationError at its path, found before
    anything is built; then every malformed metric node raises one naming its path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, path="") from exc
    if not isinstance(doc, dict) or "metric" not in doc:
        raise ValidationError("config must be an object with a 'metric' section", path="metric")
    for key in doc:
        _require(key in ("metric", "run"), f"unknown config key {key!r}", key, "unknown_key")
    tree, run = doc["metric"], doc.get("run", {})
    _require(isinstance(run, dict), "'run' section must be an object", "run")
    _check_keys(tree, "metric")
    _known_keys(run, " ".join(("seed", "tolerance", "dimension") + COMMANDS), "run", "run")
    for cmd in COMMANDS:
        if cmd in run:
            _require(isinstance(run[cmd], dict), f"run.{cmd} must be an object", f"run.{cmd}", "object")
            _known_keys(run[cmd], " ".join(key for key, _, _ in _COMMANDS[cmd][1:]), f"run.{cmd}", cmd)
    built = _build_node(tree, "metric")
    dim = built.metric.dimension
    declared = run.get("dimension")
    matches = declared is None or _num(declared, "run.dimension", int) == dim
    _require(matches, f"run.dimension={declared} but the metric has dimension {dim}", "run.dimension", "dimension")
    tol = _num(run.get("tolerance", 1e-9), "run.tolerance")
    _require(tol > 0, "tolerance must be positive", "run.tolerance", "positive")
    params = {k: v for k, v in run.items() if k not in ("dimension", "seed", "tolerance")}
    cfg = RunConfig(seed=_num(run.get("seed", 0), "run.seed", int), tolerance=tol, params=params)
    return MetricSpec(built=built), cfg


def build_metric(spec: MetricSpec) -> BuiltMetric:
    """The metric of a spec, the one ``parse_config`` built."""
    return spec.built


def _build_form(node, path: str) -> tuple[me.OneFormAtom, int]:
    """One-form node {'coeffs': [...]} or {'coeff_exprs': [...]} and its dimension."""
    _require(isinstance(node, dict), "one-form node must be a dict", path)
    key = "coeffs" if "coeffs" in node else "coeff_exprs"
    _require(key in node, "one-form node needs 'coeffs' or 'coeff_exprs'", path)
    items = node[key]
    _require(isinstance(items, list) and items, f"{key} must be a non-empty list", f"{path}.{key}", "shape")
    dim = _dimension(len(items), f"{path}.{key}")
    if key == "coeffs":
        return me.constant_oneform([_num(c, f"{path}.coeffs[{i}]") for i, c in enumerate(items)]), dim
    covector, constant = _expr_field(items, dim, f"{path}.coeff_exprs")
    return me.OneFormAtom(covector=covector, constant=constant), dim


def _node_dimension(node: dict, path: str) -> int:
    """A node's ``dimension``, 2 when absent."""
    dim = _dimension(node.get("dimension", 2), f"{path}.dimension")
    _require(dim >= 1, "dimension must be at least 1", path, "dimension")
    return dim


def _riemannian(node: dict, path: str) -> me.ConicMetric:
    key = "matrix" if "matrix" in node else "matrix_expr"
    rows = node.get(key)
    square = isinstance(rows, list) and rows and all(isinstance(r, list) and len(r) == len(rows) for r in rows)
    _require(square, "riemannian node needs a square 'matrix' or 'matrix_expr'", path)
    dim = _dimension(len(rows), f"{path}.{key}")
    if key == "matrix":
        g = [[_num(e, f"{path}.matrix[{i}][{j}]") for j, e in enumerate(row)] for i, row in enumerate(rows)]
        return me.riemann_metric(me.constant_riemann(g), dim)
    metric_matrix, constant = _expr_field(rows, dim, f"{path}.matrix_expr", nested=True)
    return me.riemann_metric(me.RiemannAtom(metric_matrix=metric_matrix, constant=constant), dim)


def _oneform_metric(node: dict, path: str) -> me.ConicMetric:
    form, dim = _build_form(node, path)
    return me.oneform_metric(form, dim)


def _gauge_curve(node: dict, path: str) -> me.ConicMetric:
    _require("r" in node, "gauge_curve_2d node needs 'r'", path)
    r_fn = compile_expr(node["r"], ("theta",), f"{path}.r")
    interval = node.get("interval")
    interval = None if interval is None else tuple(_point(interval, f"{path}.interval", 2).tolist())
    return me.minkowski_metric(mk.gauge_from_curve(mk.polar_curve(r_fn, theta_range=interval)))


def _example(name: str, curve):
    """Builder of the named 2D reference gauge whose indicatrix is ``curve(node, path)``."""
    return lambda node, path: me.minkowski_metric(mk.gauge_from_curve(curve(node, path)), name=name)


def _spiral(node: dict, path: str) -> mk.PolarCurve2D:
    return mk.spiral_curve(_num(node.get("epsilon", 0.1), f"{path}.epsilon"))


def _wavy(node: dict, path: str) -> mk.PolarCurve2D:
    amplitude = _num(node.get("amplitude", 0.3), f"{path}.amplitude")
    return mk.wavy_curve(amplitude, _num(node.get("lobes", 3), f"{path}.lobes", int))


def _build_profile(prof, path: str) -> cb.PhiProfile:
    """A family name, {'name': family, 'q': q}, or a custom {'phi', 'interval'} profile."""
    if prof is None or isinstance(prof, str):
        name, q = "randers" if prof is None else prof, None
    elif isinstance(prof, dict) and "name" in prof:
        name, q = prof["name"], None if prof.get("q") is None else _num(prof["q"], f"{path}.q")
    else:
        custom = isinstance(prof, dict) and "phi" in prof
        _require(custom, "profile must be a family name or a dict with a 'name' or a 'phi'", path, "profile")
        lo, hi = _point(prof.get("interval"), f"{path}.interval", 2).tolist()
        phi = compile_expr(prof["phi"], ("s",), f"{path}.phi")
        if "phi_dot" not in prof:
            return cb.PhiProfile(jet_fn=central_jet(phi), intervals=((lo, hi),), name="custom")
        _require("phi_ddot" in prof, "custom profile with 'phi_dot' needs 'phi_ddot'", path, "phi_ddot")
        fns = [phi] + [compile_expr(prof[key], ("s",), f"{path}.{key}") for key in ("phi_dot", "phi_ddot")]

        def jet_fn(s, with_derivatives):
            return tuple(f(s) for f in fns) if with_derivatives else phi(s)

        return cb.PhiProfile(jet_fn=jet_fn, intervals=((lo, hi),), name="custom")
    _require(isinstance(name, str) and name in cb.FAMILIES, f"unknown profile {name!r}", path, "profile")
    try:
        return cb.family_profile(name, q)
    except BadExponent as exc:
        raise ValidationError(f"BadExponent: {exc}", path=path, constraint="q") from exc


def _metric_at(node, path: str) -> me.ConicMetric:
    return _build_node(node, path).metric


def _child(node: dict, key: str, path: str) -> me.ConicMetric:
    return _metric_at(node.get(key), f"{path}.{key}")


def _each(node: dict, key: str, path: str, build) -> list:
    items = node.get(key, [])
    _require(isinstance(items, list), f"'{key}' must be a list", f"{path}.{key}")
    return [build(item, f"{path}.{key}[{i}]") for i, item in enumerate(items)]


def _sum(node: dict, path: str) -> me.ConicMetric:
    mets = _each(node, "terms", path, _metric_at)
    _require(len(mets) >= 1, "sum needs at least one term", path)
    _require(len({m.dimension for m in mets}) == 1, "sum terms must share one dimension", path)
    return cb.combine(cb.sum_combiner(len(mets)), mets, [])


def _power_q(node: dict, path: str) -> me.ConicMetric:
    mets = _each(node, "metrics", path, _metric_at)
    _require(len(mets) >= 1, "power_q needs at least one metric", path)
    forms = _each(node, "forms", path, _build_form)
    dims = {m.dimension for m in mets} | {d for _, d in forms}
    _require(len(dims) == 1, "power_q ingredients must share one dimension", path)
    _require("q" in node, "power_q node needs 'q'", path, "q")
    q = _num(node["q"], f"{path}.q")
    try:
        return cb.power_q_combine(mets, [f for f, _ in forms], q)
    except BadExponent as exc:
        raise ValidationError(f"BadExponent: {exc}", path=path, constraint="q") from exc


def _profile_node(node: dict, path: str) -> BuiltMetric:
    """A ``phi`` or ``named`` node: the base metric (Euclidean when absent),
    one-form and profile of a profile combination.  A ``named`` node may omit
    the form: it is then ``b`` times dx^1 in ``dimension``; ``b``
    beside ``form``, or ``dimension`` beside ``form`` or ``base``, is an error."""
    named = node["type"] == "named"
    if named:
        family = str(node.get("family", "")).lower()
        _require(family in cb.FAMILIES, f"unknown family {node.get('family')!r}", path, "family")
        for key, given in (("b", "form"), ("dimension", "form"), ("dimension", "base")):
            both = key in node and given in node
            _require(not both, f"named node takes {key!r} or {given!r}, not both", path, "exclusive")
    base = None if node.get("base") is None else _child(node, "base", path)
    if not named or "form" in node:
        form, dim = _build_form(node.get("form"), f"{path}.form")
    else:
        dim = _node_dimension(node, path) if base is None else base.dimension
        coeffs = np.zeros(dim)
        coeffs[0] = _num(node.get("b", 0.5), f"{path}.b")
        form = me.constant_oneform(coeffs)
    if base is None:
        base = me.euclidean_metric(dim)
    _require(base.dimension == dim, f"{node['type']} base and form dimensions differ", path)
    if named:
        profile = _build_profile({"name": family, "q": node.get("q")}, path)
    else:
        profile = _build_profile(node.get("profile"), f"{path}.profile")
    return BuiltMetric(metric=cb.phi_combine(base, form, profile), phi_parts=(base, form, profile))


def _f1f2(node: dict, path: str) -> me.ConicMetric:
    f1, f2 = _child(node, "f1", path), _child(node, "f2", path)
    _require(f1.dimension == f2.dimension, "f1f2 ingredients must share one dimension", path)
    return cb.f1f2_combine(f1, f2, _build_profile(node.get("profile"), f"{path}.profile"))


def _reversibilize(node: dict, path: str) -> me.ConicMetric:
    return cb.reversibilize(_child(node, "inner", path), str(node.get("mode", "sum")))


# node type -> (builder of (node, path), the keys the node may hold besides "type");
# " | " separates alternatives, which a node may not mix
_NODES = {
    "euclidean": (lambda node, path: me.euclidean_metric(_node_dimension(node, path)), "dimension"),
    "riemannian": (_riemannian, "matrix | matrix_expr"),
    "oneform_metric": (_oneform_metric, "coeffs | coeff_exprs"),
    "gauge_curve_2d": (_gauge_curve, "r interval"),
    "lorentz_example": (_example("lorentz", lambda node, path: mk.lorentz_curve()), ""),
    "spiral_example": (_example("spiral", _spiral), "epsilon"),
    "parabola_example": (_example("parabola", lambda node, path: mk.downward_parabola_curve()), ""),
    "sqrt_parabola_example": (_example("sqrt_parabola", lambda node, path: mk.sqrt_parabola_curve()), ""),
    "wavy_example": (_example("wavy", _wavy), "amplitude lobes"),
    "sum": (_sum, "terms"),
    "power_q": (_power_q, "q metrics forms"),
    "phi": (_profile_node, "profile base form"),
    "named": (_profile_node, "family q b dimension base form"),
    "f1f2": (_f1f2, "profile f1 f2"),
    "reversibilize": (_reversibilize, "mode inner"),
}
_FORM_KEYS = "coeffs | coeff_exprs"
_PROFILE_KEYS = "name q | phi interval phi_dot phi_ddot"  # a family or a custom profile
# what a node key that holds more of the tree holds
_CHILDREN = {"base": "node", "f1": "node", "f2": "node", "inner": "node", "terms": "nodes", "metrics": "nodes",
             "form": "form", "forms": "forms", "profile": "profile"}


def _build_node(node, path: str) -> BuiltMetric:
    """Validate and build one metric node; a malformed node raises a
    ValidationError naming its config path.  Dimensions come from the
    built children.  A library InvalidArgument of the node's builder is
    reported at ``<path>.<parameter>``, the node key of that name."""
    typed = isinstance(node, dict) and isinstance(node.get("type"), str)
    _require(typed, "metric node must be a dict with a 'type'", path)
    _require(node["type"] in _NODES, f"unknown metric node type {node['type']!r}", path, "type")
    try:
        built = _NODES[node["type"]][0](node, path)
    except InvalidArgument as exc:
        raise ValidationError(str(exc), path=f"{path}.{exc.path}", constraint=exc.constraint) from exc
    return built if isinstance(built, BuiltMetric) else BuiltMetric(metric=built)


# ---------------------------------------------------------------------------
# Commands: a function of (cmd, built metric, run config, parameters) each,
# with its parameters declared in _COMMANDS
# ---------------------------------------------------------------------------


def _vec_cols(prefix: str, dim: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(dim)]


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


def _in_domain_at(m: me.ConicMetric, base):
    """The ``accept`` of :func:`me.admissible_draws` for vectors admissible at ``base``."""
    return lambda vs: m.in_domain_many(base, vs)


def _rows(*columns, index=None, text=None) -> list[list]:
    """CSV rows from whole arrays: one ``np.column_stack(columns).tolist()`` of
    the float columns (1-D arrays or 2-D blocks), then in each row list the
    int from ``index`` in front and, for ``text = (position, cells)``, its
    text cell at that position among the float cells."""
    rows = np.column_stack(columns).tolist()
    if text is not None:
        at, cells = text
        for row, cell in zip(rows, cells):
            row.insert(at, cell)
    if index is not None:
        for row, i in zip(rows, index):
            row.insert(0, i)
    return rows


_CLASS_NAMES = np.array([d.value for d in Definiteness])  # the CSV name of each EigenReport code


def _pointwise(cmd: str, built: BuiltMetric, cfg: RunConfig, base, vectors):
    """``eval``, ``tensor`` and ``classify``: one row per vector at ``base``."""
    m, dim, count = built.metric, len(base), len(vectors)
    header = ["index"] + _vec_cols("base", dim) + _vec_cols("v", dim)
    lead = (np.broadcast_to(base, vectors.shape), vectors)
    if cmd == "eval":
        rows = _rows(*lead, me.eval_F_many(m, base, vectors), index=range(count))
        return {"command": cmd, "count": count}, header + ["F"], rows
    gs = me.tensor(m, me.TangentVec(base, vectors))
    if cmd == "tensor":
        header += [f"g{i}{j}" for i in range(dim) for j in range(dim)]
        rows = _rows(*lead, gs.reshape(count, dim * dim), index=range(count))
        return {"command": cmd, "count": count}, header, rows
    rep = me.eigen_classify(gs, cfg.tolerance)
    classes = _CLASS_NAMES[rep.code].tolist()
    rows = _rows(*lead, rep.min_eigenvalue, index=range(count), text=(2 * dim, classes))
    return {"command": cmd, "counts": dict(Counter(classes))}, header + ["classification", "min_eigenvalue"], rows


def _scan(cmd: str, built: BuiltMetric, cfg: RunConfig, base, samples):
    dirs, ok, rep = me.convexity_scan(built.metric, base, samples, cfg.tolerance)
    header = ["index"] + _vec_cols("dir", len(base)) + ["status", "min_eigenvalue"]
    mins, statuses = np.full(samples, math.nan), np.full(samples, "OutsideDomain", dtype=object)
    mins[ok], statuses[ok] = rep.min_eigenvalue, _CLASS_NAMES[rep.code]
    statuses = statuses.tolist()
    rows = _rows(dirs, mins, index=range(samples), text=(len(base), statuses))
    counts = dict(Counter(statuses))
    pd_frac = counts.get("PositiveDefinite", 0) / samples
    return {"command": cmd, "counts": counts, "pd_fraction": pd_frac}, header, rows


def _detcheck(cmd: str, built: BuiltMetric, cfg: RunConfig, base, samples):
    if built.phi_parts is None:
        raise ValidationError("detcheck needs a profile-family metric (phi or named node)", path="metric")
    F0, beta, profile = built.phi_parts
    m, dim = built.metric, len(base)
    header = ["index"] + _vec_cols("v", dim) + ["det_formula", "det_direct", "rel_err"]
    vs = me.admissible_draws(np.random.default_rng(cfg.seed), samples, dim, _in_domain_at(m, base))
    tv = me.TangentVec(base, vs)
    lhs = cb.det_tensor_formula(F0, beta, profile, tv)
    rhs = np.linalg.det(me.tensor(m, tv))
    errs = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
    rows = _rows(vs, lhs, rhs, errs, index=range(len(vs)))
    return {"command": cmd, "max_rel_err": float(np.max(errs, initial=0.0))}, header, rows


def _geodesic(cmd: str, built: BuiltMetric, cfg: RunConfig, base, velocity, t_end, step):
    from . import geodesy as gd

    m, dim = built.metric, len(base)
    states = gd.geodesic_shoot(m, gd.GeodesicState(base, velocity, 0.0), t_end, step)
    header = ["t"] + _vec_cols("x", dim) + _vec_cols("v", dim) + ["F"]
    ts = np.array([s.parameter for s in states])
    xs = np.array([s.position for s in states])
    vs = np.array([s.velocity for s in states])
    rows = _rows(ts, xs, vs, me.eval_F_many(m, xs, vs))
    return {"command": cmd, "steps": len(rows) - 1}, header, rows


def _expmap(cmd: str, built: BuiltMetric, cfg: RunConfig, base, velocity):
    from . import geodesy as gd

    end = gd.exp_map(built.metric, base, velocity)
    header = _vec_cols("base", len(base)) + _vec_cols("v", len(base)) + _vec_cols("exp", len(base))
    rows = _rows(base[None], velocity[None], np.asarray(end)[None])
    return {"command": cmd, "endpoint": [float(v) for v in end]}, header, rows


def _gauss(cmd: str, built: BuiltMetric, cfg: RunConfig, base, samples):
    from . import geodesy as gd

    m, dim = built.metric, len(base)
    header = ["index"] + _vec_cols("v", dim) + _vec_cols("w", dim) + ["residual"]
    rng = np.random.default_rng(cfg.seed)
    vs, ws = me.admissible_draws(rng, samples, dim, _in_domain_at(m, base), paired=True)
    res = gd.gauss_residuals(m, base, vs, ws)
    rows = _rows(vs, ws, res, index=range(len(vs)))
    return {"command": cmd, "max_abs_residual": float(np.max(np.abs(res)))}, header, rows


def _graph(cmd: str, built: BuiltMetric, cfg: RunConfig, box, resolution, neighbor_radius, source=None,
           target=None, center=None, radius=None, direction=None):
    """``separation``, ``ball`` and ``reach`` on the grid graph of ``box``; the
    graph's arguments (:func:`gd.check_graph`), then the points are checked
    before the graph is built."""
    from . import geodesy as gd

    dim = len(box[0])
    gd.check_graph(box, resolution, neighbor_radius)
    if cmd == "ball":
        center = gd.grid_node_id(box, resolution, center, "center")
        _require(radius > 0, "radius must be positive", f"run.{cmd}.radius", "positive")
        mk.check_ball_direction(direction)
    else:
        source = gd.grid_node_id(box, resolution, source, "source")
        target = gd.grid_node_id(box, resolution, target, "target") if cmd == "separation" else None
    graph = gd.build_separation_graph(built.metric, box, resolution, neighbor_radius)
    if cmd == "separation":
        result = gd.separation(graph, source, target)
        header = ["step"] + _vec_cols("x", dim)
        rows = _rows(result.witness_path, index=range(len(result.witness_path)))
        return (
            {
                "command": cmd,
                "value": float(result.value) if np.isfinite(result.value) else "Infinity",
                "reachable": bool(result.reachable),
                "nodes": graph.node_count,
                "edges": graph.edge_count,
            },
            header,
            rows,
        )
    idx = gd.reachability(graph, source) if cmd == "reach" else gd.df_ball(graph, center, radius, direction)
    rows = _rows(graph.nodes[idx], index=idx.tolist())
    return {"command": cmd, "count": int(idx.size)}, ["index"] + _vec_cols("x", dim), rows


def _indicatrix(cmd: str, built: BuiltMetric, cfg: RunConfig, base, samples):
    dirs = me.unit_directions(len(base), samples)
    ok, vals = built.metric.jet(base, dirs)
    header = ["index"] + _vec_cols("dir", len(base)) + _vec_cols("s", len(base))
    on_ray = ok & np.isfinite(vals) & (vals > 0)
    rows = _rows(dirs[on_ray], dirs[on_ray] / vals[on_ray, None], index=np.flatnonzero(on_ray).tolist())
    return {"command": cmd, "count": len(rows)}, header, rows


def _oracle(cmd: str, built: BuiltMetric, cfg: RunConfig, samples, tolerance, interior_margin, base):
    m, dim = built.metric, len(base)
    header = ["index"] + _vec_cols("v", dim) + ["rel_err"]

    def accept(vs):
        vs = vs / np.linalg.norm(vs, axis=-1, keepdims=True)
        keep = m.in_domain_many(base, vs)
        return keep if built.phi_parts is None else keep & _interior_ratio(built.phi_parts, base, vs, interior_margin)

    vs = me.admissible_draws(np.random.default_rng(cfg.seed), samples, dim, accept)
    vs /= np.linalg.norm(vs, axis=-1, keepdims=True)
    ga = m.tensor_many(base, vs)
    gf = m.fd_tensor_many(base, vs)
    scale = np.maximum(1.0, np.max(np.abs(gf), axis=(-2, -1)))
    errs = np.max(np.abs(ga - gf), axis=(-2, -1)) / scale
    rows = _rows(vs, errs, index=range(len(vs)))
    worst = float(np.max(errs)) if errs.size else 0.0
    return {"command": cmd, "max_rel_err": worst, "tolerance": tolerance, "ok": bool(worst <= tolerance)}, header, rows


def _default_step(dim: int) -> float:
    """``run.geodesic.step``'s default, read when a geodesic run needs it."""
    from .geodesy import DEFAULT_STEP

    return DEFAULT_STEP


# command -> (function, then one (key, reader, default) per key of its run.<cmd>
# section, in reading order); a default of None marks a required key, a callable
# one is called with the metric's dimension
_BASE = ("base", _point, np.zeros)
_VECTORS = ("vectors", _vectors, None)
_VELOCITY = ("velocity", _point, None)
_GRID = (("box", _box, None), ("resolution", _int, 21), ("neighbor_radius", _int, 3))
_COMMANDS = {
    "eval": (_pointwise, _BASE, _VECTORS),
    "tensor": (_pointwise, _BASE, _VECTORS),
    "classify": (_pointwise, _BASE, _VECTORS),
    "scan": (_scan, _BASE, ("samples", _int, 360)),
    "detcheck": (_detcheck, _BASE, ("samples", _int, 100)),
    "geodesic": (_geodesic, _BASE, _VELOCITY, ("t_end", _float, 1.0), ("step", _float, _default_step)),
    "expmap": (_expmap, _BASE, _VELOCITY),
    "gauss": (_gauss, _BASE, ("samples", _int, 10)),
    "separation": (_graph, *_GRID, ("source", _point, None), ("target", _point, None)),
    "ball": (_graph, *_GRID, ("center", _point, None), ("radius", _float, None), ("direction", _text, "forward")),
    "reach": (_graph, *_GRID, ("source", _point, None)),
    "indicatrix": (_indicatrix, _BASE, ("samples", _int, 256)),
    "oracle": (_oracle, ("samples", _int, 200), ("tolerance", _float, 1e-6), ("interior_margin", _float, 0.15), _BASE),
}
COMMANDS = tuple(_COMMANDS)


def run_command(cmd: str, spec: MetricSpec, cfg: RunConfig):
    """Execute one command on the parameters its declared readers take from
    ``run.<cmd>``; returns (summary dict, csv header, csv rows).  A library
    InvalidArgument is reported as a ValidationError at ``run.<cmd>.<parameter>``."""
    _require(cmd in _COMMANDS, f"unknown command {cmd!r}", "command", "command")
    _require(cfg.seed >= 0, f"seed must be at least 0, got {cfg.seed}", "run.seed", "minimum")
    built = build_metric(spec)
    dim = built.metric.dimension
    run, *params = _COMMANDS[cmd]
    section, args = cfg.params.get(cmd, {}), {}
    for key, read, default in params:
        path = f"run.{cmd}.{key}"
        if key in section:
            args[key] = read(section[key], path, dim)
        else:
            _require(default is not None, f"missing {path}", path, "required")
            args[key] = default(dim) if callable(default) else default
    try:
        return run(cmd, built, cfg, **args)
    except InvalidArgument as exc:
        raise ValidationError(str(exc), path=f"run.{cmd}.{exc.path}", constraint=exc.constraint) from exc


# the %-format of a cell type whose text is fixed: floats as format(x, ".17g"),
# integers as str(x); _row_format gives numpy integer types "%d" too
_CELL_FORMATS = {float: "%.17g", np.float64: "%.17g", int: "%d", str: "%s"}
_PLAIN_TEXT = re.compile(r"[\w.+-]+", re.ASCII)  # text csv's minimal quoting writes as it is


def _row_format(types: tuple):
    """The one %-format of a row of cells of these types, with the positions of
    its text cells; () when a cell type must go through the csv writer."""
    cells = []
    for t in types:
        fmt = _CELL_FORMATS.get(t) or ("%d" if issubclass(t, np.integer) else None)
        if fmt is None:
            return ()
        cells.append(fmt)
    return ",".join(cells) + "\n", [k for k, t in enumerate(types) if t is str]


def write_csv(stream, header: list[str], rows: list[list]):
    """Write the header and rows: floats as ``format(x, ".17g")``, everything
    else as ``str(x)``, under csv's minimal quoting.  Consecutive rows with the
    same tuple of cell types form a run.  A run of floats, ints and text whose
    distinct text cells are all plain is written with one %-format string and
    one ``stream.write``; any other run goes row by row through the csv writer."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for types, run in itertools.groupby(rows, key=lambda row: tuple(map(type, row))):
        run, fmt = list(run), _row_format(types)
        if fmt and all(map(_PLAIN_TEXT.fullmatch, {row[k] for row in run for k in fmt[1]})):
            stream.write((fmt[0] * len(run)) % tuple(itertools.chain.from_iterable(run)))
        else:
            writer.writerows([format(x, ".17g") if isinstance(x, float) else str(x) for x in row] for row in run)


def builtin_config(name: str) -> str:
    """Text of a shipped example config (see `finslerkit/configs/`)."""
    return resources.files("finslerkit").joinpath(f"configs/{name}.json").read_text()


def main(argv=None) -> int:
    import argparse

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
