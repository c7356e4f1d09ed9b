import copy
import csv
import functools
import io
import json
import math
import operator
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import cli
from finslerkit.cli import (
    COMMANDS,
    MAX_GRAPH_EDGES,
    BuiltMetric,
    MetricSpec,
    build_metric,
    builtin_config,
    main,
    parse_config,
    render_config,
    run_command,
    write_csv,
)
from finslerkit import combinators as cb
from finslerkit import geodesy as gd
from finslerkit import metrics as me
from finslerkit.errors import DomainEmpty, FinslerError, InvalidArgument, ParseError, StepBudget, ValidationError

BUILTINS = [
    "euclidean",
    "spiral_ex213",
    "sqrt_parabola_ex214",
    "parabola_ex215",
    "lorentz_ex216",
    "lorentz_cone_ex36",
    "halfplane_dy",
    "randers",
    "kropina",
    "matsumoto",
    "sum_pair",
    "power_q2",
    "f1f2_matsumoto",
    "randers_posdep",
    "wavy_ex212",
]


def _is_config_path(exc: ValidationError) -> bool:
    """A CLI error names a config path (``run``, ``run.<...>`` or ``metric<...>``),
    never a bare library parameter."""
    return not isinstance(exc, InvalidArgument) and (exc.path == "run" or exc.path.startswith(("run.", "metric")))


class TestParseConfig:
    def test_minimal_euclidean(self):
        spec, cfg = parse_config('{"metric": {"type": "euclidean", "dimension": 2}}')
        built = build_metric(spec)
        assert built.metric.dimension == 2
        assert built.metric.name == "euclidean"

    def test_randers_shorthand(self):
        spec, _ = parse_config('{"metric": {"type": "named", "family": "randers", "b": 0.5}}')
        built = build_metric(spec)
        assert float(built.metric.F_many(np.zeros(2), np.array([1.0, 0.0]))) == pytest.approx(1.5)

    def test_matsumoto_zero_exponent_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_config('{"metric": {"type": "named", "family": "matsumoto", "q": 0.0}}')
        assert "BadExponent" in str(err.value)

    def test_syntax_error_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_config('{"metric": \n {"type": }}')
        assert err.value.line == 2

    def test_unknown_node_type(self):
        with pytest.raises(ValidationError) as err:
            parse_config('{"metric": {"type": "warp-drive"}}')
        assert err.value.path == "metric"

    def test_dimension_mismatch(self):
        text = json.dumps(
            {
                "metric": {
                    "type": "sum",
                    "terms": [
                        {"type": "euclidean", "dimension": 2},
                        {"type": "euclidean", "dimension": 3},
                    ],
                }
            }
        )
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_run_dimension_checked(self):
        with pytest.raises(ValidationError):
            parse_config(
                '{"metric": {"type": "euclidean", "dimension": 2}, "run": {"dimension": 3}}'
            )

    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_round_trip(self, name):
        spec, cfg = parse_config(builtin_config(name))
        spec2, cfg2 = parse_config(render_config(spec, cfg))
        assert spec2.tree == spec.tree
        assert cfg2.params == cfg.params
        assert cfg2.seed == cfg.seed

    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_builds(self, name):
        spec, _ = parse_config(builtin_config(name))
        built = build_metric(spec)
        assert built is spec.built
        assert built.metric.dimension == 2  # every shipped metric lives on the plane


class TestMalformedConfig:
    """Every malformed metric tree is a ValidationError at parse time, with its path."""

    FORM = {"coeffs": [0.5, 0.0]}

    @pytest.mark.parametrize(
        "tree, path",
        [
            ([1], "metric"),
            ({"type": "sum", "terms": [5]}, "metric.terms[0]"),
            ({"type": "f1f2", "f1": {"type": "euclidean"}, "f2": [2]}, "metric.f2"),
            ({"type": "power_q", "metrics": [{"type": "euclidean"}]}, "metric"),
            (
                {"type": "phi", "form": FORM, "profile": {"phi": "1+s", "phi_dot": "1", "interval": [-1, 9]}},
                "metric.profile",
            ),
            ({"type": "phi", "form": FORM, "profile": {"name": "finsler"}}, "metric.profile"),
            ({"type": "phi", "form": FORM, "profile": {"name": "kropina", "q": -1}}, "metric.profile"),
            ({"type": "phi", "profile": "randers"}, "metric.form"),
            ({"type": "oneform", "coeffs": [0.0, 1.0]}, "metric"),
            ({"type": "named", "family": "randers", "dimension": 0}, "metric"),
            (
                {"type": "named", "family": "randers", "base": {"type": "euclidean", "dimension": 3}, "form": FORM},
                "metric",
            ),
        ],
        ids=[
            "list_node",
            "int_term",
            "list_f2",
            "power_q_without_q",
            "phi_dot_without_phi_ddot",
            "unknown_profile_name",
            "bad_profile_exponent",
            "phi_without_form",
            "oneform_type",
            "named_dimension_zero",
            "base_form_dimensions",
        ],
    )
    def test_error_names_path(self, tree, path):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"metric": tree}))
        assert err.value.path == path

    @pytest.mark.parametrize(
        "metric, run, path",
        [
            ({"type": "oneform_metric", "coeffs": ["a", 0]}, {}, "metric.coeffs[0]"),
            ({"type": "named", "family": "randers", "form": {"coeffs": [0.5, "x"]}}, {}, "metric.form.coeffs[1]"),
            ({"type": "riemannian", "matrix": [[1, "a"], [0, 1]]}, {}, "metric.matrix[0][1]"),
            ({"type": "spiral_example", "epsilon": "a"}, {}, "metric.epsilon"),
            ({"type": "wavy_example", "amplitude": "a"}, {}, "metric.amplitude"),
            ({"type": "wavy_example", "lobes": "x"}, {}, "metric.lobes"),
            ({"type": "named", "family": "randers", "dimension": "x"}, {}, "metric.dimension"),
            ({"type": "named", "family": "randers", "b": "x"}, {}, "metric.b"),
            ({"type": "euclidean", "dimension": "x"}, {}, "metric.dimension"),
            (
                {"type": "phi", "form": FORM, "profile": {"phi": "1+s", "interval": ["a", 9]}},
                {},
                "metric.profile.interval[0]",
            ),
            ({"type": "gauge_curve_2d", "r": "1", "interval": [0.1, "b"]}, {}, "metric.interval[1]"),
            ({"type": "power_q", "q": "x", "metrics": [{"type": "euclidean"}]}, {}, "metric.q"),
            ({"type": "named", "family": "kropina", "q": "x"}, {}, "metric.q"),
            ({"type": "phi", "form": FORM, "profile": {"name": "matsumoto", "q": "x"}}, {}, "metric.profile.q"),
            ({"type": "euclidean"}, {"dimension": "x"}, "run.dimension"),
            ({"type": "euclidean"}, {"tolerance": "x"}, "run.tolerance"),
            ({"type": "euclidean"}, {"seed": [1]}, "run.seed"),
            # booleans and fractional integers (appended, so earlier ids keep their index)
            ({"type": "euclidean"}, {"seed": 1.5}, "run.seed"),
            ({"type": "euclidean"}, {"seed": True}, "run.seed"),
            ({"type": "euclidean"}, {"tolerance": True}, "run.tolerance"),
            ({"type": "euclidean", "dimension": 2.5}, {}, "metric.dimension"),
            ({"type": "wavy_example", "lobes": 2.5}, {}, "metric.lobes"),
            ({"type": "named", "family": "randers", "b": False}, {}, "metric.b"),
            # numeric strings are not numbers
            ({"type": "named", "family": "randers", "b": "0.5"}, {}, "metric.b"),
            ({"type": "oneform_metric", "coeffs": ["0.5", 0]}, {}, "metric.coeffs[0]"),
            ({"type": "riemannian", "matrix": [[1, 0], [0, "1"]]}, {}, "metric.matrix[1][1]"),
            ({"type": "euclidean", "dimension": "2"}, {}, "metric.dimension"),
            ({"type": "euclidean"}, {"seed": "1"}, "run.seed"),
            ({"type": "euclidean"}, {"tolerance": "1e-9"}, "run.tolerance"),
            # a top-level run key that is not a setting or a command
            ({"type": "euclidean"}, {"seeed": 5}, "run.seeed"),
            # a key no table declares, in a node, a form, a profile or a run section (run or not),
            # and keys of two alternatives together
            ({"type": "euclidean", "dimenson": 3}, {}, "metric.dimenson"),
            ({"type": "euclidean"}, {"scan": {"sampels": 12}}, "run.scan.sampels"),
            ({"type": "euclidean"}, {"ball": {"box": [[-1, -1], [1, 1]], "center": [0, 0], "radius": 0.3,
                                              "directon": "backward"}}, "run.ball.directon"),
            ({"type": "gauge_curve_2d", "r": "1", "intervl": [0.1, 6.18]}, {}, "metric.intervl"),
            ({"type": "sum", "terms": [{"type": "euclidean"}, {"type": "euclidean", "dimenson": 3}]}, {},
             "metric.terms[1].dimenson"),
            ({"type": "power_q", "q": 2, "metrics": [{"type": "euclidean"}], "forms": [{"coefs": [0.5, 0]}]}, {},
             "metric.forms[0].coefs"),
            ({"type": "phi", "form": {"coeffs": [0.5, 0], "b": 1}}, {}, "metric.form.b"),
            ({"type": "phi", "form": FORM, "profile": {"name": "kropina", "qq": 2}}, {}, "metric.profile.qq"),
            ({"type": "phi", "form": FORM, "profile": {"phi": "1+s", "interval": [-1, 9], "q": 2}}, {},
             "metric.profile"),
            ({"type": "named", "family": "randers", "base": {"type": "euclidean", "dim": 2}}, {}, "metric.base.dim"),
            ({"type": "euclidean"}, {"scan": {}, "tensor": {"vectrs": [[1, 0]]}}, "run.tensor.vectrs"),
            ({"type": "oneform_metric", "coeffs": [0, 1], "coeff_exprs": ["0", "1"]}, {}, "metric"),
            ({"type": "riemannian", "matrix": [[1, 0], [0, 1]], "matrix_expr": [["1", "0"], ["0", "1"]]}, {},
             "metric"),
            ({"type": "phi", "form": FORM, "profile": {"name": "randers", "phi": "1+s", "interval": [-1, 9]}}, {},
             "metric.profile"),
            ({"type": "oneform_metric", "coeffs": "abc"}, {}, "metric.coeffs"),
            ({"type": "named", "family": "randers", "form": {"coeffs": [], "coeff_exprs": ["0.1", "0"]}}, {},
             "metric.form"),
            # a named node's shorthand beside what it stands for
            ({"type": "named", "family": "randers", "dimension": 3, "base": {"type": "euclidean"}}, {}, "metric"),
            ({"type": "named", "family": "randers", "b": 0.9, "form": {"coeffs": [0.5, 0]}}, {}, "metric"),
        ],
    )
    def test_non_numeric_scalar_names_path(self, metric, run, path):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"metric": metric, "run": run}))
        assert err.value.path == path

    @pytest.mark.parametrize(
        "command, section, path",
        [
            ("scan", {"samples": "x"}, "run.scan.samples"),
            ("scan", {"base": 5}, "run.scan.base"),
            ("scan", {"base": [0, "a"]}, "run.scan.base[1]"),
            ("indicatrix", {"samples": [3]}, "run.indicatrix.samples"),
            ("detcheck", {"samples": "x"}, "run.detcheck.samples"),
            ("geodesic", {"velocity": [1, 0, 3]}, "run.geodesic.velocity"),
            ("geodesic", {"velocity": [1, 0], "t_end": "x"}, "run.geodesic.t_end"),
            ("geodesic", {"velocity": [1, 0], "step": 0}, "run.geodesic.step"),
            ("expmap", {"velocity": [1, "x"]}, "run.expmap.velocity[1]"),
            ("gauss", {"base": [0, "x"]}, "run.gauss.base[1]"),
            ("gauss", {"samples": "x"}, "run.gauss.samples"),
            ("separation", {"box": [[-1, -1]], "source": [0, 0], "target": [0.5, 0]}, "run.separation.box"),
            ("separation", {"box": [[-1, -1], [1]], "source": [0, 0], "target": [0.5, 0]}, "run.separation.box[1]"),
            ("separation", {"box": [[-1, -1], [1, 1]], "source": [0, 0], "target": "x"}, "run.separation.target"),
            ("reach", {"box": [[-1, -1], [1, 1]], "source": [0, 0], "resolution": "x"}, "run.reach.resolution"),
            ("reach", {"box": [[-1, -1], [1, 1]], "source": [0], "neighbor_radius": 2}, "run.reach.source"),
            ("ball", {"box": [[-1, -1], [1, 1]], "center": [0, 0]}, "run.ball.radius"),
            ("ball", {"box": [[-1, -1], [1, 1]], "center": [0, 0], "radius": "x"}, "run.ball.radius"),
            ("ball", {"box": [[-1, -1], [1, 1]], "center": [0, None], "radius": 0.3}, "run.ball.center[1]"),
            ("oracle", {"tolerance": "x"}, "run.oracle.tolerance"),
            ("oracle", {"interior_margin": "x"}, "run.oracle.interior_margin"),
            # non-finite or overflowing spans and sample counts (appended, so earlier ids keep their index)
            ("geodesic", {"velocity": [1, 0], "t_end": -1}, "run.geodesic.t_end"),
            ("geodesic", {"velocity": [1, 0], "t_end": 0}, "run.geodesic.t_end"),
            ("geodesic", {"velocity": [1, 0], "t_end": float("inf")}, "run.geodesic.t_end"),
            ("geodesic", {"velocity": [1, 0], "t_end": float("nan")}, "run.geodesic.t_end"),
            ("geodesic", {"velocity": [1, 0], "t_end": 1e308}, "run.geodesic.t_end"),
            ("geodesic", {"velocity": [1, 0], "step": float("inf")}, "run.geodesic.step"),
            ("expmap", {}, "run.expmap.velocity"),
            ("scan", {"samples": float("inf")}, "run.scan.samples"),
            ("gauss", {"samples": float("inf")}, "run.gauss.samples"),
            ("detcheck", {"samples": float("inf")}, "run.detcheck.samples"),
            # sections that are not objects, malformed vector lists and boolean numbers
            ("tensor", 2, "run.tensor"),
            ("indicatrix", [], "run.indicatrix"),
            ("scan", None, "run.scan"),
            ("eval", {"vectors": "x"}, "run.eval.vectors"),
            ("eval", {"vectors": {}}, "run.eval.vectors"),
            ("eval", {"vectors": [[1, 2], [3, "a"]]}, "run.eval.vectors[1][1]"),
            ("tensor", {"vectors": [[1, 2], [3]]}, "run.tensor.vectors[1]"),
            ("classify", {"vectors": [[1, 2], 3]}, "run.classify.vectors[1]"),
            ("eval", {"vectors": [[1, 2]], "base": [0, True]}, "run.eval.base[1]"),
            ("ball", {"box": [[-1, -1], [1, 1]], "center": [0, 0], "radius": True}, "run.ball.radius"),
            ("eval", {"vectors": [[1, 0], [True, 0]]}, "run.eval.vectors[1][0]"),
            # numeric strings are not numbers, and a graph box must be finite with a finite cell size
            ("eval", {"base": ["0", "0"], "vectors": [[3, 4]]}, "run.eval.base[0]"),
            ("eval", {"vectors": [["3", "4"]]}, "run.eval.vectors[0][0]"),
            ("classify", {"vectors": [[1, 0], [0, "1"]]}, "run.classify.vectors[1][1]"),
            ("scan", {"samples": "12"}, "run.scan.samples"),
            ("ball", {"box": [[-1, -1], [1, 1]], "center": [0, 0], "radius": "nan"}, "run.ball.radius"),
            ("ball", {"box": [[-1, -1], [1, "nan"]], "center": [0, 0], "radius": 0.3}, "run.ball.box[1][1]"),
            ("separation", {"box": [[-1, -1], [1, 1]], "source": [0, 0], "target": [0.5, 0], "resolution": "21"},
             "run.separation.resolution"),
            ("separation", {"box": [[float("-inf"), -1], [1, 1]], "source": [0, 0], "target": [0.5, 0]},
             "run.separation.box"),
            ("separation", {"box": [[-1e308, -1], [1e308, 1]], "source": [0, 0], "target": [0, 0.5]},
             "run.separation.box"),
            ("reach", {"box": [[0, 0], [5e-324, 1]], "source": [0, 0]}, "run.reach.box"),
            ("ball", {"box": [[-1, -1], [float("inf"), 1]], "center": [0, 0], "radius": 0.3}, "run.ball.box"),
            # a key the command does not declare
            ("scan", {"base": [0, 0], "samples": 10, "step": 0.1}, "run.scan.step"),
        ],
    )
    def test_run_parameter_names_path(self, command, section, path, tmp_path):
        doc = {"metric": {"type": "named", "family": "randers", "b": 0.5}, "run": {command: section}}
        with pytest.raises(ValidationError) as err:  # a section that is not an object fails in parse_config
            run_command(command, *parse_config(json.dumps(doc)))
        assert err.value.path == path and _is_config_path(err.value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 2

    def test_phi_base_defaults_to_form_dimension(self):
        form = {"coeffs": [0.3, 0.0, 0.1]}
        phi, _ = parse_config(json.dumps({"metric": {"type": "phi", "form": form}}))
        named, _ = parse_config(json.dumps({"metric": {"type": "named", "family": "randers", "form": form}}))
        assert build_metric(phi).metric.dimension == build_metric(named).metric.dimension == 3
        vs = np.random.default_rng(2).normal(size=(20, 3))
        F = [build_metric(spec).metric.F_many(np.zeros(3), vs) for spec in (phi, named)]
        assert np.array_equal(F[0], F[1])

    @pytest.mark.parametrize(
        "command,section,path",
        [
            ("reach", {"box": [[-1, -1], [1, 1]], "source": [0, 0], "resolution": 1}, "run.reach.resolution"),
            ("separation", {"box": [[-1, -1], [1, 1]], "source": [0, 0], "target": [0.5, 0], "neighbor_radius": 0},
             "run.separation.neighbor_radius"),
            ("reach", {"box": [[-1, -1], [1, 1]], "source": [0, 0], "neighbor_radius": -2}, "run.reach.neighbor_radius"),
            ("ball", {"box": [[-1, -1], [1, 1]], "center": [0, 0], "radius": 0}, "run.ball.radius"),
            ("ball", {"box": [[-1, -1], [1, 1]], "center": [0, 0], "radius": -0.3}, "run.ball.radius"),
            ("ball", {"box": [[-1, -1], [1, 1]], "center": [0, 0], "radius": float("nan")}, "run.ball.radius"),
            ("scan", {"samples": -1}, "run.scan.samples"),
            ("indicatrix", {"samples": 0}, "run.indicatrix.samples"),
            ("detcheck", {"samples": -3}, "run.detcheck.samples"),
            ("gauss", {"samples": 0}, "run.gauss.samples"),
            ("oracle", {"samples": 0}, "run.oracle.samples"),
            ("reach", {"box": [[0, 0], [0, 1]], "source": [0, 0]}, "run.reach.box"),
            ("separation", {"box": [[-1, 1], [1, -1]], "source": [0, 0], "target": [0.5, 0]}, "run.separation.box"),
            ("ball", {"box": [[-1, -1], [1, float("nan")]], "center": [0, 0], "radius": 0.3}, "run.ball.box"),
            ("scan", {"samples": 1e308}, "run.scan.samples"),
            ("indicatrix", {"samples": 10**6 + 1}, "run.indicatrix.samples"),
            ("detcheck", {"samples": 1e308}, "run.detcheck.samples"),
            ("gauss", {"samples": 2 * 10**6}, "run.gauss.samples"),
            ("oracle", {"samples": 1e308}, "run.oracle.samples"),
            # integer parameters take integral values only (appended, so earlier ids keep their index)
            ("scan", {"samples": 2.7}, "run.scan.samples"),
            ("indicatrix", {"samples": True}, "run.indicatrix.samples"),
            ("gauss", {"samples": 0.5}, "run.gauss.samples"),
            ("reach", {"box": [[-1, -1], [1, 1]], "source": [0, 0], "resolution": 20.5}, "run.reach.resolution"),
            ("separation", {"box": [[-1, -1], [1, 1]], "source": [0, 0], "target": [0.5, 0], "neighbor_radius": True},
             "run.separation.neighbor_radius"),
            # the graph work cap: resolution^n grid nodes x neighbour offsets <= MAX_GRAPH_EDGES
            ("reach", {"box": [[-1, -1], [1, 1]], "source": [0, 0], "resolution": 100000}, "run.reach.resolution"),
            ("separation", {"box": [[-1, -1], [1, 1]], "source": [0, 0], "target": [0.5, 0], "resolution": 1119,
                            "neighbor_radius": 1}, "run.separation.resolution"),
            ("ball", {"box": [[-1, -1], [1, 1]], "center": [0, 0], "radius": 0.3, "resolution": 1e308},
             "run.ball.resolution"),
            # an integer resolution above the largest float
            ("reach", {"box": [[-1, -1], [1, 1]], "source": [0, 0], "resolution": 10**400}, "run.reach.resolution"),
        ],
    )
    def test_run_parameter_out_of_range_names_path(self, command, section, path, tmp_path):
        doc = {"metric": {"type": "named", "family": "randers", "b": 0.5}, "run": {command: section}}
        spec, cfg = parse_config(json.dumps(doc))
        with pytest.raises(ValidationError) as err:
            run_command(command, spec, cfg)
        assert err.value.path == path and _is_config_path(err.value)
        assert err.value.constraint in ("minimum", "maximum", "positive", "integer")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 2
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
    def test_negative_seed_names_path(self, flag, tmp_path, capsys):
        doc = json.loads(builtin_config("randers"))
        if not flag:
            doc["run"]["seed"] = -1
        spec, cfg = parse_config(json.dumps(doc))
        with pytest.raises(ValidationError) as err:
            run_command("detcheck", spec, replace(cfg, seed=-1))
        assert (err.value.path, err.value.constraint) == ("run.seed", "minimum")
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(doc))
        argv = ["detcheck", "--config", str(cfg_path), "--out", str(out)] + (["--seed", "-1"] if flag else [])
        assert main(argv) == 2
        assert capsys.readouterr().err == "error [validation_error] at run.seed: seed must be at least 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, section, path",
        [
            ("separation", {"source": [5, 5], "target": [0.5, 0]}, "run.separation.source"),
            ("separation", {"source": [0, 0], "target": [0.04, 0.04]}, "run.separation.target"),
            ("reach", {"source": [0, -1.5]}, "run.reach.source"),
            ("ball", {"center": [0.04, 0.04], "radius": 0.3}, "run.ball.center"),
            ("ball", {"center": [0, 0], "radius": 0.3, "direction": "sideways"}, "run.ball.direction"),
        ],
    )
    def test_graph_points_checked_before_build(self, command, section, path, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the graph was built before its points were checked")

        monkeypatch.setattr(gd, "build_separation_graph", never)
        doc = {"metric": {"type": "euclidean"}, "run": {command: {"box": [[-1, -1], [1, 1]], **section}}}
        spec, cfg = parse_config(json.dumps(doc))
        with pytest.raises(ValidationError) as err:
            run_command(command, spec, cfg)
        assert err.value.path == path and _is_config_path(err.value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 2
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "dim, resolution, radius, capped",
        [
            (2, 1118, 1, False),  # 1118^2 * 8 = 9999392 candidate edges
            (2, 1119, 1, True),
            (3, 72, 1, False),  # 72^3 * 26 = 9704448
            (3, 73, 1, True),
            (2, 3, 10**6, False),  # the radius is clipped to resolution - 1: 9 * 24
            (2, 500, 10**6, True),
        ],
    )
    def test_graph_cap_counts_nodes_times_offsets(self, dim, resolution, radius, capped, monkeypatch):
        class Built(Exception):
            pass

        def built(*args, **kwargs):
            raise Built

        monkeypatch.setattr(gd, "build_separation_graph", built)
        section = {"box": [[-1] * dim, [1] * dim], "source": [-1] * dim, "resolution": resolution,
                   "neighbor_radius": radius}
        doc = {"metric": {"type": "euclidean", "dimension": dim}, "run": {"reach": section}}
        spec, cfg = parse_config(json.dumps(doc))
        with pytest.raises(ValidationError if capped else Built) as err:
            run_command("reach", spec, cfg)
        if capped:
            assert (err.value.path, err.value.constraint) == ("run.reach.resolution", "maximum")
            assert str(MAX_GRAPH_EDGES) in str(err.value)

    @pytest.mark.parametrize(
        "tree, path",
        [
            ({"type": "euclidean", "dimension": 13}, "metric.dimension"),
            ({"type": "euclidean", "dimension": 1e9}, "metric.dimension"),
            ({"type": "named", "family": "randers", "dimension": 13}, "metric.dimension"),
            ({"type": "oneform_metric", "coeffs": [0.1] * 13}, "metric.coeffs"),
            ({"type": "named", "family": "randers", "form": {"coeff_exprs": ["0.1"] * 13}}, "metric.form.coeff_exprs"),
            ({"type": "riemannian", "matrix": np.eye(13).tolist()}, "metric.matrix"),
            ({"type": "riemannian", "matrix_expr": [["1"] * 13] * 13}, "metric.matrix_expr"),
        ],
    )
    def test_dimension_above_the_limit_names_path(self, tree, path):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"metric": tree}))
        assert (err.value.path, err.value.constraint) == (path, "maximum")

    def test_largest_dimension_scans(self):
        doc = {"metric": {"type": "named", "family": "randers", "dimension": 12}, "run": {"scan": {"samples": 20}}}
        spec, cfg = parse_config(json.dumps(doc))
        summary, _, rows = run_command("scan", spec, cfg)
        assert len(rows) == 20 and summary["pd_fraction"] == 1.0

    FORM_EXPR = {"type": "named", "family": "randers", "form": {"coeff_exprs": ["0.1", "0"]}}

    @pytest.mark.parametrize(
        "tree, command, path",
        [
            ({"type": "gauge_curve_2d", "r": "1/0"}, "indicatrix", "metric.r"),
            ({"type": "gauge_curve_2d", "r": "9**9**9"}, "indicatrix", "metric.r"),
            ({"type": "gauge_curve_2d", "r": [1]}, "indicatrix", "metric.r"),
            ({"type": "gauge_curve_2d", "r": True}, "indicatrix", "metric.r"),
            ({"type": "gauge_curve_2d", "r": "1 + 0*theta[0]"}, "indicatrix", "metric.r"),
            ({"type": "gauge_curve_2d", "r": "'1'"}, "indicatrix", "metric.r"),
            ({"type": "gauge_curve_2d", "r": "theta(1)"}, "indicatrix", "metric.r"),
            ({"type": "gauge_curve_2d", "r": "1", "interval": [1]}, "indicatrix", "metric.interval"),
            ({"type": "gauge_curve_2d", "r": "1", "interval": [0, True]}, "indicatrix", "metric.interval[1]"),
            ({**FORM_EXPR, "form": {"coeff_exprs": ["(0.1, 0.2)", "0"]}}, "oracle", "metric.form.coeff_exprs[0]"),
            ({**FORM_EXPR, "form": {"coeff_exprs": ["0.1", ["0"]]}}, "oracle", "metric.form.coeff_exprs[1]"),
            ({**FORM_EXPR, "form": {"coeff_exprs": ["0.1*x(1)", "0"]}}, "oracle", "metric.form.coeff_exprs[0]"),
            ({**FORM_EXPR, "form": {"coeff_exprs": ["0.1", "(-8)**(1/3)"]}}, "oracle", "metric.form.coeff_exprs[1]"),
            ({"type": "riemannian", "matrix_expr": [["1", "0"], ["0", "sqrt(x, 1)"]]}, "scan", "metric.matrix_expr[1][1]"),
            ({"type": "phi", "form": FORM, "profile": {"phi": "1+s", "interval": 5}}, "oracle", "metric.profile.interval"),
            (
                {"type": "phi", "form": FORM, "profile": {"phi": "1+s", "phi_dot": "1", "phi_ddot": "0/0", "interval": [-1, 9]}},
                "oracle",
                "metric.profile.phi_ddot",
            ),
        ],
    )
    def test_bad_expression_names_path(self, tree, command, path, tmp_path, capsys):
        doc = {"metric": tree, "run": {}}
        with pytest.raises(ValidationError) as err:
            run_command(command, *parse_config(json.dumps(doc)))
        assert err.value.path == path
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error [validation_error] at {path}: ")

    def test_integral_floats_read_as_integers(self):
        def rows(run):
            doc = {"metric": {"type": "named", "family": "randers", "b": 0.5}, "run": run}
            return run_command("detcheck", *parse_config(json.dumps(doc)))[2]

        assert rows({"seed": 3.0, "detcheck": {"samples": 20.0}}) == rows({"seed": 3, "detcheck": {"samples": 20}})

    @pytest.mark.parametrize("lobes, capped", [(cli.MAX_LOBES, False), (cli.MAX_LOBES + 1, True), (1e308, True)])
    def test_wavy_lobes_are_capped(self, lobes, capped):
        text = json.dumps({"metric": {"type": "wavy_example", "lobes": lobes}})
        if not capped:
            assert build_metric(parse_config(text)[0]).metric.dimension == 2
            return
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert (err.value.path, err.value.constraint) == ("metric.lobes", "maximum")


class TestFamilyTable:
    @pytest.mark.parametrize("family", sorted(cb.FAMILIES))
    def test_every_route_builds_named_family(self, family):
        form = {"coeffs": [0.3, 0.1]}
        routes = {
            None: [
                {"type": "named", "family": family, "form": form},
                {"type": "phi", "profile": family, "form": form},
                {"type": "phi", "profile": {"name": family}, "form": form},
            ],
            2.0: [
                {"type": "named", "family": family, "q": 2.0, "form": form},
                {"type": "phi", "profile": {"name": family, "q": 2.0}, "form": form},
            ],
        }
        vs = np.random.default_rng(4).normal(size=(50, 2))
        base = np.zeros(2)
        for q, trees in routes.items():
            want, _ = cb.named_family(family, me.euclidean_metric(2), me.constant_oneform([0.3, 0.1]), q)
            ok, F = want.jet(base, vs)
            assert ok.any()
            for tree in trees:
                spec, _ = parse_config(json.dumps({"metric": tree}))
                got_ok, got_F = build_metric(spec).metric.jet(base, vs)
                assert np.array_equal(got_ok, ok) and np.array_equal(got_F, F, equal_nan=True), tree


class TestOneBuild:
    def test_run_command_reuses_the_parsed_metric(self, monkeypatch):
        calls = []
        combined = cb._combined

        def counting(*args, **kwargs):
            calls.append(args[-1])
            return combined(*args, **kwargs)

        monkeypatch.setattr(cb, "_combined", counting)
        spec, cfg = parse_config(builtin_config("f1f2_matsumoto"))
        parsed = len(calls)
        run_command("oracle", spec, cfg)
        assert parsed == 1 and len(calls) == parsed


class TestRunCommand:
    def test_eval_euclidean(self):
        spec, cfg = parse_config(builtin_config("euclidean"))
        summary, header, rows = run_command("eval", spec, cfg)
        assert header[-1] == "F"
        assert rows[0][-1] == pytest.approx(5.0)

    def test_classify_csv_matsumoto(self):
        spec, cfg = parse_config(builtin_config("matsumoto"))
        summary, header, rows = run_command("scan", spec, cfg)
        # strong convexity fails only along the form direction: PD fraction
        # matches the full angular measure to within one degree
        assert summary["pd_fraction"] >= 1.0 - 1.0 / 360.0 - 1e-12

    def test_separation_lorentz(self):
        spec, cfg = parse_config(builtin_config("lorentz_cone_ex36"))
        summary, header, rows = run_command("separation", spec, cfg)
        assert summary["value"] < 0.7
        assert rows[0][1:] == [pytest.approx(0.0), pytest.approx(0.0)]

    def test_indicatrix_spiral(self):
        spec, cfg = parse_config(builtin_config("spiral_ex213"))
        summary, header, rows = run_command("indicatrix", spec, cfg)
        pts = np.array([[r[3], r[4]] for r in rows])
        radii = np.linalg.norm(pts, axis=1)
        angles = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * np.pi)
        assert np.allclose(radii, angles, atol=1e-9)

    def test_oracle_builtin_families(self):
        for name in ("randers", "kropina", "matsumoto", "sum_pair", "power_q2", "f1f2_matsumoto"):
            spec, cfg = parse_config(builtin_config(name))
            summary, _, _ = run_command("oracle", spec, cfg)
            assert summary["ok"], (name, summary)

    def test_gauss_position_dependent(self):
        spec, cfg = parse_config(builtin_config("randers_posdep"))
        summary, _, _ = run_command("gauss", spec, cfg)
        assert summary["max_abs_residual"] < 1e-4

    def test_detcheck_randers(self):
        spec, cfg = parse_config(builtin_config("randers"))
        summary, _, _ = run_command("detcheck", spec, cfg)
        assert summary["max_rel_err"] < 1e-8

    def test_reach_halfplane(self):
        spec, cfg = parse_config(builtin_config("halfplane_dy"))
        summary, header, rows = run_command("reach", spec, cfg)
        assert all(r[2] > 0 for r in rows)

    def test_missing_parameter(self):
        spec, cfg = parse_config('{"metric": {"type": "euclidean", "dimension": 2}}')
        with pytest.raises(ValidationError):
            run_command("eval", spec, cfg)

    @pytest.mark.parametrize("command", ["detcheck", "gauss", "oracle"])
    def test_rejection_sampling_capped(self, command):
        # beta vanishes at the base, so the ratio never reaches the profile interval
        doc = {
            "metric": {
                "type": "phi",
                "base": {"type": "euclidean", "dimension": 2},
                "form": {"coeff_exprs": ["1-x", "0"]},
                "profile": {"phi": "1+s", "interval": [0.5, 0.9]},
            },
            "run": {command: {"base": [1, 0], "samples": 5}},
        }
        spec, cfg = parse_config(json.dumps(doc))
        with pytest.raises(DomainEmpty):
            run_command(command, spec, cfg)

    @pytest.mark.parametrize(
        "form, interval, run, line",
        [
            # beta vanishes at the base: no vector is admissible
            (
                {"coeff_exprs": ["1 - x", "0"]},
                [0.5, 2],
                {"oracle": {"base": [1, 0]}},
                "error [domain_empty]: 0 of 200 random vectors admissible after 80000 draws\n",
            ),
            # the interior margin leaves a sliver of directions: some, not all, are picked
            (
                {"coeffs": [1, 0]},
                [0, 0.3039],
                {"seed": 0, "oracle": {"base": [0, 0], "samples": 50, "interior_margin": 0.15}},
                "error [domain_empty]: 25 of 50 random vectors admissible after 20000 draws\n",
            ),
        ],
        ids=["none_admissible", "some_admissible"],
    )
    def test_oracle_short_of_samples_is_domain_empty(self, form, interval, run, line, tmp_path, capsys):
        metric = {
            "type": "phi",
            "base": {"type": "euclidean", "dimension": 2},
            "form": form,
            "profile": {"phi": "1 + s", "interval": interval},
        }
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        cfg_path.write_text(json.dumps({"metric": metric, "run": run}))
        assert main(["oracle", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == line
        assert not out.exists()


class TestBatchedCommands:
    """The pointwise commands evaluate all their vectors in one checked call."""

    VECTORS = [[0.3, 1.0], [0.1, 0.5], [-0.5, 2.0], [0.0, 1.5]]  # inside the Lorentz cone too

    @staticmethod
    def count_jets(monkeypatch):
        """Count top-level jet calls; a gauge's finite-difference tensor nests more."""
        calls, depth = [0], [0]
        jet = me.ConicMetric.jet

        def counting(self, *args, **kwargs):
            calls[0] += depth[0] == 0
            depth[0] += 1
            try:
                return jet(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(me.ConicMetric, "jet", counting)
        return calls

    @pytest.mark.parametrize("command", ["eval", "tensor", "classify"])
    @pytest.mark.parametrize("name", ["randers", "lorentz_ex216", "power_q2"])
    def test_one_jet_call_and_per_vector_rows(self, command, name, monkeypatch):
        doc = json.loads(builtin_config(name))
        doc["run"] = {command: {"base": [0.1, 0.2], "vectors": self.VECTORS}}
        spec, cfg = parse_config(json.dumps(doc))
        m = build_metric(spec).metric
        calls = self.count_jets(monkeypatch)
        _, _, rows = run_command(command, spec, cfg)
        assert calls[0] == 1
        for row, v in zip(rows, self.VECTORS):
            tv = me.TangentVec([0.1, 0.2], v)
            want = {
                "eval": lambda: [me.eval_F(m, tv)],
                "tensor": lambda: list(me.tensor(m, tv).ravel()),
                "classify": lambda: [me.classify_point(m, tv, cfg.tolerance).classification.value],
            }[command]()
            assert row[5 : 5 + len(want)] == want

    def test_detcheck_jet_calls(self, monkeypatch):
        doc = {
            "metric": {"type": "phi", "form": {"coeffs": [0.5, 0.0]}, "profile": {"phi": "1+s", "interval": [0, 9]}},
            "run": {"seed": 3, "detcheck": {"samples": 20}},
        }
        spec, cfg = parse_config(json.dumps(doc))
        m = build_metric(spec).metric
        rng, draws, found = np.random.default_rng(3), 0, 0
        while found < 20:
            draws += 1
            found += bool(m.in_domain_many(np.zeros(2), rng.normal(size=2)))
        blocks = -(-draws // 40)  # the sampler tests blocks of 2 * samples draws
        calls = self.count_jets(monkeypatch)
        _, _, rows = run_command("detcheck", spec, cfg)
        assert len(rows) == 20 and draws > 20
        # one per block, plus F0's tensor, F0's values and the metric's tensor
        assert calls[0] == blocks + 3

    def test_detcheck_matches_per_vector_formula(self):
        spec, cfg = parse_config(builtin_config("randers"))
        F0, beta, profile = build_metric(spec).phi_parts
        _, _, rows = run_command("detcheck", spec, cfg)
        for row in rows:
            want = cb.det_tensor_formula(F0, beta, profile, me.TangentVec(np.zeros(2), row[1:3]))
            assert row[3] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["matsumoto", "f1f2_matsumoto", "power_q2"])
    def test_oracle_picks_as_the_per_vector_loop(self, name):
        spec, cfg = parse_config(builtin_config(name))
        built = build_metric(spec)
        m, base = built.metric, np.zeros(2)
        samples = cfg.params["oracle"].get("samples", 200)
        margin = cfg.params["oracle"].get("interior_margin", 0.15)
        rng, picked = np.random.default_rng(cfg.seed), []
        while len(picked) < samples:
            vs = rng.normal(size=(2 * samples, 2))
            vs /= np.linalg.norm(vs, axis=-1, keepdims=True)
            for v in vs:
                if len(picked) < samples and bool(m.in_domain_many(base, v)):
                    if built.phi_parts is not None:
                        F0, beta, profile = built.phi_parts
                        s = float(beta.pair(base, v)) / float(F0.F_many(base, v))
                        lo, hi = next((lo, hi) for lo, hi in profile.intervals + ((-np.inf, np.inf),) if lo < s < hi)
                        if (np.isfinite(lo) and s - lo < margin) or (np.isfinite(hi) and hi - s < margin):
                            continue
                    picked.append(v)
        _, _, rows = run_command("oracle", spec, cfg)
        assert [r[1:3] for r in rows] == [list(v) for v in picked]

    @pytest.mark.parametrize("command", ["eval", "tensor", "classify"])
    def test_first_bad_vector_reports_its_error(self, command, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        vectors = [[0.1, 1.0], [1.0, 0.0], [0.0, 0.0], [2.0, 0.1]]
        cfg_path.write_text(json.dumps({"metric": {"type": "lorentz_example"}, "run": {command: {"vectors": vectors}}}))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error [outside_domain]: vector [1. 0.] at [0. 0.] is outside the conic domain\n"

    @pytest.mark.parametrize(
        "doc, line",
        [
            (
                {"metric": {"type": "euclidean"}, "run": {"separation": {"box": [[-1, -1], [1, 1]], "source": [0]}}},
                "error [validation_error] at run.separation.source: expected a list of 2 numbers\n",
            ),
            (
                {"metric": {"type": "euclidean"}, "run": {"reach": {"box": [[0, 0], [0, 1]], "source": [0, 0]}}},
                "error [validation_error] at run.reach.box: box needs hi > lo on every axis\n",
            ),
            # inputs that ended in a traceback or a bare error line without a path
            (
                {"metric": {"type": "gauge_curve_2d", "r": "1/0"}, "run": {"indicatrix": {}}},
                "error [validation_error] at metric.r: expression '1/0' failed: float division by zero\n",
            ),
            (
                {"metric": {"type": "gauge_curve_2d", "r": "1", "interval": [1]}, "run": {"indicatrix": {}}},
                "error [validation_error] at metric.interval: expected a list of 2 numbers\n",
            ),
            (
                {"metric": {"type": "euclidean", "dimension": 13}, "run": {"scan": {}}},
                "error [validation_error] at metric.dimension: dimension must be at most 12\n",
            ),
            (
                {"metric": {"type": "euclidean", "dimension": 1e9}, "run": {"scan": {}}},
                "error [validation_error] at metric.dimension: dimension must be at most 12\n",
            ),
            (
                {"metric": {"type": "euclidean"}, "run": {"tensor": 2}},
                "error [validation_error] at run.tensor: run.tensor must be an object\n",
            ),
            (
                {"metric": {"type": "euclidean"}, "run": {"eval": {"vectors": "x"}}},
                "error [validation_error] at run.eval.vectors: vectors must be a list of 2-vectors\n",
            ),
            (
                {"metric": {"type": "named", "family": "randers"}, "run": {"detcheck": {}, "seed": 1.5}},
                "error [validation_error] at run.seed: expected an integer, got 1.5\n",
            ),
            # an infinite box reported "source: point [0. 0.] outside the graph box", and a box whose
            # hi - lo overflows answered "reachable": false
            (
                {
                    "metric": {"type": "euclidean"},
                    "run": {"separation": {"box": [[float("-inf"), -1], [1, 1]], "source": [0, 0], "target": [0, 1]}},
                },
                "error [validation_error] at run.separation.box: box needs finite corners, extent and cell size\n",
            ),
            (
                {
                    "metric": {"type": "euclidean"},
                    "run": {"separation": {"box": [[-1e308, -1], [1e308, 1]], "source": [0, 0], "target": [0, 1]}},
                },
                "error [validation_error] at run.separation.box: box needs finite corners, extent and cell size\n",
            ),
            (
                {"metric": {"type": "euclidean"}, "run": {"scan": {"samples": "12"}}},
                "error [validation_error] at run.scan.samples: expected an integer, got '12'\n",
            ),
            # rules the library owns, reported at their config path with the same lines as before
            (
                {"metric": {"type": "euclidean"}, "run": {"scan": {"samples": 1000001}}},
                "error [validation_error] at run.scan.samples: samples must be at most 1000000\n",
            ),
            (
                {"metric": {"type": "euclidean"}, "run": {"geodesic": {"velocity": [1, 0], "t_end": 0}}},
                "error [validation_error] at run.geodesic.t_end: t_end must be positive\n",
            ),
            (
                {"metric": {"type": "euclidean"}, "run": {"geodesic": {"velocity": [1, 0], "step": float("inf")}}},
                "error [validation_error] at run.geodesic.step: step must be finite\n",
            ),
            (
                {"metric": {"type": "euclidean"}, "run": {"geodesic": {"velocity": [1, 0], "t_end": 1e5}}},
                "error [validation_error] at run.geodesic.t_end: t_end / step must be at most 1000000 output steps\n",
            ),
            (
                {"metric": {"type": "euclidean"}, "run": {"reach": {"box": [[-1, -1], [1, 1]], "source": [0, 0],
                                                                    "resolution": 1}}},
                "error [validation_error] at run.reach.resolution: resolution must be at least 2\n",
            ),
            (
                {"metric": {"type": "euclidean"}, "run": {"ball": {"box": [[-1, -1], [1, 1]], "center": [0, 0],
                                                                   "radius": 0.3, "direction": "sideways"}}},
                "error [validation_error] at run.ball.direction: direction must be 'forward' or 'backward', got "
                "'sideways'\n",
            ),
            (
                {"metric": {"type": "euclidean"}, "run": {"separation": {"box": [[-1, -1], [1, 1]],
                                                                         "source": [0.04, 0.04], "target": [0, 0]}}},
                "error [validation_error] at run.separation.source: source: point [0.04 0.04] is not a grid node\n",
            ),
            (
                {"metric": {"type": "euclidean"}, "run": {"scan": {}, "seeed": 5}},
                "error [validation_error] at run.seeed: unknown run key 'seeed'\n",
            ),
            # an integer resolution above the largest float ended in a traceback
            (
                {"metric": {"type": "euclidean"}, "run": {"reach": {"box": [[-1, -1], [1, 1]], "source": [0, 0],
                                                                    "resolution": 10**400}}},
                "error [validation_error] at run.reach.resolution: resolution is out of range\n",
            ),
            # misspelt keys were dropped: a 2-D metric, and the forward ball
            (
                {"metric": {"type": "euclidean", "dimenson": 3}, "run": {"scan": {}}},
                "error [validation_error] at metric.dimenson: unknown euclidean node key 'dimenson'\n",
            ),
            (
                {"metric": {"type": "euclidean"}, "run": {"ball": {"box": [[-1, -1], [1, 1]], "center": [0, 0],
                                                                   "radius": 0.3, "directon": "backward"}}},
                "error [validation_error] at run.ball.directon: unknown ball key 'directon'\n",
            ),
            (
                {"metric": {"type": "riemannian", "matrix": [[1, 0], [0, 1]], "matrix_expr": [["1", "0"], ["0", "1"]]},
                 "run": {"scan": {}}},
                "error [validation_error] at metric: riemannian node takes 'matrix' or 'matrix_expr', not both\n",
            ),
        ],
    )
    def test_validation_error_line_names_its_path(self, doc, line, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main([next(iter(doc["run"])), "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == line


class TestPositionIndependence:
    """Constancy comes from the config structure, never from sampling the field."""

    @staticmethod
    def metric(tree):
        spec, _ = parse_config(json.dumps({"metric": tree}))
        return build_metric(spec).metric

    def test_period_matching_probe_offset_is_position_dependent(self):
        # period 0.37: the field agrees at any two points 0.37 apart in x
        m = self.metric(
            {"type": "riemannian", "matrix_expr": [["1+0.5*sin(2*pi*x/0.37)", "0"], ["0", "1"]]}
        )
        assert not m.position_independent
        end = gd.exp_map(m, [0.0, 0.0], [0.4, 1.0])
        assert abs(end[0] - 0.4) > 1e-3

    @pytest.mark.parametrize(
        "tree",
        [
            {"type": "riemannian", "matrix_expr": [["2", "0"], ["0", "1+0.5*cos(pi)"]]},
            {"type": "named", "family": "randers", "form": {"coeff_exprs": ["0.3", "0.1*e"]}},
        ],
    )
    def test_constant_expressions_stay_position_independent(self, tree):
        assert self.metric(tree).position_independent

    def test_position_form_expression(self):
        m = self.metric({"type": "named", "family": "randers", "form": {"coeff_exprs": ["0.3", "0.1*y"]}})
        assert not m.position_independent


class TestDeterminism:
    def test_byte_identical_csv(self):
        spec, cfg = parse_config(builtin_config("randers"))
        out1, out2 = io.StringIO(), io.StringIO()
        for out in (out1, out2):
            _, header, rows = run_command("oracle", spec, cfg)
            write_csv(out, header, rows)
        assert out1.getvalue() == out2.getvalue()

    def test_seed_changes_samples(self):
        spec, cfg = parse_config(builtin_config("randers"))
        cfg2 = replace(cfg, seed=cfg.seed + 1)
        _, _, rows1 = run_command("oracle", spec, cfg)
        _, _, rows2 = run_command("oracle", spec, cfg2)
        assert rows1 != rows2

    @pytest.mark.parametrize("command", ["expmap", "gauss"])
    def test_expmap_and_gauss_reject_step(self, command):
        """Their one output row is at parameter 1, so they declare no ``step``: the key is an unknown one."""
        doc = json.loads(builtin_config("randers_posdep"))
        doc["run"][command]["step"] = 0.37
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(doc))
        assert (err.value.path, err.value.constraint) == (f"run.{command}.step", "unknown_key")

    def test_geodesic_speed_column_is_pointwise_eval(self):
        spec, cfg = parse_config(builtin_config("randers_posdep"))
        _, header, rows = run_command("geodesic", spec, cfg)
        m = build_metric(spec).metric
        assert header[-1] == "F" and len(rows) == 101
        want = [me.eval_F(m, me.TangentVec(r[1:3], r[3:5])) for r in rows]
        assert [r[-1] for r in rows] == want

    @pytest.mark.parametrize("name", BUILTINS)
    def test_every_shipped_command_reruns_byte_identical(self, name, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(builtin_config(name))
        commands = [c for c in json.loads(builtin_config(name))["run"] if c in COMMANDS]
        assert commands
        for command in commands:
            outs = [tmp_path / f"{command}{i}.csv" for i in (1, 2)]
            for out in outs:
                assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
            assert outs[0].read_bytes() == outs[1].read_bytes(), command

    def test_csv_has_17_digit_floats(self):
        buf = io.StringIO()
        write_csv(buf, ["x"], [[1.0 / 3.0]])
        assert "0.33333333333333331" in buf.getvalue()


def spec_write_csv(stream, header, rows):
    """The CSV cell rule as a per-cell csv.writer: floats (float and its
    subclasses) as format(x, ".17g"), everything else as str(x), csv's
    minimal quoting."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(x, ".17g") if isinstance(x, float) else str(x) for x in row])


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.0 / 3.0]),
)
_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", ",", '"', "\r", "\n", "a,b", 'say "hi"', " ", "PositiveDefinite", "1.5e-3", "%d", "-"]),
)
_CELL_KINDS = [  # one strategy per kind of cell
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
    st.integers(min_value=-(2**31), max_value=2**31 - 1).map(np.int32),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.floats(width=32).map(np.float32),
    _TEXT,
    st.none(),
]


@st.composite
def csv_tables(draw):
    """(header, rows): runs of rows that share one list of cell strategies, so
    a type tuple repeats, with the cell types changing between runs."""
    header = draw(st.lists(_TEXT, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kinds = draw(st.lists(st.sampled_from(_CELL_KINDS), max_size=5))
        rows += draw(st.lists(st.tuples(*kinds).map(list), max_size=4))
    return header, rows


class TestWriteCsv:
    @settings(max_examples=400, deadline=None)
    @given(csv_tables())
    def test_bytes_equal_the_per_cell_writer(self, table):
        header, rows = table
        got, want = io.StringIO(), io.StringIO()
        write_csv(got, header, rows)
        spec_write_csv(want, header, rows)
        assert got.getvalue() == want.getvalue()

    def test_type_change_within_one_table(self):
        rows = [[0, 1.5, "Indefinite"], [1, np.float64(-0.0), "a,b"], [True, np.float32(0.1), ""], [2, math.nan, None]]
        got, want = io.StringIO(), io.StringIO()
        write_csv(got, ["index", "x", "status"], rows)
        spec_write_csv(want, ["index", "x", "status"], rows)
        assert got.getvalue() == want.getvalue()
        assert got.getvalue().splitlines()[1:] == ["0,1.5,Indefinite", '1,-0,"a,b"', "True,0.1,", "2,nan,None"]


def _columns(header, rows, prefix) -> np.ndarray:
    """The cells of the columns named ``prefix`` + digits, as a float array (rows, k)."""
    at = [i for i, name in enumerate(header) if re.fullmatch(rf"{prefix}\d+", name)]
    return np.array([[row[i] for i in at] for row in rows], dtype=float).reshape(len(rows), len(at))


def _library_columns(cmd, built, cfg, header, rows) -> dict:
    """Columns the library computes from a command's row inputs: name or prefix -> array."""
    m = built.metric
    col = lambda name: np.array([row[header.index(name)] for row in rows], dtype=float)  # noqa: E731
    params = cfg.params[cmd]
    if cmd == "indicatrix":
        dirs = me.unit_directions(m.dimension, params["samples"])
        _, F = m.jet(np.zeros_like(dirs), dirs)
        idx = np.array([row[0] for row in rows], dtype=int)
        return {"dir": dirs[idx], "s": dirs[idx] / F[idx, None]}
    if cmd in ("eval", "tensor", "classify"):
        base, vs = _columns(header, rows, "base"), _columns(header, rows, "v")
        if cmd == "eval":
            return {"F": me.eval_F_many(m, base[0], vs)}
        gs = me.tensor(m, me.TangentVec(base[0], vs))
        if cmd == "tensor":
            return {f"g{i}{j}": gs[:, i, j] for i in range(2) for j in range(2)}
        return {"min_eigenvalue": np.array([r.min_eigenvalue for r in me.eigen_classify(gs, cfg.tolerance)])}
    if cmd == "scan":
        entries = me.convexity_scan(m, np.asarray(params["base"], dtype=float), params["samples"], cfg.tolerance)
        mins = [e.report.min_eigenvalue if e.report else math.nan for e in entries]
        return {"dir": np.array([e.direction for e in entries]), "min_eigenvalue": np.array(mins)}
    base = np.asarray(params.get("base", [0.0, 0.0]), dtype=float)
    if cmd == "detcheck":
        tv = me.TangentVec(base, _columns(header, rows, "v"))
        lhs = cb.det_tensor_formula(*built.phi_parts, tv)
        rhs = np.linalg.det(me.tensor(m, tv))
        return {"det_formula": lhs, "det_direct": rhs, "rel_err": np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))}
    if cmd == "oracle":
        vs = _columns(header, rows, "v")
        bases = np.broadcast_to(base, vs.shape)
        ga, gf = m.tensor_many(bases, vs), m.fd_tensor_many(bases, vs)
        return {"rel_err": np.max(np.abs(ga - gf), axis=(-2, -1)) / np.maximum(1.0, np.max(np.abs(gf), axis=(-2, -1)))}
    if cmd == "geodesic":
        return {"F": me.eval_F_many(m, _columns(header, rows, "x"), _columns(header, rows, "v"))}
    if cmd == "expmap":
        return {"exp": gd.exp_map(m, base, np.asarray(params["velocity"], dtype=float))[None]}
    if cmd == "gauss":
        return {"residual": gd.gauss_residuals(m, base, _columns(header, rows, "v"), _columns(header, rows, "w"))}
    graph = gd.build_separation_graph(m, tuple(params["box"]), params["resolution"], params["neighbor_radius"])
    if cmd == "separation":
        ids = [gd.grid_node_id(params["box"], params["resolution"], params[k]) for k in ("source", "target")]
        return {"x": gd.separation(graph, *ids).witness_path}
    return {"x": graph.nodes[np.array([row[0] for row in rows], dtype=int)]}


SHIPPED_COMMANDS = [
    (name, command) for name in BUILTINS for command in json.loads(builtin_config(name))["run"] if command in COMMANDS
]


class TestRowContract:
    """run_command's rows: lists led by an int index, float numeric cells and
    str text cells, equal bit for bit to the library's arrays."""

    TEXT = {"classification", "status"}

    @pytest.mark.parametrize("name, command", SHIPPED_COMMANDS, ids=[f"{n}-{c}" for n, c in SHIPPED_COMMANDS])
    def test_rows_are_lists_of_library_values(self, name, command):
        spec, cfg = parse_config(builtin_config(name))
        _, header, rows = run_command(command, spec, cfg)
        assert type(rows) is list and rows
        indexed = header[0] in ("index", "step")
        for row in rows:
            assert type(row) is list and len(row) == len(header)
            types = [type(x) for x in row]
            want = [int if k == 0 and indexed else str if h in self.TEXT else float for k, h in enumerate(header)]
            assert types == want
        for key, expected in _library_columns(command, build_metric(spec), cfg, header, rows).items():
            got = _columns(header, rows, key) if key not in header else np.array([r[header.index(key)] for r in rows])
            assert got.tobytes() == np.asarray(expected, dtype=float).reshape(got.shape).tobytes(), key


class TestMainEntry:
    def test_end_to_end(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(builtin_config("euclidean"))
        out_path = tmp_path / "out.csv"
        code = main(["eval", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("index,base0,base1,v0,v1,F")
        assert len(lines) == 3

    def test_domain_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "metric": {"type": "lorentz_example"},
                    "run": {"eval": {"base": [0, 0], "vectors": [[1.0, 0.0]]}},
                }
            )
        )
        code = main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_parse_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        code = main(["eval", "--config", str(cfg_path)])
        assert code == 2

    def test_numerical_error_exit_code(self, tmp_path):
        # geodesics on the degenerate half-plane metric abort with code 3
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "metric": {"type": "oneform_metric", "coeffs": [0.0, 1.0]},
                    "run": {
                        "geodesic": {
                            "base": [0, 0],
                            "velocity": [0.1, 1.0],
                            "t_end": 1.0,
                            "step": 0.1,
                        }
                    },
                }
            )
        )
        code = main(["geodesic", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert code == 3

    @pytest.mark.parametrize(
        "metric", [{"type": "wavy_example", "amplitude": 1.5}, {"type": "gauge_curve_2d", "r": "cos(theta)"}]
    )
    def test_curve_gauge_is_undefined_where_r_is_not_positive(self, metric, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"metric": metric, "run": {"eval": {"base": [0, 0], "vectors": [[-1, 0]]}}}))
        assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("error [outside_domain]")

    def test_geodesic_step_budget(self, tmp_path, capsys, monkeypatch):
        """Past MAX_GEODESIC_STEPS trial steps a geodesic ends in a StepBudget error (exit 3)."""
        monkeypatch.setattr(gd, "MAX_GEODESIC_STEPS", 20)
        run_command("geodesic", *parse_config(builtin_config("randers_posdep")))  # t_end 1 fits the budget
        doc = json.loads(builtin_config("randers_posdep"))
        doc["run"]["geodesic"]["t_end"] = 100.0
        with pytest.raises(StepBudget) as err:
            run_command("geodesic", *parse_config(json.dumps(doc)))
        assert err.value.code == "step_budget" and 0.0 < err.value.parameter < 100.0
        assert f"{err.value.parameter:.6g}" in str(err.value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["geodesic", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err.startswith("error [step_budget]: geodesic stopped at parameter ")

    def test_tolerance_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(builtin_config("randers"))
        out = tmp_path / "o.csv"
        assert main(["scan", "--config", str(cfg_path), "--out", str(out), "--tolerance", "1e-3"]) == 0

    def test_json_summary(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(builtin_config("euclidean"))
        code = main(
            ["eval", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv"), "--json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["command"] == "eval"

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(builtin_config("randers"))
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["oracle", "--config", str(cfg_path), "--out", str(o1), "--seed", "7"]) == 0
        assert main(["oracle", "--config", str(cfg_path), "--out", str(o2), "--seed", "7"]) == 0
        assert o1.read_text() == o2.read_text()

    def test_all_commands_covered_by_schema(self):
        assert set(COMMANDS) == {
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
        }
        # the README's config schema names exactly the keys each command declares
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        schema = json.loads(re.sub(r"/\*.*?\*/|//[^\n]*", "", block))
        assert set(schema["run"]) == {"seed", "tolerance", "dimension", *COMMANDS}
        declared = {cmd: {key for key, _, _ in params} for cmd, (_, *params) in cli._COMMANDS.items()}
        assert {cmd: set(schema["run"][cmd]) for cmd in COMMANDS} == declared

    def test_unwritable_output_is_an_error_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(builtin_config("euclidean"))
        assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "missing" / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("error [validation_error]: ")

    def test_other_exceptions_are_not_swallowed(self, tmp_path, monkeypatch):
        # main handles FinslerError and OSError only: anything else is a bug and keeps its traceback
        def broken(*args, **kwargs):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "run_command", broken)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(builtin_config("euclidean"))
        with pytest.raises(ValueError, match="bug"):
            main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])


class TestLibraryRules:
    """Rules the library owns reach the CLI as a ValidationError at ``run.<cmd>.<parameter>``."""

    SECTIONS = {"geodesic": {"velocity": [1, 0]}, "expmap": {"velocity": [1, 0]},
                "reach": {"box": [[-1, -1], [1, 1]], "source": [0, 0]}}

    @pytest.mark.parametrize(
        "command, module, name",
        [("scan", me, "convexity_scan"), ("geodesic", gd, "geodesic_shoot"), ("expmap", gd, "exp_map"),
         ("reach", gd, "build_separation_graph"), ("indicatrix", me, "unit_directions")],
    )
    def test_any_library_argument_error_gets_the_command_prefix(self, command, module, name, monkeypatch):
        def reject(*args, **kwargs):
            raise InvalidArgument("bad", path="param", constraint="minimum")

        monkeypatch.setattr(module, name, reject)
        doc = json.loads(builtin_config("randers"))
        doc["run"] = {command: self.SECTIONS.get(command, {})}
        with pytest.raises(ValidationError) as err:
            run_command(command, *parse_config(json.dumps(doc)))
        assert type(err.value) is ValidationError and isinstance(err.value.__cause__, InvalidArgument)
        assert (err.value.path, err.value.constraint, str(err.value)) == (f"run.{command}.param", "minimum", "bad")

    def test_unknown_run_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"metric": {"type": "euclidean"}, "run": {"seeed": 5}}))
        assert (err.value.path, err.value.constraint) == ("run.seeed", "unknown_key")


# One- and two-leaf mutations of the shipped configs: a node (leaf or section)
# set to one of these values, or its key deleted.  No value raises a size
# within a cap (1e308 exceeds every cap), so each example stays cheap.
MUTATION_VALUES = [0, -1, float("nan"), float("inf"), float("-inf"), 1e308, "x", [], [1], None, True, {}]
DELETE = "<delete>"


def _node_paths(node, path=()):
    """Key/index path of every node below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """(command, config document) of a shipped config with one or two nodes mutated."""
    doc = json.loads(builtin_config(draw(st.sampled_from(BUILTINS))))
    command = draw(st.sampled_from([c for c in doc["run"] if c in COMMANDS]))
    for _ in range(draw(st.integers(1, 2))):
        *parent, key = draw(st.sampled_from(list(_node_paths(doc))))
        holder = functools.reduce(operator.getitem, parent, doc)
        value = draw(st.sampled_from(MUTATION_VALUES + [DELETE]))
        if value == DELETE:
            del holder[key]
        else:
            holder[key] = copy.deepcopy(value)
    return command, doc


class TestConfigFuzz:
    @settings(max_examples=300)
    @given(mutated_configs())
    def test_mutated_config_succeeds_or_raises_a_typed_error(self, case):
        command, doc = case
        try:
            run_command(command, *parse_config(json.dumps(doc)))
        except ValidationError as exc:
            assert _is_config_path(exc), (exc.path, exc)
        except FinslerError:
            pass


def _config_path(parts) -> str:
    """The config path of a key/index path, for example ``metric.terms[0]``."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in parts).lstrip(".")


def _declared_keys() -> set:
    """Every key that the config tables declare anywhere."""
    tables = [keys for _, keys in cli._NODES.values()] + [cli._FORM_KEYS, cli._PROFILE_KEYS]
    keys = {key for table in tables for key in table.replace("|", " ").split()}
    keys |= {key for _, *params in cli._COMMANDS.values() for key, _, _ in params}
    return keys | set(COMMANDS) | {"metric", "run", "type", "seed", "tolerance", "dimension"}


@st.composite
def configs_with_an_unknown_key(draw):
    """(config document, path) of a shipped config with one undeclared key inserted at ``path``."""
    doc = json.loads(builtin_config(draw(st.sampled_from(BUILTINS))))
    objects = [()] + [p for p in _node_paths(doc) if isinstance(functools.reduce(operator.getitem, p, doc), dict)]
    parent = draw(st.sampled_from(objects))
    key = draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(lambda k: k not in _declared_keys()))
    functools.reduce(operator.getitem, parent, doc)[key] = draw(st.sampled_from(MUTATION_VALUES))
    return doc, _config_path(parent + (key,))


class TestDeclaredKeys:
    """parse_config checks every object's keys against the tables before it builds anything."""

    @settings(max_examples=200)
    @given(configs_with_an_unknown_key())
    def test_unknown_key_is_an_error_at_its_path(self, case):
        doc, path = case
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(doc))
        assert (err.value.path, err.value.constraint) == (path, "unknown_key")

    def test_config_path_names_list_items(self):
        assert _config_path(("metric", "terms", 0, "form")) == "metric.terms[0].form"
        assert _config_path(("rnu",)) == "rnu"

    FORM = {"coeffs": [0.5, 0.0]}

    @pytest.mark.parametrize(
        "tree, path",
        [
            ({"type": "oneform_metric", "coeffs": [0, 1], "coeff_exprs": ["0", "1"]}, "metric"),
            ({"type": "named", "family": "randers", "form": {"coeffs": [0.5, 0], "coeff_exprs": ["0", "0"]}},
             "metric.form"),
            ({"type": "riemannian", "matrix": [[1, 0], [0, 1]], "matrix_expr": [["1", "0"], ["0", "1"]]}, "metric"),
            ({"type": "phi", "form": FORM, "profile": {"name": "randers", "phi": "1+s", "interval": [-1, 9]}},
             "metric.profile"),
            ({"type": "f1f2", "f1": {"type": "euclidean"}, "f2": {"type": "euclidean"},
              "profile": {"phi": "1+s", "interval": [-1, 9], "q": 2}}, "metric.profile"),
            # a named node's shorthand beside what takes its place
            ({"type": "named", "family": "randers", "b": 0.9, "form": FORM}, "metric"),
            ({"type": "named", "family": "randers", "dimension": 2, "form": FORM}, "metric"),
            ({"type": "named", "family": "randers", "dimension": 3, "base": {"type": "euclidean"}}, "metric"),
        ],
    )
    def test_alternative_keys_together(self, tree, path):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"metric": tree}))
        assert (err.value.path, err.value.constraint) == (path, "exclusive")

    @pytest.mark.parametrize("coeffs", ["abc", [], 3, None])
    def test_coeffs_must_be_a_non_empty_list(self, coeffs):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"metric": {"type": "oneform_metric", "coeffs": coeffs}}))
        assert (err.value.path, err.value.constraint) == ("metric.coeffs", "shape")

    def test_values_of_sections_not_run_stay_unread(self):
        doc = {"metric": {"type": "euclidean"}, "run": {"scan": {"samples": 12}, "ball": {"radius": "x"}}}
        summary, _, rows = run_command("scan", *parse_config(json.dumps(doc)))
        assert len(rows) == 12
        with pytest.raises(ValidationError) as err:
            run_command("ball", *parse_config(json.dumps(doc)))
        assert err.value.path == "run.ball.box"
