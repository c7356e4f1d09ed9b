"""The library checks its own arguments: each rule raises one InvalidArgument
whose path is the parameter name, before any work of the size it guards."""

import ast
from pathlib import Path

import numpy as np
import pytest

from finslerkit import combinators as cb
from finslerkit import geodesy as gd
from finslerkit import metrics as me
from finslerkit import minkowski as mk
from finslerkit import numkernel as nk
from finslerkit.errors import FinslerError, InvalidArgument, ValidationError

SRC = Path(__file__).resolve().parents[1] / "src" / "finslerkit"
BOX = ([-1.0, -1.0], [1.0, 1.0])


def _rejects(call, path, constraint):
    with pytest.raises(InvalidArgument) as err:
        call()
    assert (err.value.path, err.value.constraint) == (path, constraint), str(err.value)
    return err.value


@pytest.fixture(scope="module")
def euclid():
    return me.euclidean_metric(2)


@pytest.fixture(scope="module")
def graph(euclid):
    """Euclidean 2-D graph on [-1, 1]^2, res 5 and R 1: 25 nodes."""
    return gd.build_separation_graph(euclid, BOX, 5, 1)


def test_invalid_argument_is_a_validation_error_and_a_value_error():
    exc = InvalidArgument("samples must be at least 1", path="samples", constraint="minimum")
    assert isinstance(exc, ValidationError) and isinstance(exc, ValueError) and isinstance(exc, FinslerError)
    assert exc.code == "validation_error"


def _bare_raises(tree: ast.AST):
    """(function, line) of each ``raise ValueError``/``raise TypeError`` in a module."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    found.append((func, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return found


def test_no_bare_value_or_type_error_in_the_library():
    bare = {path.name: _bare_raises(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in bare.items() if found} == {}
    assert _bare_raises(ast.parse("def f():\n    raise ValueError('x')\n")) == [("f", 2)]


class TestSamples:
    @pytest.mark.parametrize("samples, constraint", [(0, "minimum"), (-3, "minimum"), (float("nan"), "minimum"),
                                                     (10**6 + 1, "maximum"), (1e308, "maximum"),
                                                     (2.5, "integer"), (True, "integer"),
                                                     (np.float64(7.25), "integer")])
    def test_each_sampler_checks_samples(self, euclid, samples, constraint):
        rng = np.random.default_rng(0)
        _rejects(lambda: me.unit_directions(2, samples), "samples", constraint)
        _rejects(lambda: me.convexity_scan(euclid, [0.0, 0.0], samples), "samples", constraint)
        _rejects(lambda: me.admissible_draws(rng, samples, 2, lambda vs: np.ones(len(vs), bool)), "samples", constraint)

    def test_an_integral_float_is_its_integer(self):
        assert np.array_equal(me.unit_directions(2, 7.0), me.unit_directions(2, 7))
        draws = [me.admissible_draws(np.random.default_rng(0), k, 2, lambda vs: vs[:, 0] > 0.0) for k in (4, 4.0)]
        assert np.array_equal(draws[0], draws[1]) and draws[0].shape == (4, 2)

    def test_cap_is_checked_before_any_allocation(self, euclid, monkeypatch):
        monkeypatch.setattr(me, "MAX_SAMPLES", 5)
        rng = np.random.default_rng(0)
        dirs, in_domain, report = me.convexity_scan(euclid, [0.0, 0.0], 5)
        assert dirs.shape == (5, 2) and in_domain.shape == report.code.shape == (5,)
        assert me.admissible_draws(rng, 5, 2, lambda vs: np.ones(len(vs), bool)).shape == (5, 2)
        err = _rejects(lambda: me.convexity_scan(euclid, [0.0, 0.0], 6), "samples", "maximum")
        assert str(err) == "samples must be at most 5"
        _rejects(lambda: me.admissible_draws(rng, 6, 2, lambda vs: np.ones(len(vs), bool)), "samples", "maximum")
        _rejects(lambda: me.unit_directions(3, 6), "samples", "maximum")

    @pytest.mark.parametrize("samples", ["3", None])
    def test_samples_that_are_not_numbers(self, euclid, samples):
        _rejects(lambda: me.unit_directions(2, samples), "samples", "integer")
        _rejects(lambda: gd.radial_minimality_test(euclid, [0.0, 0.0], 1.0, samples, 0), "trials", "integer")

    def test_kronecker_dimension(self):
        _rejects(lambda: me.kronecker_sequence(5, me.MAX_DIMENSION + 1), "dim", "maximum")


class TestGeodesicSpan:
    def test_row_cap(self, euclid, monkeypatch):
        monkeypatch.setattr(gd, "MAX_GEODESIC_ROWS", 10)
        start = gd.GeodesicState([0.0, 0.0], [1.0, 0.0], 0.0)
        assert len(gd.geodesic_shoot(euclid, start, 1.0, 0.1)) == 11
        err = _rejects(lambda: gd.geodesic_shoot(euclid, start, 1.0, 0.09), "t_end", "maximum")
        assert str(err) == "t_end / step must be at most 10 output steps"

    def test_overflowing_ratio_is_capped(self, euclid):
        start = gd.GeodesicState([0.0, 0.0], [1.0, 0.0], 0.0)
        _rejects(lambda: gd.geodesic_shoot(euclid, start, 1e308, 1e-10), "t_end", "maximum")


class TestGridRules:
    @pytest.mark.parametrize(
        "box, resolution, path, constraint",
        [
            (([0.0, 0.0], [0.0, 1.0]), 11, "box", "positive"),
            (([0.0, 0.0], [1.0, np.nan]), 11, "box", "positive"),
            (([0.0, 0.0], [1.0, 1.0]), 1, "resolution", "minimum"),
            (([0.0, 0.0], [1.0, 1.0]), -4, "resolution", "minimum"),
            (([-np.inf, 0.0], [1.0, 1.0]), 11, "box", "finite"),
            (([-1e308, 0.0], [1e308, 1.0]), 11, "box", "finite"),
            (([0.0, 0.0], [5e-324, 1.0]), 11, "box", "finite"),
            pytest.param(([0.0, 0.0], [1.0, 1.0]), 10**400, "resolution", "maximum", id="integer_above_every_float"),
        ],
    )
    def test_grid_spacing_owns_the_box_and_resolution(self, euclid, box, resolution, path, constraint):
        _rejects(lambda: gd.grid_spacing(box, resolution), path, constraint)
        _rejects(lambda: gd.grid_node_id(box, resolution, [0.0, 0.0]), path, constraint)
        _rejects(lambda: gd.build_separation_graph(euclid, box, resolution, 1), path, constraint)

    @pytest.mark.parametrize(
        "point, constraint", [([0.0], "shape"), ([0.0, 0.0, 0.0], "shape"), (0.0, "shape"), ([5.0, 0.0], "grid"),
                              ([0.25, 0.25], "grid")]
    )
    def test_grid_node_id_checks_the_point(self, point, constraint):
        _rejects(lambda: gd.grid_node_id(BOX, 5, point), "point", constraint)

    @pytest.mark.parametrize("n, resolution, radius", [(1, 2, 1), (2, 5, 1), (2, 5, 3), (2, 3, 10**6), (3, 4, 2)])
    def test_candidate_edges_counts_nodes_times_offsets(self, euclid, n, resolution, radius):
        count = gd.candidate_edges(n, resolution, radius)
        assert count == resolution**n * len(gd._offset_table(n, resolution, radius))
        # the build keeps at most the edges it tries
        metric = me.euclidean_metric(n)
        g = gd.build_separation_graph(metric, ([-1.0] * n, [1.0] * n), resolution, radius)
        assert g.matrix.nnz <= count

    def test_neighbor_radius_boundary(self, euclid):
        _rejects(lambda: gd.build_separation_graph(euclid, BOX, 11, 0), "neighbor_radius", "minimum")
        g = gd.build_separation_graph(euclid, BOX, 11, 1)
        # 11 x 10 steps along each axis and 10 x 10 along each diagonal, both ways
        assert g.neighbor_radius == 1 and g.matrix.nnz == 2 * (2 * 11 * 10 + 2 * 10 * 10)

    @pytest.mark.parametrize("resolution, radius, path", [(5.5, 1, "resolution"), (np.nan, 1, "resolution"),
                                                           (5, 1.5, "neighbor_radius"), (5, True, "neighbor_radius"),
                                                           (5, np.True_, "neighbor_radius")])
    def test_counts_are_integers(self, euclid, resolution, radius, path):
        # a radius of 1.5 used to build the radius-1 graph while candidate_edges counted 15 offsets per node
        _rejects(lambda: gd.check_graph(BOX, resolution, radius), path, "integer")
        _rejects(lambda: gd.build_separation_graph(euclid, BOX, resolution, radius), path, "integer")
        if path == "resolution":
            _rejects(lambda: gd.grid_node_id(BOX, resolution, [0.0, 0.0]), path, "integer")

    @pytest.mark.parametrize("resolution, radius, path", [("5", 1, "resolution"), (5, "2", "neighbor_radius"),
                                                           (5, None, "neighbor_radius"), ([5], 1, "resolution")])
    def test_counts_that_are_not_numbers(self, euclid, resolution, radius, path):
        # a string used to raise an untyped TypeError from the bound comparison
        _rejects(lambda: gd.check_graph(BOX, resolution, radius), path, "integer")
        _rejects(lambda: gd.build_separation_graph(euclid, BOX, resolution, radius), path, "integer")
        if path == "resolution":
            _rejects(lambda: gd.grid_spacing(BOX, resolution), path, "integer")

    def test_integral_floats_are_counts(self, euclid):
        g = gd.build_separation_graph(euclid, BOX, 5.0, np.float64(2.0))
        ref = gd.build_separation_graph(euclid, BOX, 5, 2)
        assert type(g.resolution) is int and type(g.neighbor_radius) is int
        assert g.matrix.nnz == ref.matrix.nnz and np.array_equal(g.matrix.data, ref.matrix.data)

    def test_candidate_edges_of_huge_grids_need_no_allocation(self):
        assert gd.candidate_edges(2, 10**154, 1) == 8 * 10**308


class TestGraphCap:
    """``check_graph`` holds one graph to ``MAX_GRAPH_EDGES`` candidate edges before any allocation."""

    @pytest.fixture
    def no_allocation(self, monkeypatch):
        def never(*args):
            raise AssertionError("the offset table was built before the cap was checked")

        monkeypatch.setattr(gd, "_offset_table", never)

    def test_over_cap_build_allocates_nothing(self, euclid, no_allocation):
        assert gd.candidate_edges(2, 3001, 3) > gd.MAX_GRAPH_EDGES
        err = _rejects(lambda: gd.build_separation_graph(euclid, BOX, 3001, 3), "resolution", "maximum")
        assert str(err) == (f"resolution^2 grid nodes x neighbour offsets must be at most {gd.MAX_GRAPH_EDGES} "
                            "candidate edges")

    def test_cap_boundary(self, euclid, monkeypatch):
        monkeypatch.setattr(gd, "MAX_GRAPH_EDGES", gd.candidate_edges(2, 5, 1))  # 25 nodes x 8 offsets
        assert gd.build_separation_graph(euclid, BOX, 5, 1).node_count == 25
        np.testing.assert_array_equal(gd.check_graph(BOX, 5, 1), gd.grid_spacing(BOX, 5))
        monkeypatch.setattr(gd, "_offset_table", None)  # a build past the check would fail on a call of None
        _rejects(lambda: gd.build_separation_graph(euclid, BOX, 6, 1), "resolution", "maximum")
        _rejects(lambda: gd.build_separation_graph(euclid, BOX, 5, 2), "resolution", "maximum")

    def test_cap_admits_the_largest_graphs_built_here(self):
        # the benchmark's Lorentz graph at resolution 81 and neighbour radius 20: 6561 nodes x 1680 offsets
        assert gd.candidate_edges(2, 81, 20) == 11_022_480 <= gd.MAX_GRAPH_EDGES
        # criterion 6's Lorentz graph at resolution 81 and neighbour radius 40: 6561 nodes x 6560 offsets
        assert gd.candidate_edges(2, 81, 40) == 43_040_160 <= gd.MAX_GRAPH_EDGES

    def test_rules_are_checked_in_order(self, no_allocation):
        bad_box = ([0.0, 0.0], [0.0, 1.0])
        _rejects(lambda: gd.check_graph(bad_box, 10**9, 0), "neighbor_radius", "minimum")
        _rejects(lambda: gd.check_graph(bad_box, 10**9, 1), "box", "positive")
        _rejects(lambda: gd.check_graph(BOX, 10**400, 1), "resolution", "maximum")
        _rejects(lambda: gd.check_graph(BOX, 10**9, 1), "resolution", "maximum")


class TestGraphQueries:
    """Inputs that gave a silently wrong answer or an untyped error."""

    def test_point_of_the_wrong_shape(self, graph):
        _rejects(lambda: gd.separation(graph, [0.0], 0), "p", "shape")

    def test_point_is_named_by_the_caller(self, graph):
        err = _rejects(lambda: gd.separation(graph, [9.0, 9.0], 0), "p", "grid")
        assert str(err) == "p: point [9. 9.] outside the graph box"
        _rejects(lambda: gd.separation(graph, 0, [0.25, 0.25]), "q", "grid")
        _rejects(lambda: gd.df_ball(graph, [0.0], 1.0), "p", "shape")
        err = _rejects(lambda: gd.grid_node_id(BOX, 5, [0.25, 0.25], "source"), "source", "grid")
        assert str(err) == "source: point [0.25 0.25] is not a grid node"

    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_boolean_is_not_a_node(self, graph, flag):
        _rejects(lambda: gd.separation(graph, flag, 3), "p", "integer")
        _rejects(lambda: gd.separation(graph, 3, flag), "q", "integer")

    @pytest.mark.parametrize("node", [-1, 25, np.int64(-3), 10**30])
    def test_node_index_outside_the_grid(self, graph, node):
        _rejects(lambda: gd.separation(graph, node, 0), "p", "grid")
        _rejects(lambda: gd.separation(graph, 0, node), "q", "grid")
        _rejects(lambda: gd.reachability(graph, node), "p", "grid")
        _rejects(lambda: gd.df_ball(graph, node, 1.0), "p", "grid")

    def test_ball_radius(self, graph):
        _rejects(lambda: gd.df_ball(graph, 12, np.nan), "r", "number")
        assert gd.df_ball(graph, 12, -1.0).size == 0
        assert gd.df_ball(graph, 12, np.inf).size == graph.node_count


class TestCurveArguments:
    @pytest.mark.parametrize("epsilon, constraint", [(0.0, "positive"), (-0.5, "positive"), (np.nan, "positive"),
                                                     (np.pi, "maximum"), (4.0, "maximum"), (np.inf, "maximum")])
    def test_spiral_epsilon(self, epsilon, constraint):
        err = _rejects(lambda: mk.spiral_curve(epsilon), "epsilon", constraint)
        assert str(err) == "epsilon must be in (0, pi)"

    @pytest.mark.parametrize("epsilon", [1e-300, 0.1, np.nextafter(np.pi, 0.0)])
    def test_spiral_epsilon_inside_the_interval(self, epsilon):
        assert mk.spiral_curve(epsilon).theta_range == (epsilon, mk.TWO_PI - epsilon)

    @pytest.mark.parametrize("lobes", [2.5, np.nan, np.inf, -np.inf])
    def test_wavy_lobes_are_integers(self, lobes):
        _rejects(lambda: mk.wavy_curve(0.3, lobes), "lobes", "integer")

    def test_wavy_lobes_cap(self, monkeypatch):
        _rejects(lambda: mk.wavy_curve(0.3, 10**4 + 1), "lobes", "maximum")
        _rejects(lambda: mk.wavy_curve(0.3, 10**400), "lobes", "maximum")
        monkeypatch.setattr(mk, "MAX_LOBES", 5)
        for lobes in (5, -5, 5.0, np.int64(5)):
            assert float(mk.wavy_curve(0.3, lobes).value(0.0)) == 1.3
        for lobes in (6, -6, 6.0):
            err = _rejects(lambda: mk.wavy_curve(0.3, lobes), "lobes", "maximum")
        assert str(err) == "|lobes| must be at most 5"


class TestSampleCounts:
    """Every count that sizes a draw is checked under its own name, before any draw."""

    @pytest.mark.parametrize("trials, constraint", [(0, "minimum"), (-1, "minimum"), (np.nan, "minimum"),
                                                    (2 * 10**6, "maximum"), (2.5, "integer"), (True, "integer"),
                                                    (np.float64(7.25), "integer")])
    def test_radial_minimality_trials(self, euclid, trials, constraint, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a draw ran before trials was checked")

        monkeypatch.setattr(gd, "admissible_draws", never)
        _rejects(lambda: gd.radial_minimality_test(euclid, [0.0, 0.0], 1.0, trials, 0), "trials", constraint)

    def test_radial_minimality_trials_boundary(self, euclid, monkeypatch):
        monkeypatch.setattr(me, "MAX_SAMPLES", 16)  # the base-point probe draws 16 directions
        assert gd.radial_minimality_test(euclid, [0.0, 0.0], 1.0, 16, 0).counted >= 1
        err = _rejects(lambda: gd.radial_minimality_test(euclid, [0.0, 0.0], 1.0, 17, 0), "trials", "maximum")
        assert str(err) == "trials must be at most 16"


class TestDirection:
    def test_one_rule_for_both_balls(self, graph):
        for call in (
            lambda: mk.check_ball_direction("sideways"),
            lambda: gd.df_ball(graph, 0, 0.5, "sideways"),
        ):
            err = _rejects(call, "direction", "")
            assert str(err) == "direction must be 'forward' or 'backward', got 'sideways'"


class TestCombinatorArguments:
    def test_combine(self):
        e2, e3 = me.euclidean_metric(2), me.euclidean_metric(3)
        _rejects(lambda: cb.combine(cb.sum_combiner(2), [e2], []), "metrics", "shape")
        _rejects(lambda: cb.combine(cb.sum_combiner(2), [e2, e3], []), "metrics", "dimension")
        _rejects(lambda: cb.combine(cb.sum_combiner(0), [], []), "metrics", "minimum")

    def test_reversibilize_mode(self):
        _rejects(lambda: cb.reversibilize(me.euclidean_metric(2), "cubic"), "mode", "")

    def test_curve_type(self, euclid):
        _rejects(lambda: gd.curve_length(euclid, [[0.0, 0.0], [1.0, 0.0]]), "curve", "type")


class TestEigenClassifyShape:
    @pytest.mark.parametrize("m", [np.ones(3), 1.0, np.ones((2, 3)), np.ones((3, 2, 3)), np.ones((0, 0)),
                                   np.ones((4, 0, 0))], ids=["1d", "scalar", "2x3", "3x2x3", "0x0", "4x0x0"])
    def test_not_a_stack_of_square_matrices(self, m):
        _rejects(lambda: nk.eigen_classify(m), "m", "shape")

    @pytest.mark.parametrize("n", [1, 3])
    def test_empty_stack_gives_empty_arrays(self, n):
        report = nk.eigen_classify(np.ones((0, n, n)))
        assert report.eigenvalues.shape == (0, n) and report.min_eigenvalue.shape == report.code.shape == (0,)
