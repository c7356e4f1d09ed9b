import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra

from finslerkit import cli
from finslerkit import combinators as cb
from finslerkit import geodesy as gd
from finslerkit import metrics as me
from finslerkit import minkowski as mk
from finslerkit.cli import build_metric, builtin_config, parse_config
from finslerkit.errors import DegenerateTensor, DomainEmpty, InvalidArgument, LeftDomain, NotAdmissible, OutsideDomain
from finslerkit.numkernel import gauss_kronrod_3_7, simpson_weights

from conftest import assert_sector_separation, boxed, tie_excess_bound

BASE = np.zeros(2)


@pytest.fixture(scope="module")
def euclid():
    return me.euclidean_metric(2)


@pytest.fixture(scope="module")
def randers_const(euclid):
    metric, _ = cb.named_family("randers", euclid, me.constant_oneform([0.5, 0.0]))
    return metric


@pytest.fixture(scope="module")
def randers_posdep(euclid):
    def bcoef(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., 0] = 0.3 * (1.0 + 0.2 * np.sin(x[..., 0]))
        return out

    metric, _ = cb.named_family("randers", euclid, me.OneFormAtom(covector=bcoef))
    return metric


@pytest.fixture(scope="module")
def lorentz_metric():
    return me.minkowski_metric(mk.gauge_from_curve(mk.lorentz_curve()))


@pytest.fixture(scope="module")
def halfplane_dy():
    return me.oneform_metric(me.constant_oneform([0.0, 1.0]), 2)


def _flat_curve_length(m, curve, nodes):
    """The F-length by the earlier rule: one jet over the flat stack of every
    sample, each piece's velocity copied to its nodes."""
    w = simpson_weights(nodes)
    q = w.size
    pts, tms = curve.points, curve.times
    dt = np.diff(tms)
    tloc = np.linspace(0.0, 1.0, q)
    pos = pts[:-1, None, :] + tloc[None, :, None] * np.diff(pts, axis=0)[:, None, :]
    vel = np.broadcast_to((np.diff(pts, axis=0) / dt[:, None])[:, None, :], pos.shape)
    ok, vals = m.jet(pos.reshape(-1, pts.shape[1]), vel.reshape(-1, pts.shape[1]))
    assert ok.all()
    return float(np.dot((w[None, :] * (dt / (q - 1))[:, None]).ravel(), vals))


class TestCurveLength:
    def test_euclidean_segment(self, euclid):
        assert gd.curve_length(euclid, gd.Polyline(points=[[0, 0], [3, 4]])) == pytest.approx(5.0, abs=1e-10)

    def test_dy_metric_monotone_curves_all_length_one(self, halfplane_dy):
        t = np.linspace(0.0, 1.0, 41)
        wiggly = gd.Polyline(points=np.stack([0.4 * np.sin(np.pi * t), t], axis=-1))
        assert gd.curve_length(halfplane_dy, wiggly) == pytest.approx(1.0, abs=1e-10)
        assert gd.curve_length(halfplane_dy, gd.Polyline(points=[[0, 0], [0, 1]])) == pytest.approx(1.0)

    def test_lorentz_short_polygonal(self, lorentz_metric):
        # two segments hugging the null lines make the path cheap
        path = gd.Polyline(points=np.array([[0.0, 0.0], [0.999, 1.0], [0.0, 2.0]]))
        assert gd.curve_length(lorentz_metric, path) < 0.1

    @pytest.mark.parametrize("name", ["randers_posdep", "tree_posdep", "lorentz"])
    @pytest.mark.parametrize("nodes", [gd.CURVE_QUAD_NODES, gd.EDGE_QUAD_NODES])
    def test_pieces_equal_the_flat_sample_jet_bit_for_bit(self, name, nodes, lorentz_metric):
        # a piece's velocity broadcast over its nodes gives the bits of one jet over every sample
        if name == "lorentz":
            m = lorentz_metric  # a curve gauge, whose rays the jet casts once per piece
        elif name == "tree_posdep":
            m = _tree_metric(POSDEP_TREES[name])
        else:
            m = build_metric(parse_config(builtin_config(name))[0]).metric
        for seed in range(8):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 12))
            # steps inside the Lorentz cone |v_0| < v_1, admissible for every metric here
            steps = np.stack([rng.uniform(-0.9, 0.9, k), np.ones(k)], axis=-1) * rng.uniform(0.1, 0.5, size=(k, 1))
            points = np.concatenate([rng.uniform(-0.5, 0.5, size=(1, 2)), steps]).cumsum(axis=0)
            times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, k))])
            curve = gd.Polyline(points=points, times=times)
            assert gd.curve_length(m, curve, nodes) == _flat_curve_length(m, curve, nodes)

    def test_not_admissible_reports_parameter(self, halfplane_dy):
        path = gd.Polyline(points=np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.5]]))
        with pytest.raises(NotAdmissible) as err:
            gd.curve_length(halfplane_dy, path)
        assert err.value.parameter >= 0.5


class TestGeodesicShoot:
    def test_euclidean_straight_line(self, euclid):
        states = gd.geodesic_shoot(euclid, gd.GeodesicState([0, 0], [1, 0], 0.0), 2.0, 0.05)
        assert np.allclose(states[-1].position, [2.0, 0.0], atol=1e-12)
        assert np.allclose(states[-1].velocity, [1.0, 0.0], atol=1e-12)

    def test_minkowski_norm_straightness(self, lorentz_metric, randers_const):
        for metric, v in ((lorentz_metric, [0.2, 1.1]), (randers_const, [0.9, -0.4])):
            states = gd.geodesic_shoot(metric, gd.GeodesicState([0.1, 0.2], v, 0.0), 1.0, 0.02)
            for s in states:
                expected = np.array([0.1, 0.2]) + s.parameter * np.array(v)
                assert np.max(np.abs(s.position - expected)) < 1e-8
                assert np.max(np.abs(s.velocity - np.array(v))) < 1e-8

    def test_speed_conservation_position_dependent(self, randers_posdep):
        states = gd.geodesic_shoot(randers_posdep, gd.GeodesicState([0, 0], [1.0, 0.3], 0.0), 1.0, 0.01)
        speeds = np.array(
            [me.eval_F(randers_posdep, me.TangentVec(s.position, s.velocity)) for s in states]
        )
        assert np.max(np.abs(speeds - speeds[0])) < 1e-6 * speeds[0]

    def test_degenerate_tensor_aborts(self, halfplane_dy):
        with pytest.raises(DegenerateTensor):
            gd.geodesic_shoot(halfplane_dy, gd.GeodesicState([0, 0], [0.1, 1.0], 0.0), 1.0, 0.1)

    @pytest.mark.parametrize("t0", [5.0, -2.5])
    def test_degenerate_tensor_parameter_counts_from_the_start_state(self, halfplane_dy, t0):
        with pytest.raises(DegenerateTensor) as ref:
            gd.geodesic_shoot(halfplane_dy, gd.GeodesicState([0, 0], [0.1, 1.0], 0.0), 1.0, 0.1)
        with pytest.raises(DegenerateTensor) as err:
            gd.geodesic_shoot(halfplane_dy, gd.GeodesicState([0, 0], [0.1, 1.0], t0), 1.0, 0.1)
        assert err.value.parameter == t0 + ref.value.parameter
        assert str(err.value) == f"fundamental tensor degenerate near parameter {t0 + ref.value.parameter:.6g}"

    @pytest.mark.parametrize(
        "t_end, step", [(-1.0, 0.01), (0.0, 0.01), (np.inf, 0.01), (np.nan, 0.01), (1.0, 0.0), (1.0, np.inf), (1.0, np.nan)]
    )
    def test_non_finite_or_non_positive_span_rejected(self, euclid, t_end, step):
        # t_end is checked first, each for positive then finite, at its own parameter
        name, value = ("t_end", t_end) if not 0 < t_end < np.inf else ("step", step)
        rule = "finite" if value == np.inf else "positive"
        with pytest.raises(ValueError, match=f"^{name} must be {rule}$") as err:
            gd.geodesic_shoot(euclid, gd.GeodesicState([0, 0], [1, 0], 0.0), t_end, step)
        assert isinstance(err.value, InvalidArgument)
        assert (err.value.path, err.value.constraint) == (name, rule)

    def test_left_domain_reports_exit_parameter(self):
        with pytest.raises(LeftDomain) as err:
            gd.geodesic_shoot(boxed(me.euclidean_metric(2)), gd.GeodesicState([0, 0], [1.0, 0.0], 0.0), 2.0, 0.05)
        assert 0.9 < err.value.parameter <= 1.1

    @pytest.mark.parametrize("t0", [5.0, -2.5])
    def test_left_domain_parameter_counts_from_the_start_state(self, t0):
        square = boxed(me.euclidean_metric(2))
        with pytest.raises(LeftDomain) as ref:
            gd.geodesic_shoot(square, gd.GeodesicState([0, 0], [1.0, 0.0], 0.0), 2.0, 0.05)
        with pytest.raises(LeftDomain) as err:
            gd.geodesic_shoot(square, gd.GeodesicState([0, 0], [1.0, 0.0], t0), 2.0, 0.05)
        # the states of this shot carry t0 + t, and so does its exit
        assert err.value.parameter == t0 + ref.value.parameter
        # every stencil row x +- h e_a must lie in the square, so the orbit along
        # x = t stops once t + h reaches 1, with h = _STENCIL_STEP there (|x| < 1)
        h = gd._STENCIL_STEP
        assert t0 + 1.0 - 2.0 * h < err.value.parameter <= t0 + 1.0 - h
        assert str(err.value).startswith(f"geodesic left the domain after parameter {err.value.parameter:.6g}; ")


RANDERS_B05 = {"type": "named", "family": "randers", "b": 0.5}
POSDEP_TREES = {
    "riemann_posdep": {
        "type": "riemannian",
        "matrix_expr": [["1+0.3*sin(x)**2", "0.1*cos(y)"], ["0.1*cos(y)", "1+0.2*cos(y)"]],
    },
    "tree_posdep": {
        "type": "power_q",
        "q": 2.0,
        "metrics": [{"type": "reversibilize", "mode": "sum", "inner": RANDERS_B05}, RANDERS_B05],
        "forms": [{"coeff_exprs": ["0.2*(1+0.1*sin(y))", "0.1"]}],
    },
}


def _stencil_axes(x):
    """For each axis a, the points x + h e_a and x - h e_a of ``_accel``'s stencil, and h."""
    h = (gd.EPS ** (1.0 / 3.0)) * np.maximum(1.0, np.linalg.norm(x, axis=-1))
    for a in range(x.shape[-1]):
        xp = x.copy()
        xp[..., a] += h
        xm = x.copy()
        xm[..., a] -= h
        yield xp, xm, h


def _accel_reference(m, x, v, t):
    """The acceleration axis by axis: one checked tensor, then one jet per axis
    over its pair x +- h e_a, wholly in the domain, whose F^2 and p = 2 g v
    give the central differences."""
    ok, _, g = m.jet(x, v, with_tensor=True)
    g = gd._tensor_checked(ok, g, t)
    if m.position_independent:
        return np.zeros_like(v)
    rhs = np.zeros_like(v)
    dp_dx = np.zeros(x.shape[-1:] + x.shape)  # [a, ..., i] = d p_i / d x_a
    for a, (xp, xm, h) in enumerate(_stencil_axes(x)):
        # one jet per axis pair, whose v is broadcast over the pair with stride 0 as over
        # the stencil: riemann_metric's 3-operand einsum orders its sum by the strides
        (okp, okm), (Fp, Fm), (gp, gm) = m.jet(np.stack([xp, xm]), v, with_tensor=True)
        if not (okp.all() and okm.all()):
            raise LeftDomain(f"position derivatives hit the domain boundary near {t:.6g}", parameter=t)
        pp = 2.0 * np.einsum("...ij,...j->...i", gp, v)
        pm = 2.0 * np.einsum("...ij,...j->...i", gm, v)
        dp_dx[a] = (pp - pm) / (2.0 * h[..., None])
        rhs[..., a] = (Fp * Fp - Fm * Fm) / (2.0 * h)
    rhs = rhs - np.einsum("a...i,...a->...i", dp_dx, v)
    if not np.all(np.isfinite(rhs)):
        raise LeftDomain(f"position derivatives hit the domain boundary near {t:.6g}", parameter=t)
    return np.linalg.solve(2.0 * g, rhs[..., None])[..., 0]


def _accel_vgv(m, x, v):
    """The acceleration by the earlier rule: d_a(F^2) as the central difference
    of v.g.v, with two ``tensor_many`` calls per axis and no stencil domain check."""
    g = m.tensor_many(x, v)
    rhs = np.zeros_like(v)
    dp_dx = np.zeros(x.shape[:-1] + x.shape[-1:] * 2)
    for a, (xp, xm, h) in enumerate(_stencil_axes(x)):
        gp, gm = m.tensor_many(xp, v), m.tensor_many(xm, v)
        dp_dx[..., a, :] = 2.0 * np.einsum("...ij,...j->...i", gp - gm, v) / (2.0 * h[..., None])
        rhs[..., a] = (np.einsum("...i,...ij,...j->...", v, gp, v) - np.einsum("...i,...ij,...j->...", v, gm, v)) / (2.0 * h)
    rhs = rhs - np.einsum("...ai,...a->...i", dp_dx, v)
    return np.linalg.solve(2.0 * g, rhs[..., None])[..., 0]


def _rk4_reference(m, x0, v0, t_end, step):
    """The earlier fixed-step classical RK4 loop over batched states (B, N)."""
    x, v = np.array(x0, dtype=float), np.array(v0, dtype=float)
    n_steps = max(1, int(round(t_end / step)))
    dt = t_end / n_steps
    xs, vs = [x], [v]
    for k in range(n_steps):
        t = k * dt
        a1 = gd._accel(m, x, v, t)
        a2 = gd._accel(m, x + 0.5 * dt * v, v + 0.5 * dt * a1, t + 0.5 * dt)
        a3 = gd._accel(m, x + 0.5 * dt * v + 0.25 * dt * dt * a1, v + 0.5 * dt * a2, t + 0.5 * dt)
        a4 = gd._accel(m, x + dt * v + 0.5 * dt * dt * a2, v + dt * a3, t + dt)
        x = x + dt * v + dt * dt / 6.0 * (a1 + a2 + a3)
        v = v + dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        xs.append(x)
        vs.append(v)
    return np.array(xs), np.array(vs)


# a position-dependent Riemannian metric, boxed in the square |x|, |y| < 1 by the tests
POSDEP_ATOM = me.RiemannAtom(metric_matrix=lambda x: (1.0 + 0.2 * np.asarray(x)[..., :1, None] ** 2) * np.eye(2))


class TestStackedStencil:
    @pytest.fixture(scope="class", params=["randers_posdep", *POSDEP_TREES])
    def posdep(self, request, randers_posdep):
        if request.param == "randers_posdep":
            return randers_posdep
        return build_metric(parse_config(json.dumps({"metric": POSDEP_TREES[request.param]}))[0]).metric

    @pytest.mark.parametrize("batch", [1, 7])
    def test_matches_per_offset_reference_bit_for_bit(self, posdep, batch):
        rng = np.random.default_rng(batch)
        x = rng.uniform(-0.5, 0.5, size=(batch, 2))
        th = rng.uniform(0.0, 2.0 * np.pi, size=batch)
        v = rng.uniform(0.8, 1.2, size=(batch, 1)) * np.stack([np.cos(th), np.sin(th)], axis=-1)
        assert not posdep.position_independent
        assert np.array_equal(gd._accel(posdep, x, v, 0.3), _accel_reference(posdep, x, v, 0.3))

    @pytest.mark.parametrize("batch", [1, 7])
    def test_stays_close_to_the_earlier_vgv_rule(self, posdep, batch):
        # d_a(F^2) from the jet's F and from v.g.v agree to rounding over h
        rng = np.random.default_rng(100 + batch)
        x = rng.uniform(-0.5, 0.5, size=(batch, 2))
        th = rng.uniform(0.0, 2.0 * np.pi, size=batch)
        v = rng.uniform(0.5, 2.0, size=(batch, 1)) * np.stack([np.cos(th), np.sin(th)], axis=-1)
        diff = np.abs(gd._accel(posdep, x, v, 0.3) - _accel_vgv(posdep, x, v))
        assert np.all(diff <= 1e-9 * (v * v).sum(axis=-1, keepdims=True))

    def test_every_stencil_row_must_be_in_the_domain(self):
        # Randers with b = (-x, 0): F(v) = |v| - x v_0 needs x < 1 for v = (1, 0), so the
        # state at x = 1 - 0.4 h is inside while its stencil row x + h e_0 is not
        m = _tree_metric({"type": "named", "family": "randers", "form": {"coeff_exprs": ["-x", "0"]}})
        h = gd._STENCIL_STEP
        x, v = np.array([[1.0 - 0.4 * h, 0.0]]), np.array([[1.0, 0.0]])
        assert m.in_domain_many(x, v).all() and not m.in_domain_many(x + [h, 0.0], v).any()
        # the earlier rule took that row's unspecified tensor into a finite acceleration (4.1e5)
        assert np.isfinite(_accel_vgv(m, x, v)).all()
        for accel in (gd._accel, _accel_reference):
            with pytest.raises(LeftDomain, match="^position derivatives hit the domain boundary near 0.3$"):
                accel(m, x, v, 0.3)

    def test_one_top_level_jet_per_accel_call(self, randers_posdep, monkeypatch):
        calls = {"accel": 0, "jet": 0}
        state = {"inside_accel": False, "depth": 0}
        jet, accel = me.ConicMetric.jet, gd._accel

        def counting_jet(self, *args, **kwargs):
            calls["jet"] += state["inside_accel"] and state["depth"] == 0
            state["depth"] += 1
            try:
                return jet(self, *args, **kwargs)
            finally:
                state["depth"] -= 1

        def counting_accel(*args):
            calls["accel"] += 1
            state["inside_accel"] = True
            try:
                return accel(*args)
            finally:
                state["inside_accel"] = False

        monkeypatch.setattr(me.ConicMetric, "jet", counting_jet)
        monkeypatch.setattr(gd, "_accel", counting_accel)
        gd.geodesic_shoot(randers_posdep, gd.GeodesicState([0, 0], [1.0, 0.3], 0.0), 0.1, 0.01)
        # classical RK4 at step 0.01 made 40 calls on this orbit
        assert calls["jet"] == calls["accel"]
        assert 0 < calls["accel"] < 40

    def test_left_domain_on_position_dependent_chart(self, monkeypatch):
        square = boxed(me.riemann_metric(POSDEP_ATOM, 2))
        assert not square.position_independent
        start = gd.GeodesicState([0, 0], [1.0, 0.0], 0.0)
        with pytest.raises(LeftDomain) as err:
            gd.geodesic_shoot(square, start, 2.0, 0.05)
        monkeypatch.setattr(gd, "_accel", _accel_reference)
        with pytest.raises(LeftDomain) as ref:
            gd.geodesic_shoot(square, start, 2.0, 0.05)
        assert 0.9 < err.value.parameter <= 1.1
        assert err.value.parameter == ref.value.parameter
        assert str(err.value) == str(ref.value)

    def test_rejected_trial_steps_do_not_end_an_orbit_inside_the_chart(self, monkeypatch):
        square = boxed(me.riemann_metric(POSDEP_ATOM, 2))
        exits = []
        accel = gd._accel

        def recording_accel(*args):
            try:
                return accel(*args)
            except LeftDomain as exc:
                exits.append(exc.parameter)
                raise

        monkeypatch.setattr(gd, "_accel", recording_accel)
        x0, v0 = [0.0, 0.0], [1.0, 0.999]
        states = gd.geodesic_shoot(square, gd.GeodesicState(x0, v0, 0.0), 1.0, 0.05)
        assert exits  # a trial step crossed the edge and was rejected
        end = states[-1].position
        assert 0.99 < end[0] < 1.0
        xs, _ = _rk4_reference(square, np.array([x0]), np.array([v0]), 1.0, 0.005)
        assert np.max(np.abs(end - xs[-1, 0])) < 1e-9


class TestAgainstRK4Reference:
    """The error-controlled pair against the fixed-step RK4 loop at step 0.001."""

    @pytest.mark.parametrize("name", ["randers_posdep", "riemann_posdep"])
    def test_orbits(self, name, randers_posdep):
        m = randers_posdep if name == "randers_posdep" else _tree_metric(POSDEP_TREES[name])
        rng = np.random.default_rng(11)
        x0 = rng.uniform(-0.5, 0.5, size=(3, 2))
        th = rng.uniform(0.0, 2.0 * np.pi, size=3)
        v0 = rng.uniform(0.8, 1.2, size=(3, 1)) * np.stack([np.cos(th), np.sin(th)], axis=-1)
        x_ref, v_ref = _rk4_reference(m, x0, v0, 1.0, 0.001)
        for i in range(x0.shape[0]):
            states = gd.geodesic_shoot(m, gd.GeodesicState(x0[i], v0[i], 0.0), 1.0, 0.001)
            end = gd.exp_map(m, x0[i], v0[i])
            # the step sequence does not depend on the output spacing
            assert np.array_equal(end, states[-1].position)
            assert np.max(np.abs(end - x_ref[-1, i])) < 1e-9
            assert np.max(np.abs(states[-1].velocity - v_ref[-1, i])) < 1e-9
            # the grid states come from the continuous extension
            xs = np.array([s.position for s in states])
            vs = np.array([s.velocity for s in states])
            assert np.max(np.abs(xs - x_ref[:, i])) < 1e-8
            assert np.max(np.abs(vs - v_ref[:, i])) < 1e-8


class TestExpMap:
    def test_euclidean(self, euclid):
        assert np.allclose(gd.exp_map(euclid, [0, 0], [3, 4]), [3.0, 4.0], atol=1e-12)

    def test_minkowski_norm_translation(self, lorentz_metric):
        end = gd.exp_map(lorentz_metric, [0.3, -0.2], [0.5, 1.4])
        assert np.allclose(end, [0.8, 1.2], atol=1e-9)

    def test_randers_constant_form(self, randers_const):
        end = gd.exp_map(randers_const, [1.0, 2.0], [0.7, -0.1])
        assert np.allclose(end, [1.7, 1.9], atol=1e-6)


class TestGaussLemma:
    def test_euclidean(self, euclid):
        (res,) = gd.gauss_residuals(euclid, [0, 0], np.array([[1.0, 0.5]]), np.array([[0.0, 1.0]]))
        assert abs(res) < 1e-6

    def test_randers_constant(self, randers_const):
        (res,) = gd.gauss_residuals(randers_const, [0, 0], np.array([[1.0, 0.2]]), np.array([[-0.3, 1.0]]))
        assert abs(res) < 1e-6

    def test_randers_position_dependent(self, randers_posdep):
        rng = np.random.default_rng(7)
        vs = rng.normal(size=(20, 2))
        ws = rng.normal(size=(20, 2))
        res = gd.gauss_residuals(randers_posdep, [0.2, -0.1], vs, ws, step=0.005)
        assert np.max(np.abs(res)) < 1e-4


class TestRadialMinimality:
    def test_euclidean(self, euclid):
        rep = gd.radial_minimality_test(euclid, [0, 0], radius=1.0, trials=60, seed=0)
        assert rep.counted == 60
        assert rep.min_ratio >= 1.0 - 1e-6

    def test_randers_constant(self, randers_const):
        rep = gd.radial_minimality_test(randers_const, [0, 0], radius=1.0, trials=60, seed=1)
        assert rep.all_pass

    def test_lorentz_rejected(self, lorentz_metric):
        with pytest.raises(DegenerateTensor):
            gd.radial_minimality_test(lorentz_metric, [0, 0], radius=1.0, trials=5, seed=2)

    def test_sliver_domain_is_domain_empty(self):
        """The probe fan meets a cone of half-angle 1e-6 about e_0; random directions do not."""

        def jet_fn(base, vec, with_tensor):
            ok = np.abs(vec[..., 1]) < 1e-6 * vec[..., 0]
            F = np.linalg.norm(vec, axis=-1)
            return (ok, F, np.broadcast_to(np.eye(2), ok.shape + (2, 2))) if with_tensor else (ok, F)

        sliver = me.ConicMetric(dimension=2, jet_fn=jet_fn, position_independent=True)
        with pytest.raises(DomainEmpty, match=r"^0 of 5 random vectors admissible after 2000 draws$"):
            gd.radial_minimality_test(sliver, [0, 0], radius=1.0, trials=5, seed=0)


class TestBuildGraph:
    def test_boxed_metric_leaves_nodes_outside_its_square_unreachable(self, euclid):
        """The square max|x_i| < 1 is in the jet's domain, so no edge leaves a
        node outside it, just as eval_F_many rejects every vector there."""
        m = boxed(euclid)
        g = gd.build_separation_graph(m, (np.full(2, -2.0), np.full(2, 2.0)), 9, 2)
        p, q = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
        with pytest.raises(OutsideDomain):
            me.eval_F_many(m, p, q - p)
        assert gd.separation(g, p, q).value == np.inf
        assert gd.separation(g, [-0.5, -0.5], [0.5, 0.5]).value == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_euclidean_unit_box(self, euclid):
        g = gd.build_separation_graph(euclid, (np.zeros(2), np.ones(2)), 21, 2)
        n_nodes = 21 * 21
        assert g.node_count == n_nodes
        # symmetric weights: reversed edges carry identical lengths
        mat = g.matrix.tocoo()
        lookup = {(r, c): w for r, c, w in zip(mat.row, mat.col, mat.data)}
        for (r, c), w in list(lookup.items())[:500]:
            assert lookup[(c, r)] == pytest.approx(w)

    def test_dy_metric_only_upward_edges(self, halfplane_dy):
        g = gd.build_separation_graph(halfplane_dy, (np.zeros(2), np.ones(2)), 11, 2)
        mat = g.matrix.tocoo()
        for r, c in zip(mat.row, mat.col):
            assert g.nodes[c][1] > g.nodes[r][1]

    def test_lorentz_cone_edges(self, lorentz_metric):
        g = gd.build_separation_graph(
            lorentz_metric, (np.array([-1.0, 0.0]), np.array([1.0, 2.0])), 11, 3
        )
        mat = g.matrix.tocoo()
        for r, c in zip(mat.row, mat.col):
            d = g.nodes[c] - g.nodes[r]
            assert abs(d[0]) < d[1]


def _grid_layout(box, resolution):
    """(nodes, strides, h) of the grid on ``box``, laid out as the builder does."""
    lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
    n = lo.shape[0]
    axes = [np.linspace(lo[d], hi[d], resolution) for d in range(n)]
    nodes = np.stack([mm.ravel() for mm in np.meshgrid(*axes, indexing="ij")], axis=-1)
    strides = np.array([resolution ** (n - 1 - d) for d in range(n)])
    return nodes, strides, (hi - lo) / (resolution - 1)


def _offset_segments(nodes, resolution, strides, h, neighbor_radius):
    """Per nonzero offset o in [-R, R]^n, in lexicographic order, the edges
    src -> dst = src + o on the grid and the segments they are sampled on,
    (o, src, dst, starts, ends, segment delta): from src by o h when o's first
    nonzero component is negative (the first half of the offset table), else
    the reverse segment, from dst by -o h.  ``starts`` and ``ends`` are grid nodes."""
    R, n = int(neighbor_radius), len(strides)
    for off in itertools.product(range(-R, R + 1), repeat=n):
        if all(o == 0 for o in off):
            continue
        ranges = [np.arange(max(0, -off[d]), resolution - max(0, off[d])) * strides[d] for d in range(n)]
        src = ranges[0]
        for d in range(1, n):
            src = np.add.outer(src, ranges[d]).ravel()
        if src.size == 0:
            continue
        dst = src + int(np.dot(off, strides))
        first = next(o for o in off if o != 0) < 0
        a, b, seg = (src, dst, off) if first else (dst, src, tuple(-o for o in off))
        yield off, src, dst, nodes[a], nodes[b], np.array(seg, dtype=float) * h


def _shared_points(starts, ends, seg_delta, t):
    """starts + t_j seg_delta (E, J, n), with the exact nodes at t = 0 and t = 1."""
    pos = starts[:, None, :] + t[None, :, None] * seg_delta
    pos[:, 0], pos[:, -1] = starts, ends
    return pos


def _simpson_graph_reference(m, box, resolution, neighbor_radius):
    """The earlier position-dependent builder, kept as a reference: every
    edge's weight and cone test come from one jet over 33 Simpson points of
    its shared segment (:func:`_offset_segments`)."""
    assert not m.position_independent
    nodes, strides, h = _grid_layout(box, resolution)
    w = simpson_weights(33)
    tq = np.linspace(0.0, 1.0, w.size)
    wq = w / (w.size - 1)
    rows_all, cols_all, weights_all = [], [], []
    for off, src, dst, starts, ends, seg in _offset_segments(nodes, resolution, strides, h, neighbor_radius):
        ok, vals = m.jet(_shared_points(starts, ends, seg, tq), np.array(off, dtype=float) * h)
        keep = np.all(ok, axis=1)
        rows_all.append(src[keep])
        cols_all.append(dst[keep])
        weights_all.append((vals[keep] * wq).sum(-1))
    size = nodes.shape[0]
    return coo_matrix(
        (np.concatenate(weights_all), (np.concatenate(rows_all), np.concatenate(cols_all))), shape=(size, size)
    ).tocsr()


def _high_order_weights(m, graph, panels=16):
    """F-length of every graph edge by composite 16-node Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(16)
    t = ((np.arange(panels)[:, None] + 0.5 * (1.0 + x)) / panels).ravel()
    wt = np.tile(w, panels) / (2 * panels)
    coo = graph.matrix.tocoo()
    a, b = graph.nodes[coo.row], graph.nodes[coo.col]
    out = np.empty(coo.nnz)
    for s in range(0, coo.nnz, 1000):
        d = b[s : s + 1000] - a[s : s + 1000]
        ok, vals = m.jet(a[s : s + 1000, None, :] + t[None, :, None] * d[:, None, :], d[:, None, :])
        assert np.all(ok)
        out[s : s + 1000] = vals @ wt
    return coo, out


@pytest.fixture
def top_level_jets(monkeypatch):
    """Records the base-point array of every top-level ``ConicMetric.jet`` call,
    broadcast against its vectors as the node jets get it."""
    calls = []
    depth = [0]
    jet = me.ConicMetric.jet

    def recording_jet(self, base, vec, *args, **kwargs):
        if depth[0] == 0:
            calls.append(np.array(np.broadcast_arrays(base, vec)[0], dtype=float))
        depth[0] += 1
        try:
            return jet(self, base, vec, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(me.ConicMetric, "jet", recording_jet)
    return calls


UNIT_BOX = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
POSDEP_CONES = {
    "kropina": {"type": "named", "family": "kropina", "form": {"coeff_exprs": ["cos(1.5*y)", "sin(1.5*y)"]}},
    "oneform_metric": {"type": "oneform_metric", "coeff_exprs": ["cos(2*x)", "sin(2*x)"]},
    # the cone closes at y = 0, so only the test at an edge's start drops the edges leaving that row
    "closing_halfplane": {"type": "oneform_metric", "coeff_exprs": ["0", "y"]},
}
PERIOD_037 = {"type": "riemannian", "matrix_expr": [["1+0.5*sin(2*pi*x/0.37)", "0"], ["0", "1"]]}


def _tree_metric(tree):
    return build_metric(parse_config(json.dumps({"metric": tree}))[0]).metric


class TestEdgeRule:
    """Position-dependent edges: 7-point Kronrod lengths, a 9-point cone test,
    and the 33-point Simpson reference for the edges the 3-point Gauss estimate flags."""

    @pytest.mark.parametrize("name", sorted(POSDEP_CONES))
    def test_edge_sets_match_reference_on_position_dependent_cones(self, name):
        m = _tree_metric(POSDEP_CONES[name])
        assert not m.position_independent
        g = gd.build_separation_graph(m, UNIT_BOX, 21, 3)
        ref = _simpson_graph_reference(m, UNIT_BOX, 21, 3)
        assert 0 < g.matrix.nnz < 21 * 21 * 48
        assert np.array_equal(g.matrix.indptr, ref.indptr)
        assert np.array_equal(g.matrix.indices, ref.indices)
        assert np.allclose(g.matrix.data, ref.data, rtol=1e-8, atol=0)

    def test_flagged_edges_keep_the_simpson_weight(self, top_level_jets):
        """The edges the 3-point Gauss estimate flags keep the 33-point Simpson
        weight of their shared segment, bit for bit, and the builder redoes
        each flagged edge's segment in one jet for both directions."""
        m = _tree_metric(PERIOD_037)
        g = gd.build_separation_graph(m, UNIT_BOX, 21, 3)
        redone = [b for b in top_level_jets if b.shape[-2] == gd.EDGE_QUAD_NODES]
        assert all(np.array_equal(b[0], b[1]) for b in redone)  # both directions on one set of points
        h = (UNIT_BOX[1] - UNIT_BOX[0]) / 20
        ids = [
            np.ravel_multi_index(tuple(np.rint((p - UNIT_BOX[0]) / h).astype(int).T), (21, 21))
            for b in redone
            for p in (b[0, :, 0], b[0, :, -1])
        ]
        segments = set(zip(np.concatenate(ids[0::2]).tolist(), np.concatenate(ids[1::2]).tolist()))
        rows, cols, _, flagged = _loop_graph_edges(m, UNIT_BOX, 21, 3)
        assert 0 < np.count_nonzero(flagged) < g.matrix.nnz
        assert all((r, c) in segments or (c, r) in segments for r, c in zip(rows[flagged], cols[flagged]))
        ref = _simpson_graph_reference(m, UNIT_BOX, 21, 3)
        assert np.array_equal(g.matrix.indices, ref.indices)
        mask = np.zeros(g.matrix.shape, dtype=bool)
        mask[rows[flagged], cols[flagged]] = True
        coo = g.matrix.tocoo()
        mask = mask[coo.row, coo.col]
        assert np.array_equal(g.matrix.data[mask], ref.data[mask])
        assert np.allclose(g.matrix.data[~mask], ref.data[~mask], rtol=gd.EDGE_KRONROD_RTOL, atol=0)

    @pytest.mark.parametrize("name", ["randers_posdep", "riemann_posdep"])
    def test_weights_match_high_order_reference(self, name, randers_posdep):
        m = randers_posdep if name == "randers_posdep" else _tree_metric(POSDEP_TREES[name])
        g = gd.build_separation_graph(m, UNIT_BOX, 17, 3)
        coo, ref = _high_order_weights(m, g)
        assert coo.nnz == sum((17 - abs(a)) * (17 - abs(b)) for a in range(-3, 4) for b in range(-3, 4)) - 17 * 17
        assert np.max(np.abs(coo.data - ref) / ref) <= 1e-12

    def test_at_most_nine_jet_points_per_edge(self, randers_posdep, top_level_jets):
        """Each jet is a (2, E, 9) stack of E segments, the two directions on one
        set of points: 9 points per segment, 9 / 2 per edge."""
        g = gd.build_separation_graph(randers_posdep, UNIT_BOX, 21, 3)
        assert all(b.shape[:1] + b.shape[2:] == (2, 9, 2) for b in top_level_jets)
        assert all(np.array_equal(b[0], b[1]) for b in top_level_jets)
        points = sum(int(np.prod(b.shape[1:-1])) for b in top_level_jets)
        assert 2 * points == 9 * g.matrix.nnz

    def test_matrix_expr_field_sees_nine_points_per_segment(self, monkeypatch):
        """The riemann_posdep graph at res 31 / R 4 evaluates its matrix_expr
        field once on the 9 points of each segment, for both of its edges, and
        once on the 33 Simpson points of each segment it redoes."""
        shapes = []
        expr_field = cli._expr_field

        def counted_field(*args, **kwargs):
            field, constant = expr_field(*args, **kwargs)

            def counted(x):
                shapes.append(np.shape(x))
                return field(x)

            return counted, constant

        monkeypatch.setattr(cli, "_expr_field", counted_field)
        m = _tree_metric(POSDEP_TREES["riemann_posdep"])
        shapes.clear()
        g = gd.build_separation_graph(m, ([-2.0, -2.0], [2.0, 2.0]), 31, 4)
        assert g.matrix.nnz == 66120  # every in-grid pair
        # (1, 1, segments, points, 2): the jet's leading axis, the two directions cut to one
        assert all(s[:2] + s[3:] in ((1, 1, 9, 2), (1, 1, gd.EDGE_QUAD_NODES, 2)) for s in shapes)
        assert sum(s[2] for s in shapes if s[3] == 9) == g.matrix.nnz // 2
        assert 0 < sum(s[2] for s in shapes if s[3] == gd.EDGE_QUAD_NODES) < g.matrix.nnz // 200

    @pytest.mark.parametrize("box", [([0.0, 0.0], [0.0, 1.0]), ([0.0, 1.0], [1.0, 0.5]), ([0.0, 0.0], [1.0, np.nan])])
    def test_degenerate_box_rejected(self, euclid, box):
        with pytest.raises(ValueError, match="hi > lo"):
            gd.build_separation_graph(euclid, box, 11, 2)
        with pytest.raises(ValueError, match="hi > lo"):
            gd.grid_node_id(box, 11, [0.0, 0.0])

    @pytest.mark.parametrize(
        "box",
        [
            ([-np.inf, -1.0], [1.0, 1.0]),
            ([0.0, 0.0], [1.0, np.inf]),
            ([-1e308, -1.0], [1e308, 1.0]),
            ([0.0, 0.0], [5e-324, 1.0]),
        ],
        ids=["infinite_lo", "infinite_hi", "overflowing_extent", "zero_cell"],
    )
    def test_non_finite_box_rejected(self, euclid, box):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite corners, extent and cell size"):
                gd.build_separation_graph(euclid, box, 11, 2)
            with pytest.raises(ValueError, match="finite corners, extent and cell size"):
                gd.grid_node_id(box, 11, [0.0, 0.0])
            with pytest.raises(ValueError, match="finite corners, extent and cell size"):
                gd.grid_spacing(box, 11)

    @pytest.mark.parametrize("point", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -1e308], [1e308, 1e308]])
    def test_non_finite_point_is_outside_the_box(self, point):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outside the graph box"):
                gd.grid_node_id(([-1.0, -1.0], [1.0, 1.0]), 11, point)


def _offset_edge_lengths(m, starts, ends, seg_delta, velocity):
    """The edge rule, kept as a reference: (kept, lengths, redone) of the edges
    of one offset, velocity (n,), sampled on the segments ``starts -> ends``
    = starts + seg_delta (E, n), from one jet, and ``redone``, the edges whose
    Simpson sum decides, kept or not.  Both sums run in point order, from
    ``starts`` to ``ends``."""
    t, k7, g3 = gauss_kronrod_3_7()
    ok, vals = m.jet(_shared_points(starts, ends, seg_delta, np.concatenate([[0.0], t, [1.0]])), velocity)
    kept = np.all(ok, axis=1)
    inner = vals[kept, 1:-1]
    kronrod = np.einsum("ij,j->i", inner, k7)
    gauss = np.einsum("ij,j->i", inner[:, 1::2], g3)
    flagged = ~(np.abs(kronrod - gauss) <= gd.EDGE_KRONROD_RTOL * np.abs(kronrod))
    lengths = np.full(kept.shape, np.nan)
    lengths[kept] = kronrod
    redo = np.flatnonzero(kept)[flagged]
    if redo.size:
        w = simpson_weights(gd.EDGE_QUAD_NODES)
        tq = np.linspace(0.0, 1.0, w.size)
        ok, vals = m.jet(_shared_points(starts[redo], ends[redo], seg_delta, tq), velocity)
        keep = np.all(ok, axis=1)
        kept[redo] = keep
        lengths[redo[keep]] = (vals[keep] * (w / (w.size - 1))).sum(-1)
    redone = np.zeros(kept.shape, dtype=bool)
    redone[redo] = True
    return kept, lengths[kept], redone


def _loop_graph_edges(m, box, resolution, neighbor_radius):
    """The earlier builder, kept as a reference: (rows, cols, weights, redone)
    of the edges from a Python loop over every offset in [-R, R]^n, one jet at
    the box centre per offset on a position-independent metric,
    :func:`_offset_edge_lengths` on the offset's shared segments
    (:func:`_offset_segments`) otherwise; ``redone`` marks the kept edges
    whose Simpson sum decides."""
    nodes, strides, h = _grid_layout(box, resolution)
    lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
    rows_all, cols_all, weights_all = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0)]
    redone_all = [np.zeros(0, dtype=bool)]
    for off, src, dst, starts, ends, seg in _offset_segments(nodes, resolution, strides, h, neighbor_radius):
        delta = np.array(off, dtype=float) * h
        if m.position_independent:
            ok, F = m.jet(0.5 * (lo + hi), delta)
            keep = np.full(src.shape, bool(ok))
            lengths = np.full(np.count_nonzero(keep), float(F))
            redone = np.zeros(src.shape, dtype=bool)
        else:
            keep, lengths, redone = _offset_edge_lengths(m, starts, ends, seg, delta)
        rows_all.append(src[keep])
        cols_all.append(dst[keep])
        weights_all.append(lengths)
        redone_all.append(redone[keep])
    return tuple(np.concatenate(a) for a in (rows_all, cols_all, weights_all, redone_all))


def _loop_graph_reference(m, box, resolution, neighbor_radius):
    """:func:`_loop_graph_edges` assembled as a CSR matrix."""
    rows, cols, weights, _ = _loop_graph_edges(m, box, resolution, neighbor_radius)
    size = resolution ** np.size(box[0])
    return coo_matrix((weights, (rows, cols)), shape=(size, size)).tocsr()


def _shipped_metric(name):
    return build_metric(parse_config(builtin_config(name))[0]).metric


ASSEMBLY_GRAPHS = {
    # name: (metric, box, resolution, neighbor radius)
    "euclidean": (lambda: me.euclidean_metric(2), UNIT_BOX, 15, 4),
    "matsumoto": (lambda: _shipped_metric("matsumoto"), UNIT_BOX, 15, 4),
    "kropina": (lambda: _shipped_metric("kropina"), UNIT_BOX, 15, 4),
    "halfplane_dy": (lambda: _shipped_metric("halfplane_dy"), UNIT_BOX, 15, 4),
    "lorentz_ex36": (lambda: _shipped_metric("lorentz_cone_ex36"), ([-1.0, 0.0], [1.0, 2.0]), 21, 10),
    "kropina_3d": (
        lambda: cb.named_family("kropina", me.euclidean_metric(3), me.constant_oneform([0.2, 0.1, 0.5]))[0],
        ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
        6,
        3,
    ),
    "halfline_1d": (lambda: me.oneform_metric(me.constant_oneform([1.0]), 1), ([0.0], [1.0]), 9, 4),
}


def _assembly_case(name):
    make, box, resolution, radius = ASSEMBLY_GRAPHS[name]
    return make(), (np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)), resolution, radius


class TestGraphAssembly:
    """The offset-table builder: one jet over the offsets on a
    position-independent metric, and direct CSR assembly."""

    @pytest.mark.parametrize("name", sorted(ASSEMBLY_GRAPHS))
    def test_structure_matches_loop_reference(self, name):
        m, box, resolution, radius = _assembly_case(name)
        assert m.position_independent
        g = gd.build_separation_graph(m, box, resolution, radius)
        ref = _loop_graph_reference(m, box, resolution, radius)
        assert 0 < g.matrix.nnz
        assert np.array_equal(g.matrix.indptr, ref.indptr)
        assert np.array_equal(g.matrix.indices, ref.indices)
        assert np.allclose(g.matrix.data, ref.data, rtol=4 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("name", sorted(ASSEMBLY_GRAPHS))
    def test_weights_are_checked_values(self, name):
        m, box, resolution, radius = _assembly_case(name)
        g = gd.build_separation_graph(m, box, resolution, radius)
        coo = g.matrix.tocoo()
        h = (box[1] - box[0]) / (resolution - 1)
        offsets = np.rint((g.nodes[coo.col] - g.nodes[coo.row]) / h)
        expected = me.eval_F_many(m, 0.5 * (box[0] + box[1]), offsets * h)
        assert np.array_equal(coo.data, expected)

    @pytest.mark.parametrize("name", ["lorentz_ex36", "kropina_3d"])
    def test_one_top_level_jet(self, name, top_level_jets):
        m, box, resolution, radius = _assembly_case(name)
        top_level_jets.clear()  # building a family probes its domain
        gd.build_separation_graph(m, box, resolution, radius)
        assert len(top_level_jets) == 1

    @pytest.mark.parametrize(
        "name",
        ["randers_posdep", *POSDEP_TREES, "kropina_posdep", "oneform_metric", "closing_halfplane", "period_037"],
    )
    def test_position_dependent_matches_loop_reference(self, name, randers_posdep, top_level_jets):
        """The blocks of offsets give the per-offset loop's graph bit for bit, an
        edge and its reverse on the same segment points; at res 13 / R 3 (3036
        in-grid segments) block cuts fall inside the half table of 24 offsets."""
        trees = dict(POSDEP_TREES, kropina_posdep=POSDEP_CONES["kropina"], period_037=PERIOD_037)
        m = randers_posdep if name == "randers_posdep" else _tree_metric(trees.get(name) or POSDEP_CONES[name])
        top_level_jets.clear()
        g = gd.build_separation_graph(m, UNIT_BOX, 13, 3)
        blocks = sum(b.shape[-2] == 9 for b in top_level_jets)
        assert 1 < blocks < 24
        ref = _loop_graph_reference(m, UNIT_BOX, 13, 3)
        assert 0 < g.matrix.nnz
        assert np.array_equal(g.matrix.indptr, ref.indptr)
        assert np.array_equal(g.matrix.indices, ref.indices)
        assert np.array_equal(g.matrix.data, ref.data)

    @pytest.mark.parametrize("name", ["euclidean", "lorentz_ex36", "kropina_3d", "halfline_1d"])
    def test_radius_beyond_the_grid_is_clipped(self, name, top_level_jets):
        m, box, resolution, _ = _assembly_case(name)
        resolution = min(resolution, 6)
        top_level_jets.clear()
        far = gd.build_separation_graph(m, box, resolution, 10 * resolution)
        # one jet over the offsets that fit on the grid
        assert [b.shape[0] for b in top_level_jets] == [(2 * resolution - 1) ** box[0].size - 1]
        full = gd.build_separation_graph(m, box, resolution, resolution - 1)
        assert far.neighbor_radius == 10 * resolution
        assert np.array_equal(far.matrix.indptr, full.matrix.indptr)
        assert np.array_equal(far.matrix.indices, full.matrix.indices)
        assert np.array_equal(far.matrix.data, full.matrix.data)

    def test_clipped_radius_on_position_dependent_metric(self, randers_posdep):
        far = gd.build_separation_graph(randers_posdep, UNIT_BOX, 5, 50)
        full = gd.build_separation_graph(randers_posdep, UNIT_BOX, 5, 4)
        assert far.matrix.nnz == 25 * 24
        assert (far.matrix != full.matrix).nnz == 0

    @pytest.mark.parametrize("radius", [0, -1])
    def test_no_neighbours_is_an_error(self, radius, randers_posdep):
        # a graph without edges would answer every separation with inf
        graphs = [_assembly_case(name) for name in ("euclidean", "kropina_3d", "halfline_1d")]
        graphs.append((randers_posdep, UNIT_BOX, 9, None))
        for m, box, resolution, _ in graphs:
            with pytest.raises(InvalidArgument) as err:
                gd.build_separation_graph(m, box, resolution, radius)
            assert (err.value.path, err.value.constraint) == ("neighbor_radius", "minimum")

    def test_edge_weight_does_not_depend_on_its_batch(self, top_level_jets):
        m = _tree_metric(PERIOD_037)
        axis = np.linspace(-1.0, 1.0, 21)
        grid = np.stack([mm.ravel() for mm in np.meshgrid(axis, axis, indexing="ij")], axis=-1)
        rng = np.random.default_rng(7)
        # every grid node with each of three deltas, the deltas interleaved along the batch
        starts = np.repeat(grid, 3, axis=0)
        delta = np.tile([[0.1, 0.0], [0.2, 0.3], [0.3, -0.1]], (grid.shape[0], 1))
        ends = starts + delta
        kept, lengths = gd._edge_lengths(m, starts, ends, delta)
        subsets = [np.arange(k) for k in range(1, 60)] + [np.array([i]) for i in range(0, starts.shape[0], 5)]
        subsets.append(np.sort(rng.choice(starts.shape[0], 37, replace=False)))
        subsets += [np.arange(j, starts.shape[0], 3) for j in range(3)]  # one delta per batch, as an offset is
        for sub in subsets:
            kept_sub, lengths_sub = gd._edge_lengths(m, starts[sub], ends[sub], delta[sub])
            assert np.array_equal(kept_sub, kept[:, sub])
            assert np.array_equal(lengths_sub, lengths[:, sub], equal_nan=True)
        # the batches include edges the 3-point Gauss estimate flags
        assert any(b.shape[-2] == gd.EDGE_QUAD_NODES for b in top_level_jets)


class TestSeparation:
    def test_euclidean_value(self, euclid):
        g = gd.build_separation_graph(euclid, (np.zeros(2), np.array([3.0, 4.0])), 41, 3)
        r = gd.separation(g, np.zeros(2), np.array([3.0, 4.0]))
        assert abs(r.value - 5.0) / 5.0 < 0.02
        assert r.witness_path.shape[0] >= 2
        assert np.allclose(r.witness_path[0], [0, 0])
        assert np.allclose(r.witness_path[-1], [3, 4])

    def test_lorentz_refinement_decreases(self, lorentz_metric):
        box = (np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        vals = []
        for res, rad in ((21, 10), (41, 20)):
            g = gd.build_separation_graph(lorentz_metric, box, res, rad)
            vals.append(gd.separation(g, np.zeros(2), np.array([0.0, 2.0])).value)
        assert vals[1] < vals[0]

    def test_unreachable_is_infinite(self, lorentz_metric):
        g = gd.build_separation_graph(
            lorentz_metric, (np.array([-1.0, 0.0]), np.array([3.0, 2.0])), 21, 2
        )
        r = gd.separation(g, np.zeros(2), np.array([3.0, 1.0]))
        assert np.isinf(r.value)
        assert r.witness_path.shape[0] == 0

    def test_triangle_inequality_on_graph(self, lorentz_metric):
        g = gd.build_separation_graph(
            lorentz_metric, (np.array([-1.0, 0.0]), np.array([1.0, 2.0])), 15, 4
        )
        from scipy.sparse.csgraph import dijkstra

        picks = [g.node_id(g.nodes[i]) for i in (7 * 15 + 0, 7 * 15 + 7, 4 * 15 + 8, 10 * 15 + 5)]
        dist = dijkstra(g.matrix, directed=True, indices=picks)
        idx = {node: k for k, node in enumerate(picks)}
        for a in picks:
            for b in picks:
                for z in picks:
                    dab = dist[idx[a], b]
                    dz = dist[idx[a], z] + dist[idx[z], b]
                    assert dab <= dz + 1e-12

    def test_neighbor_radius_monotone(self, euclid):
        box = (np.zeros(2), np.array([3.0, 4.0]))
        vals = []
        for rad in (1, 2, 3):
            g = gd.build_separation_graph(euclid, box, 21, rad)
            vals.append(gd.separation(g, np.zeros(2), np.array([3.0, 4.0])).value)
        assert vals[0] >= vals[1] >= vals[2]

    def test_loop_separation_to_self(self, euclid, lorentz_metric):
        g = gd.build_separation_graph(euclid, (np.zeros(2), np.ones(2)), 11, 2)
        r = gd.separation(g, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert 0 < r.value < 1.0  # shortest out-and-back loop
        assert r.witness_path.shape[0] >= 3
        assert np.allclose(r.witness_path[0], r.witness_path[-1])
        gl = gd.build_separation_graph(
            lorentz_metric, (np.array([-1.0, 0.0]), np.array([1.0, 2.0])), 11, 2
        )
        rl = gd.separation(gl, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert np.isinf(rl.value)  # no admissible loop returns to the start
        assert rl.witness_path.shape[0] == 0

    def test_infinite_iff_empty_witness(self, euclid, lorentz_metric):
        gl = gd.build_separation_graph(
            lorentz_metric, (np.array([-1.0, 0.0]), np.array([3.0, 2.0])), 11, 2
        )
        rng = np.random.default_rng(9)
        for _ in range(30):
            i, j = rng.integers(0, gl.node_count, size=2)
            r = gd.separation(gl, int(i), int(j))
            assert np.isinf(r.value) == (r.witness_path.shape[0] == 0)


class TestReachability:
    def test_euclidean_all_nodes(self, euclid):
        g = gd.build_separation_graph(euclid, (np.zeros(2), np.ones(2)), 9, 2)
        idx = gd.reachability(g, np.array([0.0, 0.0]))
        assert idx.size == g.node_count

    def test_lorentz_cone(self, lorentz_metric):
        g = gd.build_separation_graph(
            lorentz_metric, (np.array([-1.0, 0.0]), np.array([1.0, 2.0])), 21, 2
        )
        idx = gd.reachability(g, np.zeros(2))
        pts = g.nodes[idx]
        h = 0.1
        assert np.all(np.abs(pts[:, 0]) < pts[:, 1] + h + 1e-12)
        # and a healthy fraction of the cone is found
        assert idx.size > 100

    def test_dy_future_is_upper_half(self, halfplane_dy):
        g = gd.build_separation_graph(halfplane_dy, (np.array([-1.0, -1.0]), np.ones(2)), 11, 2)
        idx = gd.reachability(g, np.zeros(2))
        pts = g.nodes[idx]
        assert np.all(pts[:, 1] > 0)

    def test_transitive(self, lorentz_metric):
        # the future of any reachable node is contained in the future
        g = gd.build_separation_graph(
            lorentz_metric, (np.array([-1.0, 0.0]), np.array([1.0, 2.0])), 15, 3
        )
        src = g.node_id(np.array([0.0, 0.0]))
        future = set(gd.reachability(g, src).tolist())
        rng = np.random.default_rng(11)
        for mid in rng.choice(sorted(future), size=min(5, len(future)), replace=False):
            assert set(gd.reachability(g, int(mid)).tolist()) <= future


class TestDfBall:
    def test_euclidean_disk(self, euclid):
        g = gd.build_separation_graph(euclid, (np.array([-1.0, -1.0]), np.ones(2)), 21, 3)
        idx = gd.df_ball(g, np.zeros(2), 0.5, "forward")
        pts = g.nodes[idx]
        assert np.all(np.linalg.norm(pts, axis=1) < 0.5 + 1e-9)
        disk = np.linalg.norm(g.nodes, axis=1) < 0.45
        assert disk.sum() <= idx.size + 1

    def test_wavy_pseudonorm_df_ball_contains_affine_ball(self):
        # indefinite tensor: polygonal shortcuts make the separation ball larger
        gauge = mk.gauge_from_curve(mk.wavy_curve(0.3, 3))
        metric = me.minkowski_metric(gauge)
        # full neighbor radius: every node pair has its direct edge, so the
        # discrete separation is bounded by the affine gauge
        g = gd.build_separation_graph(metric, (np.array([-1.0, -1.0]), np.ones(2)), 21, 20)
        r = 0.75
        ball_idx = set(gd.df_ball(g, np.zeros(2), r, "forward").tolist())
        affine_idx = {
            int(i)
            for i in range(g.node_count)
            if np.linalg.norm(g.nodes[i]) > 0 and float(gauge.value(g.nodes[i])) < r
        }
        assert affine_idx < ball_idx  # strict inclusion

    def test_lorentz_ball_fills_cone_section(self, lorentz_metric):
        g = gd.build_separation_graph(
            lorentz_metric, (np.array([-1.0, 0.0]), np.array([1.0, 2.0])), 41, 20
        )
        idx = gd.df_ball(g, np.zeros(2), 0.8, "forward")
        pts = g.nodes[idx]
        # deep in the cone, well beyond the affine ball of radius 0.8
        assert any(pts[:, 1] > 1.6)

    def test_backward_ball(self, euclid):
        g = gd.build_separation_graph(euclid, (np.array([-1.0, -1.0]), np.ones(2)), 11, 2)
        fwd = gd.df_ball(g, np.zeros(2), 0.5, "forward")
        bwd = gd.df_ball(g, np.zeros(2), 0.5, "backward")
        assert set(fwd.tolist()) == set(bwd.tolist())

    def test_lorentz_small_ball_grows_under_refinement(self, lorentz_metric):
        # the 0.3-ball sweeps out an ever larger share of the cone section as
        # the grid refines (the true separation vanishes inside the cone)
        box = (np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        fractions = []
        for res, rad in ((21, 10), (41, 20)):
            g = gd.build_separation_graph(lorentz_metric, box, res, rad)
            idx = gd.df_ball(g, np.zeros(2), 0.3, "forward")
            cone = np.abs(g.nodes[:, 0]) < g.nodes[:, 1]
            fractions.append(idx.size / max(1, int(cone.sum())))
        assert fractions[1] > fractions[0] > 0


# Reference graph queries: a full Dijkstra on ``graph.matrix`` (or its
# transpose, for backward balls) and a Python loop over the edges into the
# source.  The library's queries must give the same bits, except where
# ``query`` drops ties: there a distance may exceed the reference by the
# rounding bound of ``gd._undominated`` (``tie_excess_bound``).


class _Reference:
    """The full-graph searches of one graph.  The transpose is built once, and
    the latest source's search is kept, so the p -> p and p -> q separations
    and the balls of several radii around one node share one Dijkstra."""

    def __init__(self, graph):
        self.graph = graph
        self.matrix = {"forward": graph.matrix, "backward": graph.matrix.T.tocsr()}
        self._last = {}

    def search(self, direction, ip):
        """(dist, pred) of the full Dijkstra from ip on the forward or reversed graph."""
        if (direction, ip) not in self._last:
            self._last = {(direction, ip): dijkstra(
                self.matrix[direction], directed=True, indices=ip, return_predecessors=True
            )}
        return self._last[direction, ip]

    def into(self, direction, ip):
        """(sources, weights) of the edges into ip of the forward or reversed graph, by source."""
        mat = self.matrix["backward" if direction == "forward" else "forward"]  # row ip: the edges into ip
        lo, hi = mat.indptr[ip], mat.indptr[ip + 1]
        order = np.argsort(mat.indices[lo:hi], kind="stable")
        return mat.indices[lo:hi][order], mat.data[lo:hi][order]


def _ref_separation(ref, p, q, direction="forward"):
    """The separation from p to q, or from q to p along the reversed path when ``direction`` is backward."""
    graph = ref.graph
    ip, iq = gd._as_node(graph, p), gd._as_node(graph, q)
    dist, pred = ref.search(direction, ip)
    empty = np.zeros((0, graph.nodes.shape[1]))
    if ip == iq:
        val = np.inf
        best = -1
        for j, wgt in zip(*ref.into(direction, ip)):
            if dist[j] + wgt < val:
                val, best = dist[j] + wgt, int(j)
        if best < 0:
            return gd.SeparationResult(value=np.inf, witness_path=empty)
        loop = [best]
        while loop[-1] != ip:
            loop.append(int(pred[loop[-1]]))
        loop.reverse()
        loop.append(ip)
        return gd.SeparationResult(value=float(val), witness_path=graph.nodes[np.array(loop)])
    val = float(dist[iq])
    if not np.isfinite(val):
        return gd.SeparationResult(value=np.inf, witness_path=empty)
    path = [iq]
    while path[-1] != ip:
        path.append(int(pred[path[-1]]))
    path.reverse()
    return gd.SeparationResult(value=val, witness_path=graph.nodes[np.array(path)])


def _ref_reachability(ref, p):
    ip = gd._as_node(ref.graph, p)
    dist = ref.search("forward", ip)[0]
    mask = np.isfinite(dist)
    mask[ip] = any(np.isfinite(dist[j]) for j in ref.into("forward", ip)[0])
    return np.flatnonzero(mask)


def _ref_df_ball(ref, p, r, direction="forward"):
    ip = gd._as_node(ref.graph, p)
    dist = ref.search(direction, ip)[0]
    mask = dist < r
    own = np.inf
    for j, wgt in zip(*ref.into(direction, ip)):
        own = min(own, dist[j] + wgt)
    mask[ip] = own < r
    return np.flatnonzero(mask)


def _same_separation(a, b):
    assert np.array_equal(np.float64(a.value), np.float64(b.value))
    assert a.witness_path.shape == b.witness_path.shape
    assert a.witness_path.tobytes() == b.witness_path.tobytes()


def _same_indices(a, b):
    assert a.dtype == b.dtype and np.array_equal(a, b)


def _drops_ties(graph):
    """Whether ``graph.query`` lacks table offsets that are k >= 2 copies of another."""
    return graph.offsets is not None and bool(np.any(~graph._query_keep & (gd._tie_roots(graph.offsets)[0] > 1)))


def _query_cost(graph, path):
    """The ``query`` weights along ``path`` (flat node indices) summed in path
    order from 0.0; KeyError at a step that is no ``query`` edge."""
    keep = graph._query_keep
    weight = dict(zip(map(tuple, graph.offsets[keep].tolist()), graph.weights[keep].tolist()))
    total = 0.0
    for step in np.diff(np.array(np.unravel_index(path, graph.shape)).T, axis=0).tolist():
        total += weight[tuple(step)]
    return total


def _matches_separation(graph, got, want):
    """``got`` is ``want``, the reference, bit for bit, unless ``query`` drops
    ties.  Then it joins the same nodes along ``query`` edges whose weights
    sum to its value in path order, and its value lies in [d, d (1 + the
    tie excess bound of the reference path)], d the reference value."""
    if not _drops_ties(graph) or not np.isfinite(want.value):
        _same_separation(got, want)
        return
    path = [graph.node_id(x) for x in got.witness_path]
    assert path[0] == graph.node_id(want.witness_path[0]) and path[-1] == graph.node_id(want.witness_path[-1])
    assert _query_cost(graph, path) == got.value
    bound = tie_excess_bound(graph, [graph.node_id(x) for x in want.witness_path])
    assert want.value <= got.value <= want.value * (1.0 + bound)


def _matches_ball(graph, ref, p, r, direction, got):
    """``got`` is the reference ball bit for bit, unless ``query`` drops ties.
    Then it is the reference ball less nodes whose reference separation d
    from p lies in the shell r / (1 + the tie excess bound) <= d < r."""
    want = _ref_df_ball(ref, p, r, direction)
    if not _drops_ties(graph):
        _same_indices(got, want)
        return
    assert got.dtype == want.dtype and np.all(np.isin(got, want))
    for x in np.setdiff1d(want, got).tolist():
        near = _ref_separation(ref, p, x, direction)
        assert r <= near.value * (1.0 + tie_excess_bound(graph, [graph.node_id(y) for y in near.witness_path]))


def _path_bound_admits(graph, p, q):
    """A finite :func:`gd._path_bound` is at least scipy's Dijkstra distance
    on ``query``."""
    bound = gd._path_bound(graph, p, q)
    if not np.isfinite(bound):
        return False
    value = dijkstra(graph.query, directed=True, indices=p, limit=bound)[q]  # a node at the limit is kept
    assert bound >= value
    return True


MATSUMOTO_TREE = {"type": "named", "family": "matsumoto", "q": 1.0, "b": 0.5}
# Kropina's profile 1/s on s > 0 alone: its domain is the half-plane beta > 0
KROPINA_ONE_SIDED = {"phi": "1/s", "phi_dot": "-1/s**2", "phi_ddot": "2/s**3", "interval": [0.0, 1e300]}


def _hand_graph():
    """Five nodes on a line.  Edges: 0->1 (explicit 0), 0->2 (0.25),
    1->0 (0.5), 2->0 (0.25), 1->2 (1), 3->0 (0.2); node 3 has no incoming
    edge and node 4 none at all.  The two loops back to 0 tie at 0.5."""
    rows, cols = [0, 0, 1, 2, 1, 3], [1, 2, 0, 0, 2, 0]
    data = [0.0, 0.25, 0.5, 0.25, 1.0, 0.2]
    mat = csr_matrix((np.array(data), (np.array(rows), np.array(cols))), shape=(5, 5))
    return gd.SeparationGraph(
        box_lo=np.zeros(1),
        box_hi=np.array([4.0]),
        resolution=5,
        neighbor_radius=1,
        shape=(5,),
        nodes=np.arange(5.0).reshape(5, 1),
        edge_count=6,
        stored_matrix=mat,
    )


class TestGraphQueriesMatchReference:
    """The queries return bit for bit what the reference queries return, or,
    on the three graphs whose ``query`` drops ties, what the tie contract
    allows: reachability stays bit for bit there."""

    @pytest.fixture(
        scope="class",
        params=[
            ("lorentz_example", {}, ((-1.0, 0.0), (1.0, 2.0)), 21, 4),
            ("lorentz_example", {}, ((-1.0, 0.0), (3.0, 2.0)), 21, 2),
            ("named", {"family": "matsumoto", "q": 1.0, "b": 0.5}, ((-1.0, -1.0), (1.0, 1.0)), 15, 3),
            ("named", {"family": "kropina", "q": 1.0, "b": 0.5}, ((-1.0, -1.0), (1.0, 1.0)), 15, 3),
            # large enough that the dominance-reduced adjacencies replace the full one
            ("lorentz_example", {}, ((-1.0, 0.0), (1.0, 2.0)), 41, 20),
            ("oneform_metric", {"coeffs": [1.0]}, ((0.0,), (1.0,)), 300, 299),
            ("named", {"family": "kropina", "form": {"coeffs": [0.2, 0.1, 0.5]}}, ((0.0,) * 3, (1.0,) * 3), 8, 7),
            ("phi", {"form": {"coeffs": [0.5, 0.0]}, "profile": KROPINA_ONE_SIDED}, ((-1.0, -1.0), (1.0, 1.0)), 15, 3),
        ],
        ids=[
            "lorentz_ex36",
            "lorentz_ex36_wide",
            "matsumoto",
            "kropina",
            "lorentz_ex36_res41",
            "halfline_1d",
            "kropina_3d",
            "kropina_one_sided",
        ],
    )
    def graph(self, request):
        kind, extra, box, res, rad = request.param
        metric = build_metric(parse_config(json.dumps({"metric": {"type": kind, **extra}}))[0]).metric
        return gd.build_separation_graph(metric, tuple(np.array(c) for c in box), res, rad)

    @pytest.fixture(scope="class")
    def ref(self, graph):
        return _Reference(graph)

    def test_ties_are_dropped_on_the_large_graphs(self, graph, request):
        large = ("lorentz_ex36_res41", "halfline_1d", "kropina_3d")
        assert _drops_ties(graph) == (request.node.callspec.id in large)
        assert _drops_ties(graph) == (graph.edge_count >= gd.REDUCE_MIN_EDGES)

    def test_edge_count_is_the_full_construction(self, graph):
        assert graph.edge_count == graph.matrix.nnz

    def test_separation(self, graph, ref):
        rng = np.random.default_rng(5)
        for p in range(graph.node_count):
            _matches_separation(graph, gd.separation(graph, p, p), _ref_separation(ref, p, p))
            q = int(rng.integers(graph.node_count))
            _matches_separation(graph, gd.separation(graph, p, q), _ref_separation(ref, p, q))

    def test_path_bound_admits_the_separation(self, graph):
        if graph.edge_count < gd.REDUCE_MIN_EDGES:
            return  # no distance cap: such a graph keeps every offset and searches without a bound
        rng = np.random.default_rng(9)
        finite = sum(_path_bound_admits(graph, p, q) for p, q in rng.integers(graph.node_count, size=(300, 2)).tolist())
        assert finite > 0

    def test_reachability(self, graph, ref):
        for p in range(0, graph.node_count, 3):
            _same_indices(gd.reachability(graph, p), _ref_reachability(ref, p))

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_df_ball(self, graph, ref, direction):
        rng = np.random.default_rng(6)
        for p in range(0, graph.node_count, 5):
            for r in (0.0, float(rng.uniform(0.05, 1.5)), np.inf):
                _matches_ball(graph, ref, p, r, direction, gd.df_ball(graph, p, r, direction))

    def test_goal_directed_separation(self, graph, ref, request, monkeypatch):
        """With the size thresholds lifted, exactly the 2-D graphs whose kept
        offsets all lie on the envelope read the displacement tables:
        Matsumoto and the one-sided Kropina.  The two-sided Kropina (phi =
        |s|^-q on both half-lines) and Lorentz fail that rule, the two
        collinear offsets of the wide Lorentz graph bound no sector, and the
        1-D and 3-D tables are not 2-D.  ``separation`` keeps the contract of
        the displacement tables against the reference's value."""
        monkeypatch.setattr(gd, "TABLE_MIN_EDGES", 0)
        monkeypatch.setattr(gd, "TABLE_MIN_OFFSETS", 0)
        fixture = request.node.callspec.id
        assert gd._reads_tables(graph) == (fixture in ("matsumoto", "kropina_one_sided"))
        if len(graph.shape) != 2:
            assert "_chords" not in graph.__dict__
            return
        facets, convex = graph._chords
        assert convex == gd._reads_tables(graph) and facets.any() == (fixture != "lorentz_ex36_wide")
        if not convex:
            return
        rng = np.random.default_rng(7)
        for p, q in rng.integers(graph.node_count, size=(150, 2)).tolist():
            if p == q:
                continue
            want = _ref_separation(ref, p, q)
            assert_sector_separation(graph, p, q, gd.separation(graph, p, q), want.value)


@pytest.fixture(scope="module")
def matsumoto():
    """The Matsumoto b = 0.5 graph at res 81 / R 10: large, convex and 2-D."""
    metric = build_metric(parse_config(json.dumps({"metric": MATSUMOTO_TREE}))[0]).metric
    return gd.build_separation_graph(metric, (np.array([-1.0, -1.0]), np.array([1.0, 1.0])), 81, 10)


class TestGoalDirectedSeparation:
    """Separations read off the displacement tables where the size rules and
    the sector chords choose them, and Dijkstra on every pair they leave open."""

    def test_matsumoto_res81_r10_matches_dijkstra(self, matsumoto):
        # the 256 offsets of 440 that are no multiple of another stay, all on
        # the envelope: 1.48 M query edges of the 2.52 M the graph counts
        assert np.count_nonzero(matsumoto._query_keep) == 256 and gd._reads_tables(matsumoto)
        assert matsumoto.query.nnz == 1475344 >= gd.TABLE_MIN_EDGES and matsumoto.edge_count == 2524720
        # 300 seeded pairs, 10 targets from each of 30 sources, against scipy's Dijkstra on query
        rng = np.random.default_rng(3)
        sources = rng.choice(matsumoto.node_count, size=30, replace=False)
        for p, dist in zip(sources.tolist(), dijkstra(matsumoto.query, directed=True, indices=sources)):
            for q in rng.choice(np.delete(np.arange(matsumoto.node_count), p), size=10, replace=False).tolist():
                assert_sector_separation(matsumoto, p, q, gd.separation(matsumoto, p, q), dist[q])

    def test_sector_paths_answer_without_a_search(self, matsumoto, monkeypatch):
        # every displacement of this table has a sector path, so no pair reaches Dijkstra
        import scipy.sparse.csgraph as csgraph

        def fail(*args, **kwargs):
            raise AssertionError("a separation on the Matsumoto table runs Dijkstra")

        monkeypatch.setattr(csgraph, "dijkstra", fail)
        assert np.all(matsumoto._displacement_tables[2] >= 0)
        rng = np.random.default_rng(17)
        pairs = [tuple(int(k) for k in rng.choice(matsumoto.node_count, size=2, replace=False)) for _ in range(100)]
        for p, q in pairs:
            got = gd.separation(matsumoto, p, q)
            assert got.reachable and got.witness_path[0].tobytes() == matsumoto.nodes[p].tobytes()
            assert got.witness_path[-1].tobytes() == matsumoto.nodes[q].tobytes()

    def test_path_bound_admits_the_separation(self, matsumoto):
        rng = np.random.default_rng(11)
        pairs = rng.integers(matsumoto.node_count, size=(120, 2)).tolist()
        assert sum(_path_bound_admits(matsumoto, p, q) for p, q in pairs) > 60

    def test_size_rules(self, matsumoto, monkeypatch):
        # a ball outside the rules runs Dijkstra without reading the bounds
        def fail(*args):
            raise AssertionError("a ball outside the size rules reads the bounds")

        c, r = 3321, 0.5
        monkeypatch.setattr(gd, "_bounded_ball", fail)
        monkeypatch.setattr(gd, "TABLE_MIN_EDGES", matsumoto.query.nnz + 1)
        assert not gd._reads_tables(matsumoto)
        _same_indices(gd.df_ball(matsumoto, c, r), _dijkstra_ball(matsumoto, c, r, "forward"))
        monkeypatch.setattr(gd, "TABLE_MIN_EDGES", 0)
        monkeypatch.setattr(gd, "TABLE_MIN_OFFSETS", 441)
        assert not gd._reads_tables(matsumoto)
        _same_indices(gd.df_ball(matsumoto, c, r, "backward"), _dijkstra_ball(matsumoto, c, r, "backward"))

    def test_query_edges_are_counted_once_per_graph(self, monkeypatch):
        # the size rules' constants are read on every call, so lowering them
        # after the build switches the path; query's edges are counted once
        metric = build_metric(parse_config(json.dumps({"metric": MATSUMOTO_TREE}))[0]).metric
        graph = gd.build_separation_graph(metric, (np.array([-1.0, -1.0]), np.array([1.0, 1.0])), 9, 3)
        counts, read = [], []
        for name, log in (("_edge_count", counts), ("_sector_path", read)):
            monkeypatch.setattr(gd, name, lambda *a, real=getattr(gd, name), log=log: log.append(a) or real(*a))
        pairs = [(p, q) for p in (0, 20, 40) for q in range(graph.node_count) if q != p]
        want = [gd.separation(graph, p, q).value for p, q in pairs]  # too small for the tables: Dijkstra
        assert not read and not counts
        monkeypatch.setattr(gd, "TABLE_MIN_EDGES", 0)
        monkeypatch.setattr(gd, "TABLE_MIN_OFFSETS", 0)
        for (p, q), d in zip(pairs, want):
            assert_sector_separation(graph, p, q, gd.separation(graph, p, q), d)
        assert len(read) == len(pairs) and len(counts) == 1
        assert graph._query_edges == graph.query.nnz
        monkeypatch.setattr(gd, "TABLE_MIN_EDGES", graph._query_edges + 1)
        assert not gd._reads_tables(graph)
        monkeypatch.setattr(gd, "TABLE_MIN_EDGES", graph._query_edges)
        assert gd._reads_tables(graph) and len(counts) == 1

    def test_target_outside_the_cone_or_past_the_cutoff_is_unreachable(self, monkeypatch):
        monkeypatch.setattr(gd, "TABLE_MIN_EDGES", 0)
        monkeypatch.setattr(gd, "TABLE_MIN_OFFSETS", 0)
        tree = {"type": "phi", "form": {"coeffs": [0.5, 0.0]}, "profile": KROPINA_ONE_SIDED}
        metric = build_metric(parse_config(json.dumps({"metric": tree}))[0]).metric
        graph = gd.build_separation_graph(metric, (np.array([-1.0, -1.0]), np.array([1.0, 1.0])), 9, 2)
        assert gd._reads_tables(graph)
        p, q = graph.node_id([0.0, 0.0]), graph.node_id([-0.5, 0.0], "q")  # beta(q - p) < 0
        lower, upper, _ = graph._displacement_tables
        at = tuple(np.subtract(np.unravel_index(q, graph.shape), np.unravel_index(p, graph.shape)) + graph.resolution - 1)
        assert lower[at] == upper[at] == np.inf
        out = gd.separation(graph, p, q)
        assert out.value == np.inf and not out.reachable and out.witness_path.shape == (0, 2)
        r = graph.node_id([0.5, 0.25], "q")
        d = dijkstra(graph.query, directed=True, indices=p)[r]
        assert np.isfinite(d)
        assert_sector_separation(graph, p, r, gd.separation(graph, p, r), d)

    @pytest.mark.parametrize("name", ["kropina_3d", "axis_sector"])
    def test_dijkstra_answers_what_the_tables_leave_open(self, name, monkeypatch):
        """With the size rules lowered, a pair of distinct nodes that the
        tables leave open gets scipy's Dijkstra distance on ``query`` bit for
        bit, and its witness steps are ``query`` edges whose weights sum to it
        in path order: every pair from 6 sources of the 3-D Kropina table,
        which reads no tables, and every pair of the 4 x 4 graph whose
        displacement has no sector path."""
        monkeypatch.setattr(gd, "TABLE_MIN_EDGES", 0)
        monkeypatch.setattr(gd, "TABLE_MIN_OFFSETS", 0)
        if name == "kropina_3d":
            graph = _config_graph(*TABLE_GRAPHS[name])
            sources = np.random.default_rng(23).choice(graph.node_count, size=6, replace=False).tolist()
            assert not gd._reads_tables(graph)
            left_open = lambda delta: True  # noqa: E731
        else:
            graph, sources = _axis_sector_graph(), range(16)
            assert gd._reads_tables(graph)
            sector = graph._displacement_tables[2]
            left_open = lambda delta: sector[tuple(delta + graph.resolution - 1)] < 0  # noqa: E731
        keep = graph._query_keep
        weight = dict(zip(map(tuple, graph.offsets[keep].tolist()), graph.weights[keep].tolist()))
        lattice = np.array(np.unravel_index(np.arange(graph.node_count), graph.shape)).T
        checked = 0
        for p in sources:
            dist = dijkstra(graph.query, directed=True, indices=p)
            for q in range(graph.node_count):
                if q == p or not left_open(lattice[q] - lattice[p]):
                    continue
                got = gd.separation(graph, p, q)
                assert got.value == dist[q]
                checked += 1
                if not got.reachable:
                    continue
                path = [graph.node_id(x) for x in got.witness_path]
                assert path[0] == p and path[-1] == q
                total = 0.0
                for step in np.diff(lattice[path], axis=0).tolist():
                    total += weight[tuple(step)]  # KeyError at a step that is no query edge
                assert total == got.value
        assert checked == 6 * 511 if name == "kropina_3d" else checked > 0

    def test_position_dependent_and_loops_keep_dijkstra(self, randers_posdep, monkeypatch):
        import scipy.sparse.csgraph as csgraph

        monkeypatch.setattr(gd, "TABLE_MIN_EDGES", 0)
        monkeypatch.setattr(gd, "TABLE_MIN_OFFSETS", 0)
        graph = gd.build_separation_graph(randers_posdep, (np.array([-1.0, -1.0]), np.array([1.0, 1.0])), 7, 2)
        assert not gd._reads_tables(graph) and "_chords" not in graph.__dict__

        def fail(*args):
            raise AssertionError("a loop reads the displacement tables")

        calls = []
        real = csgraph.dijkstra
        monkeypatch.setattr(csgraph, "dijkstra", lambda *a, **k: calls.append(1) or real(*a, **k))
        metric = build_metric(parse_config(json.dumps({"metric": MATSUMOTO_TREE}))[0]).metric
        small = gd.build_separation_graph(metric, (np.array([-1.0, -1.0]), np.array([1.0, 1.0])), 9, 3)
        monkeypatch.setattr(gd, "_sector_path", fail)
        assert gd._reads_tables(small) and np.isfinite(gd.separation(small, 4, 4).value) and calls


def _dijkstra_ball(graph, c, r, direction):
    """scipy's Dijkstra on ``query`` (forward) or ``incoming`` (backward)
    stopped at r, with the centre in the ball when a closing edge, into c
    forward and out of c backward, completes a loop cheaper than r."""
    forward = direction == "forward"
    dist = dijkstra(graph.query if forward else graph.incoming, directed=True, indices=c, limit=max(r, 0.0))
    closing = (graph.incoming if forward else graph.query)[c]  # row c: the neighbours that close a loop
    mask = dist < r
    mask[c] = np.any(dist[closing.indices] + closing.data < r)
    return np.flatnonzero(mask)


def _axis_sector_graph():
    """A 4 x 4 graph of the offsets (-1, -1), (-1, 3) and (1, -2) with
    Euclidean weights, all on the envelope.  (1, -2) and (-1, 3) are angle
    neighbours with det 1, but their y components have opposite signs: a
    path of them leaves the box of its ends, and no step order joins x to
    x + (0, 1)."""
    offsets = np.array([[-1, -1], [-1, 3], [1, -2]])
    mesh = np.meshgrid(np.arange(4.0), np.arange(4.0), indexing="ij")
    return gd.SeparationGraph(
        box_lo=np.zeros(2),
        box_hi=np.full(2, 3.0),
        resolution=4,
        neighbor_radius=3,
        shape=(4, 4),
        nodes=np.stack([m.ravel() for m in mesh], axis=-1),
        edge_count=gd._edge_count(offsets, 4),
        offsets=offsets,
        weights=np.hypot(*offsets.T),
    )


def _bound_views(graph, c, direction):
    """The (lower, upper) displacement bounds at every node of ``graph``:
    at x - c forward and at c - x backward."""
    lower, upper, _ = graph._displacement_tables
    index = np.array(np.unravel_index(np.arange(graph.node_count), graph.shape)).T
    delta = index - np.array(np.unravel_index(c, graph.shape))
    if direction == "backward":
        delta = -delta
    at = tuple((delta + graph.resolution - 1).T)
    return lower[at], upper[at]


class TestBoundedBalls:
    """Balls of large convex 2-D graphs decided from the displacement bounds."""

    # off the lattice's round distances, so that no node lies at the radius
    BALLS = [(3321, 0.517), (0, 1.213), (6560, 0.309), (80, 0.777), (1234, 2.473), (4000, 0.0613)]

    def test_matches_dijkstra(self, matsumoto):
        rng = np.random.default_rng(41)
        balls = self.BALLS + [(int(c), float(r)) for c, r in zip(rng.integers(0, 6561, 14), rng.uniform(0.1, 1.5, 14))]
        for c, r in balls:
            for direction in ("forward", "backward"):
                got = gd.df_ball(matsumoto, c, r, direction)
                _same_indices(got, _dijkstra_ball(matsumoto, c, r, direction))
        assert matsumoto._displacement_tables[0].shape == (161, 161)

    def test_the_bounds_decide_without_dijkstra(self, matsumoto, monkeypatch):
        import scipy.sparse.csgraph as csgraph

        want = {(c, r, d): _dijkstra_ball(matsumoto, c, r, d) for c, r in self.BALLS for d in ("forward", "backward")}

        def fail(*args, **kwargs):
            raise AssertionError("a decided ball runs Dijkstra")

        monkeypatch.setattr(csgraph, "dijkstra", fail)
        for (c, r, direction), ball in want.items():
            _same_indices(gd.df_ball(matsumoto, c, r, direction), ball)

    def test_the_bounds_bracket_dijkstra(self, matsumoto):
        # every node's distance lies in [lower, upper], and the two meet to rounding
        for c in (0, 3321, 6500):
            for direction in ("forward", "backward"):
                lower, upper = _bound_views(matsumoto, c, direction)
                dist = dijkstra(matsumoto.query if direction == "forward" else matsumoto.incoming, indices=c)
                assert np.all(lower <= dist) and np.all(dist <= upper)
                assert np.all(upper <= lower * (1.0 + 1e-11))

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_a_radius_between_the_bounds_falls_back(self, matsumoto, monkeypatch, direction):
        # r = d(c, x) exactly: lower < r <= upper at x, so Dijkstra decides the ball
        import scipy.sparse.csgraph as csgraph

        calls = []
        real = csgraph.dijkstra
        monkeypatch.setattr(csgraph, "dijkstra", lambda *a, **k: calls.append(1) or real(*a, **k))
        adj = matsumoto.query if direction == "forward" else matsumoto.incoming
        for c, x in ((3321, 3500), (100, 6000), (5000, 5001)):
            r = float(dijkstra(adj, directed=True, indices=c)[x])
            lower, upper = _bound_views(matsumoto, c, direction)
            assert lower[x] < r <= upper[x]
            calls.clear()
            got = gd.df_ball(matsumoto, c, r, direction)
            assert calls and x not in got
            _same_indices(got, _dijkstra_ball(matsumoto, c, r, direction))

    def test_radius_edge_cases(self, matsumoto):
        for c in (0, 3321):
            for direction in ("forward", "backward"):
                for r in (0.0, -1.0, -np.inf, np.inf):
                    got = gd.df_ball(matsumoto, c, r, direction)
                    _same_indices(got, _dijkstra_ball(matsumoto, c, r, direction))
                    assert got.size == (matsumoto.node_count if r == np.inf else 0)

    def test_a_sector_across_an_axis_has_no_upper_bound(self, monkeypatch):
        monkeypatch.setattr(gd, "TABLE_MIN_EDGES", 0)
        monkeypatch.setattr(gd, "TABLE_MIN_OFFSETS", 0)
        g = _axis_sector_graph()
        assert gd._reads_tables(g) and g._displacement_tables[1][3, 4] == np.inf
        for c in range(g.node_count):
            for direction in ("forward", "backward"):
                lower, upper = _bound_views(g, c, direction)
                dist = dijkstra(g.query if direction == "forward" else g.incoming, indices=c)
                assert np.all(lower <= dist) and np.all(dist <= upper)
                for r in (1.5, 4.0, 9.0):
                    _same_indices(gd.df_ball(g, c, r, direction), _dijkstra_ball(g, c, r, direction))

    @pytest.mark.parametrize("name", ["lorentz_ex36_res81", "kropina_3d", "halfline_1d"])
    def test_other_graphs_build_no_bounds(self, name, monkeypatch):
        # off the envelope, in 3-D or in 1-D a ball runs Dijkstra, whatever the size rules
        monkeypatch.setattr(gd, "TABLE_MIN_EDGES", 0)
        monkeypatch.setattr(gd, "TABLE_MIN_OFFSETS", 0)
        g = _config_graph(*TABLE_GRAPHS[name])
        for direction in ("forward", "backward"):
            for c in (0, g.node_count // 2):
                _same_indices(gd.df_ball(g, c, 0.5, direction), _dijkstra_ball(g, c, 0.5, direction))
        # the Lorentz table's chords find it off the envelope; the others have no chords
        assert "_displacement_tables" not in g.__dict__ and ("_chords" in g.__dict__) == (name == "lorentz_ex36_res81")


class TestHandMadeGraph:
    def test_explicit_zero_edge_is_stored(self):
        g = _hand_graph()
        assert g.matrix.nnz == g.edge_count == 6 and g.matrix[0, 1] == 0.0

    def test_matches_reference(self):
        g = _hand_graph()
        ref = _Reference(g)
        for p in range(5):
            _same_indices(gd.reachability(g, p), _ref_reachability(ref, p))
            for q in range(5):
                _same_separation(gd.separation(g, p, q), _ref_separation(ref, p, q))
            for r in (0.0, 0.1, 0.3, 0.6, np.inf):
                for direction in ("forward", "backward"):
                    _same_indices(gd.df_ball(g, p, r, direction), _ref_df_ball(ref, p, r, direction))

    def test_values(self):
        g = _hand_graph()
        assert gd.reachability(g, 0).tolist() == [0, 1, 2]
        assert gd.reachability(g, 3).tolist() == [0, 1, 2]  # no edge comes back to 3
        assert gd.reachability(g, 4).tolist() == []
        assert gd.separation(g, 0, 1).value == 0.0  # the zero-weight edge
        loop = gd.separation(g, 0, 0)
        assert loop.value == 0.5
        assert loop.witness_path.ravel().tolist() == [0.0, 1.0, 0.0]  # tie goes to source 1
        assert np.isinf(gd.separation(g, 3, 3).value)
        assert gd.df_ball(g, 0, 0.1).tolist() == [1]
        assert gd.df_ball(g, 0, 0.3, "backward").tolist() == [2, 3]
        assert gd.df_ball(g, 0, 0.6, "backward").tolist() == [0, 1, 2, 3]
        assert gd.df_ball(g, 0, -1.0).tolist() == []


class TestIncomingAdjacency:
    def test_built_once(self):
        g = _hand_graph()
        assert g.incoming is g.incoming
        assert (g.incoming != g.matrix.T).nnz == 0

    def test_separation_between_distinct_nodes_skips_it(self):
        g = _hand_graph()
        gd.separation(g, 0, 2)
        assert "incoming" not in g.__dict__
        # without an offset table a loop scans the column of 0 for its edges
        gd.separation(g, 0, 0)
        assert "incoming" not in g.__dict__
        # with one it reads them off the table
        g = _config_graph({"type": "lorentz_example"}, LORENTZ_BOX, 41, 20)
        gd.separation(g, 20, 1660)
        gd.separation(g, 20, 20)
        assert "incoming" not in g.__dict__

    def test_bad_direction_raises_before_any_transpose(self, monkeypatch):
        g = _hand_graph()
        calls = []
        real = type(g.matrix).transpose

        def counted(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(type(g.matrix), "transpose", counted)
        with pytest.raises(ValueError, match="direction must be"):
            gd.df_ball(g, 0, 0.5, "sideways")
        assert "incoming" not in g.__dict__ and not calls


def _brute_undominated(offsets, weights):
    """The dominance rule of ``gd._undominated`` by a loop over every split
    and over the ties o = g (o / g), g the gcd of o's components."""
    index = {tuple(o): k for k, o in enumerate(offsets.tolist())}
    keep = np.ones(len(index), dtype=bool)
    for k, o in enumerate(offsets.tolist()):
        for u in itertools.product(*[range(min(0, c), max(0, c) + 1) for c in o]):
            v = tuple(c - a for c, a in zip(o, u))
            if u in index and v in index:
                keep[k] &= not weights[index[u]] + weights[index[v]] <= (1 - gd.DOMINANCE_MARGIN) * weights[k]
        g = math.gcd(*o)
        root = tuple(c // g for c in o)
        if g > 1 and root in index:
            keep[k] &= not g * weights[index[root]] <= (1 + gd.DOMINANCE_MARGIN) * weights[k]
    return keep


def _same_csr(a, b):
    return all(getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in ("indptr", "indices", "data"))


def _config_graph(tree, box, resolution, radius):
    metric = build_metric(parse_config(json.dumps({"metric": tree}))[0]).metric
    return gd.build_separation_graph(metric, tuple(np.array(c, dtype=float) for c in box), resolution, radius)


LORENTZ_BOX = ((-1.0, 0.0), (1.0, 2.0))


class TestReducedStencils:
    """The dominance rule, the reduced adjacencies and the distance cap."""

    def test_lorentz_radius_20(self):
        # 19 of the 58 offsets no split dominates are multiples of another
        g = _config_graph({"type": "lorentz_example"}, LORENTZ_BOX, 81, 20)
        zero = np.zeros_like(g.weights)
        assert len(g.offsets) == 400
        assert np.count_nonzero(gd._undominated(g.offsets, g.weights)) == 39
        assert np.count_nonzero(gd._undominated(g.offsets, zero)) == 39
        assert np.array_equal(gd._undominated(g.offsets, g.weights), _brute_undominated(g.offsets, g.weights))
        assert np.array_equal(gd._undominated(g.offsets, zero), _brute_undominated(g.offsets, zero))
        assert g.query.nnz == 196480 < g.edge_count == 2002240 and g.reach.nnz <= g.query.nnz

    @pytest.mark.parametrize("radius", [1, 3, 10])
    def test_euclidean_keeps_the_primitive_offsets(self, radius):
        # F is strictly convex, so no split ties; (2, 0) = 2 (1, 0) and its kind go
        g = _config_graph({"type": "euclidean"}, ((0.0, 0.0), (3.0, 4.0)), 41, radius)
        primitive = np.gcd.reduce(g.offsets, axis=1) == 1
        assert np.array_equal(gd._undominated(g.offsets, g.weights), primitive)
        # query keeps them all when the ties carry fewer than REDUCE_MIN_EDGES edges
        reduced = gd._edge_count(g.offsets[~primitive], 41) >= gd.REDUCE_MIN_EDGES
        assert reduced == (radius == 10)
        assert np.array_equal(g._query_keep, primitive | (not reduced))

    @pytest.mark.parametrize(
        "tree, box",
        [
            ({"type": "oneform_metric", "coeffs": [0.0, 1.0]}, ((-1.0, -1.0), (1.0, 1.0))),  # F = dy
            ({"type": "oneform_metric", "coeffs": [1.0]}, ((0.0,), (1.0,))),  # the half-line
        ],
        ids=["halfplane_dy", "halfline_1d"],
    )
    def test_collinear_ties_go(self, tree, box):
        # F is linear, so every split ties exactly: the margin keeps the
        # splits into two different offsets, and the multiples k o' go
        g = _config_graph(tree, box, 300 if len(box[0]) == 1 else 41, 4)
        primitive = np.gcd.reduce(g.offsets, axis=1) == 1
        assert not np.all(primitive)
        assert np.array_equal(gd._undominated(g.offsets, g.weights), primitive)
        # at zero weight only the offsets that do not split are needed
        kept = g.offsets[gd._undominated(g.offsets, np.zeros_like(g.weights))]
        assert np.all(kept[:, -1] == 1)

    def test_exact_tie_of_two_unit_steps_goes(self):
        offsets = np.array([[1, 0], [2, 0]])
        assert gd._undominated(offsets, np.array([1.0, 2.0])).tolist() == [True, False]
        assert gd._undominated(offsets, np.array([1.0, 2.0 + 1e-9])).tolist() == [True, False]
        assert gd._undominated(offsets, np.array([1.0, 2.0 * (1 - 1e-14)])).tolist() == [True, False]
        # a tie only within the margin: a cheaper (2, 0) stays
        assert gd._undominated(offsets, np.array([1.0, 2.0 - 1e-9])).tolist() == [True, True]
        assert gd._undominated(offsets, np.zeros(2)).tolist() == [True, False]
        # (2, 0) is a tie only with (1, 0) in the table
        assert gd._undominated(offsets[1:], np.array([2.0])).tolist() == [True]

    def test_opposite_signs_never_split(self):
        # (1, 0) = (2, -1) + (-1, 1) is cheap, but its middle node may leave the box
        offsets = np.array([[-1, 1], [1, 0], [2, -1]])
        assert np.all(gd._undominated(offsets, np.array([0.1, 5.0, 0.1])))

    @pytest.mark.parametrize("n, radius", [(1, 9), (2, 4), (3, 2)])
    def test_matches_the_loop_over_every_split(self, n, radius):
        rng = np.random.default_rng(40 + n)
        table = gd._offset_table(n, 10, radius)
        for _ in range(20):
            offsets = table[rng.random(len(table)) < rng.uniform(0.3, 1.0)]
            # small integers make exact ties common; norms make strict inequalities
            weights = rng.choice([rng.integers(0, 4, len(offsets)).astype(float), np.linalg.norm(offsets, axis=1)])
            assert np.array_equal(gd._undominated(offsets, weights), _brute_undominated(offsets, weights))
        assert gd._undominated(table[:0], np.zeros(0)).shape == (0,)

    def test_position_dependent_queries_run_on_matrix(self, randers_posdep):
        g = gd.build_separation_graph(randers_posdep, UNIT_BOX, 9, 3)
        assert g.offsets is None and g.weights is None
        assert g.query is g.matrix and g.reach is g.matrix

    def test_small_graphs_keep_matrix_without_a_dominance_pass(self, monkeypatch):
        g = _config_graph({"type": "lorentz_example"}, LORENTZ_BOX, 21, 10)
        assert g.edge_count < gd.REDUCE_MIN_EDGES
        assert not np.all(gd._undominated(g.offsets, g.weights))
        calls = []
        monkeypatch.setattr(gd, "_undominated", lambda *args: calls.append(args))
        assert _same_csr(g.query, g.matrix) and _same_csr(g.reach, g.matrix) and not calls

    def test_few_dropped_edges_keep_matrix(self, monkeypatch):
        # R = 2: reach drops (0, 2) = (0, 1) + (0, 1), one edge per grid row
        g = _config_graph({"type": "lorentz_example"}, LORENTZ_BOX, 101, 2)
        keep = gd._undominated(g.offsets, np.zeros_like(g.weights))
        dropped = int(np.prod(101 - np.abs(g.offsets[~keep]), axis=1).sum())
        assert g.edge_count >= gd.REDUCE_MIN_EDGES > dropped > 0
        assert _same_csr(g.reach, g.matrix)
        monkeypatch.setattr(gd, "REDUCE_MIN_EDGES", dropped)
        g = _config_graph({"type": "lorentz_example"}, LORENTZ_BOX, 101, 2)
        assert g.reach.nnz == g.matrix.nnz - dropped

    def test_reach_is_built_only_by_reachability(self):
        g = _config_graph({"type": "lorentz_example"}, LORENTZ_BOX, 41, 20)
        gd.separation(g, 20, 1660)
        gd.separation(g, 20, 20)
        gd.df_ball(g, 20, 0.5, "forward")
        assert "query" in g.__dict__ and "incoming" not in g.__dict__ and "reach" not in g.__dict__
        gd.df_ball(g, 20, 0.5, "backward")  # only a backward ball needs the reversed graph whole
        assert "incoming" in g.__dict__ and "reach" not in g.__dict__
        gd.reachability(g, 20)
        assert "reach" in g.__dict__

    def test_reachability_builds_no_transpose(self):
        g = _config_graph({"type": "lorentz_example"}, LORENTZ_BOX, 41, 20)
        gd.reachability(g, 20)
        assert "incoming" not in g.__dict__ and "query" not in g.__dict__

    def test_path_bound_is_the_lattice_path_cost(self):
        # each step is a table offset; one that query drops as k copies of o'
        # costs k steps o', summed in path order
        g = _config_graph({"type": "lorentz_example"}, LORENTZ_BOX, 41, 20)
        rng = np.random.default_rng(8)
        weight = {tuple(o): w for o, w in zip(g.offsets.tolist(), g.weights)}
        kept = {tuple(o) for o in g.offsets[g._query_keep].tolist()}
        finite = split = 0
        for _ in range(60):
            ip, iq = (int(k) for k in rng.integers(0, g.node_count, 2))
            a, b = np.array(np.unravel_index(ip, g.shape)), np.array(np.unravel_index(iq, g.shape))
            s = max(1, -(-int(np.abs(b - a).max()) // 20))
            expected = 0.0
            for k in range(s):
                step = tuple(((k + 1) * (b - a) // s - k * (b - a) // s).tolist())
                if step not in weight:
                    expected = np.inf
                    continue
                copies, root = math.gcd(*step), tuple(c // math.gcd(*step) for c in step)
                if step in kept or root not in weight:
                    copies, root = 1, step
                split += copies > 1
                for _ in range(copies):
                    expected = expected + weight[root]
            bound = gd._path_bound(g, ip, iq)
            assert bound == expected or (np.isinf(bound) and np.isinf(expected))
            assert dijkstra(g.query, indices=ip)[iq] <= bound
            finite += np.isfinite(bound)
        assert 0 < finite < 60 and split > 0

    def test_small_graphs_skip_the_distance_cap(self, monkeypatch):
        calls = []
        bound = gd._path_bound
        monkeypatch.setattr(gd, "_path_bound", lambda *args: calls.append(args) or bound(*args))
        small = _config_graph({"type": "lorentz_example"}, LORENTZ_BOX, 21, 10)
        assert small.matrix.nnz < gd.REDUCE_MIN_EDGES
        gd.separation(small, 10, 430)
        assert not calls
        gd.separation(_config_graph({"type": "lorentz_example"}, LORENTZ_BOX, 41, 20), 20, 1660)
        assert len(calls) == 1

    def test_table_graph_holds_no_full_adjacency(self):
        # a table graph assembles matrix on each read and keeps no copy: after
        # every kind of query it holds only its smaller reduced adjacencies
        g = _config_graph({"type": "lorentz_example"}, LORENTZ_BOX, 41, 20)
        assert g.stored_matrix is None and not any(isinstance(v, csr_matrix) for v in vars(g).values())
        gd.separation(g, 20, 1660)
        gd.separation(g, 20, 20)
        gd.df_ball(g, 20, 0.5, "forward")
        gd.df_ball(g, 20, 0.5, "backward")
        gd.reachability(g, 20)
        held = [v for v in vars(g).values() if isinstance(v, csr_matrix)]
        assert len(held) == 3 and all(v.nnz < g.edge_count for v in held)
        first, second = g.matrix, g.matrix
        assert first is not second and _same_csr(first, second) and first.nnz == g.edge_count
        assert not any(v is first or v is second for v in vars(g).values())

    def test_position_dependent_graphs_store_matrix(self, randers_posdep):
        g = gd.build_separation_graph(randers_posdep, UNIT_BOX, 9, 3)
        assert g.matrix is g.stored_matrix and g.edge_count == g.matrix.nnz > 0

    def test_dijkstra_limit_keeps_a_node_at_exactly_the_limit(self):
        # separations pass the path bound as scipy's limit, which must be inclusive
        g = _hand_graph()
        dist = dijkstra(g.matrix, directed=True, indices=1, limit=0.75)
        assert dist[2] == 0.75

    @given(
        tree=st.one_of(
            st.just({"type": "euclidean"}),
            st.just({"type": "lorentz_example"}),
            st.builds(lambda b: {"type": "named", "family": "randers", "b": b}, st.floats(0.0, 0.9)),
            st.builds(lambda b: {"type": "named", "family": "matsumoto", "b": b}, st.floats(0.0, 0.45)),
            st.builds(lambda b: {"type": "named", "family": "kropina", "b": b}, st.floats(0.1, 0.9)),
        ),
        width=st.floats(0.5, 3.0),
        resolution=st.integers(3, 9),
        radius=st.integers(1, 5),
        picks=st.lists(st.integers(0, 10**6), min_size=4, max_size=4),
        r=st.floats(0.05, 3.0),
    )
    def test_queries_on_reduced_stencils_match_reference(self, tree, width, resolution, radius, picks, r):
        # bit for bit where query keeps every tie; else within the tie contract
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gd, "REDUCE_MIN_EDGES", 0)  # reduce these small graphs too
            g = _config_graph(tree, ((-1.0, 0.0), (width - 1.0, 2.0)), resolution, radius)
            p, q, c, d = (k % g.node_count for k in picks)
            ref = _Reference(g)
            _matches_separation(g, gd.separation(g, p, q), _ref_separation(ref, p, q))
            _matches_separation(g, gd.separation(g, p, p), _ref_separation(ref, p, p))
            _same_indices(gd.reachability(g, c), _ref_reachability(ref, c))
            for direction in ("forward", "backward"):
                _matches_ball(g, ref, d, r, direction, gd.df_ball(g, d, r, direction))


MATSUMOTO = {"type": "named", "family": "matsumoto", "q": 1.0, "b": 0.5}
SQUARE_BOX = ((-1.0, -1.0), (1.0, 1.0))
KROPINA_3D = {"type": "named", "family": "kropina", "form": {"coeffs": [0.2, 0.1, 0.5]}}

# Graphs whose rows into each node are held to the transpose of ``query``.
TABLE_GRAPHS = {
    "lorentz_ex36_res81": ({"type": "lorentz_example"}, LORENTZ_BOX, 81, 20),
    "matsumoto_res81": (MATSUMOTO, SQUARE_BOX, 81, 10),
    "euclidean": ({"type": "euclidean"}, ((0.0, 0.0), (3.0, 4.0)), 41, 3),
    "halfline_1d": ({"type": "oneform_metric", "coeffs": [1.0]}, ((0.0,), (1.0,)), 300, 299),
    "kropina_3d": (KROPINA_3D, ((0.0,) * 3, (1.0,) * 3), 8, 7),
}


@pytest.fixture(scope="module", params=list(TABLE_GRAPHS))
def table_graph(request):
    return _config_graph(*TABLE_GRAPHS[request.param])


def _count_transposes(monkeypatch, cls):
    calls = []
    real = cls.transpose

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, "transpose", counted)
    return calls


class TestEdgesInto:
    """The edges into a node come off the offset table, as the transpose of ``query`` has them."""

    def test_edge_count_is_the_full_construction(self, table_graph):
        assert table_graph.edge_count == table_graph.matrix.nnz

    def test_rows_match_the_transposed_query(self, table_graph):
        g = table_graph
        for adj, reach in ((g.query, False), (g.reach, True)):
            t = adj.T.tocsr()
            for i in range(g.node_count):
                sources, weights = g.edges_into(i, reach)
                lo, hi = t.indptr[i], t.indptr[i + 1]
                assert np.array_equal(sources, t.indices[lo:hi])
                assert weights.tobytes() == t.data[lo:hi].tobytes()

    def test_reversed_adjacency_is_the_transposed_query(self, table_graph):
        t = table_graph.query.T.tocsr()
        inc = table_graph.incoming
        for name in ("indptr", "indices", "data"):
            a, b = getattr(inc, name), getattr(t, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_forward_queries_build_no_transpose(self, monkeypatch):
        g = _config_graph({"type": "lorentz_example"}, LORENTZ_BOX, 41, 20)
        calls = _count_transposes(monkeypatch, type(g.matrix))
        gd.df_ball(g, 20, 0.5, "forward")
        gd.separation(g, 20, 20)
        gd.separation(g, 1660, 1660)
        gd.reachability(g, 20)
        assert not calls and "incoming" not in g.__dict__

    def test_position_dependent_graphs_scan_a_column(self, randers_posdep, monkeypatch):
        g = gd.build_separation_graph(randers_posdep, UNIT_BOX, 9, 3)
        calls = _count_transposes(monkeypatch, type(g.matrix))
        gd.reachability(g, 40)
        gd.df_ball(g, 40, 0.5, "forward")
        gd.separation(g, 40, 40)
        assert not calls and "incoming" not in g.__dict__
        monkeypatch.undo()
        t = g.matrix.T.tocsr()
        for i in range(g.node_count):
            lo, hi = t.indptr[i], t.indptr[i + 1]
            for reach in (False, True):
                sources, weights = g.edges_into(i, reach)
                assert np.array_equal(sources, t.indices[lo:hi])
                assert weights.tobytes() == t.data[lo:hi].tobytes()

    @pytest.mark.parametrize("name", ["lorentz_ex36_res81", "matsumoto_res81"])
    def test_backward_balls_match_dijkstra_on_the_transposed_query(self, name):
        g = _config_graph(*TABLE_GRAPHS[name])
        t = g.query.T.tocsr()
        rng = np.random.default_rng(23)
        for ip in rng.integers(0, g.node_count, 6).tolist():
            dist = dijkstra(t, directed=True, indices=ip)
            for r in (0.0, float(rng.uniform(0.1, 1.0)), np.inf):
                mask = dist < r
                lo, hi = g.query.indptr[ip], g.query.indptr[ip + 1]  # the edges out of ip close a reversed loop
                mask[ip] = np.any(dist[g.query.indices[lo:hi]] + g.query.data[lo:hi] < r)
                _same_indices(gd.df_ball(g, ip, r, "backward"), np.flatnonzero(mask))


class TestNodeId:
    """``SeparationGraph.node_id``, which reads a node off ``nodes``, answers
    as ``grid_node_id``, which lays the grid out again, does: the same index,
    or an error with the same path, constraint and message."""

    @pytest.mark.parametrize(
        "box, resolution",
        [(LORENTZ_BOX, 41), (((0.0, 0.0), (3.0, 4.0)), 7), (((0.0,), (1.0,)), 11), (((0.0,) * 3, (1.0, 2.0, 3.0)), 4)],
    )
    def test_matches_grid_node_id(self, box, resolution):
        box = tuple(np.array(c) for c in box)
        g = gd.build_separation_graph(me.euclidean_metric(box[0].size), box, resolution, 1)
        h = (box[1] - box[0]) / (resolution - 1)
        rng = np.random.default_rng(31)
        points = list(g.nodes)
        points += [g.nodes[i] + h * rng.uniform(-0.6, 0.6, h.size) for i in rng.integers(0, g.node_count, 40)]
        points += [np.full(h.size, np.nan), box[0] - h, box[1] + h, np.full(h.size, np.inf), np.zeros(h.size + 1), 0.0]
        answers = set()
        for point in points:
            try:
                want = gd.grid_node_id(box, resolution, point)
            except InvalidArgument as exc:
                with pytest.raises(InvalidArgument) as got:
                    g.node_id(point)
                assert (got.value.path, got.value.constraint, str(got.value)) == (exc.path, exc.constraint, str(exc))
                answers.add(exc.constraint)
            else:
                assert g.node_id(point) == want
                answers.add("index")
        assert answers == {"index", "grid", "shape"}
