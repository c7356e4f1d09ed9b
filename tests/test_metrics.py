import warnings
from dataclasses import replace

import numpy as np
import pytest

from finslerkit import combinators as cb
from finslerkit import geodesy as gd
from finslerkit import metrics as me
from finslerkit import minkowski as mk
from finslerkit.errors import DomainEmpty, NonFiniteSample, OutsideDomain
from finslerkit.numkernel import Definiteness, eigen_classify

INDEFINITE = tuple(Definiteness).index(Definiteness.INDEFINITE)  # its EigenReport code

from conftest import unit_circle_curve

BASE = np.zeros(2)
BOX_2D = ([-1.0, -1.0], [1.0, 1.0])


@pytest.fixture(scope="module")
def euclid():
    return me.euclidean_metric(2)


@pytest.fixture(scope="module")
def randers(euclid):
    metric, _ = cb.named_family("randers", euclid, me.constant_oneform([0.5, 0.0]))
    return metric


@pytest.fixture(scope="module")
def lorentz_metric():
    return me.minkowski_metric(mk.gauge_from_curve(mk.lorentz_curve()))


class TestEvalF:
    def test_euclidean(self, euclid):
        assert me.eval_F(euclid, me.TangentVec(BASE, [3.0, 4.0])) == pytest.approx(5.0)

    def test_randers(self, randers):
        assert me.eval_F(randers, me.TangentVec(BASE, [1.0, 0.0])) == pytest.approx(1.5)

    def test_matsumoto_orthogonal_direction(self, euclid):
        mt, _ = cb.named_family("matsumoto", euclid, me.constant_oneform([0.5, 0.0]), q=1)
        assert me.eval_F(mt, me.TangentVec(BASE, [0.0, 1.0])) == pytest.approx(1.0)

    def test_outside_domain_raises(self, lorentz_metric):
        with pytest.raises(OutsideDomain):
            me.eval_F(lorentz_metric, me.TangentVec(BASE, [1.0, 0.0]))

    def test_zero_vector_convention(self, euclid, lorentz_metric):
        assert me.eval_F(euclid, me.TangentVec(BASE, [0.0, 0.0])) == 0.0
        with pytest.raises(OutsideDomain):
            me.eval_F(lorentz_metric, me.TangentVec(BASE, [0.0, 0.0]))


class TestEvalFMany:
    def test_matches_pointwise(self, euclid, randers):
        rng = np.random.default_rng(4)
        bases = rng.normal(size=(9, 2))
        vecs = rng.normal(size=(9, 2))
        vecs[3] = 0.0
        for m in (euclid, randers):
            want = [me.eval_F(m, me.TangentVec(b, v)) for b, v in zip(bases, vecs)]
            assert me.eval_F_many(m, bases, vecs).tolist() == want

    @pytest.mark.parametrize("bad", [[1.0, 0.0], [0.0, 0.0]])
    def test_first_rejected_pair_raises_its_pointwise_error(self, lorentz_metric, bad):
        vecs = np.array([[0.1, 1.0], bad, [2.0, 0.0]])
        with pytest.raises(OutsideDomain) as pointwise:
            me.eval_F(lorentz_metric, me.TangentVec(BASE, bad))
        with pytest.raises(OutsideDomain) as batched:
            me.eval_F_many(lorentz_metric, BASE, vecs)
        assert str(batched.value) == str(pointwise.value)

    def test_non_finite_value(self):
        atom = me.RiemannAtom(metric_matrix=lambda x: np.asarray(x)[..., :1, None] * np.eye(2))
        m = me.riemann_metric(atom, 2)
        bases = np.array([[1.0, 0.0], [np.inf, 0.0]])
        with pytest.raises(NonFiniteSample):
            me.eval_F_many(m, bases, [1.0, 0.0])

    def test_zero_vector_test_warns_of_nothing(self, euclid, lorentz_metric):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the squared norm overflows: a vector, not the zero vector
            with pytest.raises(NonFiniteSample):
                me.eval_F_many(euclid, BASE, [[1e200, 1e200]])
            with pytest.raises(OutsideDomain, match="is outside the conic domain"):
                me.tensor(lorentz_metric, me.TangentVec(BASE, [1e200, 1e200]))
            # it underflows to 0: the zero vector
            assert me.eval_F(euclid, me.TangentVec(BASE, [1e-200, 1e-200])) == 0.0
            with pytest.raises(OutsideDomain, match="zero vector"):
                me.eval_F(lorentz_metric, me.TangentVec(BASE, [1e-200, 1e-200]))
            # a NaN vector is neither
            with pytest.raises(OutsideDomain, match="is outside the conic domain"):
                me.eval_F(euclid, me.TangentVec(BASE, [np.nan, 0.0]))


class TestGaugeOnePass:
    def test_one_polar_angle_per_evaluation(self, lorentz_metric, monkeypatch):
        calls = [0]
        angle_of = mk.PolarCurve2D.angle_of

        def counting(self, v):
            calls[0] += 1
            return angle_of(self, v)

        monkeypatch.setattr(mk.PolarCurve2D, "angle_of", counting)
        vecs = np.array([[0.1, 1.0], [0.3, 2.0], [1.0, 0.0], [0.0, 0.0], [np.nan, 1.0]])
        lorentz_metric.F_many(BASE, vecs)
        assert calls[0] == 1
        calls[0] = 0
        lorentz_metric.tensor_many(BASE, vecs)
        assert calls[0] == 2

    @pytest.mark.parametrize("curve", [mk.lorentz_curve(), mk.wavy_curve(), mk.sqrt_parabola_curve()])
    def test_one_radius_call_without_derivatives_per_value_pass(self, curve):
        calls = []

        def counted(theta, with_derivatives):
            calls.append(with_derivatives)
            return curve.jet_fn(theta, with_derivatives)

        gauge = mk.gauge_from_curve(replace(curve, jet_fn=counted))
        metric = me.minkowski_metric(gauge)
        vecs = np.array([[0.1, 1.0], [0.3, 2.0], [1.0, 0.0], [0.0, 0.0], [np.nan, 1.0], [0.0, -1.0]])
        for evaluate in (gauge.value_unchecked, gauge.member, lambda v: metric.F_many(BASE, v)):
            calls.clear()
            evaluate(vecs)
            assert calls == [False]

    @pytest.mark.parametrize("curve", [mk.lorentz_curve(), mk.spiral_curve(0.3), unit_circle_curve(), None])
    def test_member_value_is_member_and_value(self, curve):
        # None: a ball gauge, the unit disc on the cone y > |x|
        if curve is None:
            gauge = mk.gauge_from_ball(2, lambda v: v @ v <= 1.0, lambda v: v[..., 1] > np.abs(v[..., 0]))
        else:
            gauge = mk.gauge_from_curve(curve)
        vecs = np.array([[0.1, 1.0], [1.0, 0.0], [0.0, -2.0], [0.0, 0.0], [np.nan, 1.0]])
        ok, val = gauge.member_value(vecs)
        assert np.array_equal(ok, gauge.member(vecs))
        assert np.array_equal(val, gauge.value_unchecked(vecs), equal_nan=True)
        assert np.all(np.isnan(val[~ok]))

    @pytest.mark.parametrize("kind", ["curve", "ball"])
    def test_a_replaced_value_pass_serves_every_evaluation(self, kind):
        """``value``, ``member_value`` and the lifted metric all go through the
        ``value_unchecked`` field, so replacing it (as a tracer does) sees each call."""
        if kind == "curve":
            gauge = mk.gauge_from_curve(mk.lorentz_curve())
        else:
            gauge = mk.gauge_from_ball(2, lambda v: v @ v <= 1.0, mk.whole_space_domain(2))
        calls = [0]

        def counting(v):
            calls[0] += 1
            return gauge.value_unchecked(v)

        traced = replace(gauge, value_unchecked=counting)
        metric = me.minkowski_metric(traced)
        vecs = np.array([[0.1, 1.0], [-0.3, 2.0]])
        expected = gauge.value_unchecked(vecs)
        for evaluate in (traced.value, lambda v: traced.member_value(v)[1], lambda v: metric.F_many(BASE, v)):
            calls[0] = 0
            assert np.array_equal(evaluate(vecs), expected)
            assert calls[0] == 1


    @pytest.mark.parametrize(
        "curve, vec",
        [(mk.wavy_curve(1.5, 3), [-1.0, 0.0]), (mk.polar_curve(lambda th: np.cos(th)), [-1.0, 0.0])],
    )
    def test_rays_where_r_is_not_positive_are_outside(self, curve, vec):
        """r(theta) <= 0 gives no point of the indicatrix, so its ray is not in the domain."""
        metric = me.minkowski_metric(mk.gauge_from_curve(curve))
        assert not metric.in_domain_many(BASE, vec)
        assert np.isnan(metric.F_many(BASE, vec))
        with pytest.raises(OutsideDomain):
            me.eval_F(metric, me.TangentVec(BASE, vec))
        assert me.eval_F(metric, me.TangentVec(BASE, [1.0, 0.0])) > 0
        assert not metric.zero_in_domain


class TestConstantAtoms:
    @pytest.mark.parametrize("batch", [(), (3,), (2, 4)])
    def test_results_are_not_writeable_aliases(self, batch):
        """A constant atom keeps its own read-only copy: writing into a result,
        or into the array it was built from, leaves its next result unchanged."""
        g, b = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.1])
        riemann, form = me.constant_riemann(g), me.constant_oneform(b)
        want = {riemann.matrix: g.copy(), form.coeffs: b.copy()}
        g[...], b[...] = 0.0, 0.0
        x = np.zeros(batch + (2,))
        for call, value in want.items():
            out = call(x)
            assert np.array_equal(out, np.broadcast_to(value, out.shape)) and out.shape == batch + value.shape
            with pytest.raises(ValueError):
                out[...] = np.nan
            assert np.array_equal(call(x), out)


class TestBatchInvariance:
    """A pair's unchecked value and tensor do not depend on the batch it comes in."""

    def test_one_pair_equals_its_row_of_a_batch(self, euclid):
        metric = cb.power_q_combine([euclid], [me.constant_oneform([0.5, 0.0])], 3.0)
        vecs = np.random.default_rng(0).normal(size=(200, 2))
        F, g = metric.F_many(BASE, vecs), metric.tensor_many(BASE, vecs)
        assert np.array_equal(F, np.array([metric.F_many(BASE, v) for v in vecs]))
        assert np.array_equal(g, np.array([metric.tensor_many(BASE, v) for v in vecs]))
        ok, F_jet = metric.jet(BASE, vecs[0])
        assert ok.shape == F_jet.shape == () and F_jet == F[0]


NEAR_EDGE = np.pi / 4.0 + 1e-5  # a Lorentz direction whose FD probes leave the cone


class TestFiniteDifferenceTensorNearTheConeBoundary:
    """A node without a closed-form tensor gives NaN rows where a probe of its
    finite-difference Hessian leaves the domain; the rest of the batch is unchanged."""

    def test_probe_outside_the_cone_gives_a_nan_row(self, lorentz_metric):
        edge = [np.cos(NEAR_EDGE), np.sin(NEAR_EDGE)]
        g = lorentz_metric.tensor_many(BASE, [edge, [0.0, 1.0]])
        assert np.all(np.isnan(g[0]))
        assert np.array_equal(g[1], lorentz_metric.tensor_many(BASE, [0.0, 1.0]))
        assert np.allclose(g[1], np.diag([-1.0, 1.0]), atol=1e-7)

    def test_checked_tensor_and_fd_oracle_still_raise(self, lorentz_metric):
        edge = np.array([np.cos(NEAR_EDGE), np.sin(NEAR_EDGE)])
        with pytest.raises(NonFiniteSample, match="hit the domain boundary"):
            me.tensor(lorentz_metric, me.TangentVec(BASE, edge))
        with pytest.raises(NonFiniteSample, match="fd_hessian"):
            lorentz_metric.fd_tensor_many(BASE, edge)

    @pytest.mark.parametrize("make", [lambda: mk.gauge_from_curve(mk.lorentz_curve()),
                                      lambda: mk.gauge_from_ball(2, lambda v: v @ v <= 1.0,
                                                                 lambda v: v[..., 1] > np.abs(v[..., 0]))])
    def test_a_pair_gets_its_tensor_in_any_batch(self, make):
        metric = me.minkowski_metric(make())
        theta = np.pi / 4.0 + np.array([1e-5, 3e-4, 0.3, 1.0, 1.5, -1.0])
        vecs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        g = metric.tensor_many(BASE, vecs)
        assert np.array_equal(g, np.array([metric.tensor_many(BASE, v) for v in vecs]), equal_nan=True)
        assert np.all(np.isnan(g[[0, 5]])) and np.all(np.isfinite(g[1:5]))

    def test_scan_drops_the_directions_next_to_the_boundary(self, lorentz_metric):
        # 40000 directions put one within a finite-difference step of each cone edge
        dirs, in_domain, rep = me.convexity_scan(lorentz_metric, BASE, 40000)
        inside = lorentz_metric.in_domain_many(BASE, dirs)
        assert 0 < np.sum(inside & ~in_domain) <= 4 and not np.any(in_domain & ~inside)
        assert np.all(rep.code == INDEFINITE)


def _spy(calls: list, position_independent: bool, closed_form: bool) -> me.ConicMetric:
    """A Riemannian leaf whose jet records the shapes it gets and asserts they are equal;
    without ``closed_form`` it returns no tensor, so its parent takes finite differences."""
    if position_independent:
        inner = me.euclidean_metric(2)
    else:
        atom = me.RiemannAtom(lambda x: (1.0 + 0.1 * np.sin(x[..., :1, None])) * np.eye(2))
        inner = me.riemann_metric(atom, 2)

    def jet_fn(base, vec, with_tensor):
        calls.append((base.shape, vec.shape))
        assert base.shape == vec.shape
        out = inner.jet_fn(base, vec, with_tensor)
        return out if closed_form else out[:2]

    return replace(inner, jet_fn=jet_fn, name="spy")


def _spied_tree(name: str, calls: list, position_independent: bool) -> me.ConicMetric:
    def leaf(closed_form=True):
        return _spy(calls, position_independent, closed_form)

    form = me.constant_oneform([0.2, 0.1])
    if name == "combine":
        return cb.combine(cb.power_combiner(2, 1, 2.0), [leaf(), leaf(closed_form=False)], [form])
    if name == "phi_combine":
        return cb.phi_combine(leaf(), form, cb.randers_profile())
    if name == "f1f2_combine":
        return cb.f1f2_combine(leaf(), leaf(closed_form=False), cb.randers_profile())
    return cb.reversibilize(leaf(), "quadratic")


class TestAlignedStacks:
    """Every node jet gets base and vector stacks of one shape, whatever the caller passes."""

    @pytest.mark.parametrize("name", ["combine", "phi_combine", "f1f2_combine", "reversibilize"])
    def test_node_jets_get_aligned_stacks(self, name):
        calls = []
        m = _spied_tree(name, calls, True)
        base, vs = np.array([0.3, -0.2]), me.unit_directions(2, 12)
        calls.clear()
        m.jet(base, vs)  # one base point with a vector stack
        m.jet(base, vs, with_tensor=True)  # also the FD probes (9, 12, 2) of the leaf without a tensor
        m.fd_tensor_many(base, vs)  # probes (9, 12, 2) against bases (12, 2)
        gd.build_separation_graph(m, BOX_2D, 5, 2)  # the centre against the offset table (24, 2)
        # (3, 1, 2) against (1, 8, 2): the vectors repeat along the bases, so a
        # position-independent value jet gets the 8 distinct ones, and its tensor jet all
        m.jet(vs[:3, None], vs[None, :8])
        m.jet(vs[:3, None], vs[None, :8], with_tensor=True)
        posdep = _spied_tree(name, calls, False)
        gd._accel(posdep, np.stack([base, -base]), vs[:2], 0.0)  # the stencil (5, 2, 2) against (2, 2)
        assert all(b == v for b, v in calls)
        shapes = {b for b, _ in calls}
        assert {(1, 12, 2), (1, 9, 12, 2), (1, 24, 2), (1, 1, 8, 2), (1, 3, 8, 2), (1, 5, 2, 2)} <= shapes, shapes

    def test_atoms_whose_callables_ignore_x_give_batch_shaped_values(self):
        base, vs = np.zeros((5, 2)), me.unit_directions(2, 5)
        atom = me.RiemannAtom(metric_matrix=lambda x: np.diag([2.0, 1.0]))
        form = me.OneFormAtom(covector=lambda x: np.array([1.0, 0.5]))
        assert atom.matrix(base).shape == (5, 2, 2) and form.coeffs(base).shape == (5, 2)
        assert atom.matrix(BASE).shape == (2, 2) and form.coeffs(BASE).shape == (2,)
        riemann = me.riemann_metric(atom, 2)
        assert np.array_equal(riemann.tensor_many(base, vs), np.broadcast_to(np.diag([2.0, 1.0]), (5, 2, 2)))
        b = np.array([1.0, 0.5])
        assert np.array_equal(me.oneform_metric(form, 2).tensor_many(BASE, vs),
                              np.broadcast_to(np.outer(b, b), (5, 2, 2)))
        randers = cb.phi_combine(riemann, form, cb.randers_profile())
        assert randers.tensor_many(base, vs).shape == randers.tensor_many(BASE, vs).shape == (5, 2, 2)


class TestRequiredChart:
    def test_riemann_and_oneform_metrics_take_a_chart(self):
        """The dimension is a required argument; a gauge's metric takes its gauge's."""
        with pytest.raises(TypeError):
            me.riemann_metric(me.constant_riemann(np.eye(3)))
        with pytest.raises(TypeError):
            me.oneform_metric(me.constant_oneform([0.0, 1.0]))
        assert me.riemann_metric(me.constant_riemann(np.eye(3)), 3).dimension == 3
        assert me.oneform_metric(me.constant_oneform([0.0, 1.0]), 2).dimension == 2
        assert me.minkowski_metric(mk.gauge_from_curve(unit_circle_curve())).dimension == 2


class TestTensor:
    def test_euclidean_identity(self, euclid):
        g = me.tensor(euclid, me.TangentVec(BASE, [0.7, -0.3]))
        assert np.allclose(g, np.eye(2))

    def test_randers_frozen_value(self, randers):
        g = me.tensor(randers, me.TangentVec(BASE, [1.0, 0.0]))
        assert np.allclose(g, np.diag([2.25, 1.5]), atol=1e-12)

    def test_kropina_matches_fd(self, euclid):
        kp, _ = cb.named_family("kropina", euclid, me.constant_oneform([0.5, 0.0]), q=1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            if abs(v[0]) < 0.3:
                continue
            ga = me.tensor(kp, me.TangentVec(BASE, v))
            gf = kp.fd_tensor_many(BASE, v)
            assert np.max(np.abs(ga - gf)) <= 1e-6 * max(1.0, np.max(np.abs(gf)))

    def test_scale_invariance(self, randers):
        v = np.array([0.8, 0.4])
        g1 = me.tensor(randers, me.TangentVec(BASE, v))
        for lam in (0.5, 2.0):
            g2 = me.tensor(randers, me.TangentVec(BASE, lam * v))
            assert np.max(np.abs(g1 - g2)) < 1e-6

    def test_f_squared_equals_tensor_quadratic_form(self, randers):
        rng = np.random.default_rng(1)
        for _ in range(30):
            v = rng.normal(size=2)
            f = me.eval_F(randers, me.TangentVec(BASE, v))
            g = me.tensor(randers, me.TangentVec(BASE, v))
            assert float(v @ g @ v) == pytest.approx(f * f, rel=1e-8)


class TestClassifyPoint:
    def test_euclidean_positive_definite(self, euclid):
        rep = me.classify_point(euclid, me.TangentVec(BASE, [1.0, 2.0]))
        assert rep.is_positive_definite

    def test_lorentz_indefinite(self, lorentz_metric):
        rep = me.classify_point(lorentz_metric, me.TangentVec(BASE, [0.0, 1.0]), 1e-6)
        assert rep.code == INDEFINITE

    def test_matsumoto_bad_region_not_pd(self, euclid):
        # b=0.8 makes (F0 - 2 beta) negative along the form direction
        mt, _ = cb.named_family("matsumoto", euclid, me.constant_oneform([0.8, 0.0]), q=1)
        rep = me.classify_point(mt, me.TangentVec(BASE, [1.0, 0.0]), 1e-9)
        assert not rep.is_positive_definite

    def test_rescaling_invariance(self, randers):
        v = np.array([0.3, 0.9])
        r1 = me.classify_point(randers, me.TangentVec(BASE, v))
        r2 = me.classify_point(randers, me.TangentVec(BASE, 7.3 * v))
        assert r1.code == r2.code

    @pytest.mark.parametrize("name", ["euclid", "randers", "lorentz_metric"])
    def test_stacked_vector_matches_per_vector_calls(self, name, request):
        m = request.getfixturevalue(name)
        vs = np.random.default_rng(5).normal(size=(200, 2))
        vs = vs[m.in_domain_many(BASE, vs)][:12].reshape(3, 4, 2)
        rep = me.classify_point(m, me.TangentVec(BASE, vs.reshape(-1, 2)), 1e-6)
        assert rep.code.shape == (12,)
        for i, v in enumerate(vs.reshape(-1, 2)):
            one = me.classify_point(m, me.TangentVec(BASE, v), 1e-6)
            assert np.array_equal(rep.eigenvalues[i], one.eigenvalues)
            assert rep.min_eigenvalue[i] == one.min_eigenvalue
            assert rep.code[i] == one.code
        stacked = me.classify_point(m, me.TangentVec(BASE, vs), 1e-6)
        assert stacked.code.shape == (3, 4) and np.array_equal(stacked.code.reshape(-1), rep.code)


class TestConvexityScan:
    @pytest.mark.parametrize("name", ["euclid", "randers", "lorentz_metric"])
    def test_matches_per_direction_loop(self, name, request):
        m = request.getfixturevalue(name)
        dirs, in_domain, rep = me.convexity_scan(m, BASE, 90, 1e-9)
        want = me.unit_directions(2, 90)
        ok, _, tensors = m.jet(np.broadcast_to(BASE, want.shape), want, with_tensor=True)
        assert np.array_equal(dirs, want) and in_domain.shape == (90,)
        row = 0  # the report's rows are the in-domain directions, in order
        for inside, good, g in zip(in_domain.tolist(), ok, tensors):
            assert inside is bool(good and np.all(np.isfinite(g)))
            if inside:
                one = eigen_classify(g, 1e-9)
                assert np.array_equal(rep.eigenvalues[row], one.eigenvalues)
                assert rep.min_eigenvalue[row] == one.min_eigenvalue
                assert rep.code[row] == one.code
                row += 1
        assert rep.code.shape == (row,)

    def test_non_finite_tensor_is_tagged_outside(self, euclid, monkeypatch):
        jet = me.ConicMetric.jet

        def nan_at_three(self, base, vec, with_tensor=False):
            ok, F, g = jet(self, base, vec, with_tensor)
            g = g.copy()
            g[3, 0, 0] = np.nan
            return ok, F, g

        monkeypatch.setattr(me.ConicMetric, "jet", nan_at_three)
        _, in_domain, rep = me.convexity_scan(euclid, BASE, 8)
        assert in_domain.tolist() == [True] * 3 + [False] + [True] * 4
        assert rep.code.shape == (7,) and np.all(rep.is_positive_definite)

    def test_euclidean_all_pd(self, euclid):
        _, in_domain, rep = me.convexity_scan(euclid, BASE, 64)
        assert np.all(in_domain) and np.all(rep.is_positive_definite)

    def test_matsumoto_boundary(self, euclid):
        mt, _ = cb.named_family("matsumoto", euclid, me.constant_oneform([0.5, 0.0]), q=1)
        dirs, in_domain, rep = me.convexity_scan(mt, BASE, 360, 1e-9)
        pd = in_domain.copy()
        pd[in_domain] = rep.is_positive_definite
        product = (1.0 - 2 * 0.5 * dirs[:, 0]) * (1.0 - 0.5 * dirs[:, 0])
        assert np.all(pd[product > 1e-6])

    def test_kropina_pd_off_kernel(self, euclid):
        kp, _ = cb.named_family("kropina", euclid, me.constant_oneform([0.5, 0.0]), q=1)
        dirs, in_domain, rep = me.convexity_scan(kp, BASE, 360, 1e-9)
        off_kernel = np.abs(0.5 * dirs[in_domain, 0]) > 1e-6
        assert np.all(rep.is_positive_definite[off_kernel])

    def test_deterministic_order(self, euclid):
        d1, _, _ = me.convexity_scan(euclid, BASE, 32)
        d2, _, _ = me.convexity_scan(euclid, BASE, 32)
        assert np.array_equal(d1, d2)

    def test_outside_domain_tagged(self, lorentz_metric):
        _, in_domain, rep = me.convexity_scan(lorentz_metric, BASE, 360)
        assert not np.all(in_domain)
        assert np.all(rep.code == INDEFINITE)


class TestDomainAndHomogeneity:
    def test_domain_is_conic_at_sampled_bases(self, randers, lorentz_metric):
        rng = np.random.default_rng(5)
        for metric in (randers, lorentz_metric):
            for _ in range(20):
                base = rng.normal(size=2)
                v = rng.normal(size=2)
                member = bool(metric.in_domain_many(base, v))
                for lam in (0.5, 2.0, 10.0):
                    assert bool(metric.in_domain_many(base, lam * v)) == member

    def test_value_positively_homogeneous(self, randers):
        rng = np.random.default_rng(6)
        vs = rng.normal(size=(30, 2))
        b = np.zeros((30, 2))
        vals = randers.F_many(b, vs)
        for lam in (0.5, 2.0, 10.0):
            assert np.allclose(randers.F_many(b, lam * vs), lam * vals, rtol=1e-12)

    def test_analytic_tensor_matches_oracle_at_random_bases(self):
        # position-dependent form: the closed form must track the FD Hessian
        # at every base point, not just the origin
        def bcoef(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape)
            out[..., 0] = 0.3 * (1.0 + 0.2 * np.sin(x[..., 0]))
            out[..., 1] = 0.1 * np.cos(x[..., 1])
            return out

        metric, _ = cb.named_family(
            "randers", me.euclidean_metric(2), me.OneFormAtom(covector=bcoef)
        )
        rng = np.random.default_rng(7)
        bases = rng.normal(size=(200, 2))
        vs = rng.normal(size=(200, 2))
        vs /= np.linalg.norm(vs, axis=-1, keepdims=True)
        ga = metric.tensor_many(bases, vs)
        gf = metric.fd_tensor_many(bases, vs)
        scale = np.maximum(1.0, np.max(np.abs(gf), axis=(-2, -1)))
        assert float(np.max(np.max(np.abs(ga - gf), axis=(-2, -1)) / scale)) < 1e-6


class TestUnitDirections:
    @pytest.mark.parametrize("dim,count", [(2, 37), (3, 101), (4, 53)])
    def test_unit_norm(self, dim, count):
        d = me.unit_directions(dim, count)
        assert d.shape == (count, dim)
        assert np.allclose(np.linalg.norm(d, axis=-1), 1.0)

    def test_2d_covers_circle(self):
        d = me.unit_directions(2, 360)
        angles = np.arctan2(d[:, 1], d[:, 0])
        assert np.max(np.diff(np.sort(angles))) < 0.02 + 2 * np.pi / 360

    def test_dimension_limit_raises(self):
        # one Kronecker prime per axis: above MAX_DIMENSION there are too few
        top = me.MAX_DIMENSION
        assert me.unit_directions(top, 5).shape == (5, top)
        with pytest.raises(ValueError, match="at most 12 dimensions"):
            me.kronecker_sequence(5, top + 1)
        with pytest.raises(ValueError):
            me.unit_directions(top + 1, 5)


# Reference samplers: the per-draw generator the CLI's detcheck and gauss used,
# with its cap per sample as a parameter, and the oracle's loop of blocks.


def _per_draw_reference(rng, samples, dim, accept, cap=10**4):
    found = 0
    for _ in range(cap * samples):
        if found == samples:
            return
        v = rng.normal(size=dim)
        if bool(accept(v[None])[0]):
            found += 1
            yield v
    if found < samples:
        raise DomainEmpty(f"{found} of {samples} random vectors admissible after {cap * samples} draws")


def _oracle_loop_reference(rng, samples, dim, accept):
    picked: list[np.ndarray] = []
    attempts = 0
    while len(picked) < samples and attempts < 200:
        attempts += 1
        vs = rng.normal(size=(2 * samples, dim))
        vs /= np.linalg.norm(vs, axis=-1, keepdims=True)
        keep = accept(vs)
        picked.extend(vs[keep][: samples - len(picked)])
    if len(picked) < samples:
        draws = 2 * samples * attempts
        raise DomainEmpty(f"{len(picked)} of {samples} random vectors admissible after {draws} draws")
    return np.array(picked)


def _outcome(draw):
    """The rows a sampler returns, or the message of its DomainEmpty."""
    try:
        return draw()
    except DomainEmpty as exc:
        return str(exc)


# P(first coordinate > q) for a standard normal row: about 100%, 50%, 5% and 1%
RATES = {"all": -3.0, "half": 0.0, "five_percent": 1.645, "sliver": 2.326}


class TestAdmissibleDraws:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("samples", [1, 7, 200])
    @pytest.mark.parametrize("rate", RATES)
    def test_unpaired_picks_the_per_draw_rows(self, rate, samples, dim):
        def accept(b):
            return b[:, 0] > RATES[rate]

        want = np.array(list(_per_draw_reference(np.random.default_rng(samples), samples, dim, accept)))
        got = me.admissible_draws(np.random.default_rng(samples), samples, dim, accept)
        assert got.shape == (samples, dim)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("samples", [1, 7, 200])
    @pytest.mark.parametrize("rate", RATES)
    def test_paired_picks_the_v_then_w_rows(self, rate, samples, dim):
        def accept(b):
            return b[:, 0] > RATES[rate]

        rng, vs, ws = np.random.default_rng(samples + 1), [], []
        for v in _per_draw_reference(rng, samples, dim, accept):
            vs.append(v)
            ws.append(rng.normal(size=dim))
        got_v, got_w = me.admissible_draws(np.random.default_rng(samples + 1), samples, dim, accept, paired=True)
        assert got_v.shape == got_w.shape == (samples, dim)
        assert np.array_equal(got_v, np.array(vs)) and np.array_equal(got_w, np.array(ws))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("samples", [1, 7, 200])
    @pytest.mark.parametrize("cut", [-1.1, 0.0, 0.9, 0.999])
    def test_normalised_picks_equal_the_oracle_loop(self, cut, samples, dim):
        """Either the same rows bit for bit or the same DomainEmpty message."""

        def accept(u):
            return u[:, 0] > cut

        def blocked():
            vs = me.admissible_draws(
                np.random.default_rng(5), samples, dim, lambda b: accept(b / np.linalg.norm(b, axis=-1, keepdims=True))
            )
            return vs / np.linalg.norm(vs, axis=-1, keepdims=True)

        want = _outcome(lambda: _oracle_loop_reference(np.random.default_rng(5), samples, dim, accept))
        got = _outcome(blocked)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("samples", [1, 7, 200])
    def test_empty_domain_raises_after_the_cap(self, samples, paired):
        seen = []

        def never(b):
            seen.append(b.shape[0])
            return np.zeros(b.shape[0], dtype=bool)

        rng = np.random.default_rng(0)
        cap = me.MAX_DRAWS_PER_SAMPLE * samples
        with pytest.raises(DomainEmpty, match=rf"^0 of {samples} random vectors admissible after {cap} draws$"):
            me.admissible_draws(rng, samples, 2, never, paired=paired)
        assert sum(seen) == cap and set(seen) == {2 * samples}
        after = np.random.default_rng(0)
        after.normal(size=(cap, 2))
        assert rng.normal() == after.normal()

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("rate", RATES)
    def test_one_accept_call_per_block(self, rate, paired):
        samples, seen = 7, []

        def accept(b):
            seen.append(b.shape[0])
            return b[:, 0] > RATES[rate]

        rng = np.random.default_rng(11)
        draws = me.admissible_draws(rng, samples, 2, accept, paired=paired)
        last = draws[1][-1] if paired else draws[-1]
        # the stream index of the last row returned fixes how many blocks were tested
        stream = np.random.default_rng(11).normal(size=(me.MAX_DRAWS_PER_SAMPLE * samples, 2))
        end = 1 + int(np.flatnonzero(np.all(stream == last, axis=-1))[0])
        blocks = -(-(end - paired) // (2 * samples))
        assert seen == [2 * samples] * blocks
