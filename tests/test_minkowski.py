import numpy as np
import pytest

from finslerkit import metrics as me
from finslerkit import minkowski as mk
from finslerkit.errors import DegenerateDirection, OutsideCone
from finslerkit.numkernel import eigen_classify

from conftest import unit_circle_curve

SPIRAL_EPS = 0.1


@pytest.fixture(scope="module")
def gauges():
    return {
        "circle": mk.gauge_from_curve(unit_circle_curve()),
        "spiral": mk.gauge_from_curve(mk.spiral_curve(SPIRAL_EPS)),
        "lorentz": mk.gauge_from_curve(mk.lorentz_curve()),
        "sqrt_parabola": mk.gauge_from_curve(mk.sqrt_parabola_curve()),
        "parabola": mk.gauge_from_curve(mk.downward_parabola_curve()),
    }


def _tensor(gauge, v):
    """Checked fundamental tensor of the gauge's metric at v."""
    return me.tensor(me.minkowski_metric(gauge), me.TangentVec(np.zeros(gauge.dimension), v))


def _sample_in_domain(gauge, count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        v = rng.normal(size=gauge.dimension)
        if np.linalg.norm(v) < 1e-6:
            continue
        if bool(gauge.member(v)):
            out.append(v)
    return np.array(out)


class TestGaugeFromCurve:
    def test_circle_is_euclidean(self, gauges):
        assert gauges["circle"].value(np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_spiral_paper_value(self, gauges):
        u = np.array([0.0, 2.0 * np.sin(2 * SPIRAL_EPS)])
        assert gauges["spiral"].value(u) == pytest.approx(4.0 * np.sin(2 * SPIRAL_EPS) / np.pi, abs=1e-10)

    def test_lorentz_unit_vector(self, gauges):
        assert gauges["lorentz"].value(np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)

    def test_lorentz_matches_quadratic_form(self, gauges):
        vs = _sample_in_domain(gauges["lorentz"], 50, seed=3)
        vals = gauges["lorentz"].value(vs)
        expected = np.sqrt(vs[:, 1] ** 2 - vs[:, 0] ** 2)
        assert np.allclose(vals, expected, rtol=1e-10)

    def test_outside_cone_raises(self, gauges):
        with pytest.raises(OutsideCone):
            gauges["lorentz"].value(np.array([1.0, 0.5]))

    def test_value_makes_one_angle_pass(self, monkeypatch):
        calls = []
        real = mk.PolarCurve2D.angle_of

        def counted(self, v):
            calls.append(1)
            return real(self, v)

        monkeypatch.setattr(mk.PolarCurve2D, "angle_of", counted)
        gauge = mk.gauge_from_curve(mk.lorentz_curve())
        vs = np.array([[0.1, 1.0], [-0.3, 2.0]])
        vals = gauge.value(vs)
        assert len(calls) == 1
        assert vals.tobytes() == np.asarray(gauge.value_unchecked(vs)).tobytes()
        calls.clear()
        with pytest.raises(OutsideCone, match="^vector outside the gauge's conic domain$"):
            gauge.value(np.array([[0.1, 1.0], [1.0, 0.5]]))
        assert len(calls) == 1

    def test_parabola_excludes_downward_ray(self, gauges):
        assert not bool(gauges["parabola"].member(np.array([0.0, -1.0])))
        assert bool(gauges["parabola"].member(np.array([0.0, 1.0])))
        assert bool(gauges["parabola"].member(np.array([1.0, -5.0])))


class TestGaugeFromBall:
    def test_outside_cone_raises_before_casting_rays(self):
        probed = []

        def member(v):
            probed.append(1)
            return v[1] ** 2 - v[0] ** 2 <= 1.0

        gauge = mk.gauge_from_ball(2, member, lambda v: v[..., 1] > np.abs(v[..., 0]))
        with pytest.raises(OutsideCone):
            gauge.value(np.array([1.0, 0.5]))
        assert not probed
        assert gauge.value(np.array([0.0, 2.0])) == pytest.approx(2.0, abs=1e-9)
        assert probed

    def test_euclidean_ball_r3(self):
        gauge = mk.gauge_from_ball(
            3, lambda v: np.linalg.norm(v) <= 1.0, mk.whole_space_domain(3)
        )
        assert gauge.value(np.array([1.0, 2.0, 2.0])) == pytest.approx(3.0, abs=1e-9)

    def test_quartic_ball_boundary_point(self):
        gauge = mk.gauge_from_ball(
            2, lambda v: v[0] ** 4 + v[1] ** 4 <= 1.0, mk.whole_space_domain(2)
        )
        assert gauge.value(np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-9)

    def test_parabola_ball_gauge(self):
        # unit ball of the downward-parabola norm: {y <= 1 - x^2} inside its cone
        curve = mk.downward_parabola_curve()
        cone = mk.gauge_from_curve(curve).domain
        gauge = mk.gauge_from_ball(2, lambda v: v[1] <= 1.0 - v[0] ** 2, cone)
        assert gauge.value(np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-9)
        # agrees with the exact polar gauge elsewhere
        exact = mk.gauge_from_curve(curve)
        for v in ([0.5, 0.5], [1.0, -3.0], [-0.2, 2.0]):
            v = np.array(v)
            assert gauge.value(v) == pytest.approx(float(exact.value(v)), rel=1e-9)

    def test_degenerate_direction(self):
        # closed Lorentz ball on the full upper half-plane: null rays never cross S
        gauge = mk.gauge_from_ball(2, lambda v: v[1] ** 2 - v[0] ** 2 <= 1.0, lambda v: v[..., 1] > 0)
        with pytest.raises(DegenerateDirection):
            gauge.value(np.array([1.0, 1.0]))

    def test_degenerate_row_in_a_batch_is_named(self):
        # the closed Lorentz ball holds the null rays (2.5, 2.5) and (-3, 3) whole
        gauge = mk.gauge_from_ball(2, lambda v: v[1] ** 2 - v[0] ** 2 <= 1.0, lambda v: v[..., 1] > 0)
        vs = np.array([[0.0, 1.0], [0.3, 2.0], [2.5, 2.5], [-0.5, 1.5], [-3.0, 3.0], [0.1, 0.7]])
        with pytest.raises(DegenerateDirection, match=r"ray through \[2\.5 2\.5\]"):
            gauge.value(vs)
        with pytest.raises(DegenerateDirection, match=r"ray through \[-3\.  3\.\]"):
            gauge.value(vs[3:])
        assert np.allclose(gauge.value(vs[[0, 1, 3, 5]]), np.sqrt(vs[[0, 1, 3, 5], 1] ** 2 - vs[[0, 1, 3, 5], 0] ** 2))

    def test_rows_outside_the_cone_are_nan_and_cast_no_ray(self):
        probes = []

        def member(v):
            probes.append(v.copy())
            return v[1] ** 2 - v[0] ** 2 <= 1.0

        cone = lambda v: v[..., 1] > np.abs(v[..., 0])
        gauge = mk.gauge_from_ball(2, member, cone)
        vs = np.array([[1.0, 0.5], [0.0, 2.0], [0.0, -1.0], [0.2, 0.5], [3.0, 1.0]])
        out = gauge.value_unchecked(vs)
        assert np.array_equal(np.isnan(out), ~cone(vs))
        assert np.all(cone(np.array(probes)))
        calls = len(probes)
        probes.clear()
        assert gauge.value_unchecked(vs[cone(vs)]).tobytes() == out[cone(vs)].tobytes()
        assert len(probes) == calls

    @pytest.mark.parametrize("dimension, vs", [(2, [[1, 2], [0, 0], [-3, 1]]), (3, np.ones((2, 3, 3)))])
    def test_member_sees_one_float_vector_per_call(self, dimension, vs):
        seen, kept = [], []

        def member(v):
            seen.append((type(v), v.dtype, v.shape))
            kept.append((v, v.copy()))  # a reference the gauge must not write through
            return np.linalg.norm(v) <= 1.0

        out = mk.gauge_from_ball(dimension, member, mk.whole_space_domain(dimension)).value(vs)
        assert out.shape == np.shape(vs)[:-1] and seen
        assert set(seen) == {(np.ndarray, np.dtype(float), (dimension,))}
        assert all(np.array_equal(v, copy) for v, copy in kept)
        assert np.allclose(out, np.linalg.norm(np.asarray(vs, dtype=float), axis=-1), rtol=1e-12)

    def test_unit_consistency(self):
        gauge = mk.gauge_from_ball(
            2, lambda v: v[0] ** 4 + v[1] ** 4 <= 1.0, mk.whole_space_domain(2)
        )
        for v in _sample_in_domain(gauge, 10, seed=5):
            lam = float(gauge.value(v))
            assert float(gauge.value(v / lam)) == pytest.approx(1.0, abs=1e-9)


class TestCurveConvexity:
    def test_circle(self):
        assert mk.curve_convexity(unit_circle_curve(), 0.7) == pytest.approx(1.0)

    def test_lorentz_concave(self):
        assert mk.curve_convexity(mk.lorentz_curve(), np.pi / 2) < 0.0

    def test_spiral_convex(self):
        assert mk.curve_convexity(mk.spiral_curve(SPIRAL_EPS), np.pi) > 0.0

    def test_sqrt_parabola_convex(self):
        for th in np.linspace(0.3, np.pi - 0.3, 15):
            assert mk.curve_convexity(mk.sqrt_parabola_curve(), th) > 0.0


class TestFundamentalTensorNorm:
    def test_euclidean_identity(self, gauges):
        g = _tensor(gauges["circle"], np.array([0.6, -1.1]))
        assert np.allclose(g, np.eye(2), atol=1e-6)

    def test_lorentz_signature(self, gauges):
        g = _tensor(gauges["lorentz"], np.array([0.0, 1.0]))
        assert np.allclose(g, np.diag([-1.0, 1.0]), atol=1e-6)

    def test_sqrt_parabola_positive_definite(self, gauges):
        g = _tensor(gauges["sqrt_parabola"], np.array([0.2, 1.0]))
        assert eigen_classify(g, 1e-6).is_positive_definite

    def test_gv_vv_equals_value_squared(self, gauges):
        for name in ("circle", "spiral", "lorentz", "parabola"):
            gauge = gauges[name]
            for v in _sample_in_domain(gauge, 15, seed=11):
                g = _tensor(gauge, v)
                val = float(gauge.value(v))
                assert float(v @ g @ v) == pytest.approx(val * val, abs=1e-6 * max(1, val * val))

    def test_degree_zero_homogeneity(self, gauges):
        for name in ("circle", "lorentz", "parabola"):
            gauge = gauges[name]
            for v in _sample_in_domain(gauge, 8, seed=13):
                g1 = _tensor(gauge, v)
                for lam in (0.5, 2.0):
                    g2 = _tensor(gauge, lam * v)
                    assert np.max(np.abs(g1 - g2)) < 1e-6 * max(1.0, np.max(np.abs(g1)))


class TestHomogeneityInvariants:
    @pytest.mark.parametrize("name", ["circle", "spiral", "lorentz", "sqrt_parabola", "parabola"])
    def test_positive_homogeneity(self, gauges, name):
        gauge = gauges[name]
        vs = _sample_in_domain(gauge, 25, seed=17)
        vals = np.asarray(gauge.value(vs))
        for lam in (0.5, 2.0, 10.0):
            scaled = np.asarray(gauge.value(lam * vs))
            assert np.allclose(scaled, lam * vals, rtol=1e-10)

    @pytest.mark.parametrize("name", ["circle", "spiral", "lorentz", "sqrt_parabola", "parabola"])
    def test_unit_consistency(self, gauges, name):
        gauge = gauges[name]
        vs = _sample_in_domain(gauge, 25, seed=19)
        vals = np.asarray(gauge.value(vs))
        units = np.asarray(gauge.value(vs / vals[:, None]))
        assert np.allclose(units, 1.0, atol=1e-9)


class TestTriangleReport:
    def test_euclidean_strict(self, gauges):
        verdict = mk.triangle_report(gauges["circle"], [1.0, 0.0], [0.0, 1.0])
        assert verdict is mk.TriangleVerdict.HOLDS_STRICT

    def test_spiral_violation(self):
        eps = 0.02
        gauge = mk.gauge_from_curve(mk.spiral_curve(eps))
        u = np.array([0.0, 2.0 * np.sin(2 * eps)])
        v = np.array([np.cos(2 * eps), -np.sin(2 * eps)])
        assert mk.triangle_report(gauge, u, v) is mk.TriangleVerdict.VIOLATED

    def test_lorentz_reverse_inequality(self, gauges):
        verdict = mk.triangle_report(gauges["lorentz"], [0.0, 1.0], [0.5, 1.0])
        assert verdict is mk.TriangleVerdict.VIOLATED

    def test_not_comparable_when_sum_leaves_cone(self):
        gauge = mk.gauge_from_curve(mk.spiral_curve(1.0))
        v1 = np.array([np.cos(1.2), np.sin(1.2)])
        v2 = np.array([np.cos(-1.2), np.sin(-1.2)])
        # the sum points into the excluded wedge around the positive x-axis
        verdict = mk.triangle_report(gauge, v1, v2)
        assert verdict is mk.TriangleVerdict.NOT_COMPARABLE

    def test_not_comparable_when_segment_leaves_cone(self):
        # endpoints and sum admissible, the chord crosses the excluded wedge,
        # and the triangle inequality happens to hold: nothing is certified
        gauge = mk.gauge_from_curve(mk.spiral_curve(1.0))
        v1 = 10.0 * np.array([np.cos(1.1), np.sin(1.1)])
        v2 = 0.1 * np.array([np.cos(-1.3), np.sin(-1.3)])
        assert bool(gauge.member(v1 + v2))
        verdict = mk.triangle_report(gauge, v1, v2)
        assert verdict is mk.TriangleVerdict.NOT_COMPARABLE

    def test_never_violated_on_convex_strongly_convex_cone(self, gauges):
        # positive-definite tensor on a convex cone: triangle inequality certified
        rng = np.random.default_rng(29)
        for name in ("circle", "sqrt_parabola"):
            gauge = gauges[name]
            count = 0
            while count < 1000:
                v1 = rng.normal(size=2)
                v2 = rng.normal(size=2)
                if not (gauge.member(v1) and gauge.member(v2) and gauge.member(v1 + v2)):
                    continue
                verdict = mk.triangle_report(gauge, v1, v2)
                assert verdict is not mk.TriangleVerdict.VIOLATED
                count += 1


class TestOnePassPerCheck:
    """triangle_report reads its domain tests and values off one stacked evaluation pass."""

    V1, V2 = [0.1, 1.0], [-0.2, 1.5]  # inside the Lorentz cone, as is the segment between them

    @pytest.fixture
    def passes(self, monkeypatch):
        count = [0]
        angle_of = mk.PolarCurve2D.angle_of

        def counting(self, v):
            count[0] += 1
            return angle_of(self, v)

        monkeypatch.setattr(mk.PolarCurve2D, "angle_of", counting)
        return count

    def test_triangle_report(self, gauges, passes):
        assert mk.triangle_report(gauges["lorentz"], self.V1, self.V2) is mk.TriangleVerdict.VIOLATED
        assert passes[0] == 1
        assert mk.triangle_report(gauges["parabola"], self.V1, self.V2) is mk.TriangleVerdict.HOLDS_STRICT
        assert passes[0] == 3  # [v1, v2, v1 + v2], then the segment test

    @pytest.mark.parametrize("check", [mk.triangle_report])
    def test_outside_cone_still_raises(self, gauges, check):
        with pytest.raises(OutsideCone):
            check(gauges["lorentz"], self.V1, [1.0, 0.0])

    @pytest.mark.parametrize("check", [mk.triangle_report])
    def test_ball_gauge_casts_in_cone_rays_first(self, check):
        """A degenerate in-cone ray is reported before another argument's OutsideCone."""
        gauge = mk.gauge_from_ball(2, lambda v: v[1] ** 2 - v[0] ** 2 <= 1.0, lambda v: v[..., 1] > 0)
        with pytest.raises(DegenerateDirection):
            check(gauge, [1.0, 1.0], [0.0, -1.0])
        with pytest.raises(OutsideCone):
            check(gauge, [0.0, 1.0], [0.0, -1.0])


class TestClosedCurveDichotomy:
    # a closed wavy indicatrix is a norm exactly when it stays convex:
    # small amplitude keeps the convexity function positive everywhere,
    # large amplitude creates concave arcs and triangle violations
    def test_small_amplitude_is_norm(self):
        curve = mk.wavy_curve(0.05, 3)
        gauge = mk.gauge_from_curve(curve)
        thetas = np.linspace(0, 2 * np.pi, 73)
        assert np.all(np.asarray(mk.curve_convexity(curve, thetas)) > 0)
        rng = np.random.default_rng(41)
        for _ in range(200):
            v1, v2 = rng.normal(size=(2, 2))
            assert mk.triangle_report(gauge, v1, v2) is not mk.TriangleVerdict.VIOLATED

    def test_large_amplitude_breaks_convexity(self):
        curve = mk.wavy_curve(0.3, 3)
        gauge = mk.gauge_from_curve(curve)
        thetas = np.linspace(0, 2 * np.pi, 73)
        ghat = np.asarray(mk.curve_convexity(curve, thetas))
        assert np.any(ghat < 0) and np.any(ghat > 0)
        rng = np.random.default_rng(43)
        verdicts = {
            mk.triangle_report(gauge, *rng.normal(size=(2, 2))) for _ in range(300)
        }
        assert mk.TriangleVerdict.VIOLATED in verdicts


class TestPolarCurveHelpers:
    @pytest.mark.parametrize(
        "curve",
        [
            mk.spiral_curve(0.1),
            mk.lorentz_curve(),
            mk.sqrt_parabola_curve(),
            mk.downward_parabola_curve(),
            mk.wavy_curve(0.3, 3),
        ],
        ids=["spiral", "lorentz", "sqrt_parabola", "parabola", "wavy"],
    )
    def test_supplied_derivatives_match_fd(self, curve):
        lo, hi = curve.theta_range or (0.0, 2 * np.pi)
        span = hi - lo
        thetas = np.linspace(lo + 0.15 * span, hi - 0.15 * span, 11)
        h = 1e-5
        r, r_dot, r_ddot = curve.jet(thetas)
        fd1 = (curve.value(thetas + h) - curve.value(thetas - h)) / (2 * h)
        fd2 = (curve.value(thetas + h) - 2 * r + curve.value(thetas - h)) / (h * h)
        assert np.allclose(r_dot, fd1, rtol=1e-5, atol=1e-5)
        assert np.allclose(r_ddot, fd2, rtol=1e-3, atol=1e-3)

    def test_fd_derivatives_consistent(self):
        curve = mk.polar_curve(lambda th: 2.0 + np.sin(3 * np.asarray(th)))
        thetas = np.linspace(0.2, 5.8, 12)
        _, r_dot, r_ddot = curve.jet(thetas)
        assert np.allclose(r_dot, 3 * np.cos(3 * thetas), rtol=1e-5, atol=1e-6)
        assert np.allclose(r_ddot, -9 * np.sin(3 * thetas), rtol=1e-4, atol=1e-4)

    def test_domain_cone_property(self):
        curve = mk.spiral_curve(0.1)
        gauge = mk.gauge_from_curve(curve)
        vs = _sample_in_domain(gauge, 20, seed=37)
        for lam in (0.5, 2.0, 10.0):
            assert np.all(gauge.member(lam * vs))
