import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslerkit import combinators as cb
from finslerkit import metrics as me
from finslerkit import minkowski as mk
from finslerkit.errors import InvalidArgument, NoBracket, NonFiniteSample
from finslerkit.numkernel import (
    EPS,
    RAY_DOUBLINGS,
    Definiteness,
    central_jet,
    eigen_classify,
    fd_gradient_rows,
    fd_hessian_batch,
    fd_hessian_rows,
    gauss_kronrod_3_7,
    ray_root,
)


def reference_ray_root(g, bracket_hint=1.0, max_doublings=60):
    """The earlier ray_root, kept as a reference: it re-evaluated the inner
    bracket end after doubling and ended with a secant polish."""
    lam0 = float(bracket_hint)
    if lam0 <= 0:
        lam0 = 1.0
    g0 = float(g(lam0))
    if not np.isfinite(g0):
        raise NonFiniteSample("non-finite value in ray_root at the hint")
    if g0 == 0.0:
        return lam0
    lo = hi = lam0
    glo = ghi = g0
    found = False
    for k in range(1, max_doublings + 1):
        up = lam0 * (2.0**k)
        gu = float(g(up))
        if np.isfinite(gu) and np.sign(gu) != np.sign(g0):
            if up > lam0:
                lo, glo, hi, ghi = lam0 * (2.0 ** (k - 1)), g0, up, gu
                glo = float(g(lo))
            found = True
            break
        down = lam0 / (2.0**k)
        gd = float(g(down))
        if np.isfinite(gd) and np.sign(gd) != np.sign(g0):
            lo, glo, hi, ghi = down, gd, lam0 / (2.0 ** (k - 1)), g0
            ghi = float(g(hi))
            found = True
            break
    if not found:
        raise NoBracket(f"no sign change within {max_doublings} doublings of {lam0}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-14 * max(1.0, mid):
            break
        gm = float(g(mid))
        if gm == 0.0:
            return mid
        if np.sign(gm) == np.sign(glo):
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm
    lam = 0.5 * (lo + hi)
    a, b_, fa, fb = lo, hi, glo, ghi
    for _ in range(8):
        if fb == fa:
            break
        c = b_ - fb * (b_ - a) / (fb - fa)
        if not np.isfinite(c) or c <= 0:
            break
        fc = float(g(c))
        a, fa, b_, fb = b_, fb, c, fc
        if abs(fc) <= 1e-13 * max(1.0, abs(c)):
            return c
    gl = float(g(lam))
    if abs(fb) < abs(gl):
        return b_
    return lam


def sign_test_ray_root(g, bracket_hint=1.0):
    """ray_root as it was before its sign tests became float comparisons:
    np.sign and np.isfinite on each probe."""
    lam0 = float(bracket_hint)
    if lam0 <= 0:
        lam0 = 1.0
    g0 = float(g(lam0))
    if not np.isfinite(g0):
        raise NonFiniteSample("non-finite value in ray_root at the hint")
    if g0 == 0.0:
        return lam0
    sign0 = np.sign(g0)
    for k in range(1, RAY_DOUBLINGS + 1):
        up = lam0 * (2.0**k)
        gu = float(g(up))
        if np.isfinite(gu) and np.sign(gu) != sign0:
            lo, hi, sign_lo = lam0 * (2.0 ** (k - 1)), up, sign0
            break
        down = lam0 / (2.0**k)
        gd = float(g(down))
        if np.isfinite(gd) and np.sign(gd) != sign0:
            lo, hi, sign_lo = down, lam0 / (2.0 ** (k - 1)), np.sign(gd)
            break
    else:
        raise NoBracket(f"no sign change within {RAY_DOUBLINGS} doublings of {lam0}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-14 * max(1.0, mid):
            return mid
        gm = float(g(mid))
        if gm == 0.0:
            return mid
        if np.sign(gm) == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def one_row(g, bracket_hint=1.0):
    """The row-batched ray_root on one row of the scalar function ``g``."""
    return float(ray_root(lambda rows, lam: np.array([float(g(float(lam[0])))]), np.array([bracket_hint]))[0])


def per_row_gauge(member, cone, vs, root):
    """A ball gauge cast one vector at a time through the scalar root finder
    ``root``, the way each ray is defined: 0 at the zero vector, NaN outside
    the cone, else the crossing of the indicator from the hint |v|."""
    out = []
    for v in vs:
        hint = float(np.linalg.norm(v))
        if not cone(v[None])[0]:
            out.append(np.nan)
        elif hint == 0.0:
            out.append(0.0)
        else:
            out.append(root(lambda lam: 1.0 if member(v / lam) else -1.0, hint))
    return np.array(out)


def reference_polar_derivatives(r):
    """The central differences polar_curve wrote out for itself before it
    used the shared central-difference jet."""
    h1, h2 = EPS ** (1.0 / 3.0), EPS**0.25

    def r_dot(theta):
        theta = np.asarray(theta, dtype=float)
        return (np.asarray(r(theta + h1)) - np.asarray(r(theta - h1))) / (2.0 * h1)

    def r_ddot(theta):
        theta = np.asarray(theta, dtype=float)
        return (np.asarray(r(theta + h2)) - 2.0 * np.asarray(r(theta)) + np.asarray(r(theta - h2))) / (h2 * h2)

    return r_dot, r_ddot


class TestFdGradient:
    def test_square_1d(self):
        g = fd_gradient_rows(lambda x: x[..., 0] ** 2, np.array([3.0]))
        assert abs(g[0] - 6.0) < 1e-7

    def test_half_norm_square_is_identity_map(self):
        g = fd_gradient_rows(lambda x: 0.5 * np.sum(x**2, axis=-1), np.array([3.0, 4.0]))
        assert np.allclose(g, [3.0, 4.0], atol=1e-7)

    def test_non_finite_probe_detected(self):
        g = fd_gradient_rows(lambda x: np.sqrt(x[..., 0]), np.array([1e-10]))
        assert np.all(np.isnan(g))

    def test_randers_half_square_gradient_matches_tensor_row(self):
        # grad of F^2/2 at v equals g_v v for the closed-form Randers tensor
        E = me.euclidean_metric(2)
        rd, _ = cb.named_family("randers", E, me.constant_oneform([0.5, 0.0]))
        base = np.zeros(2)
        v = np.array([1.0, 0.0])
        g = fd_gradient_rows(lambda u: 0.5 * rd.F_many(base, u) ** 2, v)
        gv = me.tensor(rd, me.TangentVec(base, v)) @ v
        assert np.allclose(g, gv, atol=1e-6)

    def test_rows_are_nan_where_a_probe_is_not_finite(self):
        f = lambda x: np.sqrt(x[..., 0]) + x[..., 1] ** 2
        xs = np.array([[4.0, 1.0], [1e-10, 1.0], [9.0, -2.0]])
        rows = fd_gradient_rows(f, xs)
        assert np.all(np.isnan(rows[1]))
        assert rows[[0, 2]].tobytes() == fd_gradient_rows(f, xs[[0, 2]]).tobytes()

    @pytest.mark.parametrize("scale", [None, 2.5])
    def test_batch_equals_per_point_calls(self, scale):
        f = lambda x: np.sin(x[..., 0]) * np.exp(x[..., 1]) + x[..., 2] ** 3
        xs = np.random.default_rng(4).normal(size=(4, 5, 3)) * 2.0
        batched = fd_gradient_rows(f, xs, scale=scale)
        single = np.array([[fd_gradient_rows(f, x, scale=scale) for x in row] for row in xs])
        assert batched.shape == xs.shape
        assert batched.tobytes() == single.tobytes()


class TestProbeShape:
    """The kernels evaluate ``f`` once, on the whole probe stack; a callable
    that does not give one value per probe is an InvalidArgument at ``f``."""

    @pytest.mark.parametrize("kernel", [fd_gradient_rows, fd_hessian_rows, fd_hessian_batch])
    def test_a_scalar_only_callable_is_rejected(self, kernel):
        with pytest.raises(InvalidArgument) as err:
            kernel(lambda x: x[0], np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert (err.value.path, err.value.constraint) == ("f", "shape")


class TestCentralDerivatives:
    @pytest.mark.parametrize("curve", [mk.sqrt_parabola_curve, mk.downward_parabola_curve])
    def test_polar_curves_keep_their_differences(self, curve):
        c = curve()
        theta = np.linspace(c.theta_range[0], c.theta_range[1], 1001)[1:-1]
        r = lambda t: c.jet_fn(np.asarray(t, dtype=float), False)
        ref_dot, ref_ddot = reference_polar_derivatives(r)
        for got in (c.jet(theta), central_jet(r)(theta, True)):
            assert np.asarray(got[0]).tobytes() == r(theta).tobytes()
            assert np.asarray(got[1]).tobytes() == ref_dot(theta).tobytes()
            assert np.asarray(got[2]).tobytes() == ref_ddot(theta).tobytes()
        assert float(central_jet(r)(0.5, True)[1]) == ref_dot(np.array([0.5]))[0]

    def test_cubic(self):
        v, d1, d2 = central_jet(lambda t: t**3)(2.0, True)
        assert float(v) == 8.0 and float(central_jet(lambda t: t**3)(2.0, False)) == 8.0
        assert float(d1) == pytest.approx(12.0, rel=1e-9)
        assert float(d2) == pytest.approx(12.0, rel=1e-6)


class TestFdHessian:
    def test_bilinear(self):
        h = fd_hessian_batch(lambda x: x[..., 0] * x[..., 1], np.array([1.0, 1.0]))
        assert np.allclose(h, [[0.0, 1.0], [1.0, 0.0]], atol=1e-6)

    def test_euclidean_fundamental_tensor(self):
        h = fd_hessian_batch(lambda x: 0.5 * np.sum(x**2, axis=-1), np.array([0.3, -1.2]))
        assert np.allclose(h, np.eye(2), atol=1e-6)

    def test_lorentz_gauge(self):
        lz = mk.gauge_from_curve(mk.lorentz_curve())

        def G(u):
            val = np.asarray(lz.value_unchecked(u), dtype=float)
            return 0.5 * val * val

        h = fd_hessian_batch(G, np.array([0.0, 1.0]))
        assert np.allclose(h, np.diag([-1.0, 1.0]), atol=1e-6)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        f = lambda x: np.sin(x[..., 0]) * np.exp(x[..., 1]) + x[..., 2] ** 3
        h = fd_hessian_batch(f, rng.normal(size=3))
        assert np.array_equal(h, h.T)

    def test_quadratic_recovered_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rng.normal(size=(3, 3))
            a = 0.5 * (a + a.T)
            x0 = rng.normal(size=3)
            h = fd_hessian_batch(lambda x: 0.5 * np.einsum("...i,ij,...j->...", x, a, x), x0)
            assert np.max(np.abs(h - a)) < 1e-6 * max(1.0, np.max(np.abs(a)))


def _classify_loop_reference(m, tolerance=1e-9):
    """The earlier one-matrix eigen_classify, kept as a reference."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise NonFiniteSample("non-finite entries in eigen_classify input")
    eig = np.linalg.eigvalsh(0.5 * (m + m.T))  # ascending
    cut = tolerance * float(np.max(np.abs(eig)))
    n_pos = int(np.sum(eig > cut))
    n_neg = int(np.sum(eig < -cut))
    D = Definiteness
    if n_neg == 0:
        cls = D.POSITIVE_DEFINITE if n_pos == eig.size else D.POSITIVE_SEMIDEFINITE_DEGENERATE
    elif n_pos == 0:
        cls = D.NEGATIVE_DEFINITE if n_neg == eig.size else D.NEGATIVE_SEMIDEFINITE
    else:
        cls = D.INDEFINITE
    return eig, float(eig[0]), cls


def _assert_matches_loop(stack, tolerance=1e-9):
    """The stacked call equals the one-matrix reference bit for bit, in C order."""
    stack = np.asarray(stack, dtype=float)
    rep = eigen_classify(stack, tolerance)
    lead, n = stack.shape[:-2], stack.shape[-1]
    assert rep.eigenvalues.shape == lead + (n,) and rep.min_eigenvalue.shape == rep.code.shape == lead
    columns = (rep.eigenvalues.reshape(-1, n), rep.min_eigenvalue.reshape(-1), rep.classification.reshape(-1))
    for m, e, lo, cls in zip(stack.reshape(-1, n, n), *columns):
        eig, ref_lo, ref_cls = _classify_loop_reference(m, tolerance)
        assert np.array_equal(e, eig)
        assert lo == ref_lo
        assert cls is ref_cls


class TestEigenClassify:
    def test_identity_positive_definite(self):
        rep = eigen_classify(np.eye(3), 1e-9)
        assert rep.classification is Definiteness.POSITIVE_DEFINITE

    def test_semidefinite_degenerate(self):
        rep = eigen_classify(np.diag([1.0, 0.0]), 1e-9)
        assert rep.classification is Definiteness.POSITIVE_SEMIDEFINITE_DEGENERATE

    def test_indefinite(self):
        rep = eigen_classify(np.diag([1.0, -1.0]), 1e-9)
        assert rep.classification is Definiteness.INDEFINITE
        assert rep.min_eigenvalue == pytest.approx(-1.0)

    def test_negative_definite(self):
        rep = eigen_classify(-np.eye(2), 1e-9)
        assert rep.classification is Definiteness.NEGATIVE_DEFINITE

    def test_zero_matrix_is_semidefinite_degenerate(self):
        rep = eigen_classify(np.zeros((3, 3)), 1e-9)
        assert rep.classification is Definiteness.POSITIVE_SEMIDEFINITE_DEGENERATE
        assert rep.min_eigenvalue == 0.0

    def test_negative_semidefinite(self):
        rep = eigen_classify(np.diag([0.0, -1.0]), 1e-9)
        assert rep.classification is Definiteness.NEGATIVE_SEMIDEFINITE
        assert rep.min_eigenvalue == -1.0

    def test_eigenvalues_sorted(self):
        rep = eigen_classify(np.diag([3.0, -1.0, 2.0]))
        assert np.all(np.diff(rep.eigenvalues) >= 0)


class TestEigenClassifyStacks:
    """One call classifies a stack (..., N, N) exactly as the per-matrix loop did."""

    @pytest.mark.parametrize("n, count", [(2, 4000), (3, 2000)])
    def test_random_stacks_match_loop(self, n, count):
        rng = np.random.default_rng(40 + n)
        stack = rng.normal(size=(count, n, n))
        # definite, semidefinite and degenerate members, not only indefinite ones
        stack[::4] = stack[::4] @ np.swapaxes(stack[::4], -1, -2)
        stack[1::4] = -(stack[1::4] @ np.swapaxes(stack[1::4], -1, -2))
        stack[2::8, :, 0] = stack[2::8, 0, :] = 0.0
        _assert_matches_loop(stack)
        _assert_matches_loop(stack, 1e-2)

    def test_special_matrices_match_loop(self):
        stack = [
            np.zeros((3, 3)),
            np.diag([2.0, 0.0, 1.0]),  # PSD, degenerate
            np.diag([0.0, -1.0, -3.0]),  # NSD
            -np.diag([1.0, 2.0, 3.0]),  # negative definite
            np.diag([3.0, -1.0, 2.0]),  # indefinite
            np.diag([1.0, 1e-12, 1.0]),  # inside the cut
            np.eye(3),
        ]
        _assert_matches_loop(stack)
        classes = eigen_classify(np.array(stack), 1e-9).classification.tolist()
        D = Definiteness
        assert classes == [
            D.POSITIVE_SEMIDEFINITE_DEGENERATE,
            D.POSITIVE_SEMIDEFINITE_DEGENERATE,
            D.NEGATIVE_SEMIDEFINITE,
            D.NEGATIVE_DEFINITE,
            D.INDEFINITE,
            D.POSITIVE_SEMIDEFINITE_DEGENERATE,
            D.POSITIVE_DEFINITE,
        ]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("lead", [(0,), (5,), (2, 3)])
    def test_shapes(self, n, lead):
        stack = np.random.default_rng(7).normal(size=lead + (n, n))
        _assert_matches_loop(stack)

    def test_one_matrix_gives_one_report(self):
        m = np.array([[2.0, 0.5], [0.5, -1.0]])
        rep = eigen_classify(m)
        eig, lo, cls = _classify_loop_reference(m)
        assert np.array_equal(rep.eigenvalues, eig) and rep.min_eigenvalue == lo and rep.classification is cls
        assert isinstance(rep.min_eigenvalue, float) and rep.is_positive_definite is False
        stacked = eigen_classify(m[None])
        assert np.array_equal(stacked.eigenvalues, eig[None]) and stacked.classification.tolist() == [cls]

    def test_one_nan_in_a_stack_raises(self):
        stack = np.tile(np.eye(2), (6, 1, 1))
        assert np.all(eigen_classify(stack).is_positive_definite)
        stack[4, 1, 0] = np.nan
        with pytest.raises(NonFiniteSample):
            eigen_classify(stack)


@st.composite
def _classify_stacks(draw):
    """(stack (k, N, N), tolerance) with N in 1..4 and k in 1..5.

    Each member is the zero matrix, a random one, or Q diag(lam) Q^T with
    some lam set exactly to +/- tolerance * max|lam|; Q is a signed
    permutation (the spectrum stays exact, so those lam sit on the cut) or
    the orthogonal factor of a random matrix.
    """
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    tolerance = draw(st.sampled_from([1e-9, 1e-3, 0.25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    stack = np.zeros((k, n, n))
    for i in range(k):
        kind = draw(st.sampled_from(["zero", "random", "cut"]))
        if kind == "random":
            stack[i] = rng.normal(size=(n, n))
        elif kind == "cut":
            lam = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
            top = int(np.argmax(np.abs(lam)))
            signs = draw(st.lists(st.sampled_from([0.0, 1.0, -1.0]), min_size=n, max_size=n))
            on_cut = tolerance * np.max(np.abs(lam))
            lam = np.array([s * on_cut if s and j != top else lam[j] for j, s in enumerate(signs)])
            if draw(st.booleans()):
                q = np.eye(n)[draw(st.permutations(range(n)))] * np.array(draw(st.lists(
                    st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
            else:
                q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            stack[i] = (q * lam) @ q.T
    return stack, tolerance


class TestEigenClassifyProperty:
    @settings(max_examples=300, deadline=None)
    @given(_classify_stacks())
    @example((np.zeros((1, 3, 3)), 1e-9))
    @example((np.diag([1.0, 1e-9, -1e-9])[None], 1e-9))
    def test_matches_loop_reference(self, drawn):
        stack, tolerance = drawn
        _assert_matches_loop(stack, tolerance)
        rep = eigen_classify(stack, tolerance)
        codes = [tuple(Definiteness).index(_classify_loop_reference(m, tolerance)[2]) for m in stack]
        assert rep.code.tolist() == codes
        if len(stack) == 1:
            one = eigen_classify(stack[0], tolerance)
            assert np.array_equal(one.eigenvalues, rep.eigenvalues[0]) and one.min_eigenvalue == rep.min_eigenvalue[0]
            assert one.classification is rep.classification[0]


class TestGaussKronrod37:
    @staticmethod
    def errors(degree):
        """Relative errors of (G3, K7) on the monomial t**degree over [0, 1]."""
        t, k7, g3 = gauss_kronrod_3_7()
        exact = 1.0 / (degree + 1)
        return abs(g3 @ t[1::2] ** degree - exact) / exact, abs(k7 @ t**degree - exact) / exact

    @pytest.mark.parametrize("degree", range(12))
    def test_exact_degrees(self, degree):
        g3_err, k7_err = self.errors(degree)
        assert k7_err <= 4 * EPS
        if degree <= 5:
            assert g3_err <= 4 * EPS

    def test_degrees_are_sharp(self):
        assert self.errors(6)[0] > 1e-3
        assert self.errors(12)[1] > 1e-8

    def test_nodes_ascend_and_nest_the_gauss_nodes(self):
        t, k7, g3 = gauss_kronrod_3_7()
        assert np.all(np.diff(t) > 0) and 0.0 < t[0] and t[-1] < 1.0
        assert np.allclose(t[1::2], 0.5 * (1.0 + np.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])), rtol=0, atol=1e-16)
        assert np.allclose(t + t[::-1], 1.0, rtol=0, atol=1e-16)
        assert np.array_equal(k7, k7[::-1]) and np.array_equal(g3, g3[::-1])
        assert np.all(k7 > 0) and np.all(g3 > 0)


class TestRayRoot:
    def test_linear(self):
        assert one_row(lambda lam: lam - 2.0, 1.0) == pytest.approx(2.0, abs=1e-10)

    def test_quadratic(self):
        assert one_row(lambda lam: lam * lam - 9.0, 1.0) == pytest.approx(3.0, abs=1e-10)

    def test_unit_disk_gauge(self):
        v = np.array([3.0, 4.0])
        lam = one_row(lambda t: np.linalg.norm(v / t) - 1.0, 1.0)
        assert lam == pytest.approx(5.0, abs=1e-9)

    def test_crossing_is_a_sign_change(self):
        g = lambda lam: np.tanh(lam - 1.7)
        lam = one_row(g, 1.0)
        delta = 1e-6 * max(1.0, lam)
        assert np.sign(g(lam - delta)) != np.sign(g(lam + delta))

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            one_row(lambda lam: lam * lam + 1.0, 1.0)

    @pytest.mark.parametrize(
        "g",
        [
            lambda lam: lam - 2.0,
            lambda lam: lam * lam - 9.0,
            lambda t: np.linalg.norm(np.array([3.0, 4.0]) / t) - 1.0,
            lambda lam: np.tanh(lam - 1.7),
            lambda lam: 0.3 - lam,
            lambda lam: 1.0 if lam < 0.01 else -1.0,
        ],
        ids=["linear", "quadratic", "unit_disk", "tanh", "down", "indicator_down"],
    )
    def test_matches_reference(self, g):
        new, ref = one_row(g, 1.0), reference_ray_root(g, 1.0)
        assert abs(new - ref) <= 1e-12 * ref

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(st.sampled_from([1.0, -1.0, 0.0, -0.0, math.nan, math.inf, -math.inf]), min_size=1, max_size=80),
        st.sampled_from([1.0, 0.3, 7.0, 0.0]),
    )
    def test_float_sign_tests_match_np_sign(self, values, hint):
        """Fed the same probe values, one row of ray_root and the scalar np.sign
        version probe the same points and end the same way."""

        def run(root):
            probes = []

            def g(lam):
                probes.append(lam)
                return values[(len(probes) - 1) % len(values)]

            try:
                return root(g, hint), probes
            except (NoBracket, NonFiniteSample) as exc:
                return type(exc), probes

        assert run(one_row) == run(sign_test_ray_root)

    def test_rows_take_their_own_probes(self):
        """Rows cast together probe, and end, as each would alone, in row order
        within each round."""
        fns = [lambda lam: lam - 2.0, lambda lam: 0.3 - lam, lambda lam: lam * lam - 9.0, lambda lam: 5e-3 - lam]
        hints = np.array([1.0, 4.0, 0.0, 1e3])
        seen = [[] for _ in fns]

        def g(rows, lam):
            assert np.all(np.diff(rows) > 0)
            for r, x in zip(rows, lam):
                seen[r].append(float(x))
            return np.array([fns[r](x) for r, x in zip(rows, lam)])

        roots = ray_root(g, hints)
        for f, h, probes, root in zip(fns, hints, seen, roots):
            alone = []
            want = sign_test_ray_root(lambda lam: alone.append(lam) or f(lam), h)
            assert probes == alone and root == want

    def test_non_finite_at_a_hint(self):
        # log(lam - 1) is NaN at row 1's hint 0.5 and finite at the others
        def g(rows, lam):
            with np.errstate(invalid="ignore"):
                return np.log(lam - 1.0)

        with pytest.raises(NonFiniteSample, match="row 1"):
            ray_root(g, np.array([3.0, 0.5, 4.0]))

    def test_no_bracket_names_the_first_row(self):
        g = lambda rows, lam: np.where(rows % 2 == 1, lam * lam + 1.0, lam - 2.0)
        with pytest.raises(NoBracket) as err:
            ray_root(g, np.ones(5))
        assert err.value.row == 1

    def test_huge_and_tiny_hints_probe_as_alone_without_warnings(self):
        """Probes past half the largest float overflow quietly to inf, as the
        scalar sequence's Python floats do, and every row still probes and
        ends as it would alone."""
        fns = [
            lambda lam: 1.0 - lam / 1e307,
            lambda lam: lam - 3e307,
            lambda lam: math.inf if lam > 1e308 else (1.0 if lam < 1e306 else -1.0),
            lambda lam: 1.0 if lam < 1e-300 else -1.0,
            lambda lam: lam - 1.5,
        ]
        hints = np.array([1e300, 1.7e308, 1e308, 1e-310, 2.0])
        seen = [[] for _ in fns]

        def g(rows, lam):
            for r, x in zip(rows, lam):
                seen[r].append(float(x))
            return np.array([fns[r](x) for r, x in zip(rows, lam)])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = ray_root(g, hints)
        for f, h, probes, root in zip(fns, hints, seen, roots):
            alone = []
            want = sign_test_ray_root(lambda lam: alone.append(lam) or f(lam), h)
            assert probes == alone and root == want

    def test_ball_gauge_bit_identical_with_fewer_calls(self):
        """The batched gauge against an explicit per-row loop: the same bits as
        the earlier ray_root, with fewer calls of the predicate, and exactly the
        calls of one scalar ray_root per vector."""
        # a scalar-only ellipse predicate, as a user would write it
        rng = np.random.default_rng(11)
        ax, ay = 1.6, 0.7
        calls = [0]

        def member(v):
            calls[0] += 1
            return (v[0] / ax) ** 2 + (v[1] / ay) ** 2 <= 1.0

        angle = rng.uniform(0.0, 2.0 * np.pi, 2000)
        vs = rng.uniform(0.1, 3.0, 2000)[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
        cone = mk.whole_space_domain(2)
        new = mk.gauge_from_ball(2, member, cone).value(vs)
        new_calls, calls[0] = calls[0], 0
        ref = per_row_gauge(member, cone, vs, reference_ray_root)
        ref_calls, calls[0] = calls[0], 0
        scalar = per_row_gauge(member, cone, vs, sign_test_ray_root)
        assert new.tobytes() == ref.tobytes() == scalar.tobytes()
        assert new_calls < ref_calls
        assert new_calls == calls[0]
        assert np.allclose(new, np.hypot(vs[:, 0] / ax, vs[:, 1] / ay), rtol=1e-12)

    @given(
        st.floats(0.3, 3.0),
        st.floats(0.3, 3.0),
        st.floats(0.0, np.pi),
        st.floats(-np.pi, np.pi),
        st.floats(0.2, np.pi),
        st.integers(0, 2**32 - 1),
    )
    def test_ball_gauge_matches_the_per_row_reference(self, a, b, turn, axis, half_angle, seed):
        """A rotated ellipse on a random angular cone, vectors of norm 1e-3 to
        1e3 and the zero vector: the batched gauge equals the per-row reference loop bit for bit,
        and calls the predicate as often as one scalar ray_root per vector."""
        c, s = np.cos(turn), np.sin(turn)
        shape = np.array([[c, s], [-s, c]]) / np.array([[a], [b]])  # rotate, then scale each axis
        calls = [0]

        def member(v):
            calls[0] += 1
            w = shape @ v
            return w @ w <= 1.0

        u = np.array([np.cos(axis), np.sin(axis)])
        # the open sector within half_angle of u, and the zero vector
        cone = lambda v: (v @ u > np.cos(half_angle) * np.linalg.norm(v, axis=-1)) | ~v.any(axis=-1)
        rng = np.random.default_rng(seed)
        angle = rng.uniform(-np.pi, np.pi, 100)
        vs = 10.0 ** rng.uniform(-3.0, 3.0, 100)[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
        vs[0] = 0.0
        new = mk.gauge_from_ball(2, member, cone).value_unchecked(vs)
        new_calls, calls[0] = calls[0], 0
        ref = per_row_gauge(member, cone, vs, reference_ray_root)
        calls[0] = 0
        per_row_gauge(member, cone, vs, sign_test_ray_root)
        assert new.tobytes() == ref.tobytes()
        assert new_calls == calls[0]


