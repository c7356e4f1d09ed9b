from dataclasses import replace

import numpy as np
import pytest

from finslerkit import combinators as cb
from finslerkit import metrics as me
from finslerkit.errors import BadExponent, DomainEmpty, InvalidArgument, NonFiniteSample, OutsideDomain
from finslerkit.numkernel import Definiteness, eigen_classify

BASE = np.zeros(2)


def euclid(n=2):
    return me.euclidean_metric(n)


def profile_of(phi, phi_dot, phi_ddot, **kw):
    """A profile whose one call evaluates three callables of s."""

    def jet_fn(s, with_derivatives):
        return (phi(s), phi_dot(s), phi_ddot(s)) if with_derivatives else phi(s)

    return cb.PhiProfile(jet_fn=jet_fn, **kw)


def constant_profile():
    return profile_of(np.ones_like, np.zeros_like, np.zeros_like)


def unit_samples(m, count, seed, margin_fn=None):
    rng = np.random.default_rng(seed)
    base = np.zeros(m.dimension)
    out = []
    while len(out) < count:
        v = rng.normal(size=m.dimension)
        v /= np.linalg.norm(v)
        if not bool(m.in_domain_many(base, v)):
            continue
        if margin_fn is not None and not margin_fn(v):
            continue
        out.append(v)
    return np.array(out)


def oracle_gap(m, count=60, seed=0, margin_fn=None):
    vs = unit_samples(m, count, seed, margin_fn)
    base = np.zeros((count, m.dimension))
    ga = m.tensor_many(base, vs)
    gf = m.fd_tensor_many(base, vs)
    scale = np.maximum(1.0, np.max(np.abs(gf), axis=(-2, -1)))
    return float(np.max(np.max(np.abs(ga - gf), axis=(-2, -1)) / scale))


class TestProfiles:
    @pytest.mark.parametrize(
        "profile",
        [
            cb.randers_profile(),
            cb.kropina_profile(0.5),
            cb.kropina_profile(2.0),
            cb.matsumoto_profile(1.0),
            cb.matsumoto_profile(-2.0),
            cb.square_over_f0_profile(),
        ],
    )
    def test_derived_identities(self, profile):
        # on the (F0, beta) law L = x1^2 psi(s) at x = (1, s): L_1 = 2 phi (phi - s phi')
        # and det Hess L = 2 psi psi'' - psi'^2 = 4 phi^3 phi''
        law = cb._profile_law(profile, 1, 1)
        rng = np.random.default_rng(5)
        count = 0
        while count < 40:
            s = rng.uniform(-3, 3)
            if not bool(profile.contains(s)):
                continue
            p, pd, pdd = (float(x) for x in profile.jet(s))
            _, _, grad, hess = law.jet([1.0, s], None, True)
            scale = max(1.0, abs(p) ** 4, abs(p * pd * s))
            assert abs(float(grad[0]) - 2 * p * (p - s * pd)) < 1e-10 * scale
            assert abs(float(np.linalg.det(hess)) - 4 * p**3 * pdd) < 1e-10 * scale * max(1, abs(pdd))
            count += 1

    def test_kropina_requires_positive_exponent(self):
        with pytest.raises(BadExponent):
            cb.kropina_profile(0.0)

    def test_matsumoto_exponent_gap(self):
        with pytest.raises(BadExponent):
            cb.matsumoto_profile(-0.5)


class TestProfileConvexitySufficiency:
    def test_pointwise_condition_excludes_indefiniteness(self):
        # wherever conditions A-C of the profile law hold at (1, s), classification is never Indefinite
        E = euclid()
        beta = me.constant_oneform([0.8, 0.0])
        prof = cb.matsumoto_profile(1.0)
        law = cb._profile_law(prof, 1, 1)
        m = cb.phi_combine(E, beta, prof)
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 200:
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            if not bool(m.in_domain_many(BASE, v)):
                continue
            s = 0.8 * v[0]
            if cb.check_conditions_ABC(law, [1.0, s]).all_ok:
                rep = me.classify_point(m, me.TangentVec(BASE, v), 1e-9)
                assert rep.classification is not Definiteness.INDEFINITE
            checked += 1


def chern_shen_holds(profile, b0, grid=48):
    """The Chern-Shen condition (phi - s phi') + (b^2 - s^2) phi'' > 0 for
    |s| <= b < b0, as :func:`characterization_nd` of the Euclidean plane and
    beta = b dx on ``grid`` directions, for ``grid`` values of b."""
    E, tv = euclid(), me.TangentVec(np.zeros((grid, 2)), me.unit_directions(2, grid))
    return all(
        np.all(cb.characterization_nd(E, me.constant_oneform([b, 0.0]), profile, tv))
        for b in b0 * np.arange(grid) / grid
    )


class TestChernShen:
    def test_randers_all_b(self):
        assert chern_shen_holds(cb.randers_profile(), 1.0)

    def test_one_plus_s_squared_fails_for_large_band(self):
        prof = profile_of(lambda s: 1.0 + s**2, lambda s: 2.0 * s, lambda s: 2.0 * np.ones_like(s))
        assert not chern_shen_holds(prof, 2.0)

    def test_convex_profile_with_positive_slope_condition(self):
        # phi = exp(s): phi - s phi' = (1-s) e^s > 0 on s < 1 and phi'' >= 0
        prof = profile_of(np.exp, np.exp, np.exp, intervals=((-0.9, 0.9),))
        assert chern_shen_holds(prof, 0.9)


class TestCombinerLaws:
    @pytest.mark.parametrize(
        "combiner,point",
        [
            (cb.sum_combiner(2), np.array([1.3, 0.4])),
            (cb.power_combiner(2, 0, 2.0), np.array([1.3, 0.4])),
            (cb.power_combiner(1, 1, 1.0), np.array([1.0, 0.6])),
            (cb.power_combiner(1, 1, 3.0), np.array([0.8, -0.5])),
            (cb._profile_law(cb.randers_profile(), 1, 1), np.array([1.3, 0.4])),
            (cb._profile_law(cb.kropina_profile(2.0), 1, 1), np.array([1.3, 0.4])),
            (cb._profile_law(cb.matsumoto_profile(1.0), 2, 0), np.array([1.3, 0.4])),
        ],
        ids=["sum", "power2", "power1", "power3", "randers", "kropina2", "matsumoto_f1f2"],
    )
    def test_homogeneity_and_derivative_consistency(self, combiner, point):
        val = combiner.value(point)
        for lam in (0.5, 2.0):
            assert combiner.value(lam * point) == pytest.approx(lam * lam * val, rel=1e-12)
        from finslerkit.numkernel import fd_gradient_rows, fd_hessian_batch

        grad_fd = fd_gradient_rows(lambda x: combiner.value(x), point)
        hess_fd = fd_hessian_batch(lambda x: combiner.value(x), point)
        _, _, grad, hess = combiner.jet(point, None, True)
        assert np.allclose(grad, grad_fd, rtol=1e-5, atol=1e-6)
        assert np.allclose(hess, hess_fd, rtol=1e-4, atol=1e-4)


class TestCombine:
    def test_identity_combination(self):
        E = euclid()
        def jet_fn(x, p, with_derivatives):
            if not with_derivatives:
                return True, x[..., 0] ** 2
            return True, x[..., 0] ** 2, 2.0 * x, np.broadcast_to(2.0 * np.eye(1), x.shape + (1,))

        ident = cb.LCombiner(n=1, m=0, jet_fn=jet_fn, name="identity")
        m = cb.combine(ident, [E], [])
        v = np.array([0.6, -0.8])
        assert float(m.F_many(BASE, v)) == pytest.approx(float(E.F_many(BASE, v)))
        assert np.allclose(m.tensor_many(BASE, v), E.tensor_many(BASE, v), atol=1e-12)

    def test_sum_of_two_euclideans(self):
        m = cb.combine(cb.sum_combiner(2), [euclid(), euclid()], [])
        v = np.array([1.0, 0.0])
        assert float(m.F_many(BASE, v)) == pytest.approx(2.0)
        assert np.allclose(m.tensor_many(BASE, v), 4.0 * np.eye(2), atol=1e-12)

    def test_randers_via_general_l(self):
        # the q=1 power law uses |beta|, so it reproduces Randers on {beta > 0}
        E = euclid()
        beta = me.constant_oneform([0.5, 0.0])
        via_l = cb.combine(cb.power_combiner(1, 1, 1.0), [E], [beta])
        named, _ = cb.named_family("randers", E, beta)
        vs = unit_samples(named, 40, seed=2, margin_fn=lambda v: v[0] > 0.1)
        b2 = np.zeros((40, 2))
        assert np.allclose(via_l.tensor_many(b2, vs), named.tensor_many(b2, vs), atol=1e-9)

    def test_fd_fallback_for_user_l(self):
        # grad/hess omitted: combination still works against the FD oracle
        def jet_fn(x, p, with_derivatives):
            return True, x[..., 0] ** 2 + 0.5 * x[..., 1] ** 2 + 0.3 * x[..., 0] * x[..., 1]

        mix = cb.LCombiner(n=2, m=0, jet_fn=jet_fn, name="quadratic-mix")
        stretched = me.riemann_metric(me.constant_riemann(np.diag([2.0, 1.0])), 2)
        m = cb.combine(mix, [euclid(), stretched], [])
        assert oracle_gap(m, count=25, seed=3) < 1e-4

    def test_fd_fallback_scan_over_conic_ingredient(self):
        # the scan evaluates tensors on every direction; FD rows outside the cone stay NaN
        mix = cb.LCombiner(n=2, m=0, jet_fn=lambda x, p, d: (True, (x[..., 0] + x[..., 1]) ** 2), name="sum-fd")
        upper = me.oneform_metric(me.constant_oneform([0.0, 1.0]), 2)
        dirs, in_domain, _ = me.convexity_scan(cb.combine(mix, [euclid(), upper], []), BASE, 36)
        assert set(in_domain.tolist()) == {True, False}
        assert np.array_equal(in_domain, dirs[:, 1] > 0.0)

    def test_fd_fallback_gives_a_nan_row_where_a_probe_leaves_the_cone(self):
        # (beta > 0, (F + sqrt(beta))^2): the probes of the second row cross beta = 0
        def jet_fn(x, p, with_derivatives):
            return x[..., 1] > 0.0, (x[..., 0] + np.sqrt(x[..., 1])) ** 2

        law = cb.LCombiner(n=1, m=1, jet_fn=jet_fn, name="sqrt-beta")
        m = cb.combine(law, [euclid()], [me.constant_oneform([0.0, 1.0])])
        g = m.tensor_many(BASE, [[1.0, 1.0], [1.0, 1e-6]])
        assert g[0].tobytes() == m.tensor_many(BASE, [[1.0, 1.0]])[0].tobytes()
        assert np.all(np.isfinite(g[0])) and np.all(np.isnan(g[1]))
        with pytest.raises(NonFiniteSample, match="hit the domain boundary"):
            me.tensor(m, me.TangentVec(BASE, np.array([1.0, 1e-6])))
        with pytest.raises(NonFiniteSample, match="fd_hessian"):
            m.fd_tensor_many(BASE, [1.0, 1e-6])

    @pytest.mark.parametrize("batch", [3, 9])
    def test_fd_fallback_uses_each_rows_base_point(self, batch):
        # L depends on the point, so each finite-difference row needs its own p
        def L(x, p):
            return x[..., 0] ** 2 * (1.0 + p[..., 0] ** 2) + x[..., 1] ** 2

        def exact_jet(x, p, with_derivatives):
            if not with_derivatives:
                return True, L(x, p)
            grad = np.stack([2.0 * x[..., 0] * (1.0 + p[..., 0] ** 2), 2.0 * x[..., 1]], axis=-1)
            h = np.zeros(x.shape + (2,))
            h[..., 0, 0] = 2.0 * (1.0 + p[..., 0] ** 2)
            h[..., 1, 1] = 2.0
            return True, L(x, p), grad, h

        fd = cb.LCombiner(n=2, m=0, jet_fn=lambda x, p, d: (True, L(x, p)), position_independent=False, name="posdep-fd")
        exact = replace(fd, jet_fn=exact_jet, name="posdep")
        stretched = me.riemann_metric(me.constant_riemann(np.diag([2.0, 1.0])), 2)
        rng = np.random.default_rng(batch)
        base = rng.uniform(-1.0, 1.0, size=(batch, 2))
        vs = rng.normal(size=(batch, 2))
        g_fd, g_exact = (cb.combine(c, [euclid(), stretched], []).tensor_many(base, vs) for c in (fd, exact))
        assert np.all(np.isfinite(g_fd))
        assert np.max(np.abs(g_fd - g_exact)) <= 1e-6 * max(1.0, np.max(np.abs(g_exact)))

    def test_domain_empty(self):
        E = euclid()
        never = cb.LCombiner(n=1, m=0, jet_fn=lambda x, p, d: (False, x[..., 0] ** 2), name="empty")
        with pytest.raises(DomainEmpty):
            cb.combine(never, [E], [])


class TestConditionsABC:
    def test_sum_at_positive_point(self):
        rep = cb.check_conditions_ABC(cb.sum_combiner(2), [1.0, 1.0])
        assert rep.A_ok and rep.B_ok and rep.C_ok

    def test_lorentz_like_l_fails_b(self):
        def jet_fn(x, p, with_derivatives):
            L = x[..., 0] ** 2 - x[..., 1] ** 2
            if not with_derivatives:
                return True, L
            grad = np.stack([2 * x[..., 0], -2 * x[..., 1]], axis=-1)
            return True, L, grad, np.broadcast_to(np.diag([2.0, -2.0]), x.shape + (2,))

        lor = cb.LCombiner(n=2, m=0, jet_fn=jet_fn, name="lorentz-like")
        rep = cb.check_conditions_ABC(lor, [1.0, 1.0])
        assert not rep.B_ok

    def test_power_combiner_hessian_psd(self):
        rep = cb.check_conditions_ABC(cb.power_combiner(1, 1, 2.0), [1.0, 0.7])
        assert rep.A_ok and rep.B_ok

    def test_abc_implies_positive_definite(self):
        E = euclid()
        beta = me.constant_oneform([0.5, 0.0])
        m = cb.power_q_combine([E], [beta], 2.0)
        comb = cb.power_combiner(1, 1, 2.0)
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 50:
            v = rng.normal(size=2)
            if not bool(m.in_domain_many(BASE, v)):
                continue
            point = np.array([float(E.F_many(BASE, v)), float(beta.pair(BASE, v))])
            rep = cb.check_conditions_ABC(comb, point)
            if rep.all_ok:
                assert me.classify_point(m, me.TangentVec(BASE, v)).is_positive_definite
            checked += 1

    @pytest.mark.parametrize(
        "profile,s,verdict",
        [
            (cb.randers_profile(), 0.5, (True, True, True)),
            (cb.kropina_profile(1.0), 0.3, (True, True, True)),
            (cb.matsumoto_profile(1.0), 0.6, (False, True, False)),
        ],
        ids=["randers", "kropina", "matsumoto"],
    )
    def test_profile_law(self, profile, s, verdict):
        # at x = (1, s), L_1 = 2 psi - s psi' and det Hess L = 2 psi psi'' - psi'^2 (psi = phi^2)
        rep = cb.check_conditions_ABC(cb._profile_law(profile, 1, 1), [1.0, s])
        assert (rep.A_ok, rep.B_ok, rep.C_ok) == verdict

    @pytest.mark.parametrize(
        "law,point",
        [
            (cb._profile_law(cb.randers_profile(), 1, 1), [1.0, -2.0]),
            (cb.sum_combiner(2), [1.0, -3.0]),
            (cb._profile_law(cb.kropina_profile(1.0), 1, 1), [1.0, 0.0]),  # the pole s = 0
            (cb._profile_law(cb.matsumoto_profile(1.0), 1, 1), [1.0, 1.0]),  # the pole s = 1
        ],
        ids=["randers", "sum", "kropina_pole", "matsumoto_pole"],
    )
    def test_outside_the_cone(self, law, point):
        with pytest.raises(OutsideDomain):
            cb.check_conditions_ABC(law, point)

    @pytest.mark.parametrize("point", [[[1.0, 1.0], [1.0, -0.5]], [1.0, 1.0, 1.0], [1.0], 1.0], ids=["stack", "long", "short", "scalar"])
    def test_one_point_of_n_plus_m_arguments(self, point):
        with pytest.raises(InvalidArgument) as info:
            cb.check_conditions_ABC(cb.sum_combiner(2), point)
        assert (info.value.path, info.value.constraint) == ("point", "shape")


def _angular_pieces(jet, vec):
    """(F, u = g v, h = g - u u^T / F^2) from a child's tensor jet."""
    _, F, g = jet
    u = np.einsum("...ij,...j->...i", g, vec)
    return F, u, g - u[..., :, None] * u[..., None, :] / (F * F)[..., None, None]


def power_q_reference(metrics, forms, q):
    """q-power combination with its tensor written out term by term.

    Angular parts, the pairwise difference squares and the rank-one head,
    independently of the generic Hessian assembly in ``combine``.
    """
    if q < 1.0:
        raise BadExponent("power combination requires q >= 1")
    metrics = list(metrics)
    forms = list(forms)
    if not metrics:
        raise BadExponent("power combination needs at least one metric (n >= 1)")
    dim = cb._shared_dimension(metrics)
    n, mm = len(metrics), len(forms)

    def jet_fn(base, vec, with_tensor):
        if with_tensor:
            base, vec = np.broadcast_arrays(base, vec)
        kids = [mk.node_jet(base, vec, with_tensor) for mk in metrics]
        bcoefs = [fm.coeffs(base) for fm in forms]
        betas = [cb._pair(b, vec) for b in bcoefs]
        ok = True
        total = 0.0
        for kid in kids:
            ok = ok & kid[0]
            total = total + kid[1] ** q
        for bv in betas:
            total = total + np.abs(bv) ** q
            if q < 2.0:
                ok = ok & (np.abs(bv) > 0.0)
        if not with_tensor:
            return ok, total ** (1.0 / q)
        Fs, us, hs, a_vecs = [], [], [], []
        for kid in kids:
            Fk, uk, hk = _angular_pieces(kid, vec)
            Fs.append(Fk)
            us.append(uk)
            hs.append(hk)
            a_vecs.append(uk / (Fk * Fk)[..., None])
        bcoefs = [np.broadcast_to(b, vec.shape) for b in bcoefs]

        R = sum(Fk**q for Fk in Fs) + sum(np.abs(bv) ** q for bv in betas)
        R = R ** (1.0 / q)

        def outer(w):
            return w[..., :, None] * w[..., None, :]

        T = np.zeros(vec.shape + (vec.shape[-1],))
        for Fk, hk in zip(Fs, hs):
            T = T + (R**q * Fk ** (q - 2.0))[..., None, None] * hk
        if q != 1.0:
            for k in range(n):
                for l in range(k + 1, n):
                    coef = (q - 1.0) * (Fs[k] * Fs[l]) ** q
                    T = T + coef[..., None, None] * outer(a_vecs[k] - a_vecs[l])
            for mu in range(mm):
                for nu in range(mu + 1, mm):
                    coef = (q - 1.0) * np.abs(betas[mu] * betas[nu]) ** (q - 2.0)
                    w = betas[nu][..., None] * bcoefs[mu] - betas[mu][..., None] * bcoefs[nu]
                    T = T + coef[..., None, None] * outer(w)
            for k in range(n):
                for mu in range(mm):
                    coef = (q - 1.0) * Fs[k] ** q * np.abs(betas[mu]) ** (q - 2.0)
                    w = betas[mu][..., None] * a_vecs[k] - bcoefs[mu]
                    T = T + coef[..., None, None] * outer(w)
        head = np.zeros(vec.shape)
        for Fk, uk in zip(Fs, us):
            head = head + (Fk ** (q - 2.0))[..., None] * uk
        for bv, bc in zip(betas, bcoefs):
            head = head + (np.abs(bv) ** (q - 2.0) * bv)[..., None] * bc
        T = T + outer(head)
        return ok, total ** (1.0 / q), T / (R ** (2.0 * q - 2.0))[..., None, None]

    return cb._combined(
        dim,
        jet_fn,
        all(mk.position_independent for mk in metrics) and all(fm.constant for fm in forms),
        f"power[q={q:g}]({', '.join(mk.name for mk in metrics)})",
    )


POWER_Q_ROUTES = (cb.power_q_combine, power_q_reference)


class TestPowerQ:
    """Each exactness check runs on the production route and on the reference."""

    def test_single_metric_unchanged(self):
        E = euclid()
        for route in POWER_Q_ROUTES:
            for q in (1.0, 2.0, 3.0):
                m = route([E], [], q)
                v = np.array([0.3, 0.4])
                assert float(m.F_many(BASE, v)) == pytest.approx(0.5)
                assert np.allclose(m.tensor_many(BASE, v), np.eye(2), atol=1e-10)

    def test_two_euclideans_q2(self):
        for route in POWER_Q_ROUTES:
            m = route([euclid(), euclid()], [], 2.0)
            v = np.array([1.0, 0.0])
            assert float(m.F_many(BASE, v)) == pytest.approx(np.sqrt(2.0))
            assert np.allclose(m.tensor_many(BASE, v), 2.0 * np.eye(2), atol=1e-12)

    def test_q1_with_form_is_randers_like(self):
        E = euclid()
        beta = me.constant_oneform([0.5, 0.0])
        for route in POWER_Q_ROUTES:
            m = route([E], [beta], 1.0)
            assert oracle_gap(m, count=60, seed=4, margin_fn=lambda v: abs(v[0]) > 0.25) < 1e-6

    def test_exponent_validation(self):
        for route in POWER_Q_ROUTES:
            with pytest.raises(BadExponent):
                route([euclid()], [], 0.5)
            with pytest.raises(BadExponent):
                route([], [me.constant_oneform([1.0, 0.0])], 2.0)

    def test_low_q_excludes_form_kernel(self):
        E = euclid()
        beta = me.constant_oneform([0.5, 0.0])
        for route in POWER_Q_ROUTES:
            m = route([E], [beta], 1.5)
            assert not bool(m.in_domain_many(BASE, np.array([0.0, 1.0])))
            m2 = route([E], [beta], 2.0)
            assert bool(m2.in_domain_many(BASE, np.array([0.0, 1.0])))

    @pytest.mark.parametrize("with_forms", [False, True], ids=["metrics", "metrics+forms"])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_generic_assembly_matches_reference(self, q, with_forms):
        rd, _ = cb.named_family("randers", euclid(), me.constant_oneform([0.5, 0.0]))
        metrics = [cb.reversibilize(rd, "sum"), rd, euclid()]
        forms = [me.constant_oneform([0.2, 0.1]), me.constant_oneform([-0.1, 0.3])] if with_forms else []
        rng = np.random.default_rng(int(10 * q) + with_forms)
        base = rng.uniform(-1.0, 1.0, size=(200, 2))
        vec = rng.normal(size=(200, 2))
        ok, F, g = cb.combine(cb.power_combiner(3, len(forms), q), metrics, forms).jet(base, vec, with_tensor=True)
        ok_ref, F_ref, g_ref = power_q_reference(metrics, forms, q).jet(base, vec, with_tensor=True)
        assert np.array_equal(ok, ok_ref) and ok.sum() > 150
        assert np.allclose(F[ok], F_ref[ok], rtol=1e-10, atol=0.0)
        scale = np.maximum(1.0, np.max(np.abs(g_ref[ok]), axis=(-2, -1)))
        assert np.max(np.max(np.abs(g[ok] - g_ref[ok]), axis=(-2, -1)) / scale) < 1e-10


class TestPhiCombine:
    def test_constant_profile_is_identity(self):
        E = euclid()
        one = constant_profile()
        m = cb.phi_combine(E, me.constant_oneform([0.5, 0.0]), one)
        v = np.array([0.3, 0.4])
        assert float(m.F_many(BASE, v)) == pytest.approx(0.5)
        assert np.allclose(m.tensor_many(BASE, v), np.eye(2), atol=1e-12)

    def test_randers_profile_matches_closed_form(self):
        E = euclid()
        beta = me.constant_oneform([0.5, 0.0])
        m = cb.phi_combine(E, beta, cb.randers_profile())
        v = np.array([1.0, 0.0])
        assert np.allclose(m.tensor_many(BASE, v), np.diag([2.25, 1.5]), atol=1e-12)
        assert oracle_gap(m, count=60, seed=6) < 1e-6

    def test_kropina_value_and_tensor(self):
        E = euclid()
        beta = me.constant_oneform([1.0, 0.0])
        m = cb.phi_combine(E, beta, cb.kropina_profile(1.0))
        v = np.array([1.0, 0.0])
        assert float(m.F_many(BASE, v)) == pytest.approx(1.0)  # alpha^2/|beta| at unit
        v2 = np.array([1.0, 1.0])
        assert float(m.F_many(BASE, v2)) == pytest.approx(2.0 / 1.0)
        assert oracle_gap(m, count=60, seed=7, margin_fn=lambda v: abs(v[0]) > 0.25) < 1e-6


class TestNamedFamilies:
    def test_matsumoto_strong_domain_formula(self):
        E = euclid()
        beta = me.constant_oneform([0.8, 0.0])
        metric, strong = cb.named_family("matsumoto", E, beta, q=1)
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.normal(size=2)
            f0 = float(np.linalg.norm(v))
            bv = 0.8 * v[0]
            # q = 1: phi - s phi' + (b^2 - s^2) phi'' = (1 + 2 b^2 - 3 s) / (1 - s)^3, |s| <= b < 1
            expected = (f0 != bv) and (1 + 2 * 0.64 - 3 * bv / f0) > 0
            assert strong(me.TangentVec(BASE, v)) == expected

    def test_randers_pd_everywhere(self):
        E = euclid()
        metric, strong = cb.named_family("randers", E, me.constant_oneform([0.5, 0.0]))
        _, in_domain, rep = me.convexity_scan(metric, BASE, 180)
        assert np.all(in_domain) and np.all(rep.is_positive_definite)

    def test_kropina_strong_domain_excludes_kernel(self):
        E = euclid()
        metric, strong = cb.named_family("kropina", E, me.constant_oneform([0.5, 0.0]), q=1)
        assert not strong(me.TangentVec(BASE, np.array([0.0, 1.0])))
        assert strong(me.TangentVec(BASE, np.array([1.0, 0.2])))

    def test_square_over_f0(self):
        E = euclid()
        metric, strong = cb.named_family("square_over_f0", E, me.constant_oneform([0.5, 0.0]))
        v = np.array([1.0, 0.0])
        # (F0 + beta)^2 / F0 = (1 + 0.5)^2 / 1
        assert float(metric.F_many(BASE, v)) == pytest.approx(2.25)
        assert oracle_gap(metric, count=40, seed=13) < 1e-6

    def test_strong_domain_matches_classification_3d(self):
        # above dimension two the declared domain is exactly the PD region
        E3 = euclid(3)
        base = np.zeros(3)
        beta = me.constant_oneform([0.8, 0.0, 0.0])
        metric, strong = cb.named_family("matsumoto", E3, beta, q=1)
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 300:
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            tv = me.TangentVec(base, v)
            if not bool(metric.in_domain_many(base, v)):
                continue
            g = me.tensor(metric, tv)
            rep = eigen_classify(g, 1e-9)
            # skip the tolerance shell around the degenerate transition
            if abs(rep.min_eigenvalue) < 1e-7 * max(np.abs(rep.eigenvalues)):
                continue
            assert strong(tv) == rep.is_positive_definite
            checked += 1

    def test_strong_domain_sufficient_2d(self):
        # in dimension two membership still guarantees positive definiteness
        E = euclid()
        beta = me.constant_oneform([0.8, 0.0])
        metric, strong = cb.named_family("matsumoto", E, beta, q=1)
        rng = np.random.default_rng(16)
        checked = 0
        while checked < 200:
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            tv = me.TangentVec(BASE, v)
            if not bool(metric.in_domain_many(BASE, v)) or not strong(tv):
                continue
            assert me.classify_point(metric, tv, 1e-9).is_positive_definite
            checked += 1


    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "family, q",
        [("randers", None), ("kropina", 1.0), ("kropina", 2.5), ("matsumoto", 1.0), ("matsumoto", -1.5),
         ("square_over_f0", None)],
    )
    def test_strong_domain_equals_classification(self, family, q, dim):
        # one stacked call: False off the metric's domain, the eigen verdict on it
        bv = np.zeros(dim)
        bv[0] = 0.8
        metric, strong = cb.named_family(family, euclid(dim), me.constant_oneform(bv), q)
        base = np.zeros(dim)
        vs = np.random.default_rng(17 + dim).normal(size=(400, dim))
        vs[:3] = 0.0
        vs[1, 1] = 1.0  # on the Kropina kernel
        got = strong.many(base, vs)
        ok = metric.in_domain_many(base, vs)
        assert got.shape == (400,) and not np.any(got[~ok])
        rep = eigen_classify(me.tensor(metric, me.TangentVec(base, vs[ok])), 1e-9)
        clear = np.abs(rep.min_eigenvalue) >= 1e-7 * np.max(np.abs(rep.eigenvalues), axis=-1)
        pd = rep.is_positive_definite
        assert clear.sum() > 350
        assert np.array_equal(got[ok][clear], pd[clear])
        assert [strong(me.TangentVec(base, v)) for v in vs[:40]] == list(got[:40])

class TestF1F2:
    @staticmethod
    def _pair(n=2):
        f1 = euclid(n)
        f2 = me.riemann_metric(me.constant_riemann(0.04 * np.eye(n)), n)
        return f1, f2

    def test_constant_profile_identity(self):
        f1, f2 = self._pair()
        one = constant_profile()
        m = cb.f1f2_combine(f1, f2, one)
        v = np.array([3.0, 4.0])
        assert float(m.F_many(BASE, v)) == pytest.approx(5.0)

    def test_equal_metrics_scale_by_profile(self):
        f1 = euclid()
        prof = profile_of(lambda s: 2.0 + 0.5 * s, lambda s: 0.5 * np.ones_like(s), np.zeros_like, intervals=((0.0, 10.0),))
        m = cb.f1f2_combine(f1, euclid(), prof)
        v = np.array([1.0, 0.0])
        c = 2.0 + 0.5  # phi evaluated at s = 1
        assert float(m.F_many(BASE, v)) == pytest.approx(c)
        assert np.allclose(m.tensor_many(BASE, v), c * c * np.eye(2), atol=1e-9)

    def test_generalized_matsumoto_oracle(self):
        f1, f2 = self._pair()
        m = cb.f1f2_combine(f1, f2, cb.matsumoto_profile(1.0))
        assert oracle_gap(m, count=60, seed=17) < 1e-6


class TestProfileNodeValues:
    """A profile node's value is F0 * phi(beta / F0), or F1 * phi(F2 / F1), to the
    bit: the law returns L = t * t with t that product, and sqrt(t * t) = |t| in
    binary64 unless t * t overflows or underflows."""

    FORM = me.constant_oneform([0.5, 0.0])

    @classmethod
    def _nodes(cls):
        """(name, node, reference F as a function of the vectors) for phi, named and f1f2 nodes."""
        E = euclid()
        second = me.riemann_metric(me.constant_riemann(0.04 * np.eye(2)), 2)
        wavy = profile_of(lambda s: 1.0 + 0.3 * np.sin(s), lambda s: 0.3 * np.cos(s), lambda s: -0.3 * np.sin(s))

        def phi_reference(profile):
            return lambda vs: E.F_many(BASE, vs) * profile.jet_fn(cls.FORM.pair(BASE, vs) / E.F_many(BASE, vs), False)

        def f1f2_reference(profile):
            return lambda vs: E.F_many(BASE, vs) * profile.jet_fn(second.F_many(BASE, vs) / E.F_many(BASE, vs), False)

        out = [("phi[wavy]", cb.phi_combine(E, cls.FORM, wavy), phi_reference(wavy))]
        for family, q in (("randers", None), ("kropina", 1.0), ("matsumoto", 2.0), ("square_over_f0", None)):
            metric, _ = cb.named_family(family, E, cls.FORM, q)
            out.append((family, metric, phi_reference(cb.family_profile(family, q))))
        for profile in (cb.matsumoto_profile(1.0), wavy):
            out.append((f"f1f2[{profile.name}]", cb.f1f2_combine(E, second, profile), f1f2_reference(profile)))
        return out

    def test_values_are_the_profile_product_bit_for_bit(self):
        scales = 10.0 ** np.arange(-150, 151, 10)
        vs = scales[:, None, None] * np.random.default_rng(41).normal(size=(9, 2))  # (31, 9, 2)
        for name, metric, reference in self._nodes():
            with np.errstate(all="ignore"):
                want = reference(vs)
            got = metric.F_many(BASE, vs)
            ok = metric.in_domain_many(BASE, vs)
            checked = ok & (want < 1e154)
            assert checked.sum() >= 200, name
            assert np.array_equal(got[checked], want[checked]), name
            assert np.array_equal(me.eval_F_many(metric, BASE, vs[checked]), want[checked]), name

    def test_a_value_whose_square_overflows_is_a_non_finite_sample(self):
        for name, metric, reference in self._nodes():
            v = np.array([1.3e154, 0.0])  # F0 = 1.3e154, beta / F0 = 0.5, F2 / F1 = 0.2
            with np.errstate(all="ignore"):
                want = float(reference(v))
                assert np.isfinite(want) and np.isinf(want * want), name  # representable, its square is not
            assert not np.isfinite(metric.F_many(BASE, v)), name
            with pytest.raises(NonFiniteSample, match="metric value is not finite"):
                me.eval_F_many(metric, BASE, [[1.0, 0.0], v])


class TestFamilyClosedForms:
    """The family tensors written out term by term, as an exact second route.

    These transcriptions share no code with the profile machinery: they pin
    the coefficients to ~1e-10, an order stronger than the FD oracle.
    """

    @staticmethod
    def _pieces(metric, v):
        g = metric.tensor_many(BASE, v)
        F = float(metric.F_many(BASE, v))
        u = g @ v
        h = g - np.outer(u, u) / (F * F)
        return F, u, h

    def _samples(self, m, count, seed, margin_fn=None):
        return unit_samples(m, count, seed, margin_fn)

    def test_randers_tensor_transcription(self):
        E = euclid()
        b = np.array([0.5, 0.0])
        metric, _ = cb.named_family("randers", E, me.constant_oneform(b))
        for v in self._samples(metric, 25, seed=101):
            F0, u0, h0 = self._pieces(E, v)
            bv = float(b @ v)
            head = u0 / F0 + b
            expected = (F0 + bv) / F0 * h0 + np.outer(head, head)
            assert np.allclose(metric.tensor_many(BASE, v), expected, atol=1e-10)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_kropina_tensor_transcription(self, q):
        E = euclid()
        b = np.array([0.5, 0.0])
        metric, _ = cb.named_family("kropina", E, me.constant_oneform(b), q=q)
        margin = lambda v: abs(0.5 * v[0]) > 0.2
        for v in self._samples(metric, 25, seed=102, margin_fn=margin):
            F0, u0, h0 = self._pieces(E, v)
            bv = float(b @ v)
            s = bv / F0
            c1 = u0 / F0 - (F0 / bv) * b
            c2 = (q + 1) * u0 / F0 - q * (F0 / bv) * b
            expected = ((q + 1) * h0 + q * (q + 1) * np.outer(c1, c1) + np.outer(c2, c2)) / abs(
                s
            ) ** (2 * q)
            assert np.allclose(metric.tensor_many(BASE, v), expected, atol=1e-9)

    @pytest.mark.parametrize("q", [1.0, 2.0, -2.0])
    def test_matsumoto_tensor_transcription(self, q):
        E = euclid()
        b = np.array([0.5, 0.0])
        metric, _ = cb.named_family("matsumoto", E, me.constant_oneform(b), q=q)
        for v in self._samples(metric, 25, seed=103):
            F0, u0, h0 = self._pieces(E, v)
            bv = float(b @ v)
            lead = (F0 - bv) * (F0 - (q + 1) * bv) / (F0 * F0)
            c1 = bv / (F0 * F0) * u0 - b
            c2 = (F0 - (q + 1) * bv) / (F0 * F0) * u0 + q * b
            expected = (
                lead * h0 + q * (q + 1) * np.outer(c1, c1) + np.outer(c2, c2)
            ) / np.abs((F0 - bv) / F0) ** (2 * q + 2)
            assert np.allclose(metric.tensor_many(BASE, v), expected, atol=1e-9)

    def test_two_metric_matsumoto_transcription(self):
        # second-angular coefficient is q (F1 - F2)/F2: the finite-difference
        # oracle arbitrates this (an F1/F2-inflated variant fails it)
        q = 1.0
        f1 = euclid()
        f2 = me.riemann_metric(me.constant_riemann(0.04 * np.eye(2)), 2)
        metric = cb.f1f2_combine(f1, f2, cb.matsumoto_profile(q))
        for v in self._samples(metric, 25, seed=104):
            Fa, ua, ha = self._pieces(f1, v)
            Fb, ub, hb = self._pieces(f2, v)
            lead = (Fa - Fb) * (Fa - (q + 1) * Fb) / (Fa * Fa)
            c1 = Fb / (Fa * Fa) * ua - ub / Fb
            c2 = (Fa - (q + 1) * Fb) / (Fa * Fa) * ua + q * ub / Fb
            expected = (
                lead * ha
                + q * (Fa - Fb) / Fb * hb
                + q * (q + 1) * np.outer(c1, c1)
                + np.outer(c2, c2)
            ) / ((Fa - Fb) / Fa) ** (2 * q + 2)
            assert np.allclose(metric.tensor_many(BASE, v), expected, atol=1e-9)
            # the oracle rejects the inflated variant wherever F1 != F2 scales
            inflated = expected + (q * (Fa - Fb) / Fb * (Fa / Fb - 1.0)) * hb / (
                (Fa - Fb) / Fa
            ) ** (2 * q + 2)
            fd = metric.fd_tensor_many(BASE, v)
            assert np.max(np.abs(expected - fd)) < 1e-6
            assert np.max(np.abs(inflated - fd)) > 1e-2

    def test_sum_tensor_transcription(self):
        f1 = euclid()
        f2 = me.riemann_metric(me.constant_riemann(np.diag([2.0, 1.0])), 2)
        metric = cb.combine(cb.sum_combiner(2), [f1, f2], [])
        for v in self._samples(metric, 25, seed=105):
            F1, u1, h1 = self._pieces(f1, v)
            F2, u2, h2 = self._pieces(f2, v)
            F = F1 + F2
            head = u1 / F1 + u2 / F2
            expected = F * (h1 / F1 + h2 / F2) + np.outer(head, head)
            assert np.allclose(metric.tensor_many(BASE, v), expected, atol=1e-10)


class TestDeterminantFormula:
    def test_randers_spot_value(self):
        E = euclid()
        beta = me.constant_oneform([0.5, 0.0])
        tv = me.TangentVec(BASE, np.array([1.0, 0.0]))
        val = cb.det_tensor_formula(E, beta, cb.randers_profile(), tv)
        assert val == pytest.approx(3.375, abs=1e-12)
        m, _ = cb.named_family("randers", E, beta)
        assert val == pytest.approx(float(np.linalg.det(me.tensor(m, tv))), rel=1e-10)

    def test_constant_profile_gives_base_determinant(self):
        G = me.constant_riemann(np.diag([2.0, 3.0]))
        F0 = me.riemann_metric(G, 2)
        one = constant_profile()
        tv = me.TangentVec(BASE, np.array([0.4, 1.0]))
        val = cb.det_tensor_formula(F0, me.constant_oneform([0.3, 0.0]), one, tv)
        assert val == pytest.approx(6.0, rel=1e-12)

    def test_matches_direct_determinant_randomized(self):
        E = euclid()
        beta = me.constant_oneform([0.5, 0.0])
        prof = cb.matsumoto_profile(1.0)
        m = cb.phi_combine(E, beta, prof)
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 100:
            v = rng.normal(size=2)
            if not bool(m.in_domain_many(BASE, v)):
                continue
            tv = me.TangentVec(BASE, v)
            lhs = cb.det_tensor_formula(E, beta, prof, tv)
            rhs = float(np.linalg.det(me.tensor(m, tv)))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))
            checked += 1

    def test_matsumoto_degeneracy_zeroes_determinant(self):
        # with |beta| = 0.5 the transition direction is v parallel to the form,
        # where the determinant factor vanishes exactly
        E = euclid()
        beta = me.constant_oneform([0.5, 0.0])
        prof = cb.matsumoto_profile(1.0)
        tv = me.TangentVec(BASE, np.array([1.0, 0.0]))
        assert abs(cb.det_tensor_formula(E, beta, prof, tv)) < 1e-12
        # and the determinant decays to zero along a scan toward it
        vals = []
        for th in (0.2, 0.1, 0.05, 0.01):
            v = np.array([np.cos(th), np.sin(th)])
            vals.append(abs(cb.det_tensor_formula(E, beta, prof, me.TangentVec(BASE, v))))
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-2

    @pytest.mark.parametrize("family", ["randers", "matsumoto", "kropina"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_stacked_matches_per_vector(self, family, dim):
        F0 = me.riemann_metric(me.constant_riemann(np.diag(np.arange(1.0, dim + 1.0))), dim)
        beta = me.constant_oneform(np.r_[0.4, 0.2, np.zeros(dim - 2)])
        prof = cb.family_profile(family)
        m = cb.phi_combine(F0, beta, prof)
        rng = np.random.default_rng(dim)
        bases = rng.uniform(-1.0, 1.0, size=(300, dim))
        vs = rng.normal(size=(300, dim))
        keep = m.in_domain_many(bases, vs)
        bases, vs = bases[keep], vs[keep]
        stacked = cb.det_tensor_formula(F0, beta, prof, me.TangentVec(bases, vs))
        single = [cb.det_tensor_formula(F0, beta, prof, me.TangentVec(b, v)) for b, v in zip(bases, vs)]
        assert stacked.shape == (len(vs),) and all(isinstance(x, float) for x in single)
        assert np.allclose(stacked, single, rtol=1e-12, atol=0.0)


class TestCharacterization:
    def test_randers_always_true(self):
        E = euclid()
        beta = me.constant_oneform([0.5, 0.0])
        rng = np.random.default_rng(21)
        for _ in range(50):
            v = rng.normal(size=2)
            assert cb.characterization_nd(E, beta, cb.randers_profile(), me.TangentVec(BASE, v))

    def test_matsumoto_3d_bad_region(self):
        E3 = euclid(3)
        beta = me.constant_oneform([0.8, 0.0, 0.0])
        prof = cb.matsumoto_profile(1.0)
        v = np.array([1.0, 0.05, 0.05])  # s close to 0.8: (1-s)(1-2s) < 0
        assert not cb.characterization_nd(E3, beta, prof, me.TangentVec(np.zeros(3), v))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_equivalence_with_classification(self, dim):
        E = euclid(dim)
        bv = np.zeros(dim)
        bv[0] = 0.8
        beta = me.constant_oneform(bv)
        prof = cb.matsumoto_profile(1.0)
        m = cb.phi_combine(E, beta, prof)
        base = np.zeros(dim)
        rng = np.random.default_rng(23 + dim)
        checked = 0
        while checked < 300:
            v = rng.normal(size=dim)
            v /= np.linalg.norm(v)
            if not bool(m.in_domain_many(base, v)):
                continue
            tv = me.TangentVec(base, v)
            rep = eigen_classify(me.tensor(m, tv), 1e-9)
            if abs(rep.min_eigenvalue) < 1e-7 * max(np.abs(rep.eigenvalues)):
                continue
            assert cb.characterization_nd(E, beta, prof, tv) == rep.is_positive_definite
            checked += 1


    @pytest.mark.parametrize("dim", [2, 3])
    def test_stacked_matches_per_vector(self, dim):
        F0 = cb.phi_combine(euclid(dim), me.constant_oneform(np.r_[0.2, np.zeros(dim - 1)]), cb.randers_profile())
        bv = np.zeros(dim)
        bv[-1] = 0.8
        beta = me.constant_oneform(bv)
        prof = cb.matsumoto_profile(1.0)
        m = cb.phi_combine(F0, beta, prof)
        base = np.zeros(dim)
        vs = np.random.default_rng(31).normal(size=(200, dim))
        vs = vs[m.in_domain_many(base, vs)]
        stacked = cb.characterization_nd(F0, beta, prof, me.TangentVec(base, vs))
        single = [cb.characterization_nd(F0, beta, prof, me.TangentVec(base, v)) for v in vs]
        assert stacked.dtype == bool and all(type(x) is bool for x in single)
        assert list(stacked) == single and 0 < stacked.sum() < len(vs)


class TestProfileCalls:
    """One call of the profile per use: per value jet, per tensor jet and per
    determinant, with derivatives only where they are used."""

    @staticmethod
    def _counting(profile):
        calls = []

        def counted(s, with_derivatives):
            calls.append(with_derivatives)
            return profile.jet_fn(s, with_derivatives)

        return replace(profile, jet_fn=counted), calls

    @pytest.mark.parametrize("make", [lambda: cb.matsumoto_profile(1.0), lambda: cb.kropina_profile(2.0)])
    def test_calls_per_tensor_jet_and_profile_state(self, make):
        prof, calls = self._counting(make())
        beta = me.constant_oneform([0.5, 0.0])
        vs = np.random.default_rng(3).normal(size=(7, 2))
        upper = me.oneform_metric(beta, 2)
        for metric in (cb.phi_combine(euclid(), beta, prof), cb.f1f2_combine(euclid(), upper, prof)):
            for method, with_derivatives in (("F_many", False), ("in_domain_many", False), ("tensor_many", True)):
                calls.clear()
                getattr(metric, method)(BASE, vs)
                assert calls == [with_derivatives]
        metric = cb.phi_combine(euclid(), beta, prof)
        vs = vs[metric.in_domain_many(BASE, vs)]
        calls.clear()
        cb.det_tensor_formula(euclid(), beta, prof, me.TangentVec(BASE, vs))
        assert calls == [True]


class TestLawCalls:
    """One call of the combination law per evaluation of a combine node."""

    @pytest.mark.parametrize("method", ["F_many", "tensor_many"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: cb.sum_combiner(2),
            lambda: cb.power_combiner(2, 1, 1.5),
            lambda: cb._profile_law(cb.randers_profile(), 1, 1),
            lambda: cb._profile_law(cb.kropina_profile(2.0), 1, 1),
            lambda: cb._profile_law(cb.matsumoto_profile(1.0), 2, 0),
        ],
        ids=["sum", "power", "randers", "kropina2", "matsumoto_f1f2"],
    )
    def test_one_law_call_per_evaluation(self, make, method):
        law = make()
        calls = [0]

        def counting(x, p, with_derivatives):
            calls[0] += 1
            return law.jet_fn(x, p, with_derivatives)

        counted = replace(law, jet_fn=counting)
        # two different metrics: equal ones put a two-metric Matsumoto law on its pole s = 1
        metrics = [euclid(), me.riemann_metric(me.constant_riemann(0.04 * np.eye(2)), 2)][: law.n]
        metric = cb.combine(counted, metrics, [me.constant_oneform([0.5, 0.0])] * law.m)
        vs = np.random.default_rng(3).normal(size=(7, 2))
        calls[0] = 0
        getattr(metric, method)(BASE, vs)
        assert calls[0] == 1
        calls[0] = 0
        cb.check_conditions_ABC(counted, np.linspace(1.0, 0.5, law.n + law.m))
        assert calls[0] == 1


class TestReversibilize:
    def test_reversible_input_scales(self):
        E = euclid()
        rs = cb.reversibilize(E, "sum")
        rq = cb.reversibilize(E, "quadratic")
        v = np.array([3.0, 4.0])
        assert float(rs.F_many(BASE, v)) == pytest.approx(10.0)
        assert float(rq.F_many(BASE, v)) == pytest.approx(5.0 * np.sqrt(2.0))

    def test_randers_reversibilizations(self):
        E = euclid()
        beta = me.constant_oneform([0.5, 0.0])
        rd, _ = cb.named_family("randers", E, beta)
        rs = cb.reversibilize(rd, "sum")
        rq = cb.reversibilize(rd, "quadratic")
        rng = np.random.default_rng(27)
        for _ in range(40):
            v = rng.normal(size=2)
            alpha = float(np.linalg.norm(v))
            bv = 0.5 * v[0]
            assert float(rs.F_many(BASE, v)) == pytest.approx(2.0 * alpha, rel=1e-12)
            assert float(rq.F_many(BASE, v)) ** 2 == pytest.approx(
                2.0 * alpha**2 + 2.0 * bv**2, rel=1e-12
            )

    def test_outputs_reversible_exactly(self):
        E = euclid()
        rd, _ = cb.named_family("randers", E, me.constant_oneform([0.3, 0.2]))
        rs = cb.reversibilize(rd, "sum")
        rq = cb.reversibilize(rd, "quadratic")
        rng = np.random.default_rng(29)
        vs = rng.normal(size=(50, 2))
        b = np.zeros((50, 2))
        assert np.array_equal(rs.F_many(b, vs), rs.F_many(b, -vs))
        assert np.array_equal(rq.F_many(b, vs), rq.F_many(b, -vs))

    def test_recovery_identity(self):
        E = euclid()
        rd, _ = cb.named_family("randers", E, me.constant_oneform([0.5, 0.0]))
        rs = cb.reversibilize(rd, "sum")
        rq = cb.reversibilize(rd, "quadratic")
        rng = np.random.default_rng(31)
        vs = rng.normal(size=(200, 2))
        b = np.zeros((200, 2))
        ft = rs.F_many(b, vs)
        fh = rq.F_many(b, vs)
        f = rd.F_many(b, vs)
        fm = rd.F_many(b, -vs)
        sign = np.where(f >= fm, 1.0, -1.0)
        recovered = 0.5 * (ft + sign * np.sqrt(np.maximum(2.0 * fh**2 - ft**2, 0.0)))
        assert np.max(np.abs(recovered - f)) < 1e-10

    def test_conic_domain_rejected(self):
        lorentz_like = me.oneform_metric(me.constant_oneform([0.0, 1.0]), 2)
        with pytest.raises(OutsideDomain):
            cb.reversibilize(lorentz_like, "sum")

    def test_tensors_against_oracle(self):
        E = euclid()
        rd, _ = cb.named_family("randers", E, me.constant_oneform([0.5, 0.0]))
        for mode in ("sum", "quadratic"):
            m = cb.reversibilize(rd, mode)
            assert oracle_gap(m, count=40, seed=33) < 1e-6

    @pytest.mark.parametrize("with_tensor", [False, True])
    def test_reflection_keeps_broadcast_vectors(self, with_tensor):
        """On a graph block's stack (one velocity per edge, broadcast over its
        points) the reflected child of a position-dependent Riemannian metric
        gets -v with the point axis still stride 0, and the jet has the bits of
        negating the whole stack."""

        def matrix(x):  # the riemann_posdep field
            g = np.empty(x.shape + (2,))
            g[..., 0, 0] = 1.0 + 0.3 * np.sin(x[..., 0]) ** 2
            g[..., 0, 1] = g[..., 1, 0] = 0.1 * np.cos(x[..., 1])
            g[..., 1, 1] = 1.0 + 0.2 * np.cos(x[..., 1])
            return g

        inner = me.riemann_metric(me.RiemannAtom(metric_matrix=matrix), 2)
        seen = []

        def spy(base, vec, wt):
            seen.append(vec.strides)
            return inner.jet_fn(base, vec, wt)

        whole = replace(inner, jet_fn=lambda base, vec, wt: inner.jet_fn(base, -vec, wt))
        reference = cb.combine(cb.sum_combiner(2), [inner, whole], [])
        m = cb.reversibilize(replace(inner, jet_fn=spy), "sum")
        rng = np.random.default_rng(41)
        base = rng.uniform(-1.0, 1.0, size=(40, 9, 2))
        vec = np.broadcast_to(rng.normal(size=(40, 1, 2)), base.shape)
        seen.clear()
        got, want = m.jet(base, vec, with_tensor), reference.jet(base, vec, with_tensor)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert len(seen) == 2 and all(strides[-2] == 0 for strides in seen)


class TestZeroInDomain:
    """The zero vector is in a combined metric's domain only where the law admits beta = 0."""

    FORM = me.constant_oneform([0.5, 0.0])

    def test_kropina_excludes_the_form_kernel(self):
        kropina, _ = cb.named_family("kropina", euclid(), self.FORM)
        assert not kropina.zero_in_domain
        assert not bool(kropina.in_domain_many(BASE, np.array([0.0, 1.0])))
        with pytest.raises(OutsideDomain):
            me.eval_F(kropina, me.TangentVec(BASE, [0.0, 0.0]))

    def test_low_power_with_form_excludes_the_kernel(self):
        m = cb.power_q_combine([euclid()], [me.constant_oneform([0.2, 0.1])], 1.5)
        assert not m.zero_in_domain

    def test_reversibilized_kropina_rejected(self):
        kropina, _ = cb.named_family("kropina", euclid(), self.FORM)
        with pytest.raises(OutsideDomain):
            cb.reversibilize(kropina, "sum")

    def test_full_domains_keep_the_zero_vector(self):
        randers, _ = cb.named_family("randers", euclid(), self.FORM)
        matsumoto, _ = cb.named_family("matsumoto", euclid(), self.FORM)
        power2 = cb.power_q_combine([euclid()], [me.constant_oneform([0.2, 0.1])], 2.0)
        # no form, so the law is not probed at (1, 1), the pole s = 1 of this profile
        f1f2 = cb.f1f2_combine(euclid(), me.riemann_metric(me.constant_riemann(0.04 * np.eye(2)), 2),
                               cb.matsumoto_profile(1.0))
        for m in (randers, matsumoto, power2, cb.reversibilize(randers, "quadratic"), f1f2):
            assert m.zero_in_domain, m.name
            assert me.eval_F(m, me.TangentVec(BASE, [0.0, 0.0])) == 0.0


def test_position_dependent_combination_does_not_claim_the_zero_vector():
    """b(x) = (2x, 0) vanishes at the origin, where the probe finds every
    direction admissible, but at (1, 0) the Randers cone excludes (-1, 0)."""
    form = me.OneFormAtom(covector=lambda x: np.stack([2.0 * x[..., 0], np.zeros_like(x[..., 0])], axis=-1))
    randers, _ = cb.named_family("randers", euclid(), form)
    assert not randers.zero_in_domain
    assert not bool(randers.in_domain_many([1.0, 0.0], [-1.0, 0.0]))
    with pytest.raises(OutsideDomain):
        me.eval_F_many(randers, [1.0, 0.0], [0.0, 0.0])
    with pytest.raises(OutsideDomain, match="whole tangent space"):
        cb.reversibilize(randers, "sum")
    # an atom is not a combination: its domain is the whole tangent space at every base point
    atom = me.riemann_metric(me.RiemannAtom(lambda x: (1.0 + 0.1 * np.sin(x[..., :1, None])) * np.eye(2)), 2)
    assert not atom.position_independent and atom.zero_in_domain
    assert me.eval_F_many(atom, [1.0, 0.0], [0.0, 0.0]) == 0.0


class TestOnePass:
    """Each node calls each child's jet once, so every atom is evaluated once per call."""

    @staticmethod
    def depth3_tree():
        rd, _ = cb.named_family("randers", euclid(), me.constant_oneform([0.5, 0.0]))
        return cb.power_q_combine([cb.reversibilize(rd, "sum"), rd], [me.constant_oneform([0.2, 0.1])], 2.0)

    @staticmethod
    def randers_posdep():
        def bcoef(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape)
            out[..., 0] = 0.3 * (1.0 + 0.2 * np.sin(x[..., 0]))
            return out

        return cb.named_family("randers", euclid(), me.OneFormAtom(covector=bcoef))[0]

    @pytest.mark.parametrize("method", ["F_many", "in_domain_many", "tensor_many"])
    @pytest.mark.parametrize(
        "tree, expected",
        [("depth3_tree", (3, 4)), ("randers_posdep", (1, 1))],
        ids=["depth3_tree", "randers_posdep"],
    )
    def test_atom_calls_per_top_level_call(self, monkeypatch, method, tree, expected):
        metric = getattr(self, tree)()
        calls = {"matrix": 0, "coeffs": 0}

        def counted(cls, name):
            inner = getattr(cls, name)

            def wrapper(atom, x):
                calls[name] += 1
                return inner(atom, x)

            monkeypatch.setattr(cls, name, wrapper)

        counted(me.RiemannAtom, "matrix")
        counted(me.OneFormAtom, "coeffs")
        rng = np.random.default_rng(3)
        getattr(metric, method)(rng.uniform(-1, 1, size=(50, 2)), rng.normal(size=(50, 2)))
        assert (calls["matrix"], calls["coeffs"]) == expected
