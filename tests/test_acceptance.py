"""Acceptance gate: every numbered criterion printed as one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The
only expected failure is the resolution-81 Lorentz separation bound,
which sits below the provable discrete floor of the grid construction
(see the strict xfail on test_criterion_06d for the argument).
"""

import time

import numpy as np
import pytest

from finslerkit import combinators as cb
from finslerkit import geodesy as gd
from finslerkit import metrics as me
from finslerkit import minkowski as mk
from finslerkit.numkernel import eigen_classify


def _line(cid: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {cid}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


def _unit_samples_batch(m, count, seed, margin_fn=None, scale_range=None):
    rng = np.random.default_rng(seed)
    dim = m.dimension
    base = np.zeros(dim)
    rows = []
    while len(rows) < count:
        vs = rng.normal(size=(4 * count, dim))
        vs /= np.linalg.norm(vs, axis=-1, keepdims=True)
        ok = m.in_domain_many(np.zeros_like(vs), vs)
        if margin_fn is not None:
            ok = ok & margin_fn(vs)
        rows.extend(vs[ok])
    vs = np.array(rows[:count])
    if scale_range is not None:
        scales = rng.uniform(*scale_range, size=(count, 1))
        vs = vs * scales
    return vs


def _family_matrix(dim):
    """(name, metric, margin) triples for the oracle-equivalence gate."""
    E = me.euclidean_metric(dim)
    bvec = np.zeros(dim)
    bvec[0] = 0.5
    beta = me.constant_oneform(bvec)
    out = []
    for b in (0.1, 0.5, 0.9):
        bv = np.zeros(dim)
        bv[0] = b
        metric, _ = cb.named_family("randers", E, me.constant_oneform(bv))
        out.append((f"randers[b={b}]", metric, None))
    for q in (0.5, 1.0, 2.0):
        metric, _ = cb.named_family("kropina", E, beta, q=q)
        margin = lambda vs: np.abs(0.5 * vs[..., 0]) > 0.2
        out.append((f"kropina[q={q}]", metric, margin))
    for q in (1.0, 2.0, -2.0):
        metric, _ = cb.named_family("matsumoto", E, beta, q=q)
        out.append((f"matsumoto[q={q}]", metric, None))
    stretched = me.riemann_metric(
        me.constant_riemann(np.diag(np.linspace(1.0, 2.0, dim))), dim
    )
    out.append(("sum", cb.combine(cb.sum_combiner(2), [E, stretched], []), None))
    for q in (1.0, 2.0, 3.0):
        metric = cb.power_q_combine([E], [beta], q)
        margin = (lambda vs: np.abs(0.5 * vs[..., 0]) > 0.1) if q < 2 else None
        out.append((f"power[q={q}]", metric, margin))
    small = me.riemann_metric(me.constant_riemann(0.04 * np.eye(dim)), dim)
    out.append(("f1f2-matsumoto", cb.f1f2_combine(E, small, cb.matsumoto_profile(1.0)), None))
    return out


def test_criterion_01_oracle_equivalence_master():
    t0 = time.monotonic()
    worst = 0.0
    worst_name = ""
    for dim in (2, 3):
        for k, (name, metric, margin) in enumerate(_family_matrix(dim)):
            vs = _unit_samples_batch(metric, 1000, seed=100 + k + 10 * dim, margin_fn=margin)
            bases = np.zeros_like(vs)
            ga = metric.tensor_many(bases, vs)
            gf = metric.fd_tensor_many(bases, vs)
            scale = np.maximum(1.0, np.max(np.abs(gf), axis=(-2, -1)))
            err = float(np.max(np.max(np.abs(ga - gf), axis=(-2, -1)) / scale))
            worst = max(worst, err)
            if err == worst:
                worst_name = f"{name} (N={dim})"
    elapsed = time.monotonic() - t0
    _line(
        "1",
        worst <= 1e-6 and elapsed < 30.0,
        f"analytic vs FD tensor, worst rel err {worst:.3g} at {worst_name}, "
        f"{elapsed:.1f}s for 28k samples (budget 30s)",
    )


def test_criterion_02_convexity_domains():
    E = me.euclidean_metric(2)
    base = np.zeros(2)
    beta = me.constant_oneform([0.5, 0.0])

    # Matsumoto q=1, b=0.5: the strong-convexity product vanishes only along
    # the form direction; the classified boundary must sit within 1e-3 rad.
    mt, _ = cb.named_family("matsumoto", E, beta, q=1)
    rep0 = me.classify_point(mt, me.TangentVec(base, np.array([1.0, 0.0])), 1e-9)
    boundary_ok = not rep0.is_positive_definite
    for th in np.concatenate([[1e-3, -1e-3], np.linspace(0.01, 2 * np.pi - 0.01, 629)]):
        v = np.array([np.cos(th), np.sin(th)])
        rep = me.classify_point(mt, me.TangentVec(base, v), 1e-9)
        if not rep.is_positive_definite:
            boundary_ok = boundary_ok and (min(abs(th), abs(2 * np.pi - th)) <= 1e-3)

    kp, _ = cb.named_family("kropina", E, beta, q=1)
    dirs, in_domain, rep = me.convexity_scan(kp, base, 720, 1e-9)
    off_kernel = np.abs(0.5 * dirs[in_domain, 0]) > 1e-6
    kropina_ok = bool(np.all(rep.is_positive_definite[off_kernel]))

    rd, _ = cb.named_family("randers", E, beta)
    _, in_domain, rep = me.convexity_scan(rd, base, 720, 1e-9)
    randers_ok = bool(np.all(in_domain) and np.all(rep.is_positive_definite))

    _line(
        "2",
        boundary_ok and kropina_ok and randers_ok,
        f"matsumoto boundary within 1e-3 rad: {boundary_ok}, "
        f"kropina PD off kernel: {kropina_ok}, randers PD everywhere: {randers_ok}",
    )


def test_criterion_03_characterization_iff():
    mismatches = 0
    total = 0
    for dim in (2, 3):
        E = me.euclidean_metric(dim)
        base = np.zeros(dim)
        cases = []
        bv = np.zeros(dim)
        bv[0] = 0.5
        cases.append((me.constant_oneform(bv), cb.randers_profile()))
        cases.append((me.constant_oneform(bv), cb.kropina_profile(1.0)))
        bw = np.zeros(dim)
        bw[0] = 0.8
        cases.append((me.constant_oneform(bw), cb.matsumoto_profile(1.0)))
        rng = np.random.default_rng(31 + dim)
        for beta, profile in cases:
            m = cb.phi_combine(E, beta, profile)
            count = 0
            while count < 334:
                v = rng.normal(size=dim)
                v /= np.linalg.norm(v)
                if not bool(m.in_domain_many(base, v)):
                    continue
                tv = me.TangentVec(base, v)
                rep = eigen_classify(me.tensor(m, tv), 1e-9)
                if abs(rep.min_eigenvalue) < 1e-7 * float(np.max(np.abs(rep.eigenvalues))):
                    continue
                total += 1
                if cb.characterization_nd(E, beta, profile, tv) != rep.is_positive_definite:
                    mismatches += 1
                count += 1
    _line("3", mismatches == 0 and total >= 2000, f"{mismatches} mismatches on {total} samples")


def test_criterion_04_determinant_formula():
    E = me.euclidean_metric(2)
    base = np.zeros(2)
    beta05 = me.constant_oneform([0.5, 0.0])
    spot = cb.det_tensor_formula(
        E, beta05, cb.randers_profile(), me.TangentVec(base, np.array([1.0, 0.0]))
    )
    spot_ok = abs(spot - 3.375) < 1e-12

    worst = 0.0
    total = 0
    cases = [
        (me.constant_oneform([0.5, 0.0]), cb.randers_profile(), None),
        (me.constant_oneform([0.5, 0.0]), cb.kropina_profile(1.0), 0.05),
        (me.constant_oneform([0.8, 0.0]), cb.matsumoto_profile(1.0), None),
    ]
    rng = np.random.default_rng(41)
    for beta, profile, margin in cases:
        m = cb.phi_combine(E, beta, profile)
        count = 0
        while count < 334:
            v = rng.normal(size=2)
            if not bool(m.in_domain_many(base, v)):
                continue
            s = float(beta.pair(base, v)) / float(E.F_many(base, v))
            if margin is not None and abs(s) < margin:
                continue
            tv = me.TangentVec(base, v)
            lhs = cb.det_tensor_formula(E, beta, profile, tv)
            rhs = float(np.linalg.det(me.tensor(m, tv)))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
            count += 1
            total += 1
    _line(
        "4",
        spot_ok and worst <= 1e-8 and total >= 1000,
        f"spot value 3.375 ok: {spot_ok}, worst rel err {worst:.3g} on {total} samples",
    )


def test_criterion_05_paper_example_values():
    eps = 0.1
    spiral = mk.gauge_from_curve(mk.spiral_curve(eps))
    u = np.array([0.0, 2.0 * np.sin(2 * eps)])
    gauge_ok = abs(float(spiral.value(u)) - 4.0 * np.sin(2 * eps) / np.pi) < 1e-10

    eps2 = 0.02
    spiral2 = mk.gauge_from_curve(mk.spiral_curve(eps2))
    u2 = np.array([0.0, 2.0 * np.sin(2 * eps2)])
    v2 = np.array([np.cos(2 * eps2), -np.sin(2 * eps2)])
    triangle_ok = mk.triangle_report(spiral2, u2, v2) is mk.TriangleVerdict.VIOLATED

    lorentz = mk.gauge_from_curve(mk.lorentz_curve())
    rng = np.random.default_rng(53)
    reverse_ok = True
    count = 0
    while count < 1000:
        pair = rng.normal(size=(2, 2))
        if not np.all(lorentz.member(pair)):
            continue
        a = float(lorentz.value(pair[0]))
        b = float(lorentz.value(pair[1]))
        c = float(lorentz.value(pair[0] + pair[1]))
        reverse_ok = reverse_ok and (c >= a + b - 1e-9 * max(1.0, a + b))
        count += 1
    _line(
        "5",
        gauge_ok and triangle_ok and reverse_ok,
        f"spiral gauge 1e-10: {gauge_ok}, triangle violation: {triangle_ok}, "
        f"reverse triangle on 1000 timelike pairs: {reverse_ok}",
    )


def _lorentz_separations():
    metric = me.minkowski_metric(mk.gauge_from_curve(mk.lorentz_curve()))
    box = (np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    vals = []
    for res, rad in ((21, 10), (41, 20), (81, 40)):
        graph = gd.build_separation_graph(metric, box, res, rad)
        vals.append(gd.separation(graph, np.zeros(2), np.array([0.0, 2.0])).value)
    return vals


def test_criterion_06_separation_desk_scale():
    t0 = time.monotonic()
    E = me.euclidean_metric(2)
    graph = gd.build_separation_graph(E, (np.zeros(2), np.array([3.0, 4.0])), 41, 3)
    sep_e = gd.separation(graph, np.zeros(2), np.array([3.0, 4.0])).value
    euclid_ok = abs(sep_e - 5.0) / 5.0 <= 0.02

    vals = _lorentz_separations()
    decreasing_ok = vals[0] > vals[1] > vals[2]

    metric = me.minkowski_metric(mk.gauge_from_curve(mk.lorentz_curve()))
    g2 = gd.build_separation_graph(
        metric, (np.array([-1.0, 0.0]), np.array([3.0, 2.0])), 21, 2
    )
    unreachable = gd.separation(g2, np.zeros(2), np.array([3.0, 1.0]))
    inf_ok = np.isinf(unreachable.value) and unreachable.witness_path.shape[0] == 0

    elapsed = time.monotonic() - t0
    _line(
        "6 (a-c)",
        euclid_ok and decreasing_ok and inf_ok and elapsed < 60.0,
        f"euclid sep {sep_e:.4f} (2% of 5): {euclid_ok}, lorentz "
        f"{[round(v, 4) for v in vals]} strictly decreasing: {decreasing_ok}, "
        f"unreachable +inf: {inf_ok}, {elapsed:.1f}s (budget 60s)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated bound sep < 0.2 at resolution 81 is below the provable discrete "
        "floor: every admissible grid edge (p, q) in integer steps has F-length "
        "sqrt(q^2 - p^2) h >= sqrt(2 q - 1) h, so any grid path from (0,0) to "
        "(0,2) costs at least 2 sqrt(2h - h^2) = 0.4444 at h = 0.025, for every "
        "neighbor radius; the bound needs h <= 0.005 (resolution 401, radius "
        "200, ~3e9 edges), far outside the stated runtime budget"
    ),
)
def test_criterion_06d_lorentz_res81_bound():
    vals = _lorentz_separations()
    ok = vals[2] < 0.2
    _line("6 (d)", ok, f"lorentz sep at res 81 = {vals[2]:.4f}, required < 0.2")


def test_criterion_07_geodesics():
    E = me.euclidean_metric(2)
    rd, _ = cb.named_family("randers", E, me.constant_oneform([0.5, 0.0]))
    spiral = me.minkowski_metric(mk.gauge_from_curve(mk.spiral_curve(0.1)))
    lorentz = me.minkowski_metric(mk.gauge_from_curve(mk.lorentz_curve()))

    straight_ok = True
    for metric, v in ((E, [1.2, -0.7]), (rd, [0.8, 0.4]), (spiral, [0.0, 1.0]), (lorentz, [0.3, 1.1])):
        start = gd.GeodesicState([0.05, 0.1], v, 0.0)
        states = gd.geodesic_shoot(metric, start, 1.0, 0.02)
        for s in states:
            expected = np.array([0.05, 0.1]) + s.parameter * np.array(v)
            straight_ok = straight_ok and np.max(np.abs(s.position - expected)) < 1e-8

    def bcoef(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., 0] = 0.3 * (1.0 + 0.2 * np.sin(x[..., 0]))
        return out

    rd_var, _ = cb.named_family("randers", E, me.OneFormAtom(covector=bcoef))
    speed_ok = True
    for metric, v in ((rd, [0.8, 0.4]), (rd_var, [1.0, 0.3])):
        states = gd.geodesic_shoot(metric, gd.GeodesicState([0.0, 0.0], v, 0.0), 1.0, 0.01)
        speeds = np.array(
            [me.eval_F(metric, me.TangentVec(s.position, s.velocity)) for s in states]
        )
        speed_ok = speed_ok and np.max(np.abs(speeds - speeds[0])) < 1e-6 * speeds[0]

    exp_ok = True
    for metric, v in ((rd, [0.8, 0.4]), (spiral, [0.1, 1.3]), (lorentz, [0.3, 1.1])):
        end = gd.exp_map(metric, [0.2, 0.3], v)
        exp_ok = exp_ok and np.max(np.abs(end - (np.array([0.2, 0.3]) + np.array(v)))) < 1e-6

    _line(
        "7",
        straight_ok and speed_ok and exp_ok,
        f"straightness < 1e-8: {straight_ok}, speed drift < 1e-6: {speed_ok}, "
        f"exp inversion < 1e-6: {exp_ok}",
    )


def test_criterion_08_gauss_lemma():
    E = me.euclidean_metric(2)

    def bcoef(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., 0] = 0.3 * (1.0 + 0.2 * np.sin(x[..., 0]))
        return out

    rd_var, _ = cb.named_family("randers", E, me.OneFormAtom(covector=bcoef))
    rng = np.random.default_rng(61)
    vs = rng.normal(size=(100, 2))
    ws = rng.normal(size=(100, 2))
    res = gd.gauss_residuals(rd_var, np.array([0.2, -0.1]), vs, ws, step=0.005)
    worst = float(np.max(np.abs(res)))
    _line("8", worst < 1e-4, f"max |residual| over 100 pairs: {worst:.3g}")


def test_criterion_09_radial_minimality():
    E = me.euclidean_metric(2)
    rd, _ = cb.named_family("randers", E, me.constant_oneform([0.5, 0.0]))
    rep_e = gd.radial_minimality_test(E, [0.0, 0.0], radius=1.0, trials=200, seed=71)
    rep_r = gd.radial_minimality_test(rd, [0.0, 0.0], radius=1.0, trials=200, seed=72)
    ok = rep_e.min_ratio >= 1.0 - 1e-6 and rep_r.min_ratio >= 1.0 - 1e-6
    _line(
        "9",
        ok and rep_e.counted == 200 and rep_r.counted == 200,
        f"min ratios {rep_e.min_ratio:.8f} (euclid), {rep_r.min_ratio:.8f} (randers), "
        f"200 counted trials each",
    )


def test_criterion_10_reversibilization():
    E = me.euclidean_metric(2)
    rd, _ = cb.named_family("randers", E, me.constant_oneform([0.5, 0.0]))
    rs = cb.reversibilize(rd, "sum")
    rq = cb.reversibilize(rd, "quadratic")
    rng = np.random.default_rng(83)
    vs = rng.normal(size=(1000, 2))
    b = np.zeros((1000, 2))
    ft = rs.F_many(b, vs)
    fh = rq.F_many(b, vs)
    f = rd.F_many(b, vs)
    fm = rd.F_many(b, -vs)
    sign = np.where(f >= fm, 1.0, -1.0)
    recovered = 0.5 * (ft + sign * np.sqrt(np.maximum(2.0 * fh**2 - ft**2, 0.0)))
    worst = float(np.max(np.abs(recovered - f)))
    _line("10", worst < 1e-10, f"recovery identity worst abs err {worst:.3g} on 1000 samples")


def test_criterion_11_curve_convexity_sign():
    # the scalar convexity of an indicatrix has the sign of det g of its gauge's
    # metric in the same direction; angles near an inflection (|kappa| < 1.5e-3) are skipped
    curves = {
        "lorentz": mk.lorentz_curve(),
        "spiral": mk.spiral_curve(0.1),
        "parabola": mk.downward_parabola_curve(),
        "sqrt_parabola": mk.sqrt_parabola_curve(),
        "wavy": mk.wavy_curve(0.3, 3),
    }
    mismatches, counted, concave = 0, 0, 0
    for curve in curves.values():
        lo, hi = curve.theta_range or (0.0, 2 * np.pi)
        th = np.linspace(lo, hi, 2003)[1:-1]
        kappa = mk.curve_convexity(curve, th)
        v = np.stack([np.cos(th), np.sin(th)], axis=-1)
        g = me.tensor(me.minkowski_metric(mk.gauge_from_curve(curve)), me.TangentVec(np.zeros_like(v), v))
        away = np.abs(kappa) >= 1.5e-3
        mismatches += int(np.sum(np.sign(np.linalg.det(g[away])) != np.sign(kappa[away])))
        counted += int(np.sum(away))
        concave += int(np.sum(kappa[away] < 0.0))
    _line(
        "11",
        mismatches == 0 and counted >= 5 * 1990,
        f"sign(curve_convexity) = sign(det g) on {counted} angles of {len(curves)} curves "
        f"({concave} concave): {mismatches} mismatches",
    )


def test_criterion_12_conditions_abc_sufficient():
    # conditions A-C of the law at (F_1..F_n, beta_1..beta_m) imply a positive
    # definite combination of positive definite ingredients; not conversely
    # (Matsumoto q=1 at b=0.8 is positive definite where A fails)
    E = me.euclidean_metric(2)
    beta = me.constant_oneform([0.5, 0.0])
    stretched = me.riemann_metric(me.constant_riemann(np.diag([1.0, 2.0])), 2)
    small = me.riemann_metric(me.constant_riemann(0.04 * np.eye(2)), 2)
    cases = {
        "sum": (cb.sum_combiner(2), [E, stretched], []),
        **{f"power[q={q:g}]": (cb.power_combiner(1, 1, q), [E], [beta]) for q in (1.0, 2.0, 3.0)},
        "randers": (cb._profile_law(cb.randers_profile(), 1, 1), [E], [beta]),
        "kropina": (cb._profile_law(cb.kropina_profile(1.0), 1, 1), [E], [beta]),
        "matsumoto[q=1]": (cb._profile_law(cb.matsumoto_profile(1.0), 1, 1), [E], [me.constant_oneform([0.8, 0.0])]),
        "matsumoto[q=-2]": (cb._profile_law(cb.matsumoto_profile(-2.0), 1, 1), [E], [beta]),
        "f1f2-matsumoto": (cb._profile_law(cb.matsumoto_profile(1.0), 2, 0), [E, small], []),
    }
    dirs = me.unit_directions(2, 4000)
    counterexamples, counts = 0, {}
    for name, (law, metrics, forms) in cases.items():
        m = cb.combine(law, metrics, forms)
        base = np.zeros_like(dirs)
        ok = m.in_domain_many(base, dirs)
        # off the forms' kernel, as in criterion 2: at beta(v) ~ 1e-17 the Kropina tensor's
        # eigenvalues span 33 orders, which the relative tolerance classifies as degenerate
        for fm in forms:
            ok = ok & (np.abs(fm.pair(base, dirs)) > 1e-6)
        base, vs = base[ok], dirs[ok]
        args = [mt.F_many(base, vs) for mt in metrics] + [fm.pair(base, vs) for fm in forms]
        points = np.stack(args, axis=-1)
        passed = np.array([cb.check_conditions_ABC(law, p).all_ok for p in points])
        pd = me.classify_point(m, me.TangentVec(base, vs)).is_positive_definite
        counterexamples += int(np.sum(passed & ~pd))
        counts[name] = (int(np.sum(passed)), int(np.sum(pd)), len(vs))
    _line(
        "12",
        counterexamples == 0 and min(c[0] for c in counts.values()) > 0,
        f"{counterexamples} directions pass A-C without a positive definite tensor over {len(cases)} laws; "
        f"matsumoto[q=1]: {counts['matsumoto[q=1]'][0]} pass A-C, {counts['matsumoto[q=1]'][1]} "
        f"positive definite of {counts['matsumoto[q=1]'][2]} directions",
    )
