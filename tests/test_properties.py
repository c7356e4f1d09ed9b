"""Property tests over random metric trees of depth <= 3.

Leaves are Euclidean and Randers metrics; nodes are sums, q-power means,
reversibilizations and (F1, F2) profile combinations.  Each tree comes with
a predicate that keeps sample vectors whose profile ratios stay away from
the profile endpoints, where the finite-difference oracle loses accuracy.
Separation graphs on random position-independent trees are held to the
triangle inequality, nested balls, the offset envelope (qhull's hull as the
reference of the sector chords), the contract of separations read off the
displacement tables of convex 2-D tables, reversal (the graph of v -> F(-v)
is the transpose), the rounding bound of dropping ties from ``query`` and,
on convex trees, the straight-line length.  Profile and curve jets are held bit for bit
to the three callables each was built from before it became one call.
Finite-difference tensors next to a cone's edge do not depend on the batch a
row comes in, and value jets on stacks with repeated (stride-0) vectors equal
those on contiguous copies.  Geodesics on random position-dependent trees
are homogeneous in their initial velocity and keep their speed.
"""

import contextlib
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from finslerkit import cli
from finslerkit import combinators as cb
from finslerkit import geodesy as gd
from finslerkit import metrics as me
from finslerkit import minkowski as mk
from finslerkit.errors import FinslerError, NonFiniteSample
from finslerkit.numkernel import HESS_STEP, _hessian_stencil, eigen_classify

from conftest import assert_sector_separation, boxed, tie_excess_bound, unit_circle_curve

PROFILE_MARGIN = 0.15  # as the CLI oracle's default interior margin
# The step-eps^(1/4) FD Hessian is good to about 1e-7 on these trees (worst
# of 400 random ones: 3.3e-7); closed-form mistakes show up at 1e-3 or more.
ORACLE_TOL = 1e-5
PROFILES = {
    "randers": cb.randers_profile,
    "matsumoto": cb.matsumoto_profile,
    "square_over_f0": cb.square_over_f0_profile,
}


def _everywhere(base, vec):
    return np.ones(np.broadcast(base[..., 0], vec[..., 0]).shape, dtype=bool)


@st.composite
def leaves(draw, posdep=True):
    """(metric, margin predicate) for a Euclidean or Randers leaf; a Randers
    leaf's form depends on the position only with ``posdep``."""
    if draw(st.booleans()):
        return me.euclidean_metric(2), _everywhere
    b = np.array(draw(st.tuples(*[st.floats(-0.4, 0.4)] * 2)))
    return _randers_leaf(b, posdep and not draw(st.booleans())), _everywhere


def _randers_leaf(b, posdep):
    """Randers over Euclidean with the form b, times 1 + 0.2 sin(x + y) with ``posdep``."""
    if not posdep:
        return cb.phi_combine(me.euclidean_metric(2), me.constant_oneform(b), cb.randers_profile())

    def covector(x):
        x = np.asarray(x, dtype=float)
        return b * (1.0 + 0.2 * np.sin(x[..., :1] + x[..., 1:]))

    return cb.phi_combine(me.euclidean_metric(2), me.OneFormAtom(covector=covector), cb.randers_profile())


@st.composite
def trees(draw, depth=3, posdep=True, f1f2=True):
    """(metric, margin predicate) for a tree with at most ``depth`` node levels;
    without ``posdep`` it is position-independent, without ``f1f2`` it has no
    (F1, F2) node, and so is convex."""
    kinds = ["leaf", "sum", "power_q", "reversibilize"] + ["f1f2"] * f1f2
    kind = draw(st.sampled_from(kinds if depth else ["leaf"]))
    if kind == "leaf":
        return draw(leaves(posdep))
    sub = trees(depth - 1, posdep, f1f2)
    if kind == "reversibilize":
        inner, margin = draw(sub)
        mode = draw(st.sampled_from(["sum", "quadratic"]))
        try:
            metric = cb.reversibilize(inner, mode)
        except FinslerError:
            assume(False)
        return metric, lambda base, vec: margin(base, vec) & margin(base, -vec)
    if kind == "f1f2":
        (f1, m1), (f2, m2) = draw(sub), draw(sub)
        profile = PROFILES[draw(st.sampled_from(sorted(PROFILES)))]()
        try:
            metric = cb.f1f2_combine(f1, f2, profile)
        except FinslerError:
            assume(False)

        def margin(base, vec):
            s = f2.F_many(base, vec) / f1.F_many(base, vec)
            clear = np.zeros(s.shape, dtype=bool)
            for lo, hi in profile.intervals:
                clear |= (s > lo + PROFILE_MARGIN) & (s < hi - PROFILE_MARGIN)
            return clear & m1(base, vec) & m2(base, vec)

        return metric, margin
    kids = draw(st.lists(sub, min_size=1, max_size=3))
    metrics = [k[0] for k in kids]

    def margin(base, vec):
        return np.logical_and.reduce([k[1](base, vec) for k in kids])

    if kind == "sum":
        build = lambda: cb.combine(cb.sum_combiner(len(metrics)), metrics, [])
    else:
        q = draw(st.sampled_from([2.0, 3.0]))
        # |beta|^q is smooth enough for the oracle only at q = 2
        forms = [me.constant_oneform(draw(st.tuples(*[st.floats(-1, 1)] * 2)))] if q == 2.0 and draw(st.booleans()) else []
        build = lambda: cb.power_q_combine(metrics, forms, q)
    try:
        metric = build()
    except FinslerError:  # e.g. DomainEmpty: no probed direction is in every child's cone
        assume(False)
    return metric, margin


def samples(metric, seed, count=24):
    """Admissible (base, vec) pairs at random bases, plus the full random batch."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, size=(count, 2))
    vec = rng.normal(size=(count, 2)) * rng.uniform(0.5, 2.0, size=(count, 1))
    ok = metric.in_domain_many(base, vec)
    assume(np.any(ok))
    return base, vec, ok


SEEDS = st.integers(0, 2**32 - 1)


@given(trees(), SEEDS)
def test_jet_matches_mask_and_values_bit_for_bit(tree, seed):
    metric, _ = tree
    base, vec, _ = samples(metric, seed)
    ok, F = metric.jet(base, vec)
    assert np.array_equal(ok, metric.in_domain_many(base, vec))
    assert np.array_equal(F, metric.F_many(base, vec), equal_nan=True)
    ok_t, F_t, _ = metric.jet(base, vec, with_tensor=True)
    assert np.array_equal(ok_t, ok)
    assert np.allclose(F_t[ok], F[ok], rtol=1e-14, atol=0.0)


@given(trees(), SEEDS, st.floats(0.05, 20.0))
def test_homogeneity(tree, seed, lam):
    metric, _ = tree
    base, vec, ok = samples(metric, seed)
    base, vec = base[ok], vec[ok]
    ok_l, F_l = metric.jet(base, lam * vec)
    F = metric.F_many(base, vec)
    assert np.allclose(F_l[ok_l], lam * F[ok_l], rtol=1e-10, atol=0.0)


@given(trees(), SEEDS)
def test_tensor_reproduces_square(tree, seed):
    metric, _ = tree
    base, vec, ok = samples(metric, seed)
    base, vec = base[ok], vec[ok]
    _, F, g = metric.jet(base, vec, with_tensor=True)
    gvv = np.einsum("...i,...ij,...j->...", vec, g, vec)
    assert np.allclose(gvv, F * F, rtol=1e-8, atol=0.0)


@given(trees(), SEEDS)
def test_tensor_matches_fd_oracle(tree, seed):
    metric, margin = tree
    base, vec, ok = samples(metric, seed)
    keep = ok & margin(base, vec)
    assume(np.any(keep))
    base, vec = base[keep], vec[keep] / np.linalg.norm(vec[keep], axis=-1, keepdims=True)
    ga = metric.tensor_many(base, vec)
    gf = metric.fd_tensor_many(base, vec)
    scale = np.maximum(1.0, np.max(np.abs(gf), axis=(-2, -1)))
    assert np.max(np.max(np.abs(ga - gf), axis=(-2, -1)) / scale) < ORACLE_TOL


@st.composite
def boxed_trees(draw):
    """A tree, half the time with its domain cut to a square of base points
    (:func:`boxed`); its leaves are position-independent half the time."""
    metric, _ = draw(trees(posdep=draw(st.booleans())))
    return boxed(metric, draw(st.floats(0.3, 1.5))) if draw(st.booleans()) else metric


@given(boxed_trees(), SEEDS)
def test_position_independent_jet_ignores_its_base(metric, seed):
    """A position-independent node gets the same jet, bit for bit, at any two base points."""
    assume(metric.position_independent)
    rng = np.random.default_rng(seed)
    b1, b2 = rng.uniform(-2.0, 2.0, size=(2, 24, 2))
    vec = rng.normal(size=(24, 2))
    for at1, at2 in zip(metric.jet(b1, vec, with_tensor=True), metric.jet(b2, vec, with_tensor=True)):
        assert np.array_equal(at1, at2, equal_nan=True)


@given(boxed_trees(), SEEDS)
def test_value_jets_on_repeated_vectors_equal_those_on_copies(metric, seed):
    """A position-independent node, a whole tree or a subtree under a node that
    depends on the base point, evaluates a value jet once per vector that
    broadcasting distinguishes; mask and F equal, bit for bit, those on a
    contiguous copy of the stack."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.5, 1.5, size=(4, 9, 3, 2))
    distinct = rng.normal(size=(4, 1, 3, 2))
    distinct[0, 0, 0] = 0.0
    stacks = [
        distinct,  # broadcast by the jet: stride 0 along axis 1, as a graph edge's velocity
        np.broadcast_to(distinct, base.shape),  # broadcast by the caller
        np.broadcast_to(distinct[:, :, :1], base.shape),  # stride 0 along axes 1 and 2
        distinct[0, 0, 1],  # one vector
    ]
    for vec in stacks:
        ok, F = metric.jet(base, vec)
        ok_c, F_c = metric.jet(base, np.ascontiguousarray(np.broadcast_to(vec, base.shape)))
        assert np.array_equal(ok, ok_c)
        assert np.array_equal(F, F_c, equal_nan=True)


@st.composite
def posdep_trees(draw):
    """A random tree that depends on the base point: a tree of :func:`trees`,
    summed with a position-dependent Randers leaf when it does not."""
    metric, _ = draw(trees())
    if metric.position_independent:
        b = np.array(draw(st.tuples(*[st.floats(-0.4, 0.4)] * 2)))
        metric = cb.combine(cb.sum_combiner(2), [metric, _randers_leaf(b, True)], [])
    return metric


@given(posdep_trees(), SEEDS)
def test_jets_on_repeated_base_points_equal_those_on_copies(metric, seed):
    """A position field is evaluated only on the base points that broadcasting
    distinguishes; value and tensor jets on stacks with stride-0 base axes
    equal, bit for bit, those on contiguous copies."""
    rng = np.random.default_rng(seed)
    distinct = rng.uniform(-1.5, 1.5, size=(1, 4, 3, 2))
    vec = rng.normal(size=(2, 4, 3, 2))
    bases = [
        np.broadcast_to(distinct, vec.shape),  # stride 0 along axis 0, as a graph segment's points under +-delta
        np.broadcast_to(distinct[:, :, :1], vec.shape),  # stride 0 along axes 0 and 2
        distinct,  # broadcast by the jet
        distinct[0, 0, 0],  # one point
    ]
    for base in bases:
        for vecs in (vec, vec[:, :, :1]):  # a vector per point, or one per row repeated by the jet
            copy = np.ascontiguousarray(np.broadcast_to(base, np.broadcast_shapes(base.shape, vecs.shape)))
            for with_tensor in (False, True):
                for got, want in zip(metric.jet(base, vecs, with_tensor), metric.jet(copy, vecs, with_tensor)):
                    assert np.array_equal(got, want, equal_nan=True)


# 10 x the integrator's rtol: on the derandomized draws the two shots' ends
# differ by at most 4.4e-11 (relative, end velocity) and speeds drift by 2.5e-11
GEODESIC_TOL = 10.0 * gd.GEODESIC_RTOL


@given(posdep_trees(), SEEDS, st.floats(0.25, 4.0))
def test_geodesic_homogeneity(metric, seed, lam):
    """The spray is homogeneous of degree 2 in v, so the shot from (p, lam v)
    to t / lam ends where the shot from (p, v) to t ends, with lam times its
    end velocity; and an energy-critical curve keeps its speed F(x, x').
    A copy of ``_accel`` that takes the central difference of F where it
    needs F^2 fails the first clause; one that drops (d_x p) v fails only
    the second, since what is left of its spray is still homogeneous."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-0.5, 0.5, size=2)
    v = rng.normal(size=2)
    v /= np.linalg.norm(v)
    assume(metric.in_domain_many(p, v))
    t = 0.3
    try:
        end = gd.geodesic_shoot(metric, gd.GeodesicState(p, v, 0.0), t, t)[-1]
        scaled = gd.geodesic_shoot(metric, gd.GeodesicState(p, lam * v, 0.0), t / lam, t / lam)[-1]
    except FinslerError:
        assume(False)
    assert np.max(np.abs(scaled.position - end.position)) <= GEODESIC_TOL * (1.0 + np.max(np.abs(end.position)))
    assert np.max(np.abs(scaled.velocity - lam * end.velocity)) <= GEODESIC_TOL * lam * (1.0 + np.max(np.abs(end.velocity)))
    speed = metric.F_many(p, v)
    assert abs(metric.F_many(end.position, end.velocity) - speed) <= GEODESIC_TOL * speed
    assert abs(metric.F_many(scaled.position, scaled.velocity) - lam * speed) <= GEODESIC_TOL * lam * speed


def test_fields_that_ignore_the_point_still_broadcast():
    """A position-dependent atom whose callable returns one matrix or one
    covector gets it broadcast to every batch, stride-0 axes or not."""
    g0, b0 = np.array([[2.0, 0.1], [0.1, 1.0]]), np.array([0.3, -0.1])
    x = np.broadcast_to(np.random.default_rng(5).uniform(size=(1, 5, 2)), (3, 5, 2))
    fields = [(me.RiemannAtom(metric_matrix=lambda x: g0).matrix, g0), (me.OneFormAtom(covector=lambda x: b0).coeffs, b0)]
    for field, value in fields:
        for base in (x, np.ascontiguousarray(x), x[0, 0]):
            out = field(base)
            assert out.shape == base.shape[:-1] + value.shape
            assert np.array_equal(out, np.broadcast_to(value, out.shape))


E2 = me.euclidean_metric(2)
FIXED = {
    "euclidean": E2,
    "randers": cb.named_family("randers", E2, me.constant_oneform([0.5, 0.0]))[0],
    "lorentz": me.minkowski_metric(mk.gauge_from_curve(mk.lorentz_curve())),
    "kropina": cb.named_family("kropina", E2, me.constant_oneform([0.5, 0.0]))[0],
}
# zero, NaN, and directions outside the Lorentz cone and on the Kropina kernel
SPECIAL = [[0.0, 0.0], [np.nan, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]


@st.composite
def checked_cases(draw):
    """A metric and a broadcastable (base, vec) stack mixing every kind of vector."""
    metric = draw(trees())[0] if draw(st.booleans()) else FIXED[draw(st.sampled_from(sorted(FIXED)))]
    rng = np.random.default_rng(draw(SEEDS))
    count = draw(st.integers(1, 6))
    vec = rng.normal(size=(count, 2))
    for i in draw(st.lists(st.integers(0, count - 1), max_size=2)):
        vec[i] = SPECIAL[draw(st.integers(0, len(SPECIAL) - 1))]
    base = rng.uniform(-1.0, 1.0, size=(count, 2)) if draw(st.booleans()) else np.zeros(2)
    return metric, base, vec


def _outcome(fn):
    try:
        return fn(), None
    except FinslerError as exc:
        return None, (type(exc), str(exc))


@given(checked_cases())
def test_checked_stack_matches_pointwise_calls(case):
    """eval_F_many and a stacked tensor equal the per-pair eval_F / tensor
    bit for bit, or raise the error of the first pair those reject."""
    metric, base, vec = case
    bases = np.broadcast_to(base, vec.shape)
    checks = (
        (lambda: me.eval_F_many(metric, base, vec), me.eval_F),
        (lambda: me.tensor(metric, me.TangentVec(base, vec)), me.tensor),
    )
    for many, one in checks:
        pointwise = [_outcome(lambda tv=me.TangentVec(b, v): one(metric, tv)) for b, v in zip(bases, vec)]
        first_error = next((err for _, err in pointwise if err), None)
        got, err = _outcome(many)
        assert err == first_error
        if first_error is None:
            assert np.array_equal(got, np.array([out for out, _ in pointwise]))


# Finite-difference tensors next to a cone's edge: the Lorentz and wavy curve
# gauges, whose F^2/2 is differenced in the fiber.  Each batch mixes rows well
# inside the cone with rows within one Hessian step of its edge, so some probes
# leave the cone.
BASE = np.zeros(2)


def _stencil_leaves(metric, x):
    """Rows of x (k, n) with a point of the finite-difference Hessian stencil,
    step eps^(1/4) max(1, |x|), outside the metric's domain."""
    h = HESS_STEP * np.maximum(1.0, np.linalg.norm(x, axis=-1))
    probes = x[:, None, :] + _hessian_stencil(x.shape[-1])[0][None] * h[:, None, None]
    return ~np.all(metric.in_domain_many(BASE, probes), axis=-1)


@st.composite
def edge_batches(draw):
    """(metric, rows where a probe of the tensor leaves the cone, vectors (k, 2)).

    The cone is described by its edge rays: angle theta_e, the side s on which
    theta_e + s * eta is inside for 0 < eta < width.  Rows inside sit at eta in
    (0.05, 0.95) * width; rows at the edge at distance u h from its ray, with
    u in (0.05, 0.95) and h the fiber Hessian step eps^(1/4) max(1, |v|).
    """
    kind = draw(st.sampled_from(["lorentz", "wavy"]))
    rng = np.random.default_rng(draw(SEEDS))
    if kind == "lorentz":
        curve = mk.lorentz_curve()
        edges, width = [(np.pi / 4.0, 1.0), (3.0 * np.pi / 4.0, -1.0)], np.pi / 2.0
    else:
        amplitude, k = rng.uniform(1.1, 2.5), int(rng.integers(1, 7))
        curve = mk.wavy_curve(amplitude, k)
        alpha = np.arccos(-1.0 / amplitude)  # r > 0 where k theta is within alpha of 0 mod 2 pi
        j = int(rng.integers(0, k))
        edges, width = [((alpha + 2.0 * np.pi * j) / k, -1.0), ((2.0 * np.pi * j - alpha) / k, 1.0)], 2.0 * alpha / k
    metric = me.minkowski_metric(mk.gauge_from_curve(curve))
    rows = []
    for near in [False] * draw(st.integers(1, 4)) + [True] * draw(st.integers(1, 4)):
        theta_e, side = edges[rng.integers(len(edges))]
        rho = rng.uniform(0.5, 3.0)
        if near:
            eta = np.arcsin(rng.uniform(0.05, 0.95) * HESS_STEP * max(1.0, rho) / rho)
        else:
            eta = rng.uniform(0.05, 0.95) * width
        theta = theta_e + side * eta
        rows.append(rho * np.array([np.cos(theta), np.sin(theta)]))
    vecs = rng.permutation(np.array(rows))
    return metric, _stencil_leaves(metric, vecs), vecs


@given(edge_batches())
def test_fd_tensor_rows_do_not_depend_on_the_batch(case):
    """Each row of a finite-difference tensor batch equals its one-row call bit
    for bit, and is NaN exactly where a probe leaves the cone; the oracle
    still raises on the batch."""
    metric, leaves, vecs = case
    assert np.all(metric.in_domain_many(BASE, vecs))
    g = metric.tensor_many(BASE, vecs)
    for row, v in zip(g, vecs):
        assert np.array_equal(row, metric.tensor_many(BASE, v), equal_nan=True)
    finite = np.all(np.isfinite(g), axis=(-2, -1))
    assert np.array_equal(~finite, np.all(np.isnan(g), axis=(-2, -1)))
    assert np.array_equal(~finite, leaves)
    with pytest.raises(NonFiniteSample):
        metric.fd_tensor_many(BASE, vecs)


SHELL = 1e-7  # relative band around a degenerate tensor where classifications may differ


def _classified(metric, base, vec):
    """(clear, pd): rows whose smallest eigenvalue clears SHELL * max|lambda|,
    and the eigen classification's verdict on every row."""
    rep = eigen_classify(me.tensor(metric, me.TangentVec(base, vec)), 1e-9)
    return np.abs(rep.min_eigenvalue) >= SHELL * np.max(np.abs(rep.eigenvalues), axis=-1), rep.is_positive_definite


@st.composite
def profile_cases(draw):
    """(F0, beta, profile): a Euclidean, constant SPD Riemannian or Randers F0
    in dimension 2 or 3, a random constant form and a family profile."""
    dim = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(SEEDS))
    F0 = me.euclidean_metric(dim)
    kind = draw(st.sampled_from(["euclidean", "riemannian", "randers"]))
    if kind == "riemannian":
        a = rng.normal(size=(dim, dim))
        F0 = me.riemann_metric(me.constant_riemann(a @ a.T + 0.5 * np.eye(dim)), dim)
    elif kind == "randers":
        F0 = cb.phi_combine(F0, me.constant_oneform(rng.uniform(-0.4, 0.4, dim)), cb.randers_profile())
    beta = me.constant_oneform(rng.uniform(-1.0, 1.0, dim))
    family = draw(st.sampled_from(["randers", "kropina", "matsumoto", "square_over_f0"]))
    q = draw(st.floats(0.2, 3.0))
    if family == "matsumoto" and draw(st.booleans()):
        q = draw(st.floats(-3.0, -1.0))
    return F0, beta, cb.family_profile(family, q)


@given(profile_cases(), SEEDS)
def test_characterization_matches_classification(case, seed):
    """The profile criterion is exact: it agrees with the eigen classification
    of the closed-form tensor on every direction outside the degenerate shell."""
    F0, beta, profile = case
    metric = cb.phi_combine(F0, beta, profile)
    base = np.zeros(F0.dimension)
    vec = np.random.default_rng(seed).normal(size=(48, F0.dimension))
    vec = vec[metric.in_domain_many(base, vec)]
    assume(len(vec))
    clear, pd = _classified(metric, base, vec)
    got = cb.characterization_nd(F0, beta, profile, me.TangentVec(base, vec))
    assert np.array_equal(got[clear], pd[clear])


# The three callables (phi, phi', phi'') of each built-in profile and
# (r, r', r'') of each built-in curve, as written before each became one
# ``jet_fn`` call: the spec the jets are held to, bit for bit.
H1, H2 = np.finfo(float).eps ** (1.0 / 3.0), np.finfo(float).eps ** 0.25


def _central(r):
    """(r, r', r'') by the central differences of steps eps^(1/3) and eps^(1/4)."""
    return (
        r,
        lambda t: (r(t + H1) - r(t - H1)) / (2.0 * H1),
        lambda t: (r(t + H2) - 2.0 * r(t) + r(t - H2)) / (H2 * H2),
    )


def _spec_profile(family, q):
    if family == "randers":
        return lambda s: 1.0 + s, np.ones_like, np.zeros_like
    if family == "kropina":
        return (lambda s: np.abs(s) ** -q, lambda s: -q * np.abs(s) ** -q / s,
                lambda s: q * (q + 1.0) * np.abs(s) ** -q / (s * s))
    if family == "matsumoto":
        return (lambda s: np.abs(1.0 - s) ** -q, lambda s: q * np.abs(1.0 - s) ** -q / (1.0 - s),
                lambda s: q * (q + 1.0) * np.abs(1.0 - s) ** -q / ((1.0 - s) * (1.0 - s)))
    return lambda s: (1.0 + s) * (1.0 + s), lambda s: 2.0 * (1.0 + s), lambda s: 2.0 * np.ones_like(s)


def _sqrt_parabola_r(th):
    c = np.cos(th)
    return 2.0 / (c + np.sqrt(4.0 - 3.0 * c * c))


def _parabola_r(th):
    s = np.sin(th)
    return 2.0 / (s + np.sqrt(4.0 - 3.0 * s * s))


def _lorentz_spec():
    u = lambda th: -np.cos(2.0 * th)
    return (lambda th: u(th) ** -0.5, lambda th: -np.sin(2.0 * th) * u(th) ** -1.5,
            lambda th: -2.0 * np.cos(2.0 * th) * u(th) ** -1.5 + 3.0 * np.sin(2.0 * th) ** 2 * u(th) ** -2.5)


@st.composite
def spec_curves(draw):
    """(curve, its three spec callables) for a built-in or a polar_curve."""
    kind = draw(st.sampled_from(["circle", "spiral", "lorentz", "sqrt_parabola", "parabola", "wavy", "polar"]))
    if kind == "circle":
        return unit_circle_curve(), (np.ones_like, np.zeros_like, np.zeros_like)
    if kind == "spiral":
        return mk.spiral_curve(draw(st.floats(0.01, 3.0))), (lambda th: th.copy(), np.ones_like, np.zeros_like)
    if kind == "lorentz":
        return mk.lorentz_curve(), _lorentz_spec()
    if kind in ("sqrt_parabola", "parabola"):
        r = _sqrt_parabola_r if kind == "sqrt_parabola" else _parabola_r
        return (mk.sqrt_parabola_curve() if kind == "sqrt_parabola" else mk.downward_parabola_curve()), _central(r)
    if kind == "wavy":
        a, k = draw(st.floats(-2.0, 2.0)), draw(st.integers(-12, 12))
        spec = (lambda th: 1.0 + a * np.cos(k * th), lambda th: -a * k * np.sin(k * th),
                lambda th: -a * k * k * np.cos(k * th))
        return mk.wavy_curve(a, k), spec
    c = draw(st.floats(1.5, 3.0))
    r = lambda th: c + np.sin(3.0 * th) * np.cos(th)
    return mk.polar_curve(r), _central(r)


@st.composite
def spec_profiles(draw):
    """(profile, its three spec callables) for a family or a custom CLI profile."""
    family = draw(st.sampled_from(["randers", "kropina", "matsumoto", "square_over_f0", "custom", "custom_derivs"]))
    if family == "custom":
        spec = {"phi": "exp(s) + s * s / 3", "interval": [-2, 2]}
        return cli._build_profile(spec, "metric.profile"), _central(lambda s: np.exp(s) + s * s / 3.0)
    if family == "custom_derivs":
        spec = {"phi": "1 + s * s", "phi_dot": "2 * s", "phi_ddot": "2 + 0 * s", "interval": [-2, 2]}
        return cli._build_profile(spec, "metric.profile"), (lambda s: 1.0 + s * s, lambda s: 2.0 * s,
                                                            lambda s: 2.0 + 0.0 * s)
    q = draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.1, 4.0))
    if family == "matsumoto" and draw(st.booleans()):
        q = draw(st.sampled_from([-1.0, -2.0]) | st.floats(-4.0, -1.0))
    return cb.family_profile(family, q), _spec_profile(family, q)


ARGUMENTS = st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=16).map(np.array)


def _same_bits(obj, spec, t):
    """``obj.jet_fn(t, False)`` and ``obj.jet(t)`` equal the spec callables at t, bit for bit."""
    with np.errstate(all="ignore"):
        want = [np.broadcast_to(np.asarray(f(t), dtype=float), t.shape) for f in spec]
        assert np.asarray(obj.jet_fn(t, False), dtype=float).tobytes() == want[0].tobytes()
        assert all(g.tobytes() == w.tobytes() for g, w in zip(obj.jet(t), want))


@given(spec_profiles(), ARGUMENTS)
def test_profile_jets_equal_the_three_callables(case, s):
    _same_bits(*case, s)


@given(spec_curves(), ARGUMENTS)
def test_curve_jets_equal_the_three_callables(case, theta):
    _same_bits(*case, theta)


# Properties of separation graphs on random position-independent trees: small
# grids (res <= 9, R <= 3), reduced and full query adjacencies alike.
BOX = ([-1.0, -1.0], [1.0, 1.0])


@st.composite
def graphs(draw, f1f2=True):
    """(metric, graph, reduce) on a random position-independent tree; with
    ``reduce`` the queries run on the dominance-reduced adjacencies and
    separations stop at the lattice-path bound."""
    metric, _ = draw(trees(posdep=False, f1f2=f1f2))
    resolution, radius = draw(st.integers(3, 9)), draw(st.integers(1, 3))
    return metric, gd.build_separation_graph(metric, BOX, resolution, radius), draw(st.booleans())


@contextlib.contextmanager
def _reduced(reduce):
    """Queries on the reduced adjacencies of even these small graphs when ``reduce``."""
    with pytest.MonkeyPatch.context() as mp:
        if reduce:
            mp.setattr(gd, "REDUCE_MIN_EDGES", 0)
        yield


def _random_part(graph, data):
    """``graph`` itself or, on a drawn coin, the graph of a random nonempty
    part of its offset table."""
    if not data.draw(st.booleans()):
        return graph
    part = np.array(data.draw(st.lists(st.booleans(), min_size=len(graph.offsets), max_size=len(graph.offsets))))
    assume(part.any())
    offsets = graph.offsets[part]
    edges = gd._edge_count(offsets, graph.resolution)
    return dataclasses.replace(graph, offsets=offsets, weights=graph.weights[part], edge_count=edges)


@dataclasses.dataclass(frozen=True)
class _Envelope:
    """The gauge H of conv({0} u {o / w(o)}) over a table of integer offsets
    o with weights w(o) > 0, in lattice units.  Inside the cone the offsets
    span, H(x) is max(0, max_k ``facets[k]`` . x); x is outside that cone,
    and H(x) = inf, when ``cone[k]`` . x > 1e-9 |x| for some k: the rows of
    ``cone`` are the outward normals of the hull's facets through 0.
    ``ratio`` holds H(o) / w(o) of each offset before the facets are scaled
    down by max(1, max ratio), and ``convex`` that every offset lies on the
    envelope, w(o) <= (1 + ``ENVELOPE_RTOL``) H(o)."""

    facets: np.ndarray
    cone: np.ndarray
    ratio: np.ndarray
    convex: bool

    def gauge(self, deltas) -> np.ndarray:
        d = np.asarray(deltas, dtype=float)
        h = np.maximum((d @ self.facets.T).max(axis=-1), 0.0)
        if len(self.cone):
            outside = np.any(d @ self.cone.T > 1e-9 * np.linalg.norm(d, axis=-1)[..., None], axis=-1)
            h = np.where(outside, np.inf, h)
        return h


def _envelope_reference(offsets, weights):
    """The :class:`_Envelope` of the offsets (K, n) and weights (K,), by
    qhull; None for a weight that is not positive or offsets that span
    fewer than n dimensions.  The facets are scaled down by max(1, max
    H(o) / w(o)), so qhull's rounding never puts H above a weight."""
    from scipy.spatial import ConvexHull

    n = offsets.shape[1]
    if not np.all(weights > 0.0) or np.linalg.matrix_rank(offsets) < n:
        return None
    points = offsets / weights[:, None]
    equations = ConvexHull(np.vstack([np.zeros(n), points])).equations  # unit outward normal, offset
    normals, dist = equations[:, :-1], -equations[:, -1]  # facet k: normals[k] . x <= dist[k]
    at_zero = dist <= 1e-12 * np.linalg.norm(points, axis=1).max()
    env = _Envelope(normals[~at_zero] / dist[~at_zero, None], normals[at_zero], ratio=None, convex=False)
    ratio = env.gauge(offsets) / weights
    convex = bool(np.all(1.0 <= (1.0 + gd.ENVELOPE_RTOL) * ratio))
    return dataclasses.replace(env, facets=env.facets / max(1.0, ratio.max()), ratio=ratio, convex=convex)


def _nodes(graph, count):
    """``count`` flat node indices, drawn one grid coordinate per axis."""
    node = st.tuples(*[st.integers(0, graph.resolution - 1)] * len(graph.shape))
    return st.lists(node.map(lambda ij: int(np.ravel_multi_index(ij, graph.shape))), min_size=count, max_size=count)


@given(graphs(), st.data())
def test_separation_triangle_inequality(case, data):
    """d(p, r) <= d(p, q) + d(q, r): where the right side is finite, so is the left."""
    _, graph, reduce = case
    p, q, r = data.draw(_nodes(graph, 3))
    with _reduced(reduce):
        d = {(a, b): gd.separation(graph, a, b).value for a, b in ((p, r), (p, q), (q, r))}
    bound = d[p, q] + d[q, r]
    if np.isfinite(bound):
        assert d[p, r] <= bound * (1.0 + 1e-12)


@given(graphs(), st.data())
def test_forward_balls_nest(case, data):
    """Forward balls grow with the radius, and q is in the ball of radius r exactly when d(p, q) < r."""
    _, graph, reduce = case
    p, q = data.draw(_nodes(graph, 2))
    radii = sorted(data.draw(st.lists(st.floats(0.0, 4.0), min_size=2, max_size=4)))
    with _reduced(reduce):
        balls = [set(gd.df_ball(graph, p, r).tolist()) for r in radii]
        d = gd.separation(graph, p, q).value
    assert all(small <= large for small, large in zip(balls, balls[1:]))
    assert [q in ball for ball in balls] == [d < r for r in radii]


@given(graphs(f1f2=False), st.data())
def test_separation_is_at_least_the_straight_length(case, data):
    """On a convex tree every path from p to q costs at least F(q - p)."""
    metric, graph, reduce = case
    p, q = data.draw(_nodes(graph, 2))
    assume(p != q)
    with _reduced(reduce):
        d = gd.separation(graph, p, q).value
    straight = float(metric.F_many(np.zeros(2), graph.nodes[q] - graph.nodes[p]))
    assert d >= straight * (1.0 - 1e-12)


@given(graphs(), st.data())
def test_separation_is_at_least_the_envelope(case, data):
    """d(p, q) >= H(q - p), H the gauge of the hull of 0 and the kept offsets
    o / w(o): every edge costs at least H of its offset, and H is sublinear.
    It holds on non-convex trees too, where H lies below the weights."""
    _, graph, reduce = case
    p, q = data.draw(_nodes(graph, 2))
    with _reduced(reduce):
        keep = graph._query_keep
        envelope = _envelope_reference(graph.offsets[keep], graph.weights[keep])
        d = gd.separation(graph, p, q).value
    assume(envelope is not None)
    delta = np.subtract(np.unravel_index(q, graph.shape), np.unravel_index(p, graph.shape))
    assert d >= envelope.gauge(delta) * (1.0 - 1e-12)


@given(graphs(), st.data())
def test_sector_chords_agree_with_the_hull(case, data):
    """The sector chords find a table convex exactly when qhull's envelope
    does, wherever the hull's excess max w(o) / H(o) - 1 over the kept
    offsets lies more than 1e-9 from the ``ENVELOPE_RTOL`` cut or below
    the 1e-12 of an exactly convex table's rounding, and the tables' lower
    bound is at most H (1 + 1e-12) at every displacement, convex or not.
    Half the graphs keep a random part of their table."""
    _, graph, reduce = case
    graph = _random_part(graph, data)
    with _reduced(reduce):
        keep = graph._query_keep
        envelope = _envelope_reference(graph.offsets[keep], graph.weights[keep])
        assume(envelope is not None)
        facets, convex = graph._chords
    excess = 1.0 / envelope.ratio.min() - 1.0
    if excess < 1e-12 or abs(excess - gd.ENVELOPE_RTOL) > 1e-9:
        assert convex == envelope.convex
    r = graph.resolution - 1
    lower = gd._displacement_bounds(*graph._fan, facets, graph.resolution)[0]
    deltas = np.indices((2 * r + 1,) * 2).reshape(2, -1).T - r
    assert np.all(lower.ravel() <= envelope.gauge(deltas) * (1.0 + 1e-12))


@given(graphs(), st.data())
def test_ball_bounds_bracket_dijkstra_and_decide_its_balls(case, data):
    """On a graph the size rules would send to the tables once lowered,
    every node's Dijkstra distance from a source c, forward and backward,
    lies between the displacement bounds at x - c and c - x, and a ball is
    scipy's Dijkstra ball with the closing-edge rule for c, whether the
    bounds decide it or fall back.  Half the radii are a node's distance,
    which puts that node between the bounds.  Half the graphs keep a random
    part of their table, whose angle neighbours may lie on either side of
    an axis."""
    _, graph, reduce = case
    graph = _random_part(graph, data)
    c, x = data.draw(_nodes(graph, 2))
    with _reduced(reduce), pytest.MonkeyPatch.context() as mp:
        mp.setattr(gd, "TABLE_MIN_EDGES", 0)
        mp.setattr(gd, "TABLE_MIN_OFFSETS", 0)
        assume(gd._reads_tables(graph))
        lower, upper, _ = graph._displacement_tables
        index = np.array(np.unravel_index(np.arange(graph.node_count), graph.shape)).T
        outward = index - np.array(np.unravel_index(c, graph.shape))
        at_distance = data.draw(st.booleans())
        radius = data.draw(st.floats(0.0, 4.0))
        for sign, adj, closing in ((1, graph.query, graph.incoming), (-1, graph.incoming, graph.query)):
            at = tuple((sign * outward + graph.resolution - 1).T)
            dist = dijkstra(adj, indices=c)
            assert np.all(lower[at] <= dist) and np.all(dist <= upper[at])
            r = float(dist[x]) if at_distance and np.isfinite(dist[x]) else radius
            want = dijkstra(adj, indices=c, limit=r) < r if r >= 0 else np.zeros(graph.node_count, dtype=bool)
            row = closing[c]  # the neighbours that close a loop through c
            want[c] = np.any(dist[row.indices] + row.data < r)
            got = gd.df_ball(graph, c, r, "forward" if sign == 1 else "backward")
            assert got.dtype == np.flatnonzero(want).dtype and np.array_equal(got, np.flatnonzero(want))


@given(graphs(), st.data())
def test_sector_separations_keep_their_contract(case, data):
    """On a graph the size rules would send to the tables once lowered, the
    separation from a source p to every other node meets the contract of
    the displacement tables against scipy's Dijkstra distance on ``query``:
    ``query`` edges summed in path order to the value, inside the box of
    the ends, D <= value <= D + (upper - lower) at q - p, and Dijkstra's
    value where no sector path exists.  Half the graphs keep a random part
    of their table, whose sectors may lack a path."""
    _, graph, reduce = case
    graph = _random_part(graph, data)
    (p,) = data.draw(_nodes(graph, 1))
    with _reduced(reduce), pytest.MonkeyPatch.context() as mp:
        mp.setattr(gd, "TABLE_MIN_EDGES", 0)
        mp.setattr(gd, "TABLE_MIN_OFFSETS", 0)
        assume(gd._reads_tables(graph))
        dist = dijkstra(graph.query, directed=True, indices=p)
        for q in range(graph.node_count):
            if q != p:
                assert_sector_separation(graph, p, q, gd.separation(graph, p, q), dist[q])


def _tree_path(pred, p, x):
    """Flat node indices of the path p -> x in the predecessor tree ``pred``."""
    path = [x]
    while path[-1] != p:
        path.append(int(pred[path[-1]]))
    return path[::-1]


@given(graphs(), st.data())
def test_dropped_ties_move_distances_by_rounding_only(case, data):
    """From a few sources, Dijkstra on ``query`` without the ties gives
    d <= d' <= d (1 + tie excess bound of the full path), d over every
    offset, and a forward ball is the full-graph ball less nodes (the centre
    by its cheapest loop) whose d lies in the shell r / (1 + bound) <= d < r.
    Half the graphs keep a random part of their table, which may hold k o'
    without o'."""
    _, graph, _ = case
    graph = _random_part(graph, data)
    sources = data.draw(_nodes(graph, 3))
    r = data.draw(st.floats(0.0, 4.0))
    with _reduced(True):
        query = graph.query
        balls = [gd.df_ball(graph, p, r) for p in sources]
    full = graph.matrix
    into = full.T.tocsr()
    dist, pred = dijkstra(full, indices=sources, return_predecessors=True)
    for k, p in enumerate(sources):
        got = dijkstra(query, indices=p)
        assert np.array_equal(np.isfinite(got), np.isfinite(dist[k]))
        near = {}  # node: (d, path) of the full graph, p by its cheapest loop
        for x in np.flatnonzero(np.isfinite(dist[k])).tolist():
            path = _tree_path(pred[k], p, x)
            assert dist[k, x] <= got[x] <= dist[k, x] * (1.0 + tie_excess_bound(graph, path))
            near[x] = dist[k, x], path
        lo, hi = into.indptr[p], into.indptr[p + 1]
        loops = dist[k, into.indices[lo:hi]] + into.data[lo:hi]
        if loops.size and np.isfinite(loops.min()):
            j = int(into.indices[lo + int(np.argmin(loops))])
            near[p] = loops.min(), _tree_path(pred[k], p, j) + [p]
        else:
            near.pop(p)
        want = {x for x, (d, _) in near.items() if d < r}
        assert set(balls[k].tolist()) <= want
        for x in want - set(balls[k].tolist()):
            d, path = near[x]
            assert r <= d * (1.0 + tie_excess_bound(graph, path))


def _assert_transpose(got, matrix):
    """``got`` is the transpose of ``matrix`` in its indptr, indices and data bytes."""
    want = matrix.T.tocsr()
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


@given(graphs(), st.data())
def test_reversal_transposes_the_graph(case, data):
    """The graph of F~(v) = F(-v) is the transpose of F's, edge for edge and
    weight for weight, so F's backward ball is F~'s forward ball, up to
    nodes whose separation from p lies within rounding of r."""
    metric, graph, reduce = case
    reverse = gd.build_separation_graph(cb._reflected(metric), BOX, graph.resolution, graph.neighbor_radius)
    _assert_transpose(reverse.matrix, graph.matrix)
    (p,) = data.draw(_nodes(graph, 1))
    r = data.draw(st.floats(0.0, 4.0))
    with _reduced(reduce):
        backward = set(gd.df_ball(graph, p, r, direction="backward").tolist())
        forward = set(gd.df_ball(reverse, p, r).tolist())
        for q in backward ^ forward:
            assert abs(gd.separation(graph, q, p).value - r) <= 1e-12 * r


@given(posdep_trees(), st.integers(3, 9), st.integers(1, 3))
def test_reversal_transposes_position_dependent_graphs(metric, resolution, radius):
    """On a position-dependent tree too, the graph of v -> F(-v) is the
    transpose of F's, bit for bit: an edge and its reverse are sampled on the
    same points of their segment and sum them in the same order, so the cone
    test, the Gauss-Kronrod flag and the weight of one are those of the other."""
    graph = gd.build_separation_graph(metric, BOX, resolution, radius)
    assume(graph.matrix.nnz > 0)
    reverse = gd.build_separation_graph(cb._reflected(metric), BOX, resolution, radius)
    _assert_transpose(reverse.matrix, graph.matrix)


REVERSIBLE_POSDEP = {
    "riemann_posdep": lambda: _config_metric(
        {"type": "riemannian", "matrix_expr": [["1+0.3*sin(x)**2", "0.1*cos(y)"], ["0.1*cos(y)", "1+0.2*cos(y)"]]}
    ),
    # flags edges for the Simpson redo
    "period_037": lambda: _config_metric({"type": "riemannian", "matrix_expr": [["1+0.5*sin(2*pi*x/0.37)", "0"], ["0", "1"]]}),
    # |b| < 1 at every point, so the inner Randers metric's domain is the whole
    # tangent space, which a position-dependent combination does not claim itself
    "reversibilize": lambda: cb.reversibilize(
        dataclasses.replace(_randers_leaf(np.array([0.4, -0.3]), True), zero_in_domain=True), "sum"
    ),
}


def _config_metric(tree):
    return cli.build_metric(cli.parse_config(json.dumps({"metric": tree}))[0]).metric


@pytest.mark.parametrize("name", sorted(REVERSIBLE_POSDEP))
def test_reversible_position_dependent_graphs_are_symmetric(name):
    """A reversible position-dependent metric's graph equals its own transpose, bit for bit."""
    metric = REVERSIBLE_POSDEP[name]()
    assert not metric.position_independent
    graph = gd.build_separation_graph(metric, BOX, 9, 3)
    assert graph.matrix.nnz > 0
    _assert_transpose(graph.matrix, graph.matrix)


def test_profiles_and_curves_are_one_call():
    assert [f.name for f in dataclasses.fields(cb.PhiProfile)] == ["jet_fn", "intervals", "name"]
    assert [f.name for f in dataclasses.fields(mk.PolarCurve2D)] == ["jet_fn", "theta_range"]
