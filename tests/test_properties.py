"""Property tests over random metric trees of depth <= 3.

Leaves are Euclidean and Randers metrics; nodes are sums, q-power means,
reversibilizations and (F1, F2) profile combinations.  Each tree comes with
a predicate that keeps sample vectors whose profile ratios stay away from
the profile endpoints, where the finite-difference oracle loses accuracy.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from finslerkit import combinators as cb
from finslerkit import metrics as me
from finslerkit import minkowski as mk
from finslerkit.errors import FinslerError
from finslerkit.numkernel import eigen_classify

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
def leaves(draw):
    """(metric, margin predicate) for a Euclidean or Randers leaf."""
    E = me.euclidean_metric(2)
    if draw(st.booleans()):
        return E, _everywhere
    b = np.array(draw(st.tuples(*[st.floats(-0.4, 0.4)] * 2)))
    if draw(st.booleans()):
        return cb.phi_combine(E, me.constant_oneform(b), cb.randers_profile()), _everywhere

    def covector(x):
        x = np.asarray(x, dtype=float)
        return b * (1.0 + 0.2 * np.sin(x[..., :1] + x[..., 1:]))

    return cb.phi_combine(E, me.OneFormAtom(covector=covector), cb.randers_profile()), _everywhere


@st.composite
def trees(draw, depth=3):
    """(metric, margin predicate) for a tree with at most ``depth`` node levels."""
    kind = draw(st.sampled_from(["leaf", "sum", "power_q", "reversibilize", "f1f2"] if depth else ["leaf"]))
    if kind == "leaf":
        return draw(leaves())
    if kind == "reversibilize":
        inner, margin = draw(trees(depth - 1))
        mode = draw(st.sampled_from(["sum", "quadratic"]))
        try:
            metric = cb.reversibilize(inner, mode)
        except FinslerError:
            assume(False)
        return metric, lambda base, vec: margin(base, vec) & margin(base, -vec)
    if kind == "f1f2":
        (f1, m1), (f2, m2) = draw(trees(depth - 1)), draw(trees(depth - 1))
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
    kids = draw(st.lists(trees(depth - 1), min_size=1, max_size=3))
    metrics = [k[0] for k in kids]

    def margin(base, vec):
        return np.logical_and.reduce([k[1](base, vec) for k in kids])

    if kind == "sum":
        return cb.combine(cb.sum_combiner(len(metrics)), metrics, []), margin
    q = draw(st.sampled_from([2.0, 3.0]))
    # |beta|^q is smooth enough for the oracle only at q = 2
    forms = [me.constant_oneform(draw(st.tuples(*[st.floats(-1, 1)] * 2)))] if q == 2.0 and draw(st.booleans()) else []
    return cb.power_q_combine(metrics, forms, q), margin


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
        F0 = me.riemann_metric(me.constant_riemann(a @ a.T + 0.5 * np.eye(dim)), me.whole_plane(dim))
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
