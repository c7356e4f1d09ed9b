"""Homogeneous combinations of conic Finsler metrics and one-forms.

Everything here produces metrics with closed-form fundamental tensors,
and every combination is one path, :func:`combine` over a degree-2
homogeneous law L(F_1..F_n, beta_1..beta_m): q-power means, the
profile-based (F0, beta) families (Randers / Kropina / Matsumoto and
relatives) and their (F1, F2) generalization, whose law is
(x1 phi(x2 / x1))^2, and the two reversibilization constructions.  The
profile formulas of the determinant and of positive definiteness stay
here as independent references.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import BadExponent, DomainEmpty, InvalidArgument, OutsideDomain, OutsideProfile
from .metrics import (
    ConicMetric,
    OneFormAtom,
    TangentVec,
    _repeat_cut,
    tensor,
    unit_directions,
)
from .numkernel import DEFAULT_EIG_TOL, eigen_classify

DOMAIN_PROBE_DIRECTIONS = 64


# ---------------------------------------------------------------------------
# Scalar profiles for (F0, beta) and (F1, F2) metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiProfile:
    """Positive scalar profile with two derivatives on open interval(s).

    The profile is one call, ``jet_fn(s, with_derivatives)``: for a float
    array s it returns phi, or (phi, phi', phi'') when ``with_derivatives``
    is set.
    """

    jet_fn: Callable = field(repr=False)
    intervals: tuple[tuple[float, float], ...] = ((-np.inf, np.inf),)
    name: str = "custom"

    def contains(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        ok = False
        for lo, hi in self.intervals:
            ok = ok | ((s > lo) & (s < hi))  # open bounds: never inf or NaN
        return ok

    def require(self, s) -> None:
        if not np.all(self.contains(s)):
            raise OutsideProfile(f"argument outside the profile interval(s) {self.intervals}")

    def jet(self, s) -> tuple:
        """(phi, phi', phi'') at s, from one call."""
        return tuple(np.asarray(d, dtype=float) for d in self.jet_fn(np.asarray(s, dtype=float), True))


def _criterion(s, bn2, p, pd, pdd):
    """(lead, second) = (phi - s phi', lead + (b^2 - s^2) phi'') with b^2 = bn2: g is
    positive definite exactly where second > 0 and, above dimension two, lead > 0."""
    lead = p - s * pd
    return lead, lead + (bn2 - s * s) * pdd


def randers_profile() -> PhiProfile:
    def jet_fn(s, with_derivatives):
        p = 1.0 + s
        return (p, np.ones_like(s), np.zeros_like(s)) if with_derivatives else p

    return PhiProfile(jet_fn=jet_fn, intervals=((-1.0, np.inf),), name="randers")


def _power_jet(q: float, du: float, u_of):
    """Jet of phi(s) = |u|^-q for u = u_of(s) with slope du = +-1, the power computed once."""
    c1, c2 = -du * q, q * (q + 1.0)

    def jet_fn(s, with_derivatives):
        u = u_of(s)
        p = np.abs(u) ** -q
        if not with_derivatives:
            return p
        return p, c1 * p / u, c2 * p / (u * u)

    return jet_fn


def kropina_profile(q: float = 1.0) -> PhiProfile:
    if q <= 0:
        raise BadExponent("Kropina exponent must satisfy q > 0")
    intervals = ((-np.inf, 0.0), (0.0, np.inf))
    return PhiProfile(jet_fn=_power_jet(q, 1.0, lambda s: s), intervals=intervals, name=f"kropina[q={q:g}]")


def matsumoto_profile(q: float = 1.0) -> PhiProfile:
    if not (q > 0 or q <= -1):
        raise BadExponent("Matsumoto exponent must satisfy q > 0 or q <= -1")
    intervals = ((-np.inf, 1.0), (1.0, np.inf))
    return PhiProfile(jet_fn=_power_jet(q, -1.0, lambda s: 1.0 - s), intervals=intervals, name=f"matsumoto[q={q:g}]")


def square_over_f0_profile() -> PhiProfile:
    """Profile of (F0 + beta)^2 / F0 on the band |s| < 1."""

    def jet_fn(s, with_derivatives):
        u = 1.0 + s
        return (u * u, 2.0 * u, 2.0 * np.ones_like(s)) if with_derivatives else u * u

    return PhiProfile(jet_fn=jet_fn, intervals=((-1.0, 1.0),), name="square_over_f0")


# ---------------------------------------------------------------------------
# General homogeneous combinations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LCombiner:
    """Degree-2 homogeneous combination law on n metrics and m one-forms.

    The law is a closed-form function on a cone of R^(n+m), one call
    ``jet_fn(x, with_derivatives)``: for a stack x of shape (..., n+m) it
    returns ``(ok, L)``, the mask of the cone B over the batch (``True``
    alone for all of R^(n+m)) and the positive scalar L, or
    ``(ok, L, grad, hess)`` with the first and second x-derivatives of L
    when ``with_derivatives`` is set, which may be read-only broadcasts: no
    caller writes into them.
    """

    n: int
    m: int
    jet_fn: Callable = field(repr=False)
    name: str = "L"

    def jet(self, x, with_derivatives: bool = False) -> tuple:
        """``(ok, L)`` or ``(ok, L, grad, hess)`` from one call of the law;
        InvalidArgument at ``jet_fn`` where derivatives are asked for and the
        law does not return them."""
        out = self.jet_fn(np.asarray(x, dtype=float), with_derivatives)
        if with_derivatives and len(out) != 4:
            msg = f"law {self.name} must return (ok, L, grad, hess) with derivatives, got {len(out)} items"
            raise InvalidArgument(msg, path="jet_fn", constraint="shape")
        return out


def sum_combiner(n: int) -> LCombiner:
    """L = (x_1 + ... + x_n)^2, the plain sum of metrics."""
    hess = np.full((n, n), 2.0)

    def jet_fn(x, with_derivatives):
        t = np.sum(x, axis=-1)
        ok, L = t > 0.0, t * t
        if not with_derivatives:
            return ok, L
        return ok, L, np.broadcast_to((2.0 * t)[..., None], x.shape), np.broadcast_to(hess, x.shape + (n,))

    return LCombiner(n=n, m=0, jet_fn=jet_fn, name=f"sum[{n}]")


def power_combiner(n: int, m: int, q: float) -> LCombiner:
    """L = (sum |x_r|^q)^(2/q), the q-power-mean combination."""
    if q < 1.0:
        raise BadExponent("power combination requires q >= 1")
    # per-law constants, each the value its term computes first
    e0, e1, e2, eq = 2.0 / q, 2.0 / q - 1.0, 2.0 / q - 2.0, q - 2.0
    c_diag, c_rank1 = 2.0 * (q - 1.0), 2.0 * (2.0 - q)
    idx = np.arange(n + m)

    def jet_fn(x, with_derivatives):
        ax = np.abs(x)
        u = np.sum(ax**q, axis=-1)
        ok = u > 0.0
        if q < 2.0 and m > 0:
            ok = ok & np.all(ax[..., n:] > 0.0, axis=-1)
        L = u**e0
        if not with_derivatives:
            return ok, L
        aq = ax**eq
        up = (u**e1)[..., None]
        grad = 2.0 * x * aq * up
        diag = c_diag * aq * up
        w = x * aq
        hess = c_rank1 * (u**e2)[..., None, None] * (w[..., :, None] * w[..., None, :])
        hess[..., idx, idx] += diag
        return ok, L, grad, hess

    return LCombiner(n=n, m=m, jet_fn=jet_fn, name=f"power[q={q:g}]")


@dataclass(frozen=True)
class ABCReport:
    A_ok: bool
    B_ok: bool
    C_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.A_ok and self.B_ok and self.C_ok


def check_conditions_ABC(combiner: LCombiner, point, tolerance: float = DEFAULT_EIG_TOL) -> ABCReport:
    """Positive-semidefiniteness conditions of the combination law at one
    point (F_1..F_n, beta_1..beta_m): A, L_k >= 0 for k <= n; B, Hess L
    positive semidefinite; C, L_1 + ... + L_n > 0.  Where all hold and the
    ingredient metrics are positive definite, so is the combination.

    InvalidArgument at ``point`` unless its shape is (n + m,), and at
    ``jet_fn`` where the law gives no derivatives; OutsideDomain where the
    point leaves the law's cone.
    """
    point = np.asarray(point, dtype=float)
    n, d = combiner.n, combiner.n + combiner.m
    if point.shape != (d,):
        raise InvalidArgument(f"point must have shape ({d},), got {point.shape}", path="point", constraint="shape")
    with np.errstate(all="ignore"):  # a pole of the law is outside its cone
        ok, _, grad, hess = combiner.jet(point, True)
    if not np.all(ok):
        raise OutsideDomain(f"point {point} outside the cone of the law {combiner.name}")
    a_ok = bool(np.all(grad[:n] >= -tolerance))
    b_ok = eigen_classify(hess, tolerance).code <= 1  # PositiveDefinite or PositiveSemiDefiniteDegenerate
    c_ok = bool(np.sum(grad[:n]) > tolerance)
    return ABCReport(A_ok=a_ok, B_ok=b_ok, C_ok=c_ok)


def _pair(b, vec, out=None):
    return np.einsum("...i,...i->...", b, vec, out=out)


def _shared_dimension(metrics: Sequence[ConicMetric]) -> int:
    dim = metrics[0].dimension
    if any(mk.dimension != dim for mk in metrics[1:]):
        raise InvalidArgument("combined metrics must share one dimension", path="metrics", constraint="dimension")
    return dim


def _combined(dim: int, jet_fn, position_independent: bool, name: str, admits_zero: bool = True) -> ConicMetric:
    """The combined metric, probed once on a fan of directions at the origin.
    A position-independent metric with none admissible raises DomainEmpty; a
    position-dependent one may be defined elsewhere, and its evaluation
    reports per point.  The zero vector is in the domain of a
    position-independent metric when all probed directions are and
    ``admits_zero`` holds (every ingredient's domain holds it and the law
    admits beta = 0, a kernel the fan misses).  A probe at the origin says
    nothing of other base points, so a position-dependent combination never
    claims the zero vector."""
    out = ConicMetric(dimension=dim, jet_fn=jet_fn, position_independent=position_independent, name=name)
    ok = out.in_domain_many(np.zeros(dim), unit_directions(dim, DOMAIN_PROBE_DIRECTIONS))
    if position_independent and not np.any(ok):
        raise DomainEmpty("no probed direction is admissible for the combined metric")
    return replace(out, zero_in_domain=position_independent and bool(np.all(ok)) and admits_zero)


def combine(
    combiner: LCombiner, metrics: Sequence[ConicMetric], forms: Sequence[OneFormAtom] = ()
) -> ConicMetric:
    """Metric F = sqrt(L(F_1..F_n, beta_1..beta_m)) with its closed-form tensor.

    With c_k = L_k / F_k over the metric slots and J the rows of fiber
    derivatives of the arguments (g_k v / F_k, then the forms' b), the tensor
    is 0.5 (sum_k c_k g_k + J^T (Hess(L) - diag(c)) J): each ingredient's
    angular part c_k (g_k - g_k v v^T g_k / F_k^2) folded into the quadratic
    form of Hess(L).
    """
    metrics = list(metrics)
    forms = list(forms)
    n, m = combiner.n, combiner.m
    if len(metrics) != n or len(forms) != m:
        msg = f"combiner expects {n} metrics and {m} forms, got {len(metrics)} and {len(forms)}"
        raise InvalidArgument(msg, path="metrics", constraint="shape")
    if n == 0:
        raise InvalidArgument("at least one metric ingredient is required", path="metrics", constraint="minimum")
    dim = _shared_dimension(metrics)
    # The forms' kernel maps to (1..1, 0..0), which the fan probe misses; without
    # forms there is no kernel, and that point may be a pole of the law (s = 1 for
    # a two-metric Matsumoto profile).  Kropina's law divides by zero there.
    with np.errstate(all="ignore"):
        admits_beta_zero = m == 0 or bool(combiner.jet(np.array([1.0] * n + [0.0] * m))[0])

    def jet_fn(base, vec, with_tensor):
        kids = [mk.node_jet(base, vec, with_tensor) for mk in metrics]
        bs = [fm.coeffs(base) for fm in forms]
        x = np.empty((n + m,) + vec.shape[:-1])  # one contiguous row per argument
        for k, kid in enumerate(kids):
            x[k] = kid[1]
        for r, b in enumerate(bs, n):
            _pair(b, vec, out=x[r])
        ok, L, *derivs = combiner.jet(x.transpose(*range(1, x.ndim), 0), with_tensor)
        ok = ok & np.isfinite(x).all(axis=0)  # a child's F is NaN outside its domain, so this masks it too
        F = np.sqrt(np.maximum(L, 0.0))
        if not with_tensor:
            return ok, F
        grad, hess = derivs
        H = np.array(hess)  # Hess(L) - diag(c) is built in a copy: a law may return a read-only broadcast
        term1 = 0.0
        J = np.empty(vec.shape[:-1] + (n + m, dim))  # rows: the fiber derivatives of the arguments
        for k, (_, Fk, gk) in enumerate(kids):
            ck = grad[..., k] / Fk
            term1 = term1 + ck[..., None, None] * gk
            H[..., k, k] -= ck
            J[..., k, :] = np.einsum("...ij,...j->...i", gk, vec) / Fk[..., None]
        for r, b in enumerate(bs, n):
            J[..., r, :] = b
        return ok, F, 0.5 * (term1 + J.swapaxes(-1, -2) @ (H @ J))

    return _combined(
        dim,
        jet_fn,
        all(mk.position_independent for mk in metrics) and all(fm.constant for fm in forms),
        f"{combiner.name}({', '.join(mk.name for mk in metrics)})",
        all(mk.zero_in_domain for mk in metrics) and admits_beta_zero,
    )


def power_q_combine(
    metrics: Sequence[ConicMetric], forms: Sequence[OneFormAtom], q: float
) -> ConicMetric:
    """q-power combination F = (sum F_k^q + sum |beta_mu|^q)^(1/q).

    Built as ``combine(power_combiner(n, m, q), metrics, forms)``, so its
    tensor is the generic Hessian assembly; the tests cross-check it with
    the tensor written out term by term.
    """
    metrics = list(metrics)
    forms = list(forms)
    combiner = power_combiner(len(metrics), len(forms), q)
    if not metrics:
        raise BadExponent("power combination needs at least one metric (n >= 1)")
    return combine(combiner, metrics, forms)


# ---------------------------------------------------------------------------
# (F0, beta) and (F1, F2) profile combinations
# ---------------------------------------------------------------------------


def _profile_law(profile: PhiProfile, n: int, m: int) -> LCombiner:
    """The law L(x1, x2) = (x1 phi(x2 / x1))^2 of F = F_a phi(x_b / F_a), whose
    second argument is a one-form (n, m = 1, 1) or a second metric (2, 0).

    One profile call per jet.  With psi = phi^2 and s = x2 / x1 the derivatives
    are L_1 = x1 (2 psi - s psi'), L_2 = x1 psi', L_12 = psi' - s psi'',
    L_22 = psi'' and L_11 = 2 psi - 2 s psi' + s^2 psi'' = L_1 / x1 - s L_12.
    L is t * t with t = x1 phi(s), so sqrt(L) = |t| exactly unless t * t
    overflows or underflows.
    """

    def jet_fn(x, with_derivatives):
        x1 = x[..., 0]
        s = x[..., 1] / x1
        ok = profile.contains(s)
        if not with_derivatives:
            t = x1 * profile.jet_fn(s, False)
            return ok, t * t
        phi, dphi, ddphi = profile.jet_fn(s, True)
        t = x1 * phi
        dpsi, ddpsi = 2.0 * phi * dphi, 2.0 * (dphi * dphi + phi * ddphi)
        l1 = 2.0 * phi * phi - s * dpsi  # L_1 / x1
        grad = np.empty(x.shape)
        grad[..., 0] = x1 * l1
        grad[..., 1] = x1 * dpsi
        hess = np.empty(x.shape + (2,))
        hess[..., 0, 1] = hess[..., 1, 0] = l12 = dpsi - s * ddpsi
        hess[..., 0, 0] = l1 - s * l12
        hess[..., 1, 1] = ddpsi
        return ok, t * t, grad, hess

    return LCombiner(n=n, m=m, jet_fn=jet_fn, name=profile.name)


def phi_combine(F0: ConicMetric, beta: OneFormAtom, profile: PhiProfile) -> ConicMetric:
    """Metric F = F0 * phi(beta / F0): :func:`combine` over the profile's law."""
    return combine(_profile_law(profile, 1, 1), [F0], [beta])


def f1f2_combine(F1: ConicMetric, F2: ConicMetric, profile: PhiProfile) -> ConicMetric:
    """Metric F = F1 * phi(F2 / F1), the one-form replaced by a second metric:
    :func:`combine` over the profile's law."""
    return combine(_profile_law(profile, 2, 0), [F1, F2])


# ---------------------------------------------------------------------------
# Named families with their strong-convexity domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrongDomain:
    """Predicate for the conic subdomain where the tensor stays positive definite."""

    many: Callable = field(repr=False)

    def __call__(self, v: TangentVec) -> bool:
        return bool(self.many(v.base, v.vec))


# name -> profile factory of the exponent q
FAMILIES = {
    "randers": lambda q: randers_profile(),
    "kropina": kropina_profile,
    "matsumoto": matsumoto_profile,
    "square_over_f0": lambda q: square_over_f0_profile(),
    "squareoverf0": lambda q: square_over_f0_profile(),
}


def family_profile(name: str, q: float | None = None) -> PhiProfile:
    """Profile of a family in ``FAMILIES``; the exponent q defaults to 1."""
    return FAMILIES[name](1.0 if q is None else float(q))


def named_family(
    name: str, F0: ConicMetric, beta: OneFormAtom, q: float | None = None
) -> tuple[ConicMetric, StrongDomain]:
    """A classical (F0, beta) family and its strong-convexity domain (:func:`characterization_nd`)."""
    key = name.lower()
    if key not in FAMILIES:
        raise BadExponent(f"unknown family {name!r}")
    profile = family_profile(key, q)
    metric = phi_combine(F0, beta, profile)

    def strong_many(base, vec):
        base, vec = np.broadcast_arrays(base, vec)
        ok = np.array(metric.in_domain_many(base, vec), dtype=bool)
        ok[ok] = characterization_nd(F0, beta, profile, TangentVec(base[ok], vec[ok]))
        return ok

    return metric, StrongDomain(many=strong_many)


# ---------------------------------------------------------------------------
# Determinant formula and positive-definiteness characterization
# ---------------------------------------------------------------------------


def _profile_state(F0: ConicMetric, beta: OneFormAtom, profile: PhiProfile, v: TangentVec):
    """(g0, phi, lead, second) over a stack of tangent vectors, the last two
    from :func:`_criterion` with b^2 the squared norm of beta in g0^-1."""
    g0 = tensor(F0, v)
    base, vec = np.broadcast_arrays(v.base, v.vec)
    b = beta.coeffs(base)
    s = beta.pair(base, vec) / F0.F_many(base, vec)
    z = np.linalg.solve(g0, b[..., None])[..., 0]
    profile.require(s)
    p, pd, pdd = profile.jet(s)
    return g0, p, *_criterion(s, np.einsum("...i,...i->...", b, z), p, pd, pdd)


def det_tensor_formula(F0: ConicMetric, beta: OneFormAtom, profile: PhiProfile, v: TangentVec):
    """Closed-form determinant of the (F0, beta)-metric tensor at v.

    ``v`` may hold stacks of shape (..., N); one vector gives a float.
    """
    g0, p, lead, second = _profile_state(F0, beta, profile, v)
    N = F0.dimension
    out = lead ** (N - 2) * second * p ** (N + 1) * np.linalg.det(g0)
    return float(out) if out.ndim == 0 else out


def characterization_nd(
    F0: ConicMetric,
    beta: OneFormAtom,
    profile: PhiProfile,
    v: TangentVec,
    tolerance: float = DEFAULT_EIG_TOL,
):
    """Exact positive-definiteness test from the profile inequalities.

    In dimension two only the determinant-side inequality is required;
    above that the slope condition phi - s phi' > 0 is necessary as well.
    ``v`` may hold stacks of shape (..., N): one vector gives a bool, a
    stack a bool array.
    """
    _, _, lead, second = _profile_state(F0, beta, profile, v)
    ok = second > tolerance
    if F0.dimension > 2:
        ok = ok & (lead > tolerance)
    return bool(ok) if np.ndim(ok) == 0 else ok


# ---------------------------------------------------------------------------
# Reversibilization
# ---------------------------------------------------------------------------


def _negated(vec: np.ndarray) -> np.ndarray:
    """-vec, negating only the vectors that broadcasting distinguishes: each batch
    axis on which ``vec`` has stride 0 stays a stride-0 view."""
    cut = _repeat_cut(vec)
    return -vec if cut is None else np.broadcast_to(-vec[cut], vec.shape)


def _reflected(metric: ConicMetric) -> ConicMetric:
    """The metric v -> F(-v); its tensor at v is the original tensor at -v."""
    return ConicMetric(
        dimension=metric.dimension,
        jet_fn=lambda base, vec, with_tensor: metric.jet_fn(base, _negated(vec), with_tensor),
        zero_in_domain=metric.zero_in_domain,
        position_independent=metric.position_independent,
        name=f"reflect({metric.name})",
    )


def reversibilize(F: ConicMetric, mode: str) -> ConicMetric:
    """Reversible companion metric: F(v) + F(-v) or sqrt(F(v)^2 + F(-v)^2)."""
    if not F.zero_in_domain:
        raise OutsideDomain("reversibilization needs the whole tangent space as domain")
    key = mode.lower()
    if key == "sum":
        out = combine(sum_combiner(2), [F, _reflected(F)], [])
    elif key == "quadratic":
        out = power_q_combine([F, _reflected(F)], [], q=2.0)
    else:
        raise InvalidArgument(f"mode must be 'sum' or 'quadratic', got {mode!r}", path="mode")
    return out.with_name(f"reversible[{key}]({F.name})")
