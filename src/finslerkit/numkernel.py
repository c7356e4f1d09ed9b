"""Small dense numerics shared by every other module.

Finite-difference oracles (gradient/Hessian, one-variable derivatives),
symmetric eigenvalue classification, composite Simpson quadrature, the
embedded 3/7-point Gauss-Kronrod rule and one-dimensional root
bracketing.  All functions are pure; vectors are plain float ndarrays.

The finite-difference routines stand in where no closed form is given
and cross-check the closed-form tensors, so they deliberately do not
share any code with the analytic paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoBracket, NonFiniteSample

EPS = float(np.finfo(float).eps)
GRAD_STEP = EPS ** (1.0 / 3.0)  # optimal for central first differences
HESS_STEP = EPS ** 0.25  # optimal for central second differences
DEFAULT_QUAD_NODES = 65
DEFAULT_EIG_TOL = 1e-9
RAY_DOUBLINGS = 60  # ray_root's bracket search widens 2^60-fold each way before giving up


class Definiteness(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    POSITIVE_SEMIDEFINITE_DEGENERATE = "PositiveSemiDefiniteDegenerate"
    INDEFINITE = "Indefinite"
    NEGATIVE_SEMIDEFINITE = "NegativeSemiDefinite"
    NEGATIVE_DEFINITE = "NegativeDefinite"


@dataclass(frozen=True)
class EigenReport:
    """Sorted spectrum of a symmetric matrix plus its sign classification."""

    eigenvalues: np.ndarray
    min_eigenvalue: float
    classification: Definiteness

    @property
    def is_positive_definite(self) -> bool:
        return self.classification is Definiteness.POSITIVE_DEFINITE


def _check_finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise NonFiniteSample(f"non-finite sample while evaluating {what}")
    return values


def _eval_stack(f, points: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` on a stack of points, accommodating scalar-only callables.

    Out-of-domain probes are expected to produce NaN (not warnings); the
    caller turns them into NonFiniteSample.
    """
    with np.errstate(all="ignore"):
        out = np.asarray(f(points), dtype=float)
        if out.shape != points.shape[:-1]:
            out = np.array([f(p) for p in points.reshape(-1, points.shape[-1])], dtype=float)
            out = out.reshape(points.shape[:-1])
    return out


def fd_gradient(f, x, scale=None) -> np.ndarray:
    """Central-difference gradients of a scalar function, shape (..., n) -> (..., n).

    The step per point is h = cbrt(eps) * max(1, scale); ``scale``
    broadcasts over the batch and defaults to the norm of each point.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    batch = x.shape[:-1]
    s = np.linalg.norm(x, axis=-1) if scale is None else np.broadcast_to(np.asarray(scale, float), batch)
    h = GRAD_STEP * np.maximum(1.0, s)
    # probes: (2n, ..., n), the +h steps first
    steps = np.eye(n).reshape(n, *([1] * len(batch)), n) * h[..., None]
    vals = _check_finite(_eval_stack(f, np.concatenate([x + steps, x - steps])), "fd_gradient")
    return np.moveaxis((vals[:n] - vals[n:]) / (2.0 * h), 0, -1)


def central_derivatives(f):
    """First and second derivatives of a scalar function of one variable,
    as central differences with steps ``GRAD_STEP`` and ``HESS_STEP``."""

    def d1(t):
        t = np.asarray(t, dtype=float)
        return (np.asarray(f(t + GRAD_STEP)) - np.asarray(f(t - GRAD_STEP))) / (2.0 * GRAD_STEP)

    def d2(t):
        t = np.asarray(t, dtype=float)
        return (
            np.asarray(f(t + HESS_STEP)) - 2.0 * np.asarray(f(t)) + np.asarray(f(t - HESS_STEP))
        ) / (HESS_STEP * HESS_STEP)

    return d1, d2


def _hessian_stencil(n: int):
    """Offsets (in units of h) and index bookkeeping for the Hessian stencil."""
    offs = [np.zeros(n)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        offs.append(e.copy())
        offs.append(-e)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in pairs:
        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            e = np.zeros(n)
            e[i], e[j] = si, sj
            offs.append(e)
    return np.array(offs), pairs


def fd_hessian_batch(f, xs: np.ndarray, scale=None) -> np.ndarray:
    """Hessians of ``f`` at a batch of points, shape (..., n) -> (..., n, n).

    Uses the 4-point mixed stencil; the result is symmetrized exactly.
    """
    xs = np.asarray(xs, dtype=float)
    n = xs.shape[-1]
    batch = xs.shape[:-1]
    if scale is None:
        s = np.maximum(1.0, np.linalg.norm(xs, axis=-1))
    else:
        s = np.maximum(1.0, np.broadcast_to(np.asarray(scale, float), batch).astype(float))
    h = HESS_STEP * s[..., None]  # (..., 1)

    offsets, pairs = _hessian_stencil(n)
    # points: (n_off, ..., n)
    points = xs[None, ...] + offsets.reshape(-1, *([1] * len(batch)), n) * h[None, ...]
    vals = _check_finite(_eval_stack(f, points), "fd_hessian")

    hsq = (h[..., 0]) ** 2
    hess = np.zeros(batch + (n, n))
    f0 = vals[0]
    for i in range(n):
        fp, fm = vals[1 + 2 * i], vals[2 + 2 * i]
        hess[..., i, i] = (fp - 2.0 * f0 + fm) / hsq
    base = 1 + 2 * n
    for k, (i, j) in enumerate(pairs):
        fpp, fpm, fmp, fmm = vals[base + 4 * k : base + 4 * k + 4]
        mixed = (fpp - fpm - fmp + fmm) / (4.0 * hsq)
        hess[..., i, j] = mixed
        hess[..., j, i] = mixed
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def fd_hessian(f, x, scale: float | None = None) -> np.ndarray:
    """Symmetric central-difference Hessian of a scalar function at ``x``."""
    x = np.asarray(x, dtype=float)
    return fd_hessian_batch(f, x[None, :], scale=scale)[0]


def eigen_classify(m: np.ndarray, tolerance: float = DEFAULT_EIG_TOL) -> EigenReport | list[EigenReport]:
    """Classify a symmetric matrix, or a stack (..., N, N), by the signs of its spectrum.

    The cut is relative to each matrix's spectral norm: eigenvalues within
    ``tolerance * ||m||`` of zero count as degenerate.  One matrix gives one
    report; a stack gives a list of reports, one per matrix in C order.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise NonFiniteSample("non-finite entries in eigen_classify input")
    eig = np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, -1, -2)))  # ascending
    eig = eig.reshape(-1, eig.shape[-1])
    cut = tolerance * np.max(np.abs(eig), axis=-1, keepdims=True)
    pos = np.sum(eig > cut, axis=-1).tolist()
    neg = np.sum(eig < -cut, axis=-1).tolist()
    D = Definiteness
    reports = []
    for e, n_pos, n_neg in zip(eig, pos, neg):
        if n_neg == 0:
            # the all-zero matrix counts as degenerate PSD
            cls = D.POSITIVE_DEFINITE if n_pos == e.size else D.POSITIVE_SEMIDEFINITE_DEGENERATE
        elif n_pos == 0:
            cls = D.NEGATIVE_DEFINITE if n_neg == e.size else D.NEGATIVE_SEMIDEFINITE
        else:
            cls = D.INDEFINITE
        reports.append(EigenReport(eigenvalues=e, min_eigenvalue=float(e[0]), classification=cls))
    return reports[0] if m.ndim == 2 else reports


def simpson_weights(nodes: int) -> np.ndarray:
    """Composite Simpson weights on ``nodes`` equispaced points (odd count)."""
    if nodes < 3:
        nodes = 3
    if nodes % 2 == 0:
        nodes += 1
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


# The embedded 3/7-point Gauss-Kronrod pair on [-1, 1] (Kronrod 1965): the
# 7 Kronrod abscissae hold the 3 Gauss-Legendre ones at the odd indices.
_K7_X = np.array([0.96049126870802028, 0.77459666924148338, 0.43424374934680256, 0.0])
_K7_W = np.array([0.10465622602646727, 0.26848808986833344, 0.40139741477596222, 0.45091653865847414])
_G3_W = np.array([5.0 / 9.0, 8.0 / 9.0])


def gauss_kronrod_3_7() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nodes, K7 weights, G3 weights) of the embedded Gauss-Kronrod pair on [0, 1].

    The 7 nodes ascend; the 3-point Gauss rule (exact to degree 5) uses
    ``nodes[1::2]`` and the 7-point Kronrod rule is exact to degree 11.
    """
    x = np.concatenate([-_K7_X[:-1], _K7_X[::-1]])
    k7 = np.concatenate([_K7_W[:-1], _K7_W[::-1]])
    g3 = np.concatenate([_G3_W, _G3_W[:1]])
    return 0.5 * (1.0 + x), 0.5 * k7, 0.5 * g3


def integrate_1d(f, a: float, b: float, nodes: int = DEFAULT_QUAD_NODES) -> float:
    """Composite Simpson integral of ``f`` over [a, b]."""
    w = simpson_weights(nodes)
    t = np.linspace(a, b, w.size)
    try:
        y = np.asarray(f(t), dtype=float)
        if y.shape != t.shape:
            raise TypeError
    except (TypeError, ValueError):
        y = np.array([f(ti) for ti in t], dtype=float)
    _check_finite(y, "integrate_1d")
    step = (b - a) / (w.size - 1)
    return float(np.dot(w, y) * step)


def ray_root(g, bracket_hint: float = 1.0) -> float:
    """Positive root of ``g`` on (0, inf), found by doubling then bisection.

    ``g`` may be a genuine continuous function or a +/-1 membership
    indicator; either way the bracket is shrunk to relative width 1e-14
    and its midpoint returned.  A non-finite value met while doubling
    counts as no sign change.
    """
    lam0 = float(bracket_hint)
    if lam0 <= 0:
        lam0 = 1.0
    g0 = float(g(lam0))
    if not math.isfinite(g0):
        raise NonFiniteSample("non-finite value in ray_root at the hint")
    if g0 == 0.0:
        return lam0

    # sign0 is the sign of the inner end of each bracket, the previous probe (or
    # the hint); a probe p is a sign change when -inf < p * sign0 <= 0 (NaN and
    # infinities are not), and the bisection keeps lo = mid while mid's value
    # times the sign of lo's is positive (NaN never is; lo's sign may be 0)
    sign0 = 1.0 if g0 > 0.0 else -1.0
    for k in range(1, RAY_DOUBLINGS + 1):
        up = lam0 * (2.0**k)
        gu = float(g(up))
        if -math.inf < gu * sign0 <= 0.0:
            lo, hi, sign_lo = lam0 * (2.0 ** (k - 1)), up, sign0
            break
        down = lam0 / (2.0**k)
        gd = float(g(down))
        if -math.inf < gd * sign0 <= 0.0:
            lo, hi, sign_lo = down, lam0 / (2.0 ** (k - 1)), 0.0 if gd == 0.0 else -sign0
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
        if gm * sign_lo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
