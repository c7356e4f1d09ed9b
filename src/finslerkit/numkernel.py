"""Small dense numerics shared by every other module.

Finite differences (gradients and Hessians over batches of points, NaN
at each point where a probe is not finite, and the one-call jet of a
function of one variable), symmetric eigenvalue classification,
composite Simpson weights, the embedded 3/7-point Gauss-Kronrod rule and
one-dimensional root bracketing.  All functions are pure; vectors are
plain float ndarrays.

The finite-difference routines stand in where no closed form is given
and cross-check the closed-form tensors, so they deliberately do not
share any code with the analytic paths.  :func:`fd_hessian_batch` is the
oracle's form: it raises where :func:`fd_hessian_rows` gives NaN.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import InvalidArgument, NoBracket, NonFiniteSample

EPS = float(np.finfo(float).eps)
GRAD_STEP = EPS ** (1.0 / 3.0)  # optimal for central first differences
HESS_STEP = EPS ** 0.25  # optimal for central second differences
DEFAULT_EIG_TOL = 1e-9
RAY_DOUBLINGS = 60  # ray_root's bracket search widens 2^60-fold each way before giving up


class Definiteness(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    POSITIVE_SEMIDEFINITE_DEGENERATE = "PositiveSemiDefiniteDegenerate"
    INDEFINITE = "Indefinite"
    NEGATIVE_SEMIDEFINITE = "NegativeSemiDefinite"
    NEGATIVE_DEFINITE = "NegativeDefinite"


_CLASSES = np.array(tuple(Definiteness), dtype=object)  # the code table: code i is _CLASSES[i]


@dataclass(frozen=True)
class EigenReport:
    """Sorted spectra of a stack (..., N, N) of symmetric matrices and their sign classes.

    ``eigenvalues`` is (..., N), ascending; ``min_eigenvalue`` and ``code``
    are (...); ``code`` indexes ``tuple(Definiteness)``.  For one matrix they
    are a float and an int, so ``classification`` is one ``Definiteness``
    member and ``is_positive_definite`` one bool.
    """

    eigenvalues: np.ndarray
    min_eigenvalue: np.ndarray | float
    code: np.ndarray | int

    @property
    def classification(self) -> Definiteness | np.ndarray:
        return _CLASSES[self.code]

    @property
    def is_positive_definite(self) -> np.ndarray | bool:
        return self.code == 0


def _eval_stack(f, points: np.ndarray) -> np.ndarray:
    """``f`` on a stack of points (..., n), one value per point.

    Out-of-domain probes are expected to produce NaN (not warnings), which
    the kernels turn into NaN rows.  An output of any other shape is an
    InvalidArgument at ``f``.
    """
    with np.errstate(all="ignore"):
        out = np.asarray(f(points), dtype=float)
    if out.shape != points.shape[:-1]:
        msg = f"f must map a stack of points {points.shape} to one value each, got shape {out.shape}"
        raise InvalidArgument(msg, path="f", constraint="shape")
    return out


def fd_gradient_rows(f, x, scale=None) -> np.ndarray:
    """Central-difference gradients of a scalar function, shape (..., n) -> (..., n),
    NaN at each point where a probe of ``f`` is not finite.

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
    vals = _eval_stack(f, np.concatenate([x + steps, x - steps]))
    finite = np.isfinite(vals)
    vals = np.where(finite, vals, np.nan)  # NaN arithmetic raises no warning
    grad = np.moveaxis((vals[:n] - vals[n:]) / (2.0 * h), 0, -1)
    grad[~np.all(finite, axis=0)] = np.nan
    return grad


def central_jet(f):
    """The one-call jet of a scalar function of one variable:
    ``jet_fn(t, with_derivatives)`` returns f(t), or (f(t), f'(t), f''(t))
    with central differences of steps ``GRAD_STEP`` and ``HESS_STEP``."""

    def jet_fn(t, with_derivatives):
        t = np.asarray(t, dtype=float)
        v = np.asarray(f(t))
        if not with_derivatives:
            return v
        d1 = (np.asarray(f(t + GRAD_STEP)) - np.asarray(f(t - GRAD_STEP))) / (2.0 * GRAD_STEP)
        d2 = (np.asarray(f(t + HESS_STEP)) - 2.0 * v + np.asarray(f(t - HESS_STEP))) / (HESS_STEP * HESS_STEP)
        return v, d1, d2

    return jet_fn


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


def fd_hessian_rows(f, xs: np.ndarray, scale=None) -> np.ndarray:
    """Hessians of ``f`` at a batch of points, shape (..., n) -> (..., n, n),
    NaN at each point where a probe of ``f`` is not finite.

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
    vals = _eval_stack(f, points)
    finite = np.isfinite(vals)
    vals = np.where(finite, vals, np.nan)  # NaN arithmetic raises no warning

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
    hess[~np.all(finite, axis=0)] = np.nan
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def fd_hessian_batch(f, xs: np.ndarray, scale=None) -> np.ndarray:
    """:func:`fd_hessian_rows`; NonFiniteSample where a probe is not finite."""
    hess = fd_hessian_rows(f, xs, scale)
    if not np.all(np.isfinite(hess)):
        raise NonFiniteSample("non-finite sample while evaluating fd_hessian")
    return hess


def eigen_classify(m: np.ndarray, tolerance: float = DEFAULT_EIG_TOL) -> EigenReport:
    """Classify a symmetric matrix, or a stack (..., N, N), by the signs of its spectrum.

    The cut is relative to each matrix's spectral norm: eigenvalues within
    ``tolerance * ||m||`` of zero count as degenerate, and the all-zero
    matrix is degenerate PSD.  One call gives one :class:`EigenReport`.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise InvalidArgument(f"expected shape (..., N, N) with N >= 1, got {m.shape}", path="m", constraint="shape")
    if not np.all(np.isfinite(m)):
        raise NonFiniteSample("non-finite entries in eigen_classify input")
    eig = np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, -1, -2)))  # ascending
    cut = tolerance * np.max(np.abs(eig), axis=-1, keepdims=True)
    n, n_pos, n_neg = eig.shape[-1], np.sum(eig > cut, axis=-1), np.sum(eig < -cut, axis=-1)
    # PositiveDefinite 0, PositiveSemiDefiniteDegenerate 1, Indefinite 2, NegativeSemiDefinite 3, NegativeDefinite 4
    code = np.select([n_neg == 0, n_pos == 0], [np.where(n_pos == n, 0, 1), np.where(n_neg == n, 4, 3)], 2)
    if m.ndim == 2:
        return EigenReport(eigenvalues=eig, min_eigenvalue=float(eig[0]), code=int(code))
    return EigenReport(eigenvalues=eig, min_eigenvalue=eig[..., 0], code=code)


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


def ray_root(g, bracket_hint) -> np.ndarray:
    """Positive root on (0, inf) of each of K rows, found by doubling then
    bisection, with the rows cast together.

    ``bracket_hint`` holds one hint per row, shape (K,); a hint <= 0 is 1.
    ``g(rows, lam)`` takes the ascending indices of the unfinished rows and
    one probe for each, and returns one value per row.  Each round, every
    unfinished row takes the next probe of its own sequence: the hint, then
    hint * 2^k and hint / 2^k for k = 1, 2, ... until the sign changes, then
    bisection until the bracket's width is at most 1e-14 * max(1, mid), whose
    midpoint is the row's root.  ``g`` may be a genuine continuous function
    or a +/-1 membership indicator.  A non-finite value met while doubling
    counts as no sign change; at a hint it raises NonFiniteSample.  A row
    with no sign change within ``RAY_DOUBLINGS`` doublings raises NoBracket,
    whose ``row`` is the first such row.

    A round costs about twenty small array operations, the same for one row
    as for thousands, beside the work of ``g``: the batch pays off over many
    rows, while a few rows take longer than a scalar loop over each would.
    """
    hint = np.asarray(bracket_hint, dtype=float)
    lam0 = np.where(hint <= 0.0, 1.0, hint)
    g0 = np.asarray(g(np.arange(lam0.shape[0]), lam0), dtype=float)
    bad = ~np.isfinite(g0)
    if bad.any():
        row = int(np.argmax(bad))
        raise NonFiniteSample(f"non-finite value in ray_root at the hint of row {row}")
    root = lam0.copy()  # a row whose hint is a zero of g ends there

    # The state of the unfinished rows ``act`` (ascending) is held in arrays
    # aligned with act and compacted when rows end, so a round costs the same
    # few array operations whatever its rows do.  sign0 is the sign of the
    # inner end of each search bracket, the hint; a probe p is a sign change
    # when -inf < p * sign0 <= 0 (NaN and infinities are not).  A bracketed row
    # keeps lo = mid while mid's value times s, the sign of lo's, is positive;
    # s is NaN where lo's value was 0 (the product is then never positive) and
    # for the rows still searching, whose lo is NaN too so that they never end.
    act = np.flatnonzero(g0 != 0.0)
    lam0 = lam0[act]
    sign0 = np.where(g0[act] > 0.0, 1.0, -1.0)
    lo, hi, s = np.full(act.size, np.nan), np.full(act.size, np.nan), np.full(act.size, np.nan)
    start = np.zeros(act.size, dtype=np.int64)  # the round of each row's bracket
    searching = np.ones(act.size, dtype=bool)
    n_search = act.size
    # with every probe below half the largest float nothing here overflows
    huge = act.size and lam0.max() > np.finfo(float).max / 2.0 ** (RAY_DOUBLINGS + 2)
    quiet = partial(np.errstate, over="ignore", invalid="ignore") if huge else nullcontext
    with quiet():
        lam = lam0 * 2.0
    rounds = 0
    while act.size:
        rounds += 1
        val = np.asarray(g(act, lam), dtype=float)
        with quiet():
            keep = val * s > 0.0
            np.copyto(lo, lam, where=keep)
            np.copyto(hi, lam, where=~keep)
            hit = val == 0.0  # a bisection probe at a root ends its row there
            if n_search:
                # a row without a bracket probed up 2^k on odd rounds and down 2^k on even ones
                k = (rounds + 1) // 2
                hit &= ~searching
                ps = val * sign0
                change = searching & (-np.inf < ps) & (ps <= 0.0)
                if rounds % 2:
                    np.copyto(lo, lam0 * 2.0 ** (k - 1), where=change)
                    np.copyto(hi, lam, where=change)
                    np.copyto(s, sign0, where=change)
                else:
                    np.copyto(lo, lam, where=change)
                    np.copyto(hi, lam0 / 2.0 ** (k - 1), where=change)
                    np.copyto(s, np.where(val == 0.0, np.nan, -sign0), where=change)
                start[change] = rounds
                searching &= ~change
                n_search = np.count_nonzero(searching)
                if n_search and rounds == 2 * RAY_DOUBLINGS:
                    i = int(np.argmax(searching))
                    raise NoBracket(f"no sign change within {RAY_DOUBLINGS} doublings of {lam0[i]}", row=int(act[i]))
            mid = 0.5 * (lo + hi)
            done = (hi - lo <= 1e-14 * np.maximum(1.0, mid)) | hit
            if rounds > 200:  # past round 2 * RAY_DOUBLINGS every row has its bracket
                done |= rounds - start >= 200
            if np.count_nonzero(done):
                root[act[done]] = mid[done]
                root[act[hit]] = lam[hit]
                live = ~done
                act, lam0, sign0, lo, hi, s, start, searching, mid = (
                    x[live] for x in (act, lam0, sign0, lo, hi, s, start, searching, mid)
                )
            if n_search:
                k = rounds // 2 + 1
                mid = np.where(searching, lam0 * 2.0**k if rounds % 2 == 0 else lam0 / 2.0**k, mid)
        lam = mid
    return root
