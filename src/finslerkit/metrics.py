"""Conic pseudo-Finsler metrics on R^N.

A metric is a positively homogeneous fiberwise pseudo-norm defined on an
open cone A of the tangent bundle of R^N.  A is the jet's domain mask, so
a restriction on base points is part of it.  Evaluation is vectorized:
one jet call per metric node returns the domain mask, the values and, on
request, the fundamental tensors for a stack of (base, vector) pairs,
which is what makes the scans and graph builders in the rest of the
package fast without any compiled extension.  The module needs only
numpy; ``scipy.special`` is imported by the first direction fan above
three dimensions, the only caller of ``ndtri``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DomainEmpty, InvalidArgument, NonFiniteSample, OutsideDomain, check_integer, check_real
from .minkowski import GaugeNorm
from .numkernel import (
    DEFAULT_EIG_TOL,
    EigenReport,
    eigen_classify,
    fd_hessian_batch,
    fd_hessian_rows,
)

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_DIMENSION = len(_PRIMES)  # kronecker_sequence, and so unit_directions, has one prime per axis
MAX_DRAWS_PER_SAMPLE = 400  # stream rows drawn per requested sample before the domain counts as empty
MAX_SAMPLES = 10**6  # samples of a direction fan or a seeded draw, checked before any allocation


@dataclass(frozen=True)
class TangentVec:
    """A tangent vector: base point plus fiber vector."""

    base: np.ndarray
    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "vec", np.asarray(self.vec, dtype=float))


def kronecker_sequence(count: int, dim: int) -> np.ndarray:
    """Deterministic low-discrepancy points in [0,1)^dim, for dim up to MAX_DIMENSION."""
    if dim > MAX_DIMENSION:
        msg = f"kronecker_sequence supports at most {MAX_DIMENSION} dimensions, got {dim}"
        raise InvalidArgument(msg, path="dim", constraint="maximum")
    alphas = np.sqrt(np.array(_PRIMES[:dim], dtype=float))
    i = np.arange(1, count + 1, dtype=float)[:, None]
    return np.mod(0.5 + i * alphas[None, :], 1.0)


def _check_samples(samples: int, name: str = "samples") -> int:
    """``samples`` as an int; InvalidArgument at ``name``, the caller's name for the count, unless
    1 <= samples <= MAX_SAMPLES and it is an integer.  One that is not a real number fails
    ``integer`` first, a fraction or a boolean within the bounds after them."""
    check_real(samples, name)
    if not samples >= 1:
        raise InvalidArgument(f"{name} must be at least 1", path=name, constraint="minimum")
    if not samples <= MAX_SAMPLES:
        raise InvalidArgument(f"{name} must be at most {MAX_SAMPLES}", path=name, constraint="maximum")
    return check_integer(samples, name)


def unit_directions(dim: int, samples: int) -> np.ndarray:
    """``samples`` deterministic low-discrepancy directions on the unit sphere."""
    samples = _check_samples(samples)
    if dim == 1:
        signs = np.where(np.arange(samples) % 2 == 0, 1.0, -1.0)
        return signs[:, None]
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(samples) / samples
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    if dim == 3:
        # Fibonacci sphere lattice
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        i = np.arange(samples, dtype=float)
        z = 1.0 - (2.0 * i + 1.0) / samples
        phi = 2.0 * np.pi * i / golden
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)
    from scipy.special import ndtri

    u = kronecker_sequence(samples, dim)
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def admissible_draws(rng, samples: int, dim: int, accept: Callable, paired: bool = False):
    """The first ``samples`` rows of the seeded stream ``rng.normal(size=(k, dim))`` that ``accept`` admits.

    ``accept`` maps a block of ``2 * samples`` rows to its boolean mask in one
    call; only the picked rows are kept.  With ``paired`` the result is
    ``(picked, partners)``: the row after each pick is its partner, whatever
    ``accept`` says of it, and is never picked.  ``DomainEmpty`` is raised
    when ``MAX_DRAWS_PER_SAMPLE * samples`` rows give too few picks.
    """
    samples = _check_samples(samples)
    block, cap = 2 * samples, MAX_DRAWS_PER_SAMPLE * samples
    picks, partners, found, skip = [], [], 0, 0  # skip: 1 when a block opens with the last pick's partner
    for _ in range(cap // block):
        rows = rng.normal(size=(block, dim))
        idx = skip + np.flatnonzero(accept(rows)[skip:])
        if paired:
            walk = []
            for i in idx.tolist():
                if not walk or i > walk[-1] + 1:
                    walk.append(i)
            idx = np.array(walk, dtype=int)
        idx = idx[: samples - found]
        picks.append(rows[idx])
        found += idx.size
        if paired:
            partners += [rows[:skip], rows[idx[idx < block - 1] + 1]]
            skip = int(idx.size > 0 and idx[-1] == block - 1)
        if found == samples:
            partners.append(rng.normal(size=(skip, dim)))  # a last partner that opens the next block
            return (np.concatenate(picks), np.concatenate(partners)) if paired else np.concatenate(picks)
    raise DomainEmpty(f"{found} of {samples} random vectors admissible after {cap} draws")


def _field_values(field: Callable, x, constant: bool, rank: int) -> np.ndarray:
    """The values (..., *T) of an atom's ``field`` at the points x (..., N), T
    its trailing shape of ``rank`` axes: the callable's value, broadcast to
    the batch unless it already has that shape, so one that ignores x may
    return one value.  A position-dependent field is evaluated only on the
    points that broadcasting distinguishes, each batch axis on which x has
    stride 0 cut to length 1 (:func:`_repeat_cut`), and its values are
    broadcast back into one contiguous array: einsum pairs that with a stack
    of vectors repeated along another axis (a graph segment's velocities) at
    about twice the speed of a second stride-0 operand.  The bits are those
    of the full stack, as long as the field maps each point on its own."""
    x = np.asarray(x, dtype=float)
    cut = None if constant else _repeat_cut(x)
    out = np.asarray(field(x if cut is None else x[cut]), dtype=float)
    shape = x.shape[:-1] + out.shape[out.ndim - rank :]
    if out.shape == shape:
        return out
    return np.broadcast_to(out, shape) if cut is None else np.ascontiguousarray(np.broadcast_to(out, shape))


@dataclass(frozen=True)
class RiemannAtom:
    """Positive-definite matrix field; ``constant`` marks a position-independent one."""

    metric_matrix: Callable[[np.ndarray], np.ndarray]
    constant: bool = False

    def matrix(self, x) -> np.ndarray:
        """The matrices at the points x (..., N), shape (..., N, N), by :func:`_field_values`."""
        return _field_values(self.metric_matrix, x, self.constant, 2)


def _frozen(values) -> np.ndarray:
    """A read-only float copy of ``values``: an atom hands it out without a copy."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def constant_riemann(matrix) -> RiemannAtom:
    g0 = _frozen(matrix)
    return RiemannAtom(metric_matrix=lambda x: g0, constant=True)


def euclidean_atom(dimension: int) -> RiemannAtom:
    return constant_riemann(np.eye(dimension))


@dataclass(frozen=True)
class OneFormAtom:
    """Covector field beta = sum b_i(x) dx^i; ``constant`` marks a position-independent one."""

    covector: Callable[[np.ndarray], np.ndarray]
    constant: bool = False

    def coeffs(self, x) -> np.ndarray:
        """The covectors at the points x (..., N), shape (..., N), by :func:`_field_values`."""
        return _field_values(self.covector, x, self.constant, 1)

    def pair(self, x, v) -> np.ndarray:
        return np.einsum("...i,...i->...", self.coeffs(x), np.asarray(v, dtype=float))


def constant_oneform(coeffs) -> OneFormAtom:
    b0 = _frozen(coeffs)
    return OneFormAtom(covector=lambda x: b0, constant=True)


def _repeat_cut(vec: np.ndarray):
    """The index that cuts to length 1 each batch axis of the stack ``vec``
    (..., N) on which it has stride 0 and length above 1, or None when no axis
    repeats: ``vec[cut]`` holds the vectors (or base points) that broadcasting
    distinguishes."""
    repeated = [step == 0 and size > 1 for step, size in zip(vec.strides, vec.shape[:-1])]
    return tuple(slice(None, 1) if r else slice(None) for r in repeated) if any(repeated) else None


@dataclass(frozen=True)
class ConicMetric:
    """Behavioral contract of a conic pseudo-Finsler metric on R^N, N = ``dimension``.

    A metric is one node of an expression tree, evaluated by one call:
    ``jet_fn(base, vec, with_tensor)`` takes two stacks (base, vec) of the
    same shape (..., N), which :meth:`jet` broadcasts once per top-level
    call, and returns ``(ok, F)`` for the whole batch, or
    ``(ok, F, g)`` with the fundamental tensors g of shape (..., N, N) when
    ``with_tensor`` is set.  ``ok`` is the node's conic domain, and a
    restriction on base points belongs in it; ``position_independent``
    says that the whole jet, ``ok`` included, ignores the base point.  A
    combinator calls each child's :meth:`node_jet` once and builds its
    value, domain and tensor from those results.  A node without a
    closed-form tensor returns ``(ok, F)`` either way; its tensor is then
    the finite-difference Hessian of F^2/2, which is also the oracle the
    closed forms are checked against in the tests.
    """

    dimension: int
    jet_fn: Callable = field(repr=False)
    zero_in_domain: bool = False
    position_independent: bool = False
    name: str = ""

    def node_jet(self, base, vec, with_tensor: bool = False) -> tuple:
        """This node's jet with F NaN outside the domain.

        The zero vector is not excluded here; :meth:`jet` does that once per
        top-level call.  A position-independent node evaluates a value jet
        only on the vectors that broadcasting distinguishes: each batch axis
        on which ``vec`` has stride 0 is cut to length 1, and ``(ok, F)`` is
        broadcast back, read-only.  A pair gets the same result in any batch,
        so the bits are those of the full stack.  Tensor jets take the stack
        as it is.
        """
        if self.position_independent and not with_tensor:
            cut = _repeat_cut(vec)
            if cut is not None:
                ok, F = self.node_jet(base[cut], vec[cut])
                return np.broadcast_to(ok, vec.shape[:-1]), np.broadcast_to(F, vec.shape[:-1])
        out = self.jet_fn(base, vec, with_tensor)
        ok = out[0]
        F = np.where(ok, out[1], np.nan)
        if not with_tensor:
            return ok, F
        if len(out) == 3:
            return ok, F, out[2]
        # no closed form: finite differences, NaN where a probe leaves the domain
        fd = ok & (np.linalg.norm(vec, axis=-1) > 0.0)
        g = np.full(vec.shape + vec.shape[-1:], np.nan)
        g[fd] = self._fd(fd_hessian_rows, base[fd], vec[fd])
        return ok, F, g

    def jet(self, base, vec, with_tensor: bool = False) -> tuple:
        """``(ok, F)`` or ``(ok, F, g)`` over a batch; F is NaN where ok is False.

        ``base`` and ``vec`` are broadcastable stacks (..., N); the node jets
        get them broadcast to one shape.  Tensor entries for out-of-domain
        inputs are unspecified (NaN or garbage); use :func:`tensor` for the
        checked pointwise operation.  A pair gets the same result in any batch.
        """
        base = np.asarray(base, dtype=float)
        vec = np.asarray(vec, dtype=float)
        with np.errstate(all="ignore"):
            # |v| > 0 with |v|^2 summed as np.linalg.norm sums it, on the caller's stack, not the broadcast one
            nonzero = (vec * vec).sum(axis=-1) > 0.0
            # A leading axis keeps even one pair on numpy's array loops, whose power
            # differs from the scalar one in the last bit.
            base, vec = np.broadcast_arrays(base[None], vec[None])
            ok, F, *g = (out[0, ...] for out in self.node_jet(base, vec, with_tensor))
        ok = ok & nonzero
        return (ok, np.where(ok, F, np.nan), *g)

    def in_domain_many(self, base, vec) -> np.ndarray:
        return self.jet(base, vec)[0]

    def F_many(self, base, vec) -> np.ndarray:
        """Vectorized metric values; NaN outside the domain."""
        return self.jet(base, vec)[1]

    def tensor_many(self, base, vec) -> np.ndarray:
        """Fundamental tensors, shape (..., N, N); see :meth:`jet`."""
        return self.jet(base, vec, with_tensor=True)[2]

    def fd_tensor_many(self, base, vec) -> np.ndarray:
        """Finite-difference Hessian of F^2/2 in the fiber variable.

        The probe step follows max(1, |v|), so relative accuracy is best
        for vectors near unit scale; the tensor itself is scale-invariant.
        NonFiniteSample where a probe leaves the domain.
        """
        return self._fd(fd_hessian_batch, base, vec)

    def _fd(self, hessian, base, vec) -> np.ndarray:
        """``hessian`` (:func:`fd_hessian_batch` or :func:`fd_hessian_rows`) of F^2/2 in the fiber."""
        base_b, vec_b = np.broadcast_arrays(np.asarray(base, dtype=float), np.asarray(vec, dtype=float))

        def half_f_squared(vs):
            val = self.F_many(base_b, vs)
            return 0.5 * val * val

        return hessian(half_f_squared, vec_b, scale=np.linalg.norm(vec_b, axis=-1))

    def with_name(self, name: str) -> "ConicMetric":
        return replace(self, name=name)


# ---------------------------------------------------------------------------
# Constructors for the base atoms
# ---------------------------------------------------------------------------


def riemann_metric(atom: RiemannAtom, dimension: int, name: str = "") -> ConicMetric:
    """Square root of a Riemannian metric on R^dimension; strongly convex everywhere."""

    def jet_fn(base, vec, with_tensor):
        g = atom.matrix(base)
        F = np.sqrt(np.maximum(np.einsum("...i,...ij,...j->...", vec, g, vec), 0.0))
        ok = np.ones(F.shape, dtype=bool)
        if not with_tensor:
            return ok, F
        return ok, F, g

    return ConicMetric(
        dimension=dimension,
        jet_fn=jet_fn,
        zero_in_domain=True,
        position_independent=atom.constant,
        name=name or "riemann",
    )


def euclidean_metric(dimension: int = 2) -> ConicMetric:
    return riemann_metric(euclidean_atom(dimension), dimension, name="euclidean")


def oneform_metric(form: OneFormAtom, dimension: int, name: str = "") -> ConicMetric:
    """F = beta on the half-space cone {beta > 0} over R^dimension: a degenerate conic metric."""

    def jet_fn(base, vec, with_tensor):
        b = form.coeffs(base)
        beta = np.einsum("...i,...i->...", b, vec)
        if not with_tensor:
            return beta > 0.0, beta
        return beta > 0.0, beta, b[..., :, None] * b[..., None, :]

    return ConicMetric(
        dimension=dimension,
        jet_fn=jet_fn,
        zero_in_domain=False,
        position_independent=form.constant,
        name=name or "oneform",
    )


def minkowski_metric(gauge: GaugeNorm, name: str = "") -> ConicMetric:
    """Lift a fixed Minkowski conic pseudo-norm to a position-independent metric.

    Its jet is the gauge's one evaluation pass (:meth:`GaugeNorm.member_value`);
    the gauge has no closed-form tensor, so the jet is order 0 only.
    """
    def jet_fn(base, vec, with_tensor):
        return gauge.member_value(vec)

    dirs = unit_directions(gauge.dimension, 64)
    full = bool(np.all(gauge.member(dirs)))
    return ConicMetric(
        dimension=gauge.dimension,
        jet_fn=jet_fn,
        zero_in_domain=full,
        position_independent=True,
        name=name or "gauge",
    )


# ---------------------------------------------------------------------------
# Pointwise operations
# ---------------------------------------------------------------------------


def _checked(m: ConicMetric, base, vec, with_tensor: bool = False) -> np.ndarray:
    """Values F, or tensors g, over broadcastable stacks in one jet call.

    The zero vector has value 0 where the domain holds it; it has no tensor.
    The first rejected pair in C order raises its error: OutsideDomain for a
    zero or out-of-domain vector, NonFiniteSample for a non-finite result.
    """
    base, vec = np.broadcast_arrays(np.asarray(base, dtype=float), np.asarray(vec, dtype=float))
    ok, F, *g = m.jet(base, vec, with_tensor)
    with np.errstate(all="ignore"):
        zero = np.linalg.norm(vec, axis=-1) == 0.0
    if m.zero_in_domain and not with_tensor:
        ok, F = ok | zero, np.where(zero, 0.0, F)
    out = g[0] if with_tensor else F
    bad = np.flatnonzero(~(ok & np.all(np.isfinite(out), axis=tuple(range(ok.ndim, out.ndim)))))
    if bad.size:
        i = np.unravel_index(bad[0], ok.shape)
        if zero[i]:
            raise OutsideDomain("the zero vector is outside this metric's domain")
        if not ok[i]:
            raise OutsideDomain(
                f"vector {np.array2string(vec[i], precision=4)} at "
                f"{np.array2string(base[i], precision=4)} is outside the conic domain"
            )
        if with_tensor:
            raise NonFiniteSample("fundamental tensor evaluation hit the domain boundary")
        raise NonFiniteSample("metric value is not finite")
    return out


def eval_F(m: ConicMetric, v: TangentVec) -> float:
    """Metric value at an admissible tangent vector (0 at an admissible zero vector)."""
    return float(_checked(m, v.base, v.vec))


def eval_F_many(m: ConicMetric, base, vec) -> np.ndarray:
    """:func:`eval_F` over broadcastable stacks (..., N): one jet call, and the
    error :func:`eval_F` raises for the first pair it rejects."""
    return _checked(m, base, vec)


def tensor(m: ConicMetric, v: TangentVec) -> np.ndarray:
    """Fundamental tensor at v (closed form when available, else FD oracle).

    For stacks ``v.base``/``v.vec`` of shape (..., N) it is (..., N, N).
    """
    return _checked(m, v.base, v.vec, with_tensor=True)


def classify_point(m: ConicMetric, v: TangentVec, tolerance: float = DEFAULT_EIG_TOL) -> EigenReport:
    """Classify the fundamental tensor at v; a stacked v gives one record of arrays over its vectors."""
    return eigen_classify(tensor(m, v), tolerance)


def convexity_scan(
    m: ConicMetric, base, samples: int, tolerance: float = DEFAULT_EIG_TOL
) -> tuple[np.ndarray, np.ndarray, EigenReport]:
    """Classify the fundamental tensor on a fan of ``samples`` directions
    (:func:`unit_directions`, which checks ``samples``).

    Returns ``(directions, in_domain, report)``: ``report`` classifies the
    tensors of the directions where ``in_domain`` holds, in direction order.
    """
    dirs = unit_directions(m.dimension, samples)
    ok, _, tensors = m.jet(base, dirs, with_tensor=True)
    good = ok & np.all(np.isfinite(tensors), axis=(-2, -1))
    return dirs, good, eigen_classify(tensors[good], tolerance)

