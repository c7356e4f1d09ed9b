"""Minkowski conic pseudo-norms on a fixed vector space.

Gauges are built either from a 2D polar curve (the indicatrix is given
explicitly) or from a unit-ball membership predicate in any dimension
(the gauge is recovered by root-finding along rays).  The module also
hosts the scalar convexity function of polar curves and the triangle
inequality tester.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DegenerateDirection, InvalidArgument, NoBracket, OutsideCone, check_integer
from .numkernel import central_jet, ray_root

TWO_PI = 2.0 * np.pi
MAX_LOBES = 10**4  # largest |lobes| of wavy_curve


def whole_space_domain(dimension: int) -> Callable[[np.ndarray], np.ndarray]:
    """The cone of all of R^dimension as a membership test of stacks (..., dimension)."""
    return lambda v: np.ones(np.shape(v)[:-1], dtype=bool)


@dataclass(frozen=True)
class PolarCurve2D:
    """Plane curve c(theta) = r(theta) (cos theta, sin theta), r > 0.

    The radius is one call, ``jet_fn(theta, with_derivatives)``: for a float
    array theta it returns r, or (r, r', r'') when ``with_derivatives`` is set.
    ``theta_range`` is an open interval of length <= 2*pi, or ``None`` for
    a closed curve parameterized over the full circle (r 2*pi-periodic).
    """

    jet_fn: Callable = field(repr=False)
    theta_range: tuple[float, float] | None = None

    def value(self, theta) -> np.ndarray:
        """r at theta, from one call without derivatives."""
        return np.asarray(self.jet_fn(np.asarray(theta, dtype=float), False), dtype=float)

    def jet(self, theta) -> tuple:
        """(r, r', r'') at theta, from one call."""
        return tuple(np.asarray(d, dtype=float) for d in self.jet_fn(np.asarray(theta, dtype=float), True))

    def contains_angle(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self.theta_range is None:
            return np.ones(theta.shape, dtype=bool)
        lo, hi = self.theta_range
        return (theta > lo) & (theta < hi)

    def angle_of(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Representative polar angle of each vector plus an in-cone mask."""
        v = np.asarray(v, dtype=float)
        theta = np.arctan2(v[..., 1], v[..., 0])
        if self.theta_range is None:
            return theta, np.linalg.norm(v, axis=-1) > 0
        lo, hi = self.theta_range
        # unique representative in (hi - 2*pi, hi]
        theta = theta + TWO_PI * np.floor((hi - theta) / TWO_PI)
        ok = (theta > lo) & (theta < hi) & (np.linalg.norm(v, axis=-1) > 0)
        return theta, ok


def polar_curve(r, theta_range=None) -> PolarCurve2D:
    """The curve of a radius function r(theta), its derivatives by central differences."""
    return PolarCurve2D(jet_fn=central_jet(r), theta_range=theta_range)


@dataclass(frozen=True)
class GaugeNorm:
    """A Minkowski conic pseudo-norm: positive, 1-homogeneous, smooth off 0.

    ``value_unchecked`` is the one evaluation pass: the gauge of each vector
    of a stack (..., dimension), NaN exactly outside the conic domain.
    ``domain`` is the domain's membership test alone: a curve gauge reads it
    off that pass, a ball gauge tests its cone and casts no ray.
    """

    dimension: int
    domain: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    value_unchecked: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def member(self, v) -> np.ndarray:
        return np.asarray(self.domain(np.asarray(v, dtype=float)), dtype=bool)

    def member_value(self, v) -> tuple:
        """Domain mask and unchecked value of v from one pass."""
        val = np.asarray(self.value_unchecked(v), dtype=float)
        return ~np.isnan(val), val

    def value(self, v) -> float | np.ndarray:
        """Gauge value; raises OutsideCone when any input leaves the domain."""
        ok, out = self.member_value(v)
        if not np.all(ok):
            raise OutsideCone("vector outside the gauge's conic domain")
        return float(out) if out.ndim == 0 else out


def gauge_from_curve(curve: PolarCurve2D) -> GaugeNorm:
    """Gauge whose indicatrix is the given polar curve.

    For v at angle theta the polar representation is exact:
    ||v|| = |v| / r(theta), with domain the rays of theta_range on which
    r(theta) is finite and positive.
    """

    def value_unchecked(v):
        v = np.asarray(v, dtype=float)
        theta, ok = curve.angle_of(v)
        with np.errstate(all="ignore"):  # r outside the angular interval is masked
            rr = curve.value(theta)
            ok = ok & np.isfinite(rr) & (rr > 0.0)
            out = np.linalg.norm(v, axis=-1) / rr
        return np.where(ok, out, np.nan)

    return GaugeNorm(
        dimension=2,
        domain=lambda v: ~np.isnan(value_unchecked(v)),
        value_unchecked=value_unchecked,
    )


def gauge_from_ball(dimension: int, member, cone: Callable) -> GaugeNorm:
    """Gauge of a unit ball given only by a membership predicate.

    ``cone`` is the membership test of the conic domain, stacks (..., dimension)
    to a boolean mask (:func:`whole_space_domain` for all of R^dimension).
    ``member`` tests one vector of shape (dimension,) and is called once per
    probe.  An evaluation casts the rays of all in-cone vectors of a stack
    together, one :func:`~finslerkit.numkernel.ray_root` call: each round
    divides every unfinished vector by its next probe at once, then asks
    ``member`` about each quotient in row order.  Each ray makes the probes,
    and gets the value, that it would alone: a doubling bracket from the hint
    |v|, then bisection on the crossing.  The zero vector has gauge 0, a
    vector outside the cone NaN (and casts no ray), and a direction whose ray
    never leaves (or never enters) the ball raises DegenerateDirection.

    The rounds have a fixed cost, so a stack pays off by its size: with a
    cheap ``member``, one vector takes several times as long as a scalar
    loop would, and stacks of a few dozen vectors or more take less.
    """

    def value_unchecked(v):
        v = np.asarray(v, dtype=float)
        flat = v.reshape(-1, v.shape[-1])
        out = np.full(flat.shape[0], np.nan)
        inside = np.flatnonzero(np.asarray(cone(flat), dtype=bool))
        # the norm of each 1-D row: the axis=-1 norm rounds some rows differently
        hint = np.array([np.linalg.norm(x) for x in flat[inside]], dtype=float)
        cast = hint != 0.0
        out[inside[~cast]] = 0.0
        rows = flat[inside[cast]]

        def crossing(at, lam):
            points = rows[at] / lam[:, None]
            return np.array([1.0 if member(x) else -1.0 for x in points])

        try:
            out[inside[cast]] = ray_root(crossing, hint[cast])
        except NoBracket as exc:
            raise DegenerateDirection(
                f"ray through {np.array2string(rows[exc.row], precision=4)} never crosses the ball boundary"
            ) from exc
        return out.reshape(v.shape[:-1])

    return GaugeNorm(dimension=dimension, domain=cone, value_unchecked=value_unchecked)


def curve_convexity(curve: PolarCurve2D, theta: float) -> float:
    """Scalar convexity of the indicatrix at angle theta.

    Positive where the curve bends toward the origin (strongly convex
    norm directions), negative on concave arcs.
    """
    th = np.asarray(theta, dtype=float)
    if not np.all(curve.contains_angle(th)):
        raise OutsideCone(f"theta={theta} outside the curve's angular interval")
    r, rd, rdd = curve.jet(th)
    out = (2.0 * rd**2 + r * (r - rdd)) / np.sqrt(r**2 + rd**2)
    return float(out) if out.ndim == 0 else out


def check_ball_direction(direction: str):
    """InvalidArgument at ``direction`` unless it names a ball: 'forward' or 'backward'."""
    if direction not in ("forward", "backward"):
        raise InvalidArgument(f"direction must be 'forward' or 'backward', got {direction!r}", path="direction")


class TriangleVerdict(Enum):
    HOLDS = "Holds"
    HOLDS_STRICT = "HoldsStrict"
    VIOLATED = "Violated"
    NOT_COMPARABLE = "NotComparable"


SEGMENT_SAMPLES = 33


def triangle_report(norm: GaugeNorm, v1, v2) -> TriangleVerdict:
    """Compare ||v1 + v2|| against ||v1|| + ||v2||.

    Violations are always reported (they are meaningful precisely when the
    segment between v1 and v2 leaves the cone).  When the inequality holds
    but the segment check fails, the pair is reported NotComparable since
    nothing guarantees the inequality there.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    with np.errstate(all="ignore"):  # one pass over the stack; NaN outside the domain
        ok, vals = norm.member_value(np.stack([v1, v2, v1 + v2]))
    ok, (a, b, c) = ok.tolist(), vals.tolist()
    if not (ok[0] and ok[1]):
        raise OutsideCone("triangle_report arguments must lie in the domain")
    if not ok[2]:
        return TriangleVerdict.NOT_COMPARABLE
    slack = 1e-10 * max(1.0, a + b)

    if c > a + b + slack:
        return TriangleVerdict.VIOLATED

    t = np.linspace(0.0, 1.0, SEGMENT_SAMPLES)[:, None]
    segment = t * v1[None, :] + (1.0 - t) * v2[None, :]
    if not np.all(norm.member(segment)):
        return TriangleVerdict.NOT_COMPARABLE
    if c < a + b - slack:
        return TriangleVerdict.HOLDS_STRICT
    return TriangleVerdict.HOLDS


# ---------------------------------------------------------------------------
# Built-in reference curves
# ---------------------------------------------------------------------------


def spiral_curve(epsilon: float) -> PolarCurve2D:
    """Archimedean arc r = theta on (epsilon, 2*pi - epsilon); convex indicatrix
    on a non-convex cone, the classic source of triangle-inequality failures.
    The cone is proper for 0 < epsilon < pi only: InvalidArgument at
    ``epsilon`` otherwise (constraint ``positive`` or ``maximum``)."""
    if not epsilon > 0:
        raise InvalidArgument("epsilon must be in (0, pi)", path="epsilon", constraint="positive")
    if not epsilon < np.pi:
        raise InvalidArgument("epsilon must be in (0, pi)", path="epsilon", constraint="maximum")

    def jet_fn(th, with_derivatives):
        r = th.copy()
        return (r, np.ones_like(th), np.zeros_like(th)) if with_derivatives else r

    return PolarCurve2D(jet_fn=jet_fn, theta_range=(epsilon, TWO_PI - epsilon))


def lorentz_curve() -> PolarCurve2D:
    """Upper unit hyperbola y^2 - x^2 = 1; the gauge is sqrt(y^2 - x^2) on
    the future timelike cone and its indicatrix is concave everywhere."""

    def jet_fn(th, with_derivatives):
        u = -np.cos(2.0 * th)
        r = u**-0.5
        if not with_derivatives:
            return r
        sn, w = np.sin(2.0 * th), u**-1.5
        return r, -sn * w, 2.0 * u * w + 3.0 * sn**2 * u**-2.5

    return PolarCurve2D(jet_fn=jet_fn, theta_range=(np.pi / 4.0, 3.0 * np.pi / 4.0))


def sqrt_parabola_curve() -> PolarCurve2D:
    """Branch of y = sqrt(1 - x) over the upper half-plane cone (0, pi)."""

    def r(th):
        c = np.cos(th)
        return 2.0 / (c + np.sqrt(4.0 - 3.0 * c * c))

    return polar_curve(r, theta_range=(0.0, np.pi))


def downward_parabola_curve() -> PolarCurve2D:
    """Parabola y = 1 - x^2 seen from the origin, angles in (-pi/2, 3*pi/2);
    strongly convex with exactly the downward direction excluded."""

    def r(th):
        s = np.sin(th)
        return 2.0 / (s + np.sqrt(4.0 - 3.0 * s * s))

    return polar_curve(r, theta_range=(-np.pi / 2.0, 3.0 * np.pi / 2.0))


def wavy_curve(amplitude: float = 0.3, lobes: int = 3) -> PolarCurve2D:
    """Closed wavy indicatrix r = 1 + a cos(k theta): a pseudo-norm on all of
    the plane whose fundamental tensor is indefinite on the concave arcs.
    InvalidArgument at ``lobes`` unless it is an integer (constraint
    ``integer``) of magnitude at most ``MAX_LOBES`` (constraint ``maximum``)."""
    k = check_integer(lobes, "lobes")
    if not abs(k) <= MAX_LOBES:
        raise InvalidArgument(f"|lobes| must be at most {MAX_LOBES}", path="lobes", constraint="maximum")
    a = float(amplitude)

    def jet_fn(th, with_derivatives):
        c = np.cos(k * th)
        r = 1.0 + a * c
        return (r, -a * k * np.sin(k * th), -a * k * k * c) if with_derivatives else r

    return PolarCurve2D(jet_fn=jet_fn, theta_range=None)
