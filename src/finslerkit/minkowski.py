"""Minkowski conic pseudo-norms on a fixed vector space.

Gauges are built either from a 2D polar curve (the indicatrix is given
explicitly) or from a unit-ball membership predicate in any dimension
(the gauge is recovered by root-finding along rays).  The module also
hosts the scalar convexity function of polar curves and the triangle /
fundamental inequality testers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DegenerateDirection, InvalidArgument, NoBracket, NonFiniteSample, OutsideCone
from .numkernel import GRAD_STEP, central_derivatives, ray_root

TWO_PI = 2.0 * np.pi


def whole_space_domain(dimension: int) -> Callable[[np.ndarray], np.ndarray]:
    """The cone of all of R^dimension as a membership test of stacks (..., dimension)."""
    return lambda v: np.ones(np.shape(v)[:-1], dtype=bool)


@dataclass(frozen=True)
class PolarCurve2D:
    """Plane curve c(theta) = r(theta) (cos theta, sin theta), r > 0.

    ``theta_range`` is an open interval of length <= 2*pi, or ``None`` for
    a closed curve parameterized over the full circle (r 2*pi-periodic).
    """

    r: Callable[[np.ndarray], np.ndarray]
    r_dot: Callable[[np.ndarray], np.ndarray]
    r_ddot: Callable[[np.ndarray], np.ndarray]
    theta_range: tuple[float, float] | None = None

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

    def point(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        rr = np.asarray(self.r(theta), dtype=float)
        return np.stack([rr * np.cos(theta), rr * np.sin(theta)], axis=-1)

    def tangent(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        rr = np.asarray(self.r(theta), dtype=float)
        rd = np.asarray(self.r_dot(theta), dtype=float)
        c, s = np.cos(theta), np.sin(theta)
        return np.stack([rd * c - rr * s, rd * s + rr * c], axis=-1)


def polar_curve(r, r_dot=None, r_ddot=None, theta_range=None) -> PolarCurve2D:
    """Build a polar curve, deriving missing derivatives by central differences."""
    d1, d2 = central_derivatives(r)
    return PolarCurve2D(
        r=r,
        r_dot=d1 if r_dot is None else r_dot,
        r_ddot=d2 if r_ddot is None else r_ddot,
        theta_range=theta_range,
    )


class GaugeSource(Enum):
    INDICATRIX_CURVE_2D = "IndicatrixCurve2D"
    BALL_MEMBERSHIP = "BallMembershipPredicate"


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
    source: GaugeSource

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
        with np.errstate(all="ignore"):
            rr = np.asarray(curve.r(np.where(ok, theta, np.mean(curve.theta_range) if curve.theta_range else 0.0)), dtype=float)
            ok = ok & np.isfinite(rr) & (rr > 0.0)
            out = np.linalg.norm(v, axis=-1) / rr
        return np.where(ok, out, np.nan)

    return GaugeNorm(
        dimension=2,
        domain=lambda v: ~np.isnan(value_unchecked(v)),
        value_unchecked=value_unchecked,
        source=GaugeSource.INDICATRIX_CURVE_2D,
    )


def gauge_from_ball(dimension: int, member, cone: Callable) -> GaugeNorm:
    """Gauge of a unit ball given only by a membership predicate.

    ``cone`` is the membership test of the conic domain, stacks (..., dimension)
    to a boolean mask (:func:`whole_space_domain` for all of R^dimension).
    Each evaluation runs a doubling bracket plus bisection on the ray
    crossing; directions whose rays never leave (or never enter) the ball
    are degenerate and rejected.
    """

    def value_one(v: np.ndarray) -> float:
        hint = float(np.linalg.norm(v))
        if hint == 0.0:
            return 0.0

        def crossing(lam: float) -> float:
            return 1.0 if member(v / lam) else -1.0

        try:
            return ray_root(crossing, bracket_hint=hint)
        except NoBracket as exc:
            raise DegenerateDirection(
                f"ray through {np.array2string(v, precision=4)} never crosses the ball boundary"
            ) from exc

    def value_unchecked(v):
        v = np.asarray(v, dtype=float)
        flat = v.reshape(-1, v.shape[-1])
        ok = np.asarray(cone(flat), dtype=bool)
        out = np.array([value_one(x) if o else np.nan for x, o in zip(flat, ok)])
        return out.reshape(v.shape[:-1])

    return GaugeNorm(
        dimension=dimension, domain=cone, value_unchecked=value_unchecked, source=GaugeSource.BALL_MEMBERSHIP
    )


def curve_convexity(curve: PolarCurve2D, theta: float) -> float:
    """Scalar convexity of the indicatrix at angle theta.

    Positive where the curve bends toward the origin (strongly convex
    norm directions), negative on concave arcs.
    """
    th = np.asarray(theta, dtype=float)
    if not np.all(curve.contains_angle(th)):
        raise OutsideCone(f"theta={theta} outside the curve's angular interval")
    r = np.asarray(curve.r(th), dtype=float)
    rd = np.asarray(curve.r_dot(th), dtype=float)
    rdd = np.asarray(curve.r_ddot(th), dtype=float)
    out = (2.0 * rd**2 + r * (r - rdd)) / np.sqrt(r**2 + rd**2)
    return float(out) if out.ndim == 0 else out


def _member_values(norm: GaugeNorm, *vectors) -> tuple:
    """Domain mask and gauge values (Python floats, NaN outside the domain) of
    the vectors, from one pass over their stack."""
    with np.errstate(all="ignore"):
        ok, vals = norm.member_value(np.stack(vectors))
    return ok.tolist(), vals.tolist()


def check_ball_direction(direction: str):
    """InvalidArgument at ``direction`` unless it names a ball: 'forward' or 'backward'."""
    if direction not in ("forward", "backward"):
        raise InvalidArgument(f"direction must be 'forward' or 'backward', got {direction!r}", path="direction")


def affine_ball(norm: GaugeNorm, center, radius: float, direction: str, probe) -> bool:
    """Membership of ``probe`` in the forward/backward affine ball at ``center``."""
    check_ball_direction(direction)
    center = np.asarray(center, dtype=float)
    probe = np.asarray(probe, dtype=float)
    d = probe - center if direction == "forward" else center - probe
    return float(norm.value_unchecked(d)) < radius  # NaN, so False, outside the domain


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
    ok, (a, b, c) = _member_values(norm, v1, v2, v1 + v2)
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


class InequalityVerdict(Enum):
    HOLDS = "Holds"
    EQUALITY = "Equality"
    VIOLATED = "Violated"


def fundamental_inequality_check(norm: GaugeNorm, v1, v2) -> InequalityVerdict:
    """Check g_{v1}(v1, v2) <= ||v1|| ||v2|| at the given pair.

    The left side is the directional derivative of the half-squared gauge
    at v1 along v2 (a first difference, accurate enough to resolve the
    1e-9 equality band that signals proportional vectors).
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if float(np.linalg.norm(v1)) == 0.0:
        raise OutsideCone("v1 must be nonzero")
    h = GRAD_STEP * float(np.linalg.norm(v1)) / max(float(np.linalg.norm(v2)), 1e-300)
    ok, (a, b, plus, minus) = _member_values(norm, v1, v2, v1 + h * v2, v1 - h * v2)
    if not (ok[0] and ok[1]):
        raise OutsideCone("fundamental inequality arguments must lie in the domain")
    lhs = (0.5 * plus * plus - 0.5 * minus * minus) / (2.0 * h)
    if not np.isfinite(lhs):
        raise NonFiniteSample("derivative probes left the gauge domain")
    rhs = a * b
    tol = 1e-9 * max(1.0, abs(rhs))
    if lhs > rhs + tol:
        return InequalityVerdict.VIOLATED
    if abs(lhs - rhs) <= tol:
        return InequalityVerdict.EQUALITY
    return InequalityVerdict.HOLDS


# ---------------------------------------------------------------------------
# Built-in reference curves
# ---------------------------------------------------------------------------


def unit_circle_curve() -> PolarCurve2D:
    return PolarCurve2D(
        r=lambda th: np.ones_like(np.asarray(th, dtype=float)),
        r_dot=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
        r_ddot=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
        theta_range=None,
    )


def spiral_curve(epsilon: float) -> PolarCurve2D:
    """Archimedean arc r = theta on (epsilon, 2*pi - epsilon); convex indicatrix
    on a non-convex cone, the classic source of triangle-inequality failures."""
    return PolarCurve2D(
        r=lambda th: np.asarray(th, dtype=float).copy(),
        r_dot=lambda th: np.ones_like(np.asarray(th, dtype=float)),
        r_ddot=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
        theta_range=(epsilon, TWO_PI - epsilon),
    )


def lorentz_curve() -> PolarCurve2D:
    """Upper unit hyperbola y^2 - x^2 = 1; the gauge is sqrt(y^2 - x^2) on
    the future timelike cone and its indicatrix is concave everywhere."""

    def r(th):
        th = np.asarray(th, dtype=float)
        return (-np.cos(2.0 * th)) ** -0.5

    def r_dot(th):
        th = np.asarray(th, dtype=float)
        u = -np.cos(2.0 * th)
        return -np.sin(2.0 * th) * u**-1.5

    def r_ddot(th):
        th = np.asarray(th, dtype=float)
        u = -np.cos(2.0 * th)
        return -2.0 * np.cos(2.0 * th) * u**-1.5 + 3.0 * np.sin(2.0 * th) ** 2 * u**-2.5

    return PolarCurve2D(r=r, r_dot=r_dot, r_ddot=r_ddot, theta_range=(np.pi / 4.0, 3.0 * np.pi / 4.0))


def sqrt_parabola_curve() -> PolarCurve2D:
    """Branch of y = sqrt(1 - x) over the upper half-plane cone (0, pi)."""

    def r(th):
        th = np.asarray(th, dtype=float)
        c = np.cos(th)
        return 2.0 / (c + np.sqrt(4.0 - 3.0 * c * c))

    return polar_curve(r, theta_range=(0.0, np.pi))


def downward_parabola_curve() -> PolarCurve2D:
    """Parabola y = 1 - x^2 seen from the origin, angles in (-pi/2, 3*pi/2);
    strongly convex with exactly the downward direction excluded."""

    def r(th):
        th = np.asarray(th, dtype=float)
        s = np.sin(th)
        return 2.0 / (s + np.sqrt(4.0 - 3.0 * s * s))

    return polar_curve(r, theta_range=(-np.pi / 2.0, 3.0 * np.pi / 2.0))


def wavy_curve(amplitude: float = 0.3, lobes: int = 3) -> PolarCurve2D:
    """Closed wavy indicatrix r = 1 + a cos(k theta): a pseudo-norm on all of
    the plane whose fundamental tensor is indefinite on the concave arcs."""
    a, k = float(amplitude), int(lobes)

    def r(th):
        return 1.0 + a * np.cos(k * np.asarray(th, dtype=float))

    def r_dot(th):
        return -a * k * np.sin(k * np.asarray(th, dtype=float))

    def r_ddot(th):
        return -a * k * k * np.cos(k * np.asarray(th, dtype=float))

    return PolarCurve2D(r=r, r_dot=r_dot, r_ddot=r_ddot, theta_range=None)
