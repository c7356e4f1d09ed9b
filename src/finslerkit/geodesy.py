"""Geodesics, exponential map, and graph-based Finslerian separation.

Geodesics are computed as critical curves of the energy functional: the
second-order system solves 2 g(x, v) a = d_x(F^2) - (d_x p) v with
p = 2 g v, taking position derivatives by central differences of the
fundamental tensor.  It is integrated by the embedded Dormand-Prince 5(4)
pair with error control at ``GEODESIC_RTOL``; states on the output grid
come from the pair's continuous extension.  Each acceleration makes one
stacked tensor evaluation, the state and its 2N stencil points, all in the
domain: d_x(F^2) comes from the jet's own F (g(v, v) = F^2 by homogeneity)
and (d_x p) v from one stacked contraction p = 2 g v over the stencil.
The F-length of a polyline is a Simpson sum over each piece, whose
velocity the metric's position-independent nodes evaluate once.
Separations are shortest paths on a grid graph whose edges are straight
admissible segments weighted by F-length.  The graph is built from one
table of neighbour offsets and assembled directly as a CSR matrix.  On a
position-independent metric one jet over that table gives every edge
length F(delta), equal to the checked ``eval_F_many``.
On a position-dependent metric each edge's length is the 7-point Kronrod
sum of the embedded 3/7-point Gauss-Kronrod pair, and its cone test
samples both end nodes and those 7 nodes; an edge whose 3-point Gauss
estimate disagrees is redone with composite Simpson.  An edge and its
reverse share their segment's points and sum them in one order, so the
graph of v -> F(-v) is the transpose.  Segments are evaluated in blocks
of whole offsets, one jet per block for both directions, and an edge's
velocity is one vector broadcast over its points, which the metric's
position-independent nodes evaluate once.  A position-independent graph
holds its offset table, not the full adjacency.  Its queries run on
adjacencies without the offsets that split into cheaper sign-consistent
pairs (chamfer-mask dominance) or are k copies of a table offset, with
distances within rounding of the full graph's and reach sets bit for
bit, and read the edges into a node off the offset table instead of a
transposed adjacency.  On a large such 2-D graph whose kept offsets all
lie on their convex envelope, as the chords of its angle-sorted sectors
tell, those chords bound every path's length from below, and the cost of
an explicit two-offset path, per displacement, bounds the distance from
above.  A separation returns that path, within the gap of the two bounds
of Dijkstra's distance, and a ball is decided from the bounds, with
Dijkstra only when a node falls between them; Dijkstra answers every
pair the bounds leave open.  scipy is imported where a graph first needs
it, not by ``import finslerkit``: ``scipy.sparse`` by the first assembly
and ``csgraph`` by the first search, so an answer read off the tables
loads neither.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import DegenerateTensor, InvalidArgument, LeftDomain, NotAdmissible, OutsideDomain, StepBudget, check_integer, check_real
from .metrics import ConicMetric, TangentVec, _check_samples, admissible_draws, unit_directions
from .minkowski import check_ball_direction
from .numkernel import EPS, eigen_classify, gauss_kronrod_3_7, simpson_weights

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

EDGE_QUAD_NODES = 33  # Simpson nodes of an edge whose Gauss-Kronrod estimate is flagged
EDGE_KRONROD_RTOL = 1e-7  # flag an edge when |K7 - G3| > EDGE_KRONROD_RTOL * |K7|
GEODESIC_RTOL = 1e-10  # rtol = atol of the geodesic integrator's RMS error norm over a batch's (x, v)
CURVE_QUAD_NODES = 65
DEFAULT_STEP = 0.01  # output spacing of a geodesic; the integrator picks its own steps
MAX_GEODESIC_STEPS = 10**4  # trial steps, accepted plus rejected, of one _integrate call
MAX_GEODESIC_ROWS = 10**6  # output intervals t_end / step of one geodesic_shoot
MAX_GRAPH_EDGES = 5 * 10**7  # candidate_edges of one graph, checked by check_graph before any allocation
# A position-dependent graph evaluates its segments in blocks of whole offsets, the
# fewest whose segments hold EDGE_BLOCK directed edges: one jet per block bounds a
# build's memory.
EDGE_BLOCK = 2**10
DOMINANCE_MARGIN = 1e-12  # a split must cost at most (1 - margin) F(o), a tie k F(o / k) at most (1 + margin) F(o)
# A graph with fewer edges than this keeps its queries on the full adjacency
# with no distance cap, and so does one whose dominated offsets carry fewer:
# a reduced adjacency or a cap would cost more than one query spends on them.
REDUCE_MIN_EDGES = 2**15
# A separation between distinct nodes and a ball of a 2-D graph read the
# displacement tables when ``query`` has at least TABLE_MIN_EDGES edges, the
# table keeps at least TABLE_MIN_OFFSETS offsets and its sector chords find
# every kept offset on the envelope.  On a smaller graph one scipy Dijkstra
# call costs less than building the tables, and every shipped configuration
# stays below these sizes, so its answers are Dijkstra's.
TABLE_MIN_EDGES = 2**20
TABLE_MIN_OFFSETS = 64
ENVELOPE_RTOL = 1e-9  # a table is convex when every sector chord f has f . o <= (1 + rtol) w(o)
ENVELOPE_MARGIN = 1e-12  # the tables' lower bound takes (1 - margin) f . delta, which covers the rounding of a path's sum

# The Dormand-Prince 5(4) pair (Hairer, Norsett & Wanner, Solving ODEs I,
# Table II.5.2).  Row 6 of _DP_A holds the 5th-order weights, so the 7th
# stage is the spray at the new state and starts the next step (FSAL).
# _DP_E = b_hat - b over the 7 stages; _DP_P gives the 4th-order continuous
# extension y(t + theta h) = y + h sum_j theta^j (P^T k)_j, j = 1..4, with
# Shampine's coefficients.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
        [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
)
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_DP_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)
_DP_POWERS = np.arange(1, 5)  # theta^j, j = 1..4, of the continuous extension
_STENCIL_STEP = EPS ** (1.0 / 3.0)  # central-difference step of the position stencil, per unit of max(1, |x|)


# ---------------------------------------------------------------------------
# Curves and their F-length
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polyline:
    """Piecewise-linear path through the listed points."""

    points: np.ndarray
    times: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if self.times is None:
            object.__setattr__(self, "times", np.linspace(0.0, 1.0, pts.shape[0]))
        else:
            object.__setattr__(self, "times", np.asarray(self.times, dtype=float))


def _curve_samples(curve, nodes: int):
    """(positions (K, q, n), velocities, parameters (K, q), weights*dt) at the
    q Simpson nodes of each of the K pieces.  A piece's velocity is one vector
    broadcast over its nodes with stride 0, so the position-independent nodes
    of a metric evaluate it once per piece; the positions are built one
    coordinate at a time, as :func:`_segment_points` builds them."""
    if not isinstance(curve, Polyline):
        raise InvalidArgument(f"unsupported curve type {type(curve)!r}", path="curve", constraint="type")
    w = simpson_weights(nodes)
    q = w.size
    pts, tms = curve.points, curve.times
    dt = np.diff(tms)  # (K,), one per piece
    tloc = np.linspace(0.0, 1.0, q)
    delta = np.diff(pts, axis=0)
    pos = np.empty(dt.shape + tloc.shape + pts.shape[1:])
    for d in range(pts.shape[1]):
        np.add(pts[:-1, d, None], tloc * delta[:, d, None], out=pos[:, :, d])
    vel = np.broadcast_to((delta / dt[:, None])[:, None, :], pos.shape)
    params = tms[:-1, None] + tloc[None, :] * dt[:, None]
    weights = w[None, :] * (dt / (q - 1))[:, None]
    return pos, vel, params, weights


def curve_length(m: ConicMetric, curve, nodes: int = CURVE_QUAD_NODES) -> float:
    """Simpson-integrated F-length of an admissible curve."""
    pos, vel, params, weights = _curve_samples(curve, nodes)
    ok, vals = m.jet(pos, vel)
    if not np.all(ok):
        bad = params[~ok]
        raise NotAdmissible(
            f"curve velocity leaves the conic domain at parameter {bad[0]:.6g}",
            parameter=float(bad[0]),
        )
    return float(np.dot(weights.ravel(), vals.ravel()))


# ---------------------------------------------------------------------------
# Geodesics via the energy functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicState:
    position: np.ndarray
    velocity: np.ndarray
    parameter: float

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))


def _tensor_checked(ok: np.ndarray, g: np.ndarray, t: float) -> np.ndarray:
    """The jet's tensors g, once every state is in the domain and g is finite and invertible."""
    if not ok.all():
        raise LeftDomain(f"geodesic left the conic domain near parameter {t:.6g}", parameter=t)
    if not np.isfinite(g).all():
        raise LeftDomain(f"tensor not finite near parameter {t:.6g}", parameter=t)
    n = g.shape[-1]
    scale = np.sqrt(np.einsum("...ij,...ij->...", g, g) / n)
    if (abs(np.linalg.det(g)) < 1e-12 * np.maximum(scale, 1e-30) ** n).any():
        raise DegenerateTensor(f"fundamental tensor degenerate near parameter {t:.6g}", parameter=t)
    return g


def _accel(m: ConicMetric, x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Acceleration of the energy-critical curve at batched states (B, N).

    One jet call evaluates F and the tensors on the stacked stencil x + step:
    the states themselves (step -0.0, which leaves every coordinate's bits),
    then x + h e_a and x - h e_a for each axis a, every row in the domain.
    By homogeneity g(v, v) = F^2, so d_a(F^2) is the central difference of
    the jet's own F^2 on the axis rows, and (d_x p) v that of p = 2 g v,
    one stacked contraction over those rows.
    """
    if m.position_independent:
        ok, _, g = m.jet(x[None], v, with_tensor=True)
        _tensor_checked(ok[0], g[0], t)
        return np.zeros_like(v)
    n = x.shape[-1]
    h = _STENCIL_STEP * np.maximum(1.0, np.sqrt((x * x).sum(axis=-1)))  # |x| as np.linalg.norm sums it
    step = np.full((1 + 2 * n,) + x.shape, -0.0)
    for a in range(n):
        step[1 + 2 * a, ..., a] = h
        step[2 + 2 * a, ..., a] = -h
    ok, F, gs = m.jet(x + step, v, with_tensor=True)
    g = _tensor_checked(ok[0], gs[0], t)
    if not ok.all():
        raise LeftDomain(f"position derivatives hit the domain boundary near {t:.6g}", parameter=t)
    F2 = F[1:] * F[1:]
    gv = np.einsum("sbij,bj->sbi", gs[1:], v)  # [s, b, i]: (g v)_i = p_i / 2 on stencil row s + 1
    dp_dx = (gv[0::2] - gv[1::2]) / h[:, None]  # [a, b, i] = d p_i / d x_a, the bits of (p+ - p-) / 2h
    rhs = ((F2[0::2] - F2[1::2]) / (2.0 * h)).T - np.einsum("abi,ba->bi", dp_dx, v)
    if not np.isfinite(rhs).all():
        raise LeftDomain(f"position derivatives hit the domain boundary near {t:.6g}", parameter=t)
    return np.linalg.solve(2.0 * g, rhs[..., None])[..., 0]


def _integrate(m: ConicMetric, x0: np.ndarray, v0: np.ndarray, t_end: float, step: float, t0: float = 0.0):
    """Batched orbits by the Dormand-Prince 5(4) pair; returns positions and
    velocities on the grid of ``round(t_end / step)`` equal intervals.

    The whole batch is one state (x, v), so every orbit takes the same
    steps: the error norm is the RMS over the batch with rtol = atol =
    ``GEODESIC_RTOL``.  The step sequence does not depend on ``step``; the
    grid states come from the pair's 4th-order continuous extension, taken
    only on steps that hold grid points.  A trial step whose stages leave
    the domain is rejected and shrunk;
    ``LeftDomain`` is raised, at the parameter of the last accepted state,
    once the step falls below ``GEODESIC_RTOL * t_end``.  ``StepBudget`` is
    raised, at the parameter reached, when ``MAX_GEODESIC_STEPS`` trial steps
    do not reach ``t_end``.  The orbits start at parameter ``t0``: errors name
    ``t0 + t``, while the returned times count from 0.
    """
    y = np.concatenate([np.atleast_2d(x0), np.atleast_2d(v0)], axis=-1).astype(float)
    n = y.shape[-1] // 2

    def spray(y, t, out):
        out[..., :n] = y[..., n:]
        out[..., n:] = _accel(m, y[..., :n], y[..., n:], t0 + t)

    n_out = max(1, int(round(t_end / step)))
    ts = np.arange(n_out + 1) * (t_end / n_out)
    out = np.empty((n_out + 1,) + y.shape)
    out[0] = y
    k = np.empty((7,) + y.shape)
    stages = k.reshape(7, -1)  # the stage sums are np.dot over this view, as np.tensordot computes them
    spray(y, 0.0, k[0])
    t, h, done, after_reject, trials = 0.0, t_end, 1, False, 0
    while t < t_end:
        if trials == MAX_GEODESIC_STEPS:
            msg = f"geodesic stopped at parameter {t0 + t:.6g} after {trials} trial steps"
            raise StepBudget(msg, parameter=t0 + t)
        trials += 1
        last = h >= t_end - t
        if last:
            h = t_end - t
        cause = None
        try:
            for i in range(1, 7):  # the 7th stage is the new state's spray (FSAL)
                y_new = y + h * np.dot(_DP_A[i, :i], stages[:i]).reshape(y.shape)
                spray(y_new, t + _DP_C[i] * h, k[i])
        except LeftDomain as exc:
            err, cause = np.inf, exc
        else:
            scale = GEODESIC_RTOL * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
            err = np.sqrt(np.mean((h * np.dot(_DP_E, stages).reshape(y.shape) / scale) ** 2))
        # a NaN error shrinks the step: max(0.2, nan) is 0.2
        growth = 10.0 if err == 0 else min(10.0, max(0.2, 0.9 * err**-0.2))
        if err <= 1.0:
            stop = n_out + 1 if last else int(np.searchsorted(ts, t + h, side="right"))
            if stop > done:
                theta = (ts[done:stop] - t) / h
                slopes = np.dot(_DP_P.T, stages)
                out[done:stop] = y + h * np.dot(theta[:, None] ** _DP_POWERS, slopes).reshape((-1,) + y.shape)
            t, y, k[0], done = (t_end if last else t + h), y_new, k[6], stop
            h *= min(growth, 1.0) if after_reject else growth
            after_reject = False
        else:
            h *= growth
            after_reject = True
            if h < GEODESIC_RTOL * t_end:
                msg = f"geodesic left the domain after parameter {t0 + t:.6g}; its step fell below {GEODESIC_RTOL * t_end:.3g}"
                raise LeftDomain(msg, parameter=t0 + t) from cause
    out[-1] = y
    return out[..., :n], out[..., n:], ts


def geodesic_shoot(
    m: ConicMetric, start: GeodesicState, t_end: float, step: float = DEFAULT_STEP
) -> list[GeodesicState]:
    """Integrate the geodesic with the given initial state up to t_end;
    returns the states at ``round(t_end / step)`` equal output intervals.
    InvalidArgument unless t_end and step are finite and positive, with at
    most ``MAX_GEODESIC_ROWS`` output intervals."""
    for name, value in (("t_end", t_end), ("step", step)):
        if not value > 0:
            raise InvalidArgument(f"{name} must be positive", path=name, constraint="positive")
        if not math.isfinite(value):
            raise InvalidArgument(f"{name} must be finite", path=name, constraint="finite")
    if not t_end / step <= MAX_GEODESIC_ROWS:
        msg = f"t_end / step must be at most {MAX_GEODESIC_ROWS} output steps"
        raise InvalidArgument(msg, path="t_end", constraint="maximum")
    tv = TangentVec(start.position, start.velocity)
    if not bool(m.in_domain_many(tv.base, tv.vec)):
        raise OutsideDomain("initial velocity is outside the conic domain")
    xs, vs, ts = _integrate(m, start.position[None, :], start.velocity[None, :], t_end, step, start.parameter)
    return [
        GeodesicState(position=xs[k, 0], velocity=vs[k, 0], parameter=start.parameter + ts[k])
        for k in range(xs.shape[0])
    ]


def exp_map(m: ConicMetric, base, v, step: float = DEFAULT_STEP) -> np.ndarray:
    """Endpoint at parameter 1 of the geodesic leaving ``base`` with velocity v."""
    states = geodesic_shoot(m, GeodesicState(base, v, 0.0), t_end=1.0, step=step)
    return states[-1].position


def gauss_residuals(m: ConicMetric, base, vs, ws, step: float = DEFAULT_STEP) -> np.ndarray:
    """Batched orthogonality defects g_T(d exp[w], T) at parameter 1.

    Each w is first projected onto the g_v-orthogonal complement of its v,
    then d exp is taken by a central difference of the endpoint in the
    initial velocity.  All perturbed orbits integrate as one batch, so
    they share one step sequence and step-size noise does not enter the
    difference.
    """
    base = np.asarray(base, dtype=float)
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    ws = np.atleast_2d(np.asarray(ws, dtype=float))
    B = vs.shape[0]
    xb = np.broadcast_to(base, vs.shape).copy()
    ok, _, g = m.jet(xb, vs, with_tensor=True)
    g = _tensor_checked(ok, g, 0.0)
    gv = np.einsum("...ij,...j->...i", g, vs)
    coef = np.einsum("...i,...i->...", ws, gv) / np.einsum("...i,...i->...", vs, gv)
    ws = ws - coef[..., None] * vs
    wn = np.linalg.norm(ws, axis=-1)
    scale = np.where(wn > 0, wn, 1.0)
    eps = (1e-3 * np.linalg.norm(vs, axis=-1) / scale)[..., None]
    x0 = np.concatenate([xb, xb, xb], axis=0)
    v0 = np.concatenate([vs, vs + eps * ws, vs - eps * ws], axis=0)
    xs, vel, _ = _integrate(m, x0, v0, t_end=1.0, step=step)
    d_exp = (xs[-1, B : 2 * B] - xs[-1, 2 * B :]) / (2.0 * eps)
    T = vel[-1, :B]
    ge = m.tensor_many(xs[-1, :B], T)
    out = np.einsum("...i,...ij,...j->...", d_exp, ge, T)
    return np.where(wn > 0, out, 0.0)


@dataclass(frozen=True)
class MinimalityReport:
    min_ratio: float
    all_pass: bool
    counted: int
    skipped_outside_ball: int


def radial_minimality_test(
    m: ConicMetric,
    base,
    radius: float,
    trials: int,
    seed: int,
    step: float = DEFAULT_STEP,
) -> MinimalityReport:
    """Compare random in-ball curves against the radial geodesic they perturb.

    Each trial shoots a radial geodesic to a random endpoint inside the
    geodesic ball, perturbs it by a smooth bump vanishing at the ends, and
    records the length ratio.  Curves exiting the ball are skipped; a sliver domain raises ``DomainEmpty``.
    ``trials`` is checked as a sample count (an integer, 1 to ``MAX_SAMPLES``) before any draw.
    """
    trials = _check_samples(trials, "trials")
    base = np.asarray(base, dtype=float)
    rng = np.random.default_rng(seed)
    n = base.shape[-1]

    probe_dirs = unit_directions(n, 16)
    ok, _, gs = m.jet(base, probe_dirs, with_tensor=True)
    if not np.any(ok):
        raise OutsideDomain("no admissible direction at the base point")
    if not np.all(eigen_classify(gs[ok]).is_positive_definite):
        raise DegenerateTensor("radial minimality requires a positive-definite tensor near the base")

    def in_ball(points: np.ndarray) -> bool:
        rel = points - base
        keep = np.linalg.norm(rel, axis=-1) > 1e-12
        if not np.any(keep):
            return True
        rel = rel[keep]
        ok, vals = m.jet(base, rel)
        if not np.all(ok):
            return False
        return bool(np.all(vals <= radius * (1.0 + 1e-9)))

    min_ratio = np.inf
    counted = 0
    skipped = 0
    rounds = 0
    while counted < trials and rounds < 20:
        rounds += 1
        batch = trials - counted
        # admissible radial velocities with F = rho, rho uniform in [0.25, 0.85] * radius
        ds = admissible_draws(rng, batch, n, lambda ds: m.in_domain_many(base, ds))
        ds /= np.linalg.norm(ds, axis=-1, keepdims=True)
        F = m.F_many(base, ds)
        vs = (rng.uniform(0.25, 0.85, size=batch) * radius / F)[:, None] * ds
        xs, _, ts = _integrate(
            m, np.broadcast_to(base, vs.shape).copy(), vs, t_end=1.0, step=max(step, 1.0 / 64)
        )
        for i in range(vs.shape[0]):
            radial_pts = xs[:, i, :]
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            amp = rng.uniform(0.02, 0.15) * radius
            bump = np.sin(np.pi * ts)[:, None] * amp * u[None, :]
            perturbed_pts = radial_pts + bump
            if not in_ball(perturbed_pts):
                skipped += 1
                continue
            try:
                num = curve_length(m, Polyline(points=perturbed_pts, times=ts))
                den = curve_length(m, Polyline(points=radial_pts, times=ts))
            except NotAdmissible:
                skipped += 1
                continue
            counted += 1
            min_ratio = min(min_ratio, num / den)
    return MinimalityReport(
        min_ratio=float(min_ratio),
        all_pass=bool(min_ratio >= 1.0 - 1e-6),
        counted=counted,
        skipped_outside_ball=skipped,
    )


# ---------------------------------------------------------------------------
# Separation graphs
# ---------------------------------------------------------------------------


def _sector_chords(fan: np.ndarray, fan_weights: np.ndarray, offsets: np.ndarray, weights: np.ndarray) -> tuple:
    """(facets, convex) of a 2-D table.  Angle neighbours o = fan[k] and
    o' = fan[(k + 1) % K] of the ``fan`` (K, 2), with det(o, o') > 0, bound
    sector k, and its chord f_k solves f . o = w(o) and f . o' = w(o'):
    the line through o / w(o) and o' / w(o') in lattice units; ``facets[k]``
    is f_k / s, and 0 where k is no sector.  s = max(1, max f_k . o / w(o))
    over the offsets (K', 2), copies included, with their weights, so every
    facet has f . o <= w(o) on each of them, and a path of these offsets
    from p to q costs at least f . (q - p) whether or not the table is
    convex.  ``convex`` holds when every weight is positive, some sector
    exists and s <= 1 + ``ENVELOPE_RTOL``.  Then every fan offset lies on
    the envelope conv({0} u {o / w(o)}) to that tolerance, w(o) <= s H(o),
    H its gauge: the envelope lies inside the chords' half-planes scaled
    by s, and each fan offset lies on the chords of its own sectors.  When
    every offset lies on the envelope, the chords are its edges and s = 1
    up to rounding."""
    nxt, w_nxt = np.roll(fan, -1, axis=0), np.roll(fan_weights, -1)
    area = fan[:, 0] * nxt[:, 1] - fan[:, 1] * nxt[:, 0]
    inside = area > 0
    facets = np.zeros(fan.shape)
    facets[inside, 0] = (fan_weights * nxt[:, 1] - w_nxt * fan[:, 1])[inside] / area[inside]
    facets[inside, 1] = (w_nxt * fan[:, 0] - fan_weights * nxt[:, 0])[inside] / area[inside]
    s = float(((offsets @ facets[inside].T) / weights[:, None]).max(initial=1.0))
    convex = bool(np.all(weights > 0.0) and inside.any() and s <= 1.0 + ENVELOPE_RTOL)
    return facets / s, convex


def _displacement_bounds(offsets: np.ndarray, weights: np.ndarray, facets: np.ndarray, resolution: int) -> tuple:
    """(lower, upper, sector), each (2 res - 1, 2 res - 1): bounds on the
    ``query`` distance from node p to node p + delta of a 2-D graph, at
    [delta_0 + res - 1, delta_1 + res - 1], from the offsets (K, 2) of its
    rays sorted by angle (``SeparationGraph._fan``), their weights w and
    the chord ``facets`` of their sectors (:func:`_sector_chords`), and the
    index k of the sector whose path gives a finite upper bound, o =
    offsets[k] and o' = offsets[(k + 1) % K], or -1 where upper is inf.

    Angle neighbours o, o' with det(o, o') > 0 bound a sector, which holds
    delta when det(o, delta) >= 0 and det(delta, o') >= 0; a delta in no
    sector lies outside the offset cone, and both its bounds are inf.  In a
    sector, lower = (1 - ``ENVELOPE_MARGIN``) max(0, f . delta), f the
    sector's chord facet, which no path of kept offsets undercuts.  upper is
    inf unless det(o, o') = 1 and no component of o and o' has opposite
    signs.  Then delta = a o + b o' with integers a, b >= 0, and a steps o
    followed by b steps o' form a ``query`` path inside the box of its
    ends.  Float addition is monotone, so Dijkstra's distance is at most
    that path's weights summed in path order, which lie within (a + b)
    2^-53 relative of a w(o) + b w(o'); upper = (a w(o) + b w(o')) (1 + 4
    (a + b + 2) 2^-53) covers that and its own rounding.  Each delta is
    tried in the sector of its angle and then in the two beside it, so a
    delta on an offset's ray finds a sector that holds it however its
    angle rounds."""
    nxt, w_nxt = np.roll(offsets, -1, axis=0), np.roll(weights, -1)
    area = offsets[:, 0] * nxt[:, 1] - offsets[:, 1] * nxt[:, 0]
    paths = (area == 1) & np.all(offsets * nxt >= 0, axis=1)

    def bounds(k, x, y):
        """(inside, lower, upper) of the deltas (x, y) in the sectors k."""
        (ox, oy), (px, py) = offsets[k].T, nxt[k].T
        a, b = x * py - y * px, ox * y - oy * x  # det(delta, o') and det(o, delta)
        inside = (area[k] > 0) & (a >= 0) & (b >= 0)
        low = (1.0 - ENVELOPE_MARGIN) * np.maximum(0.0, facets[k, 0] * x + facets[k, 1] * y)
        cost = (a * weights[k] + b * w_nxt[k]) * (1.0 + 4 * (a + b + 2) * 2.0**-53)
        return inside, low, np.where(paths[k], cost, np.inf)

    r = resolution - 1
    x, y = np.indices((2 * r + 1,) * 2).reshape(2, -1) - r
    at = np.searchsorted(np.arctan2(offsets[:, 1], offsets[:, 0]), np.arctan2(y, x), side="right")
    sector = (at - 1) % len(offsets)
    inside, lower, upper = bounds(sector, x, y)
    for shift in (2, 0):  # a delta on an offset's ray whose angle rounds into the next sector
        rest = np.flatnonzero(~inside)
        k = (at[rest] - shift) % len(offsets)
        hit, low, up = bounds(k, x[rest], y[rest])
        inside[rest[hit]] = True
        lower[rest[hit]], upper[rest[hit]], sector[rest[hit]] = low[hit], up[hit], k[hit]
    lower[~inside] = upper[~inside] = np.inf
    sector[upper == np.inf] = -1
    return tuple(a.reshape(2 * r + 1, -1) for a in (lower, upper, sector))


@dataclass(frozen=True)
class SeparationGraph:
    """Grid graph whose directed edges carry F-lengths of straight segments.

    ``matrix`` is the full construction, of ``edge_count`` edges.  On a
    position-independent metric ``offsets`` (K, n) and ``weights`` (K,) hold
    the kept offset table and F(offset); the graph holds no full adjacency,
    and ``matrix`` is assembled from the table on each read.  Its queries
    run on the reduced adjacencies ``query`` (Dijkstra), without the
    offsets :func:`_undominated` drops, and ``reach`` (BFS);
    :meth:`edges_into` reads the edges into a node off the same table, so
    no forward query transposes an adjacency.  On a position-dependent
    graph ``offsets`` and ``weights`` are ``None``, ``stored_matrix`` holds
    ``matrix``, the queries run on it and :meth:`edges_into` scans one of
    its columns.  Only a backward ball that its bounds do not decide builds
    the transpose ``incoming``, and only a large 2-D graph's separation or
    ball builds the ``_chords`` of its kept offsets' sectors, which tell
    whether the table is convex.  A separation or a ball on a large convex
    2-D table also builds ``_displacement_tables``, bounds on the ``query``
    distance of every displacement and the sector of its lattice path
    (:func:`_displacement_bounds`), 3 (2 res - 1)^2 numbers; a separation
    reads them at q - p, a ball as views at its centre.
    """

    box_lo: np.ndarray
    box_hi: np.ndarray
    resolution: int
    neighbor_radius: int
    shape: tuple
    nodes: np.ndarray = field(repr=False)
    edge_count: int
    stored_matrix: Optional[csr_matrix] = field(default=None, repr=False)
    offsets: Optional[np.ndarray] = field(default=None, repr=False)
    weights: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def matrix(self) -> csr_matrix:
        """The full construction: ``stored_matrix``, or on a graph with an
        offset table a new assembly of every table offset on each read."""
        if self.offsets is None:
            return self.stored_matrix
        return self._table_adjacency(self.offsets, self.weights)

    def _keep(self, weights) -> Optional[np.ndarray]:
        """Mask of the table offsets a reduced adjacency under ``weights``
        holds: all but those :func:`_undominated` drops, or every offset when
        the graph or the dropped offsets carry fewer than ``REDUCE_MIN_EDGES``
        edges; ``None`` on a graph without an offset table."""
        if self.offsets is None:
            return None
        if self.edge_count < REDUCE_MIN_EDGES:
            return np.ones(len(self.offsets), dtype=bool)
        keep = _undominated(self.offsets, weights)
        if _edge_count(self.offsets[~keep], self.resolution) < REDUCE_MIN_EDGES:
            keep[:] = True
        return keep

    @functools.cached_property
    def _query_keep(self) -> Optional[np.ndarray]:
        return self._keep(self.weights)

    @functools.cached_property
    def _reach_keep(self) -> Optional[np.ndarray]:
        return self._keep(None if self.weights is None else np.zeros_like(self.weights))

    @functools.cached_property
    def _query_edges(self) -> int:
        """Edges of ``query`` on a graph with an offset table, counted off
        the table without assembling ``query``."""
        return _edge_count(self.offsets[self._query_keep], self.resolution)

    @functools.cached_property
    def _ties(self) -> tuple:
        """:func:`_tie_roots` of the offset table."""
        return _tie_roots(self.offsets)

    @functools.cached_property
    def _keys(self) -> tuple:
        """(place, keys): the place values of the balanced base-(2r + 1)
        keys, r the stencil radius, and the keys of the offset table, which
        follow its lexicographic order."""
        base = 2 * _stencil_radius(self.resolution, self.neighbor_radius) + 1
        place = [base**e for e in range(len(self.shape) - 1, -1, -1)]
        return place, (self.offsets @ place).tolist()

    @functools.cached_property
    def _fan(self) -> tuple:
        """(offsets, weights) of the kept ``query`` offsets of a 2-D table
        sorted by angle, less each one whose primitive root is kept too."""
        copies, roots = self._ties
        keep = self._query_keep & ~((copies > 1) & self._query_keep[roots])
        order = np.argsort(np.arctan2(self.offsets[keep, 1], self.offsets[keep, 0]), kind="stable")
        return self.offsets[keep][order], self.weights[keep][order]

    @functools.cached_property
    def _chords(self) -> tuple:
        """(facets, convex) of :func:`_sector_chords` over the ``_fan`` and
        the kept ``query`` offsets of a 2-D table, built on first use."""
        keep = self._query_keep
        return _sector_chords(*self._fan, self.offsets[keep], self.weights[keep])

    @functools.cached_property
    def _displacement_tables(self) -> tuple:
        """(lower, upper, sector) of :func:`_displacement_bounds` over the
        ``_fan`` and its ``_chords``, built on first use."""
        return _displacement_bounds(*self._fan, self._chords[0], self.resolution)

    def _table_adjacency(self, offsets: np.ndarray, weights: np.ndarray) -> csr_matrix:
        strides = self.resolution ** np.arange(len(self.shape) - 1, -1, -1)
        return _assemble(_in_grid(offsets, self.resolution), offsets, strides, weights)

    def _reduced(self, keep: Optional[np.ndarray]) -> csr_matrix:
        """The table offsets in ``keep`` assembled; ``stored_matrix`` on a
        graph without a table."""
        if keep is None:
            return self.stored_matrix
        return self._table_adjacency(self.offsets[keep], self.weights[keep])

    @functools.cached_property
    def query(self) -> csr_matrix:
        """Adjacency of the shortest-path queries, built on first use.  Its
        distances are never below those of ``matrix`` and exceed them by at
        most the rounding bound of :func:`_undominated`."""
        return self._reduced(self._query_keep)

    @functools.cached_property
    def reach(self) -> csr_matrix:
        """Adjacency of the reachability queries, built on first use: the
        offsets undominated at zero weight, which reach what ``matrix`` reaches."""
        return self._reduced(self._reach_keep)

    @functools.cached_property
    def incoming(self) -> csr_matrix:
        """Transposed ``query``, built on first use: row i lists the edges
        into i.  Only backward balls need it whole.  On a
        position-independent graph it is assembled from the negated kept
        offsets in reversed table order, which is lexicographic order."""
        keep = self._query_keep
        if keep is None:
            return self.query.T.tocsr()
        return self._table_adjacency(-self.offsets[keep][::-1], self.weights[keep][::-1])

    def edges_into(self, i: int, reach: bool = False) -> tuple:
        """(sources, weights) of the edges into node ``i`` of ``query``, or
        of ``reach`` when ``reach``, sources ascending.  On a
        position-independent graph they are i - o for the kept offsets o
        whose source is a grid node, with weight F(o): the table walked in
        reverse lexicographic order gives the sources in ascending order.
        Otherwise a scan of the adjacency's column ``i`` finds them."""
        keep = self._reach_keep if reach else self._query_keep
        if keep is None:
            adj = self.reach if reach else self.query
            at = np.flatnonzero(adj.indices == i)
            return np.searchsorted(adj.indptr, at, side="right") - 1, adj.data[at]
        offsets = self.offsets[keep][::-1]
        sources = np.array(np.unravel_index(i, self.shape)) - offsets
        ok = np.all((sources >= 0) & (sources < self.resolution), axis=1)
        return np.ravel_multi_index(sources[ok].T, self.shape), self.weights[keep][::-1][ok]

    @functools.cached_property
    def _spacing(self) -> np.ndarray:
        return grid_spacing((self.box_lo, self.box_hi), self.resolution)

    def node_id(self, point, name: str = "point") -> int:
        """Flat index of the grid node at ``point``; see :func:`grid_node_id`.
        The node's coordinates are read off ``nodes``."""
        return _grid_index(self.box_lo, self.box_hi, self._spacing, self.resolution, point, name, self.nodes)


def grid_spacing(box: tuple, resolution: int) -> np.ndarray:
    """The cell size h of the ``resolution``-per-axis grid on ``box``.
    InvalidArgument unless hi > lo on every axis, 2 <= resolution <= the
    largest float, resolution is an integer, and the corners, hi - lo and h
    are finite with h > 0; a resolution that is not a real number fails
    ``integer`` before the bounds are compared."""
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if not np.all(hi > lo):
        raise InvalidArgument("box needs hi > lo on every axis", path="box", constraint="positive")
    check_real(resolution, "resolution")
    if resolution < 2:
        raise InvalidArgument("resolution must be at least 2", path="resolution", constraint="minimum")
    if resolution > sys.float_info.max:  # an integer that no float holds
        raise InvalidArgument("resolution is out of range", path="resolution", constraint="maximum")
    resolution = check_integer(resolution, "resolution")
    # Python floats round as numpy's do and overflow to inf without a warning;
    # with hi > lo, a finite hi - lo makes both corners finite
    if not all(0 < (b - a) / (resolution - 1) < math.inf for a, b in zip(lo.tolist(), hi.tolist())):
        raise InvalidArgument("box needs finite corners, extent and cell size", path="box", constraint="finite")
    return (hi - lo) / (resolution - 1)


def grid_node_id(box: tuple, resolution: int, point, name: str = "point") -> int:
    """Flat index of the node of the ``resolution``-per-axis grid on ``box``
    nearest to ``point``; InvalidArgument at ``name``, the caller's name for
    the point, when it is not one coordinate per axis, lies outside the box
    or more than half a cell from that node, or for a box
    :func:`grid_spacing` rejects."""
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    return _grid_index(lo, hi, grid_spacing((lo, hi), resolution), resolution, point, name)


def _grid_index(
    lo: np.ndarray, hi: np.ndarray, h: np.ndarray, resolution: int, point, name: str, nodes: Optional[np.ndarray] = None
) -> int:
    """:func:`grid_node_id` on a checked box with cell size ``h``, reading the
    node's coordinates off a graph's ``nodes`` when given."""
    point = np.asarray(point, dtype=float)
    if point.shape != lo.shape:
        msg = f"{name}: point needs shape {lo.shape}, got {point.shape}"
        raise InvalidArgument(msg, path=name, constraint="shape")
    with np.errstate(over="ignore"):
        pos = np.rint((point - lo) / h)
    if not np.all((pos >= 0) & (pos < resolution)):  # a NaN position fails too
        raise InvalidArgument(f"{name}: point {point} outside the graph box", path=name, constraint="grid")
    idx = pos.astype(int)
    flat = int(np.ravel_multi_index(tuple(idx), (resolution,) * lo.shape[0]))
    # the node's coordinates exactly as build_separation_graph lays them out
    node = np.linspace(lo, hi, resolution)[idx, np.arange(idx.size)] if nodes is None else nodes[flat]
    if np.linalg.norm(node - point) > 0.5 * float(np.max(h)):
        raise InvalidArgument(f"{name}: point {point} is not a grid node", path=name, constraint="grid")
    return flat


def _segment_points(starts: np.ndarray, ends: np.ndarray, delta: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The points (S, J, n) of the segments ``starts -> ends`` (S, n), ends =
    starts + delta up to rounding, at the ascending parameters t (J,) from 0
    to 1: the start and end nodes exactly, and ``starts + t_j * delta``
    between them, one coordinate at a time: broadcasting (S, 1, n) against
    (J, n) would run an inner loop of length n."""
    points = np.empty(starts.shape[:1] + t.shape + starts.shape[1:])
    points[:, 0] = starts
    points[:, -1] = ends
    for d in range(starts.shape[1]):
        np.add(starts[:, d, None], t[1:-1] * delta[:, d, None], out=points[:, 1:-1, d])
    return points


def _segment_jet(m: ConicMetric, points: np.ndarray, delta: np.ndarray) -> tuple:
    """(ok, F), each (2, S, J), of the velocities +delta and -delta (S, n) at the
    points (S, J, n) of their segments: one jet, the points broadcast over the
    leading axis with stride 0, so the position fields evaluate them once, and
    a velocity broadcast over its segment's points, so the position-independent
    nodes evaluate it once."""
    return m.jet(points, np.stack([delta, -delta])[:, :, None, :])


def _edge_lengths(m: ConicMetric, starts: np.ndarray, ends: np.ndarray, delta: np.ndarray) -> tuple:
    """(kept, lengths), each (2, S): the mask of the admissible straight
    edges, the segments ``starts -> ends`` (S, n), ends = starts + delta, in
    row 0 and their reverses ``ends -> starts`` in row 1, on a
    position-dependent metric, and their F-lengths, NaN where not kept, by
    the rule of :func:`build_separation_graph`.  Both directions of a segment
    are sampled on the same points (:func:`_segment_points`), and each sums
    its terms in point order from start to end: the quadrature weights are
    symmetric, so the reverse edge's sum is its own, and its bits are those
    of the forward edge of v -> F(-v).  A flagged edge includes one whose
    K7 or G3 sum is not finite.  Each weighted sum is a per-row reduction,
    so an edge's length does not depend on the other edges in the batch (a
    BLAS matrix-vector product's rounding depends on the row count)."""
    t, k7, g3 = gauss_kronrod_3_7()
    ok, vals = _segment_jet(m, _segment_points(starts, ends, delta, np.concatenate([[0.0], t, [1.0]])), delta)
    kept = np.all(ok, axis=-1)
    inner = vals[..., 1:-1]
    kronrod = np.einsum("...j,j->...", inner, k7)
    gauss = np.einsum("...j,j->...", inner[..., 1::2], g3)
    flagged = kept & ~(np.abs(kronrod - gauss) <= EDGE_KRONROD_RTOL * np.abs(kronrod))
    lengths = np.where(kept, kronrod, np.nan)
    redo = np.flatnonzero(flagged.any(axis=0))  # segments with a flagged direction
    if redo.size:
        w = simpson_weights(EDGE_QUAD_NODES)
        tq = np.linspace(0.0, 1.0, w.size)
        ok, vals = _segment_jet(m, _segment_points(starts[redo], ends[redo], delta[redo], tq), delta[redo])
        flagged = flagged[:, redo]
        rows, segments = np.nonzero(flagged)
        segments = redo[segments]
        kept[rows, segments] = keep = np.all(ok[flagged], axis=-1)
        # numpy's pairwise sum stays within 2 ulp of a BLAS product over the
        # 33 points; einsum, faster on the 7-point rows, strays further
        lengths[rows, segments] = np.where(keep, (vals[flagged] * (w / (w.size - 1))).sum(-1), np.nan)
    return kept, lengths


def _stencil_radius(resolution: int, neighbor_radius: int) -> int:
    """The neighbour radius clipped to resolution - 1: larger offsets leave every grid."""
    return max(0, min(neighbor_radius, resolution - 1))


def candidate_edges(n: int, resolution: int, neighbor_radius: int) -> int:
    """Grid nodes times :func:`_offset_table` offsets: the edges that
    :func:`build_separation_graph` tries, counted without allocating them."""
    return resolution**n * ((2 * _stencil_radius(resolution, neighbor_radius) + 1) ** n - 1)


def check_graph(box: tuple, resolution: int, neighbor_radius: int) -> np.ndarray:
    """The cell size h of the graph :func:`build_separation_graph` lays out
    on these arguments, after the rules it checks before any allocation:
    InvalidArgument for a ``neighbor_radius`` below 1, which would give a
    graph without edges, or not an integer, for a box or resolution
    :func:`grid_spacing` rejects, and at ``resolution`` (constraint
    ``maximum``) for more than ``MAX_GRAPH_EDGES`` :func:`candidate_edges`.
    A count that is not a real number fails ``integer`` first."""
    check_real(neighbor_radius, "neighbor_radius")
    if not neighbor_radius >= 1:
        raise InvalidArgument("neighbor_radius must be at least 1", path="neighbor_radius", constraint="minimum")
    check_integer(neighbor_radius, "neighbor_radius")
    h = grid_spacing(box, resolution)
    n = h.shape[0]
    if candidate_edges(n, resolution, neighbor_radius) > MAX_GRAPH_EDGES:
        msg = f"resolution^{n} grid nodes x neighbour offsets must be at most {MAX_GRAPH_EDGES} candidate edges"
        raise InvalidArgument(msg, path="resolution", constraint="maximum")
    return h


def _offset_table(n: int, resolution: int, neighbor_radius: int) -> np.ndarray:
    """The nonzero neighbour offsets (K, n) with |o_d| <= the :func:`_stencil_radius`,
    in lexicographic order."""
    r = _stencil_radius(resolution, neighbor_radius)
    table = np.indices((2 * r + 1,) * n).reshape(n, -1).T - r
    return table[np.any(table != 0, axis=1)]


def _in_grid(offsets: np.ndarray, resolution: int) -> np.ndarray:
    """(N, K) mask, nodes in C order: node i plus offset k is a grid node."""
    K, n = offsets.shape
    mask = np.ones((1,) * n + (K,), dtype=bool)
    for d in range(n):
        dest = np.arange(resolution)[:, None] + offsets[:, d]
        axis_ok = (dest >= 0) & (dest < resolution)
        mask = mask & axis_ok.reshape((1,) * d + (resolution,) + (1,) * (n - 1 - d) + (K,))
    return mask.reshape(resolution**n, K)


def _edge_count(offsets: np.ndarray, resolution: int) -> int:
    """Edges of the offsets (K, n) on the grid: offset o joins prod_d
    (resolution - |o_d|) pairs of nodes."""
    return int(np.prod(resolution - np.abs(offsets), axis=1).sum())


def _assemble(mask: np.ndarray, offsets: np.ndarray, strides: np.ndarray, weights: np.ndarray) -> csr_matrix:
    """CSR matrix of the edges i -> i + offsets[k] where ``mask[i, k]``, with
    weights (K,) or (N, K).  Row i lists its edges in offset order, which is
    ascending column order: the destinations are grid nodes, and their flat
    indices follow the lexicographic order of i + offsets[k]."""
    from scipy.sparse import csr_matrix

    N = mask.shape[0]
    # scipy keeps 32-bit indices it is given; 64-bit ones it scans and copies
    index = np.int32 if mask.size < 2**31 else np.int64
    counts = np.count_nonzero(mask, axis=1)
    indptr = np.zeros(N + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    indices = np.broadcast_to((offsets @ strides).astype(index), mask.shape)[mask]
    indices += np.repeat(np.arange(N, dtype=index), counts)
    data = np.broadcast_to(weights, mask.shape)[mask]
    return csr_matrix((data, indices, indptr), shape=(N, N))


@functools.lru_cache(maxsize=8)
def _split_index(table: bytes, n: int) -> tuple:
    """(keys, first, second, starts, targets, size) of :func:`_undominated`
    for the offset table given as the bytes of a (K, n) int64 array, as
    flat indices of a dense table of ``size`` = (2r + 1)^n entries,
    r = max |o_d|: the ``keys`` of the offsets, and the splits o1 =
    ``first``, o2 = ``second`` of every point of the closed orthants that
    hold offsets (a zero component counts as positive), in the box
    |o_d| <= max |o_d| there, grouped by that point: group i starts at
    ``starts[i]`` and splits ``targets[i]``.  Along each axis the pairs
    0 <= u <= t give the splits; axis 0 takes only 2 u <= t, one of each
    split and its mirror.  That is at most 2^n ((r + 1)(r + 2) / 2)^n pairs:
    50820 for the 400 Lorentz ex36 offsets at R = 20, 111804 for all 1680.
    The index depends on the table only, so graphs on one stencil share it."""
    offsets = np.frombuffer(table, dtype=np.int64).reshape(-1, n)
    mag = np.abs(offsets).max(axis=0)
    r = int(mag.max())
    strides = (2 * r + 1) ** np.arange(n - 1, -1, -1)
    present = np.flatnonzero(np.bincount((offsets < 0) @ (1 << np.arange(n)), minlength=2**n))
    signs = 1 - 2 * (present[:, None] >> np.arange(n) & 1)
    # axis 0 of every array runs over the orthants; pair p of axis d is (t, u)
    first = second = targets = r * int(strides.sum())  # the zero offset
    group, local, sizes = [np.arange(present.size).reshape((-1,) + (1,) * n)], 0, 1
    for d in range(n):
        whole = np.arange(mag[d] + 1)
        counts = whole // (2 if d == 0 else 1) + 1
        t = np.repeat(whole, counts)
        u = np.arange(t.size) - (np.cumsum(counts) - counts)[t]
        along = (1,) * (d + 1) + (-1,) + (1,) * (n - 1 - d)
        step = (signs[:, d] * strides[d]).reshape((-1,) + (1,) * n)
        first = first + step * u.reshape(along)
        second = second + step * (t - u).reshape(along)
        targets = targets + step * whole.reshape(along)
        group.append(t.reshape(along))
        local = local * counts[t].reshape(along) + u.reshape(along)  # the split's rank in its group
        sizes = sizes * counts.reshape(along)
    sizes = np.broadcast_to(sizes, targets.shape).ravel()
    starts = np.cumsum(sizes) - sizes
    at = (starts.reshape(targets.shape)[tuple(group)] + local).ravel()
    grouped = np.empty((2, at.size), dtype=np.int64)
    grouped[0, at] = first.ravel()
    grouped[1, at] = second.ravel()
    index = ((offsets + r) @ strides, grouped[0], grouped[1], starts, targets.ravel())
    for a in index:  # every caller shares them
        a.setflags(write=False)
    return index + ((2 * r + 1) ** n,)


def _tie_roots(offsets: np.ndarray) -> tuple:
    """(k, roots) of the offsets (K, n): offset i is k[i] copies of the
    table offset ``offsets[roots[i]]``.  k is the gcd g of the offset's
    components when o / g is in the table too, and else 1, with roots[i] = i."""
    n = offsets.shape[1]
    r = int(np.abs(offsets).max())
    strides = (2 * r + 1) ** np.arange(n - 1, -1, -1)
    at = np.full((2 * r + 1) ** n, -1)
    at[(offsets + r) @ strides] = np.arange(len(offsets))
    g = np.gcd.reduce(offsets, axis=1)
    roots = at[(offsets // g[:, None] + r) @ strides]
    found = roots >= 0
    return np.where(found, g, 1), np.where(found, roots, np.arange(len(offsets)))


def _undominated(offsets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Mask of the offsets (K, n) a shortest-path query needs.  Offset o is
    dropped when o = o1 + o2 for table offsets o1, o2 with no component of
    opposite sign, so the middle node lies in every box that holds both
    ends, and w(o1) + w(o2) <= (1 - ``DOMINANCE_MARGIN``) w(o), found by one
    vectorised min-plus pass over the splits of :func:`_split_index`.  It
    is dropped too when it is a tie: k >= 2 copies of the table offset o'
    of :func:`_tie_roots`, with k w(o') <= (1 + ``DOMINANCE_MARGIN``) w(o).
    On a position-independent metric F(k o') = k F(o'), so ties such as
    (2, 0) = 2 (1, 0) go unless rounding put o' outside the cone or its
    weight far off.  Each part is shorter than o in L1, so every dropped
    edge splits into kept ones.

    A distance d' without the dropped offsets is never below the distance
    d over all of them, and d' <= d (1 + delta) (1 + g(m')) / (1 - g(m)),
    g(j) = (j - 1) u / (1 - (j - 1) u), u = 2^-53.  Take the shortest path
    over all offsets, m edges summed left to right to d, and split each of
    its dropped edges into kept ones: m' edges, at most the path's L1
    lattice length.  By induction on L1 length the parts of an offset o
    cost at most (1 + delta) w(o), delta = max(0, k w(o') / w(o) - 1) over
    the ties (a split's factor 1 - margin absorbs its parts' 1 + delta), so
    the exact sums obey S' <= (1 + delta) S, and a float sum of j positive
    terms is within g(j) of its exact value.  To first order d' - d <=
    (delta + (m + m') u) d.  On the Matsumoto b = 0.5 graph at res 81 /
    R 10, delta = 2.3 u and d' - d <= 7.9 x 2^-52 d over 12 sources."""
    if offsets.size == 0:
        return np.ones(0, dtype=bool)
    index = _split_index(offsets.astype(np.int64).tobytes(), offsets.shape[1])
    keys, first, second, starts, targets, size = index
    table = np.full(size, np.inf)  # the zero offset and offsets outside the table cost inf
    table[keys] = weights
    table[targets] = np.minimum.reduceat(table.take(first) + table.take(second), starts)
    copies, roots = _tie_roots(offsets)
    tie = (copies > 1) & (copies * weights[roots] <= (1.0 + DOMINANCE_MARGIN) * weights)
    return ~(table[keys] <= (1.0 - DOMINANCE_MARGIN) * weights) & ~tie


def build_separation_graph(m: ConicMetric, box: tuple, resolution: int, neighbor_radius: int) -> SeparationGraph:
    """Grid discretization of the admissible-path length infimum.

    Every ordered node pair within the neighbor radius gets a directed
    edge weighted by the F-length of the straight segment.  On a
    position-independent metric that length is F(delta), from one jet over
    the table of neighbour offsets; each weight equals
    ``eval_F_many(m, x, delta)`` bit for bit, and an offset outside the
    cone gives no edges.  On a position-dependent metric each segment
    {x, x + delta}, delta an offset of the first half of the symmetric
    table, is sampled once for its two edges: the end nodes exactly and
    x + t_j delta at the 7 Gauss-Kronrod nodes.  The segments are taken
    offset by offset in blocks, the fewest whole offsets whose segments
    hold ``EDGE_BLOCK`` directed edges, and one jet per block, the
    velocities +delta and -delta stacked on a leading axis over the
    shared points, gives each edge's 7-point Kronrod sum; the edge is
    dropped when its velocity leaves the cone at either end or at any of
    the 7 nodes.  An edge whose embedded 3-point Gauss estimate differs
    from that sum by more than ``EDGE_KRONROD_RTOL`` relative is redone,
    in one jet per block, with ``EDGE_QUAD_NODES``-point Simpson on its
    segment, whose points alone then decide its length and cone test.
    Both edges of a segment sum in point order, from x to x + delta, so
    the graph of v -> F(-v) is the transpose of this one bit for bit.
    Every edge's result is independent of its batch, so the blocks only
    bound the memory of a jet and the number of jets.  A
    position-independent graph keeps its offset table and F(offset) for
    the reduced query adjacencies, and assembles no full adjacency; a
    position-dependent graph stores it.  The arguments pass
    :func:`check_graph` before anything is allocated.
    """
    h = check_graph(box, resolution, neighbor_radius)
    resolution, R = int(resolution), int(neighbor_radius)
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    n = lo.shape[0]
    mesh = np.meshgrid(*np.linspace(lo, hi, resolution).T, indexing="ij")
    nodes = np.stack([mm.ravel() for mm in mesh], axis=-1)
    shape = (resolution,) * n
    offsets = _offset_table(n, resolution, R)
    grid = dict(box_lo=lo, box_hi=hi, resolution=resolution, neighbor_radius=R, shape=shape, nodes=nodes)
    if m.position_independent:
        ok, F = m.jet(0.5 * (lo + hi), offsets * h)
        offsets = offsets[ok]
        return SeparationGraph(**grid, edge_count=_edge_count(offsets, resolution), offsets=offsets, weights=F[ok])
    mask = _in_grid(offsets, resolution)
    weights = np.zeros(mask.shape)
    K = offsets.shape[0]
    half = K // 2  # the table is symmetric: offsets[K - 1 - k] == -offsets[k]
    strides = resolution ** np.arange(n - 1, -1, -1)
    jumps = offsets[:half] @ strides
    steps = offsets[:half] * h
    upto = np.cumsum(np.count_nonzero(mask[:, :half], axis=0))  # segments through offsets 0..k
    k0 = 0
    while k0 < half:  # blocks of whole offsets, of EDGE_BLOCK or more directed edges but the last
        k1 = min(int(np.searchsorted(upto, (upto[k0 - 1] if k0 else 0) + EDGE_BLOCK // 2)) + 1, half)
        kb, sb = np.nonzero(mask[:, k0:k1].T)
        kb += k0
        db = sb + jumps[kb]
        rows, cols = np.stack([sb, db]), np.stack([kb, K - 1 - kb])  # the segments, then their reverses
        starts, ends = nodes.take(rows, axis=0)  # take gathers rows several times faster than indexing
        mask[rows, cols], weights[rows, cols] = _edge_lengths(m, starts, ends, steps.take(kb, axis=0))
        k0 = k1
    matrix = _assemble(mask, offsets, strides, weights)
    return SeparationGraph(**grid, edge_count=matrix.nnz, stored_matrix=matrix)


@dataclass(frozen=True)
class SeparationResult:
    value: float
    witness_path: np.ndarray

    @property
    def reachable(self) -> bool:
        return np.isfinite(self.value)


def _as_node(graph: SeparationGraph, p, name: str = "p") -> int:
    """Flat index of the node ``p``, an integer in [0, N) or a point of the
    grid (:meth:`SeparationGraph.node_id`); a boolean is neither."""
    if isinstance(p, (bool, np.bool_)):
        raise InvalidArgument(f"{name} must be a node index or a point, got {p!r}", path=name, constraint="integer")
    if isinstance(p, (int, np.integer)):
        if not 0 <= p < graph.node_count:
            raise InvalidArgument(f"node {p} is not in [0, {graph.node_count})", path=name, constraint="grid")
        return int(p)
    return graph.node_id(p, name)


def _row(adj: csr_matrix, i: int) -> tuple:
    """(columns, weights) of row ``i`` of ``adj``."""
    lo, hi = adj.indptr[i], adj.indptr[i + 1]
    return adj.indices[lo:hi], adj.data[lo:hi]


def _closing_edge(dist: np.ndarray, sources: np.ndarray, weights: np.ndarray) -> tuple:
    """Cheapest of the edges ``sources`` -> ip with ``weights`` after the
    distances ``dist``: (cost, source), or (inf, -1) when none is finite.
    With the sources ascending, ties go to the lowest source index."""
    cost = dist[sources] + weights
    k = int(np.argmin(cost)) if cost.size else -1
    if k < 0 or not np.isfinite(cost[k]):
        return np.inf, -1
    return cost[k], int(sources[k])


def _path_bound(graph: SeparationGraph, ip: int, iq: int) -> float:
    """An upper bound on the ``query`` distance from node ip to node iq: the
    cost of the lattice path a + floor(k delta / s), k = 0..s, with
    s = max(1, ceil(|delta|_inf / R)), inf unless every step is a table
    offset.  A step o = k o' that ``query`` drops as a tie
    (:func:`_tie_roots`) is walked as k steps o', which are ``query``
    edges or split into cheaper ones; a step that a split dominates keeps
    w(o), above the split's cost by the ``DOMINANCE_MARGIN``.  The step
    weights are summed left to right from 0.0, in path order, so
    Dijkstra's distance never exceeds the bound."""
    if graph.offsets is None or graph.offsets.size == 0:
        return np.inf
    delta, a, b = [], ip, iq
    for size in reversed(graph.shape):
        (a, da), (b, db) = divmod(a, size), divmod(b, size)
        delta.insert(0, db - da)
    s = max(1, -(-max(map(abs, delta)) // graph.neighbor_radius))
    (place, keys), keep, (copies, roots) = graph._keys, graph._query_keep, graph._ties
    bound = 0.0
    for k in range(s):
        step = sum(((k + 1) * d // s - k * d // s) * p for d, p in zip(delta, place))
        at = bisect.bisect_left(keys, step)
        if at == len(keys) or keys[at] != step:
            return np.inf
        reps = 1
        if not keep[at]:
            at, reps = int(roots[at]), int(copies[at])
        for _ in range(reps):
            bound += float(graph.weights[at])
    return bound


def _reads_tables(graph: SeparationGraph) -> bool:
    """Whether a separation between distinct nodes and a ball read the
    displacement tables first: on a 2-D graph with an offset table of at
    least ``TABLE_MIN_OFFSETS`` kept offsets, whose ``query`` has at least
    ``TABLE_MIN_EDGES`` edges (``_query_edges``, counted once per graph),
    and whose sector ``_chords`` find the table convex.  The size rules are
    checked first, so a smaller graph builds no chords; their constants are
    read on each call."""
    keep = graph._query_keep
    if keep is None or len(graph.shape) != 2 or not keep.any():
        return False
    if np.count_nonzero(keep) < TABLE_MIN_OFFSETS:
        return False
    if graph._query_edges < TABLE_MIN_EDGES:
        return False
    return graph._chords[1]


def _sector_path(graph: SeparationGraph, ip: int, iq: int) -> Optional[tuple]:
    """(value, path) of the separation from node ip to node iq != ip of a
    2-D graph that :func:`_reads_tables` admits, read off the
    ``_displacement_tables`` at delta = q - p, or None when they leave it
    open.  In a sector (o, o') with a finite upper bound, delta = a o + b o'
    with a = det(delta, o') and b = det(o, delta), and the path is p, a
    steps o, then b steps o': ``query`` edges inside the box of p and q.
    Its value is their weights summed left to right from 0.0, in path
    order, so Dijkstra's distance D obeys lower <= D <= value <= upper.
    ``path`` lists the flat node indices from iq back to ip, as a walk of
    predecessors does; it is empty, with value inf, when delta lies outside
    the offset cone (lower = inf)."""
    lower, _, sector = graph._displacement_tables
    res = graph.resolution
    (px, py), (qx, qy) = divmod(ip, res), divmod(iq, res)
    dx, dy = qx - px, qy - py
    at = (dx + res - 1, dy + res - 1)
    k = int(sector[at])
    if k < 0:
        return (np.inf, []) if lower[at] == np.inf else None
    offsets, weights = graph._fan
    k2 = (k + 1) % len(offsets)
    (ox, oy), (o2x, o2y) = offsets[k].tolist(), offsets[k2].tolist()
    a, b = dx * o2y - dy * o2x, ox * dy - oy * dx
    steps = np.repeat(offsets[[k, k2]], [a, b], axis=0)
    value = 0.0
    for w in [float(weights[k])] * a + [float(weights[k2])] * b:
        value += w
    nodes = np.vstack([(px, py), (px, py) + np.cumsum(steps, axis=0)])
    return value, np.ravel_multi_index(nodes[::-1].T, graph.shape).tolist()


def separation(graph: SeparationGraph, p, q) -> SeparationResult:
    """Shortest admissible-path length from p to q on the graph.

    Dijkstra runs on ``graph.query``; between distinct nodes of a graph
    with at least ``REDUCE_MIN_EDGES`` edges it stops past the
    :func:`_path_bound` of the pair (scipy's ``limit`` keeps a node at
    exactly that distance).  A loop p -> p closes through the cheapest
    edge into p, read off :meth:`SeparationGraph.edges_into`.  Where
    ``query`` drops ties (:func:`_undominated`), the value is never below
    the full graph's and exceeds it by at most the rounding bound derived
    there, and every step of the witness path is a ``query`` edge, whose
    weights summed in path order give the value bit for bit.

    On a 2-D position-independent graph with at least ``TABLE_MIN_EDGES``
    ``query`` edges and ``TABLE_MIN_OFFSETS`` kept offsets, all on their
    envelope as the sector chords tell (:func:`_sector_chords`), a pair of
    distinct nodes is read off the displacement tables
    (:func:`_sector_path`): the witness is the lattice path of a steps o
    then b steps o' of q - p's sector, its value those weights summed in
    path order, so D <= value <= D + (upper - lower) at q - p, D Dijkstra's
    distance; on the Matsumoto, Euclidean and Randers tables at R 10
    upper - lower is about 1e-12 relative.  A q - p outside the offset cone
    is unreachable.  Where no sector path exists, Dijkstra runs as above."""
    ip, iq = _as_node(graph, p), _as_node(graph, q, "q")
    found = _sector_path(graph, ip, iq) if ip != iq and _reads_tables(graph) else None
    if found is not None:
        val, path = found
    else:
        from scipy.sparse.csgraph import dijkstra

        small = graph.edge_count < REDUCE_MIN_EDGES
        limit = np.inf if ip == iq or small else _path_bound(graph, ip, iq)
        dist, pred = dijkstra(graph.query, directed=True, indices=ip, return_predecessors=True, limit=limit)
        if ip == iq:
            # proper separation: go out and come back (no zero-length loitering)
            val, last = _closing_edge(dist, *graph.edges_into(ip))
            path = [iq, last]
        else:
            val, path = dist[iq], [iq]
    if not np.isfinite(val):
        return SeparationResult(value=np.inf, witness_path=np.zeros((0, graph.nodes.shape[1])))
    while path[-1] != ip:
        path.append(int(pred[path[-1]]))
    return SeparationResult(value=float(val), witness_path=graph.nodes[np.array(path[::-1])])


def reachability(graph: SeparationGraph, p) -> np.ndarray:
    """Flat indices of nodes reachable from p by admissible paths, by BFS on ``graph.reach``."""
    from scipy.sparse.csgraph import breadth_first_order

    ip = _as_node(graph, p)
    mask = np.zeros(graph.node_count, dtype=bool)
    mask[breadth_first_order(graph.reach, ip, directed=True, return_predecessors=False)] = True
    # p itself is in its future only when some admissible loop returns to it;
    # a loop's last edge splits until its last part is an edge of ``reach``
    mask[ip] = np.any(mask[graph.edges_into(ip, reach=True)[0]])
    return np.flatnonzero(mask)


def _bounded_ball(graph: SeparationGraph, ip: int, r: float, forward: bool, nbrs, weights) -> Optional[np.ndarray]:
    """The ball of :func:`df_ball` decided from ``graph._displacement_tables`` alone,
    or None when a node falls between the bounds.  The tables are read as
    views at p, of the displacements x - p forward and p - x backward.  A
    node x != p is in the ball when upper < r and out when lower >= r.
    Each closing edge joins p and a node x of ``nbrs`` with weight w(o):
    x = p - o is the source of an edge into p forward, x = p + o the
    target of an edge out of p backward.  Either way x's entry of the views
    is the tables' entry at -o, and float addition is monotone, so the
    loop's cost fl(d(x) + w(o)) lies between fl(lower + w(o)) and
    fl(upper + w(o)) there."""
    lower, upper, _ = graph._displacement_tables
    if not forward:
        lower, upper = lower[::-1, ::-1], upper[::-1, ::-1]
    res = graph.resolution
    view = tuple(slice(res - 1 - c, 2 * res - 1 - c) for c in np.unravel_index(ip, graph.shape))
    lower, upper = lower[view], upper[view]
    inside = upper < r
    decided = inside | (lower >= r)
    decided.flat[ip] = True
    if not decided.all():
        return None
    close = (upper.flat[nbrs] + weights).min(initial=np.inf) < r
    if not close and (lower.flat[nbrs] + weights).min(initial=np.inf) < r:
        return None
    inside.flat[ip] = close
    return np.flatnonzero(inside)


def df_ball(graph: SeparationGraph, p, r: float, direction: str = "forward") -> np.ndarray:
    """Flat indices of the discrete forward/backward separation ball: the
    nodes x != p whose Dijkstra distance on ``graph.query`` from p
    (forward), or on the reversed graph ``graph.incoming`` (backward), is
    below r; a negative radius gives the empty ball.  The node p is in its
    ball when a loop through p costs less than r: the closing edges are
    :meth:`SeparationGraph.edges_into` p forward, and row p of
    ``graph.query`` backward.

    On a 2-D graph that :func:`_reads_tables` admits, the ball is first
    decided from the graph's displacement bounds
    (:func:`_displacement_bounds`, built once on first use): a node is in
    when its upper bound is below r and out when its lower bound is at
    least r, and p likewise from the bounds of its closing edges' costs.
    When some node falls between its bounds, Dijkstra stopped at r decides
    the whole ball.  Either way the node set is Dijkstra's."""
    ip = _as_node(graph, p)
    check_ball_direction(direction)
    if np.isnan(r):
        raise InvalidArgument("r must be a number, got nan", path="r", constraint="number")
    forward = direction == "forward"
    # the edges into p of the reversed graph are the edges out of p
    into = graph.edges_into(ip) if forward else _row(graph.query, ip)
    if _reads_tables(graph):
        ball = _bounded_ball(graph, ip, r, forward, *into)
        if ball is not None:
            return ball
    from scipy.sparse.csgraph import dijkstra

    mat = graph.query if forward else graph.incoming
    # scipy rejects a negative limit; such a ball is empty either way
    dist = dijkstra(mat, directed=True, indices=ip, limit=max(r, 0.0))
    mask = dist < r
    mask[ip] = _closing_edge(dist, *into)[0] < r
    return np.flatnonzero(mask)
