import dataclasses

import numpy as np
from hypothesis import settings

from finslerkit.geodesy import DOMINANCE_MARGIN, _tie_roots
from finslerkit.minkowski import PolarCurve2D

# Derandomized: every run draws the same examples, so the suite stays deterministic.
settings.register_profile("finslerkit", derandomize=True, deadline=None, database=None, max_examples=40)
settings.load_profile("finslerkit")


def boxed(m, half_width: float = 1.0):
    """``m`` on the open square max|x_i| < ``half_width``.  The square is part
    of the jet's domain, so the node depends on the base point."""

    def jet_fn(base, vec, with_tensor):
        ok, *rest = m.jet_fn(base, vec, with_tensor)
        return (ok & (np.max(np.abs(base), axis=-1) < half_width), *rest)

    return dataclasses.replace(m, jet_fn=jet_fn, position_independent=False)


def unit_circle_curve() -> PolarCurve2D:
    """The unit circle r = 1 over the full circle, with exact derivatives."""

    def jet_fn(th, with_derivatives):
        r = np.ones_like(th)
        return (r, np.zeros_like(th), np.zeros_like(th)) if with_derivatives else r

    return PolarCurve2D(jet_fn=jet_fn, theta_range=None)


def tie_excess_bound(graph, path) -> float:
    """The relative excess of a ``query`` distance over the distance over
    every offset, as ``geodesy._undominated`` bounds it to first order, for
    ``path``, flat node indices of a shortest path over every offset:
    delta + 2 L u, with m and m' at most L, the path's L1 lattice length,
    u = 2^-53 and delta the largest k w(o') / w(o) - 1 over the table's
    ties.  The rule's own ``m + m' - 2`` leaves 2 u for the second order."""
    copies, roots = _tie_roots(graph.offsets)
    w = graph.weights
    tie = (copies > 1) & (copies * w[roots] <= (1.0 + DOMINANCE_MARGIN) * w)
    delta = max(0.0, float(((copies * w[roots] - w) / w)[tie].max(initial=0.0)))
    lattice = np.array(np.unravel_index(np.asarray(path, dtype=int), graph.shape)).T
    return delta + 2 * int(np.abs(np.diff(lattice, axis=0)).sum()) * 2.0**-53


def assert_sector_separation(graph, p, q, got, want) -> None:
    """``got``, the separation from node p to node q != p of a 2-D graph
    that ``geodesy._reads_tables`` admits, keeps the contract of the
    displacement tables against ``want``, scipy's Dijkstra distance on
    ``query``: the witness path joins p to q, every step of it is a
    ``query`` edge, and its weights summed in path order from 0.0 give the
    value bit for bit.  A sector path stays inside the box of its ends, and
    want <= value <= want + (upper - lower) at q - p.  Where the tables hold
    no sector path, Dijkstra answers, and the value is ``want`` bit for bit."""
    lower, upper, sector = graph._displacement_tables
    at = tuple(np.subtract(np.unravel_index(q, graph.shape), np.unravel_index(p, graph.shape)) + graph.resolution - 1)
    if not np.isfinite(want):
        assert got.value == np.inf and got.witness_path.shape == (0, 2)
        return
    path = [graph.node_id(x) for x in got.witness_path]
    assert path[0] == p and path[-1] == q
    lattice = np.array(np.unravel_index(path, graph.shape)).T
    keep = graph._query_keep
    weight = dict(zip(map(tuple, graph.offsets[keep].tolist()), graph.weights[keep].tolist()))
    total = 0.0
    for step in np.diff(lattice, axis=0).tolist():
        total += weight[tuple(step)]  # KeyError at a step that is no query edge
    assert total == got.value
    if sector[at] < 0:
        assert got.value == want
        return
    lo, hi = np.minimum(lattice[0], lattice[-1]), np.maximum(lattice[0], lattice[-1])
    assert np.all((lo <= lattice) & (lattice <= hi))
    assert want <= got.value <= want + (upper[at] - lower[at])
