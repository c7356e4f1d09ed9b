import dataclasses

import numpy as np
from hypothesis import settings

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
