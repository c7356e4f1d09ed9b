"""Conic pseudo-Finsler metric toolkit.

Construct norm gauges and homogeneous metric combinations with
closed-form fundamental tensors, classify where they stay strongly
convex, and explore geodesics and graph-based Finslerian separations.

The geodesic and graph layer, ``finslerkit.geodesy``, is imported on the
first access to it or to one of the names this package re-exports from
it (``separation``, ``exp_map``, ...), so importing the package, building
a metric and the pointwise evaluations compile none of its code.
"""

from .combinators import (
    LCombiner,
    PhiProfile,
    characterization_nd,
    check_conditions_ABC,
    combine,
    det_tensor_formula,
    f1f2_combine,
    kropina_profile,
    matsumoto_profile,
    named_family,
    phi_combine,
    power_combiner,
    power_q_combine,
    randers_profile,
    reversibilize,
    square_over_f0_profile,
    sum_combiner,
)
from .errors import FinslerError
from .metrics import (
    ConicMetric,
    OneFormAtom,
    RiemannAtom,
    TangentVec,
    classify_point,
    constant_oneform,
    constant_riemann,
    convexity_scan,
    eval_F,
    eval_F_many,
    euclidean_metric,
    minkowski_metric,
    oneform_metric,
    riemann_metric,
    tensor,
    unit_directions,
)
from .minkowski import (
    GaugeNorm,
    PolarCurve2D,
    curve_convexity,
    downward_parabola_curve,
    gauge_from_ball,
    gauge_from_curve,
    lorentz_curve,
    polar_curve,
    spiral_curve,
    sqrt_parabola_curve,
    triangle_report,
    wavy_curve,
)
from .numkernel import (
    EigenReport,
    Definiteness,
    eigen_classify,
    ray_root,
)

__version__ = "0.1.0"

# re-exported from .geodesy on first access (PEP 562)
_GEODESY_NAMES = (
    "GeodesicState",
    "Polyline",
    "SeparationGraph",
    "SeparationResult",
    "build_separation_graph",
    "curve_length",
    "df_ball",
    "exp_map",
    "geodesic_shoot",
    "radial_minimality_test",
    "reachability",
    "separation",
)
# the names ``from finslerkit import *`` binds: every public name above, the
# package's modules and the geodesy module with its names
__all__ = sorted({name for name in globals() if not name.startswith("_")} | {"geodesy", *_GEODESY_NAMES})


def __getattr__(name: str):
    if name != "geodesy" and name not in _GEODESY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement, which -X importtime logs; ``from . import geodesy``
    # would look the attribute up here again
    import finslerkit.geodesy as geodesy

    return geodesy if name == "geodesy" else getattr(geodesy, name)


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
