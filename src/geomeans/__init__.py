"""Spherical mean transforms and their inversion in constant curvature spaces."""

from .spaces import (
    EUCLIDEAN,
    SPHERE,
    HYPERBOLIC,
    SpaceSpec,
    BoundaryGrid,
    boundary_grid,
    h_parameter,
)
from .phantoms import Bump, Phantom
from .numerics import TGrid
from .forward import MeanData, default_tgrid, forward_means, epd_trace_euclidean, epd_trace_sphere
from .inversion import (
    ReconstructionReport,
    backproject,
    chart_box_grid,
    invert,
    make_report,
)

__version__ = "0.1.0"

__all__ = [
    "EUCLIDEAN",
    "SPHERE",
    "HYPERBOLIC",
    "SpaceSpec",
    "BoundaryGrid",
    "boundary_grid",
    "h_parameter",
    "Bump",
    "Phantom",
    "TGrid",
    "MeanData",
    "default_tgrid",
    "forward_means",
    "epd_trace_euclidean",
    "epd_trace_sphere",
    "ReconstructionReport",
    "backproject",
    "chart_box_grid",
    "invert",
    "make_report",
    "__version__",
]
