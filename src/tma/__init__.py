"""Numerical laboratory for twisted Monge-Ampere operators.

Exact jet arithmetic, the partial Legendre transform and its W-matrix, the
complex twisted operators and their W-matrix, evolution/sign identities for
the W-tensor, parabolic/elliptic grid solvers, and parabolic-cylinder
oscillation measurement — all verifiable at desk scale from the `tma` CLI or
the module APIs.

The top level re-exports only the names of the README's library tour; every
other public name is imported from its submodule (``tma.solver``,
``tma.estimates``, ...).
"""

__version__ = "0.1.0"

from . import errors
from .funclass import EnsembleSpec, draw_block, draw_member, sample_points
from .legendre import det_transform_residual
from .evolution import FlowBlock, flow_report
from .solver import BoxGrid, flow_from_spec, run_flow
from .estimates import CylinderSpec, flow_quantities, oscillation_ladder

__all__ = [
    "errors",
    "EnsembleSpec",
    "draw_block",
    "draw_member",
    "sample_points",
    "det_transform_residual",
    "FlowBlock",
    "flow_report",
    "BoxGrid",
    "flow_from_spec",
    "run_flow",
    "CylinderSpec",
    "flow_quantities",
    "oscillation_ladder",
    "__version__",
]
