"""Numerical laboratory for twisted Monge-Ampere operators.

Exact jet arithmetic, the partial Legendre transform and its W-matrix, the
complex twisted operators and their linearization, evolution/sign identities
for the W-tensor, parabolic/elliptic grid solvers, and parabolic-cylinder
oscillation measurement — all verifiable at desk scale from the `tma` CLI or
the module APIs.
"""

__version__ = "0.1.0"

from . import errors
from .jets import ExpressionSpec, SpaceTimeJet, WirtingerTable, evaluate_jet, wirtinger_from_real
from .funclass import ClassReport, EnsembleSpec, class_membership, draw_member, sample_ensemble, sample_points
from .legendre import PartialLegendreResult, det_transform_residual, partial_legendre
from .twistedops import OperatorValue, complex_W, eval_F, eval_H, operator_value
from .evolution import (
    FlowBlock,
    FlowReport,
    QTensor,
    assemble_Q,
    complexify_point,
    complexify_real,
    evolution_lhs,
    evolution_residual,
    flow_report,
    heat_residual,
    q_sign_groupings,
    subsolution_spectrum,
)
from .solver import (
    BoxGrid,
    FlowField,
    FrozenFrame,
    PeriodicBase,
    flow_from_spec,
    flow_from_values,
    run_flow,
    solve_elliptic,
)
from .estimates import (
    CylinderSpec,
    FieldQuantities,
    LadderReport,
    flow_quantities,
    oscillation_ladder,
    parabolic_rescale,
    rigidity_probe,
)

__all__ = [
    "errors",
    "ExpressionSpec",
    "SpaceTimeJet",
    "WirtingerTable",
    "evaluate_jet",
    "wirtinger_from_real",
    "ClassReport",
    "EnsembleSpec",
    "class_membership",
    "draw_member",
    "sample_ensemble",
    "sample_points",
    "PartialLegendreResult",
    "det_transform_residual",
    "partial_legendre",
    "OperatorValue",
    "complex_W",
    "eval_F",
    "eval_H",
    "operator_value",
    "FlowBlock",
    "FlowReport",
    "QTensor",
    "assemble_Q",
    "complexify_point",
    "complexify_real",
    "evolution_lhs",
    "evolution_residual",
    "flow_report",
    "heat_residual",
    "q_sign_groupings",
    "subsolution_spectrum",
    "BoxGrid",
    "FlowField",
    "FrozenFrame",
    "PeriodicBase",
    "flow_from_spec",
    "flow_from_values",
    "run_flow",
    "solve_elliptic",
    "CylinderSpec",
    "FieldQuantities",
    "LadderReport",
    "flow_quantities",
    "oscillation_ladder",
    "parabolic_rescale",
    "rigidity_probe",
    "__version__",
]
