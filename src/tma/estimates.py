"""Oscillation measurement on parabolic cylinders, decay-exponent fitting,
parabolic rescaling, and rigidity probes.

This is the measurement layer of the laboratory.  A solved flow (from the
grid solver) is reduced to a handful of scalar quantities per node — the time
speed ``du/dt`` and the directional components of the transformed Hessian W —
and their oscillations are measured over a shrinking ladder of parabolic
cylinders.  A power-law fit of the ladder gives an empirical decay exponent;
the exponent is *fit, never asserted against a target*, because no closed
form for it exists.  The module also implements the parabolic rescaling
``v(x, t) = u(mu x, mu^2 t) / mu^2`` exactly on expression trees and on grid
fields, and a rigidity probe that quantifies how close a steady solution's W
is to a constant matrix with unit determinant.

A parabolic cylinder Q((w, s), R) is the set of space-time points with
``max(|x - w|_inf, sqrt(s - t)) < R`` and ``t <= s``: a sup-norm spatial ball
around ``w`` times the half-open time window ``(s - R^2, s]`` ending at
``s``.  The backward-shifted copy Theta(R) is the same cylinder centered at
time ``s - 4 R^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations_with_replacement
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateLadder,
    DimensionMismatch,
    DomainExceeded,
    EmptyCylinder,
    IllConditioned,
    TmaError,
)
from .jets import ExpressionSpec, evaluate_jet, substitute, wirtinger_from_real
from .solver import (
    BoxGrid,
    FlowField,
    FrozenFrame,
    _Stencil,
    _require_membership,
)
from .twistedops import eval_H

__all__ = [
    "CylinderSpec",
    "FieldQuantities",
    "FitReport",
    "HarnackRecord",
    "LadderReport",
    "OSCILLATION_CSV_HEADER",
    "RescaleReport",
    "RigidityReport",
    "cylinder_oscillation",
    "discrete_w_entries",
    "flow_quantities",
    "holder_exponent_fit",
    "oscillation_csv_rows",
    "oscillation_ladder",
    "parabolic_rescale",
    "parabolic_rescale_field",
    "rescale_report",
    "rigidity_probe",
    "third_derivative_norm",
    "weak_harnack_diagnostic",
]


# ---------------------------------------------------------------------------
# parabolic cylinders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderSpec:
    """A parabolic cylinder Q((w, s), R) with a shrinking radius ladder.

    ``ladder`` must be strictly decreasing with every entry in ``(0, R]``;
    it defaults to ``(R, R/2, R/4, R/8)``.
    """

    center: Tuple[float, ...]
    time: float
    radius: float
    ladder: Tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0.0):
            raise TmaError(f"cylinder radius must be positive, got {self.radius}")
        ladder = tuple(float(r) for r in self.ladder)
        if not ladder:
            ladder = tuple(self.radius / 2**j for j in range(4))
        object.__setattr__(self, "ladder", ladder)
        for rho in ladder:
            if not (0.0 < rho <= self.radius):
                raise TmaError(
                    f"ladder radius {rho} outside (0, {self.radius}]"
                )
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise TmaError(f"ladder must be strictly decreasing, got {ladder}")

    def sub(self, rho: float) -> "CylinderSpec":
        """The concentric sub-cylinder Q((w, s), rho)."""
        if not (0.0 < rho <= self.radius):
            raise TmaError(f"sub-cylinder radius {rho} outside (0, {self.radius}]")
        return CylinderSpec(self.center, self.time, rho, ladder=(rho,))

    def shifted(self) -> "CylinderSpec":
        """The backward-shifted cylinder Theta(R), centered at time s - 4R^2.

        Its time window (s - 5R^2, s - 4R^2] lies strictly earlier than the
        window of Q((w, s), R).
        """
        return CylinderSpec(
            self.center, self.time - 4.0 * self.radius**2, self.radius,
            ladder=(self.radius,),
        )


# ---------------------------------------------------------------------------
# field quantities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldQuantities:
    """Scalar measurement channels of a run, sampled on (a crop of) the grid.

    ``values[name]`` has shape ``(len(times),) + spatial shape``, where the
    spatial shape matches the coordinate arrays in ``axes``.  Instances are
    NaN-free: crops exclude boundary frames.
    """

    axes: Tuple[np.ndarray, ...]
    times: np.ndarray
    values: Dict[str, np.ndarray]

    def __post_init__(self):
        shape = tuple(len(ax) for ax in self.axes)
        nt = len(self.times)
        for name, arr in self.values.items():
            if arr.shape != (nt,) + shape:
                raise DimensionMismatch(
                    f"quantity {name!r} has shape {arr.shape}, expected {(nt,) + shape}"
                )

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self.values)


def _w_scalar_parts(z: np.ndarray, conc: np.ndarray, m: Tuple[np.ndarray, ...]):
    """Per-node W data on the interior: ``(w00, w01 parts, w11)``.

    ``z`` and ``conc`` are the convex and negated concave block fields, ``m``
    the parts of the mixed slot derivative (see :meth:`tma.solver._Stencil.mixed`).
    With ``V = -conc`` the Hermitian 2x2 transformed Hessian has entries
    ``w00 = Z - |M|^2/V``, ``w01 = M/V`` (part by part) and ``w11 = -1/V``; on
    the real carrier these are ``u_xx - u_xy^2/u_yy``, ``u_xy/u_yy`` and
    ``-1/u_yy``.
    """
    v = -conc
    if float(np.abs(v).min()) < 1e-12:
        kind = "complex second derivative" if len(m) > 1 else "second derivative"
        raise IllConditioned(f"concave-block {kind} vanishes on a node")
    return z - reduce(add, [p * p for p in m]) / v, tuple(p / v for p in m), -1.0 / v


def _directional_values(z: np.ndarray, conc: np.ndarray,
                        m: Tuple[np.ndarray, ...]) -> Dict[str, np.ndarray]:
    """The quadratic form of W along the unit-direction family.

    Directions are the coordinate axes, their normalized sums and
    differences, and (when ``M`` has an imaginary part) the imaginary
    combinations; for a Hermitian W the values are ``w00``, ``w11``,
    ``(w00+w11)/2 +- Re w01`` and ``(w00+w11)/2 -+ Im w01``.
    """
    w00, w01, w11 = _w_scalar_parts(z, conc, m)
    mean = 0.5 * (w00 + w11)
    out = {"w_e1": w00, "w_e2": w11, "w_plus": mean + w01[0], "w_minus": mean - w01[0]}
    if len(w01) > 1:
        out["w_iplus"] = mean - w01[1]
        out["w_iminus"] = mean + w01[1]
    return out


def _crop_slices(grid: BoxGrid, center: Optional[Sequence[float]],
                 radius: Optional[float]) -> Tuple[Tuple[slice, ...], Tuple[np.ndarray, ...]]:
    if (center is None) != (radius is None):
        raise TmaError("a crop needs both a center and a radius, or neither")
    if center is not None and len(center) != grid.dim:
        raise DimensionMismatch(f"crop center has {len(center)} coordinates, the grid has {grid.dim} axes")
    axes = grid.axes()
    crops = []
    cropped_axes = []
    for a, (ax, inner) in enumerate(zip(axes, grid.interior)):
        lo, hi = inner.start, inner.stop
        if center is not None:
            lo = max(lo, int(np.searchsorted(ax, center[a] - radius, side="left")))
            hi = min(hi, int(np.searchsorted(ax, center[a] + radius, side="right")))
        if hi <= lo:
            where = f"within {radius} of {center[a]}" if center is not None else "available"
            raise EmptyCylinder(f"axis {a}: no interior nodes {where}")
        crops.append(slice(lo, hi))
        cropped_axes.append(ax[lo:hi])
    return tuple(crops), tuple(cropped_axes)


def flow_quantities(
    field: FlowField,
    center: Optional[Sequence[float]] = None,
    radius: Optional[float] = None,
) -> FieldQuantities:
    """Extract the measurement channels of every stored slice of a run: time speed and W directions.

    ``center``/``radius`` crop the spatial sampling to the box of that
    sup-norm ball (intersected with the interior); by default the full
    interior is kept.

    Each slice is class-checked (with margin) on the whole interior, which
    needs only the diagonal second differences.  Everything else, the mixed
    differences, the time speed and the W channels, is computed on the crop
    alone, reading one ghost layer around it; the values equal the crop of
    the uncropped call bit for bit.  Beyond the returned arrays, memory is a
    few interior-shaped buffers reused from slice to slice.  The
    ``IllConditioned`` guard of the W entries sees only the crop, but it
    cannot fire there: the class check has already bounded the concave
    block away from zero by a margin above the guard's threshold.
    """
    crops, axes = _crop_slices(field.grid, center, radius)
    # the same crop on interior-shaped arrays
    inner = tuple(slice(c.start - field.grid.frame, c.stop - field.grid.frame) for c in crops)
    stencil = _Stencil(field)
    values: Dict[str, np.ndarray] = {}
    for j, u in enumerate(field.slices):
        # the stage layout indexes interior nodes as the interior does, so ``inner`` crops it too
        conv, conc = stencil.load(u).stage_blocks()
        _require_membership(conv, conc, "time-speed evaluation")
        # contiguous, as in the uncropped call: a SIMD log may take another path on strided input
        conv, conc = np.ascontiguousarray(conv[inner]), np.ascontiguousarray(conc[inner])
        m = stencil.mixed(inner)
        channels = {"time_speed": np.log(conv) - np.log(conc),
                    **_directional_values(conv, conc, m)}
        for name, arr in channels.items():
            if j == 0:
                values[name] = np.empty((len(field.slices),) + arr.shape)
            values[name][j] = arr
    times = np.asarray(field.times, dtype=float)
    return FieldQuantities(axes=axes, times=times, values=values)


# ---------------------------------------------------------------------------
# oscillation over cylinders
# ---------------------------------------------------------------------------


def _cylinder_selection(q: FieldQuantities, cyl: CylinderSpec):
    """Time indices and spatial mask of the samples inside the cylinder."""
    if len(cyl.center) != len(q.axes):
        raise DimensionMismatch(
            f"cylinder center has {len(cyl.center)} coordinates, "
            f"samples have {len(q.axes)} axes"
        )
    s, r = cyl.time, cyl.radius
    tmask = (q.times > s - r * r) & (q.times <= s)
    if not tmask.any():
        raise EmptyCylinder(
            f"no snapshot times in ({s - r * r}, {s}]"
        )
    spatial = np.ones(tuple(len(ax) for ax in q.axes), dtype=bool)
    for a, ax in enumerate(q.axes):
        inside = np.abs(ax - cyl.center[a]) < r
        shape = [1] * len(q.axes)
        shape[a] = len(ax)
        spatial &= inside.reshape(shape)
    if not spatial.any():
        raise EmptyCylinder(
            f"no grid nodes in the radius-{r} ball around {cyl.center}"
        )
    return np.nonzero(tmask)[0], spatial


def cylinder_oscillation(q: FieldQuantities, cyl: CylinderSpec) -> Dict[str, float]:
    """Oscillation (sup - inf) of every quantity over the cylinder's samples.

    Deterministic: the same samples always give the same values.  Raises
    :class:`EmptyCylinder` when no sampled node or snapshot falls inside.
    """
    tidx, spatial = _cylinder_selection(q, cyl)
    out = {}
    for name in q.names:
        vals = q.values[name][tidx][:, spatial]
        out[name] = float(vals.max() - vals.min())
    return out


# ---------------------------------------------------------------------------
# decay-exponent fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitReport:
    """Power-law fit of an oscillation ladder.

    ``alpha`` is the least-squares slope of log(osc) against log(rho) — the
    empirical decay exponent; ``residual`` is the root-mean-square misfit of
    the log values.  A degenerate ladder (some oscillation not strictly
    positive) is reported as perfect decay: ``alpha = inf`` with the
    ``degenerate`` flag set instead of a fit.
    """

    alpha: float
    residual: float
    degenerate: bool
    intercept: float = math.nan


def holder_exponent_fit(rhos: Sequence[float], oscillations: Sequence[float]) -> FitReport:
    """Fit ``osc ~ C * rho^alpha`` on a ladder of at least three points."""
    rhos = np.asarray(rhos, dtype=float)
    oscs = np.asarray(oscillations, dtype=float)
    if rhos.shape != oscs.shape or rhos.ndim != 1:
        raise DimensionMismatch(
            f"ladder shapes disagree: {rhos.shape} radii, {oscs.shape} oscillations"
        )
    if len(rhos) < 3:
        raise DegenerateLadder(
            f"need at least 3 ladder points for a fit, got {len(rhos)}"
        )
    if (rhos <= 0).any():
        raise DegenerateLadder("ladder radii must be positive")
    if (oscs <= 0).any():
        return FitReport(alpha=math.inf, residual=0.0, degenerate=True)
    coeffs, residuals, *_ = np.polyfit(np.log(rhos), np.log(oscs), 1, full=True)
    ssr = float(residuals[0]) if len(residuals) else 0.0
    return FitReport(
        alpha=float(coeffs[0]),
        residual=math.sqrt(ssr / len(rhos)),
        degenerate=False,
        intercept=float(coeffs[1]),
    )


@dataclass(frozen=True)
class LadderReport:
    """Oscillations of every quantity over a cylinder's radius ladder.

    ``per_quantity[name][i]`` is the oscillation over the sub-cylinder of
    radius ``rhos[i]``; ``totals[i]`` sums the time-speed oscillation and all
    W-direction oscillations at that radius (the ladder quantity the decay
    argument contracts).  ``fits`` holds one power-law fit per quantity plus
    one for ``"total"``.
    """

    cylinder: CylinderSpec
    rhos: Tuple[float, ...]
    per_quantity: Dict[str, Tuple[float, ...]]
    totals: Tuple[float, ...]
    fits: Dict[str, FitReport]


def oscillation_ladder(q: FieldQuantities, cyl: CylinderSpec) -> LadderReport:
    """Measure every quantity's oscillation over the cylinder ladder and fit decay."""
    if len(cyl.ladder) < 3:
        raise DegenerateLadder(
            f"ladder needs at least 3 radii for a fit, got {len(cyl.ladder)}"
        )
    per: Dict[str, List[float]] = {name: [] for name in q.names}
    totals: List[float] = []
    for rho in cyl.ladder:
        oscs = cylinder_oscillation(q, cyl.sub(rho))
        for name in q.names:
            per[name].append(oscs[name])
        totals.append(sum(oscs.values()))
    fits = {
        name: holder_exponent_fit(cyl.ladder, vals) for name, vals in per.items()
    }
    fits["total"] = holder_exponent_fit(cyl.ladder, totals)
    return LadderReport(
        cylinder=cyl,
        rhos=tuple(cyl.ladder),
        per_quantity={name: tuple(vals) for name, vals in per.items()},
        totals=tuple(totals),
        fits=fits,
    )


#: column order of the oscillation-ladder CSV contract
OSCILLATION_CSV_HEADER = (
    "cylinder_id", "rho", "quantity", "osc", "alpha_fit", "fit_residual",
)


def oscillation_csv_rows(reports: Sequence[LadderReport]) -> List[tuple]:
    """Ladder reports flattened to rows matching :data:`OSCILLATION_CSV_HEADER`.

    Report ``i`` is cylinder ``cyl{i}``.  Quantity rows appear in channel
    order followed by the ``total`` rows; each row repeats its quantity's
    fitted exponent and residual.
    """
    rows = []
    for i, rep in enumerate(reports):
        ordered = list(rep.per_quantity) + ["total"]
        for name in ordered:
            vals = rep.totals if name == "total" else rep.per_quantity[name]
            fit = rep.fits[name]
            for rho, osc in zip(rep.rhos, vals):
                rows.append((f"cyl{i}", rho, name, osc, fit.alpha, fit.residual))
    return rows


# ---------------------------------------------------------------------------
# parabolic rescaling
# ---------------------------------------------------------------------------


def _rescale_node(node: dict, mu: float, n: int) -> dict:
    """The expression tree of ``mu^-2 * node(mu x)`` over n coordinates, folded where exact.

    Quadratic nodes absorb the rescaling exactly (matrix unchanged, linear
    over mu, constant over mu^2); sums distribute; atoms and products keep an
    explicit outer scale with their arguments stretched.
    """
    kind = node["kind"]
    if kind == "quad":
        return {
            "kind": "quad",
            "matrix": [list(row) for row in node["matrix"]],
            "linear": [v / mu for v in node["linear"]],
            "constant": node["constant"] / (mu * mu),
        }
    if kind == "sum":
        return {"kind": "sum", "terms": [_rescale_node(t, mu, n) for t in node["terms"]]}
    if kind == "scale":
        return {
            "kind": "scale",
            "coefficient": node["coefficient"],
            "term": _rescale_node(node["term"], mu, n),
        }
    return {"kind": "scale", "coefficient": mu**-2, "term": substitute(node, [mu] * n)}


def parabolic_rescale(spec: ExpressionSpec, mu: float) -> ExpressionSpec:
    """The parabolically rescaled description ``v(x, t) = u(mu x, mu^2 t)/mu^2``.

    The time drift is invariant (``mu^-2 * drift * mu^2 t``), purely
    quadratic descriptions are fixed exactly, and the valid domain shrinks to
    ``halfwidth / mu``.  ``mu = 1`` returns the description unchanged.
    """
    if not (mu > 0.0):
        raise TmaError(f"rescaling factor must be positive, got {mu}")
    if mu == 1.0:
        return spec
    hw = spec.domain_halfwidth
    return ExpressionSpec(
        expr=_rescale_node(spec.expr, mu, spec.nvars),
        k=spec.k,
        l=spec.l,
        flavor=spec.flavor,
        time_drift=spec.time_drift,
        domain_halfwidth=hw / mu if math.isfinite(hw) else hw,
    )


def parabolic_rescale_field(field: FlowField, mu: float) -> FlowField:
    """Exact parabolic rescaling of a grid run: geometry and values together.

    Node ``x`` of the new grid sits at ``x = x_old / mu``, snapshot times
    divide by ``mu^2``, and values by ``mu^2`` — no interpolation, so the
    rescaled run represents ``v(x, t) = u(mu x, mu^2 t)/mu^2`` exactly on its
    own grid.
    """
    if not (mu > 0.0):
        raise TmaError(f"rescaling factor must be positive, got {mu}")
    grid, scale = field.grid, mu * mu
    new_grid = BoxGrid(
        tuple(v / mu for v in grid.lo),
        tuple(v / mu for v in grid.hi),
        grid.shape,
        grid.frame,
    )
    # a periodic base's curvatures are invariant under the rescaling, like any pure quadratic
    policy = field.policy
    if isinstance(policy, FrozenFrame):
        policy = FrozenFrame(parabolic_rescale(policy.spec, mu))
    return FlowField(new_grid, policy, field.dt / scale, [u / scale for u in field.slices],
                     [t / scale for t in field.times])


def third_derivative_norm(spec: ExpressionSpec, point: Optional[Sequence[float]] = None) -> float:
    """Frobenius norm of the full symmetric third-derivative tensor at a point."""
    n = spec.nvars
    if point is None:
        point = (0.0,) * n
    jet = evaluate_jet(spec, point, order=3)
    total = 0.0
    for combo in combinations_with_replacement(range(n), 3):
        beta = [0] * n
        for i in combo:
            beta[i] += 1
        mult = math.factorial(3)
        for b in beta:
            mult //= math.factorial(b)
        total += mult * jet.d(tuple(beta)) ** 2
    return math.sqrt(total)


def _h_residual(spec: ExpressionSpec, point: Sequence[float]) -> float:
    jet = evaluate_jet(spec, point, order=2)
    if spec.flavor == "complex":
        return eval_H(wirtinger_from_real(jet))
    return eval_H(jet)


@dataclass(frozen=True)
class RescaleReport:
    """Scaling behavior of one description under parabolic rescaling.

    ``ratio`` is the rescaled-to-base third-derivative norm ratio (exactly
    ``mu`` in exact arithmetic); the two residuals are the parabolic defect
    ``du/dt - F(u)`` of base and rescaled descriptions at corresponding
    points, which the rescaling preserves identically.
    """

    mu: float
    base_norm: float
    scaled_norm: float
    ratio: float
    base_residual: float
    scaled_residual: float


def rescale_report(
    spec: ExpressionSpec,
    mu: float,
    point: Optional[Sequence[float]] = None,
) -> RescaleReport:
    """Measure the third-derivative scaling and residual preservation at a point.

    The rescaled description is evaluated at ``point`` and the base one at the
    pulled-back point ``mu * point``; the pullback must stay inside the base
    description's valid domain, else :class:`DomainExceeded`.  Neither
    measurement depends on the time: a description's time dependence is its
    linear drift, which the rescaling preserves.
    """
    n = spec.nvars
    if point is None:
        point = (0.0,) * n
    pulled = tuple(mu * c for c in point)
    if not spec.in_domain(pulled):
        raise DomainExceeded(
            f"pulled-back point {pulled} leaves the valid domain "
            f"(halfwidth {spec.domain_halfwidth})"
        )
    scaled = parabolic_rescale(spec, mu)
    base_norm = third_derivative_norm(spec, pulled)
    scaled_norm = third_derivative_norm(scaled, point)
    return RescaleReport(
        mu=mu,
        base_norm=base_norm,
        scaled_norm=scaled_norm,
        ratio=scaled_norm / base_norm if base_norm else math.nan,
        base_residual=_h_residual(spec, pulled),
        scaled_residual=_h_residual(scaled, point),
    )


# ---------------------------------------------------------------------------
# rigidity probe
# ---------------------------------------------------------------------------


def discrete_w_entries(field: FlowField) -> Dict[str, np.ndarray]:
    """Real scalar channels of the transformed Hessian of the latest slice, on the interior.

    Real flavor: ``w00``, ``w01``, ``w11``.  Complex flavor: ``w00``,
    ``w01_re``, ``w01_im``, ``w11`` (the Hermitian off-diagonal split into
    real and imaginary parts).
    """
    stencil = _Stencil(field).load(field.slices[-1])
    w00, w01, w11 = _w_scalar_parts(*stencil.blocks(), stencil.mixed())
    names = ("w01",) if len(w01) == 1 else ("w01_re", "w01_im")
    return {"w00": w00, **dict(zip(names, w01)), "w11": w11}


@dataclass(frozen=True)
class RigidityReport:
    """How far a steady solution is from having a constant, unit-determinant W.

    ``det_deviation`` is ``sup |det W - 1|`` over interior nodes — for any
    field this equals ``sup |exp(F) - 1|``, so it is bounded by the steady
    residual; ``entry_variation`` is the largest (sup - inf) among the W
    entry channels, the quantity that must vanish for an exactly quadratic
    solution.
    """

    det_deviation: float
    entry_variation: float
    n_nodes: int


def rigidity_probe(field: FlowField) -> RigidityReport:
    """Probe the latest slice of a (supposed) steady solution for quadratic rigidity."""
    entries = discrete_w_entries(field)
    mixed = [arr ** 2 for name, arr in entries.items() if name.startswith("w01")]
    det = entries["w00"] * entries["w11"] - reduce(add, mixed)
    det_dev = float(np.abs(det - 1.0).max())
    variation = max(float(arr.max() - arr.min()) for arr in entries.values())
    return RigidityReport(
        det_deviation=det_dev,
        entry_variation=variation,
        n_nodes=int(det.size),
    )


# ---------------------------------------------------------------------------
# optional weak-Harnack diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarnackRecord:
    """Recorded (never asserted) comparison of an integral mean with an infimum.

    ``mean_power`` is ``(R^(-n-2) * integral over Theta(R) of q^p)^(1/p)``
    computed by sample-mean quadrature; ``infimum`` is ``inf over Q(R)`` of
    the same quantity; ``ratio`` their quotient (inf if the infimum is not
    positive).
    """

    quantity: str
    p: float
    mean_power: float
    infimum: float
    ratio: float


def weak_harnack_diagnostic(
    q: FieldQuantities,
    name: str,
    cyl: CylinderSpec,
) -> HarnackRecord:
    """Record the integral-to-pointwise comparison on Theta(R) vs Q(R), with ``p = 2``.

    Purely diagnostic: nothing is asserted.  The measure normalization uses
    the exact cylinder volume ``(2R)^n * R^2``, so the reported value is
    ``(2^n * mean(q^p))^(1/p)`` over the shifted cylinder's samples.
    """
    n = len(q.axes)
    p = 2.0
    tidx, spatial = _cylinder_selection(q, cyl.shifted())
    vals = q.values[name][tidx][:, spatial]
    mean_power = float((2.0**n * np.mean(vals**p)) ** (1.0 / p))
    tidx2, spatial2 = _cylinder_selection(q, cyl)
    infimum = float(q.values[name][tidx2][:, spatial2].min())
    ratio = mean_power / infimum if infimum > 0 else math.inf
    return HarnackRecord(
        quantity=name, p=p, mean_power=mean_power, infimum=infimum, ratio=ratio
    )
