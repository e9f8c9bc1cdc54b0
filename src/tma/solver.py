"""Finite-difference flows, elliptic solves, and measurement-grade snapshots.

The exact-jet layers certify pointwise identities; this module supplies the
other half of the laboratory: actual grid dynamics.  It advances the parabolic
flow ``du/dt = F(u)`` (explicit RK4 or a semi-implicit lagged-coefficient
scheme), solves the steady equation ``F(u) = target`` by a damped Newton
iteration, monitors class membership (convex block positive definite, concave
block negative definite, with quantitative bounds) along runs, estimates
convergence orders, and writes field snapshots in text or binary form for the
oscillation-measurement layer.

The two sparse linear solves differ.  The semi-implicit step's system
``I - dt*L`` is strictly diagonally dominant and is solved iteratively by
Jacobi-preconditioned BiCGSTAB; a solve that misses its tolerance raises
:class:`NoConvergence` instead of returning an unconverged step.  Each Newton
step solves the linearized operator ``L`` itself by a direct sparse LU
factorization.

Each grid flavor carries one convex and one concave slot on a real grid:
even axes carry the convex slot, odd axes the concave slot, and a slot's
second derivative is the slot weight (1 or 1/4) times the sum of the pure
second differences along its axes.  The flow value is
``F = log(convex slot) - log(-concave slot)``.

``"real"``
    a 2-D grid ``[x, y]``, weight 1: ``F = log u_xx - log(-u_yy)``.

``"complex11"``
    a 4-D grid ``[X_z, X_w, Y_z, Y_w]`` (real parts first), weight 1/4: the
    slots are the complex second derivatives ``u_{z zbar}`` and ``u_{w wbar}``.

Grids are *framed* (a frozen frame of ``frame`` node layers carries boundary
values from an analytic description, refreshed at every stage time) or
*periodic* (``frame = 0``), where the evolving part is periodic atop a fixed
diagonal quadratic base.  All spatial derivatives are second-order centered
differences, computed on the interior only: each stencil reads one ghost
layer, which is the innermost frame layer on framed grids and a one-layer
wrap of ``u - base`` on periodic ones.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import bicgstab, splu

from .errors import (
    CFLViolation,
    ClassExit,
    DimensionMismatch,
    DomainViolation,
    NoConvergence,
    TmaError,
)
from .jets import ExpressionSpec, _node_jet, evaluate_hessians

__all__ = [
    "BoxGrid",
    "ClassSeries",
    "FlowField",
    "FrozenFrame",
    "OrderEstimate",
    "PeriodicBase",
    "discrete_hessian",
    "discrete_time_speed",
    "evaluate_on_grid",
    "flow_from_spec",
    "flow_from_values",
    "hessian_error",
    "monitor_class",
    "periodic_base_for",
    "perturbed_flow_spec",
    "read_snapshot_csv",
    "read_snapshot_json",
    "reference_flow_spec",
    "run_flow",
    "solve_elliptic",
    "spatial_order_estimate",
    "step_parabolic",
    "time_order_estimate",
    "write_snapshot_csv",
    "write_snapshot_json",
]

#: grid flavor -> (grid dimension, spec flavor, slot weight); see the module docstring
_CARRIERS = {"real": (2, "real", 1.0), "complex11": (4, "complex", 0.25)}

FLAVORS = tuple(_CARRIERS)

#: the second differences the slot fields read: the diagonal, then ``u_{z wbar}``'s pairs
_SLOT_PAIRS = {
    "real": ((0, 0), (1, 1), (0, 1)),
    "complex11": ((0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (2, 3), (0, 3), (1, 2)),
}

#: floor used for the "membership with margin" pre-step check
CLASS_MARGIN = 1e-10

#: constant ``c`` of the explicit stability bound ``dt <= c*h^2*lam/Lam``
CFL_CONSTANT = 0.2


def _carrier(flavor: str) -> Tuple[int, str, float]:
    if flavor not in _CARRIERS:
        raise TmaError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    return _CARRIERS[flavor]


# ---------------------------------------------------------------------------
# grid geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxGrid:
    """Axis-aligned box grid, framed or periodic.

    For a framed grid (``frame >= 1``) the nodes along axis ``a`` are
    ``linspace(lo[a], hi[a], shape[a])`` — both endpoints included — and the
    outermost ``frame`` node layers carry boundary data rather than unknowns.
    For a periodic grid (``frame == 0``) the nodes are
    ``lo[a] + j*(hi[a]-lo[a])/shape[a]`` — ``hi`` exclusive — and every node
    is an unknown.
    """

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]
    shape: Tuple[int, ...]
    frame: int = 2

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if not (len(self.lo) == len(self.hi) == len(self.shape)):
            raise DimensionMismatch(
                f"grid extents and shape disagree: lo has {len(self.lo)}, "
                f"hi has {len(self.hi)}, shape has {len(self.shape)} entries"
            )
        if len(self.shape) == 0:
            raise DimensionMismatch("grid needs at least one axis")
        if self.frame < 0:
            raise TmaError(f"frame width must be >= 0, got {self.frame}")
        for a, (lo, hi, n) in enumerate(zip(self.lo, self.hi, self.shape)):
            if not (hi > lo):
                raise TmaError(f"axis {a}: hi must exceed lo, got [{lo}, {hi}]")
            least = 3 if self.frame == 0 else 2 * self.frame + 3
            if n < least:
                raise TmaError(
                    f"axis {a}: need at least {least} nodes "
                    f"(frame {self.frame}), got {n}"
                )

    # -- basic geometry ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def periodic(self) -> bool:
        return self.frame == 0

    @property
    def spacing(self) -> Tuple[float, ...]:
        if self.periodic:
            return tuple((h - l) / n for l, h, n in zip(self.lo, self.hi, self.shape))
        return tuple((h - l) / (n - 1) for l, h, n in zip(self.lo, self.hi, self.shape))

    def axes(self) -> Tuple[np.ndarray, ...]:
        out = []
        for l, h, n, d in zip(self.lo, self.hi, self.shape, self.spacing):
            if self.periodic:
                out.append(l + d * np.arange(n))
            else:
                out.append(np.linspace(l, h, n))
        return tuple(out)

    def mesh(self) -> Tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def points(self) -> np.ndarray:
        """All node coordinates as an ``(n_nodes, dim)`` array in C order."""
        return np.stack([m.ravel() for m in self.mesh()], axis=-1)

    # -- interior bookkeeping ----------------------------------------------

    @property
    def interior(self) -> Tuple[slice, ...]:
        return tuple(slice(self.frame, n - self.frame) for n in self.shape)

    @property
    def interior_shape(self) -> Tuple[int, ...]:
        return tuple(n - 2 * self.frame for n in self.shape)

    def frame_mask(self) -> np.ndarray:
        mask = np.ones(self.shape, dtype=bool)
        mask[self.interior] = False
        return mask

    def refined(self) -> "BoxGrid":
        """The once-refined grid: spacing halved, same box, node-aligned.

        Coarse node ``i`` coincides with fine node ``2*i`` on every axis, for
        framed and periodic grids alike.
        """
        if self.periodic:
            shape = tuple(2 * n for n in self.shape)
        else:
            shape = tuple(2 * n - 1 for n in self.shape)
        return BoxGrid(self.lo, self.hi, shape, self.frame)


# ---------------------------------------------------------------------------
# vectorized expression evaluation on grids
# ---------------------------------------------------------------------------


def evaluate_on_grid(spec: ExpressionSpec, grid: BoxGrid, time: float = 0.0) -> np.ndarray:
    """Evaluate an analytic description on every node of ``grid`` at ``time``.

    The jet engine of :mod:`tma.jets` runs once at order 0 over the mesh
    arrays of the grid, so the values match ``spec.value(point, time)`` node
    for node, including the linear-in-time drift.  Atom domains are checked
    over the whole grid: a non-positive log argument at any node, or a
    non-positive pow base under an exponent that is not a nonnegative
    integer, raises :class:`DomainViolation`, as does a grid reaching outside
    the declared box.
    """
    if spec.nvars != grid.dim:
        raise DimensionMismatch(
            f"description uses {spec.nvars} coordinates but the grid has {grid.dim}"
        )
    reach = max(max(abs(ax[0]), abs(ax[-1])) for ax in grid.axes())
    if reach > spec.domain_halfwidth:
        raise DomainViolation(
            f"grid reaches coordinate magnitude {reach} but the description "
            f"is only valid up to {spec.domain_halfwidth}"
        )
    out = _node_jet(spec.expr, grid.mesh(), 0)[..., 0]
    if spec.time_drift != 0.0 and time != 0.0:
        out = out + spec.time_drift * time
    return np.asarray(out, dtype=float)


# ---------------------------------------------------------------------------
# boundary policies and the flow field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrozenFrame:
    """Boundary policy: the frame carries exact values of ``spec`` at each time."""

    spec: ExpressionSpec


@dataclass(frozen=True)
class PeriodicBase:
    """Boundary policy: periodic evolution atop a fixed diagonal quadratic base.

    ``coeffs[a]`` is the constant second derivative of the base along axis
    ``a`` (positive on convex axes, negative on concave ones); the base value
    is ``sum_a coeffs[a] * x_a**2 / 2``.  The evolving difference
    ``u - base`` must be periodic on the box.
    """

    coeffs: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def values_on(self, grid: BoxGrid) -> np.ndarray:
        if len(self.coeffs) != grid.dim:
            raise DimensionMismatch(
                f"base has {len(self.coeffs)} axis coefficients, grid has {grid.dim} axes"
            )
        out = np.zeros(grid.shape)
        for c, x in zip(self.coeffs, grid.mesh()):
            out += 0.5 * c * x * x
        return out


BoundaryPolicy = Union[FrozenFrame, PeriodicBase]


@dataclass
class FlowField:
    """A grid, a flavor, a boundary policy, and the time slices of a run.

    ``slices[i]`` holds the nodal values at ``times[i]``; stepping appends.
    ``cfl_log`` records the measured explicit-stability bound at each step
    taken with the explicit scheme.  Instances are treated as immutable:
    stepping operations return a new ``FlowField``.
    """

    grid: BoxGrid
    flavor: str
    policy: BoundaryPolicy
    dt: float
    slices: List[np.ndarray]
    times: List[float]
    cfl_log: List[float] = dc_field(default_factory=list)
    # cached boundary data, filled by the factories
    _frame_vals: Optional[np.ndarray] = dc_field(default=None, repr=False)
    _frame_mask: Optional[np.ndarray] = dc_field(default=None, repr=False)
    _base_vals: Optional[np.ndarray] = dc_field(default=None, repr=False)

    @property
    def latest(self) -> Tuple[float, np.ndarray]:
        return self.times[-1], self.slices[-1]


def flow_from_values(
    values: np.ndarray,
    grid: BoxGrid,
    dt: float,
    flavor: str,
    policy: BoundaryPolicy,
    time: float = 0.0,
) -> FlowField:
    """Wrap explicit nodal values as a single-slice flow field."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise DimensionMismatch(
            f"values have shape {values.shape}, grid has {grid.shape}"
        )
    dim = _carrier(flavor)[0]
    if grid.dim != dim:
        raise DimensionMismatch(f"flavor {flavor!r} needs a {dim}-D grid, got {grid.dim}-D")
    if not (dt >= 0.0):
        raise TmaError(f"timestep must be nonnegative, got {dt}")
    if isinstance(policy, PeriodicBase):
        if not grid.periodic:
            raise TmaError("a periodic-base policy requires a periodic grid (frame == 0)")
        base = policy.values_on(grid)
        f = FlowField(grid, flavor, policy, float(dt), [values.copy()], [float(time)], _base_vals=base)
    elif isinstance(policy, FrozenFrame):
        if grid.periodic:
            raise TmaError("a frozen-frame policy requires a framed grid (frame >= 1)")
        mask = grid.frame_mask()
        frame_at_zero = evaluate_on_grid(policy.spec, grid, time=0.0)[mask]
        f = FlowField(grid, flavor, policy, float(dt), [values.copy()], [float(time)],
                      _frame_vals=frame_at_zero, _frame_mask=mask)
        _apply_frame(f, f.slices[0], float(time))
    else:
        raise TmaError(f"unknown boundary policy {type(policy).__name__}")
    return f


def flow_from_spec(
    spec: ExpressionSpec,
    grid: BoxGrid,
    dt: float,
    policy: Optional[BoundaryPolicy] = None,
    time: float = 0.0,
) -> FlowField:
    """Initialize a flow field by evaluating ``spec`` on the grid.

    On a framed grid the policy defaults to a frozen frame carrying the same
    description (so the initial slice and the boundary agree); on a periodic
    grid an explicit :class:`PeriodicBase` must be supplied.
    """
    if policy is None:
        if grid.periodic:
            raise TmaError(
                "periodic grids need an explicit PeriodicBase policy "
                "(the diagonal quadratic base cannot be inferred)"
            )
        policy = FrozenFrame(spec)
    values = evaluate_on_grid(spec, grid, time=time)
    flavor = _infer_flavor(spec, grid)
    return flow_from_values(values, grid, dt, flavor, policy, time=time)


def _infer_flavor(spec: ExpressionSpec, grid: BoxGrid) -> str:
    """The grid flavor carrying ``spec``'s flavor; it must have one slot each."""
    flavor, (dim, _, _) = next(
        (name, c) for name, c in _CARRIERS.items() if c[1] == spec.flavor)
    if (spec.k, spec.l) != (1, 1) or grid.dim != dim:
        raise DimensionMismatch(
            f"{spec.flavor} grid flows support one convex and one concave direction "
            f"on a {dim}-D grid; got dims ({spec.k}, {spec.l}) on a {grid.dim}-D grid"
        )
    return flavor


def _apply_frame(f: FlowField, u: np.ndarray, t: float) -> None:
    """Refresh the boundary frame of ``u`` in place for time ``t``."""
    if isinstance(f.policy, FrozenFrame):
        u[f._frame_mask] = f._frame_vals + f.policy.spec.time_drift * t


# ---------------------------------------------------------------------------
# centered differences and the flow value
# ---------------------------------------------------------------------------


def _neighbours(grid: BoxGrid, arr: np.ndarray) -> Callable[[dict], np.ndarray]:
    """Interior-shaped views of ``arr``, moved ``steps[a]`` nodes along each axis ``a``.

    The views read one ghost layer around the interior.  On a framed grid
    the frame is that layer; on a periodic grid it is a one-layer wrap of
    ``arr``, copied one axis at a time so that the corners wrap too.
    """
    if grid.periodic:
        g = np.empty(tuple(n + 2 for n in arr.shape), dtype=arr.dtype)
        g[(slice(1, -1),) * arr.ndim] = arr
        for a in range(arr.ndim):
            lead = (slice(None),) * a
            g[lead + (0,)] = g[lead + (-2,)]
            g[lead + (-1,)] = g[lead + (1,)]
        offset = 1
    else:
        g, offset = arr, grid.frame
    shape = grid.interior_shape

    def moved(steps: dict) -> np.ndarray:
        return g[tuple(
            slice(offset + steps.get(a, 0), offset + steps.get(a, 0) + m)
            for a, m in enumerate(shape)
        )]

    return moved


def _second_differences(
    f: FlowField, u: np.ndarray, pairs: Optional[Sequence[Tuple[int, int]]] = None
) -> Dict[Tuple[int, int], np.ndarray]:
    """Centered ``d_a d_b u`` on the interior for each ``(a, b)`` in ``pairs``.

    ``pairs`` defaults to the diagonal ``(a, a)`` of every axis.  Pure
    seconds are ``(u+ + u- - 2u)/h^2``, mixed ones the four-point cross
    ``(u++ - u+- - u-+ + u--)/(4 h_a h_b)``.  On a periodic grid the stencil
    reads ``u - base`` and the base coefficient is added back on the diagonal.
    """
    h = f.grid.spacing
    periodic = isinstance(f.policy, PeriodicBase)
    at = _neighbours(f.grid, u - f._base_vals if periodic else u)
    out = {}
    for a, b in pairs or [(a, a) for a in range(f.grid.dim)]:
        if a == b:
            d = (at({a: 1}) + at({a: -1}) - 2.0 * at({})) / (h[a] * h[a])
            out[a, b] = d + f.policy.coeffs[a] if periodic else d
        else:
            out[a, b] = (
                at({a: 1, b: 1}) - at({a: 1, b: -1}) - at({a: -1, b: 1}) + at({a: -1, b: -1})
            ) / (4.0 * h[a] * h[b])
    return out


def _blocks(flavor: str, d2: Dict[Tuple[int, int], np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar convex-block and (negated) concave-block fields on the interior.

    ``d2`` holds the diagonal second differences; both fields are positive
    wherever the slice is in class.
    """
    if flavor == "real":
        return d2[0, 0], -d2[1, 1]
    return 0.25 * (d2[0, 0] + d2[2, 2]), -0.25 * (d2[1, 1] + d2[3, 3])


def _block_fields(f: FlowField, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The block fields of the slice ``u`` (see :func:`_blocks`)."""
    return _blocks(f.flavor, _second_differences(f, u))


def _slot_fields(
    f: FlowField, u: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
    """The block fields of ``u`` and its mixed slot derivative ``M = u_{z wbar}``.

    ``M`` is a tuple of its parts: the real part, and on the complex carrier
    also the imaginary part.
    """
    d2 = _second_differences(f, u, _SLOT_PAIRS[f.flavor])
    if f.flavor == "real":
        m = (d2[0, 1],)
    else:
        m = (0.25 * (d2[0, 1] + d2[2, 3]), 0.25 * (d2[0, 3] - d2[1, 2]))
    return (*_blocks(f.flavor, d2), m)


def _require_membership(conv: np.ndarray, conc: np.ndarray, where: str,
                        margin: float = CLASS_MARGIN) -> Tuple[float, float]:
    """Check both blocks are definite with margin; return (lam, Lam) measured."""
    cmin, cmax = float(conv.min()), float(conv.max())
    kmin, kmax = float(conc.min()), float(conc.max())
    if cmin <= margin:
        raise ClassExit(
            f"{where}: convex block lost definiteness "
            f"(min second derivative {cmin:.3e} <= margin {margin:.0e})"
        )
    if kmin <= margin:
        raise ClassExit(
            f"{where}: concave block lost definiteness "
            f"(min negated second derivative {kmin:.3e} <= margin {margin:.0e})"
        )
    return min(cmin, kmin), max(cmax, kmax)


def _flow_value(conv: np.ndarray, conc: np.ndarray, where: str) -> np.ndarray:
    """``log(conv) - log(conc)`` on the interior, after the class check with margin."""
    _require_membership(conv, conc, where)
    return np.log(conv) - np.log(conc)


def discrete_time_speed(f: FlowField, index: int = -1) -> np.ndarray:
    """The discrete flow value ``F`` of a stored slice.

    This equals the time speed ``du/dt`` the flow would impose on that slice;
    frame entries are NaN on framed grids.
    """
    out = np.full(f.grid.shape, np.nan)
    out[f.grid.interior] = _flow_value(*_block_fields(f, f.slices[index]),
                                       "time-speed evaluation")
    return out


def discrete_hessian(f: FlowField, index: int = -1) -> np.ndarray:
    """Full centered-difference Hessian of a stored slice.

    Returns an array of shape ``grid.shape + (dim, dim)``; frame entries are
    NaN on framed grids.  Mixed entries use the standard four-point cross.
    """
    d = f.grid.dim
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    out = np.full(f.grid.shape + (d, d), np.nan)
    inner = out[f.grid.interior]
    for (a, b), v in _second_differences(f, f.slices[index], pairs).items():
        inner[..., a, b] = v
        inner[..., b, a] = v
    return out


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def _cfl_bound(f: FlowField, lam: float, Lam: float) -> float:
    h_min = min(f.grid.spacing)
    return CFL_CONSTANT * h_min * h_min * lam / Lam


def _rk4_step(f: FlowField, u: np.ndarray, t: float) -> Tuple[np.ndarray, float]:
    dt = f.dt
    ii = f.grid.interior
    conv, conc = _block_fields(f, u)
    lam, Lam = _require_membership(conv, conc, "explicit step")
    bound = _cfl_bound(f, lam, Lam)
    if dt > bound * (1.0 + 1e-12):
        raise CFLViolation(
            f"timestep {dt:.6e} exceeds the explicit stability bound "
            f"{bound:.6e} = c*h^2*lam/Lam with c = {CFL_CONSTANT}, "
            f"measured lam = {lam:.6e}, Lam = {Lam:.6e}"
        )
    k1 = np.log(conv) - np.log(conc)

    def advanced(kval: np.ndarray, scale: float, t_new: float) -> np.ndarray:
        out = u.copy()
        out[ii] += scale * kval
        _apply_frame(f, out, t_new)
        return out

    u2 = advanced(k1, 0.5 * dt, t + 0.5 * dt)
    k2 = _flow_value(*_block_fields(f, u2), "explicit stage 2")
    u3 = advanced(k2, 0.5 * dt, t + 0.5 * dt)
    k3 = _flow_value(*_block_fields(f, u3), "explicit stage 3")
    u4 = advanced(k3, dt, t + dt)
    k4 = _flow_value(*_block_fields(f, u4), "explicit stage 4")

    unew = u.copy()
    unew[ii] += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    _apply_frame(f, unew, t + dt)
    return unew, bound


def _linearized_gammas(f: FlowField, conv: np.ndarray, conc: np.ndarray) -> List[np.ndarray]:
    """Per-axis coefficients of the linearized operator ``L = sum_a gamma_a d^2_a``.

    Linearizing ``F`` at the current slice gives positive coefficients: the
    slot weight over the convex block on convex axes and over the negated
    concave block on concave axes.
    """
    dim, _, weight = _carrier(f.flavor)
    return [weight / conv, weight / conc] * (dim // 2)


def _operator_matrix(
    f: FlowField, gammas: Sequence[np.ndarray]
) -> Tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
    """Sparse matrix of ``L = sum_a gamma_a d^2_a`` over the unknown nodes.

    The coefficients ``gammas`` are interior-shaped.  Unknowns are the
    interior nodes (framed grids; frame values are data, so stencil legs
    reaching into the frame drop out of the matrix) or all nodes (periodic
    grids, wrapped legs).  Returns the matrix, the flat indices of the
    unknowns in C order, and the per-row sum of dropped leg weights (the
    coupling of each unknown to the frame; all zero on periodic grids).
    """
    grid = f.grid
    n_total = int(np.prod(grid.shape))
    idx = np.arange(n_total).reshape(grid.shape)
    unknowns = idx[grid.interior].ravel()
    m = unknowns.size
    compact = np.full(n_total, -1, dtype=np.int64)
    compact[unknowns] = np.arange(m)
    at = _neighbours(grid, idx)

    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    vals: List[np.ndarray] = []
    diag = np.zeros(m)
    frame_legs = np.zeros(m)
    rows_self = np.arange(m)
    for a, (g, h) in enumerate(zip(gammas, grid.spacing)):
        w = g.ravel() / (h * h)
        diag -= 2.0 * w
        for shift in (1, -1):
            nb = at({a: shift}).ravel()
            cn = compact[nb]
            keep = cn >= 0
            rows.append(rows_self[keep])
            cols.append(cn[keep])
            vals.append(w[keep])
            frame_legs[~keep] += w[~keep]
    rows.append(rows_self)
    cols.append(rows_self)
    vals.append(diag)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m),
    ).tocsc()
    return mat, unknowns, frame_legs


# Relative residual at which the semi-implicit step's linear solve stops.
_SEMI_RTOL = 1e-13


def _semi_implicit_step(f: FlowField, u: np.ndarray, t: float) -> Tuple[np.ndarray, float]:
    """One lagged-coefficient semi-implicit step: ``(I - dt*L_n) du = dt*F_n``.

    The frame increment over the step is known exactly for a frozen frame
    (the boundary values are linear in time), so its stencil coupling moves
    to the right-hand side instead of being lagged.

    ``I - dt*L_n`` is strictly diagonally dominant (``L_n`` has a negative
    diagonal and positive off-diagonals summing to at most its magnitude), so
    the system is solved by Jacobi-preconditioned BiCGSTAB to relative
    residual ``_SEMI_RTOL``; a direct factorization's fill grows too fast to
    be usable on 4-D grids.  Iteration counts grow with ``dt/h^2``: 3-4 on
    13^4 and 17^4 at ``dt = 1e-3``, about 50 and 110 on 129^2 at ``dt`` 1e-3
    and 5e-3.  Every caller in this package steps with ``dt <= 5e-3``; on
    fine 2-D grids at ``dt`` of order one (~270 iterations at 129^2) a direct
    solve would be faster.  A solve that misses the tolerance raises
    :class:`NoConvergence` rather than returning an unconverged increment.
    """
    dt = f.dt
    conv, conc = _block_fields(f, u)
    rhs = dt * _flow_value(conv, conc, "semi-implicit step").ravel()
    lmat, _, frame_legs = _operator_matrix(f, _linearized_gammas(f, conv, conc))
    if isinstance(f.policy, FrozenFrame):
        frame_delta = f.policy.spec.time_drift * dt
        if frame_delta != 0.0:
            rhs += dt * frame_delta * frame_legs
    a_mat = (sp.identity(lmat.shape[0], format="csr") - dt * lmat).tocsr()
    diag = a_mat.diagonal()
    delta, info = bicgstab(
        a_mat, rhs, x0=rhs / diag, rtol=_SEMI_RTOL, atol=0.0,
        maxiter=10 * rhs.size, M=sp.diags(1.0 / diag),
    )
    if info != 0:
        raise NoConvergence(
            f"semi-implicit step at t={t:.6g}: BiCGSTAB did not reach relative "
            f"residual {_SEMI_RTOL:.0e} (info={info})"
        )
    unew = u.copy()
    unew[f.grid.interior] += delta.reshape(f.grid.interior_shape)
    _apply_frame(f, unew, t + dt)
    return unew, math.inf


_STEPPERS: dict = {"rk4": _rk4_step, "semi-implicit": _semi_implicit_step}


def run_flow(
    f: FlowField,
    steps: int,
    scheme: str = "rk4",
    snapshot_every: int = 1,
) -> FlowField:
    """Advance the flow ``steps`` timesteps, storing every ``snapshot_every``-th slice.

    The final slice is always stored.  Each explicit step checks class
    membership (with margin) and the measured stability bound before moving;
    the semi-implicit scheme checks membership only.  The last slice is
    membership-checked after the run so a field that has just left the class
    cannot be returned silently.
    """
    if steps < 1:
        raise TmaError(f"need at least one step, got {steps}")
    if snapshot_every < 1:
        raise TmaError(f"snapshot_every must be >= 1, got {snapshot_every}")
    if scheme not in _STEPPERS:
        raise TmaError(f"unknown scheme {scheme!r}; expected one of {tuple(_STEPPERS)}")
    if f.dt <= 0.0:
        raise TmaError("stepping needs a positive timestep")
    stepper = _STEPPERS[scheme]
    t0 = f.times[-1]
    u = f.slices[-1]
    new_slices = list(f.slices)
    new_times = list(f.times)
    new_log = list(f.cfl_log)
    for n in range(1, steps + 1):
        t_prev = t0 + (n - 1) * f.dt
        u, bound = stepper(f, u, t_prev)
        if scheme == "rk4":
            new_log.append(bound)
        if n % snapshot_every == 0 or n == steps:
            new_slices.append(u)
            new_times.append(t0 + n * f.dt)
    _require_membership(*_block_fields(f, u), "post-step check")
    return dataclasses.replace(f, slices=new_slices, times=new_times, cfl_log=new_log)


def step_parabolic(f: FlowField, scheme: str = "rk4") -> FlowField:
    """Advance the flow by a single timestep (``rk4`` or ``semi-implicit``)."""
    return run_flow(f, 1, scheme=scheme, snapshot_every=1)


# ---------------------------------------------------------------------------
# elliptic solve
# ---------------------------------------------------------------------------


def solve_elliptic(
    boundary: ExpressionSpec,
    grid: BoxGrid,
    guess: Optional[Union[ExpressionSpec, np.ndarray]] = None,
    target: float = 0.0,
    tol: float = 1e-10,
    max_iterations: int = 50,
) -> FlowField:
    """Solve the steady equation ``F(u) = target`` by damped Newton iteration.

    ``boundary`` supplies the frozen frame (evaluated at time 0); the initial
    guess defaults to the boundary description evaluated everywhere.  Each
    Newton step solves the linearized equation on the interior and halves the
    step until the iterate both stays in class and strictly decreases the
    sup-norm residual.  Raises :class:`ClassExit` if the initial guess is out
    of class and :class:`NoConvergence` after ``max_iterations`` Newton steps
    (or when damping stalls).
    """
    if grid.periodic:
        raise TmaError("the elliptic solve needs boundary data: use a framed grid")
    if guess is None:
        values = evaluate_on_grid(boundary, grid, time=0.0)
    elif isinstance(guess, ExpressionSpec):
        values = evaluate_on_grid(guess, grid, time=0.0)
    else:
        values = np.asarray(guess, dtype=float).copy()
    f = flow_from_values(values, grid, 0.0, _infer_flavor(boundary, grid),
                         FrozenFrame(boundary))
    u = f.slices[0]
    ii = grid.interior

    def residual_of(candidate: np.ndarray,
                    where: str) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        conv, conc = _block_fields(f, candidate)
        r = _flow_value(conv, conc, where) - target
        return float(np.abs(r).max()), r, conv, conc

    res, r, conv, conc = residual_of(u, "elliptic initial guess")
    for _ in range(max_iterations):
        if res <= tol:
            return dataclasses.replace(f, slices=[u], times=[0.0])
        lmat, _, _ = _operator_matrix(f, _linearized_gammas(f, conv, conc))
        delta = splu(lmat, permc_spec="MMD_AT_PLUS_A").solve(-r.ravel())
        step = 1.0
        while True:
            cand = u.copy()
            cand[ii] += (step * delta).reshape(grid.interior_shape)
            try:
                res_new, r_new, c_new, k_new = residual_of(cand, "elliptic damping")
            except ClassExit:
                step *= 0.5
                if step < 2.0**-30:
                    raise NoConvergence(
                        "damping stalled: no in-class step decreases the residual"
                    ) from None
                continue
            if res_new < res:
                u, res, r, conv, conc = cand, res_new, r_new, c_new, k_new
                break
            step *= 0.5
            if step < 2.0**-30:
                raise NoConvergence(
                    "damping stalled: no in-class step decreases the residual"
                )
    if res <= tol:
        return dataclasses.replace(f, slices=[u], times=[0.0])
    raise NoConvergence(
        f"Newton iteration did not reach residual {tol:.1e} in "
        f"{max_iterations} steps (final residual {res:.3e})"
    )


# ---------------------------------------------------------------------------
# class monitoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassSeries:
    """Per-slice eigenvalue bounds of both Hessian blocks along a run.

    The convex entries bound the convex block's eigenvalues, the concave
    entries bound the eigenvalues of the *negated* concave block, so class
    membership with constants ``(lower, upper)`` means all four series lie in
    ``[lower, upper]``.  ``first_violation`` is the index of the first slice
    leaving that window (``None`` if none does).
    """

    times: np.ndarray
    convex_min: np.ndarray
    convex_max: np.ndarray
    concave_min: np.ndarray
    concave_max: np.ndarray
    first_violation: Optional[int]


def monitor_class(
    f: FlowField,
    lower: float,
    upper: float,
    tol: float = 1e-9,
) -> ClassSeries:
    """Track block eigenvalue bounds over the stored slices of a run.

    For the supported flavors both Hessian blocks are one-dimensional, so the
    eigenvalue bounds are the extrema of the discrete block fields over the
    interior.  A slice violates the window when any of the four bounds falls
    outside ``[lower - tol, upper + tol]``.
    """
    n = len(f.slices)
    cmin = np.empty(n)
    cmax = np.empty(n)
    kmin = np.empty(n)
    kmax = np.empty(n)
    first: Optional[int] = None
    for i, u in enumerate(f.slices):
        conv, conc = _block_fields(f, u)
        cmin[i], cmax[i] = conv.min(), conv.max()
        kmin[i], kmax[i] = conc.min(), conc.max()
        bad = (
            min(cmin[i], kmin[i]) < lower - tol
            or max(cmax[i], kmax[i]) > upper + tol
        )
        if bad and first is None:
            first = i
    return ClassSeries(np.asarray(f.times, dtype=float), cmin, cmax, kmin, kmax, first)


# ---------------------------------------------------------------------------
# convergence estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderEstimate:
    """A measured convergence order: ``errors[i]`` at refinement level ``i``.

    ``order`` is ``log2`` of the last error ratio; ``ratio`` the ratio itself.
    """

    order: float
    errors: Tuple[float, ...]

    @property
    def ratio(self) -> float:
        return self.errors[-2] / self.errors[-1]


def time_order_estimate(
    f: FlowField,
    total_time: float,
    scheme: str = "rk4",
) -> OrderEstimate:
    """Richardson self-convergence order of the time stepper.

    Runs from the latest slice to ``total_time`` (a multiple of ``f.dt``)
    with timesteps ``dt``, ``dt/2``, ``dt/4`` on the same grid, and compares
    final slices on the interior: for a scheme of order p the successive
    differences shrink by ``2^p``.
    """
    n0 = int(round(total_time / f.dt))
    if n0 < 1 or abs(n0 * f.dt - total_time) > 1e-9 * abs(total_time):
        raise TmaError(
            f"total_time {total_time} is not a positive multiple of dt {f.dt}"
        )
    ii = f.grid.interior
    finals = []
    for level in range(3):
        fl = dataclasses.replace(
            f,
            dt=f.dt / 2**level,
            slices=[f.slices[-1]],
            times=[f.times[-1]],
            cfl_log=[],
        )
        fl = run_flow(fl, n0 * 2**level, scheme=scheme, snapshot_every=n0 * 2**level)
        finals.append(fl.slices[-1][ii])
    d1 = float(np.abs(finals[0] - finals[1]).max())
    d2 = float(np.abs(finals[1] - finals[2]).max())
    if d2 == 0.0:
        raise TmaError(
            "successive refinements agree exactly; the run has no measurable "
            "time error (use a non-stationary initial condition)"
        )
    return OrderEstimate(order=math.log2(d1 / d2), errors=(d1, d2))


def _aligned_samples(grid: BoxGrid, per_axis: int = 7) -> List[Tuple[int, ...]]:
    """Interior node indices, ~``per_axis`` per axis, refinement-aligned."""
    choices = []
    for n in grid.shape:
        lo, hi = grid.frame, n - 1 - grid.frame
        count = min(per_axis, hi - lo + 1)
        choices.append(np.unique(np.linspace(lo, hi, count).round().astype(int)))
    mesh = np.meshgrid(*choices, indexing="ij")
    return [tuple(int(m[idx]) for m in mesh) for idx in np.ndindex(mesh[0].shape)]


def hessian_error(
    spec: ExpressionSpec,
    grid: BoxGrid,
    time: float = 0.0,
    samples: Optional[List[Tuple[int, ...]]] = None,
) -> float:
    """Sup-norm gap between the centered-difference Hessian and the exact one.

    The exact Hessian comes from the analytic jet of ``spec``; the gap is
    maximized over a refinement-aligned sample of interior nodes (all Hessian
    entries, mixed included).
    """
    if grid.periodic:
        policy: BoundaryPolicy = PeriodicBase((0.0,) * grid.dim)
        flavor = _infer_flavor(spec, grid)
        f = flow_from_values(evaluate_on_grid(spec, grid, time), grid, 0.0, flavor, policy)
    else:
        f = flow_from_spec(spec, grid, 0.0, time=time)
    hess = discrete_hessian(f, 0)
    axes = grid.axes()
    if samples is None:
        samples = _aligned_samples(grid)
    points = np.array([[axes[a][i] for a, i in enumerate(idx)] for idx in samples])
    exact = evaluate_hessians(spec, points)
    worst = 0.0
    for idx, ex in zip(samples, exact):
        worst = max(worst, float(np.abs(hess[idx] - ex).max()))
    return worst


def spatial_order_estimate(
    spec: ExpressionSpec,
    grid: BoxGrid,
    time: float = 0.0,
) -> OrderEstimate:
    """Measured spatial order of the discrete Hessian under one refinement.

    Errors are evaluated at the same physical points on the coarse grid and
    its refinement (coarse node ``i`` = fine node ``2i``), so the ratio
    reflects pure stencil error; second-order stencils give a ratio near 4.
    """
    coarse_samples = _aligned_samples(grid)
    fine_samples = [tuple(2 * i for i in idx) for idx in coarse_samples]
    e_coarse = hessian_error(spec, grid, time, samples=coarse_samples)
    e_fine = hessian_error(spec, grid.refined(), time, samples=fine_samples)
    if e_fine == 0.0:
        raise TmaError(
            "discrete Hessian is exact on this description (polynomial of "
            "degree <= 2?); spatial order is not measurable"
        )
    return OrderEstimate(order=math.log2(e_coarse / e_fine), errors=(e_coarse, e_fine))


# ---------------------------------------------------------------------------
# snapshot input/output
# ---------------------------------------------------------------------------


def _snapshot_meta(f: FlowField, index: int) -> dict:
    return {
        "format": "flow-snapshot",
        "flavor": f.flavor,
        "time": f.times[index],
        "dt": f.dt,
        "lo": list(f.grid.lo),
        "hi": list(f.grid.hi),
        "shape": list(f.grid.shape),
        "frame": f.grid.frame,
    }


def write_snapshot_csv(f: FlowField, path: str, index: int = -1) -> None:
    """Write one slice as text: node coordinates and value, one node per row.

    Plain RFC-4180 CSV with LF line endings, '.' decimal separator, and 17
    significant digits (floats round-trip exactly).
    """
    coords = f.grid.points()
    values = f.slices[index].ravel()
    d = f.grid.dim
    header = ",".join([f"x{a}" for a in range(d)] + ["u"])
    lines = [header]
    for row, v in zip(coords, values):
        lines.append(",".join(format(c, ".17g") for c in row) + "," + format(v, ".17g"))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshot_csv(path: str) -> Tuple[np.ndarray, np.ndarray]:
    """Read a CSV snapshot back as ``(coordinates, values)`` arrays."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, :-1], data[:, -1]


def write_snapshot_json(
    f: FlowField,
    path: str,
    index: int = -1,
    data_path: Optional[str] = None,
) -> str:
    """Write one slice as JSON metadata plus a flat little-endian float64 file.

    Returns the data-file path (default: ``path`` with a ``.bin`` suffix).
    The array is stored in C order with the grid shape in the metadata.
    """
    if data_path is None:
        data_path = path[: -len(".json")] + ".bin" if path.endswith(".json") else path + ".bin"
    meta = _snapshot_meta(f, index)
    meta["data_file"] = data_path.rsplit("/", 1)[-1]
    meta["dtype"] = "<f8"
    meta["order"] = "C"
    with open(data_path, "wb") as fh:
        fh.write(np.ascontiguousarray(f.slices[index], dtype="<f8").tobytes())
    with open(path, "w", newline="") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return data_path


def read_snapshot_json(path: str) -> Tuple[dict, np.ndarray]:
    """Read a JSON+binary snapshot back as ``(metadata, values)``."""
    with open(path) as fh:
        meta = json.load(fh)
    directory = path.rsplit("/", 1)[0] if "/" in path else "."
    data_path = directory + "/" + meta["data_file"]
    raw = np.fromfile(data_path, dtype="<f8")
    return meta, raw.reshape(tuple(meta["shape"]))


# ---------------------------------------------------------------------------
# ready-made analytic descriptions
# ---------------------------------------------------------------------------


def reference_flow_spec(a: float, b: float, flavor: str = "real") -> ExpressionSpec:
    """The separable quadratic whose flow is exactly linear in time.

    Real flavor: ``u0 = a x^2/2 - b y^2/2``; complex flavor: the analogue
    with convex complex direction scaled by ``a`` and concave by ``b``.  In
    both cases ``F(u0) = log(a/b)`` identically, so the exact flow is
    ``u0 + t log(a/b)``; the returned description carries that drift.
    """
    if a <= 0 or b <= 0:
        raise TmaError(f"need positive block scales, got a = {a}, b = {b}")
    curv = _base_curvatures(a, b, flavor)
    matrix = [[c if i == j else 0.0 for j in range(len(curv))] for i, c in enumerate(curv)]
    expr = {"kind": "quad", "matrix": matrix, "linear": [0.0] * len(curv), "constant": 0.0}
    return ExpressionSpec(expr=expr, k=1, l=1, flavor=_carrier(flavor)[1], time_drift=math.log(a / b))


def _base_curvatures(a: float, b: float, flavor: str) -> Tuple[float, ...]:
    """Axis curvatures giving slots ``a`` and ``-b``: ``(a, -b)`` or ``(2a, -2b, 2a, -2b)``.

    A slot is the weight times the sum of its ``dim/2`` axis curvatures.
    """
    dim, _, weight = _carrier(flavor)
    scale = round(2.0 / (weight * dim))
    return (scale * a, -scale * b) * (dim // 2)


def perturbed_flow_spec(
    a: float,
    b: float,
    eps: float,
    flavor: str = "real",
    modes: Optional[Sequence[Tuple[float, ...]]] = None,
    weights: Optional[Sequence[float]] = None,
) -> ExpressionSpec:
    """The reference quadratic plus trigonometric ripples, no time drift.

    Each mode contributes ``eps * weight * sin(mode . x)``; integer modes make
    the ripple ``2*pi``-periodic, so the description is directly usable atop a
    :class:`PeriodicBase` with the matching quadratic coefficients.
    """
    base = reference_flow_spec(a, b, flavor)
    nvars = base.nvars
    if modes is None:
        modes = ((1.0,) * nvars,)
    if weights is None:
        weights = (1.0,) * len(modes)
    if len(weights) != len(modes):
        raise TmaError(f"{len(modes)} modes but {len(weights)} weights")
    terms: List[dict] = [base.expr]
    for mode, w in zip(modes, weights):
        if len(mode) != nvars:
            raise DimensionMismatch(
                f"mode {mode} has {len(mode)} entries, need {nvars}"
            )
        terms.append(
            {
                "kind": "scale",
                "coefficient": float(eps) * float(w),
                "term": {
                    "kind": "atom",
                    "fn": "sin",
                    "affine": [float(c) for c in mode],
                    "const": 0.0,
                },
            }
        )
    return ExpressionSpec(
        expr={"kind": "sum", "terms": terms},
        k=base.k,
        l=base.l,
        flavor=base.flavor,
        time_drift=0.0,
    )


def periodic_base_for(a: float, b: float, flavor: str = "real") -> PeriodicBase:
    """The periodic-run base matching :func:`reference_flow_spec`'s quadratic."""
    return PeriodicBase(_base_curvatures(a, b, flavor))
