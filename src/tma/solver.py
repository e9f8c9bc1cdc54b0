"""Finite-difference flows, elliptic solves, class monitoring and convergence orders.

The exact-jet layers certify pointwise identities; this module supplies the
other half of the laboratory: actual grid dynamics.  It advances the parabolic
flow ``du/dt = F(u)`` (explicit RK4 or a semi-implicit lagged-coefficient
scheme), solves the steady equation ``F(u) = 0`` by a damped Newton
iteration, monitors class membership (convex block positive definite, concave
block negative definite, with quantitative bounds) along runs, and estimates
convergence orders.

Both linear solves, the semi-implicit step's ``(I - dt*L) du = dt*F`` and
each Newton step's ``L du = -F``, are matrix-free: ``L = sum_a gamma_a d^2_a``
is applied from the stencil, and a restarted GMRES is preconditioned by a
fast transform (the DST-I on framed grids, the FFT on periodic ones) of the
same operator with its coefficients averaged.  At a steady state ``L`` is a
scaled Laplacian, so the preconditioner is nearly exact there: a Newton
solve at 129^2 takes 1, 9, 5, 3 and 2 Krylov iterations in its five steps,
and a semi-implicit step on a quadratic takes one.  A solve that misses its
tolerance raises :class:`NoConvergence` instead of returning an unconverged
step.

Each grid flavor carries one convex and one concave slot on a real grid:
even axes carry the convex slot, odd axes the concave slot, and a slot's
second derivative is the slot weight (1 or 1/4) times the sum of the pure
second differences along its axes.  The flow value is
``F = log(convex slot) - log(-concave slot)``.  A grid's dimension fixes
its flavor, so no factory takes one:

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
import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    CFLViolation,
    ClassExit,
    DimensionMismatch,
    DomainViolation,
    NoConvergence,
    TmaError,
)
from .funclass import base_quadratic, in_class_window
from .jets import ExpressionSpec, _node_jet, coordinate_count, evaluate_hessians, integral

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
    "reference_flow_spec",
    "run_flow",
    "solve_elliptic",
    "spatial_order_estimate",
    "step_parabolic",
    "time_order_estimate",
]

#: grid flavor -> (spec flavor, slot weight); see the module docstring.  A carrier's
#: grid has the coordinates of a (1, 1) spec of its flavor: ``coordinate_count(1, 1, flavor)``
_CARRIERS = {"real": ("real", 1.0), "complex11": ("complex", 0.25)}

FLAVORS = tuple(_CARRIERS)

#: the mixed second differences that ``M = u_{z wbar}`` reads (the blocks read the diagonal)
_MIXED_PAIRS = {"real": ((0, 1),), "complex11": ((0, 1), (2, 3), (0, 3), (1, 2))}

#: floor used for the "membership with margin" pre-step check
CLASS_MARGIN = 1e-10

#: constant ``c`` of the explicit stability bound ``dt <= c*h^2*lam/Lam``
CFL_CONSTANT = 0.2

#: sup-norm residual at which the Newton iteration of :func:`solve_elliptic` stops
NEWTON_TOL = 1e-10

#: Newton steps :func:`solve_elliptic` takes before it gives up
NEWTON_MAX_STEPS = 50


def _carrier(flavor: str) -> Tuple[str, float]:
    if flavor not in _CARRIERS:
        raise TmaError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    return _CARRIERS[flavor]


def _grid_flavor(grid: "BoxGrid") -> str:
    """The flavor that ``grid``'s dimension fixes; raises :class:`DimensionMismatch` if none."""
    for flavor, (spec_flavor, _) in _CARRIERS.items():
        if grid.dim == coordinate_count(1, 1, spec_flavor):
            return flavor
    raise DimensionMismatch(f"no grid flavor of {FLAVORS} runs on a {grid.dim}-D grid")


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
    is an unknown.  Node counts and the frame width are integers (numpy ones
    too, bools not), else :class:`TmaError` names the axis or the field.
    """

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]
    shape: Tuple[int, ...]
    frame: int = 2

    def __post_init__(self):
        counts = [(f"axis {a}: node count", n) for a, n in enumerate(self.shape)] + [("frame width", self.frame)]
        for what, n in counts:
            if not integral(n):
                raise TmaError(f"{what} must be an integer, got {n!r}")
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
            if not (-math.inf < lo < hi < math.inf):
                raise TmaError(f"axis {a}: need finite lo < hi, got [{lo}, {hi}]")
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
    """Boundary policy: the frame carries exact values of ``spec`` at each time.

    :meth:`frame_on` evaluates them once per grid, on first use, at time 0.
    """

    spec: ExpressionSpec
    _frames: Dict[BoxGrid, tuple] = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def frame_on(self, grid: BoxGrid) -> Tuple[np.ndarray, np.ndarray]:
        """``grid``'s frame mask and the values of ``spec`` there at time 0."""
        if grid not in self._frames:
            mask = grid.frame_mask()
            self._frames[grid] = mask, evaluate_on_grid(self.spec, grid)[mask]
        return self._frames[grid]


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
        if not all(map(math.isfinite, self.coeffs)):
            raise TmaError(f"base coefficients must be finite, got {self.coeffs}")

    def _require_axes(self, grid: BoxGrid) -> None:
        """Raise :class:`DimensionMismatch` unless ``grid`` has one axis per coefficient."""
        if len(self.coeffs) != grid.dim:
            raise DimensionMismatch(f"base has {len(self.coeffs)} axis coefficients, grid has {grid.dim} axes")

    def values_on(self, grid: BoxGrid) -> np.ndarray:
        """The base on every node of ``grid``."""
        self._require_axes(grid)
        out = np.zeros(grid.shape)
        for a, (c, x) in enumerate(zip(self.coeffs, grid.axes())):
            out += (0.5 * c * x * x).reshape((-1,) + (1,) * (grid.dim - 1 - a))
        return out


BoundaryPolicy = Union[FrozenFrame, PeriodicBase]


@dataclass(frozen=True)
class FlowField:
    """A grid, a boundary policy, and the time slices of a run.

    ``slices[i]`` holds the nodal values at ``times[i]``; stepping appends.
    ``cfl_log`` records the measured explicit-stability bound at each step
    taken with the explicit scheme.  Instances are frozen: stepping
    operations return a new ``FlowField``.

    Built directly, by a factory or by ``dataclasses.replace``, a field is
    checked by ``__post_init__``; the boundary data come from its policy.
    Unlike :func:`flow_from_values`, direct construction writes no frame.
    """

    grid: BoxGrid
    policy: BoundaryPolicy
    dt: float
    slices: List[np.ndarray]
    times: List[float]
    cfl_log: List[float] = dc_field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "slices", [np.asarray(u, dtype=float) for u in self.slices])
        object.__setattr__(self, "times", [float(t) for t in self.times])
        if len(self.slices) != len(self.times) or not self.slices:
            raise DimensionMismatch(f"a flow field needs one time per slice and at least one slice, "
                                    f"got {len(self.slices)} slices and {len(self.times)} times")
        for u in self.slices:
            if u.shape != self.grid.shape:
                raise DimensionMismatch(f"values have shape {u.shape}, grid has {self.grid.shape}")
        _grid_flavor(self.grid)  # a grid whose dimension fixes no flavor raises here
        if not (0.0 <= self.dt < math.inf):
            raise TmaError(f"timestep must be nonnegative and finite, got {self.dt}")
        object.__setattr__(self, "dt", float(self.dt))
        for i, t in enumerate(self.times):
            if not math.isfinite(t):
                raise TmaError(f"{'start time' if i == 0 else f'time {i}'} must be finite, got {t}")
        if isinstance(self.policy, PeriodicBase):
            if not self.grid.periodic:
                raise TmaError("a periodic-base policy requires a periodic grid (frame == 0)")
            self.policy._require_axes(self.grid)
        elif isinstance(self.policy, FrozenFrame):
            if self.grid.periodic:
                raise TmaError("a frozen-frame policy requires a framed grid (frame >= 1)")
        else:
            raise TmaError(f"unknown boundary policy {type(self.policy).__name__}")

    @property
    def flavor(self) -> str:
        """The grid flavor, fixed by the grid's dimension (see the module docstring)."""
        return _grid_flavor(self.grid)


def flow_from_values(
    values: np.ndarray,
    grid: BoxGrid,
    dt: float,
    policy: BoundaryPolicy,
    time: float = 0.0,
) -> FlowField:
    """Wrap a copy of explicit nodal values as a single-slice flow field, its frame set for ``time``."""
    f = FlowField(grid, policy, dt, [np.array(values, dtype=float)], [time])
    _apply_frame(f, f.slices[0], f.times[0])
    return f


def flow_from_spec(
    spec: ExpressionSpec,
    grid: BoxGrid,
    dt: float,
    policy: Optional[BoundaryPolicy] = None,
) -> FlowField:
    """Initialize a flow field by evaluating ``spec`` on the grid at time 0.

    On a framed grid the policy defaults to a frozen frame carrying the same
    description (so the initial slice and the boundary agree), whose frame
    is read from that one evaluation; on a periodic grid an explicit
    :class:`PeriodicBase` must be supplied.
    """
    if policy is None:
        if grid.periodic:
            raise TmaError(
                "periodic grids need an explicit PeriodicBase policy "
                "(the diagonal quadratic base cannot be inferred)"
            )
        policy = FrozenFrame(spec)
    values = evaluate_on_grid(spec, grid)
    _require_one_slot_each(spec, grid)
    if isinstance(policy, FrozenFrame) and policy.spec is spec and grid not in policy._frames:
        mask = grid.frame_mask()
        policy._frames[grid] = mask, values[mask]
    return flow_from_values(values, grid, dt, policy)


def _require_one_slot_each(spec: ExpressionSpec, grid: BoxGrid) -> None:
    """Check ``spec`` has one convex and one concave direction, of the grid's flavor."""
    dim = coordinate_count(1, 1, spec.flavor)
    if (spec.k, spec.l) != (1, 1) or grid.dim != dim:
        raise DimensionMismatch(
            f"{spec.flavor} grid flows support one convex and one concave direction "
            f"on a {dim}-D grid; got dims ({spec.k}, {spec.l}) on a {grid.dim}-D grid"
        )


def _apply_frame(f: FlowField, u: np.ndarray, t: float) -> np.ndarray:
    """Refresh the boundary frame of ``u`` in place for time ``t``; return ``u``."""
    if isinstance(f.policy, FrozenFrame):
        mask, frame = f.policy.frame_on(f.grid)
        u[mask] = frame + f.policy.spec.time_drift * t
    return u


# ---------------------------------------------------------------------------
# centered differences and the flow value
# ---------------------------------------------------------------------------


def _wrap(g: np.ndarray) -> None:
    """Fill the one-layer ghost frame of ``g`` with a periodic wrap of the rest.

    The layer is copied one axis at a time, so the corners wrap too.
    """
    for a in range(g.ndim):
        lead = (slice(None),) * a
        g[lead + (0,)] = g[lead + (-2,)]
        g[lead + (-1,)] = g[lead + (1,)]


class _Stencil:
    """Centered second differences of one flow's slices and their slots, on buffers kept between calls.

    :meth:`load` makes a slice the one to difference: a *stored* slice (as
    a :class:`FlowField` keeps it) or a *stage* slice (as the RK4 stages
    run it), told apart by shape.  :meth:`blocks` gives the loaded slice's
    convex and negated concave block fields as *stage arrays*, and
    :meth:`crop` gives a contiguous copy of the stored part of a stage
    slice or stage array.  :meth:`differences` writes into buffers kept per
    pair and region shape, so what it, :meth:`blocks` and :meth:`mixed`
    return is overwritten by the next call for the same pair and shape.

    On a framed grid a stage slice is a stored one, grid-shaped and read in
    place, and a stage array holds the interior, read through strided
    views.  On a periodic grid stage slices and stage arrays are in the
    *padded* layout ``(n0, n1+2, ..., n_last+2)``: the ghost buffer's rows
    with their ghost ends, where :meth:`load` writes ``u - base`` and its
    wrap.  :attr:`window` is the ghost buffer's run in that layout, so a
    stage slice advanced into it needs no copy, and each difference over
    the whole interior reads flat runs at offsets of the ghost buffer's
    strides (``+-1`` along the last axis, ``+-(n_last+2)`` along the one
    before).  Entries past an axis' last node are junk: :meth:`blocks`
    overwrites those of the block fields with copies of real values, so a
    min, a max or a log over a whole stage array sees node values only.
    ``stage`` indexes a stage slice's stage-array part, ``inner`` a stage
    array's interior, and :meth:`pad` makes a stage slice of a stored one.
    Framed grids keep strided views: flat runs measured slower there in 4-D.
    """

    def __init__(self, f: FlowField):
        self.flavor = f.flavor
        self.h = f.grid.spacing
        self.shape = f.grid.interior_shape
        self.coeffs = f.policy.coeffs if isinstance(f.policy, PeriodicBase) else None
        self.buffers: Dict[tuple, np.ndarray] = {}
        whole = (slice(None),) * len(self.shape)
        if self.coeffs is None:
            self.offset = f.grid.frame
            self.window = None
            self.stage, self.inner = f.grid.interior, whole
            return
        self.offset = 1
        ghost = tuple(n + 2 for n in self.shape)
        padded = (self.shape[0],) + ghost[1:]
        # flat strides of the ghost buffer, which are the padded layout's too
        self.strides = [math.prod(ghost[a + 1:]) for a in range(len(ghost))]
        self.start = sum(self.strides)  # the first interior node
        # a flat run reads at most strides[0] + strides[1] past the window, so at most
        # start + strides[1] - strides[0] past the ghost buffer: a zero tail of start covers it
        size = math.prod(ghost)
        self.flat = np.zeros(size + self.start)
        self.ghosted = self.flat[:size].reshape(ghost)
        self.window = self.flat[self.start:self.start + math.prod(padded)].reshape(padded)
        self.stage, self.inner = whole, (slice(None),) + tuple(slice(0, n) for n in self.shape[1:])
        self.base = self.pad(f.policy.values_on(f.grid))
        self.runs: Dict[tuple, np.ndarray] = {}  # flat runs of the ghost buffer, by move
        # per axis after the first: its junk entries, and the last node whose value they take
        self.junk = [((slice(None),) * a + (slice(n, None),), (slice(None),) * a + (slice(n - 1, n),))
                     for a, n in enumerate(self.shape) if a > 0]

    def pad(self, u: np.ndarray) -> np.ndarray:
        """The stored slice ``u`` as a stage slice: on a periodic grid a padded copy, junk zero."""
        if self.window is None:
            return u
        out = np.zeros(self.window.shape)
        out[self.inner] = u
        return out

    def crop(self, a: np.ndarray, region: Optional[Tuple[slice, ...]] = None) -> np.ndarray:
        """A contiguous copy of the stored part of ``a``, a stage slice or a stage array.

        That is the stored slice of a stage slice, or the interior of a stage
        array, or its sub-box ``region`` (slices in interior coordinates).
        """
        return a[self.inner if region is None else region].copy()

    def load(self, u: np.ndarray) -> "_Stencil":
        """Make ``u`` the one to difference: a stored or a stage slice, which may be :attr:`window` itself."""
        if self.window is None:
            self.ghosted = u
        else:
            index = self.stage if u.shape == self.window.shape else self.inner
            np.subtract(u, self.base[index], out=self.window[index])
            _wrap(self.ghosted)
        return self

    def _buffer(self, key, shape: Tuple[int, ...]) -> np.ndarray:
        if (key, shape) not in self.buffers:
            self.buffers[key, shape] = np.empty(shape)
        return self.buffers[key, shape]

    def differences(
        self,
        pairs: Optional[Sequence[Tuple[int, int]]] = None,
        region: Optional[Tuple[slice, ...]] = None,
    ) -> Dict[Tuple[int, int], np.ndarray]:
        """Centered ``d_a d_b u`` of the loaded slice for each ``(a, b)`` in ``pairs``.

        ``pairs`` defaults to the diagonal ``(a, a)`` of every axis and
        ``region`` (slices in interior coordinates) to the whole interior;
        the stencil reads one ghost layer around the region.  Pure seconds
        are ``((u+ + u-) - 2u)/h^2``, mixed ones the four-point cross
        ``(((u++ - u+-) - u-+) + u--)/(4 h_a h_b)``; on a periodic grid the
        base coefficient is added back on the diagonal.  ``2u`` is computed
        once per call.

        Without a region on a periodic grid, every operand is one flat run
        of the ghost buffer and the results are in the padded stage layout
        (see the class docstring); otherwise each operand is a strided view
        and the results are region-shaped.
        """
        h = self.h
        if region is None and self.window is not None:
            shape = self.window.shape

            def at(*moves: Tuple[int, int]) -> np.ndarray:
                """The window's run moved ``step`` nodes along ``axis`` for each ``(axis, step)``."""
                if moves not in self.runs:
                    start = self.start + sum(step * self.strides[axis] for axis, step in moves)
                    self.runs[moves] = self.flat[start:start + self.window.size].reshape(shape)
                return self.runs[moves]
        else:
            region = region or tuple(slice(0, m) for m in self.shape)
            shape = tuple(r.stop - r.start for r in region)
            centre = [slice(self.offset + r.start, self.offset + r.stop) for r in region]

            def at(*moves: Tuple[int, int]) -> np.ndarray:
                """The region's view moved ``step`` nodes along ``axis`` for each ``(axis, step)``."""
                index = list(centre)
                for axis, step in moves:
                    index[axis] = slice(centre[axis].start + step, centre[axis].stop + step)
                return self.ghosted[tuple(index)]

        twice = None
        out = {}
        for a, b in pairs or [(a, a) for a in range(len(self.shape))]:
            d = self._buffer((a, b), shape)
            if a == b:
                if twice is None:
                    twice = np.multiply(at(), 2.0, out=self._buffer("twice", shape))
                np.add(at((a, 1)), at((a, -1)), out=d)
                np.subtract(d, twice, out=d)
                np.divide(d, h[a] * h[a], out=d)
                if self.coeffs is not None:
                    np.add(d, self.coeffs[a], out=d)
            else:
                np.subtract(at((a, 1), (b, 1)), at((a, 1), (b, -1)), out=d)
                np.subtract(d, at((a, -1), (b, 1)), out=d)
                np.add(d, at((a, -1), (b, -1)), out=d)
                np.divide(d, 4.0 * h[a] * h[b], out=d)
            out[a, b] = d
        return out

    def blocks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Scalar convex-block and (negated) concave-block fields of the loaded slice, in the stage layout.

        They are computed in place in the buffers of the diagonal
        differences, which the next diagonal :meth:`differences` overwrites.
        Both fields are positive wherever the slice is in class.  On a
        periodic grid their junk entries hold copies of real ones.
        """
        d2 = self.differences()
        if self.flavor == "real":
            conv, conc = d2[0, 0], np.negative(d2[1, 1], out=d2[1, 1])
        else:
            conv = np.add(d2[0, 0], d2[2, 2], out=d2[0, 0])
            conc = np.add(d2[1, 1], d2[3, 3], out=d2[1, 1])
            conv, conc = np.multiply(conv, 0.25, out=conv), np.multiply(conc, -0.25, out=conc)
        if self.window is not None:
            for block in (conv, conc):
                for junk, last in self.junk:
                    block[junk] = block[last]
        return conv, conc

    def mixed(self, region: Optional[Tuple[slice, ...]] = None) -> Tuple[np.ndarray, ...]:
        """The mixed slot derivative ``M = u_{z wbar}`` of the loaded slice on ``region``.

        ``M`` is a tuple of its parts: the real part, and on the complex carrier
        also the imaginary part.
        """
        d2 = self.differences(_MIXED_PAIRS[self.flavor], region)
        if region is None:
            d2 = {pair: d[self.inner] for pair, d in d2.items()}
        if self.flavor == "real":
            return (d2[0, 1],)
        return (0.25 * (d2[0, 1] + d2[2, 3]), 0.25 * (d2[0, 3] - d2[1, 2]))


def _require_membership(conv: np.ndarray, conc: np.ndarray, where: str) -> float:
    """Check both blocks exceed ``CLASS_MARGIN``; return their least value, ``lam``."""
    cmin, kmin = float(conv.min()), float(conc.min())
    if not (cmin > CLASS_MARGIN):  # NaN fails the test too
        raise ClassExit(
            f"{where}: convex block lost definiteness "
            f"(min second derivative {cmin:.3e} <= margin {CLASS_MARGIN:.0e})"
        )
    if not (kmin > CLASS_MARGIN):
        raise ClassExit(
            f"{where}: concave block lost definiteness "
            f"(min negated second derivative {kmin:.3e} <= margin {CLASS_MARGIN:.0e})"
        )
    return min(cmin, kmin)


def _flow_value(conv: np.ndarray, conc: np.ndarray, where: str) -> np.ndarray:
    """``log(conv) - log(conc)`` on the interior, after the class check with margin."""
    _require_membership(conv, conc, where)
    return np.log(conv) - np.log(conc)


def discrete_time_speed(f: FlowField, index: int = -1) -> np.ndarray:
    """The discrete flow value ``F`` of a stored slice.

    This equals the time speed ``du/dt`` the flow would impose on that slice;
    frame entries are NaN on framed grids.
    """
    stencil = _Stencil(f).load(f.slices[index])
    out = np.full(f.grid.shape, np.nan)
    out[f.grid.interior] = _flow_value(*map(stencil.crop, stencil.blocks()), "time-speed evaluation")
    return out


def discrete_hessian(f: FlowField) -> np.ndarray:
    """Full centered-difference Hessian of the latest slice.

    Returns an array of shape ``grid.shape + (dim, dim)``; frame entries are
    NaN on framed grids.  Mixed entries use the standard four-point cross.
    """
    d = f.grid.dim
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    out = np.full(f.grid.shape + (d, d), np.nan)
    nodes = out[f.grid.interior]
    stencil = _Stencil(f).load(f.slices[-1])
    for (a, b), v in stencil.differences(pairs).items():
        nodes[..., a, b] = v[stencil.inner]
        nodes[..., b, a] = v[stencil.inner]
    return out


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def _cfl_bound(f: FlowField, lam: float, Lam: float) -> float:
    h_min = min(f.grid.spacing)
    return CFL_CONSTANT * h_min * h_min * lam / Lam


def _rk4_step(f: FlowField, stencil: _Stencil, u: np.ndarray, t: float) -> Tuple[np.ndarray, float]:
    """One classical RK4 step from the stage slice ``u`` at time ``t``; returns the new one and the CFL bound.

    Slices and stage arrays are in ``stencil``'s stage layout, and the
    stage arrays are stencil buffers.  Each stage speed ``F`` is taken in
    place in the stencil's block fields, and
    ``k1 + 2 k2 + 2 k3 + k4`` is summed stage by stage in that order.  On a
    framed grid stages 2 and 3 share one slice buffer (one frame time), and
    stage 4's slice becomes the new slice (the frame time of both is
    ``t + dt``).  On a periodic grid each stage slice is written straight
    into the ghost window, and all arithmetic runs over whole contiguous
    padded arrays: the junk entries of the block fields are copies of real
    ones, so those of ``k`` and ``total`` are too, and no min, max or log
    reads a value that is not a node's.
    """
    dt = f.dt
    ii = stencil.stage

    def speed(slice_: np.ndarray, where: str, out: np.ndarray) -> None:
        conv, conc = stencil.load(slice_).blocks()
        _require_membership(conv, conc, where)
        np.subtract(np.log(conv, out=conv), np.log(conc, out=conc), out=out)

    # stage 1 also measures the stability bound, before its logs
    conv, conc = stencil.load(u).blocks()
    lam = _require_membership(conv, conc, "explicit step")
    Lam = max(float(conv.max()), float(conc.max()))
    bound = _cfl_bound(f, lam, Lam)
    if dt > bound * (1.0 + 1e-12):
        raise CFLViolation(
            f"timestep {dt:.6e} exceeds the explicit stability bound "
            f"{bound:.6e} = c*h^2*lam/Lam with c = {CFL_CONSTANT}, "
            f"measured lam = {lam:.6e}, Lam = {Lam:.6e}"
        )
    total, k, scaled = (stencil._buffer(key, conv.shape) for key in ("total", "k", "scaled"))
    np.subtract(np.log(conv, out=conv), np.log(conc, out=conc), out=total)  # k1 + 2 k2 + 2 k3 + k4

    def advance(into: np.ndarray, scale: float, kval: np.ndarray) -> np.ndarray:
        np.add(u[ii], np.multiply(kval, scale, out=scaled), out=into[ii])
        return into

    def accumulate(kval: np.ndarray, weight: float) -> None:
        np.add(total, np.multiply(kval, weight, out=scaled), out=total)

    if stencil.window is None:
        half = _apply_frame(f, np.empty_like(u), t + 0.5 * dt)
        stage4 = unew = _apply_frame(f, np.empty_like(u), t + dt)
    else:
        half = stage4 = stencil.window
        unew = np.empty_like(u)
    speed(advance(half, 0.5 * dt, total), "explicit stage 2", k)
    advance(half, 0.5 * dt, k)
    accumulate(k, 2.0)
    speed(half, "explicit stage 3", k)
    advance(stage4, dt, k)
    accumulate(k, 2.0)
    speed(stage4, "explicit stage 4", k)
    np.add(total, k, out=total)
    advance(unew, dt / 6.0, total)
    return unew, bound


def _linearized_gammas(f: FlowField, conv: np.ndarray, conc: np.ndarray) -> List[np.ndarray]:
    """Per-axis coefficients of the linearized operator ``L = sum_a gamma_a d^2_a``.

    Linearizing ``F`` at the current slice gives positive coefficients: the
    slot weight over the convex block on convex axes and over the negated
    concave block on concave axes.
    """
    weight = _carrier(f.flavor)[1]
    return [weight / conv, weight / conc] * (f.grid.dim // 2)


class _Operator:
    """``L = sum_a gamma_a d^2_a`` on the unknown nodes or, given ``dt``, ``I - dt*L``.

    It is applied from the stencil; no matrix is assembled.  The
    coefficients ``gammas`` are interior-shaped, and so are the unknowns: the
    interior nodes of a framed grid, whose frame values are data, so stencil
    legs reaching the frame read zero; or every node of a periodic grid,
    whose legs wrap.  Vectors are flat, in C order.
    """

    def __init__(self, grid: BoxGrid, gammas: Sequence[np.ndarray], dt: Optional[float] = None):
        self.periodic = grid.periodic
        self.shape = grid.interior_shape
        scale = 1.0 if dt is None else -dt
        self.weights = [scale * g / (h * h) for g, h in zip(gammas, grid.spacing)]
        self.diag = -2.0 * sum(self.weights) + (0.0 if dt is None else 1.0)
        self.inner = (slice(1, -1),) * len(self.shape)
        self.ghosted = np.zeros(tuple(n + 2 for n in self.shape))

    def _legs(self, g: np.ndarray) -> np.ndarray:
        """``sum_a w_a (g_{+a} + g_{-a})`` on the interior of the ghosted array ``g``."""
        out = np.zeros(self.shape)
        for a, w in enumerate(self.weights):
            lead, tail = self.inner[:a], self.inner[a + 1:]
            out += w * (g[lead + (slice(2, None),) + tail] + g[lead + (slice(None, -2),) + tail])
        return out

    def _load(self, v: np.ndarray) -> np.ndarray:
        """Write ``v`` into the ghosted buffer (wrapped on periodic grids); return it interior-shaped."""
        v = v.reshape(self.shape)
        self.ghosted[self.inner] = v
        if self.periodic:
            _wrap(self.ghosted)
        return v

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = self._load(v)
        return (self._legs(self.ghosted) + self.diag * v).ravel()

    def bound(self, v: np.ndarray) -> np.ndarray:
        """``|A| |v|``: the scale of the rounding error of computing ``A v``.

        All leg weights share one sign, so the legs of ``|v|`` are ``|A|``'s
        off-diagonal part up to that sign.
        """
        v = self._load(np.abs(v))
        return (np.abs(self._legs(self.ghosted)) + np.abs(self.diag) * v).ravel()

    def frame_coupling(self) -> np.ndarray:
        """Per unknown, the summed weight of its stencil legs that reach the frame.

        Frame data ``c`` adds ``c`` times this to the operator's value; it
        is zero on periodic grids.
        """
        g = np.full(self.ghosted.shape, 0.0 if self.periodic else 1.0)
        g[self.inner] = 0.0
        return self._legs(g).ravel()


@lru_cache(maxsize=None)
def _sine_matrix(n: int) -> np.ndarray:
    """The symmetric DST-I matrix ``S[j, k] = 2 sin(pi j k/(n + 1))``, ``j, k = 1..n``.

    ``j k`` is reduced modulo ``2(n + 1)``, the period of the sine, before it
    is scaled, so every entry is a sine of an angle below ``2 pi``.  Without
    the reduction the transform drifts from the DST-I by 1.8e-14 of its max at
    127^2 and 3.3e-14 at 255^2; with it, by 1.3e-15 or less.
    """
    k = np.arange(1, n + 1)
    return 2.0 * np.sin(math.pi * (np.outer(k, k) % (2 * n + 2)) / (n + 1))


def _sine_transform(x: np.ndarray) -> np.ndarray:
    """The DST-I of ``x`` along every axis, unnormalized (``scipy.fft.dstn(x, type=1)``).

    Each axis is one contraction with :func:`_sine_matrix`, which BLAS
    applies as a matrix product (the fast diagonalization of Lynch, Rice &
    Thomas 1964).  A contraction moves the transformed axis last, so after
    one per axis the axes are back in order.  Along an axis of ``n`` nodes
    ``S^2 = 2(n + 1) I``, so applied twice the transform multiplies by the
    product of the ``2(n + 1)``.
    """
    for n in x.shape:
        x = np.tensordot(x, _sine_matrix(n), axes=(0, 0))
    return x


class _FastPoisson:
    """Fast-transform preconditioner for ``L`` on a framed grid or, given ``dt``, for ``I - dt*L``.

    ``P^{-1} v = T^{-1}(T(v / gbar) / D)``, where ``gbar`` is the pointwise
    mean of the ``gamma_a``, ``T`` the DST-I on framed grids and the FFT on
    periodic ones, and ``D`` the symbol ``Lambda`` of the axis-weighted
    Laplacian ``sum_a c_a d^2_a`` with ``c_a = mean(gamma_a)/mean(gbar)``, or
    ``1/mean(gbar) - dt*Lambda``.  For constant coefficients ``P`` is the
    operator itself.  On a framed grid ``T^{-1}`` is :func:`_sine_transform`
    again, one matrix product per axis each way, with the product of the
    ``2(n + 1)`` folded into ``D``.
    """

    def __init__(self, grid: BoxGrid, gammas: Sequence[np.ndarray], dt: Optional[float] = None):
        self.periodic = grid.periodic
        self.shape = grid.interior_shape
        self.gbar = sum(gammas) / len(gammas)
        mean = float(self.gbar.mean())
        dim = len(self.shape)
        symbol = np.zeros(())
        for a, (g, h, n) in enumerate(zip(gammas, grid.spacing, self.shape)):
            if self.periodic:
                modes = np.arange(n // 2 + 1 if a == dim - 1 else n)
                eig = -4.0 * np.sin(math.pi * modes / n) ** 2 / (h * h)
            else:
                eig = -4.0 * np.sin(0.5 * math.pi * np.arange(1, n + 1) / (n + 1)) ** 2 / (h * h)
            symbol = symbol + (float(g.mean()) / mean) * eig.reshape((-1,) + (1,) * (dim - 1 - a))
        denom = symbol if dt is None else 1.0 / mean - dt * symbol
        if not self.periodic:
            denom = denom * math.prod(2 * n + 2 for n in self.shape)
        self.inverse = 1.0 / denom

    def __call__(self, v: np.ndarray) -> np.ndarray:
        x = v.reshape(self.shape) / self.gbar
        if self.periodic:
            x = np.fft.irfftn(np.fft.rfftn(x) * self.inverse, s=self.shape,
                              axes=range(len(self.shape)))
        else:
            x = _sine_transform(_sine_transform(x) * self.inverse)
        return x.ravel()


#: GMRES restart length of the matrix-free linear solves
_KRYLOV_RESTART = 40

#: Krylov iterations after which a linear solve raises :class:`NoConvergence`
_KRYLOV_MAX_ITERATIONS = 400


def _gmres(
    system: _Operator,
    precondition: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    rtol: float,
    atol: float,
    where: str,
) -> np.ndarray:
    """``x`` with ``||b - A x||_2 <= max(rtol*||b||_2, atol)``, by right-preconditioned GMRES.

    ``system`` is ``A`` and ``precondition`` is ``P^{-1}``, on flat vectors;
    the iteration starts from zero and restarts every ``_KRYLOV_RESTART``
    iterations.  The Arnoldi basis is orthogonalized by classical
    Gram-Schmidt run twice, and the least-squares residual is tracked by
    Givens rotations.  Each cycle ends by computing the true residual, and
    only that is tested: against the tolerance, or against
    ``eps*|| |A| |x| ||_2``, the rounding error of computing it, below which
    no iteration can push it (large ``dt/h^2`` in the semi-implicit step).
    After ``_KRYLOV_MAX_ITERATIONS`` iterations in all, or on a singular
    Krylov system, raises :class:`NoConvergence` naming ``where``.
    """
    norm = np.linalg.norm
    tol = max(rtol * float(norm(b)), atol)
    x = np.zeros_like(b)
    r, beta = b, float(norm(b))
    iterations = 0
    m = _KRYLOV_RESTART
    while beta > tol:
        if iterations >= _KRYLOV_MAX_ITERATIONS:
            raise NoConvergence(
                f"{where}: GMRES did not reach relative residual {rtol:.0e} "
                f"in {iterations} iterations"
            )
        basis = np.empty((m + 1, b.size))
        basis[0] = r / beta
        hess = np.zeros((m + 1, m))
        rotations = np.zeros((m, 2))
        g = np.zeros(m + 1)
        g[0] = beta
        for j in range(m):
            w = system(precondition(basis[j]))
            iterations += 1
            h = basis[:j + 1] @ w
            w -= h @ basis[:j + 1]
            again = basis[:j + 1] @ w
            w -= again @ basis[:j + 1]
            col = hess[:, j]
            col[:j + 1] = h + again
            below = float(norm(w))
            for i, (c, s) in enumerate(rotations[:j]):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            radius = math.hypot(col[j], below)
            if radius == 0.0:
                raise NoConvergence(f"{where}: GMRES met a singular Krylov system")
            c, s = col[j] / radius, below / radius
            rotations[j] = c, s
            col[j] = radius
            g[j + 1], g[j] = -s * g[j], c * g[j]
            if abs(g[j + 1]) <= tol or below == 0.0 or iterations >= _KRYLOV_MAX_ITERATIONS:
                break
            basis[j + 1] = w / below
        k = j + 1
        x = x + precondition(np.linalg.solve(hess[:k, :k], g[:k]) @ basis[:k])
        r = b - system(x)
        beta = float(norm(r))
        if beta > tol and beta <= np.finfo(float).eps * norm(system.bound(x)):
            break
    return x


# Relative residual at which the semi-implicit step's linear solve stops.
_SEMI_RTOL = 1e-13


def _semi_implicit_step(f: FlowField, stencil: _Stencil, u: np.ndarray,
                        t: float) -> Tuple[np.ndarray, float]:
    """One lagged-coefficient semi-implicit step: ``(I - dt*L_n) du = dt*F_n``.

    The frame increment over the step is known exactly for a frozen frame
    (the boundary values are linear in time), so its stencil coupling moves
    to the right-hand side instead of being lagged.

    The system is solved matrix-free by :func:`_gmres` to relative residual
    ``_SEMI_RTOL``, preconditioned by :class:`_FastPoisson`, which is exact
    when the coefficients are constant.  A step of a quadratic (129^2, 13^4)
    takes one Krylov iteration.  A step of a rippled field takes 10 at 17^2
    (``dt`` 8e-4 to 5e-3, the flow-convergence suite included).  At 129^2
    (``dt`` 5e-3 to 1) a first step takes 14-15 and a second 9-12; from
    ``dt`` 0.05 up a step's first cycle leaves the true residual just above
    both the tolerance and the rounding floor of :func:`_gmres`, and a second
    cycle of one iteration ends it.  A solve that misses the tolerance raises
    :class:`NoConvergence` rather than returning an unconverged increment.
    """
    dt = f.dt
    conv, conc = map(stencil.crop, stencil.load(u).blocks())
    rhs = dt * _flow_value(conv, conc, "semi-implicit step").ravel()
    gammas = _linearized_gammas(f, conv, conc)
    system = _Operator(f.grid, gammas, dt)
    if isinstance(f.policy, FrozenFrame):
        frame_delta = f.policy.spec.time_drift * dt
        if frame_delta != 0.0:
            rhs -= frame_delta * system.frame_coupling()
    delta = _gmres(system, _FastPoisson(f.grid, gammas, dt), rhs, _SEMI_RTOL, 0.0,
                   f"semi-implicit step at t={t:.6g}")
    unew = u.copy()
    nodes = unew[stencil.stage][stencil.inner]  # a view of the stage slice's interior
    nodes += delta.reshape(f.grid.interior_shape)
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
    cannot be returned silently.  One :class:`_Stencil` serves the whole
    run; the steppers work in its stage layout, and a slice is cropped to
    the stored layout only where it is stored.
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
    stencil = _Stencil(f)
    t0 = f.times[-1]
    u = stencil.pad(f.slices[-1])
    new_slices = list(f.slices)
    new_times = list(f.times)
    new_log = list(f.cfl_log)
    for n in range(1, steps + 1):
        t_prev = t0 + (n - 1) * f.dt
        u, bound = stepper(f, stencil, u, t_prev)
        if scheme == "rk4":
            new_log.append(bound)
        if n % snapshot_every == 0 or n == steps:
            new_slices.append(stencil.crop(u))
            new_times.append(t0 + n * f.dt)
    _require_membership(*stencil.load(u).blocks(), "post-step check")
    return dataclasses.replace(f, slices=new_slices, times=new_times, cfl_log=new_log)


def step_parabolic(f: FlowField, scheme: str = "rk4") -> FlowField:
    """Advance the flow by a single timestep (``rk4`` or ``semi-implicit``)."""
    return run_flow(f, 1, scheme=scheme, snapshot_every=1)


# ---------------------------------------------------------------------------
# elliptic solve
# ---------------------------------------------------------------------------


# Residual at which a Newton step's linear solve stops: relative to the
# Newton residual, with an absolute floor near the solution (the forcing term
# of inexact Newton, Eisenstat & Walker 1996).
_NEWTON_LINEAR_RTOL = 1e-10
_NEWTON_LINEAR_ATOL = 1e-12


def solve_elliptic(
    boundary: ExpressionSpec,
    grid: BoxGrid,
    guess: Optional[Union[ExpressionSpec, np.ndarray]] = None,
) -> FlowField:
    """Solve the steady equation ``F(u) = 0`` by damped Newton iteration.

    ``boundary`` supplies the frozen frame (evaluated at time 0); the initial
    guess defaults to the boundary description evaluated everywhere.  Each
    Newton step solves the linearized equation on the interior and halves the
    step until the iterate both stays in class and strictly decreases the
    sup-norm residual; the iteration stops at sup-norm residual
    ``NEWTON_TOL``.  Raises :class:`ClassExit` if the initial guess is out of
    class and :class:`NoConvergence` after ``NEWTON_MAX_STEPS`` Newton steps
    (or when damping stalls, or a step's linear solve fails).
    """
    if grid.periodic:
        raise TmaError("the elliptic solve needs boundary data: use a framed grid")
    guess = boundary if guess is None else guess
    if isinstance(guess, ExpressionSpec):
        guess = evaluate_on_grid(guess, grid)
    _require_one_slot_each(boundary, grid)
    f = flow_from_values(guess, grid, 0.0, FrozenFrame(boundary))
    u = f.slices[0]
    ii = grid.interior
    stencil = _Stencil(f)

    def residual_of(candidate: np.ndarray,
                    where: str) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        # copies: the accepted iterate's blocks outlive the trials
        conv, conc = map(stencil.crop, stencil.load(candidate).blocks())
        r = _flow_value(conv, conc, where)
        return float(np.abs(r).max()), r, conv, conc

    res, r, conv, conc = residual_of(u, "elliptic initial guess")
    for _ in range(NEWTON_MAX_STEPS):
        if res <= NEWTON_TOL:
            return dataclasses.replace(f, slices=[u], times=[0.0])
        gammas = _linearized_gammas(f, conv, conc)
        delta = _gmres(_Operator(grid, gammas), _FastPoisson(grid, gammas), -r.ravel(),
                       _NEWTON_LINEAR_RTOL, _NEWTON_LINEAR_ATOL, "Newton step")
        step = 1.0
        while True:
            cand = u.copy()
            cand[ii] += (step * delta).reshape(grid.interior_shape)
            try:
                res_new, r_new, c_new, k_new = residual_of(cand, "elliptic damping")
            except ClassExit:
                res_new = math.inf  # out of class: no decrease
            if res_new < res:
                u, res, r, conv, conc = cand, res_new, r_new, c_new, k_new
                break
            step *= 0.5
            if step < 2.0**-30:
                raise NoConvergence(
                    "damping stalled: no in-class step decreases the residual"
                )
    if res <= NEWTON_TOL:
        return dataclasses.replace(f, slices=[u], times=[0.0])
    raise NoConvergence(
        f"Newton iteration did not reach residual {NEWTON_TOL:.1e} in "
        f"{NEWTON_MAX_STEPS} steps (final residual {res:.3e})"
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
) -> ClassSeries:
    """Track block eigenvalue bounds over the stored slices of a run.

    For the supported flavors both Hessian blocks are one-dimensional, so the
    eigenvalue bounds are the extrema of the discrete block fields over the
    interior.  A slice violates the window unless its four bounds pass
    :func:`~tma.funclass.in_class_window`, the test of
    :func:`~tma.funclass.class_membership`: all inside ``[lower - 1e-9,
    upper + 1e-9]``, where a NaN bound lies nowhere.
    """
    series = np.empty((4, len(f.slices)))
    stencil = _Stencil(f)
    for i, u in enumerate(f.slices):
        conv, conc = stencil.load(u).blocks()  # stage layout: its junk entries copy real ones
        series[:, i] = conv.min(), conv.max(), conc.min(), conc.max()
    inside = in_class_window(series.T, lower, upper)
    first = None if inside.all() else int(np.argmin(inside))
    return ClassSeries(np.asarray(f.times, dtype=float), *series, first)


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
    if f.dt <= 0.0:
        raise TmaError("time-order estimation needs a positive timestep")
    steps = total_time / f.dt
    n0 = int(round(steps)) if math.isfinite(steps) else 0
    if n0 < 1 or abs(n0 * f.dt - total_time) > 1e-9 * abs(total_time):
        raise TmaError(
            f"total_time {total_time} is not a positive multiple of dt {f.dt}"
        )
    ii = f.grid.interior
    finals = []
    for level in range(3):
        fl = FlowField(f.grid, f.policy, f.dt / 2**level, [f.slices[-1]], [f.times[-1]])
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


def _aligned_samples(grid: BoxGrid) -> List[Tuple[int, ...]]:
    """Interior node indices, ~7 per axis, refinement-aligned."""
    choices = []
    for n in grid.shape:
        lo, hi = grid.frame, n - 1 - grid.frame
        count = min(7, hi - lo + 1)
        choices.append(np.unique(np.linspace(lo, hi, count).round().astype(int)))
    mesh = np.meshgrid(*choices, indexing="ij")
    return [tuple(int(m[idx]) for m in mesh) for idx in np.ndindex(mesh[0].shape)]


def hessian_error(
    spec: ExpressionSpec,
    grid: BoxGrid,
    samples: Optional[List[Tuple[int, ...]]] = None,
) -> float:
    """Sup-norm gap between the centered-difference Hessian and the exact one, at time 0.

    The exact Hessian comes from the analytic jet of ``spec``; the gap is
    maximized over a refinement-aligned sample of interior nodes (all Hessian
    entries, mixed included).  An empty ``samples`` list gives 0.0.
    """
    f = flow_from_spec(spec, grid, 0.0, PeriodicBase((0.0,) * grid.dim) if grid.periodic else None)
    hess = discrete_hessian(f)
    axes = grid.axes()
    if samples is None:
        samples = _aligned_samples(grid)
    points = np.array([[axes[a][i] for a, i in enumerate(idx)] for idx in samples]).reshape(-1, grid.dim)
    exact = evaluate_hessians(spec, points)
    worst = 0.0
    for idx, ex in zip(samples, exact):
        worst = max(worst, float(np.abs(hess[idx] - ex).max()))
    return worst


def spatial_order_estimate(spec: ExpressionSpec, grid: BoxGrid) -> OrderEstimate:
    """Measured spatial order of the discrete Hessian under one refinement, at time 0.

    Errors are evaluated at the same physical points on the coarse grid and
    its refinement (coarse node ``i`` = fine node ``2i``), so the ratio
    reflects pure stencil error; second-order stencils give a ratio near 4.
    """
    coarse_samples = _aligned_samples(grid)
    fine_samples = [tuple(2 * i for i in idx) for idx in coarse_samples]
    e_coarse = hessian_error(spec, grid, samples=coarse_samples)
    e_fine = hessian_error(spec, grid.refined(), samples=fine_samples)
    if e_fine == 0.0:
        raise TmaError(
            "discrete Hessian is exact on this description (polynomial of "
            "degree <= 2?); spatial order is not measurable"
        )
    return OrderEstimate(order=math.log2(e_coarse / e_fine), errors=(e_coarse, e_fine))


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
    spec_flavor = _carrier(flavor)[0]
    return ExpressionSpec(base_quadratic(1, 1, spec_flavor, a, b), 1, 1, spec_flavor, time_drift=math.log(a / b))


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
    """The periodic-run base matching :func:`reference_flow_spec`'s quadratic: its diagonal."""
    matrix = reference_flow_spec(a, b, flavor).expr["matrix"]
    return PeriodicBase(tuple(row[i] for i, row in enumerate(matrix)))
