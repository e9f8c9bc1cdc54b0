"""Grid-flow, elliptic-solve and monitoring tests.

The stepping oracles are independent closed forms written in plain numpy
before any solver call: the separable quadratic has flow value log(a/b)
everywhere, so its exact evolution is the initial field plus t*log(a/b), and
centered differences are exact on quadratics, which makes the discrete flow
reproduce that motion to roundoff.  Scheme orders are measured by Richardson
self-comparison on a fixed grid, where the semidiscrete system is the common
reference and no exact solution is needed.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from tma import solver
from tma.errors import (
    CFLViolation,
    ClassExit,
    DimensionMismatch,
    DomainViolation,
    NoConvergence,
    TmaError,
)
from tma.funclass import class_membership
from tma.jets import ExpressionSpec, evaluate_hessians
from tma.solver import (
    BoxGrid,
    FlowField,
    FrozenFrame,
    _Linearized,
    _linearized_gammas,
    _sine_transform,
    PeriodicBase,
    discrete_hessian,
    discrete_time_speed,
    evaluate_on_grid,
    flow_from_spec,
    flow_from_values,
    hessian_error,
    monitor_class,
    periodic_base_for,
    perturbed_flow_spec,
    reference_flow_spec,
    run_flow,
    solve_elliptic,
    spatial_order_estimate,
    step_parabolic,
    time_order_estimate,
)
from test_api import fresh_python
from test_stencil import _ref_blocks, _ref_operator, periodic2d

# ---------------------------------------------------------------------------
# oracle: exact motion of the separable quadratic, in plain numpy
#
# u0 = a x^2/2 - b y^2/2 has constant second derivatives (a, -b), so
# F(u0) = log a - log(-(-b)) = log(a/b) at every point and every time; the
# flow therefore moves the whole field rigidly: u(t) = u0 + t log(a/b).
# The 4-D analogue doubles the diagonal so the quarter-Laplacian combinations
# come out to a and -b again.
# ---------------------------------------------------------------------------


def exact_quadratic_motion(grid: BoxGrid, a: float, b: float, t: float,
                           flavor: str = "real") -> np.ndarray:
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    if flavor == "real":
        u0 = 0.5 * a * mesh[0] ** 2 - 0.5 * b * mesh[1] ** 2
    else:
        u0 = a * (mesh[0] ** 2 + mesh[2] ** 2) - b * (mesh[1] ** 2 + mesh[3] ** 2)
    return u0 + t * math.log(a / b)


DRIFT_AT_E = 1.0  # log(e/1), the drift speed of the a = e, b = 1 quadratic

assert abs(math.log(math.e / 1.0) - DRIFT_AT_E) == 0.0


FRAMED = BoxGrid((-1.0, -1.0), (1.0, 1.0), (33, 33), frame=2)
PERIODIC = BoxGrid((0.0, 0.0), (2 * math.pi, 2 * math.pi), (32, 32), frame=0)


# ---------------------------------------------------------------------------
# grid geometry
# ---------------------------------------------------------------------------


class TestBoxGrid:
    def test_framed_geometry(self):
        g = FRAMED
        assert g.dim == 2 and not g.periodic
        assert g.spacing == (2.0 / 32, 2.0 / 32)
        ax = g.axes()[0]
        assert ax[0] == -1.0 and ax[-1] == 1.0 and len(ax) == 33
        assert g.interior_shape == (29, 29)
        mask = g.frame_mask()
        assert mask.sum() == 33 * 33 - 29 * 29
        assert not mask[2, 2] and mask[1, 5]

    def test_periodic_geometry(self):
        g = PERIODIC
        assert g.periodic
        assert g.spacing[0] == pytest.approx(2 * math.pi / 32, abs=0.0)
        ax = g.axes()[0]
        assert ax[0] == 0.0 and ax[-1] < 2 * math.pi  # upper end exclusive
        assert g.interior_shape == g.shape
        assert not g.frame_mask().any()

    def test_refinement_aligns_nodes(self):
        for g in (FRAMED, PERIODIC):
            fine = g.refined()
            assert fine.spacing[0] == pytest.approx(g.spacing[0] / 2, abs=0.0)
            coarse_ax, fine_ax = g.axes()[0], fine.axes()[0]
            assert np.allclose(fine_ax[::2], coarse_ax, atol=1e-15)

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            BoxGrid((0.0,), (1.0, 2.0), (9, 9))
        with pytest.raises(TmaError):
            BoxGrid((0.0, 0.0), (1.0, 1.0), (5, 5), frame=2)  # too few nodes
        with pytest.raises(TmaError):
            BoxGrid((0.0, 0.0), (0.0, 1.0), (9, 9))  # empty extent
        with pytest.raises(TmaError):
            BoxGrid((0.0, 0.0), (1.0, 1.0), (9, 9), frame=-1)
        with pytest.raises(TmaError, match=r"^axis 1: node count must be an integer, got True$"):
            BoxGrid((0.0, 0.0), (1.0, 1.0), (9, True), frame=0)
        with pytest.raises(TmaError, match=r"^frame width must be an integer, got 1\.5$"):
            BoxGrid((0.0, 0.0), (1.0, 1.0), (9, 9), frame=1.5)

    def test_numpy_integers_are_node_counts(self):
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), np.array([33, 33]), frame=np.int64(2))
        assert grid == FRAMED and grid.interior_shape == (29, 29)


# ---------------------------------------------------------------------------
# vectorized evaluation
# ---------------------------------------------------------------------------


class TestEvaluateOnGrid:
    def test_matches_pointwise_evaluation(self):
        spec = perturbed_flow_spec(1.2, 0.8, 0.07,
                                   modes=((1.0, 2.0), (0.5, -1.0)),
                                   weights=(1.0, 0.6))
        grid = BoxGrid((-1.0, -0.5), (1.0, 0.5), (7, 9), frame=2)
        vals = evaluate_on_grid(spec, grid, time=0.3)
        axes = grid.axes()
        for i in range(0, 7, 2):
            for j in range(0, 9, 3):
                point = (axes[0][i], axes[1][j])
                assert vals[i, j] == pytest.approx(spec.value(point, 0.3), abs=1e-15)

    def test_drift_enters_evaluation(self):
        spec = reference_flow_spec(math.e, 1.0)
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (9, 9), frame=2)
        still = evaluate_on_grid(spec, grid, time=0.0)
        later = evaluate_on_grid(spec, grid, time=0.25)
        assert np.allclose(later - still, 0.25 * DRIFT_AT_E, atol=1e-15)

    def test_domain_guard(self):
        spec = ExpressionSpec(
            expr={"kind": "quad", "matrix": [[1.0, 0.0], [0.0, -1.0]],
                  "linear": [0.0, 0.0], "constant": 0.0},
            k=1, l=1, domain_halfwidth=1.0,
        )
        wide = BoxGrid((-2.0, -2.0), (2.0, 2.0), (9, 9), frame=2)
        with pytest.raises(DomainViolation):
            evaluate_on_grid(spec, wide)

    def test_dimension_guard(self):
        spec = reference_flow_spec(1.0, 1.0)
        four = BoxGrid((-1.0,) * 4, (1.0,) * 4, (9,) * 4, frame=2)
        with pytest.raises(DimensionMismatch):
            evaluate_on_grid(spec, four)


# ---------------------------------------------------------------------------
# parabolic stepping: exact quadratic motion
# ---------------------------------------------------------------------------


class TestQuadraticMotion:
    def test_stationary_to_roundoff(self):
        spec = reference_flow_spec(1.3, 1.3)
        f = flow_from_spec(spec, FRAMED, dt=1e-4)
        for _ in range(5):
            before = f.slices[-1]
            f = step_parabolic(f)
            assert np.abs(f.slices[-1] - before).max() <= 1e-12

    @pytest.mark.parametrize("scheme", ["rk4", "semi-implicit"])
    def test_drift_reproduced_per_step(self, scheme):
        spec = reference_flow_spec(math.e, 1.0)
        f = flow_from_spec(spec, FRAMED, dt=1e-4)
        ii = FRAMED.interior
        for _ in range(5):
            f = step_parabolic(f, scheme=scheme)
            t = f.times[-1]
            exact = exact_quadratic_motion(FRAMED, math.e, 1.0, t)
            assert np.abs((f.slices[-1] - exact)[ii]).max() <= 1e-10

    @pytest.mark.parametrize("scheme, nodes, steps", [
        pytest.param("rk4", 9, 3, id="rk4"),
        pytest.param("semi-implicit", 9, 3, id="semi-implicit"),
        pytest.param("semi-implicit", 17, 2, id="semi-implicit-17"),
    ])
    def test_complex_flavor_drift(self, scheme, nodes, steps):
        spec = reference_flow_spec(math.e, 1.0, flavor="complex11")
        grid = BoxGrid((-1.0,) * 4, (1.0,) * 4, (nodes,) * 4, frame=2)
        f = flow_from_spec(spec, grid, dt=1e-3)
        f = run_flow(f, steps, scheme=scheme)
        t = f.times[-1]
        exact = exact_quadratic_motion(grid, math.e, 1.0, t, flavor="complex11")
        assert np.abs((f.slices[-1] - exact)[grid.interior]).max() <= 1e-10

    def test_time_speed_equals_drift(self):
        spec = reference_flow_spec(math.e, 1.0)
        f = flow_from_spec(spec, FRAMED, dt=1e-4)
        speed = discrete_time_speed(f)
        assert np.nanmax(np.abs(speed - DRIFT_AT_E)) <= 1e-10

    @pytest.mark.parametrize("flavor", ["real", "complex11"])
    @pytest.mark.parametrize("a, b", [(2.0, 0.5), (1.0, 1.0), (0.3, 7.25), (math.e, math.pi)])
    def test_periodic_base_is_the_reference_quadratic(self, flavor, a, b):
        spec = reference_flow_spec(a, b, flavor)
        matrix = np.array(spec.expr["matrix"])
        assert np.array_equal(matrix, np.diag(np.diag(matrix)))
        # the base's coefficients are the reference spec's Hessian diagonal at every point
        points = np.random.default_rng(7).uniform(-1.0, 1.0, (16, spec.nvars))
        coeffs = periodic_base_for(a, b, flavor).coeffs
        assert all(tuple(np.diag(h)) == coeffs for h in evaluate_hessians(spec, points))


# ---------------------------------------------------------------------------
# measured scheme orders
# ---------------------------------------------------------------------------


def rippled(dt):
    spec = perturbed_flow_spec(1.0, 1.0, 0.1,
                               modes=((1.0, 1.0), (2.0, -1.0)),
                               weights=(1.0, 0.5))
    grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (17, 17), frame=2)
    return flow_from_spec(spec, grid, dt=dt)


@pytest.fixture(scope="module")
def rippled_field():
    return rippled(8e-4)


class TestSchemeOrders:
    def test_rk4_fourth_order(self, rippled_field):
        est = time_order_estimate(rippled_field, 8e-4 * 16)
        assert est.errors[0] > est.errors[1] > 0
        assert 3.5 <= est.order <= 4.8

    def test_semi_implicit_first_order(self, rippled_field):
        est = time_order_estimate(rippled_field, 8e-4 * 16, scheme="semi-implicit")
        assert 0.7 <= est.order <= 1.5

    def test_total_time_must_be_step_multiple(self, rippled_field):
        with pytest.raises(TmaError):
            time_order_estimate(rippled_field, 8e-4 * 16.5)


# ---------------------------------------------------------------------------
# guard rails
# ---------------------------------------------------------------------------


class TestGuards:
    def test_cfl_violation(self):
        spec = reference_flow_spec(math.e, 1.0)
        f = flow_from_spec(spec, FRAMED, dt=1.0)
        with pytest.raises(CFLViolation):
            step_parabolic(f)

    def test_cfl_bound_recorded(self):
        spec = reference_flow_spec(1.0, 1.0)
        f = flow_from_spec(spec, FRAMED, dt=1e-4)
        f = run_flow(f, 4)
        assert len(f.cfl_log) == 4
        assert all(bound >= f.dt for bound in f.cfl_log)

    def test_semi_implicit_has_no_cfl_limit(self):
        spec = reference_flow_spec(math.e, 1.0)
        f = flow_from_spec(spec, FRAMED, dt=5e-3)  # far above the explicit bound
        f = run_flow(f, 2, scheme="semi-implicit")
        assert len(f.cfl_log) == 0

    def test_class_exit_on_out_of_class_data(self):
        wild = perturbed_flow_spec(1.0, 1.0, 2.0)  # ripple overwhelms the base
        f = flow_from_spec(wild, PERIODIC, dt=1e-5,
                           policy=periodic_base_for(1.0, 1.0))
        with pytest.raises(ClassExit):
            step_parabolic(f)

    def test_policy_grid_consistency(self):
        spec = reference_flow_spec(1.0, 1.0)
        with pytest.raises(TmaError):
            flow_from_spec(spec, PERIODIC, dt=1e-4)  # periodic needs explicit base
        vals = evaluate_on_grid(spec, FRAMED)
        with pytest.raises(TmaError):
            flow_from_values(vals, FRAMED, 1e-4, PeriodicBase((1.0, -1.0)))

    def test_step_rejects_bad_arguments(self):
        spec = reference_flow_spec(1.0, 1.0)
        f = flow_from_spec(spec, FRAMED, dt=0.0)
        with pytest.raises(TmaError):
            step_parabolic(f)
        f = flow_from_spec(spec, FRAMED, dt=1e-4)
        with pytest.raises(TmaError):
            run_flow(f, 1, scheme="leapfrog")
        with pytest.raises(TmaError):
            run_flow(f, 0)

    @pytest.mark.parametrize("call, message", [
        (lambda f: run_flow(f, 4, snapshot_every=1.5), r"^snapshot_every must be an integer >= 1, got 1\.5$"),
        (lambda f: run_flow(f, True), r"^steps must be an integer >= 1, got True$"),
        (lambda f: run_flow(f, 2.5), r"^steps must be an integer >= 1, got 2\.5$"),
        (lambda f: run_flow(f, 0), r"^steps must be an integer >= 1, got 0$"),
        (lambda f: discrete_time_speed(f, 5), r"^slice index must be an integer in \[-1, 1\), got 5$"),
        (lambda f: discrete_time_speed(f, -2), r"^slice index must be an integer in \[-1, 1\), got -2$"),
        (lambda f: discrete_time_speed(f, True), r"^slice index must be an integer in \[-1, 1\), got True$"),
    ], ids=["fractional_snapshot_every", "bool_steps", "fractional_steps", "zero_steps", "index_5", "index_-2",
            "bool_index"])
    def test_counts_and_indices_are_integers_in_range(self, call, message):
        f = flow_from_spec(reference_flow_spec(1.0, 1.0), FRAMED, dt=1e-4)
        with pytest.raises(TmaError, match=message):
            call(f)

    def test_numpy_integer_counts_and_indices(self):
        f = flow_from_spec(reference_flow_spec(1.0, 1.0), FRAMED, dt=1e-4)
        run = run_flow(f, np.int64(3), snapshot_every=np.int32(2))
        assert len(run.slices) == 3 and run.times == pytest.approx([0.0, 2e-4, 3e-4], abs=1e-18)
        assert np.array_equal(discrete_time_speed(run, np.int64(1)), discrete_time_speed(run, 1), equal_nan=True)

    def test_flavor_grid_mismatch(self):
        spec = reference_flow_spec(1.0, 1.0, flavor="complex11")
        with pytest.raises(DimensionMismatch):
            flow_from_spec(spec, FRAMED, dt=1e-4)

    @pytest.mark.parametrize("dim, flavor", [(2, "real"), (4, "complex11"), (1, None), (3, None)])
    def test_grid_dimension_fixes_flavor(self, dim, flavor):
        grid = BoxGrid((0.0,) * dim, (1.0,) * dim, (4,) * dim, frame=0)

        def wrap():
            return flow_from_values(np.zeros(grid.shape), grid, 1e-4, PeriodicBase((1.0,) * dim))

        if flavor is None:
            with pytest.raises(DimensionMismatch):
                wrap()
        else:
            assert wrap().flavor == flavor


# ---------------------------------------------------------------------------
# a flow field is its six public fields, checked on every construction
# ---------------------------------------------------------------------------


RIPPLE = perturbed_flow_spec(1.0, 1.0, 0.1, modes=((1.0, 1.0), (2.0, -1.0)), weights=(1.0, 0.5))
FRAMED17 = BoxGrid((-1.0, -1.0), (1.0, 1.0), (17, 17), frame=2)
PERIODIC16 = BoxGrid((0.0, 0.0), (2 * math.pi, 2 * math.pi), (16, 16), frame=0)


def _assert_same_run(f, g):
    assert f.times == g.times and f.cfl_log == g.cfl_log
    assert all(np.array_equal(u, v) for u, v in zip(f.slices, g.slices, strict=True))


class TestFlowFieldConstruction:
    def test_fields_are_the_six_public_ones(self):
        assert [fl.name for fl in dataclasses.fields(FlowField)] == [
            "grid", "policy", "dt", "slices", "times", "cfl_log"]

    @pytest.mark.parametrize("scheme", ["rk4", "semi-implicit"])
    @pytest.mark.parametrize("grid, policy", [
        (FRAMED17, lambda: FrozenFrame(RIPPLE)),
        (PERIODIC16, lambda: periodic_base_for(1.0, 1.0)),
    ], ids=["framed17", "periodic16"])
    def test_direct_construction_steps_like_the_factory(self, grid, policy, scheme):
        values = evaluate_on_grid(RIPPLE, grid)
        built = FlowField(grid, policy(), 4e-4, [values], [0.0])
        wrapped = flow_from_values(values, grid, 4e-4, policy())
        _assert_same_run(run_flow(built, 3, scheme=scheme), run_flow(wrapped, 3, scheme=scheme))

    @pytest.mark.parametrize("scheme", ["rk4", "semi-implicit"])
    def test_replace_onto_a_refined_grid_steps_with_its_frame(self, scheme):
        fine = FRAMED17.refined()
        f = flow_from_spec(RIPPLE, FRAMED17, 1e-4)
        moved = dataclasses.replace(f, grid=fine, slices=[evaluate_on_grid(RIPPLE, fine)])
        _assert_same_run(run_flow(moved, 2, scheme=scheme),
                         run_flow(flow_from_spec(RIPPLE, fine, 1e-4), 2, scheme=scheme))

    def test_one_frozen_frame_writes_each_grids_own_frame(self):
        policy = FrozenFrame(RIPPLE)
        for grid in (FRAMED17, FRAMED17.refined(), FRAMED17):
            f = flow_from_values(np.zeros(grid.shape), grid, 1e-4, policy)
            mask = grid.frame_mask()
            assert np.array_equal(f.slices[0][mask], evaluate_on_grid(RIPPLE, grid)[mask])
            assert not f.slices[0][~mask].any()

    def test_replace_runs_the_factory_checks(self):
        f = flow_from_spec(RIPPLE, FRAMED17, 1e-4)
        with pytest.raises(TmaError, match="timestep must be nonnegative and finite, got nan"):
            dataclasses.replace(f, dt=math.nan)
        with pytest.raises(TmaError, match="time 1 must be finite, got inf"):
            dataclasses.replace(f, slices=f.slices * 2, times=[0.0, math.inf])
        with pytest.raises(DimensionMismatch, match="values have shape"):
            dataclasses.replace(f, grid=FRAMED17.refined())

    def test_fields_cannot_be_assigned(self):
        # an assignment would skip __post_init__'s checks
        f = flow_from_spec(RIPPLE, FRAMED17, 1e-4)
        for name, value in (("dt", math.nan), ("times", []), ("slices", [])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(f, name, value)
        assert f.dt == 1e-4 and f.times == [0.0] and len(f.slices) == 1

    @pytest.mark.parametrize("slices, times", [(2, [0.0]), (1, [0.0, 1e-4]), (0, [])],
                             ids=["two_slices_one_time", "one_slice_two_times", "empty"])
    def test_slices_and_times_must_pair_up(self, slices, times):
        values = evaluate_on_grid(RIPPLE, FRAMED17)
        with pytest.raises(DimensionMismatch, match=f"got {slices} slices and {len(times)} times"):
            FlowField(FRAMED17, FrozenFrame(RIPPLE), 1e-4, [values] * slices, times)

    # each call raises what flow_from_values raised before the checks moved into
    # FlowField, with the same message; a call with two faults names the earlier check
    @pytest.mark.parametrize("call, error, message", [
        (lambda v: flow_from_values(v[:3], FRAMED17, math.nan, FrozenFrame(RIPPLE)),
         DimensionMismatch, r"values have shape \(3, 17\), grid has \(17, 17\)"),
        (lambda v: flow_from_values(np.zeros((9,) * 3), BoxGrid((0.0,) * 3, (1.0,) * 3, (9,) * 3), math.inf,
                                    FrozenFrame(RIPPLE)), DimensionMismatch, "no grid flavor"),
        (lambda v: flow_from_values(v, FRAMED17, -1.0, PeriodicBase((1.0,))),
         TmaError, "timestep must be nonnegative and finite, got -1.0"),
        (lambda v: flow_from_values(v, FRAMED17, 1e-4, PeriodicBase((1.0,)), time=math.nan),
         TmaError, "start time must be finite, got nan"),
        (lambda v: flow_from_values(v, FRAMED17, 1e-4, PeriodicBase((1.0,))),
         TmaError, r"a periodic-base policy requires a periodic grid \(frame == 0\)"),
        (lambda v: flow_from_values(evaluate_on_grid(RIPPLE, PERIODIC16), PERIODIC16, 1e-4, PeriodicBase((1.0,))),
         DimensionMismatch, "base has 1 axis coefficients, grid has 2 axes"),
        (lambda v: flow_from_values(evaluate_on_grid(RIPPLE, PERIODIC16), PERIODIC16, 1e-4, FrozenFrame(RIPPLE)),
         TmaError, r"a frozen-frame policy requires a framed grid \(frame >= 1\)"),
        (lambda v: flow_from_values(v, FRAMED17, 1e-4, RIPPLE),
         TmaError, "unknown boundary policy ExpressionSpec"),
        (lambda v: flow_from_values(v, FRAMED17, 1e-4, FrozenFrame(reference_flow_spec(1.0, 1.0, "complex11"))),
         DimensionMismatch, "description uses 4 coordinates but the grid has 2"),
        (lambda v: flow_from_spec(reference_flow_spec(1.0, 1.0), BoxGrid((-1.0, -1.0), (1.0, 1.0), (9, 9)), 1e-4,
                                  PeriodicBase((1.0, -1.0))),
         TmaError, r"a periodic-base policy requires a periodic grid \(frame == 0\)"),
    ], ids=["shape", "flavor", "dt", "time", "periodic_base_on_framed", "base_axes", "frozen_frame_on_periodic",
            "unknown_policy", "frame_dimension", "flow_from_spec"])
    def test_factory_errors_keep_their_messages(self, call, error, message):
        with pytest.raises(error, match=message):
            call(evaluate_on_grid(RIPPLE, FRAMED17))

    def test_the_frame_is_evaluated_once_per_field(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return evaluate_on_grid(*args, **kwargs)

        monkeypatch.setattr(solver, "evaluate_on_grid", counting)
        grid = BoxGrid((-1.0,) * 4, (1.0,) * 4, (9,) * 4, frame=2)
        f = flow_from_spec(reference_flow_spec(math.e, 1.0, "complex11"), grid, 1e-3)
        assert len(calls) == 1  # one evaluation gives the initial values and the frame
        for _ in range(8):
            f = step_parabolic(f)
        f = step_parabolic(f, scheme="semi-implicit")
        assert len(calls) == 1 and len(f.slices) == 10


# ---------------------------------------------------------------------------
# the semi-implicit step's iterative linear solve
# ---------------------------------------------------------------------------


class TestSemiImplicitSolve:
    @pytest.mark.parametrize("make", [lambda: rippled(1e-3), lambda: rippled(5e-3), periodic2d],
                             ids=["0.001", "0.005", "periodic2d"])
    def test_increment_matches_direct_solve(self, make):
        f = make()
        u, dt = f.slices[-1], f.dt
        # the same system (I - dt L) du = dt F, assembled and solved directly
        lmat, unknowns, _ = _ref_operator(f, _linearized_gammas(f, *_ref_blocks(f, u)))
        rhs = dt * discrete_time_speed(f)[f.grid.interior].ravel()
        direct = spsolve(sp.csc_matrix(np.eye(len(lmat)) - dt * lmat), rhs)
        increment = (step_parabolic(f, "semi-implicit").slices[-1] - u).ravel()[unknowns]
        # read as a difference of slices, the increment carries their rounding
        rounding = 4 * np.finfo(float).eps * np.abs(u).max()
        assert np.abs(increment - direct).max() <= 1e-12 * np.abs(direct).max() + rounding

    def test_unconverged_solve_raises(self, monkeypatch):
        # the rippled step needs about ten Krylov iterations; capped at one,
        # it must raise instead of returning an unconverged increment
        monkeypatch.setattr(solver, "_KRYLOV_MAX_ITERATIONS", 1)
        message = r"^semi-implicit step at t=0: GMRES did not reach relative residual 1e-13 in 1 iterations$"
        with pytest.raises(NoConvergence, match=message):
            step_parabolic(rippled(1e-3), "semi-implicit")

    @pytest.mark.parametrize("n", [7, 9, 13])
    def test_steady_4d_slice_steps(self, n):
        # F is rounding noise here (|F| <= 1.2e-14; exactly 0 at n = 9); the
        # step must still return, moving the field by no more than that noise
        spec = reference_flow_spec(1.0, 1.0, "complex11")
        f = flow_from_spec(spec, BoxGrid((-1.0,) * 4, (1.0,) * 4, (n,) * 4), 1e-3)
        out = run_flow(f, 1, scheme="semi-implicit")
        assert np.abs(out.slices[-1] - out.slices[0]).max() <= 1e-3 * 1e-13


# ---------------------------------------------------------------------------
# the matrix-free solves' transform, preconditioner and Newton step counts
# ---------------------------------------------------------------------------


class TestMatrixFreeSolves:
    # the oblong and mixed-length shapes catch a transform that contracts the wrong axis
    # (128, 128), (129, 127) and (127, 9, 5) fold even and odd axes, alone and beside short ones
    @pytest.mark.parametrize("shape", [(127, 127), (11,) * 4, (255, 255), (29, 29), (17, 21),
                                       (9,) * 4, (9, 8, 9, 10), (128, 128), (129, 127), (127, 9, 5)],
                             ids=str)
    def test_sine_transform_is_scipy_dst1(self, shape):
        x = np.random.default_rng(5).normal(size=shape)
        want = scipy.fft.dstn(x, type=1)
        assert np.abs(_sine_transform(x) - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("shape", [(17, 21), (125, 125), (9, 8, 9, 10), (128, 128), (129, 127),
                                       (127, 9, 5)], ids=str)
    def test_sine_transform_twice_scales_by_the_extended_lengths(self, shape):
        # _Linearized.precondition divides its symbol by this product instead of inverting the transform
        x = np.random.default_rng(6).normal(size=shape)
        scale = math.prod(2 * n + 2 for n in shape)
        assert np.abs(_sine_transform(_sine_transform(x)) - scale * x).max() <= 1e-13 * scale * np.abs(x).max()

    @pytest.mark.parametrize("grid, dt", [
        (BoxGrid((-1.0, -1.0), (1.0, 2.0), (17, 21)), None),
        (BoxGrid((-1.0,) * 4, (1.0,) * 4, (9, 8, 9, 10), frame=1), None),
        (BoxGrid((-1.0, -1.0), (1.0, 2.0), (17, 21)), 1e-3),
        (BoxGrid((-1.0,) * 4, (1.0,) * 4, (9, 8, 9, 10), frame=1), 1e-3),
        (BoxGrid((0.0, 0.0), (2 * math.pi, 3.0), (16, 15), frame=0), 1e-3),
        (BoxGrid((0.0,) * 4, (2 * math.pi,) * 4, (8, 7, 8, 6), frame=0), 1e-3),
        (BoxGrid((-1.0, -1.0), (1.0, 2.0), (133, 106)), None),
        (BoxGrid((-1.0, -1.0), (1.0, 2.0), (133, 106)), 1e-3),
    ], ids=["None-framed2d", "None-framed4d", "0.001-framed2d", "0.001-framed4d", "0.001-periodic2d",
            "0.001-periodic4d", "None-framed2d-folded", "0.001-framed2d-folded"])
    def test_preconditioner_inverts_constant_coefficients(self, grid, dt):
        # the preconditioner of L alone serves the elliptic solve, which needs a framed grid
        gammas = [np.full(grid.interior_shape, 0.7 + 0.5 * a) for a in range(grid.dim)]
        system = _Linearized(grid, gammas, dt)
        v = np.random.default_rng(3).normal(size=math.prod(grid.interior_shape))
        assert np.abs(system.precondition(system(v)) - v).max() <= 1e-12 * np.abs(v).max()

    @pytest.mark.parametrize("boundary, grid, guess, steps", [
        (reference_flow_spec(2.0, 1.0), BoxGrid((-1.0, -1.0), (1.0, 1.0), (129, 129)), None, 5),
        (reference_flow_spec(1.0, 1.0), BoxGrid((-1.0, -1.0), (1.0, 1.0), (33, 33)),
         perturbed_flow_spec(1.0, 1.0, 1e-3, modes=[(2.0, 1.0)], weights=[1.0]), 4),
    ], ids=["reference129", "rigidity33"])
    def test_newton_takes_the_direct_solves_step_count(self, monkeypatch, boundary, grid, guess, steps):
        # the step counts SuperLU's direct solves gave: one linear solve per Newton step
        calls = []
        krylov = solver._gmres

        def counted(*args):
            calls.append(args[-1])
            return krylov(*args)

        monkeypatch.setattr(solver, "_gmres", counted)
        sol = solve_elliptic(boundary, grid, guess=guess)
        assert calls == ["Newton step"] * steps
        assert np.nanmax(np.abs(discrete_time_speed(sol, 0))) <= solver.NEWTON_TOL

    @pytest.mark.parametrize("boundary, grid, guess, iterations", [
        (reference_flow_spec(2.0, 1.0), BoxGrid((-1.0, -1.0), (1.0, 1.0), (129, 129)), None, (1, 9, 5, 3, 2)),
        (reference_flow_spec(1.0, 1.0), BoxGrid((-1.0, -1.0), (1.0, 1.0), (33, 33)),
         perturbed_flow_spec(1.0, 1.0, 1e-3, modes=[(2.0, 1.0)], weights=[1.0]), (9, 5, 3, 1)),
    ], ids=["reference129", "rigidity33"])
    def test_newton_krylov_iteration_counts(self, monkeypatch, boundary, grid, guess, iterations):
        # a weaker preconditioner shows here as more iterations, not only as time.
        # Each Arnoldi iteration preconditions a unit basis vector; each GMRES
        # cycle ends by preconditioning its correction, which is not one.
        counts = []
        linearized = solver._Linearized

        class Counted(linearized):
            def __init__(self, *args):
                super().__init__(*args)
                counts.append([0, 0])  # [iterations, cycles] of this Newton step

            def precondition(self, v):
                counts[-1][int(abs(np.linalg.norm(v) - 1.0) > 1e-12)] += 1
                return super().precondition(v)

        monkeypatch.setattr(solver, "_Linearized", Counted)
        solve_elliptic(boundary, grid, guess=guess)
        assert [tuple(c) for c in counts] == [(k, 1) for k in iterations]

    def test_one_and_two_blas_threads_agree(self, tmp_path):
        # The sine transform runs as BLAS matrix products, and GMRES's inner
        # products are BLAS calls too.  Below BLAS's threading thresholds
        # (rigidity at 33, the 13^4 step) the result is the same to the bit
        # with 1 and 2 threads.  At 129^2 OpenBLAS splits some of those calls
        # across threads, which moves the Newton solution by about 2e-15.
        def run(threads: int):
            saved = tmp_path / f"newton{threads}.npy"
            code = (
                "import hashlib; import numpy as np; from tma.solver import *\n"
                "square = BoxGrid((-1.0, -1.0), (1.0, 1.0), (129, 129))\n"
                f"np.save({str(saved)!r}, solve_elliptic(reference_flow_spec(2.0, 1.0), square).slices[-1])\n"
                "rigidity = solve_elliptic(reference_flow_spec(1.0, 1.0), BoxGrid((-1.0, -1.0), (1.0, 1.0), (33, 33)),\n"
                "    guess=perturbed_flow_spec(1.0, 1.0, 1e-3, modes=[(2.0, 1.0)], weights=[1.0])).slices[-1]\n"
                "box = BoxGrid((-1.0,) * 4, (1.0,) * 4, (13,) * 4)\n"
                "spec = perturbed_flow_spec(1.0, 1.0, 0.05, 'complex11')\n"
                "step = run_flow(flow_from_spec(spec, box, 1e-2), 1, scheme='semi-implicit').slices[-1]\n"
                "print(*(hashlib.sha256(a.tobytes()).hexdigest() for a in (rigidity, step)))"
            )
            return fresh_python(code, {"OPENBLAS_NUM_THREADS": str(threads)}), np.load(saved)

        (hashes_one, newton_one), (hashes_two, newton_two) = run(1), run(2)
        assert len(hashes_one.split()) == 2 and hashes_one == hashes_two
        assert np.abs(newton_one - newton_two).max() <= 1e-14


# ---------------------------------------------------------------------------
# elliptic solves
# ---------------------------------------------------------------------------


class TestSolveElliptic:
    def test_balanced_quadratic_recovered(self):
        spec = reference_flow_spec(1.7, 1.7)
        sol = solve_elliptic(spec, FRAMED)
        exact = evaluate_on_grid(spec, FRAMED)
        assert np.abs(sol.slices[0] - exact).max() <= 1e-11

    def test_mixed_quadratic_recovered(self):
        # u = x^2/2 + 0.5 x y - y^2/2: the pure second derivatives are 1 and
        # -1, so the flow value vanishes identically and the steady equation
        # holds; the mixed term must pass through the solve untouched.
        spec = ExpressionSpec(
            expr={"kind": "quad", "matrix": [[1.0, 0.5], [0.5, -1.0]],
                  "linear": [0.0, 0.0], "constant": 0.0},
            k=1, l=1,
        )
        sol = solve_elliptic(spec, FRAMED)
        exact = evaluate_on_grid(spec, FRAMED)
        assert np.abs(sol.slices[0] - exact).max() <= 1e-11

    def test_perturbed_boundary_converges_in_class(self):
        spec = perturbed_flow_spec(1.0, 1.0, 0.05,
                                   modes=((1.0, 1.0), (2.0, -1.0)),
                                   weights=(1.0, 0.5))
        sol = solve_elliptic(spec, FRAMED)
        residual = discrete_time_speed(sol, 0)
        assert np.nanmax(np.abs(residual)) <= 1e-10
        series = monitor_class(sol, 0.5, 2.0)
        assert series.first_violation is None

    def test_out_of_class_guess_rejected(self):
        spec = reference_flow_spec(1.0, 1.0)
        flipped = reference_flow_spec(1.0, 1.0)
        upside_down = evaluate_on_grid(flipped, FRAMED) * -1.0
        with pytest.raises(ClassExit):
            solve_elliptic(spec, FRAMED, guess=upside_down)

    def test_iteration_cap_raises(self, monkeypatch):
        spec = perturbed_flow_spec(1.0, 1.0, 0.3, modes=((1.0, 1.0),))
        monkeypatch.setattr(solver, "NEWTON_MAX_STEPS", 1)
        with pytest.raises(NoConvergence, match="in 1 steps"):
            solve_elliptic(spec, FRAMED)

    def test_periodic_grid_rejected(self):
        spec = reference_flow_spec(1.0, 1.0)
        with pytest.raises(TmaError):
            solve_elliptic(spec, PERIODIC)

    @pytest.mark.parametrize("direction", [
        # uphill: the negated Newton step increases the residual at every length
        lambda delta: -delta,
        # a huge checkerboard: every halving down to 2^-30 leaves the class
        lambda delta: 1e12 * np.resize([1.0, -1.0], delta.size),
    ], ids=["uphill", "out_of_class"])
    def test_damping_stall_raises(self, monkeypatch, direction):
        krylov = solver._gmres
        monkeypatch.setattr(solver, "_gmres", lambda *args: direction(krylov(*args)))
        boundary = reference_flow_spec(1.0, 1.0)
        guess = perturbed_flow_spec(1.0, 1.0, 1e-3, modes=[(2.0, 1.0)], weights=[1.0])
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (17, 17))
        with pytest.raises(NoConvergence) as info:
            solve_elliptic(boundary, grid, guess=guess)
        assert str(info.value) == "damping stalled: no in-class step decreases the residual"
        assert info.value.__cause__ is None


# ---------------------------------------------------------------------------
# class monitoring
# ---------------------------------------------------------------------------


class TestMonitorClass:
    def test_stationary_unit_quadratic(self):
        spec = reference_flow_spec(1.0, 1.0)
        f = flow_from_spec(spec, FRAMED, dt=1e-4)
        f = run_flow(f, 3)
        series = monitor_class(f, 0.5, 2.0)
        for arr in (series.convex_min, series.convex_max,
                    series.concave_min, series.concave_max):
            assert np.allclose(arr, 1.0, atol=1e-11)
        assert series.first_violation is None

    def test_small_ripple_stays_in_narrow_window(self):
        spec = perturbed_flow_spec(1.0, 1.0, 0.05)
        f = flow_from_spec(spec, PERIODIC, dt=2e-4,
                           policy=periodic_base_for(1.0, 1.0))
        f = run_flow(f, 20, snapshot_every=5)
        series = monitor_class(f, 0.9, 1.1)
        assert series.first_violation is None
        assert series.convex_min.min() >= 0.9
        assert series.convex_max.max() <= 1.1
        assert series.concave_min.min() >= 0.9
        assert series.concave_max.max() <= 1.1

    def test_large_ripple_flagged_immediately(self):
        spec = perturbed_flow_spec(1.0, 1.0, 0.6)
        f = flow_from_spec(spec, PERIODIC, dt=1e-5,
                           policy=periodic_base_for(1.0, 1.0))
        series = monitor_class(f, 0.5, 2.0)
        assert series.first_violation == 0

    def test_same_window_as_class_membership(self):
        # each check gets lam with lam - 1e-9 exactly at its lowest bound: both
        # pass there, and both fail one float further in, and on a NaN bound
        def floor_at(bound):
            lam = bound + 1e-9
            while lam - 1e-9 > bound:
                lam = np.nextafter(lam, -np.inf)
            while lam - 1e-9 < bound:
                lam = np.nextafter(lam, np.inf)
            assert lam - 1e-9 == bound
            return lam

        spec = reference_flow_spec(1.5, 1.25)
        cloud = [[0.0, 0.0], [0.5, -0.25]]
        lowest = class_membership(spec, cloud, 1.0, 4.0).bounds[:, 0::2].min()
        f = flow_from_spec(spec, FRAMED, dt=1e-4)
        series = monitor_class(f, 1.0, 4.0)
        lowest_grid = min(series.convex_min[0], series.concave_min[0])
        for at_edge, verdict in ((floor_at(lowest), True), (np.nextafter(floor_at(lowest), np.inf), False)):
            assert class_membership(spec, cloud, at_edge, 4.0).member is verdict
        for at_edge, verdict in ((floor_at(lowest_grid), True), (np.nextafter(floor_at(lowest_grid), np.inf), False)):
            assert (monitor_class(f, at_edge, 4.0).first_violation is None) is verdict

        # exp(800 x) overflows at x = 1, and inf - inf leaves NaN partials there
        blowup = [{"kind": "scale", "coefficient": c,
                   "term": {"kind": "atom", "fn": "exp", "affine": [800.0, 0.0], "const": 0.0}} for c in (1.0, -1.0)]
        nan_spec = ExpressionSpec({"kind": "sum", "terms": [spec.expr] + blowup}, 1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            report = class_membership(nan_spec, [[0.0, 0.0], [1.0, 0.0]], 1.0, 4.0)
        assert np.isnan(report.bounds[1]).all() and not report.member and report.first_violation == (1.0, 0.0)
        f.slices[0][f.grid.interior] = np.nan
        assert monitor_class(f, 1.0, 4.0).first_violation == 0


# ---------------------------------------------------------------------------
# flow invariants
# ---------------------------------------------------------------------------


class TestFlowInvariants:
    def test_interior_max_speed_non_increasing(self):
        spec = perturbed_flow_spec(1.0, 1.0, 0.1,
                                   modes=((1.0, 1.0), (2.0, -1.0)),
                                   weights=(1.0, 0.5))
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (17, 17), frame=2)
        f = flow_from_spec(spec, grid, dt=5e-4)
        f = run_flow(f, 20)
        peaks = [np.nanmax(discrete_time_speed(f, i)) for i in range(len(f.slices))]
        for earlier, later in zip(peaks, peaks[1:]):
            assert later <= earlier + 1e-8

    # The parabolic maximum principle: u_t solves (d/dt - L) u_t = 0 with no
    # zeroth-order term, so max u_t cannot rise and min u_t cannot fall (on a
    # framed box the frozen frame holds u_t = 0).  Classical RK4 is not
    # strong-stability-preserving, so for the stepped flow this is a measured
    # property.  Each run is one the property was measured on: both carriers,
    # both schemes, both boxes, periodic boxes [0, 2 pi)^d and framed ones
    # [-1, 1]^2.  The tolerance is 0; the 16^4 RK4 run is the first 50 of 200
    # measured steps.
    @pytest.mark.parametrize("carrier, nodes, scheme, dt, steps, amplitude, modes", [
        ("real", 64, "rk4", 1e-3, 300, 0.05, ((1.0, 1.0), (2.0, -1.0))),
        ("real", 64, "semi-implicit", 5e-2, 8, 0.15, ((1.0, 1.0), (2.0, -1.0))),
        ("framed", 33, "rk4", 2e-4, 300, 0.05, ((1.0, 0.7),)),
        ("complex11", 16, "rk4", 1e-3, 50, 0.1, ((1.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, -1.0))),
        ("complex11", 12, "semi-implicit", 2e-2, 20, 0.1, ((1.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, -1.0))),
    ])
    def test_time_speed_extremes_move_inward_every_step(self, carrier, nodes, scheme, dt, steps, amplitude, modes):
        flavor = "real" if carrier == "framed" else carrier
        spec = perturbed_flow_spec(1.0, 1.0, amplitude, flavor=flavor, modes=modes)
        if carrier == "framed":
            f = flow_from_spec(spec, BoxGrid((-1.0, -1.0), (1.0, 1.0), (nodes, nodes), frame=2), dt)
        else:
            dim = len(modes[0])
            grid = BoxGrid((0.0,) * dim, (2.0 * math.pi,) * dim, (nodes,) * dim, frame=0)
            f = flow_from_spec(spec, grid, dt, policy=periodic_base_for(1.0, 1.0, flavor))
        f = run_flow(f, steps, scheme=scheme, snapshot_every=1)
        speeds = [discrete_time_speed(f, n) for n in range(len(f.slices))]
        highs = [np.nanmax(s) for s in speeds]
        lows = [np.nanmin(s) for s in speeds]
        assert len(highs) == steps + 1
        assert all(later <= earlier for earlier, later in zip(highs, highs[1:]))
        assert all(later >= earlier for earlier, later in zip(lows, lows[1:]))

    # The comparison principle, from the same linearization: the difference of two flows
    # solves a linear parabolic equation with positive coefficients and no zeroth-order
    # term, so data ordered at t = 0 stay ordered.  v0 = u0 + delta*phi with the periodic
    # phi = prod_a (1 + cos(x_a + 0.3 a))/2 >= 0 and delta = 1e-2, on both carriers and
    # both schemes; the runs, delta, phi and the tolerance 0 were fixed before the first run.
    @pytest.mark.parametrize("carrier, nodes, scheme, dt, steps, amplitude, modes", [
        ("real", 64, "rk4", 1e-3, 300, 0.05, ((1.0, 1.0), (2.0, -1.0))),
        ("real", 64, "semi-implicit", 5e-2, 8, 0.15, ((1.0, 1.0), (2.0, -1.0))),
        ("complex11", 12, "rk4", 1e-3, 100, 0.1, ((1.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, -1.0))),
        ("complex11", 12, "semi-implicit", 2e-2, 20, 0.1, ((1.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, -1.0))),
    ])
    def test_ordered_data_stay_ordered(self, carrier, nodes, scheme, dt, steps, amplitude, modes):
        dim = len(modes[0])
        grid = BoxGrid((0.0,) * dim, (2.0 * math.pi,) * dim, (nodes,) * dim, frame=0)
        policy = periodic_base_for(1.0, 1.0, carrier)
        u = flow_from_spec(perturbed_flow_spec(1.0, 1.0, amplitude, flavor=carrier, modes=modes), grid, dt,
                           policy=policy)
        phi = math.prod((1.0 + np.cos(x + 0.3 * a)) / 2.0 for a, x in enumerate(grid.mesh()))
        v = flow_from_values(u.slices[0] + 1e-2 * phi, grid, dt, policy)
        u, v = (run_flow(f, steps, scheme=scheme, snapshot_every=1) for f in (u, v))
        assert len(u.slices) == len(v.slices) == steps + 1 and u.times == v.times
        assert all((b - a).min() >= 0.0 for a, b in zip(u.slices, v.slices))

    def test_snapshot_stride_and_times(self):
        spec = reference_flow_spec(1.0, 1.0)
        f = flow_from_spec(spec, FRAMED, dt=1e-4)
        f = run_flow(f, 7, snapshot_every=3)
        assert len(f.slices) == len(f.times) == 4  # t0 plus steps 3, 6, 7
        assert f.times == pytest.approx([0.0, 3e-4, 6e-4, 7e-4], abs=1e-18)
        assert len(f.cfl_log) == 7


# ---------------------------------------------------------------------------
# discrete Hessians and spatial order
# ---------------------------------------------------------------------------


class TestDiscreteHessian:
    def test_exact_on_mixed_quadratic(self):
        spec = ExpressionSpec(
            expr={"kind": "quad", "matrix": [[1.0, 0.5], [0.5, -1.0]],
                  "linear": [0.0, 0.0], "constant": 0.0},
            k=1, l=1,
        )
        f = flow_from_spec(spec, FRAMED, dt=0.0)
        hess = discrete_hessian(f)
        ii = FRAMED.interior
        expected = np.array([[1.0, 0.5], [0.5, -1.0]])
        assert np.abs(hess[ii] - expected).max() <= 1e-12
        assert np.isnan(hess[0, 0]).all()

    def test_quadratics_have_no_stencil_error(self):
        spec = reference_flow_spec(1.4, 0.6)
        assert hessian_error(spec, FRAMED) <= 1e-12

    def test_measured_second_order(self):
        spec = perturbed_flow_spec(1.0, 1.0, 0.1,
                                   modes=((1.0, 0.5), (0.5, -1.5)),
                                   weights=(1.0, 0.8))
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (17, 17), frame=2)
        est = spatial_order_estimate(spec, grid)
        assert 3.6 <= est.ratio <= 4.4

    def test_periodic_hessian_uses_base(self):
        spec = perturbed_flow_spec(1.0, 1.0, 0.05)
        f = flow_from_spec(spec, PERIODIC, dt=1e-4,
                           policy=periodic_base_for(1.0, 1.0))
        hess = discrete_hessian(f)
        # diagonal entries hover around the base curvatures
        assert np.abs(hess[..., 0, 0] - 1.0).max() <= 0.06
        assert np.abs(hess[..., 1, 1] + 1.0).max() <= 0.06
