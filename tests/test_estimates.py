"""Tests for oscillation measurement, decay fits, rescaling, and rigidity.

Oracle policy: cylinder oscillations are checked against an independent
brute-force loop over samples (and frozen exact values for the strict node
membership convention, plus within-one-spacing agreement with the continuum
values 2R and R^2); power-law fits against analytically collinear data;
rescaling against hand-derived derivative scalings; rigidity against the
algebraic identity det W = exp(F).
"""

import math

import numpy as np
import pytest

from tma.errors import (
    DegenerateLadder,
    DimensionMismatch,
    DomainExceeded,
    EmptyCylinder,
    IllConditioned,
    TmaError,
)
from tma.cli import _write_csv
from tma.estimates import (
    OSCILLATION_CSV_HEADER,
    CylinderSpec,
    FieldQuantities,
    cylinder_oscillation,
    discrete_w_entries,
    flow_quantities,
    holder_exponent_fit,
    oscillation_csv_rows,
    oscillation_ladder,
    parabolic_rescale,
    parabolic_rescale_field,
    rescale_report,
    rigidity_probe,
    third_derivative_norm,
    weak_harnack_diagnostic,
)
from tma.jets import ExpressionSpec, evaluate_jet
from tma.solver import (
    BoxGrid,
    FlowField,
    FrozenFrame,
    discrete_time_speed,
    flow_from_spec,
    periodic_base_for,
    perturbed_flow_spec,
    reference_flow_spec,
    run_flow,
    solve_elliptic,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def brute_oscillation(axes, times, vals, center, s, r):
    """Independent reference: loop over every sample, test membership, track range.

    Membership is the strict parabolic one: |x_a - w_a| < r on every axis and
    s - r^2 < t <= s.
    """
    lo, hi = math.inf, -math.inf
    for ti, t in enumerate(times):
        if not (s - r * r < t <= s):
            continue
        for idx in np.ndindex(*[len(a) for a in axes]):
            if all(abs(axes[a][idx[a]] - center[a]) < r for a in range(len(axes))):
                v = vals[(ti,) + idx]
                lo = min(lo, v)
                hi = max(hi, v)
    if lo is math.inf or not math.isfinite(lo):
        raise AssertionError("oracle found no samples")
    return hi - lo


def synthetic_plane_quantities():
    """2-D samples of f = x (first coordinate) on a 0.05-spaced grid/time lattice."""
    x = np.linspace(-1.0, 1.0, 41)
    y = np.linspace(-1.0, 1.0, 41)
    times = np.linspace(-1.0, 0.0, 21)
    field = np.broadcast_to(
        x[None, :, None], (len(times), len(x), len(y))
    ).copy()
    return FieldQuantities(axes=(x, y), times=times, values={"f": field})


def synthetic_time_quantities():
    """2-D samples of f = t on the same lattice."""
    x = np.linspace(-1.0, 1.0, 41)
    y = np.linspace(-1.0, 1.0, 41)
    times = np.linspace(-1.0, 0.0, 21)
    field = np.broadcast_to(
        times[:, None, None], (len(times), len(x), len(y))
    ).copy()
    return FieldQuantities(axes=(x, y), times=times, values={"f": field})


# ---------------------------------------------------------------------------
# cylinder geometry
# ---------------------------------------------------------------------------


class TestCylinderSpec:
    def test_default_ladder_halves_four_times(self):
        cyl = CylinderSpec((0.0, 0.0), 0.0, 0.8)
        assert cyl.ladder == (0.8, 0.4, 0.2, 0.1)

    def test_radius_must_be_positive(self):
        with pytest.raises(TmaError):
            CylinderSpec((0.0,), 0.0, 0.0)

    def test_ladder_must_decrease_strictly(self):
        with pytest.raises(TmaError):
            CylinderSpec((0.0,), 0.0, 1.0, ladder=(1.0, 0.5, 0.5))

    def test_ladder_must_fit_inside_radius(self):
        with pytest.raises(TmaError):
            CylinderSpec((0.0,), 0.0, 1.0, ladder=(2.0, 1.0, 0.5))

    def test_sub_cylinder_keeps_center(self):
        cyl = CylinderSpec((0.3, -0.2), 1.5, 1.0)
        sub = cyl.sub(0.25)
        assert sub.center == (0.3, -0.2)
        assert sub.time == 1.5
        assert sub.radius == 0.25
        with pytest.raises(TmaError):
            cyl.sub(2.0)

    def test_shifted_cylinder_sits_four_squares_earlier(self):
        cyl = CylinderSpec((0.0,), 2.0, 0.5)
        theta = cyl.shifted()
        assert theta.time == 2.0 - 4 * 0.25
        assert theta.radius == 0.5
        # the shifted window ends before the original window starts
        assert theta.time <= cyl.time - cyl.radius**2


class TestCylinderOscillation:
    def test_constant_field_has_zero_oscillation(self):
        x = np.linspace(-1.0, 1.0, 21)
        times = np.linspace(-0.5, 0.0, 11)
        q = FieldQuantities(
            axes=(x,),
            times=times,
            values={"f": np.full((11, 21), 3.25)},
        )
        osc = cylinder_oscillation(q, CylinderSpec((0.0,), 0.0, 0.4))
        assert osc["f"] == 0.0

    def test_linear_field_matches_brute_oracle_and_strict_node_range(self):
        q = synthetic_plane_quantities()
        r, h = 0.5, 0.05
        cyl = CylinderSpec((0.0, 0.0), 0.0, r)
        osc = cylinder_oscillation(q, cyl)["f"]
        oracle = brute_oscillation(q.axes, q.times, q.values["f"], (0.0, 0.0), 0.0, r)
        assert osc == oracle
        # strict membership drops the nodes at distance exactly R, so the
        # widest included pair spans 2(R - h); the continuum value 2R is
        # approached within one node spacing per side
        assert osc == pytest.approx(2 * (r - h), abs=1e-12)
        assert 0.0 < 2 * r - osc <= 2 * h + 1e-12

    def test_time_field_matches_brute_oracle_and_window_depth(self):
        q = synthetic_time_quantities()
        r, dt = 1.0, 0.05
        cyl = CylinderSpec((0.0, 0.0), 0.0, r)
        osc = cylinder_oscillation(q, cyl)["f"]
        oracle = brute_oscillation(q.axes, q.times, q.values["f"], (0.0, 0.0), 0.0, r)
        assert osc == oracle
        # the half-open window (s - R^2, s] keeps t = s and drops t = s - R^2,
        # so the sampled depth is R^2 - dt; continuum value is R^2 = 1
        assert osc == pytest.approx(r * r - dt, abs=1e-12)
        assert 0.0 < r * r - osc <= dt + 1e-12

    def test_oscillation_monotone_under_cylinder_inclusion(self):
        q = synthetic_plane_quantities()
        big = cylinder_oscillation(q, CylinderSpec((0.1, -0.2), -0.1, 0.6))["f"]
        small = cylinder_oscillation(q, CylinderSpec((0.1, -0.2), -0.1, 0.3))["f"]
        assert small <= big

    def test_empty_time_window_raises(self):
        q = synthetic_plane_quantities()
        with pytest.raises(EmptyCylinder):
            cylinder_oscillation(q, CylinderSpec((0.0, 0.0), -50.0, 0.5))

    def test_empty_spatial_ball_raises(self):
        q = synthetic_plane_quantities()
        with pytest.raises(EmptyCylinder):
            cylinder_oscillation(q, CylinderSpec((40.0, 0.0), 0.0, 0.5))

    def test_center_dimension_mismatch_raises(self):
        q = synthetic_plane_quantities()
        with pytest.raises(DimensionMismatch):
            cylinder_oscillation(q, CylinderSpec((0.0,), 0.0, 0.5))

    def test_quantity_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            FieldQuantities(
                axes=(np.linspace(0, 1, 5),),
                times=np.zeros(3),
                values={"f": np.zeros((3, 4))},
            )


# ---------------------------------------------------------------------------
# decay-exponent fitting
# ---------------------------------------------------------------------------


class TestHolderFit:
    def test_exact_square_root_law_recovered(self):
        rhos = (1.0, 0.5, 0.25, 0.125)
        fit = holder_exponent_fit(rhos, [r**0.5 for r in rhos])
        assert fit.alpha == pytest.approx(0.5, abs=1e-9)
        assert fit.residual <= 1e-12
        assert not fit.degenerate

    def test_constant_ladder_fits_zero_exponent(self):
        fit = holder_exponent_fit((1.0, 0.5, 0.25), (2.0, 2.0, 2.0))
        assert fit.alpha == pytest.approx(0.0, abs=1e-12)
        assert fit.residual <= 1e-12

    def test_noisy_ladder_reports_misfit(self):
        fit = holder_exponent_fit((1.0, 0.5, 0.25, 0.125), (1.0, 0.7, 0.2, 0.15))
        assert fit.residual > 1e-3
        assert math.isfinite(fit.alpha)

    def test_vanishing_oscillation_is_flagged_not_raised(self):
        fit = holder_exponent_fit((1.0, 0.5, 0.25), (1.0, 0.5, 0.0))
        assert fit.degenerate
        assert fit.alpha == math.inf
        assert fit.residual == 0.0

    def test_short_ladder_raises(self):
        with pytest.raises(DegenerateLadder):
            holder_exponent_fit((1.0, 0.5), (1.0, 0.5))

    def test_nonpositive_radius_raises(self):
        with pytest.raises(DegenerateLadder):
            holder_exponent_fit((1.0, 0.0, -0.5), (1.0, 1.0, 1.0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            holder_exponent_fit((1.0, 0.5, 0.25), (1.0, 0.5))


class TestLadderAndCsv:
    @pytest.fixture()
    def line_quantities(self):
        x = np.linspace(-1.0, 1.0, 41)
        times = np.linspace(-1.0, 0.0, 21)
        f = np.broadcast_to(x[None, :], (21, 41)).copy()
        return FieldQuantities(
            axes=(x,),
            times=times,
            values={"time_speed": np.zeros((21, 41)), "w_e1": f},
        )

    def test_ladder_report_totals_sum_quantities(self, line_quantities):
        cyl = CylinderSpec((0.0,), 0.0, 0.5, ladder=(0.5, 0.25, 0.125))
        rep = oscillation_ladder(line_quantities, cyl)
        assert rep.rhos == (0.5, 0.25, 0.125)
        # time_speed contributes nothing, so totals equal the w_e1 ladder
        assert rep.totals == rep.per_quantity["w_e1"]
        assert rep.per_quantity["time_speed"] == (0.0, 0.0, 0.0)
        assert rep.fits["time_speed"].degenerate
        assert rep.fits["total"].alpha == rep.fits["w_e1"].alpha

    def test_ladder_needs_three_radii(self, line_quantities):
        with pytest.raises(DegenerateLadder):
            oscillation_ladder(
                line_quantities, CylinderSpec((0.0,), 0.0, 0.5, ladder=(0.5, 0.25))
            )

    def test_csv_layout_and_byte_stability(self, line_quantities, tmp_path):
        cyl = CylinderSpec((0.0,), 0.0, 0.5, ladder=(0.5, 0.25, 0.125))
        rep = oscillation_ladder(line_quantities, cyl)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_csv(str(p1), OSCILLATION_CSV_HEADER, oscillation_csv_rows([rep]))
        _write_csv(str(p2), OSCILLATION_CSV_HEADER, oscillation_csv_rows([rep]))
        data = p1.read_bytes()
        assert data == p2.read_bytes()
        assert b"\r" not in data
        lines = data.decode().strip().split("\n")
        assert lines[0] == "cylinder_id,rho,quantity,osc,alpha_fit,fit_residual"
        # three quantities (time_speed, w_e1, total) x three radii
        assert len(lines) == 1 + 9
        assert lines[1] == "cyl0,0.5,time_speed,0,inf,0"
        w_rows = [l.split(",") for l in lines[1:] if l.split(",")[2] == "w_e1"]
        assert [float(r[1]) for r in w_rows] == list(rep.rhos)
        assert [float(r[3]) for r in w_rows] == list(rep.per_quantity["w_e1"])
        assert float(w_rows[0][4]) == rep.fits["w_e1"].alpha


# ---------------------------------------------------------------------------
# parabolic rescaling of descriptions
# ---------------------------------------------------------------------------


def cubic_spec(eps=0.01, drift=0.25):
    """x^2/2 - y^2/2 + eps * x^3 with a constant time drift."""
    expr = {
        "kind": "sum",
        "terms": [
            {
                "kind": "quad",
                "matrix": [[1.0, 0.0], [0.0, -1.0]],
                "linear": [0.0, 0.0],
                "constant": 0.0,
            },
            {
                "kind": "scale",
                "coefficient": eps,
                "term": {
                    "kind": "atom",
                    "fn": "pow",
                    "affine": [1.0, 0.0],
                    "const": 0.0,
                    "exponent": 3,
                },
            },
        ],
    }
    return ExpressionSpec(expr=expr, k=1, l=1, flavor="real", time_drift=drift)


def quad_times_atom_spec():
    """(x^2/2 + 0.3 xy - y^2/2 + 0.2 x - 0.1 y + 0.5) * exp(0.4 x - 0.7 y + 0.1): a quad inside a product."""
    expr = {
        "kind": "product",
        "factors": [
            {
                "kind": "quad",
                "matrix": [[1.0, 0.3], [0.3, -1.0]],
                "linear": [0.2, -0.1],
                "constant": 0.5,
            },
            {"kind": "atom", "fn": "exp", "affine": [0.4, -0.7], "const": 0.1},
        ],
    }
    return ExpressionSpec(expr=expr, k=1, l=1, flavor="real")


class TestRescaleSpec:
    def test_unit_factor_is_identity(self):
        spec = cubic_spec()
        assert parabolic_rescale(spec, 1.0) is spec

    def test_pure_quadratic_is_fixed_for_any_factor(self):
        expr = {
            "kind": "quad",
            "matrix": [[1.0, 0.0], [0.0, 1.0]],
            "linear": [0.0, 0.0],
            "constant": 0.0,
        }
        spec = ExpressionSpec(expr=expr, k=2, l=0, flavor="real")
        scaled = parabolic_rescale(spec, 3.7)
        assert scaled.canonical_json() == spec.canonical_json()

    def test_values_follow_the_scaling_rule(self):
        spec = perturbed_flow_spec(2.0, 1.0, 0.3, modes=[(1.0, 0.5)], weights=[1.0])
        mu = 1.5
        scaled = parabolic_rescale(spec, mu)
        for pt, t in [((0.2, -0.3), 0.0), ((0.5, 0.1), 0.7), ((-0.4, -0.6), -0.2)]:
            big = tuple(mu * c for c in pt)
            assert scaled.value(pt, t) == pytest.approx(
                spec.value(big, mu * mu * t) / mu**2, rel=1e-14, abs=1e-14
            )

    def test_product_of_quad_and_atom_follows_the_scaling_rule(self):
        # a product is not folded: its quad factor is stretched along with the atom
        spec = quad_times_atom_spec()
        mu = 1.7
        scaled = parabolic_rescale(spec, mu)
        for pt in [(0.2, -0.3), (0.5, 0.1), (-0.4, -0.6)]:
            big = tuple(mu * c for c in pt)
            assert scaled.value(pt) == pytest.approx(spec.value(big) / mu**2, rel=1e-14, abs=1e-14)
            np.testing.assert_allclose(
                evaluate_jet(scaled, pt).hessian(), evaluate_jet(spec, big).hessian(), rtol=1e-13, atol=1e-13
            )

    def test_hessian_is_invariant_and_drift_preserved(self):
        spec = reference_flow_spec(math.e, 1.0)
        mu = 2.0
        scaled = parabolic_rescale(spec, mu)
        assert scaled.time_drift == spec.time_drift == 1.0
        pt = (0.3, -0.4)
        big = tuple(mu * c for c in pt)
        np.testing.assert_allclose(
            evaluate_jet(scaled, pt).hessian(), evaluate_jet(spec, big).hessian(), atol=1e-13
        )

    def test_third_derivative_norm_frozen_values(self):
        # x^3 alone: only the xxx entry, value 6*eps
        assert third_derivative_norm(cubic_spec(eps=0.01), (0.3, -0.2)) == pytest.approx(
            0.06, abs=1e-12
        )
        # x^2 y: the xxy entry equals 2 and appears with multiplicity 3
        expr = {
            "kind": "product",
            "factors": [
                {
                    "kind": "quad",
                    "matrix": [[2.0, 0.0], [0.0, 0.0]],
                    "linear": [0.0, 0.0],
                    "constant": 0.0,
                },
                {
                    "kind": "quad",
                    "matrix": [[0.0, 0.0], [0.0, 0.0]],
                    "linear": [0.0, 1.0],
                    "constant": 0.0,
                },
            ],
        }
        spec = ExpressionSpec(expr=expr, k=1, l=1, flavor="real")
        assert third_derivative_norm(spec, (0.7, 0.4)) == pytest.approx(
            math.sqrt(12.0), abs=1e-12
        )

    def test_report_scales_third_derivatives_by_mu(self):
        rep = rescale_report(cubic_spec(), 2.0, point=(0.1, -0.05))
        assert rep.ratio == pytest.approx(2.0, abs=1e-12)
        assert rep.scaled_norm == pytest.approx(2.0 * rep.base_norm, rel=1e-12)

    def test_report_preserves_flow_residual(self):
        rep = rescale_report(cubic_spec(), 2.0, point=(0.1, -0.05))
        assert rep.scaled_residual == pytest.approx(rep.base_residual, abs=1e-12)
        # the drift is 0.25 and F is small but nonzero: the residual is real
        assert abs(rep.base_residual) > 1e-3

    def test_domain_shrinks_and_pullback_is_guarded(self):
        import dataclasses

        spec = dataclasses.replace(cubic_spec(), domain_halfwidth=1.0)
        scaled = parabolic_rescale(spec, 2.0)
        assert scaled.domain_halfwidth == 0.5
        with pytest.raises(DomainExceeded):
            rescale_report(spec, 2.0, point=(0.6, 0.0))

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(TmaError):
            parabolic_rescale(cubic_spec(), -1.0)


class TestRescaleField:
    def test_grid_values_and_speeds_rescale_exactly(self):
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (17, 17), frame=2)
        field = flow_from_spec(reference_flow_spec(math.e, 1.0), grid, dt=1e-3)
        field = run_flow(field, 3, scheme="rk4")
        mu = 2.0
        out = parabolic_rescale_field(field, mu)
        assert out.grid.lo == (-0.5, -0.5)
        assert out.grid.hi == (0.5, 0.5)
        assert out.dt == pytest.approx(field.dt / 4.0)
        np.testing.assert_allclose(out.times, [t / 4.0 for t in field.times], rtol=1e-15)
        for a, b in zip(out.slices, field.slices):
            np.testing.assert_array_equal(a, b / 4.0)
        # the flow value F is invariant under the rescaling, node for node
        inner = grid.interior
        np.testing.assert_allclose(
            discrete_time_speed(out, -1)[inner],
            discrete_time_speed(field, -1)[inner],
            atol=1e-11,
        )

    def test_periodic_policy_carries_over(self):
        grid = BoxGrid((0.0, 0.0), (2 * math.pi, 2 * math.pi), (32, 32), frame=0)
        spec = perturbed_flow_spec(1.0, 1.0, 0.05, modes=[(1.0, 1.0)], weights=[1.0])
        field = flow_from_spec(spec, grid, dt=1e-3, policy=periodic_base_for(1.0, 1.0))
        out = parabolic_rescale_field(field, 2.0)
        assert out.policy == field.policy
        assert out.grid.hi == (math.pi, math.pi)


# ---------------------------------------------------------------------------
# rigidity probes
# ---------------------------------------------------------------------------


class TestRigidity:
    def test_balanced_quadratic_has_unit_det_and_constant_entries(self):
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (33, 33), frame=2)
        field = flow_from_spec(reference_flow_spec(1.0, 1.0), grid, dt=1e-4)
        rep = rigidity_probe(field)
        assert rep.det_deviation <= 1e-11
        assert rep.entry_variation <= 1e-11
        assert rep.n_nodes == 29 * 29

    def test_complex_quadratic_entries_take_frozen_values(self):
        grid = BoxGrid((-1.0,) * 4, (1.0,) * 4, (9,) * 4, frame=2)
        field = flow_from_spec(
            reference_flow_spec(2.0, 1.0, "complex11"), grid, dt=1e-5
        )
        entries = discrete_w_entries(field)
        # u = 2|z|^2 - |w|^2: the complex second derivatives are Z = 2, V = -1,
        # so w00 = 2, w11 = 1, and the mixed entry vanishes
        np.testing.assert_allclose(entries["w00"], 2.0, atol=1e-11)
        np.testing.assert_allclose(entries["w11"], 1.0, atol=1e-11)
        np.testing.assert_allclose(entries["w01_re"], 0.0, atol=1e-11)
        np.testing.assert_allclose(entries["w01_im"], 0.0, atol=1e-11)
        rep = rigidity_probe(field)
        # det W = 2 = exp(F) here, so the unit-det deviation is exactly 1
        assert rep.det_deviation == pytest.approx(1.0, abs=1e-10)
        assert rep.entry_variation <= 1e-10

    def test_balanced_complex_quadratic_is_rigid(self):
        grid = BoxGrid((-1.0,) * 4, (1.0,) * 4, (9,) * 4, frame=2)
        field = flow_from_spec(
            reference_flow_spec(1.0, 1.0, "complex11"), grid, dt=1e-5
        )
        rep = rigidity_probe(field)
        assert rep.det_deviation <= 1e-10
        assert rep.entry_variation <= 1e-10

    @pytest.mark.parametrize("flavor, grid, mode, mixed", [
        pytest.param("real", BoxGrid((-1.0, -1.0), (1.0, 1.0), (33, 33), frame=2),
                     (2.0, 1.0), ("w01",), id="real"),
        pytest.param("complex11", BoxGrid((-1.0,) * 4, (1.0,) * 4, (9,) * 4, frame=2),
                     (2.0, 1.0, -1.0, 0.5), ("w01_re", "w01_im"), id="complex11"),
    ])
    def test_det_of_w_equals_exp_of_flow_value(self, flavor, grid, mode, mixed):
        spec = perturbed_flow_spec(1.0, 1.0, 0.1, flavor, modes=[mode], weights=[1.0])
        field = flow_from_spec(spec, grid, dt=1e-4)
        entries = discrete_w_entries(field)
        assert tuple(entries) == ("w00",) + mixed + ("w11",)
        det = entries["w00"] * entries["w11"] - sum(entries[name] ** 2 for name in mixed)
        speed = discrete_time_speed(field)[grid.interior]
        np.testing.assert_allclose(det, np.exp(speed), rtol=1e-11, atol=1e-11)

    def test_solved_steady_state_is_rigid(self):
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (33, 33), frame=2)
        boundary = reference_flow_spec(1.0, 1.0)
        # the guess must mate with the quadratic frame: a plane-wave ripple
        # jumps at the frame by its amplitude, so keep eps well under h^2/2
        guess = perturbed_flow_spec(1.0, 1.0, 1e-3, modes=[(2.0, 1.0)], weights=[1.0])
        solved = solve_elliptic(boundary, grid, guess=guess)
        rep = rigidity_probe(solved)
        assert rep.det_deviation <= 1e-9
        assert rep.entry_variation <= 1e-8

    def test_unsolved_perturbation_is_not_rigid(self):
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (33, 33), frame=2)
        spec = perturbed_flow_spec(1.0, 1.0, 0.1, modes=[(2.0, 1.0)], weights=[1.0])
        field = flow_from_spec(spec, grid, dt=1e-4)
        rep = rigidity_probe(field)
        assert rep.entry_variation > 1e-3
        assert rep.det_deviation > 1e-3

    @pytest.mark.parametrize("flavor, nodes, message", [
        pytest.param("real", (9, 9), "concave-block second derivative vanishes", id="real"),
        pytest.param("complex11", (7,) * 4, "concave-block complex second derivative vanishes",
                     id="complex11"),
    ])
    def test_vanishing_concave_derivative_raises(self, flavor, nodes, message):
        grid = BoxGrid((-1.0,) * len(nodes), (1.0,) * len(nodes), nodes, frame=2)
        mesh = grid.mesh()
        # convex slot only: u = x^2/2 on the real carrier, |z|^2/2 on the complex one
        flat = FlowField(
            grid=grid,
            policy=FrozenFrame(reference_flow_spec(1.0, 1.0, flavor)),
            dt=1e-3,
            slices=[sum(x**2 for x in mesh[::2]) / 2.0],
            times=[0.0],
        )
        with pytest.raises(IllConditioned, match=message):
            discrete_w_entries(flat)
        with pytest.raises(IllConditioned, match=message):
            rigidity_probe(flat)


# ---------------------------------------------------------------------------
# measured decay on a solved periodic flow
# ---------------------------------------------------------------------------


# measurement site: the ripple sin(x + y) has a node line through (pi, pi),
# so the cylinders sit at (1.5, 1.2) where both the ripple and its gradient
# are of order one
SITE = (1.5, 1.2)
LADDER = (0.5, 0.25, 0.125)


@pytest.fixture(scope="module")
def periodic_run():
    grid = BoxGrid((0.0, 0.0), (2 * math.pi, 2 * math.pi), (64, 64), frame=0)
    spec = perturbed_flow_spec(1.0, 1.0, 0.05, modes=[(1.0, 1.0)], weights=[1.0])
    field = flow_from_spec(spec, grid, dt=1.5e-3, policy=periodic_base_for(1.0, 1.0))
    return run_flow(field, 200, scheme="rk4", snapshot_every=1)


@pytest.fixture(scope="module")
def periodic_quantities(periodic_run):
    return flow_quantities(periodic_run, center=SITE, radius=0.55)


class TestFlowLadder:
    def test_quantity_channels_present(self, periodic_quantities):
        # the channel order is the row order of the oscillation CSV
        real_names = ("time_speed", "w_e1", "w_e2", "w_plus", "w_minus")
        assert periodic_quantities.names == real_names
        assert np.isfinite(
            periodic_quantities.values["time_speed"]
        ).all()
        grid = BoxGrid((0.0,) * 4, (2 * math.pi,) * 4, (6,) * 4, frame=0)
        spec = perturbed_flow_spec(1.0, 1.0, 0.05, "complex11", modes=[(1.0, 0.0, 0.0, 1.0)])
        policy = periodic_base_for(1.0, 1.0, "complex11")
        run = run_flow(flow_from_spec(spec, grid, dt=1e-2, policy=policy), 2)
        assert flow_quantities(run).names == real_names + ("w_iplus", "w_iminus")

    def test_crop_covers_requested_ball(self, periodic_quantities):
        ax = periodic_quantities.axes[0]
        assert ax.min() >= SITE[0] - 0.55 - 0.1
        assert ax.max() <= SITE[0] + 0.55 + 0.1
        assert (np.abs(ax - SITE[0]) < 0.5).any()

    def test_oscillations_decay_down_the_ladder(self, periodic_run, periodic_quantities):
        cyl = CylinderSpec(SITE, periodic_run.times[-1], 0.5, ladder=LADDER)
        rep = oscillation_ladder(periodic_quantities, cyl)
        for name, oscs in rep.per_quantity.items():
            for larger, smaller in zip(oscs, oscs[1:]):
                assert smaller <= larger, name
        for larger, smaller in zip(rep.totals, rep.totals[1:]):
            assert smaller <= larger
        # quarter-radius comparison never grows: P(rho) <= P(4 rho)
        assert rep.totals[2] <= rep.totals[0]
        assert rep.totals[0] > 0.0

    def test_fitted_exponent_is_positive_with_small_misfit(
        self, periodic_run, periodic_quantities
    ):
        cyl = CylinderSpec(SITE, periodic_run.times[-1], 0.5, ladder=LADDER)
        rep = oscillation_ladder(periodic_quantities, cyl)
        fit = rep.fits["total"]
        assert fit.alpha > 0.0
        assert fit.residual < 0.25

    def test_weak_harnack_ratio_recorded(self, periodic_run, periodic_quantities):
        cyl = CylinderSpec(SITE, periodic_run.times[-1], 0.2)
        rec = weak_harnack_diagnostic(periodic_quantities, "w_e1", cyl)
        assert rec.quantity == "w_e1"
        assert rec.p == 2.0
        assert rec.infimum > 0.0
        assert rec.mean_power > 0.0
        assert math.isfinite(rec.ratio)
        assert rec.ratio > 0.0

    def test_empty_crop_raises(self, periodic_run):
        h = 2 * math.pi / 64
        # a quarter-spacing ball centered midway between two nodes holds none
        with pytest.raises(EmptyCylinder):
            flow_quantities(
                periodic_run, center=(15.5 * h, math.pi), radius=h / 4
            )
