"""Acceptance gate: the eleven primary verification criteria.

One numbered test per criterion, asserted at the stated tolerance, each
emitting a single ``[PASS]``/``[FAIL]`` summary line (shown with ``-s``; the
per-test PASSED/FAILED lines of ``pytest -v`` carry the same verdicts).
Criteria that share a sweep (1-2 real, 3-5 complex) draw from module-scoped
fixtures so the timed budget covers exactly one sweep execution.

Nothing here re-derives expected values: each criterion bounds a residual
that is identically zero in exact arithmetic, a measured convergence order,
or a structural property (monotonicity, byte determinism).
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest

from tma.cli import main
from tma.estimates import (
    CylinderSpec,
    flow_quantities,
    oscillation_ladder,
    rescale_report,
    rigidity_probe,
)
from tma.evolution import (
    FlowBlock,
    assemble_Q,
    complexification_scaling,
    complexify_point,
    complexify_real,
    real_evolution_lhs,
)
from tma.funclass import EnsembleSpec, draw_block, draw_member, sample_points
from tma.jets import evaluate_jet, wirtinger_from_real
from tma.legendre import det_transform_residual, real_W
from tma.solver import (
    BoxGrid,
    evaluate_on_grid,
    flow_from_spec,
    periodic_base_for,
    perturbed_flow_spec,
    reference_flow_spec,
    run_flow,
    solve_elliptic,
    spatial_order_estimate,
    time_order_estimate,
)

REAL_SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2))
COMPLEX_SHAPES = ((1, 1), (2, 1), (1, 2))


def report(num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {label} — {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared sweeps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def real_sweep():
    """1000 real draws x 20 points over four (k, l) shapes: criteria 1 and 2."""
    start = time.perf_counter()
    max_det = 0.0
    min_eig = math.inf
    for si, (k, l) in enumerate(REAL_SHAPES):
        es = EnsembleSpec(k=k, l=l, eps=0.1, seed=2026 + si)
        for draw in range(250):
            member = draw_member(es, draw)
            pts = sample_points(es, draw, 20)
            max_det = max(max_det, float(det_transform_residual(member, pts).max()))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(real_W(member, pts))[:, 0].min()))
    return {
        "max_det_residual": max_det,
        "min_w_eigenvalue": min_eig,
        "elapsed": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def complex_sweep():
    """1000 complex draws, one point each, over three shapes: criteria 3-5.

    The draws of each shape are drawn as one block and go through the flow
    identities in one stacked pass.
    """
    start = time.perf_counter()
    worst = {
        "q": -math.inf,
        "g1": -math.inf, "g2": -math.inf, "g3": -math.inf, "g4": -math.inf,
        "evolution": 0.0,
        "heat": 0.0,
    }
    for si, ((k, l), count) in enumerate(zip(COMPLEX_SHAPES, (334, 333, 333))):
        es = EnsembleSpec(k=k, l=l, flavor="complex", eps=0.1, seed=777 + si)
        block = FlowBlock(draw_block(es, 0, count, 1))
        worst["q"] = max(worst["q"], float(block.q_spectrum_max.max()))
        for name, column in zip(("g1", "g2", "g3", "g4"), block.grouping_spectrum_max.T):
            worst[name] = max(worst[name], float(column.max()))
        worst["evolution"] = max(worst["evolution"], float(block.evolution_residual.max()))
        worst["heat"] = max(worst["heat"], float(block.heat_residual.max()))
    worst["elapsed"] = time.perf_counter() - start
    return worst


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_01_determinant_transformation_law(real_sweep):
    ok = real_sweep["max_det_residual"] <= 1e-10 and real_sweep["elapsed"] < 30.0
    report(
        1, "determinant transformation law", ok,
        f"max |det W - det conv/det(-conc)| = {real_sweep['max_det_residual']:.3e} "
        f"<= 1e-10 over 1000 draws x 20 points, 4 shapes; "
        f"sweep {real_sweep['elapsed']:.1f}s < 30s",
    )


def test_02_w_matrix_nonnegativity(real_sweep):
    ok = real_sweep["min_w_eigenvalue"] >= -1e-10
    report(
        2, "transform-matrix nonnegativity", ok,
        f"min eigenvalue = {real_sweep['min_w_eigenvalue']:.3e} >= -1e-10 on the same sweep",
    )


def test_03_source_term_sign(complex_sweep):
    groups_ok = all(complex_sweep[g] <= 1e-8 for g in ("g1", "g2", "g3", "g4"))
    ok = complex_sweep["q"] <= 1e-8 and groups_ok and complex_sweep["elapsed"] < 60.0
    detail = ", ".join(f"{g}={complex_sweep[g]:.2e}" for g in ("g1", "g2", "g3", "g4"))
    report(
        3, "source-term sign", ok,
        f"max eigenvalue = {complex_sweep['q']:.3e} <= 1e-8 over 1000 complex draws; "
        f"groupings {detail} each <= 1e-8; sweep {complex_sweep['elapsed']:.1f}s < 60s",
    )


def test_04_evolution_identity(complex_sweep):
    ok = complex_sweep["evolution"] <= 1e-8
    report(
        4, "evolution identity", ok,
        f"max |(d/dt - L)W - source| = {complex_sweep['evolution']:.3e} <= 1e-8 "
        f"(chain-rule path vs term-by-term assembly) on the same sweep",
    )


def test_05_heat_identity(complex_sweep):
    ok = complex_sweep["heat"] <= 1e-10
    report(
        5, "time-speed heat identity", ok,
        f"max |(d/dt - L) du/dt| = {complex_sweep['heat']:.3e} <= 1e-10 on the same sweep",
    )


def test_06_real_reduction():
    worst = 0.0
    for si, (k, l) in enumerate(REAL_SHAPES):
        es = EnsembleSpec(k=k, l=l, eps=0.1, seed=4040 + si)
        scale = complexification_scaling(k, l)
        for draw in range(25):
            member = draw_member(es, draw)
            lifted = complexify_real(member)
            for x in sample_points(es, draw, 2):
                point = tuple(float(c) for c in x)
                lhs = scale @ real_evolution_lhs(member, point) @ scale
                table = wirtinger_from_real(
                    evaluate_jet(lifted, complexify_point(point), order=4)
                )
                gap = float(np.max(np.abs(lhs - assemble_Q(table).matrix)))
                worst = max(worst, gap)
    ok = worst <= 1e-10
    report(
        6, "real-variables reduction", ok,
        f"max entry gap = {worst:.3e} <= 1e-10, real calculus vs complexified "
        f"assembly after diagonal rescaling, 100 draws x 2 points, 4 shapes",
    )


def test_07_solver_exactness_and_orders():
    start = time.perf_counter()

    spec_r = reference_flow_spec(math.e, 1.0, "real")
    grid_r = BoxGrid((-1.0, -1.0), (1.0, 1.0), (129, 129))
    f = flow_from_spec(spec_r, grid_r, 1.5e-5)
    f = run_flow(f, 4, snapshot_every=4)
    ii = grid_r.interior
    exact = evaluate_on_grid(spec_r, grid_r, time=f.times[-1])
    per_step_real = float(np.abs(f.slices[-1][ii] - exact[ii]).max()) / 4

    spec_c = reference_flow_spec(math.e, 1.0, "complex11")
    grid_c = BoxGrid((-1.0,) * 4, (1.0,) * 4, (17,) * 4)
    fc = flow_from_spec(spec_c, grid_c, 5e-4)
    fc = run_flow(fc, 4, snapshot_every=4)
    iic = grid_c.interior
    exact_c = evaluate_on_grid(spec_c, grid_c, time=fc.times[-1])
    per_step_complex = float(np.abs(fc.slices[-1][iic] - exact_c[iic]).max()) / 4

    ripple = perturbed_flow_spec(
        1.0, 1.0, 0.1, modes=((1.0, 1.0), (2.0, -1.0)), weights=(1.0, 0.5)
    )
    grid_t = BoxGrid((-1.0, -1.0), (1.0, 1.0), (17, 17))
    t_ord = time_order_estimate(flow_from_spec(ripple, grid_t, 8e-4), 8e-4 * 16)
    s_ord = spatial_order_estimate(ripple, grid_t)

    elapsed = time.perf_counter() - start
    ok = (
        per_step_real <= 1e-10
        and per_step_complex <= 1e-10
        and t_ord.order >= 3.5
        and 1.8 <= s_ord.order <= 2.2
        and elapsed < 60.0
    )
    report(
        7, "solver exactness and measured orders", ok,
        f"per-step error {per_step_real:.2e} (129^2) / {per_step_complex:.2e} (17^4) "
        f"<= 1e-10 on the linear-drift solution; time order {t_ord.order:.2f} >= 3.5; "
        f"space order {s_ord.order:.2f} in [1.8, 2.2]; {elapsed:.1f}s < 60s",
    )


def test_08_steady_state_rigidity():
    grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (33, 33), frame=2)
    boundary = reference_flow_spec(1.0, 1.0)
    guess = perturbed_flow_spec(1.0, 1.0, 1e-3, modes=[(2.0, 1.0)], weights=[1.0])
    solved = solve_elliptic(boundary, grid, guess=guess)
    rep = rigidity_probe(solved)
    ok = rep.det_deviation <= 1e-9 and rep.entry_variation <= 1e-8
    report(
        8, "steady-state rigidity", ok,
        f"sup |det W - 1| = {rep.det_deviation:.3e} <= 1e-9 and entry variation "
        f"= {rep.entry_variation:.3e} <= 1e-8 over {rep.n_nodes} nodes",
    )


def test_09_oscillation_decay():
    # class bounds (0.5, 2.0): unit quadratic blocks, ripple amplitude 0.05
    grid = BoxGrid((0.0, 0.0), (2 * math.pi, 2 * math.pi), (128, 128), frame=0)
    h = grid.spacing[0]
    spec = perturbed_flow_spec(1.0, 1.0, 0.05, modes=((1.0, 0.0), (0.0, 1.0)))
    f = flow_from_spec(spec, grid, 1.2e-4, policy=periodic_base_for(1.0, 1.0))
    f = run_flow(f, 2500, snapshot_every=8)

    center = (16 * h, 12 * h)  # on a node, both ripple gradients of unit size
    radius = 0.5
    quantities = flow_quantities(f, center=center, radius=radius + 2 * h)
    cyl = CylinderSpec(center=center, time=f.times[-1], radius=radius)
    rep = oscillation_ladder(quantities, cyl)  # dyadic ladder R, R/2, R/4, R/8

    worst_increase = -math.inf
    for series in list(rep.per_quantity.values()) + [rep.totals]:
        for cur, nxt in zip(series, series[1:]):
            worst_increase = max(worst_increase, nxt - cur)
    total = rep.fits["total"]
    ok = worst_increase <= 0.0 and total.alpha > 0.0 and total.residual < 0.1
    report(
        9, "oscillation decay along the ladder", ok,
        f"ladder {rep.rhos} non-increasing (max increase {worst_increase:.2e} <= 0, "
        f"exact by sample inclusion); fitted exponent {total.alpha:.3f} > 0; "
        f"fit residual {total.residual:.4f} < 0.1 (no target exponent asserted)",
    )


def test_10_parabolic_rescaling_law():
    spec = perturbed_flow_spec(1.0, 1.0, 0.1)
    worst_ratio = 0.0
    worst_residual = 0.0
    for mu in (2.0, 0.5):
        rep = rescale_report(spec, mu)
        worst_ratio = max(worst_ratio, abs(rep.ratio - mu) / mu)
        worst_residual = max(
            worst_residual, abs(rep.scaled_residual - rep.base_residual)
        )
    ok = worst_ratio <= 1e-12 and worst_residual <= 1e-12
    report(
        10, "parabolic rescaling law", ok,
        f"third-derivative norm ratio off by {worst_ratio:.3e} relative (<= 1e-12) "
        f"for mu in {{2, 1/2}}; defect preserved within {worst_residual:.3e}",
    )


def test_11_csv_determinism(tmp_path):
    cfg_path = tmp_path / "qsign.json"
    cfg_path.write_text(json.dumps({"suite": "q-sign", "draws": 1000, "seed": 42}))
    out1, out2 = str(tmp_path / "serial"), str(tmp_path / "parallel")
    code1 = main(["run", "--config", str(cfg_path), "--out", out1, "--workers", "1"])
    code2 = main(["run", "--config", str(cfg_path), "--out", out2, "--workers", "2"])
    blob1 = pathlib.Path(out1, "q-sign.csv").read_bytes()
    blob2 = pathlib.Path(out2, "q-sign.csv").read_bytes()
    n_rows = blob1.count(b"\n") - 1
    ok = code1 == 0 and code2 == 0 and blob1 == blob2 and n_rows == 1000
    report(
        11, "suite-level determinism", ok,
        f"q-sign, 1000 draws, seed 42: exit codes ({code1}, {code2}) both 0, "
        f"{n_rows} rows, CSV byte-identical for 1 vs 2 workers",
    )
