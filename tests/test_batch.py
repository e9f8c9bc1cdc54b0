"""Batched evaluation equals evaluation one item at a time, bit for bit.

Class membership evaluates every point of a cloud in one call, the sweeps
evaluate a block of draws in one stacked pass, and the CSV writer formats a
row with one format string; these properties check each batched result
against the same quantity computed for its item alone, over random draws,
point counts, block sizes and block shapes, including the one-block shapes.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tma import cli
from tma.errors import ClassExit, DegenerateLadder, DimensionMismatch, DomainViolation, ParseError, TmaError
from tma.evolution import (
    FlowBlock,
    assemble_Q,
    wirtinger_derivative_arrays,
    complexification_scaling,
    complexify_point,
    complexify_real,
    evolution_residual,
    flow_report,
    heat_residual,
    real_evolution_lhs,
)
from tma import jets
from tma.funclass import EnsembleSpec, class_membership, default_cloud, draw_block, draw_member, sample_points
from tma.jets import (
    ExpressionSpec,
    SpaceTimeJet,
    SpecBlock,
    _wirtinger_expansion,
    evaluate_hessians,
    evaluate_jet,
    multi_indices,
    stacked_jets,
    wirtinger_from_real,
    wirtinger_hessians,
    wirtinger_keys,
    wirtinger_stack,
)
from tma.legendre import det_transform_residual, partial_legendre, real_W
from tma.linalg import inverse_and_logdet
from tma.estimates import flow_quantities, holder_exponent_fit
from tma.solver import (
    BoxGrid,
    PeriodicBase,
    flow_from_spec,
    flow_from_values,
    hessian_error,
    monitor_class,
    reference_flow_spec,
    run_flow,
    time_order_estimate,
)

SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (0, 1), (0, 2)]

shapes = st.sampled_from(SHAPES)
seeds = st.integers(0, 2**16)
draws = st.integers(0, 50)
counts = st.integers(1, 30)


def _member_and_points(shape, seed, draw, m, flavor="real"):
    es = EnsembleSpec(k=shape[0], l=shape[1], flavor=flavor, seed=seed)
    return draw_member(es, draw), sample_points(es, draw, m)


def _reference_w_and_residual(member, point):
    """W and the determinant-law residual assembled at one point, block by block."""
    a, b, c = evaluate_jet(member, point, order=2).hessian_blocks()
    neg_cinv, _ = inverse_and_logdet(-c)
    cinv = -neg_cinv
    b_cinv = b @ cinv
    w = np.block([[a - b_cinv @ b.T, b_cinv], [b_cinv.T, neg_cinv]])
    w = 0.5 * (w + w.T)
    residual = abs(float(np.linalg.det(w)) - float(np.linalg.det(a)) / float(np.linalg.det(-c)))
    return w, residual


@given(shapes, seeds, draws, counts)
def test_stacked_legendre_equals_per_point(shape, seed, draw, m):
    member, pts = _member_and_points(shape, seed, draw, m)
    n = sum(shape)
    w = real_W(member, pts)
    res = det_transform_residual(member, pts)
    assert w.shape == (m, n, n) and res.shape == (m,)
    for i, point in enumerate(pts):
        w_ref, res_ref = _reference_w_and_residual(member, point)
        one = det_transform_residual(member, point)
        assert isinstance(one, float)
        assert np.array_equal(w[i], w_ref) and np.array_equal(real_W(member, point), w_ref)
        assert res[i] == one == res_ref


_ES21 = EnsembleSpec(k=2, l=1, seed=5)
_REAL21 = draw_member(_ES21, 0)
_COMPLEX11 = draw_member(EnsembleSpec(k=1, l=1, flavor="complex", seed=5), 0)


def _flow9(dt=1e-4):
    return flow_from_spec(reference_flow_spec(2.0, 1.0), BoxGrid((-1.0, -1.0), (1.0, 1.0), (9, 9)), dt)


def _nan_flow9():
    """``_flow9`` with a NaN interior: a slice no class check may pass."""
    f = _flow9()
    f.slices[0][f.grid.interior] = np.nan
    return f


def _flow9_at(time):
    f = _flow9()
    return flow_from_values(f.slices[0], f.grid, f.dt, f.policy, time=time)


# Empty inputs give empty results; other degenerate inputs raise a package
# error.  The k = l = 0 case only builds the spec: a draw from it used to
# loop forever, so a regression must fail here rather than hang.
_DEGENERATE_INPUTS = {
    "evaluate_hessians": (lambda: evaluate_hessians(_REAL21, np.zeros((0, 3))), (0, 3, 3)),
    "wirtinger_hessians": (lambda: wirtinger_hessians(_COMPLEX11, np.zeros((0, 4))), (0, 2, 2)),
    "real_W": (lambda: real_W(_REAL21, np.zeros((0, 3))), (0, 3, 3)),
    "det_transform_residual": (lambda: det_transform_residual(_REAL21, np.zeros((0, 3))), (0,)),
    "partial_legendre_long_z": (lambda: partial_legendre(_REAL21, [0.0, 0.0], [0.0, 0.0]), DimensionMismatch),
    "partial_legendre_short_x": (lambda: partial_legendre(_REAL21, [0.0], [0.0]), DimensionMismatch),
    "hessian_error": (
        lambda: hessian_error(reference_flow_spec(2.0, 1.0), BoxGrid((-1.0, -1.0), (1.0, 1.0), (9, 9)), samples=[]),
        0.0,
    ),
    "FlowBlock": (lambda: FlowBlock([], np.zeros((0, 1, 4))), DimensionMismatch),
    "class_membership": (lambda: class_membership(_REAL21, np.zeros((0, 3)), 0.5, 2.0), DimensionMismatch),
    "EnsembleSpec_k0_l0": (lambda: EnsembleSpec(k=0, l=0, seed=5), ParseError),
    "EnsembleSpec_negative_k": (lambda: EnsembleSpec(k=-1, l=2), ParseError),
    "EnsembleSpec_fractional_k": (lambda: EnsembleSpec(k=1.5, l=1), ParseError),
    "EnsembleSpec_float_l": (lambda: EnsembleSpec(k=1, l=1.0), ParseError),
    "EnsembleSpec_negative_seed": (lambda: EnsembleSpec(k=1, l=1, seed=-1), ParseError),
    "EnsembleSpec_negative_a": (lambda: EnsembleSpec(k=1, l=1, a=-1.0), ParseError),
    "EnsembleSpec_zero_b": (lambda: EnsembleSpec(k=1, l=1, b=0.0), ParseError),
    "EnsembleSpec_negative_halfwidth": (lambda: EnsembleSpec(k=1, l=1, domain_halfwidth=-1.0), ParseError),
    "EnsembleSpec_inf_halfwidth": (lambda: EnsembleSpec(k=1, l=1, domain_halfwidth=np.inf), ParseError),
    "EnsembleSpec_inf_a": (lambda: EnsembleSpec(k=1, l=1, a=np.inf), ParseError),
    "EnsembleSpec_inf_b": (lambda: EnsembleSpec(k=1, l=1, b=np.inf), ParseError),
    "EnsembleSpec_negative_n_atoms": (lambda: EnsembleSpec(k=1, l=1, n_atoms=-2), ParseError),
    "EnsembleSpec_fractional_n_atoms": (lambda: EnsembleSpec(k=1, l=1, n_atoms=1.5), ParseError),
    "EnsembleSpec_negative_eps": (lambda: EnsembleSpec(k=1, l=1, eps=-3.0), ParseError),
    "draw_member_negative_index": (lambda: draw_member(_ES21, -1), TmaError),
    "sample_points_negative_index": (lambda: sample_points(_ES21, -1, 3), TmaError),
    "sample_points_negative_count": (lambda: sample_points(_ES21, 0, -1), DimensionMismatch),
    "sample_points_no_points": (lambda: sample_points(_ES21, 0, 0), (0, 3)),
    "evaluate_jet_negative_order": (lambda: evaluate_jet(_REAL21, [0.0, 0.0, 0.0], order=-1), TmaError),
    "stacked_jets_negative_order": (lambda: stacked_jets([_REAL21], np.zeros((1, 1, 3)), order=-1), TmaError),
    "default_cloud_dim0": (lambda: default_cloud(0), DimensionMismatch),
    "time_order_estimate_dt0": (lambda: time_order_estimate(_flow9(0.0), 1e-3), TmaError),
    "time_order_estimate_nan_time": (lambda: time_order_estimate(_flow9(), float("nan")), TmaError),
    "time_order_estimate_inf_time": (lambda: time_order_estimate(_flow9(), float("inf")), TmaError),
    "flow_quantities_short_center": (lambda: flow_quantities(_flow9(), center=(0.0,), radius=0.5), DimensionMismatch),
    "flow_quantities_long_center": (
        lambda: flow_quantities(_flow9(), center=(0.0, 0.0, 0.0), radius=0.5), DimensionMismatch),
    "flow_quantities_center_only": (lambda: flow_quantities(_flow9(), center=(0.0, 0.0)), TmaError),
    "flow_quantities_radius_only": (lambda: flow_quantities(_flow9(), radius=0.5), TmaError),
    "run_flow_nan_slice": (lambda: run_flow(_nan_flow9(), 1), ClassExit),
    "run_flow_semi_implicit_nan_slice": (lambda: run_flow(_nan_flow9(), 1, scheme="semi-implicit"), ClassExit),
    "flow_quantities_nan_slice": (lambda: flow_quantities(_nan_flow9()), ClassExit),
    "flow_from_values_inf_dt": (lambda: _flow9(float("inf")), TmaError),
    "flow_from_values_nan_time": (lambda: _flow9_at(float("nan")), TmaError),
    "flow_from_values_inf_time": (lambda: _flow9_at(float("inf")), TmaError),
    "BoxGrid_inf_lo": (lambda: BoxGrid((-np.inf, -1.0), (1.0, 1.0), (9, 9)), TmaError),
    "BoxGrid_nan_hi": (lambda: BoxGrid((-1.0, -1.0), (1.0, np.nan), (9, 9)), TmaError),
    "PeriodicBase_nan_coefficient": (lambda: PeriodicBase((np.nan, -1.0)), TmaError),
    "PeriodicBase_inf_coefficient": (lambda: PeriodicBase((1.0, -np.inf)), TmaError),
    "holder_exponent_fit_nan_radius": (lambda: holder_exponent_fit([1.0, 0.5, np.nan], [1.0, 0.5, 0.25]),
                                       DegenerateLadder),
    "holder_exponent_fit_inf_radius": (lambda: holder_exponent_fit([np.inf, 0.5, 0.25], [1.0, 0.5, 0.25]),
                                       DegenerateLadder),
    "holder_exponent_fit_nan_oscillation": (lambda: holder_exponent_fit([1.0, 0.5, 0.25], [1.0, np.nan, 0.25]),
                                            DegenerateLadder),
    "holder_exponent_fit_inf_oscillation": (lambda: holder_exponent_fit([1.0, 0.5, 0.25], [1.0, np.inf, 0.25]),
                                            DegenerateLadder),
    "holder_exponent_fit_minus_inf_oscillation": (
        lambda: holder_exponent_fit([1.0, 0.5, 0.25], [1.0, 0.5, -np.inf]), DegenerateLadder),
}


@pytest.mark.parametrize("name", list(_DEGENERATE_INPUTS))
def test_empty_inputs_give_empty_results_or_dimension_mismatch(name):
    call, expected = _DEGENERATE_INPUTS[name]
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    elif isinstance(expected, float):
        assert call() == expected
    else:
        assert call().shape == expected


def test_monitor_class_flags_a_nan_slice():
    series = monitor_class(_nan_flow9(), 0.5, 4.0)
    assert series.first_violation == 0
    assert monitor_class(_flow9(), 0.5, 4.0).first_violation is None


@given(st.integers(1, 4), counts, seeds, st.booleans())
def test_stacked_inverse_and_logdet_equals_per_matrix(n, m, seed, is_complex):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(m, n, n))
    if is_complex:
        g = g + 1j * rng.normal(size=(m, n, n))
    stack = g @ np.swapaxes(g.conj(), -1, -2) + n * np.eye(n)
    inv, logdet = inverse_and_logdet(stack)
    assert inv.shape == (m, n, n) and logdet.shape == (m,)
    for i in range(m):
        inv_i, logdet_i = inverse_and_logdet(stack[i])
        assert isinstance(logdet_i, float)
        assert np.array_equal(inv[i], inv_i) and logdet[i] == logdet_i


def _reference_bounds(spec, cloud):
    """Per-point block eigenvalue bounds from one jet each, (inf, -inf) for an empty block."""
    out = []
    for point in cloud:
        jet = evaluate_jet(spec, point, order=2)
        if spec.flavor == "real":
            a, _, c = jet.hessian_blocks()
        else:
            a, _, c = wirtinger_from_real(jet).second_blocks()
        row = []
        for block in (a, -c):
            vals = np.linalg.eigvalsh(block) if block.size else np.array([np.inf, -np.inf])
            row += [vals[0], vals[-1]]
        out.append(row)
    return np.array(out)


@given(
    shapes,
    st.sampled_from(["real", "complex"]),
    seeds,
    draws,
    counts,
    st.sampled_from([(0.5, 2.0), (0.95, 1.05), (0.99, 1.0)]),
)
def test_class_membership_equals_per_point_reference(shape, flavor, seed, draw, m, bounds):
    spec, cloud = _member_and_points(shape, seed, draw, m, flavor)
    lam, Lam = bounds
    report = class_membership(spec, cloud, lam, Lam)
    ref = _reference_bounds(spec, cloud)
    assert np.array_equal(report.bounds, ref)
    lows, highs = ref[:, 0::2], ref[:, 1::2]
    ok = [
        all(not np.isfinite(lo) or (lo >= lam - 1e-9 and hi <= Lam + 1e-9) for lo, hi in zip(lr, hr))
        for lr, hr in zip(lows, highs)
    ]
    assert report.member == all(ok)
    expected = None if all(ok) else tuple(cloud[ok.index(False)])
    assert report.first_violation == expected


# ---------------------------------------------------------------------------
# blocks of draws: stacked jets and the flow-suite rows
# ---------------------------------------------------------------------------

block_sizes = st.integers(1, 2 * cli._BLOCK + 1)


def _with_domain_atom(member, fn, const):
    """``member`` plus a small log or pow atom whose argument can leave its domain."""
    atom = {"kind": "atom", "fn": fn, "affine": [0.5] + [0.0] * (member.nvars - 1), "const": const}
    if fn == "pow":
        atom["exponent"] = 1.5
    expr = {"kind": "sum", "terms": [member.expr, {"kind": "scale", "coefficient": 0.01, "term": atom}]}
    return ExpressionSpec(expr=expr, k=member.k, l=member.l, flavor=member.flavor)


@given(
    shapes,
    st.sampled_from(["real", "complex"]),
    seeds,
    draws,
    block_sizes,
    st.sampled_from([0, 1, 2, 3, 20]),
    st.sampled_from([0, 2, 4]),
    st.none() | st.lists(st.tuples(st.sampled_from(["log", "pow"]), st.floats(-0.6, 2.0)), min_size=1),
)
def test_stacked_jets_equal_per_member_jets(shape, flavor, seed, first, size, p, order, domain_atoms):
    es = EnsembleSpec(k=shape[0], l=shape[1], flavor=flavor, seed=seed)
    members = [draw_member(es, first + r) for r in range(size)]
    if domain_atoms is not None:  # per-member fn, exponent and const, some rows outside the domain
        members = [_with_domain_atom(s, *domain_atoms[r % len(domain_atoms)]) for r, s in enumerate(members)]
    pts = np.stack([sample_points(es, first + r, p) for r in range(size)])
    try:
        jets = [[evaluate_jet(s, x, order=order) for x in xs] for s, xs in zip(members, pts)]
    except DomainViolation:
        with pytest.raises(DomainViolation):
            stacked_jets(members, pts, order)
        return
    stacked = stacked_jets(members, pts, order)
    want = np.array([[jet.table for jet in row] for row in jets]).reshape(size, p, len(multi_indices(es.nvars, order)))
    assert stacked.shape == want.shape and np.array_equal(stacked, want)
    if order < 2:
        return
    # each per-point jet is a row of the stacked arrays, its Hessian and Wirtinger table too
    k, l = shape
    entries = wirtinger_stack(stacked, k, l, order).entries if flavor == "complex" else None
    for r, (s, xs) in enumerate(zip(members, pts)):
        hessians = evaluate_hessians(s, xs)
        for i, jet in enumerate(jets[r]):
            assert np.array_equal(jet.hessian(), hessians[i])
        if entries is None:
            continue
        blocks = wirtinger_hessians(s, xs)
        for i, jet in enumerate(jets[r]):
            table = wirtinger_from_real(jet)
            assert np.array_equal(table.entries, entries[r, i])
            z, mm, v = table.second_blocks()
            assert np.array_equal(z, blocks[i, :k, :k]) and np.array_equal(mm, blocks[i, :k, k:])
            assert np.array_equal(v, blocks[i, k:, k:])


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _assert_same_stacked_tree(got, want, rows):
    """A drawn tree equals ``want``, the ``_stack_tree`` of its members, bit for bit.

    For one member ``_stack_tree`` returns the member's own tree, whose atom
    leaves are the one row of the drawn arrays and which has no exponent.
    """
    assert got["kind"] == want["kind"]
    kind = got["kind"]
    if kind == "sum":
        assert len(got["terms"]) == len(want["terms"])
        for g, w in zip(got["terms"], want["terms"]):
            _assert_same_stacked_tree(g, w, rows)
    elif kind == "scale":
        assert np.shape(got["coefficient"]) == (rows,)
        assert _bits(got["coefficient"]) == _bits(want["coefficient"])
        _assert_same_stacked_tree(got["term"], want["term"], rows)
    elif kind == "quad":  # common to every member, so kept as it is
        assert got.keys() == want.keys() and got["constant"] == want["constant"]
        assert _bits(got["matrix"]) == _bits(want["matrix"]) and _bits(got["linear"]) == _bits(want["linear"])
    else:
        assert got.keys() == want.keys() | {"exponent"}
        assert got["fn"] == (want["fn"] if rows > 1 else (want["fn"],))
        assert got["exponent"] == want.get("exponent", (None,))
        assert np.shape(got["affine"]) == (rows, len(got["affine"][0])) and np.shape(got["const"]) == (rows,)
        assert _bits(got["affine"]) == _bits(want["affine"]) and _bits(got["const"]) == _bits(want["const"])


@given(
    shapes,
    st.sampled_from(["real", "complex"]),
    seeds,
    draws,
    block_sizes,
    st.integers(0, 3),
    st.sampled_from([0, 1, 3]),
)
def test_drawn_block_equals_stacked_members(shape, flavor, seed, first, size, p, n_atoms):
    es = EnsembleSpec(k=shape[0], l=shape[1], flavor=flavor, n_atoms=n_atoms, seed=seed)
    members = [draw_member(es, first + r) for r in range(size)]
    pts = np.stack([sample_points(es, first + r, p) for r in range(size)])
    block, want = draw_block(es, first, size, p), SpecBlock.of(members, pts)
    assert (block.k, block.l, block.flavor, block.nvars) == (want.k, want.l, want.flavor, want.nvars)
    assert block.points.shape == pts.shape and _bits(block.points) == _bits(pts)
    assert _bits(block.halfwidth) == _bits(want.halfwidth)
    _assert_same_stacked_tree(block.tree, want.tree, size)
    # and the engine reads both alike, a lone member's one-row leaves included
    assert block.jets(2).tobytes() == stacked_jets(members, pts, 2).tobytes()


def test_sweep_blocks_walk_no_tree(monkeypatch):
    # the package builds every sweep block and every drawn or complexified
    # member from a validated EnsembleSpec, so no tree is walked
    calls = []
    walk = jets._validate_node
    monkeypatch.setattr(jets, "_validate_node", lambda *args: calls.append(args) or walk(*args))
    for suite, sweep in cli._SWEEPS.items():
        k, l = sweep.shapes[-1]
        cli._sweep_block_rows((suite, k, l, 1.0, 1.0, 0.1, 3, 1, 3, 2))
    complexify_real(draw_member(_ES21, 4))
    assert calls == []
    ExpressionSpec(expr=_REAL21.expr, k=2, l=1)  # a caller's tree still is
    assert calls


def _per_point_rows(suite, k, l, seed, first, size, p):
    """The rows of a block from one public call per point, as a traced replay makes them."""
    flavor = cli._SWEEPS[suite].flavor
    es = EnsembleSpec(k=k, l=l, flavor=flavor, seed=seed)
    rows = []
    for draw in range(first, first + size):
        member = draw_member(es, draw)
        for i, x in enumerate(sample_points(es, draw, p)):
            point = tuple(float(c) for c in x)
            if suite == "det-law":
                values = (det_transform_residual(member, point),)
            elif suite == "w-psd":
                values = (float(np.linalg.eigvalsh(real_W(member, point))[0]),)
            elif suite == "q-sign":
                rep = flow_report(member, point)
                values = (rep.q_spectrum_max,) + tuple(v for _, v in rep.grouping_spectrum_max)
            elif suite == "evolution-identity":
                values = (evolution_residual(member, point),)
            elif suite == "heat-identity":
                values = (heat_residual(member, point),)
            else:
                d = complexification_scaling(k, l)
                lhs = d @ real_evolution_lhs(member, point) @ d
                lifted = evaluate_jet(complexify_real(member), complexify_point(point), order=4)
                values = (float(np.max(np.abs(lhs - assemble_Q(wirtinger_from_real(lifted)).matrix))),)
            rows.append((draw, k, l, i) + values)
    return rows


@settings(max_examples=40)
@given(
    st.sampled_from(["q-sign", "evolution-identity", "heat-identity", "real-complexify"]),
    st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]),
    seeds,
    draws,
    block_sizes,
    st.integers(1, 2),
)
def test_flow_block_rows_equal_per_point_calls(suite, shape, seed, first, size, p):
    k, l = shape
    block = cli._sweep_block_rows((suite, k, l, 1.0, 1.0, 0.1, seed, first, size, p))
    assert block == _per_point_rows(suite, k, l, seed, first, size, p)


def test_flow_block_report_of_every_row_equals_flow_report():
    # every field of every row's report, the provenance of the source included, against a block of one
    es = EnsembleSpec(k=2, l=1, flavor="complex", eps=0.1, seed=19)
    members = [draw_member(es, draw) for draw in range(16)]
    pts = [sample_points(es, draw, 1) for draw in range(16)]
    block = FlowBlock(members, pts)
    for r, (member, xs) in enumerate(zip(members, pts)):
        got, want = block.report(r), flow_report(member, tuple(float(c) for c in xs[0]))
        assert got.q.matrix.tobytes() == want.q.matrix.tobytes(), r
        assert got.q.provenance == want.q.provenance, r
        assert got.q.hermitian_defect == want.q.hermitian_defect, r
        assert got.lhs.tobytes() == want.lhs.tobytes(), r
        assert (got.evolution_residual, got.heat_residual) == (want.evolution_residual, want.heat_residual), r
        assert got.q_spectrum_max == want.q_spectrum_max, r
        assert got.grouping_spectrum_max == want.grouping_spectrum_max, r


@settings(max_examples=40)
@given(
    st.sampled_from(["det-law", "w-psd"]),
    st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]),
    seeds,
    draws,
    block_sizes,
    st.sampled_from([1, 2, 3, 20, 21]),
)
def test_legendre_block_rows_equal_per_point_calls(suite, shape, seed, first, size, p):
    # every row of a Legendre block against one public call per point
    k, l = shape
    block = cli._sweep_block_rows((suite, k, l, 1.0, 1.0, 0.1, seed, first, size, p))
    assert block == _per_point_rows(suite, k, l, seed, first, size, p)


_CELLS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.text(alphabet="abc%-_.0123456789", max_size=8),
)


@settings(max_examples=60)
@given(st.lists(st.lists(_CELLS, max_size=6).map(tuple), max_size=12))
def test_csv_writer_equals_cell_by_cell_formatting(tmp_path_factory, rows):
    # one %-format per row type signature, against the documented rule on every cell:
    # a string as it is, an integer (not a bool) in decimal, anything else as float(v) to 17 digits
    def cell(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
            return str(int(v))
        return format(float(v), ".17g")

    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    cli._write_csv(str(path), ("a", "b"), rows)
    want = "\n".join(["a,b"] + [",".join(map(cell, row)) for row in rows]) + "\n"
    assert path.read_bytes() == want.encode()


# ---------------------------------------------------------------------------
# the cached gathers equal the loops they replaced
# ---------------------------------------------------------------------------


def _loop_wirtinger_entries(table, m, order):
    """Reference: each key's expansion summed term by term, skipping absent and zero partials."""
    out = {}
    for hol in multi_indices(m, order):
        for anti in multi_indices(m, order - sum(hol)):
            acc = 0.0 + 0.0j
            for beta, coeff in _wirtinger_expansion(m, hol, anti):
                v = table.get(beta)
                if v is not None and v != 0.0:
                    acc += coeff * v
            out[(hol, anti)] = acc
    return out


def _loop_derivative_arrays(table, total):
    """Reference: every entry of every signature array read by ``table.d`` over ``np.ndindex``."""
    k, l, m = table.k, table.l, table.m
    out = {}
    for nhz in range(total + 1):
        for nhw in range(total + 1 - nhz):
            for naz in range(total + 1 - nhz - nhw):
                naw = total - nhz - nhw - naz
                shape = (k,) * nhz + (l,) * nhw + (k,) * naz + (l,) * naw
                arr = np.zeros(shape, dtype=complex)
                for idx in np.ndindex(shape):
                    hol, anti = [0] * m, [0] * m
                    slots = [(hol, 0)] * nhz + [(hol, k)] * nhw + [(anti, 0)] * naz + [(anti, k)] * naw
                    for (side, offset), i in zip(slots, idx):
                        side[offset + i] += 1
                    arr[idx] = table.d(tuple(hol), tuple(anti))
                out[(nhz, nhw, naz, naw)] = arr
    return out


@settings(max_examples=30)
@given(st.integers(1, 3), st.integers(0, 4), seeds)
def test_wirtinger_conversion_equals_term_by_term_loop(m, order, seed):
    rng = np.random.default_rng(seed)
    betas = multi_indices(2 * m, order)
    values = rng.normal(size=len(betas)) * (rng.random(len(betas)) < 0.8)  # some exact zeros
    jet = SpaceTimeJet(nvars=2 * m, order=order, k=m, l=0, flavor="complex", table=values)
    got = wirtinger_from_real(jet).entries
    want = _loop_wirtinger_entries(dict(zip(betas, values.tolist())), m, order)
    assert list(wirtinger_keys(m, order)) == list(want)
    assert all(got[c] == want[key] for c, key in enumerate(want))


@settings(max_examples=30)
@given(shapes, seeds, draws, st.integers(2, 4))
def test_derivative_arrays_equal_ndindex_loop(shape, seed, draw, total):
    member, pts = _member_and_points(shape, seed, draw, 1, "complex")
    table = wirtinger_from_real(evaluate_jet(member, pts[0], order=4))
    got = wirtinger_derivative_arrays(table, total)
    want = _loop_derivative_arrays(table, total)
    assert list(got) == list(want)
    assert all(got[sig].shape == want[sig].shape and np.array_equal(got[sig], want[sig]) for sig in want)
