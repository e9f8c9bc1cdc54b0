"""Flow-identity, source-matrix, and complexification tests.

The expected source matrix for the cubic witness is derived by an in-test
oracle (hand differentiation of the one-variable log-determinant, documented
at the oracle) and frozen; the flow identity itself is checked by comparing
two deliberately independent evaluation routes.
"""

import types

import numpy as np
import pytest

from tma import evolution, jets
from tma.errors import DimensionMismatch, NotPositiveDefinite, TmaError
from tma.evolution import (
    FlowReport,
    QTensor,
    _ADJOINT_PAIRS,
    _term_stack,
    assemble_Q,
    complexification_scaling,
    complexify_point,
    complexify_real,
    evolution_lhs,
    evolution_residual,
    flow_report,
    heat_residual,
    q_sign_groupings,
    real_evolution_lhs,
    subsolution_spectrum,
)
from tma.funclass import EnsembleSpec, draw_member, sample_points
from tma.jets import ExpressionSpec, evaluate_jet, wirtinger_from_real, wirtinger_keys
from tma.linalg import transformed_hessian
from tma.twistedops import complex_W

# ---------------------------------------------------------------------------
# oracle: the cubic witness, worked by hand
#
# u = |z|^2 + eps * Re(z^2 zbar) - |w|^2 on C x C.  Writing s = z + zbar:
#   u_{z zbar}      = 1 + eps * s          (one z- and one zbar-derivative
#   u_{z zbar z}    = eps                   of Re(z^2 zbar) = (z^2 zbar +
#   u_{w wbar}      = -1                    zbar^2 z)/2)
# and every mixed z/w third derivative vanishes.  The source matrix of the
# flow identity is then the rank-one convex-block expression
#   Q_{z zbar} = -|u_{z zbar z}|^2 / u_{z zbar}^2 = -eps^2 / (1 + eps s)^2,
# all other entries zero.  On the real slice s = 2x.
# ---------------------------------------------------------------------------


def cubic_source_oracle(eps: float, x: float) -> np.ndarray:
    base = 1.0 + 2.0 * eps * x
    return np.diag([-eps * eps / (base * base), 0.0])


FROZEN_ORIGIN = -0.01  # eps = 0.1 at x = 0: -eps^2 exactly
FROZEN_SHIFTED = -0.009802960494069214  # eps = 0.1 at x = 0.05: -0.01 / 1.01^2

assert abs(cubic_source_oracle(0.1, 0.0)[0, 0] - FROZEN_ORIGIN) < 1e-15
assert abs(cubic_source_oracle(0.1, 0.05)[0, 0] - FROZEN_SHIFTED) < 1e-15


def cubic_spec(eps: float) -> ExpressionSpec:
    """u = |z|^2 + eps*Re(z^2 zbar) - |w|^2 on coordinates [Xz, Xw, Yz, Yw]."""
    quad = {
        "kind": "quad",
        "matrix": [[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, 2, 0], [0, 0, 0, -2]],
        "linear": [0, 0, 0, 0],
        "constant": 0,
    }
    # Re(z^2 zbar) = Xz * (Xz^2 + Yz^2)
    lin = {"kind": "quad", "matrix": [[0] * 4 for _ in range(4)], "linear": [1, 0, 0, 0], "constant": 0}
    sq = {
        "kind": "quad",
        "matrix": [[2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]],
        "linear": [0, 0, 0, 0],
        "constant": 0,
    }
    cubic = {"kind": "scale", "coefficient": eps, "term": {"kind": "product", "factors": [lin, sq]}}
    return ExpressionSpec(expr={"kind": "sum", "terms": [quad, cubic]}, k=1, l=1, flavor="complex")


def complex_quad(a: float = 1.0, b: float = 1.0, eps: float = 0.0) -> ExpressionSpec:
    """a|z|^2 - b|w|^2 + eps*Re(z wbar) on coordinates [Xz, Xw, Yz, Yw]."""
    m = [
        [2 * a, eps, 0, 0],
        [eps, -2 * b, 0, 0],
        [0, 0, 2 * a, eps],
        [0, 0, eps, -2 * b],
    ]
    expr = {"kind": "quad", "matrix": m, "linear": [0.0] * 4, "constant": 0.0}
    return ExpressionSpec(expr=expr, k=1, l=1, flavor="complex")


def cubic_table(eps: float, point=(0.0, 0.1, 0.0, -0.2)):
    return wirtinger_from_real(evaluate_jet(cubic_spec(eps), point, order=4))


SWEEP_SHAPES = ((1, 1), (2, 1), (1, 2))
ONE_BLOCK_SHAPES = ((1, 0), (2, 0), (0, 1), (0, 2))


# ---------------------------------------------------------------------------
# source matrix
# ---------------------------------------------------------------------------


def test_source_matrix_zero_on_quadratics_exactly():
    table = wirtinger_from_real(evaluate_jet(complex_quad(1.5, 0.7, 0.4), (0.3, -0.2, 0.1, 0.5), order=4))
    q = assemble_Q(table)
    assert np.all(q.matrix == 0.0)
    assert q.provenance == ()
    assert q.hermitian_defect == 0.0


def test_cubic_source_matches_hand_formula():
    eps = 0.1
    at_origin = assemble_Q(cubic_table(eps)).matrix
    assert abs(at_origin[0, 0] - FROZEN_ORIGIN) < 1e-14
    assert np.max(np.abs(at_origin - cubic_source_oracle(eps, 0.0))) < 1e-14

    shifted = assemble_Q(cubic_table(eps, (0.05, 0.1, 0.0, -0.2))).matrix
    assert abs(shifted[0, 0] - FROZEN_SHIFTED) < 1e-12
    assert np.max(np.abs(shifted - cubic_source_oracle(eps, 0.05))) < 1e-12


def test_cubic_provenance_names_single_contraction():
    q = assemble_Q(cubic_table(0.1))
    assert tuple(name for name, _ in q.provenance) == ("zz01",)
    assert q.provenance[0][1] == pytest.approx(0.01, abs=1e-14)


def test_subsolution_spectrum_cubic():
    table = cubic_table(0.1)
    eigs = np.sort(np.linalg.eigvalsh(assemble_Q(table).matrix))
    assert np.allclose(eigs, [-0.01, 0.0], atol=1e-13)
    assert abs(subsolution_spectrum(table)) < 1e-13


def test_groupings_partition_source_and_are_nsd():
    for k, l in SWEEP_SHAPES:
        es = EnsembleSpec(k=k, l=l, flavor="complex", eps=0.1, seed=23)
        member = draw_member(es, 1)
        point = sample_points(es, 1, 1)[0]
        table = wirtinger_from_real(evaluate_jet(member, point, order=4))
        groups = q_sign_groupings(table)
        assert sorted(groups) == ["g1", "g2", "g3", "g4"]
        total = sum(groups.values())
        q = assemble_Q(table).matrix
        assert np.max(np.abs(total - q)) < 1e-14
        for gname, g in groups.items():
            assert np.max(np.abs(g - g.conj().T)) == 0.0
            assert np.max(np.linalg.eigvalsh(g)) < 1e-10, gname


def test_groupings_on_cubic_isolate_first_family():
    groups = q_sign_groupings(cubic_table(0.1))
    assert np.max(np.abs(groups["g1"] - cubic_source_oracle(0.1, 0.0))) < 1e-14
    for gname in ("g2", "g3", "g4"):
        assert np.all(groups[gname] == 0.0)


def test_off_diagonal_blocks_are_adjoint_pairs():
    es = EnsembleSpec(k=2, l=1, flavor="complex", eps=0.1, seed=7)
    member = draw_member(es, 0)
    point = sample_points(es, 0, 1)[0]
    table = wirtinger_from_real(evaluate_jet(member, point, order=4))
    terms = {name: t[..., 0] for name, t in _term_stack(table).items()}
    for wz_name, zw_name in _ADJOINT_PAIRS.items():
        gap = np.max(np.abs(terms[wz_name] - terms[zw_name].conj().T))
        assert gap < 1e-14, (wz_name, zw_name)


def test_source_requires_third_order_data():
    table = wirtinger_from_real(evaluate_jet(cubic_spec(0.1), (0.0,) * 4, order=2))
    with pytest.raises(DimensionMismatch):
        assemble_Q(table)


def test_source_rejects_non_member():
    # both blocks convex: the concave-block inverse guard must trip
    m = np.diag([2.0, 2.0, 2.0, 2.0]).tolist()
    spec = ExpressionSpec(
        expr={"kind": "quad", "matrix": m, "linear": [0.0] * 4, "constant": 0.0},
        k=1,
        l=1,
        flavor="complex",
    )
    table = wirtinger_from_real(evaluate_jet(spec, (0.0,) * 4, order=4))
    with pytest.raises(NotPositiveDefinite):
        assemble_Q(table)


def test_hermitian_defect_guard_trips_on_corrupted_table():
    table = cubic_table(0.1)
    key = ((1, 0), (1, 1))  # one z-derivative, one zbar- and one wbar-derivative
    c = wirtinger_keys(table.m, table.order).index(key)
    table.entries[c] = table.entries[c] + 1e-4
    with pytest.raises(TmaError, match="Hermitian"):
        assemble_Q(table)


# ---------------------------------------------------------------------------
# the flow identity, two routes
# ---------------------------------------------------------------------------


def test_evolution_residual_quadratic_exact_zero():
    spec = complex_quad(1.2, 0.8, 0.3)
    assert evolution_residual(spec, (0.2, -0.1, 0.4, 0.3)) == 0.0


def test_evolution_residual_cubic():
    spec = cubic_spec(0.1)
    assert evolution_residual(spec, (0.0, 0.1, 0.0, -0.2)) <= 1e-9
    assert evolution_residual(spec, (0.05, 0.1, 0.0, -0.2)) <= 1e-9


def test_evolution_lhs_cubic_matches_oracle():
    lhs = evolution_lhs(cubic_spec(0.1), (0.05, 0.1, 0.0, -0.2))
    assert np.max(np.abs(lhs - cubic_source_oracle(0.1, 0.05))) < 1e-10


def test_flow_identity_ensemble_sweep():
    for k, l in SWEEP_SHAPES + ONE_BLOCK_SHAPES:
        es = EnsembleSpec(k=k, l=l, flavor="complex", eps=0.1, seed=42)
        for draw in range(3):
            member = draw_member(es, draw)
            for point in sample_points(es, draw, 2):
                rep = flow_report(member, point)
                assert rep.evolution_residual <= 1e-8
                assert rep.heat_residual <= 1e-10
                assert rep.q_spectrum_max <= 1e-8
                for gname, gmax in rep.grouping_spectrum_max:
                    assert gmax <= 1e-8, gname


def test_heat_residual_quadratic_and_cubic():
    assert heat_residual(complex_quad(1.0, 1.0, 0.5), (0.1, 0.2, -0.3, 0.0)) == 0.0
    assert heat_residual(cubic_spec(0.1), (0.05, 0.1, 0.0, -0.2)) <= 1e-10


def test_flow_report_fields_are_consistent():
    es = EnsembleSpec(k=1, l=2, flavor="complex", eps=0.1, seed=5)
    member = draw_member(es, 0)
    point = sample_points(es, 0, 1)[0]
    rep = flow_report(member, point)
    assert isinstance(rep, FlowReport)
    assert isinstance(rep.q, QTensor)
    assert rep.evolution_residual == pytest.approx(np.max(np.abs(rep.lhs - rep.q.matrix)), abs=1e-18)
    assert rep.q_spectrum_max == pytest.approx(np.max(np.linalg.eigvalsh(rep.q.matrix)), abs=1e-15)
    assert rep.evolution_residual == pytest.approx(evolution_residual(member, point), abs=1e-15)
    assert rep.heat_residual == pytest.approx(heat_residual(member, point), abs=1e-15)


def test_flow_functions_reject_real_flavor():
    u = ExpressionSpec(
        expr={"kind": "quad", "matrix": [[1.0, 0.0], [0.0, -1.0]], "linear": [0.0, 0.0], "constant": 0.0},
        k=1,
        l=1,
        flavor="real",
    )
    with pytest.raises(DimensionMismatch):
        evolution_residual(u, (0.1, 0.2))
    with pytest.raises(DimensionMismatch):
        heat_residual(u, (0.1, 0.2))


# ---------------------------------------------------------------------------
# route independence, read off the bytecode
# ---------------------------------------------------------------------------


def _code_objects(obj):
    """Code objects of a function (unwrapping caches) or of every method of a class, nested ones included."""
    if isinstance(obj, type):
        for member in vars(obj).values():
            yield from _code_objects(member)
        return
    code = getattr(getattr(obj, "__wrapped__", obj), "__code__", None)
    stack = [code] if code is not None else []
    while stack:
        code = stack.pop()
        yield code
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))


def _route_closure(*roots):
    """Module functions and classes reached from ``roots``, and every global or attribute name they read."""
    reached, names = set(), set()
    stack = list(roots)
    while stack:
        for code in _code_objects(stack.pop()):
            for name in code.co_names:
                names.add(name)
                target = getattr(evolution, name, None)
                if name not in reached and callable(target) and getattr(target, "__module__", None) == evolution.__name__:
                    reached.add(name)
                    stack.append(target)
    return reached, names


ROUTE_A_NAMES = {
    "_second_derivative_gather",
    "_jet_matmul",
    "_jet_inverse",
    "_jet_logdet",
    "_assemble_w",
    "_slot_pairs",
    "_increment",
}

ROUTE_B_NAMES = {
    "_TERMS",
    "_THIRD_SIGS",
    "_term_context",
    "_terms_from_context",
    "assemble_Q",
    "wirtinger_from_real",
    "wirtinger_derivative_arrays",
    "_heat_route_b",
    "WirtingerTable",
    "wirtinger_stack",
    "wirtinger_keys",
    "_signature_gather",
    "_term_stack",
    "_contract",
    "_stacked_subscripts",
    "_rows_last",
    "_summed",
    "_qtensor",
}


def test_route_name_lists_name_live_code():
    # a name that nothing defines guards nothing; route B's Wirtinger tables
    # come from tma.jets, so its names there count as defined
    assert not [name for name in ROUTE_A_NAMES if not hasattr(evolution, name)]
    assert not [name for name in ROUTE_B_NAMES if not (hasattr(evolution, name) or hasattr(jets, name))]


def test_route_a_reads_nothing_of_route_b():
    reached, names = _route_closure(evolution._FlowEngine)
    # the walk reaches the helpers, so an empty intersection below means something
    assert ROUTE_A_NAMES <= reached
    assert not names & ROUTE_B_NAMES


def test_route_b_reads_nothing_of_route_a():
    route_a, _ = _route_closure(evolution._FlowEngine)
    reached, names = _route_closure(
        evolution.assemble_Q, evolution.q_sign_groupings, evolution.subsolution_spectrum, evolution._heat_route_b
    )
    assert {"_THIRD_SIGS", "_TERMS", "wirtinger_derivative_arrays", "_signature_gather", "_contract"} <= names
    assert not names & (route_a | {"_FlowEngine"})


# ---------------------------------------------------------------------------
# complexification bridge
# ---------------------------------------------------------------------------


def real_member(seed: int = 11, k: int = 2, l: int = 1):
    es = EnsembleSpec(k=k, l=l, flavor="real", eps=0.1, seed=seed)
    return draw_member(es, 2), sample_points(es, 2, 1)[0]


def test_complexify_preserves_values_and_ignores_imaginary_parts():
    u, x = real_member()
    v = complexify_real(u)
    assert v.flavor == "complex" and (v.k, v.l) == (u.k, u.l)
    xc = list(complexify_point(x))
    assert v.value(xc) == u.value(x)
    xc[4], xc[5] = 0.37, -0.61  # move the imaginary parts
    assert v.value(xc) == u.value(x)


def test_complexified_product_of_quad_and_atom_ignores_imaginary_parts():
    expr = {
        "kind": "product",
        "factors": [
            {"kind": "quad", "matrix": [[1.0, 0.3], [0.3, -1.0]], "linear": [0.2, -0.1], "constant": 0.5},
            {"kind": "atom", "fn": "exp", "affine": [0.4, -0.7], "const": 0.1},
        ],
    }
    u = ExpressionSpec(expr=expr, k=1, l=1, flavor="real")
    v = complexify_real(u)
    for x, y in [((0.2, -0.3), (0.0, 0.0)), ((0.5, 0.1), (0.37, -0.61)), ((-0.4, -0.6), (-1.2, 0.8))]:
        assert v.value(x + y) == u.value(x)
        h = evaluate_jet(v, x + y, order=2).hessian()
        assert np.array_equal(h[:2, :2], evaluate_jet(u, x, order=2).hessian())
        assert not h[2:].any() and not h[:, 2:].any()


def test_complexified_second_derivatives_are_quarter_hessian():
    u, x = real_member()
    hess = evaluate_jet(u, x, order=2).hessian()
    table = wirtinger_from_real(evaluate_jet(complexify_real(u), complexify_point(x), order=2))
    z, mix, v = table.second_blocks()
    k = u.k
    assert np.max(np.abs(z - hess[:k, :k] / 4.0)) < 1e-14
    assert np.max(np.abs(mix - hess[:k, k:] / 4.0)) < 1e-14
    assert np.max(np.abs(v - hess[k:, k:] / 4.0)) < 1e-14


def test_complexified_w_matches_rescaled_real_w():
    u, x = real_member()
    w_real, _ = transformed_hessian(evaluate_jet(u, x, order=2).hessian(), u.k)
    table = wirtinger_from_real(evaluate_jet(complexify_real(u), complexify_point(x), order=2))
    d = complexification_scaling(u.k, u.l)
    assert np.max(np.abs(complex_W(table) - d @ w_real @ d)) < 1e-12


def test_real_flow_identity_bridges_to_complex_source():
    u, x = real_member()
    v = complexify_real(u)
    xc = complexify_point(x)
    d = complexification_scaling(u.k, u.l)
    bridged = d @ real_evolution_lhs(u, x) @ d
    q_complex = assemble_Q(wirtinger_from_real(evaluate_jet(v, xc, order=4))).matrix
    assert np.max(np.abs(bridged - q_complex)) < 1e-10
    assert np.max(np.abs(bridged - evolution_lhs(v, xc))) < 1e-12


def test_real_quadratic_complexifies_to_zero_source():
    quad = {
        "kind": "quad",
        "matrix": [[1.0, 0.3, 0.0], [0.3, 2.0, 0.1], [0.0, 0.1, -1.5]],
        "linear": [0.0] * 3,
        "constant": 0.0,
    }
    u = ExpressionSpec(expr=quad, k=2, l=1, flavor="real")
    v = complexify_real(u)
    table = wirtinger_from_real(evaluate_jet(v, complexify_point((0.2, -0.1, 0.4)), order=4))
    q = assemble_Q(table)
    assert np.all(q.matrix == 0.0)
    assert q.provenance == ()


def test_complexify_rejects_complex_flavor():
    with pytest.raises(DimensionMismatch):
        complexify_real(cubic_spec(0.1))
