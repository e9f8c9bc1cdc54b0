import json
import math
import re

import numpy as np
import pytest

from tma.errors import DimensionMismatch, DomainViolation, ParseError, UnknownAtom
from tma.jets import (
    KINDS,
    ExpressionSpec,
    evaluate_hessians,
    evaluate_jet,
    multi_indices,
    substitute,
    unit_index,
    wirtinger_from_real,
    wirtinger_hessians,
    wirtinger_keys,
)
from tma.solver import BoxGrid, evaluate_on_grid
from tma.taylor import ATOM_NAMES

# ---------------------------------------------------------------------------
# finite-difference oracle (independent of the jet engine)
# ---------------------------------------------------------------------------


def fd_richardson(f, h):
    """One Richardson level on a second-order central difference."""
    return (4.0 * f(h / 2) - f(h)) / 3.0


def fd_mixed_second(spec, point, i, j, h=1e-3):
    def stencil(hh):
        p = np.array(point, dtype=float)

        def at(di, dj):
            q = p.copy()
            q[i] += di * hh
            q[j] += dj * hh
            return spec.value(q)

        return (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * hh * hh)

    return fd_richardson(stencil, h)


def fd_fourth_xxyy(spec, point, i, j, h=1e-2):
    # second difference in x_i of the second difference in x_j; larger h keeps
    # rounding below truncation for a fourth derivative of an O(1) function
    def stencil(hh):
        p = np.array(point, dtype=float)

        def at(di, dj):
            q = p.copy()
            q[i] += di * hh
            q[j] += dj * hh
            return spec.value(q)

        def d2j(di):
            return (at(di, 1) - 2 * at(di, 0) + at(di, -1)) / (hh * hh)

        return (d2j(1) - 2 * d2j(0) + d2j(-1)) / (hh * hh)

    return fd_richardson(stencil, h)


def quad_spec(matrix, linear=None, constant=0.0, **kw):
    n = len(matrix)
    return ExpressionSpec(
        expr={
            "kind": "quad",
            "matrix": [list(map(float, r)) for r in matrix],
            "linear": [0.0] * n if linear is None else list(map(float, linear)),
            "constant": float(constant),
        },
        **kw,
    )


SIN_SIN = ExpressionSpec(
    expr={
        "kind": "product",
        "factors": [
            {"kind": "atom", "fn": "sin", "affine": [1.0, 0.0], "const": 0.0},
            {"kind": "atom", "fn": "sin", "affine": [0.0, 1.0], "const": 0.0},
        ],
    },
    k=2,
    l=0,
)


# ---------------------------------------------------------------------------
# evaluate_jet examples
# ---------------------------------------------------------------------------


def test_constant_seven():
    spec = quad_spec([[0.0]], constant=7.0, k=1, l=0)
    jet = evaluate_jet(spec, [0.3])
    assert jet.d((0,)) == 7.0
    for beta in multi_indices(1, 4):
        if sum(beta) > 0:
            assert jet.d(beta) == 0.0


def test_half_square_at_one():
    spec = quad_spec([[1.0]], k=1, l=0)
    jet = evaluate_jet(spec, [1.0])
    assert jet.d((0,)) == pytest.approx(0.5, abs=1e-15)
    assert jet.d((1,)) == pytest.approx(1.0, abs=1e-15)
    assert jet.d((2,)) == pytest.approx(1.0, abs=1e-15)
    assert jet.d((3,)) == 0.0
    assert jet.d((4,)) == 0.0


def test_sin_sin_against_fd_oracle():
    point = (math.pi / 2, math.pi / 2)
    jet = evaluate_jet(SIN_SIN, point)
    assert jet.d((0, 0)) == pytest.approx(1.0, rel=1e-14)
    # oracle values, frozen analytically: cos cos = 0 and sin sin = 1 at (pi/2, pi/2)
    oracle_xy = fd_mixed_second(SIN_SIN, point, 0, 1)
    oracle_xxyy = fd_fourth_xxyy(SIN_SIN, point, 0, 1)
    assert oracle_xy == pytest.approx(0.0, abs=1e-9)
    assert oracle_xxyy == pytest.approx(1.0, rel=1e-6)
    assert jet.d((1, 1)) == pytest.approx(oracle_xy, abs=1e-9)
    assert jet.d((2, 2)) == pytest.approx(oracle_xxyy, rel=1e-6)
    assert jet.d((1, 1)) == pytest.approx(0.0, abs=1e-14)
    assert jet.d((2, 2)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda spec: spec.value([-2.0]),
        lambda spec: evaluate_jet(spec, [-2.0]),
        lambda spec: evaluate_on_grid(spec, BoxGrid((-3.0,), (-1.0,), (7,), frame=2)),
        lambda spec: evaluate_hessians(spec, [[1.0], [-2.0]]),
    ],
    ids=["value", "evaluate_jet", "evaluate_on_grid", "evaluate_hessians"],
)
@pytest.mark.parametrize("atom", [{"fn": "log"}, {"fn": "pow", "exponent": 0.5}], ids=["log", "pow"])
def test_domain_violation_propagates(evaluate, atom):
    spec = ExpressionSpec(
        expr={"kind": "atom", "affine": [1.0], "const": 0.0, **atom},
        k=1,
        l=0,
    )
    with pytest.raises(DomainViolation, match="non-positive"):
        evaluate(spec)


def test_evaluate_hessians_guards():
    spec = ExpressionSpec(
        expr={"kind": "atom", "fn": "sin", "affine": [1.0, 2.0], "const": 0.0},
        k=1,
        l=1,
        domain_halfwidth=1.0,
    )
    with pytest.raises(DomainViolation, match=r"point \(2\.0, 0\.0\) outside"):
        evaluate_hessians(spec, [[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    for points in ([[0.0, 0.0, 0.0]], [0.0, 0.0], [[[0.0, 0.0]]]):
        with pytest.raises(DimensionMismatch):
            evaluate_hessians(spec, points)
    with pytest.raises(DimensionMismatch):
        wirtinger_hessians(spec, [[0.0, 0.0]])


def test_time_drift_enters_value_and_dt():
    spec = quad_spec([[1.0]], k=1, l=0, time_drift=3.5)
    assert spec.value([1.0], 2.0) == pytest.approx(0.5 + 7.0)
    jet = evaluate_jet(spec, [1.0])
    assert jet.d((0,)) == pytest.approx(0.5)  # the jet's partials are spatial
    assert jet.drift == 3.5


def test_value_checks_the_point_as_evaluate_jet_does():
    spec = quad_spec([[1.0, 0.0], [0.0, 1.0]], k=1, l=1, domain_halfwidth=1.0)
    assert spec.value((1.0, 0.0)) == 0.5
    with pytest.raises(DomainViolation, match="outside declared box"):
        spec.value((5.0, 0.0))
    for point in ((1.0,), (1.0, 2.0, 3.0)):
        with pytest.raises(DimensionMismatch, match="coordinates"):
            spec.value(point)


def test_substitute_changes_coordinates_and_pads():
    # u = (x^2/2 + 0.3 xy - y^2/2 + 0.2 x - 0.1 y + 0.5) * exp(0.4 x - 0.7 y + 0.1) + 2 sin(x + y)
    u = ExpressionSpec(
        expr={
            "kind": "sum",
            "terms": [
                {
                    "kind": "product",
                    "factors": [
                        {"kind": "quad", "matrix": [[1.0, 0.3], [0.3, -1.0]], "linear": [0.2, -0.1], "constant": 0.5},
                        {"kind": "atom", "fn": "exp", "affine": [0.4, -0.7], "const": 0.1},
                    ],
                },
                {
                    "kind": "scale",
                    "coefficient": 2.0,
                    "term": {"kind": "atom", "fn": "sin", "affine": [1.0, 1.0], "const": 0.0},
                },
            ],
        },
        k=1,
        l=1,
    )
    scale = [1.5, -0.5]
    v = ExpressionSpec(expr=substitute(u.expr, scale, 1), k=2, l=1)
    for x in [(0.2, -0.3, 0.0), (0.5, 0.1, 0.7), (-0.4, -0.6, -2.0)]:
        assert v.value(x) == pytest.approx(u.value([scale[0] * x[0], scale[1] * x[1]]), rel=1e-14, abs=1e-14)
    assert substitute(u.expr, [1.0, 1.0]) == u.expr


def test_partials_above_the_order_read_zero():
    spec = ExpressionSpec(expr=random_spec(np.random.default_rng(5), 4).expr, k=1, l=1, flavor="complex")
    jet = evaluate_jet(spec, [0.1, 0.2, -0.3, 0.4], order=2)
    assert jet.d((3, 0, 0, 0)) == 0.0 and jet.d((1, 1, 1, 0)) == 0.0
    assert type(jet.d((1, 1, 0, 0))) is float and jet.d((1, 1, 0, 0)) != 0.0
    wt = wirtinger_from_real(jet)
    assert wt.d((2, 0), (1, 0)) == 0.0 and wt.d((0, 0), (0, 3)) == 0.0
    assert type(wt.d((1, 0), (0, 1))) is complex and wt.d((1, 0), (0, 1)) != 0.0


# ---------------------------------------------------------------------------
# invariants: FD cross-check, jet symmetry
# ---------------------------------------------------------------------------


def random_spec(rng, n):
    m = rng.uniform(-1, 1, (n, n))
    m = m + m.T
    terms = [
        {
            "kind": "quad",
            "matrix": m.tolist(),
            "linear": rng.uniform(-1, 1, n).tolist(),
            "constant": float(rng.uniform(-1, 1)),
        }
    ]
    for fn in ("sin", "exp", "cos"):
        terms.append(
            {
                "kind": "scale",
                "coefficient": float(rng.uniform(-0.5, 0.5)),
                "term": {
                    "kind": "atom",
                    "fn": fn,
                    "affine": rng.uniform(-1, 1, n).tolist(),
                    "const": float(rng.uniform(-1, 1)),
                },
            }
        )
    return ExpressionSpec(expr={"kind": "sum", "terms": terms}, k=n, l=0)


def test_fd_cross_check_on_random_specs():
    # every entry of order <= 3 matches a central FD of the next-lower-order entry
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        spec = random_spec(rng, n)
        point = rng.uniform(-0.5, 0.5, n)
        jet = evaluate_jet(spec, point)
        for beta in multi_indices(n, 2):
            for i in range(n):
                target = tuple(b + (1 if idx == i else 0) for idx, b in enumerate(beta))

                def fd(h, _i=i, _beta=beta):
                    p = point.copy()
                    p[_i] += h
                    up = evaluate_jet(spec, p).d(_beta)
                    p[_i] -= 2 * h
                    dn = evaluate_jet(spec, p).d(_beta)
                    return (up - dn) / (2 * h)

                est = fd_richardson(fd, 1e-3)
                exact = jet.d(target)
                assert exact == pytest.approx(est, rel=1e-6, abs=1e-7)


# ---------------------------------------------------------------------------
# symbolic jet oracle (sympy differentiates the same trees independently)
# ---------------------------------------------------------------------------


def atom_node(fn, affine, const, exponent=None):
    node = {"kind": "atom", "fn": fn, "affine": affine, "const": const}
    if exponent is not None:
        node["exponent"] = exponent
    return node


QUAD3 = {
    "kind": "quad",
    "matrix": [[1.5, -0.25, 0.5], [-0.25, -2.0, 0.75], [0.5, 0.75, 0.3]],
    "linear": [0.2, -0.6, 0.1],
    "constant": 0.4,
}

ORACLE_TREES = {
    "sin": atom_node("sin", [0.7, -0.4], 0.2),
    "cos": atom_node("cos", [0.3, 0.9, -0.5], -0.1),
    "exp": atom_node("exp", [0.6, -0.8], 0.1),
    "log": atom_node("log", [0.5, 0.3, -0.2], 2.0),
    "cosh": atom_node("cosh", [-0.9, 0.4, 0.6], 0.3),
    "sinh": atom_node("sinh", [0.8, 0.5], -0.4),
    "pow-integer": atom_node("pow", [0.6, -0.7, 0.2], 1.1, 3.0),
    "pow-fractional": atom_node("pow", [0.4, 0.3], 2.0, -1.5),
    "quad": QUAD3,
    "product": {
        "kind": "product",
        "factors": [
            atom_node("sin", [0.7, -0.4, 0.2], 0.2),
            {"kind": "scale", "coefficient": -0.8, "term": atom_node("exp", [0.3, 0.5, -0.6], 0.1)},
            QUAD3,
        ],
    },
}


def sympy_tree(sympy, node, xs):
    num = lambda v: sympy.Float(v, 40)  # noqa: E731 - the exact binary value of v
    kind = node["kind"]
    if kind == "sum":
        return sympy.Add(*(sympy_tree(sympy, t, xs) for t in node["terms"]))
    if kind == "product":
        return sympy.Mul(*(sympy_tree(sympy, t, xs) for t in node["factors"]))
    if kind == "scale":
        return num(node["coefficient"]) * sympy_tree(sympy, node["term"], xs)
    n = len(xs)
    if kind == "quad":
        m, lin = node["matrix"], node["linear"]
        return num(node["constant"]) + sum(
            num(lin[i]) * xs[i] + sum(num(m[i][j]) / 2 * xs[i] * xs[j] for j in range(n)) for i in range(n)
        )
    arg = num(node["const"]) + sum(num(a) * x for a, x in zip(node["affine"], xs))
    if node["fn"] == "pow":
        p = node["exponent"]
        return arg ** (sympy.Integer(int(p)) if float(p).is_integer() else num(p))
    return getattr(sympy, node["fn"])(arg)


@pytest.mark.parametrize("name", list(ORACLE_TREES))
def test_jet_matches_symbolic_oracle(name):
    sympy = pytest.importorskip("sympy")
    expr = ORACLE_TREES[name]
    n = {"quad": 3, "product": 3}.get(name, len(expr.get("affine", [])))
    spec = ExpressionSpec(expr=expr, k=n, l=0)
    point = [0.3, -0.2, 0.1][:n]
    xs = sympy.symbols(f"x0:{n}", real=True)
    u = sympy_tree(sympy, expr, xs)
    at = {x: sympy.Float(v, 40) for x, v in zip(xs, point)}
    jet = evaluate_jet(spec, point, order=4)
    derivs = {(0,) * n: u}
    for beta in multi_indices(n, 4)[1:]:  # sorted, so each lower partial comes first
        # differentiate the parent by the last coordinate of beta, in the order x0, x1, ...
        i = max(i for i, b in enumerate(beta) if b)
        derivs[beta] = sympy.diff(derivs[tuple(b - (j == i) for j, b in enumerate(beta))], xs[i])
    # substituting first leaves evalf a number to round, not a tree to walk with subs
    want = {beta: float(d.xreplace(at).evalf(30)) for beta, d in derivs.items()}
    scale = max(abs(v) for v in want.values())
    for beta, v in want.items():
        assert jet.d(beta) == pytest.approx(v, rel=1e-12, abs=1e-12 * scale), beta


# ---------------------------------------------------------------------------
# wirtinger_from_real examples and invariants
# ---------------------------------------------------------------------------


def test_mod_z_squared():
    # |z|^2 = x^2 + y^2: flat Kaehler potential
    spec = quad_spec([[2.0, 0.0], [0.0, 2.0]], k=1, l=0, flavor="complex")
    wt = wirtinger_from_real(evaluate_jet(spec, [0.4, -0.2]))
    assert wt.d((1,), (1,)) == pytest.approx(1.0)
    assert wt.d((2,), (0,)) == pytest.approx(0.0, abs=1e-15)


def test_re_z_squared():
    # Re(z^2) = x^2 - y^2: d_z^2 = (u_xx - 2i u_xy - u_yy)/4 = 1
    spec = quad_spec([[2.0, 0.0], [0.0, -2.0]], k=1, l=0, flavor="complex")
    wt = wirtinger_from_real(evaluate_jet(spec, [0.1, 0.3]))
    assert wt.d((2,), (0,)) == pytest.approx(1.0)
    assert wt.d((1,), (1,)) == pytest.approx(0.0, abs=1e-15)


def test_mod_z_fourth_symbolic_oracle():
    # |z|^4 = (x^2 + y^2)^2 at z = 1; oracle: symbolic differentiation
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", real=True)
    u = (x**2 + y**2) ** 2
    u_zzbar = (sympy.diff(u, x, 2) + sympy.diff(u, y, 2)) / 4
    oracle = float(u_zzbar.subs({x: 1, y: 0}))
    assert oracle == 4.0  # frozen
    spec = ExpressionSpec(
        expr={
            "kind": "product",
            "factors": [
                {"kind": "quad", "matrix": [[2.0, 0.0], [0.0, 2.0]], "linear": [0.0, 0.0], "constant": 0.0},
                {"kind": "quad", "matrix": [[2.0, 0.0], [0.0, 2.0]], "linear": [0.0, 0.0], "constant": 0.0},
            ],
        },
        k=1,
        l=0,
        flavor="complex",
    )
    wt = wirtinger_from_real(evaluate_jet(spec, [1.0, 0.0]))
    assert wt.d((1,), (1,)) == pytest.approx(oracle, rel=1e-14)


def test_odd_dimension_rejected():
    spec = quad_spec([[1.0]], k=1, l=0)
    with pytest.raises(DimensionMismatch):
        wirtinger_from_real(evaluate_jet(spec, [0.0]))


def test_conjugation_symmetry_bit_exact():
    rng = np.random.default_rng(11)
    spec = random_spec(rng, 4)
    spec = ExpressionSpec(expr=spec.expr, k=1, l=1, flavor="complex")
    wt = wirtinger_from_real(evaluate_jet(spec, rng.uniform(-0.5, 0.5, 4)))
    for (hol, anti), v in zip(wirtinger_keys(2, 4), wt.entries):
        assert wt.d(anti, hol) == v.conjugate()  # exact, not approx
    # balanced second derivatives of a real-valued function are real
    for a in range(2):
        e = unit_index(2, a)
        assert wt.d(e, e).imag == 0.0


def test_wirtinger_conversion_matches_symbolic_oracle():
    # sympy differentiates the tree in real coordinates, and each key's
    # operator prod ((d_X - i d_Y)/2)^hol ((d_X + i d_Y)/2)^anti is multiplied
    # out as a polynomial whose monomials name real partials: no code is
    # shared with the conversion's own expansion
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(13)
    spec = random_spec(rng, 4)
    spec = ExpressionSpec(expr=spec.expr, k=1, l=1, flavor="complex")
    point = rng.uniform(-0.5, 0.5, 4)
    xs = sympy.symbols("x0:4", real=True)
    at = {x: sympy.Float(v, 40) for x, v in zip(xs, point)}
    # the terms of the sum one by one: sympy's checks on each derivative
    # cost less on four small expressions than on their sum
    derivs = {(0, 0, 0, 0): [sympy_tree(sympy, t, xs) for t in spec.expr["terms"]]}
    for beta in multi_indices(4, 4)[1:]:  # sorted, so each lower partial comes first
        i = next(i for i, b in enumerate(beta) if b)
        derivs[beta] = [sympy.diff(d, xs[i]) for d in derivs[tuple(b - (j == i) for j, b in enumerate(beta))]]
    real = {beta: sympy.Add(*(d.xreplace(at) for d in ds)).evalf(30) for beta, ds in derivs.items()}
    big_x, big_y = sympy.symbols("X0:2"), sympy.symbols("Y0:2")
    gens = (*big_x, *big_y)
    d_z = [sympy.Poly((big_x[a] - sympy.I * big_y[a]) / 2, *gens) for a in range(2)]
    d_zbar = [sympy.Poly((big_x[a] + sympy.I * big_y[a]) / 2, *gens) for a in range(2)]
    want = {}
    for hol, anti in wirtinger_keys(2, 4):
        op = sympy.Poly(1, *gens)
        for a in range(2):
            op *= d_z[a] ** hol[a] * d_zbar[a] ** anti[a]
        want[hol, anti] = complex(sympy.Add(*(c * real[monom] for monom, c in op.terms())).evalf(30))
    scale = max(abs(v) for v in want.values())
    wt = wirtinger_from_real(evaluate_jet(spec, point))
    for (hol, anti), v in want.items():
        assert wt.d(hol, anti) == pytest.approx(v, rel=1e-12, abs=1e-12 * scale), (hol, anti)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip_bit_exact():
    spec = ExpressionSpec(
        expr={
            "kind": "sum",
            "terms": [
                {"kind": "quad", "matrix": [[1.0, 0.5], [0.5, -1.0]], "linear": [0.1, 0.0], "constant": 0.25},
                {
                    "kind": "scale",
                    "coefficient": 0.1,
                    "term": {"kind": "atom", "fn": "sin", "affine": [1.0, 2.0], "const": 0.7},
                },
            ],
        },
        k=1,
        l=1,
    )
    text = spec.canonical_json()
    again = ExpressionSpec.from_dict(json.loads(text))
    assert again == spec
    assert again.canonical_json() == text  # byte-identical round trip


def test_unknown_atom_and_parse_errors():
    # malformed JSON text is the CLI's to report: TestIngestion covers it
    with pytest.raises(UnknownAtom):
        ExpressionSpec.from_dict(json.loads('{"kind": "atom", "fn": "tan", "affine": [1.0], "const": 0.0}'))
    with pytest.raises(ParseError, match="matrix"):
        ExpressionSpec.from_dict(
            json.loads('{"kind": "quad", "matrix": [[0.0, 1.0], [2.0, 0.0]], "linear": [0.0, 0.0], "constant": 0.0}')
        )


_Q2 = {"kind": "quad", "matrix": [[1.0, 0.0], [0.0, -1.0]], "linear": [0.0, 0.0], "constant": 0.0}
_SIN2 = {"kind": "atom", "fn": "sin", "affine": [1.0, 2.0], "const": 0.7}

# Every fault the tree walk reports, as the second term of a sum over two
# coordinates whose first term fixes the dimension: the fault, its error and
# its message.
_TREE_FAULTS = {
    "not-an-object": ([1.0], ParseError, "at expr.terms[1]: expected an object, got list"),
    "unknown-kind": ({"kind": "cube"}, ParseError,
                     "at expr.terms[1]: unknown kind 'cube'; expected one of " + str(KINDS)),
    "extra-field": ({**_Q2, "scale": 2.0}, ParseError,
                    "at expr.terms[1]: unexpected fields for kind 'quad': ['scale']"),
    "empty-sum": ({"kind": "sum", "terms": []}, ParseError, "at expr.terms[1].terms: expected a non-empty list"),
    "one-factor": ({"kind": "product", "factors": [_Q2]}, ParseError,
                   "at expr.terms[1].factors: expected a list of at least two factors"),
    "bad-factor": ({"kind": "product", "factors": [_Q2, "x"]}, ParseError,
                   "at expr.terms[1].factors[1]: expected an object, got str"),
    "text-coefficient": ({"kind": "scale", "coefficient": "2", "term": _Q2}, ParseError,
                         "at expr.terms[1].coefficient: expected a number, got str"),
    "bool-coefficient": ({"kind": "scale", "coefficient": True, "term": _Q2}, ParseError,
                         "at expr.terms[1].coefficient: expected a number, got bool"),
    "scaled-fault": ({"kind": "scale", "coefficient": 2.0, "term": {**_SIN2, "const": None}}, ParseError,
                     "at expr.terms[1].term.const: expected a number, got NoneType"),
    "matrix-rows": ({**_Q2, "matrix": [[1.0, 0.0]]}, ParseError, "at expr.terms[1].matrix: expected 2 rows"),
    "matrix-row": ({**_Q2, "matrix": [[1.0, 0.0], [0.0]]}, ParseError,
                   "at expr.terms[1].matrix[1]: expected 2 entries"),
    "matrix-entry": ({**_Q2, "matrix": [[1.0, 0.0], [0.0, "x"]]}, ParseError,
                     "at expr.terms[1].matrix[1][1]: expected a number, got str"),
    "asymmetric": ({**_Q2, "matrix": [[1.0, 0.5], [0.0, -1.0]]}, ParseError,
                   "at expr.terms[1].matrix: not symmetric at (1,0)"),
    "linear-length": ({**_Q2, "linear": [0.0]}, ParseError, "at expr.terms[1].linear: expected 2 entries"),
    "linear-entry": ({**_Q2, "linear": [0.0, None]}, ParseError,
                     "at expr.terms[1].linear[1]: expected a number, got NoneType"),
    "missing-constant": ({k: v for k, v in _Q2.items() if k != "constant"}, ParseError,
                         "at expr.terms[1].constant: expected a number, got NoneType"),
    "fn-not-text": ({**_SIN2, "fn": 3}, ParseError, "at expr.terms[1].fn: expected a string"),
    "unknown-atom": ({**_SIN2, "fn": "tan"}, UnknownAtom,
                     "at expr.terms[1].fn: unknown atom function 'tan'; supported: " + ", ".join(ATOM_NAMES)),
    "affine-length": ({**_SIN2, "affine": [1.0]}, ParseError, "at expr.terms[1].affine: expected 2 entries"),
    "affine-entry": ({**_SIN2, "affine": [1.0, "2"]}, ParseError,
                     "at expr.terms[1].affine[1]: expected a number, got str"),
    "infinite-const": ({**_SIN2, "const": math.inf}, ParseError,
                       "at expr.terms[1].const: expected a finite number, got inf"),
    "pow-without-exponent": ({**_SIN2, "fn": "pow"}, ParseError,
                             "at expr.terms[1].exponent: expected a number, got NoneType"),
    "exponent-off-pow": ({**_SIN2, "exponent": 2.0}, ParseError,
                         "at expr.terms[1].exponent: only pow atoms carry an exponent"),
}


@pytest.mark.parametrize("fault", list(_TREE_FAULTS))
@pytest.mark.parametrize("entry", ["constructor", "from_dict"])
def test_every_tree_fault_raises_with_its_message(entry, fault):
    # a caller's tree is walked wherever it enters, so each fault keeps its error and message
    bad, error, message = _TREE_FAULTS[fault]
    expr = {"kind": "sum", "terms": [_Q2, bad]}
    with pytest.raises(error) as info:
        if entry == "constructor":
            ExpressionSpec(expr=expr, k=1, l=1)
        else:
            ExpressionSpec.from_dict({**expr, "dims": [1, 1]})
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"k": 1, "l": 1, "flavor": "quaternion"}, "at flavor: expected one of ('real', 'complex'), got 'quaternion'"),
        ({"k": -1, "l": 3}, "at dims: need integers k >= 0, l >= 0, k + l >= 1; got (-1, 3)"),
        ({"k": 1.0, "l": 1.0}, "at dims: need integers k >= 0, l >= 0, k + l >= 1; got (1.0, 1.0)"),
        ({"k": True, "l": 1}, "at dims: need integers k >= 0, l >= 0, k + l >= 1; got (True, 1)"),
    ],
    ids=["flavor", "dims", "float_dims", "bool_dims"],
)
def test_spec_field_faults_raise_with_their_message(fields, message):
    with pytest.raises(ParseError) as info:
        ExpressionSpec(expr=_Q2, **fields)
    assert str(info.value) == message
    body = {**_Q2, "dims": [fields["k"], fields["l"]], "flavor": fields.get("flavor", "real")}
    with pytest.raises(ParseError) as info:
        ExpressionSpec.from_dict(body)
    assert str(info.value) == message


def _finite_spec_body():
    return {
        "kind": "sum",
        "terms": [
            {"kind": "quad", "matrix": [[1.0, 0.0], [0.0, -1.0]], "linear": [0.0, 0.0], "constant": 0.0},
            {
                "kind": "scale",
                "coefficient": 0.1,
                "term": {"kind": "atom", "fn": "sin", "affine": [1.0, 2.0], "const": 0.7},
            },
        ],
        "dims": [1, 1],
        "time_drift": 0.5,
    }


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "huge-int"])
@pytest.mark.parametrize(
    "keys, path",
    [
        (("terms", 0, "matrix", 1, 1), "expr.terms[0].matrix[1][1]"),
        (("terms", 1, "term", "affine", 0), "expr.terms[1].term.affine[0]"),
        (("terms", 1, "coefficient"), "expr.terms[1].coefficient"),
        (("time_drift",), "time_drift"),
    ],
    ids=["matrix", "affine", "coefficient", "time_drift"],
)
def test_non_finite_numbers_are_parse_errors_naming_their_path(keys, path, bad):
    body = _finite_spec_body()
    ExpressionSpec.from_dict(body)  # valid until one number is replaced
    parent = body
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = bad
    with pytest.raises(ParseError, match=f"at {re.escape(path)}: expected a finite number"):
        ExpressionSpec.from_dict(body)


def test_default_dims_are_real_convex():
    spec = ExpressionSpec.from_dict(
        json.loads('{"kind": "quad", "matrix": [[1.0, 0.0], [0.0, -1.0]], "linear": [0.0, 0.0], "constant": 0.0}')
    )
    assert (spec.k, spec.l, spec.flavor) == (2, 0, "real")
    h = evaluate_jet(spec, [0.0, 0.0]).hessian()
    assert np.allclose(h, np.diag([1.0, -1.0]))
