"""Exact jets of analytic test functions, in real and Wirtinger form.

An :class:`ExpressionSpec` describes a test function as a tree of quadratic
forms, univariate analytic atoms applied to affine arguments, and
sum/product/scale combinators.  One engine evaluates every tree: it returns
all partials to a given total order at a whole array of points at once, as an
array with one trailing column per multi-index.  Quadratic forms contribute
their value, gradient and constant Hessian; an atom of an affine argument
contributes ``d^beta f(a.x + c) = f^(|beta|)(a.x + c) a^beta`` in closed form;
sums and scales add and multiply arrays; products follow the Leibniz rule.
Point values (:meth:`ExpressionSpec.value`), jets (:func:`evaluate_jet`, every
spatial partial to total order 4 as a :class:`SpaceTimeJet`), the Hessians of
a whole ``(m, n)`` point array at once (:func:`evaluate_hessians`, an
``(m, n, n)`` stack; :func:`wirtinger_hessians`, the ``(m, k + l, k + l)``
stack of ``u_{z_a zbar_b}``), the jets of a block of specs sharing one tree
layout, each at its own points (:class:`SpecBlock`, with the leaf parameters
carried per member; :func:`stacked_jets` of a list of specs) and grid values
(:func:`tma.solver.evaluate_on_grid`) all come from it.  :func:`substitute` is
the one rewriter of trees: it changes a tree's coordinates by ``x -> scale * x``,
optionally adding coordinates the tree does not depend on.

Complex-flavored specs live on real coordinates ``[Re z_1..Re z_m, Im z_1..Im
z_m]`` where the m = k + l complex variables are ``(z_1..z_k, w_1..w_l)``.
:func:`wirtinger_from_real` converts a real jet into mixed
holomorphic/antiholomorphic partials under the fixed normalization
``d/dz = (d/dx - i d/dy)/2``; :func:`wirtinger_stack` converts a stack of
jet arrays the same way, by one cached gather of every key's expansion terms.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .errors import DimensionMismatch, DomainViolation, ParseError, TmaError, UnknownAtom
from .taylor import ATOM_NAMES, atom_derivatives

MultiIndex = Tuple[int, ...]
WirtKey = Tuple[MultiIndex, MultiIndex]

KINDS = ("sum", "product", "scale", "quad", "atom")
FLAVORS = ("real", "complex")


@lru_cache(maxsize=None)
def multi_indices(nvars: int, max_order: int) -> Tuple[MultiIndex, ...]:
    """All exponent tuples over ``nvars`` variables with total degree <= ``max_order``, sorted."""
    out = []
    for total in range(max_order + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), total):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return tuple(sorted(set(out)))


def unit_index(nvars: int, i: int, j: int | None = None) -> MultiIndex:
    e = [0] * nvars
    e[i] += 1
    if j is not None:
        e[j] += 1
    return tuple(e)


# ---------------------------------------------------------------------------
# ExpressionSpec: validation, serialization, evaluation
# ---------------------------------------------------------------------------


def _err(path: str, msg: str) -> ParseError:
    return ParseError(f"at {path}: {msg}")


def _check_number(x, path):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise _err(path, f"expected a number, got {type(x).__name__}")
    try:
        value = float(x)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise _err(path, f"expected a finite number, got {x!r}")
    return value


def _check_numbers(values, path):
    # the common case, settled in one pass and one sum: a NaN or an infinity
    # makes the sum non-finite, and so does an overflow, which the loop clears
    if all(type(v) is float for v in values) and math.isfinite(sum(values)):
        return
    for j, v in enumerate(values):
        _check_number(v, f"{path}[{j}]")


_NODE_KEYS = {
    "sum": {"kind", "terms"},
    "product": {"kind", "factors"},
    "scale": {"kind", "coefficient", "term"},
    "quad": {"kind", "matrix", "linear", "constant"},
    "atom": {"kind", "fn", "affine", "const", "exponent"},
}


def _validate_node(node, nvars: int, path: str) -> None:
    if not isinstance(node, dict):
        raise _err(path, f"expected an object, got {type(node).__name__}")
    kind = node.get("kind")
    if kind not in KINDS:
        raise _err(path, f"unknown kind {kind!r}; expected one of {KINDS}")
    extra = set(node) - _NODE_KEYS[kind]
    if extra:
        raise _err(path, f"unexpected fields for kind {kind!r}: {sorted(extra)}")
    if kind == "sum":
        terms = node.get("terms")
        if not isinstance(terms, list) or not terms:
            raise _err(path + ".terms", "expected a non-empty list")
        for i, t in enumerate(terms):
            _validate_node(t, nvars, f"{path}.terms[{i}]")
    elif kind == "product":
        factors = node.get("factors")
        if not isinstance(factors, list) or len(factors) < 2:
            raise _err(path + ".factors", "expected a list of at least two factors")
        for i, t in enumerate(factors):
            _validate_node(t, nvars, f"{path}.factors[{i}]")
    elif kind == "scale":
        _check_number(node.get("coefficient"), path + ".coefficient")
        _validate_node(node.get("term"), nvars, path + ".term")
    elif kind == "quad":
        m = node.get("matrix")
        if not isinstance(m, list) or len(m) != nvars:
            raise _err(path + ".matrix", f"expected {nvars} rows")
        for i, row in enumerate(m):
            if not isinstance(row, list) or len(row) != nvars:
                raise _err(f"{path}.matrix[{i}]", f"expected {nvars} entries")
            _check_numbers(row, f"{path}.matrix[{i}]")
        for i in range(nvars):
            for j in range(i):
                if float(m[i][j]) != float(m[j][i]):
                    raise _err(path + ".matrix", f"not symmetric at ({i},{j})")
        lin = node.get("linear")
        if not isinstance(lin, list) or len(lin) != nvars:
            raise _err(path + ".linear", f"expected {nvars} entries")
        _check_numbers(lin, path + ".linear")
        _check_number(node.get("constant"), path + ".constant")
    elif kind == "atom":
        fn = node.get("fn")
        if not isinstance(fn, str):
            raise _err(path + ".fn", "expected a string")
        if fn not in ATOM_NAMES:
            raise UnknownAtom(f"at {path}.fn: unknown atom function {fn!r}; supported: {', '.join(ATOM_NAMES)}")
        aff = node.get("affine")
        if not isinstance(aff, list) or len(aff) != nvars:
            raise _err(path + ".affine", f"expected {nvars} entries")
        _check_numbers(aff, path + ".affine")
        _check_number(node.get("const"), path + ".const")
        if fn == "pow":
            _check_number(node.get("exponent"), path + ".exponent")
        elif "exponent" in node:
            raise _err(path + ".exponent", "only pow atoms carry an exponent")


def _infer_nvars(node) -> int | None:
    """First dimension hint found in the tree (length of a quad matrix or atom affine)."""
    kind = node.get("kind") if isinstance(node, dict) else None
    if kind == "quad" and isinstance(node.get("matrix"), list):
        return len(node["matrix"])
    if kind == "atom" and isinstance(node.get("affine"), list):
        return len(node["affine"])
    if kind == "sum":
        for t in node.get("terms") or []:
            n = _infer_nvars(t)
            if n is not None:
                return n
    if kind == "product":
        for t in node.get("factors") or []:
            n = _infer_nvars(t)
            if n is not None:
                return n
    if kind == "scale" and isinstance(node.get("term"), dict):
        return _infer_nvars(node["term"])
    return None


@dataclass(frozen=True)
class ExpressionSpec:
    """Analytic test-function description with exact jet evaluation.

    ``expr`` is the validated kind-tree; ``k``/``l`` split the variables into
    the convex and concave blocks; ``flavor`` selects real coordinates
    (``nvars = k + l``) or complex ones (``nvars = 2(k + l)`` real
    coordinates).  ``time_drift`` adds a linear-in-time term ``drift * t``,
    the only explicit time dependence a spec can carry.

    A caller's tree is validated where it enters: at construction (and so
    at :meth:`from_dict`, and at ``dataclasses.replace``), which walks the
    whole tree and raises :class:`ParseError` or :class:`UnknownAtom` naming
    the path of the first fault.  A tree that package code builds from
    parts already validated (an ensemble draw, a complexified spec) enters
    through :meth:`_trusted` instead and is not walked again.
    """

    expr: dict
    k: int
    l: int
    flavor: str = "real"
    time_drift: float = 0.0
    domain_halfwidth: float = math.inf

    @property
    def nvars(self) -> int:
        return self.k + self.l if self.flavor == "real" else 2 * (self.k + self.l)

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ParseError(f"at flavor: expected one of {FLAVORS}, got {self.flavor!r}")
        if self.k < 0 or self.l < 0 or self.k + self.l == 0:
            raise ParseError(f"at dims: need k >= 0, l >= 0, k + l >= 1; got ({self.k}, {self.l})")
        _validate_node(self.expr, self.nvars, "expr")

    @classmethod
    def _trusted(cls, expr: dict, k: int, l: int, flavor: str = "real", time_drift: float = 0.0,
                 domain_halfwidth: float = math.inf) -> "ExpressionSpec":
        """The spec of a tree built by package code from validated parts, made without the checks.

        Only for trees whose every number and kind the builder itself chose
        from checked inputs; a tree holding a caller's numbers goes through
        the constructor.
        """
        spec = cls.__new__(cls)
        spec.__dict__.update(expr=expr, k=k, l=l, flavor=flavor, time_drift=time_drift,
                             domain_halfwidth=domain_halfwidth)
        return spec

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, obj) -> "ExpressionSpec":
        if not isinstance(obj, dict):
            raise ParseError(f"at top level: expected an object, got {type(obj).__name__}")
        meta_keys = ("dims", "flavor", "time_drift", "domain")
        expr = {k: v for k, v in obj.items() if k not in meta_keys}
        flavor = obj.get("flavor", "real")
        if flavor not in FLAVORS:
            raise ParseError(f"at flavor: expected one of {FLAVORS}, got {flavor!r}")
        n = _infer_nvars(expr)
        if n is None:
            raise ParseError("at expr: no quad/atom node fixes the dimension")
        dims = obj.get("dims")
        if dims is None:
            m = n if flavor == "real" else n // 2
            k, l = m, 0
        else:
            if (not isinstance(dims, list)) or len(dims) != 2 or not all(isinstance(d, int) for d in dims):
                raise ParseError("at dims: expected [k, l] with integer entries")
            k, l = dims
        drift = obj.get("time_drift", 0.0)
        drift = _check_number(drift, "time_drift")
        hw = math.inf
        dom = obj.get("domain")
        if dom is not None:
            if not isinstance(dom, dict) or "halfwidth" not in dom:
                raise ParseError("at domain: expected {\"halfwidth\": number}")
            hw = _check_number(dom["halfwidth"], "domain.halfwidth")
        spec = cls(expr=expr, k=k, l=l, flavor=flavor, time_drift=drift, domain_halfwidth=hw)
        if spec.nvars != n:
            raise ParseError(f"at dims: dims {dims} imply {spec.nvars} coordinates but the tree uses {n}")
        return spec

    def to_dict(self) -> dict:
        out = dict(self.expr)
        out["dims"] = [self.k, self.l]
        out["flavor"] = self.flavor
        out["time_drift"] = self.time_drift
        if math.isfinite(self.domain_halfwidth):
            out["domain"] = {"halfwidth": self.domain_halfwidth}
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False)

    # -- evaluation --------------------------------------------------------

    def value(self, point, time: float = 0.0) -> float:
        """``u(point, time)``, with the point checks of :func:`evaluate_jet`."""
        return float(evaluate_jet(self, point, order=0).table[0]) + self.time_drift * time

    def in_domain(self, point) -> bool:
        hw = self.domain_halfwidth
        return all(abs(c) <= hw for c in point)


# ---------------------------------------------------------------------------
# the jet engine and the tree rewriter
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _columns(nvars: int, order: int):
    """Column layout of a jet array over ``multi_indices(nvars, order)``.

    Returns the column of each multi-index, the total degree of each column,
    and a ``(columns, nvars)`` index array: entry ``(c, i)`` is the position
    of ``a_i^{beta_i}`` in a table of powers ``a_i^j`` (``j <= order``) laid
    out coordinate by coordinate.
    """
    idx = multi_indices(nvars, order)
    col = {beta: c for c, beta in enumerate(idx)}
    degree = np.array([sum(beta) for beta in idx], dtype=np.intp)
    exps = np.array(idx, dtype=np.intp).reshape(len(idx), nvars)
    return col, degree, exps + (order + 1) * np.arange(nvars)


@lru_cache(maxsize=None)
def _leibniz_table(nvars: int, order: int):
    """Pairs of the Leibniz rule ``d^g (fh) = sum_a C(g, a) d^a f d^(g-a) h``.

    Returns the columns of ``a`` and ``g - a`` for every pair, the binomial
    weight of each pair, and where each column's run of pairs starts (pairs
    are grouped by ``g`` in column order, ready for ``np.add.reduceat``).
    """
    col, _, _ = _columns(nvars, order)
    left, right, weight, starts = [], [], [], []
    for gamma in multi_indices(nvars, order):
        starts.append(len(left))
        for alpha in itertools.product(*(range(g + 1) for g in gamma)):
            left.append(col[alpha])
            right.append(col[tuple(g - a for g, a in zip(gamma, alpha))])
            weight.append(math.prod(math.comb(g, a) for g, a in zip(gamma, alpha)))
    return (
        np.array(left, dtype=np.intp),
        np.array(right, dtype=np.intp),
        np.array(weight, dtype=float),
        np.array(starts, dtype=np.intp),
    )


def _node_jet(node: dict, coords, order: int) -> np.ndarray:
    """Every partial ``d^beta`` of the subtree ``node``, up to total order ``order``.

    ``coords`` holds the n coordinates of the evaluation points as arrays (or
    numbers) of one common shape S: a single point, a point cloud, or a grid
    mesh.  The result has shape ``S + (len(multi_indices(n, order)),)`` with
    columns in ``multi_indices`` order, so column 0 is the value.  Every call
    returns a fresh array, which the combinators then update in place.
    """
    kind = node["kind"]
    if kind == "sum":
        terms = node["terms"]
        out = _node_jet(terms[0], coords, order)
        for t in terms[1:]:
            out += _node_jet(t, coords, order)
        return out
    if kind == "product":
        left, right, weight, starts = _leibniz_table(len(coords), order)
        factors = node["factors"]
        out = _node_jet(factors[0], coords, order)
        for t in factors[1:]:
            other = _node_jet(t, coords, order)
            if order == 0:  # the Leibniz rule reduces to the plain product
                out *= other
                continue
            pairs = out[..., left] * other[..., right]
            pairs *= weight
            out = np.add.reduceat(pairs, starts, axis=-1)
        return out
    if kind == "scale":
        out = _node_jet(node["term"], coords, order)
        coefficient = node["coefficient"]
        if isinstance(coefficient, np.ndarray):  # a stacked leaf: one coefficient per member
            coefficient = _spread(coefficient, len(out))
        out *= np.asarray(coefficient)[..., None]
        return out
    n = len(coords)
    col, degree, power_index = _columns(n, order)
    shape = np.shape(coords[0])
    if kind == "quad":
        # value, gradient and the constant Hessian; higher partials vanish
        m, lin = node["matrix"], node["linear"]
        out = np.zeros(shape + (len(degree),))
        value = out[..., 0]
        value += node["constant"]
        for i, xi in enumerate(coords):
            if lin[i] != 0.0:
                value += lin[i] * xi
            for j, xj in enumerate(coords):
                if m[i][j] != 0.0:
                    value += 0.5 * m[i][j] * xi * xj
        if order >= 1:
            for i in range(n):
                grad = out[..., col[unit_index(n, i)]]
                grad += lin[i]
                for j, xj in enumerate(coords):
                    if m[i][j] != 0.0:
                        grad += m[i][j] * xj
        if order >= 2:
            for i in range(n):
                for j in range(i, n):
                    out[..., col[unit_index(n, i, j)]] = m[i][j]
        return out
    # atom of an affine argument: d^beta f(a.x + c) = f^(|beta|)(a.x + c) a^beta
    aff = np.asarray(node["affine"], dtype=float)  # (n,), or (B, n) for a stacked leaf of B members
    stacked = aff.ndim > 1
    arg = np.empty(shape)
    arg[...] = _spread(node["const"], len(arg)) if stacked else node["const"]
    for i in (aff.any(axis=0) if stacked else aff).nonzero()[0]:
        arg += (_spread(aff[:, i], len(arg)) if stacked else aff[i]) * coords[i]
    derivs = _atom_derivatives(node, arg, order)
    if order == 0:  # the value alone; spares grid-sized copies
        return derivs[0][..., None]
    out = np.stack(derivs, axis=-1)[..., degree]
    powers = aff[..., None] ** np.arange(order + 1.0)  # a_i^j, once per member
    factors = powers.reshape(aff.shape[:-1] + (-1,))[..., power_index].prod(axis=-1)
    out *= _spread(factors, len(out)) if stacked else factors
    return out


def _spread(values, rows: int) -> np.ndarray:
    """A stacked leaf's per-member ``values`` ``(B, ...)`` on ``rows`` coordinate rows, ``rows / B`` per member."""
    return np.repeat(values, rows // len(values), axis=0)


def _atom_derivatives(node: dict, arg: np.ndarray, order: int):
    """``[f(arg), ..., f^(order)(arg)]`` of an atom leaf; a stacked leaf picks ``f`` per member."""
    fn = node["fn"]
    if isinstance(fn, str):
        return atom_derivatives(fn, arg, order, node.get("exponent"))
    out = [np.empty_like(arg) for _ in range(order + 1)]
    per_member = list(zip(fn, node["exponent"]))
    for key in dict.fromkeys(per_member):
        rows = _spread(np.array([pair == key for pair in per_member]), len(arg))
        for dst, src in zip(out, atom_derivatives(key[0], arg[rows], order, key[1])):
            dst[rows] = src
    return out


def _stack_tree(trees) -> dict:
    """One tree carrying the leaf parameters of the B trees in ``trees``, one row each.

    The trees must share one layout: the same kinds and lengths everywhere and
    the same quad leaves.  A subtree common to all of them is kept as it is.
    Elsewhere a scale holds its coefficient and an atom its ``const`` as
    ``(B,)`` arrays, an atom's ``affine`` becomes ``(B, n)`` and its ``fn`` and
    ``exponent`` per-member tuples.  The engine evaluates such a tree on ``B
    p`` coordinate rows, member-major: it spreads each member's parameters
    over its p rows only where they meet the coordinates, so what depends on
    the parameters alone (an atom's powers ``a_i^j``) is computed once per
    member.
    """
    first = trees[0]
    if all(t == first for t in trees[1:]):
        return first
    kind = first["kind"]
    if any(t["kind"] != kind for t in trees):
        raise DimensionMismatch("stacked specs differ in their tree layout")
    if kind in ("sum", "product"):
        key = "terms" if kind == "sum" else "factors"
        if any(len(t[key]) != len(first[key]) for t in trees):
            raise DimensionMismatch("stacked specs differ in their tree layout")
        return {"kind": kind, key: [_stack_tree(children) for children in zip(*(t[key] for t in trees))]}
    if kind == "scale":
        return {
            "kind": "scale",
            "coefficient": np.array([t["coefficient"] for t in trees], dtype=float),
            "term": _stack_tree([t["term"] for t in trees]),
        }
    if kind == "quad":
        raise DimensionMismatch("stacked specs differ in a quadratic leaf")
    return {
        "kind": "atom",
        "fn": tuple(t["fn"] for t in trees),
        "affine": np.array([t["affine"] for t in trees], dtype=float),
        "const": np.array([t["const"] for t in trees], dtype=float),
        "exponent": tuple(t.get("exponent") for t in trees),
    }


def substitute(node: dict, scale, extra: int = 0) -> dict:
    """The tree of ``x -> node(scale * x)`` over ``len(scale) + extra`` coordinates.

    The one coordinate change of trees: old coordinate ``i`` becomes
    ``scale[i]`` times new coordinate ``i``, so a quad entry ``m[i][j]``
    becomes ``scale[i] * scale[j] * m[i][j]`` and a linear or affine entry
    ``v[i]`` becomes ``scale[i] * v[i]``; the ``extra`` trailing coordinates
    get zeros, so the tree does not depend on them.  Sum, product and scale
    nodes are rebuilt around their rewritten children.  A stacked tree
    (:class:`SpecBlock`) is rewritten the same way, row by row.
    """
    kind = node["kind"]
    if kind == "sum":
        return {"kind": "sum", "terms": [substitute(t, scale, extra) for t in node["terms"]]}
    if kind == "product":
        return {"kind": "product", "factors": [substitute(t, scale, extra) for t in node["factors"]]}
    if kind == "scale":
        return {"kind": "scale", "coefficient": node["coefficient"], "term": substitute(node["term"], scale, extra)}
    pad = [0.0] * extra
    if kind == "quad":
        rows = [[si * sj * v for sj, v in zip(scale, row)] + pad for si, row in zip(scale, node["matrix"])]
        return {
            "kind": "quad",
            "matrix": rows + [[0.0] * (len(scale) + extra) for _ in range(extra)],
            "linear": [s * v for s, v in zip(scale, node["linear"])] + pad,
            "constant": node["constant"],
        }
    affine = node["affine"]
    if isinstance(affine, np.ndarray):  # a stacked leaf: one row per member
        return {**node, "affine": np.concatenate([affine * scale, np.zeros((len(affine), extra))], axis=1)}
    return {**node, "affine": [s * v for s, v in zip(scale, affine)] + pad}


# ---------------------------------------------------------------------------
# SpaceTimeJet
# ---------------------------------------------------------------------------


@dataclass
class SpaceTimeJet:
    """Truncated derivative table of u at one point, with its time derivative.

    ``table`` is the jet array of the engine at the point: column ``c`` holds
    the spatial partial ``multi_indices(nvars, order)[c]``, so column 0 is the
    value of the spatial tree.  ``drift`` is du/dt, the spec's drift, and 0.0
    for a spec without one.  A spec's time dependence is its linear drift
    alone, so no partial depends on the time and the jet holds none.  Partials
    absent from a table, or above its order, read zero.
    """

    nvars: int
    order: int
    k: int
    l: int
    flavor: str
    table: np.ndarray
    drift: float = 0.0

    def d(self, beta: MultiIndex) -> float:
        c = _columns(self.nvars, self.order)[0].get(tuple(beta))
        return 0.0 if c is None else self.table[c].item()

    def gradient(self):
        return np.array([self.d(unit_index(self.nvars, i)) for i in range(self.nvars)])

    def hessian(self):
        if self.order < 2:  # no second partials in the table: they read zero
            return np.zeros((self.nvars, self.nvars))
        return self.table[_hessian_columns(self.nvars, self.order)]

    def hessian_blocks(self):
        """Convex/mixed/concave Hessian blocks (A, B, C) of a real-flavored jet.

        A is k x k, B is k x l, C is l x l; the class conditions are
        ``lam <= A <= Lam`` and ``lam <= -C <= Lam``.
        """
        if self.flavor != "real":
            raise DimensionMismatch("hessian_blocks applies to real-flavored jets")
        h = self.hessian()
        k = self.k
        return h[:k, :k], h[:k, k:], h[k:, k:]


def _require_order(order: int) -> None:
    if order < 0:
        raise TmaError(f"jet order must be >= 0, got {order}")


def evaluate_jet(spec: ExpressionSpec, point, order: int = 4) -> SpaceTimeJet:
    """Exact spatial derivative table of ``spec`` at ``point``, plus its time drift.

    Raises
    ------
    DomainViolation
        when an atom is evaluated outside its domain or the point leaves the
        declared box.
    """
    _require_order(order)
    point = tuple(float(c) for c in point)
    if len(point) != spec.nvars:
        raise DimensionMismatch(f"point has {len(point)} coordinates, spec has {spec.nvars}")
    if not spec.in_domain(point):
        raise DomainViolation(f"point {point} outside declared box of halfwidth {spec.domain_halfwidth}")
    return SpaceTimeJet(
        nvars=spec.nvars,
        order=order,
        k=spec.k,
        l=spec.l,
        flavor=spec.flavor,
        table=_node_jet(spec.expr, point, order),
        drift=spec.time_drift or 0.0,  # a drift of -0.0 reads 0.0
    )


@lru_cache(maxsize=None)
def _hessian_columns(nvars: int, order: int) -> np.ndarray:
    """``(n, n)`` array of the column of ``e_i + e_j`` in a jet array over ``multi_indices(n, order)``."""
    col, _, _ = _columns(nvars, order)
    return np.array(
        [[col[unit_index(nvars, i, j)] for j in range(nvars)] for i in range(nvars)], dtype=np.intp
    )


@dataclass(frozen=True)
class SpecBlock:
    """B specs of one shape, flavor and tree layout, each at its own p points: one call of the jet engine.

    ``tree`` is the members' one tree with their leaf parameters stacked as
    :func:`_stack_tree` lays them out, ``halfwidth`` the ``(B,)`` declared
    boxes and ``points`` the ``(B, p, nvars)`` evaluation points, member
    ``r`` at ``points[r]``.  :meth:`of` stacks a list of specs;
    :func:`tma.funclass.draw_block` draws ensemble members straight into
    this form.  Either way :meth:`jets` is the one engine call.
    """

    tree: dict
    k: int
    l: int
    flavor: str
    halfwidth: np.ndarray
    points: np.ndarray

    @property
    def nvars(self) -> int:
        return self.points.shape[2]

    @classmethod
    def of(cls, members, points) -> "SpecBlock":
        """The block of ``members``, spec ``r`` at ``points[r]``; raises :class:`DimensionMismatch` as ``stacked_jets``."""
        if not members:
            raise DimensionMismatch("a block of stacked specs needs at least one spec")
        first = members[0]
        if any((s.k, s.l, s.flavor) != (first.k, first.l, first.flavor) for s in members):
            raise DimensionMismatch("stacked specs differ in shape or flavor")
        points = np.asarray(points, dtype=float)
        if points.ndim != 3 or points.shape[0] != len(members) or points.shape[2] != first.nvars:
            raise DimensionMismatch(
                f"points of shape {points.shape} do not give {len(members)} specs {first.nvars} coordinates each"
            )
        halfwidth = np.array([s.domain_halfwidth for s in members])
        return cls(_stack_tree([s.expr for s in members]), first.k, first.l, first.flavor, halfwidth, points)

    def jets(self, order: int) -> np.ndarray:
        """``(B, p, P)`` jet arrays over ``multi_indices(nvars, order)``; raises as :func:`stacked_jets`."""
        _require_order(order)
        points = self.points
        outside = ~np.all(np.abs(points) <= self.halfwidth[:, None, None], axis=2)
        if outside.any():
            r, i = np.unravel_index(np.argmax(outside), outside.shape)
            raise DomainViolation(
                f"point {tuple(points[r, i].tolist())} outside declared box of halfwidth {self.halfwidth[r]}"
            )
        # one row per (spec, point), on contiguous 1-D coordinate arrays: strided
        # or 2-D ones would slow every elementwise step of the engine
        b, p, n = points.shape
        coords = np.ascontiguousarray(points.reshape(b * p, n).T)
        return _node_jet(self.tree, tuple(coords), order).reshape(b, p, len(multi_indices(n, order)))


def stacked_jets(members, points, order: int = 4) -> np.ndarray:
    """Spatial jets of a block of specs, each at its own points, from one engine call.

    ``members`` are B specs of one shape and flavor whose trees share one
    layout (the draws of one ensemble do: a common quad plus scaled atoms);
    ``points`` is ``(B, p, nvars)`` and spec ``r`` is evaluated at
    ``points[r]``.  Returns ``(B, p, P)`` jet arrays over ``multi_indices(nvars,
    order)``; each row is bit-identical to the table of ``evaluate_jet`` at
    that point.  This is :meth:`SpecBlock.jets` of ``SpecBlock.of(members,
    points)``.

    Raises
    ------
    DimensionMismatch
        when there are no specs, the specs differ in shape, flavor or tree
        layout, or ``points`` does not hold p points of ``nvars`` coordinates
        for each spec (p may be 0).
    DomainViolation
        naming the first (spec, point) row that leaves its spec's box, or when
        an atom is evaluated outside its domain.
    """
    return SpecBlock.of(members, points).jets(order)


def _cloud_jet(spec: ExpressionSpec, points, order: int) -> np.ndarray:
    """Jet arrays ``(m, P)`` of ``spec`` at the rows of an ``(m, nvars)`` point array: a block of one spec."""
    return stacked_jets([spec], np.asarray(points, dtype=float)[None], order)[0]


def evaluate_hessians(spec: ExpressionSpec, points) -> np.ndarray:
    """Real-coordinate Hessians of ``spec`` at the rows of an ``(m, nvars)`` point array.

    Returns the ``(m, nvars, nvars)`` stack from one engine call; each matrix
    is bit-identical to ``evaluate_jet(spec, point, order=2).hessian()``.

    Raises
    ------
    DimensionMismatch
        when ``points`` is not two-dimensional with ``nvars`` columns.
    DomainViolation
        naming the first row that leaves the declared box, or when an atom is
        evaluated outside its domain.
    """
    return _cloud_jet(spec, points, 2)[..., _hessian_columns(spec.nvars, 2)]


# ---------------------------------------------------------------------------
# Wirtinger conversion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _wirtinger_expansion(m: int, hol: MultiIndex, anti: MultiIndex):
    """Expansion of prod d/dz^hol d/dzbar^anti into real partials over 2m coords.

    Returns a tuple of (real multi-index, complex coefficient) sorted by the
    multi-index.  For conjugate key pairs the expansions are exact
    coefficient-wise conjugates by construction, which makes the conjugation
    symmetry of converted tables bit-exact.
    """
    if hol < anti:  # canonical half; the other is the exact conjugate
        base = _wirtinger_expansion(m, anti, hol)
        return tuple((beta, coeff.conjugate()) for beta, coeff in base)
    terms: Dict[MultiIndex, complex] = {(0,) * (2 * m): 1.0 + 0.0j}
    for a in range(m):
        for sign, count in ((-0.5j, hol[a]), (0.5j, anti[a])):
            for _ in range(count):
                new: Dict[MultiIndex, complex] = {}
                for beta, c in terms.items():
                    bx = list(beta)
                    bx[a] += 1
                    kx = tuple(bx)
                    new[kx] = new.get(kx, 0.0j) + 0.5 * c
                    by = list(beta)
                    by[m + a] += 1
                    ky = tuple(by)
                    new[ky] = new.get(ky, 0.0j) + sign * c
                terms = new
    return tuple(sorted((beta, c) for beta, c in terms.items() if c != 0.0))


@dataclass
class WirtingerTable:
    """Mixed holomorphic/antiholomorphic partials at one point of C^k x C^l, or at a stack of points.

    ``entries[..., c]`` is ``d^{hol}_z d^{anti}_zbar u`` for the key ``(hol,
    anti) = wirtinger_keys(k + l, order)[c]``, a pair of exponent tuples over
    the m = k + l complex variables (z-slots first, then w-slots).  A table
    at one point has one axis; the leading axes of a stack run over its
    points.  For real-valued u the entries satisfy ``entry(anti, hol) ==
    conj(entry(hol, anti))`` bit-exactly.  ``drift`` is du/dt, the drift of
    the jet it was converted from.
    """

    k: int
    l: int
    order: int
    entries: np.ndarray
    drift: float = 0.0

    @property
    def m(self) -> int:
        return self.k + self.l

    def d(self, hol: MultiIndex, anti: MultiIndex) -> complex:
        c = _wirtinger_positions(self.m, self.order).get((tuple(hol), tuple(anti)))
        return 0.0 if c is None else self.entries[c].item()

    def hessian(self):
        """The ``(m, m)`` Wirtinger Hessian ``h[a, b] = u_{z_a zbar_b}`` (a stack of them for a stack)."""
        if self.order < 2:  # no second partials in the table: they read zero
            return np.zeros(self.entries.shape[:-1] + (self.m, self.m), dtype=complex)
        return self.entries[..., _wirtinger_hessian_positions(self.m, self.order)]

    def second_blocks(self):
        """Wirtinger second-derivative blocks (Z, M, V) of :meth:`hessian`.

        ``Z[a,b] = u_{z_a zbar_b}`` (k x k), ``M[a,c] = u_{z_a wbar_c}``
        (k x l), ``V[c,d] = u_{w_c wbar_d}`` (l x l); Z and V are Hermitian for
        real-valued u, and the class conditions are ``lam <= Z <= Lam`` and
        ``lam <= -V <= Lam``.  A stack gives stacks of blocks.
        """
        h = self.hessian()
        k = self.k
        return h[..., :k, :k], h[..., :k, k:], h[..., k:, k:]


@lru_cache(maxsize=None)
def wirtinger_keys(m: int, order: int) -> Tuple[WirtKey, ...]:
    """Every key ``(hol, anti)`` of total order <= ``order`` over m complex variables, in table order."""
    return tuple(
        (hol, anti) for hol in multi_indices(m, order) for anti in multi_indices(m, order - sum(hol))
    )


@lru_cache(maxsize=None)
def _wirtinger_positions(m: int, order: int) -> Dict[WirtKey, int]:
    """The column of every key among ``wirtinger_keys(m, order)``."""
    return {key: c for c, key in enumerate(wirtinger_keys(m, order))}


@lru_cache(maxsize=None)
def _wirtinger_hessian_positions(m: int, order: int) -> np.ndarray:
    """``(m, m)`` columns of the keys ``(e_a, e_b)`` among ``wirtinger_keys(m, order)``."""
    position = _wirtinger_positions(m, order)
    return np.array(
        [[position[(unit_index(m, a), unit_index(m, b))] for b in range(m)] for a in range(m)], dtype=np.intp
    )


@lru_cache(maxsize=None)
def _wirtinger_gather(m: int, order: int):
    """Real columns and coefficients of the expansion of every key, term by term.

    Returns two ``(T, K)`` arrays over the K keys of ``wirtinger_keys(m,
    order)``: row t holds each key's t-th term of ``_wirtinger_expansion`` (its
    column in a jet array over ``multi_indices(2m, order)`` and its complex
    coefficient).  Keys with fewer than T terms are padded with coefficient 0.
    """
    col, _, _ = _columns(2 * m, order)
    expansions = [_wirtinger_expansion(m, hol, anti) for hol, anti in wirtinger_keys(m, order)]
    width = max(len(e) for e in expansions)
    cols = np.zeros((width, len(expansions)), dtype=np.intp)
    coeffs = np.zeros((width, len(expansions)), dtype=complex)
    for c, terms in enumerate(expansions):
        for t, (beta, coeff) in enumerate(terms):
            cols[t, c] = col[beta]
            coeffs[t, c] = coeff
    return cols, coeffs


def _wirtinger_entries(jets: np.ndarray, m: int, order: int) -> np.ndarray:
    """Wirtinger partials ``(..., K)`` of real jet arrays ``(..., P)`` over 2m coordinates.

    Each key sums the terms of its expansion in expansion order, one term per
    pass over all rows, so every row rounds as it would alone.
    """
    cols, coeffs = _wirtinger_gather(m, order)
    out = coeffs[0] * jets[..., cols[0]]
    for c, w in zip(cols[1:], coeffs[1:]):
        out += w * jets[..., c]
    return out


def wirtinger_stack(jets: np.ndarray, k: int, l: int, order: int) -> WirtingerTable:
    """Convert real jet arrays ``(..., P)`` over ``multi_indices(2(k + l), order)`` into a stack.

    Rows are bit-identical to :func:`wirtinger_from_real` of each row's jet.
    """
    return WirtingerTable(k=k, l=l, order=order, entries=_wirtinger_entries(jets, k + l, order))


def wirtinger_hessians(spec: ExpressionSpec, points) -> np.ndarray:
    """Wirtinger Hessians ``u_{z_a zbar_b}`` of a complex-flavored spec at the rows of ``points``.

    Returns the ``(N, m, m)`` stack (``m = k + l``, z-slots first) from one
    engine call on the ``(N, 2m)`` real coordinates and one conversion, the
    one :func:`wirtinger_from_real` makes, so the entries are bit-identical to
    :meth:`WirtingerTable.second_blocks`.  Guards as for
    :func:`evaluate_hessians`.
    """
    if spec.flavor != "complex":
        raise DimensionMismatch("wirtinger_hessians applies to complex-flavored specs")
    m = spec.k + spec.l
    entries = _wirtinger_entries(_cloud_jet(spec, points, 2), m, 2)
    return entries[..., _wirtinger_hessian_positions(m, 2)]


def wirtinger_from_real(jet: SpaceTimeJet) -> WirtingerTable:
    """Convert a real-coordinate jet over R^{2m} into a Wirtinger table.

    The pairing is the fixed layout ``[Re z_1..Re z_m, Im z_1..Im z_m]``.

    Raises
    ------
    DimensionMismatch
        if the jet dimension is odd.
    """
    if jet.nvars % 2 != 0:
        raise DimensionMismatch(f"cannot pair {jet.nvars} real coordinates into complex ones")
    m = jet.nvars // 2
    if jet.k + jet.l == m:
        k, l = jet.k, jet.l
    else:
        k, l = m, 0
    return WirtingerTable(
        k=k,
        l=l,
        order=jet.order,
        entries=_wirtinger_entries(jet.table, m, jet.order),
        drift=jet.drift,
    )
