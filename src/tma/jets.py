"""Exact jets of analytic test functions, in real and Wirtinger form.

An :class:`ExpressionSpec` describes a test function as a tree of quadratic
forms, univariate analytic atoms applied to affine arguments, and
sum/product/scale combinators.  One engine evaluates every tree: it returns
all partials to a given total order at a whole array of points at once, as an
array with one trailing column per multi-index.  Quadratic forms contribute
their value, gradient and constant Hessian; an atom of an affine argument
contributes ``d^beta f(a.x + c) = f^(|beta|)(a.x + c) a^beta`` in closed form;
sums and scales add and multiply arrays; products follow the Leibniz rule.
The jets of a :class:`SpecBlock` (a block of ensemble draws with their leaf
parameters stacked, each at its own points, or one spec at a point array)
and grid values (:func:`tma.solver.evaluate_on_grid`) come from it.  Every
per-point or per-array call is a one-spec block: point values
(:meth:`ExpressionSpec.value`), jets (:func:`evaluate_jet`, every spatial
partial to total order 4 as a :class:`SpaceTimeJet`, row 0 of a one-row
block) and the Hessians of a whole ``(m, n)`` point array
(:func:`evaluate_hessians`, an ``(m, n, n)`` stack; :func:`wirtinger_hessians`,
the ``(m, k + l, k + l)`` stack of ``u_{z_a zbar_b}``).  :func:`substitute` is
the one rewriter of trees: it changes a tree's coordinates by ``x -> scale * x``,
optionally adding coordinates the tree does not depend on.

Complex-flavored specs live on real coordinates ``[Re z_1..Re z_m, Im z_1..Im
z_m]`` where the m = k + l complex variables are ``(z_1..z_k, w_1..w_l)``.
This module owns two shape rules that every other module reads:
:func:`coordinate_count` is the one place that counts the real coordinates
of a ``(k, l, flavor)`` function, and :func:`check_dims` is the one check of
``(k, l)``, run by :class:`ExpressionSpec`, :class:`SpaceTimeJet`,
:class:`WirtingerTable` and :class:`tma.funclass.EnsembleSpec`.
:func:`wirtinger_stack` converts a stack of their jet arrays into mixed
holomorphic/antiholomorphic partials under the fixed normalization
``d/dz = (d/dx - i d/dy)/2``, by one cached gather of every key's expansion
terms; :func:`wirtinger_from_real` is the same conversion of one jet.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .errors import DimensionMismatch, DomainViolation, ParseError, TmaError, UnknownAtom
from .taylor import ATOM_NAMES, atom_derivatives

MultiIndex = Tuple[int, ...]
WirtKey = Tuple[MultiIndex, MultiIndex]

KINDS = ("sum", "product", "scale", "quad", "atom")
FLAVORS = ("real", "complex")


def coordinate_count(k: int, l: int, flavor: str) -> int:
    """The real coordinates of a ``(k, l, flavor)`` function: ``k + l``, or ``2(k + l)`` for complex ones."""
    return k + l if flavor == "real" else 2 * (k + l)


def integral(x) -> bool:
    """True for a Python or numpy integer; a bool is no integer here."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_dims(k, l) -> None:
    """Raise :class:`ParseError` unless ``k, l`` are integers (not bools) with ``k, l >= 0`` and ``k + l >= 1``."""
    if not (integral(k) and integral(l) and k >= 0 and l >= 0 and k + l >= 1):
        raise ParseError(f"at dims: need integers k >= 0, l >= 0, k + l >= 1; got ({k!r}, {l!r})")


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

    Every spec is validated at construction (and so at :meth:`from_dict`,
    and at ``dataclasses.replace``): the flavor, the dims by
    :func:`check_dims`, then the whole tree, raising :class:`ParseError` or
    :class:`UnknownAtom` naming the path of the first fault.
    """

    expr: dict
    k: int
    l: int
    flavor: str = "real"
    time_drift: float = 0.0
    domain_halfwidth: float = math.inf

    @property
    def nvars(self) -> int:
        return coordinate_count(self.k, self.l, self.flavor)

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ParseError(f"at flavor: expected one of {FLAVORS}, got {self.flavor!r}")
        check_dims(self.k, self.l)
        _validate_node(self.expr, self.nvars, "expr")

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, obj) -> "ExpressionSpec":
        if not isinstance(obj, dict):
            raise ParseError(f"at top level: expected an object, got {type(obj).__name__}")
        meta_keys = ("dims", "flavor", "time_drift", "domain")
        expr = {k: v for k, v in obj.items() if k not in meta_keys}
        flavor = obj.get("flavor", "real")
        n = _infer_nvars(expr)
        if n is None:
            raise ParseError("at expr: no quad/atom node fixes the dimension")
        dims = obj.get("dims")
        if dims is None:  # every variable convex
            dims = [n // coordinate_count(1, 0, flavor), 0]
        if not isinstance(dims, list) or len(dims) != 2:
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
    for name in dict.fromkeys(fn):
        rows = _spread(np.array([f == name for f in fn]), len(arg))
        for dst, src in zip(out, atom_derivatives(name, arg[rows], order)):
            dst[rows] = src
    return out


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


@dataclass(frozen=True)
class SpaceTimeJet:
    """Truncated derivative table of u at one point, with its time derivative.

    ``table`` is the jet array of the engine at the point: column ``c`` holds
    the spatial partial ``multi_indices(nvars, order)[c]``, so column 0 is the
    value of the spatial tree.  ``drift`` is du/dt, the spec's drift, and 0.0
    for a spec without one.  A spec's time dependence is its linear drift
    alone, so no partial depends on the time and the jet holds none.  Partials
    absent from a table, or above its order, read zero.  An unknown flavor, or
    a table without one column per partial, raises :class:`DimensionMismatch`;
    dims that fail :func:`check_dims` raise :class:`ParseError`.
    """

    order: int
    k: int
    l: int
    flavor: str
    table: np.ndarray
    drift: float = 0.0

    @property
    def nvars(self) -> int:
        return coordinate_count(self.k, self.l, self.flavor)

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise DimensionMismatch(f"jet flavor must be one of {FLAVORS}, got {self.flavor!r}")
        check_dims(self.k, self.l)
        _check_width("jet table", self.table, len(multi_indices(self.nvars, self.order)))

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


def evaluate_jet(spec: ExpressionSpec, point, order: int = 4) -> SpaceTimeJet:
    """Exact spatial derivative table of ``spec`` at ``point``, plus its time drift.

    The table is row ``[0, 0]`` of ``SpecBlock.at(spec, [point]).jets(order)``,
    and raises what they raise.
    """
    return SpaceTimeJet(
        order=order,
        k=spec.k,
        l=spec.l,
        flavor=spec.flavor,
        table=SpecBlock.at(spec, [tuple(point)]).jets(order)[0, 0],
        drift=spec.time_drift or 0.0,  # a drift of -0.0 reads 0.0
    )


def _check_width(what: str, a, width: int) -> None:
    """Raise :class:`DimensionMismatch` unless the last axis of ``a`` has ``width`` columns, one per key."""
    if np.shape(a)[-1:] != (width,):
        raise DimensionMismatch(f"{what} of shape {np.shape(a)} needs {width} columns, one per key")


@lru_cache(maxsize=None)
def _hessian_columns(nvars: int, order: int) -> np.ndarray:
    """``(n, n)`` array of the column of ``e_i + e_j`` in a jet array over ``multi_indices(n, order)``."""
    col, _, _ = _columns(nvars, order)
    return np.array(
        [[col[unit_index(nvars, i, j)] for j in range(nvars)] for i in range(nvars)], dtype=np.intp
    )


@dataclass(frozen=True)
class SpecBlock:
    """B members of one shape, flavor and box, each at its own p points: one call of the jet engine.

    ``points`` is ``(B, p, nvars)``, member ``r`` at ``points[r]``.  A block
    of ensemble draws (:func:`tma.funclass.draw_block`) carries the B draws'
    numbers in the stacked leaves of one ``tree``: a scale's coefficient and
    an atom's ``const`` are ``(B,)`` arrays, its ``affine`` ``(B, nvars)`` and
    its ``fn`` a tuple of B names.  The engine spreads each member's numbers
    over its p rows only where they meet the coordinates, so an atom's powers
    ``a_i^j`` are computed once per member.  :meth:`at` makes the block of
    one spec on its own tree.
    """

    tree: dict
    k: int
    l: int
    flavor: str
    halfwidth: float
    points: np.ndarray

    @property
    def nvars(self) -> int:
        return self.points.shape[2]

    @classmethod
    def at(cls, spec: ExpressionSpec, points) -> "SpecBlock":
        """``spec`` alone at the rows of an ``(m, nvars)`` point array; another shape raises :class:`DimensionMismatch`."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != spec.nvars:
            raise DimensionMismatch(f"points of shape {points.shape} are not rows of {spec.nvars} coordinates")
        return cls(spec.expr, spec.k, spec.l, spec.flavor, spec.domain_halfwidth, points[None])

    def jets(self, order: int) -> np.ndarray:
        """``(B, p, P)`` jet arrays over ``multi_indices(nvars, order)``; :func:`evaluate_jet` reads one row.

        Raises :class:`TmaError` for a negative order, and :class:`DomainViolation` naming the first
        (member, point) row outside the box, or when an atom is evaluated outside its domain.
        """
        if order < 0:
            raise TmaError(f"jet order must be >= 0, got {order}")
        points = self.points
        outside = ~np.all(np.abs(points) <= self.halfwidth, axis=2)
        if outside.any():
            r, i = np.unravel_index(np.argmax(outside), outside.shape)
            raise DomainViolation(
                f"point {tuple(points[r, i].tolist())} outside declared box of halfwidth {self.halfwidth}"
            )
        # one row per (member, point), on contiguous 1-D coordinate arrays: strided
        # or 2-D ones would slow every elementwise step of the engine
        b, p, n = points.shape
        coords = np.ascontiguousarray(points.reshape(b * p, n).T)
        return _node_jet(self.tree, tuple(coords), order).reshape(b, p, len(multi_indices(n, order)))


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
    return SpecBlock.at(spec, points).jets(2)[0][..., _hessian_columns(spec.nvars, 2)]


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


@dataclass(frozen=True)
class WirtingerTable:
    """Mixed holomorphic/antiholomorphic partials at one point of C^k x C^l, or at a stack of points.

    ``entries[..., c]`` is ``d^{hol}_z d^{anti}_zbar u`` for the key ``(hol,
    anti) = wirtinger_keys(k + l, order)[c]``, a pair of exponent tuples over
    the m = k + l complex variables (z-slots first, then w-slots).  A table
    at one point has one axis; the leading axes of a stack run over its
    points.  For real-valued u the entries satisfy ``entry(anti, hol) ==
    conj(entry(hol, anti))`` bit-exactly.  ``drift`` is du/dt, the drift of
    the jet it was converted from.  A table without one column per key raises
    :class:`DimensionMismatch` when it is built, and dims that fail
    :func:`check_dims` raise :class:`ParseError`.
    """

    k: int
    l: int
    order: int
    entries: np.ndarray
    drift: float = 0.0

    def __post_init__(self):
        check_dims(self.k, self.l)
        _check_width("Wirtinger table", self.entries, len(wirtinger_keys(self.m, self.order)))

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


def wirtinger_stack(jets: np.ndarray, k: int, l: int, order: int) -> WirtingerTable:
    """Convert real jet arrays ``(..., P)`` over ``multi_indices(2(k + l), order)`` into a stack.

    Each key sums the terms of its expansion in expansion order, one term per
    pass over all rows, so every row rounds as it would alone.
    """
    cols, coeffs = _wirtinger_gather(k + l, order)
    entries = coeffs[0] * jets[..., cols[0]]
    for c, w in zip(cols[1:], coeffs[1:]):
        entries += w * jets[..., c]
    return WirtingerTable(k=k, l=l, order=order, entries=entries)


def wirtinger_hessians(spec: ExpressionSpec, points) -> np.ndarray:
    """Wirtinger Hessians ``u_{z_a zbar_b}`` of a complex-flavored spec at the rows of ``points``.

    Returns the ``(N, m, m)`` stack (``m = k + l``, z-slots first) of
    :func:`wirtinger_stack` on the order-2 jets of ``SpecBlock.at(spec,
    points)``.  Guards as for :func:`evaluate_hessians`.
    """
    if spec.flavor != "complex":
        raise DimensionMismatch("wirtinger_hessians applies to complex-flavored specs")
    return wirtinger_stack(SpecBlock.at(spec, points).jets(2)[0], spec.k, spec.l, 2).hessian()


def wirtinger_from_real(jet: SpaceTimeJet) -> WirtingerTable:
    """The Wirtinger table of a complex-flavored jet: :func:`wirtinger_stack` of its table, with its drift.

    A real jet raises :class:`DimensionMismatch`.
    """
    if jet.flavor != "complex":
        raise DimensionMismatch(f"wirtinger_from_real applies to complex-flavored jets, got a {jet.flavor} jet")
    return replace(wirtinger_stack(jet.table, jet.k, jet.l, jet.order), drift=jet.drift)
