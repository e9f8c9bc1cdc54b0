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
stack of ``u_{z_a zbar_b}``) and grid values
(:func:`tma.solver.evaluate_on_grid`) all come from it.  :func:`map_leaves` is
the one rewriter of trees: it rebuilds a tree with every leaf mapped.

Complex-flavored specs live on real coordinates ``[Re z_1..Re z_m, Im z_1..Im
z_m]`` where the m = k + l complex variables are ``(z_1..z_k, w_1..w_l)``.
:func:`wirtinger_from_real` converts a real jet into mixed
holomorphic/antiholomorphic partials under the fixed normalization
``d/dz = (d/dx - i d/dy)/2``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .errors import DimensionMismatch, DomainViolation, ParseError, UnknownAtom
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
    return float(x)


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
            for j, v in enumerate(row):
                _check_number(v, f"{path}.matrix[{i}][{j}]")
        for i in range(nvars):
            for j in range(i):
                if float(m[i][j]) != float(m[j][i]):
                    raise _err(path + ".matrix", f"not symmetric at ({i},{j})")
        lin = node.get("linear")
        if not isinstance(lin, list) or len(lin) != nvars:
            raise _err(path + ".linear", f"expected {nvars} entries")
        for j, v in enumerate(lin):
            _check_number(v, f"{path}.linear[{j}]")
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
        for j, v in enumerate(aff):
            _check_number(v, f"{path}.affine[{j}]")
        _check_number(node.get("const"), path + ".const")
        if fn == "pow":
            _check_number(node.get("exponent"), path + ".exponent")
        elif "exponent" in node:
            raise _err(path + ".exponent", "only pow atoms carry an exponent")


def _infer_nvars(node, path: str = "expr") -> int | None:
    """First dimension hint found in the tree (length of a quad matrix or atom affine)."""
    kind = node.get("kind") if isinstance(node, dict) else None
    if kind == "quad" and isinstance(node.get("matrix"), list):
        return len(node["matrix"])
    if kind == "atom" and isinstance(node.get("affine"), list):
        return len(node["affine"])
    if kind == "sum":
        for t in node.get("terms") or []:
            n = _infer_nvars(t, path)
            if n is not None:
                return n
    if kind == "product":
        for t in node.get("factors") or []:
            n = _infer_nvars(t, path)
            if n is not None:
                return n
    if kind == "scale" and isinstance(node.get("term"), dict):
        return _infer_nvars(node["term"], path)
    return None


@dataclass(frozen=True)
class ExpressionSpec:
    """Analytic test-function description with exact jet evaluation.

    ``expr`` is the validated kind-tree; ``k``/``l`` split the variables into
    the convex and concave blocks; ``flavor`` selects real coordinates
    (``nvars = k + l``) or complex ones (``nvars = 2(k + l)`` real
    coordinates).  ``time_drift`` adds a linear-in-time term ``drift * t``,
    the only explicit time dependence a spec can carry.
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

    @classmethod
    def from_json(cls, text: str) -> "ExpressionSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
        return cls.from_dict(obj)

    # -- evaluation --------------------------------------------------------

    def value(self, point, time: float = 0.0) -> float:
        coords = tuple(float(c) for c in point)
        return float(_node_jet(self.expr, coords, 0)[0]) + self.time_drift * time

    def jet(self, point, time: float = 0.0, order: int = 4) -> "SpaceTimeJet":
        return evaluate_jet(self, point, time, order=order)

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
    and the exponents as a float ``(columns, nvars)`` array.
    """
    idx = multi_indices(nvars, order)
    col = {beta: c for c, beta in enumerate(idx)}
    degree = np.array([sum(beta) for beta in idx], dtype=np.intp)
    return col, degree, np.array(idx, dtype=float)


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
        out *= node["coefficient"]
        return out
    n = len(coords)
    col, degree, exps = _columns(n, order)
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
    aff = node["affine"]
    arg = np.full(shape, float(node["const"]))
    for a, xi in zip(aff, coords):
        if a != 0.0:
            arg += a * xi
    derivs = atom_derivatives(node["fn"], arg, order, node.get("exponent"))
    if order == 0:  # the value alone; spares grid-sized copies
        return derivs[0][..., None]
    out = np.stack(derivs, axis=-1)[..., degree]
    out *= np.prod(np.asarray(aff, dtype=float) ** exps, axis=-1)
    return out


def map_leaves(node: dict, *, quad, atom) -> dict:
    """A copy of the tree ``node`` with every leaf rewritten.

    Sum, product and scale nodes are rebuilt around their rewritten children;
    each quad leaf is replaced by ``quad(leaf)`` and each atom leaf by
    ``atom(leaf)``.
    """
    kind = node["kind"]
    if kind == "sum":
        return {"kind": "sum", "terms": [map_leaves(t, quad=quad, atom=atom) for t in node["terms"]]}
    if kind == "product":
        return {"kind": "product", "factors": [map_leaves(t, quad=quad, atom=atom) for t in node["factors"]]}
    if kind == "scale":
        return {
            "kind": "scale",
            "coefficient": node["coefficient"],
            "term": map_leaves(node["term"], quad=quad, atom=atom),
        }
    return quad(node) if kind == "quad" else atom(node)


# ---------------------------------------------------------------------------
# SpaceTimeJet
# ---------------------------------------------------------------------------


@dataclass
class SpaceTimeJet:
    """Truncated derivative table of u at one space-time point.

    ``table`` holds spatial partials to total order <= ``order`` (default 4);
    ``dt1`` holds spatial partials of du/dt to order <= 2; ``dt2`` holds
    d^2u/dt^2 entries (populated at spatial order 0 — the depth the evolution
    checks need).  Entries absent from a dict are zero.
    """

    point: Tuple[float, ...]
    time: float
    nvars: int
    order: int
    k: int
    l: int
    flavor: str
    table: Dict[MultiIndex, float]
    dt1: Dict[MultiIndex, float] = field(default_factory=dict)
    dt2: Dict[MultiIndex, float] = field(default_factory=dict)

    def d(self, beta: MultiIndex) -> float:
        return self.table.get(tuple(beta), 0.0)

    def dt(self, beta: MultiIndex = ()) -> float:
        b = tuple(beta) if beta else (0,) * self.nvars
        return self.dt1.get(b, 0.0)

    def dtt(self, beta: MultiIndex = ()) -> float:
        b = tuple(beta) if beta else (0,) * self.nvars
        return self.dt2.get(b, 0.0)

    def gradient(self):
        return np.array([self.d(unit_index(self.nvars, i)) for i in range(self.nvars)])

    def hessian(self):
        n = self.nvars
        h = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                h[i, j] = h[j, i] = self.d(unit_index(n, i, j))
        return h

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


def evaluate_jet(spec: ExpressionSpec, point, time: float = 0.0, order: int = 4) -> SpaceTimeJet:
    """Exact spatial derivative table of ``spec`` at ``point``, plus its time drift.

    Raises
    ------
    DomainViolation
        when an atom is evaluated outside its domain or the point leaves the
        declared box.
    """
    point = tuple(float(c) for c in point)
    if len(point) != spec.nvars:
        raise DimensionMismatch(f"point has {len(point)} coordinates, spec has {spec.nvars}")
    if not spec.in_domain(point):
        raise DomainViolation(f"point {point} outside declared box of halfwidth {spec.domain_halfwidth}")
    values = _node_jet(spec.expr, point, order).tolist()
    table = dict(zip(multi_indices(spec.nvars, order), values))
    zero = (0,) * spec.nvars
    dt1: Dict[MultiIndex, float] = {}
    if spec.time_drift != 0.0:
        table[zero] += spec.time_drift * time
        dt1[zero] = spec.time_drift
    return SpaceTimeJet(
        point=point,
        time=time,
        nvars=spec.nvars,
        order=order,
        k=spec.k,
        l=spec.l,
        flavor=spec.flavor,
        table=table,
        dt1=dt1,
    )


@lru_cache(maxsize=None)
def _hessian_columns(nvars: int) -> np.ndarray:
    """``(n, n)`` array of the column of ``e_i + e_j`` in a jet array over ``multi_indices(n, 2)``."""
    col, _, _ = _columns(nvars, 2)
    return np.array(
        [[col[unit_index(nvars, i, j)] for j in range(nvars)] for i in range(nvars)], dtype=np.intp
    )


def _cloud_jet(spec: ExpressionSpec, points, order: int) -> np.ndarray:
    """Jet arrays ``(m, P)`` of ``spec`` at the rows of an ``(m, nvars)`` point array.

    One engine call for all rows; the guards are those of :func:`evaluate_jet`.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != spec.nvars:
        raise DimensionMismatch(f"points of shape {points.shape} do not have {spec.nvars} coordinates each")
    outside = ~np.all(np.abs(points) <= spec.domain_halfwidth, axis=1)
    if outside.any():
        first = tuple(points[np.argmax(outside)].tolist())
        raise DomainViolation(f"point {first} outside declared box of halfwidth {spec.domain_halfwidth}")
    return _node_jet(spec.expr, tuple(points.T), order)


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
    return _cloud_jet(spec, points, 2)[..., _hessian_columns(spec.nvars)]


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


@lru_cache(maxsize=None)
def _real_expansion(m: int, beta: MultiIndex):
    """Expansion of prod d/dX^p d/dY^q into Wirtinger operators; inverse of the above."""
    terms: Dict[WirtKey, complex] = {((0,) * m, (0,) * m): 1.0 + 0.0j}
    for a in range(m):  # d/dX_a = d/dz_a + d/dzbar_a
        for _ in range(beta[a]):
            new: Dict[WirtKey, complex] = {}
            for (h, ab), c in terms.items():
                hh = list(h)
                hh[a] += 1
                key = (tuple(hh), ab)
                new[key] = new.get(key, 0.0j) + c
                aa = list(ab)
                aa[a] += 1
                key = (h, tuple(aa))
                new[key] = new.get(key, 0.0j) + c
            terms = new
    for a in range(m):  # d/dY_a = i (d/dz_a - d/dzbar_a)
        for _ in range(beta[m + a]):
            new = {}
            for (h, ab), c in terms.items():
                hh = list(h)
                hh[a] += 1
                key = (tuple(hh), ab)
                new[key] = new.get(key, 0.0j) + 1.0j * c
                aa = list(ab)
                aa[a] += 1
                key = (h, tuple(aa))
                new[key] = new.get(key, 0.0j) - 1.0j * c
            terms = new
    return tuple(sorted((key, c) for key, c in terms.items() if c != 0.0))


@dataclass
class WirtingerTable:
    """Mixed holomorphic/antiholomorphic partials at one point of C^k x C^l.

    Keys are pairs ``(hol, anti)`` of exponent tuples over the m = k + l
    complex variables (z-slots first, then w-slots); the entry is
    ``d^{hol}_z d^{anti}_zbar u``.  For real-valued u the table satisfies
    ``entry(anti, hol) == conj(entry(hol, anti))`` bit-exactly.
    """

    point: Tuple[float, ...]
    time: float
    k: int
    l: int
    order: int
    entries: Dict[WirtKey, complex]
    dt1: Dict[WirtKey, complex] = field(default_factory=dict)
    dt2: complex = 0.0

    @property
    def m(self) -> int:
        return self.k + self.l

    def d(self, hol: MultiIndex, anti: MultiIndex) -> complex:
        return self.entries.get((tuple(hol), tuple(anti)), 0.0)

    def dt(self, hol: MultiIndex, anti: MultiIndex) -> complex:
        return self.dt1.get((tuple(hol), tuple(anti)), 0.0)

    def zpoint(self) -> Tuple[complex, ...]:
        m = self.m
        return tuple(self.point[a] + 1.0j * self.point[m + a] for a in range(m))

    def second_blocks(self):
        """Wirtinger second-derivative blocks (Z, M, V).

        ``Z[a,b] = u_{z_a zbar_b}`` (k x k), ``M[a,c] = u_{z_a wbar_c}``
        (k x l), ``V[c,d] = u_{w_c wbar_d}`` (l x l); Z and V are Hermitian for
        real-valued u, and the class conditions are ``lam <= Z <= Lam`` and
        ``lam <= -V <= Lam``.
        """
        m, k, l = self.m, self.k, self.l
        z = np.empty((k, k), dtype=complex)
        for a in range(k):
            for b in range(k):
                z[a, b] = self.d(unit_index(m, a), unit_index(m, b))
        mm = np.empty((k, l), dtype=complex)
        for a in range(k):
            for c in range(l):
                mm[a, c] = self.d(unit_index(m, a), unit_index(m, k + c))
        v = np.empty((l, l), dtype=complex)
        for c in range(l):
            for d in range(l):
                v[c, d] = self.d(unit_index(m, k + c), unit_index(m, k + d))
        return z, mm, v


def _convert_real_table(table: Dict[MultiIndex, float], m: int, order: int) -> Dict[WirtKey, complex]:
    out: Dict[WirtKey, complex] = {}
    for hol in multi_indices(m, order):
        for anti in multi_indices(m, order - sum(hol)):
            acc = 0.0 + 0.0j
            for beta, coeff in _wirtinger_expansion(m, hol, anti):
                v = table.get(beta)
                if v is not None and v != 0.0:
                    acc += coeff * v
            out[(hol, anti)] = acc
    return out


def wirtinger_hessians(spec: ExpressionSpec, points) -> np.ndarray:
    """Wirtinger Hessians ``u_{z_a zbar_b}`` of a complex-flavored spec at the rows of ``points``.

    Returns the ``(N, m, m)`` stack (``m = k + l``, z-slots first) from one
    engine call on the ``(N, 2m)`` real coordinates.  Entries sum the terms
    of ``_wirtinger_expansion`` in the order :func:`wirtinger_from_real`
    does, so they are bit-identical to :meth:`WirtingerTable.second_blocks`.
    Guards as for :func:`evaluate_hessians`.
    """
    if spec.flavor != "complex":
        raise DimensionMismatch("wirtinger_hessians applies to complex-flavored specs")
    m = spec.k + spec.l
    jet = _cloud_jet(spec, points, 2)
    col, _, _ = _columns(2 * m, 2)
    out = np.zeros(jet.shape[:-1] + (m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            entry = out[..., a, b]
            for beta, coeff in _wirtinger_expansion(m, unit_index(m, a), unit_index(m, b)):
                entry += coeff * jet[..., col[beta]]
    return out


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
    entries = _convert_real_table(jet.table, m, jet.order)
    dt1 = _convert_real_table(jet.dt1, m, 2) if jet.dt1 else {}
    return WirtingerTable(
        point=jet.point,
        time=jet.time,
        k=k,
        l=l,
        order=jet.order,
        entries=entries,
        dt1=dt1,
        dt2=jet.dtt(),
    )


def real_from_wirtinger(wt: WirtingerTable) -> Dict[MultiIndex, float]:
    """Inverse change of basis: recover the real partial table from a Wirtinger table."""
    m = wt.m
    out: Dict[MultiIndex, float] = {}
    for beta in multi_indices(2 * m, wt.order):
        acc = 0.0 + 0.0j
        for key, coeff in _real_expansion(m, beta):
            acc += coeff * wt.entries.get(key, 0.0)
        out[beta] = acc.real
    return out
