"""Flow calculus for the transformed Hessian and its curvature-type source.

Along the parabolic flow ``du/dt = log det(convex block) - log det(concave
block)`` the transformed Hessian ``W`` of a moving test function satisfies an
entrywise identity: ``(d/dt - L) W`` equals a matrix built from third-order
derivatives only, where ``L`` is the linearized operator ``L(phi) =
tr(Z^-1 phi_zzbar) - tr(V^-1 phi_wwbar)``.  This module computes both sides by
two deliberately independent routes and never lets one stand in for the other:

* **Route A (the arbiter).**  Second-order forward mode on jet arrays: every
  second derivative of the test function becomes a jet array holding its
  value, gradient and Hessian in the spatial increment (exact, gathered from
  an order-4 jet); ``W`` and the flow speed are assembled by Leibniz-rule
  matrix products of such arrays (Neumann series for the inverse, trace-log
  series for the determinant), and ``dW/dt`` and ``L`` applied to each entry
  are read off their Hessian columns.  No term-by-term formula from the source
  matrix ever enters this path.

* **Route B (the transcription).**  :func:`assemble_Q` evaluates the 36
  explicit third-derivative contractions that the right-hand side expands
  into, each tagged with a provenance label and kept at the size of its block,
  and adds each one once into that block of the source.  The four grouped
  quadratic forms returned by :func:`q_sign_groupings` add the same
  contractions up group by group, into sums that are individually Hermitian
  and negative semidefinite, which is the whole reason the flow preserves the
  subsolution property.

:func:`evolution_residual` is the sup-norm gap between the two routes;
:func:`heat_residual` plays the same game one level down, for the scalar
identity ``(d/dt - L)(du/dt) = 0`` satisfied by the flow speed itself.

Both routes run over stacks: :class:`FlowBlock` evaluates a block of members,
each at its own points, with one jet-engine call and one pass of each route
over all rows.  The per-point functions are blocks of one row, and no row's
bits depend on how many rows share its block.

The time derivative used everywhere here is the one *induced by the flow*:
``du/dt`` is substituted by ``log det(convex) - log det(concave)`` evaluated
from the spatial jet, so any explicit drift carried by the spec is ignored.

Real test functions enter through :func:`complexify_real`: ``v(z) = u(Re z)``
turns a real member into a complex one, and after the diagonal rescaling
:func:`complexification_scaling` the complex transformed Hessian of ``v``
agrees entrywise with the real transformed Hessian of ``u``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, TmaError
from .jets import (
    ExpressionSpec,
    SpecBlock,
    WirtingerTable,
    _columns,
    _hessian_columns,
    _leibniz_table,
    _wirtinger_positions,
    multi_indices,
    substitute,
    unit_index,
    wirtinger_stack,
)
from .linalg import as_hermitian, inverse_and_logdet

__all__ = [
    "QTensor",
    "FlowReport",
    "FlowBlock",
    "assemble_Q",
    "q_sign_groupings",
    "subsolution_spectrum",
    "evolution_lhs",
    "evolution_residual",
    "heat_residual",
    "real_evolution_lhs",
    "complexify_real",
    "complexify_block",
    "complexify_point",
    "complexification_scaling",
    "flow_report",
    "wirtinger_derivative_arrays",
]


# ---------------------------------------------------------------------------
# mixed-derivative arrays of a Wirtinger table
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _signature_gather(k: int, l: int, order: int, total: int) -> Dict[Tuple[int, int, int, int], np.ndarray]:
    """Positions among ``wirtinger_keys(k + l, order)`` of every mixed partial of one total order.

    One index array per signature ``(nhz, nhw, naz, naw)``, with the axes of
    :func:`wirtinger_derivative_arrays`.
    """
    if total > order:
        raise DimensionMismatch(f"partials of order {total} need a table of that order, got {order}")
    m = k + l
    position = _wirtinger_positions(m, order)
    out = {}
    for nhz in range(total + 1):
        for nhw in range(total + 1 - nhz):
            for naz in range(total + 1 - nhz - nhw):
                naw = total - nhz - nhw - naz
                # (slot offset, side) of every axis: z slots start at 0, w slots at k
                axes = [(0, 0)] * nhz + [(k, 0)] * nhw + [(0, 1)] * naz + [(k, 1)] * naw
                counts = (nhz, nhw, naz, naw)
                shape = (k,) * nhz + (l,) * nhw + (k,) * naz + (l,) * naw
                idx = np.empty(shape, dtype=np.intp)
                for pos in itertools.product(*(range(n) for n in shape)):
                    hol, anti = [0] * m, [0] * m
                    for (offset, side), i in zip(axes, pos):
                        (anti if side else hol)[offset + i] += 1
                    idx[pos] = position[(tuple(hol), tuple(anti))]
                out[counts] = idx
    return out


def wirtinger_derivative_arrays(table, total: int) -> Dict[Tuple[int, int, int, int], np.ndarray]:
    """All mixed partials of one total order, as signature-keyed arrays.

    The key ``(nhz, nhw, naz, naw)`` counts holomorphic-z, holomorphic-w,
    antiholomorphic-z and antiholomorphic-w derivatives; the array axes follow
    that order, each ranging over its block dimension; the leading axes of a
    stacked ``table`` lead.  Entries are gathered straight from the table by
    one cached index array per signature, so the conjugation symmetry of the
    table carries over exactly.
    """
    gather = _signature_gather(table.k, table.l, table.order, total)
    return {sig: table.entries[..., idx] for sig, idx in gather.items()}


# ---------------------------------------------------------------------------
# route A: second-order forward mode on jet arrays
# ---------------------------------------------------------------------------

# A jet array holds matrix entries truncated at degree 2 in the spatial
# increment, in derivative form: its last axis runs over multi_indices(n, 2)
# and column ``beta`` holds ``d^beta`` at the point, so column 0 is the value.
# Products follow the Leibniz rule of the jet engine, truncated at degree 2.
# Every array carries a leading stack axis, one row per (member, point).


@lru_cache(maxsize=None)
def _second_derivative_gather(n: int):
    """Index array of route A over ``n`` real coordinates.

    ``gather[i, j, c]`` is the position of ``e_i + e_j + beta_c`` in
    ``multi_indices(n, 4)`` for every degree-2 multi-index ``beta_c``, so one
    gather turns an order-4 jet into the jet arrays of all second partials.
    """
    col4, _, _ = _columns(n, 4)
    betas = multi_indices(n, 2)
    gather = np.empty((n, n, len(betas)), dtype=np.intp)
    for i in range(n):
        for j in range(n):
            e = unit_index(n, i, j)
            for c, beta in enumerate(betas):
                gather[i, j, c] = col4[tuple(a + b for a, b in zip(e, beta))]
    return gather


def _slot_pairs(h: np.ndarray, is_complex: bool) -> np.ndarray:
    """Slot-calculus second derivatives from real ones, along axes 1 and 2.

    For the complex flavor those axes run over ``[Re, Im]`` coordinates and
    slot pair ``(a, b)`` becomes ``(xx + yy)/4 + i (xy - yx)/4``.
    """
    if not is_complex:
        return h
    m = h.shape[1] // 2
    q = h.reshape(h.shape[:1] + (2, m, 2, m) + h.shape[3:])
    return (q[:, 0, :, 0] + q[:, 1, :, 1]) * 0.25 + (q[:, 0, :, 1] - q[:, 1, :, 0]) * 0.25j


def _jet_matmul(a: np.ndarray, b: np.ndarray, leibniz) -> np.ndarray:
    """Matrix product of jet arrays ``(N, r, t, P) @ (N, t, c, P)`` by the Leibniz rule."""
    left, right, weight, starts = leibniz
    pairs = np.einsum("nitp,ntjp->nijp", a[..., left], b[..., right])
    pairs *= weight
    return np.add.reduceat(pairs, starts, axis=-1)


def _increment(a: np.ndarray, a0_inv: np.ndarray) -> np.ndarray:
    """``X = A0^-1 (A - A0)`` for a jet-array matrix ``A`` with value ``A0``."""
    a_hat = a.copy()
    a_hat[..., 0] = 0.0
    return np.einsum("nit,ntjp->nijp", a0_inv, a_hat)


def _jet_inverse(a: np.ndarray, a0_inv: np.ndarray, leibniz) -> np.ndarray:
    """Jet-array matrix inverse by the Neumann series ``(I - X + X^2) A0^-1``, exact at degree <= 2."""
    x = _increment(a, a0_inv)
    series = _jet_matmul(x, x, leibniz) - x
    series[..., 0] += np.eye(a.shape[1])
    return np.einsum("nitp,ntj->nijp", series, a0_inv)


def _jet_logdet(a: np.ndarray, a0_inv: np.ndarray, logdet0: np.ndarray, leibniz) -> np.ndarray:
    """log det of a jet-array matrix by the trace-log series ``tr X - tr X^2 / 2``, exact at degree <= 2."""
    x = _increment(a, a0_inv)
    out = np.trace(x, axis1=1, axis2=2) - np.trace(_jet_matmul(x, x, leibniz), axis1=1, axis2=2) * 0.5
    out[:, 0] += logdet0
    return out


def _assemble_w(z, mm, nn, vinv, k: int, l: int, leibniz) -> np.ndarray:
    """Transformed Hessian ``[[Z - M V^-1 N, M V^-1], [V^-1 N, -V^-1]]`` from jet-array blocks."""
    if l == 0:
        return z
    if k == 0:
        return -vinv
    coupling = _jet_matmul(mm, vinv, leibniz)
    upper = np.concatenate([z - _jet_matmul(coupling, nn, leibniz), coupling], axis=2)
    lower = np.concatenate([_jet_matmul(vinv, nn, leibniz), -vinv], axis=2)
    return np.concatenate([upper, lower], axis=1)


class _FlowEngine:
    """Shared route-A machinery for real and complex flavors, over a stack of jets.

    ``jets`` is ``(N, P)``: one order-4 jet array per row, over the ``n`` real
    coordinates of the flavor.  Slots ``0..k-1`` are the convex variables,
    ``k..k+l-1`` the concave ones; for the complex flavor a slot's second
    derivatives are the mixed holomorphic/antiholomorphic combinations of four
    real ones.  ``w`` and the flow speed ``f`` are jet arrays in the ``n``
    real increments, with the stack axis first.
    """

    def __init__(self, jets: np.ndarray, k: int, l: int, is_complex: bool):
        self.k, self.l = k, l
        self.is_complex = is_complex
        n = 2 * (k + l) if is_complex else k + l
        if jets.shape[-1] != len(multi_indices(n, 4)):
            raise DimensionMismatch(f"flow calculus needs order-4 jets over {n} coordinates")
        gather = _second_derivative_gather(n)
        self._hessian = _hessian_columns(n, 2)
        leibniz = _leibniz_table(n, 2)

        h = _slot_pairs(jets[..., gather], is_complex)
        z, v = h[:, :k, :k], h[:, k:, k:]
        self.h0 = h[..., 0]

        rows = len(jets)
        self.f = np.zeros((rows, h.shape[-1]), dtype=h.dtype)
        # L(g) = tr(Z^-1 g_zzbar) - tr(V^-1 g_wwbar) pairs these weights with g's slot Hessian
        self.l_weights = np.zeros((rows, k + l, k + l), dtype=h.dtype)
        self.vi0 = vinv = None
        if k:
            zi0, logdet_convex = inverse_and_logdet(as_hermitian(z[..., 0]))
            self.f += _jet_logdet(z, zi0, logdet_convex, leibniz)
            self.l_weights[:, :k, :k] = zi0
        if l:
            neg_vi0, logdet_concave = inverse_and_logdet(as_hermitian(-v[..., 0]))
            self.vi0 = -neg_vi0
            self.f -= _jet_logdet(-v, neg_vi0, logdet_concave, leibniz)
            self.l_weights[:, k:, k:] = neg_vi0
            vinv = _jet_inverse(v, self.vi0, leibniz)
        self.w = _assemble_w(z, h[:, :k, k:], h[:, k:, :k], vinv, k, l, leibniz)

    def _slot_hessian(self, g: np.ndarray) -> np.ndarray:
        """Slot second derivatives of every entry of a jet array, on axes 1 and 2."""
        h = g[..., self._hessian]
        h = h.transpose(0, h.ndim - 2, h.ndim - 1, *range(1, h.ndim - 2))
        return _slot_pairs(h, self.is_complex)

    def _linearized(self, g: np.ndarray):
        """The flow linearization applied to every entry of a jet array at once."""
        return np.einsum("nba,nab...->n...", self.l_weights, self._slot_hessian(g))

    def w_time_derivative(self) -> np.ndarray:
        """d/dt of every transformed-Hessian entry, via a first-order time expansion.

        The second-derivative blocks move at the flow-induced rate: the slot
        Hessian of the flow speed ``f``.
        """
        k, l = self.k, self.l
        leibniz = _leibniz_table(1, 1)
        ht = np.stack([self.h0, self._slot_hessian(self.f)], axis=-1)
        vinv = _jet_inverse(ht[:, k:, k:], self.vi0, leibniz) if l else None
        return _assemble_w(ht[:, :k, :k], ht[:, :k, k:], ht[:, k:, :k], vinv, k, l, leibniz)[..., 1]

    def lhs_matrix(self) -> np.ndarray:
        """(d/dt - L) applied entrywise to the transformed Hessian, ``(N, m, m)``."""
        return self.w_time_derivative() - self._linearized(self.w)

    def flow_speed_time_derivative(self):
        """d/dt of the flow speed along the flow, ``(N,)``: the linearization applied to the speed."""
        return self._linearized(self.f)


# ---------------------------------------------------------------------------
# route B: explicit third-derivative contractions
# ---------------------------------------------------------------------------

# Aliases for the mixed third-derivative arrays; lower case marks a
# holomorphic slot, upper case an antiholomorphic one, in canonical axis
# order (holomorphic z, holomorphic w, antiholomorphic z, antiholomorphic w).
_THIRD_SIGS = {
    "zzZ": (2, 0, 1, 0),
    "zZZ": (1, 0, 2, 0),
    "zzW": (2, 0, 0, 1),
    "zZW": (1, 0, 1, 1),
    "zwZ": (1, 1, 1, 0),
    "zwW": (1, 1, 0, 1),
    "zWW": (1, 0, 0, 2),
    "wZZ": (0, 1, 2, 0),
    "wZW": (0, 1, 1, 1),
    "wwZ": (0, 2, 1, 0),
    "wwW": (0, 2, 0, 1),
    "wWW": (0, 1, 0, 2),
}

# Every entry: (name, grouping, block, sign, einsum subscripts, operand keys).
# Blocks: "zz" = convex-convex rows/cols, "ww" = concave-concave,
# "zw" = convex rows / concave cols, "wz" its adjoint position.
# The groupings g1..g4 partition the terms into four Hermitian
# negative-semidefinite quadratic forms (one per third-derivative family).
_TERMS = (
    ("zz01", "g1", "zz", -1, "qr,sp,pfq,rsg->fg", ("zi", "zi", "zzZ", "zZZ")),
    ("zz02", "g1", "zz", +1, "qr,sp,pfq,rsk,kl,lg->fg", ("zi", "zi", "zzZ", "zZW", "vi", "n2")),
    ("zz03", "g1", "zz", -1, "fk,km,qr,sp,pmq,rsn,nl,lg->fg", ("m2", "vi", "zi", "zi", "zwZ", "zZW", "vi", "n2")),
    ("zz04", "g1", "zz", +1, "fk,kl,qr,sp,plq,rsg->fg", ("m2", "vi", "zi", "zi", "zwZ", "zZZ")),
    ("zz05", "g2", "zz", -1, "ba,fak,kp,pbq,ql,lg->fg", ("zi", "zzW", "vi", "wZW", "vi", "n2")),
    ("zz06", "g2", "zz", +1, "ba,fak,kl,lgb->fg", ("zi", "zzW", "vi", "wZZ")),
    ("zz07", "g3", "zz", -1, "ba,fbk,kp,apq,ql,lg->fg", ("zi", "zZW", "vi", "zwW", "vi", "n2")),
    ("zz08", "g3", "zz", +1, "ba,fk,kr,rbs,sp,apq,ql,lg->fg", ("zi", "m2", "vi", "wZW", "vi", "zwW", "vi", "n2")),
    ("zz09", "g2", "zz", +1, "ba,fk,kp,apq,qr,rbs,sl,lg->fg", ("zi", "m2", "vi", "zwW", "vi", "wZW", "vi", "n2")),
    ("zz10", "g2", "zz", -1, "ba,fk,kp,apq,ql,lgb->fg", ("zi", "m2", "vi", "zwW", "vi", "wZZ")),
    ("zz11", "g3", "zz", +1, "ba,fbk,kl,alg->fg", ("zi", "zZW", "vi", "zwZ")),
    ("zz12", "g3", "zz", -1, "ba,fk,kr,rbs,sl,alg->fg", ("zi", "m2", "vi", "wZW", "vi", "zwZ")),
    ("zz13", "g4", "zz", +1, "ba,fkb,kp,paq,ql,lg->fg", ("vi", "zWW", "vi", "wwW", "vi", "n2")),
    ("zz14", "g4", "zz", -1, "ba,fk,kr,rsb,sp,paq,ql,lg->fg", ("vi", "m2", "vi", "wWW", "vi", "wwW", "vi", "n2")),
    ("zz15", "g4", "zz", -1, "ba,fkb,kl,lag->fg", ("vi", "zWW", "vi", "wwZ")),
    ("zz16", "g4", "zz", +1, "ba,fk,kr,rsb,sl,lag->fg", ("vi", "m2", "vi", "wWW", "vi", "wwZ")),
    ("ww01", "g1", "ww", -1, "ck,ld,qr,sp,pkq,rsl->cd", ("vi", "vi", "zi", "zi", "zwZ", "zZW")),
    ("ww02", "g3", "ww", +1, "le,cp,plq,qj,ejm,md->cd", ("zi", "vi", "wZW", "vi", "zwW", "vi")),
    ("ww03", "g2", "ww", +1, "le,cj,ejm,mp,plq,qd->cd", ("zi", "vi", "zwW", "vi", "wZW", "vi")),
    ("ww04", "g4", "ww", -1, "lk,cp,pql,qj,jkr,rd->cd", ("vi", "vi", "wWW", "vi", "wwW", "vi")),
    ("zw01", "g1", "zw", -1, "ba,dc,afd,cbk,kg->fg", ("zi", "zi", "zzZ", "zZW", "vi")),
    ("zw02", "g1", "zw", +1, "fk,kl,pg,ba,dc,ald,cbp->fg", ("m2", "vi", "vi", "zi", "zi", "zwZ", "zZW")),
    ("zw03", "g2", "zw", +1, "ba,fak,kp,pbq,qg->fg", ("zi", "zzW", "vi", "wZW", "vi")),
    ("zw04", "g3", "zw", +1, "ba,fbk,kp,apq,qg->fg", ("zi", "zZW", "vi", "zwW", "vi")),
    ("zw05", "g3", "zw", -1, "ba,fk,kr,rbs,sp,apq,qg->fg", ("zi", "m2", "vi", "wZW", "vi", "zwW", "vi")),
    ("zw06", "g2", "zw", -1, "ba,fk,kp,apq,qr,rbs,sg->fg", ("zi", "m2", "vi", "zwW", "vi", "wZW", "vi")),
    ("zw07", "g4", "zw", -1, "ba,fkb,kp,paq,qg->fg", ("vi", "zWW", "vi", "wwW", "vi")),
    ("zw08", "g4", "zw", +1, "ba,fk,kr,rsb,sp,paq,qg->fg", ("vi", "m2", "vi", "wWW", "vi", "wwW", "vi")),
    ("wz01", "g1", "wz", +1, "rp,qk,ko,ba,dc,apd,cbq->ro", ("vi", "vi", "n2", "zi", "zi", "zwZ", "zZW")),
    ("wz02", "g1", "wz", -1, "rk,ba,dc,akd,cbo->ro", ("vi", "zi", "zi", "zwZ", "zZZ")),
    ("wz03", "g3", "wz", -1, "ba,rt,tbs,sp,apq,qk,ko->ro", ("zi", "vi", "wZW", "vi", "zwW", "vi", "n2")),
    ("wz04", "g2", "wz", -1, "ba,rp,apq,qt,tbs,sk,ko->ro", ("zi", "vi", "zwW", "vi", "wZW", "vi", "n2")),
    ("wz05", "g2", "wz", +1, "ba,rp,apq,qk,kob->ro", ("zi", "vi", "zwW", "vi", "wZZ")),
    ("wz06", "g3", "wz", +1, "ba,rp,pbq,qk,ako->ro", ("zi", "vi", "wZW", "vi", "zwZ")),
    ("wz07", "g4", "wz", +1, "ba,rt,tsb,sp,paq,qk,ko->ro", ("vi", "vi", "wWW", "vi", "wwW", "vi", "n2")),
    ("wz08", "g4", "wz", -1, "ba,rp,pqb,qk,kao->ro", ("vi", "vi", "wWW", "vi", "wwZ")),
)

# Adjoint pairing between the off-diagonal blocks: each "wz" term is the
# conjugate transpose of its partner "zw" term, a structural self-check the
# tests exercise on generic members.
_ADJOINT_PAIRS = {
    "wz01": "zw02",
    "wz02": "zw01",
    "wz03": "zw05",
    "wz04": "zw06",
    "wz05": "zw03",
    "wz06": "zw04",
    "wz07": "zw08",
    "wz08": "zw07",
}

_GROUP_NAMES = ("g1", "g2", "g3", "g4")


@dataclass(frozen=True)
class QTensor:
    """Third-derivative source matrix of the flow identity.

    ``matrix`` is the Hermitian (k+l)x(k+l) source; ``provenance`` lists the
    contraction labels that contributed, with the sup-norm of each
    contribution; ``hermitian_defect`` is the asymmetry measured before the
    exact symmetrization was applied.
    """

    matrix: np.ndarray
    provenance: Tuple[Tuple[str, float], ...]
    hermitian_defect: float


def _contract(subs: str, *operands) -> np.ndarray:
    """``np.einsum`` of a per-point contraction over operands whose last axis runs over the rows."""
    return np.einsum(_stacked_subscripts(subs), *operands)


@lru_cache(maxsize=None)
def _stacked_subscripts(subs: str) -> str:
    inputs, output = subs.split("->")
    return ",".join(s + "..." for s in inputs.split(",")) + "->" + output + "..."


def _rows_last(a: np.ndarray) -> np.ndarray:
    """A stack with its rows moved from the first axis to the last, contiguous; a lone row twice.

    With the rows innermost in every operand, einsum adds up each row's terms
    in one order for any stack of two or more rows.  It would add up a lone
    row in another order, so a lone row goes in as two copies, and readers
    keep the first ``ctx["rows"]`` rows of each result.
    """
    a = np.ascontiguousarray(a.transpose(*range(1, a.ndim), 0))
    return np.concatenate([a, a], axis=-1) if a.shape[-1] == 1 else a


def _term_context(table: WirtingerTable):
    """Inverse, coupling and third-derivative blocks of a stack, rows last (see :func:`_rows_last`)."""
    if table.order < 3:
        raise DimensionMismatch(f"source-matrix assembly needs third derivatives, table has order {table.order}")
    k, l = table.k, table.l
    seconds = wirtinger_derivative_arrays(table, 2)
    z2, m2, v2 = seconds[(1, 0, 1, 0)], seconds[(1, 0, 0, 1)], seconds[(0, 1, 0, 1)]
    zi = inverse_and_logdet(as_hermitian(z2))[0] if k else z2
    vi = -inverse_and_logdet(as_hermitian(-v2))[0] if l else v2
    thirds = wirtinger_derivative_arrays(table, 3)
    ctx = {"zi": zi, "vi": vi, "m2": m2, "n2": m2.conj().swapaxes(-1, -2)}
    for alias, sig in _THIRD_SIGS.items():
        ctx[alias] = thirds[sig]
    ctx = {key: _rows_last(a) for key, a in ctx.items()}
    ctx["rows"] = len(table.entries)
    return ctx


_BLOCK_SLICES = {
    "zz": lambda k, l: (slice(0, k), slice(0, k)),
    "ww": lambda k, l: (slice(k, k + l), slice(k, k + l)),
    "zw": lambda k, l: (slice(0, k), slice(k, k + l)),
    "wz": lambda k, l: (slice(k, k + l), slice(0, k)),
}


def _terms_from_context(ctx) -> Dict[str, np.ndarray]:
    """Every labeled contraction of a stack, signed, as einsum returns it: ``(r, c, N')`` for its block, rows last."""
    return {
        name: sign * _contract(subs, *(ctx[key] for key in keys)) for name, _group, _block, sign, subs, keys in _TERMS
    }


def _term_stack(table: WirtingerTable) -> Dict[str, np.ndarray]:
    """Every labeled contraction of a table at one point, as a stack of one (doubled) row."""
    one_row = replace(table, entries=table.entries[None])
    return _terms_from_context(_term_context(one_row))


def _finalize_hermitian(q: np.ndarray, what: str):
    """Each matrix of a stack made exactly Hermitian, and the asymmetry each had before."""
    adj = q.conj().swapaxes(-1, -2)
    defect = np.max(np.abs(q - adj), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(q), axis=(-2, -1)))
    bad = defect > 1e-10 * scale
    if np.any(bad):
        worst = np.argmax(np.where(bad, defect / scale, -1.0))
        raise TmaError(
            f"{what} lost Hermitian symmetry: defect {defect.flat[worst]:.3e} at scale {scale.flat[worst]:.3e}"
        )
    return (q + adj) / 2.0, defect


def _summed(terms: Dict[str, np.ndarray], k: int, l: int, rows: int, group=None):
    """The contractions of one grouping (of all of them for ``None``) added up, each at its block.

    Returns the first ``rows`` sums as ``(rows, m, m)`` matrices made exactly
    Hermitian, and the Hermitian defect of each before.
    """
    acc = np.zeros((k + l, k + l) + terms[_TERMS[0][0]].shape[-1:], dtype=complex)
    for name, g, block, *_ in _TERMS:
        if group in (None, g):
            acc[_BLOCK_SLICES[block](k, l)] += terms[name]
    q = np.ascontiguousarray(np.moveaxis(acc, -1, 0)[:rows])
    return _finalize_hermitian(q, "source matrix" if group is None else f"grouping {group}")


def _qtensor(terms: Dict[str, np.ndarray], source, row: int) -> QTensor:
    """One row of a :func:`_summed` source as a :class:`QTensor`, provenance from the nonzero sup-norms."""
    q, defect = source
    norms = ((name, float(np.max(np.abs(terms[name][..., row]), initial=0.0))) for name, *_ in _TERMS)
    prov = tuple((name, nrm) for name, nrm in norms if nrm > 0.0)
    return QTensor(matrix=q[row], provenance=prov, hermitian_defect=float(defect[row]))


def assemble_Q(table: WirtingerTable) -> QTensor:
    """Evaluate the explicit third-derivative source matrix of the flow identity.

    Every contraction is evaluated separately and recorded: the provenance
    tuple lists the labels whose contribution was nonzero together with its
    sup-norm.  Hermitian symmetry is checked to 1e-10 (relative to the larger
    of 1 and the matrix scale) and then enforced exactly; the matrix vanishes
    identically whenever all third derivatives do.

    The table must carry third-order data and describe a class member at the
    point (both second-derivative blocks definite), or the inverse guards
    raise.
    """
    terms = _term_stack(table)
    return _qtensor(terms, _summed(terms, table.k, table.l, 1), 0)


def q_sign_groupings(table: WirtingerTable) -> Dict[str, np.ndarray]:
    """The four grouped quadratic forms whose sum is the source matrix.

    Each grouping collects the contractions generated by one family of third
    derivatives and is individually Hermitian and negative semidefinite; their
    sum equals :func:`assemble_Q` exactly (same contractions, same
    symmetrization).
    """
    terms = _term_stack(table)
    return {gname: _summed(terms, table.k, table.l, 1, gname)[0][0] for gname in _GROUP_NAMES}


def subsolution_spectrum(table: WirtingerTable) -> float:
    """Largest eigenvalue of the source matrix; <= 0 certifies the sign condition.

    The table must describe a class member at the point — the assembly
    inverts both second-derivative blocks.
    """
    q = assemble_Q(table)
    return float(np.max(np.linalg.eigvalsh(q.matrix)))


def _heat_route_b(table: WirtingerTable, ctx) -> np.ndarray:
    """d/dt of the flow speed by the explicit log-determinant chain rule, one value per row."""
    zi, vi = ctx["zi"], ctx["vi"]
    fourths = wirtinger_derivative_arrays(table, 4)
    zzZZ = _rows_last(fourths[(2, 0, 2, 0)])
    zwZW = _rows_last(fourths[(1, 1, 1, 1)])
    wwWW = _rows_last(fourths[(0, 2, 0, 2)])

    # d/dt of the convex-block second derivatives: chain rule for log det.
    zdot = (
        _contract("qp,paqb->ab", zi, zzZZ)
        - _contract("qr,sp,paq,rsb->ab", zi, zi, ctx["zzZ"], ctx["zZZ"])
        - _contract("qp,apbq->ab", vi, zwZW)
        + _contract("qr,sp,apq,rbs->ab", vi, vi, ctx["zwW"], ctx["wZW"])
    )
    # d/dt of the concave-block second derivatives.
    vdot = (
        _contract("qp,pcqd->cd", zi, zwZW)
        - _contract("qr,sp,pcq,rsd->cd", zi, zi, ctx["zwZ"], ctx["zZW"])
        - _contract("qp,pcqd->cd", vi, wwWW)
        + _contract("qr,sp,pcq,rsd->cd", vi, vi, ctx["wwW"], ctx["wWW"])
    )
    return (_contract("ba,ab->", zi, zdot) - _contract("dc,cd->", vi, vdot))[: ctx["rows"]]


# ---------------------------------------------------------------------------
# blocks of members: both routes over one stack of jets
# ---------------------------------------------------------------------------


_NEEDS_COMPLEX = "flow identity evaluation needs a complex-flavored spec; complexify first"


@dataclass(frozen=True)
class FlowReport:
    """Everything the evolution sweeps record for one (member, point) pair."""

    q: QTensor
    lhs: np.ndarray
    evolution_residual: float
    heat_residual: float
    q_spectrum_max: float
    grouping_spectrum_max: Tuple[Tuple[str, float], ...]


class FlowBlock:
    """The flow quantities of a block of members, each at its own points, from one stacked pass.

    ``members`` share one shape, flavor and tree layout (the draws of one
    ensemble shape do) and ``points`` is ``(B, p, nvars)``.  One jet-engine
    call evaluates the order-4 jets of all ``N = B p`` rows; row ``r p + i`` of
    every array below is member ``r`` at ``points[r, i]``.  A quantity is
    computed on first use and reads only the routes it needs: :attr:`lhs`
    route A alone, :attr:`source` and the groupings route B alone.  Route A
    takes either flavor; everything else needs complex members.

    Route B evaluates each contraction once, at the size of its block, and
    every sum that reads it (the source, its grouping) adds it in at that
    block.  The sup-norm of each contraction, the provenance of a
    :class:`QTensor`, is taken only for the row that :meth:`report` asks for.

    The per-point functions (:func:`flow_report`, :func:`evolution_residual`,
    :func:`heat_residual`, :func:`evolution_lhs`, :func:`real_evolution_lhs`)
    are blocks of one row, and every row of a block is bit-identical to them:
    no number depends on how many rows share the pass.  :meth:`of` makes the
    block of a :class:`~tma.jets.SpecBlock`, such as a drawn one.
    """

    def __init__(self, members: Sequence[ExpressionSpec], points):
        self._evaluate(SpecBlock.of(members, points))

    @classmethod
    def of(cls, block: SpecBlock) -> "FlowBlock":
        out = cls.__new__(cls)
        out._evaluate(block)
        return out

    def _evaluate(self, block: SpecBlock) -> None:
        jets = block.jets(4)
        self.k, self.l, self.flavor = block.k, block.l, block.flavor
        self.jets = jets.reshape(-1, jets.shape[-1])

    @cached_property
    def _engine(self) -> _FlowEngine:
        return _FlowEngine(self.jets, self.k, self.l, self.flavor == "complex")

    @cached_property
    def _wirtinger(self) -> WirtingerTable:
        if self.flavor != "complex":
            raise DimensionMismatch(_NEEDS_COMPLEX)
        return wirtinger_stack(self.jets, self.k, self.l, 4)

    @cached_property
    def _context(self):
        return _term_context(self._wirtinger)

    @cached_property
    def _terms(self) -> Dict[str, np.ndarray]:
        return _terms_from_context(self._context)

    @cached_property
    def _source(self):
        return _summed(self._terms, self.k, self.l, len(self.jets))

    @cached_property
    def lhs(self) -> np.ndarray:
        """``(N, m, m)``: (d/dt - L) applied entrywise to the transformed Hessian, route A."""
        return self._engine.lhs_matrix()

    @property
    def source(self) -> np.ndarray:
        """``(N, m, m)``: the Hermitian source matrices, route B."""
        return self._source[0]

    @cached_property
    def q_spectrum_max(self) -> np.ndarray:
        """``(N,)``: the largest eigenvalue of each source matrix."""
        return np.max(np.linalg.eigvalsh(self.source), axis=-1)

    @cached_property
    def grouping_spectrum_max(self) -> np.ndarray:
        """``(N, 4)``: the largest eigenvalue of each grouping, in the order g1..g4."""
        groups = [_summed(self._terms, self.k, self.l, len(self.jets), g)[0] for g in _GROUP_NAMES]
        return np.max(np.linalg.eigvalsh(np.stack(groups, axis=1)), axis=-1)

    @cached_property
    def evolution_residual(self) -> np.ndarray:
        """``(N,)``: sup-norm gap between the two routes of the flow identity."""
        return np.max(np.abs(self.lhs - self.source), axis=(-2, -1))

    @cached_property
    def heat_residual(self) -> np.ndarray:
        """``(N,)``: gap between the two evaluations of ``(d/dt - L)`` of the flow speed."""
        route_b = _heat_route_b(self._wirtinger, self._context)
        return np.abs(self._engine.flow_speed_time_derivative() - route_b)

    def report(self, row: int) -> FlowReport:
        """Every quantity of one row, as :func:`flow_report` returns it."""
        return FlowReport(
            q=_qtensor(self._terms, self._source, row),
            lhs=self.lhs[row],
            evolution_residual=float(self.evolution_residual[row]),
            heat_residual=float(self.heat_residual[row]),
            q_spectrum_max=float(self.q_spectrum_max[row]),
            grouping_spectrum_max=tuple(zip(_GROUP_NAMES, self.grouping_spectrum_max[row].tolist())),
        )


# ---------------------------------------------------------------------------
# the two-route identities at one point
# ---------------------------------------------------------------------------


def _point_block(spec: ExpressionSpec, point, flavor: str) -> FlowBlock:
    """The block of one row that the per-point functions read, once the flavor is known to fit."""
    if spec.flavor != flavor:
        if flavor == "complex":
            raise DimensionMismatch(_NEEDS_COMPLEX)
        raise DimensionMismatch("real_evolution_lhs needs a real-flavored spec")
    return FlowBlock([spec], [[tuple(point)]])


def evolution_lhs(spec: ExpressionSpec, point) -> np.ndarray:
    """(d/dt - L) applied entrywise to the transformed Hessian, by route A only.

    Like every flow quantity here it reads spatial partials of order 2 to 4
    only, so it does not depend on the time.
    """
    return _point_block(spec, point, "complex").lhs[0]


def evolution_residual(spec: ExpressionSpec, point) -> float:
    """Sup-norm gap between the two routes of the flow identity.

    Route A computes ``(d/dt - L) W`` from degree-2 jet arrays gathered from
    an order-4 jet; route B assembles the explicit third-derivative source.
    The identity says they agree, so the gap is pure transcription and
    rounding error; it vanishes identically on quadratics.
    """
    return float(_point_block(spec, point, "complex").evolution_residual[0])


def heat_residual(spec: ExpressionSpec, point) -> float:
    """Two-sided check that the flow speed solves its own linear equation.

    The flow speed ``s = du/dt`` satisfies ``(d/dt - L) s = 0``.  The left
    side is evaluated twice: ``d s/dt`` by the explicit chain rule for
    log-determinants (second-derivative contractions of third- and
    fourth-order data), and ``L s`` from route A's jet array of ``s``.  The
    residual is the absolute gap between the two evaluations.
    """
    return float(_point_block(spec, point, "complex").heat_residual[0])


def flow_report(spec: ExpressionSpec, point) -> FlowReport:
    """Single-jet evaluation of every per-point quantity the sweeps need."""
    return _point_block(spec, point, "complex").report(0)


# ---------------------------------------------------------------------------
# the real flavor and the complexification bridge
# ---------------------------------------------------------------------------


def real_evolution_lhs(spec: ExpressionSpec, point) -> np.ndarray:
    """(d/dt - L) of the real transformed Hessian along the real flow, route A."""
    return _point_block(spec, point, "real").lhs[0]


def complexify_real(spec: ExpressionSpec) -> ExpressionSpec:
    """Lift a real test function to a complex one constant in the imaginary parts.

    ``v(z_1..z_m) = u(Re z_1, .., Re z_m)``: the expression tree is rewritten
    over twice as many real coordinates, depending only on the first half.
    The convex/concave split and the declared box are preserved.
    """
    _require_real(spec)
    return ExpressionSpec._trusted(
        substitute(spec.expr, [1.0] * spec.nvars, spec.nvars),
        spec.k,
        spec.l,
        "complex",
        spec.time_drift,
        spec.domain_halfwidth,
    )


def complexify_block(block: SpecBlock) -> SpecBlock:
    """:func:`complexify_real` of every member of a real block, at its points lifted by :func:`complexify_point`."""
    _require_real(block)
    n = block.nvars
    lifted = np.concatenate([block.points, np.zeros_like(block.points)], axis=-1)
    return SpecBlock(substitute(block.tree, [1.0] * n, n), block.k, block.l, "complex", block.halfwidth, lifted)


def _require_real(spec) -> None:
    if spec.flavor != "real":
        raise DimensionMismatch("complexify_real expects a real-flavored spec")


def complexify_point(point) -> Tuple[float, ...]:
    """Embed a real evaluation point at zero imaginary part."""
    p = tuple(float(c) for c in point)
    return p + (0.0,) * len(p)


def complexification_scaling(k: int, l: int) -> np.ndarray:
    """Diagonal normalization D relating the two transformed Hessians.

    For ``v(z) = u(Re z)``, mixed second derivatives pick up one factor 1/4
    per variable pair, so the complex transformed Hessian of ``v`` equals
    ``D @ W_real(u) @ D`` with ``D = diag(I_k / 2, 2 I_l)``: the convex block
    scales by 1/4, the concave-inverse block by 4, and the coupling blocks
    are unchanged.  The flow identity transports the same way, entrywise.
    """
    return np.diag([0.5] * k + [2.0] * l)
