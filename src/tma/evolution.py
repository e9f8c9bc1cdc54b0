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
  into, block by block, each tagged with a provenance label.  The four grouped
  quadratic forms returned by :func:`q_sign_groupings` partition those terms
  into sums that are individually Hermitian and negative semidefinite, which
  is the whole reason the flow preserves the subsolution property.

:func:`evolution_residual` is the sup-norm gap between the two routes;
:func:`heat_residual` plays the same game one level down, for the scalar
identity ``(d/dt - L)(du/dt) = 0`` satisfied by the flow speed itself.

The time derivative used everywhere here is the one *induced by the flow*:
``du/dt`` is substituted by ``log det(convex) - log det(concave)`` evaluated
from the spatial jet, so any explicit drift carried by the spec is ignored.

Real test functions enter through :func:`complexify_real`: ``v(z) = u(Re z)``
turns a real member into a complex one, and after the diagonal rescaling
:func:`complexification_scaling` the complex transformed Hessian of ``v``
agrees entrywise with the real transformed Hessian of ``u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .errors import DimensionMismatch, TmaError
from .jets import (
    ExpressionSpec,
    SpaceTimeJet,
    WirtingerTable,
    _columns,
    _hessian_columns,
    _leibniz_table,
    evaluate_jet,
    map_leaves,
    multi_indices,
    unit_index,
    wirtinger_from_real,
)
from .linalg import as_hermitian, inverse_and_logdet

__all__ = [
    "QTensor",
    "FlowReport",
    "assemble_Q",
    "q_sign_groupings",
    "subsolution_spectrum",
    "evolution_lhs",
    "evolution_residual",
    "heat_residual",
    "real_evolution_lhs",
    "complexify_real",
    "complexify_point",
    "complexification_scaling",
    "flow_report",
    "wirtinger_derivative_arrays",
]


# ---------------------------------------------------------------------------
# mixed-derivative arrays of a Wirtinger table
# ---------------------------------------------------------------------------


def wirtinger_derivative_arrays(table: WirtingerTable, total: int) -> Dict[Tuple[int, int, int, int], np.ndarray]:
    """All mixed partials of one total order, as signature-keyed arrays.

    The key ``(nhz, nhw, naz, naw)`` counts holomorphic-z, holomorphic-w,
    antiholomorphic-z and antiholomorphic-w derivatives; the array axes follow
    that order, each ranging over its block dimension.  Entries are read
    straight from the table, so the conjugation symmetry of the table carries
    over exactly.
    """
    k, l, m = table.k, table.l, table.m
    out: Dict[Tuple[int, int, int, int], np.ndarray] = {}
    for nhz in range(total + 1):
        for nhw in range(total + 1 - nhz):
            for naz in range(total + 1 - nhz - nhw):
                naw = total - nhz - nhw - naz
                shape = (k,) * nhz + (l,) * nhw + (k,) * naz + (l,) * naw
                arr = np.zeros(shape, dtype=complex)
                for idx in np.ndindex(shape):
                    hol = [0] * m
                    anti = [0] * m
                    pos = 0
                    for _ in range(nhz):
                        hol[idx[pos]] += 1
                        pos += 1
                    for _ in range(nhw):
                        hol[k + idx[pos]] += 1
                        pos += 1
                    for _ in range(naz):
                        anti[idx[pos]] += 1
                        pos += 1
                    for _ in range(naw):
                        anti[k + idx[pos]] += 1
                        pos += 1
                    arr[idx] = table.d(tuple(hol), tuple(anti))
                out[(nhz, nhw, naz, naw)] = arr
    return out


# ---------------------------------------------------------------------------
# route A: second-order forward mode on jet arrays
# ---------------------------------------------------------------------------

# A jet array holds matrix entries truncated at degree 2 in the spatial
# increment, in derivative form: its last axis runs over multi_indices(n, 2)
# and column ``beta`` holds ``d^beta`` at the point, so column 0 is the value.
# Products follow the Leibniz rule of the jet engine, truncated at degree 2.


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
    """Slot-calculus second derivatives from real ones, along the two leading axes.

    For the complex flavor the leading axes run over ``[Re, Im]`` coordinates
    and slot pair ``(a, b)`` becomes ``(xx + yy)/4 + i (xy - yx)/4``.
    """
    if not is_complex:
        return h
    m = h.shape[0] // 2
    q = h.reshape((2, m, 2, m) + h.shape[2:])
    return (q[0, :, 0] + q[1, :, 1]) * 0.25 + (q[0, :, 1] - q[1, :, 0]) * 0.25j


def _jet_matmul(a: np.ndarray, b: np.ndarray, leibniz) -> np.ndarray:
    """Matrix product of jet arrays ``(r, t, P) @ (t, c, P)`` by the Leibniz rule."""
    left, right, weight, starts = leibniz
    pairs = np.einsum("itp,tjp->ijp", a[..., left], b[..., right])
    pairs *= weight
    return np.add.reduceat(pairs, starts, axis=-1)


def _increment(a: np.ndarray, a0_inv: np.ndarray) -> np.ndarray:
    """``X = A0^-1 (A - A0)`` for a jet-array matrix ``A`` with value ``A0``."""
    a_hat = a.copy()
    a_hat[..., 0] = 0.0
    return np.einsum("it,tjp->ijp", a0_inv, a_hat)


def _jet_inverse(a: np.ndarray, a0_inv: np.ndarray, leibniz) -> np.ndarray:
    """Jet-array matrix inverse by the Neumann series ``(I - X + X^2) A0^-1``, exact at degree <= 2."""
    x = _increment(a, a0_inv)
    series = _jet_matmul(x, x, leibniz) - x
    series[..., 0] += np.eye(len(a))
    return np.einsum("itp,tj->ijp", series, a0_inv)


def _jet_logdet(a: np.ndarray, a0_inv: np.ndarray, logdet0: float, leibniz) -> np.ndarray:
    """log det of a jet-array matrix by the trace-log series ``tr X - tr X^2 / 2``, exact at degree <= 2."""
    x = _increment(a, a0_inv)
    out = np.trace(x) - np.trace(_jet_matmul(x, x, leibniz)) * 0.5
    out[0] += logdet0
    return out


def _assemble_w(z, mm, nn, vinv, k: int, l: int, leibniz) -> np.ndarray:
    """Transformed Hessian ``[[Z - M V^-1 N, M V^-1], [V^-1 N, -V^-1]]`` from jet-array blocks."""
    if l == 0:
        return z
    if k == 0:
        return -vinv
    coupling = _jet_matmul(mm, vinv, leibniz)
    upper = np.concatenate([z - _jet_matmul(coupling, nn, leibniz), coupling], axis=1)
    lower = np.concatenate([_jet_matmul(vinv, nn, leibniz), -vinv], axis=1)
    return np.concatenate([upper, lower], axis=0)


class _FlowEngine:
    """Shared route-A machinery for real and complex flavors.

    Slots ``0..k-1`` are the convex variables, ``k..k+l-1`` the concave ones;
    for the complex flavor a slot's second derivatives are the mixed
    holomorphic/antiholomorphic combinations of four real ones.  ``w`` and
    the flow speed ``f`` are jet arrays in the ``n`` real increments.
    """

    def __init__(self, jet: SpaceTimeJet):
        if jet.order < 4:
            raise DimensionMismatch(f"flow calculus needs an order-4 jet, got order {jet.order}")
        self.k, self.l = k, l = jet.k, jet.l
        self.is_complex = jet.flavor == "complex"
        n = jet.nvars
        gather = _second_derivative_gather(n)
        self._hessian = _hessian_columns(n)
        leibniz = _leibniz_table(n, 2)

        values = np.array([jet.table.get(beta, 0.0) for beta in multi_indices(n, 4)])
        h = _slot_pairs(values[gather], self.is_complex)
        z, v = h[:k, :k], h[k:, k:]
        self.h0 = h[..., 0]

        self.f = np.zeros(h.shape[-1], dtype=h.dtype)
        # L(g) = tr(Z^-1 g_zzbar) - tr(V^-1 g_wwbar) pairs these weights with g's slot Hessian
        self.l_weights = np.zeros((k + l, k + l), dtype=h.dtype)
        self.vi0 = vinv = None
        if k:
            zi0, logdet_convex = inverse_and_logdet(as_hermitian(z[..., 0]))
            self.f += _jet_logdet(z, zi0, logdet_convex, leibniz)
            self.l_weights[:k, :k] = zi0
        if l:
            neg_vi0, logdet_concave = inverse_and_logdet(as_hermitian(-v[..., 0]))
            self.vi0 = -neg_vi0
            self.f -= _jet_logdet(-v, neg_vi0, logdet_concave, leibniz)
            self.l_weights[k:, k:] = neg_vi0
            vinv = _jet_inverse(v, self.vi0, leibniz)
        self.w = _assemble_w(z, h[:k, k:], h[k:, :k], vinv, k, l, leibniz)

    def _slot_hessian(self, g: np.ndarray) -> np.ndarray:
        """Slot second derivatives of every entry of a jet array, on two new leading axes."""
        h = np.moveaxis(g[..., self._hessian], (-2, -1), (0, 1))
        return _slot_pairs(h, self.is_complex)

    def _linearized(self, g: np.ndarray):
        """The flow linearization applied to every entry of a jet array at once."""
        return np.einsum("ba,ab...->...", self.l_weights, self._slot_hessian(g))

    def w_time_derivative(self) -> np.ndarray:
        """d/dt of every transformed-Hessian entry, via a first-order time expansion.

        The second-derivative blocks move at the flow-induced rate: the slot
        Hessian of the flow speed ``f``.
        """
        k, l = self.k, self.l
        leibniz = _leibniz_table(1, 1)
        ht = np.stack([self.h0, self._slot_hessian(self.f)], axis=-1)
        vinv = _jet_inverse(ht[k:, k:], self.vi0, leibniz) if l else None
        return _assemble_w(ht[:k, :k], ht[:k, k:], ht[k:, :k], vinv, k, l, leibniz)[..., 1]

    def lhs_matrix(self) -> np.ndarray:
        """(d/dt - L) applied entrywise to the transformed Hessian."""
        return self.w_time_derivative() - self._linearized(self.w)

    def flow_speed_time_derivative(self):
        """d/dt of the flow speed along the flow: the linearization applied to the speed."""
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


def _term_context(table: WirtingerTable):
    if table.order < 3:
        raise DimensionMismatch(f"source-matrix assembly needs third derivatives, table has order {table.order}")
    k, l = table.k, table.l
    z2, m2, v2 = table.second_blocks()
    if k:
        zi, _ = inverse_and_logdet(as_hermitian(z2))
    else:
        zi = np.zeros((0, 0), dtype=complex)
    if l:
        neg_vi, _ = inverse_and_logdet(as_hermitian(-v2))
        vi = -neg_vi
    else:
        vi = np.zeros((0, 0), dtype=complex)
    thirds = wirtinger_derivative_arrays(table, 3)
    ctx = {"zi": zi, "vi": vi, "m2": m2, "n2": m2.conj().T}
    for alias, sig in _THIRD_SIGS.items():
        ctx[alias] = thirds[sig]
    return ctx


_BLOCK_SLICES = {
    "zz": lambda k, l: (slice(0, k), slice(0, k)),
    "ww": lambda k, l: (slice(k, k + l), slice(k, k + l)),
    "zw": lambda k, l: (slice(0, k), slice(k, k + l)),
    "wz": lambda k, l: (slice(k, k + l), slice(0, k)),
}


def _terms_from_context(ctx, k: int, l: int) -> Dict[str, np.ndarray]:
    m = k + l
    out: Dict[str, np.ndarray] = {}
    for name, _group, block, sign, subs, keys in _TERMS:
        contrib = sign * np.einsum(subs, *(ctx[key] for key in keys))
        full = np.zeros((m, m), dtype=complex)
        full[_BLOCK_SLICES[block](k, l)] = contrib
        out[name] = full
    return out


def _term_matrices(table: WirtingerTable) -> Dict[str, np.ndarray]:
    """Every labeled contraction, embedded at its block of the full matrix."""
    return _terms_from_context(_term_context(table), table.k, table.l)


def _finalize_hermitian(q: np.ndarray, what: str):
    defect = float(np.max(np.abs(q - q.conj().T))) if q.size else 0.0
    scale = max(1.0, float(np.max(np.abs(q))) if q.size else 0.0)
    if defect > 1e-10 * scale:
        raise TmaError(f"{what} lost Hermitian symmetry: defect {defect:.3e} at scale {scale:.3e}")
    return (q + q.conj().T) / 2.0, defect


def _source_from_terms(terms: Dict[str, np.ndarray], m: int) -> QTensor:
    """Sum of the labeled contractions, with provenance, made exactly Hermitian."""
    q = np.zeros((m, m), dtype=complex)
    prov = []
    for name, _group, _block, _sign, _subs, _keys in _TERMS:
        t = terms[name]
        q += t
        nrm = float(np.max(np.abs(t))) if t.size else 0.0
        if nrm > 0.0:
            prov.append((name, nrm))
    q, defect = _finalize_hermitian(q, "source matrix")
    return QTensor(matrix=q, provenance=tuple(prov), hermitian_defect=defect)


def _groupings_from_terms(terms: Dict[str, np.ndarray], m: int) -> Dict[str, np.ndarray]:
    """The labeled contractions summed group by group, each made exactly Hermitian."""
    out: Dict[str, np.ndarray] = {}
    for gname in _GROUP_NAMES:
        acc = np.zeros((m, m), dtype=complex)
        for name, group, _block, _sign, _subs, _keys in _TERMS:
            if group == gname:
                acc += terms[name]
        acc, _ = _finalize_hermitian(acc, f"grouping {gname}")
        out[gname] = acc
    return out


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
    return _source_from_terms(_term_matrices(table), table.k + table.l)


def q_sign_groupings(table: WirtingerTable) -> Dict[str, np.ndarray]:
    """The four grouped quadratic forms whose sum is the source matrix.

    Each grouping collects the contractions generated by one family of third
    derivatives and is individually Hermitian and negative semidefinite; their
    sum equals :func:`assemble_Q` exactly (same contractions, same
    symmetrization).
    """
    return _groupings_from_terms(_term_matrices(table), table.k + table.l)


def subsolution_spectrum(table: WirtingerTable) -> float:
    """Largest eigenvalue of the source matrix; <= 0 certifies the sign condition.

    The table must describe a class member at the point — the assembly
    inverts both second-derivative blocks.
    """
    q = assemble_Q(table)
    return float(np.max(np.linalg.eigvalsh(q.matrix)))


# ---------------------------------------------------------------------------
# the two-route identities
# ---------------------------------------------------------------------------


def _complex_jet(spec: ExpressionSpec, point, time: float) -> SpaceTimeJet:
    """The order-4 jet the flow identities read, once the spec is known to be complex."""
    if spec.flavor != "complex":
        raise DimensionMismatch("flow identity evaluation needs a complex-flavored spec; complexify first")
    return evaluate_jet(spec, point, time, order=4)


def evolution_lhs(spec: ExpressionSpec, point, time: float = 0.0) -> np.ndarray:
    """(d/dt - L) applied entrywise to the transformed Hessian, by route A only."""
    return _FlowEngine(_complex_jet(spec, point, time)).lhs_matrix()


def evolution_residual(spec: ExpressionSpec, point, time: float = 0.0) -> float:
    """Sup-norm gap between the two routes of the flow identity.

    Route A computes ``(d/dt - L) W`` from degree-2 jet arrays gathered from
    an order-4 jet; route B assembles the explicit third-derivative source.
    The identity says they agree, so the gap is pure transcription and
    rounding error; it vanishes identically on quadratics.
    """
    jet = _complex_jet(spec, point, time)
    lhs = _FlowEngine(jet).lhs_matrix()
    q = assemble_Q(wirtinger_from_real(jet)).matrix
    return float(np.max(np.abs(lhs - q)))


def _heat_route_b(table: WirtingerTable, ctx) -> complex:
    """d/dt of the flow speed by the explicit log-determinant chain rule."""
    zi, vi = ctx["zi"], ctx["vi"]
    fourths = wirtinger_derivative_arrays(table, 4)
    zzZZ = fourths[(2, 0, 2, 0)]
    zwZW = fourths[(1, 1, 1, 1)]
    wwWW = fourths[(0, 2, 0, 2)]

    # d/dt of the convex-block second derivatives: chain rule for log det.
    zdot = (
        np.einsum("qp,paqb->ab", zi, zzZZ)
        - np.einsum("qr,sp,paq,rsb->ab", zi, zi, ctx["zzZ"], ctx["zZZ"])
        - np.einsum("qp,apbq->ab", vi, zwZW)
        + np.einsum("qr,sp,apq,rbs->ab", vi, vi, ctx["zwW"], ctx["wZW"])
    )
    # d/dt of the concave-block second derivatives.
    vdot = (
        np.einsum("qp,pcqd->cd", zi, zwZW)
        - np.einsum("qr,sp,pcq,rsd->cd", zi, zi, ctx["zwZ"], ctx["zZW"])
        - np.einsum("qp,pcqd->cd", vi, wwWW)
        + np.einsum("qr,sp,pcq,rsd->cd", vi, vi, ctx["wwW"], ctx["wWW"])
    )
    return np.einsum("ba,ab->", zi, zdot) - np.einsum("dc,cd->", vi, vdot)


def heat_residual(spec: ExpressionSpec, point, time: float = 0.0) -> float:
    """Two-sided check that the flow speed solves its own linear equation.

    The flow speed ``s = du/dt`` satisfies ``(d/dt - L) s = 0``.  The left
    side is evaluated twice: ``d s/dt`` by the explicit chain rule for
    log-determinants (second-derivative contractions of third- and
    fourth-order data), and ``L s`` from route A's jet array of ``s``.  The
    residual is the absolute gap between the two evaluations.
    """
    jet = _complex_jet(spec, point, time)
    engine = _FlowEngine(jet)
    table = wirtinger_from_real(jet)
    ctx = _term_context(table)
    return float(abs(engine.flow_speed_time_derivative() - _heat_route_b(table, ctx)))


# ---------------------------------------------------------------------------
# the real flavor and the complexification bridge
# ---------------------------------------------------------------------------


def real_evolution_lhs(spec: ExpressionSpec, point, time: float = 0.0) -> np.ndarray:
    """(d/dt - L) of the real transformed Hessian along the real flow, route A."""
    if spec.flavor != "real":
        raise DimensionMismatch("real_evolution_lhs needs a real-flavored spec")
    jet = evaluate_jet(spec, point, time, order=4)
    return _FlowEngine(jet).lhs_matrix()


def _pad_square(matrix: List[List[float]]) -> List[List[float]]:
    n = len(matrix)
    out = []
    for row in matrix:
        out.append([float(v) for v in row] + [0.0] * n)
    for _ in range(n):
        out.append([0.0] * (2 * n))
    return out


def complexify_real(spec: ExpressionSpec) -> ExpressionSpec:
    """Lift a real test function to a complex one constant in the imaginary parts.

    ``v(z_1..z_m) = u(Re z_1, .., Re z_m)``: the expression tree is rewritten
    over twice as many real coordinates, depending only on the first half.
    The convex/concave split and the declared box are preserved.
    """
    if spec.flavor != "real":
        raise DimensionMismatch("complexify_real expects a real-flavored spec")
    n = spec.nvars

    def quad(node: dict) -> dict:
        return {
            "kind": "quad",
            "matrix": _pad_square(node["matrix"]),
            "linear": [float(v) for v in node["linear"]] + [0.0] * n,
            "constant": node["constant"],
        }

    def atom(node: dict) -> dict:
        return {**node, "affine": [float(v) for v in node["affine"]] + [0.0] * n}

    expr = map_leaves(spec.expr, quad=quad, atom=atom)
    return ExpressionSpec(
        expr=expr,
        k=spec.k,
        l=spec.l,
        flavor="complex",
        time_drift=spec.time_drift,
        domain_halfwidth=spec.domain_halfwidth,
    )


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


# ---------------------------------------------------------------------------
# one-pass report for sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowReport:
    """Everything the evolution sweeps record for one (member, point) pair."""

    q: QTensor
    lhs: np.ndarray
    evolution_residual: float
    heat_residual: float
    q_spectrum_max: float
    grouping_spectrum_max: Tuple[Tuple[str, float], ...]


def flow_report(spec: ExpressionSpec, point, time: float = 0.0) -> FlowReport:
    """Single-jet evaluation of every per-point quantity the sweeps need."""
    jet = _complex_jet(spec, point, time)
    engine = _FlowEngine(jet)
    table = wirtinger_from_real(jet)
    ctx = _term_context(table)

    terms = _terms_from_context(ctx, table.k, table.l)
    m = table.k + table.l
    q = _source_from_terms(terms, m)
    groups = tuple(
        (gname, float(np.max(np.linalg.eigvalsh(acc))))
        for gname, acc in _groupings_from_terms(terms, m).items()
    )

    lhs = engine.lhs_matrix()
    ev_res = float(np.max(np.abs(lhs - q.matrix)))
    ht_res = float(abs(engine.flow_speed_time_derivative() - _heat_route_b(table, ctx)))
    return FlowReport(
        q=q,
        lhs=lhs,
        evolution_residual=ev_res,
        heat_residual=ht_res,
        q_spectrum_max=float(np.max(np.linalg.eigvalsh(q.matrix))),
        grouping_spectrum_max=groups,
    )
