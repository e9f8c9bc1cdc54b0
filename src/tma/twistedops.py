"""Twisted Monge-Ampère operators, real and complex.

The real elliptic operator on a convex/concave split u(x, y) is

    F(u) = log det u_xx - log det(-u_yy),

and the parabolic residual is H(u) = du/dt - F(u).  The complex flavor
replaces the Hessian blocks with the mixed Wirtinger blocks u_{z zbar} and
-u_{w wbar}.  Both flavors consume exact jets/tables — never grids — so the
same code path serves analytic verification and the finite-difference solver,
which adapts stencils into jets.

The module also assembles the complex transformed Hessian

    W = [[Z - M V^{-1} M*,  M V^{-1}],
         [V^{-1} M*,        -V^{-1} ]],      Z = u_{z zbar}, V = u_{w wbar},
                                             M = u_{z wbar},

whose determinant is det Z / det(-V), so the flow du/dt = F(u) is identically
du/dt = log det W; and the linearized operator

    L(phi) = u^{zbar_b z_a} phi_{z_a zbar_b} - u^{wbar_b w_a} phi_{w_a wbar_b}.

Blocks with the wrong sign raise immediately instead of producing complex
logarithms: a function outside the twisted class invalidates every downstream
identity, so we fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DimensionMismatch
from .jets import SpaceTimeJet, WirtingerTable, unit_index
from .linalg import as_hermitian, inverse_and_logdet, logdet_pd

__all__ = [
    "OperatorValue",
    "operator_value",
    "eval_F_real",
    "eval_F_complex",
    "eval_F",
    "eval_H",
    "complex_W",
    "complex_L_apply",
    "logdetW_equivalence_residual",
]

JetOrTable = Union[SpaceTimeJet, WirtingerTable]


@dataclass(frozen=True)
class OperatorValue:
    """Operator evaluation at one point, with its block log-determinants.

    ``f_value`` is exactly ``logdet_convex - logdet_concave`` as assembled;
    ``h_residual`` is ``du/dt - f_value`` and is None when the input carries
    no time derivative (pure elliptic evaluation).
    """

    f_value: float
    h_residual: Optional[float]
    logdet_convex: float
    logdet_concave: float


def _blocks(obj: JetOrTable):
    """Convex-slot and negated concave-slot second-derivative blocks."""
    if isinstance(obj, WirtingerTable):
        z, _, v = obj.second_blocks()
        return as_hermitian(z), as_hermitian(-v)
    a, _, c = obj.hessian_blocks()
    return a, -c


def _time_derivative(obj: JetOrTable) -> float:
    if isinstance(obj, WirtingerTable):
        zero = (0,) * obj.m
        return float(np.real(obj.dt(zero, zero)))
    return obj.dt()


def _has_time_data(obj: JetOrTable) -> bool:
    return bool(obj.dt1)


def eval_F_real(jet: SpaceTimeJet) -> float:
    """log det u_xx - log det(-u_yy) at the jet's point."""
    top, bottom = _blocks(jet)
    return logdet_pd(top) - logdet_pd(bottom)


def eval_F_complex(table: WirtingerTable) -> float:
    """log det u_{z zbar} - log det(-u_{w wbar}) at the table's point."""
    top, bottom = _blocks(table)
    return logdet_pd(top) - logdet_pd(bottom)


def eval_F(obj: JetOrTable) -> float:
    """Flavor-dispatching twisted operator value."""
    if isinstance(obj, WirtingerTable):
        return eval_F_complex(obj)
    return eval_F_real(obj)


def eval_H(obj: JetOrTable) -> float:
    """Parabolic residual du/dt - F(u); zero iff the flow holds at the point."""
    return _time_derivative(obj) - eval_F(obj)


def operator_value(obj: JetOrTable) -> OperatorValue:
    """Package F, the parabolic residual, and both block log-determinants."""
    top, bottom = _blocks(obj)
    ld_top = logdet_pd(top)
    ld_bottom = logdet_pd(bottom)
    f = ld_top - ld_bottom
    h = _time_derivative(obj) - f if _has_time_data(obj) else None
    return OperatorValue(f_value=f, h_residual=h, logdet_convex=ld_top, logdet_concave=ld_bottom)


def complex_W(table: WirtingerTable):
    """Hermitian transformed Hessian of a complex-flavored function.

    Assembled blockwise from the Wirtinger second derivatives; before
    construction the two anti-diagonal blocks u_{z wbar} and u_{w zbar} are
    checked to be mutual adjoints (they must be, for a real-valued u).
    """
    z, mblk, v = table.second_blocks()
    k, l, m = table.k, table.l, table.m
    if l == 0:
        return as_hermitian(z)
    if k == 0:
        neg_vinv, _ = inverse_and_logdet(as_hermitian(-v))
        return neg_vinv
    other = np.empty((l, k), dtype=complex)
    for c in range(l):
        for b in range(k):
            other[c, b] = table.d(unit_index(m, k + c), unit_index(m, b))
    scale = max(1.0, float(np.max(np.abs(mblk))))
    if float(np.max(np.abs(other - mblk.conj().T))) > 1e-12 * scale:
        raise ValueError("mixed Wirtinger blocks are not mutually adjoint")
    neg_vinv, _ = inverse_and_logdet(as_hermitian(-v))
    vinv = -neg_vinv
    coupling = mblk @ vinv
    w = np.block([[z - coupling @ mblk.conj().T, coupling], [coupling.conj().T, neg_vinv]])
    return (w + w.conj().T) / 2.0


def complex_L_apply(u_table: WirtingerTable, phi_table: WirtingerTable) -> float:
    """Linearized operator of u applied to phi.

    ``tr(Z(u)^{-1} Z(phi)) - tr(V(u)^{-1} V(phi))`` with the index pairing
    ``u^{zbar_b z_a} phi_{z_a zbar_b}``; real for real-valued phi.
    """
    if (u_table.k, u_table.l) != (phi_table.k, phi_table.l):
        raise DimensionMismatch("u and phi live on different C^k x C^l spaces")
    zu, _, vu = u_table.second_blocks()
    zphi, _, vphi = phi_table.second_blocks()
    zi, _ = inverse_and_logdet(as_hermitian(zu))
    neg_vinv, _ = inverse_and_logdet(as_hermitian(-vu))
    value = np.trace(zi @ zphi) + np.trace(neg_vinv @ vphi)
    return float(np.real(value))


def logdetW_equivalence_residual(table: WirtingerTable) -> float:
    """|(du/dt - log det W) - H(u)| — the two flow formulations compared.

    Identically zero in exact arithmetic because det W = det Z / det(-V);
    the returned number is floating-point noise.
    """
    w = complex_W(table)
    return abs((_time_derivative(table) - logdet_pd(w)) - eval_H(table))
