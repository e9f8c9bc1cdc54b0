"""Twisted Monge-Ampère operators, real and complex.

The real elliptic operator on a convex/concave split u(x, y) is

    F(u) = log det u_xx - log det(-u_yy),

and the parabolic residual is H(u) = du/dt - F(u).  The complex flavor
replaces the Hessian blocks with the mixed Wirtinger blocks u_{z zbar} and
-u_{w wbar}.  Both flavors consume exact jets/tables, never grids: this is
the analytic evaluation, which :func:`tma.estimates.rescale_report` reads for
the flow residual.  The finite-difference solver does not share it; it
evaluates its discrete ``F`` from second differences in
``tma.solver._Stencil.flow_value``.

The module also gives the complex transformed Hessian

    W = [[Z - M V^{-1} M*,  M V^{-1}],
         [V^{-1} M*,        -V^{-1} ]],      Z = u_{z zbar}, V = u_{w wbar},
                                             M = u_{z wbar},

assembled by :func:`tma.linalg.transformed_hessian`, the real flavor's
assembly with conjugate transposes.  Its determinant is det Z / det(-V), so
the flow du/dt = F(u) is identically du/dt = log det W.

Blocks with the wrong sign raise immediately instead of producing complex
logarithms: a function outside the twisted class invalidates every downstream
identity, so we fail loudly.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import TmaError
from .jets import SpaceTimeJet, WirtingerTable
from .linalg import as_hermitian, inverse_and_logdet, transformed_hessian

__all__ = [
    "eval_F",
    "eval_H",
    "complex_W",
]

JetOrTable = Union[SpaceTimeJet, WirtingerTable]


def _blocks(obj: JetOrTable):
    """Convex-slot and negated concave-slot second-derivative blocks."""
    if isinstance(obj, WirtingerTable):
        z, _, v = obj.second_blocks()
        return as_hermitian(z), as_hermitian(-v)
    a, _, c = obj.hessian_blocks()
    return a, -c


def eval_F(obj: JetOrTable) -> float:
    """Twisted operator value: log det of the convex block minus log det of the negated concave one."""
    top, bottom = _blocks(obj)
    return inverse_and_logdet(top)[1] - inverse_and_logdet(bottom)[1]


def eval_H(obj: JetOrTable) -> float:
    """Parabolic residual du/dt - F(u); zero iff the flow holds at the point."""
    return obj.drift - eval_F(obj)


def complex_W(table: WirtingerTable):
    """Hermitian transformed Hessian of a complex-flavored function.

    Assembled from the Wirtinger Hessian by
    :func:`tma.linalg.transformed_hessian`; before that, the two
    anti-diagonal blocks u_{z wbar} and u_{w zbar} are checked to be mutual
    adjoints (they must be, for a real-valued u).
    """
    h = table.hessian()
    k = table.k
    mix = h[:k, k:]
    scale = max(1.0, float(np.max(np.abs(mix), initial=0.0)))
    if float(np.max(np.abs(h[k:, :k] - mix.conj().T), initial=0.0)) > 1e-12 * scale:
        raise TmaError("mixed Wirtinger blocks are not mutually adjoint")
    w, _ = transformed_hessian(as_hermitian(h), k)
    return w
