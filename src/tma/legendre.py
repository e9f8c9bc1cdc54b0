"""Partial Legendre transform in the concave directions.

For a function u(x, y) convex in the first block of variables and concave in
the second, the transform trades the concave slots for their dual slopes
z = du/dy and produces

    w(x, z) = u(x, y(x, z)) - <y(x, z), z>,

which is convex in (x, z) jointly.  Note the sign convention: w is u *minus*
the pairing, so the gradient of w is (u_x, -y) — this differs by an overall
sign from the textbook full Legendre transform and is chosen so that the
transformed Hessian W below is positive semidefinite.

Everything after the gradient inversion is assembled from the jet of u at the
source point (x, y): the Jacobian T of the coordinate change, the transformed
Hessian

    W = [[u_xx - u_xy u_yy^{-1} u_yx,  u_xy u_yy^{-1}],
         [u_yy^{-1} u_yx,              -u_yy^{-1}   ]],

and the block-diagonal operator diag(u_xx^{-1}, -u_yy^{-1}) obtained by
conjugating W^{-1} with T.  Differentiating w numerically would compound the
inversion error for no benefit, so we never do that.

W and T are assembled for a whole stack ``(m, n, n)`` of Hessians at once, so
:func:`real_W` and :func:`det_transform_residual` take either one source
point or an ``(m, n)`` array of them, from one jet-engine call.  Each matrix
of a stack is bit-identical to the one assembled for its point alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainExceeded, NoConvergence
from .jets import ExpressionSpec, evaluate_hessians, evaluate_jet
from .linalg import inverse_and_logdet

_GRAD_TOL = 1e-12
_MAX_NEWTON = 100
_MAX_HALVINGS = 50

__all__ = [
    "PartialLegendreResult",
    "invert_partial_gradient",
    "partial_legendre",
    "det_transform_residual",
    "real_W",
    "transformed_operator_L",
]


@dataclass
class PartialLegendreResult:
    """Transform data at a single dual point (x, z).

    Attributes
    ----------
    w : float
        Transformed value ``u(x, y) - <y, z>``.
    y : ndarray
        Recovered concave-slot coordinates solving ``du/dy(x, y) = z``.
    T : ndarray
        Jacobian of the coordinate change ``(x, y) -> (x, z)``: lower block
        triangular with identity upper-left block and ``u_yy^{-1}`` in the
        lower-right block.
    W : ndarray
        Transformed Hessian, symmetric positive semidefinite, assembled from
        the jet of u at the source point (x, y).
    newton_iters : int
        Newton steps used by the gradient inversion.
    """

    w: float
    y: np.ndarray
    T: np.ndarray
    W: np.ndarray
    newton_iters: int


def _require_transformable(spec: ExpressionSpec) -> None:
    if spec.flavor != "real":
        raise ValueError("the partial Legendre transform is defined for real-flavor functions only")
    if spec.l == 0:
        raise ValueError("no concave directions to transform (l = 0)")


def _gradient_residual(spec: ExpressionSpec, x, y, z):
    point = np.concatenate([x, y])
    if not spec.in_domain(point):
        raise DomainExceeded(
            "iterate left the declared domain; the target slope is not "
            "attained by du/dy on the box"
        )
    jet = evaluate_jet(spec, point, order=2)
    g = jet.gradient()[spec.k :] - z
    return jet, g, float(np.max(np.abs(g)))


def _invert(spec: ExpressionSpec, x, z, y0):
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    y = np.zeros(spec.l) if y0 is None else np.array(y0, dtype=float)
    tol = _GRAD_TOL * (1.0 + float(np.max(np.abs(z))))
    jet, g, res = _gradient_residual(spec, x, y, z)
    for iters in range(_MAX_NEWTON + 1):
        if res <= tol:
            return y, iters, jet
        if iters == _MAX_NEWTON:
            break
        _, _, c_yy = jet.hessian_blocks()
        step = np.linalg.solve(c_yy, -g)
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = y + scale * step
            tjet, tg, tres = _gradient_residual(spec, x, trial, z)
            if tres < res:
                y, jet, g, res = trial, tjet, tg, tres
                break
            scale *= 0.5
        else:
            raise NoConvergence("step damping failed to reduce the gradient residual")
    raise NoConvergence(f"gradient inversion did not converge in {_MAX_NEWTON} Newton steps")


def invert_partial_gradient(spec: ExpressionSpec, x, z, y0=None):
    """Solve ``du/dy(x, y) = z`` for y by damped Newton iteration.

    The concavity of u in y makes the residual norm decrease along the Newton
    direction, so plain step halving suffices as a globalizer.  Converges to
    ``max|du/dy - z| <= 1e-12 * (1 + max|z|)``.

    Raises
    ------
    NoConvergence
        After 100 Newton steps, or if damping stalls.
    DomainExceeded
        A Newton trial point left the declared box — the signal that z is not
        in the image of du/dy over the domain.
    """
    _require_transformable(spec)
    y, _, _ = _invert(spec, x, z, y0)
    return y


def _assemble(h: np.ndarray, k: int):
    """Transformed Hessians W and coordinate Jacobians T of a Hessian stack ``(..., n, n)``.

    ``k`` is the size of the convex block; both results have the shape of ``h``.
    """
    b, c = h[..., :k, k:], h[..., k:, k:]
    neg_cinv, _ = inverse_and_logdet(-c)
    cinv = -neg_cinv
    bt = np.swapaxes(b, -1, -2)
    b_cinv = b @ cinv
    w = np.concatenate(
        [
            np.concatenate([h[..., :k, :k] - b_cinv @ bt, b_cinv], axis=-1),
            np.concatenate([np.swapaxes(b_cinv, -1, -2), neg_cinv], axis=-1),
        ],
        axis=-2,
    )
    w = 0.5 * (w + np.swapaxes(w, -1, -2))
    upper = np.zeros(h.shape[:-2] + (k, h.shape[-1]))
    upper[..., :k] = np.eye(k)
    t = np.concatenate([upper, np.concatenate([-cinv @ bt, cinv], axis=-1)], axis=-2)
    return w, t


def _source_hessians(spec: ExpressionSpec, point):
    """Hessian stack at one point ``(n,)`` or at the rows of ``(m, n)``, and whether it was one point."""
    _require_transformable(spec)
    pts = np.asarray(point, dtype=float)
    return evaluate_hessians(spec, np.atleast_2d(pts)), pts.ndim < 2


def real_W(spec: ExpressionSpec, point, time: float = 0.0) -> np.ndarray:
    """Transformed Hessian W of a real-flavored description at a source point.

    The symmetric block matrix with the concave slot inverted:
    ``[[A - B C^{-1} B^t, B C^{-1}], [C^{-1} B^t, -C^{-1}]]`` where A, B, C
    are the Hessian blocks of u.  For class members W is positive
    semidefinite and ``det W = det A / det(-C)``.

    ``point`` is one source point, giving an ``(n, n)`` matrix, or an
    ``(m, n)`` array of them, giving the ``(m, n, n)`` stack.  W does not
    depend on ``time``: a spec's only time dependence is its linear drift.
    """
    h, single = _source_hessians(spec, point)
    w, _ = _assemble(h, spec.k)
    return w[0] if single else w


def partial_legendre(spec: ExpressionSpec, x, z) -> PartialLegendreResult:
    """Transform u at the dual point (x, z).

    Inverts the concave-slot gradient to find the source point (x, y), then
    assembles every output from the exact jet of u there.
    """
    _require_transformable(spec)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    y, iters, jet = _invert(spec, x, z, None)
    w_value = jet.d((0,) * spec.nvars) - float(y @ z)
    w, t = _assemble(jet.hessian(), spec.k)
    return PartialLegendreResult(w=w_value, y=y, T=t, W=w, newton_iters=iters)


def det_transform_residual(spec: ExpressionSpec, point):
    """``|det W - det u_xx / det(-u_yy)|`` at a source point.

    Exactly zero in exact arithmetic for every u; the returned number is pure
    floating-point noise and should sit comfortably below 1e-10 for
    well-conditioned Hessian blocks.  A float for one point ``(n,)``; an
    ``(m,)`` array for an ``(m, n)`` array of points.
    """
    h, single = _source_hessians(spec, point)
    w, _ = _assemble(h, spec.k)
    k = spec.k
    res = np.abs(np.linalg.det(w) - np.linalg.det(h[..., :k, :k]) / np.linalg.det(-h[..., k:, k:]))
    return float(res[0]) if single else res


def transformed_operator_L(spec: ExpressionSpec, point, *, long_form: bool = False):
    """Second-order coefficient matrix ``diag(u_xx^{-1}, -u_yy^{-1})``.

    With ``long_form=True`` the same matrix is assembled the expensive way,
    conjugating the inverse transformed Hessian by the coordinate Jacobian
    (``T W^{-1} T^t``); the two routes agree entry-wise to 1e-12 and the
    short form is preferred for conditioning.
    """
    _require_transformable(spec)
    h = evaluate_hessians(spec, np.asarray(point, dtype=float)[None])[0]
    k = spec.k
    if long_form:
        w, t = _assemble(h, k)
        w_inv, _ = inverse_and_logdet(w)
        out = t @ w_inv @ t.T
        return 0.5 * (out + out.T)
    a_inv, _ = inverse_and_logdet(h[:k, :k])
    neg_c_inv, _ = inverse_and_logdet(-h[k:, k:])
    out = np.zeros((spec.nvars, spec.nvars))
    out[:k, :k] = a_inv
    out[k:, k:] = neg_c_inv
    return out
