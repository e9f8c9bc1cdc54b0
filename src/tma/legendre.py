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

W comes from :func:`tma.linalg.transformed_hessian`, the assembly shared with
the complex flavor, for a whole stack of Hessians at once.  A
:class:`LegendreBlock` holds W and the determinant-law residual of a block
of members, each at its own points, from one jet-engine call;
:func:`real_W` and :func:`det_transform_residual` are blocks of one member,
at one source point or an ``(m, n)`` array of them.  Each matrix of a stack
is bit-identical to the one assembled for its point alone.  T is built only
where it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DomainExceeded, DomainViolation, NoConvergence
from .jets import ExpressionSpec, SpecBlock, _hessian_columns, evaluate_hessians, evaluate_jet
from .linalg import inverse_and_logdet, transformed_hessian

_GRAD_TOL = 1e-12
_MAX_NEWTON = 100
_MAX_HALVINGS = 50

__all__ = [
    "LegendreBlock",
    "PartialLegendreResult",
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


def _require_transformable(spec) -> None:
    """Raise unless ``spec`` (an :class:`ExpressionSpec` or a ``SpecBlock``) is real with ``l >= 1``."""
    if spec.flavor != "real":
        raise DimensionMismatch("the partial Legendre transform is defined for real-flavor functions only")
    if spec.l == 0:
        raise DimensionMismatch("no concave directions to transform (l = 0)")


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


def _invert(spec: ExpressionSpec, x, z):
    """y solving ``du/dy(x, y) = z``, its Newton step count, and the order-2 jet at (x, y).

    Damped Newton from ``y = 0``: the concavity of u in y makes the residual
    norm decrease along the Newton direction, so plain step halving suffices
    as a globalizer.  Converges to ``max|du/dy - z| <= 1e-12 * (1 + max|z|)``,
    which needs a finite ``z``: a non-finite ``x`` or ``z`` raises
    :class:`DomainViolation` naming it.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != (spec.k,) or z.shape != (spec.l,):
        raise DimensionMismatch(f"need x of shape ({spec.k},) and z of shape ({spec.l},), got {x.shape} and {z.shape}")
    for name, v in (("x", x), ("z", z)):
        if not np.isfinite(v).all():
            raise DomainViolation(f"{name} must be finite, got {v.tolist()}")
    y = np.zeros(spec.l)
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


def _jacobian(h: np.ndarray, k: int, cinv: np.ndarray) -> np.ndarray:
    """Coordinate Jacobian T of a Hessian ``h`` whose concave block has inverse ``cinv``."""
    upper = np.zeros((k, h.shape[-1]))
    upper[:, :k] = np.eye(k)
    lower = np.concatenate([-cinv @ h[:k, k:].T, cinv], axis=-1)
    return np.concatenate([upper, lower], axis=-2)


class LegendreBlock:
    """W and the determinant law of a :class:`~tma.jets.SpecBlock`, from one stacked pass.

    The block is B real-flavored members with ``l >= 1``, each at its own p
    points: the draws of :func:`~tma.funclass.draw_block`, or one spec
    (:meth:`SpecBlock.at <tma.jets.SpecBlock.at>`).  One order-2 jet-engine
    call gives the Hessians of all ``N = B p`` rows; row ``r p + i`` of every
    array below is member ``r`` at ``block.points[r, i]``.  :func:`real_W`
    and :func:`det_transform_residual` are blocks of one member, and every
    row of a block is bit-identical to them.  Raises
    :class:`DimensionMismatch` for a complex block or ``l = 0``.
    """

    def __init__(self, block: SpecBlock):
        _require_transformable(block)
        jets = block.jets(2)
        self.k = block.k
        self.hessians = jets.reshape(-1, jets.shape[-1])[:, _hessian_columns(block.nvars, 2)]

    @cached_property
    def W(self) -> np.ndarray:
        """``(N, n, n)``: the transformed Hessian of each row."""
        return transformed_hessian(self.hessians, self.k)[0]

    @cached_property
    def det_residual(self) -> np.ndarray:
        """``(N,)``: ``|det W - det u_xx / det(-u_yy)|`` of each row."""
        h, k = self.hessians, self.k
        return np.abs(np.linalg.det(self.W) - np.linalg.det(h[:, :k, :k]) / np.linalg.det(-h[:, k:, k:]))

    @cached_property
    def w_spectrum_min(self) -> np.ndarray:
        """``(N,)``: the smallest eigenvalue of each W."""
        return np.linalg.eigvalsh(self.W)[:, 0]


def _one_member(spec: ExpressionSpec, point):
    """The block of ``spec`` at one point ``(n,)`` or at the rows of ``(m, n)``, and whether it was one point."""
    pts = np.asarray(point, dtype=float)
    return LegendreBlock(SpecBlock.at(spec, np.atleast_2d(pts))), pts.ndim < 2


def real_W(spec: ExpressionSpec, point) -> np.ndarray:
    """Transformed Hessian W of a real-flavored description at a source point.

    The symmetric block matrix with the concave slot inverted:
    ``[[A - B C^{-1} B^t, B C^{-1}], [C^{-1} B^t, -C^{-1}]]`` where A, B, C
    are the Hessian blocks of u.  For class members W is positive
    semidefinite and ``det W = det A / det(-C)``.

    ``point`` is one source point, giving an ``(n, n)`` matrix, or an
    ``(m, n)`` array of them, giving the ``(m, n, n)`` stack.  W does not
    depend on the time: a spec's only time dependence is its linear drift.
    """
    block, single = _one_member(spec, point)
    return block.W[0] if single else block.W


def partial_legendre(spec: ExpressionSpec, x, z) -> PartialLegendreResult:
    """Transform u at the dual point (x, z).

    Inverts the concave-slot gradient to find the source point (x, y), then
    assembles every output from the exact jet of u there; ``y`` alone is the
    gradient inversion.  Raises :class:`DimensionMismatch` unless x has k
    entries and z has l, :class:`DomainViolation` unless both are finite,
    :class:`NoConvergence` after 100 Newton steps or a stalled damping, and
    :class:`DomainExceeded` when a Newton trial point leaves the declared
    box: z is not in the image of du/dy over the domain.
    """
    _require_transformable(spec)
    y, iters, jet = _invert(spec, x, z)
    w_value = jet.d((0,) * spec.nvars) - float(y @ z)
    h = jet.hessian()
    w, cinv = transformed_hessian(h, spec.k)
    return PartialLegendreResult(w=w_value, y=y, T=_jacobian(h, spec.k, cinv), W=w, newton_iters=iters)


def det_transform_residual(spec: ExpressionSpec, point):
    """``|det W - det u_xx / det(-u_yy)|`` at a source point.

    Exactly zero in exact arithmetic for every u; the returned number is pure
    floating-point noise and should sit comfortably below 1e-10 for
    well-conditioned Hessian blocks.  A float for one point ``(n,)``; an
    ``(m,)`` array for an ``(m, n)`` array of points.
    """
    block, single = _one_member(spec, point)
    return float(block.det_residual[0]) if single else block.det_residual


def transformed_operator_L(spec: ExpressionSpec, point):
    """Second-order coefficient matrix ``diag(u_xx^{-1}, -u_yy^{-1})``.

    It is ``T W^{-1} T^t``, the inverse transformed Hessian conjugated by
    the coordinate Jacobian, assembled block by block from the two Hessian
    blocks, which is cheaper and better conditioned than that product.
    """
    _require_transformable(spec)
    h = evaluate_hessians(spec, np.asarray(point, dtype=float)[None])[0]
    k = spec.k
    a_inv, _ = inverse_and_logdet(h[:k, :k])
    neg_c_inv, _ = inverse_and_logdet(-h[k:, k:])
    out = np.zeros((spec.nvars, spec.nvars))
    out[:k, :k] = a_inv
    out[k:, k:] = neg_c_inv
    return out
