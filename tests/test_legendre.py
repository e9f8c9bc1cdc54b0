import math

import numpy as np
import pytest

from tma.errors import DimensionMismatch, DomainExceeded
from tma.funclass import EnsembleSpec, draw_member, sample_points
from tma.jets import ExpressionSpec, evaluate_jet
from tma.legendre import (
    _jacobian,
    det_transform_residual,
    partial_legendre,
    real_W,
    transformed_operator_L,
)
from tma.linalg import transformed_hessian


# ----------------------------------------------------------------- oracles
def bisect_root(f, lo, hi, tol=1e-15):
    """Sign-change bisection; the independent oracle for gradient inversion."""
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(hi - lo) < tol:
            return mid
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


# Oracle for u = x^2/2 - cosh(y):  du/dy = -sinh(y) = 1  =>  y = -asinh(1).
_COSH_ROOT = bisect_root(lambda y: -math.sinh(y) - 1.0, -2.0, 0.0)
FROZEN_COSH_ROOT = -0.8813735870195430  # = -asinh(1), frozen from the oracle
assert abs(_COSH_ROOT - FROZEN_COSH_ROOT) < 1e-12


def quad_spec(matrix, k, l, **kw):
    n = len(matrix)
    return ExpressionSpec(
        expr={"kind": "quad", "matrix": matrix, "linear": [0.0] * n, "constant": 0.0},
        k=k,
        l=l,
        **kw,
    )


def cosh_spec(**kw):
    # u = x^2/2 - cosh(y)
    return ExpressionSpec(
        expr={
            "kind": "sum",
            "terms": [
                {"kind": "quad", "matrix": [[1.0, 0.0], [0.0, 0.0]], "linear": [0.0, 0.0], "constant": 0.0},
                {
                    "kind": "scale",
                    "coefficient": -1.0,
                    "term": {"kind": "atom", "fn": "cosh", "affine": [0.0, 1.0], "const": 0.0},
                },
            ],
        },
        k=1,
        l=1,
        **kw,
    )


SADDLE = quad_spec([[1.0, 0.0], [0.0, -1.0]], 1, 1)
CROSS = quad_spec([[1.0, 0.5], [0.5, -1.0]], 1, 1)


# ------------------------------------------------------- gradient inversion
def test_linear_gradient_inversion():
    spec = quad_spec([[1.0, 0.0], [0.0, -2.0]], 1, 1)
    y = partial_legendre(spec, [0.0], [1.0]).y
    assert y == pytest.approx([-0.5], abs=1e-13)


def test_odd_gradient_zero():
    y = partial_legendre(cosh_spec(), [0.3], [0.0]).y
    assert y == pytest.approx([0.0], abs=1e-13)


def test_cosh_inversion_matches_bisection_oracle():
    y = partial_legendre(cosh_spec(), [0.0], [1.0]).y
    assert abs(y[0] - FROZEN_COSH_ROOT) < 1e-11
    assert abs(y[0] - _COSH_ROOT) < 1e-11


def test_inversion_fixed_point_on_ensemble():
    es = EnsembleSpec(k=2, l=1, a=1.0, b=1.5, eps=0.2, n_atoms=3, seed=11)
    for idx, spec in enumerate([draw_member(es, i) for i in range(5)]):
        pts = sample_points(es, idx, 3)
        for p in pts:
            x, y_true = p[:2], p[2:]
            z = evaluate_jet(spec, p, order=1).gradient()[2:]
            y = partial_legendre(spec, x, z).y
            assert np.max(np.abs(y - y_true)) < 1e-9
            g = evaluate_jet(spec, np.concatenate([x, y]), order=1).gradient()[2:]
            assert np.max(np.abs(g - z)) <= 1e-12 * (1.0 + np.max(np.abs(z)))


def test_domain_exceeded_signals_unreachable_slope():
    with pytest.raises(DomainExceeded):
        partial_legendre(cosh_spec(domain_halfwidth=0.5), [0.0], [1.0])


# ------------------------------------------------------------ the transform
def test_saddle_transform_explicit():
    res = partial_legendre(SADDLE, [0.7], [-0.3])
    assert res.y == pytest.approx([0.3], abs=1e-13)
    assert res.w == pytest.approx(0.5 * 0.7**2 + 0.5 * 0.3**2, abs=1e-13)
    assert np.allclose(res.W, np.eye(2), atol=1e-13)
    assert np.allclose(res.T, np.diag([1.0, -1.0]), atol=1e-13)
    assert res.newton_iters <= 2


def test_cross_term_transform_frozen():
    # u = x^2/2 + c x y - y^2/2 with c = 1/2: y = c x - z and
    # w = (1 + c^2) x^2/2 - c x z + z^2/2 by direct substitution.
    c = 0.5
    for x, z in [(0.4, 0.2), (-0.3, 0.5)]:
        res = partial_legendre(CROSS, [x], [z])
        assert res.y == pytest.approx([c * x - z], abs=1e-12)
        assert res.w == pytest.approx((1 + c * c) * x * x / 2 - c * x * z + z * z / 2, abs=1e-12)
        assert np.allclose(res.W, [[1.25, -0.5], [-0.5, 1.0]], atol=1e-12)


def test_cosh_transform_at_zero():
    res = partial_legendre(cosh_spec(), [0.2], [0.0])
    assert np.allclose(res.W, np.eye(2), atol=1e-13)


def test_w_psd_and_symmetric_on_ensemble():
    es = EnsembleSpec(k=1, l=2, a=1.0, b=1.0, eps=0.15, n_atoms=3, seed=4)
    for idx, spec in enumerate([draw_member(es, i) for i in range(8)]):
        for p in sample_points(es, idx, 4):
            h = evaluate_jet(spec, p, order=2).hessian()
            w, cinv = transformed_hessian(h, spec.k)
            t = _jacobian(h, spec.k, cinv)
            assert np.array_equal(w, w.T)
            assert np.linalg.eigvalsh(w).min() >= -1e-10
            assert np.allclose(t[:1, 1:], 0.0)  # upper-right block vanishes


# ---------------------------------------------------- determinant transform
def test_det_residual_quadratics():
    assert det_transform_residual(SADDLE, [0.1, 0.2]) < 1e-14
    assert det_transform_residual(CROSS, [0.1, 0.2]) < 1e-13


def test_det_residual_ensemble():
    es = EnsembleSpec(k=2, l=2, a=1.0, b=1.0, eps=0.2, n_atoms=4, seed=21)
    for idx, spec in enumerate([draw_member(es, i) for i in range(6)]):
        for p in sample_points(es, idx, 4):
            assert det_transform_residual(spec, p) <= 1e-10


# -------------------------------------------------------- transformed L
def test_operator_short_form_diagonal():
    assert np.allclose(transformed_operator_L(SADDLE, [0.0, 0.0]), np.eye(2), atol=1e-14)
    spec = quad_spec([[2.0, 0.0], [0.0, -3.0]], 1, 1)
    assert np.allclose(
        transformed_operator_L(spec, [0.5, -0.5]), np.diag([0.5, 1.0 / 3.0]), atol=1e-14
    )


def test_operator_long_form_agrees():
    short = transformed_operator_L(CROSS, [0.3, -0.2])
    long = transformed_operator_L(CROSS, [0.3, -0.2], long_form=True)
    assert np.allclose(short, np.eye(2), atol=1e-13)
    assert np.max(np.abs(long - short)) < 1e-12

    es = EnsembleSpec(k=1, l=1, a=1.0, b=2.0, eps=0.2, n_atoms=3, seed=8)
    for idx, spec in enumerate([draw_member(es, i) for i in range(4)]):
        for p in sample_points(es, idx, 3):
            short = transformed_operator_L(spec, p)
            long = transformed_operator_L(spec, p, long_form=True)
            assert np.max(np.abs(long - short)) < 1e-12


# -------------------------------------------------------- real transformed Hessian
def test_real_w_of_mixed_quadratic_frozen():
    # u = x^2/2 + 0.5 xy - y^2/2: A = 1, B = 0.5, C = -1
    # W = [[A - B^2/C^{-}..., B C^{-1}], [C^{-1} B, -C^{-1}]] = [[1.25, -0.5], [-0.5, 1]]
    w = real_W(CROSS, [0.4, -0.1])
    np.testing.assert_allclose(w, [[1.25, -0.5], [-0.5, 1.0]], atol=1e-14)
    np.testing.assert_array_equal(w, w.T)


def test_real_w_det_identity_and_psd_on_ensemble():
    es = EnsembleSpec(k=2, l=1, a=1.0, b=1.5, eps=0.2, n_atoms=3, seed=13)
    for idx, spec in enumerate([draw_member(es, i) for i in range(5)]):
        for p in sample_points(es, idx, 3):
            w = real_W(spec, p)
            hess = evaluate_jet(spec, p, order=2).hessian()
            k = spec.k
            ratio = np.linalg.det(hess[:k, :k]) / np.linalg.det(-hess[k:, k:])
            assert np.linalg.det(w) == pytest.approx(ratio, rel=1e-10)
            assert np.linalg.eigvalsh(w).min() > 0.0


def test_complex_flavor_rejected():
    spec = ExpressionSpec(
        expr={"kind": "quad", "matrix": np.eye(4).tolist(), "linear": [0.0] * 4, "constant": 0.0},
        k=1,
        l=1,
        flavor="complex",
    )
    with pytest.raises(DimensionMismatch):
        partial_legendre(spec, [0.0], [0.0])
