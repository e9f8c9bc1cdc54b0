import math

import numpy as np
import pytest

from tma.errors import NotPositiveDefinite, TmaError
from tma.funclass import EnsembleSpec, draw_member, sample_points
from tma.jets import ExpressionSpec, evaluate_jet, wirtinger_from_real, wirtinger_keys
from tma.legendre import partial_legendre
from tma.linalg import as_hermitian, inverse_and_logdet
from tma.twistedops import complex_W, eval_F, eval_H


def real_quad(a, b, cross=0.0, drift=0.0):
    # u = a x^2/2 - b y^2/2 + cross * x y + drift * t
    return ExpressionSpec(
        expr={"kind": "quad", "matrix": [[a, cross], [cross, -b]], "linear": [0.0, 0.0], "constant": 0.0},
        k=1,
        l=1,
        time_drift=drift,
    )


def complex_quad(a=1.0, b=1.0, eps=0.0, drift=0.0):
    # u = a|z|^2 - b|w|^2 + eps Re(z wbar) over C x C, laid out (X_z, X_w, Y_z, Y_w)
    m = [
        [2 * a, eps, 0.0, 0.0],
        [eps, -2 * b, 0.0, 0.0],
        [0.0, 0.0, 2 * a, eps],
        [0.0, 0.0, eps, -2 * b],
    ]
    return ExpressionSpec(
        expr={"kind": "quad", "matrix": m, "linear": [0.0] * 4, "constant": 0.0},
        k=1,
        l=1,
        flavor="complex",
        time_drift=drift,
    )


def ctable(spec, point=(0.0, 0.0, 0.0, 0.0)):
    return wirtinger_from_real(evaluate_jet(spec, point, order=2))


# ------------------------------------------------------------------ F, real
def test_f_real_balanced_quadratic():
    jet = evaluate_jet(real_quad(2.0, 2.0), [0.3, -0.1], order=2)
    assert eval_F(jet) == pytest.approx(0.0, abs=1e-14)


def test_f_real_log_scale():
    jet = evaluate_jet(real_quad(math.e, 1.0), [0.0, 0.0], order=2)
    assert eval_F(jet) == pytest.approx(1.0, abs=1e-14)


def test_f_real_cross_term():
    jet = evaluate_jet(real_quad(1.0, 1.0, cross=0.5), [0.2, 0.2], order=2)
    assert eval_F(jet) == pytest.approx(0.0, abs=1e-14)


def test_f_real_wrong_sign_raises():
    spec = ExpressionSpec(
        expr={"kind": "quad", "matrix": [[1.0, 0.0], [0.0, 1.0]], "linear": [0.0, 0.0], "constant": 0.0},
        k=1,
        l=1,
    )
    with pytest.raises(NotPositiveDefinite):
        eval_F(evaluate_jet(spec, [0.0, 0.0], order=2))


@pytest.mark.parametrize("flavor", ["real", "complex"])
@pytest.mark.parametrize("k, l", [(0, 1), (0, 2), (1, 0)])
def test_empty_block_has_zero_logdet(flavor, k, l):
    es = EnsembleSpec(k=k, l=l, flavor=flavor, eps=0.1, seed=3)
    spec = draw_member(es, 0)
    jet = evaluate_jet(spec, sample_points(es, 0, 1)[0], order=2)
    if flavor == "complex":
        obj = wirtinger_from_real(jet)
        z, _, v = obj.second_blocks()
        top, bottom = as_hermitian(z), as_hermitian(-v)
    else:
        obj = jet
        a, _, c = jet.hessian_blocks()
        top, bottom = a, -c
    _, ld_top = inverse_and_logdet(top)
    _, ld_bottom = inverse_and_logdet(bottom)
    assert (ld_top if k == 0 else ld_bottom) == 0.0
    assert eval_F(obj) == ld_top - ld_bottom


# --------------------------------------------------------------- F, complex
def test_f_complex_balanced():
    assert eval_F(ctable(complex_quad(1.5, 1.5))) == pytest.approx(0.0, abs=1e-14)


def test_f_complex_coupling_enters_only_mixed_blocks():
    assert eval_F(ctable(complex_quad(eps=0.4))) == pytest.approx(0.0, abs=1e-14)


def test_f_complex_log_two():
    assert eval_F(ctable(complex_quad(a=2.0))) == pytest.approx(math.log(2.0), abs=1e-14)


def test_f_complex_wrong_sign_raises():
    spec = ExpressionSpec(
        expr={"kind": "quad", "matrix": (2 * np.eye(4)).tolist(), "linear": [0.0] * 4, "constant": 0.0},
        k=1,
        l=1,
        flavor="complex",
    )
    with pytest.raises(NotPositiveDefinite):
        eval_F(ctable(spec))


# ----------------------------------------------------------------------- H
def test_h_exact_flow_solution():
    a, b = 2.0, 0.5
    jet = evaluate_jet(real_quad(a, b, drift=math.log(a / b)), [0.1, 0.4], order=2)
    assert eval_H(jet) == pytest.approx(0.0, abs=1e-14)


def test_h_stationary_quadratic():
    jet = evaluate_jet(real_quad(1.0, 1.0), [0.0, 0.0], order=2)
    assert eval_H(jet) == pytest.approx(0.0, abs=1e-15)


def test_h_injected_unit_drift():
    jet = evaluate_jet(real_quad(1.0, 1.0, drift=1.0), [0.0, 0.0], order=2)
    assert eval_H(jet) == pytest.approx(1.0, abs=1e-15)


def test_h_complex_flavor():
    table = ctable(complex_quad(a=2.0, drift=math.log(2.0)))
    assert eval_H(table) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------- complex W
def test_complex_w_identity():
    assert np.allclose(complex_W(ctable(complex_quad())), np.eye(2), atol=1e-14)


def test_complex_w_coupled_frozen():
    eps = 0.3
    w = complex_W(ctable(complex_quad(eps=eps)))
    expected = np.array([[1 + eps**2 / 4, -eps / 2], [-eps / 2, 1.0]])
    assert np.allclose(w, expected, atol=1e-14)


def test_complex_w_block_scale():
    w = complex_W(ctable(complex_quad(b=2.0)))
    assert np.allclose(w, np.diag([1.0, 0.5]), atol=1e-14)


@pytest.mark.parametrize("k, l", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 0), (0, 1)])
def test_complex_w_hermitian_psd_on_ensemble(k, l):
    es = EnsembleSpec(k=k, l=l, flavor="complex", eps=0.15, n_atoms=3, seed=13)
    for idx, spec in enumerate([draw_member(es, i) for i in range(6)]):
        for p in sample_points(es, idx, 3):
            w = complex_W(wirtinger_from_real(evaluate_jet(spec, p, order=2)))
            assert np.array_equal(w, w.conj().T)
            assert np.linalg.eigvalsh(w).min() >= -1e-10


def test_complex_w_adjointness_guard():
    table = ctable(complex_quad(eps=0.2))
    m = table.m
    key = ((0, 1, 0, 0)[:m], (1, 0, 0, 0)[:m])  # u_{w zbar} entry
    c = wirtinger_keys(m, table.order).index(key)
    table.entries[c] = table.entries[c] + 1e-6
    with pytest.raises(TmaError):
        complex_W(table)


# --------------------------------------------------- flow reformulation
def logdet_w_gap(table):
    """|log det W - F|: the complex determinant law det W = det Z / det(-V), in logarithms."""
    sign, logdet = np.linalg.slogdet(complex_W(table))
    assert abs(sign - 1.0) < 1e-12  # W is Hermitian positive definite: det W > 0
    return abs(logdet - eval_F(table))


def test_logdet_w_equivalence_coupled():
    eps = 0.3
    table = ctable(complex_quad(eps=eps, drift=0.25))
    # det W = (1 + eps^2/4) - eps^2/4 = 1, so log det W = 0 = F
    assert logdet_w_gap(table) < 1e-15


def test_logdet_w_equivalence_ensemble():
    es = EnsembleSpec(k=2, l=1, flavor="complex", eps=0.1, n_atoms=3, seed=29)
    for idx, spec in enumerate([draw_member(es, i) for i in range(5)]):
        for p in sample_points(es, idx, 3):
            table = wirtinger_from_real(evaluate_jet(spec, p, order=2))
            assert logdet_w_gap(table) <= 1e-10


def test_f_real_equals_logdet_of_transformed_hessian():
    es = EnsembleSpec(k=1, l=1, a=1.0, b=1.0, eps=0.2, n_atoms=3, seed=17)
    for idx, spec in enumerate([draw_member(es, i) for i in range(5)]):
        for p in sample_points(es, idx, 3):
            jet = evaluate_jet(spec, p, order=2)
            z = jet.gradient()[spec.k :]
            res = partial_legendre(spec, p[: spec.k], z)
            sign, logdet = np.linalg.slogdet(res.W)
            assert sign == 1.0
            assert eval_F(jet) == pytest.approx(logdet, abs=1e-10)
