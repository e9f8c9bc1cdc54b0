import math

import numpy as np
import pytest

from tma.errors import NotPositiveDefinite
from tma.funclass import EnsembleSpec, sample_ensemble, sample_points
from tma.jets import ExpressionSpec, evaluate_jet, wirtinger_from_real, wirtinger_keys
from tma.legendre import partial_legendre
from tma.twistedops import (
    OperatorValue,
    complex_L_apply,
    complex_W,
    eval_F_complex,
    eval_F_real,
    eval_H,
    logdetW_equivalence_residual,
    operator_value,
)


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


def ctable(spec, point=(0.0, 0.0, 0.0, 0.0), time=0.0):
    return wirtinger_from_real(evaluate_jet(spec, point, time, order=2))


# ------------------------------------------------------------------ F, real
def test_f_real_balanced_quadratic():
    jet = evaluate_jet(real_quad(2.0, 2.0), [0.3, -0.1], order=2)
    assert eval_F_real(jet) == pytest.approx(0.0, abs=1e-14)


def test_f_real_log_scale():
    jet = evaluate_jet(real_quad(math.e, 1.0), [0.0, 0.0], order=2)
    assert eval_F_real(jet) == pytest.approx(1.0, abs=1e-14)


def test_f_real_cross_term():
    jet = evaluate_jet(real_quad(1.0, 1.0, cross=0.5), [0.2, 0.2], order=2)
    assert eval_F_real(jet) == pytest.approx(0.0, abs=1e-14)


def test_f_real_wrong_sign_raises():
    spec = ExpressionSpec(
        expr={"kind": "quad", "matrix": [[1.0, 0.0], [0.0, 1.0]], "linear": [0.0, 0.0], "constant": 0.0},
        k=1,
        l=1,
    )
    with pytest.raises(NotPositiveDefinite):
        eval_F_real(evaluate_jet(spec, [0.0, 0.0], order=2))


@pytest.mark.parametrize("flavor", ["real", "complex"])
@pytest.mark.parametrize("k, l", [(0, 1), (0, 2), (1, 0)])
def test_empty_block_has_zero_logdet(flavor, k, l):
    es = EnsembleSpec(k=k, l=l, flavor=flavor, eps=0.1, seed=3)
    (spec,) = sample_ensemble(es, 1)
    jet = evaluate_jet(spec, sample_points(es, 0, 1)[0], order=2)
    ov = operator_value(wirtinger_from_real(jet) if flavor == "complex" else jet)
    assert (ov.logdet_convex if k == 0 else ov.logdet_concave) == 0.0
    assert ov.f_value == ov.logdet_convex - ov.logdet_concave


# --------------------------------------------------------------- F, complex
def test_f_complex_balanced():
    assert eval_F_complex(ctable(complex_quad(1.5, 1.5))) == pytest.approx(0.0, abs=1e-14)


def test_f_complex_coupling_enters_only_mixed_blocks():
    assert eval_F_complex(ctable(complex_quad(eps=0.4))) == pytest.approx(0.0, abs=1e-14)


def test_f_complex_log_two():
    assert eval_F_complex(ctable(complex_quad(a=2.0))) == pytest.approx(math.log(2.0), abs=1e-14)


def test_f_complex_wrong_sign_raises():
    spec = ExpressionSpec(
        expr={"kind": "quad", "matrix": (2 * np.eye(4)).tolist(), "linear": [0.0] * 4, "constant": 0.0},
        k=1,
        l=1,
        flavor="complex",
    )
    with pytest.raises(NotPositiveDefinite):
        eval_F_complex(ctable(spec))


# ----------------------------------------------------------------------- H
def test_h_exact_flow_solution():
    a, b = 2.0, 0.5
    jet = evaluate_jet(real_quad(a, b, drift=math.log(a / b)), [0.1, 0.4], time=3.7, order=2)
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


def test_operator_value_packaging():
    ov = operator_value(evaluate_jet(real_quad(math.e, 1.0), [0.0, 0.0], order=2))
    assert isinstance(ov, OperatorValue)
    assert ov.h_residual is None
    assert ov.f_value == ov.logdet_convex - ov.logdet_concave
    ov2 = operator_value(evaluate_jet(real_quad(1.0, 1.0, drift=2.0), [0.0, 0.0], order=2))
    assert ov2.h_residual == pytest.approx(2.0, abs=1e-15)


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


def test_complex_w_hermitian_psd_on_ensemble():
    es = EnsembleSpec(k=1, l=1, flavor="complex", eps=0.15, n_atoms=3, seed=13)
    for idx, spec in enumerate(sample_ensemble(es, 6)):
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
    with pytest.raises(ValueError):
        complex_W(table)


# ---------------------------------------------------------------- L applied
def test_l_apply_basic_and_signs():
    u = ctable(complex_quad())
    phi_z = ctable(complex_quad(a=1.0, b=0.0))  # |z|^2
    phi_w = ctable(complex_quad(a=0.0, b=-1.0))  # |w|^2
    assert complex_L_apply(u, phi_z) == pytest.approx(1.0, abs=1e-14)
    assert complex_L_apply(u, phi_w) == pytest.approx(1.0, abs=1e-14)


def test_l_apply_linearity():
    es = EnsembleSpec(k=1, l=1, flavor="complex", eps=0.1, n_atoms=2, seed=5)
    (u_spec,) = sample_ensemble(es, 1)
    point = sample_points(es, 0, 1)[0]
    u = wirtinger_from_real(evaluate_jet(u_spec, point, order=2))
    phi = complex_quad(a=0.7, b=0.2, eps=0.05)
    psi = complex_quad(a=0.3, b=-0.4, eps=0.0)
    combo = ExpressionSpec(
        expr={
            "kind": "sum",
            "terms": [
                {"kind": "scale", "coefficient": 2.0, "term": phi.expr},
                {"kind": "scale", "coefficient": -3.0, "term": psi.expr},
            ],
        },
        k=1,
        l=1,
        flavor="complex",
    )
    lhs = complex_L_apply(u, wirtinger_from_real(evaluate_jet(combo, point, order=2)))
    rhs = 2.0 * complex_L_apply(u, wirtinger_from_real(evaluate_jet(phi, point, order=2)))
    rhs -= 3.0 * complex_L_apply(u, wirtinger_from_real(evaluate_jet(psi, point, order=2)))
    assert lhs == pytest.approx(rhs, abs=1e-12)


# --------------------------------------------------- flow reformulation
def test_logdet_w_equivalence_coupled():
    eps = 0.3
    table = ctable(complex_quad(eps=eps, drift=0.25))
    # det W = (1 + eps^2/4) - eps^2/4 = 1, so log det W = 0 = F
    assert logdetW_equivalence_residual(table) < 1e-15


def test_logdet_w_equivalence_ensemble():
    es = EnsembleSpec(k=2, l=1, flavor="complex", eps=0.1, n_atoms=3, seed=29)
    for idx, spec in enumerate(sample_ensemble(es, 5)):
        for p in sample_points(es, idx, 3):
            table = wirtinger_from_real(evaluate_jet(spec, p, order=2))
            assert logdetW_equivalence_residual(table) <= 1e-10


def test_f_real_equals_logdet_of_transformed_hessian():
    es = EnsembleSpec(k=1, l=1, a=1.0, b=1.0, eps=0.2, n_atoms=3, seed=17)
    for idx, spec in enumerate(sample_ensemble(es, 5)):
        for p in sample_points(es, idx, 3):
            jet = evaluate_jet(spec, p, order=2)
            z = jet.gradient()[spec.k :]
            res = partial_legendre(spec, p[: spec.k], z)
            sign, logdet = np.linalg.slogdet(res.W)
            assert sign == 1.0
            assert eval_F_real(jet) == pytest.approx(logdet, abs=1e-10)
