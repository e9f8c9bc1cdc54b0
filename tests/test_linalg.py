import math

import numpy as np
import pytest

from tma.errors import IllConditioned, NotPositiveDefinite, TmaError
from tma.linalg import (
    as_hermitian,
    inverse_and_logdet,
    min_max_eigenvalues,
)


def test_min_max_identity():
    assert min_max_eigenvalues(np.eye(2)) == (1.0, 1.0)


def test_min_max_hand_characteristic_polynomial():
    # [[1,2],[2,1]]: lambda^2 - 2 lambda - 3 = 0 -> (-1, 3)
    lo, hi = min_max_eigenvalues(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert lo == pytest.approx(-1.0, abs=1e-12)
    assert hi == pytest.approx(3.0, abs=1e-12)


def test_min_max_zero():
    assert min_max_eigenvalues(np.zeros((3, 3))) == (0.0, 0.0)


def test_inverse_and_logdet_diag():
    inv, ld = inverse_and_logdet(np.diag([2.0, 3.0]))
    assert np.allclose(inv, np.diag([0.5, 1.0 / 3.0]), atol=1e-15)
    assert ld == pytest.approx(math.log(6.0), rel=1e-14)


def test_guard_boundary():
    with pytest.raises(IllConditioned):
        inverse_and_logdet(np.diag([1.0, 1e-13]))


def test_not_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        inverse_and_logdet(np.diag([1.0, -1.0]))


def test_min_max_on_a_stack():
    lo, hi = min_max_eigenvalues(np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])]))
    assert lo == pytest.approx([1.0, -1.0], abs=1e-12)
    assert hi == pytest.approx([1.0, 3.0], abs=1e-12)


def test_one_bad_matrix_fails_the_whole_stack():
    good = np.eye(2)
    with pytest.raises(NotPositiveDefinite, match=r"lambda_min = -3\.000e\+00"):
        inverse_and_logdet(np.stack([good, np.diag([1.0, -1.0]), np.diag([1.0, -3.0]), good]))
    with pytest.raises(IllConditioned, match=r"1\.000e-13"):
        inverse_and_logdet(np.stack([good, good, np.diag([1.0, 1e-13])]))


def test_inverse_closed_form_2x2():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    inv, ld = inverse_and_logdet(a)
    assert ld == pytest.approx(math.log(3.0), rel=1e-14)
    assert np.allclose(inv, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0, atol=1e-14)
    n = a.shape[0]
    assert np.max(np.abs(a @ inv - np.eye(n))) <= 1e-12 * n


def test_as_hermitian_rejects_skew():
    with pytest.raises(TmaError):
        as_hermitian(np.array([[1.0, 1.0], [0.0, 1.0]]))
    h = as_hermitian(np.array([[1.0, 2.0 + 1e-14], [2.0, 1.0]]))
    assert np.allclose(h, h.T)


def test_as_hermitian_on_a_stack_checks_each_matrix_on_its_own_scale():
    good = np.array([[2.0, 1.0 + 1e-14], [1.0, 3.0]])
    big = 1e6 * np.array([[1.0, 1.0 + 1e-12], [1.0, 1.0]])  # skew 1e-6, within 1e-10 of its scale
    stack = np.stack([good, big])
    out = as_hermitian(stack)
    assert np.array_equal(out[0], as_hermitian(good)) and np.array_equal(out[1], as_hermitian(big))
    skewed = np.array([[1.0, 1e-6], [0.0, 1.0]])  # 1e-6 against a scale of 1 fails
    with pytest.raises(TmaError, match="not Hermitian"):
        as_hermitian(np.stack([big, skewed]))
