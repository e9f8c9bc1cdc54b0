"""Batched evaluation equals evaluation one item at a time, bit for bit.

The Legendre sweeps and class membership evaluate every point of a draw or a
cloud in one call; these properties check each stacked result against the
same quantity computed for its item alone, over random draws, point counts
and block shapes, including the one-block shapes.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from tma.funclass import EnsembleSpec, class_membership, draw_member, sample_points
from tma.jets import evaluate_jet, wirtinger_from_real
from tma.legendre import det_transform_residual, real_W
from tma.linalg import inverse_and_logdet

SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (0, 1), (0, 2)]

shapes = st.sampled_from(SHAPES)
seeds = st.integers(0, 2**16)
draws = st.integers(0, 50)
counts = st.integers(1, 30)


def _member_and_points(shape, seed, draw, m, flavor="real"):
    es = EnsembleSpec(k=shape[0], l=shape[1], flavor=flavor, seed=seed)
    return draw_member(es, draw), sample_points(es, draw, m)


def _reference_w_and_residual(member, point):
    """W and the determinant-law residual assembled at one point, block by block."""
    a, b, c = evaluate_jet(member, point, order=2).hessian_blocks()
    neg_cinv, _ = inverse_and_logdet(-c)
    cinv = -neg_cinv
    b_cinv = b @ cinv
    w = np.block([[a - b_cinv @ b.T, b_cinv], [b_cinv.T, neg_cinv]])
    w = 0.5 * (w + w.T)
    residual = abs(float(np.linalg.det(w)) - float(np.linalg.det(a)) / float(np.linalg.det(-c)))
    return w, residual


@given(shapes, seeds, draws, counts)
def test_stacked_legendre_equals_per_point(shape, seed, draw, m):
    member, pts = _member_and_points(shape, seed, draw, m)
    n = sum(shape)
    w = real_W(member, pts)
    res = det_transform_residual(member, pts)
    assert w.shape == (m, n, n) and res.shape == (m,)
    for i, point in enumerate(pts):
        w_ref, res_ref = _reference_w_and_residual(member, point)
        one = det_transform_residual(member, point)
        assert isinstance(one, float)
        assert np.array_equal(w[i], w_ref) and np.array_equal(real_W(member, point), w_ref)
        assert res[i] == one == res_ref


@given(st.integers(1, 4), counts, seeds, st.booleans())
def test_stacked_inverse_and_logdet_equals_per_matrix(n, m, seed, is_complex):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(m, n, n))
    if is_complex:
        g = g + 1j * rng.normal(size=(m, n, n))
    stack = g @ np.swapaxes(g.conj(), -1, -2) + n * np.eye(n)
    inv, logdet = inverse_and_logdet(stack)
    assert inv.shape == (m, n, n) and logdet.shape == (m,)
    for i in range(m):
        inv_i, logdet_i = inverse_and_logdet(stack[i])
        assert isinstance(logdet_i, float)
        assert np.array_equal(inv[i], inv_i) and logdet[i] == logdet_i


def _reference_bounds(spec, cloud):
    """Per-point block eigenvalue bounds from one jet each, (inf, -inf) for an empty block."""
    out = []
    for point in cloud:
        jet = evaluate_jet(spec, point, order=2)
        if spec.flavor == "real":
            a, _, c = jet.hessian_blocks()
        else:
            a, _, c = wirtinger_from_real(jet).second_blocks()
        row = []
        for block in (a, -c):
            vals = np.linalg.eigvalsh(block) if block.size else np.array([np.inf, -np.inf])
            row += [vals[0], vals[-1]]
        out.append(row)
    return np.array(out)


@given(
    shapes,
    st.sampled_from(["real", "complex"]),
    seeds,
    draws,
    counts,
    st.sampled_from([(0.5, 2.0), (0.95, 1.05), (0.99, 1.0)]),
)
def test_class_membership_equals_per_point_reference(shape, flavor, seed, draw, m, bounds):
    spec, cloud = _member_and_points(shape, seed, draw, m, flavor)
    lam, Lam = bounds
    report = class_membership(spec, cloud, lam, Lam)
    ref = _reference_bounds(spec, cloud)
    assert np.array_equal(report.bounds, ref)
    lows, highs = ref[:, 0::2], ref[:, 1::2]
    ok = [
        all(not np.isfinite(lo) or (lo >= lam - 1e-9 and hi <= Lam + 1e-9) for lo, hi in zip(lr, hr))
        for lr, hr in zip(lows, highs)
    ]
    assert report.member == all(ok)
    expected = None if all(ok) else tuple(cloud[ok.index(False)])
    assert report.first_violation == expected
