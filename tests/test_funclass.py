import itertools

import numpy as np
import pytest
from scipy.stats import qmc

from tma.errors import AmplitudeTooLarge, ParseError
from tma.funclass import (
    ClassReport,
    EnsembleSpec,
    class_membership,
    default_cloud,
    draw_member,
    permute_negate,
    sample_ensemble,
)
from tma.jets import ExpressionSpec, evaluate_jet


def quad(matrix, k, l):
    n = len(matrix)
    return ExpressionSpec(
        expr={"kind": "quad", "matrix": matrix, "linear": [0.0] * n, "constant": 0.0},
        k=k,
        l=l,
    )


CLOUD2 = default_cloud(2, 1.0, grid_per_axis=5, n_quasi=50)


@pytest.mark.parametrize("dim", range(1, 9))
def test_default_cloud_matches_scipy_halton(dim):
    # scipy's unscrambled Halton sequence is the oracle, bit for bit
    axis = np.linspace(-0.8, 0.8, 3)
    grid = np.array(list(itertools.product(axis, repeat=dim)))
    for n in (0, 1, 50, 500, 2000):
        halton = qmc.Halton(d=dim, scramble=False).random(n)
        want = np.vstack([grid, (2.0 * halton - 1.0) * 0.8])
        got = default_cloud(dim, 0.8, grid_per_axis=3, n_quasi=n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), n


def test_saddle_quadratic_is_member():
    spec = quad([[1.0, 0.0], [0.0, -1.0]], 1, 1)
    report = class_membership(spec, CLOUD2, 1.0, 1.0)
    assert report.member
    assert report.first_violation is None


def test_convex_quadratic_is_not_member():
    spec = quad([[1.0, 0.0], [0.0, 1.0]], 1, 1)
    report = class_membership(spec, CLOUD2, 1.0, 1.0)
    assert not report.member
    assert report.first_violation is not None


def test_cross_term_does_not_enter_block_bounds():
    spec = quad([[1.0, 0.5], [0.5, -1.0]], 1, 1)
    report = class_membership(spec, CLOUD2, 0.9, 1.1)
    assert report.member


def test_membership_monotone_in_bounds():
    spec = quad([[1.0, 0.0], [0.0, -1.0]], 1, 1)
    assert class_membership(spec, CLOUD2, 1.0, 1.0).member
    assert class_membership(spec, CLOUD2, 0.5, 2.0).member
    assert class_membership(spec, CLOUD2, 0.25, 8.0).member


def test_ensemble_unperturbed_base():
    es = EnsembleSpec(k=1, l=1, a=2.0, b=3.0, eps=0.0, n_atoms=0, seed=1)
    (spec,) = sample_ensemble(es, 1)
    h = evaluate_jet(spec, [0.3, -0.4]).hessian()
    assert np.allclose(h, np.diag([2.0, -3.0]))


def test_seed_determinism_byte_identical():
    es = EnsembleSpec(k=1, l=1, eps=0.1, n_atoms=3, seed=42)
    first = [s.canonical_json() for s in sample_ensemble(es, 5)]
    second = [s.canonical_json() for s in sample_ensemble(es, 5)]
    assert first == second
    # per-draw splittability: drawing member 3 alone matches the batch
    assert draw_member(es, 3).canonical_json() == first[3]


def test_hundred_draws_all_members():
    es = EnsembleSpec(k=1, l=1, a=1.0, b=1.0, eps=0.1, n_atoms=3, seed=42)
    lam, Lam = es.guaranteed_bounds()
    assert (lam, Lam) == (0.5, 2.0)
    cloud = default_cloud(2, 1.0, grid_per_axis=7, n_quasi=100)
    specs = sample_ensemble(es, 100)
    assert all(class_membership(s, cloud, lam, Lam).member for s in specs)


def test_complex_ensemble_members():
    es = EnsembleSpec(k=1, l=1, flavor="complex", a=1.0, b=1.0, eps=0.1, n_atoms=3, seed=7)
    lam, Lam = es.guaranteed_bounds()
    cloud = default_cloud(4, 0.8, grid_per_axis=3, n_quasi=40)
    for spec in sample_ensemble(es, 10):
        assert spec.flavor == "complex"
        assert class_membership(spec, cloud, lam, Lam).member


def test_amplitude_too_large():
    # membership is guaranteed only for eps <= min(a, b)/2, so no spec past it is built
    with pytest.raises(AmplitudeTooLarge, match="eps = 0.6"):
        EnsembleSpec(k=1, l=1, a=1.0, b=1.0, eps=0.6, n_atoms=2, seed=0)
    with pytest.raises(AmplitudeTooLarge):
        EnsembleSpec(k=1, l=1, a=2.0, b=0.5, eps=0.3)
    assert EnsembleSpec(k=1, l=1, a=2.0, b=0.5, eps=0.25).eps == 0.25


def test_block_swap_symmetry():
    # -u(y, x) for k = l exchanges the block bounds exactly
    es = EnsembleSpec(k=1, l=1, a=1.0, b=2.0, eps=0.2, n_atoms=2, seed=3)
    (spec,) = sample_ensemble(es, 1)
    swapped = permute_negate(spec, [1, 0])
    assert (swapped.k, swapped.l) == (1, 1)
    for point in ([0.2, -0.3], [0.5, 0.1]):
        a, _, c = evaluate_jet(spec, point).hessian_blocks()
        pa, _, pc = evaluate_jet(swapped, point[::-1]).hessian_blocks()
        assert np.allclose(pa, -c, atol=1e-14)
        assert np.allclose(pc, -a, atol=1e-14)


def test_unknown_flavor_rejected_on_construction():
    with pytest.raises(ParseError) as info:
        EnsembleSpec(k=1, l=1, flavor="bogus")
    assert str(info.value) == "ensemble.flavor: expected real|complex, got 'bogus'"
    # with both bad, the seed is named first
    with pytest.raises(ParseError, match="ensemble.seed"):
        EnsembleSpec(k=1, l=1, flavor="bogus", seed=-1)


def test_report_type():
    spec = quad([[1.0, 0.0], [0.0, -1.0]], 1, 1)
    report = class_membership(spec, CLOUD2, 0.5, 2.0)
    assert isinstance(report, ClassReport)
    assert report.bounds.shape == (CLOUD2.shape[0], 4)
