import math

import numpy as np
import pytest

from tma.errors import DomainViolation, UnknownAtom
from tma.jets import ExpressionSpec, evaluate_jet
from tma.taylor import atom_derivatives


def atom_spec(fn, const):
    return ExpressionSpec(expr={"kind": "atom", "fn": fn, "affine": [1.0], "const": const}, k=1, l=0)


def test_compose_exponential_all_derivatives_one():
    jet = evaluate_jet(atom_spec("exp", 0.0), [0.0], order=4)
    for j in range(5):
        assert jet.d((j,)) == pytest.approx(1.0, rel=1e-15)


def test_compose_shifted_log():
    # log(2 + d): derivatives 1/2, -1/4, 2/8, -6/16
    jet = evaluate_jet(atom_spec("log", 2.0), [0.0], order=4)
    assert jet.d((0,)) == pytest.approx(math.log(2.0))
    assert jet.d((1,)) == pytest.approx(0.5)
    assert jet.d((2,)) == pytest.approx(-0.25)
    assert jet.d((3,)) == pytest.approx(0.25)
    assert jet.d((4,)) == pytest.approx(-0.375)


def test_atom_derivative_domains():
    with pytest.raises(DomainViolation):
        atom_derivatives("log", -1.0, 4)
    with pytest.raises(DomainViolation):
        atom_derivatives("pow", -1.0, 4, exponent=0.5)
    with pytest.raises(UnknownAtom):
        atom_derivatives("tan", 0.0, 4)


def test_pow_integer_exponent_at_zero():
    d = atom_derivatives("pow", 0.0, 4, exponent=2.0)
    assert d == [0.0, 0.0, 2.0, 0.0, 0.0]


def test_trig_cycles():
    c = 0.7
    assert atom_derivatives("sin", c, 4) == pytest.approx(
        [math.sin(c), math.cos(c), -math.sin(c), -math.cos(c), math.sin(c)]
    )
    assert atom_derivatives("cosh", c, 3) == pytest.approx(
        [math.cosh(c), math.sinh(c), math.cosh(c), math.sinh(c)]
    )


@pytest.mark.parametrize(
    "fn, exponent",
    [("sin", None), ("cos", None), ("exp", None), ("log", None), ("cosh", None), ("sinh", None),
     ("pow", 2.5), ("pow", 2.0)],
)
def test_array_arguments_match_scalar_ones(fn, exponent):
    c = np.array([[0.3, 1.7], [2.5, 0.9]])
    arrays = atom_derivatives(fn, c, 4, exponent)
    for idx in np.ndindex(c.shape):
        assert [a[idx] for a in arrays] == pytest.approx(atom_derivatives(fn, c[idx], 4, exponent), rel=1e-15)


def test_array_domain_check_names_lowest_argument():
    with pytest.raises(DomainViolation, match="-0.5"):
        atom_derivatives("log", np.array([1.0, -0.5, -0.25]), 2)
    with pytest.raises(DomainViolation, match="-0.5"):
        atom_derivatives("pow", np.array([1.0, -0.5, -0.25]), 2, exponent=1.5)
