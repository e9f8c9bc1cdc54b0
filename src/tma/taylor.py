"""Truncated Taylor polynomials and closed-form atom derivatives.

:func:`atom_derivatives` lists ``f(c), f'(c), ..., f^(order)(c)`` of a
univariate atom in closed form, for one argument or an array of them.  Every
atom of the spec language takes an affine argument ``a.x + c``, so the jet
engine in :mod:`tma.jets` reads each partial ``d^beta f(a.x + c) =
f^(|beta|)(a.x + c) a^beta`` straight off this list; no polynomial
composition is needed.

A :class:`TaylorPoly` stores the coefficients of a polynomial in ``nvars``
increment variables, truncated at total degree ``order``; the coefficient of
the monomial ``delta^beta`` is ``(d^beta f)(x0) / beta!``.  The route-A flow
engine in :mod:`tma.evolution` does its matrix-polynomial algebra with it.

Nested finite differences are deliberately not used anywhere: the downstream
sign checks need ~1e-10 accuracy on fourth derivatives, which FD noise would
swamp.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from .errors import DomainViolation, UnknownAtom

MultiIndex = Tuple[int, ...]

ATOM_NAMES = ("sin", "cos", "exp", "log", "cosh", "sinh", "pow")


def multi_factorial(beta: MultiIndex) -> float:
    """Product of factorials of a multi-index."""
    out = 1
    for b in beta:
        out *= math.factorial(b)
    return float(out)


class TaylorPoly:
    """Polynomial in ``nvars`` increments, truncated at total degree ``order``.

    Parameters
    ----------
    nvars : int
        Number of increment variables.
    order : int
        Total-degree truncation order (inclusive).
    coeffs : dict, optional
        Mapping exponent-tuple -> coefficient.  Shared, not copied; callers
        must not mutate it afterwards.
    """

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars: int, order: int, coeffs: Dict[MultiIndex, complex] | None = None):
        self.nvars = nvars
        self.order = order
        self.coeffs = {} if coeffs is None else coeffs

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, order: int, value) -> "TaylorPoly":
        if value == 0:
            return cls(nvars, order, {})
        return cls(nvars, order, {(0,) * nvars: value})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TaylorPoly):
            out = dict(self.coeffs)
            zero = (0,) * self.nvars
            out[zero] = out.get(zero, 0.0) + other
            return TaylorPoly(self.nvars, self.order, out)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0.0) + c
        return TaylorPoly(self.nvars, self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return TaylorPoly(self.nvars, self.order, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, TaylorPoly):
            return self + (-other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TaylorPoly):
            if other == 0:
                return TaylorPoly(self.nvars, self.order, {})
            return TaylorPoly(self.nvars, self.order, {e: c * other for e, c in self.coeffs.items()})
        order = self.order
        out: Dict[MultiIndex, complex] = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, c2 in other.coeffs.items():
                if d1 + sum(e2) > order:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return TaylorPoly(self.nvars, order, out)

    __rmul__ = __mul__

    # -- extraction ---------------------------------------------------------

    def value(self):
        return self.coeffs.get((0,) * self.nvars, 0.0)

    def deriv(self, beta: MultiIndex):
        """Exact partial derivative ``d^beta f (x0)`` = coefficient * beta!."""
        c = self.coeffs.get(tuple(beta), 0.0)
        return c * multi_factorial(beta) if c != 0 else 0.0 * c


def atom_derivatives(fn: str, c, order: int, exponent: float | None = None):
    """Closed-form derivative list ``[f(c), f'(c), ..., f^(order)(c)]`` of an atom.

    ``c`` is one argument or an array of them; every entry of the list has the
    shape of ``c``.

    Raises
    ------
    DomainViolation
        log at some c <= 0, or pow with an exponent that is not a nonnegative
        integer at some c <= 0; the message names the lowest argument.
    UnknownAtom
        unrecognized ``fn``.
    """
    c = np.asarray(c, dtype=float)
    if fn in ("sin", "cos"):
        f0 = np.sin(c) if fn == "sin" else np.cos(c)
        if order == 0:
            return [f0]
        f1 = np.cos(c) if fn == "sin" else -np.sin(c)
        cycle = (f0, f1, -f0, -f1)
        return [cycle[j % 4] for j in range(order + 1)]
    if fn == "exp":
        return [np.exp(c)] * (order + 1)
    if fn in ("cosh", "sinh"):
        f0 = np.cosh(c) if fn == "cosh" else np.sinh(c)
        if order == 0:
            return [f0]
        f1 = np.sinh(c) if fn == "cosh" else np.cosh(c)
        return [f0 if j % 2 == 0 else f1 for j in range(order + 1)]
    if fn == "log":
        low = _lowest(c)
        if low <= 0:
            raise DomainViolation(f"log atom evaluated at non-positive argument {low}")
        out = [np.log(c)]
        for j in range(1, order + 1):
            # d^j log = (-1)^(j-1) (j-1)! c^-j
            out.append((-1.0) ** (j - 1) * math.factorial(j - 1) * c ** (-j))
        return out
    if fn == "pow":
        if exponent is None:
            raise UnknownAtom("pow atom requires an 'exponent' field")
        p = exponent
        is_nonneg_int = float(p).is_integer() and p >= 0
        if not is_nonneg_int:
            low = _lowest(c)
            if low <= 0:
                raise DomainViolation(f"pow atom with non-integer exponent {p} at non-positive base {low}")
        out = []
        fac = 1.0
        for j in range(order + 1):
            if j > 0:
                fac *= p - (j - 1)
            if fac == 0.0:
                out.append(np.zeros_like(c))
            else:
                out.append(fac * c ** (p - j))
        return out
    raise UnknownAtom(f"unknown atom function {fn!r}; supported: {', '.join(ATOM_NAMES)}")


def _lowest(c: np.ndarray) -> float:
    return float(c.min()) if c.size else math.inf
