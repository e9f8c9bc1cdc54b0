"""Closed-form derivatives of the univariate atoms of the spec language.

:func:`atom_derivatives` lists ``f(c), f'(c), ..., f^(order)(c)`` of a
univariate atom in closed form, for one argument or an array of them.  Every
atom of the spec language takes an affine argument ``a.x + c``, so the jet
engine in :mod:`tma.jets` reads each partial ``d^beta f(a.x + c) =
f^(|beta|)(a.x + c) a^beta`` straight off this list; no polynomial
composition is needed.  Route A of :mod:`tma.evolution` runs its degree-2
forward mode on jet arrays of that same engine.

Nested finite differences are deliberately not used anywhere: the downstream
sign checks need ~1e-10 accuracy on fourth derivatives, which FD noise would
swamp.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainViolation, UnknownAtom

ATOM_NAMES = ("sin", "cos", "exp", "log", "cosh", "sinh", "pow")


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
