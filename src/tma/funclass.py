"""Convexity-class membership and reproducible random ensembles.

A function belongs to the class with bounds ``(lam, Lam)`` when, at every
sampled point, the convex-block Hessian (real: u_xx; complex: the z-block of
Wirtinger second derivatives) has eigenvalues in ``[lam, Lam]`` and so does the
negated concave block.  Membership is certified on a finite sample cloud — the
cloud density is a config knob, continuous verification being impossible.

Ensembles are convex-concave quadratic bases plus bounded-Hessian trig atoms,
scaled so membership is guaranteed by construction: universal sign and
identity claims become sweep-testable without rejection sampling.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
# numpy loads its random module on first use; loading it with the package
# means sweep pool workers inherit it instead of each importing it again
import numpy.random

from .errors import AmplitudeTooLarge, DimensionMismatch, ParseError, TmaError
from .jets import FLAVORS, ExpressionSpec, SpecBlock, evaluate_hessians, wirtinger_hessians
from .linalg import min_max_eigenvalues


def _primes(count: int) -> List[int]:
    """The first ``count`` primes, by trial division."""
    primes: List[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _radical_inverse(n: int, base: int) -> np.ndarray:
    """Van der Corput points ``0, 1, ..., n-1`` in ``base``, each in ``[0, 1)``.

    Digits are added least significant first, each times a weight divided
    by ``base`` once per digit, so the rounding is that of the unscrambled
    ``scipy.stats.qmc.van_der_corput``.
    """
    index = np.arange(n)
    out = np.zeros(n)
    weight = 1.0 / base
    while index.any():
        index, digit = np.divmod(index, base)
        out += digit * weight
        weight /= base
    return out


def default_cloud(dim: int, halfwidth: float = 1.0, grid_per_axis: int | None = None, n_quasi: int = 500):
    """Tensor grid plus Halton points filling the box ``[-halfwidth, halfwidth]^dim``.

    The default grid is 11 points per axis for dim <= 4 (the spec-scale
    cases); higher dimensions drop to 5 and then 3 per axis to stay at desk
    scale.  The ``n_quasi`` Halton points (Halton 1960) are the radical
    inverses of ``0, ..., n_quasi - 1`` in the first ``dim`` prime bases,
    unscrambled, so clouds are deterministic; they are bit-identical to
    ``scipy.stats.qmc.Halton(dim, scramble=False).random(n_quasi)``.
    """
    if dim < 1:
        raise DimensionMismatch(f"a sample cloud needs dim >= 1, got {dim}")
    if grid_per_axis is None:
        grid_per_axis = 11 if dim <= 4 else (5 if dim <= 6 else 3)
    axis = np.linspace(-halfwidth, halfwidth, grid_per_axis)
    grid = np.array(list(itertools.product(axis, repeat=dim)))
    halton = np.stack([_radical_inverse(n_quasi, base) for base in _primes(dim)], axis=-1)
    quasi = (2.0 * halton - 1.0) * halfwidth
    return np.vstack([grid, quasi])


@dataclass
class ClassReport:
    """Outcome of a membership check over a sample cloud."""

    member: bool
    lam: float
    Lam: float
    bounds: np.ndarray  # (n_points, 4): min/max of convex block, min/max of negated concave block
    first_violation: Optional[Tuple[float, ...]]


def _block_bounds(blocks: np.ndarray):
    """Extremal eigenvalues of each matrix in a stack; ``(inf, -inf)`` where the block is empty."""
    if blocks.shape[-1] == 0:
        return np.inf, -np.inf
    return min_max_eigenvalues(blocks)


def class_membership(spec: ExpressionSpec, cloud, lam: float, Lam: float) -> ClassReport:
    """Check both Hessian-block eigenvalue bounds at every cloud point.

    Deterministic given the cloud.  ``member`` is true iff every sampled bound
    lies in ``[lam - 1e-9, Lam + 1e-9]``; ``first_violation`` is the first
    failing point in cloud order.  The blocks of the whole cloud come from one
    jet-engine call (real: :func:`evaluate_hessians`; complex:
    :func:`wirtinger_hessians`) and one stacked eigenvalue call per block.
    """
    if not (0.0 < lam <= Lam):
        raise TmaError(f"need 0 < lam <= Lam, got ({lam}, {Lam})")
    cloud = np.atleast_2d(np.asarray(cloud, dtype=float))
    if cloud.shape[0] == 0:
        raise DimensionMismatch("empty sample cloud")
    h = evaluate_hessians(spec, cloud) if spec.flavor == "real" else wirtinger_hessians(spec, cloud)
    k = spec.k
    bounds = np.empty((cloud.shape[0], 4))
    bounds[:, 0], bounds[:, 1] = _block_bounds(h[:, :k, :k])
    bounds[:, 2], bounds[:, 3] = _block_bounds(-h[:, k:, k:])
    lows, highs = bounds[:, 0::2], bounds[:, 1::2]
    ok = np.all(~np.isfinite(lows) | ((lows >= lam - 1e-9) & (highs <= Lam + 1e-9)), axis=1)
    member = bool(ok.all())
    first_violation = None if member else tuple(cloud[np.argmin(ok)])
    return ClassReport(member=member, lam=lam, Lam=Lam, bounds=bounds, first_violation=first_violation)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleSpec:
    """Generative family of guaranteed class members.

    Base quadratic ``a|x|^2/2 - b|y|^2/2`` (real flavor) or ``a|z|^2 - b|w|^2``
    (complex flavor) plus ``n_atoms >= 0`` trig atoms whose Hessian sup-norms
    sum to ``eps >= 0``, over integers ``k >= 0`` convex and ``l >= 0`` concave
    variables with ``k + l >= 1``; the ``flavor`` is ``"real"`` or
    ``"complex"``, ``a``, ``b`` and ``domain_halfwidth`` are positive and
    finite and the ``seed`` a nonnegative integer (else :class:`ParseError`
    for any of them).  Every draw passes membership with
    ``lam = min(a,b)/2`` and ``Lam = 2 max(a,b)``, which needs
    ``eps <= min(a,b)/2`` (else :class:`AmplitudeTooLarge`).
    """

    k: int
    l: int
    flavor: str = "real"
    a: float = 1.0
    b: float = 1.0
    eps: float = 0.1
    n_atoms: int = 3
    seed: int = 0
    domain_halfwidth: float = 1.0

    def __post_init__(self):
        integral = all(isinstance(d, (int, np.integer)) for d in (self.k, self.l))
        if not integral or self.k < 0 or self.l < 0 or self.k + self.l == 0:
            raise ParseError(
                f"at dims: need integers k >= 0, l >= 0, k + l >= 1; got ({self.k!r}, {self.l!r})"
            )
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ParseError("ensemble.seed: expected an unsigned integer")
        if self.flavor not in FLAVORS:
            raise ParseError(f"ensemble.flavor: expected real|complex, got {self.flavor!r}")
        for name in ("a", "b", "domain_halfwidth"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
                raise ParseError(f"ensemble.{name}: expected a positive finite number, got {value!r}")
        if not isinstance(self.n_atoms, (int, np.integer)) or self.n_atoms < 0:
            raise ParseError(f"ensemble.n_atoms: expected an unsigned integer, got {self.n_atoms!r}")
        if not (isinstance(self.eps, numbers.Real) and self.eps >= 0):
            raise ParseError(f"ensemble.eps: expected a nonnegative number, got {self.eps!r}")
        if self.eps > min(self.a, self.b) / 2.0 + 1e-15:
            raise AmplitudeTooLarge(
                f"perturbation bound eps = {self.eps} exceeds min(a,b)/2 = {min(self.a, self.b) / 2.0}"
            )

    @property
    def nvars(self) -> int:
        return self.k + self.l if self.flavor == "real" else 2 * (self.k + self.l)

    def guaranteed_bounds(self) -> Tuple[float, float]:
        return min(self.a, self.b) / 2.0, 2.0 * max(self.a, self.b)


def _base_quadratic_hessian(es: EnsembleSpec) -> np.ndarray:
    k, l = es.k, es.l
    if es.flavor == "real":
        return np.diag([es.a] * k + [-es.b] * l)
    m = k + l
    diag = np.empty(2 * m)
    diag[:k] = 2.0 * es.a
    diag[k:m] = -2.0 * es.b
    diag[m : m + k] = 2.0 * es.a
    diag[m + k :] = -2.0 * es.b
    return np.diag(diag)


def _draw_rng(es: EnsembleSpec, index: int, *stream: int) -> np.random.Generator:
    """The generator of draw ``index`` (and sub-stream ``stream``): a pure function of the seed and key."""
    if index < 0:
        raise TmaError(f"draw index must be >= 0, got {index}")
    return np.random.default_rng(np.random.SeedSequence(entropy=es.seed, spawn_key=(index, *stream)))


def _atom_draws(es: EnsembleSpec, index: int) -> List[Tuple[np.ndarray, str, float, float]]:
    """``(affine, fn, phase, coefficient)`` of each trig atom of draw ``index``, from the draw's generator.

    The one sequence of generator calls behind a member's atoms, made by
    :func:`draw_member` and :func:`draw_block` alike.
    """
    n = es.nvars
    rng = _draw_rng(es, index)
    per_atom = es.eps / max(es.n_atoms, 1)
    atoms = []
    for _ in range(es.n_atoms):
        v = rng.uniform(-1.0, 1.0, n)
        while (norm2 := float(v @ v)) < 0.09:
            v = rng.uniform(-1.0, 1.0, n)
        fn = "sin" if rng.integers(2) == 0 else "cos"
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        # atom Hessian sup-norm = coefficient * |v|^2 = eps / n_atoms
        atoms.append((v, fn, phase, per_atom / norm2))
    return atoms


def _base_quadratic(es: EnsembleSpec) -> dict:
    n = es.nvars
    return {"kind": "quad", "matrix": _base_quadratic_hessian(es).tolist(), "linear": [0.0] * n, "constant": 0.0}


def draw_member(es: EnsembleSpec, index: int) -> ExpressionSpec:
    """The ``index``-th ensemble member: pure function of (seed, index).

    Splittable per draw so parallel and serial sweeps agree.  The tree is
    built here from the validated ``es``, so it is not walked again: only a
    caller's tree is validated (:class:`ExpressionSpec`).
    """
    terms = [_base_quadratic(es)]
    for v, fn, phase, coeff in _atom_draws(es, index):
        terms.append(
            {
                "kind": "scale",
                "coefficient": coeff,
                "term": {"kind": "atom", "fn": fn, "affine": v.tolist(), "const": phase},
            }
        )
    return ExpressionSpec._trusted({"kind": "sum", "terms": terms}, es.k, es.l, es.flavor)


def sample_points(es: EnsembleSpec, index: int, n_points: int) -> np.ndarray:
    """Deterministic per-draw evaluation points inside the declared box."""
    if n_points < 0:
        raise DimensionMismatch(f"need n_points >= 0, got {n_points}")
    rng = _draw_rng(es, index, 1)
    return rng.uniform(-es.domain_halfwidth, es.domain_halfwidth, (n_points, es.nvars))


def draw_block(es: EnsembleSpec, first: int, count: int, n_points: int) -> SpecBlock:
    """Draws ``first .. first + count - 1`` of ``es``, each at ``n_points`` points, as one stacked block.

    Each draw makes the generator calls of :func:`draw_member` and
    :func:`sample_points` on its own two generators, in their order, and its
    numbers go straight into the stacked leaves: no tree per draw is built.
    The block equals ``SpecBlock.of`` of those members at those points bit
    for bit, so each draw stays a pure function of (seed, index).
    """
    if count < 1:
        raise DimensionMismatch(f"a block of draws needs count >= 1, got {count}")
    if n_points < 0:
        raise DimensionMismatch(f"need n_points >= 0, got {n_points}")
    n, hw = es.nvars, es.domain_halfwidth
    affine = np.empty((es.n_atoms, count, n))
    const = np.empty((es.n_atoms, count))
    coeff = np.empty((es.n_atoms, count))
    fns = [[""] * count for _ in range(es.n_atoms)]
    points = np.empty((count, n_points, n))
    for r, index in enumerate(range(first, first + count)):
        for j, (v, fn, phase, c) in enumerate(_atom_draws(es, index)):
            affine[j, r], fns[j][r], const[j, r], coeff[j, r] = v, fn, phase, c
        points[r] = _draw_rng(es, index, 1).uniform(-hw, hw, (n_points, n))
    exponent = (None,) * count
    terms = [_base_quadratic(es)] + [
        {
            "kind": "scale",
            "coefficient": coeff[j],
            "term": {"kind": "atom", "fn": tuple(fns[j]), "affine": affine[j], "const": const[j], "exponent": exponent},
        }
        for j in range(es.n_atoms)
    ]
    # like draw_member's specs, the members declare no box; their points lie in the ensemble's
    return SpecBlock({"kind": "sum", "terms": terms}, es.k, es.l, es.flavor, np.full(count, math.inf), points)
