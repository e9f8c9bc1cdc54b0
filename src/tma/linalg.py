"""Small dense symmetric/Hermitian matrix kernel, and the one owner of the matrix rules.

Everything here works on matrices of dimension <= 8 (typically k + l <= 4),
so direct dense factorizations are used throughout: exactness and determinism
beat scalability at this size.  The inverse and log-determinant of a
positive-definite matrix come from one Hermitian eigendecomposition
(``numpy.linalg.eigh``), whose eigenvalues also feed the definiteness and
conditioning guards; other eigenvalue bounds come from ``numpy.linalg.eigvalsh``.

Every public function takes one ``(n, n)`` matrix or a stack ``(..., n, n)``
and raises :class:`DimensionMismatch` for anything else; LAPACK factors every
matrix of a stack separately, so each answer is bit-identical to the one for
that matrix alone.  :func:`as_hermitian` is the package's one Hermitian test
and symmetrizing average.  An empty block (``n = 0``, as when ``k = 0`` or
``l = 0``) is Hermitian, with the empty inverse, log-determinant 0 and
eigenvalue bounds ``(inf, -inf)``, so no caller needs a branch for it.

:func:`transformed_hessian` is the one assembly of the partial-Legendre
transformed Hessian ``W``, for real Hessians and complex Wirtinger Hessians
alike: written with conjugate transposes, which do nothing on real arrays.
"""

from __future__ import annotations

from operator import truediv

import numpy as np

from .errors import DimensionMismatch, IllConditioned, NotPositiveDefinite, TmaError

DEFAULT_COND_GUARD = 1e-10


def _square(a) -> np.ndarray:
    """``a`` as an array, once it is a matrix or a stack of them: two or more axes, the last two equal."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def _adjoint(a):
    """Conjugate transpose of the last two axes (a transpose on real arrays)."""
    return a.conj().swapaxes(-1, -2)


def as_hermitian(a):
    """Validate near-Hermitian input and return the exactly Hermitian average.

    ``a`` is one ``(n, n)`` matrix or a stack ``(..., n, n)``; each matrix is
    checked against its own scale.

    Raises
    ------
    TmaError
        if some matrix's anti-Hermitian part exceeds ``1e-10 * max(1, |A|_inf)``
        (the message quotes the largest such part).
    """
    a = _square(a)
    adj = _adjoint(a)
    if a.size:
        skew = np.max(np.abs(a - adj), axis=(-2, -1))
        bad = skew > 1e-10 * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
        if np.any(bad):
            raise TmaError(f"matrix is not Hermitian: anti-Hermitian part {np.max(skew * bad):.3e}")
    return (a + adj) / 2.0


def min_max_eigenvalues(a):
    """Extremal eigenvalues of a Hermitian/symmetric matrix.

    Floats for one ``(n, n)`` matrix; for a stack ``(..., n, n)``, two arrays
    of the stack shape.  An empty block bounds nothing: ``(inf, -inf)``.
    """
    a = _square(a)
    if a.shape[-1] == 0:
        lo, hi = np.full(a.shape[:-2], np.inf), np.full(a.shape[:-2], -np.inf)
    else:
        vals = np.linalg.eigvalsh(a)
        lo, hi = vals[..., 0], vals[..., -1]
    return (float(lo), float(hi)) if a.ndim == 2 else (lo, hi)


def inverse_and_logdet(a):
    """Inverse and log-determinant of a positive-definite matrix.

    One eigendecomposition ``A = Q diag(lambda) Q^H`` serves everything: the
    guards read the extremal eigenvalues, the log-determinant is
    ``sum(log lambda)`` and the inverse is ``Q diag(1/lambda) Q^H``.

    ``a`` is one ``(n, n)`` matrix, giving an ``(n, n)`` inverse and a float,
    or a stack ``(..., n, n)``, giving inverses of the same shape and an array
    of log-determinants; every matrix of a stack passes the same guards.  An
    empty block (``n = 0``, a slot of dimension zero) has the empty inverse
    and log-determinant 0.

    Raises
    ------
    NotPositiveDefinite
        if the smallest eigenvalue is <= 0 (the message quotes the lowest
        one in the stack).
    IllConditioned
        if lambda_min / lambda_max < DEFAULT_COND_GUARD (the message quotes the
        lowest ratio in the stack).
    """
    a = _square(a)
    if a.shape[-1] == 0:
        logdet = 0.0 if a.ndim == 2 else np.zeros(a.shape[:-2])
        return np.zeros(a.shape, np.result_type(a, float)), logdet
    vals, vecs = np.linalg.eigh(a)
    # guards on Python floats: numpy reductions on a few values would cost a
    # single small matrix a third of its eigh again
    lo = vals[..., 0].ravel().tolist()
    hi = vals[..., -1].ravel().tolist()
    bad = [x for x in lo if x <= 0.0]
    if bad:
        raise NotPositiveDefinite(f"lambda_min = {min(bad):.3e} <= 0")
    bad = [r for r in map(truediv, lo, hi) if r < DEFAULT_COND_GUARD]
    if bad:
        raise IllConditioned(f"lambda_min/lambda_max = {min(bad):.3e} below guard {DEFAULT_COND_GUARD:.1e}")
    logdet = np.log(vals).sum(axis=-1)
    inv = (vecs / vals[..., None, :]) @ _adjoint(vecs)
    inv = (inv + _adjoint(inv)) / 2.0
    return inv, (float(logdet) if vals.ndim == 1 else logdet)


def transformed_hessian(h, k: int):
    """Transformed Hessian ``W`` of a Hessian stack ``(..., n, n)``, and ``C^{-1}``.

    With the blocks ``A = h[:k, :k]``, ``B = h[:k, k:]`` and ``C = h[k:, k:]``
    (``k`` the size of the convex block),

        W = [[A - B C^{-1} B*,  B C^{-1}],
             [C^{-1} B*,        -C^{-1} ]],

    averaged with its adjoint, so ``det W = det A / det(-C)``; ``*`` is the
    transpose on a real Hessian and the conjugate transpose on a Wirtinger
    one.  ``W`` has the shape of ``h``; ``C^{-1}`` is ``(..., n - k, n - k)``.
    Either block may be empty (``k = 0`` or ``k = n``).  Raises as
    :func:`inverse_and_logdet` does on ``-C``.
    """
    h = _square(h)
    b, c = h[..., :k, k:], h[..., k:, k:]
    neg_cinv, _ = inverse_and_logdet(-c)
    cinv = -neg_cinv
    b_cinv = b @ cinv
    w = np.concatenate(
        [
            np.concatenate([h[..., :k, :k] - b_cinv @ _adjoint(b), b_cinv], axis=-1),
            np.concatenate([_adjoint(b_cinv), neg_cinv], axis=-1),
        ],
        axis=-2,
    )
    return (w + _adjoint(w)) / 2.0, cinv

