"""Small dense symmetric/Hermitian matrix kernel.

Everything here works on matrices of dimension <= 8 (typically k + l <= 4),
so direct dense factorizations are used throughout: exactness and determinism
beat scalability at this size.  The inverse and log-determinant of a
positive-definite matrix come from one Hermitian eigendecomposition
(``numpy.linalg.eigh``), whose eigenvalues also feed the definiteness and
conditioning guards; other eigenvalue bounds come from ``numpy.linalg.eigvalsh``.

:func:`min_max_eigenvalues` and :func:`inverse_and_logdet` also take stacks
``(..., n, n)`` of matrices and answer for each one; LAPACK factors every
matrix of a stack separately, so each answer is bit-identical to the one for
that matrix alone.  :func:`as_hermitian` checks and averages each matrix of a
stack on its own too.
"""

from __future__ import annotations

from operator import truediv

import numpy as np

from .errors import IllConditioned, NotPositiveDefinite

DEFAULT_COND_GUARD = 1e-10


def as_hermitian(a, tol: float = 1e-10):
    """Validate near-Hermitian input and return the exactly Hermitian average.

    ``a`` is one ``(n, n)`` matrix or a stack ``(..., n, n)``; each matrix is
    checked against its own scale.

    Raises
    ------
    ValueError
        if some matrix's anti-Hermitian part exceeds ``tol * max(1, |A|_inf)``
        (the message quotes the largest such part).
    """
    a = np.asarray(a)
    adj = a.conj().swapaxes(-1, -2)
    if a.size:
        skew = np.max(np.abs(a - adj), axis=(-2, -1))
        bad = skew > tol * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
        if np.any(bad):
            raise ValueError(f"matrix is not Hermitian: anti-Hermitian part {np.max(skew * bad):.3e}")
    return (a + adj) / 2.0


def min_max_eigenvalues(a):
    """Extremal eigenvalues of a Hermitian/symmetric matrix.

    Floats for one ``(n, n)`` matrix; for a stack ``(..., n, n)``, two arrays
    of the stack shape.
    """
    vals = np.linalg.eigvalsh(np.asarray(a))
    if vals.ndim == 1:
        return float(vals[0]), float(vals[-1])
    return vals[..., 0], vals[..., -1]


def psd_tolerance(a) -> float:
    """Scale-relative PSD tolerance: 1e-8 * max(1, |A|_inf)."""
    a = np.asarray(a)
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    return 1e-8 * max(1.0, scale)


def certify_psd(a, tol: float | None = None) -> bool:
    """True iff lambda_min(A) >= -tol with the scale-relative default tolerance."""
    if tol is None:
        tol = psd_tolerance(a)
    lo, _ = min_max_eigenvalues(a)
    return lo >= -tol


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
    a = np.asarray(a)
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
    inv = (vecs / vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    inv = (inv + inv.conj().swapaxes(-1, -2)) / 2.0
    return inv, (float(logdet) if vals.ndim == 1 else logdet)


def logdet_pd(a) -> float:
    """Log-determinant only; same guards as :func:`inverse_and_logdet`."""
    return inverse_and_logdet(a)[1]


def block_det_via_schur(m, ksplit: int) -> float:
    """det of a 2x2-block matrix via det(D) * det(A - B D^-1 C).

    ``ksplit`` is the row/column count of the upper-left block A.  This is the
    block determinant route used to cross-check assembled W-matrices against
    their Hessian-block expression.
    """
    m = np.asarray(m)
    a = m[:ksplit, :ksplit]
    b = m[:ksplit, ksplit:]
    c = m[ksplit:, :ksplit]
    d = m[ksplit:, ksplit:]
    ddet = np.linalg.det(d)
    schur = a - b @ np.linalg.solve(d, c)
    out = ddet * np.linalg.det(schur)
    return complex(out).real if np.iscomplexobj(m) else float(out)
