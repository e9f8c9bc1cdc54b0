"""Small dense symmetric/Hermitian matrix kernel.

Everything here works on matrices of dimension <= 8 (typically k + l <= 4),
so direct dense factorizations are used throughout: exactness and determinism
beat scalability at this size.  The inverse and log-determinant of a
positive-definite matrix come from one Hermitian eigendecomposition
(``numpy.linalg.eigh``), whose eigenvalues also feed the definiteness and
conditioning guards; other eigenvalue bounds come from ``numpy.linalg.eigvalsh``.
"""

from __future__ import annotations

import numpy as np

from .errors import IllConditioned, NotPositiveDefinite

DEFAULT_COND_GUARD = 1e-10


def as_hermitian(a, tol: float = 1e-10):
    """Validate near-Hermitian input and return the exactly Hermitian average.

    Raises
    ------
    ValueError
        if the anti-Hermitian part exceeds ``tol * max(1, |A|_inf)``.
    """
    a = np.asarray(a)
    skew = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if skew > tol * max(1.0, float(np.max(np.abs(a))) if a.size else 1.0):
        raise ValueError(f"matrix is not Hermitian: anti-Hermitian part {skew:.3e}")
    return (a + a.conj().T) / 2.0


def min_max_eigenvalues(a) -> tuple[float, float]:
    """Extremal eigenvalues of a Hermitian/symmetric matrix."""
    vals = np.linalg.eigvalsh(np.asarray(a))
    return float(vals[0]), float(vals[-1])


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


def inverse_and_logdet(a, cond_guard: float = DEFAULT_COND_GUARD):
    """Inverse and log-determinant of a positive-definite matrix.

    One eigendecomposition ``A = Q diag(lambda) Q^H`` serves everything: the
    guards read the extremal eigenvalues, the log-determinant is
    ``sum(log lambda)`` and the inverse is ``Q diag(1/lambda) Q^H``.

    Raises
    ------
    NotPositiveDefinite
        if the smallest eigenvalue is <= 0.
    IllConditioned
        if lambda_min / lambda_max < cond_guard.
    """
    vals, vecs = np.linalg.eigh(np.asarray(a))
    lo, hi = float(vals[0]), float(vals[-1])
    if lo <= 0.0:
        raise NotPositiveDefinite(f"lambda_min = {lo:.3e} <= 0")
    if lo / hi < cond_guard:
        raise IllConditioned(f"lambda_min/lambda_max = {lo / hi:.3e} below guard {cond_guard:.1e}")
    logdet = float(np.sum(np.log(vals)))
    inv = (vecs / vals) @ vecs.conj().T
    inv = (inv + inv.conj().T) / 2.0
    return inv, logdet


def logdet_pd(a, cond_guard: float = DEFAULT_COND_GUARD) -> float:
    """Log-determinant only; same guards as :func:`inverse_and_logdet`."""
    return inverse_and_logdet(a, cond_guard)[1]


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
