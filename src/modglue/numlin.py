"""Dense complex matrix primitives: operator norms, kernel bases, unitarity tests.

Every rank, kernel and subspace decision in the package funnels through the
SVD-based routines here, so a single threshold convention governs all of them:
a singular value sigma counts as zero iff sigma <= tol * sigma_max.  Callers
that must not round a near-threshold decision either way test its margin
against RANK_GAP_FACTOR.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

#: Default relative rank threshold (scale invariant).
DEFAULT_RANK_TOL = 1e-10

#: Half-width, as a factor, of the refusal band around a rank threshold: a
#: rank decision at relative threshold tol is ambiguous when some singular
#: value lies in (tol / RANK_GAP_FACTOR, tol * RANK_GAP_FACTOR) * sigma_max.
#: With the default tol the band is (1e-13, 1e-7) * sigma_max.
RANK_GAP_FACTOR = 1e3


def as_cmatrix(data, shape=None) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array; reject NaN/Inf and bad shapes."""
    M = np.asarray(data, dtype=np.complex128)
    if M.ndim != 2:
        raise InvalidInputError(f"expected a 2-D matrix, got ndim={M.ndim}")
    if M.size and not np.isfinite(M).all():
        raise InvalidInputError("matrix has non-finite entries")
    if shape is not None and M.shape != tuple(shape):
        raise InvalidInputError(f"expected shape {tuple(shape)}, got {M.shape}")
    return M


def singular_values(M) -> np.ndarray:
    M = as_cmatrix(M)
    if 0 in M.shape:
        return np.zeros(0)
    return np.linalg.svd(M, compute_uv=False)


def op_norm(M) -> float:
    """Largest singular value; 0 for empty matrices."""
    s = singular_values(M)
    return float(s[0]) if s.size else 0.0


def op_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix of a (..., rows, cols) stack.

    Entry by entry equal to op_norm, from one batched SVD; like as_cmatrix it
    rejects NaN/Inf, and empty matrices (and an empty stack) give 0.
    """
    S = np.asarray(stack, dtype=np.complex128)
    if S.ndim < 2:
        raise InvalidInputError(f"expected a stack of matrices, got ndim={S.ndim}")
    if S.size and not np.isfinite(S).all():
        raise InvalidInputError("matrix has non-finite entries")
    if S.size == 0:
        return np.zeros(S.shape[:-2])
    return np.linalg.svd(S, compute_uv=False)[..., 0]


def _rank_of(s: np.ndarray, tol: float) -> int:
    """Number of descending singular values s above tol * s[0]."""
    return int(np.sum(s > tol * s[0])) if s.size and s[0] > 0.0 else 0


def rank(M, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank: number of singular values above tol * sigma_max."""
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    return _rank_of(singular_values(M), tol)


def kernel_basis(M, tol: float = DEFAULT_RANK_TOL, return_singular_values: bool = False):
    """Orthonormal basis of ker M as columns of a (cols, dim ker) matrix.

    An empty matrix (0 rows) has full kernel: the identity on the column space.
    With return_singular_values, the result is (basis, s), where s holds the
    min(rows, cols) singular values of M, descending, from the same SVD.
    A tall M takes the economy SVD, whose V is already square, so the
    rows x rows U is never formed.
    """
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    M = as_cmatrix(M)
    rows, cols = M.shape
    if 0 in M.shape:
        K, s = np.eye(cols, dtype=np.complex128), np.zeros(0)
    else:
        _, s, vh = np.linalg.svd(M, full_matrices=rows < cols)
        K = vh[_rank_of(s, tol):].conj().T
    return (K, s) if return_singular_values else K


def rank_margin(s: np.ndarray, cols: int, tol: float):
    """How clearly the rank decision at tol was made.

    s are the descending singular values of a matrix with cols columns; a
    wide matrix also discards cols - len(s) exact zeros.  Returns the smallest
    kept and the largest discarded singular value, each divided by
    tol * sigma_max, with None where nothing is kept or nothing is discarded.
    A matrix with no nonzero singular value keeps nothing and discards exact
    zeros only, reported as 0.0.
    """
    if not s.size or s[0] == 0.0:
        return None, (0.0 if cols else None)
    r = _rank_of(s, tol)
    rel = s / (tol * s[0])
    kept = float(rel[r - 1]) if r else None
    if r < s.size:
        return kept, float(rel[r])
    return kept, (0.0 if cols > s.size else None)


def orth_basis(M, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of M, as columns."""
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    M = as_cmatrix(M)
    if 0 in M.shape:
        return np.zeros((M.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    return u[:, :_rank_of(s, tol)]


def is_unitary(M, tol: float) -> bool:
    """True iff M is square and both M*M and MM* are within tol of the identity."""
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    M = as_cmatrix(M)
    m, n = M.shape
    if m != n:
        return False
    if n == 0:
        return True
    eye = np.eye(n)
    return (
        op_norm(M.conj().T @ M - eye) <= tol
        and op_norm(M @ M.conj().T - eye) <= tol
    )


def subspace_gap(B1, B2) -> float:
    """Symmetric gap between the column spans of two orthonormal bases.

    Returns max(||(I-P1)B2||, ||(I-P2)B1||), i.e. the sine of the largest
    principal angle when the dimensions agree, and a value near 1 otherwise.
    """
    B1 = as_cmatrix(B1)
    B2 = as_cmatrix(B2)
    if B1.shape[0] != B2.shape[0]:
        raise InvalidInputError("bases live in different ambient spaces")
    if B1.shape[1] == 0 and B2.shape[1] == 0:
        return 0.0
    d1 = op_norm(B2 - B1 @ (B1.conj().T @ B2))
    d2 = op_norm(B1 - B2 @ (B2.conj().T @ B1))
    return max(d1, d2)
