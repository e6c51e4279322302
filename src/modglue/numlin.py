"""Dense complex matrix primitives: operator norms, kernel bases, unitarity tests.

Every rank, kernel and subspace decision in the package funnels through the
routines here, the only callers of numpy's SVD, QR and eigensolvers, so one
threshold convention governs all of them: a singular value sigma counts as
zero iff sigma <= tol * max(sigma_max, min_scale), min_scale 0 unless given.
Callers that must not round a near-threshold decision either way test its
margin against RANK_GAP_FACTOR.  Every unitarity check in the package
likewise reads its residual from unitarity_defects.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

#: Default relative rank threshold (scale invariant).
DEFAULT_RANK_TOL = 1e-10

#: Default tolerance on residuals judged in the package (unitarity, cocycle,
#: intertwining, round trips), and the CLI's --tol default.
DEFAULT_TOL = 1e-9

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


def _stack_singular_values(S: np.ndarray) -> np.ndarray:
    """Descending singular values of each matrix of a (..., rows, cols)
    complex128 stack, from one batched SVD; like as_cmatrix it rejects
    NaN/Inf.  An empty stack or empty matrices take no SVD."""
    if S.ndim < 2:
        raise InvalidInputError(f"expected a stack of matrices, got ndim={S.ndim}")
    if S.size and not np.isfinite(S).all():
        raise InvalidInputError("matrix has non-finite entries")
    if S.size == 0:
        return np.zeros(S.shape[:-2] + (min(S.shape[-2:]),))
    return np.linalg.svd(S, compute_uv=False)


def op_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix of a (..., rows, cols) stack.

    Entry by entry equal to op_norm, from one batched SVD; like as_cmatrix it
    rejects NaN/Inf, and empty matrices (and an empty stack) give 0.
    """
    s = _stack_singular_values(np.asarray(stack, dtype=np.complex128))
    return s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])


@np.errstate(over="ignore", invalid="ignore")
def unitarity_defects(stack, return_singular_values: bool = False):
    """Unitarity defect max |s^2 - 1| = ||W*W - I|| = ||WW* - I|| of each W
    of a (count, m, m) stack, s its singular values, from one batched SVD.

    Input is checked as op_norms checks it and must be square; an
    overflowing defect raises InvalidInputError, with numpy's warnings
    silenced.  With return_singular_values, returns (defects, s).
    """
    S = np.asarray(stack, dtype=np.complex128)
    if S.ndim != 3 or S.shape[1] != S.shape[2]:
        raise InvalidInputError(f"expected a stack of square matrices, got shape {S.shape}")
    s = _stack_singular_values(S)
    d = np.abs(s * s - 1.0).max(axis=1, initial=0.0)
    if not np.isfinite(d).all():
        raise InvalidInputError("unitarity defect is not finite")
    return (d, s) if return_singular_values else d


def place_blocks(rows: int, cols: int, shape, legs) -> np.ndarray:
    """Dense matrix of rows x cols slots, each block of the given shape,
    stacked in order.

    Each leg (cols, blocks) adds blocks[t] (or one block, broadcast) to row
    slot t at column slot cols[t], for every row slot t.  Adding with +=
    keeps the arithmetic of summing terms into zeros: a slot pair that two
    legs name holds (0 + first) + second, and a -0.0 entry of a block comes
    out +0.0.
    """
    r, c = shape
    P = np.zeros((rows, r, cols, c), dtype=np.complex128)
    t = np.arange(rows)
    for col, blocks in legs:
        P[t, :, col, :] += blocks
    return P.reshape(rows * r, cols * c)


def op_norm_maxima(groups) -> list:
    """Largest operator norm in each group of (count, rows, cols) stacks of
    any shapes, 0.0 for a group with no matrix.

    Every matrix is zero-padded to the largest rows and cols of all the
    groups, which keeps its singular values, so all of them take one
    op_norms call.  An exactly zero matrix, whose norm is exactly 0.0, is
    left out of it.
    """
    rows = max((b.shape[1] for g in groups for b in g), default=0)
    cols = max((b.shape[2] for g in groups for b in g), default=0)
    groups = [[b[b.any(axis=(1, 2))] for b in g] for g in groups]
    flat = [b for g in groups for b in g]
    ends = np.cumsum([len(b) for b in flat], dtype=int)
    stack = np.zeros((int(ends[-1]) if flat else 0, rows, cols), dtype=np.complex128)
    for b, e in zip(flat, ends):
        stack[e - len(b):e, :b.shape[1], :b.shape[2]] = b
    norms = op_norms(stack)
    out, start = [], 0
    for g in groups:
        stop = start + sum(len(b) for b in g)
        out.append(float(norms[start:stop].max(initial=0.0)))
        start = stop
    return out


def rank_of(s: np.ndarray, tol: float, min_scale: float = 0.0) -> int:
    """Number of descending singular values s above tol * max(s[0],
    min_scale): the rank decision that rank_margin reports on."""
    scale = max(s[0] if s.size else 0.0, min_scale)
    return int(np.sum(s > tol * scale)) if scale > 0.0 else 0


def kernel_basis(M, tol: float = DEFAULT_RANK_TOL, return_singular_values: bool = False,
                 min_scale: float = 0.0):
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
        K = vh[rank_of(s, tol, min_scale):].conj().T
    return (K, s) if return_singular_values else K


def rank_margin(s: np.ndarray, cols: int, tol: float, min_scale: float = 0.0):
    """How clearly the rank decision at tol was made.

    s are the descending singular values of a matrix with cols columns; a
    wide matrix also discards cols - len(s) exact zeros.  Returns the smallest
    kept and the largest discarded singular value, each divided by tol *
    max(sigma_max, min_scale), with None where nothing is kept or nothing is
    discarded.  A zero scale keeps nothing and discards exact zeros, as 0.0.
    """
    scale = max(s[0] if s.size else 0.0, min_scale)
    if scale == 0.0:
        return None, (0.0 if cols else None)
    r = rank_of(s, tol, min_scale)
    rel = s / (tol * scale)
    kept = float(rel[r - 1]) if r else None
    if r < s.size:
        return kept, float(rel[r])
    return kept, (0.0 if cols > s.size else None)


def orthonormalize(M) -> np.ndarray:
    """Q of the reduced QR of a full-column-rank M: an orthonormal basis of
    its column span, one column per column of M."""
    return np.linalg.qr(as_cmatrix(M))[0]


def orth_basis(M, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of M, as columns."""
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    M = as_cmatrix(M)
    if 0 in M.shape:
        return np.zeros((M.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    return u[:, :rank_of(s, tol)]


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
