"""Independent numerical oracles used by the tests.

These deliberately avoid the SVD paths of the package: rank comes from row
reduction with partial pivoting, the largest singular value from power
iteration on M*M, and the gluing kernel dimension from a numpy SVD of the
Kronecker-expanded overlap constraint, assembled here independently of glue.
"""

import numpy as np


def row_reduction_rank(M, tol=1e-10):
    """Rank by Gaussian elimination with partial pivoting."""
    A = np.array(M, dtype=np.complex128)
    rows, cols = A.shape
    if rows == 0 or cols == 0:
        return 0
    scale = max(np.abs(A).max(), 1.0)
    rank = 0
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        p = r + int(np.argmax(np.abs(A[r:, c])))
        if np.abs(A[p, c]) <= tol * scale:
            continue
        A[[r, p]] = A[[p, r]]
        A[r] = A[r] / A[r, c]
        for rr in range(rows):
            if rr != r:
                A[rr] = A[rr] - A[rr, c] * A[r]
        r += 1
        rank += 1
    return rank


def power_iteration_top_singular(M, iters=2000, seed=0):
    """sqrt of the largest eigenvalue of M*M by power iteration."""
    M = np.asarray(M, dtype=np.complex128)
    if 0 in M.shape:
        return 0.0
    H = M.conj().T @ M
    rng = np.random.default_rng(seed)
    v = rng.normal(size=H.shape[0]) + 1j * rng.normal(size=H.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = H @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam = nw
    return float(np.sqrt(lam))


def constraint_matrix(D, label):
    """The overlap constraint of one block label on stacked multiplicity
    coordinates: a row block z_i - zeta_ij z_j per ordered pair of distinct
    member sets."""
    members = D.cover.members(label)
    sizes = [D.mult_at(i, label) for i in members]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    blocks = []
    for a, i in enumerate(members):
        for b, j in enumerate(members):
            if a != b:
                row = np.zeros((sizes[a], offsets[-1]), dtype=np.complex128)
                row[:, offsets[a]:offsets[a + 1]] += np.eye(sizes[a])
                row[:, offsets[b]:offsets[b + 1]] -= D.zeta_block(i, j, label)
                blocks.append(row)
    return np.vstack(blocks) if blocks else np.zeros((0, offsets[-1]), dtype=np.complex128)


def _kernel_dim(M, tol):
    cols = M.shape[1]
    if 0 in M.shape:
        return cols
    s = np.linalg.svd(M, compute_uv=False)
    return cols - (int(np.sum(s > tol * s[0])) if s[0] > 0.0 else 0)


def kron_kernel_dim(C, n, tol):
    """dim ker (C (x) I_n): the full matrix-coordinate constraint of a block of
    dimension n, expanded and decomposed as a whole."""
    return _kernel_dim(np.kron(np.asarray(C, dtype=np.complex128), np.eye(n)), tol)


def two_svd_multiplicities(D, tol):
    """Glued multiplicities by the two-SVD path: dim ker C per label, confirmed
    by the Kronecker-expanded constraint as n * dim ker C; None when any label
    fails the confirmation."""
    mult = []
    for k, n in zip(D.algebra.labels, D.algebra.block_dims):
        C = constraint_matrix(D, k)
        g = _kernel_dim(C, tol)
        if kron_kernel_dim(C, n, tol) != g * n:
            return None
        mult.append(g)
    return tuple(mult)
