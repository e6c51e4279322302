"""Independent numerical oracles used by the tests.

These deliberately avoid the SVD paths of the package: rank comes from row
reduction with partial pivoting, the largest singular value from power
iteration on M*M, and the gluing kernel dimension from a numpy SVD of the
Kronecker-expanded overlap constraint, assembled here independently of glue.
The structural maps of the tensor models are likewise assembled here as whole
Kronecker-expanded matrices on flat coordinates, the slow path that the
library's per-label matrices T_k replace.  Bimodule fullness and the glued
twist, which the library reads in closed form from the normal form, are
re-derived here by brute force: the rank of the span of all inner products of
matrix-unit vectors, and the transported left action probed on every matrix
unit.  The transition checks of both datum validators, which the library
takes per label from one stacked tensor, are the per-pair and per-triple
loops here.
"""

import numpy as np

from modglue import morita, numlin, tensor
from modglue.glue import DatumValidation
from modglue.hmod import inner_product, restrict_module


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


# ---------------------------------------------------------------------------
# Flat Kronecker-expanded structural matrices
#
# Flat coordinates of a family, pair or triple vector list its components in
# model order, blocks in label order, each m x n block row-major; a map acting
# by T on the multiplicity index of a block of dimension n is kron(T, I_n).


class Layout:
    """Offset table for flat coordinates split into keyed (rows x cols) slots."""

    def __init__(self, slots):
        self.offsets = {}
        self.shapes = {}
        ofs = 0
        for key, m, n in slots:
            self.offsets[key] = ofs
            self.shapes[key] = (m, n)
            ofs += m * n
        self.dim = ofs

    def place(self, M, out_key, in_layout, in_key, T):
        """Add kron(T, I_n) mapping the in slot to the out slot of matrix M."""
        ro = self.offsets[out_key]
        co = in_layout.offsets[in_key]
        n = self.shapes[out_key][1]
        blk = np.kron(T, np.eye(n))
        M[ro:ro + blk.shape[0], co:co + blk.shape[1]] += blk


def family_layout(modules):
    return Layout([
        ((i, lab), m, n)
        for i, mod in enumerate(modules)
        for lab, m, n in zip(mod.algebra.labels, mod.mult, mod.algebra.block_dims)
    ])


def model_layout(model):
    """Layout of a pair or triple model: slots keyed (entry, label)."""
    return Layout([
        ((e, lab), m, n)
        for e, space in zip(model.entries, model.spaces)
        for lab, m, n in zip(space.algebra.labels, space.mult, space.algebra.block_dims)
    ])


def flat_eta_minus_delta(D):
    """eta - delta: family coordinates -> pair coordinates."""
    model = tensor.pair_model(D)
    fam, pair = family_layout(model.modules), model_layout(model)
    M = np.zeros((pair.dim, fam.dim), dtype=np.complex128)
    for (i, j) in model.entries:
        for k in sorted(model.cover.overlap(i, j)):
            pair.place(M, ((i, j), k), fam, (i, k), np.eye(D.mult_at(i, k)))
            pair.place(M, ((i, j), k), fam, (j, k), -D.zeta_block(i, j, k))
    return M


def flat_eta_minus_delta_tensor_id(D):
    """(eta - delta) (x) id: pair coordinates -> triple coordinates."""
    model, tm = tensor.pair_model(D), tensor.triple_model(D)
    pair, trip = model_layout(model), model_layout(tm)
    M = np.zeros((trip.dim, pair.dim), dtype=np.complex128)
    for (i, j, l) in tm.entries:
        for k in sorted(tm.cover.overlap(i, j, l)):
            trip.place(M, ((i, j, l), k), pair, ((i, l), k), np.eye(D.mult_at(i, k)))
            trip.place(M, ((i, j, l), k), pair, ((j, l), k), -D.zeta_block(i, j, k))
    return M


def flat_image_eta(X, cover):
    """(M_unit, M_eta_id, M_id_etaB): x |-> (x|F_i)_i from module to family
    coordinates, and the maps to pair coordinates with component (i, j) equal
    to t_j|F_ij, resp. t_i|F_ij."""
    modules = tuple(restrict_module(X, F) for F in cover.sets)
    model = tensor.PairTensorModel(cover, modules)
    fam, pair = family_layout(modules), model_layout(model)
    mod = family_layout((X,))
    M_unit = np.zeros((fam.dim, mod.dim), dtype=np.complex128)
    for i in range(cover.num_sets):
        for k in sorted(cover.sets[i]):
            fam.place(M_unit, (i, k), mod, (0, k), np.eye(mod.shapes[(0, k)][0]))
    M_eta_id = np.zeros((pair.dim, fam.dim), dtype=np.complex128)
    M_id_etaB = np.zeros((pair.dim, fam.dim), dtype=np.complex128)
    for (i, j) in model.entries:
        for k in sorted(cover.overlap(i, j)):
            eye = np.eye(fam.shapes[(i, k)][0])
            pair.place(M_eta_id, ((i, j), k), fam, (j, k), eye)
            pair.place(M_id_etaB, ((i, j), k), fam, (i, k), eye)
    return M_unit, M_eta_id, M_id_etaB


def flat_glued_subspace_basis(gd):
    """Orthonormal basis of the embedded glued module in flat family
    coordinates: column c of block n-index t of E_k, spread over the sets."""
    D = gd.datum
    fam = family_layout(D.modules)
    cols = []
    for k, n in zip(gd.module.algebra.labels, gd.module.algebra.block_dims):
        E = gd.stacked_basis[k]
        for col in range(E.shape[1]):
            for t in range(n):
                v = np.zeros(fam.dim, dtype=np.complex128)
                for (i, ofs, m_i) in gd.layout[k]:
                    for r in range(m_i):
                        v[fam.offsets[(i, k)] + r * n + t] = E[ofs + r, col]
                cols.append(v)
    return np.stack(cols, axis=1) if cols else np.zeros((fam.dim, 0), dtype=np.complex128)


def flat_glued_tensor_subspace_basis(gd):
    """Orthonormal basis, in flat pair coordinates, of the image of
    (glued (x) B): the l-th restriction G|F_l lands in the components (i, l)
    through the embedding, and an SVD orthonormalizes the image."""
    D = gd.datum
    model = tensor.pair_model(D)
    pair = model_layout(model)
    dom = family_layout(tuple(restrict_module(gd.module, F) for F in D.cover.sets))
    M = np.zeros((pair.dim, dom.dim), dtype=np.complex128)
    for (i, l) in model.entries:
        for k in sorted(D.cover.overlap(i, l)):
            E = gd.stacked_basis[k]
            ofs = {ii: o for (ii, o, _) in gd.layout[k]}[i]
            W_i = np.sqrt(gd.member_count(k)) * E[ofs:ofs + D.mult_at(i, k), :]
            pair.place(M, ((i, l), k), dom, (l, k), W_i)
    if 0 in M.shape:
        return np.zeros((M.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    return u[:, s > 1e-10 * s[0]]


def kernel(M, tol=1e-10):
    """Orthonormal kernel basis from a numpy SVD, the identity for 0 rows."""
    rows, cols = M.shape
    if 0 in M.shape:
        return np.eye(cols, dtype=np.complex128)
    _, s, vh = np.linalg.svd(M, full_matrices=rows < cols)
    rank = int(np.sum(s > tol * s[0])) if s[0] > 0.0 else 0
    return vh[rank:].conj().T


# ---------------------------------------------------------------------------
# Brute-force Morita checks


def _span_rank(vecs, tol=1e-10):
    if not vecs:
        return 0
    M = np.stack(vecs, axis=1)
    return M.shape[1] - _kernel_dim(M, tol)


def span_fullness(M):
    """(full_left, full_right) of a normal-form bimodule by rank: per block,
    do the left (right) inner products of every pair of matrix-unit vectors
    span the whole m x m (n x n) block?"""
    Xr = M.right_module()
    full_left = full_right = True
    for pos, (m, n) in enumerate(zip(M.mult, M.right_algebra.block_dims)):
        left_vals, right_vals = [], []
        for s in range(m):
            for t in range(n):
                for s2 in range(m):
                    for t2 in range(n):
                        x, y = Xr.zero_vector(), Xr.zero_vector()
                        x.blocks[pos][s, t] = 1.0
                        y.blocks[pos][s2, t2] = 1.0
                        left_vals.append(morita.left_inner(M, x, y).blocks[pos].reshape(-1))
                        right_vals.append(inner_product(x, y).blocks[pos].reshape(-1))
        full_left = full_left and m >= 1 and n >= 1 and _span_rank(left_vals) == m * m
        full_right = full_right and _span_rank(right_vals) == n * n
    return full_left, full_right


def _inner_unitary_of(rho, m):
    """V with rho(a) = V a V* for an inner automorphism rho of M_m, seeded by
    the range vector xi of the rank-one projection rho(E_11): V e_s =
    rho(E_s1) xi.  Returns (V, residual over V*V - 1 and all m^2 units)."""
    if m == 0:
        return np.zeros((0, 0), dtype=np.complex128), 0.0

    def unit(s, t):
        E = np.zeros((m, m), dtype=np.complex128)
        E[s, t] = 1.0
        return E

    T = rho(unit(0, 0))
    _, vecs = np.linalg.eigh(0.5 * (T + T.conj().T))
    xi = vecs[:, -1]
    V = np.stack([rho(unit(s, 0)) @ xi for s in range(m)], axis=1)
    res = np.linalg.norm(V.conj().T @ V - np.eye(m), 2)
    for s in range(m):
        for t in range(m):
            res = max(res, np.linalg.norm(rho(unit(s, t)) - V @ unit(s, t) @ V.conj().T, 2))
    return V, float(res)


def probed_glued_twists(D, gd):
    """Glued twists of a bimodule datum D over its glued right module gd by
    probing the transported left action rho(a) = E* diag(v_i a v_i*) E on
    every matrix unit; returns (twists, largest residual)."""
    twists, worst = [], 0.0
    for k, m in zip(D.left_algebra.labels, D.left_algebra.block_dims):
        E = gd.stacked_basis[k]

        def rho(a, E=E, k=k):
            diag = np.zeros((E.shape[0], E.shape[0]), dtype=np.complex128)
            for (i, ofs, m_i) in gd.layout[k]:
                v = D.twist_at(i, k)
                diag[ofs:ofs + m_i, ofs:ofs + m_i] = v @ a @ v.conj().T
            return E.conj().T @ diag @ E

        V, r = _inner_unitary_of(rho, m)
        twists.append(V)
        worst = max(worst, r)
    return tuple(twists), worst


# ---------------------------------------------------------------------------
# Per-pair transition checks


def pairwise_gluing_validation(D, tol):
    """validate_gluing_datum with one SVD per (pair, label) and per
    (triple, label)."""
    res = {"unitary": 0.0, "identity": 0.0, "involutive": 0.0, "cocycle": 0.0}
    for (i, j) in D.cover.pairs(include_diagonal=False):
        for k in sorted(D.cover.overlap(i, j)):
            U = D.zeta_block(i, j, k)
            m = U.shape[0]
            if U.shape[0] != U.shape[1]:
                res["unitary"] = max(res["unitary"], 1.0)
            else:
                res["unitary"] = max(
                    res["unitary"],
                    numlin.op_norm(U.conj().T @ U - np.eye(m)),
                    numlin.op_norm(U @ U.conj().T - np.eye(m)),
                )
            res["involutive"] = max(
                res["involutive"],
                numlin.op_norm(D.zeta_block(j, i, k) - U.conj().T),
            )
    for (i, j), entries in D.zeta.items():
        if i == j:
            for k, U in entries.items():
                res["identity"] = max(res["identity"], numlin.op_norm(U - np.eye(U.shape[0])))
    for (i, j, l) in D.cover.triples():
        for k in sorted(D.cover.overlap(i, j, l)):
            lhs = D.zeta_block(i, j, k) @ D.zeta_block(j, l, k)
            res["cocycle"] = max(res["cocycle"], numlin.op_norm(lhs - D.zeta_block(i, l, k)))
    return DatumValidation(
        unitary=res["unitary"] <= tol,
        identity=res["identity"] <= tol,
        involutive=res["involutive"] <= tol,
        cocycle=res["cocycle"] <= tol,
        max_residuals=res,
    )


def pairwise_bimodule_validation(D, tol):
    """validate_bimodule_datum with numlin.is_unitary per (pair, label) and
    one SVD per (triple, label)."""
    bims_ok = all(morita.validate_bimodule(Mi, tol).passed for Mi in D.bimodules)
    unit = True
    bire = invo = coc = 0.0
    for (i, j) in D.cover.pairs(include_diagonal=False):
        for k in sorted(D.cover.overlap(i, j)):
            W = D.nu_block(i, j, k)
            unit = unit and numlin.is_unitary(W, tol)
            _, r = morita._scalar_of(D.twist_at(i, k).conj().T @ W @ D.twist_at(j, k))
            bire = max(bire, r)
            invo = max(invo, numlin.op_norm(D.nu_block(j, i, k) - W.conj().T))
    for (i, j, l) in D.cover.triples():
        for k in sorted(D.cover.overlap(i, j, l)):
            lhs = D.nu_block(i, j, k) @ D.nu_block(j, l, k)
            coc = max(coc, numlin.op_norm(lhs - D.nu_block(i, l, k)))
    return morita.BimoduleDatumValidation(bims_ok, unit, bire, invo, coc)
