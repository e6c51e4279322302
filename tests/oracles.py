"""Independent numerical oracles used by the tests.

These deliberately avoid the SVD paths of the package: rank comes from row
reduction with partial pivoting, the largest singular value from power
iteration on M*M, and the gluing kernel dimension from a numpy SVD of the
Kronecker-expanded overlap constraint, assembled here independently of glue.
The structural maps of the tensor models are likewise assembled here as whole
Kronecker-expanded matrices on flat coordinates, the slow path that the
library's per-label matrices T_k replace, and applied one vector at a time to
pair and triple model vectors, the object path that the library's stacked
slot arrays replace in descent_identities_check and suite criterion 3.
Bimodule fullness and the glued twist, which the library reads in closed
form from the normal form, are re-derived here by brute force: the rank of
the span of all inner products of matrix-unit vectors, and the transported
left action probed on every matrix unit.  The identities of an equivalence bimodule, which the library bounds in
closed form from each twist's singular values, are sampled here on random
vectors.  The transition checks of both datum validators, which the library
takes per label from one stacked tensor, are the per-pair and per-triple
loops here, and so are the obstruction scalars; the cocycle residual, which
the library takes from one product over all triples of a label, is also
taken here one first index at a time.  The datum-level dual,
tensor product, conjugate and isomorphism test, which the library derives
from each transition's scalar read once, are the matrix-level versions
here, and criterion 8's bimodule-map check on Phi, which the library takes
in closed form, is sampled here.  The per-label matrices T_k,
which the library places leg by leg with index arithmetic, are summed here
one slot pair at a time (block_matrix), and the Gaussian draws, which the
library computes as one splitmix block, come one entry at a time from
ScalarRng.  Unitarity, which the library reads as max |s^2 - 1| over the
singular values, is measured here from the products U*U and UU*.  A
bimodule datum's right gluing datum, which the library stores, is rebuilt
here from the member bimodules and the transitions, and the pull-apart's
identity transition stacks, which the library tiles directly, are built
here through make_gluing_datum from one identity entry per pair.  The balanced-tensor
quotient, which the library forms slot by slot from factors given as matrix
pieces, expands every relation to the plain tensor here, from action
closures, and takes the relation span and its complement from two SVDs.
The embedding, its adjoint, G on morphisms and Phi, which the library reads
from each label's (s, m_k, g_k) view of E_k and its member stacks, cut and
place each member's rows at the offsets of glued_layout here, with dense
zero-filled maps, and the intertwining residual of a family, which the
library takes per label from one product, is taken one transition at a time.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from modglue import morita, numlin, tensor
from modglue.cstar import AlgebraElement, ClosedCover, FdCStarAlgebra, restrict_algebra, sum_algebra
from modglue.gen import random_element, random_vector
from modglue.errors import InvalidInputError, ModelViolationError
from modglue.glue import (
    EXACT_IDENTITY_TOL,
    DatumValidation,
    DescentReport,
    glue,
    make_gluing_datum,
    validate_gluing_datum,
)
from modglue.hmod import (
    ModuleVector,
    apply_map,
    coords,
    inner_product,
    restrict_module,
    restrict_vector,
    right_act,
    vec_norm,
)
from modglue.rng import _MASK, GAMMA, MIX1, MIX2, Rng


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
    model = tensor.TensorModel(cover, modules, tuple(cover.pairs()))
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


def glued_layout(gd, k):
    """(i, a * m_k, m_k) for the member i = cover.members(k)[a]: set i's rows
    of E_k are rows a * m_k ... (a + 1) * m_k - 1 of the stacked basis."""
    m = gd.datum.label_mult(k)
    return tuple((i, a * m, m) for a, i in enumerate(gd.datum.cover.members(k)))


def layout_embed(gd, g):
    """GluedModule.embed, each member's rows cut from E_k g at its offset."""
    arrays = [[None] * m.algebra.num_blocks for m in gd.datum.modules]
    for pos, k in enumerate(gd.module.algebra.labels):
        layout = glued_layout(gd, k)
        stacked = np.sqrt(len(layout)) * (gd.stacked_basis[k] @ g.blocks[pos])
        for (i, ofs, m_i) in layout:
            bpos = gd.datum.modules[i].algebra.position(k)
            arrays[i][bpos] = stacked[ofs:ofs + m_i]
    return tuple(ModuleVector(m, tuple(arr)) for m, arr in zip(gd.datum.modules, arrays))


def layout_project(gd, parts):
    """GluedModule.project, the parts stacked in the order of glued_layout."""
    g = gd.module.zero_vector()
    for pos, k in enumerate(gd.module.algebra.labels):
        layout = glued_layout(gd, k)
        stacked = np.concatenate([parts[i].block(k) for (i, _, _) in layout])
        g.blocks[pos][:, :] = (gd.stacked_basis[k].conj().T @ stacked) / np.sqrt(len(layout))
    return g


def dense_glue_morphism(m):
    """The blocks of glue.glue_morphism(m), each Et* D Es with D the dense
    block-diagonal map that places alpha_i at the offsets of both layouts."""
    gs, gt = glue(m.source), glue(m.target)
    blocks = []
    for k in m.source.algebra.labels:
        Es, Et = gs.stacked_basis[k], gt.stacked_basis[k]
        Dalpha = np.zeros((Et.shape[0], Es.shape[0]), dtype=np.complex128)
        for (i, ofs_s, m_s), (_, ofs_t, m_t) in zip(glued_layout(gs, k), glued_layout(gt, k)):
            Dalpha[ofs_t:ofs_t + m_t, ofs_s:ofs_s + m_s] = m.maps[i].block(k)
        blocks.append(Et.conj().T @ Dalpha @ Es)
    return blocks


def stacked_identity_phi_map(gd, X):
    """The blocks of glue.phi_map(gd, X), each E* S / sqrt(s) with S the s
    identities stacked."""
    blocks = []
    for pos, k in enumerate(X.algebra.labels):
        c = len(glued_layout(gd, k))
        S = np.vstack([np.eye(X.mult[pos], dtype=np.complex128)] * c)
        blocks.append((gd.stacked_basis[k].conj().T @ S) / np.sqrt(c))
    return blocks


def per_entry_morphism_residual(m):
    """glue.morphism_residual, one transition (i, j, k) at a time."""
    worst = 0.0
    for (i, j, k, Z) in m.source.entries():
        lhs = m.maps[i].block(k) @ Z
        rhs = m.target.zeta_block(i, j, k) @ m.maps[j].block(k)
        worst = max(worst, numlin.op_norm(lhs - rhs))
    return worst


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
                for (i, ofs, m_i) in glued_layout(gd, k):
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
            E, layout = gd.stacked_basis[k], glued_layout(gd, k)
            ofs = {ii: o for (ii, o, _) in layout}[i]
            W_i = np.sqrt(len(layout)) * E[ofs:ofs + D.mult_at(i, k), :]
            pair.place(M, ((i, l), k), dom, (l, k), W_i)
    if 0 in M.shape:
        return np.zeros((M.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    return u[:, s > 1e-10 * s[0]]


# ---------------------------------------------------------------------------
# Per-slot builders of the per-label matrices T_k
#
# The library places each leg of T_k for all slots at once by index
# arithmetic; here every slot pair is a term of its own, summed in place
# into a zero matrix one term after another.


def _slots(members, size, arity):
    return {key: size[key[0]] for key in itertools.product(members, repeat=arity)}


def block_matrix(row_slots, col_slots, terms):
    """Dense matrix over keyed row and column slots, stacked in dict order;
    terms are (row key, column key, block) triples, summed in place."""
    row_ofs = dict(zip(row_slots, np.cumsum([0, *row_slots.values()])))
    col_ofs = dict(zip(col_slots, np.cumsum([0, *col_slots.values()])))
    M = np.zeros((sum(row_slots.values()), sum(col_slots.values())), dtype=np.complex128)
    for r, c, blk in terms:
        M[row_ofs[r]:row_ofs[r] + blk.shape[0], col_ofs[c]:col_ofs[c] + blk.shape[1]] += blk
    return M


def slot_sizes(datum, k, arity: int) -> dict:
    """Row count of each slot of label k with keys of the given arity."""
    members = datum.cover.members(k)
    return dict.fromkeys(itertools.product(members, repeat=arity), datum.label_mult(k))


def split_slots(stack, sizes: dict) -> list:
    """The row blocks of a (..., rows, n) slot stack, one per slot."""
    ends = np.cumsum(list(sizes.values()), dtype=int)
    return [stack[..., e - m:e, :] for e, m in zip(ends, sizes.values())]


def slot_right_act(stack, sizes: dict, b, k) -> np.ndarray:
    """Right action of b in B on the slots of label k, one slot at a time:
    slot (..., j) is acted on by b's block (j, k)."""
    slots = split_slots(stack, sizes)
    return np.concatenate([x @ b.block((key[-1], k)) for key, x in zip(sizes, slots)], axis=-2)


def blockwise_unit_plus_delta(D, k, level, unit, delta):
    """T_k of unit * (eta (x) id^level) + delta * (delta (x) id^level)."""
    members = D.cover.members(k)
    size = {i: D.mult_at(i, k) for i in members}
    dst = _slots(members, size, level + 2)
    terms = []
    for (i, j, *r) in dst:
        if unit:
            terms.append(((i, j, *r), (i, *r), unit * np.eye(size[i])))
        if delta:
            terms.append(((i, j, *r), (j, *r), delta * D.zeta_block(i, j, k)))
    return block_matrix(dst, _slots(members, size, level + 1), terms)


def blockwise_epsilon_map(D, k):
    members = D.cover.members(k)
    size = {i: D.mult_at(i, k) for i in members}
    return block_matrix(_slots(members, size, 1), _slots(members, size, 2),
                        [((i,), (i, i), np.eye(size[i])) for i in members])


def blockwise_image_eta_matrices(X, cover, k):
    members = cover.members(k)
    m = X.mult[X.algebra.position(k)]
    size = dict.fromkeys(members, m)
    fam, pair = _slots(members, size, 1), _slots(members, size, 2)
    eye = np.eye(m)
    return (
        block_matrix(fam, {(): m}, [(key, (), eye) for key in fam]),
        block_matrix(pair, fam, [((i, j), (j,), eye) for (i, j) in pair]),
        block_matrix(pair, fam, [((i, j), (i,), eye) for (i, j) in pair]),
    )


def blockwise_glued_tensor_subspace_basis(gd, k):
    D = gd.datum
    members = D.cover.members(k)
    size = {i: D.mult_at(i, k) for i in members}
    E = gd.stacked_basis[k]
    ofs = {i: o for (i, o, _) in glued_layout(gd, k)}
    pair = _slots(members, size, 2)
    dom = _slots(members, dict.fromkeys(members, E.shape[1]), 1)
    return block_matrix(
        pair, dom, [((i, l), (l,), E[ofs[i]:ofs[i] + size[i]]) for (i, l) in pair]
    )


def blockwise_builders(D, k):
    """The library's T_k of label k, keyed by builder, with its per-slot
    reference: (library, oracle) pairs."""
    return {
        "delta_map": (tensor.delta_map(D, k), blockwise_unit_plus_delta(D, k, 0, 0.0, 1.0)),
        "epsilon_map": (tensor.epsilon_map(D, k), blockwise_epsilon_map(D, k)),
        "eta_tensor_id": (tensor.lift_to_triple("eta_tensor_id", D, k),
                          blockwise_unit_plus_delta(D, k, 1, 1.0, 0.0)),
        "delta_tensor_id": (tensor.lift_to_triple("delta_tensor_id", D, k),
                            blockwise_unit_plus_delta(D, k, 1, 0.0, 1.0)),
        "eta_minus_delta": (tensor.eta_minus_delta_matrix(D, k),
                            blockwise_unit_plus_delta(D, k, 0, 1.0, -1.0)),
        "eta_minus_delta_tensor_id": (tensor.eta_minus_delta_tensor_id_matrix(D, k),
                                      blockwise_unit_plus_delta(D, k, 1, 1.0, -1.0)),
    }


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


def sampled_bimodule_validation(M, tol):
    """validate_bimodule by sampling, the slow path its closed form replaces:
    the four identities of an equivalence bimodule on 8 draws of random
    vectors x, y, z and a random element a', unitarity by
    product_unitarity_residual and fullness by span_fullness.  Returns (passed, residuals): passed
    judges the raw residuals at tol, and residuals maps each identity to its
    largest sampled residual divided by the product of its inputs' norms."""
    rng = Rng(7)
    Xr = M.right_module()
    raw = 0.0
    res = dict.fromkeys(("imprimitivity", "left_linearity", "hermitian", "adjoint_compat"), 0.0)

    def record(name, r, *norms):
        nonlocal raw
        raw = max(raw, r)
        scale = float(np.prod(norms))
        res[name] = max(res[name], r / scale if scale > 0 else r)

    L, act = morita.left_inner, morita.left_act
    for _ in range(8):
        x, y, z = (random_vector(rng, Xr) for _ in range(3))
        ap = random_element(rng, M.left_algebra)
        nx, ny, nz, na = vec_norm(x), vec_norm(y), vec_norm(z), ap.norm()
        # _A'<x|y> . z = x . <y|z>_A
        record("imprimitivity",
               vec_norm(act(M, L(M, x, y), z) - right_act(x, inner_product(y, z))), nx, ny, nz)
        # _A'<a'x|y> = a' _A'<x|y>
        record("left_linearity", (L(M, act(M, ap, x), y) - ap * L(M, x, y)).norm(), na, nx, ny)
        record("hermitian", (L(M, x, y).adjoint() - L(M, y, x)).norm(), nx, ny)
        # <a'x|y>_A = <x|a'* y>_A
        record("adjoint_compat",
               (inner_product(act(M, ap, x), y) - inner_product(x, act(M, ap.adjoint(), y))).norm(),
               na, nx, ny)
    full_left, full_right = span_fullness(M)
    unitary = all(product_unitarity_residual(u) <= tol for u in M.twist)
    return unitary and full_left and full_right and raw <= tol, res


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
            for (i, ofs, m_i) in glued_layout(gd, k):
                v = D.twist_at(i, k)
                diag[ofs:ofs + m_i, ofs:ofs + m_i] = v @ a @ v.conj().T
            return E.conj().T @ diag @ E

        V, r = _inner_unitary_of(rho, m)
        twists.append(V)
        worst = max(worst, r)
    return tuple(twists), worst


# ---------------------------------------------------------------------------
# Per-pair transition checks


def product_unitarity_residual(U) -> float:
    """max(||U*U - I||, ||UU* - I||) of a square U, from the two products:
    the form that numlin.unitarity_defects replaces."""
    eye = np.eye(U.shape[0])
    return max(numlin.op_norm(U.conj().T @ U - eye), numlin.op_norm(U @ U.conj().T - eye))


def per_index_cocycle_residual(Z) -> float:
    """cocycle_residual taken one first index a at a time, over b not in
    {a, c}: the loop that the one batched product over all triples replaces."""
    s = len(Z)
    off = ~np.eye(s, dtype=bool)
    cocycle = 0.0
    for a in range(s):
        b, c = np.nonzero(off & (np.arange(s) != a)[:, None])  # b not in {a, c}
        cocycle = max(cocycle, numlin.op_norms(Z[a, b] @ Z[b, c] - Z[a, c]).max(initial=0.0))
    return float(cocycle)


def padded_op_norm_maxima(groups) -> list:
    """op_norm_maxima without leaving out zero matrices: every matrix of
    every group zero-padded to the largest rows and cols and sent through
    one op_norms call."""
    flat = [b for g in groups for b in g]
    rows = max((b.shape[1] for b in flat), default=0)
    cols = max((b.shape[2] for b in flat), default=0)
    padded = [np.pad(b, ((0, 0), (0, rows - b.shape[1]), (0, cols - b.shape[2]))) for b in flat]
    norms = numlin.op_norms(np.concatenate(padded) if padded else np.zeros((0, rows, cols)))
    out, start = [], 0
    for g in groups:
        stop = start + sum(len(b) for b in g)
        out.append(float(norms[start:stop].max(initial=0.0)))
        start = stop
    return out


def pairwise_gluing_validation(D, tol):
    """validate_gluing_datum with one SVD per (pair, label) and per
    (triple, label)."""
    res = {"unitary": 0.0, "identity": 0.0, "involutive": 0.0, "cocycle": 0.0}
    for (i, j) in D.cover.pairs(include_diagonal=False):
        for k in sorted(D.cover.overlap(i, j)):
            U = D.zeta_block(i, j, k)
            res["unitary"] = max(res["unitary"], 1.0 if U.shape[0] != U.shape[1]
                                 else product_unitarity_residual(U))
            res["involutive"] = max(
                res["involutive"],
                numlin.op_norm(D.zeta_block(j, i, k) - U.conj().T),
            )
    for i, F in enumerate(D.cover.sets):
        for k in sorted(F):
            U = D.zeta_block(i, i, k)
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
    """validate_bimodule_datum with product_unitarity_residual per (pair,
    label) and one SVD per (triple, label)."""
    members = [morita.validate_bimodule(Mi, tol) for Mi in D.bimodules]
    unit = True
    defect = bire = invo = coc = 0.0
    for (i, j) in D.cover.pairs(include_diagonal=False):
        for k in sorted(D.cover.overlap(i, j)):
            W = D.nu_block(i, j, k)
            d = 1.0 if W.shape[0] != W.shape[1] else product_unitarity_residual(W)
            unit = unit and W.shape[0] == W.shape[1] and d <= tol
            defect = max(defect, d)
            _, r = morita._scalar_of(D.twist_at(i, k).conj().T @ W @ D.twist_at(j, k))
            bire = max(bire, r)
            invo = max(invo, numlin.op_norm(D.nu_block(j, i, k) - W.conj().T))
    for (i, j, l) in D.cover.triples():
        for k in sorted(D.cover.overlap(i, j, l)):
            lhs = D.nu_block(i, j, k) @ D.nu_block(j, l, k)
            coc = max(coc, numlin.op_norm(lhs - D.nu_block(i, l, k)))
    return morita.BimoduleDatumValidation(
        all(v.passed for v in members), unit, bire, invo, coc, defect,
        max((max(v.imprimitivity, v.left_linearity) for v in members), default=0.0))


# ---------------------------------------------------------------------------
# Datum-level Morita operations, one transition matrix at a time
#
# morita reads each transition's scalar once, in transition_cochain, and
# builds the dual, the tensor product, the conjugate and the isomorphism
# witness from the scalars.  These are the matrix-level versions it
# replaced: each extracts every scalar again with morita._scalar_of, and the
# conjugate is built through two intermediate tensor products.

_SCALAR_RESIDUAL_TOL = 1e-8
_SCALAR_ZERO_TOL = 1e-12


def matrix_dual_datum(D, tol=morita.DEFAULT_TOL):
    bims = tuple(morita.dual_bimodule(Mi) for Mi in D.bimodules)
    entries = []
    for (i, j) in D.cover.pairs(include_diagonal=False):
        if i >= j:
            continue
        for k in sorted(D.cover.overlap(i, j)):
            W = D.nu_block(i, j, k)
            s, r = morita._scalar_of(D.twist_at(i, k).conj().T @ W @ D.twist_at(j, k))
            if r > tol:
                raise ModelViolationError(
                    f"transition ({i},{j}) block {k} is not a bimodule unitary "
                    f"(residual {r:.3e})",
                    residual=r,
                )
            n = D.right_algebra.block_dims[D.right_algebra.position(k)]
            entries.append((i, j, k, np.conj(s) * np.eye(n, dtype=np.complex128)))
    return morita.make_bimodule_datum(
        D.right_algebra, D.left_algebra, D.cover, bims, entries
    )


def matrix_datum_tensor(D1, D2, tol=morita.DEFAULT_TOL):
    if D1.cover != D2.cover:
        raise InvalidInputError("data live over different covers")
    if D1.right_algebra != D2.left_algebra:
        raise InvalidInputError("middle algebras do not match")
    bims = tuple(
        morita.tensor_bimodules(M1, M2) for M1, M2 in zip(D1.bimodules, D2.bimodules)
    )
    entries = []
    for (i, j) in D1.cover.pairs(include_diagonal=False):
        if i >= j:
            continue
        for k in sorted(D1.cover.overlap(i, j)):
            W1 = D1.nu_block(i, j, k)
            W2 = D2.nu_block(i, j, k)
            s, r = morita._scalar_of(D2.twist_at(i, k).conj().T @ W2 @ D2.twist_at(j, k))
            if r > tol:
                raise ModelViolationError(
                    f"right-factor transition ({i},{j}) block {k} is not a "
                    f"bimodule unitary (residual {r:.3e})",
                    residual=r,
                )
            entries.append((i, j, k, s * W1))
    return morita.make_bimodule_datum(
        D1.left_algebra, D2.right_algebra, D1.cover, bims, entries
    )


def matrix_picard_conjugate(D, Mdat, tol=morita.DEFAULT_TOL):
    if Mdat.left_algebra != D.left_algebra or Mdat.right_algebra != D.left_algebra:
        raise InvalidInputError("Mdat must be a self-equivalence datum over D's left algebra")
    return matrix_datum_tensor(
        matrix_datum_tensor(matrix_dual_datum(D, tol), Mdat, tol), D, tol)


def _canon_matrix(D1, D2, i, k):
    """Canonical bimodule unitary N1_i -> N2_i at one block: v2 v1*."""
    return D2.twist_at(i, k) @ D1.twist_at(i, k).conj().T


def _scalar_ratio(Ci, nu1, nu2, Cr):
    """Scalar q with Ci^{-1} nu2 Cr = q nu1, None if the quotient
    Ci* nu2 Cr nu1* is not scalar; the quotient assumes Ci and nu1 unitary."""
    m = Ci.shape[0]
    if m == 0:
        return 1.0 + 0j
    Q = Ci.conj().T @ nu2 @ Cr @ nu1.conj().T
    s, r = morita._scalar_of(Q)
    if r > _SCALAR_RESIDUAL_TOL or abs(s) < _SCALAR_ZERO_TOL:
        return None
    return s


def matrix_bimodule_data_isomorphic(D1, D2, tol=morita.DEFAULT_TOL):
    if (D1.left_algebra != D2.left_algebra or D1.right_algebra != D2.right_algebra
            or D1.cover != D2.cover):
        return None
    for M1, M2 in zip(D1.bimodules, D2.bimodules):
        if M1.mult != M2.mult:
            return None
    cov = D1.cover
    lam = {}
    for k in range(cov.prim_size):
        members = cov.members(k)
        root = members[0]
        lam[(root, k)] = 1.0 + 0j
        for i in members[1:]:
            # alpha_i nu1_{i,root} = nu2_{i,root} alpha_root with alpha = lam * C
            q = _scalar_ratio(
                _canon_matrix(D1, D2, i, k), D1.nu_block(i, root, k),
                D2.nu_block(i, root, k), _canon_matrix(D1, D2, root, k),
            )
            if q is None:
                return None
            lam[(i, k)] = q * lam[(root, k)]
    witnesses = tuple(
        tuple(lam[(i, k)] * _canon_matrix(D1, D2, i, k) for k in sorted(cov.sets[i]))
        for i in range(cov.num_sets)
    )
    if morita.datum_morphism_residual(D1, D2, witnesses) > tol:
        return None
    return witnesses


# ---------------------------------------------------------------------------
# A bimodule datum's right gluing datum, rebuilt
#
# morita keeps a bimodule datum as its right gluing datum D.right plus the
# member bimodules.  These are the paths that stored datum replaced: the
# right datum rebuilt from the right modules and the transitions, the
# pull-apart built through make_bimodule_datum, and the morphism residual's
# own loop over pairs and labels.


def rebuilt_right_datum(D):
    """Forget the left structure: the right modules with the same transitions."""
    modules = tuple(Mi.right_module() for Mi in D.bimodules)
    return make_gluing_datum(D.right_algebra, D.cover, modules, D.right.entries())


def entrywise_pull_apart(X, cover):
    """glue.pull_apart through make_gluing_datum, from one identity
    transition per ordered pair of distinct sets and label of their overlap."""
    modules = tuple(restrict_module(X, F) for F in cover.sets)
    entries = []
    for (i, j) in cover.pairs(include_diagonal=False):
        for k in sorted(cover.overlap(i, j)):
            m = X.mult[X.algebra.position(k)]
            entries.append((i, j, k, np.eye(m, dtype=np.complex128)))
    return make_gluing_datum(X.algebra, cover, modules, entries)


def entrywise_pull_apart_bimodule(M, cover):
    """morita.pull_apart_bimodule through make_bimodule_datum, from identity
    transitions for i < j."""
    bims = tuple(morita.restrict_bimodule(M, F) for F in cover.sets)
    entries = []
    for (i, j) in cover.pairs(include_diagonal=False):
        if i < j:
            for k in sorted(cover.overlap(i, j)):
                m = M.mult[M.left_algebra.position(k)]
                entries.append((i, j, k, np.eye(m, dtype=np.complex128)))
    return morita.make_bimodule_datum(M.left_algebra, M.right_algebra, cover, bims, entries)


def pairwise_datum_morphism_residual(src, tgt, witnesses):
    """morita.datum_morphism_residual with the intertwining residual taken
    one (pair, label) at a time, each witness block found by its position in
    the sorted cover set."""
    worst = 0.0
    cov = src.cover
    for i in range(cov.num_sets):
        worst = max(
            worst,
            morita.bimodule_morphism_residual(src.bimodules[i], tgt.bimodules[i], witnesses[i]),
        )
    for (i, j) in cov.pairs(include_diagonal=False):
        for k in sorted(cov.overlap(i, j)):
            Wi = witnesses[i][sorted(cov.sets[i]).index(k)]
            Wj = witnesses[j][sorted(cov.sets[j]).index(k)]
            lhs = Wi @ src.nu_block(i, j, k)
            rhs = tgt.nu_block(i, j, k) @ Wj
            worst = max(worst, numlin.op_norm(lhs - rhs))
    return worst


def sampled_phi_bimodule_residual(M, Mg, phi, rng):
    """How far Phi: M -> Mg is from a map of bimodules, sampled: left actions
    and left inner products on 4 draws of x, y and a', the sampling that
    suite criterion 8 replaced with morita.bimodule_morphism_residual."""
    worst = 0.0
    Xr = M.right_module()
    for _ in range(4):
        x = random_vector(rng, Xr)
        y = random_vector(rng, Xr)
        ap = random_element(rng, M.left_algebra)
        lhs = apply_map(phi, morita.left_act(M, ap, x))
        rhs = morita.left_act(Mg, ap, apply_map(phi, x))
        worst = max(worst, vec_norm(lhs - rhs))
        li = morita.left_inner(M, x, y)
        li2 = morita.left_inner(Mg, apply_map(phi, x), apply_map(phi, y))
        worst = max(worst, (li - li2).norm())
    return worst


# ---------------------------------------------------------------------------
# Structural maps on model vectors
#
# delta, epsilon and the one-leg lifts applied to one pair or triple model
# vector at a time, each component a ModuleVector over its restricted space.


@dataclass(eq=False)
class PairTensorVector:
    model: tensor.TensorModel
    comps: tuple  # ModuleVector per entry, aligned with model.entries

    def comp(self, i, j) -> ModuleVector:
        return self.comps[self.model.index[(i, j)]]

    def __sub__(self, other):
        return PairTensorVector(self.model, tuple(a - b for a, b in zip(self.comps, other.comps)))


@dataclass(eq=False)
class TripleTensorVector:
    model: tensor.TensorModel
    comps: tuple

    def comp(self, i, j, l) -> ModuleVector:
        return self.comps[self.model.index[(i, j, l)]]

    def __sub__(self, other):
        return TripleTensorVector(self.model, tuple(a - b for a, b in zip(self.comps, other.comps)))


def zero_pair(model) -> PairTensorVector:
    return PairTensorVector(model, tuple(s.zero_vector() for s in model.spaces))


def pair_space(model, i, j):
    return model.spaces[model.index[(i, j)]]


def family_norm(parts) -> float:
    return max((vec_norm(p) for p in parts), default=0.0)


def pair_norm(t) -> float:
    return max((vec_norm(c) for c in t.comps), default=0.0)


triple_norm = pair_norm


def amp2_block_norm(blocks_grid) -> float:
    """Operator norm of the 2x2 block matrix assembled from four equal shapes."""
    return numlin.op_norm(np.block([[blocks_grid[0][0], blocks_grid[0][1]],
                                    [blocks_grid[1][0], blocks_grid[1][1]]]))


def _amp2_norm(grid, comps_of) -> float:
    cells = [[comps_of(grid[r][c]) for c in range(2)] for r in range(2)]
    return max((
        amp2_block_norm([[cells[r][c][e].blocks[b] for c in range(2)] for r in range(2)])
        for e in range(len(cells[0][0]))
        for b in range(len(cells[0][0][e].blocks))
    ), default=0.0)


def family_norm_amp2(grid) -> float:
    """Amplified norm of a 2x2 grid of family vectors (same family shape)."""
    return _amp2_norm(grid, tuple)


def pair_norm_amp2(grid) -> float:
    """Amplified norm of a 2x2 grid of pair-model vectors."""
    return _amp2_norm(grid, lambda t: t.comps)


def pair_coords(t) -> np.ndarray:
    arrs = [coords(c) for c in t.comps]
    return np.concatenate(arrs) if arrs else np.zeros(0, dtype=np.complex128)


def eta_map(arg, ctx):
    """The unit map x |-> x (x) 1 in model coordinates: the restriction family
    (x|F_i)_i of a module vector over a cover, or the pair vector with
    component (i, j) equal to z_i|F_ij of a family over a pair model."""
    if isinstance(ctx, ClosedCover):
        return tuple(restrict_vector(arg, F) for F in ctx.sets)
    parts = tuple(arg)
    return PairTensorVector(ctx, tuple(
        ModuleVector(space, tuple(parts[i].block(k) for k in space.algebra.labels))
        for (i, _), space in zip(ctx.entries, ctx.spaces)
    ))


def phi_embed(model, i, j, v) -> PairTensorVector:
    """Place a vector of Z_i|F_ij at component (i, j), zero elsewhere."""
    idx = model.index[(i, j)]
    comps = list(zero_pair(model).comps)
    comps[idx] = v
    return PairTensorVector(model, tuple(comps))


def delta_map(datum, parts) -> PairTensorVector:
    """Component (i, j) = zeta_ij(z_j|F_ij); the comultiplication of the datum."""
    model = tensor.pair_model(datum)
    return PairTensorVector(model, tuple(
        ModuleVector(space, tuple(datum.zeta_block(i, j, k) @ parts[j].block(k)
                                  for k in space.algebra.labels))
        for (i, j), space in zip(model.entries, model.spaces)
    ))


def epsilon_map(t) -> tuple:
    """Diagonal extraction: component i of the output is t_(i,i)."""
    model = t.model
    parts = []
    for i, Z in enumerate(model.modules):
        if (i, i) not in model.index:  # empty cover set: Z_i is zero
            parts.append(Z.zero_vector())
            continue
        d = t.comp(i, i)
        parts.append(ModuleVector(Z, tuple(d.block(k) for k in Z.algebra.labels)))
    return tuple(parts)


TRIPLE_KINDS = ("eta_tensor_id", "id_tensor_etaB", "delta_tensor_id")


def lift_to_triple(kind, datum, t, tm) -> TripleTensorVector:
    """One-leg amplifications of eta and delta from the pair to the triple
    model tm: component (i, j, l) is t_(i,l), t_(i,j) or zeta_ij t_(j,l)."""
    if kind not in TRIPLE_KINDS:
        raise InvalidInputError(f"unknown lift kind {kind!r}")
    comps = []
    for (i, j, l), space in zip(tm.entries, tm.spaces):
        labels = space.algebra.labels
        if kind == "eta_tensor_id":
            blocks = tuple(t.comp(i, l).block(k) for k in labels)
        elif kind == "id_tensor_etaB":
            blocks = tuple(t.comp(i, j).block(k) for k in labels)
        else:
            blocks = tuple(datum.zeta_block(i, j, k) @ t.comp(j, l).block(k) for k in labels)
        comps.append(ModuleVector(space, blocks))
    return TripleTensorVector(tm, tuple(comps))


def pair_right_act(t, b) -> PairTensorVector:
    """Right B-action on the pair model: component (i, j) acted on by b_j|F_ij."""
    comps = []
    for (_, j), c in zip(t.model.entries, t.comps):
        sub = c.module.algebra  # A|F_ij
        comps.append(right_act(c, AlgebraElement(sub, tuple(b.block((j, k)) for k in sub.labels))))
    return PairTensorVector(t.model, tuple(comps))


def pair_from_family_and_b(model, parts, b) -> PairTensorVector:
    """Model vector of the elementary tensor z (x) b for z given as a family."""
    return pair_right_act(eta_map(parts, model), b)


def family_right_act(parts, b, B) -> tuple:
    """Right action of a sum-algebra element on a family: z_i acted by b_i."""
    return tuple(right_act(p, B.component(b, i)) for i, p in enumerate(parts))


def family_inner(parts1, parts2, base, cover) -> AlgebraElement:
    """B-valued inner product of two families, blockwise per (set, label)."""
    B = sum_algebra(base, cover)
    return B.assemble([inner_product(x, y) for x, y in zip(parts1, parts2)])


def object_descent_report(D, tol, trials, seed) -> DescentReport:
    """descent_identities_check on model vectors, one trial at a time: the
    same draws from the same stream, delta, epsilon and the lifts applied to
    each, and every residual the Hilbert-module norm of a model vector."""
    rng = Rng(seed)
    gd = glue(D)
    tm = tensor.triple_model(D)
    res_a = res_b = res_b_glued = 0.0
    for _ in range(trials):
        z = tuple(random_vector(rng, m) for m in D.modules)
        t = delta_map(D, z)
        res_a = max(res_a, family_norm(tuple(a - b for a, b in zip(epsilon_map(t), z))))
        res_b = max(res_b, triple_norm(
            lift_to_triple("delta_tensor_id", D, t, tm) - lift_to_triple("eta_tensor_id", D, t, tm)))
        tg = delta_map(D, gd.embed(random_vector(rng, gd.module)))
        res_b_glued = max(res_b_glued, triple_norm(
            lift_to_triple("delta_tensor_id", D, tg, tm) - lift_to_triple("eta_tensor_id", D, tg, tm)))
    # the kernel identities, as the library takes them
    kernel_gap = max(
        (numlin.subspace_gap(numlin.kernel_basis(tensor.eta_minus_delta_matrix(D, k)),
                             gd.stacked_basis[k])
         for k in D.algebra.labels),
        default=0.0,
    )
    # (eta - delta) (x) id in flat coordinates against the flat model basis
    T1, model = flat_eta_minus_delta_tensor_id(D), flat_glued_tensor_subspace_basis(gd)
    tensor_dims = (model.shape[1], kernel(T1).shape[1])
    tensor_gap = numlin.op_norm(T1 @ model)
    return DescentReport(
        counit=res_a, coassoc=res_b, coassoc_glued=res_b_glued,
        cocycle_residual=validate_gluing_datum(D, tol).max_residuals["cocycle"],
        kernel_gap=kernel_gap, tensor_dims=tensor_dims, tensor_gap=tensor_gap,
        tolerances={"counit": EXACT_IDENTITY_TOL, "coassoc": EXACT_IDENTITY_TOL, "kernel": tol},
    )


def object_delta_isometry_residuals(D, zs, b) -> tuple:
    """Suite criterion 3's (B-linearity, level-1, level-2) residuals on model
    vectors: the largest entry of delta(z b) - delta(z) b, and the norm gaps
    of delta at amplification levels 1 and 2."""
    B = sum_algebra(D.algebra, D.cover)
    t = delta_map(D, zs[0])
    lin = pair_coords(delta_map(D, family_right_act(zs[0], b, B)) - pair_right_act(t, b))
    grid = [[zs[0], zs[1]], [zs[2], zs[3]]]
    dgrid = [[delta_map(D, z) for z in row] for row in grid]
    return (
        float(np.abs(lin).max(initial=0.0)),
        abs(pair_norm(t) - family_norm(zs[0])),
        abs(pair_norm_amp2(dgrid) - family_norm_amp2(grid)),
    )


# ---------------------------------------------------------------------------
# Obstruction scalars, one composite at a time


def looped_obstruction_2cocycle(D, tol):
    """morita.obstruction_2cocycle one (triple, label) at a time: the trace-
    normalized scalar f of each composite C and ||C - f I|| from one SVD."""
    out = {}
    for (i, j, l) in D.cover.triples():
        per_block = {}
        for k in sorted(D.cover.overlap(i, j, l)):
            C = D.nu_block(i, j, k) @ D.nu_block(j, l, k) @ D.nu_block(i, l, k).conj().T
            m = C.shape[0]
            f = complex(np.trace(C) / m) if m else 1.0 + 0j
            r = numlin.op_norm(C - f * np.eye(m)) if m else 0.0
            if r > tol:
                raise ModelViolationError(
                    f"transition composite at ({i},{j},{l}) block {k} is not scalar "
                    f"(residual {r:.3e}); a transition is not a bimodule map",
                    residual=r,
                )
            per_block[k] = (f, r)
        out[(i, j, l)] = per_block
    return out


def looped_coboundary_residual(F) -> float:
    """suite._coboundary_residual one quadruple of positions at a time:
    max |f(j,l,m) f(i,l,m)* f(i,j,m) f(i,j,l)* - 1| over the (s, s, s)
    obstruction array F of one label."""
    worst = 0.0
    for i, j, l, m in itertools.product(range(len(F)), repeat=4):
        val = F[j, l, m] * np.conj(F[i, l, m]) * F[i, j, m] * np.conj(F[i, j, l])
        worst = max(worst, abs(val - 1.0))
    return float(worst)


# ---------------------------------------------------------------------------
# The balanced-tensor quotient, one Kronecker product per matrix unit
#
# tensor.generic_balanced_tensor reads each factor as a list of matrix pieces
# and forms a slot's relations on the two factors it touches.  Here each
# factor carries its actions as closures, every relation is expanded to the
# whole plain tensor with one Kronecker product per factor, and the relation
# span and its complement each take an SVD of their own.


@dataclass(eq=False)
class ClosureFactor:
    """A coordinate space with matrix-valued actions of its neighbour algebras."""

    dim: int
    left_algebra: FdCStarAlgebra = None
    right_algebra: FdCStarAlgebra = None
    left_mat: object = None  # AlgebraElement -> (dim, dim) ndarray
    right_mat: object = None


def _block_diag(blocks, dim) -> np.ndarray:
    M = np.zeros((dim, dim), dtype=np.complex128)
    ofs = 0
    for b in blocks:
        d = b.shape[0]
        M[ofs:ofs + d, ofs:ofs + d] = b
        ofs += d
    return M


def closure_family_factor(modules, base) -> ClosureFactor:
    """A per-set module family (one module for X (x) B and Y (x) A|F_j) as a
    left leg with the base algebra acting from the right."""
    modules = tuple(modules)
    dim = sum(m.dim for m in modules)

    def right_mat(a):
        blocks = []
        for mod in modules:
            for lab, m in zip(mod.algebra.labels, mod.mult):
                blocks.append(np.kron(np.eye(m), a.block(lab).T))
        return _block_diag(blocks, dim)

    return ClosureFactor(dim, right_algebra=base, right_mat=right_mat)


def _two_sided_factor(base, labels, block_dims) -> ClosureFactor:
    dim = sum(n * n for n in block_dims)

    def left_mat(a):
        return _block_diag([np.kron(a.block(lab), np.eye(n)) for lab, n in zip(labels, block_dims)], dim)

    def right_mat(a):
        return _block_diag([np.kron(np.eye(n), a.block(lab).T) for lab, n in zip(labels, block_dims)], dim)

    return ClosureFactor(dim, base, base, left_mat, right_mat)


def closure_algebra_summand_factor(base, F) -> ClosureFactor:
    """A restriction A|F as a two-sided leg for the base algebra."""
    sub = restrict_algebra(base, F)
    return _two_sided_factor(base, sub.labels, sub.block_dims)


def closure_b_factor(base, cover) -> ClosureFactor:
    """The sum algebra B as a two-sided leg for the base algebra."""
    B = sum_algebra(base, cover)
    return _two_sided_factor(base, [k for (_, k) in B.flat.labels], B.flat.block_dims)


@dataclass(eq=False)
class KronBalancedTensor:
    plain_dim: int
    relation_basis: np.ndarray
    complement: np.ndarray

    @property
    def dim(self) -> int:
        return self.complement.shape[1]

    @property
    def relation_rank(self) -> int:
        return self.relation_basis.shape[1]


def _slot_matrix(dims, s, M) -> np.ndarray:
    out = np.eye(1, dtype=np.complex128)
    for idx, d in enumerate(dims):
        out = np.kron(out, M if idx == s else np.eye(d))
    return out


def kron_balanced_tensor(factors, tol=numlin.DEFAULT_RANK_TOL) -> KronBalancedTensor:
    """Span the relations x*a (x) y - x (x) a*y in every slot, each matrix
    unit's expanded to the plain tensor on its own, and quotient them out."""
    factors = tuple(factors)
    dims = [f.dim for f in factors]
    plain = int(np.prod(dims))
    rel_cols = []
    for s in range(len(factors) - 1):
        for *_, unit in factors[s].right_algebra.matrix_units():
            diff = (_slot_matrix(dims, s, factors[s].right_mat(unit))
                    - _slot_matrix(dims, s + 1, factors[s + 1].left_mat(unit)))
            keep = diff[:, np.linalg.norm(diff, axis=0) > tensor._RELATION_COLUMN_TOL]
            if keep.size:
                rel_cols.append(keep)
    rel = np.hstack(rel_cols) if rel_cols else np.zeros((plain, 0), dtype=np.complex128)
    return KronBalancedTensor(plain, numlin.orth_basis(rel, tol), numlin.kernel_basis(rel.conj().T, tol))


# ---------------------------------------------------------------------------
# The random stream, one output at a time


class ScalarRng:
    """modglue.rng.Rng as it was before Gaussian blocks were drawn as one
    array: every entry takes two scalar splitmix steps and one
    complex_gauss."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & _MASK
        z = ((z ^ (z >> 27)) * MIX2) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def uniform(self) -> float:
        return ((self.next_u64() >> 11) + 1) * (2.0 ** -53)

    def randint(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def complex_gauss(self) -> complex:
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-math.log(u1))
        return complex(r * math.cos(2 * math.pi * u2), r * math.sin(2 * math.pi * u2))

    def gauss_matrix(self, m: int, n: int) -> np.ndarray:
        out = np.zeros((m, n), dtype=np.complex128)
        for r in range(m):
            for c in range(n):
                out[r, c] = self.complex_gauss()
        return out

    def unit_scalar(self) -> complex:
        phase = 2 * math.pi * self.uniform()
        return complex(math.cos(phase), math.sin(phase))

    def unitary(self, m: int) -> np.ndarray:
        if m == 0:
            return np.zeros((0, 0), dtype=np.complex128)
        G = self.gauss_matrix(m, m)
        Q = np.zeros((m, m), dtype=np.complex128)
        for c in range(m):
            v = G[:, c].copy()
            for p in range(c):
                v -= np.vdot(Q[:, p], v) * Q[:, p]
            for p in range(c):
                v -= np.vdot(Q[:, p], v) * Q[:, p]
            Q[:, c] = v / np.linalg.norm(v)
        return Q
