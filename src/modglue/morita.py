"""Equivalence bimodules over pairs of finite-dimensional C*-algebras with a
shared block label set, their duals and tensor products, gluing of local
Morita equivalences, the unit-scalar obstruction on triple overlaps, and the
conjugation functor between self-equivalence data.

Bimodules are kept in normal form: over (A', A) with blocks (n'_k), (n_k),
the block-k element space is C^{n'_k x n_k}, the right action is plain right
multiplication, and the left action is a' . x = (u_k a'_k u_k*) x for a
stored unitary twist u_k.  Every bimodule isomorphism between normal forms is
left multiplication by a scalar multiple of v u*, which turns most of the
category theory here into closed-form scalar bookkeeping with explicit
residual checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .cstar import (
    AlgebraElement,
    ClosedCover,
    FdCStarAlgebra,
    restrict_algebra,
)
from .errors import InvalidInputError, ModelViolationError
from .gen import random_element, random_vector
from .glue import (
    GluingDatum,
    GluedModule,
    glue,
    make_gluing_datum,
    transition_residuals,
)
from .hmod import (
    HilbertModule,
    ModuleVector,
    inner_product,
    module,
    right_act,
    vec_norm,
)
from .rng import Rng

DEFAULT_TOL = 1e-9


@dataclass(eq=False)
class EquivalenceBimodule:
    """Normal-form equivalence bimodule over (left_algebra, right_algebra)."""

    left_algebra: FdCStarAlgebra
    right_algebra: FdCStarAlgebra
    twist: tuple  # unitary u_k of size n'_k x n'_k per block

    def __post_init__(self):
        if self.left_algebra.labels != self.right_algebra.labels:
            raise InvalidInputError("left and right algebras must share labels")
        self.twist = tuple(
            numlin.as_cmatrix(u, (m, m))
            for u, m in zip(self.twist, self.left_algebra.block_dims)
        )

    @property
    def mult(self) -> tuple:
        return tuple(self.left_algebra.block_dims)

    def right_module(self) -> HilbertModule:
        return module(self.right_algebra, self.mult)

    def twist_at(self, label) -> np.ndarray:
        return self.twist[self.left_algebra.position(label)]


def standard_bimodule(left: FdCStarAlgebra, right: FdCStarAlgebra) -> EquivalenceBimodule:
    return EquivalenceBimodule(
        left, right,
        tuple(np.eye(m, dtype=np.complex128) for m in left.block_dims),
    )


def identity_bimodule(alg: FdCStarAlgebra) -> EquivalenceBimodule:
    return standard_bimodule(alg, alg)


def left_act(M: EquivalenceBimodule, a: AlgebraElement, x: ModuleVector) -> ModuleVector:
    if a.algebra.labels != M.left_algebra.labels:
        raise InvalidInputError("left algebra mismatch")
    blocks = []
    for pos, lab in enumerate(M.left_algebra.labels):
        u = M.twist[pos]
        blocks.append(u @ a.block(lab) @ u.conj().T @ x.block(lab))
    return ModuleVector(x.module, tuple(blocks))


def left_inner(M: EquivalenceBimodule, x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """Left-algebra-valued inner product u* x y* u, linear in the first slot."""
    blocks = []
    for pos, lab in enumerate(M.left_algebra.labels):
        u = M.twist[pos]
        blocks.append(u.conj().T @ x.block(lab) @ y.block(lab).conj().T @ u)
    return AlgebraElement(M.left_algebra, tuple(blocks))


def restrict_bimodule(M: EquivalenceBimodule, F) -> EquivalenceBimodule:
    subL = restrict_algebra(M.left_algebra, F)
    subR = restrict_algebra(M.right_algebra, F)
    return EquivalenceBimodule(
        subL, subR, tuple(M.twist_at(lab) for lab in subL.labels)
    )


@dataclass
class BimoduleValidation:
    shapes: bool
    twist_unitary: bool
    imprimitivity: float
    left_linearity: float
    hermitian: float
    adjoint_compat: float
    full_left: bool
    full_right: bool
    labels_aligned: bool
    tol: float  # the tolerance the residuals were judged at

    @property
    def passed(self) -> bool:
        return (
            self.shapes and self.twist_unitary and self.full_left
            and self.full_right and self.labels_aligned
            and max(self.imprimitivity, self.left_linearity,
                    self.hermitian, self.adjoint_compat) <= self.tol
        )


# The left inner products see u through a -> u* a u, whose singular values
# are the products s_i s_j of u's; this threshold on s_min / s_max is the
# rank threshold on s_min^2 / s_max^2.
_TWIST_RANK_TOL = numlin.DEFAULT_RANK_TOL ** 0.5


def validate_bimodule(M: EquivalenceBimodule, tol: float = DEFAULT_TOL,
                      trials: int = 8, seed: int = 7) -> BimoduleValidation:
    """Check the imprimitivity identities on random vectors, and fullness in
    closed form.

    In normal form the left inner products u* x y* u of block k span
    u* M_m u, which is all of M_m iff u is invertible.  The right inner
    products x* y span M_n whenever m >= 1, and every block of an
    FdCStarAlgebra has m >= 1, so full_right always holds.
    """
    rng = Rng(seed)
    Xr = M.right_module()
    shapes = M.left_algebra.block_dims == tuple(M.mult)
    twist_unitary = all(numlin.is_unitary(u, tol) for u in M.twist)

    imp = lin = herm = adj = 0.0
    for _ in range(trials):
        x = random_vector(rng, Xr)
        y = random_vector(rng, Xr)
        z = random_vector(rng, Xr)
        ap = random_element(rng, M.left_algebra)
        # _A'<x|y> . z = x . <y|z>_A
        lhs = left_act(M, left_inner(M, x, y), z)
        rhs = right_act(x, inner_product(y, z))
        imp = max(imp, vec_norm(lhs - rhs))
        # _A'<a'x|y> = a' _A'<x|y>
        lin = max(lin, (left_inner(M, left_act(M, ap, x), y) - ap * left_inner(M, x, y)).norm())
        # hermitian symmetry
        herm = max(herm, (left_inner(M, x, y).adjoint() - left_inner(M, y, x)).norm())
        # <a'x|y>_A = <x|a'* y>_A
        adj = max(
            adj,
            (inner_product(left_act(M, ap, x), y)
             - inner_product(x, left_act(M, ap.adjoint(), y))).norm(),
        )

    full_left = all(
        numlin.rank(u, _TWIST_RANK_TOL) == m for m, u in zip(M.mult, M.twist)
    )
    return BimoduleValidation(
        shapes, twist_unitary, imp, lin, herm, adj, full_left, True,
        labels_aligned=(M.left_algebra.labels == M.right_algebra.labels), tol=tol,
    )


# ---------------------------------------------------------------------------
# Dual and tensor product


def dual_bimodule(M: EquivalenceBimodule) -> EquivalenceBimodule:
    """The dual (A, A')-bimodule; its twist is the identity in normal form."""
    return standard_bimodule(M.right_algebra, M.left_algebra)


def dual_element(M: EquivalenceBimodule, x: ModuleVector) -> ModuleVector:
    """Element map of the dualization: x |-> x* u, conjugate-linear."""
    dual = dual_bimodule(M)
    tgt = dual.right_module()
    blocks = []
    for pos, lab in enumerate(M.left_algebra.labels):
        blocks.append(x.block(lab).conj().T @ M.twist[pos])
    return ModuleVector(tgt, tuple(blocks))


def tensor_bimodules(M: EquivalenceBimodule, N: EquivalenceBimodule) -> EquivalenceBimodule:
    """Balanced tensor product over the shared middle algebra, in normal form.

    The identification sends x (x) y to x u* y, where u is N's twist; the
    result keeps M's twist.
    """
    if M.right_algebra != N.left_algebra:
        raise InvalidInputError("middle algebras do not match")
    return EquivalenceBimodule(M.left_algebra, N.right_algebra, M.twist)


def tensor_elements(M: EquivalenceBimodule, N: EquivalenceBimodule,
                    x: ModuleVector, y: ModuleVector) -> ModuleVector:
    """Concrete image of the elementary tensor x (x) y under the normal-form
    identification of tensor_bimodules."""
    T = tensor_bimodules(M, N)
    tgt = T.right_module()
    blocks = []
    for pos, lab in enumerate(T.left_algebra.labels):
        u = N.twist_at(lab)
        blocks.append(x.block(lab) @ u.conj().T @ y.block(lab))
    return ModuleVector(tgt, tuple(blocks))


def bimodules_isomorphic(M: EquivalenceBimodule, N: EquivalenceBimodule,
                         tol: float = DEFAULT_TOL):
    """A unitary bimodule isomorphism M -> N (blocks of x |-> W_k x), or None.

    One exists iff the shapes match; the witness is W_k = v_k u_k* built from
    the two twists, verified against both actions and both inner products.
    """
    if (M.left_algebra != N.left_algebra) or (M.right_algebra != N.right_algebra):
        return None
    if M.mult != N.mult:
        return None
    W = tuple(v @ u.conj().T for u, v in zip(M.twist, N.twist))
    if bimodule_morphism_residual(M, N, W) > tol:
        return None
    return W


def bimodule_morphism_residual(M: EquivalenceBimodule, N: EquivalenceBimodule, W) -> float:
    """How far x |-> W_k x is from a bimodule map M -> N preserving both
    inner products (exact formulas, no sampling)."""
    worst = 0.0
    for pos, lab in enumerate(M.left_algebra.labels):
        m = M.mult[pos]
        Wk = W[pos]
        u, v = M.twist[pos], N.twist[pos]
        worst = max(worst, numlin.op_norm(Wk.conj().T @ Wk - np.eye(m)))
        # intertwine left actions: W (u a u*) = (v a v*) W for all a
        # equivalently v* W u central, i.e. scalar
        worst = max(worst, _scalar_of(v.conj().T @ Wk @ u)[1])
        # left inner products: v* (Wx)(Wy)* v = u* x y* u given W = s v u*
    return worst


# ---------------------------------------------------------------------------
# Bimodule gluing data


@dataclass(eq=False)
class BimoduleGluingDatum:
    """Per-set equivalence bimodules plus bimodule-unitary transitions.

    nu maps ordered pairs (i, j) to {label: matrix}; each matrix acts by left
    multiplication N_j|F_ij -> N_i|F_ij and must intertwine both actions,
    which pins it to a unit scalar times v_i v_j* blockwise.
    """

    left_algebra: FdCStarAlgebra
    right_algebra: FdCStarAlgebra
    cover: ClosedCover
    bimodules: tuple  # EquivalenceBimodule over restricted pairs, one per set
    nu: dict  # (i, j) -> {label: ndarray}

    def mult_at(self, i: int, label) -> int:
        return self.bimodules[i].mult[self.bimodules[i].left_algebra.position(label)]

    def nu_block(self, i: int, j: int, label) -> np.ndarray:
        if i == j:
            return np.eye(self.mult_at(i, label), dtype=np.complex128)
        return self.nu[(i, j)][label]

    def twist_at(self, i: int, label) -> np.ndarray:
        return self.bimodules[i].twist_at(label)


def make_bimodule_datum(left: FdCStarAlgebra, right: FdCStarAlgebra,
                        cover: ClosedCover, bimodules, nu_entries) -> BimoduleGluingDatum:
    bimodules = tuple(bimodules)
    if left.labels != right.labels:
        raise InvalidInputError("algebras must share labels")
    if cover.prim_size != left.num_blocks:
        raise InvalidInputError("cover does not match algebras")
    if len(bimodules) != cover.num_sets:
        raise InvalidInputError("one bimodule per cover set required")
    for i, Mi in enumerate(bimodules):
        if Mi.left_algebra != restrict_algebra(left, cover.sets[i]):
            raise InvalidInputError(f"bimodule {i} has wrong left algebra")
        if Mi.right_algebra != restrict_algebra(right, cover.sets[i]):
            raise InvalidInputError(f"bimodule {i} has wrong right algebra")

    nu: dict = {}
    for (i, j, k, Mx) in nu_entries:
        if i == j:
            continue
        if k not in cover.overlap(i, j):
            raise InvalidInputError(f"block {k} not in overlap of sets {i}, {j}")
        shape = (bimodules[i].mult[bimodules[i].left_algebra.position(k)],
                 bimodules[j].mult[bimodules[j].left_algebra.position(k)])
        nu.setdefault((i, j), {})[k] = numlin.as_cmatrix(Mx, shape)
    for i in range(cover.num_sets):
        for j in range(cover.num_sets):
            if i == j:
                continue
            for k in sorted(cover.overlap(i, j)):
                have = (i, j) in nu and k in nu[(i, j)]
                mirror = (j, i) in nu and k in nu[(j, i)]
                if not have and not mirror:
                    raise InvalidInputError(f"missing transition for pair ({i},{j}) block {k}")
                if not have:
                    nu.setdefault((i, j), {})[k] = nu[(j, i)][k].conj().T
    return BimoduleGluingDatum(left, right, cover, bimodules, nu)


@dataclass
class BimoduleDatumValidation:
    bimodules_ok: bool
    transitions_unitary: bool
    transitions_bimodule: float  # residual against scalar * v_i v_j*
    involutive: float
    cocycle: float

    def required_ok(self, tol: float = DEFAULT_TOL) -> bool:
        return (
            self.bimodules_ok and self.transitions_unitary
            and self.transitions_bimodule <= tol and self.involutive <= tol
        )


def validate_bimodule_datum(D: BimoduleGluingDatum, tol: float = DEFAULT_TOL) -> BimoduleDatumValidation:
    """Check the member bimodules and the transitions.

    Unitarity, involution and the cocycle are checked label by label with
    glue.transition_residuals: the transitions are unitary iff every one is
    square with unitarity residual at most tol.  The bimodule-map residual
    stays a loop over pairs.
    """
    bims_ok = all(validate_bimodule(Mi, tol).passed for Mi in D.bimodules)
    unit = True
    bire = invo = coc = 0.0
    for k in D.left_algebra.labels:
        members = D.cover.members(k)
        unitary, nonsquare, involutive, cocycle = transition_residuals(
            members, [D.mult_at(i, k) for i in members],
            lambda i, j: D.nu_block(i, j, k),
        )
        unit = unit and not nonsquare and unitary <= tol
        invo = max(invo, involutive)
        coc = max(coc, cocycle)
    for (i, j) in D.cover.pairs(include_diagonal=False):
        for k in sorted(D.cover.overlap(i, j)):
            W = D.nu_block(i, j, k)
            _, r = _scalar_of(D.twist_at(i, k).conj().T @ W @ D.twist_at(j, k))
            bire = max(bire, r)
    return BimoduleDatumValidation(bims_ok, unit, bire, invo, coc)


def pull_apart_bimodule(M: EquivalenceBimodule, cover: ClosedCover) -> BimoduleGluingDatum:
    bims = tuple(restrict_bimodule(M, F) for F in cover.sets)
    entries = []
    for (i, j) in cover.pairs(include_diagonal=False):
        if i < j:
            for k in sorted(cover.overlap(i, j)):
                m = M.mult[M.left_algebra.position(k)]
                entries.append((i, j, k, np.eye(m, dtype=np.complex128)))
    return make_bimodule_datum(M.left_algebra, M.right_algebra, cover, bims, entries)


def underlying_right_datum(D: BimoduleGluingDatum) -> GluingDatum:
    """Forget the left structure: the right modules with the same transitions."""
    modules = tuple(Mi.right_module() for Mi in D.bimodules)
    entries = []
    for (i, j), blocks in D.nu.items():
        for k, W in blocks.items():
            entries.append((i, j, k, W))
    return make_gluing_datum(D.right_algebra, D.cover, modules, entries)


@dataclass
class GluedBimodule:
    glued: GluedModule
    bimodule: object  # EquivalenceBimodule | None
    left_action_residual: float
    dimension_deficit: dict
    validation: object  # BimoduleValidation | None


def glue_bimodules(D: BimoduleGluingDatum, tol: float = DEFAULT_TOL) -> GluedBimodule:
    """Glue the right modules, then transport and normalize the left action.

    The glued left action of a' acts through the embedding by the per-set
    twists; when the transitions are bimodule maps it is a -> V a V*
    blockwise, and the unitary V, read in closed form from the stacked basis
    and the twists, becomes the glued twist.  A cocycle violation shows up as
    a dimension deficit (the glued module is too small to be full), and a
    transition that is no bimodule map or a member twist that is not unitary
    as a left-action residual above tol; either is reported instead of a
    bimodule.
    """
    gd = glue(underlying_right_datum(D))
    left = D.left_algebra
    deficit = {}
    for pos, k in enumerate(left.labels):
        g = gd.module.mult[pos]
        if g != left.block_dims[pos]:
            deficit[k] = left.block_dims[pos] - g
    if deficit:
        return GluedBimodule(gd, None, float("inf"), deficit, None)

    twists = []
    worst = 0.0
    for k in left.labels:
        V, r = _glued_twist(D, gd, k)
        worst = max(worst, r)
        twists.append(V)
    if worst > tol:
        return GluedBimodule(gd, None, worst, {}, None)

    Mg = EquivalenceBimodule(left, D.right_algebra, tuple(twists))
    return GluedBimodule(gd, Mg, worst, {}, validate_bimodule(Mg, tol))


def _glued_twist(D: BimoduleGluingDatum, gd: GluedModule, k):
    """The glued twist V at label k, and how far the glued left action is
    from a -> V a V*.

    Through the embedding the glued left action is the Kraus sum
    L(a) = sum_i K_i a K_i* with K_i = E_i* v_i, where E_i is member i's
    rows of the stacked basis and v_i its twist.  L(a) = V a V* for a
    unitary V iff K_i = c_i V with sum_i |c_i|^2 = 1, since two Kraus forms
    of one map differ by an isometry.  V is the K_r of largest Frobenius
    norm, divided by its root-mean-square singular value.  The residual is
    the largest of ||V*V - 1||, the non-scalarity of each V* K_i, and
    |sum_i |c_i|^2 - 1| over the trace-normalized scalars c_i of V* K_i.
    """
    E = gd.stacked_basis[k]
    m = E.shape[1]
    if m == 0:
        return np.zeros((0, 0), dtype=np.complex128), 0.0
    K = [E[ofs:ofs + m_i].conj().T @ D.twist_at(i, k) for (i, ofs, m_i) in gd.layout[k]]
    norms = [np.linalg.norm(Ki) for Ki in K]
    r = int(np.argmax(norms))
    c_r = norms[r] / np.sqrt(m)
    V = K[r] / c_r if c_r > 0 else K[r]
    res = numlin.op_norm(V.conj().T @ V - np.eye(m))
    weight = 0.0
    for Ki in K:
        c, nonscalar = _scalar_of(V.conj().T @ Ki)
        res = max(res, nonscalar)
        weight += abs(c) ** 2
    return V, max(res, abs(weight - 1.0))


# ---------------------------------------------------------------------------
# Obstruction scalars


def obstruction_2cocycle(D: BimoduleGluingDatum, tol: float = DEFAULT_TOL) -> dict:
    """Unit scalars f[(i,j,l)][k] measuring the failure of the cocycle law.

    The composite nu_ij nu_jl nu_il* is a bimodule automorphism of one block,
    hence a scalar; the scalar is extracted as the trace-normalized diagonal
    with an explicit non-scalarity failure mode.
    """
    out: dict = {}
    for (i, j, l) in D.cover.triples():
        per_block = {}
        for k in sorted(D.cover.overlap(i, j, l)):
            C = D.nu_block(i, j, k) @ D.nu_block(j, l, k) @ D.nu_block(i, l, k).conj().T
            f, r = _scalar_of(C)
            if r > tol:
                raise ModelViolationError(
                    f"transition composite at ({i},{j},{l}) block {k} is not scalar "
                    f"(residual {r:.3e}); a transition is not a bimodule map",
                    residual=r,
                )
            per_block[k] = f
        out[(i, j, l)] = per_block
    return out


# ---------------------------------------------------------------------------
# Tensor and dual at the datum level; conjugation


def dual_datum(D: BimoduleGluingDatum, tol: float = DEFAULT_TOL) -> BimoduleGluingDatum:
    """Dualize each local bimodule; transitions become conjugated scalars."""
    bims = tuple(dual_bimodule(Mi) for Mi in D.bimodules)
    entries = []
    for (i, j) in D.cover.pairs(include_diagonal=False):
        if i >= j:
            continue
        for k in sorted(D.cover.overlap(i, j)):
            W = D.nu_block(i, j, k)
            s, r = _scalar_of(D.twist_at(i, k).conj().T @ W @ D.twist_at(j, k))
            if r > tol:
                raise ModelViolationError(
                    f"transition ({i},{j}) block {k} is not a bimodule unitary "
                    f"(residual {r:.3e})",
                    residual=r,
                )
            n = D.right_algebra.block_dims[D.right_algebra.position(k)]
            entries.append((i, j, k, np.conj(s) * np.eye(n, dtype=np.complex128)))
    return make_bimodule_datum(
        D.right_algebra, D.left_algebra, D.cover, bims, entries
    )


def datum_tensor(D1: BimoduleGluingDatum, D2: BimoduleGluingDatum,
                 tol: float = DEFAULT_TOL) -> BimoduleGluingDatum:
    """Setwise balanced tensor product of two composable bimodule data.

    The induced transition at (i, j) is s * W1, where s is the scalar of W2
    against the canonical transition between the twists of the right factor.
    """
    if D1.cover != D2.cover:
        raise InvalidInputError("data live over different covers")
    if D1.right_algebra != D2.left_algebra:
        raise InvalidInputError("middle algebras do not match")
    bims = tuple(
        tensor_bimodules(M1, M2) for M1, M2 in zip(D1.bimodules, D2.bimodules)
    )
    entries = []
    for (i, j) in D1.cover.pairs(include_diagonal=False):
        if i >= j:
            continue
        for k in sorted(D1.cover.overlap(i, j)):
            W1 = D1.nu_block(i, j, k)
            W2 = D2.nu_block(i, j, k)
            s, r = _scalar_of(D2.twist_at(i, k).conj().T @ W2 @ D2.twist_at(j, k))
            if r > tol:
                raise ModelViolationError(
                    f"right-factor transition ({i},{j}) block {k} is not a "
                    f"bimodule unitary (residual {r:.3e})",
                    residual=r,
                )
            entries.append((i, j, k, s * W1))
    return make_bimodule_datum(
        D1.left_algebra, D2.right_algebra, D1.cover, bims, entries
    )


def picard_conjugate(D: BimoduleGluingDatum, Mdat: BimoduleGluingDatum,
                     tol: float = DEFAULT_TOL) -> BimoduleGluingDatum:
    """Conjugate a self-equivalence datum over the left algebra into one over
    the right algebra: setwise dual(N) (x) M (x) N.

    D need not satisfy the cocycle; its obstruction scalars cancel between
    the dual leg and the direct leg, so the output is coherent whenever Mdat
    is.
    """
    if Mdat.left_algebra != D.left_algebra or Mdat.right_algebra != D.left_algebra:
        raise InvalidInputError("Mdat must be a self-equivalence datum over D's left algebra")
    return datum_tensor(datum_tensor(dual_datum(D, tol), Mdat, tol), D, tol)


def datum_morphism_residual(src: BimoduleGluingDatum, tgt: BimoduleGluingDatum,
                            witnesses) -> float:
    """How far a per-set family of block matrices is from a morphism of
    bimodule gluing data: each map must be a bimodule unitary and the family
    must intertwine the transitions."""
    worst = 0.0
    cov = src.cover
    for i in range(cov.num_sets):
        worst = max(
            worst,
            bimodule_morphism_residual(src.bimodules[i], tgt.bimodules[i], witnesses[i]),
        )
    for (i, j) in cov.pairs(include_diagonal=False):
        for k in sorted(cov.overlap(i, j)):
            Wi = witnesses[i][sorted(cov.sets[i]).index(k)]
            Wj = witnesses[j][sorted(cov.sets[j]).index(k)]
            lhs = Wi @ src.nu_block(i, j, k)
            rhs = tgt.nu_block(i, j, k) @ Wj
            worst = max(worst, numlin.op_norm(lhs - rhs))
    return worst


def picard_conjugate_morphism(D: BimoduleGluingDatum,
                              src: BimoduleGluingDatum, tgt: BimoduleGluingDatum,
                              witnesses, tol: float = DEFAULT_TOL):
    """The conjugation functor on morphisms: id (x) alpha (x) id, setwise.

    On the concrete models each component reduces to the scalar of alpha_i
    against the canonical comparison of the two middle twists, times the
    identity; the scalar is extracted with an explicit failure mode.
    """
    res = datum_morphism_residual(src, tgt, witnesses)
    if res > tol:
        raise ModelViolationError(
            f"input family is not a morphism of bimodule data (residual {res:.3e})",
            residual=res,
        )
    cov = D.cover
    out = []
    for i in range(cov.num_sets):
        blocks = []
        for pos, k in enumerate(sorted(cov.sets[i])):
            Wk = witnesses[i][pos]
            s, r = _scalar_of(tgt.twist_at(i, k).conj().T @ Wk @ src.twist_at(i, k))
            if r > tol:
                raise ModelViolationError(
                    f"witness at set {i} block {k} is not a bimodule map "
                    f"(residual {r:.3e})",
                    residual=r,
                )
            n = D.right_algebra.block_dims[D.right_algebra.position(k)]
            blocks.append(s * np.eye(n, dtype=np.complex128))
        out.append(tuple(blocks))
    return tuple(out)


def bimodule_data_isomorphic(D1: BimoduleGluingDatum, D2: BimoduleGluingDatum,
                             tol: float = DEFAULT_TOL):
    """Witness isomorphism of bimodule gluing data, or None.

    Per set, candidates are scalar multiples of the canonical twist
    comparison; the scalars are fixed per block by propagating the
    intertwining constraint from the lowest set containing the block, then
    every pair is re-verified.
    """
    if (D1.left_algebra != D2.left_algebra or D1.right_algebra != D2.right_algebra
            or D1.cover != D2.cover):
        return None
    for M1, M2 in zip(D1.bimodules, D2.bimodules):
        if M1.mult != M2.mult:
            return None
    cov = D1.cover

    lam = {}  # (i, label) -> scalar
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
    if datum_morphism_residual(D1, D2, witnesses) > tol:
        return None
    return witnesses


def _canon_matrix(D1, D2, i: int, k) -> np.ndarray:
    """Canonical bimodule unitary N1_i -> N2_i at one block: v2 v1*."""
    return D2.twist_at(i, k) @ D1.twist_at(i, k).conj().T


def _scalar_of(C: np.ndarray):
    """Trace-normalized scalar s of a square C and the residual ||C - s I||;
    (1, 0) for an empty C."""
    m = C.shape[0]
    if m == 0:
        return 1.0 + 0j, 0.0
    s = complex(np.trace(C) / m)
    return s, numlin.op_norm(C - s * np.eye(m))


def _scalar_ratio(Ci, nu1, nu2, Cr):
    """Scalar q with Ci^{-1} nu2 Cr = q nu1 (None if the quotient is not scalar)."""
    m = Ci.shape[0]
    if m == 0:
        return 1.0 + 0j
    Q = Ci.conj().T @ nu2 @ Cr @ nu1.conj().T
    s, r = _scalar_of(Q)
    if r > 1e-8 or abs(s) < 1e-12:
        return None
    return s


# ---------------------------------------------------------------------------
# Random bimodule instances (used by gen)


def random_bimodule(rng: Rng, left: FdCStarAlgebra, right: FdCStarAlgebra) -> EquivalenceBimodule:
    return EquivalenceBimodule(
        left, right, tuple(rng.unitary(m) for m in left.block_dims)
    )


def random_bimodule_datum(rng: Rng, left: FdCStarAlgebra, right: FdCStarAlgebra,
                          cov: ClosedCover, cfg) -> BimoduleGluingDatum:
    """Per-set random twists; transitions are canonical comparisons times
    scalars chosen by the twist mode."""
    bims = tuple(
        random_bimodule(
            rng,
            restrict_algebra(left, cov.sets[i]),
            restrict_algebra(right, cov.sets[i]),
        )
        for i in range(cov.num_sets)
    )
    entries = []
    for i in range(cov.num_sets):
        for j in range(i + 1, cov.num_sets):
            for k in sorted(cov.overlap(i, j)):
                canon = bims[i].twist_at(k) @ bims[j].twist_at(k).conj().T
                if cfg.twist_mode == "coherent":
                    s = 1.0 + 0j
                elif cfg.twist_mode == "random_unitary":
                    s = rng.unit_scalar()
                else:
                    s = 1.0 + 0j
                    block = 0
                    for (pi, pj, re, im) in cfg.phases:
                        if (pi, pj) == (i, j) and k == block:
                            s = complex(re, im)
                        elif (pi, pj) == (j, i) and k == block:
                            s = np.conj(complex(re, im))
                entries.append((i, j, k, s * canon))
    return make_bimodule_datum(left, right, cov, bims, entries)
