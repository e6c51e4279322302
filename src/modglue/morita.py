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
residual checks.  A datum's transition nu_ij is a bimodule map iff
v_i* nu_ij v_j is a scalar c_ij, so the datum-level dual, tensor product,
conjugation and isomorphism are arithmetic on the scalars c, which
transition_cochain reads once per datum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .cstar import (
    AlgebraElement,
    ClosedCover,
    FdCStarAlgebra,
    is_restriction,
    restrict_algebra,
)
from .errors import InvalidInputError, ModelViolationError
from .gen import prescribed_phases
from .glue import (
    GluingDatum,
    GluedModule,
    GlueMorphism,
    glue,
    make_gluing_datum,
    morphism_residual,
    pull_apart,
    validate_gluing_datum,
)
from .hmod import AdjointableMap, HilbertModule, ModuleVector, module
from .numlin import DEFAULT_TOL
from .rng import Rng


def check_twist_count(twist, left: FdCStarAlgebra, name: str = "bimodule") -> None:
    """Refuse a twist list that does not hold one twist per left block,
    naming the bimodule as name ("bimodule 0" for a datum's member 0)."""
    if len(twist) != left.num_blocks:
        raise InvalidInputError(f"{name} has {len(twist)} twists for the "
                                f"{left.num_blocks} blocks of its left algebra")


@dataclass(eq=False)
class EquivalenceBimodule:
    """Normal-form equivalence bimodule over (left_algebra, right_algebra)."""

    left_algebra: FdCStarAlgebra
    right_algebra: FdCStarAlgebra
    twist: tuple  # unitary u_k of size n'_k x n'_k per block

    def __post_init__(self):
        if self.left_algebra.labels != self.right_algebra.labels:
            raise InvalidInputError("left and right algebras must share labels")
        check_twist_count(self.twist, self.left_algebra)
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


# The left inner products see u through a -> u* a u, whose singular values
# are the products s_i s_j of u's; this threshold on s_min / s_max is the
# rank threshold on s_min^2 / s_max^2.
_TWIST_RANK_TOL = numlin.DEFAULT_RANK_TOL ** 0.5


@dataclass
class BimoduleValidation:
    """Closed-form validation of a normal-form equivalence bimodule.

    Per block k with twist u, largest singular value s_max, P = uu* and
    unitarity defect d_k = ||u*u - I|| (numlin.unitarity_defects):

    - left_linearity is max_k d_k s_max^2, the exact sup over unit a', x, y
      of ||_A'<a'x|y> - a' _A'<x|y>||, since
      u*(u a u* x) y* u - a u* x y* u = (u*u - I) a (u* x y* u);
    - imprimitivity is max_k d_k (s_max^2 + 1), an upper bound of the sup
      over unit x, y, z of ||_A'<x|y> z - x <y|z>_A||, since
      P x y* P z - x y* z = (P - I) x y* P z + x y* (P - I) z;
    - full_left holds iff every u_k is invertible, the left inner products
      u* x y* u spanning u* M_m u.

    The other laws hold for every EquivalenceBimodule and have no field:
    hermitian symmetry, as (u* x y* u)* = u* y x* u; adjoint compatibility
    <a'x|y>_A = <x|a'* y>_A, as both sides are x* u a* u* y; the shape law
    m_k = n'_k, as mult is defined as the left block dimensions; right
    fullness, as the x* y span M_n whenever m >= 1, which every block has;
    and label alignment, which EquivalenceBimodule.__post_init__ enforces.
    """

    twist_unitary: bool
    imprimitivity: float
    left_linearity: float
    full_left: bool
    unitarity_defect: dict  # label -> d_k
    rank_margin: dict  # label -> numlin.rank_margin of u_k at _TWIST_RANK_TOL
    tol: float  # the tolerance the residuals were judged at

    @property
    def passed(self) -> bool:
        return (
            self.twist_unitary and self.full_left
            and max(self.imprimitivity, self.left_linearity) <= self.tol
        )


def validate_bimodule(M: EquivalenceBimodule, tol: float = DEFAULT_TOL) -> BimoduleValidation:
    """Validate M from one SVD per twist (see BimoduleValidation).

    A twist counts as invertible iff its rank decision at _TWIST_RANK_TOL
    discards no singular value.
    """
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    defect, margin = {}, {}
    imp = lin = 0.0
    for lab, u in zip(M.left_algebra.labels, M.twist):
        (d,), (s,) = numlin.unitarity_defects(u[None], return_singular_values=True)
        d, top = float(d), float(s[0]) ** 2
        defect[lab] = d
        margin[lab] = numlin.rank_margin(s, u.shape[1], _TWIST_RANK_TOL)
        imp = max(imp, d * (top + 1.0))
        lin = max(lin, d * top)
    return BimoduleValidation(
        twist_unitary=all(d <= tol for d in defect.values()),
        imprimitivity=imp,
        left_linearity=lin,
        full_left=all(dropped is None for _, dropped in margin.values()),
        unitarity_defect=defect,
        rank_margin=margin,
        tol=tol,
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
    for Wk, u, v in zip(W, M.twist, N.twist):
        worst = max(worst, float(numlin.unitarity_defects(Wk[None])[0]))
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

    right is the gluing datum of the members' right modules, and its zeta
    holds the transitions: nu[k] = right.zeta[k] is label k's (s, s, n'_k,
    n'_k) transition stack over cover.members(k).  Each transition acts by
    left multiplication N_j|F_ij -> N_i|F_ij and must intertwine both
    actions, which pins it to a unit scalar times v_i v_j* blockwise.
    right_algebra, cover, nu, mult_at and nu_block read through to right.
    """

    left_algebra: FdCStarAlgebra
    right: GluingDatum
    bimodules: tuple  # EquivalenceBimodule over restricted pairs, one per set

    @property
    def right_algebra(self) -> FdCStarAlgebra:
        return self.right.algebra

    @property
    def cover(self) -> ClosedCover:
        return self.right.cover

    @property
    def nu(self) -> dict:
        return self.right.zeta

    def mult_at(self, i: int, label) -> int:
        return self.right.mult_at(i, label)

    def nu_block(self, i: int, j: int, label) -> np.ndarray:
        return self.right.zeta_block(i, j, label)

    def twist_at(self, i: int, label) -> np.ndarray:
        return self.bimodules[i].twist_at(label)


def make_bimodule_datum(left: FdCStarAlgebra, right: FdCStarAlgebra,
                        cover: ClosedCover, bimodules, nu_entries) -> BimoduleGluingDatum:
    """Normalizing constructor: checks the bimodules' left algebras, then
    builds the right gluing datum of their right modules with
    glue.make_gluing_datum, which checks the right algebras and the
    transitions (i, j, label, matrix)."""
    bimodules = tuple(bimodules)
    if left.labels != right.labels:
        raise InvalidInputError("algebras must share labels")
    if cover.prim_size != left.num_blocks:
        raise InvalidInputError("cover does not match algebras")
    if len(bimodules) != cover.num_sets:
        raise InvalidInputError("one bimodule per cover set required")
    for i, Mi in enumerate(bimodules):
        if not is_restriction(Mi.left_algebra, left, cover.sets[i]):
            raise InvalidInputError(f"bimodule {i} has wrong left algebra")
    modules = tuple(Mi.right_module() for Mi in bimodules)
    return BimoduleGluingDatum(left, make_gluing_datum(right, cover, modules, nu_entries),
                               bimodules)


def transition_cochain(D: BimoduleGluingDatum) -> dict:
    """(i, j, label) -> (c, r) for every transition nu_ij of D, i != j: the
    trace-normalized scalar c of v_i* nu_ij v_j, v the member twists, and its
    residual r = ||v_i* nu_ij v_j - c I||, which vanishes iff nu_ij is the
    bimodule map c v_i v_j*.  One product and one _scalars_of call per label."""
    out = {}
    for k in D.left_algebra.labels:
        members, Z = D.cover.members(k), D.nu[k]
        pa, pb = np.nonzero(~np.eye(len(members), dtype=bool))  # ordered pairs a != b
        V = np.stack([D.twist_at(i, k) for i in members])
        C = V[pa].conj().swapaxes(-1, -2) @ Z[pa, pb] @ V[pb]
        out.update(((members[a], members[b], k), cr)
                   for a, b, cr in zip(pa, pb, zip(*_scalars_of(C))))
    return out


def _bimodule_scalars(D: BimoduleGluingDatum, tol: float, what: str) -> dict:
    """(i, j, label) -> c of transition_cochain for i < j, in sorted order;
    the first transition in that order whose residual exceeds tol raises
    ModelViolationError, what naming it in the message."""
    out = {}
    for (i, j, k), (c, r) in sorted(transition_cochain(D).items()):
        if i >= j:
            continue
        if r > tol:
            raise ModelViolationError(
                f"{what} ({i},{j}) block {k} is not a bimodule unitary "
                f"(residual {r:.3e})",
                residual=r,
            )
        out[(i, j, k)] = c
    return out


@dataclass
class BimoduleDatumValidation:
    bimodules_ok: bool
    transitions_unitary: bool
    transitions_bimodule: float  # residual against scalar * v_i v_j*
    involutive: float
    cocycle: float
    unitary: float  # largest transition unitarity defect
    bimodules: float  # largest member max(imprimitivity, left_linearity)

    def required_ok(self, tol: float = DEFAULT_TOL) -> bool:
        return (
            self.bimodules_ok and self.transitions_unitary
            and self.transitions_bimodule <= tol and self.involutive <= tol
        )


def validate_bimodule_datum(D: BimoduleGluingDatum, tol: float = DEFAULT_TOL) -> BimoduleDatumValidation:
    """Check the member bimodules and the transitions.

    Unitarity, involution and the cocycle are those of
    glue.validate_gluing_datum on the right gluing datum D.right, so the
    transitions are unitary iff each unitarity defect is at most tol.  The
    bimodule-map residual is the largest residual of
    transition_cochain.
    """
    members = [validate_bimodule(Mi, tol) for Mi in D.bimodules]
    right = validate_gluing_datum(D.right, tol)
    res = right.max_residuals
    bire = max((r for _, r in transition_cochain(D).values()), default=0.0)
    return BimoduleDatumValidation(
        all(v.passed for v in members), right.unitary, bire,
        res["involutive"], res["cocycle"], res["unitary"],
        max((max(v.imprimitivity, v.left_linearity) for v in members), default=0.0),
    )


def pull_apart_bimodule(M: EquivalenceBimodule, cover: ClosedCover) -> BimoduleGluingDatum:
    """The canonical datum of a bimodule: the pull-apart of its right module,
    with the restricted twists."""
    bims = tuple(restrict_bimodule(M, F) for F in cover.sets)
    return BimoduleGluingDatum(M.left_algebra, pull_apart(M.right_module(), cover), bims)


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
    bimodule.  A glued bimodule still gets validate_bimodule: a residual at
    most tol leaves V's unitarity defect d at most tol, but the imprimitivity
    bound d (s_max^2 + 1) can exceed tol.
    """
    gd = glue(D.right)
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
    the largest of V's unitarity defect, the non-scalarity of each V* K_i, and
    |sum_i |c_i|^2 - 1| over the trace-normalized scalars c_i of V* K_i,
    all of them from one _scalars_of call.
    """
    R = gd.rows(k)
    m = R.shape[2]
    if m == 0:
        return np.zeros((0, 0), dtype=np.complex128), 0.0
    K = R.conj().swapaxes(-1, -2) @ np.stack([D.twist_at(i, k) for i in D.cover.members(k)])
    norms = [np.linalg.norm(Ki) for Ki in K]
    r = int(np.argmax(norms))
    c_r = norms[r] / np.sqrt(m)
    V = K[r] / c_r if c_r > 0 else K[r]
    res = float(numlin.unitarity_defects(V[None])[0])
    c, nonscalar = _scalars_of(V.conj().T @ K)
    weight = sum(abs(ci) ** 2 for ci in c)
    return V, max(res, *nonscalar, abs(weight - 1.0))


# ---------------------------------------------------------------------------
# Obstruction scalars


def obstruction_2cocycle(D: BimoduleGluingDatum, tol: float = DEFAULT_TOL) -> dict:
    """Unit scalars measuring the failure of the cocycle law: label k ->
    an (s, s, s) array F over the s sets of cover.members(k), F[a, b, c]
    the scalar of nu_ij nu_jl nu_il* for (i, j, l) the members at positions
    (a, b, c).

    The composite is a bimodule automorphism of one block, hence a scalar.
    Each label's composites come from one stacked tensor, their scalars from
    the trace-normalized diagonals and their residuals from one op_norms
    call; the first (i, j, l, label) in lexicographic order whose residual
    exceeds tol raises ModelViolationError.
    """
    out, refused = {}, []
    for k in D.left_algebra.labels:
        members, Z = D.cover.members(k), D.nu[k]
        shape = (len(members),) * 3
        a, b, c = np.indices(shape).reshape(3, -1)
        f, r = _scalars_of(Z[a, b] @ Z[b, c] @ Z[a, c].conj().swapaxes(-1, -2))
        out[k] = np.array(f, dtype=np.complex128).reshape(shape)
        t = next((t for t, rt in enumerate(r) if rt > tol), None)
        if t is not None:
            refused.append((members[a[t]], members[b[t]], members[c[t]], k, r[t]))
    if refused:
        i, j, l, k, r = min(refused)
        raise ModelViolationError(
            f"transition composite at ({i},{j},{l}) block {k} is not scalar "
            f"(residual {r:.3e}); a transition is not a bimodule map",
            residual=r,
        )
    return out


# ---------------------------------------------------------------------------
# Tensor and dual at the datum level; conjugation


def dual_datum(D: BimoduleGluingDatum, tol: float = DEFAULT_TOL) -> BimoduleGluingDatum:
    """Dualize each local bimodule; the transition scalars are conjugated,
    the dual twists being the identity."""
    bims = tuple(dual_bimodule(Mi) for Mi in D.bimodules)
    entries = [(i, j, k, np.conj(c) * _identity(D.right_algebra, k))
               for (i, j, k), c in _bimodule_scalars(D, tol, "transition").items()]
    return make_bimodule_datum(
        D.right_algebra, D.left_algebra, D.cover, bims, entries
    )


def datum_tensor(D1: BimoduleGluingDatum, D2: BimoduleGluingDatum,
                 tol: float = DEFAULT_TOL) -> BimoduleGluingDatum:
    """Setwise balanced tensor product of two composable bimodule data.

    The induced transition at (i, j) is s * W1, where s is D2's transition
    scalar: tensor_bimodules keeps the left factor's twist.
    """
    if D1.cover != D2.cover:
        raise InvalidInputError("data live over different covers")
    if D1.right_algebra != D2.left_algebra:
        raise InvalidInputError("middle algebras do not match")
    bims = tuple(
        tensor_bimodules(M1, M2) for M1, M2 in zip(D1.bimodules, D2.bimodules)
    )
    entries = [(i, j, k, s * D1.nu_block(i, j, k))
               for (i, j, k), s in _bimodule_scalars(D2, tol, "right-factor transition").items()]
    return make_bimodule_datum(
        D1.left_algebra, D2.right_algebra, D1.cover, bims, entries
    )


def picard_conjugate(D: BimoduleGluingDatum, Mdat: BimoduleGluingDatum,
                     tol: float = DEFAULT_TOL) -> BimoduleGluingDatum:
    """Conjugate a self-equivalence datum over the left algebra into one over
    the right algebra: setwise dual(N) (x) M (x) N, which in normal form has
    identity twists and transitions conj(c_D) c_M c_D I.

    D's transitions are checked before Mdat's.  D need not satisfy the
    cocycle; its obstruction scalars cancel between the dual leg and the
    direct leg, so the output is coherent whenever Mdat is.
    """
    if Mdat.left_algebra != D.left_algebra or Mdat.right_algebra != D.left_algebra:
        raise InvalidInputError("Mdat must be a self-equivalence datum over D's left algebra")
    c_D = _bimodule_scalars(D, tol, "transition")
    if Mdat.cover != D.cover:
        raise InvalidInputError("data live over different covers")
    c_M = _bimodule_scalars(Mdat, tol, "right-factor transition")
    B = D.right_algebra
    bims = tuple(identity_bimodule(N.right_algebra) for N in D.bimodules)
    entries = [(i, j, k, c * (c_M[(i, j, k)] * (np.conj(c) * _identity(B, k))))
               for (i, j, k), c in c_D.items()]
    return make_bimodule_datum(B, B, D.cover, bims, entries)


def _identity(alg: FdCStarAlgebra, label) -> np.ndarray:
    return np.eye(alg.block_dims[alg.position(label)], dtype=np.complex128)


def datum_morphism_residual(src: BimoduleGluingDatum, tgt: BimoduleGluingDatum,
                            witnesses) -> float:
    """How far a per-set family of block matrices is from a morphism of
    bimodule gluing data: each map must be a bimodule unitary, and the family
    must intertwine the transitions, as glue.morphism_residual measures on
    the right gluing data."""
    worst = max((bimodule_morphism_residual(M, N, W)
                 for M, N, W in zip(src.bimodules, tgt.bimodules, witnesses)), default=0.0)
    maps = tuple(AdjointableMap(Z, Y, tuple(W))
                 for Z, Y, W in zip(src.right.modules, tgt.right.modules, witnesses))
    return max(worst, morphism_residual(GlueMorphism(src.right, tgt.right, maps)))


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
            blocks.append(s * _identity(D.right_algebra, k))
        out.append(tuple(blocks))
    return tuple(out)


def bimodule_data_isomorphic(D1: BimoduleGluingDatum, D2: BimoduleGluingDatum,
                             tol: float = DEFAULT_TOL):
    """Witness isomorphism of bimodule gluing data, or None.

    Per set, candidates are scalar multiples lambda_i v2_i v1_i* of the
    canonical twist comparison.  The intertwining constraint at (i, root),
    root the lowest set containing the block, reads lambda_i c1 = c2
    lambda_root in the transition scalars, so lambda_root = 1 and
    lambda_i = c2[i, root] / c1[i, root]; then every pair is re-verified.
    """
    if (D1.left_algebra != D2.left_algebra or D1.right_algebra != D2.right_algebra
            or D1.cover != D2.cover):
        return None
    for M1, M2 in zip(D1.bimodules, D2.bimodules):
        if M1.mult != M2.mult:
            return None
    cov = D1.cover
    c1, c2 = transition_cochain(D1), transition_cochain(D2)

    lam = {}  # (i, label) -> scalar
    for k in D1.left_algebra.labels:
        root, *rest = cov.members(k)
        lam[(root, k)] = 1.0 + 0j
        for i in rest:
            (s1, _), (s2, _) = c1[(i, root, k)], c2[(i, root, k)]
            if abs(s1) < _SCALAR_ZERO_TOL:
                return None
            lam[(i, k)] = s2 / s1

    witnesses = tuple(
        tuple(lam[(i, k)] * (D2.twist_at(i, k) @ D1.twist_at(i, k).conj().T)
              for k in sorted(cov.sets[i]))
        for i in range(cov.num_sets)
    )
    if datum_morphism_residual(D1, D2, witnesses) > tol:
        return None
    return witnesses


#: bimodule_data_isomorphic divides by c1 and refuses |c1| below this;
#: absolute, as a bimodule unitary has |c1| = 1.
_SCALAR_ZERO_TOL = 1e-12


def _scalar_of(C: np.ndarray):
    """Trace-normalized scalar s of a square C and the residual ||C - s I||;
    (1, 0) for an empty C."""
    (s,), (r,) = _scalars_of(C[None])
    return s, r


def _scalars_of(C: np.ndarray):
    """_scalar_of of each matrix of a (count, m, m) stack: the scalars, from
    one trace each, and the residuals, from one op_norms call."""
    m = C.shape[-1]
    if m == 0:
        return [1.0 + 0j] * len(C), [0.0] * len(C)
    s = np.array([complex(np.trace(c) / m) for c in C], dtype=np.complex128)
    return s.tolist(), numlin.op_norms(C - s[:, None, None] * np.eye(m)).tolist()


# ---------------------------------------------------------------------------
# Random bimodule instances (used by gen)


def random_bimodule(rng: Rng, left: FdCStarAlgebra, right: FdCStarAlgebra) -> EquivalenceBimodule:
    return EquivalenceBimodule(
        left, right, tuple(rng.unitary(m) for m in left.block_dims)
    )


def random_bimodule_datum(rng: Rng, left: FdCStarAlgebra, right: FdCStarAlgebra,
                          cov: ClosedCover, cfg) -> BimoduleGluingDatum:
    """Per-set random twists; transitions are canonical comparisons times
    scalars chosen by the twist mode; prescribed phases are those of
    gen.prescribed_phases, as in gen.random_gluing_datum."""
    bims = tuple(
        random_bimodule(
            rng,
            restrict_algebra(left, cov.sets[i]),
            restrict_algebra(right, cov.sets[i]),
        )
        for i in range(cov.num_sets)
    )
    phase = prescribed_phases(cov, cfg)
    entries = []
    for i in range(cov.num_sets):
        for j in range(i + 1, cov.num_sets):
            for k in sorted(cov.overlap(i, j)):
                canon = bims[i].twist_at(k) @ bims[j].twist_at(k).conj().T
                if cfg.twist_mode == "random_unitary":
                    s = rng.unit_scalar()
                else:
                    s = phase.get((i, j, k), 1.0 + 0j)
                entries.append((i, j, k, s * canon))
    return make_bimodule_datum(left, right, cov, bims, entries)
