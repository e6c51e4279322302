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
    _intertwining_residual,
    _member_stacks,
    glue,
    make_gluing_datum,
    pull_apart,
    validate_gluing_datum,
)
from .hmod import HilbertModule, ModuleVector, module
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


def _twist_validation(stacks, keys, tol: float) -> BimoduleValidation:
    """BimoduleValidation of the twists of the (count, m, m) stacks, keyed in
    order by keys, from one unitarity_defects call per stack."""
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    defect, margin = {}, {}
    imp = lin = 0.0
    keys = iter(keys)
    for U in stacks:
        for d, s in zip(*numlin.unitarity_defects(U, return_singular_values=True)):
            key, d, top = next(keys), float(d), float(s[0]) ** 2
            defect[key] = d
            margin[key] = numlin.rank_margin(s, U.shape[-1], _TWIST_RANK_TOL)
            imp, lin = max(imp, d * (top + 1.0)), max(lin, d * top)
    return BimoduleValidation(
        twist_unitary=all(d <= tol for d in defect.values()),
        imprimitivity=imp,
        left_linearity=lin,
        full_left=all(dropped is None for _, dropped in margin.values()),
        unitarity_defect=defect,
        rank_margin=margin,
        tol=tol,
    )


def validate_bimodule(M: EquivalenceBimodule, tol: float = DEFAULT_TOL) -> BimoduleValidation:
    """Validate M from one SVD per twist (see BimoduleValidation).

    A twist counts as invertible iff its rank decision at _TWIST_RANK_TOL
    discards no singular value.
    """
    return _twist_validation((u[None] for u in M.twist), M.left_algebra.labels, tol)


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

    One exists iff the algebras match, which fixes the shapes; the witness
    is W_k = v_k u_k* built from the two twists, verified against both
    actions and both inner products.
    """
    if (M.left_algebra != N.left_algebra) or (M.right_algebra != N.right_algebra):
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
    n'_k) transition stack over cover.members(k), and twist[k] the complex128
    (s, n'_k, n'_k) stack of the member twists over the same slots.  Each
    transition acts by left multiplication N_j|F_ij -> N_i|F_ij and must
    intertwine both actions, which pins it to a unit scalar times v_i v_j*
    blockwise.  right_algebra, cover and nu read through to right, and the
    multiplicity at k is right.label_mult(k) = n'_k.
    """

    left_algebra: FdCStarAlgebra
    right: GluingDatum
    twist: dict  # label -> (s, n'_k, n'_k) member twist stack

    @property
    def right_algebra(self) -> FdCStarAlgebra:
        return self.right.algebra

    @property
    def cover(self) -> ClosedCover:
        return self.right.cover

    @property
    def nu(self) -> dict:
        return self.right.zeta

    def twist_at(self, i: int, label) -> np.ndarray:
        return self.twist[label][self.cover.member_positions[label][i]]


def make_bimodule_datum(left: FdCStarAlgebra, right: FdCStarAlgebra,
                        cover: ClosedCover, bimodules, nu_entries) -> BimoduleGluingDatum:
    """Normalizing constructor: checks the bimodules' left and right
    algebras, builds the right gluing datum of the transitions (i, j, label,
    matrix) with glue.make_gluing_datum at the multiplicities left.block_dims
    (n'_k in every member owning k), and stacks the twists per label."""
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
        if not is_restriction(Mi.right_algebra, right, cover.sets[i]):
            raise InvalidInputError(f"module {i} is not over A restricted to cover set {i}")
    twist = {k: np.stack([bimodules[i].twist_at(k) for i in cover.members(k)]) for k in left.labels}
    return BimoduleGluingDatum(left, make_gluing_datum(right, cover, left.block_dims, nu_entries), twist)


def transition_cochain(D: BimoduleGluingDatum) -> dict:
    """label -> (C, R), two (s, s) arrays over cover.members(k): C[a, b] is
    the trace-normalized scalar of v_a* nu_ab v_b, v = D.twist[k] the member
    twists, and R[a, b] = ||v_a* nu_ab v_b - C[a, b] I||, which vanishes iff
    nu_ab is the bimodule map C[a, b] v_a v_b*; C[a, a] = 1 and R[a, a] = 0.
    One product and one _scalars_of call per label."""
    out = {}
    for k in D.left_algebra.labels:
        Z, V = D.nu[k], D.twist[k]
        out[k] = C, R = np.ones(Z.shape[:2], dtype=np.complex128), np.zeros(Z.shape[:2])
        if len(Z) > 1:  # a label of one member set has only the diagonal
            pa, pb = np.nonzero(~np.eye(len(Z), dtype=bool))  # ordered pairs a != b
            C[pa, pb], R[pa, pb] = _scalars_of(V[pa].conj().swapaxes(-1, -2) @ Z[pa, pb] @ V[pb])
    return out


def _bimodule_scalars(D: BimoduleGluingDatum, tol: float, what: str) -> dict:
    """label -> C of transition_cochain(D); the first transition (i, j,
    label), i < j, in lexicographic order whose residual exceeds tol raises
    ModelViolationError, what naming it in the message."""
    out, refused = {}, []
    for k, (C, R) in transition_cochain(D).items():
        members, out[k] = D.cover.members(k), C
        refused += [(members[a], members[b], k, r) for a, row in enumerate(R.tolist())
                    for b, r in enumerate(row) if a < b and r > tol]
    if refused:
        i, j, k, r = min(refused)
        raise ModelViolationError(
            f"{what} ({i},{j}) block {k} is not a bimodule unitary "
            f"(residual {r:.3e})",
            residual=r,
        )
    return out


def _derived_datum(left: FdCStarAlgebra, right: FdCStarAlgebra, cover: ClosedCover,
                   twist: dict, nu: dict) -> BimoduleGluingDatum:
    """A bimodule datum derived from valid data, built without the checks of
    make_bimodule_datum from its twist and transition stacks; the part of a
    transition stack below the diagonal of the (s, s) grid is overwritten
    with the adjoints of the part above, as make_gluing_datum mirrors a
    pair given once."""
    for Z in nu.values():
        a, b = np.nonzero(np.tri(len(Z), k=-1, dtype=bool))  # pairs a > b
        Z[a, b] = Z[b, a].conj().swapaxes(-1, -2)
    return BimoduleGluingDatum(left, GluingDatum(right, cover, nu), twist)


@dataclass
class BimoduleDatumValidation:
    bimodules_ok: bool
    transitions_unitary: bool
    transitions_bimodule: float  # residual against scalar * v_i v_j*
    involutive: float
    cocycle: float
    unitary: float  # largest transition unitarity defect
    bimodules: float  # largest member max(imprimitivity, left_linearity)
    tol: float  # the tolerance the residuals were judged at

    @property
    def required_ok(self) -> bool:
        return (
            self.bimodules_ok and self.transitions_unitary
            and self.transitions_bimodule <= self.tol and self.involutive <= self.tol
        )


def validate_bimodule_datum(D: BimoduleGluingDatum, tol: float = DEFAULT_TOL) -> BimoduleDatumValidation:
    """Check the member bimodules and the transitions.

    bimodules_ok holds iff every member bimodule passes validate_bimodule, and
    bimodules is the largest member max(imprimitivity, left_linearity), from
    one unitarity_defects call per twist stack.  Unitarity, involution and
    the cocycle are those of glue.validate_gluing_datum on D.right, so the
    transitions are unitary iff each unitarity defect is at most tol.  The
    bimodule-map residual is the largest residual of transition_cochain.
    """
    members = _twist_validation(D.twist.values(),
                                [(k, i) for k in D.twist for i in D.cover.members(k)], tol)
    right = validate_gluing_datum(D.right, tol)
    res = right.max_residuals
    bire = max((float(R.max()) for _, R in transition_cochain(D).values()), default=0.0)
    return BimoduleDatumValidation(
        members.passed, right.unitary, bire, res["involutive"], res["cocycle"], res["unitary"],
        max(members.imprimitivity, members.left_linearity), tol,
    )


def pull_apart_bimodule(M: EquivalenceBimodule, cover: ClosedCover) -> BimoduleGluingDatum:
    """The canonical datum of a bimodule: the pull-apart of its right module,
    with the restricted twists."""
    return BimoduleGluingDatum(M.left_algebra, pull_apart(M.right_module(), cover),
                               _member_stacks(cover, M.left_algebra.labels, M.twist))


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
    K = R.conj().swapaxes(-1, -2) @ D.twist[k]
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
    B = D.right_algebra
    I = B.identity()
    nu = {k: np.conj(C)[..., None, None] * I.block(k)
          for k, C in _bimodule_scalars(D, tol, "transition").items()}
    return _derived_datum(B, D.left_algebra, D.cover, _member_stacks(D.cover, B.labels, I.blocks), nu)


def datum_tensor(D1: BimoduleGluingDatum, D2: BimoduleGluingDatum,
                 tol: float = DEFAULT_TOL) -> BimoduleGluingDatum:
    """Setwise balanced tensor product of two composable bimodule data.

    Label k's transition stack is C2 nu1, C2 the (s, s) scalars of D2's
    transition cochain: tensor_bimodules keeps the left factor's twist.
    """
    if D1.cover != D2.cover:
        raise InvalidInputError("data live over different covers")
    if D1.right_algebra != D2.left_algebra:
        raise InvalidInputError("middle algebras do not match")
    nu = {k: C[..., None, None] * D1.nu[k]
          for k, C in _bimodule_scalars(D2, tol, "right-factor transition").items()}
    return _derived_datum(D1.left_algebra, D2.right_algebra, D1.cover, D1.twist, nu)


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
    I = B.identity()
    nu = {k: C[..., None, None] * (c_M[k][..., None, None] * (np.conj(C)[..., None, None] * I.block(k)))
          for k, C in c_D.items()}
    return _derived_datum(B, B, D.cover, _member_stacks(D.cover, B.labels, I.blocks), nu)


def _witness_scalars(src: BimoduleGluingDatum, tgt: BimoduleGluingDatum, witnesses):
    """datum_morphism_residual, and label -> the scalars c of v_tgt* W v_src."""
    worst, scalars = 0.0, {}
    for k in src.left_algebra.labels:
        W = witnesses[k]
        scalars[k], r = _scalars_of(tgt.twist[k].conj().swapaxes(-1, -2) @ W @ src.twist[k])
        worst = max(worst, float(numlin.unitarity_defects(W).max()), *r,
                    _intertwining_residual(W, src.nu[k], tgt.nu[k]))
    return worst, scalars


def datum_morphism_residual(src: BimoduleGluingDatum, tgt: BimoduleGluingDatum,
                            witnesses) -> float:
    """How far witnesses, label k -> an (s, n'_k, n'_k) stack W over
    cover.members(k), are from a morphism of bimodule data: the largest
    unitarity defect of a W_a, distance of v_tgt* W_a v_src from a scalar
    (W_a is a bimodule map iff it is one) and ||W_a nu_ab - nu'_ab W_b||."""
    return _witness_scalars(src, tgt, witnesses)[0]


def picard_conjugate_morphism(D: BimoduleGluingDatum,
                              src: BimoduleGluingDatum, tgt: BimoduleGluingDatum,
                              witnesses, tol: float = DEFAULT_TOL) -> dict:
    """The conjugation functor on morphisms: id (x) alpha (x) id, setwise.

    Takes and returns witness stacks as datum_morphism_residual does: label
    k -> c[:, None, None] I, c the scalars of v_tgt* W v_src.  Witnesses whose
    residual, which bounds each scalar's, exceeds tol raise ModelViolationError.
    """
    res, scalars = _witness_scalars(src, tgt, witnesses)
    if res > tol:
        raise ModelViolationError(
            f"input family is not a morphism of bimodule data (residual {res:.3e})",
            residual=res,
        )
    I = D.right_algebra.identity()
    return {k: np.array(c, dtype=np.complex128)[:, None, None] * I.block(k) for k, c in scalars.items()}


def bimodule_data_isomorphic(D1: BimoduleGluingDatum, D2: BimoduleGluingDatum,
                             tol: float = DEFAULT_TOL):
    """Witness isomorphism of bimodule gluing data, label k -> the stack
    lambda[:, None, None] (v2 v1*) over cover.members(k), or None.

    Per member, candidates are scalar multiples lambda_a v2_a v1_a* of the
    canonical twist comparison (equal left algebras fix the shapes).  The
    intertwining constraint at (a, root), root the lowest set containing the
    block, reads lambda_a c1 = c2 lambda_root in the transition scalars, so
    lambda_root = 1 and lambda_a = c2[a, root] / c1[a, root]; then every
    pair is re-verified.
    """
    if (D1.left_algebra != D2.left_algebra or D1.right_algebra != D2.right_algebra
            or D1.cover != D2.cover):
        return None
    c1, c2 = transition_cochain(D1), transition_cochain(D2)
    if any((abs(C1[:, 0]) < _SCALAR_ZERO_TOL).any() for C1, _ in c1.values()):
        return None
    witnesses = {k: (c2[k][0][:, 0] / C1[:, 0])[:, None, None]
                 * (D2.twist[k] @ D1.twist[k].conj().swapaxes(-1, -2))
                 for k, (C1, _) in c1.items()}
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
    one batched trace, and the residuals, from one op_norms call."""
    m = C.shape[-1]
    if not C.size:  # m = 0, or no matrices
        return [1.0 + 0j] * len(C), [0.0] * len(C)
    s = np.trace(C, axis1=1, axis2=2) / m
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
