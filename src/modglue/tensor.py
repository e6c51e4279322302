"""Finite models of the balanced tensor products used by the gluing theory,
their structural maps, and a brute-force balanced-quotient oracle.

For a family Z = (Z_i) over the restrictions A|F_i, the tensor square with
the sum algebra B is modelled by components indexed by ordered pairs (i, j)
with nonempty overlap: the component of an elementary tensor z (x) b at (i, j)
is z_i|F_ij * b_j|F_ij.  The cube gets ordered triples.  These projections
separate points, so the models are definitional; the independent oracle is a
generic quotient of the plain coordinate tensor space by the span of the
balancing relations, built from nothing but action matrices and an SVD.

The structural maps (delta, epsilon, the one-leg lifts) are given label by
label as multiplicity matrices T_k acting on stacked slot arrays; the
object-level maps on model vectors are the test oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import numlin
from .cstar import (
    AlgebraElement,
    ClosedCover,
    FdCStarAlgebra,
    restrict_algebra,
    sum_algebra,
)
from .errors import InvalidInputError
from .hmod import (
    HilbertModule,
    ModuleVector,
    coords,
    from_coords,
    inner_product,
    restrict_module,
    right_act,
)
from .numlin import DEFAULT_TOL, place_blocks
from .rng import Rng

# ---------------------------------------------------------------------------
# Pair and triple models


@dataclass(eq=False)
class TensorModel:
    """Component spaces Z_i|F_ij (pair model) or Z_i|F_ijl (triple model), one
    per entry: the ordered pairs, resp. triples, of sets with nonempty overlap."""

    cover: ClosedCover
    modules: tuple  # Z_i over A|F_i
    entries: tuple  # (i, j) or (i, j, l), lexicographic

    def __post_init__(self):
        self.index = {e: n for n, e in enumerate(self.entries)}
        self.spaces = tuple(
            restrict_module(self.modules[e[0]], self.cover.overlap(*e)) for e in self.entries
        )
        dims = [s.dim for s in self.spaces]
        self.offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        self.dim = int(self.offsets[-1])


def pair_model(datum) -> TensorModel:
    return TensorModel(datum.cover, tuple(datum.modules), tuple(datum.cover.pairs()))


def triple_model(datum) -> TensorModel:
    return TensorModel(datum.cover, tuple(datum.modules), tuple(datum.cover.triples()))


# ---------------------------------------------------------------------------
# Coordinates


def family_coords(parts) -> np.ndarray:
    arrs = [coords(p) for p in parts]
    return np.concatenate(arrs) if arrs else np.zeros(0, dtype=np.complex128)


# ---------------------------------------------------------------------------
# Per-label matrices of the structural maps
#
# Up to a fixed permutation of flat coordinates, every structural map below is
# the direct sum over block labels k of T_k (x) I_{n_k}, where T_k acts on
# multiplicity indices only; its kernel is the direct sum of ker T_k (x) C^{n_k}.
# Each function returns T_k for one label k.  The slots of label k are keyed by
# tuples of the member sets of k (one set for a family, pairs and triples for
# the tensor models), in lexicographic order; every slot has m_k rows, the
# label's multiplicity.  A map is applied to many vectors at once by stacking
# their slots of label k as the rows of a (trials, rows, n_k) array, which
# with s members reshapes to (trials, s, ..., s, m_k, n_k), one axis per key
# position.
#
# T_k is assembled by numlin.place_blocks from index arithmetic on the slot
# keys: with s members, a key of arity p is the base-s number of its member
# positions, and each leg of a map places one block in every row slot at
# once.  The per-slot term lists it replaces, tests/oracles.py's
# block_matrix, are the reference.


def _unit_plus_delta(datum, k, level: int, unit: float, delta: float) -> np.ndarray:
    """T_k of unit * (eta (x) id^level) + delta * (delta (x) id^level): slot
    (i, j, *r) receives unit times slot (i, *r) plus delta times zeta_ij
    applied to slot (j, *r).  A zero coefficient drops its leg.

    With s members and R = s^level, row slot t = (a, b, r) in base s has
    a * R + r = (t // sR) * R + t % R and b * R + r = t % sR as its two
    column slots, and (a, b) = t // R picks zeta_ab.
    """
    s, m = len(datum.cover.members(k)), datum.label_mult(k)
    R = s ** level
    t = np.arange(s * s * R)
    legs = []
    if unit:
        legs.append((t // (s * R) * R + t % R, unit * np.eye(m)))
    if delta:
        legs.append((t % (s * R), (delta * datum.zeta[k]).reshape(s * s, m, m)[t // R]))
    return place_blocks(s * s * R, s * R, (m, m), legs)


def delta_map(datum, k) -> np.ndarray:
    """T_k of the comultiplication: pair slot (i, j) receives zeta_ij applied
    to family slot (j)."""
    return _unit_plus_delta(datum, k, 0, 0.0, 1.0)


def epsilon_map(datum, k) -> np.ndarray:
    """T_k of the counit: family slot (i) receives pair slot (i, i)."""
    s, m = len(datum.cover.members(k)), datum.label_mult(k)
    return place_blocks(s, s * s, (m, m), [(np.arange(s) * (s + 1), np.eye(m))])


#: lift_to_triple kinds, as the (unit, delta) coefficients of _unit_plus_delta.
_LIFTS = {"eta_tensor_id": (1.0, 0.0), "delta_tensor_id": (0.0, 1.0)}


def lift_to_triple(kind: str, datum, k) -> np.ndarray:
    """T_k of a one-leg amplification from pair slots to triple slots:
    eta (x) id sends pair slot (i, l) to triple slot (i, j, l), and
    delta (x) id sends pair slot (j, l) there through zeta_ij."""
    if kind not in _LIFTS:
        raise InvalidInputError(f"unknown lift kind {kind!r}; expected one of {tuple(_LIFTS)}")
    return _unit_plus_delta(datum, k, 1, *_LIFTS[kind])


def eta_minus_delta_matrix(datum, k) -> np.ndarray:
    """T_k of eta - delta: family slots i -> pair slots (i, j)."""
    return _unit_plus_delta(datum, k, 0, 1.0, -1.0)


def eta_minus_delta_tensor_id_matrix(datum, k) -> np.ndarray:
    """T_k of (eta - delta) (x) id: pair slots (i, l) -> triple slots (i, j, l)."""
    return _unit_plus_delta(datum, k, 1, 1.0, -1.0)


def family_stack(families, datum, k) -> np.ndarray:
    """Family slots of label k of each family (z_i), as a (trials, rows, n_k)
    array: row block i of entry t is z_i's block k."""
    members = datum.cover.members(k)
    rows = len(members) * datum.label_mult(k)
    n = datum.algebra.block_dims[datum.algebra.position(k)]
    out = np.empty((len(families), rows, n), dtype=np.complex128)
    for t, z in enumerate(families):
        out[t] = np.concatenate([z[i].block(k) for i in members])
    return out


def image_eta_matrices(X: HilbertModule, cover: ClosedCover, k):
    """The two maps of the image-of-the-unit identity at label k.

    Returns (M_unit, M_eta_id, M_id_etaB): T_k of x |-> (x|F_i)_i from the
    module slot to the family slots, and of the two maps from family slots to
    pair slots whose difference has the unit's image as kernel: slot (i, j)
    equal to t_j, resp. t_i.
    """
    s = len(cover.members(k))
    m = X.mult[X.algebra.position(k)]
    eye, t = np.eye(m), np.arange(s * s)
    M_unit = place_blocks(s, 1, (m, m), [(np.zeros(s, dtype=int), eye)])
    M_eta_id = place_blocks(s * s, s, (m, m), [(t % s, eye)])
    M_id_etaB = place_blocks(s * s, s, (m, m), [(t // s, eye)])
    return M_unit, M_eta_id, M_id_etaB


def glued_tensor_subspace_basis(glued, k) -> np.ndarray:
    """Orthonormal basis, over the pair slots of label k, of the image of
    (glued (x) B).

    The sum over l of the restrictions G|F_l maps into the pair model by
    sending the l-th summand to the slots (i, l) through the embedding, whose
    rows for set i are those of E_k times sqrt(#members).  Without that
    factor the columns for one l are E_k's, orthonormal, and columns for
    different l have disjoint supports: they are the basis as they stand.
    """
    R = glued.rows(k)
    s = len(R)
    t = np.arange(s * s)
    return place_blocks(s * s, s, R.shape[1:], [(t % s, R[t // s])])


# ---------------------------------------------------------------------------
# Psi and nu evaluators


@dataclass(eq=False)
class PsiIso:
    """Evaluator for the unitary X (x) B ~ direct sum of the restrictions."""

    module: HilbertModule
    cover: ClosedCover
    summands: tuple  # X|F_i

    def apply(self, x: ModuleVector, b: AlgebraElement):
        """Image of the elementary tensor x (x) b: the family (x|F_i * b_i)."""
        parts = []
        for i, Xi in enumerate(self.summands):
            labels = Xi.algebra.labels
            xi = ModuleVector(Xi, tuple(x.block(k) for k in labels))
            bi = AlgebraElement(Xi.algebra, tuple(b.block((i, k)) for k in labels))
            parts.append(right_act(xi, bi))
        return tuple(parts)


def psi_iso(X: HilbertModule, cover: ClosedCover) -> PsiIso:
    if cover.prim_size != X.algebra.num_blocks:
        raise InvalidInputError("cover does not match module algebra")
    return PsiIso(X, cover, tuple(restrict_module(X, F) for F in cover.sets))


@dataclass(eq=False)
class NuIso:
    """Evaluator for Y (x) A|F_j ~ Y|F_ij and its inverse, Y over A|F_i."""

    source: HilbertModule  # Y
    summand_j: FdCStarAlgebra  # A|F_j
    target: HilbertModule  # Y|F_ij

    def apply(self, y: ModuleVector, a: AlgebraElement) -> ModuleVector:
        """y (x) a |-> y|F_ij * a|F_ij."""
        sub = self.target.algebra
        y_ij = ModuleVector(self.target, tuple(y.block(k) for k in sub.labels))
        return right_act(y_ij, AlgebraElement(sub, tuple(a.block(k) for k in sub.labels)))

    def inverse(self, v: ModuleVector):
        """A representative (y, a) with nu(y (x) a) = v: zero-padded lift and unit."""
        y = self.source.zero_vector()
        for k in self.target.algebra.labels:
            y.blocks[self.source.algebra.position(k)][:, :] = v.block(k)
        return y, self.summand_j.identity()


def nu_iso(Y: HilbertModule, base: FdCStarAlgebra, F_j) -> NuIso:
    F_j = frozenset(F_j)
    F_ij = frozenset(Y.algebra.labels) & F_j
    return NuIso(Y, restrict_algebra(base, F_j), restrict_module(Y, F_ij))


# ---------------------------------------------------------------------------
# Generic balanced tensor quotient (the oracle)


@dataclass(eq=False)
class TensorFactor:
    """A coordinate space of matrix blocks with the actions of its neighbour
    algebras.

    Each piece (rows, cols, left_label, right_label) is a rows x cols block,
    flattened row-major after the pieces before it.  Block left_label of the
    left algebra multiplies it from the left, block right_label of the right
    algebra from the right; a label is None where no algebra acts.
    """

    pieces: tuple
    left_algebra: FdCStarAlgebra = None
    right_algebra: FdCStarAlgebra = None

    @property
    def dim(self) -> int:
        return sum(rows * cols for rows, cols, _, _ in self.pieces)


def module_factor(X: HilbertModule, middle: FdCStarAlgebra = None) -> TensorFactor:
    """A Hilbert module as a left leg: right action of the given algebra.

    The middle algebra defaults to the module's own; a larger algebra whose
    labels contain the module's acts through restriction.
    """
    return family_factor((X,), middle or X.algebra)


def family_factor(modules, base: FdCStarAlgebra) -> TensorFactor:
    """A per-set module family as a left leg with the base algebra acting:
    one piece per module block, in family coordinate order."""
    pieces = []
    for mod in modules:
        pieces += [(m, n, None, lab)
                   for lab, m, n in zip(mod.algebra.labels, mod.mult, mod.algebra.block_dims)]
    return TensorFactor(tuple(pieces), right_algebra=base)


def algebra_summand_factor(base: FdCStarAlgebra, F) -> TensorFactor:
    """A restriction A|F as a two-sided leg for the base algebra."""
    sub = restrict_algebra(base, F)
    return TensorFactor(tuple((n, n, lab, lab) for lab, n in zip(sub.labels, sub.block_dims)),
                        base, base)


def b_factor(base: FdCStarAlgebra, cover: ClosedCover) -> TensorFactor:
    """The sum algebra B as a two-sided leg for the base algebra."""
    B = sum_algebra(base, cover)
    return TensorFactor(tuple((n, n, k, k) for (_, k), n in zip(B.flat.labels, B.flat.block_dims)),
                        base, base)


def _action(factor: TensorFactor, a: AlgebraElement, side: str) -> np.ndarray:
    """The matrix of a acting on the factor's coordinates from the given side,
    "left" or "right": a_k (x) I on a piece with label k on that side, resp.
    I (x) a_k^T, and zero on a piece with no label there."""
    M = np.zeros((factor.dim, factor.dim), dtype=np.complex128)
    ofs = 0
    for rows, cols, left, right in factor.pieces:
        d = rows * cols
        if side == "left" and left is not None:
            M[ofs:ofs + d, ofs:ofs + d] = np.kron(a.block(left), np.eye(cols))
        elif side == "right" and right is not None:
            M[ofs:ofs + d, ofs:ofs + d] = np.kron(np.eye(rows), a.block(right).T)
        ofs += d
    return M


@dataclass(eq=False)
class GenericBalancedTensor:
    """Quotient of the plain coordinate tensor by the balancing relations.

    complement holds an orthonormal basis of the orthogonal complement of the
    relation span; its column count is the quotient dimension.
    """

    factors: tuple
    plain_dim: int
    complement: np.ndarray

    @property
    def dim(self) -> int:
        return self.complement.shape[1]

    @property
    def relation_rank(self) -> int:
        return self.plain_dim - self.dim


#: generic_balanced_tensor drops relation columns of norm at most this; the
#: factors built here give 0/1 differences, so a nonzero column has norm >= 1.
_RELATION_COLUMN_TOL = 1e-14


def generic_balanced_tensor(factors, tol: float = numlin.DEFAULT_RANK_TOL) -> GenericBalancedTensor:
    """Span the relations x*a (x) y - x (x) a*y in every slot and quotient them out.

    A slot's relations, one block of columns per matrix unit a of its middle
    algebra, are formed on the two factors it touches; after its zero
    columns are dropped, they are amplified by the identity on the other
    factors.  The complement is the kernel of the relations' adjoint.
    """
    factors = tuple(factors)
    if len(factors) < 2:
        raise InvalidInputError("need at least two tensor factors")
    dims = [f.dim for f in factors]
    plain = int(np.prod(dims))
    rel_cols = []
    for s in range(len(factors) - 1):
        left, right = factors[s], factors[s + 1]
        mid = left.right_algebra
        if (
            mid is None
            or right.left_algebra is None
            or mid.labels != right.left_algebra.labels
            or mid.block_dims != right.left_algebra.block_dims
        ):
            raise InvalidInputError(f"factors {s} and {s + 1} do not share a middle algebra")
        # one empty block of columns, for a middle algebra with no blocks
        local = [np.zeros((dims[s] * dims[s + 1], 0), dtype=np.complex128)]
        for *_, unit in mid.matrix_units():
            local.append(np.kron(_action(left, unit, "right"), np.eye(dims[s + 1]))
                         - np.kron(np.eye(dims[s]), _action(right, unit, "left")))
        local = np.hstack(local)
        local = local[:, np.linalg.norm(local, axis=0) > _RELATION_COLUMN_TOL]
        pre, post = int(np.prod(dims[:s])), int(np.prod(dims[s + 2:]))
        rel_cols.append(np.kron(np.eye(pre), np.kron(local, np.eye(post))))
    complement = numlin.kernel_basis(np.hstack(rel_cols).conj().T, tol)
    return GenericBalancedTensor(factors, plain, complement)


# ---------------------------------------------------------------------------
# Oracle agreement checks
#
# Each check hands one harness, _oracle_check, the factors of the plain
# tensor, the basis objects of its legs and the model's map on elementary
# tensors.  Leg 0 is a family of module vectors (one module for X (x) B and
# Y (x) A|F_j), the other legs are algebras.  Column c of the model matrix M
# holds the model coordinates of the elementary tensor of basis objects with
# plain index c; the relation and dimension checks read M alone.  The
# inner-product check evaluates the defining form of each model component
# from the module's inner product and the algebra legs alone.


@dataclass
class OracleReport:
    plain_dim: int
    oracle_dim: int
    model_dim: int
    relation_residual: float
    inner_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.oracle_dim == self.model_dim
            and self.relation_residual <= self.tol
            and self.inner_residual <= self.tol
        )


@dataclass(eq=False)
class _Component:
    """One component of a model, laid out in model coordinates in the order
    given: its space, the algebra T its form takes values in, the family part
    i whose inner product <z_i|w_i> enters the form, and the map L from the
    coordinates of the algebra legs to T."""

    space: HilbertModule
    target: FdCStarAlgebra
    part: int
    leg_map: object  # coordinate row -> AlgebraElement over target


def _oracle_check(factors, legs, elementary, components, tol, trials, seed) -> OracleReport:
    """Compare a model of a balanced tensor product with the generic quotient.

    elementary(z, *bs) gives the model coordinates of the elementary tensor
    of basis objects z, b, ... of the legs.  Per trial, plain vectors u and v
    are drawn in that order, and each component compares
    sum_{s,t} L(U_s)* <z_s|z_t> L(V_t), with U_s and V_t the coordinates of u
    and v at leg-0 index s and t, against the inner product of the
    component's parts of M u and M v, both in T.
    """
    gbt = generic_balanced_tensor(factors)
    offsets = np.cumsum([0] + [c.space.dim for c in components])
    M = np.zeros((int(offsets[-1]), gbt.plain_dim), dtype=np.complex128)
    for col, basis in enumerate(itertools.product(*legs)):
        M[:, col] = elementary(*basis)
    K = gbt.complement
    rel_res = numlin.op_norm(M - (M @ K) @ K.conj().T)
    model_dim = numlin.rank(M)

    zs = legs[0]
    mids = [[[_spread_element(inner_product(z[c.part], w[c.part]), c.target) for w in zs]
             for z in zs] for c in components]
    rows = (len(zs), int(np.prod([len(leg) for leg in legs[1:]])))
    rng = Rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = rng.gauss_vector(gbt.plain_dim)
        v = rng.gauss_vector(gbt.plain_dim)
        tu, tv = M @ u, M @ v
        for c, mid, lo, hi in zip(components, mids, offsets, offsets[1:]):
            lu = [c.leg_map(row).adjoint() for row in u.reshape(rows)]
            lv = [c.leg_map(row) for row in v.reshape(rows)]
            lhs = c.target.zero()
            for s, a in enumerate(lu):
                for t, b in enumerate(lv):
                    lhs = lhs + a * mid[s][t] * b
            rhs = inner_product(from_coords(c.space, tu[lo:hi]), from_coords(c.space, tv[lo:hi]))
            worst = max(worst, (lhs - _spread_element(rhs, c.target)).norm())
    return OracleReport(gbt.plain_dim, gbt.dim, model_dim, rel_res, worst, tol)


def _family_basis(modules) -> list:
    """The coordinate basis of a module family, in family coordinate order:
    each basis vector of one module, with zero in the others."""
    zeros = tuple(m.zero_vector() for m in modules)
    return [zeros[:a] + (x,) + zeros[a + 1:]
            for a, m in enumerate(modules) for x in m.basis_vectors()]


def _basis(alg: FdCStarAlgebra) -> list:
    """The matrix units of an algebra, in coordinate order."""
    return [unit for *_, unit in alg.matrix_units()]


def _element_from_coords(alg: FdCStarAlgebra, u) -> AlgebraElement:
    """The element with coordinates u: each block row-major, block after block."""
    blocks, ofs = [], 0
    for n in alg.block_dims:
        blocks.append(u[ofs:ofs + n * n].reshape(n, n))
        ofs += n * n
    return AlgebraElement(alg, tuple(blocks))


def _spread_element(a: AlgebraElement, target: FdCStarAlgebra) -> AlgebraElement:
    """View an element of a restriction inside another restriction: shared
    labels copy over, labels absent from the source act as zero."""
    blocks = []
    for lab, n in zip(target.labels, target.block_dims):
        if lab in a.algebra.labels:
            blocks.append(a.block(lab))
        else:
            blocks.append(np.zeros((n, n), dtype=np.complex128))
    return AlgebraElement(target, tuple(blocks))


def _leg(b: AlgebraElement, j: int, target: FdCStarAlgebra) -> AlgebraElement:
    """The component b_j of an element of B, read on the labels of target."""
    return AlgebraElement(target, tuple(b.block((j, k)) for k in target.labels))


def _b_leg(B, j: int, target: FdCStarAlgebra):
    """L for one B leg: coordinates of b |-> b_j read on the labels of target."""
    return lambda w: _leg(_element_from_coords(B.flat, w), j, target)


def _elementary_coords(model, parts, *bs) -> np.ndarray:
    """Model coordinates of the elementary tensor z (x) b (x) ... of a family
    z and elements of B: component (i, j, ...) is z_i * b_j * ..., each
    restricted to the component's overlap."""
    arrs = []
    for entry, space in zip(model.entries, model.spaces):
        for k in space.algebra.labels:
            blk = parts[entry[0]].block(k)
            for idx, b in zip(entry[1:], bs):
                blk = blk @ b.block((idx, k))
            arrs.append(blk.reshape(-1))
    return np.concatenate(arrs) if arrs else np.zeros(0, dtype=np.complex128)


def psi_oracle_check(X: HilbertModule, cover: ClosedCover, tol: float = DEFAULT_TOL,
                     trials: int = 10, seed: int = 0) -> OracleReport:
    """Compare the direct-sum model of X (x) B against the balanced quotient:
    component i is X|F_i, with the form b_i* <x|x'> b'_i in A|F_i."""
    A = X.algebra
    B = sum_algebra(A, cover)
    psi = psi_iso(X, cover)
    return _oracle_check(
        [module_factor(X), b_factor(A, cover)],
        [_family_basis((X,)), _basis(B.flat)],
        lambda x, b: family_coords(psi.apply(x[0], b)),
        [_Component(Xi, Xi.algebra, 0, _b_leg(B, i, Xi.algebra))
         for i, Xi in enumerate(psi.summands)],
        tol, trials, seed,
    )


def nu_oracle_check(Y: HilbertModule, base: FdCStarAlgebra, F_j, tol: float = DEFAULT_TOL,
                    trials: int = 10, seed: int = 0) -> OracleReport:
    """Compare the restriction model Y|F_ij of Y (x) A|F_j with the balanced
    quotient, with the form a* <y|y'> a' in A|F_j."""
    F_j = frozenset(F_j)
    nu = nu_iso(Y, base, F_j)
    sub_j = nu.summand_j
    return _oracle_check(
        [module_factor(Y, middle=base), algebra_summand_factor(base, F_j)],
        [_family_basis((Y,)), _basis(sub_j)],
        lambda y, a: coords(nu.apply(y[0], a)),
        [_Component(nu.target, sub_j, 0, lambda w: _element_from_coords(sub_j, w))],
        tol, trials, seed,
    )


def pair_model_oracle_check(datum, tol: float = DEFAULT_TOL, trials: int = 10, seed: int = 0) -> OracleReport:
    """Compare the pair model of Z (x) B with the balanced quotient.

    Dimension and relation agreement certify that the pair projections
    realize the quotient bijectively; the inner-product check compares the
    form (b_j* <z_i|w_i> c_j)|F_ij, computed from Z's structure alone, with
    the componentwise inner products of the model.
    """
    A, cover = datum.algebra, datum.cover
    B = sum_algebra(A, cover)
    model = pair_model(datum)
    return _oracle_check(
        [family_factor(model.modules, A), b_factor(A, cover)],
        [_family_basis(model.modules), _basis(B.flat)],
        lambda z, b: _elementary_coords(model, z, b),
        [_Component(space, space.algebra, i, _b_leg(B, j, space.algebra))
         for (i, j), space in zip(model.entries, model.spaces)],
        tol, trials, seed,
    )


def triple_model_oracle_check(datum, tol: float = DEFAULT_TOL, trials: int = 6, seed: int = 0) -> OracleReport:
    """Compare the triple model of Z (x) B (x) B with the balanced quotient:
    component (i, j, l) has the form with L(b (x) b') = (b_j b'_l)|F_ijl."""
    A, cover = datum.algebra, datum.cover
    B = sum_algebra(A, cover)
    tm = triple_model(datum)
    bs = _basis(B.flat)

    def double_leg(j, l, T):
        def L(w):
            out = T.zero()
            for b, row in zip(bs, w.reshape(len(bs), len(bs))):
                out = out + _leg(b, j, T) * _leg(_element_from_coords(B.flat, row), l, T)
            return out
        return L

    return _oracle_check(
        [family_factor(tm.modules, A), b_factor(A, cover), b_factor(A, cover)],
        [_family_basis(tm.modules), bs, bs],
        lambda z, b1, b2: _elementary_coords(tm, z, b1, b2),
        [_Component(space, space.algebra, i, double_leg(j, l, space.algebra))
         for (i, j, l), space in zip(tm.entries, tm.spaces)],
        tol, trials, seed,
    )
