"""Gluing data for Hilbert modules, the pull-apart and gluing functors, and
the natural unitaries between their composites and the identities.

A gluing datum assigns a Hilbert module Z_i over A|F_i to each cover set and
a unitary transition zeta_ij : Z_j|F_ij -> Z_i|F_ij to each ordered pair of
sets.  Gluing solves, block by block, the linear system z_i = zeta_ij(z_j) on
all overlaps; the solution space of block k is spanned by an orthonormal
stacked basis E_k, and the glued module keeps one copy of each solution with
the embedding normalized so that single-component inner products reproduce
the abstract ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numlin
from .cstar import ClosedCover, FdCStarAlgebra, is_restriction
from .errors import InvalidInputError, NotAMorphismError, RankAmbiguityError
from .hmod import (
    AdjointableMap,
    HilbertModule,
    ModuleVector,
    adjoint_of,
    compose,
    map_norm,
    module_map,
    restrict_map,
    restrict_module,
)
from .numlin import DEFAULT_TOL

#: Absolute bound on residuals of identities that hold exactly up to
#: rounding: DescentReport's counit and coassociativity, and the exact part
#: of suite criterion 4 (isometries applied to unit-scale Gaussian vectors).
EXACT_IDENTITY_TOL = 1e-12

#: How far from the identity, in operator norm, make_gluing_datum lets a
#: diagonal transition lie before rejecting the datum; a bimodule datum's
#: transitions pass through it too, as its right gluing datum's.  It is
#: absolute: a diagonal entry is compared with I, which has norm 1.
DIAGONAL_IDENTITY_TOL = 1e-12


@dataclass(eq=False)
class GluingDatum:
    """Per-set Hilbert modules plus unitary transitions on overlap blocks.

    zeta maps ordered pairs (i, j), i != j with nonempty overlap, to a dict
    {label k: matrix of shape m_i(k) x m_j(k)}.  Diagonal transitions are the
    identity and are not stored.  The cocycle condition is a validated
    property, not a constructor requirement, so twisted data are representable.
    """

    algebra: FdCStarAlgebra
    cover: ClosedCover
    modules: tuple  # HilbertModule over A|F_i, one per cover set
    zeta: dict  # (i, j) -> {label: ndarray}

    def mult_at(self, i: int, label) -> int:
        mod = self.modules[i]
        return mod.mult[mod.algebra.position(label)]

    def zeta_block(self, i: int, j: int, label) -> np.ndarray:
        if i == j:
            return np.eye(self.mult_at(i, label), dtype=np.complex128)
        return self.zeta[(i, j)][label]


def check_set_indices(cover: ClosedCover, i: int, j: int, k) -> None:
    """Refuse a transition entry (i, j, k) whose i or j names no cover set;
    a negative index would otherwise alias a set from the end."""
    if not (0 <= i < cover.num_sets and 0 <= j < cover.num_sets):
        raise InvalidInputError(
            f"transition ({i}, {j}) at block {k} names a set outside 0..{cover.num_sets - 1}"
        )


def normalize_transitions(cover: ClosedCover, entries, size) -> dict:
    """Checked transition dict {(i, j): {label: matrix}} of a datum.

    entries is an iterable of (i, j, label, matrix) and size(i, label) the
    multiplicity of set i at the label.  i and j must name cover sets, as
    check_set_indices requires.  Each matrix must have shape
    (size(i, label), size(j, label)) on a label of the overlap; a pair given
    in only one direction gets the adjoint as its mirror, and a diagonal entry
    must lie within DIAGONAL_IDENTITY_TOL of the identity and is dropped.
    """
    out: dict = {}
    for (i, j, k, M) in entries:
        check_set_indices(cover, i, j, k)
        if k not in cover.overlap(i, j):
            raise InvalidInputError(f"block {k} is not in the overlap of sets {i}, {j}")
        M = numlin.as_cmatrix(M, (size(i, k), size(j, k)))
        if i == j:
            if numlin.op_norm(M - np.eye(len(M))) > DIAGONAL_IDENTITY_TOL:
                raise InvalidInputError("diagonal transitions must be the identity")
            continue
        out.setdefault((i, j), {})[k] = M

    for (i, j) in cover.pairs(include_diagonal=False):
        for k in sorted(cover.overlap(i, j)):
            have = (i, j) in out and k in out[(i, j)]
            mirror = (j, i) in out and k in out[(j, i)]
            if not have and not mirror:
                raise InvalidInputError(f"missing transition for pair ({i},{j}) block {k}")
            if not have:
                out.setdefault((i, j), {})[k] = out[(j, i)][k].conj().T
    return out


def make_gluing_datum(alg: FdCStarAlgebra, cover: ClosedCover, modules, zeta_entries) -> GluingDatum:
    """Normalizing constructor: checks shapes and fills mirror transitions.

    zeta_entries is an iterable of (i, j, label, matrix), normalized by
    normalize_transitions.
    """
    modules = tuple(modules)
    if cover.prim_size != alg.num_blocks:
        raise InvalidInputError("cover does not match algebra")
    if len(modules) != cover.num_sets:
        raise InvalidInputError("one module per cover set required")
    for i, mod in enumerate(modules):
        if not is_restriction(mod.algebra, alg, cover.sets[i]):
            raise InvalidInputError(f"module {i} is not over A restricted to cover set {i}")

    def size(i, k):
        return modules[i].mult[modules[i].algebra.position(k)]

    return GluingDatum(alg, cover, modules, normalize_transitions(cover, zeta_entries, size))


@dataclass
class DatumValidation:
    unitary: bool
    identity: bool
    involutive: bool
    cocycle: bool
    max_residuals: dict

    @property
    def required_ok(self) -> bool:
        return self.unitary and self.identity and self.involutive


def transition_stack(D: GluingDatum, k) -> np.ndarray:
    """Label k's transitions as one (s, s, m, m) tensor, s the number of
    cover sets owning k and m their largest multiplicity there.

    Z[a, b] is D.zeta_block(members[a], members[b], k) zero-padded, members
    = D.cover.members(k), and Z[a, a] is P_a = diag(1, ..., 1, 0, ...) with
    as many ones as member a's multiplicity.
    """
    members = D.cover.members(k)
    sizes = [D.mult_at(i, k) for i in members]
    s, m = len(members), max(sizes, default=0)
    Z = np.zeros((s, s, m, m), dtype=np.complex128)
    for a, (i, m_a) in enumerate(zip(members, sizes)):
        Z[a, a, :m_a, :m_a] = np.eye(m_a)
        for b, j in enumerate(members):
            if b != a:
                Z[a, b, :m_a, :sizes[b]] = D.zeta[(i, j)][k]
    return Z


@np.errstate(over="ignore", invalid="ignore")
def transition_residuals(D: GluingDatum, k):
    """Largest unitarity, involution and cocycle residuals of label k's
    transitions, from its transition_stack.

    Returns (unitary, nonsquare, involutive, cocycle): the largest unitarity
    defect over the square pairs, each at its own size, whether any pair is
    not square, the largest ||Z_ba - Z_ab*|| and cocycle_residual(Z).  A
    non-finite residual raises InvalidInputError, with numpy's overflow and
    invalid-value warnings silenced.
    """
    members = D.cover.members(k)
    s = len(members)
    if s < 2:
        return 0.0, False, 0.0, 0.0
    Z = transition_stack(D, k)
    off = ~np.eye(s, dtype=bool)
    pa, pb = np.nonzero(off)  # ordered pairs a != b
    size = np.array([D.mult_at(i, k) for i in members])
    square = size[pa] == size[pb]
    sa = pa[square]
    unitary = numlin.unitarity_defects(Z[sa, pb[square]], size[sa]).max(initial=0.0)
    involutive = numlin.op_norms(
        Z[pb, pa] - Z[pa, pb].conj().swapaxes(-1, -2)
    ).max(initial=0.0)
    return float(unitary), not square.all(), float(involutive), cocycle_residual(Z)


@np.errstate(over="ignore", invalid="ignore")
def cocycle_residual(Z) -> float:
    """Largest ||Z_ab Z_bc - Z_ac|| over b not in {a, c} of one label's
    transition_stack Z; the triples with b = a or b = c are exactly 0 and
    are left out.  It is taken one first index a at a time, so the extra
    memory is O(s^2 m^2).  A non-finite residual raises InvalidInputError."""
    s = len(Z)
    off = ~np.eye(s, dtype=bool)
    cocycle = 0.0
    for a in range(s):
        b, c = np.nonzero(off & (np.arange(s) != a)[:, None])  # b not in {a, c}
        cocycle = max(cocycle, numlin.op_norms(Z[a, b] @ Z[b, c] - Z[a, c]).max(initial=0.0))
    return float(cocycle)


def _datum_cocycle_residual(D: GluingDatum) -> float:
    """The cocycle residual that validate_gluing_datum reports, alone."""
    return max((cocycle_residual(transition_stack(D, k)) for k in D.algebra.labels),
               default=0.0)


def validate_gluing_datum(D: GluingDatum, tol: float = DEFAULT_TOL) -> DatumValidation:
    """Check unitarity, diagonal identities, involution and the cocycle.

    Unitarity and the identity/involution laws are requirements; the cocycle
    residual is advisory and records how far the datum is from coherent.
    The transitions are checked label by label with transition_residuals; a
    transition that is not square counts as unitarity residual 1.
    """
    unitary, nonsquare, involutive, cocycle = 0.0, False, 0.0, 0.0
    for k in D.algebra.labels:
        unitary, nonsquare, involutive, cocycle = map(
            max, (unitary, nonsquare, involutive, cocycle), transition_residuals(D, k))
    res = {"unitary": max(unitary, 1.0 if nonsquare else 0.0), "identity": 0.0,
           "involutive": involutive, "cocycle": cocycle}
    # Diagonal entries are identities by construction; report 0 unless a raw
    # datum was built without the normalizing constructor.
    for (i, j), entries in D.zeta.items():
        if i == j:
            for k, U in entries.items():
                res["identity"] = max(
                    res["identity"], numlin.op_norm(U - np.eye(U.shape[0]))
                )
    return DatumValidation(
        unitary=res["unitary"] <= tol,
        identity=res["identity"] <= tol,
        involutive=res["involutive"] <= tol,
        cocycle=res["cocycle"] <= tol,
        max_residuals=res,
    )


def pull_apart(X: HilbertModule, cover: ClosedCover) -> GluingDatum:
    """The canonical datum of a module: restrictions with identity transitions.

    Labels are preserved by restriction, so the canonical comparison maps
    between double restrictions are literally identity matrices here.
    """
    if cover.prim_size != X.algebra.num_blocks:
        raise InvalidInputError("cover does not match module algebra")
    modules = tuple(restrict_module(X, F) for F in cover.sets)
    entries = []
    for (i, j) in cover.pairs(include_diagonal=False):
        for k in sorted(cover.overlap(i, j)):
            m = X.mult[X.algebra.position(k)]
            entries.append((i, j, k, np.eye(m, dtype=np.complex128)))
    return make_gluing_datum(X.algebra, cover, modules, entries)


@dataclass(eq=False)
class GlueMorphism:
    """A family of adjointable maps alpha_i : Z_i -> W_i between gluing data."""

    source: GluingDatum
    target: GluingDatum
    maps: tuple  # AdjointableMap per cover set

    def norm(self) -> float:
        return max((map_norm(a) for a in self.maps), default=0.0)

    def adjoint(self) -> "GlueMorphism":
        return GlueMorphism(
            self.target, self.source, tuple(adjoint_of(a) for a in self.maps)
        )


def morphism_residual(m: GlueMorphism) -> float:
    """Largest violation of alpha_i|F_ij o zeta_ij = omega_ij o alpha_j|F_ij."""
    worst = 0.0
    Dz, Dw = m.source, m.target
    for (i, j) in Dz.cover.pairs(include_diagonal=False):
        for k in sorted(Dz.cover.overlap(i, j)):
            ai = m.maps[i].block(k)
            aj = m.maps[j].block(k)
            lhs = ai @ Dz.zeta_block(i, j, k)
            rhs = Dw.zeta_block(i, j, k) @ aj
            worst = max(worst, numlin.op_norm(lhs - rhs))
    return worst


def glue_morphism_compose(a: GlueMorphism, b: GlueMorphism) -> GlueMorphism:
    return GlueMorphism(
        b.source, a.target,
        tuple(compose(x, y) for x, y in zip(a.maps, b.maps)),
    )


def pull_apart_map(alpha: AdjointableMap, cover: ClosedCover) -> GlueMorphism:
    """P on morphisms: restrict blockwise."""
    return GlueMorphism(
        pull_apart(alpha.source, cover),
        pull_apart(alpha.target, cover),
        tuple(restrict_map(alpha, F) for F in cover.sets),
    )


@dataclass(eq=False)
class GluedModule:
    """The glued Hilbert A-module together with its isometric realization.

    For block k, stacked_basis[k] is an orthonormal basis E_k of the overlap
    constraint kernel inside the stacked space of the Z_i components, and
    members[k] lists the cover sets owning block k with their row offsets.
    The embedding scales E_k by sqrt(#members) so that each single component
    of an embedded vector carries the abstract inner product on the nose.
    rank_margin[k] is numlin.rank_margin of the rank decision that gave E_k:
    (smallest kept, largest discarded) singular value of the overlap
    constraint, each relative to the rank threshold, None where there is none.
    """

    datum: GluingDatum
    module: HilbertModule
    stacked_basis: dict = field(default_factory=dict)  # label -> E_k
    layout: dict = field(default_factory=dict)  # label -> tuple of (i, offset, m_i)
    rank_margin: dict = field(default_factory=dict)  # label -> (kept, discarded)

    def member_count(self, label) -> int:
        return len(self.layout[label])

    def embed(self, g: ModuleVector):
        """Realize a glued vector as a compatible family (z_i) in prod Z_i."""
        if g.module.mult != self.module.mult:
            raise InvalidInputError("vector does not live in the glued module")
        arrays = [
            [np.zeros(s, dtype=np.complex128) for s in m.block_shapes()]
            for m in self.datum.modules
        ]
        for pos, k in enumerate(self.module.algebra.labels):
            E = self.stacked_basis[k]
            scale = np.sqrt(self.member_count(k))
            stacked = scale * (E @ g.blocks[pos])
            for (i, ofs, m_i) in self.layout[k]:
                bpos = self.datum.modules[i].algebra.position(k)
                arrays[i][bpos] = stacked[ofs:ofs + m_i]
        return tuple(
            ModuleVector(m, tuple(arr))
            for m, arr in zip(self.datum.modules, arrays)
        )

    def project(self, parts) -> ModuleVector:
        """Adjoint of embed on the constraint subspace (exact left inverse)."""
        g = self.module.zero_vector()
        for pos, k in enumerate(self.module.algebra.labels):
            E = self.stacked_basis[k]
            n = self.module.algebra.block_dims[pos]
            rows = sum(m for (_, _, m) in self.layout[k])
            stacked = np.zeros((rows, n), dtype=np.complex128)
            for (i, ofs, m_i) in self.layout[k]:
                stacked[ofs:ofs + m_i] = parts[i].block(k)
            scale = np.sqrt(self.member_count(k))
            g.blocks[pos][:, :] = (E.conj().T @ stacked) / scale
        return g


def glue(D: GluingDatum, tol: float = numlin.DEFAULT_RANK_TOL) -> GluedModule:
    """Solve the overlap constraints and assemble the glued Hilbert A-module.

    Blockwise, the constraint C sends a stacked multiplicity family (z_i) to
    all differences z_i - zeta_ij z_j.  In matrix coordinates the constraint
    is C (x) I_n, whose kernel is ker C (x) C^n, so the glued multiplicity is
    dim ker C.  One SVD of C gives both the kernel basis and the margin of the
    rank decision at tol: a singular value within a factor
    numlin.RANK_GAP_FACTOR of tol * sigma_max raises RankAmbiguityError
    instead of being rounded either way.
    """
    if tol <= 0 or tol * numlin.RANK_GAP_FACTOR >= 1:
        raise InvalidInputError(
            f"tol must lie in (0, 1/{numlin.RANK_GAP_FACTOR:g}), got {tol:g}"
        )
    A = D.algebra
    mult = []
    stacked_basis = {}
    layout = {}
    margins = {}
    for k in A.labels:
        members = D.cover.members(k)
        sizes = [D.mult_at(i, k) for i in members]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        total = int(offsets[-1])
        rows = []
        for a, i in enumerate(members):
            for b, j in enumerate(members):
                if i == j:
                    continue
                row = np.zeros((sizes[a], total), dtype=np.complex128)
                row[:, offsets[a]:offsets[a + 1]] = np.eye(sizes[a])
                row[:, offsets[b]:offsets[b + 1]] -= D.zeta_block(i, j, k)
                rows.append(row)
        C = (
            np.vstack(rows)
            if rows
            else np.zeros((0, total), dtype=np.complex128)
        )
        E, s = numlin.kernel_basis(C, tol, return_singular_values=True)
        kept, dropped = numlin.rank_margin(s, total, tol)
        if (kept is not None and kept < numlin.RANK_GAP_FACTOR) or (
            dropped is not None and dropped > 1 / numlin.RANK_GAP_FACTOR
        ):
            raise RankAmbiguityError(
                f"block {k} on cover sets {list(members)}: a singular value of "
                f"the overlap constraint lies within a factor "
                f"{numlin.RANK_GAP_FACTOR:g} of the rank threshold "
                f"{tol:g}*sigma_max (smallest kept {kept}, largest discarded "
                f"{dropped}, relative to the threshold)",
                diagnostics={
                    "label": k,
                    "members": list(members),
                    "singular_values": s.tolist(),
                    "margin": {"smallest_kept": kept, "largest_discarded": dropped},
                },
            )
        mult.append(E.shape[1])
        stacked_basis[k] = E
        margins[k] = (kept, dropped)
        layout[k] = tuple(
            (i, int(offsets[a]), sizes[a]) for a, i in enumerate(members)
        )
    glued = HilbertModule(A, tuple(mult))
    return GluedModule(D, glued, stacked_basis, layout, margins)


def glue_morphism(m: GlueMorphism, tol: float = DEFAULT_TOL) -> AdjointableMap:
    """G on morphisms: the diagonal map squeezed through the two embeddings."""
    resid = morphism_residual(m)
    if resid > tol:
        raise NotAMorphismError(
            f"family violates the intertwining condition (residual {resid:.3e})",
            residual=resid,
        )
    gs = glue(m.source)
    gt = glue(m.target)
    blocks = []
    for k in m.source.algebra.labels:
        Es, Et = gs.stacked_basis[k], gt.stacked_basis[k]
        rows_t = sum(mm for (_, _, mm) in gt.layout[k])
        Dalpha = np.zeros((rows_t, Es.shape[0]), dtype=np.complex128)
        src_ofs = {i: ofs for (i, ofs, _) in gs.layout[k]}
        for (i, ofs_t, m_t) in gt.layout[k]:
            blk = m.maps[i].block(k)
            Dalpha[ofs_t:ofs_t + m_t, src_ofs[i]:src_ofs[i] + blk.shape[1]] = blk
        blocks.append(Et.conj().T @ Dalpha @ Es)
    return module_map(gs.module, gt.module, blocks)


@dataclass(eq=False)
class PhiIso:
    """The natural unitary from a module onto the gluing of its pull-apart."""

    glued: GluedModule
    map: AdjointableMap  # X -> glued.module


def phi_map(gd: GluedModule, X: HilbertModule) -> AdjointableMap:
    """The comparison map x |-> (x|F_i)_i into a glued pull-apart of X,
    expressed in the stacked kernel basis of the given glued module."""
    blocks = []
    for pos, k in enumerate(X.algebra.labels):
        E = gd.stacked_basis[k]
        c = gd.member_count(k)
        m = X.mult[pos]
        S = np.vstack([np.eye(m, dtype=np.complex128)] * c) if c else np.zeros((0, m))
        blocks.append((E.conj().T @ S) / np.sqrt(c))
    return module_map(X, gd.module, blocks)


def phi_iso(X: HilbertModule, cover: ClosedCover, tol: float = numlin.DEFAULT_RANK_TOL) -> PhiIso:
    """x |-> (x|F_i)_i, expressed in the glued module's stacked kernel basis."""
    gp = glue(pull_apart(X, cover), tol)
    return PhiIso(gp, phi_map(gp, X))


@dataclass
class EpsilonResult:
    """Outcome of the counit construction P(G(D)) -> D.

    morphism is None when the glued module is too small to surject onto the
    datum (cocycle failure); dimension_deficit then records m_i(k) - g(k).
    """

    glued: GluedModule
    morphism: object  # GlueMorphism | None
    unitary_residual: float
    intertwine_residual: float
    dimension_deficit: dict


def epsilon_iso(D: GluingDatum) -> EpsilonResult:
    """Per cover set, the embedding followed by the i-th component projection."""
    gd = glue(D)
    deficit = {}
    for k in D.algebra.labels:
        g = gd.module.mult[gd.module.algebra.position(k)]
        for i in D.cover.members(k):
            d = D.mult_at(i, k) - g
            if d != 0:
                deficit[(i, k)] = d

    unitary_res = 0.0
    blocks = [[] for _ in D.cover.sets]  # per set, one block per label of F_i
    for k in D.algebra.labels:
        E = np.sqrt(gd.member_count(k)) * gd.stacked_basis[k]
        for (i, ofs, m_i) in gd.layout[k]:
            blk = E[ofs:ofs + m_i]
            blocks[i].append(blk)
            if m_i == E.shape[1]:
                unitary_res = max(unitary_res, float(numlin.unitarity_defects(blk[None])[0]))
    maps = tuple(AdjointableMap(restrict_module(gd.module, F), Z_i, tuple(b))
                 for F, Z_i, b in zip(D.cover.sets, D.modules, blocks))

    if deficit:
        return EpsilonResult(gd, None, unitary_res, float("inf"), deficit)

    morphism = GlueMorphism(pull_apart(gd.module, D.cover), D, maps)
    return EpsilonResult(
        gd, morphism, unitary_res, morphism_residual(morphism), deficit
    )


@dataclass
class DescentReport:
    """Residuals for the comodule-style identities of a gluing datum.

    coassoc is measured on arbitrary random vectors; this identity is
    equivalent to the triple-overlap condition, so it is only required to
    vanish when the datum is coherent.  coassoc_glued measures the same
    identity on embedded glued vectors, where it holds unconditionally.
    """

    counit: float  # ||epsilon(delta(z)) - z||, max over trials
    coassoc: float  # ||(delta x id) delta z - (eta x id) delta z||, random z
    coassoc_glued: float  # same, z ranging over embedded glued vectors
    cocycle_residual: float
    kernel_gap: float  # subspace gap between glue kernel and ker(eta - delta)
    tensor_dims: tuple  # (dim glued (x) B model, dim ker((eta - delta) x id))
    tensor_gap: float
    tolerances: dict

    @property
    def coherent(self) -> bool:
        return self.cocycle_residual <= self.tolerances["kernel"]

    @property
    def passed(self) -> bool:
        coassoc_ok = (
            self.coassoc <= self.tolerances["coassoc"]
            if self.coherent
            else self.coassoc_glued <= self.tolerances["coassoc"]
        )
        return (
            self.counit <= self.tolerances["counit"]
            and coassoc_ok
            and self.kernel_gap <= self.tolerances["kernel"]
            and self.tensor_dims[0] == self.tensor_dims[1]
            and self.tensor_gap <= self.tolerances["kernel"]
        )


def descent_identities_check(
    D: GluingDatum,
    tol: float = DEFAULT_TOL,
    trials: int = 20,
    seed: int = 0,
) -> DescentReport:
    """Verify the counit, coassociativity and kernel identities numerically.

    The counit identity and both kernel identities hold for twisted data as
    well (with the degenerate glued module they produce).  Coassociativity on
    arbitrary vectors holds exactly when the triple-overlap condition does:
    its residual tracks the cocycle residual, and on embedded glued vectors
    it vanishes unconditionally; both residuals are reported.

    The random vectors of all trials are drawn first, then each label's
    maps T_k act on their stacked slots at once; every residual is the
    largest operator norm of a slot block, as the Hilbert-module norm is.
    """
    from . import gen, tensor
    from .rng import Rng

    if trials < 0:
        raise InvalidInputError(f"trials must be >= 0, got {trials}")
    rng = Rng(seed)
    gd = glue(D)
    cocycle = _datum_cocycle_residual(D)

    # Every block of every trial from one draw, in the stream order of
    # drawing each trial's family and then its glued vector one by one.
    item = (*D.modules, gd.module)
    blocks = iter(gen._gauss_blocks(rng, [b for m in item for b in m.block_shapes()] * trials))
    vectors = [[ModuleVector(m, tuple(next(blocks) for _ in m.block_shapes())) for m in item]
               for _ in range(trials)]
    draws = [tuple(v[:-1]) for v in vectors]
    glued = [gd.embed(v[-1]) for v in vectors]
    counit, coassoc, coassoc_glued = [], [], []
    for k in D.algebra.labels:
        Z = tensor.family_stack(draws + glued, D, k)
        t = tensor.delta_map(D, k) @ Z
        back = tensor.epsilon_map(D, k) @ t[:trials] - Z[:trials]
        counit += tensor.split_slots(back, tensor.slot_sizes(D, k, 1))
        lhs = tensor.lift_to_triple("delta_tensor_id", D, k) @ t
        diff = lhs - tensor.lift_to_triple("eta_tensor_id", D, k) @ t
        for b in tensor.split_slots(diff, tensor.slot_sizes(D, k, 3)):
            coassoc.append(b[:trials])
            coassoc_glued.append(b[trials:])
    res_a, res_b, res_b_glued = numlin.op_norm_maxima([counit, coassoc, coassoc_glued])

    # Per label, ker(eta - delta) on the family slots is the span of E_k.
    kernel_gap = max(
        (numlin.subspace_gap(numlin.kernel_basis(tensor.eta_minus_delta_matrix(D, k)),
                             gd.stacked_basis[k])
         for k in D.algebra.labels),
        default=0.0,
    )
    tensor_dims, tensor_gap = _tensor_kernel_check(gd)

    return DescentReport(
        counit=res_a,
        coassoc=res_b,
        coassoc_glued=res_b_glued,
        cocycle_residual=cocycle,
        kernel_gap=kernel_gap,
        tensor_dims=tensor_dims,
        tensor_gap=tensor_gap,
        tolerances={"counit": EXACT_IDENTITY_TOL, "coassoc": EXACT_IDENTITY_TOL, "kernel": tol},
    )


def _tensor_kernel_check(gd: GluedModule):
    """Compare ker((eta - delta) (x) id) with the glued tensor model label by
    label.  Returns ((model dim, kernel dim), largest subspace gap); a label k
    adds n_k times its dimensions, as T_k (x) I_{n_k} does in flat coordinates.
    """
    from . import tensor

    D = gd.datum
    model_dim = ker_dim = 0
    gap = 0.0
    for k, n in zip(D.algebra.labels, D.algebra.block_dims):
        ker = numlin.kernel_basis(tensor.eta_minus_delta_tensor_id_matrix(D, k))
        model = tensor.glued_tensor_subspace_basis(gd, k)
        model_dim += n * model.shape[1]
        ker_dim += n * ker.shape[1]
        gap = max(gap, numlin.subspace_gap(ker, model))
    return (model_dim, ker_dim), gap
