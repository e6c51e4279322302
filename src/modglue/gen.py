"""Seeded random instances: algebras, covers, modules, maps, gluing data and
bimodule gluing data.

All draws come from the portable generator in rng.py, in a fixed order, so a
(seed, config) pair reproduces an instance exactly.  Coherent transitions are
built as coboundaries V_i V_j* of per-set unitaries, which satisfies the
triple-overlap condition by construction; the random-unitary mode draws each
pair transition independently and generically breaks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cstar import AlgebraElement, ClosedCover, FdCStarAlgebra, algebra, cover
from .errors import InvalidInputError
from .glue import GluingDatum, make_gluing_datum
from .hmod import AdjointableMap, HilbertModule, ModuleVector, module, module_map
from .numlin import DEFAULT_TOL
from .rng import Rng

TWIST_MODES = ("coherent", "random_unitary", "prescribed_phases")
KINDS = ("module", "gluing", "bimodule")


@dataclass(frozen=True)
class GenConfig:
    seed: int
    max_blocks: int = 6
    max_block_dim: int = 4
    max_cover_sets: int = 4
    max_mult: int = 5
    twist_mode: str = "coherent"
    phases: tuple = ()  # entries (i, j, re, im), applied on the lowest shared block
    kind: str = "gluing"

    def __post_init__(self):
        if not (1 <= self.max_blocks <= 6):
            raise InvalidInputError("max_blocks must be in 1..6")
        if not (1 <= self.max_block_dim <= 4):
            raise InvalidInputError("max_block_dim must be in 1..4")
        if not (1 <= self.max_cover_sets <= 4):
            raise InvalidInputError("max_cover_sets must be in 1..4")
        if not (1 <= self.max_mult <= 5):
            raise InvalidInputError("max_mult must be in 1..5")
        if self.twist_mode not in TWIST_MODES:
            raise InvalidInputError(f"twist_mode must be one of {TWIST_MODES}")
        if self.kind not in KINDS:
            raise InvalidInputError(f"kind must be one of {KINDS}")
        pairs = set()
        for (i, j, re, im) in self.phases:
            if not (0 <= i < self.max_cover_sets and 0 <= j < self.max_cover_sets) or i == j:
                raise InvalidInputError(
                    f"phase ({i}, {j}) must join two distinct cover sets in 0..{self.max_cover_sets - 1}")
            if not abs(math.hypot(re, im) - 1.0) <= DEFAULT_TOL:  # NaN and inf fail too
                raise InvalidInputError(
                    f"phase ({i}, {j}) must be a unit complex number, got {complex(re, im)}")
            if frozenset((i, j)) in pairs:
                raise InvalidInputError(f"phase ({i}, {j}) joins a pair of sets listed before")
            pairs.add(frozenset((i, j)))


def random_algebra(rng: Rng, cfg: GenConfig) -> FdCStarAlgebra:
    K = rng.randint(1, cfg.max_blocks)
    return algebra(tuple(rng.randint(1, cfg.max_block_dim) for _ in range(K)))


def random_algebra_pair(rng: Rng, cfg: GenConfig) -> tuple:
    """A random left algebra, then a right algebra with as many blocks of
    random dimensions: the two algebras of a random bimodule."""
    left = random_algebra(rng, cfg)
    return left, algebra(tuple(rng.randint(1, cfg.max_block_dim) for _ in left.block_dims))


def random_cover(rng: Rng, alg: FdCStarAlgebra, cfg: GenConfig) -> ClosedCover:
    """Random subsets, then patch uncovered labels into random sets."""
    K = alg.num_blocks
    N = rng.randint(1, cfg.max_cover_sets)
    sets = []
    for _ in range(N):
        s = {k for k in range(K) if rng.randint(0, 1) == 1}
        sets.append(s)
    for k in range(K):
        if not any(k in s for s in sets):
            sets[rng.randint(0, N - 1)].add(k)
    return cover(K, [frozenset(s) for s in sets])


def random_module(rng: Rng, alg: FdCStarAlgebra, cfg: GenConfig) -> HilbertModule:
    return module(alg, tuple(rng.randint(0, cfg.max_mult) for _ in alg.block_dims))


def _gauss_blocks(rng: Rng, shapes) -> tuple:
    """Complex Gaussian blocks of the given shapes from one draw, split in
    row-major order: the blocks that drawing them one by one gives."""
    flat = rng.gauss_matrix(1, sum(m * n for (m, n) in shapes))[0]
    blocks, ofs = [], 0
    for (m, n) in shapes:
        blocks.append(flat[ofs:ofs + m * n].reshape(m, n))
        ofs += m * n
    return tuple(blocks)


def random_vector(rng: Rng, mod: HilbertModule) -> ModuleVector:
    return ModuleVector(mod, _gauss_blocks(rng, mod.block_shapes()))


def random_element(rng: Rng, alg: FdCStarAlgebra) -> AlgebraElement:
    return AlgebraElement(alg, _gauss_blocks(rng, [(n, n) for n in alg.block_dims]))


def random_map(rng: Rng, src: HilbertModule, tgt: HilbertModule) -> AdjointableMap:
    return module_map(src, tgt, _gauss_blocks(rng, list(zip(tgt.mult, src.mult))))


def random_gluing_datum(
    rng: Rng,
    alg: FdCStarAlgebra,
    cov: ClosedCover,
    cfg: GenConfig,
    mult=None,
) -> GluingDatum:
    """A datum of the multiplicity profile mult (drawn if None), with
    transitions drawn according to cfg.twist_mode."""
    K = alg.num_blocks
    if mult is None:
        mult = tuple(rng.randint(0, cfg.max_mult) for _ in range(K))

    if cfg.twist_mode == "coherent":
        V = {(i, k): rng.unitary(mult[k]) for i in range(cov.num_sets) for k in sorted(cov.sets[i])}
    phase = prescribed_phases(cov, cfg)
    entries = []
    for i in range(cov.num_sets):
        for j in range(i + 1, cov.num_sets):
            for k in sorted(cov.overlap(i, j)):
                if cfg.twist_mode == "coherent":
                    U = V[(i, k)] @ V[(j, k)].conj().T
                elif cfg.twist_mode == "random_unitary":
                    U = rng.unitary(mult[k])
                else:
                    U = phase.get((i, j, k), 1.0) * np.eye(mult[k], dtype=np.complex128)
                entries.append((i, j, k, U))
    return make_gluing_datum(alg, cov, mult, entries)


def prescribed_phases(cov: ClosedCover, cfg: GenConfig) -> dict:
    """(i, j, label) -> the unit scalar that prescribed-phases mode puts on
    the transition from set j to set i, empty in the other modes.  A phase
    (i, j, re, im) gives re + i im at (i, j) and its conjugate at (j, i),
    on the lowest label that every set the phases mention shares (label 0
    if they share none)."""
    if cfg.twist_mode != "prescribed_phases":
        return {}
    mentioned = [n for (i, j, _, _) in cfg.phases for n in (i, j)]
    if max(mentioned, default=0) >= cov.num_sets:
        raise InvalidInputError(f"phases name set {max(mentioned)}, but the cover has "
                                f"{cov.num_sets} sets")
    shared = frozenset.intersection(*(cov.sets[n] for n in mentioned)) if mentioned else ()
    block = min(shared, default=0)
    out = {}
    for (i, j, re, im) in cfg.phases:
        out[(i, j, block)], out[(j, i, block)] = complex(re, im), np.conj(complex(re, im))
    return out


@dataclass(frozen=True)
class GluingInstance:
    algebra: FdCStarAlgebra
    cover: ClosedCover
    datum: GluingDatum


@dataclass(frozen=True)
class ModuleInstance:
    algebra: FdCStarAlgebra
    cover: ClosedCover
    module: HilbertModule


def _instance_cover(rng: Rng, alg: FdCStarAlgebra, cfg: GenConfig) -> ClosedCover:
    """Random cover, except in prescribed-phases mode, where every mentioned
    set must exist and share the designated block: all sets are then full."""
    if cfg.twist_mode != "prescribed_phases":
        return random_cover(rng, alg, cfg)
    mentioned = {i for (i, j, _, _) in cfg.phases} | {j for (i, j, _, _) in cfg.phases}
    n_sets = max(mentioned, default=1) + 1
    full = frozenset(range(alg.num_blocks))
    return cover(alg.num_blocks, [full] * n_sets)


def random_module_instance(cfg: GenConfig) -> ModuleInstance:
    rng = Rng(cfg.seed)
    alg = random_algebra(rng, cfg)
    cov = _instance_cover(rng, alg, cfg)
    return ModuleInstance(alg, cov, random_module(rng, alg, cfg))


def random_gluing_instance(cfg: GenConfig) -> GluingInstance:
    rng = Rng(cfg.seed)
    alg = random_algebra(rng, cfg)
    cov = _instance_cover(rng, alg, cfg)
    return GluingInstance(alg, cov, random_gluing_datum(rng, alg, cov, cfg))


def random_bimodule_instance(cfg: GenConfig):
    """Deferred to avoid a circular import, as morita imports gen; see
    morita.random_bimodule_datum."""
    from . import morita

    rng = Rng(cfg.seed)
    left, right = random_algebra_pair(rng, cfg)
    cov = _instance_cover(rng, left, cfg)
    return morita.random_bimodule_datum(rng, left, right, cov, cfg)


def random_instance(cfg: GenConfig):
    """Dispatch on cfg.kind; the uniform entry point used by the CLI."""
    if cfg.kind == "module":
        return random_module_instance(cfg)
    if cfg.kind == "gluing":
        return random_gluing_instance(cfg)
    return random_bimodule_instance(cfg)
