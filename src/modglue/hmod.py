"""Hilbert modules over finite-dimensional C*-algebras.

A module of multiplicity (m_k) over the algebra with blocks (n_k) is the
direct sum of the rectangular matrix spaces C^{m_k x n_k}; the inner product
is blockwise x_k* y_k, the right action is blockwise right multiplication,
and every adjointable map is blockwise left multiplication.  Restriction to a
closed label set deletes blocks, exactly as for algebra elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .cstar import AlgebraElement, FdCStarAlgebra, restrict_algebra
from .errors import InvalidInputError


@dataclass(frozen=True)
class HilbertModule:
    algebra: FdCStarAlgebra
    mult: tuple  # one nonnegative integer per algebra block

    def __post_init__(self):
        if len(self.mult) != self.algebra.num_blocks:
            raise InvalidInputError("multiplicity vector has wrong length")
        if any(int(m) < 0 for m in self.mult):
            raise InvalidInputError("multiplicities must be >= 0")

    @property
    def dim(self) -> int:
        return sum(m * n for m, n in zip(self.mult, self.algebra.block_dims))

    def block_shapes(self):
        return tuple(
            (m, n) for m, n in zip(self.mult, self.algebra.block_dims)
        )

    def zero_vector(self) -> "ModuleVector":
        return ModuleVector(
            self,
            tuple(np.zeros(s, dtype=np.complex128) for s in self.block_shapes()),
        )

    def basis_vectors(self):
        """Yield the standard coordinate basis, block by block, row-major."""
        for pos, (m, n) in enumerate(self.block_shapes()):
            for s in range(m):
                for t in range(n):
                    v = self.zero_vector()
                    v.blocks[pos][s, t] = 1.0
                    yield v


def module(alg: FdCStarAlgebra, mult) -> HilbertModule:
    return HilbertModule(alg, tuple(int(m) for m in mult))


@dataclass(eq=False)
class ModuleVector:
    """One m_k x n_k complex matrix per block of its module.

    A record that trusts its blocks, a tuple of finite complex128 matrices of
    the module's block shapes: vector() and from_coords() validate them,
    operations build it directly."""

    module: HilbertModule
    blocks: tuple  # m_k x n_k matrices

    def __add__(self, other):
        _same_module(self, other)
        return ModuleVector(
            self.module, tuple(a + b for a, b in zip(self.blocks, other.blocks))
        )

    def __sub__(self, other):
        _same_module(self, other)
        return ModuleVector(
            self.module, tuple(a - b for a, b in zip(self.blocks, other.blocks))
        )

    def __rmul__(self, scalar):
        return ModuleVector(self.module, tuple(scalar * b for b in self.blocks))

    def block(self, label) -> np.ndarray:
        return self.blocks[self.module.algebra.position(label)]


def vector(mod: HilbertModule, blocks) -> ModuleVector:
    """ModuleVector from finite blocks of the module's shapes, coerced to complex128."""
    blocks = tuple(blocks)
    if len(blocks) != mod.algebra.num_blocks:
        raise InvalidInputError("wrong number of blocks")
    return ModuleVector(
        mod, tuple(numlin.as_cmatrix(b, s) for b, s in zip(blocks, mod.block_shapes()))
    )


def _same_module(x: ModuleVector, y: ModuleVector):
    if x.module.algebra.labels != y.module.algebra.labels or x.module.mult != y.module.mult:
        raise InvalidInputError("vectors live in different modules")


def inner_product(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """Algebra-valued inner product, blockwise x_k* y_k (linear in y)."""
    _same_module(x, y)
    return AlgebraElement(
        x.module.algebra, tuple(a.conj().T @ b for a, b in zip(x.blocks, y.blocks))
    )


def right_act(x: ModuleVector, a: AlgebraElement) -> ModuleVector:
    if a.algebra.labels != x.module.algebra.labels:
        raise InvalidInputError("algebra element does not match module")
    return ModuleVector(
        x.module, tuple(xb @ ab for xb, ab in zip(x.blocks, a.blocks))
    )


def vec_norm(x: ModuleVector) -> float:
    """Hilbert-module norm ||<x|x>||^(1/2) = max blockwise operator norm."""
    return max((numlin.op_norm(b) for b in x.blocks), default=0.0)


def restrict_module(X: HilbertModule, F) -> HilbertModule:
    sub = restrict_algebra(X.algebra, F)
    keep = [X.algebra.position(lab) for lab in sub.labels]
    return HilbertModule(sub, tuple(X.mult[i] for i in keep))


def restrict_vector(x: ModuleVector, F) -> ModuleVector:
    sub = restrict_module(x.module, F)
    return ModuleVector(sub, tuple(x.block(lab) for lab in sub.algebra.labels))


@dataclass(eq=False)
class AdjointableMap:
    """Blockwise left multiplication T_k: source block -> target block.

    A record that trusts its modules (over one algebra) and blocks, a tuple
    of finite complex128 p_k x m_k matrices: module_map() validates them,
    operations build it directly."""

    source: HilbertModule
    target: HilbertModule
    blocks: tuple  # p_k x m_k matrices

    def __add__(self, other):
        _composable_like(self, other)
        return AdjointableMap(
            self.source, self.target,
            tuple(a + b for a, b in zip(self.blocks, other.blocks)),
        )

    def __sub__(self, other):
        _composable_like(self, other)
        return AdjointableMap(
            self.source, self.target,
            tuple(a - b for a, b in zip(self.blocks, other.blocks)),
        )

    def __rmul__(self, scalar):
        return AdjointableMap(
            self.source, self.target, tuple(scalar * b for b in self.blocks)
        )

    def block(self, label) -> np.ndarray:
        return self.blocks[self.source.algebra.position(label)]


def _composable_like(a: AdjointableMap, b: AdjointableMap):
    if a.source.mult != b.source.mult or a.target.mult != b.target.mult:
        raise InvalidInputError("maps have different source/target shapes")
    if a.source.algebra.labels != b.source.algebra.labels:
        raise InvalidInputError("maps live over different algebras")


def module_map(source: HilbertModule, target: HilbertModule, blocks) -> AdjointableMap:
    """AdjointableMap from finite p_k x m_k blocks, coerced to complex128."""
    if source.algebra.labels != target.algebra.labels:
        raise InvalidInputError("source and target must share an algebra")
    blocks = tuple(blocks)
    if len(blocks) != source.algebra.num_blocks:
        raise InvalidInputError("wrong number of blocks")
    return AdjointableMap(source, target, tuple(
        numlin.as_cmatrix(b, (p, m)) for b, p, m in zip(blocks, target.mult, source.mult)
    ))


def adjoint_of(alpha: AdjointableMap) -> AdjointableMap:
    return AdjointableMap(
        alpha.target, alpha.source, tuple(b.conj().T for b in alpha.blocks)
    )


def apply_map(alpha: AdjointableMap, x: ModuleVector) -> ModuleVector:
    if (x.module.mult != alpha.source.mult
            or x.module.algebra.labels != alpha.source.algebra.labels):
        raise InvalidInputError("vector does not live in the map's source")
    return ModuleVector(
        alpha.target, tuple(T @ xb for T, xb in zip(alpha.blocks, x.blocks))
    )


def compose(alpha: AdjointableMap, beta: AdjointableMap) -> AdjointableMap:
    """alpha after beta."""
    if beta.target.mult != alpha.source.mult:
        raise InvalidInputError("maps are not composable")
    return AdjointableMap(
        beta.source, alpha.target,
        tuple(a @ b for a, b in zip(alpha.blocks, beta.blocks)),
    )


def map_norm(alpha: AdjointableMap) -> float:
    return max((numlin.op_norm(b) for b in alpha.blocks), default=0.0)


def restrict_map(alpha: AdjointableMap, F) -> AdjointableMap:
    src = restrict_module(alpha.source, F)
    tgt = restrict_module(alpha.target, F)
    return AdjointableMap(
        src, tgt, tuple(alpha.block(lab) for lab in src.algebra.labels)
    )


def unitary_residual(alpha: AdjointableMap) -> float:
    """Largest unitarity defect of any block; inf on non-square blocks."""
    if any(T.shape[0] != T.shape[1] for T in alpha.blocks):
        return float("inf")
    return max((float(numlin.unitarity_defects(T[None])[0]) for T in alpha.blocks), default=0.0)


def coords(x: ModuleVector) -> np.ndarray:
    """Flatten to a coordinate vector, blocks in order, row-major within blocks."""
    parts = [b.reshape(-1) for b in x.blocks]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.complex128)


def from_coords(mod: HilbertModule, u) -> ModuleVector:
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    if u.size != mod.dim:
        raise InvalidInputError(f"coordinate vector has length {u.size}, expected {mod.dim}")
    blocks, ofs = [], 0
    for (m, n) in mod.block_shapes():
        blocks.append(u[ofs:ofs + m * n].reshape(m, n))
        ofs += m * n
    return vector(mod, blocks)
