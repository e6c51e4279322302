"""Finite-dimensional C*-algebras, closed covers of their block spectrum,
restriction (block deletion), and the diagonal embedding of an algebra into
the direct sum of its restrictions.

An algebra is a finite direct sum of full matrix blocks.  Its primitive ideal
space is the set of block labels with the discrete topology, so every subset
is closed and restriction to a closed set is literally deletion of the blocks
outside it.  Labels are preserved through restriction, which makes repeated
restriction strictly associative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numlin
from .errors import InvalidInputError
from .numlin import DEFAULT_TOL


@dataclass(frozen=True)
class FdCStarAlgebra:
    """Direct sum of full matrix algebras, one block per label."""

    block_dims: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.block_dims) != len(self.labels):
            raise InvalidInputError("block_dims and labels must be parallel")
        if any(int(n) < 1 for n in self.block_dims):
            raise InvalidInputError("block dimensions must be >= 1")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidInputError("labels must be distinct")

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def dim(self) -> int:
        return sum(n * n for n in self.block_dims)

    @cached_property
    def _positions(self) -> dict:
        return {label: p for p, label in enumerate(self.labels)}

    def position(self, label) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise InvalidInputError(f"label {label!r} not in algebra") from None

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(
            self, tuple(np.eye(n, dtype=np.complex128) for n in self.block_dims)
        )

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(
            self, tuple(np.zeros((n, n), dtype=np.complex128) for n in self.block_dims)
        )

    def matrix_units(self):
        """Yield (position, s, t, element) over the matrix-unit basis."""
        for pos, n in enumerate(self.block_dims):
            for s in range(n):
                for t in range(n):
                    blocks = [np.zeros((m, m), dtype=np.complex128) for m in self.block_dims]
                    blocks[pos][s, t] = 1.0
                    yield pos, s, t, AlgebraElement(self, tuple(blocks))


def algebra(block_dims, labels=None) -> FdCStarAlgebra:
    dims = tuple(int(n) for n in block_dims)
    if labels is None:
        labels = tuple(range(len(dims)))
    return FdCStarAlgebra(dims, tuple(labels))


@dataclass(eq=False)
class AlgebraElement:
    """One square complex matrix per block of its algebra.

    A record that trusts its blocks, a tuple of finite complex128 n_k x n_k
    matrices: element() validates them, operations build it directly."""

    algebra: FdCStarAlgebra
    blocks: tuple

    def __add__(self, other):
        _same_algebra(self, other)
        return AlgebraElement(
            self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks))
        )

    def __sub__(self, other):
        _same_algebra(self, other)
        return AlgebraElement(
            self.algebra, tuple(a - b for a, b in zip(self.blocks, other.blocks))
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            _same_algebra(self, other)
            return AlgebraElement(
                self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks))
            )
        return AlgebraElement(self.algebra, tuple(other * b for b in self.blocks))

    def __rmul__(self, scalar):
        return AlgebraElement(self.algebra, tuple(scalar * b for b in self.blocks))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(b.conj().T for b in self.blocks))

    def norm(self) -> float:
        return max((numlin.op_norm(b) for b in self.blocks), default=0.0)

    def block(self, label) -> np.ndarray:
        return self.blocks[self.algebra.position(label)]


def element(alg: FdCStarAlgebra, blocks) -> AlgebraElement:
    """AlgebraElement from finite n_k x n_k blocks, coerced to complex128."""
    blocks = tuple(blocks)
    if len(blocks) != alg.num_blocks:
        raise InvalidInputError("wrong number of blocks")
    return AlgebraElement(
        alg, tuple(numlin.as_cmatrix(b, (n, n)) for b, n in zip(blocks, alg.block_dims))
    )


def _same_algebra(a: AlgebraElement, b: AlgebraElement):
    if a.algebra.labels != b.algebra.labels or a.algebra.block_dims != b.algebra.block_dims:
        raise InvalidInputError("elements live over different algebras")


def restrict_algebra(A: FdCStarAlgebra, F) -> FdCStarAlgebra:
    """Keep the blocks labelled by F, preserving label order and names."""
    F = frozenset(F)
    for label in F:
        A.position(label)
    keep = [i for i, lab in enumerate(A.labels) if lab in F]
    return FdCStarAlgebra(
        tuple(A.block_dims[i] for i in keep), tuple(A.labels[i] for i in keep)
    )


def is_restriction(sub: FdCStarAlgebra, A: FdCStarAlgebra, F) -> bool:
    """Whether sub == restrict_algebra(A, F), read from the labels and block
    dimensions without building the restriction; a label of F outside A
    raises as restrict_algebra does."""
    for label in F:
        A.position(label)
    keep = [p for p, label in enumerate(A.labels) if label in F]
    return (sub.labels == tuple(A.labels[p] for p in keep)
            and sub.block_dims == tuple(A.block_dims[p] for p in keep))


def restrict_element(a: AlgebraElement, F) -> AlgebraElement:
    """Quotient map onto the restricted algebra: delete blocks outside F."""
    sub = restrict_algebra(a.algebra, F)
    return AlgebraElement(sub, tuple(a.block(lab) for lab in sub.labels))


@dataclass(frozen=True)
class ClosedCover:
    """Finite family of subsets of the block label set, whose union is all of it.

    The spectrum is discrete, so every subset is closed and any finite family
    is automatically locally finite.
    """

    prim_size: int
    sets: tuple  # tuple of frozensets of labels 0..prim_size-1

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        universe = set(range(self.prim_size))
        for s in self.sets:
            if not s <= universe:
                raise InvalidInputError("cover set contains out-of-range labels")
        union = set().union(*self.sets) if self.sets else set()
        if union != universe:
            raise InvalidInputError("cover does not exhaust the label set")

    @property
    def num_sets(self) -> int:
        return len(self.sets)

    def overlap(self, *indices) -> frozenset:
        out = self.sets[indices[0]]
        for i in indices[1:]:
            out = out & self.sets[i]
        return out

    @cached_property
    def _members(self) -> dict:
        return {k: tuple(i for i, s in enumerate(self.sets) if k in s) for k in range(self.prim_size)}

    def members(self, label) -> tuple:
        """Indices i with label in F_i, ascending; () for a label no set owns."""
        return self._members.get(label, ())

    @cached_property
    def member_positions(self) -> dict:
        """label -> {i: the position of i in members(label)}, for every label."""
        return {k: {i: a for a, i in enumerate(ms)} for k, ms in self._members.items()}

    def pairs(self, include_diagonal=True):
        """Ordered pairs (i, j) with nonempty overlap, lexicographic."""
        for i in range(self.num_sets):
            for j in range(self.num_sets):
                if not include_diagonal and i == j:
                    continue
                if self.overlap(i, j):
                    yield (i, j)

    def triples(self):
        """Ordered triples (i, j, l) with nonempty F_i & F_j & F_l, lexicographic."""
        for i in range(self.num_sets):
            for j in range(self.num_sets):
                for l in range(self.num_sets):
                    if self.overlap(i, j, l):
                        yield (i, j, l)


def cover(prim_size: int, sets) -> ClosedCover:
    return ClosedCover(prim_size, tuple(frozenset(s) for s in sets))


def sum_algebra(A: FdCStarAlgebra, cov: ClosedCover) -> FdCStarAlgebra:
    """B, the direct sum of the restrictions of A to the cover sets, with
    blocks labelled by pairs (i, k): cover set i, label k in F_i."""
    if cov.prim_size != A.num_blocks:
        raise InvalidInputError("cover size does not match algebra")
    labels = [(i, k) for i, F in enumerate(cov.sets) for k in sorted(F)]
    return FdCStarAlgebra(tuple(A.block_dims[A.position(k)] for _, k in labels), tuple(labels))


def eta_embed(A: FdCStarAlgebra, cov: ClosedCover, a: AlgebraElement) -> AlgebraElement:
    """Diagonal embedding of A into B: block (i, k) of the image is block k of a."""
    B = sum_algebra(A, cov)
    _same_algebra(a, A.identity())
    return AlgebraElement(B, tuple(a.block(k) for (_, k) in B.labels))


def image_of_eta_characterization(b: AlgebraElement, cov: ClosedCover, tol: float = DEFAULT_TOL) -> bool:
    """True iff the duplicated blocks of b agree across cover sets within tol.

    Characterizes the image of the diagonal embedding: b = (b_i) comes from A
    exactly when b_i and b_j agree on every shared block.
    """
    for (i, j) in cov.pairs(include_diagonal=False):
        for k in sorted(cov.overlap(i, j)):
            if numlin.op_norm(b.block((i, k)) - b.block((j, k))) > tol:
                return False
    return True
