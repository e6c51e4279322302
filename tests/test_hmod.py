import numpy as np
import pytest

from modglue import numlin
from modglue.cstar import algebra
from modglue.errors import InvalidInputError
from modglue.gen import random_element, random_vector
from modglue.hmod import (
    AdjointableMap,
    ModuleVector,
    adjoint_of,
    apply_map,
    compose,
    coords,
    from_coords,
    inner_product,
    map_norm,
    module,
    module_map,
    restrict_map,
    restrict_module,
    restrict_vector,
    right_act,
    unitary_residual,
    vec_norm,
    vector,
)
from modglue.rng import Rng

import oracles


def rand_map(rng, src, tgt):
    return AdjointableMap(src, tgt, tuple(
        rng.gauss_matrix(p, m) for p, m in zip(tgt.mult, src.mult)
    ))


@pytest.fixture
def setup():
    A = algebra((2, 1, 3))
    X = module(A, (1, 2, 2))
    return A, X, Rng(31)


class TestInnerProduct:
    def test_single_block_example(self):
        A = algebra((2,))
        X = module(A, (1,))
        x = ModuleVector(X, (np.array([[1.0, 0.0]]),))
        ip = inner_product(x, x)
        assert np.allclose(ip.blocks[0], np.diag([1.0, 0.0]))

    def test_right_linearity(self, setup):
        A, X, rng = setup
        x, y = random_vector(rng, X), random_vector(rng, X)
        a = random_element(rng, A)
        lhs = inner_product(x, right_act(y, a))
        rhs = inner_product(x, y) * a
        assert (lhs - rhs).norm() < 1e-12

    def test_norm_consistency(self, setup):
        # ||x||^2 computed two ways: blockwise sup norm vs algebra norm of <x|x>
        A, X, rng = setup
        for _ in range(10):
            x = random_vector(rng, X)
            assert vec_norm(x) ** 2 == pytest.approx(
                numlin.op_norm(max(inner_product(x, x).blocks, key=numlin.op_norm)),
                rel=1e-9,
            )

    def test_cauchy_schwarz(self, setup):
        A, X, rng = setup
        for _ in range(20):
            x, y = random_vector(rng, X), random_vector(rng, X)
            assert inner_product(x, y).norm() <= vec_norm(x) * vec_norm(y) * (1 + 1e-9)

    def test_module_mismatch(self, setup):
        A, X, rng = setup
        Y = module(A, (2, 2, 2))
        with pytest.raises(InvalidInputError):
            inner_product(random_vector(rng, X), random_vector(rng, Y))


class TestRightAction:
    def test_identity_and_zero(self, setup):
        A, X, rng = setup
        x = random_vector(rng, X)
        assert vec_norm(right_act(x, A.identity()) - x) == 0.0
        assert vec_norm(right_act(x, A.zero())) == 0.0

    def test_associativity(self, setup):
        A, X, rng = setup
        x = random_vector(rng, X)
        a, b = random_element(rng, A), random_element(rng, A)
        lhs = right_act(right_act(x, a), b)
        rhs = right_act(x, a * b)
        assert vec_norm(lhs - rhs) < 1e-12


class TestRestriction:
    def test_shapes(self):
        A = algebra((2, 1, 3))
        X = module(A, (1, 2, 2))
        sub = restrict_module(X, {0, 1})
        assert sub.mult == (1, 2) and sub.algebra.block_dims == (2, 1)

    def test_full_restriction_identity(self, setup):
        A, X, rng = setup
        x = random_vector(rng, X)
        assert vec_norm(restrict_vector(x, {0, 1, 2}) - x) == 0.0

    def test_quotient_norm_is_projection_distance(self, setup):
        # ||x|_F|| equals the distance from x to the submodule supported off F
        A, X, rng = setup
        F = {0, 2}
        x = random_vector(rng, X)
        killed = ModuleVector(X, tuple(
            np.zeros_like(b) if k in F else b
            for k, b in zip(A.labels, x.blocks)
        ))
        assert vec_norm(restrict_vector(x, F)) == pytest.approx(
            vec_norm(x - killed), rel=1e-12
        )
        # and is a lower bound for any other candidate in the submodule
        for _ in range(10):
            v = random_vector(rng, X)
            v = ModuleVector(X, tuple(
                np.zeros_like(b) if k in F else b
                for k, b in zip(A.labels, v.blocks)
            ))
            assert vec_norm(x - v) >= vec_norm(restrict_vector(x, F)) - 1e-12

    def test_restrict_map_functorial(self, setup):
        A, X, rng = setup
        Y = module(A, (2, 1, 3))
        Z = module(A, (1, 1, 1))
        a = rand_map(rng, X, Y)
        b = rand_map(rng, Y, Z)
        F = {1, 2}
        lhs = restrict_map(compose(b, a), F)
        rhs = compose(restrict_map(b, F), restrict_map(a, F))
        assert map_norm(lhs - rhs) == 0.0
        assert map_norm(restrict_map(adjoint_of(a), F) - adjoint_of(restrict_map(a, F))) == 0.0


class TestAdjointable:
    def test_adjoint_of_identity(self, setup):
        A, X, _ = setup
        assert map_norm(adjoint_of(oracles.identity_map(X)) - oracles.identity_map(X)) == 0.0

    def test_double_adjoint(self, setup):
        A, X, rng = setup
        Y = module(A, (3, 1, 2))
        a = rand_map(rng, X, Y)
        assert map_norm(adjoint_of(adjoint_of(a)) - a) == 0.0

    def test_adjoint_identity_on_vectors(self, setup):
        A, X, rng = setup
        Y = module(A, (3, 1, 2))
        a = rand_map(rng, X, Y)
        for _ in range(10):
            x, y = random_vector(rng, X), random_vector(rng, Y)
            lhs = inner_product(apply_map(a, x), y)
            rhs = inner_product(x, apply_map(adjoint_of(a), y))
            assert (lhs - rhs).norm() < 1e-12

    def test_norm_is_max_block(self, setup):
        A, X, rng = setup
        a = rand_map(rng, X, X)
        assert map_norm(a) == pytest.approx(
            max(numlin.op_norm(b) for b in a.blocks)
        )


class TestUnitaryMaps:
    def test_identity_and_phases(self, setup):
        A, X, rng = setup
        assert unitary_residual(oracles.identity_map(X)) <= 1e-12
        phased = module_map(X, X, tuple(
            np.exp(1j * 0.3 * (k + 1)) * np.eye(m) for k, m in enumerate(X.mult)
        ))
        assert unitary_residual(phased) <= 1e-12

    def test_nonsquare_block_fails(self):
        A = algebra((2, 1))
        X = module(A, (1, 2))
        Y = module(A, (2, 2))
        bad = module_map(X, Y, (np.zeros((2, 1)), np.eye(2)))
        assert not unitary_residual(bad) <= 1e-9

    def test_unitary_preserves_inner_products(self, setup):
        A, X, rng = setup
        U = module_map(X, X, tuple(rng.unitary(m) for m in X.mult))
        assert unitary_residual(U) <= 1e-12
        x, y = random_vector(rng, X), random_vector(rng, X)
        lhs = inner_product(apply_map(U, x), apply_map(U, y))
        assert (lhs - inner_product(x, y)).norm() < 1e-12


class TestCoords:
    def test_coords_round_trip(self, setup):
        A, X, rng = setup
        x = random_vector(rng, X)
        assert vec_norm(from_coords(X, coords(x)) - x) == 0.0


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestBoundary:
    """The validating constructors refuse what the records trust."""

    @pytest.fixture
    def blocks(self, setup):
        A, X, rng = setup
        return [rng.gauss_matrix(m, n) for m, n in X.block_shapes()]

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_vector_rejects_non_finite(self, setup, blocks, bad):
        _, X, _ = setup
        blocks[2][1, 0] = bad
        with pytest.raises(InvalidInputError):
            vector(X, blocks)

    def test_vector_rejects_wrong_shape_and_count(self, setup, blocks):
        _, X, _ = setup
        with pytest.raises(InvalidInputError):
            vector(X, [blocks[0], blocks[1], blocks[2].T])
        with pytest.raises(InvalidInputError):
            vector(X, blocks[:2])
        with pytest.raises(InvalidInputError):
            vector(X, blocks + [np.zeros((1, 1))])

    def test_vector_coerces_to_complex(self, setup):
        _, X, _ = setup
        x = vector(X, [np.ones(s, dtype=int).tolist() for s in X.block_shapes()])
        assert type(x.blocks) is tuple
        assert all(b.dtype == np.complex128 for b in x.blocks)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_from_coords_rejects_non_finite(self, setup, bad):
        _, X, _ = setup
        u = np.ones(X.dim, dtype=np.complex128)
        u[X.dim - 1] = bad
        with pytest.raises(InvalidInputError):
            from_coords(X, u)

    def test_from_coords_rejects_wrong_length(self, setup):
        A, X, _ = setup
        with pytest.raises(InvalidInputError):
            from_coords(X, np.ones(X.dim - 1))
        with pytest.raises(InvalidInputError):
            from_coords(X, np.ones(X.dim + 2))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_module_map_rejects_non_finite(self, setup, bad):
        A, X, rng = setup
        Y = module(A, (2, 1, 3))
        blocks = [rng.gauss_matrix(p, m) for p, m in zip(Y.mult, X.mult)]
        blocks[0][0, 0] = bad
        with pytest.raises(InvalidInputError):
            module_map(X, Y, blocks)

    def test_module_map_rejects_wrong_shape_count_and_algebra(self, setup):
        A, X, rng = setup
        Y = module(A, (2, 1, 3))
        blocks = [rng.gauss_matrix(p, m) for p, m in zip(Y.mult, X.mult)]
        with pytest.raises(InvalidInputError):
            module_map(X, Y, [blocks[0].T, blocks[1], blocks[2]])
        with pytest.raises(InvalidInputError):
            module_map(X, Y, blocks[:2])
        other = module(algebra((2, 1, 3), labels=(0, 1, 5)), Y.mult)
        with pytest.raises(InvalidInputError):
            module_map(X, other, blocks)

    def test_norm_rejects_a_non_finite_record(self, setup):
        # records trust their blocks; the numlin decision refuses them
        _, X, rng = setup
        x = random_vector(rng, X)
        with np.errstate(invalid="ignore"):
            y = float("inf") * x
        with pytest.raises(InvalidInputError):
            vec_norm(y)
