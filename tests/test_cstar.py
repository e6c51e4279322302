import numpy as np
import pytest

from modglue import numlin
from modglue.cstar import (
    AlgebraElement,
    algebra,
    cover,
    element,
    eta_embed,
    image_of_eta_characterization,
    restrict_algebra,
    restrict_element,
    sum_algebra,
)
from modglue.errors import InvalidInputError
from modglue.gen import random_element
from modglue.rng import Rng


class TestRestriction:
    def test_full_restriction(self):
        A = algebra((2, 1, 3))
        assert restrict_algebra(A, {0, 1, 2}).block_dims == (2, 1, 3)

    def test_single_block(self):
        A = algebra((2, 1, 3))
        sub = restrict_algebra(A, {1})
        assert sub.block_dims == (1,) and sub.labels == (1,)

    def test_empty_restriction_is_zero_algebra(self):
        A = algebra((2, 1, 3))
        sub = restrict_algebra(A, set())
        assert sub.num_blocks == 0 and sub.dim == 0

    def test_out_of_range_label(self):
        A = algebra((2, 1, 3))
        with pytest.raises(InvalidInputError):
            restrict_algebra(A, {5})

    def test_element_example(self):
        A = algebra((2, 1, 3))
        a = element(A, (np.eye(2), [[3.0]], np.eye(3)))
        r = restrict_element(a, {0, 1})
        assert r.algebra.block_dims == (2, 1)
        assert np.allclose(r.blocks[1], [[3.0]])

    def test_double_restriction_functorial(self):
        A = algebra((2, 1, 3, 2))
        rng = Rng(11)
        a = random_element(rng, A)
        F, G = {0, 1, 3}, {1, 2, 3}
        twice = restrict_element(restrict_element(a, F), F & G)
        once = restrict_element(a, F & G)
        assert twice.algebra.labels == once.algebra.labels
        assert (twice - once).norm() == 0.0

    def test_restricted_norm_is_max_over_retained_blocks(self):
        A = algebra((2, 3, 1))
        rng = Rng(5)
        a = random_element(rng, A)
        F = {0, 2}
        expected = max(numlin.op_norm(a.block(k)) for k in F)
        assert restrict_element(a, F).norm() == pytest.approx(expected, rel=1e-12)

    def test_restriction_is_star_homomorphism(self):
        A = algebra((2, 2, 3))
        rng = Rng(6)
        a, b = random_element(rng, A), random_element(rng, A)
        F = {0, 2}
        prod = restrict_element(a * b, F) - restrict_element(a, F) * restrict_element(b, F)
        assert prod.norm() == 0.0
        star = restrict_element(a.adjoint(), F) - restrict_element(a, F).adjoint()
        assert star.norm() == 0.0


class TestCover:
    def test_union_must_cover(self):
        with pytest.raises(InvalidInputError):
            cover(3, [{0, 1}])

    def test_empty_sets_allowed(self):
        cov = cover(2, [{0, 1}, set()])
        assert cov.num_sets == 2
        assert cov.members(0) == (0,)

    def test_overlaps(self):
        cov = cover(3, [{0, 1}, {1, 2}])
        assert cov.overlap(0, 1) == frozenset({1})
        assert list(cov.pairs(include_diagonal=False)) == [(0, 1), (1, 0)]


class TestEta:
    def test_identity_element_embeds_to_identities(self):
        A = algebra((2, 1))
        cov = cover(2, [{0, 1}, {1}])
        b = eta_embed(A, cov, A.identity())
        for (i, k) in b.algebra.labels:
            n = A.block_dims[k]
            assert np.allclose(b.block((i, k)), np.eye(n))

    def test_isometry(self):
        A = algebra((2, 3, 1))
        cov = cover(3, [{0, 1}, {1, 2}, {0}])
        rng = Rng(7)
        for _ in range(10):
            a = random_element(rng, A)
            assert eta_embed(A, cov, a).norm() == pytest.approx(a.norm(), rel=1e-12)

    def test_homomorphism(self):
        A = algebra((2, 2))
        cov = cover(2, [{0}, {0, 1}])
        rng = Rng(8)
        a, b = random_element(rng, A), random_element(rng, A)
        lhs = eta_embed(A, cov, a) * eta_embed(A, cov, b)
        rhs = eta_embed(A, cov, a * b)
        assert (lhs - rhs).norm() == 0.0

    def test_image_characterization_accepts_eta(self):
        A = algebra((2, 1, 3))
        cov = cover(3, [{0, 1}, {1, 2}])
        rng = Rng(9)
        b = eta_embed(A, cov, random_element(rng, A))
        assert image_of_eta_characterization(b, cov)

    def test_image_characterization_rejects_perturbation(self):
        A = algebra((2, 1))
        cov = cover(2, [{0, 1}, {1}])
        b = eta_embed(A, cov, A.identity())
        blocks = list(b.blocks)
        pos = b.algebra.position((1, 1))
        blocks[pos] = blocks[pos] + 1e-3
        b2 = AlgebraElement(b.algebra, tuple(blocks))
        assert not image_of_eta_characterization(b2, cov)

    def test_constraint_count_matches_kernel_dimension(self):
        # number of independent equality constraints = sum_k n_k^2 (c_k - 1)
        A = algebra((2, 1, 3))
        cov = cover(3, [{0, 1}, {1, 2}, {1}])
        B = sum_algebra(A, cov)
        bdim = B.dim

        rows = []
        flat_offsets = {}
        ofs = 0
        for lab, n in zip(B.labels, B.block_dims):
            flat_offsets[lab] = ofs
            ofs += n * n
        for (i, j) in cov.pairs(include_diagonal=False):
            if i > j:
                continue
            for k in sorted(cov.overlap(i, j)):
                n = A.block_dims[k]
                for e in range(n * n):
                    row = np.zeros(bdim, dtype=np.complex128)
                    row[flat_offsets[(i, k)] + e] = 1.0
                    row[flat_offsets[(j, k)] + e] = -1.0
                    rows.append(row)
        C = np.stack(rows)
        expected_constraints = sum(
            A.block_dims[k] ** 2 * (len(cov.members(k)) - 1)
            for k in range(A.num_blocks)
        )
        assert numlin.rank_of(numlin.singular_values(C), numlin.DEFAULT_RANK_TOL) == expected_constraints
        assert numlin.kernel_basis(C).shape[1] == bdim - expected_constraints == A.dim

    def test_restriction_norms_attain_max(self):
        A = algebra((2, 3))
        cov = cover(2, [{0}, {0, 1}])
        rng = Rng(10)
        a = random_element(rng, A)
        norms = [restrict_element(a, F).norm() for F in cov.sets]
        assert max(norms) == pytest.approx(a.norm(), rel=1e-12)


class TestBoundary:
    """element() refuses what AlgebraElement trusts."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_element_rejects_non_finite(self, bad):
        A = algebra((2, 1))
        blocks = [np.eye(2), np.ones((1, 1))]
        blocks[0][1, 0] = bad
        with pytest.raises(InvalidInputError):
            element(A, blocks)

    def test_element_rejects_wrong_shape_and_count(self):
        A = algebra((2, 1))
        with pytest.raises(InvalidInputError):
            element(A, [np.eye(2), np.eye(2)])
        with pytest.raises(InvalidInputError):
            element(A, [np.eye(2)])
        with pytest.raises(InvalidInputError):
            element(A, [np.eye(2), np.eye(1), np.eye(1)])
        with pytest.raises(InvalidInputError):
            element(A, [np.ones(4), np.eye(1)])

    def test_norm_rejects_a_non_finite_record(self):
        a = AlgebraElement(algebra((1,)), (np.array([[np.nan]], dtype=np.complex128),))
        with pytest.raises(InvalidInputError):
            a.norm()
