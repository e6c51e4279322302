import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modglue import numlin
from modglue.errors import InvalidInputError

from oracles import power_iteration_top_singular, row_reduction_rank

RNG = np.random.default_rng(20240817)


def crand(m, n):
    return RNG.normal(size=(m, n)) + 1j * RNG.normal(size=(m, n))


class TestKernelBasis:
    def test_rank_one_diagonal(self):
        K = numlin.kernel_basis(np.diag([1.0, 0.0]))
        assert K.shape == (2, 1)
        assert abs(abs(K[1, 0]) - 1.0) < 1e-12 and abs(K[0, 0]) < 1e-12

    def test_zero_matrix_full_kernel(self):
        K = numlin.kernel_basis(np.zeros((2, 2)))
        assert K.shape == (2, 2)
        assert np.allclose(K.conj().T @ K, np.eye(2))

    def test_rank_nullity_against_row_reduction(self):
        # 3x5 built from 3x2 times 2x5: kernel dimension 3 by rank-nullity,
        # with the rank certified by the independent elimination oracle
        M = crand(3, 2) @ crand(2, 5)
        oracle_rank = row_reduction_rank(M)
        assert oracle_rank == 2
        K = numlin.kernel_basis(M)
        assert K.shape[1] == 5 - oracle_rank == 3
        assert numlin.op_norm(M @ K) <= 1e-10 * max(1.0, numlin.op_norm(M))
        assert np.allclose(K.conj().T @ K, np.eye(3), atol=1e-12)

    def test_empty_shapes(self):
        assert numlin.kernel_basis(np.zeros((0, 3))).shape == (3, 3)
        assert numlin.kernel_basis(np.zeros((3, 0))).shape == (0, 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            numlin.kernel_basis(np.array([[np.nan, 0.0]]))
        with pytest.raises(InvalidInputError):
            numlin.op_norm(np.array([[np.inf]]))

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidInputError):
            numlin.kernel_basis(np.eye(2), tol=0.0)


class TestOpNorm:
    def test_identity(self):
        assert numlin.op_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert numlin.op_norm(np.diag([2.0, 1.0])) == pytest.approx(2.0)

    def test_against_power_iteration(self):
        M = crand(4, 3)
        assert numlin.op_norm(M) == pytest.approx(
            power_iteration_top_singular(M), rel=1e-9
        )

    def test_empty(self):
        assert numlin.op_norm(np.zeros((0, 4))) == 0.0

    def test_submultiplicative_and_adjoint_invariant(self):
        for _ in range(25):
            A = crand(3, 4)
            B = crand(4, 2)
            na, nb, nab = numlin.op_norm(A), numlin.op_norm(B), numlin.op_norm(A @ B)
            assert nab <= na * nb * (1 + 1e-9)
            assert numlin.op_norm(A.conj().T) == pytest.approx(na, rel=1e-9)


class TestOpNorms:
    def test_equals_op_norm_matrix_by_matrix(self):
        stack = np.stack([crand(4, 3) for _ in range(6)]).reshape(2, 3, 4, 3)
        norms = numlin.op_norms(stack)
        assert norms.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert norms[idx] == numlin.op_norm(stack[idx])

    def test_empty_stack(self):
        assert numlin.op_norms(np.zeros((0, 3, 3))).shape == (0,)

    @pytest.mark.parametrize("shape", [(3, 0, 4), (2, 4, 0), (2, 0, 0)])
    def test_empty_members_give_zero(self, shape):
        norms = numlin.op_norms(np.zeros(shape, dtype=np.complex128))
        assert norms.shape == (shape[0],) and not norms.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        stack = np.stack([crand(2, 2), crand(2, 2)])
        stack[1, 0, 1] = bad
        with pytest.raises(InvalidInputError):
            numlin.op_norms(stack)

    def test_rejects_a_vector(self):
        with pytest.raises(InvalidInputError):
            numlin.op_norms(np.ones(3))


class TestIsUnitary:
    def test_identity(self):
        assert numlin.is_unitary(np.eye(3), 1e-12)

    def test_phases(self):
        theta = 0.73
        assert numlin.is_unitary(np.diag([1.0, np.exp(1j * theta)]), 1e-12)

    def test_nonsquare_isometry_is_false(self):
        V = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).T[:, :2]  # 3x2 isometry
        assert V.shape == (3, 2)
        assert not numlin.is_unitary(V, 1e-9)

    def test_empty_is_unitary(self):
        assert numlin.is_unitary(np.zeros((0, 0)), 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=1, max_value=6),
    r=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_kernel_dim_plus_rank_is_cols(m, n, r, seed):
    rng = np.random.default_rng(seed)
    r = min(r, m, n)
    if r == 0:
        M = np.zeros((m, n), dtype=np.complex128)
    else:
        M = (rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))) @ (
            rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
        )
    assert numlin.kernel_basis(M).shape[1] + numlin.rank(M) == n


def low_rank(m, n, r):
    """An m x n complex matrix of rank r (the zero matrix when r = 0)."""
    if r == 0:
        return np.zeros((m, n), dtype=np.complex128)
    return crand(m, r) @ crand(r, n)


def full_svd_kernel(M, tol=numlin.DEFAULT_RANK_TOL):
    """Reference kernel basis from the full SVD, V taken whole."""
    rows, cols = M.shape
    if 0 in M.shape:
        return np.eye(cols, dtype=np.complex128)
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    r = int(np.sum(s > tol * s[0])) if s[0] > 0.0 else 0
    return vh[r:].conj().T


@pytest.mark.parametrize("shape,r", [
    ((7, 3), 3),  # tall, full column rank
    ((8, 4), 2),  # tall, rank-deficient
    ((3, 7), 3),  # wide, full row rank
    ((4, 7), 2),  # wide, rank-deficient
    ((5, 5), 5),  # square, invertible
    ((5, 5), 3),  # square, rank-deficient
    ((4, 3), 0),  # all-zero, tall
    ((3, 5), 0),  # all-zero, wide
    ((0, 3), 0),  # no rows
    ((3, 0), 0),  # no columns
    ((0, 0), 0),  # empty
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"rank{v}")
def test_kernel_basis_matches_full_svd_reference(shape, r):
    M = low_rank(*shape, r)
    K, s = numlin.kernel_basis(M, return_singular_values=True)
    ref = full_svd_kernel(M)
    cols = shape[1]
    assert K.shape == ref.shape == (cols, cols - r)
    assert numlin.subspace_gap(K, ref) <= 1e-12
    assert numlin.rank(M) + K.shape[1] == cols
    assert np.allclose(K.conj().T @ K, np.eye(K.shape[1]), atol=1e-12)
    assert np.allclose(s, numlin.singular_values(M), rtol=0, atol=1e-12 * numlin.op_norm(M))
    assert np.array_equal(numlin.kernel_basis(M), K)


class TestRankMargin:
    def test_clear_gap(self):
        s = np.array([4.0, 2.0, 4e-14])
        kept, dropped = numlin.rank_margin(s, 3, 1e-10)
        assert kept == pytest.approx(2.0 / 4e-10)
        assert dropped == pytest.approx(4e-14 / 4e-10)

    def test_wide_full_rank_discards_exact_zeros(self):
        assert numlin.rank_margin(np.array([1.0, 0.5]), 4, 1e-10)[1] == 0.0

    def test_square_full_rank_discards_nothing(self):
        assert numlin.rank_margin(np.array([1.0, 0.5]), 2, 1e-10) == (5e9, None)

    def test_zero_and_empty(self):
        assert numlin.rank_margin(np.zeros(2), 3, 1e-10) == (None, 0.0)
        assert numlin.rank_margin(np.zeros(0), 3, 1e-10) == (None, 0.0)
        assert numlin.rank_margin(np.zeros(0), 0, 1e-10) == (None, None)


def test_subspace_gap():
    Q = np.linalg.qr(crand(5, 5))[0]
    B1, B2 = Q[:, :2], Q[:, :2] @ np.linalg.qr(crand(2, 2))[0]
    assert numlin.subspace_gap(B1, B2) < 1e-12
    assert numlin.subspace_gap(Q[:, :2], Q[:, 2:4]) > 0.99
