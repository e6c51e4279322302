import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modglue import numlin
from modglue.cstar import algebra
from modglue.errors import InvalidInputError
from modglue.hmod import module, module_map, unitary_residual

from oracles import (
    padded_op_norm_maxima,
    power_iteration_top_singular,
    product_unitarity_residual,
    row_reduction_rank,
)

RNG = np.random.default_rng(20240817)


def rank(M):
    """The numerical rank of M at the package's default rank tolerance."""
    return numlin.rank_of(numlin.singular_values(M), numlin.DEFAULT_RANK_TOL)


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
        assert numlin.unitarity_defects(np.eye(3)[None])[0] <= 1e-12

    def test_phases(self):
        theta = 0.73
        assert numlin.unitarity_defects(np.diag([1.0, np.exp(1j * theta)])[None])[0] <= 1e-12

    def test_nonsquare_isometry_is_false(self):
        # a 3x2 isometry has no unitarity defect, so the map-level check
        # refuses it by its shape
        V = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).T[:, :2]  # 3x2 isometry
        assert V.shape == (3, 2)
        A = algebra((1,))
        assert not unitary_residual(module_map(module(A, (2,)), module(A, (3,)), (V,))) <= 1e-9

    def test_empty_is_unitary(self):
        assert numlin.unitarity_defects(np.zeros((1, 0, 0)))[0] <= 1e-12


UNITARITY_KINDS = ("unitary", "perturbed", "gaussian", "rank_deficient")


def unitarity_case(kind, m, rng):
    """An m x m matrix: a unitary, a unitary plus a 1e-12-sized Gaussian, a
    Gaussian, or a unitary with its last singular value set to 0."""
    G = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    if kind == "gaussian":
        return G
    Q = np.linalg.qr(G)[0] if m else G
    if kind == "perturbed":
        return Q + 1e-12 * (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    if kind == "rank_deficient":
        return Q @ np.diag([1.0] * (m - 1) + [0.0] * min(m, 1))
    return Q


@settings(max_examples=60, deadline=None)
@given(
    cases=st.lists(st.tuples(st.sampled_from(UNITARITY_KINDS), st.integers(min_value=0, max_value=5)),
                   min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
@example(cases=[("unitary", 0), ("unitary", 1), ("rank_deficient", 1), ("gaussian", 3)], seed=0)
def test_unitarity_defects_match_the_product_form(cases, seed):
    # each matrix alone against max(||U*U - I||, ||UU* - I||); scaled by
    # 1e200 a nonzero matrix overflows and is refused without a warning
    rng = np.random.default_rng(seed)
    for kind, m in cases:
        U = unitarity_case(kind, m, rng)
        r = product_unitarity_residual(U)
        d = numlin.unitarity_defects(U[None])[0]
        assert abs(d - r) <= 1e-12 * max(1.0, r)
        if kind in ("unitary", "perturbed") or m == 0:
            assert r <= 1e-10 and d <= 1e-9
        elif kind == "rank_deficient":
            assert abs(r - 1.0) <= 1e-12 and not d <= 1e-9
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if U.any():
                with pytest.raises(InvalidInputError):
                    numlin.unitarity_defects(1e200 * U[None])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def maxima_stack(kind, count, rows, cols, rng):
    """A (count, rows, cols) stack: Gaussian, exactly zero, all -0.0, or
    Gaussian with every other matrix exactly zero and -0.0 entries."""
    G = rng.standard_normal((count, rows, cols)) + 1j * rng.standard_normal((count, rows, cols))
    if kind == "zero":
        return np.zeros_like(G)
    if kind == "negative_zero":
        return np.full_like(G, complex(-0.0, -0.0))
    if kind == "mixed":
        G[::2] = 0.0
        G[G.real > 0.5] = complex(-0.0, -0.0)
    return G


@settings(max_examples=80, deadline=None)
@given(
    groups=st.lists(st.lists(st.tuples(
        st.sampled_from(["gaussian", "zero", "negative_zero", "mixed"]),
        st.integers(min_value=0, max_value=3),  # count; 0 as with trials=0
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4)), max_size=3), max_size=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
@example(groups=[[("zero", 2, 3, 2)], [], [("mixed", 3, 2, 4), ("negative_zero", 0, 4, 4)]], seed=0)
@example(groups=[[("zero", 0, 2, 2)], [("gaussian", 0, 3, 1)]], seed=0)
def test_op_norm_maxima_equal_the_padded_op_norms_bit_for_bit(groups, seed):
    # leaving out the exactly zero matrices changes no bit: their norm is
    # exactly 0.0, and every other matrix keeps its padding
    rng = np.random.default_rng(seed)
    stacks = [[maxima_stack(kind, *shape, rng) for kind, *shape in g] for g in groups]
    got, want = numlin.op_norm_maxima(stacks), padded_op_norm_maxima(stacks)
    assert all(type(x) is float for x in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_op_norm_maxima_refuses_nonfinite_entries():
    bad = np.zeros((2, 2, 2), dtype=np.complex128)
    bad[1, 0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        numlin.op_norm_maxima([[np.zeros((1, 3, 3))], [bad]])


class TestUnitarityDefects:
    def test_empty_matrices_and_stack(self):
        assert numlin.unitarity_defects(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]
        assert numlin.unitarity_defects(np.zeros((0, 3, 3))).shape == (0,)

    def test_returns_the_singular_values_of_its_svd(self):
        U = 2.0 * np.eye(2)
        d, s = numlin.unitarity_defects(U[None], return_singular_values=True)
        assert d.tolist() == [3.0] and s.tolist() == [[2.0, 2.0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        stack = np.stack([np.eye(2), np.eye(2)]).astype(np.complex128)
        stack[1, 0, 1] = bad
        with pytest.raises(InvalidInputError):
            numlin.unitarity_defects(stack)

    @pytest.mark.parametrize("shape", [(2, 3, 2), (3, 3)])
    def test_rejects_a_stack_that_is_not_square_matrices(self, shape):
        with pytest.raises(InvalidInputError):
            numlin.unitarity_defects(np.zeros(shape))


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
    assert numlin.kernel_basis(M).shape[1] + rank(M) == n


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
    assert rank(M) + K.shape[1] == cols
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

    def test_min_scale_raises_the_threshold_of_a_small_matrix(self):
        # against its own sigma_max a matrix of rounding noise keeps every
        # value; against a floor it keeps none, and a floor below sigma_max
        # changes nothing
        s = np.array([3e-16, 1e-16])
        assert numlin.rank_of(s, 1e-10) == 2
        assert numlin.rank_of(s, 1e-10, min_scale=2.0) == 0
        kept, dropped = numlin.rank_margin(s, 2, 1e-10, min_scale=2.0)
        assert kept is None and dropped == pytest.approx(3e-16 / 2e-10)
        t = np.array([4.0, 2.0, 4e-14])
        assert numlin.rank_margin(t, 3, 1e-10, min_scale=1.0) == numlin.rank_margin(t, 3, 1e-10)
        assert numlin.rank_margin(np.zeros(2), 3, 1e-10, min_scale=1.0) == (None, 0.0)
        assert numlin.rank_margin(np.zeros(0), 3, 1e-10, min_scale=1.0) == (None, 0.0)


def test_kernel_basis_min_scale_keeps_the_kernel_of_a_tiny_matrix():
    M = 1e-17 * crand(6, 2)
    assert numlin.kernel_basis(M).shape == (2, 0)
    K = numlin.kernel_basis(M, min_scale=1.0)
    assert K.shape == (2, 2)
    assert numlin.op_norm(K.conj().T @ K - np.eye(2)) <= 1e-12


def test_orthonormalize_spans_the_columns():
    M = crand(6, 3)
    Q = numlin.orthonormalize(M)
    assert Q.shape == (6, 3)
    assert numlin.op_norm(Q.conj().T @ Q - np.eye(3)) <= 1e-12
    assert numlin.subspace_gap(Q, numlin.orth_basis(M)) <= 1e-12
    assert numlin.orthonormalize(np.zeros((4, 0))).shape == (4, 0)


def test_subspace_gap():
    Q = np.linalg.qr(crand(5, 5))[0]
    B1, B2 = Q[:, :2], Q[:, :2] @ np.linalg.qr(crand(2, 2))[0]
    assert numlin.subspace_gap(B1, B2) < 1e-12
    assert numlin.subspace_gap(Q[:, :2], Q[:, 2:4]) > 0.99
