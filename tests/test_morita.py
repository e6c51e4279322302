import dataclasses
import importlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modglue import gen, morita, numlin
from modglue.cstar import algebra, cover
from modglue.errors import InvalidInputError, ModelViolationError, RankAmbiguityError
from modglue.gen import GenConfig
from modglue.glue import epsilon_iso, phi_map, validate_gluing_datum
from modglue.hmod import (
    AdjointableMap,
    apply_map,
    identity_map,
    inner_product,
    unitary_residual,
    vec_norm,
)
from modglue.morita import (
    EquivalenceBimodule,
    bimodule_data_isomorphic,
    bimodules_isomorphic,
    datum_tensor,
    dual_bimodule,
    dual_datum,
    dual_element,
    glue_bimodules,
    identity_bimodule,
    left_act,
    left_inner,
    obstruction_2cocycle,
    picard_conjugate,
    pull_apart_bimodule,
    random_bimodule,
    random_bimodule_datum,
    standard_bimodule,
    tensor_bimodules,
    tensor_elements,
    validate_bimodule,
    validate_bimodule_datum,
)
from modglue.rng import Rng

import oracles

glue_module = importlib.import_module("modglue.glue")  # modglue.glue is the function


@pytest.fixture
def algebras():
    return algebra((2, 3, 1)), algebra((1, 2, 2))


@pytest.fixture
def bimodule(algebras):
    left, right = algebras
    return random_bimodule(Rng(51), left, right)


def phases_datum(left=None, right=None):
    """The canonical twisted example: phases (1, 1, -1) on one block."""
    A1 = left or algebra((1,))
    B1 = right or A1
    cov = cover(A1.num_blocks, [frozenset(range(A1.num_blocks))] * 3)
    cfg = GenConfig(seed=1, twist_mode="prescribed_phases",
                    phases=((0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0), (0, 2, -1.0, 0.0)))
    return random_bimodule_datum(Rng(1), A1, B1, cov, cfg)


class TestValidate:
    def test_standard_is_clean(self, algebras):
        # identity twists have singular values exactly 1
        left, right = algebras
        v = validate_bimodule(standard_bimodule(left, right))
        assert v.passed
        assert v.imprimitivity == v.left_linearity == 0.0
        assert set(v.unitarity_defect.values()) == {0.0}

    def test_random_twist_passes(self, bimodule):
        v = validate_bimodule(bimodule)
        assert v.passed
        assert max(v.imprimitivity, v.left_linearity) < 1e-12
        # a unitary twist keeps every singular value, at relative size 1 / tol
        for kept, dropped in v.rank_margin.values():
            assert dropped is None and abs(kept * morita._TWIST_RANK_TOL - 1.0) < 1e-12

    def test_wrong_multiplicity_fails_fullness(self):
        # a bimodule whose left algebra does not match the multiplicity is
        # not representable in normal form: mult is defined as the left
        # block dimensions, so the shape law m_k = n'_k is structural
        M = standard_bimodule(algebra((2,)), algebra((3,)))
        assert M.mult == M.left_algebra.block_dims
        assert validate_bimodule(M).passed

    def test_passed_judges_residuals_at_the_given_tol(self):
        # (1 + eps) times a signed permutation has unitarity defect
        # d = 2 eps + eps^2 in (tol / 2, tol]: the twist counts as unitary,
        # but the imprimitivity bound d (s_max^2 + 1) exceeds tol
        rng = Rng(50)
        tol, eps = 1e-12, 4e-13
        left, right = algebra((3, 2)), algebra((2, 2))
        twists = tuple(
            (1 + eps) * np.diag([(-1.0) ** rng.randint(0, 1) for _ in range(m)])
            @ np.roll(np.eye(m, dtype=np.complex128), rng.randint(1, m - 1), axis=0)
            for m in left.block_dims
        )
        M = EquivalenceBimodule(left, right, twists)
        assert validate_bimodule(M).passed
        v = validate_bimodule(M, tol)
        assert v.tol == tol and v.twist_unitary
        assert all(tol / 2 < d <= tol for d in v.unitarity_defect.values())
        assert v.imprimitivity > tol
        assert not v.passed

    def test_transition_unitarity_uses_the_given_tol(self):
        A = algebra((2,))
        cov = cover(1, [{0}, {0}])
        M = standard_bimodule(A, A)
        near = (1 + 1e-12) * np.eye(2, dtype=np.complex128)
        D = morita.make_bimodule_datum(A, A, cov, (M, M), [(0, 1, 0, near)])
        assert validate_bimodule_datum(D).transitions_unitary
        assert not validate_bimodule_datum(D, 1e-30).transitions_unitary


class TestDual:
    def test_dual_of_standard(self, algebras):
        left, right = algebras
        M = standard_bimodule(left, right)
        d = dual_bimodule(M)
        assert d.left_algebra == right and d.right_algebra == left
        assert d.mult == right.block_dims

    def test_dual_inner_product_identity(self, bimodule):
        M = bimodule
        rng = Rng(52)
        Xr = M.right_module()
        x = gen.random_vector(rng, Xr)
        y = gen.random_vector(rng, Xr)
        lhs = inner_product(dual_element(M, x), dual_element(M, y))
        rhs = left_inner(M, x, y)
        assert (lhs - rhs).norm() < 1e-12

    def test_double_dual_standard_exact(self, algebras):
        left, right = algebras
        M = standard_bimodule(left, right)
        dd = dual_bimodule(dual_bimodule(M))
        assert dd.left_algebra == M.left_algebra
        assert all(np.array_equal(a, b) for a, b in zip(dd.twist, M.twist))
        x = gen.random_vector(Rng(53), M.right_module())
        assert vec_norm(dual_element(dual_bimodule(M), dual_element(M, x)) - x) == 0.0

    def test_double_dual_canonical_identification(self, bimodule):
        # for twisted M the identification is x |-> u* x, a bimodule unitary
        M = bimodule
        dd = dual_bimodule(dual_bimodule(M))
        w = bimodules_isomorphic(dd, M)
        assert w is not None
        x = gen.random_vector(Rng(54), M.right_module())
        ddx = dual_element(dual_bimodule(M), dual_element(M, x))
        expect = tuple(u.conj().T @ b for u, b in zip(M.twist, x.blocks))
        assert all(numlin.op_norm(a - b) < 1e-12 for a, b in zip(ddx.blocks, expect))


class TestTensor:
    def test_block_dimension(self, algebras):
        left, right = algebras
        M = standard_bimodule(left, left)
        N = standard_bimodule(left, right)
        T = tensor_bimodules(M, N)
        for m, n in zip(T.mult, left.block_dims):
            assert m == n

    def test_identity_absorbs(self, bimodule):
        M = bimodule
        T = tensor_bimodules(identity_bimodule(M.left_algebra), M)
        assert bimodules_isomorphic(T, M) is not None

    def test_m_tensor_dual_is_identity_class(self, bimodule):
        M = bimodule
        T = tensor_bimodules(M, dual_bimodule(M))
        w = bimodules_isomorphic(T, identity_bimodule(M.left_algebra))
        assert w is not None

    def test_tensor_elements_inner_products(self, bimodule):
        # the concrete product map preserves the induced inner products
        M = bimodule
        N = dual_bimodule(M)
        rng = Rng(55)
        x1, x2 = (gen.random_vector(rng, M.right_module()) for _ in range(2))
        y1, y2 = (gen.random_vector(rng, N.right_module()) for _ in range(2))
        t1 = tensor_elements(M, N, x1, y1)
        t2 = tensor_elements(M, N, x2, y2)
        # <x (x) y | x' (x) y'> = <y | <x|x'> . y'>
        mid = inner_product(x1, x2)  # valued in M's right algebra = N's left
        rhs = inner_product(y1, left_act(N, mid, y2))
        assert (inner_product(t1, t2) - rhs).norm() < 1e-10


class TestIsomorphism:
    def test_self_identity_witness(self, bimodule):
        w = bimodules_isomorphic(bimodule, bimodule)
        assert w is not None
        for Wk, m in zip(w, bimodule.mult):
            assert numlin.op_norm(Wk - np.eye(m)) < 1e-12

    def test_standard_vs_twisted_witness(self, algebras):
        left, right = algebras
        std = standard_bimodule(left, right)
        M = random_bimodule(Rng(56), left, right)
        w = bimodules_isomorphic(std, M)
        assert w is not None
        for Wk, u in zip(w, M.twist):
            assert numlin.op_norm(Wk - u) < 1e-12

    def test_shape_mismatch_gives_none(self):
        M = standard_bimodule(algebra((2,)), algebra((1,)))
        N = standard_bimodule(algebra((3,)), algebra((1,)))
        assert bimodules_isomorphic(M, N) is None


class TestTensorAssociativity:
    def test_associative_up_to_canonical_unitary(self, algebras):
        left, right = algebras
        mid1 = algebra((3, 1, 2))
        rng = Rng(76)
        M = random_bimodule(rng, left, mid1)
        N = random_bimodule(rng, mid1, right)
        P = random_bimodule(rng, right, right)
        lhs = tensor_bimodules(tensor_bimodules(M, N), P)
        rhs = tensor_bimodules(M, tensor_bimodules(N, P))
        # in normal form the two bracketings give identical data
        assert lhs.left_algebra == rhs.left_algebra
        assert all(np.array_equal(a, b) for a, b in zip(lhs.twist, rhs.twist))
        # and the concrete element maps agree up to float associativity
        x = gen.random_vector(rng, M.right_module())
        y = gen.random_vector(rng, N.right_module())
        z = gen.random_vector(rng, P.right_module())
        e1 = tensor_elements(tensor_bimodules(M, N), P, tensor_elements(M, N, x, y), z)
        e2 = tensor_elements(M, tensor_bimodules(N, P), x, tensor_elements(N, P, y, z))
        assert vec_norm(e1 - e2) < 1e-12


class TestGlueRoundTrip:
    def test_glue_pull_apart_is_isomorphic_via_phi(self, bimodule):
        M = bimodule
        cov = cover(3, [{0, 1}, {1, 2}, {0}])
        gb = glue_bimodules(pull_apart_bimodule(M, cov))
        assert gb.bimodule is not None
        assert gb.validation.passed
        phi = phi_map(gb.glued, M.right_module())
        assert unitary_residual(phi) < 1e-9
        rng = Rng(57)
        for _ in range(5):
            x = gen.random_vector(rng, M.right_module())
            ap = gen.random_element(rng, M.left_algebra)
            lhs = apply_map(phi, left_act(M, ap, x))
            rhs = left_act(gb.bimodule, ap, apply_map(phi, x))
            assert vec_norm(lhs - rhs) < 1e-9

    def test_single_set_cover_identity(self, bimodule):
        M = bimodule
        cov = cover(3, [{0, 1, 2}])
        gb = glue_bimodules(pull_apart_bimodule(M, cov))
        assert gb.bimodule is not None
        assert bimodules_isomorphic(gb.bimodule, M) is not None

    def test_converse_round_trip(self, algebras):
        left, right = algebras
        cov = cover(3, [{0, 1}, {1, 2}])
        cfg = GenConfig(seed=58, twist_mode="coherent")
        D = random_bimodule_datum(Rng(58), left, right, cov, cfg)
        gb = glue_bimodules(D)
        assert gb.bimodule is not None and gb.validation.passed
        back = pull_apart_bimodule(gb.bimodule, cov)
        assert bimodule_data_isomorphic(back, D) is not None

    def test_twisted_datum_fails_with_diagnostic(self):
        gb = glue_bimodules(phases_datum())
        assert gb.bimodule is None
        assert gb.dimension_deficit == {0: 1}


class TestObstruction:
    def test_coherent_scalars_are_one(self, algebras):
        left, right = algebras
        cov = cover(3, [{0, 1}, {1, 2}, {0, 2}])
        D = random_bimodule_datum(Rng(59), left, right, cov,
                                  GenConfig(seed=59, twist_mode="coherent"))
        f = obstruction_2cocycle(D)
        for per in f.values():
            for v in per.values():
                assert abs(v - 1.0) < 1e-12

    def test_prescribed_phases_give_minus_one(self):
        f = obstruction_2cocycle(phases_datum())
        assert abs(f[(0, 1, 2)][0] - (-1.0)) < 1e-12

    def test_scalars_have_unit_modulus(self, algebras):
        left, right = algebras
        cov = cover(3, [{0, 1, 2}] * 3)
        D = random_bimodule_datum(Rng(60), left, right, cov,
                                  GenConfig(seed=60, twist_mode="random_unitary"))
        f = obstruction_2cocycle(D)
        for per in f.values():
            for v in per.values():
                assert abs(abs(v) - 1.0) < 1e-10

    def test_non_bimodule_transition_detected(self, algebras):
        left, right = algebras
        cov = cover(3, [{0, 1, 2}] * 2)
        D = random_bimodule_datum(Rng(61), left, right, cov,
                                  GenConfig(seed=61, twist_mode="coherent"))
        # corrupt one transition so it stays unitary but is no bimodule map
        k = 0
        m = D.mult_at(0, k)
        assert m >= 2
        swap = np.eye(m, dtype=np.complex128)
        swap[[0, 1]] = swap[[1, 0]]
        D.nu[(0, 1)][k] = swap @ D.nu[(0, 1)][k]
        D.nu[(1, 0)][k] = D.nu[(0, 1)][k].conj().T
        assert validate_bimodule_datum(D).transitions_bimodule > 1e-3
        with pytest.raises(ModelViolationError):
            dual_datum(D)

    def test_cech_coboundary_identity(self, algebras):
        left, right = algebras
        cov = cover(3, [{0, 1, 2}] * 4)
        D = random_bimodule_datum(Rng(62), left, right, cov,
                                  GenConfig(seed=62, twist_mode="random_unitary"))
        f = obstruction_2cocycle(D)
        for i in range(4):
            for j in range(4):
                for l in range(4):
                    for m in range(4):
                        for k in range(3):
                            val = (f[(j, l, m)][k] * np.conj(f[(i, l, m)][k])
                                   * f[(i, j, m)][k] * np.conj(f[(i, j, l)][k]))
                            assert abs(val - 1.0) < 1e-10

    def test_coboundary_invariance(self, algebras):
        left, right = algebras
        cov = cover(3, [{0, 1, 2}] * 3)
        rng = Rng(63)
        D = random_bimodule_datum(rng, left, right, cov,
                                  GenConfig(seed=63, twist_mode="random_unitary"))
        f = obstruction_2cocycle(D)
        g = {(i, k): rng.unit_scalar() for i in range(3) for k in range(3)}
        entries = []
        for (i, j) in cov.pairs(include_diagonal=False):
            if i < j:
                for k in sorted(cov.overlap(i, j)):
                    entries.append((i, j, k,
                                    g[(i, k)] * D.nu_block(i, j, k) * np.conj(g[(j, k)])))
        D2 = morita.make_bimodule_datum(left, right, cov, D.bimodules, entries)
        f2 = obstruction_2cocycle(D2)
        for key, per in f.items():
            for k, v in per.items():
                assert abs(v - f2[key][k]) < 1e-10


class TestPicard:
    def test_trivial_conjugation(self):
        # coherent D, trivial M: output isomorphic to the pull-apart of A
        left, right = algebra((2, 1)), algebra((1, 2))
        cov = cover(2, [{0, 1}, {0}])
        D = random_bimodule_datum(Rng(64), left, right, cov,
                                  GenConfig(seed=64, twist_mode="coherent"))
        Mdat = pull_apart_bimodule(identity_bimodule(left), cov)
        out = picard_conjugate(D, Mdat)
        expect = pull_apart_bimodule(identity_bimodule(right), cov)
        assert bimodule_data_isomorphic(out, expect) is not None

    def test_scalar_cancellation(self):
        D = phases_datum()
        Mdat = pull_apart_bimodule(identity_bimodule(D.left_algebra), D.cover)
        out = picard_conjugate(D, Mdat)
        assert validate_bimodule_datum(out).cocycle <= 1e-10

    def test_tensor_compatibility(self):
        left, right = algebra((2,)), algebra((2,))
        cov = cover(1, [{0}] * 3)
        rng = Rng(65)
        D = random_bimodule_datum(rng, left, right, cov,
                                  GenConfig(seed=65, twist_mode="random_unitary"))
        Ma = random_bimodule_datum(rng, left, left, cov,
                                   GenConfig(seed=66, twist_mode="coherent"))
        Mb = random_bimodule_datum(rng, left, left, cov,
                                   GenConfig(seed=67, twist_mode="coherent"))
        lhs = picard_conjugate(D, datum_tensor(Ma, Mb))
        rhs = datum_tensor(picard_conjugate(D, Ma), picard_conjugate(D, Mb))
        assert bimodule_data_isomorphic(lhs, rhs) is not None

    def test_inverse_up_to_isomorphism(self):
        left, right = algebra((2, 1)), algebra((1, 1))
        cov = cover(2, [{0, 1}, {1}, {0}])
        rng = Rng(68)
        D = random_bimodule_datum(rng, left, right, cov,
                                  GenConfig(seed=68, twist_mode="random_unitary"))
        Ma = random_bimodule_datum(rng, left, left, cov,
                                   GenConfig(seed=69, twist_mode="coherent"))
        back = picard_conjugate(dual_datum(D), picard_conjugate(D, Ma))
        assert bimodule_data_isomorphic(back, Ma) is not None

    def test_desk_scale_picard_group_is_trivial(self):
        A = algebra((2, 3))
        for s in range(10):
            M = random_bimodule(Rng(700 + s), A, A)
            assert bimodules_isomorphic(M, identity_bimodule(A)) is not None

    def test_functorial_on_morphisms(self):
        # N(alpha) is a morphism of conjugated data and respects composition
        left, right = algebra((2, 1)), algebra((2, 2))
        cov = cover(2, [{0, 1}, {0}])
        rng = Rng(72)
        D = random_bimodule_datum(rng, left, right, cov,
                                  GenConfig(seed=72, twist_mode="random_unitary"))
        Ma = random_bimodule_datum(rng, left, left, cov,
                                   GenConfig(seed=73, twist_mode="coherent"))
        Mb = random_bimodule_datum(rng, left, left, cov,
                                   GenConfig(seed=74, twist_mode="coherent"))
        Mc = random_bimodule_datum(rng, left, left, cov,
                                   GenConfig(seed=75, twist_mode="coherent"))
        w_ab = morita.bimodule_data_isomorphic(Ma, Mb)
        w_bc = morita.bimodule_data_isomorphic(Mb, Mc)
        assert w_ab is not None and w_bc is not None

        Na, Nb, Nc = (picard_conjugate(D, M) for M in (Ma, Mb, Mc))
        cw_ab = morita.picard_conjugate_morphism(D, Ma, Mb, w_ab)
        cw_bc = morita.picard_conjugate_morphism(D, Mb, Mc, w_bc)
        assert morita.datum_morphism_residual(Na, Nb, cw_ab) < 1e-9
        assert morita.datum_morphism_residual(Nb, Nc, cw_bc) < 1e-9
        # composition is preserved on the nose (scalars multiply)
        w_ac = tuple(
            tuple(b2 @ b1 for b1, b2 in zip(r1, r2))
            for r1, r2 in zip(w_ab, w_bc)
        )
        cw_ac = morita.picard_conjugate_morphism(D, Ma, Mc, w_ac)
        composed = tuple(
            tuple(b2 @ b1 for b1, b2 in zip(r1, r2))
            for r1, r2 in zip(cw_ab, cw_bc)
        )
        for r1, r2 in zip(cw_ac, composed):
            for b1, b2 in zip(r1, r2):
                assert numlin.op_norm(b1 - b2) < 1e-10

    def test_obstruction_multiplicative_under_coherent_composition(self):
        # tensoring with a coherent self-equivalence datum leaves scalars fixed
        left, right = algebra((2,)), algebra((2,))
        cov = cover(1, [{0}] * 3)
        rng = Rng(70)
        Mdat = random_bimodule_datum(rng, left, left, cov,
                                     GenConfig(seed=70, twist_mode="coherent"))
        D = random_bimodule_datum(rng, left, right, cov,
                                  GenConfig(seed=71, twist_mode="random_unitary"))
        f = obstruction_2cocycle(D)
        f2 = obstruction_2cocycle(datum_tensor(Mdat, D))
        for key, per in f.items():
            for k, v in per.items():
                assert abs(v - f2[key][k]) < 1e-10


# ---------------------------------------------------------------------------
# Closed forms against the brute-force oracles

TWIST_KINDS = ("unitary", "zero", "scaled", "rank_deficient", "ill_conditioned", "random")


def twisted_bimodule(kinds, seed):
    """A bimodule with one block per entry of kinds, whose twist is a random
    unitary, zero, twice a unitary, a unitary with its last singular value
    zeroed or shrunk to 1e-3 or 1e-7, or a complex Gaussian matrix."""
    rng = Rng(seed)
    left = algebra(tuple(rng.randint(1, 3) for _ in kinds))
    right = algebra(tuple(rng.randint(1, 3) for _ in kinds))
    twists = []
    for kind, m in zip(kinds, left.block_dims):
        u = rng.unitary(m)
        if kind == "zero":
            u = 0.0 * u
        elif kind == "scaled":
            u = 2.0 * u
        elif kind == "rank_deficient":  # zero for m = 1
            u = u @ np.diag([1.0] * (m - 1) + [0.0])
        elif kind == "ill_conditioned":  # full iff s_min / s_max > 1e-5
            u = u @ np.diag([1.0] * (m - 1) + [(1e-3, 1e-7)[rng.randint(0, 1)]])
        elif kind == "random":
            u = rng.gauss_matrix(m, m)
        twists.append(u)
    return EquivalenceBimodule(left, right, tuple(twists))


def assert_closed_form_matches_the_oracles(M, tol=morita.DEFAULT_TOL):
    """validate_bimodule against the sampled oracle: the same verdict, the
    closed forms bound the sampled residuals per unit input, the identities
    the closed form drops stay at rounding level, and the dropped right
    fullness holds."""
    v = validate_bimodule(M, tol)
    passed, sampled = oracles.sampled_bimodule_validation(M, tol)
    assert v.passed == passed
    rounding = 1e-12 * max([1.0] + [numlin.op_norm(u) ** 4 for u in M.twist])
    assert sampled["imprimitivity"] <= v.imprimitivity + rounding
    assert sampled["left_linearity"] <= v.left_linearity + rounding
    assert max(sampled["hermitian"], sampled["adjoint_compat"]) <= rounding
    assert oracles.span_fullness(M) == (v.full_left, True)


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(TWIST_KINDS), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=10**6),
)
@example(kinds=list(TWIST_KINDS), seed=0)
@example(kinds=["ill_conditioned"] * 3, seed=1)
@example(kinds=["random"] * 3, seed=2)
def test_closed_form_fullness_matches_the_span_rank_oracle(kinds, seed):
    assert_closed_form_matches_the_oracles(twisted_bimodule(kinds, seed))


DATUM_MODES = ("coherent", "random_unitary", "pull_apart", "non_bimodule",
               "scaled_twist", "scaled_transition")


def bimodule_datum(mode, seed):
    """A bimodule gluing datum of the given family: coherent or random-unitary
    scalars times the canonical transitions, the pull-apart of a random
    bimodule, random unitary transitions that are no bimodule maps (every
    block of dimension >= 2 on at least two full sets), a coherent datum with
    the last non-empty set's twist zeroed or doubled (a member twist that is
    not unitary), or one whose transitions nu_ij are rescaled by l_i / l_j (not
    unitary, but the glued left action is still a -> V a V*)."""
    rng = Rng(seed)
    cfg = GenConfig(seed=seed, max_blocks=3, max_block_dim=3, max_cover_sets=3,
                    twist_mode="random_unitary" if mode == "random_unitary" else "coherent")
    if mode == "non_bimodule":
        left = algebra(tuple(rng.randint(2, 3) for _ in range(rng.randint(1, 3))))
        cov = cover(left.num_blocks, [frozenset(left.labels)] * rng.randint(2, 3))
    else:
        left = gen.random_algebra(rng, cfg)
        cov = gen.random_cover(rng, left, cfg)
    right = algebra(tuple(rng.randint(1, 3) for _ in left.block_dims))
    if mode == "pull_apart":
        return pull_apart_bimodule(random_bimodule(rng, left, right), cov)
    D = random_bimodule_datum(rng, left, right, cov, cfg)
    nu = [(i, j, k, W) for (i, j), per in D.nu.items() for k, W in per.items()]
    if mode == "non_bimodule":
        entries = [(i, j, k, rng.unitary(D.mult_at(i, k)))
                   for (i, j) in cov.pairs(include_diagonal=False) if i < j
                   for k in sorted(cov.overlap(i, j))]
        D = morita.make_bimodule_datum(left, right, cov, D.bimodules, entries)
    elif mode == "scaled_twist":
        bims = list(D.bimodules)
        last = max(i for i, F in enumerate(cov.sets) if F)
        bims[last] = EquivalenceBimodule(
            bims[last].left_algebra, bims[last].right_algebra,
            tuple((0.0, 2.0)[rng.randint(0, 1)] * u for u in bims[last].twist))
        D = morita.make_bimodule_datum(left, right, cov, bims, nu)
    elif mode == "scaled_transition":
        scale = [1.0 + 2.0 * rng.uniform() for _ in range(cov.num_sets)]
        D = morita.make_bimodule_datum(
            left, right, cov, D.bimodules,
            [(i, j, k, scale[i] / scale[j] * W) for (i, j, k, W) in nu])
    return D


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(DATUM_MODES), seed=st.integers(min_value=0, max_value=10**6))
@example(mode="non_bimodule", seed=0)
@example(mode="scaled_twist", seed=0)
@example(mode="scaled_transition", seed=0)
def test_closed_form_glued_twist_matches_the_probe_oracle(mode, seed):
    D = bimodule_datum(mode, seed)
    tol = morita.DEFAULT_TOL
    for Mi in D.bimodules:
        assert_closed_form_matches_the_oracles(Mi, tol)
    try:
        gb = glue_bimodules(D, tol)
    except RankAmbiguityError:
        return  # glue refused the rank decision; there is no twist to compare
    if mode == "non_bimodule":
        assert validate_bimodule_datum(D).transitions_bimodule > 1e-3
    if mode in ("non_bimodule", "scaled_twist"):
        assert gb.bimodule is None
    if gb.dimension_deficit:
        assert gb.bimodule is None
        return
    if mode == "scaled_transition":
        assert gb.bimodule is not None
    twists, residual = oracles.probed_glued_twists(D, gb.glued)
    assert (gb.left_action_residual <= tol) == (residual <= tol)
    if gb.bimodule is None:
        return
    assert_closed_form_matches_the_oracles(gb.bimodule, tol)
    for V, W in zip(gb.bimodule.twist, twists):
        phase = np.vdot(W, V) / np.vdot(W, W)  # V = phase * W
        assert abs(abs(phase) - 1.0) <= 1e-12
        assert numlin.op_norm(V - phase * W) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(DATUM_MODES + ("phases",)),
       seed=st.integers(min_value=0, max_value=10**6))
@example(mode="phases", seed=0)
@example(mode="scaled_transition", seed=0)
def test_stacked_validation_matches_the_pairwise_oracle(mode, seed):
    # bimodule multiplicities are the left block dimensions, so every
    # label's transitions are square and no padding occurs: bit for bit,
    # except the unitarity defect, which the oracle takes from the products
    D = phases_datum() if mode == "phases" else bimodule_datum(mode, seed)
    tol = morita.DEFAULT_TOL
    v, w = validate_bimodule_datum(D, tol), oracles.pairwise_bimodule_validation(D, tol)
    assert abs(v.unitary - w.unitary) <= 1e-12 * max(1.0, w.unitary)
    assert dataclasses.replace(v, unitary=w.unitary) == w


def test_overflowing_transitions_are_invalid_input():
    D = bimodule_datum("random_unitary", 5)
    entries = [(i, j, k, 1e200 * W) for (i, j), per in D.nu.items() for k, W in per.items()]
    assert entries
    big = morita.make_bimodule_datum(D.left_algebra, D.right_algebra, D.cover,
                                     D.bimodules, entries)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInputError):
            validate_bimodule_datum(big)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError):
        oracles.pairwise_bimodule_validation(big, morita.DEFAULT_TOL)


def test_validation_draws_no_random_samples(monkeypatch, algebras):
    left, right = algebras
    cov = cover(3, [{0, 1}, {1, 2}])
    D = random_bimodule_datum(Rng(58), left, right, cov,
                              GenConfig(seed=58, twist_mode="coherent"))

    def refuse(*args):
        raise AssertionError("random sampling on the validation path")

    monkeypatch.setattr(Rng, "gauss_matrix", refuse)
    assert all(validate_bimodule(Mi).passed for Mi in D.bimodules)
    assert validate_bimodule_datum(D).required_ok()
    gb = glue_bimodules(D)
    assert gb.bimodule is not None and gb.validation.passed


def test_every_unitarity_check_reads_the_one_defect(monkeypatch, algebras):
    # with numlin.unitarity_defects reporting 1e6, every check that judges
    # unitarity must fail; one that formed its own products would still pass
    left, right = algebras
    cov = cover(3, [{0, 1}, {1, 2}])
    D = random_bimodule_datum(Rng(58), left, right, cov,
                              GenConfig(seed=58, twist_mode="coherent"))
    G = D.right
    M = D.bimodules[0]
    ident = identity_map(M.right_module())
    tol = morita.DEFAULT_TOL

    def verdicts():
        return {
            "validate_gluing_datum": validate_gluing_datum(G, tol).required_ok,
            "validate_bimodule_datum": validate_bimodule_datum(D, tol).required_ok(tol),
            "validate_bimodule": validate_bimodule(M, tol).passed,
            "is_unitary": numlin.is_unitary(ident.blocks[0], tol),
            "unitary_residual": unitary_residual(ident) <= tol,
            "epsilon_iso": epsilon_iso(G).unitary_residual <= tol,
            "bimodule_morphism_residual":
                morita.bimodule_morphism_residual(M, M, ident.blocks) <= tol,
            "glue_bimodules": glue_bimodules(D, tol).bimodule is not None,
        }

    assert all(verdicts().values())
    real = numlin.unitarity_defects

    def broken(stack, sizes=None, return_singular_values=False):
        d, s = real(stack, sizes, return_singular_values=True)
        d = np.full_like(d, 1e6)
        return (d, s) if return_singular_values else d

    monkeypatch.setattr(numlin, "unitarity_defects", broken)
    assert not any(verdicts().values()), verdicts()


def bits(x):
    """Exact bit pattern of a float or complex, -0.0 apart from 0.0."""
    z = complex(x)
    return z.real.hex(), z.imag.hex()


def obstruction_outcome(fn, D, tol):
    try:
        return fn(D, tol)
    except ModelViolationError as err:
        return str(err), bits(err.residual)


def phase_datum(seed, theta):
    """Bimodule datum over three full sets with phases (1, 1, e^{i theta})."""
    cfg = GenConfig(seed=seed, max_blocks=3, max_block_dim=3, kind="bimodule",
                    twist_mode="prescribed_phases",
                    phases=((0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0), (0, 2, np.cos(theta), np.sin(theta))))
    return gen.random_instance(cfg)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(DATUM_MODES + ("phases",)),
       seed=st.integers(min_value=0, max_value=10**6),
       theta=st.floats(min_value=0.0, max_value=2 * np.pi))
@example(mode="phases", seed=0, theta=np.pi)  # (1, 1, -1)
@example(mode="non_bimodule", seed=1, theta=0.0)  # three sets, not scalar: refused
def test_stacked_obstruction_scalars_equal_the_looped_oracle(mode, seed, theta):
    D = phase_datum(seed, theta) if mode == "phases" else bimodule_datum(mode, seed)
    tol = morita.DEFAULT_TOL
    # every composite's scalar and residual, bit for bit
    want = {(i, j, l, k): fr
            for (i, j, l), per in oracles.looped_obstruction_2cocycle(D, np.inf).items()
            for k, fr in per.items()}
    got = morita._composite_scalars(D)
    assert set(got) == set(want)
    assert all(bits(got[key][0]) == bits(f) and bits(got[key][1]) == bits(r)
               for key, (f, r) in want.items())
    # the same scalars, or the same error for the first failing composite
    got = obstruction_outcome(obstruction_2cocycle, D, tol)
    want = obstruction_outcome(oracles.looped_obstruction_2cocycle, D, tol)
    if isinstance(want, dict):
        want = {t: {k: f for k, (f, _) in per.items()} for t, per in want.items()}
        assert {t: {k: bits(f) for k, f in per.items()} for t, per in got.items()} == \
            {t: {k: bits(f) for k, f in per.items()} for t, per in want.items()}
    else:
        assert got == want
    if (mode, seed) == ("non_bimodule", 1):
        assert got[0].startswith("transition composite at (0,1,2) block 0 is not scalar")


@pytest.mark.parametrize("side,left_dims,right_dims", [
    ("left", (3, 2), (2, 2)),  # block 2 of the left algebra has dimension 1
    ("left", (3,), (2,)),  # block 2 is missing
    ("right", (3, 1), (2, 1)),  # block 2 of the right algebra has dimension 2
])
def test_make_bimodule_datum_refuses_a_member_over_the_wrong_algebra(side, left_dims, right_dims):
    left, right = algebra((2, 3, 1)), algebra((1, 2, 2))
    cov = cover(3, [{0, 1}, {1, 2}])
    D = random_bimodule_datum(Rng(62), left, right, cov, GenConfig(seed=62))
    labels = (1, 2)[:len(left_dims)]
    bad = EquivalenceBimodule(algebra(left_dims, labels), algebra(right_dims, labels),
                              tuple(np.eye(n) for n in left_dims))
    entries = [(i, j, k, W) for (i, j), per in D.nu.items() for k, W in per.items()]
    with pytest.raises(InvalidInputError, match=f"^bimodule 1 has wrong {side} algebra$"):
        morita.make_bimodule_datum(left, right, cov, (D.bimodules[0], bad), entries)
    assert morita.make_bimodule_datum(left, right, cov, D.bimodules, entries).bimodules == D.bimodules


# ---------------------------------------------------------------------------
# Datum operations on transition scalars against the matrix-level oracles

COCHAIN_MODES = ("coherent", "random_unitary", "phases", "scaled_transition", "non_bimodule")


def self_datum(alg, cov, mode, rng):
    """A self-equivalence datum over alg and cov: coherent, random-unitary
    scalars times the canonical transitions, or random unitary transitions,
    which are no bimodule maps on blocks of dimension >= 2."""
    M = random_bimodule_datum(rng, alg, alg, cov, GenConfig(
        seed=0, twist_mode="random_unitary" if mode == "random_unitary" else "coherent"))
    if mode != "non_bimodule":
        return M
    entries = [(i, j, k, rng.unitary(M.mult_at(i, k)))
               for (i, j) in cov.pairs(include_diagonal=False) if i < j
               for k in sorted(cov.overlap(i, j))]
    return morita.make_bimodule_datum(alg, alg, cov, M.bimodules, entries)


def regauged(D, rng, rephase=False):
    """D under fresh member twists u_i and unit scalars g_i per block, with
    transitions g_i (u_i v_i*) nu_ij (v_j u_j*) conj(g_j): isomorphic to D
    through x |-> g_i u_i v_i* x.  rephase multiplies nu_ij and nu_ji by one
    more random unit scalar and its conjugate instead, which on a block with
    three or more sets generally changes the obstruction class."""
    cov = D.cover
    bims = tuple(random_bimodule(rng, M.left_algebra, M.right_algebra) for M in D.bimodules)
    g = {(i, k): rng.unit_scalar() for i in range(cov.num_sets) for k in cov.sets[i]}
    phase = {key: rng.unit_scalar() for key in g}
    entries = []
    for (i, j) in cov.pairs(include_diagonal=False):
        for k in sorted(cov.overlap(i, j)):
            Ci = bims[i].twist_at(k) @ D.twist_at(i, k).conj().T
            Cj = bims[j].twist_at(k) @ D.twist_at(j, k).conj().T
            if not rephase:
                s = g[(i, k)] * np.conj(g[(j, k)])
            else:
                s = phase[(i, k)] if i < j else np.conj(phase[(j, k)])
            entries.append((i, j, k, s * Ci @ D.nu_block(i, j, k) @ Cj.conj().T))
    return morita.make_bimodule_datum(D.left_algebra, D.right_algebra, cov, bims, entries)


def operation_outcome(fn, *args):
    """fn(*args), or (message without its residual, residual) if it raises
    ModelViolationError."""
    try:
        return fn(*args)
    except ModelViolationError as err:
        return str(err).split(" (residual ")[0], err.residual


def assert_same_outcome(got, want):
    """The same error and residual, or the same datum, bit for bit: each
    scalar comes from the same product v_i* nu_ij v_j and is applied in the
    same order as in the oracle."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got[0]
    assert (got.left_algebra, got.right_algebra, got.cover) == \
        (want.left_algebra, want.right_algebra, want.cover)
    for Mg, Mw in zip(got.bimodules, want.bimodules):
        assert all(np.array_equal(u, v) for u, v in zip(Mg.twist, Mw.twist))
    assert {key: set(per) for key, per in got.nu.items()} == \
        {key: set(per) for key, per in want.nu.items()}
    for key, per in want.nu.items():
        for k, W in per.items():
            assert np.array_equal(got.nu[key][k], W)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(COCHAIN_MODES),
       self_mode=st.sampled_from(("coherent", "random_unitary", "non_bimodule")),
       seed=st.integers(min_value=0, max_value=10**6))
@example(mode="phases", self_mode="coherent", seed=0)  # (1, 1, -1)
@example(mode="non_bimodule", self_mode="non_bimodule", seed=0)  # D refused before M
@example(mode="coherent", self_mode="non_bimodule", seed=1)  # M refused
@example(mode="scaled_transition", self_mode="random_unitary", seed=0)
def test_cochain_operations_match_the_matrix_oracles(mode, self_mode, seed):
    D = phase_datum(seed, np.pi) if mode == "phases" else bimodule_datum(mode, seed)
    rng = Rng(seed ^ 0xC0C)
    S = self_datum(D.left_algebra, D.cover, self_mode, rng)
    T = self_datum(D.right_algebra, D.cover, self_mode, rng)
    tol = morita.DEFAULT_TOL
    for fn, oracle, args in (
        (dual_datum, oracles.matrix_dual_datum, (D, tol)),
        (datum_tensor, oracles.matrix_datum_tensor, (S, D, tol)),
        (datum_tensor, oracles.matrix_datum_tensor, (D, T, tol)),
        (picard_conjugate, oracles.matrix_picard_conjugate, (D, S, tol)),
    ):
        assert_same_outcome(operation_outcome(fn, *args), operation_outcome(oracle, *args))

    unitary = validate_bimodule_datum(D).transitions_unitary
    for D2, known_isomorphic in ((D, True), (regauged(D, rng), True),
                                 (regauged(D, rng, True), False)):
        got = bimodule_data_isomorphic(D, D2, tol)
        if got is not None:
            assert morita.datum_morphism_residual(D, D2, got) <= tol
        if unitary:
            want = oracles.matrix_bimodule_data_isomorphic(D, D2, tol)
            assert (got is None) == (want is None)
        if known_isomorphic:
            # the scalars solve lambda_i c1 = c2 lambda_root exactly, so an
            # isomorphism of the form lambda_i v2_i v1_i* is found even when
            # the transitions are not unitary, which the oracle's quotient
            # nu2 nu1* assumes
            assert got is not None


def test_datum_operations_extract_no_scalar_per_transition(monkeypatch):
    D = bimodule_datum("random_unitary", 14)
    S = self_datum(D.left_algebra, D.cover, "coherent", Rng(4))
    assert len(D.nu) == 6

    def refuse(*args):
        raise AssertionError("per-transition scalar extraction")

    monkeypatch.setattr(morita, "_scalar_of", refuse)
    dual_datum(D)
    datum_tensor(S, D)
    picard_conjugate(D, S)
    assert validate_bimodule_datum(D).required_ok()
    gb = glue_bimodules(bimodule_datum("coherent", 14))
    assert gb.bimodule is not None


def assert_same_gluing_datum(got, want):
    """The same algebra, cover and modules, and the same transition keys
    with bit-identical matrices."""
    assert (got.algebra, got.cover, got.modules) == (want.algebra, want.cover, want.modules)
    assert {key: set(per) for key, per in got.zeta.items()} == \
        {key: set(per) for key, per in want.zeta.items()}
    for key, per in want.zeta.items():
        for k, W in per.items():
            assert np.array_equal(got.zeta[key][k], W)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(DATUM_MODES), seed=st.integers(min_value=0, max_value=10**6))
@example(mode="pull_apart", seed=0)
@example(mode="scaled_twist", seed=0)
def test_right_datum_matches_the_rebuilt_oracles(mode, seed):
    D = bimodule_datum(mode, seed)
    assert_same_gluing_datum(D.right, oracles.rebuilt_right_datum(D))
    rng = Rng(seed ^ 0xB1)
    M = random_bimodule(rng, D.left_algebra, D.right_algebra)
    got = pull_apart_bimodule(M, D.cover)
    want = oracles.entrywise_pull_apart_bimodule(M, D.cover)
    assert_same_outcome(got, want)
    assert_same_gluing_datum(got.right, want.right)
    # the intertwining residual on the right data is the pair loop's, bit for
    # bit, on found witnesses (or the canonical comparisons where none is
    # found) and on the same witnesses rotated by random unitaries
    tol = morita.DEFAULT_TOL
    for D2 in (D, regauged(D, rng)):
        wit = bimodule_data_isomorphic(D, D2, tol) or tuple(
            tuple(D2.twist_at(i, k) @ D.twist_at(i, k).conj().T for k in sorted(F))
            for i, F in enumerate(D.cover.sets))
        bent = tuple(tuple(rng.unitary(len(W)) @ W for W in per) for per in wit)
        for w in (wit, bent):
            assert bits(morita.datum_morphism_residual(D, D2, w)) == \
                bits(oracles.pairwise_datum_morphism_residual(D, D2, w))


def test_bimodule_datum_is_checked_and_glued_without_a_rebuilt_gluing_datum(monkeypatch, algebras):
    left, right = algebras
    D = random_bimodule_datum(Rng(58), left, right, cover(3, [{0, 1}, {1, 2}]),
                              GenConfig(seed=58, twist_mode="coherent"))

    def refuse(*args):
        raise AssertionError("a gluing datum rebuilt from the members")

    monkeypatch.setattr(glue_module, "make_gluing_datum", refuse)
    monkeypatch.setattr(morita, "make_gluing_datum", refuse)
    assert validate_bimodule_datum(D).required_ok()
    gb = glue_bimodules(D)
    assert gb.bimodule is not None and gb.validation.passed


def test_in_place_transition_edits_reach_the_right_datum(algebras):
    left, right = algebras
    D = random_bimodule_datum(Rng(61), left, right, cover(3, [{0, 1, 2}] * 2),
                              GenConfig(seed=61, twist_mode="coherent"))
    assert validate_bimodule_datum(D).required_ok()
    assert glue_bimodules(D).bimodule is not None
    # swap two rows of nu_01 at block 0: still unitary, no longer a bimodule map
    k = 0
    swap = np.eye(D.mult_at(0, k), dtype=np.complex128)
    swap[[0, 1]] = swap[[1, 0]]
    D.nu[(0, 1)][k] = swap @ D.nu[(0, 1)][k]
    D.nu[(1, 0)][k] = D.nu[(0, 1)][k].conj().T
    assert D.right.zeta_block(0, 1, k) is D.nu[(0, 1)][k]
    assert D.right.zeta_block(1, 0, k) is D.nu[(1, 0)][k]
    assert validate_bimodule_datum(D).transitions_bimodule > 1e-3
    gb = glue_bimodules(D)
    assert gb.bimodule is None and gb.left_action_residual > 1e-3


def test_criterion_8_bimodule_check_matches_the_sampled_oracle():
    # Phi of a glued pull-apart is a bimodule map; composed with a unitary
    # that is not scalar against the twists it is not, and both checks see it
    left, right = algebra((2, 3, 1)), algebra((1, 2, 2))
    rng = Rng(80)
    M = random_bimodule(rng, left, right)
    gb = glue_bimodules(pull_apart_bimodule(M, cover(3, [{0, 1}, {1, 2}, {0}])))
    phi = phi_map(gb.glued, M.right_module())
    assert morita.bimodule_morphism_residual(M, gb.bimodule, phi.blocks) <= 1e-12
    assert oracles.sampled_phi_bimodule_residual(M, gb.bimodule, phi, Rng(81)) <= 1e-12
    bent = AdjointableMap(phi.source, phi.target,
                          tuple(rng.unitary(len(b)) @ b for b in phi.blocks))
    assert morita.bimodule_morphism_residual(M, gb.bimodule, bent.blocks) > 1e-3
    assert oracles.sampled_phi_bimodule_residual(M, gb.bimodule, bent, Rng(81)) > 1e-3
