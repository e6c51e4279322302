import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modglue import gen, morita, numlin
from modglue.cstar import algebra, cover
from modglue.errors import InvalidInputError, ModelViolationError, RankAmbiguityError
from modglue.gen import GenConfig
from modglue.glue import phi_map
from modglue.hmod import apply_map, inner_product, unitary_residual, vec_norm
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
        # residuals at raw float-associativity level, far below any tolerance
        left, right = algebras
        v = validate_bimodule(standard_bimodule(left, right))
        assert v.passed
        assert max(v.imprimitivity, v.left_linearity, v.hermitian, v.adjoint_compat) < 1e-13

    def test_random_twist_passes(self, bimodule):
        v = validate_bimodule(bimodule)
        assert v.passed
        assert max(v.imprimitivity, v.left_linearity, v.hermitian, v.adjoint_compat) < 1e-12

    def test_wrong_multiplicity_fails_fullness(self):
        # a bimodule whose left algebra does not match the multiplicity is
        # not representable in normal form; the closest check is that the
        # shape law m_k = n'_k is structural
        M = standard_bimodule(algebra((2,)), algebra((3,)))
        v = validate_bimodule(M)
        assert v.shapes  # normal form forces m = n'
        assert v.passed


    def test_passed_judges_residuals_at_the_given_tol(self):
        # a signed-permutation twist is exactly unitary, so only the
        # float-rounding residuals of the identities can fail a tiny tol
        rng = Rng(50)
        left, right = algebra((3, 2)), algebra((2, 2))
        twists = tuple(
            np.diag([(-1.0) ** rng.randint(0, 1) for _ in range(m)])
            @ np.roll(np.eye(m, dtype=np.complex128), rng.randint(1, m - 1), axis=0)
            for m in left.block_dims
        )
        M = EquivalenceBimodule(left, right, twists)
        assert validate_bimodule(M).passed
        v = validate_bimodule(M, 1e-20)
        assert v.tol == 1e-20 and v.twist_unitary
        assert max(v.imprimitivity, v.left_linearity, v.hermitian, v.adjoint_compat) > 1e-20
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

TWIST_KINDS = ("unitary", "zero", "scaled", "rank_deficient", "ill_conditioned")


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(TWIST_KINDS), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=10**6),
)
@example(kinds=list(TWIST_KINDS), seed=0)
@example(kinds=["ill_conditioned"] * 3, seed=1)
def test_closed_form_fullness_matches_the_span_rank_oracle(kinds, seed):
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
        twists.append(u)
    M = EquivalenceBimodule(left, right, tuple(twists))
    v = validate_bimodule(M)
    assert (v.full_left, v.full_right) == oracles.span_fullness(M)


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
    assert (gb.validation.full_left, gb.validation.full_right) == oracles.span_fullness(gb.bimodule)
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
    # label's transitions are square and no padding occurs: bit for bit
    D = phases_datum() if mode == "phases" else bimodule_datum(mode, seed)
    tol = morita.DEFAULT_TOL
    assert validate_bimodule_datum(D, tol) == oracles.pairwise_bimodule_validation(D, tol)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_transitions_are_invalid_input():
    D = bimodule_datum("random_unitary", 5)
    entries = [(i, j, k, 1e200 * W) for (i, j), per in D.nu.items() for k, W in per.items()]
    assert entries
    big = morita.make_bimodule_datum(D.left_algebra, D.right_algebra, D.cover,
                                     D.bimodules, entries)
    with pytest.raises(InvalidInputError):
        validate_bimodule_datum(big)
    with pytest.raises(InvalidInputError):
        oracles.pairwise_bimodule_validation(big, morita.DEFAULT_TOL)
