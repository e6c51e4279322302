import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modglue import gen, morita, numlin, serial, tensor
from modglue.cstar import algebra, cover
from modglue.errors import InvalidInputError, NotAMorphismError, RankAmbiguityError
from modglue.gen import GenConfig
from modglue.glue import (
    DEFAULT_TOL,
    GlueMorphism,
    GluingDatum,
    cocycle_residual,
    descent_identities_check,
    epsilon_iso,
    glue,
    glue_morphism,
    label_mults,
    make_gluing_datum,
    morphism_residual,
    phi_iso,
    phi_map,
    pull_apart,
    pull_apart_map,
    validate_gluing_datum,
)
from modglue.cstar import restrict_element
from modglue.hmod import (
    adjoint_of,
    apply_map,
    compose,
    inner_product,
    map_norm,
    module,
    restrict_map,
    restrict_module,
    unitary_residual,
    vec_norm,
)
from modglue.rng import Rng

from oracles import (
    constraint_matrix,
    datum_mult,
    dense_glue_morphism,
    entrywise_pull_apart,
    flat_glued_subspace_basis,
    holonomy_threshold_ratios,
    kron_kernel_dim,
    label_stacks,
    layout_embed,
    layout_epsilon_maps,
    layout_project,
    pairwise_gluing_validation,
    per_entry_morphism_residual,
    per_index_cocycle_residual,
    stacked_identity_phi_map,
    two_svd_multiplicities,
)


def twisted_single_block_datum():
    A = algebra((1,))
    cov = cover(1, [{0}, {0}, {0}])
    entries = [(0, 1, 0, np.eye(1)), (1, 2, 0, np.eye(1)), (0, 2, 0, -np.eye(1))]
    return make_gluing_datum(A, cov, (1,), entries)


class TestValidation:
    def test_pull_apart_is_clean(self):
        X = module(algebra((2, 1, 3)), (1, 2, 2))
        cov = cover(3, [{0, 1}, {1, 2}])
        rep = validate_gluing_datum(pull_apart(X, cov))
        assert rep.unitary and rep.identity and rep.involutive and rep.cocycle
        assert all(v == 0.0 for v in rep.max_residuals.values())

    def test_twisted_phases_fail_cocycle_with_residual_two(self):
        rep = validate_gluing_datum(twisted_single_block_datum())
        assert rep.unitary and not rep.cocycle
        assert rep.max_residuals["cocycle"] == pytest.approx(2.0)

    def test_non_identity_diagonal_rejected(self):
        A = algebra((1,))
        cov = cover(1, [{0}, {0}])
        with pytest.raises(InvalidInputError):
            make_gluing_datum(
                A, cov, (1,),
                [(0, 0, 0, -np.eye(1)), (0, 1, 0, np.eye(1))],
            )

    def test_missing_transition_rejected(self):
        A = algebra((1,))
        cov = cover(1, [{0}, {0}])
        with pytest.raises(InvalidInputError):
            make_gluing_datum(A, cov, (1,), [])

    @pytest.mark.parametrize("i,j", [(-2, 1), (0, -1), (2, 1), (0, 2)])
    def test_out_of_range_set_index_rejected(self, i, j):
        # -2 and -1 would alias sets 0 and 1 by Python indexing
        A = algebra((1,))
        cov = cover(1, [{0}, {0}])
        with pytest.raises(InvalidInputError, match=r"names a set outside 0\.\.1"):
            make_gluing_datum(A, cov, (1,), [(0, 1, 0, np.eye(1)), (i, j, 0, np.eye(1))])


class TestPullApart:
    def test_forced_shapes(self):
        X = module(algebra((2, 1, 3)), (1, 2, 2))
        cov = cover(3, [{0, 1}, {1, 2}])
        D = pull_apart(X, cov)
        assert D.modules[0].mult == (1, 2)
        assert D.modules[1].mult == (2, 2)
        assert np.allclose(D.zeta_block(0, 1, 1), np.eye(2))

    def test_single_set_cover(self):
        X = module(algebra((2, 2)), (1, 3))
        cov = cover(2, [{0, 1}])
        D = pull_apart(X, cov)
        assert D.modules[0].mult == X.mult

    def test_functor_preserves_adjoints(self):
        A = algebra((2, 1))
        X, Y = module(A, (2, 1)), module(A, (1, 2))
        cov = cover(2, [{0}, {0, 1}])
        rng = Rng(3)
        a = gen.random_map(rng, X, Y)
        P = pull_apart_map(a, cov)
        Pstar = pull_apart_map(adjoint_of(a), cov)
        assert P.adjoint().maps.keys() == Pstar.maps.keys()
        assert all(same_bits(A, Pstar.maps[k]) for k, A in P.adjoint().maps.items())

    def test_functor_preserves_composition(self):
        A = algebra((2, 1))
        X, Y, Z = module(A, (2, 1)), module(A, (1, 2)), module(A, (2, 2))
        cov = cover(2, [{0}, {0, 1}])
        rng = Rng(4)
        a, b = gen.random_map(rng, Y, Z), gen.random_map(rng, X, Y)
        lhs = pull_apart_map(compose(a, b), cov)
        Pa, Pb = pull_apart_map(a, cov), pull_apart_map(b, cov)
        for k, A in lhs.maps.items():
            assert len(A) == len(cov.members(k))
            for m1, x, y in zip(A, Pa.maps[k], Pb.maps[k], strict=True):
                assert same_bits(m1, x @ y)


class TestGlue:
    def test_coherent_pull_apart_recovers_multiplicities(self):
        X = module(algebra((2, 1, 3)), (1, 2, 2))
        cov = cover(3, [{0, 1}, {1, 2}])
        gd = glue(pull_apart(X, cov))
        assert gd.module.mult == X.mult
        for k in range(3):
            E = gd.stacked_basis[k]
            assert np.allclose(E.conj().T @ E, np.eye(E.shape[1]), atol=1e-12)

    def test_twisted_single_block_glues_to_zero(self):
        gd = glue(twisted_single_block_datum())
        assert gd.module.mult == (0,)

    def test_two_sets_any_unitary_gives_full_multiplicity(self):
        # no triple overlaps: the cocycle is vacuous and gluing is full
        A = algebra((2,))
        cov = cover(1, [{0}, {0}])
        U = Rng(8).unitary(3)
        D = make_gluing_datum(A, cov, (3,), [(0, 1, 0, U)])
        gd = glue(D)
        assert gd.module.mult == (3,)

    def test_embedding_satisfies_constraints_and_inner_product_descent(self):
        cfg = GenConfig(seed=21, twist_mode="coherent")
        D = gen.random_gluing_instance(cfg).datum
        gd = glue(D)
        rng = Rng(100)
        g1 = gen.random_vector(rng, gd.module)
        g2 = gen.random_vector(rng, gd.module)
        p1, p2 = gd.embed(g1), gd.embed(g2)
        for (i, j) in D.cover.pairs(include_diagonal=False):
            F = D.cover.overlap(i, j)
            for k in sorted(F):
                lhs = p1[i].block(k)
                rhs = D.zeta_block(i, j, k) @ p1[j].block(k)
                assert numlin.op_norm(lhs - rhs) < 1e-10
            ip_i = restrict_element(inner_product(p1[i], p2[i]), F)
            ip_j = restrict_element(inner_product(p1[j], p2[j]), F)
            assert (ip_i - ip_j).norm() < 1e-10
        # abstract inner products agree with any single component
        for pos, k in enumerate(D.algebra.labels):
            i = D.cover.members(k)[0]
            lhs = inner_product(p1[i], p2[i]).block(k)
            rhs = inner_product(g1, g2).blocks[pos]
            assert numlin.op_norm(lhs - rhs) < 1e-10

    def test_project_inverts_embed(self):
        cfg = GenConfig(seed=22, twist_mode="coherent")
        D = gen.random_gluing_instance(cfg).datum
        gd = glue(D)
        g = gen.random_vector(Rng(5), gd.module)
        assert vec_norm(gd.project(gd.embed(g)) - g) < 1e-12

    def test_embed_and_project_refuse_foreign_input(self):
        # over C^{3x3} + C the glued multiplicities are the same, but neither
        # its glued vectors nor their parts live where gd's do
        cov = cover(2, [{0, 1}, {0}])
        gd = glue(pull_apart(module(algebra((2, 1)), (1, 2)), cov))
        other = glue(pull_apart(module(algebra((3, 1)), (1, 2)), cov))
        assert other.module.mult == gd.module.mult
        foreign = gen.random_vector(Rng(3), other.module)
        with pytest.raises(InvalidInputError, match="does not live in the glued module"):
            gd.embed(foreign)
        parts = gd.embed(gen.random_vector(Rng(4), gd.module))
        for bad in (other.embed(foreign), parts[:1], parts + parts[:1], parts[::-1]):
            with pytest.raises(InvalidInputError, match="one vector per cover set"):
                gd.project(bad)


class TestGlueMorphism:
    def _setup(self, seed):
        cfg = GenConfig(seed=seed, max_blocks=3, max_cover_sets=3, max_mult=3)
        inst = gen.random_module_instance(cfg)
        X, cov = inst.module, inst.cover
        rng = Rng(seed ^ 0xFF)
        Y = gen.random_module(rng, X.algebra, cfg)
        Z = gen.random_module(rng, X.algebra, cfg)
        return X, Y, Z, cov, rng

    def test_identity(self):
        X, _, _, cov, _ = self._setup(1)
        D = pull_apart(X, cov)
        ident = GlueMorphism(D, D, {k: np.array([np.eye(D.label_mult(k))] * len(Z), dtype=np.complex128)
                                    for k, Z in D.zeta.items()})
        G = glue_morphism(ident)
        assert map_norm(G - gen.module_map(G.source, G.source, tuple(np.eye(m) for m in G.source.mult))) < 1e-12

    def test_respects_adjoints(self):
        X, Y, _, cov, rng = self._setup(2)
        a = gen.random_map(rng, X, Y)
        lhs = glue_morphism(pull_apart_map(a, cov).adjoint())
        rhs = adjoint_of(glue_morphism(pull_apart_map(a, cov)))
        assert map_norm(lhs - rhs) < 1e-10

    def test_respects_composition(self):
        X, Y, Z, cov, rng = self._setup(3)
        a = gen.random_map(rng, Y, Z)
        b = gen.random_map(rng, X, Y)
        lhs = glue_morphism(pull_apart_map(compose(a, b), cov))
        rhs = compose(
            glue_morphism(pull_apart_map(a, cov)),
            glue_morphism(pull_apart_map(b, cov)),
        )
        assert map_norm(lhs - rhs) < 1e-10

    def test_non_morphism_rejected(self):
        cfg = GenConfig(seed=23, twist_mode="coherent", max_mult=3)
        D = gen.random_gluing_instance(cfg).datum
        if all(m.dim == 0 for m in D.modules):
            pytest.skip("degenerate draw")
        rng = Rng(9)
        bad = GlueMorphism(D, D, label_stacks(D.cover, D.algebra.labels, tuple(
            gen.random_map(rng, m, m).blocks for m in D.modules
        )))
        if morphism_residual(bad) > 1e-9:
            with pytest.raises(NotAMorphismError):
                glue_morphism(bad)


class TestPhi:
    def test_single_set_cover_is_reshaping(self):
        X = module(algebra((2, 2)), (1, 3))
        cov = cover(2, [{0, 1}])
        phi = phi_iso(X, cov)
        assert unitary_residual(phi.map) < 1e-12

    def test_unitary_on_random_vectors(self):
        cfg = GenConfig(seed=24)
        inst = gen.random_module_instance(cfg)
        phi = phi_iso(inst.module, inst.cover)
        rng = Rng(55)
        for _ in range(20):
            x = gen.random_vector(rng, inst.module)
            assert vec_norm(apply_map(phi.map, x)) == pytest.approx(vec_norm(x), abs=1e-9)

    def test_image_is_compatibility_subspace(self):
        X = module(algebra((2, 1)), (2, 1))
        cov = cover(2, [{0, 1}, {0}])
        gp = glue(pull_apart(X, cov))
        # per block, the solution space is one free copy of the block space
        assert gp.module.mult == X.mult

    def test_naturality(self):
        cfg = GenConfig(seed=25)
        inst = gen.random_module_instance(cfg)
        X, cov = inst.module, inst.cover
        rng = Rng(26)
        Y = gen.random_module(rng, X.algebra, cfg)
        a = gen.random_map(rng, X, Y)
        lhs = compose(phi_iso(Y, cov).map, a)
        rhs = compose(glue_morphism(pull_apart_map(a, cov)), phi_iso(X, cov).map)
        assert map_norm(lhs - rhs) < 1e-9


class TestEpsilon:
    def test_coherent_pull_apart_residual_zero(self):
        X = module(algebra((2, 1, 3)), (1, 2, 2))
        cov = cover(3, [{0, 1}, {1, 2}])
        eps = epsilon_iso(pull_apart(X, cov))
        assert eps.morphism is not None
        assert eps.unitary_residual < 1e-12
        assert eps.intertwine_residual < 1e-12

    def test_random_coherent_datum(self):
        cfg = GenConfig(seed=27, twist_mode="coherent")
        D = gen.random_gluing_instance(cfg).datum
        eps = epsilon_iso(D)
        assert eps.morphism is not None
        assert eps.unitary_residual < 1e-9
        assert eps.intertwine_residual < 1e-9
        assert morphism_residual(eps.morphism) < 1e-9

    def test_twisted_datum_reports_deficit(self):
        eps = epsilon_iso(twisted_single_block_datum())
        assert eps.morphism is None
        assert eps.dimension_deficit == {(0, 0): 1, (1, 0): 1, (2, 0): 1}


class TestDescentIdentities:
    def test_coherent_all_small(self):
        cfg = GenConfig(seed=28, twist_mode="coherent")
        D = gen.random_gluing_instance(cfg).datum
        rep = descent_identities_check(D, trials=5, seed=1)
        assert rep.passed
        assert rep.counit <= 1e-10 and rep.coassoc <= 1e-10
        assert rep.kernel_gap <= 1e-10 and rep.tensor_gap <= 1e-10

    def test_single_set_cover_trivially_exact(self):
        X = module(algebra((2, 2)), (2, 1))
        cov = cover(2, [{0, 1}])
        rep = descent_identities_check(pull_apart(X, cov), trials=3, seed=2)
        assert rep.passed and rep.coassoc == 0.0

    def test_twisted_counit_and_kernels_hold(self):
        D = twisted_single_block_datum()
        rep = descent_identities_check(D, trials=5, seed=3)
        assert rep.counit <= 1e-12
        assert rep.kernel_gap <= 1e-9
        assert rep.tensor_dims[0] == rep.tensor_dims[1]  # both degenerate
        assert rep.passed

    def test_coassociativity_is_equivalent_to_cocycle(self):
        # on a twisted datum the unrestricted identity fails, with residual on
        # the order of the cocycle violation; on glued vectors it holds
        found = False
        for s in range(40):
            cfg = GenConfig(seed=600 + s, twist_mode="random_unitary")
            D = gen.random_gluing_instance(cfg).datum
            rep = descent_identities_check(D, trials=5, seed=s)
            if rep.cocycle_residual > 0.5 and any(m.dim > 0 for m in D.modules):
                if rep.coassoc > 1e-6:
                    found = True
                    assert rep.coassoc_glued <= 1e-12
                    assert rep.passed
                    break
        assert found, "no essentially twisted instance encountered"


def phase_witness(theta):
    """Three full cover sets over one 2x2 block, multiplicity 1, with the
    transition phases (1, 1, e^{i theta}): coherent at theta = 0.  glue's
    root-holonomy stack has the one singular value sqrt(2) |1 - e^{i theta}|,
    about 0.58 * theta times the threshold scale sqrt(6) for small theta."""
    cfg = GenConfig(seed=0, twist_mode="prescribed_phases", phases=(
        (0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0), (0, 2, np.cos(theta), np.sin(theta)),
    ))
    return gen.random_gluing_datum(
        Rng(0), algebra((2,)), cover(1, [{0}, {0}, {0}]), cfg, mult=(1,)
    )


def test_rank_ambiguity_guard():
    # gluing refuses a rank decision inside the refusal band rather than
    # rounding it, on either side of the threshold, and glues clear cases
    rho = numlin.RANK_GAP_FACTOR
    assert glue(phase_witness(1e-6)).module.mult == (0,)
    assert glue(phase_witness(np.pi)).module.mult == (0,)
    assert glue(phase_witness(0.0)).module.mult == (1,)

    with pytest.raises(RankAmbiguityError) as err:
        glue(phase_witness(1e-10))
    diag = err.value.diagnostics
    assert diag["label"] == 0 and diag["members"] == [0, 1, 2]
    assert diag["singular_values"] == pytest.approx([np.sqrt(2) * 1e-10], rel=1e-6)
    margin = diag["margin"]
    assert margin["smallest_kept"] is None  # H's one singular value is the culprit
    assert 1 / rho < margin["largest_discarded"] <= 1.0
    assert "singular value" in str(err.value)

    with pytest.raises(RankAmbiguityError) as err:
        glue(phase_witness(1e-8))
    margin = err.value.diagnostics["margin"]
    assert 1.0 < margin["smallest_kept"] < rho  # kept, but barely
    assert margin["largest_discarded"] is None

    # either side of the threshold, at the band's far ends
    for theta in (1e-12, 1e-7):
        with pytest.raises(RankAmbiguityError):
            glue(phase_witness(theta))


def test_glue_rejects_tol_without_room_for_the_band():
    D = phase_witness(0.0)
    for tol in (0.0, -1e-10, 1 / numlin.RANK_GAP_FACTOR, 0.5):
        with pytest.raises(InvalidInputError):
            glue(D, tol)


def oracle_datum(mode, seed, theta, **caps):
    """A datum of the given family: coherent, random_unitary, the (1, 1,
    e^{i theta}) phases over a random algebra, or coherent with every even
    label at multiplicity zero; caps are GenConfig size caps."""
    if mode == "prescribed_phases":
        cfg = GenConfig(seed=seed, twist_mode=mode, phases=(
            (0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0), (0, 2, np.cos(theta), np.sin(theta)),
        ), **caps)
        return gen.random_gluing_instance(cfg).datum
    if mode == "zero_mult":
        cfg = GenConfig(seed=seed, **caps)
        rng = Rng(seed)
        A = gen.random_algebra(rng, cfg)
        cov = gen.random_cover(rng, A, cfg)
        mult = tuple(0 if k % 2 == 0 else rng.randint(0, cfg.max_mult) for k in A.labels)
        return gen.random_gluing_datum(rng, A, cov, cfg, mult=mult)
    return gen.random_gluing_instance(GenConfig(seed=seed, twist_mode=mode, **caps)).datum


TRANSITION_MODES = ("coherent", "random_unitary", "prescribed_phases", "zero_mult",
                    "single_member", "scaled")


def transition_datum(mode, seed, theta):
    """A datum for the transition checks: a family of oracle_datum, one whose
    labels each have one member set except label 0, which every set owns, or
    random-unitary transitions each scaled by its own factor (neither unitary
    nor involutive)."""
    if mode not in ("single_member", "scaled"):
        return oracle_datum(mode, seed, theta)
    rng = Rng(seed)
    cfg = GenConfig(seed=seed, max_blocks=4, max_block_dim=2, twist_mode="random_unitary")
    A = gen.random_algebra(rng, cfg)
    N = rng.randint(2, 4)
    if mode == "single_member":
        sets = [{0} for _ in range(N)]
        for k in A.labels[1:]:
            sets[rng.randint(0, N - 1)].add(k)
        return gen.random_gluing_datum(rng, A, cover(A.num_blocks, sets), cfg)
    cov = gen.random_cover(rng, A, cfg)
    D = gen.random_gluing_datum(rng, A, cov, cfg)
    entries = [(i, j, k, (1.0 + rng.uniform()) * U) for (i, j, k, U) in D.entries()]
    return make_gluing_datum(A, cov, datum_mult(D), entries)


@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from(TRANSITION_MODES),
    seed=st.integers(min_value=0, max_value=10**6),
    theta=st.floats(min_value=0.0, max_value=2 * np.pi),
)
@example(mode="prescribed_phases", seed=0, theta=1e-10)  # refused
@example(mode="prescribed_phases", seed=0, theta=np.pi)  # (1, 1, -1): glues to zero
@example(mode="zero_mult", seed=0, theta=0.0)
@example(mode="single_member", seed=0, theta=0.0)
@example(mode="scaled", seed=0, theta=0.0)
def test_one_svd_glue_matches_the_kronecker_oracle(mode, seed, theta):
    # glue reads each label from its root-holonomy stack H; the full overlap
    # constraint C gives the same multiplicities, its Kronecker expansion
    # confirms them, and E_k is an orthonormal basis of ker C
    D = transition_datum(mode, seed, theta)
    tol = numlin.DEFAULT_RANK_TOL
    try:
        gd = glue(D, tol)
    except RankAmbiguityError as err:
        # a refusal must be backed by a singular value of H inside the band
        rel = holonomy_threshold_ratios(D, err.diagnostics["label"], tol)
        rho = numlin.RANK_GAP_FACTOR
        assert np.any((rel > 1 / rho) & (rel < rho))
        return
    assert gd.module.mult == two_svd_multiplicities(D, tol)
    for k, n, g in zip(D.algebra.labels, D.algebra.block_dims, gd.module.mult):
        C, E = constraint_matrix(D, k), gd.stacked_basis[k]
        assert kron_kernel_dim(C, n, tol) == g * n
        assert numlin.op_norm(E.conj().T @ E - np.eye(g)) <= 1e-12
        assert numlin.subspace_gap(numlin.kernel_basis(C, tol), E) <= 1e-12


def test_glued_module_records_the_rank_margin():
    # the witness of test_rank_ambiguity_guard, on both clear sides of the
    # band: the margin is that of H's singular values at glue's threshold
    tol, rho = numlin.DEFAULT_RANK_TOL, numlin.RANK_GAP_FACTOR
    for theta in (1e-6, 0.0, np.pi):
        D = phase_witness(theta)
        rel = holonomy_threshold_ratios(D, 0, tol)
        kept, dropped = rel[rel > 1.0], rel[rel <= 1.0]
        assert glue(D, tol).rank_margin == {0: (
            float(kept.min()) if kept.size else None, float(dropped.max()) if dropped.size else None)}
    kept, dropped = glue(phase_witness(1e-6)).rank_margin[0]
    assert kept >= rho and dropped is None  # H's one value kept: glues to zero
    kept, dropped = glue(phase_witness(0.0)).rank_margin[0]
    assert kept is None and dropped == 0.0 < 1 / rho  # H = 0 exactly: coherent


@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from(TRANSITION_MODES),
    seed=st.integers(min_value=0, max_value=10**6),
    theta=st.floats(min_value=0.0, max_value=2 * np.pi),
)
@example(mode="prescribed_phases", seed=0, theta=np.pi)  # (1, 1, -1)
def test_stacked_validation_matches_the_pairwise_oracle(mode, seed, theta):
    # the unitarity defect comes from singular values, the oracle's from
    # the products U*U and UU*: equal up to rounding; the other residuals
    # are bit for bit
    D = transition_datum(mode, seed, theta)
    tol = DEFAULT_TOL
    v, w = validate_gluing_datum(D, tol), pairwise_gluing_validation(D, tol)
    assert (v.unitary, v.identity, v.involutive, v.cocycle) == (
        w.unitary, w.identity, w.involutive, w.cocycle)
    for key, r in w.max_residuals.items():
        if key != "unitary":
            assert v.max_residuals[key] == r
        else:
            assert abs(v.max_residuals[key] - r) <= 1e-12 * max(1.0, r)


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(TRANSITION_MODES),
    s=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10**6),
)
@example(mode="prescribed_phases", s=1, m=2, seed=0)
@example(mode="zero_mult", s=2, m=0, seed=0)
@example(mode="coherent", s=3, m=0, seed=0)
def test_batched_cocycle_residual_equals_the_per_index_loop_bit_for_bit(mode, s, m, seed):
    # on every label of a datum, and on a Gaussian (s, s, m, m) stack with
    # -0.0 entries; s = 1 has no triple with b not in {a, c}
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((s, s, m, m)) + 1j * rng.standard_normal((s, s, m, m))
    G[G.real > 0.5] = complex(-0.0, -0.0)
    D = transition_datum(mode, seed, np.pi)
    for Z in (G, *D.zeta.values()):
        got, want = cocycle_residual(Z), per_index_cocycle_residual(Z)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
    if s == 1:
        assert cocycle_residual(G) == 0.0


def test_mixed_multiplicities_are_checked():
    # no unitary joins multiplicities 2 and 1: sets that give one label both
    # are refused with the label and each owning set's multiplicity
    A = algebra((1, 2))
    cov = cover(2, [{0}, {0, 1}, {1}])
    with pytest.raises(InvalidInputError, match=r"^block 0 .*\(set 0: 2, set 1: 1\); no unitary"):
        label_mults(A, cov, [{0: 2}, {0: 1, 1: 3}, {1: 3}])
    assert label_mults(A, cov, [{0: 2}, {0: 2, 1: 3}, {1: 3}]) == (2, 3)


def test_overflowing_transitions_are_invalid_input():
    D = gen.random_gluing_instance(GenConfig(seed=4, twist_mode="random_unitary")).datum
    entries = [(i, j, k, 1e200 * U) for (i, j, k, U) in D.entries()]
    assert entries
    big = make_gluing_datum(D.algebra, D.cover, datum_mult(D), entries)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInputError):
            validate_gluing_datum(big)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError):
        pairwise_gluing_validation(big, DEFAULT_TOL)


def test_dimension_law_for_coherent_data():
    cfg = GenConfig(seed=29, twist_mode="coherent")
    D = gen.random_gluing_instance(cfg).datum
    gd = glue(D)
    for pos, k in enumerate(D.algebra.labels):
        members = D.cover.members(k)
        assert gd.module.mult[pos] == D.label_mult(k)


def test_glued_subspace_basis_is_orthonormal():
    # the flat basis of the oracle, and per label E_k and the glued tensor
    # model's basis, which the library uses as they stand
    cfg = GenConfig(seed=30, twist_mode="coherent")
    D = gen.random_gluing_instance(cfg).datum
    gd = glue(D)
    bases = [flat_glued_subspace_basis(gd)]
    for k in D.algebra.labels:
        bases += [gd.stacked_basis[k], tensor.glued_tensor_subspace_basis(gd, k)]
    for B in bases:
        assert np.allclose(B.conj().T @ B, np.eye(B.shape[1]), atol=1e-12)


# The stored format: one (s, s, m, m) transition stack per label.

FORMAT_MODES = ("coherent", "random_unitary", "prescribed_phases", "zero_mult", "empty_set")


def format_datum(mode, seed):
    """A datum of an oracle_datum family at theta = pi, so (1, 1, -1) for
    prescribed_phases, or random_unitary with an empty cover set appended."""
    if mode != "empty_set":
        return oracle_datum(mode, seed, np.pi)
    D = oracle_datum("random_unitary", seed, np.pi)
    cov = cover(D.cover.prim_size, [*D.cover.sets, frozenset()])
    return make_gluing_datum(D.algebra, cov, datum_mult(D), D.entries())


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(FORMAT_MODES), seed=st.integers(min_value=0, max_value=10**6))
@example(mode="prescribed_phases", seed=0)
def test_entries_rebuild_every_stack_bit_for_bit(mode, seed):
    D = format_datum(mode, seed)
    entries = list(D.entries())
    keys = [(i, j, k) for (i, j, k, _) in entries]
    assert keys == sorted(keys) == sorted(
        (i, j, k) for (i, j) in D.cover.pairs(include_diagonal=False)
        for k in D.cover.overlap(i, j))
    again = make_gluing_datum(D.algebra, D.cover, datum_mult(D), entries)
    assert D.zeta.keys() == again.zeta.keys() == set(D.algebra.labels)
    for k, Z in D.zeta.items():
        s, m = len(D.cover.members(k)), D.label_mult(k)
        assert Z.shape == (s, s, m, m) and Z.dtype == np.complex128
        assert same_bits(again.zeta[k], Z)
    # the rebuilt stacks own their values: editing an entry, a view into
    # D.zeta, leaves them as built
    built = {k: Z.copy() for k, Z in again.zeta.items()}
    for (_, _, k, M) in entries:
        M[...] = np.nan
    assert all(same_bits(again.zeta[k], Z) for k, Z in built.items())


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(FORMAT_MODES), seed=st.integers(min_value=0, max_value=10**6))
@example(mode="prescribed_phases", seed=0)
def test_one_direction_gets_the_exact_adjoint_and_the_diagonal_is_the_identity(mode, seed):
    # the generators give each pair once, with i < j
    D = format_datum(mode, seed)
    upper = [(i, j, k, M.copy()) for (i, j, k, M) in D.entries() if i < j]
    got = make_gluing_datum(D.algebra, D.cover, datum_mult(D), upper)
    for k, Z in got.zeta.items():
        s, m = len(Z), got.label_mult(k)
        for a in range(s):
            assert same_bits(Z[a, a], np.eye(m, dtype=np.complex128))
            for b in range(a + 1, s):
                assert same_bits(Z[b, a], Z[a, b].conj().T.copy())
    for (i, j, k, M) in upper:
        assert same_bits(got.zeta_block(i, j, k), M)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), empty_set=st.booleans())
def test_pull_apart_stacks_match_the_entrywise_path(seed, empty_set):
    inst = gen.random_module_instance(GenConfig(seed=seed))
    cov = inst.cover
    if empty_set:
        cov = cover(cov.prim_size, [frozenset(), *cov.sets])
    got, want = pull_apart(inst.module, cov), entrywise_pull_apart(inst.module, cov)
    assert (got.algebra, got.cover, got.modules) == (want.algebra, want.cover, want.modules)
    assert got.zeta.keys() == want.zeta.keys()
    assert all(same_bits(got.zeta[k], Z) for k, Z in want.zeta.items())


def test_a_gluing_datum_is_its_stacks():
    assert [f.name for f in dataclasses.fields(GluingDatum)] == ["algebra", "cover", "zeta"]


def constructed_datum(how, seed):
    """(D, A, m): a datum from the constructor how, and the algebra and the
    label multiplicities it was built from, read from its input."""
    if how == "pull_apart":
        inst = gen.random_module_instance(GenConfig(seed=seed))
        return pull_apart(inst.module, inst.cover), inst.module.algebra, inst.module.mult
    if how == "serial":
        obj = serial.instance_to_json(gen.random_gluing_instance(GenConfig(seed=seed)))
        D = serial.parse_instance(obj)
        set_mults = [dict(zip(sorted(F), spec["mult"])) for F, spec in zip(D.cover.sets, obj["modules"])]
        return D, D.algebra, tuple(set_mults[D.cover.members(k)[0]][k] for k in D.algebra.labels)
    if how == "derived":
        Db = gen.random_instance(GenConfig(seed=seed, kind="bimodule"))
        return morita.dual_datum(Db).right, Db.left_algebra, Db.right_algebra.block_dims
    if how in ("zero_mult", "empty_set"):
        D = format_datum(how, seed)
        return D, D.algebra, datum_mult(D)
    # the generator draws A, the cover, then the profile: draw them again
    if how == "prescribed_phases":
        cfg = GenConfig(seed=seed, twist_mode=how, phases=((0, 1, -1.0, 0.0),))
    else:
        cfg = GenConfig(seed=seed, twist_mode="coherent" if how == "make_gluing_datum" else how)
    rng, again = Rng(seed), Rng(seed)
    A, _ = gen.random_algebra(rng, cfg), gen.random_algebra(again, cfg)
    cov, _ = gen._instance_cover(rng, A, cfg), gen._instance_cover(again, A, cfg)
    mult = tuple(again.randint(0, cfg.max_mult) for _ in A.labels)
    D = gen.random_gluing_datum(rng, A, cov, cfg)
    if how == "make_gluing_datum":
        D = make_gluing_datum(A, cov, mult, D.entries())
    return D, A, mult


@pytest.mark.parametrize("how", ["make_gluing_datum", "coherent", "random_unitary", "prescribed_phases",
                                 "pull_apart", "serial", "derived", "zero_mult", "empty_set"])
@pytest.mark.parametrize("seed", range(4))
def test_modules_are_the_restrictions_of_the_label_profile(how, seed):
    # the per-set modules are derived from the stacks: set i's is the
    # module of the constructor's multiplicities over A, restricted to F_i
    D, A, mult = constructed_datum(how, seed)
    assert D.algebra == A and datum_mult(D) == tuple(mult)
    want = tuple(restrict_module(module(A, mult), F) for F in D.cover.sets)
    assert D.modules == want
    assert D.modules is D.modules  # built once


def doubled_datum(D):
    """D (+) D: each label at twice its multiplicity, each transition
    diag(Z_ij, Z_ij)."""
    entries = [(i, j, k, np.kron(np.eye(2), Z)) for (i, j, k, Z) in D.entries()]
    return make_gluing_datum(D.algebra, D.cover, [2 * m for m in datum_mult(D)], entries)


def bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(FORMAT_MODES), seed=st.integers(min_value=0, max_value=10**6))
@example(mode="zero_mult", seed=0)
@example(mode="empty_set", seed=0)
def test_member_stacks_match_the_layout_oracles(mode, seed):
    # morphism_residual, embed and project keep the arithmetic of their
    # oracles bit for bit; glue_morphism and phi_map sum the members in
    # another order.  The family [c_k I; d_k I] : D -> D (+) D is a morphism
    # of non-square maps between data of different multiplicities, and so is
    # its adjoint; a Gaussian family is none.  The map stacks of P(a) and of
    # the counit are those of the per-set maps, bit for bit.
    D = format_datum(mode, seed)
    D2 = doubled_datum(D)
    labels = D.algebra.labels
    rng = Rng(seed)
    cd = {k: np.kron(rng.gauss_matrix(2, 1), np.eye(D.label_mult(k))) for k in labels}
    inclusion = GlueMorphism(D, D2, label_stacks(D.cover, labels, tuple(
        tuple(cd[k] for k in Z.algebra.labels) for Z in D.modules)))
    gaussian = GlueMorphism(D, D2, label_stacks(D.cover, labels, tuple(
        gen.random_map(rng, Z, W).blocks for Z, W in zip(D.modules, D2.modules))))
    for fam in (inclusion, inclusion.adjoint(), gaussian, gaussian.adjoint()):
        assert bits(morphism_residual(fam)) == bits(per_entry_morphism_residual(fam))

    X = module(D.algebra, [D.label_mult(k) for k in labels])
    a = gen.random_map(rng, X, module(D.algebra, [2 * m for m in X.mult]))
    P = pull_apart_map(a, D.cover)
    want = label_stacks(D.cover, labels, tuple(restrict_map(a, F).blocks for F in D.cover.sets))
    assert P.maps.keys() == want.keys()
    assert all(same_bits(A, want[k]) for k, A in P.maps.items())
    try:
        gd = glue(D)
    except RankAmbiguityError:
        return
    for datum in (D, pull_apart(X, D.cover)):
        eps = epsilon_iso(datum)
        if eps.morphism is not None:
            want = label_stacks(datum.cover, labels, layout_epsilon_maps(eps.glued))
            assert eps.morphism.maps.keys() == want.keys()
            assert all(same_bits(A, want[k]) for k, A in eps.morphism.maps.items())
            assert bits(eps.intertwine_residual) == bits(per_entry_morphism_residual(eps.morphism))
    g = gen.random_vector(rng, gd.module)
    families = (gd.embed(g), tuple(gen.random_vector(rng, Z) for Z in D.modules))
    for got, want in zip(families[0], layout_embed(gd, g)):
        assert all(same_bits(a, b) for a, b in zip(got.blocks, want.blocks))
    for parts in families:
        got, want = gd.project(parts), layout_project(gd, parts)
        assert all(same_bits(a, b) for a, b in zip(got.blocks, want.blocks))

    pairs = [(glue_morphism(fam).blocks, dense_glue_morphism(fam))
             for fam in (inclusion, inclusion.adjoint())]
    pairs.append((phi_map(gd, X).blocks, stacked_identity_phi_map(gd, X)))
    for got, want in pairs:
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape
            assert numlin.op_norm(a - b) <= 1e-14 * max(1.0, numlin.op_norm(b))


def test_missing_transition_names_the_first_pair_in_lexicographic_order():
    # three sets own both labels; (0, 2) is missing at label 0 and (0, 1) at
    # label 1, and (1, 2) at label 0 is given in the reverse direction only.
    # Label by label, (0, 2, 0) would come first; the message names (0, 1, 1).
    A = algebra((1, 2))
    cov = cover(2, [{0, 1}] * 3)
    given_pairs = [(0, 1, 0), (2, 1, 0), (0, 2, 1), (1, 2, 1)]
    entries = [(i, j, k, np.eye(2 if k == 0 else 1)) for (i, j, k) in given_pairs]
    with pytest.raises(InvalidInputError, match=r"^missing transition for pair \(0,1\) block 1$"):
        make_gluing_datum(A, cov, (2, 1), entries)
    entries.append((1, 0, 1, np.eye(1)))
    with pytest.raises(InvalidInputError, match=r"^missing transition for pair \(0,2\) block 0$"):
        make_gluing_datum(A, cov, (2, 1), entries)
    entries.append((0, 2, 0, np.eye(2)))
    assert make_gluing_datum(A, cov, (2, 1), entries).label_mult(0) == 2
