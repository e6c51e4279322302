import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modglue import gen, numlin, tensor
from modglue.cstar import AlgebraElement, algebra, cover, restrict_algebra, sum_algebra
from modglue.errors import InvalidInputError, RankAmbiguityError
from modglue.gen import GenConfig
from modglue.glue import (
    _tensor_kernel_check,
    descent_identities_check,
    glue,
    make_gluing_datum,
    pull_apart,
)
from modglue.hmod import (
    ModuleVector,
    adjoint_of,
    apply_map,
    compose,
    inner_product,
    module,
    restrict_module,
    restrict_vector,
    right_act,
    vec_norm,
)
from modglue.numlin import DEFAULT_TOL
from modglue.rng import Rng
from modglue.suite import (
    _delta_isometry_residuals,
    criterion_3_delta_isometry,
    criterion_10_oracle_agreement,
)

import oracles
from test_glue import oracle_datum


@pytest.fixture
def coherent_datum():
    cfg = GenConfig(seed=41, max_blocks=3, max_block_dim=2, max_cover_sets=3,
                    max_mult=2, twist_mode="coherent")
    return gen.random_gluing_instance(cfg).datum


@pytest.fixture
def twisted_datum():
    # guaranteed essential triple overlap on a single block
    A = algebra((1,))
    cov = cover(1, [{0}, {0}, {0}])
    entries = [(0, 1, 0, np.eye(1)), (1, 2, 0, np.eye(1)), (0, 2, 0, -np.eye(1))]
    return make_gluing_datum(A, cov, (1,), entries)


def rand_family(rng, D):
    return tuple(gen.random_vector(rng, m) for m in D.modules)


class TestEtaMap:
    def test_single_set_cover_is_identity(self):
        X = module(algebra((2, 2)), (1, 2))
        cov = cover(2, [{0, 1}])
        x = gen.random_vector(Rng(1), X)
        parts = oracles.eta_map(x, cov)
        assert len(parts) == 1
        assert vec_norm(parts[0] - restrict_vector(x, {0, 1})) == 0.0

    def test_isometric_on_random_vectors(self, coherent_datum):
        D = coherent_datum
        model = tensor.pair_model(D)
        rng = Rng(2)
        for _ in range(200):
            z = rand_family(rng, D)
            t = oracles.eta_map(z, model)
            assert abs(oracles.pair_norm(t) - oracles.family_norm(z)) <= 1e-9

    def test_amplified_isometry_level_two(self, coherent_datum):
        D = coherent_datum
        model = tensor.pair_model(D)
        rng = Rng(3)
        zs = [rand_family(rng, D) for _ in range(4)]
        grid = [[zs[0], zs[1]], [zs[2], zs[3]]]
        tgrid = [[oracles.eta_map(zs[0], model), oracles.eta_map(zs[1], model)],
                 [oracles.eta_map(zs[2], model), oracles.eta_map(zs[3], model)]]
        assert abs(
            oracles.pair_norm_amp2(tgrid) - oracles.family_norm_amp2(grid)
        ) <= 1e-9


class TestPhiEmbed:
    def test_mu_projections(self, coherent_datum):
        D = coherent_datum
        model = tensor.pair_model(D)
        if not model.entries:
            pytest.skip("degenerate")
        (i, j) = model.entries[0]
        space = oracles.pair_space(model, i, j)
        v = gen.random_vector(Rng(4), space)
        t = oracles.phi_embed(model, i, j, v)
        assert vec_norm(t.comp(i, j) - v) == 0.0
        for (p, q) in model.entries:
            if (p, q) != (i, j):
                assert vec_norm(t.comp(p, q)) == 0.0

    def test_phi_isometric_levels_one_and_two(self, coherent_datum):
        D = coherent_datum
        model = tensor.pair_model(D)
        if not model.entries:
            pytest.skip("degenerate")
        (i, j) = model.entries[-1]
        space = oracles.pair_space(model, i, j)
        rng = Rng(16)
        vs = [gen.random_vector(rng, space) for _ in range(4)]
        for v in vs:
            assert abs(
                oracles.pair_norm(oracles.phi_embed(model, i, j, v)) - vec_norm(v)
            ) <= 1e-12
        grid = [[vs[0], vs[1]], [vs[2], vs[3]]]
        tgrid = [[oracles.phi_embed(model, i, j, v) for v in row] for row in grid]
        vnorm = max(
            oracles.amp2_block_norm(
                [[grid[r][c].blocks[b] for c in range(2)] for r in range(2)]
            )
            for b in range(len(vs[0].blocks))
        ) if vs[0].blocks else 0.0
        assert abs(oracles.pair_norm_amp2(tgrid) - vnorm) <= 1e-12

    def test_epsilon_of_phi(self, coherent_datum):
        # diagonal placement comes back; off-diagonal is annihilated
        D = coherent_datum
        model = tensor.pair_model(D)
        for (i, j) in model.entries:
            v = gen.random_vector(Rng(5), oracles.pair_space(model, i, j))
            parts = oracles.epsilon_map(oracles.phi_embed(model, i, j, v))
            if i == j:
                assert vec_norm(parts[i] - v) == 0.0
            else:
                assert oracles.family_norm(parts) == 0.0


def slot_norms_per_trial(D, stacks, arity):
    """Per trial, the largest operator norm over the slot blocks of every
    label: the Hilbert-module norm of the family, pair or triple vector
    whose label-k slots are stacks[k][t]."""
    slots = {k: oracles.split_slots(stacks[k], oracles.slot_sizes(D, k, arity))
             for k in D.algebra.labels}
    trials = len(next(iter(stacks.values())))
    return numlin.op_norm_maxima(
        [[x[t:t + 1] for k in D.algebra.labels for x in slots[k]] for t in range(trials)]
    )


def stacked_families(D, families):
    return {k: tensor.family_stack(families, D, k) for k in D.algebra.labels}


class TestDeltaMap:
    def test_trivial_datum_gives_eta(self):
        X = module(algebra((2, 1)), (2, 1))
        cov = cover(2, [{0, 1}, {0}])
        D = pull_apart(X, cov)
        # a fresh Rng(6) per module: a compatible family, z_i|F_ij = z_j|F_ij
        z = tuple(gen.random_vector(Rng(6), m) for m in D.modules)
        for k, Z in stacked_families(D, [z]).items():
            assert not (tensor.eta_minus_delta_matrix(D, k) @ Z).any()
            fam = dict(zip(oracles.slot_sizes(D, k, 1), oracles.split_slots(Z, oracles.slot_sizes(D, k, 1))))
            pair = oracles.split_slots(tensor.delta_map(D, k) @ Z, oracles.slot_sizes(D, k, 2))
            for (i, _), t in zip(oracles.slot_sizes(D, k, 2), pair):
                assert np.array_equal(t, fam[(i,)])

    def test_isometric_for_unitary_transitions(self, coherent_datum):
        D = coherent_datum
        rng = Rng(7)
        zs = [rand_family(rng, D) for _ in range(50)]
        Z = stacked_families(D, zs)
        T = {k: tensor.delta_map(D, k) @ Z[k] for k in Z}
        for dn, zn in zip(slot_norms_per_trial(D, T, 2), slot_norms_per_trial(D, Z, 1)):
            assert abs(dn - zn) <= 1e-9

    def test_counit_identity(self, coherent_datum):
        D = coherent_datum
        rng = Rng(8)
        Z = stacked_families(D, [rand_family(rng, D) for _ in range(20)])
        back = {k: tensor.epsilon_map(D, k) @ tensor.delta_map(D, k) @ Z[k] - Z[k] for k in Z}
        assert max(slot_norms_per_trial(D, back, 1)) <= 1e-12

    def test_b_linearity(self, coherent_datum):
        D = coherent_datum
        B = sum_algebra(D.algebra, D.cover)
        rng = Rng(9)
        z = rand_family(rng, D)
        b = gen.random_element(rng, B)
        diff = {}
        for k, Z in stacked_families(D, [z]).items():
            fam, pair = oracles.slot_sizes(D, k, 1), oracles.slot_sizes(D, k, 2)
            delta = tensor.delta_map(D, k)
            diff[k] = (delta @ oracles.slot_right_act(Z, fam, b, k)
                       - oracles.slot_right_act(delta @ Z, pair, b, k))
        assert max(slot_norms_per_trial(D, diff, 2)) <= 1e-12


class TestLiftToTriple:
    def test_single_set_cover_all_kinds_agree(self):
        X = module(algebra((2,)), (2,))
        cov = cover(1, [{0}])
        D = pull_apart(X, cov)
        model = tensor.pair_model(D)
        z = tuple(gen.random_vector(Rng(10), m) for m in D.modules)
        t = oracles.eta_map(z, model)
        tm = tensor.triple_model(D)
        lifts = [oracles.lift_to_triple(kind, D, t, tm) for kind in oracles.TRIPLE_KINDS]
        for a in lifts[1:]:
            assert oracles.triple_norm(
                oracles.TripleTensorVector(a.model, tuple(
                    x - y for x, y in zip(a.comps, lifts[0].comps)
                ))
            ) == 0.0
        assert np.array_equal(tensor.lift_to_triple("eta_tensor_id", D, 0),
                              tensor.lift_to_triple("delta_tensor_id", D, 0))

    def test_coassociativity_on_coherent_data(self, coherent_datum):
        D = coherent_datum
        rng = Rng(11)
        Z = stacked_families(D, [rand_family(rng, D) for _ in range(10)])
        diff = {}
        for k in Z:
            t = tensor.delta_map(D, k) @ Z[k]
            diff[k] = (tensor.lift_to_triple("delta_tensor_id", D, k) @ t
                       - tensor.lift_to_triple("eta_tensor_id", D, k) @ t)
        assert max(slot_norms_per_trial(D, diff, 3)) <= 1e-12

    def test_unknown_kind_rejected(self, coherent_datum):
        D = coherent_datum
        # id (x) eta_B has no library caller: only the oracle has it
        for kind in ("bogus", "id_tensor_etaB"):
            with pytest.raises(InvalidInputError):
                tensor.lift_to_triple(kind, D, D.algebra.labels[0])
        with pytest.raises(InvalidInputError):
            oracles.lift_to_triple("bogus", D, oracles.zero_pair(tensor.pair_model(D)),
                                   tensor.triple_model(D))

    def test_pair_level_image_eta_dimension(self, twisted_datum):
        # ker(eta (x) id - id (x) eta_B) at the pair level has dim Z
        D = twisted_datum
        model = tensor.pair_model(D)
        tm = tensor.triple_model(D)
        pair_l = oracles.model_layout(model)
        trip_l = oracles.model_layout(tm)
        M_eta = np.zeros((trip_l.dim, pair_l.dim), dtype=np.complex128)
        M_idb = np.zeros((trip_l.dim, pair_l.dim), dtype=np.complex128)
        for (i, j, l) in tm.entries:
            for k in sorted(tm.cover.overlap(i, j, l)):
                m = pair_l.shapes[((i, l), k)][0]
                trip_l.place(M_eta, ((i, j, l), k), pair_l, ((i, l), k), np.eye(m))
                trip_l.place(M_idb, ((i, j, l), k), pair_l, ((i, j), k), np.eye(m))
        fam_dim = sum(m.dim for m in D.modules)
        assert numlin.kernel_basis(M_eta - M_idb).shape[1] == fam_dim


class TestGenericBalancedTensor:
    def test_x_tensor_own_algebra_recovers_x(self):
        A = algebra((2, 1))
        X = module(A, (1, 2))
        gbt = tensor.generic_balanced_tensor(
            [tensor.module_factor(X), tensor.algebra_summand_factor(A, {0, 1})]
        )
        assert gbt.dim == X.dim

    def test_matrix_multiplication_model_dimension(self):
        # C^{2x1} (x)_{M_1} C^{1x3} has dimension 6
        M1 = algebra((1,))
        left = module(M1, (2,))
        right = tensor.TensorFactor(((1, 3, 0, None),), left_algebra=M1)
        gbt = tensor.generic_balanced_tensor([tensor.module_factor(left), right])
        assert gbt.plain_dim == 6 and gbt.dim == 6

    def test_relation_rank_plus_quotient_is_plain(self):
        A = algebra((2,))
        X = module(A, (2,))
        cov = cover(1, [{0}, {0}])
        gbt = tensor.generic_balanced_tensor(
            [tensor.module_factor(X), tensor.b_factor(A, cov)]
        )
        # the rank of the relation span, from the Kronecker oracle's relations
        want = oracles.kron_balanced_tensor(
            [oracles.closure_family_factor((X,), A), oracles.closure_b_factor(A, cov)])
        assert want.relation_rank + gbt.dim == gbt.plain_dim

    def test_mismatched_middles_rejected(self):
        A, B = algebra((2,)), algebra((3,))
        with pytest.raises(InvalidInputError):
            tensor.generic_balanced_tensor(
                [tensor.module_factor(module(A, (1,))),
                 tensor.algebra_summand_factor(B, {0})]
            )

    @pytest.mark.parametrize("pieces, side, message", [
        (((2, 3, 0, None),), "left", "piece 0: left label 0 has block dim 1, but the piece has 2 rows"),
        (((1, 3, 0, None), (2, 2, 0, None)), "left", "piece 1: left label 0 has block dim 1"),
        (((1, 1, 5, None),), "left", "piece 0: label 5 not in algebra"),
        (((1, 1, 0, None),), "none", "piece 0: left label 0 but no left algebra"),
        (((1, 3, None, 0),), "right", "piece 0: right label 0 has block dim 1, but the piece has 3 cols"),
    ])
    def test_pieces_that_contradict_their_algebra_are_refused(self, pieces, side, message):
        # a piece's label must name a block of the algebra on its side, of
        # the piece's rows (left) or cols (right)
        M1 = algebra((1,))
        with pytest.raises(InvalidInputError, match=message):
            if side == "right":
                tensor.generic_balanced_tensor(
                    [tensor.TensorFactor(pieces, right_algebra=M1),
                     tensor.algebra_summand_factor(M1, {0})])
            else:
                tensor.generic_balanced_tensor(
                    [tensor.module_factor(module(M1, (2,))),
                     tensor.TensorFactor(pieces, left_algebra=M1 if side == "left" else None)])

    def test_quotient_stays_small_on_criterion_10s_largest_chain(self):
        # criterion 10's triple chain of plain dimension 2 * 8 * 8: the
        # quotient holds no dense relation matrix
        A = algebra((2, 2))
        cov = cover(2, [{0}, {1}])
        family = [restrict_module(module(A, (0, 1)), F) for F in cov.sets]
        chain = [tensor.family_factor(family, A)] + [tensor.b_factor(A, cov)] * 2
        assert [f.dim for f in chain] == [2, 8, 8]
        tracemalloc.start()
        try:
            gbt = tensor.generic_balanced_tensor(chain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gbt.plain_dim == 128 and gbt.dim == 2
        assert peak <= 0.25e6

    def test_quotient_matches_the_svd_reference_on_criterion_10s_calls(self, monkeypatch):
        library = tensor.generic_balanced_tensor
        calls = []

        def compared(factors):
            got, want = library(factors), oracles.svd_balanced_tensor(factors)
            assert (got.plain_dim, got.dim) == (want.plain_dim, want.dim)
            assert numlin.subspace_gap(got.complement, want.complement) <= 1e-12
            calls.append(got.plain_dim)
            return got

        monkeypatch.setattr(tensor, "generic_balanced_tensor", compared)
        assert criterion_10_oracle_agreement().passed
        assert len(calls) == 40 and max(calls) >= 128


#: Criterion 10's bound on the plain tensor dimension of a check.
ORACLE_DIM_CAP = 200


def oracle_chains(kind, seed, mults):
    """Library and closure factor chains of one of criterion 10's four checks
    (psi, nu, pair, triple), drawn as criterion 10 draws its instances, from
    the first seed at or after the given one whose plain dimension fits the
    criterion's cap.  mults "drawn" keeps the drawn multiplicities, zeros
    included; "zero_mult" sets label 0's to zero and the others to at least
    one; "all_zero" makes every multiplicity zero (plain dimension 0).
    Kind "quadruple" is the chain family (x) B (x) B (x) B, whose middle
    slot has factors on both sides."""
    while True:
        cfg = GenConfig(seed=seed, max_blocks=2, max_block_dim=2, max_cover_sets=3, max_mult=2)
        rng = Rng(seed)
        A = gen.random_algebra(rng, cfg)
        cov = gen.random_cover(rng, A, cfg)
        X = gen.random_module(rng, A, cfg)
        if mults == "zero_mult":
            X = module(A, (0,) + tuple(max(m, 1) for m in X.mult[1:]))
        elif mults == "all_zero":
            X = module(A, (0,) * A.num_blocks)
        family = tuple(restrict_module(X, F) for F in cov.sets)
        if kind == "psi":
            chains = ([tensor.module_factor(X), tensor.b_factor(A, cov)],
                      [oracles.closure_family_factor((X,), A), oracles.closure_b_factor(A, cov)])
        elif kind == "nu":
            Y, F = restrict_module(X, cov.sets[0]), cov.sets[-1]
            chains = ([tensor.module_factor(Y, middle=A), tensor.algebra_summand_factor(A, F)],
                      [oracles.closure_family_factor((Y,), A),
                       oracles.closure_algebra_summand_factor(A, F)])
        else:
            legs = {"pair": 1, "triple": 2, "quadruple": 3}[kind]
            chains = ([tensor.family_factor(family, A)] + [tensor.b_factor(A, cov)] * legs,
                      [oracles.closure_family_factor(family, A)]
                      + [oracles.closure_b_factor(A, cov)] * legs)
        if np.prod([f.dim for f in chains[0]]) <= ORACLE_DIM_CAP:
            return chains
        seed += 1


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["psi", "nu", "pair", "triple", "quadruple"]),
       mults=st.sampled_from(["drawn", "zero_mult", "all_zero"]),
       seed=st.integers(min_value=0, max_value=10**6))
@example(kind="triple", mults="all_zero", seed=0)
@example(kind="pair", mults="zero_mult", seed=1000)
# Y = X|F_0 lacks label 1 of F: its units kill coordinates of Y (x) A|F
@example(kind="nu", mults="drawn", seed=56)
# a [2, 2, 2, 2] chain: the middle slot has two coordinates on either side
@example(kind="quadruple", mults="drawn", seed=6)
def test_balanced_tensor_matches_the_kron_oracle(kind, mults, seed):
    chain, closures = oracle_chains(kind, seed, mults)
    got = tensor.generic_balanced_tensor(chain)
    want = oracles.kron_balanced_tensor(closures)
    assert ((got.plain_dim, got.dim, got.plain_dim - got.dim)
            == (want.plain_dim, want.dim, want.relation_rank))
    if mults == "all_zero":
        assert got.plain_dim == 0
    assert numlin.subspace_gap(got.complement, want.complement) <= 1e-12
    K = got.complement
    assert np.abs(K.conj().T @ K - np.eye(K.shape[1])).max(initial=0.0) <= 1e-15


class TestPsiNu:
    def test_psi_single_set_is_reshaping(self):
        A = algebra((2, 1))
        X = module(A, (1, 1))
        cov = cover(2, [{0, 1}])
        psi = tensor.psi_iso(X, cov)
        B = sum_algebra(A, cov)
        x = gen.random_vector(Rng(12), X)
        parts = psi.apply(x, B.identity())
        assert vec_norm(parts[0] - restrict_vector(x, {0, 1})) == 0.0

    def test_psi_dimension_count(self):
        A = algebra((2, 1, 3))
        X = module(A, (1, 2, 2))
        cov = cover(3, [{0, 1}, {1, 2}])
        psi = tensor.psi_iso(X, cov)
        expected = sum(
            X.mult[k] * A.block_dims[k] for F in cov.sets for k in sorted(F)
        )
        assert sum(m.dim for m in psi.summands) == expected

    def test_psi_oracle(self):
        A = algebra((2, 1))
        X = module(A, (1, 2))
        cov = cover(2, [{0, 1}, {1}])
        rep = tensor.psi_oracle_check(X, cov)
        assert rep.passed

    def test_nu_same_set_recovers_module(self):
        A = algebra((2, 2))
        Y = module(restrict_algebra(A, {0, 1}), (1, 2))
        nu = tensor.nu_iso(Y, A, {0, 1})
        assert nu.target.mult == Y.mult
        rep = tensor.nu_oracle_check(Y, A, {0, 1})
        assert rep.passed and rep.oracle_dim == Y.dim

    def test_nu_disjoint_sets_give_zero(self):
        A = algebra((2, 2))
        Y = module(restrict_algebra(A, {0}), (2,))
        nu = tensor.nu_iso(Y, A, {1})
        assert nu.target.dim == 0
        rep = tensor.nu_oracle_check(Y, A, {1})
        assert rep.passed and rep.oracle_dim == 0

    def test_nu_dimension_matches_oracle(self):
        A = algebra((2, 1, 2))
        Y = module(restrict_algebra(A, {0, 1}), (1, 2))
        rep = tensor.nu_oracle_check(Y, A, {1, 2})
        expected = sum(
            Y.mult[Y.algebra.position(k)] * A.block_dims[k] for k in {1}
        )
        assert rep.oracle_dim == rep.model_dim == expected


class TestGluedTensorImage:
    def test_inclusion_into_pair_model_is_isometric(self, coherent_datum):
        # the induced map of the glued submodule's tensor square into the
        # pair model preserves the direct-sum Hilbert norms
        D = coherent_datum
        gd = glue(D)
        model = tensor.pair_model(D)
        summands = tuple(
            restrict_module(gd.module, F) for F in D.cover.sets
        )
        rng = Rng(14)
        for _ in range(10):
            gs = tuple(gen.random_vector(rng, m) for m in summands)
            comps = []
            for (i, l), space in zip(model.entries, model.spaces):
                blocks = []
                for k in space.algebra.labels:
                    E = gd.stacked_basis[k]
                    c = len(oracles.glued_layout(gd, k))
                    ofs = {ii: o for (ii, o, _) in oracles.glued_layout(gd, k)}[i]
                    m_i = D.label_mult(k)
                    W_i = np.sqrt(c) * E[ofs:ofs + m_i, :]
                    blocks.append(W_i @ gs[l].block(k))
                comps.append(ModuleVector(space, tuple(blocks)))
            t = oracles.PairTensorVector(model, tuple(comps))
            assert abs(oracles.pair_norm(t) - oracles.family_norm(gs)) <= 1e-9

    def test_epsilon_preserves_inner_products_on_glued_image(self, coherent_datum):
        # <eps(x)|eps(y)>_B = <x|y>_B for x, y in the image of (glued (x) B)
        D = coherent_datum
        gd = glue(D)
        model = tensor.pair_model(D)
        B = sum_algebra(D.algebra, D.cover)
        rng = Rng(15)
        for _ in range(5):
            g1 = gen.random_vector(rng, gd.module)
            g2 = gen.random_vector(rng, gd.module)
            b1 = gen.random_element(rng, B)
            b2 = gen.random_element(rng, B)
            x = oracles.pair_from_family_and_b(model, gd.embed(g1), b1)
            y = oracles.pair_from_family_and_b(model, gd.embed(g2), b2)
            lhs = oracles.family_inner(
                oracles.epsilon_map(x), oracles.epsilon_map(y), D.algebra, D.cover
            )
            # Hilbert B-module inner product of glued (x) B on elementary
            # tensors: b* eta(<g1|g2>) b'
            ip = inner_product(g1, g2)
            eta_ip = AlgebraElement(
                B, tuple(ip.block(k) for (_, k) in B.labels)
            )
            rhs = b1.adjoint() * eta_ip * b2
            assert (lhs - rhs).norm() <= 1e-9


class TestModelOracles:
    def test_pair_model_agrees(self, coherent_datum):
        rep = tensor.pair_model_oracle_check(coherent_datum, trials=3)
        assert rep.passed

    def test_pair_model_agrees_twisted(self, twisted_datum):
        rep = tensor.pair_model_oracle_check(twisted_datum, trials=3)
        assert rep.passed

    def test_triple_model_agrees(self, twisted_datum):
        rep = tensor.triple_model_oracle_check(twisted_datum, trials=2)
        assert rep.passed

    @pytest.mark.parametrize("wrong", ["psi_scaled", "nu_without_action", "pair_scaled",
                                       "triple_swapped_b_legs"])
    def test_oracle_catches_a_wrong_model(self, monkeypatch, coherent_datum, wrong):
        # perturb the model side of each check; the balanced quotient and
        # the defining form stay as they are
        model_of = tensor._elementary_coords
        if wrong == "psi_scaled":
            apply = tensor.PsiIso.apply
            monkeypatch.setattr(tensor.PsiIso, "apply",
                                lambda self, x, b: tuple(2 * p for p in apply(self, x, b)))
            A = algebra((2, 1))
            rep = tensor.psi_oracle_check(module(A, (1, 2)), cover(2, [{0, 1}, {1}]), trials=2)
        elif wrong == "nu_without_action":
            monkeypatch.setattr(tensor.NuIso, "apply", lambda self, y, a: ModuleVector(
                self.target, tuple(y.block(k) for k in self.target.algebra.labels)))
            A = algebra((2, 2))
            Y = module(restrict_algebra(A, {0, 1}), (1, 2))
            rep = tensor.nu_oracle_check(Y, A, {0, 1}, trials=2)
        elif wrong == "pair_scaled":
            monkeypatch.setattr(tensor, "_elementary_coords",
                                lambda model, parts, *bs: 2 * model_of(model, parts, *bs))
            rep = tensor.pair_model_oracle_check(coherent_datum, trials=2)
        else:
            monkeypatch.setattr(tensor, "_elementary_coords", lambda model, parts, *bs: model_of(
                model, parts, *bs[::-1]))
            rep = tensor.triple_model_oracle_check(coherent_datum, trials=2)
        assert not rep.passed, rep

    def test_point_separation(self, coherent_datum):
        # the joint kernel of all pair projections is zero by construction:
        # components are the coordinates themselves
        model = tensor.pair_model(coherent_datum)
        t = oracles.zero_pair(model)
        assert oracles.pair_norm(t) == 0.0
        u = oracles.pair_coords(t)
        assert u.size == model.dim


def _label_sum(D, per_label):
    """Sum of n_k * per_label(k) over the labels k of D's algebra."""
    return sum(n * per_label(k) for k, n in zip(D.algebra.labels, D.algebra.block_dims))


def _assert_same_spectrum(flat, per_label, D):
    """flat is a permutation of the direct sum of T_k (x) I_{n_k}: its
    singular values are those of each T_k, n_k times over, padded with 0."""
    want = []
    for k, n in zip(D.algebra.labels, D.algebra.block_dims):
        T = per_label(k)
        want += n * (list(np.linalg.svd(T, compute_uv=False)) if T.size else [])
    got = np.linalg.svd(flat, compute_uv=False) if flat.size else np.zeros(0)
    want = np.sort(np.pad(want, (0, got.size - len(want))))[::-1]
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * max(1.0, got[:1].sum()))


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["coherent", "random_unitary", "prescribed_phases", "zero_mult"]),
    seed=st.integers(min_value=0, max_value=10**6),
)
@example(mode="prescribed_phases", seed=0)  # (1, 1, -1): glues to zero
def test_per_label_kernels_match_the_flat_oracle(mode, seed):
    caps = dict(max_blocks=3, max_block_dim=3, max_cover_sets=3, max_mult=3)
    D = oracle_datum(mode, seed, np.pi, **caps)
    gd = glue(D)

    # ker(eta - delta) against the embedded glued module
    flat = oracles.flat_eta_minus_delta(D)
    _assert_same_spectrum(flat, lambda k: tensor.eta_minus_delta_matrix(D, k), D)
    ker = oracles.kernel(flat)
    emb = oracles.flat_glued_subspace_basis(gd)
    kers = {k: numlin.kernel_basis(tensor.eta_minus_delta_matrix(D, k)) for k in D.algebra.labels}
    assert ker.shape[1] == _label_sum(D, lambda k: kers[k].shape[1])
    assert emb.shape[1] == _label_sum(D, lambda k: gd.stacked_basis[k].shape[1])
    gap = max((numlin.subspace_gap(kers[k], gd.stacked_basis[k]) for k in kers), default=0.0)
    assert abs(numlin.subspace_gap(ker, emb) - gap) <= 1e-12

    # ker((eta - delta) (x) id) against the glued tensor model
    flat = oracles.flat_eta_minus_delta_tensor_id(D)
    _assert_same_spectrum(flat, lambda k: tensor.eta_minus_delta_tensor_id_matrix(D, k), D)
    ker = oracles.kernel(flat)
    model = oracles.flat_glued_tensor_subspace_basis(gd)
    dims, gap = _tensor_kernel_check(gd)
    assert dims == (model.shape[1], ker.shape[1])
    assert abs(numlin.subspace_gap(ker, model) - gap) <= 1e-12

    # image of the unit, for a module over the same algebra and cover
    X = gen.random_module(Rng(seed), D.algebra, GenConfig(seed=seed, **caps))
    M_unit, M_eta_id, M_id_etaB = oracles.flat_image_eta(X, D.cover)
    per_label = {k: tensor.image_eta_matrices(X, D.cover, k) for k in D.algebra.labels}
    for idx, flat in enumerate((M_unit, M_eta_id, M_id_etaB)):
        _assert_same_spectrum(flat, lambda k: per_label[k][idx], D)
    ker = oracles.kernel(M_eta_id - M_id_etaB)
    kers = {k: numlin.kernel_basis(T[1] - T[2]) for k, T in per_label.items()}
    assert ker.shape[1] == _label_sum(D, lambda k: kers[k].shape[1]) == X.dim
    im = numlin.orth_basis(M_unit)
    gap = max((numlin.subspace_gap(kers[k], numlin.orth_basis(T[0]))
               for k, T in per_label.items()), default=0.0)
    assert abs(numlin.subspace_gap(ker, im) - gap) <= 1e-12


def _assert_blocks(blocks, shapes):
    """The invariant the value records trust: a tuple of 2-D complex128
    arrays of exactly the expected shapes."""
    assert type(blocks) is tuple
    assert [b.shape for b in blocks] == list(shapes)
    assert all(isinstance(b, np.ndarray) and b.dtype == np.complex128 for b in blocks)


def _assert_vector(x, mod=None):
    if mod is not None:
        assert x.module == mod
    _assert_blocks(x.blocks, x.module.block_shapes())


def _assert_element(a):
    _assert_blocks(a.blocks, [(n, n) for n in a.algebra.block_dims])


def _assert_map(alpha):
    assert alpha.source.algebra.labels == alpha.target.algebra.labels
    _assert_blocks(alpha.blocks, list(zip(alpha.target.mult, alpha.source.mult)))


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(["coherent", "random_unitary", "zero_mult"]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_operations_return_well_formed_records(mode, seed):
    D = oracle_datum(mode, seed, np.pi, max_blocks=3, max_block_dim=3,
                     max_cover_sets=3, max_mult=3)
    rng = Rng(seed)
    z = rand_family(rng, D)

    # hmod operations, on each member module and a second module over its algebra
    for zi in z:
        Z = zi.module
        W = module(Z.algebra, tuple(m + 1 for m in Z.mult))
        alpha, beta = gen.random_map(rng, Z, W), gen.random_map(rng, W, Z)
        _assert_vector(right_act(zi, gen.random_element(rng, Z.algebra)), Z)
        _assert_element(inner_product(zi, zi))
        _assert_vector(apply_map(alpha, zi), W)
        _assert_map(compose(beta, alpha))
        _assert_map(adjoint_of(alpha))
        F = set(Z.algebra.labels[::2])
        _assert_vector(restrict_vector(zi, F), restrict_module(Z, F))

    # the glued module's realization
    gd = glue(D)
    parts = gd.embed(gen.random_vector(rng, gd.module))
    for p, Z in zip(parts, D.modules):
        _assert_vector(p, Z)
    _assert_vector(gd.project(parts), gd.module)

    # structural maps on the tensor models, as model vectors (the oracle)
    model, tm = tensor.pair_model(D), tensor.triple_model(D)
    X = module(D.algebra, tuple(rng.randint(0, 2) for _ in D.algebra.labels))
    for p, F in zip(oracles.eta_map(gen.random_vector(rng, X), D.cover), D.cover.sets):
        _assert_vector(p, restrict_module(X, F))
    t = oracles.delta_map(D, z)
    b = gen.random_element(rng, sum_algebra(D.algebra, D.cover))
    for u in (t, oracles.eta_map(z, model), oracles.pair_right_act(t, b)):
        for c, space in zip(u.comps, model.spaces):
            _assert_vector(c, space)
    for p, Z in zip(oracles.epsilon_map(t), D.modules):
        _assert_vector(p, Z)
    for kind in oracles.TRIPLE_KINDS:
        for c, space in zip(oracles.lift_to_triple(kind, D, t, tm).comps, tm.spaces):
            _assert_vector(c, space)

    # and label by label: complex128 matrices T_k over the slots of label k,
    # and slot stacks of (trials, rows, n_k)
    for k, n in zip(D.algebra.labels, D.algebra.block_dims):
        rows = {a: sum(oracles.slot_sizes(D, k, a).values()) for a in (1, 2, 3)}
        maps = {
            (2, 1): [tensor.delta_map(D, k), tensor.eta_minus_delta_matrix(D, k)],
            (1, 2): [tensor.epsilon_map(D, k)],
            (3, 2): [tensor.lift_to_triple(kind, D, k) for kind in ("eta_tensor_id", "delta_tensor_id")]
            + [tensor.eta_minus_delta_tensor_id_matrix(D, k)],
        }
        for (r, c), Ts in maps.items():
            for T in Ts:
                assert T.dtype == np.complex128 and T.shape == (rows[r], rows[c])
        Z = tensor.family_stack([z, z], D, k)
        assert Z.dtype == np.complex128 and Z.shape == (2, rows[1], n)
        slots = oracles.split_slots(Z, oracles.slot_sizes(D, k, 1))
        assert [x.shape for x in slots] == [(2, m, n) for m in oracles.slot_sizes(D, k, 1).values()]


def descent_datum(mode, seed):
    """A datum of one family of the descent comparisons: coherent,
    random_unitary, the (1, 1, -1) witness, zero multiplicities, or
    random_unitary with an empty cover set appended."""
    caps = dict(max_blocks=3, max_block_dim=3, max_cover_sets=3, max_mult=3)
    if mode != "empty_set":
        return oracle_datum(mode, seed, np.pi, **caps)
    D = oracle_datum("random_unitary", seed, np.pi, **caps)
    cov = cover(D.cover.prim_size, [*D.cover.sets, frozenset()])
    entries = list(D.entries())
    return make_gluing_datum(D.algebra, cov, oracles.datum_mult(D), entries)


DESCENT_MODES = ["coherent", "random_unitary", "prescribed_phases", "zero_mult", "empty_set"]


def close(a, b):
    """Equal up to rounding: within 1e-14, relative for residuals above 1."""
    return abs(a - b) <= 1e-14 * max(1.0, abs(b))


@settings(max_examples=50, deadline=None)
@given(mode=st.sampled_from(DESCENT_MODES), seed=st.integers(min_value=0, max_value=10**6))
@example(mode="prescribed_phases", seed=0)  # (1, 1, -1): glues to zero
@example(mode="empty_set", seed=1)
def test_stacked_descent_report_matches_the_object_oracle(mode, seed):
    D = descent_datum(mode, seed)
    got = descent_identities_check(D, trials=3, seed=seed)
    want = oracles.object_descent_report(D, DEFAULT_TOL, 3, seed)
    assert (got.tensor_dims, got.coherent, got.passed) == (want.tensor_dims, want.coherent, want.passed)
    for field in ("counit", "coassoc", "coassoc_glued", "cocycle_residual", "kernel_gap", "tensor_gap"):
        assert close(getattr(got, field), getattr(want, field)), field


@settings(max_examples=50, deadline=None)
@given(mode=st.sampled_from(DESCENT_MODES), seed=st.integers(min_value=0, max_value=10**6))
@example(mode="prescribed_phases", seed=0)
@example(mode="empty_set", seed=1)
def test_stacked_delta_isometry_matches_the_object_oracle(mode, seed):
    D = descent_datum(mode, seed)
    rng = Rng(seed)
    zs = [rand_family(rng, D) for _ in range(4)]
    b = gen.random_element(rng, sum_algebra(D.algebra, D.cover))
    got = _delta_isometry_residuals(D, zs, b)
    want = oracles.object_delta_isometry_residuals(D, zs, b)
    assert all(close(g, w) for g, w in zip(got, want)), (got, want)
    assert max(got) <= 1e-12  # unitary transitions: B-linear and isometric


@settings(max_examples=50, deadline=None)
@given(mode=st.sampled_from(DESCENT_MODES), seed=st.integers(min_value=0, max_value=10**6))
@example(mode="prescribed_phases", seed=0)  # (1, 1, -1): glues to zero
@example(mode="zero_mult", seed=3)
@example(mode="empty_set", seed=1)
def test_tensor_kernel_read_from_ker_eta_minus_delta_matches_its_own_svd(mode, seed):
    # the report's kernel, ker(eta - delta) once per pair column slot, has
    # the dimension the SVD of (eta - delta) (x) id finds, and the model
    # lies in that map's kernel
    D = descent_datum(mode, seed)
    rep = descent_identities_check(D, trials=1, seed=seed)
    dims, gap = _tensor_kernel_check(glue(D))
    assert rep.tensor_dims == dims and dims[0] == dims[1]
    assert rep.tensor_gap <= 1e-12 and gap <= 1e-12


def test_descent_takes_one_kernel_and_one_gap_per_label(monkeypatch):
    # ker((eta - delta) (x) id) comes from ker(eta - delta): per label, one
    # kernel_basis call besides glue's own and one subspace_gap call
    glue_mod = importlib.import_module("modglue.glue")
    calls = {"kernel_basis": 0, "subspace_gap": 0}
    in_glue = []

    def counted(name):
        inner = getattr(numlin, name)

        def wrapper(*args, **kwargs):
            calls[name] += not in_glue
            return inner(*args, **kwargs)
        return wrapper

    def glue_alone(*args, **kwargs):
        in_glue.append(True)
        try:
            return glue(*args, **kwargs)
        finally:
            in_glue.pop()

    for name in calls:
        monkeypatch.setattr(numlin, name, counted(name))
    monkeypatch.setattr(glue_mod, "glue", glue_alone)
    for mode in DESCENT_MODES:
        D = descent_datum(mode, 5)
        calls.update(dict.fromkeys(calls, 0))
        descent_identities_check(D, trials=2, seed=5)
        assert calls == dict.fromkeys(calls, D.algebra.num_blocks), mode


def test_descent_and_criterion_3_build_no_model_objects(monkeypatch):
    # the stacked paths apply T_k to slot arrays; the pair and triple models
    # and their vectors belong to criterion 10 and the oracle only
    def refuse(*args, **kwargs):
        raise AssertionError("built a tensor model object")

    monkeypatch.setattr(tensor.TensorModel, "__post_init__", refuse)
    for cls in (oracles.PairTensorVector, oracles.TripleTensorVector):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert not any(hasattr(tensor, name) for name in ("PairTensorVector", "TripleTensorVector"))
    for mode in ("coherent", "random_unitary", "empty_set"):
        descent_identities_check(descent_datum(mode, 5), trials=2, seed=5)
    assert criterion_3_delta_isometry(trials=3).passed


def mixed_datum(seed):
    """Two or three full cover sets sharing one module, multiplicities drawn
    once per label, joined by Gaussian (non-unitary) transitions with some
    entries -0.0."""
    rng = Rng(seed)
    cfg = GenConfig(seed=seed, max_blocks=3, max_block_dim=2, max_mult=3)
    A = gen.random_algebra(rng, cfg)
    cov = cover(A.num_blocks, [set(A.labels)] * rng.randint(2, 3))
    X = gen.random_module(rng, A, cfg)
    entries = []
    for i in range(cov.num_sets):
        for j in range(i + 1, cov.num_sets):
            for k in A.labels:
                G = rng.gauss_matrix(X.mult[k], X.mult[k])
                entries.append((i, j, k, np.where(G.real > 0.5, complex(-0.0, -0.0), G)))
    return make_gluing_datum(A, cov, X.mult, entries)


def builder_datum(mode, seed):
    """A datum of one family of the T_k builder comparisons: the descent
    families, Gaussian transitions with -0.0 entries, or a single cover set."""
    if mode == "mixed":
        return mixed_datum(seed)
    if mode == "single":
        rng = Rng(seed)
        cfg = GenConfig(seed=seed, max_blocks=3, max_block_dim=2, max_mult=3)
        A = gen.random_algebra(rng, cfg)
        return make_gluing_datum(A, cover(A.num_blocks, [set(A.labels)]),
                                 gen.random_module(rng, A, cfg).mult, [])
    return descent_datum(mode, seed)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(DESCENT_MODES + ["mixed", "single"]),
       seed=st.integers(min_value=0, max_value=10**6))
@example(mode="prescribed_phases", seed=0)  # (1, 1, -1)
@example(mode="mixed", seed=5)  # Gaussian transitions and -0.0 entries
def test_placed_t_k_equals_the_per_slot_builder_bit_for_bit(mode, seed):
    D = builder_datum(mode, seed)
    X = module(D.algebra, tuple(range(1, D.algebra.num_blocks + 1)))
    try:
        gd = glue(D)
    except RankAmbiguityError:
        gd = None
    for k in D.algebra.labels:
        pairs = oracles.blockwise_builders(D, k)
        pairs.update(zip(("M_unit", "M_eta_id", "M_id_etaB"), zip(
            tensor.image_eta_matrices(X, D.cover, k),
            oracles.blockwise_image_eta_matrices(X, D.cover, k))))
        if gd is not None:
            pairs["glued_basis"] = (tensor.glued_tensor_subspace_basis(gd, k),
                                    oracles.blockwise_glued_tensor_subspace_basis(gd, k))
        for name, (got, want) in pairs.items():
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
