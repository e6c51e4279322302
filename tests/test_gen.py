import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modglue import gen, morita, serial
from modglue.cstar import algebra, cover
from modglue.errors import InvalidInputError
from modglue.gen import GenConfig
from modglue.glue import glue, make_gluing_datum, validate_gluing_datum
from modglue.hmod import module
from modglue.rng import Rng

import oracles


def twist_by_coboundary(rng, datum):
    """Conjugate a datum by per-set unitaries: an isomorphic, still-valid datum."""
    cov = datum.cover
    V = {}
    for i in range(cov.num_sets):
        for k in sorted(cov.sets[i]):
            V[(i, k)] = rng.unitary(datum.label_mult(k))
    entries = [(i, j, k, V[(i, k)] @ U @ V[(j, k)].conj().T)
               for (i, j, k, U) in datum.entries() if i < j]
    return make_gluing_datum(datum.algebra, cov, oracles.datum_mult(datum), entries)


class TestRng:
    def test_stream_is_deterministic(self):
        a = Rng(12345)
        b = Rng(12345)
        assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]

    def test_known_splitmix_values(self):
        # reference values for seed 0: documented generator constants
        r = Rng(0)
        first = r.next_u64()
        assert first == 0xE220A8397B1DCDAF

    def test_uniform_range(self):
        r = Rng(7)
        for _ in range(1000):
            u = r.uniform()
            assert 0.0 < u <= 1.0

    def test_unitary_is_unitary(self):
        from modglue import numlin

        r = Rng(9)
        for m in (1, 2, 5):
            U = r.unitary(m)
            assert U.shape == (m, m) and numlin.unitarity_defects(U[None])[0] <= 1e-12

    def test_randint_bounds(self):
        r = Rng(10)
        vals = {r.randint(2, 5) for _ in range(200)}
        assert vals == {2, 3, 4, 5}


def same_array(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


SHAPES = st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1), shapes=st.lists(SHAPES, max_size=5),
       m=st.integers(min_value=0, max_value=9))
@example(seed=0, shapes=[(0, 4), (4, 0), (0, 0), (1, 1)], m=0)
@example(seed=2**64 - 1, shapes=[(9, 9)], m=9)  # the state wraps mod 2^64
def test_gaussian_draws_equal_the_scalar_stream(seed, shapes, m):
    fast, slow = Rng(seed), oracles.ScalarRng(seed)
    for (r, c) in shapes:
        assert same_array(fast.gauss_matrix(r, c), slow.gauss_matrix(r, c))
    assert same_array(fast.unitary(m), slow.unitary(m))
    assert fast.state == slow.state
    # gen draws all blocks of an object in one call, split row-major
    A = gen.random_algebra(Rng(seed), GenConfig(seed=0))
    src = module(A, tuple((m + k) % 4 for k in range(A.num_blocks)))
    tgt = module(A, tuple(range(A.num_blocks)))
    draws = [
        (gen.random_vector(fast, tgt).blocks,
         tuple(slow.gauss_matrix(p, n) for p, n in tgt.block_shapes())),
        (gen.random_element(fast, A).blocks,
         tuple(slow.gauss_matrix(n, n) for n in A.block_dims)),
        (gen.random_map(fast, src, tgt).blocks,
         tuple(slow.gauss_matrix(p, q) for p, q in zip(tgt.mult, src.mult))),
    ]
    for got, want in draws:
        assert len(got) == len(want) and all(map(same_array, got, want))
    assert fast.state == slow.state


class TestInstances:
    def test_same_seed_identical_bytes(self):
        cfg = GenConfig(seed=314, twist_mode="random_unitary")
        a = serial.canonical_dumps(serial.instance_to_json(gen.random_instance(cfg)))
        b = serial.canonical_dumps(serial.instance_to_json(gen.random_instance(cfg)))
        assert a == b

    def test_different_seeds_differ(self):
        a = serial.canonical_dumps(
            serial.instance_to_json(gen.random_instance(GenConfig(seed=1)))
        )
        b = serial.canonical_dumps(
            serial.instance_to_json(gen.random_instance(GenConfig(seed=2)))
        )
        assert a != b

    def test_cover_always_covers(self):
        for s in range(30):
            inst = gen.random_gluing_instance(GenConfig(seed=s))
            assert set().union(*inst.cover.sets) == set(range(inst.algebra.num_blocks))

    def test_coherent_mode_has_exact_cocycle(self):
        for s in range(25):
            D = gen.random_gluing_instance(GenConfig(seed=s, twist_mode="coherent")).datum
            rep = validate_gluing_datum(D)
            assert rep.max_residuals["cocycle"] <= 1e-12

    def test_prescribed_phases_obstruction(self):
        cfg = GenConfig(seed=4, kind="bimodule", twist_mode="prescribed_phases",
                        phases=((0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0), (0, 2, -1.0, 0.0)))
        D = gen.random_instance(cfg)
        f = morita.obstruction_2cocycle(D)
        assert abs(f[0][0, 1, 2] - (-1.0)) < 1e-12

    def test_both_generators_put_the_phases_on_one_block(self):
        # sets 1 and 2 own block 1 alone, so the phases twist block 1
        A = algebra((1, 1))
        cov = cover(2, [{0, 1}, {1}, {1}])
        cfg = GenConfig(seed=0, twist_mode="prescribed_phases",
                        phases=((0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0), (0, 2, -1.0, 0.0)))
        D = gen.random_gluing_datum(Rng(0), A, cov, cfg, mult=(1, 1))
        assert validate_gluing_datum(D).max_residuals["cocycle"] == 2.0
        assert glue(D).module.mult == (1, 0)
        Db = morita.random_bimodule_datum(Rng(0), A, A, cov, cfg)
        assert abs(morita.obstruction_2cocycle(Db)[1][0, 1, 2] - (-1.0)) < 1e-12
        assert morita.glue_bimodules(Db).dimension_deficit == {1: 1}

    def test_phases_on_a_set_the_cover_lacks_are_refused(self):
        A = algebra((1, 1))
        cov = cover(2, [{0, 1}, {1}])
        cfg = GenConfig(seed=0, twist_mode="prescribed_phases", phases=((0, 2, -1.0, 0.0),))
        for make in (lambda: gen.random_gluing_datum(Rng(0), A, cov, cfg, mult=(1, 1)),
                     lambda: morita.random_bimodule_datum(Rng(0), A, A, cov, cfg)):
            with pytest.raises(InvalidInputError, match="^phases name set 2, but the cover has 2 sets$"):
                make()

    def test_bounds_validated(self):
        with pytest.raises(InvalidInputError):
            GenConfig(seed=0, max_blocks=9)
        with pytest.raises(InvalidInputError):
            GenConfig(seed=0, twist_mode="bogus")
        with pytest.raises(InvalidInputError):
            GenConfig(seed=0, kind="bogus")
        # a phase names two distinct sets inside the max_cover_sets cap
        for phase in ((0, 9, 1.0, 0.0), (0, 4, 1.0, 0.0), (-1, 1, 1.0, 0.0), (0, 0, -1.0, 0.0)):
            with pytest.raises(InvalidInputError):
                GenConfig(seed=0, twist_mode="prescribed_phases", phases=(phase,))
        with pytest.raises(InvalidInputError):
            GenConfig(seed=0, max_cover_sets=2, twist_mode="prescribed_phases",
                      phases=((0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0)))
        GenConfig(seed=0, twist_mode="prescribed_phases", phases=((3, 0, 1.0, 0.0),))
        # a phase is a finite unit complex number, and a pair of sets takes
        # at most one, in either orientation
        for phases in (((0, 1, 2.0, 0.0),), ((0, 1, 1e308, 1e308),),
                       ((0, 1, float("nan"), 0.0),), ((0, 1, 0.0, float("inf")),),
                       ((0, 1, 0.0, 1.0), (0, 1, 0.0, 1.0)),
                       ((0, 1, 0.0, 1.0), (1, 0, 0.0, 1.0))):
            with pytest.raises(InvalidInputError):
                GenConfig(seed=0, twist_mode="prescribed_phases", phases=phases)
        GenConfig(seed=0, twist_mode="prescribed_phases",
                  phases=((0, 1, 0.6, 0.8), (1, 2, 1.0, 0.0), (2, 0, 0.0, -1.0)))

    def test_random_unitary_mode_breaks_cocycle_generically(self):
        # over many seeds, essentially every instance with a triple overlap on
        # a block of positive multiplicity violates the cocycle
        broken = total = 0
        for s in range(1000):
            D = gen.random_gluing_instance(
                GenConfig(seed=s, twist_mode="random_unitary")
            ).datum
            has_essential_triple = any(
                len({i, j, l}) == 3
                and any(D.label_mult(k) > 0 for k in D.cover.overlap(i, j, l))
                for (i, j, l) in D.cover.triples()
            )
            if not has_essential_triple:
                continue
            total += 1
            rep = validate_gluing_datum(D)
            if not rep.cocycle:
                broken += 1
        assert total > 50
        assert broken / total >= 0.99

    def test_coboundary_twist_preserves_validity(self):
        D = gen.random_gluing_instance(GenConfig(seed=77, twist_mode="coherent")).datum
        D2 = twist_by_coboundary(Rng(5), D)
        rep = validate_gluing_datum(D2)
        assert rep.required_ok and rep.cocycle
