"""The acceptance battery: one function per criterion, each returning a
machine-readable Report, plus a runner that executes all of them.

Seeds are derived deterministically from a base seed, so a recorded
fingerprint reproduces every residual exactly.
"""

from __future__ import annotations

import time

import numpy as np

from . import gen, morita, numlin, tensor
from .cstar import algebra, cover, restrict_algebra, sum_algebra
from .gen import GenConfig
from .glue import (
    EXACT_IDENTITY_TOL,
    _tensor_kernel_check,
    descent_identities_check,
    epsilon_iso,
    glue,
    glue_morphism,
    make_gluing_datum,
    phi_iso,
    phi_map,
    pull_apart,
    pull_apart_map,
)
from .hmod import (
    compose,
    map_norm,
    restrict_module,
    unitary_residual,
)
from .numlin import DEFAULT_TOL
from .rng import Rng
from .serial import Report

#: Tolerance of criterion 9's two isomorphism tests, tensor compatibility
#: and the inverse up to isomorphism; fixed, as the criterion's tol judges
#: only the cocycle residual.
PICARD_ISO_TOL = 1e-9

#: Tolerance at which criterion 11's obstruction_2cocycle calls refuse a
#: composite that is not scalar; fixed, as the criterion's tol judges only
#: the coboundary and invariance residuals.
CECH_OBSTRUCTION_TOL = 1e-8

#: Default tol of the cocycle-type residuals of criteria 9 and 11: the
#: conjugate datum's cocycle residual, and the obstruction scalars'
#: coboundary identity and invariance under coboundary twists.
COCYCLE_TOL = 1e-10

#: Largest plain tensor dimension of an instance that criterion 10 checks
#: against the balanced quotient, whose relation matrix grows with it.
ORACLE_DIM_CAP = 200


def criterion_1_round_trip_phi(trials: int = 200, tol: float = DEFAULT_TOL, base_seed: int = 100) -> Report:
    """Phi: X -> G(P(X)) is unitary and natural on random adjointable maps."""
    t0 = time.time()
    worst = 0.0
    for s in range(trials):
        cfg = GenConfig(seed=base_seed + s)
        inst = gen.random_module_instance(cfg)
        X, cov = inst.module, inst.cover
        phi = phi_iso(X, cov)
        worst = max(worst, unitary_residual(phi.map))
        rng = Rng((base_seed + s) ^ 0x5A5A)
        Y = gen.random_module(rng, X.algebra, cfg)
        a = gen.random_map(rng, X, Y)
        phiY = phi_iso(Y, cov)
        Ga = glue_morphism(pull_apart_map(a, cov), glued=(phi.glued, phiY.glued))
        nat = compose(phiY.map, a) - compose(Ga, phi.map)
        worst = max(worst, map_norm(nat))
    return Report(
        "criterion_1_round_trip_phi", worst <= tol, worst, tol,
        f"seeds={base_seed}..{base_seed + trials - 1}", time.time() - t0,
        {"trials": trials},
    )


def criterion_2_round_trip_epsilon(trials: int = 200, tol: float = DEFAULT_TOL, base_seed: int = 200) -> Report:
    """Epsilon: P(G(Z,zeta)) -> (Z,zeta) is a unitary morphism of gluing data."""
    t0 = time.time()
    worst = 0.0
    for s in range(trials):
        cfg = GenConfig(seed=base_seed + s, twist_mode="coherent")
        D = gen.random_gluing_instance(cfg).datum
        eps = epsilon_iso(D)
        if eps.morphism is None:
            worst = float("inf")
            break
        worst = max(worst, eps.unitary_residual, eps.intertwine_residual)
    return Report(
        "criterion_2_round_trip_epsilon", worst <= tol, worst, tol,
        f"seeds={base_seed}..{base_seed + trials - 1}", time.time() - t0,
        {"trials": trials},
    )


def criterion_3_delta_isometry(trials: int = 200, tol: float = DEFAULT_TOL, base_seed: int = 300) -> Report:
    """delta is B-linear and isometric at amplification levels 1 and 2."""
    t0 = time.time()
    worst = 0.0
    for s in range(trials):
        cfg = GenConfig(seed=base_seed + s, twist_mode="coherent")
        D = gen.random_gluing_instance(cfg).datum
        B = sum_algebra(D.algebra, D.cover)
        rng = Rng((base_seed + s) ^ 0xD1CE)
        zs = [tuple(gen.random_vector(rng, m) for m in D.modules) for _ in range(4)]
        b = gen.random_element(rng, B)
        worst = max(worst, *_delta_isometry_residuals(D, zs, b))
    return Report(
        "criterion_3_delta_isometry", worst <= tol, worst, tol,
        f"seeds={base_seed}..{base_seed + trials - 1}", time.time() - t0,
        {"trials": trials, "amplification_levels": [1, 2]},
    )


def _amp2(stack) -> np.ndarray:
    """The 2x2 grids [[x_0, x_1], [x_2, x_3]] of a (4, slots, rows, cols)
    stack, as one (slots, 2 rows, 2 cols) stack."""
    _, slots, rows, cols = stack.shape
    grid = stack.reshape(2, 2, slots, rows, cols).transpose(2, 0, 3, 1, 4)
    return grid.reshape(slots, 2 * rows, 2 * cols)


def _delta_isometry_residuals(D, zs, b) -> tuple:
    """(B-linearity, level-1, level-2 isometry) residuals of delta on the four
    families zs and the element b of B, label by label on stacked slots.

    With s members and multiplicity m, label k's family slots are a
    (4, s, m, n) stack and its pair slots a (4, s, s, m, n) stack; b acts on
    a slot (..., j) by its block (j, k), so on all of them at once by one
    broadcast product.  B-linearity is the largest entry of
    delta(z b) - delta(z) b for z = zs[0]; level 1 compares the norms of
    delta(z) and z, level 2 those of the 2x2 grids of delta(zs) and zs, each
    norm the largest over slot blocks.
    """
    linearity = 0.0
    norms = [[], [], [], []]  # slots of z, delta(z), grid of zs, grid of delta(zs)
    for k in D.algebra.labels:
        members = D.cover.members(k)
        s, m = len(members), D.label_mult(k)
        bk = np.stack([b.block((j, k)) for j in members])
        delta = tensor.delta_map(D, k)
        Z = tensor.family_stack(zs, D, k)
        n = Z.shape[-1]
        fam, pair = Z.reshape(4, s, m, n), (delta @ Z).reshape(4, s, s, m, n)
        lin = delta @ (fam[0] @ bk).reshape(s * m, n) - (pair[0] @ bk).reshape(s * s * m, n)
        linearity = max(linearity, float(np.abs(lin).max(initial=0.0)))
        for group, stack in ((0, fam), (1, pair.reshape(4, s * s, m, n))):
            norms[group].append(stack[0])
            norms[group + 2].append(_amp2(stack))
    fam1, pair1, fam2, pair2 = numlin.op_norm_maxima(norms)
    return linearity, abs(pair1 - fam1), abs(pair2 - fam2)


def criterion_4_delta_algebra(trials: int = 100, tol: float = DEFAULT_TOL, base_seed: int = 400) -> Report:
    """Counit, coassociativity and the kernel identity, coherent and twisted.

    Coassociativity on arbitrary vectors is equivalent to the triple-overlap
    condition, so on twisted instances it is asserted on embedded glued
    vectors (where it holds unconditionally) and its unrestricted residual is
    reported alongside the cocycle residual it tracks.
    """
    t0 = time.time()
    worst_exact = 0.0
    worst_kernel = 0.0
    max_raw_coassoc_twisted = 0.0
    for s in range(trials):
        mode = "coherent" if s % 2 == 0 else "random_unitary"
        cfg = GenConfig(seed=base_seed + s, twist_mode=mode)
        D = gen.random_gluing_instance(cfg).datum
        rep = descent_identities_check(D, tol=tol, trials=4, seed=base_seed + s)
        worst_exact = max(worst_exact, rep.counit, rep.coassoc_glued)
        if rep.coherent:
            worst_exact = max(worst_exact, rep.coassoc)
        else:
            max_raw_coassoc_twisted = max(max_raw_coassoc_twisted, rep.coassoc)
        worst_kernel = max(worst_kernel, rep.kernel_gap)
    passed = worst_exact <= EXACT_IDENTITY_TOL and worst_kernel <= tol
    return Report(
        "criterion_4_delta_algebra", passed, max(worst_exact, worst_kernel), tol,
        f"seeds={base_seed}..{base_seed + trials - 1}", time.time() - t0,
        {"trials": trials, "max_exact_residual": worst_exact,
         "tol_exact": EXACT_IDENTITY_TOL, "max_kernel_gap": worst_kernel,
         "coassoc_scope": "arbitrary vectors when coherent; glued vectors when twisted",
         "max_raw_coassoc_on_twisted": max_raw_coassoc_twisted},
    )


def criterion_5_kernels(trials: int = 100, tol: float = DEFAULT_TOL, base_seed: int = 500) -> Report:
    """dim and subspace agreement of (glued (x) B) with ker((eta - delta) (x) id)."""
    t0 = time.time()
    worst = 0.0
    dims_ok = True
    for s in range(trials):
        mode = "coherent" if s % 2 == 0 else "random_unitary"
        cfg = GenConfig(seed=base_seed + s, twist_mode=mode,
                        max_blocks=4, max_mult=4)
        D = gen.random_gluing_instance(cfg).datum
        (model_dim, ker_dim), gap = _tensor_kernel_check(glue(D))
        dims_ok = dims_ok and model_dim == ker_dim
        worst = max(worst, gap)
    return Report(
        "criterion_5_kernels", dims_ok and worst <= tol, worst, tol,
        f"seeds={base_seed}..{base_seed + trials - 1}", time.time() - t0,
        {"trials": trials, "dims_equal": dims_ok},
    )


def criterion_6_image_eta(trials: int = 100, tol: float = DEFAULT_TOL, base_seed: int = 600) -> Report:
    """image(unit) = ker(eta (x) id - id (x) eta_B) and image(Phi) is the
    compatibility subspace, in dimensions and principal angles."""
    t0 = time.time()
    worst = 0.0
    dims_ok = True
    for s in range(trials):
        cfg = GenConfig(seed=base_seed + s)
        inst = gen.random_module_instance(cfg)
        X, cov = inst.module, inst.cover
        gd = glue(pull_apart(X, cov))
        dims = [0, 0, 0]  # n_k-weighted dims of the kernel, image(unit), image(Phi)
        for k, n in zip(X.algebra.labels, X.algebra.block_dims):
            M_unit, M_eta_id, M_id_etaB = tensor.image_eta_matrices(X, cov, k)
            ker = numlin.kernel_basis(M_eta_id - M_id_etaB)
            im = numlin.orth_basis(M_unit)
            emb = gd.stacked_basis[k]
            dims = [d + n * b.shape[1] for d, b in zip(dims, (ker, im, emb))]
            worst = max(worst, numlin.subspace_gap(ker, im), numlin.subspace_gap(ker, emb))
        dims_ok = dims_ok and dims[0] == X.dim == dims[1] == dims[2]
    return Report(
        "criterion_6_image_eta", dims_ok and worst <= tol, worst, tol,
        f"seeds={base_seed}..{base_seed + trials - 1}", time.time() - t0,
        {"trials": trials, "dims_equal": dims_ok},
    )


def criterion_7_degeneracy_witness(tol: float = EXACT_IDENTITY_TOL) -> Report:
    """The phases (1, 1, -1) over one 1-dimensional block glue to zero, and
    the matching bimodule obstruction scalar is -1."""
    t0 = time.time()
    A1 = algebra((1,))
    cov3 = cover(1, [{0}, {0}, {0}])
    entries = [
        (0, 1, 0, np.eye(1)), (1, 2, 0, np.eye(1)), (0, 2, 0, -np.eye(1)),
    ]
    D = make_gluing_datum(A1, cov3, (1,), entries)
    gd = glue(D)
    glued_zero = gd.module.mult == (0,)

    cfg = GenConfig(seed=1, twist_mode="prescribed_phases",
                    phases=((0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0), (0, 2, -1.0, 0.0)))
    rng = Rng(cfg.seed)
    Db = morita.random_bimodule_datum(rng, A1, A1, cov3, cfg)
    f = complex(morita.obstruction_2cocycle(Db)[0][0, 1, 2])
    res = abs(f - (-1.0))
    passed = glued_zero and res <= tol
    return Report(
        "criterion_7_degeneracy_witness", passed, res, tol,
        "fixed instance phases=(1,1,-1)", time.time() - t0,
        {"glued_mult": list(gd.module.mult), "obstruction": [f.real, f.imag]},
    )


def criterion_8_morita_round_trip(trials: int = 100, tol: float = DEFAULT_TOL, base_seed: int = 800) -> Report:
    """glue_bimodules o pull_apart_bimodule ~ id and conversely, with unitary
    bimodule isomorphism witnesses."""
    t0 = time.time()
    worst = 0.0
    ok = True
    for s in range(trials):
        cfg = GenConfig(seed=base_seed + s, twist_mode="coherent")
        rng = Rng(base_seed + s)
        left, right = gen.random_algebra_pair(rng, cfg)
        cov = gen.random_cover(rng, left, cfg)
        M = morita.random_bimodule(rng, left, right)

        # forward: M -> glued(pull-apart), witnessed by Phi
        gb = morita.glue_bimodules(morita.pull_apart_bimodule(M, cov), tol)
        if gb.bimodule is None:
            ok = False
            break
        phi = phi_map(gb.glued, M.right_module())
        worst = max(worst, morita.bimodule_morphism_residual(M, gb.bimodule, phi.blocks))

        # converse: P(G(D)) ~ D for a coherent bimodule datum
        D = morita.random_bimodule_datum(rng, left, right, cov, cfg)
        gb2 = morita.glue_bimodules(D, tol)
        if gb2.bimodule is None:
            ok = False
            break
        back = morita.pull_apart_bimodule(gb2.bimodule, cov)
        wit = morita.bimodule_data_isomorphic(back, D, tol)
        ok = ok and (wit is not None)
    return Report(
        "criterion_8_morita_round_trip", ok and worst <= tol, worst, tol,
        f"seeds={base_seed}..{base_seed + trials - 1}", time.time() - t0,
        {"trials": trials, "witnesses_found": ok},
    )


def criterion_9_picard(trials: int = 100, tol: float = COCYCLE_TOL, base_seed: int = 900) -> Report:
    """Conjugation by a twisted datum: cocycle cancellation, tensor
    compatibility, inverse up to isomorphism, and the trivial Picard group."""
    t0 = time.time()
    worst = 0.0
    ok = True
    for s in range(trials):
        rng = Rng(base_seed + s)
        cfg = GenConfig(seed=base_seed + s, max_blocks=3, max_block_dim=3,
                        twist_mode="random_unitary")
        left, right = gen.random_algebra_pair(rng, cfg)
        cov = gen.random_cover(rng, left, cfg)
        D = morita.random_bimodule_datum(rng, left, right, cov, cfg)

        cfg_c = GenConfig(seed=base_seed + s, twist_mode="coherent")
        Ma = morita.random_bimodule_datum(rng, left, left, cov, cfg_c)
        Mb = morita.random_bimodule_datum(rng, left, left, cov, cfg_c)

        out = morita.picard_conjugate(D, Ma)
        worst = max(worst, morita.validate_bimodule_datum(out).cocycle)

        lhs = morita.picard_conjugate(D, morita.datum_tensor(Ma, Mb))
        rhs = morita.datum_tensor(out, morita.picard_conjugate(D, Mb))
        ok = ok and morita.bimodule_data_isomorphic(lhs, rhs, PICARD_ISO_TOL) is not None

        back = morita.picard_conjugate(morita.dual_datum(D), out)
        ok = ok and morita.bimodule_data_isomorphic(back, Ma, PICARD_ISO_TOL) is not None

        M = morita.random_bimodule(rng, right, right)
        ok = ok and morita.bimodules_isomorphic(M, morita.identity_bimodule(right)) is not None
    return Report(
        "criterion_9_picard", ok and worst <= tol, worst, tol,
        f"seeds={base_seed}..{base_seed + trials - 1}", time.time() - t0,
        {"trials": trials, "isomorphisms_found": ok},
    )


def criterion_10_oracle_agreement(tol: float = DEFAULT_TOL, base_seed: int = 1000) -> Report:
    """Pair/triple models and the unit-map model agree with the balanced
    quotient on every generated instance whose plain tensor dimension fits
    the cap.  details.rank_margin holds the worst margins of the checks'
    model rank decisions: the smallest kept and the largest discarded
    ratio, None where no check kept, resp. discarded, a singular value."""
    t0 = time.time()
    counts = {"psi": 0, "nu": 0, "pair": 0, "triple": 0}
    reports = []

    def record(kind, rep):
        counts[kind] += 1
        reports.append(rep)

    s = 0
    while sum(counts.values()) < 40 and s < 400:
        cfg = GenConfig(seed=base_seed + s, max_blocks=2, max_block_dim=2,
                        max_cover_sets=3, max_mult=2,
                        twist_mode="random_unitary" if s % 2 else "coherent")
        s += 1
        inst = gen.random_gluing_instance(cfg)
        D = inst.datum
        B = sum_algebra(D.algebra, D.cover)
        fam_dim = sum(m.dim for m in D.modules)

        X = gen.random_module(Rng(cfg.seed ^ 0xF00), D.algebra, cfg)
        if X.dim * B.dim <= ORACLE_DIM_CAP and counts["psi"] < 10:
            record("psi", tensor.psi_oracle_check(X, D.cover, tol, trials=4, seed=cfg.seed))
        if counts["nu"] < 10 and D.cover.num_sets >= 2:
            Y = restrict_module(X, D.cover.sets[0])
            sub = restrict_algebra(D.algebra, D.cover.sets[1])
            if Y.dim * sub.dim <= ORACLE_DIM_CAP and Y.dim > 0:
                record("nu", tensor.nu_oracle_check(Y, D.algebra, D.cover.sets[1], tol,
                                                    trials=4, seed=cfg.seed))
        if fam_dim * B.dim <= ORACLE_DIM_CAP and counts["pair"] < 10:
            record("pair", tensor.pair_model_oracle_check(D, tol, trials=3, seed=cfg.seed))
        if fam_dim * B.dim ** 2 <= ORACLE_DIM_CAP and counts["triple"] < 10:
            record("triple", tensor.triple_model_oracle_check(D, tol, trials=2, seed=cfg.seed))
    worst = max([0.0] + [x for r in reports for x in (r.relation_residual, r.inner_residual)])
    dims_ok = all(r.oracle_dim == r.model_dim for r in reports)
    kept = [r.rank_margin[0] for r in reports if r.rank_margin[0] is not None]
    dropped = [r.rank_margin[1] for r in reports if r.rank_margin[1] is not None]
    return Report(
        "criterion_10_oracle_agreement", dims_ok and worst <= tol, worst, tol,
        f"seeds={base_seed}.. (scan)", time.time() - t0,
        {"checks": counts, "dims_equal": dims_ok, "dim_cap": ORACLE_DIM_CAP,
         "rank_margin": {"smallest_kept": min(kept, default=None),
                         "largest_discarded": max(dropped, default=None)}},
    )


def criterion_11_cech(trials: int = 30, tol: float = COCYCLE_TOL, base_seed: int = 1100) -> Report:
    """Obstruction scalars satisfy the coboundary identity on 4-set covers
    and are invariant under coboundary twists."""
    t0 = time.time()
    worst = 0.0
    for s in range(trials):
        rng = Rng(base_seed + s)
        cfg = GenConfig(seed=base_seed + s, max_blocks=2, max_block_dim=2,
                        twist_mode="random_unitary")
        left, right = gen.random_algebra_pair(rng, cfg)
        K = left.num_blocks
        # four sets, all containing every block: every quadruple overlaps
        cov = cover(K, [frozenset(range(K))] * 4)
        D = morita.random_bimodule_datum(rng, left, right, cov, cfg)
        f = morita.obstruction_2cocycle(D, CECH_OBSTRUCTION_TOL)
        # D twisted by the coboundary of g, which must leave f unchanged
        g = {(i, k): rng.unit_scalar() for i in range(4) for k in range(K)}
        nu = {}
        for k, Z in D.nu.items():
            gk = np.array([g[(i, k)] for i in cov.members(k)])
            nu[k] = gk[:, None, None, None] * Z * np.conj(gk)[None, :, None, None]
            nu[k][np.diag_indices(len(Z))] = np.eye(Z.shape[-1])  # g conj(g) may miss 1
        D2 = morita._derived_datum(left, right, cov, D.twist, nu)
        f2 = morita.obstruction_2cocycle(D2, CECH_OBSTRUCTION_TOL)
        for k, F in f.items():
            worst = max(worst, _coboundary_residual(F), float(np.abs(F - f2[k]).max()))
    return Report(
        "criterion_11_cech", worst <= tol, worst, tol,
        f"seeds={base_seed}..{base_seed + trials - 1}", time.time() - t0,
        {"trials": trials},
    )


def _coboundary_residual(F) -> float:
    """max |(delta f)(i, j, l, m) - 1| over every quadruple of positions, f
    one label's (s, s, s) obstruction array F, in one broadcast:
    (delta f)(i, j, l, m) = f(j, l, m) f(i, l, m)* f(i, j, m) f(i, j, l)*."""
    cob = F[None] * F[:, None].conj() * F[:, :, None] * F[..., None].conj()
    return float(np.abs(cob - 1.0).max())


ALL_CRITERIA = (
    criterion_1_round_trip_phi,
    criterion_2_round_trip_epsilon,
    criterion_3_delta_isometry,
    criterion_4_delta_algebra,
    criterion_5_kernels,
    criterion_6_image_eta,
    criterion_7_degeneracy_witness,
    criterion_8_morita_round_trip,
    criterion_9_picard,
    criterion_10_oracle_agreement,
    criterion_11_cech,
)


def run_suite(trials: int = None, tol: float = None) -> list:
    """Run every criterion; trials and tol, when given, override each
    criterion's own trial count and tolerance where it has one (criterion 7
    is a fixed instance and has no trial count)."""
    reports = []
    for fn in ALL_CRITERIA:
        params = fn.__code__.co_varnames[: fn.__code__.co_argcount]
        overrides = {name: value for name, value in (("trials", trials), ("tol", tol))
                     if value is not None and name in params}
        reports.append(fn(**overrides))
    return reports
