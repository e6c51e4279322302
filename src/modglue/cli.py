"""Command-line interface: load instances, run validators and constructions,
emit JSON-line reports.

Exit codes: 0 all checks passed, 1 invalid input data (including maps that
are not module maps or gluing morphisms), 2 a check failed, 3 file parse/IO
error, 4 a rank decision too close to its threshold to make.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import gen, morita, numlin, suite
from .errors import (
    FormatError,
    InvalidInputError,
    ModelViolationError,
    NotAModuleMapError,
    NotAMorphismError,
    RankAmbiguityError,
)
from .glue import (
    GluingDatum,
    descent_identities_check,
    epsilon_iso,
    glue,
    phi_iso,
    pull_apart,
    validate_gluing_datum,
)
from .hmod import unitary_residual
from .morita import BimoduleGluingDatum, EquivalenceBimodule
from .serial import (
    Report,
    bimodule_datum_to_json,
    canonical_dumps,
    gluing_to_json,
    instance_to_json,
    load_instance_file,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CHECK_FAILED = 2
EXIT_PARSE = 3
EXIT_RANK_AMBIGUOUS = 4

TOL_HELP = f"a finite number > 0 (default: MODGLUE_TOL, else {numlin.DEFAULT_TOL:g})"


def _positive_tol(text: str, source: str) -> float:
    """A tolerance given as text: a finite number > 0, else InvalidInputError."""
    try:
        tol = float(text)
    except ValueError:
        tol = float("nan")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInputError(f"{source} must be a finite positive number, got {text!r}")
    return tol


def _check_numbers(args) -> None:
    """Resolve --tol, falling back on MODGLUE_TOL and then on the command's
    default, and refuse a tolerance that is not a finite positive number or
    a negative --trials."""
    if hasattr(args, "tol"):
        env = os.environ.get("MODGLUE_TOL")
        if args.tol is not None:
            args.tol = _positive_tol(args.tol, "--tol")
        elif env:
            args.tol = _positive_tol(env, "MODGLUE_TOL")
        elif args.command != "suite":  # the suite keeps each criterion's own
            args.tol = numlin.DEFAULT_TOL
    if getattr(args, "trials", None) is not None and args.trials < 0:
        raise InvalidInputError(f"--trials must be >= 0, got {args.trials}")


def _emit(reports, out_path):
    lines = [r.line() for r in reports]
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.check} residual={r.max_residual:.3e} tol={r.tol:g}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _required_residual(v) -> float:
    """The largest residual of a gluing datum's required laws."""
    r = v.max_residuals
    return max(r["unitary"], r["identity"], r["involutive"])


def cmd_validate(args) -> int:
    obj = load_instance_file(args.file)
    t0 = time.time()
    reports = []
    if isinstance(obj, GluingDatum):
        v = validate_gluing_datum(obj, args.tol)
        reports.append(Report(
            "validate_gluing_datum", v.required_ok, _required_residual(v),
            args.tol, args.file, time.time() - t0,
            {"cocycle": v.cocycle, "residuals": v.max_residuals},
        ))
    elif isinstance(obj, BimoduleGluingDatum):
        v = morita.validate_bimodule_datum(obj, args.tol)
        residuals = {"unitary": v.unitary, "transitions_bimodule": v.transitions_bimodule,
                     "involutive": v.involutive, "bimodules": v.bimodules}
        reports.append(Report(
            "validate_bimodule_datum", v.required_ok(args.tol), max(residuals.values()),
            args.tol, args.file, time.time() - t0,
            {"cocycle_residual": v.cocycle, "residuals": residuals},
        ))
    elif isinstance(obj, EquivalenceBimodule):
        v = morita.validate_bimodule(obj, args.tol)
        reports.append(Report(
            "validate_bimodule", v.passed, max(v.imprimitivity, v.left_linearity),
            args.tol, args.file, time.time() - t0,
            {
                "unitarity_defect": {str(k): d for k, d in v.unitarity_defect.items()},
                "rank_margin": {str(k): list(m) for k, m in v.rank_margin.items()},
            },
        ))
    else:  # module instance triple
        A, cov, X = obj
        reports.append(Report(
            "validate_module", True, 0.0, args.tol, args.file, time.time() - t0,
            {"dim": X.dim},
        ))
    return _emit(reports, args.out)


def cmd_pullapart(args) -> int:
    obj = load_instance_file(args.file)
    if isinstance(obj, tuple):  # module instance
        _, cov, X = obj
        datum = pull_apart(X, cov)
        payload = gluing_to_json(datum)
    elif isinstance(obj, EquivalenceBimodule):
        raise InvalidInputError("pullapart of a bimodule needs a cover; supply a bimodule_datum instead")
    else:
        raise InvalidInputError("pullapart expects a module instance file")
    text = canonical_dumps(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_glue(args) -> int:
    obj = load_instance_file(args.file)
    t0 = time.time()
    if isinstance(obj, GluingDatum):
        v = validate_gluing_datum(obj, args.tol)
        if not v.required_ok:
            rep = Report(
                "glue", False, _required_residual(v), args.tol, args.file,
                time.time() - t0,
                {"cocycle": v.cocycle, "residuals": v.max_residuals},
            )
            return _emit([rep], args.out)
        gd = glue(obj)
        rep = Report(
            "glue", True, 0.0, args.tol, args.file, time.time() - t0,
            {
                "glued_mult": list(gd.module.mult),
                "cocycle": v.cocycle,
                "rank_margin": {str(k): list(m) for k, m in gd.rank_margin.items()},
            },
        )
        return _emit([rep], args.out)
    raise InvalidInputError("glue expects a gluing datum file")


def cmd_roundtrip(args) -> int:
    t0 = time.time()
    reports = []
    if args.file:
        obj = load_instance_file(args.file)
        if isinstance(obj, tuple):
            _, cov, X = obj
            phi = phi_iso(X, cov)
            res = unitary_residual(phi.map)
            reports.append(Report(
                "roundtrip_phi", res <= args.tol, res, args.tol, args.file,
                time.time() - t0, {"glued_mult": list(phi.glued.module.mult)},
            ))
        elif isinstance(obj, GluingDatum):
            eps = epsilon_iso(obj)
            res = max(eps.unitary_residual, eps.intertwine_residual)
            ok = eps.morphism is not None and res <= args.tol
            reports.append(Report(
                "roundtrip_epsilon", ok, res, args.tol, args.file,
                time.time() - t0, {"dimension_deficit": {str(k): v for k, v in eps.dimension_deficit.items()}},
            ))
        else:
            raise InvalidInputError("roundtrip expects a module or gluing instance")
    else:
        r1 = suite.criterion_1_round_trip_phi(trials=args.trials, tol=args.tol, base_seed=args.seed)
        r2 = suite.criterion_2_round_trip_epsilon(trials=args.trials, tol=args.tol, base_seed=args.seed + 10_000)
        reports = [r1, r2]
    return _emit(reports, args.out)


def cmd_descent(args) -> int:
    t0 = time.time()
    if args.file:
        D = load_instance_file(args.file)
        if not isinstance(D, GluingDatum):
            raise InvalidInputError("descent expects a gluing datum file")
        fingerprint = args.file
    else:
        cfg = gen.GenConfig(seed=args.seed, twist_mode=args.mode)
        D = gen.random_gluing_instance(cfg).datum
        fingerprint = f"seed={args.seed};mode={args.mode}"
    rep = descent_identities_check(D, tol=args.tol, trials=args.trials, seed=args.seed)
    report = Report(
        "descent_identities", rep.passed, max(r for r, _ in rep.judged),
        args.tol, fingerprint, time.time() - t0,
        {
            "counit": rep.counit,
            "coassoc": rep.coassoc,
            "coassoc_glued": rep.coassoc_glued,
            "cocycle_residual": rep.cocycle_residual,
            "kernel_gap": rep.kernel_gap,
            "tensor_dims": list(rep.tensor_dims),
            "tensor_gap": rep.tensor_gap,
            "tolerances": rep.tolerances,
        },
    )
    return _emit([report], args.out)


def cmd_morita_glue(args) -> int:
    D = load_instance_file(args.file)
    if not isinstance(D, BimoduleGluingDatum):
        raise InvalidInputError("morita-glue expects a bimodule datum file")
    t0 = time.time()
    gb = morita.glue_bimodules(D, args.tol)
    ok = gb.bimodule is not None and gb.validation is not None and gb.validation.passed
    report = Report(
        "morita_glue", ok,
        gb.left_action_residual if gb.bimodule is not None else float("inf"),
        args.tol, args.file, time.time() - t0,
        {
            "glued_mult": list(gb.glued.module.mult),
            "dimension_deficit": {str(k): v for k, v in gb.dimension_deficit.items()},
        },
    )
    return _emit([report], args.out)


def cmd_obstruction(args) -> int:
    D = load_instance_file(args.file)
    if not isinstance(D, BimoduleGluingDatum):
        raise InvalidInputError("obstruction expects a bimodule datum file")
    t0 = time.time()
    f = {}  # (i, j, l, label) -> scalar
    for k, F in morita.obstruction_2cocycle(D, args.tol).items():
        members = D.cover.members(k)
        f.update(((members[a], members[b], members[c], k), complex(v))
                 for (a, b, c), v in np.ndenumerate(F))
    residuals = [abs(v - 1.0) for v in f.values()]
    report = Report(
        "obstruction_2cocycle", True, max(residuals, default=0.0),
        args.tol, args.file, time.time() - t0,
        {"scalars": {f"{i},{j},{l},{k}": [v.real, v.imag] for (i, j, l, k), v in sorted(f.items())},
         "coherent": all(r <= args.tol for r in residuals)},
    )
    return _emit([report], args.out)


def cmd_picard_conjugate(args) -> int:
    D = load_instance_file(args.datum)
    M = load_instance_file(args.self_datum)
    if not isinstance(D, BimoduleGluingDatum) or not isinstance(M, BimoduleGluingDatum):
        raise InvalidInputError("picard-conjugate expects two bimodule datum files")
    t0 = time.time()
    out = morita.picard_conjugate(D, M, args.tol)
    v = morita.validate_bimodule_datum(out, args.tol)
    report = Report(
        "picard_conjugate", v.cocycle <= args.tol, v.cocycle,
        args.tol, f"{args.datum}+{args.self_datum}", time.time() - t0, {},
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(canonical_dumps(bimodule_datum_to_json(out)) + "\n")
    print(report.line())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_gen(args) -> int:
    phases = ()
    if args.phases:
        try:
            raw = json.loads(args.phases)
            phases = tuple((int(i), int(j), float(re), float(im)) for (i, j, re, im) in raw)
        except (ValueError, TypeError) as exc:
            raise InvalidInputError(f"bad --phases: {exc}") from exc
    cfg = gen.GenConfig(seed=args.seed, twist_mode=args.mode, phases=phases, kind=args.kind)
    inst = gen.random_instance(cfg)
    payload = instance_to_json(inst)
    text = canonical_dumps(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_suite(args) -> int:
    reports = suite.run_suite(trials=args.trials, tol=args.tol)
    return _emit(reports, args.out)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="modglue",
        description="Gluing Hilbert modules over finite-dimensional C*-algebras: "
                    "validators, functors, descent identities, Morita/Picard checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, file_arg=True):
        if file_arg:
            sp.add_argument("file", help="instance JSON file")
        sp.add_argument("--tol", default=None, help=TOL_HELP)
        sp.add_argument("--out", default=None, help="write JSON-line reports here")
        return sp

    common(sub.add_parser("validate", help="validate an instance file"))
    common(sub.add_parser("pullapart", help="pull a module apart into a gluing datum"))
    common(sub.add_parser("glue", help="glue a gluing datum"))

    rt = sub.add_parser("roundtrip", help="both round trips, on a file or random seeds")
    rt.add_argument("file", nargs="?", default=None)
    rt.add_argument("--tol", default=None, help=TOL_HELP)
    rt.add_argument("--seed", type=int, default=0)
    rt.add_argument("--trials", type=int, default=200)
    rt.add_argument("--out", default=None)

    de = sub.add_parser("descent", help="descent identities on a file or a random seed")
    de.add_argument("file", nargs="?", default=None)
    de.add_argument("--tol", default=None, help=TOL_HELP)
    de.add_argument("--seed", type=int, default=0)
    de.add_argument("--trials", type=int, default=20)
    de.add_argument("--mode", default="coherent", choices=gen.TWIST_MODES)
    de.add_argument("--out", default=None)

    common(sub.add_parser("morita-glue", help="glue a bimodule datum"))
    common(sub.add_parser("obstruction", help="obstruction scalars of a bimodule datum"))

    pc = sub.add_parser("picard-conjugate", help="conjugate a self-equivalence datum")
    pc.add_argument("datum", help="bimodule datum file (the conjugator)")
    pc.add_argument("self_datum", help="self-equivalence bimodule datum file")
    pc.add_argument("--tol", default=None, help=TOL_HELP)
    pc.add_argument("--out", default=None)

    g = sub.add_parser("gen", help="emit a seeded random instance")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--kind", default="gluing", choices=gen.KINDS)
    g.add_argument("--mode", default="coherent", choices=gen.TWIST_MODES)
    g.add_argument("--phases", default=None,
                   help='JSON list of [i, j, re, im] prescribed phases')
    g.add_argument("--out", default=None)

    s = sub.add_parser("suite", help="run the full acceptance battery")
    s.add_argument("--tol", default=None,
                   help="override every criterion's tolerance (default: MODGLUE_TOL, "
                        "else each its own)")
    s.add_argument("--trials", type=int, default=None,
                   help="override every criterion's trial count (default: each its own)")
    s.add_argument("--out", default=None)
    return p


_COMMANDS = {
    "validate": cmd_validate,
    "pullapart": cmd_pullapart,
    "glue": cmd_glue,
    "roundtrip": cmd_roundtrip,
    "descent": cmd_descent,
    "morita-glue": cmd_morita_glue,
    "obstruction": cmd_obstruction,
    "picard-conjugate": cmd_picard_conjugate,
    "gen": cmd_gen,
    "suite": cmd_suite,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_numbers(args)
        return _COMMANDS[args.command](args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidInputError, ModelViolationError, NotAModuleMapError, NotAMorphismError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RankAmbiguityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANK_AMBIGUOUS


if __name__ == "__main__":
    sys.exit(main())
