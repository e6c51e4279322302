"""JSON file formats for instances and reports.

The schema is minimal and language-neutral: algebras are block dimension
lists, covers are lists of 0-based label lists, complex scalars are [re, im]
pairs, and matrices are lists of rows (row-major).  Transition lists may omit
mirrors: an unlisted (j, i) defaults to the adjoint of the listed (i, j), and
diagonal transitions are always the identity.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .cstar import ClosedCover, FdCStarAlgebra, algebra, cover, restrict_algebra
from .errors import FormatError, InvalidInputError
from .gen import GluingInstance, ModuleInstance
from .glue import GluingDatum, check_transition_key, label_mults, make_gluing_datum
from .hmod import HilbertModule, module
from .morita import (
    BimoduleGluingDatum,
    EquivalenceBimodule,
    check_twist_count,
    make_bimodule_datum,
)


def matrix_to_json(M: np.ndarray) -> list:
    """Rows of [re, im] pairs, read from the complex128 entries as float pairs."""
    return np.ascontiguousarray(M, dtype=np.complex128)[..., None].view(np.float64).tolist()


def _is_pair(z) -> bool:
    """Whether z is [re, im]: two JSON numbers, ints or floats (true/false,
    Python bools, are not)."""
    try:
        return len(z) == 2 and {type(x) for x in z} <= {int, float}
    except TypeError:
        return False


def matrix_from_json(data, shape) -> np.ndarray:
    """Matrix of the given shape from rows of [re, im] pairs.  Any other
    entry is a FormatError naming the first one.  The entries are checked
    as one flat list, by the set of their lengths and the set of their
    values' types, and converted as one array."""
    if len(data) != shape[0]:
        raise FormatError(f"matrix has {len(data)} rows, expected {shape[0]}")
    for r, row in enumerate(data):
        if len(row) != shape[1]:
            raise FormatError(f"matrix row {r} has {len(row)} entries, expected {shape[1]}")
    entries = list(itertools.chain.from_iterable(data))
    try:
        values = list(itertools.chain.from_iterable(entries))
        pairs = set(map(len, entries)) <= {2} and set(map(type, values)) <= {int, float}
    except TypeError:  # an entry that is no list
        pairs = False
    if not pairs:
        t, z = next((t, z) for t, z in enumerate(entries) if not _is_pair(z))
        r, c = divmod(t, shape[1])
        raise FormatError(f"matrix entry ({r}, {c}) is {z!r}, not a [re, im] pair of numbers")
    return np.array(values, dtype=np.float64).view(np.complex128).reshape(shape)


def _int(x, name: str) -> int:
    """x, if it is a JSON integer; anything else (3.0, true, "3") is a
    FormatError naming the field."""
    if type(x) is not int:
        raise FormatError(f"{name} is {x!r}, not an integer")
    return x


def _ints(data, name: str) -> tuple:
    """_int of each entry of a list, entry t named name[t]."""
    return tuple(_int(x, f"{name}[{t}]") for t, x in enumerate(data))


def _twists_from_json(data, left: FdCStarAlgebra, name: str = "bimodule") -> tuple:
    """One twist per block of left, each n x n for the block's n."""
    check_twist_count(data, left, name)
    return tuple(matrix_from_json(t, (n, n)) for t, n in zip(data, left.block_dims))


def algebra_to_json(A: FdCStarAlgebra) -> dict:
    return {"blocks": [int(n) for n in A.block_dims]}


def algebra_from_json(obj) -> FdCStarAlgebra:
    return algebra(_ints(obj["blocks"], "algebra.blocks"))


def cover_to_json(cov: ClosedCover) -> dict:
    return {"sets": [sorted(int(k) for k in s) for s in cov.sets]}


def cover_from_json(obj, prim_size: int) -> ClosedCover:
    return cover(prim_size, [frozenset(_ints(s, f"cover.sets[{n}]")) for n, s in enumerate(obj["sets"])])


def _transitions_to_json(D: GluingDatum) -> list:
    """Transition entries of a gluing datum with i < j, in D.entries() order:
    mirrors and the identities on the diagonal are implied."""
    return [{"i": i, "j": j, "k": int(k), "matrix": matrix_to_json(M)}
            for (i, j, k, M) in D.entries() if i < j]


def _transitions_from_json(entries, cov: ClosedCover, size, name: str) -> list:
    """(i, j, label, matrix) of each transition entry of the list name,
    size(i, label) the multiplicity of set i at the label; each key passes
    check_transition_key before size reads it."""
    out = []
    for n, e in enumerate(entries):
        i, j, k = (_int(e[key], f"{name}[{n}].{key}") for key in "ijk")
        check_transition_key(cov, i, j, k)
        out.append((i, j, k, matrix_from_json(e["matrix"], (size(i, k), size(j, k)))))
    return out


def gluing_to_json(D: GluingDatum) -> dict:
    return {
        "kind": "gluing",
        "algebra": algebra_to_json(D.algebra),
        "cover": cover_to_json(D.cover),
        "modules": [{"mult": [int(m) for m in mod.mult]} for mod in D.modules],
        "zeta": _transitions_to_json(D),
    }


def _one_per_set(data, cov: ClosedCover, name: str) -> list:
    """The list name of a datum file, which must hold one entry per cover set."""
    if len(data) != cov.num_sets:
        raise FormatError(f"{name} has {len(data)} entries; the cover has {cov.num_sets} sets")
    return data


def gluing_from_json(obj) -> GluingDatum:
    A = algebra_from_json(obj["algebra"])
    cov = cover_from_json(obj["cover"], A.num_blocks)
    set_mults = []  # {label: multiplicity} of each cover set
    for i, spec in enumerate(_one_per_set(obj["modules"], cov, "modules")):
        mult = _ints(spec["mult"], f"modules[{i}].mult")
        if len(mult) != len(cov.sets[i]):
            raise FormatError(f"module {i} multiplicity length mismatch")
        if min(mult, default=0) < 0:
            raise InvalidInputError("multiplicities must be >= 0")
        set_mults.append(dict(zip(sorted(cov.sets[i]), mult)))
    entries = _transitions_from_json(obj.get("zeta", []), cov, lambda i, k: set_mults[i][k], "zeta")
    return make_gluing_datum(A, cov, label_mults(A, cov, set_mults), entries)


def module_instance_to_json(A: FdCStarAlgebra, cov: ClosedCover, X: HilbertModule) -> dict:
    return {
        "kind": "module",
        "algebra": algebra_to_json(A),
        "cover": cover_to_json(cov),
        "module": {"mult": [int(m) for m in X.mult]},
    }


def module_instance_from_json(obj) -> ModuleInstance:
    A = algebra_from_json(obj["algebra"])
    cov = cover_from_json(obj["cover"], A.num_blocks)
    return ModuleInstance(A, cov, module(A, _ints(obj["module"]["mult"], "module.mult")))


def bimodule_to_json(M: EquivalenceBimodule) -> dict:
    return {
        "kind": "bimodule",
        "left_blocks": [int(n) for n in M.left_algebra.block_dims],
        "right_blocks": [int(n) for n in M.right_algebra.block_dims],
        "twist": [matrix_to_json(u) for u in M.twist],
    }


def bimodule_from_json(obj) -> EquivalenceBimodule:
    left = algebra(_ints(obj["left_blocks"], "left_blocks"))
    right = algebra(_ints(obj["right_blocks"], "right_blocks"))
    return EquivalenceBimodule(left, right, _twists_from_json(obj["twist"], left))


def bimodule_datum_to_json(D: BimoduleGluingDatum) -> dict:
    return {
        "kind": "bimodule_datum",
        "left_blocks": [int(n) for n in D.left_algebra.block_dims],
        "right_blocks": [int(n) for n in D.right_algebra.block_dims],
        "cover": cover_to_json(D.cover),
        "bimodules": [
            {"twist": [matrix_to_json(D.twist_at(i, k)) for k in D.left_algebra.labels if k in F]}
            for i, F in enumerate(D.cover.sets)
        ],
        "nu": _transitions_to_json(D.right),
    }


def bimodule_datum_from_json(obj) -> BimoduleGluingDatum:
    left = algebra(_ints(obj["left_blocks"], "left_blocks"))
    right = algebra(_ints(obj["right_blocks"], "right_blocks"))
    cov = cover_from_json(obj["cover"], left.num_blocks)
    bims = []
    for i, spec in enumerate(_one_per_set(obj["bimodules"], cov, "bimodules")):
        subL = restrict_algebra(left, cov.sets[i])
        subR = restrict_algebra(right, cov.sets[i])
        twist = _twists_from_json(spec["twist"], subL, f"bimodule {i}")
        bims.append(EquivalenceBimodule(subL, subR, twist))
    entries = _transitions_from_json(
        obj.get("nu", []), cov,
        lambda i, k: bims[i].mult[bims[i].left_algebra.position(k)], "nu",
    )
    return make_bimodule_datum(left, right, cov, tuple(bims), entries)


def instance_to_json(obj) -> dict:
    """Serialize any supported instance object, tagged by kind."""
    if isinstance(obj, GluingDatum):
        return gluing_to_json(obj)
    if isinstance(obj, BimoduleGluingDatum):
        return bimodule_datum_to_json(obj)
    if isinstance(obj, EquivalenceBimodule):
        return bimodule_to_json(obj)
    if isinstance(obj, GluingInstance):
        return gluing_to_json(obj.datum)
    if isinstance(obj, ModuleInstance):
        return module_instance_to_json(obj.algebra, obj.cover, obj.module)
    raise FormatError(f"cannot serialize object of type {type(obj).__name__}")


def parse_instance(obj):
    """Inverse of instance_to_json, dispatching on the kind tag."""
    try:
        kind = obj["kind"]
    except (TypeError, KeyError):
        raise FormatError("instance file must be an object with a 'kind' tag") from None
    try:
        if kind == "gluing":
            return gluing_from_json(obj)
        if kind == "module":
            return module_instance_from_json(obj)
        if kind == "bimodule":
            return bimodule_from_json(obj)
        if kind == "bimodule_datum":
            return bimodule_datum_from_json(obj)
    except (FormatError, InvalidInputError):
        raise
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed {kind} instance: {exc}") from exc
    raise FormatError(f"unknown instance kind {kind!r}")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_instance_file(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return parse_instance(obj)


@dataclass
class Report:
    """One machine-readable verdict line."""

    check: str
    passed: bool
    max_residual: float
    tol: float
    fingerprint: str
    wall_time: float
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "pass": bool(self.passed),
            "max_residual": float(self.max_residual),
            "tol": float(self.tol),
            "fingerprint": self.fingerprint,
            "wall_time": round(float(self.wall_time), 6),
        }
        if self.details:
            out["details"] = self.details
        return out

    def line(self) -> str:
        return canonical_dumps(self.to_json())
