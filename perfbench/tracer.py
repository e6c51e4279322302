"""Outside-in span tracer for the traced benchmark run.

The tracer rebinds public functions of the loaded modglue modules to
wrappers that record a span per call: name, parent span, start and end.
Nothing in the library changes; uninstall() restores every binding.  Spans
stay in memory and are written out once, when the run ends.

Traps this handles:
- modglue.glue is the *function* glue (the package re-exports it), so the
  modules are fetched with importlib.import_module.
- Functions are bound under several names (``from .glue import glue`` in
  suite, cli and morita; the package's re-exports), so every binding of a
  wrapped function in every loaded modglue namespace is replaced.
- suite.run_suite iterates suite.ALL_CRITERIA, a tuple of the original
  functions, and reads ``fn.__code__`` to decide whether to pass --trials;
  the tuple is rebound and the wrapper exposes the wrapped __code__.
- GluedModule.embed/project are methods: the wrapper binds like a function.
- numlin.as_cmatrix is not wrapped: the suite calls it about 1.3 M times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter, defaultdict

# (span name, module, attribute); "Class.method" attributes wrap a method.
SPANS = (
    ("cli.main", "modglue.cli", "main"),
    *((f"suite.{name}", "modglue.suite", name) for name in (
        "criterion_1_round_trip_phi",
        "criterion_2_round_trip_epsilon",
        "criterion_3_delta_isometry",
        "criterion_4_delta_algebra",
        "criterion_5_kernels",
        "criterion_6_image_eta",
        "criterion_7_degeneracy_witness",
        "criterion_8_morita_round_trip",
        "criterion_9_picard",
        "criterion_10_oracle_agreement",
        "criterion_11_cech",
    )),
    *((f"glue.{name}", "modglue.glue", name) for name in (
        "validate_gluing_datum", "glue", "GluedModule.embed", "GluedModule.project",
        "phi_iso", "epsilon_iso", "glue_morphism", "descent_identities_check",
    )),
    *((f"tensor.{name}", "modglue.tensor", name) for name in (
        "delta_map", "epsilon_map", "lift_to_triple", "eta_minus_delta_matrix",
        "eta_minus_delta_tensor_id_matrix", "glued_tensor_subspace_basis",
        "image_eta_matrices", "pair_model_oracle_check", "triple_model_oracle_check",
    )),
    *((f"numlin.{name}", "modglue.numlin", name) for name in (
        "kernel_basis", "orth_basis", "subspace_gap",
    )),
    *((f"morita.{name}", "modglue.morita", name) for name in (
        "glue_bimodules", "validate_bimodule", "validate_bimodule_datum",
        "bimodule_data_isomorphic", "picard_conjugate", "obstruction_2cocycle",
    )),
    ("serial.parse_instance", "modglue.serial", "parse_instance"),
    ("gen.random_gluing_instance", "modglue.gen", "random_gluing_instance"),
    ("gen.random_module_instance", "modglue.gen", "random_module_instance"),
)

#: (span, direct parent span, metric name): time of a span under one caller.
PARENT_SPLITS = (
    ("numlin.kernel_basis", "glue.glue", "numlin.kernel_basis.in_glue.total_s"),
    ("numlin.kernel_basis", "glue.descent_identities_check", "numlin.kernel_basis.in_descent.total_s"),
    ("numlin.subspace_gap", "glue.descent_identities_check", "numlin.subspace_gap.in_descent.total_s"),
)

#: Peak array sizes computed from shapes (complex128, 16 bytes an entry).
BYTE_COUNTS = ("glue.constraint_bytes", "glue.guard_bytes", "tensor.descent_matrix_bytes")

_ENTRY = 16


def per_layer_metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for name, _, _ in SPANS:
        if not name.startswith("suite."):
            out.append((f"{name}.calls", "count"))
        out += [(f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
    out += [(metric, "s") for _, _, metric in PARENT_SPLITS]
    out += [(name, "B") for name in BYTE_COUNTS]
    out += [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return out


class _Wrapped:
    """Callable recording a span around fn."""

    def __init__(self, tracer, name, fn):
        functools.update_wrapper(self, fn)
        self.__code__ = fn.__code__  # suite.run_suite inspects it
        self._tracer, self._name, self._fn = tracer, name, fn

    def __call__(self, *args, **kwargs):
        return self._tracer.call(self._name, self._fn, args, kwargs)

    def __get__(self, obj, objtype=None):
        return self if obj is None else types.MethodType(self, obj)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, tag]
        self.tag = ""  # the item being run, set by the benchmark loop
        self._stack = []  # [span index, child seconds]
        self._undo = []
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.split = defaultdict(float)  # (name, parent name) -> seconds
        self.by_tag = defaultdict(float)  # (name, tag) -> seconds
        self.bytes = dict.fromkeys(BYTE_COUNTS, 0)
        self._constraint_shapes = Counter()

    # -- installation -----------------------------------------------------

    def install(self):
        for mod in ("modglue.cli", "modglue.suite", "modglue.tensor", "modglue.serial"):
            importlib.import_module(mod)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "modglue" or n.startswith("modglue.")]
        wrapped = {}
        for name, modname, attr in SPANS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._rebind(cls, meth, _Wrapped(self, name, cls.__dict__[meth]))
                continue
            orig = getattr(mod, attr)
            wrapped[orig] = _Wrapped(self, name, orig)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._rebind(ns, key, wrapped[orig])
        suite = importlib.import_module("modglue.suite")
        self._rebind(suite, "ALL_CRITERIA",
                     tuple(wrapped.get(fn, fn) for fn in suite.ALL_CRITERIA))

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- recording --------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        parent_name = self.spans[parent[0]][0] if parent else None
        self._count_bytes_before(name, parent_name, args)
        index = len(self.spans)
        span = [name, parent[0] if parent else -1, 0.0, 0.0, self.tag]
        self.spans.append(span)
        frame = [index, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            span[2], span[3] = t0, t1
            if parent:
                parent[1] += dur
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[1]
            self.split[(name, parent_name)] += dur
            self.by_tag[(name, self.tag)] += dur
        if name == "tensor.eta_minus_delta_tensor_id_matrix":
            self._peak("tensor.descent_matrix_bytes", result.nbytes)
        return result

    def _count_bytes_before(self, name, parent_name, args):
        """Constraint C and Kronecker guard sizes inside glue.glue.

        glue builds one C per label, of shape ((c-1)*s, s) for c member sets
        with multiplicities summing to s, and passes it to kernel_basis; any
        further kernel_basis call under glue is the kron(C, I_n) guard, whose
        SVD also allocates a full rows x rows U.
        """
        if name == "glue.glue":
            D = args[0]
            self._constraint_shapes.clear()
            for k in D.algebra.labels:
                members = D.cover.members(k)
                s = sum(D.mult_at(i, k) for i in members)
                shape = ((len(members) - 1) * s, s)
                self._constraint_shapes[shape] += 1
                self._peak("glue.constraint_bytes", shape[0] * shape[1] * _ENTRY)
        elif name == "numlin.kernel_basis" and parent_name == "glue.glue":
            rows, cols = args[0].shape
            if self._constraint_shapes[(rows, cols)] > 0:
                self._constraint_shapes[(rows, cols)] -= 1
            else:
                self._peak("glue.guard_bytes", (rows * cols + rows * rows) * _ENTRY)

    def _peak(self, key, value):
        self.bytes[key] = max(self.bytes[key], int(value))

    # -- results ----------------------------------------------------------

    def metrics(self, wall_s, untraced_wall_s):
        """Per-layer metric values, keyed as per_layer_metric_units()."""
        values = {}
        for name, _, _ in SPANS:
            if not name.startswith("suite."):
                values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.total_s"] = self.total[name]
            values[f"{name}.self_s"] = self.self_time[name]
        for span, parent, metric in PARENT_SPLITS:
            values[metric] = self.split[(span, parent)]
        values.update(self.bytes)
        values["trace.wall_s"] = wall_s
        values["trace.overhead_s"] = wall_s - untraced_wall_s
        return values

    def write(self, path):
        """Write every span (name, parent index, start, end, item tag)."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "tag"],
                       "spans": self.spans}, fh, separators=(",", ":"))
