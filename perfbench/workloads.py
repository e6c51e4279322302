"""The three workloads: inputs built at set-up, one timed call per item, and
the checks on every output.

Each workload is driven as a closed loop: one client, items run one after
another, each started only after the previous one finished.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import time

import numpy as np

from modglue import hmod, serial
from modglue.rng import Rng

import ladder

glue_mod = importlib.import_module("modglue.glue")  # modglue.glue is the function
cli = importlib.import_module("modglue.cli")
suite = importlib.import_module("modglue.suite")

#: Residual allowed in the benchmark's own output checks, relative to the
#: size of the vector checked.
CHECK_TOL = 1e-9

#: Trials per descent_identities_check call, as criterion 4 of the suite uses.
DESCENT_TRIALS = 4


class Item:
    """One unit of work: a timed call plus the check of its output."""

    def __init__(self, key, run, check):
        self.key = key  # rung or criterion name, for per-rung reporting
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# glue-ladder


def _glue_item(rung, seed):
    datum = ladder.build_datum(rung, seed)
    text = serial.canonical_dumps(serial.instance_to_json(datum))
    rng = Rng(seed ^ 0x9E37)
    # coefficients for the largest glued module this rung can have
    coeffs = [rng.gauss_matrix(m, rung.dim) for m in rung.mult]
    expected = ladder.expected_glued_mult(rung)

    def run():
        D = serial.parse_instance(json.loads(text))
        validation = glue_mod.validate_gluing_datum(D)
        gd = glue_mod.glue(D)
        x = hmod.vector(gd.module, [c[:g] for c, g in zip(coeffs, gd.module.mult)])
        parts = gd.embed(x)
        back = gd.project(parts)
        return D, validation, gd, x, parts, back

    def check(out):
        D, validation, gd, x, parts, back = out
        if not validation.required_ok:
            return False
        if expected is not None and gd.module.mult != expected:
            return False
        scale = max(1.0, hmod.vec_norm(x))
        if hmod.vec_norm(back - x) > CHECK_TOL * scale:
            return False
        for (i, j) in D.cover.pairs(include_diagonal=False):
            for k in D.cover.overlap(i, j):
                diff = parts[i].block(k) - D.zeta_block(i, j, k) @ parts[j].block(k)
                if np.abs(diff).max(initial=0.0) > CHECK_TOL * scale:
                    return False
        return True

    return Item(rung.key, run, check)


def _descent_item(rung, seed):
    datum = ladder.build_datum(rung, seed)

    def run():
        return glue_mod.descent_identities_check(datum, trials=DESCENT_TRIALS, seed=seed)

    return Item(rung.key, run, lambda report: report.passed)


class LadderWorkload:
    """A fixed ladder of items; a pass runs every item once."""

    def __init__(self, make_item, rungs):
        self._make_item = make_item
        self._rungs = rungs
        self.items = []

    def setup(self, seed):
        """Build every input, warm up on the smallest item, then shuffle.

        Shuffling spreads each rung's items over the whole pass, so a slow
        moment of the machine does not land on one rung alone and move the
        percentiles."""
        self.items = [self._make_item(rung, ladder.item_seed(seed, n))
                      for n, rung in enumerate(self._rungs)]
        warm = self.items[0]
        if not warm.check(warm.run()):
            raise RuntimeError(f"warm-up item {warm.key} failed its check")
        random.Random(seed).shuffle(self.items)

    def run_pass(self, on_item=None):
        """Run every item once; return (latencies_s, keys, attempted, failed)."""
        latencies, failed = [], 0
        for item in self.items:
            if on_item:
                on_item(item.key)
            t0 = time.perf_counter()
            try:
                out = item.run()
            except Exception:
                latencies.append(time.perf_counter() - t0)
                failed += 1
                continue
            latencies.append(time.perf_counter() - t0)
            try:
                ok = item.check(out)
            except Exception:
                ok = False
            failed += not ok
        return latencies, [it.key for it in self.items], len(self.items), failed


# ---------------------------------------------------------------------------
# suite


class SuiteWorkload:
    """cli.main(["suite", "--out", file]) with the default trials.

    An item is one criterion; its latency is the wall_time the criterion
    reports in its --out line.
    """

    def __init__(self, out_dir, trials=None):
        self._out = os.path.join(out_dir, f"suite-{os.getpid()}.jsonl")
        # --trials is passed only for smoke runs: an explicit 200 would mean
        # "defaults" to the CLI, and --tol is ignored by the suite command.
        self._argv = ["suite", "--out", self._out]
        if trials is not None:
            self._argv += ["--trials", str(trials)]

    def setup(self, seed):
        """Nothing to generate; the criteria draw their own seeded inputs.
        Warm up on criterion 7 (a fixed instance) and two phi round trips."""
        del seed  # the suite's seeds are fixed by its criteria
        cli.build_parser()
        for rep in (suite.criterion_7_degeneracy_witness(),
                    suite.criterion_1_round_trip_phi(trials=2)):
            if not rep.passed:
                raise RuntimeError(f"warm-up {rep.check} failed")

    def run_pass(self, on_item=None):
        del on_item
        n = len(suite.ALL_CRITERIA)
        try:
            with contextlib.redirect_stdout(io.StringIO()):  # the PASS/FAIL lines
                code = cli.main(self._argv)
            with open(self._out) as fh:
                lines = [json.loads(line) for line in fh if line.strip()]
        except Exception:
            return [], [], n, n
        finally:
            if os.path.exists(self._out):
                os.remove(self._out)
        latencies = [float(d["wall_time"]) for d in lines]
        keys = [d["check"] for d in lines]
        failed = sum(not d["pass"] for d in lines) + max(0, n - len(lines))
        if code != 0 and failed == 0:
            failed = 1  # a nonzero exit with every line passing is still a failure
        return latencies, keys, n, failed


def make(name, out_dir, smoke=False):
    if name == "glue-ladder":
        return LadderWorkload(_glue_item, ladder.SMOKE_GLUE_LADDER if smoke else ladder.GLUE_LADDER)
    if name == "descent-ladder":
        return LadderWorkload(_descent_item, ladder.SMOKE_DESCENT_LADDER if smoke else ladder.DESCENT_LADDER)
    if name == "suite":
        return SuiteWorkload(out_dir, trials=2 if smoke else None)
    raise ValueError(f"unknown workload {name!r}")
