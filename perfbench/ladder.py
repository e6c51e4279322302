"""Seeded ladders of gluing data, built past GenConfig's caps.

Only public constructors are used (cstar.algebra, cstar.cover, rng.Rng,
gen.random_gluing_datum with an explicit multiplicity profile), so GenConfig
keeps its caps; GenConfig only supplies the twist mode.  Every instance is a
pure function of (workload seed, item index): the same seed gives the same
ladder, and the shapes of a rung do not depend on the seed, so runs with
different seeds do the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

from modglue import cstar, gen
from modglue.rng import Rng

#: The degenerate twisted witness: transitions 1, 1 and -1 on the lowest
#: shared block of three full sets.  z_0 = z_1 = z_2 = -z_0 forces the glued
#: multiplicity of that block to 0.
WITNESS_PHASES = ((0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0), (0, 2, -1.0, 0.0))


@dataclass(frozen=True)
class Rung:
    """One ladder step: block count, block dim, cover sets, multiplicity
    profile, share of labels per set, and twist mode."""

    labels: int
    dim: int
    sets: int
    mult: tuple
    density: float
    mode: str

    @property
    def key(self) -> str:
        cover = "full" if self.density >= 1.0 else f"d{self.density:g}"
        profile = "-".join(str(m) for m in self.mult)
        return f"{self.labels}x{self.dim}/{self.sets}sets/m{profile}/{cover}/{self.mode}"


def profile(labels: int, mult: int, zero_last: bool = False) -> tuple:
    """Uniform multiplicity profile, optionally with the last label at 0."""
    return tuple(0 if zero_last and k == labels - 1 else mult for k in range(labels))


def density_cover(rng: Rng, labels: int, sets: int, density: float) -> cstar.ClosedCover:
    """Each label lies in c = round(density * sets) sets, consecutive in a
    cyclic layout whose starts are spread evenly, so each set holds about
    density * labels labels; density 1 is full overlap.  The seed permutes
    the sets only: every label keeps c member sets, so the constraint shapes,
    and with them the work, are the same for every seed."""
    c = min(sets, max(1, round(density * sets)))
    perm = list(range(sets))
    for a in range(sets - 1, 0, -1):  # Fisher-Yates on the portable stream
        b = rng.randint(0, a)
        perm[a], perm[b] = perm[b], perm[a]
    members = [set() for _ in range(sets)]
    for k in range(labels):
        start = k * sets // labels
        for t in range(c):
            members[perm[(start + t) % sets]].add(k)
    return cstar.cover(labels, [frozenset(s) for s in members])


def build_datum(rung: Rung, seed: int):
    """The gluing datum of one rung, drawn from Rng(seed)."""
    rng = Rng(seed)
    alg = cstar.algebra((rung.dim,) * rung.labels)
    if rung.mode == "prescribed_phases":
        cov = cstar.cover(rung.labels, [frozenset(range(rung.labels))] * 3)
        cfg = gen.GenConfig(seed=seed, twist_mode=rung.mode, phases=WITNESS_PHASES)
    else:
        cov = density_cover(rng, rung.labels, rung.sets, rung.density)
        cfg = gen.GenConfig(seed=seed, twist_mode=rung.mode)
    return gen.random_gluing_datum(rng, alg, cov, cfg, mult=rung.mult)


def expected_glued_mult(rung: Rung):
    """Glued multiplicities known in advance: the profile for coherent data,
    the profile with block 0 killed for the witness; None when twisted at
    random (the glued module then depends on the drawn unitaries)."""
    if rung.mode == "coherent":
        return rung.mult
    if rung.mode == "prescribed_phases":
        return (0,) + rung.mult[1:]
    return None


def alternate(labels, dim, sets, mult, density, count, zero_last=False):
    """count rungs of one shape, alternating coherent and random-unitary."""
    modes = ("coherent", "random_unitary")
    prof = profile(labels, mult, zero_last)
    return [Rung(labels, dim, sets, prof, density, modes[i % 2]) for i in range(count)]


def witness(labels, dim, mult, count):
    return [Rung(labels, dim, 3, profile(labels, mult), 1.0, "prescribed_phases")] * count


# glue-ladder: 124 items.  The rungs are sized so that item_p50_ms falls in
# the middle of the 40 overhead-bound (4, 4, 4, 5) items and item_p90_ms in
# the middle of the 12 (4, 5, 5, 6) items near 80 ms, not on a boundary
# between rungs.  Densities run from sparse (each label in 0.6 of the sets)
# to full overlap, and the full-overlap (4, 8, 6, 10) rung comes once
# coherent and once twisted.
GLUE_LADDER = (
    alternate(2, 2, 3, 3, 1.0, 30)
    + alternate(3, 3, 3, 4, 0.6, 10, zero_last=True)
    + alternate(4, 4, 4, 5, 0.6, 40)
    + witness(3, 3, 4, 10)
    + alternate(5, 4, 5, 6, 0.6, 8)
    + alternate(6, 5, 5, 6, 0.6, 8, zero_last=True)
    + alternate(4, 5, 5, 6, 0.8, 12)
    + alternate(4, 8, 6, 10, 0.6, 4)
    + alternate(4, 8, 6, 10, 1.0, 2)
)

# descent-ladder: 126 items of mid-size data, coherent and twisted, sized the
# same way: item_p50_ms in the middle of the 56 items near 22 ms, item_p90_ms
# among the 26 (2, 3, 3, 4) items.  The largest rungs reach
# eta_minus_delta_tensor_id_matrix shapes of 2304x576 ((3, 3, 4, 4) at full
# overlap) and 768x384 ((4, 4, 4, 6) at density 0.6).
DESCENT_LADDER = (
    alternate(2, 2, 3, 3, 0.6, 30, zero_last=True)
    + alternate(1, 2, 2, 2, 1.0, 24)
    + alternate(2, 2, 2, 3, 1.0, 26)
    + witness(2, 2, 2, 8)
    + alternate(2, 2, 3, 3, 1.0, 6)
    + alternate(2, 3, 3, 4, 1.0, 26)
    + alternate(4, 4, 4, 6, 0.6, 4)
    + alternate(3, 3, 4, 4, 1.0, 2)
)

#: Small ladders for the self-tests' smoke runs.
SMOKE_GLUE_LADDER = alternate(2, 2, 3, 3, 1.0, 2) + alternate(3, 3, 3, 4, 0.6, 2, True) + witness(3, 2, 2, 1)
SMOKE_DESCENT_LADDER = alternate(2, 2, 2, 3, 1.0, 2) + alternate(3, 2, 3, 3, 0.6, 2, True) + witness(2, 2, 2, 1)


def item_seed(workload_seed: int, index: int) -> int:
    """Distinct, reproducible stream per item."""
    return workload_seed * 1_000_003 + index
