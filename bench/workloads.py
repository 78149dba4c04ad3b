"""Seeded workload generators for the momentbounds benchmark.

Every problem is built from explicit atomic measures, so it is moment-feasible
by construction. The atoms stay on the benchmark's side: the program only sees
the problem file (priors and raw moments) or the CLI arguments of a sweep.

A workload is a sequence of *rounds*, each the same mix of problem kinds with
fresh inputs; a run repeats rounds until its time is up.

Every operation a workload issues is one the program answers today: a run
measures answers, and its failure count is 0 on every seed. The inputs on which
the program fails today (the translation defect of two-moment bounds, n = 3
witnesses, n >= 4 witnesses, even n >= 4 bounds) are recorded by the behaviour
snapshots (snapshot.py) instead, where a fix shows as a difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

WORKLOADS = ("sweep", "low-order", "high-order")

#: a sweep round is one seeded sweep per --mu2 piece of the default grid
#: 0:25:0.1, 25 rows (about 50 ms) each: a run draws some 400 sweeps, so
#: what a run's inputs cost varies little with the seed.
SWEEP_MU2_PIECES = tuple(f"{2.5 * k:g}:{2.5 * k + 2.4:g}:0.1" for k in range(9)) + ("22.5:25:0.1",)
#: every SWEEP_EQUAL_EVERY-th piece has equal priors (closed-form shift), the
#: others seeded unequal ones (numeric shift). One in three, not one in two:
#: the two kinds cost about 1:2, and with a 50/50 mix the median latency sits
#: between them and flips from run to run.
SWEEP_EQUAL_EVERY = 3

#: largest offset/scale of an n = 3 low-order problem. The program receives
#: raw moments in double precision, which pin a class's variance only to about
#: 2.2e-16 * 2 * (offset/scale)^2 relative: 4e-4 at 1e6, but the whole
#: variance beyond 1e7. Past that the moments no longer describe the
#: generating atoms, and no answer could be checked against them.
MAX_OFFSET_OVER_SCALE = 1e6

LOW_ORDER_G = (2, 3, 5)
#: the n = 5 bounds are the high-order answers of today's program: n = 4 and
#: n = 6 bounds of this shape raise RANK_MISMATCH, and no n >= 4 witness is
#: supported.
HIGH_ORDER_N = 5
#: lattice spacings of the two high-order classes.
HIGH_ORDER_STEPS = (1, 2)
HIGH_ORDER_SHAPE_SEED = 2011


@dataclass(frozen=True)
class Problem:
    """One bound/witness problem with the atoms that generated it."""

    priors: tuple[float, ...]
    atoms: tuple[tuple[tuple[float, float], ...], ...]  # per class: (x, mass)
    n_moments: int

    @cached_property
    def moments(self) -> list[list[float]]:
        """Raw moments 1..n of each class, as the program receives them."""
        return [[math.fsum(w * x ** j for x, w in cls) for j in range(1, self.n_moments + 1)]
                for cls in self.atoms]

    def to_json(self) -> dict:
        return {"classes": [{"prior": p, "moments": m}
                            for p, m in zip(self.priors, self.moments)]}


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a CLI argument list plus what to check."""

    kind: str                 # "sweep", "bound" or "witness"
    argv: tuple[str, ...]     # problem path is filled in by the runner
    problem: Problem | None = None
    snapshot: str | None = None  # name of a stored output the result must equal


def _priors(rng: np.random.Generator, G: int, equal: bool) -> tuple[float, ...]:
    if equal:
        return tuple([1.0 / G] * G)
    p = rng.dirichlet(np.full(G, 2.0))
    p = np.clip(p, 0.02, None)
    p = p / p.sum()
    head = [float(v) for v in p[:-1]]
    return tuple(head + [1.0 - math.fsum(head)])


def low_order_problem(rng: np.random.Generator, G: int, n: int, equal_priors: bool) -> Problem:
    """Classes drawn from one shared pool of support points offset + scale * z.

    Scales are 10^U(-3,3). For n = 3, offsets are 10^U(0,6) with
    offset/scale at most MAX_OFFSET_OVER_SCALE. For n = 2 the offset is
    scale * U(-1,1): two-moment verdicts are wrong at some offsets of 10 to
    10^5 scales (the translation defect), so an n = 2 problem sits within a
    few of its scales of the origin. Class i puts Dirichlet(3) masses on 6 to
    8 consecutive pool points starting at 3i; neighbouring classes share
    points, so the generating measures overlap and their exact Bayes error
    is positive.
    """
    per_class = int(rng.integers(6, 9))
    log_scale = rng.uniform(-3.0, 3.0)
    if n == 2:
        offset = 10.0 ** log_scale * rng.uniform(-1.0, 1.0)
    else:
        offset = 10.0 ** rng.uniform(
            0.0, min(6.0, log_scale + math.log10(MAX_OFFSET_OVER_SCALE)))
    size = per_class + 3 * (G - 1)
    z = np.arange(size, dtype=float) + rng.uniform(-0.3, 0.3, size)
    z = (z - z.mean()) / z.std()
    pool = offset + 10.0 ** log_scale * z
    atoms = []
    for i in range(G):
        w = rng.dirichlet(np.full(per_class, 3.0))
        atoms.append(tuple((float(x), float(m))
                           for x, m in zip(pool[3 * i:3 * i + per_class], w)))
    return Problem(_priors(rng, G, equal_priors), tuple(atoms), n)


def lattice_classes(rng: np.random.Generator) -> tuple:
    """8 atoms per class, Dirichlet(3) masses, on one integer lattice.

    The classes' spacings are HIGH_ORDER_STEPS in random order, each class
    starting three of its spacings after the previous one: neighbours share
    lattice points and their means are one to three standard deviations
    apart. The lattice sits at unit scale, its middle within one unit of the
    origin.
    """
    lattices = []
    start = 0
    for step in rng.permutation(HIGH_ORDER_STEPS):
        lattices.append((start + int(step) * np.arange(8, dtype=float),
                         rng.dirichlet(np.full(8, 3.0))))
        start += 3 * int(step)
    middle = 0.5 * (min(pts[0] for pts, _ in lattices) + max(pts[-1] for pts, _ in lattices))
    shift = rng.uniform(-1.0, 1.0) - middle
    return tuple(tuple((float(x + shift), float(m)) for x, m in zip(pts, w))
                 for pts, w in lattices)


def high_order_round(rng: np.random.Generator) -> list[Op]:
    """One n = HIGH_ORDER_N bound on two classes with Dirichlet priors.

    The class shape is fixed (drawn from HIGH_ORDER_SHAPE_SEED); the seed
    draws the priors, which change neither the work (about 20,850
    feasibility tests) nor the verdict. A bound takes 2 to 3 s, so a run
    makes only about a dozen. With shapes drawn per seed, one n = 5 bound
    took 1.9 to 5.8 s, and n = 4 problems failed in milliseconds, failed
    after seconds or answered: the seed-to-seed spread has to come from the
    program, not from which shape a seed happened to draw.
    """
    atoms = lattice_classes(np.random.default_rng(HIGH_ORDER_SHAPE_SEED))
    return [Op("bound", ("bound",), Problem(_priors(rng, 2, False), atoms, HIGH_ORDER_N))]


def _num(x: float) -> str:
    return repr(float(x))


def sweep_round(rng: np.random.Generator) -> list[Op]:
    """One sweep per SWEEP_MU2_PIECES piece, each with its own seeded
    sigma1^2 and sigma2^2."""
    ops = []
    for k, mu2 in enumerate(SWEEP_MU2_PIECES):
        s1 = 10.0 ** rng.uniform(-1.0, 1.0)
        s2 = 10.0 ** rng.uniform(-1.0, 1.5)
        if k % SWEEP_EQUAL_EVERY == 1:
            priors = "0.5,0.5"
        else:
            p1 = round(float(rng.uniform(0.1, 0.9)), 3)
            priors = f"{p1},{round(1.0 - p1, 3)}"
        ops.append(Op("sweep", ("sweep", "--mu2", mu2, "--sigma1sq", _num(s1),
                                "--sigma2sq", _num(s2), "--priors", priors)))
    return ops


def low_order_round(rng: np.random.Generator) -> list[Op]:
    """Each G and prior kind at n = 2, run as bound then witness, then at
    n = 3 as a bound (no n = 3 witness certifies today)."""
    ops = []
    for n in (2, 3):
        for equal in (True, False):
            for G in LOW_ORDER_G:
                prob = low_order_problem(rng, G, n, equal)
                ops.append(Op("bound", ("bound",), prob))
                if n == 2:
                    ops.append(Op("witness", ("witness",), prob))
    return ops


def opening_ops(workload: str) -> list[Op]:
    """Ops run once, before the rounds: on ``sweep`` the default sweep, which
    must equal its snapshot row for row."""
    if workload == "sweep":
        return [Op("sweep", ("sweep",), snapshot="sweep_default.csv")]
    return []


def make_round(workload: str, rng: np.random.Generator) -> list[Op]:
    """The next round of ``workload``, drawn from ``rng``: the same seed
    yields the same rounds."""
    if workload == "sweep":
        return sweep_round(rng)
    if workload == "low-order":
        return low_order_round(rng)
    if workload == "high-order":
        return high_order_round(rng)
    raise ValueError(f"unknown workload {workload!r}")
