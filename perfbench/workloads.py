"""Request streams of the benchmark workloads.

A workload is a finite population of CLI requests (argv lists for
``multisym.cli.main``) split into cells.  One *round* takes ``take``
requests from every cell and runs them in one fresh process, in a seeded
order.  A run sends the workload's first ``rounds`` rounds, each of them
several times (see ``run.py``).  Within a cell the seed fixes a shuffled
cycle, so successive rounds walk through the whole cell before repeating a
request; an *ordered* cell keeps its own order instead.  The seed then
interleaves the cells.  Every round of a workload therefore has the same
composition (how many requests of each kind), which keeps run-to-run
spread low, while the seed still decides which requests are sent and in
which order, and so how much work neighbouring requests share through the
library's caches.

The population is finite so that every request the benchmark can send has
a stored reference digest of its output (see ``reference.json``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

# The member workload's sums of products come from a fixed pool, generated
# once from this seed; the run's --seed only chooses among them.
POOL_SEED = 20250618
SUMS_PER_CELL = 24


@dataclass(frozen=True)
class Cell:
    name: str
    requests: tuple[tuple[str, ...], ...]
    take: int
    # send the requests in the order given, not in a seeded one
    ordered: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    # primes whose polarization closed form the requests validate on first
    # use; set-up validates them before the first request
    setup_primes: tuple[int, ...]
    cells: tuple[Cell, ...]
    # distinct rounds in a run: together they hold at least 100 requests
    # and, where the round time allows, every request of the population
    rounds: int

    @property
    def round_size(self) -> int:
        return sum(c.take for c in self.cells)

    def population(self) -> list[tuple[str, ...]]:
        return [argv for c in self.cells for argv in c.requests]


def support(t) -> int:
    return sum(1 for a in t if a)


def _fmt(t) -> str:
    return "(" + ",".join(str(a) for a in t) + ")"


def normalized_tuples(max_degree: int, max_len: int) -> list[tuple[int, ...]]:
    """Nonzero exponent tuples with at most `max_len` columns and degree at
    most `max_degree`, trailing zeros stripped (the acceptance sweep)."""
    out = set()
    for length in range(1, max_len + 1):
        for vec in product(range(max_degree + 1), repeat=length):
            if vec[-1] != 0 and sum(vec) <= max_degree:
                out.add(vec)
    return sorted(out)


# ---------------------------------------------------------------------------
# certify: build and independently verify p-th power certificates
# ---------------------------------------------------------------------------

def _certify(p: int, alpha) -> tuple[str, ...]:
    return ("certify", _fmt(alpha), "--pth-power", "--p", str(p),
            "--format", "json")


CERTIFY = Workload(
    name="certify",
    setup_primes=(2, 3, 5),
    cells=(
        Cell("p2", tuple(_certify(2, a) for a in normalized_tuples(6, 3)), 48),
        Cell("p3-deg3", tuple(_certify(3, a) for a in normalized_tuples(3, 3)),
             38),
        Cell("p3-deg4", tuple(_certify(3, a) for a in normalized_tuples(4, 3)
                              if sum(a) == 4 and support(a) <= 2), 24),
        Cell("p5", tuple(_certify(5, (k,)) for k in (1, 2, 3)), 6),
    ),
    rounds=1,
)


# ---------------------------------------------------------------------------
# member: the membership oracle on p-th powers and on sums of products
# ---------------------------------------------------------------------------

def _member(p: int, expr: str, width: int = 3) -> tuple[str, ...]:
    return ("member", expr, "--p", str(p), "--width", str(width),
            "--format", "json")


def _random_tuple(rng: random.Random, deg: int, ncols: int = 3):
    v = [0] * ncols
    for _ in range(deg):
        v[rng.randrange(ncols)] += 1
    while v[-1] == 0:
        v.pop()
    return tuple(v)


def _random_product(rng: random.Random, p: int, deg: int) -> str:
    # one power sum M(gamma) of any degree, the rest elementary generators
    k = rng.randint(1, deg)
    factors = ["M" + _fmt(_random_tuple(rng, k))]
    left = deg - k
    while left:
        j = rng.randint(1, min(left, p))
        factors.append("E" + _fmt(_random_tuple(rng, j)))
        left -= j
    return "*".join(sorted(factors))


def random_sum(rng: random.Random, p: int, deg: int) -> str:
    """A homogeneous sum of one or two products, or of a product and a
    bare power sum, with coefficients in 1..p-1."""
    parts = [_random_product(rng, p, deg)]
    shape = rng.randrange(3)
    if shape == 1:
        parts.append(_random_product(rng, p, deg))
    elif shape == 2:
        parts.append("M" + _fmt(_random_tuple(rng, deg)))
    terms = []
    for part in parts:
        c = rng.randint(1, p - 1)
        terms.append(part if c == 1 else f"{c}*{part}")
    return "+".join(terms)


def _sum_cell(p: int, deg: int) -> Cell:
    rng = random.Random(f"{POOL_SEED}:{p}:{deg}")
    exprs: list[str] = []
    while len(exprs) < SUMS_PER_CELL:
        e = random_sum(rng, p, deg)
        if e not in exprs:
            exprs.append(e)
    return Cell(f"sum-p{p}-d{deg}", tuple(_member(p, e) for e in exprs), 6)


MEMBER = Workload(
    name="member",
    setup_primes=(),
    cells=(
        Cell("pow-p2", tuple(_member(2, "M" + _fmt([2 * a for a in t]))
                             for t in normalized_tuples(4, 3)), 16),
        Cell("pow-p3", tuple(_member(3, "M" + _fmt([3 * a for a in t]))
                             for t in normalized_tuples(3, 3)
                             if support(t) <= 2), 18),
    ) + tuple(_sum_cell(p, d) for p in (2, 3) for d in (3, 4, 5, 6)),
    rounds=4,
)


# ---------------------------------------------------------------------------
# tables: minimal-generator tables and witness reports
# ---------------------------------------------------------------------------

def _mingens(p: int, width: int, max_degree: int) -> tuple[str, ...]:
    return ("mingens", "--p", str(p), "--width", str(width),
            "--max-degree", str(max_degree), "--format", "csv")


def _table(max_degrees) -> list[tuple[int, int]]:
    """(width, max-degree) for widths 1, 2, ... in turn, degrees from 2 up
    to the width's entry in `max_degrees`."""
    return [(w, d) for w, top in enumerate(max_degrees, 1)
            for d in range(2, top + 1)]


def _witness(d: int, n: int, p: int) -> tuple[str, ...]:
    return ("witness", "--d", str(d), "--N", str(n), "--p", str(p),
            "--format", "json")


# A prime's table is built width by width, degree by degree, as a user
# extends it, and that prime's witness reports follow it.  Each request then
# finds in the caches what its predecessors at the same prime computed,
# whatever the seed; the seed interleaves the primes, which share little.
TABLES = Workload(
    name="tables",
    setup_primes=(2, 3),
    cells=(
        Cell("p2", tuple(_mingens(2, w, d)
                         for w, d in _table((6, 6, 6, 4, 3, 3, 2)))
             + tuple(_witness(d, n, 2) for d, n in ((1, 2), (1, 3), (2, 3))),
             26, ordered=True),
        Cell("p3", tuple(_mingens(3, w, d)
                         for w, d in _table((6, 6, 4, 3, 2, 2)))
             + (_witness(1, 2, 3),), 18, ordered=True),
        Cell("p5", tuple(_mingens(5, w, d) for w, d in _table((5, 3, 2, 2))),
             8, ordered=True),
    ),
    rounds=1,
)


# ---------------------------------------------------------------------------
# large_p: few monomials, p! row images each
# ---------------------------------------------------------------------------

def _eval(p: int, expr: str) -> tuple[str, ...]:
    return ("eval", expr, "--p", str(p), "--width", "2", "--format", "json")


def _large_p_evals(p: int) -> tuple[tuple[str, ...], ...]:
    exprs = []
    for a, b in ((1, 0), (1, 1), (2, 1), (1, 2), (3, 1)):
        t = _fmt((a, b) if b else (a,))
        exprs += [f"M{t}", f"frobenius(M{t})", f"psi(M{_fmt([p * a, p * b])})",
                  f"E(1)*M{t}"]
    for k, i in ((2, 1), (3, 1), (3, 2), (4, 2)):
        exprs.append(f"polarize(M({k}),1,2,{i})")
    exprs += ["E(1,1)", "E(2)", "M(1)^2+M(2)", "psi(M(1)^" + str(p) + ")"]
    return tuple(_eval(p, e) for e in exprs)


LARGE_P = Workload(
    name="large_p",
    setup_primes=(),
    cells=(
        Cell("eval-p5", _large_p_evals(5), 56),
        Cell("eval-p7", _large_p_evals(7), 28),
        Cell("member-p5", tuple(_member(5, e, 2) for e in (
            "M(1,1)", "M(2,1)", "M(1,2)", "M(2)", "M(3)", "M(1)^2",
            "E(1,1)*M(1)", "M(1,1)*M(1)", "frobenius(M(1))", "M(2,2)")), 10),
        Cell("member-p7", tuple(_member(7, e, 2) for e in (
            "M(1,1)", "M(2)", "M(1)^2", "E(1,1)", "E(2)+M(1)^2",
            "M(1,1)+E(1,1)")), 6),
        Cell("mingens-p5", tuple(_mingens(5, w, d) for w, d in (
            (1, 2), (1, 3), (1, 4), (2, 2), (2, 3))), 5),
        Cell("mingens-p7", (_mingens(7, 1, 2),), 1),
    ),
    rounds=1,
)


WORKLOADS = {w.name: w for w in (CERTIFY, MEMBER, TABLES, LARGE_P)}


def round_requests(workload: Workload, seed: int,
                   round_index: int) -> list[tuple[str, ...]]:
    """The requests of one round, in the order they are sent."""
    queues = []
    for cell in workload.cells:
        cycle = list(cell.requests)
        if not cell.ordered:
            random.Random(f"{workload.name}:{seed}:{cell.name}").shuffle(cycle)
        start = round_index * cell.take
        queues.append(iter([cycle[(start + i) % len(cycle)]
                            for i in range(cell.take)]))
    slots = [k for k, cell in enumerate(workload.cells)
             for _ in range(cell.take)]
    random.Random(f"{workload.name}:{seed}:round{round_index}").shuffle(slots)
    return [next(queues[k]) for k in slots]
