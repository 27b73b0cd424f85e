"""Independent brute-force verifiers.

These never reuse solver machinery beyond plain membership testing, so they
can cross-check it:

* ``grid_optimum`` enumerates every x over the value grid {0, 1} union the
  target entries.  Every extremal-vector component lies on that grid, and the
  optimum is attained at a per-box candidate whose coordinates are such
  components, so the grid optimum equals the true optimum.
* ``sample_feasibility`` compares membership against box-union containment on
  quantized uniform samples.
* ``brute_force_cover`` enumerates vertex subsets by increasing size.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import NamedTuple

from .exact import ONE, ZERO, Vec, decimal_places
from .extremals import Cell
from .model import Instance, check_membership
from .vertexcover import Graph

GRID_BUDGET = 2_000_000
COVER_LIMIT = 20


class BudgetExceeded(RuntimeError):
    """The exhaustive search space is larger than the configured budget."""


class GridResult(NamedTuple):
    feasible: bool
    objective: Fraction | None
    x: Vec | None
    points: int  # grid points enumerated


def value_grid(inst: Instance) -> tuple[Fraction, ...]:
    return tuple(sorted({ZERO, ONE, *inst.b}))


def grid_optimum(inst: Instance, budget: int = GRID_BUDGET) -> GridResult:
    grid = value_grid(inst)
    total = len(grid) ** inst.n
    if total > budget:
        raise BudgetExceeded(f"{len(grid)}^{inst.n} = {total} grid points > budget {budget}")
    best_obj = None
    best_x = None
    want_min = inst.sense == "min"
    for x in itertools.product(grid, repeat=inst.n):
        if not check_membership(inst, x).feasible:
            continue
        obj = sum((cj * xj for cj, xj in zip(inst.c, x)), ZERO)
        if best_obj is None or (obj < best_obj if want_min else obj > best_obj):
            best_obj, best_x = obj, x
    if best_obj is None:
        return GridResult(False, None, None, total)
    return GridResult(True, best_obj, best_x, total)


class Disagreement(NamedTuple):
    x: Vec
    member: bool  # row-wise membership verdict
    in_cells: bool  # box-union verdict


class AgreementReport(NamedTuple):
    samples: int
    disagreements: tuple[Disagreement, ...]

    @property
    def agreed(self) -> bool:
        return not self.disagreements


def instance_precision(inst: Instance) -> int:
    places = [decimal_places(v) for row in inst.A for v in row]
    places += [decimal_places(v) for v in inst.b]
    return max(places, default=0)


def sample_feasibility(
    inst: Instance, cells: list[Cell], k: int, seed: int = 0
) -> AgreementReport:
    """Uniform quantized samples, membership vs box-union containment."""
    if k < 1:
        raise ValueError("sample count must be at least 1")
    rng = random.Random(seed)
    quantum = 10 ** instance_precision(inst)
    disagreements = []
    for _ in range(k):
        x = tuple(Fraction(rng.randrange(quantum + 1), quantum) for _ in range(inst.n))
        member = check_membership(inst, x).feasible
        in_cells = any(cell.contains(x) for cell in cells)
        if member != in_cells:
            disagreements.append(Disagreement(x, member, in_cells))
    return AgreementReport(samples=k, disagreements=tuple(disagreements))


class CoverOracleResult(NamedTuple):
    size: int
    cover: tuple[int, ...]


def brute_force_cover(g: Graph, limit: int = COVER_LIMIT) -> CoverOracleResult:
    """Smallest covering subset, found by increasing subset size."""
    if g.n > limit:
        raise BudgetExceeded(f"graph order {g.n} exceeds limit {limit}")
    edges = sorted(g.edges)
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(1, g.n + 1), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return CoverOracleResult(size=size, cover=subset)
    raise AssertionError("the full vertex set always covers")

