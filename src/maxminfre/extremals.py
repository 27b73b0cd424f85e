"""Row classification and extremal solutions of single rows.

The feasible set of one row depends on how the diagonal entry compares with
the target b_i:

* ``diag_gt`` (a_ii > b_i): a single box; x_i is pinned to b_i.
* ``diag_eq`` (a_ii = b_i): one minimum solution and two maximal ones.
* ``diag_lt`` (a_ii < b_i): two maximal solutions and one minimal solution
  per anchor column j with a_ij >= b_i (the row then needs both x_i and x_j
  to reach b_i).

The two maximal constructions are the same for diag_eq and diag_lt rows:
variant 1 caps the row's own coordinate at b_i, variant 2 caps every column
with a_ij > b_i at b_i.  Aggregating per-class extremals componentwise gives
the box bounds that assemble the full feasible region.  Each extremal vector
is 0 or 1 except for b_i at its row, anchor or strict support, so the bounds
read the targets b alone, and the solve, which passes the ``Instance``,
builds no ``ExtremalSet``; ``extremal_solutions`` builds every family in
full for the commands and references that read the vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .exact import ONE, ZERO, Vec
from .model import Instance


def vec_min(*vecs: Vec) -> Vec:
    return tuple(map(min, *vecs))


def vec_max(*vecs: Vec) -> Vec:
    return tuple(map(max, *vecs))


def vec_le(a: Vec, b: Vec) -> bool:
    return all(x <= y for x, y in zip(a, b))


class RowClassification(NamedTuple):
    n: int
    support: dict[int, tuple[int, ...]]  # columns with a_ij >= b_i
    support_strict: dict[int, tuple[int, ...]]  # a_ij > b_i
    diag_gt: tuple[int, ...]
    diag_eq: tuple[int, ...]
    diag_lt: tuple[int, ...]
    empty_support: tuple[int, ...]  # rows whose support is empty: infeasible

    def caps(self, i: int, variant: int) -> tuple[int, ...]:
        """The coordinates that row i's variant-1 or variant-2 maximal caps at b_i."""
        return (i,) if variant == 1 else self.support_strict[i]


def classify_rows(inst: Instance) -> RowClassification:
    """Compare every a_ij = r/s with b_i = p/q as r*q against p*s (s, q > 0)."""
    support: dict[int, tuple[int, ...]] = {}
    strict: dict[int, tuple[int, ...]] = {}
    diag_gt, diag_eq, diag_lt = [], [], []
    empty = []
    for i, row, target in zip(inst.rows, inst.A, inst.b):
        p, q = target.as_integer_ratio()
        diffs = [r * q - p * s for r, s in [a.as_integer_ratio() for a in row]]
        # tuple() of a list, not of a generator: a generator's tuple is built
        # at a guessed size and resized, which fills CPython's per-size tuple
        # free lists a little on every call until the next full collection
        strict[i] = tuple([j for j, d in enumerate(diffs, start=1) if d > 0])
        support[i] = tuple([j for j, d in enumerate(diffs, start=1) if d >= 0])
        if not support[i]:
            empty.append(i)
        diag = diffs[i - 1]
        if diag > 0:
            diag_gt.append(i)
        elif diag == 0:
            diag_eq.append(i)
        else:
            diag_lt.append(i)
    return RowClassification(
        n=inst.n,
        support=support,
        support_strict=strict,
        diag_gt=tuple(diag_gt),
        diag_eq=tuple(diag_eq),
        diag_lt=tuple(diag_lt),
        empty_support=tuple(empty),
    )


class ExtremalSet(NamedTuple):
    """Every single-row extremal vector, family by family."""

    b: Vec  # the row targets, b_i = b[i - 1]: the only value off {0, 1}
    row_max: dict[int, Vec]  # diag_gt rows: unique maximum
    row_min: dict[int, Vec]  # diag_gt and diag_eq rows: unique minimum
    max_pin: dict[int, Vec]  # diag_eq/diag_lt rows: variant-1 maximal
    max_cap: dict[int, Vec]  # diag_eq/diag_lt rows: variant-2 maximal
    min_anchor: dict[tuple[int, int], Vec]  # diag_lt rows: minimal per anchor

    def maximal(self, i: int, variant: int) -> Vec:
        return self.max_pin[i] if variant == 1 else self.max_cap[i]


def extremal_solutions(inst: Instance, cls: RowClassification) -> ExtremalSet:
    def vector(fill: Fraction, i: int, coords) -> Vec:
        """``fill`` everywhere except b_i at the 1-based ``coords``."""
        vec = [fill] * cls.n
        for j in coords:
            vec[j - 1] = inst.b[i - 1]
        return tuple(vec)

    capped = cls.diag_eq + cls.diag_lt
    return ExtremalSet(
        b=inst.b,
        row_max={i: vector(ONE, i, (i,)) for i in cls.diag_gt},
        row_min={i: vector(ZERO, i, (i,)) for i in cls.diag_gt + cls.diag_eq},
        max_pin={i: vector(ONE, i, cls.caps(i, 1)) for i in capped},
        max_cap={i: vector(ONE, i, cls.caps(i, 2)) for i in capped},
        min_anchor={(i, j): vector(ZERO, i, (i, j)) for i in cls.diag_lt for j in cls.support[i]},
    )


class BoundVectors(NamedTuple):
    """Componentwise aggregates over the selector-free extremal families.

    Empty families follow the lattice conventions: a max over nothing is the
    zero vector, a min over nothing the all-ones vector.
    """

    lower_gt: Vec  # max of diag_gt minimums
    upper_gt: Vec  # min of diag_gt maximums
    lower_eq: Vec  # max of diag_eq minimums
    lower: Vec  # max of lower_gt and lower_eq: the lower bound every box starts from


def aggregate_bounds(source: Instance | ExtremalSet, cls: RowClassification) -> BoundVectors:
    """Each diag_gt/diag_eq row_min and row_max is 0 or 1 except for b_i at
    the row's own coordinate, so every component is read from the targets
    ``source.b``, which an instance and its extremal set hold alike.  The
    diag_gt and diag_eq rows are disjoint, so ``lower`` is max(b_i, 0) on
    them and 0 elsewhere; the sign is read off the numerator, which also
    keeps a negative target of an unvalidated instance at 0."""
    lower_gt, upper_gt, lower_eq = [ZERO] * cls.n, [ONE] * cls.n, [ZERO] * cls.n
    lower = [ZERO] * cls.n
    for i in cls.diag_gt:
        lower_gt[i - 1] = upper_gt[i - 1] = target = source.b[i - 1]
        lower[i - 1] = target if target.numerator > 0 else ZERO
    for i in cls.diag_eq:
        lower_eq[i - 1] = target = source.b[i - 1]
        lower[i - 1] = target if target.numerator > 0 else ZERO
    return BoundVectors(tuple(lower_gt), tuple(upper_gt), tuple(lower_eq), tuple(lower))


class Cell(NamedTuple):
    """Axis-aligned box {x : lower <= x <= upper componentwise}."""

    lower: Vec
    upper: Vec

    def contains(self, x: Vec) -> bool:
        return vec_le(self.lower, x) and vec_le(x, self.upper)


class Lanes:
    """Rank vectors over the ascending grid of some values, each packed into
    one int: coordinate j holds its rank in bits [j(w+1), j(w+1) + w) under a
    zero guard bit.

    A box packs into one int of 2n such lanes: the low n hold its upper
    bound's ranks counted down from the top, ``top - upper``, and the n from
    bit ``half`` up hold its lower bound's ranks.  Intersecting two boxes is
    then one lane-wise max, and box A contains box B iff A <= B on every
    lane.

    A rank is looked up on ``value.as_integer_ratio()``, which identifies a
    Fraction exactly and hashes without Fraction.__hash__'s modular inverse.
    The grid is sorted on the integers p * (L // q), L the lcm of the
    denominators, which is the same order as p / q without a single Fraction
    compare.  Comparing ranks is therefore comparing the values exactly.
    Both are kept: ``scale`` is L and ``ints[r]`` is grid[r] * L, the
    integer grid in rank order that the objective tables are read from.
    ``grid[r]`` is a given value of rank r, not rebuilt, so ``cell`` returns
    the caller's objects: ints for an unvalidated ``Instance`` of ints.
    """

    def __init__(self, values: Iterable[Fraction], n: int):
        given = {value.as_integer_ratio(): value for value in values}
        self.scale = scale = math.lcm(*(q for _, q in given))
        ordered = sorted(given, key=lambda pq: pq[0] * (scale // pq[1]))
        self.ints = tuple([p * (scale // q) for p, q in ordered])  # grid[r] * scale
        self._ranks = {pq: r for r, pq in enumerate(ordered)}
        self.grid = tuple([given[pq] for pq in ordered])  # grid[r] has rank r
        self.top = len(ordered) - 1  # the rank of the largest value, 1 on a solve's grid
        self.w = w = self.top.bit_length()
        self.lane = (1 << w) - 1
        self.shifts = range(0, n * (w + 1), w + 1)
        self.half = n * (w + 1)  # the first bit of a box's lower bound
        self.unit = sum(1 << shift for shift in self.shifts)  # rank 1 on every low lane
        self.guards = (self.unit | self.unit << self.half) << w  # on all 2n lanes

    def rank(self, vec: Vec) -> tuple[int, ...]:
        """The ranks of a vector's values; KeyError for a value off the grid."""
        return tuple([self._ranks[v.as_integer_ratio()] for v in vec])

    def pack(self, ranks: tuple[int, ...]) -> int:
        return sum(r << shift for r, shift in zip(ranks, self.shifts))

    def unpack(self, packed: int) -> tuple[int, ...]:
        return tuple((packed >> shift) & self.lane for shift in self.shifts)

    def le(self, a: int, b: int) -> bool:
        """a <= b on every lane: no guard bit of (b | guards) - a is borrowed."""
        return ((b | self.guards) - a) & self.guards == self.guards

    def ge_mask(self, a: int, b: int) -> int:
        """All rank bits of the lanes where a >= b."""
        return ((((a | self.guards) - b) & self.guards) >> self.w) * self.lane

    def max(self, a: int, b: int) -> int:
        mask = self.ge_mask(a, b)
        return (a & mask) | (b & ~mask)

    def box(self, lower: tuple[int, ...], upper: tuple[int, ...]) -> int:
        """The box int of two rank vectors."""
        return (self.top * self.unit - self.pack(upper)) | self.pack(lower) << self.half

    def cell(self, box: int) -> Cell:
        """The ``Cell`` of a box int, in values."""
        lower, upper = self.unpack(box >> self.half), self.unpack(box)
        return Cell(
            tuple([self.grid[r] for r in lower]), tuple([self.grid[self.top - r] for r in upper])
        )

    def cap(self, box: int) -> int:
        """The box int that a nonempty box lies under on every lane iff it
        meets the nonempty ``box``, with its guard bits set: the top rank
        minus ``box`` with its halves swapped, since boxes meet iff each one's
        lower bound is at or below the other's upper bound."""
        swapped = box >> self.half | (box & ((1 << self.half) - 1)) << self.half
        return ((self.guards >> self.w) * self.top - swapped) | self.guards
