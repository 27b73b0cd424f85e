"""Fraction-compare reference for the library's scalar parse, classification,
extremals, bounds, gate and rules.

These are the plain definitions that the library implements with cross
products (``classify_rows``), vectors written only at the target's
coordinates (``extremal_solutions``), targets read directly
(``aggregate_bounds``) and integer ranks (``gate_feasibility`` and the seven
rules): every comparison is a ``Fraction`` comparison, every extremal vector
is built coordinate by coordinate and scanned in full, and every removal
rebuilds its domain.  The differential
tests compare the library against them.

``parse_scalar`` checks the size rule on the value's decimal places and
its magnitude as a ``Fraction``, which the library reads off the denominator
and compares on integers; ``unit_scalar`` checks one A or b entry and words
its errors as the loader's entry-by-entry path does.

The rest are references that the library does not need:

* ``selector_bounds`` and ``cell_of`` build the box of one selector triple
  from the extremal vectors, the definition that the solver's merged walk
  is checked against; ``is_empty`` and ``dominates`` test such boxes.
* ``compose_row`` is the row value max_j min{a_ij, x_i, x_j}, the
  definition that ``check_membership`` is checked against.
* ``instance_to_doc`` writes an instance with decimal strings, so that a
  reload is exact.
* ``specialized_cover`` solves a cover instance by a direct search over
  variant assignments, the reference for ``solve_cover``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from maxminfre.exact import (
    MAX_EXPONENT,
    ONE,
    ZERO,
    Vec,
    _check_exponent,
    decimal_places,
    decimal_str,
    quoted,
)
from maxminfre.extremals import (
    BoundVectors,
    Cell,
    ExtremalSet,
    RowClassification,
    vec_le,
    vec_max,
    vec_min,
)
from maxminfre.model import Instance, InstanceError, _validated_x
from maxminfre.reduction import (
    CAUSE_ANCHORS,
    CAUSE_BOUND_CROSSING,
    CAUSE_EMPTY_SUPPORT,
    CAUSE_EQ_VARIANTS,
    CAUSE_LT_VARIANTS,
    Infeasibility,
    TraceEvent,
)
from maxminfre.vertexcover import graph_to_instance


def parse_scalar(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (Fraction, int, float, str)):
        raise ValueError(f"not a numeric scalar: {quoted(value)}")
    text = repr(value) if isinstance(value, float) else value
    if isinstance(text, str):
        _check_exponent(text)
    try:
        parsed = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a decimal scalar: {quoted(text)}") from exc
    d = parsed.denominator
    oversized = d > 10**MAX_EXPONENT or abs(parsed) >= 10 ** (MAX_EXPONENT + 1)
    if not oversized and pow(10, d.bit_length(), d):
        raise ValueError(f"{quoted(value)} has no finite decimal form")
    if oversized or decimal_places(parsed) > MAX_EXPONENT:
        shown = quoted(text) if isinstance(text, str) else type(value).__name__
        raise ValueError(
            f"{shown} has more than {MAX_EXPONENT} decimal places"
            f" or more than {MAX_EXPONENT + 1} integer digits"
        )
    return parsed


def unit_scalar(value, what: str) -> Fraction:
    try:
        parsed = parse_scalar(value)
    except ValueError as exc:
        raise InstanceError(f"{what}: {exc}") from exc
    if not ZERO <= parsed <= ONE:
        raise InstanceError(f"{what} = {quoted(value)} outside [0, 1]")
    return parsed


def classify_rows(inst) -> RowClassification:
    support, strict, equal = {}, {}, {}
    diag_gt, diag_eq, diag_lt, empty = [], [], [], []
    for i in inst.rows:
        row, target = inst.A[i - 1], inst.b[i - 1]
        strict[i] = tuple(j for j in inst.rows if row[j - 1] > target)
        equal[i] = tuple(j for j in inst.rows if row[j - 1] == target)
        support[i] = tuple(sorted(strict[i] + equal[i]))
        if not support[i]:
            empty.append(i)
        diag = row[i - 1]
        (diag_gt if diag > target else diag_eq if diag == target else diag_lt).append(i)
    return RowClassification(
        inst.n, support, strict, tuple(diag_gt), tuple(diag_eq), tuple(diag_lt), tuple(empty)
    )


class Extremals(NamedTuple):
    """The five families of ``ExtremalSet``, each built in full."""

    row_max: dict
    row_min: dict
    max_pin: dict
    max_cap: dict
    min_anchor: dict


def extremal_solutions(inst, cls) -> Extremals:
    n = inst.n
    row_max, row_min, max_pin, max_cap, min_anchor = {}, {}, {}, {}, {}

    def pin(i, value):
        return tuple(value if j == i else ONE for j in range(1, n + 1))

    def unit(i, value):
        return tuple(value if j == i else ZERO for j in range(1, n + 1))

    for i in cls.diag_gt:
        row_max[i], row_min[i] = pin(i, inst.b[i - 1]), unit(i, inst.b[i - 1])
    for i in cls.diag_eq + cls.diag_lt:
        target = inst.b[i - 1]
        max_pin[i] = pin(i, target)
        max_cap[i] = tuple(
            target if j in cls.support_strict[i] else ONE for j in range(1, n + 1)
        )
        if i in cls.diag_eq:
            row_min[i] = unit(i, target)
        else:
            for j in cls.support[i]:
                min_anchor[i, j] = tuple(target if k in (i, j) else ZERO for k in range(1, n + 1))
    return Extremals(row_max, row_min, max_pin, max_cap, min_anchor)


def aggregate_bounds(ext, cls) -> BoundVectors:
    zeros, ones = (ZERO,) * cls.n, (ONE,) * cls.n
    gt, eq = cls.diag_gt, cls.diag_eq
    lower_gt = vec_max(zeros, *(ext.row_min[i] for i in gt)) if gt else zeros
    lower_eq = vec_max(zeros, *(ext.row_min[i] for i in eq)) if eq else zeros
    return BoundVectors(
        lower_gt=lower_gt,
        upper_gt=vec_min(ones, *(ext.row_max[i] for i in gt)) if gt else ones,
        lower_eq=lower_eq,
        lower=vec_max(lower_gt, lower_eq),
    )


def gate_feasibility(inst, cls, bounds) -> Infeasibility | None:
    if cls.empty_support:
        return Infeasibility(CAUSE_EMPTY_SUPPORT, cls.empty_support)
    lower = vec_max(bounds.lower_gt, bounds.lower_eq)
    if not vec_le(lower, bounds.upper_gt):
        rows = tuple(j for j in inst.rows if lower[j - 1] > bounds.upper_gt[j - 1])
        return Infeasibility(CAUSE_BOUND_CROSSING, rows)
    return None


class State:
    """The rule state: domains, trace, snapshots and verdict."""

    def __init__(self, cls):
        self.eq_rows, self.lt_rows = cls.diag_eq, cls.diag_lt
        self.eq_dom = {i: (1, 2) for i in cls.diag_eq}
        self.lt_dom = {i: (1, 2) for i in cls.diag_lt}
        self.anchor_dom = {i: tuple(cls.support[i]) for i in cls.diag_lt}
        self.trace: list[TraceEvent] = []
        self.snapshots: list[tuple] = []
        self.infeasible = None
        self.snapshot("initial")

    def snapshot(self, stage):
        cards = [1, 1, 1]
        for k, doms in enumerate((self.eq_dom, self.lt_dom, self.anchor_dom)):
            for dom in doms.values():
                cards[k] *= len(dom)
        self.snapshots.append((stage, *cards))

    def remove(self, rule, dom, row, value, witness):
        dom[row] = tuple(v for v in dom[row] if v != value)
        self.trace.append(TraceEvent(rule, row, value, witness))

    def variant_exhaustion(self):
        if self.infeasible is None:
            for cause, rows, dom in (
                (CAUSE_EQ_VARIANTS, self.eq_rows, self.eq_dom),
                (CAUSE_LT_VARIANTS, self.lt_rows, self.lt_dom),
            ):
                empty = tuple(i for i in rows if not dom[i])
                if empty:
                    self.infeasible = Infeasibility(cause, empty)
                    return

    def anchor_exhaustion(self):
        empty = tuple(i for i in self.lt_rows if not self.anchor_dom[i])
        if self.infeasible is None and empty:
            self.infeasible = Infeasibility(CAUSE_ANCHORS, empty)


def reduce_domains(inst, cls, ext, bounds) -> State:
    state = State(cls)
    b = inst.b
    lower = vec_max(bounds.lower_gt, bounds.lower_eq)
    for rule, rows, dom in ((1, state.eq_rows, state.eq_dom), (2, state.lt_rows, state.lt_dom)):
        for row in rows:
            for variant in dom[row]:
                vec = ext.max_pin[row] if variant == 1 else ext.max_cap[row]
                hit = next((j for j in inst.rows if lower[j - 1] > vec[j - 1]), None)
                if hit is not None:
                    state.remove(rule, dom, row, variant, (hit,))
        state.snapshot(f"rule{rule}")
    state.variant_exhaustion()
    if state.infeasible:
        return state
    for row in state.lt_rows:
        for j in state.anchor_dom[row]:
            if ext.min_anchor[row, j][j - 1] > bounds.upper_gt[j - 1]:
                state.remove(3, state.anchor_dom, row, j, (j,))
    state.snapshot("rule3")
    state.anchor_exhaustion()
    if state.infeasible:
        return state
    for rule, rows, dom in ((4, state.eq_rows, state.eq_dom), (5, state.lt_rows, state.lt_dom)):
        for r in rows:
            if 2 not in dom[r]:
                continue
            for s in state.lt_rows:
                if s != r and inst.A[r - 1][s - 1] > b[r - 1] and b[r - 1] < b[s - 1]:
                    state.remove(rule, dom, r, 2, (r, s))
                    break
        state.snapshot(f"rule{rule}")
    state.variant_exhaustion()
    if state.infeasible:
        return state
    for rule, rows, dom in ((6, state.eq_rows, state.eq_dom), (7, state.lt_rows, state.lt_dom)):
        for r in rows:
            if dom[r] != (1,):
                continue
            for s in state.lt_rows:
                if s != r and r in state.anchor_dom[s] and b[r - 1] < b[s - 1]:
                    state.remove(rule, state.anchor_dom, s, r, (r, s))
        state.snapshot(f"rule{rule}")
    state.anchor_exhaustion()
    return state


VARIANTS = (1, 2)


@dataclass(frozen=True)
class SelectorBounds:
    upper_eq: Vec  # min of chosen diag_eq maximal variants
    upper_lt: Vec  # min of chosen diag_lt maximal variants
    lower_lt: Vec  # max of chosen diag_lt anchored minimals


def selector_bounds(
    ext: ExtremalSet,
    cls: RowClassification,
    eq_choice: dict[int, int],
    lt_choice: dict[int, int],
    anchor: dict[int, int],
) -> SelectorBounds:
    """Bounds induced by one choice of variants and anchors.

    ``eq_choice`` picks a maximal variant per diag_eq row, ``lt_choice`` per
    diag_lt row, and ``anchor`` picks the anchored minimal per diag_lt row;
    anchors must lie in the row's support.
    """
    n = cls.n
    zeros = (ZERO,) * n
    ones = (ONE,) * n
    for i in cls.diag_eq:
        if eq_choice.get(i) not in VARIANTS:
            raise ValueError(f"eq choice for row {i} must be 1 or 2")
    for i in cls.diag_lt:
        if lt_choice.get(i) not in VARIANTS:
            raise ValueError(f"lt choice for row {i} must be 1 or 2")
        if anchor.get(i) not in cls.support[i]:
            raise ValueError(f"anchor for row {i} must lie in its support")
    upper_eq = (
        vec_min(ones, *(ext.maximal(i, eq_choice[i]) for i in cls.diag_eq))
        if cls.diag_eq
        else ones
    )
    upper_lt = (
        vec_min(ones, *(ext.maximal(i, lt_choice[i]) for i in cls.diag_lt))
        if cls.diag_lt
        else ones
    )
    lower_lt = (
        vec_max(zeros, *(ext.min_anchor[i, anchor[i]] for i in cls.diag_lt))
        if cls.diag_lt
        else zeros
    )
    return SelectorBounds(upper_eq=upper_eq, upper_lt=upper_lt, lower_lt=lower_lt)


def cell_of(bounds: BoundVectors, sel: SelectorBounds) -> Cell:
    return Cell(
        lower=vec_max(bounds.lower, sel.lower_lt),
        upper=vec_min(bounds.upper_gt, sel.upper_eq, sel.upper_lt),
    )


def is_empty(cell: Cell) -> bool:
    return not vec_le(cell.lower, cell.upper)


def dominates(cell: Cell, other: Cell) -> bool:
    """True when ``cell`` contains the box ``other`` entirely."""
    return vec_le(cell.lower, other.lower) and vec_le(other.upper, cell.upper)


def compose_row(inst: Instance, i: int, x) -> Fraction:
    """Row value max_j min{a_ij, x_i, x_j}."""
    if not 1 <= i <= inst.n:
        raise InstanceError(f"row index {i} outside 1..{inst.n}")
    vec = _validated_x(inst, x)
    xi = vec[i - 1]
    row = inst.A[i - 1]
    return max(min(row[j], xi, vec[j]) for j in range(inst.n))


def instance_to_doc(inst: Instance) -> dict:
    """Serialize with decimal strings so a reparse is exact."""
    return {
        "A": [[decimal_str(v) for v in row] for row in inst.A],
        "b": [decimal_str(v) for v in inst.b],
        "c": [decimal_str(v) for v in inst.c],
        "sense": inst.sense,
    }


def specialized_cover(g) -> tuple[Vec, tuple[int, ...]]:
    """Optimum x and lex-smallest variant assignment of the cover instance,
    by direct search over variant assignments with forward pruning.

    Assigning variant 2 to a row zeroes its neighbors' coordinates, so two
    adjacent rows never both need variant 2: whenever a neighbor already
    holds 2, only variant 1 is tried.  The first-found best keeps the
    lexicographically smallest assignment.
    """
    n = g.n
    adjacency = graph_to_instance(g).A
    ones: Vec = (ONE,) * n
    best_vec: Vec | None = None
    best_sum: Fraction | None = None
    best_assign: tuple[int, ...] | None = None

    def descend(row: int, cur: Vec, assign: tuple[int, ...]):
        nonlocal best_vec, best_sum, best_assign
        if row > n:
            total = sum(cur, ZERO)
            if best_sum is None or total > best_sum:
                best_vec, best_sum, best_assign = cur, total, assign
            return
        pinned = tuple(
            cur[j] if j != row - 1 else min(cur[j], ZERO) for j in range(n)
        )
        descend(row + 1, pinned, assign + (1,))
        if any(assign[v - 1] == 2 for v in range(1, row) if adjacency[row - 1][v - 1]):
            return
        capped = tuple(
            min(cur[j], ZERO) if adjacency[row - 1][j] else cur[j] for j in range(n)
        )
        descend(row + 1, capped, assign + (2,))

    descend(1, ones, ())
    assert best_vec is not None and best_assign is not None
    return best_vec, best_assign
