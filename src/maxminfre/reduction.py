"""Domain reduction: the seven pruning rules over the selector domains.

Before enumeration, each diag_eq and diag_lt row owns a small selector
domain: which maximal variant participates (values 1/2) and, for diag_lt
rows, which anchor column carries the minimal solution.  The rules below
remove selector values that can only produce empty boxes; they never remove
an admissible selection.  Removed values leave the row's domain; the
extremal vectors that the values stand for (``ExtremalSet``) never change,
and the rules read them there.

Rule summary (targets in parentheses):

1. a combined lower bound exceeds a diag_eq maximal row somewhere (variant),
2. same against a diag_lt maximal row (variant),
3. an anchored minimal exceeds the diag_gt upper bound at its column (anchor),
4. a diag_eq row strictly dominates a diag_lt row's target, so capping is
   impossible (variant 2 of the diag_eq row),
5. same between two diag_lt rows (variant 2 of the earlier one),
6. a variant-pinned diag_eq row forbids itself as anchor of a bigger-target
   diag_lt row (anchor),
7. same with a variant-pinned diag_lt row as the anchor (anchor).

Rules fire in a single pass each, in ascending index order, following the
solve pipeline: 1, 2, 3, then 4+5, then 6+7.  Emptied domains are recorded
as infeasibility verdicts, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact import Vec
from .extremals import BoundVectors, ExtremalSet, RowClassification
from .model import Instance

CAUSE_EMPTY_SUPPORT = "empty-support"
CAUSE_BOUND_CROSSING = "bound-crossing"
CAUSE_EQ_VARIANTS = "eq-variants-exhausted"
CAUSE_LT_VARIANTS = "lt-variants-exhausted"
CAUSE_ANCHORS = "anchors-exhausted"
CAUSE_NO_TRIPLE = "no-admissible-triple"


@dataclass(frozen=True)
class Infeasibility:
    cause: str
    rows: tuple[int, ...] = ()

    def describe(self) -> str:
        if self.rows:
            return f"{self.cause} (rows {', '.join(map(str, self.rows))})"
        return self.cause


@dataclass(frozen=True)
class TraceEvent:
    rule: int
    target: int  # row whose selector domain shrank
    removed: int  # variant (1/2) or anchor column
    witness: tuple[int, ...]  # triggering column, or (row, row) pair

    def line(self) -> str:
        w = self.witness[0] if len(self.witness) == 1 else self.witness
        return f"RULE{self.rule} target={self.target} removed={self.removed} witness={w}"


@dataclass
class ReductionState:
    ext: ExtremalSet  # the vectors that every selector value stands for
    eq_rows: tuple[int, ...]  # diag_eq rows, ascending
    lt_rows: tuple[int, ...]  # diag_lt rows, ascending
    eq_dom: dict[int, tuple[int, ...]]  # diag_eq row -> surviving variants
    lt_dom: dict[int, tuple[int, ...]]  # diag_lt row -> surviving variants
    anchor_dom: dict[int, tuple[int, ...]]  # diag_lt row -> surviving anchors
    trace: list[TraceEvent] = field(default_factory=list)
    snapshots: list[tuple[str, int, int, int]] = field(default_factory=list)
    infeasible: Infeasibility | None = None

    def cardinalities(self) -> tuple[int, int, int]:
        eq = lt = anchor = 1
        for dom in self.eq_dom.values():
            eq *= len(dom)
        for dom in self.lt_dom.values():
            lt *= len(dom)
        for dom in self.anchor_dom.values():
            anchor *= len(dom)
        return eq, lt, anchor

    def snapshot(self, stage: str) -> None:
        self.snapshots.append((stage, *self.cardinalities()))

    def _remove_variant(self, rule: int, family: str, row: int, variant: int, witness) -> None:
        dom = self.eq_dom if family == "eq" else self.lt_dom
        dom[row] = tuple(v for v in dom[row] if v != variant)
        self.trace.append(TraceEvent(rule, row, variant, witness))

    def _remove_anchor(self, rule: int, row: int, column: int, witness) -> None:
        self.anchor_dom[row] = tuple(j for j in self.anchor_dom[row] if j != column)
        self.trace.append(TraceEvent(rule, row, column, witness))


def initial_state(ext: ExtremalSet, cls: RowClassification) -> ReductionState:
    state = ReductionState(
        ext=ext,
        eq_rows=cls.diag_eq,
        lt_rows=cls.diag_lt,
        eq_dom={i: (1, 2) for i in cls.diag_eq},
        lt_dom={i: (1, 2) for i in cls.diag_lt},
        anchor_dom={i: tuple(cls.support[i]) for i in cls.diag_lt},
    )
    state.snapshot("initial")
    return state


def _variant_exhaustion(state: ReductionState) -> None:
    """Record infeasibility when a row has lost both maximal variants."""
    if state.infeasible is not None:
        return
    empty_eq = tuple(i for i in state.eq_rows if not state.eq_dom[i])
    if empty_eq:
        state.infeasible = Infeasibility(CAUSE_EQ_VARIANTS, empty_eq)
        return
    empty_lt = tuple(i for i in state.lt_rows if not state.lt_dom[i])
    if empty_lt:
        state.infeasible = Infeasibility(CAUSE_LT_VARIANTS, empty_lt)


def _anchor_exhaustion(state: ReductionState) -> None:
    if state.infeasible is not None:
        return
    empty = tuple(i for i in state.lt_rows if not state.anchor_dom[i])
    if empty:
        state.infeasible = Infeasibility(CAUSE_ANCHORS, empty)


def apply_bound_rules(state: ReductionState, bounds: BoundVectors) -> ReductionState:
    """Rules 1 and 2: kill maximal variants crossed by the combined lower bound."""
    lower = bounds.lower
    for rule, family, rows, dom in (
        (1, "eq", state.eq_rows, state.eq_dom),
        (2, "lt", state.lt_rows, state.lt_dom),
    ):
        for row in rows:
            for variant in dom[row]:
                vec = state.ext.maximal(row, variant)
                hit = next((j for j in range(1, len(vec) + 1) if lower[j - 1] > vec[j - 1]), None)
                if hit is not None:
                    state._remove_variant(rule, family, row, variant, (hit,))
        state.snapshot(f"rule{rule}")
    _variant_exhaustion(state)
    return state


def apply_minimal_rule3(state: ReductionState, bounds: BoundVectors) -> ReductionState:
    """Rule 3: kill anchors whose minimal solution crosses the diag_gt upper bound."""
    upper = bounds.upper_gt
    for row in state.lt_rows:
        for j in state.anchor_dom[row]:
            if state.ext.min_anchor[row, j][j - 1] > upper[j - 1]:
                state._remove_anchor(3, row, j, (j,))
    state.snapshot("rule3")
    _anchor_exhaustion(state)
    return state


def apply_cross_rules(state: ReductionState, inst: Instance, cls: RowClassification) -> ReductionState:
    """Rules 4 and 5: a row whose capped target is strictly below another
    row's anchored requirement cannot use its variant-2 maximal."""
    for r in state.eq_rows:
        if 2 not in state.eq_dom[r]:
            continue
        for s in state.lt_rows:
            if inst.entry(r, s) > inst.b[r - 1] and inst.b[r - 1] < inst.b[s - 1]:
                state._remove_variant(4, "eq", r, 2, (r, s))
                break
    state.snapshot("rule4")
    for r in state.lt_rows:
        if 2 not in state.lt_dom[r]:
            continue
        for s in state.lt_rows:
            if r == s:
                continue
            if inst.entry(r, s) > inst.b[r - 1] and inst.b[r - 1] < inst.b[s - 1]:
                state._remove_variant(5, "lt", r, 2, (r, s))
                break
    state.snapshot("rule5")
    _variant_exhaustion(state)
    return state


def apply_pinned_rules(state: ReductionState, cls: RowClassification, b: Vec) -> ReductionState:
    """Rules 6 and 7: a row pinned to variant 1 keeps its own coordinate at
    its target, so it cannot anchor a row with a strictly larger target."""
    for r in state.eq_rows:
        if state.eq_dom[r] != (1,):
            continue
        for s in state.lt_rows:
            if r in state.anchor_dom[s] and b[r - 1] < b[s - 1]:
                state._remove_anchor(6, s, r, (r, s))
    state.snapshot("rule6")
    for r in state.lt_rows:
        if state.lt_dom[r] != (1,):
            continue
        for s in state.lt_rows:
            if s == r:
                continue
            if r in state.anchor_dom[s] and b[r - 1] < b[s - 1]:
                state._remove_anchor(7, s, r, (r, s))
    state.snapshot("rule7")
    _anchor_exhaustion(state)
    return state


def reduce_domains(
    inst: Instance,
    cls: RowClassification,
    ext: ExtremalSet,
    bounds: BoundVectors,
) -> ReductionState:
    """Full rule pipeline; stops early once infeasibility is recorded."""
    state = initial_state(ext, cls)
    apply_bound_rules(state, bounds)
    if state.infeasible:
        return state
    apply_minimal_rule3(state, bounds)
    if state.infeasible:
        return state
    apply_cross_rules(state, inst, cls)
    if state.infeasible:
        return state
    apply_pinned_rules(state, cls, inst.b)
    return state

