"""Domain reduction: the seven pruning rules over the selector domains.

Before enumeration, each diag_eq and diag_lt row owns a small selector
domain: which maximal variant participates (values 1/2) and, for diag_lt
rows, which anchor column carries the minimal solution.  The rules below
remove selector values that can only produce empty boxes; they never remove
an admissible selection.  Removed values leave the row's domain; the
extremal vectors that the values stand for never change, and each equals its
row's target b_i wherever it is not 0 or 1, so the rules compare the
instance's row targets with the bounds and build no ``ExtremalSet``.

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
solve pipeline: 1, 2, 3, then 4+5, then 6+7.  Each rule collects its hits
in one scan of the domains and removes them together
(``ReductionState._prune``).  Emptied domains are recorded as infeasibility
verdicts, never raised.  Every rule compares integer ranks on the solve's
one grid (``initial_state``), never ``Fraction``s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .exact import ONE, ZERO
from .extremals import BoundVectors, ExtremalSet, Lanes, RowClassification
from .model import Instance

CAUSE_EMPTY_SUPPORT = "empty-support"
CAUSE_BOUND_CROSSING = "bound-crossing"
CAUSE_EQ_VARIANTS = "eq-variants-exhausted"
CAUSE_LT_VARIANTS = "lt-variants-exhausted"
CAUSE_ANCHORS = "anchors-exhausted"
CAUSE_NO_TRIPLE = "no-admissible-triple"


class Infeasibility(NamedTuple):
    cause: str
    rows: tuple[int, ...] = ()

    def describe(self) -> str:
        if self.rows:
            return f"{self.cause} (rows {', '.join(map(str, self.rows))})"
        return self.cause


class TraceEvent(NamedTuple):
    """One removal."""

    rule: int
    target: int  # row whose selector domain shrank
    removed: int  # variant (1/2) or anchor column
    witness: tuple[int, ...]  # triggering column, or (row, row) pair

    def line(self) -> str:
        w = self.witness[0] if len(self.witness) == 1 else self.witness
        return f"RULE{self.rule} target={self.target} removed={self.removed} witness={w}"


# a dataclass, not a NamedTuple: the rules update it in place
@dataclass
class ReductionState:
    cls: RowClassification  # the row classes and supports the rules read
    lanes: Lanes  # the solve's one grid, packed for the frontier
    lower: tuple[int, ...]  # ranks of the combined lower bound
    upper: tuple[int, ...]  # ranks of the diag_gt upper bound
    target: dict[int, int]  # diag_eq/diag_lt row -> rank of its target b_i
    eq_dom: dict[int, tuple[int, ...]]  # diag_eq row -> surviving variants
    lt_dom: dict[int, tuple[int, ...]]  # diag_lt row -> surviving variants
    anchor_dom: dict[int, tuple[int, ...]]  # diag_lt row -> surviving anchors
    trace: list[TraceEvent] = field(default_factory=list)
    snapshots: list[tuple[str, int, int, int]] = field(default_factory=list)
    infeasible: Infeasibility | None = None

    def cardinalities(self) -> tuple[int, int, int]:
        doms = (self.eq_dom, self.lt_dom, self.anchor_dom)
        return tuple([math.prod(map(len, dom.values())) for dom in doms])

    def snapshot(self, stage: str) -> None:
        self.snapshots.append((stage, *self.cardinalities()))

    def _prune(self, rule: int, dom: dict, hits: list) -> None:
        """Trace every (row, removed value, witness) hit of one rule in
        order, rebuild each hit row's domain tuple once, then snapshot the
        domains as stage ``rule{k}``.

        This equals removing the values one by one as they are found: no
        check of a rule reads a domain value that the same rule removes,
        except the one check that removes it.
        """
        if not hits:  # no domain changed: the previous cardinalities stand
            self.snapshots.append((f"rule{rule}", *self.snapshots[-1][1:]))
            return
        removed: dict[int, set[int]] = {}
        for row, value, witness in hits:
            removed.setdefault(row, set()).add(value)
            self.trace.append(TraceEvent(rule, row, value, witness))
        for row, values in removed.items():
            dom[row] = tuple([v for v in dom[row] if v not in values])
        self.snapshot(f"rule{rule}")


def initial_state(
    inst: Instance, cls: RowClassification, bounds: BoundVectors
) -> ReductionState:
    """Full domains, and one grid of every value the rules and the
    frontier compare: 0, 1, the bound components and the diag_eq/diag_lt
    targets, read from ``inst.b``."""
    rows = cls.diag_eq + cls.diag_lt
    targets = tuple([inst.b[i - 1] for i in rows])
    lanes = Lanes((ZERO, ONE, *bounds.lower, *bounds.upper_gt, *targets), cls.n)
    state = ReductionState(
        cls=cls,
        lanes=lanes,
        lower=lanes.rank(bounds.lower),
        upper=lanes.rank(bounds.upper_gt),
        target=dict(zip(rows, lanes.rank(targets))),
        eq_dom={i: (1, 2) for i in cls.diag_eq},
        lt_dom={i: (1, 2) for i in cls.diag_lt},
        anchor_dom={i: tuple(cls.support[i]) for i in cls.diag_lt},
    )
    state.snapshot("initial")
    return state


def _exhaustion(state: ReductionState, *checks: tuple[str, dict]) -> None:
    """Record the first (cause, domains) pair, in the order given, whose
    domains hold an emptied row; the rows are named in ascending order."""
    if state.infeasible is not None:
        return
    for cause, dom in checks:
        empty = tuple([i for i, values in dom.items() if not values])
        if empty:
            state.infeasible = Infeasibility(cause, empty)
            return


def apply_bound_rules(state: ReductionState) -> ReductionState:
    """Rules 1 and 2: kill maximal variants crossed by the combined lower bound.

    A maximal differs from 1 only at its row (variant 1) or at the row's
    strict support (variant 2), where it equals the row target, and no bound
    exceeds 1, so only those coordinates can be crossed; they are scanned in
    ascending order, which keeps the first crossing as the witness.
    """
    cls, caps, lower, target = state.cls, state.cls.caps, state.lower, state.target
    for rule, dom, rows in ((1, state.eq_dom, cls.diag_eq), (2, state.lt_dom, cls.diag_lt)):
        hits = []
        for row in rows:
            t = target[row]
            for variant in dom[row]:
                hit = next((j for j in caps(row, variant) if lower[j - 1] > t), None)
                if hit is not None:
                    hits.append((row, variant, (hit,)))
        state._prune(rule, dom, hits)
    _exhaustion(state, (CAUSE_EQ_VARIANTS, state.eq_dom), (CAUSE_LT_VARIANTS, state.lt_dom))
    return state


def apply_minimal_rule3(state: ReductionState) -> ReductionState:
    """Rule 3: kill anchors whose minimal solution crosses the diag_gt upper
    bound; the minimal anchored at j holds the row target at j."""
    upper, target = state.upper, state.target
    hits = [
        (row, j, (j,))
        for row in state.cls.diag_lt
        for j in state.anchor_dom[row]
        if target[row] > upper[j - 1]
    ]
    state._prune(3, state.anchor_dom, hits)
    _exhaustion(state, (CAUSE_ANCHORS, state.anchor_dom))
    return state


def apply_cross_rules(state: ReductionState) -> ReductionState:
    """Rules 4 and 5: a row whose capped target is strictly below another
    row's anchored requirement cannot use its variant-2 maximal.

    a_rs > b_r is read as s in the strict support of r, which ascends like
    the diag_lt rows, so the first witness is the same.  Only diag_lt rows
    s qualify, and a diag_gt row has no target, so that test comes first.
    No s equals r: a diag_eq or diag_lt row has a_rr <= b_r, so r is not in
    its own strict support.
    """
    cls, target, lt = state.cls, state.target, set(state.cls.diag_lt)
    for rule, dom, rows in ((4, state.eq_dom, cls.diag_eq), (5, state.lt_dom, cls.diag_lt)):
        hits = []
        for r in rows:
            if 2 not in dom[r]:
                continue
            s = next(
                (
                    s
                    for s in cls.support_strict[r]
                    if s in lt and target[r] < target[s]
                ),
                None,
            )
            if s is not None:
                hits.append((r, 2, (r, s)))
        state._prune(rule, dom, hits)
    _exhaustion(state, (CAUSE_EQ_VARIANTS, state.eq_dom), (CAUSE_LT_VARIANTS, state.lt_dom))
    return state


def apply_pinned_rules(state: ReductionState) -> ReductionState:
    """Rules 6 and 7: a row pinned to variant 1 keeps its own coordinate at
    its target, so it cannot anchor a row with a strictly larger target.

    Each rule scans every diag_lt row's anchor domain once for the pinned
    rows of its class and sorts the hits into (r, s) order.  Rule 6 removes
    only diag_eq columns, so rule 7 finds the same hits after it as before.
    A row s = r never hits, since its target is not larger than its own.
    """
    cls, target, anchor_dom = state.cls, state.target, state.anchor_dom
    for rule, dom, rows in ((6, state.eq_dom, cls.diag_eq), (7, state.lt_dom, cls.diag_lt)):
        pinned = {r: target[r] for r in rows if dom[r] == (1,)}
        hits = sorted(
            (r, s)
            for s, anchors in anchor_dom.items()
            for r in anchors
            if r in pinned and pinned[r] < target[s]
        )
        state._prune(rule, anchor_dom, [(s, r, (r, s)) for r, s in hits])
    _exhaustion(state, (CAUSE_ANCHORS, anchor_dom))
    return state


def reduce_domains(
    inst: Instance,
    cls: RowClassification,
    ext: ExtremalSet | None,
    bounds: BoundVectors,
) -> ReductionState:
    """Full rule pipeline; stops early once infeasibility is recorded.  ``ext``
    is not read: the rules take the row targets from ``inst``."""
    state = initial_state(inst, cls, bounds)
    for rules in (apply_bound_rules, apply_minimal_rule3, apply_cross_rules, apply_pinned_rules):
        if rules(state).infeasible:
            break
    return state
