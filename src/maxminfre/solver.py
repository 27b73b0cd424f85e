"""End-to-end solve pipeline.

classify -> bounds -> feasibility gates -> rules -> selector levels ->
merged states scored coordinate by coordinate -> the winning box's
candidate.  The bounds, the rules and the levels read the row targets from
the ``Instance``, so a solve builds no extremal vector; only the reference
stream ``enumerate_admissible`` reads an ``ExtremalSet``.  A selector triple
(anchor assignment, diag_eq variants, diag_lt variants) is admissible when
its box is nonempty; by construction the feasible region is exactly the
union of those boxes, and some admissible triple's candidate attains the
optimum.  ``gate_feasibility`` is the only check of the root box (the
combined lower bound against the diag_gt upper bound): past it the root box
is nonempty, and the walks start from its ranks.

The selectors form one table of levels, one per row: anchor rows raise the
partial box's lower bound, then eq rows and lt rows lower its upper bound,
and a choice is cut as soon as the box is empty somewhere.  A depth-first
walk (``enumerate_admissible``) streams every admissible triple in lex order;
it is the reference that the merged walk below is checked against.

The merged walk builds the table level by level instead and merges the
choices that reach the same partial box, since what follows depends only on
the box.  It names each triple by an integer code: with d_p the option count
of level p, w_p the product of d_q over q > p and R the product of all d_q,
option k of level p (values ascend within a level) adds k * w_p, so a code
is the triple's mixed-radix numeral and codes order triples lexicographically
(Knuth, TAOCP vol. 2, section 4.1).  A merged state sums its counts and keeps
the smallest key.  ``feasible_region`` keys states on the code, so a final
box keeps the code of its first triple in the stream, and sorting by it
gives stream order.

``solve`` runs the same walk on projected states.  The objective is a sum of
one term per coordinate.  After the last walked level that can move
coordinate j (a raising level with some value of rank > 0 at j, a lowering
level with some value below the top rank there; the root if none can), j's
bounds are final and already checked, and they fix j's term.  The walk adds
that term times R to the state's key, so a key is score * R + code, and
masks j's lanes to zero in both halves of the box.  Two facts keep this
exact:

* Masked lanes are no-ops for later options.  Every later anchored minimal
  holds rank 0 at j and every later maximal the top rank, so a later
  option's box int is 0 on j's lanes in both halves and its cap the top
  rank there: the cut compares 0 <= top and the max leaves the lanes 0 in
  the high half, where a lower bound would be, as in the low half, where an
  upper bound would be; the other lanes see the same cut as on the full box.
* Merged states share all later terms.  States with the same masked box take
  the same cuts at every later level and gain the same later objective and
  code terms, so under any common suffix the state of smaller key gives the
  smaller triple.  A code is below R, so the smaller key has the smaller
  score and, among equal scores, the smaller code.

Neither fact depends on the walk order, so ``_walk_order`` chooses it for
speed alone.  A table with a raising level walks its anchor levels last,
under an upper bound that has already fallen and cuts them early.  A table
of lowering levels only, such as a vertex cover's, is walked by live
coordinates, those moved both by a walked level and by a level still to
walk: the others are masked or still at the root box, so the states differ
only on the live lanes, and each step takes the level that leaves the fewest
live.  That greedy is a heuristic for vertex separation, which equals
pathwidth (Kinnersley, IPL 42, 1992).

The walk is one loop over the levels, and a state is one box int.  Only
raising levels move the lower bound, and a lowering cut reads the lower bound
alone, so in any walk order the lowering options walked before the first
raising level are cut once, against the root box, and skip the per-pair cut.

After the last level every coordinate is masked and at most one state is
left: its count is the admissible count, and its key divmod R gives the
score, the optimum in integer units, and the code of the lex-smallest
optimal triple, whose digits rebuild the winning box.  ``make_candidate``,
which sums a box's objective in ``Fraction``s, is only the reference.

The merged walk runs on the ranks of the solve's one grid, not on
``Fraction``s: ``reduction.initial_state`` builds one ``extremals.Lanes`` from
the values the walk compares.  For ``aggregate_bounds`` output that grid is
{0, 1} union {b_i}, which holds every component of every extremal vector and
of the root box, and the min and max of grid values are again grid values,
so ranking is an order isomorphism: every cut, every merge and the frontier
keys are the same on ranks as on values.  The levels are built from the row
targets' ranks and the supports: an anchored minimal is rank 0 except the
target at its row and anchor, a maximal is the top rank except the target at
its row (variant 1) or on the row's strict support (variant 2).  A value off
the grid would break the argument, so ``Lanes.rank`` raises ``KeyError`` for
it.

Each rank vector is packed into one int by the same ``Lanes``.  With w the
bit length of (grid size - 1), coordinate j owns the w + 1 bits from
j(w + 1) up: its rank in the low w bits and a zero guard bit on top.
Setting every guard bit of a and subtracting b leaves 2^w + a_j - b_j in
lane j, which lies in [1, 2^(w+1) - 1], so no lane borrows from its
neighbour and the guard bit survives exactly where a_j >= b_j.  All guards
surviving is the lane-wise <= test; widening the survivors to whole-lane
masks makes max one masked select.  A box is one int of 2n lanes
(``Lanes.box``): top - upper in the low n and lower in the high n, which
keeps every cover's box int as narrow as its upper bound, since b = 0 makes
its lower bound 0.  Each option is the box int of the points on the right
side of its vector, so the cut box is the lane-wise max of the two; two
nonempty boxes meet iff each lower bound is at or below the other's upper
bound, one lane-wise <= against the option's ``Lanes.cap``; and box A
contains box B iff A <= B lane-wise.  Packing is a bijection between pairs
of rank vectors and ints, so box-int keys merge exactly the states that rank
tuples merge.  Each term is read from a table of c_j * grid[r] multiplied by
one positive common multiple of the denominators, looked up by the lane's
value, which makes every entry an integer and keeps the order of objectives
exact; only the winning box and the returned region boxes are read back as
values, off the grid of the loaded values themselves (``Lanes.cell``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .exact import ZERO, Vec
from .extremals import (
    BoundVectors,
    Cell,
    ExtremalSet,
    Lanes,
    RowClassification,
    aggregate_bounds,
    classify_rows,
    vec_le,
    vec_max,
    vec_min,
)
from .model import Instance
from .reduction import (
    CAUSE_BOUND_CROSSING,
    CAUSE_EMPTY_SUPPORT,
    CAUSE_NO_TRIPLE,
    Infeasibility,
    ReductionState,
    TraceEvent,
    initial_state,
    reduce_domains,
)


class Triple(NamedTuple):
    """One selector choice; value tuples follow ascending row order."""

    anchor_rows: tuple[int, ...]
    anchors: tuple[int, ...]
    eq_rows: tuple[int, ...]
    eq_choices: tuple[int, ...]
    lt_rows: tuple[int, ...]
    lt_choices: tuple[int, ...]

    @property
    def eq_choice(self) -> dict[int, int]:
        return dict(zip(self.eq_rows, self.eq_choices))


class Candidate(NamedTuple):
    triple: Triple
    cell: Cell
    x: Vec
    objective: Fraction


# a dataclass, not a NamedTuple: per-stage timings are to join as a
# compare=False field, so that equal solves stay equal
@dataclass(frozen=True)
class Statistics:
    enumerated: int  # size of the reduced selector product
    admissible: int  # triples whose box is nonempty
    initial_cards: tuple[int, int, int]  # (eq, lt, anchor) domain products
    final_cards: tuple[int, int, int]
    rule_firings: tuple[tuple[int, int], ...]  # (rule, count), rules that fired
    trace: tuple[TraceEvent, ...]


class Solution(NamedTuple):
    status: str  # "optimal" | "infeasible"
    candidate: Candidate | None
    cause: Infeasibility | None
    statistics: Statistics

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


_EMPTY_STATS = Statistics(0, 0, (1, 1, 1), (1, 1, 1), (), ())


def gate_feasibility(
    inst: Instance, cls: RowClassification, bounds: BoundVectors
) -> Infeasibility | None:
    """Cheap necessary conditions checked before any enumeration."""
    if cls.empty_support:
        return Infeasibility(CAUSE_EMPTY_SUPPORT, cls.empty_support)
    rows = tuple(j for j, lo, up in zip(inst.rows, bounds.lower, bounds.upper_gt) if lo > up)
    return Infeasibility(CAUSE_BOUND_CROSSING, rows) if rows else None


def _stats(state: ReductionState, admissible: int = 0, enumerated: int = 0) -> Statistics:
    firings = Counter(event.rule for event in state.trace)
    return Statistics(
        enumerated=enumerated,
        admissible=admissible,
        initial_cards=state.snapshots[0][1:],
        final_cards=state.cardinalities(),
        rule_firings=tuple(sorted(firings.items())),
        trace=tuple(state.trace),
    )


def _levels(state: ReductionState, anchor, maximal) -> list:
    """One (raises_lower, ((value, vector), ...)) level per selector row:
    anchor rows raise ``lower`` by ``anchor(row, column)``, then eq rows and
    lt rows lower ``upper`` by ``maximal(row, variant)``; values ascend
    within a level."""
    eq_rows, lt_rows = state.cls.diag_eq, state.cls.diag_lt
    return (
        [(True, tuple((j, anchor(i, j)) for j in state.anchor_dom[i])) for i in lt_rows]
        + [(False, tuple((v, maximal(i, v)) for v in state.eq_dom[i])) for i in eq_rows]
        + [(False, tuple((v, maximal(i, v)) for v in state.lt_dom[i])) for i in lt_rows]
    )


def _packed_levels(state: ReductionState) -> list:
    """``_levels`` on box ints, built from the targets and supports: an
    option is the box of the points on the right side of its vector, {x >=
    anchored minimal} or {x <= maximal}, so it is 0 on every lane it does
    not move."""
    lanes, target, caps = state.lanes, state.target, state.cls.caps
    shifts, top, half = lanes.shifts, lanes.top, lanes.half

    def anchor(i: int, j: int) -> int:
        return ((target[i] << shifts[i - 1]) | (target[i] << shifts[j - 1])) << half

    def maximal(i: int, variant: int) -> int:
        return sum((top - target[i]) << shifts[j - 1] for j in caps(i, variant))

    return _levels(state, anchor, maximal)


def _triple(state: ReductionState, values: tuple[int, ...]) -> Triple:
    lt_rows, eq_rows = state.cls.diag_lt, state.cls.diag_eq
    a, e = len(lt_rows), len(lt_rows) + len(eq_rows)
    return Triple(lt_rows, values[:a], eq_rows, values[a:e], lt_rows, values[e:])


def enumerate_admissible(
    state: ReductionState,
    bounds: BoundVectors,
    ext: ExtremalSet,
) -> Iterator[tuple[Triple, Cell]]:
    """Yield (triple, nonempty box) over the reduced domains in lex order."""
    levels = _levels(state, lambda i, j: ext.min_anchor[i, j], ext.maximal)
    root = (bounds.lower, bounds.upper_gt)
    stack = [(root, ())] if vec_le(*root) else []
    while stack:
        (lower, upper), chosen = stack.pop()
        if len(chosen) == len(levels):
            yield _triple(state, chosen), Cell(lower, upper)
            continue
        raises_lower, options = levels[len(chosen)]
        for value, vec in reversed(options):
            box = (vec_max(lower, vec), upper) if raises_lower else (lower, vec_min(upper, vec))
            if vec_le(*box):
                stack.append((box, chosen + (value,)))


def _moved_lanes(lanes: Lanes, levels: list) -> list[int]:
    """Per level, the mask of the coordinates that some option moves: those
    whose lane is nonzero in either half of an option's box int."""
    low = (1 << lanes.half) - 1
    masks = []
    for _, options in levels:
        moved = 0
        for _, vec in options:
            moved |= vec
        masks.append(lanes.ge_mask(moved | moved >> lanes.half, lanes.unit) & low)
    return masks


def _projection(lanes: Lanes, moved: list[int], picks: list) -> list:
    """(keep, dropped) at the root and after each level, given the levels'
    ``_moved_lanes`` masks in walk order.  ``keep`` masks the lanes, in both
    halves of a box int, that some later level can still move.  ``dropped``
    lists the picks of the coordinates that a step moves and no later level
    does, so each coordinate is dropped once; the root's step counts as
    moving every lane, so it drops those that no level moves."""
    later, steps = 0, []
    for mask in [*reversed(moved), lanes.lane * lanes.unit]:
        gone, dropped = mask & ~later, []
        if gone:  # about 40% of a cover's steps drop nothing: skip their scan
            dropped = [pick for pick, shift in zip(picks, lanes.shifts) if gone >> shift & 1]
        steps.append((later | later << lanes.half, dropped))
        later |= mask
    return steps[::-1]


def _walk_order(levels: list, moved: list[int]) -> list[int]:
    """The levels' indices in walk order, given their ``_moved_lanes`` masks.

    A table with a raising level walks the lowering levels (eq rows, then lt
    rows), then the raising anchor levels, fewest options first, ties in
    table order.  A lowering-only table is walked by live coordinates, those
    moved both by a walked level and by a level still to walk: each step
    takes the level that leaves the fewest live, ties in table order, a
    greedy heuristic for vertex separation, which equals pathwidth
    (Kinnersley, IPL 42, 1992).  With ``once`` and ``more`` the lanes that
    the unwalked levels move exactly once and more than once, taking a level
    of mask m opens the unwalked lanes of m in ``more`` and closes the walked
    lanes of m in ``once``."""
    raising = [p for p, (raises_lower, _) in enumerate(levels) if raises_lower]
    if raising:
        lowering = [p for p, (raises_lower, _) in enumerate(levels) if not raises_lower]
        return lowering + sorted(raising, key=lambda p: len(levels[p][1]))
    order, rest, walked = [], list(enumerate(moved)), 0
    while rest:
        once = more = 0
        for _, mask in rest:
            more |= once & mask
            once |= mask
        opening, closing = more & ~walked, once & ~more & walked
        costs = [(mask & opening).bit_count() - (mask & closing).bit_count() for _, mask in rest]
        p, mask = rest.pop(costs.index(min(costs)))
        order.append(p)
        walked |= mask
    return order


def _frontier(state: ReductionState, levels: list, picks: list | None = None) -> dict:
    """Box int -> [multiplicity, smallest key] for every distinct nonempty
    state after the levels, walked in ``_walk_order``.  An option meets a
    state iff the state lies lane-wise under the option's ``Lanes.cap``, and
    then the new state is their lane-wise max.  A lowering cut compares the
    option with the lower bound alone, which only raising levels move, so
    the lowering levels walked before the first raising one are cut once,
    against the root box, and carry a cap of 0, which the per-pair test
    skips.  Without ``picks`` a key is a code and a state a whole box; with
    the per-coordinate ``(shift, table)`` picks each coordinate's term times
    R joins the key once no later level moves it, at the root for the
    coordinates that no level moves.  The root box is the ranked bounds,
    which ``gate_feasibility`` has already found uncrossed, so it is
    nonempty and not checked again here.  The per-pair loop writes the
    ``Lanes`` operations out, which saves a method call per pair."""
    lanes = state.lanes
    w, lane = lanes.w, lanes.lane
    root = active = lanes.box(state.lower, state.upper)
    coded, radix = [], 1  # option k of level p adds k * w_p to the code
    for _, options in reversed(levels):
        coded.insert(0, [(k * radix, vec, lanes.cap(vec)) for k, (_, vec) in enumerate(options)])
        radix *= len(options)
        for _, vec in options:
            active |= vec
    # a lane that the root and every option leave 0 stays 0 in every state, and
    # 0 - 0 borrows nothing, so only the other lanes get a guard bit: a cover's
    # lower bound is 0, and its box ints stay as narrow as its upper bounds
    guards = (active + (lanes.guards >> w) * lane) & lanes.guards
    moved = _moved_lanes(lanes, levels)
    order = _walk_order(levels, moved)
    walked, raised = [], False
    for p in order:
        raised = raised or levels[p][0]
        options = coded[p]
        if not raised:  # every state holds the root's lower bound
            options = [(term, vec, 0) for term, vec, cap in options if lanes.le(root, cap)]
        walked.append(options)
    if picks is None:
        steps = [(-1, ())] * (len(levels) + 1)
    else:
        picks = [(shift, [term * radix for term in table]) for shift, table in picks]
        steps = _projection(lanes, [moved[p] for p in order], picks)
    (keep, dropped), *steps = steps
    frontier = {root & keep: [1, sum(table[(root >> shift) & lane] for shift, table in dropped)]}
    for options, (keep, dropped) in zip(walked, steps):
        merged: dict = {}
        for box, (count, key) in frontier.items():
            guarded = box | guards
            for term, vec, cap in options:
                if cap and (cap - box) & guards != guards:
                    continue
                ge = (((guarded - vec) & guards) >> w) * lane
                met = (box & ge) | (vec & ~ge)
                total = key + term
                for shift, table in dropped:
                    total += table[(met >> shift) & lane]
                met &= keep
                entry = merged.get(met)
                if entry is None:
                    merged[met] = [count, total]
                else:
                    entry[0] += count
                    if total < entry[1]:
                        entry[1] = total
        frontier = merged
    return frontier


def _takes_upper(c: Vec, sense: str) -> list[bool]:
    """Per coordinate j, whether a box's best point takes the upper bound:
    a nonnegative c_j takes the lower bound when minimizing and the upper
    when maximizing, a negative c_j the other one."""
    minimize = sense == "min"
    return [(cj >= ZERO) != minimize for cj in c]


def make_candidate(triple: Triple, cell: Cell, c: Vec, sense: str) -> Candidate:
    """Per-box optimum: coordinates split by cost sign between the bounds;
    the reference for ``solve``, which reads its optimum off the key."""
    x = tuple(
        [cell.upper[j] if up else cell.lower[j] for j, up in enumerate(_takes_upper(c, sense))]
    )
    objective = sum((cj * xj for cj, xj in zip(c, x)), ZERO)
    return Candidate(triple=triple, cell=cell, x=x, objective=objective)


def _picks(lanes: Lanes, c: Vec, sense: str) -> tuple[list, Fraction]:
    """(picks, unit): per coordinate (shift, table), the exact objective term
    of a box int as an int, smaller is better, is ``table[lane]`` for its
    lane at ``shift``.  A coordinate on ``_takes_upper``'s upper side, as in
    ``make_candidate``, reads top - rank from the low half through the
    reversed table, one on the lower side its rank from the high half.  Each
    c_j * grid[r] is multiplied by the lcm of the c denominators times the
    grid's ``Lanes.scale``, which makes it c_j's integer times the grid's
    ``Lanes.ints[r]`` (negated for max).  ``solve`` reads the optimum off the
    winning key as its score times ``unit``; ``make_candidate`` is only the
    reference."""
    c_scale = math.lcm(*(cj.denominator for cj in c))
    sign = 1 if sense == "min" else -1
    picks = []
    for shift, cj, up in zip(lanes.shifts, c, _takes_upper(c, sense)):
        table = [sign * cj.numerator * (c_scale // cj.denominator) * g for g in lanes.ints]
        picks.append((shift, table[::-1]) if up else (shift + lanes.half, table))
    return picks, Fraction(sign, c_scale * lanes.scale)


def _prepare(inst: Instance, use_rules: bool):
    """(state, verdict); the state is None when the gate decides."""
    cls = classify_rows(inst)
    bounds = aggregate_bounds(inst, cls)
    gate = gate_feasibility(inst, cls, bounds)
    if gate is not None:
        return None, gate
    if use_rules:
        state = reduce_domains(inst, cls, None, bounds)
    else:
        state = initial_state(inst, cls, bounds)
    return state, state.infeasible


def solve(inst: Instance, use_rules: bool = True) -> Solution:
    """Global optimum or an infeasibility verdict naming its detector."""
    state, infeasible = _prepare(inst, use_rules)
    if infeasible is not None:
        stats = _stats(state) if state is not None else _EMPTY_STATS
        return Solution("infeasible", None, infeasible, stats)

    lanes, levels = state.lanes, _packed_levels(state)
    picks, unit = _picks(lanes, inst.c, inst.sense)
    frontier = _frontier(state, levels, picks)
    admissible = sum(count for count, _ in frontier.values())
    stats = _stats(state, admissible, enumerated=math.prod(state.cardinalities()))
    if not frontier:
        return Solution("infeasible", None, Infeasibility(CAUSE_NO_TRIPLE), stats)
    ((_, key),) = frontier.values()  # every coordinate is masked
    score, code = divmod(key, math.prod(len(options) for _, options in levels))
    box, values = lanes.box(state.lower, state.upper), []
    for _, options in reversed(levels):  # the winning triple's box
        code, k = divmod(code, len(options))
        value, vec = options[k]
        values.insert(0, value)
        box = lanes.max(box, vec)
    cell = lanes.cell(box)
    # a pick in the high half reads the lower bound
    x = tuple([lo if shift >= lanes.half else up for lo, up, (shift, _) in zip(*cell, picks)])
    best = Candidate(_triple(state, tuple(values)), cell, x, score * unit)
    return Solution("optimal", best, None, stats)


def resolve_region(inst: Instance, dedup: bool = True) -> tuple[list[Cell], Infeasibility | None]:
    """(the distinct nonempty boxes over admissible triples in stream order,
    None), or ([], the verdict ``solve`` gives), from one pipeline pass.  With
    ``dedup`` only the maximal boxes are kept, those inside no other walked
    box, still in stream order, which does not change the union.  The walk
    merges equal boxes, so no two of them are equal.  Each container lies
    inside a maximal box, so a box is tested against the maximal boxes found
    before it, walking in an order that puts every container first."""
    state, infeasible = _prepare(inst, use_rules=True)
    if infeasible is not None:
        return [], infeasible
    frontier = _frontier(state, _packed_levels(state))
    if not frontier:
        return [], Infeasibility(CAUSE_NO_TRIPLE)
    boxes = sorted(frontier, key=lambda box: frontier[box][1])  # stream order
    if dedup:  # box A contains box B iff A <= B lane-wise, so a container is the smaller int
        le, maximal = state.lanes.le, []
        for b in sorted(boxes):  # every box after its containers
            if not any(le(a, b) for a in maximal):
                maximal.append(b)
        boxes = [b for b in boxes if b in maximal]
    return [state.lanes.cell(box) for box in boxes], None


def feasible_region(inst: Instance, dedup: bool = True) -> list[Cell]:
    """``resolve_region``'s boxes: empty when infeasible."""
    return resolve_region(inst, dedup)[0]
