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

* Masked lanes are no-ops for later cuts.  Every later value holds rank 0
  (raising) or the top rank (lowering) at j, so on j's lanes a cut compares
  0 <= 0 or 0 <= top, and max(0, 0) and min(0, top) leave them 0; the other
  lanes see the same cut as on the full box.
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

The walk has two phases, split at the first raising level in any walk
order.  Only raising levels move the lower bound, so before the split every
state holds the root's: states are keyed on the upper bound alone, and each
lowering option is cut once, against the root.  After it, on the whole box.

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
masks makes max and min two masked selects.  Packing is a bijection between
rank vectors and ints, so the packed (lower, upper) keys merge exactly the
states that rank tuples merge.  Each term is read from a
table of c_j * grid[r] multiplied by one positive common multiple of the
denominators, looked up by the lane's rank, which makes every entry an
integer and keeps the order of objectives exact; only the winning box and
the returned region boxes are unpacked and decoded back to values.
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
    return (
        [
            (True, tuple((j, anchor(i, j)) for j in state.anchor_dom[i]))
            for i in state.lt_rows
        ]
        + [(False, tuple((v, maximal(i, v)) for v in state.eq_dom[i])) for i in state.eq_rows]
        + [(False, tuple((v, maximal(i, v)) for v in state.lt_dom[i])) for i in state.lt_rows]
    )


def _packed_levels(state: ReductionState) -> list:
    """``_levels`` on packed ranks, built from the targets and supports."""
    lanes, target, caps = state.lanes, state.target, state.cls.caps
    shifts, top = lanes.shifts, lanes.top
    ones = top * lanes.unit

    def anchor(i: int, j: int) -> int:
        return (target[i] << shifts[i - 1]) | (target[i] << shifts[j - 1])

    def maximal(i: int, variant: int) -> int:
        return ones - sum((top - target[i]) << shifts[j - 1] for j in caps(i, variant))

    return _levels(state, anchor, maximal)


def _triple(state: ReductionState, values: tuple[int, ...]) -> Triple:
    lt_rows, eq_rows = state.lt_rows, state.eq_rows
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
    """Per level, the mask of the lanes that some option moves: those where
    it differs from its level's no-op, rank 0 when it raises, the top rank
    when it lowers."""
    ones = lanes.top * lanes.unit
    masks = []
    for raises_lower, options in levels:
        noop = 0 if raises_lower else ones
        moved = 0
        for _, vec in options:
            moved |= lanes.ge_mask(vec ^ noop, lanes.unit)
        masks.append(moved)
    return masks


def _projection(lanes: Lanes, moved: list[int], picks: list) -> list:
    """(keep, dropped) at the root and after each level, given the levels'
    ``_moved_lanes`` masks in walk order: ``keep`` masks the lanes that some
    later level can still move, ``dropped`` lists the picks of the
    coordinates that no later level moves, each coordinate once (those that
    no level moves go with the root)."""
    everything = lanes.lane * lanes.unit
    step = lanes.w + 1

    def dropped(mask: int) -> list:
        out = []
        while mask:
            j = ((mask & -mask).bit_length() - 1) // step
            out.append(picks[j])
            mask &= ~(lanes.lane << (j * step))
        return out

    later, steps = 0, []
    for mask in reversed(moved):
        steps.append((later, dropped(mask & ~later)))
        later |= mask
    steps.append((later, dropped(everything & ~later)))
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
    """Packed (lower, upper) -> [multiplicity, smallest key] for every
    distinct nonempty state after the levels, walked in ``_walk_order`` in
    the two phases of the module docstring; the box stays nonempty iff the
    chosen vector lies on the right side of the bound it does not move.
    Without ``picks`` a key is a code and a state a whole box; with the
    per-coordinate ``(shift, side, table)`` picks each coordinate's term
    times R joins the key once no later level moves it, at the root for the
    coordinates that no level moves.  The root box is the ranked bounds,
    which ``gate_feasibility`` has already found uncrossed, so it is
    nonempty and not checked again here.  The per-pair loops write the
    ``Lanes`` operations out, which saves a method call per pair."""
    lanes = state.lanes
    guards, w, lane = lanes.guards, lanes.w, lanes.lane
    lower, upper = lanes.pack(state.lower), lanes.pack(state.upper)
    coded, radix = [], 1  # option k of level p adds k * w_p to the code
    for raises_lower, options in reversed(levels):
        coded.insert(0, (raises_lower, [(k * radix, vec) for k, (_, vec) in enumerate(options)]))
        radix *= len(options)
    moved = _moved_lanes(lanes, levels)
    order = _walk_order(levels, moved)
    walked = [coded[p] for p in order]
    if picks is None:
        steps = [(-1, ())] * (len(levels) + 1)
    else:
        picks = [(shift, side, [term * radix for term in table]) for shift, side, table in picks]
        steps = _projection(lanes, [moved[p] for p in order], picks)
    (keep, dropped), *steps = steps
    key = sum(table[((upper if side else lower) >> shift) & lane] for shift, side, table in dropped)
    lower, frontier = lower & keep, {upper & keep: [1, key]}
    split = next((k for k, (raises_lower, _) in enumerate(walked) if raises_lower), len(walked))
    for (_, options), (keep, dropped) in zip(walked[:split], steps):
        # every state shares ``lower``: its cut and its dropped terms go once per option
        charged = sum(table[(lower >> shift) & lane] for shift, side, table in dropped if not side)
        live = [(term + charged, vec) for term, vec in options if lanes.le(lower, vec)]
        uppers = [(shift, table) for shift, side, table in dropped if side]
        merged: dict = {}
        for upper, (count, key) in frontier.items():
            guarded = upper | guards
            for term, vec in live:
                ge = (((guarded - vec) & guards) >> w) * lane
                up = (vec & ge) | (upper & ~ge)
                total = key + term
                for shift, table in uppers:
                    total += table[(up >> shift) & lane]
                up &= keep
                entry = merged.get(up)
                if entry is None:
                    merged[up] = [count, total]
                else:
                    entry[0] += count
                    if total < entry[1]:
                        entry[1] = total
        frontier, lower = merged, lower & keep
    frontier = {(lower, upper): entry for upper, entry in frontier.items()}
    for (raises_lower, options), (keep, dropped) in zip(walked[split:], steps[split:]):
        merged = {}
        for (lower, upper), (count, key) in frontier.items():
            guarded_lower, guarded_upper = lower | guards, upper | guards
            for term, vec in options:
                if raises_lower:
                    if (guarded_upper - vec) & guards != guards:
                        continue
                    ge = (((guarded_lower - vec) & guards) >> w) * lane
                    lo, up = (lower & ge) | (vec & ~ge), upper
                else:
                    if ((vec | guards) - lower) & guards != guards:
                        continue
                    ge = (((guarded_upper - vec) & guards) >> w) * lane
                    lo, up = lower, (vec & ge) | (upper & ~ge)
                total = key + term
                for shift, side, table in dropped:
                    total += table[((up if side else lo) >> shift) & lane]
                box = (lo & keep, up & keep)
                entry = merged.get(box)
                if entry is None:
                    merged[box] = [count, total]
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
    """(picks, unit): per coordinate (shift, side, table), the exact
    objective term of a packed box as an int, smaller is better, is
    ``table[rank]`` of the lane at ``shift`` in ``box[side]``.  The side is
    ``_takes_upper``'s, as in ``make_candidate``, and each c_j * grid[r] is
    multiplied by the lcm of the c denominators times the lcm of the grid
    denominators, which makes it an integer (negated for max).  ``solve``
    reads the optimum off the winning key as its score times ``unit``, and
    the point by these sides; ``make_candidate`` is only the reference."""
    grid = lanes.grid
    c_scale = math.lcm(*(cj.denominator for cj in c))
    g_scale = math.lcm(*(value.denominator for value in grid))
    grid_ints = [value.numerator * (g_scale // value.denominator) for value in grid]
    sign = 1 if sense == "min" else -1
    picks = []
    for shift, cj, side in zip(lanes.shifts, c, _takes_upper(c, sense)):
        weight = sign * cj.numerator * (c_scale // cj.denominator)
        picks.append((shift, side, [weight * g for g in grid_ints]))
    return picks, Fraction(sign, c_scale * g_scale)


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
    lower, upper, values = lanes.pack(state.lower), lanes.pack(state.upper), []
    for raises_lower, options in reversed(levels):  # the winning triple's box
        code, k = divmod(code, len(options))
        value, vec = options[k]
        values.insert(0, value)
        if raises_lower:
            lower = lanes.max(lower, vec)
        else:
            upper = lanes.min(upper, vec)
    cell = lanes.decode(lower, upper)
    x = tuple([cell.upper[j] if side else cell.lower[j] for j, (_, side, _) in enumerate(picks)])
    best = Candidate(_triple(state, tuple(values)), cell, x, score * unit)
    return Solution("optimal", best, None, stats)


def resolve_region(inst: Instance, dedup: bool = True) -> tuple[list[Cell], Infeasibility | None]:
    """(the distinct nonempty boxes over admissible triples in stream order,
    None), or ([], the verdict ``solve`` gives), from one pipeline pass.  With
    ``dedup`` every box inside another returned box is dropped (first
    occurrence wins among equals), which does not change the union."""
    state, infeasible = _prepare(inst, use_rules=True)
    if infeasible is not None:
        return [], infeasible
    frontier = _frontier(state, _packed_levels(state))
    if not frontier:
        return [], Infeasibility(CAUSE_NO_TRIPLE)
    boxes = sorted(frontier, key=lambda box: frontier[box][1])  # stream order
    if dedup:  # packed until the end: dominance is the same on ranks
        le = state.lanes.le
        kept: list = []
        for lower, upper in boxes:
            if any(le(lo, lower) and le(upper, up) for lo, up in kept):
                continue
            kept = [(lo, up) for lo, up in kept if not (le(lower, lo) and le(up, upper))]
            kept.append((lower, upper))
        boxes = kept
    return [state.lanes.decode(lower, upper) for lower, upper in boxes], None


def feasible_region(inst: Instance, dedup: bool = True) -> list[Cell]:
    """``resolve_region``'s boxes: empty when infeasible."""
    return resolve_region(inst, dedup)[0]
