import itertools
import math

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from maxminfre import (
    aggregate_bounds,
    classify_rows,
    extremal_solutions,
    load_instance,
)
from maxminfre.extremals import BoundVectors, vec_max
from maxminfre.reduction import (
    CAUSE_ANCHORS,
    CAUSE_EQ_VARIANTS,
    CAUSE_LT_VARIANTS,
    apply_bound_rules,
    apply_minimal_rule3,
    initial_state,
    reduce_domains,
)

from . import reference
from .conftest import DEMO_SNAPSHOTS, DEMO_TRACE, frac, fracs, instances
from .reference import cell_of, is_empty, selector_bounds


def _pipeline(inst):
    cls = classify_rows(inst)
    ext = extremal_solutions(inst, cls)
    bounds = aggregate_bounds(ext, cls)
    return cls, ext, bounds


def _all_triples(cls):
    """Cross product of the untouched selector domains, in enumeration order."""
    anchor_doms = [cls.support[i] for i in cls.diag_lt]
    eq_doms = [(1, 2)] * len(cls.diag_eq)
    lt_doms = [(1, 2)] * len(cls.diag_lt)
    for anchors in itertools.product(*anchor_doms):
        for eqs in itertools.product(*eq_doms):
            for lts in itertools.product(*lt_doms):
                yield anchors, eqs, lts


def _admissible(inst, cls, ext, bounds, anchors, eqs, lts):
    sel = selector_bounds(
        ext,
        cls,
        dict(zip(cls.diag_eq, eqs)),
        dict(zip(cls.diag_lt, lts)),
        dict(zip(cls.diag_lt, anchors)),
    )
    return not is_empty(cell_of(bounds, sel))


def test_demo_masks(demo10):
    """Row tuples and initial domains on demo10; the extremal vectors come from ext."""
    cls, ext, bounds = _pipeline(demo10)
    state = initial_state(demo10, cls, bounds)
    assert cls.diag_eq == (2, 4, 5, 6) and cls.diag_lt == (7, 8, 10)
    assert ext.maximal(2, 1) == fracs(1, "0.57", 1, 1, 1, 1, 1, 1, 1, 1)
    assert state.anchor_dom == {7: (1, 3, 4, 6, 9, 10), 8: (1, 2, 4, 5, 7, 9), 10: (1, 2, 5, 9)}
    # rule 3 reads the anchored minimal at the anchor column: always b_i
    assert {ext.min_anchor[7, j][j - 1] for j in state.anchor_dom[7]} == {frac("0.55")}


def test_masks_empty_when_no_lt_rows():
    """A 1x1 instance has no eq or lt rows, so every initial domain is empty."""
    inst = load_instance({"A": [["0.9"]], "b": ["0.5"], "c": ["1"]})
    cls, _, bounds = _pipeline(inst)
    state = initial_state(inst, cls, bounds)
    assert cls.diag_eq == () and cls.diag_lt == ()
    assert state.eq_dom == state.lt_dom == state.anchor_dom == {}


def test_demo_trace_and_snapshots(demo10):
    cls, ext, bounds = _pipeline(demo10)
    state = reduce_domains(demo10, cls, ext, bounds)
    assert [(e.rule, e.target, e.removed, e.witness) for e in state.trace] == list(DEMO_TRACE)
    assert tuple(state.snapshots) == DEMO_SNAPSHOTS
    assert state.infeasible is None


def test_demo_final_domains(demo10):
    cls, ext, bounds = _pipeline(demo10)
    state = reduce_domains(demo10, cls, ext, bounds)
    assert state.eq_dom == {2: (1,), 4: (1,), 5: (1,), 6: (1, 2)}
    assert state.lt_dom == {7: (1,), 8: (1,), 10: (1,)}
    assert state.anchor_dom == {7: (1, 6), 8: (1,), 10: (1, 2)}
    assert state.cardinalities() == (2, 1, 4)


def test_demo_anchor_domains_after_rule3(demo10):
    cls, ext, bounds = _pipeline(demo10)
    state = initial_state(demo10, cls, bounds)
    apply_bound_rules(state)
    apply_minimal_rule3(state)
    assert state.anchor_dom == {7: (1, 4, 6, 10), 8: (1, 2, 4, 5, 7), 10: (1, 2, 5)}


def test_trace_replay_reproduces_domains(demo10):
    cls, ext, bounds = _pipeline(demo10)
    state = reduce_domains(demo10, cls, ext, bounds)
    replayed = initial_state(demo10, cls, bounds)
    for event in state.trace:
        if event.rule in (1, 4):
            dom = replayed.eq_dom
        elif event.rule in (2, 5):
            dom = replayed.lt_dom
        else:
            dom = replayed.anchor_dom
        dom[event.target] = tuple(v for v in dom[event.target] if v != event.removed)
    assert replayed.eq_dom == state.eq_dom
    assert replayed.lt_dom == state.lt_dom
    assert replayed.anchor_dom == state.anchor_dom


def test_anchors_exhausted_by_bound_conflict():
    # the only anchor sits on a diag_gt column with a smaller target
    inst = load_instance(
        {"A": [["0.8", "0"], ["0.9", "0.1"]], "b": ["0.5", "0.7"], "c": ["1", "1"]}
    )
    cls, ext, bounds = _pipeline(inst)
    state = reduce_domains(inst, cls, ext, bounds)
    assert state.infeasible is not None
    assert state.infeasible.cause == CAUSE_ANCHORS
    assert state.infeasible.rows == (2,)
    assert state.trace[0].rule == 3


def test_anchors_exhausted_only_after_pinning():
    # rule 1 pins row 2 to variant 1, then rule 6 removes row 3's only anchor
    inst = load_instance(
        {
            "A": [["0.95", "0.1", "0.1"], ["0.8", "0.5", "0.1"], ["0.2", "0.7", "0.1"]],
            "b": ["0.9", "0.5", "0.6"],
            "c": ["1", "1", "1"],
        }
    )
    cls, ext, bounds = _pipeline(inst)
    state = reduce_domains(inst, cls, ext, bounds)
    assert [e.rule for e in state.trace] == [1, 6]
    assert state.infeasible is not None and state.infeasible.cause == CAUSE_ANCHORS


def test_variant_exhaustion_verdicts_with_synthetic_bounds():
    # No valid instance yields a combined lower bound with off-diagonal mass,
    # so both-variant elimination is driven here with hand-made bounds to
    # prove the verdict plumbing works.
    inst = load_instance(
        {"A": [["0.5", "0.6"], ["0.1", "0.2"]], "b": ["0.5", "0.2"], "c": ["1", "1"]}
    )
    cls, _, _ = _pipeline(inst)
    fake = BoundVectors(
        lower_gt=fracs("0.9", "0.9"),
        upper_gt=fracs(1, 1),
        lower_eq=fracs(0, 0),
        lower=fracs("0.9", "0.9"),
    )
    state = apply_bound_rules(initial_state(inst, cls, fake))
    assert state.infeasible is not None and state.infeasible.cause == CAUSE_EQ_VARIANTS
    assert state.eq_dom[1] == ()

    inst2 = load_instance(
        {"A": [["0.1", "0.6"], ["0.1", "0.9"]], "b": ["0.5", "0.2"], "c": ["1", "1"]}
    )
    cls2, _, _ = _pipeline(inst2)
    state2 = apply_bound_rules(initial_state(inst2, cls2, fake))
    assert state2.infeasible is not None and state2.infeasible.cause == CAUSE_LT_VARIANTS


def test_table_holds_caller_made_bounds():
    # a bound component off the instance grid is still ranked, not rejected
    inst = load_instance({"A": [["0.9"]], "b": ["0.5"], "c": ["1"]})
    cls, _, _ = _pipeline(inst)
    fake = BoundVectors(
        lower_gt=fracs("0.5"), upper_gt=fracs("0.5"), lower_eq=fracs("0.8"), lower=fracs("0.8")
    )
    state = initial_state(inst, cls, fake)
    assert state.lanes.grid == fracs(0, "0.5", "0.8", 1)
    assert (state.lower, state.upper) == ((2,), (1,))


@st.composite
def instance_with_synthetic_bounds(draw):
    """An instance with caller-made bound vectors: every component is drawn
    from {0, 1}, the targets, and 0.05, 0.95 and 0.333, which need not be
    values of the instance."""
    inst = draw(instances(max_n=5))
    component = st.sampled_from(sorted({*inst.b, *fracs(0, 1, "0.05", "0.95", "0.333")}))
    vec = st.lists(component, min_size=inst.n, max_size=inst.n).map(tuple)
    lower_gt, upper_gt, lower_eq = draw(vec), draw(vec), draw(vec)
    return inst, BoundVectors(lower_gt, upper_gt, lower_eq, vec_max(lower_gt, lower_eq))


@settings(max_examples=300)
@given(instance_with_synthetic_bounds())
def test_rules_match_reference_on_synthetic_bounds(case):
    inst, bounds = case
    cls = classify_rows(inst)
    ext = extremal_solutions(inst, cls)
    state = reduce_domains(inst, cls, ext, bounds)
    expected = reference.reduce_domains(inst, cls, ext, bounds)
    assert [(e.rule, e.target, e.removed, e.witness) for e in state.trace] == [
        (e.rule, e.target, e.removed, e.witness) for e in expected.trace
    ]
    assert state.snapshots == expected.snapshots
    assert state.infeasible == expected.infeasible
    assert (state.eq_dom, state.lt_dom, state.anchor_dom) == (
        expected.eq_dom,
        expected.lt_dom,
        expected.anchor_dom,
    )


def test_rules_silent_on_constant_targets():
    inst = load_instance(
        {
            "A": [["0.9", "0.8", "0.2"], ["0.8", "0.5", "0.9"], ["0.9", "0.6", "0.2"]],
            "b": ["0.5", "0.5", "0.5"],
            "c": ["1", "1", "1"],
        }
    )
    cls, ext, bounds = _pipeline(inst)
    state = reduce_domains(inst, cls, ext, bounds)
    assert [e.rule for e in state.trace if e.rule in (4, 5, 6, 7)] == []


def test_rules_silent_without_lower_mass():
    # all rows diag_lt: the combined lower bound is zero, so rules 1-2 never
    # fire, and the diag_gt upper bound is all-ones, so rule 3 never fires
    inst = load_instance(
        {"A": [["0.1", "0.9"], ["0.9", "0.1"]], "b": ["0.5", "0.5"], "c": ["1", "1"]}
    )
    cls, ext, bounds = _pipeline(inst)
    state = reduce_domains(inst, cls, ext, bounds)
    assert [e.rule for e in state.trace if e.rule in (1, 2, 3)] == []


def test_snapshot_products_match_domains(demo10):
    cls, ext, bounds = _pipeline(demo10)
    state = reduce_domains(demo10, cls, ext, bounds)
    eq, lt, anchor = state.cardinalities()
    assert eq == math.prod(len(d) for d in state.eq_dom.values())
    assert lt == math.prod(len(d) for d in state.lt_dom.values())
    assert anchor == math.prod(len(d) for d in state.anchor_dom.values())
    assert state.snapshots[-1][1:] == (eq, lt, anchor)


@given(instances(max_n=3))
def test_removed_values_only_kill_empty_cells(inst):
    cls, ext, bounds = _pipeline(inst)
    assume(not cls.empty_support)
    total = (
        math.prod(len(cls.support[i]) for i in cls.diag_lt)
        * 2 ** len(cls.diag_eq)
        * 2 ** len(cls.diag_lt)
    )
    assume(0 < total <= 400)
    state = reduce_domains(inst, cls, ext, bounds)
    anchor_pos = {i: k for k, i in enumerate(cls.diag_lt)}
    eq_pos = {i: k for k, i in enumerate(cls.diag_eq)}
    for event in state.trace:
        for anchors, eqs, lts in _all_triples(cls):
            if event.rule in (1, 4):
                hit = eqs[eq_pos[event.target]] == event.removed
            elif event.rule in (2, 5):
                hit = lts[anchor_pos[event.target]] == event.removed
            else:
                hit = anchors[anchor_pos[event.target]] == event.removed
            if hit:
                assert not _admissible(inst, cls, ext, bounds, anchors, eqs, lts)


@given(instances(max_n=3))
def test_reduction_preserves_admissible_set(inst):
    cls, ext, bounds = _pipeline(inst)
    assume(not cls.empty_support)
    total = math.prod(len(cls.support[i]) for i in cls.diag_lt) * 2 ** len(
        cls.diag_eq
    ) * 2 ** len(cls.diag_lt)
    assume(0 < total <= 400)
    state = reduce_domains(inst, cls, ext, bounds)
    full = {
        (anchors, eqs, lts)
        for anchors, eqs, lts in _all_triples(cls)
        if _admissible(inst, cls, ext, bounds, anchors, eqs, lts)
    }
    surviving = {
        (anchors, eqs, lts)
        for anchors, eqs, lts in _all_triples(cls)
        if all(
            a in state.anchor_dom[i]
            for i, a in zip(cls.diag_lt, anchors)
        )
        and all(e in state.eq_dom[i] for i, e in zip(cls.diag_eq, eqs))
        and all(v in state.lt_dom[i] for i, v in zip(cls.diag_lt, lts))
        and _admissible(inst, cls, ext, bounds, anchors, eqs, lts)
    }
    assert full == surviving
    if state.infeasible is not None:
        assert not full
