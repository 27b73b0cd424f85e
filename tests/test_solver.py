import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from maxminfre import (
    Instance,
    aggregate_bounds,
    cell_of,
    check_membership,
    classify_rows,
    extremal_solutions,
    feasible_region,
    gate_feasibility,
    load_instance,
    make_candidate,
    make_graph,
    selector_bounds,
    solve,
    solve_cover,
    verify_structure,
)
from maxminfre.exact import ONE, ZERO, rank_table, ranked
from maxminfre.extremals import BoundVectors, Cell, Lanes, vec_le, vec_max, vec_min
from maxminfre.generate import random_fre_doc, random_graph_edges
from maxminfre.oracle import specialized_cover
from maxminfre.reduction import (
    CAUSE_BOUND_CROSSING,
    CAUSE_EMPTY_SUPPORT,
    CAUSE_NO_TRIPLE,
    initial_state,
    reduce_domains,
)
from maxminfre.solver import enumerate_admissible

from .conftest import (
    DEMO_OBJECTIVE,
    DEMO_OPTIMUM,
    DEMO_REGION_LOWER,
    DEMO_REGION_UPPER,
    RULES_BLIND_INFEASIBLE,
    fine_instances,
    frac,
    fracs,
    graphs,
    instances,
)


def _prep(inst):
    cls = classify_rows(inst)
    ext = extremal_solutions(inst, cls)
    bounds = aggregate_bounds(ext, cls)
    return cls, ext, bounds


def test_gate_reports_empty_support():
    inst = load_instance({"A": [["0.2"]], "b": ["0.6"], "c": ["1"]})
    cls, ext, bounds = _prep(inst)
    verdict = gate_feasibility(inst, cls, bounds)
    assert verdict is not None and verdict.cause == CAUSE_EMPTY_SUPPORT


def test_gate_passes_two_pinned_rows():
    inst = load_instance(
        {"A": [["0.9", "0.1"], ["0.1", "0.9"]], "b": ["0.5", "0.8"], "c": ["1", "1"]}
    )
    cls, ext, bounds = _prep(inst)
    assert gate_feasibility(inst, cls, bounds) is None
    from maxminfre.oracle import grid_optimum

    assert solve(inst).optimal and grid_optimum(inst).feasible


def test_gate_detects_synthetic_crossing():
    # real instances only put lower-bound mass on each row's own coordinate,
    # so a crossing cannot arise from aggregate_bounds; feed one directly
    inst = load_instance({"A": [["0.9"]], "b": ["0.5"], "c": ["1"]})
    cls, _, _ = _prep(inst)
    fake = BoundVectors(lower_gt=(frac("0.5"),), upper_gt=(frac("0.5"),), lower_eq=(frac("0.8"),))
    verdict = gate_feasibility(inst, cls, fake)
    assert verdict is not None and verdict.cause == CAUSE_BOUND_CROSSING
    assert verdict.rows == (1,)


def test_demo_enumeration_counts(demo10):
    sol = solve(demo10)
    assert sol.statistics.enumerated == 8
    assert sol.statistics.admissible == 8
    assert sol.statistics.initial_cards == (16, 8, 144)
    assert sol.statistics.final_cards == (2, 1, 4)


def test_enumeration_streams_in_lexicographic_order(demo10):
    cls, ext, bounds = _prep(demo10)
    from maxminfre.reduction import reduce_domains

    state = reduce_domains(demo10, cls, ext, bounds)
    keys = [t.key() for t, _ in enumerate_admissible(state, bounds, ext)]
    assert keys == sorted(keys)
    assert keys[0] == ((1, 1, 1), (1, 1, 1, 1), (1, 1, 1))
    assert ((1, 1, 1), (1, 1, 1, 2), (1, 1, 1)) in keys


@given(instances(max_n=3))
def test_enumeration_matches_cross_product_filter(inst):
    cls, ext, bounds = _prep(inst)
    assume(not cls.empty_support)
    state = initial_state(ext, cls, bounds)
    total = 1
    for dom in (
        [cls.support[i] for i in cls.diag_lt]
        + [(1, 2)] * len(cls.diag_eq)
        + [(1, 2)] * len(cls.diag_lt)
    ):
        total *= len(dom)
    assume(total <= 400)

    streamed = [(t.key(), c) for t, c in enumerate_admissible(state, bounds, ext)]

    expected = []
    for anchors in itertools.product(*[cls.support[i] for i in cls.diag_lt]):
        for eqs in itertools.product(*[(1, 2)] * len(cls.diag_eq)):
            for lts in itertools.product(*[(1, 2)] * len(cls.diag_lt)):
                sel = selector_bounds(
                    ext,
                    cls,
                    dict(zip(cls.diag_eq, eqs)),
                    dict(zip(cls.diag_lt, lts)),
                    dict(zip(cls.diag_lt, anchors)),
                )
                cell = cell_of(bounds, sel)
                if not cell.is_empty:
                    expected.append(((anchors, eqs, lts), cell))
    assert streamed == expected


def test_make_candidate_bound_selection():
    cell = Cell(lower=fracs(0, "0.2"), upper=fracs("0.8", 1))
    c = fracs(1, 1)
    assert make_candidate(None, cell, c, "min").x == cell.lower
    assert make_candidate(None, cell, c, "max").x == cell.upper
    negative = fracs(-1, -1)
    assert make_candidate(None, cell, negative, "min").x == cell.upper
    assert make_candidate(None, cell, negative, "max").x == cell.lower
    mixed = fracs(1, -1)
    assert make_candidate(None, cell, mixed, "min").x == fracs(0, 1)
    assert make_candidate(None, cell, mixed, "min").objective == frac(-1)


def test_zero_cost_counts_as_nonnegative():
    cell = Cell(lower=fracs("0.3",), upper=fracs("0.9",))
    assert make_candidate(None, cell, (ZERO,), "min").x == (frac("0.3"),)
    assert make_candidate(None, cell, (ZERO,), "max").x == (frac("0.9"),)


def test_solve_demo_golden(demo10):
    sol = solve(demo10)
    assert sol.optimal
    assert sol.candidate.x == DEMO_OPTIMUM
    assert sol.candidate.objective == DEMO_OBJECTIVE
    assert sol.candidate.triple.key() == ((1, 1, 1), (1, 1, 1, 2), (1, 1, 1))
    assert check_membership(demo10, sol.candidate.x).feasible


def test_solve_single_row():
    inst = load_instance({"A": [["0.5"]], "b": ["0.5"], "c": ["1"]})
    sol = solve(inst)
    assert sol.optimal and sol.candidate.x == (frac("0.5"),)
    assert sol.candidate.objective == frac("0.5")


def test_solve_reports_rules_blind_infeasibility():
    sol = solve(load_instance(RULES_BLIND_INFEASIBLE))
    assert sol.status == "infeasible"
    assert sol.cause.cause == CAUSE_NO_TRIPLE
    assert sol.statistics.rule_firings == ()


def test_solve_deterministic(demo10):
    assert solve(demo10) == solve(demo10)


@given(instances(max_n=4))
def test_rules_do_not_change_the_optimum(inst):
    with_rules = solve(inst, use_rules=True)
    without = solve(inst, use_rules=False)
    assert with_rules.status == without.status
    if with_rules.optimal:
        assert with_rules.candidate == without.candidate


@given(instances(max_n=4))
def test_candidates_are_members(inst):
    sol = solve(inst)
    if sol.optimal:
        assert check_membership(inst, sol.candidate.x).feasible
        assert sol.candidate.cell.contains(sol.candidate.x)


def test_region_demo_single_cell(demo10):
    cells = feasible_region(demo10)
    assert len(cells) == 1
    assert cells[0].lower == DEMO_REGION_LOWER
    assert cells[0].upper == DEMO_REGION_UPPER


def test_region_without_dedup_keeps_every_box(demo10):
    cells = feasible_region(demo10, dedup=False)
    admissible, _, distinct, _ = _stream_scan(demo10)
    assert cells == distinct
    assert len(cells) == 2 and admissible == 8
    kept = feasible_region(demo10)
    assert all(any(k.dominates(c) for k in kept) for c in cells)


def test_region_infeasible_is_empty():
    assert feasible_region(load_instance(RULES_BLIND_INFEASIBLE)) == []
    assert feasible_region(load_instance({"A": [["0.2"]], "b": ["0.6"], "c": ["1"]})) == []


@given(instances(max_n=3))
def test_region_union_matches_membership_on_grid(inst):
    cells = feasible_region(inst)
    grid = sorted({ZERO, ONE, *inst.b})
    points = itertools.product(grid, repeat=inst.n)
    for x in itertools.islice(points, 200):
        member = check_membership(inst, x).feasible
        assert member == any(cell.contains(x) for cell in cells)


def test_binary_coefficients_give_binary_optimum():
    inst = Instance(
        n=3,
        A=(fracs(0, 1, 1), fracs(1, 0, 0), fracs(1, 0, 1)),
        b=(ZERO, ZERO, ZERO),
        c=fracs("2.5", "-1.5", "0.5"),
        sense="min",
    )
    for sense in ("min", "max"):
        sol = solve(Instance(inst.n, inst.A, inst.b, inst.c, sense))
        assert sol.optimal
        assert set(sol.candidate.x) <= {ZERO, ONE}


def _stream(inst):
    """Every (triple, box) of the plain lex stream, without merging."""
    cls, ext, bounds = _prep(inst)
    if gate_feasibility(inst, cls, bounds) is None:
        state = reduce_domains(inst, cls, ext, bounds)
        if state.infeasible is None:
            return list(enumerate_admissible(state, bounds, ext))
    return []


def _best(stream, c, sense):
    """The first candidate of best objective over the stream."""
    best = None
    for triple, cell in stream:
        cand = make_candidate(triple, cell, c, sense)
        if best is None or (
            cand.objective < best.objective if sense == "min" else cand.objective > best.objective
        ):
            best = cand
    return best


def _stream_scan(inst):
    """Reference: (admissible, best candidate, distinct boxes, dedup region)
    from a scan over every triple of the plain lex stream, without merging."""
    stream = _stream(inst)
    region: list[Cell] = []
    for _, cell in stream:
        if not any(kept.dominates(cell) for kept in region):
            region = [kept for kept in region if not cell.dominates(kept)] + [cell]
    distinct = list(dict.fromkeys(cell for _, cell in stream))
    return len(stream), _best(stream, inst.c, inst.sense), distinct, region


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize("n", range(6, 11))
def test_frontier_matches_stream_scan(n, sense):
    feasible = 0
    for seed in range(40):
        inst = load_instance(random_fre_doc(n, 0.7, seed, sense=sense, b_cap=0.3))
        admissible, best, distinct, region = _stream_scan(inst)
        sol = solve(inst)
        assert sol.statistics.admissible == admissible
        assert sol.candidate == best
        assert feasible_region(inst) == region
        assert feasible_region(inst, dedup=False) == distinct
        feasible += sol.optimal
    assert feasible >= 10


@given(fine_instances(max_n=5))
def test_integer_objective_matches_stream_scan(inst):
    admissible, best, distinct, region = _stream_scan(inst)
    sol = solve(inst)
    assert sol.statistics.admissible == admissible
    assert sol.candidate == best
    assert feasible_region(inst) == region
    assert feasible_region(inst, dedup=False) == distinct


COVER_COSTS = fracs("-2", "-1", "-0.5", 0, "0.5", 1, 2)


@settings(max_examples=100)
@given(graphs(max_n=8), st.lists(st.sampled_from(COVER_COSTS), min_size=8, max_size=8))
def test_projected_frontier_matches_stream_scan_on_covers(g, costs):
    """A = adjacency, b = 0 under drawn costs of both signs, the first drawn
    cost repeated, and zero costs, each under both senses.  Ties are common,
    so a merged state's kept prefix is often replaced by a later, strictly
    better arrival; a missing re-sort or a tie-break on <= shows in the
    winning triple."""
    A = tuple(tuple(ONE if a else ZERO for a in row) for row in g.adjacency)
    free = tuple(costs[: g.n])
    inst = Instance(g.n, A, (ZERO,) * g.n, free, "min")
    admissible, _, distinct, region = _stream_scan(inst)
    assert admissible == 2**g.n
    assert feasible_region(inst) == region
    assert feasible_region(inst, dedup=False) == distinct
    stream = _stream(inst)
    for c in (free, free[:1] * g.n, (ZERO,) * g.n):
        for sense in ("min", "max"):
            sol = solve(Instance(g.n, A, (ZERO,) * g.n, c, sense))
            assert sol.statistics.admissible == admissible
            assert sol.candidate == _best(stream, c, sense)


def test_value_off_the_grid_fails_loudly(demo10, monkeypatch):
    import maxminfre.reduction as reduction

    def drop_second_value(values):  # the per-solve table without its rank-1 value
        return {pq: r for pq, r in rank_table(values).items() if r != 1}

    monkeypatch.setattr(reduction, "rank_table", drop_second_value)
    with pytest.raises(KeyError):
        solve(demo10)
    with pytest.raises(KeyError):
        feasible_region(demo10)


# Every lane width from 1 to 8 bits, each at both ends of its range
GRID_SIZES = sorted({2, 3, 4, 5, *(size for k in range(1, 8) for size in (2**k, 2**k + 1))})


@st.composite
def lane_cases(draw):
    size = draw(st.sampled_from(GRID_SIZES))
    n = draw(st.integers(1, 70))
    rank_vectors = st.lists(st.integers(0, size - 1), min_size=n, max_size=n).map(tuple)
    return size, draw(rank_vectors), draw(rank_vectors)


@given(lane_cases())
def test_packed_lanes_match_rank_vectors(case):
    size, a, b = case
    grid = tuple(Fraction(r, size - 1) for r in range(size))
    lanes = Lanes(rank_table(grid), len(a))
    packed_a, packed_b = (
        lanes.pack(ranked(lanes.table, tuple(grid[r] for r in v))) for v in (a, b)
    )
    assert lanes.unpack(packed_a) == a
    assert lanes.unpack(lanes.max(packed_a, packed_b)) == vec_max(a, b)
    assert lanes.unpack(lanes.min(packed_a, packed_b)) == vec_min(a, b)
    assert lanes.le(packed_a, packed_b) == vec_le(a, b)
    # the comparisons near equality, where a borrow would cross a lane
    low, high = lanes.min(packed_a, packed_b), lanes.max(packed_a, packed_b)
    assert lanes.le(low, high) and lanes.le(low, packed_a) and lanes.le(packed_a, high)
    assert lanes.le(high, low) == (a == b)
    assert lanes.decode(low, high) == Cell(
        tuple(grid[r] for r in vec_min(a, b)), tuple(grid[r] for r in vec_max(a, b))
    )


def test_seed10_merges_every_triple_into_one_box():
    inst = load_instance(random_fre_doc(16, 0.7, 10, b_cap=0.5))
    sol = solve(inst)
    assert sol.optimal and sol.statistics.admissible == 73920
    assert len(feasible_region(inst)) == 1
    assert len(feasible_region(inst, dedup=False)) == 1


def test_solve_and_region_build_no_extremal_vector(demo10, monkeypatch):
    """The solve path reads the row targets only, never a vector family."""
    import maxminfre.extremals as extremals

    cases = [
        demo10,
        load_instance(random_fre_doc(16, 0.7, 10, b_cap=0.5)),
        load_instance(random_fre_doc(64, 0.3, 0, b_cap=0.5)),
    ]
    graph = make_graph(12, random_graph_edges(12, 0.3, seed=1))

    def run():
        return [(solve(inst), feasible_region(inst)) for inst in cases], solve_cover(graph)

    expected = run()

    def refuse(self, fill, i, coords):
        raise AssertionError("the solve path built an extremal vector")

    monkeypatch.setattr(extremals.ExtremalSet, "_vector", refuse)
    assert run() == expected


def test_cover_general_agrees_with_specialized_up_to_16():
    for n in range(1, 17):
        g = make_graph(n, random_graph_edges(n, 0.3, seed=n))
        result = solve_cover(g)
        x, assignment = specialized_cover(g)
        assert result.x_star == x
        assert result.solution.candidate.triple.eq_choices == assignment
        assert verify_structure(result, g).ok
