import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from maxminfre import (
    Instance,
    aggregate_bounds,
    check_membership,
    classify_rows,
    extremal_solutions,
    feasible_region,
    gate_feasibility,
    graph_to_instance,
    load_instance,
    make_candidate,
    make_graph,
    solve,
    solve_cover,
    verify_structure,
)
from maxminfre.exact import ONE, ZERO
from maxminfre.extremals import BoundVectors, Cell, Lanes, vec_le, vec_max, vec_min
from maxminfre.generate import random_fre_doc, random_graph_edges
from maxminfre.reduction import (
    CAUSE_BOUND_CROSSING,
    CAUSE_EMPTY_SUPPORT,
    CAUSE_NO_TRIPLE,
    initial_state,
    reduce_domains,
)
from maxminfre import solver
from maxminfre.cli import main
from maxminfre.solver import Triple, enumerate_admissible

from .conftest import (
    DATA_DIR,
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
    timed,
)
from .reference import cell_of, dominates, is_empty, selector_bounds, specialized_cover


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
    fake = BoundVectors(
        lower_gt=(frac("0.5"),),
        upper_gt=(frac("0.5"),),
        lower_eq=(frac("0.8"),),
        lower=(frac("0.8"),),
    )
    verdict = gate_feasibility(inst, cls, fake)
    assert verdict is not None and verdict.cause == CAUSE_BOUND_CROSSING
    assert verdict.rows == (1,)


def test_unvalidated_instance_reaches_bound_crossing():
    # an Instance built directly skips the loader's [0, 1] check; the combined
    # lower bound is max(b_i, 0), so a target above 1 or a negative diag_gt
    # target crosses
    cases = [
        # b = 2 puts the combined lower bound above the all-ones upper bound
        (Instance(n=1, A=((2,),), b=(2,), c=(1,), sense="min"), (1,)),
        # a negative diag_gt target is its own upper bound, below the lower bound 0
        (Instance(1, ((Fraction(1),),), (Fraction(-1, 2),), (Fraction(1),), "min"), (1,)),
        # a negative diag_eq target (row 1) leaves the lower bound at 0 and does
        # not cross; the negative diag_gt target of row 2 does
        (
            Instance(
                2,
                ((Fraction(-1, 2), ZERO), (ZERO, ONE)),
                (Fraction(-1, 2), Fraction(-1, 4)),
                (ONE, ONE),
                "min",
            ),
            (2,),
        ),
    ]
    for inst, rows in cases:
        crossing = (CAUSE_BOUND_CROSSING, rows)
        sol = solve(inst)
        assert not sol.optimal and (sol.cause.cause, sol.cause.rows) == crossing
        cells, cause = solver.resolve_region(inst)
        assert cells == [] and (cause.cause, cause.rows) == crossing


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
    keys = [
        (t.anchors, t.eq_choices, t.lt_choices)
        for t, _ in enumerate_admissible(state, bounds, ext)
    ]
    assert keys == sorted(keys)
    assert keys[0] == ((1, 1, 1), (1, 1, 1, 1), (1, 1, 1))
    assert ((1, 1, 1), (1, 1, 1, 2), (1, 1, 1)) in keys


@given(instances(max_n=3))
def test_enumeration_matches_cross_product_filter(inst):
    cls, ext, bounds = _prep(inst)
    assume(not cls.empty_support)
    state = initial_state(inst, cls, bounds)
    total = 1
    for dom in (
        [cls.support[i] for i in cls.diag_lt]
        + [(1, 2)] * len(cls.diag_eq)
        + [(1, 2)] * len(cls.diag_lt)
    ):
        total *= len(dom)
    assume(total <= 400)

    streamed = [
        ((t.anchors, t.eq_choices, t.lt_choices), c)
        for t, c in enumerate_admissible(state, bounds, ext)
    ]

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
                if not is_empty(cell):
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
    triple = sol.candidate.triple
    assert (triple.anchors, triple.eq_choices, triple.lt_choices) == (
        (1, 1, 1),
        (1, 1, 1, 2),
        (1, 1, 1),
    )
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
    assert all(any(dominates(k, c) for k in kept) for c in cells)


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
        if not any(dominates(kept, cell) for kept in region):
            region = [kept for kept in region if not dominates(cell, kept)] + [cell]
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
    so a merged state's smallest key often arrives after its first; keeping
    the first arrival, or a key that mixes score and code, shows in the
    winning triple."""
    A = graph_to_instance(g).A
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


@given(fine_instances(max_n=5))
def test_rules_off_matches_the_unreduced_stream(inst):
    """Without the rules, lowering options that the root lower bound cuts
    reach the walk, whose lowering phase cuts each such option once for all
    states; with the rules on, rules 1 and 2 have removed them already."""
    cls, ext, bounds = _prep(inst)
    stream = []
    if gate_feasibility(inst, cls, bounds) is None:
        stream = list(enumerate_admissible(initial_state(inst, cls, bounds), bounds, ext))
    sol = solve(inst, use_rules=False)
    assert sol.statistics.admissible == len(stream)
    assert sol.candidate == _best(stream, inst.c, inst.sense)


# Every row diag_gt (a_ii > b_i), so the table has no selector level
ZERO_LEVEL_TABLES = [
    ((fracs(1, "0.3", 0), fracs("0.9", "0.8", 1), fracs(0, "0.5", 1)), fracs("0.5", "0.2", 0)),
    ((fracs(1),), fracs("0.4")),
]


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize("A,b", ZERO_LEVEL_TABLES)
def test_zero_level_table_scores_the_root_box(A, b, sense):
    """No level charges a term during the walk, so every coordinate's term
    comes from the root box."""
    for c in itertools.product(fracs("-1.5", 0, 2), repeat=len(b)):
        inst = Instance(len(b), A, b, c, sense)
        cls, _, bounds = _prep(inst)
        assert len(cls.diag_gt) == inst.n
        root = Cell(bounds.lower, bounds.upper_gt)
        expected = make_candidate(Triple((), (), (), (), (), ()), root, c, sense)
        assert solve(inst).candidate == expected


def test_value_off_the_grid_fails_loudly(demo10, monkeypatch):
    import maxminfre.reduction as reduction

    class WithoutSecondValue(Lanes):  # the per-solve grid without its rank-1 value
        def __init__(self, values, n):
            values = sorted(set(values))
            super().__init__(values[:1] + values[2:], n)

    monkeypatch.setattr(reduction, "Lanes", WithoutSecondValue)
    with pytest.raises(KeyError):
        solve(demo10)
    with pytest.raises(KeyError):
        feasible_region(demo10)


# Every lane width from 1 to 8 bits, each at both ends of its range
GRID_SIZES = sorted({2, 3, 4, 5, *(size for k in range(1, 8) for size in (2**k, 2**k + 1))})


@st.composite
def lane_cases(draw, vectors=2):
    size = draw(st.sampled_from(GRID_SIZES))
    n = draw(st.integers(1, 70))
    rank_vectors = st.lists(st.integers(0, size - 1), min_size=n, max_size=n).map(tuple)
    return (size, *(draw(rank_vectors) for _ in range(vectors)))


@given(lane_cases())
def test_packed_lanes_match_rank_vectors(case):
    size, a, b = case
    grid = tuple(Fraction(r, size - 1) for r in range(size))
    lanes = Lanes(grid, len(a))
    packed_a, packed_b = (lanes.pack(lanes.rank(tuple(grid[r] for r in v))) for v in (a, b))
    assert lanes.unpack(packed_a) == a
    assert lanes.unpack(lanes.max(packed_a, packed_b)) == vec_max(a, b)
    assert lanes.le(packed_a, packed_b) == vec_le(a, b)
    # the comparisons near equality, where a borrow would cross a lane
    low, high = lanes.pack(vec_min(a, b)), lanes.max(packed_a, packed_b)
    assert lanes.le(low, high) and lanes.le(low, packed_a) and lanes.le(packed_a, high)
    assert lanes.le(high, low) == (a == b)


@given(lane_cases(vectors=3))
def test_box_ints_match_rank_boxes(case):
    """A box int round-trips through ``Lanes.cell``; an anchor's box {x >=
    v} raises the lower bound and a maximal's box {x <= v} lowers the upper
    bound by one lane-wise max; on a nonempty box the cap test is the
    nonempty test; and <= on nonempty box ints is containment."""
    size, a, b, v = case
    grid = tuple(Fraction(r, size - 1) for r in range(size))
    lanes, n, top = Lanes(grid, len(v)), len(v), size - 1

    def cell(lower, upper):
        return Cell(tuple(grid[r] for r in lower), tuple(grid[r] for r in upper))

    assert lanes.cell(lanes.box(a, b)) == cell(a, b)
    raising, lowering = lanes.box(v, (top,) * n), lanes.box((0,) * n, v)
    assert lanes.cell(lanes.max(lanes.box(a, b), raising)) == cell(vec_max(a, v), b)
    assert lanes.cell(lanes.max(lanes.box(a, b), lowering)) == cell(a, vec_min(b, v))
    low, high = vec_min(a, b), vec_max(a, b)
    box = lanes.box(low, high)
    assert lanes.le(box, lanes.cap(raising)) == vec_le(vec_max(low, v), high)
    assert lanes.le(box, lanes.cap(lowering)) == vec_le(low, vec_min(high, v))
    # nested and equal boxes, where a borrow would cross a lane, and a drawn one
    inside = vec_max(low, vec_min(v, high))
    boxes = [(low, high), (inside, high), (low, inside), (inside, inside), (low, low), (v, v)]
    for outer, inner in itertools.product(boxes, repeat=2):
        contains = dominates(cell(*outer), cell(*inner))
        assert lanes.le(lanes.box(*outer), lanes.box(*inner)) == contains


def test_seed10_merges_every_triple_into_one_box():
    inst = load_instance(random_fre_doc(16, 0.7, 10, b_cap=0.5))
    sol = solve(inst)
    assert sol.optimal and sol.statistics.admissible == 73920
    assert len(feasible_region(inst)) == 1
    assert len(feasible_region(inst, dedup=False)) == 1


def test_solve_and_region_build_no_extremal_vector(demo10, monkeypatch, capsys):
    """The solve path, ``maxminfre reduce`` and the cover audit read the row
    targets from the instance and build no ``ExtremalSet`` at all."""
    import maxminfre.extremals as extremals

    cases = [
        demo10,
        load_instance(random_fre_doc(16, 0.7, 10, b_cap=0.5)),
        load_instance(random_fre_doc(64, 0.3, 0, b_cap=0.5)),
    ]
    graph = make_graph(12, random_graph_edges(12, 0.3, seed=1))

    def run():
        cover = solve_cover(graph)
        solved = [(solve(inst), feasible_region(inst)) for inst in cases]
        reduced = main(["reduce", str(DATA_DIR / "demo10.json")]), capsys.readouterr()
        return solved, cover, verify_structure(cover, graph), reduced

    expected = run()

    def refuse(cls, *args, **kwargs):
        raise AssertionError("the solve path built an ExtremalSet")

    monkeypatch.setattr(extremals.ExtremalSet, "__new__", refuse)
    with pytest.raises(AssertionError, match="built an ExtremalSet"):
        extremals.extremal_solutions(demo10, classify_rows(demo10))
    assert run() == expected


def test_cover_general_agrees_with_specialized_up_to_16():
    for n in range(1, 17):
        g = make_graph(n, random_graph_edges(n, 0.3, seed=n))
        result = solve_cover(g)
        x, assignment = specialized_cover(g)
        assert result.x_star == x
        assert result.solution.candidate.triple.eq_choices == assignment
        assert verify_structure(result, g).ok


# random_fre_doc(n, 0.3, seed, b_cap=0.5): the verdict, the admissible count,
# the region's box counts with and without dedup, and the winning triple as
# (anchors, eq variants, the lt rows taking variant 2).  Walked anchors first,
# the n = 40 seeds and n=48 s=39 took 0.2-5 s and the rest ran past 10 s.
PATHOLOGY_1 = [
    (40, 15, "optimal", 1184335529320120320000, (4, 40),
     "2 9 3 18 2 5 1 1 12 32 4 2 12 2 32 12 32 3 1 6 12 2 3 9 22 2 21 19 4 16 3 1 5 3 1",
     (), (10, 17, 30)),
    (40, 258, "optimal", 84757991915520000, (2, 2),
     "2 3 7 7 8 34 19 6 3 7 2 11 3 20 6 4 5 8 3 6 1 20 4 1 8 3 16 19 7 7 7 16 1",
     (), (6, 12, 27)),
    (40, 320, "optimal", 130737547100160000, (2, 2),
     "10 7 17 34 37 2 5 4 21 8 14 17 2 1 25 17 19 31 3 19 28 1 30 1 17 5 30 5 1 2 7 30 1",
     (), (15, 21, 25)),
    (40, 370, "optimal", 67596705792000, (2, 18),
     "11 2 28 19 3 2 2 3 6 3 8 4 1 30 21 6 5 5 7 30 19 5 5 28 3 3 4",
     (), (3, 21)),
    (48, 39, "optimal", 429266120461516800000, (1, 1),
     "8 6 8 32 4 27 6 29 5 3 27 5 6 12 3 4 12 12 29 3 8 3 4 5 5 6 4 5 9 4 6 3 29",
     (), ()),
    (48, 51, "optimal", 4870219257599754240000, (2, 6),
     "38 2 9 2 25 2 4 1 8 1 13 32 4 8 9 3 16 3 8 2 25 25 16 32 16 2 25 25 16 9 18 8 38 5 "
     "25 3",
     (1,), (17,)),
    (64, 1219, "no-admissible-triple", 0, (0, 0), None, None, None),
    (64, 1262, "optimal", 64644409749130898618324090880000000, (2, 2),
     "26 1 1 13 1 3 2 1 10 2 1 28 28 45 19 16 48 20 1 1 19 50 5 5 14 6 10 5 2 19 2 1 1 17 "
     "4 1 10 16 2 1 1 2 5 63 1 15",
     (), (1, 44, 45)),
    (64, 1303, "optimal", 3519962841654635741583255797760000000000, (2, 8),
     "6 1 38 31 2 13 52 1 35 4 6 1 14 3 1 6 13 2 2 3 10 8 35 1 6 7 8 4 8 14 2 8 6 6 6 3 23 "
     "6 1 10 1 4 10 2 1 8 41 6 1 7 8 2",
     (1, 1), (9, 23, 27)),
    (64, 1431, "optimal", 270421748830465437678855782400000000, (2, 2),
     "6 1 19 16 6 16 4 19 6 18 12 32 6 28 10 3 1 32 3 6 52 16 6 11 4 19 4 16 2 4 11 19 3 "
     "12 4 3 6 16 26 23 2 4 3 19 6 39 9",
     (1, 1), (12, 14, 22)),
    (64, 1498, "optimal", 14827311417392328080081257758720000000, (2, 4),
     "8 24 5 7 8 5 33 7 3 8 8 6 1 2 45 7 3 27 2 3 33 11 18 3 5 1 53 11 7 8 2 3 7 5 22 2 2 "
     "40 3 22 1 2 2 17 49 1 2 3 7 1 17",
     (1,), (7, 42, 45)),
    (64, 1521, "optimal", 19106986690802573580996653875200000000, (2, 3),
     "4 25 1 19 13 2 1 2 18 6 1 4 11 3 2 2 61 2 1 18 6 1 1 6 12 8 6 5 4 17 1 26 3 6 25 19 "
     "4 28 6 1 18 3 18 18 2 25 1",
     (1,), ()),
]


@pytest.mark.parametrize(
    "n,seed,verdict,admissible,boxes,anchors,eqs,twos",
    PATHOLOGY_1,
    ids=[f"n{case[0]}-s{case[1]}" for case in PATHOLOGY_1],
)
def test_anchor_heavy_instances_finish_fast(
    n, seed, verdict, admissible, boxes, anchors, eqs, twos
):
    """Many diag_lt rows with wide anchor domains: anchors walked last are cut
    by an upper bound the lowering levels have already brought down."""
    inst = load_instance(random_fre_doc(n, 0.3, seed, b_cap=0.5))
    sol = timed(1.0, solve, inst)
    assert (sol.status if sol.optimal else sol.cause.cause) == verdict
    assert sol.statistics.admissible == admissible
    region = timed(1.0, feasible_region, inst)
    assert (len(region), len(timed(1.0, feasible_region, inst, dedup=False))) == boxes
    if anchors is None:
        return
    anchors = tuple(map(int, anchors.split()))
    lts = tuple(2 if p in twos else 1 for p in range(1, len(anchors) + 1))
    triple = sol.candidate.triple
    assert (triple.anchors, triple.eq_choices, triple.lt_choices) == (anchors, eqs, lts)
    assert check_membership(inst, sol.candidate.x).feasible
    assert any(cell.contains(sol.candidate.x) for cell in region)


def _results(inst):
    return (
        solve(inst),
        solve(inst, use_rules=False),
        feasible_region(inst),
        feasible_region(inst, dedup=False),
    )


def _permuted_results(inst, rng):
    """``_results`` with every walk in a permutation drawn from ``rng``."""

    def drawn(levels, moved):
        return rng.sample(range(len(levels)), len(levels))

    with mock.patch.object(solver, "_walk_order", drawn):
        return _results(inst)


@given(fine_instances(max_n=5), st.randoms(use_true_random=False))
def test_walk_order_does_not_change_results(inst, rng):
    assert _permuted_results(inst, rng) == _results(inst)


@given(
    graphs(max_n=8),
    st.lists(st.sampled_from(COVER_COSTS), min_size=8, max_size=8),
    st.sampled_from(["min", "max"]),
    st.randoms(use_true_random=False),
)
def test_walk_order_does_not_change_cover_results(g, costs, sense, rng):
    A = graph_to_instance(g).A
    inst = Instance(g.n, A, (ZERO,) * g.n, tuple(costs[: g.n]), sense)
    assert _permuted_results(inst, rng) == _results(inst)


def test_reversed_walk_order_does_not_change_results():
    """Walked in reverse, a table with a raising level takes its anchors
    first, so lowering levels come after a raising one and must cut against
    each state's own lower bound: on these seeds a walk that skips that cut,
    or cuts against the root's lower bound, admits crossed boxes."""
    walk_order = solver._walk_order
    for seed in range(40):
        inst = load_instance(random_fre_doc(5, 0.7, seed, b_cap=0.5))
        expected = _results(inst)
        with mock.patch.object(solver, "_walk_order", lambda *args: walk_order(*args)[::-1]):
            assert _results(inst) == expected, seed


def test_lowering_only_table_is_walked_by_fewest_live_lanes():
    """The path 1-3-4-2: level i moves lanes N[i] = {1, 3}, {2, 4}, {1, 3, 4},
    {2, 3, 4}.  First every lane is moved twice or more, so a level opens its
    whole mask: 1 and 2 tie at two lanes and table position takes 1.  Then
    3 opens lane 4 and closes lane 1 (0), against 2 (2) and 4 (2).  Then 4
    opens lane 2 and closes lane 3 (0), against 2 (1).  Two levels in, this
    order keeps lanes 3 and 4 live, the input order 1, 2, 3, 4 all four."""
    g = make_graph(4, [(1, 3), (3, 4), (4, 2)])
    state, _ = solver._prepare(graph_to_instance(g), use_rules=True)
    levels = solver._packed_levels(state)
    moved = solver._moved_lanes(state.lanes, levels)
    assert state.cls.diag_eq == (1, 2, 3, 4) and not state.cls.diag_lt
    assert [state.lanes.unpack(mask) for mask in moved] == [
        (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1)
    ]
    assert solver._walk_order(levels, moved) == [0, 2, 3, 1]


@pytest.mark.parametrize("n,seed", [(n, seed) for n, seed, *_ in PATHOLOGY_1])
def test_a_raising_level_keeps_the_table_order(n, seed):
    """With any raising level the lowering levels go first in table order,
    then the anchors by option count, whatever the lanes they move."""
    state, _ = solver._prepare(load_instance(random_fre_doc(n, 0.3, seed, b_cap=0.5)), False)
    levels = solver._packed_levels(state)
    lowering = [p for p, (raises, _) in enumerate(levels) if not raises]
    raising = sorted(
        (p for p, (raises, _) in enumerate(levels) if raises), key=lambda p: len(levels[p][1])
    )
    assert raising
    for moved in (solver._moved_lanes(state.lanes, levels), [0] * len(levels)):
        assert solver._walk_order(levels, moved) == lowering + raising


def test_a_raising_level_keeps_the_order_the_masks_would_change():
    """Masks under which the greedy walks 1, 0, 2 leave a table whose last
    level raises in table order."""
    moved, lowers, raises = [0b111, 0b100, 0b011], (False, ((1, 0),)), (True, ((1, 0),))
    assert solver._walk_order([lowers, lowers, lowers], moved) == [1, 0, 2]
    assert solver._walk_order([lowers, lowers, raises], moved) == [0, 1, 2]
