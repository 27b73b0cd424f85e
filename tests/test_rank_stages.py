"""Differential tests: the cross-product classification, the extremal
families built on first read, the bounds read from the targets, and the
rank-based gate and rules against the Fraction-compare reference in
``reference``, and the solve's rank table against the oracle's value grid.
The grid holds the loaded values themselves, so past loading a solve builds
no ``Fraction`` but its objective."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given

from maxminfre import (
    aggregate_bounds,
    classify_rows,
    extremal_solutions,
    feasible_region,
    gate_feasibility,
    load_instance,
    make_graph,
    reduce_domains,
    solve,
    solve_cover,
)
from maxminfre.exact import ONE, ZERO
from maxminfre.extremals import Lanes
from maxminfre.generate import random_fre_doc
from maxminfre.oracle import value_grid

from . import reference
from .conftest import fine_instances, frac, fracs, instances


def _loaded(inst) -> set[int]:
    """The ids of the value objects a solve of ``inst`` may return."""
    return {id(v) for v in (ZERO, ONE, *inst.b)}


def _assert_same_stages(inst):
    cls = classify_rows(inst)
    assert cls == reference.classify_rows(inst)
    ext = extremal_solutions(inst, cls)
    full = reference.extremal_solutions(inst, cls)
    for family in full._fields:
        assert getattr(ext, family) == getattr(full, family), family
    bounds = aggregate_bounds(ext, cls)
    assert bounds == reference.aggregate_bounds(full, cls)
    assert all(
        type(v) is Fraction
        for vec in (bounds.lower_gt, bounds.upper_gt, bounds.lower_eq, bounds.lower)
        for v in vec
    )
    assert gate_feasibility(inst, cls, bounds) == reference.gate_feasibility(inst, cls, bounds)

    state = reduce_domains(inst, cls, ext, bounds)
    # the frontier's order isomorphism: the one table holds exactly the grid
    assert state.lanes.grid == value_grid(inst)
    assert all(id(v) in _loaded(inst) for v in state.lanes.grid)  # nothing is rebuilt
    expected = reference.reduce_domains(inst, cls, full, bounds)
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
    return state


@given(instances(max_n=5))
def test_rank_stages_match_reference(inst):
    _assert_same_stages(inst)


@given(fine_instances(max_n=6))
def test_rank_stages_match_reference_on_fine_values(inst):
    _assert_same_stages(inst)


@pytest.mark.parametrize("seed", range(4))
def test_rank_stages_match_reference_on_wide_instances(seed):
    state = _assert_same_stages(load_instance(random_fre_doc(64, 0.3, seed, b_cap=0.5)))
    assert len(state.trace) > 100  # every rule family has work to do here


TINY = ("1e-1000", "2e-1000", "1e-999", "0", "1")  # cross products of ~3,300-bit ints


@pytest.mark.parametrize(
    "A,b",
    [
        (
            [
                ["1e-1000", "2e-1000", "1e-999", "0", "1"],
                ["2e-1000", "2e-1000", "0", "1", "1e-999"],
                ["1e-999", "0", "1e-1000", "1", "2e-1000"],
                ["0", "1", "1e-999", "0", "1e-1000"],
                ["1", "1e-999", "2e-1000", "1e-1000", "1"],
            ],
            ["2e-1000", "2e-1000", "1e-999", "1e-1000", "1"],
        ),
        (
            [[TINY[(i + j) % 5] for j in range(5)] for i in range(5)],
            ["1e-1000", "1e-1000", "2e-1000", "0", "1e-999"],
        ),
        # one value, three spellings
        (
            [["0.5", "0.50", "5e-1"], ["5e-1", "0.5", "1e-1000"], ["0.50", "1", "0"]],
            ["0.50", "5e-1", "0.5"],
        ),
        (
            [["1e-999", "0.50", "0"], ["5e-1", "0.5", "2e-1000"], ["1", "0.5", "1e-1000"]],
            ["1e-1000", "0.5", "5e-1"],
        ),
    ],
)
def test_rank_stages_match_reference_on_extreme_spellings(A, b):
    _assert_same_stages(load_instance({"A": A, "b": b, "c": ["1"] * len(b)}))


def test_lanes_grid_holds_the_given_values():
    values = [frac("0.5"), frac("0.50"), ONE, frac("0.3"), ZERO]
    lanes = Lanes(values, 2)
    assert lanes.grid == fracs(0, "0.3", "0.5", 1)
    assert all(any(r is v for v in values) for r in lanes.grid)
    # an unvalidated caller's ints come back as ints
    assert [type(r) for r in Lanes([1, 0], 1).grid] == [int, int]


def test_solve_and_region_return_the_loaded_values(demo10):
    best = solve(demo10).candidate
    assert all(id(v) in _loaded(demo10) for v in (*best.cell.lower, *best.cell.upper, *best.x))
    cells = feasible_region(demo10)
    assert all(id(v) in _loaded(demo10) for cell in cells for vec in cell for v in vec)


def _fractions_built(call, *args) -> int:
    """How many times ``call(*args)`` calls ``Fraction.__new__``: every
    Fraction it builds but those that Python 3.12+ builds for arithmetic
    results without it."""
    built = 0
    new = Fraction.__new__

    def counting(cls, *a, **kw):
        nonlocal built
        built += 1
        return new(cls, *a, **kw)

    with mock.patch.object(Fraction, "__new__", counting):
        call(*args)
    return built


def test_solve_builds_no_fraction_but_its_objective(demo10):
    assert _fractions_built(solve, demo10) <= 2  # the objective's unit and the objective
    assert _fractions_built(feasible_region, demo10) == 0
    assert _fractions_built(solve_cover, make_graph(4, [(1, 2), (2, 3), (3, 4)])) <= 2
