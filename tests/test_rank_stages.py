"""Differential tests: the cross-product classification, the extremal
families built on first read, the bounds read from the targets, and the
rank-based gate and rules against the Fraction-compare reference in
``reference``, and the solve's rank table against the oracle's value grid."""

from fractions import Fraction

import pytest
from hypothesis import given

from maxminfre import (
    aggregate_bounds,
    classify_rows,
    extremal_solutions,
    gate_feasibility,
    load_instance,
    reduce_domains,
)
from maxminfre.generate import random_fre_doc
from maxminfre.oracle import value_grid

from . import reference
from .conftest import fine_instances, instances


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
