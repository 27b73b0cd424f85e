"""The plain-data records are NamedTuples: this pins each one's field order,
which ``bench/traced.py`` and ``Lanes.cell`` rely on when they build
``Solution``, ``CoverResult`` and ``Cell`` positionally, and the contract
the frozen dataclasses they replaced had: no assignment, equality by value,
a hash wherever every field has one."""

import copy

import pytest

from maxminfre import (
    aggregate_bounds,
    check_membership,
    classify_rows,
    extremal_solutions,
    feasible_region,
    load_instance,
    make_graph,
    sample_feasibility,
    solve,
    solve_cover,
    verify_structure,
)
from maxminfre.extremals import Cell
from maxminfre.oracle import brute_force_cover, grid_optimum
from maxminfre.reduction import Infeasibility
from maxminfre.vertexcover import StructureCheck

from .conftest import RULES_BLIND_INFEASIBLE

FIELDS = {
    "Instance": ("n", "A", "b", "c", "sense"),
    "RowStatus": ("row", "achieved", "required", "witness", "violation"),
    "MembershipReport": ("feasible", "rows"),
    "ExtremalSet": ("b", "row_max", "row_min", "max_pin", "max_cap", "min_anchor"),
    "RowClassification": (
        "n",
        "support",
        "support_strict",
        "diag_gt",
        "diag_eq",
        "diag_lt",
        "empty_support",
    ),
    "BoundVectors": ("lower_gt", "upper_gt", "lower_eq", "lower"),
    "Cell": ("lower", "upper"),
    "Graph": ("n", "edges"),
    "GridResult": ("feasible", "objective", "x", "points"),
    "Disagreement": ("x", "member", "in_cells"),
    "AgreementReport": ("samples", "disagreements"),
    "CoverOracleResult": ("size", "cover"),
    "Infeasibility": ("cause", "rows"),
    "Triple": ("anchor_rows", "anchors", "eq_rows", "eq_choices", "lt_rows", "lt_choices"),
    "Candidate": ("triple", "cell", "x", "objective"),
    "Solution": ("status", "candidate", "cause", "statistics"),
    "CoverResult": ("cover", "size", "x_star", "selector", "solution"),
    "StructureCheck": ("name", "ok", "detail"),
    "StructureReport": ("checks",),
}


def _records() -> dict:
    """One record of each type, as the package builds it."""
    inst = load_instance(
        {"A": [["0.5", "0.3"], ["0.2", "0.4"]], "b": ["0.3", "0.4"], "c": ["1", "2"]}
    )
    sol = solve(inst)
    membership = check_membership(inst, sol.candidate.x)
    # a box over the whole cube disagrees with membership on every infeasible sample
    everything = Cell((0,) * inst.n, (1,) * inst.n)
    agreement = sample_feasibility(inst, [everything], k=20)
    path = make_graph(3, [(1, 2), (2, 3)])
    cover = solve_cover(path)
    structure = verify_structure(cover, path)
    found = [
        inst,
        membership.rows[0],
        membership,
        classify_rows(inst),
        extremal_solutions(inst, classify_rows(inst)),
        aggregate_bounds(inst, classify_rows(inst)),
        feasible_region(inst)[0],
        grid_optimum(inst),
        agreement.disagreements[0],
        agreement,
        path,
        brute_force_cover(path),
        solve(load_instance(RULES_BLIND_INFEASIBLE)).cause,
        sol.candidate.triple,
        sol.candidate,
        sol,
        cover,
        structure.checks[0],
        structure,
    ]
    return {type(record).__name__: record for record in found}


RECORDS = _records()


def test_every_record_type_is_built():
    assert sorted(RECORDS) == sorted(FIELDS)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_record_fields_are_pinned_in_order(name):
    assert RECORDS[name]._fields == FIELDS[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_record_fields_cannot_be_assigned(name):
    record = RECORDS[name]
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_records_with_equal_fields_are_equal(name):
    record = RECORDS[name]
    twin = type(record)(*copy.deepcopy(tuple(record)))
    assert twin == record and twin is not record
    try:
        for value in record:
            hash(value)
    except TypeError:  # a dict field: no record hash, as for the frozen dataclass
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)


def test_record_defaults():
    assert Infeasibility("no-admissible-triple").rows == ()
    assert StructureCheck("all-rows-diag-eq", True).detail == ""
