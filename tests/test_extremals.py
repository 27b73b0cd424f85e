import pytest
from hypothesis import given

from maxminfre import (
    aggregate_bounds,
    classify_rows,
    extremal_solutions,
    load_instance,
)
from maxminfre.exact import ONE, ZERO
from maxminfre.extremals import Cell, vec_le, vec_max, vec_min

from .conftest import (
    DEMO_DIAG_EQ,
    DEMO_DIAG_GT,
    DEMO_DIAG_LT,
    DEMO_LOWER_EQ,
    DEMO_LOWER_GT,
    DEMO_REGION_LOWER,
    DEMO_REGION_UPPER,
    DEMO_SUPPORT,
    DEMO_UPPER_GT,
    frac,
    fracs,
    instances,
)
from .reference import (
    SelectorBounds,
    cell_of,
    compose_row,
    dominates,
    is_empty,
    selector_bounds,
)


def test_vector_helpers():
    a, b = fracs(0, "0.5", 1), fracs("0.3", "0.4", "0.9")
    assert vec_min(a, b) == fracs(0, "0.4", "0.9")
    assert vec_max(a, b) == fracs("0.3", "0.5", 1)
    assert vec_le(vec_min(a, b), vec_max(a, b))


def test_demo_classification(demo10):
    cls = classify_rows(demo10)
    assert cls.diag_gt == DEMO_DIAG_GT
    assert cls.diag_eq == DEMO_DIAG_EQ
    assert cls.diag_lt == DEMO_DIAG_LT
    assert {i: cls.support[i] for i in demo10.rows} == DEMO_SUPPORT
    assert cls.empty_support == ()


def test_empty_support_is_reported_not_raised():
    inst = load_instance({"A": [["0.2"]], "b": ["0.6"], "c": ["1"]})
    cls = classify_rows(inst)
    assert cls.empty_support == (1,)


def test_demo_extremal_vectors(demo10):
    cls = classify_rows(demo10)
    ext = extremal_solutions(demo10, cls)
    assert ext.max_cap[2] == fracs("0.57", 1, 1, "0.57", 1, "0.57", 1, 1, "0.57", 1)
    assert ext.min_anchor[7, 9] == fracs(0, 0, 0, 0, 0, 0, "0.55", 0, "0.55", 0)
    assert ext.row_max[1] == fracs("0.66", 1, 1, 1, 1, 1, 1, 1, 1, 1)
    assert ext.row_min[9] == fracs(0, 0, 0, 0, 0, 0, 0, 0, "0.04", 0)
    assert ext.max_pin[6] == fracs(1, 1, 1, 1, 1, "0.79", 1, 1, 1, 1)


def test_single_diag_eq_row_extremals():
    inst = load_instance({"A": [["0.5"]], "b": ["0.5"], "c": ["1"]})
    cls = classify_rows(inst)
    ext = extremal_solutions(inst, cls)
    assert ext.max_pin[1] == (frac("0.5"),)
    assert ext.max_cap[1] == (ONE,)
    assert ext.row_min[1] == (frac("0.5"),)


def test_demo_aggregate_bounds(demo10):
    cls = classify_rows(demo10)
    bounds = aggregate_bounds(extremal_solutions(demo10, cls), cls)
    assert bounds.upper_gt == DEMO_UPPER_GT
    assert bounds.lower_gt == DEMO_LOWER_GT
    assert bounds.lower_eq == DEMO_LOWER_EQ


def test_empty_family_conventions():
    # every row diag_eq: the diag_gt aggregates fall back to the whole cube
    inst = load_instance(
        {"A": [["0.5", "0"], ["0", "0.4"]], "b": ["0.5", "0.4"], "c": ["1", "1"]}
    )
    cls = classify_rows(inst)
    assert cls.diag_gt == () and cls.diag_lt == ()
    bounds = aggregate_bounds(extremal_solutions(inst, cls), cls)
    assert bounds.lower_gt == (ZERO, ZERO)
    assert bounds.upper_gt == (ONE, ONE)


def test_demo_selector_bounds(demo10):
    cls = classify_rows(demo10)
    ext = extremal_solutions(demo10, cls)
    sel = selector_bounds(
        ext, cls, {2: 2, 4: 1, 5: 2, 6: 1}, {7: 1, 8: 1, 10: 2}, {7: 9, 8: 2, 10: 5}
    )
    assert sel.upper_eq == fracs(
        "0.45", "0.45", "0.45", "0.40", 1, "0.57", "0.45", "0.45", "0.45", "0.45"
    )
    assert sel.upper_lt == fracs("0.53", "0.53", 1, 1, "0.53", 1, "0.55", "0.62", "0.53", 1)
    assert sel.lower_lt == fracs(0, "0.62", 0, 0, "0.53", 0, "0.55", "0.62", "0.55", "0.53")


def test_selector_bounds_rejects_bad_choices(demo10):
    cls = classify_rows(demo10)
    ext = extremal_solutions(demo10, cls)
    good_eq = {2: 1, 4: 1, 5: 1, 6: 1}
    good_lt = {7: 1, 8: 1, 10: 1}
    good_anchor = {7: 1, 8: 1, 10: 1}
    with pytest.raises(ValueError, match="must be 1 or 2"):
        selector_bounds(ext, cls, {**good_eq, 2: 3}, good_lt, good_anchor)
    with pytest.raises(ValueError, match="support"):
        selector_bounds(ext, cls, good_eq, good_lt, {**good_anchor, 7: 2})


def test_demo_cell_of(demo10):
    cls = classify_rows(demo10)
    ext = extremal_solutions(demo10, cls)
    bounds = aggregate_bounds(ext, cls)
    sel = selector_bounds(
        ext, cls, {2: 1, 4: 1, 5: 1, 6: 2}, {7: 1, 8: 1, 10: 1}, {7: 1, 8: 1, 10: 1}
    )
    cell = cell_of(bounds, sel)
    assert cell.upper == DEMO_REGION_UPPER
    assert cell.lower == DEMO_REGION_LOWER
    assert not is_empty(cell)


def test_cell_of_whole_cube_when_everything_empty():
    inst = load_instance({"A": [["0.9"]], "b": ["0.5"], "c": ["1"]})  # one diag_gt row
    cls = classify_rows(inst)
    ext = extremal_solutions(inst, cls)
    sel = selector_bounds(ext, cls, {}, {}, {})
    assert sel.upper_eq == (ONE,) and sel.upper_lt == (ONE,) and sel.lower_lt == (ZERO,)
    # with all three families empty the conventions compose to the whole cube
    from maxminfre.extremals import BoundVectors

    cube = cell_of(
        BoundVectors((ZERO, ZERO), (ONE, ONE), (ZERO, ZERO), (ZERO, ZERO)),
        SelectorBounds((ONE, ONE), (ONE, ONE), (ZERO, ZERO)),
    )
    assert cube.lower == (ZERO, ZERO) and cube.upper == (ONE, ONE)


def test_cell_predicates():
    cell = Cell(lower=fracs(0, "0.5"), upper=fracs("0.5", 1))
    assert cell.contains(fracs("0.25", "0.75"))
    assert not cell.contains(fracs("0.6", "0.75"))
    assert dominates(Cell(fracs(0, 0), fracs(1, 1)), cell)
    assert is_empty(Cell(fracs(0, "0.6"), fracs("0.4", 1))) is False
    assert is_empty(Cell(fracs("0.6",), fracs("0.4",)))


@given(instances(max_n=6))
def test_extremal_vectors_satisfy_their_row(inst):
    cls = classify_rows(inst)
    ext = extremal_solutions(inst, cls)
    for i in cls.diag_gt:
        assert compose_row(inst, i, ext.row_max[i]) == inst.b[i - 1]
        assert compose_row(inst, i, ext.row_min[i]) == inst.b[i - 1]
    for i in cls.diag_eq:
        assert compose_row(inst, i, ext.max_pin[i]) == inst.b[i - 1]
        assert compose_row(inst, i, ext.max_cap[i]) == inst.b[i - 1]
        assert compose_row(inst, i, ext.row_min[i]) == inst.b[i - 1]
    for i in cls.diag_lt:
        for j in cls.support[i]:
            assert compose_row(inst, i, ext.min_anchor[i, j]) == inst.b[i - 1]
        if cls.support[i]:
            assert compose_row(inst, i, ext.max_pin[i]) == inst.b[i - 1]
            assert compose_row(inst, i, ext.max_cap[i]) == inst.b[i - 1]


@given(instances(max_n=5))
def test_extremal_components_lie_on_value_grid(inst):
    cls = classify_rows(inst)
    ext = extremal_solutions(inst, cls)
    grid = {ZERO, ONE, *inst.b}
    vectors = (
        list(ext.row_max.values())
        + list(ext.row_min.values())
        + list(ext.max_pin.values())
        + list(ext.max_cap.values())
        + list(ext.min_anchor.values())
    )
    for vec in vectors:
        assert set(vec) <= grid
