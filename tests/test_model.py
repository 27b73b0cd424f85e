import json
import re
import sys
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given
import hypothesis.strategies as st

from maxminfre import (
    Instance,
    InstanceError,
    check_membership,
    load_instance,
    solve,
    squarify,
)
from maxminfre.exact import ZERO, decimal_str, parse_scalar
from maxminfre.generate import random_fre_doc
from maxminfre import model
from maxminfre.model import _cost_table, _unit_table, instance_from_doc, parse_json

from .conftest import (
    DEMO_OPTIMUM,
    frac,
    fracs,
    instance_with_point,
    instances,
    json_values,
)
from .reference import compose_row, instance_to_doc, unit_scalar


def test_load_smallest_instance():
    inst = load_instance({"A": [["0.5"]], "b": ["0.5"], "c": ["1"], "sense": "min"})
    assert inst.n == 1
    assert inst.A == ((frac("0.5"),),)
    assert inst.sense == "min"


def test_load_demo_instance(demo10):
    assert demo10.n == 10
    assert demo10.b[0] == frac("0.66")
    assert demo10.c[0] == frac("-8.36")


def test_load_rejects_out_of_range():
    with pytest.raises(InstanceError, match="outside"):
        load_instance({"A": [["0.5"]], "b": ["1.5"], "c": ["1"], "sense": "min"})
    with pytest.raises(InstanceError, match="outside"):
        load_instance({"A": [["-0.1"]], "b": ["0.5"], "c": ["1"], "sense": "min"})


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"A": [["1/3"]], "b": ["0.5"], "c": ["1"]}, "A[1][1]"),
        ({"A": [["0.5"]], "b": ["1/3"], "c": ["1"]}, "b[1]"),
        ({"A": [["0.5"]], "b": ["0.5"], "c": ["2/3"]}, "c[1]"),
        ({"A": [["0.5"]], "b": [None], "c": ["1"]}, "b[1]"),
        ({"A": [["0.5"]], "b": ["1e5000"], "c": ["1"]}, "b[1]"),
        ({"A": [["0.5"]], "b": ["0.5"], "c": ["1e5000"]}, "c[1]"),
        ({"A": [["1e-1000000"]], "b": ["0.5"], "c": ["1"]}, "A[1][1]"),
        ('{"A": [[0.5]], "b": [0.5], "c": [1e-1000000]}', "c[1]"),
        ({"A": [["0.5"]], "b": ["0.5"], "c": [10**5000]}, "c[1]"),
        ({"A": [["1"]], "b": [Fraction(1, 2**3300)], "c": ["1"]}, "b[1]"),
        ({"A": [["1"]], "b": ["0.5"], "c": ["1" + "0" * 1001]}, "c[1]"),
    ],
)
def test_load_rejects_non_decimal_scalars(doc, field):
    with pytest.raises(InstanceError, match=re.escape(field)):
        load_instance(doc)


def test_large_int_cost_is_accepted_like_its_exponent_form():
    inst = instance_from_doc({"A": [["0.5"]], "b": ["0.5"], "c": [10**1000]})
    assert inst == instance_from_doc({"A": [["0.5"]], "b": ["0.5"], "c": ["1e1000"]})
    assert decimal_str(solve(inst).candidate.objective) == "5" + "0" * 999


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"A": "00", "b": ["0"], "c": ["1"]}, "A must be an array"),
        ({"A": ["00", "00"], "b": ["0", "0"], "c": ["1", "1"]}, "array of rows"),
        ({"A": [["0"]], "b": 0, "c": ["1"]}, "b must be an array"),
    ],
)
def test_load_rejects_non_array_fields(doc, match):
    with pytest.raises(InstanceError, match=match):
        load_instance(doc)


def test_load_rejects_dimension_mismatch():
    with pytest.raises(InstanceError):
        load_instance({"A": [["0.5", "0.5"]], "b": ["0.5", "0.5"], "c": ["1", "1"]})
    with pytest.raises(InstanceError):
        load_instance({"A": [["0.5"]], "b": ["0.5"], "c": ["1", "2"]})


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InstanceError, match="invalid JSON"):
        load_instance(path)


def test_load_rejects_json_nested_too_deep(tmp_path):
    """The decoder runs out of recursion: an input error, not a RecursionError."""
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for source in (path, '{"A": %s, "b": [], "c": []}' % deep):
        with pytest.raises(InstanceError, match="^invalid JSON: "):
            load_instance(source)


def test_unreadable_long_path_is_named_by_its_end(tmp_path):
    path = str(tmp_path / ("x" * 5000 + "-missing.json"))
    with pytest.raises(InstanceError) as exc:
        load_instance(path)
    message = str(exc.value)
    assert message.startswith("cannot read instance file '...")
    assert "-missing.json': " in message and len(message) < 200


def test_path_holding_a_nul_is_an_instance_error():
    with pytest.raises(InstanceError) as exc:
        load_instance("a\0b" + "x" * 5000)
    message = str(exc.value)
    assert message.startswith("cannot read instance file '")
    assert message.endswith("x': embedded null byte") and len(message.encode()) < 200
    with pytest.raises(InstanceError, match=re.escape("file 'a\\x00b': embedded null byte")):
        load_instance("a\0b")


def test_load_rejects_bad_sense():
    with pytest.raises(InstanceError, match="sense"):
        load_instance({"A": [["0.5"]], "b": ["0.5"], "c": ["1"], "sense": "best"})


def _nested_list(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


# str() of a list 5000 deep raised RecursionError before the message was built
@pytest.mark.parametrize(
    "sense, shown",
    [(_nested_list(5000), "list"), (None, "None"), (1, "1"), (["min"], "['min']")],
    ids=["deep-list", "none", "int", "list"],
)
def test_load_rejects_non_string_sense(sense, shown):
    doc = {"A": [["1"]], "b": ["1"], "c": ["1"], "sense": sense}
    with pytest.raises(InstanceError) as exc:
        load_instance(doc)
    assert str(exc.value) == f"sense must be min or max, got {shown}"


# Each value was once echoed in full: 1004, 977, 100,032 and up to 250,031
# characters.  The message now cuts it and still names the field.
@pytest.mark.parametrize(
    "doc, start",
    [
        ({"A": [[Fraction(1, 3**2000)]], "b": ["0.5"], "c": ["1"]}, "A[1][1]: Fraction(1, 1747"),
        ({"A": [["0.5"]], "b": [3**2000], "c": ["1"]}, "b[1] = 1747"),
        (
            {"A": [["0.5"]], "b": ["0.5"], "c": ["1"], "sense": "x" * 100_000},
            "sense must be min or max, got 'xxx",
        ),
        ({"A": [[["1"] * 50_000]], "b": ["0.5"], "c": ["1"]}, "A[1][1]: not a numeric scalar: ["),
    ],
    ids=["fraction", "int", "sense", "list"],
)
def test_oversized_value_is_echoed_short(doc, start):
    with pytest.raises(InstanceError) as exc:
        load_instance(doc)
    message = str(exc.value)
    assert message.startswith(start) and "..." in message and len(message) < 200


def test_numeric_entries_parse_exactly():
    inst = load_instance(json.dumps({"A": [[0.66]], "b": [0.66], "c": [1], "sense": "min"}))
    assert inst.A[0][0] == Fraction(66, 100)


def test_repeated_bad_value_names_its_first_field():
    A = [["0"] * 4 for _ in range(4)]
    A[0][1] = A[2][3] = "1.5"
    with pytest.raises(InstanceError, match=re.escape("A[1][2] = '1.5' outside")):
        load_instance({"A": A, "b": ["0"] * 4, "c": ["1"] * 4})


@pytest.mark.parametrize("earlier", [1, "1"])
def test_true_rejected_after_equal_values(earlier):
    doc = {"A": [[earlier, "0"], [True, "0"]], "b": ["1", "0"], "c": ["1", "1"]}
    with pytest.raises(InstanceError, match=re.escape("A[2][1]")):
        instance_from_doc(doc)
    text = '{"A": [[%s, "0"], [true, "0"]], "b": ["1", "0"], "c": ["1", "1"]}'
    with pytest.raises(InstanceError, match=re.escape("A[2][1]")):
        load_instance(text % json.dumps(earlier))
    costs = {"A": [["0"]], "b": ["0"], "c": [earlier, True]}
    with pytest.raises(InstanceError, match=re.escape("c[2]")):
        instance_from_doc(costs)


def test_cost_outside_unit_interval_is_not_reused_for_a():
    assert load_instance({"A": [["0.5"]], "b": ["0.5"], "c": ["1.5"]}).c == (frac("1.5"),)
    with pytest.raises(InstanceError, match=re.escape("A[1][1]")):
        load_instance({"A": [["1.5"]], "b": ["0.5"], "c": ["1.5"]})


@pytest.mark.parametrize(
    "doc, table, bad, message",
    [
        (
            {"A": [["0.5", "1.5"]] * 2, "b": ["0.5"] * 2, "c": ["1"] * 2},
            _unit_table, "1.5", "A[1][2] = '1.5' outside",
        ),
        (
            {"A": [["0.5"] * 2] * 2, "b": ["0.5", "1/3"], "c": ["1"] * 2},
            _unit_table, "1/3", "b[2]: '1/3' has no finite",
        ),
        (
            {"A": [["0.5"] * 2] * 2, "b": ["0.5"] * 2, "c": ["1", "x"]},
            _cost_table, "x", "c[2]: not a decimal",
        ),
    ],
    ids=["A", "b", "c"],
)
def test_rejected_string_is_named_on_every_load(doc, table, bad, message):
    """The scalar tables keep no errors: each load parses the bad string
    again and names its field the same way."""
    messages = []
    for _ in range(3):
        with pytest.raises(InstanceError) as exc:
            load_instance(doc)
        messages.append(str(exc.value))
        assert bad not in table and "0.5" in _unit_table
    assert messages[0].startswith(message) and messages == messages[:1] * 3


def test_cost_held_in_the_table_is_still_range_checked_in_a():
    assert load_instance({"A": [["0.5"]], "b": ["0.5"], "c": ["-3.5"]}).c == (frac("-3.5"),)
    with pytest.raises(InstanceError, match=re.escape("A[1][2] = '-3.5' outside")):
        load_instance({"A": [["0.5", "-3.5"]], "b": ["0.5"], "c": ["-3.5", "1"]})


def _load_outcome(doc):
    try:
        return load_instance(doc)
    except InstanceError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "value, text",
    [(1, "1"), (0.5, "0.5"), (Fraction(1, 2), "0.5"), (True, "1")],
    ids=["int", "float", "Fraction", "True"],
)
def test_number_entries_load_alike_before_and_after_their_strings(value, text):
    """A number passed from Python is parsed where it stands, whether or not
    the table already holds the string that equals it."""
    docs = [
        {"A": [[value, "0"], ["0", "0"]], "b": ["0", "0"], "c": ["1", "1"]},
        {"A": [["0", "0"], ["0", "0"]], "b": ["0", value], "c": ["1", "1"]},
        {"A": [["0", "0"], ["0", "0"]], "b": ["0", "0"], "c": ["1", value]},
    ]
    _unit_table.clear()
    _cost_table.clear()
    before = [_load_outcome(doc) for doc in docs]
    assert text not in _unit_table
    load_instance({"A": [[text]], "b": [text], "c": [text]})
    assert text in _unit_table and text in _cost_table
    assert [_load_outcome(doc) for doc in docs] == before
    if value is True:
        assert before == [
            "A[1][1]: not a numeric scalar: True",
            "b[2]: not a numeric scalar: True",
            "c[2]: not a numeric scalar: True",
        ]
    else:
        assert before[0].A[0][0] == before[1].b[1] == before[2].c[1] == Fraction(text)


def test_string_longer_than_any_plain_decimal_is_parsed_but_not_kept():
    padded = " " * 3000 + "0.5"
    _unit_table.clear()
    _cost_table.clear()
    inst = load_instance({"A": [[padded]], "b": ["0.5"], "c": [padded]})
    assert inst.A == ((Fraction(1, 2),),) and inst.c == (Fraction(1, 2),)
    assert set(_unit_table) <= {"0.5"} and not _cost_table


def test_loads_of_one_text_share_their_scalars():
    text = json.dumps(random_fre_doc(6, 0.5, 3, b_cap=0.5))
    first, second = load_instance(text), load_instance(text)
    assert first == second
    pairs = zip(chain(*first.A, first.b, first.c), chain(*second.A, second.b, second.c))
    assert all(u is v for u, v in pairs)
    assert model.SCALAR_TABLE_SIZE == 4096


def _entrywise_instance(doc) -> Instance:
    return Instance(
        n=len(doc["A"]),
        A=tuple(tuple(parse_scalar(v) for v in row) for row in doc["A"]),
        b=tuple(parse_scalar(v) for v in doc["b"]),
        c=tuple(parse_scalar(v) for v in doc["c"]),
        sense="min",
    )


def test_full_tables_are_emptied_and_stay_within_their_bound(monkeypatch):
    """Documents with many more distinct strings than a table holds: each
    table is emptied when full, never holds more than its half of the bound,
    and every load equals the entry-by-entry parse, reloads included."""
    monkeypatch.setattr(model, "SCALAR_TABLE_SIZE", 16)
    monkeypatch.setattr(model, "_unit_table", model._ScalarTable(unit=True))
    monkeypatch.setattr(model, "_cost_table", model._ScalarTable(unit=False))
    docs = [random_fre_doc(6, 0.5, seed, b_cap=0.5) for seed in range(4)]
    distinct_costs = {v for doc in docs for v in doc["c"]}
    distinct_units = {v for doc in docs for v in chain(*doc["A"], doc["b"])}
    assert len(distinct_costs) > 8 and len(distinct_units) > 8
    sizes = []
    for doc in docs + docs:
        assert load_instance(json.dumps(doc)) == _entrywise_instance(doc)
        sizes.append((len(model._unit_table), len(model._cost_table)))
    assert all(0 < units <= 8 and 0 < costs <= 8 for units, costs in sizes)


@pytest.mark.parametrize("seed", [0, 1])
def test_loaded_instance_equals_entrywise_parse(seed):
    doc = random_fre_doc(16, 0.3, seed, b_cap=0.5)
    doc["A"][0][:3] = [0.25, 1, Fraction(1, 2)]  # numbers next to their strings
    expected = _entrywise_instance(doc)
    for inst in (load_instance(doc), load_instance(json.dumps(doc, default=str))):
        assert inst == expected
        assert all(type(v) is Fraction for row in inst.A for v in row)
        assert all(type(v) is Fraction for v in inst.b + inst.c)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
def test_plain_decimal_beyond_the_int_digit_limit_names_its_field():
    """int() refuses more than 4300 digits, and Fraction(text) with it."""
    doc = {"A": [["0.5", "0." + "1" * 5000]] * 2, "b": ["0.5"] * 2, "c": ["1"] * 2}
    message = "A[1][2]: not a decimal scalar: '0.11111111111111111111111111111111111...'"
    with pytest.raises(InstanceError, match=re.escape(message) + "$"):
        load_instance(doc)


# Spellings of a few values, then the entries that make the loader fall back:
# out-of-range and rejected strings, numbers as an API caller passes them, and
# values that are no scalar at all.
_spellings = st.sampled_from(["0.5", "0.50", "5e-1", "00.5", "0", "-0", "0.00", "1", "1.0", "0.25"])
_odd_entries = st.one_of(
    st.sampled_from(["1.5", "-0.25", "1/3", "2/4", " 0.5", "x", "1e5000", "0." + "1" * 5000]),
    st.integers(-1, 2) | st.floats(-0.5, 1.5) | st.fractions(-1, 2, max_denominator=8),
    st.sampled_from([True, False, None, ["0.5"], [], {"0": 1}]),
)


@st.composite
def _loader_docs(draw):
    """An n x n document of spellings with up to three odd entries put in."""
    n = draw(st.integers(1, 4))
    A = draw(st.lists(st.lists(_spellings, min_size=n, max_size=n), min_size=n, max_size=n))
    b = draw(st.lists(_spellings, min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n)), draw(st.integers(0, n - 1))
        (b if i == n else A[i])[j] = draw(_odd_entries)
    return {"A": A, "b": b, "c": ["1"] * n}


@given(_loader_docs())
def test_loader_matches_entrywise_reference(doc):
    """The distinct-first load gives the entry-by-entry parse, or its error
    naming the first bad field; from the dict and from its JSON text."""
    for doc in (doc, parse_json(json.dumps(doc, default=str))):
        try:
            A = [
                [unit_scalar(v, f"A[{i}][{j}]") for j, v in enumerate(row, start=1)]
                for i, row in enumerate(doc["A"], start=1)
            ]
            b = [unit_scalar(v, f"b[{i}]") for i, v in enumerate(doc["b"], start=1)]
        except InstanceError as exc:
            with pytest.raises(InstanceError) as got:
                instance_from_doc(doc)
            assert str(got.value) == str(exc)
        else:
            inst = instance_from_doc(doc)
            assert inst.A == tuple(map(tuple, A)) and inst.b == tuple(b)
            assert all(type(v) is Fraction for row in inst.A for v in row + inst.b)


def test_squarify_keeps_square_input():
    A = [[frac("0.5"), frac("0.2")], [frac("0.1"), frac("0.9")]]
    b = [frac("0.5"), frac("0.3")]
    out_A, out_b = squarify(A, b)
    assert out_A == A and out_b == b


def test_squarify_pads_columns_when_rows_exceed():
    A = [[frac("0.5"), frac("0.4")]] * 3
    b = [frac("0.1")] * 3
    out_A, out_b = squarify([row[:] for row in A], b[:])
    assert len(out_A) == 3 and all(len(row) == 3 for row in out_A)
    assert [row[2] for row in out_A] == [ZERO] * 3
    assert out_b == b


def test_squarify_pads_rows_when_columns_exceed():
    A = [[frac("0.5"), frac("0.4"), frac("0.3")]] * 2
    b = [frac("0.1")] * 2
    out_A, out_b = squarify([row[:] for row in A], b[:])
    assert len(out_A) == 3 and out_A[2] == [ZERO] * 3
    assert out_b == b + [ZERO]


def test_wide_document_pads_costs_with_zeros():
    inst = load_instance(
        {"A": [["0.5", "0.4"], ["0.2", "0.3"], ["0.1", "0.2"]], "b": ["0.1"] * 3, "c": ["1", "2"]}
    )
    assert inst.n == 3
    assert inst.c == fracs(1, 2, 0)


def test_padded_rows_are_vacuous():
    inst = load_instance(
        {"A": [["0.5", "0.5", "0.5"]], "b": ["0.5"], "c": ["1", "1", "1"]}
    )
    assert inst.n == 3
    report = check_membership(inst, fracs("0.5", 1, 0))
    assert report.feasible


def test_compose_row_single_term():
    inst = load_instance({"A": [["0.5"]], "b": ["0.5"], "c": ["1"]})
    assert compose_row(inst, 1, [frac("0.7")]) == frac("0.5")


def test_compose_row_demo_optimum(demo10):
    assert compose_row(demo10, 1, DEMO_OPTIMUM) == frac("0.66")


def test_compose_row_zero_vector(demo10):
    for i in demo10.rows:
        assert compose_row(demo10, i, (ZERO,) * 10) == ZERO


def test_compose_row_errors(demo10):
    with pytest.raises(InstanceError):
        compose_row(demo10, 0, DEMO_OPTIMUM)
    with pytest.raises(InstanceError):
        compose_row(demo10, 11, DEMO_OPTIMUM)
    with pytest.raises(InstanceError):
        compose_row(demo10, 1, (frac("1.2"),) * 10)


def test_membership_of_demo_optimum(demo10):
    report = check_membership(demo10, DEMO_OPTIMUM)
    assert report.feasible
    assert all(r.witness is not None for r in report.rows)


def test_membership_failure_below_target():
    inst = load_instance({"A": [["0.5"]], "b": ["0.5"], "c": ["1"]})
    report = check_membership(inst, [frac("0.3")])
    assert not report.feasible
    row = report.rows[0]
    assert row.achieved == frac("0.3") and row.violation is None and row.witness is None


def test_membership_violation_records_first_column():
    inst = load_instance(
        {"A": [["0.9", "0.9"], ["0.1", "0.9"]], "b": ["0.2", "0.9"], "c": ["1", "1"]}
    )
    report = check_membership(inst, fracs(1, 1))
    assert not report.feasible
    assert report.rows[0].violation == 1


def test_membership_dimension_mismatch(demo10):
    with pytest.raises(InstanceError):
        check_membership(demo10, fracs("0.5", "0.5"))


def test_membership_rejects_non_decimal_point(demo10):
    with pytest.raises(InstanceError, match=re.escape("x[2]")):
        check_membership(demo10, ["0", "1/3"] + ["0"] * 8)


@given(instance_with_point())
def test_membership_consistent_with_compose(pair):
    inst, x = pair
    report = check_membership(inst, x)
    by_rows = all(compose_row(inst, i, x) == inst.b[i - 1] for i in inst.rows)
    assert report.feasible == by_rows
    for status in report.rows:
        assert status.achieved == compose_row(inst, status.row, x)


@given(instance_with_point())
def test_compose_monotone_in_x(pair):
    inst, x = pair
    raised = tuple(min(v + Fraction(1, 100), Fraction(1)) for v in x)
    for i in inst.rows:
        assert compose_row(inst, i, x) <= compose_row(inst, i, raised)


@given(instances())
def test_serialization_round_trip(inst):
    again = load_instance(json.loads(json.dumps(instance_to_doc(inst), sort_keys=True)))
    assert again == inst


@given(instance_with_point())
def test_membership_invariant_under_reparse(pair):
    inst, x = pair
    again = load_instance(instance_to_doc(inst))
    assert check_membership(again, x) == check_membership(inst, x)


_scalar_like = st.one_of(
    st.sampled_from(["0", "0.5", "1", "1.5", "-0.25", "1/3", "1/0", "", "x"]),
    st.integers(-2, 2),
    st.floats(),
    json_values,
)
_shaped_docs = st.fixed_dictionaries(
    {
        "A": st.lists(st.lists(_scalar_like, max_size=3), max_size=3) | json_values,
        "b": st.lists(_scalar_like, max_size=3) | json_values,
        "c": st.lists(_scalar_like, max_size=3) | json_values,
    },
    optional={"sense": st.sampled_from(["min", "MAX", "maximize", "up"]) | json_values},
)


@given(st.one_of(json_values, _shaped_docs))
def test_instance_from_doc_raises_only_instance_errors(doc):
    try:
        instance_from_doc(doc)
    except InstanceError:
        pass
