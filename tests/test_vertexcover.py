import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given
import hypothesis.strategies as st

from maxminfre import (
    graph_to_instance,
    load_graph,
    make_graph,
    solve_cover,
    verify_structure,
)
from maxminfre.exact import ONE, ZERO
from maxminfre.extremals import classify_rows, extremal_solutions
from maxminfre.generate import random_graph_edges
from maxminfre.oracle import brute_force_cover
from maxminfre.vertexcover import GraphError, graph_to_doc, parse_graph

from .conftest import fracs, graphs, json_values, timed
from .reference import selector_bounds, specialized_cover

TRIANGLE = make_graph(3, [(1, 2), (2, 3), (1, 3)])
PATH3 = make_graph(3, [(1, 2), (2, 3)])
EDGE = make_graph(2, [(1, 2)])


def test_parse_edge_list():
    g = parse_graph("c a comment\np 4 2\ne 1 2\ne 3 4\n")
    assert g.n == 4 and g.edges == frozenset({(1, 2), (3, 4)})


def test_parse_tolerates_dimacs_style_header():
    g = parse_graph("p edge 3 1\ne 1 3\n")
    assert g.n == 3 and g.edges == frozenset({(1, 3)})


def test_parse_json_adjacency():
    g = load_graph('{"adjacency": [[0, 1], [1, 0]]}')
    assert g.n == 2 and g.edges == frozenset({(1, 2)})


@pytest.mark.parametrize(
    "text,match",
    [
        ("p 2 1\ne 1 1\n", "self-loop"),
        ("e 1 2\np 2 1\n", "before problem line"),
        ("p 2 1\ne 1 5\n", "outside vertex range"),
        ("p 2 5\ne 1 2\n", "declares 5 edges"),
        ("p 2 0\nq 1 2\n", "unrecognized"),
        ("e 1 2\n", "before problem"),
        ("p 2 1\ne 1 2 9\n", "bad edge line"),
        ("p a b 3 1\ne 1 2\n", "bad problem line"),
        ("p 2 1\ne 1 2\np 3 1\n", "repeated problem line 3"),
        ("p 3 2\ne 1 2\np 3 1\n", "repeated problem line 3"),
        ('{"edges": [[1, 2]]}', "adjacency"),
        ('{"adjacency": [[0, 1], [0, 0]]}', "symmetric"),
        ('{"adjacency": [[1]]}', "self-loop"),
        ('{"adjacency": 5}', "matrix"),
        ('{"adjacency": {"ab": 1, "cd": 2}}', "row arrays"),
        ('{"adjacency": [{"a": 1}]}', "row arrays"),
        ('{"adjacency": [[false, true], [true, false]]}', "0/1"),
        ('{"adjacency": [[0.0, 1.0], [1.0, 0.0]]}', "0/1"),
    ],
)
def test_parse_rejects_malformed(text, match):
    with pytest.raises(GraphError, match=match):
        load_graph(text)


# Each text was once echoed in full in the message, 100,000 characters of it.
@pytest.mark.parametrize(
    "text, start",
    [
        ("p edge 3 1\n" + "z" * 100_000 + "\ne 1 2\n", "unrecognized line 2: 'zzz"),
        ("p edge " + "9" * 100_000 + " 1\ne 1 2\n", "bad problem line 1: 'p edge 999"),
        ('{"adjacency": [["' + "x" * 100_000 + '"]]}', "adjacency entries must be 0/1, got 'xxx"),
        ("p 3 1\ne 1 " + "9" * 4000 + "\n", "edge (1, 999"),
        ("p %s 1\ne %s %s\n" % (("9" * 4000,) * 3), "self-loop at vertex 999"),
        ("p 3 " + "9" * 4000 + "\ne 1 2\n", "header declares 999"),
    ],
    ids=["line", "problem-line", "adjacency-value", "vertex", "self-loop", "edge-count"],
)
def test_oversized_line_or_value_is_echoed_short(text, start):
    with pytest.raises(GraphError) as exc:
        parse_graph(text)
    message = str(exc.value)
    assert message.startswith(start) and "..." in message and len(message) < 200


@pytest.mark.parametrize("vertex", [1.5, True, "1"])
def test_make_graph_rejects_a_vertex_id_that_is_not_an_int(vertex):
    message = f"edge ({vertex!r}, 2): vertex ids must be ints"
    with pytest.raises(GraphError, match=re.escape(message) + "$"):
        make_graph(3, [(vertex, 2)])


@pytest.mark.parametrize("n", [3.0, True, "3", 0])
def test_make_graph_rejects_a_vertex_count_that_is_not_a_positive_int(n):
    message = f"vertex count must be a positive int, got {n!r}"
    with pytest.raises(GraphError, match=re.escape(message) + "$"):
        make_graph(n, [])


def test_load_graph_rejects_json_nested_too_deep(tmp_path):
    """The decoder runs out of recursion: an input error, not a RecursionError."""
    text = '{"adjacency": %s}' % ("[" * 100_000 + "]" * 100_000)
    path = tmp_path / "deep.json"
    path.write_text(text)
    for source in (path, text):
        with pytest.raises(GraphError, match="^invalid JSON graph: "):
            load_graph(source)


def test_unreadable_long_path_is_named_by_its_end(tmp_path):
    path = str(tmp_path / ("x" * 5000 + "-missing.col"))
    with pytest.raises(GraphError) as exc:
        load_graph(path)
    message = str(exc.value)
    assert message.startswith("cannot read graph file '...")
    assert "-missing.col': " in message and len(message) < 200


def test_path_holding_a_nul_is_a_graph_error():
    with pytest.raises(GraphError) as exc:
        load_graph("a\0b" + "x" * 5000)
    message = str(exc.value)
    assert message.startswith("cannot read graph file '")
    assert message.endswith("x': embedded null byte") and len(message.encode()) < 200
    with pytest.raises(GraphError, match=re.escape("file 'a\\x00b': embedded null byte")):
        load_graph("a\0b")


def test_load_graph_reads_one_line_edge_list_inline(tmp_path, monkeypatch):
    assert load_graph("p 1 0") == load_graph("p 1 0\n") == make_graph(1, [])
    assert load_graph("p edge 2 0") == make_graph(2, [])
    missing = str(tmp_path / "missing.col")
    with pytest.raises(GraphError, match="cannot read graph file.*missing.col"):
        load_graph(missing)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(GraphError, match="cannot read graph file.*missing.col"):
        load_graph("missing.col")
    path = tmp_path / "k3.col"
    path.write_text(graph_to_doc(TRIANGLE))
    assert load_graph(str(path)) == TRIANGLE


def test_graph_doc_round_trip():
    assert load_graph(graph_to_doc(TRIANGLE)) == TRIANGLE


def test_graph_to_instance_triangle():
    inst = graph_to_instance(TRIANGLE)
    assert inst.A == (fracs(0, 1, 1), fracs(1, 0, 1), fracs(1, 1, 0))
    assert inst.b == (ZERO,) * 3
    assert inst.c == (ONE,) * 3
    assert inst.sense == "max"


def test_cover_path3():
    result = solve_cover(PATH3)
    assert result.cover == (2,) and result.size == 1
    assert result.x_star == (ONE, ZERO, ONE)


def test_cover_triangle():
    result = solve_cover(TRIANGLE)
    assert result.size == 2
    assert brute_force_cover(TRIANGLE).size == 2


def test_cover_edgeless():
    g = make_graph(4, [])
    result = solve_cover(g)
    assert result.size == 0 and result.cover == ()
    assert result.x_star == (ONE,) * 4


def test_single_edge_uses_one_variant_2():
    result = solve_cover(EDGE)
    assert result.size == 1
    assert sorted(result.selector.values()).count(2) == 1


def test_triangle_has_single_variant_2():
    result = solve_cover(TRIANGLE)
    assert sorted(result.selector.values()).count(2) == 1


def test_specialized_agrees_on_examples():
    for g in (TRIANGLE, PATH3, EDGE, make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])):
        result = solve_cover(g)
        x, assignment = specialized_cover(g)
        assert result.x_star == x
        assert result.solution.candidate.triple.eq_choices == assignment


def test_structure_report_passes_on_examples():
    for g in (TRIANGLE, PATH3, EDGE, make_graph(4, [])):
        report = verify_structure(solve_cover(g), g)
        assert report.ok, [c for c in report.checks if not c.ok]


def _only_failure(report):
    """The one failing check's (name, detail); the other four must pass."""
    failed = [(c.name, c.detail) for c in report.checks if not c.ok]
    assert len(report.checks) == 5 and len(failed) == 1 and not report.ok
    return failed[0]


def test_audit_flags_a_missing_admissible_triple():
    result = solve_cover(PATH3)
    stats = replace(result.solution.statistics, admissible=2**3 - 1)
    forged = result._replace(solution=result.solution._replace(statistics=stats))
    assert _only_failure(verify_structure(forged, PATH3)) == (
        "every-assignment-admissible",
        "enumerated=8 admissible=7",
    )


def test_audit_flags_a_selector_without_variant_2():
    forged = solve_cover(EDGE)._replace(selector={1: 1, 2: 1})
    assert _only_failure(verify_structure(forged, EDGE)) == (
        "some-variant-2",
        "no row chose variant 2 despite edges",
    )


def test_audit_flags_adjacent_variant_2_rows():
    forged = solve_cover(EDGE)._replace(selector={1: 2, 2: 2})
    assert _only_failure(verify_structure(forged, EDGE)) == (
        "variant-2-rows-independent",
        "adjacent rows (1, 2) both chose variant 2",
    )


def test_audit_flags_a_row_off_diag_eq(monkeypatch):
    result = solve_cover(PATH3)
    monkeypatch.setattr(
        "maxminfre.vertexcover.classify_rows",
        lambda inst: classify_rows(inst)._replace(diag_eq=(2, 3), diag_lt=(1,)),
    )
    assert _only_failure(verify_structure(result, PATH3)) == ("all-rows-diag-eq", "gt=() lt=(1,)")


def test_audit_flags_caps_that_miss_a_neighbour(monkeypatch):
    """Row 2 of the path 1-2-3 loses neighbour 1 from its variant-2 caps."""
    result = solve_cover(PATH3)

    def drop_neighbour(inst):
        cls = classify_rows(inst)
        return cls._replace(support_strict={**cls.support_strict, 2: (3,)})

    monkeypatch.setattr("maxminfre.vertexcover.classify_rows", drop_neighbour)
    assert _only_failure(verify_structure(result, PATH3)) == (
        "masks-complement-adjacency",
        "pin_ok=True cap_ok=False",
    )


def test_optimum_equals_chosen_maximal_bound():
    for g in (TRIANGLE, PATH3, make_graph(6, [(1, 2), (3, 4), (5, 6), (2, 3)])):
        result = solve_cover(g)
        inst = graph_to_instance(g)
        cls = classify_rows(inst)
        ext = extremal_solutions(inst, cls)
        sel = selector_bounds(ext, cls, result.selector, {}, {})
        assert sel.upper_eq == result.x_star


def _path(n):
    return make_graph(n, [(v, v + 1) for v in range(1, n)])


def _grid(rows, cols):
    """Row-major: vertex v sits left of v + 1 and above v + cols."""
    n = rows * cols
    across = [(v, v + 1) for v in range(1, n + 1) if v % cols]
    return make_graph(n, across + [(v, v + cols) for v in range(1, n - cols + 1)])


def _relabeled(g, seed):
    """``g`` with its vertices renumbered by a seeded shuffle."""
    perm = list(range(1, g.n + 1))
    random.Random(seed).shuffle(perm)
    return make_graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


# Sparse covers, whose full-box frontiers used to blow up (P24 took 2 s, the
# 5x6 grid 13 s, random_graph_edges(28, 0.1, 1) 46 s).  Masking finished
# coordinates keeps the frontier to the live ones, and the min-live level
# order keeps those few whatever the numbering: random_graph_edges(40, 0.1, 1)
# took 9.5 s in input order, the relabeled path and grid over 10 s.  Every
# one of the 2^n triples is admissible.
SPARSE20 = make_graph(20, random_graph_edges(20, 0.1, 1))


@pytest.mark.parametrize(
    "g, size",
    [
        (_path(20), 10),
        (_grid(4, 5), 10),
        (SPARSE20, 9),
        (_path(64), 32),
        (_grid(10, 6), 30),
        (make_graph(28, random_graph_edges(28, 0.1, 1)), 14),
        (make_graph(64, []), 0),
        (make_graph(40, random_graph_edges(40, 0.1, 1)), 20),
        (_relabeled(_path(60), 1), 30),
        (_relabeled(_grid(10, 6), 1), 30),
    ],
    ids=[
        "path20", "grid4x5", "sparse20", "path64", "grid10x6", "sparse28", "edgeless64",
        "sparse40", "path60-shuffled", "grid10x6-shuffled",
    ],
)
def test_sparse_cover_pins(g, size):
    result = timed(1.0, solve_cover, g)
    assert result.size == size
    assert result.solution.statistics.admissible == 2**g.n
    assert verify_structure(result, g).ok
    if g is SPARSE20:
        x, assignment = specialized_cover(g)
        assert result.x_star == x
        assert result.solution.candidate.triple.eq_choices == assignment


@given(graphs(max_n=8))
def test_cover_matches_oracle(g):
    result = solve_cover(g)
    oracle = brute_force_cover(g)
    assert result.size == oracle.size


@given(graphs(max_n=8))
def test_cover_covers_and_complement_independent(g):
    result = solve_cover(g)
    cover = set(result.cover)
    assert all(u in cover or v in cover for u, v in g.edges)
    outside = [v for v in range(1, g.n + 1) if v not in cover]
    assert all(
        (min(u, v), max(u, v)) not in g.edges
        for i, u in enumerate(outside)
        for v in outside[i + 1 :]
    )
    assert set(result.x_star) <= {ZERO, ONE}


@given(graphs(max_n=7))
def test_specialized_matches_general(g):
    result = solve_cover(g)
    x, assignment = specialized_cover(g)
    assert result.x_star == x
    assert result.solution.candidate.triple.eq_choices == assignment


_edge_list_text = st.lists(
    st.sampled_from(["p", "e", "c", " ", "\n", "0", "1", "2", "3", "-1", "99", "x"])
).map("".join)


@given(
    st.one_of(
        st.text(),
        st.text().map(lambda t: "{" + t),
        _edge_list_text,
        json_values.map(lambda v: json.dumps({"adjacency": v})),
    )
)
def test_parse_graph_raises_only_graph_errors(text):
    try:
        parse_graph(text)
    except GraphError:
        pass
