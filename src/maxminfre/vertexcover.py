"""Minimum vertex cover through the relational solver.

A simple graph maps to the zero-target instance A = adjacency, b = 0,
c = 1, maximized: a feasible x keeps min{a_ij, x_i, x_j} = 0 on every pair,
i.e. no edge may have both endpoints positive, and maximizing the sum pushes
an independent set of coordinates to one.  The complement {j : x_j = 0} is a
minimum vertex cover.  All diagonal entries equal the target, so every row is
diag_eq, anchors and diag_lt variants degenerate, and every selector
assignment is admissible; the optimum is binary.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

from .exact import ONE, ZERO, Vec, _read_text, quoted
from .extremals import classify_rows
from .model import Instance
from .solver import Solution, solve


class GraphError(ValueError):
    """Malformed graph input (bad header, self-loop, asymmetry, range)."""


class Graph(NamedTuple):
    n: int
    edges: frozenset[tuple[int, int]]  # normalized u < v, vertices 1..n


def make_graph(n: int, edges) -> Graph:
    if type(n) is not int or n < 1:  # no bool, no float
        raise GraphError(f"vertex count must be a positive int, got {quoted(n)}")
    normalized = set()
    for u, v in edges:
        if type(u) is not int or type(v) is not int:  # no bool, no float
            raise GraphError(f"edge ({quoted(u)}, {quoted(v)}): vertex ids must be ints")
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphError(
                f"edge ({quoted(u)}, {quoted(v)}) outside vertex range 1..{quoted(n)}"
            )
        if u == v:
            raise GraphError(f"self-loop at vertex {quoted(u)}; only simple graphs are supported")
        normalized.add((min(u, v), max(u, v)))
    return Graph(n=n, edges=frozenset(normalized))


def graph_from_adjacency(matrix) -> Graph:
    if not isinstance(matrix, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in matrix
    ):
        raise GraphError("adjacency must be a matrix: an array of row arrays")
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise GraphError("adjacency matrix must be square and nonempty")
    edges = []
    for i in range(n):
        for j in range(n):
            val = matrix[i][j]
            if type(val) is not int or val not in (0, 1):  # no bool, no float
                raise GraphError(f"adjacency entries must be 0/1, got {quoted(val)}")
            if matrix[i][j] != matrix[j][i]:
                raise GraphError(f"adjacency must be symmetric (rows {i + 1}, {j + 1})")
            if i == j and val:
                raise GraphError(f"self-loop at vertex {i + 1}")
            if val and i < j:
                edges.append((i + 1, j + 1))
    return make_graph(n, edges)


def parse_graph(text: str) -> Graph:
    """Parse either an edge-list ('p <n> <m>', or DIMACS 'p <format> <n> <m>',
    then 'e <u> <v>' lines, 'c' comments) or a JSON object with an
    "adjacency" matrix.  The problem line sets ``n`` and the declared edge
    count together, so once a missing ``n`` has raised, the count is set."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise GraphError(f"invalid JSON graph: {exc}") from exc
        if "adjacency" not in doc:
            raise GraphError('JSON graph must contain an "adjacency" matrix')
        return graph_from_adjacency(doc["adjacency"])
    n = None
    declared_edges = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphError(f"repeated problem line {lineno}: {quoted(raw)}")
            try:
                if len(parts) not in (3, 4):
                    raise ValueError("expected 'p [<format>] <n> <m>'")
                n, declared_edges = int(parts[-2]), int(parts[-1])
            except ValueError as exc:
                raise GraphError(f"bad problem line {lineno}: {quoted(raw)}") from exc
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"edge before problem line at line {lineno}")
            try:
                _, u, v = parts
                edges.append((int(u), int(v)))
            except ValueError as exc:
                raise GraphError(f"bad edge line {lineno}: {quoted(raw)}") from exc
        else:
            raise GraphError(f"unrecognized line {lineno}: {quoted(raw)}")
    if n is None:
        raise GraphError("missing problem line 'p <n> <m>'")
    graph = make_graph(n, edges)
    if declared_edges != len(graph.edges):
        raise GraphError(
            f"header declares {quoted(declared_edges)} edges, found {len(graph.edges)}"
        )
    return graph


def load_graph(source) -> Graph:
    """Load a graph from inline content or a file path.  Text that names an
    existing file is read from it.  Other text is inline when it spans
    lines, is a JSON object or starts with an edge list's problem line
    ('p <n> <m>'), and names a file otherwise."""
    text = str(source)
    inline = "\n" in text or text.lstrip().startswith(("{", "p ", "p\t"))
    if os.path.isfile(text) or not inline:
        text = _read_text(text, GraphError, "graph")
    return parse_graph(text)


def graph_to_doc(g: Graph) -> str:
    lines = [f"p {g.n} {len(g.edges)}"]
    lines += [f"e {u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def graph_to_instance(g: Graph) -> Instance:
    A = [[ZERO] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        A[u - 1][v - 1] = A[v - 1][u - 1] = ONE
    return Instance(
        n=g.n,
        A=tuple(map(tuple, A)),
        b=(ZERO,) * g.n,
        c=(ONE,) * g.n,
        sense="max",
    )


class CoverResult(NamedTuple):
    cover: tuple[int, ...]
    size: int
    x_star: Vec
    selector: dict[int, int]  # winning variant per row
    solution: Solution


def solve_cover(g: Graph) -> CoverResult:
    """Minimum vertex cover via the general solver."""
    inst = graph_to_instance(g)
    sol = solve(inst)
    if not sol.optimal:  # zero vector always satisfies zero targets
        raise AssertionError(f"cover instance reported infeasible: {sol.cause}")
    x = sol.candidate.x
    selector = dict(sol.candidate.triple.eq_choice)
    cover = tuple(j for j in range(1, g.n + 1) if x[j - 1] == ZERO)
    return CoverResult(
        cover=cover,
        size=len(cover),
        x_star=x,
        selector=selector,
        solution=sol,
    )


class StructureCheck(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class StructureReport(NamedTuple):
    checks: tuple[StructureCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_structure(result: CoverResult, g: Graph) -> StructureReport:
    """Audit the structural facts the reduction guarantees for cover runs."""
    inst = graph_to_instance(g)
    cls = classify_rows(inst)
    checks = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append(StructureCheck(name, ok, "" if ok else detail))

    all_eq = not cls.diag_gt and not cls.diag_lt and len(cls.diag_eq) == g.n
    check("all-rows-diag-eq", all_eq, f"gt={cls.diag_gt} lt={cls.diag_lt}")

    stats = result.solution.statistics
    full = stats.enumerated == 2**g.n and stats.admissible == 2**g.n
    detail = f"enumerated={stats.enumerated} admissible={stats.admissible}"
    check("every-assignment-admissible", full, detail)

    twos = tuple(i for i, v in sorted(result.selector.items()) if v == 2)
    check("some-variant-2", not g.edges or bool(twos), "no row chose variant 2 despite edges")

    clash = next(
        ((i1, i2) for a, i1 in enumerate(twos) for i2 in twos[a + 1 :] if (i1, i2) in g.edges),
        None,
    )
    detail = f"adjacent rows {clash} both chose variant 2"
    check("variant-2-rows-independent", clash is None, detail)

    # what the solve reads: variant 1 caps x_i at b_i = 0, variant 2 caps the neighbours
    pin_ok = all(inst.b[i - 1] == ZERO for i in cls.diag_eq)
    neighbours: dict[int, list[int]] = {i: [] for i in range(1, g.n + 1)}
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    cap_ok = all(cls.caps(i, 2) == tuple(sorted(neighbours[i])) for i in cls.diag_eq)
    check("masks-complement-adjacency", pin_ok and cap_ok, f"pin_ok={pin_ok} cap_ok={cap_ok}")

    return StructureReport(checks=tuple(checks))
