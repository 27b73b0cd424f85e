"""Traced run: the solve pipeline recomposed from public calls, with spans.

Each layer is named after the module whose public function it calls:

* ``model``: ``load_instance``
* ``extremals``: ``classify_rows``, ``extremal_solutions``, ``aggregate_bounds``
* ``reduction``: ``gate_feasibility``, ``reduce_domains``
* ``solver.enumerate``: each ``next()`` on ``enumerate_admissible``
* ``solver.candidate``: ``make_candidate`` plus the incumbent compare
* ``solver.region``: ``feasible_region``
* ``vertexcover``: ``load_graph``, ``graph_to_instance``, the cover read-off
  and ``verify_structure``
* ``exact.render``: the ``--json`` document built with ``exact``

Spans live in memory and are written out when the run ends.  The
recomposed result must equal what ``solve``/``solve_cover`` return.
"""

from __future__ import annotations

import gzip
import json
import math
import time
from collections import Counter

from maxminfre import (
    Infeasibility,
    Solution,
    Statistics,
    aggregate_bounds,
    classify_rows,
    enumerate_admissible,
    extremal_solutions,
    feasible_region,
    gate_feasibility,
    graph_to_instance,
    load_graph,
    load_instance,
    make_candidate,
    reduce_domains,
    verify_structure,
)
from maxminfre.exact import ZERO
from maxminfre.reduction import CAUSE_EMPTY_SUPPORT, CAUSE_NO_TRIPLE
from maxminfre.vertexcover import CoverResult

from workloads import Outcome, render_cover, render_solve

LAYERS = (
    "model",
    "extremals",
    "reduction",
    "solver.enumerate",
    "solver.candidate",
    "solver.region",
    "vertexcover",
    "exact.render",
)
ROOT = "operation"
SPAN_COLUMNS = ("op", "span", "parent", "name", "start", "end")


class Recorder:
    """Spans as parallel lists: name, start, end, parent index, operation."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._open: list[int] = []
        self._op = -1

    def open(self, name: str) -> None:
        self._open.append(len(self.starts))
        self.names.append(name)
        self.parents.append(self._open[-2] if len(self._open) > 1 else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())

    def close(self) -> None:
        end = time.perf_counter()
        self.ends[self._open.pop()] = end

    def begin(self, op: int) -> None:
        """Open the root span of one operation (dropping any left open)."""
        self._open.clear()
        self._op = op
        self.open(ROOT)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child = [0.0] * len(self.starts)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        totals = {name: 0.0 for name in (ROOT, *LAYERS)}
        for idx, name in enumerate(self.names):
            totals[name] += self.ends[idx] - self.starts[idx] - child[idx]
        return totals

    def write(self, path, header: dict) -> None:
        """Gzipped JSON lines: the header, then [op, span, parent, name,
        start, end] per span, times in seconds of ``time.perf_counter``."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "columns": SPAN_COLUMNS}) + "\n")
            for idx in range(len(self.starts)):
                row = (self.ops[idx], idx, self.parents[idx], self.names[idx],
                       self.starts[idx], self.ends[idx])
                fh.write(json.dumps(row) + "\n")


def _statistics(state, admissible: int = 0, enumerated: int = 0) -> Statistics:
    firings = Counter(event.rule for event in state.trace)
    return Statistics(
        enumerated=enumerated,
        admissible=admissible,
        initial_cards=state.snapshots[0][1:],
        final_cards=state.cardinalities(),
        rule_firings=tuple(sorted(firings.items())),
        trace=tuple(state.trace),
    )


EMPTY_STATISTICS = Statistics(0, 0, (1, 1, 1), (1, 1, 1), (), ())


def _pipeline(rec: Recorder, inst, counts: Counter) -> Solution:
    """``solve(inst)`` from its public parts."""
    rec.open("extremals")
    cls = classify_rows(inst)
    if cls.empty_support:
        rec.close()
        counts["decided"] += 1
        cause = Infeasibility(CAUSE_EMPTY_SUPPORT, cls.empty_support)
        return Solution("infeasible", None, cause, EMPTY_STATISTICS)
    ext = extremal_solutions(inst, cls)
    bounds = aggregate_bounds(ext, cls)
    rec.close()
    counts["extremals.vectors"] += sum(
        map(len, (ext.row_max, ext.row_min, ext.max_pin, ext.max_cap, ext.min_anchor))
    )

    rec.open("reduction")
    gate = gate_feasibility(inst, cls, bounds)
    state = None if gate is not None else reduce_domains(inst, cls, ext, bounds)
    rec.close()
    if gate is not None:
        counts["decided"] += 1
        return Solution("infeasible", None, gate, EMPTY_STATISTICS)
    counts["reduction.firings"] += len(state.trace)
    if state.infeasible is not None:
        counts["decided"] += 1
        return Solution("infeasible", None, state.infeasible, _statistics(state))

    enumerated = math.prod(state.cardinalities())
    want_min = inst.sense == "min"
    best = None
    admissible = 0
    boxes = set()
    stream = enumerate_admissible(state, bounds, ext)
    while True:
        rec.open("solver.enumerate")
        pair = next(stream, None)
        rec.close()
        if pair is None:
            break
        triple, cell = pair
        admissible += 1
        boxes.add(cell)
        rec.open("solver.candidate")
        cand = make_candidate(triple, cell, inst.c, inst.sense)
        if best is None or (
            cand.objective < best.objective if want_min else cand.objective > best.objective
        ):
            best = cand
        rec.close()
    counts["solver.enumerate.distinct_boxes"] += len(boxes)
    stats = _statistics(state, admissible=admissible, enumerated=enumerated)
    if best is None:
        return Solution("infeasible", None, Infeasibility(CAUSE_NO_TRIPLE), stats)
    return Solution("optimal", best, None, stats)


def _count_solution(sol: Solution, counts: Counter) -> None:
    counts["reduction.selectors_after"] += sol.statistics.enumerated
    counts["solver.enumerate.admissible"] += sol.statistics.admissible
    counts["solver.candidate.count"] += sol.statistics.admissible


def traced_solve(rec: Recorder, text: str, region: bool, counts: Counter) -> Outcome:
    rec.open("model")
    inst = load_instance(text)
    rec.close()
    counts["model.scalars"] += inst.n * inst.n + 2 * inst.n
    started = time.perf_counter()
    sol = _pipeline(rec, inst, counts)
    elapsed = time.perf_counter() - started
    _count_solution(sol, counts)
    cells = None
    if region and sol.optimal:
        rec.open("solver.region")
        cells = feasible_region(inst)
        rec.close()
        counts["solver.region.boxes"] += len(cells)
    rec.open("exact.render")
    text = render_solve(sol, cells, elapsed, region)
    rec.close()
    # Without the digits of elapsed_seconds, so that the count repeats.
    counts["exact.render.bytes"] += len(text.encode()) - len(repr(round(elapsed, 6)))
    return Outcome(text, 0 if sol.optimal else 1, sol)


def traced_cover(rec: Recorder, text: str, counts: Counter) -> Outcome:
    rec.open("vertexcover")
    graph = load_graph(text)
    inst = graph_to_instance(graph)
    rec.close()
    sol = _pipeline(rec, inst, counts)
    _count_solution(sol, counts)
    if not sol.optimal:
        raise AssertionError(f"cover instance reported infeasible: {sol.cause}")
    rec.open("vertexcover")
    x = sol.candidate.x
    cover = tuple(j for j in range(1, graph.n + 1) if x[j - 1] == ZERO)
    result = CoverResult(cover, len(cover), x, dict(sol.candidate.triple.eq_choice), sol)
    report = verify_structure(result, graph)
    rec.close()
    rec.open("exact.render")
    text = render_cover(result, report)
    rec.close()
    counts["exact.render.bytes"] += len(text.encode())
    return Outcome(text, 0, result)


def traced_op(workload: str, rec: Recorder, text: str, counts: Counter) -> Outcome:
    if workload == "cover":
        return traced_cover(rec, text, counts)
    return traced_solve(rec, text, workload == "fre-mix", counts)
