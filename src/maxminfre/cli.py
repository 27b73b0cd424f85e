"""Command-line frontend.

Subcommands: solve, reduce, extremals, region, vc, oracle, gen, check.
Instance files are JSON documents {"A", "b", "c", "sense"} with decimal-string
or numeric entries; graphs are edge lists ('p <n> <m>' / 'e <u> <v>') or JSON
adjacency.  Exit codes: 0 solved/feasible, 1 infeasible/not-a-member, 2 input
error, 3 internal error (with a traceback).  A reader that closes the output
pipe early ends the run quietly with 141, as SIGPIPE would.  All numeric
output is exact decimal; objectives also carry a two-decimal display form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from .exact import _file_message, _read_text, decimal_str, display_round, vector_str
from .extremals import Cell, classify_rows, extremal_solutions
from .generate import (
    KINDS,
    random_binary_fre_doc,
    random_fre_doc,
    random_graph_edges,
)
from .model import InstanceError, check_membership, load_instance, parse_json
from .oracle import (
    BudgetExceeded,
    brute_force_cover,
    grid_optimum,
    sample_feasibility,
)
from .reduction import CAUSE_EMPTY_SUPPORT, Infeasibility
from .solver import Solution, _prepare, feasible_region, resolve_region, solve
from .vertexcover import (
    GraphError,
    graph_to_doc,
    load_graph,
    make_graph,
    parse_graph,
    solve_cover,
    verify_structure,
)

OK, INFEASIBLE, INPUT_ERROR, INTERNAL_ERROR, BROKEN_PIPE = 0, 1, 2, 3, 141


def _cell_doc(cell: Cell) -> dict:
    return {"lower": vector_str(cell.lower), "upper": vector_str(cell.upper)}


def _statistics_doc(sol: Solution) -> dict:
    st = sol.statistics
    return {
        "enumerated": st.enumerated,
        "admissible": st.admissible,
        "initial_domains": dict(zip(("eq", "lt", "anchor"), st.initial_cards)),
        "final_domains": dict(zip(("eq", "lt", "anchor"), st.final_cards)),
        "rule_firings": {f"rule{rule}": count for rule, count in st.rule_firings},
    }


def _solution_doc(sol: Solution, trace: bool = False, cells=None) -> dict:
    doc: dict = {"status": sol.status, "statistics": _statistics_doc(sol)}
    if sol.optimal:
        cand = sol.candidate
        doc["x"] = vector_str(cand.x)
        doc["objective"] = decimal_str(cand.objective)
        doc["objective_display"] = display_round(cand.objective)
        doc["triple"] = {
            "anchors": dict(zip(cand.triple.anchor_rows, cand.triple.anchors)),
            "eq_variants": dict(zip(cand.triple.eq_rows, cand.triple.eq_choices)),
            "lt_variants": dict(zip(cand.triple.lt_rows, cand.triple.lt_choices)),
        }
        doc["cell"] = _cell_doc(cand.cell)
    else:
        doc.update(_infeasibility_doc(sol.cause))
    if trace:
        doc["trace"] = [event.line() for event in sol.statistics.trace]
    if cells is not None:
        doc["region"] = [_cell_doc(cell) for cell in cells]
    return doc


def _infeasibility_doc(cause: Infeasibility) -> dict:
    return {"infeasibility_cause": cause.cause, "infeasibility_rows": list(cause.rows)}


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    for line in _human_lines(doc, indent=""):
        print(line)


def _human_lines(value: dict | list, indent: str):
    """One line per entry, labelled ``key:`` in a dict and ``-`` in a list;
    a nonempty entry that is not a flat list gets its own indented block."""
    if isinstance(value, dict):
        labelled = [(f"{key}:", sub) for key, sub in value.items()]
    else:
        labelled = [("-", sub) for sub in value]
    for label, sub in labelled:
        if isinstance(sub, (dict, list)) and sub and not _is_flat(sub):
            yield f"{indent}{label}"
            yield from _human_lines(sub, indent + "  ")
        else:
            yield f"{indent}{label} {_flat(sub)}"


def _is_flat(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(v, (dict, list)) for v in value
    )


def _flat(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    started = time.perf_counter()
    sol = solve(inst, use_rules=not args.no_rules)
    elapsed = time.perf_counter() - started
    cells = feasible_region(inst) if args.region and sol.optimal else None
    doc = {"command": _echo(args, "solve", "instance")}
    doc.update(_solution_doc(sol, trace=args.trace, cells=cells))
    doc["elapsed_seconds"] = round(elapsed, 6)
    _emit(doc, args.json)
    return OK if sol.optimal else INFEASIBLE


def _echo(args, command: str, path_attr: str) -> str:
    flags = [
        f"--{name.replace('_', '-')}"
        for name in ("no_rules", "trace", "region", "brute")
        if getattr(args, name, False)
    ]
    return " ".join([command, getattr(args, path_attr), *flags])


def cmd_reduce(args) -> int:
    state, verdict = _prepare(load_instance(args.instance), use_rules=True)
    if state is None:  # the gate decided
        print(f"infeasible: {verdict.describe()}")
        return INFEASIBLE
    for event in state.trace:
        print(event.line())
    for i in state.cls.diag_eq:
        print(f"eq row {i}: variants {set(state.eq_dom[i]) or '{}'}")
    for i in state.cls.diag_lt:
        print(f"lt row {i}: variants {set(state.lt_dom[i]) or '{}'}")
        print(f"lt row {i}: anchors {set(state.anchor_dom[i]) or '{}'}")
    for stage, eq, lt, anchor in state.snapshots:
        print(f"{stage}: |eq|={eq} |lt|={lt} |anchor|={anchor} total={eq * lt * anchor}")
    if state.infeasible:
        print(f"infeasible: {state.infeasible.describe()}")
        return INFEASIBLE
    return OK


def cmd_extremals(args) -> int:
    inst = load_instance(args.instance)
    cls = classify_rows(inst)
    ext = extremal_solutions(inst, cls)
    for i in inst.rows:
        kind = (
            "diag_gt" if i in cls.diag_gt else "diag_eq" if i in cls.diag_eq else "diag_lt"
        )
        print(f"row {i} [{kind}] support={{{', '.join(map(str, cls.support[i]))}}}")
        if i in cls.diag_gt:
            print(f"  max: {_flat(vector_str(ext.row_max[i]))}")
            print(f"  min: {_flat(vector_str(ext.row_min[i]))}")
            continue
        print(f"  max variant 1: {_flat(vector_str(ext.max_pin[i]))}")
        print(f"  max variant 2: {_flat(vector_str(ext.max_cap[i]))}")
        if i in cls.diag_eq:
            print(f"  min: {_flat(vector_str(ext.row_min[i]))}")
        else:
            for j in cls.support[i]:
                print(f"  min anchor {j}: {_flat(vector_str(ext.min_anchor[i, j]))}")
    if cls.empty_support:
        print(f"infeasible: {Infeasibility(CAUSE_EMPTY_SUPPORT, cls.empty_support).describe()}")
        return INFEASIBLE
    return OK


def cmd_region(args) -> int:
    inst = load_instance(args.instance)
    cells, cause = resolve_region(inst, dedup=not args.no_dedup)
    if cause is not None:
        if args.json:
            _emit({"status": "infeasible", **_infeasibility_doc(cause)}, True)
        else:
            print(f"infeasible: {cause.describe()}")
        return INFEASIBLE
    doc = {"status": "feasible", "cells": [_cell_doc(c) for c in cells]}
    _emit(doc, args.json)
    return OK


def cmd_vc(args) -> int:
    graph = load_graph(args.graph)
    result = solve_cover(graph)
    report = verify_structure(result, graph)
    doc = {
        "command": _echo(args, "vc", "graph"),
        "cover": list(result.cover),
        "size": result.size,
        "x_star": vector_str(result.x_star),
        "selector": {str(i): v for i, v in sorted(result.selector.items())},
        "checks": [
            {"name": c.name, "ok": c.ok, **({"detail": c.detail} if c.detail else {})}
            for c in report.checks
        ],
        "checks_ok": report.ok,
    }
    if args.brute:
        oracle = brute_force_cover(graph)
        doc["brute"] = {"size": oracle.size, "cover": list(oracle.cover)}
        doc["brute_agrees"] = oracle.size == result.size
    _emit(doc, args.json)
    return OK


def cmd_oracle(args) -> int:
    text = _read_text(args.path, InstanceError, "instance or graph")
    # a JSON object is a graph iff it has a top-level "adjacency" key
    doc = parse_json(text) if text.lstrip().startswith("{") else None
    if doc is None or "adjacency" in doc:
        graph = parse_graph(text)
        if args.sample is not None:
            raise GraphError("--sample needs an instance file, not a graph")
        oracle = brute_force_cover(graph)
        _emit({"size": oracle.size, "cover": list(oracle.cover)}, args.json)
        return OK
    inst = load_instance(doc)
    if args.sample is not None:
        if args.sample < 1:
            raise InstanceError(f"--sample must be at least 1, got {args.sample}")
        cells = feasible_region(inst)
        report = sample_feasibility(inst, cells, args.sample, args.seed)
        doc = {
            "samples": report.samples,
            "disagreements": len(report.disagreements),
            "agreed": report.agreed,
        }
        _emit(doc, args.json)
        return OK if report.agreed else INFEASIBLE
    result = grid_optimum(inst)
    if not result.feasible:
        _emit({"status": "infeasible", "points": result.points}, args.json)
        return INFEASIBLE
    doc = {
        "status": "optimal",
        "objective": decimal_str(result.objective),
        "objective_display": display_round(result.objective),
        "x": vector_str(result.x),
        "points": result.points,
    }
    _emit(doc, args.json)
    return OK


def cmd_gen(args) -> int:
    try:
        if args.kind == "random-graph":
            edges = random_graph_edges(args.n, args.density, args.seed)
            payload = graph_to_doc(make_graph(args.n, edges))
        else:
            maker = random_fre_doc if args.kind == "random-fre" else random_binary_fre_doc
            doc = maker(args.n, args.density, args.seed, sense=args.sense)
            payload = json.dumps(doc, indent=2) + "\n"
    except ValueError as exc:  # generator parameters out of range
        raise InstanceError(str(exc)) from exc
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise OSError(_file_message("write output file", args.output, exc)) from exc
    else:
        sys.stdout.write(payload)
    return OK


def cmd_check(args) -> int:
    inst = load_instance(args.instance)
    raw = args.x.strip()
    if raw.startswith("["):
        try:
            values = parse_json(raw)
        except InstanceError as exc:
            raise InstanceError(f"--x: {exc}") from exc
    else:
        values = raw.split(",")  # every field counts: an empty one fails as x[k]
    report = check_membership(inst, values)
    doc = {
        "feasible": report.feasible,
        "rows": [
            {
                "row": r.row,
                "achieved": decimal_str(r.achieved),
                "required": decimal_str(r.required),
                **({"witness": r.witness} if r.witness is not None else {}),
                **({"violation": r.violation} if r.violation is not None else {}),
            }
            for r in report.rows
        ],
    }
    _emit(doc, args.json)
    return OK if report.feasible else INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxminfre",
        description="Exact linear optimization over square max-min relational systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance to global optimality")
    p.add_argument("instance")
    p.add_argument("--no-rules", action="store_true", help="skip domain reduction")
    p.add_argument("--trace", action="store_true", help="include the reduction trace")
    p.add_argument("--region", action="store_true", help="include all region boxes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="show the domain-reduction trace")
    p.add_argument("instance")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("extremals", help="dump every per-row extremal vector")
    p.add_argument("instance")
    p.set_defaults(func=cmd_extremals)

    p = sub.add_parser("region", help="resolve the feasible region into boxes")
    p.add_argument("instance")
    p.add_argument(
        "--no-dedup", action="store_true", help="list every distinct box, dominated ones too"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("vc", help="minimum vertex cover of a graph file")
    p.add_argument("graph")
    p.add_argument("--brute", action="store_true", help="cross-check with the oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_vc)

    p = sub.add_parser("oracle", help="brute-force verifiers")
    p.add_argument("path", help="instance or graph file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--grid", action="store_true", help="grid optimum (default)")
    mode.add_argument("--sample", type=int, metavar="K", help="membership/box agreement")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a random instance or graph")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sense", choices=("min", "max"), default="min")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="test membership of a given point")
    p.add_argument("instance")
    p.add_argument("--x", required=True, help="comma-separated or JSON list")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at /dev/null so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (InstanceError, GraphError, BudgetExceeded, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except Exception:
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
