"""Workload inputs, operations and output checks.

A workload is a pool of input texts built from the run seed.  The program
receives only those texts.  One operation makes, in-process, the library
calls that one CLI command makes and renders its ``--json`` document the way
the CLI does:

* ``fre-mix``: ``solve --json --region`` on ``random_fre_doc(12, 0.7, s,
  b_cap=0.5)`` for s in 0..199 (the window whose shares the benchmark was
  designed on), with the cost vector redrawn from the run seed.  The
  constraint part stays fixed because single instances of this generator
  range from 1 ms to minutes (generator seed 1599 takes about 3 minutes), and
  the enumeration cost of one instance changes by up to 2x under a relabeling
  of its indices; the costs change every optimum and tie-break but no
  enumeration work.
* ``cover``: ``vc --json`` on ``random_graph_edges(n, 0.3, s)`` with n cycling
  through 10, 11, 12 and s drawn from the run seed.
* ``fre-wide``: ``solve --json`` on ``random_fre_doc(64, 0.3, s, b_cap=0.5)``
  for s in 0..99, each relabeled by a permutation drawn from the run seed and
  with redrawn costs.  These instances all end at rule 7; a relabeling keeps
  the verdict (the rules are equivariant), while a fresh generator seed can
  be feasible and enumerate for minutes (1 in about 300 random seeds).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from maxminfre import (
    check_membership,
    feasible_region,
    load_graph,
    load_instance,
    solve,
    solve_cover,
    verify_structure,
)
from maxminfre.exact import decimal_str, display_round, vector_str
from maxminfre.generate import random_fre_doc, random_graph_edges
from maxminfre.oracle import brute_force_cover
from maxminfre.reduction import (
    CAUSE_ANCHORS,
    CAUSE_BOUND_CROSSING,
    CAUSE_EMPTY_SUPPORT,
    CAUSE_EQ_VARIANTS,
    CAUSE_LT_VARIANTS,
    CAUSE_NO_TRIPLE,
)

KNOWN_CAUSES = frozenset(
    {
        CAUSE_EMPTY_SUPPORT,
        CAUSE_BOUND_CROSSING,
        CAUSE_EQ_VARIANTS,
        CAUSE_LT_VARIANTS,
        CAUSE_ANCHORS,
        CAUSE_NO_TRIPLE,
    }
)


@dataclass(frozen=True)
class Item:
    """One input: the text the program reads and what it was built from."""

    label: str
    text: str
    spec: object  # instance document (dict) or (n, edges) for a graph


@dataclass(frozen=True)
class Outcome:
    text: str  # rendered --json document
    status: int  # the exit status the CLI would return
    result: object  # Solution or CoverResult, for the traced comparison


# ---------------------------------------------------------------- inputs


def _costs(rng: random.Random, n: int) -> list[str]:
    return [f"{rng.randrange(-1000, 1001) / 100:.2f}" for _ in range(n)]


def _instance_item(label: str, doc: dict) -> Item:
    return Item(label, json.dumps(doc), doc)


def build_fre_mix(seed: int, size: int) -> list[Item]:
    rng = random.Random(f"fre-mix:{seed}")
    items = []
    for s in range(size):
        doc = random_fre_doc(12, 0.7, s, b_cap=0.5)
        doc["c"] = _costs(rng, 12)
        items.append(_instance_item(f"gen={s}", doc))
    return items


def build_cover(seed: int, size: int) -> list[Item]:
    rng = random.Random(f"cover:{seed}")
    items = []
    for k in range(size):
        n = 10 + k % 3
        s = rng.randrange(2**32)
        edges = random_graph_edges(n, 0.3, s)
        lines = [f"p {n} {len(edges)}", *(f"e {u} {v}" for u, v in edges)]
        items.append(Item(f"n={n} gen={s}", "\n".join(lines) + "\n", (n, edges)))
    return items


def build_fre_wide(seed: int, size: int) -> list[Item]:
    rng = random.Random(f"fre-wide:{seed}")
    items = []
    for s in range(size):
        base = random_fre_doc(64, 0.3, s, b_cap=0.5)
        p = list(range(64))
        rng.shuffle(p)
        doc = {
            "A": [[base["A"][p[i]][p[j]] for j in range(64)] for i in range(64)],
            "b": [base["b"][p[i]] for i in range(64)],
            "c": _costs(rng, 64),
            "sense": base["sense"],
        }
        items.append(_instance_item(f"gen={s}", doc))
    return items


# ------------------------------------------------------------- rendering
# Mirrors the document that cli.py builds for ``solve --json`` and
# ``vc --json``; the smoke test compares the two.


def cell_doc(cell) -> dict:
    return {"lower": vector_str(cell.lower), "upper": vector_str(cell.upper)}


def solution_doc(sol, cells) -> dict:
    st = sol.statistics
    doc: dict = {
        "status": sol.status,
        "statistics": {
            "enumerated": st.enumerated,
            "admissible": st.admissible,
            "initial_domains": dict(zip(("eq", "lt", "anchor"), st.initial_cards)),
            "final_domains": dict(zip(("eq", "lt", "anchor"), st.final_cards)),
            "rule_firings": {f"rule{rule}": count for rule, count in st.rule_firings},
        },
    }
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
        doc["cell"] = cell_doc(cand.cell)
    else:
        doc["infeasibility_cause"] = sol.cause.cause
        doc["infeasibility_rows"] = list(sol.cause.rows)
    if cells is not None:
        doc["region"] = [cell_doc(cell) for cell in cells]
    return doc


def render_solve(sol, cells, elapsed: float, region: bool) -> str:
    doc = {"command": "solve instance.json" + (" --region" if region else "")}
    doc.update(solution_doc(sol, cells))
    doc["elapsed_seconds"] = round(elapsed, 6)
    return json.dumps(doc, indent=2, sort_keys=True)


def render_cover(result, report) -> str:
    doc = {
        "command": "vc graph.col",
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
    return json.dumps(doc, indent=2, sort_keys=True)


def digest(text: str) -> str:
    """Digest of a rendered document without its timing field."""
    doc = json.loads(text)
    doc.pop("elapsed_seconds", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


# ------------------------------------------------------------ operations


def solve_op(text: str, region: bool) -> Outcome:
    inst = load_instance(text)
    started = time.perf_counter()
    sol = solve(inst)
    elapsed = time.perf_counter() - started
    cells = feasible_region(inst) if region and sol.optimal else None
    return Outcome(render_solve(sol, cells, elapsed, region), 0 if sol.optimal else 1, sol)


def cover_op(text: str) -> Outcome:
    graph = load_graph(text)
    result = solve_cover(graph)
    report = verify_structure(result, graph)
    return Outcome(render_cover(result, report), 0, result)


# ---------------------------------------------------------------- checks


def _fractions(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _inside(x, box: dict) -> bool:
    lower, upper = _fractions(box["lower"]), _fractions(box["upper"])
    return all(lo <= v <= up for lo, v, up in zip(lower, x, upper))


def check_solve(item: Item, out: Outcome, region: bool) -> list[str]:
    """Problems with one rendered ``solve --json`` document; empty when valid."""
    doc = json.loads(out.text)
    spec = item.spec
    if doc["status"] == "infeasible":
        problems = [] if out.status == 1 else [f"infeasible with exit {out.status}"]
        if doc["infeasibility_cause"] not in KNOWN_CAUSES:
            problems.append(f"unknown cause {doc['infeasibility_cause']!r}")
        if "x" in doc or "region" in doc:
            problems.append("infeasible document carries a solution")
        return problems
    if doc["status"] != "optimal" or out.status != 0:
        return [f"status {doc['status']!r} with exit {out.status}"]
    problems = []
    x = _fractions(doc["x"])
    if not check_membership(load_instance(spec), x).feasible:
        problems.append("x fails check_membership")
    objective = sum((cj * xj for cj, xj in zip(_fractions(spec["c"]), x)), Fraction(0))
    if Fraction(doc["objective"]) != objective:
        problems.append(f"objective {doc['objective']} != c.x = {objective}")
    if not _inside(x, doc["cell"]):
        problems.append("x outside its reported cell")
    stats = doc["statistics"]
    if not 0 < stats["admissible"] <= stats["enumerated"]:
        problems.append(f"statistics admissible={stats['admissible']} enumerated={stats['enumerated']}")
    if region:
        boxes = doc.get("region") or []
        if not boxes:
            problems.append("feasible instance without region boxes")
        for box in boxes:
            lower, upper = _fractions(box["lower"]), _fractions(box["upper"])
            if any(lo > up for lo, up in zip(lower, upper)):
                problems.append("empty region box")
                break
        if boxes and not any(_inside(x, box) for box in boxes):
            problems.append("x lies in no region box")
    return problems


def check_cover(item: Item, out: Outcome) -> list[str]:
    """Problems with one rendered ``vc --json`` document; empty when valid."""
    doc = json.loads(out.text)
    n, edges = item.spec
    cover = set(doc["cover"])
    problems = [] if out.status == 0 else [f"exit {out.status}"]
    if doc["size"] != len(cover):
        problems.append(f"size {doc['size']} for {len(cover)} listed vertices")
    if any(u not in cover and v not in cover for u, v in edges):
        problems.append("listed set leaves an edge uncovered")
    if [j for j in range(1, n + 1) if doc["x_star"][j - 1] == "0"] != sorted(cover):
        problems.append("x_star zeros differ from the cover")
    if not doc["checks_ok"]:
        problems.append("verify_structure reported a failed check")
    oracle = brute_force_cover(load_graph(item.text)).size
    if doc["size"] != oracle:
        problems.append(f"size {doc['size']} != brute-force size {oracle}")
    return problems


# ------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the CLI command one operation mirrors
    build: Callable[[int, int], list[Item]]
    sizes: dict  # pool size per --size
    op: Callable[[str], Outcome]
    check: Callable[[Item, Outcome], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fre-mix",
            "solve --json --region",
            build_fre_mix,
            {"full": 200, "tiny": 12},
            lambda text: solve_op(text, region=True),
            lambda item, out: check_solve(item, out, region=True),
        ),
        Workload(
            "cover",
            "vc --json",
            build_cover,
            {"full": 36, "tiny": 3},
            cover_op,
            check_cover,
        ),
        Workload(
            "fre-wide",
            "solve --json",
            build_fre_wide,
            {"full": 100, "tiny": 3},
            lambda text: solve_op(text, region=False),
            lambda item, out: check_solve(item, out, region=False),
        ),
    )
}
