"""Problem instances and exact membership testing.

An instance is a square system over x in [0,1]^n:

    for every row i:   max_j min{a_ij, x_i, x_j} = b_i

together with a linear objective c'x to minimize or maximize.  Row i is
satisfied exactly when (I) min{a_ij, x_i, x_j} <= b_i for every column j and
(II) equality holds for at least one column.

Loading parses each distinct decimal string once per process: ``_unit_table``
(A and b, which must lie in [0, 1]) and ``_cost_table`` (c) map a string to
its checked scalar, parse it on its first lookup, and are emptied when full.
Together they keep at most ``SCALAR_TABLE_SIZE`` strings.  Full of short
decimals they hold about 1 MB; full of 1000-place decimals, about 8 MB; at
their worst, every entry of the longest length they keep
(``_TABLE_TEXT_LIMIT``), about 13 MB.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import NamedTuple

from .exact import MAX_EXPONENT, ZERO, Vec, _read_text, parse_scalar, quoted

SCALAR_TABLE_SIZE = 4096  # strings kept by the two tables together, half each
# The longest plain decimal the size rule accepts: a sign, MAX_EXPONENT + 1
# integer digits, a point and MAX_EXPONENT places.  A longer spelling (padded
# with whitespace or zeros) is parsed where it stands, so no entry of the
# table outgrows this.
_TABLE_TEXT_LIMIT = 2 * MAX_EXPONENT + 3


class InstanceError(ValueError):
    """Malformed instance document: parse, dimension or range failure."""


class Instance(NamedTuple):
    n: int
    A: tuple[Vec, ...]
    b: Vec
    c: Vec
    sense: str  # "min" | "max"

    @property
    def rows(self) -> range:
        """Row/column indices; everything user-facing is 1-based."""
        return range(1, self.n + 1)


class RowStatus(NamedTuple):
    row: int
    achieved: Fraction
    required: Fraction
    witness: int | None  # first column attaining equality, if any
    violation: int | None  # first column whose term exceeds the target


class MembershipReport(NamedTuple):
    feasible: bool
    rows: tuple[RowStatus, ...]


def squarify(A: list[list[Fraction]], b: list[Fraction]):
    """Pad a rectangular system to square order max(m, n).

    Extra columns (m > n) carry zero coefficients everywhere; extra rows
    (m < n) are all-zero with a zero target, hence vacuously satisfiable.
    """
    m = len(A)
    n = len(A[0]) if A else 0
    if m > n:
        A = [row + [ZERO] * (m - n) for row in A]
    elif n > m:
        A = [list(row) for row in A] + [[ZERO] * n for _ in range(n - m)]
        b = list(b) + [ZERO] * (n - m)
    return A, b


def _scalar(value, what: str, unit: bool = True) -> Fraction:
    """One input scalar: a finite decimal, within [0, 1] when ``unit``."""
    try:
        parsed = parse_scalar(value)
    except ValueError as exc:
        raise InstanceError(f"{what}: {exc}") from exc
    # 0 <= p/q <= 1 on the ints, which is much cheaper than Fraction compares
    if unit and not 0 <= parsed.numerator <= parsed.denominator:
        raise InstanceError(f"{what} = {quoted(value)} outside [0, 1]")
    return parsed


class _ScalarTable(dict):
    """``table[text]`` is ``_scalar(text, "", unit)`` for a str of at most
    ``_TABLE_TEXT_LIMIT`` characters, parsed on its first lookup and kept;
    any other key raises TypeError.  A rejected string raises on every
    lookup, and a full table is emptied before the next string goes in."""

    def __init__(self, unit: bool):
        super().__init__()
        self.unit = unit

    def __missing__(self, text):
        if type(text) is not str or len(text) > _TABLE_TEXT_LIMIT:
            raise TypeError("only a str of bounded length is kept in the table")
        parsed = _scalar(text, "", self.unit)
        if len(self) >= SCALAR_TABLE_SIZE // 2:
            self.clear()
        self[text] = parsed
        return parsed


_unit_table = _ScalarTable(unit=True)
_cost_table = _ScalarTable(unit=False)


def instance_from_doc(doc: dict) -> Instance:
    """Validate a parsed instance document and build an Instance.

    Non-square systems are padded to square order; costs for variables
    introduced by column padding default to zero.
    """
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    for key in ("A", "b", "c"):
        if key not in doc:
            raise InstanceError(f"missing field {key!r}")
        if not isinstance(doc[key], (list, tuple)):
            raise InstanceError(f"{key} must be an array")
    if not all(isinstance(row, (list, tuple)) for row in doc["A"]):
        raise InstanceError("A must be an array of rows")
    given = doc.get("sense", "min")  # only a string is lowered: str() of any value may recurse
    lowered = given.lower() if isinstance(given, str) else None
    sense = {"min": "min", "minimize": "min", "max": "max", "maximize": "max"}.get(lowered)
    if sense is None:
        raise InstanceError(f"sense must be min or max, got {quoted(given)}")

    unit = _unit_table.__getitem__
    try:
        A = [list(map(unit, row)) for row in doc["A"]]
        b = list(map(unit, doc["b"]))
    except (TypeError, InstanceError):  # entry by entry, naming the first bad field
        A = [
            [_scalar(v, f"A[{i}][{j}]") for j, v in enumerate(row, start=1)]
            for i, row in enumerate(doc["A"], start=1)
        ]
        b = [_scalar(v, f"b[{i}]") for i, v in enumerate(doc["b"], start=1)]
    try:
        c = list(map(_cost_table.__getitem__, doc["c"]))
    except (TypeError, InstanceError):
        c = [_scalar(v, f"c[{j}]", unit=False) for j, v in enumerate(doc["c"], start=1)]

    m = len(A)
    if m == 0:
        raise InstanceError("A must have at least one row")
    width = len(A[0])
    if width == 0 or any(len(row) != width for row in A):
        raise InstanceError("A must be rectangular with at least one column")
    if len(b) != m:
        raise InstanceError(f"b has {len(b)} entries for {m} rows")
    if len(c) != width:
        raise InstanceError(f"c has {len(c)} entries for {width} columns")

    A, b = squarify(A, b)
    order = len(A)
    c = list(c) + [ZERO] * (order - len(c))
    return Instance(
        n=order,
        A=tuple(tuple(row) for row in A),
        b=tuple(b),
        c=tuple(c),
        sense=sense,
    )


def parse_json(text: str):
    """Parse JSON text, keeping every number as its text so that it gets the
    field-naming checks of strings.  Nesting too deep for the decoder's
    recursion is invalid input too."""
    try:
        return json.loads(text, parse_float=str, parse_int=str)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InstanceError(f"invalid JSON: {exc}") from exc


def load_instance(source) -> Instance:
    """Load an instance from a dict, a JSON string, or a file path.  Text
    that names an existing file is read from it; other text is the document
    when it starts with '{' and names a file otherwise."""
    if isinstance(source, dict):
        return instance_from_doc(source)
    text = str(source)
    if os.path.isfile(text) or not text.lstrip().startswith("{"):
        text = _read_text(text, InstanceError, "instance")
    return instance_from_doc(parse_json(text))


def _validated_x(inst: Instance, x) -> Vec:
    vec = tuple(_scalar(v, f"x[{j}]") for j, v in enumerate(x, start=1))
    if len(vec) != inst.n:
        raise InstanceError(f"x has {len(vec)} entries for order {inst.n}")
    return vec


def check_membership(inst: Instance, x) -> MembershipReport:
    """Exact feasibility test of x against every row.

    Witness/violation columns are the first ones in natural order, so the
    report is deterministic.
    """
    vec = _validated_x(inst, x)
    rows = []
    feasible = True
    for i in inst.rows:
        xi = vec[i - 1]
        arow = inst.A[i - 1]
        target = inst.b[i - 1]
        achieved = ZERO
        witness = None
        violation = None
        for j in inst.rows:
            term = min(arow[j - 1], xi, vec[j - 1])
            if term > achieved:
                achieved = term
            if violation is None and term > target:
                violation = j
            if witness is None and term == target:
                witness = j
        if violation is not None:
            witness = None
        satisfied = achieved == target
        feasible = feasible and satisfied
        rows.append(RowStatus(i, achieved, target, witness, violation))
    return MembershipReport(feasible=feasible, rows=tuple(rows))
