"""Shared fixtures: the bundled 10x10 demo instance with its known-good
solution data, plus hypothesis strategies over two-decimal-grid instances."""

from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

from maxminfre import Instance, load_instance, make_graph
from maxminfre.generate import random_graph_edges

settings.register_profile(
    "suite",
    settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    ),
)
settings.load_profile("suite")

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def timed(budget, call, *args, **kwargs):
    """``call(*args, **kwargs)``, failing when it takes ``budget`` seconds or more."""
    started = time.perf_counter()
    result = call(*args, **kwargs)
    assert time.perf_counter() - started < budget, call.__name__
    return result


def frac(text) -> Fraction:
    return Fraction(str(text))


def fracs(*texts) -> tuple[Fraction, ...]:
    return tuple(frac(t) for t in texts)


@pytest.fixture(scope="session")
def demo10() -> Instance:
    return load_instance(DATA_DIR / "demo10.json")


# Known-good data for the bundled demo instance.
DEMO_SUPPORT = {
    1: (1, 4, 7, 8),
    2: (1, 2, 4, 6, 9),
    3: (2, 3, 4, 5, 6, 7, 8, 9, 10),
    4: (2, 3, 4, 7, 8, 9, 10),
    5: (1, 2, 3, 5, 7, 8, 9, 10),
    6: (4, 6, 7, 8),
    7: (1, 3, 4, 6, 9, 10),
    8: (1, 2, 4, 5, 7, 9),
    9: (1, 2, 3, 4, 5, 6, 7, 8, 9),
    10: (1, 2, 5, 9),
}
DEMO_DIAG_GT = (1, 3, 9)
DEMO_DIAG_EQ = (2, 4, 5, 6)
DEMO_DIAG_LT = (7, 8, 10)

DEMO_UPPER_GT = fracs("0.66", 1, "0.14", 1, 1, 1, 1, 1, "0.04", 1)
DEMO_LOWER_GT = fracs("0.66", 0, "0.14", 0, 0, 0, 0, 0, "0.04", 0)
DEMO_LOWER_EQ = fracs(0, "0.57", 0, "0.40", "0.45", "0.79", 0, 0, 0, 0)
DEMO_LOWER_MAX = fracs("0.66", "0.57", "0.14", "0.40", "0.45", "0.79", 0, 0, "0.04", 0)

DEMO_OPTIMUM = fracs("0.66", "0.57", "0.14", "0.40", "0.45", 1, "0.55", "0.62", "0.04", "0.53")
DEMO_OBJECTIVE = frac("-13.0727")
DEMO_REGION_LOWER = fracs(
    "0.66", "0.57", "0.14", "0.40", "0.45", "0.79", "0.55", "0.62", "0.04", "0.53"
)
DEMO_REGION_UPPER = DEMO_OPTIMUM

# (rule, target row, removed value, witness) in firing order.
DEMO_TRACE = (
    (1, 2, 2, (1,)),
    (1, 5, 2, (1,)),
    (2, 7, 2, (1,)),
    (2, 8, 2, (1,)),
    (2, 10, 2, (1,)),
    (3, 7, 3, (3,)),
    (3, 7, 9, (9,)),
    (3, 8, 9, (9,)),
    (3, 10, 9, (9,)),
    (4, 4, 2, (4, 7)),
    (6, 8, 2, (2, 8)),
    (6, 7, 4, (4, 7)),
    (6, 8, 4, (4, 8)),
    (6, 8, 5, (5, 8)),
    (6, 10, 5, (5, 10)),
    (7, 8, 7, (7, 8)),
    (7, 7, 10, (10, 7)),
)

# (stage, eq product, lt product, anchor product) after each rule pass.
DEMO_SNAPSHOTS = (
    ("initial", 16, 8, 144),
    ("rule1", 4, 8, 144),
    ("rule2", 4, 1, 144),
    ("rule3", 4, 1, 60),
    ("rule4", 2, 1, 60),
    ("rule5", 2, 1, 60),
    ("rule6", 2, 1, 12),
    ("rule7", 2, 1, 4),
)

# An infeasible instance that no reduction rule can see: rows 3 and 4 force
# x1 >= 0.5 and x2 >= 0.6, which drives row 1 above its 0.3 target.
RULES_BLIND_INFEASIBLE = {
    "A": [
        ["0.3", "0.4", "0.1", "0.1"],
        ["0.1", "0.2", "0.1", "0.1"],
        ["0.5", "0.1", "0.1", "0.1"],
        ["0.1", "0.6", "0.1", "0.1"],
    ],
    "b": ["0.3", "0.2", "0.5", "0.6"],
    "c": ["1", "1", "1", "1"],
    "sense": "min",
}

grid_entry = st.integers(0, 100).map(lambda k: Fraction(k, 100))
cost_entry = st.integers(-1000, 1000).map(lambda k: Fraction(k, 100))


@st.composite
def instances(draw, max_n: int = 4, sense: str | None = None) -> Instance:
    n = draw(st.integers(1, max_n))
    A = tuple(tuple(draw(grid_entry) for _ in range(n)) for _ in range(n))
    b = tuple(draw(grid_entry) for _ in range(n))
    c = tuple(draw(cost_entry) for _ in range(n))
    chosen = sense or draw(st.sampled_from(["min", "max"]))
    return Instance(n=n, A=A, b=b, c=c, sense=chosen)


@st.composite
def instance_with_point(draw, max_n: int = 4):
    inst = draw(instances(max_n=max_n))
    x = tuple(draw(grid_entry) for _ in range(inst.n))
    return inst, x


@st.composite
def graphs(draw, max_n: int = 8):
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8]))
    seed = draw(st.integers(0, 10**6))
    return make_graph(n, random_graph_edges(n, density, seed))


# 1-4 decimal places: targets in [0, 1], costs of magnitude 0.0001 to 99.9,
# so the objectives of two boxes can be closer than any fixed number of places.
fine_unit_entry = st.integers(1, 4).flatmap(
    lambda p: st.integers(0, 10**p).map(lambda k: Fraction(k, 10**p))
)
fine_cost_entry = st.integers(1, 4).flatmap(
    lambda p: st.integers(-999, 999).map(lambda k: Fraction(k, 10**p))
)


@st.composite
def fine_instances(draw, max_n: int = 4) -> Instance:
    """Instances over ``fine_unit_entry``/``fine_cost_entry``; A reuses the
    targets often enough for diag_eq rows and equal supports, and the cost
    vector is sometimes all zero or one repeated value, so boxes tie."""
    n = draw(st.integers(1, max_n))
    b = tuple(draw(fine_unit_entry) for _ in range(n))
    entry = st.one_of(st.sampled_from(b), fine_unit_entry)
    A = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    kind = draw(st.sampled_from(["free", "zero", "repeated"]))
    if kind == "zero":
        c = (Fraction(0),) * n
    elif kind == "repeated":
        c = (draw(fine_cost_entry),) * n
    else:
        c = tuple(draw(fine_cost_entry) for _ in range(n))
    return Instance(n=n, A=A, b=b, c=c, sense=draw(st.sampled_from(["min", "max"])))


# Arbitrary JSON values, for the loader fuzz properties.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)
