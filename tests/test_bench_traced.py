"""The benchmark's traced run, read from ``bench/`` without changing it.

``bench/run.py --trace 1`` recomposes every operation from public calls
(``bench/traced.py``) and requires its result and its rendered document to
equal those of the plain operation.  This runs the same comparison on the
first item of each workload's tiny pool, so that a change which breaks a
name the traced run imports, or a document the benchmark pins, fails here.
"""

import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    """bench/run.py, bench/workloads.py and bench/traced.py as modules."""
    sys.path.insert(0, str(BENCH))
    try:
        return tuple(importlib.import_module(name) for name in ("run", "workloads", "traced"))
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_op_agrees_with_the_plain_op(bench, name):
    run, workloads, traced = bench
    spec = workloads.WORKLOADS[name]
    item = spec.build(run.DEFAULT_SEED, spec.sizes["tiny"])[0]
    plain = spec.op(item.text)
    rec = traced.Recorder()
    rec.begin(0)
    out = traced.traced_op(name, rec, item.text, Counter())
    rec.close()
    assert out.result == plain.result
    assert workloads.digest(out.text) == workloads.digest(plain.text)
    assert spec.check(item, out) == []
    # the document that bench/digests.json pins for this item at the default seed
    assert workloads.digest(out.text) == json.loads(run.DIGESTS.read_text())[name][0]
