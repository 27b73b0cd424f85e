#!/usr/bin/env python3
"""Smoke test of the benchmark on a tiny version of every workload.

    python3 bench/smoke.py

For each workload in ``BENCHMARK.json`` it runs ``run.py --size tiny`` with
``--trace 0`` once and ``--trace 1`` twice, and requires that every run
passes its checks, that the printed metrics are exactly the ones
``BENCHMARK.json`` lists with the units it lists, and that the traced counts
repeat.  It also requires that the documents the benchmark renders equal what
``maxminfre.cli`` prints for the same inputs, apart from the command echo and
the timing.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

from run import BENCH, DEFAULT_SEED, ROOT, SRC

sys.path[:0] = [str(SRC), str(BENCH)]

import workloads  # noqa: E402
from maxminfre import cli  # noqa: E402


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    return result


def expect_metrics(result: dict, listed: list[dict], what: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in listed}
    assert got == want, f"{what}: printed {got}, BENCHMARK.json lists {want}"


def strip(text: str) -> dict:
    doc = json.loads(text)
    doc.pop("command", None)
    doc.pop("elapsed_seconds", None)
    return doc


def cli_doc(spec, text: str) -> dict:
    argv = [*spec.command.split()[:1], text, *spec.command.split()[1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return strip(out.getvalue())


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in bench["workloads"]:
        name = entry["name"]
        spec = workloads.WORKLOADS[name]
        for item in spec.build(DEFAULT_SEED, spec.sizes["tiny"]):
            mine = strip(spec.op(item.text).text)
            assert mine == cli_doc(spec, item.text), f"{name} {item.label}: differs from the CLI"
        expect_metrics(run(name, 0), bench["end_to_end"], f"{name} --trace 0")
        first, second = run(name, 1), run(name, 1)
        expect_metrics(first, bench["per_layer"], f"{name} --trace 1")
        for metric in bench["per_layer"]:
            key = metric["name"]
            if metric["unit"] != "s" and key != "trace.overhead_frac":
                a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
                assert a == b, f"{name} {key}: {a} then {b}"
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
