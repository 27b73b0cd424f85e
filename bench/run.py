#!/usr/bin/env python3
"""Benchmark of the maxminfre solver: one process, one thread, closed loop.

    python3 bench/run.py --workload fre-mix --seed 3 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and exits with status 2 when that is missing.  Workloads are
described in ``workloads.py`` and ``BENCHMARK.json``.

``--trace 0`` times operations one after another (each starts when the
previous one has finished) in whole passes over the workload's pool until at
least ``--seconds`` of operation time and 100 operations have accumulated,
checks every output, and reports the end-to-end metrics.  ``--trace 1`` makes
one pass over the pool twice per operation, untraced and then recomposed from
public calls with spans (``traced.py``), asserts that both agree, and reports
the per-layer metrics; its counts repeat exactly for a given seed.  Spans go
to ``.bench_out/`` in the checkout.

Times reported by ``--trace 0`` are scaled to a reference machine speed.  On
a shared 2-core VM the speed of the same code drifts by up to 2x within
minutes, so a calibration kernel (fixed stdlib-only work, no package code)
runs after every 0.2 s of operation time, and each operation's time is
multiplied by REFERENCE_CALIBRATION_S over the median of the four kernel
samples around it.  The unscaled figures are printed before the result line.
Latency percentiles are Harrell-Davis estimates (see ``quantile``).
Per-layer times of ``--trace 1`` are not scaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed operation
makes the exit status 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"
PARALLEL_ENV = "MAXMINFRE_PARALLEL"  # a stray value forks a worker pool

DEFAULT_SEED = 1  # rendered documents are pinned by digest for this seed
SETUP_REPEATS = 5
MIN_OPS = 100
WARMUP_OPS = 3
CALIBRATE_EVERY_S = 0.2  # operation time between two calibration samples
REFERENCE_CALIBRATION_S = 0.005  # kernel time on a quiet 2-core 2.0 GHz VM
_CALIBRATION_VECTORS = [
    tuple(Fraction((7 * i + 3 * j) % 101, 100) for j in range(12)) for i in range(64)
]
_CALIBRATION_COSTS = tuple(Fraction((13 * j) % 41 - 20, 10) for j in range(12))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test pools"
    )
    return parser.parse_args(argv)


def calibration_kernel() -> float:
    """Seconds taken by fixed pure-Python work of the solver's kind:
    componentwise min/max of Fraction tuples, a box test, and a Fraction dot
    product per pair.  It tracks the machine's speed for the solver's work
    better than a kernel without allocation and arithmetic does."""
    vectors, costs = _CALIBRATION_VECTORS, _CALIBRATION_COSTS
    started = time.perf_counter()
    kept = []
    for i in range(64):
        a, b = vectors[i], vectors[(5 * i + 1) % 64]
        lo = tuple(map(min, a, b))
        hi = tuple(map(max, a, b))
        if all(x <= y for x, y in zip(lo, hi)):
            kept.append(lo)
        kept.append(sum((c * x for c, x in zip(costs, hi)), Fraction(0)))
    return time.perf_counter() - started


class Speed:
    """Machine speed, sampled by the calibration kernel between blocks of
    timed work.  The machine's speed drifts by up to 2x within minutes, so
    every time reported for ``--trace 0`` is scaled to the reference speed:
    raw seconds * REFERENCE_CALIBRATION_S / (median kernel time of the two
    samples before and the two after the block)."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> int:
        """Take one sample; returns the number of the block it opens."""
        self.samples.append(calibration_kernel())
        return len(self.samples) - 1

    def scale(self, block: int) -> float:
        window = self.samples[max(0, block - 1) : block + 3]
        return REFERENCE_CALIBRATION_S / statistics.median(window)


def _purge_modules() -> None:
    """Forget the package and the benchmark modules that import it."""
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None) or ""
        if name != "__main__" and path.startswith((str(SRC), str(BENCH))):
            del sys.modules[name]


def setup(workload: str, seed: int, size: str, speed: Speed):
    """Import the package and build the inputs, several times; the median
    scaled time is ``setup_s``.  Returns the modules and pool of the last
    round, and the raw and scaled set-up times."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        _purge_modules()
        block = speed.sample()
        started = time.perf_counter()
        workloads = importlib.import_module("workloads")
        spec = workloads.WORKLOADS.get(workload)
        if spec is None:
            raise SystemExit(f"unknown workload {workload!r}; known: {sorted(workloads.WORKLOADS)}")
        items = spec.build(seed, spec.sizes[size])
        raw.append(time.perf_counter() - started)
        speed.sample()
        speed.sample()
        scaled.append(raw[-1] * speed.scale(block))
    return workloads, spec, items, raw, scaled


def environment(args) -> dict:
    sources = sorted((SRC / "maxminfre").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": threading.active_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Failures:
    """Operations that raised, exited unexpectedly or failed a check."""

    def __init__(self, spec, items, seed: int):
        self.spec = spec
        self.items = items
        self.count = 0
        self.digests = None
        if seed == DEFAULT_SEED:
            self.digests = json.loads(DIGESTS.read_text())[spec.name]

    def check(self, index: int, out, digest) -> None:
        problems = self.spec.check(self.items[index], out)
        if self.digests is not None:
            want = self.digests[index] if index < len(self.digests) else None
            got = digest(out.text)
            if got != want:
                problems.append(f"digest {got} != recorded {want}")
        if problems:
            self.record(index, "; ".join(problems))

    def record(self, index: int, what: str) -> None:
        self.count += 1
        print(f"FAILED {self.spec.name} {self.items[index].label}: {what}", file=sys.stderr)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    averaged with Beta((n+1)p, (n+1)(1-p)) weights, taken at the midpoint of
    each one's interval.  Latencies cluster by input with gaps between the
    clusters, and a single order statistic jumps across such a gap from run
    to run; the weighted average varies about half as much."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n) for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _latency_metrics(latencies: list[float], passes: list[float], pool: int) -> dict:
    return {
        "ops_per_s": (pool / statistics.median(passes), "1/s"),
        "latency_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(latencies, 0.9) * 1e3, "ms"),
    }


def timed_run(workloads, spec, items, args, failures: Failures, speed: Speed) -> tuple[dict, int]:
    """Closed loop over whole passes of the pool; outputs are checked
    between operations, outside the timed part."""
    for item in items[:WARMUP_OPS]:
        spec.op(item.text)
    min_ops = MIN_OPS if args.size == "full" else 1
    latencies: list[float] = []
    blocks: list[int] = []
    passes: list[slice] = []
    gc.collect()
    block, since_sample, total = speed.sample(), 0.0, 0.0
    while total < args.seconds or len(latencies) < min_ops:
        first = len(latencies)
        for index, item in enumerate(items):
            started = time.perf_counter()
            try:
                out = spec.op(item.text)
            except Exception:
                out = None
                failures.record(index, traceback.format_exc())
            elapsed = time.perf_counter() - started
            latencies.append(elapsed)
            blocks.append(block)
            total += elapsed
            since_sample += elapsed
            if out is not None:
                failures.check(index, out, workloads.digest)
            if since_sample >= CALIBRATE_EVERY_S:
                block, since_sample = speed.sample(), 0.0
        passes.append(slice(first, len(latencies)))
    speed.sample()
    speed.sample()
    scaled = [t * speed.scale(b) for t, b in zip(latencies, blocks)]
    metrics = _latency_metrics(scaled, [sum(scaled[p]) for p in passes], len(items))
    raw = _latency_metrics(latencies, [sum(latencies[p]) for p in passes], len(items))
    print(
        f"{spec.name}: {len(latencies)} operations ({spec.command}) in {len(passes)} passes "
        f"of {len(items)}, {total:.3f} s timed; latency samples={len(latencies)}"
    )
    kernel = statistics.median(speed.samples)
    print(
        f"calibration: {len(speed.samples)} samples, median {kernel * 1e3:.3f} ms "
        f"(reference {REFERENCE_CALIBRATION_S * 1e3:.3f} ms); unscaled "
        + ", ".join(f"{k}={v:.6g}" for k, (v, _) in raw.items())
    )
    return metrics, len(latencies)


def traced_run(workloads, spec, items, args, failures: Failures, env: dict) -> tuple[dict, int]:
    """One pass over the pool; each operation runs untraced, then recomposed
    with spans, and both results must agree."""
    import traced  # after set-up, so that it binds the package's last import

    for item in items[:WARMUP_OPS]:
        spec.op(item.text)
    rec = traced.Recorder()
    counts: Counter = Counter()
    untraced = traced_total = 0.0
    gc.collect()
    for index, item in enumerate(items):
        try:
            started = time.perf_counter()
            plain = spec.op(item.text)
            untraced += time.perf_counter() - started
            started = time.perf_counter()
            rec.begin(index)
            out = traced.traced_op(spec.name, rec, item.text, counts)
            rec.close()
            traced_total += time.perf_counter() - started
        except Exception:
            failures.record(index, traceback.format_exc())
            continue
        if out.result != plain.result:
            failures.record(index, "recomposed pipeline differs from the library call")
        elif workloads.digest(out.text) != workloads.digest(plain.text):
            failures.record(index, "recomposed rendering differs")
        else:
            failures.check(index, out, workloads.digest)
    ops = len(items)
    self_s = rec.self_seconds()
    admissible = counts["solver.enumerate.admissible"]
    metrics = {f"{layer}.self_s": (self_s[layer], "s") for layer in traced.LAYERS}
    metrics.update(
        {
            "model.scalars": (counts["model.scalars"], "count"),
            "extremals.vectors": (counts["extremals.vectors"], "count"),
            "reduction.firings": (counts["reduction.firings"], "count"),
            "reduction.decided_frac": (counts["decided"] / ops, "ratio"),
            "reduction.selectors_after": (counts["reduction.selectors_after"], "count"),
            "solver.enumerate.admissible": (admissible, "count"),
            "solver.enumerate.distinct_boxes": (counts["solver.enumerate.distinct_boxes"], "count"),
            "solver.enumerate.box_yield": (
                counts["solver.enumerate.distinct_boxes"] / admissible if admissible else 0.0,
                "ratio",
            ),
            "solver.candidate.count": (counts["solver.candidate.count"], "count"),
            "solver.region.boxes": (counts["solver.region.boxes"], "count"),
            "exact.render.bytes": (counts["exact.render.bytes"], "bytes"),
            "trace.overhead_frac": (traced_total / untraced - 1.0, "ratio"),
        }
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{spec.name}-seed{args.seed}.jsonl.gz"
    rec.write(path, {"env": env, "operations": ops, "untraced_s": untraced, "traced_s": traced_total})
    print(f"{spec.name}: traced {ops} operations, {len(rec.starts)} spans written to {path.relative_to(ROOT)}")
    print("per-layer self time (s): " + ", ".join(f"{k}={v:.4f}" for k, v in self_s.items()))
    return metrics, ops


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "maxminfre" / "__init__.py").is_file():
        print(f"error: no maxminfre sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop(PARALLEL_ENV, None)
    sys.path[:0] = [str(SRC), str(BENCH)]
    speed = Speed()
    workloads, spec, items, setup_raw, setup_scaled = setup(args.workload, args.seed, args.size, speed)
    if not sys.modules["maxminfre"].__file__.startswith(str(SRC)):
        print("error: maxminfre was not imported from this checkout", file=sys.stderr)
        return 2
    env = environment(args)
    if env["threads"] != 1:
        print(f"error: {env['threads']} threads running, expected 1", file=sys.stderr)
        return 2
    print(json.dumps({"env": env}))

    failures = Failures(spec, items, args.seed)
    if args.trace:
        metrics, attempted = traced_run(workloads, spec, items, args, failures, env)
    else:
        metrics, attempted = timed_run(workloads, spec, items, args, failures, speed)
        metrics["setup_s"] = (statistics.median(setup_scaled), "s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
    print(
        f"failed_frac={failures.count / attempted} ({failures.count} of {attempted}); "
        f"setup samples (s, unscaled): {', '.join(f'{t:.4f}' for t in setup_raw)}"
    )
    result = {
        "correct": failures.count == 0,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failures.count == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
