#!/usr/bin/env python3
"""Closed-loop benchmark of the socialmatch library, standard library only.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit-sweep --seed 1 --seconds 30 --trace 0

One process and one thread act as a single caller that waits for each
answer.  The pool of seeded inputs holds about ``--seconds`` of work on the
reference machine.  With ``--trace 0`` the run goes through the whole pool
once and keeps cycling until ``--seconds`` of operation time have passed,
then reports the end-to-end metrics.  With ``--trace 1`` it runs the pool
once untraced and once with spans recorded around every layer, and reports
the per-layer metrics.  Every answer is checked outside the timed region;
the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PACKAGE = ("generators", "instance", "matching", "oracle", "dynamics", "roommates", "ccg", "cli")
SETUP_REPEATS = 3
# Time of calibration_kernel on the reference machine (2-core Xeon, Python
# 3.11) when the host is quiet.  Shared hosts run slower when neighbours are
# busy, by up to half over minutes; every time is scaled by KERNEL_REF_S over
# the kernel time measured beside it, so figures read as reference-machine
# seconds and host load cancels out.
KERNEL_REF_S = 0.0017
WINDOW = 4  # kernel samples on each side of an operation that estimate the host's speed


def package_names() -> list[str]:
    return [m for m in sys.modules if m == "socialmatch" or m.startswith("socialmatch.")]


def import_package() -> SimpleNamespace:
    """Import socialmatch afresh from the checkout's source tree."""
    for name in package_names():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("socialmatch")
    if Path(pkg.__file__).resolve().parent != (SRC / "socialmatch").resolve():
        raise ImportError(f"socialmatch was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"socialmatch.{name}") for name in PACKAGE})


def calibration_kernel() -> None:
    """A fixed pure-Python computation: integer arithmetic, then exact rationals and a dict.

    Under host load its time tracks that of the library's operations (log-log
    slope 0.85-0.96 measured beside solve-scale operations); an all-rational
    kernel slows more than the operations do and over-corrects.
    """
    x = 1
    for _ in range(10_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFF
    acc = Fraction(0)
    table = {}
    for i in range(1, 150):
        f = Fraction(i, 7 + i % 13)
        acc += f * f - Fraction(1, i)
        table[(i % 17, i % 5)] = acc


def kernel_time() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def speed_factors(kernel_times: list[float]) -> list[float]:
    """Per sample, KERNEL_REF_S over the median kernel time of its neighbourhood."""
    out = []
    for j in range(len(kernel_times)):
        window = kernel_times[max(0, j - WINDOW) : j + WINDOW + 1]
        out.append(KERNEL_REF_S / statistics.median(window))
    return out


def setup(workload, seed: int, count: int, workdir: Path):
    """Import, generate the seeded pool and write its files.

    Returns the modules, the pool and the set-up time normalised by the
    calibration kernel timed around it.
    """
    before = [kernel_time() for _ in range(3)]
    t0 = time.perf_counter()
    mods = import_package()
    workdir.mkdir(parents=True, exist_ok=True)
    items = workload.build(mods, random.Random(f"{workload.name}/{seed}"), workdir, count)
    elapsed = time.perf_counter() - t0
    after = [kernel_time() for _ in range(3)]
    return mods, items, elapsed * KERNEL_REF_S / statistics.median(before + after)


def attempt(workload, mods, item):
    """Run one operation; return (result, error text or None)."""
    try:
        return workload.run(mods, item), None
    except Exception as exc:  # an exception is a failed operation, not a crashed benchmark
        return None, f"{type(exc).__name__}: {exc}"


def closed_loop(workload, mods, items, seconds: float, first: list, call=None):
    """Run every pool item once, then keep cycling until ``seconds`` of operation time have passed.

    The calibration kernel runs before every operation, outside its timing.
    ``first`` holds each item's first result and is filled in here.  Returns,
    per operation, (pool index, seconds, kernel seconds, passed), where an
    operation passed when it raised nothing and gave its item's first result.
    ``call(k, thunk)`` may wrap each operation, as the tracer does.
    """
    ops = []
    clock = time.perf_counter
    busy = 0.0
    i = 0
    while i < len(items) or busy < seconds:
        k = i % len(items)
        c0 = clock()
        calibration_kernel()
        t0 = clock()
        if call is None:
            result, error = attempt(workload, mods, items[k])
        else:
            result, error = call(k, lambda: attempt(workload, mods, items[k]))
        t1 = clock()
        if first[k] is None and error is None:
            first[k] = result
        ops.append((k, t1 - t0, t0 - c0, error is None and result == first[k]))
        busy += t1 - t0
        i += 1
    return ops


def per_item_times(ops, size: int) -> list[float]:
    """Each pool item's mean operation time, scaled to the reference machine
    by the kernel times measured around it."""
    factors = speed_factors([c for _, _, c, _ in ops])
    sums = [0.0] * size
    runs = [0] * size
    for (k, dt, _, _), f in zip(ops, factors):
        sums[k] += dt * f
        runs[k] += 1
    return [total / n for total, n in zip(sums, runs)]


def check_pool(workload, items, first, seed: int):
    """Check each pool item's answer; deep checks run on a seeded share of items."""
    rng = random.Random(f"{workload.name}/{seed}/deep")
    deep = {k for k in range(len(items)) if rng.random() < workload.deep_share} or {0}
    notes = SimpleNamespace(vacuous=0)
    bad: dict[int, list[str]] = {}
    digest = hashlib.sha256()
    for k, item in enumerate(items):
        if first[k] is None:
            bad[k] = ["operation raised"]
            digest.update(b"error\n")
            continue
        answer = workload.answer(first[k])
        digest.update(json.dumps(answer, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        try:
            problems = workload.check(item, answer, k in deep, notes)
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            problems = [f"answer could not be checked: {type(exc).__name__}: {exc}"]
        if problems:
            bad[k] = problems
    return bad, digest.hexdigest()[:16], len(deep), notes


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {"python": platform.python_version(), "cores": cores}


def end_to_end(workload, seed, seconds, workdir):
    count = workload.pool_size(seconds)
    setups = [setup(workload, seed, count, workdir / f"setup-{i}") for i in range(SETUP_REPEATS)]
    mods, items, _ = setups[-1]
    first: list = [None] * len(items)
    ops = closed_loop(workload, mods, items, seconds, first)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bad, digest, deep, notes = check_pool(workload, items, first, seed)
    failed = sum(1 for k, _, _, ok in ops if not ok or k in bad)
    times = per_item_times(ops, len(items))
    raw = [dt for _, dt, _, _ in ops]
    metrics = {
        "throughput_ops_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1000, "ms"),
        "latency_p90_ms": (percentile(times, 90) * 1000, "ms"),
        "setup_s": (statistics.median(s for _, _, s in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    summary = {
        "error_rate": failed / len(ops),
        "latency_samples": len(times),
        "raw_throughput_ops_s": len(raw) / sum(raw),
        "host_speed": statistics.median(speed_factors([c for _, _, c, _ in ops])),
        "pool": len(items),
        "passes": len(ops) / len(items),
        "deep_checked": deep,
        "vacuous_audits": notes.vacuous,
        "digest": digest,
    }
    return len(ops), failed, bad, metrics, summary


def layer_metrics(tracer: spans.Tracer, wall_s: float, overhead: float, host_speed: float) -> dict:
    """Per-layer counts and self times; times are scaled by the host speed like the end-to-end ones."""
    fns = tracer.by_function()
    counts = tracer.counts

    def calls(qual):
        return fns.get(qual, [0, 0.0])[0]

    def own(qual):
        return fns.get(qual, [0, 0.0])[1]

    def layer(name):
        picked = [v for q, v in fns.items() if q.split(".")[0] == name]
        return sum(c for c, _ in picked), sum(s for _, s in picked)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in spans.LAYERS:
        n_calls, busy = layer(name)
        out[f"{name}.calls"] = (n_calls, "count")
        out[f"{name}.busy_s"] = (busy, "s")
    verdicts = calls("matching._pair_check")
    visited = counts["oracle.enumerate_matchings.yields"]
    steps = counts["dynamics.steps"]
    checks = calls("ccg.is_pairwise_equilibrium")
    out.update(
        {
            "matching.verdicts": (verdicts, "count"),
            "matching.stable_checks": (calls("matching.is_stable"), "count"),
            "matching.verdict_us": (ratio(own("matching._pair_check"), verdicts) * 1e6, "us"),
            "oracle.mwm_calls": (calls("oracle.max_weight_matching"), "count"),
            "oracle.mwm_busy_s": (own("oracle.max_weight_matching"), "s"),
            "oracle.matchings_visited": (visited, "count"),
            "oracle.stable_found": (counts["oracle.stable_found"], "count"),
            "oracle.stable_yield": (ratio(counts["oracle.stable_found"], visited), "ratio"),
            "oracle.enum_busy_s": (own("oracle.enumerate_stable_matchings"), "s"),
            "dynamics.runs": (calls("dynamics._run"), "count"),
            "dynamics.steps": (steps, "count"),
            "dynamics.verdicts_per_step": (
                ratio(tracer.calls_below("dynamics", "matching._pair_check"), steps),
                "ratio",
            ),
            "dynamics.cap_hits": (counts["dynamics.cap_hits"], "count"),
            "roommates.cycle_checks": (calls("roommates.detect_preference_cycle"), "count"),
            "roommates.cycle_busy_s": (own("roommates.detect_preference_cycle"), "s"),
            "roommates.greedy_busy_s": (own("roommates.greedy_mutual_best"), "s"),
            "ccg.checks": (checks, "count"),
            "ccg.check_busy_s": (own("ccg.is_pairwise_equilibrium"), "s"),
            "ccg.witness_rate": (ratio(counts["ccg.witnesses"], checks), "ratio"),
            "ccg.equilibria_certified": (counts["ccg.equilibria_certified"], "count"),
            "ccg.vacuous_audits": (counts["ccg.vacuous_audits"], "count"),
            "ccg.audit_busy_s": (own("ccg.ccg_audit"), "s"),
        }
    )
    in_ops = sum(end - start for _, start, end, _ in tracer.ops)
    glue = sum(root.own for _, _, _, root in tracer.ops)
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.bench_s"] = (wall_s - in_ops + glue, "s")
    for name, (value, unit) in out.items():
        if unit in ("s", "us"):
            out[name] = (value * host_speed, unit)
    out["trace.overhead_pct"] = ((overhead - 1) * 100, "%")
    return out


HOOKS = {
    "dynamics._run": lambda c, r: c.update(
        {"dynamics.steps": len(r[1].steps), "dynamics.cap_hits": int(r[1].termination == "cap")}
    ),
    "oracle.enumerate_stable_matchings": lambda c, r: c.update({"oracle.stable_found": len(r)}),
    "ccg.is_pairwise_equilibrium": lambda c, r: c.update({"ccg.witnesses": int(r.witness is not None)}),
    "ccg.ccg_audit": lambda c, r: c.update(
        {
            "ccg.equilibria_certified": len(r.equilibrium_values),
            "ccg.vacuous_audits": int(not r.equilibrium_values),
        }
    ),
}


def traced(workload, seed, seconds, workdir, spans_path: Path):
    """One untraced and one traced pass over the pool; per-layer metrics from the second."""
    mods, items, _ = setup(workload, seed, workload.pool_size(seconds), workdir / "pool")
    first: list = [None] * len(items)
    untraced_ops = closed_loop(workload, mods, items, 0.0, first)
    tracer = spans.Tracer(HOOKS)
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced_ops = closed_loop(workload, mods, items, 0.0, first, call=tracer.run_op)
        wall_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    bad, digest, deep, notes = check_pool(workload, items, first, seed)
    failed = sum(1 for k, _, _, ok in untraced_ops + traced_ops if not ok or k in bad)
    spans_path.write_text(json.dumps(tracer.to_dict()), encoding="utf-8")
    overhead = sum(per_item_times(traced_ops, len(items))) / sum(per_item_times(untraced_ops, len(items)))
    host_speed = statistics.median(speed_factors([c for _, _, c, _ in traced_ops]))
    metrics = layer_metrics(tracer, wall_s, overhead, host_speed)
    summary = {
        "pool": len(items),
        "host_speed": host_speed,
        "deep_checked": deep,
        "vacuous_audits": notes.vacuous,
        "digest": digest,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return 2 * len(items), failed, bad, metrics, summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny shrinks every instance")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "socialmatch" / "__init__.py").is_file():
        print(f"error: no socialmatch sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](tiny=args.size == "tiny")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
            attempted, failed, bad, metrics, summary = traced(
                workload, args.seed, args.seconds, workdir, spans_path
            )
        else:
            attempted, failed, bad, metrics, summary = end_to_end(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for k, problems in sorted(bad.items())[:10]:
        print(f"FAILED {args.workload} item {k}: {'; '.join(problems)}", file=sys.stderr)
    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **environment(), **summary}
    print(json.dumps(header, sort_keys=True))
    lines = dict(metrics)
    if not args.trace:
        lines["error_rate"] = (summary["error_rate"], "ratio")
    for name, (value, unit) in lines.items():
        samples = f"  ({summary['latency_samples']} samples)" if name.startswith("latency_") else ""
        print(f"{name:28s} {value:14.6f} {unit}{samples}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
