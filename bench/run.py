"""Benchmark for singchi: one process, one client, a closed loop.

    python3 bench/run.py --workload table --seed 1 --seconds 20 --trace 0

Each operation starts when the previous one returns; nothing runs in
parallel. The run sets up several times (import of singchi plus building
the workload's inputs) and runs whole passes over the inputs, each in a
seed-shuffled order, as many as end nearest to --seconds. Every answer is
checked; a wrong one makes the run exit with code 1. Every operation's
and set-up's time is scaled to a reference host speed by a yardstick
timed right next to it (see calibration.py and scaled_times).

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 the run spends half of --seconds untraced, replays the same
operations with spans around the package's public functions (see
tracing.py), and the last line holds the per-layer metrics. Either way
the full record, per-input figures and failing inputs included, goes to
bench/results/<workload>-seed<seed>-trace<trace>.json.

The package is imported from src/ next to this directory; without it the
run exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import calibration
from tracing import ROOT, Tracer
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
RESULTS = Path(__file__).resolve().parent / "results"
MODULES = ("errors", "poly", "standard_basis", "milnor", "multiple_points", "euler", "catalog")
SETUP_REPEATS = 16
SETUP_STICK_SAMPLES = 5
TAIL_BEYOND = 10
LOCAL_WINDOW = 5


def load_package():
    """Import singchi afresh, so every set-up pays for the import."""
    for name in [n for n in sys.modules if n.split(".")[0] == "singchi"]:
        del sys.modules[name]
    pkg = SimpleNamespace(
        **{m: importlib.import_module(f"singchi.{m}") for m in MODULES}
    )
    if not Path(pkg.errors.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"singchi was imported from {pkg.errors.__file__}, not {SRC}")
    return pkg


def set_up(workload, tracer=None):
    """(seconds, package, inputs); input building is traced when asked."""
    start = time.perf_counter()
    pkg = load_package()
    if tracer is None:
        items = workload.build(pkg)
    else:
        with tracer.installed(pkg), tracer.operation():
            items = workload.build(pkg)
    return time.perf_counter() - start, pkg, items


def run_one(pkg, workload, item):
    """(ns, status, canonical text); status is ok, failed or wrong."""
    start = time.perf_counter_ns()
    try:
        result, text = workload.run(pkg, item)
    except pkg.errors.SingchiError as exc:
        return time.perf_counter_ns() - start, "failed", type(exc).__name__
    elapsed = time.perf_counter_ns() - start
    problem = workload.check(pkg, item, result)
    if problem is not None:
        return elapsed, "wrong", problem
    return elapsed, "ok", text


def measure(pkg, workload, items, rng, seconds, yardstick=None):
    """Whole passes in seed-shuffled orders, as many as end nearest to
    `seconds`, with a yardstick sample after each operation when one is
    given.

    A run stops once another pass of average length would end farther from
    `seconds` than now. Stopping at the first pass that ends past `seconds`
    would let a workload whose pass count times its pass time lies near
    `seconds`, as kernel's does at 20 s, run one pass more or less from
    one run to the next, which moves its tail.
    """
    gc.collect()
    orders, records = [], []
    start = time.perf_counter()
    while True:
        order = list(range(len(items)))
        rng.shuffle(order)
        orders.append(order)
        for i in order:
            records.append((i, *run_one(pkg, workload, items[i])))
            if yardstick is not None:
                yardstick.sample()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(orders) / 2 >= seconds:
            break
    return orders, records, time.perf_counter() - start


def replay_traced(pkg, workload, items, orders, tracer):
    """The same operations again, each inside a root span."""
    records = []
    with tracer.installed(pkg):
        start = time.perf_counter()
        for order in orders:
            for i in order:
                with tracer.operation():
                    records.append((i, *run_one(pkg, workload, items[i])))
        wall = time.perf_counter() - start
    return records, wall


def tail(durations_ms):
    """The highest percentile with at least TAIL_BEYOND samples above it,
    but never below the median. Returns (value, percentile)."""
    ordered = sorted(durations_ms)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[rank], 100.0 * (rank + 1) / n


def digest(items, records):
    """sha256 of the canonical reports by input key, plus any input whose
    report differed between its repetitions."""
    reports, unstable = {}, []
    for i, _, status, text in records:
        if status == "wrong":
            continue
        key = items[i].key
        if key not in reports:
            reports[key] = text
        elif reports[key] != text and key not in unstable:
            unstable.append(key)
    canonical = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest(), unstable


def outcomes(items, records):
    """Counts, failures, wrong answers and per-group median ms."""
    by_group = {}
    failures, wrong = {}, {}
    for i, ns, status, text in records:
        item = items[i]
        by_group.setdefault(item.group, []).append(ns / 1e6)
        if status == "failed":
            failures.setdefault(item.key, {"error": text, "ms": []})["ms"].append(ns / 1e6)
        elif status == "wrong":
            wrong[item.key] = text
    attempted = len(records)
    failed = sum(1 for r in records if r[2] == "failed")
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": sum(1 for r in records if r[2] == "wrong"),
        "fail_share": failed / attempted,
        "failing_inputs": failures,
        "wrong_answers": wrong,
        "median_ms_by_input": {g: statistics.median(v) for g, v in sorted(by_group.items())},
    }


def git_commit():
    """The checked-out commit when the tree is a git work tree, else None."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def scaled_times(times, yardstick, samples_each=1, window=LOCAL_WINDOW):
    """Each time scaled to the reference host speed by the yardstick samples
    taken after it and after the `window` measurements on either side.

    `samples_each` yardstick samples follow every measurement, so a slow
    spell that other processes on the host cause slows a measurement and
    the samples next to it alike, and cancels out of its scaled time.
    """
    return [
        t * yardstick.factor(
            max(0, (k - window) * samples_each), (k + window + 1) * samples_each
        )
        for k, t in enumerate(times)
    ]


def end_to_end(args, workload):
    op_stick, setup_stick = calibration.Yardstick(), calibration.Yardstick()
    setups = []

    def timed_set_up():
        seconds, pkg, items = set_up(workload)
        setups.append(seconds)
        for _ in range(SETUP_STICK_SAMPLES):
            setup_stick.sample()
        return pkg, items

    # Half the set-ups run before the passes and half after, so that their
    # median does not rest on one moment of the host's load.
    for _ in range(SETUP_REPEATS // 2):
        pkg, items = timed_set_up()
    orders, records, wall = measure(
        pkg, workload, items, random.Random(args.seed), args.seconds, op_stick
    )
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        timed_set_up()

    summary = outcomes(items, records)
    completed = summary["attempted"] - summary["failed"] - summary["wrong"]
    raw_ms = [ns / 1e6 for _, ns, _, _ in records]
    op_ms = scaled_times(raw_ms, op_stick)
    setup_scaled = scaled_times(setups, setup_stick, SETUP_STICK_SAMPLES, window=0)
    tail_ms, tail_pct = tail(op_ms)
    report_digest, unstable = digest(items, records)
    metrics = {
        "ops_per_s": (completed / (sum(op_ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ok_share": (completed / summary["attempted"], "share"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "passes": len(orders),
        "wall_s": wall,
        "unscaled": {
            "ops_per_s": completed / (sum(raw_ms) / 1e3),
            "op_p50_ms": statistics.median(raw_ms),
            "op_tail_ms": tail(raw_ms)[0],
            "setup_s": statistics.median(setups),
        },
        "host_factor": op_stick.factor(),
        "setup_host_factor": setup_stick.factor(),
        "setup_s_all": setups,
        "setup_s_scaled": setup_scaled,
        "tail_percentile": tail_pct,
        "tail_samples": len(op_ms),
        "digest": report_digest,
        "unstable_reports": unstable,
        **summary,
        "operations": [
            [items[i].key, ns / 1e6, scaled, status]
            for (i, ns, status, _), scaled in zip(records, op_ms)
        ],
    }
    return metrics, detail, summary["wrong"] == 0 and not unstable


# Per-layer metrics: self time per operation of these spans ...
SELF_MS = (
    "poly.divided_difference",
    "multiple_points.multiple_point_ideal",
    "multiple_points.partition_restricted_ideal",
    "multiple_points.invariant_tuple",
    "standard_basis.eliminate_linear_generators",
    "poly.jacobian",
    "poly.determinant",
    "milnor.icis_milnor",
    "milnor.hypersurface_milnor",
    "euler.image_chi_report",
    ROOT,
)
# ... calls per operation of these ...
CALLS = (
    "poly.divided_difference",
    "multiple_points.multiple_point_ideal",
    "multiple_points.partition_restricted_ideal",
    "standard_basis.eliminate_linear_generators",
    "poly.determinant",
    "milnor.icis_milnor",
)
# ... counts the spans record, per operation ...
COUNTED = (
    "multiple_points.multiple_point_ideal.terms",
    "multiple_points.partition_restricted_ideal.terms",
    "standard_basis.eliminate_linear_generators.eliminated",
    "milnor.icis_milnor.retries",
    "milnor.icis_milnor.stage_sum",
)
# ... and self time per traced set-up of these.
SETUP_SELF_MS = ("catalog.resolve_row", "poly.parse_poly")
COLENGTH = "standard_basis.colength"


def layer_metrics(totals, counts, setup_totals, ops, overhead, gap_share):
    def field(table, name, kind="", key="self_ns"):
        return table.get((name, kind), {}).get(key, 0)

    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = (field(totals, name) / 1e6 / ops, "ms/op")
    for name in CALLS:
        metrics[f"{name}.calls"] = (field(totals, name, key="calls") / ops, "count/op")
    for key in COUNTED:
        metrics[key] = (counts[key] / ops, "count/op")
    for kind in ("finite", "infinite", "exhausted"):
        metrics[f"{COLENGTH}.{kind}_ms"] = (field(totals, COLENGTH, kind) / 1e6 / ops, "ms/op")
    for kind in ("finite", "infinite"):
        calls = field(totals, COLENGTH, kind, "calls")
        metrics[f"{COLENGTH}.{kind}_calls"] = (calls / ops, "count/op")
    exhausted = field(totals, COLENGTH, "exhausted", "calls")
    metrics[f"{COLENGTH}.budget_exhausted"] = (exhausted / ops, "count/op")
    point_count = field(totals, "milnor.point_count", key="total_ns")
    metrics["milnor.point_count.total_ms"] = (point_count / 1e6 / ops, "ms/op")
    for name in SETUP_SELF_MS:
        metrics[f"{name}.self_ms"] = (field(setup_totals, name) / 1e6, "ms/setup")
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.gap_share"] = (gap_share, "share")
    return metrics


def per_layer(args, workload):
    setup_tracer = Tracer()
    _, pkg, items = set_up(workload, setup_tracer)
    orders, plain, plain_wall = measure(
        pkg, workload, items, random.Random(args.seed), args.seconds / 2
    )
    tracer = Tracer()
    traced, traced_wall = replay_traced(pkg, workload, items, orders, tracer)
    totals = tracer.totals()
    self_ns = sum(entry["self_ns"] for entry in totals.values())
    gap_share = (traced_wall * 1e9 - self_ns) / (traced_wall * 1e9)
    overhead = traced_wall / plain_wall
    metrics = layer_metrics(
        totals, tracer.counts, setup_tracer.totals(), len(traced), overhead, gap_share
    )
    plain_digest, plain_unstable = digest(items, plain)
    traced_digest, traced_unstable = digest(items, traced)
    summary = outcomes(items, traced)
    layers = {
        f"{name}[{kind}]" if kind else name: {
            "calls": entry["calls"],
            "self_ms": entry["self_ns"] / 1e6,
            "share_of_traced_wall": entry["self_ns"] / (traced_wall * 1e9),
        }
        for (name, kind), entry in totals.items()
    }
    detail = {
        "passes": len(orders),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "layers": layers,
        "counts": dict(sorted(tracer.counts.items())),
        "digest_untraced": plain_digest,
        "digest_traced": traced_digest,
        **summary,
    }
    correct = (
        summary["wrong"] == 0
        and outcomes(items, plain)["wrong"] == 0
        and plain_digest == traced_digest
        and not plain_unstable
        and not traced_unstable
    )
    return metrics, detail, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "singchi" / "__init__.py").is_file():
        print(f"error: no singchi package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    run = per_layer if args.trace else end_to_end
    metrics, detail, correct = run(args, workload)

    RESULTS.mkdir(exist_ok=True)
    record = {
        "environment": environment(args),
        "correct": correct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if detail["failed"]:
        print(f"failed: {detail['failed']} of {detail['attempted']}; inputs in {path}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
