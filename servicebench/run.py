"""Run one workload of the Casper service benchmark and print its metrics.

Usage, from the root of the repository::

    python3 servicebench/run.py --workload {commute,lookup,fleet} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` builds the deployment several times (the median build is
``setup_s``), then runs the workload for ``S`` seconds of timed work and
prints the end-to-end metrics.  ``--trace 1`` builds two deployments,
one with every layer wrapped, replays the same units on both in
alternation for ``S`` seconds in all, and prints the per-layer split,
the tracing overhead and the spans file it wrote.  The last line of
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("commute", "lookup", "fleet")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(clock) -> float:
    """Peak resident set of this process plus its live worker processes
    (their ``VmHWM``), in MiB; read before the deployment closes.  The
    clock's partner process is not part of the deployment."""
    import multiprocessing

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        if child is clock.partner:
            continue
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0


def end_to_end(workload, setup_s: list[float], record, clock) -> dict:
    """The end-to-end metrics of one untraced run, with a note per tail."""
    reference = record.reference(clock)
    timed = sum(seconds for _, seconds in reference)
    metrics = {"setup_s": (statistics.median(setup_s), "s")}
    metrics["moves_per_s"] = (record.moves / timed, "1/s")
    metrics["queries_per_s"] = (record.queries / timed, "1/s")
    notes = []
    for kind in ("tick", "query", "update"):
        if kind == "tick":
            samples = workload.tick_samples(reference)
        else:
            samples = [seconds for name, seconds in reference if name == kind]
        tail = workload.tails[kind]
        metrics[f"{kind}_p50_ms"] = (1000.0 * percentile(samples, 50.0), "ms")
        metrics[f"{kind}_tail_ms"] = (1000.0 * percentile(samples, tail), "ms")
        beyond = math.floor(len(samples) * (100.0 - tail) / 100.0)
        notes.append(
            f"{kind}_tail_ms is p{tail:g} of {len(samples)} samples "
            f"({beyond} beyond it{'' if beyond >= 10 else ', FEWER THAN 10'})"
        )
    metrics["candidates_per_query"] = (statistics.fmean(record.candidates), "items")
    metrics["peak_rss_mb"] = (peak_rss_mb(clock), "MB")
    notes.append(
        f"{record.units} units, {record.measured:.2f} s raw timed work, "
        f"{timed:.2f} s at reference speed"
    )
    return {"metrics": metrics, "notes": notes}


def untraced(workload, seconds: float):
    from servicebench.clock import Clock
    from servicebench.service import Record

    clock = Clock(partner=workload.parallel)
    setup_s = []
    dep = None
    try:
        for _ in range(workload.SETUPS):
            if dep is not None:
                dep.close()
                dep = None
            clock.sample()
            start = perf_counter()
            dep = workload.build()
            end = perf_counter()
            clock.sample()
            setup_s.append((end - start) * clock.scale_at((start + end) / 2))
        record = Record()
        workload.run(dep, record, clock, seconds)
        workload.final_check(dep, record)
        result = end_to_end(workload, setup_s, record, clock)
    finally:
        if dep is not None:
            dep.close()
        clock.close()
    result["notes"].append(speed_note(clock))
    return record, result


def speed_note(clock) -> str:
    scales = [clock.scale_at(when) for when in clock.times]
    return (
        f"timings are at reference speed: raw seconds x {min(scales):.3f}.."
        f"{max(scales):.3f} (median {statistics.median(scales):.3f}) from "
        f"{len(scales)} {'paired ' if clock.paired else ''}speed probes"
    )


def traced(workload, seconds: float, seed: int):
    from servicebench.clock import Clock
    from servicebench.layers import counters, layer_metrics
    from servicebench.service import Record
    from servicebench.tracer import Tracer

    clock = Clock(partner=workload.parallel)
    tracer = Tracer()
    plain = Record()
    record = Record()
    deps = []
    try:
        deps.append(workload.build())
        deps.append(workload.build(tracer))
        plain_dep, traced_dep = deps
        # Hook counters cover the timed units only.
        tracer.counts.clear()
        tracer.candidates.clear()
        tracer.errors.clear()
        before = counters(traced_dep)
        # The two deployments replay the same units in alternation, so
        # both phases run at the same host speed and their difference is
        # the tracing overhead.
        while plain.measured + record.measured < seconds:
            clock.maybe_sample()
            plain.units += 1
            workload.run_unit(plain_dep, plain, plain.units, None)
            record.units += 1
            workload.run_unit(traced_dep, record, record.units, tracer)
        clock.sample()
        after = counters(traced_dep)
        workload.final_check(plain_dep, plain)
        workload.final_check(traced_dep, record)
    finally:
        for dep in deps:
            dep.close()
        clock.close()
        tracer.uninstall()
    spans = OUT / f"spans-{workload.name}-seed{seed}.csv.gz"
    tracer.write(spans)
    num_knn = sum(1 for kind, _ in getattr(workload, "standing", ()) if kind == "knn")
    result = layer_metrics(tracer, before, after, plain, record, clock, num_knn)
    result["notes"].append(f"spans written to {spans.relative_to(ROOT)}")
    result["notes"].append(speed_note(clock))
    plain.attempted += record.attempted
    plain.failed += record.failed
    plain.problems += record.problems
    return plain, result


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from repro.anonymizer.soa import default_vectorized
    from servicebench.inputs import digest
    from servicebench.service import Commute, Lookup

    started = perf_counter()
    if args.workload == "lookup":
        workload = Lookup(args.seed, args.seconds)
    else:
        workload = Commute(
            args.seed, args.seconds, shards=2 if args.workload == "fleet" else 1
        )
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print(f"inputs sha256 {digest(workload.inputs)}"
          f"  (generated in {perf_counter() - started:.2f} s)")
    print("pyramid backend "
          f"{'vectorized' if default_vectorized() else 'scalar'} (Casper default)")

    if args.trace:
        record, result = traced(workload, args.seconds, args.seed)
    else:
        record, result = untraced(workload, args.seconds)
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    for note in result["notes"]:
        print(f"note: {note}")
    for problem in record.problems:
        print(f"FAILED: {problem}")
    print(f"attempted {record.attempted}  failed {record.failed}  "
          f"error_rate {record.failed / max(record.attempted, 1):.6g}")
    print(json.dumps({
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
