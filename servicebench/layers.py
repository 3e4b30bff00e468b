"""Per-layer metrics of a traced run.

:data:`PER_LAYER` is the fixed list a traced run reports, in order, with
units; ``BENCHMARK.json`` lists the same names.  A layer a workload does
not reach reports zeros (``sharding`` outside ``fleet``, ``continuous``
on ``lookup``).
"""

from __future__ import annotations

import statistics

from repro.sharding import ParallelShardedAnonymizer

from servicebench.tracer import LAYERS, SERVER_QUERIES, Tracer

SHARDING_CALLS = ("update_batch", "update", "cloak", "cloak_many")

PER_LAYER: list[tuple[str, str]] = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.errors", "count") for layer in LAYERS[1:]]
    + [
        ("anonymizer.update_batch.self_s", "s"),
        ("anonymizer.update_batch.calls", "count"),
        ("anonymizer.update.self_s", "s"),
        ("anonymizer.update.calls", "count"),
        ("anonymizer.cloak.self_s", "s"),
        ("anonymizer.cloak.calls", "count"),
        ("anonymizer.register.setup_self_s", "s"),
        ("anonymizer.counter_updates_per_move", "1/move"),
        ("anonymizer.cloak_cache.hit_rate", "ratio"),
        ("server.store_private.self_s", "s"),
        ("server.store_private.wall_s", "s"),
        ("server.store_private.calls", "count"),
        ("server.store_private.unchanged_share", "ratio"),
    ]
    + [(f"server.{query}.self_s", "s") for query in SERVER_QUERIES]
    + [(f"processor.candidates.{query}", "items") for query in SERVER_QUERIES]
    + [
        ("processor.refine.self_s", "s"),
        ("processor.refine.calls", "count"),
    ]
    + [
        (f"spatial.{role}.{access}.{stat}", unit)
        for role in ("private", "public")
        for access in ("write", "read")
        for stat, unit in (("self_s", "s"), ("calls", "count"))
    ]
    + [
        ("continuous.on_users_moved.self_s", "s"),
        ("continuous.on_user_moved.self_s", "s"),
        ("continuous.notify.self_s", "s"),
        ("continuous.notify.calls", "count"),
        ("continuous.flush.self_s", "s"),
        ("continuous.on_target_update.self_s", "s"),
        ("continuous.evaluations_per_tick", "1/tick"),
        ("continuous.requery_rate", "1/tick"),
        ("continuous.useful_share", "ratio"),
    ]
    + [
        (f"sharding.{call}.{stat}", unit)
        for call in SHARDING_CALLS
        for stat, unit in (("wall_s", "s"), ("calls", "count"))
    ]
    + [
        ("sharding.wait_share", "ratio"),
        ("sharding.cloak_cache.hit_rate", "ratio"),
        ("trace.total_s", "s"),
        ("trace.untraced_s", "s"),
        ("trace.overhead_share", "ratio"),
        ("trace.self_sum_share", "ratio"),
        ("trace.spans", "count"),
    ]
)


def counters(dep) -> dict[str, float]:
    """The deployment's own counters, read between timed intervals."""
    anonymizer = dep.casper.anonymizer
    stats = anonymizer.stats
    out = {
        "location_updates": stats.location_updates,
        "counter_updates": stats.counter_updates,
    }
    if isinstance(anonymizer, ParallelShardedAnonymizer):
        cache = anonymizer.cache_stats()
        out["shard_hits"], out["shard_misses"] = cache["hits"], cache["misses"]
    else:
        out["hits"] = anonymizer.cloak_cache.hits
        out["misses"] = anonymizer.cloak_cache.misses
    if dep.monitor is not None:
        for key, value in dep.monitor.counters.items():
            out[f"monitor.{key}"] = value
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _reference_total(record, clock) -> float:
    return sum(seconds for _, seconds in record.reference(clock))


def layer_metrics(
    tracer: Tracer, before: dict, after: dict, plain, record, clock, num_knn: int
) -> dict:
    """Per-layer metrics of the traced phase ``record``; ``plain`` is the
    untraced phase that ran the same units.  Span times are raw seconds;
    the overhead compares both phases at reference speed."""
    timed, setup = tracer.summarize()
    delta = {key: after[key] - before.get(key, 0) for key in after}

    def span(name: str, stat: str, table: dict = timed) -> float:
        return table.get(name, {}).get(stat, 0.0)

    values: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, row in timed.items():
        layer_self[name.split(".")[0]] += row["self_s"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    for layer in LAYERS[1:]:
        values[f"{layer}.errors"] = tracer.errors[layer]

    for call in ("update_batch", "update", "cloak"):
        values[f"anonymizer.{call}.self_s"] = span(f"anonymizer.{call}", "self_s")
        values[f"anonymizer.{call}.calls"] = span(f"anonymizer.{call}", "calls")
    values["anonymizer.register.setup_self_s"] = span(
        "anonymizer.register", "self_s", setup
    )
    values["anonymizer.counter_updates_per_move"] = _ratio(
        delta["counter_updates"], delta["location_updates"]
    )
    values["anonymizer.cloak_cache.hit_rate"] = _ratio(
        delta.get("hits", 0), delta.get("hits", 0) + delta.get("misses", 0)
    )

    values["server.store_private.self_s"] = span("server.store_private", "self_s")
    values["server.store_private.wall_s"] = span("server.store_private", "wall_s")
    values["server.store_private.calls"] = span("server.store_private", "calls")
    values["server.store_private.unchanged_share"] = _ratio(
        tracer.counts["store_private.unchanged"], tracer.counts["store_private"]
    )
    for query in SERVER_QUERIES:
        values[f"server.{query}.self_s"] = span(f"server.{query}", "self_s")
        lengths = tracer.candidates.get(query)
        values[f"processor.candidates.{query}"] = (
            statistics.fmean(lengths) if lengths else 0.0
        )
    values["processor.refine.self_s"] = span("processor.refine", "self_s")
    values["processor.refine.calls"] = span("processor.refine", "calls")

    for role in ("private", "public"):
        for access in ("write", "read"):
            name = f"spatial.{role}.{access}"
            values[f"{name}.self_s"] = span(name, "self_s")
            values[f"{name}.calls"] = span(name, "calls")

    for call in ("on_users_moved", "on_user_moved", "notify", "flush", "on_target_update"):
        values[f"continuous.{call}.self_s"] = span(f"continuous.{call}", "self_s")
    values["continuous.notify.calls"] = span("continuous.notify", "calls")
    ticks = delta.get("monitor.ticks", 0)
    evaluations = delta.get("monitor.evaluations", 0)
    values["continuous.evaluations_per_tick"] = _ratio(evaluations, ticks)
    values["continuous.requery_rate"] = _ratio(
        delta.get("monitor.knn_evaluations", 0), num_knn * ticks
    )
    values["continuous.useful_share"] = _ratio(record.answer_changes, evaluations)

    wall = cpu = 0.0
    for call in SHARDING_CALLS:
        name = f"sharding.{call}"
        values[f"{name}.wall_s"] = span(name, "wall_s")
        values[f"{name}.calls"] = span(name, "calls")
        wall += span(name, "wall_s")
        cpu += tracer.cpu.get(name, 0.0)
    values["sharding.wait_share"] = _ratio(wall - cpu, wall)
    values["sharding.cloak_cache.hit_rate"] = _ratio(
        delta.get("shard_hits", 0),
        delta.get("shard_hits", 0) + delta.get("shard_misses", 0),
    )

    total = record.measured
    traced_ref = _reference_total(record, clock)
    plain_ref = _reference_total(plain, clock)
    values["trace.total_s"] = total
    values["trace.untraced_s"] = plain.measured
    values["trace.overhead_share"] = _ratio(traced_ref - plain_ref, plain_ref)
    values["trace.self_sum_share"] = _ratio(sum(layer_self.values()), total)
    values["trace.spans"] = sum(row["calls"] for row in timed.values())

    notes = [
        f"traced {record.units} units: {traced_ref:.3f} s traced vs "
        f"{plain_ref:.3f} s untraced at reference speed"
    ] + [
        f"share {layer:10s} {_ratio(layer_self[layer], total):7.1%}"
        for layer in LAYERS
    ]
    return {
        "metrics": {name: (values[name], unit) for name, unit in PER_LAYER},
        "notes": notes,
    }
