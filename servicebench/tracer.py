"""Span tracer for the benchmark's traced run.

The tracer wraps the public methods of each layer of one deployment --
from the benchmark's side, without touching the program -- and records
one span per call that crosses into a layer: name, layer, start, end and
the span that caused it.  Every timed tick or operation opens a root span
(layer ``bench``), and all spans under it share its request id.  Spans
are kept in memory and written out when the run ends.

A call from a layer into the same layer is folded into the outer span
(a spatial ``insert`` that calls ``remove`` is one write), except where a
wrap asks for ``nested`` spans.  A layer's self time is its spans'
duration minus the part covered by their child spans, so the self times
of all layers, ``bench`` included, add up to the traced time.
"""

from __future__ import annotations

import csv
import gzip
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, thread_time
from typing import Any, Callable

from repro.continuous import ContinuousQueryMonitor
from repro.processor import CandidateList, SafeRegionResult
from repro.server.casper import Casper
from repro.sharding import ParallelShardedAnonymizer

LAYERS = (
    "bench",
    "casper",
    "anonymizer",
    "sharding",
    "server",
    "processor",
    "spatial",
    "continuous",
)

SPATIAL_WRITES = ("insert", "insert_point", "remove", "bulk_load")
SPATIAL_READS = (
    "range_search",
    "nearest",
    "k_nearest",
    "nearest_by_max_distance",
    "k_nearest_by_max_distance",
)
SERVER_QUERIES = (
    "nn_public",
    "knn_public",
    "range_public",
    "nn_private",
    "knn_public_with_validity",
    "run_batch",
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.layer: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        #: Request kind per request id ("tick", "op" or "setup").
        self.requests: list[str] = []
        self.errors: Counter[str] = Counter()
        #: Parent-thread CPU seconds spent inside each span name that
        #: asked for it (the sharding calls, to split work from waiting).
        self.cpu: defaultdict[str, float] = defaultdict(float)
        #: Free-form counters filled by wrap hooks.
        self.counts: Counter[str] = Counter()
        #: Candidate-list lengths per server query type.
        self.candidates: defaultdict[str, list[int]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _open(self, name: str, layer: str, parent: int, request: int) -> int:
        index = len(self.name)
        self.name.append(name)
        self.layer.append(layer)
        self.parent.append(parent)
        self.request.append(request)
        self.end.append(0.0)
        self.start.append(0.0)
        self._stack.append(index)
        return index

    def open_root(self, kind: str, start: float) -> None:
        """Start a request (one tick or operation, or the set-up)."""
        self.requests.append(kind)
        index = self._open(f"bench.{kind}", "bench", -1, len(self.requests) - 1)
        self.start[index] = start

    def close_root(self, end: float) -> None:
        self.end[self._stack.pop()] = end

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        name: str,
        nested: bool = False,
        cpu: bool = False,
        before: Callable[..., None] | None = None,
        after: Callable[[Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(*args)`` runs before the span opens and ``after(result)``
        after it closes, so neither is charged to the layer.  Outside a
        request, and on a same-layer call unless ``nested``, the wrapper
        calls straight through.
        """
        is_class = isinstance(owner, type)
        original = owner.__dict__[attr] if is_class else getattr(owner, attr)
        stack = self._stack
        layers = self.layer

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack or (not nested and layers[stack[-1]] == layer):
                return original(*args, **kwargs)
            if before is not None:
                before(*args)
            parent = stack[-1]
            index = self._open(name, layer, parent, self.request[parent])
            cpu_start = thread_time() if cpu else 0.0
            self.start[index] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self.end[index] = perf_counter()
                if cpu:
                    self.cpu[name] += thread_time() - cpu_start
                stack.pop()
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, is_class))

    def uninstall(self) -> None:
        """Undo every wrap (class-level patches must not outlive a run)."""
        for owner, attr, original, is_class in reversed(self._patches):
            if is_class:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Installation on one deployment
    # ------------------------------------------------------------------
    def instrument(
        self, casper: Casper, monitor: ContinuousQueryMonitor | None
    ) -> None:
        """Wrap the public calls of every layer of ``casper``."""
        for attr in (
            "register_user",
            "update_location",
            "update_locations",
            "refresh_stored_cloak",
            "query_nearest_public",
            "query_k_nearest_public",
            "query_range_public",
            "query_nearest_private",
            "query_batch",
        ):
            self.wrap(casper, attr, "casper", f"casper.{attr}")

        anonymizer = casper.anonymizer
        if isinstance(anonymizer, ParallelShardedAnonymizer):
            for attr in ("register", "update", "update_batch", "cloak", "cloak_many"):
                self.wrap(anonymizer, attr, "sharding", f"sharding.{attr}", cpu=True)
        else:
            for attr in ("register", "update", "update_batch", "cloak"):
                self.wrap(anonymizer, attr, "anonymizer", f"anonymizer.{attr}")

        server = casper.server
        private = server.private_index

        def note_store(oid: object, region: object) -> None:
            self.counts["store_private"] += 1
            if oid in private and private.rect_of(oid) == region:
                self.counts["store_private.unchanged"] += 1

        self.wrap(server, "store_private", "server", "server.store_private",
                  before=note_store)
        for attr in SERVER_QUERIES:
            self.wrap(server, attr, "server", f"server.{attr}",
                      after=self._candidate_counter(attr))

        for role, index in (("private", private), ("public", server.public_index)):
            for attr in SPATIAL_WRITES:
                self.wrap(index, attr, "spatial", f"spatial.{role}.write")
            for attr in SPATIAL_READS:
                self.wrap(index, attr, "spatial", f"spatial.{role}.read")

        for attr in ("refine_nearest", "refine_k_nearest", "refine_within"):
            self.wrap(CandidateList, attr, "processor", "processor.refine")

        if monitor is not None:
            for attr in ("on_users_moved", "on_user_moved", "flush"):
                self.wrap(monitor, attr, "continuous", f"continuous.{attr}")
            self.wrap(monitor, "on_target_update", "continuous",
                      "continuous.on_target_update")
            # The dirty-marking step runs inside on_users_moved; give it
            # its own span so its cost is not folded into the batch call.
            self.wrap(monitor, "notify_user_moved", "continuous",
                      "continuous.notify", nested=True)

    def _candidate_counter(self, query: str) -> Callable[[Any], None]:
        def after(result: Any) -> None:
            lengths = self.candidates[query]
            if isinstance(result, SafeRegionResult):
                lengths.append(len(result.candidates))
            elif isinstance(result, list):
                lengths.extend(len(item) for item in result)
            else:
                lengths.append(len(result))

        return after

    # ------------------------------------------------------------------
    # Analysis and output
    # ------------------------------------------------------------------
    def summarize(self) -> tuple[dict[str, dict[str, float]], dict[str, dict[str, float]]]:
        """``self_s``, ``wall_s`` (inclusive) and ``calls`` per span name,
        as two tables: the timed requests, and the set-up request."""
        count = len(self.name)
        child = [0.0] * count
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        timed: dict[str, dict[str, float]] = {}
        setup: dict[str, dict[str, float]] = {}
        for i in range(count):
            table = setup if self.requests[self.request[i]] == "setup" else timed
            row = table.setdefault(self.name[i], {"self_s": 0.0, "wall_s": 0.0, "calls": 0})
            wall = self.end[i] - self.start[i]
            row["wall_s"] += wall
            row["self_s"] += wall - child[i]
            row["calls"] += 1
        return timed, setup

    def write(self, path: Path) -> None:
        """Write every span as gzip'd CSV, times in microseconds from
        the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", newline="", compresslevel=1) as handle:
            out = csv.writer(handle)
            out.writerow(["request", "kind", "span", "parent", "name", "start_us", "end_us"])
            for i in range(len(self.name)):
                request = self.request[i]
                out.writerow([
                    request,
                    self.requests[request],
                    i,
                    self.parent[i],
                    self.name[i],
                    round((self.start[i] - origin) * 1e6, 3),
                    round((self.end[i] - origin) * 1e6, 3),
                ])
