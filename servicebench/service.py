"""The benchmark's workloads: deployments built through the ``Casper``
facade and the closed loop that drives them.

One client drives each deployment, sending its next request only when
the previous one has returned.  A *unit* is the loop's step:

* ``commute`` / ``fleet``: the ad-hoc probe operations of one trace tick,
  then the tick itself -- every user's move handed to
  ``ContinuousQueryMonitor.on_users_moved``, the tick's target moves
  through ``on_target_update``, and ``flush``;
* ``lookup``: one operation of the ad-hoc stream.

Only the calls into the deployment are timed.  Input preparation, the
oracle checks after every unit and the final standing-answer comparison
run between the timed intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.anonymizer import PrivacyProfile
from repro.continuous import ContinuousQueryMonitor
from repro.geometry import Point
from repro.server.casper import Casper

from servicebench.inputs import (
    KNN_K,
    KNN_PUBLIC,
    NN_PRIVATE,
    NN_PUBLIC,
    OP_NAMES,
    RANGE_PUBLIC,
    UNIT,
    UPDATE,
    Inputs,
    commute_inputs,
    lookup_inputs,
)
from servicebench.clock import Clock
from servicebench.oracle import TOL, World
from servicebench.tracer import Tracer

#: Stored cloaks checked against the oracle after every tick.
CLOAK_SAMPLE = 10
#: Reported failures kept for the run's output.
MAX_PROBLEMS = 10


@dataclass
class Record:
    """What one timed phase measured and checked."""

    #: Raw seconds of timed work (the run's stopping rule).
    measured: float = 0.0
    units: int = 0
    #: ``(kind, start, raw seconds)`` of every timed interval, in order;
    #: kind is "tick", "query" or "update".
    samples: list[tuple[str, float, float]] = field(default_factory=list)
    moves: int = 0
    queries: int = 0
    #: Length of every candidate list shipped to a client.
    candidates: list[int] = field(default_factory=list)
    answer_changes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def timed(self, kind: str, start: float, end: float) -> None:
        self.measured += end - start
        self.samples.append((kind, start, end - start))

    def reference(self, clock: Clock) -> list[tuple[str, float]]:
        """``(kind, seconds)`` of every sample at the reference speed."""
        return [
            (kind, raw * clock.scale_at(start)) for kind, start, raw in self.samples
        ]


@dataclass
class Deployment:
    """One built deployment and the oracle's mirror of its world."""

    casper: Casper
    monitor: ContinuousQueryMonitor | None
    world: World
    #: The candidate list each standing query last shipped.
    shipped: dict[str, object] = field(default_factory=dict)

    def close(self) -> None:
        self.casper.close()


def _point(xy: list[float]) -> Point:
    return Point(xy[0], xy[1])


def _ops(kinds: np.ndarray, uids: np.ndarray, xys: np.ndarray) -> list:
    return [
        (int(op), int(uid), _point(xy) if op == UPDATE else None)
        for op, uid, xy in zip(kinds.tolist(), uids.tolist(), xys.tolist())
    ]


class Workload:
    """Shared loop machinery; subclasses build deployments and units."""

    name = ""
    #: Deployments built per untraced run; setup_s is their median.
    SETUPS = 9
    #: Tail percentile reported per latency class.  Fixed per workload,
    #: so two commits compare the same percentile.
    tails: dict[str, float] = {}
    #: Whether the deployment runs worker processes; its clock then
    #: times a partner process too (see clock.py).
    parallel = False
    inputs: Inputs

    def __init__(self, seed: int) -> None:
        self.check_rng = np.random.default_rng([seed, 1])
        self.profiles = [
            PrivacyProfile(k=int(k), a_min=float(a))
            for k, a in zip(self.inputs["k"].tolist(), self.inputs["a_min"].tolist())
        ]
        self.targets = {
            i: _point(xy) for i, xy in enumerate(self.inputs["targets_xy"].tolist())
        }

    def build(self, tracer: Tracer | None = None) -> Deployment:
        raise NotImplementedError

    def run_unit(
        self, dep: Deployment, record: Record, unit: int, tracer: Tracer | None
    ) -> None:
        raise NotImplementedError

    def final_check(self, dep: Deployment, record: Record) -> None:
        """Checks that need the whole run (none by default)."""

    def run(self, dep: Deployment, record: Record, clock: Clock, seconds: float) -> None:
        """Run untraced units until ``seconds`` of timed work, sampling
        the clock's speed probe between units."""
        while record.measured < seconds:
            clock.maybe_sample()
            record.units += 1
            self.run_unit(dep, record, record.units, None)
        clock.sample()

    def tick_samples(self, reference: list[tuple[str, float]]) -> list[float]:
        """Reference seconds of every tick."""
        return [seconds for kind, seconds in reference if kind == "tick"]

    # ------------------------------------------------------------------
    # One ad-hoc client operation
    # ------------------------------------------------------------------
    def ad_hoc(
        self,
        dep: Deployment,
        record: Record,
        op: int,
        uid: int,
        point: Point | None,
        tracer: Tracer | None,
    ) -> None:
        casper = dep.casper
        record.attempted += 1
        error: Exception | None = None
        result = None
        start = perf_counter()
        if tracer is not None:
            tracer.open_root("op", start)
        try:
            result = self.call(casper, dep.monitor, op, uid, point)
        except Exception as exc:  # counted as a failed operation
            error = exc
        finally:
            end = perf_counter()
            if tracer is not None:
                tracer.close_root(end)
        world = dep.world
        if op == UPDATE:
            assert point is not None
            record.timed("update", start, end)
            record.moves += 1
            world.move_user(uid, np.array([point.x, point.y]))
        else:
            record.timed("query", start, end)
            record.queries += 1
        if error is not None:
            record.fail(f"{OP_NAMES[op]} for user {uid} raised {error!r}")
            return
        if op == UPDATE:
            ok = world.cloak_ok(uid, casper.server.private_index.rect_of(uid))
        else:
            record.candidates.append(len(result.candidates))
            ok = world.cloak_ok(uid, result.cloak.region) and self._answer_ok(
                world, op, uid, result
            )
        if not ok:
            record.fail(f"{OP_NAMES[op]} for user {uid} failed the oracle check")

    def call(
        self,
        casper: Casper,
        monitor: ContinuousQueryMonitor | None,
        op: int,
        uid: int,
        point: Point | None,
    ):
        """Issue one ad-hoc operation; a deployment with standing queries
        takes updates through its monitor, so they stay consistent."""
        if op == NN_PUBLIC:
            return casper.query_nearest_public(uid)
        if op == KNN_PUBLIC:
            return casper.query_k_nearest_public(uid, KNN_K)
        if op == RANGE_PUBLIC:
            return casper.query_range_public(uid, self.inputs.radius)
        if op == NN_PRIVATE:
            return casper.query_nearest_private(uid)
        if monitor is not None:
            return monitor.on_user_moved(uid, point)
        return casper.update_location(uid, point)

    def _answer_ok(self, world: World, op: int, uid: int, result) -> bool:
        if op == NN_PUBLIC:
            return world.nearest_ok(uid, result.answer)
        if op == KNN_PUBLIC:
            return world.k_nearest_ok(uid, list(result.answer), KNN_K)
        if op == RANGE_PUBLIC:
            return world.within_ok(uid, result.answer, self.inputs.radius)
        return world.buddy_included(uid, result.candidates.oids())


class Commute(Workload):
    """Commuter trace through the continuous monitor (``commute``), or the
    identical trace on the two-worker parallel fleet (``fleet``)."""

    NUM_USERS = 200
    NUM_TARGETS = 1000
    BURN_IN = 60
    PROBES_PER_TICK = 60
    KNN_SHARE = 0.10
    BUDDY_SHARE = 0.025
    TARGET_MOVE_SHARE = 0.01
    #: Ticks generated per second of requested run time; a run that
    #: outpaces them replays the trace backwards (see trace_index).
    TICKS_PER_SECOND = 10
    tails = {"tick": 75.0, "query": 90.0, "update": 95.0}

    def __init__(self, seed: int, seconds: float, shards: int = 1) -> None:
        self.name = "commute" if shards == 1 else "fleet"
        self.shards = shards
        self.parallel = shards > 1
        self.inputs = commute_inputs(
            seed,
            num_users=self.NUM_USERS,
            num_targets=self.NUM_TARGETS,
            ticks=1 + math.ceil(seconds * self.TICKS_PER_SECOND),
            burn_in=self.BURN_IN,
            probes_per_tick=self.PROBES_PER_TICK,
            knn_share=self.KNN_SHARE,
            buddy_share=self.BUDDY_SHARE,
            target_move_share=self.TARGET_MOVE_SHARE,
        )
        super().__init__(seed)
        inputs = self.inputs
        self.init_points = [_point(xy) for xy in inputs["init_xy"].tolist()]
        self.moves = [
            [(uid, _point(xy)) for uid, xy in enumerate(tick)]
            for tick in inputs["trace_xy"].tolist()
        ]
        self.target_moves = [
            [(oid, _point(xy)) for oid, xy in zip(ids, xys)]
            for ids, xys in zip(inputs["tmove_id"].tolist(), inputs["tmove_xy"].tolist())
        ]
        self.probes = [
            _ops(*arrays)
            for arrays in zip(inputs["probe_op"], inputs["probe_uid"], inputs["probe_xy"])
        ]
        self.standing = [("knn", uid) for uid in inputs["knn_uids"].tolist()] + [
            ("buddy", uid) for uid in inputs["buddy_uids"].tolist()
        ]

    def trace_index(self, unit: int) -> int:
        """Tick of the trace replayed by ``unit``: forwards, then
        backwards and forwards again (every step stays a real move)."""
        period = 2 * (len(self.moves) - 1)
        step = unit % period
        return step if step < len(self.moves) else period - step

    def build(self, tracer: Tracer | None = None) -> Deployment:
        casper = Casper(
            UNIT, policy="adaptive", shards=self.shards, parallel=self.parallel
        )
        try:
            monitor = ContinuousQueryMonitor(casper)
            if tracer is not None:
                tracer.instrument(casper, monitor)
                tracer.open_root("setup", perf_counter())
            for uid, point in enumerate(self.init_points):
                casper.register_user(uid, point, self.profiles[uid])
            casper.add_public_targets(self.targets)
            for kind, uid in self.standing:
                if kind == "knn":
                    monitor.register_knn(f"knn{uid}", uid, k=KNN_K)
                else:
                    monitor.register_buddy(f"buddy{uid}", uid)
            # Warm-up: the trace's first tick lands in the set-up.
            self._tick(monitor, 0)
            if tracer is not None:
                tracer.close_root(perf_counter())
        except BaseException:
            casper.close()
            raise
        world = World(
            self.inputs["trace_xy"][0],
            self.inputs["k"],
            self.inputs["a_min"],
            self.inputs["targets_xy"],
        )
        for oid, xy in zip(self.inputs["tmove_id"][0], self.inputs["tmove_xy"][0]):
            world.move_target(oid, xy)
        dep = Deployment(casper, monitor, world)
        for kind, uid in self.standing:
            dep.shipped[f"{kind}{uid}"] = monitor.candidates_of(f"{kind}{uid}")
        return dep

    def _tick(self, monitor: ContinuousQueryMonitor, index: int) -> list:
        monitor.on_users_moved(self.moves[index])
        for oid, point in self.target_moves[index]:
            monitor.on_target_update(oid, point)
        return monitor.flush()

    def run_unit(
        self, dep: Deployment, record: Record, unit: int, tracer: Tracer | None
    ) -> None:
        index = self.trace_index(unit)
        for op, uid, point in self.probes[index]:
            self.ad_hoc(dep, record, op, uid, point, tracer)

        assert dep.monitor is not None
        record.attempted += 1
        changes: list = []
        error: Exception | None = None
        start = perf_counter()
        if tracer is not None:
            tracer.open_root("tick", start)
        try:
            changes = self._tick(dep.monitor, index)
        except Exception as exc:  # counted as a failed operation
            error = exc
        finally:
            end = perf_counter()
            if tracer is not None:
                tracer.close_root(end)
        record.timed("tick", start, end)
        record.moves += len(self.moves[index])
        record.answer_changes += len(changes)

        world = dep.world
        world.users[:] = self.inputs["trace_xy"][index]
        for oid, xy in zip(self.inputs["tmove_id"][index], self.inputs["tmove_xy"][index]):
            world.move_target(oid, xy)
        if error is not None:
            record.fail(f"tick {index} raised {error!r}")
        elif not (self._standing_ok(dep, record) and self._stored_ok(dep)):
            record.fail(f"tick {index} failed the oracle check")

    def _standing_ok(self, dep: Deployment, record: Record) -> bool:
        """Every standing answer refines to the oracle's answer; count
        the candidate lists the tick shipped."""
        assert dep.monitor is not None
        ok = True
        for kind, uid in self.standing:
            query_id = f"{kind}{uid}"
            candidates = dep.monitor.candidates_of(query_id)
            if candidates is not dep.shipped[query_id]:
                dep.shipped[query_id] = candidates
                record.candidates.append(len(candidates))
            if kind == "knn":
                location = _point(dep.world.users[uid].tolist())
                answer = candidates.refine_k_nearest(location, KNN_K)
                ok &= dep.world.k_nearest_ok(uid, answer, KNN_K)
            else:
                ok &= dep.world.buddy_included(uid, candidates.oids())
        return ok

    def _stored_ok(self, dep: Deployment) -> bool:
        """A sample of the server's stored cloaks meets k and A_min."""
        index = dep.casper.server.private_index
        sample = self.check_rng.choice(self.NUM_USERS, CLOAK_SAMPLE, replace=False)
        return all(dep.world.cloak_ok(uid, index.rect_of(uid)) for uid in sample.tolist())

    def final_check(self, dep: Deployment, record: Record) -> None:
        """Every standing answer equals a fresh facade query's refined
        answer (buddy answers may differ only by an exact tie)."""
        assert dep.monitor is not None
        for kind, uid in self.standing:
            record.attempted += 1
            query_id = f"{kind}{uid}"
            candidates = dep.monitor.candidates_of(query_id)
            location = _point(dep.world.users[uid].tolist())
            try:
                if kind == "knn":
                    fresh = dep.casper.query_k_nearest_public(uid, KNN_K)
                    ok = list(fresh.answer) == candidates.refine_k_nearest(location, KNN_K)
                else:
                    fresh = dep.casper.query_nearest_private(uid)
                    standing = candidates.refine_nearest(location, by="center")
                    ok = standing == fresh.answer or math.isclose(
                        dict(candidates.items)[standing].center.distance_to(location),
                        dict(fresh.candidates.items)[fresh.answer].center.distance_to(location),
                        abs_tol=TOL,
                    )
            except Exception as exc:  # counted as a failed operation
                record.fail(f"final {query_id} raised {exc!r}")
                continue
            if not ok:
                record.fail(f"standing {query_id} differs from a fresh query")


class Lookup(Workload):
    """A large population and one client's Zipf-skewed query stream."""

    name = "lookup"
    SETUPS = 3
    NUM_USERS = 10_000
    NUM_TARGETS = 10_000
    ZIPF_EXPONENT = 0.8
    WARMUP_OPS = 200
    #: Operations per tick sample: a lookup "tick" is the time the client
    #: takes for this many consecutive operations.
    BLOCK = 100
    #: Operations generated per second of requested run time; a run that
    #: outpaces them wraps around to the start of the stream.
    OPS_PER_SECOND = 2000
    tails = {"tick": 75.0, "query": 99.0, "update": 95.0}

    def __init__(self, seed: int, seconds: float) -> None:
        self.inputs = lookup_inputs(
            seed,
            num_users=self.NUM_USERS,
            num_targets=self.NUM_TARGETS,
            ops=self.WARMUP_OPS + math.ceil(seconds * self.OPS_PER_SECOND),
            zipf_exponent=self.ZIPF_EXPONENT,
        )
        super().__init__(seed)
        self.init_points = [_point(xy) for xy in self.inputs["init_xy"].tolist()]
        self.ops = _ops(self.inputs["op"], self.inputs["uid"], self.inputs["xy"])

    def build(self, tracer: Tracer | None = None) -> Deployment:
        casper = Casper(UNIT, policy="adaptive")
        if tracer is not None:
            tracer.instrument(casper, None)
            tracer.open_root("setup", perf_counter())
        for uid, point in enumerate(self.init_points):
            casper.register_user(uid, point, self.profiles[uid])
        casper.add_public_targets(self.targets)
        world = World(
            self.inputs["init_xy"], self.inputs["k"], self.inputs["a_min"],
            self.inputs["targets_xy"],
        )
        # Warm-up: the stream's first operations land in the set-up.
        for op, uid, point in self.ops[: self.WARMUP_OPS]:
            self.call(casper, None, op, uid, point)
            if op == UPDATE:
                world.move_user(uid, np.array([point.x, point.y]))
        if tracer is not None:
            tracer.close_root(perf_counter())
        return Deployment(casper, None, world)

    def run_unit(
        self, dep: Deployment, record: Record, unit: int, tracer: Tracer | None
    ) -> None:
        op, uid, point = self.ops[(self.WARMUP_OPS + unit - 1) % len(self.ops)]
        self.ad_hoc(dep, record, op, uid, point, tracer)

    def tick_samples(self, reference: list[tuple[str, float]]) -> list[float]:
        """Reference seconds of every complete block of BLOCK operations."""
        ops = [seconds for _, seconds in reference]
        return [
            sum(ops[i : i + self.BLOCK])
            for i in range(0, len(ops) - self.BLOCK + 1, self.BLOCK)
        ]
