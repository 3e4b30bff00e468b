"""Tests for the continuous query monitor.

The key correctness property: after any sequence of user movements and
target updates followed by ``flush()``, each continuous query's answer
equals a from-scratch evaluation — incrementality never changes
semantics, only work.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymizer import PrivacyProfile
from repro.continuous import ContinuousQueryMonitor
from repro.geometry import Point, Rect
from repro.processor import private_nn_over_public, private_range_over_public
from repro.server import Casper
from tests.conftest import UNIT, random_points


def build(rng, num_users=400, num_targets=200):
    casper = Casper(UNIT, pyramid_height=7, anonymizer="adaptive")
    casper.add_public_targets(
        {f"t{i}": p for i, p in enumerate(random_points(rng, num_targets))}
    )
    for i, p in enumerate(random_points(rng, num_users)):
        casper.register_user(i, p, PrivacyProfile(k=int(rng.integers(1, 25))))
    return casper, ContinuousQueryMonitor(casper)


class TestRegistration:
    def test_register_returns_initial_answer(self, rng):
        casper, monitor = build(rng)
        initial = monitor.register_nn("q1", 0)
        assert len(initial) > 0
        assert monitor.answer_of("q1") == frozenset(initial.oids())
        assert monitor.num_queries == 1

    def test_duplicate_query_id_rejected(self, rng):
        _casper, monitor = build(rng)
        monitor.register_nn("q1", 0)
        with pytest.raises(ValueError):
            monitor.register_nn("q1", 1)

    def test_register_range_validation(self, rng):
        _casper, monitor = build(rng)
        with pytest.raises(ValueError):
            monitor.register_range("q1", 0, radius=-0.1)

    def test_deregister(self, rng):
        _casper, monitor = build(rng)
        monitor.register_nn("q1", 0)
        monitor.deregister("q1")
        assert monitor.num_queries == 0
        with pytest.raises(KeyError):
            monitor.answer_of("q1")


class TestIncrementalConsistency:
    def test_flush_matches_fresh_evaluation_after_churn(self, rng):
        casper, monitor = build(rng)
        for qid in range(10):
            monitor.register_nn(f"nn-{qid}", qid, num_filters=4)
            monitor.register_range(f"rg-{qid}", qid, radius=0.05)
        # Churn: users move, targets move / appear / disappear.
        for step in range(30):
            roll = rng.random()
            if roll < 0.5:
                uid = int(rng.integers(10))
                monitor.on_user_moved(
                    uid, Point(float(rng.random()), float(rng.random()))
                )
            elif roll < 0.8:
                oid = f"t{int(rng.integers(200))}"
                if oid in casper.server.public_index:
                    monitor.on_target_update(
                        oid, Point(float(rng.random()), float(rng.random()))
                    )
            else:
                monitor.on_target_update(
                    f"new-{step}", Point(float(rng.random()), float(rng.random()))
                )
        monitor.flush()
        # Oracle: fresh evaluation of every query.
        for qid in range(10):
            cloak = casper.anonymizer.cloak(qid)
            fresh_nn = private_nn_over_public(
                casper.server.public_index, cloak.region, 4
            )
            assert monitor.answer_of(f"nn-{qid}") == frozenset(fresh_nn.oids())
            fresh_rg = private_range_over_public(
                casper.server.public_index, cloak.region, 0.05
            )
            assert monitor.answer_of(f"rg-{qid}") == frozenset(fresh_rg.oids())

    def test_target_entering_a_ext_triggers_change(self, rng):
        casper, monitor = build(rng)
        initial = monitor.register_nn("q", 0)
        a_ext = initial.search_region
        # Drop a new target dead-center in the search region.
        monitor.on_target_update("invader", a_ext.center)
        changes = monitor.flush()
        assert any(
            c.query_id == "q" and "invader" in c.added for c in changes
        )

    def test_far_target_does_not_dirty_query(self, rng):
        casper, monitor = build(rng, num_users=50, num_targets=50)
        initial = monitor.register_nn("q", 0)
        a_ext = initial.search_region
        # A point far outside A_EXT (if one exists in the unit square).
        for candidate in (Point(0.99, 0.99), Point(0.01, 0.99), Point(0.99, 0.01),
                          Point(0.01, 0.01)):
            if not a_ext.contains_point(candidate):
                monitor.on_target_update("far", candidate)
                assert monitor.flush() == []
                return
        pytest.skip("A_EXT covers the whole space at this scale")

    def test_removing_answer_member_triggers_change(self, rng):
        casper, monitor = build(rng)
        initial = monitor.register_nn("q", 0)
        victim = initial.oids()[0]
        monitor.on_target_update(victim, None)
        changes = monitor.flush()
        assert any(c.query_id == "q" and victim in c.removed for c in changes)
        assert victim not in casper.server.public_index

    def test_user_movement_updates_answer(self, rng):
        casper, monitor = build(rng)
        monitor.register_nn("q", 0)
        before = monitor.answer_of("q")
        monitor.on_user_moved(0, Point(0.95, 0.95))
        monitor.flush()
        after = monitor.answer_of("q")
        # Oracle check regardless of whether the answer changed.
        cloak = casper.anonymizer.cloak(0)
        fresh = private_nn_over_public(casper.server.public_index, cloak.region, 4)
        assert after == frozenset(fresh.oids())

    def test_unchanged_reevaluation_suppressed(self, rng):
        casper, monitor = build(rng)
        initial = monitor.register_nn("q", 0)
        # Move a target within A_EXT to ... exactly where it already is.
        oid = initial.oids()[0]
        pos = casper.server.public_index.rect_of(oid).center
        monitor.on_target_update(oid, pos)
        assert monitor.flush() == []  # dirty, re-evaluated, no delta

    def test_range_query_tracks_radius(self, rng):
        casper, monitor = build(rng)
        monitor.register_range("r", 0, radius=0.1)
        cloak = casper.anonymizer.cloak(0)
        fresh = private_range_over_public(
            casper.server.public_index, cloak.region, 0.1
        )
        assert monitor.answer_of("r") == frozenset(fresh.oids())


class TestBuddyQueries:
    def test_register_buddy_excludes_self(self, rng):
        _casper, monitor = build(rng)
        initial = monitor.register_buddy("b", 0)
        assert 0 not in initial.oids()
        assert len(initial) > 0

    def test_buddy_consistency_under_full_churn(self, rng):
        casper, monitor = build(rng, num_users=120, num_targets=60)
        for qid in range(6):
            monitor.register_buddy(f"b-{qid}", qid)
        for _step in range(25):
            uid = int(rng.integers(120))
            monitor.on_user_moved(
                uid, Point(float(rng.random()), float(rng.random()))
            )
        monitor.flush()
        for qid in range(6):
            cloak = casper.anonymizer.cloak(qid)
            fresh = casper.server.nn_private(cloak.region, 4, exclude=qid)
            assert monitor.answer_of(f"b-{qid}") == frozenset(fresh.oids())

    def test_buddy_reacts_to_other_users_movement(self, rng):
        casper, monitor = build(rng, num_users=80, num_targets=40)
        monitor.register_buddy("b", 0)
        # March a far-away user right next to user 0: their stored
        # region must enter the buddy query's A_EXT and flip the answer
        # set (or at least trigger a consistent re-evaluation).
        target_point = casper.anonymizer.location_of(0)
        monitor.on_user_moved(
            79, Point(target_point.x + 1e-4, target_point.y)
        )
        monitor.flush()
        cloak = casper.anonymizer.cloak(0)
        fresh = casper.server.nn_private(cloak.region, 4, exclude=0)
        assert monitor.answer_of("b") == frozenset(fresh.oids())
        assert 79 in monitor.answer_of("b")

    def test_buddy_answers_exact_under_mostly_unchanged_cloaks(self, rng):
        """Dense population, small steps: most moves keep the stored
        cloak, so the server skips the write and the monitor skips its
        buddy probes.  Every buddy answer still equals a fresh
        ``nn_private`` after every flush."""
        casper, monitor = build(rng, num_users=600, num_targets=50)
        buddies = list(range(0, 600, 40))
        for uid in buddies:
            monitor.register_buddy(f"b-{uid}", uid)
        monitor.register_nn("nn-1", 1)
        private = casper.server.private_index
        kept = moves = 0
        for _tick in range(15):
            movers = [int(u) for u in rng.choice(600, size=60, replace=False)]
            batch = []
            for uid in movers:
                at = casper.anonymizer.location_of(uid)
                step = rng.normal(0.0, 0.002, 2)
                batch.append((uid, Point(
                    float(np.clip(at.x + step[0], 0.0, 1.0)),
                    float(np.clip(at.y + step[1], 0.0, 1.0)),
                )))
            before = {uid: private.rect_of(uid) for uid in movers}
            monitor.on_users_moved(batch)
            kept += sum(private.rect_of(uid) == before[uid] for uid in movers)
            moves += len(movers)
            monitor.flush()
            for uid in buddies:
                cloak = casper.anonymizer.cloak(uid)
                fresh = casper.server.nn_private(cloak.region, 4, exclude=uid)
                assert monitor.answer_of(f"b-{uid}") == frozenset(fresh.oids())
        assert kept > moves / 2

    def test_equal_rect_store_is_a_no_op(self, rng):
        casper, _monitor = build(rng, num_users=80, num_targets=10)
        private = casper.server.private_index
        region = private.rect_of(7)
        seq = private._seq[7]
        order = [oid for oid, _rect in private.items()]
        casper.server.store_private(7, region)
        assert private.rect_of(7) == region
        assert private._seq[7] == seq
        assert [oid for oid, _rect in private.items()] == order
        # A different rect is a real write with a fresh sequence number.
        other = Rect(0.0, 0.0, 0.5, 0.5)
        assert other != region
        casper.server.store_private(7, other)
        assert private.rect_of(7) == other
        assert private._seq[7] > seq

    def test_target_moves_never_dirty_buddy_queries(self, rng):
        casper, monitor = build(rng, num_users=120, num_targets=60)
        initial = [monitor.register_buddy(f"b-{uid}", uid) for uid in range(5)]
        monitor.flush()
        evaluations = monitor.counters["evaluations"]
        # Public targets move in and out of every buddy query's A_EXT.
        for i, candidates in enumerate(initial):
            monitor.on_target_update(f"t{i}", candidates.search_region.center)
            monitor.on_target_update(f"new-{i}", candidates.search_region.center)
        monitor.on_target_update("t10", None)
        assert monitor.flush() == []
        assert monitor.counters["evaluations"] == evaluations

    def test_mark_all_dirty_after_out_of_band_change(self, rng):
        casper, monitor = build(rng, num_users=80, num_targets=40)
        monitor.register_buddy("b", 0)
        # Out-of-band: a user leaves through the facade directly.
        victim = next(iter(monitor.answer_of("b")))
        casper.remove_user(victim)
        monitor.mark_all_dirty()
        monitor.flush()
        assert victim not in monitor.answer_of("b")
