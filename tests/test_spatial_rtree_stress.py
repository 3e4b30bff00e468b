"""Stress and edge-case tests for the R-tree beyond the shared contract."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.spatial import BruteForceIndex, RTreeIndex
from tests.conftest import random_points, random_rects


def sub_rect(rng, outer: Rect) -> Rect:
    """A random rect inside ``outer``."""
    xs = sorted(rng.uniform(outer.x_min, outer.x_max, 2).tolist())
    ys = sorted(rng.uniform(outer.y_min, outer.y_max, 2).tolist())
    # uniform() may round up to the open upper end; clamp it.
    x0, x1 = (min(x, outer.x_max) for x in xs)
    y0, y1 = (min(y, outer.y_max) for y in ys)
    return Rect(x0, y0, x1, y1)


def nudged_rect(rtree: RTreeIndex, oid: object, rng) -> Rect:
    """A new rect for ``oid`` inside its current leaf's MBR, so that
    ``insert`` takes the in-place replace path: the rect shrunk, shifted
    within the MBR, or snapped onto a leaf sibling's rect (a tie)."""
    leaf = rtree._leaf_of[oid]
    roll = rng.random()
    if roll < 1 / 3:
        return sub_rect(rng, rtree.rect_of(oid))
    if roll < 2 / 3:
        return sub_rect(rng, leaf.mbr)
    _sibling, rect = leaf.entries[int(rng.integers(len(leaf.entries)))]
    return rect


def assert_matches_oracle(rtree: RTreeIndex, oracle: BruteForceIndex, rng) -> None:
    """kNN, max-distance kNN (both in exact tie order) and range answers
    all equal the brute-force oracle's."""
    k = min(5, len(oracle))
    q = Point(float(rng.random()), float(rng.random()))
    assert rtree.k_nearest(q, k) == oracle.k_nearest(q, k)
    assert rtree.k_nearest_by_max_distance(q, k) == oracle.k_nearest_by_max_distance(
        q, k
    )
    region = Rect.from_center(q, 0.3, 0.3)
    assert set(rtree.range_search(region)) == set(oracle.range_search(region))


class TestRTreeStress:
    def test_interleaved_ops_match_oracle(self, rng):
        rtree = RTreeIndex(max_entries=5)
        oracle = BruteForceIndex()
        live = set()
        next_id = 0
        nudges = 0
        for step in range(1200):
            roll = rng.random()
            if roll < 0.5 or not live:
                r = random_rects(rng, 1, max_side=0.05)[0]
                rtree.insert(next_id, r)
                oracle.insert(next_id, r)
                live.add(next_id)
                next_id += 1
            elif roll < 0.75:
                victim = int(rng.choice(list(live)))
                rtree.remove(victim)
                oracle.remove(victim)
                live.discard(victim)
            elif roll < 0.9:
                # Nudge: the new rect stays inside the leaf MBR, so the
                # entry is replaced in place, in the same leaf.
                victim = int(rng.choice(list(live)))
                leaf = rtree._leaf_of[victim]
                r = nudged_rect(rtree, victim, rng)
                rtree.insert(victim, r)
                oracle.insert(victim, r)
                assert rtree._leaf_of[victim] is leaf
                nudges += 1
                if nudges % 10 == 0:
                    rtree.check_invariants()
                    assert_matches_oracle(rtree, oracle, rng)
            else:
                # Move (reinsert with the same id).
                victim = int(rng.choice(list(live)))
                r = random_rects(rng, 1, max_side=0.05)[0]
                rtree.insert(victim, r)
                oracle.insert(victim, r)
            if step % 200 == 0:
                rtree.check_invariants()
                assert_matches_oracle(rtree, oracle, rng)
        assert nudges > 100
        rtree.check_invariants()
        assert_matches_oracle(rtree, oracle, rng)
        region = Rect(0.25, 0.25, 0.75, 0.75)
        assert set(rtree.range_search(region)) == set(oracle.range_search(region))

    def test_nudge_takes_a_fresh_sequence_number(self):
        """An in-place replace ranks the entry last among exact ties,
        exactly as a remove plus insert would."""
        rtree = RTreeIndex(max_entries=4)
        oracle = BruteForceIndex()
        same = Rect(0.4, 0.4, 0.5, 0.5)
        for i in range(12):
            rtree.insert(i, same)
            oracle.insert(i, same)
        leaf = rtree._leaf_of[5]
        rtree.insert(5, same)
        oracle.insert(5, same)
        assert rtree._leaf_of[5] is leaf
        q = Point(0.1, 0.9)
        assert rtree.k_nearest(q, 12) == oracle.k_nearest(q, 12)
        assert rtree.k_nearest(q, 12)[-1] == 5
        assert rtree.k_nearest_by_max_distance(q, 12) == (
            oracle.k_nearest_by_max_distance(q, 12)
        )
        assert rtree.k_nearest_by_max_distance(q, 12)[-1] == 5
        rtree.check_invariants()

    def test_nudge_shrinks_mbrs_to_the_exact_union(self):
        """Shrinking the entry that defined a leaf's MBR re-tightens the
        MBRs above it (``check_invariants`` demands exact unions)."""
        rtree = RTreeIndex(max_entries=4)
        for i in range(40):
            rtree.insert_point(i, Point(0.02 * i + 0.1, 0.5))
        rtree.insert("wide", Rect(0.1, 0.1, 0.9, 0.9))
        leaf = rtree._leaf_of["wide"]
        rtree.insert("wide", Rect(0.45, 0.45, 0.5, 0.5))
        assert rtree._leaf_of["wide"] is leaf
        rtree.check_invariants()
        assert rtree._root.mbr == Rect(0.1, 0.45, 0.88, 0.5)

    def test_drain_to_empty_and_refill(self, rng):
        rtree = RTreeIndex(max_entries=4)
        points = random_points(rng, 300)
        for i, p in enumerate(points):
            rtree.insert_point(i, p)
        for i in range(300):
            rtree.remove(i)
        assert len(rtree) == 0
        rtree.check_invariants()
        for i, p in enumerate(points[:50]):
            rtree.insert_point(i, p)
        rtree.check_invariants()
        assert len(rtree) == 50

    def test_collinear_points(self):
        """Degenerate geometry: all entries on one line still split fine."""
        rtree = RTreeIndex(max_entries=4)
        for i in range(100):
            rtree.insert_point(i, Point(i / 100.0, 0.5))
        rtree.check_invariants(strict_fill=True)
        assert rtree.nearest(Point(0.345, 0.5)) in (34, 35)

    def test_bulk_load_single_entry(self):
        rtree = RTreeIndex()
        rtree.bulk_load({"only": Rect.point(Point(0.5, 0.5))})
        assert rtree.nearest(Point(0, 0)) == "only"
        rtree.check_invariants()

    def test_bulk_load_sizes_around_node_capacity(self, rng):
        """STR packing edge cases: exactly M, M+1, M^2, M^2+1 entries."""
        for n in (16, 17, 256, 257):
            points = random_points(rng, n)
            rtree = RTreeIndex(max_entries=16)
            rtree.bulk_load({i: Rect.point(p) for i, p in enumerate(points)})
            rtree.check_invariants()
            oracle = BruteForceIndex()
            for i, p in enumerate(points):
                oracle.insert_point(i, p)
            q = Point(0.5, 0.5)
            assert rtree.k_nearest(q, min(5, n)) == oracle.k_nearest(q, min(5, n))

    def test_large_overlapping_rects(self, rng):
        """Heavily overlapping entries (worst case for R-trees) stay
        correct."""
        rects = [
            Rect(0.0, 0.0, float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.5, 1.0)))
            for _ in range(120)
        ]
        rtree = RTreeIndex(max_entries=4)
        oracle = BruteForceIndex()
        for i, r in enumerate(rects):
            rtree.insert(i, r)
            oracle.insert(i, r)
        rtree.check_invariants()
        q = Point(0.9, 0.9)
        got = rtree.nearest(q)
        want = oracle.nearest(q)
        assert rtree.rect_of(got).min_distance_to_point(q) == pytest.approx(
            oracle.rect_of(want).min_distance_to_point(q)
        )

    def test_max_distance_nn_with_ties(self):
        rtree = RTreeIndex(max_entries=4)
        # Four symmetric rects: all the same max distance from center.
        rtree.insert("a", Rect(0.0, 0.0, 0.2, 0.2))
        rtree.insert("b", Rect(0.8, 0.0, 1.0, 0.2))
        rtree.insert("c", Rect(0.0, 0.8, 0.2, 1.0))
        rtree.insert("d", Rect(0.8, 0.8, 1.0, 1.0))
        winner = rtree.nearest_by_max_distance(Point(0.5, 0.5))
        assert winner in ("a", "b", "c", "d")


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "remove", "nudge"]),
            st.floats(0, 1, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
        ),
        min_size=1,
        max_size=120,
    )
)
def test_property_rtree_vs_oracle_under_op_sequences(ops):
    rtree = RTreeIndex(max_entries=4)
    oracle = BruteForceIndex()
    live: list[int] = []
    next_id = 0
    for op, x, y in ops:
        if op == "insert" or not live:
            rtree.insert_point(next_id, Point(x, y))
            oracle.insert_point(next_id, Point(x, y))
            live.append(next_id)
            next_id += 1
        elif op == "remove":
            victim = live.pop(int(x * len(live)) % len(live))
            rtree.remove(victim)
            oracle.remove(victim)
        else:
            # Nudge: a point inside the victim's leaf MBR (the in-place
            # replace path); coincident points make exact ties.
            victim = live[int(x * len(live)) % len(live)]
            leaf = rtree._leaf_of[victim]
            mbr = leaf.mbr
            p = Point(
                min(mbr.x_min + y * mbr.width, mbr.x_max),
                min(mbr.y_min + (1 - y) * mbr.height, mbr.y_max),
            )
            rtree.insert_point(victim, p)
            oracle.insert_point(victim, p)
            assert rtree._leaf_of[victim] is leaf
    rtree.check_invariants()
    if live:
        k = min(3, len(live))
        for q in (Point(0.5, 0.5), Point(0.0, 0.0)):
            assert rtree.k_nearest(q, k) == oracle.k_nearest(q, k)
            assert rtree.k_nearest_by_max_distance(q, k) == (
                oracle.k_nearest_by_max_distance(q, k)
            )
        region = Rect(0.25, 0.25, 0.75, 0.75)
        assert set(rtree.range_search(region)) == set(oracle.range_search(region))
