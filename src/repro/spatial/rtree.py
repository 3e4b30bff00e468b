"""A from-scratch dynamic R-tree with best-first kNN and STR bulk loading.

This is the "traditional location-based database server" index that the
privacy-aware query processor plugs into: Guttman-style insertion with
quadratic node splitting, deletion with tree condensation and orphan
re-insertion, in-place (bottom-up) replacement of an entry that stays
inside its leaf's MBR, Sort-Tile-Recursive (STR) packing for bulk loads,
recursive range search, and best-first (priority queue) k-nearest-neighbor
search using min-distance lower bounds — plus a branch-and-bound variant
of the pessimistic max-distance NN needed for private filter selection.
"""

from __future__ import annotations

import heapq
import itertools
import math

from repro.geometry import Point, Rect
from repro.spatial.index import SpatialIndex

__all__ = ["RTreeIndex"]


class _Node:
    """One R-tree node.

    Leaves hold ``(oid, rect)`` entry tuples; internal nodes hold child
    ``_Node`` objects.  ``mbr`` is the minimum bounding rectangle of the
    contents and is kept tight by the maintenance paths.
    """

    __slots__ = ("leaf", "children", "entries", "mbr", "parent")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.children: list[_Node] = []
        self.entries: list[tuple[object, Rect]] = []
        self.mbr: Rect | None = None
        self.parent: _Node | None = None

    def rects(self) -> list[Rect]:
        if self.leaf:
            return [rect for _oid, rect in self.entries]
        return [child.mbr for child in self.children if child.mbr is not None]

    def recompute_mbr(self) -> None:
        self.mbr = _union(self.rects())

    def count(self) -> int:
        return len(self.entries) if self.leaf else len(self.children)


def _union(rects: list[Rect]) -> Rect | None:
    """The minimum bounding rectangle of ``rects`` (``None`` for none)."""
    if not rects:
        return None
    return Rect(
        min(r.x_min for r in rects),
        min(r.y_min for r in rects),
        max(r.x_max for r in rects),
        max(r.y_max for r in rects),
    )


def _enlargement(mbr: Rect, rect: Rect) -> float:
    """Area growth of ``mbr`` needed to also cover ``rect``."""
    return mbr.union(rect).area - mbr.area


class RTreeIndex(SpatialIndex):
    """Dynamic R-tree over ``(oid, Rect)`` entries.

    Parameters
    ----------
    max_entries:
        Node capacity ``M``; a split occurs at ``M + 1``.
    min_entries:
        Minimum fill ``m``; defaults to ``ceil(0.4 * M)`` as Guttman
        recommends.
    """

    def __init__(self, max_entries: int = 16, min_entries: int | None = None) -> None:
        super().__init__()
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = (
            min_entries if min_entries is not None else math.ceil(0.4 * max_entries)
        )
        if not 1 <= self.min_entries <= self.max_entries // 2:
            raise ValueError("min_entries must be in [1, max_entries // 2]")
        self._root = _Node(leaf=True)
        self._leaf_of: dict[object, _Node] = {}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _clear_impl(self) -> None:
        self._root = _Node(leaf=True)
        self._leaf_of = {}

    def _insert_impl(self, oid: object, rect: Rect) -> None:
        leaf = self._choose_leaf(self._root, rect)
        leaf.entries.append((oid, rect))
        self._leaf_of[oid] = leaf
        self._handle_overflow_and_adjust(leaf)

    def _remove_impl(self, oid: object, rect: Rect) -> None:
        leaf = self._leaf_of.pop(oid)
        leaf.entries = [(eid, erect) for eid, erect in leaf.entries if eid != oid]
        leaf.recompute_mbr()
        self._condense(leaf)

    def _replace_impl(self, oid: object, old: Rect, new: Rect) -> bool:
        """Bottom-up update (Lee et al., VLDB 2003): when ``new`` lies
        inside the entry's current leaf MBR, swap the rect in place and
        re-tighten the MBRs above it; the tree shape is unchanged.  Any
        other move falls back to remove plus re-insert."""
        leaf = self._leaf_of[oid]
        mbr = leaf.mbr
        assert mbr is not None
        if not mbr.contains_rect(new, tol=0.0):
            return False
        entries = leaf.entries
        for i, (eid, _rect) in enumerate(entries):
            if eid == oid:
                entries[i] = (oid, new)
                break
        # The leaf MBR can only shrink, and only if ``old`` touched it.
        if (
            old.x_min == mbr.x_min
            or old.y_min == mbr.y_min
            or old.x_max == mbr.x_max
            or old.y_max == mbr.y_max
        ):
            self._tighten_upward(leaf)
        return True

    def bulk_load(self, entries: dict[object, Rect]) -> None:
        """Pack ``entries`` with Sort-Tile-Recursive for a near-optimal tree."""
        self.clear()
        self._entries.update(entries)
        for oid in entries:
            self._assign_seq(oid)
        items = list(entries.items())
        if not items:
            return
        leaves = self._str_pack_leaves(items)
        for leaf in leaves:
            for oid, _rect in leaf.entries:
                self._leaf_of[oid] = leaf
        level = leaves
        while len(level) > 1:
            level = self._str_pack_level(level)
        self._root = level[0]

    def _str_pack_leaves(self, items: list[tuple[object, Rect]]) -> list[_Node]:
        cap = self.max_entries
        num_leaves = math.ceil(len(items) / cap)
        num_slices = math.ceil(math.sqrt(num_leaves))
        per_slice = num_slices * cap
        items = sorted(items, key=lambda it: it[1].center.x)
        leaves: list[_Node] = []
        for s in range(0, len(items), per_slice):
            strip = sorted(items[s : s + per_slice], key=lambda it: it[1].center.y)
            for b in range(0, len(strip), cap):
                node = _Node(leaf=True)
                node.entries = strip[b : b + cap]
                node.recompute_mbr()
                leaves.append(node)
        return leaves

    def _str_pack_level(self, nodes: list[_Node]) -> list[_Node]:
        cap = self.max_entries
        num_parents = math.ceil(len(nodes) / cap)
        num_slices = math.ceil(math.sqrt(num_parents))
        per_slice = num_slices * cap
        nodes = sorted(nodes, key=lambda n: n.mbr.center.x)
        parents: list[_Node] = []
        for s in range(0, len(nodes), per_slice):
            strip = sorted(nodes[s : s + per_slice], key=lambda n: n.mbr.center.y)
            for b in range(0, len(strip), cap):
                parent = _Node(leaf=False)
                parent.children = strip[b : b + cap]
                for child in parent.children:
                    child.parent = parent
                parent.recompute_mbr()
                parents.append(parent)
        return parents

    def _choose_leaf(self, node: _Node, rect: Rect) -> _Node:
        while not node.leaf:
            node = min(
                node.children,
                key=lambda child: (
                    _enlargement(child.mbr, rect),
                    child.mbr.area,
                ),
            )
        return node

    def _handle_overflow_and_adjust(self, node: _Node) -> None:
        while node is not None:
            if node.count() > self.max_entries:
                self._split(node)
            else:
                self._tighten_upward(node)
                return
            node = node.parent if node.parent is not None else None
            if node is None:
                return

    def _tighten_upward(self, node: _Node | None) -> None:
        """Recompute MBRs from ``node`` upward, stopping at the first
        node whose MBR did not change: its ancestors are then tight.
        Callers must leave ``node``'s stale MBR in place for the
        comparison."""
        while node is not None:
            before = node.mbr
            node.recompute_mbr()
            if node.mbr == before:
                return
            node = node.parent

    def _split(self, node: _Node) -> None:
        """Quadratic split of an overflowing node in place."""
        if node.leaf:
            seeds_pool: list[tuple[object, Rect]] = node.entries
            rect_of = lambda item: item[1]  # noqa: E731 - tiny local accessor
        else:
            seeds_pool = node.children  # type: ignore[assignment]
            rect_of = lambda item: item.mbr  # noqa: E731

        # Pick the two seeds wasting the most area when paired.
        worst = float("-inf")
        seed_a, seed_b = 0, 1
        for i, j in itertools.combinations(range(len(seeds_pool)), 2):
            ri, rj = rect_of(seeds_pool[i]), rect_of(seeds_pool[j])
            waste = ri.union(rj).area - ri.area - rj.area
            if waste > worst:
                worst, seed_a, seed_b = waste, i, j

        group_a = [seeds_pool[seed_a]]
        group_b = [seeds_pool[seed_b]]
        mbr_a = rect_of(seeds_pool[seed_a])
        mbr_b = rect_of(seeds_pool[seed_b])
        remaining = [
            item for idx, item in enumerate(seeds_pool) if idx not in (seed_a, seed_b)
        ]
        total = len(seeds_pool)
        while remaining:
            # Force-assign when one group must take everything left to
            # reach minimum fill.
            if len(group_a) + len(remaining) == self.min_entries:
                group_a.extend(remaining)
                for item in remaining:
                    mbr_a = mbr_a.union(rect_of(item))
                break
            if len(group_b) + len(remaining) == self.min_entries:
                group_b.extend(remaining)
                for item in remaining:
                    mbr_b = mbr_b.union(rect_of(item))
                break
            # PickNext: the item with the greatest preference difference.
            best_idx = max(
                range(len(remaining)),
                key=lambda idx: abs(
                    _enlargement(mbr_a, rect_of(remaining[idx]))
                    - _enlargement(mbr_b, rect_of(remaining[idx]))
                ),
            )
            item = remaining.pop(best_idx)
            grow_a = _enlargement(mbr_a, rect_of(item))
            grow_b = _enlargement(mbr_b, rect_of(item))
            if grow_a < grow_b or (grow_a == grow_b and len(group_a) <= len(group_b)):
                group_a.append(item)
                mbr_a = mbr_a.union(rect_of(item))
            else:
                group_b.append(item)
                mbr_b = mbr_b.union(rect_of(item))
        assert len(group_a) + len(group_b) == total

        sibling = _Node(leaf=node.leaf)
        if node.leaf:
            node.entries = group_a
            sibling.entries = group_b
            for oid, _rect in sibling.entries:
                self._leaf_of[oid] = sibling
        else:
            node.children = group_a
            sibling.children = group_b
            for child in sibling.children:
                child.parent = sibling
        node.recompute_mbr()
        sibling.recompute_mbr()

        parent = node.parent
        if parent is None:
            new_root = _Node(leaf=False)
            new_root.children = [node, sibling]
            node.parent = new_root
            sibling.parent = new_root
            new_root.recompute_mbr()
            self._root = new_root
        else:
            # The parent's MBR is left stale on purpose: the caller's
            # split-or-tighten loop recomputes it from here upward.
            parent.children.append(sibling)
            sibling.parent = parent

    def _condense(self, node: _Node) -> None:
        """Remove underfull nodes bottom-up, re-inserting orphans."""
        orphans: list[tuple[object, Rect]] = []
        while node.parent is not None:
            parent = node.parent
            if node.count() < self.min_entries:
                parent.children.remove(node)
                if node.leaf:
                    orphans.extend(node.entries)
                else:
                    orphans.extend(self._collect_entries(node))
            else:
                node.recompute_mbr()
            parent.recompute_mbr()
            node = parent
        # Shrink a root with a single internal child.
        while not self._root.leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._root.parent = None
        if not self._root.leaf and not self._root.children:
            self._root = _Node(leaf=True)
        self._root.recompute_mbr()
        for oid, rect in orphans:
            self._insert_impl(oid, rect)

    def _collect_entries(self, node: _Node) -> list[tuple[object, Rect]]:
        if node.leaf:
            return list(node.entries)
        collected: list[tuple[object, Rect]] = []
        for child in node.children:
            collected.extend(self._collect_entries(child))
        return collected

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _range_impl(self, region: Rect) -> list[object]:
        result: list[object] = []
        if self._root.mbr is None:
            return result
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.mbr is None or not node.mbr.intersects(region):
                continue
            if node.leaf:
                result.extend(
                    oid for oid, rect in node.entries if rect.intersects(region)
                )
            else:
                stack.extend(node.children)
        return result

    def _k_nearest_impl(self, point: Point, k: int) -> list[object]:
        # Best-first search: pop the frontier element with the smallest
        # min-distance; leaf entries popped in this order are exact NNs.
        # Heap keys are (distance, kind, tie): nodes (kind 0) pop before
        # equal-distance entries (kind 1), so by the time an entry is
        # accepted every entry at the same distance is already on the
        # heap, and equal-distance entries pop in insertion order (their
        # tie key is the base-class sequence number) — matching the
        # brute-force oracle exactly even for coincident points.
        counter = itertools.count()
        heap: list[tuple[float, int, int, object]] = []
        if self._root.mbr is not None:
            heapq.heappush(heap, (0.0, 0, next(counter), self._root))
        result: list[object] = []
        while heap and len(result) < k:
            _dist, kind, _tie, payload = heapq.heappop(heap)
            if kind == 1:
                result.append(payload)
                continue
            node: _Node = payload
            if node.leaf:
                for oid, rect in node.entries:
                    heapq.heappush(
                        heap,
                        (
                            rect.min_distance_to_point(point),
                            1,
                            self._seq[oid],
                            oid,
                        ),
                    )
            else:
                for child in node.children:
                    if child.mbr is not None:
                        heapq.heappush(
                            heap,
                            (
                                child.mbr.min_distance_to_point(point),
                                0,
                                next(counter),
                                child,
                            ),
                        )
        return result

    def _k_nearest_by_max_distance_impl(self, point: Point, k: int) -> list[object]:
        """Branch-and-bound pessimistic kNN (k smallest max-distances).

        For any entry inside a node, its max-distance is at least the
        min-distance from the query point to the node MBR, so best-first
        expansion by node min-distance with pruning against the current
        k-th best max-distance is exact.  Ties break by insertion order,
        like every other query.
        """
        counter = itertools.count()
        heap: list[tuple[float, int, _Node]] = []
        if self._root.mbr is not None:
            heapq.heappush(heap, (0.0, next(counter), self._root))
        # Max-heap of the best k so far, as (-dist, -seq, oid).
        best: list[tuple[float, int, object]] = []
        while heap:
            lower, _tie, node = heapq.heappop(heap)
            if len(best) == k and lower > -best[0][0]:
                break
            if node.leaf:
                for oid, rect in node.entries:
                    cand = (-rect.max_distance_to_point(point), -self._seq[oid], oid)
                    if len(best) < k:
                        heapq.heappush(best, cand)
                    elif cand > best[0]:
                        heapq.heapreplace(best, cand)
            else:
                for child in node.children:
                    if child.mbr is None:
                        continue
                    child_lower = child.mbr.min_distance_to_point(point)
                    if len(best) < k or child_lower <= -best[0][0]:
                        heapq.heappush(heap, (child_lower, next(counter), child))
        ordered = sorted(best, key=lambda item: (-item[0], -item[1]))
        return [oid for _neg, _seq, oid in ordered]

    # ------------------------------------------------------------------
    # Diagnostics (used by structural tests)
    # ------------------------------------------------------------------
    def check_invariants(self, strict_fill: bool = False) -> None:
        """Assert structural R-tree invariants; raises AssertionError.

        Every MBR must *equal* the union of its contents, not just cover
        it: the in-place replace is the one write that can shrink an
        entry without a remove, so a stale, too-loose MBR shows up here.

        ``strict_fill`` additionally enforces the ``min_entries`` fill
        factor, which holds after pure dynamic insertion but not after an
        STR bulk load (the tail node of each tile may be underfull — that
        is standard for STR packing and harmless).
        """
        seen: set[object] = set()

        def visit(node: _Node, depth: int, is_root: bool) -> int:
            if not is_root:
                assert node.count() >= 1, "empty non-root node"
                if strict_fill:
                    assert node.count() >= self.min_entries, "underfull node"
            assert node.count() <= self.max_entries, "overfull node"
            if node.leaf:
                for oid, rect in node.entries:
                    assert oid not in seen, f"duplicate oid {oid!r}"
                    seen.add(oid)
                    assert self._leaf_of[oid] is node, "leaf_of map stale"
                assert node.mbr == _union(node.rects()), "leaf MBR not tight"
                return depth
            depths = set()
            for child in node.children:
                assert child.parent is node, "broken parent link"
                depths.add(visit(child, depth + 1, False))
            assert node.mbr == _union(node.rects()), "node MBR not tight"
            assert len(depths) == 1, "leaves at different depths"
            return depths.pop()

        if self._root.mbr is not None:
            visit(self._root, 0, True)
        assert seen == set(self._entries), "entry set mismatch"
