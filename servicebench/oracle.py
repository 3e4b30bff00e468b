"""Brute-force correctness oracle over the benchmark's own mirror of the
world.

The benchmark knows every exact position it handed the deployment, so
it keeps them in numpy arrays and checks each answer against a full scan.
All checks run outside the timed intervals.  Distances are compared with
a small tolerance, so a tie or a point on a range boundary never fails a
correct answer.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import Rect

TOL = 1e-9


class World:
    """Exact user and target positions plus the users' privacy profiles."""

    def __init__(
        self,
        users_xy: np.ndarray,
        k: np.ndarray,
        a_min: np.ndarray,
        targets_xy: np.ndarray,
    ) -> None:
        self.users = users_xy.copy()
        self.k = k
        self.a_min = a_min
        self.targets = targets_xy.copy()

    # ------------------------------------------------------------------
    # Mirror maintenance
    # ------------------------------------------------------------------
    def move_user(self, uid: int, xy: np.ndarray) -> None:
        self.users[uid] = xy

    def move_target(self, index: int, xy: np.ndarray) -> None:
        self.targets[index] = xy

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def _target_distances(self, uid: int) -> np.ndarray:
        return np.hypot(*(self.targets - self.users[uid]).T)

    def nearest_ok(self, uid: int, answer: int) -> bool:
        """``answer`` (a target index) is a nearest public target."""
        dist = self._target_distances(uid)
        return bool(dist[answer] <= dist.min() + TOL)

    def k_nearest_ok(self, uid: int, answer: list[int], k: int) -> bool:
        """``answer`` lists the ``k`` nearest public targets, nearest first."""
        dist = self._target_distances(uid)
        expected = np.sort(dist)[: min(k, len(dist))]
        got = dist[answer] if answer else np.empty(0)
        return len(got) == len(expected) and bool(
            np.all(np.abs(got - expected) <= TOL)
        )

    def within_ok(self, uid: int, answer: list[int], radius: float) -> bool:
        """``answer`` is exactly the set of targets within ``radius``."""
        dist = self._target_distances(uid)
        got = np.zeros(len(dist), dtype=bool)
        got[answer] = True
        disagree = got != (dist <= radius)
        return bool(np.all(np.abs(dist[disagree] - radius) <= TOL))

    def buddy_included(self, uid: int, candidates: list[int]) -> bool:
        """Inclusiveness over private data: the user actually nearest to
        ``uid`` (by exact positions) is among the candidates."""
        dist = np.hypot(*(self.users - self.users[uid]).T)
        dist[uid] = np.inf
        nearest = np.flatnonzero(dist <= dist.min() + TOL)
        return bool(np.isin(nearest, candidates).any())

    def cloak_ok(self, uid: int, region: Rect) -> bool:
        """``region`` contains the user and meets their profile: at least
        ``k`` users inside by exact count, and an area of at least
        ``A_min``."""
        x, y = self.users[uid]
        if not (
            region.x_min - TOL <= x <= region.x_max + TOL
            and region.y_min - TOL <= y <= region.y_max + TOL
        ):
            return False
        xs, ys = self.users[:, 0], self.users[:, 1]
        inside = np.count_nonzero(
            (xs >= region.x_min - TOL)
            & (xs <= region.x_max + TOL)
            & (ys >= region.y_min - TOL)
            & (ys <= region.y_max + TOL)
        )
        return bool(
            inside >= self.k[uid] and region.area >= self.a_min[uid] * (1 - TOL)
        )
