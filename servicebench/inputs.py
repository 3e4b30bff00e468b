"""Seeded input generation for the service benchmark.

Every input a run replays is generated here from the ``--seed``
argument, before any timing starts; the deployment under test receives
only these inputs.  An input set is a dict of numpy arrays, so one
SHA-256 over their bytes (:func:`digest`) identifies the traffic a run
replayed, and two commits that print the same digest saw the same
inputs.

Two traffic shapes:

* :func:`commute_inputs` -- a commuter trace (``build_commuter_scenario``)
  in which every user reports every tick, the standing queries some
  users hold, the public targets that move each tick, and a short stream
  of ad-hoc client operations (*probes*) issued before each tick.
* :func:`lookup_inputs` -- a large static population and one client
  issuing a Zipf-skewed stream of private queries and location updates.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.geometry import Rect
from repro.workloads import build_commuter_scenario, uniform_points, uniform_profiles

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

# Operation codes of the ad-hoc client stream, in the order of MIX.
NN_PUBLIC, KNN_PUBLIC, RANGE_PUBLIC, NN_PRIVATE, UPDATE = range(5)
OP_NAMES = ("nn_public", "knn_public", "range_public", "nn_private", "update")
#: The ad-hoc operation mix: 40% NN, 20% kNN and 20% range queries over
#: public targets, 10% buddy (NN over private data), 10% updates.
MIX = (0.4, 0.2, 0.2, 0.1, 0.1)
KNN_K = 5
#: Expected number of public targets inside a range query's radius.
RANGE_EXPECTED_HITS = 3.0
#: Standard deviation of an ad-hoc location update's displacement.
UPDATE_STEP = 0.002
#: Standard deviation of a moving public target's per-tick displacement.
TARGET_STEP = 0.01
#: The commuters' privacy profiles: ``k`` and the ``A_min`` fraction of
#: the space are spread evenly over these ranges (see _even_quantiles).
COMMUTE_K_RANGE = (1, 50)
COMMUTE_A_MIN_FRACTIONS = (0.00005, 0.0001)


@dataclass
class Inputs:
    """Generated arrays plus the scalars derived from them."""

    arrays: dict[str, np.ndarray]
    radius: float

    def __getitem__(self, key: str) -> np.ndarray:
        return self.arrays[key]


def digest(inputs: Inputs) -> str:
    """SHA-256 over every input array (name, dtype, shape and bytes)."""
    sha = hashlib.sha256()
    for name in sorted(inputs.arrays):
        array = np.ascontiguousarray(inputs.arrays[name])
        sha.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
        sha.update(array.tobytes())
    sha.update(repr(inputs.radius).encode())
    return sha.hexdigest()


def _range_radius(num_targets: int) -> float:
    return math.sqrt(RANGE_EXPECTED_HITS / (math.pi * num_targets))


def _clip(xy: np.ndarray) -> np.ndarray:
    return np.clip(xy, 0.0, 1.0)


def _even_quantiles(drawn: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The values of ``drawn`` replaced, rank for rank, by ``n`` evenly
    spaced quantiles of the uniform distribution over ``[lo, hi]``.

    Which user is more private than which stays the scenario's seeded
    draw, but the population's spread of profiles no longer depends on
    the seed.  With a few hundred plain draws the mean ``k`` alone moves
    by several percent from seed to seed, and a run's query times move
    with it."""
    n = len(drawn)
    even = lo + (np.arange(n) + 0.5) / n * (hi - lo)
    out = np.empty(n)
    out[np.argsort(drawn, kind="stable")] = even
    return out


def _stratified(
    rng: np.random.Generator, uids: np.ndarray, ks: np.ndarray, count: int
) -> np.ndarray:
    """``count`` of ``uids``, one drawn from each of ``count`` equal strata
    of their privacy level ``k``.  The cost of a standing query grows with
    its holder's cloak, so a plain draw of a few holders would make the
    seed, not the program, decide much of a run's tick time."""
    strata = np.array_split(uids[np.argsort(ks, kind="stable")], count)
    return np.sort([rng.choice(stratum) for stratum in strata])


def commute_inputs(
    seed: int,
    num_users: int,
    num_targets: int,
    ticks: int,
    burn_in: int,
    probes_per_tick: int,
    knn_share: float,
    buddy_share: float,
    target_move_share: float,
) -> Inputs:
    """A commuter trace of ``ticks`` ticks after ``burn_in`` unrecorded
    steps (so the home/work tide has left its all-at-home start).

    Arrays: ``init_xy`` (users, 2), ``k``/``a_min`` (users,), ``trace_xy``
    (ticks, users, 2) -- every user's position after each tick,
    ``targets_xy``, ``tmove_id``/``tmove_xy`` -- the targets moved in each
    tick and their new positions, ``knn_uids``/``buddy_uids`` -- holders
    of standing queries, and ``probe_op``/``probe_uid``/``probe_xy`` (ticks,
    probes) -- the ad-hoc operations issued before each tick.
    """
    scenario_rng, target_rng, query_rng, probe_rng = np.random.default_rng(
        seed
    ).spawn(4)
    scenario = build_commuter_scenario(
        num_users,
        bounds=UNIT,
        k_range=COMMUTE_K_RANGE,
        a_min_fraction_range=COMMUTE_A_MIN_FRACTIONS,
        seed=scenario_rng,
    )
    for _ in range(burn_in):
        scenario.step()
    init = scenario.positions()
    init_xy = np.array([[init[u].x, init[u].y] for u in range(num_users)])
    trace_xy = np.empty((ticks, num_users, 2))
    for t in range(ticks):
        for update in scenario.step():
            trace_xy[t, update.uid] = (update.point.x, update.point.y)

    targets = uniform_points(num_targets, UNIT, seed=target_rng)
    targets_xy = np.array([[p.x, p.y] for p in targets.values()])
    moved_per_tick = max(1, round(num_targets * target_move_share))
    tmove_id = np.empty((ticks, moved_per_tick), dtype=np.int64)
    tmove_xy = np.empty((ticks, moved_per_tick, 2))
    current = targets_xy.copy()
    for t in range(ticks):
        ids = target_rng.choice(num_targets, moved_per_tick, replace=False)
        current[ids] = _clip(
            current[ids] + target_rng.normal(0.0, TARGET_STEP, (moved_per_tick, 2))
        )
        tmove_id[t] = ids
        tmove_xy[t] = current[ids]

    k_lo, k_hi = COMMUTE_K_RANGE
    ks = np.floor(
        _even_quantiles(np.array([p.k for p in scenario.profiles]), k_lo, k_hi + 1)
    ).astype(np.int64)
    a_mins = UNIT.area * _even_quantiles(
        np.array([p.a_min for p in scenario.profiles]), *COMMUTE_A_MIN_FRACTIONS
    )
    num_knn = max(1, round(num_users * knn_share))
    num_buddy = max(1, round(num_users * buddy_share))
    knn_uids = _stratified(query_rng, np.arange(num_users), ks, num_knn)
    others = np.setdiff1d(np.arange(num_users), knn_uids)
    buddy_uids = _stratified(query_rng, others, ks[others], num_buddy)

    shape = (ticks, probes_per_tick)
    probe_op = probe_rng.choice(len(MIX), size=shape, p=MIX).astype(np.int8)
    probe_uid = probe_rng.integers(0, num_users, size=shape)
    # An ad-hoc update nudges the user from where the trace last put them.
    before = np.concatenate([init_xy[None], trace_xy[:-1]])
    base = before[np.arange(ticks)[:, None], probe_uid]
    probe_xy = _clip(base + probe_rng.normal(0.0, UPDATE_STEP, shape + (2,)))

    return Inputs(
        arrays={
            "init_xy": init_xy,
            "k": ks,
            "a_min": a_mins,
            "trace_xy": trace_xy,
            "targets_xy": targets_xy,
            "tmove_id": tmove_id,
            "tmove_xy": tmove_xy,
            "knn_uids": knn_uids,
            "buddy_uids": buddy_uids,
            "probe_op": probe_op,
            "probe_uid": probe_uid,
            "probe_xy": probe_xy,
        },
        radius=_range_radius(num_targets),
    )


def lookup_inputs(
    seed: int, num_users: int, num_targets: int, ops: int, zipf_exponent: float
) -> Inputs:
    """A static, uniformly placed population with the paper's default
    profiles, plus a stream of ``ops`` ad-hoc operations whose requesting
    users are Zipf-skewed over a seeded ranking of the population.

    Arrays: ``init_xy``, ``k``, ``a_min``, ``targets_xy`` and the stream
    ``op``/``uid``/``xy`` (``xy`` is the new position of an update, NaN
    for queries).
    """
    user_rng, profile_rng, target_rng, stream_rng = np.random.default_rng(
        seed
    ).spawn(4)
    users = uniform_points(num_users, UNIT, seed=user_rng)
    init_xy = np.array([[p.x, p.y] for p in users.values()])
    profiles = uniform_profiles(num_users, UNIT, seed=profile_rng)
    targets = uniform_points(num_targets, UNIT, seed=target_rng)
    targets_xy = np.array([[p.x, p.y] for p in targets.values()])

    op = stream_rng.choice(len(MIX), size=ops, p=MIX).astype(np.int8)
    weights = 1.0 / np.arange(1, num_users + 1) ** zipf_exponent
    ranking = stream_rng.permutation(num_users)
    uid = ranking[stream_rng.choice(num_users, size=ops, p=weights / weights.sum())]
    steps = stream_rng.normal(0.0, UPDATE_STEP, (ops, 2))
    xy = np.full((ops, 2), np.nan)
    current = init_xy.copy()
    for i in np.flatnonzero(op == UPDATE):
        current[uid[i]] = _clip(current[uid[i]] + steps[i])
        xy[i] = current[uid[i]]

    return Inputs(
        arrays={
            "init_xy": init_xy,
            "k": np.array([p.k for p in profiles]),
            "a_min": np.array([p.a_min for p in profiles]),
            "targets_xy": targets_xy,
            "op": op,
            "uid": uid,
            "xy": xy,
        },
        radius=_range_radius(num_targets),
    )
