"""Reference-speed clock for a shared, noisy host.

On the small shared machines this benchmark runs on, the same
single-threaded code runs up to 1.6x slower for stretches of several
seconds at a time, because of load from other tenants.  A run-to-run
spread that large would hide any regression the bounds in
``BENCHMARK.json`` are meant to catch.  So every timing the benchmark
reports is scaled to a *reference speed*:

* between timed intervals, at most every :data:`PROBE_EVERY_S`, the clock
  times a fixed pure-Python probe (chasing a shuffled ring of indices,
  lookups in a large dict, small-object allocation, a sort --
  the operations the program's own hot paths are made of) with the
  garbage collector off, so the probe never pays for the program's heap;
* a duration measured at wall time ``t`` is multiplied by
  ``REFERENCE_PROBE_S / p(t)``, where ``p(t)`` is the median of the
  probes nearest to ``t``.

A reported millisecond is therefore a millisecond on a machine where the
probe takes :data:`REFERENCE_PROBE_S`.  The probe does not touch the
program, so a change to the program moves the scaled times exactly as it
moves the raw ones.  The output also states the raw speed factor.

A deployment with worker processes spends part of its time waiting on
them, on another core, and host load slows that part unlike the
parent's own work: scaled by the single probe, the same code's ``fleet``
ticks read 15% apart from one hour to the next.  Its clock therefore
times *pairs* -- a probe run here, then one in a partner process that
the clock starts and stops, requested and answered over a pipe -- against
:data:`REFERENCE_PAIR_S`.
"""

from __future__ import annotations

import bisect
import gc
import multiprocessing
import random
import statistics
from array import array
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from time import perf_counter

#: Probe duration on the reference machine (the two-core Intel Xeon host
#: this benchmark was defined on, in its usual state).
REFERENCE_PROBE_S = 0.0035
#: Duration of a probe run here plus one in the partner process on the
#: reference machine.
REFERENCE_PAIR_S = 0.008
#: Minimum wall time between two probe samples.
PROBE_EVERY_S = 0.2
#: Probes on each side of a timestamp that set its scale.
NEIGHBOURS = 2

_RING = 100_000
_STEPS = 6_000
_OBJECTS = 1_200


class _Node:
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value


class _Probe:
    """The probe's working set and the fixed work it does over it."""

    def __init__(self) -> None:
        rng = random.Random(0)
        # Flat arrays and a dict of floats: a working set the garbage
        # collector never traverses, so it cannot slow the program down.
        order = list(range(_RING))
        rng.shuffle(order)
        self._next = array("l", [0] * _RING)
        for a, b in zip(order, order[1:] + order[:1]):
            self._next[a] = b
        self._values = array("d", [rng.random() for _ in range(_RING)])
        self._table = {i: rng.random() for i in range(_RING)}
        self._keys = [rng.randrange(_RING) for _ in range(_STEPS)]
        for _ in range(3):  # first-touch warm-up, not kept
            self.run()

    def run(self) -> float:
        step, values, table = self._next, self._values, self._table
        total = 0.0
        position = 0
        for _ in range(_STEPS):
            total += values[position]
            position = step[position]
        for key in self._keys:
            total += table[key]
        made = [_Node(i * 0.001) for i in range(_OBJECTS)]
        made.sort(key=lambda n: (n.value - 0.5) ** 2)
        buckets: dict[int, float] = {}
        for i, item in enumerate(made):
            buckets[i % 97] = max(buckets.get(i % 97, 0.0), item.value)
        return total + len(buckets)


def _partner_loop(conn: Connection, parent_end: Connection) -> None:
    """The partner process: one probe run per request, until told to stop
    (or until the parent's end of the pipe closes)."""
    # The fork copied the parent's end too; without closing it here, a
    # parent that dies would leave this loop waiting forever.
    parent_end.close()
    probe = _Probe()
    gc.disable()
    while conn.recv():
        probe.run()
        conn.send(True)


class Clock:
    """Probe samples over a run, and the scale they imply at any time.

    With ``partner`` the clock also starts a partner process, and one
    sample is a probe run here followed by one in the partner, requested
    and answered over a pipe: the speed of a deployment whose parent
    waits on worker processes.  Call :meth:`close` to stop the partner.
    """

    def __init__(self, partner: bool = False) -> None:
        self._probe = _Probe()
        self.paired = partner
        self.reference = REFERENCE_PAIR_S if partner else REFERENCE_PROBE_S
        self.partner: BaseProcess | None = None
        if partner:
            # Fork, not spawn: a spawned process makes multiprocessing
            # start its resource-tracker process, which nothing stops
            # and which outlives the benchmark.
            context = multiprocessing.get_context("fork")
            self._conn, child = context.Pipe()
            self.partner = context.Process(
                target=_partner_loop, args=(child, self._conn), daemon=True
            )
            self.partner.start()
            child.close()
            try:
                for _ in range(3):  # the partner's first requests, not kept
                    self._pair()
            except BaseException:
                self.close()
                raise
        self.times: list[float] = []
        self.durations: list[float] = []

    def _pair(self) -> None:
        self._probe.run()
        self._conn.send(True)
        self._conn.recv()

    def close(self) -> None:
        """Stop the partner process, if any, and wait until it has ended."""
        if self.partner is None:
            return
        try:
            self._conn.send(False)
        except OSError:
            pass
        self.partner.join(5)
        if self.partner.is_alive():
            self.partner.kill()
            self.partner.join()
        self._conn.close()
        self.partner = None

    def sample(self) -> None:
        """Time one probe now.  A single run, not the fastest of several:
        the slow stretches are exactly what the scale must follow."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            if self.partner is None:
                self._probe.run()
            else:
                self._pair()
            end = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append(start)
        self.durations.append(end - start)

    def maybe_sample(self) -> None:
        """Time a probe if the last one is older than PROBE_EVERY_S."""
        if not self.times or perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.sample()

    def scale_at(self, when: float) -> float:
        """Factor turning a duration measured at ``when`` into reference
        seconds."""
        index = bisect.bisect(self.times, when)
        window = self.durations[max(0, index - NEIGHBOURS) : index + NEIGHBOURS]
        return self.reference / statistics.median(window)
