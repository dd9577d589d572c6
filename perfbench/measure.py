"""Summary statistics, output digests and process memory for the benchmark."""

from __future__ import annotations

import hashlib
import math
import random
import resource
import statistics
from fractions import Fraction

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def _rank(p: float, samples: int) -> int:
    """Nearest rank (1-based) of percentile ``p`` among ``samples``."""
    return max(1, math.ceil(Fraction(str(p)) * samples / 100))


def tail_percentile(samples: int) -> float | None:
    """The highest percentile in :data:`PERCENTILES` with at least
    :data:`TAIL_SAMPLES` samples beyond it, or None if there is none."""
    best = None
    for p in PERCENTILES:
        if samples - _rank(p, samples) >= TAIL_SAMPLES:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(p, len(values)) - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_digest(trace) -> str:
    """SHA-256 over a distributor's simulated statistics: every context
    switch, per-(thread, kind) run-segment totals, and every closed
    period's deadline record."""
    h = hashlib.sha256()
    for s in trace.switches:
        h.update(f"s{s.time},{s.from_thread},{s.to_thread},{s.kind.value},{s.cost_ticks};".encode())
    totals: dict[tuple[int, str], int] = {}
    for seg in trace.segments:
        key = (seg.thread_id, seg.kind.value)
        totals[key] = totals.get(key, 0) + seg.end - seg.start
    for (tid, kind), ticks in sorted(totals.items()):
        h.update(f"g{tid},{kind},{ticks};".encode())
    for d in trace.deadlines:
        h.update(
            f"d{d.thread_id},{d.period_index},{d.period_start},{d.deadline},"
            f"{d.granted},{d.delivered},{int(d.missed)},{int(d.voided)};".encode()
        )
    return h.hexdigest()


def combine(*digests: str) -> str:
    return hashlib.sha256("|".join(digests).encode()).hexdigest()


# -- machine speed ------------------------------------------------------------


class _Probe:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def mix(self, other: "_Probe") -> int:
        return (self.key * 31 + other.value) & 0xFFFF


_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(256)}


def probe_work(rounds: int) -> int:
    """Fixed interpreter-bound work shaped like the program's own: small
    objects and tuples made and dropped, method calls, attribute and
    dict reads, tuple comparisons.  Every container it makes is freed
    at once, so the collector's allocation count ends where it began."""
    table = _TABLE
    last = _Probe(1, 2)
    total = 0
    for i in range(rounds):
        probe = _Probe(i & 255, table[i & 255])
        pair = (probe.value, i)
        if pair < (last.value, i):
            total += probe.mix(last)
        else:
            total -= last.mix(probe)
        last = probe
    return total


def ring(size: int) -> list[int]:
    """``size`` indices that chain into one cycle in a fixed shuffled
    order: ``i = ring[i]`` visits every entry once per lap."""
    order = list(range(size))
    random.Random(0).shuffle(order)
    links = [0] * size
    for i, index in enumerate(order):
        links[index] = order[(i + 1) % size]
    return links


def walk_work(links: list[int], steps: int) -> int:
    """Follow ``steps`` links of a :func:`ring`.  Each step reads a
    list slot and an int object at addresses the core cannot predict,
    so the walk runs at the speed of the memory behind the caches.
    It allocates no tracked object, so the collector never sees it."""
    i = total = 0
    for _ in range(steps):
        total += i
        i = links[i]
    return total


class Speed:
    """The host's current interpreter speed, sampled before each timed call.

    A shared host drifts by tens of percent over seconds (other tenants,
    frequency changes), which no run length averages away.  A timing
    sample is therefore scaled by ``reference_ns / t``, where ``t`` is
    the median of the last :attr:`WINDOW` timings of the probe, the
    latest taken just before the sample: host times are reported at the
    speed at which the probe takes exactly ``reference_ns``.

    The probe is :func:`probe_work`.  With ``cold``, it is followed by
    a :func:`walk_work` over a ring larger than the core's caches: work
    that starts on a freshly collected heap (a set-up) waits on memory,
    which tenants slow by other amounts than they slow the interpreter.
    """

    ROUNDS = 1200
    REFERENCE_NS = 1_000_000
    #: Walk steps taking about as long as ``ROUNDS`` of :func:`probe_work`.
    WALK = 10000
    RING = 1 << 16
    COLD_REFERENCE_NS = 2_000_000
    WINDOW = 3

    def __init__(self, clock, cold: bool = False) -> None:
        self._clock = clock
        self._recent: list[int] = []
        self._ring = ring(self.RING) if cold else None
        self._reference = self.COLD_REFERENCE_NS if cold else self.REFERENCE_NS
        self.factor = 1.0

    def _probe(self) -> None:
        probe_work(self.ROUNDS)
        if self._ring is not None:
            walk_work(self._ring, self.WALK)

    def sample(self) -> None:
        """Time the probe once and update :attr:`factor` (the first
        call warms the probe up first)."""
        if not self._recent:
            self._probe()
        start = self._clock()
        self._probe()
        recent = self._recent
        recent.append(self._clock() - start)
        if len(recent) > self.WINDOW:
            del recent[0]
        self.factor = self._reference / statistics.median(recent)

    def scale(self, ns: int) -> float:
        """``ns`` of host time at the reference speed."""
        return ns * self.factor
