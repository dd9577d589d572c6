"""Grant-set computation: turning resource lists + policy into grants.

Section 6.3 describes the algorithm:

* **Fast path** (system not overloaded): check whether every thread can
  have its *maximum* resource-list entry; if so, done.  (The paper
  makes this O(1) with a running sum inside the Resource Manager; here
  the request list is rebuilt per recomputation, so the check is a
  Theta(N) sum — same verdicts, documented in EXPERIMENTS.md.)
* **Overloaded**: the Resource Manager asks the Policy Box for a policy
  over the admitted, non-quiescent threads, then *correlates* the policy
  with the actual resource lists in up to three O(N) passes:

  1. For each thread, note the entries just above and below the
     policy-specified QOS; if the sum of the "above" entries fits, done.
  2. Otherwise walk through once more, turning higher entries into lower
     entries until the set fits.  The paper leaves the demotion order
     unspecified; we demote the thread whose selection overshoots its
     policy target the most first (ties against the lowest-ranked), so
     small-but-precious tasks are not sacrificed ahead of large ones.
  3. If substantial resources remain unused, make a third pass looking
     for threads that can use them — capped at each thread's
     policy-sanctioned (pass 1) level, since further slack is the
     Scheduler's OvertimeRequested queue's job, not the policy's.

Exclusive functional units (FFU video scaler, Data Streamer) are
arbitrated during selection: no unit is ever granted to two threads, and
the policy's preferred thread has first claim.  Data Streamer bandwidth
(the paper's §7 future work) is a second budget tracked through every
pass.  Because resource lists and policies are authored independently,
a policy can nominate targets below a thread's minimum entry; demotion
then keeps walking toward the minima — which the admission invariant
guarantees to fit — with an explicit everyone-minimum fallback as the
unconditional backstop to the paper's single-pass convergence claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.grants import Grant, GrantSet
from repro.core.policy_box import Policy, PolicyBox
from repro.core.resource_list import ResourceList
from repro.errors import GrantError

_EPS = 1e-9


@dataclass(frozen=True)
class GrantRequest:
    """One admitted thread's standing request, as grant control sees it."""

    thread_id: int
    policy_id: int
    resource_list: ResourceList
    quiescent: bool = False

    @property
    def min_rate(self) -> float:
        return self.resource_list.minimum.rate

    @property
    def max_rate(self) -> float:
        return self.resource_list.maximum.rate

    @property
    def min_bandwidth(self) -> float:
        return self.resource_list.minimum.bandwidth


@dataclass(frozen=True)
class GrantSetResult:
    """A computed grant set plus how it was reached (for the §6.3 bench)."""

    grant_set: GrantSet
    #: None on the fast path; the policy used otherwise.
    policy: Policy | None
    #: 0 = fast path, 1..3 = which correlation pass produced the final set.
    passes: int
    #: True when even full demotion failed and everyone got their minimum.
    minimum_fallback: bool = False
    #: Exclusive-unit ownership implied by the set: unit -> thread id.
    exclusive_assignment: dict[str, int] = field(default_factory=dict)
    #: Threads whose grant object differs from the previous observed
    #: compute, or None when unknown (the scheduler then falls back to a
    #: full diff).
    changed: frozenset[int] | None = None


class GrantController:
    """Computes grant sets for the Resource Manager."""

    def __init__(
        self,
        capacity: float,
        policy_box: PolicyBox,
        bandwidth_capacity: float = 1.0,
    ) -> None:
        if not 0.0 < capacity <= 1.0:
            raise GrantError(f"capacity must be in (0, 1], got {capacity}")
        if not 0.0 < bandwidth_capacity <= 1.0:
            raise GrantError(
                f"bandwidth capacity must be in (0, 1], got {bandwidth_capacity}"
            )
        self._capacity = capacity
        self._bandwidth = bandwidth_capacity
        self._policy_box = policy_box
        #: Grants reused across recomputes while a thread's selected
        #: entry is unchanged.  ``Grant`` is frozen, so sharing
        #: one instance is safe — and it lets the scheduler's notify
        #: diff discard unchanged threads on the ``a is b`` fast path
        #: instead of comparing fields for the whole population.
        self._grant_cache: dict[int, Grant] = {}
        #: Optional phase profiler; wired by the distributor like obs.
        self.prof = None

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def bandwidth_capacity(self) -> float:
        return self._bandwidth

    def compute(
        self, requests: list[GrantRequest], observe: bool = True
    ) -> GrantSetResult:
        """Compute the grant set for the current task population.

        ``requests`` covers every admitted thread; quiescent threads are
        skipped for grants (their resources flow to the others) but were
        already counted by admission control.

        ``observe=False`` keeps the computation side-effect free (no
        Policy Box counters or telemetry) — used by the sanitizer to
        cross-check memoized results against a fresh computation.
        """
        prof = self.prof
        if prof and observe:
            prof.begin("grant.compute")
            try:
                return self._compute(requests, observe)
            finally:
                prof.end("grant.compute")
        return self._compute(requests, observe)

    def _compute(
        self, requests: list[GrantRequest], observe: bool
    ) -> GrantSetResult:
        active = [r for r in requests if not r.quiescent]
        if not active:
            return GrantSetResult(
                grant_set=GrantSet({}, self._capacity, self._bandwidth),
                policy=None,
                passes=0,
            )
        seen: set[int] = set()
        for request in active:
            if request.thread_id in seen:
                raise GrantError(f"duplicate grant request for thread {request.thread_id}")
            seen.add(request.thread_id)

        fast = self._fast_path(active, observe)
        if fast is not None:
            return fast
        return self._policy_path(active, observe=observe)

    def _grants(
        self, active: list[GrantRequest], selection: dict[int, int] | None, observe: bool
    ) -> tuple[dict[int, Grant], frozenset[int]]:
        """Grant objects for each request's selected entry index (the
        maximum, index 0, when ``selection`` is None), plus the ids
        whose grant differs from the cached one.

        A cached Grant is reused while its entry and index are
        unchanged.  ``observe=False`` reads the cache but never writes
        it, so a side-effect-free compute cannot shift what the next
        real compute reports as changed.
        """
        cache = self._grant_cache
        grants: dict[int, Grant] = {}
        changed: set[int] = set()
        for request in active:
            tid = request.thread_id
            index = 0 if selection is None else selection[tid]
            entry = request.resource_list[index]
            grant = cache.get(tid)
            if grant is None or grant.entry is not entry or grant.entry_index != index:
                grant = Grant(thread_id=tid, entry=entry, entry_index=index)
                if observe:
                    cache[tid] = grant
                changed.add(tid)
            grants[tid] = grant
        if observe and len(cache) > 2 * len(grants) + 32:
            # Drop entries for threads that left the population.
            self._grant_cache = dict(grants)
        return grants, frozenset(changed)

    # -- fast path -----------------------------------------------------------

    def _fast_path(
        self, active: list[GrantRequest], observe: bool
    ) -> GrantSetResult | None:
        """Everyone gets their maximum entry, if that fits in both
        resources without exclusive-unit conflicts."""
        if sum(r.max_rate for r in active) > self._capacity + _EPS:
            return None
        if (
            sum(r.resource_list.maximum.bandwidth for r in active)
            > self._bandwidth + _EPS
        ):
            return None
        owners: dict[str, int] = {}
        for request in active:
            for unit in request.resource_list.maximum.exclusive:
                if unit in owners:
                    return None  # conflict: resolve through the policy path
                owners[unit] = request.thread_id
        grants, changed = self._grants(active, None, observe)
        return GrantSetResult(
            grant_set=GrantSet(grants, self._capacity, self._bandwidth),
            policy=None,
            passes=0,
            exclusive_assignment=owners,
            changed=changed,
        )

    # -- policy correlation ----------------------------------------------------

    def _policy_path(
        self, active: list[GrantRequest], observe: bool = True
    ) -> GrantSetResult:
        policy = self._policy_box.resolve(
            {r.policy_id for r in active}, observe=observe
        )
        targets = {r.thread_id: policy.share_of(r.policy_id) for r in active}

        # Selection order: the policy's exclusive-preference thread first,
        # then by descending target share, then by thread id for
        # determinism.  This order settles exclusive-unit claims.
        def claim_order(request: GrantRequest) -> tuple:
            preferred = request.policy_id == policy.exclusive_preference
            return (not preferred, -targets[request.thread_id], request.thread_id)

        ordered = sorted(active, key=claim_order)
        owners: dict[str, int] = {}
        selection: dict[int, int] = {}

        # Pass 1: entries just above the policy-specified QOS.  A
        # running ``total`` keeps every subsequent pass O(N), as the
        # paper requires.
        total = 0.0
        bw_total = 0.0
        for request in ordered:
            index = self._select_above(request, targets[request.thread_id], owners)
            self._claim(request, index, owners)
            selection[request.thread_id] = index
            total += request.resource_list[index].rate
            bw_total += request.resource_list[index].bandwidth
        passes = 1
        #: Each thread's policy-sanctioned level; pass 3 never exceeds it.
        ceiling = dict(selection)

        def over_budget() -> bool:
            return total > self._capacity + _EPS or bw_total > self._bandwidth + _EPS

        if over_budget():
            # Pass 2: turn higher entries into lower entries.  Demote
            # first the threads whose "above" entry overshoots their
            # policy target the most — they hold the least-entitled
            # resources — breaking ties against the lowest-ranked.
            # Bandwidth overload uses the same order: demotion lowers
            # both dimensions level by level.
            passes = 2
            rank = {r.thread_id: i for i, r in enumerate(ordered)}

            def overshoot(request: GrantRequest) -> float:
                entry = request.resource_list[selection[request.thread_id]]
                return entry.rate - targets[request.thread_id]

            demote_order = sorted(
                ordered, key=lambda r: (-overshoot(r), -rank[r.thread_id])
            )
            for request in demote_order:
                if not over_budget():
                    break
                index = self._select_below(
                    request, targets[request.thread_id], owners, selection[request.thread_id]
                )
                if index != selection[request.thread_id]:
                    entries = request.resource_list
                    old_index = selection[request.thread_id]
                    total += entries[index].rate - entries[old_index].rate
                    bw_total += entries[index].bandwidth - entries[old_index].bandwidth
                    self._release(request, old_index, owners)
                    self._claim(request, index, owners)
                    selection[request.thread_id] = index
            if over_budget():
                # One demotion level may not free enough bandwidth
                # (entries are ordered by CPU rate, not bandwidth); keep
                # demoting toward the minima until both budgets fit.
                for request in demote_order:
                    entries = request.resource_list
                    while over_budget() and selection[request.thread_id] < len(entries) - 1:
                        old_index = selection[request.thread_id]
                        candidates = [
                            i
                            for i in self._candidates(request, owners)
                            if i > old_index
                        ]
                        if not candidates:
                            break
                        index = min(candidates)
                        total += entries[index].rate - entries[old_index].rate
                        bw_total += entries[index].bandwidth - entries[old_index].bandwidth
                        self._release(request, old_index, owners)
                        self._claim(request, index, owners)
                        selection[request.thread_id] = index
                    if not over_budget():
                        break

        fallback = False
        if over_budget():
            # The policy nominated targets below some minimum entries.
            # Fall back to the minimum set, which admission guarantees.
            fallback = True
            owners.clear()
            total = 0.0
            bw_total = 0.0
            for request in ordered:
                index = len(request.resource_list) - 1
                self._claim(request, index, owners)
                selection[request.thread_id] = index
                total += request.resource_list[index].rate
                bw_total += request.resource_list[index].bandwidth

        slack = self._capacity - total
        bw_slack = self._bandwidth - bw_total
        smallest_step = min(
            (
                request.resource_list[i - 1].rate - request.resource_list[i].rate
                for request in active
                for i in range(1, len(request.resource_list))
            ),
            default=float("inf"),
        )
        if passes == 2 and not fallback and slack >= smallest_step - _EPS:
            # Pass 3: hand otherwise-unallocated resources back to
            # demoted threads, best-ranked first — but never beyond the
            # policy-sanctioned (pass 1) level: further slack belongs to
            # the Scheduler's OvertimeRequested queue at run time, not
            # to grants the policy declined to make.
            passes = 3
            for request in ordered:
                if slack <= _EPS:
                    break
                index = self._promote(
                    request,
                    selection[request.thread_id],
                    slack,
                    owners,
                    floor=ceiling[request.thread_id],
                    bw_slack=bw_slack,
                )
                if index != selection[request.thread_id]:
                    entries = request.resource_list
                    old_index = selection[request.thread_id]
                    slack -= entries[index].rate - entries[old_index].rate
                    bw_slack -= entries[index].bandwidth - entries[old_index].bandwidth
                    self._release(request, old_index, owners)
                    self._claim(request, index, owners)
                    selection[request.thread_id] = index

        grants, changed = self._grants(active, selection, observe)
        return GrantSetResult(
            grant_set=GrantSet(grants, self._capacity, self._bandwidth),
            policy=policy,
            passes=passes,
            minimum_fallback=fallback,
            exclusive_assignment=dict(owners),
            changed=changed,
        )

    # -- selection helpers -----------------------------------------------------

    def _candidates(self, request: GrantRequest, owners: dict[str, int]) -> list[int]:
        """Entry indices whose exclusive needs are free (or already ours)."""
        available = []
        for i, entry in enumerate(request.resource_list):
            conflicted = any(
                owners.get(unit, request.thread_id) != request.thread_id
                for unit in entry.exclusive
            )
            if not conflicted:
                available.append(i)
        if not available:
            raise GrantError(
                f"thread {request.thread_id} has no conflict-free entry; minimum "
                f"entries must not require exclusive units"
            )
        return available

    def _select_above(
        self, request: GrantRequest, target: float, owners: dict[str, int]
    ) -> int:
        """The entry just above the policy target (lowest rate >= target),
        or the best entry below it when the target exceeds every level."""
        entries = request.resource_list
        candidates = self._candidates(request, owners)
        above = [i for i in candidates if entries[i].rate >= target - _EPS]
        if above:
            return max(above)  # lowest QOS that still meets the target
        return min(candidates)  # target above all levels: take the best we have

    def _select_below(
        self, request: GrantRequest, target: float, owners: dict[str, int], current: int
    ) -> int:
        """Demotion target: the entry just below the policy target, or the
        minimum entry when nothing sits below the target."""
        entries = request.resource_list
        candidates = [i for i in self._candidates(request, owners) if i >= current]
        below = [i for i in candidates if entries[i].rate < target - _EPS]
        if below:
            return min(below)  # highest QOS under the target
        return max(candidates)  # floor: the minimum entry

    def _promote(
        self,
        request: GrantRequest,
        current: int,
        slack: float,
        owners: dict[str, int],
        floor: int = 0,
        bw_slack: float = 1.0,
    ) -> int:
        """The best entry reachable within the CPU and bandwidth slack,
        no higher (lower index) than ``floor``."""
        entries = request.resource_list
        current_rate = entries[current].rate
        current_bw = entries[current].bandwidth
        for i in self._candidates(request, owners):
            if i < floor:
                continue
            if i >= current:
                break
            if (
                entries[i].rate - current_rate <= slack + _EPS
                and entries[i].bandwidth - current_bw <= bw_slack + _EPS
            ):
                return i
        return current

    def _claim(self, request: GrantRequest, index: int, owners: dict[str, int]) -> None:
        for unit in request.resource_list[index].exclusive:
            holder = owners.get(unit)
            if holder is not None and holder != request.thread_id:
                raise GrantError(
                    f"unit {unit!r} already claimed by thread {holder} while "
                    f"granting thread {request.thread_id}"
                )
            owners[unit] = request.thread_id

    def _release(self, request: GrantRequest, index: int, owners: dict[str, int]) -> None:
        for unit in request.resource_list[index].exclusive:
            if owners.get(unit) == request.thread_id:
                del owners[unit]
