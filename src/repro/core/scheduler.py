"""The ETI Resource Distributor's Scheduler.

A policy-free Earliest Deadline First enforcer (section 4.2):

* Threads with unused granted CPU this period form the **TimeRemaining**
  queue; threads that used their allocation or declared themselves done
  form the **TimeExpired** queue, a subset of which — those that ran out
  of time with work left, or explicitly asked — is **OvertimeRequested**.
  All queues are deadline-ordered.  The Idle thread is always on
  OvertimeRequested.
* On a context switch the Scheduler takes the head of TimeRemaining; if
  that queue is empty and new grants are pending it calls back to the
  Resource Manager for them (so adding a task can never disturb an
  admitted task); finally it takes the head of OvertimeRequested.
* The timer interrupt is set for the earlier of (1) the end of the
  running thread's grant for this period and (2) the beginning of a new
  period for another thread whose next-period end precedes the running
  thread's period end.
* Small-overlap override: when the remaining allocation past such a
  boundary is smaller than a context-switch-scale threshold, the thread
  is allowed to finish rather than being preempted twice.
* Grant decreases/removals are applied at the affected thread's next
  period boundary immediately; increases and new threads wait for
  unallocated CPU time.

Rule (2) and the timer for unallocated time (overtime or Idle) both read
one lazy-deletion min-heap of *fresh-allocation boundaries*, fed only by
the kernel's period-open hook: each open pushes ``(deadline, tid,
period_index, thread)``, plus the same keyed by ``period_start`` when
the period is postponed past now.  An entry is checked on read against
the thread's current ``period_index`` and fresh-allocation time.  Dead
entries are dropped; entries that are only out for now (a blocked
thread, a removal pending at the boundary, a deadline behind a
postponed start) are set aside and pushed back.  Rule (2) walks entries
in key order only while the key is below the running thread's limit;
the unallocated timer takes the first valid entry.  A dispatch thus
costs O(log n) per entry it touches: the live boundaries before the
limit, entries set aside there, and dead entries, each popped once.
It no longer visits every periodic thread.

The Scheduler communicates only with the Resource Manager — never with
the Policy Box, users, or applications.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro import units
from repro.core.grant_control import GrantSetResult
from repro.core.grants import Grant, GrantSet
from repro.core.kernel import Kernel
from repro.core.threads import SimThread, ThreadKind, ThreadState


def _edf_key(thread: SimThread) -> tuple[int, int]:
    """Deadline order with a stable tid tie-break."""
    return (thread.deadline, thread.tid)


def _same_grant(a: Grant, b: Grant) -> bool:
    """Do two grants promise the same allocation?

    The scheduler's reaction to a grant depends only on its entry
    identity and its (cpu, period) shape, so that is what "unchanged"
    means for the notify diff.
    """
    return a is b or (
        a.entry is b.entry and a.cpu_ticks == b.cpu_ticks and a.period == b.period
    )


class RDScheduler:
    """The Resource Distributor's EDF scheduler policy."""

    #: Opts in to the kernel's overtime slice continuation.  On
    #: unallocated time ``pick`` takes the earliest-deadline thread on
    #: OvertimeRequested, and a thread that just declared itself done
    #: with overtime stays there; so until a boundary, event, wake,
    #: activation or reschedule intervenes, re-picking returns the same
    #: thread and ``timer_for`` the same stop.
    continues_overtime = True

    def __init__(self, kernel: Kernel, overlap_override_ticks: int | None = None) -> None:
        self.kernel = kernel
        self.overlap_override_ticks = (
            kernel.machine.overlap_override_ticks
            if overlap_override_ticks is None
            else overlap_override_ticks
        )
        #: Grants awaiting unallocated CPU time: tid -> Grant.
        self._pending_activation: dict[int, Grant] = {}
        #: Count of Resource Manager callbacks taken at unallocated time.
        self.activation_count = 0
        #: Incremental EDF ready-heap of (deadline, tid, thread) entries.
        #: One entry is pushed per period open; entries whose deadline no
        #: longer matches the thread's are stale and discarded lazily on
        #: pop, so no heap surgery is ever needed on grant changes.
        self._ready_heap: list[tuple[int, int, SimThread]] = []
        #: Lazy min-heap of (boundary, tid, period_index, thread): the
        #: times at which threads next receive a fresh allocation.  One
        #: or two entries are pushed per period open and validated on
        #: read (see :meth:`_first_boundary`).
        self._boundary_heap: list[tuple[int, int, int, SimThread]] = []
        #: The grant set delivered by the last ``notify_grant_set`` call,
        #: diffed against to skip threads whose grant did not change.
        self._last_notified: GrantSet | None = None
        #: Threads with a scheduler-applied pending boundary change
        #: (decrease/removal, or an activated increase).  The legacy full
        #: rebuild re-asserted these on every notification; the diff must
        #: therefore always revisit them even when their grant is
        #: unchanged.
        self._inflight: set[int] = set()
        kernel.bind_policy(self)
        # Threads that started periods before this policy was bound (test
        # harnesses drive start_first_period directly) never saw the
        # period-open hook; seed both heaps with them.
        for thread in kernel.periodic_threads():
            if thread.in_period:
                self.on_period_open(thread)

    # -- kernel period hook ---------------------------------------------------

    def on_period_open(self, thread: SimThread) -> None:
        """A period just opened: push the thread's fresh deadline and
        its fresh-allocation boundaries.

        Called by the kernel from ``start_first_period`` and period
        rollover.  Old entries for the thread become stale (its deadline
        and period index moved) and are discarded when they surface at
        a heap head.
        """
        heappush(self._ready_heap, (thread.deadline, thread.tid, thread))
        boundaries = self._boundary_heap
        heappush(
            boundaries, (thread.deadline, thread.tid, thread.period_index, thread)
        )
        if thread.period_start > self.kernel.now:
            heappush(
                boundaries,
                (thread.period_start, thread.tid, thread.period_index, thread),
            )

    # -- Resource Manager interface ------------------------------------------

    def notify_grant_set(self, result: GrantSetResult) -> None:
        """Receive a new grant set from the Resource Manager.

        Decreases and removals take effect at each affected thread's
        next period boundary, immediately; increases and first grants
        wait for unallocated time ("the next time there is unallocated
        CPU time, the Scheduler makes a callback to the Resource Manager
        to get the new grant information").
        """
        prof = self.kernel.prof
        if prof:
            prof.begin("sched.notify")
        grant_set = result.grant_set
        previous = self._last_notified
        pending = self._pending_activation
        # Diff: only threads whose grant actually changed need their
        # pending state recomputed, plus threads still in flight — ones
        # with a pending boundary change or an activation awaiting
        # unallocated time, whose state the legacy full rebuild
        # re-asserted on every call.
        work = set(self._inflight)
        work.update(pending)
        if result.changed is not None and previous is not None:
            # Fast path: the controller told us exactly which threads got
            # a new Grant object.  Membership changes (appearances and
            # disappearances) are the symmetric difference of the id
            # sets — dict-view set ops at C speed.  Reappearances matter
            # even when the cached Grant object is identical, because a
            # thread that left and returned needs its pending state
            # re-seeded.
            work.update(result.changed)
            work.update(previous.ids() ^ grant_set.ids())
        else:
            for tid, grant in grant_set.items():
                old = None if previous is None else previous.get(tid)
                if old is None or not _same_grant(old, grant):
                    work.add(tid)
            if previous is not None:
                for tid, _ in previous.items():
                    if tid not in grant_set:
                        work.add(tid)
        threads = self.kernel.threads
        for tid in sorted(work):
            thread = threads.get(tid)
            if (
                thread is None
                or thread.kind is not ThreadKind.PERIODIC
                or thread.state is ThreadState.EXITED
            ):
                pending.pop(tid, None)
                self._inflight.discard(tid)
                continue
            new = grant_set.get(tid)
            pending.pop(tid, None)
            if thread.in_period:
                assert thread.grant is not None
                if new is None:
                    thread.pending_grant = None
                    thread.has_pending_change = True
                    self._inflight.add(tid)
                elif new.entry is thread.grant.entry:
                    thread.pending_grant = None
                    thread.has_pending_change = False
                    self._inflight.discard(tid)
                elif new.rate <= thread.grant.rate:
                    thread.pending_grant = new
                    thread.has_pending_change = True
                    self._inflight.add(tid)
                else:
                    pending[tid] = new
                    self._inflight.discard(tid)
            else:
                self._inflight.discard(tid)
                if new is not None:
                    pending[tid] = new
        self._last_notified = grant_set
        self.kernel.request_reschedule()
        if prof:
            prof.end("sched.notify")

    @property
    def has_pending_activation(self) -> bool:
        return bool(self._pending_activation)

    def _activate(self, now: int) -> None:
        """The unallocated-time callback: start new grants."""
        self.activation_count += 1
        prof = self.kernel.prof
        if prof:
            prof.begin("sched.activate")
        pending, self._pending_activation = self._pending_activation, {}
        obs = self.kernel.obs
        if obs:
            obs.emit_activation(now, len(pending))
        # tid order, matching the legacy rebuild (which walked threads in
        # creation order); the persistent pending dict accretes entries
        # across notifications in arbitrary order.
        for tid, grant in sorted(pending.items()):
            thread = self.kernel.threads.get(tid)
            if thread is None or thread.state is ThreadState.EXITED:
                continue
            if thread.in_period:
                # An increase for a running thread: applies at its next
                # period boundary, so the grant never changes mid-period.
                thread.pending_grant = grant
                thread.has_pending_change = True
                self._inflight.add(tid)
            else:
                # A new thread or a quiescent thread waking up: its first
                # period starts now, in time that would otherwise have
                # been unallocated.
                self.kernel.start_first_period(thread, grant, now)
        if prof:
            prof.end("sched.activate")

    # -- queue views -----------------------------------------------------------

    def time_remaining_queue(self, now: int) -> list[SimThread]:
        return sorted(
            (
                t
                for t in self.kernel.periodic_threads()
                if t.eligible_time_remaining(now)
            ),
            key=_edf_key,
        )

    def overtime_queue(self, now: int) -> list[SimThread]:
        return sorted(
            (t for t in self.kernel.periodic_threads() if t.eligible_overtime(now)),
            key=_edf_key,
        )

    # -- kernel policy interface ---------------------------------------------------

    def _ready_head(self, now: int) -> SimThread | None:
        """Earliest-deadline thread eligible for TimeRemaining, or None.

        Lazy heap maintenance: entries whose deadline no longer matches
        their thread (a later period opened), or whose thread retired,
        exited, or spent its allocation for the period, are discarded —
        the next period-open push resurrects the thread.  Entries that
        are only *temporarily* ineligible (blocked, or a postponed
        period that has not begun) are set aside and pushed back.
        """
        heap = self._ready_heap
        deferred: list[tuple[int, int, SimThread]] | None = None
        head: SimThread | None = None
        while heap:
            deadline, tid, thread = heap[0]
            if (
                thread.deadline != deadline
                or not thread.in_period
                or thread.state is ThreadState.EXITED
                or thread.remaining <= 0
                or thread.declared_done
            ):
                heappop(heap)
                continue
            if thread.state is not ThreadState.ACTIVE or thread.period_start > now:
                if deferred is None:
                    deferred = []
                deferred.append(heappop(heap))
                continue
            head = thread
            break
        if deferred:
            for entry in deferred:
                heappush(heap, entry)
        return head

    def pick(self, now: int) -> SimThread:
        head = self._ready_head(now)
        if head is None and self._pending_activation:
            self._activate(now)
            head = self._ready_head(now)
        if head is not None:
            return head
        best: SimThread | None = None
        for thread in self.kernel.periodic_threads():
            if thread.eligible_overtime(now) and (
                best is None or _edf_key(thread) < _edf_key(best)
            ):
                best = thread
        return best if best is not None else self.kernel.idle

    def timer_for(self, thread: SimThread, now: int) -> int:
        if thread.is_idle or not thread.eligible_time_remaining(now):
            return self._unallocated_timer(thread, now)
        assert thread.grant is not None
        grant_end = now + thread.remaining
        limit = min(grant_end, thread.deadline)
        boundary = self._earliest_preempting_boundary(thread, now, limit)
        if boundary is not None:
            if grant_end - boundary <= self.overlap_override_ticks:
                # Small-overlap override: finish the nearly-done grant
                # instead of paying two context switches.
                return limit
            return boundary
        return limit

    def _unallocated_timer(self, thread: SimThread, now: int) -> int:
        """Timer while running on unallocated time (overtime or idle):
        any thread's fresh allocation preempts."""
        stop = units.INFINITE
        if not thread.is_idle and thread.in_period:
            stop = thread.deadline
        boundary = self._first_boundary(now, stop, None)
        return stop if boundary is None else boundary

    def _fresh_allocation_time(self, thread: SimThread, now: int) -> int | None:
        """When ``thread`` next receives a fresh allocation, if ever."""
        if thread.state is not ThreadState.ACTIVE or not thread.in_period:
            return None
        if thread.period_start > now:
            return thread.period_start  # postponed period about to begin
        if thread.has_pending_change and thread.pending_grant is None:
            return None  # grant being removed at the boundary
        return thread.deadline

    def _next_deadline_after(self, thread: SimThread, now: int) -> int:
        """The deadline the thread will have after its next boundary."""
        if thread.period_start > now:
            return thread.deadline
        period = thread.grant.period if thread.grant is not None else units.INFINITE
        if thread.has_pending_change and thread.pending_grant is not None:
            period = thread.pending_grant.period
        return thread.deadline + thread.postpone_next + period

    def _earliest_preempting_boundary(
        self, thread: SimThread, now: int, limit: int
    ) -> int | None:
        """Rule (2): the beginning of a new period for another thread
        whose next-period end precedes the running thread's period end."""
        return self._first_boundary(now, limit, thread)

    def _first_boundary(
        self, now: int, limit: int, running: SimThread | None
    ) -> int | None:
        """The earliest fresh-allocation boundary below ``limit``.

        With ``running`` set, only rule (2) boundaries count: another
        thread's, strictly after ``now``, whose next deadline precedes
        ``running``'s.  Lazy heap maintenance: an entry is dead once
        its thread opened a later period, retired or exited, or once a
        postponed start it stands for has passed — the next period-open
        push covers the thread again.  A live entry whose key is not the
        thread's fresh-allocation time right now (blocked, removal
        pending, or a deadline behind a postponed start), or which
        ``running`` rejects, is set aside and pushed back.
        """
        heap = self._boundary_heap
        deferred: list[tuple[int, int, int, SimThread]] | None = None
        found: int | None = None
        while heap and heap[0][0] < limit:
            key, _, index, thread = heap[0]
            if (
                thread.period_index != index
                or not thread.in_period
                or thread.state is ThreadState.EXITED
                or (key == thread.period_start and key <= now)
            ):
                heappop(heap)
                continue
            if self._fresh_allocation_time(thread, now) == key and (
                running is None
                or (
                    thread is not running
                    and key > now
                    and self._next_deadline_after(thread, now) < running.deadline
                )
            ):
                found = key
                break
            if deferred is None:
                deferred = []
            deferred.append(heappop(heap))
        if deferred:
            for entry in deferred:
                heappush(heap, entry)
        return found

    def snapshot(self, now: int) -> dict:
        """Debug view of the scheduler's queues at ``now``.

        Mirrors the paper's description: the deadline-ordered
        TimeRemaining queue, the TimeExpired set, the OvertimeRequested
        subset, and any grants awaiting unallocated time.
        """
        remaining = self.time_remaining_queue(now)
        overtime = self.overtime_queue(now)
        expired = [
            t
            for t in self.kernel.periodic_threads()
            if t.state is ThreadState.ACTIVE
            and t.period_started(now)
            and not t.eligible_time_remaining(now)
        ]
        return {
            "now": now,
            "time_remaining": [(t.tid, t.name, t.deadline, t.remaining) for t in remaining],
            "time_expired": [(t.tid, t.name, t.deadline) for t in expired],
            "overtime_requested": [(t.tid, t.name, t.deadline) for t in overtime],
            "pending_activation": sorted(self._pending_activation),
        }

    def preemption_imminent(self, thread: SimThread, now: int) -> bool:
        """Would the scheduler hand the CPU to a different thread now?
        Used only to decide whether a grace period is worth starting."""
        if self._pending_activation:
            return True
        for other in self.kernel.periodic_threads():
            if other is thread:
                continue
            if other.eligible_time_remaining(now):
                if not thread.eligible_time_remaining(now):
                    return True
                if _edf_key(other) < _edf_key(thread):
                    return True
        return False
