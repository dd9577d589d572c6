"""The simulation kernel: dispatching, accounting, and period rollover.

The kernel plays the role of MMLite's low-level thread machinery: it
drives task generators, charges consumed CPU against grants, applies
context-switch costs, performs period rollover, and delivers grants with
callback/return semantics.  *Which* thread runs and *when* the timer
interrupt fires are delegated to a scheduler policy object — the ETI
Resource Distributor's EDF scheduler (``repro.core.scheduler``) or one
of the baseline schedulers (``repro.baselines``).

The policy interface (duck-typed) is::

    pick(now) -> SimThread                 # never None; idle thread at worst
    timer_for(thread, now) -> int          # absolute tick of next interrupt
    preemption_imminent(thread, now) -> bool   # for grace-period decisions

Optional hooks: ``on_period_open(thread)``, called at every period open,
and ``continues_overtime``, a true attribute by which a policy opts in
to overtime slice continuation (see :meth:`Kernel.run_until`); a policy
that sets it also provides ``has_pending_activation``.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable

from repro import units
from repro.config import MachineConfig, SimConfig
from repro.core.grants import Grant, GrantDelivery
from repro.core.threads import SimThread, ThreadKind, ThreadState
from repro.errors import SchedulerError, SimulationError, TaskError
from repro.machine.cpu import ContextSwitchModel
from repro.machine.exclusive import ExclusiveUnitRegistry
from repro.machine.interrupts import InterruptReserve
from repro.obs.events import (
    GraceEvent,
    GrantChangeEvent,
)
from repro.sim.clock import SimClock
from repro.sim.events import EventQueue
from repro.sim.rng import RngRegistry
from repro.sim.trace import (
    BlockRecord,
    ContextSwitchRecord,
    DeadlineRecord,
    GrantChangeRecord,
    SegmentKind,
    SwitchKind,
    TraceRecorder,
)
from repro.tasks.base import (
    AssignGrant,
    Block,
    Compute,
    DonePeriod,
    InsertIdleCycles,
    Semantics,
    TaskDefinition,
)


class SliceEnd(enum.Enum):
    """How a dispatch slice ended."""

    FORCED = "forced"  # ran to the stop time (timer interrupt)
    DONE = "done"  # thread declared itself done for the period
    BLOCKED = "blocked"  # thread blocked on a channel
    INTERRUPTED = "interrupted"  # a wake/notification requires a re-pick


class Kernel:
    """Owns simulated time, threads, and the dispatch loop."""

    IDLE_TID = 0

    def __init__(self, machine: MachineConfig, sim: SimConfig) -> None:
        self.machine = machine
        self.sim = sim
        self.clock = SimClock()
        self.events = EventQueue()
        self.trace = TraceRecorder()
        self.rngs = RngRegistry(sim.seed)
        self.switch_model = ContextSwitchModel(
            machine.switch_costs, self.rngs.stream("context-switch")
        )
        self.reserve = InterruptReserve(machine.interrupt_reserve)
        self.exclusive = ExclusiveUnitRegistry(machine.exclusive_units)

        self.threads: dict[int, SimThread] = {}
        #: Periodic threads in creation order — the rollover scan runs
        #: several times per dispatch-loop iteration and must not pay
        #: for filtering sporadic/idle threads out of ``threads`` each
        #: time.  EXITED threads are swept out amortized (see
        #: :meth:`reap_exited`) so a long-lived system with task churn
        #: — the serving layer admits and withdraws tasks forever —
        #: keeps the scan proportional to *live* threads, not to every
        #: thread ever admitted.  ``threads`` itself never shrinks: tid
        #: lookups and trace exports still see retired names.
        self._periodic: list[SimThread] = []
        self._exited_periodic = 0
        #: Earliest upcoming period boundary, or 0 when unknown —
        #: lets the rollover scan (run several times per dispatch-loop
        #: iteration) return O(1) when no boundary is due.
        self._next_rollover = 0
        #: Monotone count of period opens; the dispatch loop compares it
        #: across the switch-cost window to spot a stale pick (a period
        #: that opened while the switch was charged).
        self._periods_opened = 0
        #: Latest period start pushed past its boundary by
        #: InsertIdleCycles.  A postponed start begins a period without
        #: an open, so a switch that began before it may also have
        #: carried the clock across one.
        self._last_postponed_start = 0
        self._next_tid = self.IDLE_TID + 1
        self.idle = SimThread(self.IDLE_TID, "Idle", ThreadKind.IDLE)
        self.policy = None  # bound by the scheduler policy

        self._current: SimThread | None = None
        self._pending_switch_kind = SwitchKind.VOLUNTARY
        self._reschedule = False
        self._no_progress = 0
        #: Thread ids in the order they blocked (FIFO wake fairness).
        self._block_order: list[int] = []
        #: Set when a channel a thread blocked on is posted (or a
        #: blocked thread is restarted behind the scan's back); the
        #: wake scan runs only while it is set.
        self._wake_scan_due = False
        #: Called when application code raises: (thread, exception).
        #: The distributor wires this to Resource Manager cleanup so a
        #: crashing task releases its admission instead of wedging the
        #: machine.  Crashes never propagate out of the dispatch loop.
        self.crash_handler = None
        self.crashes: list[tuple[int, int, str]] = []  # (time, tid, repr)
        #: Optional runtime invariant sanitizer
        #: (:class:`repro.metrics.sanitizer.InvariantSanitizer`); when
        #: set, the dispatch loop reports every scheduling decision and
        #: period close to it.
        self.sanitizer = None
        #: Optional telemetry bus (:class:`repro.obs.events.ObsBus` or a
        #: node-scoped view); None means uninstrumented — every hook
        #: site costs one attribute read and a falsy branch.
        self.obs = None
        #: Optional phase profiler (duck-typed ``begin``/``end``; wired
        #: by the distributor, never imported here — the same contract
        #: as ``obs``: one attribute read and a falsy branch when off.
        self.prof = None

    # -- properties ----------------------------------------------------------

    @property
    def now(self) -> int:
        return self.clock.now

    def bind_policy(self, policy) -> None:
        if self.policy is not None:
            raise SimulationError("kernel already has a scheduler policy")
        self.policy = policy

    # -- thread management ---------------------------------------------------

    def create_periodic(self, definition: TaskDefinition, policy_id: int) -> SimThread:
        """Register a periodic thread (no grant yet; the Resource Manager
        supplies the first grant via the scheduler's activation path)."""
        thread = SimThread(
            tid=self._alloc_tid(),
            name=definition.name,
            kind=ThreadKind.PERIODIC,
            definition=definition,
            policy_id=policy_id,
        )
        thread.ctx._kernel = self
        thread.state = (
            ThreadState.QUIESCENT if definition.start_quiescent else ThreadState.ACTIVE
        )
        self.threads[thread.tid] = thread
        self._periodic.append(thread)
        return thread

    def create_sporadic(self, name: str, function) -> SimThread:
        """Register a sporadic task; it only runs via grant assignment."""
        definition = TaskDefinition(name=name, resource_list=None)  # type: ignore[arg-type]
        thread = SimThread(
            tid=self._alloc_tid(),
            name=name,
            kind=ThreadKind.SPORADIC,
            definition=definition,
        )
        thread.ctx._kernel = self
        thread.gen = function(thread.ctx)
        thread.gen_exhausted = False
        thread.restart_pending = False
        self.threads[thread.tid] = thread
        return thread

    def _alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def periodic_threads(self) -> Iterable[SimThread]:
        return iter(self._periodic)

    def note_periodic_exit(self, thread: SimThread) -> None:
        """A periodic thread reached EXITED; sweep the scan list when
        the dead outnumber the living (amortized O(1) per exit)."""
        if thread.kind is not ThreadKind.PERIODIC:
            return
        self._exited_periodic += 1
        if (
            self._exited_periodic >= 32
            and self._exited_periodic * 2 >= len(self._periodic)
        ):
            self.reap_exited()

    def reap_exited(self) -> None:
        """Drop EXITED threads from the periodic scan list.

        An EXITED periodic thread has no grant and no open period, so
        it contributes nothing to rollover, overtime election, or timer
        computation — removing it cannot change any scheduling
        decision.  It stays in :attr:`threads` for tid lookups and
        trace thread names.
        """
        self._periodic = [
            t for t in self._periodic if t.state is not ThreadState.EXITED
        ]
        self._exited_periodic = 0

    def thread(self, tid: int) -> SimThread:
        try:
            return self.threads[tid]
        except KeyError:
            raise SchedulerError(f"no thread with id {tid}") from None

    # -- external events ------------------------------------------------------

    def at(self, time: int, action: Callable[[], None], label: str = "") -> None:
        """Schedule an external action (arrival, phone call, skew change)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule an event at {time}, before now ({self.now})"
            )
        self.events.schedule(time, action, label)

    def request_reschedule(self) -> None:
        """Ask the kernel to re-run the scheduler at the next opportunity."""
        self._reschedule = True

    def note_channel_post(self) -> None:
        """A channel some thread blocked on was posted (see
        :meth:`repro.tasks.channels.Channel.watch`)."""
        self._wake_scan_due = True

    # -- grant plumbing (called by the scheduler policy / RM) -----------------

    def start_first_period(self, thread: SimThread, grant: Grant, now: int) -> None:
        """Begin a thread's first period under ``grant`` at time ``now``.

        Used for newly admitted threads and for quiescent threads waking
        up; the initial grant is always delivered with callback
        semantics ("this is how the initial grant for an admitted task
        is always delivered").
        """
        if thread.kind is not ThreadKind.PERIODIC:
            raise SchedulerError(f"thread {thread.tid} is not periodic")
        if thread.state is ThreadState.BLOCKED:
            # Leaving BLOCKED without a wake: let the next scan drop the
            # thread's entry before it can block again.
            self._wake_scan_due = True
        thread.state = ThreadState.ACTIVE
        thread.grant = grant
        thread.pending_grant = None
        thread.has_pending_change = False
        thread.period_index += 1
        thread.period_start = now
        thread.deadline = now + grant.period
        if thread.deadline < self._next_rollover:
            self._next_rollover = thread.deadline
        thread.remaining = grant.cpu_ticks
        thread.used = 0
        thread.overtime_used = 0
        thread.declared_done = False
        thread.wants_overtime = False
        thread.blocked_this_period = False
        thread.completed_at = -1
        thread.restart_pending = True
        thread.pending_compute = 0
        self._periods_opened += 1
        thread.next_delivery = GrantDelivery(
            previous_completed=thread.last_completed,
            previous_used=thread.last_used,
            grant=grant,
            period_start=now,
        )
        self._record_grant_change(
            GrantChangeRecord(
                time=now,
                thread_id=thread.tid,
                period=grant.period,
                cpu_ticks=grant.cpu_ticks,
                entry_index=grant.entry_index,
                reason="first grant",
            )
        )
        self._notify_period_open(thread)
        self._reschedule = True

    def _record_grant_change(self, record: GrantChangeRecord) -> None:
        self.trace.record_grant_change(record)
        if self.obs:
            self.obs.emit(
                GrantChangeEvent(
                    time=record.time,
                    thread_id=record.thread_id,
                    period=record.period,
                    cpu_ticks=record.cpu_ticks,
                    entry_index=record.entry_index,
                    reason=record.reason,
                )
            )

    def _notify_period_open(self, thread: SimThread) -> None:
        """Give the policy a chance to act at a period boundary (used by
        the Rialto baseline's per-period constraint requests)."""
        hook = getattr(self.policy, "on_period_open", None)
        if hook is not None:
            hook(thread)

    # -- the main loop ----------------------------------------------------------

    def run_for(self, ticks: int) -> None:
        self.run_until(self.now + ticks)

    def run_until(self, horizon: int) -> None:
        """Advance the simulation to absolute time ``horizon``.

        Overtime slice continuation: when a policy that sets
        ``continues_overtime`` picked a thread on unallocated time
        (``stop`` came from its unallocated timer), and the slice ended
        with the thread declaring itself done but asking for more
        overtime, the thread runs again under the same ``stop`` and
        ``preemptive`` without the rollover, event, wake, pick, switch
        and timer steps.  That is allowed only while nothing those
        steps read has changed: the clock is still before ``stop``, no
        reschedule was requested, no period boundary is due (a blocked
        or removal-pending thread's boundary is not in the unallocated
        timer), no activation is pending, no wake scan is due, the next
        event is the one ``stop`` was computed against, and the last
        slice advanced the clock (so the progress guard still sees
        livelocks).  Under those conditions the full loop would pick
        the same thread and compute the same ``stop``, so the schedule
        is unchanged.  Each continued slice is still reported to the
        sanitizer and gets its own ``kernel.dispatch`` profiler frame.
        """
        if self.policy is None:
            raise SimulationError("no scheduler policy bound to the kernel")
        clock = self.clock
        events = self.events
        policy = self.policy
        sanitizer = self.sanitizer
        prof = self.prof
        continues = getattr(policy, "continues_overtime", False)
        while clock.now < horizon:
            before = clock.now
            # Bring period accounting current *before* firing events:
            # an event handler (e.g. a wake -> grant recomputation) must
            # see boundaries that have already passed as processed, or
            # it can cancel a pending change retroactively.  A boundary
            # at exactly `now` is left for after the events, so a grant
            # change requested at instant t applies to the period
            # beginning at t ("the decrease occurs in the next period").
            self._rollover_all(strict=True)
            self._fire_due_events()
            if self._wake_scan_due and self._block_order:
                self._scan_wakes()
            self._rollover_all()
            self._reschedule = False
            # One phase frame covers the whole decision: pick, context
            # switch, and the dispatched slice.  A single begin/end pair
            # per loop iteration keeps the profiled hot path within the
            # overhead budget the prof-smoke CI gate enforces.
            if prof:
                prof.begin("kernel.dispatch")
            thread = policy.pick(clock.now)
            if sanitizer is not None:
                sanitizer.on_pick(thread, clock.now)
            switch_start = clock.now
            self._switch_to(thread)
            # The switch cost may have carried the clock across period
            # boundaries; bring accounting current before setting the timer.
            opened_before = self._periods_opened
            self._rollover_all()
            if not thread.is_idle and not thread.in_period:
                # The boundary that just rolled over retired this
                # thread's grant (a pending removal took effect inside
                # the switch-cost window); there is nothing to dispatch.
                if prof:
                    prof.end("kernel.dispatch")
                continue
            if self._periods_opened != opened_before:
                # A period opened inside the switch-cost window, so the
                # pick is stale: the opened thread may now head the EDF
                # queue — and dispatching a stale Idle pick would sleep
                # through that thread's whole period.  Re-decide, exactly
                # as the boundary's timer interrupt would have forced.
                if prof:
                    prof.end("kernel.dispatch")
                continue
            if (
                switch_start < clock.now
                and switch_start < self._last_postponed_start
                and policy.pick(clock.now) is not thread
            ):
                # The switch cost carried the clock past a postponed
                # period start: that thread now heads the EDF queue and
                # the pick is stale in the same way.  Re-decide.
                if prof:
                    prof.end("kernel.dispatch")
                continue
            next_event = events.next_time()
            stop, preemptive = self._compute_stop(thread, horizon, next_event)
            unallocated = continues and not thread.eligible_time_remaining(clock.now)
            mark = clock.now
            outcome = self._dispatch(thread, stop, preemptive)
            if prof:
                prof.end("kernel.dispatch")
            while (
                unallocated
                and outcome is SliceEnd.DONE
                and thread.wants_overtime
                and mark < clock.now < stop
                and not self._reschedule
                and self._next_rollover > clock.now
                and not policy.has_pending_activation
                and not (self._wake_scan_due and self._block_order)
                and events.next_time() == next_event
            ):
                mark = clock.now
                if prof:
                    prof.begin("kernel.dispatch")
                if sanitizer is not None:
                    sanitizer.on_pick(thread, mark)
                outcome = self._dispatch(thread, stop, preemptive)
                if prof:
                    prof.end("kernel.dispatch")
            self._guard_progress(before)
        # Close any period ending exactly at the horizon so trace
        # accounting covers the whole run, and materialize the open
        # trace segment so exports taken after the run see everything.
        self._rollover_all()
        self.trace.flush()

    def _guard_progress(self, before: int) -> None:
        if self.now == before:
            self._no_progress += 1
            if self._no_progress > 10_000:
                raise SchedulerError(
                    f"scheduler made no progress at t={self.now}; likely a "
                    f"policy/task livelock"
                )
        else:
            self._no_progress = 0

    def _fire_due_events(self) -> None:
        for event in self.events.pop_due(self.now):
            event.action()
            self._reschedule = True

    def _compute_stop(
        self, thread: SimThread, horizon: int, next_event: int | None
    ) -> tuple[int, bool]:
        stop = horizon
        preemptive = False
        if next_event is not None and next_event < stop:
            stop = next_event
        policy_stop = self.policy.timer_for(thread, self.now)
        if policy_stop < stop:
            stop = policy_stop
            preemptive = True
        # A switch cost can land the clock just past a timer target; a
        # zero-length slice then lets the scheduler re-evaluate.  The
        # progress guard in run_until catches genuine livelocks.
        return max(stop, self.now), preemptive

    # -- context switching -------------------------------------------------------

    def _switch_to(self, thread: SimThread) -> None:
        prev = self._current
        if prev is thread:
            return
        if prev is not None:
            kind = self._pending_switch_kind
            cost = self.switch_model.sample_ticks(kind)
            if cost:
                start = self.clock.now
                self.clock.advance(cost)
                self.reserve.charge(cost)
                self.trace.record_run(-1, start, self.clock.now, SegmentKind.SYSTEM)
            self.trace.record_switch(
                ContextSwitchRecord(
                    time=self.now,
                    from_thread=prev.tid,
                    to_thread=thread.tid,
                    kind=kind,
                    cost_ticks=cost,
                )
            )
            if self.obs:
                self.obs.emit_switch(
                    self.now, prev.tid, thread.tid, kind.value, cost
                )
        self._current = thread
        self._pending_switch_kind = SwitchKind.VOLUNTARY

    # -- dispatching ------------------------------------------------------------

    def _dispatch(
        self, thread: SimThread, stop: int, preemptive: bool
    ) -> SliceEnd | None:
        """Run one slice; returns how it ended (None for the Idle thread)."""
        if thread.is_idle:
            start = self.clock.now
            if stop > start:
                self.clock.advance_to(stop)
                self.trace.record_run(thread.tid, start, stop, SegmentKind.IDLE)
            self._pending_switch_kind = SwitchKind.VOLUNTARY
            return None

        outcome = self._execute(thread, stop)
        if outcome in (SliceEnd.DONE, SliceEnd.BLOCKED):
            self._pending_switch_kind = SwitchKind.VOLUNTARY
        elif outcome is SliceEnd.INTERRUPTED:
            self._pending_switch_kind = SwitchKind.INVOLUNTARY
        else:  # FORCED: timer interrupt
            self._pending_switch_kind = self._handle_forced_stop(
                thread, stop, preemptive
            )
        return outcome

    def _handle_forced_stop(
        self, thread: SimThread, stop: int, preemptive: bool
    ) -> SwitchKind:
        """Apply controlled-preemption grace periods (section 5.6)."""
        definition = thread.definition
        if (
            not preemptive
            or definition is None
            or definition.preemption is None
            or not thread.has_pending_work()
        ):
            return SwitchKind.INVOLUNTARY
        self._rollover_all()
        if not self.policy.preemption_imminent(thread, self.now):
            return SwitchKind.INVOLUNTARY
        grace = self.machine.grace_period_ticks
        notice = definition.preemption.check_interval
        thread.grace_pending = True
        try:
            if notice <= grace:
                # The task's next preemption check falls inside the grace
                # period; it yields voluntarily once it notices.
                self._execute(thread, self.now + notice)
                if self.obs:
                    self.obs.emit(
                        GraceEvent(
                            time=self.now,
                            thread_id=thread.tid,
                            honoured=True,
                            grace_ticks=grace,
                        )
                    )
                return SwitchKind.VOLUNTARY
            # The task cannot notice in time: it burns the whole grace
            # period and is involuntarily preempted, with an exception
            # callback so it can clean up when next run.
            self._execute(thread, self.now + grace)
            thread.missed_grace_count += 1
            thread.ctx.missed_grace = True
            if definition.exception_callback is not None:
                definition.exception_callback(self.now)
            if self.obs:
                self.obs.emit(
                    GraceEvent(
                        time=self.now,
                        thread_id=thread.tid,
                        honoured=False,
                        grace_ticks=grace,
                    )
                )
            return SwitchKind.INVOLUNTARY
        finally:
            thread.grace_pending = False

    def _current_runner(self, thread: SimThread) -> tuple[SimThread, bool]:
        """The generator actually running: the thread itself, or the
        sporadic task its grant is assigned to."""
        target = thread.assignment_target
        if target is None:
            return thread, False
        if target.state is not ThreadState.ACTIVE or target.gen_exhausted:
            thread.clear_assignment()
            return thread, False
        return target, True

    def _execute(self, thread: SimThread, stop: int) -> SliceEnd:
        """Run ``thread`` (or its assignee) until ``stop`` or a yield.

        When the clock reaches ``stop`` with no compute in flight we
        still fetch a bounded number of ops: a task whose work completes
        exactly as the timer fires yields (DonePeriod/Block) in the same
        instant, and treating that as a forced preemption would strand
        it on the wrong queue.  A Compute op ends the indulgence.
        """
        ops_at_stop = 0
        clock = self.clock
        while True:
            # _current_runner is idempotent (a side-effectful call
            # settles the assignment state), so one call per iteration
            # serves both the stop check and the dispatch below.
            runner, assigned = self._current_runner(thread)
            if clock.now >= stop:
                if runner.pending_compute > 0 or ops_at_stop >= 8:
                    return SliceEnd.FORCED
                ops_at_stop += 1

            if runner.pending_compute > 0:
                cap = stop
                if assigned:
                    cap = min(cap, clock.now + thread.assignment_remaining)
                run = min(runner.pending_compute, cap - clock.now)
                if run > 0:
                    self._consume(thread, runner, run, assigned)
                if assigned:
                    thread.assignment_remaining -= run
                    if thread.assignment_remaining <= 0:
                        # Assigned time consumed: return to the periodic task.
                        thread.clear_assignment()
                        continue
                if runner.pending_compute > 0:
                    # Still computing: we must have hit the cap.
                    continue
                continue

            # Need the next op from the runner's generator.
            if not assigned:
                self._ensure_generator(thread)
            if runner.gen is None or runner.gen_exhausted:
                if assigned:
                    thread.clear_assignment()
                    continue
                self._mark_done(thread)
                return SliceEnd.DONE
            try:
                op = runner.gen.send(None)
            except StopIteration:
                runner.gen_exhausted = True
                if self._wake_scan_due and self._block_order:
                    self._scan_wakes()
                if assigned:
                    runner.state = ThreadState.EXITED
                    thread.clear_assignment()
                    continue
                self._mark_done(thread)
                return SliceEnd.DONE
            except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                outcome = self._crash(thread, runner, assigned, exc)
                if outcome is not None:
                    return outcome
                continue
            if self._wake_scan_due and self._block_order:
                self._scan_wakes()  # the generator body posted a channel

            try:
                result = self._apply_op(thread, runner, assigned, op)
            except Exception as exc:  # noqa: BLE001 - protocol misuse etc.
                outcome = self._crash(thread, runner, assigned, exc)
                if outcome is not None:
                    return outcome
                continue
            if result is not None:
                return result
            if self._reschedule:
                return SliceEnd.INTERRUPTED

    def _crash(
        self, thread: SimThread, runner: SimThread, assigned: bool, exc: Exception
    ) -> SliceEnd | None:
        """Contain an application fault: retire the faulting thread.

        A crash is the task "terminating naturally" in the ugliest way;
        the scheduler and every other admitted task keep their
        guarantees.  Returns the slice outcome, or None when only an
        assignee died and the assigning thread continues.
        """
        self.crashes.append((self.now, runner.tid, repr(exc)))
        self.trace.note(self.now, f"thread {runner.tid} crashed: {exc!r}")
        runner.gen = None
        runner.gen_exhausted = True
        runner.pending_compute = 0
        if self.crash_handler is not None:
            self.crash_handler(runner, exc)
        else:
            runner.state = ThreadState.EXITED
        if assigned:
            thread.clear_assignment()
            return None
        self._mark_done(thread)
        return SliceEnd.DONE

    def _mark_done(self, thread: SimThread, overtime: bool = False) -> None:
        """The thread finished its period's work at the current tick."""
        thread.declared_done = True
        thread.wants_overtime = overtime
        if thread.completed_at < 0:
            thread.completed_at = self.clock.now

    def _apply_op(
        self, thread: SimThread, runner: SimThread, assigned: bool, op
    ) -> SliceEnd | None:
        """Process one yielded op; returns a SliceEnd to stop the slice."""
        if isinstance(op, Compute):
            runner.pending_compute = op.ticks
            return None
        if isinstance(op, DonePeriod):
            if assigned:
                # A sporadic task pausing: end the assignment early.
                thread.clear_assignment()
                return None
            self._mark_done(thread, overtime=op.overtime)
            return SliceEnd.DONE
        if isinstance(op, Block):
            if op.channel.try_take():
                return None
            runner.state = ThreadState.BLOCKED
            runner.blocked_channel = op.channel
            op.channel.watch(self)
            self._block_order.append(runner.tid)
            self.trace.record_block(
                BlockRecord(
                    time=self.now,
                    thread_id=runner.tid,
                    blocked=True,
                    channel=op.channel.name,
                )
            )
            if assigned:
                # "when the sporadic thread blocks, the Scheduler returns
                # to the periodic task."
                thread.clear_assignment()
                return None
            thread.blocked_this_period = True
            return SliceEnd.BLOCKED
        if isinstance(op, AssignGrant):
            if assigned:
                raise TaskError("a sporadic task cannot re-assign a grant")
            target = self.threads.get(op.task_id)
            if (
                target is not None
                and target.kind is ThreadKind.SPORADIC
                and target.state is ThreadState.ACTIVE
                and not target.gen_exhausted
            ):
                thread.assignment_target = target
                thread.assignment_remaining = op.ticks
            return None
        if isinstance(op, InsertIdleCycles):
            if assigned:
                raise TaskError("a sporadic task has no period to postpone")
            thread.postpone_next += op.ticks
            return None
        raise TaskError(f"thread {runner.tid} yielded an unknown op {op!r}")

    def _consume(
        self, thread: SimThread, runner: SimThread, run: int, assigned: bool
    ) -> None:
        start = self.clock.now
        end = self.clock.advance(run)
        runner.pending_compute -= run
        granted_mode = thread.remaining > 0 and not thread.declared_done
        if granted_mode:
            thread.remaining -= run
            thread.used += run
            if thread.remaining <= 0 and thread.completed_at < 0:
                thread.completed_at = end
        else:
            thread.overtime_used += run
        if assigned:
            kind = SegmentKind.ASSIGNED
        elif granted_mode:
            kind = SegmentKind.GRANTED
        else:
            kind = SegmentKind.OVERTIME
        self.trace.record_run(
            runner.tid,
            start,
            end,
            kind,
            thread.period_index,
            thread.tid if assigned else None,
        )

    def _ensure_generator(self, thread: SimThread) -> None:
        """Deliver the period's grant: callback (fresh call, cleared
        stack) or return semantics (resume where it left off)."""
        thread.ctx.delivery = thread.next_delivery
        if thread.gen is not None and not thread.gen_exhausted and not thread.restart_pending:
            return
        if thread.grant is None:
            raise SchedulerError(
                f"thread {thread.tid} dispatched without a grant"
            )
        thread.gen = thread.grant.entry.function(thread.ctx)
        thread.gen_exhausted = False
        thread.restart_pending = False
        thread.pending_compute = 0

    # -- wakes -------------------------------------------------------------------

    def _scan_wakes(self) -> None:
        """Wake blocked threads whose channels have pending posts.

        Waiters are served in the order they blocked (FIFO), so a
        frequently re-blocking thread cannot starve a peer waiting on
        the same channel.

        Post-driven: callers scan only while ``_wake_scan_due`` is set.
        A thread blocks only after ``try_take`` failed on its channel,
        and every scan leaves each still-blocked channel with nothing
        pending; a channel's pending count grows only through a post,
        and a post to a channel a thread blocked on sets the flag (see
        :meth:`repro.tasks.channels.Channel.watch`).  So with the flag
        clear no scan could wake anyone.  Entries of threads that left
        BLOCKED some other way stay queued until a flagged scan drops
        them: an exited thread never blocks again, and a blocked thread
        restarted by ``start_first_period`` sets the flag itself.
        """
        self._wake_scan_due = False
        now = self.clock.now
        still_blocked: list[int] = []
        for tid in self._block_order:
            candidate = self.threads.get(tid)
            if candidate is None or candidate.state is not ThreadState.BLOCKED:
                continue  # exited or already woken: drop from the queue
            channel = candidate.blocked_channel
            if channel is None or not channel.ready:
                still_blocked.append(tid)
                continue
            # The timer ignores a blocked thread's boundaries, so a long
            # slice can carry the clock past them; close those periods
            # as blocked before the wake, as a timely rollover would
            # have.
            while candidate.in_period and candidate.deadline < now:
                self._close_period(candidate)
                self._open_next_period(candidate)
            if candidate.state is not ThreadState.BLOCKED:
                continue  # exited at a boundary it slept through
            channel.try_take()
            candidate.state = ThreadState.ACTIVE
            candidate.blocked_channel = None
            self.trace.record_block(
                BlockRecord(
                    time=self.now,
                    thread_id=candidate.tid,
                    blocked=False,
                    channel=channel.name,
                )
            )
            self._reschedule = True
        self._block_order = still_blocked

    # -- period rollover ------------------------------------------------------------

    def _rollover_all(self, strict: bool = False) -> None:
        """Process every period boundary at or before the current time
        (strictly before it when ``strict``).

        The earliest upcoming boundary is cached across calls, so the
        common case — nothing due yet — is O(1) instead of a scan of
        the whole periodic population.  Period opens that happen
        outside this scan (:meth:`start_first_period`) lower the cache;
        opens inside the scan are folded into the minimum it computes.
        """
        now = self.clock.now
        cached = self._next_rollover
        if cached > now or (strict and cached == now):
            return
        # Any first period started by a policy hook while the scan runs
        # lowers _next_rollover; fold it into the final minimum.
        self._next_rollover = units.INFINITE
        earliest = units.INFINITE
        for thread in self._periodic:
            while thread.in_period and (
                thread.deadline < now or (not strict and thread.deadline == now)
            ):
                self._close_period(thread)
                self._open_next_period(thread)
            if thread.in_period and thread.deadline < earliest:
                earliest = thread.deadline
        self._next_rollover = min(self._next_rollover, earliest)

    def _close_period(self, thread: SimThread) -> None:
        grant = thread.grant
        assert grant is not None
        delivered = min(thread.used, grant.cpu_ticks)
        voided = thread.blocked_this_period or thread.state is ThreadState.BLOCKED
        missed = (
            not voided
            and not thread.declared_done
            and delivered < grant.cpu_ticks
            and thread.state is ThreadState.ACTIVE
        )
        record = DeadlineRecord(
            thread_id=thread.tid,
            period_index=thread.period_index,
            period_start=thread.period_start,
            deadline=thread.deadline,
            granted=grant.cpu_ticks,
            delivered=delivered,
            missed=missed,
            voided=voided,
        )
        self.trace.record_deadline(record)
        if self.obs:
            # One event per close: the analysis layer needs every
            # period's start/completion to compute delivery ratios and
            # latency percentiles, not just the exceptional closes.  An
            # unsinked bus is falsy, so the uninstrumented hot path
            # still constructs nothing; on a columnar bus the fast path
            # appends scalars without ever building the event object.
            self.obs.emit_period_close(
                thread.deadline,
                thread.tid,
                thread.period_index,
                thread.period_start,
                thread.completed_at,
                grant.cpu_ticks,
                delivered,
                missed,
                voided,
            )
        if self.sanitizer is not None:
            self.sanitizer.on_period_close(thread, record)
        thread.periods_completed += 1
        thread.total_granted_ticks += grant.cpu_ticks
        thread.total_used_ticks += thread.used
        thread.total_overtime_ticks += thread.overtime_used
        thread.last_completed = thread.completed_call()
        thread.last_used = thread.used + thread.overtime_used

    def _open_next_period(self, thread: SimThread) -> None:
        old_grant = thread.grant
        assert old_grant is not None
        new_grant = old_grant
        if thread.has_pending_change:
            new_grant = thread.pending_grant
            thread.pending_grant = None
            thread.has_pending_change = False
        if new_grant is None:
            self._retire_grant(thread)
            return

        start = thread.deadline + thread.postpone_next
        if thread.postpone_next and start > self._last_postponed_start:
            self._last_postponed_start = start
        thread.postpone_next = 0
        thread.period_index += 1
        thread.period_start = start
        thread.deadline = start + new_grant.period
        thread.remaining = new_grant.cpu_ticks
        thread.used = 0
        thread.overtime_used = 0
        thread.declared_done = False
        thread.wants_overtime = False
        thread.blocked_this_period = thread.state is ThreadState.BLOCKED
        thread.completed_at = -1

        changed = new_grant.entry is not old_grant.entry
        if changed:
            self._record_grant_change(
                GrantChangeRecord(
                    time=start,
                    thread_id=thread.tid,
                    period=new_grant.period,
                    cpu_ticks=new_grant.cpu_ticks,
                    entry_index=new_grant.entry_index,
                    reason="grant change",
                )
            )
        thread.grant = new_grant
        thread.next_delivery = GrantDelivery(
            previous_completed=thread.last_completed,
            previous_used=thread.last_used,
            grant=new_grant,
            period_start=start,
        )
        thread.restart_pending = self._needs_restart(thread, old_grant, new_grant, changed)
        if thread.restart_pending:
            thread.pending_compute = 0
        self._periods_opened += 1
        self._notify_period_open(thread)

    def _needs_restart(
        self, thread: SimThread, old: Grant, new: Grant, changed: bool
    ) -> bool:
        # A blocked thread's call is suspended mid-Block; restarting it
        # would discard the continuation its wake must resume ("they
        # will resume in the first full period in which the thread is
        # not blocked").  Fresh callbacks wait until it unblocks.
        if (
            thread.state is ThreadState.BLOCKED
            and thread.gen is not None
            and not thread.gen_exhausted
        ):
            return False
        if thread.gen is None or thread.gen_exhausted or thread.restart_pending:
            return True
        definition = thread.definition
        assert definition is not None
        if definition.semantics is Semantics.CALLBACK:
            return True
        if not changed:
            return False
        # RETURN-semantics task whose grant changed: the filter callback
        # (if registered) chooses; otherwise clean up with a fresh call.
        # A faulting filter gets the safe default (fresh call) rather
        # than taking the machine down.
        if definition.filter_callback is not None:
            try:
                return definition.filter_callback(old, new) is Semantics.CALLBACK
            except Exception as exc:  # noqa: BLE001 - fault isolation
                self.trace.note(
                    self.now, f"thread {thread.tid} filter callback crashed: {exc!r}"
                )
                return True
        return True

    def _retire_grant(self, thread: SimThread) -> None:
        """A pending removal took effect at the period boundary."""
        thread.grant = None
        thread.remaining = 0
        thread.pending_compute = 0
        thread.gen = None
        thread.gen_exhausted = False
        thread.restart_pending = True
        new_state = thread.pending_state or ThreadState.QUIESCENT
        thread.pending_state = None
        if thread.state is not ThreadState.BLOCKED or new_state is ThreadState.EXITED:
            thread.state = new_state
        if new_state is ThreadState.EXITED:
            self.note_periodic_exit(thread)
        self.exclusive.release_thread(thread.tid)
        self._record_grant_change(
            GrantChangeRecord(
                time=self.now,
                thread_id=thread.tid,
                period=0,
                cpu_ticks=0,
                entry_index=-1,
                reason=f"grant removed ({new_state.value})",
            )
        )
