"""Property test: the fresh-allocation boundary heap is a pure optimization.

The scheduler finds the timer's rule (2) boundary and the unallocated
timer through a lazy min-heap of next fresh-allocation times, fed by the
period-open hook and validated on read.  ``ScanTimerScheduler`` keeps
the original full scans of every periodic thread, and also notifies
with a full grant-set diff instead of the controller's ``changed`` set.
For any stream of admissions, exits, quiescence and wake-ups over
3-level resource lists in overload, period postponement, channel
blocking and (optionally) a machine with real switch costs, both must
produce identical switches, segments, deadline records, grant changes
and blocks.  Both runs execute under the strict invariant sanitizer.
"""

from __future__ import annotations

import dataclasses
import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AdmissionError, MachineConfig, SimConfig, units
from repro.core.distributor import ResourceDistributor
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.core.scheduler import RDScheduler
from repro.core.threads import ThreadState
from repro.tasks.base import Compute, DonePeriod, InsertIdleCycles, TaskDefinition
from repro.tasks.producer_consumer import Figure4Workload
from repro.workloads import grant_follower, greedy_worker


class ScanTimerScheduler(RDScheduler):
    """RDScheduler with the boundary heap replaced by full scans."""

    def notify_grant_set(self, result):
        super().notify_grant_set(dataclasses.replace(result, changed=None))

    def _unallocated_timer(self, thread, now):
        stop = units.INFINITE
        if not thread.is_idle and thread.in_period:
            stop = thread.deadline
        for other in self.kernel.periodic_threads():
            boundary = self._fresh_allocation_time(other, now)
            if boundary is not None and boundary < stop:
                stop = boundary
        return stop

    def _earliest_preempting_boundary(self, thread, now, limit):
        best = None
        for other in self.kernel.periodic_threads():
            if other is thread:
                continue
            boundary = self._fresh_allocation_time(other, now)
            if boundary is None or boundary <= now or boundary >= limit:
                continue
            if self._next_deadline_after(other, now) >= thread.deadline:
                continue
            if best is None or boundary < best:
                best = boundary
        return best


def drifting(drift_ticks: int):
    """Consume the grant, then postpone the next period start."""

    def body(ctx):
        grant = ctx.grant
        chunk = units.us_to_ticks(200)
        spent = 0
        while spent < grant.cpu_ticks:
            step = min(chunk, grant.cpu_ticks - spent)
            yield Compute(step)
            spent += step
        yield InsertIdleCycles(drift_ticks)
        yield DonePeriod()

    return body


def three_level(name: str, period_ms: int, minimum_pct: int, function) -> TaskDefinition:
    """Entries at 3x, 2x and 1x the minimum rate, like the dense-churn set."""
    period = units.ms_to_ticks(period_ms)
    entries = [
        ResourceListEntry(
            period, max(1, period * minimum_pct * factor // 100), function, f"{name}.{level}"
        )
        for level, factor in enumerate((3, 2, 1))
    ]
    return TaskDefinition(name=name, resource_list=ResourceList(entries))


BEHAVIORS = ("follower", "greedy", "drift")


@st.composite
def streams(draw):
    """A machine, an initial task set, and a timed stream of changes."""
    task = st.tuples(
        st.sampled_from([5, 10, 15, 20, 30]),  # period, ms
        st.integers(min_value=3, max_value=14),  # minimum rate, %
        st.sampled_from(BEHAVIORS),
        st.integers(min_value=1, max_value=3000),  # drift, us
    )
    initial = draw(st.lists(task, min_size=2, max_size=5))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=110),  # time, ms
                st.sampled_from(["admit", "exit", "quiesce", "wake"]),
                task,
            ),
            min_size=1,
            max_size=8,
        )
    )
    return draw(st.booleans()), draw(st.booleans()), initial, ops


def run_stream(stream, reference: bool) -> ResourceDistributor:
    ideal, pipeline, initial, ops = stream
    rd = ResourceDistributor(
        machine=MachineConfig.ideal() if ideal else MachineConfig(),
        sim=SimConfig(seed=1),
        sanitize=True,
        sanitize_strict=True,
    )
    if reference:
        rd.scheduler.__class__ = ScanTimerScheduler
    names = itertools.count()
    admitted = []

    def admit(spec):
        period_ms, minimum_pct, behavior, drift_us = spec
        function = {
            "follower": grant_follower,
            "greedy": greedy_worker,
            "drift": drifting(units.us_to_ticks(drift_us)),
        }[behavior]
        definition = three_level(f"t{next(names)}", period_ms, minimum_pct, function)
        try:
            admitted.append(rd.admit(definition))
        except AdmissionError:
            pass

    def action(kind, spec):
        def fire():
            manager = rd.resource_manager
            if kind == "admit":
                admit(spec)
                return
            live = [t for t in admitted if t.tid in manager.admitted_ids()]
            if not live:
                return
            target = live[len(live) // 2]
            if kind == "exit":
                rd.exit_thread(target.tid)
            elif kind == "quiesce":
                if target.state is not ThreadState.EXITED:
                    rd.enter_quiescent(target.tid)
            elif kind == "wake":
                quiescent = [t for t in live if manager.is_quiescent(t.tid)]
                if quiescent:
                    rd.wake(quiescent[0].tid)

        return fire

    if pipeline:
        # Figure 4's fixed producer 9 / data-management 10 pair: the
        # consumer blocks on the producer's channel every period.
        for definition in Figure4Workload(fixed=True).definitions()[2:]:
            rd.admit(definition)
    for spec in initial:
        admit(spec)
    for at_ms, kind, spec in ops:
        rd.at(units.ms_to_ticks(at_ms), action(kind, spec))
    rd.run_for(units.ms_to_ticks(130))
    return rd


@given(streams())
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_boundary_heap_matches_full_scans(stream):
    fast = run_stream(stream, reference=False)
    slow = run_stream(stream, reference=True)
    assert fast.sanitizer.ok and slow.sanitizer.ok
    assert fast.trace.switches == slow.trace.switches
    assert fast.trace.segments == slow.trace.segments
    assert fast.trace.deadlines == slow.trace.deadlines
    assert fast.trace.grant_changes == slow.trace.grant_changes
    assert fast.trace.blocks == slow.trace.blocks
