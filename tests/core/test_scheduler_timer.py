"""Direct unit tests of the RD scheduler's timer rules (section 4.2).

"The Scheduler sets a timer interrupt for the next context switch.
This occurs at the earlier of: (1) the end of the grant for this thread
for this period, or (2) the beginning of a new period for another
thread whose next-period end precedes the period end for the thread
about to run."
"""

import pytest

from repro import MachineConfig, SimConfig, units
from repro.core.distributor import ResourceDistributor
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import TaskDefinition
from repro.workloads import grant_follower, single_entry_definition


def ms(x):
    return units.ms_to_ticks(x)


def build(*specs, overlap_us=0.0):
    """specs: (name, period_ms, rate).  Returns (rd, threads...)"""
    machine = MachineConfig(
        interrupt_reserve=0.0,
        switch_costs=MachineConfig.ideal().switch_costs,
        overlap_override_ticks=units.us_to_ticks(overlap_us),
        admission_cost_ticks=0,
    )
    rd = ResourceDistributor(machine=machine, sim=SimConfig(seed=0))
    threads = [
        rd.admit(single_entry_definition(name, period, rate, greedy=True))
        for name, period, rate in specs
    ]
    rd.run_for(1)  # activate first grants at t=0..1
    return rd, threads


class TestGrantEndRule:
    def test_sole_thread_timer_is_grant_end(self):
        rd, (t,) = build(("solo", 10, 0.4))
        timer = rd.scheduler.timer_for(t, rd.now)
        # Grant end: now + remaining.
        assert timer == rd.now + t.remaining

    def test_timer_capped_by_own_deadline(self):
        rd, (t,) = build(("solo", 10, 0.4))
        # Artificially inflate remaining beyond the deadline.
        t.remaining = ms(50)
        assert rd.scheduler.timer_for(t, rd.now) == t.deadline


class TestBoundaryRule:
    def test_earlier_deadline_boundary_preempts(self):
        rd, (long, short) = build(("long", 50, 0.5), ("short", 10, 0.3))
        # While the long thread runs, the short thread's next period
        # start (its current deadline) must bound the timer: the short
        # thread's next-period end (20 ms) precedes long's deadline.
        timer = rd.scheduler.timer_for(long, rd.now)
        assert timer <= short.deadline

    def test_later_deadline_boundary_does_not_preempt(self):
        # Reverse: the long thread's boundary never preempts the short
        # one (long's next-period end is far past short's deadline).
        rd, (long, short) = build(("long", 50, 0.2), ("short", 10, 0.3))
        timer = rd.scheduler.timer_for(short, rd.now)
        assert timer == rd.now + short.remaining

    def test_equal_periods_do_not_preempt(self):
        rd, (a, b) = build(("a", 10, 0.4), ("b", 10, 0.4))
        timer = rd.scheduler.timer_for(a, rd.now)
        # b's boundary coincides with a's deadline: strict "precedes"
        # means no preemption point before a's own limits.
        assert timer == rd.now + a.remaining


class TestOverlapOverride:
    def test_small_overlap_extends_to_grant_end(self):
        # Long grant ends 100 us past short's boundary: with a 200 us
        # override the timer skips the boundary.
        rd, (long, short) = build(
            ("long", 30, 7.1 / 30), ("short", 10, 0.3), overlap_us=200.0
        )
        # Simulate the moment: long has run 7 ms by t=10 ms boundary.
        rd.run_until(ms(3))  # short ran 0-3
        timer = rd.scheduler.timer_for(long, rd.now)
        assert timer == rd.now + long.remaining  # grant end at 10.1 ms

    def test_zero_threshold_preempts_at_boundary(self):
        rd, (long, short) = build(
            ("long", 30, 7.1 / 30), ("short", 10, 0.3), overlap_us=0.0
        )
        rd.run_until(ms(3))
        timer = rd.scheduler.timer_for(long, rd.now)
        assert timer == short.deadline  # the 10 ms boundary


class TestUnallocatedTimer:
    def test_idle_timer_is_next_fresh_allocation(self):
        rd, (t,) = build(("solo", 10, 0.4))
        idle = rd.kernel.idle
        timer = rd.scheduler.timer_for(idle, rd.now)
        assert timer == t.deadline

    def test_idle_timer_infinite_with_no_threads(self):
        rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=0))
        timer = rd.scheduler.timer_for(rd.kernel.idle, 0)
        assert timer == units.INFINITE

    def test_overtime_runner_preempted_by_any_boundary(self):
        rd, (greedy, other) = build(("greedy", 10, 0.3), ("other", 40, 0.2))
        # Run until greedy is in overtime (its grant exhausted).
        rd.run_until(ms(6))
        assert not greedy.eligible_time_remaining(rd.now)
        timer = rd.scheduler.timer_for(greedy, rd.now)
        # Bounded by its own next period start (10 ms).
        assert timer <= greedy.deadline


class TestTimerWork:
    def test_timer_for_never_scans_the_periodic_population(self):
        """512 tasks whose minima fill 99.8 % of the CPU (an overloaded,
        policy-resolved grant set): the timer must come from the
        boundary heap, never from a walk over every periodic thread."""
        rd = ResourceDistributor(machine=MachineConfig(), sim=SimConfig(seed=0))
        kernel = rd.kernel
        count = 512
        minimum = 0.998 * kernel.machine.schedulable_capacity / count
        with rd.resource_manager.deferred_recompute():
            for i in range(count):
                period = ms((5, 10, 20)[i % 3])
                entries = [
                    ResourceListEntry(
                        period, max(1, round(period * minimum * k)), grant_follower
                    )
                    for k in (3, 2, 1)
                ]
                rd.admit(TaskDefinition(name=f"t{i}", resource_list=ResourceList(entries)))
        assert rd.resource_manager.last_result.passes > 0  # overloaded

        scans = 0
        calls = 0
        inside = False
        periodic_threads = kernel.periodic_threads
        timer_for = rd.scheduler.timer_for

        def counted_periodic_threads():
            nonlocal scans
            scans += inside
            return periodic_threads()

        def counted_timer_for(thread, now):
            nonlocal calls, inside
            calls += 1
            inside = True
            try:
                return timer_for(thread, now)
            finally:
                inside = False

        kernel.periodic_threads = counted_periodic_threads
        rd.scheduler.timer_for = counted_timer_for
        rd.run_for(ms(20))
        assert calls > count
        assert scans == 0
