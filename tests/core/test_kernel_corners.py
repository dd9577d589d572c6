"""Kernel corner cases: ops at boundaries, assignments, postponement."""

import pytest

from repro import MachineConfig, SimConfig, SporadicServer, TaskDefinition, units
from repro.core.distributor import ResourceDistributor
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.core.threads import ThreadState
from repro.errors import SimulationError
from repro.tasks.base import AssignGrant, Block, Compute, DonePeriod, InsertIdleCycles
from repro.tasks.channels import Channel
from repro.workloads import grant_follower

from tests.conftest import admit_simple


def ms(x):
    return units.ms_to_ticks(x)


def one_entry(name, fn, period_ms=10, rate=0.4):
    period = ms(period_ms)
    return TaskDefinition(
        name=name,
        resource_list=ResourceList(
            [ResourceListEntry(period, round(period * rate), fn, name)]
        ),
    )


class TestInsertIdleCycles:
    def test_multiple_inserts_accumulate(self, ideal_rd):
        starts = []

        def task(ctx):
            starts.append(ctx.delivery.period_start)
            yield Compute(ms(1))
            yield InsertIdleCycles(ms(1))
            yield InsertIdleCycles(ms(2))
            yield DonePeriod()

        ideal_rd.admit(one_entry("poster", task))
        ideal_rd.run_for(ms(50))
        gaps = {b - a for a, b in zip(starts, starts[1:])}
        # 10 ms period + 3 ms accumulated postponement each period.
        assert gaps == {ms(13)}

    def test_postponed_thread_does_not_run_between_periods(self, ideal_rd):
        def task(ctx):
            yield Compute(ms(2))
            yield InsertIdleCycles(ms(5))
            yield DonePeriod()

        thread = ideal_rd.admit(one_entry("poster", task))
        ideal_rd.run_for(ms(60))
        for a, b in zip(
            ideal_rd.trace.segments_for(thread.tid),
            ideal_rd.trace.segments_for(thread.tid)[1:],
        ):
            assert b.start - a.end >= ms(10) + ms(5) - ms(2) - 1

    def test_switch_across_a_postponed_start_keeps_the_grant(self):
        """A context switch whose cost carries the clock past a period
        start postponed by InsertIdleCycles makes the pick stale, as a
        period opening inside the switch does.  Dispatching it anyway
        let Idle run through most of the drifting thread's period."""
        rd = ResourceDistributor(
            machine=MachineConfig(), sim=SimConfig(seed=1), sanitize=True
        )
        drift = units.us_to_ticks(68)

        def drifting(ctx):
            yield Compute(ctx.grant.cpu_ticks)
            yield InsertIdleCycles(drift)
            yield DonePeriod()

        rd.admit(one_entry("steady", grant_follower, period_ms=5, rate=0.2))
        thread = rd.admit(one_entry("drift", drifting, period_ms=5, rate=0.2))
        rd.run_for(ms(100))  # the strict sanitizer raises on a miss
        assert not rd.trace.misses(thread.tid)


class TestAssignGrantEdges:
    def test_assign_to_unknown_task_is_ignored(self, ideal_rd):
        def assigner(ctx):
            yield AssignGrant(9999, ms(1))
            yield Compute(ms(1))
            yield DonePeriod()

        thread = ideal_rd.admit(one_entry("assigner", assigner))
        ideal_rd.run_for(ms(30))
        assert not ideal_rd.trace.misses()
        assert thread.assignment_target is None

    def test_assign_to_periodic_thread_is_ignored(self, ideal_rd):
        other = admit_simple(ideal_rd, "other", period_ms=10, rate=0.2)

        def assigner(ctx):
            yield AssignGrant(other.tid, ms(1))
            yield Compute(ms(1))
            yield DonePeriod()

        thread = ideal_rd.admit(one_entry("assigner", assigner))
        ideal_rd.run_for(ms(30))
        assert thread.assignment_target is None

    def test_assignment_survives_period_boundaries(self, ideal_rd):
        """A 30 ms assignment against a 1 ms/10 ms server grant spans
        many periods ('the assignment extends over multiple periods')."""
        progress = []

        def long_job(ctx):
            for _ in range(300):
                yield Compute(units.us_to_ticks(100))
                progress.append(ctx.now)

        server = SporadicServer(
            ideal_rd,
            period=ms(10),
            cpu_ticks=ms(1),
            slice_ticks=ms(30),
            greedy=False,
        )
        job = server.spawn("long", long_job)
        admit_simple(ideal_rd, "load", period_ms=10, rate=0.8, greedy=True)
        ideal_rd.run_for(ms(400))
        assert job.state is ThreadState.EXITED
        spread = progress[-1] - progress[0]
        assert spread > ms(100)  # work spread across many server periods


class TestBlockingCorners:
    def test_block_with_pending_post_does_not_block(self, ideal_rd):
        channel = Channel("pre")
        channel.post()
        ran = []

        def task(ctx):
            yield Block(channel)
            ran.append(ctx.now)
            yield Compute(ms(1))
            yield DonePeriod()

        thread = ideal_rd.admit(one_entry("taker", task))
        ideal_rd.run_for(ms(15))
        assert ran  # the pre-posted item was consumed without blocking
        # Period 0 produced no Block record; the fresh period-1 call
        # blocks (callback semantics, empty channel).
        period0_blocks = [
            b for b in ideal_rd.trace.blocks if b.blocked and b.time < ms(10)
        ]
        assert period0_blocks == []

    def test_two_threads_blocked_on_one_channel_wake_in_turn(self, ideal_rd):
        channel = Channel("shared")
        woken = []

        def make(name):
            def task(ctx):
                yield Block(channel)
                woken.append(name)
                yield Compute(ms(1))

            return one_entry(name, task, rate=0.2)

        ideal_rd.admit(make("a"))
        ideal_rd.admit(make("b"))
        ideal_rd.at(ms(15), channel.post)
        ideal_rd.at(ms(25), channel.post)
        ideal_rd.run_for(ms(60))
        assert sorted(woken) == ["a", "b"]

    def test_wake_after_a_long_slice_voids_the_periods_it_slept_through(self):
        """The timer ignores a blocked thread's boundaries, so one long
        overtime slice (the server running a sporadic task for 10 ms)
        carries the clock past two of them.  A post later in that slice
        wakes the thread; the periods it slept through must close as
        blocked, not as missed grants."""
        rd = ResourceDistributor(
            machine=MachineConfig.ideal(), sim=SimConfig(seed=1), sanitize=True
        )
        channel = Channel("late")

        def waiter(ctx):
            while True:
                yield Block(channel)
                yield Compute(units.us_to_ticks(150))

        def worker(ctx):
            while True:
                yield Compute(units.us_to_ticks(300))

        def poster(ctx):
            while True:
                yield Compute(units.us_to_ticks(100))
                channel.post()

        server = SporadicServer(rd, greedy=True)
        server.spawn("worker", worker)
        server.spawn("poster", poster)
        thread = rd.admit(one_entry("waiter", waiter, period_ms=5, rate=0.06))
        rd.run_for(ms(30))  # the strict sanitizer raises on a miss
        closes = [d for d in rd.trace.deadlines if d.thread_id == thread.tid]
        assert [d.voided for d in closes[:3]] == [True, True, True]
        assert not rd.trace.misses(thread.tid)


class TestEventApi:
    def test_past_event_rejected(self, ideal_rd):
        ideal_rd.run_for(ms(10))
        with pytest.raises(SimulationError):
            ideal_rd.kernel.at(ms(5), lambda: None)

    def test_run_until_requires_policy(self):
        from repro import MachineConfig, SimConfig
        from repro.core.kernel import Kernel

        kernel = Kernel(MachineConfig.ideal(), SimConfig(seed=0))
        with pytest.raises(SimulationError):
            kernel.run_until(1000)

    def test_double_policy_bind_rejected(self, ideal_rd):
        with pytest.raises(SimulationError):
            ideal_rd.kernel.bind_policy(object())


class TestZeroWorkPeriods:
    def test_instant_done_task_is_fine(self, ideal_rd):
        """A task that declares done immediately consumes nothing but
        still closes periods without being counted as missing."""

        def lazy(ctx):
            yield DonePeriod()

        thread = ideal_rd.admit(one_entry("lazy", lazy))
        ideal_rd.run_for(ms(50))
        outcomes = ideal_rd.trace.deadlines_for(thread.tid)
        assert len(outcomes) == 5
        assert not any(o.missed for o in outcomes)
