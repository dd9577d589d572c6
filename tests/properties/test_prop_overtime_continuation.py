"""Property test: overtime continuation and post-driven wakes are pure
optimizations.

The kernel lets a thread picked on unallocated time keep the CPU, under
the same stop, after it declares itself done and asks for more
overtime, as long as nothing the dispatch loop reads has changed; and
it runs the wake scan only after a channel a thread blocked on was
posted.  ``PollingKernel`` is the kernel without either: continuation
is switched off and the wake scan runs at every call site.  For any
stream of greedy and non-greedy Sporadic Servers (with and without
queued sporadic tasks), Figure-4 producers posting to blocked
consumers, period postponement, random overtime requests, and exits,
quiescence, wake-ups, policy overrides and channel posts arriving as
``kernel.at`` events, on the ideal or the calibrated machine, both
kernels must produce identical switches, segments, deadline records,
blocks and grant changes, and check the same number of decisions under
the strict invariant sanitizer.  The baseline schedulers never continue, so the
same holds for them with no sanitizer.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import AdmissionError, MachineConfig, SimConfig, units
from repro.baselines import (
    NaiveEdfSystem,
    RateMonotonicSystem,
    ReservesSystem,
    RialtoSystem,
    SmartSystem,
)
from repro.core.distributor import ResourceDistributor
from repro.core.kernel import Kernel
from repro.core.sporadic import SporadicServer
from repro.core.threads import ThreadState
from repro.tasks.base import Block, Compute, DonePeriod
from repro.tasks.channels import Channel
from repro.tasks.producer_consumer import Figure4Workload
from repro.workloads import grant_follower, greedy_worker
from tests.properties.test_prop_boundary_heap import drifting, three_level


class PollingKernel(Kernel):
    """The kernel with continuation off and the wake scan run at every
    call site, as before either optimization."""

    @property
    def _wake_scan_due(self) -> bool:
        return True

    @_wake_scan_due.setter
    def _wake_scan_due(self, value: bool) -> None:
        pass


def as_reference(kernel: Kernel) -> None:
    kernel.__class__ = PollingKernel
    kernel.policy.continues_overtime = False


# -- task behaviors -----------------------------------------------------------


def jittery(ctx):
    """Consume the grant in random chunks; sometimes ask for overtime."""
    grant = ctx.grant
    spent = 0
    while spent < grant.cpu_ticks:
        step = min(ctx.rng.randint(units.us_to_ticks(50), units.us_to_ticks(400)),
                   grant.cpu_ticks - spent)
        yield Compute(step)
        spent += step
    yield DonePeriod(overtime=ctx.rng.random() < 0.5)


def overrun(ctx):
    """Overrun the grant, then poll on overtime: picked on unallocated
    time before it first declares itself done."""
    yield Compute(ctx.grant.cpu_ticks + units.us_to_ticks(1500))
    while True:
        yield DonePeriod(overtime=True)
        yield Compute(units.us_to_ticks(40))


def poller(channel: Channel):
    """The greedy server's overtime shape: a short poll, a post, then
    done-with-overtime — forever."""

    def body(ctx):
        while True:
            yield Compute(units.us_to_ticks(30))
            channel.post()
            yield DonePeriod(overtime=True)

    return body


def waiter(channel: Channel):
    """Block on ``channel``; process each post."""

    def body(ctx):
        while True:
            yield Block(channel)
            yield Compute(units.us_to_ticks(150))

    return body


def sporadic_body(kind: str, channel: Channel):
    def worker(ctx):
        while True:
            yield Compute(units.us_to_ticks(300))

    def finite(ctx):
        for _ in range(6):
            yield Compute(units.us_to_ticks(200))

    def poster(ctx):
        while True:
            yield Compute(units.us_to_ticks(100))
            channel.post()

    def blocker(ctx):
        while True:
            yield Block(channel)
            yield Compute(units.us_to_ticks(50))

    return {"worker": worker, "finite": finite, "poster": poster, "blocker": blocker}[kind]


BEHAVIORS = ("follower", "greedy", "drift", "jittery", "overrun", "poller", "waiter")


def behavior(kind: str, drift_us: int, channel: Channel):
    return {
        "follower": grant_follower,
        "greedy": greedy_worker,
        "drift": drifting(units.us_to_ticks(drift_us)),
        "jittery": jittery,
        "overrun": overrun,
        "poller": poller(channel),
        "waiter": waiter(channel),
    }[kind]


TASK = st.tuples(
    st.sampled_from([5, 10, 15, 20, 30]),  # period, ms
    st.integers(min_value=2, max_value=14),  # minimum rate, %
    st.sampled_from(BEHAVIORS),
    st.integers(min_value=1, max_value=3000),  # drift, us
)


# -- the Resource Distributor --------------------------------------------------------


@st.composite
def streams(draw):
    """A machine, a server, a task set, and a timed stream of changes."""
    return {
        "ideal": draw(st.booleans()),
        "server": draw(st.sampled_from([None, "greedy", "lazy"])),
        "sporadic": draw(
            st.lists(st.sampled_from(["worker", "finite", "poster", "blocker"]), max_size=3)
        ),
        "pipeline": draw(st.sampled_from([None, "half", "full"])),
        "initial": draw(st.lists(TASK, min_size=1, max_size=5)),
        "ops": draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=110),  # time, ms
                    st.sampled_from(
                        ["admit", "exit", "quiesce", "wake", "override", "post"]
                    ),
                    TASK,
                ),
                max_size=8,
            )
        ),
    }


def run_stream(stream, reference: bool) -> ResourceDistributor:
    rd = ResourceDistributor(
        machine=MachineConfig.ideal() if stream["ideal"] else MachineConfig(),
        sim=SimConfig(seed=1),
        sanitize=True,
        sanitize_strict=True,
    )
    if reference:
        as_reference(rd.kernel)
    channel = Channel("shared")
    names = itertools.count()
    admitted = []

    def admit(spec):
        period_ms, minimum_pct, kind, drift_us = spec
        function = behavior(kind, drift_us, channel)
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
            if kind == "post":
                channel.post()
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
            elif kind == "override":
                # Re-rank every admitted task: shares proportional to
                # spec-seeded weights, 80 % of the CPU in total.
                tids = sorted(manager.admitted_ids())
                weights = [spec[1] + i for i in range(len(tids))]
                rd.set_policy_override(
                    {
                        rd.kernel.threads[tid].policy_id: 80.0 * w / sum(weights)
                        for tid, w in zip(tids, weights)
                    }
                )

        return fire

    if stream["server"] is not None:
        server = SporadicServer(rd, greedy=stream["server"] == "greedy")
        for i, kind in enumerate(stream["sporadic"]):
            server.spawn(f"s{i}.{kind}", sporadic_body(kind, channel))
    if stream["pipeline"] is not None:
        # Figure 4's fixed pipeline: consumers block on channels their
        # producers post every item.
        definitions = Figure4Workload(fixed=True).definitions()
        for definition in definitions[2:] if stream["pipeline"] == "half" else definitions:
            rd.admit(definition)
    for spec in stream["initial"]:
        admit(spec)
    for at_ms, kind, spec in stream["ops"]:
        rd.at(units.ms_to_ticks(at_ms), action(kind, spec))
    rd.run_for(units.ms_to_ticks(130))
    return rd


QUIET = {"ideal": True, "server": None, "sporadic": [], "pipeline": None, "ops": []}


@given(streams())
# A removal-pending thread's boundary passes while the greedy server
# runs overtime: the rollover must not wait for the server's stop.
@example(
    dict(
        QUIET,
        server="greedy",
        initial=[(15, 5, "follower", 1), (20, 5, "follower", 1)],
        ops=[(13, "exit", (10, 5, "follower", 1))],
    )
)
# An overtime poll wakes a blocked waiter that still has granted time:
# the wake's reschedule must end the continuation.
@example(dict(QUIET, initial=[(10, 5, "poller", 1), (10, 5, "waiter", 1)]))
# The middle of three waiters is quiesced while blocked and woken: its
# restart leaves BLOCKED without a wake, so its old place in the FIFO
# must be dropped before it blocks again, or the second post wakes it
# instead of the third waiter.
@example(
    dict(
        QUIET,
        initial=[(10, 5, "waiter", 1)] * 3,
        ops=[
            (5, "quiesce", (10, 5, "waiter", 1)),
            (32, "wake", (10, 5, "waiter", 1)),
            (60, "post", (10, 5, "waiter", 1)),
            (80, "post", (10, 5, "waiter", 1)),
        ],
    )
)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_continuation_and_post_driven_wakes_match_polling_kernel(stream):
    fast = run_stream(stream, reference=False)
    slow = run_stream(stream, reference=True)
    assert fast.sanitizer.ok and slow.sanitizer.ok
    assert fast.sanitizer.decisions_checked == slow.sanitizer.decisions_checked
    assert fast.trace.switches == slow.trace.switches
    assert fast.trace.segments == slow.trace.segments
    assert fast.trace.deadlines == slow.trace.deadlines
    assert fast.trace.blocks == slow.trace.blocks
    assert fast.trace.grant_changes == slow.trace.grant_changes


# -- the baselines --------------------------------------------------------------------

SYSTEMS = {
    "naive-edf": NaiveEdfSystem,
    "rate-monotonic": RateMonotonicSystem,
    "reserves": ReservesSystem,
    "rialto": RialtoSystem,
    "smart": SmartSystem,
}


@st.composite
def baseline_streams(draw):
    """A task set that often overloads the machine (so SMART shares
    fairly), with pollers asking for overtime and Figure-4 consumers
    blocking."""
    return (
        draw(st.sampled_from(sorted(SYSTEMS))),
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.lists(TASK, min_size=2, max_size=6)),
        draw(st.lists(st.integers(min_value=1, max_value=110), max_size=3)),
    )


def run_baseline(stream, reference: bool):
    name, ideal, pipeline, tasks, exits = stream
    system = SYSTEMS[name](
        machine=MachineConfig.ideal() if ideal else MachineConfig(),
        sim=SimConfig(seed=1),
    )
    if reference:
        as_reference(system.kernel)
    channel = Channel("shared")
    # A small overrunner goes first: under SMART's fair share it is
    # picked past its grant and then declares itself done mid-slice.
    admitted = [system.admit(three_level("overrun", 10, 2, overrun))]
    if pipeline:
        for definition in Figure4Workload(fixed=True).definitions():
            admitted.append(system.admit(definition))
    for i, (period_ms, minimum_pct, kind, drift_us) in enumerate(tasks):
        definition = three_level(
            f"b{i}", period_ms, minimum_pct, behavior(kind, drift_us, channel)
        )
        try:
            # Entry 0 (3x the minimum) overloads the machine quickly.
            admitted.append(system.admit(definition))
        except AdmissionError:
            pass

    def exit_one():
        live = [t for t in admitted if t.state is not ThreadState.EXITED]
        if live:
            live[len(live) // 2].state = ThreadState.EXITED

    for at_ms in exits:
        system.at(units.ms_to_ticks(at_ms), exit_one)
    system.run_for(units.ms_to_ticks(130))
    return system


@given(baseline_streams())
# SMART in overload: the overrunner declares itself done with overtime
# past its grant, and fair share must then pick someone else.
@example(("smart", True, False, [(10, 14, "greedy", 1)] * 3, []))
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_baselines_match_polling_kernel(stream):
    fast = run_baseline(stream, reference=False)
    slow = run_baseline(stream, reference=True)
    assert fast.trace.switches == slow.trace.switches
    assert fast.trace.segments == slow.trace.segments
    assert fast.trace.deadlines == slow.trace.deadlines
    assert fast.trace.blocks == slow.trace.blocks
    assert fast.trace.grant_changes == slow.trace.grant_changes


def test_no_baseline_policy_continues():
    for system in SYSTEMS.values():
        assert not getattr(system.policy_class, "continues_overtime", False)
