"""Work counters for the §6.1 A/V pipeline's dispatch loop.

The greedy Sporadic Server polls every 10 µs on unallocated time.  Its
polls continue under one timer stop instead of each costing a pick,
and the two fixed Figure-4 data threads block on channels nobody posts,
so the wake scan never needs to look at them.  Both counts are exact
and machine-independent.
"""

from __future__ import annotations

from repro import scenarios, units

STEP = units.ms_to_ticks(20)


def warmed_pipeline():
    """The pipeline after one step, once the server polls in overtime."""
    scenario = scenarios.av_pipeline(seed=1)
    scenario.rd.run_for(STEP)
    return scenario


def test_pick_runs_a_constant_number_of_times_per_context_switch():
    rd = warmed_pipeline().rd
    calls = 0
    pick = rd.scheduler.pick

    def counted(now):
        nonlocal calls
        calls += 1
        return pick(now)

    rd.scheduler.pick = counted
    switches = len(rd.trace.switches)
    rd.run_for(STEP)
    switches = len(rd.trace.switches) - switches
    # Re-picking after every poll took 1026 picks in this step.
    assert (calls, switches) == (4, 3)
    assert calls <= 2 * switches


def test_wake_scan_takes_nothing_without_a_post():
    scenario = warmed_pipeline()
    rd = scenario.rd
    workload = scenario.extras["workload"]
    channels = (workload.channel7, workload.channel9)
    in_scan = False
    scan_takes = 0
    scan = rd.kernel._scan_wakes

    def watched_scan():
        nonlocal in_scan
        in_scan = True
        try:
            scan()
        finally:
            in_scan = False

    def watched_take(take):
        def counted():
            nonlocal scan_takes
            scan_takes += in_scan
            return take()

        return counted

    rd.kernel._scan_wakes = watched_scan
    for channel in channels:
        channel.try_take = watched_take(channel.try_take)
    rd.run_for(STEP)
    assert [channel.total_posts for channel in channels] == [0, 0]
    assert sorted(b.thread_id for b in rd.trace.blocks) == sorted(
        scenario.threads[name].tid for name in ("data8", "data10")
    )
    assert scan_takes == 0
