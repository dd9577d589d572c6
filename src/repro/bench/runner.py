"""Run registered benches and build the schema-versioned BENCH.json payload.

Absolute wall times are meaningless across machines, so every payload
also records a *calibration* time — the median cost of a fixed
pure-Python loop measured in the same process — and each bench's
``normalized`` cost is its median divided by that calibration.  A 2x
faster machine runs both the bench and the calibration loop ~2x faster,
so normalized costs are comparable across machines and the committed
baseline gates every runner.

The timing helpers take an injectable ``timer`` so the unit tests can
feed scripted clocks; only the timer ever reads the wall clock.
"""

from __future__ import annotations

import statistics
import time
from functools import partial
from typing import Callable, Iterable

from repro.bench.registry import Bench, benches_for

#: Bump when the BENCH.json payload shape changes incompatibly.
SCHEMA_VERSION = 1

#: Iterations of the calibration loop: ~20 ms of pure Python on a
#: current machine — long enough to swamp timer granularity, short
#: enough to repeat.
CALIBRATION_ITERATIONS = 200_000


def calibration_loop(iterations: int = CALIBRATION_ITERATIONS) -> int:
    """A fixed, allocation-free integer workload (an LCG): the unit of
    machine speed that normalizes bench medians."""
    acc = 1
    for _ in range(iterations):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
    return acc


def _time_call(
    fn: Callable[[], object], timer: Callable[[], float]
) -> float:
    start = timer()
    fn()
    return timer() - start


def measure_calibration(
    repetitions: int = 5, timer: Callable[[], float] = time.perf_counter
) -> float:
    """Median wall seconds of the calibration loop over ``repetitions``."""
    samples = [_time_call(calibration_loop, timer) for _ in range(repetitions)]
    return statistics.median(samples)


def bench_entry(samples_s: list[float], ops: int, calibration_s: float) -> dict:
    """Fold raw samples into one bench's BENCH.json record.

    Pure arithmetic — the unit tests feed synthetic samples to pin down
    the median/ops-per-s/normalization math without touching a clock.
    """
    if not samples_s:
        raise ValueError("a bench needs at least one sample")
    if calibration_s <= 0:
        raise ValueError(f"calibration must be positive, got {calibration_s}")
    median = statistics.median(samples_s)
    return {
        "median_s": median,
        "normalized": median / calibration_s,
        "ops_per_s": ops / median if median > 0 else 0.0,
        "samples_s": list(samples_s),
    }


def _time_bench(bench: Bench, timer: Callable[[], float]) -> float:
    """One sample; a bench's ``setup`` runs outside the timed call."""
    if bench.setup is None:
        return _time_call(bench.run, timer)
    state = bench.setup()
    return _time_call(partial(bench.run, state), timer)


def run_bench(
    bench: Bench,
    repetitions: int,
    calibration_s: float,
    timer: Callable[[], float] = time.perf_counter,
) -> dict:
    """Time one bench: a warm-up call, then ``repetitions`` samples."""
    _time_bench(bench, timer)  # warm-up: imports, allocator, caches
    samples = [_time_bench(bench, timer) for _ in range(repetitions)]
    entry = bench_entry(samples, bench.ops, calibration_s)
    entry["suite"] = bench.suite
    entry["ops"] = bench.ops
    entry["description"] = bench.description
    return entry


def run_suites(
    suites: Iterable[str],
    repetitions: int = 5,
    timer: Callable[[], float] = time.perf_counter,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run every bench of every named suite; return the BENCH.json payload."""
    suites = list(suites)
    calibration_s = measure_calibration(timer=timer)
    benches: dict[str, dict] = {}
    for suite in suites:
        for bench in benches_for(suite):
            if progress is not None:
                progress(bench.name)
            benches[bench.name] = run_bench(
                bench, repetitions, calibration_s, timer=timer
            )
    return {
        "schema_version": SCHEMA_VERSION,
        "suites": suites,
        "repetitions": repetitions,
        "calibration_s": calibration_s,
        "benches": benches,
    }
