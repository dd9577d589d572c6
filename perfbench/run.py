#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 1
    python3 perfbench/run.py --check      # recorded seeds of every workload
    python3 perfbench/run.py --record     # re-record their digests

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures for ``--seconds`` seconds of timed client calls
and reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs one episode untraced and the same episode with every
layer wrapped, reports the per-layer metrics, and writes the spans to
``.perfbench_out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"

#: p90 needs this many samples (ten beyond it).
MIN_SAMPLES = 100


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(EXPECTED) as f:
        return json.load(f)[workload]["digests"].get(str(seed))


def check_digest(rec, label: str, digest, *references) -> None:
    """``digest`` must equal every reference that is known."""
    for name, ref in references:
        if ref is not None:
            rec.check(digest == ref, f"{label} digest {digest} != {name} {ref}")


def run_untraced(workload, seconds: float, recorded: str | None):
    """Episodes until ``seconds`` of timed client calls have passed (the
    first episode always completes).  Every completed episode's digest
    must equal the workload's reference run, the first episode and
    ``recorded``.  Returns (recorder, metrics, sample counts, digest)."""
    from statistics import median

    from measure import peak_rss_mb, percentile
    from repro import units
    from workloads import Recorder, clock

    rec = Recorder(calibrate=True)
    reference = workload.reference(rec)
    setups = rec.setup_ns

    def set_up():
        # Free the previous system now, so each set-up starts from the
        # same heap.
        gc.collect()
        rec.refresh(cold=True)
        start = clock()
        system = workload.build(rec)
        setups.append(rec.scaled(clock() - start))
        return system

    budget = seconds * 1e9
    measured = 0
    first = None
    switch_ticks = sim_ticks = 0
    while True:
        # Extra set-ups before every episode spread the set-up samples
        # over the run, so slow stretches of a shared host fall on them
        # as they fall on the steps.
        for _ in range(workload.setup_repeats):
            set_up()
        episode = set_up()
        complete = True
        for i in range(workload.episode_steps):
            if (
                first is not None
                and measured >= budget
                and len(rec.step_ns) >= MIN_SAMPLES
                and len(rec.admit_ns) >= MIN_SAMPLES
            ):
                complete = False
                break
            measured += episode.step(i, rec)
        digest = episode.finish(rec)
        if not complete:
            break
        check_digest(
            rec, "episode", digest,
            ("reference run", reference), ("first episode", first), ("recorded", recorded),
        )
        switch, ticks = episode.overhead()
        switch_ticks += switch
        sim_ticks += ticks
        first = digest
        del episode
    admit = rec.admit_ns
    steps = rec.step_ns
    metrics = {
        "sim_ms_per_s": rec.sim_ticks / units.ms_to_ticks(1) / (rec.advance_ns / 1e9),
        "admit_p50_us": median(admit) / 1e3,
        "admit_p90_us": percentile(admit, 90) / 1e3,
        "step_p50_us": median(steps) / 1e3,
        "step_p90_us": percentile(steps, 90) / 1e3,
        "ops_per_s": rec.ops / (rec.op_ns / 1e9),
        "setup_s": median(setups) / 1e9,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - rec.failed / rec.attempted,
        "sim_overhead_pct": 100.0 * switch_ticks / sim_ticks,
    }
    samples = {
        "admit_p50_us": len(admit),
        "admit_p90_us": len(admit),
        "step_p50_us": len(steps),
        "step_p90_us": len(steps),
        "setup_s": len(setups),
    }
    return rec, metrics, samples, first


def run_traced(workload):
    """One episode untraced, then the same episode traced."""
    from layers import Instrumenter
    from tracer import Tracer
    from workloads import Recorder, clock

    plain = Recorder()
    start = clock()
    episode = workload.build(plain)
    for i in range(workload.episode_steps):
        episode.step(i, plain)
    untraced_ns = clock() - start
    untraced_digest = episode.finish(plain)
    del episode

    tracer = Tracer()
    instrument = Instrumenter(tracer)
    rec = Recorder(on_request=tracer.new_request)
    token = tracer.start()
    episode = workload.build(rec, instrument=instrument)
    for i in range(workload.episode_steps):
        episode.step(i, rec)
    tracer.stop(token)
    # Report before the digest: computing it reads through wrapped
    # methods, which would add spans outside the traced window.
    totals = tracer.totals()
    wall_ns = totals["run"]["total_ns"]
    rec.check(
        sum(row["self_ns"] for row in totals.values()) == wall_ns,
        "span self times do not add up to the traced wall time",
    )
    metrics = instrument.report(wall_ns, untraced_ns)
    unknown = set(totals) - {name.rsplit(".", 1)[0] for name in metrics} - {"run"}
    rec.check(not unknown, f"spans outside the report: {sorted(unknown)}")
    path = tracer.write(OUT / f"{workload.name}-seed{workload.seed}.spans")
    print(f"spans: {path} ({len(tracer.span_start)} stored)")
    digest = episode.finish(rec)
    check_digest(
        rec, "traced", digest,
        ("untraced run", untraced_digest),
        ("recorded", recorded_digest(workload.name, workload.seed)),
    )
    rec.absorb(plain)
    return rec, metrics, {}


def report(workload: str, seed: int, rec, metrics, units, samples) -> dict:
    """Print a readable table, then return the result object."""
    from measure import tail_percentile

    print(f"{workload} seed={seed}: {rec.attempted} attempted, {rec.failed} failed")
    for name, value in metrics.items():
        n = samples.get(name)
        note = ""
        if n is not None:
            tail = tail_percentile(n)
            note = f"  (n={n}; highest percentile with 10 beyond: p{tail:g})" if tail else f"  (n={n})"
        print(f"  {name:34s} {value:14.6g} {units[name]}{note}")
    for failure in rec.failures:
        print(f"  FAILED: {failure}")
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def check_recorded(record: bool) -> int:
    """Run every workload on its development and held-out seed; with
    ``record``, write their digests instead of comparing them."""
    from workloads import WORKLOADS

    with open(EXPECTED) as f:
        expected = json.load(f)
    status = 0
    for name, cls in WORKLOADS.items():
        entry = expected[name]
        for seed in (entry["dev_seed"], entry["heldout_seed"]):
            recorded = None if record else entry["digests"].get(str(seed))
            rec, _, _, digest = run_untraced(cls(seed), 0, recorded)
            entry["digests"][str(seed)] = digest
            status |= rec.failed != 0
            print(f"{name} seed={seed}: {'FAILED' if rec.failed else 'ok'} {digest}")
            for failure in rec.failures:
                print(f"  {failure}")
    if record:
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=2)
            f.write("\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.check or args.record:
        return check_recorded(args.record)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    bench = spec()
    if args.trace:
        rec, metrics, samples = run_traced(workload)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        recorded = recorded_digest(workload.name, workload.seed)
        rec, metrics, samples, _ = run_untraced(workload, args.seconds, recorded)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    result = report(args.workload, args.seed, rec, {n: metrics[n] for n in units}, units, samples)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
