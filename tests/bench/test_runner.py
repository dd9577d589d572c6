"""The bench runner: registry, scripted-clock timing, and the CLI."""

import json

import pytest

from repro.bench import (
    REGISTRY,
    SCHEMA_VERSION,
    SUITES,
    benches_for,
    calibration_loop,
    measure_calibration,
    run_suites,
    validate_payload,
)
from repro.bench.registry import SCALE_SWITCHES, Bench
from repro.bench.runner import run_bench


class ScriptedTimer:
    """A fake perf_counter advancing a fixed step per call, so timing
    math is exact and no real clock is consulted."""

    def __init__(self, step_s: float) -> None:
        self.now = 0.0
        self.step = step_s

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestRegistry:
    def test_every_bench_lives_in_a_known_suite(self):
        for bench in REGISTRY.values():
            assert bench.suite in SUITES
            assert bench.name.startswith(bench.suite + ".")
            assert bench.ops > 0

    def test_benches_for_partitions_the_registry(self):
        names = [b.name for suite in SUITES for b in benches_for(suite)]
        assert sorted(names) == sorted(REGISTRY)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            benches_for("warp")

    def test_core_suite_covers_the_hot_paths(self):
        names = {b.name for b in benches_for("core")}
        assert {
            "core.av_pipeline",
            "core.grant_underload",
            "core.grant_overload",
            "core.admission_burst",
            "core.admission_burst_batched",
        } <= names


class TestCalibration:
    def test_loop_is_deterministic(self):
        assert calibration_loop(1000) == calibration_loop(1000)

    def test_measure_uses_the_injected_timer(self):
        # Each sample is exactly one timer step; median of equal samples
        # is the step.
        assert measure_calibration(repetitions=3, timer=ScriptedTimer(0.5)) == 0.5


class TestRunBench:
    def test_scripted_timer_yields_exact_entries(self):
        bench = next(iter(benches_for("core")))
        entry = run_bench(bench, repetitions=4, calibration_s=0.25, timer=ScriptedTimer(0.5))
        assert entry["median_s"] == 0.5
        assert entry["normalized"] == 2.0
        assert entry["ops_per_s"] == bench.ops / 0.5
        assert len(entry["samples_s"]) == 4
        assert entry["suite"] == bench.suite


    def test_setup_runs_outside_the_timed_call(self):
        clock = [0.0]
        seen = []

        def setup():
            clock[0] += 100.0
            return "state"

        def run(state):
            seen.append(state)
            clock[0] += 0.5

        bench = Bench(name="core.x", suite="core", ops=1, run=run, setup=setup)
        entry = run_bench(bench, repetitions=3, calibration_s=1.0, timer=lambda: clock[0])
        assert entry["samples_s"] == [0.5, 0.5, 0.5]
        assert seen == ["state"] * 4  # warm-up plus three samples


class TestScaleFamily:
    def test_every_size_is_registered(self):
        assert {f"core.scale_{n}" for n in (32, 128, 512, 2048)} <= set(REGISTRY)

    @pytest.mark.parametrize("n", sorted(SCALE_SWITCHES))
    def test_ops_are_the_runs_context_switches(self, n):
        bench = REGISTRY[f"core.scale_{n}"]
        rd = bench.run(bench.setup())
        assert len(rd.trace.switches) == bench.ops
        assert rd.resource_manager.last_result.passes > 0  # overloaded
        assert not rd.trace.misses()


class TestRunSuites:
    def test_payload_validates_and_names_every_core_bench(self):
        payload = run_suites(["core"], repetitions=1, timer=ScriptedTimer(0.01))
        validate_payload(payload)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert set(payload["benches"]) == {b.name for b in benches_for("core")}

    def test_progress_callback_sees_each_bench(self):
        seen = []
        run_suites(
            ["obs"], repetitions=1, timer=ScriptedTimer(0.01), progress=seen.append
        )
        assert seen == [b.name for b in benches_for("obs")]


class TestCli:
    def test_bench_command_emits_valid_json_and_gates(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH.json"
        assert (
            main(
                [
                    "bench",
                    "--suite",
                    "obs",
                    "--repetitions",
                    "1",
                    "--json",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        payload = validate_payload(json.loads(out.read_text()))
        capsys.readouterr()
        # Self-comparison passes the gate ...
        assert (
            main(
                [
                    "bench",
                    "--suite",
                    "obs",
                    "--repetitions",
                    "1",
                    "--check-against",
                    str(out),
                    "--tolerance",
                    "5.0",
                ]
            )
            == 0
        )
        assert "bench gate: OK" in capsys.readouterr().out
        # ... and a synthetic 2x slowdown of the baseline-relative cost
        # (halve every baseline normalized cost) fails it.
        for entry in payload["benches"].values():
            entry["normalized"] /= 1000.0
        out.write_text(json.dumps(payload))
        assert (
            main(
                [
                    "bench",
                    "--suite",
                    "obs",
                    "--repetitions",
                    "1",
                    "--check-against",
                    str(out),
                    "--tolerance",
                    "0.25",
                ]
            )
            == 1
        )
        assert "REGRESSION" in capsys.readouterr().out
