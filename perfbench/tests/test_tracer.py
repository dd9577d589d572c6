"""Tests for the tracer's self-time arithmetic, the percentile rule, the
cold speed probe's ring, and the claim that tracing does not change what
the program computes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

from measure import percentile, ring, tail_percentile, walk_work  # noqa: E402
from tracer import Tracer, load_spans, self_times  # noqa: E402


class FakeClock:
    """A clock that only moves when a test advances it."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def tick(self, ns: int) -> None:
        self.now += ns


def totals(tracer: Tracer) -> dict[str, tuple[int, int]]:
    return {name: (row["calls"], row["self_ns"]) for name, row in tracer.totals().items()}


def run_root(tracer: Tracer, body) -> int:
    token = tracer.start()
    body()
    tracer.stop(token)
    return tracer.totals()["run"]["total_ns"]


def assert_self_times_add_up(tracer: Tracer, wall: int) -> None:
    assert sum(row["self_ns"] for row in tracer.totals().values()) == wall


def test_nested_spans_subtract_child_time():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def inner():
        clock.tick(30)

    traced_inner = t.wrap(inner, "inner")

    def outer():
        clock.tick(10)
        traced_inner()
        clock.tick(5)
        traced_inner()
        clock.tick(7)

    traced_outer = t.wrap(outer, "outer")

    def body():
        clock.tick(2)
        traced_outer()
        clock.tick(3)

    wall = run_root(t, body)
    assert wall == 2 + 10 + 30 + 5 + 30 + 7 + 3
    assert totals(t) == {"run": (1, 5), "outer": (1, 22), "inner": (2, 60)}
    assert_self_times_add_up(t, wall)


def test_recursion_through_another_layer():
    """A calls B calls A: each span keeps only its own time."""
    clock = FakeClock()
    t = Tracer(clock=clock)
    calls = {"a": None, "b": None}

    def a(depth):
        clock.tick(1)
        if depth:
            calls["b"](depth - 1)
        clock.tick(1)

    def b(depth):
        clock.tick(10)
        calls["a"](depth)

    calls["a"] = t.wrap(a, "layer.a")
    calls["b"] = t.wrap(b, "layer.b")
    wall = run_root(t, lambda: calls["a"](2))
    # a(2) -> b -> a(1) -> b -> a(0): three a spans, two b spans.
    assert totals(t) == {"run": (1, 0), "layer.a": (3, 6), "layer.b": (2, 20)}
    assert_self_times_add_up(t, wall)


def test_direct_self_call_is_one_span():
    clock = FakeClock()
    t = Tracer(clock=clock)
    holder = {}

    def countdown(n):
        clock.tick(4)
        if n:
            holder["f"](n - 1)

    holder["f"] = t.wrap(countdown, "layer")
    wall = run_root(t, lambda: holder["f"](3))
    assert totals(t)["layer"] == (1, 16)
    assert_self_times_add_up(t, wall)


def test_exception_closes_the_span_and_propagates():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def fails():
        clock.tick(8)
        raise ValueError("boom")

    traced = t.wrap(fails, "layer")

    def body():
        with pytest.raises(ValueError):
            traced()
        clock.tick(1)

    wall = run_root(t, body)
    assert totals(t)["layer"] == (1, 8)
    assert t.depth == 0
    assert_self_times_add_up(t, wall)


def test_spans_left_open_are_closed_by_their_parent():
    """An exception skips an inner span's end: the outer end closes
    it at the same instant, so no time is lost or counted twice."""
    clock = FakeClock()
    t = Tracer(clock=clock)
    inner = t.name_id("inner")

    def outer():
        clock.tick(3)
        t.begin(inner)  # never ended: the raise below skips it
        clock.tick(6)
        raise KeyError("lost")

    traced = t.wrap(outer, "outer")

    def body():
        with pytest.raises(KeyError):
            traced()
        clock.tick(2)

    wall = run_root(t, body)
    assert totals(t) == {"run": (1, 2), "outer": (1, 3), "inner": (1, 6)}
    assert t.depth == 0
    assert_self_times_add_up(t, wall)


def test_task_generator_steps_are_spans():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def task(ctx):
        clock.tick(5)
        yield "compute"
        clock.tick(7)
        yield "done"
        clock.tick(1)

    wrapped = t.wrap_task(task)
    assert wrapped.__name__ == "task"

    def body():
        gen = wrapped(None)
        assert [gen.send(None), gen.send(None)] == ["compute", "done"]
        with pytest.raises(StopIteration):
            gen.send(None)

    wall = run_root(t, body)
    assert totals(t)["tasks.step"] == (3, 13)
    assert_self_times_add_up(t, wall)


def test_task_generator_exception_reaches_the_caller():
    t = Tracer(clock=FakeClock())

    def task(ctx):
        yield "compute"
        raise RuntimeError("task crashed")

    gen = t.wrap_task(task)(None)
    token = t.start()
    gen.send(None)
    with pytest.raises(RuntimeError):
        gen.send(None)
    t.stop(token)
    assert t.depth == 0
    assert totals(t)["tasks.step"][0] == 2


def test_written_spans_round_trip(tmp_path):
    clock = FakeClock()
    t = Tracer(clock=clock)
    leaf = t.wrap(lambda: clock.tick(4), "leaf")

    def node():
        clock.tick(1)
        t.new_request()
        leaf()
        leaf()

    traced = t.wrap(node, "node")
    wall = run_root(t, lambda: (traced(), traced()))
    spans = load_spans(t.write(tmp_path / "spans"))
    assert spans["names"] == t.names
    assert len(spans["start_ns"]) == 7
    assert self_times(spans) == {name: row["self_ns"] for name, row in t.totals().items()}
    # Both leaf spans of a node share that node's request id.
    leaves = [i for i in range(7) if spans["names"][spans["name"][i]] == "leaf"]
    assert [spans["request"][i] for i in leaves] == [1, 1, 2, 2]
    assert sum(self_times(spans).values()) == wall


def test_span_storage_cap_keeps_totals():
    clock = FakeClock()
    t = Tracer(clock=clock)
    t.max_spans = 2
    leaf = t.wrap(lambda: clock.tick(1), "leaf")
    wall = run_root(t, lambda: [leaf() for _ in range(5)])
    assert len(t.span_start) == 2
    assert t.spans_dropped == 4
    assert totals(t)["leaf"] == (5, 5)
    assert_self_times_add_up(t, wall)


# -- percentile rule ------------------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert tail_percentile(samples) == expected


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([7], 90) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


def test_cold_probe_ring_is_one_cycle():
    links = ring(1000)
    seen, i = set(), 0
    for _ in range(1000):
        seen.add(i)
        i = links[i]
    assert i == 0 and len(seen) == 1000
    assert walk_work(links, 2000) == 2 * sum(range(1000))


# -- tracing leaves the program's results unchanged ------------------------------


@pytest.mark.parametrize("name", ["av_pipeline", "dense_churn", "control_plane"])
def test_traced_episode_prefix_matches_untraced(name):
    from layers import Instrumenter
    from workloads import WORKLOADS, Recorder

    workload = WORKLOADS[name](7)
    steps = 6

    def run(instrument=None):
        rec = Recorder()
        episode = workload.build(rec, instrument=instrument)
        for i in range(steps):
            episode.step(i, rec)
        return episode.finish(rec), rec

    plain, plain_rec = run()
    tracer = Tracer()
    token = tracer.start()
    traced, traced_rec = run(Instrumenter(tracer))
    tracer.stop(token)
    assert traced == plain
    assert plain_rec.failed == traced_rec.failed == 0
    assert tracer.totals()["kernel.run"]["calls"] > 0
