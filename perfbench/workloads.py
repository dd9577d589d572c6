"""The benchmark's three workloads.

Each workload turns its seed into task definitions and client ops, then
drives the program in a closed loop with one client: the next op is
sent only when the previous one has returned.  A run is a sequence of
*episodes*.  Every episode builds a fresh system (that is the set-up
the ``setup_s`` metric times) and replays the same seeded ops, so

* every completed episode of a seed must end in the same digest, which
  is also checked against an untimed reference run and, for the
  recorded seeds, against ``expected.json``;
* memory stays bounded by one episode's state, so ``peak_rss_mb`` does
  not grow with how fast the program is.

An episode's ``step`` performs one closed-loop client step, records its
timings into a :class:`Recorder`, and returns the host ns it spent in
timed client calls.  Checks run in ``finish`` and in the untimed
reference runs, outside every timed call.
"""

from __future__ import annotations

import random
import time

from repro import units
from repro.config import MachineConfig, SimConfig
from repro.core.distributor import ResourceDistributor
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.core.sporadic import SporadicServer
from repro.errors import AdmissionError, SanitizerViolation
from repro.tasks.ac3 import Ac3Decoder
from repro.tasks.base import TaskDefinition
from repro.tasks.mpeg import MpegDecoder
from repro.tasks.producer_consumer import Figure4Workload
from repro.workloads import grant_follower

from measure import Speed, combine, sim_digest

clock = time.perf_counter_ns


class Recorder:
    """Timings, counts and failures of one run."""

    def __init__(self, on_request=None, calibrate: bool = False) -> None:
        #: With ``calibrate``, host times are recorded at the reference
        #: speed (see :class:`measure.Speed`); otherwise as measured.
        #: Set-ups start on a freshly collected heap, so they are scaled
        #: by the cold probe, everything else by the warm one.
        self._speeds = (Speed(clock), Speed(clock, cold=True)) if calibrate else None
        self._speed = None
        #: Host ns per call that advances the system (run_for / commit).
        self.step_ns: list[int] = []
        #: Host ns per admission-control call (admit / exit_thread).
        self.admit_ns: list[int] = []
        #: Host ns per set-up: building a system and admitting its
        #: initial population.
        self.setup_ns: list[int] = []
        #: Simulated ticks advanced by the timed advancing calls, and
        #: the host ns those calls took.
        self.sim_ticks = 0
        self.advance_ns = 0
        #: Client ops completed, and the host ns all timed ops took.
        self.ops = 0
        self.op_ns = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._on_request = on_request

    def refresh(self, cold: bool = False) -> None:
        """Just before a timed client call (``cold``: a set-up): re-time
        the speed probe that scales it."""
        if self._speeds is not None:
            self._speed = self._speeds[cold]
            self._speed.sample()

    def scaled(self, ns: int) -> float:
        return ns if self._speed is None else self._speed.scale(ns)

    def request(self) -> None:
        """A new client request starts (the traced run groups spans by it)."""
        if self._on_request is not None:
            self._on_request()

    def absorb(self, other: "Recorder") -> None:
        """Count ``other``'s checks as this recorder's (not its timings)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[: 20 - len(self.failures)]

    def check(self, ok: bool, message: str) -> None:
        """Count one output check; a failing one is a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)


def overhead(distributors, sim_ticks: int) -> tuple[int, int]:
    """(simulated context-switch ticks, simulated ticks) over machines."""
    switch = sum(rd.trace.switch_cost_ticks() for rd in distributors)
    return switch, sim_ticks * len(distributors)


# -- av_pipeline ----------------------------------------------------------------


class AvPipeline:
    """The §6.1 A/V pipeline: MPEG + AC3 + the two fixed Figure-4 data
    threads + a greedy Sporadic Server on the calibrated machine, obs
    off, run in 20 ms simulated steps.

    Its only admission-control calls are the five that set it up, so
    its admission and set-up samples come from the ``setup_repeats``
    set-ups run before each episode."""

    name = "av_pipeline"
    step_ticks = units.ms_to_ticks(20)
    #: 4 s simulated: ~530 context switches, so the seeded switch costs
    #: average out in sim_overhead_pct.
    episode_steps = 200
    setup_repeats = 48

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self, rec: Recorder, instrument=None, sanitize: bool = False) -> "AvEpisode":
        rd = ResourceDistributor(
            machine=MachineConfig(), sim=SimConfig(seed=self.seed), sanitize=sanitize
        )
        if instrument is not None:
            instrument.distributor(rd)
        rec.request()
        start = clock()
        SporadicServer(rd, greedy=True)
        rec.admit_ns.append(rec.scaled(clock() - start))
        data = Figure4Workload(fixed=True).definitions()
        for definition in (
            MpegDecoder().definition(),
            Ac3Decoder().definition(),
            data[1],
            data[3],
        ):
            rec.request()
            start = clock()
            rd.admit(definition)
            rec.admit_ns.append(rec.scaled(clock() - start))
        return AvEpisode(self, rd)

    def reference(self, rec: Recorder) -> str:
        """One untimed episode under the strict InvariantSanitizer."""
        episode = self.build(Recorder(), sanitize=True)
        try:
            for i in range(self.episode_steps):
                episode.step(i, Recorder())
        except SanitizerViolation as exc:
            rec.check(False, f"sanitizer: {exc}")
            return None
        rec.check(
            episode.rd.sanitizer.ok,
            f"sanitizer: {episode.rd.sanitizer.summary()}",
        )
        return episode.finish(rec)


class AvEpisode:
    def __init__(self, workload: AvPipeline, rd) -> None:
        self.workload = workload
        self.rd = rd

    def step(self, index: int, rec: Recorder) -> int:
        ticks = self.workload.step_ticks
        rec.refresh()
        rec.request()
        start = clock()
        self.rd.run_for(ticks)
        spent = clock() - start
        scaled = rec.scaled(spent)
        rec.step_ns.append(scaled)
        rec.sim_ticks += ticks
        rec.advance_ns += scaled
        rec.ops += 1
        rec.op_ns += scaled
        rec.attempted += 1
        return spent

    def finish(self, rec: Recorder) -> str:
        return sim_digest(self.rd.trace)

    def overhead(self) -> tuple[int, int]:
        return overhead([self.rd], self.rd.now)


# -- dense_churn ------------------------------------------------------------------


class DenseChurn:
    """Several hundred periodic tasks with 3-level sheddable resource
    lists whose minima sum just under capacity, churned one exit plus
    one admission per 20 ms simulated step."""

    name = "dense_churn"
    tasks = 512
    #: Share of schedulable capacity the initial minima commit.
    fill = 0.998
    periods_ms = (500, 1000, 2000)
    step_ticks = units.ms_to_ticks(20)
    episode_steps = 240
    setup_repeats = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.machine = MachineConfig()
        rng = random.Random(seed)
        capacity = self.machine.schedulable_capacity
        weights = [rng.uniform(0.8, 1.2) for _ in range(self.tasks)]
        scale = self.fill * capacity / sum(weights)
        periods = self.periods_ms
        self.initial = [
            self._definition(f"t{i}", w * scale, units.ms_to_ticks(periods[i % len(periods)]))
            for i, w in enumerate(weights)
        ]
        live = [
            (d.name, d.resource_list.minimum.rate, d.resource_list.minimum.period)
            for d in self.initial
        ]
        slack = capacity - sum(rate for _, rate, _ in live)
        #: Per step: the task to exit (or None) and the newcomer, with
        #: the outcome the admission arithmetic predicts for it.  Every
        #: eighth newcomer asks for more than the exit frees plus all
        #: the slack, so it is denied; the step after a denial exits
        #: nothing and admits into the freed minimum.  A newcomer takes
        #: the period of the task it replaces, so the period mix, and
        #: with it the switch rate, stays that of the initial set.
        self.churn = []
        freed = 0.0
        for i in range(self.episode_steps):
            leaving = None
            if not freed:
                leaving, freed, period = live.pop(rng.randrange(len(live)))
            if i % 8 == 7 and leaving is not None:
                minimum = freed + slack + 0.1 * scale
                admit = False
            else:
                minimum = freed * rng.uniform(0.7, 1.0)
                admit = True
            definition = self._definition(f"c{i}", minimum, period)
            if admit:
                rate = definition.resource_list.minimum.rate
                slack += freed - rate
                freed = 0.0
                live.append((definition.name, rate, period))
            self.churn.append((leaving, definition, admit))

    def _definition(self, name: str, minimum: float, period: int) -> TaskDefinition:
        entries = [
            ResourceListEntry(period, max(1, round(period * rate)), grant_follower, f"{name}.{level}")
            for level, rate in enumerate((3 * minimum, 2 * minimum, minimum))
        ]
        return TaskDefinition(name=name, resource_list=ResourceList(entries))

    def build(self, rec: Recorder, instrument=None) -> "ChurnEpisode":
        rd = ResourceDistributor(machine=self.machine, sim=SimConfig(seed=self.seed))
        if instrument is not None:
            instrument.distributor(rd)
        rec.request()
        tids = {}
        with rd.resource_manager.deferred_recompute():
            for definition in self.initial:
                tids[definition.name] = rd.admit(definition).tid
        return ChurnEpisode(self, rd, tids)

    def reference(self, rec: Recorder) -> None:
        """None: episodes are checked against each other and, for the
        recorded seeds, against ``expected.json``."""
        return None


class ChurnEpisode:
    def __init__(self, workload: DenseChurn, rd, tids: dict[str, int]) -> None:
        self.workload = workload
        self.rd = rd
        #: task name -> thread id, for the tasks the churn may exit.
        self.tids = tids

    def step(self, index: int, rec: Recorder) -> int:
        rd = self.rd
        ticks = self.workload.step_ticks
        rec.refresh()
        rec.request()
        start = clock()
        rd.run_for(ticks)
        spent = clock() - start
        scaled = rec.scaled(spent)
        rec.step_ns.append(scaled)
        rec.sim_ticks += ticks
        rec.advance_ns += scaled
        rec.ops += 1
        rec.attempted += 1
        total = spent
        leaving, definition, predicted = self.workload.churn[index]
        if leaving is not None:
            tid = self.tids.pop(leaving)
            rec.refresh()
            rec.request()
            start = clock()
            rd.exit_thread(tid)
            spent = clock() - start
            rec.admit_ns.append(rec.scaled(spent))
            rec.ops += 1
            rec.attempted += 1
            total += spent
        minimum = definition.resource_list.minimum
        headroom_ok = rd.resource_manager.admission.can_admit(minimum.rate, minimum.bandwidth)
        rec.refresh()
        rec.request()
        start = clock()
        try:
            thread = rd.admit(definition)
        except AdmissionError:
            thread = None
        spent = clock() - start
        rec.admit_ns.append(rec.scaled(spent))
        rec.ops += 1
        total += spent
        admitted = thread is not None
        rec.check(
            admitted == headroom_ok == predicted,
            f"{definition.name}: admitted={admitted}, headroom test "
            f"{headroom_ok}, predicted {predicted}",
        )
        if admitted:
            self.tids[definition.name] = thread.tid
        rec.op_ns += rec.scaled(total)
        return total

    def finish(self, rec: Recorder) -> str:
        misses = self.rd.trace.misses()
        rec.check(not misses, f"admitted tasks missed {len(misses)} deadlines")
        return sim_digest(self.rd.trace)

    def overhead(self) -> tuple[int, int]:
        return overhead([self.rd], self.rd.now)


# -- control_plane ------------------------------------------------------------------


class ControlPlane:
    """One in-process ServeEngine (4 nodes, its eager ObsSession) driven
    by group commits of seeded submits and removes, each followed by
    three reads."""

    name = "control_plane"
    nodes = 4
    initial_tasks = 60
    #: Live population the submit/remove mix steers toward.
    target_live = 110
    episode_steps = 400
    setup_repeats = 2
    #: One period for every task, so how many switches a population
    #: costs does not hinge on which tasks the seed removes.
    period_ms = 20.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self._next = 0
        live: list[str] = []
        self.initial = [self._submit(rng, live) for _ in range(self.initial_tasks)]
        # Group sizes 1..8 each once per block of eight steps, and in
        # every block of 100 ops three oversized submits, two duplicate
        # submits and two removes of unknown tasks, so the seed moves
        # which ops come when but not how many of each there are.
        sizes = self._blocks(rng, list(range(1, 9)), self.episode_steps)
        specials = ["denied"] * 3 + ["rejected"] * 2 + ["absent"] * 2
        kinds = iter(
            self._blocks(rng, specials + [None] * (100 - len(specials)), sum(sizes))
        )
        #: Per step: the group of ops, their expected statuses, and the
        #: task read back with the status it must show.
        self.steps = [self._group(rng, live, [next(kinds) for _ in range(size)]) for size in sizes]

    @staticmethod
    def _blocks(rng: random.Random, block: list, count: int) -> list:
        """``count`` items: shuffled copies of ``block``, end to end."""
        out: list = []
        while len(out) < count:
            shuffled = list(block)
            rng.shuffle(shuffled)
            out += shuffled
        return out[:count]

    def _spec(self, rate: float) -> dict:
        name = f"task{self._next:05d}"
        self._next += 1
        return {"name": name, "period_ms": self.period_ms, "rate": rate}

    def _submit(self, rng: random.Random, live: list[str]) -> dict:
        spec = self._spec(round(rng.uniform(0.001, 0.004), 5))
        live.append(spec["name"])
        return {"op": "submit", "spec": spec}

    def _group(self, rng: random.Random, live: list[str], kinds: list):
        # Names submitted in this group are not removable until it has
        # settled, so removes draw only from earlier groups' tasks.
        earlier = list(live)
        ops, expect = [], []
        for kind in kinds:
            if kind == "denied":
                # Over any node's schedulable capacity: denied everywhere.
                ops.append({"op": "submit", "spec": self._spec(0.99)})
            elif kind == "rejected":
                spec = self._spec(0.002) | {"name": rng.choice(earlier)}
                ops.append({"op": "submit", "spec": spec})
            elif kind == "absent":
                ops.append({"op": "remove", "task": f"ghost{self._next:05d}"})
                self._next += 1
            elif earlier and rng.random() >= 0.5 + (self.target_live - len(live)) / 40:
                # Steer the live population back toward the target.
                name = earlier.pop(rng.randrange(len(earlier)))
                live.remove(name)
                ops.append({"op": "remove", "task": name})
                kind = "removed"
            else:
                ops.append(self._submit(rng, live))
                kind = "admitted"
            expect.append(kind)
        # Read back the first task whose final status this group decides.
        read = ("task00000", None)
        for op, status in zip(ops, expect):
            if status in ("admitted", "denied", "removed"):
                read = (op.get("task") or op["spec"]["name"], status)
                break
        return ops, expect, read

    def engine(self):
        from repro.serve.engine import ServeEngine

        return ServeEngine(nodes=self.nodes, seed=self.seed)

    def build(self, rec: Recorder, instrument=None) -> "ControlEpisode":
        engine = self.engine()
        if instrument is not None:
            instrument.engine(engine)
        episode = ControlEpisode(self, engine, rec)
        rec.request()
        statuses = [r["status"] for r in engine.commit(self.initial)]
        rec.check(
            statuses == ["admitted"] * len(self.initial),
            f"initial population: {statuses}",
        )
        return episode

    def reference(self, rec: Recorder) -> str:
        """One untimed episode; a fresh engine replaying its oplog must
        reach the same state digest."""
        scratch = Recorder()
        episode = self.build(scratch)
        for i in range(self.episode_steps):
            episode.step(i, scratch)
        rec.absorb(scratch)
        fresh = self.engine()
        fresh.replay(episode.engine.oplog)
        rec.check(
            fresh.state_digest() == episode.engine.state_digest(),
            "replaying the oplog on a fresh engine gave another state digest",
        )
        return episode.finish(rec)


class ControlEpisode:
    def __init__(self, workload: ControlPlane, engine, rec: Recorder) -> None:
        self.workload = workload
        self.engine = engine
        self.stuck = 0
        sim = engine.sim
        settle = sim.settle

        def checked_settle(*args, **kwargs):
            ok = settle(*args, **kwargs)
            if not ok:
                self.stuck += 1
            return ok

        sim.settle = checked_settle
        # Admission-control calls happen inside the engine, at each
        # node's distributor: time them there.
        for node in sim.nodes.values():
            rd = node.rd
            rd.admit = self._timed(rd.admit, rec)
            rd.exit_thread = self._timed(rd.exit_thread, rec)

    @staticmethod
    def _timed(fn, rec: Recorder):
        samples = rec.admit_ns
        scaled = rec.scaled

        def timed(arg):
            start = clock()
            try:
                return fn(arg)
            finally:
                samples.append(scaled(clock() - start))

        return timed

    def step(self, index: int, rec: Recorder) -> int:
        engine = self.engine
        ops, expect, (read, read_status) = self.workload.steps[index]
        before = engine.sim.now
        rec.refresh()
        rec.request()
        start = clock()
        results = engine.commit(ops)
        spent = clock() - start
        scaled = rec.scaled(spent)
        rec.step_ns.append(scaled)
        rec.sim_ticks += engine.sim.now - before
        rec.advance_ns += scaled
        total = spent
        rec.request()
        start = clock()
        task = engine.task(read)
        total += clock() - start
        rec.request()
        start = clock()
        nodes = engine.nodes()
        total += clock() - start
        rec.request()
        start = clock()
        stats = engine.stats()
        total += clock() - start
        rec.check(
            task is not None and read_status in (None, task["status"]),
            f"task({read}) read {task and task['status']}, expected {read_status}",
        )
        rec.check(len(nodes) == self.workload.nodes, f"nodes() listed {len(nodes)} nodes")
        rec.check(stats["operations"] == len(engine.oplog), f"stats() {stats}")
        rec.ops += len(ops) + 3
        rec.op_ns += rec.scaled(total)
        for op, result, status in zip(ops, results, expect):
            rec.check(result["status"] == status, f"{op} -> {result['status']}, expected {status}")
        return total

    def finish(self, rec: Recorder) -> str:
        rec.check(self.stuck == 0, f"settle reported stuck {self.stuck} times")
        nodes = self.engine.sim.nodes
        return combine(
            self.engine.state_digest(),
            *(sim_digest(nodes[name].rd.trace) for name in sorted(nodes)),
        )

    def overhead(self) -> tuple[int, int]:
        sim = self.engine.sim
        return overhead([node.rd for node in sim.nodes.values()], sim.now)


WORKLOADS = {w.name: w for w in (AvPipeline, DenseChurn, ControlPlane)}
