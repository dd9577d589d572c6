"""Wrap the layers of one workload's objects for the traced run, and
turn the tracer's totals into the per-layer metrics.

Every wrapper replaces a bound method on one instance (never a class),
so an untraced object built in the same process is untouched.  The
span names below are the layer boundaries the per-layer metrics name.
"""

from __future__ import annotations

import dataclasses

from repro.core.resource_list import ResourceList

#: Every span name a wrapper may open, in report order.  Each reports
#: ``<name>.calls`` and ``<name>.self_s``.
SPANS = (
    "kernel.run",
    "scheduler.pick",
    "scheduler.timer_for",
    "scheduler.notify_grant_set",
    "tasks.step",
    "trace.record",
    "events.schedule",
    "events.pop_due",
    "events.next_time",
    "cpu.sample_ticks",
    "rm.request_admittance",
    "rm.exit_thread",
    "grant.compute",
    "policy.resolve",
    "bus.send",
    "broker.submit",
    "broker.withdraw",
    "broker.on_message",
    "broker.on_epoch",
    "node.handle",
    "cluster.settle",
    "serve.commit",
    "serve.read",
    "obs.emit",
)


class Instrumenter:
    """Installs wrappers for one tracer and remembers the objects whose
    public counters the report reads."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.distributors = []
        self.buses = []
        self.brokers = []
        self.visited = tracer.counter("scheduler.visited")
        self.requests = tracer.counter("grant.requests")
        self.attempted = tracer.counter("admission.attempted")
        self.accepted = tracer.counter("admission.accepted")
        self.rounds = tracer.counter("cluster.rounds")
        self.commit_ops = tracer.counter("serve.ops")

    # -- single-machine layers --------------------------------------------

    def distributor(self, rd) -> None:
        """Wrap one ResourceDistributor's kernel, scheduler, trace,
        event queue, switch model, Resource Manager, grant control,
        Policy Box, and the task functions handed to ``rd.admit``."""
        t = self.tracer
        self.distributors.append(rd)
        kernel = rd.kernel
        t.wrap_method(kernel, "run_until", "kernel.run")
        self._count_periodic_scans(kernel)
        self.event_queue(kernel.events)
        for attr in (
            "record_run",
            "record_switch",
            "record_deadline",
            "record_grant_change",
            "record_block",
        ):
            t.wrap_method(kernel.trace, attr, "trace.record")
        t.wrap_method(kernel.switch_model, "sample_ticks", "cpu.sample_ticks")
        scheduler = rd.scheduler
        t.wrap_method(scheduler, "pick", "scheduler.pick")
        t.wrap_method(scheduler, "timer_for", "scheduler.timer_for")
        t.wrap_method(scheduler, "notify_grant_set", "scheduler.notify_grant_set")
        rm = rd.resource_manager
        self._count_admissions(rm)
        t.wrap_method(rm, "exit_thread", "rm.exit_thread")
        self._count_requests(rm.grant_control)
        t.wrap_method(rd.policy_box, "resolve", "policy.resolve")
        self._wrap_admitted_tasks(rd)

    def event_queue(self, events) -> None:
        for attr in ("schedule", "pop_due", "next_time"):
            self.tracer.wrap_method(events, attr, f"events.{attr}")

    def _count_periodic_scans(self, kernel) -> None:
        scans = kernel.periodic_threads
        visited = self.visited

        def periodic_threads():
            for thread in scans():
                visited[0] += 1
                yield thread

        kernel.periodic_threads = periodic_threads

    def _count_admissions(self, rm) -> None:
        traced = self.tracer.wrap(rm.request_admittance, "rm.request_admittance")
        attempted, accepted = self.attempted, self.accepted

        def request_admittance(definition):
            attempted[0] += 1
            thread = traced(definition)
            accepted[0] += 1
            return thread

        rm.request_admittance = request_admittance

    def _count_requests(self, grant_control) -> None:
        traced = self.tracer.wrap(grant_control.compute, "grant.compute")
        requests = self.requests

        def compute(reqs, observe=True):
            requests[0] += len(reqs)
            return traced(reqs, observe)

        grant_control.compute = compute

    def _wrap_admitted_tasks(self, rd) -> None:
        admit = rd.admit
        wrap_task = self.tracer.wrap_task

        def admit_traced(definition):
            entries = [
                dataclasses.replace(entry, function=wrap_task(entry.function))
                for entry in definition.resource_list
            ]
            return admit(
                dataclasses.replace(definition, resource_list=ResourceList(entries))
            )

        rd.admit = admit_traced

    # -- cluster and serving layers ---------------------------------------

    def engine(self, engine) -> None:
        """Wrap a ServeEngine: its commit and read calls, the cluster
        simulation under it (settle, bus, broker, every node), and the
        engine's ObsSession bus."""
        t = self.tracer
        commit = t.wrap(engine.commit, "serve.commit")
        commit_ops = self.commit_ops

        def counted_commit(ops):
            commit_ops[0] += len(ops)
            return commit(ops)

        engine.commit = counted_commit
        for attr in ("task", "nodes", "stats"):
            t.wrap_method(engine, attr, "serve.read")
        sim = engine.sim
        t.wrap_method(sim, "settle", "cluster.settle")
        run_until = sim.run_until
        rounds = self.rounds

        def counted_run_until(horizon):
            rounds[0] += 1
            return run_until(horizon)

        sim.run_until = counted_run_until
        self.event_queue(sim.events)
        t.wrap_method(sim.bus, "send", "bus.send")
        self.buses.append(sim.bus)
        broker = sim.broker
        for attr in ("submit", "withdraw", "on_message", "on_epoch"):
            t.wrap_method(broker, attr, f"broker.{attr}")
        self.brokers.append(broker)
        for node in sim.nodes.values():
            t.wrap_method(node, "handle", "node.handle")
            self.distributor(node.rd)
        bus = engine.session.bus
        for attr in ("emit", "emit_switch", "emit_period_close", "emit_activation"):
            t.wrap_method(bus, attr, "obs.emit")

    # -- report ------------------------------------------------------------

    def report(self, wall_ns: int, untraced_ns: int) -> dict[str, float]:
        """Per-layer metrics for the finished traced window.

        ``wall_ns`` is the root span's duration, ``untraced_ns`` the
        same work timed without wrappers."""
        t = self.tracer
        totals = t.totals()
        out: dict[str, float] = {}
        for name in SPANS:
            row = totals.get(name, {"calls": 0, "self_ns": 0})
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.self_s"] = row["self_ns"] / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        dispatches = out["scheduler.pick.calls"]
        kernel_ns = totals.get("kernel.run", {}).get("total_ns", 0)
        rms = [rd.resource_manager for rd in self.distributors]
        boxes = [rd.policy_box for rd in self.distributors]
        memo = sum(rm.memo_hits for rm in rms)
        computed = sum(rm.recompute_count for rm in rms)
        settles = out["cluster.settle.calls"]
        commits = out["serve.commit.calls"]
        root = totals.get("run", {"self_ns": 0, "total_ns": 0})
        out.update(
            {
                "kernel.dispatches": dispatches,
                "kernel.ns_per_dispatch": ratio(kernel_ns, dispatches),
                "scheduler.visited_per_dispatch": ratio(self.visited[0], dispatches),
                "cpu.switches": out["cpu.sample_ticks.calls"],
                "rm.memo_hit_ratio": ratio(memo, memo + computed),
                "admission.attempted": self.attempted[0],
                "admission.accept_ratio": ratio(self.accepted[0], self.attempted[0]),
                "grant.requests_per_compute": ratio(
                    self.requests[0], out["grant.compute.calls"]
                ),
                "policy.lookups": sum(box.lookup_count for box in boxes),
                "policy.inventions": sum(box.invention_count for box in boxes),
                "bus.dropped": sum(bus.stats.dropped for bus in self.buses),
                "broker.retries": sum(b.stats.retries for b in self.brokers),
                "cluster.rounds_per_settle": ratio(self.rounds[0], settles),
                "serve.ops_per_commit": ratio(self.commit_ops[0], commits),
                "gc.pause_s": t.gc_ns / 1e9,
                "gc.collections": t.gc_collections,
                "unattributed.self_s": root["self_ns"] / 1e9,
                "trace.wall_s": wall_ns / 1e9,
                "trace.overhead_pct": 100.0 * ratio(wall_ns - untraced_ns, untraced_ns),
                "trace.spans": len(t.span_start) + t.spans_dropped,
            }
        )
        return out
