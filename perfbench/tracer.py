"""In-memory span tracer for the benchmark's traced run.

Spans are opened and closed around calls into the program's layers by
wrappers installed on the instances a workload builds (see
``layers.py``); nothing in ``src/`` knows it is being traced.  Each
span records its name, start, end, parent span and the client request
it belongs to.  Spans live in compact typed arrays while the run is
going and are written out once, when it ends.

Self time is a span's duration minus the part of it covered by its
child spans.  The tracer keeps exact integer nanoseconds, so the self
times of all spans — the root span's self time being the unattributed
remainder — add up to the root span's duration exactly.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from array import array
from pathlib import Path

#: Parent index of a span opened with no enclosing span.
NO_PARENT = -1


class Tracer:
    """A stack of open spans plus per-name call and time totals."""

    #: Spans kept for writing out; later ones only count in the totals.
    max_spans = 1_000_000

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: Per name id: completed spans, self ns, inclusive ns.
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        #: Stored spans, one row per index across the five columns.
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        #: Spans not stored because ``max_spans`` was reached (their
        #: times still count in the per-name totals).
        self.spans_dropped = 0
        #: Open spans: [span index, name id, start ns, child ns].
        self._stack: list[list[int]] = []
        #: The client request new spans belong to (0: none yet).
        self.request = 0
        #: Named one-element counter cells bumped by counting wrappers.
        self.counters: dict[str, list[int]] = {}
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_start = 0

    # -- names and requests ------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return nid

    def new_request(self) -> int:
        """Start a new client request; spans opened from now share its id."""
        self.request += 1
        return self.request

    # -- spans -------------------------------------------------------------

    def begin(self, nid: int) -> int:
        """Open a span; returns the token :meth:`end` needs.

        A span directly inside a span of the same name is merged into
        it (token -1): a layer entry point that calls a sibling entry
        point of the same layer is one call into that layer.
        """
        stack = self._stack
        if stack and stack[-1][1] == nid:
            return -1
        index = len(self.span_start)
        if index < self.max_spans:
            self.span_name.append(nid)
            self.span_start.append(0)
            self.span_end.append(0)
            self.span_parent.append(stack[-1][0] if stack else NO_PARENT)
            self.span_request.append(self.request)
        else:
            self.spans_dropped += 1
            index = NO_PARENT
        start = self._clock()
        if index >= 0:
            self.span_start[index] = start
        stack.append([index, nid, start, 0])
        return len(stack) - 1

    def end(self, token: int) -> None:
        """Close the span ``token`` names, and any span still open above it.

        Spans above it were left open by an exception that skipped their
        own :meth:`end`; they are closed at the same instant, so their
        time is neither lost nor counted twice.
        """
        if token < 0:
            return
        now = self._clock()
        stack = self._stack
        while len(stack) > token:
            index, nid, start, child = stack.pop()
            duration = now - start
            self.calls[nid] += 1
            self.self_ns[nid] += duration - child
            self.total_ns[nid] += duration
            if index >= 0:
                self.span_end[index] = now
            if stack:
                stack[-1][3] += duration

    @property
    def depth(self) -> int:
        return len(self._stack)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id(name)
        begin = self.begin
        end = self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(token)

        return traced

    def wrap_method(self, obj, attr: str, name: str) -> None:
        """Replace the bound method ``obj.attr`` by a traced one on the
        instance only (the class and other instances are untouched)."""
        setattr(obj, attr, self.wrap(getattr(obj, attr), name))

    def wrap_task(self, fn, name: str = "tasks.step"):
        """A task entry function whose generator steps are spans.

        The generator is created eagerly, as the kernel would; each
        ``send`` that produces the next op is one span.
        """
        nid = self.name_id(name)
        begin = self.begin
        end = self.end

        def steps(gen):
            send = gen.send
            while True:
                token = begin(nid)
                try:
                    op = send(None)
                except StopIteration:
                    return
                finally:
                    end(token)
                yield op

        @functools.wraps(fn)
        def traced(ctx):
            return steps(fn(ctx))

        return traced

    def counter(self, name: str) -> list[int]:
        """The cell behind counter ``name``; bump it with ``cell[0] += n``."""
        return self.counters.setdefault(name, [0])

    # -- run window and garbage collector --------------------------------

    def start(self, name: str = "run") -> int:
        """Open the root span and start timing collector pauses."""
        gc.callbacks.append(self._on_gc)
        return self.begin(self.name_id(name))

    def stop(self, token: int) -> None:
        self.end(token)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self._clock()
        else:
            self.gc_ns += self._clock() - self._gc_start
            self.gc_collections += 1

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, int]]:
        """name -> {calls, self_ns, total_ns} for every name seen."""
        return {
            name: {
                "calls": self.calls[i],
                "self_ns": self.self_ns[i],
                "total_ns": self.total_ns[i],
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> Path:
        """Write every stored span: one JSON header line, then the
        five columns as raw native-endian arrays, in header order."""
        columns = {
            "name": self.span_name,
            "start_ns": self.span_start,
            "end_ns": self.span_end,
            "parent": self.span_parent,
            "request": self.span_request,
        }
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "dropped": self.spans_dropped,
            "columns": [[key, col.typecode, col.itemsize] for key, col in columns.items()],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for col in columns.values():
                col.tofile(out)
        return path


def load_spans(path: Path) -> dict:
    """Read a file written by :meth:`Tracer.write` back into arrays."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        count = header["count"]
        spans = {"names": header["names"], "dropped": header["dropped"]}
        for key, typecode, _ in header["columns"]:
            col = array(typecode)
            col.fromfile(src, count)
            spans[key] = col
    return spans


def self_times(spans: dict) -> dict[str, int]:
    """Recompute per-name self time from stored spans alone (the
    offline check on the arithmetic the live tracer does)."""
    count = len(spans["start_ns"])
    child = [0] * count
    for i in range(count):
        parent = spans["parent"][i]
        if parent >= 0:
            child[parent] += spans["end_ns"][i] - spans["start_ns"][i]
    out: dict[str, int] = {}
    for i in range(count):
        name = spans["names"][spans["name"][i]]
        duration = spans["end_ns"][i] - spans["start_ns"][i]
        out[name] = out.get(name, 0) + duration - child[i]
    return out
