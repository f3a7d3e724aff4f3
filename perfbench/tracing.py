"""Spans around the calls into opir's layers, recorded from outside the package.

A Tracer replaces module and class attributes with wrappers that record a
span per call: name, start, end, parent span, op id and, for whole frames
and enumerations, the size of the result.  Spans are kept in memory and written out when
the run ends.  Wrappers go on the attribute the caller looks up: protocol.py
imports solve_linear_system by name, so the wrapper goes on
opir.protocol.solve_linear_system, not on opir.field.

Times come from time.perf_counter_ns, which is CLOCK_MONOTONIC on Linux, so
spans recorded in the `opir serve` process share a clock with the client's.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

# Frame reads block on the socket, so their time is waiting, not codec work:
# they are counted (frames and bytes) but are no child of the span that
# waits, so that span's self time keeps the wait.
WAIT_SPANS = frozenset({"wire.read"})

# Span record fields, in order.
NAME, START, END, ID, PARENT, OP, SIZE = range(7)


def wrap_points():
    """(owner, attribute, span name, size of result) for every traced call.

    The size is a frame's length in bytes, or the number of hypotheses an
    enumeration returned.
    """
    from opir import audit, net, protocol, wire

    header = wire.HEADER.size
    points = [
        (protocol, "solve_linear_system", "field.solve", None),
        (audit, "matrix_rank", "field.rank", None),
        (protocol, "session_cauchy", "cauchy.certify", None),
        (net, "session_cauchy", "cauchy.certify", None),
        (protocol, "build_cauchy", "cauchy.build", None),
        (net, "build_cauchy", "cauchy.build", None),
        (protocol.Client, "build_query", "protocol.build_query", None),
        (protocol.Client, "decode_answer", "protocol.decode", None),
        (protocol.Server, "answer", "protocol.answer", None),
        (protocol, "validate_query", "protocol.validate", None),
        (wire, "encode_frame", "wire.encode", len),
        (wire, "decode_frame", "wire.decode", lambda out: header + len(out[1])),
        (wire, "read_frame", "wire.read", lambda out: header + len(out[1])),
        (net.RemoteSession, "__init__", "net.connect", None),
        (net.RemoteSession, "retrieve", "net.retrieve", None),
        (audit, "enumerate_hypotheses", "audit.enumerate", len),
        (audit, "posterior", "audit.posterior", None),
    ]
    for kind in ("query", "answer", "hello", "error"):
        points.append((wire, f"encode_{kind}", "wire.encode", None))
        points.append((wire, f"decode_{kind}", "wire.decode", None))
    return points


class Tracer:
    """Records spans from wrapped calls; install() and uninstall() toggle them.

    On the client the run loop sets `op` around each op.  In the server
    process, where ops are connections, each handler thread gets its own
    op id the first time it records a span.
    """

    def __init__(self, per_thread_ops: bool = False):
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._per_thread_ops = per_thread_ops
        self._ids = itertools.count()
        self._threads = itertools.count()
        self._local = threading.local()
        self._points: list[tuple] | None = None

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = next(self._threads) if self._per_thread_ops else None
        return local

    def wrap(self, fn, name: str, sizer):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            op = local.op if tracer._per_thread_ops else tracer.op
            size = sizer(out) if sizer is not None else None
            tracer.spans.append((name, start, end, span_id, parent, op, size))
            return out

        return traced

    def install(self) -> None:
        """Put the wrappers in place; they are built once, so toggling is cheap."""
        if self._points is None:
            self._points = [
                (owner, attr, original, self.wrap(original, name, sizer))
                for owner, attr, name, sizer in wrap_points()
                for original in (getattr(owner, attr),)
            ]
        for owner, attr, _, wrapper in self._points:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._points or ():
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: str) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def layer_sums(spans) -> dict[str, int]:
    """Sums over spans of one process: calls, total ns, self ns, sizes.

    Self time is a span's duration minus the durations of its direct
    children, leaving out the frame reads (see WAIT_SPANS).  Span ids are
    per process, so sum each process's spans apart and add the results.
    """
    child_ns: dict[int, int] = {}
    for span in spans:
        if span[PARENT] is not None and span[NAME] not in WAIT_SPANS:
            child_ns[span[PARENT]] = child_ns.get(span[PARENT], 0) + span[END] - span[START]
    sums: dict[str, int] = {}
    for span in spans:
        name = span[NAME]
        duration = span[END] - span[START]
        for key, value in (
            (name + ".calls", 1),
            (name + ".total_ns", duration),
            (name + ".self_ns", duration - child_ns.get(span[ID], 0)),
        ):
            sums[key] = sums.get(key, 0) + value
        if span[SIZE] is not None:
            sums[name + ".sized"] = sums.get(name + ".sized", 0) + 1
            sums[name + ".size"] = sums.get(name + ".size", 0) + span[SIZE]
    return sums
