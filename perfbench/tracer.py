"""Spans around the calls one marswpt layer makes into another.

A ``Tracer`` rebinds module-level names that callers look up at call time,
such as ``marswpt.sweep.estimate_harvest``, to timing wrappers, and puts the
originals back when it exits. Every wrapped call records one span: name,
start and end (``perf_counter_ns``), span id, parent span id, op id and
thread id. Each thread appends to its own list, so calls made inside the
program's ``ThreadPoolExecutor`` workers never share a buffer. Spans stay in
memory until the caller drains them.

An op is one unit of work the benchmark counts (one ``estimate_harvest`` or
one ``fit_model``). The span of an op-boundary wrapper gives its id to every
span opened beneath it on the same thread.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from time import perf_counter_ns
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent_id: int | None
    op_id: int | None
    thread_id: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class _ThreadState(threading.local):
    def __init__(self, registry: list, lock: threading.Lock) -> None:
        self.stack: list[int] = []
        self.spans: list[Span] = []
        self.op: int | None = None
        self.thread_id = threading.get_ident()
        with lock:
            registry.append(self.spans)


class Tracer:
    """Rebinds names to span-recording wrappers while used as a context manager."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buffers: list[list[Span]] = []
        self._state = _ThreadState(self._buffers, self._lock)
        self._ids = itertools.count(1)
        self._plan: list[tuple[object, str, str, bool, Callable | None]] = []
        self._saved: list[tuple[object, str, object]] = []

    def rebind(self, module, attr: str, name: str, *, op: bool = False,
               observe: Callable | None = None) -> None:
        """Plan to wrap ``module.attr`` as span ``name`` while the tracer is entered.

        ``observe`` is called with each return value, for counts the span
        cannot see (for example ``nfev`` of a ``least_squares`` result).
        """
        self._plan.append((module, attr, name, op, observe))

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name, op, observe in self._plan:
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(original, name, op, observe))
                self._saved.append((module, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, op: bool) -> tuple[_ThreadState, int, int | None, int | None]:
        state = self._state
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else None
        outer_op = state.op
        if op:
            state.op = span_id
        state.stack.append(span_id)
        return state, span_id, parent, outer_op

    @staticmethod
    def _close(opened, name: str, start: int) -> None:
        end = perf_counter_ns()
        state, span_id, parent, outer_op = opened
        state.stack.pop()
        state.spans.append(Span(name, start, end, span_id, parent, state.op, state.thread_id))
        state.op = outer_op

    def _wrap(self, fn: Callable, name: str, op: bool, observe: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            opened = self._open(op)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(opened, name, start)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, *, op: bool = False):
        """Record a span around a call the benchmark itself makes."""
        opened = self._open(op)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(opened, name, start)

    def drain(self) -> list[Span]:
        """Every span recorded so far, from all threads, ordered by start; then forget them.

        Call only while no traced call is running on another thread.
        """
        with self._lock:
            out = [span for buffer in self._buffers for span in buffer]
            for buffer in self._buffers:
                buffer.clear()
        out.sort(key=lambda s: s.start_ns)
        return out


def percentile_ms(seconds: list[float], q: float) -> float:
    """The ``q``-th percentile of durations in seconds, in ms, interpolated linearly."""
    ordered = sorted(seconds)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return 1e3 * (ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def total_s(spans: list[Span], names: set[str]) -> float:
    """Summed duration of the outermost spans named in ``names``.

    A span nested inside another span of the set is not counted twice.
    """
    by_id = {s.span_id: s for s in spans}
    total = 0
    for s in spans:
        if s.name not in names:
            continue
        parent = by_id.get(s.parent_id)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            total += s.end_ns - s.start_ns
    return total * 1e-9


def self_s(spans: list[Span], name: str) -> float:
    """Summed self time of spans called ``name``: duration minus direct children."""
    children: dict[int, int] = {}
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id] = children.get(s.parent_id, 0) + s.end_ns - s.start_ns
    total = 0
    for s in spans:
        if s.name == name:
            total += s.end_ns - s.start_ns - children.get(s.span_id, 0)
    return total * 1e-9
