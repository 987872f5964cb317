"""Span tracer for the traced benchmark run.

Everything here works from *outside* the program: callables are wrapped by
replacing a module or class attribute before the system is built, and the
original attribute is put back afterwards.  Each call records one span
(name, start, end, parent) into columnar ``array`` storage; nothing is
aggregated until the run is over, so the hot path is five appends and two
clock reads.

A layer's **self time** is its spans' duration minus the part of that
interval covered by child spans (:meth:`Tracer.summary`).

The six in-program stage timers of :mod:`repro.core.profiling` report
``(stage, seconds)`` *after* a section ends.  :class:`StageSpans` turns each
report into an ordinary span ``[now - seconds, now]`` and adopts the spans
recorded inside that interval as its children, so stage time and wrapper
time live in one tree and are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.profiling import StageProfiler

#: ``count`` hooks receive the call's positional args and its result.
CountFn = Callable[[tuple, Any], int]


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Columnar span storage, one slot per span, in entry order.
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        #: Ids of the spans currently open, innermost last (-1 = no span).
        self.stack: list[int] = [-1]
        #: Work counts taken at the same boundaries as the spans.
        self.counters: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []
        #: Wrap targets that no longer exist in the program.
        self.missing: list[str] = []

    # ------------------------------------------------------------------ #
    # Recording.
    # ------------------------------------------------------------------ #
    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A coarse span around a block (phases, one-off calls)."""
        sid = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(sid)

    def add_finished(self, name: str, seconds: float) -> None:
        """Record a span that just ended and lasted ``seconds``.

        Spans already recorded inside that interval under the currently
        open span become its children.  Ids are handed out in entry order,
        so those are found by walking back from the newest span to the
        first one that lies before the interval.  The interval is rebuilt
        from this call's own clock read, a fraction of a microsecond after
        the reporter's, so "inside" is judged by a span's midpoint.
        """
        now = self.clock()
        t0 = now - seconds
        top = self.stack[-1]
        sid = len(self.start)
        parent, start, end = self.parent, self.start, self.end
        i = sid - 1
        while i > top:
            if parent[i] == top:
                if start[i] + end[i] < 2.0 * t0:
                    break
                parent[i] = sid
            i -= 1
        self.name_id.append(self.intern(name))
        self.parent.append(top)
        self.start.append(t0)
        self.end.append(now)

    # ------------------------------------------------------------------ #
    # Wrapping.
    # ------------------------------------------------------------------ #
    def wrap(
        self, fn: Callable, name: str, count: CountFn | None = None,
        iterates: bool = False,
    ) -> Callable:
        """``fn`` with a span around each call.

        ``count(args, result)`` adds to ``counters[name]``.  With
        ``iterates`` the callable returns an iterator whose work happens
        while it is consumed: each ``next`` gets its own span (the
        consumer's work between items stays with the consumer) and
        ``counters[name + ".passes"]`` counts the iterators handed out.
        """
        nid = self.intern(name)
        open_, close, counters = self.open, self.close, self.counters

        if iterates:
            @functools.wraps(fn)
            def iterating(*args: Any, **kwargs: Any) -> Iterator:
                counters[name + ".passes"] = counters.get(name + ".passes", 0) + 1
                inner = fn(*args, **kwargs)
                while True:
                    sid = open_(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(sid)
                    yield item
            return iterating

        if count is None:
            @functools.wraps(fn)
            def plain(*args: Any, **kwargs: Any) -> Any:
                sid = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid)
            return plain

        @functools.wraps(fn)
        def counting(*args: Any, **kwargs: Any) -> Any:
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            counters[name] = counters.get(name, 0) + count(args, result)
            return result
        return counting

    def install(
        self, target: str, name: str, count: CountFn | None = None,
        iterates: bool = False,
    ) -> None:
        """Wrap ``"package.module:attr"`` or ``"package.module:Class.attr"``.

        The attribute must be defined on that module or class itself (not
        inherited), so that :meth:`remove` can put the original back.  A
        target the program no longer has is noted in :attr:`missing` and
        skipped: its metrics read 0 and the untraced numbers are unaffected.
        """
        module_name, _, path = target.partition(":")
        *owners, attr = path.split(".")
        try:
            owner: Any = importlib.import_module(module_name)
            for part in owners:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return
        setattr(owner, attr, self.wrap(original, name, count, iterates))
        self._installed.append((owner, attr, original))

    def remove(self) -> None:
        """Put every wrapped attribute back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Reading.
    # ------------------------------------------------------------------ #
    def columns(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns (what the trace file holds)."""
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
        }

    def summary(self) -> "TraceSummary":
        return TraceSummary(self.columns(), dict(self.counters))


class TraceSummary:
    """Per-name totals over a finished trace."""

    def __init__(self, columns: dict[str, np.ndarray], counters: dict[str, int]) -> None:
        self.names: list[str] = [str(n) for n in columns["names"]]
        self.name_id = columns["name_id"]
        self.parent = columns["parent"]
        self.duration = columns["end"] - columns["start"]
        self.counters = counters
        n = len(self.duration)
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=n
        )
        #: Duration minus the part covered by child spans, per span.
        self.self_time = self.duration - covered
        k = len(self.names)
        self._self_by_name = np.bincount(self.name_id, weights=self.self_time, minlength=k)
        self._calls_by_name = np.bincount(self.name_id, minlength=k)
        self._ids = {name: i for i, name in enumerate(self.names)}

    def self_s(self, *names: str) -> float:
        """Summed self time of the named spans (0 for names never seen)."""
        return float(sum(self._self_by_name[self._ids[n]] for n in names if n in self._ids))

    def calls(self, name: str) -> int:
        return int(self._calls_by_name[self._ids[name]]) if name in self._ids else 0

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def outer_calls(self, *names: str) -> int:
        """Spans of the group whose parent is not in the group: calls into
        the group from outside, however its members call each other."""
        ids = [self._ids[n] for n in names if n in self._ids]
        if not ids:
            return 0
        member = np.isin(self.name_id, ids)
        parent_member = np.zeros(len(member), dtype=bool)
        has_parent = self.parent >= 0
        parent_member[has_parent] = member[self.parent[has_parent]]
        return int(np.count_nonzero(member & ~parent_member))

    def percentile_us(self, name: str, q: float) -> float:
        """``q``-th percentile of the named spans' durations, microseconds."""
        if name not in self._ids:
            return 0.0
        d = self.duration[self.name_id == self._ids[name]]
        return float(np.percentile(d, q)) * 1e6 if len(d) else 0.0


class StageSpans(StageProfiler):
    """A stage profiler whose every report also becomes a span."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def add(self, stage: str, dt: float) -> None:
        self._tracer.add_finished("stage." + stage, dt)
        super().add(stage, dt)
