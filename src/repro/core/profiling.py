"""Per-stage cumulative timers for the hot event pipeline.

The dispatch-overhead claim behind the event kernel ("events are bounded
by per-event interpreter work, not numpy work") has to be *measured*, so
the pipeline's stages — kernel pop, match, enqueue, output-queue drain,
metrics settlement, log append — each carry a cheap cumulative timer.

Profiling is off by default and costs one module-attribute load plus a
branch per stage per event when disabled: hot sites read the module's
``ACTIVE`` slot and skip both clock calls while it is ``None``.  Enable
with :func:`enable` (the ``--profile`` flag on the run/scale CLIs does),
read the totals with :meth:`StageProfiler.report`.

Timers are wall-clock (``perf_counter``) and *inclusive per stage, not
nested*: stages are disjoint sections of the pipeline, so their sum
approximates total pipeline time and the remainder is interpreter/kernel
overhead between stages.
"""

from __future__ import annotations

from time import perf_counter

#: Canonical stage order for reports (stages not in this tuple are
#: appended alphabetically — ad-hoc timers are allowed).
STAGES: tuple[str, ...] = ("pop", "match", "enqueue", "drain", "metrics", "append")


class StageProfiler:
    """Cumulative ``(calls, seconds)`` per named pipeline stage."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, stage: str, dt: float) -> None:
        """Accumulate one timed section (``dt`` in seconds)."""
        self.seconds[stage] = self.seconds.get(stage, 0.0) + dt
        self.calls[stage] = self.calls.get(stage, 0) + 1

    def _ordered(self) -> list[str]:
        known = [s for s in STAGES if s in self.seconds]
        extra = sorted(s for s in self.seconds if s not in STAGES)
        return known + extra

    def report(self) -> dict[str, dict[str, float]]:
        """``{stage: {"seconds": ..., "calls": ...}}`` in canonical order."""
        return {
            s: {"seconds": self.seconds[s], "calls": self.calls[s]}
            for s in self._ordered()
        }

    def format_table(self) -> str:
        """Human-readable per-stage breakdown (for the CLIs and benches)."""
        lines = [f"{'stage':<10} {'calls':>12} {'seconds':>12} {'us/call':>10}"]
        for s in self._ordered():
            calls = self.calls[s]
            secs = self.seconds[s]
            per = (secs / calls * 1e6) if calls else 0.0
            lines.append(f"{s:<10} {calls:>12} {secs:>12.4f} {per:>10.1f}")
        lines.append(f"{'total':<10} {'':>12} {sum(self.seconds.values()):>12.4f}")
        return "\n".join(lines)


#: The active profiler, or ``None`` (profiling disabled).  Hot sites do
#: ``prof = profiling.ACTIVE`` once per event and only touch the clock
#: when it is set.
ACTIVE: StageProfiler | None = None


def enable() -> StageProfiler:
    """Install (and return) a fresh active profiler."""
    global ACTIVE
    ACTIVE = StageProfiler()
    return ACTIVE


def disable() -> StageProfiler | None:
    """Deactivate profiling; returns the profiler that was active."""
    global ACTIVE
    prof, ACTIVE = ACTIVE, None
    return prof


def timed(stage: str) -> "_Section":
    """Decorator-free helper for coarse call sites::

        with profiling.timed("analysis"):  # no-op when disabled
            ...

    Implemented as a tiny context manager; hot per-event sites inline the
    ``perf_counter`` pattern instead (a ``with`` block per event would
    cost more than the section it measures).
    """
    return _Section(stage)


class _Section:
    __slots__ = ("stage", "_t0")

    def __init__(self, stage: str) -> None:
        self.stage = stage
        self._t0 = 0.0

    def __enter__(self) -> "_Section":
        if ACTIVE is not None:
            self._t0 = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        if ACTIVE is not None:
            ACTIVE.add(self.stage, perf_counter() - self._t0)
