"""RL001 no-wallclock: real time must never reach a simulation decision.

The DES owns time (``Simulator.now``); any read of the host clock inside
sim-path code is a nondeterminism hazard — two runs (or the per-event
oracle vs the fused engine) would diverge on machine load.  The one
sanctioned owner is ``core/profiling.py`` (disabled there by the default
config), and *profiling-guarded* reads are exempt structurally: a call
in an ``if prof is not None`` / ``profiling.ACTIVE`` guard, or feeding
``prof.add(...)``, cannot influence decisions because the profiler is
off in any measured run.  Anything else needs an explicit
``# repro-lint: ignore[RL001]`` stating why it is decision-neutral.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.diagnostics import Finding
from repro.lint.registry import rule

#: Canonical dotted names that read the host clock.
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_GUARD_NAMES = frozenset({"prof", "profiler"})


def _mentions_profiler(test: ast.expr, ctx: ModuleContext) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id in _GUARD_NAMES:
            return True
        if isinstance(node, ast.Attribute) and node.attr == "ACTIVE":
            resolved = ctx.resolve(node)
            if resolved is None or resolved.endswith("profiling.ACTIVE"):
                return True
    return False


def _profiling_guarded(call: ast.Call, ctx: ModuleContext) -> bool:
    for anc in ctx.ancestors(call):
        if isinstance(anc, (ast.If, ast.IfExp)) and _mentions_profiler(anc.test, ctx):
            return True
        if isinstance(anc, ast.Call):
            func = anc.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "add"
                and (
                    (isinstance(func.value, ast.Name) and func.value.id in _GUARD_NAMES)
                    or (
                        isinstance(func.value, ast.Attribute)
                        and func.value.attr == "ACTIVE"
                    )
                )
            ):
                return True
    return False


@rule(
    "RL001",
    "no-wallclock",
    "host-clock read in simulation code (time must come from the DES)",
)
def check(ctx: ModuleContext, options: dict) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved not in WALLCLOCK_CALLS:
            continue
        if _profiling_guarded(node, ctx):
            continue
        yield Finding(
            path=ctx.path,
            line=node.lineno,
            col=node.col_offset,
            rule="RL001",
            message=(
                f"wall-clock call {resolved}() in simulation code; simulated "
                "time must come from the DES kernel (sim.now). Profiling-"
                "guarded reads are exempt; decision-neutral timing needs an "
                "explicit suppression."
            ),
        )
