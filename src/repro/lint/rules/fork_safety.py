"""RL005 fork-safety: nothing unpicklable crosses a worker boundary.

The sweep pool (``sim/parallel.py``) moves work to other processes;
everything submitted, targeted at a ``Process``, or stored on ``self``
in that module rides a pickle pipe.  A lambda or closure there raises
``PicklingError`` only under ``--jobs N`` — the serial path that most
tests take sails through, which is exactly how such a bug would ship.
The rule flags:

* lambdas / nested-def names passed to ``submit``/``Process``/
  ``apply_async``/``map``/``starmap``/``run_in_executor``/``finalize``
  calls (positionally or via ``target=``/``initializer=``/``func=``);
* lambdas / nested-def names assigned to ``self.`` attributes (they
  become pool state and cross the boundary with it).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.diagnostics import Finding
from repro.lint.registry import rule

DEFAULT_PATHS = ("repro/sim/parallel.py",)

_BOUNDARY_CALLS = frozenset(
    {"submit", "Process", "apply", "apply_async", "map", "starmap",
     "run_in_executor", "finalize"}
)
_BOUNDARY_KEYWORDS = frozenset({"target", "initializer", "func"})


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _unpicklable(node: ast.expr, ctx: ModuleContext) -> str | None:
    if isinstance(node, ast.Lambda):
        return "a lambda"
    if isinstance(node, ast.Name) and ctx.is_nested_def_name(node, node.id):
        return f"nested function {node.id!r}"
    return None


@rule(
    "RL005",
    "fork-safety",
    "unpicklable callable crossing the worker / checkpoint boundary",
    default_paths=DEFAULT_PATHS,
)
def check(ctx: ModuleContext, options: dict) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and _call_name(node.func) in _BOUNDARY_CALLS:
            candidates = list(node.args) + [
                kw.value for kw in node.keywords if kw.arg in _BOUNDARY_KEYWORDS
            ]
            for arg in candidates:
                what = _unpicklable(arg, ctx)
                if what is None:
                    continue
                yield Finding(
                    path=ctx.path,
                    line=arg.lineno,
                    col=arg.col_offset,
                    rule="RL005",
                    message=(
                        f"{what} handed to {_call_name(node.func)}(); it "
                        "crosses the process boundary by pickle and only "
                        "fails on the process backend — pass a module-level "
                        "function or functools.partial of one."
                    ),
                )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                what = _unpicklable(node.value, ctx)
                if what is None:
                    continue
                yield Finding(
                    path=ctx.path,
                    line=node.value.lineno,
                    col=node.value.col_offset,
                    rule="RL005",
                    message=(
                        f"{what} stored on self.{target.attr} in a fork-"
                        "boundary module; it becomes engine state that must "
                        "pickle at fork/checkpoint time — use a bound method "
                        "or module-level function."
                    ),
                )
