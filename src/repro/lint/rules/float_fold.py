"""RL006 float-fold: metrics float totals use the documented left fold.

``earning`` and latency accounting are proven byte-identical across the
scalar oracle and the ledger because every float
total is the *same left-to-right chain of float64 additions*
(``repro.core.folds``: ``fold_sum`` / ``fold_sum_array``).  A bare ``sum()``
over an unordered iterable, or ``np.sum``/``ndarray.sum()`` (pairwise
reassociation!), silently computes a *different* float — off by an ULP,
enough to flip a scheduling comparison or break a differential test.

In metrics paths the rule flags builtin ``sum(...)``, ``np.sum(...)``
and ``.sum()`` method calls.  Exact-by-construction sites are exempt
structurally: an ``int(...)``-wrapped call (integer tallies commute) and
``.sum()`` on a comparison result (boolean counting).  Integer builtin
sums should either move to the exempt forms or carry a suppression
stating exactness.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.diagnostics import Finding
from repro.lint.registry import rule

DEFAULT_PATHS = (
    "repro/pubsub/metrics.py",
    "repro/analysis/*",
)

_INT_DTYPES = frozenset(
    {"int", "numpy.int32", "numpy.int64", "numpy.intp", "bool", "numpy.bool_"}
)


def _int_wrapped(call: ast.Call, ctx: ModuleContext) -> bool:
    parent = ctx.parents.get(call)
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id == "int"
        and parent.args
        and parent.args[0] is call
    )


def _boolean_receiver(node: ast.expr) -> bool:
    return isinstance(node, (ast.Compare, ast.BoolOp))


def _int_dtype_kw(call: ast.Call, ctx: ModuleContext) -> bool:
    for kw in call.keywords:
        if kw.arg == "dtype":
            resolved = ctx.resolve(kw.value) if isinstance(
                kw.value, (ast.Name, ast.Attribute)
            ) else None
            return resolved in _INT_DTYPES
    return False


@rule(
    "RL006",
    "float-fold",
    "order-sensitive float sum outside the documented left-fold helpers",
    default_paths=DEFAULT_PATHS,
)
def check(ctx: ModuleContext, options: dict) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        flavour: str | None = None
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            flavour = "builtin sum()"
        else:
            resolved = ctx.resolve(node.func)
            if resolved in {"numpy.sum", "math.fsum"}:
                flavour = f"{resolved}()"
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "sum":
                if _boolean_receiver(node.func.value):
                    continue  # (a == b).sum(): boolean counting, exact
                flavour = ".sum() (numpy pairwise reassociation)"
        if flavour is None:
            continue
        if _int_wrapped(node, ctx) or _int_dtype_kw(node, ctx):
            continue
        yield Finding(
            path=ctx.path,
            line=node.lineno,
            col=node.col_offset,
            rule="RL006",
            message=(
                f"{flavour} in a metrics path; float totals must be the "
                "documented left fold (repro.core.folds.fold_sum / "
                "fold_sum_array) to stay byte-identical to the scalar oracle — "
                "or wrap in int(...) if this is an exact integer tally."
            ),
        )
