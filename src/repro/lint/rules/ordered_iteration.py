"""RL003 ordered-iteration: no hash-order iteration near scheduling.

Set iteration order depends on insertion history and hashing and is not
part of the decision contract; a ``for`` over a set whose body schedules
events, draws RNG, or appends to a log makes the run order an
accident.  The discipline throughout ``des/``, ``pubsub/``, ``sim/`` and
``workload/`` is ``for x in sorted(s)`` (every cascade wave and neighbor
fan-out already does this).  The rule flags iteration
over expressions *statically known* to be sets — literals,
comprehensions, ``set()``/``frozenset()`` calls, locals and ``self.``
attributes only ever assigned such values — at ``for``/comprehension
positions and inside order-materialising calls (``list``, ``tuple``,
``enumerate``, ``zip``, ``iter``).

Dicts preserve insertion order (itself deterministic under the oracle
discipline), so dict iteration is only flagged with the per-path option
``{"dicts": True}`` for modules that must be robust even to insertion-
order drift.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.diagnostics import Finding
from repro.lint.registry import rule

DEFAULT_PATHS = (
    "repro/des/*",
    "repro/pubsub/*",
    "repro/sim/*",
    "repro/workload/*",
)

_SET_CALLS = frozenset({"set", "frozenset"})
_DICT_CALLS = frozenset(
    {"dict", "collections.defaultdict", "defaultdict", "collections.Counter", "Counter"}
)
_DICT_VIEWS = frozenset({"keys", "values", "items"})
_MATERIALISERS = frozenset({"list", "tuple", "enumerate", "zip", "iter"})
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

SET_KIND = "set"
DICT_KIND = "dict"


def _annotation_kind(node: ast.expr | None, ctx: ModuleContext) -> str | None:
    if node is None:
        return None
    base = node
    if isinstance(base, ast.Subscript):
        base = base.value
    resolved = ctx.resolve(base) if isinstance(base, (ast.Name, ast.Attribute)) else None
    if resolved in {"set", "frozenset", "typing.Set", "typing.FrozenSet"}:
        return SET_KIND
    if resolved in {"dict", "typing.Dict", "collections.defaultdict", "collections.Counter"}:
        return DICT_KIND
    return None


class _Classifier:
    """Best-effort kind inference for names and ``self.`` attributes.

    Conservative: a binding is set-/dict-kind only when *every* assignment
    to it (within its scope) has that syntactic kind; one unknown
    assignment poisons it to "unknown" and the rule stays silent.
    """

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        #: (scope-node-or-None, name) -> kind or "" (poisoned)
        self.names: dict[tuple[ast.AST | None, str], str] = {}
        #: (class-node, attr) -> kind or "" (poisoned)
        self.attrs: dict[tuple[ast.AST, str], str] = {}
        self._collect()

    def expr_kind(self, node: ast.expr, scope: ast.AST | None) -> str | None:
        """Kind of an expression, or None when unknown."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return SET_KIND
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return DICT_KIND
        if isinstance(node, ast.Call):
            resolved = self.ctx.resolve(node.func)
            if resolved in _SET_CALLS:
                return SET_KIND
            if resolved in _DICT_CALLS:
                return DICT_KIND
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _DICT_VIEWS
                and not node.args
            ):
                return DICT_KIND  # mapping view — flagged only in dicts mode
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            left = self.expr_kind(node.left, scope)
            right = self.expr_kind(node.right, scope)
            if SET_KIND in (left, right):
                return SET_KIND
            return None
        if isinstance(node, ast.Name):
            kind = self._lookup_name(node.id, scope)
            return kind or None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            cls = self._enclosing_class(node)
            if cls is not None:
                kind = self.attrs.get((cls, node.attr), "")
                return kind or None
        return None

    # -------------------------------------------------------------- #
    def _lookup_name(self, name: str, scope: ast.AST | None) -> str:
        while True:
            if (scope, name) in self.names:
                return self.names[(scope, name)]
            if scope is None:
                return ""
            scope = self._parent_scope(scope)

    def _parent_scope(self, scope: ast.AST) -> ast.AST | None:
        for anc in self.ctx.ancestors(scope):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def _enclosing_scope(self, node: ast.AST) -> ast.AST | None:
        for anc in self.ctx.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def _enclosing_class(self, node: ast.AST) -> ast.AST | None:
        for anc in self.ctx.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                return anc
        return None

    def _note(self, key: tuple, kind: str | None, table: dict) -> None:
        new = kind or ""
        if key in table and table[key] != new:
            table[key] = ""  # conflicting assignments: poisoned
        else:
            table[key] = new

    def _collect(self) -> None:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Assign):
                scope = self._enclosing_scope(node)
                kind = self.expr_kind(node.value, scope)
                for target in node.targets:
                    self._record_target(target, kind, scope)
            elif isinstance(node, ast.AnnAssign):
                scope = self._enclosing_scope(node)
                kind = _annotation_kind(node.annotation, self.ctx)
                if kind is None and node.value is not None:
                    kind = self.expr_kind(node.value, scope)
                self._record_target(node.target, kind, scope)
            elif isinstance(node, ast.AugAssign):
                # ``s |= other`` keeps the kind; anything else poisons.
                if not isinstance(node.op, _SET_BINOPS):
                    scope = self._enclosing_scope(node)
                    self._record_target(node.target, None, scope)

    def _record_target(
        self, target: ast.expr, kind: str | None, scope: ast.AST | None
    ) -> None:
        if isinstance(target, ast.Name):
            self._note((scope, target.id), kind, self.names)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            cls = self._enclosing_class(target)
            if cls is not None:
                self._note((cls, target.attr), kind, self.attrs)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, None, scope)


def _iteration_sites(tree: ast.Module) -> Iterator[tuple[ast.expr, str]]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, "for loop"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter, "comprehension"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else None
            if name in _MATERIALISERS:
                for arg in node.args:
                    yield arg, f"{name}()"


@rule(
    "RL003",
    "ordered-iteration",
    "hash-order set/dict iteration where order can reach scheduling",
    default_paths=DEFAULT_PATHS,
)
def check(ctx: ModuleContext, options: dict) -> Iterator[Finding]:
    flag_dicts = bool(options.get("dicts", False))
    classifier = _Classifier(ctx)
    for iter_expr, where in _iteration_sites(ctx.tree):
        scope = classifier._enclosing_scope(iter_expr)
        kind = classifier.expr_kind(iter_expr, scope)
        if kind == SET_KIND or (kind == DICT_KIND and flag_dicts):
            noun = "set" if kind == SET_KIND else "dict"
            yield Finding(
                path=ctx.path,
                line=iter_expr.lineno,
                col=iter_expr.col_offset,
                rule="RL003",
                message=(
                    f"{noun} iterated in {where} without sorted(); hash order "
                    "is not part of the decision contract — wrap the iterable "
                    "in sorted(...) or suppress with the reason order cannot "
                    "reach scheduling or RNG draws."
                ),
            )
