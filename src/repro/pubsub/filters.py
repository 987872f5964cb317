"""Subscription filter language.

The paper's workload uses conjunctions of strict comparisons
(``A1 < x1 ∧ A2 < x2``); the filter language here is the natural superset
used by content-based systems (Siena-style): comparison predicates over
named numeric attributes combined with AND/OR.

Filters are immutable and hashable so they can key matching indexes.
They pickle as constructor calls: a snapshot holds one per subscription,
and the slots-dataclass default calls ``dataclasses.fields`` per object.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping

_OPS: dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


class FilterError(ValueError):
    """Raised for malformed filters or filter expressions."""


class Filter:
    """Base class: anything with ``matches(attributes) -> bool``."""

    def matches(self, attributes: Mapping[str, float]) -> bool:
        raise NotImplementedError

    # Convenience combinators.
    def __and__(self, other: "Filter") -> "AndFilter":
        return AndFilter(_flatten(AndFilter, self) + _flatten(AndFilter, other))

    def __or__(self, other: "Filter") -> "OrFilter":
        return OrFilter(_flatten(OrFilter, self) + _flatten(OrFilter, other))


def _flatten(kind: type, f: Filter) -> tuple[Filter, ...]:
    if isinstance(f, kind):
        return f.parts  # type: ignore[attr-defined]
    return (f,)


@dataclass(frozen=True, slots=True)
class Predicate(Filter):
    """One comparison: ``attribute op value``.

    A message without the attribute does not match (tri-state logic
    collapsed to false, as in Siena).
    """

    attribute: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise FilterError(f"unknown operator {self.op!r}")
        if not self.attribute:
            raise FilterError("empty attribute name")

    def matches(self, attributes: Mapping[str, float]) -> bool:
        actual = attributes.get(self.attribute)
        if actual is None:
            return False
        return _OPS[self.op](actual, self.value)

    def __reduce__(self):
        return type(self), (self.attribute, self.op, self.value)

    def __str__(self) -> str:
        return f"{self.attribute}{self.op}{self.value:g}"


@dataclass(frozen=True, slots=True)
class AndFilter(Filter):
    """Conjunction; the empty conjunction matches everything."""

    parts: tuple[Filter, ...]

    def __init__(self, parts) -> None:
        object.__setattr__(self, "parts", tuple(parts))

    def matches(self, attributes: Mapping[str, float]) -> bool:
        return all(p.matches(attributes) for p in self.parts)

    def __reduce__(self):
        return type(self), (self.parts,)

    def __str__(self) -> str:
        return " & ".join(f"({p})" if isinstance(p, OrFilter) else str(p) for p in self.parts) or "TRUE"


@dataclass(frozen=True, slots=True)
class OrFilter(Filter):
    """Disjunction; the empty disjunction matches nothing."""

    parts: tuple[Filter, ...]

    def __init__(self, parts) -> None:
        object.__setattr__(self, "parts", tuple(parts))

    def matches(self, attributes: Mapping[str, float]) -> bool:
        return any(p.matches(attributes) for p in self.parts)

    def __reduce__(self):
        return type(self), (self.parts,)

    def __str__(self) -> str:
        return " | ".join(str(p) for p in self.parts) or "FALSE"


_TOKEN = re.compile(
    r"\s*(?P<attr>[A-Za-z_][A-Za-z_0-9]*)\s*(?P<op><=|>=|==|!=|<|>)\s*(?P<val>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*"
)


def parse_filter(text: str) -> Filter:
    """Parse ``"A1<5 & A2>=2 | A3==1"`` (``&`` binds tighter than ``|``).

    Returns a single :class:`Predicate` when the expression has one term.
    """
    if not text.strip():
        raise FilterError("empty filter expression")
    disjuncts = []
    for clause in text.split("|"):
        conjuncts = []
        for term in clause.split("&"):
            m = _TOKEN.fullmatch(term)
            if m is None:
                raise FilterError(f"cannot parse filter term {term.strip()!r}")
            conjuncts.append(Predicate(m["attr"], m["op"], float(m["val"])))
        disjuncts.append(conjuncts[0] if len(conjuncts) == 1 else AndFilter(conjuncts))
    if len(disjuncts) == 1:
        return disjuncts[0]
    return OrFilter(disjuncts)


def conjunction_predicates(f: Filter) -> tuple[Predicate, ...] | None:
    """The predicate list if ``f`` is a pure conjunction, else ``None``.

    The counting matcher only indexes pure conjunctions; everything else
    is tested one by one.
    """
    if isinstance(f, Predicate):
        return (f,)
    if isinstance(f, AndFilter) and all(isinstance(p, Predicate) for p in f.parts):
        return f.parts  # type: ignore[return-value]
    return None
