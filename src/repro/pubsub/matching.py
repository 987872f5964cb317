"""Matching: which live subscription filters does a message satisfy?

The production stack matches a publication once, in the system-wide
:class:`FilterIndex`: every broker's table row carries its subscriber's
own filter, so a publication's verdicts are the same at every hop.  The
index interns filters to dense integer *fids* and keeps the live ones in
a :class:`VectorCountingMatcher`, the classic *counting algorithm* for
conjunctive subscriptions (Yan & Garcia-Molina) on numpy: each
(attribute, op) index stores its thresholds as one sorted array with
CSR-style fid spans, and a match is ``np.searchsorted`` (per index) +
slice-concatenate + one ``np.bincount`` compared against the per-fid
predicate totals.  Non-conjunctive filters are evaluated one by one.

The reference stack (:mod:`repro.reference`) keeps no matcher: its
tables and its population count test each live filter's own
:meth:`~repro.pubsub.filters.Filter.matches`, the oracle the identity
suites hold this module to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.growable import GrowableArray
from repro.pubsub.filters import Filter, conjunction_predicates


@dataclass(frozen=True, slots=True, eq=False)
class PredicateColumns:
    """:func:`~repro.pubsub.filters.conjunction_predicates` of a batch of
    filters, as columns: ``counts[i]`` is filter ``i``'s predicate total
    (−1 when it is not a pure conjunction) and ``entries[(attribute, op)]``
    the ``(item, value)`` arrays of every predicate on that pair, in item
    order, derived once per distinct filter object of the batch.
    """

    counts: np.ndarray
    entries: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]

    @classmethod
    def of(cls, filters: Sequence[Filter]) -> "PredicateColumns":
        # Populations draw filters from a small shared pool, so predicates
        # are derived once per distinct object (an ``id`` is unique while
        # ``filters`` keeps the object alive) and gathered out to item level.
        distinct = {id(filter_): filter_ for filter_ in filters}
        slot_of = {key: slot for slot, key in enumerate(distinct)}
        slot = np.fromiter(
            map(slot_of.__getitem__, map(id, filters)), dtype=np.int64, count=len(filters)
        )
        slot_counts = np.empty(len(distinct), dtype=np.int64)
        raw: dict[tuple[str, str], tuple[list[int], list[float]]] = {}
        for s, filter_ in enumerate(distinct.values()):
            preds = conjunction_predicates(filter_)
            if preds is None:
                slot_counts[s] = -1
                continue
            slot_counts[s] = len(preds)
            for p in preds:
                slots, values = raw.setdefault((p.attribute, p.op), ([], []))
                slots.append(s)
                values.append(p.value)
        item = np.arange(len(filters), dtype=np.int64)
        entries = {}
        for key, (slots, values) in raw.items():
            # ``values`` is grouped by slot; item i's output run copies its
            # slot's run, so each output position reads at a per-item shift.
            per_slot = np.bincount(slots, minlength=len(distinct))
            repeats = per_slot[slot]
            shift = (np.cumsum(per_slot) - per_slot)[slot] - (np.cumsum(repeats) - repeats)
            items = np.repeat(item, repeats)
            source = np.arange(len(items), dtype=np.int64) + np.repeat(shift, repeats)
            entries[key] = (items, np.array(values, dtype=np.float64)[source])
        return cls(slot_counts[slot], entries)


def _column(values: np.ndarray) -> GrowableArray:
    column = GrowableArray(values.dtype, capacity=len(values))
    column.extend(values)
    return column


class _VecAttrOpIndex:
    """One (attribute, op) index over fids, compiled to numpy.

    Raw entries accumulate in two growable columns (threshold values and
    the fids that own them); :meth:`compile` argsorts them into a sorted
    unique ``thresholds`` array plus a CSR-style layout (``ids``
    concatenated per threshold, ``starts`` as the indptr).  Every
    comparison op then reduces to one ``np.searchsorted`` and a contiguous
    slice (prefix for ``>``/``>=``, suffix for ``<``/``<=``, a single span
    for ``==``, its complement for ``!=``) — the satisfied-id set comes
    out as array views, no per-key Python iteration.
    """

    __slots__ = ("op", "_values", "_entry_ids", "dirty", "_thresholds", "_starts", "_ids")

    def __init__(self, op: str) -> None:
        self.op = op
        self._values = GrowableArray(np.float64)
        self._entry_ids = GrowableArray(np.int64)
        self.dirty = True
        self._thresholds = np.empty(0)
        self._starts = np.zeros(1, dtype=np.int64)
        self._ids = np.empty(0, dtype=np.int64)

    def add_many(self, values: np.ndarray, ids: np.ndarray) -> None:
        """Append entries (the stable compile sort makes their order
        irrelevant to what a match returns)."""
        self._values.extend(values)
        self._entry_ids.extend(ids)
        self.dirty = True

    def purge(self, alive: np.ndarray) -> int:
        """Drop the entries of fids not ``alive``; returns the entries left."""
        keep = alive[self._entry_ids.view()]
        self._values = _column(self._values.view()[keep])
        self._entry_ids = _column(self._entry_ids.view()[keep])
        self.dirty = True
        return len(self._values)

    def compile(self) -> None:
        if not self.dirty:
            return
        values, ids = self._values.view(), self._entry_ids.view()
        # The columns themselves are left sorted: the next compile's stable
        # sort then sees one long run plus whatever was added since, which
        # costs it little (equal thresholds keep insertion order either way).
        order = np.argsort(values, kind="stable")
        values[:] = values[order]
        ids[:] = ids[order]
        thresholds, first = np.unique(values, return_index=True)
        self._thresholds = thresholds
        self._starts = np.append(first, len(values))
        self._ids = ids.copy()
        self.dirty = False

    def collect(self, v: float, out: list[np.ndarray]) -> None:
        """Append the satisfied-id array views for message value ``v``."""
        t, starts, ids = self._thresholds, self._starts, self._ids
        op = self.op
        if op == "<":  # v < threshold => the suffix strictly above v
            out.append(ids[starts[np.searchsorted(t, v, side="right")]:])
        elif op == "<=":
            out.append(ids[starts[np.searchsorted(t, v, side="left")]:])
        elif op == ">":  # v > threshold => the prefix strictly below v
            out.append(ids[: starts[np.searchsorted(t, v, side="left")]])
        elif op == ">=":
            out.append(ids[: starts[np.searchsorted(t, v, side="right")]])
        elif op == "==":
            i = np.searchsorted(t, v, side="left")
            if i < len(t) and t[i] == v:
                out.append(ids[starts[i]: starts[i + 1]])
        else:  # "!=": everything except the equal span
            i = np.searchsorted(t, v, side="left")
            if i < len(t) and t[i] == v:
                out.append(ids[: starts[i]])
                out.append(ids[starts[i + 1]:])
            else:
                out.append(ids)


#: Predicate total of a fid that must never win the count test: one not
#: live, or non-conjunctive (evaluated in the fallback instead).
_NEVER = -1

_NO_FIDS = np.empty(0, dtype=np.int64)


class VectorCountingMatcher:
    """Counting-algorithm matcher keyed by fid, on numpy arrays.

    A match concatenates the per-index satisfied-fid slices and compares
    one ``np.bincount`` against the per-fid predicate totals, so a
    zero-predicate conjunction (total 0) matches every message.
    Non-conjunctive filters live in a ``fid -> filter`` fallback and are
    evaluated one by one.

    Removal is tombstone-based: a removed fid's total goes to ``_NEVER``,
    so its still-indexed entries can never win the count test, and
    ``_parked`` keeps how many it left behind.  A fid names one filter for
    good, so a re-add of a parked fid only restores its total.  Once the
    tombstoned entries outnumber the live ones, :meth:`_purge_dead` drops
    them from every index, so remove is O(1) amortised and the index sizes
    track live filters, not cumulative adds.
    """

    def __init__(self) -> None:
        self._indexes: dict[tuple[str, str], _VecAttrOpIndex] = {}
        #: fid -> predicate total while live and indexed, else _NEVER.
        self._required = GrowableArray(np.int64)
        #: fid -> entries a removal left in the indexes (until the next
        #: purge), else _NEVER.
        self._parked = GrowableArray(np.int64)
        self._fallback: dict[int, Filter] = {}
        self._dead_entries = 0
        self._total_entries = 0

    # -------------------------------------------------------------- #
    # Mutation.
    # -------------------------------------------------------------- #
    def add_many(self, items: Iterable[tuple[int, Filter]]) -> None:
        """Make each ``(fid, filter)`` live.  Each (attribute, op) index
        takes its new entries as one column append, from the batch's
        :class:`PredicateColumns`.  A fid that repeats or is live raises
        before anything is added."""
        items = list(items)
        fids = np.fromiter((fid for fid, _ in items), dtype=np.int64, count=len(items))
        if not len(fids):
            return
        extra = int(fids.max()) + 1 - len(self._required)
        self._required.extend_scalar(_NEVER, extra)
        self._parked.extend_scalar(_NEVER, extra)
        required, parked = self._required.view(), self._parked.view()
        listed = set(fids.tolist())
        if (len(listed) != len(fids) or fids.min() < 0 or (required[fids] != _NEVER).any()
                or not self._fallback.keys().isdisjoint(listed)):
            raise KeyError("a fid repeats in the batch or is already live")
        back = parked[fids] != _NEVER
        if back.any():
            # Its parked entries are exactly what the fid's filter adds.
            revived = fids[back]
            required[revived] = parked[revived]
            self._dead_entries -= int(parked[revived].sum())
            parked[revived] = _NEVER
            items = [items[i] for i in np.flatnonzero(~back).tolist()]
            fids = fids[~back]
        preds = PredicateColumns.of([filter_ for _, filter_ in items])
        required[fids] = preds.counts  # a non-conjunctive filter's −1 is _NEVER
        for i in np.flatnonzero(preds.counts < 0).tolist():
            self._fallback[items[i][0]] = items[i][1]
        for pair, (item, value) in preds.entries.items():
            idx = self._indexes.get(pair)
            if idx is None:
                idx = self._indexes[pair] = _VecAttrOpIndex(pair[1])
            idx.add_many(value, fids[item])
            self._total_entries += len(item)

    def remove(self, fid: int) -> None:
        """:meth:`remove_many` of one fid (``perfbench/layers.py`` traces it)."""
        self.remove_many([fid])

    def remove_many(self, fids: Iterable[int]) -> None:
        """Tombstone a batch of live fids, with one purge test for the
        batch.  An unknown or repeated fid raises before anything is
        removed."""
        ids = np.fromiter(fids, dtype=np.int64)
        required = self._required.view()
        if len(set(ids.tolist())) != len(ids) or ((ids < 0) | (ids >= len(required))).any():
            raise KeyError("a fid repeats in the batch or was never added")
        counts = required[ids]
        indexed = counts != _NEVER
        loose = ids[~indexed].tolist()
        fallback = self._fallback
        for fid in loose:
            if fid not in fallback:
                raise KeyError(fid)
        for fid in loose:
            del fallback[fid]
        ids, counts = ids[indexed], counts[indexed]
        self._parked.view()[ids] = counts
        required[ids] = _NEVER
        self._dead_entries += int(counts.sum())
        if self._dead_entries * 2 > self._total_entries:
            self._purge_dead()

    def _purge_dead(self) -> None:
        """Drop every tombstoned entry from the indexes (amortised), so
        neither match cost nor index memory grows with cumulative churn."""
        alive = self._required.view() != _NEVER
        self._total_entries = sum(idx.purge(alive) for idx in self._indexes.values())
        self._parked.view()[:] = _NEVER
        self._dead_entries = 0

    # -------------------------------------------------------------- #
    # Matching.
    # -------------------------------------------------------------- #
    def warm(self) -> None:
        """Compile every (attribute, op) index now instead of on first
        use; the state reached is identical."""
        for idx in self._indexes.values():
            idx.compile()

    def match_array(self, attributes: Mapping[str, float]) -> np.ndarray:
        """The live fids whose filter the attributes satisfy, as one
        int64 array: the indexed ones ascending, then the fallback's."""
        chunks: list[np.ndarray] = []
        for (attr, _op), idx in self._indexes.items():
            v = attributes.get(attr)
            if v is None:
                continue
            if idx.dirty:
                idx.compile()
            idx.collect(v, chunks)
        required = self._required.view()
        satisfied = np.concatenate(chunks) if chunks else _NO_FIDS
        hits = np.flatnonzero(np.bincount(satisfied, minlength=len(required)) == required)
        extra = [fid for fid, filter_ in self._fallback.items() if filter_.matches(attributes)]
        if extra:
            hits = np.concatenate((hits, np.array(extra, dtype=np.int64)))
        return hits

    def __len__(self) -> int:
        """Live fids."""
        return int(np.count_nonzero(self._required.view() != _NEVER)) + len(self._fallback)


class FilterIndex:
    """Every live subscription filter of a system, matched once per message.

    Filters are interned to stable integer *fids* — by object first (a
    population draws its filters from a small shared pool), then by value
    (filters are frozen and hashable) — and one
    :class:`VectorCountingMatcher` keyed by fid holds the filters of live
    subscriptions, with a live-subscription count per fid.  A filter
    enters the matcher when its count leaves 0 and leaves it when the
    count returns to 0; fids are never reused.

    :meth:`verdicts` is the per-message result, ``bool[fid]``: computed
    once, cached on the message and keyed by this index and its mutation
    count (bumped only when the fid set or the matcher's membership
    changes).  A stale cache is recomputed, which is exact because a
    verdict is a pure function of the message's attributes.  Tables read
    it through their fid column; :meth:`interested` sums the live counts
    over it (the ``ts_i`` denominator of Eq. 1).
    """

    def __init__(self) -> None:
        self._matcher = VectorCountingMatcher()
        #: Filter value -> fid.  A lookup cache: it is not pickled (so a
        #: snapshot carries no predicate objects), and a filter interned
        #: after a restore gets a fresh fid — two fids of one value share
        #: every verdict, so that is exact too.
        self._fid_of: dict[Filter, int] = {}
        #: fid -> live subscriptions with that filter.
        self._live = GrowableArray(np.int64)
        #: Mutation counter: the key of every cached verdict array.
        self._version = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_fid_of"] = {}
        return state

    def fids(self, filters: Sequence[Filter]) -> np.ndarray:
        """The fid of each filter, interning unseen values (count 0)."""
        distinct = {id(filter_): filter_ for filter_ in filters}
        fid_of, live = self._fid_of, self._live
        slot: dict[int, int] = {}
        grown = len(live)
        for key, filter_ in distinct.items():
            fid = fid_of.get(filter_)
            if fid is None:
                fid = fid_of[filter_] = len(live)
                live.append(0)
            slot[key] = fid
        if len(live) != grown:
            self._version += 1
        return np.fromiter(
            map(slot.__getitem__, map(id, filters)), dtype=np.int64, count=len(filters)
        )

    def add(self, filters: Sequence[Filter]) -> np.ndarray:
        """Count one live subscription per filter; returns their fids."""
        fids = self.fids(filters)
        live = self._live.view()
        fresh = live[fids] == 0  # items whose filter is not live yet
        live += np.bincount(fids, minlength=len(live))
        if fresh.any():
            entering, first = np.unique(fids[fresh], return_index=True)
            items = np.flatnonzero(fresh)[first].tolist()
            self._matcher.add_many(zip(entering.tolist(), [filters[i] for i in items]))
            self._version += 1
        return fids

    def discard(self, fids: np.ndarray) -> None:
        """Uncount one live subscription per fid (the inverse of :meth:`add`)."""
        live = self._live.view()
        counts = np.bincount(fids, minlength=len(live))
        if (counts > live).any():
            raise KeyError("a filter is discarded more often than it is live")
        live -= counts
        leaving = np.flatnonzero((live == 0) & (counts > 0))
        if leaving.size:
            self._matcher.remove_many(leaving.tolist())
            self._version += 1

    def warm(self) -> None:
        """Build the matcher's indexes now instead of on the first match."""
        self._matcher.warm()

    def verdicts(self, message) -> np.ndarray:
        """``bool[fid]``: does the message satisfy each filter?"""
        cached = message.__dict__.get("_verdicts")
        if cached is not None and cached[0] is self and cached[1] == self._version:
            return cached[2]
        verdicts = np.zeros(len(self._live), dtype=bool)
        verdicts[self._matcher.match_array(message.attributes)] = True
        message.__dict__["_verdicts"] = (self, self._version, verdicts)
        return verdicts

    def interested(self, message) -> int:
        """Live subscriptions whose filter the message satisfies."""
        return int(self._live.view()[self.verdicts(message)].sum())

    def __len__(self) -> int:
        """Filters with at least one live subscription."""
        return len(self._matcher)
