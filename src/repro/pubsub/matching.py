"""Matching engines: which subscriptions does a message satisfy?

Three implementations behind one protocol:

* :class:`BruteForceMatcher` — evaluate every filter; the correctness
  oracle, and the counting matchers' fallback for non-conjunctive filters.
* :class:`CountingIndexMatcher` — the classic *counting algorithm* for
  conjunctive subscriptions (Yan & Garcia-Molina): per-(attribute, op)
  sorted threshold indexes produce, per message, the count of satisfied
  predicates per subscription; a subscription matches when its count equals
  its predicate total.  Non-conjunctive filters degrade to brute force.
  The reference stack (:mod:`repro.reference`) matches with it.
* :class:`VectorCountingMatcher` — the same counting algorithm on dense
  integer ids and numpy: every key is interned to a contiguous id, each
  (attribute, op) index stores its thresholds as one sorted array with
  CSR-style id spans, and a match is ``np.searchsorted`` (per index) +
  slice-concatenate + one ``np.bincount`` compared against the per-id
  predicate totals.  Decision-identical to :class:`CountingIndexMatcher`
  (the differential tests assert it); mutation recompiles the touched
  indexes lazily, so install-then-match workloads pay one build.

Engines are generic over an opaque ``key``.  The production stack keys one
:class:`VectorCountingMatcher` by *filter id* inside a system-wide
:class:`FilterIndex`: every broker's table row carries its subscriber's
own filter, so a publication's verdicts are the same at every hop and are
computed once per publication.  The reference stack keys a
:class:`CountingIndexMatcher` by row id in every table and by subscriber
in its population count.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from typing import Generic, Hashable, Iterable, Mapping, Protocol, Sequence, TypeVar

import numpy as np

from repro.core.growable import GrowableArray
from repro.pubsub.filters import Filter, Predicate, conjunction_predicates

K = TypeVar("K", bound=Hashable)


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


class MatchingEngine(Protocol[K]):
    """Protocol shared by all matchers: what the filter index, the
    reference tables and the reference population count call."""

    def add(self, key: K, filter_: Filter) -> None: ...

    def add_many(self, items: Iterable[tuple[K, Filter]]) -> None:
        """Equivalent to :meth:`add` per item in order."""
        ...

    def remove(self, key: K) -> None: ...

    def remove_many(self, keys: Iterable[K]) -> None:
        """Equivalent to :meth:`remove` per key in order."""
        ...

    def match(self, attributes: Mapping[str, float]) -> set[K]: ...

    def count(self, attributes: Mapping[str, float]) -> int: ...

    def __len__(self) -> int: ...


class BruteForceMatcher(Generic[K]):
    """Evaluate every registered filter."""

    def __init__(self) -> None:
        self._filters: dict[K, Filter] = {}

    def add(self, key: K, filter_: Filter) -> None:
        if key in self._filters:
            raise KeyError(f"duplicate key {key!r}")
        self._filters[key] = filter_

    def add_many(self, items: Iterable[tuple[K, Filter]]) -> None:
        for key, filter_ in items:
            self.add(key, filter_)

    def remove(self, key: K) -> None:
        del self._filters[key]

    def remove_many(self, keys: Iterable[K]) -> None:
        for key in keys:
            self.remove(key)

    def match(self, attributes: Mapping[str, float]) -> set[K]:
        return {k for k, f in self._filters.items() if f.matches(attributes)}

    def count(self, attributes: Mapping[str, float]) -> int:
        """``len(match(...))`` without materialising the key set."""
        return sum(1 for f in self._filters.values() if f.matches(attributes))

    def __contains__(self, key: K) -> bool:
        return key in self._filters

    def __len__(self) -> int:
        return len(self._filters)


class _AttrOpIndex:
    """Sorted thresholds for one (attribute, op) pair.

    For ``<``/``<=`` predicates, a message value ``v`` satisfies all
    thresholds strictly greater than ``v`` (resp. ``>= v``); bisect gives
    the satisfied suffix in O(log n) + output size.
    """

    __slots__ = ("op", "_thresholds", "_keys")

    def __init__(self, op: str) -> None:
        self.op = op
        self._thresholds: list[float] = []
        self._keys: list[list] = []  # parallel: keys sharing each threshold

    def add(self, value: float, key) -> None:
        i = bisect.bisect_left(self._thresholds, value)
        if i < len(self._thresholds) and self._thresholds[i] == value:
            self._keys[i].append(key)
        else:
            self._thresholds.insert(i, value)
            self._keys.insert(i, [key])

    def add_many(self, pairs: Iterable[tuple[float, object]]) -> None:
        """Bulk insert: one sort + linear merge instead of per-add
        ``list.insert`` (O((n+m)·log m) versus O(n·m) for m adds into an
        n-threshold index).  Equivalent to calling :meth:`add` per pair in
        iteration order — keys sharing a threshold keep that order.
        """
        incoming = sorted(pairs, key=lambda p: p[0])  # stable: preserves add order
        if not incoming:
            return
        merged_t: list[float] = []
        merged_k: list[list] = []
        i = j = 0
        t, ks = self._thresholds, self._keys
        while i < len(t) or j < len(incoming):
            if j >= len(incoming) or (i < len(t) and t[i] <= incoming[j][0]):
                merged_t.append(t[i])
                merged_k.append(ks[i])
                i += 1
            else:
                value, key = incoming[j]
                if merged_t and merged_t[-1] == value:
                    merged_k[-1].append(key)
                else:
                    merged_t.append(value)
                    merged_k.append([key])
                j += 1
        self._thresholds, self._keys = merged_t, merged_k

    def remove(self, value: float, key) -> None:
        i = bisect.bisect_left(self._thresholds, value)
        if i >= len(self._thresholds) or self._thresholds[i] != value:
            raise KeyError(key)
        self._keys[i].remove(key)
        if not self._keys[i]:
            del self._thresholds[i]
            del self._keys[i]

    def satisfied_keys(self, v: float) -> Iterable:
        t, ks = self._thresholds, self._keys
        op = self.op
        if op == "<":  # v < threshold  => thresholds strictly above v
            start = bisect.bisect_right(t, v)
            rng = range(start, len(t))
        elif op == "<=":
            start = bisect.bisect_left(t, v)
            rng = range(start, len(t))
        elif op == ">":  # v > threshold => thresholds strictly below v
            stop = bisect.bisect_left(t, v)
            rng = range(0, stop)
        elif op == ">=":
            stop = bisect.bisect_right(t, v)
            rng = range(0, stop)
        elif op == "==":
            i = bisect.bisect_left(t, v)
            rng = range(i, i + 1) if i < len(t) and t[i] == v else range(0)
        else:  # "!=": everything except the equal threshold
            i = bisect.bisect_left(t, v)
            skip = i if i < len(t) and t[i] == v else -1
            for j in range(len(t)):
                if j != skip:
                    yield from ks[j]
            return
        for j in rng:
            yield from ks[j]


class CountingIndexMatcher(Generic[K]):
    """Counting-algorithm matcher for conjunctive filters."""

    def __init__(self) -> None:
        self._indexes: dict[tuple[str, str], _AttrOpIndex] = {}
        self._predicate_count: dict[K, int] = {}
        self._predicates: dict[K, tuple[Predicate, ...]] = {}
        self._fallback = BruteForceMatcher[K]()
        #: Keys with zero predicates (empty conjunctions) match every
        #: message but never appear in any index; cached here so ``match``
        #: does not rescan ``_predicate_count`` on every call.
        self._match_all: set[K] = set()

    def add(self, key: K, filter_: Filter) -> None:
        if key in self._predicate_count or key in self._fallback:
            raise KeyError(f"duplicate key {key!r}")
        preds = conjunction_predicates(filter_)
        if preds is None:
            self._fallback.add(key, filter_)
            return
        self._predicate_count[key] = len(preds)
        self._predicates[key] = preds
        if not preds:
            self._match_all.add(key)
        for p in preds:
            idx = self._indexes.get((p.attribute, p.op))
            if idx is None:
                idx = self._indexes[(p.attribute, p.op)] = _AttrOpIndex(p.op)
            idx.add(p.value, key)

    def add_many(self, items: Iterable[tuple[K, Filter]]) -> None:
        """Bulk registration: predicates are grouped per (attribute, op)
        index and inserted with one sorted merge each.  Matching behaviour
        is identical to adding the items one at a time, in order.
        """
        items = list(items)
        seen: set[K] = set()
        for key, _ in items:
            if key in self._predicate_count or key in seen or key in self._fallback:
                raise KeyError(f"duplicate key {key!r}")
            seen.add(key)
        batches: dict[tuple[str, str], list[tuple[float, K]]] = defaultdict(list)
        for key, filter_ in items:
            preds = conjunction_predicates(filter_)
            if preds is None:
                self._fallback.add(key, filter_)
                continue
            self._predicate_count[key] = len(preds)
            self._predicates[key] = preds
            if not preds:
                self._match_all.add(key)
            for p in preds:
                batches[(p.attribute, p.op)].append((p.value, key))
        for (attr, op), pairs in batches.items():
            idx = self._indexes.get((attr, op))
            if idx is None:
                idx = self._indexes[(attr, op)] = _AttrOpIndex(op)
            idx.add_many(pairs)

    def remove(self, key: K) -> None:
        preds = self._predicates.pop(key, None)
        if preds is None:
            self._fallback.remove(key)
            return
        del self._predicate_count[key]
        self._match_all.discard(key)
        for p in preds:
            self._indexes[(p.attribute, p.op)].remove(p.value, key)

    def remove_many(self, keys: Iterable[K]) -> None:
        for key in keys:
            self.remove(key)

    def match(self, attributes: Mapping[str, float]) -> set[K]:
        counts: dict[K, int] = defaultdict(int)
        for (attr, _op), idx in self._indexes.items():
            v = attributes.get(attr)
            if v is None:
                continue
            for key in idx.satisfied_keys(v):
                counts[key] += 1
        result = {k for k, c in counts.items() if c == self._predicate_count[k]}
        result.update(self._match_all)
        result.update(self._fallback.match(attributes))
        return result

    def count(self, attributes: Mapping[str, float]) -> int:
        """``len(match(...))`` — the oracle keeps the straightforward form."""
        return len(self.match(attributes))

    def warm(self) -> None:
        """Nothing to build ahead: the bisect indexes are always current."""

    def __len__(self) -> int:
        return len(self._predicate_count) + len(self._fallback)


def _column(values: np.ndarray) -> GrowableArray:
    column = GrowableArray(values.dtype, capacity=len(values))
    column.extend(values)
    return column


class _VecAttrOpIndex:
    """One (attribute, op) index over interned ids, compiled to numpy.

    Raw entries accumulate in two growable columns (threshold values and
    the ids that own them); :meth:`compile` argsorts them into a sorted
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

    def purge(self, alive: np.ndarray, remap: np.ndarray) -> int:
        """Drop the entries of ids not ``alive`` and renumber the rest
        through ``remap``; returns the entries left."""
        ids = self._entry_ids.view()
        keep = alive[ids]
        self._values = _column(self._values.view()[keep])
        self._entry_ids = _column(remap[ids[keep]])
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


#: Sentinel predicate total for ids that must never win the count test:
#: removed keys and match-all keys (handled by their own cached set).
_NEVER = -1


class VectorCountingMatcher(Generic[K]):
    """Counting-algorithm matcher on dense ids and numpy arrays.

    Keys are interned to contiguous integer ids; a match concatenates the
    per-index satisfied-id slices and compares one ``np.bincount`` against
    the per-id predicate totals.  Ids are append-only (removals leave a
    ``_NEVER`` total behind), so compiled indexes stay valid across
    removals and only the touched (attribute, op) indexes recompile.

    Mutation is batch-first: :meth:`add_many` / :meth:`remove_many` are
    the implementations, :meth:`add` / :meth:`remove` their one-element
    calls.  The matcher keeps no per-key predicate objects — membership is
    ``_id_of``, a key's entry count its ``_required`` slot.

    Non-conjunctive filters degrade to brute force and empty conjunctions
    live in a cached match-all set, exactly as in
    :class:`CountingIndexMatcher`.
    """

    def __init__(self) -> None:
        self._indexes: dict[tuple[str, str], _VecAttrOpIndex] = {}
        self._keys: list[K] = []  # id -> key
        #: Live keys only, in ascending id order: ids are handed out in
        #: insertion order and a purge renumbers in that same order.
        self._id_of: dict[K, int] = {}
        self._required = GrowableArray(np.int64)  # id -> predicate total (or _NEVER)
        self._match_all: set[K] = set()
        self._fallback = BruteForceMatcher[K]()
        self._key_arr = np.empty(0, dtype=np.int64)  # id -> key, int keys only
        # Removal is tombstone-based: a removed id's predicate total goes to
        # _NEVER, so its (still-indexed) entries can inflate bincount inputs
        # but can never win the count test.  Once the tombstones outnumber
        # the live entries (or live ids), :meth:`_purge_dead` compacts the
        # whole id space — dead entries leave the indexes and surviving ids
        # are remapped to stay dense — so remove is O(1) amortised and
        # per-match bincount width tracks live keys, not cumulative adds.
        self._dead_entries = 0
        self._total_entries = 0
        #: True while every key equals its own interned id (a filter index
        #: keys filters by fids handed out in the same order, so a
        #: churn-free run keeps this throughout) — then matched ids ARE
        #: the keys and match_array needs no gather.
        self._keys_identity = True

    # -------------------------------------------------------------- #
    # Mutation.
    # -------------------------------------------------------------- #
    def add(self, key: K, filter_: Filter) -> None:
        self.add_many([(key, filter_)])

    def add_many(self, items: Iterable[tuple[K, Filter]]) -> None:
        """Bulk registration: interning happens in item order (ids are
        those of sequential :meth:`add` calls) and each (attribute, op)
        index takes its entries as one column append, from the batch's
        :class:`PredicateColumns`.
        """
        items = list(items)
        keys = [key for key, _ in items]
        id_of, fallback = self._id_of, self._fallback
        if (len(set(keys)) != len(keys) or not id_of.keys().isdisjoint(keys)
                or not fallback._filters.keys().isdisjoint(keys)):
            seen: set[K] = set()
            for key in keys:
                if key in seen or key in id_of or key in fallback:
                    raise KeyError(f"duplicate key {key!r}")
                seen.add(key)
        preds = PredicateColumns.of([filter_ for _, filter_ in items])
        counts = preds.counts
        indexed = counts >= 0
        base = len(self._keys)
        ids = base + np.cumsum(indexed) - 1  # per item; unused where not indexed
        if not indexed.all():
            for i in np.flatnonzero(~indexed).tolist():
                fallback.add(*items[i])
            keys = [keys[i] for i in np.flatnonzero(indexed).tolist()]
            counts = counts[indexed]
        new_ids = range(base, base + len(keys))
        if self._keys_identity and keys != list(new_ids):
            self._keys_identity = False
        id_of.update(zip(keys, new_ids))
        self._keys.extend(keys)
        self._required.extend(np.where(counts > 0, counts, _NEVER))
        for i in np.flatnonzero(counts == 0).tolist():
            self._match_all.add(keys[i])
        for pair, (item, value) in preds.entries.items():
            idx = self._indexes.get(pair)
            if idx is None:
                idx = self._indexes[pair] = _VecAttrOpIndex(pair[1])
            idx.add_many(value, ids[item])
            self._total_entries += len(item)

    def remove(self, key: K) -> None:
        self.remove_many([key])

    def remove_many(self, keys: Iterable[K]) -> None:
        """Tombstone a batch of keys, with one purge test for the batch.
        An unknown or repeated key raises before anything is removed."""
        keys = list(keys)
        id_of, fallback = self._id_of, self._fallback
        if len(set(keys)) != len(keys):
            raise KeyError("a key repeats in the batch")
        loose = [key for key in keys if key not in id_of]
        for key in loose:
            if key not in fallback:
                raise KeyError(key)
        if loose:
            fallback.remove_many(loose)
            keys = [key for key in keys if key in id_of]
        if not keys:
            return
        ids = np.fromiter(map(id_of.pop, keys), dtype=np.int64, count=len(keys))
        required = self._required.view()
        counts = required[ids]
        self._dead_entries += int(counts[counts > 0].sum())
        required[ids] = _NEVER
        if self._match_all:
            self._match_all.difference_update(keys)
        if (self._dead_entries * 2 > self._total_entries
                or (len(self._keys) - len(id_of)) * 2 > len(self._keys)):
            self._purge_dead()

    def _purge_dead(self) -> None:
        """Compact the id space (amortised): drop tombstoned entries from
        every index and remap surviving ids to be dense again, so neither
        match cost nor id-table memory grows with cumulative churn."""
        live = np.fromiter(self._id_of.values(), dtype=np.int64, count=len(self._id_of))
        alive = np.zeros(len(self._keys), dtype=bool)
        alive[live] = True
        remap = np.cumsum(alive) - 1
        self._keys = list(self._id_of)
        self._id_of = dict(zip(self._keys, range(len(self._keys))))
        self._required = _column(self._required.view()[live])
        self._total_entries = sum(
            idx.purge(alive, remap) for idx in self._indexes.values()
        )
        self._dead_entries = 0
        self._key_arr = np.empty(0, dtype=np.int64)
        self._keys_identity = self._keys == list(range(len(self._keys)))

    # -------------------------------------------------------------- #
    # Matching.
    # -------------------------------------------------------------- #
    def warm(self) -> None:
        """Eagerly build every lazy compiled structure (per-op indexes,
        key gather).  Matching compiles these on first use anyway; warming
        just moves the one-time cost out of the simulation's hot loop —
        reachable state is identical."""
        for idx in self._indexes.values():
            idx.compile()
        if not self._keys_identity and len(self._key_arr) != len(self._keys):
            try:
                self._key_arr = np.asarray(self._keys, dtype=np.int64)
            except (TypeError, ValueError):
                pass  # non-int keys never take the array path

    def _indexed_hits(self, attributes: Mapping[str, float]) -> np.ndarray:
        """Ids whose predicate count equals their total (sorted ascending)."""
        chunks: list[np.ndarray] = []
        for (attr, _op), idx in self._indexes.items():
            v = attributes.get(attr)
            if v is None:
                continue
            if idx.dirty:
                idx.compile()
            idx.collect(v, chunks)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        satisfied = np.concatenate(chunks)
        if satisfied.size == 0:
            return satisfied
        required = self._required.view()
        counts = np.bincount(satisfied, minlength=len(required))
        return np.flatnonzero(counts == required)

    def match(self, attributes: Mapping[str, float]) -> set[K]:
        keys = self._keys
        result = {keys[i] for i in self._indexed_hits(attributes)}
        result.update(self._match_all)
        result.update(self._fallback.match(attributes))
        return result

    def match_array(self, attributes: Mapping[str, float]) -> np.ndarray:
        """Matched keys as one int64 array — the zero-set fast path.

        Only valid when every key is a Python int (the filter index keys
        filters by fid).  Order is unspecified.
        """
        hits = self._indexed_hits(attributes)
        if self._keys_identity and not self._match_all and not len(self._fallback):
            # Keys == ids: the hit array (already sorted ascending, as it
            # comes from flatnonzero) is the answer with no gather.
            return hits
        if len(self._key_arr) != len(self._keys):
            self._key_arr = np.asarray(self._keys, dtype=np.int64)
        parts = [self._key_arr[hits]] if hits.size else []
        if self._match_all:
            parts.append(np.fromiter(self._match_all, dtype=np.int64, count=len(self._match_all)))
        if len(self._fallback):
            extra = self._fallback.match(attributes)
            if extra:
                parts.append(np.fromiter(extra, dtype=np.int64, count=len(extra)))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def count(self, attributes: Mapping[str, float]) -> int:
        """``len(match(...))`` without materialising the key set.

        Exact because the three categories are disjoint: ``add`` raises on
        duplicate keys, match-all ids carry a ``_NEVER`` total (never in
        the indexed hits) and fallback keys are never interned.
        """
        return (
            int(self._indexed_hits(attributes).size)
            + len(self._match_all)
            + len(self._fallback.match(attributes))
        )

    def __len__(self) -> int:
        return len(self._id_of) + len(self._fallback)


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
        self._matcher: VectorCountingMatcher[int] = VectorCountingMatcher()
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
