"""Sharded window-drain engine: broker-partitioned parallel lookahead.

The conservative parallel layer over the fused engine
(:mod:`repro.pubsub.engine`).  The broker overlay is partitioned into N
shards (:func:`repro.sim.shard.partition_brokers` minimises expected
cross-shard link traffic); each shard's worker process holds a replica
of its brokers' subscription tables and, once per epoch (a fused window
widened to the min-cross-shard-link-latency lookahead), computes the
**pure** part of the pipeline for every pending ``"process"`` event in
the epoch: the grouped match and the local-delivery validity flags.
Results travel back as columnar batches (concatenated row-id arrays,
group offsets, hop ids, packed validity bits) over pipes; the
coordinator rebinds the row ids to its own tables as
:class:`~repro.pubsub.subscription.RowGroup` views, fills the brokers'
match/delivery memos, and then replays the window's events exactly like
the fused engine.

Identity discipline (the house standard): **all side effects stay on
the coordinator, in exact heap ``(time, priority, seq)`` order.**  The
delivery log's row order, the metrics ledger's left-to-right float
folds and every RNG draw are untouched — only pure functions of
(table state, message, event time) are computed remotely, and every
remote result is version-stamped so churn between lookahead and
execution falls back to the oracle recompute path in
``Broker._process``.  A sharded run is therefore byte-identical to the
sequential fused engine *by construction*, which
``tests/integration/test_shard_identity.py`` proves on the full matrix.

Replica coherence under churn: when workers fork, every coordinator
table arms a mutation journal; subscribe/unsubscribe ops recorded since
the last epoch ship with the next batch and are replayed on the replica
(same op order → same interned row ids → same version counter).  A
replica that cannot reach the coordinator's version refuses the batch
and the coordinator recomputes locally — degraded, never wrong.

Fault containment: a dead worker (or a platform without ``fork``)
degrades the engine to coordinator-local matching with a warning, so a
sharded run can always finish with identical results.
"""

from __future__ import annotations

import math
import multiprocessing
import warnings
import weakref
from time import perf_counter

import numpy as np

from repro.core import profiling
from repro.core.success import effective_deadline_array
from repro.des.simulator import Simulator
from repro.pubsub.engine import DEFAULT_WINDOW_MS, FusedEngine
from repro.pubsub.subscription import RowGroup, SubscriptionTable
from repro.sim.shard import (
    SHARD_BACKENDS,
    ShardConfigError,
    ShardPlan,
    partition_brokers,
)

_EMPTY_IDS = np.empty(0, dtype=np.int64)

#: Epochs never widen past this, however slow the crossing links are:
#: overly wide speculation is wasted under churn and delays sentinel /
#: checkpoint boundaries (decision-neutral either way).
MAX_EPOCH_MS = 250.0


# ---------------------------------------------------------------------- #
# Columnar wire format (worker -> coordinator).
# ---------------------------------------------------------------------- #
def _replay_ops(table: SubscriptionTable, ops: list[tuple[str, object]]) -> None:
    """Apply a journal slice to a replica table (same call sequence as
    the coordinator → identical interned ids and version counter)."""
    apply = {"i": table.install, "m": table.install_many, "u": table.uninstall_many}
    for kind, payload in ops:
        apply[kind](payload)


def _encode_batch(table: SubscriptionTable, jobs: list) -> tuple:
    """Match one broker's epoch batch and pack the results columnar.

    ``jobs`` is ``[(message, event_time_ms), ...]``.  Output carries row
    ids (int32 on the wire), per-group lengths and hop ids (−1 = local
    group), groups-per-message counts, per-message arrival latency and
    the local groups' validity flags as packed bits.  Pure per-message
    reductions only — every value is exactly what the coordinator would
    compute itself.
    """
    version = table.version
    results = table.match_grouped_many([m for m, _ in jobs])
    ids_parts: list[np.ndarray] = []
    group_len: list[int] = []
    group_hop: list[int] = []
    msg_groups: list[int] = []
    latency = np.empty(len(jobs))
    valid_parts: list[np.ndarray] = []
    for k, ((message, ev_time), (local, remote)) in enumerate(zip(jobs, results)):
        lat = message.hdl(ev_time)
        latency[k] = lat
        n_groups = 0
        if len(local):
            ids_parts.append(local.row_ids)
            group_len.append(len(local))
            group_hop.append(-1)
            valid_parts.append(
                lat <= effective_deadline_array(local.deadline, message)
            )
            n_groups += 1
        if remote:
            hop_id_of = table._hop_id_of
            for neighbor, group in remote.items():
                ids_parts.append(group.row_ids)
                group_len.append(len(group))
                group_hop.append(hop_id_of[neighbor])
                n_groups += 1
        msg_groups.append(n_groups)
    ids = (
        np.concatenate(ids_parts).astype(np.int32)
        if ids_parts
        else np.empty(0, dtype=np.int32)
    )
    valid_bits = (
        np.packbits(np.concatenate(valid_parts))
        if valid_parts
        else np.empty(0, dtype=np.uint8)
    )
    return (
        version,
        ids,
        np.asarray(group_len, dtype=np.int64),
        np.asarray(group_hop, dtype=np.int64),
        np.asarray(msg_groups, dtype=np.int64),
        latency,
        valid_bits,
    )


def _decode_batch(broker, jobs: list, batch: tuple, dup_ids) -> bool:
    """Rebind one broker's columnar batch to the coordinator's table and
    fill the match/delivery memos.  False = version mismatch (caller
    recomputes locally; cannot normally happen — the coordinator does
    not execute events between scatter and gather)."""
    table = broker.table
    version, ids, group_len, group_hop, msg_groups, latency, valid_bits = batch
    if version != table.version:
        return False
    # RowGroup captures the compiled column views at construction; make
    # sure they reflect the current (matching) version even though the
    # coordinator itself never ran a match for this batch.
    table._compile()
    ids = ids.astype(np.int64)
    offsets = np.empty(group_len.shape[0] + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(group_len, out=offsets[1:])
    local_total = int(group_len[group_hop == -1].sum()) if group_len.size else 0
    valid = (
        np.unpackbits(valid_bits, count=local_total).view(np.bool_)
        if local_total
        else None
    )
    hop_names = table._hop_names
    match_memo = broker._match_memo
    delivery_memo = broker._delivery_memo
    gi = 0
    vpos = 0
    for k, (message, _ev_time) in enumerate(jobs):
        local = RowGroup(table, _EMPTY_IDS)
        remote: dict[str, RowGroup] = {}
        has_local = False
        local_valid = None
        for _ in range(int(msg_groups[k])):
            seg = ids[offsets[gi]:offsets[gi + 1]]
            hop = int(group_hop[gi])
            if hop < 0:
                local = RowGroup(table, seg)
                has_local = True
                n = int(group_len[gi])
                local_valid = valid[vpos:vpos + n]
                vpos += n
            else:
                # Insertion order preserved from the worker's
                # match_grouped — sorted neighbor-name order, the
                # broker's deterministic enqueue order.
                remote[hop_names[hop]] = RowGroup(table, seg)
            gi += 1
        match_memo[message.msg_id] = (version, (local, remote))
        if has_local and message.msg_id not in dup_ids:
            # Duplicate (broker, msg) process events (multi-path routing
            # sharing an intermediate broker) execute at different times
            # with different latencies; one memo slot cannot serve both,
            # so duplicates take the local recompute path in _process.
            delivery_memo[message.msg_id] = (version, float(latency[k]), local_valid)
    return True


# ---------------------------------------------------------------------- #
# Workers.
# ---------------------------------------------------------------------- #
def _worker_main(conn, system, broker_names: tuple[str, ...]) -> None:
    """Shard worker loop: replay journal deltas, match, ship columns.

    Forked from the coordinator, so it inherits the fully built system
    copy-on-write; it only ever *reads* messages and *mutates its own
    replica tables*, and its final state is discarded — all authoritative
    state lives on the coordinator.
    """
    try:  # keep copy-on-write pages shared: don't let GC touch the world
        import gc

        gc.freeze()
    except Exception:  # pragma: no cover - gc.freeze exists on 3.7+
        pass
    for broker in system.brokers.values():
        broker.table.journal = None  # replicas don't journal their replays
    tables = {name: system.brokers[name].table for name in broker_names}
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):  # coordinator went away
            return
        if request is None:  # orderly shutdown
            conn.close()
            return
        response = []
        for name, version, ops, jobs in request:
            table = tables[name]
            try:
                _replay_ops(table, ops)
                if table.version != version:
                    response.append(None)  # diverged: coordinator recomputes
                else:
                    response.append(_encode_batch(table, jobs))
            except Exception:  # never take the run down from a worker
                response.append(None)
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):  # pragma: no cover
            return


def _shutdown_workers(conns: list, procs: list) -> None:
    """Finalizer: orderly shutdown, then escalate."""
    for conn in conns:
        try:
            conn.send(None)
        except Exception:
            pass
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=1.0)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass


class _ProcessClient:
    """Coordinator-side handle to one forked shard worker."""

    __slots__ = ("conn", "proc")

    def __init__(self, conn, proc) -> None:
        self.conn = conn
        self.proc = proc

    def submit(self, request: list) -> None:
        self.conn.send(request)

    def collect(self) -> list:
        return self.conn.recv()


class _InlineClient:
    """The same batching/encode/decode protocol, run in-process.

    Deterministic on every platform and exactly as byte-identical (the
    wire codec is exercised either way); used by tests, the REPRO_SHARDS
    suite override, and as the portable backend.
    """

    __slots__ = ("system", "_response")

    def __init__(self, system) -> None:
        self.system = system
        self._response: list | None = None

    def submit(self, request: list) -> None:
        response = []
        for name, version, ops, jobs in request:
            # No replicas inline: the coordinator's own table is matched,
            # so the journal slice (always empty here) needs no replay.
            table = self.system.brokers[name].table
            if table.version != version:
                response.append(None)
            else:
                response.append(_encode_batch(table, jobs))
        self._response = response

    def collect(self) -> list:
        response, self._response = self._response, None
        return response  # type: ignore[return-value]


# ---------------------------------------------------------------------- #
# The engine.
# ---------------------------------------------------------------------- #
class ShardedEngine(FusedEngine):
    """Broker-partitioned parallel lookahead over the fused window drain.

    Drives the heap exactly like :class:`FusedEngine` (same run loop,
    same ``until`` semantics) but distributes the window lookahead's
    pure match phase across shard workers.  Workers start lazily at the
    first lookahead with work — by then the system is fully built, so a
    fork inherits the subscription tables copy-on-write.
    """

    backend = "sharded"

    def __init__(
        self,
        sim: Simulator,
        system: object | None = None,
        window_ms: float = DEFAULT_WINDOW_MS,
        *,
        shards: int,
        shard_backend: str = "process",
        plan: ShardPlan | None = None,
    ) -> None:
        super().__init__(sim, system, window_ms=window_ms)
        if system is None:
            raise ShardConfigError("the sharded engine needs a system to partition")
        if shards < 1:
            raise ShardConfigError(f"shards must be >= 1, got {shards}")
        if shard_backend not in SHARD_BACKENDS:
            raise ShardConfigError(
                f"shard_backend must be one of {SHARD_BACKENDS}, "
                f"got {shard_backend!r}"
            )
        self.shards = shards
        self.shard_backend = shard_backend
        self._plan = plan
        self._shard_of: dict[str, int] = {}
        self._clients: list | None = None
        self._started = False
        self._degraded = False
        self._finalizer = None

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    @property
    def plan(self) -> ShardPlan | None:
        """The partition in force (None until computed at first start)."""
        return self._plan

    def _start(self) -> None:
        self._started = True
        system = self.system
        plan = self._plan
        if plan is None:
            plan = partition_brokers(system.topology, self.shards)
        plan.validate_against(system.topology)
        self._plan = plan
        self._shard_of = {name: plan.shard_of(name) for name in plan.brokers}
        # Widen the fused window to the conservative epoch horizon: a
        # message needs at least the min crossing-link latency to hop
        # shards, so batching at that granularity loses no parallelism.
        look = plan.lookahead_ms(getattr(system.config, "default_size_kb", 50.0))
        if math.isfinite(look) and look > self.window_ms:
            self.window_ms = min(look, MAX_EPOCH_MS)
        if self.shard_backend == "inline":
            self._clients = [_InlineClient(system) for _ in plan.assignments]
            return
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ShardConfigError(
                "shard_backend='process' requires the fork start method "
                "(POSIX); use shard_backend='inline' on this platform"
            )
        ctx = multiprocessing.get_context("fork")
        # Arm the journals *before* forking: replicas start at exactly
        # this table state and replay every later op in order.
        for broker in system.brokers.values():
            broker.table.journal = []
        clients: list[_ProcessClient] = []
        conns: list = []
        procs: list = []
        try:
            for names in plan.assignments:
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child, system, names),
                    daemon=True,
                    name=f"repro-shard-{len(procs)}",
                )
                proc.start()
                child.close()
                clients.append(_ProcessClient(parent, proc))
                conns.append(parent)
                procs.append(proc)
        except Exception:
            _shutdown_workers(conns, procs)
            raise
        self._clients = clients
        self._finalizer = weakref.finalize(self, _shutdown_workers, conns, procs)

    def close(self) -> None:
        """Shut the workers down (idempotent).  The engine restarts them
        lazily — with a fresh fork of the current state — if run again."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._clients = None
        self._started = False

    def _degrade(self, why: str) -> None:
        """Fall back to coordinator-local matching permanently (results
        stay byte-identical; only the parallelism is lost)."""
        if not self._degraded:
            warnings.warn(
                f"sharded engine degraded to local matching: {why}",
                RuntimeWarning,
                stacklevel=3,
            )
        self._degraded = True
        for broker in self.system.brokers.values():
            broker.table.journal = None
        self.close()

    # ------------------------------------------------------------------ #
    # The distributed lookahead.
    # ------------------------------------------------------------------ #
    def _precompute(self, wend: float) -> None:
        pending: dict[object, list] = {}
        seen: dict[object, set] = {}
        dups: dict[object, set] = {}
        for ev in self._due_unmatched(wend):
            broker, message = ev.payload
            jobs = pending.get(broker)
            if jobs is None:
                jobs = pending[broker] = []
                seen[broker] = set()
            if message.msg_id in seen[broker]:
                dups.setdefault(broker, set()).add(message.msg_id)
            else:
                seen[broker].add(message.msg_id)
            jobs.append((message, ev.time))
        if not pending:
            return
        prof = profiling.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        if not self._started and not self._degraded:
            self._start()
        fallback: list[tuple[object, list]] = []
        if self._degraded:
            fallback = list(pending.items())
        else:
            clients = self._clients
            requests: list[list] = [[] for _ in clients]
            order: list[list] = [[] for _ in clients]
            for broker, jobs in pending.items():
                idx = self._shard_of.get(broker.name)
                if idx is None:  # not in the plan (defensive)
                    fallback.append((broker, jobs))
                    continue
                journal = broker.table.journal
                if journal:
                    ops = journal[:]
                    journal.clear()
                else:
                    ops = []
                requests[idx].append((broker.name, broker.table.version, ops, jobs))
                order[idx].append((broker, jobs))
            active = [i for i in range(len(clients)) if requests[i]]
            # Scatter to every shard first, then gather: the workers'
            # match phases run concurrently while the coordinator waits
            # at the epoch barrier.
            alive: list[int] = []
            for i in active:
                try:
                    clients[i].submit(requests[i])
                    alive.append(i)
                except (BrokenPipeError, OSError) as err:
                    self._degrade(f"worker {i} unreachable ({err})")
                    fallback.extend(order[i])
            for i in alive:
                try:
                    response = clients[i].collect()
                except (EOFError, OSError) as err:
                    self._degrade(f"worker {i} died ({err})")
                    fallback.extend(order[i])
                    continue
                for (broker, jobs), batch in zip(order[i], response):
                    if batch is None or not _decode_batch(
                        broker, jobs, batch, dups.get(broker, ())
                    ):
                        fallback.append((broker, jobs))
        # Coordinator-local recompute: exactly the fused engine's path.
        for broker, jobs in fallback:
            table = broker.table
            version = table.version
            messages = [m for m, _ in jobs]
            results = table.match_grouped_many(messages)
            memo = broker._match_memo
            for message, result in zip(messages, results):
                memo[message.msg_id] = (version, result)
        if prof is not None:
            prof.add("match", perf_counter() - t0)

    # ------------------------------------------------------------------ #
    # Serialization (checkpoint composition).
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Workers hold no authoritative state — a snapshot drops the
        handles and a restored engine re-forks lazily from the restored
        system at its first lookahead."""
        state = self.__dict__.copy()
        state["_clients"] = None
        state["_started"] = False
        state["_degraded"] = False
        state["_finalizer"] = None
        state["_shard_of"] = {}
        return state
