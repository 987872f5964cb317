"""Parallel sweep execution: independent points over a process pool.

Every sweep decomposes into independent ``(strategy, x, seed)`` points
(see :mod:`repro.sim.sweep`); each point is a pure function of its
:class:`~repro.sim.config.SimulationConfig`, so the grid parallelises
with no coordination beyond deterministic reassembly — results come back
in submission order regardless of which worker finished first, making
``--jobs N`` output byte-identical to a sequential run.

An optional on-disk **point cache** keyed by a config fingerprint lets
repeated sweeps (re-rendered figures, claim checks, benches at the same
scale) skip finished points entirely; cached results are exact because
:func:`~repro.sim.runner.run_simulation` is deterministic per config.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Sequence

from repro.sim.config import SimulationConfig
from repro.sim.io import result_from_dict, result_to_dict
from repro.sim.results import SimulationResult
from repro.sim.runner import run_simulation
from repro.sim.sweep import PointFailure, PointRunner, run_points_serial

__all__ = [
    "ParallelPointRunner",
    "PointCache",
    "PointFailure",  # historic home; canonical definition lives in sweep.py
    "config_fingerprint",
    "make_point_runner",
]

#: Bump when result semantics change so stale cache entries cannot leak
#: into new runs.
_CACHE_SCHEMA = 1


def _jsonable(value):
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


#: Config fields that change *residency*, never results (the chunked-log
#: knobs are proven decision- and byte-neutral, and the sentinel only
#: reads): excluded from the fingerprint so equal-result configs share
#: cache entries — which also keeps fingerprints of pre-existing caches
#: valid.  The fault knobs (retry backoff, dead-letter timeout) stay in
#: the fingerprint: they change results whenever the script downs a link.
_RESULT_NEUTRAL_FIELDS = frozenset({
    "log_spill", "log_chunk_rows",
    "sentinel", "sentinel_every_ms", "sentinel_deep",
})


def config_fingerprint(config: SimulationConfig) -> str:
    """Stable hash of everything that determines a point's result."""
    fields = {
        k: v for k, v in _jsonable(config).items()
        if k not in _RESULT_NEUTRAL_FIELDS
    }
    payload = {"schema": _CACHE_SCHEMA, "config": fields}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class PointCache:
    """One JSON file per finished simulation point, keyed by fingerprint."""

    #: Orphaned ``*.tmp`` files older than this are swept on open; younger
    #: ones may belong to a concurrent sweep's in-flight write (unlinking
    #: those would make its atomic replace fail), so age gates the sweep.
    _TMP_ORPHAN_AGE_S = 60.0

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise NotADirectoryError(
                f"point cache path {self.root} exists and is not a directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_orphans()

    def _sweep_orphans(self) -> None:
        """Remove stale ``*.tmp`` files left by crashed writers."""
        # repro-lint: ignore[RL001] -- filesystem janitor age gate, never reaches sim state
        cutoff = time.time() - self._TMP_ORPHAN_AGE_S
        for tmp in self.root.glob("*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink(missing_ok=True)
            except OSError:
                pass  # already gone, or unreadable — never abort a sweep

    def _path(self, config: SimulationConfig) -> Path:
        return self.root / f"{config_fingerprint(config)}.json"

    def get(self, config: SimulationConfig) -> SimulationResult | None:
        path = self._path(config)
        if not path.exists():
            return None
        try:
            return result_from_dict(json.loads(path.read_text()))
        except (ValueError, TypeError, OSError):
            # A corrupt, truncated or unreadable entry (a killed run or a
            # full disk can leave either) is a cache MISS, never a sweep
            # abort: recompute the point, and delete the bad file so it
            # cannot poison later sweeps either.  JSONDecodeError and
            # UnicodeDecodeError are ValueErrors; TypeError covers
            # valid-JSON non-dict payloads; OSError covers unreadable
            # files.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None

    def put(self, config: SimulationConfig, result: SimulationResult) -> None:
        # Writer-unique tmp name + fsync + atomic replace: a concurrent
        # reader (or a second sweep sharing the cache) never sees a torn
        # file, and a machine crash right after the replace cannot leave
        # the published name pointing at unflushed bytes.
        tmp = self._path(config).with_suffix(f".{os.getpid()}.tmp")
        with open(tmp, "w") as fh:
            fh.write(json.dumps(result_to_dict(result), sort_keys=True))
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(self._path(config))

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json")))


def _run_point(config: SimulationConfig) -> SimulationResult:
    # Module-level so it pickles for the process pool.
    return run_simulation(config)


#: Per-point retry budget: attempts = retries + 1.  Deterministic errors
#: (a bad config) just fail faster through the same path.
_POINT_RETRIES = 2
_POINT_BACKOFF_S = 0.05


def _run_point_retrying(
    config: SimulationConfig,
    retries: int = _POINT_RETRIES,
    backoff_s: float = _POINT_BACKOFF_S,
) -> SimulationResult:
    """Worker-side entry: bounded retry-with-backoff around one point.

    Transient failures (a flaky filesystem under a spilling run, memory
    pressure that clears) get ``retries`` more attempts; a persistent
    error re-raises and keeps the historic propagate-to-caller contract.
    Looks ``_run_point`` up dynamically so test monkeypatches apply.
    """
    attempt = 0
    while True:
        try:
            return _run_point(config)
        except Exception:
            attempt += 1
            if attempt > retries:
                raise
            time.sleep(backoff_s * (2 ** (attempt - 1)))


class ParallelPointRunner:
    """Run independent points over a :class:`ProcessPoolExecutor`.

    ``jobs=1`` (or a single pending point) degrades to the serial path;
    a pool that cannot start (restricted sandboxes) falls back to serial
    with a warning rather than failing the sweep.  A pool whose workers
    *die* mid-sweep (``BrokenProcessPool``) is respawned and the lost
    points resubmitted, up to ``max_respawns`` times; points still
    unfinished after the last respawn come back as :class:`PointFailure`
    entries rather than poisoning the whole sweep.  Results are always
    returned in submission order.
    """

    def __init__(
        self,
        jobs: int,
        cache: PointCache | None = None,
        retries: int = _POINT_RETRIES,
        backoff_s: float = _POINT_BACKOFF_S,
        max_respawns: int = 3,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {max_respawns}")
        self.jobs = jobs
        self.cache = cache
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_respawns = max_respawns

    def __call__(self, configs: Sequence[SimulationConfig]) -> list[SimulationResult]:
        results: list[SimulationResult | None] = [None] * len(configs)
        pending: list[int] = []
        for i, config in enumerate(configs):
            cached = self.cache.get(config) if self.cache is not None else None
            if cached is not None:
                results[i] = cached
            else:
                pending.append(i)
        if pending:
            self._execute(configs, pending, results)
        return results  # type: ignore[return-value]

    def _store(self, i: int, config: SimulationConfig, result, results: list) -> None:
        results[i] = result
        # PointFailure placeholders must never enter the cache: the hole
        # should be recomputed, not replayed, on the next sweep.
        if self.cache is not None and isinstance(result, SimulationResult):
            self.cache.put(config, result)

    def _execute(
        self,
        configs: Sequence[SimulationConfig],
        pending: list[int],
        results: list,
    ) -> None:
        # Every finished point is cached the moment it completes — an
        # exception (or interrupt) partway through a long sweep keeps the
        # finished points' cache entries; only reassembly is deferred.
        if self.jobs == 1 or len(pending) == 1:
            for i in pending:
                self._store(
                    i, configs[i],
                    _run_point_retrying(configs[i], self.retries, self.backoff_s),
                    results,
                )
            return
        # Pool-creation OSError (restricted sandboxes) falls back to
        # serial.  BrokenProcessPool (a worker died: OOM kill, segfault)
        # respawns the pool and resubmits the lost points, boundedly.
        # An error raised by the point itself — after its worker-side
        # retries — or by a cache write (full disk) still propagates.
        remaining = list(pending)
        respawns = 0
        while remaining:
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(remaining))
                )
            except OSError as exc:
                self._fallback_serial(configs, remaining, results, exc)
                return
            broken: BrokenProcessPool | None = None
            with pool:
                futures = {
                    pool.submit(
                        _run_point_retrying, configs[i], self.retries, self.backoff_s
                    ): i
                    for i in remaining
                }
                for future in as_completed(futures):
                    i = futures[future]
                    try:
                        self._store(i, configs[i], future.result(), results)
                    except BrokenProcessPool as exc:
                        # Consume every future (continue, not break):
                        # points that finished before the crash must
                        # still be stored and cached.
                        broken = exc
                        continue
            if broken is None:
                return
            remaining = [i for i in remaining if results[i] is None]
            respawns += 1
            if respawns > self.max_respawns:
                for i in remaining:
                    self._store(
                        i, configs[i],
                        PointFailure(
                            config=configs[i],
                            error=repr(broken),
                            attempts=respawns,
                        ),
                        results,
                    )
                warnings.warn(
                    f"process pool died {respawns} times; marking "
                    f"{len(remaining)} unrecoverable point(s) as failed",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return
            warnings.warn(
                f"process pool died ({broken}); respawning "
                f"({respawns}/{self.max_respawns}) to retry "
                f"{len(remaining)} lost point(s)",
                RuntimeWarning,
                stacklevel=3,
            )

    def _fallback_serial(
        self,
        configs: Sequence[SimulationConfig],
        pending: list[int],
        results: list,
        exc: BaseException,
    ) -> None:
        warnings.warn(
            f"process pool unavailable ({exc}); running remaining points serially",
            RuntimeWarning,
            stacklevel=3,
        )
        for i in pending:
            if results[i] is None:
                self._store(
                    i, configs[i],
                    _run_point_retrying(configs[i], self.retries, self.backoff_s),
                    results,
                )


def make_point_runner(
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
) -> PointRunner:
    """Build the point runner for a sweep.

    ``jobs=None``/``1`` without a cache returns the plain serial runner;
    otherwise a :class:`ParallelPointRunner` (which itself degrades to
    serial execution when the pool is pointless or unavailable).
    """
    if (jobs is None or jobs <= 1) and cache_dir is None:
        return run_points_serial
    cache = PointCache(cache_dir) if cache_dir is not None else None
    return ParallelPointRunner(jobs=max(1, jobs or 1), cache=cache)
