"""One measured cycle of one workload, in a fresh interpreter.

``python -m perfbench.child SPEC.json`` reads its orders from the spec file
and hands its record back through the result file the spec names — never
through stdout, which stray warnings or progress prints may share.

A cycle is what a user pays per sweep point: interpreter start and
``import repro`` (both part of ``setup_s``), input generation, build,
schedule, run to the horizon, then the standard report (windowed series,
revenue by tier, latency stats).  The program is driven through its default
production path: fused engine, vector matcher, ledger metrics, auto queue,
no shards, no sentinel.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import tempfile
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

import numpy as np

from repro.analysis import latency, revenue, timeseries
from repro.des.simulator import Simulator
from repro.experiments.scale import peak_rss_kb, series_digest
from repro.sim import runner

from perfbench.layers import layer_metrics, traced
from perfbench.tracing import Tracer
from perfbench.workloads import Leg, build_overlay, build_population, make_workload

#: Window of the standard report's time series (simulated ms).
REPORT_WINDOW_MS = 30_000.0

PHASES = ("setup", "run", "checkpoint_write", "resume", "analysis")


def calibrate() -> float:
    """Seconds for a fixed kernel: how fast is this host right now?

    The bare 10k-tick DES loop of ``benchmarks/bench_micro.py`` plus a
    fixed-size ``searchsorted`` + ``bincount``; best of three, so a result
    can be read against the machine it ran on.
    """
    rng = np.random.default_rng(0)
    haystack = np.sort(rng.random(200_000))
    needles = rng.random(200_000)

    def kernel() -> None:
        sim = Simulator()
        count = 0

        def tick() -> None:
            nonlocal count
            count += 1
            if count < 10_000:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        np.bincount(np.searchsorted(haystack, needles), minlength=len(haystack) + 1)

    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class PhaseClock:
    """Wall seconds per phase; in a traced cycle each timed block is also
    a root span, so what no wrapper covers shows as the phase's self time."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self._tracer = tracer

    @contextmanager
    def __call__(self, phase: str) -> Iterator[None]:
        span = self._tracer.span("bench." + phase) if self._tracer else nullcontext()
        t0 = perf_counter()
        with span:
            yield
        self.seconds[phase] += perf_counter() - t0


def _check(checks: list[dict], name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": "" if ok else detail})


def _run_leg(
    leg: Leg, clock: PhaseClock, scratch: Path, checks: list[dict]
) -> dict[str, Any]:
    """Build, run and analyse one simulation; returns what it produced."""
    config = leg.config
    with clock("setup"):
        system = runner.build_system(
            config,
            build_overlay(config.topology_spec),
            subscription_builder=lambda _rng, topology: build_population(leg, topology),
        )
        scheduled = runner.schedule_workload(system, config)
        runner.schedule_dynamics(system, config)
    run_before = clock.seconds["run"]
    checkpoint_bytes = 0
    if leg.checkpoint_at_ms is None:
        with clock("run"):
            runner.run_to_horizon(system, config, None)
    else:
        with clock("run"):
            system.run(until=leg.checkpoint_at_ms)
        with clock("checkpoint_write"):
            snapshot, _, checkpoint_bytes = runner.save_run_checkpoint(
                system, config, scratch / "checkpoint"
            )
        # The live system is discarded: what runs on is what was restored.
        del system
        gc.collect()
        with clock("resume"):
            system, config, _ = runner.resume_run(snapshot, config=config)
        with clock("run"):
            runner.run_to_horizon(system, config, None)
    run_s = clock.seconds["run"] - run_before
    with clock("analysis"):
        series = timeseries.windowed_metrics(system, REPORT_WINDOW_MS, config.horizon_ms)
        revenue.revenue_by_tier(system)
        stats = latency.latency_stats(list(system.subscribers.values()))

    m = system.metrics
    log = system.delivery_log
    delivered = m.deliveries_valid + m.deliveries_late
    tag = leg.label
    if system.unsubscribe_count:
        # Copies in flight to a subscriber who left are settled by the
        # collector but have no endpoint left to log them.
        _check(checks, f"{tag}:log_rows", len(log) <= delivered,
               f"{len(log)} log rows > {delivered} deliveries")
    else:
        _check(checks, f"{tag}:log_rows", len(log) == delivered,
               f"{len(log)} log rows != {delivered} deliveries")
    _check(checks, f"{tag}:published", m.published == scheduled,
           f"published {m.published} != scheduled {scheduled}")
    totals = series.totals()
    mismatched = [
        key for key, have in (
            ("published", m.published), ("deliveries_valid", m.deliveries_valid),
            ("deliveries_late", m.deliveries_late), ("earning", m.earning),
        ) if totals[key] != have
    ]
    _check(checks, f"{tag}:windowed_totals", not mismatched,
           f"windowed series disagrees with the collector on {mismatched}")
    try:
        m.check_invariants()
        _check(checks, f"{tag}:invariants", True)
    except AssertionError as exc:
        _check(checks, f"{tag}:invariants", False, str(exc))

    faults = system.faults.summary()
    scalars = {
        "published": m.published,
        "deliveries_valid": m.deliveries_valid,
        "deliveries_late": m.deliveries_late,
        "earning": m.earning,
        "delivery_rate": m.delivery_rate,
        "receptions": m.receptions,
        "transmissions": m.transmissions,
        "pruned": m.pruned,
        "events": system.sim.executed_events,
    }
    digest = hashlib.sha256()
    digest.update(series_digest(series).encode())
    digest.update(json.dumps([scalars, faults], sort_keys=True).encode())
    return {
        **scalars,
        "retries": faults["retries"],
        "dead_entries": faults["dead_entries"],
        "publish_drops": faults["publish_drops"],
        "interventions": len(config.dynamics.timed),
        "sealed_chunks": len(log) // log.chunk_rows,
        "spilled_chunks": log.spilled_chunks,
        "checkpoint_mb": checkpoint_bytes / 1e6,
        "latency_p50_ms": stats.p50,
        "latency_p99_ms": stats.p99,
        "run_s": run_s,
        "digest": digest.hexdigest(),
    }


#: Per-leg counts that add up over a workload's simulations.
_SUMMED = (
    "published", "deliveries_valid", "deliveries_late", "receptions", "transmissions",
    "pruned", "events", "retries", "dead_entries", "publish_drops", "interventions",
    "sealed_chunks", "spilled_chunks", "checkpoint_mb",
)


def run_cycle(
    workload: str, seed: int, *, smoke: bool, traced_run: bool, scratch: Path,
    trace_path: Path | None = None,
) -> dict[str, Any]:
    """One cycle of ``workload``; ``scratch`` takes the checkpoint."""
    tracer = Tracer() if traced_run else None
    clock = PhaseClock(tracer)
    checks: list[dict] = []
    with traced(tracer) if tracer else nullcontext():
        with clock("setup"):
            legs = make_workload(workload, seed, smoke)
        results = {leg.label: _run_leg(leg, clock, scratch, checks) for leg in legs}
        # Spilled chunks sit in the temp directory (private to this cycle:
        # the parent sets TMPDIR) until their stores are collected.
        spill_bytes = sum(
            f.stat().st_size for f in Path(tempfile.gettempdir()).glob("repro-*/*.npz")
        )
    last = results[legs[-1].label]
    if "fifo" in results and "ebpc" in results:
        _check(checks, "ebpc_beats_fifo",
               results["ebpc"]["earning"] > results["fifo"]["earning"],
               f"ebpc earned {results['ebpc']['earning']}, "
               f"fifo {results['fifo']['earning']}")
    fingerprint = hashlib.sha256(
        "".join(results[leg.label]["digest"] for leg in legs).encode()
    ).hexdigest()
    sim: dict[str, Any] = {key: sum(r[key] for r in results.values()) for key in _SUMMED}
    sim.update(
        # The headline simulated numbers are the last leg's: the strategy
        # under test, after the baseline it is paired with.
        earning=last["earning"],
        delivery_rate=last["delivery_rate"],
        latency_p50_ms=last["latency_p50_ms"],
        latency_p99_ms=last["latency_p99_ms"],
        spill_mb=spill_bytes / 1e6,
        leg_run_s={label: r["run_s"] for label, r in results.items()},
        leg_earning={label: r["earning"] for label, r in results.items()},
    )
    record: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced_run,
        "phases": {phase: clock.seconds[phase] for phase in PHASES},
        "sim": sim,
        "fingerprint": fingerprint,
        "checks": checks,
    }
    if tracer is not None:
        sim["missing_targets"] = len(tracer.missing)
        record["missing_targets"] = tracer.missing
        record["layers"] = layer_metrics(tracer.summary(), sim)
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            np.savez_compressed(trace_path, **tracer.columns())
    return record


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    # perf_counter is CLOCK_MONOTONIC on Linux, one clock for all
    # processes: this spans interpreter start and every import above.
    import_s = perf_counter() - spec["t_spawn"]
    cpu_before = _cpu_seconds()
    calibration_s = calibrate()
    calibration_cpu = _cpu_seconds() - cpu_before
    record = run_cycle(
        spec["workload"], spec["seed"], smoke=spec["smoke"],
        traced_run=spec["traced"], scratch=Path(spec["scratch"]),
        trace_path=Path(spec["trace_path"]) if spec["trace_path"] else None,
    )
    record["phases"]["setup"] += import_s
    record["import_s"] = import_s
    record["calibration_s"] = calibration_s
    record["cpu_s"] = _cpu_seconds() - calibration_cpu
    record["peak_rss_mb"] = peak_rss_kb() / 1024.0
    Path(spec["result_path"]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
