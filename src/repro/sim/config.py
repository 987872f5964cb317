"""Experiment-point configuration."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.core.chunked import DEFAULT_CHUNK_ROWS
from repro.core.pruning import DEFAULT_EPSILON, PruningPolicy
from repro.network.measurement import ESTIMATOR_FACTORIES, MeasurementMode
from repro.network.topology import LayeredMeshSpec
from repro.workload.dynamics import ScenarioScript
from repro.workload.generator import ArrivalProcess
from repro.workload.scenarios import Scenario

#: The paper's test period: 2 hours, in milliseconds.
PAPER_DURATION_MS = 2 * 60 * 60 * 1000.0


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation run, fully specified.

    Defaults are the ICPP'06 evaluation setup.  ``grace_ms`` extends the
    run beyond the publication window so messages published near the end
    can still reach their subscribers (the longest allowed delay is 60 s);
    events after ``duration_ms + grace_ms`` are abandoned.
    """

    seed: int = 0
    scenario: Scenario = Scenario.PSD
    strategy: str = "eb"
    strategy_params: dict[str, Any] = field(default_factory=dict)
    publishing_rate_per_min: float = 10.0
    duration_ms: float = PAPER_DURATION_MS
    grace_ms: float = 60_000.0
    message_size_kb: float = 50.0
    arrival: ArrivalProcess = ArrivalProcess.POISSON
    topology_spec: LayeredMeshSpec = field(default_factory=LayeredMeshSpec)
    processing_delay_ms: float = 2.0
    epsilon: float = DEFAULT_EPSILON
    measurement_mode: MeasurementMode = MeasurementMode.ORACLE
    pruning_override: PruningPolicy | None = None
    scheduling_slack_per_hop_ms: float = 0.0
    routing_paths: int = 1  # 1 = the paper's single-path; >1 = multi-path
    psd_deadline_range_ms: tuple[float, float] = (10_000.0, 30_000.0)
    enable_trace: bool = False
    queue_backend: str = "auto"  # "scan" forces the legacy full-rescan oracle
    queue_validate: bool = False  # cross-check every queue decision (slow)
    matcher_backend: str = "vector"  # "oracle" forces the dict counting matcher
    metrics_backend: str = "ledger"  # "scalar" forces the per-delivery oracle collector
    #: Scripted runtime interventions (rate bursts, link degradation,
    #: churn waves, flash crowds).  The default empty script reproduces
    #: the paper's frozen world byte-for-byte.
    dynamics: ScenarioScript = field(default_factory=ScenarioScript)
    #: Estimator behind ``MeasurementMode.ESTIMATED`` monitors: "welford"
    #: (full history, the stationary-link default), "window" or "ewma"
    #: (forgetting — they track runtime rate changes).
    link_estimator: str = "welford"
    #: Bounded-memory scale tier: spill sealed delivery-/publication-log
    #: chunks to a temp ``.npz`` ring instead of keeping the whole run's
    #: history in RAM.  Decision- and byte-neutral — analysis reductions
    #: stream the same chunks either way.
    log_spill: bool = False
    #: Rows per sealed log chunk (the spill granularity and the memory
    #: high-water mark of the log under spill).
    log_chunk_rows: int = DEFAULT_CHUNK_ROWS
    #: Event-pipeline driver: "fused" drains the heap in event-time
    #: windows with batched match lookahead; "event" is the per-event
    #: kernel kept as the differential oracle.  Byte-identical outputs.
    engine_backend: str = "fused"
    #: Fused engine's event-time window (ms).  Any positive value is
    #: decision-neutral — it only controls execution micro-batching.
    engine_window_ms: float = 50.0
    #: Run the invariant sentinel (analysis/sentinel.py) at window
    #: boundaries during the run.  Decision-neutral: the sentinel only
    #: reads, so results are byte-identical with it on or off.  The
    #: ``REPRO_SENTINEL`` env var ("1" or "deep") forces it on.
    sentinel: bool = False
    #: Sentinel boundary cadence (simulated ms between check sweeps).
    sentinel_every_ms: float = 20_000.0
    #: Run the deep pair-conservation heap scan at every boundary instead
    #: of only at end of run (slow; differential tests and the fuzzer).
    sentinel_deep: bool = False
    #: Fault layer: retry backoff bounds and the per-entry age past which
    #: traffic queued for a hard-down link is dead-lettered.  Inert
    #: unless the dynamics script downs a link or broker.
    fault_retry_backoff_ms: float = 1_000.0
    fault_retry_max_backoff_ms: float = 8_000.0
    dead_letter_timeout_ms: float = 30_000.0

    def __post_init__(self) -> None:
        if self.sentinel_every_ms <= 0.0:
            raise ValueError("sentinel_every_ms must be positive")
        if (
            self.fault_retry_backoff_ms <= 0.0
            or self.fault_retry_max_backoff_ms < self.fault_retry_backoff_ms
        ):
            raise ValueError("retry backoff must be positive and <= its cap")
        if self.dead_letter_timeout_ms <= 0.0:
            raise ValueError("dead_letter_timeout_ms must be positive")
        if self.engine_backend not in ("fused", "event"):
            raise ValueError(
                f"engine_backend must be 'fused' or 'event', got {self.engine_backend!r}"
            )
        if self.engine_window_ms <= 0.0:
            raise ValueError("engine_window_ms must be positive")
        if self.log_chunk_rows < 1:
            raise ValueError("log_chunk_rows must be >= 1")
        if self.publishing_rate_per_min < 0.0:
            raise ValueError("publishing_rate_per_min must be non-negative")
        if self.duration_ms <= 0.0:
            raise ValueError("duration_ms must be positive")
        if self.grace_ms < 0.0:
            raise ValueError("grace_ms must be non-negative")
        if self.link_estimator not in ESTIMATOR_FACTORIES:
            raise ValueError(
                f"link_estimator must be one of {sorted(ESTIMATOR_FACTORIES)}, "
                f"got {self.link_estimator!r}"
            )

    def replace(self, **changes: Any) -> "SimulationConfig":
        """A copy with the given fields changed (configs are frozen)."""
        return dataclasses.replace(self, **changes)

    @property
    def horizon_ms(self) -> float:
        return self.duration_ms + self.grace_ms

    def strategy_label(self) -> str:
        if self.strategy == "ebpc":
            r = self.strategy_params.get("r", 0.5)
            return f"ebpc(r={r:g})"
        return self.strategy
