"""Experiment-point configuration."""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.network.topology import LayeredMeshSpec
from repro.pubsub.system import SystemConfig
from repro.workload.dynamics import ScenarioScript
from repro.workload.generator import ArrivalProcess
from repro.workload.scenarios import Scenario

#: The paper's test period: 2 hours, in milliseconds.
PAPER_DURATION_MS = 2 * 60 * 60 * 1000.0


def strategy_label(name: str, params: dict[str, Any]) -> str:
    """A strategy's display name with its parameters, sorted:
    ``rl(aggregation=min)``, ``ebpc(r=0.5)`` (EBPC always shows its
    weight); a strategy without parameters is its bare name."""
    if name == "ebpc":
        params = {"r": 0.5, **params}
    if not params:
        return name
    args = ", ".join(
        f"{key}={value if isinstance(value, str) else format(value, 'g')}"
        for key, value in sorted(params.items())
    )
    return f"{name}({args})"


@dataclass(frozen=True)
class SimulationConfig(SystemConfig):
    """One simulation run, fully specified.

    The system knobs (processing delay, ε, message size, routing, log
    spill, ...) are inherited from :class:`~repro.pubsub.system.
    SystemConfig`, so the config is handed to the system as-is.  Defaults
    are the ICPP'06 evaluation setup.  ``grace_ms`` extends the run
    beyond the publication window so messages published near the end can
    still reach their subscribers (the longest allowed delay is 60 s);
    events after ``duration_ms + grace_ms`` are abandoned.
    """

    seed: int = 0
    scenario: Scenario = Scenario.PSD
    strategy: str = "eb"
    strategy_params: dict[str, Any] = field(default_factory=dict)
    publishing_rate_per_min: float = 10.0
    duration_ms: float = PAPER_DURATION_MS
    grace_ms: float = 60_000.0
    arrival: ArrivalProcess = ArrivalProcess.POISSON
    topology_spec: LayeredMeshSpec = field(default_factory=LayeredMeshSpec)
    psd_deadline_range_ms: tuple[float, float] = (10_000.0, 30_000.0)
    #: Scripted runtime interventions (rate bursts, link degradation,
    #: churn waves, flash crowds).  The default empty script reproduces
    #: the paper's frozen world byte-for-byte.
    dynamics: ScenarioScript = field(default_factory=ScenarioScript)
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

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sentinel_every_ms <= 0.0:
            raise ValueError("sentinel_every_ms must be positive")
        if self.publishing_rate_per_min < 0.0:
            raise ValueError("publishing_rate_per_min must be non-negative")
        if self.duration_ms <= 0.0:
            raise ValueError("duration_ms must be positive")
        if self.grace_ms < 0.0:
            raise ValueError("grace_ms must be non-negative")

    def replace(self, **changes: Any) -> "SimulationConfig":
        """A copy with the given fields changed (configs are frozen)."""
        return dataclasses.replace(self, **changes)

    @property
    def horizon_ms(self) -> float:
        return self.duration_ms + self.grace_ms

    def strategy_label(self) -> str:
        return strategy_label(self.strategy, self.strategy_params)


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
#: valid.
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
