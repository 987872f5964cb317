"""Scenario fuzzer: hunt the fault space for invariant breaks and upsets.

Random fault scripts — link kills, broker outages, partitions, cascades,
load bursts — are generated against the run's actual topology and played
through a full simulation with the **deep** invariant sentinel armed
(pair conservation re-proven at every boundary, not just at the end).
Three kinds of findings come back:

* **sentinel violations** — an :class:`InvariantViolation` raised during
  the run.  These are bugs by definition; the fuzzer *shrinks* the
  triggering script (greedy one-at-a-time intervention removal, re-run
  after each candidate removal) and writes a replayable counterexample
  file (:func:`repro.workload.registry.save_script`) so the minimal
  script becomes a regression scenario.  Any violation fails the run
  (exit 1 from the CLI).
* **stack divergences** — every clean script's production result is
  compared byte for byte with a re-run on the reference stack
  (:mod:`repro.reference`); a difference is an identity bug, shrunk and
  saved like a violation, and fails the run the same way.
* **ranking inversions** — a fault script under which the strategy pair's
  frozen-world ranking flips (e.g. FIFO out-earns EB once the backbone
  partitions).  These are *findings*, not failures: the paper's claims
  are explicitly about the healthy overlay, and knowing where they stop
  holding is the point of the fuzzer.

Everything is deterministic per ``--seed``: the script generator draws
from its own ``numpy`` generator, and each simulation is a pure function
of its config, so ``fuzz --smoke`` in CI replays the identical search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.sentinel import InvariantViolation
from repro.des.rng import RngStreams
from repro.network.topology import Topology, build_layered_mesh
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.sim.runner import run_simulation
from repro.workload.dynamics import (
    BrokerOutage,
    BrokerRecover,
    CascadeOutage,
    LinkFailure,
    LinkPartition,
    LinkRestore,
    RateBurst,
    ScenarioScript,
)
from repro.workload.registry import save_script
from repro.workload.scenarios import Scenario


@dataclass(frozen=True, slots=True)
class FuzzSpec:
    """One fuzzing campaign, fully specified (deterministic per seed)."""

    seed: int = 0
    budget: int = 12
    duration_ms: float = 120_000.0
    rate_per_min: float = 20.0
    scenario: Scenario = Scenario.SSD
    #: Strategy pair probed for ranking inversions (baseline order is
    #: whatever the frozen world says, not an assumption).
    pair: tuple[str, str] = ("eb", "fifo")
    max_interventions: int = 4
    #: Where shrunk counterexample scripts are written (None: don't).
    out_dir: str | None = "fuzz-findings"

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.duration_ms <= 0.0:
            raise ValueError("duration_ms must be positive")
        if self.max_interventions < 1:
            raise ValueError("max_interventions must be >= 1")
        if len(self.pair) != 2 or self.pair[0] == self.pair[1]:
            raise ValueError("pair must name two distinct strategies")

    @classmethod
    def smoke(cls, seed: int = 0, out_dir: str | None = "fuzz-findings") -> "FuzzSpec":
        """The CI-sized campaign: fixed seed, small budget, short runs."""
        return cls(
            seed=seed, budget=4, duration_ms=90_000.0, rate_per_min=15.0,
            out_dir=out_dir,
        )


@dataclass(slots=True)
class Violation:
    """One sentinel violation, with its shrunk reproducer."""

    script: ScenarioScript
    shrunk: ScenarioScript
    error: str
    strategy: str
    replay_path: str | None = None


@dataclass(slots=True)
class Divergence:
    """A fault script under which the production stack's serialized result
    differs from the reference stack's — an identity bug by definition,
    shrunk to a 1-minimal reproducer like a sentinel violation."""

    script: ScenarioScript
    shrunk: ScenarioScript
    strategy: str
    detail: str
    replay_path: str | None = None


@dataclass(slots=True)
class Inversion:
    """A fault script under which the strategy pair's ranking flips."""

    script: ScenarioScript
    winner_baseline: str
    winner_faulted: str
    baseline_values: tuple[float, float]
    faulted_values: tuple[float, float]


@dataclass(slots=True)
class FuzzReport:
    """Everything one campaign found."""

    spec: FuzzSpec
    scripts_tried: int = 0
    runs: int = 0
    violations: list[Violation] = field(default_factory=list)
    inversions: list[Inversion] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    #: Scripts whose reference-stack re-run came back byte-identical.
    oracle_probes_identical: int = 0

    @property
    def ok(self) -> bool:
        """True when no sentinel violation and no production-vs-reference
        divergence survived (inversions are findings, not failures)."""
        return not self.violations and not self.divergences


def generate_script(
    rng: np.random.Generator,
    topology: Topology,
    duration_ms: float,
    max_interventions: int = 4,
) -> ScenarioScript:
    """Draw one random fault script against a concrete topology.

    Fault times land inside the publication window (so faults bite while
    traffic flows); every hard fault gets a recovery with probability
    1/2, leaving the other half to run broken into the grace period —
    the dead-letter path only drains when a link stays down past the
    timeout.  Churn interventions are deliberately excluded: a mid-run
    leave voids the pair-conservation identity by design, and the fuzzer
    exists to prove that identity under faults.
    """
    brokers = topology.brokers
    edges = [(a, b) for a, b, _rate in topology.links()]
    items: list = []
    count = int(rng.integers(1, max_interventions + 1))
    for _ in range(count):
        at = float(rng.uniform(0.1, 0.75) * duration_ms)
        kind = int(rng.integers(0, 5))
        if kind == 0:
            a, b = edges[int(rng.integers(0, len(edges)))]
            items.append(LinkFailure(at_ms=at, a=a, b=b))
            if rng.random() < 0.5:
                back = float(rng.uniform(0.05, 0.2) * duration_ms)
                items.append(LinkRestore(at_ms=at + back, a=a, b=b))
        elif kind == 1:
            broker = brokers[int(rng.integers(0, len(brokers)))]
            items.append(BrokerOutage(at_ms=at, broker=broker))
            if rng.random() < 0.5:
                back = float(rng.uniform(0.05, 0.2) * duration_ms)
                items.append(BrokerRecover(at_ms=at + back, broker=broker))
        elif kind == 2:
            size = int(rng.integers(1, max(2, len(brokers) // 4)))
            picks = rng.choice(len(brokers), size=size, replace=False)
            group = tuple(sorted(brokers[i] for i in picks))
            heal = (
                at + float(rng.uniform(0.05, 0.2) * duration_ms)
                if rng.random() < 0.5 else None
            )
            items.append(LinkPartition(at_ms=at, group=group, heal_ms=heal))
        elif kind == 3:
            origin = brokers[int(rng.integers(0, len(brokers)))]
            items.append(CascadeOutage(
                at_ms=at,
                origin=origin,
                spread_prob=float(rng.uniform(0.3, 0.9)),
                decay=float(rng.uniform(0.3, 0.8)),
                max_depth=int(rng.integers(1, 4)),
                step_ms=float(rng.uniform(0.02, 0.08) * duration_ms),
                recover_after_ms=(
                    float(rng.uniform(0.1, 0.3) * duration_ms)
                    if rng.random() < 0.5 else None
                ),
            ))
        else:
            end = min(at + float(rng.uniform(0.1, 0.3) * duration_ms), duration_ms)
            items.append(RateBurst(
                start_ms=at, end_ms=end,
                multiplier=float(rng.uniform(1.5, 4.0)),
            ))
    return ScenarioScript(interventions=tuple(items))


def _config(spec: FuzzSpec, strategy: str, script: ScenarioScript) -> SimulationConfig:
    return SimulationConfig(
        seed=spec.seed,
        scenario=spec.scenario,
        strategy=strategy,
        publishing_rate_per_min=spec.rate_per_min,
        duration_ms=spec.duration_ms,
        dynamics=script,
        sentinel=True,
        sentinel_deep=True,
        sentinel_every_ms=10_000.0,
    )


def _probe(spec: FuzzSpec, strategy: str, script: ScenarioScript, report: FuzzReport):
    """One sentinel-armed run; the violation (or None) and the result."""
    report.runs += 1
    try:
        return None, run_simulation(_config(spec, strategy, script))
    except InvariantViolation as err:
        return err, None


def _result_bytes(result) -> bytes:
    import dataclasses
    import json

    return json.dumps(dataclasses.asdict(result), sort_keys=True).encode()


def _oracle_probe(
    spec: FuzzSpec,
    strategy: str,
    script: ScenarioScript,
    report: FuzzReport,
    production=None,
) -> str | None:
    """Differential: the production stack vs the reference stack under
    this fault script.

    ``production`` is the production result when the caller already
    holds it (the campaign loop does; the shrinker's candidates run both
    legs).  Returns a human-readable mismatch description, or None when
    the two serialized results are byte-identical.  A sentinel violation
    raised only by the reference run counts as a divergence too."""
    config = _config(spec, strategy, script)
    if production is None:
        report.runs += 1
        production = run_simulation(config)
    report.runs += 1
    try:
        reference = run_simulation(config, reference=True)
    except InvariantViolation as err:
        return f"reference run violated the sentinel: {err}"
    if _result_bytes(production) != _result_bytes(reference):
        deltas = [
            f"{name}: {getattr(production, name)} != {getattr(reference, name)}"
            for name in ("published", "deliveries_valid", "deliveries_late",
                         "earning", "delivery_rate")
            if getattr(production, name, None) != getattr(reference, name, None)
        ]
        return ("serialized results differ ("
                + ("; ".join(deltas) if deltas else "field-level tie; "
                   "divergence is in the remaining serialized fields") + ")")
    return None


def shrink_divergence(
    spec: FuzzSpec,
    strategy: str,
    script: ScenarioScript,
    report: FuzzReport,
) -> ScenarioScript:
    """Greedy 1-minimal shrink of a production-vs-reference divergence, mirroring
    :func:`shrink_script` with "still diverges" as the predicate."""
    items = list(script.interventions)
    changed = True
    while changed and len(items) > 1:
        changed = False
        for i in range(len(items)):
            candidate = ScenarioScript(interventions=tuple(items[:i] + items[i + 1:]))
            try:
                detail = _oracle_probe(spec, strategy, candidate, report)
            except InvariantViolation:
                continue  # production leg broke: not the divergence we chase
            if detail is not None:
                items = list(candidate.interventions)
                changed = True
                break
    return ScenarioScript(interventions=tuple(items))


def shrink_script(
    spec: FuzzSpec,
    strategy: str,
    script: ScenarioScript,
    report: FuzzReport,
) -> ScenarioScript:
    """Greedy 1-minimal shrink: drop interventions that aren't needed.

    Repeatedly tries removing each intervention; a removal is kept when
    the remaining script still violates.  Terminates at a script where
    every single removal makes the violation disappear (1-minimal) —
    small enough to read, cheap enough for CI (O(n²) runs, n ≤ a few).
    """
    items = list(script.interventions)
    changed = True
    while changed and len(items) > 1:
        changed = False
        for i in range(len(items)):
            candidate = ScenarioScript(interventions=tuple(items[:i] + items[i + 1:]))
            err, _ = _probe(spec, strategy, candidate, report)
            if err is not None:
                items = list(candidate.interventions)
                changed = True
                break
    return ScenarioScript(interventions=tuple(items))


def _metric(result) -> float:
    """The ranking metric: earning for SSD, delivery rate otherwise."""
    return result.earning if result.scenario == "ssd" else result.delivery_rate


def run_fuzz(spec: FuzzSpec) -> FuzzReport:
    """Run one campaign: generate, probe, shrink, compare, report."""
    report = FuzzReport(spec=spec)
    rng = np.random.default_rng(spec.seed + 0xF0_55)
    # The exact topology every run at this seed will build — scripts must
    # name real brokers and links.
    topology = build_layered_mesh(RngStreams(spec.seed).get("topology"))

    # Frozen-world baseline for the inversion probe (sentinel armed too:
    # the empty script must be violation-free or everything else is moot).
    baseline: dict[str, float] = {}
    empty = ScenarioScript()
    for strategy in spec.pair:
        err, result = _probe(spec, strategy, empty, report)
        if err is not None:
            report.violations.append(Violation(
                script=empty, shrunk=empty, error=str(err), strategy=strategy,
            ))
            return report
        baseline[strategy] = _metric(result)
    base_winner = max(spec.pair, key=baseline.__getitem__)

    out_dir = Path(spec.out_dir) if spec.out_dir else None
    for n in range(spec.budget):
        script = generate_script(
            rng, topology, spec.duration_ms, spec.max_interventions
        )
        report.scripts_tried += 1
        results: dict[str, SimulationResult] = {}
        violated = False
        for strategy in spec.pair:
            err, result = _probe(spec, strategy, script, report)
            if err is not None:
                shrunk = shrink_script(spec, strategy, script, report)
                err2, _ = _probe(spec, strategy, shrunk, report)
                finding = Violation(
                    script=script,
                    shrunk=shrunk,
                    error=str(err2 if err2 is not None else err),
                    strategy=strategy,
                )
                if out_dir is not None:
                    out_dir.mkdir(parents=True, exist_ok=True)
                    path = save_script(
                        out_dir / f"violation-{spec.seed}-{n}-{strategy}.json",
                        shrunk,
                        seed=spec.seed,
                        strategy=strategy,
                        scenario=spec.scenario.value,
                        duration_ms=spec.duration_ms,
                        rate_per_min=spec.rate_per_min,
                        error=finding.error,
                    )
                    finding.replay_path = str(path)
                report.violations.append(finding)
                violated = True
                break
            results[strategy] = result
        if violated:
            continue
        probed = spec.pair[0]
        detail = _oracle_probe(spec, probed, script, report, production=results[probed])
        if detail is not None:
            shrunk = shrink_divergence(spec, probed, script, report)
            detail2 = _oracle_probe(spec, probed, shrunk, report)
            finding = Divergence(
                script=script,
                shrunk=shrunk,
                strategy=probed,
                detail=detail2 if detail2 is not None else detail,
            )
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                path = save_script(
                    out_dir / f"divergence-{spec.seed}-{n}-{probed}.json",
                    shrunk,
                    seed=spec.seed,
                    strategy=probed,
                    scenario=spec.scenario.value,
                    duration_ms=spec.duration_ms,
                    rate_per_min=spec.rate_per_min,
                    error=f"production-vs-reference divergence: {finding.detail}",
                )
                finding.replay_path = str(path)
            report.divergences.append(finding)
            continue
        report.oracle_probes_identical += 1
        faulted = {strategy: _metric(result) for strategy, result in results.items()}
        fault_winner = max(spec.pair, key=faulted.__getitem__)
        if fault_winner != base_winner and faulted[fault_winner] > faulted[base_winner]:
            report.inversions.append(Inversion(
                script=script,
                winner_baseline=base_winner,
                winner_faulted=fault_winner,
                baseline_values=(baseline[spec.pair[0]], baseline[spec.pair[1]]),
                faulted_values=(faulted[spec.pair[0]], faulted[spec.pair[1]]),
            ))
    return report


def _describe(script: ScenarioScript) -> str:
    names = [type(i).__name__ for i in script.interventions]
    return ", ".join(names) if names else "(empty)"


def format_report(report: FuzzReport) -> str:
    """Human-readable campaign summary for the CLI."""
    spec = report.spec
    lines = [
        f"fuzz campaign: seed={spec.seed} budget={spec.budget} "
        f"scenario={spec.scenario.value} pair={spec.pair[0]}/{spec.pair[1]}",
        f"scripts tried     : {report.scripts_tried}",
        f"simulations run   : {report.runs}",
        f"sentinel verdict  : "
        + ("all invariants held" if report.ok
           else f"{len(report.violations)} VIOLATION(S)"),
    ]
    for v in report.violations:
        lines.append(f"  VIOLATION [{v.strategy}] {_describe(v.shrunk)}")
        lines.append(f"    {v.error}")
        if v.replay_path:
            lines.append(f"    replay: {v.replay_path}")
    lines.append(
        f"vs reference stack: "
        + (f"{report.oracle_probes_identical} script(s) byte-identical "
           f"on the reference stack"
           if not report.divergences
           else f"{len(report.divergences)} DIVERGENCE(S)")
    )
    for d in report.divergences:
        lines.append(f"  DIVERGENCE [{d.strategy}] {_describe(d.shrunk)}")
        lines.append(f"    {d.detail}")
        if d.replay_path:
            lines.append(f"    replay: {d.replay_path}")
    lines.append(f"ranking inversions: {len(report.inversions)}")
    for inv in report.inversions:
        a, b = report.spec.pair
        lines.append(
            f"  {inv.winner_baseline} -> {inv.winner_faulted} under "
            f"[{_describe(inv.script)}] "
            f"(baseline {a}={inv.baseline_values[0]:.4g} {b}={inv.baseline_values[1]:.4g}; "
            f"faulted {a}={inv.faulted_values[0]:.4g} {b}={inv.faulted_values[1]:.4g})"
        )
    return "\n".join(lines)
