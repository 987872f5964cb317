"""The scenario fuzzer: deterministic generation, shrinking, reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sentinel import InvariantViolation
from repro.des.rng import RngStreams
from repro.experiments import fuzz as fuzz_mod
from repro.experiments.fuzz import (
    FuzzReport,
    FuzzSpec,
    format_report,
    generate_script,
    run_fuzz,
    shrink_script,
)
from repro.network.topology import build_layered_mesh
from repro.workload.dynamics import (
    BrokerOutage,
    CascadeOutage,
    LinkFailure,
    LinkPartition,
    LinkRestore,
    RateBurst,
    ScenarioScript,
)
from repro.workload.registry import load_script


def _topology():
    return build_layered_mesh(RngStreams(0).get("topology"))


class TestGenerateScript:
    def test_deterministic_per_seed(self):
        topology = _topology()
        scripts_a = [
            generate_script(np.random.default_rng(9), topology, 90_000.0)
            for _ in range(1)
        ]
        scripts_b = [
            generate_script(np.random.default_rng(9), topology, 90_000.0)
            for _ in range(1)
        ]
        assert scripts_a == scripts_b

    def test_names_real_brokers_and_links(self):
        topology = _topology()
        brokers = set(topology.brokers)
        edges = {frozenset((a, b)) for a, b, _ in topology.links()}
        rng = np.random.default_rng(4)
        for _ in range(20):
            script = generate_script(rng, topology, 90_000.0)
            assert script.interventions
            for item in script.interventions:
                if isinstance(item, (LinkFailure, LinkRestore)):
                    assert frozenset((item.a, item.b)) in edges
                elif isinstance(item, (BrokerOutage, CascadeOutage)):
                    name = getattr(item, "broker", None) or item.origin
                    assert name in brokers
                elif isinstance(item, LinkPartition):
                    assert set(item.group) <= brokers

    def test_times_inside_publication_window(self):
        topology = _topology()
        rng = np.random.default_rng(1)
        duration = 90_000.0
        for _ in range(20):
            for item in generate_script(rng, topology, duration).interventions:
                at = item.start_ms if isinstance(item, RateBurst) else item.at_ms
                assert 0.0 < at < duration


class TestShrink:
    def test_shrinks_to_the_guilty_intervention(self, monkeypatch):
        topology = _topology()
        guilty = BrokerOutage(at_ms=30_000.0, broker=sorted(topology.brokers)[0])
        # A 4-intervention script whose "violation" is keyed to the guilty
        # outage alone; _probe is stubbed so no simulation runs.
        a, b = [(x, y) for x, y, _ in topology.links()][0]
        script = ScenarioScript((
            RateBurst(10_000.0, 20_000.0, 2.0),
            guilty,
            LinkFailure(at_ms=40_000.0, a=a, b=b),
            RateBurst(50_000.0, 60_000.0, 3.0),
        ))

        def fake_probe(spec, strategy, candidate, report):
            report.runs += 1
            if guilty in candidate.interventions:
                return InvariantViolation("entry-conservation", 0.0, {}, "boom"), None
            return None, None

        monkeypatch.setattr(fuzz_mod, "_probe", fake_probe)
        spec = FuzzSpec.smoke()
        report = FuzzReport(spec=spec)
        shrunk = shrink_script(spec, "eb", script, report)
        assert shrunk.interventions == (guilty,)
        assert report.runs > 0

    def test_non_shrinkable_script_returned_intact(self, monkeypatch):
        def fake_probe(spec, strategy, candidate, report):
            report.runs += 1
            return InvariantViolation("x", 0.0, {}, "boom"), None

        monkeypatch.setattr(fuzz_mod, "_probe", fake_probe)
        script = ScenarioScript((RateBurst(1_000.0, 2_000.0, 2.0),))
        shrunk = shrink_script(FuzzSpec.smoke(), "eb", script, FuzzReport(spec=FuzzSpec.smoke()))
        assert shrunk == script


class TestCampaign:
    def test_smoke_campaign_holds_all_invariants(self, tmp_path):
        # ACCEPTANCE: the fixed-seed smoke campaign completes with zero
        # unshrunk sentinel violations (CI runs this same spec).
        spec = FuzzSpec.smoke(out_dir=str(tmp_path / "findings"))
        report = run_fuzz(spec)
        assert report.ok, format_report(report)
        assert report.scripts_tried == spec.budget
        # 2 baseline runs + 3 per script unless a violation cut one short.
        assert report.runs >= 2 + spec.budget

    def test_violation_writes_replayable_counterexample(self, tmp_path, monkeypatch):
        spec = FuzzSpec(
            seed=1, budget=1, duration_ms=30_000.0, rate_per_min=5.0,
            out_dir=str(tmp_path / "findings"),
        )
        real_probe = fuzz_mod._probe

        def failing_probe(s, strategy, candidate, report):
            if candidate.interventions:  # empty baselines must pass
                report.runs += 1
                return InvariantViolation("pair-conservation", 1.0, {}, "planted"), None
            return real_probe(s, strategy, candidate, report)

        monkeypatch.setattr(fuzz_mod, "_probe", failing_probe)
        report = run_fuzz(spec)
        assert not report.ok and len(report.violations) == 1
        v = report.violations[0]
        assert v.replay_path is not None
        replayed = load_script(v.replay_path)
        assert replayed == v.shrunk
        assert "VIOLATION" in format_report(report)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FuzzSpec(budget=0)
        with pytest.raises(ValueError):
            FuzzSpec(pair=("eb", "eb"))
        with pytest.raises(ValueError):
            FuzzSpec(duration_ms=0.0)

    def test_report_format_mentions_inversions(self):
        spec = FuzzSpec.smoke()
        report = FuzzReport(spec=spec)
        text = format_report(report)
        assert "ranking inversions: 0" in text
        assert "all invariants held" in text


class TestEngineDifferential:
    """Each clean script is re-run on the reference stack (per-event
    engine and the other oracles) and must come back byte-identical."""

    def test_clean_campaign_counts_identical_probes(self, tmp_path):
        spec = FuzzSpec(
            seed=2, budget=2, duration_ms=45_000.0, rate_per_min=10.0,
            out_dir=str(tmp_path / "findings"),
        )
        report = run_fuzz(spec)
        assert report.ok, format_report(report)
        assert report.oracle_probes_identical == spec.budget
        assert not report.divergences
        assert "2 script(s) byte-identical on the reference stack" in format_report(report)
        # 2 baselines, then per script one production run per strategy and
        # ONE reference run: the probe reuses the result the loop holds.
        assert report.runs == 2 + 3 * spec.budget

    def test_planted_divergence_is_shrunk_and_saved(self, tmp_path, monkeypatch):
        spec = FuzzSpec(
            seed=3, budget=1, duration_ms=30_000.0, rate_per_min=5.0,
            out_dir=str(tmp_path / "findings"),
        )

        def fake_oracle_probe(s, strategy, candidate, report, production=None):
            report.runs += 1
            # Divergence iff the script still carries any intervention:
            # the shrinker must bottom out at a single-item script.
            return "planted divergence" if candidate.interventions else None

        monkeypatch.setattr(fuzz_mod, "_oracle_probe", fake_oracle_probe)
        report = run_fuzz(spec)
        assert not report.ok and len(report.divergences) == 1
        d = report.divergences[0]
        assert len(d.shrunk.interventions) == 1
        assert d.replay_path is not None
        assert load_script(d.replay_path) == d.shrunk
        assert "DIVERGENCE" in format_report(report)
