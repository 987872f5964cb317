"""Contract of the repo benchmark, at smoke sizes (tier-1 collects this).

Checks the shape of ``BENCHMARK.json``, that every declared metric is
produced for every workload, that simulated output repeats exactly whether
or not a cycle is traced, the tracer's self-time arithmetic, and that a
traced cycle leaves no wrapper behind.  Smoke numbers are never reference
numbers.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.core import profiling
from repro.core.queueing import ScheduledQueue
from repro.pubsub.system import PubSubSystem

from perfbench import bench
from perfbench.child import PHASES, run_cycle
from perfbench.tracing import StageSpans, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
#: Per-layer metrics the parent adds to what a traced cycle reports.
FROM_PARENT = {"bench.import_s", "bench.calibration_s", "bench.trace_overhead"}


def test_benchmark_json_meets_the_driver_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/bench.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(E2E) <= 16 and 1 <= len(PER_LAYER) <= 128
    names = [w["name"] for w in SPEC["workloads"]] + E2E + PER_LAYER
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_pins_cover_seeds_1_and_2_and_the_twin_worlds_agree():
    assert set(bench.PINS) == set(bench.WORKLOADS)
    assert all(set(by_seed) == {"1", "2"} for by_seed in bench.PINS.values())
    # Spilling the log and resuming from a snapshot must not change a byte.
    assert bench.PINS["fanout-16k"] == bench.PINS["spill-checkpoint-16k"]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_child_cover():
    clock = FakeClock()
    tracer = Tracer(clock)

    def at(t: float, fn, *args):
        clock.now = t
        return fn(*args)

    # root [0,10] > a [1,4] > b [2,3];  root > a [5,9] > c [6,8]
    root = at(0.0, tracer.open, tracer.intern("root"))
    a1 = at(1.0, tracer.open, tracer.intern("a"))
    b = at(2.0, tracer.open, tracer.intern("b"))
    at(3.0, tracer.close, b)
    at(4.0, tracer.close, a1)
    a2 = at(5.0, tracer.open, tracer.intern("a"))
    c = at(6.0, tracer.open, tracer.intern("c"))
    at(8.0, tracer.close, c)
    at(9.0, tracer.close, a2)
    at(10.0, tracer.close, root)

    trace = tracer.summary()
    assert trace.self_s("root") == pytest.approx(10 - 3 - 4)
    assert trace.self_s("a") == pytest.approx((3 - 1) + (4 - 2))
    assert trace.self_s("b") == pytest.approx(1.0) and trace.self_s("c") == pytest.approx(2.0)
    assert trace.self_s("a", "b", "c", "root") == pytest.approx(10.0)
    assert (trace.calls("a"), trace.calls("never-seen")) == (2, 0)
    # b and c sit under a: one group, entered from outside twice.
    assert trace.outer_calls("a", "b", "c") == 2
    assert trace.percentile_us("a", 50) == pytest.approx(3.5e6)


def test_stage_report_becomes_a_span_and_adopts_what_ran_inside_it():
    clock = FakeClock()
    tracer = Tracer(clock)
    stages = StageSpans(tracer)
    clock.now = 0.0
    root = tracer.open(tracer.intern("engine"))
    for start, end in ((1.0, 2.0), (3.0, 4.0), (4.5, 5.5)):
        clock.now = start
        sid = tracer.open(tracer.intern("call"))
        clock.now = end
        tracer.close(sid)
    clock.now = 6.0
    stages.add("drain", 3.5)  # covers [2.5, 6]: the last two calls, not the first
    clock.now = 7.0
    stages.add("pop", 0.5)  # [6.5, 7]: nothing ran inside it
    clock.now = 8.0
    tracer.close(root)

    trace = tracer.summary()
    assert trace.self_s("stage.drain") == pytest.approx(3.5 - 2.0)
    assert trace.self_s("stage.pop") == pytest.approx(0.5)
    assert trace.self_s("engine") == pytest.approx(8.0 - 1.0 - 3.5 - 0.5)
    assert stages.report()["drain"] == {"seconds": 3.5, "calls": 1}


def test_wrappers_count_and_iterators_are_timed_while_consumed():
    tracer = Tracer()

    def numbers(n):
        yield from range(n)

    wrapped = tracer.wrap(numbers, "numbers", iterates=True)
    assert list(wrapped(3)) == [0, 1, 2] and list(wrapped(1)) == [0]
    sized = tracer.wrap(lambda xs: xs, "sized", count=lambda args, _result: len(args[0]))
    sized([1, 2])
    sized([3])
    trace = tracer.summary()
    assert trace.count("numbers.passes") == 2
    assert trace.calls("numbers") == 6  # one span per next(), the final one included
    assert (trace.count("sized"), trace.calls("sized")) == (3, 2)
    assert tracer.stack == [-1]


def test_a_target_the_program_lost_is_reported_not_fatal():
    tracer = Tracer()
    tracer.install("repro.core.queueing:ScheduledQueue.no_such_method", "x")
    tracer.install("repro.no_such_module:f", "y")
    assert len(tracer.missing) == 2
    original = vars(ScheduledQueue)["push"]
    tracer.install("repro.core.queueing:ScheduledQueue.push", "push")
    assert vars(ScheduledQueue)["push"] is not original
    tracer.remove()
    assert vars(ScheduledQueue)["push"] is original


@pytest.fixture
def private_tmp(tmp_path, monkeypatch):
    """The cycle reads spill sizes off the temp directory: give it its own,
    as the parent does for a child through TMPDIR."""
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    return tmp_path


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_cycles_report_every_metric_and_repeat_exactly(workload, private_tmp):
    plain = [
        run_cycle(workload, 3, smoke=True, traced_run=False, scratch=private_tmp / f"c{i}")
        for i in range(2)
    ]
    traced = run_cycle(workload, 3, smoke=True, traced_run=True, scratch=private_tmp / "t")

    # No wrapper and no stage adapter survives a traced cycle.
    assert profiling.ACTIVE is None
    assert not hasattr(PubSubSystem.publish, "__wrapped__")
    assert not hasattr(ScheduledQueue.pop_best, "__wrapped__")
    assert traced["missing_targets"] == []

    for record in (*plain, traced):
        assert [c for c in record["checks"] if not c["ok"]] == []
        assert set(record["phases"]) == set(PHASES)
    # Simulated output is a function of the seed alone, traced or not.
    assert plain[0]["fingerprint"] == plain[1]["fingerprint"] == traced["fingerprint"]
    assert plain[0]["sim"].keys() <= traced["sim"].keys()
    exact = [k for k in plain[0]["sim"] if k not in ("leg_run_s", "spill_mb")]
    assert all(plain[0]["sim"][k] == plain[1]["sim"][k] == traced["sim"][k] for k in exact)

    # Every declared metric is produced, and nothing undeclared.
    for record in plain:
        record.update(cpu_s=1.0, peak_rss_mb=1.0)  # the child's main() measures these
        values = bench.end_to_end(record)
        assert list(values) == E2E and all(v > 0 for v in values.values())
    assert set(traced["layers"]) | FROM_PARENT == set(PER_LAYER)
    assert all(v > -1e-9 for v in traced["layers"].values())

    # Self times (plus the unattributed remainders) account for the
    # cycle's wall clock: every phase is a root span.
    layer_seconds = sum(
        v for k, v in traced["layers"].items() if k.endswith("_s") and not k.startswith("sweep.")
    )
    assert layer_seconds == pytest.approx(sum(traced["phases"].values()), rel=0.05)

    if workload == "spill-checkpoint-16k":
        layers = traced["layers"]
        assert layers["core.checkpoint.snapshots"] == 1
        assert layers["core.chunked.spilled_chunks"] > 0 and layers["core.chunked.spill_mb"] > 0
        assert traced["phases"]["checkpoint_write"] > 0 and traced["phases"]["resume"] > 0


def test_twin_worlds_share_a_fingerprint(private_tmp):
    twins = [
        run_cycle(w, 4, smoke=True, traced_run=False, scratch=private_tmp / w)
        for w in ("fanout-16k", "spill-checkpoint-16k")
    ]
    assert twins[0]["fingerprint"] == twins[1]["fingerprint"]


def _run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "bench.py"), *args],
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace, declared", [("0", E2E), ("1", PER_LAYER)])
def test_driver_command_ends_with_the_result_line(trace, declared):
    proc = _run_bench("--workload", "paper-congested", "--seed", "5", "--smoke",
                      "--repeats", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == declared
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    # ... and every metric is printed by name above it.
    assert all(any(line.split()[:1] == [name] for line in lines[:-1]) for name in declared)
    assert not list((ROOT / "perfbench" / "out").glob("run-*"))


def _results(tmp_path: Path, name: str, wall: float, spread: float = 0.0) -> str:
    def stats(v: float) -> dict:
        return {"median": v, "min": v * (1 - spread / 2), "max": v * (1 + spread / 2), "n": 3}

    workloads = {
        w: {
            "end_to_end": {m: stats(wall if m == "wall_s" else 1.0) for m in E2E},
            "calibration_s": 0.05, "fingerprint": "f", "failed": 0,
            "simulated": {"earning": 1.0, "delivery_rate": 0.5},
        } for w in bench.WORKLOADS
    }
    path = tmp_path / name
    path.write_text(json.dumps({"context": {"noisy": False, "load_avg": [0, 0, 0]},
                                "workloads": workloads}))
    return str(path)


def test_compare_says_agree_differ_or_unresolved(tmp_path, capsys):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    base = _results(tmp_path, "a.json", wall=10.0)
    within, beyond = 10.0 * (1 + bound / 2), 10.0 * (1 + 2 * bound)
    assert bench.compare(base, _results(tmp_path, "b.json", wall=within)) == 0
    assert "differ" not in capsys.readouterr().out
    assert bench.compare(base, _results(tmp_path, "c.json", wall=beyond)) == 1
    assert "differ (calibration B/A 1.000)" in capsys.readouterr().out
    # A side whose own spread exceeds the bound cannot resolve that difference.
    noisy = _results(tmp_path, "d.json", wall=beyond, spread=1.5 * bound)
    assert bench.compare(base, noisy) == 0
    assert "unresolved" in capsys.readouterr().out
