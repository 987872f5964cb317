"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/bench.py [--seed N] [--repeats R] [--trace] [--smoke] [--out FILE]
    python3 perfbench/bench.py --compare A.json B.json

The first form is the driver's (``BENCHMARK.json``): one workload, cycles
repeated for ``S`` seconds, the last stdout line a JSON result.  The second
runs every workload and writes a results file ``--compare`` can read.

This is a deterministic batch simulator, so the load model is work completed
per host-second at a stated input size.  One **cycle** is one fresh
single-threaded interpreter doing set-up, run and analysis
(``perfbench/child.py``); cycles run strictly one after another and each
metric is the median over a run's cycles.  Simulated numbers repeat exactly
for a seed; host numbers carry the sandbox's noise.

``BENCHMARK.json`` is the one list of metric names, units and bounds; this
file reads it and prints exactly those.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Run fingerprints for seeds 1 and 2 (full sizes), see README "Re-pinning".
PINS = json.loads((HERE / "pins.json").read_text())

#: Fewest untraced cycles a timed run reports a median over.
MIN_CYCLES = 3


def machine_context() -> dict[str, Any]:
    """What the numbers ran on; ``noisy`` when the box was already busy."""
    load = os.getloadavg()
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "load_avg": [round(x, 2) for x in load],
        "noisy": load[0] > nproc,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "machine": platform.machine(),
    }


def _numpy_version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("numpy")
    except PackageNotFoundError:
        return "missing"


# ---------------------------------------------------------------------- #
# Running cycles.
# ---------------------------------------------------------------------- #
def run_child(
    workload: str, seed: int, smoke: bool, traced: bool, scratch: Path
) -> dict[str, Any] | None:
    """One cycle in a fresh interpreter; ``None`` if it failed.

    ``scratch`` is the cycle's own directory: spec and result files, the
    child's TMPDIR (where the program spills log chunks) and its checkpoint.
    """
    (scratch / "tmp").mkdir(parents=True)
    result_path = scratch / "result.json"
    trace_path = OUT / f"trace-{workload}-seed{seed}.npz" if traced else None
    env = dict(os.environ)
    # The default production path: nothing forced on through the environment.
    for forced in ("REPRO_SENTINEL", "REPRO_SHARDS", "REPRO_SHARD_BACKEND"):
        env.pop(forced, None)
    env.update(
        PYTHONPATH=os.pathsep.join(
            [os.fspath(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
        ),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        TMPDIR=os.fspath(scratch / "tmp"),
    )
    spec_path = scratch / "spec.json"
    spec_path.write_text(json.dumps({
        "workload": workload, "seed": seed, "smoke": smoke, "traced": traced,
        "scratch": os.fspath(scratch), "result_path": os.fspath(result_path),
        "trace_path": os.fspath(trace_path) if trace_path else None,
        "t_spawn": perf_counter(),
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.child", os.fspath(spec_path)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0 or not result_path.exists():
        print(f"cycle of {workload} failed (exit {proc.returncode}):\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def end_to_end(record: dict[str, Any]) -> dict[str, float]:
    """The end-to-end metrics of one untraced cycle."""
    phases, sim = record["phases"], record["sim"]
    return {
        "wall_s": sum(phases.values()),
        "setup_s": phases["setup"],
        "run_s": phases["run"],
        "analysis_s": phases["analysis"],
        "cpu_s": record["cpu_s"],
        "deliveries_per_s": (sim["deliveries_valid"] + sim["deliveries_late"]) / phases["run"],
        "events_per_s": sim["events"] / phases["run"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def run_workload(
    workload: str, seed: int, *, seconds: float, repeats: int | None, trace: bool,
    smoke: bool,
) -> dict[str, Any]:
    """Cycle ``workload`` and fold the cycles into one result.

    With ``repeats``: that many untraced cycles, plus one traced if
    ``trace``.  Otherwise cycles are started while another one still fits
    into ``seconds``: untraced ones (at least ``MIN_CYCLES``), or with
    ``trace`` one untraced cycle — the base of ``bench.trace_overhead`` —
    and then traced ones.
    """
    started = perf_counter()
    records: dict[bool, list[dict[str, Any]]] = {False: [], True: []}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as tmp:
        cycles = 0

        def cycle(traced: bool) -> bool:
            nonlocal cycles
            cycles += 1
            record = run_child(workload, seed, smoke, traced, Path(tmp) / f"cycle{cycles}")
            if record is not None:
                records[traced].append(record)
            return record is not None

        if repeats is not None:
            ok = all(cycle(traced) for traced in [False] * repeats + [True] * trace)
        else:
            ok = cycle(False) if trace else True
            minimum, done, deadline = (1 if trace else MIN_CYCLES), 0, started + seconds
            while ok:
                t0 = perf_counter()
                ok = cycle(trace)
                done += 1
                now = perf_counter()
                if done >= minimum and now + (now - t0) > deadline:
                    break
    return fold(workload, seed, smoke, records, cycle_failed=not ok)


def _stats(values: list[float]) -> dict[str, Any]:
    return {
        "median": statistics.median(values), "min": min(values), "max": max(values),
        "n": len(values), "values": values,
    }


def fold(
    workload: str, seed: int, smoke: bool, records: dict[bool, list[dict[str, Any]]],
    cycle_failed: bool,
) -> dict[str, Any]:
    """Medians, checks and context of one workload's cycles."""
    everyone = records[False] + records[True]
    checks = [
        {"name": f"cycle{i}:{c['name']}", "ok": c["ok"], "detail": c["detail"]}
        for i, r in enumerate(everyone) for c in r["checks"]
    ]
    checks += [{"name": f"cycle{i}:exit", "ok": True, "detail": ""} for i in range(len(everyone))]
    if cycle_failed:
        checks.append({"name": "cycle:exit", "ok": False, "detail": "a cycle raised; see stderr"})
    fingerprints = sorted({r["fingerprint"] for r in everyone})
    if everyone:
        # Traced or not, every cycle of a seed must produce the same bytes.
        checks.append({
            "name": "fingerprints_agree", "ok": len(fingerprints) == 1,
            "detail": f"cycles disagree: {fingerprints}",
        })
        pinned = PINS.get(workload, {}).get(str(seed))
        if pinned is not None and not smoke:
            checks.append({
                "name": "fingerprint_pinned", "ok": fingerprints == [pinned],
                "detail": f"got {fingerprints}, pinned {pinned}",
            })
    result: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "cycles": {"untraced": len(records[False]), "traced": len(records[True])},
        "fingerprint": fingerprints[0] if len(fingerprints) == 1 else None,
        "attempted": len(checks),
        "failed": sum(not c["ok"] for c in checks),
        "failures": [c for c in checks if not c["ok"]],
    }
    if everyone:
        result["simulated"] = {
            key: everyone[0]["sim"][key] for key in ("earning", "delivery_rate")
        }
        result["calibration_s"] = statistics.median(r["calibration_s"] for r in everyone)
    if records[False]:
        per_cycle = [end_to_end(r) for r in records[False]]
        result["end_to_end"] = {
            m["name"]: _stats([c[m["name"]] for c in per_cycle]) for m in SPEC["end_to_end"]
        }
    if records[True]:
        layers = {
            name: statistics.median(r["layers"][name] for r in records[True])
            for name in records[True][0]["layers"]
        }
        layers["bench.import_s"] = statistics.median(r["import_s"] for r in records[True])
        layers["bench.calibration_s"] = statistics.median(
            r["calibration_s"] for r in records[True]
        )
        if records[False]:
            layers["bench.trace_overhead"] = statistics.median(
                sum(r["phases"].values()) for r in records[True]
            ) / statistics.median(sum(r["phases"].values()) for r in records[False])
        result["per_layer"] = {m["name"]: layers[m["name"]] for m in SPEC["per_layer"]}
        result["missing_targets"] = records[True][0]["missing_targets"]
    return result


# ---------------------------------------------------------------------- #
# Reporting.
# ---------------------------------------------------------------------- #
def print_result(result: dict[str, Any]) -> None:
    """Every metric the result holds, by name, with its unit."""
    cycles = result["cycles"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{cycles['untraced']} untraced + {cycles['traced']} traced cycles  "
          f"checks {result['attempted'] - result['failed']}/{result['attempted']} ok")
    for failure in result["failures"]:
        print(f"   FAILED {failure['name']}: {failure['detail']}")
    for m in SPEC["end_to_end"]:
        stats = result.get("end_to_end", {}).get(m["name"])
        if stats is not None:
            print(f"   {m['name']:<42} {stats['median']:>14.4f} {m['unit']:<6} "
                  f"min {stats['min']:.4f}  max {stats['max']:.4f}  n {stats['n']}")
    for key, value in result.get("simulated", {}).items():
        print(f"   {key:<42} {value:>14.4f} (simulated, exact)")
    for m in SPEC["per_layer"]:
        value = result.get("per_layer", {}).get(m["name"])
        if value is not None:
            print(f"   {m['name']:<42} {value:>14.4f} {m['unit']}")
    for target in result.get("missing_targets", []):
        print(f"   trace target gone from the program: {target}")


def driver_line(result: dict[str, Any], trace: bool) -> str:
    """The one JSON object the driver reads."""
    if trace:
        metrics = {
            m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": result["end_to_end"][m["name"]]["median"], "unit": m["unit"]}
            for m in SPEC["end_to_end"]
        }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


# ---------------------------------------------------------------------- #
# Comparing two results files.
# ---------------------------------------------------------------------- #
def compare(path_a: str, path_b: str) -> int:
    """Print a verdict per (end-to-end metric, workload); 1 on ``differ``.

    ``unresolved`` when either side's own min-max spread exceeds the
    metric's bound: the runs cannot tell a difference of that size.
    """
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    differ = False
    print(f"{'workload':<22} {'metric':<18} {'A median':>14} {'B median':>14} "
          f"{'B/A-1':>8} {'bound':>6}  verdict")
    for workload in WORKLOADS:
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            continue
        calibration = wb["calibration_s"] / wa["calibration_s"]
        for m in SPEC["end_to_end"]:
            sa, sb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            rel = sb["median"] / sa["median"] - 1.0
            spread = max((s["max"] - s["min"]) / s["median"] for s in (sa, sb))
            if spread > m["bound"]:
                verdict = "unresolved"
            elif abs(rel) > m["bound"]:
                verdict = f"differ (calibration B/A {calibration:.3f})"
                differ = True
            else:
                verdict = "agree"
            print(f"{workload:<22} {m['name']:<18} {sa['median']:>14.4f} "
                  f"{sb['median']:>14.4f} {rel:>+8.3f} {m['bound']:>6.2f}  {verdict}")
        for key in ("fingerprint", "simulated", "failed"):
            same = wa[key] == wb[key]
            differ |= not same
            print(f"{workload:<22} {key:<18} {'(exact)':>14} {'':>14} {'':>8} {0:>6}  "
                  f"{'agree' if same else 'differ'}")
    for label, side in (("A", a), ("B", b)):
        if side["context"]["noisy"]:
            print(f"note: {label} ran on a busy box (load {side['context']['load_avg']})")
    return 1 if differ else 0


# ---------------------------------------------------------------------- #
# Entry point.
# ---------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="keep starting cycles while another fits into this")
    parser.add_argument("--repeats", type=int,
                        help="exactly this many untraced cycles instead of --seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced cycles, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="contract-test sizes; never a reference number")
    parser.add_argument("--out", help="write the results file here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    context = machine_context()
    results: dict[str, Any] = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        result = run_workload(
            workload, args.seed, seconds=args.seconds, repeats=args.repeats,
            trace=bool(args.trace), smoke=args.smoke,
        )
        print_result(result)
        if "per_layer" not in result if args.trace else "end_to_end" not in result:
            print(f"{workload}: no cycle completed, nothing to report", file=sys.stderr)
            return 1
        results[workload] = result
        print(driver_line(result, bool(args.trace)), flush=True)
    out = args.out
    if out is None and not args.workload:
        out = OUT / f"results-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    if out is not None:
        Path(out).write_text(json.dumps({
            "claim": None, "seed": args.seed, "smoke": args.smoke, "context": context,
            "workloads": results,
        }, indent=1) + "\n")
    if not args.workload:
        # Same world, same seed: spilling the log and resuming from a
        # snapshot must not change a byte.
        twins = [results[w]["fingerprint"] for w in ("fanout-16k", "spill-checkpoint-16k")]
        if len(set(twins)) != 1:
            print(f"fanout and spill-checkpoint fingerprints differ: {twins}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
