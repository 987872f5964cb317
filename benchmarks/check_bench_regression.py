"""Bench-smoke regression guard.

Compares a fresh ``bench_e2e.py --smoke`` result against the committed
baseline (``benchmarks/bench_e2e_smoke_baseline.json``) and fails when
any matching point's ``wall_s`` regressed by more than the tolerance
(default 25 %).  Points are matched on (strategy, subscriptions,
matcher_backend, metrics_backend, scenario); points present in only one
file — or points whose record shape doesn't carry a comparable key at
all (a new scenario family, e.g. the ``scale`` RSS points) — are
reported as notes but never fail the guard, so adding a bench point or
scenario doesn't require a lock-step baseline refresh.

Usage (CI runs exactly this)::

    PYTHONPATH=src python benchmarks/bench_e2e.py --smoke --out BENCH_e2e.json
    python benchmarks/check_bench_regression.py \
        --baseline benchmarks/bench_e2e_smoke_baseline.json --current BENCH_e2e.json

Refresh the baseline by re-running the smoke bench on a quiet machine and
committing the output as the baseline file.  ``--tolerance`` (or the
``BENCH_TOLERANCE`` environment variable, a fraction like ``0.25``)
widens the bar for noisy runners.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def point_key(point: dict) -> tuple | None:
    """Comparison key of a bench point, or None when the point does not
    carry enough identity to be matched (a new scenario family whose
    records use a different shape must degrade to a note, not a
    ``KeyError`` that fails the whole guard)."""
    if not isinstance(point, dict):
        return None
    strategy = point.get("strategy")
    subscriptions = point.get("subscriptions")
    if strategy is None or subscriptions is None:
        return None
    return (
        point.get("scenario", "ssd"),
        strategy,
        subscriptions,
        point.get("matcher_backend", "vector"),
        point.get("metrics_backend", "ledger"),
    )


def keyed_points(points: list, label: str) -> dict:
    """Index comparable points; report the rest instead of crashing."""
    out: dict = {}
    for point in points:
        key = point_key(point)
        if key is None or not isinstance(point.get("wall_s"), (int, float)):
            shown = point.get("scenario", "?") if isinstance(point, dict) else point
            print(f"note: {label} point from scenario {shown!r} has no "
                  f"comparable key/wall_s — not guarded")
            continue
        out[key] = point
    return out


def scale_point_key(point: dict) -> tuple | None:
    """Identity of one scale point (size tier, strategy, engine, mode)."""
    if not isinstance(point, dict):
        return None
    scenario = point.get("scenario")
    if scenario is None or not isinstance(
        point.get("deliveries_per_s"), (int, float)
    ):
        return None
    return (
        scenario,
        point.get("strategy", "eb"),
        point.get("engine", "fused"),
        bool(point.get("log_spill", False)),
    )


def check_scale_throughput(
    baseline: dict, current: dict, floor: float
) -> tuple[int, list[str]]:
    """Minimum-throughput floor on the scale tier's ``deliveries_per_s``.

    The scale points measure the fused hot loop end to end; a silent 2x
    slowdown there would not move the smoke points' sub-second wall
    times.  The floor is deliberately loose (default: current must stay
    above ``floor`` x baseline throughput) because shared runners swing
    hard; it exists to catch collapses, not jitter.  Missing sections or
    mismatched workload shapes degrade to notes — the wall_s guard above
    stays the primary gate.
    """
    base_scale = baseline.get("scale") or {}
    cur_scale = current.get("scale") or {}
    if not base_scale.get("points") or not cur_scale.get("points"):
        print("note: no scale sections on both sides — throughput floor skipped")
        return 0, []
    shape_fields = ("size", "strategy", "rate_per_min_per_publisher",
                    "minutes", "seed", "engine")
    base_shape = {f: base_scale.get("meta", {}).get(f) for f in shape_fields}
    cur_shape = {f: cur_scale.get("meta", {}).get(f) for f in shape_fields}
    if base_shape != cur_shape:
        print(f"note: scale workload shapes differ — baseline {base_shape}, "
              f"current {cur_shape}; throughput floor skipped")
        return 0, []
    base_points = {scale_point_key(p): p for p in base_scale["points"]}
    cur_points = {scale_point_key(p): p for p in cur_scale["points"]}
    base_points.pop(None, None)
    cur_points.pop(None, None)
    compared = 0
    failures: list[str] = []
    for key, base in sorted(base_points.items()):
        cur = cur_points.get(key)
        if cur is None:
            print(f"note: baseline scale point {key} missing from current run")
            continue
        compared += 1
        limit = base["deliveries_per_s"] * floor
        status = "ok" if cur["deliveries_per_s"] >= limit else "REGRESSED"
        print(f"{status:9s} scale {key}: baseline "
              f"{base['deliveries_per_s']:,.0f} del/s, current "
              f"{cur['deliveries_per_s']:,.0f} del/s (floor {limit:,.0f})")
        if cur["deliveries_per_s"] < limit:
            failures.append(
                f"scale {key}: {cur['deliveries_per_s']:,.0f} deliveries/s "
                f"below {floor:.0%} of baseline {base['deliveries_per_s']:,.0f}"
            )
    return compared, failures


def check_checkpoint_cost(current: dict) -> list[str]:
    """Checkpointing must be free when disabled and accounted when on.

    Two invariants: (a) the guarded throughput ``points`` were produced
    with checkpointing disabled (``checkpoints`` 0/absent) — a snapshot
    cadence leaking into those records would corrupt the deliveries/s
    floor while *looking* like an engine regression; (b) when the bench
    ran the separate checkpoint-cost measurement, the checkpointed run's
    series digest must equal the plain run's (a snapshot is a residency
    pause, never a result knob) and its per-snapshot write cost is
    surfaced here so the artifact trail records it per CI run.
    """
    scale = current.get("scale") or {}
    failures: list[str] = []
    for point in scale.get("points") or []:
        if isinstance(point, dict) and point.get("checkpoints", 0) != 0:
            failures.append(
                f"scale point {scale_point_key(point)} wrote "
                f"{point['checkpoints']} checkpoint(s); guarded throughput "
                "points must run with checkpointing disabled"
            )
    ck = scale.get("checkpoint")
    if not isinstance(ck, dict):
        return failures
    record = ck.get("record") or {}
    points = {scale_point_key(p): p for p in scale.get("points") or []}
    plain = points.get(scale_point_key(record))
    if plain is not None and record.get("series_sha256") != plain.get("series_sha256"):
        failures.append(
            "checkpointed scale run's series digest differs from the plain "
            f"run ({record.get('series_sha256')} vs {plain.get('series_sha256')})"
        )
    print(f"note: checkpoint cost at {ck.get('every_s', '?')}s cadence: "
          f"{ck.get('snapshots', '?')} snapshot(s), "
          f"{ck.get('write_s_per_snapshot', '?')}s/snapshot, "
          f"{ck.get('snapshot_mb', '?')} MB latest")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="benchmarks/bench_e2e_smoke_baseline.json")
    parser.add_argument("--current", default="BENCH_e2e.json")
    parser.add_argument(
        "--tolerance", type=float,
        default=float(os.environ.get("BENCH_TOLERANCE", "0.25")),
        help="allowed fractional wall_s regression (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--abs-slack", type=float,
        default=float(os.environ.get("BENCH_ABS_SLACK", "0.05")),
        help="absolute wall_s slack in seconds added on top of the "
             "fractional tolerance; smoke points run ~0.1s, where pure "
             "percentages amplify scheduler noise (default 0.05)",
    )
    parser.add_argument(
        "--scale-floor", type=float,
        default=float(os.environ.get("BENCH_SCALE_FLOOR", "0.5")),
        help="scale points must keep at least this fraction of the "
             "baseline deliveries_per_s (default 0.5)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    current = json.loads(Path(args.current).read_text())

    # wall_s is only comparable between runs of the same workload shape;
    # comparing a full-matrix run against the smoke baseline would report
    # its 2x-longer simulations as regressions.
    shape_fields = ("mode", "minutes", "rate_per_min_per_publisher", "seed")
    base_shape = {f: baseline["meta"].get(f) for f in shape_fields}
    cur_shape = {f: current["meta"].get(f) for f in shape_fields}
    if base_shape != cur_shape:
        print(f"error: workload shapes differ — baseline {base_shape}, "
              f"current {cur_shape}; re-run bench_e2e with matching flags")
        return 2

    base_points = keyed_points(baseline.get("points", []), "baseline")
    cur_points = keyed_points(current.get("points", []), "current")

    failures: list[str] = []
    compared = 0
    for key, base in sorted(base_points.items()):
        cur = cur_points.get(key)
        if cur is None:
            print(f"note: baseline point {key} missing from current run")
            continue
        compared += 1
        limit = base["wall_s"] * (1.0 + args.tolerance) + args.abs_slack
        status = "ok" if cur["wall_s"] <= limit else "REGRESSED"
        print(f"{status:9s} {key}: baseline {base['wall_s']:.3f}s, "
              f"current {cur['wall_s']:.3f}s (limit {limit:.3f}s)")
        if cur["wall_s"] > limit:
            failures.append(
                f"{key}: wall_s {cur['wall_s']:.3f}s exceeds "
                f"{base['wall_s']:.3f}s +{args.tolerance:.0%}"
            )
    for key in sorted(set(cur_points) - set(base_points)):
        print(f"note: new scenario/point {key} not in baseline (not guarded)")

    scale_compared, scale_failures = check_scale_throughput(
        baseline, current, args.scale_floor
    )
    failures.extend(scale_failures)
    failures.extend(check_checkpoint_cost(current))

    if compared == 0:
        print("error: no comparable points between baseline and current run")
        return 2
    if failures:
        print(f"\n{len(failures)} point(s) regressed beyond tolerance:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nall {compared} guarded points within +{args.tolerance:.0%} of "
          f"baseline; {scale_compared} scale point(s) above the "
          f"{args.scale_floor:.0%} throughput floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
