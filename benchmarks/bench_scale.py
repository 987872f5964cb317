"""Bounded-memory scale benchmark: peak RSS and wall time, spill vs RAM.

Runs one member of the scale scenario family (100k+ subscribers, skewed
filter popularity, high fanout — see ``repro.workload.scenarios``)
twice: once with the delivery/publication logs fully in memory, once
with ``log_spill`` writing sealed chunks to a temp ``.npz`` ring.  Each
mode runs in a **fresh subprocess** so the two ``ru_maxrss`` high-water
marks cannot contaminate each other, and the windowed-series digests of
the two runs are asserted identical — spill is a residency knob, not a
semantics knob.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/bench_scale.py                # 100k
    PYTHONPATH=src python benchmarks/bench_scale.py --size 250k
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke        # CI-sized

Results merge into ``BENCH_e2e.json`` (override with ``--out``) under a
``"scale"`` key, preserving whatever ``bench_e2e.py`` already wrote
there; CI uploads the file as an artifact so the RSS trajectory is
recorded per run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent


def run_child(
    args: argparse.Namespace,
    spill: bool,
    checkpoint_every_s: float | None = None,
) -> dict:
    """Run one measured point in a fresh interpreter; returns its record."""
    cmd = [
        sys.executable, os.fspath(Path(__file__).resolve()),
        "--child",
        "--size", args.size,
        "--strategy", args.strategy,
        "--rate", str(args.rate),
        "--minutes", str(args.minutes),
        "--seed", str(args.seed),
        "--chunk-rows", str(args.chunk_rows),
        "--engine", args.engine,
    ]
    if spill:
        cmd.append("--spill")
    if checkpoint_every_s is not None:
        cmd += ["--checkpoint-every", str(checkpoint_every_s)]
    if args.profile:
        cmd.append("--profile")
    env = dict(os.environ)
    src = os.fspath(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale child ({'spill' if spill else 'memory'}) failed:\n{proc.stderr}"
        )
    if args.profile and proc.stderr.strip():
        print(proc.stderr.strip())
    # The record is the last stdout line (progress prints precede it).
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_main(args: argparse.Namespace) -> int:
    import tempfile

    from repro.core import profiling
    from repro.experiments.scale import run_scale_point

    if args.profile:
        profiling.enable()
    with tempfile.TemporaryDirectory(prefix="bench-ck-") as ck_tmp:
        checkpoint = None
        if args.checkpoint_every is not None:
            from repro.sim.runner import CheckpointPolicy

            checkpoint = CheckpointPolicy(
                Path(ck_tmp) / "ck",
                every_ms=args.checkpoint_every * 1000.0,
                keep=2,
            )
        point = run_scale_point(
            args.size,
            strategy=args.strategy,
            seed=args.seed,
            rate_per_min=args.rate,
            minutes=args.minutes,
            spill=args.spill,
            chunk_rows=args.chunk_rows,
            engine=args.engine,
            checkpoint=checkpoint,
        )
    if args.profile and profiling.ACTIVE is not None:
        # Stage table goes to stderr so stdout stays a clean JSON record.
        print(profiling.disable().format_table(), file=sys.stderr)
    print(json.dumps(point.as_dict()))
    return 0


def _load_avg() -> list[float] | None:
    try:
        return [round(x, 3) for x in os.getloadavg()]
    except (AttributeError, OSError):  # non-POSIX runner
        return None


def merge_out(out_path: Path, payload: dict) -> None:
    """Set the ``"scale"`` key of the bench JSON, keeping existing content."""
    existing: dict = {}
    if out_path.exists():
        try:
            existing = json.loads(out_path.read_text())
        except ValueError:
            existing = {}
    if not isinstance(existing, dict):
        existing = {}
    existing["scale"] = payload
    out_path.write_text(json.dumps(existing, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    try:
        # Fail typos fast when the package is importable (PYTHONPATH=src,
        # the documented invocation); without it the parent still parses
        # and the child reports the unknown size.
        from repro.core.chunked import DEFAULT_CHUNK_ROWS as default_chunk_rows
        from repro.workload.scenarios import SCALE_SCENARIOS

        size_choices: list[str] | None = sorted(SCALE_SCENARIOS)
    except ModuleNotFoundError:
        size_choices = None
        default_chunk_rows = 65_536
    parser.add_argument("--size", default="100k", choices=size_choices,
                        help="scale-family member (smoke | 100k | 250k | 1m)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (forces --size smoke, short window)")
    parser.add_argument("--strategy", default="eb")
    parser.add_argument("--rate", type=float, default=10.0,
                        help="publications per minute per publisher")
    parser.add_argument("--minutes", type=float, default=None,
                        help="simulated publication window (default 4.0, smoke 1.0)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--chunk-rows", type=int, default=default_chunk_rows)
    parser.add_argument("--engine", default="fused", choices=("fused", "event"),
                        help="execution engine (fused window drain | per-event oracle)")
    parser.add_argument("--profile", action="store_true",
                        help="print the per-stage hot-loop timer table per mode")
    parser.add_argument("--out", default="BENCH_e2e.json", help="merge results here")
    parser.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="SECONDS",
        help="also measure a checkpointing run at this simulated-time "
             "cadence (default: minutes*60/4, i.e. ~4 snapshots)")
    parser.add_argument("--no-checkpoint-bench", action="store_true",
                        help="skip the checkpoint-cost measurement")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spill", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.smoke:
        args.size = "smoke"
    if args.minutes is None:
        args.minutes = 1.0 if args.size == "smoke" else 4.0

    if args.child:
        return child_main(args)

    records: dict[str, dict] = {}
    for spill in (False, True):
        mode = "spill" if spill else "memory"
        record = run_child(args, spill)
        records[mode] = record
        print(f"{mode:6s} {args.size:>5s}/{args.strategy}/{args.engine}: "
              f"run {record['run_s']:7.2f}s, analysis {record['analysis_s']:6.2f}s, "
              f"{record.get('deliveries_per_s', 0.0):,.0f} deliveries/s, "
              f"peak RSS {record['peak_rss_kb'] / 1024.0:8.1f} MiB, "
              f"{record['log_rows']} rows, {record['spilled_chunks']} spilled chunks")

    # Spill must change residency, not results: same deliveries, same
    # earnings, same windowed series bytes.
    for field in ("published", "deliveries", "deliveries_valid", "earning",
                  "log_rows", "series_sha256"):
        if records["memory"][field] != records["spill"][field]:
            raise AssertionError(
                f"scale modes diverged on {field}: "
                f"memory={records['memory'][field]} spill={records['spill'][field]}"
            )
    # The guarded throughput points must be checkpoint-free: a non-zero
    # count here would mean snapshot writes leaked into run_s and the
    # floor comparison (check_bench_regression.py asserts this too).
    for mode, record in records.items():
        if record.get("checkpoints", 0) != 0:
            raise AssertionError(
                f"{mode} point unexpectedly wrote {record['checkpoints']} "
                "checkpoint(s); the throughput floor assumes none"
            )
    mem_kb = records["memory"]["peak_rss_kb"]
    spill_kb = records["spill"]["peak_rss_kb"]
    saving = 1.0 - spill_kb / mem_kb if mem_kb else 0.0
    print(f"peak-RSS saving with spill: {saving:.1%} "
          f"({mem_kb / 1024.0:.1f} -> {spill_kb / 1024.0:.1f} MiB), "
          f"series byte-identical")

    # Checkpoint-cost measurement: one more run with snapshots at a
    # ~4-per-run cadence.  Its record stays OUT of `points` (same
    # (scenario, strategy, engine, spill) identity as the memory point —
    # it would collide in the throughput guard) and lands under its own
    # "checkpoint" key: write cost is a separate budget, not a throughput
    # datum.
    checkpoint_payload = None
    if not args.no_checkpoint_bench:
        every_s = args.checkpoint_every or args.minutes * 60.0 / 4.0
        record = run_child(args, spill=False, checkpoint_every_s=every_s)
        for field in ("published", "deliveries", "deliveries_valid",
                      "earning", "log_rows", "series_sha256"):
            if record[field] != records["memory"][field]:
                raise AssertionError(
                    f"checkpointed run diverged on {field}: "
                    f"memory={records['memory'][field]} checkpointed={record[field]}"
                )
        snapshots = record.get("checkpoints", 0)
        if snapshots <= 0:
            raise AssertionError(
                f"checkpoint bench wrote no snapshots at every={every_s:g}s"
            )
        per_snap_s = record["checkpoint_write_s"] / snapshots
        print(f"ckpt   {args.size:>5s}/{args.strategy}/{args.engine}: "
              f"{snapshots} snapshots, {per_snap_s:.2f}s/snapshot, "
              f"{record['checkpoint_mb']:.1f} MB latest, "
              f"series byte-identical")
        checkpoint_payload = {
            "every_s": every_s,
            "snapshots": snapshots,
            "write_s_total": round(record["checkpoint_write_s"], 3),
            "write_s_per_snapshot": round(per_snap_s, 3),
            "snapshot_mb": record["checkpoint_mb"],
            "record": record,
        }

    payload = {
        "meta": {
            "bench": "bench_scale",
            "size": args.size,
            "strategy": args.strategy,
            "rate_per_min_per_publisher": args.rate,
            "minutes": args.minutes,
            "seed": args.seed,
            "chunk_rows": args.chunk_rows,
            "engine": args.engine,
            "python": platform.python_version(),
            "machine": platform.machine(),
            # Timings are meaningless without the hardware they ran on;
            # the load averages flag a contended runner in the artifact
            # trail.
            "cpu_count": os.cpu_count(),
            "load_avg": _load_avg(),
        },
        "points": [records["memory"], records["spill"]],
        "peak_rss_saving": round(saving, 4),
        "series_identical": True,
    }
    if checkpoint_payload is not None:
        payload["checkpoint"] = checkpoint_payload
    out = Path(args.out)
    merge_out(out, payload)
    print(f"merged scale results into {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
