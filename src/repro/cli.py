"""Command-line interface: regenerate any paper artefact or run a custom point.

Examples::

    python -m repro fig6a --scale 0.1
    python -m repro fig5a --scale 0.1 --jobs 4
    python -m repro fig4a --scale 0.05 --seed 3
    python -m repro tab1
    python -m repro claims --scale 0.1
    python -m repro run --scenario ssd --strategy ebpc --r 0.6 --rate 12 --minutes 10
    python -m repro run --strategy ebpc --minutes 2 --reference
    python -m repro dynamics --preset flash-crowd --metric delivery-rate --minutes 10
    python -m repro dynamics --preset degrade-worst-link --metric queue-depth
    python -m repro scale --size 100k --log-spill
    python -m repro run --strategy eb --minutes 10 --log-spill --log-chunk 16384
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import profiling
from repro.core.checkpoint import CheckpointError
from repro.core.chunked import DEFAULT_CHUNK_ROWS
from repro.experiments import figure4, figure5, figure6, table1
from repro.experiments.claims import format_report, run_all
from repro.experiments.common import ScaleSpec
from repro.experiments.report import format_series_table
from repro.sim.config import SimulationConfig
from repro.sim.runner import CheckpointInterrupted, run_simulation
from repro.workload.scenarios import SCALE_SCENARIOS, Scenario

_FIGURES = {
    "fig4a": figure4.run_panel_a,
    "fig4b": figure4.run_panel_b,
    "fig5a": figure5.run_panel_a,
    "fig5b": figure5.run_panel_b,
    "fig6a": figure6.run_panel_a,
    "fig6b": figure6.run_panel_b,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="fraction of the paper's 2-hour test period to simulate (default 0.1; 1.0 = full)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pubsub",
        description="Reproduce Wang et al. (ICPP 2006): bounded-delay pub/sub scheduling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for fig_id in _FIGURES:
        p = sub.add_parser(fig_id, help=f"regenerate {fig_id}")
        _add_scale_args(p)
        p.add_argument("--plot", action="store_true", help="also render an ASCII chart")
        p.add_argument(
            "--jobs", type=_positive_int, default=1, metavar="N",
            help="run the sweep's independent simulation points over N worker "
                 "processes (results are byte-identical to a sequential run)",
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="cache finished points as JSON keyed by config hash; repeated "
                 "sweeps at the same scale skip them",
        )

    sub.add_parser("tab1", help="render Table 1 (related-work taxonomy)")

    p = sub.add_parser("claims", help="check the paper's headline claims")
    _add_scale_args(p)

    p = sub.add_parser("record", help="regenerate the EXPERIMENTS.md reproduction record")
    _add_scale_args(p)
    p.add_argument("-o", "--output", default=None, help="write markdown here (default: stdout)")

    p = sub.add_parser("ablate", help="run one ablation study")
    from repro.experiments.ablation import STUDIES

    p.add_argument("study", choices=sorted(STUDIES))
    _add_scale_args(p)

    p = sub.add_parser("doctor", help="validate the assembled system's routing state")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--scenario", choices=[s.value for s in Scenario], default="psd"
    )

    p = sub.add_parser(
        "dynamics",
        help="compare all strategies under a scripted scenario (time series)",
    )
    from repro.experiments.dynamics import ALL_STRATEGIES, METRICS
    from repro.workload.dynamics import PRESETS

    p.add_argument("--preset", choices=sorted(PRESETS), default="flash-crowd")
    p.add_argument("--metric", choices=sorted(METRICS), default="delivery-rate")
    p.add_argument("--scenario", choices=[s.value for s in Scenario], default="ssd")
    p.add_argument("--rate", type=float, default=10.0, help="msgs/min/publisher (base)")
    p.add_argument("--minutes", type=float, default=10.0, help="simulated test period")
    p.add_argument("--window", type=float, default=60.0, help="bucket width (seconds)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--strategy", action="append", choices=ALL_STRATEGIES, default=None,
        metavar="NAME", help="restrict to these strategies (repeatable; default all)",
    )
    p.add_argument(
        "--measurement", choices=["oracle", "estimated"], default="oracle",
        help="link parameter source for the schedulers",
    )
    p.add_argument(
        "--estimator", choices=["welford", "window", "ewma"], default="welford",
        help="ESTIMATED-mode estimator (window/ewma track runtime rate changes)",
    )
    _add_sentinel_args(p)
    _add_checkpoint_args(p)

    p = sub.add_parser("run", help="run one custom simulation point")
    p.add_argument("--scenario", choices=[s.value for s in Scenario], default="psd")
    p.add_argument("--strategy", default="eb", help="fifo | rl | eb | pc | ebpc")
    p.add_argument("--r", type=float, default=0.5, help="EB weight for ebpc")
    p.add_argument("--rate", type=float, default=10.0, help="msgs/min/publisher")
    p.add_argument("--minutes", type=float, default=10.0, help="simulated test period")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--reference", action="store_true",
        help="run the reference stack (filter predicates tested per row, per-delivery "
             "collector, full-rescan queues): the same numbers, the slow way",
    )
    _add_profile_args(p)
    _add_log_args(p)
    _add_sentinel_args(p)
    _add_script_args(p)
    _add_checkpoint_args(p)

    p = sub.add_parser(
        "scale",
        help="run one bounded-memory scale-tier point (100k+ subscribers)",
    )
    p.add_argument(
        "--size", choices=sorted(SCALE_SCENARIOS), default="100k",
        help="scale-family member (smoke is CI-sized)",
    )
    p.add_argument("--strategy", default="eb", help="fifo | rl | eb | pc | ebpc")
    p.add_argument("--rate", type=float, default=10.0, help="msgs/min/publisher")
    p.add_argument("--minutes", type=float, default=2.0, help="simulated test period")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--window", type=float, default=30.0, help="series bucket (seconds)")
    _add_profile_args(p)
    _add_log_args(p)
    _add_sentinel_args(p)
    _add_script_args(p)
    _add_checkpoint_args(p)

    p = sub.add_parser(
        "lint",
        help="determinism & fork-safety static analyzer (RL001-RL006)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(p)

    p = sub.add_parser(
        "fuzz",
        help="search fault-scenario space for invariant violations and "
             "strategy-ranking inversions",
    )
    p.add_argument(
        "--smoke", action="store_true",
        help="the CI campaign: fixed small budget, short runs",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--budget", type=_positive_int, default=12, metavar="N",
        help="random fault scripts to try (ignored with --smoke)",
    )
    p.add_argument("--rate", type=float, default=20.0, help="msgs/min/publisher")
    p.add_argument("--minutes", type=float, default=2.0, help="simulated test period")
    p.add_argument(
        "--out", default="fuzz-findings", metavar="DIR",
        help="write shrunk counterexample scripts here (default: fuzz-findings)",
    )
    return parser


def _add_sentinel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sentinel", action="store_true",
        help="run the invariant sentinel at window boundaries (decision-"
             "neutral; raises InvariantViolation the moment an identity breaks)",
    )


def _add_script_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--script", default=None, metavar="PATH",
        help="play a fault/intervention script file (JSON written by the "
             "fuzzer or repro.workload.registry.save_script)",
    )


def _load_script(args: argparse.Namespace):
    if getattr(args, "script", None) is None:
        return None
    from repro.workload.registry import load_script

    return load_script(args.script)


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="per-stage pipeline timers (pop/match/enqueue/drain/metrics/"
             "append), printed after the run",
    )


def _add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="SECONDS",
        help="snapshot the full engine state every N simulated seconds "
             "(atomic write-then-rename; versioned, fingerprinted manifest)",
    )
    parser.add_argument(
        "--checkpoint-dir", default="checkpoints", metavar="DIR",
        help="checkpoint root directory (default: ./checkpoints)",
    )
    parser.add_argument(
        "--checkpoint-keep", type=_positive_int, default=3, metavar="K",
        help="retain the newest K snapshots (default 3)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume from a snapshot (or the newest one under a checkpoint "
             "root); the other flags must rebuild the same config, or the "
             "snapshot refuses with a fingerprint mismatch",
    )


def _checkpoint_policy(args: argparse.Namespace):
    """CheckpointPolicy from CLI flags (None when checkpointing is off)."""
    if args.checkpoint_every is None:
        return None
    from repro.sim.runner import CheckpointPolicy

    return CheckpointPolicy(
        directory=args.checkpoint_dir,
        every_ms=args.checkpoint_every * 1000.0,
        keep=args.checkpoint_keep,
    )


def _add_log_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-spill", action="store_true",
        help="spill sealed delivery-/publication-log chunks to a temp .npz "
             "ring; only the active chunk stays in RAM (decision-neutral)",
    )
    parser.add_argument(
        "--log-chunk", type=_positive_int, default=DEFAULT_CHUNK_ROWS, metavar="ROWS",
        help="rows per sealed log chunk (the spill granularity; "
             f"default {DEFAULT_CHUNK_ROWS})",
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()  # repro-lint: ignore[RL001] -- CLI elapsed footer, decision-neutral
    try:
        return _dispatch(args, start)
    except CheckpointInterrupted as stop:
        print(
            f"\ninterrupted: final checkpoint written after "
            f"{stop.executed} events\n"
            f"resume with: --resume {stop.checkpoint}",
            file=sys.stderr,
        )
        return 3
    except CheckpointError as err:
        # A snapshot that is damaged or belongs to other code/config: the
        # typed message says which, so no traceback.
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 4


def _dispatch(args: argparse.Namespace, start: float) -> int:
    if args.command == "lint":
        # No elapsed footer: the lint output is consumed by CI and tests.
        from repro.lint.cli import run_lint

        return run_lint(args)
    if args.command in _FIGURES:
        result = _FIGURES[args.command](
            ScaleSpec(scale=args.scale, seed=args.seed),
            jobs=args.jobs, cache_dir=args.cache_dir,
        )
        print(format_series_table(result))
        if args.plot:
            from repro.experiments.asciiplot import render_ascii_chart

            print()
            print(render_ascii_chart(result))
    elif args.command == "tab1":
        print(table1.render())
    elif args.command == "claims":
        print(format_report(run_all(ScaleSpec(scale=args.scale, seed=args.seed))))
    elif args.command == "ablate":
        from repro.experiments.ablation import STUDIES

        result = STUDIES[args.study](ScaleSpec(scale=args.scale, seed=args.seed))
        print(format_series_table(result))
    elif args.command == "doctor":
        from repro.sim.runner import build_system
        from repro.sim.validation import validate_system

        system = build_system(
            SimulationConfig(seed=args.seed, scenario=Scenario(args.scenario))
        )
        findings = validate_system(system)
        if findings:
            for finding in findings:
                print(finding)
            return 1
        print(
            f"ok: {len(system.brokers)} brokers, {len(system.monitors)} link directions, "
            f"{system.subscription_count} subscriptions — no structural findings"
        )
    elif args.command == "record":
        from repro.experiments.record import render_markdown, run_everything

        bundle = run_everything(ScaleSpec(scale=args.scale, seed=args.seed))
        text = render_markdown(bundle)
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(text)
            print(f"wrote {args.output} ({len(text.splitlines())} lines)")
        else:
            print(text)
    elif args.command == "dynamics":
        from repro.experiments.asciiplot import render_ascii_chart
        from repro.experiments.dynamics import ALL_STRATEGIES, run_dynamics_comparison

        result = run_dynamics_comparison(
            preset=args.preset,
            scenario=Scenario(args.scenario),
            minutes=args.minutes,
            rate_per_min=args.rate,
            seed=args.seed,
            window_s=args.window,
            metric=args.metric,
            strategies=tuple(args.strategy) if args.strategy else ALL_STRATEGIES,
            measurement=args.measurement,
            link_estimator=args.estimator,
            sentinel=args.sentinel,
            checkpoint=_checkpoint_policy(args),
            resume=args.resume,
        )
        print(format_series_table(result))
        print()
        print(render_ascii_chart(result))
    elif args.command == "run":
        params = {"r": args.r} if args.strategy == "ebpc" else {}
        if args.profile:
            profiling.enable()
        script = _load_script(args)
        config = SimulationConfig(
            seed=args.seed,
            scenario=Scenario(args.scenario),
            strategy=args.strategy,
            strategy_params=params,
            publishing_rate_per_min=args.rate,
            duration_ms=args.minutes * 60_000.0,
            log_spill=args.log_spill,
            log_chunk_rows=args.log_chunk,
            sentinel=args.sentinel,
        )
        if script is not None:
            config = config.replace(dynamics=script)
        result = run_simulation(
            config,
            checkpoint=_checkpoint_policy(args),
            resume=args.resume,
            reference=args.reference,
        )
        print(f"strategy          : {result.strategy}")
        print(f"scenario          : {result.scenario}")
        print(f"published         : {result.published}")
        print(f"delivery rate     : {result.delivery_rate:.4f}")
        print(f"total earning     : {result.earning:.1f}")
        print(f"message number    : {result.message_number}")
        print(f"pruned            : {result.pruned}")
        print(f"mean latency (ms) : {result.mean_latency_ms:.0f}")
        if args.profile and profiling.ACTIVE is not None:
            print()
            print(profiling.disable().format_table())
    elif args.command == "scale":
        from repro.experiments.scale import run_scale_point

        if args.profile:
            profiling.enable()
        point = run_scale_point(
            args.size,
            strategy=args.strategy,
            seed=args.seed,
            rate_per_min=args.rate,
            minutes=args.minutes,
            spill=args.log_spill,
            chunk_rows=args.log_chunk,
            window_s=args.window,
            sentinel=args.sentinel,
            script=_load_script(args),
            checkpoint=_checkpoint_policy(args),
            resume=args.resume,
        )
        print(f"scenario          : scale-{point.scenario}")
        print(f"strategy          : {point.strategy}")
        print(f"subscribers       : {point.subscribers}")
        print(f"published         : {point.published}")
        print(f"deliveries        : {point.deliveries}")
        print(f"delivery rate     : {point.delivery_rate:.4f}")
        print(f"total earning     : {point.earning:.1f}")
        print(f"log rows          : {point.log_rows}")
        print(f"spilled chunks    : {point.spilled_chunks}"
              f" ({'spill on' if point.spill else 'in-memory'},"
              f" {point.chunk_rows} rows/chunk)")
        print(f"build / run / ana : {point.build_s:.1f}s / {point.run_s:.1f}s"
              f" / {point.analysis_s:.1f}s")
        print(f"deliveries/s (run): {point.deliveries_per_s:,.0f}")
        print(f"peak RSS          : {point.peak_rss_kb / 1024.0:.0f} MiB")
        print(f"series sha256     : {point.series_sha256}")
        if point.checkpoints:
            print(f"checkpoints       : {point.checkpoints}"
                  f" ({point.checkpoint_write_s:.2f}s total,"
                  f" {point.checkpoint_mb:.1f} MB latest)")
        if args.profile and profiling.ACTIVE is not None:
            print()
            print(profiling.disable().format_table())
    elif args.command == "fuzz":
        from repro.experiments.fuzz import FuzzSpec, run_fuzz
        from repro.experiments.fuzz import format_report as format_fuzz_report

        if args.smoke:
            spec = FuzzSpec.smoke(seed=args.seed, out_dir=args.out)
        else:
            spec = FuzzSpec(
                seed=args.seed,
                budget=args.budget,
                duration_ms=args.minutes * 60_000.0,
                rate_per_min=args.rate,
                out_dir=args.out,
            )
        report = run_fuzz(spec)
        print(format_fuzz_report(report))
        if not report.ok:
            # repro-lint: ignore[RL001] -- CLI elapsed footer, decision-neutral
            print(f"\n[{time.perf_counter() - start:.1f}s]", file=sys.stderr)
            return 1
    else:  # pragma: no cover - argparse enforces choices
        raise SystemExit(2)

    # repro-lint: ignore[RL001] -- CLI elapsed footer, decision-neutral
    print(f"\n[{time.perf_counter() - start:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
