"""``repro lint``: the determinism & fork-safety static analyzer.

Every performance tier this reproduction has shipped — vector matcher,
fused engine, sweep workers, checkpoint/restore — rests on one
discipline: *byte-identical decisions across backends*.  That discipline
decomposes into a handful of concrete, mechanically checkable rules (no
wall-clock in sim paths, no global RNG, no unordered iteration feeding
scheduling, no closures in DES events, picklable fork-boundary state,
left-fold float accounting).  The differential tests catch violations
*after* they ship; this package catches them at the AST.

Public API (pytest-importable)::

    from repro.lint import lint_paths, DEFAULT_CONFIG
    report = lint_paths(["src/repro"])
    assert not report.findings

CLI::

    python -m repro lint src/           # text reporter, exit 1 on findings
    python -m repro lint --format json src/

Suppress a deliberate exception on its own line (or the line above)::

    t0 = perf_counter()  # repro-lint: ignore[RL001] -- decision-neutral timing

Rules are registered in :mod:`repro.lint.rules`; each encodes one
invariant the codebase already relies on (see ``README.md`` §"Static
analysis" for the catalogue).
"""

from __future__ import annotations

from repro.lint.config import DEFAULT_CONFIG, LintConfig, RuleScope
from repro.lint.diagnostics import Finding
from repro.lint.engine import LintReport, lint_file, lint_paths
from repro.lint.registry import RULES, Rule, all_rules

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "LintReport",
    "RULES",
    "Rule",
    "RuleScope",
    "all_rules",
    "lint_file",
    "lint_paths",
]
