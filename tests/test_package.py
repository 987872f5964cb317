"""Package-level contracts: what ``import repro`` costs and declares."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


BENCH_CHILD_IMPORTS = (
    "repro.sim.runner",
    "repro.analysis.latency",
    "repro.analysis.revenue",
    "repro.analysis.timeseries",
    "repro.experiments.scale",
)


def test_import_repro_loads_no_third_party_package_but_numpy():
    # Every process pays for what the package root imports: per benchmark
    # cycle, per CLI call, per sweep worker.  numpy is the one declared
    # dependency; scipy is a test-only extra, and anything else is a
    # planted cost.  Checked after ``import repro`` and again after the
    # benchmark child's import set, by counting modules loaded from disk —
    # not by timing.
    code = (
        "import importlib, sys\n"
        "at_startup = set(sys.modules)\n"
        "def third_party():\n"
        "    return sorted({\n"
        "        name.split('.')[0] for name, module in sys.modules.items()\n"
        "        if name not in at_startup and getattr(module, '__file__', None)\n"
        "    } - set(sys.stdlib_module_names) - {'repro'})\n"
        "import repro\n"
        "assert third_party() == ['numpy'], third_party()\n"
        f"for name in {BENCH_CHILD_IMPORTS!r}:\n"
        "    importlib.import_module(name)\n"
        "assert third_party() == ['numpy'], third_party()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_version_matches_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text()
    (declared,) = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.MULTILINE)
    assert repro.__version__ == declared


def test_a_cycle_imports_nothing_lazily():
    # Build -> run -> checkpoint -> resume -> report on a tiny spilled SSD
    # run loads no module the entry points did not: a lazy import inside
    # the cycle (the process pool behind a fingerprint, ``numpy.ma``
    # behind a plain ``np.unique``) is a cost every benchmark cycle pays
    # and no phase names.  Codec modules are exempt: zipfile looks up
    # ``cp437`` when a spilled chunk is read back.
    code = (
        "import sys, tempfile\n"
        "from pathlib import Path\n"
        "from repro.analysis import latency, revenue, timeseries\n"
        "from repro.core import checkpoint\n"
        "from repro.sim import runner\n"
        "from repro.sim.config import SimulationConfig\n"
        "from repro.workload.scenarios import Scenario\n"
        "loaded = set(sys.modules)\n"
        "config = SimulationConfig(seed=1, scenario=Scenario.SSD, duration_ms=60_000.0,\n"
        "                          grace_ms=30_000.0, log_spill=True, log_chunk_rows=512)\n"
        "system = runner.build_system(config)\n"
        "runner.schedule_workload(system, config)\n"
        "system.run(until=30_000.0)\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    snapshot, _, _ = runner.save_run_checkpoint(system, config, Path(tmp))\n"
        "    del system\n"
        "    system, config, _ = runner.resume_run(snapshot, config=config)\n"
        "    runner.run_to_horizon(system, config, None)\n"
        "    timeseries.windowed_metrics(system, 10_000.0, config.horizon_ms)\n"
        "    revenue.revenue_by_tier(system)\n"
        "    latency.latency_stats(list(system.subscribers.values()))\n"
        "assert system.delivery_log.spilled_chunks > 0\n"
        "gained = sorted(name for name in set(sys.modules) - loaded\n"
        "                if not name.startswith('encodings.'))\n"
        "assert not gained, gained\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
