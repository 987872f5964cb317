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
    # dependency; scipy and numba are lazy extras, and anything else is a
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
