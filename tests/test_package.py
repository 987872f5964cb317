"""Package-level contracts: what ``import repro`` costs and declares."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_import_repro_does_not_import_scipy():
    # scipy is a test-extra dependency (one lazy import behind
    # ShiftedGamma.cdf): importing the package must neither pay for it
    # nor fail where it is absent.
    code = (
        "import sys, repro\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded[:5]\n"
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
