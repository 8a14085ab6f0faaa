"""Every script under ``examples/`` runs to completion with its defaults.

Each example runs in a fresh interpreter with ``PYTHONPATH=src`` and a
temporary working directory (``archive_roundtrip.py`` writes ``./archive``),
so a broken public entry point fails here rather than in a reader's hands.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    # paper_walkthrough.py is the one caller of refinement_trace outside tests.
    assert "paper_walkthrough.py" in [path.name for path in EXAMPLES]


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
