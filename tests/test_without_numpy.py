"""The package without NumPy: the reference engine runs, ``dense`` refuses.

NumPy is only needed by ``engine="dense"``.  This test proves it in a
fresh interpreter where every ``import numpy`` fails, so no module of
the package can have loaded NumPy before the check.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import repro
from repro.align import Aligner, method_names
from repro.io import ntriples

#: Runs in the child: aligns with every registered method on the
#: reference engine, then tries the three ways into the dense engine.
SCRIPT = r"""
import contextlib, io, json, sys

sys.modules["numpy"] = None  # every `import numpy` now raises ImportError

from repro.align import AlignConfig, Aligner, method_names
from repro.cli import main
from repro.core.ksignature import ksignature_partition
from repro.exceptions import ConfigError
from repro.io import load_graph

source, target = sys.argv[1:3]
out = {
    "reports": {
        method: Aligner(method=method).report(source, target).to_json()
        for method in method_names()
    },
    "errors": {},
}
for name, call in (
    ("AlignConfig", lambda: AlignConfig(engine="dense")),
    ("ksignature", lambda: ksignature_partition(load_graph(source), engine="dense")),
):
    try:
        call()
    except ConfigError as error:
        out["errors"][name] = str(error)
stderr = io.StringIO()
with contextlib.redirect_stderr(stderr):
    out["cli_exit"] = main(["align", source, target, "--engine", "dense"])
out["cli_stderr"] = stderr.getvalue()
out["numpy_blocked"] = sys.modules["numpy"] is None
print(json.dumps(out))
"""


def test_reference_runs_and_dense_refuses_without_numpy(tmp_path, figure1_graphs):
    paths = [str(tmp_path / "v1.nt"), str(tmp_path / "v2.nt")]
    for graph, path in zip(figure1_graphs, paths):
        ntriples.dump_path(graph, path)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", SCRIPT, *paths],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    out = json.loads(child.stdout)
    assert out["numpy_blocked"]

    # Every registered method, same report bytes as with NumPy loaded.
    assert out["reports"] == {
        method: Aligner(method=method).report(*paths).to_json()
        for method in method_names()
    }
    # Each way into the dense engine is a typed error naming NumPy.
    assert set(out["errors"]) == {"AlignConfig", "ksignature"}
    assert all("NumPy" in message for message in out["errors"].values())
    assert out["cli_exit"] == 1
    assert "NumPy" in out["cli_stderr"]
