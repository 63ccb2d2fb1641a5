"""Import cost: ``import repro`` loads only what the package needs."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_import_repro_loads_no_graph_library():
    # The DepGraph trace keeps its graph in plain dicts; a graph library
    # would cost every process (CLI, serve replicas) its import time.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, repro, repro.baselines\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'networkx'))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120,
                            check=True)
    assert result.stdout.strip() == "[]"
