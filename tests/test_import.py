import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_import_does_not_load_scipy():
    # the runtime dependency is numpy alone; an eager scipy import roughly
    # doubles the package's import time and peak memory.  The process pool
    # modules are for verify's run_suites alone, which imports them itself
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    modules = ["scipy", "multiprocessing", "concurrent.futures"]
    out = subprocess.run(
        [sys.executable, "-c",
         f"import graph_nls.cli, sys; print([m for m in {modules} if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
