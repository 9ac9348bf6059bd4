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


def test_package_api_is_the_modules_all():
    # each module's __all__ is the package API, each name bound to the
    # module's own object; the rest of the package namespace is submodules
    import types

    import graph_nls

    modules = ["errors", "graph", "energy", "transport", "dynamics", "ground_state",
               "stability", "verify"]
    exported = set()
    for name in modules:
        module = getattr(graph_nls, name)
        public = getattr(module, "__all__", None)
        if public is None:  # errors.py: its classes, which a wildcard import takes
            public = [key for key in vars(module) if not key.startswith("_")]
        for key in public:
            assert getattr(graph_nls, key) is getattr(module, key), (name, key)
        exported.update(public)
    rest = {key for key in vars(graph_nls) if not key.startswith("_")} - exported
    assert all(isinstance(getattr(graph_nls, key), types.ModuleType) for key in rest), rest
    assert isinstance(graph_nls.__version__, str)
