"""Traced CLI child: wraps graph_nls functions in spans, runs one subcommand.

Usage: python bench/tracer.py SPANS_FILE SUBCOMMAND_ID -- <graph-nls arguments>

Each wrapped function is replaced in every graph_nls namespace that holds it,
so calls made through any module's globals are recorded.  ``numpy.linalg``
calls are wrapped only where the named module looks them up, through a copy
of its ``np`` module.  Spans (name, start, end, parent, raised) stay in
per-thread buffers and are written to SPANS_FILE as one ``.npz`` when the
subcommand returns; the wrappers are then restored.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import types
from array import array

# (span name, module, attribute): functions replaced in every graph_nls
# namespace that binds them
FUNCTIONS = (
    ("cli.main", "graph_nls.cli", "main"),
    ("cli.load_config", "graph_nls.cli", "load_config"),
    ("io.write_json", "graph_nls.io", "write_json"),
    ("io.write_trajectory_csv", "graph_nls.io", "write_trajectory_csv"),
    ("graph.build_graph", "graph_nls.graph", "build_graph"),
    ("energy.fisher_gradient", "graph_nls.energy", "fisher_gradient"),
    ("energy.fisher_hessian", "graph_nls.energy", "fisher_hessian"),
    ("energy.hamiltonian", "graph_nls.energy", "hamiltonian"),
    ("transport.weighted_laplacian", "graph_nls.transport", "weighted_laplacian"),
    ("transport.hodge_decompose", "graph_nls.transport", "hodge_decompose"),
    ("dynamics.step", "graph_nls.dynamics", "step"),
    ("dynamics.rhs", "graph_nls.dynamics", "rhs"),
    ("dynamics.rhs_jacobian", "graph_nls.dynamics", "rhs_jacobian"),
    ("ground_state.solve_ground_state", "graph_nls.ground_state", "solve_ground_state"),
    ("ground_state.mirror_phase", "graph_nls.ground_state", "_mirror_phase"),
    ("ground_state.newton_phase", "graph_nls.ground_state", "_newton_phase"),
    ("ground_state.ground_energy", "graph_nls.ground_state", "ground_energy"),
    ("ground_state.ground_gradient", "graph_nls.ground_state", "ground_gradient"),
    ("ground_state.eigen_residual", "graph_nls.ground_state", "eigen_residual"),
    ("stability.hamiltonian_matrix", "graph_nls.stability", "hamiltonian_matrix"),
    ("stability.spectrum", "graph_nls.stability", "spectrum"),
    ("stability.gpe_spectrum_closed_form", "graph_nls.stability", "gpe_spectrum_closed_form"),
    ("stability.spectrum_mismatch", "graph_nls.stability", "spectrum_mismatch"),
)

# (span name, module whose ``np`` global is replaced, numpy.linalg attribute)
LINALG = (
    ("dynamics.newton_solve", "graph_nls.dynamics", "solve"),
    ("ground_state.newton_solve", "graph_nls.ground_state", "solve"),
    ("ground_state.convexity_check", "graph_nls.ground_state", "eigvalsh"),
)


def span_names(suites) -> list:
    """Every span name, in the index order used in the spans file."""
    return (
        [name for name, _, _ in FUNCTIONS]
        + [name for name, _, _ in LINALG]
        + [f"verify.{suite}" for suite in suites]
    )


class Recorder:
    """Span buffers, one per thread, merged when the run ends.

    A span's parent is the innermost open span of its own thread; the first
    span of a worker thread takes the innermost open span of the main thread,
    which is where the work was submitted and is waited for.
    """

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers = []
        self._main_stack = self._thread_state()[0]

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.columns
        except AttributeError:
            local.stack = []
            local.columns = tuple(array(code) for code in "qiddqb")
            self._buffers.append(local.columns)
            return local.stack, local.columns

    def wrap(self, name_index: int, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, (ids, names, starts, ends, parents, raised) = self._thread_state()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = -1
            span_id = next(self._ids)
            stack.append(span_id)
            failed = 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                ids.append(span_id)
                names.append(name_index)
                starts.append(start)
                ends.append(end)
                parents.append(parent)
                raised.append(failed)

        return traced

    def columns(self):
        import numpy as np

        merged = [np.concatenate([np.frombuffer(b[k], dtype=b[k].typecode) for b in self._buffers])
                  for k in range(6)]
        order = np.argsort(merged[0], kind="stable")
        keys = ("id", "name", "start", "end", "parent", "raised")
        return {key: column[order] for key, column in zip(keys, merged)}


def _numpy_with_linalg(np, overrides: dict):
    """A copy of the numpy module whose ``linalg`` has ``overrides`` applied."""
    linalg = types.ModuleType(np.linalg.__name__)
    linalg.__dict__.update(np.linalg.__dict__)
    linalg.__dict__.update(overrides)
    module = types.ModuleType(np.__name__)
    module.__dict__.update(np.__dict__)
    module.linalg = linalg
    return module


def install(recorder: Recorder):
    """Install every wrapper; return the (namespace, key, original) list."""
    import numpy as np

    import graph_nls.cli  # noqa: F401  (with the package, every submodule)

    verify = sys.modules["graph_nls.verify"]
    names = span_names(verify.SUITES)
    index = {name: i for i, name in enumerate(names)}
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "graph_nls" or key.startswith("graph_nls.")]
    saved = []

    def replace(namespace: dict, key, value):
        saved.append((namespace, key, namespace[key]))
        namespace[key] = value

    for name, module, attr in FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        wrapper = recorder.wrap(index[name], original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    replace(vars(m), key, wrapper)

    by_module = {}
    for name, module, attr in LINALG:
        wrapper = recorder.wrap(index[name], getattr(np.linalg, attr))
        by_module.setdefault(module, {})[attr] = wrapper
    for module, overrides in by_module.items():
        replace(vars(sys.modules[module]), "np", _numpy_with_linalg(np, overrides))

    for suite, check in list(verify.SUITES.items()):
        replace(verify.SUITES, suite, recorder.wrap(index[f"verify.{suite}"], check))
    return names, saved


def restore(saved) -> None:
    for namespace, key, original in reversed(saved):
        namespace[key] = original


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    spans_file, subcommand_id, cli_args = argv[0], int(argv[1]), argv[3:]
    import numpy as np

    recorder = Recorder()
    names, saved = install(recorder)
    try:
        code = sys.modules["graph_nls.cli"].main(cli_args)
    finally:
        restore(saved)
        np.savez(spans_file, names=np.array(names), subcommand=subcommand_id,
                 **recorder.columns())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
