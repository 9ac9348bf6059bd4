"""graph-nls benchmark: runs one workload through the real CLI and checks it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each subcommand is a fresh
``python -m graph_nls.cli`` process, one at a time (a closed loop with one
client), so the program has the machine's CPUs and its own threads to
itself.  A pass runs the workload's subcommands once; passes repeat until
``--seconds`` have elapsed, and every timing reported is a median over
passes.  The last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
With ``--trace 1`` each pass runs untraced and then traced, which gives the
tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GRAPH_NLS_THREADS")
SETUP_SAMPLES = 7
# every process is killed past this many seconds from the start of the run,
# which keeps a run under the three minutes it is allowed
RUN_LIMIT_S = 170.0
WORK_DIR = ".bench_work"


@dataclass
class Step:
    """One subcommand of a workload pass.

    ``config`` is a path, a callable that writes the config from the output
    directories of earlier steps in the pass and returns its path, or None.
    """

    command: str
    config: str | Callable | None
    tol: float | None = None


class Workload:
    """Writes a workload's inputs and lists the subcommands of one pass."""

    def __init__(self, name: str, root: str, work: str, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.configs = {}  # config file name -> sha256
        self._chained = None
        self.steps = getattr(self, "_" + name)()

    def _write(self, file_name: str, data) -> str:
        path = os.path.join(self.work, file_name)
        self.configs[file_name] = inputs.write_config(path, data)
        return path

    def _pinned(self, file_name: str) -> str:
        path = os.path.join(self.root, "configs", file_name)
        self.configs[file_name] = inputs.sha256_file(path)
        return path

    def _small_graphs(self):
        lattice = self._pinned("harmonic_lattice.json")
        with open(lattice) as f:
            tol = float(json.load(f).get("tol", 1e-10))
        return [
            Step("simulate", self._pinned("two_point.json")),
            Step("ground-state", lattice, tol),
            Step("stability", self._write("gpe_two_node.json", inputs.GPE_TWO_NODE)),
            Step("verify", None),
        ]

    def _torus_dynamics(self):
        return [Step("simulate", self._write("torus_simulate.json",
                                             inputs.torus_simulate_config(self.seed)))]

    def _torus_stationary(self):
        gs = self._write("torus_ground_state.json", inputs.torus_ground_state_config(self.seed))
        return [
            Step("ground-state", gs, inputs.GROUND_STATE_TOL),
            Step("stability", self._stability_from_ground_state),
        ]

    def _stability_from_ground_state(self, outs: dict) -> str:
        # written once, from the first pass's ground state; later passes
        # compute the same state and reuse the file
        if self._chained is None:
            with open(os.path.join(outs["ground-state"], "ground_state.json")) as f:
                results = json.load(f)["results"]
            (h1,) = [r for r in results if r["h"] == 1.0]
            self._chained = self._write(
                "torus_stability.json", inputs.torus_stability_config(self.seed, h1)
            )
        return self._chained


WORKLOADS = ("small_graphs", "torus_dynamics", "torus_stationary")


class Runner:
    def __init__(self, root: str, work: str, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def process(self, args, log_path):
        """Run one child to completion: (wall seconds, peak RSS in KiB, exit code)."""
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT, env=self.env, cwd=self.root)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage, not the running max
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss, proc.returncode

    def import_check(self) -> str:
        """Path of the graph_nls package a child imports."""
        out = subprocess.run(
            [sys.executable, "-c", "import graph_nls; print(graph_nls.__file__)"],
            env=self.env, cwd=self.root, capture_output=True, text=True, timeout=60,
        )
        return out.stdout.strip() if out.returncode == 0 else ""

    def setup_time(self) -> float:
        wall, _, code = self.process([sys.executable, "-c", "import graph_nls"],
                                     os.path.join(self.work, "setup.log"))
        if code != 0:
            raise RuntimeError(f"import graph_nls exited with {code}")
        return wall

    def run_pass(self, workload: Workload, label: str, traced: bool) -> list:
        records, outs = [], {}
        for i, step in enumerate(workload.steps):
            out = os.path.join(self.work, f"{label}-{i}-{step.command}")
            rec = {"command": step.command, "wall_s": None, "rss_kb": 0, "problems": [],
                   "halvings": 0, "iterations": 0, "bytes": 0, "spans": None}
            records.append(rec)
            try:
                config = step.config(outs) if callable(step.config) else step.config
            except (OSError, ValueError, KeyError, TypeError) as exc:
                rec["problems"].append(f"cannot build config: {exc!r}")
                continue
            cli = [step.command, "--out", out] + (["--config", config] if config else [])
            if traced:
                rec["spans"] = out + ".spans.npz"
                args = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"),
                        rec["spans"], str(i), "--"] + cli
            else:
                args = [sys.executable, "-m", "graph_nls.cli"] + cli
            rec["wall_s"], rec["rss_kb"], code = self.process(args, out + ".log")
            if code != 0:
                rec["problems"].append(f"exit code {code}")
            rec["problems"] += checks.check_artifacts(step.command, out, step.tol)
            _read_counts(rec, out)
            outs[step.command] = out
            if rec["problems"]:
                with open(out + ".log", errors="replace") as f:
                    tail = f.read()[-2000:]
                print(f"FAILED {step.command}: {rec['problems']}\n{tail}", file=sys.stderr)
        return records


def _read_counts(rec: dict, out: str) -> None:
    """Artifact-derived counts: bytes written, halvings, solver iterations."""
    if os.path.isdir(out):
        rec["bytes"] = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
    try:
        if rec["command"] == "simulate":
            with open(os.path.join(out, "summary.json")) as f:
                rec["halvings"] = int(json.load(f)["halvings"])
        elif rec["command"] == "ground-state":
            with open(os.path.join(out, "ground_state.json")) as f:
                rec["iterations"] = sum(int(r["iterations"]) for r in json.load(f)["results"])
    except (OSError, ValueError, KeyError, TypeError):
        pass  # the artifact check has already reported it


def _pass_wall(records) -> float:
    return sum(r["wall_s"] or 0.0 for r in records)


def _git_commit(root: str):
    """HEAD of the checkout, or None where it is not a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(args, root: str, workload: Workload) -> dict:
    import numpy as np

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": np.show_config(mode="dicts").get("Build Dependencies"),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(root),
        "configs_sha256": workload.configs,
    }


def _median_by_command(passes) -> dict:
    by = {}
    for records in passes:
        totals = {}
        for r in records:
            totals[r["command"]] = totals.get(r["command"], 0.0) + (r["wall_s"] or 0.0)
        for command, wall in totals.items():
            by.setdefault(command, []).append(wall)
    return {c: statistics.median(v) for c, v in by.items()}


def end_to_end(passes, setup_samples) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "workload_s": {"value": statistics.median(_pass_wall(p) for p in passes), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(max(r["rss_kb"] for r in p) / 1024.0 for p in passes),
            "unit": "MB",
        },
    }


def per_layer(untraced, traced, attempted, failed) -> dict:
    import numpy as np

    per_pass = []
    for records in traced:
        tables = []
        for r in records:
            if r["spans"] and os.path.isfile(r["spans"]):
                with np.load(r["spans"]) as npz:
                    tables.append(layers.span_table(npz))
        extra = {
            "io.bytes_written": sum(r["bytes"] for r in records),
            "dynamics.halvings": sum(r["halvings"] for r in records),
            "ground_state.iterations": sum(r["iterations"] for r in records),
        }
        per_pass.append(layers.layer_metrics(layers.aggregate(tables), extra))
    values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    walls = _median_by_command(untraced)
    for command, name in layers.SUBCOMMAND_METRICS.items():
        values[name] = walls.get(command, 0.0)
    values["ops_failed"] = failed / attempted
    base = statistics.median(_pass_wall(p) for p in untraced)
    values["trace.overhead_pct"] = 100.0 * (statistics.median(_pass_wall(p) for p in traced) - base) / base
    units = {spec["name"]: spec["unit"] for spec in layers.metric_specs()}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "graph_nls", "cli.py")):
        print("bench: run from the root of a graph-nls checkout (src/graph_nls missing)",
              file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _measure(args, root, work, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, root, work, start) -> int:
    runner = Runner(root, work, start + RUN_LIMIT_S)
    imported = runner.import_check()
    if not imported.startswith(os.path.join(root, "src") + os.sep):
        print(f"bench: graph_nls does not import from this checkout ({imported!r})",
              file=sys.stderr)
        return 2
    workload = Workload(args.workload, root, work, args.seed)

    # set-up is sampled before and after the passes, so that the median is
    # taken over more than one stretch of the machine's varying speed
    setup_samples = []
    if not args.trace:
        setup_samples = [runner.setup_time() for _ in range(SETUP_SAMPLES // 2 + 1)]

    untraced, traced = [], []
    begin = time.monotonic()
    # at least one pass; another only if one more is expected to end in time
    while True:
        k = len(untraced)
        untraced.append(runner.run_pass(workload, f"p{k}", traced=False))
        if args.trace:
            traced.append(runner.run_pass(workload, f"p{k}t", traced=True))
        now = time.monotonic()
        next_end = now + (now - begin) / len(untraced)
        if next_end > begin + args.seconds or next_end > runner.deadline:
            break

    if not args.trace:
        setup_samples += [runner.setup_time() for _ in range(SETUP_SAMPLES - len(setup_samples))]

    records = [r for p in untraced + traced for r in p]
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    if args.trace:
        metrics = per_layer(untraced, traced, attempted, failed)
    else:
        metrics = end_to_end(untraced, setup_samples)
        # per-layer metrics in the traced run; printed here for the reader
        for name, wall in _median_by_command(untraced).items():
            print(f"{layers.SUBCOMMAND_METRICS[name]:<16} {wall} s")
    for name, m in metrics.items():
        print(f"{name:<16} {m['value']} {m['unit']}")
    print(f"{'ops_failed':<16} {failed}/{attempted}")
    print(f"{'passes_s':<16} {[round(_pass_wall(p), 4) for p in untraced]}")
    run_manifest = manifest(args, root, workload)
    print("manifest " + json.dumps(run_manifest, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results_dir = os.path.join(root, WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"manifest": run_manifest, **result}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
