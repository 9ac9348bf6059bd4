"""Per-layer metrics from the spans of a traced run.

A span's self time is its duration minus the part of its interval that its
children cover.  Children from worker threads may overlap, so the covered
part is the length of the union of the children's intervals, clipped to the
parent's.
"""

from __future__ import annotations

import numpy as np

from tracer import FUNCTIONS, LINALG

VERIFY_SUITES = (
    "conservation",
    "reversibility",
    "gauge",
    "wave_residual",
    "normalization",
    "hodge",
    "gradients",
    "euler_identity",
    "boundary_repulsion",
)
SUBCOMMAND_METRICS = {
    "simulate": "simulate_s",
    "ground-state": "ground_state_s",
    "stability": "stability_s",
    "verify": "verify_s",
}
# a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


def _spec(name, unit, better):
    return {"name": name, "unit": unit, "better": better}


def metric_specs() -> list:
    """The per-layer metrics, in the order BENCHMARK.json lists them."""
    specs = []
    for name in [n for n, _, _ in FUNCTIONS] + [n for n, _, _ in LINALG]:
        specs.append(_spec(f"{name}.calls", "count", "lower"))
        specs.append(_spec(f"{name}.self_s", "s", "lower"))
    specs += [_spec(f"verify.{suite}.self_s", "s", "lower") for suite in VERIFY_SUITES]
    specs += [
        _spec("io.bytes_written", "B", "lower"),
        _spec("dynamics.steps", "count", "lower"),
        _spec("dynamics.step_ms.p50", "ms", "lower"),
        _spec("dynamics.step_ms.p99", "ms", "lower"),
        _spec("dynamics.newton_iters_per_step", "ratio", "lower"),
        _spec("dynamics.step_failures", "count", "lower"),
        _spec("dynamics.halvings", "count", "lower"),
        _spec("ground_state.iterations", "count", "lower"),
        _spec("ground_state.polish_iterations", "count", "lower"),
        _spec("ground_state.mirror_accept_ratio", "ratio", "higher"),
    ]
    specs += [_spec(m, "s", "lower") for m in SUBCOMMAND_METRICS.values()]
    specs += [_spec("ops_failed", "ratio", "lower"), _spec("trace.overhead_pct", "%", "lower")]
    return specs


def self_times(start, end, parent_row) -> np.ndarray:
    """Duration minus the union of the children's intervals, per span.

    ``parent_row`` is the row of each span's parent, or -1 for a root.
    """
    start = np.asarray(start, float)
    end = np.asarray(end, float)
    parent_row = np.asarray(parent_row, np.int64)
    if len(start) == 0:
        return np.zeros(0)
    origin = start.min()
    # integer nanoseconds keep the per-group offsets below exact
    s = np.round((start - origin) * 1e9).astype(np.int64)
    e = np.round((end - origin) * 1e9).astype(np.int64)
    covered = np.zeros(len(s), np.int64)
    child = np.flatnonzero(parent_row >= 0)
    if len(child):
        p = parent_row[child]
        cs = np.clip(s[child], s[p], e[p])
        ce = np.clip(e[child], cs, e[p])
        order = np.lexsort((cs, p))
        p, cs, ce = p[order], cs[order], ce[order]
        # offsetting each parent's group past every earlier group turns the
        # running maximum of interval ends into a per-group one
        group = np.concatenate([[0], np.cumsum(p[1:] != p[:-1])])
        offset = group * (int(e.max()) + 1)
        reach = np.maximum.accumulate(ce + offset)
        before = np.concatenate([[np.iinfo(np.int64).min], reach[:-1]])
        gain = np.maximum(ce + offset - np.maximum(cs + offset, before), 0)
        np.add.at(covered, p, gain)
    return (e - s - covered) / 1e9


def _under(rows, ancestor: int, names, parent_row) -> np.ndarray:
    """Mask of ``rows`` that have a span named ``ancestor`` above them."""
    found = np.zeros(len(rows), bool)
    cur = parent_row[rows]
    while (cur >= 0).any():
        live = cur >= 0
        found |= live & (names[np.where(live, cur, 0)] == ancestor)
        cur = np.where(live, parent_row[np.where(live, cur, 0)], -1)
    return found


def span_table(npz) -> dict:
    """Rows of one spans file, with parent ids turned into row numbers."""
    ids = npz["id"]
    row_of = np.full(int(ids.max()) + 1 if len(ids) else 0, -1, np.int64)
    row_of[ids] = np.arange(len(ids))
    parent = npz["parent"]
    parent_row = np.where(parent >= 0, row_of[np.maximum(parent, 0)], -1)
    return {
        "labels": [str(x) for x in npz["names"]],
        "name": npz["name"].astype(np.int64),
        "start": npz["start"],
        "end": npz["end"],
        "parent_row": parent_row,
        "raised": npz["raised"].astype(bool),
    }


def aggregate(tables) -> dict:
    """Counts and self times per span name, summed over spans files."""
    calls, self_s = {}, {}
    step_ms, step_failures = [], 0
    polish = accepted = energy_evals = 0
    for t in tables:
        labels, names, parent_row = t["labels"], t["name"], t["parent_row"]
        own = self_times(t["start"], t["end"], parent_row)
        idx = {label: i for i, label in enumerate(labels)}
        for label, i in idx.items():
            mask = names == i
            calls[label] = calls.get(label, 0) + int(mask.sum())
            self_s[label] = self_s.get(label, 0.0) + float(own[mask].sum())
        steps = names == idx["dynamics.step"]
        ok = steps & ~t["raised"]
        step_ms.extend(((t["end"] - t["start"])[ok] * 1e3).tolist())
        step_failures += int((steps & t["raised"]).sum())

        hess = np.flatnonzero(names == idx["energy.fisher_hessian"])
        polish += int(_under(hess, idx["ground_state.solve_ground_state"], names, parent_row).sum())
        mirror = idx["ground_state.mirror_phase"]
        grads = np.flatnonzero(names == idx["ground_state.ground_gradient"])
        energies = np.flatnonzero(names == idx["ground_state.ground_energy"])
        # each mirror phase evaluates one gradient up front, then one per
        # accepted step
        accepted += int(_under(grads, mirror, names, parent_row).sum()) - int((names == mirror).sum())
        energy_evals += int(_under(energies, mirror, names, parent_row).sum())
    return {
        "calls": calls,
        "self_s": self_s,
        "step_ms": step_ms,
        "step_failures": step_failures,
        "polish_iterations": polish,
        "mirror_accepted": accepted,
        "mirror_energy_evals": energy_evals,
    }


def percentile(samples, q: float) -> float:
    """The q-th percentile, or 0.0 with fewer than TAIL_SAMPLES beyond it."""
    if len(samples) * (1.0 - q / 100.0) < TAIL_SAMPLES:
        return 0.0
    return float(np.percentile(samples, q))


def layer_metrics(agg: dict, extra: dict) -> dict:
    """Every per-layer metric value, keyed by name.

    ``extra`` holds the values taken from artifacts and from the untraced
    runs: bytes written, halvings, solver iterations, per-subcommand wall
    times, the failed share of subcommands and the tracing overhead.
    """
    out = {}
    for name in [n for n, _, _ in FUNCTIONS] + [n for n, _, _ in LINALG]:
        out[f"{name}.calls"] = agg["calls"].get(name, 0)
        out[f"{name}.self_s"] = agg["self_s"].get(name, 0.0)
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}.self_s"] = agg["self_s"].get(f"verify.{suite}", 0.0)
    steps = len(agg["step_ms"])
    out["dynamics.steps"] = steps
    out["dynamics.step_ms.p50"] = percentile(agg["step_ms"], 50)
    out["dynamics.step_ms.p99"] = percentile(agg["step_ms"], 99)
    jac = agg["calls"].get("dynamics.rhs_jacobian", 0)
    out["dynamics.newton_iters_per_step"] = jac / steps if steps else 0.0
    out["dynamics.step_failures"] = agg["step_failures"]
    out["ground_state.polish_iterations"] = agg["polish_iterations"]
    evals = agg["mirror_energy_evals"]
    out["ground_state.mirror_accept_ratio"] = agg["mirror_accepted"] / evals if evals else 0.0
    out.update(extra)
    return out
