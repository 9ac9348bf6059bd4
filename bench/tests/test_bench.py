"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402


# --- seeded inputs -------------------------------------------------------

def _torus_files(tmp_path, seed):
    out = {}
    for name, data in (
        ("sim.json", inputs.torus_simulate_config(seed)),
        ("gs.json", inputs.torus_ground_state_config(seed)),
        ("stab.json", inputs.torus_stability_config(seed, {"h": 1.0, "rho_g": [0.5, 0.5]})),
    ):
        path = tmp_path / f"{seed}-{name}"
        sha = inputs.write_config(str(path), data)
        out[name] = (path.read_bytes(), sha)
    return out


def test_same_seed_writes_identical_bytes(tmp_path):
    assert _torus_files(tmp_path, 7) == _torus_files(tmp_path, 7)


def test_other_seed_changes_every_torus_input(tmp_path):
    a, b = _torus_files(tmp_path, 7), _torus_files(tmp_path, 8)
    for name in a:
        assert a[name][0] != b[name][0], name
    sim_a = inputs.torus_simulate_config(7)["initial"]
    sim_b = inputs.torus_simulate_config(8)["initial"]
    assert sim_a["rho"] != sim_b["rho"] and sim_a["S"] != sim_b["S"]


def test_torus_inputs_are_valid_states():
    n = inputs.TORUS_DIMS[0] * inputs.TORUS_DIMS[1]
    initial = inputs.torus_simulate_config(3)["initial"]
    assert len(initial["rho"]) == len(initial["S"]) == n
    assert min(initial["rho"]) > 0 and math.isclose(sum(initial["rho"]), 1.0, abs_tol=1e-12)
    V = inputs.torus_trap(3)
    assert len(V) == n and all(math.isfinite(v) for v in V)


def test_sha256_matches_written_file(tmp_path):
    path = tmp_path / "c.json"
    sha = inputs.write_config(str(path), inputs.GPE_TWO_NODE)
    assert sha == inputs.sha256_file(str(path))


# --- self-time arithmetic ------------------------------------------------

def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert layers.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    # two worker-thread children overlap on [3, 5]: they cover [2, 7]
    start = [0.0, 2.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 9.0]
    parent = [-1, 0, 0, 0]
    assert layers.self_times(start, end, parent) == pytest.approx([4.0, 3.0, 4.0, 1.0])


def test_self_time_clips_children_to_parent_and_keeps_groups_apart():
    # child of span 1 leaks past its parent's end; span 2 is a second root
    start = [0.0, 1.0, 20.0, 21.0, 1.5]
    end = [10.0, 2.0, 30.0, 22.0, 2.5]
    parent = [-1, 0, -1, 2, 1]
    assert layers.self_times(start, end, parent) == pytest.approx([9.0, 0.5, 9.0, 1.0, 1.0])


def test_under_follows_the_whole_ancestor_chain():
    names = np.array([0, 1, 2, 2])
    parent_row = np.array([-1, 0, 1, -1])
    assert layers._under(np.array([2, 3]), 0, names, parent_row).tolist() == [True, False]


def test_percentile_needs_ten_samples_beyond_it():
    assert layers.percentile(list(range(20)), 50) == pytest.approx(9.5)
    assert layers.percentile(list(range(19)), 50) == 0.0
    assert layers.percentile(list(range(999)), 99) == 0.0
    assert layers.percentile(list(range(1000)), 99) > 0.0


# --- output checks -------------------------------------------------------

GOOD_SUMMARY = {"max_mass_error": 1e-15, "max_energy_drift": 1e-10, "halvings": 0, "error": None}


def test_good_artifacts_pass():
    assert checks.check_summary(GOOD_SUMMARY) == []
    gs = {"results": [{"h": 1.0, "kkt_residual": 1e-12, "eigen_residual": 1e-14}]}
    assert checks.check_ground_states(gs, 1e-10) == []
    assert checks.check_spectrum({"classification": "spectrally_stable",
                                  "closed_form": {"max_mismatch": 1e-15}}) == []
    assert checks.check_verify({"passed": True, "checks": []}) == []


def test_integrator_error_is_flagged():
    assert checks.check_summary({**GOOD_SUMMARY, "error": "NewtonDivergence: residual"})


def test_nan_drift_is_flagged_from_the_written_file(tmp_path):
    (tmp_path / "trajectory.csv").write_text("t\n0\n")
    # json.dumps writes NaN as a bare token, as the program would
    (tmp_path / "summary.json").write_text(json.dumps({**GOOD_SUMMARY, "max_energy_drift": math.nan}))
    problems = checks.check_artifacts("simulate", str(tmp_path))
    assert problems and "max_energy_drift" in problems[0]


def test_wrong_classification_is_flagged():
    assert checks.check_spectrum({"classification": "unstable"})
    assert checks.check_spectrum({"classification": "spectrally_stable",
                                  "closed_form": {"max_mismatch": 1e-3}})


def test_ground_state_residuals_are_flagged():
    entry = {"h": 1.0, "kkt_residual": math.nan, "eigen_residual": 1e-6}
    assert len(checks.check_ground_states({"results": [entry]}, 1e-10)) == 2
    assert checks.check_ground_states({"results": []}, 1e-10)


def test_missing_artifact_is_flagged(tmp_path):
    assert checks.check_artifacts("verify", str(tmp_path))


# --- the declared metrics -----------------------------------------------

def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    assert declared["per_layer"] == layers.metric_specs()


def test_verify_suites_match_the_program():
    pytest.importorskip("graph_nls")
    from graph_nls.verify import SUITES

    assert tuple(SUITES) == layers.VERIFY_SUITES


def test_tracer_wraps_and_restores(tmp_path):
    pytest.importorskip("graph_nls")
    import graph_nls.cli  # noqa: F401
    from graph_nls import dynamics, energy, verify

    G = graph_nls.build_graph(2, [(0, 1, 1.0)])
    spec = graph_nls.PotentialSpec.free(2)
    state = dynamics.SystemState(np.array([0.4, 0.6]), np.zeros(2))
    original = energy.fisher_gradient
    recorder = tracer.Recorder()
    names, saved = tracer.install(recorder)
    try:
        assert dynamics.fisher_gradient is not original
        assert dynamics.np.linalg.solve is not np.linalg.solve
        dynamics.rhs(G, spec, state)
    finally:
        tracer.restore(saved)
    assert energy.fisher_gradient is original and dynamics.fisher_gradient is original
    assert dynamics.np is np and "conservation" in verify.SUITES
    assert verify.SUITES["conservation"] is verify.check_conservation
    cols = recorder.columns()
    labels = [names[i] for i in cols["name"]]
    # rows are in order of entry; the gradient ran inside rhs
    assert labels == ["dynamics.rhs", "energy.fisher_gradient"]
    assert cols["parent"].tolist() == [-1, cols["id"][0]]
