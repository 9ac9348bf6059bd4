"""The verify suites: one shared battery run, and failed runs never pass."""

import numpy as np
import pytest

from graph_nls import dynamics, verify
from graph_nls.errors import NewtonDivergence


def count_steps(monkeypatch):
    """Replace dynamics.step with a wrapper that counts its calls."""
    real = dynamics.step
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step", counted)
    return calls


def fail_steps(monkeypatch, when):
    """Make every step for which ``when(spec, state, calls)`` holds raise
    NewtonDivergence; ``calls`` counts the steps tried so far."""
    real = dynamics.step
    calls = []

    def failing(G, spec, state, cfg, newton=None):
        calls.append(None)
        if when(spec, state, len(calls)):
            raise NewtonDivergence("injected")
        return real(G, spec, state, cfg, newton)

    monkeypatch.setattr(dynamics, "step", failing)


@pytest.mark.parametrize("seed", [0, 3])
def test_run_suites_reports_what_each_suite_reports_alone(seed, monkeypatch):
    steps = count_steps(monkeypatch)
    report = verify.run_suites(seed=seed)
    # each of the four battery suites integrating its own run took 54,600
    assert len(steps) == 39_600
    alone = [check(seed=seed) for check in verify.SUITES.values()]
    assert report == {"passed": all(c["passed"] for c in alone), "checks": alone}
    assert report["passed"]


def test_battery_runs_are_made_per_call_up_to_the_horizons_asked_for(monkeypatch):
    steps = count_steps(monkeypatch)
    # one run to t = 2 serves both, plus gauge's shifted run to t = 1
    # (12,000 when each integrated its own)
    verify.run_suites(["gauge", "boundary_repulsion"])
    assert len(steps) == 9_000
    steps.clear()
    # alone, a suite integrates its own horizon, not the longest one
    verify.check_boundary_repulsion()
    assert len(steps) == 6_000
    # nothing is kept from one call to the next
    for _ in range(2):
        steps.clear()
        verify.run_suites(["gauge"])
        assert len(steps) == 6_000


def assert_failed(check, name):
    assert check["name"] == name
    assert check["passed"] is False
    assert check["worst"] == np.inf
    assert "NewtonDivergence: injected" in check["detail"]


BATTERY_SUITES = ["conservation", "reversibility", "gauge", "normalization",
                  "boundary_repulsion"]


def test_a_run_that_stops_early_fails_every_suite_that_reads_it(monkeypatch):
    fail_steps(monkeypatch, lambda spec, state, calls: state.t >= 0.05)
    for name in BATTERY_SUITES:
        assert_failed(verify.SUITES[name](), name)
    report = verify.run_suites(BATTERY_SUITES)
    assert report["passed"] is False
    for check, name in zip(report["checks"], BATTERY_SUITES):
        assert_failed(check, name)


def test_gauge_fails_when_only_the_shifted_run_stops(monkeypatch):
    # the battery potentials are zero, so only the shifted run has V > 0
    fail_steps(monkeypatch, lambda spec, state, calls: spec.V.max() > 0.0 and state.t >= 0.05)
    assert_failed(verify.check_gauge(), "gauge")


def test_reversibility_fails_when_only_the_backward_run_stops(monkeypatch):
    # the three forward runs to t = 2 take the first 6,000 steps
    fail_steps(monkeypatch, lambda spec, state, calls: calls > 6_050)
    assert_failed(verify.check_reversibility(), "reversibility")


def test_a_prefix_off_the_snapshot_grid_is_an_error(monkeypatch):
    failed = []

    def once(spec, state, calls):
        if state.t >= 0.1505 and not failed:
            failed.append(state.t)
            return True
        return False

    fail_steps(monkeypatch, once)
    run = verify.BatteryRun(0, 0.3)
    # after the halving the snapshots fall at 0.175, 0.225, ...
    runs, error = run.read(0.2)
    assert runs is None and "left no snapshot at t = 0.2" in error
    # the run always ends with a snapshot at its own horizon
    runs, error = run.read(0.3)
    assert error is None
    assert runs[0][4].times[-1] == pytest.approx(0.3)
    assert len(failed) == 1


def test_gauge_fails_with_the_halving_when_only_the_shifted_run_halves(monkeypatch):
    failed = []

    def once(spec, state, calls):
        if spec.V.max() > 0.0 and state.t >= 0.0305 and not failed:
            failed.append(state.t)
            return True
        return False

    fail_steps(monkeypatch, once)
    check = verify.check_gauge()
    # the halving leaves the shifted snapshots at other times than the
    # unshifted ones, so no snapshot pair can be compared
    assert len(failed) == 1
    assert check["passed"] is False and check["worst"] == np.inf
    assert check["detail"] == f"two_node: halvings [] unshifted, {[(failed[0], 5e-4)]} shifted"
