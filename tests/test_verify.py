"""The verify suites: one shared battery run, and failed runs never pass."""

import multiprocessing
import time

import numpy as np
import pytest

from graph_nls import PotentialSpec, dynamics, fisher_information, hamiltonian, verify
from graph_nls.errors import NewtonDivergence
from conftest import random_connected_graph, random_interior


def counter(monkeypatch, before_step):
    """Replace dynamics.step with a wrapper that counts its calls, in this
    process and in the worker processes that run_suites forks from it, and
    calls ``before_step(spec, state, calls)`` with the count so far."""
    real = dynamics.step
    calls = multiprocessing.Value("q", 0)

    def counted(G, spec, state, cfg, newton=None):
        with calls.get_lock():
            calls.value += 1
            n = calls.value
        before_step(spec, state, n)
        return real(G, spec, state, cfg, newton)

    monkeypatch.setattr(dynamics, "step", counted)
    return calls


def count_steps(monkeypatch):
    """The shared count of dynamics.step calls; reset it with ``.value = 0``."""
    return counter(monkeypatch, lambda spec, state, calls: None)


def fail_steps(monkeypatch, when):
    """Make every step for which ``when(spec, state, calls)`` holds raise
    NewtonDivergence; ``calls`` counts the steps tried so far."""

    def fail(spec, state, calls):
        if when(spec, state, calls):
            raise NewtonDivergence("injected")

    counter(monkeypatch, fail)


@pytest.mark.parametrize("seed", [0, 3])
def test_run_suites_reports_what_each_suite_reports_alone(seed, monkeypatch):
    steps = count_steps(monkeypatch)
    report = verify.run_suites(seed=seed)
    # each of the four battery suites integrating its own run took 54,600
    assert steps.value == 39_600
    alone = [check(seed=seed) for check in verify.SUITES.values()]
    assert report == {"passed": all(c["passed"] for c in alone), "checks": alone}
    assert report["passed"]


def test_battery_runs_are_made_per_call_up_to_the_horizons_asked_for(monkeypatch):
    steps = count_steps(monkeypatch)
    # one run to t = 2 serves both, plus gauge's shifted run to t = 1
    # (12,000 when each integrated its own)
    verify.run_suites(["gauge", "boundary_repulsion"])
    assert steps.value == 9_000
    steps.value = 0
    # alone, a suite integrates its own horizon, not the longest one
    verify.check_boundary_repulsion()
    assert steps.value == 6_000
    # nothing is kept from one call to the next
    for _ in range(2):
        steps.value = 0
        verify.run_suites(["gauge"])
        assert steps.value == 6_000


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


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_run_suites_leaves_no_process_running(where, monkeypatch):
    verify.run_suites(["euler_identity", "wave_residual"])
    assert multiprocessing.active_children() == []

    def broken(seed=0, runs=None):
        raise RuntimeError("broken suite")

    # hodge runs whole in a worker; gauge runs in the caller, its battery
    # and shifted runs still in flight in the workers when it raises
    name = {"worker": "hodge", "caller": "gauge"}[where]
    monkeypatch.setitem(verify.SUITES, name, broken)
    with pytest.raises(RuntimeError, match="broken suite"):
        verify.run_suites([name, "euler_identity"])
    assert multiprocessing.active_children() == []


def test_run_suites_stops_the_runs_no_suite_reads(monkeypatch):
    monkeypatch.setattr(verify.BatteryRun, "_integrate",
                        lambda self: (None, "two_node: forced failure"))
    # no shared counter here: a worker killed while holding its lock would
    # hang the next read
    monkeypatch.setattr(dynamics, "step", lambda *args: time.sleep(30))
    began = time.perf_counter()
    report = verify.run_suites(["conservation"])
    # the forward runs are in their first step when conservation fails
    assert time.perf_counter() - began < 10.0
    (check,) = report["checks"]
    assert check["passed"] is False and check["detail"] == "two_node: forced failure"
    assert multiprocessing.active_children() == []


def test_gradients_difference_each_energy_over_one_stack(monkeypatch):
    # each finite-difference gradient of H or of I evaluates its 2n perturbed
    # states in one call, on a (2n, n) stack
    def spy(name, rho_at):
        real, stacked = getattr(verify, name), []

        def wrapped(*args):
            G, rho = args[0], args[rho_at]
            stacked.append(np.shape(rho) == (2 * G.n, G.n))
            return real(*args)

        monkeypatch.setattr(verify, name, wrapped)
        return stacked

    energies, fishers = spy("hamiltonian", 2), spy("fisher_information", 1)
    assert verify.check_gradients(0, cases=5)["passed"]
    assert energies == [True] * 15 and fishers == [True] * 5


def test_differences_over_a_stack_are_those_of_each_state(rng):
    # the reference: one perturbed state at a time
    def each_state(f, x, step=1e-5):
        rows = []
        for j in range(len(x)):
            e = np.zeros_like(x)
            e[j] = step
            rows.append((f(x + e) - f(x - e)) / (2.0 * step))
        return np.array(rows)

    for _ in range(5):
        G = random_connected_graph(rng)
        n = G.n
        rho, S = random_interior(rng, n), rng.normal(0.0, 0.5, n)
        spec = PotentialSpec(rng.normal(0.0, 1.0, n), rng.uniform(0.0, 1.0, n), 0.7)
        Ss = np.tile(S, (2 * n, 1))
        for stacked, one in (
            (lambda rs: hamiltonian(G, spec, rs, Ss), lambda r: hamiltonian(G, spec, r, S)),
            (lambda rs: fisher_information(G, rs), lambda r: fisher_information(G, r)),
        ):
            ref = each_state(one, rho)
            diff = np.abs(verify._fd_gradient(stacked, rho) - ref).max()
            assert diff <= 1e-9 * max(1.0, np.abs(ref).max())
