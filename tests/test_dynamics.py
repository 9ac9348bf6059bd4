import itertools

import numpy as np
import pytest

from graph_nls import (
    IncommensurateWaveNumber,
    IntegratorConfig,
    NewtonDivergence,
    PotentialSpec,
    StepLeftSimplex,
    SystemState,
    ZeroModulus,
    build_torus,
    from_wave,
    graph_laplacian_wave,
    hamiltonian,
    plane_wave_residual,
    rhs,
    rhs_jacobian,
    schrodinger_operator,
    simulate,
    step,
    to_wave,
)
from graph_nls import dynamics, verify
from conftest import two_node, random_connected_graph, random_interior


def fd_gradient(f, x, step_=1e-6):
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = step_
        g[j] = (f(x + e) - f(x - e)) / (2.0 * step_)
    return g


def random_spec(rng, n):
    A = rng.normal(0.0, 0.5, (n, n))
    return PotentialSpec(
        rng.normal(0.0, 1.0, n), (A + A.T) / 2.0, float(rng.uniform(0.3, 1.5))
    )


def test_rhs_two_node():
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    drho, dS = rhs(G, spec, SystemState(np.array([0.5, 0.5]), np.array([1.0, 0.0])))
    # density flows along +dH/dS (the sign that conserves H)
    assert np.allclose(drho, [0.5, -0.5])
    assert np.allclose(dS, [-0.25, -0.25])


def test_rhs_equilibrium():
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    drho, dS = rhs(G, spec, SystemState(np.array([0.5, 0.5]), np.array([3.0, 3.0])))
    assert np.all(drho == 0.0)
    assert np.allclose(dS, 0.0)


def test_rhs_is_symplectic_gradient(rng):
    # (drho, dS) = (+dH/dS, -dH/drho) against finite differences
    for _ in range(5):
        G = random_connected_graph(rng)
        spec = random_spec(rng, G.n)
        rho = random_interior(rng, G.n)
        S = rng.normal(0.0, 0.5, G.n)
        drho, dS = rhs(G, spec, SystemState(rho, S))
        gS = fd_gradient(lambda s: hamiltonian(G, spec, rho, s), S)
        grho = fd_gradient(lambda r: hamiltonian(G, spec, r, S), rho)
        scale = max(1.0, np.abs(grho).max())
        assert np.abs(drho - gS).max() / scale < 1e-6
        assert np.abs(dS + grho).max() / scale < 1e-6


def test_rhs_jacobian_matches_fd(rng):
    G = random_connected_graph(rng)
    spec = random_spec(rng, G.n)
    rho = random_interior(rng, G.n)
    S = rng.normal(0.0, 0.5, G.n)
    J = rhs_jacobian(G, spec, SystemState(rho, S))
    n = G.n
    z0 = np.concatenate([rho, S])

    def f(z):
        d = rhs(G, spec, SystemState(z[:n], z[n:]))
        return np.concatenate(d)

    scale = max(1.0, np.abs(J).max())
    for j in range(2 * n):
        e = np.zeros(2 * n)
        e[j] = 1e-6
        col = (f(z0 + e) - f(z0 - e)) / 2e-6
        assert np.abs(J[:, j] - col).max() / scale < 1e-5


def test_step_equilibrium_fixed_point():
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([0.5, 0.5]), np.array([0.0, 0.0]))
    cfg = IntegratorConfig(dt=1e-2, T=1.0, newton_tol=1e-13)
    out = step(G, spec, st, cfg)
    assert np.abs(out.rho - st.rho).max() < 1e-13
    assert np.abs(out.S - st.S).max() < 1e-13


def test_step_two_node_taylor():
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    dt = 1e-3
    cfg = IntegratorConfig(dt=dt, T=dt, newton_tol=1e-13)
    out = step(G, spec, st, cfg)
    assert abs(out.rho[0] - (0.5 + 0.5 * dt)) < 5 * dt**2


def test_step_single_energy_drift():
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    cfg = IntegratorConfig(dt=1e-3, T=1e-3, newton_tol=1e-13)
    out = step(G, spec, st, cfg)
    H0 = hamiltonian(G, spec, st.rho, st.S)
    H1 = hamiltonian(G, spec, out.rho, out.S)
    assert abs(H1 - H0) / abs(H0) <= 1e-10


def test_step_rejects_boundary_crossing():
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([1e-8, 1.0 - 1e-8]), np.array([0.0, 10.0]))
    cfg = IntegratorConfig(dt=1e-3, T=1e-3, newton_tol=1e-12)
    with pytest.raises(StepLeftSimplex):
        step(G, spec, st, cfg)


def test_simulate_constant_trajectory():
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([0.5, 0.5]), np.array([2.0, 2.0]))
    cfg = IntegratorConfig(dt=1e-2, T=0.5, newton_tol=1e-13, output_every=10)
    traj = simulate(G, spec, st, cfg)
    for rho, S in zip(traj.rhos, traj.Ss):
        assert np.abs(rho - 0.5).max() < 1e-12
        assert np.abs(S - 2.0).max() < 1e-10


def test_simulate_two_node_level_set():
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    cfg = IntegratorConfig(dt=1e-3, T=10.0, newton_tol=1e-13, output_every=100)
    traj = simulate(G, spec, st, cfg)
    assert traj.error is None
    e = np.asarray(traj.energy)
    assert np.abs(e - e[0]).max() / abs(e[0]) <= 1e-8
    assert np.abs(np.asarray(traj.mass) - 1.0).max() <= 1e-10
    assert min(traj.min_rho) > 0.0
    assert np.all(np.diff(traj.times) > 0)


def test_simulate_partial_on_failure():
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([1e-8, 1.0 - 1e-8]), np.array([0.0, 10.0]))
    cfg = IntegratorConfig(dt=1e-3, T=1.0, newton_tol=1e-12)
    traj = simulate(G, spec, st, cfg)
    assert traj.error is not None
    assert traj.halvings == 5
    assert len(traj) >= 1  # initial snapshot retained


def test_simulate_rk4_cross_check():
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    # midpoint has O(dt^2) global error, so quartering dt puts it well under
    # the rk4 reference
    mid = simulate(G, spec, st, IntegratorConfig(dt=2.5e-4, T=1.0, output_every=4000))
    rk4 = simulate(
        G, spec, st, IntegratorConfig(method="rk4", dt=1e-3, T=1.0, output_every=1000)
    )
    assert np.abs(mid.rhos[-1] - rk4.rhos[-1]).max() < 1e-8
    assert np.abs(mid.Ss[-1] - rk4.Ss[-1]).max() < 1e-8


def test_simulate_accepts_wave_initial():
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([0.6, 0.4]), np.array([0.1, -0.05]))
    psi = to_wave(st, 1.0)
    cfg = IntegratorConfig(dt=1e-3, T=0.1, output_every=100)
    a = simulate(G, spec, st, cfg)
    b = simulate(G, spec, psi, cfg)
    assert np.abs(np.asarray(a.rhos) - np.asarray(b.rhos)).max() < 1e-12


def full_newton_step(G, spec, state, dt, tol):
    """Oracle: plain Newton, a fresh dense solve of I - dt/2 J every iteration."""
    n = G.n
    z0 = np.concatenate([state.rho, state.S])
    z1 = z0 + dt * np.concatenate(rhs(G, spec, state))
    for _ in range(50):
        zm = 0.5 * (z0 + z1)
        mid = SystemState(zm[:n], zm[n:], state.t + 0.5 * dt)
        F = z1 - z0 - dt * np.concatenate(rhs(G, spec, mid))
        if np.abs(F).max() <= tol:
            return SystemState(z1[:n], z1[n:], state.t + dt)
        M = np.eye(2 * n) - 0.5 * dt * rhs_jacobian(G, spec, mid)
        z1 = z1 - np.linalg.solve(M, F)
    raise AssertionError("oracle Newton did not converge")


def test_simplified_newton_matches_full_newton(rng):
    cfg = IntegratorConfig(dt=5e-3, T=0.25, newton_tol=1e-13)
    for _ in range(20):
        G = random_connected_graph(rng)
        n = G.n
        dense = random_spec(rng, n)
        for W in (np.zeros((n, n)), rng.uniform(-1.0, 1.0) * np.eye(n), dense.W):
            spec = PotentialSpec(dense.V, W, dense.h)
            state = SystemState(random_interior(rng, n, low=0.5), rng.normal(0.0, 0.3, n))
            traj = simulate(G, spec, state, cfg)
            assert traj.error is None and len(traj) == 51
            assert traj.factorizations < 50  # the matrix was reused
            ref = state
            for k in range(1, 51):
                ref = full_newton_step(G, spec, ref, cfg.dt, cfg.newton_tol)
                assert np.abs(traj.rhos[k] - ref.rho).max() <= 1e-11
                assert np.abs(traj.Ss[k] - ref.S).max() <= 1e-11


def test_simplified_newton_matches_full_newton_by_gmres(gmres_only, rng):
    test_simplified_newton_matches_full_newton(rng)


@pytest.mark.parametrize("side", ["below", "above"])
def test_newton_solves_on_both_sides_of_the_crossover_match_full_newton(side):
    # 2n at the crossover takes the direct solve, 2n + 2 above it GMRES
    n = dynamics._DIRECT_SIZE // 2 + (side == "above")
    G = build_torus([n], 1.0)
    rng = np.random.default_rng(7)
    spec = PotentialSpec(rng.normal(0.0, 1.0, n), np.full(n, 0.5), 1.0)
    state = SystemState(random_interior(rng, n, low=0.5), rng.normal(0.0, 0.3, n))
    cfg = IntegratorConfig(dt=5e-3, T=0.1, newton_tol=1e-13)
    traj = simulate(G, spec, state, cfg)
    assert traj.error is None and len(traj) == 21
    assert (traj.krylov_matvecs > 0) == (side == "above")
    ref = state
    for k in range(1, 21):
        ref = full_newton_step(G, spec, ref, cfg.dt, cfg.newton_tol)
        assert np.abs(traj.rhos[k] - ref.rho).max() <= 1e-11
        assert np.abs(traj.Ss[k] - ref.S).max() <= 1e-11


def test_newton_matrix_reused_across_steps(monkeypatch):
    calls = []  # one per build of the Newton operator
    real = dynamics._jacobian_entries

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dynamics, "_jacobian_entries", counted)
    G = build_torus([16, 16], 1.0)
    n = G.n
    rng = np.random.default_rng(1)
    rho = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, n)
    state = SystemState(rho / rho.sum(), 0.1 * rng.normal(0.0, 1.0, n))
    spec = PotentialSpec(np.zeros(n), np.eye(n), 1.0)
    traj = simulate(G, spec, state, IntegratorConfig(dt=1e-3, T=2e-2, newton_tol=1e-12))
    assert traj.error is None and len(traj) == 21
    assert traj.factorizations == len(calls) <= 3


def test_halving_refactors_for_the_new_dt(monkeypatch):
    step_dt = []  # dt of each step as it starts
    used = []  # (dt the blocks were built for, dt of the step) per Newton update
    real_step, real_solve = dynamics.step, dynamics._NewtonMatrix.solve
    calls = itertools.count()

    def step_spy(G, spec, state, cfg, newton=None):
        if next(calls) == 3:
            raise NewtonDivergence("forced")
        step_dt.append(cfg.dt)
        return real_step(G, spec, state, cfg, newton)

    def solve_spy(self, F):
        used.append((self.dt, step_dt[-1]))
        return real_solve(self, F)

    monkeypatch.setattr(dynamics, "step", step_spy)
    monkeypatch.setattr(dynamics._NewtonMatrix, "solve", solve_spy)
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    traj = simulate(two_node(), PotentialSpec.free(2, 1.0), st,
                    IntegratorConfig(dt=1e-3, T=5e-3, newton_tol=1e-13))
    assert traj.error is None and traj.halvings == 1
    assert step_dt[:4] == [1e-3, 1e-3, 1e-3, 5e-4]
    assert all(built == dt for built, dt in used)
    assert (5e-4, 5e-4) in used
    assert traj.factorizations >= 2


def test_halving_events_record_time_and_new_dt(monkeypatch):
    real_step = dynamics.step
    calls = itertools.count()

    def failing_step(G, spec, state, cfg, newton=None):
        if next(calls) in (3, 6):
            raise NewtonDivergence("forced")
        return real_step(G, spec, state, cfg, newton)

    monkeypatch.setattr(dynamics, "step", failing_step)
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    traj = simulate(two_node(), PotentialSpec.free(2, 1.0), st,
                    IntegratorConfig(dt=1e-3, T=5e-3, newton_tol=1e-13))
    assert traj.error is None and traj.halvings == 2
    # three steps of 1e-3, then two of 5e-4, then the rest at 2.5e-4
    assert traj.halving_events == [(pytest.approx(3e-3), 5e-4), (pytest.approx(4e-3), 2.5e-4)]
    assert traj.times[-1] == pytest.approx(5e-3)


@pytest.mark.parametrize("fault", ["singular", "nan"])
def test_newton_failure_halves_the_step(monkeypatch, fault):
    faults = itertools.count()
    if fault == "singular":
        real = dynamics._jacobian_entries

        def inject(G, spec, state):
            if next(faults) == 0:
                # J = (2/dt) e_0 e_0^T: I - dt/2 J is exactly singular, so
                # the factored build of the two-node matrix fails
                return np.array([0]), np.array([0]), np.array([2.0 / 1e-3])
            return real(G, spec, state)

        monkeypatch.setattr(dynamics, "_jacobian_entries", inject)
    else:
        real = dynamics._NewtonMatrix.solve

        def inject(self, F):
            out = real(self, F)
            return out * np.nan if next(faults) == 0 else out

        monkeypatch.setattr(dynamics._NewtonMatrix, "solve", inject)
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    traj = simulate(two_node(), PotentialSpec.free(2, 1.0), st,
                    IntegratorConfig(dt=1e-3, T=1e-2, newton_tol=1e-13))
    assert traj.error is None
    assert traj.halvings == 1


def test_extrapolated_start_takes_one_update_per_step():
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    traj = simulate(two_node(), PotentialSpec.free(2, 1.0), st,
                    IntegratorConfig(dt=1e-3, T=1.0, output_every=100))
    steps = 1000
    assert traj.error is None and traj.halvings == 0 and len(traj) == 11
    assert traj.extrapolated_starts == steps - 2  # the first two start from Euler
    assert traj.newton_iterations <= steps + 4


def test_extrapolation_restarts_on_a_new_dt_or_state(monkeypatch):
    taken = []  # (dt, started from the extrapolation) of each step that succeeded
    real_step = dynamics.step
    calls = itertools.count()

    def step_spy(G, spec, state, cfg, newton=None):
        if next(calls) == 5:
            raise NewtonDivergence("forced")
        before = newton.extrapolated
        new = real_step(G, spec, state, cfg, newton)
        taken.append((cfg.dt, newton.extrapolated - before))
        return new

    monkeypatch.setattr(dynamics, "step", step_spy)
    G, spec = two_node(), PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    # five steps of 1e-3, a forced halving, ten steps of 5e-4, a last step of 2e-4
    traj = simulate(G, spec, st, IntegratorConfig(dt=1e-3, T=1.02e-2, newton_tol=1e-13))
    assert traj.error is None and traj.halvings == 1
    dts = [dt for dt, _ in taken]
    assert dts[:15] == [1e-3] * 5 + [5e-4] * 10
    assert len(dts) == 16 and dts[15] == pytest.approx(2e-4)
    assert [used for _, used in taken] == [0, 0, 1, 1, 1] + [0, 0] + [1] * 8 + [0]

    # a state equal to, but not the object returned by, the last step restarts it
    cfg = IntegratorConfig(dt=1e-3)
    newton = dynamics._NewtonMatrix()
    state = st
    for _ in range(3):
        state = real_step(G, spec, state, cfg, newton)
    assert newton.extrapolated == 1
    state = real_step(G, spec, SystemState(state.rho.copy(), state.S.copy(), state.t),
                      cfg, newton)
    state = real_step(G, spec, state, cfg, newton)
    assert newton.extrapolated == 1
    real_step(G, spec, state, cfg, newton)
    assert newton.extrapolated == 2


@pytest.mark.parametrize("guess", ["negative", "nan"])
def test_bad_extrapolation_falls_back_to_euler(monkeypatch, guess):
    G, spec = two_node(), PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    cfg = IntegratorConfig(dt=1e-3, T=2e-2, newton_tol=1e-13)
    ref = simulate(G, spec, st, cfg)

    def bad(starts):
        z = starts[-1].copy()
        if guess == "negative":
            z[0] = -0.1  # rejected before Newton starts
        else:
            z[2:] = np.nan  # Newton fails from it, and the step retries from Euler
        return z

    monkeypatch.setattr(dynamics, "_extrapolate", bad)
    traj = simulate(G, spec, st, cfg)
    assert traj.error is None and traj.halvings == 0 and len(traj) == 21
    assert traj.extrapolated_starts == (0 if guess == "negative" else 18)
    assert np.abs(np.asarray(traj.rhos) - np.asarray(ref.rhos)).max() <= 1e-11
    assert np.abs(np.asarray(traj.Ss) - np.asarray(ref.Ss)).max() <= 1e-11


def spy_true_residuals(monkeypatch):
    """max|F| / newton_tol of the true residual of every step _newton_solve returns."""
    ratios = []
    real = dynamics._newton_solve

    def spy(G, spec, state, cfg, newton, z0, z1):
        new = real(G, spec, state, cfg, newton, z0, z1)
        z = np.concatenate([new.rho, new.S])
        zm = 0.5 * (z0 + z)
        mid = SystemState(zm[: G.n], zm[G.n :], state.t + 0.5 * cfg.dt)
        F = z - z0 - cfg.dt * np.concatenate(rhs(G, spec, mid))
        ratios.append(np.abs(F).max() / cfg.newton_tol)
        return new

    monkeypatch.setattr(dynamics, "_newton_solve", spy)
    return ratios


@pytest.mark.parametrize("dt, T", [(1e-3, 1.0), (0.05, 5.0), (0.5, 10.0)])
def test_every_returned_step_meets_newton_tol_on_the_battery(monkeypatch, dt, T):
    ratios = spy_true_residuals(monkeypatch)
    cfg = IntegratorConfig(dt=dt, T=T, newton_tol=1e-13, output_every=10**9)
    estimated = 0
    for name, G, spec, state in verify._battery(0):
        traj = simulate(G, spec, state, cfg)
        assert traj.error is None, name
        estimated += traj.estimated_stops
    assert ratios and max(ratios) <= 1.0
    if dt == 1e-3:
        assert estimated > 0  # the estimate was exercised


def test_every_returned_step_meets_newton_tol_on_random_graphs(monkeypatch, rng):
    # the cases of test_simplified_newton_matches_full_newton
    ratios = spy_true_residuals(monkeypatch)
    cfg = IntegratorConfig(dt=5e-3, T=0.25, newton_tol=1e-13)
    for _ in range(20):
        G = random_connected_graph(rng)
        n = G.n
        dense = random_spec(rng, n)
        for W in (np.zeros((n, n)), rng.uniform(-1.0, 1.0) * np.eye(n), dense.W):
            spec = PotentialSpec(dense.V, W, dense.h)
            state = SystemState(random_interior(rng, n, low=0.5), rng.normal(0.0, 0.3, n))
            assert simulate(G, spec, state, cfg).error is None
    assert len(ratios) >= 60 * 50 and max(ratios) <= 1.0


def test_every_returned_step_meets_newton_tol_on_random_graphs_by_gmres(gmres_only, monkeypatch,
                                                                         rng):
    test_every_returned_step_meets_newton_tol_on_random_graphs(monkeypatch, rng)


def test_estimated_stops_save_the_confirming_rhs_call(monkeypatch):
    rhs_calls = itertools.count()
    real_rhs, real_solve = dynamics.rhs, dynamics._newton_solve
    stopped = []  # per returned step: whether it stopped on the estimate

    def counted_rhs(*args):
        next(rhs_calls)
        return real_rhs(*args)

    def solve_spy(G, spec, state, cfg, newton, z0, z1):
        before = newton.estimated
        new = real_solve(G, spec, state, cfg, newton, z0, z1)
        stopped.append(newton.estimated > before)
        return new

    monkeypatch.setattr(dynamics, "rhs", counted_rhs)
    monkeypatch.setattr(dynamics, "_newton_solve", solve_spy)
    cfg = IntegratorConfig(dt=1e-3, T=1.0, newton_tol=1e-13, output_every=10**9)
    for name, G, spec, state in verify._battery(0):
        rhs_calls = itertools.count()
        stopped.clear()
        traj = simulate(G, spec, state, cfg)
        assert traj.error is None and traj.halvings == 0, name
        assert len(stopped) == 1000
        assert next(rhs_calls) <= 1.2 * 1000, name
        # at least one step in every nine evaluates its residual
        run = max(len(r) for r in "".join("e" if s else "." for s in stopped).split("."))
        assert run <= 8, name
        assert traj.estimated_stops == sum(stopped) > 0


def test_calibrated_ratio_is_floored_on_the_battery_by_gmres(gmres_only, monkeypatch):
    # each ratio r1/r0 the contraction estimate is calibrated from is at least
    # min(0.1, r0), r0 the max|F| of the step's first update: the relative
    # error a GMRES update may leave.  An update solved more tightly right
    # after a build would otherwise make the estimate optimistic
    real_solve, real_calibrate = dynamics._NewtonMatrix.solve, dynamics._NewtonMatrix.calibrate
    solved, calibrated = [], []

    def solve(self, F):
        solved.append(float(np.abs(F).max()))
        return real_solve(self, F)

    def calibrate(self, ratio, zm):
        calibrated.append((ratio, min(0.1, solved[-1])))  # the step's one update so far
        return real_calibrate(self, ratio, zm)

    monkeypatch.setattr(dynamics._NewtonMatrix, "solve", solve)
    monkeypatch.setattr(dynamics._NewtonMatrix, "calibrate", calibrate)
    cfg = IntegratorConfig(dt=1e-3, T=1.0, newton_tol=1e-13, output_every=10**9)
    for name, G, spec, state in verify._battery(0):
        assert simulate(G, spec, state, cfg).error is None, name
    assert calibrated and all(ratio >= floor for ratio, floor in calibrated)


def test_nan_increment_is_never_accepted(monkeypatch):
    G, spec = two_node(), PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    cfg = IntegratorConfig(dt=1e-3, T=0.1, newton_tol=1e-13)
    ref = simulate(G, spec, st, cfg)
    assert ref.estimated_stops > 0
    real = dynamics._NewtonMatrix.solve
    solves = itertools.count()

    def inject(self, F):
        out = real(self, F)
        if next(solves) % 10 == 5:
            out[-1] = np.nan
        return out

    monkeypatch.setattr(dynamics._NewtonMatrix, "solve", inject)
    traj = simulate(G, spec, st, cfg)
    assert traj.error is None and len(traj) == len(ref)
    assert np.isfinite(np.asarray(traj.rhos)).all() and np.isfinite(np.asarray(traj.Ss)).all()
    assert np.abs(np.asarray(traj.rhos) - np.asarray(ref.rhos)).max() <= 1e-11


def test_estimate_stops_only_a_finite_contracting_update():
    G, spec = two_node(), PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    z = np.concatenate([st.rho, st.S])  # the frozen midpoint
    tiny = np.full(4, 1e-20)
    newton = dynamics._NewtonMatrix()
    newton.build(G, spec, st, 1e-3)
    newton.tol = 1e-13
    assert not newton.stops_on_estimate(z + 1e-3, tiny)  # nothing measured yet
    newton.calibrate(1e-6, z + 1e-3)  # a rate of 1e-3 per unit distance
    assert newton.stops_on_estimate(z + 1e-3, tiny)
    assert not newton.stops_on_estimate(z + 1e-3, np.array([1e-20, np.nan, 0.0, 0.0]))
    assert not newton.stops_on_estimate(z + np.nan, tiny)
    assert not newton.stops_on_estimate(z + 1e-3, np.full(4, 1e-6))  # theta 1e-6: error 1e-12
    assert not newton.stops_on_estimate(z + 2e3, tiny)  # theta = 2: no contraction
    # at most _ESTIMATED_RUN stops in a row after a calibration
    newton.calibrate(1e-6, z + 1e-3)
    stops = [newton.stops_on_estimate(z + 1e-3, tiny) for _ in range(2 * dynamics._ESTIMATED_RUN)]
    assert sum(stops) == dynamics._ESTIMATED_RUN
    newton.calibrate(1e-6, z + 1e-3)
    assert newton.stops_on_estimate(z + 1e-3, tiny)
    # a rebuild forgets the rate
    newton.build(G, spec, st, 1e-3)
    assert not newton.stops_on_estimate(z + 1e-3, tiny)


def test_a_failed_solve_forgets_the_rate(monkeypatch):
    G, spec = two_node(), PotentialSpec.free(2, 1.0)
    state = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    cfg = IntegratorConfig(dt=1e-3, newton_tol=1e-13)
    newton = dynamics._NewtonMatrix()
    for _ in range(3):
        state = step(G, spec, state, cfg, newton)
    newton.rate = 0.0  # would stop any first update on the estimate
    real = dynamics._NewtonMatrix.solve
    solves = itertools.count()

    def inject(self, F):
        out = real(self, F)
        if next(solves) == 0:
            out[-1] = np.nan  # the solve from the extrapolated start fails
        return out

    monkeypatch.setattr(dynamics._NewtonMatrix, "solve", inject)
    extrapolated, estimated = newton.extrapolated, newton.estimated
    step(G, spec, state, cfg, newton)
    assert newton.extrapolated == extrapolated + 1
    # the retry from Euler evaluated its residual and measured the rate afresh
    assert newton.estimated == estimated and newton.rate > 0.0


def test_no_estimated_stop_after_a_halving_until_a_new_confirmation(monkeypatch):
    events = []
    real_step, real_calibrate = dynamics.step, dynamics._NewtonMatrix.calibrate
    calls = itertools.count()

    def step_spy(G, spec, state, cfg, newton=None):
        if next(calls) == 40:
            events.append("halving")
            raise NewtonDivergence("forced")
        before = newton.estimated
        new = real_step(G, spec, state, cfg, newton)
        events.append("estimated" if newton.estimated > before else "confirmed")
        return new

    def calibrate_spy(self, ratio, zm):
        events.append("calibrated")
        return real_calibrate(self, ratio, zm)

    monkeypatch.setattr(dynamics, "step", step_spy)
    monkeypatch.setattr(dynamics._NewtonMatrix, "calibrate", calibrate_spy)
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    traj = simulate(two_node(), PotentialSpec.free(2, 1.0), st,
                    IntegratorConfig(dt=1e-3, T=0.1, newton_tol=1e-13))
    assert traj.error is None and traj.halvings == 1
    k = events.index("halving")
    after = events[k + 1 :]
    assert "estimated" in events[:k] and "estimated" in after
    assert after.index("calibrated") < after.index("estimated")


def test_wave_round_trip(rng):
    for h in [1.0, 0.3]:
        rho = random_interior(rng, 5)
        S = rng.uniform(-np.pi * h, np.pi * h, 5) * 0.99
        st = SystemState(rho, S)
        back = from_wave(to_wave(st, h), h)
        assert np.abs(back.rho - rho).max() < 1e-14
        assert np.abs(back.S - S).max() < 1e-12


def test_wave_uniform():
    st = SystemState(np.full(4, 0.25), np.zeros(4))
    assert np.allclose(to_wave(st, 1.0), 0.5)


def test_wave_explicit_values():
    h = 0.7
    st = SystemState(np.array([0.75, 0.25]), np.array([np.pi * h / 4.0, 0.0]))
    psi = to_wave(st, h)
    assert psi[0] == pytest.approx(np.sqrt(0.75) * np.exp(1j * np.pi / 4), rel=1e-14)
    assert psi[1] == pytest.approx(0.5, rel=1e-14)


def test_from_wave_rejects_zero_modulus():
    with pytest.raises(ZeroModulus):
        from_wave(np.array([0.0 + 0j, 1.0 + 0j]), 1.0)


def test_graph_laplacian_wave_constant_zero():
    G = build_torus([4], 1.0, "constant", 1.0)
    psi = np.full(4, 0.5) * np.exp(1j * 0.3)
    assert np.abs(graph_laplacian_wave(G, psi, 1.0)).max() < 1e-14


def test_graph_laplacian_wave_plane_wave():
    G = build_torus([8], 1.0)
    k = 2 * np.pi / 8
    psi = np.exp(1j * k * np.arange(8)) / np.sqrt(8)
    lap = graph_laplacian_wave(G, psi, h=1.0)
    assert np.abs(lap + k * k * psi).max() < 1e-12


def test_cnls_residual_from_chain_rule(rng):
    # i h dPsi/dt = -(h^2/2) Lap psi + V psi + (W rho) psi with the time
    # derivative assembled from the density/phase flow
    for _ in range(5):
        G = random_connected_graph(rng)
        spec = random_spec(rng, G.n)
        rho = random_interior(rng, G.n)
        S = rng.normal(0.0, 0.3, G.n)
        st = SystemState(rho, S)
        drho, dS = rhs(G, spec, st)
        psi = to_wave(st, spec.h)
        dpsi = (drho / (2 * rho) + 1j * dS / spec.h) * psi
        resid = (
            1j * spec.h * dpsi
            + spec.h**2 / 2 * graph_laplacian_wave(G, psi, spec.h)
            - spec.V * psi
            - (spec.W @ rho) * psi
        )
        assert np.abs(resid).max() < 1e-8


@pytest.mark.parametrize("W", ["zero", "diagonal", "dense"])
def test_schrodinger_operator_is_i_h_dpsi_dt_of_the_flow(W):
    # H(Psi) against i h dPsi/dt, with dPsi/dt from the density/phase flow
    # by the chain rule, for every way PotentialSpec stores W; the phase
    # differences (S_j - S_l)/h stay below pi, on the principal branch
    rng = np.random.default_rng(2024)
    for _ in range(10):
        G = random_connected_graph(rng)
        n = G.n
        A = rng.normal(0.0, 0.5, (n, n))
        interaction = {"zero": np.zeros(n), "diagonal": rng.uniform(-1.0, 1.0, n),
                       "dense": A + A.T}[W]
        spec = PotentialSpec(rng.normal(0.0, 1.0, n), interaction, float(rng.uniform(0.3, 1.5)))
        st = SystemState(random_interior(rng, n), spec.h * rng.uniform(-1.0, 1.0, n))
        drho, dS = rhs(G, spec, st)
        psi = to_wave(st, spec.h)
        dpsi = (drho / (2.0 * st.rho) + 1j * dS / spec.h) * psi
        H = schrodinger_operator(G, spec, psi)
        assert np.abs(1j * spec.h * dpsi - H).max() <= 1e-12 * max(1.0, np.abs(H).max())


def test_plane_wave_residual_cycle8():
    G = build_torus([8], 1.0)
    assert plane_wave_residual(G, np.array([2 * np.pi / 8])) <= 1e-12


def test_plane_wave_residual_zero_mode():
    G = build_torus([8], 1.0)
    assert plane_wave_residual(G, np.array([0.0])) == 0.0


def test_plane_wave_residual_torus_4x4():
    G = build_torus([4, 4], 1.0)
    assert plane_wave_residual(G, np.array([2 * np.pi / 4, 0.0])) <= 1e-12


def test_plane_wave_residual_all_modes():
    G = build_torus([8], 1.0)
    for m in range(8):
        assert plane_wave_residual(G, np.array([2 * np.pi * m / 8])) <= 1e-12


def test_plane_wave_rejects_incommensurate():
    G = build_torus([8], 1.0)
    with pytest.raises(IncommensurateWaveNumber):
        plane_wave_residual(G, np.array([0.77]))


def test_gmres_rejects_a_non_finite_residual():
    G, spec = two_node(), PotentialSpec.free(2, 1.0)
    newton = dynamics._NewtonMatrix()
    newton.build(G, spec, SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1])), 1e-3)
    newton.tol = 1e-13
    with pytest.raises(NewtonDivergence, match="not finite"):
        newton.solve(np.array([1e-3, np.nan, 0.0, 0.0]))


def test_gmres_rejects_a_non_finite_residual_by_gmres(gmres_only):
    # two nodes take the factored path unless every size is solved by GMRES
    test_gmres_rejects_a_non_finite_residual()
