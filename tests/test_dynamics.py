import dataclasses
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
    build_path_lattice,
    build_torus,
    from_wave,
    graph_laplacian_wave,
    hamiltonian,
    plane_wave_residual,
    rhs,
    rhs_jacobian,
    schrodinger_operator,
    simulate,
    solve_ground_state,
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


def test_newton_start_below_the_interior_floor_leaves_the_simplex():
    # a density entry in (0, INTERIOR_FLOOR) is not interior: the solve stops
    # before its first update instead of returning a state that check_interior
    # would reject later
    G, spec = two_node(), PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    cfg = IntegratorConfig(dt=1e-3, T=1e-3, newton_tol=1e-13)
    z0 = np.concatenate([st.rho, st.S])
    newton = dynamics._NewtonMatrix()
    with pytest.raises(StepLeftSimplex):
        dynamics._newton_solve(G, spec, st, cfg, newton, z0, np.array([1e-301, 0.45, 0.1, -0.1]))
    assert newton.iterations == 0 and newton.builds == 0


def test_rk4_result_below_the_interior_floor_leaves_the_simplex(monkeypatch):
    # the stages stay interior; the fourth slope lands the result's first
    # density at ~5e-301, below INTERIOR_FLOOR but positive
    G, spec = two_node(), PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([1e-299, 1.0 - 1e-299]), np.array([0.0, 0.0]))
    dt = 1e-3
    calls = itertools.count()

    def slope(G, spec, state):
        if next(calls) < 3:
            return np.zeros(2), np.zeros(2)
        return np.array([-6.0 * 9.5e-300 / dt, 0.0]), np.zeros(2)

    monkeypatch.setattr(dynamics, "rhs", slope)
    with pytest.raises(StepLeftSimplex, match="RK4 step"):
        step(G, spec, st, IntegratorConfig(method="rk4", dt=dt, T=dt))
    assert next(calls) == 4


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


def test_head_cuts_every_list_that_simulate_fills_per_snapshot():
    # a list field with one entry per snapshot that head leaves whole fails here
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    traj = simulate(two_node(), PotentialSpec.free(2, 1.0), st,
                    IntegratorConfig(dt=1e-3, T=5e-3, output_every=1))
    assert len(traj) == 6
    head = traj.head(2)
    for f in dataclasses.fields(traj):
        value, cut = getattr(traj, f.name), getattr(head, f.name)
        if isinstance(value, list) and len(value) == len(traj):
            assert len(cut) == 2 and all(a is b for a, b in zip(cut, value))
        else:
            assert cut is value


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


def fail_steps(monkeypatch, failing):
    """Make simulate's calls of dynamics.step number ``failing`` (from 0) fail."""
    calls = itertools.count()

    def failing_step(G, spec, state, cfg, newton=None):
        if next(calls) in failing:
            raise NewtonDivergence("forced")
        return step(G, spec, state, cfg, newton)

    monkeypatch.setattr(dynamics, "step", failing_step)


def test_halving_events_record_time_and_new_dt(monkeypatch):
    fail_steps(monkeypatch, (3, 6))
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    traj = simulate(two_node(), PotentialSpec.free(2, 1.0), st,
                    IntegratorConfig(dt=1e-3, T=5e-3, newton_tol=1e-13))
    assert traj.error is None and traj.halvings == 2
    # three steps of 1e-3, then two of 5e-4, then the rest at 2.5e-4
    assert traj.halving_events == [(pytest.approx(3e-3), 5e-4), (pytest.approx(4e-3), 2.5e-4)]
    assert traj.times[-1] == pytest.approx(5e-3)


@pytest.mark.parametrize("cap", [None, 3])
@pytest.mark.parametrize("system", ["two_point", "dense_W"])
@pytest.mark.parametrize("failing", [(), range(30, 36)], ids=["whole", "cut_short"])
def test_snapshot_diagnostics_are_those_of_each_snapshot(monkeypatch, rng, system, failing, cap):
    # simulate fills mass, min_rho and energy when the run ends, over stacks
    # of snapshots (of at most ``cap`` when it is set); six failures in a row
    # exhaust the halvings and cut the run
    if system == "two_point":
        G, spec = two_node(), PotentialSpec.free(2, 1.0)
        state = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    else:
        G = random_connected_graph(rng)
        spec = random_spec(rng, G.n)
        state = SystemState(random_interior(rng, G.n, low=0.5), rng.normal(0.0, 0.3, G.n))
    assert spec.interaction.ndim == (1 if system == "two_point" else 2)
    if cap is not None:
        monkeypatch.setattr(dynamics, "_BATCH_FLOATS", cap * 2 * G.n)
    fail_steps(monkeypatch, failing)
    traj = simulate(G, spec, state, IntegratorConfig(dt=1e-3, T=0.1, output_every=10))
    assert (traj.error is None) == (not failing)
    assert len(traj) == (4 if failing else 11)
    for k, (rho, S) in enumerate(zip(traj.rhos, traj.Ss)):
        H = hamiltonian(G, spec, rho, S)
        assert isinstance(traj.energy[k], float)
        assert abs(traj.energy[k] - H) <= 1e-15 * abs(H)
        assert traj.mass[k] == rho.sum() and traj.min_rho[k] == rho.min()
    for name in ("mass", "min_rho", "energy"):
        assert len(getattr(traj, name)) == len(traj)


@pytest.mark.parametrize("cap", [None, 3])
@pytest.mark.parametrize("T, failing", [(0.0505, ()), (0.05, (20,))])
def test_norm_resid_does_not_depend_on_where_integrand_batches_end(monkeypatch, rng, T, failing,
                                                                   cap):
    # simulate evaluates the normalization integrand in batches of ``cap``
    # states, and the last batch when the run ends, and adds the trapezoid
    # step by step.  A remainder step (T = 0.0505) or a halving makes the
    # step sizes differ
    G = random_connected_graph(rng)
    n = G.n
    spec = random_spec(rng, n)
    state = SystemState(random_interior(rng, n, low=0.5), rng.normal(0.0, 0.3, n))
    if cap is not None:
        monkeypatch.setattr(dynamics, "_BATCH_FLOATS", cap * 2 * n)
    runs = []
    for every in (1, 7, 10**9):
        fail_steps(monkeypatch, failing)
        cfg = IntegratorConfig(dt=1e-3, T=T, newton_tol=1e-13, output_every=every)
        traj = simulate(G, spec, state, cfg)
        assert traj.error is None and traj.halvings == len(failing)
        runs.append(dict(zip(traj.times, traj.norm_resid)))
    each_step = runs[0]
    # 50 steps and the remainder, or 20 steps and 60 of half the size
    assert len(each_step) == 1 + (80 if failing else 51)
    assert max(map(abs, each_step.values())) > 0.0
    for run in runs[1:]:
        assert len(run) >= 2 and set(run) <= set(each_step)
        assert all(abs(resid - each_step[t]) <= 1e-15 for t, resid in run.items())


@pytest.mark.parametrize("cap, failing", [(None, ()), (3, ()), (None, range(60, 66))])
def test_snapshots_at_every_step_wait_for_their_integrand_batch(monkeypatch, cap, failing):
    # at output_every = 1 each snapshot's norm_resid is recorded when its
    # batch is evaluated, at ``cap`` states or when the run ends, also on
    # spent halvings: 200 steps on the battery's 20-node path take one
    # batch, after the one call at the initial state
    _, G, spec, state = next(case for case in verify._battery(0) if case[0] == "path_20")
    if cap is not None:
        monkeypatch.setattr(dynamics, "_BATCH_FLOATS", cap * 2 * G.n)
    fail_steps(monkeypatch, failing)
    batches = []
    real = dynamics.normalization_integrand

    def spy(G, spec, rho, S):
        batches.append(len(rho))
        return real(G, spec, rho, S)

    monkeypatch.setattr(dynamics, "normalization_integrand", spy)
    traj = simulate(G, spec, state, IntegratorConfig(dt=1e-3, T=0.2, output_every=1))
    steps = 60 if failing else 200
    assert (traj.error is None) == (not failing) and len(traj) == steps + 1
    assert len(traj.norm_resid) == len(traj) and traj.norm_resid[0] == 0.0
    if cap is None:
        assert batches == [1, steps]
    else:
        assert batches == [1] + [3] * 66 + [2]


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


def stiff_trap_release():
    """The ground state of (x - 1)^2 / 2 on an 80-node path over [-5, 5], h = 1
    and W = 0, released into x^2 / 2 at dt = 1e-2 up to T = 2.5: no error and
    no halvings.  Its smallest density is ~1.7e-15, so the Fisher Hessian
    (~1 / rho) makes dt/2 J and C = (I - dt/2 J)^-1 dt/2 J ~1e14 at t = 0."""
    G = build_path_lattice(80, -5.0, 5.0)
    x = G.coords[:, 0]
    shifted = PotentialSpec(0.5 * (x - 1.0) ** 2, np.zeros(80), 1.0)
    rho = solve_ground_state(G, shifted).rho_g
    spec = PotentialSpec(0.5 * x**2, np.zeros(80), 1.0)
    traj = simulate(G, spec, SystemState(rho, np.zeros(80)),
                    IntegratorConfig(dt=1e-2, T=2.5, output_every=50))
    assert traj.error is None and traj.halvings == 0
    assert traj.times[-1] == pytest.approx(2.5)
    return traj


def test_stiff_trap_release_takes_no_halvings():
    # an absolute bound on the entries of C once called this M singular at t = 0
    traj = stiff_trap_release()
    assert traj.krylov_matvecs == 0 and traj.factorizations >= 1


def test_stiff_trap_release_takes_no_halvings_by_gmres(gmres_only):
    traj = stiff_trap_release()
    assert traj.krylov_matvecs > 0


def test_small_steps_take_no_newton_update_after_the_euler_starts(monkeypatch):
    # at dt = 1e-3 the start from the last four midpoint slopes already meets
    # newton_tol: after the four Euler starts a step costs one rhs call, the
    # one that measures its residual, and no Newton update
    rhs_calls = itertools.count()
    real_rhs = dynamics.rhs

    def counted_rhs(*args):
        next(rhs_calls)
        return real_rhs(*args)

    monkeypatch.setattr(dynamics, "rhs", counted_rhs)
    # configs/two_point.json, run up to T = 1
    two_point = ("two_point", two_node(), PotentialSpec.free(2, 1.0),
                 SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1])))
    cfg = IntegratorConfig(dt=1e-3, T=1.0, newton_tol=1e-13, output_every=100)
    steps = 1000
    for name, G, spec, state in [*verify._battery(0), two_point]:
        rhs_calls = itertools.count()
        traj = simulate(G, spec, state, cfg)
        assert traj.error is None and traj.halvings == 0 and len(traj) == 11, name
        assert traj.extrapolated_starts == steps - 4, name
        assert traj.newton_iterations <= 4, name
        assert next(rhs_calls) <= 1.01 * steps, name


def test_newton_tests_the_residual_of_its_last_update():
    # from the Euler start one update meets newton_tol at dt = 1e-3; a solve
    # that gave up after its one update without testing it halved each step
    cfg = IntegratorConfig(dt=1e-3, T=0.05, newton_tol=1e-13, newton_max_iter=1)
    state = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    traj = simulate(two_node(), PotentialSpec.free(2, 1.0), state, cfg)
    assert traj.error is None and traj.halvings == 0
    assert traj.times[-1] == pytest.approx(0.05)


def test_slope_extrapolation_is_fifth_order(monkeypatch):
    # the start is O(dt^5) from the step it starts: halving dt divides its
    # distance from the returned state by ~32 (a quadratic through three
    # slopes is O(dt^4), ~16)
    guesses = []
    real = dynamics._NewtonMatrix.predict

    def spy(self, state, z0, dt):
        guesses.append(real(self, state, z0, dt))
        return guesses[-1]

    monkeypatch.setattr(dynamics._NewtonMatrix, "predict", spy)
    G, spec = two_node(), PotentialSpec.free(2, 1.0)
    errors = []
    for dt in (2e-2, 1e-2):
        cfg = IntegratorConfig(dt=dt, newton_tol=1e-14)
        newton = dynamics._NewtonMatrix()
        state = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
        guesses.clear()
        for _ in range(5):
            state = step(G, spec, state, cfg, newton)
        assert [g is None for g in guesses] == [True] * 4 + [False]
        errors.append(np.abs(guesses[-1] - np.concatenate([state.rho, state.S])).max())
    assert 25.0 <= errors[0] / errors[1] <= 40.0


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
    assert [used for _, used in taken] == [0, 0, 0, 0, 1] + [0] * 4 + [1] * 6 + [0]

    # a state equal to, but not the object returned by, the last step restarts it
    cfg = IntegratorConfig(dt=1e-3)
    newton = dynamics._NewtonMatrix()
    state = st
    for _ in range(5):
        state = real_step(G, spec, state, cfg, newton)
    assert newton.extrapolated == 1
    state = real_step(G, spec, SystemState(state.rho.copy(), state.S.copy(), state.t),
                      cfg, newton)
    for _ in range(3):
        state = real_step(G, spec, state, cfg, newton)
    assert newton.extrapolated == 1
    real_step(G, spec, state, cfg, newton)
    assert newton.extrapolated == 2


@pytest.mark.parametrize("guess", ["negative", "infinite", "nan"])
def test_bad_extrapolation_falls_back_to_euler(monkeypatch, guess):
    # the loop's finite and interior tests reject each bad start; the step is
    # retried from Euler and no halving follows
    G, spec = two_node(), PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    cfg = IntegratorConfig(dt=1e-3, T=2e-2, newton_tol=1e-13)
    ref = simulate(G, spec, st, cfg)
    real = dynamics._NewtonMatrix.predict

    def bad(self, state, z0, dt):
        z = real(self, state, z0, dt)
        if z is not None:
            if guess == "negative":
                z[0] = -0.1
            elif guess == "infinite":
                z[0] = np.inf
            else:
                z[2:] = np.nan
        return z

    monkeypatch.setattr(dynamics._NewtonMatrix, "predict", bad)
    traj = simulate(G, spec, st, cfg)
    assert traj.error is None and traj.halvings == 0 and len(traj) == 21
    assert traj.extrapolated_starts == 20 - 4
    # every step started from Euler, whose Newton updates the reference made
    # only in its first four steps
    assert traj.newton_iterations > ref.newton_iterations
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
    for name, G, spec, state in verify._battery(0):
        traj = simulate(G, spec, state, cfg)
        assert traj.error is None, name
    assert ratios and max(ratios) <= 1.0


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


def test_nan_increment_is_never_accepted(monkeypatch):
    # at dt = 0.05 a step from the slopes still takes Newton updates; the
    # first update of each such step is made NaN, and the step is retried
    # from Euler
    G, spec = two_node(), PotentialSpec.free(2, 1.0)
    st = SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1]))
    cfg = IntegratorConfig(dt=0.05, T=5.0, newton_tol=1e-13)
    ref = simulate(G, spec, st, cfg)
    real_predict, real_solve = dynamics._NewtonMatrix.predict, dynamics._NewtonMatrix.solve
    guessed = []  # one entry while the next update is the first from a start of the slopes
    injected = itertools.count()

    def predict(self, state, z0, dt):
        guess = real_predict(self, state, z0, dt)
        guessed[:] = [] if guess is None else [True]
        return guess

    def inject(self, F):
        out = real_solve(self, F)
        if guessed:
            guessed.clear()
            next(injected)
            out[-1] = np.nan
        return out

    monkeypatch.setattr(dynamics._NewtonMatrix, "predict", predict)
    monkeypatch.setattr(dynamics._NewtonMatrix, "solve", inject)
    traj = simulate(G, spec, st, cfg)
    assert next(injected) >= 50
    assert traj.error is None and traj.halvings == 0 and len(traj) == len(ref)
    assert np.isfinite(np.asarray(traj.rhos)).all() and np.isfinite(np.asarray(traj.Ss)).all()
    assert np.abs(np.asarray(traj.rhos) - np.asarray(ref.rhos)).max() <= 1e-11


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
