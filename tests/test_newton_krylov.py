"""The implicit midpoint's matrix-free Newton operator and its GMRES solve."""

import itertools
import tracemalloc

import numpy as np
import pytest

from graph_nls import (
    IntegratorConfig,
    NewtonDivergence,
    PotentialSpec,
    SystemState,
    build_graph,
    build_path_lattice,
    build_torus,
    rhs_jacobian,
    simulate,
)
from graph_nls import dynamics, verify
from graph_nls.energy import static_hessian_entries
from graph_nls.graph import dense, edge_means
from conftest import random_connected_graph, random_interior


def dense_jacobian(G, spec, state):
    """Oracle: J = [[A, L], [-H, -A^T]] assembled block by block, densely."""
    n = G.n
    half_w_dS = 0.5 * G.weights * G.diff(state.S)
    A = dense(*G.edge_entries(G.div(half_w_dS), half_w_dS, -half_w_dS), n)
    J = np.zeros((2 * n, 2 * n))
    J[:n, :n] = A
    J[:n, n:] = G.laplacian(G.weights * edge_means(G, state.rho))
    J[n:, :n] = -dense(*static_hessian_entries(G, spec, state.rho), n)
    J[n:, n:] = -A.T
    return J


def interaction(rng, n, kind):
    if kind == "zero":
        return np.zeros(n)
    if kind == "diagonal":
        return np.full(n, rng.uniform(-1.0, 1.0))
    A = rng.normal(0.0, 0.5, (n, n))
    return (A + A.T) / 2.0


@pytest.mark.parametrize("kind", ["zero", "diagonal", "dense"])
def test_operator_matches_dense_oracle(rng, kind):
    for _ in range(10):
        G = random_connected_graph(rng)
        n = G.n
        spec = PotentialSpec(rng.normal(0.0, 1.0, n), interaction(rng, n, kind),
                             float(rng.uniform(0.3, 1.5)))
        state = SystemState(random_interior(rng, n), rng.normal(0.0, 0.5, n))
        J = dense_jacobian(G, spec, state)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(rhs_jacobian(G, spec, state) - J).max() <= 1e-14 * scale
        dt = float(rng.uniform(1e-3, 0.5))
        M = np.eye(2 * n) - 0.5 * dt * J
        newton = dynamics._NewtonMatrix()
        newton.build(G, spec, state, dt)
        newton.tol = 1e-13
        for _ in range(3):
            x = rng.normal(0.0, 1.0, 2 * n)
            if newton._correction is None:  # GMRES applies K = dt/2 J matrix-free
                assert np.abs(x - newton._k_times(x) - M @ x).max() <= 1e-14 * scale
            else:  # the factored matrix keeps C = M^-1 K: M (x + C x) = x
                assert np.abs(M @ (x + newton._correction.dot(x)) - x).max() <= 1e-14 * scale
        # a residual near convergence is solved to the absolute GMRES
        # tolerance 1e-3 newton_tol, a far one to the relative min(0.1, |F|)
        for scale in (1e-12, 1e-8, 1e-3):
            F = rng.normal(0.0, scale, 2 * n)
            f_norm = np.linalg.norm(F)
            x = newton.solve(F)
            assert np.linalg.norm(M @ x - F) <= max(1e-16, min(0.1, f_norm) * f_norm)
            # the correction lies in range(J): the density half keeps F's mass
            assert abs(x[:n].sum() - F[:n].sum()) <= 1e-14 * scale


@pytest.mark.parametrize("kind", ["zero", "diagonal", "dense"])
def test_operator_matches_dense_oracle_by_gmres(gmres_only, rng, kind):
    test_operator_matches_dense_oracle(rng, kind)


# the fewest nodes whose Newton matrix GMRES solves: 2n above the crossover
GMRES_NODES = dynamics._DIRECT_SIZE // 2 + 1


def test_solve_counts_products_and_stops_at_the_tolerance():
    n = GMRES_NODES
    G = build_torus([n], 1.0)
    spec = PotentialSpec.free(n)
    rng = np.random.default_rng(3)
    state = SystemState(random_interior(rng, n), rng.normal(0.0, 0.3, n))
    newton = dynamics._NewtonMatrix()
    newton.build(G, spec, state, 1e-3)
    newton.tol = 1e-12
    # the start x = F already meets the tolerance: one product, x = F
    F = np.full(2 * n, 1e-20)
    assert np.array_equal(newton.solve(F), F) and newton.matvecs == 1
    newton.solve(rng.normal(0.0, 1e-9, 2 * n))
    assert newton.iterations == 2 and 3 <= newton.matvecs <= 5


def test_far_residual_stops_at_the_forcing_term():
    # the battery's path_20 (spacing 10/19, free, h = 1) grown to GMRES_NODES
    G = build_path_lattice(GMRES_NODES, -5.0, -5.0 + (GMRES_NODES - 1) * 10.0 / 19.0)
    spec = PotentialSpec.free(G.n, h=1.0)
    state = verify._battery_state(G, 0.004, 0)
    newton = dynamics._NewtonMatrix()
    newton.build(G, spec, state, 0.5)
    newton.tol = 1e-13
    F = np.random.default_rng(5).normal(0.0, 1.0, 2 * G.n)
    F /= np.linalg.norm(F)
    products = []
    for f_norm in (1e-2, 1e-11):
        before = newton.matvecs
        newton.solve(f_norm * F)
        products.append(newton.matvecs - before)
    # a relative reduction of 1e-2 takes fewer products than the absolute 1e-16
    assert products[0] < products[1]


@pytest.mark.parametrize("n", [2, dynamics._DIRECT_SIZE // 2])
def test_direct_solve_below_the_crossover_makes_no_krylov_products(n):
    G = build_torus([n], 1.0) if n > 2 else build_graph(2, [(0, 1, 1.0)])
    rng = np.random.default_rng(2)
    state = SystemState(random_interior(rng, n), rng.normal(0.0, 0.3, n))
    cfg = IntegratorConfig(dt=1e-3, T=0.05, newton_tol=1e-13, output_every=10)
    traj = simulate(G, PotentialSpec.gpe(n, 1.0), state, cfg)
    assert traj.error is None and traj.halvings == 0
    assert traj.newton_iterations >= 50 and traj.factorizations >= 1
    assert traj.krylov_matvecs == 0


def projection_entries(n, dt):
    """Entries of J with dt/2 J = v v^T / |v|^2: I - dt/2 J is singular, and no
    pivot of its factorization need be exactly 0."""
    v = np.random.default_rng(4).normal(0.0, 1.0, 2 * n)
    rows, cols = np.indices((2 * n, 2 * n)).reshape(2, -1)
    return rows, cols, (2.0 / dt) * np.outer(v, v).ravel() / v.dot(v)


@pytest.mark.parametrize("n", [dynamics._DIRECT_SIZE // 2, GMRES_NODES],
                         ids=["direct", "gmres"])
def test_singular_newton_matrix_halves_the_step(monkeypatch, n):
    G = build_torus([n], 1.0)
    spec = PotentialSpec.free(n)
    rng = np.random.default_rng(6)
    state = SystemState(random_interior(rng, n, low=0.5), rng.normal(0.0, 0.3, n))
    dt = 1e-3
    real = dynamics._jacobian_entries
    monkeypatch.setattr(dynamics, "_jacobian_entries", lambda *args: projection_entries(n, dt))
    newton = dynamics._NewtonMatrix()
    newton.tol = 1e-13
    # the factorization finds it at the build, GMRES at the first update
    with pytest.raises(NewtonDivergence, match="singular"):
        newton.build(G, spec, state, dt)
        newton.solve(rng.normal(0.0, 1e-6, 2 * n))
    # the first build is singular, and simulate retries at dt / 2
    faults = itertools.count()
    monkeypatch.setattr(dynamics, "_jacobian_entries",
                        lambda *args: projection_entries(n, dt) if next(faults) == 0
                        else real(*args))
    traj = simulate(G, spec, state, IntegratorConfig(dt=dt, T=5e-3, newton_tol=1e-13))
    assert traj.error is None and traj.halvings == 1


def test_singular_rebuild_of_a_guessed_start_keeps_the_factored_matrix(monkeypatch):
    # a guessed start whose rebuild at the same dt is singular fails, and the
    # retry from Euler goes on with the factored matrix the holder had
    n = dynamics._DIRECT_SIZE // 2
    G = build_torus([n], 1.0)
    spec = PotentialSpec.free(n)
    rng = np.random.default_rng(6)
    state = SystemState(random_interior(rng, n, low=0.5), rng.normal(0.0, 0.3, n))
    cfg = IntegratorConfig(dt=1e-2, newton_tol=1e-13)
    newton = dynamics._NewtonMatrix()
    for _ in range(3):
        state = dynamics.step(G, spec, state, cfg, newton)
    kept, builds, guesses = newton._correction, newton.builds, newton.extrapolated
    real = dynamics._jacobian_entries
    faults = itertools.count()
    monkeypatch.setattr(dynamics, "_jacobian_entries",
                        lambda *args: projection_entries(n, cfg.dt) if next(faults) == 0
                        else real(*args))
    # the history extrapolates to a start whose density is off by up to 90%,
    # far enough that the first update contracts by less than 10x
    z = np.concatenate([state.rho, state.S])
    off = np.concatenate([0.9 * state.rho * rng.uniform(-1.0, 1.0, n), np.zeros(n)])
    newton._starts = [z + off, z]
    new = dynamics.step(G, spec, state, cfg, newton)
    assert next(faults) == 1  # the one build tried was the singular one
    assert newton.extrapolated == guesses + 1 and newton.builds == builds
    assert newton._correction is kept and newton.dt == cfg.dt
    assert newton.matvecs == 0
    zn = np.concatenate([new.rho, new.S])
    zm = 0.5 * (z + zn)
    mid = SystemState(zm[:n], zm[n:], state.t + 0.5 * cfg.dt)
    F = zn - z - cfg.dt * np.concatenate(dynamics.rhs(G, spec, mid))
    assert np.abs(F).max() <= cfg.newton_tol


def stiff_battery_run():
    """The battery's path_20 at dt = 0.5 over 200 steps: no halvings, and at
    most 7 Newton updates per step."""
    _, G, spec, state = next(case for case in verify._battery(0) if case[0] == "path_20")
    cfg = IntegratorConfig(dt=0.5, T=100.0, newton_tol=1e-13, output_every=10**9)
    traj = simulate(G, spec, state, cfg)
    steps = 200
    assert traj.error is None and traj.halvings == 0
    assert traj.newton_iterations <= 7 * steps
    return traj, steps


def test_stiff_battery_case_takes_no_halvings():
    traj, _ = stiff_battery_run()
    # path_20 is below the crossover: its updates make no GMRES product
    assert traj.krylov_matvecs == 0


def test_stiff_battery_case_takes_no_halvings_by_gmres(gmres_only):
    traj, steps = stiff_battery_run()
    # ~117 products per step; 168 with the absolute stop alone
    assert 0 < traj.krylov_matvecs <= 140 * steps


def test_two_midpoint_steps_on_a_64x64_torus_hold_no_n_by_n_array():
    G = build_torus([64, 64], 1.0)
    n = G.n
    rng = np.random.default_rng(1)
    rho = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, n)
    state = SystemState(rho / rho.sum(), 0.1 * rng.normal(0.0, 1.0, n))
    spec = PotentialSpec.gpe(n, 1.0)
    cfg = IntegratorConfig(dt=1e-3, T=2e-3, newton_tol=1e-12)
    tracemalloc.start()
    try:
        traj = simulate(G, spec, state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.error is None and len(traj) == 3
    # one n x n float array is 134 MB; the two steps peak at ~5 MB
    assert peak < n * n * 8 / 10
