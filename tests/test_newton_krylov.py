"""The implicit midpoint's matrix-free Newton operator and its GMRES solve."""

import tracemalloc

import numpy as np
import pytest

from graph_nls import (
    IntegratorConfig,
    PotentialSpec,
    SystemState,
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
            assert np.abs(x - newton._k_times(x) - M @ x).max() <= 1e-14 * scale
        # a residual near convergence is solved to the absolute GMRES
        # tolerance 1e-3 newton_tol, a far one to the relative min(0.1, |F|)
        for scale in (1e-12, 1e-8, 1e-3):
            F = rng.normal(0.0, scale, 2 * n)
            f_norm = np.linalg.norm(F)
            x = newton.solve(F)
            assert np.linalg.norm(M @ x - F) <= max(1e-16, min(0.1, f_norm) * f_norm)
            # the correction lies in range(J): the density half keeps F's mass
            assert abs(x[:n].sum() - F[:n].sum()) <= 1e-14 * scale


def test_solve_counts_products_and_stops_at_the_tolerance():
    G = build_torus([4], 1.0)
    spec = PotentialSpec.free(4)
    rng = np.random.default_rng(3)
    state = SystemState(random_interior(rng, 4), rng.normal(0.0, 0.3, 4))
    newton = dynamics._NewtonMatrix()
    newton.build(G, spec, state, 1e-3)
    newton.tol = 1e-12
    # the start x = F already meets the tolerance: one product, x = F
    F = np.full(8, 1e-20)
    assert np.array_equal(newton.solve(F), F) and newton.matvecs == 1
    newton.solve(rng.normal(0.0, 1e-9, 8))
    assert newton.iterations == 2 and 3 <= newton.matvecs <= 5


def test_far_residual_stops_at_the_forcing_term():
    _, G, spec, state = next(case for case in verify._battery(0) if case[0] == "path_20")
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


def test_stiff_battery_case_takes_no_halvings():
    _, G, spec, state = next(case for case in verify._battery(0) if case[0] == "path_20")
    cfg = IntegratorConfig(dt=0.5, T=100.0, newton_tol=1e-13, output_every=10**9)
    traj = simulate(G, spec, state, cfg)
    steps = 200
    assert traj.error is None and traj.halvings == 0
    assert traj.newton_iterations <= 7 * steps
    # ~117 products per step; 168 with the absolute stop alone
    assert traj.krylov_matvecs <= 140 * steps


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
