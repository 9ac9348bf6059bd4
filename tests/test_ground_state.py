import tracemalloc
import warnings

import numpy as np
import pytest

from graph_nls import (
    ConfigError,
    GraphNLSError,
    MaxIterations,
    PotentialSpec,
    build_path_lattice,
    build_torus,
    eigen_residual,
    ground_energy,
    ground_gradient,
    hamiltonian,
    solve_ground_state,
)
from graph_nls.energy import interaction_energy, potentials_from_dict
from graph_nls import ground_state
from graph_nls.ground_state import NonConvexWarning, min_interaction_eigenvalue
from conftest import cycle_graph, two_node, random_connected_graph, random_interior


def fd_gradient(f, x, step=1e-6):
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def test_ground_energy_is_zero_phase_hamiltonian(rng):
    G = random_connected_graph(rng)
    spec = PotentialSpec(
        rng.normal(0.0, 1.0, G.n), np.zeros((G.n, G.n)), float(rng.uniform(0.3, 1.5))
    )
    rho = random_interior(rng, G.n)
    assert ground_energy(G, spec, rho) == pytest.approx(
        hamiltonian(G, spec, rho, np.zeros(G.n)), rel=1e-13
    )


def test_ground_gradient_matches_fd(rng):
    G = random_connected_graph(rng)
    A = rng.normal(0.0, 0.5, (G.n, G.n))
    spec = PotentialSpec(rng.normal(0.0, 1.0, G.n), A @ A.T / G.n, 0.8)
    rho = random_interior(rng, G.n)
    g = ground_gradient(G, spec, rho)
    fd = fd_gradient(lambda r: ground_energy(G, spec, r), rho)
    assert np.abs(g - fd).max() / max(1.0, np.abs(g).max()) < 1e-6


def test_two_node_constant_potential():
    G = two_node()
    c = 3.2
    spec = PotentialSpec(np.full(2, c), np.zeros((2, 2)), 1.0)
    res = solve_ground_state(G, spec)
    assert np.abs(res.rho_g - 0.5).max() <= 1e-10
    assert res.nu == pytest.approx(c, abs=1e-10)
    assert res.kkt_residual <= 1e-10
    assert res.unique


def test_gpe_uniform_ground_state():
    n, alpha = 6, 2.0
    G = cycle_graph(n)
    spec = PotentialSpec.gpe(n, alpha, 1.0)
    res = solve_ground_state(G, spec)
    assert np.abs(res.rho_g - 1.0 / n).max() <= 1e-10
    assert res.nu == pytest.approx(alpha / n, abs=1e-9)


def test_multiplier_consistency(rng):
    # nu = E(sqrt(rho_g)) + E_int(sqrt(rho_g))
    G = random_connected_graph(rng)
    spec = PotentialSpec(
        np.abs(rng.normal(0.0, 1.0, G.n)), 0.5 * np.eye(G.n), 1.0
    )
    res = solve_ground_state(G, spec, tol=1e-11)
    expected = res.energy + interaction_energy(spec, res.rho_g)
    assert abs(res.nu - expected) <= 1e-10


def test_harmonic_sweep_concentration():
    G = build_path_lattice(20, -5.0, 5.0)
    center_masses = []
    for h in [1.0, 0.1, 0.01]:
        spec = potentials_from_dict(
            {"V": {"kind": "harmonic", "coefficient": 0.5}, "W": {"kind": "zero"},
             "h": h},
            n=G.n, coords=G.coords,
        )
        res = solve_ground_state(G, spec)
        rho = res.rho_g
        assert res.kkt_residual <= 1e-10
        assert np.abs(rho - rho[::-1]).max() < 1e-8  # symmetric
        assert np.all(np.diff(rho[:10]) > 0)  # unimodal
        assert np.all(np.diff(rho[10:]) < 0)
        center_masses.append(rho[8:12].sum())
    assert center_masses[0] < center_masses[1] < center_masses[2]


def test_monotone_descent_and_interior(rng):
    G = random_connected_graph(rng)
    spec = PotentialSpec(rng.normal(0.0, 2.0, G.n), np.zeros((G.n, G.n)), 0.5)
    init = random_interior(rng, G.n)
    res = solve_ground_state(G, spec, init=init)
    assert res.rho_g.min() > 0.0
    assert res.energy <= ground_energy(G, spec, init) + 1e-12


def test_nonconvex_interaction_flagged():
    G = two_node()
    spec = PotentialSpec(np.zeros(2), -1.5 * np.eye(2), 1.0)
    with pytest.warns(NonConvexWarning):
        res = solve_ground_state(G, spec)
    assert not res.unique


def test_nonconvex_dense_interaction_flagged():
    # off-diagonal and indefinite (eigenvalues 1.5 and -0.5), no negative entry
    G = two_node()
    W = np.array([[0.5, 1.0], [1.0, 0.5]])
    assert min_interaction_eigenvalue(W) == pytest.approx(-0.5, abs=1e-14)
    with pytest.warns(NonConvexWarning):
        res = solve_ground_state(G, PotentialSpec(np.zeros(2), W, 1.0))
    assert not res.unique


def test_nan_gradient_is_not_converged(monkeypatch):
    # a NaN residual compares false against the tolerance either way round
    monkeypatch.setattr(
        ground_state, "ground_gradient", lambda G, spec, rho: np.full(G.n, np.nan)
    )
    G = build_path_lattice(5, -2.0, 2.0)
    with pytest.raises(GraphNLSError):
        solve_ground_state(G, PotentialSpec(np.linspace(0.0, 1.0, 5), np.zeros((5, 5)), 1.0))


def test_nan_gradient_raises_max_iterations(monkeypatch):
    monkeypatch.setattr(
        ground_state, "ground_gradient", lambda G, spec, rho: np.full(G.n, np.nan)
    )
    G = build_path_lattice(5, -2.0, 2.0)
    with pytest.raises(MaxIterations) as info:
        solve_ground_state(G, PotentialSpec(np.linspace(0.0, 1.0, 5), np.zeros((5, 5)), 1.0))
    partial = info.value.result
    assert np.isfinite(partial.rho_g).all() and partial.rho_g.min() > 0
    assert abs(partial.rho_g.sum() - 1.0) < 1e-12
    assert np.isfinite(partial.energy)


def test_eigen_residual_converged_cases():
    G = two_node()
    spec = PotentialSpec(np.full(2, 1.1), np.zeros((2, 2)), 1.0)
    res = solve_ground_state(G, spec, tol=1e-11)
    assert eigen_residual(G, spec, res) <= 1e-10

    n, alpha = 5, 1.0
    Gc = cycle_graph(n)
    gpe = PotentialSpec.gpe(n, alpha, 1.0)
    res2 = solve_ground_state(Gc, gpe, tol=1e-11)
    assert eigen_residual(Gc, gpe, res2) <= 1e-10


def test_eigen_residual_grows_off_minimum():
    G = two_node()
    spec = PotentialSpec(np.full(2, 1.1), np.zeros((2, 2)), 1.0)
    res = solve_ground_state(G, spec, tol=1e-11)
    base = eigen_residual(G, spec, res)
    perturbed = 0.99 * res.rho_g + 0.01 * np.array([1.0, 0.0])
    fake = type(res)(
        rho_g=perturbed / perturbed.sum(),
        nu=res.nu,
        energy=res.energy,
        kkt_residual=res.kkt_residual,
        iterations=res.iterations,
    )
    assert eigen_residual(G, spec, fake) > base


def test_matrix_free_newton_phase_peaks_below_2_5_bordered_arrays(monkeypatch):
    """The matrix-free _newton_phase runs on a 32 x 32 trap and keeps its
    traced peak below 2.5 (n+1)^2 doubles: under the bordered (n+1)^2
    system and the factored copy that a dense Newton solve would hold."""
    G = build_torus([32, 32])
    x, y = G.coords.T
    spec = PotentialSpec(5e-4 * ((x - 15.5) ** 2 + (y - 15.5) ** 2), np.ones(G.n), 0.5)
    polished = []
    real = ground_state._newton_phase
    monkeypatch.setattr(ground_state, "_newton_phase",
                        lambda *args: polished.append(None) or real(*args))
    tracemalloc.start()
    try:
        res = solve_ground_state(G, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert polished and res.kkt_residual <= 1e-10
    assert peak < 2.5 * (G.n + 1) ** 2 * 8


def harmonic_trap(n, x_min, x_max, h):
    G = build_path_lattice(n, x_min, x_max)
    spec = potentials_from_dict(
        {"V": {"kind": "harmonic", "coefficient": 0.5}, "W": {"kind": "zero"}, "h": h},
        n=G.n, coords=G.coords,
    )
    return G, spec


def test_fine_trap_with_deep_tails_converges_without_overflow():
    # the 1e-26 tails once overflowed rho**2 in the Fisher Hessian: a NaN
    # iterate, then "density has a non-finite entry" and no result at all
    G, spec = harmonic_trap(160, -8.0, 8.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve_ground_state(G, spec)
    assert res.kkt_residual <= 1e-10 and eigen_residual(G, spec, res) <= 1e-8
    assert res.rho_g.min() < 1e-20 and abs(res.rho_g.sum() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "n, x_min, x_max, h, max_iterations",
    [
        (320, -5.0, 5.0, 0.5, 1000),
        (320, -5.0, 5.0, 1.0, 200),
        (81, -8.0, 8.0, 1.0, 1000),
        (20, -5.0, 5.0, 0.005, 1000),  # the pinned harmonic_lattice graph
        (20, -5.0, 5.0, 0.002, 1000),
        (20, -5.0, 5.0, 0.001, 1000),
    ],
)
def test_traps_at_fine_resolution_and_small_h_converge(n, x_min, x_max, h, max_iterations):
    G, spec = harmonic_trap(n, x_min, x_max, h)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve_ground_state(G, spec)
    assert res.kkt_residual <= 1e-10 and res.iterations <= max_iterations
    assert eigen_residual(G, spec, res) <= 1e-8
    rho = res.rho_g
    assert np.abs(rho - rho[::-1]).max() < 1e-8 and np.argmax(rho) in (n // 2 - 1, n // 2)


def trap_32x32(h):
    G = build_torus([32, 32])
    x, y = G.coords.T
    return G, PotentialSpec(5e-4 * ((x - 15.5) ** 2 + (y - 15.5) ** 2), np.ones(G.n), h)


@pytest.mark.parametrize("h", [1.0, 0.5])
def test_solver_work_is_recorded(h):
    G, spec = trap_32x32(h)
    res = solve_ground_state(G, spec)
    assert res.kkt_residual <= 1e-10
    assert 0 < res.iterations <= 100 and res.cg_products > res.iterations
    assert res.fallback_steps == 0


def test_failed_newton_step_falls_back_to_a_mirror_step(monkeypatch):
    G, spec = harmonic_trap(20, -5.0, 5.0, 1.0)
    real = ground_state._newton_direction
    calls = []

    def uphill_once(*args):
        du, products = real(*args)
        calls.append(None)
        return (-du if len(calls) == 1 else du), products

    monkeypatch.setattr(ground_state, "_newton_direction", uphill_once)
    res = solve_ground_state(G, spec)
    assert res.fallback_steps == 1 and res.kkt_residual <= 1e-10


@pytest.mark.parametrize("n, x_min, x_max, h", [(160, -8.0, 8.0, 1.0), (20, -5.0, 5.0, 0.001)])
def test_unreachable_tolerance_stops_on_a_stall(n, x_min, x_max, h):
    # roundoff keeps the KKT residual near 1e-13; the solve stops on its
    # own long before max_iter, with its best iterate
    G, spec = harmonic_trap(n, x_min, x_max, h)
    with pytest.raises(MaxIterations) as info:
        solve_ground_state(G, spec, tol=1e-17, max_iter=5000)
    partial = info.value.result
    assert partial.iterations < 1000 and partial.kkt_residual < 1e-10
    assert np.isfinite(partial.rho_g).all() and abs(partial.rho_g.sum() - 1.0) < 1e-12


def test_log_hessian_is_the_density_scaled_static_hessian(rng):
    from graph_nls.energy import static_hessian_entries, static_log_hessian_entries
    from graph_nls.graph import dense

    for _ in range(5):
        G = random_connected_graph(rng)
        rho = random_interior(rng, G.n)
        A = rng.normal(0.0, 0.5, (G.n, G.n))
        for W in (rng.uniform(-1.0, 1.0, G.n), A @ A.T / G.n):
            spec = PotentialSpec(rng.normal(0.0, 1.0, G.n), W, 0.7)
            hessian = dense(*static_hessian_entries(G, spec, rho), G.n)
            scaled = rho[:, None] * hessian * rho[None, :]
            log_h = dense(*static_log_hessian_entries(G, spec, rho), G.n)
            assert np.abs(log_h - scaled).max() <= 1e-13 * np.abs(scaled).max()
    # no entry divides by rho: a density of 1e-200 leaves every entry finite
    G = cycle_graph(4)
    rho = np.array([1e-200, 0.5, 0.5, 1e-200])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows, cols, vals = static_log_hessian_entries(G, PotentialSpec.gpe(4, 1.0), rho)
    assert np.isfinite(vals).all()


@pytest.mark.parametrize("tol, max_iter", [(0.0, 1000), (-1e-10, 1000), (np.nan, 1000),
                                           (np.inf, 1000), (1e-10, 0), (1e-10, -5)])
def test_bad_tolerance_or_iteration_cap_is_a_config_error(tol, max_iter):
    G, spec = harmonic_trap(5, -2.0, 2.0, 1.0)
    with pytest.raises(ConfigError):
        solve_ground_state(G, spec, tol=tol, max_iter=max_iter)


def test_result_says_why_the_solve_stopped(monkeypatch):
    G, spec = harmonic_trap(20, -5.0, 5.0, 1.0)
    assert solve_ground_state(G, spec).stop_reason == "tolerance"
    with pytest.raises(MaxIterations, match="max_iter after 1 iterations") as info:
        solve_ground_state(G, spec, max_iter=1)
    assert info.value.result.stop_reason == "max_iter"
    G, spec = harmonic_trap(20, -5.0, 5.0, 0.001)
    with pytest.raises(MaxIterations, match="stall") as info:
        solve_ground_state(G, spec, tol=1e-17, max_iter=5000)
    assert info.value.result.stop_reason == "stall"
    monkeypatch.setattr(
        ground_state, "ground_gradient", lambda G, spec, rho: np.full(G.n, np.nan)
    )
    with pytest.raises(MaxIterations, match="non_finite") as info:
        solve_ground_state(G, spec)
    assert info.value.result.stop_reason == "non_finite"


def test_a_solve_stopped_short_returns_its_best_iterate():
    # the pinned lattice at h = 1 reaches a KKT residual near 2e-14, then
    # roundoff moves it off again before the solve stalls
    G, spec = harmonic_trap(20, -5.0, 5.0, 1.0)
    with pytest.raises(MaxIterations, match="stall") as info:
        solve_ground_state(G, spec, tol=1e-300)
    best = info.value.result
    assert best.kkt_residual <= 1e-12
    # rho_g, energy, nu and the residual all belong to that one iterate
    assert ground_energy(G, spec, best.rho_g) == best.energy
    assert ground_state._kkt(ground_gradient(G, spec, best.rho_g), best.rho_g) == (
        best.nu, best.kkt_residual)


def test_a_fallback_that_finds_no_step_stops_the_solve(monkeypatch):
    G, spec = harmonic_trap(20, -5.0, 5.0, 1.0)
    monkeypatch.setattr(ground_state, "_newton_step", lambda *args: None)
    with pytest.raises(MaxIterations, match="no_step after 1 iterations") as info:
        solve_ground_state(G, spec)
    res = info.value.result
    assert res.stop_reason == "no_step" and res.fallback_steps == 1
    assert np.array_equal(res.rho_g, np.full(G.n, 1.0 / G.n))
