import numpy as np
import pytest

from graph_nls import (
    ConfigError,
    IntegratorConfig,
    NearSingular,
    NonZeroMean,
    PathSample,
    PotentialSpec,
    SystemState,
    build_graph,
    build_path_lattice,
    divergence,
    grad,
    hodge_decompose,
    inner_product,
    metric_tangent_norm,
    nelson_action,
    pseudo_inverse_apply,
    simulate,
    weighted_laplacian,
)
from graph_nls.energy import fisher_information
from conftest import two_node, random_connected_graph, random_interior


def test_weighted_laplacian_two_node():
    G = two_node()
    L = weighted_laplacian(G, np.array([0.5, 0.5]))
    assert np.allclose(L, [[0.5, -0.5], [-0.5, 0.5]])


def test_weighted_laplacian_uniform_scaling(rng):
    from graph_nls.stability import plain_laplacian

    for _ in range(5):
        G = random_connected_graph(rng)
        n = G.n
        L = weighted_laplacian(G, np.full(n, 1.0 / n))
        assert np.abs(L - plain_laplacian(G) / n).max() < 1e-14


def test_laplacian_kernel_is_constants(rng):
    G = random_connected_graph(rng)
    rho = random_interior(rng, G.n)
    L = weighted_laplacian(G, rho)
    assert np.abs(L @ np.ones(G.n)).max() < 1e-13
    # the grounded block is positive definite, so the kernel is only the
    # constants: Cholesky succeeds
    np.linalg.cholesky(L[1:, 1:])


def test_pseudo_inverse_zero():
    G = two_node()
    Lap = weighted_laplacian(G, np.array([0.5, 0.5]))
    assert np.all(pseudo_inverse_apply(Lap, np.zeros(2)) == 0.0)


def test_pseudo_inverse_two_node():
    G = two_node()
    Lap = weighted_laplacian(G, np.array([0.5, 0.5]))
    S = pseudo_inverse_apply(Lap, np.array([0.5, -0.5]))
    assert np.allclose(S, [0.5, -0.5])


def test_pseudo_inverse_left_inverse(rng):
    for _ in range(10):
        G = random_connected_graph(rng)
        rho = random_interior(rng, G.n)
        Lap = weighted_laplacian(G, rho)
        b = rng.normal(0.0, 1.0, G.n)
        b -= b.mean()
        S = pseudo_inverse_apply(Lap, b)
        assert np.abs(Lap @ S - b).max() < 1e-10
        assert abs(S.sum()) < 1e-10


def test_pseudo_inverse_rejects_nonzero_mean():
    G = two_node()
    Lap = weighted_laplacian(G, np.array([0.5, 0.5]))
    with pytest.raises(NonZeroMean):
        pseudo_inverse_apply(Lap, np.array([1.0, 0.0]))


@pytest.mark.parametrize("b", [[0.5, -0.5, 0.0], [0.5], [np.nan, 0.0], [np.inf, -np.inf]])
def test_pseudo_inverse_rejects_bad_right_hand_side(b):
    # a wrong length or a non-finite entry is the caller's error, not a
    # numpy ValueError or an all-NaN solution
    G = two_node()
    with pytest.raises(ConfigError):
        pseudo_inverse_apply(weighted_laplacian(G, np.array([0.5, 0.5])), np.array(b))


@pytest.mark.parametrize("w", [1e-40, 1e-25])
def test_hodge_near_singular_laplacian(w):
    # the first edge's conductance w * 1e-290 underflows to zero (a second
    # kernel vector of L(rho)) or to a subnormal number with a few digits
    G = build_graph(3, [(0, 1, w), (1, 2, 1.0)])
    rho = np.array([1e-290, 1e-290, 1.0])
    with pytest.raises(NearSingular):
        hodge_decompose(G, rho, np.array([1.0, 1.0]))


def test_hodge_gradient_field_recovered(rng):
    G = random_connected_graph(rng)
    rho = random_interior(rng, G.n)
    S0 = rng.normal(0.0, 1.0, G.n)
    S, u = hodge_decompose(G, rho, grad(G, S0))
    assert np.abs(u).max() < 1e-10
    assert np.abs(S - (S0 - S0.mean())).max() < 1e-10


def test_hodge_on_tree_has_no_rotational_part(rng):
    # a rho-divergence-free flux on a tree vanishes edge by edge
    for _ in range(10):
        n = int(rng.integers(2, 7))
        order = rng.permutation(n)
        edges = []
        for a, b in zip(order[:-1], order[1:]):
            edges.append((int(min(a, b)), int(max(a, b)), float(rng.uniform(0.5, 2))))
        G = build_graph(n, edges)
        rho = random_interior(rng, n)
        v = rng.normal(0.0, 1.0, G.m)
        _, u = hodge_decompose(G, rho, v)
        assert np.abs(u).max() < 1e-10
    # a Gaussian density whose tails fall d/2 decades below its peak
    G = build_path_lattice(20, -5, 5)
    x = G.coords[:, 0]
    for d in (30, 60):
        rho = np.exp(-(d / 2) * np.log(10) * (x / 5) ** 2)
        rho /= rho.sum()
        _, u = hodge_decompose(G, rho, rng.normal(0.0, 1.0, G.m))
        assert np.abs(u).max() <= 1e-10


def test_hodge_triangle_rotational():
    G = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    rho = np.full(3, 1.0 / 3.0)
    # constant circulation around the cycle: +1 on (0,1), (1,2), -1 on (0,2)
    v = np.zeros(G.m)
    idx = {(int(j), int(l)): e for e, (j, l) in enumerate(zip(G.ej, G.el))}
    v[idx[(0, 1)]] = 1.0
    v[idx[(1, 2)]] = 1.0
    v[idx[(0, 2)]] = -1.0
    S, u = hodge_decompose(G, rho, v)
    assert np.abs(S).max() < 1e-12
    assert np.allclose(u, v)


def test_hodge_orthogonality(rng):
    for _ in range(20):
        G = random_connected_graph(rng)
        rho = random_interior(rng, G.n)
        v = rng.normal(0.0, 1.0, G.m)
        S, u = hodge_decompose(G, rho, v)
        assert np.abs(divergence(G, rho, u)).max() < 1e-10
        assert abs(inner_product(G, rho, grad(G, S), u)) < 1e-10


def test_metric_tangent_norm_zero():
    G = two_node()
    assert metric_tangent_norm(G, np.array([0.5, 0.5]), np.zeros(2)) == 0.0


def test_metric_tangent_norm_two_node():
    G = two_node()
    val = metric_tangent_norm(G, np.array([0.5, 0.5]), np.array([1.0, -1.0]))
    assert val == pytest.approx(2.0, rel=1e-12)


def test_metric_tangent_norm_matches_dirichlet(rng):
    G = random_connected_graph(rng)
    rho = random_interior(rng, G.n)
    rho_dot = rng.normal(0.0, 1.0, G.n)
    rho_dot -= rho_dot.mean()
    Lap = weighted_laplacian(G, rho)
    S = pseudo_inverse_apply(Lap, rho_dot)
    v = grad(G, S)
    assert metric_tangent_norm(G, rho, rho_dot) == pytest.approx(
        inner_product(G, rho, v, v), abs=1e-10
    )


def test_path_sample_validation():
    with pytest.raises(ConfigError):
        PathSample(np.array([0.0]), np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ConfigError):
        PathSample(np.array([0.0, 0.0]), np.zeros((2, 2)), np.zeros((2, 2)))


@pytest.mark.parametrize("rhos, Ss", [
    ([[0.5, 0.5], [0.5, 0.5]], [0.0, 0.0]),  # one phase per time, not per node
    ([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]]),
    ([[[0.5, 0.5]], [[0.5, 0.5]]], [[[0.0, 0.0]], [[0.0, 0.0]]]),
])
def test_path_sample_rejects_arrays_of_the_wrong_rank(rhos, Ss):
    # a 1-D phase array raised IndexError from its missing second axis
    with pytest.raises(ConfigError):
        PathSample([0.0, 1.0], rhos, Ss)


def test_nelson_action_constant_path():
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    rho0 = np.array([0.75, 0.25])
    times = np.linspace(0.0, 1.0, 11)
    path = PathSample(times, np.tile(rho0, (11, 1)), np.zeros((11, 2)))
    expected = -1.0 / 8.0 * fisher_information(G, rho0)
    assert nelson_action(G, spec, path) == pytest.approx(expected, rel=1e-12)


def test_nelson_action_constant_uniform_zero():
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    times = np.linspace(0.0, 1.0, 5)
    path = PathSample(times, np.full((5, 2), 0.5), np.zeros((5, 2)))
    assert nelson_action(G, spec, path) == 0.0


def test_nelson_action_stationary_on_trajectory():
    # first-order response of the action vanishes along a dynamical path but
    # not along an arbitrary one.  Admissible variations keep the continuity
    # constraint, so the phase of each perturbed path is rebuilt from its own
    # density derivative instead of being varied independently.
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    cfg = IntegratorConfig(dt=1e-3, T=1.0, newton_tol=1e-13, output_every=1)
    traj = simulate(
        G, spec, SystemState(np.array([0.55, 0.45]), np.array([0.1, -0.1])), cfg
    )
    times = np.asarray(traj.times)
    rhos = np.asarray(traj.rhos)

    def action_of_rhos(rr):
        rdot = np.gradient(rr, times, axis=0)
        Ss = np.array(
            [
                pseudo_inverse_apply(weighted_laplacian(G, r), d)
                for r, d in zip(rr, rdot)
            ]
        )
        return nelson_action(G, spec, PathSample(times, rr, Ss))

    # windowed mean-zero density perturbation, endpoints fixed
    drho = np.sin(np.pi * times)[:, None] * np.array([1.0, -1.0]) * 0.2
    eps = 1e-3
    slope = (action_of_rhos(rhos + eps * drho) - action_of_rhos(rhos - eps * drho)) / (
        2 * eps
    )
    # comparison path: linear interpolation between the same endpoints
    lin = rhos[0] + (rhos[-1] - rhos[0]) * (times / times[-1])[:, None]
    slope_lin = (action_of_rhos(lin + eps * drho) - action_of_rhos(lin - eps * drho)) / (
        2 * eps
    )
    assert abs(slope) < 1e-4
    assert abs(slope_lin) > 100 * abs(slope)
