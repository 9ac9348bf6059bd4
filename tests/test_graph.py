import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graph_nls import (
    DisconnectedGraph,
    DuplicateEdge,
    NonInteriorDensity,
    NonPositiveWeight,
    SelfLoop,
    ConfigError,
    build_graph,
    build_path_lattice,
    build_torus,
    divergence,
    grad,
    inner_product,
    load_graph_json,
    save_graph_json,
    weighted_laplacian,
)
from graph_nls.graph import dense
from conftest import two_node, random_connected_graph, random_interior


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph(3, [(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)])


def test_build_rejects_nonpositive_weight():
    with pytest.raises(NonPositiveWeight):
        build_graph(2, [(0, 1, 0.0)])
    with pytest.raises(NonPositiveWeight):
        build_graph(2, [(0, 1, -2.0)])
    for weight in (float("nan"), float("inf")):
        with pytest.raises(NonPositiveWeight):
            build_graph(2, [(0, 1, weight)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        build_graph(2, [(0, 1, 1.0), (1, 0, 2.0)])


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])


def test_canonical_orientation():
    G = build_graph(3, [(2, 0, 1.0), (1, 0, 1.0)])
    assert np.all(G.ej < G.el)
    assert G.m == 2


def test_path_lattice_continuum_weights():
    G = build_path_lattice(20, -5.0, 5.0)
    dx = 10.0 / 19
    assert G.n == 20 and G.m == 19
    assert np.allclose(G.weights, 1.0 / dx**2)
    assert np.allclose(G.coords[:, 0], np.linspace(-5, 5, 20))


def test_path_lattice_constant_weights():
    G = build_path_lattice(5, 0.0, 1.0, weight_mode="constant", weight=3.0)
    assert np.allclose(G.weights, 3.0)


def test_lattice_weight_is_read_in_constant_mode_only():
    # a continuum lattice takes 1/dx^2, so a weight given with it is an error
    with pytest.raises(ConfigError):
        build_path_lattice(3, 0.0, 1.0, weight=-1.0)
    with pytest.raises(ConfigError):
        build_torus([4], 1.0, weight_mode="continuum", weight=2.0)
    assert np.allclose(build_path_lattice(3, 0.0, 1.0, weight_mode="constant").weights, 1.0)
    assert np.allclose(build_torus([4], 0.5, weight_mode="constant").weights, 1.0)


def test_continuum_weight_is_one_over_dx_squared_to_the_edge_of_the_float_range():
    # 1/dx^2 near 1.8e308 and near the smallest normal float are still weights
    for dx in (0.1, 0.37, 1.0, 7.5e-155, 1.3e154):
        assert np.all(build_torus([3], delta_x=dx).weights == 1.0 / dx**2)
    for dx in (1e-200, 1e200):
        with pytest.raises(ConfigError, match="lattice spacing"):
            build_torus([3], delta_x=dx)


def test_torus_1d_is_cycle():
    G = build_torus([8], 1.0)
    assert G.n == 8 and G.m == 8
    deg = np.zeros(8)
    np.add.at(deg, G.ej, 1)
    np.add.at(deg, G.el, 1)
    assert np.all(deg == 2)


def test_torus_2d_degree_four():
    G = build_torus([4, 4], 1.0)
    assert G.n == 16 and G.m == 32
    deg = np.zeros(16)
    np.add.at(deg, G.ej, 1)
    np.add.at(deg, G.el, 1)
    assert np.all(deg == 4)


def test_torus_dim_two_rejected():
    with pytest.raises(ConfigError):
        build_torus([2], 1.0)


def test_grad_two_node():
    G = two_node()
    v = grad(G, np.array([1.0, 0.0]))
    assert v[0] == 1.0


def test_grad_scales_with_sqrt_weight():
    G = two_node(w=4.0)
    v = grad(G, np.array([1.0, 0.0]))
    assert v[0] == 2.0


def test_grad_of_constant_is_zero(rng):
    for _ in range(5):
        G = random_connected_graph(rng)
        assert np.all(grad(G, np.full(G.n, 3.7)) == 0.0)


def test_divergence_two_node():
    G = two_node()
    rho = np.array([0.5, 0.5])
    v = grad(G, np.array([1.0, 0.0]))
    assert np.allclose(divergence(G, rho, v), [0.5, -0.5])


def test_divergence_of_zero_field(rng):
    G = random_connected_graph(rng)
    rho = random_interior(rng, G.n)
    assert np.all(divergence(G, rho, np.zeros(G.m)) == 0.0)


def test_divergence_sums_to_zero(rng):
    for _ in range(10):
        G = random_connected_graph(rng)
        rho = random_interior(rng, G.n)
        v = grad(G, rng.normal(0.0, 1.0, G.n))
        assert abs(divergence(G, rho, v).sum()) < 1e-14


@pytest.mark.parametrize(
    "rho, error",
    [([np.nan, 1.0], NonInteriorDensity), ([0.5, np.inf], NonInteriorDensity),
     ([0.5, 0.0], NonInteriorDensity), ([0.5, 0.5, 7.0], ConfigError)],
)
def test_divergence_and_inner_product_need_an_interior_density_on_the_graph(rho, error):
    # a NaN density once passed the positivity guard, and a third node on a
    # 2-node graph was read as nothing
    G = two_node()
    v = np.array([1.0])
    with pytest.raises(error):
        divergence(G, rho, v)
    with pytest.raises(error):
        inner_product(G, rho, v, v)


def test_inner_product_two_node():
    G = two_node()
    rho = np.array([0.5, 0.5])
    v = grad(G, np.array([1.0, 0.0]))
    assert inner_product(G, rho, v, v) == 0.5


def test_inner_product_with_zero(rng):
    G = random_connected_graph(rng)
    rho = random_interior(rng, G.n)
    v = rng.normal(0.0, 1.0, G.m)
    assert inner_product(G, rho, v, np.zeros(G.m)) == 0.0


@given(st.integers(0, 2**32 - 1))
def test_inner_product_symmetry(seed):
    rng = np.random.default_rng(seed)
    G = random_connected_graph(rng)
    rho = random_interior(rng, G.n)
    v = rng.normal(0.0, 1.0, G.m)
    u = rng.normal(0.0, 1.0, G.m)
    assert inner_product(G, rho, v, u) == pytest.approx(
        inner_product(G, rho, u, v), abs=1e-14
    )


def test_dirichlet_form_matches_laplacian(rng):
    # (grad S, grad S)_rho = S^T L(rho) S
    for _ in range(10):
        G = random_connected_graph(rng)
        rho = random_interior(rng, G.n)
        S = rng.normal(0.0, 1.0, G.n)
        v = grad(G, S)
        lhs = inner_product(G, rho, v, v)
        rhs = float(S @ weighted_laplacian(G, rho) @ S)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def dense_incidence(G):
    D = np.zeros((G.m, G.n))
    for e, (j, l) in enumerate(zip(G.ej, G.el)):
        D[e, j], D[e, l] = 1.0, -1.0
    return D


def test_incidence_methods_match_dense_incidence(rng):
    for _ in range(20):
        G = random_connected_graph(rng)
        D = dense_incidence(G)
        x = rng.normal(0.0, 1.0, G.n)
        f = rng.normal(0.0, 1.0, G.m)
        c = rng.uniform(0.1, 2.0, G.m)
        assert np.allclose(G.diff(x), D @ x, rtol=0, atol=1e-14)
        assert np.allclose(G.div(f), D.T @ f, rtol=0, atol=1e-14)
        assert np.allclose(G.sum_ends(f), np.abs(D).T @ f, rtol=0, atol=1e-14)
        assert np.allclose(G.laplacian(c), D.T @ np.diag(c) @ D, rtol=0, atol=1e-14)
        # skew pattern of the rhs Jacobian's A block: with g = |D| rho / 2,
        # d(D^T diag(w dS) g)/drho = D^T diag(f) |D| for f = w dS / 2
        A = dense(*G.edge_entries(G.div(f), f, -f), G.n)
        assert np.allclose(A, D.T @ np.diag(f) @ np.abs(D), rtol=0, atol=1e-14)


def test_graph_json_rejects_unknown_keys(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"n": 2, "edges": [[1, 2, 1.0]], "typo": 3}))
    with pytest.raises(ConfigError, match="typo"):
        load_graph_json(p)
    p.write_text(json.dumps([2, [[1, 2, 1.0]]]))
    with pytest.raises(ConfigError, match="JSON object"):
        load_graph_json(p)


def test_graph_json_missing_or_malformed_file_is_a_config_error(tmp_path):
    p = tmp_path / "g.json"
    with pytest.raises(ConfigError, match="cannot read graph"):
        load_graph_json(p)
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="cannot read graph"):
        load_graph_json(p)
    for data in ({"n": 2, "edges": [[1.9, 2.2, 1.0]]}, {"n": "2", "edges": [[1, 2, 1.0]]},
                 {"n": 2, "edges": [[1, 2]]}, {"n": 2, "edges": 5}):
        p.write_text(json.dumps(data))
        with pytest.raises(ConfigError):
            load_graph_json(p)


def test_graph_json_round_trip(tmp_path, rng):
    G = random_connected_graph(rng)
    p = tmp_path / "g.json"
    save_graph_json(G, p)
    data = json.loads(p.read_text())
    assert min(min(j, l) for j, l, _ in data["edges"]) == 1  # 1-based on disk
    G2 = load_graph_json(p)
    assert G2.n == G.n
    assert np.array_equal(G2.ej, G.ej)
    assert np.array_equal(G2.el, G.el)
    assert np.array_equal(G2.weights, G.weights)
