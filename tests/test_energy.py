import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graph_nls import (
    ConfigError,
    NonInteriorDensity,
    PotentialSpec,
    build_graph,
    fisher_gradient,
    fisher_hessian,
    fisher_information,
    hamiltonian,
    interaction_energy,
    potential_energy,
    to_wave,
    wave_energy_components,
    SystemState,
)
from graph_nls.energy import (
    energy_terms,
    normalization_integrand,
    potentials_from_dict,
    static_gradient,
    static_hessian_entries,
    static_log_hessian_entries,
)
from graph_nls.graph import dense
from graph_nls.stability import plain_laplacian
from conftest import (
    cycle_graph,
    two_node,
    random_connected_graph,
    random_interior,
)


def fd_gradient(f, x, step=1e-5):
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def test_fisher_uniform_is_zero():
    G = two_node()
    assert fisher_information(G, np.array([0.5, 0.5])) == 0.0


def test_fisher_two_node_value():
    G = two_node()
    # direct summation oracle: w * (log 3)^2 * g with g = 1/2
    assert fisher_information(G, np.array([0.75, 0.25])) == pytest.approx(
        np.log(3.0) ** 2 / 2.0, rel=1e-14
    )


def test_fisher_homogeneity(rng):
    for _ in range(10):
        G = random_connected_graph(rng)
        rho = rng.uniform(0.1, 2.0, G.n)
        c = float(rng.uniform(0.2, 5.0))
        assert fisher_information(G, c * rho) == pytest.approx(
            c * fisher_information(G, rho), rel=1e-12
        )


def test_fisher_nonnegative_zero_iff_uniform(rng):
    for _ in range(10):
        G = random_connected_graph(rng)
        rho = random_interior(rng, G.n)
        I = fisher_information(G, rho)
        assert I >= 0.0
    G = cycle_graph(5)
    assert fisher_information(G, np.full(5, 0.2)) == 0.0


def test_fisher_rejects_boundary():
    G = two_node()
    with pytest.raises(NonInteriorDensity):
        fisher_information(G, np.array([1.0, 0.0]))


def test_fisher_gradient_uniform_zero():
    G = cycle_graph(6)
    assert np.allclose(fisher_gradient(G, np.full(6, 1 / 6)), 0.0)


def test_fisher_gradient_matches_fd(rng):
    G = cycle_graph(4)
    for _ in range(5):
        rho = random_interior(rng, 4)
        g = fisher_gradient(G, rho)
        fd = fd_gradient(lambda r: fisher_information(G, r), rho)
        scale = max(1.0, np.abs(g).max())
        assert np.abs(g - fd).max() / scale < 1e-6


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fisher_euler_identity(seed):
    rng = np.random.default_rng(seed)
    G = random_connected_graph(rng)
    rho = rng.uniform(0.1, 2.0, G.n)
    I = fisher_information(G, rho)
    assert abs(fisher_gradient(G, rho) @ rho - I) <= 1e-10 * max(1.0, abs(I))


def test_fisher_hessian_uniform_is_2nL(rng):
    for _ in range(5):
        G = random_connected_graph(rng)
        n = G.n
        H = fisher_hessian(G, np.full(n, 1.0 / n))
        assert np.abs(H - 2 * n * plain_laplacian(G)).max() < 1e-12


def test_fisher_hessian_two_node():
    G = two_node()
    H = fisher_hessian(G, np.array([0.5, 0.5]))
    assert np.allclose(H, [[4.0, -4.0], [-4.0, 4.0]])


def test_fisher_hessian_matches_fd(rng):
    G = random_connected_graph(rng)
    rho = random_interior(rng, G.n)
    H = fisher_hessian(G, rho)
    scale = max(1.0, np.abs(H).max())
    for j in range(G.n):
        e = np.zeros(G.n)
        e[j] = 1e-5
        col = (fisher_gradient(G, rho + e) - fisher_gradient(G, rho - e)) / 2e-5
        assert np.abs(H[:, j] - col).max() / scale < 1e-5


def test_fisher_hessian_positive_on_tangent(rng):
    # strict convexity on the mean-zero tangent space
    for _ in range(5):
        G = random_connected_graph(rng)
        if G.n < 2:
            continue
        rho = random_interior(rng, G.n)
        H = fisher_hessian(G, rho)
        P = np.eye(G.n) - np.full((G.n, G.n), 1.0 / G.n)
        vals = np.linalg.eigvalsh(P @ H @ P)
        assert vals[-1] > 0
        assert sorted(vals)[1] > 1e-10  # only the projected-out direction is null


def test_fisher_blowup_toward_boundary():
    G = cycle_graph(4)
    last = -np.inf
    for eps in [1e-3, 1e-4, 1e-5, 1e-6, 1e-8]:
        rho = np.full(4, (1.0 - eps) / 3.0)
        rho[-1] = eps
        I = fisher_information(G, rho)
        assert I > last
        last = I


def test_potential_energy_constant_V(rng):
    spec = PotentialSpec(np.full(4, 2.5), np.zeros((4, 4)), 1.0)
    rho = random_interior(rng, 4)
    assert potential_energy(spec, rho) == pytest.approx(2.5, rel=1e-14)


def test_interaction_energy_gpe_uniform():
    n, alpha = 5, 0.7
    spec = PotentialSpec.gpe(n, alpha, 1.0)
    assert interaction_energy(spec, np.full(n, 1.0 / n)) == pytest.approx(
        alpha / (2 * n), rel=1e-14
    )
    zero = PotentialSpec.free(n, 1.0)
    assert interaction_energy(zero, np.full(n, 1.0 / n)) == 0.0


def test_hamiltonian_two_node_kinetic_only():
    G = two_node()
    spec = PotentialSpec.free(2, 1.0)
    H = hamiltonian(G, spec, np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert H == pytest.approx(0.25, rel=1e-14)


def test_hamiltonian_uniform_constant_zero():
    G = cycle_graph(5)
    spec = PotentialSpec.free(5, 1.0)
    assert hamiltonian(G, spec, np.full(5, 0.2), np.full(5, 9.0)) == 0.0


def test_hamiltonian_gauge_shift(rng):
    G = random_connected_graph(rng)
    spec = PotentialSpec.free(G.n, 0.7)
    rho = random_interior(rng, G.n)
    S = rng.normal(0.0, 1.0, G.n)
    assert hamiltonian(G, spec, rho, S) == pytest.approx(
        hamiltonian(G, spec, rho, S + 11.0), rel=1e-12
    )


def test_wave_energy_equals_hamiltonian(rng):
    for _ in range(10):
        G = random_connected_graph(rng)
        h = float(rng.uniform(0.3, 1.5))
        V = rng.normal(0.0, 1.0, G.n)
        A = rng.normal(0.0, 0.5, (G.n, G.n))
        spec = PotentialSpec(V, (A + A.T) / 2, h)
        rho = random_interior(rng, G.n)
        S = rng.normal(0.0, 0.2 * h, G.n)  # principal-branch safe
        psi = to_wave(SystemState(rho, S), h)
        _, _, _, total = wave_energy_components(G, spec, psi)
        assert total == pytest.approx(hamiltonian(G, spec, rho, S), abs=1e-12)


def test_wave_energy_uniform_zero():
    G = cycle_graph(4)
    spec = PotentialSpec.free(4, 1.0)
    psi = np.full(4, 0.5 + 0j)
    e_kin, e_pot, e_int, total = wave_energy_components(G, spec, psi)
    assert e_kin == e_pot == e_int == total == 0.0


def test_wave_energy_gpe_interaction():
    n, alpha = 4, 1.3
    G = cycle_graph(n)
    spec = PotentialSpec.gpe(n, alpha, 1.0)
    psi = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    _, _, e_int, _ = wave_energy_components(G, spec, psi)
    assert e_int == pytest.approx(alpha / (2 * n), rel=1e-14)


def test_potentials_from_dict_kinds():
    spec = potentials_from_dict(
        {"V": {"kind": "constant", "value": 2.0}, "W": {"kind": "diagonal", "alpha": 3.0},
         "h": 0.5},
        n=3,
    )
    assert np.allclose(spec.V, 2.0)
    assert np.allclose(spec.W, 3.0 * np.eye(3))
    assert spec.h == 0.5


@pytest.mark.parametrize(
    "data, key",
    [
        ({"V": [0.0] * 3, "W": {"kind": "zero"}, "h": 1.0, "typo": 5}, "typo"),
        ({"V": {"kind": "harmonic", "coefficent": 3.0}, "W": {"kind": "zero"}}, "coefficent"),
        ({"V": {"kind": "constant", "value": 1.0, "alpha": 2.0}, "W": {"kind": "zero"}},
         "alpha"),
        ({"V": [0.0] * 3, "W": {"kind": "diagonal", "alpha": 1.0, "beta": 2.0}}, "beta"),
        ({"V": [0.0] * 3, "W": {"kind": "dense", "matrix": np.eye(3).tolist(), "alpha": 1.0}},
         "alpha"),
        ({"V": [0.0] * 3, "W": {"kind": "zero"}, "h": "1"}, "h"),
        ({"V": [0.0] * 3, "W": {"kind": "diagonal", "alpha": True}}, "alpha"),
        ({"V": {"kind": "constant", "value": "2"}, "W": {"kind": "zero"}}, "value"),
    ],
)
def test_potentials_from_dict_applies_the_config_rules(data, key):
    coords = np.arange(3.0)
    with pytest.raises(ConfigError, match=key):
        potentials_from_dict(data, n=3, coords=coords)


@pytest.mark.parametrize("V", [[0.0, "1", 0.0], [True, False, True]])
def test_potentials_from_dict_rejects_a_V_list_of_non_numbers(V):
    with pytest.raises(ConfigError):
        potentials_from_dict({"V": V, "W": {"kind": "zero"}}, n=3)


def test_potential_spec_rejects_asymmetric_W():
    W = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConfigError):
        PotentialSpec(np.zeros(2), W, 1.0)


@pytest.mark.parametrize("V", [np.zeros((2, 2)), np.zeros((2, 1)), np.float64(0.0)])
def test_potential_spec_rejects_V_that_is_not_a_vector(V):
    with pytest.raises(ConfigError, match="one number per node"):
        PotentialSpec(V, np.zeros((2, 2)), 1.0)


def test_symmetry_check_is_relative_to_the_largest_entry():
    # a relative gap of 9e-6 breaks energy conservation of the flow
    with pytest.raises(ConfigError):
        PotentialSpec(np.zeros(2), np.array([[0.0, 1.0], [1.000009, 0.0]]), 1.0)
    with pytest.raises(ConfigError):
        PotentialSpec(np.zeros(2), np.array([[0.0, 0.0], [2e-12, 0.0]]), 1.0)
    # roundoff-sized gaps pass at any scale
    PotentialSpec(np.zeros(2), np.array([[0.0, 1e6], [1e6 + 1e-7, 0.0]]), 1.0)
    PotentialSpec(np.zeros(2), np.array([[0.0, 0.0], [5e-13, 0.0]]), 1.0)


@pytest.mark.parametrize("W", ["zero", "diagonal", "dense"])
def test_static_hessian_entries_match_fd_of_static_gradient(rng, W):
    for _ in range(5):
        G = random_connected_graph(rng)
        n = G.n
        A = rng.normal(0.0, 0.5, (n, n))
        interaction = {"zero": np.zeros(n), "diagonal": rng.uniform(-1.0, 1.0, n),
                       "dense": A + A.T}[W]
        spec = PotentialSpec(rng.normal(0.0, 1.0, n), interaction, float(rng.uniform(0.3, 1.5)))
        rho = random_interior(rng, n)
        rows, cols, vals = static_hessian_entries(G, spec, rho)
        fd = np.array([
            (static_gradient(G, spec, rho + e) - static_gradient(G, spec, rho - e)) / 2e-5
            for e in 1e-5 * np.eye(n)
        ]).T
        scale = max(1.0, np.abs(fd).max())
        H = dense(rows, cols, vals, n)
        assert np.abs(H - fd).max() / scale < 1e-5
        # a product with the entries is one gather and one scatter
        for x in rng.normal(0.0, 1.0, (3, n)):
            Hx = np.bincount(rows, vals * x[cols], n)
            assert np.abs(Hx - fd @ x).max() / (scale * np.abs(x).sum()) < 1e-5
            assert np.abs(Hx - H @ x).max() <= 1e-12 * scale * np.abs(x).sum()
        # a diagonal W adds no entries to the Fisher pattern
        assert len(vals) == n + 2 * G.m + (np.count_nonzero(interaction) if W == "dense" else 0)


@pytest.mark.parametrize("W", ["zero", "diagonal", "dense"])
def test_static_hessian_entries_are_the_log_entries_over_the_density(rng, W):
    # one builder forms the static Hessian: the entries in rho are those in
    # u = log rho, at the same places, divided by rho_row rho_col
    for _ in range(5):
        G = random_connected_graph(rng)
        n = G.n
        A = rng.normal(0.0, 0.5, (n, n))
        interaction = {"zero": np.zeros(n), "diagonal": rng.uniform(-1.0, 1.0, n),
                       "dense": A + A.T}[W]
        spec = PotentialSpec(rng.normal(0.0, 1.0, n), interaction, float(rng.uniform(0.3, 1.5)))
        rho = random_interior(rng, n)
        rows, cols, vals = static_hessian_entries(G, spec, rho)
        log_rows, log_cols, log_vals = static_log_hessian_entries(G, spec, rho)
        assert np.array_equal(rows, log_rows) and np.array_equal(cols, log_cols)
        scaled = log_vals / (rho[rows] * rho[cols])
        assert np.abs(vals - scaled).max() <= 1e-15 * np.abs(scaled).max()
        c = rng.uniform(0.1, 2.0, G.m)
        assert np.array_equal(G.laplacian(c), dense(*G.laplacian_entries(c), n))


@pytest.mark.parametrize("W", ["diagonal", "dense"])
def test_normalization_integrand_rows_combine_the_energy_terms(rng, W):
    # each row of a stack is kin - (h^2/8) I - V - 2 W of energy_terms, a
    # one-row stack included
    for _ in range(10):
        G = random_connected_graph(rng)
        n = G.n
        A = rng.normal(0.0, 0.5, (n, n))
        interaction = rng.uniform(-1.0, 1.0, n) if W == "diagonal" else A + A.T
        spec = PotentialSpec(rng.normal(0.0, 1.0, n), interaction, float(rng.uniform(0.3, 1.5)))
        for rows in (1, 6):
            rho = np.array([random_interior(rng, n) for _ in range(rows)])
            S = rng.normal(0.0, 1.0, (rows, n))
            values = normalization_integrand(G, spec, rho, S)
            assert values.shape == (rows,)
            for value, r, s in zip(values, rho, S):
                kin, fisher, pot, inter = energy_terms(G, spec, r, s)
                scale = abs(kin) + abs(fisher) + abs(pot) + 2.0 * abs(inter)
                assert abs(value - (kin - fisher - pot - 2.0 * inter)) <= 1e-14 * scale


def test_normalization_integrand_checks_its_stacks():
    G, spec = two_node(), PotentialSpec.free(2, 1.0)
    rho, S = np.array([[0.5, 0.5]]), np.array([[0.1, -0.1]])
    with pytest.raises(ConfigError):
        normalization_integrand(G, spec, rho[0], S[0])  # not a stack
    with pytest.raises(ConfigError):
        normalization_integrand(G, spec, rho, S[:, :1])
    with pytest.raises(NonInteriorDensity):
        normalization_integrand(G, spec, np.array([[0.5, 0.5], [1.0, 1e-301]]), np.zeros((2, 2)))


@pytest.mark.parametrize("W", ["diagonal", "dense"])
@pytest.mark.parametrize("rows", [1, 6])
@pytest.mark.parametrize("with_phase", [True, False])
def test_terms_of_a_stack_are_the_terms_of_its_rows(rng, W, rows, with_phase):
    for _ in range(10):
        G = random_connected_graph(rng)
        n = G.n
        A = rng.normal(0.0, 0.5, (n, n))
        interaction = rng.uniform(-1.0, 1.0, n) if W == "diagonal" else A + A.T
        spec = PotentialSpec(rng.normal(0.0, 1.0, n), interaction, float(rng.uniform(0.3, 1.5)))
        rho = np.array([random_interior(rng, n) for _ in range(rows)])
        S = rng.normal(0.0, 1.0, (rows, n)) if with_phase else None
        stacked = energy_terms(G, spec, rho, S)
        fisher = fisher_information(G, rho)
        pot, inter = potential_energy(spec, rho), interaction_energy(spec, rho)
        for term in (*stacked, fisher, pot, inter):
            assert isinstance(term, np.ndarray) and term.shape == (rows,)
        for b in range(rows):
            terms = energy_terms(G, spec, rho[b], None if S is None else S[b])
            scale = sum(map(abs, terms)) + abs(fisher_information(G, rho[b]))
            assert all(isinstance(term, float) for term in terms)
            for stack_term, term in zip(stacked, terms):
                assert abs(stack_term[b] - term) <= 1e-14 * scale
            assert abs(fisher[b] - fisher_information(G, rho[b])) <= 1e-14 * scale
            assert abs(pot[b] - potential_energy(spec, rho[b])) <= 1e-14 * scale
            assert abs(inter[b] - interaction_energy(spec, rho[b])) <= 1e-14 * scale
        if S is None:
            assert np.array_equal(stacked[0], np.zeros(rows))


def test_energy_terms_check_the_shapes_of_a_stack():
    G, spec = two_node(), PotentialSpec.gpe(2, 1.0)
    rho, S = np.full((3, 2), 0.5), np.zeros((3, 2))
    assert all(term.shape == (3,) for term in energy_terms(G, spec, rho, S))
    bad = [
        (rho[None], S[None]),  # 3-D
        (np.full((3, 3), 1.0 / 3.0), np.zeros((3, 3))),  # n = 3 on a 2-node graph
        (rho, S[:2]),  # S of another shape than rho
        (rho, S[0]),
        (rho[0], S),
    ]
    for r, s in bad:
        with pytest.raises(ConfigError):
            energy_terms(G, spec, r, s)
    for f in (lambda r: fisher_information(G, r), lambda r: potential_energy(spec, r),
              lambda r: interaction_energy(spec, r)):
        for r in (rho[None], np.full((3, 3), 1.0 / 3.0)):
            with pytest.raises(ConfigError):
                f(r)
