"""A zero or diagonal W is stored as a vector: same numbers, no n x n array."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from graph_nls import (
    IntegratorConfig,
    PotentialSpec,
    SystemState,
    energy_terms,
    ground_gradient,
    hamiltonian_matrix,
    rhs,
    rhs_jacobian,
    simulate,
    solve_ground_state,
)
from graph_nls.energy import potentials_from_dict
from conftest import random_connected_graph, random_interior


def vector_and_dense(rng, n, alpha):
    """The same W = alpha I, once as its diagonal and once as a matrix."""
    V = rng.normal(0.0, 1.0, n)
    h = float(rng.uniform(0.3, 1.5))
    kind = {"kind": "zero"} if alpha == 0.0 else {"kind": "diagonal", "alpha": alpha}
    vec = potentials_from_dict({"V": list(V), "W": kind, "h": h}, n=n)
    dense = PotentialSpec(V, alpha * np.eye(n), h)
    assert vec.interaction.shape == (n,) and dense.interaction.shape == (n, n)
    return vec, dense


def gap(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


@pytest.mark.parametrize("alpha", [0.0, 0.8, -0.3])
def test_vector_interaction_matches_dense_oracle(rng, alpha):
    cfg = IntegratorConfig(dt=5e-3, T=0.25, newton_tol=1e-13)
    for _ in range(5):
        G = random_connected_graph(rng)
        n = G.n
        vec, dense = vector_and_dense(rng, n, alpha)
        assert np.array_equal(vec.W, dense.W)
        st = SystemState(random_interior(rng, n, low=0.5), rng.normal(0.0, 0.3, n))
        assert gap(np.concatenate(rhs(G, vec, st)), np.concatenate(rhs(G, dense, st))) <= 1e-13
        assert gap(rhs_jacobian(G, vec, st), rhs_jacobian(G, dense, st)) <= 1e-13
        terms = [energy_terms(G, spec, st.rho, st.S) for spec in (vec, dense)]
        assert gap(*terms) <= 1e-13
        assert gap(ground_gradient(G, vec, st.rho), ground_gradient(G, dense, st.rho)) <= 1e-13
        assert gap(hamiltonian_matrix(G, vec, st.rho).full()[n:, :n],
                   hamiltonian_matrix(G, dense, st.rho).full()[n:, :n]) <= 1e-13
        a, b = simulate(G, vec, st, cfg), simulate(G, dense, st, cfg)
        assert a.error is None and b.error is None and len(a) == len(b) == 51
        assert gap(a.rhos, b.rhos) <= 1e-13 and gap(a.Ss, b.Ss) <= 1e-13
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # alpha < 0 is flagged non-convex
            ga, gb = solve_ground_state(G, vec), solve_ground_state(G, dense)
        assert ga.iterations == gb.iterations and ga.unique == gb.unique == (alpha >= 0)
        assert gap(ga.rho_g, gb.rho_g) <= 1e-13
        assert abs(ga.energy - gb.energy) <= 1e-13 and abs(ga.nu - gb.nu) <= 1e-13


def test_diagonal_interaction_allocates_no_matrix():
    data = {"V": {"kind": "zero"}, "W": {"kind": "diagonal", "alpha": 1.0}, "h": 1.0}
    tracemalloc.start()
    try:
        spec = potentials_from_dict(data, n=4096)
        spec = dataclasses.replace(spec, h=0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.h == 0.5 and spec.interaction.shape == (4096,)
    # a dense 4096 x 4096 W would be 134 MB
    assert peak < 2**20
