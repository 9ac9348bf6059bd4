import numpy as np
import pytest

from graph_nls import build_graph, dynamics


def cycle_graph(n, w=1.0):
    return build_graph(n, [(j, (j + 1) % n, w) for j in range(n)])


def path_graph(n, w=1.0):
    return build_graph(n, [(j, j + 1, w) for j in range(n - 1)])


def complete_graph(n, w=1.0):
    return build_graph(n, [(j, l, w) for j in range(n) for l in range(j + 1, n)])


def two_node(w=1.0):
    return build_graph(2, [(0, 1, w)])


def random_connected_graph(rng):
    """Random tree plus a few extra edges, weights in [0.5, 2]."""
    n = int(rng.integers(2, 9))
    edges = {}
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        j, l = int(min(a, b)), int(max(a, b))
        edges[(j, l)] = float(rng.uniform(0.5, 2.0))
    for _ in range(int(rng.integers(0, n))):
        j, l = sorted(rng.choice(n, size=2, replace=False))
        edges.setdefault((int(j), int(l)), float(rng.uniform(0.5, 2.0)))
    return build_graph(n, [(j, l, w) for (j, l), w in edges.items()])


def random_interior(rng, n, low=0.2):
    rho = rng.uniform(low, 1.0, n)
    return rho / rho.sum()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def gmres_only(monkeypatch):
    """Solve every implicit midpoint Newton matrix by GMRES, whatever its size."""
    monkeypatch.setattr(dynamics, "_DIRECT_SIZE", 0)
