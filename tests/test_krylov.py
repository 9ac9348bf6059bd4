"""The contract of the Krylov solvers behind the two Newton solves."""

import numpy as np
import pytest

from graph_nls.errors import NewtonDivergence
from graph_nls.krylov import gmres, projected_cg


def counted(matrix):
    """x -> matrix @ x, with the number of calls in ``.calls``."""
    def times(x):
        times.calls += 1
        return matrix @ x
    times.calls = 0
    return times


def test_gmres_solves_a_nonsymmetric_system_to_its_tolerance(rng):
    for _ in range(10):
        K = rng.normal(0.0, 0.3, (6, 6))
        b = rng.normal(0.0, 1.0, 6)
        M = np.eye(6) - K
        exact = np.linalg.solve(M, b)
        for tol in (1e-2 * np.linalg.norm(b), 1e-10):
            k_times = counted(K)
            x, products = gmres(k_times, b, tol, 6)
            assert products == k_times.calls <= 7
            assert np.linalg.norm(b - M @ x) <= tol * (1 + 1e-6)
            bound = np.linalg.norm(np.linalg.inv(M), 2) * tol * (1 + 1e-6)
            assert np.linalg.norm(x - exact) <= bound


def test_gmres_counts_one_product_per_krylov_vector_plus_the_first(rng):
    K = rng.normal(0.0, 0.3, (6, 6))
    b = rng.normal(0.0, 1.0, 6)
    for k in range(4):
        # no tolerance is met, so the space grows to k vectors
        k_times = counted(K)
        _, products = gmres(k_times, b, 0.0, k)
        assert products == k_times.calls == k + 1
    # the start x = b already meets the tolerance: one product, x = b
    x, products = gmres(counted(K), b, np.inf, 6)
    assert products == 1 and np.array_equal(x, b)


@pytest.mark.parametrize("K, b", [
    (np.eye(4), np.full(4, 2.0)),
    (np.diag([1.0, 0.5, 0.5, 0.5]), np.array([3.0, 0.0, 0.0, 0.0])),
])
def test_gmres_raises_on_a_singular_matrix(K, b):
    # b lies in the kernel of I - K, with every product exact in floats
    with pytest.raises(NewtonDivergence, match="singular"):
        gmres(counted(K), b, 1e-12, 4)


def test_gmres_raises_on_a_non_finite_residual():
    with pytest.raises(NewtonDivergence, match="not finite"):
        gmres(counted(np.eye(2)), np.array([1.0, np.nan]), 1e-12, 2)


def test_projected_cg_at_first_negative_curvature_returns_steepest_descent(rng):
    n = 5
    weights = rng.uniform(0.5, 1.0, n)
    inv_m = rng.uniform(0.5, 2.0, n)
    q = inv_m * weights / (weights @ (inv_m * weights))

    def precondition(r):  # M^-1 r, projected onto weights^T y = 0 in the M metric
        y = inv_m * r
        return y - q * (weights @ y)

    r = rng.normal(0.0, 1.0, n)
    for H in (-np.eye(n), np.zeros((n, n))):
        x, products = projected_cg(counted(H), r, precondition, np.linalg.norm, 0.0, 10)
        assert products == 1
        assert np.array_equal(x, -precondition(r))
        assert abs(weights @ x) <= 1e-14 * np.abs(x).max()


def test_projected_cg_at_a_later_negative_curvature_returns_its_iterate():
    # the first direction -r = (-2, -1) has curvature 3; the second,
    # (-20, -40) / 9, has curvature -1200 / 81
    H = np.diag([1.0, -1.0])
    r = np.array([2.0, 1.0])
    x, products = projected_cg(counted(H), r, np.copy, np.linalg.norm, 0.0, 10)
    assert products == 2
    assert np.allclose(x, [-10.0 / 3.0, -5.0 / 3.0], rtol=1e-15, atol=0.0)


def test_projected_cg_solves_within_its_product_budget(rng):
    n = 10
    A = rng.normal(0.0, 1.0, (n, n))
    H = A @ A.T + np.eye(n)
    r = rng.normal(0.0, 1.0, n)
    for budget in (1, 3, 5):
        h_times = counted(H)
        x, products = projected_cg(h_times, r, np.copy, np.linalg.norm, 0.0, budget)
        assert products == h_times.calls == budget
    # a reachable target stops it early, at a residual within the target
    target = 1e-6 * np.linalg.norm(r)
    x, products = projected_cg(counted(H), r, np.copy, np.linalg.norm, target, 200)
    assert products <= 3 * n and np.linalg.norm(H @ x + r) <= 1.01 * target
