"""Optimal-transport machinery on the probability simplex of a graph.

The density-weighted Laplacian L(rho) = D^T Theta(rho) D is the metric
tensor of the graph Wasserstein geometry (positive semidefinite sign
convention, kernel spanned by the constants).  Built on top of it:
pseudo-inverse solves on the grounded Laplacian, the Hodge decomposition
of edge fields, the tangent-space metric, and the action functional
evaluated along sampled paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NearSingular, NonZeroMean
from .energy import PotentialSpec, check_interior, energy_terms
from .graph import Graph, divergence, edge_means, grad

__all__ = [
    "PathSample",
    "weighted_laplacian",
    "pseudo_inverse_apply",
    "hodge_decompose",
    "metric_tangent_norm",
    "nelson_action",
]

MEAN_TOL = 1e-10


def metric_conductances(G: Graph, rho) -> np.ndarray:
    """w_jl (rho_j + rho_l)/2 per edge: L(rho) = D^T diag(these) D."""
    return G.weights * edge_means(G, rho)


def weighted_laplacian(G: Graph, rho) -> np.ndarray:
    """Dense L(rho) with (L S)_j = sum_{l~j} w_jl (S_j - S_l) g_jl."""
    return G.laplacian(metric_conductances(G, check_interior(rho, G.n)))


def ground_node(diagonal) -> int:
    """The node where L(rho) is grounded: the heaviest, with the largest diagonal."""
    return int(np.argmax(diagonal))


def pseudo_inverse_apply(L, b) -> np.ndarray:
    """Minimum-norm solution of L S = b for mean-zero b.

    Solves the grounded block (L less the row and column of ground_node)
    with S_g = 0, then subtracts the mean: the row of g holds because b
    and every column of L sum to zero, and on a connected graph the kernel
    is the constants.
    """
    n = L.shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (n,) or not np.isfinite(b).all():
        raise ConfigError(f"right-hand side must be {n} finite numbers, got shape {b.shape}")
    if abs(b.sum()) > MEAN_TOL * max(1.0, np.abs(b).max()):
        raise NonZeroMean(f"right-hand side sums to {b.sum():.3g}")
    # a subnormal conductance has lost its digits: the solve would return
    # a wrong S without failing
    if np.abs(L).min(initial=np.inf, where=L != 0) < np.finfo(float).tiny:
        raise NearSingular("L(rho) has a subnormal entry")
    rest = np.arange(n) != ground_node(np.diagonal(L))
    S = np.zeros(n)
    try:
        S[rest] = np.linalg.solve(L[np.ix_(rest, rest)], b[rest])
    except np.linalg.LinAlgError as exc:
        raise NearSingular(f"grounded Laplacian is singular: {exc}") from exc
    return S - S.mean()


def hodge_decompose(G: Graph, rho, v):
    """Split an edge field into a potential gradient plus a rho-divergence-free part.

    Returns (S, u) with v = grad S + u, div(rho u) = 0 and S mean-zero.
    """
    rho = check_interior(rho, G.n)
    S = pseudo_inverse_apply(weighted_laplacian(G, rho), divergence(G, rho, v))
    u = np.asarray(v, dtype=float) - grad(G, S)
    return S, u


def metric_tangent_norm(G: Graph, rho, rho_dot) -> float:
    """Squared Wasserstein length of a tangent vector: rho_dot^T L(rho)^+ rho_dot."""
    rho = check_interior(rho, G.n)
    rho_dot = np.asarray(rho_dot, dtype=float)
    S = pseudo_inverse_apply(weighted_laplacian(G, rho), rho_dot)
    return float(S @ rho_dot)


@dataclass(frozen=True)
class PathSample:
    """Sampled path t -> (rho(t), S(t)) with strictly increasing times."""

    times: np.ndarray
    rhos: np.ndarray  # shape (len(times), n)
    Ss: np.ndarray  # shape (len(times), n)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "rhos", np.asarray(self.rhos, dtype=float))
        object.__setattr__(self, "Ss", np.asarray(self.Ss, dtype=float))
        if len(t) < 2:
            raise ConfigError("a path needs at least 2 samples")
        if np.any(np.diff(t) <= 0):
            raise ConfigError("path times must be strictly increasing")
        if self.rhos.ndim != 2 or self.Ss.shape != self.rhos.shape or len(self.rhos) != len(t):
            raise ConfigError("path arrays have inconsistent shapes")


def nelson_action(G: Graph, spec: PotentialSpec, path: PathSample) -> float:
    """Trapezoidal value of the action along a sampled path.

    Integrand at each sample: kinetic term 1/2 (grad S, grad S)_rho minus
    the Fisher, linear and interaction potential energies.
    """
    kin, fisher, pot, inter = energy_terms(G, spec, path.rhos, path.Ss)
    vals = kin - fisher - pot - inter
    # written out: np.trapezoid needs numpy 2, np.trapz is deprecated there
    return float(np.sum(np.diff(path.times) * (vals[1:] + vals[:-1]) / 2.0))
