"""Optimal-transport machinery on the probability simplex of a graph.

The density-weighted Laplacian L(rho) = D^T Theta(rho) D is the metric
tensor of the graph Wasserstein geometry (positive semidefinite sign
convention, kernel spanned by the constants).  Built on top of it:
pseudo-inverse solves, the Hodge decomposition of edge fields, the
tangent-space metric, and the action functional evaluated along sampled
paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NearSingular, NonZeroMean
from .energy import PotentialSpec, check_interior, energy_terms
from .graph import Graph, divergence, edge_means, grad

__all__ = [
    "WeightedLaplacian",
    "PathSample",
    "weighted_laplacian",
    "pseudo_inverse_apply",
    "hodge_decompose",
    "metric_tangent_norm",
    "nelson_action",
]

# eigenvalues below this (relative to the largest) count as the kernel
NULL_CUTOFF = 1e-12
GAP_FLOOR = 1e-13
MEAN_TOL = 1e-10


@dataclass(frozen=True)
class WeightedLaplacian:
    """L(rho) with its cached symmetric eigendecomposition.

    The pseudo-inverse solves and the stability reduction both reuse the
    eigenpairs, sorted ascending; on a connected graph the first is the
    kernel (the constants).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vals, vecs = np.linalg.eigh(self.matrix)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def lambda_sec(self) -> float:
        return float(self.eigenvalues[1])


def weighted_laplacian(G: Graph, rho) -> WeightedLaplacian:
    """Assemble L(rho) with (L S)_j = sum_{l~j} w_jl (S_j - S_l) g_jl."""
    rho = check_interior(rho, G.n)
    return WeightedLaplacian(G.laplacian(G.weights * edge_means(G, rho)))


def pseudo_inverse_apply(Lap: WeightedLaplacian, b) -> np.ndarray:
    """Minimum-norm solution of L S = b for mean-zero b."""
    b = np.asarray(b, dtype=float)
    if abs(b.sum()) > MEAN_TOL * max(1.0, np.abs(b).max()):
        raise NonZeroMean(f"right-hand side sums to {b.sum():.3g}")
    vals, vecs = Lap.eigenvalues, Lap.eigenvectors
    cutoff = NULL_CUTOFF * max(vals[-1], 0.0)
    live = vals > cutoff
    if np.count_nonzero(live) < Lap.n - 1 or Lap.lambda_sec < GAP_FLOOR:
        raise NearSingular(f"spectral gap {Lap.lambda_sec:.3g} too small")
    coef = vecs.T @ b
    inv = np.zeros_like(vals)
    inv[live] = 1.0 / vals[live]
    S = vecs @ (inv * coef)
    return S - S.mean()


def hodge_decompose(G: Graph, rho, v):
    """Split an edge field into a potential gradient plus a rho-divergence-free part.

    Returns (S, u) with v = grad S + u, div(rho u) = 0 and S mean-zero.
    """
    rho = check_interior(rho, G.n)
    Lap = weighted_laplacian(G, rho)
    S = pseudo_inverse_apply(Lap, divergence(G, rho, v))
    u = np.asarray(v, dtype=float) - grad(G, S)
    return S, u


def metric_tangent_norm(G: Graph, rho, rho_dot) -> float:
    """Squared Wasserstein length of a tangent vector: rho_dot^T L(rho)^+ rho_dot."""
    rho = check_interior(rho, G.n)
    rho_dot = np.asarray(rho_dot, dtype=float)
    Lap = weighted_laplacian(G, rho)
    S = pseudo_inverse_apply(Lap, rho_dot)
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
        if self.rhos.shape != (len(t), self.Ss.shape[1]) or self.Ss.shape[0] != len(t):
            raise ConfigError("path arrays have inconsistent shapes")


def nelson_action(G: Graph, spec: PotentialSpec, path: PathSample) -> float:
    """Trapezoidal value of the action along a sampled path.

    Integrand at each sample: kinetic term 1/2 (grad S, grad S)_rho minus
    the Fisher, linear and interaction potential energies.
    """
    vals = np.empty(len(path.times))
    for k, (rho, S) in enumerate(zip(path.rhos, path.Ss)):
        kin, fisher, pot, inter = energy_terms(G, spec, rho, S)
        vals[k] = kin - fisher - pot - inter
    # written out: np.trapezoid needs numpy 2, np.trapz is deprecated there
    return float(np.sum(np.diff(path.times) * (vals[1:] + vals[:-1]) / 2.0))
