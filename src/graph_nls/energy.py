"""Scalar energies and their derivatives.

Fisher information, the linear and interaction potentials, the energy
terms that every functional combines (the Hamiltonian H(rho, S), the
ground energy, the action and normalization integrands), and the
kinetic/potential/interaction split of the wave-form energy.  The
closed-form gradient and Hessian of the Fisher information are the
hand-differentiated formulas; the test suite cross-checks them against
finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonInteriorDensity, ZeroModulus
from .graph import Graph, edge_means, grad, inner_product

__all__ = [
    "PotentialSpec",
    "check_interior",
    "edge_density",
    "fisher_information",
    "fisher_gradient",
    "fisher_hessian",
    "potential_energy",
    "interaction_energy",
    "energy_terms",
    "hamiltonian",
    "wave_edge_field",
    "wave_energy_components",
    "potentials_from_dict",
]

# Densities below this are treated as boundary points: log() would still be
# finite but the dynamics is meaningless there.
INTERIOR_FLOOR = 1e-300

MASS_TOL = 1e-12


@dataclass(frozen=True)
class PotentialSpec:
    """Linear potential V (per node), interaction matrix W, and constant h."""

    V: np.ndarray
    W: np.ndarray
    h: float = 1.0

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        W = np.asarray(self.W, dtype=float)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)
        if W.shape != (len(V), len(V)):
            raise ConfigError("W must be n x n with n = len(V)")
        if not (np.isfinite(V).all() and np.isfinite(W).all()):
            raise ConfigError("potentials V and W must be finite")
        if not np.allclose(W, W.T, atol=1e-12):
            raise ConfigError("interaction matrix must be symmetric")
        if not 0 < self.h < np.inf:
            raise ConfigError("h must be positive and finite")

    @property
    def n(self) -> int:
        return len(self.V)

    @classmethod
    def free(cls, n: int, h: float = 1.0) -> "PotentialSpec":
        return cls(np.zeros(n), np.zeros((n, n)), h)

    @classmethod
    def gpe(cls, n: int, alpha: float, h: float = 1.0) -> "PotentialSpec":
        """V = 0, W = alpha * I (discrete Gross-Pitaevskii)."""
        return cls(np.zeros(n), alpha * np.eye(n), h)


def check_interior(rho, n=None):
    rho = np.asarray(rho, dtype=float)
    if n is not None and rho.shape != (n,):
        raise ConfigError(f"density has shape {rho.shape}, expected ({n},)")
    if not np.isfinite(rho).all():
        raise NonInteriorDensity("density has a non-finite entry")
    if rho.min() < INTERIOR_FLOOR:
        raise NonInteriorDensity(
            f"density entry {rho.min():.3g} is at the simplex boundary"
        )
    return rho


def edge_density(rho, edge) -> float:
    """Mean of the endpoint densities on one edge."""
    j, l = edge
    return 0.5 * (rho[j] + rho[l])


def fisher_information(G: Graph, rho) -> float:
    """I(rho) = sum over edges of w (log rho_j - log rho_l)^2 g_jl.

    Accepts any strictly positive vector; I is 1-homogeneous in rho.
    """
    rho = check_interior(rho, G.n)
    d = G.diff(np.log(rho))
    return float(np.sum(G.weights * d * d * edge_means(G, rho)))


def fisher_gradient(G: Graph, rho) -> np.ndarray:
    """Closed-form gradient of the Fisher information.

    dI/drho_j = sum_{l ~ j} w [ (dlog)^2 / 2 + 2 dlog * g_jl / rho_j ],
    with dlog = log rho_j - log rho_l.  Satisfies the Euler identity
    grad(I) . rho = I(rho).
    """
    rho = check_interior(rho, G.n)
    d = G.diff(np.log(rho))
    g = edge_means(G, rho)
    return G.sum_ends(0.5 * G.weights * d * d) + G.div(2.0 * G.weights * d * g) / rho


def fisher_hessian(G: Graph, rho) -> np.ndarray:
    """Hessian of I with entries built from t_lj = (drho)(dlog) + (rho_l+rho_j)."""
    rho = check_interior(rho, G.n)
    wt = G.weights * (G.diff(rho) * G.diff(np.log(rho)) + (rho[G.ej] + rho[G.el]))
    off = -wt / (rho[G.ej] * rho[G.el])
    return G.edge_matrix(G.sum_ends(wt) / rho**2, off, off)


def potential_energy(spec: PotentialSpec, rho) -> float:
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (spec.n,):
        raise ConfigError("density/potential shape mismatch")
    return float(spec.V @ rho)


def interaction_energy(spec: PotentialSpec, rho) -> float:
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (spec.n,):
        raise ConfigError("density/potential shape mismatch")
    return float(0.5 * rho @ spec.W @ rho)


def energy_terms(G: Graph, spec: PotentialSpec, rho, S=None):
    """The terms (kinetic, (h^2/8) I, V, W) of the energy at (rho, S).

    The kinetic term is 1/2 (grad S, grad S)_rho; without a phase S it is
    0.0 and is not evaluated.
    """
    rho = check_interior(rho, G.n)
    kin = 0.0
    if S is not None:
        v = grad(G, S)
        kin = 0.5 * inner_product(G, rho, v, v)
    return (
        kin,
        spec.h**2 / 8.0 * fisher_information(G, rho),
        potential_energy(spec, rho),
        interaction_energy(spec, rho),
    )


def hamiltonian(G: Graph, spec: PotentialSpec, rho, S) -> float:
    """Total energy H = kinetic + (h^2/8) I + V + W."""
    return sum(energy_terms(G, spec, rho, S))


def wave_edge_field(G: Graph, psi):
    """Density and complex skew edge field 1/2 dlog rho + i dphase of a wave.

    The phase difference is the principal angle of Psi_j conj(Psi_l),
    which is already (S_j - S_l)/h; stored in the canonical orientation, it
    stays consistent for winding phases that no single-valued S represents.
    """
    psi = np.asarray(psi, dtype=complex)
    rho = np.abs(psi) ** 2
    if rho.min() <= 0:
        raise ZeroModulus("wave function vanishes at a node")
    dlog = 0.5 * G.diff(np.log(rho)) + 1j * np.angle(psi[G.ej] * np.conj(psi[G.el]))
    return rho, dlog


def wave_energy_components(G: Graph, spec: PotentialSpec, psi):
    """Kinetic / potential / interaction energies of a wave state.

    Returns (E_kin, E_pot, E_int, E_total) with
    E_total = h^2 E_kin + E_pot + E_int, which equals H(rho, S) exactly.
    E_kin is half the rho-weighted squared modulus of the wave edge field.
    """
    rho, dlog = wave_edge_field(G, psi)
    e_kin = float(0.5 * np.sum(G.weights * np.abs(dlog) ** 2 * edge_means(G, rho)))
    e_pot = potential_energy(spec, rho)
    e_int = interaction_energy(spec, rho)
    return e_kin, e_pot, e_int, spec.h**2 * e_kin + e_pot + e_int


def _linear_potential(V_spec, n, coords) -> np.ndarray:
    if not isinstance(V_spec, dict):
        V = np.asarray(V_spec, dtype=float)
        if V.ndim != 1 or (n is not None and len(V) != n):
            raise ConfigError(f"V must list one number per node, got shape {V.shape}")
        return V
    kind = V_spec.get("kind")
    if kind in ("zero", "constant") and n is None:
        raise ConfigError(f"{kind} potential needs a known node count")
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, float(V_spec["value"]))
    if kind == "harmonic":
        if coords is None:
            raise ConfigError("harmonic potential needs node coordinates")
        c = float(V_spec.get("coefficient", 0.5))
        return c * np.sum(np.atleast_2d(coords) ** 2, axis=1)
    raise ConfigError(f"unknown V kind {kind!r}")


def _interaction_matrix(W_spec, n) -> np.ndarray:
    if not isinstance(W_spec, dict):
        return np.asarray(W_spec, dtype=float)
    kind = W_spec.get("kind")
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "diagonal":
        return np.diag(np.full(n, float(W_spec["alpha"])))
    if kind == "dense":
        return np.asarray(W_spec["matrix"], dtype=float)
    raise ConfigError(f"unknown W kind {kind!r}")


def potentials_from_dict(data, n=None, coords=None) -> PotentialSpec:
    """Potentials from their JSON object.

    {"V": [...], "W": {"kind": "zero"|"diagonal"|"dense", ...}, "h": real}
    V may also be {"kind": "zero"|"constant"|"harmonic", ...}; harmonic
    needs the node coordinates ``coords``.  With the node count ``n``
    given, a listed V must have n entries.  Missing or non-numeric entries
    are a ConfigError.
    """
    try:
        V = _linear_potential(data["V"], n, coords)
        W = _interaction_matrix(data["W"], len(V))
        h = float(data.get("h", 1.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed potentials: {exc}") from exc
    return PotentialSpec(V, W, h)
