"""Scalar energies and their derivatives.

Fisher information, the linear and interaction potentials, the energy
terms that every functional combines (the Hamiltonian H(rho, S), the
ground energy, the action and normalization integrands), and the
kinetic/potential/interaction split of the wave-form energy.  The
closed-form gradient of the Fisher information is the hand-differentiated
formula.  One builder, ``static_log_hessian_entries``, forms the Hessian of
the static energy, as diag(rho) H diag(rho): a Laplacian over the edges
plus W, with no 1/rho in it.  The Hessians in rho divide its entries by
rho_row rho_col.  The test suite cross-checks both against finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import as_is, floats, number, read_kind, read_section
from .errors import ConfigError, ZeroModulus
from .graph import Graph, check_interior, edge_means, grad

__all__ = [
    "PotentialSpec",
    "fisher_information",
    "fisher_gradient",
    "fisher_hessian",
    "potential_energy",
    "interaction_energy",
    "energy_terms",
    "hamiltonian",
    "wave_energy_components",
]


@dataclass(frozen=True)
class PotentialSpec:
    """Linear potential V (per node), interaction W, and constant h.

    ``interaction`` stores W as its diagonal (a length-n vector, applied in
    O(n)) or as a dense symmetric n x n matrix; ``W`` is the matrix either way.
    """

    V: np.ndarray
    interaction: np.ndarray
    h: float = 1.0

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        W = np.asarray(self.interaction, dtype=float)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "interaction", W)
        if V.ndim != 1:
            raise ConfigError(f"V must list one number per node, got shape {V.shape}")
        n = len(V)
        if W.shape not in ((n,), (n, n)):
            raise ConfigError("W must be n x n, or its diagonal, with n = len(V)")
        if not (np.isfinite(V).all() and np.isfinite(W).all()):
            raise ConfigError("potentials V and W must be finite")
        if W.ndim == 2:
            gap = W - W.T
            if np.abs(gap, out=gap).max() > 1e-12 * max(1.0, -W.min(), W.max()):
                raise ConfigError("interaction matrix must be symmetric")
        if not 0 < self.h < np.inf:
            raise ConfigError("h must be positive and finite")
        # every energy scales the Fisher information by h^2/8; a Python float
        # product overflows to inf, where h**2 would raise OverflowError
        if float(self.h) * float(self.h) / 8.0 == np.inf:
            raise ConfigError(f"h = {self.h:g} is too large: h^2/8 overflows")

    @property
    def n(self) -> int:
        return len(self.V)

    @property
    def W(self) -> np.ndarray:
        """W as an n x n matrix; a diagonal W is expanded on each access."""
        w = self.interaction
        return np.diag(w) if w.ndim == 1 else w

    @classmethod
    def free(cls, n: int, h: float = 1.0) -> "PotentialSpec":
        return cls(np.zeros(n), np.zeros(n), h)

    @classmethod
    def gpe(cls, n: int, alpha: float, h: float = 1.0) -> "PotentialSpec":
        """V = 0, W = alpha * I (discrete Gross-Pitaevskii)."""
        return cls(np.zeros(n), np.full(n, float(alpha)), h)


def _fisher_sum(G: Graph, rho, g) -> float:
    """I(rho) from an interior rho and its edge means g."""
    d = G.diff(np.log(rho))
    return float((G.weights * d * d * g).sum())


def fisher_information(G: Graph, rho) -> float:
    """I(rho) = sum over edges of w (log rho_j - log rho_l)^2 g_jl.

    Accepts any strictly positive vector; I is 1-homogeneous in rho.
    """
    rho = check_interior(rho, G.n)
    return _fisher_sum(G, rho, edge_means(G, rho))


def fisher_gradient(G: Graph, rho) -> np.ndarray:
    """Closed-form gradient of the Fisher information.

    dI/drho_j = sum_{l ~ j} w [ (dlog)^2 / 2 + 2 dlog * g_jl / rho_j ],
    with dlog = log rho_j - log rho_l.  Satisfies the Euler identity
    grad(I) . rho = I(rho).
    """
    rho = check_interior(rho, G.n)
    d = G.diff(np.log(rho))
    wd = G.weights * d
    return G.sum_ends(0.5 * wd * d) + G.div(2.0 * wd * edge_means(G, rho)) / rho


def _fisher_conductances(G: Graph, rho) -> np.ndarray:
    """w t_lj with t_lj = (drho)(dlog) + (rho_l + rho_j), positive on every edge.

    diag(rho) Hess I diag(rho) is the Laplacian D^T diag(w t) D: the Hessian
    of I in the coordinates u = log rho, less its first-order term, with no
    1/rho^2 in it.
    """
    return G.weights * (G.diff(rho) * G.diff(np.log(rho)) + (rho[G.ej] + rho[G.el]))


def fisher_hessian(G: Graph, rho) -> np.ndarray:
    """Dense n x n Hessian of I: the conductance Laplacian over rho_j rho_l."""
    rho = check_interior(rho, G.n)
    return G.laplacian(_fisher_conductances(G, rho)) / np.outer(rho, rho)


def potential_energy(spec: PotentialSpec, rho) -> float:
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (spec.n,):
        raise ConfigError("density/potential shape mismatch")
    return float(spec.V @ rho)


def interaction_times(spec: PotentialSpec, x) -> np.ndarray:
    """W x, in O(n) for a diagonal W."""
    w = spec.interaction
    return w * x if w.ndim == 1 else w @ x


def interaction_energy(spec: PotentialSpec, rho) -> float:
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (spec.n,):
        raise ConfigError("density/potential shape mismatch")
    return 0.5 * float(rho @ interaction_times(spec, rho))


def static_gradient(G: Graph, spec: PotentialSpec, rho) -> np.ndarray:
    """Gradient (h^2/8) grad I + V + W rho of the static energy (h^2/8) I + V + W."""
    return spec.h**2 / 8.0 * fisher_gradient(G, rho) + spec.V + interaction_times(spec, rho)


def static_log_hessian_entries(G: Graph, spec: PotentialSpec, rho):
    """diag(rho) H diag(rho) of the static Hessian H = (h^2/8) Hess I + W.

    The Hessian of the static energy in the coordinates u = log rho is this
    plus diag(rho grad).  Its Fisher part is the Laplacian with conductances
    (h^2/8) w t, so no entry divides by rho and a vanishing density cannot
    overflow it.  A diagonal W is added to the first n values; a dense W
    appends all of its nonzeros, so the entries stay O(n + m) plus those.
    """
    rho = check_interior(rho, G.n)
    rows, cols, vals = G.laplacian_entries(spec.h**2 / 8.0 * _fisher_conductances(G, rho))
    w = spec.interaction
    if w.ndim == 1:
        vals[: G.n] += w * rho * rho
        return rows, cols, vals
    r, s = np.nonzero(w)
    return (np.concatenate([rows, r]), np.concatenate([cols, s]),
            np.concatenate([vals, rho[r] * w[r, s] * rho[s]]))


def static_hessian_entries(G: Graph, spec: PotentialSpec, rho):
    """Hessian (h^2/8) Hess I + W of the static energy as (rows, cols, vals):
    the entries of ``static_log_hessian_entries`` over rho_row rho_col."""
    rho = check_interior(rho, G.n)
    rows, cols, vals = static_log_hessian_entries(G, spec, rho)
    vals /= rho[rows] * rho[cols]
    return rows, cols, vals


def energy_terms(G: Graph, spec: PotentialSpec, rho, S=None):
    """The terms (kinetic, (h^2/8) I, V, W) of the energy at (rho, S).

    The kinetic term is 1/2 (grad S, grad S)_rho; without a phase S it is
    0.0 and is not evaluated.  The edge means of rho are formed once and
    shared by the kinetic and Fisher terms.
    """
    rho = check_interior(rho, G.n)
    g = edge_means(G, rho)
    kin = 0.0
    if S is not None:
        v = grad(G, S)
        kin = 0.5 * float((v * v * g).sum())
    return (
        kin,
        spec.h**2 / 8.0 * _fisher_sum(G, rho, g),
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


def _constant(n, coords, value=0.0):
    if n is None:
        raise ConfigError("a zero or constant V needs a known node count")
    return np.full(n, value)


def _harmonic(n, coords, coefficient=0.5):
    if coords is None:
        raise ConfigError("harmonic potential needs node coordinates")
    with np.errstate(over="ignore", invalid="ignore"):  # PotentialSpec rejects a V out of range
        return coefficient * np.sum(np.atleast_2d(coords) ** 2, axis=1)


def _dense(n, matrix):
    matrix = floats(matrix)
    if matrix.shape != (n, n):
        raise ConfigError(f"W must be an n x n matrix with n = {n}, got shape {matrix.shape}")
    return matrix


# kind: (build(n, coords) for V and build(n) for W, {key: converter}, required
# keys); PotentialSpec stores a zero or diagonal W as its diagonal
_V_KINDS = {
    "zero": (_constant, {}, ()),
    "constant": (_constant, {"value": number}, {"value"}),
    "harmonic": (_harmonic, {"coefficient": number}, ()),
}
_W_KINDS = {
    "zero": (np.zeros, {}, ()),
    "diagonal": (lambda n, alpha: np.full(n, alpha), {"alpha": number}, {"alpha"}),
    "dense": (_dense, {"matrix": as_is}, {"matrix"}),
}


def _linear_potential(V, n, coords) -> np.ndarray:
    if isinstance(V, dict):
        return read_kind(V, "V", _V_KINDS, "kind", n, coords)
    V = floats(V)
    if V.ndim != 1 or (n is not None and len(V) != n):
        raise ConfigError(f"V must list one number per node, got shape {V.shape}")
    return V


def potentials_from_dict(data, n=None, coords=None) -> PotentialSpec:
    """Potentials from their JSON object, read by the rules of a CLI config.

    {"V": [...], "W": {"kind": "zero"|"diagonal"|"dense", ...}, "h": real}
    V may also be {"kind": "zero"|"constant"|"harmonic", ...}; harmonic
    needs the node coordinates ``coords``.  With the node count ``n``
    given, a listed V must have n entries.  A missing, unknown or
    non-numeric entry is a ConfigError.
    """
    p = read_section(data, "potentials", {"V": as_is, "W": as_is, "h": number}, {"V", "W"})
    V, W = _linear_potential(p["V"], n, coords), p["W"]
    W = read_kind(W, "W", _W_KINDS, "kind", len(V)) if isinstance(W, dict) else _dense(len(V), W)
    return PotentialSpec(V, W, p.get("h", 1.0))
