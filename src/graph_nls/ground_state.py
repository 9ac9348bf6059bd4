"""Ground states: minimize E(sqrt(rho)) over the probability simplex.

The objective is (h^2/8) I(rho) + V(rho) + W(rho).  The solver is mirror
descent with multiplicative updates, which keeps iterates strictly
interior (matching the Fisher term's blow-up at the boundary), plus
Armijo backtracking on the step size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MaxIterations
from .energy import (
    PotentialSpec,
    check_interior,
    energy_terms,
    static_gradient,
    static_hessian_entries,
)
from .dynamics import schrodinger_operator
from .graph import Graph, dense

__all__ = [
    "GroundStateResult",
    "ground_energy",
    "ground_gradient",
    "solve_ground_state",
    "eigen_residual",
    "min_interaction_eigenvalue",
]

ARMIJO_SLOPE = 1e-4
# default KKT residual max|grad - nu| of a converged ground state
KKT_TOL = 1e-10


class NonConvexWarning(UserWarning):
    """Interaction matrix has negative eigenvalues: result may be a
    non-minimizing critical point."""


@dataclass
class GroundStateResult:
    rho_g: np.ndarray
    nu: float
    energy: float
    kkt_residual: float
    iterations: int
    unique: bool = True  # False when W is not positive semidefinite


def min_interaction_eigenvalue(W) -> float:
    """Smallest eigenvalue of the interaction W, as PotentialSpec stores it.

    A diagonal W, given as its length-n diagonal, is read off in O(n); a
    symmetric n x n matrix takes the dense O(n^3) eigvalsh.
    """
    if np.ndim(W) == 1:
        return float(np.min(W))
    return float(np.linalg.eigvalsh(W).min())


def ground_energy(G: Graph, spec: PotentialSpec, rho) -> float:
    """(h^2/8) I + V + W: the energy of rho with a constant phase."""
    return sum(energy_terms(G, spec, rho))


def ground_gradient(G: Graph, spec: PotentialSpec, rho) -> np.ndarray:
    return static_gradient(G, spec, rho)


def _kkt(grad, rho):
    nu = float(grad @ rho)
    return nu, float(np.abs(grad - nu).max())


# per-coordinate cap on the log-density movement of one multiplicative step
LOG_STEP_CAP = 30.0
# absolute floor keeping transient iterates representable; the minimizer
# itself never reaches it (the Fisher term diverges at the boundary)
RHO_FLOOR = 1e-290


def _mirror_phase(G, spec, rho, tol, max_iter):
    """Mirror descent rho <- rho exp(-eta grad) / Z until KKT tol or stall.

    Armijo backtracking on eta keeps the energy strictly decreasing; near
    the minimizer the energy differences fall below roundoff long before
    the KKT residual does, at which point the loop stalls and hands over
    to the Newton polish.
    """
    energy = ground_energy(G, spec, rho)
    grad = ground_gradient(G, spec, rho)
    nu, res = _kkt(grad, rho)
    eta = 1.0 / (1.0 + np.abs(grad).max())
    it = 0
    while not res <= tol and it < max_iter:  # a NaN residual is not converged
        it += 1
        step_dir = grad - nu
        accepted = False
        while eta >= 1e-18:
            z = np.clip(-eta * step_dir, -LOG_STEP_CAP, LOG_STEP_CAP)
            new = rho * np.exp(z - z.max())
            new = np.maximum(new, RHO_FLOOR)
            new /= new.sum()
            new_energy = ground_energy(G, spec, new)
            pred = ARMIJO_SLOPE * min(float(grad @ (new - rho)), 0.0)
            if new_energy <= energy + pred and new_energy < energy:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break  # energy flat to machine precision
        rho, energy = new, new_energy
        grad = ground_gradient(G, spec, rho)
        nu, res = _kkt(grad, rho)
        eta *= 1.5
    return rho, energy, nu, res, it


def _newton_phase(G, spec, rho, nu, tol, max_iter=200):
    """Damped Newton on the interior stationarity system in log coordinates.

    Solves grad E(rho) = nu, sum rho = 1 for (log rho, nu).  The residual
    stays computable to machine precision even when energy differences do
    not, so this drives the KKT residual below tolerances the line search
    cannot reach.  A non-finite residual stops the loop at the last
    (finite) iterate.
    """
    n = G.n
    nodes, border = np.arange(n), np.full(n, n)
    u = np.log(rho)
    it = 0
    res = np.inf
    for it in range(1, max_iter + 1):
        rho = np.exp(u)
        grad = ground_gradient(G, spec, np.maximum(rho, RHO_FLOOR))
        nu_hat, res = _kkt(grad, rho / rho.sum())
        if res <= tol or not np.isfinite(res):
            break
        F = np.concatenate([grad - nu, [rho.sum() - 1.0]])
        # the bordered system [[H diag(rho), -1], [rho^T, 0]]: d grad / d u = H diag(rho)
        rows, cols, vals = static_hessian_entries(G, spec, rho)
        J = dense(np.concatenate([rows, nodes, border]), np.concatenate([cols, border, nodes]),
                  np.concatenate([vals, np.full(n, -1.0), rho]), n + 1)
        J[:n, :n] *= rho
        try:
            d = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(J, -F, rcond=None)[0]
        du = np.clip(d[:n], -20.0, 20.0)
        dnu = d[n]
        f0 = np.abs(F).max()
        t = 1.0
        while t > 1e-12:
            rt = np.exp(u + t * du)
            if rt.min() <= 0 or not np.isfinite(rt).all():
                t *= 0.5
                continue
            gt = ground_gradient(G, spec, np.maximum(rt, RHO_FLOOR))
            Ft = np.concatenate([gt - (nu + t * dnu), [rt.sum() - 1.0]])
            if np.abs(Ft).max() < f0:
                break
            t *= 0.5
        u += t * du
        nu += t * dnu
    rho = np.exp(u)
    rho /= rho.sum()
    return rho, res, it


def solve_ground_state(
    G: Graph,
    spec: PotentialSpec,
    tol: float = KKT_TOL,
    max_iter: int = 10**6,
    init=None,
) -> GroundStateResult:
    """Minimize over the simplex down to KKT residual max|grad - nu| <= tol.

    Globalization is mirror descent with multiplicative updates (iterates
    remain interior by construction); if the line search stalls at machine
    precision of the energy before the tolerance is met, a Newton polish
    on the stationarity conditions finishes the job.  With positive
    semidefinite W the objective is strictly convex and the result is the
    unique ground state; otherwise only a critical point (flagged via
    ``unique=False`` and NonConvexWarning).
    """
    if init is None:
        rho = np.full(G.n, 1.0 / G.n)
    else:
        rho = check_interior(init, G.n)
        rho = rho / rho.sum()
    unique = True
    if min_interaction_eigenvalue(spec.interaction) < -1e-12:
        unique = False
        warnings.warn(
            "interaction matrix is not positive semidefinite; "
            "returning a critical point, not necessarily the ground state",
            NonConvexWarning,
        )

    rho, energy, nu, res, it = _mirror_phase(G, spec, rho, tol, max_iter)
    if not res <= tol:
        rho, res, polish_it = _newton_phase(G, spec, rho, nu, tol)
        it += polish_it
        energy = ground_energy(G, spec, rho)
        grad = ground_gradient(G, spec, rho)
        nu, res = _kkt(grad, rho)
    result = GroundStateResult(rho, nu, energy, res, it, unique)
    if not res <= tol:
        raise MaxIterations(
            f"KKT residual {res:.3g} > {tol:.3g} after {it} iterations", result=result
        )
    return result


def eigen_residual(G: Graph, spec: PotentialSpec, result: GroundStateResult) -> float:
    """Sup-norm residual max|nu Psi - H(Psi)| of the eigenproblem at Psi = sqrt(rho_g)."""
    psi = np.sqrt(np.asarray(result.rho_g, dtype=float)).astype(complex)
    return float(np.abs(result.nu * psi - schrodinger_operator(G, spec, psi)).max())
