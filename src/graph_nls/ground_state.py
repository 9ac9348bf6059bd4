"""Ground states: minimize E(sqrt(rho)) over the probability simplex.

The objective is (h^2/8) I(rho) + V(rho) + W(rho).  The solver is one
Newton loop in u = log rho, which keeps every iterate strictly interior
(matching the Fisher term's blow-up at the boundary).  Each direction is a
truncated, diagonally preconditioned conjugate-gradient solve
(``krylov.projected_cg``) of the Newton system projected onto
sum(delta rho) = 0, applied matrix-free in O(n + m) per product.  Armijo
backtracking on the energy, with an allowance for its roundoff, globalizes
it.  Where the Newton direction fails, the same backtracking along
-(grad - nu) in u, a mirror-descent step, is the fallback.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, MaxIterations
from .energy import (
    PotentialSpec,
    check_interior,
    energy_terms,
    static_gradient,
    static_log_hessian_entries,
)
from .dynamics import schrodinger_operator
from .graph import Graph
from .krylov import entries_times, projected_cg

__all__ = [
    "GroundStateResult",
    "ground_energy",
    "ground_gradient",
    "solve_ground_state",
    "eigen_residual",
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
    iterations: int  # outer Newton iterations, fallback steps included
    unique: bool = True  # False when W is not positive semidefinite
    cg_products: int = 0  # Hessian products of all the CG solves
    fallback_steps: int = 0  # mirror steps taken where a Newton step failed
    stop_reason: str = "tolerance"  # or "max_iter", "stall", "no_step", "non_finite"


def check_solver_settings(tol: float, max_iter: int = 1) -> None:
    """A ConfigError unless ``tol`` is positive and finite and ``max_iter`` >= 1."""
    if not 0 < tol < math.inf or max_iter < 1:  # a NaN tol fails the first test
        raise ConfigError(f"need a positive, finite tol and max_iter >= 1, got {tol}, {max_iter}")


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


# per-coordinate cap on the log-density movement of one step
LOG_STEP_CAP = 5.0
# absolute floor keeping transient iterates representable; the minimizer
# itself never reaches it (the Fisher term diverges at the boundary)
RHO_FLOOR = 1e-290
# an energy rise within this relative roundoff counts as no rise
ENERGY_ROUNDOFF = 1e-14
# backtracking halvings of one line search
NEWTON_HALVINGS = 30
# CG products allowed for one Newton direction
CG_MAX_PRODUCTS = 200
# a solve stops after this many outer iterations in a row that bring no
# new smallest KKT residual and move no log-density by STALL_STEP or more
STALL_ITERATIONS = 50
STALL_STEP = 1e-2


def _newton_direction(G, spec, rho, dg, target):
    """A truncated Newton direction du in u = log rho, and its product count.

    Solves H du = -rho dg on rho^T du = 0 by ``krylov.projected_cg``, where
    H = diag(rho) Hess E diag(rho) + diag(rho dg) is the Hessian of the
    Lagrangian in u, held as entries.  The preconditioner is a diagonal M
    that adds up the sizes of the diagonal terms of H, so it stays positive
    where H is indefinite.  CG's residual is read in rho, as the KKT
    residual is, and the solve stops at ``target`` or after CG_MAX_PRODUCTS
    products.
    """
    n = G.n
    rows, cols, vals = static_log_hessian_entries(G, spec, rho)
    curv = rho * dg
    vals[:n] += curv  # the diagonal; the edges and a dense W's entries follow
    w = spec.interaction
    # each diagonal term by its size: the Fisher term as the sum of its
    # edges, a dense W by the row sums of its sizes, a diagonal W as
    # rho^2 |W_jj|, and |rho dg|
    m = (np.bincount(rows[n:], np.abs(vals[n:]), n)
         + (np.abs(w) * rho * rho if w.ndim == 1 else 0.0) + np.abs(curv))
    inv_m = 1.0 / np.maximum(m, np.finfo(float).tiny)
    q = inv_m * rho
    q /= rho @ q

    def precondition(r):  # M^-1 r, projected onto rho^T y = 0 in the M metric
        y = inv_m * r
        return y - q * (rho @ y)

    def residual(r):  # r / rho less its multiplier, as grad - nu is
        return float(np.abs(r / rho - r.sum()).max())

    # curv is the residual H du + rho dg at du = 0
    return projected_cg(entries_times(rows, cols, vals, n), curv, precondition, residual,
                        target, CG_MAX_PRODUCTS)


def _newton_step(G, spec, rho, energy, du, slope):
    """Armijo backtracking along du from t = 1 (capped at LOG_STEP_CAP).

    Each trial is rho exp(t du), renormalized; one with an entry below
    RHO_FLOOR is rejected.  The test allows an energy rise of
    ENERGY_ROUNDOFF max(|E|, 1): near the minimizer the decrease of a full
    step is below the energy's roundoff, while the KKT residual still
    falls quadratically.  Returns (rho, energy), or None after
    NEWTON_HALVINGS halvings.
    """
    allowance = ENERGY_ROUNDOFF * max(abs(energy), 1.0)
    u = np.log(rho)
    t = min(1.0, LOG_STEP_CAP / float(np.abs(du).max()))
    for _ in range(NEWTON_HALVINGS):
        z = u + t * du
        new = np.exp(z - z.max())
        new /= new.sum()
        if new.min() >= RHO_FLOOR:  # a NaN fails the test
            new_energy = ground_energy(G, spec, new)
            if new_energy <= energy + ARMIJO_SLOPE * t * slope + allowance:
                return new, new_energy
        t *= 0.5
    return None


def _mirror_phase(G, spec, rho, energy, dg):
    """The fallback where a Newton step fails: ``_newton_step`` along
    du = -dg, which is a mirror-descent step rho exp(-t dg) / Z."""
    return _newton_step(G, spec, rho, energy, -dg, -float((rho * dg) @ dg))


def _newton_phase(G, spec, rho, tol, max_iter) -> GroundStateResult:
    """Newton-CG in u = log rho from rho until KKT ``tol``, ``max_iter`` or a stall.

    Returns the iterate with the smallest KKT residual, the last one when
    the loop reaches ``tol``, with the counts of the whole loop:
    ``cg_products`` counts the Hessian products of every CG solve.  Where
    the Newton step fails, ``_mirror_phase`` backtracks along -(grad - nu)
    under the same Armijo test.  Far from the minimizer a tail can take many
    steps of order one in u while the KKT residual stays put, so a stall is
    STALL_ITERATIONS iterations without a new smallest residual and without
    such a step.  A non-finite residual stops the loop, as does a fallback
    that finds no step.
    """
    energy = ground_energy(G, spec, rho)
    grad = ground_gradient(G, spec, rho)
    nu, res = _kkt(grad, rho)
    best, stalled = GroundStateResult(rho, nu, energy, res, 0), 0
    it = products = fallbacks = 0
    reason = None
    while not res <= tol and math.isfinite(res) and it < max_iter and stalled < STALL_ITERATIONS:
        it += 1
        dg = grad - nu
        du, k = _newton_direction(G, spec, rho, dg, max(min(0.5, res) * res, 0.1 * tol))
        products += k
        slope = float((rho * dg) @ du)
        step = _newton_step(G, spec, rho, energy, du, slope) if slope < 0 else None
        if step is None:
            fallbacks += 1
            step = _mirror_phase(G, spec, rho, energy, dg)
            if step is None:
                reason = "no_step"
                break
        new, energy = step
        moved = float(np.abs(np.log(new / rho)).max())
        rho = new
        grad = ground_gradient(G, spec, rho)
        nu, res = _kkt(grad, rho)
        stalled = 0 if res < best.kkt_residual or moved >= STALL_STEP else stalled + 1
        if res < best.kkt_residual:
            best = GroundStateResult(rho, nu, energy, res, 0)
    reason = reason or ("tolerance" if res <= tol else "non_finite" if not math.isfinite(res)
                        else "max_iter" if it >= max_iter else "stall")
    return replace(best, iterations=it, cg_products=products, fallback_steps=fallbacks,
                   stop_reason=reason)


def solve_ground_state(
    G: Graph,
    spec: PotentialSpec,
    tol: float = KKT_TOL,
    max_iter: int = 1000,
    init=None,
) -> GroundStateResult:
    """Minimize over the simplex down to KKT residual max|grad - nu| <= tol.

    Newton-CG in log coordinates (see the module docstring), starting from
    the uniform density or ``init``.  A ``tol`` that is not positive and
    finite, or a ``max_iter`` below 1, is a ConfigError.  ``max_iter`` caps
    the outer iterations; a solve also stops when it stalls (see
    ``_newton_phase``), which bounds one that roundoff keeps from ``tol``,
    when the fallback finds no step, or at a non-finite residual.  A stop
    short of ``tol`` raises MaxIterations that names its ``stop_reason``
    and carries the best iterate, the one with the smallest KKT residual,
    which is finite and normalized.  With positive semidefinite W the
    objective is strictly convex and the result is the unique ground state;
    otherwise only a critical point (flagged via ``unique=False`` and
    NonConvexWarning).
    """
    check_solver_settings(tol, max_iter)
    if init is None:
        rho = np.full(G.n, 1.0 / G.n)
    else:
        rho = check_interior(init, G.n)
        rho = rho / rho.sum()
    unique = not min_interaction_eigenvalue(spec.interaction) < -1e-12
    if not unique:
        warnings.warn(
            "interaction matrix is not positive semidefinite; "
            "returning a critical point, not necessarily the ground state",
            NonConvexWarning,
        )

    result = _newton_phase(G, spec, rho, tol, max_iter)
    result.unique = unique
    if not result.kkt_residual <= tol:
        raise MaxIterations(
            f"KKT residual {result.kkt_residual:.3g} > {tol:.3g}: stopped on "
            f"{result.stop_reason} after {result.iterations} iterations",
            result=result,
        )
    return result


def eigen_residual(G: Graph, spec: PotentialSpec, result: GroundStateResult) -> float:
    """Sup-norm residual max|nu Psi - H(Psi)| of the eigenproblem at Psi = sqrt(rho_g)."""
    psi = np.sqrt(np.asarray(result.rho_g, dtype=float)).astype(complex)
    return float(np.abs(result.nu * psi - schrodinger_operator(G, spec, psi)).max())
