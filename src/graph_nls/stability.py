"""Linear stability around stationary states.

The linearization of the flow at an equilibrium (rho_g, constant S) has
the block form [[0, L(rho_g)], [-W - (h^2/8) Hess I(rho_g), 0]].  For the
discrete Gross-Pitaevskii case (V = 0, W = alpha I) the spectrum is known
in closed form from the plain graph Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphNLSError
from .energy import PotentialSpec, check_interior, fisher_hessian
from .graph import Graph
from .transport import weighted_laplacian

__all__ = [
    "HamiltonianMatrix",
    "SpectrumReport",
    "hamiltonian_matrix",
    "spectrum",
    "gpe_spectrum_closed_form",
    "plain_laplacian",
    "spectrum_mismatch",
]

STABLE_RE_TOL = 1e-10
UNSTABLE_RE_TOL = 1e-8
BIFURCATION_TOL = 1e-9


@dataclass(frozen=True)
class HamiltonianMatrix:
    """2n x 2n linearization J . Hess H at an equilibrium."""

    top_right: np.ndarray  # L(rho_g)
    bottom_left: np.ndarray  # -W - (h^2/8) Hess I(rho_g)

    @property
    def n(self) -> int:
        return self.top_right.shape[0]

    def full(self) -> np.ndarray:
        n = self.n
        H = np.zeros((2 * n, 2 * n))
        H[:n, n:] = self.top_right
        H[n:, :n] = self.bottom_left
        return H


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray  # complex, sorted by (imag, real)
    classification: str  # spectrally_stable | unstable | marginal
    bifurcation_modes: list = field(default_factory=list)
    laplacian_eigenvalues: np.ndarray | None = None


def plain_laplacian(G: Graph) -> np.ndarray:
    """Density-independent graph Laplacian: degree sums minus weights."""
    return G.laplacian(G.weights)


def hamiltonian_matrix(G: Graph, spec: PotentialSpec, rho_g) -> HamiltonianMatrix:
    rho_g = check_interior(rho_g, G.n)
    top_right = weighted_laplacian(G, rho_g).matrix
    bottom_left = -(spec.W + spec.h**2 / 8.0 * fisher_hessian(G, rho_g))
    return HamiltonianMatrix(top_right=top_right, bottom_left=bottom_left)


def _sort_complex(vals):
    order = np.lexsort((vals.real, vals.imag))
    return vals[order]


def _classify(vals, stable_tol=STABLE_RE_TOL, unstable_tol=UNSTABLE_RE_TOL):
    re_max = float(np.abs(vals.real).max()) if len(vals) else 0.0
    if re_max <= stable_tol:
        return "spectrally_stable"
    if float(vals.real.max()) > unstable_tol:
        return "unstable"
    return "marginal"


def spectrum(H: HamiltonianMatrix, stable_tol=STABLE_RE_TOL,
             unstable_tol=UNSTABLE_RE_TOL) -> SpectrumReport:
    """Dense nonsymmetric eigendecomposition plus stability classification.

    The mass/gauge zero pair of H is a defective Jordan block, which a
    dense solver splits by about sqrt(eps * |H|).  The subspace of
    mean-zero density perturbations is invariant and carries that zero
    semisimply, so the solve runs there and the quotient contributes the
    remaining exact zero.
    """
    n = H.n
    try:
        if n == 1:
            vals = np.array([0.0 + 0j, 0.0 + 0j])
        else:
            u = np.ones(n) / np.sqrt(n)
            basis, _, _ = np.linalg.svd(np.eye(n) - np.outer(u, u))
            Q = np.zeros((2 * n, 2 * n - 1))
            Q[:n, : n - 1] = basis[:, : n - 1]
            Q[n:, n - 1 :] = np.eye(n)
            vals = np.concatenate(
                [np.linalg.eigvals(Q.T @ H.full() @ Q), [0.0 + 0j]]
            )
    except np.linalg.LinAlgError as exc:
        raise GraphNLSError(f"eigensolver failure: {exc}") from exc
    vals = _sort_complex(vals)
    return SpectrumReport(
        eigenvalues=vals,
        classification=_classify(vals, stable_tol, unstable_tol),
    )


def spectrum_mismatch(a, b) -> float:
    """Largest gap under greedy nearest matching of two eigenvalue multisets.

    Robust against ordering artifacts from roundoff-sized real parts,
    which defeat lexicographic sorting.
    """
    a = np.asarray(a, dtype=complex)
    b = list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        raise GraphNLSError("eigenvalue multisets differ in size")
    worst = 0.0
    for x in sorted(a, key=abs, reverse=True):
        gaps = [abs(x - y) for y in b]
        j = int(np.argmin(gaps))
        worst = max(worst, gaps[j])
        b.pop(j)
    return worst


def gpe_spectrum_closed_form(
    G: Graph, alpha: float, h: float, bifurcation_tol: float = BIFURCATION_TOL
) -> SpectrumReport:
    """Closed-form spectrum at the uniform state for V=0, W=alpha I.

    Per Laplacian mode lambda_k the pair +-i sqrt(lambda_k^2 h^2 / 4 +
    alpha lambda_k / n); modes (1-based, ascending lambda) sitting at the
    threshold alpha = -(n/4) lambda_k h^2 are flagged as bifurcation
    candidates.
    """
    lam = np.linalg.eigvalsh(plain_laplacian(G))
    # the kernel is exactly the constants (connected graph); snap the
    # roundoff-sized bottom eigenvalue to zero before the sqrt amplifies it
    lam = np.where(lam <= 1e-12 * max(1.0, lam[-1]), 0.0, lam)
    n = G.n
    arg = 0.25 * lam**2 * h**2 + alpha * lam / n
    root = np.sqrt(arg.astype(complex))
    vals = np.concatenate([1j * root, -1j * root])
    bifurcation = [
        k + 1
        for k in range(n)
        if lam[k] > 1e-12 and abs(alpha + 0.25 * n * lam[k] * h**2) <= bifurcation_tol
    ]
    return SpectrumReport(
        eigenvalues=_sort_complex(vals),
        classification=_classify(_sort_complex(vals)),
        bifurcation_modes=bifurcation,
        laplacian_eigenvalues=lam,
    )
