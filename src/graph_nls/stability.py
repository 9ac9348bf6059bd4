"""Linear stability around stationary states.

The linearization of the flow at an equilibrium (rho_g, constant S) has
the block form H = [[0, L], [B, 0]] with L = L(rho_g) and the symmetric
B = -W - (h^2/8) Hess I(rho_g).  Its eigenvalues satisfy lambda^2 in
spec(L B), so writing L = R R^T gives lambda = +-i sqrt(mu) with mu the
eigenvalues of the symmetric -(R^T B R) (the Hamiltonian reduction of
Kapitula & Promislow, Spectral and Dynamical Stability of Nonlinear Waves,
2013).  For the discrete Gross-Pitaevskii case (V = 0, W = alpha I) the
spectrum is known in closed form from the plain graph Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphNLSError
from .energy import PotentialSpec, check_interior, static_hessian
from .graph import Graph
from .transport import WeightedLaplacian, weighted_laplacian

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

    laplacian: WeightedLaplacian  # L(rho_g) with its eigendecomposition
    bottom_left: np.ndarray  # -W - (h^2/8) Hess I(rho_g)

    @property
    def top_right(self) -> np.ndarray:
        return self.laplacian.matrix

    @property
    def n(self) -> int:
        return self.laplacian.n

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
    hess = static_hessian(G, spec, rho_g)
    return HamiltonianMatrix(weighted_laplacian(G, rho_g), np.negative(hess, out=hess))


def _sort_complex(vals):
    order = np.lexsort((vals.real, vals.imag))
    return vals[order]


def _classify(vals):
    re_max = float(np.abs(vals.real).max()) if len(vals) else 0.0
    if re_max <= STABLE_RE_TOL:
        return "spectrally_stable"
    if float(vals.real.max()) > UNSTABLE_RE_TOL:
        return "unstable"
    return "marginal"


def _pairs(mu):
    """The eigenvalue pairs +-i sqrt(mu), real for negative mu."""
    root = np.sqrt(np.asarray(mu, dtype=complex))
    return _sort_complex(np.concatenate([1j * root, -1j * root]))


def spectrum(H: HamiltonianMatrix) -> SpectrumReport:
    """Spectrum of H by the symmetric reduction, plus its classification.

    R = U_+ diag(sqrt(l_+)) takes the cached eigenpairs of L(rho_g) without
    the kernel (the constants; the graph is connected), so L = R R^T.  One
    eigvalsh of -(R^T B R), size n - 1, gives the exact pairs +-i sqrt(mu);
    the kernel adds the mass/gauge zero pair.
    """
    lap = H.laplacian
    # on a nearly disconnected graph eigh can return l_1 roundoff-negative
    R = lap.eigenvectors[:, 1:] * np.sqrt(np.maximum(lap.eigenvalues[1:], 0.0))
    try:
        mu = np.linalg.eigvalsh(-(R.T @ H.bottom_left @ R))
    except np.linalg.LinAlgError as exc:
        raise GraphNLSError(f"eigensolver failure: {exc}") from exc
    vals = _pairs(np.concatenate([[0.0], mu]))
    return SpectrumReport(
        eigenvalues=vals,
        classification=_classify(vals),
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


def gpe_spectrum_closed_form(G: Graph, alpha: float, h: float) -> SpectrumReport:
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
    vals = _pairs(0.25 * lam**2 * h**2 + alpha * lam / n)
    bifurcation = [
        k + 1
        for k in range(n)
        if lam[k] > 1e-12 and abs(alpha + 0.25 * n * lam[k] * h**2) <= BIFURCATION_TOL
    ]
    return SpectrumReport(
        eigenvalues=vals,
        classification=_classify(vals),
        bifurcation_modes=bifurcation,
        laplacian_eigenvalues=lam,
    )
