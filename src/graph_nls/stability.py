"""Linear stability around stationary states.

The linearization of the flow at an equilibrium (rho_g, constant S) has
the block form H = [[0, L], [B, 0]] with L = L(rho_g) and the symmetric
B = -W - (h^2/8) Hess I(rho_g).  Its eigenvalues satisfy lambda^2 in
spec(L B), so writing L = R R^T gives lambda = +-i sqrt(mu) with mu the
eigenvalues of the symmetric -(R^T B R) (the Hamiltonian reduction of
Kapitula & Promislow, Spectral and Dynamical Stability of Nonlinear Waves,
2013).  R comes from a Cholesky factor of the grounded Laplacian (L less
the row and column of one node), whose rounding errors do not depend on
a symmetric diagonal scaling: a rho_g spanning many decades costs no
accuracy.  For the discrete Gross-Pitaevskii case (V = 0, W = alpha I) the
spectrum is known in closed form from the plain graph Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphNLSError
from .energy import PotentialSpec, check_interior, static_hessian
from .graph import Graph, edge_means

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
# relative shift of the grounded Laplacian's diagonal: keeps its Cholesky
# factorization from breaking down on a nearly disconnected graph
GROUNDED_SHIFT = 1e-13
# eigvalsh's error bound is n eps max|mu|: a mu below it is set to zero
MU_SNAP = np.finfo(float).eps


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
    hess = static_hessian(G, spec, rho_g)
    return HamiltonianMatrix(G.laplacian(G.weights * edge_means(G, rho_g)),
                             np.negative(hess, out=hess))


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


def _grounded_factor(L) -> np.ndarray:
    """R, n x (n-1), with R R^T = L up to the diagonal shift.

    Grounds the node g with the largest diagonal entry (the heaviest): with
    L_g = C C^T, R is C on the other rows and minus the column sums of C on
    row g, since every column of L sums to zero.  A light g would make row g
    a cancelling sum of O(1) numbers.
    """
    n = L.shape[0]
    g = int(np.argmax(np.diagonal(L)))
    rest = np.arange(n) != g
    Lg = L[np.ix_(rest, rest)]
    Lg.flat[:: n] *= 1.0 + GROUNDED_SHIFT  # the diagonal of the (n-1) x (n-1) Lg
    R = np.zeros((n, n - 1))
    R[rest] = np.linalg.cholesky(Lg)
    del Lg
    R[g] = -R.sum(axis=0)
    return R


def spectrum(H: HamiltonianMatrix) -> SpectrumReport:
    """Spectrum of H by the symmetric reduction, plus its classification.

    L(rho_g) = R R^T with R from a Cholesky factor of the grounded
    Laplacian, its diagonal shifted by GROUNDED_SHIFT relative.  One
    eigvalsh of -(R^T B R), size n - 1, gives the pairs +-i sqrt(mu); the
    grounding adds the mass/gauge zero pair.  A mu within n eps of the
    largest |mu| is eigvalsh's roundoff and is set to zero, so a mu that is
    negative only at that level reads as stable, not marginal.  Raises
    GraphNLSError if the factorization breaks down or a mu is not finite.
    """
    try:
        # a weight near the float range overflows the products; the check
        # below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            R = _grounded_factor(H.top_right)
            M = R.T @ (H.bottom_left @ R)
            del R
            np.negative(M, out=M)
            if not np.isfinite(M).all():
                raise GraphNLSError("linearization overflows: its reduced matrix is not finite")
            mu = np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise GraphNLSError(f"stability reduction failed: {exc}") from exc
    if not np.isfinite(mu).all():
        raise GraphNLSError("stability spectrum is not finite")
    if len(mu):
        mu[np.abs(mu) <= H.n * MU_SNAP * np.abs(mu).max()] = 0.0
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
