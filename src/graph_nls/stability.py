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
from .energy import PotentialSpec, check_interior, static_hessian_entries
from .graph import Graph, dense
from .transport import ground_node, metric_conductances

__all__ = [
    "HamiltonianMatrix",
    "SpectrumReport",
    "hamiltonian_matrix",
    "spectrum",
    "gpe_spectrum_closed_form",
    "plain_laplacian",
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
    """2n x 2n linearization J . Hess H at an equilibrium, held as the
    (rows, cols, vals) entries of its two blocks, never as n x n arrays."""

    n: int
    laplacian: tuple  # L(rho_g), the top right block
    hessian: tuple  # the static Hessian -B; the bottom left block is B

    def full(self) -> np.ndarray:
        """The 2n x 2n matrix [[0, L], [B, 0]], assembled on each call."""
        n = self.n
        (lr, lc, lv), (hr, hc, hv) = self.laplacian, self.hessian
        return dense(np.concatenate([lr, n + hr]), np.concatenate([n + lc, hc]),
                     np.concatenate([lv, -hv]), 2 * n)


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
    return HamiltonianMatrix(G.n, G.laplacian_entries(metric_conductances(G, rho_g)),
                             static_hessian_entries(G, spec, rho_g))


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


# width of the blocks in which _factor_in_place and spectrum's two products
# walk their n x n arrays; each temporary is at most n x _BLOCK
_BLOCK = 128


def _factor_in_place(A) -> None:
    """Overwrite the positive definite A, read from its lower triangle, with
    its Cholesky factor C (A = C C^T), exact zeros above the diagonal.

    Blocked and right-looking: np.linalg.cholesky factors a diagonal block,
    the inverse of that factor turns the column below it into the panel of
    C, and one GEMM per block row updates the lower triangle of the trailing
    matrix.  Raises LinAlgError when a diagonal block of the trailing Schur
    complement is not positive definite.
    """
    m = len(A)
    for k0 in range(0, m, _BLOCK):
        k1 = min(k0 + _BLOCK, m)
        C = np.linalg.cholesky(A[k0:k1, k0:k1])
        A[k0:k1, k0:k1] = C
        A[k0:k1, k1:] = 0.0
        panel = A[k1:, k0:k1]
        panel[...] = panel @ np.linalg.inv(C).T
        for i0 in range(k1, m, _BLOCK):
            i1 = min(i0 + _BLOCK, m)
            A[i0:i1, k1:i1] -= panel[i0 - k1:i1 - k1] @ panel[: i1 - k1].T


def _grounded_factor(n, rows, cols, vals):
    """R, n x (n-1), with R R^T = L up to the diagonal shift, from L's
    entries, and the row of R of each node.

    Grounds L at g = ground_node, the heaviest node, numbered last: with
    L_g = C C^T, R is C on the other rows and minus the column sums of C on
    row n-1, since every column of L sums to zero.  A light g would make
    that row a cancelling sum of O(1) numbers.  L_g is assembled in the top
    (n-1) x (n-1) block of R and factored in place.
    """
    on = rows == cols
    g = ground_node(np.bincount(rows[on], vals[on], n))
    index = np.arange(n) - (np.arange(n) > g)
    index[g] = n - 1
    m = n - 1
    r, c = index[rows], index[cols]
    keep = (r < m) & (c < m)
    # bincount of no entries is an integer array
    R = np.bincount(r[keep] * m + c[keep], vals[keep], n * m).astype(float, copy=False)
    R = R.reshape(n, m)
    Lg = R[:m]
    Lg.flat[::n] *= 1.0 + GROUNDED_SHIFT  # the diagonal of the (n-1) x (n-1) Lg
    _factor_in_place(Lg)
    R[m] = -Lg.sum(axis=0)
    return R, index


def spectrum(H: HamiltonianMatrix) -> SpectrumReport:
    """Spectrum of H by the symmetric reduction, plus its classification.

    L(rho_g) = R R^T with R from a Cholesky factor of the grounded
    Laplacian, its diagonal shifted by GROUNDED_SHIFT relative.  One
    eigvalsh of -(R^T B R), size n - 1, gives the pairs +-i sqrt(mu); the
    grounding adds the mass/gauge zero pair.  A mu within n eps of the
    largest |mu| is eigvalsh's roundoff and is set to zero, so a mu that is
    negative only at that level reads as stable, not marginal.

    At most two n x n arrays are alive at once.  The grounded Laplacian is
    factored in place, in R's own buffer.  The dense -B is overwritten by
    -B R one column block at a time, and that by the lower triangle of
    -(R^T B R), which eigvalsh reads; both products skip the zero upper
    triangle of the factor.  R is freed before eigvalsh makes its copy.
    Raises GraphNLSError if the factorization breaks down or a mu is not
    finite.
    """
    n, m = H.n, H.n - 1
    hr, hc, hv = H.hessian
    try:
        # a weight near the float range overflows the products; the check
        # below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            R, index = _grounded_factor(n, *H.laplacian)
            X = dense(index[hr], index[hc], hv, n)  # -B
            # column block J of -B R reads the columns of -B from J on
            for j0 in range(0, m, _BLOCK):
                j1 = min(j0 + _BLOCK, m)
                X[:, j0:j1] = X[:, j0:] @ R[j0:, j0:j1]
            # block (I, J) of -(R^T B R), I at or below J, reads the rows
            # from I on of R's columns I and of -B R's columns J
            for j0 in range(0, m, _BLOCK):
                j1 = min(j0 + _BLOCK, m)
                for i0 in range(j0, m, _BLOCK):
                    i1 = min(i0 + _BLOCK, m)
                    X[i0:i1, j0:j1] = R[i0:, i0:i1].T @ X[i0:, j0:j1]
                if not np.isfinite(X[j0:m, j0:j1]).all():
                    raise GraphNLSError("linearization overflows: its reduced matrix is not finite")
            del R
            mu = np.linalg.eigvalsh(X[:m, :m])  # reads the lower triangle
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
