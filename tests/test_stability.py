import json

import numpy as np
import pytest

from graph_nls import (
    PotentialSpec,
    build_graph,
    build_path_lattice,
    build_torus,
    cli,
    gpe_spectrum_closed_form,
    hamiltonian,
    hamiltonian_matrix,
    solve_ground_state,
    spectrum,
    weighted_laplacian,
)
from graph_nls.energy import fisher_hessian
from graph_nls.stability import _classify, plain_laplacian, spectrum_mismatch
from conftest import (
    cycle_graph,
    complete_graph,
    path_graph,
    two_node,
    random_connected_graph,
    random_interior,
)


def dense_spectrum(H):
    """Reference spectrum: dense nonsymmetric eigvals of the full H.

    The mass/gauge zero pair of H is a defective Jordan block, which a
    dense solver splits by about sqrt(eps * |H|).  The subspace of
    mean-zero density perturbations is invariant and carries that zero
    semisimply, so the solve runs there and the quotient contributes the
    remaining exact zero.
    """
    n = H.n
    if n == 1:
        return np.zeros(2, dtype=complex)
    u = np.ones(n) / np.sqrt(n)
    basis, _, _ = np.linalg.svd(np.eye(n) - np.outer(u, u))
    Q = np.zeros((2 * n, 2 * n - 1))
    Q[:n, : n - 1] = basis[:, : n - 1]
    Q[n:, n - 1 :] = np.eye(n)
    return np.concatenate([np.linalg.eigvals(Q.T @ H.full() @ Q), [0.0 + 0j]])


def test_block_structure_gpe():
    n, alpha, h = 5, 0.8, 1.0
    G = cycle_graph(n)
    spec = PotentialSpec.gpe(n, alpha, h)
    H = hamiltonian_matrix(G, spec, np.full(n, 1.0 / n))
    L = plain_laplacian(G)
    assert np.abs(H.top_right - L / n).max() < 1e-14
    assert np.abs(H.bottom_left - (-alpha * np.eye(n) - n * h**2 / 4.0 * L)).max() < 1e-12
    full = H.full()
    assert np.all(full[:n, :n] == 0.0)
    assert np.all(full[n:, n:] == 0.0)


def test_bottom_left_without_interaction(rng):
    G = random_connected_graph(rng)
    h = 0.9
    spec = PotentialSpec(rng.normal(0.0, 1.0, G.n), np.zeros((G.n, G.n)), h)
    rho = random_interior(rng, G.n)
    H = hamiltonian_matrix(G, spec, rho)
    assert np.abs(H.bottom_left + h**2 / 8.0 * fisher_hessian(G, rho)).max() < 1e-12
    assert np.abs(H.top_right - weighted_laplacian(G, rho).matrix).max() < 1e-14


def test_matches_fd_hessian_of_hamiltonian(rng):
    G = random_connected_graph(rng)
    n = G.n
    A = rng.normal(0.0, 0.5, (n, n))
    spec = PotentialSpec(rng.normal(0.0, 1.0, n), (A + A.T) / 2, 0.8)
    rho = random_interior(rng, n)
    S = np.full(n, 0.3)
    H = hamiltonian_matrix(G, spec, rho).full()
    z0 = np.concatenate([rho, S])
    step = 1e-5
    hess = np.zeros((2 * n, 2 * n))
    for j in range(2 * n):
        e = np.zeros(2 * n)
        e[j] = step

        def g(z):
            out = np.zeros(2 * n)
            eps = 1e-5
            for i in range(2 * n):
                d = np.zeros(2 * n)
                d[i] = eps
                out[i] = (
                    hamiltonian(G, spec, (z + d)[:n], (z + d)[n:])
                    - hamiltonian(G, spec, (z - d)[:n], (z - d)[n:])
                ) / (2 * eps)
            return out

        hess[:, j] = (g(z0 + e) - g(z0 - e)) / (2 * step)
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    assert np.abs(H - J @ hess).max() < 1e-5 * max(1.0, np.abs(H).max())


def test_spectrum_two_node_alpha_zero():
    G = two_node()
    spec = PotentialSpec.gpe(2, 0.0, 1.0)
    rep = spectrum(hamiltonian_matrix(G, spec, np.array([0.5, 0.5])))
    assert spectrum_mismatch(rep.eigenvalues, [0.0, 0.0, 1j, -1j]) < 1e-10
    assert rep.classification == "spectrally_stable"


def test_spectrum_negation_symmetry(rng):
    for _ in range(5):
        G = random_connected_graph(rng)
        A = rng.normal(0.0, 0.5, (G.n, G.n))
        spec = PotentialSpec(np.zeros(G.n), A @ A.T / G.n, 1.0)
        rho = random_interior(rng, G.n)
        rep = spectrum(hamiltonian_matrix(G, spec, rho))
        assert spectrum_mismatch(rep.eigenvalues, -rep.eigenvalues) < 1e-8


def test_spectrum_permutation_invariance(rng):
    G = path_graph(5)
    spec = PotentialSpec.gpe(5, 0.7, 1.0)
    rho = random_interior(rng, 5)
    rep = spectrum(hamiltonian_matrix(G, spec, rho))
    perm = rng.permutation(5)
    inv = np.argsort(perm)
    edges = [(int(min(perm[j], perm[l])), int(max(perm[j], perm[l])), float(w))
             for j, l, w in zip(G.ej, G.el, G.weights)]
    G2 = build_graph(5, edges)
    rep2 = spectrum(hamiltonian_matrix(G2, spec, rho[inv]))
    assert spectrum_mismatch(rep.eigenvalues, rep2.eigenvalues) < 1e-8


def test_closed_form_two_node():
    G = two_node()
    rep = gpe_spectrum_closed_form(G, 0.0, 1.0)
    assert spectrum_mismatch(rep.eigenvalues, [0.0, 0.0, 1j, -1j]) < 1e-12
    # threshold alpha = -(n/4) lambda h^2 = -1 for the second mode
    rep2 = gpe_spectrum_closed_form(G, -1.0, 1.0)
    assert rep2.bifurcation_modes == [2]
    assert spectrum_mismatch(rep2.eigenvalues, [0.0, 0.0, 0.0, 0.0]) < 1e-12


def test_closed_form_battery_matches_numeric():
    worst = 0.0
    for build, ns in [(cycle_graph, range(3, 11)), (path_graph, range(2, 11)),
                      (complete_graph, range(2, 11))]:
        for n in ns:
            G = build(n)
            for alpha in [0.0, 1.0, -0.5]:
                spec = PotentialSpec.gpe(n, alpha, 1.0)
                num = spectrum(hamiltonian_matrix(G, spec, np.full(n, 1.0 / n)))
                cf = gpe_spectrum_closed_form(G, alpha, 1.0)
                worst = max(worst, spectrum_mismatch(num.eigenvalues, cf.eigenvalues))
    assert worst <= 1e-8


def test_stability_classification_gpe():
    n = 5
    G = cycle_graph(n)
    lam = np.linalg.eigvalsh(plain_laplacian(G))
    # alpha above every threshold: purely imaginary, stable
    rep = gpe_spectrum_closed_form(G, 1.0, 1.0)
    assert rep.classification == "spectrally_stable"
    # alpha well below the first threshold: a real positive eigenvalue
    alpha_unstable = -(n / 4.0) * lam[1] * 1.0 - 1.0
    rep2 = gpe_spectrum_closed_form(G, alpha_unstable, 1.0)
    assert rep2.classification == "unstable"
    num = spectrum(hamiltonian_matrix(G, PotentialSpec.gpe(n, alpha_unstable, 1.0),
                                      np.full(n, 1.0 / n)))
    assert num.classification == "unstable"


def test_bifurcation_threshold_tolerance():
    n = 6
    G = cycle_graph(n)
    lam = np.linalg.eigvalsh(plain_laplacian(G))
    h = 1.0
    k = 2  # second mode, 1-based
    alpha_star = -(n / 4.0) * lam[k - 1] * h**2
    hit = gpe_spectrum_closed_form(G, alpha_star, h)
    assert k in hit.bifurcation_modes
    near = gpe_spectrum_closed_form(G, alpha_star + 5e-10, h)
    assert k in near.bifurcation_modes
    off = gpe_spectrum_closed_form(G, alpha_star + 5e-9, h)
    assert k not in off.bifurcation_modes


def test_reduction_matches_dense_oracle(rng):
    graphs = [build_graph(1, []), two_node(0.7)]
    graphs += [random_connected_graph(rng) for _ in range(30)]
    seen = set()
    for G in graphs:
        n = G.n
        A = rng.normal(0.0, 1.0, (n, n))
        for sign in (1.0, -1.0):  # PSD W is stable, its negative mostly not
            spec = PotentialSpec(rng.normal(0.0, 1.0, n), sign * A @ A.T,
                                 float(rng.uniform(0.3, 1.5)))
            H = hamiltonian_matrix(G, spec, random_interior(rng, n))
            rep = spectrum(H)
            ref = dense_spectrum(H)
            scale = max(1.0, float(np.abs(ref).max()))
            assert len(rep.eigenvalues) == 2 * n
            assert spectrum_mismatch(rep.eigenvalues, ref) <= 1e-10 * scale
            assert rep.classification == _classify(ref)
            # the pairs +-i sqrt(mu) are exact
            assert spectrum_mismatch(rep.eigenvalues, -rep.eigenvalues) == 0.0
            if rep.classification == "spectrally_stable":
                assert np.all(rep.eigenvalues.real == 0.0)
            seen.add((n, rep.classification))
    assert {(1, "spectrally_stable"), (2, "spectrally_stable")} <= seen
    assert {c for _, c in seen} == {"spectrally_stable", "unstable"}


def test_spectrum_finite_on_nearly_disconnected_graph(rng):
    # a 1e-22 bridge puts the Fiedler value of L(rho) at roundoff level,
    # where eigh can return it slightly negative
    edges = [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0], [3, 4, 1.0], [4, 5, 1.0],
             [3, 5, 1.0], [2, 3, 1e-22]]
    G = build_graph(6, edges)
    spec = PotentialSpec.gpe(6, 1.0, 1.0)
    for _ in range(50):
        rep = spectrum(hamiltonian_matrix(G, spec, random_interior(rng, 6)))
        assert np.isfinite(rep.eigenvalues).all()
        assert rep.classification == "spectrally_stable"


def balanced_frequencies(H):
    """Sorted |Im| of LAPACK's eigvals of the full H, which balances it first."""
    return np.sort(np.abs(np.linalg.eigvals(H.full()).imag))


def frequencies(rep):
    return np.sort(np.abs(rep.eigenvalues.imag))


def relative_gap(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


def test_steep_torus_trap_matches_balanced_eigvals():
    # min rho_g is 2e-23: the trap's densities span 22 decades
    G = build_torus([16, 16], 1.0)
    V = [(i - 7.5) ** 2 + (j - 7.5) ** 2 for i in range(16) for j in range(16)]
    spec = PotentialSpec(V, np.ones(G.n), 1.0)
    H = hamiltonian_matrix(G, spec, solve_ground_state(G, spec).rho_g)
    rep = spectrum(H)
    got, ref = frequencies(rep), balanced_frequencies(H)
    assert rep.classification == "spectrally_stable"
    # past the zero pair, one entry per +-i omega pair
    assert relative_gap(got[2:12:2], ref[2:12:2]) <= 1e-6
    assert relative_gap(got[-1], ref[-1]) <= 1e-6


def test_path_lattice_small_h_has_one_zero_pair():
    G = build_path_lattice(160, -5.0, 5.0)
    spec = PotentialSpec(0.5 * G.coords.ravel() ** 2, np.zeros(G.n), 0.5)
    H = hamiltonian_matrix(G, spec, solve_ground_state(G, spec).rho_g)
    rep = spectrum(H)
    got = frequencies(rep)
    # the true frequencies start near 1: only the mass/gauge pair is zero
    assert np.count_nonzero(np.abs(rep.eigenvalues) < 0.5) == 2
    assert relative_gap(got[2:12:2], balanced_frequencies(H)[2:12:2]) <= 1e-6


def test_nearly_disconnected_graph_without_interaction_is_stable(rng):
    # at alpha = 0 the bridge mode's mu is roundoff-small; the snap to zero
    # keeps its real part from reading as a marginal or unstable pair
    edges = [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0], [3, 4, 1.0], [4, 5, 1.0],
             [3, 5, 1.0], [2, 3, 1e-22]]
    G = build_graph(6, edges)
    spec = PotentialSpec.gpe(6, 0.0, 1.0)
    for _ in range(200):
        rep = spectrum(hamiltonian_matrix(G, spec, random_interior(rng, 6)))
        assert rep.classification == "spectrally_stable"


# max |Im lambda| of the 32x32 trap below, from LAPACK's balanced eigvals of
# the full 2048 x 2048 H at the CLI's solved rho_g (min rho_g 7.7e-39)
STEEP_TRAP_MAX_FREQUENCY = 65.16747295735556


def test_steep_trap_through_the_cli(tmp_path):
    V = [0.1 * ((i - 15.5) ** 2 + (j - 15.5) ** 2) for i in range(32) for j in range(32)]
    cfg = {
        "schema": 1,
        "command": "stability",
        "graph": {"builder": "torus", "dims": [32, 32], "delta_x": 1.0},
        "potentials": {"V": V, "W": {"kind": "diagonal", "alpha": 1.0}, "h": 1.0},
        "rho_g": "solve",
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["stability", "--config", str(path), "--out", str(out)]) == 0
    rep = json.loads((out / "spectrum.json").read_text())
    assert rep["classification"] == "spectrally_stable"
    top = max(abs(im) for _, im in rep["eigenvalues"])
    assert abs(top - STEEP_TRAP_MAX_FREQUENCY) <= 1e-6
