"""Weighted graphs and the discrete calculus operators built on them.

A graph stores one record per undirected edge in canonical orientation
(j < l, 0-based).  An *edge field* is an array with one value per stored
edge; the value for the reverse orientation is minus the stored one, so
every edge field is skew-symmetric by construction.  A *node field* is a
real array of length ``n``.

Every operator is built from the signed incidence matrix D (m x n) with
D[e, ej[e]] = +1 and D[e, el[e]] = -1, which is never stored.  The Graph
methods apply it over the edge arrays: ``diff`` is D x (x_j - x_l per
edge), ``div`` is D^T f (+f at the lower endpoint, -f at the higher one),
``sum_ends`` is |D|^T f (f added at both endpoints), and
``laplacian_entries(c)`` is D^T diag(c) D as entries, which ``laplacian(c)``
assembles densely.  With c = w g this is the transport metric L(rho), and
grad = sqrt(w) D S.  The code that runs at every time step instead gathers
over the stacked endpoint index ``ends`` and scatters with one
``np.bincount`` over it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .config import floats, integer, number, read_json, read_section
from .errors import (
    ConfigError,
    DisconnectedGraph,
    DuplicateEdge,
    NonInteriorDensity,
    NonPositiveWeight,
    SelfLoop,
)

__all__ = [
    "Graph",
    "build_graph",
    "build_path_lattice",
    "build_torus",
    "grad",
    "divergence",
    "inner_product",
    "edge_means",
    "load_graph_json",
    "save_graph_json",
]


@dataclass(frozen=True)
class Graph:
    """Undirected, connected, positively weighted graph.

    Attributes
    ----------
    n : node count.
    ej, el : canonical endpoints of each edge, ``ej[e] < el[e]``.
    weights : positive edge weights.
    coords : optional node coordinates, shape (n, d).
    torus_dims, delta_x : set by :func:`build_torus`; used by the
        dispersion checks to test wave-number commensurability.
    sqrt_weights : sqrt(weights).
    ends : the 4 x m index with rows ej, el, n + ej, n + el.  For a node
        field x, x[ends[:2]] holds x_j and x_l of every edge as two rows,
        and np.bincount(ends.ravel(), [a, b, c, d], 2n) is the pair of node
        fields that adds edge field a at ej and b at el, then c at ej and d
        at el.
    """

    n: int
    ej: np.ndarray
    el: np.ndarray
    weights: np.ndarray
    coords: np.ndarray | None = None
    torus_dims: tuple[int, ...] | None = None
    delta_x: float | None = None
    sqrt_weights: np.ndarray = field(init=False, repr=False)
    ends: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sqrt_weights", np.sqrt(self.weights))
        ends = np.stack([self.ej, self.el])
        object.__setattr__(self, "ends", np.concatenate([ends, ends + self.n]))

    @property
    def m(self) -> int:
        return len(self.weights)

    def diff(self, x: np.ndarray) -> np.ndarray:
        """D x: the edge field x_j - x_l of a node field."""
        return x[self.ej] - x[self.el]

    def div(self, f: np.ndarray) -> np.ndarray:
        """D^T f: each edge value added at ej and subtracted at el."""
        return np.bincount(self.ej, f, self.n) - np.bincount(self.el, f, self.n)

    def sum_ends(self, f: np.ndarray) -> np.ndarray:
        """|D|^T f: each edge value added at both endpoints."""
        return np.bincount(self.ej, f, self.n) + np.bincount(self.el, f, self.n)

    def edge_entries(self, diag, upper, lower):
        """Entries with ``diag`` on the diagonal (the first n values), ``upper``
        at (ej, el) and ``lower`` at (el, ej); no pair repeats."""
        nodes = np.arange(self.n)
        return (np.concatenate([nodes, self.ej, self.el]),
                np.concatenate([nodes, self.el, self.ej]),
                np.concatenate([diag, upper, lower]))

    def laplacian_entries(self, c: np.ndarray):
        """D^T diag(c) D for per-edge conductances c, as ``edge_entries``."""
        return self.edge_entries(self.sum_ends(c), -c, -c)

    def laplacian(self, c: np.ndarray) -> np.ndarray:
        """Dense form of ``laplacian_entries``."""
        return dense(*self.laplacian_entries(c), self.n)


def dense(rows, cols, vals, size) -> np.ndarray:
    """The size x size matrix of (rows, cols, vals) entries, the one format of
    every matrix over the nodes: a repeated (row, col) pair adds up."""
    # bincount of no entries is an integer array
    flat = np.bincount(rows * size + cols, vals, size * size).astype(float, copy=False)
    return flat.reshape(size, size)


# Densities below this are treated as boundary points: log() would still be
# finite but the dynamics is meaningless there.
INTERIOR_FLOOR = 1e-300


def is_interior(rho) -> bool:
    """Whether the density array ``rho`` has entries, each finite and at least
    INTERIOR_FLOOR: the one test of the simplex interior."""
    # a NaN or -inf fails the first test, a +inf the second
    return bool(rho.size and rho.min() >= INTERIOR_FLOOR and rho.max() < np.inf)


def check_interior(rho, n=None) -> np.ndarray:
    """rho as a float array, checked to have shape (n,) and to be ``is_interior``."""
    rho = np.asarray(rho, dtype=float)
    if n is not None and rho.shape != (n,):
        raise ConfigError(f"density has shape {rho.shape}, expected ({n},)")
    if not is_interior(rho):
        if rho.size == 0:
            raise NonInteriorDensity("density is empty")
        if not np.isfinite(rho).all():
            raise NonInteriorDensity("density has a non-finite entry")
        raise NonInteriorDensity(f"density entry {rho.min():.3g} is at the simplex boundary")
    return rho


def _check_connected(n, ej, el):
    adj = [[] for _ in range(n)]
    for a, b in zip(ej, el):
        adj[a].append(b)
        adj[b].append(a)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return bool(seen.all())


def build_graph(n, edges, coords=None, **meta) -> Graph:
    """Validate and build a graph from ``(j, l, weight)`` triples (0-based)."""
    if n < 1:
        raise ConfigError("node count must be positive")
    ej, el, w = [], [], []
    seen = set()
    for j, l, weight in edges:
        j, l = int(j), int(l)
        if j == l:
            raise SelfLoop(f"self loop at node {j}")
        if not (0 <= j < n and 0 <= l < n):
            raise ConfigError(f"edge ({j}, {l}) out of range for n={n}")
        if not 0 < weight < np.inf:
            raise NonPositiveWeight(f"edge ({j}, {l}) has weight {weight}")
        a, b = (j, l) if j < l else (l, j)
        if (a, b) in seen:
            raise DuplicateEdge(f"edge ({a}, {b}) appears twice")
        seen.add((a, b))
        ej.append(a)
        el.append(b)
        w.append(float(weight))
    ej = np.asarray(ej, dtype=np.intp)
    el = np.asarray(el, dtype=np.intp)
    w = np.asarray(w, dtype=float)
    if not _check_connected(n, ej, el):
        raise DisconnectedGraph(f"graph on {n} nodes is not connected")
    if coords is not None:
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        if coords.shape[0] != n:
            coords = coords.T
        if coords.shape[0] != n:
            raise ConfigError("coords must provide one point per node")
    return Graph(n=n, ej=ej, el=el, weights=w, coords=coords, **meta)


def _lattice_spacing(dx, steps):
    """dx as a float, checked: positive, and steps * dx (the lattice's extent) finite."""
    dx = float(dx)
    if not (0.0 < dx and dx * int(steps) < np.inf):  # a NaN fails too
        raise ConfigError(f"lattice spacing {dx:g}: not positive, or its lattice is not finite")
    return dx


def _lattice_weight(weight_mode, weight, dx):
    """The edge weight of a lattice with spacing dx: 1/dx^2 or the given one."""
    if weight_mode == "continuum":
        if weight is not None:
            raise ConfigError('"weight" is used only with weight_mode "constant"')
        with np.errstate(all="ignore"):  # out of range, 1/dx^2 becomes 0 or inf
            w = 1.0 / np.float64(dx) ** 2  # numpy's scalar ** calls C pow, as a float's does
        if not 0.0 < w < np.inf:
            raise ConfigError(f"lattice spacing {dx:g}: its weight 1/dx^2 is out of float range")
        return w
    if weight_mode == "constant":
        return 1.0 if weight is None else float(weight)
    raise ConfigError(f"unknown weight_mode {weight_mode!r}")


def build_path_lattice(n, x_min, x_max, weight_mode="continuum", weight=None) -> Graph:
    """Path graph with equally spaced coordinates on [x_min, x_max].

    ``continuum`` mode sets every edge weight to 1/dx^2, which is the
    normalization under which the lattice operators converge to their
    continuum counterparts, and rejects a ``weight``.  ``constant`` uses
    the given ``weight`` (default 1).
    """
    if n < 2:
        raise ConfigError("path lattice needs at least 2 nodes")
    if not x_min < x_max:
        raise ConfigError("need x_min < x_max")
    if not float(x_max) - float(x_min) < np.inf:  # np.linspace would overflow
        raise ConfigError(f"lattice spacing of [{x_min:g}, {x_max:g}]: its width overflows")
    xs = np.linspace(x_min, x_max, n)
    dx = _lattice_spacing(xs[1] - xs[0], n - 1)
    w = _lattice_weight(weight_mode, weight, dx)
    edges = [(j, j + 1, w) for j in range(n - 1)]
    return build_graph(n, edges, coords=xs.reshape(-1, 1), delta_x=dx)


def build_torus(dims, delta_x=1.0, weight_mode="continuum", weight=None) -> Graph:
    """Periodic lattice with identical degree and edge weight at every node.

    The edge weight follows ``weight_mode`` as in ``build_path_lattice``.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 3 for d in dims):
        raise ConfigError("each torus dimension must be >= 3 (else multi-edges)")
    delta_x = _lattice_spacing(delta_x, max(dims) - 1)  # the largest coordinate
    w = _lattice_weight(weight_mode, weight, delta_x)
    n = int(np.prod(dims))
    idx = np.arange(n).reshape(dims)
    edges = []
    for axis in range(len(dims)):
        rolled = np.roll(idx, -1, axis=axis)
        for a, b in zip(idx.ravel(), rolled.ravel()):
            edges.append((int(a), int(b), w))
    grids = np.meshgrid(*[np.arange(d) * delta_x for d in dims], indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    return build_graph(n, edges, coords=coords, torus_dims=dims, delta_x=delta_x)


def edge_means(G: Graph, rho: np.ndarray) -> np.ndarray:
    """Per-edge density (rho_j + rho_l) / 2."""
    return 0.5 * (rho[G.ej] + rho[G.el])


def grad(G: Graph, S: np.ndarray) -> np.ndarray:
    """Potential edge field sqrt(w_jl) (S_j - S_l) in canonical orientation."""
    S = np.asarray(S, dtype=float)
    if S.shape != (G.n,):
        raise ConfigError(f"node field has shape {S.shape}, expected ({G.n},)")
    return G.sqrt_weights * G.diff(S)


def divergence(G: Graph, rho: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Divergence of the flux rho*v, per node.

    Sign convention: div(rho grad S) = L(rho) S with L positive
    semidefinite, so the operator is the negative of the continuum
    divergence.  The result always sums to zero over the nodes.
    """
    rho = check_interior(rho, G.n)
    if len(v) != G.m:
        raise ConfigError("edge field length mismatch")
    return G.div(G.sqrt_weights * v * edge_means(G, rho))


def inner_product(G: Graph, rho: np.ndarray, v: np.ndarray, u: np.ndarray) -> float:
    """Weighted inner product (v, u)_rho = sum_e v_e u_e g_e over edges."""
    rho = check_interior(rho, G.n)
    if len(v) != G.m or len(u) != G.m:
        raise ConfigError("edge field length mismatch")
    return float(np.sum(v * u * edge_means(G, rho)))


def _edges(edges) -> list:
    """1-based [j, l, w] triples as build_graph's 0-based (j, l, w)."""
    return [(integer(j) - 1, integer(l) - 1, number(w)) for j, l, w in edges]


# the keys of a graph file and of the explicit builder: ({key: converter}, required)
GRAPH_KEYS = ({"n": integer, "edges": _edges, "coords": floats}, {"n", "edges"})


def load_graph_json(path) -> Graph:
    """Read the on-disk graph format (1-based node indices).

    The file is a JSON object with the keys ``n``, ``edges`` and optionally
    ``coords``; any other key, a missing file or malformed JSON is a
    ConfigError.
    """
    data = read_json(path, "graph")
    return build_graph(**read_section(data, f"graph file {path}", *GRAPH_KEYS))


def save_graph_json(G: Graph, path) -> None:
    data = {
        "n": G.n,
        "edges": [
            [int(j) + 1, int(l) + 1, float(w)]
            for j, l, w in zip(G.ej, G.el, G.weights)
        ],
    }
    if G.coords is not None:
        data["coords"] = G.coords.tolist()
    with open(path, "w") as f:
        json.dump(data, f)
