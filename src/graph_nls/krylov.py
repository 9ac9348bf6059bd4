"""Matrix-free Krylov solvers for the package's Newton systems.

An operator is a callable x -> A x.  The matrices over the nodes are held
as (rows, cols, vals) entries (see ``graph.dense``), and ``entries_times``
turns them into that callable.  Each solver returns its solution with the
number of operator products it made; the work counters stay with the
callers.  ``gmres`` solves the implicit midpoint's Newton update
(``dynamics``), ``projected_cg`` the ground-state Newton direction
(``ground_state``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NewtonDivergence


def entries_times(rows, cols, vals, size):
    """The product x -> A x with the size x size matrix of (rows, cols, vals)
    entries: one gather and one ``np.bincount``, O(len(vals))."""
    return lambda x: np.bincount(rows, vals * x[cols], size)


def gmres(k_times, b, tol, max_dim):
    """Solve (I - K) x = b by GMRES from x = b, K given by ``k_times``.

    Saad & Schultz, SIAM J. Sci. Stat. Comput. 7 (1986).  The Arnoldi
    process (classical Gram-Schmidt) runs on K; I - K has the same Krylov
    spaces, and its Hessenberg matrix is the identity minus K's.  The
    least-squares problem is reduced by Givens rotations on floats.  Every
    correction to the start lies in range(K).  Stops once the residual
    |b - (I - K) x| in the 2-norm is at most ``tol``, or after ``max_dim``
    products past the first, with the best x so far.  Returns (x, products),
    where products = k + 1 for a Krylov space of dimension k.  Raises
    NewtonDivergence when the first residual is not finite, or when the
    iteration breaks down on a singular I - K: a Givens pivot at most
    1e-12 times the largest entry of I, K's Hessenberg column and its
    subdiagonal.
    """
    w = k_times(b)  # the residual b - (I - K) b of the start x = b
    g = [math.sqrt(w.dot(w))]  # the rotated right-hand side
    if not g[0] < math.inf:
        raise NewtonDivergence("GMRES residual is not finite")
    basis = np.empty((max_dim, len(b)))
    norm = g[0]
    cols, rotations = [], []
    k = 0
    while abs(g[-1]) > tol and k < max_dim:
        v = np.divide(w, norm, out=basis[k])
        w = k_times(v)
        h = basis[: k + 1].dot(w)  # classical Gram-Schmidt
        w -= h.dot(basis[: k + 1])
        norm = math.sqrt(w.dot(w))
        col = (-h).tolist()  # the new column of the Hessenberg matrix of I - K
        scale = max(1.0, norm, *map(abs, col))  # the largest entry of I and of K's column
        col[-1] += 1.0
        for i, (cs, sn) in enumerate(rotations):
            col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
        d = math.hypot(col[-1], norm)
        # a pivot at roundoff against the entries of I and K: I - K is singular
        if not 1e-12 * scale < d < math.inf:
            raise NewtonDivergence("GMRES broke down: the Newton matrix is singular")
        cs, sn = col[-1] / d, -norm / d
        rotations.append((cs, sn))
        col[-1] = d
        cols.append(col)
        g.append(-sn * g[-1])
        g[-2] *= cs
        k += 1
    y = [0.0] * k
    for i in reversed(range(k)):
        y[i] = (g[i] - sum(cols[j][i] * y[j] for j in range(i + 1, k))) / cols[i][i]
    return b + np.array(y).dot(basis[:k]), k + 1


def projected_cg(h_times, r, precondition, residual, target, max_products):
    """Truncated, preconditioned CG on H x = -r from x = 0, H given by ``h_times``.

    Steihaug (1983); Nocedal & Wright, Alg. 7.1.  ``precondition`` applies
    the inverse of a positive preconditioner followed by the projection
    onto the constraint space, so every direction stays on it, and
    ``residual`` measures an updated residual r = H x + r0 in the caller's
    norm.  Stops once that measure falls to ``target``; after
    ``max_products`` products, or once the updated residual is down to
    roundoff, it returns the iterate with the smallest measure.  At
    non-positive curvature it returns its iterate so far, or the projected,
    preconditioned steepest-descent direction if there is none yet.
    Returns (x, products).
    """
    x = np.zeros(len(r))
    best, best_x = np.inf, x
    y = precondition(r)
    ry = r @ y
    d = -y
    products = 0
    while products < max_products:
        hd = h_times(d)
        products += 1
        curvature = d @ hd
        if not curvature > 0:
            return (x if products > 1 else d), products
        alpha = ry / curvature
        x = x + alpha * d
        r = r + alpha * hd
        res = residual(r)
        if res < best:
            best, best_x = res, x
            if res <= target:
                break
        y = precondition(r)
        ry_new = r @ y
        if not ry_new > 0:  # r is down to the roundoff of its updates
            break
        d *= ry_new / ry
        d -= y
        ry = ry_new
    return best_x, products
