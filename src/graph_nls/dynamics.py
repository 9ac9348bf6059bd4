"""Hamiltonian dynamics of the (rho, S) system and its wave form.

The flow is

    d rho / dt = +dH/dS = L(rho) S
    d S   / dt = -dH/drho

which is the sign combination under which the energy is an exact
invariant and the wave function Psi = sqrt(rho) exp(i S / h) satisfies
the Schrodinger-type equation with the nonlinear graph Laplacian.
Default integrator is the implicit midpoint rule (symplectic; simplified
Newton iteration started from a quadratic extrapolation of the last three
steps, stopped on the true residual or, after a first update, on a
contraction estimate that a true residual refreshes at least every ninth
step), with classical RK4 available for cross-checks.  The Newton matrix
I - dt/2 J is chosen by size alone: at 2n <= _DIRECT_SIZE (256) it is
factored once per build and each update is one dense product, so
``krylov_matvecs`` reads 0 and ``factorizations`` counts real
factorizations; above it each update is a GMRES solve with the analytic
Jacobian applied matrix-free in O(n + m).  On both paths the contraction
a step measures is floored at the error a GMRES update is allowed: an
update right after a build contracts only by its quadratic term, which
would make the estimate optimistic for the steps after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    IncommensurateWaveNumber,
    NewtonDivergence,
    NonInteriorDensity,
    StepLeftSimplex,
    ZeroModulus,
)
from .energy import (
    PotentialSpec,
    check_interior,
    energy_terms,
    fisher_gradient,  # noqa: F401  bench/tests checks that the tracer wraps it here
    hamiltonian,
    interaction_times,
    static_gradient,
    static_hessian_entries,
    wave_edge_field,
)
from .graph import Graph, _lattice_weight, dense, edge_means
from .krylov import entries_times, gmres
from .transport import metric_conductances

__all__ = [
    "SystemState",
    "IntegratorConfig",
    "Trajectory",
    "rhs",
    "rhs_jacobian",
    "step",
    "simulate",
    "to_wave",
    "from_wave",
    "graph_laplacian_wave",
    "schrodinger_operator",
    "plane_wave_residual",
]

# how far from 1 the mass of simulate's initial density may be
INITIAL_MASS_TOL = 1e-9


@dataclass(frozen=True)
class SystemState:
    rho: np.ndarray
    S: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        object.__setattr__(self, "S", np.asarray(self.S, dtype=float))


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "implicit_midpoint"
    dt: float = 1e-3
    T: float = 1.0
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    output_every: int = 1

    def __post_init__(self):
        if self.method not in ("implicit_midpoint", "rk4"):
            raise ConfigError(f"unknown method {self.method!r}")
        if not (0 < self.dt < np.inf and 0 < self.T < np.inf):
            raise ConfigError("dt and T must be positive and finite")
        if not 0 < self.newton_tol < np.inf or self.newton_max_iter < 1:
            raise ConfigError("Newton settings must be positive")
        if self.output_every < 1:
            raise ConfigError("output_every must be >= 1")


@dataclass
class Trajectory:
    """Snapshots plus per-snapshot diagnostics.

    ``norm_resid`` is the residual of the phase-normalization identity:
    sum_j S_j rho_j minus its initial value minus the accumulated
    integral of 1/2 (grad S, grad S)_rho - (h^2/8) I - V - 2 W.
    ``halving_events`` lists each step-size halving as (t, new dt), t
    being the time of the step that failed.
    ``newton_iterations``, ``krylov_matvecs``, ``factorizations`` and
    ``extrapolated_starts`` count the implicit midpoint's Newton updates,
    the products with the Jacobian that their GMRES solves made (0 when
    the Newton matrix is factored, at 2n <= _DIRECT_SIZE), the builds of
    the Newton operator (each a factorization there) and the Newton solves
    started from the extrapolated predictor, over every step tried, failed
    ones included.
    ``estimated_stops`` counts the steps that stopped after their first
    update on the contraction estimate, without evaluating the residual
    there; every other step stopped on a residual within ``newton_tol``.
    """

    times: list = field(default_factory=list)
    rhos: list = field(default_factory=list)
    Ss: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    min_rho: list = field(default_factory=list)
    norm_resid: list = field(default_factory=list)
    error: str | None = None
    halving_events: list = field(default_factory=list)
    newton_iterations: int = 0
    krylov_matvecs: int = 0
    factorizations: int = 0
    extrapolated_starts: int = 0
    estimated_stops: int = 0

    @property
    def halvings(self) -> int:
        return len(self.halving_events)

    def __len__(self):
        return len(self.times)


def rhs(G: Graph, spec: PotentialSpec, state: SystemState):
    """Time derivatives (drho/dt, dS/dt) of the Hamiltonian flow."""
    # the Fisher gradient checks that rho is an interior density on G
    static = static_gradient(G, spec, state.rho)
    dS_edge = G.diff(state.S)
    drho = G.div(G.weights * dS_edge * edge_means(G, state.rho))
    # dH/drho: half the squared phase differences (dg/drho = 1/2 on both
    # endpoints) plus the gradient of the static energy
    q = G.sum_ends(0.25 * G.weights * dS_edge**2)
    return drho, -(q + static)


def _jacobian_entries(G: Graph, spec: PotentialSpec, state: SystemState):
    """The Jacobian J = [[A, L], [-H, -A^T]] of the right-hand side as entries.

    Returns (rows, cols, values), the diagonal included, in O(n + m) numbers
    (plus the nonzeros of a dense W).  A = d(drho)/drho, L = L(rho) and H is
    the static Hessian (h^2/8) Hess I + W.  A (row, col) pair may repeat; the
    entries then add up.
    """
    rho = check_interior(state.rho, G.n)
    n = G.n
    half_w_dS = 0.5 * G.weights * G.diff(state.S)
    a = G.div(half_w_dS)
    A = G.edge_entries(a, half_w_dS, -half_w_dS)
    L = G.laplacian_entries(metric_conductances(G, rho))
    H = static_hessian_entries(G, spec, rho)
    minus_At = G.edge_entries(-a, half_w_dS, -half_w_dS)
    return (np.concatenate([A[0], L[0], n + H[0], n + minus_At[0]]),
            np.concatenate([A[1], n + L[1], H[1], n + minus_At[1]]),
            np.concatenate([A[2], L[2], -H[2], minus_At[2]]))


def rhs_jacobian(G: Graph, spec: PotentialSpec, state: SystemState) -> np.ndarray:
    """Analytic 2n x 2n Jacobian of the right-hand side, as a dense matrix.

    The dense form of the entries that ``simulate`` applies matrix-free.
    """
    return dense(*_jacobian_entries(G, spec, state), 2 * G.n)


def _extrapolate(starts):
    """Quadratic extrapolation 3 z_k - 3 z_{k-1} + z_{k-2} of the next start."""
    z2, z1, z0 = starts
    return 3.0 * (z0 - z1) + z2


# GMRES stops once |F - M x| <= max(_GMRES_TOL * newton_tol, min(_FORCING, |F|) |F|)
# in the 2-norm, and after at most _KRYLOV_DIM matrix-vector products past
# the first.  ``_newton_solve`` floors the contraction r1/r0 of a step's
# first update at the same min(_FORCING, r0), r0 = max|F|, on both paths
_FORCING = 0.1
_GMRES_TOL = 1e-3
_KRYLOV_DIM = 30

# A Newton matrix of size 2n <= _DIRECT_SIZE is factored once per build and
# each update is one dense product; a larger one is solved by GMRES.  On a
# cycle or square torus at dt = 1e-3 (2 CPUs, numpy 2.4.6, OpenBLAS 0.3.31):
#   2n                     128      256      392      512
#   dense product (us)     6        10       26       60-77
#   GMRES update (us)      20-39    23-37    40-61    48-77  (2-3 products)
#   factorization (ms)     0.9      6.5      9.8      20.4   (per build)
# so at 2n = 256 a build pays for itself after ~400 updates; runs of 1000
# steps were mostly faster factored up to 2n = 288, mixed at 392 and slower
# at 512.
_DIRECT_SIZE = 256
# the factored matrix is singular when an entry of (I - K)^-1 K reaches this
_SINGULAR = 1e12

# at most this many steps in a row stop on the contraction estimate; the
# next one evaluates its residual, which measures the contraction afresh
_ESTIMATED_RUN = 8


class _NewtonMatrix:
    """The simplified-Newton matrix M = I - dt/2 J, factored or matrix-free.

    ``build`` freezes J at one midpoint as the (rows, cols, values) entries
    of K = dt/2 J: O(n + m) numbers plus the nonzeros of a dense W.  When
    2n <= _DIRECT_SIZE it factors M from them once, keeping C = M^-1 K
    densely, and ``solve`` returns x = F + C F = M^-1 F, one product; a
    singular M raises NewtonDivergence.  Above that size ``solve`` runs
    ``krylov.gmres`` on M from x = F, never forming an n x n array.  It
    asks a far-off iterate only for a relative reduction of min(_FORCING, |F|)
    (an inexact Newton forcing term) and a near one for an absolute
    residual of _GMRES_TOL times ``tol``, the Newton tolerance, which the
    caller sets before solving.  Either way the correction x - F lies in
    range(J), whose density half sums to zero: each update keeps the mass
    to the roundoff of the correction, not of x.
    ``simulate`` reuses one holder across the Newton iterations and the
    steps of a run.  The holder also keeps the starts of the last steps of
    one unbroken run at one dt, from which ``predict`` extrapolates the
    next step's Newton start, and the contraction model of ``calibrate``
    and ``stops_on_estimate``.
    """

    def __init__(self):
        self.dt = None  # the dt the operator was built for; None before the first
        self.tol = None  # the Newton tolerance of the current solve
        self.builds = 0
        self.iterations = 0
        self.matvecs = 0
        self.extrapolated = 0
        self.estimated = 0
        self.rate = None  # contraction per unit distance from the frozen midpoint
        self._run = 0  # estimated stops since the last calibration
        self._last = None  # (state returned by the last step, its dt)
        self._starts = []  # starts of the steps since the last reset, at most 3

    def build(self, G, spec, mid, dt):
        """Freeze J at ``mid`` for ``dt``; a singular M raises NewtonDivergence
        and leaves the holder with the operator it had."""
        rows, cols, vals = _jacobian_entries(G, spec, mid)
        size, k_vals = 2 * G.n, 0.5 * dt * vals
        k_times = correction = None
        if size <= _DIRECT_SIZE:
            K = dense(rows, cols, k_vals, size)
            try:
                # (I - K)^-1 = I + C with C = (I - K)^-1 K: x = F + C F
                correction = np.linalg.solve(np.eye(size) - K, K)
            except np.linalg.LinAlgError:
                pass
            if correction is None or not np.abs(correction).max() < _SINGULAR:  # a NaN fails too
                raise NewtonDivergence("the Newton matrix is singular")
        else:
            k_times = entries_times(rows, cols, k_vals, size)  # K x = dt/2 J x
        self._k_times, self._correction = k_times, correction
        self._frozen = np.concatenate([mid.rho, mid.S])  # the midpoint J is frozen at
        self.rate = None
        self.dt = dt
        self.builds += 1

    def solve(self, F):
        """The Newton update x: M^-1 F below _DIRECT_SIZE; above it, x with a
        small residual |F - M x|, or GMRES's best after _KRYLOV_DIM products,
        from which the Newton iteration goes on.  A non-finite F raises
        NewtonDivergence either way."""
        self.iterations += 1
        if self._correction is not None:
            if not np.abs(F).max() < math.inf:  # a NaN fails the test too
                raise NewtonDivergence("Newton residual is not finite")
            return F + self._correction.dot(F)
        f_norm = math.sqrt(F.dot(F))
        tol = max(_GMRES_TOL * self.tol, min(_FORCING, f_norm) * f_norm)
        x, products = gmres(self._k_times, F, tol, _KRYLOV_DIM)
        self.matvecs += products
        return x

    def calibrate(self, ratio, zm):
        """Record the contraction r1/r0 of a step's first update, ending at midpoint zm.

        The contraction of simplified Newton grows with the distance of the
        midpoint from the one J is frozen at, so the rate is kept per unit
        of that distance.  The caller floors the ratio (see _FORCING).
        """
        distance = float(np.abs(zm - self._frozen).max())
        self.rate = float(ratio) / distance if distance > 0 else None
        self._run = 0

    def stops_on_estimate(self, zm, dz):
        """Whether a step may stop after its first update dz, which ended at midpoint zm.

        theta = rate * max|zm - zb| estimates the contraction at zm (zb the
        frozen midpoint), and theta / (1 - theta) max|dz| the error left.
        Yes when theta < 1 and that error is within the Newton tolerance,
        unless the rate is unknown or _ESTIMATED_RUN steps in a row have
        already stopped on it.  A NaN fails every comparison.
        """
        if self.rate is None or self._run >= _ESTIMATED_RUN:
            return False
        theta = self.rate * float(np.abs(zm - self._frozen).max())
        if not (theta < 1.0 and theta / (1.0 - theta) * float(np.abs(dz).max()) <= self.tol):
            return False
        self._run += 1
        self.estimated += 1
        return True

    def predict(self, state, z0, dt):
        """The extrapolated start of the step from ``state``, or None.

        The history continues only when ``state`` is the object the last
        step returned and ``dt`` is that step's dt; otherwise it restarts
        at ``z0``, and the contraction rate is forgotten.  None until three
        starts are known, and None when the extrapolated density is not
        strictly positive.
        """
        if self._last is None or self._last[0] is not state or self._last[1] != dt:
            self._starts = []
            self.rate = None
        self._last = None  # set again only when this step succeeds
        self._starts = self._starts[-2:] + [z0]
        if len(self._starts) < 3:
            return None
        z1 = _extrapolate(self._starts)
        if not z1[: len(z0) // 2].min() > 0:
            return None
        self.extrapolated += 1
        return z1

    def accept(self, new, dt):
        self._last = (new, dt)
        return new


def _newton_solve(G, spec, state, cfg, newton, z0, z1):
    """Simplified Newton on z1 - z0 - dt f((z0 + z1)/2) = 0 from the start z1.

    Stops when the residual F has max|F| <= newton_tol, or right after the
    first update when ``newton.stops_on_estimate`` bounds the error left by
    newton_tol; the residual is then not evaluated.  Every step that
    evaluates the residual after its first update recalibrates that
    estimate; a rebuild of the operator forgets it.
    """
    n = G.n
    dt = cfg.dt
    newton.tol = cfg.newton_tol
    prev = np.inf
    for it in range(cfg.newton_max_iter):
        if not np.isfinite(z1).all():
            raise NewtonDivergence("Newton iterate is not finite")
        # z0 is interior, so the midpoint density is positive when z1's is
        if z1[:n].min() <= 0:
            raise StepLeftSimplex("Newton iterate density left the simplex interior")
        zm = 0.5 * (z0 + z1)
        if it == 1 and newton.stops_on_estimate(zm, dz):
            return SystemState(z1[:n], z1[n:], state.t + dt)
        mid = SystemState(zm[:n], zm[n:], state.t + 0.5 * dt)
        fm = np.concatenate(rhs(G, spec, mid))
        F = z1 - z0 - dt * fm
        res = np.abs(F).max()
        if it == 1:
            newton.calibrate(max(res / prev, min(_FORCING, prev)), zm)
        if res <= cfg.newton_tol:
            return SystemState(z1[:n], z1[n:], state.t + dt)
        if not np.isfinite(res):
            raise NewtonDivergence(f"Newton residual is {res}")
        # rebuild at this midpoint when the operator is for another dt, or
        # when the last iteration cut the residual by less than 10x
        if newton.dt != dt or res > 0.1 * prev:
            newton.build(G, spec, mid, dt)
        prev = res
        dz = newton.solve(F)
        z1 = z1 - dz
    raise NewtonDivergence(
        f"residual {res:.3g} > {cfg.newton_tol:.3g} after {cfg.newton_max_iter} iterations"
    )


def _midpoint_step(G, spec, state, cfg, newton):
    z0 = np.concatenate([state.rho, state.S])
    guess = newton.predict(state, z0, cfg.dt)
    if guess is not None:
        try:
            return newton.accept(_newton_solve(G, spec, state, cfg, newton, z0, guess), cfg.dt)
        except (StepLeftSimplex, NewtonDivergence):
            # a bad guess must not halve dt: forget the rate its solve may
            # have measured and start again from Euler
            newton.rate = None
    euler = z0 + cfg.dt * np.concatenate(rhs(G, spec, state))
    return newton.accept(_newton_solve(G, spec, state, cfg, newton, z0, euler), cfg.dt)


def _rk4_step(G, spec, state, cfg):
    dt = cfg.dt

    def f(z, t):
        if z[: G.n].min() <= 0:
            raise StepLeftSimplex("RK4 stage density left the simplex interior")
        return np.concatenate(rhs(G, spec, SystemState(z[: G.n], z[G.n :], t)))

    z0 = np.concatenate([state.rho, state.S])
    k1 = f(z0, state.t)
    k2 = f(z0 + 0.5 * dt * k1, state.t + 0.5 * dt)
    k3 = f(z0 + 0.5 * dt * k2, state.t + 0.5 * dt)
    k4 = f(z0 + dt * k3, state.t + dt)
    z1 = z0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    if z1[: G.n].min() <= 0:
        raise StepLeftSimplex("RK4 step density left the simplex interior")
    return SystemState(z1[: G.n], z1[G.n :], state.t + dt)


def step(
    G: Graph,
    spec: PotentialSpec,
    state: SystemState,
    cfg: IntegratorConfig,
    newton: _NewtonMatrix | None = None,
):
    """Advance one time step with the configured method.

    ``newton`` carries the implicit midpoint's Newton operator and its
    history of step starts from one step to the next (``simulate`` passes
    one); without it the step builds its own and starts Newton from the
    explicit Euler predictor.
    """
    if cfg.method == "implicit_midpoint":
        return _midpoint_step(G, spec, state, cfg, newton or _NewtonMatrix())
    return _rk4_step(G, spec, state, cfg)


def _norm_integrand(G, spec, rho, S):
    kin, fisher, pot, inter = energy_terms(G, spec, rho, S)
    return kin - fisher - pot - 2.0 * inter


def simulate(G: Graph, spec: PotentialSpec, initial, cfg: IntegratorConfig) -> Trajectory:
    """Integrate up to T, returning snapshots every ``output_every`` steps.

    ``initial`` is a SystemState or a complex wave vector.  On integrator
    failure the step size is halved (at most 5 times); if that is
    exhausted the partial trajectory is returned with ``error`` set.
    """
    if np.iscomplexobj(initial):
        state = from_wave(initial, spec.h)
    else:
        state = initial
    rho = check_interior(state.rho, G.n)
    if abs(rho.sum() - 1.0) > INITIAL_MASS_TOL:
        raise NonInteriorDensity(f"initial mass {rho.sum():.12g} != 1")
    state = SystemState(rho, state.S, state.t)

    traj = Trajectory()
    sp0 = float(state.S @ state.rho)
    acc = 0.0  # running trapezoid of the normalization integrand
    prev_integrand = _norm_integrand(G, spec, state.rho, state.S)

    def emit(st):
        traj.times.append(st.t)
        traj.rhos.append(st.rho.copy())
        traj.Ss.append(st.S.copy())
        traj.mass.append(float(st.rho.sum()))
        traj.energy.append(hamiltonian(G, spec, st.rho, st.S))
        traj.min_rho.append(float(st.rho.min()))
        traj.norm_resid.append(float(st.S @ st.rho - sp0 - acc))

    emit(state)
    t_end = state.t + cfg.T
    dt = cfg.dt
    newton = _NewtonMatrix()
    cfg_k = cfg
    k = 0
    while state.t < t_end - 1e-12 * cfg.T:
        # a remainder within rounding of dt is a full step: a dt that differs
        # in its last bits would rebuild the Newton matrix for nothing
        rest = t_end - state.t
        dt_k = dt if rest > dt - 1e-12 * cfg.T else rest
        if dt_k != cfg_k.dt:
            cfg_k = replace(cfg, dt=dt_k)
        try:
            new = step(G, spec, state, cfg_k, newton)
        except (StepLeftSimplex, NewtonDivergence) as exc:
            if traj.halvings >= 5:
                traj.error = f"{type(exc).__name__}: {exc}"
                break
            dt *= 0.5
            traj.halving_events.append((state.t, dt))
            continue
        integrand = _norm_integrand(G, spec, new.rho, new.S)
        acc += 0.5 * dt_k * (prev_integrand + integrand)
        prev_integrand = integrand
        state = new
        k += 1
        if k % cfg.output_every == 0 or state.t >= t_end - 1e-12 * cfg.T:
            emit(state)
    traj.newton_iterations = newton.iterations
    traj.krylov_matvecs = newton.matvecs
    traj.factorizations = newton.builds
    traj.extrapolated_starts = newton.extrapolated
    traj.estimated_stops = newton.estimated
    return traj


def to_wave(state: SystemState, h: float) -> np.ndarray:
    """Psi_j = sqrt(rho_j) exp(i S_j / h)."""
    rho = check_interior(state.rho)
    return np.sqrt(rho) * np.exp(1j * state.S / h)


def from_wave(psi, h: float) -> SystemState:
    """Inverse map; S is recovered on the principal branch (-pi h, pi h]."""
    psi = np.asarray(psi, dtype=complex)
    rho = np.abs(psi) ** 2
    if rho.min() <= 0:
        raise ZeroModulus("wave function vanishes at a node")
    return SystemState(rho, h * np.angle(psi), 0.0)


def _laplacian_from_edge_dlog(G, psi, rho, dlog):
    """Assemble Lap_G Psi from a skew complex edge field of log differences."""
    flux = G.weights * dlog * edge_means(G, rho)
    first = G.div(flux.real) + 1j * G.div(flux.imag)
    second = G.sum_ends(0.5 * G.weights * np.abs(dlog) ** 2)
    return -psi * (first / rho + second)


def graph_laplacian_wave(G: Graph, psi, h: float = 1.0) -> np.ndarray:
    """Nonlinear graph Laplacian acting on a wave state.

    The per-edge principal angle of Psi_j conj(Psi_l) is already the phase
    difference (S_j - S_l)/h of the Psi = sqrt(rho) exp(i S / h) convention,
    so h does not enter the assembly.
    """
    psi = np.asarray(psi, dtype=complex)
    rho, dlog = wave_edge_field(G, psi)
    return _laplacian_from_edge_dlog(G, psi, rho, dlog)


def schrodinger_operator(G: Graph, spec: PotentialSpec, psi) -> np.ndarray:
    """H(Psi) = -h^2/2 Lap_G Psi + (V + W |Psi|^2) Psi, the wave form i h dPsi/dt."""
    return (-spec.h**2 / 2.0 * graph_laplacian_wave(G, psi, spec.h)
            + (spec.V + interaction_times(spec, np.abs(psi) ** 2)) * psi)


def plane_wave_residual(G: Graph, k) -> float:
    """Sup-norm residual of i dPsi/dt = -1/2 Lap_G Psi for a plane wave.

    ``k`` is the wave vector (one entry per torus dimension) and must be
    commensurate with the torus; mu = |k|^2 / 2, which needs the torus's
    weights to be 1/dx^2 (a ConfigError otherwise).  The per-edge phase
    differences are taken along the minimal torus displacement between
    neighbors (the smooth branch of the plane-wave phase), so the
    dispersion relation is exact for every commensurate k.
    """
    if G.torus_dims is None or G.coords is None or G.delta_x is None:
        raise ConfigError("plane waves need a torus graph with coordinates")
    # mu = |k|^2 / 2 holds for the continuum weights 1/dx^2 alone
    w = _lattice_weight("continuum", None, G.delta_x)
    if not np.isclose(G.weights, w, rtol=1e-12, atol=0.0).all():
        raise ConfigError(f"plane waves need every weight 1/dx^2 = {w:g} (dx = {G.delta_x:g})")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if len(k) != len(G.torus_dims):
        raise ConfigError("wave vector dimension mismatch")
    sides = np.array(G.torus_dims) * G.delta_x
    for ki, di, side in zip(k, G.torus_dims, sides):
        cycles = ki * side / (2 * np.pi)
        if abs(cycles - round(cycles)) > 1e-9:
            raise IncommensurateWaveNumber(
                f"k={ki:g} spans {cycles:g} periods around a side of {di} nodes"
            )
    psi = 1.0 / np.sqrt(G.n) * np.exp(1j * (G.coords @ k))
    rho = np.abs(psi) ** 2
    # minimal displacement across each edge (wrap edges move by -dx, not
    # +(side - dx)), giving the unambiguous phase difference k . disp
    disp = G.coords[G.ej] - G.coords[G.el]
    disp -= sides * np.round(disp / sides)
    dlog = 1j * (disp @ k)
    mu = 0.5 * float(k @ k)
    resid = mu * psi + 0.5 * _laplacian_from_edge_dlog(G, psi, rho, dlog)
    return float(np.abs(resid).max())
