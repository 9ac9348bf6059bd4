"""Hamiltonian dynamics of the (rho, S) system and its wave form.

The flow is

    d rho / dt = +dH/dS = L(rho) S
    d S   / dt = -dH/drho

which is the sign combination under which the energy is an exact
invariant and the wave function Psi = sqrt(rho) exp(i S / h) satisfies
the Schrodinger-type equation with the nonlinear graph Laplacian.
Default integrator is the implicit midpoint rule (symplectic; simplified
Newton iteration started from the cubic extrapolation of the last four
midpoint slopes, stopped on the true residual), with classical RK4
available for cross-checks.  At small dt that start already meets the
Newton tolerance, so a step costs one rhs and no update.  The Newton matrix
I - dt/2 J is chosen by size alone: at 2n <= _DIRECT_SIZE (256) it is
factored once per build and each update is one dense product, so
``krylov_matvecs`` reads 0 and ``factorizations`` counts real
factorizations; above it each update is a GMRES solve with the analytic
Jacobian applied matrix-free in O(n + m).  Both paths call the Newton
matrix singular by one rule, ``krylov.SINGULAR`` relative to the scale of
I and dt/2 J.  Every state a step returns has a residual within the Newton
tolerance and a density that ``graph.is_interior`` accepts, the one test
of the simplex interior; a step that would leave it, or whose Newton
matrix is singular, raises StepLeftSimplex or NewtonDivergence, on which
``simulate`` halves dt.  ``simulate`` evaluates the integrand of
``Trajectory.norm_resid`` in batches of accepted states, each in one
vectorized call, and the mass, minimum density and energy of the snapshots
when the run ends, over stacks of snapshots.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace

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
    fisher_gradient,  # noqa: F401  bench/tests checks that the tracer wraps it here
    hamiltonian,
    interaction_times,
    normalization_integrand,
    static_gradient,
    static_hessian_entries,
    wave_edge_field,
)
from .graph import Graph, _lattice_weight, dense, edge_means, is_interior
from .krylov import SINGULAR, entries_times, gmres
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


# a (rho, S) pair at which the step evaluates rhs or the Newton matrix,
# which read no time; cheaper to make than a SystemState
_Point = namedtuple("_Point", "rho S")

# the metadata of the Trajectory lists that hold one entry per snapshot
_PER_SNAPSHOT = {"snapshot": True}


@dataclass
class Trajectory:
    """Snapshots plus per-snapshot diagnostics.

    ``mass``, ``min_rho`` and ``energy`` are filled when the integration
    ends, by one evaluation each over stacks of snapshots (as many as an
    integrand batch holds): ``energy`` is ``energy.hamiltonian`` of the
    stack, whose rows go through the operations of ``hamiltonian`` at each
    snapshot alone.
    ``norm_resid`` is the residual of the phase-normalization identity:
    sum_j S_j rho_j minus its initial value minus the integral, by the
    trapezoid rule over the accepted steps, of 1/2 (grad S, grad S)_rho -
    (h^2/8) I - V - 2 W.  The integrand is evaluated over batches of
    accepted states, by one call of ``energy.normalization_integrand`` each
    (a batch holds _BATCH_FLOATS floats, the last one what is left when the
    run ends), and a snapshot's residual when its batch is; the trapezoid
    then adds the steps in order, so where a batch ends changes it by
    roundoff at most.
    ``halving_events`` lists each step-size halving as (t, new dt), t
    being the time of the step that failed.
    ``newton_iterations``, ``krylov_matvecs``, ``factorizations`` and
    ``extrapolated_starts`` count the implicit midpoint's Newton updates,
    the products with the Jacobian that their GMRES solves made (0 when
    the Newton matrix is factored, at 2n <= _DIRECT_SIZE), the builds of
    the Newton operator (each a factorization there) and the Newton solves
    started from the slope extrapolation, over every step tried, failed
    ones included.  Every step returned stopped on a residual within
    ``newton_tol``.
    The lists of one entry per snapshot are declared with _PER_SNAPSHOT,
    which ``head`` reads.
    """

    times: list = field(default_factory=list, metadata=_PER_SNAPSHOT)
    rhos: list = field(default_factory=list, metadata=_PER_SNAPSHOT)
    Ss: list = field(default_factory=list, metadata=_PER_SNAPSHOT)
    mass: list = field(default_factory=list, metadata=_PER_SNAPSHOT)
    energy: list = field(default_factory=list, metadata=_PER_SNAPSHOT)
    min_rho: list = field(default_factory=list, metadata=_PER_SNAPSHOT)
    norm_resid: list = field(default_factory=list, metadata=_PER_SNAPSHOT)
    error: str | None = None
    halving_events: list = field(default_factory=list)
    newton_iterations: int = 0
    krylov_matvecs: int = 0
    factorizations: int = 0
    extrapolated_starts: int = 0

    @property
    def halvings(self) -> int:
        return len(self.halving_events)

    def __len__(self):
        return len(self.times)

    def head(self, k: int) -> Trajectory:
        """A copy with the first k snapshots: each per-snapshot list cut to k entries."""
        cut = {f.name: getattr(self, f.name)[:k] for f in fields(self) if "snapshot" in f.metadata}
        return replace(self, **cut)


def rhs(G: Graph, spec: PotentialSpec, state: SystemState):
    """Time derivatives (drho/dt, dS/dt) of the Hamiltonian flow.

    Reads ``state.rho`` and ``state.S`` only.
    """
    # the Fisher gradient checks that rho is an interior density on G
    static = static_gradient(G, spec, state.rho)
    n = G.n
    r, s = state.rho[G.ends[:2]], state.S[G.ends[:2]]  # rows: values at ej, at el
    dS = s[0] - s[1]
    flux = G.weights * dS * (0.5 * (r[0] + r[1]))
    # -dH/drho: minus half the squared phase differences (dg/drho = 1/2 on
    # both endpoints) and minus the gradient of the static energy
    q = -0.25 * G.weights * dS**2
    sums = np.bincount(G.ends.ravel(), np.concatenate([flux, -flux, q, q]), 2 * n)
    return sums[:n], sums[n:] - static


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


# GMRES stops once |F - M x| <= max(_GMRES_TOL * newton_tol, min(_FORCING, |F|) |F|)
# in the 2-norm, and after at most _KRYLOV_DIM matrix-vector products past
# the first
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


class _NewtonMatrix:
    """The simplified-Newton matrix M = I - dt/2 J, factored or matrix-free,
    and the slope history that starts each step.

    ``build`` freezes J at one midpoint as the (rows, cols, values) entries
    of K = dt/2 J: O(n + m) numbers plus the nonzeros of a dense W.  When
    2n <= _DIRECT_SIZE it factors M from them once, keeping C = M^-1 K
    densely, and ``solve`` returns x = F + C F = M^-1 F, one product; an
    M that is singular by ``krylov.SINGULAR`` raises NewtonDivergence.
    Above that size ``solve`` runs ``krylov.gmres`` on M from x = F, never
    forming an n x n array.  It asks a far-off iterate only for a relative
    reduction of min(_FORCING, |F|) (an inexact Newton forcing term) and a
    near one for an absolute residual of _GMRES_TOL times ``tol``, the
    Newton tolerance, which the caller sets before solving.  Either way the
    correction x - F lies in range(J), whose density half sums to zero:
    each update keeps the mass to the roundoff of the correction, not of x.
    ``simulate`` reuses one holder across the Newton iterations and the
    steps of a run.  The holder also keeps the midpoint slopes f(z_m) of
    the last four steps of one unbroken run at one dt, recorded by
    ``accept``, from which ``predict`` extrapolates the next step's start.
    """

    def __init__(self):
        self.dt = None  # the dt the operator was built for; None before the first
        self.tol = None  # the Newton tolerance of the current solve
        self.builds = 0
        self.iterations = 0
        self.matvecs = 0
        self.extrapolated = 0
        self._last = None  # (state returned by the last step, its dt)
        # midpoint slopes of the steps since the last reset, oldest first, at most 4
        self._slopes = []

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
            # krylov.SINGULAR's rule, against the scale of I and K; a NaN fails too
            scale = max(1.0, np.abs(K).max())
            if correction is None or not SINGULAR * np.abs(correction).max() < scale:
                raise NewtonDivergence("the Newton matrix is singular")
        else:
            k_times = entries_times(rows, cols, k_vals, size)  # K x = dt/2 J x
        self._k_times, self._correction = k_times, correction
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

    def predict(self, state, z0, dt):
        """The start z0 + dt (4 f1 - 6 f2 + 4 f3 - f4) of the step from ``state``, or None.

        f1 .. f4 are the midpoint slopes of the last four steps, newest
        first: the cubic through them, taken one step on, is the slope of
        this step's midpoint to O(dt^4), so the start is O(dt^5) from the
        solution.  The history continues only when ``state`` is the object
        the last step returned and ``dt`` is that step's dt; otherwise it
        restarts.  None until four slopes are known.
        """
        if self._last is None or self._last[0] is not state or self._last[1] != dt:
            self._slopes = []
        self._last = None  # set again only when this step succeeds
        if len(self._slopes) < 4:
            return None
        self.extrapolated += 1
        f4, f3, f2, f1 = self._slopes
        return z0 + dt * (4.0 * (f1 + f3) - 6.0 * f2 - f4)

    def accept(self, new, slope, dt):
        """Record the step of size ``dt`` to ``new`` and its midpoint slope; returns ``new``."""
        self._slopes = self._slopes[-3:] + [slope]
        self._last = (new, dt)
        return new


def _newton_solve(G, spec, state, cfg, newton, z0, z1):
    """Simplified Newton on z1 - z0 - dt f((z0 + z1)/2) = 0 from the start z1.

    Stops when the residual F has max|F| <= newton_tol, and records the
    step in ``newton`` with the slope f of that residual.  Makes at most
    ``newton_max_iter`` updates, and tests the residual of the last one
    before it gives up.  Every iterate it returns is finite with an
    ``is_interior`` density.
    """
    n = G.n
    dt = cfg.dt
    newton.tol = cfg.newton_tol
    prev = math.inf
    for k in range(cfg.newton_max_iter + 1):
        if not np.isfinite(z1).all():
            raise NewtonDivergence("Newton iterate is not finite")
        # z0 is interior, so the midpoint density is interior when z1's is
        if not is_interior(z1[:n]):
            raise StepLeftSimplex("Newton iterate density left the simplex interior")
        zm = 0.5 * (z0 + z1)
        mid = _Point(zm[:n], zm[n:])
        slope = np.concatenate(rhs(G, spec, mid))
        F = z1 - z0 - dt * slope
        res = float(np.abs(F).max())
        if res <= cfg.newton_tol:
            return newton.accept(SystemState(z1[:n], z1[n:], state.t + dt), slope, dt)
        if not res < math.inf:  # a NaN fails the test too
            raise NewtonDivergence(f"Newton residual is {res}")
        if k == cfg.newton_max_iter:
            break
        # rebuild at this midpoint when the operator is for another dt, or
        # when the last iteration cut the residual by less than 10x
        if newton.dt != dt or res > 0.1 * prev:
            newton.build(G, spec, mid, dt)
        prev = res
        z1 = z1 - newton.solve(F)
    raise NewtonDivergence(
        f"residual {res:.3g} > {cfg.newton_tol:.3g} after {cfg.newton_max_iter} iterations"
    )


def _midpoint_step(G, spec, state, cfg, newton):
    z0 = np.concatenate([state.rho, state.S])
    guess = newton.predict(state, z0, cfg.dt)
    if guess is not None:
        try:
            return _newton_solve(G, spec, state, cfg, newton, z0, guess)
        except (StepLeftSimplex, NewtonDivergence):
            pass  # a bad start must not halve dt: start again from Euler
    euler = z0 + cfg.dt * np.concatenate(rhs(G, spec, state))
    return _newton_solve(G, spec, state, cfg, newton, z0, euler)


def _rk4_step(G, spec, state, cfg):
    dt, n = cfg.dt, G.n

    def f(z):
        if not is_interior(z[:n]):
            raise StepLeftSimplex("RK4 stage density left the simplex interior")
        return np.concatenate(rhs(G, spec, _Point(z[:n], z[n:])))

    z0 = np.concatenate([state.rho, state.S])
    k1 = f(z0)
    k2 = f(z0 + 0.5 * dt * k1)
    k3 = f(z0 + 0.5 * dt * k2)
    k4 = f(z0 + dt * k3)
    z1 = z0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    if not is_interior(z1[:n]):
        raise StepLeftSimplex("RK4 step density left the simplex interior")
    return SystemState(z1[:n], z1[n:], state.t + dt)


def step(
    G: Graph,
    spec: PotentialSpec,
    state: SystemState,
    cfg: IntegratorConfig,
    newton: _NewtonMatrix | None = None,
):
    """Advance one time step with the configured method.

    ``newton`` carries the implicit midpoint's Newton operator and its
    history of midpoint slopes from one step to the next (``simulate`` passes
    one); without it the step builds its own and starts Newton from the
    explicit Euler predictor.
    """
    if cfg.method == "implicit_midpoint":
        return _midpoint_step(G, spec, state, cfg, newton or _NewtonMatrix())
    return _rk4_step(G, spec, state, cfg)


# simulate evaluates the normalization integrand of the accepted steps in
# batches of this many floats, and the last batch when the run ends
_BATCH_FLOATS = 8192


def simulate(G: Graph, spec: PotentialSpec, initial, cfg: IntegratorConfig) -> Trajectory:
    """Integrate up to T, returning snapshots every ``output_every`` steps.

    ``initial`` is a SystemState or a complex wave vector.  On integrator
    failure the step size is halved (at most 5 times); if that is
    exhausted the partial trajectory is returned with ``error`` set.
    """
    state = from_wave(initial, spec.h) if np.iscomplexobj(initial) else initial
    rho = check_interior(state.rho, G.n)
    if abs(rho.sum() - 1.0) > INITIAL_MASS_TOL:
        raise NonInteriorDensity(f"initial mass {rho.sum():.12g} != 1")
    state = SystemState(rho, state.S, state.t)

    traj = Trajectory()
    sp0 = float(state.S @ state.rho)
    acc = 0.0  # running trapezoid of the normalization integrand
    prev_integrand = normalization_integrand(G, spec, state.rho[None], state.S[None]).item()
    # (state, dt, whether it is a snapshot) of each step accepted since acc
    # was last advanced
    batch = []
    batch_cap = max(1, _BATCH_FLOATS // (2 * G.n))

    def advance():
        """Add the batch's steps to the trapezoid acc, in step order, and
        record the norm_resid of each snapshot among them."""
        nonlocal acc, prev_integrand
        rhos = np.array([st.rho for st, _, _ in batch])
        Ss = np.array([st.S for st, _, _ in batch])
        integrands = normalization_integrand(G, spec, rhos, Ss).tolist()
        for (st, dt_k, snapshot), integrand in zip(batch, integrands):
            acc += 0.5 * dt_k * (prev_integrand + integrand)
            prev_integrand = integrand
            if snapshot:
                traj.norm_resid.append(float(st.S @ st.rho - sp0 - acc))
        batch.clear()

    def emit(st):
        traj.times.append(st.t)
        traj.rhos.append(st.rho.copy())
        traj.Ss.append(st.S.copy())

    emit(state)
    traj.norm_resid.append(0.0)  # sum_j S_j rho_j less itself, with nothing integrated
    t_end = state.t + cfg.T
    slack = 1e-12 * cfg.T
    dt = cfg.dt
    newton = _NewtonMatrix()
    cfg_k = cfg
    k = 0
    while state.t < t_end - slack:
        # a remainder within rounding of dt is a full step: a dt that differs
        # in its last bits would rebuild the Newton matrix for nothing
        rest = t_end - state.t
        dt_k = dt if rest > dt - slack else rest
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
        state = new
        k += 1
        snapshot = k % cfg.output_every == 0 or state.t >= t_end - slack
        batch.append((new, dt_k, snapshot))
        if len(batch) == batch_cap:
            advance()
        if snapshot:
            emit(state)
    if batch:
        advance()
    # batch_cap snapshots at a time: stacked all at once, the snapshots and
    # their edge arrays would take about ten times the memory of the trajectory
    for k in range(0, len(traj), batch_cap):
        rhos = np.array(traj.rhos[k:k + batch_cap])
        traj.mass += rhos.sum(axis=1).tolist()
        traj.min_rho += rhos.min(axis=1).tolist()
        traj.energy += hamiltonian(G, spec, rhos, traj.Ss[k:k + batch_cap]).tolist()
    traj.newton_iterations = newton.iterations
    traj.krylov_matvecs = newton.matvecs
    traj.factorizations = newton.builds
    traj.extrapolated_starts = newton.extrapolated
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
