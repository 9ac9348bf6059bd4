"""Self-check property suites.

Each suite exercises an identity the implementation must satisfy
(conservation laws, gauge invariance, adjointness, closed-form gradients
against finite differences, ...) on a fixed battery of small systems plus
seeded random instances, and reports the worst observed residual against
a pinned tolerance.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from .energy import (
    PotentialSpec,
    fisher_gradient,
    fisher_hessian,
    fisher_information,
    hamiltonian,
)
from .dynamics import (
    IntegratorConfig,
    SystemState,
    rhs,
    schrodinger_operator,
    simulate,
    to_wave,
)
from .graph import Graph, build_graph, build_path_lattice, build_torus, divergence, grad, inner_product
from .ground_state import ground_gradient, min_interaction_eigenvalue
from .transport import hodge_decompose

__all__ = ["run_suites"]

# calibrated so the implicit midpoint drift at dt = 1e-3 stays below the
# conservation tolerance on each battery graph
_BATTERY = (
    ("two_node", 0.1),
    ("cycle_4", 0.02),
    ("path_20", 0.004),
)


def _report(name, worst, tol, passed=True, **detail) -> dict:
    """One suite's result: it passes when ``passed`` and worst <= tol."""
    return {"name": name, "passed": bool(passed and worst <= tol),
            "worst": float(worst), "tolerance": tol, **detail}


def _battery_graph(name: str) -> Graph:
    if name == "two_node":
        return build_graph(2, [(0, 1, 1.0)])
    if name == "cycle_4":
        return build_torus([4], 1.0, weight_mode="constant", weight=1.0)
    return build_path_lattice(20, -5.0, 5.0)


def _battery_state(G: Graph, amp: float, seed: int) -> SystemState:
    rng = np.random.default_rng(seed)
    rho = 1.0 + amp * rng.uniform(-1.0, 1.0, G.n)
    rho /= rho.sum()
    S = amp * rng.normal(0.0, 1.0, G.n)
    return SystemState(rho, S)


def _case(seed: int, k: int):
    """Battery case k: (name, G, spec, initial state)."""
    name, amp = _BATTERY[k]
    G = _battery_graph(name)
    return name, G, PotentialSpec.free(G.n, h=1.0), _battery_state(G, amp, seed)


def _battery(seed: int):
    for k in range(len(_BATTERY)):
        yield _case(seed, k)


def _random_graph(rng) -> Graph:
    n = int(rng.integers(2, 9))
    edges = {}
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):  # random spanning tree
        j, l = int(min(a, b)), int(max(a, b))
        edges[(j, l)] = float(rng.uniform(0.5, 2.0))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        j, l = sorted(rng.choice(n, size=2, replace=False))
        edges.setdefault((int(j), int(l)), float(rng.uniform(0.5, 2.0)))
    return build_graph(n, [(j, l, w) for (j, l), w in edges.items()])


def _random_interior(rng, n) -> np.ndarray:
    rho = rng.uniform(0.2, 1.0, n)
    return rho / rho.sum()


# The conservation, reversibility, gauge and boundary-repulsion suites read
# one integration of the battery (``_battery_config``), each up to its own
# horizon.  A run to a shorter horizon is a bitwise prefix of a longer one:
# no step before the horizon depends on T, and every horizon is a whole
# number of snapshot intervals (0.1).
_HORIZONS = {
    "conservation": 10.0,
    "reversibility": 2.0,
    "gauge": 1.0,
    "boundary_repulsion": 2.0,
}
# the suites that integrate nothing, each run whole as one task
_WHOLE = ("wave_residual", "hodge", "gradients", "euler_identity")
_GAUGE_SHIFT = 0.7


def _battery_config(T: float, output_every: int = 100) -> IntegratorConfig:
    return IntegratorConfig(dt=1e-3, T=T, newton_tol=1e-13, output_every=output_every)


# The integrations of the suites, one battery case each.  They are
# module-level functions of (seed, case index, ...) so that a worker process
# can run them.

def _forward(seed: int, k: int, T: float):
    """Case k integrated at the shared settings up to T."""
    _, G, spec, state = _case(seed, k)
    return simulate(G, spec, state, _battery_config(T))


def _backward(seed: int, k: int, rho, S):
    """Case k integrated over reversibility's horizon from (rho, -S)."""
    _, G, spec, _ = _case(seed, k)
    cfg = _battery_config(_HORIZONS["reversibility"], output_every=10**9)
    return simulate(G, spec, SystemState(rho, -S), cfg)


def _shifted(seed: int, k: int):
    """Case k with its potential shifted by _GAUGE_SHIFT, up to gauge's horizon."""
    _, G, spec, state = _case(seed, k)
    shifted = replace(spec, V=spec.V + _GAUGE_SHIFT)
    return simulate(G, shifted, state, _battery_config(_HORIZONS["gauge"]))


def _normalized(seed: int, k: int):
    """Case k up to t = 0.2 with a snapshot at every step."""
    _, G, spec, state = _case(seed, k)
    return simulate(G, spec, state, _battery_config(0.2, output_every=1))


def _whole(seed: int, name: str) -> dict:
    """The report of a suite of _WHOLE."""
    return SUITES[name](seed=seed)


def _cut(name: str, traj, T: float):
    """(``traj`` cut at time T, None), or (None, why it has no snapshot at T)."""
    k = int(np.searchsorted(traj.times, T + 1e-9, side="right"))
    # a halving can move the snapshots off t = T
    if abs(traj.times[k - 1] - T) > 1e-9:
        return None, f"{name}: halvings {traj.halving_events} left no snapshot at t = {T:g}"
    return traj.head(k), None


class BatteryRun:
    """The integrations of one verify call, each made once, on ``pool``.

    The battery is integrated at the shared settings up to ``T``; every
    other run is keyed by its function and battery case.  On
    ``run_suites``' process pool the runs are made in parallel over the
    CPUs the process may use (``taskset`` limits them; no option does),
    and the workers end with that call: a run that no suite has read by
    then is stopped, not waited for.  Without a pool, each run is made in
    the calling process when it is asked for.  Either way the same
    functions make the same runs from the same inputs, so ``verify.json``
    is byte for byte that of a one-CPU run.

    The first ``read`` waits for the battery, so the first suite that
    reads it carries its cost.  A failed run is recorded once, here, and
    every suite that reads it fails with its error.
    """

    def __init__(self, seed: int, T: float | None, pool=None):
        self.seed, self.T = seed, T
        self._pool = pool
        self._started = {}
        self._result = None

    def start(self, fn, key, *args):
        """Queue ``fn(seed, key, *args)`` on the pool, once per (fn, key)."""
        if (fn, key) not in self._started:
            self._started[fn, key] = self._pool.apply_async(fn, (self.seed, key, *args))

    def result(self, fn, key, *args):
        """The value of ``fn(seed, key, *args)``: the started run's on the
        pool, else a run made here."""
        if self._pool is None:
            return fn(self.seed, key, *args)
        self.start(fn, key, *args)
        return self._started[fn, key].get()

    def read(self, T: float):
        """(runs, error): (name, G, spec, state, trajectory) for each battery
        case, each trajectory cut at time T; or (None, the reason)."""
        if self._result is None:
            self._result = self._integrate()
        full, error = self._result
        if error is not None:
            return None, error
        runs = []
        for name, G, spec, state, traj in full:
            cut, error = _cut(name, traj, T)
            if error is not None:
                return None, error
            runs.append((name, G, spec, state, cut))
        return runs, None

    def _integrate(self):
        runs = []
        for k, (name, G, spec, state) in enumerate(_battery(self.seed)):
            traj = self.result(_forward, k, self.T)
            if traj.error is not None:
                return None, f"{name}: {traj.error}"
            runs.append((name, G, spec, state, traj))
        return runs, None


def _own(suite: str, seed: int, runs: BatteryRun | None) -> BatteryRun:
    """``runs`` when given, else the runs of ``suite`` alone, made in this
    process, with the battery up to the suite's own horizon."""
    return runs if runs is not None else BatteryRun(seed, _HORIZONS.get(suite))


def check_conservation(seed: int = 0, runs: BatteryRun | None = None) -> dict:
    """Mass and total energy along the symplectic integrator."""
    battery, error = _own("conservation", seed, runs).read(_HORIZONS["conservation"])
    if error is not None:
        return _report("conservation", np.inf, 1e-8, detail=error)
    worst_mass = worst_energy = 0.0
    for _, _, _, _, traj in battery:
        mass = np.abs(np.asarray(traj.mass) - 1.0).max()
        e = np.asarray(traj.energy)
        drift = np.abs(e - e[0]).max() / abs(e[0])
        worst_mass = max(worst_mass, mass)
        worst_energy = max(worst_energy, drift)
    detail = f"mass {worst_mass:.3g} (tol 1e-10), energy {worst_energy:.3g} (tol 1e-8)"
    # mass has tolerance 1e-10, energy 1e-8: scale both into one number
    return _report("conservation", max(worst_mass * 1e2, worst_energy), 1e-8, detail=detail)


def check_reversibility(seed: int = 0, runs: BatteryRun | None = None) -> dict:
    """Negating S and re-integrating must return to the initial state."""
    runs = _own("reversibility", seed, runs)
    battery, error = runs.read(_HORIZONS["reversibility"])
    if error is not None:
        return _report("reversibility", np.inf, 1e-6, detail=error)
    worst = 0.0
    for k, (name, G, spec, state, fwd) in enumerate(battery):
        back = runs.result(_backward, k, fwd.rhos[-1], fwd.Ss[-1])
        if back.error is not None:
            return _report("reversibility", np.inf, 1e-6, detail=f"{name}: {back.error}")
        err = max(
            np.abs(back.rhos[-1] - state.rho).max(),
            np.abs(-back.Ss[-1] - state.S).max(),
        )
        worst = max(worst, err)
    return _report("reversibility", worst, 1e-6)


def check_gauge(seed: int = 0, runs: BatteryRun | None = None) -> dict:
    """Shifting V by alpha = _GAUGE_SHIFT leaves rho unchanged and shifts S by -alpha t."""
    runs = _own("gauge", seed, runs)
    battery, error = runs.read(_HORIZONS["gauge"])
    if error is not None:
        return _report("gauge", np.inf, 1e-8, detail=error)
    worst = 0.0
    for k, (name, G, spec, state, a) in enumerate(battery):
        b = runs.result(_shifted, k)
        # the identity holds step by step: a halving in one run only breaks it
        if b.error is not None or b.times != a.times:
            why = b.error or f"halvings {a.halving_events} unshifted, {b.halving_events} shifted"
            return _report("gauge", np.inf, 1e-8, detail=f"{name}: {why}")
        shift = _GAUGE_SHIFT * np.array(a.times)[:, None]
        worst = max(worst, np.abs(np.array(a.rhos) - np.array(b.rhos)).max(),
                    np.abs(np.array(b.Ss) - (np.array(a.Ss) - shift)).max())
    return _report("gauge", worst, 1e-8)


def check_wave_residual(seed: int = 0) -> dict:
    """Chain-rule dPsi/dt solves i h dPsi/dt = H(Psi) at sampled states."""
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _, G, spec, state in _battery(seed):
        for _ in range(5):
            rho = _random_interior(rng, G.n)
            S = rng.normal(0.0, 0.5, G.n)
            st = SystemState(rho, S)
            drho, dS = rhs(G, spec, st)
            psi = to_wave(st, spec.h)
            dpsi = (drho / (2.0 * rho) + 1j * dS / spec.h) * psi
            resid = 1j * spec.h * dpsi - schrodinger_operator(G, spec, psi)
            worst = max(worst, np.abs(resid).max())
    return _report("wave_residual", worst, 1e-8)


def check_normalization(seed: int = 0, runs: BatteryRun | None = None) -> dict:
    """d/dt sum_j S_j rho_j matches its closed-form value along the flow."""
    runs = _own("normalization", seed, runs)
    worst = 0.0
    for k, (name, _) in enumerate(_BATTERY):
        traj = runs.result(_normalized, k)
        if traj.error is not None:
            return _report("normalization", np.inf, 1e-5, detail=f"{name}: {traj.error}")
        worst = max(worst, np.abs(np.asarray(traj.norm_resid)).max())
    return _report("normalization", worst, 1e-5)


def check_hodge(seed: int = 0, cases: int = 200) -> dict:
    """Random edge fields split into gradient + weighted-divergence-free parts."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        G = _random_graph(rng)
        rho = _random_interior(rng, G.n)
        v = rng.normal(0.0, 1.0, G.m)
        S, u = hodge_decompose(G, rho, v)
        worst = max(worst, np.abs(divergence(G, rho, u)).max())
        worst = max(worst, abs(inner_product(G, rho, grad(G, S), u)))
        worst = max(worst, np.abs(grad(G, S) + u - v).max())
    return _report("hodge", worst, 1e-10)


def _fd_gradient(f, x, step=1e-5):
    """Central differences of f at x; entry (or row) j is df/dx_j.

    f takes the (2n, n) stack of the states x + step e_j, then x - step e_j,
    and returns the value (or row) of each.
    """
    n = len(x)
    shifts = step * np.eye(n)
    values = f(np.concatenate([x + shifts, x - shifts]))
    return (values[:n] - values[n:]) / (2.0 * step)


def check_gradients(seed: int = 0, cases: int = 20) -> dict:
    """Closed-form gradients, Hessians and the flow field against finite differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        G = _random_graph(rng)
        rho = _random_interior(rng, G.n)
        S = rng.normal(0.0, 0.5, G.n)
        spec = PotentialSpec(
            rng.normal(0.0, 1.0, G.n),
            _random_psd(rng, G.n),
            h=float(rng.uniform(0.3, 1.5)),
        )
        scale = max(1.0, np.abs(fisher_gradient(G, rho)).max())
        gerr = np.abs(
            fisher_gradient(G, rho) - _fd_gradient(lambda rs: fisher_information(G, rs), rho)
        ).max() / scale
        hess = fisher_hessian(G, rho)
        fd_hess = _fd_gradient(lambda rs: np.array([fisher_gradient(G, r) for r in rs]), rho).T
        herr = np.abs(hess - fd_hess).max() / max(1.0, np.abs(hess).max())
        # flow field against J applied to a finite-difference energy gradient
        drho, dS = rhs(G, spec, SystemState(rho, S))
        # the other half of each perturbed state, one row per state
        rhos, Ss = np.tile(rho, (2 * G.n, 1)), np.tile(S, (2 * G.n, 1))
        gH_S = _fd_gradient(lambda ss: hamiltonian(G, spec, rhos, ss), S)
        gH_rho = _fd_gradient(lambda rs: hamiltonian(G, spec, rs, Ss), rho)
        ferr = max(np.abs(drho - gH_S).max(), np.abs(dS + gH_rho).max())
        ferr /= max(1.0, np.abs(gH_rho).max())
        gse = np.abs(
            ground_gradient(G, spec, rho)
            - _fd_gradient(lambda rs: hamiltonian(G, spec, rs, np.zeros_like(rs)), rho)
        ).max() / scale
        # Hessian tolerance is 1e-5; the others 1e-6, so scale into one number
        worst = max(worst, gerr, ferr, gse, herr / 10.0)
    return _report("gradients", worst, 1e-6)


def _random_psd(rng, n):
    A = rng.normal(0.0, 0.5, (n, n))
    return A @ A.T / n


def check_euler_identity(seed: int = 0, cases: int = 100) -> dict:
    """grad I . rho = I and I(c rho) = c I(rho) on random positive vectors."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        G = _random_graph(rng)
        rho = rng.uniform(0.1, 2.0, G.n)
        I = fisher_information(G, rho)
        scale = max(1.0, abs(I))
        worst = max(worst, abs(fisher_gradient(G, rho) @ rho - I) / scale)
        c = float(rng.uniform(0.2, 5.0))
        worst = max(worst, abs(fisher_information(G, c * rho) - c * I) / (c * scale))
    return _report("euler_identity", worst, 1e-10)


def check_boundary_repulsion(seed: int = 0, runs: BatteryRun | None = None) -> dict:
    """The Fisher term stays below the conserved energy budget, so the
    density cannot reach the simplex boundary."""
    battery, error = _own("boundary_repulsion", seed, runs).read(_HORIZONS["boundary_repulsion"])
    if error is not None:
        return _report("boundary_repulsion", np.inf, 1e-10, detail=error)
    worst = -np.inf
    ok = True
    for _, G, spec, _, traj in battery:
        w_min = min_interaction_eigenvalue(spec.interaction)
        budget = traj.energy[0] - float(spec.V.min()) - min(0.0, 0.5 * w_min)
        ok = ok and min(traj.min_rho) > 0.0
        excess = spec.h**2 / 8.0 * fisher_information(G, np.array(traj.rhos)) - budget
        worst = max(worst, excess.max())
    return _report("boundary_repulsion", worst, 1e-10, passed=ok)


SUITES = {
    "conservation": check_conservation,
    "reversibility": check_reversibility,
    "gauge": check_gauge,
    "wave_residual": check_wave_residual,
    "normalization": check_normalization,
    "hodge": check_hodge,
    "gradients": check_gradients,
    "euler_identity": check_euler_identity,
    "boundary_repulsion": check_boundary_repulsion,
}


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_suites(names=None, seed: int = 0, tolerances=None) -> dict:
    """Run the named suites (default: all) and collect a report.

    The integrations run in parallel, one worker process per CPU that the
    process may use (``taskset`` limits them; no option does).  Each run
    is made by the same function, from the same inputs, as when its suite
    is called alone, so the report is byte for byte that of a one-CPU run.
    The workers end with the call, also when a suite raises: a run that no
    suite has read by then is stopped, not waited for.

    ``tolerances`` maps suite names to overriding tolerances.  An override
    can only tighten a suite: it passes when it passed on its own and its
    worst residual is within the override.
    """
    # imported here: neither the package nor the other subcommands need it
    import multiprocessing

    if names is None:
        names = list(SUITES)
    cases = range(len(_BATTERY))
    # the suites that read the battery share one run of it, up to the
    # longest horizon among them, made for this call alone
    T = max((_HORIZONS[name] for name in names if name in _HORIZONS), default=None)
    # every run but the backward ones, the longest first
    starts = [(_forward, k, T) for k in cases] if T is not None else []
    starts += [(fn, k) for name, fn in (("gauge", _shifted), ("normalization", _normalized))
               if name in names for k in cases]
    starts += [(_whole, name) for name in names if name in _WHOLE]
    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    # leaving the block terminates the workers
    with context.Pool(max(1, min(_cpus(), len(starts)))) as pool:
        runs = BatteryRun(seed, T, pool)
        for run in starts:
            runs.start(*run)
        if "reversibility" in names:
            # a backward run starts from its forward run's state at t = 2; it
            # is queued as soon as that run returns, in battery order, not
            # after all three
            for k in cases:
                fwd, _ = _cut("", runs.result(_forward, k, T), _HORIZONS["reversibility"])
                if fwd is not None and fwd.error is None:
                    runs.start(_backward, k, fwd.rhos[-1], fwd.Ss[-1])
        checks = [
            runs.result(_whole, name) if name in _WHOLE
            else SUITES[name](seed=seed, runs=runs)
            for name in names
        ]
    if tolerances:
        for c in checks:
            if c["name"] in tolerances:
                c["tolerance"] = float(tolerances[c["name"]])
                c["passed"] = bool(c["passed"] and c["worst"] <= c["tolerance"])
    return {"passed": all(c["passed"] for c in checks), "checks": checks}
