"""Command-line entry point.

Subcommands: simulate, ground-state, stability, dispersion, verify.  Each
takes a JSON config (strictly validated: "schema": 1 required, unknown
keys rejected) and writes its artifacts into --out.

Exit codes: 0 success, 1 usage, config or I/O problem, 2 solver failure
(partial output is kept), 3 a verify property suite failed.  A subcommand
raises its failure; ``main`` alone prints it as one line and exits.  Only
``ground-state`` returns 2 itself, after it has written every h.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

import numpy as np

from . import verify as verify_mod
from .config import as_is, floats, integer, number, read_json, read_kind, read_section
from .energy import PotentialSpec, potentials_from_dict
from .errors import ConfigError, GraphNLSError, MaxIterations
from .dynamics import (
    INITIAL_MASS_TOL,
    IntegratorConfig,
    SystemState,
    from_wave,
    plane_wave_residual,
    simulate,
)
from .graph import (GRAPH_KEYS, INTERIOR_FLOOR, Graph, build_graph, build_path_lattice, build_torus,
                    is_interior, load_graph_json)
from .ground_state import (KKT_TOL, _kkt, check_solver_settings, eigen_residual,
                           ground_gradient, solve_ground_state)
from .io import trajectory_summary, write_csv, write_json, write_trajectory_csv
from .stability import (
    gpe_spectrum_closed_form,
    hamiltonian_matrix,
    spectrum,
    spectrum_mismatch,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3


def _pick(data, *keys) -> dict:
    """The entries of ``data`` under ``keys`` that the config gave."""
    return {key: data[key] for key in keys if key in data}


@contextlib.contextmanager
def _reading_config(command):
    """Report a config value that a builder, a dataclass or numpy rejects as a ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {command} config: {exc}") from exc


def load_config(path, command, keys, required=()) -> dict:
    """The config of ``command``, its ``keys`` read by ``read_section``.

    Every config declares "schema": 1 and may name its command.
    """
    data = read_json(path, "config")
    if not isinstance(data, dict) or data.get("schema") != 1:
        raise ConfigError('config must be a JSON object declaring "schema": 1')
    if data.get("command", command) != command:
        raise ConfigError(
            f"config is for command {data['command']!r}, invoked as {command!r}"
        )
    keys = {"schema": integer, "command": as_is, **keys}
    return read_section(data, "config", keys, required)


_FILE = {"file": os.fspath}


def _inline(data, where):
    """A section given inline, or the JSON object in the file {"file": path} names."""
    if isinstance(data, dict) and "file" not in data:
        return data
    return read_json(read_section(data, where, _FILE, _FILE)["file"], where)


# builder: (function, {key: converter}, required keys)
_GRAPHS = {
    "explicit": (build_graph, *GRAPH_KEYS),
    "path": (
        build_path_lattice,
        {"n": integer, "x_min": number, "x_max": number, "weight_mode": str, "weight": number},
        {"n", "x_min", "x_max"},
    ),
    "torus": (
        build_torus,
        {"dims": lambda dims: [integer(d) for d in dims], "delta_x": number,
         "weight_mode": str, "weight": number},
        {"dims"},
    ),
}


def _graph(data) -> Graph:
    """The graph section: a builder and its keys, or {"file": path} in the on-disk format."""
    if not isinstance(data, dict) or "file" in data:
        return load_graph_json(read_section(data, "graph", _FILE, _FILE)["file"])
    return read_kind(data, "graph", _GRAPHS, "builder")


def _potentials(data, G: Graph, h_values=None) -> PotentialSpec:
    """The potentials section; next to ``h_values`` its "h" is optional and one of them."""
    data = _inline(data, "potentials")
    spec = potentials_from_dict(data, n=G.n, coords=G.coords)
    if not h_values and "h" not in data:
        raise ConfigError("missing keys in potentials: ['h']")
    # an h that the sweep leaves out would be dropped without a word
    if h_values and "h" in data and spec.h not in h_values:
        raise ConfigError(f'potentials "h" {spec.h:g} is not one of "h_values" {h_values}')
    return spec


def _init_density(value) -> np.ndarray:
    """A start density: finite and in the simplex interior, as the solvers check it."""
    rho = floats(value)
    if not is_interior(rho):
        raise ConfigError("the density is empty" if rho.size == 0 else
                          f"every entry must be finite and at least {INTERIOR_FLOOR:g}")
    return rho


def _check_mass(rho, what) -> None:
    if abs(rho.sum() - 1.0) > INITIAL_MASS_TOL:
        raise ConfigError(f"{what} mass {rho.sum():.12g} != 1")


def _unit_density(value) -> np.ndarray:
    """An ``init`` density: read as ``_init_density`` reads it, of mass 1."""
    rho = _init_density(value)
    _check_mass(rho, "density")
    return rho


def _initial_state(data, G: Graph, h: float) -> SystemState:
    """{"rho": [...], "S": [...]} or {"psi_re": [...], "psi_im": [...]}: a
    density in the simplex interior, of mass 1, and a finite phase."""
    data = _inline(data, "initial")
    if "rho" in data or "S" in data:
        keys = {"rho": _init_density, "S": floats}
        state = SystemState(**read_section(data, "initial", keys, keys))
    else:
        keys = {"psi_re": floats, "psi_im": floats}
        psi = read_section(data, "initial", keys, keys)
        psi = psi["psi_re"] + 1j * psi["psi_im"]
        try:
            _init_density(np.abs(psi) ** 2)
        except ConfigError as exc:
            raise ConfigError(f"initial |psi|^2: {exc}") from exc
        state = from_wave(psi, h)
    if state.rho.shape != (G.n,) or state.S.shape != (G.n,):
        raise ConfigError(
            f"initial state has shape {state.rho.shape}/{state.S.shape}, graph has {G.n} nodes"
        )
    if not np.isfinite(state.S).all():
        raise ConfigError("initial phase must be finite")
    _check_mass(state.rho, "initial")
    return state


_INTEGRATOR = {"method": str, "dt": number, "T": number, "newton_tol": number,
               "newton_max_iter": integer, "output_every": integer}


def cmd_simulate(cfg_path, out_dir) -> int:
    sections = ("graph", "potentials", "initial", "integrator")
    with _reading_config("simulate"):
        data = load_config(cfg_path, "simulate", dict.fromkeys(sections, as_is), sections)
        G = _graph(data["graph"])
        spec = _potentials(data["potentials"], G)
        state = _initial_state(data["initial"], G, spec.h)
        icfg = IntegratorConfig(
            **read_section(data["integrator"], "integrator", _INTEGRATOR, {"dt", "T"})
        )
    traj = simulate(G, spec, state, icfg)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)
    summary = trajectory_summary(traj)
    write_json(os.path.join(out_dir, "summary.json"), summary)
    if traj.error is not None:
        raise GraphNLSError(f"integrator failed: {traj.error}")
    print(
        f"simulate: {len(traj)} snapshots to t={traj.times[-1]:g}, "
        f"energy drift {summary['max_energy_drift']:.3g}"
    )
    return EXIT_OK


def _ground_state_file(h) -> str:
    return f"ground_state_h{h:g}.json"


def _h_values(values) -> list:
    if not isinstance(values, list) or not values:
        raise ConfigError('"h_values" must be a non-empty list')
    h_values = [number(h) for h in values]
    # a second solve would overwrite the artifact of the first
    if len(set(map(_ground_state_file, h_values))) < len(h_values):
        raise ConfigError(f'"h_values" {h_values} name the same per-h artifact twice')
    return h_values


def cmd_ground_state(cfg_path, out_dir) -> int:
    keys = {"graph": as_is, "potentials": as_is, "h_values": _h_values,
            "tol": number, "max_iter": integer, "init": _unit_density}
    with _reading_config("ground-state"):
        data = load_config(cfg_path, "ground-state", keys, {"graph", "potentials"})
        G = _graph(data["graph"])
        base = _potentials(data["potentials"], G, data.get("h_values"))
        # every h is checked before the first solve writes an artifact
        specs = [dataclasses.replace(base, h=h) for h in data.get("h_values", [base.h])]
    options = _pick(data, "tol", "max_iter", "init")

    results = []
    for spec in specs:
        try:
            res, failed = solve_ground_state(G, spec, **options), None
        except MaxIterations as exc:
            res, failed = exc.result, str(exc)
        entry = {"h": spec.h, **dataclasses.asdict(res),
                 "eigen_residual": eigen_residual(G, spec, res)}
        if failed is not None:
            entry["error"] = failed
        results.append(entry)
        write_json(os.path.join(out_dir, _ground_state_file(spec.h)), entry)
        if failed is not None:
            print(f"ground-state: h={spec.h:g}: {failed}", file=sys.stderr)
        else:
            print(
                f"ground-state: h={spec.h:g} energy={res.energy:.12g} "
                f"nu={res.nu:.12g} kkt={res.kkt_residual:.3g} iters={res.iterations}"
            )
    write_json(os.path.join(out_dir, "ground_state.json"), {"results": results})
    return EXIT_SOLVER if any("error" in entry for entry in results) else EXIT_OK


def _density(value):
    """The name "uniform" or "solve", or a density read as ``init`` is."""
    if value in ("uniform", "solve"):
        return value
    return _unit_density(value)


def cmd_stability(cfg_path, out_dir) -> int:
    keys = {"graph": as_is, "potentials": as_is, "rho_g": _density, "tol": number}
    with _reading_config("stability"):
        data = load_config(cfg_path, "stability", keys, {"graph", "potentials"})
        G = _graph(data["graph"])
        spec = _potentials(data["potentials"], G)
    tol = data.get("tol", KKT_TOL)
    check_solver_settings(tol)  # also bounds the stationarity check of a given rho_g
    rho_g = data.get("rho_g", "solve")
    if isinstance(rho_g, str):
        try:
            rho_g = (np.full(G.n, 1.0 / G.n) if rho_g == "uniform"
                     else solve_ground_state(G, spec, tol=tol).rho_g)
        except MaxIterations as exc:
            raise GraphNLSError(f"ground-state solve failed: {exc}") from exc
    # the linearization holds only at an equilibrium
    _, kkt = _kkt(ground_gradient(G, spec, rho_g), rho_g)
    if not kkt <= tol:
        raise GraphNLSError(f"rho_g is not stationary: KKT residual {kkt:.3g} > {tol:.3g}")
    report = spectrum(hamiltonian_matrix(G, spec, rho_g))
    out = {
        "rho_g": rho_g,
        "kkt_residual": kkt,
        "eigenvalues": [[v.real, v.imag] for v in report.eigenvalues],
        "classification": report.classification,
        "bifurcation_modes": [],
    }
    # closed-form cross-check only in the exactly solvable case
    w = spec.interaction  # a vector when W is diagonal
    is_gpe = (
        not spec.V.any()
        and w.ndim == 1
        and np.ptp(w) == 0.0
        and np.allclose(rho_g, 1.0 / G.n)
    )
    if is_gpe:
        alpha = float(w[0])
        closed = gpe_spectrum_closed_form(G, alpha, spec.h)
        gap = spectrum_mismatch(report.eigenvalues, closed.eigenvalues)
        out["bifurcation_modes"] = closed.bifurcation_modes
        out["closed_form"] = {
            "alpha": alpha,
            "eigenvalues": [[v.real, v.imag] for v in closed.eigenvalues],
            "max_mismatch": gap,
            "bifurcation_modes": closed.bifurcation_modes,
            "laplacian_eigenvalues": closed.laplacian_eigenvalues,
        }
    write_json(os.path.join(out_dir, "spectrum.json"), out)
    print(f"stability: {report.classification}, |Re| max "
          f"{np.abs(report.eigenvalues.real).max():.3g}")
    return EXIT_OK


def _modes(modes):
    return None if modes == "all" else np.array([[integer(k) for k in m] for m in modes])


def cmd_dispersion(cfg_path, out_dir) -> int:
    keys = {"graph": as_is, "modes": _modes}
    with _reading_config("dispersion"):
        data = load_config(cfg_path, "dispersion", keys, {"graph"})
        G = _graph(data["graph"])
    if G.torus_dims is None:
        raise ConfigError("dispersion needs a torus graph")
    dims = np.asarray(G.torus_dims)
    modes = data.get("modes")
    if modes is None:
        modes = np.indices(dims).reshape(len(dims), -1).T
    elif modes.ndim != 2 or modes.shape[1] != len(dims):
        raise ConfigError(f'"modes" must be a list of {len(dims)}-vectors')
    rows = []
    for m in modes:
        k = 2.0 * np.pi * m / (dims * G.delta_x)
        rows.append([*m, *k, 0.5 * float(k @ k), plane_wave_residual(G, k)])
    header = [f"{c}_{i+1}" for c in "mk" for i in range(len(dims))] + ["mu", "residual"]
    write_csv(os.path.join(out_dir, "dispersion.csv"), header, rows)
    print(f"dispersion: {len(rows)} modes, worst residual {max(row[-1] for row in rows):.3g}")
    return EXIT_OK


def _suite_names(names) -> list:
    unknown = set(names) - set(verify_mod.SUITES)
    if unknown:
        raise ConfigError(f"unknown verify suites: {sorted(unknown)}")
    if not names:
        raise ConfigError('"suites" must name at least one suite')
    if len(set(names)) < len(names):
        raise ConfigError(f'"suites" names a suite twice: {names}')
    return list(names)


def _tolerances(tolerances) -> dict:
    return read_section(tolerances, "tolerances", dict.fromkeys(verify_mod.SUITES, number))


def cmd_verify(cfg_path, out_dir, seed) -> int:
    data = {}
    if cfg_path is not None:
        with _reading_config("verify"):
            keys = {"seed": integer, "suites": _suite_names, "tolerances": _tolerances}
            data = load_config(cfg_path, "verify", keys)
    if seed is not None:
        data["seed"] = seed
    # numpy's generators take no negative seed
    if data.get("seed", 0) < 0:
        raise ConfigError(f'"seed" must be a non-negative integer, got {data["seed"]}')
    report = verify_mod.run_suites(data.get("suites"), **_pick(data, "seed", "tolerances"))
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(
            f"{status} {check['name']}: worst {check['worst']:.3g} "
            f"(tol {check['tolerance']:g})"
        )
    write_json(os.path.join(out_dir, "verify.json"), report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1, the code of a config error; --help still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="graph-nls",
        description="Hamiltonian Schrodinger dynamics on weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": cmd_simulate,
        "ground-state": cmd_ground_state,
        "stability": cmd_stability,
        "dispersion": cmd_dispersion,
        "verify": cmd_verify,
    }
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument(
            "--config",
            required=(name != "verify"),
            help="JSON config file",
        )
        p.add_argument("--out", default=".", help="output directory")
    sub.choices["verify"].add_argument("--seed", type=int, help="RNG seed of the suites")
    args = parser.parse_args(argv)
    seed = {"seed": args.seed} if args.command == "verify" else {}
    try:
        os.makedirs(args.out, exist_ok=True)
        return commands[args.command](args.config, args.out, **seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GraphNLSError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
