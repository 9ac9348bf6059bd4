"""Command-line entry point.

Subcommands: simulate, ground-state, stability, dispersion, verify.  Each
takes a JSON config (strictly validated: "schema": 1 required, unknown
keys rejected) and writes its artifacts into --out.

Exit codes: 0 success, 1 config or I/O problem, 2 solver failure (partial
output is kept), 3 a verify property suite failed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from . import verify as verify_mod
from .energy import PotentialSpec, potentials_from_dict
from .errors import ConfigError, GraphNLSError, MaxIterations
from .dynamics import (
    IntegratorConfig,
    SystemState,
    plane_wave_residual,
    simulate,
)
from .graph import Graph, build_graph, build_path_lattice, build_torus, load_graph_json
from .ground_state import _kkt, eigen_residual, ground_gradient, solve_ground_state
from .io import (atomic_write_text, format_float, load_initial_state,
                 trajectory_summary, write_json, write_trajectory_csv)
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


def _require_object(data, where):
    if not isinstance(data, dict):
        raise ConfigError(f'"{where}" must be an object')
    return data


def _require_keys(data, allowed, required, where):
    _require_object(data, where)
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


@contextlib.contextmanager
def _numbers(where):
    """Turn a failed int()/float() conversion of config values into a ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} settings must be numbers: {exc}") from exc


def load_config(path, command) -> dict:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if data.get("schema") != 1:
        raise ConfigError('config must declare "schema": 1')
    if "command" in data and data["command"] != command:
        raise ConfigError(
            f"config is for command {data['command']!r}, invoked as {command!r}"
        )
    return data


def _read_json_file(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc


def _build_graph_from_config(gspec) -> Graph:
    if "file" in _require_object(gspec, "graph"):
        _require_keys(gspec, {"file"}, {"file"}, "graph")
        return load_graph_json(gspec["file"])
    builder = gspec.get("builder")
    if builder == "explicit":
        _require_keys(gspec, {"builder", "n", "edges", "coords"}, {"n", "edges"}, "graph")
        with _numbers("graph"):
            n = int(gspec["n"])
            edges = [(int(j) - 1, int(l) - 1, float(w)) for j, l, w in gspec["edges"]]
            coords = np.asarray(gspec["coords"], float) if "coords" in gspec else None
        return build_graph(n, edges, coords=coords)
    if builder == "path":
        _require_keys(
            gspec,
            {"builder", "n", "x_min", "x_max", "weight_mode", "weight"},
            {"n", "x_min", "x_max"},
            "graph",
        )
        with _numbers("graph"):
            n, x_min, x_max = int(gspec["n"]), float(gspec["x_min"]), float(gspec["x_max"])
            weight = float(gspec.get("weight", 1.0))
        return build_path_lattice(
            n, x_min, x_max, weight_mode=gspec.get("weight_mode", "continuum"), weight=weight
        )
    if builder == "torus":
        _require_keys(
            gspec,
            {"builder", "dims", "delta_x", "weight_mode", "weight"},
            {"dims"},
            "graph",
        )
        with _numbers("graph"):
            dims = [int(d) for d in gspec["dims"]]
            delta_x = float(gspec.get("delta_x", 1.0))
            weight = float(gspec.get("weight", 1.0))
        return build_torus(
            dims,
            delta_x=delta_x,
            weight_mode=gspec.get("weight_mode", "continuum"),
            weight=weight,
        )
    raise ConfigError(f"unknown graph builder {builder!r}")


def _potentials_data(pspec) -> dict:
    """The potentials object, given inline or as {"file": path}."""
    if "file" in _require_object(pspec, "potentials"):
        _require_keys(pspec, {"file"}, {"file"}, "potentials")
        pspec = _read_json_file(pspec["file"], "potentials")
    _require_keys(pspec, {"V", "W", "h"}, {"V", "W"}, "potentials")
    return pspec


def _build_potentials(pspec, G: Graph) -> PotentialSpec:
    pdata = _potentials_data(pspec)
    _require_keys(pdata, {"V", "W", "h"}, {"V", "W", "h"}, "potentials")
    return potentials_from_dict(pdata, n=G.n, coords=G.coords)


def _integrator_config(ispec) -> IntegratorConfig:
    allowed = {"method", "dt", "T", "newton_tol", "newton_max_iter", "output_every"}
    _require_keys(ispec, allowed, {"dt", "T"}, "integrator")
    with _numbers("integrator"):
        numbers = dict(
            dt=float(ispec["dt"]),
            T=float(ispec["T"]),
            newton_tol=float(ispec.get("newton_tol", 1e-12)),
            newton_max_iter=int(ispec.get("newton_max_iter", 50)),
            output_every=int(ispec.get("output_every", 1)),
        )
    return IntegratorConfig(method=ispec.get("method", "implicit_midpoint"), **numbers)


def _initial_state(data, G: Graph, h: float) -> SystemState:
    if "file" in _require_object(data, "initial"):
        _require_keys(data, {"file"}, {"file"}, "initial")
        data = _require_object(_read_json_file(data["file"], "initial state"), "initial")
    state = load_initial_state(data, h)
    if state.rho.shape != (G.n,) or state.S.shape != (G.n,):
        raise ConfigError(
            f"initial state has shape {state.rho.shape}/{state.S.shape}, graph has {G.n} nodes"
        )
    if not (np.isfinite(state.rho).all() and np.isfinite(state.S).all()):
        raise ConfigError("initial state must be finite")
    return state


def cmd_simulate(cfg_path, out_dir, seed) -> int:
    data = load_config(cfg_path, "simulate")
    _require_keys(
        data,
        {"schema", "command", "graph", "potentials", "initial", "integrator", "seed"},
        {"graph", "potentials", "initial", "integrator"},
        "config",
    )
    G = _build_graph_from_config(data["graph"])
    spec = _build_potentials(data["potentials"], G)
    state = _initial_state(data["initial"], G, spec.h)
    icfg = _integrator_config(data["integrator"])
    traj = simulate(G, spec, state, icfg)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)
    write_json(os.path.join(out_dir, "summary.json"), trajectory_summary(traj))
    if traj.error is not None:
        print(f"simulate: integrator failed: {traj.error}", file=sys.stderr)
        return EXIT_SOLVER
    print(
        f"simulate: {len(traj)} snapshots to t={traj.times[-1]:g}, "
        f"energy drift {trajectory_summary(traj)['max_energy_drift']:.3g}"
    )
    return EXIT_OK


def _solve_one_ground_state(G, spec, tol, max_iter, init):
    try:
        res = solve_ground_state(G, spec, tol=tol, max_iter=max_iter, init=init)
        failed = None
    except MaxIterations as exc:
        res, failed = exc.result, str(exc)
    entry = {
        "h": spec.h,
        "rho_g": res.rho_g,
        "nu": res.nu,
        "energy": res.energy,
        "kkt_residual": res.kkt_residual,
        "eigen_residual": eigen_residual(G, spec, res),
        "iterations": res.iterations,
        "unique": res.unique,
    }
    if failed is not None:
        entry["error"] = failed
    return entry


def cmd_ground_state(cfg_path, out_dir, seed) -> int:
    data = load_config(cfg_path, "ground-state")
    _require_keys(
        data,
        {"schema", "command", "graph", "potentials", "h_values", "tol",
         "max_iter", "init", "seed"},
        {"graph", "potentials"},
        "config",
    )
    G = _build_graph_from_config(data["graph"])
    pdata = _potentials_data(data["potentials"])
    if "h_values" in data:
        h_values = data["h_values"]
        if not isinstance(h_values, list) or not h_values:
            raise ConfigError('"h_values" must be a non-empty list')
    elif "h" in pdata:
        h_values = [pdata["h"]]
    else:
        raise ConfigError('give "h" in potentials or "h_values" in the config')
    with _numbers("ground-state"):
        h_values = [float(h) for h in h_values]
        tol = float(data.get("tol", 1e-10))
        max_iter = int(data.get("max_iter", 10**6))
        init = np.asarray(data["init"], float) if "init" in data else None
    base = potentials_from_dict(pdata, n=G.n, coords=G.coords)
    # every h is checked before the first solve writes an artifact
    specs = [dataclasses.replace(base, h=h) for h in h_values]

    results = []
    for spec in specs:
        entry = _solve_one_ground_state(G, spec, tol, max_iter, init)
        results.append(entry)
        write_json(os.path.join(out_dir, f"ground_state_h{entry['h']:g}.json"), entry)
        if "error" in entry:
            print(f"ground-state: h={entry['h']:g}: {entry['error']}", file=sys.stderr)
        else:
            print(
                f"ground-state: h={entry['h']:g} energy={entry['energy']:.12g} "
                f"nu={entry['nu']:.12g} kkt={entry['kkt_residual']:.3g} "
                f"iters={entry['iterations']}"
            )
    write_json(os.path.join(out_dir, "ground_state.json"), {"results": results})
    return EXIT_SOLVER if any("error" in entry for entry in results) else EXIT_OK


def cmd_stability(cfg_path, out_dir, seed) -> int:
    data = load_config(cfg_path, "stability")
    _require_keys(
        data,
        {"schema", "command", "graph", "potentials", "rho_g", "tol", "seed"},
        {"graph", "potentials"},
        "config",
    )
    G = _build_graph_from_config(data["graph"])
    spec = _build_potentials(data["potentials"], G)
    rho_spec = data.get("rho_g", "solve")
    with _numbers("stability"):
        tol = float(data.get("tol", 1e-10))
        rho_g = np.asarray(rho_spec, float) if isinstance(rho_spec, list) else None
    if rho_spec == "uniform":
        rho_g = np.full(G.n, 1.0 / G.n)
    elif rho_spec == "solve":
        try:
            rho_g = solve_ground_state(G, spec, tol=tol).rho_g
        except MaxIterations as exc:
            print(f"stability: ground-state solve failed: {exc}", file=sys.stderr)
            return EXIT_SOLVER
    elif rho_g is None:
        raise ConfigError('"rho_g" must be "uniform", "solve" or a density list')
    # the linearization holds only at an equilibrium
    _, kkt = _kkt(ground_gradient(G, spec, rho_g), rho_g)
    if not kkt <= tol:
        print(f"stability: rho_g is not stationary: KKT residual {kkt:.3g} > {tol:.3g}",
              file=sys.stderr)
        return EXIT_SOLVER

    try:
        report = spectrum(hamiltonian_matrix(G, spec, rho_g))
    except GraphNLSError as exc:
        print(f"stability: {exc}", file=sys.stderr)
        return EXIT_SOLVER
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


def cmd_dispersion(cfg_path, out_dir, seed) -> int:
    data = load_config(cfg_path, "dispersion")
    _require_keys(
        data,
        {"schema", "command", "graph", "h", "modes", "seed"},
        {"graph"},
        "config",
    )
    G = _build_graph_from_config(data["graph"])
    if G.torus_dims is None:
        raise ConfigError("dispersion needs a torus graph")
    dims = G.torus_dims
    modes = data.get("modes", "all")
    with _numbers("dispersion"):
        h = float(data.get("h", 1.0))
        mode_list = None if modes == "all" else np.asarray(modes, int)
    if mode_list is None:
        grids = np.meshgrid(*[np.arange(d) for d in dims], indexing="ij")
        mode_list = np.stack([g.ravel() for g in grids], axis=1)
    elif mode_list.ndim != 2 or mode_list.shape[1] != len(dims):
        raise ConfigError(f'"modes" must be a list of {len(dims)}-vectors')
    rows = []
    worst = 0.0
    for m in mode_list:
        k = 2.0 * np.pi * m / (np.asarray(dims) * G.delta_x)
        resid = plane_wave_residual(G, k, h=h)
        worst = max(worst, resid)
        rows.append([*m, *k, 0.5 * float(k @ k), resid])
    header = (
        [f"m_{i+1}" for i in range(len(dims))]
        + [f"k_{i+1}" for i in range(len(dims))]
        + ["mu", "residual"]
    )
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(x) for x in row))
    atomic_write_text(os.path.join(out_dir, "dispersion.csv"), "\n".join(lines) + "\n")
    print(f"dispersion: {len(rows)} modes, worst residual {worst:.3g}")
    return EXIT_OK


def cmd_verify(cfg_path, out_dir, seed) -> int:
    tolerances = None
    if cfg_path is not None:
        data = load_config(cfg_path, "verify")
        _require_keys(
            data, {"schema", "command", "suites", "seed", "tolerances"}, set(), "config"
        )
        suites, tolerances = data.get("suites"), data.get("tolerances")
        for key in ("suites", "tolerances"):
            unknown = set(data.get(key) or ()) - set(verify_mod.SUITES)
            if unknown:
                raise ConfigError(f'unknown verify suites in "{key}": {sorted(unknown)}')
        if seed is None:
            seed = data.get("seed")
    else:
        suites = None
    report = verify_mod.run_suites(
        suites, seed=0 if seed is None else int(seed), tolerances=tolerances
    )
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(
            f"{status} {check['name']}: worst {check['worst']:.3g} "
            f"(tol {check['tolerance']:g})"
        )
    write_json(os.path.join(out_dir, "verify.json"), report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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
            default=None,
            help="JSON config file",
        )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="RNG seed")
    args = parser.parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        return commands[args.command](args.config, args.out, args.seed)
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
