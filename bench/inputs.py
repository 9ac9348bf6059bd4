"""Seeded inputs for the benchmark workloads.

The small-graph workload runs the configs pinned under ``configs/`` and the
two-node stability example from the README, unchanged.  The torus workloads
get their inputs from ``--seed``: the same seed writes byte-identical config
files, and the stability config of ``torus_stationary`` is chained from the
ground state that the program itself computed.
"""

from __future__ import annotations

import hashlib
import json
import random

TORUS_DIMS = (32, 32)
TORUS_GRAPH = {"builder": "torus", "dims": list(TORUS_DIMS), "delta_x": 1.0}
TORUS_W = {"kind": "diagonal", "alpha": 1.0}

# near-uniform start: perturbations of this size keep the energy drift of 20
# implicit midpoint steps at dt = 1e-3 about ten times below the 1e-8 check
DENSITY_AMPLITUDE = 0.1
PHASE_AMPLITUDE = 0.1
SIMULATE_STEPS = 20
SIMULATE_DT = 1e-3

# centred harmonic trap, wide enough that the ground state spans the torus
TRAP_COEFFICIENT = 5e-4
TRAP_NOISE = 1e-3
GROUND_STATE_H = (1.0, 0.5)
GROUND_STATE_TOL = 1e-10

# README example: uniform state of the two-node discrete GPE at alpha = -1
GPE_TWO_NODE = {
    "schema": 1,
    "command": "stability",
    "graph": {"builder": "explicit", "n": 2, "edges": [[1, 2, 1.0]]},
    "potentials": {
        "V": [0.0, 0.0],
        "W": {"kind": "diagonal", "alpha": -1.0},
        "h": 1.0,
    },
    "rho_g": "uniform",
}


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash through sha512, stable across Python versions
    return random.Random(f"{workload}:{seed}")


def dump(data) -> str:
    """The byte format of every generated config."""
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def write_config(path: str, data) -> str:
    """Write ``data`` as a config file and return its sha256."""
    text = dump(data)
    with open(path, "w") as f:
        f.write(text)
    return hashlib.sha256(text.encode()).hexdigest()


def torus_simulate_config(seed: int) -> dict:
    rng = _rng("torus_dynamics", seed)
    n = TORUS_DIMS[0] * TORUS_DIMS[1]
    weights = [1.0 + DENSITY_AMPLITUDE * rng.uniform(-1.0, 1.0) for _ in range(n)]
    total = sum(weights)
    rho = [w / total for w in weights]
    S = [PHASE_AMPLITUDE * rng.gauss(0.0, 1.0) for _ in range(n)]
    return {
        "schema": 1,
        "command": "simulate",
        "graph": TORUS_GRAPH,
        "potentials": {"V": [0.0] * n, "W": TORUS_W, "h": 1.0},
        "initial": {"rho": rho, "S": S},
        "integrator": {
            "method": "implicit_midpoint",
            "dt": SIMULATE_DT,
            "T": SIMULATE_STEPS * SIMULATE_DT,
            "newton_tol": 1e-12,
            "output_every": 5,
        },
    }


def torus_trap(seed: int) -> list:
    rng = _rng("torus_stationary", seed)
    nx, ny = TORUS_DIMS
    cx, cy = 0.5 * (nx - 1), 0.5 * (ny - 1)
    # node order of build_torus: index = i * ny + j at coordinates (i, j)
    return [
        TRAP_COEFFICIENT * ((i - cx) ** 2 + (j - cy) ** 2)
        + TRAP_NOISE * rng.uniform(-1.0, 1.0)
        for i in range(nx)
        for j in range(ny)
    ]


def torus_ground_state_config(seed: int) -> dict:
    return {
        "schema": 1,
        "command": "ground-state",
        "graph": TORUS_GRAPH,
        "potentials": {"V": torus_trap(seed), "W": TORUS_W},
        "h_values": list(GROUND_STATE_H),
        "tol": GROUND_STATE_TOL,
    }


def torus_stability_config(seed: int, ground_state: dict) -> dict:
    """Linearize at the h = 1 ground state the program wrote."""
    return {
        "schema": 1,
        "command": "stability",
        "graph": TORUS_GRAPH,
        "potentials": {"V": torus_trap(seed), "W": TORUS_W, "h": ground_state["h"]},
        "rho_g": ground_state["rho_g"],
    }


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()
