"""File formats: trajectory CSV and result JSON.

All floating point output uses 17 significant digits so values round-trip
exactly; JSON is standard JSON, with null for a NaN or an infinity.  Files
are written to a temporary name and renamed into place.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .dynamics import Trajectory

__all__ = [
    "atomic_write_text",
    "write_csv",
    "write_json",
    "write_trajectory_csv",
    "trajectory_summary",
    "format_float",
]


def format_float(x) -> str:
    return f"{float(x):.17g}"


def atomic_write_text(path, text) -> None:
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    # mkstemp creates the file 0600; give it the mode open() would
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as f:
            os.fchmod(f.fileno(), 0o666 & ~umask)
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite_or_null(obj):
    """``obj`` with each non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _finite_or_null(obj.tolist())
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json(path, data) -> None:
    """Standard JSON: a NaN or an infinity is written as null."""
    atomic_write_text(path, json.dumps(_finite_or_null(data), indent=2, allow_nan=False) + "\n")


def write_csv(path, header, rows) -> None:
    """A header line, then one line of 17-digit numbers per row."""
    lines = [",".join(header)] + [",".join(format_float(x) for x in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_trajectory_csv(path, traj: Trajectory) -> None:
    n = len(traj.rhos[0])
    cols = (
        ["t"]
        + [f"rho_{j+1}" for j in range(n)]
        + [f"S_{j+1}" for j in range(n)]
        + ["mass", "energy", "min_rho", "norm_resid"]
    )
    write_csv(path, cols, (
        [traj.times[k], *traj.rhos[k], *traj.Ss[k],
         traj.mass[k], traj.energy[k], traj.min_rho[k], traj.norm_resid[k]]
        for k in range(len(traj))
    ))


def trajectory_summary(traj: Trajectory) -> dict:
    mass = np.asarray(traj.mass)
    energy = np.asarray(traj.energy)
    summary = {
        "snapshots": len(traj),
        "t_final": traj.times[-1] if len(traj) else None,
        "max_mass_error": float(np.abs(mass - 1.0).max()),
        "max_energy_drift": float(
            np.abs(energy - energy[0]).max() / max(abs(energy[0]), 1e-300)
        ),
        "min_rho": float(min(traj.min_rho)),
        "max_norm_resid": float(np.abs(np.asarray(traj.norm_resid)).max()),
        "halvings": traj.halvings,
        "halving_events": traj.halving_events,
        "newton_iterations": traj.newton_iterations,
        "krylov_matvecs": traj.krylov_matvecs,
        "factorizations": traj.factorizations,
        "extrapolated_starts": traj.extrapolated_starts,
        "error": traj.error,
    }
    return summary

