"""Correctness checks on the artifacts each subcommand writes.

Tolerances are those of ``tests/test_acceptance.py``.  Every check returns a
list of problems; an empty list means the artifact passed.  A NaN compares
false against every bound, so it always fails.
"""

from __future__ import annotations

import json
import math
import os

MAX_MASS_ERROR = 1e-10
MAX_ENERGY_DRIFT = 1e-8
MAX_EIGEN_RESIDUAL = 1e-8
MAX_SPECTRUM_MISMATCH = 1e-8


def _load(path):
    with open(path) as f:
        # the program may write NaN or Infinity tokens; read both as NaN,
        # which fails every bound below
        return json.load(f, parse_constant=lambda token: math.nan)


def _at_most(value, bound) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value <= bound


def check_summary(summary: dict) -> list:
    problems = []
    if summary.get("error") is not None:
        problems.append(f"integrator error: {summary['error']}")
    if not _at_most(summary.get("max_mass_error"), MAX_MASS_ERROR):
        problems.append(f"max_mass_error {summary.get('max_mass_error')} > {MAX_MASS_ERROR}")
    if not _at_most(summary.get("max_energy_drift"), MAX_ENERGY_DRIFT):
        problems.append(
            f"max_energy_drift {summary.get('max_energy_drift')} > {MAX_ENERGY_DRIFT}"
        )
    return problems


def check_ground_states(report: dict, tol: float) -> list:
    problems = []
    results = report.get("results") or []
    if not results:
        problems.append("no ground-state results")
    for entry in results:
        h = entry.get("h")
        if "error" in entry:
            problems.append(f"h={h}: {entry['error']}")
        if not _at_most(entry.get("kkt_residual"), tol):
            problems.append(f"h={h}: kkt_residual {entry.get('kkt_residual')} > {tol}")
        if not _at_most(entry.get("eigen_residual"), MAX_EIGEN_RESIDUAL):
            problems.append(
                f"h={h}: eigen_residual {entry.get('eigen_residual')} > {MAX_EIGEN_RESIDUAL}"
            )
    return problems


def check_spectrum(report: dict) -> list:
    problems = []
    if report.get("classification") != "spectrally_stable":
        problems.append(f"classification {report.get('classification')!r}")
    if "closed_form" in report:
        gap = report["closed_form"].get("max_mismatch")
        if not _at_most(gap, MAX_SPECTRUM_MISMATCH):
            problems.append(f"closed_form.max_mismatch {gap} > {MAX_SPECTRUM_MISMATCH}")
    return problems


def check_verify(report: dict) -> list:
    if report.get("passed") is not True:
        failed = [c.get("name") for c in report.get("checks", []) if not c.get("passed")]
        return [f"verify failed: {failed}"]
    return []


def check_artifacts(command: str, out_dir: str, tol: float | None = None) -> list:
    """Check the artifacts of one subcommand run; missing files are problems."""
    try:
        if command == "simulate":
            if not os.path.isfile(os.path.join(out_dir, "trajectory.csv")):
                return ["trajectory.csv missing"]
            return check_summary(_load(os.path.join(out_dir, "summary.json")))
        if command == "ground-state":
            return check_ground_states(_load(os.path.join(out_dir, "ground_state.json")), tol)
        if command == "stability":
            return check_spectrum(_load(os.path.join(out_dir, "spectrum.json")))
        if command == "verify":
            return check_verify(_load(os.path.join(out_dir, "verify.json")))
    except (OSError, ValueError) as exc:
        return [f"unreadable artifact: {exc}"]
    raise ValueError(f"no check for command {command!r}")
