import json
import os
import subprocess
import sys

import numpy as np
import pytest

from graph_nls import build_graph, cli, dynamics, save_graph_json
from graph_nls.io import write_json

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(args):
    return cli.main(args)


def simulate_config(**overrides):
    cfg = {
        "schema": 1,
        "command": "simulate",
        "graph": {"builder": "explicit", "n": 2, "edges": [[1, 2, 1.0]]},
        "potentials": {"V": [0.0, 0.0], "W": {"kind": "zero"}, "h": 1.0},
        "initial": {"rho": [0.6, 0.4], "S": [0.1, -0.1]},
        "integrator": {"dt": 1e-3, "T": 0.5, "output_every": 50},
    }
    cfg.update(overrides)
    return cfg


def test_missing_config_file(tmp_path):
    assert run(["simulate", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path)]) == 1


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1


def test_missing_schema(tmp_path):
    cfg = simulate_config()
    del cfg["schema"]
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["simulate", "--config", path, "--out", str(tmp_path)]) == 1


def test_unknown_top_level_key(tmp_path):
    cfg = simulate_config(extra_knob=3)
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["simulate", "--config", path, "--out", str(tmp_path)]) == 1


def test_command_mismatch(tmp_path):
    cfg = simulate_config(command="stability")
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["simulate", "--config", path, "--out", str(tmp_path)]) == 1


def test_unknown_graph_builder(tmp_path):
    cfg = simulate_config(graph={"builder": "star", "n": 3})
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["simulate", "--config", path, "--out", str(tmp_path)]) == 1


def test_simulate_two_point_example(tmp_path):
    path = os.path.join(REPO, "configs", "two_point.json")
    out = tmp_path / "out"
    assert run(["simulate", "--config", path, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["t", "rho_1", "rho_2", "S_1", "S_2"]
    assert header[5:] == ["mass", "energy", "min_rho", "norm_resid"]
    assert len(lines) == 1 + 101  # T=10, dt=1e-3, every 100 steps
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] is None
    assert summary["max_mass_error"] <= 1e-10
    assert summary["max_energy_drift"] <= 1e-8
    assert summary["min_rho"] > 0.0


def one_solver_error_line(capsys):
    """The stderr of a run so far, checked to be one "solver error:" line."""
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and err.count("\n") == 1 and err.endswith("\n")
    return err


def test_simulate_solver_failure_keeps_partial(tmp_path, capsys):
    cfg = simulate_config(
        initial={"rho": [1e-8, 1.0 - 1e-8], "S": [0.0, 10.0]},
        integrator={"dt": 1e-3, "T": 1.0, "newton_tol": 1e-12},
    )
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert run(["simulate", "--config", path, "--out", str(out)]) == 2
    assert "integrator failed" in one_solver_error_line(capsys)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] is not None
    assert summary["halvings"] == 5
    assert (out / "trajectory.csv").exists()


def test_simulate_summary_reports_halving_events(tmp_path):
    cfg = simulate_config(
        initial={"rho": [1e-8, 1.0 - 1e-8], "S": [0.0, 10.0]},
        integrator={"dt": 1e-3, "T": 1.0, "newton_tol": 1e-12},
    )
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert run(["simulate", "--config", path, "--out", str(out)]) == 2
    events = json.loads((out / "summary.json").read_text())["halving_events"]
    assert [dt for _, dt in events] == [1e-3 / 2**k for k in range(1, 6)]
    times = [t for t, _ in events]
    assert times == sorted(times) and 0.0 <= times[0] < 1.0


def test_simulate_summary_reports_newton_work(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", simulate_config())
    assert run(["simulate", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # 500 steps of at least one Newton update each, on one reused matrix
    assert summary["newton_iterations"] >= 500
    assert 1 <= summary["factorizations"] <= 2


def test_simulate_summary_reports_krylov_matvecs(tmp_path):
    # the smallest cycle whose Newton matrix GMRES solves
    n = dynamics._DIRECT_SIZE // 2 + 1
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.5, 1.0, n)
    cfg = simulate_config(
        graph={"builder": "torus", "dims": [n]},
        potentials={"V": [0.0] * n, "W": {"kind": "zero"}, "h": 1.0},
        initial={"rho": (rho / rho.sum()).tolist(), "S": rng.normal(0.0, 0.3, n).tolist()},
    )
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["simulate", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    keys = list(summary)
    assert keys.index("krylov_matvecs") == keys.index("newton_iterations") + 1
    # each GMRES solve makes at least one product, two at this dt
    assert summary["newton_iterations"] < summary["krylov_matvecs"]
    assert summary["krylov_matvecs"] <= 3 * summary["newton_iterations"]


def test_simulate_summary_reports_extrapolated_starts(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", simulate_config())
    assert run(["simulate", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # every step after the first two starts from the extrapolation
    assert summary["extrapolated_starts"] == 498
    assert summary["newton_iterations"] <= 504


def test_simulate_two_point_reports_estimated_stops(tmp_path):
    out = tmp_path / "out"
    path = os.path.join(REPO, "configs", "two_point.json")
    assert run(["simulate", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    keys = list(summary)
    assert keys.index("estimated_stops") == keys.index("extrapolated_starts") + 1
    # of 10,000 steps, eight in every nine stop on the contraction estimate
    assert 8800 <= summary["estimated_stops"] <= 10_000 * 8 / 9
    assert summary["newton_iterations"] == 10_000


def test_simulate_non_numeric_integrator_value(tmp_path, capsys):
    for key, value in (("dt", "abc"), ("T", [1.0]), ("output_every", "x")):
        cfg = simulate_config()
        cfg["integrator"] = {**cfg["integrator"], key: value}
        path = write_config(tmp_path, "c.json", cfg)
        assert run(["simulate", "--config", path, "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err


def test_simulate_wave_initial_matches_density_phase(tmp_path):
    base = simulate_config()
    rho = np.array([0.6, 0.4])
    S = np.array([0.1, -0.1])
    psi = np.sqrt(rho) * np.exp(1j * S)
    wave = simulate_config(
        initial={"psi_re": list(psi.real), "psi_im": list(psi.imag)}
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--config", write_config(tmp_path, "a.json", base),
                "--out", str(out_a)]) == 0
    assert run(["simulate", "--config", write_config(tmp_path, "b.json", wave),
                "--out", str(out_b)]) == 0
    ta = np.genfromtxt(out_a / "trajectory.csv", delimiter=",", skip_header=1)
    tb = np.genfromtxt(out_b / "trajectory.csv", delimiter=",", skip_header=1)
    assert np.abs(ta - tb).max() < 1e-12


def test_ground_state_harmonic_sweep(tmp_path):
    path = os.path.join(REPO, "configs", "harmonic_lattice.json")
    out = tmp_path / "out"
    assert run(["ground-state", "--config", path, "--out", str(out)]) == 0
    combined = json.loads((out / "ground_state.json").read_text())
    assert [r["h"] for r in combined["results"]] == [1.0, 0.1, 0.01]
    for h, tag in [(1.0, "1"), (0.1, "0.1"), (0.01, "0.01")]:
        entry = json.loads((out / f"ground_state_h{tag}.json").read_text())
        assert entry["h"] == h
        assert entry["kkt_residual"] <= 1e-10
        assert entry["eigen_residual"] <= 1e-8
        rho = np.asarray(entry["rho_g"])
        assert abs(rho.sum() - 1.0) <= 1e-12
        assert rho.min() > 0.0


def ground_state_config(**overrides):
    cfg = {
        "schema": 1,
        "command": "ground-state",
        "graph": {"builder": "path", "n": 5, "x_min": -2.0, "x_max": 2.0},
        "potentials": {"V": {"kind": "harmonic"}, "W": {"kind": "zero"}},
        "h_values": [1.0],
    }
    cfg.update(overrides)
    return cfg


def test_ground_state_sweep_matches_single_solves(tmp_path):
    cfg = ground_state_config(h_values=[1.0, 0.5])
    out = tmp_path / "sweep"
    assert run(["ground-state", "--config", write_config(tmp_path, "c.json", cfg),
                "--out", str(out)]) == 0
    sweep = json.loads((out / "ground_state.json").read_text())["results"]
    for h, entry in zip([1.0, 0.5], sweep):
        single = ground_state_config(potentials={**cfg["potentials"], "h": h})
        del single["h_values"]
        one = tmp_path / f"h{h}"
        assert run(["ground-state", "--config", write_config(tmp_path, "s.json", single),
                    "--out", str(one)]) == 0
        assert json.loads((one / "ground_state.json").read_text())["results"] == [entry]


def test_h_values_naming_one_artifact_twice_are_a_config_error(tmp_path, capsys):
    # both h print as "1": the second solve would overwrite ground_state_h1.json
    path = write_config(tmp_path, "c.json", ground_state_config(h_values=[1.0, 1.0000001]))
    out = tmp_path / "out"
    assert run(["ground-state", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith('config error: config "h_values"')
    assert not list(out.iterdir())


def test_stability_gpe_uniform(tmp_path):
    cfg = {
        "schema": 1,
        "command": "stability",
        "graph": {"builder": "explicit", "n": 2, "edges": [[1, 2, 1.0]]},
        "potentials": {"V": [0.0, 0.0], "W": {"kind": "diagonal", "alpha": 0.0},
                       "h": 1.0},
        "rho_g": "uniform",
    }
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert run(["stability", "--config", path, "--out", str(out)]) == 0
    rep = json.loads((out / "spectrum.json").read_text())
    assert rep["classification"] == "spectrally_stable"
    assert len(rep["eigenvalues"]) == 4
    assert all(len(pair) == 2 for pair in rep["eigenvalues"])
    assert rep["bifurcation_modes"] == []
    assert rep["closed_form"]["max_mismatch"] <= 1e-10


def test_stability_bifurcation_flag(tmp_path):
    cfg = {
        "schema": 1,
        "command": "stability",
        "graph": {"builder": "explicit", "n": 2, "edges": [[1, 2, 1.0]]},
        "potentials": {"V": [0.0, 0.0], "W": {"kind": "diagonal", "alpha": -1.0},
                       "h": 1.0},
        "rho_g": "uniform",
    }
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert run(["stability", "--config", path, "--out", str(out)]) == 0
    rep = json.loads((out / "spectrum.json").read_text())
    assert rep["bifurcation_modes"] == [2]


def test_stability_non_gpe_has_no_closed_form(tmp_path):
    cfg = {
        "schema": 1,
        "command": "stability",
        "graph": {"builder": "explicit", "n": 2, "edges": [[1, 2, 1.0]]},
        "potentials": {"V": [0.3, 0.0], "W": {"kind": "zero"}, "h": 1.0},
        "rho_g": "solve",
    }
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert run(["stability", "--config", path, "--out", str(out)]) == 0
    rep = json.loads((out / "spectrum.json").read_text())
    assert "closed_form" not in rep


def stability_config(**overrides):
    cfg = {
        "schema": 1,
        "command": "stability",
        "graph": {"builder": "explicit", "n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0]]},
        "potentials": {"V": [0.0, 0.0, 0.0], "W": {"kind": "zero"}, "h": 1.0},
        "rho_g": "solve",
    }
    cfg.update(overrides)
    return cfg


def test_stability_rejects_non_finite_density(tmp_path, capsys):
    for bad in (float("nan"), float("inf")):
        path = write_config(tmp_path, "c.json", stability_config(rho_g=[0.5, bad, 0.5]))
        assert run(["stability", "--config", path, "--out", str(tmp_path)]) == 1
        assert "finite" in capsys.readouterr().err


GPE_2 = {"graph": {"builder": "explicit", "n": 2, "edges": [[1, 2, 1.0]]},
         "potentials": {"V": [0.0, 0.0], "W": {"kind": "diagonal", "alpha": -1.0}, "h": 1.0}}


@pytest.mark.parametrize("rho_g", [[0.0, 1.0], [-0.5, 1.5], [1e-310, 1.0],
                                   [0.5, float("nan")], [0.25, 0.25]])
def test_stability_reads_a_density_list_as_init_of_mass_1(tmp_path, capsys, rho_g):
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", stability_config(**GPE_2, rho_g=rho_g))
    assert run(["stability", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith('config error: config "rho_g"')
    assert not (out / "spectrum.json").exists()
    path = write_config(tmp_path, "c.json", stability_config(**GPE_2, rho_g=[0.5, 0.5]))
    assert run(["stability", "--config", path, "--out", str(out)]) == 0


def test_stability_exits_2_when_its_solve_fails(tmp_path, capsys):
    with open(os.path.join(REPO, "configs", "harmonic_lattice.json")) as f:
        lattice = json.load(f)
    out = tmp_path / "out"
    cfg = stability_config(graph=lattice["graph"], potentials={**lattice["potentials"], "h": 1.0},
                           tol=1e-300)
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["stability", "--config", path, "--out", str(out)]) == 2
    assert "ground-state solve failed" in one_solver_error_line(capsys)
    assert not (out / "spectrum.json").exists()


def test_stability_rejects_non_stationary_density(tmp_path, capsys):
    graph = {"builder": "path", "n": 20, "x_min": -2.0, "x_max": 2.0}
    potentials = {"V": {"kind": "harmonic"}, "W": {"kind": "zero"}, "h": 1.0}
    out = tmp_path / "out"
    cfg = stability_config(graph=graph, potentials=potentials, rho_g="uniform")
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["stability", "--config", path, "--out", str(out)]) == 2
    assert "not stationary" in one_solver_error_line(capsys)
    assert not (out / "spectrum.json").exists()
    # the ground state of the same system is stationary and reports its residual
    path = write_config(tmp_path, "c.json", {**cfg, "rho_g": "solve"})
    assert run(["stability", "--config", path, "--out", str(out)]) == 0
    assert json.loads((out / "spectrum.json").read_text())["kkt_residual"] <= 1e-10


def test_potentials_reject_non_finite_values(tmp_path, capsys):
    nan, inf = float("nan"), float("inf")
    for potentials in (
        {"V": [0.0, nan, 0.0], "W": {"kind": "zero"}, "h": 1.0},
        {"V": [0.0, -inf, 0.0], "W": {"kind": "zero"}, "h": 1.0},
        {"V": [0.0, 0.0, 0.0], "W": {"kind": "diagonal", "alpha": inf}, "h": 1.0},
        {"V": [0.0, 0.0, 0.0], "W": [[0.0, nan, 0.0], [nan, 0.0, 0.0], [0.0, 0.0, 0.0]],
         "h": 1.0},
        {"V": [0.0, 0.0, 0.0], "W": {"kind": "zero"}, "h": inf},
    ):
        path = write_config(tmp_path, "c.json", stability_config(potentials=potentials))
        assert run(["stability", "--config", path, "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err
        pfile = tmp_path / "potentials.json"
        pfile.write_text(json.dumps(potentials))
        cfg = stability_config(potentials={"file": str(pfile)})
        path = write_config(tmp_path, "c.json", cfg)
        assert run(["stability", "--config", path, "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err


def test_potentials_file_same_rule_in_every_subcommand(tmp_path):
    pfile = tmp_path / "potentials.json"
    harmonic = {"V": {"kind": "harmonic"}, "W": {"kind": "zero"}, "h": 1.0}
    pfile.write_text(json.dumps(harmonic))
    graph = {"builder": "path", "n": 5, "x_min": -2.0, "x_max": 2.0}
    configs = {
        "stability": stability_config(graph=graph, potentials={"file": str(pfile)}),
        "ground-state": ground_state_config(potentials={"file": str(pfile)}),
    }
    for command, cfg in configs.items():
        path = write_config(tmp_path, "c.json", cfg)
        assert run([command, "--config", path, "--out", str(tmp_path / command)]) == 0
    pfile.write_text(json.dumps({**harmonic, "typo": 1.0}))
    for command, cfg in configs.items():
        path = write_config(tmp_path, "c.json", cfg)
        assert run([command, "--config", path, "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "command, config",
    [
        ("simulate", simulate_config(
            potentials={"V": [0.0, 0.0], "W": {"kind": "zero"}, "h": 1e200})),
        ("stability", stability_config(
            potentials={"V": [0.0] * 3, "W": {"kind": "zero"}, "h": 1e200})),
        ("ground-state", ground_state_config(h_values=[1.0, 1e200])),
    ],
)
def test_h_whose_square_overflows_is_a_config_error(tmp_path, capsys, command, config):
    # h^2/8 scales every Fisher term; 1e200 squared is past the float range
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", config)
    assert run([command, "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert os.listdir(out) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stability_non_finite_spectrum_is_a_solver_error(tmp_path, capsys):
    # weights 1e300 and 1e-300 at the uniform state overflow the reduction
    graph = {"builder": "explicit", "n": 3, "edges": [[1, 2, 1e300], [2, 3, 1e-300]]}
    cfg = stability_config(graph=graph, rho_g="uniform")
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["stability", "--config", path, "--out", str(out)]) == 2
    assert "not finite" in one_solver_error_line(capsys)
    assert not (out / "spectrum.json").exists()


def dispersion_config(**overrides):
    cfg = {
        "schema": 1,
        "command": "dispersion",
        "graph": {"builder": "torus", "dims": [8], "delta_x": 1.0},
    }
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize(
    "command, config",
    [
        ("simulate", simulate_config(integrator=5)),
        ("simulate", simulate_config(graph=[1, 2])),
        ("simulate", simulate_config(potentials="p.json")),
        ("simulate", simulate_config(initial=5)),
        ("simulate", simulate_config(initial={"rho": [0.5, 0.5], "S": [0.0]})),
        ("simulate", simulate_config(potentials={"V": [0.0, 0.0], "W": {"kind": "zero"}})),
        ("stability", stability_config(
            graph={"builder": "explicit", "n": 2, "edges": [[1, 2, 1.0]]}, rho_g="uniform")),
        ("stability", stability_config(tol="abc")),
        ("stability", stability_config(rho_g=["x", 0.5, 0.5])),
        ("stability", stability_config(
            potentials={"V": [0.0] * 3, "W": {"kind": "diagonal"}, "h": 1.0})),
        ("stability", stability_config(
            potentials={"V": {"kind": "constant"}, "W": {"kind": "zero"}, "h": 1.0})),
        ("ground-state", ground_state_config(h_values=[1.0, -1.0])),
        ("ground-state", ground_state_config(h_values=1.0)),
        ("ground-state", ground_state_config(h_values=[])),
        ("ground-state", ground_state_config(h_values=["abc"])),
        ("ground-state", ground_state_config(tol="abc")),
        ("ground-state", ground_state_config(max_iter=[3])),
        ("stability", stability_config(
            graph={"builder": "path", "n": "abc", "x_min": -1.0, "x_max": 1.0})),
        ("stability", stability_config(
            graph={"builder": "explicit", "n": 3, "edges": [[1, 2, "w"], [2, 3, 1.0]]})),
        ("stability", stability_config(graph={"builder": "torus", "dims": ["x", 3]})),
        ("dispersion", dispersion_config(h="abc")),
        ("dispersion", dispersion_config(modes=[["a", 0]])),
        # W is a matrix at the config boundary, never a vector of n numbers
        ("simulate", simulate_config(potentials={"V": [0.0, 0.0], "W": [1.0, 1.0], "h": 1.0})),
        ("simulate", simulate_config(
            potentials={"V": [0.0, 0.0], "W": {"kind": "dense", "matrix": [1.0, 1.0]}, "h": 1.0})),
        # numbers are JSON numbers and counts are integers
        ("simulate", simulate_config(integrator={"dt": "0.001", "T": 0.5})),
        ("simulate", simulate_config(integrator={"dt": 1e-3, "T": True})),
        ("simulate", simulate_config(integrator={"dt": 1e-3, "T": 0.5, "output_every": 150.7})),
        ("simulate", simulate_config(
            integrator={"dt": 1e-3, "T": 0.5, "newton_max_iter": 20.0})),
        ("simulate", simulate_config(
            potentials={"V": [0.0, 0.0], "W": {"kind": "zero"}, "h": "1"})),
        ("simulate", simulate_config(
            potentials={"V": [0.0, "0"], "W": {"kind": "zero"}, "h": 1.0})),
        ("simulate", simulate_config(initial={"rho": [0.6, 0.4], "S": [True, False]})),
        ("simulate", simulate_config(
            graph={"builder": "explicit", "n": 2, "edges": [[1.9, 2.2, 1.0]]})),
        ("simulate", simulate_config(
            graph={"builder": "explicit", "n": 2.0, "edges": [[1, 2, 1.0]]})),
        ("simulate", simulate_config(
            graph={"builder": "explicit", "n": 2, "edges": [[1, 2, "1"]]})),
        ("simulate", simulate_config(seed=1.5)),
        ("stability", stability_config(
            graph={"builder": "path", "n": 3.5, "x_min": -1.0, "x_max": 1.0})),
        ("stability", stability_config(
            graph={"builder": "path", "n": 3, "x_min": "-1", "x_max": 1.0})),
        ("ground-state", ground_state_config(max_iter=100.5)),
        ("ground-state", ground_state_config(h_values=[1.0, "0.5"])),
        ("ground-state", ground_state_config(tol=True)),
        ("dispersion", dispersion_config(graph={"builder": "torus", "dims": [8.0]})),
        ("dispersion", dispersion_config(modes=[[1.5]])),
        ("verify", {"schema": 1, "command": "verify", "seed": "7", "suites": ["hodge"]}),
        # unknown keys inside V and W kind objects
        ("stability", stability_config(
            potentials={"V": {"kind": "zero", "value": 1.0}, "W": {"kind": "zero"}, "h": 1.0})),
        ("stability", stability_config(
            potentials={"V": [0.0] * 3, "W": {"kind": "diagonal", "alpha": 1.0, "beta": 2.0},
                        "h": 1.0})),
        ("stability", stability_config(
            potentials={"V": [0.0] * 3, "W": {"kind": "zero", "alpha": 1.0}, "h": 1.0})),
        # a boolean among numbers is not read as 0 or 1
        ("simulate", simulate_config(initial={"rho": [True, 0.5], "S": [0.0, 0.0]})),
        ("stability", stability_config(
            potentials={"V": [True, 0.0, 0.0], "W": {"kind": "zero"}, "h": 1.0})),
        # settings that would change nothing: only verify has a seed, dispersion
        # no h, and ground-state takes its h from "h_values" or the potentials
        ("simulate", simulate_config(seed=3)),
        ("dispersion", dispersion_config(h=1.0)),
        ("ground-state", ground_state_config(
            potentials={"V": {"kind": "harmonic"}, "W": {"kind": "zero"}, "h": 0.5})),
        # a solver tolerance that is not positive and finite, and an
        # iteration cap below 1, are rejected before any solve
        ("ground-state", ground_state_config(tol=0)),
        ("ground-state", ground_state_config(tol=-1e-10)),
        ("ground-state", ground_state_config(tol=float("nan"))),
        ("ground-state", ground_state_config(max_iter=0)),
        ("ground-state", ground_state_config(max_iter=-5)),
        ("stability", stability_config(tol=-1)),
        ("stability", stability_config(rho_g="uniform", tol=float("nan"))),
    ],
)
def test_malformed_config_values_are_config_errors(tmp_path, capsys, command, config):
    path = write_config(tmp_path, "c.json", config)
    assert run([command, "--config", path, "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_misspelt_potential_key_is_a_config_error_naming_it(tmp_path, capsys):
    potentials = {"V": {"kind": "harmonic", "coefficent": 3.0}, "W": {"kind": "zero"}}
    path = write_config(tmp_path, "c.json", ground_state_config(potentials=potentials))
    assert run(["ground-state", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "coefficent" in err
    assert not (tmp_path / "out" / "ground_state.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("coefficient", [0.5, 0.0])
def test_harmonic_potential_out_of_float_range_is_a_config_error(tmp_path, capsys, coefficient):
    # the end nodes' x^2 = 1e400 is inf, and 0 * inf is NaN
    graph = {"builder": "path", "n": 5, "x_min": -1e200, "x_max": 1e200,
             "weight_mode": "constant"}
    potentials = {"V": {"kind": "harmonic", "coefficient": coefficient}, "W": {"kind": "zero"}}
    cfg = ground_state_config(graph=graph, potentials=potentials)
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["ground-state", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "config error: potentials V and W must be finite\n"
    assert not (tmp_path / "out" / "ground_state.json").exists()


def test_graph_file_rejects_non_integral_endpoints(tmp_path, capsys):
    gfile = tmp_path / "graph.json"
    gfile.write_text(json.dumps({"n": 2, "edges": [[1.9, 2.2, 1.0]]}))
    path = write_config(tmp_path, "c.json", simulate_config(graph={"file": str(gfile)}))
    assert run(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_graph_file_rejects_unknown_keys(tmp_path, capsys):
    gfile = tmp_path / "graph.json"
    save_graph_json(build_graph(2, [(0, 1, 1.0)]), gfile)
    path = write_config(tmp_path, "c.json", simulate_config(graph={"file": str(gfile)}))
    assert run(["simulate", "--config", path, "--out", str(tmp_path / "ok")]) == 0
    gfile.write_text(json.dumps({**json.loads(gfile.read_text()), "weights": [2.0]}))
    assert run(["simulate", "--config", path, "--out", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "weights" in err


def test_missing_graph_file_cannot_be_read(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    path = write_config(tmp_path, "c.json", simulate_config(graph={"file": str(missing)}))
    assert run(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: cannot read graph {missing}")


def _bad_graph_file(tmp_path):
    gfile = tmp_path / "graph.json"
    gfile.write_text("{not json")
    return "stability", stability_config(graph={"file": str(gfile)})


@pytest.mark.parametrize(
    "case",
    [
        _bad_graph_file,
        lambda tmp_path: ("verify", {"schema": 1, "seed": "abc"}),
        lambda tmp_path: ("verify", {"schema": 1, "suites": 5}),
        lambda tmp_path: ("verify", {"schema": 1, "tolerances": {"hodge": "abc"}}),
        lambda tmp_path: ("simulate", simulate_config(
            initial={"psi_re": [0.5, 0.5], "psi_im": "x"})),
    ],
    ids=["graph-file-not-json", "verify-seed", "verify-suites", "verify-tolerance",
         "simulate-psi-im"],
)
def test_malformed_config_prints_one_config_error_line(tmp_path, case):
    command, config = case(tmp_path)
    path = write_config(tmp_path, "c.json", config)
    src = os.path.join(REPO, "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-m", "graph_nls.cli", command, "--config", path,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 1
    assert out.stderr.startswith("config error:")
    assert out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr


def _exit_code(args):
    """The exit code of the CLI, also when argparse exits."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "case, prefix",
    [
        (lambda path: ["simulate", "--config", path(simulate_config(
            graph={"builder": "explicit", "n": 2, "edges": [[1, 1, 1.0]]}))], "config error:"),
        (lambda path: ["stability", "--config", path(stability_config(
            graph={"builder": "explicit", "n": 3,
                   "edges": [[1, 2, 1.0], [2, 1, 1.0], [2, 3, 1.0]]}))], "config error:"),
        (lambda path: ["stability", "--config", path(stability_config(
            graph={"builder": "path", "n": 3, "x_min": 0.0, "x_max": 1.0,
                   "weight_mode": "constant", "weight": -1.0}))], "config error:"),
        (lambda path: ["stability", "--config", path(stability_config(
            graph={"builder": "path", "n": 3, "x_min": 0.0, "x_max": 1.0,
                   "weight": -1.0}))], "config error:"),
        (lambda path: ["dispersion", "--config", path(dispersion_config(
            graph={"builder": "torus", "dims": [4], "weight_mode": "continuum",
                   "weight": 2.0}))], "config error:"),
        (lambda path: ["dispersion", "--config", path(dispersion_config(
            graph={"builder": "torus", "dims": [4], "delta_x": float("nan")}))], "config error:"),
        (lambda path: ["stability", "--config", path(stability_config(
            graph={"builder": "explicit", "n": 3, "edges": [[1, 2, 1.0]]}))], "config error:"),
        (lambda path: ["simulate"], "usage:"),
        (lambda path: ["simulate", "--config", path(simulate_config()), "--seed", "3"], "usage:"),
        (lambda path: ["verify", "--bogus"], "usage:"),
    ],
    ids=["self-loop", "duplicate-edge", "negative-weight", "path-continuum-weight",
         "torus-continuum-weight", "nan-delta-x", "disconnected",
         "missing-config", "removed-seed", "unknown-flag"],
)
def test_bad_graphs_and_usage_errors_exit_1(tmp_path, capsys, case, prefix):
    args = case(lambda cfg: write_config(tmp_path, "c.json", cfg))
    assert _exit_code(args + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("graph", [
    {"builder": "torus", "dims": [4], "delta_x": 1e-200},
    {"builder": "torus", "dims": [4], "delta_x": 1e200},
    {"builder": "path", "n": 4, "x_min": 0.0, "x_max": 1e-200},
    {"builder": "path", "n": 4, "x_min": -1e308, "x_max": 1e308},
    {"builder": "torus", "dims": [4], "delta_x": float("nan"), "weight_mode": "constant"},
    {"builder": "torus", "dims": [4], "delta_x": float("inf"), "weight_mode": "constant"},
    {"builder": "torus", "dims": [4], "delta_x": 1e308, "weight_mode": "constant"},
    {"builder": "torus", "dims": [4], "delta_x": 0.0, "weight_mode": "constant"},
    {"builder": "path", "n": 4, "x_min": 1.0, "x_max": 1.0 + 2.0**-52,
     "weight_mode": "constant"},
], ids=["torus-tiny", "torus-huge", "path-tiny", "path-wide", "torus-constant-nan",
        "torus-constant-inf", "torus-constant-huge", "torus-constant-zero",
        "path-constant-step-zero"])
def test_spacing_whose_weight_leaves_the_float_range_is_a_config_error(tmp_path, capsys, graph):
    # 1e-200 and the path's spacing square to 0, 1e200 squares to inf, and
    # the wide path's width x_max - x_min is inf.  In either weight mode the
    # spacing must be positive and finite, and the torus's largest coordinate
    # 3 * 1e308 is inf; the last path's second node 1 + 2^-52 / 3 rounds to 1,
    # so its spacing is 0
    path = write_config(tmp_path, "c.json", simulate_config(
        graph=graph, potentials={"V": [0.0] * 4, "W": {"kind": "zero"}},
        initial={"rho": [0.25] * 4, "S": [0.0] * 4}))
    out = tmp_path / "out"
    assert run(["simulate", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: lattice spacing") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


def test_help_exits_0_and_lists_a_seed_for_verify_only(capsys):
    for command in ("simulate", "ground-state", "stability", "dispersion", "verify"):
        assert _exit_code([command, "--help"]) == 0
        assert ("--seed" in capsys.readouterr().out) == (command == "verify")


def test_simulate_rejects_non_finite_numbers(tmp_path, capsys):
    nan, inf = float("nan"), float("inf")
    base = simulate_config()
    for cfg in (
        simulate_config(integrator={**base["integrator"], "dt": nan}),
        simulate_config(integrator={**base["integrator"], "T": inf}),
        simulate_config(integrator={**base["integrator"], "newton_tol": nan}),
        simulate_config(initial={"rho": [0.6, 0.4], "S": [nan, -0.1]}),
        simulate_config(initial={"rho": [0.6, 0.4], "S": [0.1, inf]}),
    ):
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.json", cfg)
        assert run(["simulate", "--config", path, "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


@pytest.mark.parametrize("initial, message", [
    ({"rho": [0.5, 0.6], "S": [0.0, 0.0]}, "initial mass 1.1 != 1"),
    ({"rho": [-0.1, 1.1], "S": [0.0, 0.0]}, '"rho": every entry must be finite and at least'),
    ({"rho": [0.0, 1.0], "S": [0.0, 0.0]}, '"rho": every entry must be finite and at least'),
    ({"rho": [1e-310, 1.0], "S": [0.0, 0.0]}, '"rho": every entry must be finite and at least'),
    ({"psi_re": [0.0, 1.0], "psi_im": [0.0, 0.0]}, "|psi|^2: every entry must be finite and at least"),
    ({"psi_re": [1e-160, 1.0], "psi_im": [0.0, 0.0]}, "|psi|^2: every entry must be finite and at least"),
    ({"psi_re": [0.6, 0.6], "psi_im": [0.0, 0.0]}, "initial mass 0.72 != 1"),
], ids=["rho_mass", "rho_negative", "rho_zero", "rho_subnormal", "psi_node", "psi_subnormal",
        "psi_mass"])
def test_simulate_initial_off_the_simplex_interior_is_a_config_error(
        tmp_path, capsys, initial, message):
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", simulate_config(initial=initial))
    assert run(["simulate", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert list(out.iterdir()) == []


def test_linalg_error_exits_as_solver_failure(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "spectrum", singular)
    path = write_config(tmp_path, "c.json", stability_config(rho_g="uniform"))
    assert run(["stability", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "solver error: Singular matrix\n"


def test_artifacts_follow_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_json(tmp_path / "a.json", {"x": 1})
    finally:
        os.umask(old)
    assert (tmp_path / "a.json").stat().st_mode & 0o777 == 0o640
    write_json(tmp_path / "b.json", {"x": 1})
    assert (tmp_path / "b.json").stat().st_mode & 0o777 == 0o666 & ~old


def test_json_writes_numpy_values_as_python_ones(tmp_path):
    data = {"f": np.float64(0.1), "i": np.int64(3), "b": np.bool_(True),
            "a": np.array([[1.5, 2.0]]), "t": (np.float32(0.5), np.intp(2))}
    write_json(tmp_path / "a.json", data)
    plain = {"f": 0.1, "i": 3, "b": True, "a": [[1.5, 2.0]], "t": [0.5, 2]}
    assert (tmp_path / "a.json").read_text() == json.dumps(plain, indent=2) + "\n"


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_json_writes_non_finite_numbers_as_null(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"a": np.array([1.0, np.nan]), "b": np.float64(np.inf), "c": (-np.inf, 2)})
    data = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert data == {"a": [1.0, None], "b": None, "c": [None, 2]}


def test_dispersion_cycle8(tmp_path):
    cfg = {
        "schema": 1,
        "command": "dispersion",
        "graph": {"builder": "torus", "dims": [8], "delta_x": 1.0},
        "modes": "all",
    }
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert run(["dispersion", "--config", path, "--out", str(out)]) == 0
    lines = (out / "dispersion.csv").read_text().strip().splitlines()
    assert lines[0] == "m_1,k_1,mu,residual"
    assert len(lines) == 1 + 8
    for line in lines[1:]:
        m, k, mu, resid = (float(x) for x in line.split(","))
        assert resid <= 1e-12
        assert mu == pytest.approx(0.5 * k * k, abs=1e-14)


def test_dispersion_torus_4x4(tmp_path):
    cfg = {
        "schema": 1,
        "command": "dispersion",
        "graph": {"builder": "torus", "dims": [4, 4], "delta_x": 0.5},
        "modes": "all",
    }
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert run(["dispersion", "--config", path, "--out", str(out)]) == 0
    lines = (out / "dispersion.csv").read_text().strip().splitlines()
    assert lines[0] == "m_1,m_2,k_1,k_2,mu,residual"
    assert len(lines) == 1 + 16
    assert all(float(l.split(",")[-1]) <= 1e-12 for l in lines[1:])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("graph, code", [
    ({"builder": "torus", "dims": [8], "delta_x": 2.0, "weight_mode": "constant",
      "weight": 0.25}, 0),
    ({"builder": "torus", "dims": [8], "delta_x": 2.0, "weight_mode": "constant"}, 1),
    ({"builder": "torus", "dims": [8], "delta_x": 1e200, "weight_mode": "constant"}, 1),
], ids=["constant-one-over-dx-squared", "constant-dx-2", "constant-dx-huge"])
def test_dispersion_needs_weights_of_one_over_dx_squared(tmp_path, capsys, graph, code):
    # mu = |k|^2 / 2 holds only for weights 1/dx^2: at dx = 2 the constant
    # weight 1 would give residuals up to 4.01 (README's minimal config, with
    # the continuum weights, is test_dispersion_cycle8)
    path = write_config(tmp_path, "c.json", dispersion_config(graph=graph, modes="all"))
    out = tmp_path / "out"
    assert run(["dispersion", "--config", path, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:
        rows = (out / "dispersion.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 8 and all(float(r.split(",")[-1]) <= 1e-12 for r in rows)
    else:
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (out / "dispersion.csv").exists()


def test_dispersion_rejects_non_torus(tmp_path):
    cfg = {
        "schema": 1,
        "command": "dispersion",
        "graph": {"builder": "explicit", "n": 2, "edges": [[1, 2, 1.0]]},
    }
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["dispersion", "--config", path, "--out", str(tmp_path)]) == 1


def test_verify_subset_passes(tmp_path, capsys):
    cfg = {"schema": 1, "command": "verify",
           "suites": ["hodge", "euler_identity"], "seed": 7}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert run(["verify", "--config", path, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS hodge" in text
    assert "PASS euler_identity" in text
    rep = json.loads((out / "verify.json").read_text())
    assert rep["passed"] is True
    assert [c["name"] for c in rep["checks"]] == ["hodge", "euler_identity"]


def test_verify_impossible_tolerance_exits_3(tmp_path, capsys):
    cfg = {"schema": 1, "command": "verify", "suites": ["euler_identity"],
           "tolerances": {"euler_identity": 0.0}}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert run(["verify", "--config", path, "--out", str(out)]) == 3
    assert "FAIL euler_identity" in capsys.readouterr().out
    rep = json.loads((out / "verify.json").read_text())
    assert rep["passed"] is False


def test_verify_override_cannot_loosen_a_failing_suite(tmp_path, capsys, monkeypatch):
    def failing(seed=0):
        return {"name": "hodge", "passed": False, "worst": 1e-14, "tolerance": 1e-12}

    monkeypatch.setitem(cli.verify_mod.SUITES, "hodge", failing)
    cfg = {"schema": 1, "command": "verify", "suites": ["hodge"],
           "tolerances": {"hodge": 1.0}}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert run(["verify", "--config", path, "--out", str(out)]) == 3
    assert "FAIL hodge" in capsys.readouterr().out
    assert json.loads((out / "verify.json").read_text())["passed"] is False


def test_verify_json_is_standard_when_the_battery_run_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.verify_mod.BatteryRun, "_integrate",
                        lambda self: (None, "two_node: forced failure"))
    path = write_config(tmp_path, "c.json",
                        {"schema": 1, "command": "verify", "suites": ["conservation"]})
    out = tmp_path / "out"
    assert run(["verify", "--config", path, "--out", str(out)]) == 3
    rep = json.loads((out / "verify.json").read_text(), parse_constant=_reject_constant)
    (check,) = rep["checks"]
    assert check["worst"] is None and check["detail"] == "two_node: forced failure"


def test_verify_empty_suite_list_is_a_config_error(tmp_path, capsys):
    cfg = {"schema": 1, "command": "verify", "suites": []}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert run(["verify", "--config", path, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "verify.json").exists()


def test_verify_repeated_suite_is_a_config_error(tmp_path, capsys):
    cfg = {"schema": 1, "command": "verify", "suites": ["euler_identity", "euler_identity"]}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert run(["verify", "--config", path, "--out", str(out)]) == 1
    assert "twice" in capsys.readouterr().err
    assert not (out / "verify.json").exists()


@pytest.mark.parametrize("how", ["flag", "key"])
def test_verify_negative_seed_is_a_config_error(tmp_path, capsys, how):
    cfg = {"schema": 1, "command": "verify", "suites": ["hodge"]}
    if how == "key":
        cfg["seed"] = -3
    args = ["--seed", "-1"] if how == "flag" else []
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["verify", "--config", path, "--out", str(out)] + args) == 1
    assert capsys.readouterr().err.startswith('config error: "seed" must be a non-negative')
    assert not (out / "verify.json").exists()


def test_verify_unknown_suite_rejected(tmp_path):
    cfg = {"schema": 1, "command": "verify", "suites": ["does_not_exist"]}
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["verify", "--config", path, "--out", str(tmp_path)]) == 1


def test_verify_seed_reproducible(tmp_path):
    cfg = {"schema": 1, "command": "verify", "suites": ["hodge"], "seed": 11}
    path = write_config(tmp_path, "c.json", cfg)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["verify", "--config", path, "--out", str(out_a)]) == 0
    assert run(["verify", "--config", path, "--out", str(out_b)]) == 0
    assert (out_a / "verify.json").read_bytes() == (out_b / "verify.json").read_bytes()


def test_ground_state_fine_trap_writes_its_results(tmp_path):
    # the [-8, 8], n = 160 trap once exited 2 on a NaN iterate with no
    # ground_state.json; CI runs this with RuntimeWarning as an error
    cfg = ground_state_config(graph={"builder": "path", "n": 160, "x_min": -8.0, "x_max": 8.0})
    out = tmp_path / "out"
    assert run(["ground-state", "--config", write_config(tmp_path, "c.json", cfg),
                "--out", str(out)]) == 0
    [entry] = json.loads((out / "ground_state.json").read_text())["results"]
    assert "error" not in entry and entry["kkt_residual"] <= 1e-10
    assert entry["iterations"] > 0 and entry["cg_products"] > 0 and entry["fallback_steps"] == 0


@pytest.mark.parametrize(
    "init",
    [
        [0.0, 0.25, 0.25, 0.25, 0.25],
        [-0.5, 0.5, 0.5, 0.25, 0.25],
        [float("nan"), 0.25, 0.25, 0.25, 0.25],
        [float("inf"), 0.25, 0.25, 0.25, 0.25],
    ],
)
def test_ground_state_bad_init_is_a_config_error(tmp_path, capsys, init):
    path = write_config(tmp_path, "c.json", ground_state_config(init=init))
    assert run(["ground-state", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out" / "ground_state.json").exists()


@pytest.mark.parametrize("init", [[0.25] * 5, [0.15] * 5])
def test_ground_state_init_off_mass_1_is_a_config_error(tmp_path, capsys, init):
    # the rule of simulate's initial and stability's rho_g: |mass - 1| <= 1e-9
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", ground_state_config(init=init))
    assert run(["ground-state", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith('config error: config "init": density mass')
    assert not list(out.iterdir())
    path = write_config(tmp_path, "c.json", ground_state_config(init=[0.2] * 5))
    assert run(["ground-state", "--config", path, "--out", str(out)]) == 0


@pytest.mark.parametrize("option", [{"tol": 0}, {"max_iter": 0}])
def test_ground_state_bad_solver_setting_writes_no_artifact(tmp_path, capsys, option):
    cfg = ground_state_config(h_values=[1.0, 0.5], **option)
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["ground-state", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not list((tmp_path / "out").iterdir())


def test_ground_state_reports_why_each_solve_stopped(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", ground_state_config(h_values=[1.0, 0.5]))
    assert run(["ground-state", "--config", path, "--out", str(out)]) == 0
    results = json.loads((out / "ground_state.json").read_text())["results"]
    assert [entry["stop_reason"] for entry in results] == ["tolerance", "tolerance"]
    path = write_config(tmp_path, "c.json", ground_state_config(max_iter=1))
    assert run(["ground-state", "--config", path, "--out", str(out)]) == 2
    [entry] = json.loads((out / "ground_state.json").read_text())["results"]
    assert entry["stop_reason"] == "max_iter" and "max_iter" in entry["error"]
    assert "stopped on max_iter" in capsys.readouterr().err
