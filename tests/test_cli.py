import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from photonfilter import cli, master_ensemble
from photonfilter import sde_engine as se
from photonfilter.config import SimConfig
from photonfilter.master_ensemble import analytic_mean_photon_series

FAST = ["--tend", "13", "--dt", "0.01"]


def test_me_writes_csv(tmp_path, capsys):
    out = tmp_path / "me.csv"
    rc = cli.main(["me", *FAST, "--out", str(out)])
    assert rc == 0
    assert "peak" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "t,me_n,analytic_n"
    data = np.loadtxt(str(out), delimiter=",", skiprows=2)
    assert data.shape == (1301, 3)
    # the embedded config reproduces the run
    cfg = json.loads(lines[0].removeprefix("# config: "))
    assert cfg["t_end"] == 13.0 and cfg["dt"] == 0.01


def test_csv_round_trip_bit_exact(tmp_path):
    out = tmp_path / "traj.csv"
    assert cli.main(["trajectory", *FAST, "--seed", "3", "--out", str(out)]) == 0
    data = np.loadtxt(str(out), delimiter=",", skiprows=2)
    from photonfilter.sde_engine import simulate_trajectory

    traj = simulate_trajectory(SimConfig(t_end=13.0, dt=0.01, seed=3))
    np.testing.assert_array_equal(data[:, 1], traj.n_cond)


def test_engine_generic_header_and_series(tmp_path):
    # the default homodyne filter is the cascade; --engine generic runs the
    # compiled filter on the same noise, which differs by its Euler error
    data, configs = [], []
    for extra in ([], ["--engine", "generic"]):
        out = tmp_path / f"traj{len(extra)}.csv"
        assert cli.main(["trajectory", *FAST, "--seed", "3", *extra, "--out", str(out)]) == 0
        configs.append(json.loads(out.read_text().splitlines()[0].removeprefix("# config: ")))
        data.append(np.loadtxt(str(out), delimiter=",", skiprows=2))
    assert [c["engine"] for c in configs] == ["cascade", "generic"]
    gap = np.abs(data[0][:, 1] - data[1][:, 1]).max()
    assert 0.0 < gap <= 5e-3


def test_json_format_carries_seed(tmp_path):
    out = tmp_path / "traj.json"
    rc = cli.main(["trajectory", *FAST, "--seed", "99", "--format", "json",
                   "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["seed"] == 99
    assert payload["config"]["seed"] == 99
    assert len(payload["times"]) == 1301
    assert set(payload["series"]) == {"n_cond", "record"}


def test_write_series_line_count(tmp_path):
    out = tmp_path / "t.csv"
    cli.write_series(out, ["a", "b"], [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    assert len(out.read_text().splitlines()) == 4


def test_write_series_rejects_width_mismatch(tmp_path):
    with pytest.raises(ValueError):
        cli.write_series(tmp_path / "t.csv", ["a", "b", "c"], [[1.0], [2.0]])


def test_ensemble_runs(tmp_path, capsys):
    out = tmp_path / "ens.csv"
    rc = cli.main(["ensemble", *FAST, "--ntraj", "20", "--seed", "2",
                   "--out", str(out)])
    assert rc == 0
    assert "M = 20" in capsys.readouterr().out
    assert out.read_text().splitlines()[1] == "t,mean_n,stderr_n,me_n"
    data = np.loadtxt(str(out), delimiter=",", skiprows=2)
    assert data.shape == (1301, 4)


@pytest.mark.parametrize("detector", ["homodyne", "photocount"])
def test_ensemble_me_column_is_closed_form(tmp_path, detector):
    # the master equation beside an ensemble is its exact solution |beta|^2,
    # written at full precision
    out = tmp_path / "ens.csv"
    assert cli.main(["ensemble", *FAST, "--ntraj", "5", "--delta", "0.7",
                     "--detector", detector, "--out", str(out)]) == 0
    data = np.loadtxt(str(out), delimiter=",", skiprows=2)
    cfg = SimConfig(t_end=13.0, dt=0.01, delta=0.7)
    np.testing.assert_array_equal(data[:, 0], cfg.times())
    np.testing.assert_array_equal(data[:, 3], analytic_mean_photon_series(cfg, cfg.times()))


def test_ensemble_runs_no_master_equation_integration(tmp_path, monkeypatch):
    # the RK4 of the master equation serves me and verify; an ensemble
    # never steps it
    def refuse(*args, **kwargs):
        raise AssertionError("ensemble integrated the master equation")

    for module in (master_ensemble, cli):
        monkeypatch.setattr(module, "integrate_master", refuse)
    monkeypatch.setattr(master_ensemble, "master_path", refuse)
    for engine in ("cascade", "generic"):
        assert cli.main(["ensemble", *FAST, "--ntraj", "5", "--engine", engine,
                         "--out", str(tmp_path / f"{engine}.csv")]) == 0
    assert cli.main(["ensemble", *FAST, "--ntraj", "5", "--detector", "photocount"]) == 0


def test_photocount_trajectory_prints_jumps(capsys):
    rc = cli.main(["trajectory", "--tend", "103", "--dt", "0.01",
                   "--detector", "photocount", "--seed", "12"])
    assert rc == 0
    assert "jumps at" in capsys.readouterr().out


@pytest.mark.parametrize("grid", [["--delta", "57", "--dt", "0.05", "--tend", "53"],
                                  ["--delta", "2900", "--tend", "13"]])
def test_unstable_me_exits_one_naming_dt(tmp_path, capsys, grid):
    # RK4 cannot step these grids: the run stops at setup, writing nothing
    out = tmp_path / "me.csv"
    assert cli.main(["me", *grid, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: RK4 ") and "dt=" in err and "is stable" in err
    assert not out.exists()


def test_me_divergence_exits_one(monkeypatch, capsys):
    # a master path that stops being finite is an error naming its time,
    # not a traceback
    def diverging(cfg, f):
        states = np.zeros((3, f.initial.size), dtype=complex)
        states[2] = np.nan
        yield 0, states

    monkeypatch.setattr(master_ensemble, "master_path", diverging)
    assert cli.main(["me", *FAST]) == 1
    assert "error: master-equation integration diverged at t=0.02" in capsys.readouterr().err


def test_invalid_config_exits_one(capsys):
    assert cli.main(["me", "--dt", "0"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,field", [
    ("--kappa", "kappa"), ("--gamma", "gamma"), ("--delta", "delta"),
    ("--t0", "t0"), ("--tend", "t_end"), ("--dt", "dt"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_exits_one(flag, field, value, capsys):
    # a nan passes every comparison and an inf overflows the grid or the
    # model; both are rejected where the config is built, naming the field
    assert cli.main(["me", "--dt", "1e-2", f"{flag}={value}"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be finite")


def test_negative_seed_exits_one_naming_it(capsys):
    assert cli.main(["ensemble", *FAST, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_no_workers_exits_one(capsys):
    assert cli.main(["ensemble", *FAST, "--workers", "0"]) == 1
    assert "workers must be >= 1" in capsys.readouterr().err


def test_unwritable_output_exits_one(tmp_path, capsys):
    rc = cli.main(["me", *FAST, "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert rc == 1


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectra"])
    assert exc.value.code == 2


@pytest.mark.parametrize("detector,loads", [("photocount", False), ("homodyne", True)])
def test_ensemble_loads_numpy_random_only_to_build_generators(detector, loads, tmp_path):
    # photon counting computes its uniforms from the seed words; only the
    # homodyne generators need numpy.random.  A fresh process, since this
    # one has loaded it
    code = ("import sys, photonfilter.cli as c; "
            "sys.exit(c.main(sys.argv[1:]) or 10 + ('numpy.random' in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code, "ensemble", "--detector", detector,
                          "--ntraj", "20", *FAST, "--out", str(tmp_path / "e.csv")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 10 + loads, run.stderr


def test_photocount_trajectory_leaves_numpy_random_unloaded(tmp_path):
    # a trajectory run takes its one uniform from the seed's own pool,
    # computed from the seed words; a fresh process, since this one has
    # loaded numpy.random
    code = ("import sys, photonfilter.cli as c; "
            "sys.exit(c.main(sys.argv[1:]) or 10 + ('numpy.random' in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code, "trajectory", "--detector", "photocount",
                          "--seed", str(2**64 + 5), *FAST, "--out", str(tmp_path / "t.csv")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 10, run.stderr
