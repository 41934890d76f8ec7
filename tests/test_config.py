import json

import numpy as np
import pytest

from photonfilter import cli
from photonfilter import master_ensemble as me
from photonfilter import sde_engine as se
from photonfilter.config import DETECTORS, SimConfig


def test_rejects_photon_before_grid_start():
    # the grid starts at 0, so a photon switched on earlier would be lost
    with pytest.raises(ValueError, match="t0"):
        SimConfig(t0=-20.0)
    assert SimConfig(t0=0.0).t0 == 0.0


def test_rejects_empty_cavity():
    # at D = 1 the annihilation operator is 0 and the cavity never holds the photon
    with pytest.raises(ValueError, match="fock_dim"):
        SimConfig(fock_dim=1)
    assert SimConfig(fock_dim=2).fock_dim == 2


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    (1.5, "seed must be an integer, got 1.5"),
    ("3", "seed must be an integer, got '3'"),
])
def test_rejects_seed_that_is_not_a_nonnegative_int(seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimConfig(seed=seed)
    assert SimConfig(seed=2**130 + 7).seed == 2**130 + 7


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2**64 - 1)])
def test_numpy_integer_seed_is_stored_as_int(seed, tmp_path):
    # the config's seed goes into every output's JSON, which takes no
    # numpy integer: it is held as the Python int of the same value
    cfg = SimConfig(seed=seed)
    assert type(cfg.seed) is int and cfg.seed == int(seed)
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        cli.write_series(out, ["t", "n"], [[0.0, 1.0], [0.0, 0.5]], fmt=fmt,
                         config=cfg.asdict(), seed=cfg.seed)
        text = out.read_text()
        config = (json.loads(text)["config"] if fmt == "json"
                  else json.loads(text.splitlines()[0].removeprefix("# config: ")))
        assert config["seed"] == int(seed)


def test_ensemble_rejects_more_children_than_index_words():
    # child i's index is one 32-bit word of its entropy; an ensemble that
    # needs two raises before it allocates anything of its size
    with pytest.raises(ValueError, match=r"at most 2\*\*32 children take one index word each"):
        me.run_ensemble(SimConfig(ntraj=2**32 + 1))


def test_photon_counting_samples_closed_form():
    # --engine selects the homodyne filter; photon counting has one sampler
    with pytest.raises(ValueError, match="photon counting samples the exact closed form"):
        SimConfig(engine="generic", detector="photocount")
    assert SimConfig(engine="generic").detector == "homodyne"
    assert SimConfig(detector="photocount").engine == "cascade"


def test_config_is_the_one_gate():
    # a detector typo and a homodyne filter asked to count photons are
    # rejected where the run is configured ...
    with pytest.raises(ValueError, match="unknown detector"):
        SimConfig(detector="Homodyne")
    with pytest.raises(ValueError, match="photon counting samples the exact closed form"):
        SimConfig(engine="generic", detector="photocount")
    # ... and the runners take no detector, ensemble size or seed that
    # would go around the check
    cfg = SimConfig(t_end=5.0, dt=5e-2)
    with pytest.raises(TypeError):
        se.simulate_trajectory(cfg, detector="Homodyne")
    with pytest.raises(TypeError):
        se.simulate_trajectory(cfg, seed=3)
    with pytest.raises(TypeError):
        me.run_ensemble(cfg, M=0)
    with pytest.raises(TypeError):
        me.run_ensemble(SimConfig(engine="generic"), detector="photocount")


@pytest.mark.parametrize("detector", DETECTORS)
def test_runs_follow_config_detector(detector):
    # homodyne records are Gaussian increments of variance dt (K dt is
    # small beside them); photon-counting records are cumulative counts of
    # at most one photon, and only photon counting has count times
    cfg = SimConfig(t_end=23.0, dt=1e-2, ntraj=20, seed=3, detector=detector)
    if detector == "homodyne":
        block = se.run_block(cfg, seed_seqs=np.random.SeedSequence(3).spawn(20),
                             record_series=True)
    else:
        block = se.count_photons(cfg, record_series=True)
    for record in (block.record, se.simulate_trajectory(cfg).record[:, None]):
        if detector == "homodyne":
            assert abs(record[1:].std() / np.sqrt(cfg.dt) - 1.0) <= 0.1
        else:
            assert np.isin(record, (0.0, 1.0)).all() and (np.diff(record, axis=0) >= 0).all()
    for count_times in (block.count_times, me.run_ensemble(cfg).diagnostics.count_times):
        assert count_times.shape == (20,)
        assert (~np.isnan(count_times)).any() == (detector == "photocount")


def test_grid_steps_and_times():
    cfg = SimConfig(t0=0.0, t_end=1.0, dt=0.25)
    assert cfg.steps == 4
    np.testing.assert_allclose(cfg.times(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_rejects_non_multiple_t_end():
    # rejected where the run is configured, not when a block first reads the grid
    with pytest.raises(ValueError, match="multiple"):
        SimConfig(t0=0.0, t_end=1.0, dt=0.3)


def test_grid_rejects_bad_dt():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)


def test_grid_rejects_empty():
    with pytest.raises(ValueError, match="at least one step"):
        SimConfig(t0=0.0, t_end=1e-13, dt=1e-3)
