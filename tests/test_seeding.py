"""The ensemble's seeding against numpy's own SeedSequence and default_rng.

``seeding`` recomputes SeedSequence's hashes for all children at once, and
PCG64's seeding, step and output for photon counting's uniforms, on lanes
of Python ints; these tests fail if a numpy release changes the algorithm
(which NEP 19 rules out), if one of the module's constants or steps differs
from numpy's, or if a lane spills into its neighbour.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonfilter import master_ensemble as me
from photonfilter import seeding
from photonfilter.config import SimConfig

SEEDS = (0, 1, 101, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7, np.uint64(2**64 - 1))


def _assert_same_as_numpy(seed, m):
    ours = seeding.children(seed, m)
    ref = np.random.SeedSequence(seed).spawn(m)
    assert [c.spawn_key for c in ours] == [r.spawn_key for r in ref]
    lanes, _ = seeding._pools(seed, m)
    pools = np.stack([np.frombuffer(p.to_bytes(8 * m, "little"), "<u4")[::2] for p in lanes],
                     axis=1)
    np.testing.assert_array_equal(pools, [r.pool for r in ref])
    for c, r in zip(ours, ref):
        assert c.words.dtype == np.uint64
        np.testing.assert_array_equal(c.words, r.generate_state(4, np.uint64))
    for g, r in zip(seeding.generators(ours), ref):
        rng = np.random.default_rng(r)
        assert g.random() == rng.random()
        np.testing.assert_array_equal(g.standard_normal(700), rng.standard_normal(700))
    assert seeding.uniforms(seed, m) == [np.random.default_rng(r).random() for r in ref]


@pytest.mark.parametrize("seed", SEEDS)
def test_children_and_generators_are_numpys(seed):
    _assert_same_as_numpy(seed, 300)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**160 - 1), m=st.integers(1, 40))
def test_any_seed_is_numpys(seed, m):
    _assert_same_as_numpy(seed, m)


def test_generators_take_seed_sequences():
    # run_block's entries may be numpy's own SeedSequences, as in the tests
    # that build blocks by hand
    seqs = [np.random.SeedSequence(9), *np.random.SeedSequence(4).spawn(3)]
    for g, s in zip(seeding.generators(seqs), seqs):
        np.testing.assert_array_equal(g.standard_normal(50),
                                      np.random.default_rng(s).standard_normal(50))


@pytest.mark.parametrize("seed", SEEDS)
def test_root_and_child_uniforms_are_numpys(seed):
    # a trajectory run's uniform, the root's, and an ensemble's, its
    # children's, from the integer seed alone
    seqs = [np.random.SeedSequence(seed), *np.random.SeedSequence(seed).spawn(20)]
    assert seeding.uniforms(seed) + seeding.uniforms(seed, 20) == [
        np.random.default_rng(s).random() for s in seqs]


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 + 5, 2**128 + 3, 3**100])
def test_root_is_numpys(seed):
    # a trajectory run's generator: the root SeedSequence's state words,
    # with the root's empty spawn key, for seeds of 1 to 6 words
    (root,) = seeding.children(seed)
    ref = np.random.SeedSequence(seed)
    assert root.spawn_key == ref.spawn_key == ()
    assert root.words.dtype == np.uint64
    np.testing.assert_array_equal(root.words, ref.generate_state(4, np.uint64))
    np.testing.assert_array_equal(seeding.generators([root])[0].standard_normal(50),
                                  np.random.default_rng(ref).standard_normal(50))


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 + 5, 2**128 + 3, 3**100])
def test_root_uniform_is_numpys(seed):
    # a trajectory run's uniform from the seed words alone: the root's pool
    # is its children's before their index word, for seeds of 1 to 6 words
    pool, _ = seeding._pools(seed, None)
    assert pool == np.random.SeedSequence(seed).pool.tolist()
    assert seeding.uniforms(seed) == [np.random.default_rng(np.random.SeedSequence(seed)).random()]


@settings(max_examples=8, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**64, 2**160)),
       m=st.integers(1, 1600))
@example(seed=1, m=1600)
@example(seed=2**64 + 5, m=501)
def test_lane_uniforms_are_numpys(seed, m):
    # every trajectory's uniform in one pass over the lanes, up to m = 1600
    assert seeding.uniforms(seed, m) == [np.random.default_rng(c).random()
                                         for c in np.random.SeedSequence(seed).spawn(m)]


# Targets for the PCG64 state after random()'s step: the output xors the
# state's halves and rotates right by its top six bits, and random() keeps
# the output's top 53 bits.
_HI = 0x0123456789ABCDEF  # top six bits 0
_LO = 0xFEDCBA9876543210


@pytest.mark.parametrize("target,rot,zero", [
    (_HI << 64 | _LO, 0, False),
    ((63 << 58 | _HI) << 64 | _LO, 63, False),
    # halves that differ in 0x7FF << 5, rotated right by 5: output 0x7FF
    ((5 << 58 | _HI) << 64 | (5 << 58 | _HI) ^ 0x7FF << 5, 5, True),
])
def test_pcg_output_at_rotation_edges(target, rot, zero):
    # each pre-step state comes from its target through the multiplier's
    # inverse, and numpy's PCG64 set to it draws the same random(); an
    # output below 2**11 draws 0.0.  The same state drawn alone and in the
    # middle 256-bit lane of three, beside all-ones states, gives the same
    inc = 0xDA3E39CB94B95BDB0DB9CE9B4AC6CA5F
    assert target >> 122 == rot
    state = (target - inc) * pow(seeding._MULT, -1, 2**128) % 2**128
    g = np.random.Generator(np.random.PCG64())
    g.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
    expect = g.random()
    assert seeding._randoms(state, inc, 1) == [expect]
    full, incs = seeding._M128, inc * seeding._ones(3, 32)
    lanes = full | state << 256 | full << 512
    assert seeding._randoms(lanes, incs, 3) == [*seeding._randoms(full, inc, 1), expect,
                                                *seeding._randoms(full, inc, 1)]
    assert (expect == 0.0) == zero


def test_children_reject_a_negative_seed():
    # a negative seed has no 32-bit words: splitting it would never end
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        seeding.children(-1, 3)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("run", [
    dict(detector="photocount"),
    dict(engine="cascade"),
    dict(engine="generic", delta=0.7),
])
def test_ensemble_is_byte_identical_to_numpys_seeding(run, workers, monkeypatch):
    # two blocks, so that workers=2 runs them in two processes; the
    # reference runs in this process, with numpy's own spawn and default_rng
    cfg = SimConfig(t_end=23.0, dt=1e-2, ntraj=600, seed=7, **run)
    ours = me.run_ensemble(cfg, workers=workers)
    monkeypatch.setattr(seeding, "children",
                        lambda seed, m: np.random.SeedSequence(seed).spawn(m))
    monkeypatch.setattr(seeding, "generators",
                        lambda seqs: [np.random.default_rng(s) for s in seqs])
    monkeypatch.setattr(seeding, "uniforms", lambda seed, m: [
        np.random.default_rng(c).random() for c in np.random.SeedSequence(seed).spawn(m)])
    ref = me.run_ensemble(cfg, workers=1)
    assert ours.mean.tobytes() == ref.mean.tobytes()
    assert ours.stderr.tobytes() == ref.stderr.tobytes()
    assert ours.diagnostics.count_times.tobytes() == ref.diagnostics.count_times.tobytes()
    if cfg.detector == "photocount":
        assert np.isfinite(ours.diagnostics.count_times).sum() > 100
