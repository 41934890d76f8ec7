"""Per-layer tracing from outside the package.

The package is not instrumented.  Instead, for a traced pass the
benchmark replaces module attributes with timing wrappers and puts the
originals back afterwards.  A name is wrapped where it is looked up: ``cli``
imports ``integrate_master``, ``run_ensemble``, ``analytic_mean_photon_series``
and ``simulate_trajectory`` by name, so those are wrapped in ``cli`` as well
as in their home module.

Spans (name, start, end, parent) are kept in memory in flat arrays and
reduced when the pass ends: a span's self time is its duration minus
the durations of its direct children, so the self times of all spans add up
to the duration of the root spans (one ``cli.main`` per command).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array

import numpy as np

# (module, attribute, span name).  Counts are taken from the arguments and
# return values of the spans named in COUNTERS below.
WRAPS = [
    ("photonfilter.cli", "main", "cli.main"),
    ("photonfilter.cli", "write_series", "cli.write_series"),
    ("photonfilter.cli", "simulate_trajectory", "sde_engine.simulate_trajectory"),
    ("photonfilter.sde_engine", "simulate_trajectory", "sde_engine.simulate_trajectory"),
    ("photonfilter.cli", "run_ensemble", "master_ensemble.run_ensemble"),
    ("photonfilter.master_ensemble", "run_ensemble", "master_ensemble.run_ensemble"),
    ("photonfilter.cli", "integrate_master", "master_ensemble.integrate_master"),
    ("photonfilter.master_ensemble", "integrate_master", "master_ensemble.integrate_master"),
    ("photonfilter.cli", "analytic_mean_photon_series", "master_ensemble.analytic_mean_photon_series"),
    ("photonfilter.master_ensemble", "analytic_mean_photon_series", "master_ensemble.analytic_mean_photon_series"),
    ("photonfilter.sde_engine", "run_block", "sde_engine.run_block"),
    ("photonfilter.sde_engine", "_fold", "sde_engine._fold"),
    ("photonfilter.sde_engine", "_chunk_noise", "sde_engine._chunk_noise"),
    ("photonfilter.sde_engine", "_accumulate", "sde_engine._accumulate"),
    ("photonfilter.sde_engine", "_accumulate_generic", "sde_engine._accumulate_generic"),
    ("photonfilter.filter_moments", "drift_matrix", "filter_moments.drift_matrix"),
    ("photonfilter.filter_moments", "diffusion_matrix", "filter_moments.diffusion_matrix"),
    ("photonfilter.filter_moments", "jump_gain_matrix", "filter_moments.jump_gain_matrix"),
    ("photonfilter.filter_moments", "k_row", "filter_moments.k_row"),
    ("photonfilter.filter_generic", "homodyne_step", "filter_generic.homodyne_step"),
    ("photonfilter.filter_generic", "photocount_step", "filter_generic.photocount_step"),
    ("photonfilter.filter_generic", "nu_t", "filter_generic.nu_t"),
    ("photonfilter.wavepacket", "xi", "wavepacket.xi"),
]

COEFF_SPANS = (
    "filter_moments.drift_matrix",
    "filter_moments.diffusion_matrix",
    "filter_moments.jump_gain_matrix",
    "filter_moments.k_row",
)

# Per-layer metric -> the spans whose self times (SELF_S) or calls (CALLS)
# it sums.  All *_s metrics are self times, so they never count a second
# time what a nested span already counted.
SELF_S = {
    "sde_engine.accumulate_s": ("sde_engine._accumulate",),
    "sde_engine.accumulate_generic_s": ("sde_engine._accumulate_generic",),
    "sde_engine.noise_s": ("sde_engine._chunk_noise",),
    "sde_engine.fold_s": ("sde_engine._fold",),
    "filter_moments.coeff_s": COEFF_SPANS,
    "filter_generic.step_s": ("filter_generic.homodyne_step",
                              "filter_generic.photocount_step", "filter_generic.nu_t"),
    "master_ensemble.integrate_master_self_s": ("master_ensemble.integrate_master",),
    "master_ensemble.oracle_s": ("master_ensemble.analytic_mean_photon_series",),
    "master_ensemble.run_ensemble_s": ("master_ensemble.run_ensemble",),
    "wavepacket.xi_s": ("wavepacket.xi",),
    "cli.write_s": ("cli.write_series",),
}
CALLS = {
    "filter_moments.coeff_calls": COEFF_SPANS,
    "wavepacket.xi_calls": ("wavepacket.xi",),
}
# Metrics computed from run_block's self time and its counts.
BLOCK_METRICS = (
    "sde_engine.step_self_us",
    "sde_engine.step_self_ns_per_traj",
    "sde_engine.blocks",
    "sde_engine.traj_steps",
    "sde_engine.jumps",
    "sde_engine.post_jump_step_share",
)
# Every per-layer metric -> its spans.  A metric whose spans were all
# missing when the wrappers were installed is reported absent.
SOURCES = {
    **SELF_S,
    **CALLS,
    **dict.fromkeys(BLOCK_METRICS, ("sde_engine.run_block",)),
    "cli.write_bytes": ("cli.write_series",),
}


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        self.uncounted: set[str] = set()
        self.clear()

    def clear(self) -> None:
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._open: list[int] = []
        self.counts = dict.fromkeys(
            ("blocks", "traj_steps", "block_steps", "jumps", "post_jump_steps",
             "write_bytes"), 0)

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        on_return = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self._start)
            self._name.append(nid)
            self._parent.append(self._open[-1] if self._open else -1)
            self._end.append(0)
            self._open.append(idx)
            self._start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[idx] = clock()
                self._open.pop()
            if on_return is not None:
                try:
                    on_return(self.counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    # The function's signature or result changed shape.
                    self.uncounted.add(name)
            return result

        return traced

    def install(self) -> None:
        found = set()
        for mod_name, attr, span in WRAPS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            found.add(span)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(span, fn))
        self.missing = {span for _, _, span in WRAPS} - found

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def reduce(self) -> dict[str, dict]:
        """Per span name: calls, self seconds and inclusive seconds."""
        n_names = len(self.names)
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = (np.frombuffer(self._end, dtype=np.int64)
               - np.frombuffer(self._start, dtype=np.int64)).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_ns = np.bincount(name, weights=dur - child, minlength=n_names)
        incl_ns = np.bincount(name, weights=dur, minlength=n_names)
        calls = np.bincount(name, minlength=n_names)
        out = {
            self.names[i]: {"calls": int(calls[i]), "self_s": self_ns[i] * 1e-9,
                            "incl_s": incl_ns[i] * 1e-9}
            for i in range(n_names) if calls[i]
        }
        out["(roots)"] = {"calls": int((~nested).sum()),
                          "incl_s": float(dur[~nested].sum()) * 1e-9}
        return out


def _bound(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_block(counts, args, kwargs, stats) -> None:
    cfg = _bound(args, kwargs, 0, "cfg")
    m = len(_bound(args, kwargs, 3, "seed_seqs"))
    steps = int(round(cfg.t_end / cfg.dt))
    counts["blocks"] += 1
    counts["block_steps"] += steps
    counts["traj_steps"] += m * steps
    # A counted trajectory keeps being stepped after its collapse; those
    # steps are the waste that first-passage sampling would remove.
    for times in getattr(stats, "jump_times", ()):
        counts["jumps"] += len(times)
        if times:
            counts["post_jump_steps"] += int(round((cfg.t_end - times[0]) / cfg.dt))


def _count_write(counts, args, kwargs, _result) -> None:
    counts["write_bytes"] += os.path.getsize(_bound(args, kwargs, 0, "path"))


COUNTERS = {
    "sde_engine.run_block": _count_block,
    "cli.write_series": _count_write,
}


def layer_metrics(spans: dict[str, dict], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""

    def total(key, names):
        return sum(spans[n][key] for n in names if n in spans)

    out = {metric: total("self_s", names) for metric, names in SELF_S.items()}
    out.update({metric: total("calls", names) for metric, names in CALLS.items()})
    step_self = total("self_s", ("sde_engine.run_block",))
    traj_steps = counts["traj_steps"]
    out.update({
        "sde_engine.step_self_us": step_self / max(counts["block_steps"], 1) * 1e6,
        "sde_engine.step_self_ns_per_traj": step_self / max(traj_steps, 1) * 1e9,
        "sde_engine.blocks": counts["blocks"],
        "sde_engine.traj_steps": traj_steps,
        "sde_engine.jumps": counts["jumps"],
        "sde_engine.post_jump_step_share": counts["post_jump_steps"] / max(traj_steps, 1),
        "cli.write_bytes": counts["write_bytes"],
    })
    return out


def absent_metrics(missing: set[str]) -> list[str]:
    """Metrics none of whose spans could be wrapped (the name is gone)."""
    return sorted(m for m, spans in SOURCES.items() if set(spans) <= missing)
