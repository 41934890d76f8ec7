"""Benchmark of photonfilter's headline commands, end to end and per layer.

Usage (from the repository root):

    python3 benchmarks/run.py --workload ensemble-homodyne --seed 1 --seconds 20 --trace 0

Each workload is a fixed sequence of CLI commands, run in this process
through ``photonfilter.cli.main`` with ``--workers 1`` and one BLAS thread;
``--seed`` is passed to every command.  The sequence (a pass) repeats until
``--seconds`` have elapsed, and every pass has its CSV outputs checked
(``checks.py``).  A pass fails if a command exits non-zero or raises, or if
an output check fails.

``--trace 0`` reports the end-to-end metrics: the wall time of a pass, the
median time a fresh interpreter takes to import the CLI (SETUP_RUNS child
processes importing nothing else, started between passes), and the peak
resident memory of this process.  ``wall_s`` is the mean pass of the run,
its total pass time over its passes.  On a shared 2-core Xeon host the
slowest pass of a run took a median 34% (at most 100%) longer than its
fastest, and the host's speed drifted by up to 40% within an hour.  Over
sixteen sets of ten seeds (four per workload), the quartile spread of the
run mean across seeds averaged 0.11 of its median and reached 0.17, against
0.14 and 0.28 for the run's median pass and 0.15 and 0.24 for its fastest
pass.  The fastest, median, quartiles and every sample are in the report.

``--trace 1`` reports the per-layer metrics: passes alternate between
untraced and traced, the traced ones wrapping the package's functions from
outside (``layers.py``).  The metrics come from the fastest traced pass, so
its self times add up to that pass's wall time; ``trace.overhead_frac``
compares the fastest traced with the fastest untraced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with the machine, sample counts, quartiles, the layer split
and the reason each workload exists.  A traced run also writes its report to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread.  The 16 x m and stacked 3 x 3 products are too small to
# split: on a 2-core host, passes ran 10-20% faster than with OpenBLAS's
# default of two threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Headline rates.  Every workload spans the matched-pulse peak at t = 23,
# and the moment-engine ensembles have at least two full 500-trajectory
# blocks.  The grids are the coarsest on which the output checks hold for
# every seed tried (10-20 each): at dt = 1e-2 the homodyne ensemble mean lags
# the master equation for ~0.7 time units after t0, and 1 seed in 10 fell
# below the 95% 4-stderr coverage.
HEADLINE = ["--kappa", "0.1", "--gamma", "0.1", "--delta", "0", "--t0", "3"]

# workload -> [(CLI arguments, output check)]; --seed and --out are added.
WORKLOADS = {
    "ensemble-homodyne": [
        (["ensemble", "--detector", "homodyne", "--ntraj", "1000", "--tend", "23",
          "--dt", "5e-3", "--workers", "1"], "ensemble"),
    ],
    "ensemble-photocount": [
        # By t_end = 53 ~83% of the trajectories have counted their photon.
        # Three blocks: at M = 1000 sup|mean - ME| reached 0.039 of the 0.05
        # bound (2.7 standard errors) in 15 seeds.
        (["ensemble", "--detector", "photocount", "--ntraj", "1500", "--tend", "53",
          "--dt", "2e-2", "--workers", "1"], "ensemble"),
    ],
    "me-trajectory": [
        (["me", "--tend", "53", "--dt", "1e-2"], "me"),
        (["trajectory", "--detector", "homodyne", "--tend", "53", "--dt", "1e-2"], None),
        (["trajectory", "--detector", "photocount", "--tend", "53", "--dt", "1e-2"],
         "photocount-trajectory"),
    ],
    "generic-d3": [
        # One block of 200: with 100, sup|mean - ME| reached 0.043 of the
        # 0.05 bound in 12 seeds.
        (["ensemble", "--engine", "generic", "--dim", "3", "--detector", "homodyne",
          "--ntraj", "200", "--tend", "23", "--dt", "2e-2", "--workers", "1"], "ensemble"),
    ],
}

# Set-up probes per run, and the per-layer metric of each module that the
# split probe times on its own when the CLI loads it.
SETUP_RUNS = 7
SETUP_SPLIT = {"numpy": "setup.import_numpy_s", "scipy.integrate": "setup.import_scipy_s"}


def _summary(values: list[float]) -> dict:
    """Sample count, mean, fastest, median, quartiles and every sample."""
    if not values:
        return {"samples": 0}
    return {"samples": len(values), "mean": statistics.fmean(values), "min": min(values),
            "median": statistics.median(values),
            "quartiles": statistics.quantiles(values, n=4) if len(values) > 1 else values * 3,
            "all": values}


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def peak_rss_kb() -> int:
    """Peak resident set of this process image (VmHWM), in kB.

    ru_maxrss would also count the peak of the process that started this
    one, which Linux carries over through fork and exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))


def probe(*modules: str) -> dict:
    """One fresh interpreter importing ``modules``, then the CLI, timed from its start."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *modules]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rss = proc.stdout.readline()
        loaded = proc.stdout.readline()
        if proc.wait(timeout=60) != 0 or not loaded:
            raise RuntimeError(f"set-up probe {' '.join(cmd[2:])} exited {proc.returncode}")
    return {"setup_s": ready - start, "times": [float(v) for v in first.split()],
            "rss_mb": int(rss) / 1024.0, "loaded": loaded.split()}


def split_setup(loaded: list[str]) -> dict:
    """Import time of each SETUP_SPLIT module the CLI loads (0 if it does not) and the rest."""
    times = probe(*loaded)["times"]
    split = dict.fromkeys(SETUP_SPLIT.values(), 0.0)
    for name, t in zip(loaded, times):
        split[SETUP_SPLIT[name]] = t
    split["setup.import_photonfilter_s"] = times[-1]
    return split


class Workload:
    """The command sequence of one workload, its outputs and checks."""

    def __init__(self, name: str, seed: int, workdir: str):
        from photonfilter import cli

        import checks

        self.cli = cli
        self.checks = checks
        self.commands = []
        for i, (args, check) in enumerate(WORKLOADS[name]):
            out = os.path.join(workdir, f"out{i}.csv")
            argv = [args[0], *HEADLINE, *args[1:], "--seed", str(seed), "--out", out]
            self.commands.append((argv, out, check, self._expect(argv, seed)))

    @staticmethod
    def _expect(argv, seed) -> dict:
        opts = dict(zip(argv[1::2], argv[2::2]))
        expect = {"seed": seed, "t_end": float(opts["--tend"]), "dt": float(opts["--dt"])}
        for flag, key in (("--detector", "detector"), ("--engine", "engine")):
            if flag in opts:
                expect[key] = opts[flag]
        if "--ntraj" in opts:
            expect["ntraj"] = int(opts["--ntraj"])
        return expect

    def run(self) -> float:
        """Run the commands once; return their wall time in seconds."""
        for _, out, _, _ in self.commands:
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)
        elapsed = 0.0
        for argv, _, _, _ in self.commands:
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                rc = self.cli.main(argv)
            elapsed += time.perf_counter() - start
            if rc != 0:
                raise RuntimeError(f"{' '.join(argv[:3])} exited {rc}")
        return elapsed

    def check(self) -> None:
        for _, out, check, expect in self.commands:
            cols = self.checks.read_csv(out, expect)
            if check is not None:
                self.checks.CHECKS[check](cols)


def run_passes(work: Workload, seconds: float, tracer=None):
    """Repeat passes for ``seconds``; with a tracer, alternate untraced / traced.

    A set-up probe runs before each of the first SETUP_RUNS passes and the
    rest after the last, so that the probes see more than one moment of a
    busy host; their time does not count against ``seconds``.  With a tracer
    each set-up probe is followed by a split probe.  A probe that fails
    counts as a failed pass.  Returns (attempted, failed, untraced walls,
    traced passes, set-up probes, split probes), each traced pass as (wall,
    spans, layer metrics).
    """
    import layers

    attempted = failed = probes = 0
    walls, traced, setup, split = [], [], [], []
    deadline = time.perf_counter() + seconds

    def take_probe():
        nonlocal attempted, failed, probes, deadline
        probes += 1
        start = time.perf_counter()
        try:
            setup.append(probe())
            if tracer is not None:
                split.append(split_setup(setup[-1]["loaded"]))
        except (OSError, RuntimeError, ValueError) as exc:
            print(f"set-up probe failed: {exc}", file=sys.stderr)
            attempted += 1
            failed += 1
        deadline += time.perf_counter() - start

    trace = False
    while True:
        if probes < SETUP_RUNS:
            take_probe()
        attempted += 1
        if trace:
            tracer.clear()
            tracer.install()
        try:
            wall = work.run()
        except Exception as exc:  # a failing pass is counted, not fatal
            print(f"pass failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            wall = None
        finally:
            if trace:
                tracer.uninstall()
        if wall is not None:
            try:
                work.check()
            except Exception as exc:  # a wrong output is counted, not fatal
                print(f"output check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed += 1
            if trace:
                spans = tracer.reduce()
                # Time inside the pass but outside every cli.main span.
                spans["(glue)"] = {"calls": 1, "self_s": wall - spans.pop("(roots)")["incl_s"]}
                traced.append((wall, spans, layers.layer_metrics(spans, tracer.counts)))
            else:
                walls.append(wall)
        # With a tracer, stop only after a traced pass, so both kinds ran.
        if time.perf_counter() >= deadline and (tracer is None or trace):
            break
        trace = tracer is not None and not trace
    while probes < SETUP_RUNS:
        take_probe()
    return attempted, failed, walls, traced, setup, split


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(why))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "photonfilter" / "__init__.py").is_file():
        print(f"error: no photonfilter sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import photonfilter

    if not Path(photonfilter.__file__).resolve().is_relative_to(SRC):
        print(f"error: photonfilter imported from {photonfilter.__file__}", file=sys.stderr)
        return 2
    import layers

    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        work = Workload(args.workload, args.seed, workdir)
        tracer = layers.Tracer() if args.trace else None
        attempted, failed, walls, traced, setup, split = run_passes(work, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = peak_rss_kb() / 1024.0
    report = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "commands": [" ".join(argv[:-2]) for argv, _, _, _ in work.commands],
        "machine": machine(),
        "passes": {"attempted": attempted, "failed": failed,
                   "error_rate": failed / attempted},
        "wall_s": _summary(walls),
        "setup_s": _summary([p["setup_s"] for p in setup]),
    }
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    if args.trace:
        names = [m["name"] for m in declared["per_layer"]]
        wall, spans, values = (min(traced, key=lambda p: p[0]) if traced
                               else (0.0, {}, dict.fromkeys(layers.SOURCES, 0.0)))
        for key in (*SETUP_SPLIT.values(), "setup.import_photonfilter_s"):
            values[key] = statistics.median([p[key] for p in split]) if split else 0.0
        values["setup.import_rss_mb"] = (statistics.median([p["rss_mb"] for p in setup])
                                         if setup else 0.0)
        values["trace.overhead_frac"] = wall / min(walls) - 1.0 if walls and traced else 0.0
        absent = layers.absent_metrics(tracer.missing)
        values.update(dict.fromkeys(absent, 0.0))
        report["trace"] = {
            "traced_wall_s": _summary([p[0] for p in traced]),
            "fastest_traced_wall_s": wall,
            "self_s_by_span": {k: v["self_s"] for k, v in sorted(spans.items())},
            "self_s_sum": sum(v["self_s"] for v in spans.values()),
            "calls_by_span": {k: v["calls"] for k, v in sorted(spans.items())},
            "absent": absent,
            "uncounted": sorted(tracer.uncounted),
        }
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(report, indent=1) + "\n", encoding="utf-8")
    else:
        names = [m["name"] for m in declared["end_to_end"]]
        values = {
            "wall_s": statistics.fmean(walls) if walls else 0.0,
            "setup_s": statistics.median([p["setup_s"] for p in setup]) if setup else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
