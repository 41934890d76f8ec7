"""Command-line front end.

Subcommands:

  me          deterministic master-equation series (+ closed-form oracle)
  trajectory  one seeded stochastic trajectory
  ensemble    M trajectories, pointwise mean/stderr beside the exact ME <n> = |beta|^2
  verify      invariant suite; exit 0 iff every check passes

All output is data-only CSV (or JSON with --format json); plotting is left
to external tools.  Every output file embeds the fully resolved config so a
run can be reproduced from the file alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .config import SimConfig, DETECTORS, ENGINES
from .errors import PhotonFilterError
from .master_ensemble import (
    analytic_mean_photon_series,
    integrate_master,
    run_ensemble,
)
from .sde_engine import simulate_trajectory
from .verify import run_checks

_WRITE_ROWS = 1024  # CSV rows formatted at once


def _add_common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    p.add_argument("--kappa", type=float, default=0.1, help="cavity decay rate")
    p.add_argument("--gamma", type=float, default=0.1, help="wavepacket decay rate")
    p.add_argument("--delta", type=float, default=0.0, help="cavity detuning")
    p.add_argument("--t0", type=float, default=3.0, help="photon arrival time")
    p.add_argument("--tend", type=float, default=103.0, help="end of the time grid")
    p.add_argument("--dt", type=float, default=1e-3, help="integrator step")
    p.add_argument("--dim", type=int, default=2,
                   help="Fock truncation of the generic filter and the master "
                        "equation; both are the same at every --dim >= 2")
    p.add_argument("--ntraj", type=int, default=100, help="ensemble size")
    p.add_argument("--seed", type=int, default=1, help="master seed")
    p.add_argument("--engine", choices=ENGINES, default="cascade",
                   help="homodyne filter: the cascade's pure state (no Fock "
                        "truncation) or the filter compiled from (L, H) at --dim; "
                        "photon counting samples the exact closed form (cascade only)")
    p.add_argument("--detector", choices=DETECTORS, default="homodyne")
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; its subcommands share one parent's options."""
    common = _add_common(argparse.ArgumentParser(add_help=False))
    parser = argparse.ArgumentParser(
        prog="photonfilter",
        description="Photon-number estimation for a cavity driven by a single photon",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("me", "master-equation series"),
        ("trajectory", "single seeded trajectory"),
        ("ensemble", "trajectory ensemble with ME overlay"),
        ("verify", "run the invariant suite"),
    ):
        p = sub.add_parser(name, help=helptext, parents=[common])
        if name == "ensemble":
            p.add_argument("--workers", type=int, default=1,
                           help="processes for homodyne blocks; photon counting is one pass")
    return parser


def _config_from_args(args) -> SimConfig:
    return SimConfig(
        kappa=args.kappa, gamma=args.gamma, delta=args.delta, t0=args.t0,
        t_end=args.tend, dt=args.dt, fock_dim=args.dim, ntraj=args.ntraj,
        seed=args.seed, engine=args.engine, detector=args.detector,
    )


def write_series(path, columns, series, fmt="csv", config=None, seed=None) -> None:
    """Write ``series``, one sequence of values per name in ``columns`` (the
    first being the times), to ``path`` at full double precision.  The CSV
    rows are formatted ``_WRITE_ROWS`` at a time from the columns, without
    stacking the whole table."""
    series = [np.asarray(col, dtype=float) for col in series]
    if len(series) != len(columns) or any(c.ndim != 1 or c.shape != series[0].shape
                                          for c in series):
        raise ValueError(f"series of shapes {[c.shape for c in series]} do not match "
                         f"{len(columns)} columns of equal length")
    if fmt == "json":
        payload = {
            "times": series[0].tolist(),
            "series": {name: col.tolist() for name, col in zip(columns[1:], series[1:])},
            "config": config or {},
            "seed": seed,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if config is not None:
            fh.write("# config: " + json.dumps(config) + "\n")
        fh.write(",".join(columns) + "\n")
        line = ",".join(["%.17g"] * len(columns)) + "\n"
        n = len(series[0])
        block = np.empty((min(_WRITE_ROWS, n), len(columns)))
        for lo in range(0, n, _WRITE_ROWS):
            rows = block[:min(_WRITE_ROWS, n - lo)]
            for j, col in enumerate(series):
                rows[:, j] = col[lo:lo + len(rows)]
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def _write(cfg: SimConfig, args, columns, *series) -> None:
    """Write ``series`` as ``columns`` to ``--out``, if given, with the run's config."""
    if args.out:
        write_series(args.out, columns, series, fmt=args.format, config=cfg.asdict(),
                     seed=cfg.seed)


def _cmd_me(cfg: SimConfig, args) -> int:
    me = integrate_master(cfg)
    oracle = analytic_mean_photon_series(cfg, me.times)
    peak = int(np.argmax(me.values))
    sup = float(np.abs(me.values - oracle).max())
    print(
        f"me: peak <n> = {me.values[peak]:.6f} at t = {me.times[peak]:.4f}, "
        f"sup|ME - oracle| = {sup:.3e}"
    )
    _write(cfg, args, ["t", "me_n", "analytic_n"], me.times, me.values, oracle)
    return 0


def _cmd_trajectory(cfg: SimConfig, args) -> int:
    traj = simulate_trajectory(cfg)
    msg = f"trajectory: seed {cfg.seed}, final <n> = {traj.n_cond[-1]:.6f}"
    if cfg.detector == "photocount":
        msg += f", jumps at {traj.jumps}"
    print(msg)
    _write(cfg, args, ["t", "n_cond", "record"], traj.times, traj.n_cond, traj.record)
    return 0


def _cmd_ensemble(cfg: SimConfig, args) -> int:
    stats = run_ensemble(cfg, workers=getattr(args, "workers", 1))
    me = analytic_mean_photon_series(cfg, stats.times)  # the master equation's exact <n>
    sup = float(np.abs(stats.mean - me).max())
    print(f"ensemble: M = {stats.count}, seed {cfg.seed}, sup|mean - ME| = {sup:.4f}")
    _write(cfg, args, ["t", "mean_n", "stderr_n", "me_n"], stats.times, stats.mean,
           stats.stderr, me)
    return 0


def _cmd_verify(cfg: SimConfig, args) -> int:
    checks = run_checks(seed=cfg.seed)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    return 0 if all(c.passed for c in checks) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        handler = {
            "me": _cmd_me,
            "trajectory": _cmd_trajectory,
            "ensemble": _cmd_ensemble,
            "verify": _cmd_verify,
        }[args.command]
        return handler(cfg, args)
    except (PhotonFilterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
