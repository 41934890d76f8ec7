"""Output checks: each command's CSV must show the physics it claims.

The bounds are those of the acceptance criteria: ensemble means within 0.05
of the master equation and inside 4 standard errors at >= 95% of the grid
points (criteria 3/4), the matched-pulse peak 4 e^-2 at t = t0 + 2/kappa
(criterion 1), the master equation on the closed-form oracle (criterion 2),
and a photon-counting trajectory that records at most one count and stays
collapsed after it.
"""

from __future__ import annotations

import json

import numpy as np

PEAK_VALUE = 4.0 * np.exp(-2.0)
PEAK_TIME = 23.0


def read_csv(path: str, expect: dict) -> dict[str, np.ndarray]:
    """Columns of a CLI CSV; its embedded config must match ``expect``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    prefix = "# config: "
    if not lines or not lines[0].startswith(prefix):
        raise AssertionError(f"{path}: no config header")
    config = json.loads(lines[0][len(prefix):])
    wrong = {k: (config.get(k), v) for k, v in expect.items() if config.get(k) != v}
    if wrong:
        raise AssertionError(f"{path}: config differs from the request: {wrong}")
    names = lines[1].split(",")
    data = np.loadtxt(lines[2:], delimiter=",", ndmin=2)
    steps = int(round(config["t_end"] / config["dt"]))
    if data.shape != (steps + 1, len(names)):
        raise AssertionError(f"{path}: shape {data.shape}, expected {(steps + 1, len(names))}")
    if not np.isfinite(data).all():
        raise AssertionError(f"{path}: non-finite values")
    return dict(zip(names, data.T))


def check_ensemble(cols) -> None:
    dev = np.abs(cols["mean_n"] - cols["me_n"])
    sup = float(dev.max())
    coverage = float(np.mean(dev <= 4.0 * cols["stderr_n"]))
    if sup > 0.05 or coverage < 0.95:
        raise AssertionError(f"ensemble: sup|mean - ME| = {sup:.4f} (<= 0.05), "
                             f"4-stderr coverage = {coverage:.2%} (>= 95%)")


def check_me(cols) -> None:
    k = int(np.argmax(cols["me_n"]))
    dv = abs(cols["me_n"][k] - PEAK_VALUE)
    dt = abs(cols["t"][k] - PEAK_TIME)
    sup = float(np.abs(cols["me_n"] - cols["analytic_n"]).max())
    if dv > 1e-3 or dt > 0.05 or sup > 1e-5:
        raise AssertionError(f"me: peak {cols['me_n'][k]:.6f} at t = {cols['t'][k]:.3f}, "
                             f"sup|ME - oracle| = {sup:.2e}")


def check_photocount_trajectory(cols) -> None:
    counts = cols["record"]
    if counts[-1] > 1 or np.any(np.diff(counts) < 0):
        raise AssertionError(f"photocount trajectory: {counts[-1]:g} counts")
    after = cols["n_cond"][counts >= 1]
    if after.size and after.max() > 1e-6:
        raise AssertionError(f"photocount trajectory: <n> = {after.max():.3e} after the count")


# A command without an entry (a homodyne trajectory) is held to what
# read_csv checks: its config and shape, and finite values.
CHECKS = {
    "ensemble": check_ensemble,
    "me": check_me,
    "photocount-trajectory": check_photocount_trajectory,
}
