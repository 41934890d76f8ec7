"""A block of trajectories stepped by the einsum filter of ``filter_generic``.

The independent reference the compiled runner is compared against: it
shares with the runner only the grid and the wavepacket, and takes the noise
as given.  It counts when the step's uniform falls below nu * dt after an
Euler no-jump step; the runner draws one uniform per trajectory and inverts
the probability of no count.
"""

import numpy as np

from photonfilter import filter_generic as fg
from photonfilter import sde_engine as se
from photonfilter import wavepacket as wp


def einsum_block(cfg, detector, noise):
    """Step ``noise.shape[1]`` trajectories; returns (n series, record, jump times).

    ``noise`` (steps x m) holds Wiener increments for homodyne detection and
    uniforms for photon counting.
    """
    times = se.SimGrid(0.0, cfg.t_end, cfg.dt).times()
    xis = wp.xi(wp.Wavepacket(cfg.gamma, cfg.t0), times[:-1])
    dim = cfg.fock_dim
    model = fg.SLHModel.cavity(dim, cfg.kappa, cfg.delta)
    n_op = np.diag(np.arange(dim, dtype=np.complex128))
    m = noise.shape[1]
    vac = fg.init_filter(np.eye(dim)[0])
    state = fg.GenericFilterState(
        *(np.broadcast_to(r, (m, dim, dim)).copy()
          for r in (vac.rho11, vac.rho10, vac.rho01, vac.rho00))
    )
    series = np.empty((times.size, m))
    record = np.zeros((times.size, m))
    jumps = [[] for _ in range(m)]
    series[0] = state.pi("11", n_op).real
    for k, xi in enumerate(xis):
        if detector == "homodyne":
            state, record[k + 1] = fg.homodyne_step(state, model, xi, cfg.dt, noise[k])
        else:
            nu = np.asarray(fg.nu_t(state, model, xi, cfg.dt))
            jump = (nu >= fg._NU_EPS) & (noise[k] < nu * cfg.dt)
            state = fg.photocount_step(state, model, xi, cfg.dt, jump)
            for j in np.nonzero(jump)[0]:
                jumps[j].append(float(times[k + 1]))
            record[k + 1] = record[k] + jump
        series[k + 1] = state.pi("11", n_op).real
    return series, record, jumps
