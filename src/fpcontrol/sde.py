"""Monte Carlo simulation of the noisy dynamics, used to audit the
density solver.

Paths follow Euler-Maruyama steps of dX = F(X, U) dt + sigma(X) dW with
mirror reflection at the box walls, the pathwise counterpart of the
solver's no-flux closure. Randomness comes from a counter-based Philox
stream keyed by the seed, so ensembles are reproducible bit for bit.

The state is held component-major, shape (4, n_paths), so the drift and
the update run on contiguous rows; only entries that left the box are
reflected. One worker thread draws the next step's noise into one of two
fixed buffers while the current step advances. It is the only user of
the stream after the initial sampler, so the draws come in the same
order as from a single thread and the ensemble is unchanged.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ReflectionError
from .model import ControlSchedule, DispersionSpec, NonDimParams, State, drift

__all__ = ["PathEnsemble", "simulate_paths", "sample_gaussian_in_box", "marginal_histogram"]

_MAX_REFLECTIONS = 10


@dataclass
class PathEnsemble:
    """States of every path at the requested observation times."""

    seed: int
    times: np.ndarray            # (n_obs,)
    samples: np.ndarray          # (n_obs, n_paths, 4)
    lo: np.ndarray
    hi: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.samples.shape[1]

    def states_at(self, t_index: int) -> np.ndarray:
        return self.samples[t_index]

    def summary_rows(self):
        """Per-time mean and variance of each component."""
        rows = []
        for i, t in enumerate(self.times):
            block = self.samples[i]
            rows.append(
                [t, *block.mean(axis=0), *block.var(axis=0), self.n_paths, self.seed]
            )
        return rows


def _reflect(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, dt: float) -> None:
    """Mirror the rows of ``x`` (4, n) back into [lo, hi] in place.

    Only the entries outside the box are gathered and swept, below then
    above, until they settle; fail if they do not within the sweep limit.
    """
    outside = (x < lo[:, None]) | (x > hi[:, None])
    if not outside.any():
        return
    # One flat index in C order, the order the 2-D np.nonzero lists them
    # in, at a tenth of its cost on a wide mask.
    idx = np.flatnonzero(outside)
    row = idx // x.shape[1]
    v = np.take(x, idx)
    lo_v = lo[row]
    hi_v = hi[row]
    for _ in range(_MAX_REFLECTIONS):
        below = v < lo_v
        above = v > hi_v
        if not (below.any() or above.any()):
            np.put(x, idx, v)
            return
        v = np.where(below, 2.0 * lo_v - v, v)
        v = np.where(above, 2.0 * hi_v - v, v)
    raise ReflectionError(
        f"reflection did not settle within {_MAX_REFLECTIONS} sweeps; "
        f"the step size {dt:g} is too large for the noise level"
    )


def sample_gaussian_in_box(center, variance: float, lo, hi, n: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample a truncated isotropic Gaussian inside the box."""
    center = np.asarray(center, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    std = np.sqrt(variance)
    out = np.empty((n, center.size))
    filled = 0
    while filled < n:
        draw = center + std * rng.standard_normal((2 * (n - filled) + 16, center.size))
        keep = draw[np.all((draw >= lo) & (draw <= hi), axis=1)]
        take = min(keep.shape[0], n - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return out


def simulate_paths(
    x0,
    u: ControlSchedule | None,
    q: NonDimParams,
    n_paths: int,
    n_steps: int,
    seed: int,
    t_end: float,
    lo=(0.0, 0.0, 0.0, 0.0),
    hi=(6.0, 6.0, 6.0, 6.0),
    disp: DispersionSpec | None = None,
    observe_at: np.ndarray | None = None,
) -> PathEnsemble:
    """Run the reflected Euler-Maruyama ensemble.

    ``x0`` is either a fixed initial ``State`` or a callable
    ``rng -> (n_paths, 4)`` drawing from the initial density. Noise is
    drawn per step for all paths at once, one step ahead on a worker
    thread; the Philox stream depends only on the seed, so identical
    inputs reproduce the ensemble exactly.
    """
    if n_paths < 1 or n_steps < 1:
        raise ValueError("n_paths and n_steps must be >= 1")
    if disp is None:
        disp = DispersionSpec()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    rng = np.random.Generator(np.random.Philox(key=seed))

    if isinstance(x0, State):
        x = np.tile(x0.as_array(), (n_paths, 1))
    elif callable(x0):
        x = np.asarray(x0(rng), dtype=float)
        if x.shape != (n_paths, 4):
            raise ValueError("initial sampler must return shape (n_paths, 4)")
    else:
        x = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError("initial states must lie inside the box")

    dt = t_end / n_steps
    sqrt_dt = np.sqrt(dt)
    if observe_at is None:
        observe_at = np.array([0.0, t_end])
    observe_at = np.asarray(observe_at, dtype=float)
    obs_steps = np.rint(observe_at / dt).astype(int)
    if np.max(np.abs(obs_steps * dt - observe_at)) > 1e-9 * max(t_end, 1.0):
        raise ValueError("observation times must align with the step grid")

    samples = np.empty((observe_at.size, n_paths, 4))
    obs_lookup = {int(s): i for i, s in enumerate(obs_steps)}
    if 0 in obs_lookup:
        samples[obs_lookup[0]] = x

    x = x.T.copy()  # never steps in place on the sampler's own array
    noise = (np.empty((n_paths, 4)), np.empty((n_paths, 4)))
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = worker.submit(rng.standard_normal, out=noise[0])
        for m in range(n_steps):
            dw = pending.result()
            if m + 1 < n_steps:
                pending = worker.submit(rng.standard_normal, out=noise[(m + 1) % 2])
            t = m * dt
            if u is None:
                u_t = (0.0, 0.0)
            else:
                u_t = u.at_time(t)
            fx = drift((x[0], x[1], x[2], x[3]), u_t, q)
            for i in range(4):
                sigma = disp.sigma(np.clip(x[i], 0.0, None))
                x[i] = x[i] + fx[i] * dt + sigma * sqrt_dt * dw[:, i]
            _reflect(x, lo, hi, dt)
            if m + 1 in obs_lookup:
                samples[obs_lookup[m + 1]] = x.T

    return PathEnsemble(seed=seed, times=observe_at, samples=samples, lo=lo, hi=hi)


def marginal_histogram(ens: PathEnsemble, t_index: int, axis: int,
                       grid_axis: np.ndarray) -> np.ndarray:
    """Empirical marginal density on the bins centered at grid nodes.

    Bin edges sit halfway between nodes (half-width bins at the walls),
    so the result integrates to one under the same trapezoidal weights
    the solver uses, making L1 comparisons direct.
    """
    if ens.n_paths == 0:
        raise ValueError("empty ensemble")
    values = ens.states_at(t_index)[:, axis]
    nodes = np.asarray(grid_axis, dtype=float)
    edges = np.concatenate(([nodes[0]], 0.5 * (nodes[:-1] + nodes[1:]), [nodes[-1]]))
    counts, _ = np.histogram(values, bins=edges)
    widths = np.diff(edges)
    density = counts / (ens.n_paths * widths)
    return density
