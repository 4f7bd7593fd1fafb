"""Brownian flows and the heat semigroup on the twisted torus.

A two-dimensional Brownian path (W1, W2) with variance rate sigma2 per unit
time drives the random translation flow

    j_t(a) = act(e^{2 pi i W1_t}, e^{2 pi i W2_t}, a),

whose vacuum expectation is the heat semigroup: the coefficient a_{mn} picks
up the multiplier exp(t (-2 pi^2 sigma2 (m^2 + n^2) + 2 pi i (mu m + nu n)))
with optional drift (mu, nu).  sigma2 is always the variance per unit time
and is carried explicitly on paths and semigroup specs.

Randomness is keyed: every consumer draws from its own SFC64 stream, seeded
by SeedSequence(master seed, stream tags...), so results are reproducible and
independent of scheduling.  Bridge refinement keeps already-sampled points
and fills midpoints with the exact conditional law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .torus import TorusElement, act

MC_CHUNK = 4096


def stream_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """SFC64 generator of the stream keyed SeedSequence(seed, spawn_key=stream)."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.SFC64(ss))


# -- Brownian paths ------------------------------------------------------------------


@dataclass
class BrownianPath:
    """Uniformly sampled Brownian motion started at 0.

    values has shape (M+1, dim); sigma2 is the variance per unit time; seed
    is the master seed the increments were derived from; level counts bridge
    refinements applied since the initial sampling.  A folded path keeps only
    what the folds read in _fold (lattice._refine_path), not its refinements.
    """

    times: np.ndarray
    values: np.ndarray
    sigma2: float
    seed: int
    level: int = 0
    _fold: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.times.shape[0] != self.values.shape[0]:
            raise ValueError("times and values length mismatch")
        if self.values.shape[0] == 0 or self.values[0].any():
            raise ValueError("paths must start at W_0 = 0")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def refine(self) -> "BrownianPath":
        """Brownian-bridge midpoint refinement; existing points are kept.

        The midpoint of a bridge over a step of width h has mean the average
        of the endpoints and variance sigma2 h / 4, drawn from stream (seed, 1, level + 1).
        """
        t, v = self.times, self.values
        new_level = self.level + 1
        rng = stream_rng(self.seed, 1, new_level)
        h = np.diff(t)
        mids = (v[:-1] + v[1:]) / 2.0
        mids = mids + rng.normal(size=mids.shape) * np.sqrt(self.sigma2 * h / 4.0)[:, None]
        times = np.empty(2 * t.size - 1)
        times[::2] = t
        times[1::2] = (t[:-1] + t[1:]) / 2.0
        values = np.empty((2 * v.shape[0] - 1, v.shape[1]))
        values[::2] = v
        values[1::2] = mids
        return BrownianPath(times, values, self.sigma2, self.seed, new_level)


def sample_path(dim: int, horizon: float, dt: float, sigma2: float,
                seed: int) -> BrownianPath:
    """Forward-sampled Brownian path on the uniform grid covering [0, horizon]."""
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if horizon <= 0.0 or dt <= 0.0 or sigma2 <= 0.0:
        raise ValueError("horizon, dt and sigma2 must be positive")
    n_steps = max(1, int(math.ceil(horizon / dt - 1e-9)))
    rng = stream_rng(seed, 0)
    increments = rng.normal(size=(n_steps, dim)) * math.sqrt(sigma2 * dt)
    values = np.vstack([np.zeros((1, dim)), np.cumsum(increments, axis=0)])
    times = np.arange(n_steps + 1, dtype=float) * dt
    return BrownianPath(times, values, sigma2, seed)


# -- the flow and its expectation ----------------------------------------------------------


@dataclass(frozen=True)
class SemigroupSpec:
    """Heat semigroup parameters: variance rate sigma2 and drift (mu, nu)."""

    sigma2: float
    drift: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.sigma2 <= 0.0:
            raise ValueError("sigma2 must be positive")
        object.__setattr__(self, "drift", (float(self.drift[0]), float(self.drift[1])))


def flow_apply(a: TorusElement, path: BrownianPath, t: float) -> TorusElement:
    """The random translation flow at a sampled time of the path."""
    if t > path.horizon + 1e-9:
        raise ValueError("t lies beyond the path horizon")
    idx = int(round(t / path.dt)) if path.dt > 0 else 0
    idx = min(max(idx, 0), path.times.size - 1)
    if abs(path.times[idx] - t) > 1e-9:
        raise ValueError("t is not a sampled time of the path")
    w = path.values[idx]
    w1 = float(w[0])
    w2 = float(w[1]) if path.dim > 1 else 0.0
    x = complex(math.cos(2 * math.pi * w1), math.sin(2 * math.pi * w1))
    y = complex(math.cos(2 * math.pi * w2), math.sin(2 * math.pi * w2))
    return act(x, y, a)


def heat_multiplier(m: int, n: int, t: float, spec: SemigroupSpec) -> complex:
    mu, nu = spec.drift
    exponent = t * (-2.0 * math.pi ** 2 * spec.sigma2 * (m * m + n * n)
                    + 2j * math.pi * (mu * m + nu * n))
    return complex(np.exp(exponent))


def heat_semigroup_exact(a: TorusElement, t: float, spec: SemigroupSpec) -> TorusElement:
    """Coefficientwise heat multipliers: the vacuum expectation of the flow."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    out = {key: c * heat_multiplier(key[0], key[1], t, spec)
           for key, c in a.coeffs.items()}
    return TorusElement(a.context, out)


@dataclass
class McCoefficient:
    m: int
    n: int
    mean: complex
    # Combined standard error sqrt(Var(Re) + Var(Im)) / sqrt(n).
    stderr: float


@dataclass
class McReport:
    coefficients: list[McCoefficient]

    def coefficient(self, m: int, n: int) -> McCoefficient:
        for c in self.coefficients:
            if (c.m, c.n) == (m, n):
                return c
        raise KeyError((m, n))


def vacuum_expectation_mc(a: TorusElement, t: float, spec: SemigroupSpec,
                          n_paths: int, seed: int) -> tuple[TorusElement, McReport]:
    """Monte Carlo average of the flow at time t over independent paths.

    At a fixed time the flow depends on each path only through its endpoint
    W_t, so the estimator samples terminal values directly: W_t is Gaussian
    with mean drift * t and variance sigma2 * t per component.  Draws come in
    fixed 4096-path chunks, one stream (seed, 2, chunk) per chunk, so the
    result is reproducible for a given (seed, n_paths).
    """
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    keys = sorted(a.coeffs)
    mu, nu = spec.drift
    scale = math.sqrt(spec.sigma2 * t)
    sums = {key: 0.0 + 0.0j for key in keys}
    sums_sq = {key: np.zeros(2) for key in keys}
    done = 0
    chunk_index = 0
    while done < n_paths:
        size = min(MC_CHUNK, n_paths - done)
        rng = stream_rng(seed, 2, chunk_index)
        w = rng.normal(size=(size, 2)) * scale
        w[:, 0] += mu * t
        w[:, 1] += nu * t
        for (m, n) in keys:
            z = a.coeffs[(m, n)] * np.exp(2j * np.pi * (m * w[:, 0] + n * w[:, 1]))
            sums[(m, n)] += complex(np.sum(z))
            sums_sq[(m, n)] += np.array([np.sum(z.real ** 2), np.sum(z.imag ** 2)])
        done += size
        chunk_index += 1
    coeffs: dict[tuple[int, int], complex] = {}
    stats: list[McCoefficient] = []
    for key in keys:
        mean = sums[key] / n_paths
        var_re = max(sums_sq[key][0] / n_paths - mean.real ** 2, 0.0)
        var_im = max(sums_sq[key][1] / n_paths - mean.imag ** 2, 0.0)
        stderr = math.hypot(math.sqrt(var_re / n_paths), math.sqrt(var_im / n_paths))
        stats.append(McCoefficient(key[0], key[1], mean, stderr))
        coeffs[key] = mean
    element = TorusElement(a.context, coeffs)
    return element, McReport(stats)
