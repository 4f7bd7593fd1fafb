"""Independent oracles used by the test suite.

Everything in this module is intentionally implemented from first principles,
without importing algorithmic code from the package under test (only data
types are consumed), so that agreement is evidence rather than tautology.

Oracles provided:

* clock-and-shift matrix representation of the rational-angle twisted torus
  (q x q unitaries with U V = e^{2 pi i p/q} V U),
* Fourier synthesis of band functions from Laurent coefficients (cross-checks
  the banded crossed-product arithmetic against the coefficient arithmetic),
* alternating-product lattice meet for explicitly represented q x q matrices,
* the operator path fold's stride factors by a per-sample walk, the reference
  for the array scan in lattice._stride_factors,
* first-exit statistics of one-dimensional Brownian motion from a symmetric
  interval (closed-form mean a^2 / sigma^2 and survival series),
* a chunk-by-chunk exit-step sampler with its own survival tests, the
  reference for the exit sampler's shared stepping loop,
* the exact mean exit step of the killed walk that sampler steps, by a
  Gauss-Legendre Nystrom solve,
* Taylor coefficients by central differences with one Richardson step,
* the weighted two-coefficient power-law fit by numpy's SVD least squares
  and the inverse of the normal matrix,
* the convergent denominators every real rounding to a double theta shares,
  by a Stern-Brocot descent in exact rationals, and reduced angles on the
  binary value of theta.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# -- clock and shift -------------------------------------------------------------


def clock_shift_matrices(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """q x q unitaries with U V = e^{2 pi i p/q} V U.

    U is the clock diag(1, w, w^2, ...) with w = e^{2 pi i p / q}; V is the
    cyclic shift V e_j = e_{j+1}.  Then (U V) e_j = w^{j+1} e_{j+1} while
    (V U) e_j = w^j e_{j+1}, so U V = w V U.
    """
    omega = np.exp(2j * np.pi * p / q)
    u = np.diag(omega ** np.arange(q))
    v = np.zeros((q, q), dtype=complex)
    for j in range(q):
        v[(j + 1) % q, j] = 1.0
    return u, v


def represent(coeffs: dict[tuple[int, int], complex], p: int, q: int) -> np.ndarray:
    """Matrix image sum a_{mn} U^m V^n under the clock-and-shift representation."""
    u, v = clock_shift_matrices(p, q)
    out = np.zeros((q, q), dtype=complex)
    for (m, n), c in coeffs.items():
        out += c * (np.linalg.matrix_power(u, m % q)
                    @ np.linalg.matrix_power(v, n % q)
                    * _wrap_phase(m, n, p, q))
    return out


def _wrap_phase(m: int, n: int, p: int, q: int) -> complex:
    """Phase correction for reducing U^m to U^{m mod q} and V^n to V^{n mod q}.

    U^q = I and V^q = I in the clock-and-shift picture, and the reduction
    U^m V^n = U^{m mod q} V^{n mod q} needs no extra phase because U^q and V^q
    are central and equal to the identity.  Kept explicit for clarity.
    """
    return 1.0


def matrix_trace_normalized(mat: np.ndarray) -> complex:
    return complex(np.trace(mat)) / mat.shape[0]


# -- Fourier band synthesis -------------------------------------------------------


def synthesize_band(coeffs: dict[tuple[int, int], complex], band: int,
                    n_grid: int) -> np.ndarray:
    """Grid samples of f_band(x) = sum_m a_{m,band} e^{2 pi i m x}."""
    x = np.arange(n_grid) / n_grid
    out = np.zeros(n_grid, dtype=complex)
    for (m, n), c in coeffs.items():
        if n == band:
            out += c * np.exp(2j * np.pi * m * x)
    return out


# -- matrix lattice meet ------------------------------------------------------------


def matrix_meet(p_mat: np.ndarray, q_mat: np.ndarray, n_iter: int = 60) -> np.ndarray:
    """Alternating-product meet lim_n (PQ)^n of two orthogonal projections."""
    r = p_mat @ q_mat
    for _ in range(n_iter):
        r = r @ r
    return r


def stride_factors_walk(w: list[float], quantum: float, stride: float) -> list[int]:
    """Factor indices of the operator path fold, one sample at a time.

    The first is the first sample more than `quantum` outside W_0.  After
    it, each side of the folded range [lo, hi] keeps its pending extreme,
    the sample furthest beyond that edge since the side last folded.  It is
    folded when a later sample lies `stride` or more beyond the edge, and at
    the end of the path unless it extends the range by `quantum` or less.
    """
    lo = hi = w[0]
    factors: list[int] = []
    pending: dict[bool, int] = {}  # side (above hi?) -> its pending extreme

    def extension(k: int) -> float:
        return max(w[k] - hi, lo - w[k])

    def fold(k: int) -> None:
        nonlocal lo, hi
        factors.append(k)
        lo, hi = min(lo, w[k]), max(hi, w[k])

    for i in range(1, len(w)):
        e = extension(i)
        if not factors:
            if e > quantum:
                fold(i)
        elif e > 0.0:
            side = w[i] > hi
            j = pending.get(side, i)
            if e >= stride and extension(j) > quantum:
                fold(j)
            if extension(i) >= extension(j):
                pending[side] = i
    for j in sorted(pending.values()):
        if extension(j) > quantum:
            fold(j)
    return factors


# -- Brownian exit -------------------------------------------------------------------


def exit_time_mean_exact(a: float, sigma2: float) -> float:
    """E[tau] for B with variance rate sigma2 started at 0, exiting [-a, a]."""
    return a * a / sigma2


def exit_time_var_exact(a: float, sigma2: float) -> float:
    """Var[tau] for the same exit problem (standard BM scaling: 2 a^4 / 3)."""
    return 2.0 * a ** 4 / (3.0 * sigma2 ** 2)


def exit_time_survival_exact(t: float, a: float, sigma2: float, terms: int = 200) -> float:
    """P(tau > t) for the same exit problem, by the eigenfunction series.

    (4/pi) sum_k (-1)^k / (2k+1) exp(-(2k+1)^2 pi^2 sigma2 t / (8 a^2)); the
    default 200 terms converge to double precision for t >= 1e-3 a^2 / sigma2.
    """
    if t <= 0.0:
        return 1.0
    rate = math.pi ** 2 * sigma2 * t / (8.0 * a * a)
    total = 0.0
    for k in range(terms):
        n = 2 * k + 1
        total += (-1) ** k / n * math.exp(-n * n * rate)
    return 4.0 / math.pi * total


def exit_steps_chunkwise(lo: float, hi: float, dt: float, sigma2: float, n_paths: int,
                         chunk: int, max_steps: int, stream) -> tuple[np.ndarray, np.ndarray]:
    """Exit steps of Brownian paths from 0 out of [lo, hi], one chunk at a time.

    Chunk c holds paths c*chunk .. (c+1)*chunk - 1 and is stepped alone until
    its last path stops, drawing from the generator stream(c) one normal,
    then one uniform, per live path at each step.  A step survives when the
    uniform is at least the bridge crossing probability
    exp(-2 (hi - w0)(hi - w1) / s^2) + exp(-2 (w0 - lo)(w1 - lo) / s^2),
    s^2 = sigma2 dt, and the reduced test also needs w1 in [lo, hi], the
    operator test the running min and max of w in it.  A path stops at the
    first step at which either test fails; each test records that step where
    it failed and the next where it held.  A chunk that needs more than
    max_steps steps raises RuntimeError("step cap").
    """
    scale = math.sqrt(sigma2 * dt)
    rate = 2.0 / (scale * scale)
    red_exit = np.zeros(n_paths, dtype=np.int64)
    op_exit = np.zeros(n_paths, dtype=np.int64)
    for c, start in enumerate(range(0, n_paths, chunk)):
        rng = stream(c)
        paths = np.arange(start, min(start + chunk, n_paths))
        w = low = high = np.zeros(paths.size)
        step = 0
        while paths.size:
            step += 1
            if step > max_steps:
                raise RuntimeError("step cap")
            w1 = w + rng.normal(size=paths.size) * scale
            u = rng.random(size=paths.size)
            crossed = (np.exp(-rate * (hi - w) * (hi - w1))
                       + np.exp(-rate * (w - lo) * (w1 - lo)))
            low, high, w = np.minimum(low, w1), np.maximum(high, w1), w1
            bridge_ok = u >= crossed
            red_ok = (lo <= w) & (w <= hi) & bridge_ok
            op_ok = (lo <= low) & (high <= hi) & bridge_ok
            stop = ~(red_ok & op_ok)
            red_exit[paths[stop]] = step + red_ok[stop]
            op_exit[paths[stop]] = step + op_ok[stop]
            keep = ~stop
            paths, w, low, high = paths[keep], w[keep], low[keep], high[keep]
    return red_exit, op_exit


def killed_walk_mean_exit_step(nodes: int = 100, steps: int = 16) -> float:
    """Mean exit step m(0) of the walk on [-1, 1] from 0 with N(0, 1/steps) steps,
    killed by the bridge test: a step from x to y in [-1, 1] survives with
    probability max(0, 1 - exp(-2 steps (1 - x)(1 - y)) - exp(-2 steps (1 + x)(1 + y))),
    and every step that ends outside dies.

    m solves m = 1 + K m with K(x, y) the step density times that survival;
    the Nystrom method puts it on `nodes` Gauss-Legendre nodes, solves the
    linear system there and evaluates 1 + (K m)(0) with the same rule.
    """
    x, wts = np.polynomial.legendre.leggauss(nodes)

    def kernel(a, b):
        density = np.exp(-steps * (b - a) ** 2 / 2.0) * math.sqrt(steps / (2.0 * math.pi))
        survive = 1.0 - np.exp(-2.0 * steps * (1.0 - a) * (1.0 - b)) \
            - np.exp(-2.0 * steps * (1.0 + a) * (1.0 + b))
        return density * np.maximum(survive, 0.0) * wts

    m = np.linalg.solve(np.eye(nodes) - kernel(x[:, None], x[None, :]), np.ones(nodes))
    return float(1.0 + kernel(0.0, x) @ m)


# -- Taylor coefficients ----------------------------------------------------------------


def taylor_coeff_2(f, h: float = 1e-2) -> float:
    """Coefficient of v^2 at 0 for an even function, Richardson-extrapolated."""

    def d2(step: float) -> float:
        return (f(step) - 2.0 * f(0.0) + f(-step)) / step ** 2

    fine, coarse = d2(h / 2), d2(h)
    return (4.0 * fine - coarse) / 3.0 / 2.0


def taylor_coeff_4(f, h: float = 5e-2) -> float:
    """Coefficient of v^4 at 0 for an even function, Richardson-extrapolated."""

    def d4(step: float) -> float:
        return (f(2 * step) - 4 * f(step) + 6 * f(0.0) - 4 * f(-step)
                + f(-2 * step)) / step ** 4

    fine, coarse = d4(h / 2), d4(h)
    return (4.0 * fine - coarse) / 3.0 / math.factorial(4)


# -- weighted least squares ----------------------------------------------------------------


def weighted_power_fit(pairs, n0: int):
    """(c1, c2) of gamma ~ c1 v^{2/n0} + c2 v^{4/n0} over (v, gamma, stderr)
    pairs, weighted by 1/stderr^2 (unit weight for a zero stderr), by
    np.linalg.lstsq; with their stderrs sqrt(diag(inv(X^T W X))) when every
    stderr is positive, else None."""
    v, g, s = (np.array(col, dtype=float) for col in zip(*pairs))
    sw = 1.0 / np.where(s > 0.0, s, 1.0)
    x = np.column_stack([v ** (2.0 / n0), v ** (4.0 / n0)]) * sw[:, None]
    coef = np.linalg.lstsq(x, g * sw, rcond=None)[0]
    errs = np.sqrt(np.diag(np.linalg.inv(x.T @ x))) if (s > 0.0).all() else None
    return coef, errs


# -- continued fractions -------------------------------------------------------------------


def certified_convergents_oracle(theta: float, count: int) -> list[int]:
    """Convergent denominators q_1, q_2, ... shared by every real that rounds to theta.

    Walks the Stern-Brocot tree toward both ends of theta's half-ulp rounding
    interval at once, one mediant at a time.  Each turn of the shared path
    closes a run of moves, i.e. a partial quotient, and the bound that run
    moved is the convergent whose denominator is emitted.  The walk stops where
    the two ends part or one of them is the mediant (its expansion ends), so
    the run in progress there is never emitted.  At most count denominators.
    """
    half = Fraction(math.ulp(theta)) / 2
    lo, hi = Fraction(theta) - half, Fraction(theta) + half
    left, right = (0, 1), (1, 0)  # bounds p/q of the current subtree
    last_move = None
    out: list[int] = []
    while len(out) < count:
        mediant = (left[0] + right[0], left[1] + right[1])
        if lo <= Fraction(*mediant) <= hi:
            break
        move = "L" if hi < Fraction(*mediant) else "R"
        if last_move is not None and move != last_move:
            out.append((right if last_move == "L" else left)[1])
        last_move = move
        if move == "L":
            right = mediant
        else:
            left = mediant
    return out


def reduced_angle_oracle(k: int, theta: float) -> float:
    """||k theta|| on theta's binary value n/d: min(kn mod d, d - kn mod d) / d,
    rounded once."""
    n, d = theta.as_integer_ratio()
    r = k * n % d
    return float(Fraction(min(r, d - r), d))
