"""Exit times of the Brownian flow through shrinking projection plateaus.

For an irrational angle theta the continued-fraction denominators k_n give
angles v_n = ||k_n theta|| (distance to the nearest integer) tending to zero.
The family is that of theta's binary value, computed exactly, to the levels
that value determines: those every real rounding to the same double shares.
At level n the trapezoid projection with effective angle v_n and
eps_n = v_n / 2 has plateau [v_n/2, v_n); the state angle x_n = 3 v_n / 4
sits at its centre, a distance v_n / 4 from both edges.  The flow translates
the plateau by the first Brownian component, so the state survives exactly
while the running translate keeps x_n inside: a first-exit problem for W from
[-v_n/4, v_n/4], with closed-form mean a^2 / sigma^2 at half-width a.

The paths are stepped at STEPS_PER_MEAN_EXIT = 16 steps per mean exit time
(at least 8 keep the mid-step estimators and the one-edge bridge kill valid).
A step that ends inside the interval still kills the path with the
Brownian-bridge probability of having crossed an edge between its two grid
points (Baldi 1995; Gobet 2000), so the exit step has the law of the
continuous-time exit and the coarse grid leaves no monitoring bias.  The
mid-step exit placement and the operator trapezoid err per path by O(dt^2),
about (pi^2/8)/12/16^2 ~ 0.04% of gamma; the mean errs by only -9.8e-7 =
(m - 1/2)/16 - 1, m = 16.4999843 the chain's exact mean step (tests/oracles.py).

In units of a every level is one killed walk, from 0 out of [-1, 1] in steps
of sd 1/4, so the sweep measures one constant, E[exit step] / 16, six times:
gamma_n = (E[exit step] - 1/2) / 16 * a_n^2 / sigma^2 is a power law in v by
construction, and the fitted c2 is noise about 0.  The stepping loop runs in
buffers allocated once per level; each chunk of ENGINE_CHUNK paths draws from
its own stream, keyed by (seed, 3, 0, level, chunk), so no two seeds, levels
or chunks share draws.

One sampler runs each level once and applies two survival rules to every
step of the same paths, as separate computations:

* reduced: the current value of W lies in the interval;
* operator: the running interval-set state [eps - min W, theta_e - max W]
  still contains the state angle.

min(a, b) >= c is float-identical to (a >= c) & (b >= c) and both rules
apply the same bridge kill, so correct rules give equal exit steps on every
path.  The sampler records each rule's exits, and a difference is reported
with the first step at which it occurs.  Two estimators of gamma_n read them:

* reduced: gamma = mean of (exit step - 1/2) * dt, the exit placed mid-step;
* operator: trapezoid rule over the survival curve, truncated where it falls
  below SURVIVAL_TRUNCATION.  On equal exits it falls short of the reduced
  estimate by exactly the realized tail it leaves out.

The small-v asymptotics gamma ~ c1 v^{2/n0} + c2 v^{4/n0} yield an effective
dimension and mean-curvature invariant; a classical circle benchmark with
chordal radii recovers d = 2, H^2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .flow import stream_rng

DEFAULT_SIGMA2 = 2.0
# Steps of a/4, whose grid-monitoring bias (~2 * 0.5826 / 4 ~ 29%) the bridge kill removes.
# It must stay at least 8: a coarser grid samples a level too coarsely for the
# mid-step estimators and the one-edge bridge kill to hold.
STEPS_PER_MEAN_EXIT = 16
SURVIVAL_TRUNCATION = 1e-4
# Paths per stream key, and half the bound on the live paths of the stepping loop.
ENGINE_CHUNK = 4096
# A chunk that runs this many mean exit times since it joined the loop is cut off.
MAX_MEAN_EXITS = 4096


# -- continued fractions and the family -----------------------------------------------


def convergents(theta: float, count: int) -> list[int]:
    """Denominators q_1..q_count of the continued fraction of theta's binary value.

    theta stands for every real in its half-ulp rounding interval, so a
    partial quotient counts only where both ends of that interval give it;
    the levels up to the first quotient where they differ are the ones theta
    determines.  Raises ("rational theta") when it determines fewer than
    count, and for count < 1.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0,1)")
    if count < 1:
        raise ValueError("count must be at least 1")
    half_ulp = Fraction(math.ulp(theta)) / 2
    lo, hi = Fraction(theta) - half_ulp, Fraction(theta) + half_ulp
    q_mm, q_m = 0, 1
    out: list[int] = []
    while len(out) < count and lo and hi:
        lo, hi = 1 / lo, 1 / hi
        a = math.floor(lo)
        if a != math.floor(hi):
            break
        lo, hi = lo - a, hi - a
        q_mm, q_m = q_m, a * q_m + q_mm
        out.append(q_m)
    if len(out) < count:
        raise ValueError(f"rational theta: the double {theta!r} determines "
                         f"{len(out)} of the {count} continued-fraction levels asked")
    return out


def reduced_angle(k: int, theta: float) -> float:
    """||k theta||, the distance from k theta to the nearest integer, exactly on
    theta's binary value and rounded once."""
    x = k * Fraction(theta)
    return float(abs(x - round(x)))


@dataclass(frozen=True)
class ExitLevel:
    index: int
    k: int
    v: float

    @property
    def half_width(self) -> float:
        """Distance from the state angle to either plateau edge."""
        return self.v / 4.0


@dataclass(frozen=True)
class ExitFamily:
    """Shrinking family of plateau exit problems along the convergents of theta."""

    theta: float
    ks: tuple[int, ...]
    levels: tuple[ExitLevel, ...] = field(init=False)

    def __post_init__(self) -> None:
        levels = []
        for i, k in enumerate(map(int, self.ks)):
            v = reduced_angle(k, self.theta)
            if v <= 0.0:
                raise ValueError(f"angle k*theta is an integer at k={k}")
            levels.append(ExitLevel(i, k, v))
        vs = [lev.v for lev in levels]
        if any(b >= a for a, b in zip(vs, vs[1:])):
            raise ValueError("reduced angles v_n must decrease strictly")
        object.__setattr__(self, "levels", tuple(levels))

    @classmethod
    def from_convergents(cls, theta: float, count: int) -> "ExitFamily":
        return cls(theta, tuple(convergents(theta, count)))

    @classmethod
    def golden(cls, count: int = 6) -> "ExitFamily":
        return cls.from_convergents((math.sqrt(5.0) - 1.0) / 2.0, count)

    @property
    def v(self) -> list[float]:
        return [lev.v for lev in self.levels]


def exit_time_oracle_exact(a: float, sigma2: float) -> float:
    """Closed-form mean exit time of Brownian motion from [-a, a], started at 0."""
    if a <= 0.0 or sigma2 <= 0.0:
        raise ValueError("half-width and sigma2 must be positive")
    return a * a / sigma2


# -- survival rules and estimators ------------------------------------------------------------


class StepCapExceeded(RuntimeError):
    """A chunk of paths ran past MAX_MEAN_EXITS mean exit times since it joined."""


def _reduced_rule(w: np.ndarray, u: np.ndarray, p_lo: np.ndarray, p_hi: np.ndarray,
                  lo: float, hi: float) -> np.ndarray:
    """Reduced survival: W ends the step in [lo, hi] and its bridge crossed no edge."""
    return (w >= lo) & (w <= hi) & (u >= p_hi + p_lo)


def _operator_rule(run_min: np.ndarray, run_max: np.ndarray, u: np.ndarray,
                   p_lo: np.ndarray, p_hi: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Operator survival: the state [eps - min W, theta_e - max W] keeps the
    state angle, i.e. min W >= lo and max W <= hi, and no bridge crossed."""
    return (run_min >= lo) & (run_max <= hi) & (u >= p_hi + p_lo)


def _exit_steps(family: ExitFamily, index: int, n_paths: int, seed: int,
                sigma2: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Exit step of each path at one level under the reduced and the operator
    rule, and the step length dt = (a^2 / sigma2) / steps.

    Paths walk in units of the half-width a, from 0 out of [-1, 1] by
    z / sqrt(steps), at steps = STEPS_PER_MEAN_EXIT per mean exit time.
    A dt whose square overflows raises before any sampling: the stderr
    squares deviations of the order of dt, so it would overflow too.
    The chunks of ENGINE_CHUNK paths share one stepping loop: a chunk joins at
    the first step at which it fits under 2 ENGINE_CHUNK live paths, and its
    exit steps and MAX_MEAN_EXITS cap count from there.  Each step every chunk
    draws one normal, then one uniform, per live path from its stream
    stream_rng(seed, 3, 0, index, chunk), as if stepped alone.  A step from w0
    to w1 inside [-1, 1] still kills the path when its uniform falls below the
    bridge probability of crossing an edge, exp(-2 steps (1 - w0)(1 - w1)) +
    exp(-2 steps (w0 + 1)(w1 + 1)), which counts a path touching both edges in
    one step twice (negligible at sd 1/4).  An edge term is at least 1 on a
    step that ends beyond its edge, so a rule ignores an edge only if it drops
    both that edge's test and its term.  A path stops at the first step at
    which either rule fails.  Each rule's array records that step where the
    rule failed, and the next step, a lower bound on its own exit, where it
    still held; so the two arrays are equal exactly when the rules agree on
    every path.
    """
    steps = STEPS_PER_MEAN_EXIT
    dt = exit_time_oracle_exact(family.levels[index].half_width, sigma2) / steps
    if not math.isfinite(dt * dt):
        raise ValueError(f"exit step dt = {dt!r} at level {index} overflows when "
                         f"squared: sigma2 = {sigma2!r} is too small")
    scale, rate = 1.0 / math.sqrt(steps), -2.0 * steps
    out_red, out_op = np.zeros((2, n_paths), dtype=np.int64)
    # Live paths fill a prefix of each buffer in chunk order; idx, their path
    # numbers, stays sorted, so a chunk's live paths are one run of it.
    z, u, w, low, high, p_hi, p_lo = np.empty((7, min(2 * ENGINE_CHUNK, n_paths)))
    idx = np.empty(z.size, dtype=np.int64)
    active: list[tuple] = []  # (end, join step, stream, live paths) of each chunk
    n = step = chunk = 0
    while active or chunk * ENGINE_CHUNK < n_paths:
        start, stop = chunk * ENGINE_CHUNK, min((chunk + 1) * ENGINE_CHUNK, n_paths)
        if start < n_paths and n + stop - start <= 2 * ENGINE_CHUNK:
            out_red[start:stop] = out_op[start:stop] = -step  # count from the join
            active.append((stop, step, stream_rng(seed, 3, 0, index, chunk), stop - start))
            joined = slice(n, n + stop - start)
            idx[joined] = np.arange(start, stop)
            w[joined] = low[joined] = high[joined] = 0.0
            n, chunk = n + stop - start, chunk + 1
            continue
        step += 1
        if step - active[0][1] > MAX_MEAN_EXITS * steps:
            raise StepCapExceeded("exit-time simulation exceeded the step cap")
        at = 0
        for _, _, rng, k in active:
            rng.standard_normal(out=z[at:at + k])
            rng.random(out=u[at:at + k])
            at += k
        w0, w1, un, lo, hi, ph, pl = w[:n], z[:n], u[:n], low[:n], high[:n], p_hi[:n], p_lo[:n]
        w1 *= scale
        w1 += w0
        np.subtract(1.0, w0, out=ph)
        ph *= np.subtract(1.0, w1, out=pl)
        ph *= rate
        np.exp(ph, out=ph)
        np.add(w0, 1.0, out=pl)
        pl *= np.add(w1, 1.0, out=w0)  # the old position is spent
        pl *= rate
        np.exp(pl, out=pl)
        z, w = w, z
        np.minimum(lo, w1, out=lo)
        np.maximum(hi, w1, out=hi)
        red = _reduced_rule(w1, un, pl, ph, -1.0, 1.0)
        op = _operator_rule(lo, hi, un, pl, ph, -1.0, 1.0)
        live = red & op
        if not live.all():
            dead = ~live
            gone = idx[:n][dead]
            out_red[gone] += step + red[dead]
            out_op[gone] += step + op[dead]
            n -= gone.size
            for buf in (w, low, high, idx):  # compact the live prefix
                buf[:n] = buf[:live.size][live]
            ends = [n] if len(active) == 1 else np.searchsorted(
                idx[:n], [end for end, *_ in active]).tolist()
            active = [(*e[:3], b - a) for e, a, b in zip(active, [0, *ends], ends) if b > a]
    return out_red, out_op, dt


@dataclass
class GammaEstimate:
    gamma: float
    stderr: float
    n_paths: int
    dt: float
    # Realized tail dt * (mean((e - J)+) - s_end / 2) that the operator's
    # truncated survival integral leaves out at horizon J; 0 for reduced.
    tail: float
    mean_steps: float
    # The level's comparison of both rules on the paths this estimate came
    # from; set on the estimates gamma_estimate returns.
    survival: Optional["SurvivalComparison"] = None


def _quantile_floor(values: np.ndarray, q: float) -> int:
    """int(np.quantile(values, q)) of an integer array: numpy's linear rule, in
    its float operations, on the two order statistics around h = (n - 1) q."""
    h = (values.size - 1) * q
    i, j = (min(k, values.size - 1) for k in (math.floor(h), math.floor(h) + 1))
    lo, hi = map(int, np.partition(values, (i, j))[[i, j]])
    t = h - i
    return int(hi - (hi - lo) * (1 - t) if t >= 0.5 else lo + (hi - lo) * t)


def _gamma_from_exits(exits: np.ndarray, engine: str, dt: float) -> GammaEstimate:
    """Mean exit time estimate from the exit steps of one level's paths.

    Both estimators place an exit half a step before the grid point that
    recorded it, where the bridge-corrected exit time falls on average.
    """
    n_paths = exits.size
    if engine == "reduced":
        taus = (exits - 0.5) * dt
        gamma = float(np.mean(taus))
        stderr = float(np.std(taus, ddof=1) / math.sqrt(n_paths))
        tail = 0.0
    else:
        # Survival-curve quadrature with a truncated tail.  S(t_j) is the
        # fraction with exit step > j; the left-rectangle sum telescopes to
        # mean(min(e, J)) * dt, and the trapezoid correction subtracts the
        # half-cells at both ends.  The reduced estimate of the same exits
        # exceeds this one by exactly the tail.
        horizon = max(_quantile_floor(exits, 1.0 - SURVIVAL_TRUNCATION), 1)
        capped = np.minimum(exits, horizon)
        s_end = float(np.mean(exits > horizon))
        rect = float(np.mean(capped)) * dt
        gamma = rect - dt * (1.0 - s_end) / 2.0
        stderr = float(np.std(capped.astype(float) * dt, ddof=1) / math.sqrt(n_paths))
        tail = dt * (float(np.mean(exits - capped)) - s_end / 2.0)
    return GammaEstimate(gamma=gamma, stderr=stderr, n_paths=n_paths, dt=dt, tail=tail,
                         mean_steps=float(np.mean(exits)))


@dataclass
class SurvivalComparison:
    indicators_equal: bool
    # At most 1: a path stops at the first step at which either rule fails.
    max_step_difference: int
    # First step at which the two rules' exits differ; None when they agree.
    first_disagreement: Optional[int]
    reduced: GammaEstimate
    operator: GammaEstimate


def _compare_rules(family: ExitFamily, index: int, n_paths: int, seed: int,
                   sigma2: float) -> SurvivalComparison:
    """Samples one level once; both estimators read the exits of their own rule.

    Per-path survival indicators are determined by the exit step, so exact
    equality of the exit steps is exact equality of the indicator processes.
    """
    e_red, e_op, dt = _exit_steps(family, index, n_paths, seed, sigma2)
    differ = e_red != e_op
    # A path whose rules disagree stopped at the step where one failed.
    first = int(np.minimum(e_red, e_op)[differ].min()) if differ.any() else None
    return SurvivalComparison(
        indicators_equal=first is None,
        max_step_difference=int(np.abs(e_red - e_op).max(initial=0)),
        first_disagreement=first,
        reduced=_gamma_from_exits(e_red, "reduced", dt),
        operator=_gamma_from_exits(e_op, "operator", dt))


def gamma_estimate(family: ExitFamily, index: int, engine: str = "reduced",
                   n_paths: int = 10_000, seed: int = 0,
                   sigma2: float = DEFAULT_SIGMA2) -> GammaEstimate:
    """Monte Carlo mean exit time gamma_n for one family level, at 16 steps per
    mean exit time (STEPS_PER_MEAN_EXIT), survival truncated at 1e-4.

    `engine` picks the estimator; the estimate's `survival` holds both
    estimators and the pathwise verdict of the same simulation.
    """
    if engine not in ("reduced", "operator"):
        raise ValueError("engine must be 'reduced' or 'operator'")
    comparison = _compare_rules(family, index, n_paths, seed, sigma2)
    return replace(getattr(comparison, engine), survival=comparison)


def run_survival_comparison(family: ExitFamily, index: int, n_paths: int = 2000,
                            seed: int = 0) -> SurvivalComparison:
    """Both rules on one simulation of a level, compared path by path, at
    sigma2 = 2, 16 steps per mean exit time and survival truncated at 1e-4."""
    return _compare_rules(family, index, n_paths, seed, DEFAULT_SIGMA2)


# -- asymptotics ------------------------------------------------------------------------------


class NoAsymptoticDetected(ValueError):
    """The estimates follow no power law gamma ~ c1 v^{2/n0} with n0 in 1..6."""


@dataclass
class AsymptoticsFit:
    slope: float
    n0: int
    c1: float
    c2: float
    # Weighted-least-squares standard errors of c1 and c2; None unless every
    # pair carries a positive stderr.
    c1_stderr: Optional[float]
    c2_stderr: Optional[float]

    @property
    def c2_resolved(self) -> bool:
        """False when c2 lies within two standard errors of zero."""
        return self.c2_stderr is None or abs(self.c2) >= 2.0 * self.c2_stderr


def fit_asymptotics(pairs: Sequence[tuple[float, float, float]]) -> AsymptoticsFit:
    """Fits gamma ~ c1 v^{2/n0} + c2 v^{4/n0} to (v, gamma, stderr) pairs.

    The log-log slope picks the order n0 in 1..6 with 2/n0 nearest the slope;
    a residual above 0.25 means no clean power law: "no asymptotic detected".
    Weighted least squares uses 1/stderr^2 when standard errors are provided
    (zero or missing stderr falls back to unit weight, and a gamma or stderr
    that is not finite raises); when all are given, the coefficient
    covariance (X^T W X)^{-1} yields the stderrs of c1 and c2.
    The two-column system is solved by one Gram-Schmidt QR of the weighted
    design, in elementwise arithmetic (no BLAS or LAPACK call): the
    coefficients are R^{-1} Q^T b, and (X^T W X)^{-1} = R^{-1} R^{-T}.
    """
    pairs = [(float(v), float(g), float(s) if s else 0.0) for v, g, s in pairs]
    if len(pairs) < 4:
        raise ValueError("need at least 4 (v, gamma, stderr) pairs")
    vs, gs, ss = np.array(pairs).T
    if not (vs.min() > 0.0 and gs.min() > 0.0):
        raise ValueError("v and gamma must be positive")
    # An overflowed gamma or stderr would weigh its level by 0 or NaN.
    if not (np.isfinite(gs).all() and np.isfinite(ss).all()):
        raise ValueError("gamma and stderr must be finite")
    if vs.max() / vs.min() < 10.0 * (1.0 - 1e-9):
        raise ValueError("pairs must span at least a decade in v")
    # Log-log slope, weights by delta method (gamma/stderr)^2.
    x = np.log(vs)
    y = np.log(gs)
    has_err = ss > 0.0
    sd = np.where(has_err, ss, 1.0)  # unit weight without a stderr
    w = np.where(has_err, (gs / sd) ** 2, 1.0)
    xbar = np.average(x, weights=w)
    ybar = np.average(y, weights=w)
    slope = float(np.sum(w * (x - xbar) * (y - ybar)) / np.sum(w * (x - xbar) ** 2))
    n0 = min(range(1, 7), key=lambda n: abs(slope - 2.0 / n))
    if abs(slope - 2.0 / n0) > 0.25:
        raise NoAsymptoticDetected(
            f"no asymptotic detected: slope {slope:.3f} is not near 2/n0")
    # Modified Gram-Schmidt on the weighted columns [a1 a2 | b].
    a1, a2, b = (col / sd for col in (vs ** (2.0 / n0), vs ** (4.0 / n0), gs))
    r11 = math.sqrt(np.sum(a1 * a1))
    q1 = a1 / r11
    r12, b1 = float(np.sum(q1 * a2)), float(np.sum(q1 * b))
    a2 = a2 - r12 * q1
    r22 = math.sqrt(np.sum(a2 * a2))
    c2 = float(np.sum(a2 / r22 * (b - b1 * q1))) / r22
    c1 = (b1 - r12 * c2) / r11
    c1_stderr = c2_stderr = None
    if has_err.all():
        # The row norms of R^{-1} = [[1/r11, -r12/(r11 r22)], [0, 1/r22]].
        c1_stderr, c2_stderr = math.hypot(1.0, r12 / r22) / r11, 1.0 / r22
    return AsymptoticsFit(slope=slope, n0=n0, c1=c1, c2=c2, c1_stderr=c1_stderr,
                          c2_stderr=c2_stderr)


@dataclass
class InvariantReport:
    d: float
    h_squared: float
    h: float
    h_imaginary: bool
    # Delta-method standard error of d; None without a stderr of c1.
    d_stderr: Optional[float] = None


def extract_invariants(n0: int, c1: float, c2: float,
                       c1_stderr: Optional[float] = None) -> InvariantReport:
    """Effective dimension and mean-curvature invariant from fit coefficients.

    alpha_n0 = 2 Gamma(1/2)^{n0} / Gamma(n0/2);
    d = (1 / (2 c1)) (n0 / alpha)^{2/n0} + 1;
    H^2 = 8 (d + 1) c2 (alpha / n0)^{4/n0}.
    Negative H^2 (possible for noisy or vanishing c2) is flagged rather than
    silently truncated; a d or H^2 that is not finite raises.  Since d - 1 is
    proportional to 1/c1, the delta method gives stderr(d) = (d - 1) stderr(c1) / c1.
    """
    if n0 < 1 or c1 <= 0.0:
        raise ValueError("need n0 >= 1 and c1 > 0")
    alpha = 2.0 * math.gamma(0.5) ** n0 / math.gamma(n0 / 2.0)
    d = (1.0 / (2.0 * c1)) * (n0 / alpha) ** (2.0 / n0) + 1.0
    h2 = 8.0 * (d + 1.0) * c2 * (alpha / n0) ** (4.0 / n0)
    if not (math.isfinite(d) and math.isfinite(h2)):
        raise ValueError(f"d and H^2 must be finite: d = {d!r}, H^2 = {h2!r}")
    imaginary = h2 < 0.0
    h = math.sqrt(h2) if not imaginary else math.sqrt(-h2)
    d_stderr = None if c1_stderr is None else (d - 1.0) * c1_stderr / c1
    return InvariantReport(d=d, h_squared=h2, h=h, h_imaginary=imaginary, d_stderr=d_stderr)


# -- reference checks ------------------------------------------------------------------------


@dataclass
class SeriesCheck:
    c2: float
    c4: float
    reference_c2: float
    reference_c4: float
    c2_matches: bool


def paper_series_check() -> SeriesCheck:
    """Taylor coefficients of g(v) = 2 sin^2(v/8) + (2/3) sin^4(v/8).

    The coefficients are exact: sin(v/8) to degree 4 is squared in Fraction
    arithmetic.  The v^2 coefficient must equal 1/32 (asserted by callers to
    1e-8).  The v^4 coefficient is reported next to the reference value
    1/6144 without being asserted: the two quartic contributions of g cancel
    exactly, so the computed value is 0 and the discrepancy is deliberate
    to surface.
    """
    # sin(v/8) = sum over odd k of (-1)^((k-1)/2) v^k / (k! 8^k)
    s = [Fraction(k % 2 * (-1) ** (k // 2), math.factorial(k) * 8 ** k) for k in range(5)]

    def mul(p: list, q: list) -> list:
        return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(5)]

    s2 = mul(s, s)
    g = [2 * a + Fraction(2, 3) * b for a, b in zip(s2, mul(s2, s2))]
    c2, c4 = float(g[2]), float(g[4])
    ref2, ref4 = 1.0 / 32.0, 1.0 / 6144.0
    return SeriesCheck(
        c2=c2, c4=c4, reference_c2=ref2, reference_c4=ref4,
        c2_matches=abs(c2 - ref2) <= 1e-8)


@dataclass
class CircleBenchmark:
    eps: list[float]
    means: list[float]
    n0: int
    c1: float
    c2: float
    d: float
    h_squared: float


def classical_circle_benchmark() -> CircleBenchmark:
    """Exit times from chordal caps of the unit circle, extraction sanity check.

    A cap of chordal radius eps has geodesic half-width a = 2 arcsin(eps/2);
    the exact mean exit time a^2/sigma2 fitted as c1 eps^2 + c2 eps^4 must
    recover dimension d = 1 + 1/(2 c1) = 2 and H^2 = 8 (d+1) c2 = 1 for the
    unit circle at sigma2 = 2, for eight radii from 0.02 to 0.2 in geometric steps.
    """
    eps = [float(e) for e in np.geomspace(0.02, 0.2, 8)]
    means = [exit_time_oracle_exact(2.0 * math.asin(e / 2.0), DEFAULT_SIGMA2) for e in eps]
    fit = fit_asymptotics([(e, m, 0.0) for e, m in zip(eps, means)])
    d = 1.0 + 1.0 / (2.0 * fit.c1)
    h2 = 8.0 * (d + 1.0) * fit.c2
    return CircleBenchmark(eps=eps, means=means, n0=fit.n0, c1=fit.c1,
                           c2=fit.c2, d=d, h_squared=h2)


# -- report assembly -----------------------------------------------------------------------------


@dataclass
class AsymptoticsReport:
    estimates: list[GammaEstimate]
    # None, with the reason in fit_error, when the estimates show no power law.
    fit: Optional[AsymptoticsFit]
    invariants: Optional[InvariantReport]
    fit_error: Optional[str] = None


def run_exit_asymptotics(family: ExitFamily, n_paths: int = 10_000, seed: int = 0,
                         sigma2: float = DEFAULT_SIGMA2) -> AsymptoticsReport:
    """Estimates gamma over the family, fits the power law, extracts invariants.

    Each level is sampled once; its reduced estimate's `survival` holds the
    operator estimator and the pathwise verdict.  Estimates without a power
    law are a result, not an error: the report then has no fit and says why
    in fit_error.
    """
    estimates = [gamma_estimate(family, i, "reduced", n_paths, seed=seed, sigma2=sigma2)
                 for i in range(len(family.levels))]
    fit = invariants = error = None
    try:
        fit = fit_asymptotics([(v, e.gamma, e.stderr) for v, e in zip(family.v, estimates)])
        invariants = extract_invariants(fit.n0, fit.c1, fit.c2, fit.c1_stderr)
    except NoAsymptoticDetected as exc:
        error = str(exc)
    return AsymptoticsReport(estimates=estimates, fit=fit, invariants=invariants,
                             fit_error=error)
