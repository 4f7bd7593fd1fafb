"""Independent oracles and output checks for the benchmark workloads.

Nothing here imports ncqbm: every expected value is computed from its
mathematical definition, so a fault in the program cannot hide in its own
check.  Each check takes plain numbers, arrays or parsed output files and
returns a list of failure messages; an empty list means the output passed.
Statistical budgets are 5 standard errors or wider, which hold at any seed.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from fractions import Fraction

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# `ncqbm exit-asymptotics` defaults.
EXIT_LEVELS = 6
EXIT_SIGMA2 = 2.0
EXIT_PATHS = 10_000
# One-sided allowance for the upward bias of exit times monitored only at
# grid points (Broadie, Glasserman & Kou 1997); the program states ~1.8%.
GRID_BIAS = 0.025
# Var(tau) = (2/3) (a^2/sigma2)^2 for the first exit of W from [-a, a].
EXIT_CV = math.sqrt(2.0 / 3.0)
Z = 5.0


# -- oracles -----------------------------------------------------------------------------


def continued_fraction_denominators(theta: float, count: int) -> list[int]:
    """q_1..q_count of theta's continued fraction, exactly on the binary value."""
    x = Fraction(theta)
    q_prev, q = 0, 1
    out = []
    for _ in range(count):
        x = 1 / x
        a = math.floor(x)
        x -= a
        q_prev, q = q, a * q + q_prev
        out.append(q)
    return out


def reduced_angle(k: int, theta: float) -> float:
    """||k theta||, the distance of k theta to the nearest integer."""
    x = k * Fraction(theta)
    return float(abs(x - round(x)))


def exit_time_mean(a: float, sigma2: float) -> float:
    """Mean first exit time of sigma*W from [-a, a] started at 0."""
    return a * a / sigma2


def heat_multiplier(m: int, n: int, t: float, sigma2: float) -> float:
    """Vacuum expectation of U^m V^n under the driftless heat semigroup."""
    return math.exp(-2.0 * math.pi ** 2 * sigma2 * t * (m * m + n * n))


def arc_indicator(a: float, b: float, n: int) -> np.ndarray:
    """Samples at j/n of the indicator of the half-open arc [a, b) mod 1."""
    x = np.arange(n) / n
    return (np.mod(x - a, 1.0) < (b - a)).astype(float)


def meet_indicator(eps: float, theta: float, s: float, s2: float, n: int) -> np.ndarray:
    """Indicator of [eps - s, theta - s) intersected with [eps - s2, theta - s2)."""
    return arc_indicator(eps - s, theta - s, n) * arc_indicator(eps - s2, theta - s2, n)


def fold_measure(eps: float, theta: float, w: np.ndarray) -> float:
    """Measure of the plateau [eps, theta) intersected over all translates -w_i.

    Consecutive translates overlap, so the intersection is one arc that
    shrinks by the range of w.
    """
    return max(0.0, (theta - eps) - float(np.max(w) - np.min(w)))


# -- exit-sweep ---------------------------------------------------------------------------


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_exit_sweep(exit_code: int, rows: list[dict], summary: dict) -> list[str]:
    """`ncqbm exit-asymptotics` at its defaults, from its CSV and JSON outputs."""
    levels = EXIT_LEVELS
    errors = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    if len(rows) != levels:
        return errors + [f"{len(rows)} levels, expected {levels}"]
    agreement = summary.get("engine_agreement") or []
    if len(agreement) != levels:
        errors.append(f"{len(agreement)} engine-agreement rows, expected {levels}")
        agreement = [None] * levels
    for row, k, agree in zip(rows, continued_fraction_denominators(GOLDEN, levels), agreement):
        n = row["n"]
        if int(row["k_n"]) != k:
            errors.append(f"level {n}: k_n {row['k_n']}, expected {k}")
        v = reduced_angle(k, GOLDEN)
        if abs(float(row["v_n"]) - v) > 1e-14:
            errors.append(f"level {n}: v_n {row['v_n']}, expected {v!r}")
        exact = exit_time_mean(v / 4.0, EXIT_SIGMA2)
        gamma, stderr = float(row["gamma_n"]), float(row["stderr"])
        # A stderr far from the distribution's own makes the window below meaningless.
        expected_se = EXIT_CV * exact / math.sqrt(EXIT_PATHS)
        if not abs(stderr / expected_se - 1.0) <= 0.2:
            errors.append(f"level {n}: stderr {stderr:.3e}, expected ~{expected_se:.3e}")
        r = stderr / exact
        ratio = gamma / exact
        if not 1.0 - Z * r <= ratio <= 1.0 + GRID_BIAS + Z * r:
            errors.append(f"level {n}: gamma / (a^2/sigma2) = {ratio:.4f} outside "
                          f"[{1 - Z * r:.4f}, {1 + GRID_BIAS + Z * r:.4f}]")
        if agree is not None:
            if agree["reduced"] != gamma:
                errors.append(f"level {n}: engine row reduced gamma differs from the CSV")
            if not abs(agree["operator"] - gamma) <= Z * math.sqrt(2.0) * stderr:
                errors.append(f"level {n}: operator gamma {agree['operator']:.6e} is more "
                              f"than {Z}*sqrt(2) stderr from {gamma:.6e}")
    slope, c1 = summary.get("slope"), summary.get("c1")
    if not (isinstance(slope, float) and 1.9 <= slope <= 2.1):
        errors.append(f"slope {slope} outside [1.9, 2.1]")
    if summary.get("n0") != 1:
        errors.append(f"n0 {summary.get('n0')}, expected 1")
    if not (isinstance(c1, float) and abs(c1 - 1.0 / 32.0) <= 0.1 / 32.0):
        errors.append(f"c1 {c1} not within 10% of 1/32")
    else:
        d_ref = 1.0 + 1.0 / (8.0 * c1)
        if not abs(summary.get("d", math.nan) - d_ref) <= 1e-12 * d_ref:
            errors.append(f"d {summary.get('d')} is not 1 + 1/(8 c1)")
    series_c2 = summary.get("series_check", {}).get("c2", math.nan)
    if not abs(series_c2 - 1.0 / 32.0) <= 1e-8:
        errors.append(f"series c2 {series_c2} differs from 1/32")
    return errors


# -- operator-meets -----------------------------------------------------------------------


def check_iterated_meet(band0: np.ndarray, off_diagonal: float, converged: bool,
                        eps: float, theta: float, s: float, s2: float) -> list[str]:
    """The iterated meet of two translates is the indicator of their plateau overlap."""
    errors = []
    if not converged:
        errors.append("iteration did not converge")
    diff = float(np.max(np.abs(band0 - meet_indicator(eps, theta, s, s2, band0.size))))
    if not diff < 1e-6:
        errors.append(f"band 0 differs from the overlap indicator by {diff:.3e}")
    if not off_diagonal < 1e-6:
        errors.append(f"off-diagonal bands reach {off_diagonal:.3e}")
    return errors


def check_path_fold(trace: float, off_diagonal: float, converged: bool,
                    eps: float, theta: float, w: np.ndarray) -> list[str]:
    """An operator path meet lies in the diagonal algebra with the fold's mass.

    The fold skips samples that extend the range by less than a quantum, so
    its trace may lag the sampled intersection; 0.06 covers that lag.
    """
    errors = []
    if not converged:
        errors.append("path meet did not converge")
    if not off_diagonal < 1e-8:
        errors.append(f"off-diagonal bands reach {off_diagonal:.3e}")
    expected = fold_measure(eps, theta, w)
    if not abs(trace - expected) <= 0.06:
        errors.append(f"trace {trace:.6f}, expected {expected:.6f} within 0.06")
    return errors


def check_interval_fold(measure: float, eps: float, theta: float, w: np.ndarray) -> list[str]:
    expected = fold_measure(eps, theta, w)
    if not abs(measure - expected) <= 1e-9:
        return [f"interval fold measure {measure!r}, expected {expected!r}"]
    return []


def check_meet_demo(exit_code: int, csv_text: str) -> list[str]:
    errors = [] if exit_code == 0 else [f"exit code {exit_code}"]
    diffs = [float(row["supdiff"]) for row in parse_csv(csv_text) if row["supdiff"]]
    if not diffs:
        errors.append("no compared rows")
    worst = max(diffs, default=math.inf)
    if not worst < 1e-6:
        errors.append(f"worst supdiff {worst:.3e}")
    return errors


# -- lab-checks ---------------------------------------------------------------------------


def check_projection(trace: complex, idempotent: float, hermitian: float,
                     theta: float) -> list[str]:
    errors = []
    frac = theta - math.floor(theta)
    if not abs(trace - frac) <= 1e-12:
        errors.append(f"trace {trace!r}, expected {{theta}} = {frac!r}")
    if not idempotent < 1e-10:
        errors.append(f"idempotent residual {idempotent:.3e}")
    if not hermitian < 1e-12:
        errors.append(f"hermitian defect {hermitian:.3e}")
    return errors


def check_heat_coefficients(coefficients: list[tuple[int, int, complex, float]],
                            t: float, sigma2: float) -> list[str]:
    """Monte Carlo coefficients (m, n, mean, stderr) against the heat multiplier."""
    errors = []
    for m, n, mean, stderr in coefficients:
        exact = heat_multiplier(m, n, t, sigma2)
        if not 0.0 < stderr < 0.05:
            errors.append(f"({m},{n}): stderr {stderr!r}")
        elif not abs(mean - exact) <= Z * stderr:
            errors.append(f"({m},{n}): {mean:.6f} is more than {Z} stderr from {exact:.6f}")
    return errors


def check_equal(name: str, got, expected) -> list[str]:
    return [] if got == expected else [f"{name}: {got!r}, expected {expected!r}"]


def check_gamma_agreement(g1: float, se1: float, g2: float, se2: float) -> list[str]:
    combined = math.hypot(se1, se2)
    if not (combined > 0.0 and abs(g1 - g2) <= Z * combined):
        return [f"gammas {g1:.6e} and {g2:.6e} differ by more than {Z} combined stderr"]
    return []


def check_invariants(d: float, h: float, h_imaginary: bool,
                     n0: int, c1: float, c2: float) -> list[str]:
    """d = 1 + (1/(2 c1)) (n0/alpha)^(2/n0), H^2 = 8 (d+1) c2 (alpha/n0)^(4/n0)."""
    alpha = 2.0 * math.pi ** (n0 / 2.0) / math.gamma(n0 / 2.0)
    d_ref = 1.0 + (n0 / alpha) ** (2.0 / n0) / (2.0 * c1)
    h2_ref = 8.0 * (d_ref + 1.0) * c2 * (alpha / n0) ** (4.0 / n0)
    errors = []
    if not abs(d - d_ref) <= 1e-12 * d_ref:
        errors.append(f"d {d!r}, expected {d_ref!r}")
    if h_imaginary or not abs(h - math.sqrt(h2_ref)) <= 1e-14:
        errors.append(f"H {h!r} (imaginary={h_imaginary}), expected {math.sqrt(h2_ref)!r}")
    return errors


def check_semigroup_law(exp_s: np.ndarray, exp_t: np.ndarray, exp_st: np.ndarray) -> list[str]:
    residual = float(np.linalg.norm(exp_s @ exp_t - exp_st, 2))
    return [] if residual < 1e-10 else [f"semigroup law residual {residual:.3e}"]


def check_group_like(value: complex, l_u: complex, t: float) -> list[str]:
    expected = cmath.exp(t * l_u)
    return [] if abs(value - expected) < 1e-12 else [f"exp({t} l) = {value}, expected {expected}"]


def check_circle(d: float, h_squared: float) -> list[str]:
    errors = []
    if not abs(d - 2.0) <= 0.05:
        errors.append(f"circle d {d!r}, expected 2")
    if not abs(h_squared - 1.0) <= 0.05:
        errors.append(f"circle H^2 {h_squared!r}, expected 1")
    return errors
