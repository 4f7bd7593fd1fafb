"""Projection-lattice meets in the banded algebra.

Two routes to the meet p wedge q of trapezoid-projection translates:

* iterative: the alternating-product limit lim_k (pq)^{2^k}, computed by
  repeated banded squaring with a residual stopping rule, and

* closed form: under the bump-disjointness hypothesis the meet of the
  translates A_{s,t}(P) and A_{s',t'}(P) is the diagonal indicator chi_S(U)
  of the intersection S of the translated plateaus.

Interval sets (finite unions of half-open arcs [a,b) in [0,1) mod 1) carry
the closed-form side, and meet_along_path folds plateau translates along a
sampled Brownian path, refining the path until consecutive increments are
below eps/4.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .banded import (BAND_DROP_TOL, BandedElement, CircleFunction, RieffelProjectionSpec,
                     _frac, banded_mul, build_rieffel_projection, indicator_banded,
                     star_banded, supdiff, translate_action)


def _circle_dist(a: float, b: float) -> float:
    d = _frac(a - b)
    return min(d, 1.0 - d)


class DegenerateMeet(ValueError):
    """Raised when both translate parameters coincide: A wedge A = A."""


# -- interval sets ------------------------------------------------------------------


class IntervalSet:
    """Finite union of disjoint half-open arcs [a, b) in [0, 1), mod 1."""

    __slots__ = ("arcs",)

    def __init__(self, arcs: Iterable[tuple[float, float]] = (),
                 normalized: bool = False) -> None:
        if normalized:
            self.arcs = tuple(arcs)
            return
        split: list[tuple[float, float]] = []
        for a, b in arcs:
            length = b - a
            if length <= 0.0:
                continue
            if length >= 1.0:
                split.append((0.0, 1.0))
                continue
            a = _frac(a)
            if a + length <= 1.0:
                split.append((a, a + length))
            else:
                split.append((a, 1.0))
                split.append((0.0, a + length - 1.0))
        split.sort()
        merged: list[tuple[float, float]] = []
        for a, b in split:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        self.arcs = tuple(merged)

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls([(0.0, 1.0)], normalized=True)

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls((), normalized=True)

    @property
    def is_empty(self) -> bool:
        return not self.arcs

    def measure(self) -> float:
        return sum(b - a for a, b in self.arcs)

    def translate(self, c: float) -> "IntervalSet":
        return IntervalSet([(a + c, b + c) for a, b in self.arcs])

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[tuple[float, float]] = []
        for a1, b1 in self.arcs:
            for a2, b2 in other.arcs:
                lo, hi = max(a1, a2), min(b1, b2)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalSet(out, normalized=True)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(list(self.arcs) + list(other.arcs))

    def contains(self, x: float) -> bool:
        x = _frac(x)
        return any(a <= x < b for a, b in self.arcs)

    def indicator(self, n: int) -> np.ndarray:
        """Half-open indicator samples on the uniform grid j/n."""
        x = np.arange(n, dtype=float) / n
        out = np.zeros(n)
        for a, b in self.arcs:
            out[(x >= a) & (x < b)] = 1.0
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash(self.arcs)

    def __repr__(self) -> str:
        body = ", ".join(f"[{a:.6g},{b:.6g})" for a, b in self.arcs)
        return f"IntervalSet({body})"


def plateau_set(spec: RieffelProjectionSpec) -> IntervalSet:
    """The plateau arc [eps, theta_e) on which the trapezoid profile is 1."""
    return IntervalSet([(spec.epsilon, spec.effective_angle)])


# -- meet reports -----------------------------------------------------------------------


@dataclass
class MeetReport:
    result: BandedElement
    iterations: int
    final_residual: float
    converged: bool
    band_sups: dict[int, float]
    hermitian_defect: float
    # Squaring at which the residual first reached tol (None if it never did);
    # a diagnostic, left out of to_json.
    first_hit: Optional[int] = None

    def to_json(self) -> str:
        arcs = threshold_arcs(np.real(self.result.band(0).samples))
        payload = {
            "iterations": self.iterations,
            "residual": self.final_residual,
            "converged": self.converged,
            # Arcs read off the band-0 samples at level 1/2.
            "arcs": [[a, b] for a, b in arcs],
            "arcs_estimated": True,
            "band_sups": {str(k): v for k, v in sorted(self.band_sups.items())},
            "hermitian_defect": self.hermitian_defect,
        }
        return json.dumps(payload, sort_keys=True)


def threshold_arcs(samples: np.ndarray, level: float = 0.5) -> list[tuple[float, float]]:
    """Half-open arcs where samples exceed level, endpoints at grid points."""
    n = samples.shape[0]
    mask = samples > level
    if not mask.any():
        return []
    if mask.all():
        return [(0.0, 1.0)]
    arcs: list[tuple[float, float]] = []
    i = 0
    while i < n:
        if mask[i]:
            j = i
            while j < n and mask[j]:
                j += 1
            # A run wrapping past 1 stays as two pieces, matching IntervalSet form.
            arcs.append((i / n, j / n))
            i = j
        else:
            i += 1
    return arcs


# -- iterative meet -----------------------------------------------------------------------


def meet_pair_iterative(p: BandedElement, q: BandedElement, max_iter: int = 500,
                        tol: float = 1e-10, min_iter: int = 60) -> MeetReport:
    """Alternating-product meet lim (pq)^{2^k} by repeated squaring.

    Stops once the squaring residual ||r^2 - r|| falls below tol, but not
    before min_iter squarings.  A diagonal value lambda has residual
    lambda (1 - lambda), so a value within tol of 1, such as 1 - 2^-40, passes
    the residual rule at once although its limit is 0; the forced squarings
    drive it down to where the residual sees it.  Non-convergence within
    max_iter is flagged on the report, not raised.

    Bare tail: once the residual first reaches tol on a diagonal iterate,
    the forced squarings before the last can stop nothing but a divergence,
    so they run as bare band-0 multiplies checked once (_bare_squarings).
    The last goes through the checked loop: every output is that of
    squaring step by step.
    """
    r = banded_mul(p, q)
    iterations = 0
    residual = math.inf
    diverged = False
    first_hit = None
    while iterations < max_iter:
        r2, residual = _square(r)
        iterations += 1
        # Squaring a near-degenerate pair (no spectral gap, e.g. almost
        # identical translates) amplifies grid noise doubly exponentially;
        # stop at the last finite iterate and report non-convergence.
        if not math.isfinite(residual) or residual > 1e6 or \
                not all(math.isfinite(s) for s in r2.band_sups().values()):
            diverged = True
            break
        r = r2
        if residual <= tol:
            if first_hit is None:
                first_hit = iterations
                r, iterations = _bare_squarings(r, iterations,
                                                min(min_iter, max_iter) - 1)
            if iterations >= min_iter:
                break
    herm = supdiff(star_banded(r), r)
    return MeetReport(result=r, iterations=iterations, final_residual=residual,
                      converged=not diverged and residual <= tol,
                      band_sups=r.band_sups(), hermitian_defect=herm,
                      first_hit=first_hit)


def _square(r: BandedElement) -> tuple[BandedElement, float]:
    """r r and supdiff(r r, r).  A diagonal iterate, as a meet is by the
    time its residual first reaches tol, is squared on its band-0 samples:
    banded_mul's and supdiff's float ops without their per-band bookkeeping."""
    f = r.bands.get(0)
    if f is None or len(r.bands) > 1:
        r2 = banded_mul(r, r)
        return r2, supdiff(r2, r)
    f2 = f.samples * f.samples
    r2 = BandedElement(r.context, {0: CircleFunction(f2)}, r.n)
    # A dropped square leaves supdiff(0, r) = sup |f|.
    residual = float(np.abs(f2 - f.samples).max()) if r2.bands else r.band_sups()[0]
    return r2, residual


def _bare_squarings(r: BandedElement, iterations: int,
                    last: int) -> tuple[BandedElement, int]:
    """Square a diagonal r from `iterations` up to `last` squarings as bare
    band-0 multiplies, or return (r, iterations) unchanged.

    The squares g are kept only if BAND_DROP_TOL < sup |g| <= 2 (a NaN fails
    the comparison), which shows that no skipped check would have fired.
    Squaring moves each sample's modulus monotonically: one at most
    1 stays at most 1, one above 1 grows at every squaring.  So a band that
    dropped on the way would still be below BAND_DROP_TOL, and samples that
    end at modulus <= 2 never passed the 1e6 divergence bound.
    """
    f = r.bands.get(0)
    if f is None or len(r.bands) > 1 or last <= iterations:
        return r, iterations
    g = f.samples
    # A diverging tail overflows here; it is thrown away, so stay quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(last - iterations):
            g = g * g
        sup = float(np.abs(g).max())
    if not BAND_DROP_TOL < sup <= 2.0:
        return r, iterations
    return BandedElement(r.context, {0: CircleFunction(g)}, r.n), last


# -- closed-form meet ------------------------------------------------------------------------


def meet_closed_form(spec: RieffelProjectionSpec, s: float, t: float,
                     s2: float, t2: float) -> IntervalSet:
    """Meet of the translates A_{s,t}(P) and A_{s',t'}(P) as an arc set.

    Hypotheses checked: the translate parameters are distinct (else the meet
    is the projection itself, raised as DegenerateMeet), |s - s'| < eps/4 on
    the circle, and the bump supports of the two factors are disjoint mod 1
    (translate gap theta_e + s - s' at circle distance >= eps from 0); the
    latter can fail for eps above (4/5) min(theta_e, 1 - theta_e) even with
    |s - s'| < eps/4.
    """
    if s == s2 and t == t2:
        raise DegenerateMeet(
            "degenerate meet: identical translates (A wedge A = A); "
            "the meet is the projection itself")
    eps = spec.epsilon
    theta_e = spec.effective_angle
    if _circle_dist(s, s2) >= eps / 4.0:
        raise ValueError("CHI hypothesis violated: |s - s'| must be below eps/4")
    gap = _frac(theta_e + s - s2)
    if not (eps <= gap <= 1.0 - eps):
        raise ValueError(
            "CHI hypothesis violated: bump supports overlap mod 1 "
            "(epsilon too large for this angle)")
    plat = plateau_set(spec)
    return plat.translate(-s).intersect(plat.translate(-s2))


def compare_iterative_to_closed_form(spec: RieffelProjectionSpec, s: float, t: float,
                                     s2: float, t2: float, n: int = 2048,
                                     max_iter: int = 500, tol: float = 1e-10
                                     ) -> tuple[float, MeetReport, IntervalSet]:
    """Sup-difference between the iterated meet and chi_S(U) on the grid."""
    p = build_rieffel_projection(spec, n)
    # The closed form checks the meet hypotheses, before any squaring.
    arcs = meet_closed_form(spec, s, t, s2, t2)
    a = translate_action(p, s, t)
    b = translate_action(p, s2, t2)
    report = meet_pair_iterative(a, b, max_iter=max_iter, tol=tol)
    target = indicator_banded(a.context, arcs.arcs, n)
    return supdiff(report.result, target), report, arcs


# -- path meets ----------------------------------------------------------------------------------


@dataclass
class PathMeetResult:
    intervals: IntervalSet
    survived: Optional[bool]
    levels_used: int
    max_increment: float
    n_points: int


def meet_along_path(spec: RieffelProjectionSpec, path, levels: int = 24,
                    state_angle: Optional[float] = None) -> PathMeetResult:
    """Fold of plateau translates along a sampled Brownian path.

    The set is the intersection over samples s_i of the translated plateau
    [eps, theta_e) - W(s_i), where W is the first path component.  The path
    is bridge-refined until consecutive increments fall below eps/4; if
    `levels` refinements do not get there, raises "path too rough for eps".

    When state_angle is given, `survived` reports whether that angle lies in
    the final intersection.
    """
    eps = spec.epsilon
    levels_used = 0
    w = _first_component(path)
    while w.size > 1 and float(np.max(np.abs(np.diff(w)))) >= eps / 4.0:
        if levels_used >= levels or not hasattr(path, "refine"):
            raise ValueError("path too rough for eps: refine below eps/4 failed")
        path = path.refine()
        levels_used += 1
        w = _first_component(path)
    plat = plateau_set(spec)
    out = IntervalSet.full()
    for wi in w:
        out = out.intersect(plat.translate(-float(wi)))
        if out.is_empty:
            break
    survived = out.contains(state_angle) if state_angle is not None else None
    max_inc = float(np.max(np.abs(np.diff(w)))) if w.size > 1 else 0.0
    return PathMeetResult(out, survived, levels_used, max_inc, int(w.size))


def _first_component(path) -> np.ndarray:
    values = np.asarray(getattr(path, "values", path), dtype=float)
    if values.ndim == 2:
        values = values[:, 0]
    return values


@dataclass
class OperatorPathMeet:
    result: BandedElement
    n_factors: int
    n_samples: int
    converged: bool
    levels_used: int


def meet_along_path_operator(spec: RieffelProjectionSpec, path, n: int = 512,
                             levels: int = 24, min_iter: int = 40,
                             range_quantum: Optional[float] = None
                             ) -> OperatorPathMeet:
    """Iterated operator meet of the projection translates along a path.

    The path is bridge-refined until consecutive increments fall below
    eps/4, as in `meet_along_path`.  A sample whose first component lies
    inside the running range [min W, max W] translates the plateau onto a
    superset of the current intersection, so meeting with it changes
    nothing (lattice absorption) and it is skipped.  Samples are folded
    only when they extend the range by at least `range_quantum` (default
    max(eps/16, 8/n)): a smaller extension leaves no spectral gap between
    the running meet and the new factor, and the squaring iteration then
    amplifies grid noise instead of converging.  The skipped extensions
    lag the exact sampled meet by at most one quantum per edge, which the
    off-diagonal bands do not see.
    """
    eps = spec.epsilon
    if range_quantum is None:
        range_quantum = max(eps / 16.0, 8.0 / n)
    levels_used = 0
    while path.max_increment() >= eps / 4.0:
        if levels_used >= levels or not hasattr(path, "refine"):
            raise ValueError("path too rough for eps: refine below eps/4 failed")
        path = path.refine()
        levels_used += 1
    values = np.asarray(path.values, dtype=float)
    if values.ndim != 2 or values.shape[1] != 2:
        raise ValueError("operator path meet needs a 2-component path")
    p = build_rieffel_projection(spec, n)
    r = translate_action(p, float(values[0, 0]), float(values[0, 1]))
    lo = hi = float(values[0, 0])
    n_factors = 1
    converged = True
    for i in range(1, values.shape[0]):
        w1 = float(values[i, 0])
        if lo - range_quantum <= w1 <= hi + range_quantum:
            continue
        report = meet_pair_iterative(
            r, translate_action(p, w1, float(values[i, 1])), min_iter=min_iter)
        r = report.result
        converged = converged and report.converged
        lo, hi = min(lo, w1), max(hi, w1)
        n_factors += 1
        if max(r.band_sups().values(), default=0.0) < 1e-12:
            break
    return OperatorPathMeet(result=r, n_factors=n_factors,
                            n_samples=int(values.shape[0]),
                            converged=converged, levels_used=levels_used)
