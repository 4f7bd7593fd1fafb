"""Projection-lattice meets in the banded algebra.

Two routes to the meet p wedge q of trapezoid-projection translates:

* iterative: the alternating-product limit lim_k (pq)^{2^k}, computed by
  repeated banded squaring until the squaring residual reaches
  MEET_TOL = 1e-10; each meet squares with only the band products that its
  product plan finds can be nonzero, by a squaring program built once per
  key set, and takes the exact residual only where the band sups leave it
  in doubt; and

* closed form: under the bump-disjointness hypothesis the meet of the
  translates A_{s,t}(P) and A_{s',t'}(P) is the diagonal indicator chi_S(U)
  of the intersection S of the translated plateaus.

Interval sets (finite unions of half-open arcs [a,b) in [0,1) mod 1) carry
the closed-form side.  Along a sampled Brownian path, meet_along_path folds
plateau translates and meet_along_path_operator the operator translates;
both first refine the path by one rule (_refine_path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .banded import (BAND_DROP_TOL, BandedElement, CircleFunction, RieffelProjectionSpec,
                     _frac, _shift_stencil, banded_mul, build_rieffel_projection,
                     indicator_banded, supdiff, translate_action)


# Squaring residual at which an iterated meet counts as converged.
MEET_TOL = 1e-10
# Bridge refinements a path fold may take to bring every step below eps/4.
REFINE_LEVELS = 24


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

    def contains(self, x: float) -> bool:
        x = _frac(x)
        return any(a <= x < b for a, b in self.arcs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and self.arcs == other.arcs

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
    # Squaring at which the residual first reached MEET_TOL (None if it never did).
    first_hit: Optional[int] = None


# -- iterative meet -----------------------------------------------------------------------


def meet_pair_iterative(p: BandedElement, q: BandedElement, max_iter: int = 500,
                        min_iter: int = 60) -> MeetReport:
    """Alternating-product meet lim (pq)^{2^k} by repeated squaring.

    Stops once the squaring residual ||r^2 - r|| falls below tol = MEET_TOL,
    but not before min_iter squarings.  A diagonal value lambda has residual
    lambda (1 - lambda), so a value within tol of 1, such as 1 - 2^-40, passes
    the residual rule at once although its limit is 0; the forced squarings
    drive it down to where the residual sees it.  Non-convergence within
    max_iter is flagged on the report, not raised.

    Product plan: the squarings take only the band products that
    _product_plan finds can be nonzero.  supp(f S g) lies inside
    supp f cap supp S g, a sum's support inside the union of its terms', and
    the drop rule only removes bands; so every iterate stays inside the
    plan's closed band masks, and a pair whose masks are disjoint there is
    0 times a finite value at every step.  A plan is made only for a finite
    first product, and the divergence test rejects a non-finite square
    before it becomes r, so every iterate it serves is finite.  Each key set
    that r takes gets its squaring program (_program) once per meet.

    Residual rule: the exact residual (_residual) is computed only where it
    can change a result.  From the band sups of r and r^2 over the union of
    their keys (a key on one side alone contributes its sup, as in the
    exact residual), let L = max |sup r^2_k - sup r_k| and
    U = max (sup r^2_k + sup r_k).  By the reverse triangle inequality the
    residual lies in [L, U].  If every sup is finite, U < 1e5 and
    L > 2 tol + 1e-12 U, it is above tol and below 1e6: it can set no
    first hit, stop nothing and signal no divergence, and L stands in for
    it.  Rounding moves the computed sups and residual by a few units of
    2^-53 times U, far below the 1e-12 U margin, and finite sups mean
    finite samples.  The last allowed squaring always takes the exact
    residual, and so does every other way out of the loop, so
    final_residual is exact.

    Bare tail: at the first diagonal iterate at or after the first squaring
    whose residual reaches tol, the forced squarings before the last can
    stop nothing but a divergence, so they run as bare band-0 multiplies
    checked once (_bare_squarings); this is tried once.  The last goes
    through the checked loop: every output equals in value that of squaring
    step by step with banded_mul.
    """
    tol = MEET_TOL
    first = banded_mul(p, q)
    theta = first.context.theta
    bands = {k: f.samples for k, f in first.bands.items()}
    sups = first.band_sups()
    plan = _product_plan(bands, theta) if all(map(math.isfinite, sups.values())) else None
    programs: dict[tuple[int, ...], list] = {}
    last = min(min_iter, max_iter) - 1
    iterations = 0
    residual = math.inf
    diverged = False
    first_hit = None
    tail_tried = False
    while iterations < max_iter:
        keys = tuple(bands)
        program = programs.get(keys)
        if program is None:
            program = programs[keys] = _program(keys, plan, theta, first.n)
        bands2, sups2 = _square(bands, program)
        iterations += 1
        floor = _residual_floor(sups2, sups, tol) if iterations < max_iter else None
        residual = floor if floor is not None else _residual(bands2, sups2, bands, sups)
        # Squaring a near-degenerate pair (no spectral gap, e.g. almost
        # identical translates) amplifies grid noise doubly exponentially;
        # stop at the last finite iterate and report non-convergence.
        if not math.isfinite(residual) or residual > 1e6 or \
                not all(map(math.isfinite, sups2.values())):
            diverged = True
            break
        bands, sups = bands2, sups2
        if residual <= tol and first_hit is None:
            first_hit = iterations
        if first_hit is not None and not tail_tried and bands.keys() == {0}:
            tail_tried = True
            tail = _bare_squarings(bands[0], iterations, last)
            if tail is not None:
                bands, sups, iterations = {0: tail[0]}, {0: tail[1]}, last
        if residual <= tol and iterations >= min_iter:
            break
    r = BandedElement(first.context, {k: CircleFunction(v) for k, v in bands.items()}, first.n)
    return MeetReport(result=r, iterations=iterations, final_residual=residual,
                      converged=not diverged and residual <= tol, first_hit=first_hit)


def _product_plan(bands: dict[int, np.ndarray],
                  theta: float) -> Optional[frozenset[tuple[int, int]]]:
    """The pairs (k, j) whose band product f_k(x) f_j(x - k theta) can be
    nonzero at some squaring of the finite element with these bands.

    Starts from each band's nonzero mask and closes the masks under the
    squaring map: key k + j gains the meet of mask k with mask j shifted by
    k theta, until no mask changes.  The plan keeps the pairs whose masks
    meet in the closure.  A closure that leaves the span of the bands gives
    no plan (None): every product is then taken.
    """
    masks = {k: f != 0 for k, f in bands.items()}
    span = range(min(masks, default=0), max(masks, default=0) + 1)
    while True:
        grown = dict(masks)
        pairs = set()
        for k, mk in masks.items():
            if k != 0:
                i0, i1, _, _ = _shift_stencil(mk.shape[0], k * theta)
            for j, mj in masks.items():
                # A shifted band can be nonzero where either stencil neighbour is.
                meet = mk & (mj[i0] | mj[i1] if k != 0 else mj)
                if not meet.any():
                    continue
                pairs.add((k, j))
                key = k + j
                if key not in span:
                    return None
                grown[key] = grown[key] | meet if key in grown else meet
        if grown.keys() == masks.keys() and all(
                np.array_equal(grown[k], masks[k]) for k in masks):
            return frozenset(pairs)
        masks = grown


# A band product (k, j, stencil): the stencil of the shift by k theta, None for k = 0.
_Product = tuple[int, int, Optional[tuple[np.ndarray, ...]]]


def _program(keys: tuple[int, ...], plan: Optional[frozenset[tuple[int, int]]],
             theta: float, n: int) -> list[tuple[int, list[_Product]]]:
    """The squaring program of an element with bands `keys` (in their order)
    on an n-point grid: for each output key in banded_mul's first-touch
    order, the band products the plan keeps, in k-then-j order.  Keys with no
    kept product are left out.  With no plan every product is kept.
    """
    stencils = {k: _shift_stencil(n, k * theta) if k != 0 else None for k in keys}
    terms: dict[int, list[_Product]] = {}
    for k in keys:
        for j in keys:
            products = terms.setdefault(k + j, [])
            if plan is None or (k, j) in plan:
                products.append((k, j, stencils[k]))
    return [(key, products) for key, products in terms.items() if products]


def _square(bands: dict[int, np.ndarray], program: list[tuple[int, list[_Product]]]
            ) -> tuple[dict[int, np.ndarray], dict[int, float]]:
    """One squaring of r, given as its band samples, by the program of its
    keys: the bands and sups of r r.

    Equal in value to banded_mul(r, r) under the BandedElement drop rule:
    keys in first-touch order, each summed in k-then-j order.  A pair the
    plan leaves out is a signed zero, so leaving it out can change a
    component only from +0.0 to -0.0, which compares equal.
    """
    out: dict[int, np.ndarray] = {}
    out_sups: dict[int, float] = {}
    for key, products in program:
        v = _band_product(bands, *products[0])
        for product in products[1:]:
            v += _band_product(bands, *product)
        sup = float(np.abs(v).max())
        # Non-finite bands are kept, as BandedElement keeps them.
        if sup > BAND_DROP_TOL or not math.isfinite(sup):
            out[key] = v
            out_sups[key] = sup
    return out, out_sups


def _band_product(bands: dict[int, np.ndarray], k: int, j: int,
                  stencil: Optional[tuple[np.ndarray, ...]]) -> np.ndarray:
    """f_k(x) f_j(x - k theta) on the grid, as banded_mul takes it."""
    f, g = bands[k], bands[j]
    if stencil is None:
        return f * g
    i0, i1, w0, w1 = stencil
    return f * (g[i0] * w0 + g[i1] * w1)


def _residual_floor(sups2: dict[int, float], sups: dict[int, float],
                    tol: float) -> Optional[float]:
    """L, the lower bound on supdiff(r r, r) from the band sups, when it
    settles the residual strictly between tol and 1e6 (see
    meet_pair_iterative); None when the exact residual is needed."""
    low = high = 0.0
    for key in sups2.keys() | sups.keys():
        a, b = sups2.get(key, 0.0), sups.get(key, 0.0)
        if not (math.isfinite(a) and math.isfinite(b)):
            return None
        low, high = max(low, abs(a - b)), max(high, a + b)
    return low if high < 1e5 and low > 2.0 * tol + 1e-12 * high else None


def _residual(bands2: dict[int, np.ndarray], sups2: dict[int, float],
              bands: dict[int, np.ndarray], sups: dict[int, float]) -> float:
    """supdiff(r r, r) from the bands and sups of both sides."""
    residual = 0.0  # supdiff's max: a NaN band leaves it unchanged
    for key in bands2.keys() | bands.keys():
        both = key in bands2 and key in bands
        residual = max(residual, float(np.abs(bands2[key] - bands[key]).max()) if both
                       else sups2.get(key, sups.get(key)))
    return residual


def _bare_squarings(f: np.ndarray, iterations: int,
                    last: int) -> Optional[tuple[np.ndarray, float]]:
    """The band-0 samples f of a diagonal iterate squared from `iterations`
    up to `last` squarings as bare multiplies, with their sup; None if
    last <= iterations or the check fails.

    The squares are kept only if BAND_DROP_TOL < sup <= 2 (a NaN fails
    the comparison), which shows that no skipped check would have fired.
    Squaring moves each sample's modulus monotonically: one at most
    1 stays at most 1, one above 1 grows at every squaring.  So a band that
    dropped on the way would still be below BAND_DROP_TOL, and samples that
    end at modulus <= 2 never passed the 1e6 divergence bound.
    """
    if last <= iterations:
        return None
    # A diverging tail overflows here; it is thrown away, so stay quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(last - iterations):
            f = f * f
        sup = float(np.abs(f).max())
    return (f, sup) if BAND_DROP_TOL < sup <= 2.0 else None


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
    d = _frac(s - s2)
    if min(d, 1.0 - d) >= eps / 4.0:
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
                                     max_iter: int = 500
                                     ) -> tuple[float, MeetReport, IntervalSet]:
    """Sup-difference between the iterated meet and chi_S(U) on the grid."""
    p = build_rieffel_projection(spec, n)
    # The closed form checks the meet hypotheses, before any squaring.
    arcs = meet_closed_form(spec, s, t, s2, t2)
    a = translate_action(p, s, t)
    b = translate_action(p, s2, t2)
    report = meet_pair_iterative(a, b, max_iter=max_iter)
    target = indicator_banded(a.context, arcs.arcs, n)
    return supdiff(report.result, target), report, arcs


# -- path meets ----------------------------------------------------------------------------------


@dataclass
class PathMeetResult:
    intervals: IntervalSet
    levels_used: int
    max_increment: float
    n_points: int


def _refine_path(path, eps: float) -> tuple[np.ndarray, int, float]:
    """The samples of `path` (a BrownianPath, or anything with its 2-D
    `values` and `refine()`) bridge-refined until every component's step is
    below eps/4, the refinements used and the largest step left.

    Both path folds refine by this rule, so they meet the same samples.  If
    REFINE_LEVELS refinements do not get there, raises "path too rough for eps".
    A path with a `_fold` slot keeps only the result there, for its eps, so a
    second fold draws and walks nothing; other objects refine on every call.
    """
    if getattr(path, "_fold", None) is not None and path._fold[0] == eps:
        return path._fold[1:]
    fine, levels_used = path, 0
    while True:
        values = fine.values
        step = float(np.max(np.abs(np.diff(values, axis=0)))) if values.shape[0] > 1 else 0.0
        if not step >= eps / 4.0:  # NaN compares false: no refinement
            break
        if levels_used >= REFINE_LEVELS:
            raise ValueError("path too rough for eps: refine below eps/4 failed")
        fine = fine.refine()
        levels_used += 1
    if hasattr(path, "_fold"):
        path._fold = (eps, values, levels_used, step)
    return values, levels_used, step


def meet_along_path(spec: RieffelProjectionSpec, path) -> PathMeetResult:
    """Fold of plateau translates along a sampled Brownian path.

    The set is the intersection over samples s_i of the translated plateau
    [eps, theta_e) - W(s_i), where W is the first path component; it is cut
    only at the samples that set a new minimum or maximum of W.  The path is
    first refined by _refine_path, as in meet_along_path_operator.
    `max_increment` is the largest step left, over every component.
    """
    values, levels_used, max_inc = _refine_path(path, spec.epsilon)
    w = values[:, 0]
    plat = plateau_set(spec)
    out = IntervalSet.full()
    lo, hi = math.inf, -math.inf
    for wi in w.tolist():
        # A sample inside the running [min W, max W] translates the plateau
        # onto a superset of the running intersection: only new extremes cut.
        if lo <= wi <= hi:
            continue
        lo, hi = min(lo, wi), max(hi, wi)
        out = out.intersect(plat.translate(-wi))
        if out.is_empty:
            break
    return PathMeetResult(out, levels_used, max_inc, int(w.size))


@dataclass
class OperatorPathMeet:
    result: BandedElement
    n_factors: int
    n_samples: int
    converged: bool
    levels_used: int


def _stride_factors(w: np.ndarray, quantum: float, stride: float) -> list[int]:
    """Indices of the samples meet_along_path_operator meets, after sample 0.

    The first is the first sample more than `quantum` outside W_0.  After
    it, each side of the folded range [lo, hi] keeps its pending extreme,
    the sample furthest beyond that edge since the side last folded.  It is
    folded when a later sample lies `stride` or more beyond the edge, and at
    the end of the path unless it extends the range by `quantum` or less.
    The scan runs once per sample `stride` beyond an edge; a side's pending
    extreme before it is the last maximum of w - hi (or of lo - w).
    """
    first = np.flatnonzero(np.abs(w[1:] - w[0]) > quantum)
    if not first.size:
        return []
    lo = hi = w[0]
    factors: list[int] = []
    pending: dict[bool, int] = {}  # side (above hi?) -> its pending extreme

    def extension(k: int) -> float:
        return max(w[k] - hi, lo - w[k])

    def fold(k: int) -> None:  # if k extends the range by more than quantum
        nonlocal lo, hi
        if extension(k) > quantum:
            factors.append(k)
            lo, hi = min(lo, w[k]), max(hi, w[k])

    i = int(first[0]) + 1
    fold(i)
    while True:
        beyond = {True: w[i + 1:] - hi, False: lo - w[i + 1:]}
        hits = np.flatnonzero((beyond[True] >= stride) | (beyond[False] >= stride))
        stop = int(hits[0]) if hits.size else w.size - i - 1
        for side, e in beyond.items():
            top = np.fmax.reduce(e[:stop], initial=-np.inf)
            if top > 0.0 and (side not in pending or top >= extension(pending[side])):
                pending[side] = i + 1 + int(np.flatnonzero(e[:stop] == top)[-1])
        if not hits.size:
            break
        i += 1 + stop
        side = bool(w[i] > hi)
        j = pending.get(side, i)
        fold(j)
        if extension(i) >= extension(j):
            pending[side] = i
    for j in sorted(pending.values()):
        fold(j)
    return factors


def meet_along_path_operator(spec: RieffelProjectionSpec, path, n: int = 512,
                             min_iter: int = 40) -> OperatorPathMeet:
    """Iterated operator meet of the projection translates along a path.

    The path is first refined by _refine_path, as in meet_along_path, so the
    two folds meet the same samples.  A sample whose first component lies
    inside the folded range [lo, hi] translates the plateau onto a superset of
    the current intersection, so meeting with it changes nothing (lattice
    absorption).  The first factor is the first sample more than the
    quantum q = max(eps/16, 8/n) outside W_0: a smaller extension leaves no
    spectral gap between the running meet and the new factor, and the
    squaring iteration then amplifies grid noise instead of converging.

    After it, each run of extensions is folded once, by _stride_factors with
    the stride eps.  Steps are below eps/4, so every later factor extends the
    folded range by some e with q < e < eps (for q < eps/4).  This is sound:
    once the first factor is met, the running meet is a diagonal indicator
    chi_S(U) of an arc S inside the plateau, and a translate P_w with
    extension e < eps puts only its upper ramp over S, while that ramp's
    V-partner lies below S; so the meet is chi_{S cap plateau_w}, and the
    two-translate hypothesis |s - s'| < eps/4 binds only the first factor,
    which the step bound keeps within q + eps/4 of W_0.  The interval fold
    depends only on min W and max W, so an extreme that a later one supersedes
    is absorbed.  Each edge still lags the sampled meet by at most q, which
    the off-diagonal bands do not see: -2/n <= trace - measure <= 2q + 2/n.

    A first component that moves but never leaves [W_0 - q, W_0 + q] folds
    nothing: the result is the unmet projection, reported with
    converged=False.  A constant first component is absorbed exactly, and
    the projection is then its converged meet.
    """
    eps = spec.epsilon
    values, levels_used, _ = _refine_path(path, eps)
    if values.shape[1] != 2:
        raise ValueError("operator path meet needs a 2-component path")
    factors = _stride_factors(values[:, 0], max(eps / 16.0, 8.0 / n), eps)
    p = build_rieffel_projection(spec, n)
    r = translate_action(p, float(values[0, 0]), float(values[0, 1]))
    n_factors = 1
    converged = bool(factors) or bool(np.all(values[:, 0] == values[0, 0]))
    for i in factors:
        report = meet_pair_iterative(
            r, translate_action(p, float(values[i, 0]), float(values[i, 1])),
            min_iter=min_iter)
        r = report.result
        converged = converged and report.converged
        n_factors += 1
        if max(r.band_sups().values(), default=0.0) < 1e-12:
            break
    return OperatorPathMeet(result=r, n_factors=n_factors,
                            n_samples=int(values.shape[0]),
                            converged=converged, levels_used=levels_used)
