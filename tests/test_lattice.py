"""Interval sets and projection meets: closed form vs iteration."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncqbm import flow, lattice
from ncqbm.banded import (BandedElement, CircleFunction, RieffelProjectionSpec,
                          banded_mul, build_rieffel_projection, indicator_banded,
                          star_banded, supdiff, translate_action)
from ncqbm.flow import sample_path, stream_rng
from ncqbm.lattice import (DegenerateMeet, IntervalSet,
                           compare_iterative_to_closed_form, meet_along_path,
                           meet_along_path_operator, meet_closed_form,
                           meet_pair_iterative, plateau_set)
from ncqbm.torus import AlgebraContext

from oracles import matrix_meet, stride_factors_walk

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# -- interval sets ---------------------------------------------------------------


def test_interval_normalization_and_wrap():
    s = IntervalSet([(0.9, 1.2)])
    # Wrapping arc splits at 1 and keeps total measure.
    assert len(s.arcs) == 2
    assert s.arcs[0] == pytest.approx((0.0, 0.9 + 0.3 - 1.0))
    assert s.arcs[1] == pytest.approx((0.9, 1.0))
    assert s.measure() == pytest.approx(0.3, abs=1e-15)
    assert s.contains(0.95) and s.contains(0.05) and not s.contains(0.5)


def test_interval_merge_and_intersect():
    s = IntervalSet([(0.1, 0.3), (0.25, 0.5), (0.7, 0.8)])
    assert s.arcs == ((0.1, 0.5), (0.7, 0.8))
    t = IntervalSet([(0.2, 0.75)])
    inter = s.intersect(t)
    assert inter.arcs == ((0.2, 0.5), (0.7, 0.75))
    assert inter.measure() == pytest.approx(0.35, abs=1e-15)


# Endpoints, shifts and probes on the binary grid k/1024, where sums and
# the mod-1 wrap are exact; off-grid floats can round an arc start across
# a probe under translation, which is not the property under test.
@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1023), st.integers(10, 614)),
                min_size=1, max_size=4),
       st.integers(-2048, 2048), st.integers(0, 1023))
def test_interval_translate_properties(arc_data, shift_k, probe_k):
    s = IntervalSet([(a / 1024.0, (a + w) / 1024.0) for a, w in arc_data])
    shift = shift_k / 1024.0
    probe = probe_k / 1024.0
    moved = s.translate(shift)
    assert moved.measure() == pytest.approx(s.measure(), abs=1e-12)
    # Membership commutes with translation mod 1.
    assert moved.contains(probe + shift) == s.contains(probe)


# -- closed form --------------------------------------------------------------------


def test_closed_form_shared_s():
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    s = 0.37
    got = meet_closed_form(spec, s, 0.1, s, 0.9)
    assert got == plateau_set(spec).translate(-s)


def test_closed_form_degenerate():
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    with pytest.raises(DegenerateMeet):
        meet_closed_form(spec, 0.3, 0.4, 0.3, 0.4)


def test_closed_form_drift_guard():
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    with pytest.raises(ValueError, match="CHI hypothesis violated"):
        meet_closed_form(spec, 0.0, 0.1, spec.epsilon / 2.0, 0.2)


def test_closed_form_bump_overlap_guard():
    # eps = theta/2 with s' below s by just under eps/4 pushes the bump
    # translate gap past 1 - eps: the first-product V^2 band is genuinely
    # nonzero there, so the closed form must refuse.
    eps = GOLDEN / 2.0
    spec = RieffelProjectionSpec(GOLDEN, eps)
    ds = 0.999 * eps / 4.0
    with pytest.raises(ValueError, match="CHI hypothesis violated"):
        meet_closed_form(spec, 0.2, 0.1, 0.2 - ds, 0.3)

    n = 1024
    p = build_rieffel_projection(spec, n)
    a = translate_action(p, 0.2, 0.1)
    b = translate_action(p, 0.2 - ds, 0.3)
    first = banded_mul(a, b)
    assert first.band(2).sup() > 1e-3

    # On the safe side of the gap the V^2 band cancels exactly.
    c = translate_action(p, 0.2 + ds, 0.3)
    assert banded_mul(a, c).band(2).sup() == 0.0


# -- iterative meet -------------------------------------------------------------------


def test_matrix_alternating_product_oracle():
    # Sanity for the squaring principle itself, on explicit 6x6 projections
    # with a known two-dimensional intersection.
    rng = np.random.default_rng(3)
    base = np.zeros((6, 2))
    base[0, 0] = base[1, 1] = 1.0
    v = rng.normal(size=(6, 1))
    w = rng.normal(size=(6, 1))

    def proj(cols):
        qmat, _ = np.linalg.qr(np.hstack(cols))
        return qmat @ qmat.conj().T

    p_mat = proj([base, v])
    q_mat = proj([base, w])
    meet = matrix_meet(p_mat, q_mat)
    assert np.max(np.abs(meet - proj([base]))) < 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_iterative_meet_matches_closed_form(seed):
    rng = np.random.default_rng(900 + seed)
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    eps = spec.epsilon
    s = float(rng.uniform(0, 1))
    s2 = s + float(rng.uniform(-0.99, 0.99)) * eps / 4.0
    t, t2 = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
    diff, report, arcs = compare_iterative_to_closed_form(
        spec, s, t, s2, t2, n=1024)
    assert report.converged
    assert diff < 1e-6, (diff, report.iterations, arcs)


def test_meet_result_dominated():
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    n = 1024
    p = build_rieffel_projection(spec, n)
    a = translate_action(p, 0.15, 0.6)
    b = translate_action(p, 0.15 + spec.epsilon / 8.0, 0.2)
    report = meet_pair_iterative(a, b)
    r = report.result
    assert supdiff(banded_mul(r, a), r) < 1e-6
    assert supdiff(banded_mul(r, b), r) < 1e-6
    assert supdiff(star_banded(r), r) < 1e-6


def test_commuting_indicator_meet_is_exact():
    from ncqbm.torus import AlgebraContext
    ctx = AlgebraContext(GOLDEN)
    n = 512
    a = indicator_banded(ctx, [(0.1, 0.5)], n)
    b = indicator_banded(ctx, [(0.3, 0.8)], n)
    report = meet_pair_iterative(a, b, min_iter=5)
    want = indicator_banded(ctx, [(0.3, 0.5)], n)
    assert report.converged and report.final_residual == 0.0
    assert supdiff(report.result, want) == 0.0


def diagonal(values, n=64):
    return BandedElement(AlgebraContext(GOLDEN),
                         {0: CircleFunction(np.asarray(values, dtype=complex))}, n)


def test_forced_squarings_clear_values_near_one():
    # lambda = 1 - 2^-40 has residual lambda (1 - lambda) ~ 9e-13 < tol at the
    # first squaring, yet its limit is 0: the min_iter floor must get it there.
    near_one = 1.0 - 2.0 ** -40
    values = np.zeros(64)
    values[10:30] = 1.0
    values[[12, 20, 40]] = near_one
    p = diagonal(values)
    q = BandedElement.identity(p.context, 64)
    report = meet_pair_iterative(p, q)
    f = np.real(report.result.band(0).samples)
    assert report.converged and report.iterations == 60
    assert np.all(f[[12, 20, 40]] == 0.0)
    assert np.all(f[[10, 11, 13, 29]] == 1.0)
    # Without the floor the residual rule stops at once, next to 1.
    early = meet_pair_iterative(p, q, min_iter=1)
    assert early.iterations == 1
    assert np.real(early.result.band(0).samples[12]) > 0.5


def test_diagonal_value_above_one_diverges():
    values = np.zeros(64)
    values[5] = 1.5
    report = meet_pair_iterative(diagonal(values), diagonal(np.ones(64)))
    assert not report.converged
    assert report.iterations < 60
    assert all(math.isfinite(v) for v in report.result.band_sups().values())


def stepwise_meet(p, q, max_iter=500, tol=1e-10, min_iter=60):
    """meet_pair_iterative's stop rule with one checked squaring per step."""
    r = banded_mul(p, q)
    iterations, residual, diverged = 0, math.inf, False
    while iterations < max_iter:
        r2 = banded_mul(r, r)
        residual = supdiff(r2, r)
        iterations += 1
        if not math.isfinite(residual) or residual > 1e6 or \
                not all(math.isfinite(s) for s in r2.band_sups().values()):
            diverged = True
            break
        r = r2
        if residual <= tol and iterations >= min_iter:
            break
    return r, iterations, residual, not diverged and residual <= tol


def assert_same_as_stepwise(p, q, report, **kwargs):
    r, iterations, residual, converged = stepwise_meet(p, q, **kwargs)
    assert report.iterations == iterations
    assert report.converged == converged
    assert report.final_residual == residual
    assert report.result.band_sups() == r.band_sups()
    assert set(report.result.bands) == set(r.bands)
    for k, f in r.bands.items():
        assert np.array_equal(report.result.bands[k].samples, f.samples)


def count_calls(monkeypatch, name):
    """A list that grows by one at each call of lattice.<name>."""
    calls = []
    real = getattr(lattice, name)

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(lattice, name, counting)
    return calls


def count_squares(monkeypatch):
    return count_calls(monkeypatch, "_square")


NEAR_ONE = 1.0 - 2.0 ** -40


def near_one_mix():
    values = np.zeros(64)
    values[10:30] = 1.0
    values[[12, 20, 40]] = NEAR_ONE
    return values


# (values, meet_pair_iterative kwargs, whether the bare tail is kept)
DIAGONAL_CASES = {
    "near-one": (near_one_mix(), {}, True),
    "near-one-path-fold": (near_one_mix(), {"min_iter": 40}, True),
    "max-iter-below-min-iter": (near_one_mix(), {"max_iter": 30}, True),
    "min-iter-one": (near_one_mix(), {"min_iter": 1}, False),
    # Pass tol at once, then diverge in the tail: step-by-step fallback.
    # The first overflows to inf and NaN, the second stays finite (e^128).
    "above-one-diverges": (np.full(64, 1.0 + 2.0 ** -40), {}, False),
    "just-above-one-diverges": (np.full(64, 1.0 + 2.0 ** -52), {}, False),
    # Every sample decays under the drop rule before squaring 60.
    "empties": (np.full(64, NEAR_ONE), {}, False),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(DIAGONAL_CASES))
def test_bare_tail_matches_stepwise_squaring(case, monkeypatch):
    values, kwargs, bare = DIAGONAL_CASES[case]
    p = diagonal(values)
    q = BandedElement.identity(p.context, 64)
    squares = count_squares(monkeypatch)
    report = meet_pair_iterative(p, q, **kwargs)
    assert report.first_hit == 1
    # A kept tail runs squarings 2 .. limit - 1 as bare multiplies.
    limit = min(kwargs.get("min_iter", 60), kwargs.get("max_iter", 500))
    bare_count = limit - 2 if bare else 0
    assert len(squares) == report.iterations - bare_count
    assert_same_as_stepwise(p, q, report, **kwargs)
    if case == "empties":
        assert report.converged and report.final_residual == 0.0
        assert not report.result.bands
    if case.endswith("above-one-diverges"):
        assert not report.converged and report.iterations < 60


def test_bare_tail_waits_for_the_first_diagonal_iterate(monkeypatch):
    # At the first hit this criterion-2 iterate (n = 2048) still carries
    # its off-diagonal bands; the bare tail starts at the first diagonal
    # iterate after it, and only that squaring and the last run checked.
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    p = build_rieffel_projection(spec, 2048)
    a = translate_action(p, 0.3, 0.1)
    b = translate_action(p, 0.3 - spec.epsilon / 8.0, 0.7)
    r, hit, diagonal = banded_mul(a, b), None, None
    for step in range(1, 60):
        r2 = banded_mul(r, r)
        if hit is None and supdiff(r2, r) <= 1e-10:
            hit = step
        r = r2
        if hit is not None and set(r.bands) == {0}:
            diagonal = step
            break
    assert hit < diagonal < 59
    squares = count_squares(monkeypatch)
    report = meet_pair_iterative(a, b)
    assert report.first_hit == hit
    assert len(squares) == diagonal + 1
    assert_same_as_stepwise(a, b, report)


def _plan_of(r):
    return lattice._product_plan({k: f.samples for k, f in r.bands.items()},
                                 r.context.theta)


PAIRS = {(k, j) for k in (-1, 0, 1) for j in (-1, 0, 1)}


def test_product_plan_of_a_translate_pair():
    # The bumps of two admissible translates are disjoint: their V^2 and
    # V^-2 products vanish at every squaring, and nothing else does.
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    p = build_rieffel_projection(spec, 2048)
    r = banded_mul(translate_action(p, 0.3, 0.1),
                   translate_action(p, 0.3 + spec.epsilon / 16.0, 0.7))
    assert set(r.bands) == {-1, 0, 1}
    assert _plan_of(r) == PAIRS - {(1, 1), (-1, -1)}


def fold_iterate(t):
    """A criterion-3 fold iterate: the diagonal meet chi_S of S = [0.2, 0.6)
    times a translate by 0.05 that puts only its upper ramp over S."""
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    p = build_rieffel_projection(spec, 512)
    chi = indicator_banded(p.context, [(0.2, 0.6)], 512)
    return banded_mul(chi, translate_action(p, 0.05, t))


def test_product_plan_of_a_fold_iterate():
    # Band 1 sits on the upper ramp, where band 0 shifted by theta and band
    # 1 shifted by theta are both zero.
    r = fold_iterate(0.8)
    assert set(r.bands) == {0, 1}
    assert _plan_of(r) == {(0, 0), (0, 1)}


def test_planned_squarings_equal_banded_mul_in_value():
    # A pair the plan leaves out is a signed zero, so the planned square can
    # differ from banded_mul only by -0.0 against +0.0, which compare equal.
    r = fold_iterate(0.8)
    theta = r.context.theta
    bands = {k: f.samples for k, f in r.bands.items()}
    sups = r.band_sups()
    plan = lattice._product_plan(bands, theta)
    for _ in range(30):
        bands2, sups2 = lattice._square(bands, lattice._program(tuple(bands), plan, theta, r.n))
        residual = lattice._residual(bands2, sups2, bands, sups)
        bands, sups = bands2, sups2
        r2 = banded_mul(r, r)
        assert residual == supdiff(r2, r) and sups == r2.band_sups()
        assert list(bands) == list(r2.bands)
        for k, f in r2.bands.items():
            assert np.array_equal(bands[k], f.samples)
        r = r2


def test_product_plan_gives_way_outside_the_band_span():
    # Bands that meet under every shift reach V^2, beyond the bands of r:
    # no plan, and every product is taken.
    values = np.full(64, 0.5, dtype=complex)
    p = BandedElement(AlgebraContext(GOLDEN),
                      {0: CircleFunction(values), 1: CircleFunction(values / 4.0)}, 64)
    q = BandedElement.identity(p.context, 64)
    assert _plan_of(banded_mul(p, q)) is None
    report = meet_pair_iterative(p, q, max_iter=4)
    assert set(report.result.bands) == set(range(17))
    assert_same_as_stepwise(p, q, report, max_iter=4)


def test_nonfinite_first_product_gets_no_plan():
    # A NaN in band 1 where band 0 is zero: the (0, 1) product is 0 x NaN,
    # which a plan made from the masks would skip.  Every product is taken,
    # so the first square is NaN there and the meet stops at once.
    a = np.zeros(64, dtype=complex)
    a[:8] = 1.0
    b = np.zeros(64, dtype=complex)
    b[20] = np.nan
    p = BandedElement(AlgebraContext(GOLDEN),
                      {0: CircleFunction(a), 1: CircleFunction(b)}, 64)
    q = BandedElement.identity(p.context, 64)
    report = meet_pair_iterative(p, q)
    assert not report.converged and report.iterations == 1
    first = banded_mul(p, q)
    assert report.result.bands[1].samples.tobytes() == first.bands[1].samples.tobytes()
    assert report.final_residual == stepwise_meet(p, q)[2]


def test_nan_square_takes_the_exact_residual(monkeypatch):
    # The sups of band 0 alone would settle the residual (0.9 -> 0.81), but
    # the square's NaN sups do not: the exact residual is taken, and the
    # meet stops on the divergence with it.
    a = np.zeros(64, dtype=complex)
    a[:4], a[4:8] = 0.5, 0.9
    b = np.zeros(64, dtype=complex)
    b[20] = np.nan
    p = BandedElement(AlgebraContext(GOLDEN),
                      {0: CircleFunction(a), 1: CircleFunction(b)}, 64)
    q = BandedElement.identity(p.context, 64)
    residuals = count_calls(monkeypatch, "_residual")
    report = meet_pair_iterative(p, q)
    assert not report.converged and report.iterations == 1 and len(residuals) == 1
    assert report.final_residual == stepwise_meet(p, q)[2] == 0.25


def test_dropped_band_settles_the_residual_by_its_sup(monkeypatch):
    # Band 1 sits where band 0 and its shift by theta are zero, so the
    # square drops it and keeps the projection band 0.  The residual of
    # that squaring is band 1's sup alone, which the sups settle above tol;
    # the second squaring's residual is 0, taken exactly.
    a = np.zeros(64, dtype=complex)
    a[:16] = 1.0
    b = np.zeros(64, dtype=complex)
    b[32] = 1e-6
    p = BandedElement(AlgebraContext(GOLDEN),
                      {0: CircleFunction(a), 1: CircleFunction(b)}, 64)
    q = BandedElement.identity(p.context, 64)
    residuals = count_calls(monkeypatch, "_residual")
    report = meet_pair_iterative(p, q, min_iter=2)
    assert report.converged and report.iterations == 2 and len(residuals) == 1
    assert report.first_hit == 2 and report.final_residual == 0.0
    assert_same_as_stepwise(p, q, report, min_iter=2)


def test_last_allowed_squaring_takes_the_exact_residual(monkeypatch):
    # A criterion-2 pair stopped by max_iter = 5, on a squaring whose sups
    # would settle its residual: the report still carries the exact one.
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    p = build_rieffel_projection(spec, 2048)
    a = translate_action(p, 0.3, 0.1)
    b = translate_action(p, 0.3 - spec.epsilon / 8.0, 0.7)
    r = banded_mul(a, b)
    for _ in range(4):
        r = banded_mul(r, r)
    assert lattice._residual_floor(banded_mul(r, r).band_sups(), r.band_sups(),
                                   1e-10) is not None
    residuals = count_calls(monkeypatch, "_residual")
    report = meet_pair_iterative(a, b, max_iter=5)
    assert report.iterations == 5 and not report.converged
    assert len(residuals) < 5
    assert_same_as_stepwise(a, b, report, max_iter=5)


@pytest.fixture(scope="module")
def criterion_run():
    """Every meet_pair_iterative call of the 50 criterion-2 tuples and of 5
    criterion-3 paths, as (p, q, kwargs, report), made with RuntimeWarnings
    raised as errors; and per part, the counts of checked squarings and of
    exact residuals."""
    spec = RieffelProjectionSpec(theta=GOLDEN, epsilon=GOLDEN / 4.0, scale_k=1)
    eps = spec.epsilon
    calls = {"criterion-2": [], "criterion-3": []}
    counts = {name: {"squarings": 0, "exact residuals": 0} for name in calls}
    real = lattice.meet_pair_iterative
    part = None

    def recording(p, q, **kwargs):
        report = real(p, q, **kwargs)
        calls[part].append((p, q, kwargs, report))
        return report

    def counting(name, real):
        def counted(*args):
            counts[part][name] += 1
            return real(*args)
        return counted

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mp.setattr(lattice, "meet_pair_iterative", recording)
        mp.setattr(lattice, "_square", counting("squarings", lattice._square))
        mp.setattr(lattice, "_residual", counting("exact residuals", lattice._residual))
        part = "criterion-2"
        rng = stream_rng(20260815, 50)
        for _ in range(50):
            s = float(rng.uniform(0.0, 1.0))
            t = float(rng.uniform(0.0, 1.0))
            s2 = s + float(rng.uniform(-1.0, 1.0)) * 0.99 * eps / 4.0
            t2 = float(rng.uniform(0.0, 1.0))
            compare_iterative_to_closed_form(spec, s, t, s2, t2, n=2048, max_iter=500)
        part = "criterion-3"
        for k in range(5):
            path = sample_path(dim=2, horizon=0.02, dt=0.005, sigma2=1.0, seed=3000 + k)
            meet_along_path_operator(spec, path, n=512, min_iter=40)
    return calls, counts


@pytest.fixture(scope="module")
def criterion_meets(criterion_run):
    return criterion_run[0]


def test_criterion_meets_match_stepwise_squaring(criterion_meets):
    assert len(criterion_meets["criterion-2"]) == 50
    assert len(criterion_meets["criterion-3"]) > 5
    for calls in criterion_meets.values():
        for p, q, kwargs, report in calls:
            assert_same_as_stepwise(p, q, report, **kwargs)


def test_criterion_2_first_hits_precede_the_forced_squarings(criterion_meets):
    # The residual rule alone would stop each meet at its first hit; the
    # rest of the 60 squarings are forced by min_iter.
    reports = [call[-1] for call in criterion_meets["criterion-2"]]
    hits = [report.first_hit for report in reports]
    assert all(11 <= h <= 30 for h in hits), hits
    assert all(report.iterations == 60 for report in reports)


def test_sups_settle_most_criterion_residuals(criterion_run):
    # The exact residual is taken only where the band sups cannot place it
    # strictly between tol and 1e6.
    for part, count in criterion_run[1].items():
        assert count["exact residuals"] < count["squarings"] / 2, (part, count)


def test_meet_hypotheses_are_checked_before_any_squaring(monkeypatch):
    calls = []
    real = lattice.meet_pair_iterative

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lattice, "meet_pair_iterative", counting)
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    eps = spec.epsilon
    # meet-demo's deliberate violation row: s' = s + 1.5 eps/4.
    with pytest.raises(ValueError, match="CHI hypothesis violated"):
        compare_iterative_to_closed_form(spec, 0.3, 0.0, 0.3 + 1.5 * eps / 4.0, 0.0, n=256)
    with pytest.raises(DegenerateMeet):
        compare_iterative_to_closed_form(spec, 0.3, 0.4, 0.3, 0.4, n=256)
    assert calls == []
    compare_iterative_to_closed_form(spec, 0.3, 0.0, 0.3 + eps / 8.0, 0.0, n=256)
    assert calls == [1]


def test_meet_report_fields():
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    n = 512
    diff, report, arcs = compare_iterative_to_closed_form(
        spec, 0.3, 0.1, 0.3, 0.7, n=n)
    assert report.converged and report.final_residual <= 1e-10
    assert report.first_hit is not None and report.first_hit <= report.iterations
    r = report.result
    assert supdiff(star_banded(r), r) < 1e-10 and 0 in r.band_sups()
    # Band 0 read at level 1/2 is the closed-form arc set, sample by sample.
    above = np.real(report.result.band(0).samples) > 0.5
    assert list(above) == [arcs.contains(j / n) for j in range(n)]


# -- path meets ------------------------------------------------------------------------


class StubPath:
    """Piecewise-linear stand-in with midpoint refinement; 1-D values are
    one component, as in BrownianPath."""

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        self.values = values[:, None] if values.ndim == 1 else values

    def refine(self):
        v = self.values
        mids = (v[:-1] + v[1:]) / 2.0
        out = np.empty((2 * len(v) - 1,) + v.shape[1:])
        out[::2] = v
        out[1::2] = mids
        return StubPath(out)


def test_meet_along_path_static():
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    res = meet_along_path(spec, StubPath([0.0, 0.0, 0.0]))
    assert res.intervals == plateau_set(spec)
    assert res.intervals.contains((spec.epsilon + GOLDEN) / 2.0)


def test_meet_along_path_translates():
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    eps = spec.epsilon
    w = [0.0, eps / 8.0, eps / 4.5, eps / 8.0]
    res = meet_along_path(spec, StubPath(w))
    expected = IntervalSet([(eps - min(w) - 0.0, GOLDEN - max(w))])
    got = res.intervals
    assert len(got.arcs) == 1
    assert got.arcs[0][0] == pytest.approx(eps, abs=1e-15)
    assert got.arcs[0][1] == pytest.approx(GOLDEN - max(w), abs=1e-15)


def test_meet_along_path_refines_rough_path():
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    eps = spec.epsilon
    res = meet_along_path(spec, StubPath([0.0, eps]))
    assert res.levels_used >= 2
    assert res.max_increment < eps / 4.0


def test_meet_along_path_refines_on_every_component():
    # The second component sets the refinement as well: both folds refine
    # by one rule, so they meet the same samples.
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    eps = spec.epsilon
    path = StubPath([[0.0, 0.0], [eps / 8.0, eps]])
    res = meet_along_path(spec, path)
    assert res.levels_used == 3 and res.n_points == 9
    assert res.max_increment == eps / 8.0


def test_meet_along_path_too_rough(monkeypatch):
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    monkeypatch.setattr(lattice, "REFINE_LEVELS", 0)
    with pytest.raises(ValueError, match="path too rough"):
        meet_along_path(spec, StubPath([0.0, 0.5]))


def test_meet_along_path_exit():
    spec = RieffelProjectionSpec(0.3, 0.15)
    # A walk that sweeps more than the plateau width empties the set.
    res = meet_along_path(spec, StubPath(np.linspace(0.0, 0.2, 64)))
    assert res.intervals.is_empty
    assert not res.intervals.contains(0.2)


def per_sample_fold(spec, path):
    """meet_along_path's fold with one intersection per refined sample."""
    values, levels_used, max_inc = lattice._refine_path(path, spec.epsilon)
    w = values[:, 0]
    plat = plateau_set(spec)
    out = IntervalSet.full()
    for wi in w:
        out = out.intersect(plat.translate(-float(wi)))
        if out.is_empty:
            break
    return out, levels_used, int(w.size), max_inc


def test_extremes_fold_matches_per_sample_fold():
    # Only samples that set a new min or max of W cut the running set.
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    for k in range(100):
        path = sample_path(dim=2, horizon=0.02, dt=0.005, sigma2=1.0, seed=3000 + k)
        res = meet_along_path(spec, path)
        want = per_sample_fold(spec, path)
        assert res.intervals.arcs == want[0].arcs, k
        assert (res.levels_used, res.n_points, res.max_increment) == want[1:], k


# -- operator path meets ------------------------------------------------------------------


def test_degenerate_drift_meet_reports_divergence():
    # Translates differing by a near-zero drift leave no spectral gap, so
    # the squaring iteration amplifies grid noise; the report must say so
    # rather than return a silently emptied iterate.
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    p = build_rieffel_projection(spec, n=512)
    a = translate_action(p, 0.0, 0.0)
    b = translate_action(p, 1.3e-4, 0.007)
    report = meet_pair_iterative(a, b)
    assert not report.converged


def test_meet_along_path_operator_matches_interval_fold():
    from ncqbm.flow import sample_path
    from ncqbm.lattice import meet_along_path_operator

    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    n = 512
    # Error budget: the operator fold lags the sampled intersection by at
    # most one range quantum q per edge, and each edge rounds to the grid.
    q = max(spec.epsilon / 16.0, 8.0 / n)
    for seed in (3017, 3001, 3002):
        path = sample_path(dim=2, horizon=0.02, dt=0.005, sigma2=1.0, seed=seed)
        fold = meet_along_path_operator(spec, path, n=n)
        assert fold.converged
        assert fold.result.off_diagonal_sup() < 1e-10
        assert 1 <= fold.n_factors < fold.n_samples
        arcs = meet_along_path(spec, path)
        assert (arcs.levels_used, arcs.n_points) == (fold.levels_used, fold.n_samples)
        trace = float(np.real(np.mean(fold.result.band(0).samples)))
        assert -2.0 / n <= trace - arcs.intervals.measure() <= 2.0 * q + 2.0 / n


def test_meet_along_path_operator_absorbs_constant_path():
    from ncqbm.flow import BrownianPath
    from ncqbm.lattice import meet_along_path_operator

    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    times = np.linspace(0.0, 0.01, 9)
    path = BrownianPath(times, np.zeros((9, 2)), 1.0, 0)
    fold = meet_along_path_operator(spec, path, n=256)
    # Every later sample is absorbed, so the fold is the projection itself.
    p = build_rieffel_projection(spec, n=256)
    assert fold.n_factors == 1 and fold.converged
    assert supdiff(fold.result, p) < 1e-12


def test_meet_along_path_operator_folding_nothing_is_not_converged():
    # The first component moves, but within one range quantum of W_0: no
    # sample is folded, and the unmet projection is no meet of the path.
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    path = sample_path(dim=2, horizon=1e-5, dt=2.5e-6, sigma2=1.0, seed=1)
    assert np.ptp(path.values[:, 0]) > 0.0
    fold = meet_along_path_operator(spec, path, n=512)
    assert fold.n_factors == 1
    assert fold.result.off_diagonal_sup() > 0.1
    assert not fold.converged


def _per_quantum_factor_count(w, q):
    """Factors of the per-quantum rule, which meets every sample that
    extends the folded range by more than q."""
    lo = hi = w[0]
    count = 1
    for x in w[1:]:
        if not lo - q <= x <= hi + q:
            count += 1
            lo, hi = min(lo, x), max(hi, x)
    return count


def _factor_extensions(w, factors):
    """How far each factor extends the range folded before it."""
    lo = hi = w[0]
    out = []
    for i in factors:
        out.append(max(w[i] - hi, lo - w[i]))
        lo, hi = min(lo, w[i]), max(hi, w[i])
    return out


def _fold_budget_holds(fold, spec, path, n):
    q = max(spec.epsilon / 16.0, 8.0 / n)
    trace = float(np.real(np.mean(fold.result.band(0).samples)))
    return -2.0 / n <= trace - meet_along_path(spec, path).intervals.measure() <= 2.0 * q + 2.0 / n


# Steps, quantum and stride on one dyadic grid make ties exact: equal
# extremes, and extensions equal to the quantum or to the stride.
_DYADIC = 1.0 / 64.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(steps=st.lists(st.integers(-3, 3), max_size=120), start=st.integers(-64, 64),
       quantum=st.integers(0, 4), stride=st.integers(1, 6))
# An above-side pending extreme that a later sample ties after a fold below.
@example(steps=[-1, 2, -2, -2, 2, 2], start=0, quantum=0, stride=2)
def test_stride_factors_match_the_per_sample_walk(steps, start, quantum, stride):
    # Each walk, its constant walk and the walk clipped to the quantum
    # around W_0, which never leaves it: the last two fold nothing.
    walk = np.cumsum([start] + steps) * _DYADIC
    q, s = quantum * _DYADIC, stride * _DYADIC
    constant = np.full_like(walk, walk[0])
    within = np.clip(walk, walk[0] - q, walk[0] + q)
    for w in (walk, constant, within):
        assert lattice._stride_factors(w, q, s) == stride_factors_walk(w.tolist(), q, s)
    assert lattice._stride_factors(constant, q, s) == lattice._stride_factors(within, q, s) == []


def test_both_folds_draw_each_level_once_and_keep_one_array(monkeypatch):
    # A criterion-3 path: the operator fold refines it, drawing one stream
    # per level; the interval fold then draws nothing and walks nothing.
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    path = sample_path(dim=2, horizon=0.02, dt=0.005, sigma2=1.0, seed=3000)
    calls = []

    def counting_stream_rng(*key):
        calls.append(key)
        return stream_rng(*key)

    monkeypatch.setattr(flow, "stream_rng", counting_stream_rng)
    fold = meet_along_path_operator(spec, path, n=512)
    arcs = meet_along_path(spec, path)
    assert fold.levels_used == arcs.levels_used >= 1
    assert calls == [(3000, 1, level) for level in range(1, fold.levels_used + 1)]
    held = [x for v in vars(path).values() for x in (v if isinstance(v, tuple) else (v,))]
    assert not any(isinstance(x, flow.BrownianPath) for x in held)
    refined = [x for x in held if isinstance(x, np.ndarray)
               and x is not path.times and x is not path.values]
    assert len(refined) == 1 and refined[0].shape == (fold.n_samples, 2)


def test_stride_factors_on_criterion_3_paths():
    # Each run of range extensions is folded once: no more factors than the
    # per-quantum rule, and each later factor extends the folded range by
    # at least q and below the stride eps.  Criterion 3 folds the same
    # paths and checks convergence and the budget against the interval fold.
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    eps = spec.epsilon
    q = max(eps / 16.0, 8.0 / 512)
    stride_total = quantum_total = 0
    for k in range(100):
        path = sample_path(dim=2, horizon=0.02, dt=0.005, sigma2=1.0, seed=3000 + k)
        w = lattice._refine_path(path, eps)[0][:, 0]
        factors = lattice._stride_factors(w, q, eps)
        # The first factor is the first sample more than q from W_0, which
        # keeps it within q + eps/4 of W_0.
        assert factors[0] == next(i for i, x in enumerate(w) if abs(x - w[0]) > q), k
        assert all(q <= e < eps for e in _factor_extensions(w, factors)[1:]), k
        quantum = _per_quantum_factor_count(w, q)
        assert 1 + len(factors) <= quantum, k
        stride_total += 1 + len(factors)
        quantum_total += quantum
    assert stride_total < 0.6 * quantum_total, (stride_total, quantum_total)


def _ramp(top, eps):
    # Steps just below eps/4, the largest the refinement rule lets through.
    w = np.linspace(0.0, top, int(math.ceil(top / (0.99 * eps / 4.0))) + 1)
    return StubPath(np.column_stack([w, np.zeros_like(w)]))


def test_stride_fold_of_a_monotone_ramp():
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    eps, n = spec.epsilon, 512
    q = max(eps / 16.0, 8.0 / n)
    path = _ramp(0.3, eps)
    fold = meet_along_path_operator(spec, path, n=n)
    w = path.values[:, 0]
    factors = lattice._stride_factors(w, q, eps)
    assert fold.converged and fold.levels_used == 0
    assert fold.n_factors == 1 + len(factors) < _per_quantum_factor_count(w, q)
    assert factors[0] == 1
    assert all(q <= e < eps for e in _factor_extensions(w, factors)[1:])
    assert fold.result.off_diagonal_sup() < 1e-10
    assert _fold_budget_holds(fold, spec, path, n)


@pytest.mark.parametrize("overshoot", [-0.005, 0.0, 0.01])
def test_stride_fold_of_a_ramp_across_the_plateau(overshoot):
    # A range that reaches theta_e - eps empties the interval fold; the
    # operator fold must empty with it, or say that it did not converge.
    # Just short of it the meet is a thin arc, which the fold must keep.
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    n = 512
    path = _ramp(GOLDEN - spec.epsilon + overshoot, spec.epsilon)
    fold = meet_along_path_operator(spec, path, n=n)
    if fold.converged:
        assert fold.result.off_diagonal_sup() < 1e-10
        assert _fold_budget_holds(fold, spec, path, n)
    if overshoot >= 0.0:
        assert meet_along_path(spec, path).intervals.is_empty
