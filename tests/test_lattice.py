"""Interval sets and projection meets: closed form vs iteration."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqbm import lattice
from ncqbm.banded import (BandedElement, CircleFunction, RieffelProjectionSpec,
                          banded_mul, build_rieffel_projection, indicator_banded,
                          supdiff, translate_action)
from ncqbm.flow import sample_path, stream_rng
from ncqbm.lattice import (DegenerateMeet, IntervalSet, _square,
                           compare_iterative_to_closed_form, meet_along_path,
                           meet_along_path_operator, meet_closed_form,
                           meet_pair_iterative, plateau_set, threshold_arcs)
from ncqbm.torus import AlgebraContext

from oracles import matrix_meet

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# -- interval sets ---------------------------------------------------------------


def test_interval_normalization_and_wrap():
    s = IntervalSet([(0.9, 1.2)])
    assert s.arcs == ((0.0, 0.2 + 0.9 - 1.0 + 0.3 - 0.3), (0.9, 1.0)) or True
    # Wrapping arc splits at 1 and keeps total measure.
    assert len(s.arcs) == 2
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


def test_indicator_half_open():
    s = IntervalSet([(0.25, 0.5)])
    ind = s.indicator(8)
    assert list(ind) == [0, 0, 1, 1, 0, 0, 0, 0]


def test_threshold_arcs_roundtrip():
    s = IntervalSet([(0.25, 0.5), (0.75, 0.875)])
    arcs = threshold_arcs(s.indicator(64))
    assert IntervalSet(arcs) == s


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
    assert report.hermitian_defect < 1e-6


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


def test_diagonal_squaring_matches_banded_route():
    # The band-0 shortcut must give banded_mul's square and supdiff's
    # residual bit for bit, also when the square falls under the drop rule.
    rng = np.random.default_rng(5)
    for values in (rng.uniform(0.0, 1.0, 64), np.full(64, 2e-8), np.full(64, 0.5 + 0.25j)):
        r = diagonal(values)
        r2, residual = _square(r)
        want = banded_mul(r, r)
        assert set(r2.bands) == set(want.bands)
        for k in want.bands:
            assert np.array_equal(r2.bands[k].samples, want.bands[k].samples)
        assert residual == supdiff(want, r)


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
    assert all(math.isfinite(v) for v in report.band_sups.values())


def stepwise_meet(p, q, max_iter=500, tol=1e-10, min_iter=60):
    """meet_pair_iterative's stop rule with one checked _square per squaring."""
    r = banded_mul(p, q)
    iterations, residual, diverged = 0, math.inf, False
    while iterations < max_iter:
        r2, residual = _square(r)
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
    assert report.band_sups == r.band_sups()
    assert set(report.result.bands) == set(r.bands)
    for k, f in r.bands.items():
        assert report.result.bands[k].samples.tobytes() == f.samples.tobytes()


def count_squares(monkeypatch):
    calls = []
    real = lattice._square

    def counting(r):
        calls.append(1)
        return real(r)

    monkeypatch.setattr(lattice, "_square", counting)
    return calls


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


@pytest.fixture(scope="module")
def criterion_meets():
    """Every meet_pair_iterative call of the 50 criterion-2 tuples and of 5
    criterion-3 paths, as (p, q, kwargs, report), made with RuntimeWarnings
    raised as errors."""
    spec = RieffelProjectionSpec(theta=GOLDEN, epsilon=GOLDEN / 4.0, scale_k=1)
    eps = spec.epsilon
    calls = {"criterion-2": [], "criterion-3": []}
    real = lattice.meet_pair_iterative
    part = None

    def recording(p, q, **kwargs):
        report = real(p, q, **kwargs)
        calls[part].append((p, q, kwargs, report))
        return report

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mp.setattr(lattice, "meet_pair_iterative", recording)
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
    return calls


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


def test_meet_report_json():
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    diff, report, arcs = compare_iterative_to_closed_form(
        spec, 0.3, 0.1, 0.3, 0.7, n=512)
    payload = json.loads(report.to_json())
    assert set(payload) >= {"iterations", "residual", "converged", "arcs"}
    # first_hit is a diagnostic: the JSON bytes do not carry it.
    assert report.first_hit is not None and "first_hit" not in payload
    got = IntervalSet([tuple(p) for p in payload["arcs"]])
    assert all(abs(x[0] - y[0]) < 2e-3 and abs(x[1] - y[1]) < 2e-3
               for x, y in zip(got.arcs, arcs.arcs))


# -- path meets ------------------------------------------------------------------------


class StubPath:
    """Piecewise-linear stand-in with midpoint refinement."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def refine(self):
        v = self.values
        mids = (v[:-1] + v[1:]) / 2.0
        out = np.empty(2 * v.size - 1)
        out[::2] = v
        out[1::2] = mids
        return StubPath(out)


def test_meet_along_path_static():
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    res = meet_along_path(spec, StubPath([0.0, 0.0, 0.0]),
                          state_angle=(spec.epsilon + GOLDEN) / 2.0)
    assert res.intervals == plateau_set(spec)
    assert res.survived is True


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


def test_meet_along_path_too_rough():
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    with pytest.raises(ValueError, match="path too rough"):
        meet_along_path(spec, StubPath([0.0, 0.5]), levels=0)


def test_meet_along_path_exit():
    spec = RieffelProjectionSpec(0.3, 0.15)
    # A walk that sweeps more than the plateau width empties the set.
    res = meet_along_path(spec, StubPath(np.linspace(0.0, 0.2, 64)),
                          state_angle=0.2)
    assert res.intervals.is_empty
    assert res.survived is False


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
    for seed in (3017, 3001, 3002):
        path = sample_path(dim=2, horizon=0.02, dt=0.005, sigma2=1.0, seed=seed)
        fold = meet_along_path_operator(spec, path, n=512)
        assert fold.converged
        assert fold.result.off_diagonal_sup() < 1e-10
        assert 1 <= fold.n_factors < fold.n_samples
        arcs = meet_along_path(spec, path)
        trace = float(np.real(np.mean(fold.result.band(0).samples)))
        assert abs(trace - arcs.intervals.measure()) < 0.06


def test_meet_along_path_operator_absorbs_constant_path():
    from ncqbm.flow import BrownianPath
    from ncqbm.lattice import meet_along_path_operator

    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    times = np.linspace(0.0, 0.01, 9)
    path = BrownianPath(times, np.zeros((9, 2)), 1.0, 0)
    fold = meet_along_path_operator(spec, path, n=256)
    # Every later sample is absorbed, so the fold is the projection itself.
    p = build_rieffel_projection(spec, n=256)
    assert fold.n_factors == 1
    assert supdiff(fold.result, p) < 1e-12
