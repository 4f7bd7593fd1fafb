"""Brownian flow, heat semigroup, and Monte Carlo vacuum expectation."""

import cmath
import math

import numpy as np
import pytest

from ncqbm.flow import (BrownianPath, SemigroupSpec, flow_apply, heat_multiplier,
                        heat_semigroup_exact, sample_path, stream_rng, vacuum_expectation_mc)
from ncqbm.torus import AlgebraContext, TorusElement, act, mul, trace

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# -- paths -------------------------------------------------------------------------


def test_sample_path_shape_and_scaling():
    path = sample_path(dim=2, horizon=1.0, dt=0.01, sigma2=4.0, seed=7)
    assert path.values.shape == (101, 2)
    assert path.times[0] == 0.0 and path.times[-1] == pytest.approx(1.0)
    assert not path.values[0].any()
    # Increment variance ~ sigma2 dt (law of large numbers at 200 samples).
    incs = np.diff(path.values, axis=0)
    assert np.var(incs) == pytest.approx(4.0 * 0.01, rel=0.25)


def test_path_reproducible():
    a = sample_path(2, 1.0, 0.01, 1.0, seed=123)
    b = sample_path(2, 1.0, 0.01, 1.0, seed=123)
    c = sample_path(2, 1.0, 0.01, 1.0, seed=124)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_refine_preserves_points_and_law():
    path = sample_path(1, 1.0, 0.125, 1.0, seed=5)
    fine = path.refine()
    assert fine.times.size == 2 * path.times.size - 1
    assert np.array_equal(fine.values[::2], path.values)
    assert np.array_equal(fine.times[::2], path.times)
    # Refinement is deterministic given the seed: a fresh path with the same
    # times, values and seed refines to the same points.
    again = BrownianPath(path.times.copy(), path.values.copy(), path.sigma2, path.seed).refine()
    assert again is not fine
    assert np.array_equal(fine.values, again.values)
    # The path keeps no refinement: each call draws the same points again.
    assert np.array_equal(path.refine().values, fine.values)
    # Midpoint spread matches the bridge variance sigma2 h / 4 in aggregate.
    paths = [sample_path(1, 1.0, 0.125, 1.0, seed=s).refine() for s in range(300)]
    mids = np.array([p.values[1::2] - (p.values[0:-1:2] + p.values[2::2]) / 2.0
                     for p in paths])
    assert np.var(mids) == pytest.approx(0.125 / 4.0, rel=0.2)


# -- flow ---------------------------------------------------------------------------


def test_flow_apply_is_torus_action():
    ctx = AlgebraContext(GOLDEN)
    a = TorusElement(ctx, {(1, 0): 1.0, (0, 1): 2.0, (2, -1): 1.0j})
    path = sample_path(2, 0.1, 0.01, 1.0, seed=9)
    t = 0.05
    got = flow_apply(a, path, t)
    idx = int(round(t / 0.01))
    w1, w2 = path.values[idx]
    x = cmath.exp(2j * math.pi * w1)
    y = cmath.exp(2j * math.pi * w2)
    assert (got - act(x, y, a)).coeff_sup() < 1e-12


def test_flow_commutes_with_torus_action():
    ctx = AlgebraContext(GOLDEN)
    a = TorusElement(ctx, {(1, 0): 1.0, (1, 1): 0.5j})
    path = sample_path(2, 0.1, 0.01, 1.0, seed=10)
    x = cmath.exp(2j * math.pi * 0.3)
    y = cmath.exp(2j * math.pi * 0.8)
    lhs = flow_apply(act(x, y, a), path, 0.1)
    rhs = act(x, y, flow_apply(a, path, 0.1))
    assert (lhs - rhs).coeff_sup() < 1e-12


def test_flow_apply_time_errors():
    ctx = AlgebraContext(GOLDEN)
    a = TorusElement.one(ctx)
    path = sample_path(2, 0.1, 0.01, 1.0, seed=2)
    with pytest.raises(ValueError, match="beyond the path horizon"):
        flow_apply(a, path, 0.2)
    with pytest.raises(ValueError, match="not a sampled time"):
        flow_apply(a, path, 0.005)


def test_flow_is_multiplicative():
    # Each realization acts by algebra automorphisms.
    ctx = AlgebraContext(GOLDEN)
    rng = np.random.default_rng(3)
    a = TorusElement(ctx, {(1, 0): 1.0, (0, 2): rng.normal()})
    b = TorusElement(ctx, {(0, 1): 1.0, (-1, 1): rng.normal()})
    path = sample_path(2, 0.1, 0.01, 1.0, seed=11)
    lhs = flow_apply(mul(a, b), path, 0.1)
    rhs = mul(flow_apply(a, path, 0.1), flow_apply(b, path, 0.1))
    assert (lhs - rhs).coeff_sup() < 1e-12
    assert abs(trace(flow_apply(a, path, 0.1)) - trace(a)) < 1e-14


# -- heat semigroup ---------------------------------------------------------------------


def test_heat_semigroup_law():
    ctx = AlgebraContext(GOLDEN)
    rng = np.random.default_rng(4)
    a = TorusElement(ctx, {(m, n): complex(rng.normal(), rng.normal())
                           for m in range(-2, 3) for n in range(-2, 3)})
    spec = SemigroupSpec(sigma2=1.7, drift=(0.3, -0.2))
    lhs = heat_semigroup_exact(heat_semigroup_exact(a, 0.2, spec), 0.35, spec)
    rhs = heat_semigroup_exact(a, 0.55, spec)
    assert (lhs - rhs).coeff_sup() < 1e-12


def test_heat_semigroup_contracts_coefficients():
    ctx = AlgebraContext(GOLDEN)
    a = TorusElement(ctx, {(1, 0): 1.0, (2, 3): 1.0})
    spec = SemigroupSpec(sigma2=0.5)
    prev = a
    for t in (0.01, 0.05, 0.2):
        cur = heat_semigroup_exact(a, t, spec)
        for key in a.coeffs:
            assert abs(cur.coeff(*key)) <= abs(prev.coeff(*key)) + 1e-15
        prev = cur
    # The identity coefficient is fixed.
    b = TorusElement(ctx, {(0, 0): 2.5, (1, 1): 1.0})
    assert heat_semigroup_exact(b, 3.0, spec).coeff(0, 0) == 2.5


def test_complete_positivity_witness():
    # The heat multipliers form a positive-definite kernel on Z^2 (Gaussian
    # characteristic function), which makes the coefficient multiplier map CP:
    # check PSD of the difference-kernel Gram matrix on random frequency sets.
    spec = SemigroupSpec(sigma2=0.8, drift=(0.4, 0.1))
    rng = np.random.default_rng(5)
    for t in (0.05, 0.5):
        pts = rng.integers(-4, 5, size=(8, 2))
        gram = np.array([[heat_multiplier(int(p[0] - q[0]), int(p[1] - q[1]), t, spec)
                          for q in pts] for p in pts])
        eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
        assert eigs.min() > -1e-12


def test_semigroup_spec_rejects_nonpositive_sigma2():
    with pytest.raises(ValueError):
        SemigroupSpec(0.0)


def test_flow_torus_generator_values():
    # The heat semigroup's generator on U, V and UV: its multipliers are
    # exp(t l) with l = -2 pi^2 sigma2 (m^2 + n^2) at zero drift.
    spec = SemigroupSpec(sigma2=1.0)
    s = -2.0 * math.pi ** 2
    for (m, n), l in (((1, 0), s), ((0, 1), s), ((1, 1), 2 * s)):
        assert heat_multiplier(m, n, 0.01, spec) == pytest.approx(math.exp(0.01 * l), rel=1e-12)


# -- Monte Carlo ---------------------------------------------------------------------------


def test_mc_matches_exact_within_three_sigma():
    ctx = AlgebraContext(GOLDEN)
    a = TorusElement(ctx, {(1, 0): 1.0, (0, 1): 1.0, (1, 1): 2.0})
    spec = SemigroupSpec(sigma2=1.0, drift=(0.2, 0.0))
    t = 0.05
    est, report = vacuum_expectation_mc(a, t, spec, n_paths=20000, seed=77)
    exact = heat_semigroup_exact(a, t, spec)
    for c in report.coefficients:
        err = abs(est.coeff(c.m, c.n) - exact.coeff(c.m, c.n))
        assert err < 3.0 * max(c.stderr, 1e-12), (c.m, c.n, err, c.stderr)


def test_mc_agrees_with_flow_apply_average():
    # Averaging flow_apply over sampled paths is the same estimator up to
    # Monte Carlo error; cross-check at modest path counts.
    ctx = AlgebraContext(GOLDEN)
    a = TorusElement.monomial(ctx, 1, 0)
    spec = SemigroupSpec(sigma2=1.0)
    t = 0.05
    total = 0.0 + 0.0j
    n = 400
    for i in range(n):
        path = sample_path(2, t, t / 8.0, spec.sigma2, seed=10_000 + i)
        total += flow_apply(a, path, t).coeff(1, 0)
    by_paths = total / n
    est, report = vacuum_expectation_mc(a, t, spec, n_paths=20000, seed=8)
    se = math.hypot(report.coefficient(1, 0).stderr, abs(by_paths) / math.sqrt(n))
    assert abs(est.coeff(1, 0) - by_paths) < 4.0 * se


def test_mc_reproducible_and_validated():
    ctx = AlgebraContext(GOLDEN)
    a = TorusElement.monomial(ctx, 1, 0)
    spec = SemigroupSpec(sigma2=1.0)
    e1, _ = vacuum_expectation_mc(a, 0.05, spec, n_paths=5000, seed=3)
    e2, _ = vacuum_expectation_mc(a, 0.05, spec, n_paths=5000, seed=3)
    assert e1.coeff(1, 0) == e2.coeff(1, 0)
    with pytest.raises(ValueError, match="at least 100"):
        vacuum_expectation_mc(a, 0.05, spec, n_paths=50, seed=3)


def test_stream_rng_independent():
    a = stream_rng(1, 0).normal(size=4)
    b = stream_rng(1, 1).normal(size=4)
    c = stream_rng(1, 0).normal(size=4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("key, normals, uniforms", [
    ((0, 3, 0, 0, 0),
     [0.4646193606505811, 0.27585853234881896, -0.8884115608876361, -1.2438403848276731],
     [0.14183755703491496, 0.5250900247167826, 0.9641415634751166, 0.5778126827585944]),
    ((7, 2, 1),
     [0.17786825274422785, 0.4979422580943672, -0.559391496960831, 0.6518809806937446],
     [0.1501903145510829, 0.1782499391091228, 0.4171294313889865, 0.696467843434407]),
])
def test_stream_rng_draws_are_pinned(key, normals, uniforms):
    # The first draws of an exit-sampler chunk stream and a Monte Carlo chunk
    # stream: changing the generator or the key layout changes every sampled
    # output, so it has to change these literals too.
    np.testing.assert_allclose(stream_rng(*key).standard_normal(4), normals, rtol=1e-14, atol=0)
    np.testing.assert_allclose(stream_rng(*key).random(4), uniforms, rtol=1e-14, atol=0)
