"""Twisted Laurent arithmetic: oracle agreement and algebraic laws."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqbm.torus import (AlgebraContext, TorusElement, act, cond_expectation, mul, star,
                         trace)

from oracles import matrix_trace_normalized, represent

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def random_element(ctx, rng, n_terms=5, span=3):
    coeffs = {}
    for _ in range(n_terms):
        m = int(rng.integers(-span, span + 1))
        n = int(rng.integers(-span, span + 1))
        coeffs[(m, n)] = complex(rng.normal(), rng.normal())
    return TorusElement(ctx, coeffs)


# -- clock-and-shift oracle (rational theta) --------------------------------------

RATIONAL_CASES = [(1, 17), (3, 17), (7, 31), (13, 50), (22, 59), (1, 60)]


@pytest.mark.parametrize("p,q", RATIONAL_CASES)
def test_mul_matches_matrix_oracle(p, q):
    ctx = AlgebraContext(p / q)
    rng = np.random.default_rng(100 + q)
    a = random_element(ctx, rng)
    b = random_element(ctx, rng)
    lhs = represent(mul(a, b).coeffs, p, q)
    rhs = represent(a.coeffs, p, q) @ represent(b.coeffs, p, q)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("p,q", RATIONAL_CASES)
def test_star_matches_matrix_adjoint(p, q):
    ctx = AlgebraContext(p / q)
    rng = np.random.default_rng(200 + q)
    a = random_element(ctx, rng)
    lhs = represent(star(a).coeffs, p, q)
    rhs = represent(a.coeffs, p, q).conj().T
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("p,q", RATIONAL_CASES)
def test_trace_matches_normalized_matrix_trace(p, q):
    ctx = AlgebraContext(p / q)
    rng = np.random.default_rng(300 + q)
    # Support of a*a stays within (-q, q)^2 so only (0,0) hits the matrix trace.
    a = random_element(ctx, rng, n_terms=4, span=3)
    prod = mul(star(a), a)
    got = matrix_trace_normalized(represent(prod.coeffs, p, q))
    assert abs(got - trace(prod)) < 1e-10


# -- defining relation and algebraic laws ----------------------------------------


def test_defining_relation():
    ctx = AlgebraContext(GOLDEN)
    u = TorusElement.monomial(ctx, 1, 0)
    v = TorusElement.monomial(ctx, 0, 1)
    uv = mul(u, v)
    lam_vu = mul(v, u).scale(cmath.exp(2j * math.pi * ctx.theta))
    assert uv.isclose(lam_vu, tol=1e-15)


def test_unitarity_of_generators():
    ctx = AlgebraContext(GOLDEN)
    for mono in [TorusElement.monomial(ctx, 1, 0), TorusElement.monomial(ctx, 0, 1),
                 TorusElement.monomial(ctx, 2, -3)]:
        assert mul(star(mono), mono).isclose(TorusElement.one(ctx), tol=1e-15)
        assert mul(mono, star(mono)).isclose(TorusElement.one(ctx), tol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_associativity(seed):
    ctx = AlgebraContext(GOLDEN)
    rng = np.random.default_rng(seed)
    a = random_element(ctx, rng, n_terms=3)
    b = random_element(ctx, rng, n_terms=3)
    c = random_element(ctx, rng, n_terms=3)
    lhs = mul(mul(a, b), c)
    rhs = mul(a, mul(b, c))
    assert (lhs - rhs).coeff_sup() < 1e-12 * max(1.0, lhs.coeff_sup())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_star_antihomomorphism(seed):
    ctx = AlgebraContext(GOLDEN)
    rng = np.random.default_rng(seed)
    a = random_element(ctx, rng, n_terms=4)
    b = random_element(ctx, rng, n_terms=4)
    lhs = star(mul(a, b))
    rhs = mul(star(b), star(a))
    assert (lhs - rhs).coeff_sup() < 1e-12 * max(1.0, lhs.coeff_sup())


def test_star_involution_exact_on_support():
    ctx = AlgebraContext(GOLDEN)
    rng = np.random.default_rng(7)
    a = random_element(ctx, rng, n_terms=6, span=4)
    again = star(star(a))
    assert again.support() == a.support()
    # Involution is exact up to one rounding of the twisting phase product.
    assert (again - a).coeff_sup() <= 1e-15 * a.coeff_sup()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_trace_positive_definite(seed):
    ctx = AlgebraContext(GOLDEN)
    rng = np.random.default_rng(seed)
    a = random_element(ctx, rng, n_terms=5)
    val = trace(mul(star(a), a))
    expected = sum(abs(c) ** 2 for c in a.coeffs.values())
    assert abs(val.imag) < 1e-12 * max(1.0, expected)
    assert abs(val.real - expected) < 1e-12 * max(1.0, expected)
    assert val.real >= 0.0


def test_trace_is_tracial():
    ctx = AlgebraContext(GOLDEN)
    rng = np.random.default_rng(11)
    a = random_element(ctx, rng)
    b = random_element(ctx, rng)
    assert abs(trace(mul(a, b)) - trace(mul(b, a))) < 1e-12


def test_action_is_automorphism_and_preserves_trace():
    ctx = AlgebraContext(GOLDEN)
    rng = np.random.default_rng(13)
    a = random_element(ctx, rng)
    b = random_element(ctx, rng)
    x = cmath.exp(2j * math.pi * 0.3183)
    y = cmath.exp(2j * math.pi * 0.7071)
    lhs = act(x, y, mul(a, b))
    rhs = mul(act(x, y, a), act(x, y, b))
    assert (lhs - rhs).coeff_sup() < 1e-12 * max(1.0, lhs.coeff_sup())
    assert abs(trace(act(x, y, a)) - trace(a)) < 1e-14
    with pytest.raises(ValueError):
        act(1.5, 1.0, a)


def test_cond_expectation_axes():
    ctx = AlgebraContext(GOLDEN)
    a = TorusElement(ctx, {(0, 0): 1.0, (2, 0): 2.0, (0, 3): 3.0, (1, 1): 4.0})
    keep_u = cond_expectation(a, 1)
    keep_v = cond_expectation(a, 2)
    assert keep_u.coeffs == {(0, 0): 1.0 + 0j, (2, 0): 2.0 + 0j}
    assert keep_v.coeffs == {(0, 0): 1.0 + 0j, (0, 3): 3.0 + 0j}
    with pytest.raises(ValueError):
        cond_expectation(a, 3)
    # Idempotent, trace preserving, module property over the kept subalgebra.
    assert cond_expectation(keep_u, 1).isclose(keep_u, tol=0.0)
    assert trace(keep_u) == trace(a)


def test_incompatible_theta_rejected():
    a = TorusElement.one(AlgebraContext(0.3))
    b = TorusElement.one(AlgebraContext(0.4))
    with pytest.raises(ValueError, match="incompatible theta"):
        mul(a, b)


def test_drop_tolerance():
    ctx = AlgebraContext(GOLDEN)
    a = TorusElement(ctx, {(0, 0): 1e-16, (1, 0): 1.0})
    assert a.support() == [(1, 0)]


def test_context_validation():
    with pytest.raises(ValueError):
        AlgebraContext(0.0)
    with pytest.raises(ValueError):
        AlgebraContext(1.0)

