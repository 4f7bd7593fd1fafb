"""Banded crossed-product arithmetic: cross-module oracle and projection laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqbm import banded
from ncqbm.banded import (BandedElement, CircleFunction, ExactPiecewise, Piece,
                          RieffelProjectionSpec, banded_mul,
                          build_rieffel_projection, grid, indicator_banded,
                          is_projection, member_of_X, star_banded, supdiff,
                          trace_banded, translate_action)
from ncqbm.torus import AlgebraContext, TorusElement, mul, star

from oracles import supdiff_per_band, synthesize_band

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def banded_from_torus(a: TorusElement, n: int) -> BandedElement:
    """Trig-poly band functions synthesized from Laurent coefficients."""
    ks = sorted({key[1] for key in a.coeffs})
    bands = {k: CircleFunction(synthesize_band(a.coeffs, k, n)) for k in ks}
    return BandedElement(a.context, bands, n)


def random_torus_element(ctx, rng, m_span=2, n_span=1):
    coeffs = {}
    for m in range(-m_span, m_span + 1):
        for n in range(-n_span, n_span + 1):
            if rng.random() < 0.6:
                coeffs[(m, n)] = complex(rng.normal(), rng.normal())
    coeffs[(0, 0)] = coeffs.get((0, 0), 0.0) + 1.0
    return TorusElement(ctx, coeffs)


# -- cross-module oracle: banded product vs Laurent product ------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_banded_mul_matches_laurent_mul(seed):
    # Linear interpolation of 2-mode trig bands at N=4096 contributes at most
    # (h^2/8) sup|f''| ~ 6e-6 per shifted factor; 1e-4 leaves clear headroom.
    ctx = AlgebraContext(GOLDEN)
    rng = np.random.default_rng(seed)
    ta = random_torus_element(ctx, rng)
    tb = random_torus_element(ctx, rng)
    n = 4096
    got = banded_mul(banded_from_torus(ta, n), banded_from_torus(tb, n))
    want = mul(ta, tb)
    for k in sorted(set(got.bands) | {key[1] for key in want.coeffs}):
        expected = synthesize_band(want.coeffs, k, n)
        assert np.max(np.abs(got.band(k).samples - expected)) < 1e-4


@pytest.mark.parametrize("seed", [5, 6])
def test_star_banded_matches_laurent_star(seed):
    ctx = AlgebraContext(GOLDEN)
    rng = np.random.default_rng(seed)
    ta = random_torus_element(ctx, rng)
    n = 4096
    got = star_banded(banded_from_torus(ta, n))
    want = star(ta)
    for k in sorted(set(got.bands) | {key[1] for key in want.coeffs}):
        expected = synthesize_band(want.coeffs, k, n)
        assert np.max(np.abs(got.band(k).samples - expected)) < 1e-4


def test_shift_convention_lock():
    # V^{-k} g(U) = g(x + k theta) V^{-k}: multiply the bare band V^{-1} by g(U).
    ctx = AlgebraContext(GOLDEN)
    n = 512
    vm1 = BandedElement(ctx, {-1: CircleFunction.const(1.0, n)}, n)
    gfun = CircleFunction.from_exact(
        ExactPiecewise([Piece(0.0, 1.0, "linear", (0.2, 0.6))]), n)
    g = BandedElement(ctx, {0: gfun}, n)
    prod = banded_mul(vm1, g)
    assert set(prod.bands) == {-1}
    expected = gfun.eval_at(grid(n) + ctx.theta)
    assert np.max(np.abs(prod.band(-1).samples - expected)) < 1e-14


def random_grid_element(ctx, rng, ks, n):
    """Grid-only bands (no exact descriptor) with random complex samples."""
    return BandedElement(ctx, {k: CircleFunction(rng.normal(size=n) + 1j * rng.normal(size=n))
                               for k in ks}, n)


def test_banded_mul_grid_bands_match_eval_at_bitwise():
    # Grid-only bands are read at x - k theta through cached stencils; the
    # product must equal the eval_at route bit for bit.  Eleven shifts
    # outrun the stencil cache, so the second product also reads evicted ones.
    ctx = AlgebraContext(GOLDEN)
    rng = np.random.default_rng(7)
    for n in (64, 512):
        a = random_grid_element(ctx, rng, range(-5, 6), n)
        b = random_grid_element(ctx, rng, (-2, 0, 1, 3), n)
        want: dict[int, np.ndarray] = {}
        for k, f in a.bands.items():
            for j, g in b.bands.items():
                term = f.samples * g.eval_at(grid(n) - k * ctx.theta)
                want[k + j] = want[k + j] + term if k + j in want else term
        for _ in range(2):
            got = banded_mul(a, b)
            assert set(got.bands) == set(want)
            for k, v in want.items():
                assert np.array_equal(got.bands[k].samples, v)


def test_band_sups_match_per_band_recomputation():
    ctx = AlgebraContext(GOLDEN)
    rng = np.random.default_rng(8)
    a = random_grid_element(ctx, rng, (-3, -1, 0, 2), 128)
    prod = banded_mul(a, star_banded(a))
    for elem in (a, prod, build_rieffel_projection(RieffelProjectionSpec(GOLDEN, 0.1), 256)):
        sups = {k: float(np.max(np.abs(f.samples))) for k, f in elem.bands.items()}
        assert elem.band_sups() == dict(sorted(sups.items()))
        assert list(elem.band_sups()) == sorted(elem.bands)
        assert elem.off_diagonal_sup() == max(v for k, v in sups.items() if k != 0)


def test_band0_indicator_product_exact():
    ctx = AlgebraContext(GOLDEN)
    n = 1024
    a = indicator_banded(ctx, [(0.1, 0.5)], n)
    b = indicator_banded(ctx, [(0.3, 0.8)], n)
    prod = banded_mul(a, b)
    want = indicator_banded(ctx, [(0.3, 0.5)], n)
    assert supdiff(prod, want) == 0.0


# -- trapezoid projection ------------------------------------------------------------------


def test_projection_identities_and_trace():
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 2.0)
    p = build_rieffel_projection(spec, n=4096)
    report = is_projection(p)
    assert report.is_projection
    assert report.sup_idempotent < 1e-10
    assert report.sup_hermitian < 1e-12
    assert abs(trace_banded(p) - GOLDEN) < 1e-12
    membership = member_of_X(p)
    assert membership.member
    assert membership.far_band_sup <= 1e-12 and membership.pairing_residual <= 1e-12
    # An imaginary part of band 0 alone costs the membership.
    tilted = BandedElement(p.context, {**p.bands, 0: CircleFunction(p.band(0).samples + 1e-9j)},
                           p.n)
    assert not member_of_X(tilted).member


def test_projection_residual_is_the_sup_difference():
    # The idempotent residual is sup |p^2 - p| itself: no drop rule on the
    # difference rounds a residual of one ulp down to 0.
    p = build_rieffel_projection(RieffelProjectionSpec(GOLDEN, GOLDEN / 2.0), n=4096)
    report = is_projection(p)
    assert report.sup_idempotent == supdiff(banded_mul(p, p), p)
    assert report.sup_idempotent > 0.0


def test_projection_scaled_copy():
    spec = RieffelProjectionSpec(GOLDEN, 0.05, scale_k=2)
    theta_e = (2 * GOLDEN) % 1.0
    p = build_rieffel_projection(spec, n=2048)
    assert p.context.theta == pytest.approx(theta_e, abs=1e-15)
    assert is_projection(p).is_projection
    assert abs(trace_banded(p) - theta_e) < 1e-12


def test_projection_epsilon_range_errors():
    with pytest.raises(ValueError, match="epsilon out of range"):
        RieffelProjectionSpec(GOLDEN, 0.7)
    with pytest.raises(ValueError, match="epsilon out of range"):
        RieffelProjectionSpec(GOLDEN, 0.0)
    # Bump wrapping past the ascending ramp: theta_e + eps > 1.
    spec = RieffelProjectionSpec(0.7, 0.55)
    with pytest.raises(ValueError, match="epsilon out of range"):
        build_rieffel_projection(spec)


def test_exact_descriptor_matches_grid():
    p = build_rieffel_projection(RieffelProjectionSpec(GOLDEN, 0.2), n=1024)
    for f in p.bands.values():
        assert f.exact is not None
        assert np.max(np.abs(f.exact.eval(grid(f.n)) - f.samples)) <= 1e-14


def test_translate_action_properties():
    spec = RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0)
    p = build_rieffel_projection(spec, n=2048)
    moved = translate_action(p, 0.1234, 0.567)
    assert is_projection(moved).is_projection
    assert abs(trace_banded(moved) - trace_banded(p)) < 1e-12
    # Group law of the translation action.
    twice = translate_action(moved, 0.0711, 0.111)
    direct = translate_action(p, 0.1234 + 0.0711, 0.567 + 0.111)
    assert supdiff(twice, direct) < 1e-12


def test_hermitian_three_band_class_closed_under_squaring():
    # Members built with bump support [theta, theta + eps) and eps small enough
    # that the support and its theta-translate are disjoint mod 1: then the
    # +-2 bands of the square cancel and the square stays in the class.
    theta = GOLDEN
    eps = theta / 4.0
    n = 2048
    rng = np.random.default_rng(42)
    ctx = AlgebraContext(theta)

    breaks = np.linspace(0.0, 1.0, 9)
    vals = rng.normal(size=9)
    vals[-1] = vals[0]
    f0_pieces = [Piece(breaks[i], breaks[i + 1] - breaks[i], "linear",
                       (vals[i], (vals[i + 1] - vals[i]) / (breaks[i + 1] - breaks[i])))
                 for i in range(8)]
    f0 = ExactPiecewise(f0_pieces)
    half = eps / 2.0
    z1 = complex(rng.normal(), rng.normal())
    f1 = ExactPiecewise([
        Piece(theta, half, "linear", (0.0, 1.0 / half), z1),
        Piece(theta + half, half, "linear", (1.0, -1.0 / half), z1),
    ])
    fm1 = f1.shifted(theta).conjugated()
    x = BandedElement(ctx, {
        0: CircleFunction.from_exact(f0, n),
        1: CircleFunction.from_exact(f1, n),
        -1: CircleFunction.from_exact(fm1, n),
    }, n)
    membership = member_of_X(x)
    assert membership.member
    assert membership.far_band_sup <= 1e-12 and membership.pairing_residual <= 1e-12
    sq = banded_mul(x, x)

    # Exact statements: far bands cancel and the square matches the
    # independently accumulated band formulas, which pair Hermitianly.
    far = max((f.sup() for k, f in sq.bands.items() if abs(k) > 1), default=0.0)
    assert far < 1e-14

    g = grid(n)

    def band_formula(k, pts):
        f = {0: f0, 1: f1, -1: fm1}
        out = np.zeros(len(pts), dtype=complex)
        for k1 in (-1, 0, 1):
            k2 = k - k1
            if abs(k2) <= 1:
                out += f[k1].eval(pts) * f[k2].eval(pts - k1 * theta)
        return out

    for k in (-1, 0, 1):
        assert np.max(np.abs(sq.band(k).samples - band_formula(k, g))) < 1e-13
    pairing = np.max(np.abs(band_formula(-1, g) - np.conj(band_formula(1, g + theta))))
    assert pairing < 1e-13
    assert np.max(np.abs(np.imag(band_formula(0, g)))) < 1e-13

    # The built-in checker is interpolation-limited off descriptors: the
    # pairing slope is ~1/half, so the residual is O(slope / n).
    report = member_of_X(sq)
    tol = 5.0 / (half * n)
    assert report.far_band_sup <= tol and report.pairing_residual <= tol, \
        (report.far_band_sup, report.pairing_residual)


def test_band_on_another_grid_size_is_rejected():
    ctx = AlgebraContext(GOLDEN)
    with pytest.raises(ValueError, match="band grid size mismatch"):
        BandedElement(ctx, {0: CircleFunction.zero(16), 1: CircleFunction.zero(32)}, 16)
    with pytest.raises(ValueError, match="band grid size mismatch"):
        BandedElement(ctx, {0: CircleFunction.const(1.0, 32)}, 16)


def test_nonfinite_bands_are_not_dropped():
    # The drop rule removes numerically negligible bands; an overflowed or
    # NaN band must survive so the caller can see the failure.
    ctx = AlgebraContext(GOLDEN)
    bad = np.full(16, np.nan, dtype=complex)
    elem = BandedElement(ctx, {1: CircleFunction(bad)}, 16)
    assert 1 in elem.bands
    assert math.isnan(elem.band_sups()[1])
    blown = BandedElement(ctx, {0: CircleFunction(np.full(16, np.inf + 0j))}, 16)
    assert math.isinf(blown.band_sups()[0])


# -- the fractional part -------------------------------------------------------------------

# Inputs where y - floor(y) and np.mod(y, 1.0) could part: values in [-3, 3]
# and near 0, integers and their neighbours one ulp away, signed zeros and
# tiny values.
MOD_INPUTS = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(-1e-12, 1e-12),
    st.builds(lambda k, d: math.nextafter(k, k + d) if d else float(k),
              st.integers(-3, 3), st.sampled_from([-1, 0, 1])),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
)


def mod_stencil(x, n):
    """banded._stencil with np.mod, the reference."""
    pos = np.mod(x, 1.0) * n
    i0 = np.floor(pos).astype(np.int64)
    w = pos - i0
    i0 = np.mod(i0, n)
    return i0, np.mod(i0 + 1, n), 1.0 - w, w


def mod_eval(exact, x):
    """ExactPiecewise.eval with np.mod, the reference."""
    out = np.zeros(x.shape, dtype=complex)
    for piece in exact.pieces:
        u = np.mod(x - piece.start, 1.0)
        u[u >= 1.0] = 0.0
        mask = u < piece.length
        out[mask] += piece.scale * piece.base_values(u[mask])
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(MOD_INPUTS, min_size=1, max_size=32), MOD_INPUTS,
       st.sampled_from([512, 2048]))
def test_fractional_part_matches_np_mod_bitwise(values, shift, n):
    # Arbitrary points, and the shifted grid that banded_mul gathers at.
    x = np.concatenate([np.array(values), grid(n) - shift])
    for got, want in zip(banded._stencil(x, n), mod_stencil(x, n)):
        assert got.tobytes() == want.tobytes()
    p = build_rieffel_projection(RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0), 512)
    for f in p.bands.values():
        assert f.exact.eval(x).tobytes() == mod_eval(f.exact, x).tobytes()


SPECIAL_FLOATS = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310]
# Each pair of signed zeros, NaN and infinities as (real, imag).
SPECIAL_PAIRS = [(a, b) for a in SPECIAL_FLOATS[:5] for b in SPECIAL_FLOATS[:5]]
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(ANY_FLOAT, max_size=32), st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=32),
       st.floats(allow_nan=False, allow_infinity=False), st.floats(0.0, 1.0, exclude_min=True))
def test_sqrtquad_floor_matches_np_clip_bitwise(values, params, u, c, length):
    # Piece.base_values floors the quadratic with np.maximum(q, 0.0); it must
    # give np.clip(q, 0.0, None)'s bytes, signed zeros and NaNs included.
    x = np.array(SPECIAL_FLOATS + values)
    assert np.maximum(x, 0.0).tobytes() == np.clip(x, 0.0, None).tobytes()
    q0, q1, q2 = params
    piece = Piece(0.0, 1.0, "sqrtquad", params)
    with np.errstate(all="ignore"):
        want = np.sqrt(np.clip(q0 + x * (q1 + q2 * x), 0.0, None))
        assert piece.base_values(x).tobytes() == want.tobytes()
    # Only linear pieces integrate; band 0 never holds a bump.
    with pytest.raises(ValueError, match="sqrtquad"):
        ExactPiecewise([piece]).integral()
    # A constant c is the linear piece (c, 0.0): on local coordinates in
    # [0, 1), c + 0.0 * u is c bit for bit (for c = -0.0 it is +0.0, hence
    # the + 0.0 on the drawn c).
    c += 0.0
    u = np.array([0.0] + u)
    flat = Piece(0.0, length, "linear", (c, 0.0))
    assert flat.base_values(u).tobytes() == np.full_like(u, c).tobytes()
    assert flat.base_integral() == c * length


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT), min_size=2, max_size=32),
       st.floats(0.0, 1.0))
def test_complex_stencil_weights_match_float_bitwise(parts, shift):
    # _shift_stencil stores its weights as complex; numpy promotes a float
    # weight to w + 0j in each complex product, so the bytes are the same.
    g = np.array([complex(re, im) for re, im in SPECIAL_PAIRS + parts])
    n = g.shape[0]
    i0, i1, w0, w1 = banded._stencil(grid(n) - shift, n)
    c0, c1 = banded._shift_stencil(n, shift)[2:]
    assert c0.dtype == c1.dtype == complex
    with np.errstate(all="ignore"):
        want = g[i0] * w0 + g[i1] * w1
        got = g[i0] * c0 + g[i1] * c1
    assert got.tobytes() == want.tobytes()


# Shifts for eval_shifted: negatives and values above 1, tiny and subnormal
# values, signed zeros (equal as cache keys) and the shifts k theta that
# banded_mul caches.
SHIFTS = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0, 3.0]),
    st.builds(lambda k: k * GOLDEN, st.integers(-3, 3)),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(SHIFTS, st.sampled_from([32, 64, 512]), st.integers(0, 2**32 - 1))
def test_eval_shifted_matches_eval_at_bitwise(s, n, seed):
    # eval_shifted(s) is eval_at(grid(n) - s) with the stencil cached: for
    # grid samples with signed zeros, NaN and infinities among them, and
    # for exact descriptors.  Each shift is asked for twice, and a zero
    # once more with the other sign, so later calls read the cached stencil.
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=n) + 1j * rng.normal(size=n)
    samples[:len(SPECIAL_PAIRS)] = [complex(re, im) for re, im in SPECIAL_PAIRS]
    p = build_rieffel_projection(RieffelProjectionSpec(GOLDEN, GOLDEN / 4.0), n)
    functions = [CircleFunction(samples), CircleFunction.const(0.5, n), *p.bands.values()]
    banded._shift_stencil.cache_clear()
    with np.errstate(all="ignore"):
        for f in functions:
            want = f.eval_at(grid(n) - s).tobytes()
            for shift in (s, s, -s if s == 0.0 else s):
                assert f.eval_shifted(shift).tobytes() == want


BAND_KINDS = ["normal", "tiny", "nan", "inf", "-inf", "inf-imag"]


def special_band(kind, seed, n=16):
    """A random band, below the drop tolerance ("tiny"), or with one NaN or
    infinite sample among its first four."""
    rng = np.random.default_rng(seed)
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    if kind == "tiny":
        return f * 1e-17
    if kind != "normal":
        f[seed % 4] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf,
                       "inf-imag": complex(0.0, np.inf)}[kind]
    return f


BAND_MAPS = st.dictionaries(st.integers(-2, 2),
                            st.tuples(st.sampled_from(BAND_KINDS), st.integers(0, 7)),
                            max_size=5)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(BAND_MAPS, BAND_MAPS)
def test_supdiff_matches_the_per_band_oracle(spec_a, spec_b):
    # supdiff reads the stored sup of a key on one side only; the oracle
    # subtracts a zero band there.  Same value for one-sided keys, NaN and
    # infinite bands, and NaN differences (inf - inf) where both sides have
    # a key.
    ctx = AlgebraContext(GOLDEN)
    a, b = ({k: CircleFunction(special_band(*kind)) for k, kind in spec.items()}
            for spec in (spec_a, spec_b))
    ea, eb = BandedElement(ctx, a, 16), BandedElement(ctx, b, 16)
    with np.errstate(invalid="ignore"):
        want = supdiff_per_band({k: f.samples for k, f in ea.bands.items()},
                                {k: f.samples for k, f in eb.bands.items()}, 16)
        assert supdiff(ea, eb) == supdiff(eb, ea) == want
