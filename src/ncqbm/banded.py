"""Banded crossed-product arithmetic over the circle.

Elements are finite sums  a = sum_k f_k(U) V^k  with f_k a function on the
circle [0,1).  Under the locked torus conventions:

    product:  (f(U) V^k)(g(U) V^j) = f(x) g(x - k theta) (U) V^{k+j}
    adjoint:  band j of a* is  conj(f_{-j}(x - j theta))

Band functions are stored as N uniform grid samples, optionally paired with an
exact piecewise descriptor (linear and sqrt-of-quadratic pieces, of which only
linear ones integrate) so that analytically constructed elements evaluate
exactly off the grid.  All norms are grid sup-norms; is_projection and
member_of_X accept residuals up to CHECK_TOL = 1e-10.

The trapezoid projection lives here: a Hermitian element with bands
{-1, 0, 1}, plateau profile f_0 and bump f_1 = sqrt(f_0 - f_0^2) on the
descending ramp, with trace equal to the effective rotation angle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .torus import AlgebraContext

DEFAULT_GRID = 4096

# Bands whose grid sup-norm is at or below this are dropped from the element.
BAND_DROP_TOL = 1e-15
# Grid sup-norm tolerance of the projection and membership checks.
CHECK_TOL = 1e-10


def _frac(x: float) -> float:
    f = x - math.floor(x)
    # x - floor(x) rounds to 1.0 for tiny negative x; fold back into [0, 1).
    return f if f < 1.0 else 0.0


# -- exact piecewise descriptors ---------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """One piece of an exact circle-function descriptor.

    The piece covers [start, start + length) mod 1 and is evaluated in the
    local coordinate u = (x - start) mod 1 in [0, length):

        kind "linear":   params (c0, c1)      value c0 + c1 u
        kind "sqrtquad": params (q0, q1, q2)  value sqrt(max(q0 + q1 u + q2 u^2, 0))

    A constant c is the linear piece (c, 0.0); only linear pieces integrate.
    The base value is real; `scale` carries any complex multiplier.  Local
    coordinates make circle shifts exact: shifting only moves `start`.
    """

    start: float
    length: float
    kind: str
    params: tuple
    scale: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if not (0.0 < self.length <= 1.0):
            raise ValueError("piece length must lie in (0, 1]")
        if self.kind not in ("linear", "sqrtquad"):
            raise ValueError(f"unknown piece kind {self.kind!r}")

    def base_values(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            c0, c1 = self.params
            return c0 + c1 * u
        q0, q1, q2 = self.params
        return np.sqrt(np.maximum(q0 + u * (q1 + q2 * u), 0.0))

    def base_integral(self) -> float:
        if self.kind != "linear":
            raise ValueError(f"no exact integral for a {self.kind} piece")
        c0, c1 = self.params
        return c0 * self.length + c1 * self.length * self.length / 2.0


class ExactPiecewise:
    """A finite union of non-overlapping pieces; zero off their supports."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[Piece]) -> None:
        self.pieces = tuple(pieces)

    def eval(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for piece in self.pieces:
            # np.mod(y, 1.0) bit for bit (both round the same exact value
            # once), at a fraction of its cost.
            y = x - piece.start
            u = y - np.floor(y)
            u[u >= 1.0] = 0.0  # rounds up to 1.0 for tiny negatives
            mask = u < piece.length
            if mask.any():
                out[mask] += piece.scale * piece.base_values(u[mask])
        return out

    def shifted(self, s: float) -> "ExactPiecewise":
        """Descriptor of x -> f(s + x): supports move, local data unchanged."""
        return ExactPiecewise(
            Piece(_frac(p.start - s), p.length, p.kind, p.params, p.scale)
            for p in self.pieces)

    def conjugated(self) -> "ExactPiecewise":
        return ExactPiecewise(
            Piece(p.start, p.length, p.kind, p.params, p.scale.conjugate())
            for p in self.pieces)

    def scaled(self, z: complex) -> "ExactPiecewise":
        return ExactPiecewise(
            Piece(p.start, p.length, p.kind, p.params, p.scale * z)
            for p in self.pieces)

    def integral(self) -> complex:
        return sum(p.scale * p.base_integral() for p in self.pieces)


# -- circle functions -----------------------------------------------------------------

_GRID_CACHE: dict[int, np.ndarray] = {}


def grid(n: int) -> np.ndarray:
    """The uniform grid j/n, cached."""
    if n not in _GRID_CACHE:
        _GRID_CACHE[n] = np.arange(n, dtype=float) / n
    return _GRID_CACHE[n]


def _stencil(x: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Neighbour indices i0, i1 and weights 1 - w, w of periodic linear
    interpolation at the points x of an n-sample grid."""
    x = np.asarray(x, dtype=float)
    pos = (x - np.floor(x)) * n  # np.mod(x, 1.0) * n, bit for bit
    i0 = np.floor(pos).astype(np.int64)
    w = pos - i0
    i0 = np.mod(i0, n)
    return i0, np.mod(i0 + 1, n), 1.0 - w, w


@functools.lru_cache(maxsize=8)
def _shift_stencil(n: int, s: float) -> tuple[np.ndarray, ...]:
    """The stencil of grid(n) - s; banded products reuse a few shifts k theta."""
    i0, i1, w0, w1 = _stencil(grid(n) - s, n)
    # Complex weights: the products promote them to w + 0j anyway.
    return i0, i1, w0.astype(complex), w1.astype(complex)


class CircleFunction:
    """Complex function on [0,1): N grid samples plus optional exact descriptor.

    The grid size should be a power of two.  When an exact descriptor is
    present, off-grid evaluation uses it; otherwise values are linearly
    interpolated between neighbouring samples (periodic).
    """

    __slots__ = ("n", "samples", "exact")

    def __init__(self, samples: np.ndarray,
                 exact: Optional[ExactPiecewise] = None) -> None:
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        self.n = samples.shape[0]
        self.samples = samples
        self.exact = exact

    @classmethod
    def from_exact(cls, exact: ExactPiecewise, n: int = DEFAULT_GRID) -> "CircleFunction":
        return cls(exact.eval(grid(n)), exact)

    @classmethod
    def zero(cls, n: int = DEFAULT_GRID) -> "CircleFunction":
        return cls(np.zeros(n, dtype=complex))

    @classmethod
    def const(cls, value: complex, n: int = DEFAULT_GRID) -> "CircleFunction":
        exact = ExactPiecewise([Piece(0.0, 1.0, "linear", (1.0, 0.0), complex(value))])
        return cls(np.full(n, complex(value)), exact)

    def eval_at(self, x: np.ndarray) -> np.ndarray:
        if self.exact is not None:
            return self.exact.eval(x)
        i0, i1, w0, w1 = _stencil(x, self.n)
        return self.samples[i0] * w0 + self.samples[i1] * w1

    def eval_shifted(self, s: float) -> np.ndarray:
        """eval_at(grid(n) - s), bit for bit, with the stencil cached."""
        if self.exact is not None:
            return self.exact.eval(grid(self.n) - s)
        i0, i1, w0, w1 = _shift_stencil(self.n, s)
        return self.samples[i0] * w0 + self.samples[i1] * w1

    def sup(self) -> float:
        return float(np.abs(self.samples).max()) if self.n else 0.0

    def integral(self) -> complex:
        if self.exact is not None:
            return complex(self.exact.integral())
        return complex(np.mean(self.samples))


# -- banded elements ---------------------------------------------------------------------


class BandedElement:
    """Finite sum over bands k of f_k(U) V^k in a fixed-angle banded algebra."""

    __slots__ = ("context", "n", "bands", "_sups")

    def __init__(self, context: AlgebraContext, bands: Mapping[int, CircleFunction],
                 n: int) -> None:
        self.context = context
        kept: dict[int, CircleFunction] = {}
        sups: dict[int, float] = {}
        self.n = n
        for k, f in bands.items():
            if f.n != n:
                raise ValueError("band grid size mismatch")
            sup = f.sup()
            # Non-finite bands are kept so that overflow in an iteration
            # surfaces instead of vanishing through the drop rule.
            if sup > BAND_DROP_TOL or not math.isfinite(sup):
                kept[int(k)] = f
                sups[int(k)] = sup
        self.bands = kept
        self._sups = sups

    @classmethod
    def identity(cls, context: AlgebraContext, n: int = DEFAULT_GRID) -> "BandedElement":
        return cls(context, {0: CircleFunction.const(1.0, n)}, n)

    def band(self, k: int) -> CircleFunction:
        f = self.bands.get(k)
        return f if f is not None else CircleFunction.zero(self.n)

    def band_sups(self) -> dict[int, float]:
        return dict(sorted(self._sups.items()))

    def off_diagonal_sup(self) -> float:
        """Largest sup-norm among bands k != 0."""
        return max((s for k, s in self._sups.items() if k != 0), default=0.0)

    def _check(self, other: "BandedElement") -> None:
        if self.context.theta != other.context.theta:
            raise ValueError("incompatible theta")
        if self.n != other.n:
            raise ValueError("grid size mismatch")

    def __repr__(self) -> str:
        sups = ", ".join(f"{k}: {s:.3g}" for k, s in self.band_sups().items())
        return (f"BandedElement(theta={self.context.theta:.12g}, n={self.n}, "
                f"band sups {{{sups}}})")


def banded_mul(a: BandedElement, b: BandedElement) -> BandedElement:
    """(f_k V^k)(g_j V^j) accumulates f_k(x) g_j(x - k theta) at band k + j."""
    a._check(b)
    theta = a.context.theta
    acc: dict[int, np.ndarray] = {}
    for k, f in a.bands.items():
        fa = f.samples
        for j, g in b.bands.items():
            gs = g.eval_shifted(k * theta) if k != 0 else g.samples
            key = k + j
            if key in acc:
                acc[key] += fa * gs
            else:
                acc[key] = fa * gs
    return BandedElement(a.context, {k: CircleFunction(v) for k, v in acc.items()}, a.n)


def star_banded(a: BandedElement) -> BandedElement:
    """Adjoint: band j of a* is conj(f_{-j}(x - j theta))."""
    theta = a.context.theta
    out: dict[int, CircleFunction] = {}
    for k, f in a.bands.items():
        j = -k
        samples = np.conj(f.eval_shifted(j * theta)) if j != 0 else np.conj(f.samples)
        exact = f.exact.shifted(-j * theta).conjugated() if f.exact is not None else None
        out[j] = CircleFunction(samples, exact)
    return BandedElement(a.context, out, a.n)


def translate_action(a: BandedElement, s: float, t: float) -> BandedElement:
    """Torus translation: band k maps to f_k(s + x) e^{2 pi i k t}."""
    x = grid(a.n)
    out: dict[int, CircleFunction] = {}
    for k, f in a.bands.items():
        phase = np.exp(2j * np.pi * k * t)
        samples = f.eval_at(x + s) * phase
        exact = f.exact.shifted(s).scaled(phase) if f.exact is not None else None
        out[k] = CircleFunction(samples, exact)
    return BandedElement(a.context, out, a.n)


def trace_banded(a: BandedElement) -> complex:
    """Canonical trace: the integral of the band-0 function."""
    return a.band(0).integral()


def supdiff(a: BandedElement, b: BandedElement) -> float:
    """Sup over bands and grid of |a - b|."""
    a._check(b)
    keys = set(a.bands) | set(b.bands)
    out = 0.0
    for k in keys:
        out = max(out, float(np.abs(a.band(k).samples - b.band(k).samples).max()))
    return out


# -- projection checks --------------------------------------------------------------------


@dataclass
class ProjectionReport:
    is_projection: bool
    sup_idempotent: float
    sup_hermitian: float
    trace: complex


def is_projection(a: BandedElement) -> ProjectionReport:
    """Checks a^2 = a and a* = a in grid sup-norm, to CHECK_TOL."""
    sup_sq = supdiff(banded_mul(a, a), a)
    sup_st = supdiff(star_banded(a), a)
    ok = sup_sq <= CHECK_TOL and sup_st <= CHECK_TOL
    return ProjectionReport(ok, sup_sq, sup_st, trace_banded(a))


@dataclass
class MembershipReport:
    member: bool
    far_band_sup: float
    pairing_residual: float


def member_of_X(a: BandedElement) -> MembershipReport:
    """Membership in the Hermitian three-band class, to CHECK_TOL.

    Requires bands outside {-1, 0, 1} below the tolerance, a real band 0,
    and the Hermitian pairing f_{-1}(t) = conj(f_1(t + theta)).  The pairing
    needs f_1 at off-grid points: exact when band 1 carries a descriptor,
    linearly interpolated otherwise, so for grid-only elements the residual
    carries an interpolation term of order (slope of f_1) / n, which the
    report's far_band_sup and pairing_residual let a caller weigh.
    """
    theta = a.context.theta
    x = grid(a.n)
    far = max((f.sup() for k, f in a.bands.items() if abs(k) > 1), default=0.0)
    herm0 = float(np.max(np.abs(np.imag(a.band(0).samples)))) if a.bands.get(0) else 0.0
    f1_shift = a.band(1).eval_at(x + theta)
    pairing = float(np.max(np.abs(a.band(-1).samples - np.conj(f1_shift))))
    ok = far <= CHECK_TOL and pairing <= CHECK_TOL and herm0 <= CHECK_TOL
    return MembershipReport(ok, far, pairing)


# -- trapezoid projection -------------------------------------------------------------------


@dataclass(frozen=True)
class RieffelProjectionSpec:
    """Parameters of the trapezoid projection at angle {scale_k * theta}.

    The projection lives in the banded copy generated by the k-th powers of
    the torus unitaries, whose rotation angle is the fractional part
    theta_e = {scale_k * theta}.  Validity needs 0 < epsilon < theta_e and
    theta_e + epsilon <= 1 (otherwise the bump wraps onto the ascending ramp
    and the trapezoid identities fail).
    """

    theta: float
    epsilon: float
    scale_k: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0,1)")
        if int(self.scale_k) != self.scale_k or self.scale_k < 1:
            raise ValueError("scale_k must be a positive integer")
        theta_e = self.effective_angle
        if theta_e == 0.0:
            raise ValueError(f"effective angle frac({self.scale_k} * theta) vanishes")
        if not (0.0 < self.epsilon < theta_e):
            raise ValueError(
                f"epsilon out of range: need 0 < epsilon < {theta_e}")

    @property
    def effective_angle(self) -> float:
        return _frac(self.scale_k * self.theta)


def build_rieffel_projection(spec: RieffelProjectionSpec,
                             n: int = DEFAULT_GRID) -> BandedElement:
    """The trapezoid projection: bands {-1, 0, 1}, trace = effective angle.

    f_0 ramps linearly from 0 to 1 on [0, eps], holds 1 on [eps, theta_e],
    ramps back down on [theta_e, theta_e + eps]; f_1 = sqrt(f_0 - f_0^2) on
    the descending ramp; f_{-1}(t) = conj(f_1(t + theta_e)).
    """
    theta_e = spec.effective_angle
    eps = spec.epsilon
    if theta_e + eps > 1.0:
        raise ValueError("epsilon out of range: bump wraps past the ascending ramp")
    f0_pieces = [
        Piece(0.0, eps, "linear", (0.0, 1.0 / eps)),
        Piece(theta_e, eps, "linear", (1.0, -1.0 / eps)),
    ]
    if theta_e > eps:
        f0_pieces.insert(1, Piece(eps, theta_e - eps, "linear", (1.0, 0.0)))
    bump = (0.0, 1.0 / eps, -1.0 / (eps * eps))
    f1_pieces = [Piece(theta_e, eps, "sqrtquad", bump)]
    fm1_pieces = [Piece(0.0, eps, "sqrtquad", bump)]
    ctx = AlgebraContext(theta_e)
    bands = {
        0: CircleFunction.from_exact(ExactPiecewise(f0_pieces), n),
        1: CircleFunction.from_exact(ExactPiecewise(f1_pieces), n),
        -1: CircleFunction.from_exact(ExactPiecewise(fm1_pieces), n),
    }
    return BandedElement(ctx, bands, n)


def indicator_banded(context: AlgebraContext, arcs: Iterable[tuple[float, float]],
                     n: int = DEFAULT_GRID) -> BandedElement:
    """Diagonal element chi_S(U) for a union of half-open arcs [a, b) in [0,1)."""
    pieces = [Piece(a, b - a, "linear", (1.0, 0.0)) for a, b in arcs if b > a]
    if not pieces:
        return BandedElement(context, {}, n)
    return BandedElement(context,
                         {0: CircleFunction.from_exact(ExactPiecewise(pieces), n)}, n)
