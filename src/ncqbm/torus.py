"""Twisted Laurent-series arithmetic for the rotation C*-algebra.

Elements are finitely supported sums  a = sum_{m,n} a_{mn} U^m V^n  where the
unitaries satisfy  U V = e^{2 pi i theta} V U.  The normal form keeps all U
powers to the left, so multiplication picks up the crossing phase

    (U^a V^b)(U^c V^d) = e^{-2 pi i theta b c} U^{a+c} V^{b+d}.

Everything here is exact coefficient bookkeeping; no operator norms are
computed.  The canonical trace is the (0,0) coefficient and the torus action
act(x, y) scales a_{mn} by x^m y^n for unit-modulus x, y.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, Mapping

# Coefficients with modulus at or below this are dropped from the support.
DROP_TOL = 1e-15

# Unit-modulus arguments to act() may deviate from the circle by at most this.
UNIT_MODULUS_TOL = 1e-12


@dataclass(frozen=True)
class AlgebraContext:
    """Deformation parameter theta in (0,1)."""

    theta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"theta must lie in (0,1), got {self.theta}")

    def phase(self, k: float) -> complex:
        """e^{-2 pi i theta k}, the twisting phase for a crossing count k."""
        return cmath.exp(-2j * math.pi * self.theta * k)


class TorusElement:
    """Finitely supported twisted Laurent series.

    Treat instances as immutable: all operations return new elements.  The
    coefficient map drops entries with |a_{mn}| <= DROP_TOL on construction.
    """

    __slots__ = ("context", "_coeffs")

    def __init__(self, context: AlgebraContext,
                 coeffs: Mapping[tuple[int, int], complex]) -> None:
        self.context = context
        cleaned: dict[tuple[int, int], complex] = {}
        for (m, n), c in coeffs.items():
            c = complex(c)
            if abs(c) > DROP_TOL:
                cleaned[(int(m), int(n))] = c
        self._coeffs = cleaned

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, context: AlgebraContext) -> "TorusElement":
        return cls(context, {})

    @classmethod
    def one(cls, context: AlgebraContext) -> "TorusElement":
        return cls(context, {(0, 0): 1.0})

    @classmethod
    def monomial(cls, context: AlgebraContext, m: int, n: int,
                 coeff: complex = 1.0) -> "TorusElement":
        """coeff * U^m V^n."""
        return cls(context, {(m, n): coeff})

    # -- mapping access --------------------------------------------------------

    def coeff(self, m: int, n: int) -> complex:
        return self._coeffs.get((m, n), 0.0 + 0.0j)

    @property
    def coeffs(self) -> dict[tuple[int, int], complex]:
        """A copy of the coefficient map."""
        return dict(self._coeffs)

    def support(self) -> list[tuple[int, int]]:
        return sorted(self._coeffs)

    def items(self) -> Iterator[tuple[tuple[int, int], complex]]:
        return iter(sorted(self._coeffs.items()))

    def __len__(self) -> int:
        return len(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- linear structure ------------------------------------------------------

    def _check_context(self, other: "TorusElement") -> None:
        if self.context.theta != other.context.theta:
            raise ValueError("incompatible theta")

    def __add__(self, other: "TorusElement") -> "TorusElement":
        self._check_context(other)
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            out[key] = out.get(key, 0.0) + c
        return TorusElement(self.context, out)

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        self._check_context(other)
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            out[key] = out.get(key, 0.0) - c
        return TorusElement(self.context, out)

    def __neg__(self) -> "TorusElement":
        return TorusElement(self.context, {k: -c for k, c in self._coeffs.items()})

    def scale(self, z: complex) -> "TorusElement":
        return TorusElement(self.context, {k: z * c for k, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, TorusElement):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    # -- norms and comparison ----------------------------------------------------

    def coeff_sup(self) -> float:
        return max((abs(c) for c in self._coeffs.values()), default=0.0)

    def isclose(self, other: "TorusElement", tol: float = 1e-12) -> bool:
        self._check_context(other)
        return (self - other).coeff_sup() <= tol

    def __repr__(self) -> str:
        terms = ", ".join(f"({m},{n}): {c:.6g}" for (m, n), c in self.items())
        return f"TorusElement(theta={self.context.theta:.12g}, {{{terms}}})"


# -- algebra operations ---------------------------------------------------------


def mul(a: TorusElement, b: TorusElement) -> TorusElement:
    """Twisted product: phase e^{-2 pi i theta b c} per crossing of V^b past U^c."""
    a._check_context(b)
    ctx = a.context
    out: dict[tuple[int, int], complex] = {}
    for (m1, n1), c1 in a._coeffs.items():
        for (m2, n2), c2 in b._coeffs.items():
            key = (m1 + m2, n1 + n2)
            out[key] = out.get(key, 0.0) + c1 * c2 * ctx.phase(n1 * m2)
    return TorusElement(ctx, out)


def star(a: TorusElement) -> TorusElement:
    """Adjoint: (a_{mn} U^m V^n)* = conj(a_{mn}) e^{-2 pi i theta m n} U^{-m} V^{-n}."""
    ctx = a.context
    out = {(-m, -n): c.conjugate() * ctx.phase(m * n)
           for (m, n), c in a._coeffs.items()}
    return TorusElement(ctx, out)


def trace(a: TorusElement) -> complex:
    """The canonical trace: the (0,0) coefficient."""
    return a.coeff(0, 0)


def act(x: complex, y: complex, a: TorusElement) -> TorusElement:
    """Torus action a_{mn} -> x^m y^n a_{mn} for unit-modulus x, y."""
    if abs(abs(x) - 1.0) > UNIT_MODULUS_TOL or abs(abs(y) - 1.0) > UNIT_MODULUS_TOL:
        raise ValueError("act requires unit-modulus arguments")
    out = {(m, n): (x ** m) * (y ** n) * c for (m, n), c in a._coeffs.items()}
    return TorusElement(a.context, out)


def cond_expectation(a: TorusElement, axis: int) -> TorusElement:
    """Conditional expectation onto one circle factor.

    axis=1 keeps the U variable (projects to n = 0); axis=2 keeps the V
    variable (projects to m = 0).
    """
    if axis == 1:
        out = {(m, n): c for (m, n), c in a._coeffs.items() if n == 0}
    elif axis == 2:
        out = {(m, n): c for (m, n), c in a._coeffs.items() if m == 0}
    else:
        raise ValueError("axis must be 1 or 2")
    return TorusElement(a.context, out)

