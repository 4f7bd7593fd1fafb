"""Validators and constructors for Gaussian and QBM generators.

Three families of quantum groups are covered:

* the 2-torus, where a Gaussian generator is determined by its values
  (l10, l01, l11) on U, V, UV and validity is a 2x2 Gram-matrix condition;
* the theta-deformed orthogonal family, where a generator is a vector z of
  diagonal values together with a matrix A of second-order values, and the
  noise form B = [A_ij - conj(z_i) - z_j] must be PSD;
* the free orthogonal family, where the data is (L, A) with A indexed by
  flattened pairs (i<j) and a linear constraint ties the symmetrization of
  L to contractions of A.

A generator is a QBM generator when the noise form is invertible, so that
the cocycle coordinates span the whole space of epsilon-derivations.  The
Schurmann machinery (counit, cocycle, generating functional extended over
free *-monomials) is implemented far enough to verify the defining
identities on low-degree words, and convolution exponentials on matrix
coalgebras reduce to matrix exponentials.

Solution-space dimensions are ranks of sparse relation rows ({column:
value} maps).  Each system yields its rows one at a time and the rank
reads them once, keeping only their nonzero entries.  The rows are never
made dense at full width: columns that share a row are joined into blocks,
and the rank is the sum of the blocks' dense ranks at the absolute
tolerance RANK_TOL.  A matrix that is block-diagonal up to a permutation
has its blocks' singular values, so this is the rank of the full matrix at
the same tolerance.  Blocks of one shape share one stacked SVD, which gives
each matrix its own singular values.  Matrix exponentials use scaling and
squaring with a degree-18 Taylor polynomial, in numpy.
"""

from __future__ import annotations

import itertools
import math
import re as _re
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

PSD_TOL = 1e-10
INVERTIBLE_TOL = 1e-10
REAL_TOL = 1e-12
CONSTRAINT_TOL = 1e-10
RANK_TOL = 1e-8


# -- torus ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusGeneratorSpec:
    """Values of a prospective Gaussian generator on U, V and UV."""

    l10: complex
    l01: complex
    l11: complex


@dataclass
class TorusGeneratorReport:
    gaussian_valid: bool
    qbm: bool
    cross_term: complex
    cross_term_is_real: bool
    gram_eigenvalues: tuple[float, float]
    strict_threshold: float


def check_torus_generator(g: TorusGeneratorSpec) -> TorusGeneratorReport:
    """Gram-matrix validity and the strict QBM inequality on the torus.

    With c = l11 - l10 - l01, Gaussian generators correspond to PSD Gram
    matrices [[-2 Re l10, c], [conj(c), -2 Re l01]] (the cocycle vectors
    exist exactly then).  QBM additionally requires the strict one-sided
    inequality c < 2 sqrt(Re l10 * Re l01); c is tested for realness and a
    non-real cross term is reported rather than silently projected.
    """
    c = g.l11 - g.l10 - g.l01
    gram = np.array([[-2.0 * g.l10.real, c], [np.conj(c), -2.0 * g.l01.real]],
                    dtype=complex)
    eigs = np.linalg.eigvalsh(gram)
    valid = bool(eigs.min() >= -PSD_TOL)
    product = g.l10.real * g.l01.real
    threshold = 2.0 * math.sqrt(product) if product >= 0.0 else float("nan")
    c_real = abs(c.imag) <= REAL_TOL
    qbm = valid and c_real and product >= 0.0 and c.real < threshold
    return TorusGeneratorReport(
        gaussian_valid=valid, qbm=qbm, cross_term=complex(c),
        cross_term_is_real=c_real,
        gram_eigenvalues=(float(eigs[0]), float(eigs[1])),
        strict_threshold=threshold)


# -- theta-deformed orthogonal family ----------------------------------------------------


@dataclass(frozen=True)
class OThetaGeneratorSpec:
    """Diagonal values z (length 2n) and second-order matrix A (2n x 2n)."""

    n: int
    z: tuple[complex, ...]
    A: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        m = 2 * self.n
        if len(self.z) != m:
            raise ValueError(f"z must have length {m}")
        A = np.asarray(self.A, dtype=complex)
        if A.shape != (m, m):
            raise ValueError(f"A must be a {m}x{m} matrix")

    @property
    def size(self) -> int:
        return 2 * self.n

    def z_vector(self) -> np.ndarray:
        return np.array(self.z, dtype=complex)

    def a_matrix(self) -> np.ndarray:
        return np.array(self.A, dtype=complex)


def otheta_noise_form(g: OThetaGeneratorSpec) -> np.ndarray:
    """B_ij = A_ij - conj(z_i) - z_j, the Gram matrix of the cocycle vectors."""
    z = g.z_vector()
    return g.a_matrix() - np.conj(z)[:, None] - z[None, :]


def _noise_form_verdict(B: np.ndarray, conditions_hold: bool) -> dict:
    """The report fields every noise form B shares.  Valid: B is Hermitian PSD
    and the family's own conditions hold; QBM: valid and B invertible."""
    herm_defect = float(np.abs(B - B.conj().T).max())
    min_eig = float(np.linalg.eigvalsh((B + B.conj().T) / 2.0).min())
    min_sv = float(np.linalg.svd(B, compute_uv=False).min())
    valid = bool(conditions_hold and herm_defect <= PSD_TOL and min_eig >= -PSD_TOL)
    return {"valid": valid, "qbm": bool(valid and min_sv > INVERTIBLE_TOL),
            "min_eigenvalue": min_eig, "min_singular_value": min_sv,
            "hermitian_defect": herm_defect}


@dataclass
class OThetaGeneratorReport:
    valid: bool
    qbm: bool
    biinvariant: bool
    B: np.ndarray
    min_eigenvalue: float
    min_singular_value: float
    hermitian_defect: float
    diagonal_defect: float


def check_otheta_generator(g: OThetaGeneratorSpec) -> OThetaGeneratorReport:
    """Validity (Re z <= 0, zero diagonal of A, B PSD), QBM, bi-invariance."""
    z = g.z_vector()
    B = otheta_noise_form(g)
    diag_defect = float(np.abs(np.diag(g.a_matrix())).max())
    biinvariant = bool(np.all(np.abs(z - z[0]) <= REAL_TOL)
                       and abs(z[0].imag) <= REAL_TOL
                       and z[0].real <= REAL_TOL)
    verdict = _noise_form_verdict(B, np.all(z.real <= REAL_TOL) and diag_defect <= REAL_TOL)
    return OThetaGeneratorReport(biinvariant=biinvariant, B=B, diagonal_defect=diag_defect,
                                 **verdict)


# -- Schurmann machinery over free *-monomials ---------------------------------------------

# A generator word is a tuple of tokens (i, j, star) standing for the
# matrix-entry generator a^i_j, starred when the flag is set (0-based
# indices).  The counit sends a^i_j to delta_ij; the cocycle is diagonal.


def star_word(word: tuple) -> tuple:
    return tuple((i, j, not star) for (i, j, star) in reversed(word))


class SchurmannTriple:
    """(l, eta, epsilon) on free *-monomials in the matrix-entry generators.

    eta is the vector cocycle eta_k = sum_i conj(P_ik) eta_(i) built from
    the principal square root P of the noise form; l extends the prescribed
    first- and second-order values by l(uv) = l(u) eps(v) + eps(u) l(v)
    + <eta(u*), eta(v)>.
    """

    def __init__(self, z: np.ndarray, P: np.ndarray):
        self.z = np.asarray(z, dtype=complex)
        self.P = np.asarray(P, dtype=complex)
        self.size = len(self.z)

    def epsilon(self, word: tuple) -> float:
        return float(all(i == j for i, j, _ in word))

    def eta(self, word: tuple) -> np.ndarray:
        if len(word) == 0:
            return np.zeros(self.size, dtype=complex)
        if len(word) == 1:
            i, j, star = word[0]
            vec = np.zeros(self.size, dtype=complex)
            if i == j:
                vec = np.conj(self.P[i, :]).astype(complex)
                if star:
                    vec = -vec
            return vec
        head, tail = word[:1], word[1:]
        return self.eta(head) * self.epsilon(tail) + self.epsilon(head) * self.eta(tail)

    def l(self, word: tuple) -> complex:
        if len(word) == 0:
            return 0.0 + 0.0j
        if len(word) == 1:
            i, j, star = word[0]
            if i != j:
                return 0.0 + 0.0j
            return np.conj(self.z[i]) if star else self.z[i]
        head, tail = word[:1], word[1:]
        pairing = np.vdot(self.eta(star_word(head)), self.eta(tail))
        return (self.l(head) * self.epsilon(tail)
                + self.epsilon(head) * self.l(tail) + pairing)


def gaussian_third_order_residual(triple: SchurmannTriple,
                                  tokens: Sequence[tuple]) -> float:
    """Max residual of the degree-3 identity over the given generator tokens.

    l(abc) = l(ab)e(c) - e(ab)l(c) + l(bc)e(a) - e(bc)l(a)
             + l(ac)e(b) - e(ac)l(b).
    """
    worst = 0.0
    for a in tokens:
        for b in tokens:
            for c in tokens:
                lhs = triple.l((a, b, c))
                e = triple.epsilon
                l = triple.l
                rhs = (l((a, b)) * e((c,)) - e((a, b)) * l((c,))
                       + l((b, c)) * e((a,)) - e((b, c)) * l((a,))
                       + l((a, c)) * e((b,)) - e((a, c)) * l((b,)))
                worst = max(worst, abs(lhs - rhs))
    return worst


@dataclass
class OThetaSchurmann:
    P: np.ndarray
    triple: SchurmannTriple
    roundtrip_residual: float


def build_otheta_schurmann(g: OThetaGeneratorSpec) -> OThetaSchurmann:
    """Cocycle coordinate matrix P = B^{1/2} and the Schurmann triple on it.

    l(a^i*_i a^j_j) must reconstruct A_ij; the maximum deviation is
    reported as the round-trip residual.
    """
    B = otheta_noise_form(g)
    w, V = np.linalg.eigh((B + B.conj().T) / 2.0)
    if w.min() < -PSD_TOL:
        raise ValueError("B is not positive semidefinite")
    P = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    triple = SchurmannTriple(g.z_vector(), P)
    m = g.size
    A = g.a_matrix()
    residual = max(
        abs(triple.l(((i, i, True), (j, j, False))) - A[i, j])
        for i in range(m) for j in range(m))
    return OThetaSchurmann(P=P, triple=triple, roundtrip_residual=float(residual))


# -- free orthogonal family -------------------------------------------------------------------


def pair_indices(m: int) -> tuple[list[tuple[int, int]], dict]:
    """Flattened enumeration of pairs (i, j), i < j, in block order.

    Block i lists (i, j) for j = i+1..m, so block widths are m-1, m-2, ...;
    the layout coincides with lexicographic order.
    """
    pairs = list(itertools.combinations(range(m), 2))
    return pairs, {p: k for k, p in enumerate(pairs)}


@dataclass(frozen=True)
class OPlusGeneratorSpec:
    """First-order matrix L (2n x 2n) and pair-indexed A (n(2n-1) square)."""

    n: int
    L: tuple[tuple[complex, ...], ...]
    A: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        m = 2 * self.n
        npairs = self.n * (2 * self.n - 1)
        L = np.asarray(self.L, dtype=complex)
        A = np.asarray(self.A, dtype=complex)
        if L.shape != (m, m):
            raise ValueError(f"L must be a {m}x{m} matrix")
        if A.shape != (npairs, npairs):
            raise ValueError(f"A must be a {npairs}x{npairs} matrix")

    @property
    def size(self) -> int:
        return 2 * self.n

    def l_matrix(self) -> np.ndarray:
        return np.array(self.L, dtype=complex)

    def a_matrix(self) -> np.ndarray:
        return np.array(self.A, dtype=complex)


def _oplus_contractions(m: int, i: int, j: int) -> list[tuple[float, tuple, tuple]]:
    """Terms (sign, p, q) of the symmetrization constraint for the pair (i, j).

    L_ij + L_ji = sum of sign * a_(p,q) over the terms, with pairs p, q:
    - sum_{k<i} a_(k,i,k,j) + sum_{i<k<j} a_(i,k,k,j) - sum_{k>j} a_(i,k,j,k).
    """
    return ([(-1.0, (k, i), (k, j)) for k in range(0, i)]
            + [(1.0, (i, k), (k, j)) for k in range(i + 1, j)]
            + [(-1.0, (i, k), (j, k)) for k in range(j + 1, m)])


def _oplus_constraint_rhs(A: np.ndarray, index: dict, m: int,
                          i: int, j: int) -> complex:
    """Right side of the symmetrization constraint for the pair (i, j)."""
    return sum((sign * A[index[p], index[q]] for sign, p, q in _oplus_contractions(m, i, j)),
               0.0 + 0.0j)


def oplus_noise_form(g: OPlusGeneratorSpec) -> np.ndarray:
    """B_{(i,j),(k,l)} = a_(i,j,k,l) - conj(L_ij) - L_kl over pairs i<j, k<l."""
    m = g.size
    pairs, index = pair_indices(m)
    L = g.l_matrix()
    A = g.a_matrix()
    lvec = np.array([L[i, j] for (i, j) in pairs])
    return A - np.conj(lvec)[:, None] - lvec[None, :]


@dataclass
class OPlusGeneratorReport:
    valid: bool
    qbm: bool
    B: np.ndarray
    min_eigenvalue: float
    min_singular_value: float
    constraint_residual: float
    hermitian_defect: float


def check_oplus_generator(g: OPlusGeneratorSpec) -> OPlusGeneratorReport:
    """Validity (B PSD and the linear constraint), QBM (B invertible)."""
    m = g.size
    pairs, index = pair_indices(m)
    L = g.l_matrix()
    A = g.a_matrix()
    B = oplus_noise_form(g)
    residual = 0.0
    for (i, j) in pairs:
        rhs = _oplus_constraint_rhs(A, index, m, i, j)
        residual = max(residual, abs(L[i, j] + L[j, i] - rhs))
    return OPlusGeneratorReport(B=B, constraint_residual=float(residual),
                                **_noise_form_verdict(B, residual <= CONSTRAINT_TOL))


# -- bi-invariance on the free orthogonal family -----------------------------------------------


@dataclass
class BiinvariantSolution:
    n: int
    dimension: int
    n_unknowns: int
    rank: int


def solve_biinvariant_oplus(n: int, include_biinvariance: bool = True) -> BiinvariantSolution:
    """Linear solution space for bi-invariant Gaussian data (L, A).

    Constraints: the pair symmetrization relations, the sum-of-squares
    identity 2 L_ii + sum_{k != i} a_(p,p) = 0 from the orthogonality
    relations, and (when requested) bi-invariance L_ij = 0 for i != j and
    A = 0.  With bi-invariance the space must be {0}; without it the
    space is nontrivial (Gaussian generators exist).
    """
    if n < 1 or n > 4:
        raise ValueError("n must be between 1 and 4")
    m = 2 * n
    pairs, index = pair_indices(m)
    npairs = len(pairs)
    n_l = m * m
    n_a = npairs * npairs
    n_unknowns = n_l + n_a

    def l_col(i, j):
        return i * m + j

    def a_col(p, q):
        return n_l + p * npairs + q

    def rows():
        for (i, j) in pairs:
            yield _row((l_col(i, j), 1.0), (l_col(j, i), 1.0),
                       *[(a_col(index[p], index[q]), -sign)
                         for sign, p, q in _oplus_contractions(m, i, j)])
        for i in range(m):
            diag = [index[(min(i, k), max(i, k))] for k in range(m) if k != i]
            yield _row((l_col(i, i), 2.0), *[(a_col(p, p), 1.0) for p in diag])
        if include_biinvariance:
            yield from ({l_col(i, j): 1.0} for i in range(m) for j in range(m) if i != j)
            yield from ({a_col(p, q): 1.0} for p in range(npairs) for q in range(npairs))

    rank = _rank(rows(), n_unknowns)
    return BiinvariantSolution(n=n, dimension=n_unknowns - rank,
                               n_unknowns=n_unknowns, rank=rank)


# -- sparse relation rows ---------------------------------------------------------------------


def _row(*entries: tuple[int, complex]) -> dict:
    """Sparse row {column: value}; entries on the same column add up."""
    row: dict = {}
    for col, value in entries:
        row[col] = row.get(col, 0.0) + value
    return row


def _rank(rows: Iterable[dict], n_unknowns: int) -> int:
    """Rank at the absolute tolerance RANK_TOL of sparse rows over n_unknowns columns.

    The rows are read once.  Only exact zeros are dropped: a coefficient
    1 - lam_ij lam_ji can be one ulp off zero, and the dense rank sees it
    too.  A union-find joins the columns of each row as it arrives; the
    nonzero entries are kept once, in flat column and value lists cut at
    the row ends.  The dense blocks of one shape share one SVD.
    """
    parent = list(range(n_unknowns))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    cols, vals, ends = [], [], [0]
    for row in rows:
        for c, v in row.items():
            if v != 0:
                cols.append(c)
                vals.append(v)
        if len(cols) > ends[-1]:
            root = find(cols[ends[-1]])
            for k in range(ends[-1] + 1, len(cols)):
                parent[find(cols[k])] = root
            ends.append(len(cols))
    blocks: dict = defaultdict(list)
    for start, end in itertools.pairwise(ends):
        blocks[find(cols[start])].append(range(start, end))
    by_shape: dict = defaultdict(list)
    for block in blocks.values():
        local = {c: k for k, c in enumerate({cols[k] for row in block for k in row})}
        dense = np.zeros((len(block), len(local)), dtype=complex)
        for r, row in enumerate(block):
            for k in row:
                dense[r, local[cols[k]]] = vals[k]
        by_shape[dense.shape].append(dense)
    return sum(int(np.count_nonzero(np.linalg.svd(np.stack(same), compute_uv=False) > RANK_TOL))
               for same in by_shape.values())


# -- epsilon-derivation dimensions ----------------------------------------------------------------


def _otheta_derivation_system(n: int) -> tuple[Iterable[dict], int]:
    """Constraint rows on (c, c_hat, d, d_hat) from the deformed relations.

    A generic deformation matrix (fixed seed) realizes the irrational-angle
    situation; the surviving solutions are diagonal c with c_hat = -c and
    vanishing d, d_hat.  Only tuples that a relation mentions get rows; the
    closing family (c_hat = -c^T, antisymmetric d, d_hat) comes last.
    """
    m = 2 * n
    rng = np.random.default_rng(20240817)
    upper = rng.uniform(0.07, 0.43, size=(m, m))
    theta = np.triu(upper, 1)
    theta = theta - theta.T
    lam = np.exp(2j * np.pi * theta).tolist()

    n_unknowns = 4 * m * m

    def c_col(i, j):
        return i * m + j

    def chat_col(i, j):
        return m * m + i * m + j

    def d_col(i, j):
        return 2 * m * m + i * m + j

    def dhat_col(i, j):
        return 3 * m * m + i * m + j

    def rows():
        for mu, nu, tau, rho in itertools.product(range(m), repeat=4):
            if tau != rho and mu != nu:
                continue  # no relation mentions this tuple
            f = 1.0 - lam[mu][tau] * lam[rho][nu]
            f2 = 1.0 - lam[tau][mu] * lam[nu][rho]
            # a a, a b, a a* and a b* commutations
            aa, ab, aas, abs_ = [], [], [], []
            if tau == rho:
                aa.append((c_col(mu, nu), f))
                aas.append((c_col(mu, nu), f2))
            if mu == nu:
                aa.append((c_col(tau, rho), f))
                ab.append((d_col(tau, rho), f))
                aas.append((chat_col(tau, rho), f2))
                abs_.append((dhat_col(tau, rho), f2))
            yield from (_row(*es) for es in (aa, ab, aas, abs_) if es)
        for alpha in range(m):
            for beta in range(m):
                yield _row((chat_col(beta, alpha), 1.0), (c_col(alpha, beta), 1.0))
                yield _row((d_col(alpha, beta), 1.0), (d_col(beta, alpha), 1.0))
                yield _row((dhat_col(alpha, beta), 1.0), (dhat_col(beta, alpha), 1.0))

    return rows(), n_unknowns


def _oplus_derivation_system(n: int) -> tuple[Iterable[dict], int]:
    """eta(x_ij) + eta(x_ji) = 0 from the orthogonality relations."""
    m = 2 * n
    rows = (_row((i * m + j, 1.0), (j * m + i, 1.0)) for i in range(m) for j in range(i, m))
    return rows, m * m


def _torus_derivation_system() -> tuple[Iterable[dict], int]:
    """Unitarity relations on (c_U, c_U*, c_V, c_V*) for the plain torus."""
    return [{0: 1.0, 1: 1.0}, {2: 1.0, 3: 1.0}], 4


def epsilon_derivation_dim(group: str, verify: bool = False) -> int:
    """Dimension of the epsilon-derivation space: 2n, n(2n-1), or 2.

    Group names: "otheta(n)", "oplus(n)", "torus".  With verify=True the
    formula is checked against the null space of the derivation constraint
    system assembled from the defining relations.
    """
    group = group.strip().lower()
    m = _re.fullmatch(r"(otheta|oplus)\((\d+)\)", group)
    if group == "torus":
        expected, system = 2, _torus_derivation_system
    elif m is None:
        raise ValueError("group must be 'otheta(n)', 'oplus(n)' or 'torus'")
    else:
        kind, n = m.group(1), int(m.group(2))
        if n < 1:
            raise ValueError("n must be a positive integer")
        if kind == "otheta":
            expected, system = 2 * n, lambda: _otheta_derivation_system(n)
        else:
            expected, system = n * (2 * n - 1), lambda: _oplus_derivation_system(n)
    if verify:
        rows, unknowns = system()
        computed = unknowns - _rank(rows, unknowns)
        if computed != expected:
            raise RuntimeError(
                f"derivation null space has dimension {computed}, expected {expected}")
    return expected


# -- convolution exponentials --------------------------------------------------------------------


@dataclass(frozen=True)
class CoalgebraMatrix:
    """Values [l(u_ij)] of a functional on a d-dimensional matrix corepresentation."""

    d: int
    Lmat: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        mat = np.asarray(self.Lmat, dtype=complex)
        if mat.shape != (self.d, self.d):
            raise ValueError(f"Lmat must be a {self.d}x{self.d} matrix")

    def matrix(self) -> np.ndarray:
        return np.array(self.Lmat, dtype=complex)


def convolution_exp(C: CoalgebraMatrix, t: float) -> np.ndarray:
    """Convolution exponential of t*l on a matrix corepresentation.

    The coproduct of a matrix corepresentation turns convolution powers into
    matrix powers, so the exponential series is the matrix exponential.  It
    is computed by scaling and squaring: X = t*L is halved s times until
    ||X / 2^s||_1 <= 1/2, where the Taylor series to degree 18 leaves a
    remainder below 1e-22, and the sum is squared s times.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    X = t * C.matrix()
    norm = float(np.abs(X).sum(axis=0).max())
    s = 0 if norm <= 0.5 else math.frexp(norm)[1] + 1
    Y = X / 2.0 ** s
    eye = np.eye(C.d, dtype=complex)
    E = eye
    for k in range(18, 0, -1):
        E = eye + (Y @ E) / k
    for _ in range(s):
        E = E @ E
    return E


# -- specs from decoded JSON -----------------------------------------------------------------------


def _real_from_json(value) -> float:
    """A JSON number that is not a bool and that a float holds finitely."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(real := float(value)):
                return real
        except OverflowError:
            pass
    raise ValueError("complex values must be finite numbers or [re, im] pairs of them")


def _complex_from_json(value) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_real_from_json(value[0]), _real_from_json(value[1]))
    return complex(_real_from_json(value))


def _size_from_json(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError("n must be an integer")


def _complex_matrix_from_json(value, name: str) -> tuple[tuple[complex, ...], ...]:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ValueError(f"{name} must be a matrix (list of lists)")
    return tuple(tuple(_complex_from_json(x) for x in row) for row in value)


def generator_spec_from_data(data):
    """Builds a generator spec from decoded JSON; malformed data raises ValueError."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("generator spec must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "torus":
            return TorusGeneratorSpec(l10=_complex_from_json(data["l10"]),
                                      l01=_complex_from_json(data["l01"]),
                                      l11=_complex_from_json(data["l11"]))
        if kind == "otheta":
            z = data["z"]
            if not isinstance(z, list):
                raise ValueError("z must be a list")
            return OThetaGeneratorSpec(
                n=_size_from_json(data["n"]),
                z=tuple(_complex_from_json(x) for x in z),
                A=_complex_matrix_from_json(data["A"], "A"))
        if kind == "oplus":
            return OPlusGeneratorSpec(
                n=_size_from_json(data["n"]),
                L=_complex_matrix_from_json(data["L"], "L"),
                A=_complex_matrix_from_json(data["A"], "A"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed generator spec: {exc}") from exc
    raise ValueError(f"unknown generator type: {kind!r}")


def check_generator_spec(spec):
    """Dispatches a parsed spec to the matching checker."""
    if isinstance(spec, TorusGeneratorSpec):
        return check_torus_generator(spec)
    if isinstance(spec, OThetaGeneratorSpec):
        return check_otheta_generator(spec)
    if isinstance(spec, OPlusGeneratorSpec):
        return check_oplus_generator(spec)
    raise TypeError(f"not a generator spec: {type(spec).__name__}")
