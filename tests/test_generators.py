"""Generator validation, Schurmann construction, and convolution exponentials."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqbm import generators
from ncqbm.flow import SemigroupSpec
from ncqbm.generators import (
    CoalgebraMatrix,
    OPlusGeneratorSpec,
    OThetaGeneratorSpec,
    TorusGeneratorSpec,
    build_otheta_schurmann,
    check_generator_spec,
    check_oplus_generator,
    check_otheta_generator,
    check_torus_generator,
    convolution_exp,
    epsilon_derivation_dim,
    gaussian_third_order_residual,
    generator_spec_from_data,
    oplus_noise_form,
    otheta_noise_form,
    pair_indices,
    solve_biinvariant_oplus,
)


def flow_torus_generator(spec: SemigroupSpec) -> tuple[complex, complex, complex]:
    """Generator values (l(U), l(V), l(UV)) induced by the heat semigroup."""
    mu, nu = spec.drift_vector
    s = -2.0 * math.pi ** 2 * spec.sigma2
    l10 = s + 2j * math.pi * mu
    l01 = s + 2j * math.pi * nu
    l11 = 2.0 * s + 2j * math.pi * (mu + nu)
    return l10, l01, l11


# -- torus -------------------------------------------------------------------------


def test_torus_reference_examples():
    rep = check_torus_generator(TorusGeneratorSpec(-1, -1, -2))
    assert rep.gaussian_valid and rep.qbm
    assert rep.cross_term == 0
    assert rep.strict_threshold == pytest.approx(2.0)

    boundary = check_torus_generator(TorusGeneratorSpec(-1, -1, 0))
    assert boundary.gaussian_valid and not boundary.qbm
    assert boundary.cross_term == 2

    zero = check_torus_generator(TorusGeneratorSpec(0, 0, 0))
    assert zero.gaussian_valid and not zero.qbm


def test_torus_invalid_cases():
    # Positive real part on a diagonal value breaks the Gram matrix.
    assert not check_torus_generator(TorusGeneratorSpec(1, -1, 0)).gaussian_valid
    # Cross term too large in magnitude (negative side) also breaks PSD.
    low = check_torus_generator(TorusGeneratorSpec(-1, -1, -10))
    assert not low.gaussian_valid and not low.qbm


def test_torus_nonreal_cross_term_reported():
    rep = check_torus_generator(TorusGeneratorSpec(-1, -1, -2 + 0.5j))
    assert rep.gaussian_valid
    assert not rep.cross_term_is_real
    assert not rep.qbm
    assert rep.cross_term == pytest.approx(0.5j)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_torus_check_symmetric_under_swap(seed):
    rng = np.random.default_rng(seed)
    l10, l01, l11 = (complex(a, b) for a, b in rng.normal(size=(3, 2)) * 2.0)
    a = check_torus_generator(TorusGeneratorSpec(l10, l01, l11))
    b = check_torus_generator(TorusGeneratorSpec(l01, l10, l11))
    assert a.gaussian_valid == b.gaussian_valid
    assert a.qbm == b.qbm
    # The two subtraction orders may differ by an ulp.
    assert abs(a.cross_term - b.cross_term) <= 1e-12 * (1.0 + abs(a.cross_term))
    assert np.allclose(sorted(a.gram_eigenvalues), sorted(b.gram_eigenvalues))


def test_flow_generator_is_valid_gaussian():
    spec = SemigroupSpec(sigma2=1.3, drift=(0.2, -0.4))
    g = TorusGeneratorSpec(*flow_torus_generator(spec))
    rep = check_torus_generator(g)
    assert rep.gaussian_valid
    assert rep.qbm
    assert rep.cross_term == pytest.approx(0.0, abs=1e-12)


# -- theta-deformed orthogonal family ----------------------------------------------------


def test_otheta_rank_one_noise_form():
    for n in (1, 2):
        m = 2 * n
        g = OThetaGeneratorSpec(n=n, z=(-1.0,) * m,
                                A=tuple(tuple(0.0 for _ in range(m)) for _ in range(m)))
        rep = check_otheta_generator(g)
        assert rep.valid and not rep.qbm
        assert rep.biinvariant
        assert np.allclose(rep.B, 2.0 * np.ones((m, m)))
        eigs = np.sort(np.linalg.eigvalsh(rep.B))
        assert eigs[-1] == pytest.approx(4.0 * n)
        assert np.allclose(eigs[:-1], 0.0, atol=1e-12)


def test_otheta_diagonal_noise_form_is_qbm():
    m = 2
    A = -2.0 * (np.ones((m, m)) - np.eye(m))
    g = OThetaGeneratorSpec(n=1, z=(-1.0, -1.0), A=tuple(map(tuple, A)))
    rep = check_otheta_generator(g)
    assert rep.valid and rep.qbm
    assert np.allclose(rep.B, 2.0 * np.eye(m))
    assert rep.min_singular_value == pytest.approx(2.0)


def test_otheta_positive_real_part_invalid():
    g = OThetaGeneratorSpec(n=1, z=(1.0, -1.0), A=((0.0, 0.0), (0.0, 0.0)))
    assert not check_otheta_generator(g).valid


def test_otheta_nonzero_diagonal_invalid():
    g = OThetaGeneratorSpec(n=1, z=(-1.0, -1.0), A=((0.5, 0.0), (0.0, 0.0)))
    rep = check_otheta_generator(g)
    assert not rep.valid
    assert rep.diagonal_defect == pytest.approx(0.5)


def test_otheta_nonhermitian_noise_form_invalid():
    g = OThetaGeneratorSpec(n=1, z=(-1.0, -1.0), A=((0.0, 1.0), (0.0, 0.0)))
    rep = check_otheta_generator(g)
    assert not rep.valid
    assert rep.hermitian_defect > 0.5


def test_otheta_biinvariance_requires_equal_real_z():
    base = ((0.0, 0.0), (0.0, 0.0))
    assert check_otheta_generator(
        OThetaGeneratorSpec(1, (-0.5, -0.5), base)).biinvariant
    assert not check_otheta_generator(
        OThetaGeneratorSpec(1, (-1.0, -2.0), base)).biinvariant
    assert not check_otheta_generator(
        OThetaGeneratorSpec(1, (-1.0 + 1j, -1.0 + 1j), base)).biinvariant


def test_otheta_shape_validation():
    with pytest.raises(ValueError, match="length"):
        OThetaGeneratorSpec(n=1, z=(-1.0,), A=((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(ValueError, match="matrix"):
        OThetaGeneratorSpec(n=1, z=(-1.0, -1.0), A=((0.0, 0.0),))


def _random_valid_otheta(n: int, seed: int) -> OThetaGeneratorSpec:
    """Valid spec with prescribed-diagonal PSD noise form."""
    rng = np.random.default_rng(seed)
    m = 2 * n
    z = -rng.uniform(0.2, 1.5, m) + 1j * rng.normal(size=m)
    w = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    corr = w @ w.conj().T
    d = np.sqrt(-2.0 * z.real)
    B = corr * np.outer(d, d)
    A = B + np.conj(z)[:, None] + z[None, :]
    np.fill_diagonal(A, 0.0)
    return OThetaGeneratorSpec(n=n, z=tuple(z), A=tuple(map(tuple, A)))


def test_schurmann_square_root_and_roundtrip():
    g = _random_valid_otheta(1, 7)
    assert check_otheta_generator(g).valid
    built = build_otheta_schurmann(g)
    B = otheta_noise_form(g)
    assert np.abs(built.P - built.P.conj().T).max() < 1e-12
    assert np.abs(built.P @ built.P - B).max() < 1e-12
    assert built.roundtrip_residual < 1e-12


def test_schurmann_zero_noise_form():
    z = (1.0j, -0.5j)
    A = np.conj(np.array(z))[:, None] + np.array(z)[None, :]
    np.fill_diagonal(A, 0.0)
    g = OThetaGeneratorSpec(n=1, z=z, A=tuple(map(tuple, A)))
    built = build_otheta_schurmann(g)
    assert np.abs(built.P).max() == 0.0
    assert built.roundtrip_residual < 1e-12


def test_schurmann_diagonal_noise_form():
    z = (-1.0, -2.0)
    A = np.array([[0.0, -3.0], [-3.0, 0.0]], dtype=complex)
    g = OThetaGeneratorSpec(n=1, z=z, A=tuple(map(tuple, A)))
    built = build_otheta_schurmann(g)
    assert np.allclose(built.P, np.diag([math.sqrt(2.0), 2.0]))


def test_schurmann_rejects_indefinite_noise_form():
    g = OThetaGeneratorSpec(n=1, z=(-1.0, -1.0),
                            A=((0.0, 5.0), (5.0, 0.0)))
    assert not check_otheta_generator(g).valid
    with pytest.raises(ValueError, match="positive semidefinite"):
        build_otheta_schurmann(g)


def test_degree_three_identity_small():
    g = _random_valid_otheta(1, 13)
    built = build_otheta_schurmann(g)
    m = g.size
    tokens = [(i, j, star) for i in range(m) for j in range(m)
              for star in (False, True)]
    assert gaussian_third_order_residual(built.triple, tokens) < 1e-10


def test_degree_three_identity_sampled_larger():
    g = _random_valid_otheta(2, 29)
    built = build_otheta_schurmann(g)
    m = g.size
    tokens = [(i, j, star) for i in range(m) for j in range(m)
              for star in (False, True)]
    rng = np.random.default_rng(5)
    sample = [tokens[k] for k in rng.integers(0, len(tokens), size=12)]
    assert gaussian_third_order_residual(built.triple, sample) < 1e-10


# -- free orthogonal family ---------------------------------------------------------------


def test_pair_index_bijection():
    for m in (2, 4, 6):
        pairs, index = pair_indices(m)
        assert len(pairs) == m * (m - 1) // 2
        assert set(pairs) == {(i, j) for i in range(m) for j in range(i + 1, m)}
        assert all(index[p] == k for k, p in enumerate(pairs))
        assert pairs == sorted(pairs)


def test_oplus_zero_data_valid():
    for n in (1, 2):
        npairs = n * (2 * n - 1)
        m = 2 * n
        g = OPlusGeneratorSpec(
            n=n,
            L=tuple(tuple(0.0 for _ in range(m)) for _ in range(m)),
            A=tuple(tuple(0.0 for _ in range(npairs)) for _ in range(npairs)))
        rep = check_oplus_generator(g)
        assert rep.valid and not rep.qbm
        assert rep.constraint_residual == 0.0
        assert np.abs(rep.B).max() == 0.0


def test_oplus_single_pair_scalar_case():
    g = OPlusGeneratorSpec(n=1, L=((0.0, 1.0), (-1.0, 0.0)), A=((3.0,),))
    rep = check_oplus_generator(g)
    assert rep.valid and rep.qbm
    assert rep.B[0, 0] == pytest.approx(1.0)

    boundary = OPlusGeneratorSpec(n=1, L=((0.0, 1.0), (-1.0, 0.0)), A=((2.0,),))
    rep2 = check_oplus_generator(boundary)
    assert rep2.valid and not rep2.qbm


def test_oplus_constraint_violation_detected():
    g = OPlusGeneratorSpec(n=1, L=((0.0, 1.0), (1.0, 0.0)), A=((2.0,),))
    rep = check_oplus_generator(g)
    assert not rep.valid
    assert rep.constraint_residual == pytest.approx(2.0)


def oplus_from_noise_form(n: int, B: np.ndarray) -> OPlusGeneratorSpec:
    """Back-solves (L, A) from a prescribed Hermitian PSD noise form B.

    A is B plus the rank-one corrections conj(L_ij) + L_kl, and L must then
    satisfy the symmetrization constraint, which becomes a real-linear
    system in (Re L, Im L) solved in least squares.  A residual above
    tolerance means the prescribed B admits no generator and raises.
    """
    m = 2 * n
    pairs, index = generators.pair_indices(m)
    npairs = len(pairs)
    B = np.asarray(B, dtype=complex)
    if B.shape != (npairs, npairs):
        raise ValueError(f"B must be a {npairs}x{npairs} matrix")

    # Complex equation per pair (i, j), with a_(p,q) = B_(p,q) + conj(L_p) + L_q:
    #   L_ij + L_ji - sum sign * [conj(L_p) + L_q]  =  sum sign * B_(p,q)
    n_unknowns = m * m
    coef = np.zeros((npairs, n_unknowns), dtype=complex)       # multiplies L
    coef_conj = np.zeros((npairs, n_unknowns), dtype=complex)  # multiplies conj(L)
    rhs = np.zeros(npairs, dtype=complex)

    def flat(i, j):
        return i * m + j

    for row, (i, j) in enumerate(pairs):
        coef[row, flat(i, j)] += 1.0
        coef[row, flat(j, i)] += 1.0
        for sign, p, q in generators._oplus_contractions(m, i, j):
            coef_conj[row, flat(*p)] -= sign
            coef[row, flat(*q)] -= sign
        rhs[row] = generators._oplus_constraint_rhs(B, index, m, i, j)

    # Real-ification: unknown x = [Re L; Im L].
    top = np.hstack([coef.real + coef_conj.real, -coef.imag + coef_conj.imag])
    bot = np.hstack([coef.imag + coef_conj.imag, coef.real - coef_conj.real])
    mat = np.vstack([top, bot])
    vec = np.concatenate([rhs.real, rhs.imag])
    sol, *_ = np.linalg.lstsq(mat, vec, rcond=None)
    if np.abs(mat @ sol - vec).max() > 1e-8:
        raise ValueError("no generator matches the prescribed noise form")
    L = (sol[:n_unknowns] + 1j * sol[n_unknowns:]).reshape(m, m)
    lvec = np.array([L[i, j] for (i, j) in pairs])
    A = B + np.conj(lvec)[:, None] + lvec[None, :]
    return OPlusGeneratorSpec(n=n,
                              L=tuple(map(tuple, L)),
                              A=tuple(map(tuple, A)))


def test_oplus_back_solve_roundtrip():
    rng = np.random.default_rng(17)
    npairs = 6
    w = rng.normal(size=(npairs, npairs)) + 1j * rng.normal(size=(npairs, npairs))
    B = w @ w.conj().T + 0.1 * np.eye(npairs)
    g = oplus_from_noise_form(2, B)
    rep = check_oplus_generator(g)
    assert rep.valid
    assert rep.qbm
    assert np.abs(oplus_noise_form(g) - B).max() < 1e-8


def test_oplus_back_solve_singular_noise_form():
    rng = np.random.default_rng(23)
    v = rng.normal(size=(6, 2))
    B = v @ v.T  # rank 2, PSD, singular
    g = oplus_from_noise_form(2, B.astype(complex))
    rep = check_oplus_generator(g)
    assert rep.valid
    assert not rep.qbm


def test_oplus_shape_validation():
    with pytest.raises(ValueError, match="matrix"):
        OPlusGeneratorSpec(n=1, L=((0.0,),), A=((0.0,),))
    with pytest.raises(ValueError, match="matrix"):
        OPlusGeneratorSpec(n=1, L=((0.0, 0.0), (0.0, 0.0)), A=((0.0, 0.0),))
    with pytest.raises(ValueError, match="6x6"):
        oplus_from_noise_form(2, np.zeros((5, 5)))


# -- bi-invariance solution space ----------------------------------------------------------


def test_biinvariant_solution_space_is_zero():
    for n in (1, 2, 3):
        sol = solve_biinvariant_oplus(n)
        assert sol.dimension == 0
        assert sol.n_unknowns == (2 * n) ** 2 + (n * (2 * n - 1)) ** 2


def test_without_biinvariance_solutions_exist():
    for n in (1, 2):
        sol = solve_biinvariant_oplus(n, include_biinvariance=False)
        assert sol.dimension > 0


def test_biinvariant_solver_range():
    with pytest.raises(ValueError):
        solve_biinvariant_oplus(0)
    with pytest.raises(ValueError):
        solve_biinvariant_oplus(5)


# -- epsilon-derivation dimensions ------------------------------------------------------------


def test_derivation_dimension_formulas():
    assert epsilon_derivation_dim("otheta(1)") == 2
    assert epsilon_derivation_dim("otheta(3)") == 6
    assert epsilon_derivation_dim("oplus(2)") == 6
    assert epsilon_derivation_dim("oplus(3)") == 15
    assert epsilon_derivation_dim("torus") == 2


def test_derivation_dimension_nullspace_verification():
    assert epsilon_derivation_dim("torus", verify=True) == 2
    assert epsilon_derivation_dim("otheta(1)", verify=True) == 2
    assert epsilon_derivation_dim("otheta(2)", verify=True) == 4
    assert epsilon_derivation_dim("oplus(1)", verify=True) == 1
    assert epsilon_derivation_dim("oplus(2)", verify=True) == 6
    assert epsilon_derivation_dim("oplus(3)", verify=True) == 15


def _dense_rank(rows, n_unknowns):
    dense = np.zeros((len(rows), n_unknowns), dtype=complex)
    for r, row in enumerate(rows):
        for c, v in row.items():
            dense[r, c] += v
    return int(np.linalg.matrix_rank(dense, tol=1e-8))


DERIVATION_SYSTEMS = {
    **{f"otheta({n})": lambda n=n: generators._otheta_derivation_system(n) for n in (1, 2, 3)},
    **{f"oplus({n})": lambda n=n: generators._oplus_derivation_system(n) for n in (1, 2, 3)},
    "torus": generators._torus_derivation_system,
}


@pytest.mark.parametrize("group", sorted(DERIVATION_SYSTEMS))
def test_block_rank_matches_dense_rank(group):
    rows, n_unknowns = DERIVATION_SYSTEMS[group]()
    assert generators._rank(rows, n_unknowns) == _dense_rank(rows, n_unknowns)


@pytest.mark.parametrize("include_biinvariance", [True, False])
def test_biinvariant_block_rank_matches_dense_rank(monkeypatch, include_biinvariance):
    seen = []
    rank = generators._rank

    def recording_rank(rows, n_unknowns):
        seen.append(_dense_rank(rows, n_unknowns))
        return rank(rows, n_unknowns)

    monkeypatch.setattr(generators, "_rank", recording_rank)
    for n in (1, 2, 3):
        sol = solve_biinvariant_oplus(n, include_biinvariance)
        assert sol.rank == seen[-1]
    assert len(seen) == 3


def _blocks(rows):
    """Dense blocks of the rows' exact nonzeros, joined by shared columns."""
    rows = [{c: v for c, v in row.items() if v != 0} for row in rows]
    rows = [row for row in rows if row]
    label = {}
    for r, row in enumerate(rows):
        # This row joins its columns and every block they touch under label r.
        merged = {label[c] for c in row if c in label}
        for c in label:
            if label[c] in merged:
                label[c] = r
        for c in row:
            label[c] = r
    groups = {}
    for row in rows:
        groups.setdefault(label[next(iter(row))], []).append(row)
    blocks = []
    for group in groups.values():
        cols = sorted({c for row in group for c in row})
        dense = np.zeros((len(group), len(cols)), dtype=complex)
        for r, row in enumerate(group):
            for c, v in row.items():
                dense[r, cols.index(c)] = v
        blocks.append(dense)
    return blocks


def _per_block_rank(rows):
    return sum(int(np.linalg.matrix_rank(block, tol=1e-8)) for block in _blocks(rows))


def _biinvariant_system(n, include_biinvariance):
    """The (rows, n_unknowns) that solve_biinvariant_oplus ranks."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators, "_rank", lambda rows, unknowns: seen.append((rows, unknowns)) or 0)
        solve_biinvariant_oplus(n, include_biinvariance)
    return seen[0]


# Every system that lab-checks ranks.
RANKED_SYSTEMS = {
    **DERIVATION_SYSTEMS,
    "otheta(4)": lambda: generators._otheta_derivation_system(4),
    **{f"biinvariant({n}, {include})": lambda n=n, include=include: _biinvariant_system(n, include)
       for n in (1, 2, 3, 4) for include in (True, False)},
}


@pytest.mark.parametrize("name", sorted(RANKED_SYSTEMS))
def test_block_rank_matches_per_block_rank(name):
    rows, n_unknowns = RANKED_SYSTEMS[name]()
    assert generators._rank(rows, n_unknowns) == _per_block_rank(rows)


@pytest.mark.parametrize("name", ["otheta(3)", "oplus(2)", "torus", "biinvariant(4, True)"])
def test_block_rank_runs_one_svd_per_block_shape(monkeypatch, name):
    rows, n_unknowns = RANKED_SYSTEMS[name]()
    svd = np.linalg.svd
    stacks = []

    def spy(a, *args, **kwargs):
        stacks.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    generators._rank(rows, n_unknowns)
    shapes = [block.shape for block in _blocks(rows)]
    assert sorted(shape[1:] for shape in stacks) == sorted(set(shapes))
    assert {shape[1:]: shape[0] for shape in stacks} == {
        shape: shapes.count(shape) for shape in set(shapes)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_otheta_system_has_only_nonempty_rows(n):
    m = 2 * n
    rows, n_unknowns = generators._otheta_derivation_system(n)
    assert n_unknowns == 4 * m * m
    assert len(rows) == 6 * m ** 3 + m ** 2
    assert all(rows)

    # c, c_hat, d, d_hat are the four m x m families of unknowns, in order.
    def col(family, i, j):
        return family * m * m + i * m + j

    # The closing family: c_hat = -c^T, then antisymmetric d and d_hat (a
    # diagonal entry of d gets coefficient 2).
    closing = [Counter(cols) for a in range(m) for b in range(m)
               for cols in ((col(1, b, a), col(0, a, b)), (col(2, a, b), col(2, b, a)),
                            (col(3, a, b), col(3, b, a)))]
    assert [dict(row) for row in rows[-3 * m * m:]] == closing


def test_block_rank_tolerance_is_absolute():
    # 1e9 and 1 in one block, then in two stacked 1x1 blocks: both count at
    # the absolute tolerance, where a relative one would drop the 1.  A lone
    # 1e-9 is below it.
    assert generators._rank([{0: 1e9}, {0: 1.0, 1: 1.0}], 2) == 2
    assert generators._rank([{0: 1e9}, {1: 1.0}], 2) == 2
    assert generators._rank([{0: 1e-9}], 1) == 0


def test_block_rank_keeps_tiny_links():
    # Column 2 is linked to columns {0, 1} only through a 1e-16 entry.  The
    # link row differs from {2: 1} by that entry, so the two have rank 1 at
    # tol 1e-8; ranking them in separate blocks would count 2.  Column 3
    # holds only an exact zero and joins no block.
    rows = [{0: 1.0, 1: 1.0}, {1: 1e-16, 2: 1.0}, {2: 1.0}, {3: 0.0}]
    assert generators._rank(rows, 4) == _dense_rank(rows, 4) == 2
    assert generators._rank([{0: 0.0}], 1) == 0


def test_derivation_verification_fails_without_a_relation_family(monkeypatch):
    build = generators._otheta_derivation_system

    def without_symmetry_relations(n):
        # Drops the closing family: c_hat = -c^T and antisymmetric d, d_hat.
        rows, n_unknowns = build(n)
        return rows[:-3 * (2 * n) ** 2], n_unknowns

    monkeypatch.setattr(generators, "_otheta_derivation_system", without_symmetry_relations)
    assert epsilon_derivation_dim("otheta(2)") == 4
    with pytest.raises(RuntimeError, match="expected 4"):
        epsilon_derivation_dim("otheta(2)", verify=True)


def test_derivation_systems_stay_small_in_memory():
    tracemalloc.start()
    try:
        epsilon_derivation_dim("otheta(4)", verify=True)
        solve_biinvariant_oplus(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_derivation_dimension_parse_errors():
    with pytest.raises(ValueError):
        epsilon_derivation_dim("su(2)")
    with pytest.raises(ValueError):
        epsilon_derivation_dim("otheta(0)")


# -- convolution exponentials ---------------------------------------------------------------


def test_convolution_exp_identity_at_zero():
    C = CoalgebraMatrix(d=3, Lmat=tuple(map(tuple, np.diag([1.0, 2.0, -1.0]))))
    assert np.array_equal(convolution_exp(C, 0.0), np.eye(3))


def test_convolution_exp_group_like():
    lu = -2.0 * math.pi ** 2 + 0.3j
    C = CoalgebraMatrix(d=1, Lmat=((lu,),))
    for t in (0.1, 0.7, 2.0):
        val = convolution_exp(C, t)[0, 0]
        assert abs(val - np.exp(t * lu)) < 1e-12


def test_convolution_exp_semigroup_law():
    rng = np.random.default_rng(31)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    C = CoalgebraMatrix(d=4, Lmat=tuple(map(tuple, mat)))
    s, t = 0.3, 0.9
    lhs = convolution_exp(C, s) @ convolution_exp(C, t)
    rhs = convolution_exp(C, s + t)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_convolution_exp_jordan_block():
    a = -0.7 + 2.0j
    C = CoalgebraMatrix(d=2, Lmat=((a, 1.0), (0.0, a)))
    for t in (0.3, 2.5, 10.0):
        exact = np.exp(a * t) * np.array([[1.0, t], [0.0, 1.0]])
        err = np.abs(convolution_exp(C, t) - exact).max() / np.abs(exact).max()
        assert err < 1e-13


def test_convolution_exp_diagonal():
    lam = np.array([-3.0, 0.5 + 4.0j, -0.2 - 7.0j])
    C = CoalgebraMatrix(d=3, Lmat=tuple(map(tuple, np.diag(lam))))
    for t in (0.1, 1.0, 3.0):
        got = convolution_exp(C, t)
        assert np.abs(got - np.diag(np.exp(t * lam))).max() < 1e-14 * np.abs(got).max()


def test_convolution_exp_diagonalizable_large_norm():
    # V e^{t Lambda} V^{-1} with cond(V) ~ 3 and ||tC||_1 = 50: seven squarings.
    rng = np.random.default_rng(5)
    V = np.eye(4) + 0.3 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    lam = np.array([-1.0 + 12.0j, 0.5 - 9.0j, -0.3 + 3.0j, 0.2 - 15.0j])
    mat = V @ np.diag(lam) @ np.linalg.inv(V)
    t = 50.0 / np.abs(mat).sum(axis=0).max()
    exact = V @ np.diag(np.exp(t * lam)) @ np.linalg.inv(V)
    got = convolution_exp(CoalgebraMatrix(d=4, Lmat=tuple(map(tuple, mat))), t)
    assert np.linalg.norm(got - exact) < 1e-12 * np.linalg.norm(exact)


def test_convolution_exp_validation():
    C = CoalgebraMatrix(d=2, Lmat=((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(ValueError, match="nonnegative"):
        convolution_exp(C, -0.1)
    with pytest.raises(ValueError, match="matrix"):
        CoalgebraMatrix(d=2, Lmat=((0.0,),))


# -- specs from decoded JSON -------------------------------------------------------------------


def test_json_torus_roundtrip():
    spec = generator_spec_from_data({"type": "torus", "l10": -1.0, "l01": -1.0,
                                     "l11": [-2.0, 0.0]})
    assert spec == TorusGeneratorSpec(-1.0, -1.0, -2.0)
    rep = check_generator_spec(spec)
    assert rep.gaussian_valid is True and rep.qbm is True
    assert rep.cross_term == 0.0 and rep.cross_term_is_real


def test_json_otheta_and_oplus():
    otheta = generator_spec_from_data({
        "type": "otheta", "n": 1, "z": [-1.0, [-1.0, 0.0]],
        "A": [[0.0, 0.0], [0.0, 0.0]]})
    assert isinstance(otheta, OThetaGeneratorSpec)
    assert check_generator_spec(otheta).valid

    oplus = generator_spec_from_data({
        "type": "oplus", "n": 1, "L": [[0.0, 1.0], [-1.0, 0.0]],
        "A": [[3.0]]})
    assert isinstance(oplus, OPlusGeneratorSpec)
    assert check_generator_spec(oplus).qbm


def test_json_malformed_inputs():
    # Undecodable text is the CLI's to reject (test_cli's malformed JSON test).
    with pytest.raises(ValueError, match="type"):
        generator_spec_from_data([1, 2])
    with pytest.raises(ValueError, match="type"):
        generator_spec_from_data({"l10": -1.0})
    with pytest.raises(ValueError, match="unknown generator type"):
        generator_spec_from_data({"type": "heisenberg"})
    with pytest.raises(ValueError, match="malformed generator spec"):
        generator_spec_from_data({"type": "torus", "l10": -1.0})
    with pytest.raises(ValueError, match="complex"):
        generator_spec_from_data({"type": "torus", "l10": "x", "l01": -1.0, "l11": 0.0})
    with pytest.raises(TypeError):
        check_generator_spec("not a spec")
