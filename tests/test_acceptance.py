"""End-to-end acceptance checks, one test per shipped guarantee.

Each test pins the tolerances and runtime budgets the package promises;
`conftest.py` prints a PASS/FAIL line per criterion after the run.  All
randomness is seeded, so outcomes are reproducible.
"""

import math
import time

import numpy as np

from ncqbm.banded import (
    RieffelProjectionSpec,
    build_rieffel_projection,
    is_projection,
)
from ncqbm.exit_times import (
    ExitFamily,
    classical_circle_benchmark,
    extract_invariants,
    gamma_estimate,
    paper_series_check,
    run_exit_asymptotics,
    run_survival_comparison,
)
from ncqbm.flow import SemigroupSpec, sample_path, stream_rng, vacuum_expectation_mc
from ncqbm.generators import (
    CoalgebraMatrix,
    OPlusGeneratorSpec,
    OThetaGeneratorSpec,
    TorusGeneratorSpec,
    check_oplus_generator,
    check_otheta_generator,
    check_torus_generator,
    convolution_exp,
    epsilon_derivation_dim,
    solve_biinvariant_oplus,
)
from ncqbm.lattice import (
    compare_iterative_to_closed_form,
    meet_along_path,
    meet_along_path_operator,
)
from ncqbm.torus import AlgebraContext, TorusElement

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_criterion_01_projection_identities():
    start = time.perf_counter()
    spec = RieffelProjectionSpec(theta=GOLDEN, epsilon=GOLDEN / 2.0, scale_k=1)
    p = build_rieffel_projection(spec, n=4096)
    report = is_projection(p)
    elapsed = time.perf_counter() - start
    assert report.sup_idempotent < 1e-10
    assert report.sup_hermitian < 1e-12
    assert abs(report.trace - GOLDEN) < 1e-12
    assert elapsed < 1.0, f"projection check took {elapsed:.2f}s"


def test_criterion_02_meet_oracle_equivalence():
    start = time.perf_counter()
    spec = RieffelProjectionSpec(theta=GOLDEN, epsilon=GOLDEN / 4.0, scale_k=1)
    eps = spec.epsilon
    rng = stream_rng(20260815, 50)
    worst = 0.0
    for _ in range(50):
        s = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 1.0))
        s2 = s + float(rng.uniform(-1.0, 1.0)) * 0.99 * eps / 4.0
        t2 = float(rng.uniform(0.0, 1.0))
        diff, report, _arcs = compare_iterative_to_closed_form(
            spec, s, t, s2, t2, n=2048, max_iter=500)
        assert report.converged and report.iterations <= 500
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    assert worst < 1e-6, f"worst sup-difference {worst:.3e}"
    assert elapsed < 30.0, f"meet comparison took {elapsed:.2f}s"


def test_criterion_03_path_meets_lie_in_diagonal_algebra():
    start = time.perf_counter()
    spec = RieffelProjectionSpec(theta=GOLDEN, epsilon=GOLDEN / 4.0, scale_k=1)
    n = 512
    # Error budget of the mass comparison: the operator fold lags the
    # sampled intersection by at most one range quantum q per edge, and
    # each edge rounds to the grid (1/n).
    q = max(spec.epsilon / 16.0, 8.0 / n)
    worst = 0.0
    for k in range(100):
        path = sample_path(dim=2, horizon=0.02, dt=0.005, sigma2=1.0, seed=3000 + k)
        fold = meet_along_path_operator(spec, path, n=n, min_iter=40)
        assert fold.converged
        worst = max(worst, fold.result.off_diagonal_sup())
        # Both folds meet the same refined samples.
        arcs = meet_along_path(spec, path)
        assert arcs.levels_used == fold.levels_used, k
        assert arcs.n_points == fold.n_samples, k
        # Non-vacuity: the diagonal part must carry the same mass as the
        # interval fold, so a silently collapsed iterate cannot pass.
        trace = float(np.real(np.mean(fold.result.band(0).samples)))
        assert -2.0 / n <= trace - arcs.intervals.measure() <= 2.0 * q + 2.0 / n, k
    elapsed = time.perf_counter() - start
    assert worst < 1e-8, f"worst off-diagonal band sup {worst:.3e}"
    assert elapsed < 30.0, f"path meets took {elapsed:.2f}s"


def test_criterion_04_heat_semigroup_monte_carlo(capsys):
    start = time.perf_counter()
    ctx = AlgebraContext(GOLDEN)
    u = TorusElement.monomial(ctx, 1, 0)
    spec = SemigroupSpec(sigma2=1.0, drift=(0.0, 0.0))
    _, report = vacuum_expectation_mc(u, 0.05, spec, n_paths=100_000, seed=20260815)
    elapsed = time.perf_counter() - start
    exact = math.exp(-0.1 * math.pi ** 2)
    est = report.coefficient(1, 0)
    err = abs(est.mean - exact)
    # The estimator's exact standard error at 1e5 paths is 0.52% of the
    # value, so the error budget is stated absolutely: stderr < 0.005.
    with capsys.disabled():
        print(f"\n[criterion 4] stderr absolute {est.stderr:.6f}, "
              f"relative {est.stderr / exact:.4%}, |error| {err:.6f}")
    assert err <= 3.0 * est.stderr
    assert est.stderr < 0.005
    assert elapsed < 10.0, f"Monte Carlo took {elapsed:.2f}s"


def test_criterion_05_exit_time_leading_order():
    start = time.perf_counter()
    family = ExitFamily.golden(6)
    assert [lvl.k for lvl in family.levels] == [1, 2, 3, 5, 8, 13]
    report = run_exit_asymptotics(family, n_paths=10_000, seed=20260815, sigma2=2.0)
    elapsed = time.perf_counter() - start
    assert 1.9 <= report.fit.slope <= 2.1
    assert report.fit.n0 == 1
    assert abs(report.fit.c1 - 1.0 / 32.0) <= 0.1 / 32.0
    assert elapsed < 300.0, f"exit-time sweep took {elapsed:.2f}s"


def test_criterion_06_pathwise_reduction_exactness():
    family = ExitFamily.golden(6)
    comparison = run_survival_comparison(family, index=3, n_paths=2000, seed=11)
    assert comparison.indicators_equal
    assert comparison.max_step_difference == 0

    reduced = gamma_estimate(family, 3, "reduced", n_paths=4000, seed=101)
    operator = gamma_estimate(family, 3, "operator", n_paths=4000, seed=202)
    combined = math.hypot(reduced.stderr, operator.stderr)
    assert abs(reduced.gamma - operator.gamma) <= 3.0 * combined


def test_criterion_07_invariant_arithmetic():
    report = extract_invariants(1, 2.0 ** -5, 2.0 ** -11 / 3.0)
    assert report.d == 5.0
    assert abs(report.h - 1.0 / (2.0 * math.sqrt(2.0))) < 1e-14
    assert not report.h_imaginary


def test_criterion_08_series_discrepancy_surfacing(capsys):
    series = paper_series_check()
    with capsys.disabled():
        print(f"\n[criterion 8] quartic coefficient computed {series.c4:.3e}, "
              f"reference {series.reference_c4:.6e} (reported, not asserted)")
    assert abs(series.c2 - 1.0 / 32.0) < 1e-8
    assert series.c2_matches
    assert series.reference_c4 == 1.0 / 6144.0


def test_criterion_09_generator_suite():
    start = time.perf_counter()

    diag = check_torus_generator(TorusGeneratorSpec(-1.0, -1.0, -2.0))
    assert diag.gaussian_valid and diag.qbm
    boundary = check_torus_generator(TorusGeneratorSpec(-1.0, -1.0, 0.0))
    assert boundary.gaussian_valid and not boundary.qbm
    zero = check_torus_generator(TorusGeneratorSpec(0.0, 0.0, 0.0))
    assert zero.gaussian_valid and not zero.qbm
    bad = check_torus_generator(TorusGeneratorSpec(1.0, -1.0, 0.0))
    assert not bad.gaussian_valid

    rank_one = check_otheta_generator(OThetaGeneratorSpec(
        n=1, z=(-1.0, -1.0), A=((0.0, 0.0), (0.0, 0.0))))
    assert rank_one.valid and not rank_one.qbm and rank_one.biinvariant

    scalar = check_oplus_generator(OPlusGeneratorSpec(
        n=1, L=((0.0, 1.0), (-1.0, 0.0)), A=((3.0,),)))
    assert scalar.valid and scalar.qbm

    for n in (1, 2, 3):
        assert epsilon_derivation_dim(f"otheta({n})", verify=True) == 2 * n
        assert epsilon_derivation_dim(f"oplus({n})", verify=True) == n * (2 * n - 1)
    assert epsilon_derivation_dim("torus", verify=True) == 2

    for n in (1, 2, 3):
        assert solve_biinvariant_oplus(n).dimension == 0

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"generator suite took {elapsed:.2f}s"


def test_criterion_10_coalgebra_exponential():
    rng = np.random.default_rng(20260815)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    c = CoalgebraMatrix(4, tuple(tuple(row) for row in mat))
    for s, t in [(0.3, 0.6), (0.05, 1.2), (1.0, 1.0)]:
        lhs = convolution_exp(c, s) @ convolution_exp(c, t)
        rhs = convolution_exp(c, s + t)
        assert np.linalg.norm(lhs - rhs, 2) < 1e-10

    l_u = -2.0 * math.pi ** 2 + 2j * math.pi * 0.3
    group_like = CoalgebraMatrix(1, ((l_u,),))
    for t in (0.0, 0.05, 0.7):
        value = convolution_exp(group_like, t)[0, 0]
        assert abs(value - np.exp(t * l_u)) < 1e-12


def test_criterion_11_classical_circle_benchmark():
    bench = classical_circle_benchmark()
    assert abs(bench.d - 2.0) <= 0.05
    assert abs(bench.h_squared - 1.0) <= 0.05
