"""Exit-time engines, continued-fraction family, and asymptotics extraction."""

import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ncqbm import exit_times
from ncqbm.banded import RieffelProjectionSpec, build_rieffel_projection, is_projection
from ncqbm.exit_times import (
    DEFAULT_SIGMA2,
    AsymptoticsReport,
    ExitFamily,
    StepCapExceeded,
    _exit_steps,
    classical_circle_benchmark,
    convergents,
    exit_time_oracle_exact,
    extract_invariants,
    fit_asymptotics,
    gamma_estimate,
    paper_series_check,
    reduced_angle,
    run_exit_asymptotics,
    run_survival_comparison,
)
from ncqbm.flow import BrownianPath, stream_rng
from ncqbm.lattice import meet_along_path, plateau_set

from oracles import (
    certified_convergents_oracle,
    chi2_sf,
    exit_steps_chunkwise,
    exit_time_mean_exact,
    exit_time_survival_exact,
    killed_walk_exit_survival,
    killed_walk_mean_exit_step,
    reduced_angle_oracle,
    weighted_power_fit,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def projection_spec(level):
    # The projection lives in the angle variable of U^{+-k}; its effective
    # rotation parameter is the reduced angle v.
    return RieffelProjectionSpec(theta=level.v, epsilon=level.v / 2.0, scale_k=1)


# -- continued fractions ---------------------------------------------------------------


def test_convergents_golden_fibonacci():
    assert convergents(GOLDEN, 6) == [1, 2, 3, 5, 8, 13]
    assert convergents(GOLDEN, 6) == certified_convergents_oracle(GOLDEN, 6)


def test_convergents_sqrt2():
    # sqrt(2) - 1 = [0; 2, 2, 2, ...] so q_{n+1} = 2 q_n + q_{n-1}.
    assert convergents(math.sqrt(2.0) - 1.0, 5) == [2, 5, 12, 29, 70]


def test_convergents_short_decimal():
    # 0.123 = [0; 8, 7, 1, 2, 4 or 5, ...]: its half-ulp interval splits at the fifth.
    assert convergents(0.123, 4) == [8, 57, 65, 187]


def test_convergents_rejects_rational():
    with pytest.raises(ValueError, match="rational theta"):
        convergents(0.5, 3)
    with pytest.raises(ValueError, match="rational theta"):
        convergents(0.25, 1)


# Families theta determines (accepted) and ones it does not (rejected): the
# half-ulp interval of 1/pi shares 13 partial quotients, e - 2 19, sqrt(2) - 1
# 21, 0.123 4 and 0.3 one.  The double 0.3 alone expands as
# [0; 3, 2, 1, 900719925474098, 2], which would pass 4 levels.
CERTIFIED = [(GOLDEN, 20), (math.sqrt(2.0) - 1.0, 10), (math.sqrt(2.0) - 1.0, 20),
             (math.e - 2.0, 19), (1.0 / math.pi, 6), (1.0 / math.pi, 10),
             (1.0 / math.pi, 13), (0.123, 4)]
UNDETERMINED = [(1.0 / math.pi, 14), (math.e - 2.0, 20), (0.123, 5), (0.3, 4),
                (0.5, 1), (0.25, 1), (0.1, 1)]


@pytest.mark.parametrize("theta, count", CERTIFIED)
def test_family_matches_exact_oracle(theta, count):
    fam = ExitFamily.from_convergents(theta, count)
    ks = certified_convergents_oracle(theta, count)
    assert list(fam.ks) == ks and len(ks) == count
    assert fam.v == [reduced_angle_oracle(k, theta) for k in ks]


@pytest.mark.parametrize("theta, count", UNDETERMINED)
def test_convergents_reject_undetermined_levels(theta, count):
    determined = len(certified_convergents_oracle(theta, count))
    assert determined < count
    with pytest.raises(ValueError,
                       match=f"rational theta: .* determines {determined} of the {count} "):
        convergents(theta, count)


def test_convergents_input_validation():
    with pytest.raises(ValueError):
        convergents(GOLDEN, 0)
    with pytest.raises(ValueError):
        convergents(1.5, 3)
    # No fixed level cap: the golden double determines 37 levels, and 38 is
    # rejected by the certified rule, not by a count limit.
    assert len(convergents(GOLDEN, 37)) == 37
    with pytest.raises(ValueError, match="determines 37 of the 38"):
        convergents(GOLDEN, 38)


# -- family geometry --------------------------------------------------------------------


def test_golden_family_reduced_angles():
    fam = ExitFamily.golden(6)
    expected = [reduced_angle(k, GOLDEN) for k in (1, 2, 3, 5, 8, 13)]
    assert fam.v == expected
    assert np.allclose(
        fam.v,
        [0.3819660, 0.2360680, 0.1458980, 0.0901699, 0.0557281, 0.0344419],
        atol=1e-6,
    )
    assert all(a > b for a, b in zip(fam.v, fam.v[1:]))


def test_family_level_geometry():
    fam = ExitFamily.golden(4)
    for lev in fam.levels:
        assert lev.half_width == lev.v / 4.0
        spec = projection_spec(lev)
        assert spec.effective_angle == lev.v
        # The state angle 3v/4 sits strictly inside the plateau [eps, v).
        plat = plateau_set(spec)
        assert plat.contains(3.0 * lev.v / 4.0)
        assert abs(plat.measure() - lev.v / 2.0) < 1e-15


def test_family_projection_is_projection():
    spec = projection_spec(ExitFamily.golden(3).levels[0])
    report = is_projection(build_rieffel_projection(spec, n=1024))
    assert report.is_projection
    assert abs(report.trace - spec.effective_angle) < 1e-12


def test_family_rejects_non_decreasing_angles():
    with pytest.raises(ValueError, match="decrease strictly"):
        ExitFamily(GOLDEN, (2, 1))
    with pytest.raises(ValueError, match="decrease strictly"):
        ExitFamily(GOLDEN, (1, 1))


# -- exact oracle ------------------------------------------------------------------------


def test_exit_time_oracle():
    assert exit_time_oracle_exact(0.5, 2.0) == 0.125
    assert exit_time_oracle_exact(0.1, 1.0) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        exit_time_oracle_exact(-1.0, 1.0)
    with pytest.raises(ValueError):
        exit_time_oracle_exact(1.0, 0.0)


# -- Monte Carlo engines -------------------------------------------------------------------


def one_level(fam, index, n_paths, seed, sigma2):
    """(reduced exits, operator exits, dt) of one level stepped alone."""
    [sampled] = _exit_steps(fam, [index], n_paths, seed, sigma2)
    return sampled


def test_reduced_engine_matches_exact_mean():
    fam = ExitFamily.golden(4)
    est = gamma_estimate(fam, 2, engine="reduced", n_paths=3000, seed=11)
    exact = exit_time_mean_exact(fam.levels[2].half_width, DEFAULT_SIGMA2)
    # The bridge kill leaves no discrete-monitoring bias.
    assert abs(est.gamma - exact) < 4.0 * est.stderr
    assert 0.99 * exact < est.gamma < 1.06 * exact
    assert est.tail == 0.0


def test_default_step_count_near_target():
    fam = ExitFamily.golden(3)
    est = gamma_estimate(fam, 1, engine="reduced", n_paths=1000, seed=3)
    assert est.dt == pytest.approx(
        exit_time_mean_exact(fam.levels[1].half_width, DEFAULT_SIGMA2) / 16
    )
    assert 13.5 < est.mean_steps < 18.5


def test_step_cap_scales_with_steps(monkeypatch):
    # The cap counts mean exit times of the level, so a grid finer than the
    # default moves it: at 1024 steps per mean exit a 16-mean-exit cap is
    # 16384 steps, where a cap tied to the default grid would stop at 16 * 64.
    monkeypatch.setattr("ncqbm.exit_times.MAX_MEAN_EXITS", 16)
    monkeypatch.setattr("ncqbm.exit_times.STEPS_PER_MEAN_EXIT", 1024)
    fam = ExitFamily.golden(3)
    sigma2 = 2.0
    exits, _, dt = one_level(fam, 1, 200, 3, sigma2)
    assert dt == exit_time_mean_exact(fam.levels[1].half_width, sigma2) / 1024
    assert exits.max() > 16 * 64
    monkeypatch.setattr("ncqbm.exit_times.MAX_MEAN_EXITS", 1)
    with pytest.raises(RuntimeError, match="step cap"):
        one_level(fam, 1, 200, 3, sigma2)


def chunkwise_reference(fam, index, n_paths, seed, sigma2, chunk, steps=16, mean_exits=4096):
    """Exit steps of one level by the chunk-by-chunk oracle, on the level's streams."""
    level = fam.levels[index]
    dt = exit_time_mean_exact(level.half_width, sigma2) / steps
    x = 3.0 * level.v / 4.0  # the state angle, in the plateau [v/2, v)
    return exit_steps_chunkwise(level.v / 2.0 - x, level.v - x, dt, sigma2, n_paths, chunk,
                                mean_exits * steps, lambda c: stream_rng(seed, 3, 0, index, c))


def spy_on_steps(monkeypatch):
    """Live paths at each step of _exit_steps, and the step at which each
    chunk's stream was made (the chunk's join)."""
    live, joins = [], []
    rule, make_stream = exit_times._reduced_rule, exit_times.stream_rng

    def reduced_rule(w, *rest):
        live.append(w.size)
        return rule(w, *rest)

    def stream(*key):
        joins.append(len(live))
        return make_stream(*key)

    monkeypatch.setattr("ncqbm.exit_times._reduced_rule", reduced_rule)
    monkeypatch.setattr("ncqbm.exit_times.stream_rng", stream)
    return live, joins


@pytest.mark.parametrize("chunk, n_paths, index, seed",
                         [(64, 5 * 64 + 3, 2, 5), (4096, 2 * 4096 + 37, 3, 9),
                          (4096, 10_000, 0, 0), (4096, 10_000, 5, 0)])
def test_shared_loop_matches_chunks_stepped_alone(monkeypatch, chunk, n_paths, index, seed):
    # Several joins and a partial last chunk; every exit step is bit-identical
    # to the chunk-by-chunk oracle on the same streams, which steps in the
    # level's own geometry (the last two cases are the default sweep's first
    # and last level).
    monkeypatch.setattr("ncqbm.exit_times.ENGINE_CHUNK", chunk)
    fam = ExitFamily.golden(6)
    _, joins = spy_on_steps(monkeypatch)
    e_red, e_op, dt = one_level(fam, index, n_paths, seed, 2.0)
    assert dt == exit_time_mean_exact(fam.levels[index].half_width, 2.0) / 16
    ref_red, ref_op = chunkwise_reference(fam, index, n_paths, seed, 2.0, chunk)
    assert np.array_equal(e_red, ref_red) and np.array_equal(e_op, ref_op)
    assert len(joins) == -(-n_paths // chunk) and max(joins) > 0


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_levels_stepped_together_match_each_level_stepped_alone(monkeypatch, seed):
    # Every level's chunks join one loop, several at a time across level
    # boundaries; each level's exits are those of its own call and of the
    # chunk-by-chunk oracle on its streams.
    monkeypatch.setattr("ncqbm.exit_times.ENGINE_CHUNK", 64)
    fam = ExitFamily.golden(6)
    n = 5 * 64 + 3
    _, joins = spy_on_steps(monkeypatch)
    together = _exit_steps(fam, range(6), n, seed, 2.0)
    assert len(joins) == 6 * 6 and joins == sorted(joins)
    for index, (e_red, e_op, dt) in enumerate(together):
        alone = one_level(fam, index, n, seed, 2.0)
        assert dt == alone[2]
        assert np.array_equal(e_red, alone[0]) and np.array_equal(e_op, alone[1])
        ref_red, ref_op = chunkwise_reference(fam, index, n, seed, 2.0, 64)
        assert np.array_equal(e_red, ref_red) and np.array_equal(e_op, ref_op)


def test_step_cap_counts_from_each_chunks_join_across_levels(monkeypatch):
    # Levels stepped together run far longer than any chunk's cap, yet each
    # chunk is cut off only by its own age.
    monkeypatch.setattr("ncqbm.exit_times.ENGINE_CHUNK", 64)
    fam = ExitFamily.golden(6)
    n, seed = 2 * 64, 3
    live, joins = spy_on_steps(monkeypatch)
    together = _exit_steps(fam, range(6), n, seed, 2.0)
    longest = max(int(e_red.max()) for e_red, _, _ in together)
    mean_exits = -(-longest // 16)
    assert 16 * mean_exits < len(live) and max(joins) > 16 * mean_exits
    monkeypatch.setattr("ncqbm.exit_times.MAX_MEAN_EXITS", mean_exits)
    capped = _exit_steps(fam, range(6), n, seed, 2.0)
    assert all(np.array_equal(a[0], b[0]) for a, b in zip(capped, together))
    monkeypatch.setattr("ncqbm.exit_times.MAX_MEAN_EXITS", mean_exits - 1)
    with pytest.raises(StepCapExceeded, match="step cap"):
        _exit_steps(fam, range(6), n, seed, 2.0)


def test_one_level_steps_in_a_fixed_working_set():
    # The loop holds 7 float and 1 integer buffer of cap entries, and its
    # per-step temporaries are a few more; a loop that allocates each step's
    # arrays afresh peaks above 13 cap-sized arrays beside the int32 exit arrays.
    n = 10_000
    cap = min(2 * exit_times.ENGINE_CHUNK, n)
    fam = ExitFamily.golden(6)
    one_level(fam, 0, 100, 0, 2.0)  # numpy imports numpy.random on first use
    tracemalloc.start()
    try:
        one_level(fam, 0, n, 0, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 4 * n + 11 * 8 * cap


def test_exit_store_widens_where_join_steps_could_leave_int32(monkeypatch):
    # A cap of 2^31 steps lets the join steps that the store holds pass int32;
    # the int64 store gives the same exits.
    fam = ExitFamily.golden(6)
    narrow = one_level(fam, 2, 300, 4, 2.0)
    monkeypatch.setattr("ncqbm.exit_times.MAX_MEAN_EXITS", 2 ** 27)
    wide = one_level(fam, 2, 300, 4, 2.0)
    assert narrow[0].dtype == np.int32 and wide[0].dtype == np.int64
    assert np.array_equal(narrow[0], wide[0]) and np.array_equal(narrow[1], wide[1])


def test_six_level_sweep_steps_in_one_fixed_working_set():
    # The same buffers of cap entries serve all six levels; only the int32
    # exit store grows with the levels, 2 * 4 bytes per path of each.
    n = 10_000
    cap = 2 * exit_times.ENGINE_CHUNK
    fam = ExitFamily.golden(6)
    _exit_steps(fam, range(6), 100, 0, 2.0)  # numpy imports numpy.random on first use
    tracemalloc.start()
    try:
        _exit_steps(fam, range(6), n, 0, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 * 4 * n + 11 * 8 * cap


def test_shared_loop_holds_at_most_two_chunks_live(monkeypatch):
    monkeypatch.setattr("ncqbm.exit_times.ENGINE_CHUNK", 64)
    live, _ = spy_on_steps(monkeypatch)
    exits, _, _ = one_level(ExitFamily.golden(6), 2, 5 * 64 + 3, 5, 2.0)
    assert max(live) == 128
    # Stepped alone, each chunk would loop until its slowest path exits.
    assert len(live) < sum(exits[c:c + 64].max() for c in range(0, exits.size, 64))


def test_single_chunk_level_pays_no_join_bookkeeping(monkeypatch):
    # Counts the calls the sampler itself makes (making a stream concatenates
    # inside numpy, once per chunk).
    calls = []
    for name in ("concatenate", "searchsorted", "bincount"):
        def spy(*args, _original=getattr(np, name), _name=name, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "ncqbm.exit_times":
                calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np, name, spy)
    fam = ExitFamily.golden(6)
    one_level(fam, 1, 4000, 3, 2.0)
    assert calls == []
    # Two chunks: the spy sees the joined loop split its live paths by chunk.
    one_level(fam, 1, 4097, 3, 2.0)
    assert "searchsorted" in calls


def test_step_cap_counts_from_each_chunks_join(monkeypatch):
    # The cap is set just above the longest exit.  A chunk that joined late
    # ran past it on the shared step count, yet finishes; one cap lower, the
    # chunk with the longest exit is cut off.
    monkeypatch.setattr("ncqbm.exit_times.ENGINE_CHUNK", 64)
    fam = ExitFamily.golden(6)
    n, seed = 5 * 64 + 3, 5
    _, joins = spy_on_steps(monkeypatch)
    exits, _, _ = one_level(fam, 2, n, seed, 2.0)
    shared_end = max(j + exits[c * 64:(c + 1) * 64].max() for c, j in enumerate(joins))
    mean_exits = -(-int(exits.max()) // 16)
    assert 16 * mean_exits < shared_end
    monkeypatch.setattr("ncqbm.exit_times.MAX_MEAN_EXITS", mean_exits)
    capped, _, _ = one_level(fam, 2, n, seed, 2.0)
    assert np.array_equal(capped, exits)
    assert np.array_equal(capped, chunkwise_reference(fam, 2, n, seed, 2.0, 64,
                                                      mean_exits=mean_exits)[0])
    monkeypatch.setattr("ncqbm.exit_times.MAX_MEAN_EXITS", mean_exits - 1)
    with pytest.raises(StepCapExceeded, match="step cap"):
        one_level(fam, 2, n, seed, 2.0)


def test_stderr_overflow_is_rejected_before_any_level_is_sampled(monkeypatch):
    # At sigma2 = 1e-152 level 0's dt^2 is finite, but 10,000 squared
    # deviations of up to MAX_MEAN_EXITS * 16 steps overflow the stderr's sum;
    # level 5, listed first, would pass, and still no stream is made.
    made = []
    monkeypatch.setattr("ncqbm.exit_times.stream_rng", lambda *key: made.append(key))
    fam = ExitFamily.golden(6)
    dt = exit_time_mean_exact(fam.levels[0].half_width, 1e-152) / 16
    assert math.isfinite(dt * dt)
    with pytest.raises(ValueError, match="at level 0 overflows when squared"):
        _exit_steps(fam, [5, 0], 10_000, 0, 1e-152)
    assert made == []


@pytest.mark.parametrize("sigma2", [1e-300, 5e-324])
def test_overflowing_exit_step_is_rejected_before_sampling(sigma2, monkeypatch):
    # dt^2 overflows, so the stderr could not be finite: no stream is made.
    made = []
    monkeypatch.setattr("ncqbm.exit_times.stream_rng", lambda *key: made.append(key))
    with pytest.raises(ValueError, match="overflows when squared"):
        one_level(ExitFamily.golden(6), 0, 100, 0, sigma2)
    assert made == []


def test_exit_step_whose_square_is_finite_is_sampled():
    # At sigma2 = 1e-150 dt is about 5e144 and dt^2 stays finite; the exit
    # steps do not depend on sigma2.
    fam = ExitFamily.golden(6)
    exits, _, dt = one_level(fam, 5, 200, 3, 1e-150)
    assert math.isfinite(dt * dt) and dt > 1e140
    assert np.array_equal(exits, one_level(fam, 5, 200, 3, 2.0)[0])


def test_levels_are_scale_copies_of_one_walk(monkeypatch):
    # W / a is one walk at every level: on streams whose key drops the level
    # index, all six golden levels give the same exit steps.
    monkeypatch.setattr("ncqbm.exit_times.stream_rng",
                        lambda seed, tag, run, index, chunk: stream_rng(seed, tag, run, 0, chunk))
    fam = ExitFamily.golden(6)
    first = one_level(fam, 0, 5000, 3, 2.0)[:2]
    for index in range(1, 6):
        e_red, e_op, _ = one_level(fam, index, 5000, 3, 2.0)
        assert np.array_equal(e_red, first[0]) and np.array_equal(e_op, first[1])


def test_engines_agree_bitwise_on_shared_streams():
    fam = ExitFamily.golden(5)
    cmp = run_survival_comparison(fam, 3, n_paths=1500, seed=7)
    assert cmp.indicators_equal
    assert cmp.max_step_difference == 0
    # Same exits, so the two integrals differ only by quadrature endpoints
    # and the truncated tail.
    assert abs(cmp.operator.gamma - cmp.reduced.gamma) < 0.01 * cmp.reduced.gamma
    assert cmp.operator.tail <= 0.01 * cmp.operator.gamma


def test_operator_engine_matches_exact_mean():
    fam = ExitFamily.golden(4)
    est = gamma_estimate(fam, 1, engine="operator", n_paths=3000, seed=4)
    exact = exit_time_mean_exact(fam.levels[1].half_width, DEFAULT_SIGMA2)
    assert abs(est.gamma - exact) < 4.0 * est.stderr
    assert est.tail < 0.01 * est.gamma


def test_exit_step_law_matches_survival_series():
    # Kolmogorov-Smirnov distance between the empirical P(step > j) and the
    # exact P(tau > t_j) at the grid times; 1.95/sqrt(n) is the alpha = 1e-3
    # critical value, conservative here since only grid times are compared.
    fam = ExitFamily.golden(4)
    n = 20_000
    sigma2 = 2.0
    exits, _, dt = one_level(fam, 2, n, 17, sigma2)
    a = fam.levels[2].half_width
    steps = np.arange(1, int(exits.max()) + 1)
    empirical = (exits[None, :] > steps[:, None]).mean(axis=1)
    exact = np.array([exit_time_survival_exact(j * dt, a, sigma2) for j in steps])
    assert np.max(np.abs(empirical - exact)) < 1.95 / math.sqrt(n)


# m(0) of the sampled chain by the Nystrom oracle: 16.4999842823, the same to
# 1e-11 at 50 to 800 nodes.
CHAIN_MEAN_EXIT_STEP = killed_walk_mean_exit_step(100)


def test_chain_oracle_is_converged():
    assert abs(CHAIN_MEAN_EXIT_STEP - 16.4999842823) < 1e-9
    assert abs(killed_walk_mean_exit_step(200) - CHAIN_MEAN_EXIT_STEP) < 1e-9


# P(N > j) of the sampled chain for j = 0 .. 1000; past j = 1000 it is below 1e-25.
CHAIN_EXIT_SURVIVAL = killed_walk_exit_survival(1000)


def test_chain_exit_law_oracle_is_converged():
    # Summed over j >= 0 the survival is the mean exit step.
    assert abs(CHAIN_EXIT_SURVIVAL.sum() - 16.4999842823) < 1e-9
    assert np.max(np.abs(killed_walk_exit_survival(200, nodes=200)
                         - CHAIN_EXIT_SURVIVAL[:201])) < 1e-9
    assert np.all(np.diff(CHAIN_EXIT_SURVIVAL) <= 0.0)


def test_chi2_tail_at_tabulated_critical_values():
    # The 5% and 0.01% points of chi-square with 1, 2, 5, 10 and 101 degrees of freedom.
    for x, df in [(3.841458820694124, 1), (5.991464547107979, 2), (11.070497693516351, 5),
                  (18.307038053275146, 10), (125.45841940848238, 101)]:
        assert abs(chi2_sf(x, df) - 0.05) < 1e-12
    for x, df in [(15.136705226623397, 1), (18.420680743952364, 2), (25.744831959055876, 5)]:
        assert abs(chi2_sf(x, df) - 1e-4) < 1e-14


def test_pooled_exit_step_of_the_default_sweep_matches_the_chain_oracle():
    # The six default levels are one walk: their 60,000 exit steps have the
    # chain's mean.  |z| <= 4 fails a correct sampler with probability 6.3e-5.
    fam = ExitFamily.golden(6)
    exits = np.concatenate([e_red for e_red, _, _ in _exit_steps(fam, range(6), 10_000, 0, 2.0)])
    z = (exits.mean() - CHAIN_MEAN_EXIT_STEP) / (exits.std(ddof=1) / math.sqrt(exits.size))
    assert abs(z) <= 4.0


def test_pooled_exit_step_histogram_of_the_default_sweep_matches_the_chain_law():
    # Pearson's chi-square of the 60,000 pooled exit steps of one default
    # sweep against n P(N = j), with adjacent steps merged until each bin
    # expects at least 5 and the tail N > 1000 in the last bin.  Failing at
    # p < 1e-4 fails a correct sampler with probability 1e-4.  The test sees
    # a change to the law that keeps the mean, which the mean test does not.
    fam = ExitFamily.golden(6)
    exits = np.concatenate([e_red for e_red, _, _ in _exit_steps(fam, range(6), 10_000, 0, 2.0)])
    expected = exits.size * -np.diff(CHAIN_EXIT_SURVIVAL)  # j = 1 .. 1000
    observed = np.bincount(exits, minlength=expected.size + 1)[1:]
    tail = observed[expected.size:].sum()
    bins, o, e = [], 0, 0.0
    for oj, ej in zip(observed, expected):
        o, e = o + oj, e + ej
        if e >= 5.0:
            bins.append((o, e))
            o, e = 0, 0.0
    o_last, e_last = bins.pop()
    bins.append((o_last + o + tail, e_last + e + exits.size * CHAIN_EXIT_SURVIVAL[-1]))
    obs, exp = np.array(bins).T
    stat = float(np.sum((obs - exp) ** 2 / exp))
    assert chi2_sf(stat, len(bins) - 1) >= 1e-4, (stat, len(bins))


@pytest.mark.parametrize("index, seed", [(1, 7), (4, 8)])
def test_mean_steps_matches_the_chain_oracle(index, seed):
    # stderr / dt is the standard error of the mean exit step; |z| <= 4 as above.
    est = gamma_estimate(ExitFamily.golden(6), index, n_paths=10_000, seed=seed)
    assert abs(est.mean_steps - CHAIN_MEAN_EXIT_STEP) <= 4.0 * est.stderr / est.dt


def test_operator_engine_stops_where_the_lattice_fold_loses_the_state(monkeypatch):
    # The fold of plateau translates [eps, v) - W along the grid values keeps
    # the state angle while every value lies in [lo, hi); the engine also
    # kills on the bridge, so it stops at or before the fold's first loss,
    # and exactly there when it died on the grid condition.
    fam = ExitFamily.golden(6)
    sigma2 = 2.0
    deaths = {"grid": 0, "kill": 0}
    for index in (0, 3, 5):
        level = fam.levels[index]
        spec = projection_spec(level)
        x = 3.0 * level.v / 4.0  # the state angle
        lo, hi = level.v / 2.0 - x, level.v - x
        # Steps of a/sqrt(128) against the fold's refine threshold eps/4 =
        # a/2, so the grid values need no bridge points.
        monkeypatch.setattr("ncqbm.exit_times.STEPS_PER_MEAN_EXIT", 128)
        dt = exit_time_mean_exact(level.half_width, sigma2) / 128
        scale = math.sqrt(sigma2 * dt)
        for seed in range(40):
            _, (exit_step,), _ = one_level(fam, index, 1, seed, sigma2)
            # A one-path chunk draws one normal, then one uniform, per step.
            rng = stream_rng(seed, 3, 0, index, 0)
            w = np.zeros(exit_step + 1)
            for j in range(1, exit_step + 1):
                w[j] = w[j - 1] + rng.normal(size=1)[0] * scale
                rng.random(size=1)
            # The half-open plateau and the engine's closed test w <= hi
            # differ only for a value on an edge; none of these is near one.
            assert np.min(np.abs(np.concatenate([w - lo, w - hi]))) > 1e-12
            times = np.arange(w.size) * dt
            before = meet_along_path(
                spec, BrownianPath(times[:exit_step], w[:exit_step], sigma2, seed))
            through = meet_along_path(spec, BrownianPath(times, w, sigma2, seed))
            assert before.levels_used == through.levels_used == 0
            assert before.intervals.contains(x)
            on_grid = not lo <= w[-1] <= hi
            assert through.intervals.contains(x) is not on_grid
            deaths["grid" if on_grid else "kill"] += 1
    assert min(deaths.values()) > 0


def test_both_engines_unbiased_at_1e5_paths():
    fam = ExitFamily.golden(6)
    cmp = run_survival_comparison(fam, 4, n_paths=100_000, seed=23)
    assert cmp.indicators_equal
    exact = exit_time_mean_exact(fam.levels[4].half_width, DEFAULT_SIGMA2)
    for est in (cmp.reduced, cmp.operator):
        assert abs(est.gamma - exact) < 4.0 * est.stderr


def test_one_simulation_gives_both_estimates_and_the_verdict():
    fam = ExitFamily.golden(5)
    cmp = run_survival_comparison(fam, 2, n_paths=900, seed=8)
    for engine in ("reduced", "operator"):
        est = gamma_estimate(fam, 2, engine, n_paths=900, seed=8)
        assert est.survival == cmp
        assert replace(est, survival=None) == getattr(cmp, engine)
    assert cmp.first_disagreement is None


def test_operator_gap_is_the_realized_tail_at_every_level():
    # On equal exits the reduced mean and the truncated survival integral
    # differ by the tail beyond the horizon, to rounding.
    fam = ExitFamily.golden(6)
    for index in range(6):
        for seed in (0, 11):
            cmp = run_survival_comparison(fam, index, n_paths=3000, seed=seed)
            assert cmp.indicators_equal
            gap = cmp.operator.gamma - cmp.reduced.gamma
            assert abs(gap + cmp.operator.tail) <= 1e-12 * cmp.reduced.gamma
            assert cmp.operator.tail >= 0.0


def test_operator_rule_ignoring_the_lower_edge_is_caught(monkeypatch):
    # Dropping both the grid test and the bridge term of the lower edge lets
    # the operator state outlive paths the reduced rule has lost.
    monkeypatch.setattr("ncqbm.exit_times._operator_rule",
                        lambda run_min, run_max, u, p_lo, p_hi, lo, hi:
                        (run_max <= hi) & (u >= p_hi))
    fam = ExitFamily.golden(4)
    cmp = run_survival_comparison(fam, 1, n_paths=500, seed=3)
    assert not cmp.indicators_equal
    assert cmp.max_step_difference > 0
    # A path stops where the reduced rule fails; the operator rule, which
    # still held, records the next step.
    e_red, e_op, _ = one_level(fam, 1, 500, 3, 2.0)
    differ = e_red != e_op
    assert np.all(e_op[differ] == e_red[differ] + 1)
    assert cmp.first_disagreement == int(e_red[differ].min())


def test_sweep_levels_are_single_level_estimates_at_the_same_seed():
    fam = ExitFamily.golden(6)
    report = run_exit_asymptotics(fam, n_paths=300, seed=12)
    for i, est in enumerate(report.estimates):
        alone = gamma_estimate(fam, i, n_paths=300, seed=12)
        assert (est.gamma, est.stderr) == (alone.gamma, alone.stderr)


def test_gamma_estimate_is_deterministic_in_seed():
    fam = ExitFamily.golden(3)
    a = gamma_estimate(fam, 0, n_paths=400, seed=5)
    b = gamma_estimate(fam, 0, n_paths=400, seed=5)
    c = gamma_estimate(fam, 0, n_paths=400, seed=6)
    assert a.gamma == b.gamma and a.stderr == b.stderr
    assert a.gamma != c.gamma


def test_engine_name_validated():
    fam = ExitFamily.golden(3)
    with pytest.raises(ValueError, match="engine"):
        gamma_estimate(fam, 0, engine="exotic", n_paths=200)


# -- asymptotic fits ----------------------------------------------------------------------------


def test_fit_recovers_exact_quadratic_quartic():
    vs = np.geomspace(0.01, 0.3, 8)
    pairs = [(v, v * v / 32.0 + v ** 4 / 6144.0, 0.0) for v in vs]
    fit = fit_asymptotics(pairs)
    assert fit.n0 == 1
    assert abs(fit.slope - 2.0) < 0.05
    assert fit.c1 == pytest.approx(1.0 / 32.0, rel=1e-10)
    assert fit.c2 == pytest.approx(1.0 / 6144.0, rel=1e-8)


def test_fit_detects_other_orders():
    vs = np.geomspace(0.01, 0.5, 8)
    fit3 = fit_asymptotics([(v, v ** (2.0 / 3.0), 0.0) for v in vs])
    assert fit3.n0 == 3
    fit2 = fit_asymptotics([(v, 2.0 * v, 0.0) for v in vs])
    assert fit2.n0 == 2


def test_fit_rejects_non_power_law():
    vs = np.geomspace(0.01, 0.5, 8)
    with pytest.raises(ValueError, match="no asymptotic detected"):
        fit_asymptotics([(v, v ** 3.5, 0.0) for v in vs])
    with pytest.raises(ValueError, match="no asymptotic detected"):
        fit_asymptotics([(v, v ** 1.5, 0.0) for v in vs])


def test_fit_preconditions():
    with pytest.raises(ValueError, match="at least 4"):
        fit_asymptotics([(0.1, 0.01, 0.0)] * 3)
    vs = np.geomspace(0.1, 0.5, 5)
    with pytest.raises(ValueError, match="decade"):
        fit_asymptotics([(v, v * v, 0.0) for v in vs])
    # A NaN gamma is not positive: it raises instead of fitting to NaN.
    pairs = [(v, v * v, 1e-3 * v * v) for v in np.geomspace(0.01, 0.5, 6)]
    pairs[3] = (pairs[3][0], math.nan, pairs[3][2])
    with pytest.raises(ValueError, match="positive"):
        fit_asymptotics(pairs)
    # An overflowed gamma or stderr raises instead of weighing its level by 0.
    for i in (1, 2):
        bad = [[v, v * v, 1e-3 * v * v] for v in np.geomspace(0.01, 0.5, 6)]
        bad[3][i] = math.inf
        with pytest.raises(ValueError, match="finite"):
            fit_asymptotics(bad)


def test_fit_uses_reported_errors_as_weights():
    vs = np.geomspace(0.01, 0.3, 8)
    pairs = [(v, v * v / 32.0, 1e-9 * v * v) for v in vs]
    fit = fit_asymptotics(pairs)
    assert fit.c1 == pytest.approx(1.0 / 32.0, rel=1e-9)


def test_fit_c2_resolved_on_exact_data():
    vs = np.geomspace(0.01, 0.3, 8)
    gammas = [v * v / 32.0 + v ** 4 / 6144.0 for v in vs]
    fit = fit_asymptotics([(v, g, 1e-9 * g) for v, g in zip(vs, gammas)])
    assert 0.0 < fit.c2_stderr < 1e-3 * fit.c2
    assert fit.c2_resolved
    # Without standard errors there is no covariance to judge c2 by.
    unweighted = fit_asymptotics([(v, g, 0.0) for v, g in zip(vs, gammas)])
    assert unweighted.c2_stderr is None
    assert unweighted.c2_resolved


def test_fit_c1_and_d_stderr_on_exact_data():
    vs = np.geomspace(0.01, 0.3, 8)
    gammas = [v * v / 32.0 + v ** 4 / 6144.0 for v in vs]
    fit = fit_asymptotics([(v, g, 1e-9 * g) for v, g in zip(vs, gammas)])
    assert 0.0 < fit.c1_stderr < 1e-8 * fit.c1
    inv = extract_invariants(fit.n0, fit.c1, fit.c2, fit.c1_stderr)
    # n0 = 1: d = 1 + 1/(8 c1), so |dd/dc1| = 1/(8 c1^2).
    assert inv.d_stderr == pytest.approx(fit.c1_stderr / (8.0 * fit.c1 ** 2), rel=1e-12)
    assert 0.0 < inv.d_stderr < 1e-7
    unweighted = fit_asymptotics([(v, g, 0.0) for v, g in zip(vs, gammas)])
    assert unweighted.c1_stderr is None
    assert extract_invariants(1, unweighted.c1, unweighted.c2,
                              unweighted.c1_stderr).d_stderr is None


def test_fit_c1_and_d_stderr_on_noisy_data():
    # The exit-sweep setting: gamma = v^2/32 exactly, 0.8% noise per level.
    rng = np.random.default_rng(5)
    vs = np.array(ExitFamily.golden(6).v)
    exact = vs * vs / 32.0
    stderr = 0.008 * exact
    design = np.column_stack([vs ** 2, vs ** 4]) / stderr[:, None]
    cov = np.linalg.inv(design.T @ design)

    def fitted_d(noise):
        fit = fit_asymptotics(list(zip(vs, exact + stderr * noise, stderr)))
        return fit, extract_invariants(fit.n0, fit.c1, fit.c2, fit.c1_stderr)

    fit, inv = fitted_d(rng.normal(size=vs.size))
    assert fit.c1_stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-9)
    assert inv.d_stderr == pytest.approx((inv.d - 1.0) * fit.c1_stderr / fit.c1, rel=1e-12)
    # The delta-method error matches the spread of d over repeated noise
    # (1000 draws: the sample sd is within ~2.2% of the truth at one sd).
    ds = [fitted_d(rng.normal(size=vs.size))[1].d for _ in range(1000)]
    assert float(np.std(ds, ddof=1)) == pytest.approx(inv.d_stderr, rel=0.1)


def test_fit_c2_unresolved_on_noisy_data():
    # The exit-sweep setting: gamma = v^2/32 exactly (c2 = 0), 0.8% noise.
    rng = np.random.default_rng(5)
    vs = np.array(ExitFamily.golden(6).v)
    exact = vs * vs / 32.0
    stderr = 0.008 * exact
    gammas = exact + stderr * rng.normal(size=vs.size)
    fit = fit_asymptotics(list(zip(vs, gammas, stderr)))
    # (X^T W X)^{-1} by hand for the two-column design.
    design = np.column_stack([vs ** 2, vs ** 4]) / stderr[:, None]
    cov = np.linalg.inv(design.T @ design)
    assert fit.c2_stderr == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-9)
    assert abs(fit.c2) < 2.0 * fit.c2_stderr
    assert not fit.c2_resolved


def _fit_cases():
    """(v, gamma, stderr) pairs of the golden sweep, the circle benchmark and
    random noisy power laws, some with a zero stderr."""
    family = ExitFamily.golden(6)
    sweep = run_exit_asymptotics(family, n_paths=10_000, seed=0)
    yield [(v, e.gamma, e.stderr) for v, e in zip(family.v, sweep.estimates)]
    circle = classical_circle_benchmark()
    yield [(e, m, 0.0) for e, m in zip(circle.eps, circle.means)]
    rng = np.random.default_rng(22)
    for n0 in (1, 1, 2, 3):
        vs = np.geomspace(rng.uniform(1e-3, 0.02), rng.uniform(0.2, 0.5), rng.integers(4, 11))
        exact = vs ** (2.0 / n0) / 32.0 + rng.uniform(-1.0, 1.0) * vs ** (4.0 / n0) / 64.0
        stderr = rng.uniform(0.002, 0.02, vs.size) * exact
        if n0 == 2:
            stderr[rng.integers(vs.size)] = 0.0
        yield list(zip(vs, exact + stderr * rng.normal(size=vs.size), stderr))


def test_fit_matches_lstsq_and_the_inverse_normal_matrix():
    # The Gram-Schmidt fit against np.linalg.lstsq and inv(X^T W X).
    for pairs in _fit_cases():
        fit = fit_asymptotics(pairs)
        coef, errs = weighted_power_fit(pairs, fit.n0)
        assert [fit.c1, fit.c2] == pytest.approx(coef, rel=1e-12, abs=0.0)
        if errs is None:
            assert fit.c1_stderr is None and fit.c2_stderr is None
        else:
            assert [fit.c1_stderr, fit.c2_stderr] == pytest.approx(errs, rel=1e-12, abs=0.0)


# -- the truncation horizon -----------------------------------------------------------------------


@pytest.mark.parametrize("q", [1.0 - exit_times.SURVIVAL_TRUNCATION, 0.5, 0.0, 1.0])
def test_quantile_floor_matches_numpy(q):
    # Integer arrays with many ties (few distinct values), at n = 1, 2 and
    # 10^4 and at every small n, and the exit steps of one sampled level.
    rng = np.random.default_rng(7)
    arrays = [rng.integers(0, high, size=n) for n in (1, 2, 3, 10_000, *range(4, 200))
              for high in (1, 3, 40, 10 ** 6)]
    arrays.append(one_level(ExitFamily.golden(6), 2, 10_000, 0, 2.0)[1])
    for values in arrays:
        kept = values.copy()
        assert exit_times._quantile_floor(values, q) == int(np.quantile(values, q)), values
        assert np.array_equal(values, kept)


# -- invariant extraction -------------------------------------------------------------------------


def test_extract_invariants_reference_point():
    rep = extract_invariants(1, 2.0 ** -5, 2.0 ** -11 / 3.0)
    assert rep.d == 5.0
    assert rep.d_stderr is None
    assert abs(rep.h - 1.0 / (2.0 * math.sqrt(2.0))) <= 1e-14
    assert abs(rep.h_squared - 0.125) < 1e-16
    assert not rep.h_imaginary


def test_extract_invariants_flags_negative_curvature_square():
    rep = extract_invariants(1, 2.0 ** -5, -1e-6)
    assert rep.h_imaginary
    assert rep.h_squared < 0.0
    assert rep.h > 0.0


def test_extract_invariants_validation():
    with pytest.raises(ValueError):
        extract_invariants(0, 0.1, 0.0)
    with pytest.raises(ValueError):
        extract_invariants(1, -0.1, 0.0)
    # A c1 that underflows puts d, and then H^2, beyond float range.
    with pytest.raises(ValueError, match="finite"):
        extract_invariants(1, 5e-324, 0.0)
    with pytest.raises(ValueError, match="finite"):
        extract_invariants(1, math.nan, 0.0)


# -- reference series and circle benchmark --------------------------------------------------------


def test_series_quadratic_coefficient():
    chk = paper_series_check()
    assert chk.c2_matches
    assert chk.c2 == 1.0 / 32.0
    assert chk.reference_c2 == 1.0 / 32.0
    assert chk.reference_c4 == 1.0 / 6144.0
    # The two quartic contributions cancel: the computed coefficient is 0,
    # reported beside the reference rather than asserted against it.
    assert chk.c4 == 0.0


def test_classical_circle_benchmark():
    bench = classical_circle_benchmark()
    assert bench.n0 == 1
    assert abs(bench.d - 2.0) < 0.05
    assert abs(bench.h_squared - 1.0) < 0.05
    assert bench.c1 == pytest.approx(0.5, rel=0.02)
    for e, m in zip(bench.eps, bench.means):
        assert m == exit_time_mean_exact(2.0 * math.asin(e / 2.0), 2.0)


# -- end-to-end report ------------------------------------------------------------------------------


def test_run_exit_asymptotics_report():
    fam = ExitFamily.golden(6)
    report = run_exit_asymptotics(fam, n_paths=800, seed=1)
    assert isinstance(report, AsymptoticsReport)
    assert report.fit.n0 == 1
    assert abs(report.fit.slope - 2.0) < 0.1
    assert report.fit.c1 == pytest.approx(1.0 / 32.0, rel=0.15)
    assert abs(report.invariants.d - 5.0) < 0.8
    assert report.fit_error is None
    assert [lev.k for lev in fam.levels] == [1, 2, 3, 5, 8, 13]
    assert len(report.estimates) == 6
