"""Each output check passes a correct output and rejects a perturbed one.

    python3 -m pytest bench/test_checks.py

The correct outputs are built from the oracles in checks.py; every
perturbation is one a faulty program could produce.
"""

import cmath
import copy
import math

import numpy as np
import pytest

import checks

GOLDEN = checks.GOLDEN
EPS = GOLDEN / 4.0


def exit_sweep_output():
    rows, agreement = [], []
    for n, k in enumerate(checks.continued_fraction_denominators(GOLDEN, 6)):
        v = checks.reduced_angle(k, GOLDEN)
        exact = checks.exit_time_mean(v / 4.0, checks.EXIT_SIGMA2)
        stderr = checks.EXIT_CV * exact / math.sqrt(checks.EXIT_PATHS)
        gamma = 1.018 * exact
        rows.append({"n": str(n), "k_n": str(k), "v_n": repr(v),
                     "gamma_n": repr(gamma), "stderr": repr(stderr)})
        agreement.append({"v": v, "reduced": gamma, "operator": gamma + stderr, "z": 0.7})
    c1 = 1.018 / 32.0
    summary = {"slope": 1.999, "n0": 1, "c1": c1, "d": 1.0 + 1.0 / (8.0 * c1),
               "engine_agreement": agreement, "series_check": {"c2": 0.03125000000000339}}
    return 0, rows, summary


def _row(level, key, scale):
    def perturb(out):
        row = out[1][level]
        row[key] = repr(float(row[key]) * scale)
    return perturb


def _summary(key, value):
    def perturb(out):
        out[2][key] = value
    return perturb


def _operator_off(out):
    row = out[1][2]
    out[2]["engine_agreement"][2]["operator"] = float(row["gamma_n"]) + 8.0 * float(row["stderr"])


def _wrong_k(out):
    out[1][3]["k_n"] = "4"


def _drop_level(out):
    del out[1][-1]


EXIT_PERTURBATIONS = {
    "exit code": lambda out: out.__setitem__(0, 1),
    "k_n": _wrong_k,
    "v_n": _row(4, "v_n", 1.0 + 1e-12),
    "gamma high": _row(1, "gamma_n", 1.08 / 1.018),
    "gamma low": _row(5, "gamma_n", 0.95 / 1.018),
    "stderr inflated": _row(0, "stderr", 10.0),
    "operator gamma": _operator_off,
    "slope": _summary("slope", 1.85),
    "n0": _summary("n0", 2),
    "c1": _summary("c1", 1.2 / 32.0),
    "d": _summary("d", 4.9),
    "series c2": _summary("series_check", {"c2": 1.0 / 32.0 + 1e-6}),
    "missing level": _drop_level,
}


def test_exit_sweep_passes_correct_output():
    assert checks.check_exit_sweep(*exit_sweep_output()) == []


@pytest.mark.parametrize("name", sorted(EXIT_PERTURBATIONS))
def test_exit_sweep_rejects(name):
    out = list(copy.deepcopy(exit_sweep_output()))
    EXIT_PERTURBATIONS[name](out)
    assert checks.check_exit_sweep(*out)


def test_continued_fraction_denominators():
    assert checks.continued_fraction_denominators(GOLDEN, 6) == [1, 2, 3, 5, 8, 13]
    assert checks.continued_fraction_denominators(math.sqrt(2) - 1, 4) == [2, 5, 12, 29]


# -- operator-meets ---------------------------------------------------------------------


S, S2 = 0.37, 0.37 + 0.02


def meet_output():
    band0 = checks.meet_indicator(EPS, GOLDEN, S, S2, 2048).astype(complex)
    return [band0, 0.0, True, EPS, GOLDEN, S, S2]


def _flip_inside(out):
    band0 = out[0].copy()
    band0[np.flatnonzero(band0.real)[10]] = 0.0
    out[0] = band0


def _shifted(out):
    out[0] = checks.meet_indicator(EPS, GOLDEN, S + 1.0 / 2048, S2, 2048).astype(complex)


MEET_PERTURBATIONS = {
    "sample flipped": _flip_inside,
    "arc shifted a grid cell": _shifted,
    "band 0 noise": lambda out: out.__setitem__(0, out[0] + 2e-6),
    "off-diagonal": lambda out: out.__setitem__(1, 2e-6),
    "not converged": lambda out: out.__setitem__(2, False),
}


def test_meet_passes_correct_output():
    assert checks.check_iterated_meet(*meet_output()) == []


@pytest.mark.parametrize("name", sorted(MEET_PERTURBATIONS))
def test_meet_rejects(name):
    out = meet_output()
    MEET_PERTURBATIONS[name](out)
    assert checks.check_iterated_meet(*out)


def test_meet_indicator_wraps():
    ind = checks.arc_indicator(0.85, 1.05, 10)
    assert list(ind) == [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]


W = np.array([0.0, 0.03, -0.02, 0.05, 0.01])


def fold_output():
    return [checks.fold_measure(EPS, GOLDEN, W), 0.0, True, EPS, GOLDEN, W]


@pytest.mark.parametrize("index,value", [(0, None), (1, 2e-8), (2, False)])
def test_path_fold(index, value):
    out = fold_output()
    assert checks.check_path_fold(*out) == []
    out[index] = out[0] + 0.07 if value is None else value
    assert checks.check_path_fold(*out)


def test_interval_fold():
    measure = (GOLDEN - EPS) - 0.07
    assert checks.check_interval_fold(measure, EPS, GOLDEN, W) == []
    assert checks.check_interval_fold(measure + 1e-8, EPS, GOLDEN, W)


DEMO = ("index,s,t,s_prime,t_prime,supdiff,converged,note\n"
        "0,0.1,0.2,0.11,0.5,3e-12,true,\n"
        "1,0.3,0.7,0.3,0.7,0.0,true,A wedge A = A branch\n"
        "2,0.1,0.0,0.2,0.0,,,\"hypothesis violated, skipped\"\n")


def test_meet_demo():
    assert checks.check_meet_demo(0, DEMO) == []
    assert checks.check_meet_demo(1, DEMO)
    assert checks.check_meet_demo(0, DEMO.replace("3e-12", "2e-6"))
    assert checks.check_meet_demo(0, DEMO.splitlines()[0] + "\n")


# -- lab-checks ---------------------------------------------------------------------------


@pytest.mark.parametrize("index,value", [(0, GOLDEN + 1e-11), (1, 1e-9), (2, 1e-11)])
def test_projection(index, value):
    out = [complex(GOLDEN, 0.0), 1e-14, 0.0, GOLDEN]
    assert checks.check_projection(*out) == []
    out[index] = value
    assert checks.check_projection(*out)


def test_heat_coefficients():
    t, sigma2, se = 0.05, 1.0, 0.003
    good = [(m, n, checks.heat_multiplier(m, n, t, sigma2) + 0.5 * se, se)
            for m, n in [(1, 0), (0, 1), (1, 1)]]
    assert checks.check_heat_coefficients(good, t, sigma2) == []
    far = good[:2] + [(1, 1, good[2][2] + 6 * se, se)]
    assert checks.check_heat_coefficients(far, t, sigma2)
    assert checks.check_heat_coefficients([(1, 0, good[0][2], 0.0)], t, sigma2)
    assert checks.heat_multiplier(1, 0, 0.05, 1.0) == pytest.approx(math.exp(-0.1 * math.pi ** 2))


def test_gamma_agreement():
    assert checks.check_gamma_agreement(1.0, 0.01, 1.03, 0.01) == []
    assert checks.check_gamma_agreement(1.0, 0.01, 1.08, 0.01)
    assert checks.check_gamma_agreement(1.0, 0.0, 1.0, 0.0)


def test_invariants():
    c1, c2 = 2.0 ** -5, 2.0 ** -11 / 3.0
    h = 1.0 / (2.0 * math.sqrt(2.0))
    assert checks.check_invariants(5.0, h, False, 1, c1, c2) == []
    assert checks.check_invariants(5.001, h, False, 1, c1, c2)
    assert checks.check_invariants(5.0, h, True, 1, c1, c2)
    assert checks.check_invariants(5.0, h * (1 + 1e-9), False, 1, c1, c2)


def test_semigroup_law():
    lam = np.array([-1.0 + 2.0j, -0.5, -3.0j])

    def exp(t):
        return np.diag(np.exp(t * lam))

    assert checks.check_semigroup_law(exp(0.3), exp(0.6), exp(0.9)) == []
    assert checks.check_semigroup_law(exp(0.3), exp(0.6), exp(0.9) + 1e-8)


def test_group_like():
    l_u = -2.0 * math.pi ** 2 + 2j * math.pi * 0.3
    assert checks.check_group_like(cmath.exp(0.7 * l_u), l_u, 0.7) == []
    assert checks.check_group_like(cmath.exp(0.7 * l_u) + 1e-11, l_u, 0.7)


def test_circle():
    assert checks.check_circle(2.01, 0.98) == []
    assert checks.check_circle(2.06, 1.0)
    assert checks.check_circle(2.0, 0.94)


def test_check_equal():
    assert checks.check_equal("dim", 8, 8) == []
    assert checks.check_equal("dim", 7, 8)
