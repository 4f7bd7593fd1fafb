"""Command-line interface: exit codes, config handling, reproducible outputs."""

import configparser
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ncqbm.cli import (_BUNDLED_SPECS, _SCHEMA, ConfigError, ExperimentConfig, load_config,
                       main, render_config)
from ncqbm.flow import stream_rng
from ncqbm.generators import check_generator_spec, generator_spec_from_data


def run(args):
    return main(list(args))


# -- configuration ---------------------------------------------------------------------------


def test_default_config_is_valid():
    cfg = ExperimentConfig().validate()
    assert math.isclose(cfg.theta, (math.sqrt(5.0) - 1.0) / 2.0)
    assert cfg.seed == 0
    assert (cfg.convergent_count, cfg.exit_paths) == (6, 10000)


def test_render_config_roundtrips_through_configparser(tmp_path):
    text = render_config(ExperimentConfig())
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    cfg = load_config(str(path))
    assert cfg == ExperimentConfig()


def test_print_config_lists_every_section(capsys):
    assert run(["verify-projection", "--print-config"]) == 0
    out = capsys.readouterr().out
    parser = configparser.ConfigParser()
    parser.read_string(out)
    assert set(parser.sections()) == {"experiment", "projection", "flow",
                                      "exit", "meet"}
    assert parser["experiment"]["theta"].startswith("0.618")
    assert list(parser["flow"]) == ["sigma2", "n_paths", "time", "drift_mu", "drift_nu"]


def test_readme_defaults_block_is_the_rendered_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("All defaults, as printed by `--print-config`:")[1]
    block = block.split("```ini\n", 1)[1].split("```", 1)[0]
    assert block == render_config(ExperimentConfig())


def test_config_overrides_and_flag_precedence(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text("[experiment]\nseed = 5\n\n[projection]\ngrid = 512\n")
    assert run(["verify-projection", "--config", str(path), "--seed", "9",
                "--print-config"]) == 0
    parser = configparser.ConfigParser()
    parser.read_string(capsys.readouterr().out)
    assert parser["experiment"]["seed"] == "9"
    assert parser["projection"]["grid"] == "512"


def test_unknown_config_key_is_input_error(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text("[projection]\nbogus = 1\n")
    assert run(["verify-projection", "--config", str(path)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_unparsable_config_value_is_input_error(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text("[experiment]\ntheta = golden\n")
    assert run(["verify-projection", "--config", str(path)]) == 2
    assert "bad value" in capsys.readouterr().err


# Each float-valued config key, with the command that reads its section.
_FLOAT_KEYS = [(section, key) for (section, key), (attr, _) in _SCHEMA.items()
               if isinstance(getattr(ExperimentConfig(), attr), float)]
_SECTION_COMMAND = {"experiment": "exit-asymptotics", "projection": "verify-projection",
                    "flow": "semigroup-check", "exit": "exit-asymptotics",
                    "meet": "meet-demo"}


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", _FLOAT_KEYS)
def test_non_finite_config_value_is_input_error(tmp_path, capsys, section, key, text):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{section}]\n{key} = {text}\n")
    out = tmp_path / "out"
    assert run([_SECTION_COMMAND[section], "--config", str(cfg), "--out", str(out)]) == 2
    assert f"bad value for [{section}] {key}" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_range_config_value_is_input_error(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text("[experiment]\ntheta = 1.5\n")
    assert run(["verify-projection", "--config", str(path)]) == 2
    assert "theta" in capsys.readouterr().err


def test_missing_config_file_is_input_error(capsys):
    assert run(["verify-projection", "--config", "/nonexistent/cfg.ini"]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_unknown_subcommand_is_input_error(capsys):
    assert run(["no-such-command"]) == 2


# -- verify-projection -----------------------------------------------------------------------


def test_verify_projection_passes_and_writes_report(tmp_path):
    assert run(["verify-projection", "--out", str(tmp_path), "--grid", "1024"]) == 0
    payload = json.loads((tmp_path / "projection_report.json").read_text())
    assert payload["passed"] and payload["is_projection"] and payload["is_member"]
    assert payload["trace_error"] < 1e-12
    assert math.isclose(payload["effective_angle"],
                        (math.sqrt(5.0) - 1.0) / 2.0, rel_tol=1e-12)


def test_verify_projection_grid_floor(tmp_path, capsys):
    # At the defaults eps = theta/2 and 32/eps = 103.6, the floor meet-demo
    # applies: 103 is rejected before anything is written, 104 runs.
    out = tmp_path / "out"
    assert run(["verify-projection", "--grid", "103", "--out", str(out)]) == 2
    assert "grid must exceed 32/epsilon = 103.6" in capsys.readouterr().err
    assert not out.exists()
    assert run(["verify-projection", "--grid", "104", "--out", str(out)]) == 0
    assert json.loads((out / "projection_report.json").read_text())["grid"] == 104


def test_verify_projection_epsilon_out_of_range(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[projection]\nepsilon_factor = 1.5\n")
    assert run(["verify-projection", "--config", str(cfg),
                "--out", str(tmp_path)]) == 2
    assert "epsilon out of range" in capsys.readouterr().err


# -- meet-demo -------------------------------------------------------------------------------


def test_meet_demo_rows_and_special_branches(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[meet]\ntuples = 2\ngrid = 512\n")
    assert run(["meet-demo", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "meet_demo.csv").read_text().splitlines()
    assert lines[0] == "index,s,t,s_prime,t_prime,supdiff,converged,note"
    assert len(lines) == 1 + 2 + 2
    assert any("A wedge A = A branch" in line for line in lines)
    assert any("hypothesis violated, skipped" in line for line in lines)
    for line in lines[1:3]:
        supdiff = float(line.split(",")[5])
        assert supdiff < 1e-6


def test_meet_demo_grid_floor(tmp_path, capsys):
    # At the defaults eps = theta/4 and 32/eps = 207.1: the fold's quantum
    # rule 8/n < eps/4 rejects 207 and accepts 208.
    out = tmp_path / "out"
    assert run(["meet-demo", "--grid", "207", "--out", str(out)]) == 2
    assert "meet grid must exceed 32/epsilon = 207.1" in capsys.readouterr().err
    assert not out.exists()
    assert run(["meet-demo", "--grid", "208", "--out", str(out)]) == 0
    assert (out / "meet_demo.csv").exists()


# -- semigroup-check -------------------------------------------------------------------------


def test_semigroup_check_matches_exact_multipliers(tmp_path):
    assert run(["semigroup-check", "--out", str(tmp_path),
                "--paths", "4000"]) == 0
    payload = json.loads((tmp_path / "semigroup_check.json").read_text())
    assert payload["passed"] and payload["max_z"] <= 4.0
    budget = payload["budget"]
    assert budget["z_max"] == 4.0
    assert budget["false_failure_per_coefficient"] == pytest.approx(6.334e-5, rel=1e-3)
    assert budget["false_failure_rate"] == pytest.approx(1.900e-4, rel=1e-3)
    assert {(c["m"], c["n"]) for c in payload["coefficients"]} == \
        {(0, 1), (1, 0), (1, 1)}
    for c in payload["coefficients"]:
        assert abs(c["mc"][0] - c["exact"][0]) <= 4.0 * c["stderr"] + 1e-12


# -- exit-asymptotics ------------------------------------------------------------------------

# exit_asymptotics.json carries the fit keys only when there is a fit.
_SUMMARY_KEYS = {"theta", "engine", "series_check", "engine_agreement", "warnings"}
_FIT_KEYS = {"slope", "n0", "c1", "c2", "c1_stderr", "c2_stderr",
             "d", "d_stderr", "H", "H_squared", "H_imaginary"}


def test_exit_asymptotics_csv_json_and_replay(tmp_path):
    args = ["exit-asymptotics", "--paths", "400"]
    assert run(args + ["--out", str(tmp_path / "a")]) == 0
    assert run(args + ["--out", str(tmp_path / "b")]) == 0
    csv_a = (tmp_path / "a" / "exit_asymptotics.csv").read_bytes()
    csv_b = (tmp_path / "b" / "exit_asymptotics.csv").read_bytes()
    assert csv_a == csv_b
    json_a = (tmp_path / "a" / "exit_asymptotics.json").read_bytes()
    json_b = (tmp_path / "b" / "exit_asymptotics.json").read_bytes()
    assert json_a == json_b

    lines = csv_a.decode().splitlines()
    assert lines[0] == "n,k_n,v_n,gamma_n,stderr"
    assert len(lines) == 7
    payload = json.loads(json_a)
    assert set(payload) == _SUMMARY_KEYS | _FIT_KEYS
    assert payload["engine"] == "reduced"
    assert set(payload["series_check"]) == {"c2", "c2_reference", "c2_matches",
                                            "c4", "c4_reference"}
    assert payload["n0"] == 1
    assert len(payload["engine_agreement"]) == 6
    assert "engine_agreement_budget" not in payload
    rows = [line.split(",") for line in lines[1:]]
    for row, entry in zip(rows, payload["engine_agreement"]):
        # Both estimators read the exits of one simulation: the rules agree
        # path by path, and the operator falls short by its realized tail.
        assert set(entry) == {"v", "reduced", "operator", "masks_equal", "gap", "tail"}
        assert entry["reduced"] == float(row[3])
        assert entry["masks_equal"] is True
        assert entry["gap"] == entry["operator"] - entry["reduced"]
        assert abs(entry["gap"] + entry["tail"]) <= 1e-12 * entry["reduced"]
    assert payload["series_check"]["c2_matches"]
    assert payload["c2_stderr"] > 0.0
    assert payload["c1_stderr"] > 0.0
    assert payload["d_stderr"] == pytest.approx(
        (payload["d"] - 1.0) * payload["c1_stderr"] / payload["c1"], rel=1e-12)
    unresolved = abs(payload["c2"]) < 2.0 * payload["c2_stderr"]
    assert unresolved == ("c2 not resolved: H undetermined" in payload["warnings"])


def test_exit_asymptotics_seed_changes_output(tmp_path):
    assert run(["exit-asymptotics", "--paths", "400",
                "--out", str(tmp_path / "a")]) == 0
    assert run(["exit-asymptotics", "--paths", "400", "--seed", "3",
                "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "exit_asymptotics.csv").read_bytes() != \
        (tmp_path / "b" / "exit_asymptotics.csv").read_bytes()


def test_exit_asymptotics_samples_each_level_once_per_seed(tmp_path, monkeypatch):
    # Both estimators read one simulation: one chunk per level on tag 0, and
    # no key shared between seeds.
    keys = []

    def recording(seed, *stream):
        keys[-1].append((seed, *stream))
        return stream_rng(seed, *stream)

    monkeypatch.setattr("ncqbm.exit_times.stream_rng", recording)
    for seed in ("0", "1000"):
        keys.append([])
        assert run(["exit-asymptotics", "--paths", "400", "--seed", seed,
                    "--out", str(tmp_path / seed)]) == 0
        assert len(set(keys[-1])) == len(keys[-1]) == 6
        assert all(key[1:3] == (3, 0) for key in keys[-1])
    assert not set(keys[0]) & set(keys[1])


def test_exit_asymptotics_step_cap_is_reported_not_raised(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("ncqbm.exit_times.MAX_MEAN_EXITS", 1)
    assert run(["exit-asymptotics", "--paths", "400", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "step cap" in err and "Traceback" not in err


def test_exit_asymptotics_flow_dt_key_is_input_error(tmp_path, capsys):
    # Every level steps at a fixed count per mean exit; a config that still
    # sets one dt for all levels is rejected before any path is sampled.
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[flow]\ndt = 0.0001\n")
    out = tmp_path / "out"
    assert run(["exit-asymptotics", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown config key [flow] dt" in capsys.readouterr().err
    assert not out.exists()


def test_exit_asymptotics_engine_key_is_input_error(tmp_path, capsys):
    # One simulation feeds both estimators, so there is no engine to choose.
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[exit]\nengine = reduced\n")
    out = tmp_path / "out"
    assert run(["exit-asymptotics", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown config key [exit] engine" in capsys.readouterr().err
    assert not out.exists()


def test_exit_asymptotics_fails_when_the_survival_rules_disagree(tmp_path, monkeypatch):
    # An operator rule that ignores the lower edge outlives paths the reduced
    # rule has lost; the run names each level and its first differing step.
    monkeypatch.setattr("ncqbm.exit_times._operator_rule",
                        lambda run_min, run_max, u, p_lo, p_hi, lo, hi:
                        (run_max <= hi) & (u >= p_hi))
    assert run(["exit-asymptotics", "--paths", "400", "--out", str(tmp_path)]) == 1
    payload = json.loads((tmp_path / "exit_asymptotics.json").read_text())
    assert [row["masks_equal"] for row in payload["engine_agreement"]] == [False] * 6
    disagree = [w for w in payload["warnings"] if "rules disagree" in w]
    assert len(disagree) == 6
    for i, warning in enumerate(disagree):
        assert warning.startswith(f"level {i}: survival rules disagree, first at step ")
        assert int(warning.rsplit(" ", 1)[1]) >= 1


def test_exit_asymptotics_unfittable_estimates_fail_check(tmp_path, monkeypatch):
    # Every level exits at the same step and dt, so gamma is flat in v and
    # follows no power law.  The run is a failed check with the reason, not
    # an input error without output.
    monkeypatch.setattr("ncqbm.exit_times._exit_steps",
                        lambda family, index, n_paths, *rest, **kw:
                        (np.full(n_paths, 20, dtype=np.int64),
                         np.full(n_paths, 20, dtype=np.int64), 1e-3))
    assert run(["exit-asymptotics", "--paths", "2000", "--out", str(tmp_path)]) == 1
    rows = (tmp_path / "exit_asymptotics.csv").read_text().strip().split("\n")
    assert rows[0] == "n,k_n,v_n,gamma_n,stderr" and len(rows) == 7
    assert len({row.split(",")[3] for row in rows[1:]}) == 1
    payload = json.loads((tmp_path / "exit_asymptotics.json").read_text())
    warnings = payload["warnings"]
    assert warnings[-1].startswith("fit failed: no asymptotic detected")
    assert set(payload) == _SUMMARY_KEYS


def test_exit_asymptotics_too_few_levels_is_input_error(tmp_path, capsys):
    # The fit needs 4 levels, so 3 is rejected before any path is sampled.
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[exit]\nconvergent_count = 3\n")
    out = tmp_path / "out"
    assert run(["exit-asymptotics", "--config", str(cfg), "--out", str(out)]) == 2
    assert "convergent_count must be at least 4" in capsys.readouterr().err
    assert not out.exists()
    # Above 4 there is no fixed cap: theta decides how many levels exist.
    for count in (4, 21, 37):
        assert ExperimentConfig(convergent_count=count).validate().convergent_count == count
    with pytest.raises(ConfigError, match="convergent_count"):
        ExperimentConfig(convergent_count=0).validate()


def test_exit_asymptotics_runs_golden_past_twenty_levels(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[exit]\nconvergent_count = 21\n")
    assert run(["exit-asymptotics", "--config", str(cfg), "--out", str(tmp_path),
                "--paths", "500"]) == 0
    rows = (tmp_path / "exit_asymptotics.csv").read_text().splitlines()
    assert len(rows) == 22 and rows[-1].startswith("20,17711,")


def test_exit_asymptotics_near_rational_theta_is_input_error(tmp_path, capsys):
    # Every real rounding to the double 0.3 shares only its first partial
    # quotient, so 4 levels are rejected before any path is sampled; so is
    # each family asked past the levels its theta determines.
    for i, (theta, count) in enumerate([(0.3, 4), (1.0 / math.pi, 14), (math.e - 2.0, 20),
                                        (0.123, 5), (0.5, 4), (0.25, 4), (0.1, 4)]):
        cfg = tmp_path / f"cfg{i}.ini"
        cfg.write_text(f"[experiment]\ntheta = {theta!r}\n"
                       f"[exit]\nconvergent_count = {count}\n")
        out = tmp_path / f"out{i}"
        assert run(["exit-asymptotics", "--config", str(cfg), "--out", str(out)]) == 2
        assert "rational theta" in capsys.readouterr().err
        assert not out.exists()


def test_exit_asymptotics_runs_inverse_pi_at_ten_levels(tmp_path):
    # The 13 levels 1/pi determines include all 10, computed exactly.
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[experiment]\ntheta = {1.0 / math.pi!r}\n"
                   "[exit]\nconvergent_count = 10\n")
    assert run(["exit-asymptotics", "--config", str(cfg), "--out", str(tmp_path),
                "--paths", "2000"]) == 0
    payload = json.loads((tmp_path / "exit_asymptotics.json").read_text())
    assert len(payload["engine_agreement"]) == 10


def test_exit_asymptotics_analytic_branch(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[exit]\nanalytic = true\n")
    assert run(["exit-asymptotics", "--config", str(cfg),
                "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "exit_asymptotics.json").read_text())
    assert payload["analytic"] and payload["d"] == 5.0
    assert abs(payload["H"] - 1.0 / (2.0 * math.sqrt(2.0))) < 1e-14
    # One series_check layout for both branches.
    sampled = tmp_path / "sampled"
    assert run(["exit-asymptotics", "--paths", "2000", "--out", str(sampled)]) in (0, 1)
    layout = json.loads((sampled / "exit_asymptotics.json").read_text())["series_check"]
    assert payload["series_check"] == layout
    assert set(layout) == {"c2", "c2_reference", "c2_matches", "c4", "c4_reference"}


def test_exit_asymptotics_runs_without_numpy_linalg(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("lstsq", "inv", "solve", "qr", "svd", "pinv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert run(["exit-asymptotics", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "exit_asymptotics.json").read_text())["c1_stderr"] > 0.0


def test_exit_asymptotics_does_not_load_numpy_ma(tmp_path):
    # np.quantile imports numpy.ma on first use; the sweep takes its horizon
    # from two order statistics instead.
    import ncqbm

    code = ("import sys; from ncqbm.cli import main; "
            "code = main(['exit-asymptotics', '--out', sys.argv[1]]); "
            "print(code, 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(ncqbm.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split()[-2:] == ["0", "False"]


# -- generator-check -------------------------------------------------------------------------


def test_generator_check_bundled_examples(tmp_path):
    assert run(["generator-check", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "generator_check.json").read_text())
    assert len(payload["verdicts"]) == 3
    assert payload["biinvariant_solution_dimension"] == {"n=1": 0, "n=2": 0}
    by_source = {v["source"]: v for v in payload["verdicts"]}
    assert by_source["torus-diagonal"]["gaussian_valid"]
    assert by_source["torus-diagonal"]["qbm"]
    assert by_source["otheta-rank-one"]["valid"]
    assert not by_source["otheta-rank-one"]["qbm"]
    assert by_source["oplus-invertible"]["qbm"]


def test_generator_check_verdicts_carry_every_report_field(tmp_path):
    # One rule writes each verdict: the report's non-array fields (all but
    # the noise form B), complex values as [re, im], plus type and source.
    assert run(["generator-check", "--out", str(tmp_path)]) == 0
    verdicts = json.loads((tmp_path / "generator_check.json").read_text())["verdicts"]
    assert len(verdicts) == len(_BUNDLED_SPECS)
    for verdict, (name, data) in zip(verdicts, _BUNDLED_SPECS):
        report = check_generator_spec(generator_spec_from_data(data))
        kept = {f.name for f in fields(report)
                if not isinstance(getattr(report, f.name), np.ndarray)}
        assert kept == {f.name for f in fields(report)} - {"B"}
        assert set(verdict) == kept | {"type", "source"}
        assert (verdict["type"], verdict["source"]) == (data["type"], name)
        for key in kept:
            value = getattr(report, key)
            if isinstance(value, complex):
                value = [value.real, value.imag]
            elif isinstance(value, tuple):
                value = list(value)
            assert verdict[key] == value


def test_generator_check_reads_spec_files(tmp_path):
    spec = tmp_path / "gen.json"
    spec.write_text('{"type": "torus", "l10": -1.0, "l01": -1.0, "l11": -2.0}')
    assert run(["generator-check", str(spec), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "generator_check.json").read_text())
    assert len(payload["verdicts"]) == 1
    assert payload["verdicts"][0]["source"] == str(spec)


def test_generator_check_invalid_spec_fails_check(tmp_path):
    spec = tmp_path / "gen.json"
    spec.write_text('{"type": "torus", "l10": 1.0, "l01": -1.0, "l11": 0.0}')
    assert run(["generator-check", str(spec), "--out", str(tmp_path)]) == 1


def test_generator_check_malformed_json_is_input_error(tmp_path, capsys):
    spec = tmp_path / "gen.json"
    spec.write_text('{"type": "torus", "l10":')
    assert run(["generator-check", str(spec), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err and "line" in err


def test_generator_check_missing_file_is_input_error(tmp_path, capsys):
    assert run(["generator-check", str(tmp_path / "absent.json"),
                "--out", str(tmp_path)]) == 2
    assert "cannot read spec file" in capsys.readouterr().err
