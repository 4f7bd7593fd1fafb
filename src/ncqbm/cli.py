"""Experiment runner: every capability as a reproducible subcommand.

Subcommands
    verify-projection   build the trapezoid projection, check its identities
    meet-demo           iterative meets against the closed form on sampled tuples
    semigroup-check     Monte Carlo flow averages against the exact heat semigroup
    exit-asymptotics    exit-time family, power-law fit, dimension/curvature
    generator-check     validate generator specs (JSON) and bi-invariance spaces

All randomness flows from a single master seed through counter-based
streams, so every output is byte-identical given (config, seed).  Exit
codes: 0 success, 1 a check failed, 2 invalid input or configuration.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .banded import (
    RieffelProjectionSpec,
    _frac,
    banded_mul,
    build_rieffel_projection,
    is_projection,
    member_of_X,
    supdiff,
    translate_action,
)
from .exit_times import (
    ExitFamily,
    StepCapExceeded,
    extract_invariants,
    paper_series_check,
    run_exit_asymptotics,
)
from .flow import SemigroupSpec, heat_multiplier, stream_rng, vacuum_expectation_mc
from .generators import (
    check_generator_spec,
    generator_spec_from_data,
    solve_biinvariant_oplus,
)
from .lattice import DegenerateMeet, compare_iterative_to_closed_form
from .torus import AlgebraContext, TorusElement


class ConfigError(ValueError):
    """Invalid configuration file or option value."""


@dataclass(frozen=True)
class ExperimentConfig:
    theta: float = (math.sqrt(5.0) - 1.0) / 2.0
    seed: int = 0
    out: str = "."
    # projection
    epsilon_factor: float = 0.5
    scale_k: int = 1
    grid: int = 4096
    # flow / semigroup check
    sigma2: float = 1.0
    n_paths: int = 20000
    time: float = 0.05
    drift_mu: float = 0.0
    drift_nu: float = 0.0
    # exit-time study
    convergent_count: int = 6
    analytic: bool = False
    exit_sigma2: float = 2.0
    exit_paths: int = 10000
    # meet demo
    meet_tuples: int = 5
    meet_grid: int = 2048
    meet_epsilon_factor: float = 0.25

    def validate(self) -> "ExperimentConfig":
        if not (0.0 < self.theta < 1.0):
            raise ConfigError("theta must lie strictly between 0 and 1")
        if self.epsilon_factor <= 0.0:
            raise ConfigError("epsilon_factor must be positive")
        if self.scale_k < 1:
            raise ConfigError("scale_k must be a positive integer")
        if self.grid < 8:
            raise ConfigError("grid must be at least 8")
        if self.sigma2 <= 0.0 or self.exit_sigma2 <= 0.0:
            raise ConfigError("sigma2 must be positive")
        if self.n_paths < 100 or self.exit_paths < 100:
            raise ConfigError("path counts must be at least 100")
        if self.time <= 0.0:
            raise ConfigError("time must be positive")
        # The power-law fit needs at least 4 levels.
        if self.convergent_count < 4:
            raise ConfigError("convergent_count must be at least 4")
        if self.meet_tuples < 1:
            raise ConfigError("meet_tuples must be at least 1")
        if self.meet_grid < 8:
            raise ConfigError("meet_grid must be at least 8")
        if not (0.0 < self.meet_epsilon_factor < 1.0):
            raise ConfigError("meet_epsilon_factor must lie in (0, 1)")
        return self


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# (section, key) -> (attribute, parser), in the order render_config prints them.
_SCHEMA = {
    ("experiment", "theta"): ("theta", _parse_float),
    ("experiment", "seed"): ("seed", int),
    ("experiment", "out"): ("out", str),
    ("projection", "epsilon_factor"): ("epsilon_factor", _parse_float),
    ("projection", "scale_k"): ("scale_k", int),
    ("projection", "grid"): ("grid", int),
    ("flow", "sigma2"): ("sigma2", _parse_float),
    ("flow", "n_paths"): ("n_paths", int),
    ("flow", "time"): ("time", _parse_float),
    ("flow", "drift_mu"): ("drift_mu", _parse_float),
    ("flow", "drift_nu"): ("drift_nu", _parse_float),
    ("exit", "convergent_count"): ("convergent_count", int),
    ("exit", "analytic"): ("analytic", _parse_bool),
    ("exit", "sigma2"): ("exit_sigma2", _parse_float),
    ("exit", "n_paths"): ("exit_paths", int),
    ("meet", "tuples"): ("meet_tuples", int),
    ("meet", "grid"): ("meet_grid", int),
    ("meet", "epsilon_factor"): ("meet_epsilon_factor", _parse_float),
}


def load_config(path: Optional[str]) -> ExperimentConfig:
    """Read an INI config; unknown keys and unparsable values are errors."""
    cfg = ExperimentConfig()
    if path is None:
        return cfg.validate()
    parser = configparser.ConfigParser()
    try:
        with open(path, "r") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file: {exc}") from exc
    updates = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            try:
                attr, parse = _SCHEMA[(section, key)]
            except KeyError:
                raise ConfigError(f"unknown config key [{section}] {key}") from None
            try:
                updates[attr] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    return replace(cfg, **updates).validate()


def render_config(cfg: ExperimentConfig) -> str:
    """The full configuration as INI text (every default is printable)."""
    sections: dict = {}
    for (section, key), (attr, _) in _SCHEMA.items():
        value = getattr(cfg, attr)
        if isinstance(value, bool):
            value = str(value).lower()
        elif isinstance(value, float):
            value = repr(value)
        sections.setdefault(section, [f"[{section}]"]).append(f"{key} = {value}")
    return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"


def _write_text(directory: str, name: str, text: str) -> Path:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(text)
    return path


def _check_grid(name: str, grid: int, eps: float) -> None:
    """Rejects a grid at or below 32/eps, the fold's quantum rule 8/n < eps/4.

    Both commands sample ramps of width eps on the grid.  A coarser grid
    holds too few samples per ramp to show an arc that is off by a ramp, and
    neither the meets' supdiffs nor the projection's residuals would say so.
    """
    if grid <= 32.0 / eps:
        raise ConfigError(f"{name} must exceed 32/epsilon = {32.0 / eps:.1f}")


# -- subcommands ------------------------------------------------------------------------


def cmd_verify_projection(cfg: ExperimentConfig) -> int:
    theta_e = _frac(cfg.scale_k * cfg.theta)
    if theta_e == 0.0:
        raise ConfigError("scale_k * theta is an integer; no projection exists")
    spec = RieffelProjectionSpec(theta=cfg.theta,
                                 epsilon=cfg.epsilon_factor * theta_e,
                                 scale_k=cfg.scale_k)
    _check_grid("grid", cfg.grid, spec.epsilon)
    p = build_rieffel_projection(spec, n=cfg.grid)
    report = is_projection(p)
    membership = member_of_X(p)
    trace_error = abs(report.trace - spec.effective_angle)
    ok = report.is_projection and trace_error < 1e-12 and membership.member
    payload = {
        "theta": cfg.theta,
        "scale_k": cfg.scale_k,
        "effective_angle": spec.effective_angle,
        "epsilon": spec.epsilon,
        "grid": cfg.grid,
        "idempotent_residual": report.sup_idempotent,
        "hermitian_defect": report.sup_hermitian,
        "trace": [report.trace.real, report.trace.imag],
        "trace_error": trace_error,
        "is_projection": report.is_projection,
        "is_member": membership.member,
        "passed": ok,
    }
    path = _write_text(cfg.out, "projection_report.json",
                       json.dumps(payload, sort_keys=True) + "\n")
    print(f"verify-projection: residual={report.sup_idempotent:.3e} "
          f"trace_error={trace_error:.3e} -> {'OK' if ok else 'FAIL'} ({path})")
    return 0 if ok else 1


def cmd_meet_demo(cfg: ExperimentConfig) -> int:
    theta_e = _frac(cfg.theta)
    spec = RieffelProjectionSpec(theta=cfg.theta,
                                 epsilon=cfg.meet_epsilon_factor * theta_e,
                                 scale_k=1)
    eps = spec.epsilon
    _check_grid("meet grid", cfg.meet_grid, eps)
    rng = stream_rng(cfg.seed, 40)
    rows = ["index,s,t,s_prime,t_prime,supdiff,converged,note"]
    failures = 0
    index = 0

    def add_row(s, t, s2, t2, supdiff, converged, note):
        nonlocal index
        sup = "" if supdiff is None else repr(float(supdiff))
        conv = "" if converged is None else str(bool(converged)).lower()
        if "," in note:
            note = f'"{note}"'
        rows.append(f"{index},{s!r},{t!r},{s2!r},{t2!r},{sup},{conv},{note}")
        index += 1

    for _ in range(cfg.meet_tuples):
        s = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 1.0))
        ds = float(rng.uniform(-1.0, 1.0)) * 0.99 * eps / 4.0
        s2 = s + ds
        t2 = float(rng.uniform(0.0, 1.0))
        try:
            diff, rep, _arcs = compare_iterative_to_closed_form(
                spec, s, t, s2, t2, n=cfg.meet_grid)
        except DegenerateMeet:
            add_row(s, t, s2, t2, None, None, "A wedge A = A branch")
            continue
        except ValueError:
            add_row(s, t, s2, t2, None, None, "hypothesis violated, skipped")
            continue
        if not (diff < 1e-6 and rep.converged):
            failures += 1
        add_row(s, t, s2, t2, diff, rep.converged, "")

    # Deliberate special rows.  Identical translates: the meet is the
    # projection itself, and the iteration is constant there after one
    # product ((pp)^{2^k} = p exactly), so the witness is the idempotency
    # residual of a single product; repeated grid squaring at a fixed point
    # with square-root band edges only amplifies interpolation error.  Then a
    # drift beyond the closed-form hypothesis.
    p = build_rieffel_projection(spec, n=cfg.meet_grid)
    moved = translate_action(p, 0.3, 0.7)
    self_diff = supdiff(banded_mul(moved, moved), moved)
    if not self_diff < 1e-6:
        failures += 1
    add_row(0.3, 0.7, 0.3, 0.7, self_diff, True, "A wedge A = A branch")

    s = 0.1
    s2 = s + 1.5 * eps / 4.0
    try:
        compare_iterative_to_closed_form(spec, s, 0.0, s2, 0.0, n=cfg.meet_grid)
        add_row(s, 0.0, s2, 0.0, None, None, "expected violation not raised")
        failures += 1
    except ValueError:
        add_row(s, 0.0, s2, 0.0, None, None, "hypothesis violated, skipped")

    path = _write_text(cfg.out, "meet_demo.csv", "\n".join(rows) + "\n")
    ok = failures == 0
    print(f"meet-demo: {index} rows, failures={failures} -> "
          f"{'OK' if ok else 'FAIL'} ({path})")
    return 0 if ok else 1


def cmd_semigroup_check(cfg: ExperimentConfig) -> int:
    ctx = AlgebraContext(cfg.theta)
    a = (TorusElement.monomial(ctx, 1, 0)
         + TorusElement.monomial(ctx, 0, 1)
         + TorusElement.monomial(ctx, 1, 1))
    spec = SemigroupSpec(sigma2=cfg.sigma2, drift=(cfg.drift_mu, cfg.drift_nu))
    mc, report = vacuum_expectation_mc(a, cfg.time, spec,
                                       n_paths=cfg.n_paths, seed=cfg.seed)
    records = []
    worst = 0.0
    for (m, n) in sorted(a.support()):
        exact = heat_multiplier(m, n, cfg.time, spec)
        est = report.coefficient(m, n)
        err = abs(est.mean - exact)
        stderr = max(est.stderr, 1e-300)
        z = err / stderr
        worst = max(worst, z)
        records.append({
            "m": m, "n": n,
            "mc": [est.mean.real, est.mean.imag],
            "exact": [exact.real, exact.imag],
            "stderr": est.stderr,
            "z": z,
        })
    # Each correct z is ~|N(0, 1)|, so a correct run fails with probability
    # P(|N| > z_max) per coefficient, at most the sum over all of them.
    z_max = 4.0
    ok = worst <= z_max
    per_coefficient = math.erfc(z_max / math.sqrt(2.0))
    payload = {
        "t": cfg.time,
        "sigma2": cfg.sigma2,
        "drift": [cfg.drift_mu, cfg.drift_nu],
        "n_paths": cfg.n_paths,
        "coefficients": records,
        "max_z": worst,
        "budget": {"z_max": z_max,
                   "false_failure_per_coefficient": per_coefficient,
                   "false_failure_rate": len(records) * per_coefficient},
        "passed": ok,
    }
    path = _write_text(cfg.out, "semigroup_check.json",
                       json.dumps(payload, sort_keys=True) + "\n")
    print(f"semigroup-check: max |z| = {worst:.2f} over {len(records)} "
          f"coefficients -> {'OK' if ok else 'FAIL'} ({path})")
    return 0 if ok else 1


def _series_payload(series) -> dict:
    return {"c2": series.c2, "c2_reference": series.reference_c2,
            "c2_matches": series.c2_matches, "c4": series.c4,
            "c4_reference": series.reference_c4}


def cmd_exit_asymptotics(cfg: ExperimentConfig) -> int:
    if cfg.analytic:
        # Reference-constants branch: analytic quadratic/quartic coefficients
        # instead of Monte Carlo estimates.
        c1, c2 = 2.0 ** -5, 2.0 ** -11 / 3.0
        inv = extract_invariants(1, c1, c2)
        payload = {
            "analytic": True, "n0": inv.n0, "c1": inv.c1, "c2": inv.c2,
            "d": inv.d, "H": inv.h, "H_squared": inv.h_squared,
            "series_check": _series_payload(paper_series_check()),
        }
        path = _write_text(cfg.out, "exit_asymptotics.json",
                           json.dumps(payload, sort_keys=True) + "\n")
        print(f"exit-asymptotics (analytic): d={inv.d!r} H={inv.h!r} ({path})")
        return 0

    family = ExitFamily.from_convergents(cfg.theta, cfg.convergent_count)
    report = run_exit_asymptotics(family, n_paths=cfg.exit_paths, seed=cfg.seed,
                                  sigma2=cfg.exit_sigma2)
    fit, inv = report.fit, report.invariants
    # Each level was sampled once under both survival rules; the run fails
    # unless the rules gave equal exit steps on every path.
    warnings = []
    agreement = []
    for i, est in enumerate(report.estimates):
        red, op = est.survival.reduced, est.survival.operator
        agreement.append({"v": est.v, "reduced": red.gamma, "operator": op.gamma,
                          "masks_equal": est.survival.indicators_equal,
                          "gap": op.gamma - red.gamma, "tail": op.tail})
        if not est.survival.indicators_equal:
            warnings.append(f"level {i}: survival rules disagree, first at step "
                            f"{est.survival.first_disagreement}")
        if op.truncation_flagged:
            warnings.append(f"level {i}: operator tail above 1% of gamma")
    if fit is None:
        warnings.append(f"fit failed: {report.fit_error}")
    elif not fit.c2_resolved:
        warnings.append("c2 not resolved: H undetermined")
    ok = fit is not None and all(row["masks_equal"] for row in agreement)
    summary = {
        "theta": family.theta,
        "engine": report.estimates[0].engine,
        "series_check": _series_payload(report.series),
        "engine_agreement": agreement,
        "warnings": warnings,
    }
    if fit is not None:
        summary.update({
            "slope": fit.slope, "n0": fit.n0, "c1": fit.c1, "c2": fit.c2,
            "c1_stderr": fit.c1_stderr, "c2_stderr": fit.c2_stderr,
            "d": inv.d, "d_stderr": inv.d_stderr, "H": inv.h,
            "H_squared": inv.h_squared, "H_imaginary": inv.h_imaginary,
        })
    rows = ["n,k_n,v_n,gamma_n,stderr"]
    rows += [f"{level.index},{level.k},{level.v!r},{est.gamma!r},{est.stderr!r}"
             for level, est in zip(family.levels, report.estimates)]
    csv_path = _write_text(cfg.out, "exit_asymptotics.csv", "\n".join(rows) + "\n")
    json_path = _write_text(cfg.out, "exit_asymptotics.json",
                            json.dumps(summary, sort_keys=True) + "\n")
    result = (f"n0={fit.n0} slope={fit.slope:.3f} c1={fit.c1:.5f} d={inv.d:.3f}"
              if fit is not None else report.fit_error)
    print(f"exit-asymptotics: {result} -> {'OK' if ok else 'FAIL'} ({csv_path}, {json_path})")
    return 0 if ok else 1


_BUNDLED_SPECS = [
    ("torus-diagonal", {"type": "torus", "l10": -1.0, "l01": -1.0, "l11": -2.0}),
    ("otheta-rank-one", {"type": "otheta", "n": 1, "z": [-1.0, -1.0],
                         "A": [[0.0, 0.0], [0.0, 0.0]]}),
    ("oplus-invertible", {"type": "oplus", "n": 1,
                          "L": [[0.0, 1.0], [-1.0, 0.0]], "A": [[3.0]]}),
]


def _read_spec(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read spec file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc


def _verdict(report, kind: str, source: str) -> dict:
    """Every field of a generator report but its noise-form array, complex
    values as [re, im], with the spec's type and source."""
    verdict = {"type": kind, "source": source}
    for f in fields(report):
        value = getattr(report, f.name)
        if not isinstance(value, np.ndarray):
            verdict[f.name] = [value.real, value.imag] if isinstance(value, complex) else value
    return verdict


def cmd_generator_check(cfg: ExperimentConfig, spec_paths: Sequence[str]) -> int:
    verdicts = []
    all_valid = True
    sources = ([(path, _read_spec(path)) for path in spec_paths] if spec_paths
               else _BUNDLED_SPECS)
    for name, data in sources:
        report = check_generator_spec(generator_spec_from_data(data))
        verdict = _verdict(report, data["type"], name)
        valid = verdict.get("gaussian_valid", verdict.get("valid"))
        all_valid = all_valid and bool(valid)
        verdicts.append(verdict)
    biinv = {f"n={n}": solve_biinvariant_oplus(n).dimension for n in (1, 2)}
    payload = {"verdicts": verdicts, "biinvariant_solution_dimension": biinv}
    path = _write_text(cfg.out, "generator_check.json",
                       json.dumps(payload, sort_keys=True) + "\n")
    dims = ", ".join(f"{k}: {{0}}" if v == 0 else f"{k}: dim {v}"
                     for k, v in biinv.items())
    print(f"generator-check: {len(verdicts)} specs, all_valid={all_valid}; "
          f"bi-invariant solution space {dims} ({path})")
    return 0 if all_valid else 1


# -- argument parsing -------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file")
    common.add_argument("--seed", type=int, metavar="N", help="master seed override")
    common.add_argument("--out", metavar="DIR", help="output directory override")
    common.add_argument("--paths", type=int, metavar="N",
                        help="Monte Carlo path count override")
    common.add_argument("--grid", type=int, metavar="N",
                        help="grid size override")
    common.add_argument("--print-config", action="store_true",
                        help="print the merged configuration and exit")

    parser = argparse.ArgumentParser(
        prog="ncqbm",
        description="Numerical laboratory for quantum Brownian motion on the "
                    "noncommutative 2-torus")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify-projection", parents=[common],
                   help="build and verify the trapezoid projection")
    sub.add_parser("meet-demo", parents=[common],
                   help="iterative meets against the closed form")
    sub.add_parser("semigroup-check", parents=[common],
                   help="Monte Carlo averages against the exact heat semigroup")
    sub.add_parser("exit-asymptotics", parents=[common],
                   help="exit-time family, fit, and invariants")
    gen = sub.add_parser("generator-check", parents=[common],
                         help="validate generator spec files")
    gen.add_argument("specs", nargs="*", metavar="SPEC.json",
                     help="generator spec files (bundled examples when omitted)")
    return parser


def _merge_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out"] = args.out
    if args.paths is not None:
        updates["n_paths"] = args.paths
        updates["exit_paths"] = args.paths
    if args.grid is not None:
        updates["grid"] = args.grid
        updates["meet_grid"] = args.grid
    return replace(cfg, **updates).validate() if updates else cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_overrides(load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.print_config:
        print(render_config(cfg), end="")
        return 0
    try:
        if args.command == "verify-projection":
            return cmd_verify_projection(cfg)
        if args.command == "meet-demo":
            return cmd_meet_demo(cfg)
        if args.command == "semigroup-check":
            return cmd_semigroup_check(cfg)
        if args.command == "exit-asymptotics":
            return cmd_exit_asymptotics(cfg)
        if args.command == "generator-check":
            return cmd_generator_check(cfg, args.specs)
    except (ConfigError, ValueError, StepCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
