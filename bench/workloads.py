"""One round of one benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 bench/workloads.py --workload NAME --seed N --out DIR --mode run

The child imports ncqbm, builds the workload's inputs from the seed and
prints `ready`; the parent times set-up from process start to that line.
In `run` and `trace` modes it then runs the timed body once, checks every
output against checks.py, and prints one JSON line: run_s, peak_rss_mb,
attempted, failed, the check errors and, in `trace` mode, the spans.
`setup` mode stops after `ready`.  CLI output goes to DIR/cli.log.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ncqbm import banded, cli, exit_times, flow, generators, lattice, torus

import checks

GOLDEN = checks.GOLDEN
# exit-sweep runs at the CLI default seed and the acceptance-test seeds; see
# README.md ("Seeds") for why it does not take arbitrary seeds.
EXIT_SEEDS = (0, 20260815, 11, 101, 202)


@dataclass
class Op:
    """One program call: `run` is timed, `check` sees its result afterwards."""

    name: str
    part: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


def philox(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for input data, kept apart from the program's RNG."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))


def cli_call(out: Path, *argv: str) -> int:
    with open(out / "cli.log", "a") as log, contextlib.redirect_stdout(log):
        return cli.main([*argv, "--out", str(out)])


# -- exit-sweep ----------------------------------------------------------------------------


def exit_sweep(seed: int, out: Path) -> list[Op]:
    cli_seed = EXIT_SEEDS[seed % len(EXIT_SEEDS)]

    def check(code):
        rows = checks.parse_csv((out / "exit_asymptotics.csv").read_text())
        summary = json.loads((out / "exit_asymptotics.json").read_text())
        return checks.check_exit_sweep(code, rows, summary)

    return [Op("exit-asymptotics", "exit-asymptotics",
               lambda: cli_call(out, "exit-asymptotics", "--seed", str(cli_seed)), check)]


# -- operator-meets ------------------------------------------------------------------------


def _band0(element) -> np.ndarray:
    return element.band(0).samples


def _refined_first_component(path, levels: int) -> np.ndarray:
    for _ in range(levels):
        path = path.refine()
    return np.asarray(path.values)[:, 0]


def operator_meets(seed: int, out: Path) -> list[Op]:
    spec = banded.RieffelProjectionSpec(theta=GOLDEN, epsilon=GOLDEN / 4.0, scale_k=1)
    eps, theta_e = spec.epsilon, spec.effective_angle
    ops = []

    # Criterion 2: iterated meets of two translates, 50 admissible tuples.
    rng = philox(20260815 + seed, 50)
    for i in range(50):
        s = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 1.0))
        s2 = s + float(rng.uniform(-1.0, 1.0)) * 0.99 * eps / 4.0
        t2 = float(rng.uniform(0.0, 1.0))

        def check(result, s=s, s2=s2):
            _diff, report, _arcs = result
            return checks.check_iterated_meet(
                _band0(report.result), report.result.off_diagonal_sup(),
                report.converged, eps, theta_e, s, s2)

        ops.append(Op(f"meet-{i}", "criterion-2",
                      lambda s=s, t=t, s2=s2, t2=t2: lattice.compare_iterative_to_closed_form(
                          spec, s, t, s2, t2, n=2048, max_iter=500),
                      check))

    # Criterion 3: operator and interval folds along 100 sampled paths,
    # Brownian with sigma2 = 1 on [0, 0.02] at dt = 0.005.
    dt, steps = 0.005, 4
    times = np.arange(steps + 1) * dt
    for k in range(100):
        path_seed = 3000 + 100 * seed + k
        increments = philox(path_seed, 0).normal(size=(steps, 2)) * math.sqrt(dt)
        values = np.vstack([np.zeros((1, 2)), np.cumsum(increments, axis=0)])
        path = flow.BrownianPath(times, values, 1.0, path_seed)

        def run(path=path):
            return (lattice.meet_along_path_operator(spec, path, n=512, min_iter=40),
                    lattice.meet_along_path(spec, path))

        def check(result, path=path):
            fold, arcs = result
            trace = float(np.mean(np.real(_band0(fold.result))))
            return (checks.check_path_fold(
                        trace, fold.result.off_diagonal_sup(), fold.converged, eps, theta_e,
                        _refined_first_component(path, fold.levels_used))
                    + checks.check_interval_fold(
                        arcs.intervals.measure(), eps, theta_e,
                        _refined_first_component(path, arcs.levels_used)))

        ops.append(Op(f"path-{k}", "criterion-3", run, check))

    ops.append(Op("meet-demo", "meet-demo",
                  lambda: cli_call(out, "meet-demo", "--seed", str(seed)),
                  lambda code: checks.check_meet_demo(
                      code, (out / "meet_demo.csv").read_text())))
    return ops


# -- lab-checks ----------------------------------------------------------------------------


def lab_checks(seed: int, out: Path) -> list[Op]:
    ops = []

    def read(name):
        return json.loads((out / name).read_text())

    def check_verify(code):
        rep = read("projection_report.json")
        return (checks.check_equal("exit code", code, 0)
                + checks.check_projection(complex(*rep["trace"]), rep["idempotent_residual"],
                                          rep["hermitian_defect"], GOLDEN))

    def check_semigroup(code):
        rep = read("semigroup_check.json")
        coeffs = [(c["m"], c["n"], complex(*c["mc"]), c["stderr"]) for c in rep["coefficients"]]
        return (checks.check_equal("exit code", code, 0)
                + checks.check_equal("coefficients", sorted((m, n) for m, n, _, _ in coeffs),
                                     [(0, 1), (1, 0), (1, 1)])
                + checks.check_heat_coefficients(coeffs, 0.05, 1.0))

    def check_generators(code):
        dims = read("generator_check.json")["biinvariant_solution_dimension"]
        return (checks.check_equal("exit code", code, 0)
                + checks.check_equal("bi-invariant dimensions", dims, {"n=1": 0, "n=2": 0}))

    ops += [
        Op("verify-projection", "cli", lambda: cli_call(out, "verify-projection"), check_verify),
        Op("semigroup-check", "cli",
           lambda: cli_call(out, "semigroup-check", "--seed", str(seed)), check_semigroup),
        Op("generator-check", "cli", lambda: cli_call(out, "generator-check"), check_generators),
    ]

    spec1 = banded.RieffelProjectionSpec(theta=GOLDEN, epsilon=GOLDEN / 2.0, scale_k=1)
    ops.append(Op("criterion-1", "criterion-1",
                  lambda: banded.is_projection(banded.build_rieffel_projection(spec1, n=4096)),
                  lambda r: checks.check_projection(r.trace, r.sup_idempotent,
                                                    r.sup_hermitian, GOLDEN)))

    u = torus.TorusElement.monomial(torus.AlgebraContext(GOLDEN), 1, 0)
    heat = flow.SemigroupSpec(sigma2=1.0, drift=(0.0, 0.0))

    def check_mc(result):
        est = result[1].coefficient(1, 0)
        return checks.check_heat_coefficients([(1, 0, est.mean, est.stderr)], 0.05, 1.0)

    ops.append(Op("criterion-4", "criterion-4",
                  lambda: flow.vacuum_expectation_mc(u, 0.05, heat, n_paths=100_000,
                                                     seed=20260815 + seed),
                  check_mc))

    # Criterion 6 keeps its acceptance seeds: at 2000-4000 paths the sampler's
    # loop runs until the slowest path exits, a heavy-tailed count that would
    # make run_s follow the seed (one seed in ten costs a second more).
    family = exit_times.ExitFamily.golden(6)
    ops.append(Op("criterion-6-pathwise", "criterion-6",
                  lambda: exit_times.run_survival_comparison(family, index=3, n_paths=2000,
                                                             seed=11),
                  lambda c: (checks.check_equal("indicators equal", c.indicators_equal, True)
                             + checks.check_equal("max step difference",
                                                  c.max_step_difference, 0))))
    ops.append(Op("criterion-6-gamma", "criterion-6",
                  lambda: (exit_times.gamma_estimate(family, 3, "reduced", n_paths=4000,
                                                     seed=101),
                           exit_times.gamma_estimate(family, 3, "operator", n_paths=4000,
                                                     seed=202)),
                  lambda r: checks.check_gamma_agreement(r[0].gamma, r[0].stderr,
                                                         r[1].gamma, r[1].stderr)))

    c1, c2 = 2.0 ** -5, 2.0 ** -11 / 3.0
    ops.append(Op("criterion-7", "criterion-7",
                  lambda: exit_times.extract_invariants(1, c1, c2),
                  lambda r: checks.check_invariants(r.d, r.h, r.h_imaginary, 1, c1, c2)))
    ops.append(Op("criterion-8", "criterion-8", exit_times.paper_series_check,
                  lambda r: (checks.check_equal("c2 matches", r.c2_matches, True)
                             + ([] if abs(r.c2 - 1.0 / 32.0) <= 1e-8
                                else [f"series c2 {r.c2!r}"]))))

    # Criterion 9: verdicts the generator definitions fix, then the
    # derivation dimensions 2n, n(2n-1), 2 and the bi-invariant space {0}.
    g = generators

    def validators():
        torus_verdicts = [(r.gaussian_valid, r.qbm) for r in map(
            g.check_torus_generator,
            [g.TorusGeneratorSpec(-1.0, -1.0, -2.0), g.TorusGeneratorSpec(-1.0, -1.0, 0.0),
             g.TorusGeneratorSpec(0.0, 0.0, 0.0)])]
        bad = g.check_torus_generator(g.TorusGeneratorSpec(1.0, -1.0, 0.0))
        rank_one = g.check_otheta_generator(g.OThetaGeneratorSpec(
            n=1, z=(-1.0, -1.0), A=((0.0, 0.0), (0.0, 0.0))))
        scalar = g.check_oplus_generator(g.OPlusGeneratorSpec(
            n=1, L=((0.0, 1.0), (-1.0, 0.0)), A=((3.0,),)))
        return (torus_verdicts, bad.gaussian_valid,
                (rank_one.valid, rank_one.qbm, rank_one.biinvariant),
                (scalar.valid, scalar.qbm))

    ops.append(Op("criterion-9-validators", "criterion-9", validators,
                  lambda r: checks.check_equal(
                      "verdicts", r, ([(True, True), (True, False), (True, False)], False,
                                      (True, False, True), (True, True)))))
    groups = [(f"otheta({n})", 2 * n) for n in (1, 2, 3, 4)]
    groups += [(f"oplus({n})", n * (2 * n - 1)) for n in (1, 2, 3)] + [("torus", 2)]
    for group, dim in groups:
        ops.append(Op(f"derivations-{group}", "n=4" if "4" in group else "criterion-9",
                      lambda group=group: g.epsilon_derivation_dim(group, verify=True),
                      lambda r, group=group, dim=dim: checks.check_equal(group, r, dim)))
    for n in (1, 2, 3, 4):
        ops.append(Op(f"biinvariant-oplus({n})", "n=4" if n == 4 else "criterion-9",
                      lambda n=n: g.solve_biinvariant_oplus(n).dimension,
                      lambda r, n=n: checks.check_equal(f"bi-invariant oplus({n})", r, 0)))

    rng = np.random.default_rng(20260815 + seed)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    coalgebra = g.CoalgebraMatrix(4, tuple(tuple(row) for row in mat))
    l_u = -2.0 * math.pi ** 2 + 2j * math.pi * 0.3
    group_like = g.CoalgebraMatrix(1, ((l_u,),))
    pairs = [(0.3, 0.6), (0.05, 1.2), (1.0, 1.0)]
    ts = (0.0, 0.05, 0.7)

    def convolutions():
        law = [(g.convolution_exp(coalgebra, s), g.convolution_exp(coalgebra, t),
                g.convolution_exp(coalgebra, s + t)) for s, t in pairs]
        return law, [g.convolution_exp(group_like, t)[0, 0] for t in ts]

    ops.append(Op("criterion-10", "criterion-10", convolutions,
                  lambda r: [e for triple in r[0] for e in checks.check_semigroup_law(*triple)]
                  + [e for v, t in zip(r[1], ts) for e in checks.check_group_like(v, l_u, t)]))
    ops.append(Op("criterion-11", "criterion-11", exit_times.classical_circle_benchmark,
                  lambda r: checks.check_circle(r.d, r.h_squared)))
    return ops


WORKLOADS = {"exit-sweep": exit_sweep, "operator-meets": operator_meets,
             "lab-checks": lab_checks}


# -- traced-run probes ---------------------------------------------------------------------


def probe_normals(seed: int) -> float:
    """Bulk Philox normal draws per second, in the 4096-blocks the samplers use.

    Median of 3 timings of 2048 blocks each.
    """
    rates = []
    for r in range(3):
        rng = flow.stream_rng(seed, 3, 0, r)
        start = time.perf_counter()
        for _ in range(2048):
            rng.normal(size=4096)
        rates.append(2048 * 4096 / (time.perf_counter() - start))
    return sorted(rates)[1]


def probe_generator_alloc() -> float:
    """tracemalloc peak (MB) over the two dense generator systems of lab-checks."""
    import tracemalloc

    tracemalloc.start()
    try:
        generators.epsilon_derivation_dim("otheta(4)", verify=True)
        generators.solve_biinvariant_oplus(4)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


# -- the child ------------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ops = WORKLOADS[args.workload](args.seed, args.out)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    results = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.part = op.part
        try:
            results.append((True, op.run()))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append((False, f"{type(exc).__name__}: {exc}"))
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors, failed = [], 0
    for op, (ok, result) in zip(ops, results):
        if not ok:
            failed += 1
            errors.append(f"{op.name}: failed: {result}")
            continue
        try:
            errors += [f"{op.name}: {e}" for e in op.check(result)]
        except Exception as exc:  # e.g. an output file the program did not write
            errors.append(f"{op.name}: check raised {type(exc).__name__}: {exc}")
    record = {"run_s": run_s, "peak_rss_mb": peak_rss_mb, "attempted": len(ops),
              "failed": failed, "errors": errors}
    if tracer is not None:
        tracer.part = "probe"
        if args.workload == "exit-sweep":
            record["normals_per_s"] = probe_normals(args.seed)
        if args.workload == "lab-checks":
            record["generators_peak_alloc_mb"] = probe_generator_alloc()
        record["trace"] = tracer.report()
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
