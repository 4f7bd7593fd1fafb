"""Benchmark of the ncqbm lab: one workload per call, one JSON result line.

    python3 bench/run.py --workload exit-sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Every round of the workload runs in a fresh child interpreter
(bench/workloads.py), one at a time, with BLAS/OpenMP pinned to one thread.
With --trace 0 the last line holds the end-to-end metrics: run_s and
peak_rss_mb are medians over the run's rounds, setup_s the median over at
least SETUP_SAMPLES children that stop after set-up.  With --trace 1 one traced
round of every workload gives the per-layer metrics.  A record of each run,
thread settings included, goes to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("exit-sweep", "operator-meets", "lab-checks")
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 5
CHILD_TIMEOUT = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: THREADS for var in THREAD_VARS})
    return env


def run_child(workload: str, seed: int, mode: str) -> dict:
    """One fresh interpreter; setup_s runs from spawn to its `ready` line."""
    out = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--mode", mode]
    start = time.perf_counter()
    # Unbuffered, so reading the `ready` line leaves the rest for communicate().
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), bufsize=0)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(out, ignore_errors=True)
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"{workload} child ({mode}) exited with {proc.returncode}")
    result = json.loads(rest.decode().splitlines()[-1]) if mode != "setup" else {}
    result["setup_s"] = setup_s
    result["wall_s"] = time.perf_counter() - start
    return result


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list, list]:
    def setup_sample():
        return run_child(workload, seed, "setup")["setup_s"]

    run_child(workload, seed, "setup")  # warms the file cache and bytecode
    # Set-up is timed in set-up-only children spread over the whole run:
    # before the rounds, after each round and at the end.  This machine's
    # speed drifts over tens of seconds, and spreading the samples keeps one
    # slow or fast stretch from deciding the median.
    setups = [setup_sample() for _ in range(SETUP_SAMPLES // 2)]
    rounds = []
    deadline = time.perf_counter() + seconds
    # Whole rounds only; start another while it should end within the budget.
    while not rounds or (time.perf_counter()
                         + statistics.median(r["wall_s"] for r in rounds) <= deadline):
        rounds.append(run_child(workload, seed, "run"))
        setups.append(setup_sample())
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(r["run_s"] for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                        "unit": "MB"},
    }
    return metrics, rounds, setups


def import_times() -> dict:
    """Cumulative import time (s) of ncqbm.cli and ncqbm.generators, -X importtime."""
    samples = {"ncqbm.cli": [], "ncqbm.generators": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ncqbm.cli"],
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT, check=True)
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
            if match and match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) * 1e-6)
    return {name: statistics.median(values) for name, values in samples.items()}


def per_layer(traced: dict, imports: dict) -> dict:
    """Per-layer metrics from one traced round of each workload."""

    def total(workload, name, part=None):
        return sum(s["total_s"] for s in traced[workload]["trace"]["spans"]
                   if s["name"] == name and s["part"] != "probe"
                   and part in (None, s["part"]))

    def per_call_us(workload, name):
        spans = [s for s in traced[workload]["trace"]["spans"] if s["name"] == name]
        return 1e6 * sum(s["total_s"] for s in spans) / sum(s["calls"] for s in spans)

    def count(workload, name, part=None):
        return sum(c["value"] for c in traced[workload]["trace"]["counts"]
                   if c["name"] == name and part in (None, c["part"]))

    gamma_s = total("exit-sweep", "exit_times.gamma_estimate")
    path_steps = count("exit-sweep", "path_steps")
    normals_per_s = traced["exit-sweep"]["normals_per_s"]
    cli_self = sum(s["self_s"] for r in traced.values() for s in r["trace"]["spans"]
                   if s["name"] == "cli.main")
    values = {
        "exit_times.gamma_estimate_s": (gamma_s, "s"),
        "exit_times.path_steps": (path_steps, "count"),
        "exit_times.path_steps_per_s": (path_steps / gamma_s, "1/s"),
        "exit_times.run_survival_comparison_s":
            (total("lab-checks", "exit_times.run_survival_comparison"), "s"),
        "flow.normals_per_s": (normals_per_s, "1/s"),
        "flow.draw_share": (path_steps / normals_per_s / gamma_s, "ratio"),
        "banded.banded_mul_us_2048": (per_call_us("operator-meets", "banded.banded_mul@2048"),
                                      "us"),
        "banded.banded_mul_us_512": (per_call_us("operator-meets", "banded.banded_mul@512"),
                                     "us"),
        "banded.is_projection_s": (total("lab-checks", "banded.is_projection"), "s"),
        "lattice.meet_pair_iterative_s":
            (total("operator-meets", "lattice.meet_pair_iterative", "criterion-2"), "s"),
        "lattice.squarings": (count("operator-meets", "squarings", "criterion-2"), "count"),
        "lattice.meet_along_path_operator_s":
            (total("operator-meets", "lattice.meet_along_path_operator"), "s"),
        "lattice.factors_folded": (count("operator-meets", "factors_folded"), "count"),
        "lattice.meet_along_path_s": (total("operator-meets", "lattice.meet_along_path"), "s"),
        "generators.epsilon_derivation_dim_s":
            (total("lab-checks", "generators.epsilon_derivation_dim"), "s"),
        "generators.solve_biinvariant_oplus_s":
            (total("lab-checks", "generators.solve_biinvariant_oplus"), "s"),
        "generators.peak_alloc_mb": (traced["lab-checks"]["generators_peak_alloc_mb"], "MB"),
        "cli.import_s": (imports["ncqbm.cli"], "s"),
        "generators.import_s": (imports["ncqbm.generators"], "s"),
        "cli.overhead_s": (cli_self, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "ncqbm").is_dir():
        print(f"no ncqbm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.trace:
        # The named workload first, then the others: all layers in one traced run.
        order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
        traced = {w: run_child(w, args.seed, "trace") for w in order}
        metrics = per_layer(traced, import_times())
        rounds, setups = list(traced.values()), []
    else:
        metrics, rounds, setups = end_to_end(args.workload, args.seed, args.seconds)

    errors = [e for r in rounds for e in r["errors"]]
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = {
        "args": vars(args), "result": result, "errors": errors,
        "rounds": [{k: v for k, v in r.items() if k != "trace"} for r in rounds],
        "setup_samples_s": setups,
        "threads": {var: THREADS for var in THREAD_VARS},
        "python": platform.python_version(), "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }
    if args.trace:
        record["spans"] = {w: r["trace"] for w, r in traced.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
