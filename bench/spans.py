"""Span tracer for the benchmark's traced run.

`Tracer.install` replaces chosen public functions of the ncqbm layers, in
every ncqbm module that holds a reference to them, by wrappers that record a
span per call: call count, total time and self time (total minus the time
of traced calls made inside it), keyed by the benchmark part that was
running and by the function.  Work counters are read from the returned
objects.  Spans stay in memory and are reported when the child ends.
End-to-end figures come from untraced runs, which never import this module.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps

# Layer boundaries the benchmark times: every function its workloads call
# into, plus the inner calls that carry the layers' work.
TRACED = {
    "flow": ("vacuum_expectation_mc",),
    "exit_times": ("gamma_estimate", "run_exit_asymptotics", "run_survival_comparison",
                   "extract_invariants", "paper_series_check", "classical_circle_benchmark"),
    "banded": ("banded_mul", "build_rieffel_projection", "translate_action",
               "is_projection", "member_of_X"),
    "lattice": ("meet_pair_iterative", "compare_iterative_to_closed_form",
                "meet_along_path", "meet_along_path_operator"),
    "generators": ("check_torus_generator", "check_otheta_generator",
                   "check_oplus_generator", "check_generator_spec",
                   "epsilon_derivation_dim", "solve_biinvariant_oplus", "convolution_exp"),
    "cli": ("main",),
}

# Work counters, read from what a traced call returns.
COUNTERS = {
    "exit_times.gamma_estimate": lambda r: {"path_steps": r.n_paths * r.mean_steps},
    "lattice.meet_pair_iterative": lambda r: {"squarings": r.iterations},
    "lattice.meet_along_path_operator": lambda r: {"factors_folded": r.n_factors},
}


class Tracer:
    def __init__(self) -> None:
        self.part = "setup"
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (part, name) -> calls, total, self
        self.counts = defaultdict(float)  # (part, counter) -> value
        self._open: list[float] = []  # traced child time of each open span

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        # banded_mul costs scale with the grid, so its spans are split by grid size.
        by_grid = name == "banded.banded_mul"

        @wraps(fn)
        def traced(*args, **kwargs):
            key = f"{name}@{args[0].n}" if by_grid else name
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                span = self.spans[(self.part, key)]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - inner
            if count is not None:
                for counter, value in count(result).items():
                    self.counts[(self.part, counter)] += value
            return result

        return traced

    def install(self) -> None:
        import ncqbm.cli  # noqa: F401  (loads every layer)

        modules = [m for n, m in sys.modules.items() if n.startswith("ncqbm.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"ncqbm.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def report(self) -> dict:
        return {
            "spans": [{"part": part, "name": name, "calls": calls,
                       "total_s": total, "self_s": self_s}
                      for (part, name), (calls, total, self_s) in sorted(self.spans.items())],
            "counts": [{"part": part, "name": name, "value": value}
                       for (part, name), value in sorted(self.counts.items())],
        }
