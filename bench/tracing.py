"""Per-layer spans and counts, taken by wrapping the program's public module
functions from outside.

The CLI calls every library function as a module attribute
(`store.save_session(...)`, `estimator.min_delay_profile(...)`), and calls
`build_parser` through its module globals, so replacing those attributes
while a traced round runs sees every call without editing the program.
`remove` puts the originals back for the untraced rounds.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

# (module, function, span name, count hook). A span's busy time is reported
# under its name; `cli.main` is reported as its self time, `cli.self_s`.
SPANS = (
    ("simulator", "run_experiment", "simulator.run_experiment_s", "_count_samples"),
    ("store", "save_session", "store.save_session_s", "_count_save"),
    ("store", "load_session", "store.load_session_s", "_count_read"),
    ("store", "import_csv", "store.import_csv_s", "_count_read"),
    ("store", "read_observations_csv", "store.read_observations_csv_s", "_count_read"),
    ("estimator", "min_delay_profile", "estimator.min_delay_profile_s", "_count_points"),
    ("estimator", "estimate_pairwise", "estimator.fit_s", None),
    ("estimator", "estimate_regression", "estimator.fit_s", None),
    ("stats", "summarize", "stats.summarize_s", None),
    ("stats", "jitter_series", "stats.jitter_series_s", "_count_windows"),
    ("intercept", "fit_intercept_model", "intercept.fit_intercept_model_s", None),
    ("cli", "build_parser", "cli.build_parser_s", None),
    ("cli", "main", "cli.main", "_count_call"),
    ("probe", "run_session", "probe.run_session_s", "_count_probe"),
)
CPU_SPAN = "probe.run_session_s"  # also timed in CPU seconds, as probe.cpu_s


class Tracer:
    """Accumulates busy time, self time and counts per span name."""

    def __init__(self, modules: dict):
        self._modules = modules
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.rtt_floor_us: list[float] = []
        self.size_bias_us: list[float] = []
        self._stack: list[int] = []  # child time of each open span
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, span, hook in SPANS:
            module = self._modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, hook and getattr(self, hook)))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, span, hook):
        cpu = span == CPU_SPAN

        def traced(*args, **kwargs):
            self._stack.append(0)
            c0 = time.process_time_ns() if cpu else 0
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - t0
                if cpu:
                    self.busy_ns["probe.cpu_s"] += time.process_time_ns() - c0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self.busy_ns[span] += elapsed
                self.self_ns[span] += elapsed - child
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_samples(self, args, result):
        self.counts["simulator.samples"] += len(result)

    def _count_save(self, args, result):
        self.counts["store.save_calls"] += 1
        self.counts["store.bytes_written"] += os.path.getsize(args[1])

    def _count_read(self, args, result):
        self.counts["store.bytes_read"] += os.path.getsize(args[0])

    def _count_points(self, args, result):
        self.counts["estimator.points"] += len(result.points)

    def _count_windows(self, args, result):
        self.counts["stats.windows"] += len(result)

    def _count_call(self, args, result):
        self.counts["cli.calls"] += 1

    def _count_probe(self, args, result):
        self.counts["probe.sent"] += len(result)
        self.counts["probe.answered"] += sum(1 for s in result if s.rtt_s is not None)
        best: dict[int, float] = {}
        for s in result:
            if s.rtt_s is not None and s.rtt_s < best.get(s.payload_bytes, float("inf")):
                best[s.payload_bytes] = s.rtt_s
        if best:
            small, large = min(best), max(best)
            self.rtt_floor_us.append(best[small] * 1e6)
            self.size_bias_us.append((best[large] - best[small]) * 1e6)

    def snapshot(self) -> dict:
        """Cumulative per-layer figures so far; rounds take differences."""
        out = {name: ns / 1e9 for name, ns in self.busy_ns.items() if name != "cli.main"}
        out["cli.self_s"] = self.self_ns["cli.main"] / 1e9
        out.update(self.counts)
        return out
