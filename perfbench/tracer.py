"""Per-layer tracing from outside the program, by rebinding module attributes.

`Tracer.install(spex)` wraps the public functions of each spexplanar module
in a span that records calls, total time and self time (total minus the
time of wrapped callees). A function is rebound under every name that holds
it in any spexplanar module, so `verify.spectral_radius` and
`cli.to_graph6`, bound at import time by `from .x import y`, are traced as
well as the defining module's own name. `uninstall()` restores every binding.

A function that a later version of the program renames or removes is
skipped; its metrics then read 0.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

# (module, qualified name) -> layer metric that takes its self time.
# Counters are attached separately in COUNTED.
TIMED = {
    ("graphs", "from_edges"): "graphs.from_edges_s",
    ("graphs", "to_graph6"): "graphs.g6_encode_s",
    ("graphs", "from_graph6"): "graphs.g6_decode_s",
    ("graphs", "parse_edge_list"): "graphs.edge_list_parse_s",
    ("graphs", "is_planar"): "graphs.planarity_s",
    ("families", "join_with_paths"): "families.join_s",
    ("families", "k2_join"): "families.join_s",
    ("families", "extremal_graph"): "families.join_s",
    ("families", "enumerate_lna"): "families.enumerate_s",
    ("families", "count_lna"): "families.enumerate_s",
    # the argmax candidate list is a forest enumeration that lives in verify
    ("verify", "admissible_forests"): "families.enumerate_s",
    ("spectral", "spectral_radius"): "spectral.solve_s",
    ("spectral", "spectral_radius_any"): "spectral.solve_s",
    ("spectral", "adjacency_matrix"): "spectral.adjacency_s",
    ("spectral", "rayleigh_quotient"): "spectral.rayleigh_s",
    ("cycles", "find_cycle"): "cycles.search_s",
    ("cycles", "cycle_spectrum"): "cycles.spectrum_s",
    ("cycles", "in_gnk"): "cycles.member_s",
    ("cycles", "recognize_hub_forest"): "cycles.recognize_s",
    ("verify", "verify_lemma1"): "verify.check_s",
    ("verify", "lemma1_sweep"): "verify.check_s",
    ("verify", "verify_lemma2"): "verify.check_s",
    ("verify", "verify_claim33"): "verify.check_s",
    ("verify", "lemma2_sweep"): "verify.check_s",
    ("verify", "verify_entry_bounds"): "verify.check_s",
    ("verify", "entry_bounds_sample"): "verify.check_s",
    ("verify", "argmax_sweep"): "verify.check_s",
    ("verify", "rerun"): "verify.check_s",
    ("verify", "reports_to_csv"): "verify.serialize_s",
    ("verify", "VerificationReport.to_json"): "verify.serialize_s",
    ("verify", "ArgmaxSweepResult.rows_jsonl"): "verify.serialize_s",
    ("verify", "ArgmaxSweepResult.rows_csv"): "verify.serialize_s",
    ("cli", "main"): "cli.self_s",
}

# (module, qualified name) -> call-count metric
COUNTED = {
    ("graphs", "from_edges"): "graphs.from_edges_calls",
    ("graphs", "to_graph6"): "graphs.g6_encode_calls",
    ("graphs", "is_planar"): "graphs.planarity_calls",
    ("families", "join_with_paths"): "families.join_calls",
    ("spectral", "spectral_radius"): "spectral.solves",
    ("cycles", "find_cycle"): "cycles.find_cycle_calls",
    ("verify", "VerificationReport.__init__"): "verify.reports",
}

_TIMED_KEYS = {f"{mod}.{qualname}" for mod, qualname in TIMED}

LAYER_METRICS = {  # name -> (unit, better)
    "graphs.from_edges_s": ("s", "lower"),
    "graphs.from_edges_calls": ("count", "lower"),
    "graphs.g6_encode_s": ("s", "lower"),
    "graphs.g6_encode_calls": ("count", "lower"),
    "graphs.g6_decode_s": ("s", "lower"),
    "graphs.edge_list_parse_s": ("s", "lower"),
    "graphs.planarity_s": ("s", "lower"),
    "graphs.planarity_calls": ("count", "lower"),
    "families.join_s": ("s", "lower"),
    "families.join_calls": ("count", "lower"),
    "families.enumerate_s": ("s", "lower"),
    "spectral.solve_s": ("s", "lower"),
    "spectral.solves": ("count", "lower"),
    "spectral.iterations": ("count", "lower"),
    "spectral.adjacency_s": ("s", "lower"),
    "spectral.rayleigh_s": ("s", "lower"),
    "spectral.distinct_per_solve": ("ratio", "higher"),
    "cycles.search_s": ("s", "lower"),
    "cycles.find_cycle_calls": ("count", "lower"),
    "cycles.spectrum_s": ("s", "lower"),
    "cycles.member_s": ("s", "lower"),
    "cycles.recognize_s": ("s", "lower"),
    "verify.check_s": ("s", "lower"),
    "verify.serialize_s": ("s", "lower"),
    "verify.reports": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, FunctionStats] = {}
        self.iterations = 0
        self.solved: set[int] = set()
        self._child_time: list[float] = []   # one accumulator per open span
        self._bindings: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _span(self, key: str, call):
        stats = self.stats.setdefault(key, FunctionStats())
        stack = self._child_time
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            stats.calls += 1
            stats.total_s += dt
            stats.self_s += dt - child

    def _wrap(self, key: str, fn):
        if key not in _TIMED_KEYS:
            # counted only: no span, so callers keep this time as self time
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                self.stats.setdefault(key, FunctionStats()).calls += 1
                return fn(*args, **kwargs)
            return counter

        if inspect.isgeneratorfunction(fn):
            # time each resumption: the body runs while the caller iterates
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._span(key, lambda: next(it))
                    except StopIteration:
                        return
                    yield item
            return gen_wrapper

        observe = key == "spectral.spectral_radius"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._span(key, lambda: fn(*args, **kwargs))
            if observe:
                t0 = time.perf_counter()
                self._observe_solve(args, result)
                if self._child_time:  # keep the bookkeeping out of the caller
                    self._child_time[-1] += time.perf_counter() - t0
            return result
        return wrapper

    def _observe_solve(self, args, result) -> None:
        self.iterations += int(getattr(result, "iterations", 0))
        if args:
            try:
                self.solved.add(hash(args[0]))
            except TypeError:
                self.solved.add(id(args[0]))

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for mod_name, qualname in sorted(set(TIMED) | set(COUNTED)):
            mod = sys.modules.get(f"{package.__name__}.{mod_name}")
            owner, attr = mod, qualname
            if mod is not None and "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(mod, cls_name, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                continue
            wrapped = self._wrap(f"{mod_name}.{qualname}", orig)
            if owner is mod:
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            self._bind(m, name, wrapped)
            else:
                self._bind(owner, attr, wrapped)

    def _bind(self, owner, name: str, value) -> None:
        self._bindings.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._bindings):
            setattr(owner, name, orig)
        self._bindings.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out = {name: 0.0 for name in LAYER_METRICS}
        for (mod, qualname), metric in TIMED.items():
            st = self.stats.get(f"{mod}.{qualname}")
            if st is not None:
                out[metric] += st.self_s
        for (mod, qualname), metric in COUNTED.items():
            st = self.stats.get(f"{mod}.{qualname}")
            if st is not None:
                out[metric] += st.calls
        out["spectral.iterations"] = float(self.iterations)
        solves = out["spectral.solves"]
        out["spectral.distinct_per_solve"] = (
            len(self.solved) / solves if solves else 0.0)
        return out

    def function_table(self) -> dict[str, dict]:
        return {key: {"calls": st.calls, "total_s": st.total_s,
                      "self_s": st.self_s}
                for key, st in sorted(self.stats.items())}
