"""spexplanar: spectral-extremal toolkit for planar hub-join graphs.

Construct joins of two hub vertices with linear forests, compute their
spectral radii and Perron vectors deterministically, enumerate cycle
spectra with certificates, and run the inequality checks and exhaustive
sweeps that compare these families.

Each export is imported from its module on first access (PEP 562), so
`import spexplanar` loads no layer, and numpy only with the first name
whose module needs it (`spectral`, `verify`).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "graphs": ("Graph", "GraphConstructionError", "Graph6Error", "from_edges",
               "from_graph6", "to_graph6", "is_planar", "parse_edge_list",
               "format_edge_list"),
    "families": ("LinearForest", "build_linear_forest", "join_with_paths",
                 "k2_join", "path_graph", "cycle_graph", "complete_graph",
                 "complete_bipartite", "recognize_hub_join"),
    "kernel": ("ConvergenceError", "enclosure_verdict", "TOL"),
    "spectral": ("SpectralResult", "DisconnectedGraphError",
                 "spectral_radius", "hub_join_radii", "hub_join_spectrum"),
    "cycles": ("CycleRecord", "CycleSpectrum", "SearchBudgetExceeded",
               "find_cycle", "validate_cycle", "cycle_spectrum", "in_gnk",
               "DEFAULT_BUDGET"),
    "verify": ("IntervalWitness", "VerificationReport", "ArgmaxSweepResult",
               "verify_lemma1", "lemma1_sweep", "verify_lemma2",
               "verify_claim33", "lemma2_sweep", "verify_entry_bounds",
               "entry_bounds_sample", "argmax_sweep", "merge_threshold",
               "reports_to_csv", "rerun"),
}
_MODULE = {name: mod for mod, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE)


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE})
