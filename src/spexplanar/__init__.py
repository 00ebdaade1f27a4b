"""spexplanar: spectral-extremal toolkit for planar hub-join graphs.

Construct joins of two hub vertices with linear forests, compute their
spectral radii and Perron vectors deterministically, enumerate cycle
spectra with certificates, and run the inequality checks and exhaustive
sweeps that compare these families.
"""

from .graphs import (Graph, GraphConstructionError, Graph6Error,
                     from_edges, from_graph6, to_graph6,
                     is_planar, parse_edge_list, format_edge_list)
from .families import (LinearForest, build_linear_forest, join_with_paths,
                       k2_join, extremal_graph, enumerate_lna,
                       path_graph, cycle_graph, complete_graph,
                       complete_bipartite, recognize_hub_join)
from .spectral import (SpectralResult, DisconnectedGraphError,
                       ConvergenceError, spectral_radius, hub_join_radii,
                       hub_join_spectrum, enclosure_verdict, TOL)
from .cycles import (CycleRecord, CycleSpectrum, SearchBudgetExceeded,
                     find_cycle, validate_cycle, cycle_spectrum, in_gnk,
                     DEFAULT_BUDGET)
from .verify import (IntervalWitness, VerificationReport, ArgmaxSweepResult,
                     verify_lemma1, lemma1_sweep, verify_lemma2,
                     verify_claim33, lemma2_sweep, verify_entry_bounds,
                     entry_bounds_sample, argmax_sweep, admissible_forests,
                     merge_threshold, reports_to_csv, rerun)

__version__ = "0.1.0"
