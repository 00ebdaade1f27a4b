"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Each criterion pins its own tolerance and wall-clock budget. The lines are
collected into the terminal summary (see conftest.py) so a plain
`pytest -v` run shows the ledger; failures re-raise with full detail.
"""

import functools
import math
import random
import time

import conftest
import oracles
from oracles import enumerate_lna, join_cycle_certificate

from spexplanar import (complete_bipartite, find_cycle,
                        from_edges, from_graph6, in_gnk, is_planar,
                        k2_join, lemma1_sweep,
                        lemma2_sweep, spectral_radius, to_graph6,
                        verify_claim33)
from spexplanar import gridconfig
from spexplanar.verify import argmax_sweep, entry_bounds_sample

SECONDS = {1: 10, 2: 120, 3: 300, 4: 300, 5: 600, 6: 120, 7: 1800,
           8: 120, 9: 120}

# merge + interval sweep: every split of n-2 into n1 >= n2 >= k+2
LEMMA2_SWEEP = {"n": 300, "k": 0}

# exhaustive admissible-forest maximization
ARGMAX_SWEEP = {"n": 259, "k": 0, "max_parts": 3}


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.perf_counter()
            try:
                detail = fn()
            except BaseException:
                conftest.RESULTS.append(f"FAIL criterion {num}: {label}")
                raise
            dt = time.perf_counter() - t0
            if dt >= SECONDS[num]:
                conftest.RESULTS.append(
                    f"FAIL criterion {num}: {label} "
                    f"(runtime {dt:.1f}s over the {SECONDS[num]}s budget)")
                raise AssertionError(f"criterion {num} over time budget")
            line = f"PASS criterion {num}: {label} ({dt:.1f}s; {detail})"
            conftest.RESULTS.append(line)
            print(line)
        return run
    return wrap


@criterion(1, "rho(K_{2,n-2}) = sqrt(2n-4) within 1e-9 for n in 4..200")
def test_criterion_1_closed_form_bipartite():
    worst = 0.0
    for n in range(4, 201):
        rho = spectral_radius(complete_bipartite(2, n - 2)).rho
        worst = max(worst, abs(rho - math.sqrt(2 * n - 4)))
    assert worst <= 1e-9, worst
    return f"197 orders, max deviation {worst:.2e}"


@criterion(2, "spectral_radius (secular engine on joins) matches the "
              "dense eigensolver within 1e-8")
def test_criterion_2_dense_oracle_equivalence():
    worst = 0.0
    joins = 0
    for n in range(4, 13):
        for a in range(0, min(3, n - 3) + 1):
            for lf in enumerate_lna(n, a):
                g = k2_join(lf)
                worst = max(worst, abs(spectral_radius(g).rho
                                       - oracles.dense_rho(g)))
                joins += 1
    rng = random.Random(20260817)
    for _ in range(500):
        g = oracles.random_connected(rng, rng.randint(2, 12))
        worst = max(worst, abs(spectral_radius(g).rho
                               - oracles.dense_rho(g)))
    assert worst <= 1e-8, worst
    return f"{joins} joins + 500 random graphs, max deviation {worst:.2e}"


@criterion(3, "long-cycle threshold and exact spectrum of every join, "
              "exhaustive n <= 16, k <= 3")
def test_criterion_3_cycle_threshold_exhaustive():
    forests = 0
    searches = 0
    for n in range(4, 17):
        for a in range(1, n - 2):
            for lf in enumerate_lna(n, a):
                g = k2_join(lf)
                n1, n2 = oracles.two_largest(lf)
                # exact search, length by length: the spectrum must be
                # exactly 3..n1+n2+2
                for ell in range(3, n + 1):
                    present = find_cycle(g, ell) is not None
                    assert present == (ell <= n1 + n2 + 2), (lf.parts, ell)
                    cert = join_cycle_certificate(lf, ell)
                    assert (cert is not None) == present
                    searches += 1
                # membership predicate at every k
                for k in range(0, min(3, n - 3) + 1):
                    has_long = n - k <= n1 + n2 + 2
                    assert has_long == (n1 + n2 >= n - k - 2)
                forests += 1
    return f"{forests} joins, {searches} exact searches, zero mismatches"


@criterion(4, "family ordering sweep certifies at n = 40, 60, 80 "
              "with margin > 1e-10")
def test_criterion_4_family_ordering_sweep():
    pairs = 0
    worst = math.inf
    for n in (40, 60, 80):
        for rep in lemma1_sweep(n):
            assert rep.holds == "certified", rep.params
            assert rep.margins["min_pair_gap"] > 1e-10, rep.params
            worst = min(worst, rep.margins["min_pair_gap"])
            pairs += rep.params["pairs"]
    return f"{pairs} forest pairs covered, min gap {worst:.2e}"


@criterion(5, "merge inequality + interval witnesses over every split "
              "at n = 300, k = 0")
def test_criterion_5_merge_and_intervals_sweep():
    n, k = LEMMA2_SWEEP["n"], LEMMA2_SWEEP["k"]
    reports = lemma2_sweep(n, k)
    assert len(reports) == 2 * 148  # splits n2 = 2..149
    min_gap = math.inf
    min_slack = math.inf
    witnesses = 0
    for rep in reports:
        assert rep.holds == "certified", rep.params
        if rep.check_id == "lemma2":
            min_gap = min(min_gap, rep.margins["rho_gap"])
        else:
            p = rep.params
            again, wits = verify_claim33(p["n"], p["k"], p["n1"], p["n2"],
                                         tuple(p["l"]))
            assert again.to_json() == rep.to_json()  # reproducible
            assert all(w.contained for w in wits)
            witnesses += len(wits)
            min_slack = min(min_slack, rep.margins["min_band_slack"])
    assert min_gap > 0 and min_slack > 0
    return (f"148 splits, {witnesses} interval witnesses, "
            f"min rho gap {min_gap:.2e}, min band slack {min_slack:.2e}")


@criterion(6, "Perron entry bounds hold on 200 sampled joins, n in 20..100")
def test_criterion_6_entry_bounds_sample():
    cfg = gridconfig.ENTRY_BOUNDS_SAMPLE
    reports = entry_bounds_sample(cfg["count"], cfg["n_lo"], cfg["n_hi"],
                                  cfg["seed"])
    assert len(reports) == 200
    lo = min(r.margins["lower_slack"] for r in reports)
    hi = min(r.margins["upper_slack"] for r in reports)
    for rep in reports:
        assert rep.holds == "certified", rep.params
        assert cfg["n_lo"] <= rep.params["n"] <= cfg["n_hi"]
    return f"200 joins certified, min slacks {lo:.2e} / {hi:.2e}"


@criterion(7, "argmax sweep at n = 259 lands on the head-plus-two-tails "
              "forest, uniquely, and the join misses length 259")
def test_criterion_7_argmax_reproduction():
    cfg = ARGMAX_SWEEP
    result = argmax_sweep(cfg["n"], cfg["k"], cfg["max_parts"])
    rep = result.report
    assert rep.holds == "certified", rep.params  # unique above the margin
    assert rep.params["argmax"] == [255, 1, 1]
    assert rep.params["matches_expected"] is True
    assert rep.params["ties"] == [[255, 1, 1]]
    assert rep.margins["runner_up_gap"] > 2e-11
    g = from_graph6(rep.artifacts["argmax_join"])
    assert is_planar(g)
    assert in_gnk(g, cfg["k"]) == (True, 259)
    return (f"{rep.params['candidates']} candidates, rho_max "
            f"{rep.margins['rho_max']:.6f}, runner-up gap "
            f"{rep.margins['runner_up_gap']:.2e}")


@criterion(8, "variational surgery bound never violated beyond 1e-10 "
              "on 10^4 random pairs")
def test_criterion_8_surgery_bound():
    rng = random.Random(20260817)
    worst = math.inf
    for _ in range(10_000):
        n = rng.randint(4, 40)
        rep = oracles.surgery_compare(oracles.random_connected(rng, n),
                                      oracles.random_connected(rng, n))
        worst = min(worst, rep.variational_gap)
        assert rep.rho_gp >= rep.rayleigh_gp - 1e-10
        assert rep.bound_holds
    return f"10000 pairs, worst variational gap {worst:.2e}"


@criterion(9, "graph6 round-trip and planarity agreement, n <= 9")
def test_criterion_9_codec_and_planarity():
    import networkx as nx
    checked = 0
    # exhaustive over every labeled graph on up to 5 vertices
    for n in range(0, 6):
        m = n * (n - 1) // 2
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << m):
            edges = [pairs[i] for i in range(m) if mask >> i & 1]
            g = from_edges(n, edges)
            assert from_graph6(to_graph6(g)) == g
            assert is_planar(g) == oracles.planar_by_kuratowski(g)
            checked += 1
    # seeded random sample up to n = 9, including the codec cross-check
    rng = random.Random(20260817)
    for n in range(6, 10):
        for _ in range(150):
            g = oracles.random_graph(rng, n,
                                     rng.choice([0.2, 0.35, 0.5, 0.7]))
            s = to_graph6(g)
            assert from_graph6(s) == g
            assert s == nx.to_graph6_bytes(oracles.to_nx(g),
                                           header=False).decode().strip()
            assert is_planar(g) == oracles.planar_by_kuratowski(g), s
            checked += 1
    return f"{checked} graphs, zero mismatches"
