"""Exact cycle search, constructive join certificates, spectra, membership."""

import random

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from spexplanar import (Graph, SearchBudgetExceeded, complete_bipartite,
                        complete_graph, cycle_graph, cycle_spectrum,
                        find_cycle, from_edges, from_graph6,
                        in_gnk, k2_join, path_graph,
                        recognize_hub_join, spectral_radius, to_graph6,
                        validate_cycle)
from spexplanar import cycles
from spexplanar.cycles import DEFAULT_BUDGET, hub_forest_cycle, hub_join_member
from spexplanar.families import LinearForest, extremal_forest, join_with_paths

import oracles
from oracles import enumerate_lna, extremal_graph, join_cycle_certificate


def petersen():
    return from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)])


def test_validate_cycle():
    g = cycle_graph(5)
    validate_cycle(g, [0, 1, 2, 3, 4])
    validate_cycle(g, [2, 3, 4, 0, 1])
    with pytest.raises(ValueError, match=">= 3"):
        validate_cycle(g, [0, 1])
    with pytest.raises(ValueError, match="repeats"):
        validate_cycle(g, [0, 1, 2, 3, 0])
    with pytest.raises(ValueError, match="missing edge"):
        validate_cycle(g, [0, 1, 3])
    with pytest.raises(ValueError, match="out of range"):
        validate_cycle(g, [0, 1, 7])


def test_find_cycle_on_known_graphs():
    c6 = cycle_graph(6)
    assert find_cycle(c6, 6) == [0, 1, 2, 3, 4, 5]
    for ell in (3, 4, 5):
        assert find_cycle(c6, ell) is None
    k4 = complete_graph(4)
    for ell in (3, 4):
        cyc = find_cycle(k4, ell)
        assert cyc is not None and len(cyc) == ell
    # trees have no cycles at all
    assert find_cycle(path_graph(8), 3) is None


def test_find_cycle_length_bounds():
    with pytest.raises(ValueError, match=r"\[3, 5\]"):
        find_cycle(cycle_graph(5), 6)
    with pytest.raises(ValueError):
        find_cycle(cycle_graph(5), 2)


def test_find_cycle_returns_validated_certificates():
    rng = random.Random(2)
    for _ in range(40):
        g = oracles.random_connected(rng, rng.randint(4, 10))
        for ell in range(3, g.n + 1):
            cyc = find_cycle(g, ell)
            if cyc is not None:
                assert len(cyc) == ell
                validate_cycle(g, cyc)


def test_cycle_lengths_match_johnson_oracle():
    # networkx enumerates all simple cycles (Johnson); statuses must agree
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(4, 9)
        g = oracles.random_graph(rng, n, rng.choice([0.25, 0.4, 0.6]))
        want = oracles.cycle_lengths(g)
        spec = cycle_spectrum(g)
        got = set(oracles.present_lengths(spec))
        assert got == want
        assert all(r.status in ("present", "absent") for r in spec.records)


@settings(max_examples=120)
@given(oracles.glued_graphs(max_n=24))
def test_cycle_lengths_match_johnson_oracle_on_glued_blocks(g):
    spec = cycle_spectrum(g)
    assert set(oracles.present_lengths(spec)) == oracles.cycle_lengths(g)
    assert all(r.status in ("present", "absent") for r in spec.records)


def test_lengths_above_the_largest_block_cost_no_budget():
    # two K4s sharing vertex 3, a path 5-7-8-9 hanging from the second and
    # an isolated 10: the largest block has 4 vertices, so lengths 5..11
    # need no search at all
    k4 = (4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    g = oracles.glue([k4, k4, (4, [(0, 1), (1, 2), (2, 3)])], [None, 3, 5],
                     isolated=1)
    assert g.n == 11
    for ell in range(5, 12):
        assert find_cycle(g, ell, budget=1) is None
    spec = cycle_spectrum(g, budget=1)
    assert [r.status for r in spec.records[2:]] == ["absent"] * 7


def test_odd_lengths_in_a_bipartite_block_cost_no_budget():
    # the 6x6 grid is one bipartite block: every odd length is absent
    # without a search, every even length 4..36 is present
    grid = from_edges(36, [(v, v + 1) for v in range(36) if v % 6 < 5]
                      + [(v, v + 6) for v in range(30)])
    (verts, _, _), = grid.local_blocks
    assert verts == tuple(range(36)) and grid.bipartite
    assert all(find_cycle(grid, ell, budget=1) is None
               for ell in range(3, 36, 2))
    spec = cycle_spectrum(grid)
    assert all(r.status != "budget" for r in spec.records)
    assert oracles.present_lengths(spec) == list(range(4, 37, 2))


def test_petersen_spectrum():
    spec = cycle_spectrum(petersen())
    assert oracles.present_lengths(spec) == [5, 6, 8, 9]
    assert oracles.first_absent(spec) == 3
    assert set(oracles.present_lengths(spec)) == oracles.cycle_lengths(
        petersen())


def test_budget_exhaustion_is_a_third_outcome():
    with pytest.raises(SearchBudgetExceeded) as ei:
        find_cycle(cycle_graph(30), 30, budget=3)
    assert ei.value.ell == 30 and ei.value.budget == 3
    spec = cycle_spectrum(cycle_graph(30), budget=3)
    # C30 is one bipartite block, so odd lengths cost nothing; an even
    # length pays an anchor and a first step at each of its anchors and
    # runs out, and must say so, not claim absence
    assert spec.records[3 - 3].status == "absent"
    assert spec.records[30 - 3].status == "budget"
    assert oracles.present_lengths(spec) == []


@settings(max_examples=60)
@given(oracles.glued_graphs(max_n=24),
       st.sampled_from([1, 3, 10, 100, DEFAULT_BUDGET]))
# absence of length 6 is proven in 10 units only if each cycle is met in
# one orientation
@example(from_edges(6, [(0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (2, 3),
                        (3, 5)]), 10)
def test_one_pass_spectrum_matches_per_length_searches(g, budget):
    # the pass over every length, with its fallback to find_cycle for what
    # it leaves open, gives each length the outcome and certificate of a
    # search of its own with the same budget, and so does find_cycle
    spec = cycle_spectrum(g, budget=budget)
    for rec in spec.records:
        want = oracles.per_length_search(g, rec.ell, budget)
        try:
            got = find_cycle(Graph(g.n, g.adj), rec.ell, budget)  # no memo
        except SearchBudgetExceeded as exc:
            assert (exc.ell, exc.budget) == (rec.ell, budget)
            got = "budget"
        assert got == want
        if want == "budget":
            assert (rec.status, rec.certificate) == ("budget", None)
            continue
        assert rec.status == ("absent" if want is None else "present")
        assert rec.certificate == (None if want is None else tuple(want))
        if want is not None:
            # the memo answers with the record's cycle, as a fresh list,
            # whatever the budget now
            assert g.settled_cycles[rec.ell] is rec.certificate
            assert find_cycle(g, rec.ell, budget=1) == want


def _least_canonical_cycles(g):
    """Per length, the least of g's cycles from networkx's enumeration
    alone, each written from its least vertex toward the smaller of that
    vertex's two cycle-neighbours."""
    least = {}
    for cyc in nx.simple_cycles(oracles.to_nx(g)):
        i = cyc.index(min(cyc))
        cyc = cyc[i:] + cyc[:i]
        if cyc[1] > cyc[-1]:
            cyc = cyc[:1] + cyc[:0:-1]
        cyc = tuple(cyc)
        if len(cyc) not in least or cyc < least[len(cyc)]:
            least[len(cyc)] = cyc
    return least


@settings(max_examples=150)
@given(oracles.glued_graphs(max_n=14))
# two blocks at vertex 0, the first closed by the Tarjan pass holding its
# neighbours 1, 5 and 6: the least triangle (0, 2, 3) lies in the second,
# so first steps must follow 0's adjacency order across its blocks
@example(from_edges(8, [(0, 1), (1, 7), (6, 7), (0, 6), (0, 5), (5, 6),
                        (0, 2), (0, 3), (2, 3)]))
def test_certificates_are_the_least_canonical_cycles(g):
    # the certificate contract, held against an enumeration of every cycle:
    # a present length's certificate is its least canonical cycle, and an
    # absent length has no cycle at all
    least = _least_canonical_cycles(g)
    for ell in range(3, g.n + 1):
        cyc = find_cycle(g, ell)
        assert (None if cyc is None else tuple(cyc)) == least.get(ell)
    if recognize_hub_join(g) is None:
        spec = cycle_spectrum(Graph(g.n, g.adj))
        assert [r.certificate for r in spec.records] == [
            least.get(ell) for ell in range(3, g.n + 1)]


def test_in_gnk_after_cycle_spectrum_searches_nothing(monkeypatch):
    from spexplanar import cycles
    searches = []
    search = cycles._search

    def counting(g, lengths, budget):
        searches.append(list(lengths))
        return search(g, lengths, budget)

    monkeypatch.setattr(cycles, "_search", counting)
    # the octahedron: planar, pancyclic, and no hub join
    octahedron = [(u, v) for u in range(6) for v in range(u + 1, 6)
                  if (u, v) not in ((0, 1), (2, 3), (4, 5))]
    g = from_edges(6, octahedron)
    spec = cycle_spectrum(g)
    assert oracles.present_lengths(spec) == [3, 4, 5, 6]
    assert searches == [[3, 4, 5, 6]]
    assert in_gnk(g, 0) == in_gnk(g, 2) == (False, None)
    assert find_cycle(g, 6) == list(spec.records[3].certificate)
    assert cycle_spectrum(g).records == spec.records
    assert searches == [[3, 4, 5, 6]]
    # an equal graph without the memo searches length by length
    assert in_gnk(from_edges(6, octahedron), 0) == (False, None)
    assert searches[1:] == [[3], [4], [5], [6]]


def test_budget_outcomes_are_not_memoized():
    g = cycle_graph(30)
    assert cycle_spectrum(g, budget=3).records[30 - 3].status == "budget"
    assert 30 not in g.settled_cycles
    spec = cycle_spectrum(g)
    assert spec.records[30 - 3].status == "present"
    assert oracles.present_lengths(spec) == [30]


def test_recognize_hub_join_positive():
    got = recognize_hub_join(k2_join([3, 2, 1]))
    assert got is not None
    hub1, hub2, paths, hub_edge = got
    assert (hub1, hub2, hub_edge) == (0, 1, True)
    assert paths == [[2, 3, 4], [5, 6], [7]]
    assert recognize_hub_join(k2_join([1, 1]))[2] == [[2], [3]]
    # without the hub edge: K_{2,4} and two hubs over 2 P2
    assert recognize_hub_join(complete_bipartite(2, 4))[3] is False
    got = recognize_hub_join(k2_join([2, 2], dominating_edge=False))
    assert got[2:] == ([[2, 3], [4, 5]], False)


def test_recognize_hub_join_negative():
    assert recognize_hub_join(cycle_graph(6)) is None
    assert recognize_hub_join(path_graph(5)) is None
    assert recognize_hub_join(complete_graph(5)) is None  # five hubs
    # two hubs over a cycle is not a hub-over-forest graph
    assert recognize_hub_join(oracles.from_nx(nx.full_join(
        nx.complete_graph(2), nx.cycle_graph(4), rename=("hub", "c")))) is None


@pytest.mark.parametrize("hub_edge", [True, False])
def test_a_forest_vertex_of_forest_degree_three_is_no_join(hub_edge):
    # two hubs over K_{1,3} + P3 (n = 9): the star's centre has degree 5,
    # below the hub degree, and three forest neighbours
    hubs = nx.complete_graph(2) if hub_edge else nx.empty_graph(2)
    g = oracles.from_nx(nx.full_join(
        hubs, nx.disjoint_union(nx.star_graph(3), nx.path_graph(3)),
        rename=("h", "f")))
    assert g.n == 9 and sorted(map(len, g.adj))[-3:] == (
        [5, 8, 8] if hub_edge else [5, 7, 7])
    assert recognize_hub_join(g) is None
    res = spectral_radius(g)
    assert res.solver == "dense"
    assert abs(res.rho - oracles.dense_rho(g)) <= 1e-10
    spec = cycle_spectrum(g)
    assert set(oracles.present_lengths(spec)) == oracles.cycle_lengths(g)
    assert all(r.status in ("present", "absent") for r in spec.records)


def test_hub_forest_cycle_construction():
    paths = [[2, 3, 4], [5]]
    g = k2_join([3, 1])
    assert hub_forest_cycle(0, 1, paths, 3) == [0, 2, 1]
    assert hub_forest_cycle(0, 1, paths, 6) == [0, 2, 3, 4, 1, 5]
    assert hub_forest_cycle(0, 1, paths, 7) is None
    for ell in range(3, 7):
        validate_cycle(g, hub_forest_cycle(0, 1, paths, ell))


def test_join_cycle_certificate_examples():
    assert join_cycle_certificate([2, 1], 5) == [0, 2, 3, 1, 4]
    assert join_cycle_certificate([1, 1, 1], 3) == [0, 2, 1]
    assert join_cycle_certificate([4, 2], 8) == [0, 2, 3, 4, 5, 1, 6, 7]
    assert join_cycle_certificate([4, 2], 9) is None
    assert join_cycle_certificate([4, 1, 1], 9) is None
    assert join_cycle_certificate(LinearForest((3, 3, 3)), 8) is not None


def test_certificates_agree_with_search():
    # the constructive route and the exact search must give the same
    # presence set on every join
    rng = random.Random(41)
    for _ in range(12):
        m = rng.randint(2, 10)
        parts = []
        while m:
            p = rng.randint(1, m)
            parts.append(p)
            m -= p
        g = k2_join(parts)
        n1, n2 = oracles.two_largest(LinearForest(tuple(parts)))
        for ell in range(3, g.n + 1):
            cert = join_cycle_certificate(parts, ell)
            assert (cert is not None) == (ell <= n1 + n2 + 2)
            assert (find_cycle(g, ell) is not None) == (cert is not None)


def test_spectrum_fast_path_matches_search_path():
    g = k2_join([5, 2, 1])
    fast = cycle_spectrum(g)  # recognized: no search at all
    assert all(r.certificate is not None for r in fast.records
               if r.status == "present")
    for rec in fast.records:
        assert (find_cycle(g, rec.ell) is not None) == (rec.status == "present")


def test_joins_match_the_search_with_and_without_the_hub_edge():
    # cycle lengths are [3, n1+n2+2], except {4} for K_{2,m}; cycle_spectrum
    # writes its certificates down unchecked, so each is checked here
    for n in range(5, 15):
        for a in range(n - 2):
            for lf in enumerate_lna(n, a):
                n1, n2 = oracles.two_largest(lf)
                for hub_edge in (True, False):
                    g = k2_join(lf, dominating_edge=hub_edge)
                    want = (list(range(3, n1 + n2 + 3))
                            if hub_edge or n1 >= 2 else [4])
                    spec = cycle_spectrum(g)
                    assert oracles.present_lengths(spec) == want, lf.parts
                    for rec in spec.records:
                        found = find_cycle(g, rec.ell) is not None
                        assert found == (rec.status == "present"), (lf, rec)
                        if found:
                            assert len(rec.certificate) == rec.ell
                            validate_cycle(g, rec.certificate)


@pytest.mark.parametrize("parts", [
    extremal_forest(259, 0).parts, (100, 80, 40, 30, 5, 2),
    extremal_forest(2051, 3).parts, (1500, 300, 249)])
def test_certificates_of_relabelled_joins_are_cycles(parts):
    rng = random.Random(len(parts))
    for hub_edge in (True, False):
        base = join_with_paths(parts, hub_edge)
        perm = list(range(base.n))
        rng.shuffle(perm)
        g = from_graph6(to_graph6(from_edges(
            base.n, [(perm[u], perm[v]) for u, v in base.edges()])))
        assert recognize_hub_join(g) is not None
        spec = cycle_spectrum(g)
        n1, n2 = sorted(parts)[-1], sorted(parts)[-2]
        assert oracles.present_lengths(spec) == list(range(3, n1 + n2 + 3))
        for rec in spec.records:
            if rec.certificate is not None:
                assert len(rec.certificate) == rec.ell
                validate_cycle(g, rec.certificate)


def test_in_gnk_settles_joins_without_the_hub_edge():
    # the search would exhaust 10^7 expansions at length 80
    g = k2_join([76, 1, 1], dominating_edge=False)
    assert in_gnk(g, 0) == (True, 80)


def test_find_cycle_has_no_recursion_limit():
    assert find_cycle(cycle_graph(1100), 1100) == list(range(1100))


def test_spectrum_ell_max():
    spec = cycle_spectrum(complete_graph(5), ell_max=4)
    assert [r.ell for r in spec.records] == [3, 4]
    with pytest.raises(ValueError, match="exceeds vertex count"):
        cycle_spectrum(complete_graph(5), ell_max=6)
    assert spec.records[4 - 3].status == "present"


def test_spectrum_ell_max_below_three():
    for ell_max in (2, 0, -3):
        with pytest.raises(ValueError, match="ell_max must be >= 3"):
            cycle_spectrum(complete_graph(5), ell_max=ell_max)
    # without an explicit ell_max a graph on fewer than 3 vertices has an
    # empty spectrum
    assert cycle_spectrum(path_graph(2)).records == ()


def test_in_gnk_membership():
    assert in_gnk(cycle_graph(6), 0) == (True, 3)
    # the conjectured maximizer misses exactly length n-k
    assert in_gnk(extremal_graph(10, 0), 0) == (True, 10)
    assert in_gnk(extremal_graph(10, 1), 1) == (True, 9)
    assert in_gnk(extremal_graph(25, 2), 2) == (True, 23)
    assert in_gnk(complete_graph(4), 0) == (False, None)
    assert in_gnk(cycle_graph(6), 3) == (True, 3)
    assert in_gnk(k2_join([6]), 0) == (False, None)


def test_in_gnk_rejects_bad_input():
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        with pytest.raises(ValueError,
                           match="membership is defined for planar graphs"):
            in_gnk(g, 0)
    # a recognized join is checked by the closed form, with the same message
    for g in (cycle_graph(6), k2_join([3, 1])):
        with pytest.raises(ValueError, match="0 <= k <= n-3"):
            in_gnk(g, 4)
        with pytest.raises(ValueError, match="0 <= k <= n-3"):
            in_gnk(g, -1)


def test_in_gnk_stops_at_the_first_absent_length(monkeypatch):
    from spexplanar import cycles
    searched = []
    search = cycles.find_cycle

    def counting(g, ell, budget):
        searched.append(ell)
        return search(g, ell, budget)

    monkeypatch.setattr(cycles, "find_cycle", counting)
    assert in_gnk(cycle_graph(60), 0) == (True, 3)
    assert searched == [3]


def test_in_gnk_skips_planarity_on_hub_joins(monkeypatch):
    # a recognized join is a spanning subgraph of the maximal planar
    # K2 + P_{n-2}, with or without the hub edge: no planarity test needed
    from spexplanar import cycles
    tested = []
    planar = cycles.is_planar

    def counting(g):
        tested.append(g.n)
        return planar(g)

    monkeypatch.setattr(cycles, "is_planar", counting)
    assert in_gnk(extremal_graph(259, 0), 0) == (True, 259)
    assert in_gnk(k2_join([3, 1, 1, 1], dominating_edge=False), 0) == (True, 7)
    assert tested == []
    assert in_gnk(cycle_graph(6), 0) == (True, 3)
    assert tested == [6]


def _walk(g, k, budget=DEFAULT_BUDGET):
    """in_gnk's length-by-length search walk, with the recognizer bypassed."""
    for rec in cycles._cycle_records(g, g.n - k, budget, None):
        if rec.status == "budget":
            raise SearchBudgetExceeded(rec.ell, budget)
        if rec.status == "absent":
            return True, rec.ell
    return False, None


def test_join_membership_matches_the_search_walk():
    # every join of forest order 1..10, both hub states, every k: the
    # closed form, alone and through in_gnk on the built join, gives the
    # first absent length of the search
    cases, witnesses = 0, set()
    for m in range(1, 11):
        for a in range(m):
            for lf in enumerate_lna(m + 2, a):
                for hub_edge in (True, False):
                    g = k2_join(lf, dominating_edge=hub_edge)
                    for k in range(m):
                        want = _walk(g, k)
                        assert hub_join_member(lf.parts, hub_edge, k) == want
                        assert in_gnk(g, k) == want, (lf.parts, hub_edge, k)
                        cases += 1
                        if not hub_edge and lf.parts[0] == 1:
                            witnesses.add(want[1])  # K_{2,m}: no triangle
    assert cases == 2212
    assert witnesses == {3}
    # without the hub edge the search exhausts its budget on the Hamiltonian
    # length 80, which the closed form settles as absent
    g = k2_join([76, 1, 1], dominating_edge=False)
    for k in range(1, 78):
        assert hub_join_member((76, 1, 1), False, k) == _walk(g, k) \
            == (False, None)
    assert hub_join_member((76, 1, 1), False, 0) == (True, 80)
    with pytest.raises(SearchBudgetExceeded) as exc:
        _walk(g, 0, budget=10 ** 5)
    assert exc.value.ell == 80


def test_in_gnk_on_a_recognized_join_constructs_and_searches_nothing(
        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no certificate and no search on a join")

    for name in ("hub_forest_cycle", "find_cycle", "_search"):
        monkeypatch.setattr(cycles, name, refuse)
    assert in_gnk(extremal_graph(2051, 3), 3) == (True, 2048)
    assert in_gnk(k2_join([76, 1, 1], dominating_edge=False), 0) == (True, 80)
    assert in_gnk(complete_bipartite(2, 7), 0) == (True, 3)
    assert in_gnk(k2_join([6]), 0) == (False, None)


def test_in_gnk_budget_propagates():
    with pytest.raises(SearchBudgetExceeded):
        # odd, so length 3 takes a search; C30 would settle it for free
        in_gnk(cycle_graph(31), 0, budget=1)


def test_join_pancyclicity_up_to_forced_bound():
    # joins are pancyclic up to n1+n2+2 and contain nothing longer
    for parts in [(8, 3, 1), (6, 6), (12,), (1, 1, 1, 1)]:
        g = k2_join(parts)
        n1, n2 = oracles.two_largest(LinearForest(parts))
        spec = cycle_spectrum(g)
        assert oracles.present_lengths(spec) == list(range(3, n1 + n2 + 3))
        if n1 + n2 + 2 < g.n:
            assert oracles.first_absent(spec) == n1 + n2 + 3
        else:
            assert oracles.first_absent(spec) is None


def test_disconnected_graphs_still_searchable():
    g = oracles.from_nx(nx.disjoint_union(nx.cycle_graph(4),
                                          nx.cycle_graph(3)))
    assert find_cycle(g, 3) is not None
    assert find_cycle(g, 4) is not None
    assert find_cycle(g, 7) is None
