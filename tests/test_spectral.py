"""The general engine (one dense symmetric solve) against closed forms and
the dense eigensolver, plus the comparison rule built on top of it,
`enclosure_verdict`, and the tests' own Rayleigh and surgery comparisons
(`oracles.rayleigh_quotient`, `oracles.surgery_compare`)."""

import math
import random

import networkx as nx
import numpy as np
import pytest

from spexplanar import (ConvergenceError, DisconnectedGraphError,
                        complete_bipartite, complete_graph, cycle_graph,
                        enclosure_verdict, from_edges, join_with_paths,
                        k2_join, path_graph, spectral_radius)
from spexplanar import kernel, spectral
from spexplanar.cli import main
from spexplanar.spectral import adjacency_matrix

import oracles
from oracles import rayleigh_quotient, spectral_radius_any, surgery_compare

TOL = 1e-12


def _grid(a: int, b: int):
    return from_edges(a * b, [(i * b + j, i * b + j + 1) for i in range(a)
                              for j in range(b - 1)]
                      + [(i * b + j, (i + 1) * b + j) for i in range(a - 1)
                         for j in range(b)])


def test_dense_solve_matches_closed_forms():
    for n in range(2, 13):
        assert spectral_radius(path_graph(n)).rho == pytest.approx(
            2.0 * math.cos(math.pi / (n + 1)), abs=1e-10)
        assert spectral_radius(complete_graph(n)).rho == pytest.approx(
            n - 1, abs=1e-10)
    for n in range(3, 13):
        assert spectral_radius(cycle_graph(n)).rho == pytest.approx(
            2.0, abs=1e-10)
    # bipartite graphs have a -rho eigenvalue; the solve must pick +rho
    for b in range(1, 30, 4):
        assert spectral_radius(complete_bipartite(2, b)).rho == pytest.approx(
            math.sqrt(2 * b), abs=1e-10)
    # non-regular bipartite graphs decompose B B' at their smaller colour
    # class: paths, stars, K_{a,b} with a != b, grids
    closed = [(path_graph(n), 2.0 * math.cos(math.pi / (n + 1)))
              for n in (57, 400)]
    closed += [(complete_bipartite(a, b), math.sqrt(a * b))
               for a, b in ((1, 9), (3, 5), (4, 11))]
    closed += [(_grid(a, b), 2.0 * math.cos(math.pi / (a + 1))
                + 2.0 * math.cos(math.pi / (b + 1)))
               for a, b in ((2, 3), (3, 7), (6, 6), (5, 20))]
    for g, rho in closed:
        res = spectral_radius(g)
        assert abs(res.rho - rho) <= 1e-12 and res.residual <= TOL
        assert res.solver == "dense"


def test_bipartite_route_vector_matches_dense_oracle():
    rng = random.Random(24)
    for _ in range(30):
        g = oracles.random_connected(rng, rng.randint(3, 40), extra=0)
        res = spectral_radius(g)
        assert (res.vector > 0).all() and res.vector.max() == 1.0
        assert np.max(np.abs(res.vector - oracles.dense_perron(g))) < 1e-8


def test_bipartite_graphs_decompose_at_the_smaller_class(monkeypatch):
    orders = []
    eigh = np.linalg.eigh

    def recording(m):
        orders.append(len(m))
        return eigh(m)
    monkeypatch.setattr(np.linalg, "eigh", recording)
    spectral_radius(complete_bipartite(3, 8))
    spectral_radius(_grid(3, 5))    # classes of 8 and 7
    spectral_radius(path_graph(9))  # classes of 5 and 4
    assert orders == [3, 7, 4]
    # a non-bipartite, non-regular graph decomposes A itself
    g = from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    assert not g.bipartite
    spectral_radius(g)
    assert orders[3:] == [5]
    # a regular graph, bipartite or not, needs no decomposition
    spectral_radius(cycle_graph(8))
    spectral_radius(cycle_graph(7))
    assert len(orders) == 4


def test_bipartite_route_builds_no_adjacency_matrix(monkeypatch):
    # B is laid out from the edge rows and Ax is (B x_Y, B' x_X): a
    # caterpillar (a bipartite non-join) is solved with no n x n matrix
    spine, legs = 30, range(0, 30, 3)
    g = from_edges(spine + len(legs),
                   [(v, v + 1) for v in range(spine - 1)]
                   + [(v, spine + j) for j, v in enumerate(legs)])
    want = oracles.dense_perron(g)

    def refuse(*args):
        raise AssertionError("the n x n adjacency matrix was built")
    monkeypatch.setattr(spectral, "adjacency_matrix", refuse)
    res = spectral_radius(g)
    assert res.solver == "dense" and res.residual <= TOL
    assert res.rho == pytest.approx(oracles.dense_rho(g), abs=1e-12)
    assert np.max(np.abs(res.vector - want)) < 1e-8


def test_a_and_b_are_the_edge_array_layouts():
    # A and the bipartite route's B are filled from the adjacency rows:
    # the same matrices as assigned from the rows of `edge_array`, so eigh
    # returns the same values and every rho, residual and vector is
    # unchanged. The graphs: random trees with chords at n = 12..24, paths
    # and caterpillars relabelled at random (the long thin shapes of the
    # benchmark's general-graphs workload), and P4000
    rng = random.Random(35)
    graphs = [oracles.random_connected(rng, rng.randint(12, 24),
                                       rng.choice([0, 3, 6, 12]))
              for _ in range(200)]
    for i in range(6):
        spine, d = 112 + i, (2, 4, 5)[i % 3]
        legs = range(0, spine, d)
        edges = [(v, v + 1) for v in range(spine - 1)]
        edges += [(v, spine + j) for j, v in enumerate(legs)]
        for n, es in ((146 + i, [(v, v + 1) for v in range(145 + i)]),
                      (spine + len(legs), edges)):
            perm = list(range(n))
            rng.shuffle(perm)
            graphs.append(from_edges(n, [(perm[u], perm[v]) for u, v in es]))
    graphs.append(path_graph(4000))
    bipartite = 0
    for g in graphs:
        assert np.array_equal(adjacency_matrix(g),
                              oracles.adjacency_from_edge_array(g))
        if g.bipartite:
            bipartite += 1
            for got, want in zip(spectral._bipartite_matrix(g),
                                 oracles.bipartite_matrix_from_edge_array(g)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
    assert bipartite > 50


def test_regular_graphs_are_answered_from_their_degree(monkeypatch):
    def refuse(*args):
        raise AssertionError("a regular graph built or decomposed a matrix")
    monkeypatch.setattr(spectral, "adjacency_matrix", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    graphs = [(cycle_graph(n), 2) for n in (3, 4, 5, 12)]
    graphs += [(complete_graph(n), n - 1) for n in (1, 2, 4, 6)]
    graphs += [(complete_bipartite(3, 3), 3),
               (oracles.from_nx(nx.petersen_graph()), 3),
               (oracles.from_nx(nx.octahedral_graph()), 4),
               (oracles.from_nx(nx.hypercube_graph(3)), 3)]
    for g, degree in graphs:
        res = spectral_radius(g)
        assert res.rho == degree and res.residual == 0.0
        assert res.vector.tolist() == [1.0] * g.n
        assert (res.solver, res.iterations) == ("dense", 1)


def test_power_iteration_matches_dense_oracle_random():
    rng = random.Random(20260817)
    for _ in range(100):
        g = oracles.random_connected(rng, rng.randint(2, 12))
        res = spectral_radius(g)
        assert res.rho == pytest.approx(oracles.dense_rho(g), abs=1e-10)


def test_perron_vector_contract():
    rng = random.Random(5)
    for _ in range(30):
        g = oracles.random_connected(rng, rng.randint(2, 20))
        res = spectral_radius(g)
        x = res.vector
        assert x.max() == 1.0
        assert (x > 0).all()
        assert res.residual <= TOL
        assert res.iterations >= 1
        # recompute the residual from the returned data
        a = adjacency_matrix(g)
        assert np.max(np.abs(a @ x - res.rho * x)) <= TOL
        # and the vector should match the dense eigenvector
        assert np.max(np.abs(x - oracles.dense_perron(g))) < 1e-8


def test_perron_vector_peaks_at_hubs_of_joins():
    rng = random.Random(11)
    for _ in range(10):
        parts = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        if sum(parts) + 2 < 12:
            parts.append(12 - sum(parts) - 2)
        for dom in (True, False):
            res = spectral_radius(k2_join(parts, dominating_edge=dom))
            # the max-normalized peak is a hub; its twin may differ by ulps
            assert res.vector.max() == 1.0
            assert res.vector.argmax() in (0, 1)
            assert abs(res.vector[0] - 1.0) <= 10 * TOL
            assert abs(res.vector[1] - 1.0) <= 10 * TOL


def test_spectral_radius_degree_bracket():
    rng = random.Random(6)
    for _ in range(30):
        g = oracles.random_connected(rng, rng.randint(2, 25))
        rho = spectral_radius(g).rho
        degs = [len(row) for row in g.adj]
        avg = 2 * oracles.edge_count(g) / g.n
        assert avg - 1e-9 <= rho <= max(degs) + 1e-9


def test_spectral_radius_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one vertex"):
        spectral_radius(from_edges(0, []))
    with pytest.raises(DisconnectedGraphError):
        spectral_radius(oracles.from_nx(nx.disjoint_union(
            nx.complete_graph(3), nx.complete_graph(3))))


def test_spectral_radius_single_vertex():
    res = spectral_radius(from_edges(1, []))
    assert res.rho == 0.0 and res.vector[0] == 1.0


def test_convergence_error_carries_state(monkeypatch):
    # a gate below the rounding floor: the dense solve cannot meet it
    monkeypatch.setattr(kernel, "TOL", 1e-300)
    with pytest.raises(ConvergenceError) as ei:
        spectral_radius(path_graph(3))
    # P3's rho is sqrt(2)
    assert ei.value.bound == pytest.approx(1e-300 * math.sqrt(2), rel=1e-15)
    assert ei.value.measure == "residual"
    assert ei.value.value > ei.value.bound
    assert "misses bound 1.414e-300" in str(ei.value)


def test_long_path_needs_no_iteration_cap():
    # a power iteration would need ~n^2 steps here (past 10^6)
    res = spectral_radius(path_graph(1130))
    assert abs(res.rho - 2.0 * math.cos(math.pi / 1131)) <= 1e-12
    assert res.residual <= TOL
    assert (res.solver, res.iterations) == ("dense", 1)


def test_dense_solve_refuses_orders_above_its_ceiling(monkeypatch, capsys):
    def adjacency(g):
        raise AssertionError("the n x n matrix was allocated")
    monkeypatch.setattr(spectral, "adjacency_matrix", adjacency)
    with pytest.raises(ValueError, match="DENSE_MAX_ORDER"):
        spectral_radius(path_graph(spectral.DENSE_MAX_ORDER + 1))
    assert main(["rho", f"P{spectral.DENSE_MAX_ORDER + 1}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # the ceiling is checked before connectivity, with no traversal
    with pytest.raises(ValueError, match="DENSE_MAX_ORDER"):
        spectral_radius(from_edges(spectral.DENSE_MAX_ORDER + 1, []))
    # a hub join of any order takes the secular engine, not the dense one
    big = join_with_paths([spectral.DENSE_MAX_ORDER, 7], True)
    assert spectral_radius(big).solver == "secular"


def test_determinism_exact():
    g = k2_join([9, 4, 2])
    r1 = spectral_radius(g)
    r2 = spectral_radius(g)
    assert r1.rho == r2.rho
    assert r1.iterations == r2.iterations
    assert (r1.vector == r2.vector).all()


def test_spectral_radius_any_takes_component_max():
    g = oracles.from_nx(nx.disjoint_union(nx.cycle_graph(4),
                                          nx.complete_graph(4)))
    assert spectral_radius_any(g) == pytest.approx(3.0, abs=1e-10)
    assert spectral_radius_any(path_graph(2)) == pytest.approx(1.0)


def test_rayleigh_quotient_variational():
    rng = random.Random(8)
    g = oracles.random_connected(rng, 15, extra=10)
    res = spectral_radius(g)
    assert rayleigh_quotient(g, res.vector) == pytest.approx(res.rho, abs=1e-9)
    assert rayleigh_quotient(complete_graph(2), [1.0, 1.0]) == 1.0
    for _ in range(50):
        x = np.array([rng.uniform(-1, 1) for _ in range(g.n)])
        if not x.any():
            continue
        assert rayleigh_quotient(g, x) <= res.rho + 1e-9


def test_rayleigh_quotient_sums_edges_in_sorted_order():
    # one term at a time over sorted edges: criterion 8's Rayleigh
    # quotients keep their bits
    rng = random.Random(9)
    for n in (2, 5, 30, 200):
        g = oracles.random_connected(rng, n, extra=2 * n)
        x = np.array([rng.uniform(-1, 1) for _ in range(n)])
        num = 0.0
        for u, v in g.edges():
            num += x[u] * x[v]
        assert rayleigh_quotient(g, x) == 2.0 * num / float(x @ x)


def test_rayleigh_quotient_rejects_bad_vectors():
    g = path_graph(3)
    with pytest.raises(ValueError, match="shape"):
        rayleigh_quotient(g, np.ones(4))
    with pytest.raises(ValueError, match="zero vector"):
        rayleigh_quotient(g, np.zeros(3))


def test_verdict_thresholds():
    # slack 2e-11 = 10*(tol_a+tol_b), the rule for a difference of two
    # rhos: a margin m is decided on [m - slack, m + slack]
    def verdict(margin, slack):
        return enclosure_verdict(margin - slack, margin + slack)

    assert verdict(3e-11, 2e-11) == "certified"
    assert verdict(2e-11, 2e-11) == "indeterminate"
    assert verdict(0.0, 2e-11) == "indeterminate"
    assert verdict(-2e-11, 2e-11) == "indeterminate"
    assert verdict(-3e-11, 2e-11) == "violated"


def test_enclosure_verdict():
    # an enclosure [lo, hi] of a margin: its sign is proven or it is not
    assert enclosure_verdict(1e-300, 1.0) == "certified"
    assert enclosure_verdict(-1.0, -1e-300) == "violated"
    assert enclosure_verdict(0.0, 1.0) == "indeterminate"
    assert enclosure_verdict(-1.0, 0.0) == "indeterminate"
    assert enclosure_verdict(math.nan, math.nan) == "indeterminate"


def test_edge_addition_strictly_raises_rho():
    # Perron-Frobenius: adding an edge to a connected graph raises rho, and
    # at these sizes the increase clears the certification margin easily
    rng = random.Random(13)
    done = 0
    while done < 40:
        n = rng.randint(4, 40)
        g = oracles.random_connected(rng, n)
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not g.has_edge(u, v)]
        if not non_edges:
            continue
        gp = from_edges(n, list(g.edges()) + [rng.choice(non_edges)])
        diff = spectral_radius(gp).rho - spectral_radius(g).rho
        slack = 10 * (TOL + TOL)
        assert enclosure_verdict(diff - slack, diff + slack) == "certified"
        done += 1


def test_surgery_compare_edge_added():
    g = path_graph(6)
    gp = from_edges(6, list(g.edges()) + [(0, 5)])  # close the cycle
    rep = surgery_compare(g, gp)
    assert rep.rho_gp == pytest.approx(2.0, abs=1e-10)
    assert rep.surgery_margin > 0  # proves rho(G') > rho(G) by itself
    assert rep.variational_gap >= -2e-11
    assert rep.bound_holds


def test_surgery_compare_edge_removed():
    g = cycle_graph(6)
    gp = from_edges(6, [e for e in g.edges() if e != (0, 1)])
    rep = surgery_compare(g, gp)
    assert rep.rho_gp < rep.rho_g
    assert rep.surgery_margin < 0  # the bound proves nothing here
    assert rep.bound_holds  # but the variational inequality still holds


def test_surgery_compare_requires_same_order():
    with pytest.raises(ValueError, match="vertex counts differ"):
        surgery_compare(path_graph(3), path_graph(4))


def test_surgery_bound_never_violated_random():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(4, 25)
        rep = surgery_compare(oracles.random_connected(rng, n),
                              oracles.random_connected(rng, n))
        assert rep.bound_holds
        assert rep.rho_gp >= rep.rayleigh_gp - 1e-10
