"""Linear forests, hub joins, and the family enumeration."""

import random

import networkx as nx
import numpy as np
import pytest

from spexplanar import (LinearForest, build_linear_forest, complete_bipartite,
                        from_edges, is_planar, join_with_paths, k2_join,
                        path_graph)
from spexplanar.families import lna_sizes, partitions

import oracles
from oracles import enumerate_lna, extremal_graph


def test_linear_forest_normalizes_part_order():
    lf = LinearForest((1, 4, 2))
    assert lf.parts == (4, 2, 1)
    assert lf.order == 7
    assert oracles.two_largest(lf) == (4, 2)
    assert oracles.two_largest(LinearForest((5,))) == (5, 0)


def test_linear_forest_rejects_bad_parts():
    with pytest.raises(ValueError, match="at least one part"):
        LinearForest(())
    with pytest.raises(ValueError, match=">= 1"):
        LinearForest((3, 0))


def test_build_linear_forest_layout():
    g = build_linear_forest([3, 1])
    assert g.n == 4
    assert list(g.edges()) == [(0, 1), (1, 2)]
    # input order is irrelevant: parts are laid out sorted
    assert build_linear_forest([1, 3]) == g


def test_join_with_paths_keeps_given_block_order():
    g = join_with_paths([1, 2], dominating_edge=False)
    # block 0 is the singleton at vertex 2; the P2 occupies 3,4
    assert g.has_edge(3, 4) and not g.has_edge(2, 3)
    assert not g.has_edge(0, 1)
    assert oracles.edge_count(g) == 1 + 2 * 3
    assert oracles.edge_count(join_with_paths([1, 2], True)) == 8


def test_join_with_paths_rejects_empty_part():
    with pytest.raises(ValueError, match=">= 1"):
        join_with_paths([3, 0])
    with pytest.raises(ValueError, match=">= 1"):
        join_with_paths([2, -1, 4], False)


def test_join_edges_and_graph6_match_a_networkx_join():
    # unsorted part lists, on both sides of graph6's 62/63 header switch;
    # the package's joins and forests, written as rows in Python, are the
    # graphs of the oracle's numpy edge rows
    rng = random.Random(2405)
    orders = [3, 4, 9, 61, 62, 63, 64, 65, 128, 259, 300]
    orders += [rng.randint(3, 300) for _ in range(6)]
    cases = [[1] * (n - 2) for n in (3, 4, 62, 63)]  # K_{2,m}
    cases += [[n - 2] for n in (3, 62, 63)]  # a single path
    for n in orders:
        m = n - 2
        cuts = sorted(rng.sample(range(1, m), rng.randint(0, min(m - 1, 9))))
        cases.append([b - a for a, b in zip([0] + cuts, cuts + [m])])
    for p in cases:
        n = sum(p) + 2
        for hub_edge in (True, False):
            h = oracles.join_nx(p, hub_edge)
            rows = oracles.join_edges(p, hub_edge)
            ref = nx.convert_node_labels_to_integers(h)
            assert rows.dtype == np.int64
            assert rows.tolist() == sorted(sorted(e) for e in ref.edges())
            assert oracles.graph6_from_edges(n, rows) == nx.to_graph6_bytes(
                h, header=False).decode().strip(), (p, hub_edge)
            assert join_with_paths(p, hub_edge) == from_edges(
                n, rows.tolist()), (p, hub_edge)
        # the forest is the join's path rows, relabelled from 0
        lf = LinearForest(tuple(p))
        paths = oracles.join_edges(lf.parts, False)[2 * lf.order:] - 2
        assert build_linear_forest(p) == from_edges(lf.order, paths.tolist())


def test_k2_join_matches_generic_join():
    for parts in [(3, 1), (2, 2), (5,), (1, 1, 1)]:
        expected = oracles.from_nx(nx.full_join(
            nx.complete_graph(2), oracles.to_nx(build_linear_forest(parts)),
            rename=("hub", "forest")))
        assert k2_join(parts) == expected


def test_k2_join_all_singletons_is_complete_bipartite():
    assert k2_join([1] * 9, dominating_edge=False) == complete_bipartite(2, 9)


def test_k2_join_is_planar_both_ways():
    for parts in [(10, 3, 2), (1,) * 12, (40,)]:
        assert is_planar(k2_join(parts, dominating_edge=True))
        assert is_planar(k2_join(parts, dominating_edge=False))
    # K2 + P_{n-2} contains every join of order n, with or without the hub
    # edge, as a spanning subgraph: all of them are planar
    for n in [*range(3, 201), 259, 300]:
        assert is_planar(join_with_paths([n - 2], True)), n


def test_extremal_graph_shape_and_edge_count():
    assert extremal_graph(8, 0) == k2_join([4, 1, 1])
    for n, k in [(7, 0), (8, 0), (20, 0), (10, 1), (12, 1), (25, 1), (13, 2),
                 (40, 2)]:
        g = extremal_graph(n, k)
        assert g.n == n
        # hub edge + forest edges (n-5) + two full join stars
        assert oracles.edge_count(g) == 3 * n - 8
        assert is_planar(g)


def test_extremal_graph_preconditions():
    with pytest.raises(ValueError, match="k must be >= 0"):
        extremal_graph(10, -1)
    with pytest.raises(ValueError, match="3k\\+7 = 10"):
        extremal_graph(9, 1)


def test_enumerate_lna_frozen_examples():
    assert [lf.parts for lf in enumerate_lna(6, 1)] == [(3, 1), (2, 2)]
    assert [lf.parts for lf in enumerate_lna(8, 2)] == [
        (4, 1, 1), (3, 2, 1), (2, 2, 2)]
    assert [lf.parts for lf in enumerate_lna(10, 0)] == [(8,)]


def test_enumerate_lna_order_and_shape():
    for n, a in [(12, 2), (15, 3), (20, 4)]:
        seen = [lf.parts for lf in enumerate_lna(n, a)]
        assert len(seen) == len(set(seen))
        for parts in seen:
            assert sum(parts) == n - 2
            assert len(parts) == a + 1
            assert all(parts[i] >= parts[i + 1] for i in range(a))
        # reverse-lexicographic: each partition strictly precedes the next
        assert all(seen[i] > seen[i + 1] for i in range(len(seen) - 1))
        assert seen[0] == (n - 2 - a,) + (1,) * a


def test_partitions_match_the_recursive_generator():
    # every row, in order, with a lower limit of 1 on each part: total 0
    # into one part has no partition, and into none has the empty one
    for total in range(31):
        for k in range(7):
            for cap in (total, total - 3, 1):
                rows = partitions(total, k, cap)
                assert rows.dtype == np.int64 and rows.shape[1] == k
                assert rows.tolist() == list(
                    oracles.partitions_desc(total, k, cap)), (total, k, cap)


def test_enumerate_lna_preconditions():
    with pytest.raises(ValueError, match="a must be >= 0"):
        list(enumerate_lna(10, -1))
    with pytest.raises(ValueError, match="n >= a\\+3"):
        list(enumerate_lna(5, 3))


def test_count_lna_matches_partition_recurrence():
    for n in range(3, 81):
        sizes = lna_sizes(n, n - 3)
        assert sizes == [oracles.partition_count(n - 2, a + 1)
                         for a in range(n - 2)]
        for a in range(min(5, n - 2)):
            assert sizes[a] == sum(1 for _ in enumerate_lna(n, a))
    # at n = 2051 the count is a loop, not a recursion: p(m, 1) = 1,
    # p(m, 2) = floor(m/2), p(m, 3) = round(m^2/12)
    sizes = lna_sizes(2051, 16)
    assert sizes[:3] == [1, 1024, 349867]
    assert len(sizes) == 17 and 2e25 < sizes[16] < 2.1e25


def test_enumerate_lna_matches_brute_force_sets():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(6, 18)
        a = rng.randint(1, min(4, n - 3))
        mine = {lf.parts for lf in enumerate_lna(n, a)}
        brute = set(oracles.partitions_exact(n - 2, a + 1))
        assert mine == brute


def test_path_graph_edge_chain():
    assert list(path_graph(4).edges()) == [(0, 1), (1, 2), (2, 3)]
    assert oracles.edge_count(path_graph(1)) == 0
