"""Graph value type, graph6 codec, blocks and planarity."""

import copy
import pickle
import random
import time
from functools import cached_property
from itertools import permutations

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spexplanar import (Graph, Graph6Error, GraphConstructionError,
                        format_edge_list, from_edges, from_graph6,
                        is_planar, parse_edge_list, spectral_radius,
                        to_graph6)
from spexplanar.families import (complete_bipartite, complete_graph,
                                 cycle_graph, join_with_paths, path_graph)
from spexplanar.cycles import cycle_spectrum
from spexplanar import planarity
from spexplanar.graphs import _kernel
from spexplanar.planarity import lr_planar

import oracles


# --- construction -------------------------------------------------------------


def test_from_edges_basic():
    g = from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    assert g.n == 4
    assert oracles.edge_count(g) == 4
    assert len(g.adj[0]) == 3
    assert g.adj[2] == (0, 1)
    assert g.has_edge(3, 0) and not g.has_edge(3, 1)
    assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2)]


def test_from_edges_collapses_duplicates():
    g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert oracles.edge_count(g) == 1


def test_from_edges_rejects_bad_input():
    with pytest.raises(GraphConstructionError, match=r"self-loop \(2, 2\)"):
        from_edges(3, [(2, 2)])
    with pytest.raises(GraphConstructionError, match=r"\(0, 5\) out of range"):
        from_edges(3, [(0, 5)])
    with pytest.raises(GraphConstructionError, match="vertex count"):
        from_edges(-1, [])


def test_graph_is_immutable_and_hashable():
    g = from_edges(3, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5
    assert g == from_edges(3, [(1, 0)])
    assert hash(g) == hash(from_edges(3, [(0, 1)]))


def test_cached_properties_leave_value_semantics_alone():
    g = oracles.glue([oracles.subdivide(6, oracles.K33_EDGES, [1] * 9),
                      (3, [(0, 1), (1, 2), (2, 0)]), (2, [(0, 1)])],
                     [None, 4, None], isolated=1)
    fresh = from_edges(g.n, list(g.edges()))
    pickled = pickle.dumps(g)
    assert len(g.local_blocks) == 2 and not is_planar(g)
    assert pickle.dumps(g) == pickled
    assert g == fresh and hash(g) == hash(fresh)
    for back in (pickle.loads(pickled), copy.deepcopy(g)):
        assert back == g and hash(back) == hash(g)
        assert back.local_blocks == g.local_blocks and not back.planar


def test_connectivity_and_components():
    g = from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert not g.is_connected()
    assert from_edges(1, []).is_connected()
    assert from_edges(0, []).is_connected()
    assert path_graph(6).is_connected()


def test_induced_subgraph_relabels_sorted():
    g = from_edges(6, [(0, 3), (3, 5), (5, 0), (1, 2)])
    h = oracles.induced_subgraph(g, [5, 0, 3])
    assert h == from_edges(3, [(0, 1), (1, 2), (2, 0)])


# --- graph6 codec -------------------------------------------------------------


def test_graph6_known_strings():
    assert to_graph6(from_edges(2, [(0, 1)])) == "A_"
    assert to_graph6(complete_graph(3)) == "Bw"
    assert to_graph6(path_graph(3)) == "Bg"
    assert to_graph6(from_edges(0, [])) == "?"
    assert to_graph6(from_edges(1, [])) == "@"
    assert from_graph6("A_") == from_edges(2, [(0, 1)])
    assert from_graph6("Bw") == complete_graph(3)


def test_graph6_header_is_stripped():
    assert from_graph6(">>graph6<<Bw") == complete_graph(3)


def test_graph6_roundtrip_random():
    rng = random.Random(20260817)
    sizes = [0, 1, 2, 5, 13, 30, 61, 62, 63, 64, 70]
    for n in sizes:
        for p in (0.0, 0.2, 0.8):
            g = oracles.random_graph(rng, n, p)
            assert from_graph6(to_graph6(g)) == g, n


def test_graph6_zero_tail_decodes_in_linear_time():
    # one edge ahead of a body of 40,775 zero groups: the decoder skips
    # them once, where retrying the tail from each of its bytes takes
    # seconds
    g = from_edges(700, [(0, 1)])
    text = to_graph6(g)
    t = time.perf_counter()
    assert from_graph6(text) == g
    assert time.perf_counter() - t < 0.5


def test_graph6_agrees_with_networkx_codec():
    rng = random.Random(4)
    graphs = [oracles.random_graph(rng, n, 0.3)
              for n in (3, 7, 20, 62, 63, 80)]
    # hub joins up to the paper's order 2051; 63 is the first order with
    # the 4-byte long-form header
    graphs += [join_with_paths([n - 10, 5, 3], dominating_edge=n != 63)
               for n in (62, 63, 259, 2051)]
    for g in graphs:
        mine = to_graph6(g)
        theirs = nx.to_graph6_bytes(oracles.to_nx(g), header=False)
        assert mine == theirs.decode().strip()
        back = nx.from_graph6_bytes(mine.encode())
        assert set(back.edges()) == set(g.edges())
        assert from_graph6(mine) == g


def test_to_graph6_matches_the_numpy_encoder():
    # seeded random graphs of every order 0..90, across the header switch
    # at 63, sparse to dense: the same bytes as the oracle's numpy encoder
    rng = random.Random(3790)
    for n in range(91):
        for p in (0.05, 0.5, 0.95):
            g = oracles.random_graph(rng, n, p)
            assert to_graph6(g) == oracles.graph6_from_edges(
                n, oracles.edge_array(g)), (n, p)


@st.composite
def small_graphs(draw, max_n: int = 70):
    n = draw(st.integers(0, max_n))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)),
                      st.integers(0, max(n - 1, 0)))
    return from_edges(n, [(u, v) for u, v in draw(st.lists(pairs))
                          if u != v])


# graph6 switches to the 4-byte long-form header at n = 63
@example(from_edges(62, [(0, 61)]))
@example(from_edges(63, [(0, 62), (61, 62)]))
@given(small_graphs())
def test_graph6_roundtrip_fuzz(g):
    assert from_graph6(to_graph6(g)) == g


# graph6's own alphabet (bytes 63..126) and its neighbours after each
# header form, or any text at all
@settings(max_examples=500)
@given(st.tuples(st.sampled_from(["", "~", "~~", ">>graph6<<"]),
                 st.text(st.characters(min_codepoint=58, max_codepoint=130),
                         max_size=12)).map("".join)
       | st.text())
def test_graph6_decoder_fuzz(text):
    # the same Graph, or the same message and offset, as the numpy decoder
    got = oracles.decode_outcome(from_graph6, text)
    assert got == oracles.decode_outcome(oracles.from_graph6_numpy, text)


@st.composite
def long_form_graph6(draw):
    """graph6 strings with the 4-byte header, n = 63..300: a body of the
    announced length with its edges drawn at one density and zero
    padding, then at most one defect."""
    n = draw(st.integers(63, 300))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    p = draw(st.sampled_from([0.0, 0.01, 0.2, 1.0]))
    nbits = n * (n - 1) // 2
    bits = [rng.random() < p for _ in range(nbits)]
    bits += [False] * (-nbits % 6)
    body = [63 + sum(32 >> t for t in range(6) if bits[b + t])
            for b in range(0, len(bits), 6)]
    defect = draw(st.sampled_from(["none", "short", "long", "padding",
                                   "byte"]))
    if defect == "short":
        body.pop()
    elif defect == "long":
        body.append(63)
    elif defect == "padding" and nbits % 6:
        body[-1] |= 1
    elif defect == "byte":
        body[rng.randrange(len(body))] = draw(st.integers(58, 130))
    return "".join(map(chr, [126, 63 + (n >> 12), 63 + (n >> 6 & 63),
                             63 + (n & 63), *body]))


@settings(max_examples=100)
@given(long_form_graph6())
@example("~?@@" + "?" * 346 + "@")  # n = 65: a set padding bit
def test_graph6_long_form_decoder_fuzz(text):
    got = oracles.decode_outcome(from_graph6, text)
    assert got == oracles.decode_outcome(oracles.from_graph6_numpy, text)


def test_graph6_decode_errors_carry_offsets():
    with pytest.raises(Graph6Error) as ei:
        from_graph6("")
    assert ei.value.offset == 0
    # n=2 announces one body byte; none given
    with pytest.raises(Graph6Error, match="expected 1 body bytes"):
        from_graph6("A")
    # bits beyond the single (0,1) slot must be zero padding
    with pytest.raises(Graph6Error, match="padding") as ei:
        from_graph6("A`")
    assert ei.value.offset == 1
    with pytest.raises(Graph6Error, match="outside graph6 range") as ei:
        from_graph6("A\x07")
    assert ei.value.offset == 1
    with pytest.raises(Graph6Error, match="truncated long-form"):
        from_graph6("~??")


def test_graph6_rejects_non_ascii():
    # a replacement '?' would be a valid graph6 byte: reject, don't decode
    with pytest.raises(Graph6Error, match="non-ASCII") as ei:
        from_graph6("A\u00e9")
    assert ei.value.offset == 1
    with pytest.raises(Graph6Error) as ei:
        from_graph6(">>graph6<<B\u00e9w")
    assert ei.value.offset == 1


def test_graph6_rejects_extra_bytes():
    for text in ("A__", "A?x"):
        with pytest.raises(Graph6Error,
                           match="expected 1 body bytes for n=2") as ei:
            from_graph6(text)
        assert ei.value.offset >= 1


# --- edge-list text -----------------------------------------------------------


def test_edge_list_roundtrip():
    g = from_edges(5, [(0, 1), (1, 4), (2, 3)])
    assert parse_edge_list(format_edge_list(g)) == g
    assert format_edge_list(g) == "5\n0 1\n1 4\n2 3\n"


def test_edge_list_skips_comments_and_blanks():
    g = parse_edge_list("# a triangle\n3\n\n0 1\n 1 2\n# done\n2 0\n")
    assert g == complete_graph(3)


_EDGE_LINES = st.one_of(
    st.tuples(st.integers(-2, 70), st.integers(-2, 70)).map(
        lambda e: f"{e[0]} {e[1]}"),
    st.sampled_from(["", "   ", "# note", "7", "1 2 3", "a b", "0x1 2"]),
    st.text(max_size=8),
)


# a header (a small vertex count, or not a number) and edge lines, or any
# text at all
@settings(max_examples=500)
@given(st.tuples(st.integers(-2, 64).map(str) | st.text(max_size=6),
                 st.lists(_EDGE_LINES, max_size=10)).map(
           lambda t: "\n".join([t[0], *t[1]]))
       | st.text())
def test_edge_list_parser_fuzz(text):
    # the first counted line is the vertex count: keep it small, so no
    # example allocates a large graph
    header = [ln.strip() for ln in text.splitlines()
              if ln.strip() and not ln.lstrip().startswith("#")][:1]
    try:
        assume(int(header[0]) <= 64)
    except (IndexError, ValueError):  # no header, or not a number
        pass
    # the same Graph, or the same message, as the per-line parser
    assert edge_list_outcome(parse_edge_list, text) == edge_list_outcome(
        oracles.parse_edge_list_per_line, text)


def edge_list_outcome(parse, text):
    try:
        return parse(text)
    except GraphConstructionError as exc:
        return str(exc)


def test_edge_list_collapses_repeated_edges():
    # in either direction, and with the rows sorted whatever the line order
    g = parse_edge_list("4\n2 3\n1 2\n0 1\n2 1\n1 0\n0 1\n3 2\n")
    assert g == path_graph(4)
    assert g.adj == ((1,), (0, 2), (1, 3), (2,))


def test_edge_list_errors_come_in_the_order_of_the_lines():
    # a bad line anywhere comes before an edge error on an earlier line;
    # a tab-separated line takes the per-line route to the same graph
    with pytest.raises(GraphConstructionError, match=r"bad edge line '0 1 2'"):
        parse_edge_list("3\n1 1\n0 1 2\n5\n")
    with pytest.raises(GraphConstructionError, match=r"self-loop \(1, 1\)"):
        parse_edge_list("3\n0 1\n1 1\n0 9\n")
    with pytest.raises(GraphConstructionError, match=r"edge \(0, 9\) out"):
        parse_edge_list("3\n0 9\n1 1\n")
    with pytest.raises(GraphConstructionError, match="vertex count must"):
        parse_edge_list("-1\n0 1\n")
    assert parse_edge_list("3\n0\t1\n1  2\n") == path_graph(3)


def test_edge_list_errors():
    with pytest.raises(GraphConstructionError, match="vertex count"):
        parse_edge_list("x y\n")
    with pytest.raises(GraphConstructionError, match="bad edge line"):
        parse_edge_list("3\n0 1 2\n")
    # a field that is not an integer names the line, not int()'s message
    with pytest.raises(GraphConstructionError, match=r"bad edge line '0 a'"):
        parse_edge_list("3\n0 a\n")
    with pytest.raises(GraphConstructionError, match=r"bad edge line '0 1.5'"):
        parse_edge_list("3\n0 1.5\n")
    with pytest.raises(GraphConstructionError, match="empty"):
        parse_edge_list("   \n# nothing\n")


# --- blocks and planarity -----------------------------------------------------


@settings(max_examples=150)
@given(oracles.glued_graphs(),
       st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                max_size=3))
def test_blocks_match_networkx(g, chords):
    # random chords may merge glued blocks: nothing is known in advance
    edges = list(g.edges()) + [(u % g.n, v % g.n) for u, v in chords
                               if g.n and u % g.n != v % g.n]
    g = from_edges(g.n, edges)
    h = oracles.to_nx(g)
    want = sorted(sorted(c) for c in nx.biconnected_components(h)
                  if len(c) >= 3)
    assert sorted(list(verts) for verts, _, _ in g.local_blocks) == want
    assert g.bipartite == nx.is_bipartite(h)
    # the local labels that planarity and the cycle search read, against
    # networkx's block edges: sorted vertices, sorted symmetric neighbour
    # lists, and the block's own edges only
    for verts, adj, bipartite in g.local_blocks:
        block = h.subgraph(verts)
        want = {frozenset(e) for e in block.edges()}
        assert list(verts) == sorted(verts) and len(adj) == len(verts)
        assert all(list(ws) == sorted(ws) for ws in adj)
        assert {frozenset((verts[v], verts[w])) for v, ws in enumerate(adj)
                for w in ws} == want
        assert all(v in adj[w] for v, ws in enumerate(adj) for w in ws)
        assert bipartite == nx.is_bipartite(block)


@pytest.mark.parametrize("first_planarity", [True, False])
def test_planarity_and_cycle_search_share_one_tarjan_pass(
        monkeypatch, first_planarity):
    tarjan = Graph.__dict__["_tarjan_pass"]
    passes = []

    def counting(self):
        passes.append(self)
        return tarjan.func(self)

    counted = cached_property(counting)
    counted.__set_name__(Graph, "_tarjan_pass")
    monkeypatch.setattr(Graph, "_tarjan_pass", counted)
    # a 12-cycle with four chords: one block of rank 5, so planarity reads
    # its edges, and one pendant edge; neither a hub join nor regular, so
    # the radius takes the dense route, which reads the pass for
    # connectivity and block parity. Chord (0, 6) closes an odd cycle (eigh
    # of A); with (0, 7) instead the graph is bipartite and its colour
    # classes are the pass's parities.
    steps = [is_planar, spectral_radius, cycle_spectrum]
    for chord in ((0, 6), (0, 7)):
        for order in permutations(steps):
            if (order.index(is_planar) < order.index(cycle_spectrum)
                    ) != first_planarity:
                continue
            passes.clear()
            g = from_edges(13, [(i, (i + 1) % 12) for i in range(12)]
                           + [chord, (1, 4), (7, 10), (2, 9), (11, 12)])
            for step in order:
                step(g)
            assert g.planar and passes == [g]
            assert g.bipartite == (chord == (0, 7))


def test_connectivity_and_parity_match_networkx():
    # random forests (some vertices left isolated, or starting a new tree)
    # plus random chords, kept between the tree's colour classes on half of
    # them
    rng = random.Random(25)
    disconnected = bipartite = 0
    for i in range(620):
        n = i % 31
        stay = rng.choice((1.0, 0.97, 0.8, 0.5))
        edges, colour = set(), [0] * n
        for v in range(1, n):
            if rng.random() < stay:
                u = rng.randrange(v)
                edges.add((u, v))
                colour[v] = colour[u] ^ 1
        two_coloured = rng.random() < 0.5
        for _ in range(rng.randrange(n + 1) if n >= 2 else 0):
            u, v = rng.sample(range(n), 2)
            if not two_coloured or colour[u] != colour[v]:
                edges.add((u, v))
        g = from_edges(n, edges)
        h = oracles.to_nx(g)
        assert g.is_connected() == (n == 0 or nx.is_connected(h))
        parity = g._tarjan_pass[2]
        assert len(parity) == n
        disconnected += not g.is_connected()
        if n and g.is_connected() and nx.is_bipartite(h):
            bipartite += 1
            assert parity[0] == 0
            assert all(parity[u] != parity[v] for u, v in g.edges())
    assert disconnected > 100 and bipartite > 100


def test_windmill_blocks_parity_and_planarity_match_networkx():
    # 3,000 triangles on one shared vertex: every block meets vertex 0
    k = 3000
    g = from_edges(2 * k + 1, [e for t in range(1, 2 * k, 2)
                               for e in ((0, t), (0, t + 1), (t, t + 1))])
    h = oracles.to_nx(g)
    want = sorted(map(sorted, nx.biconnected_components(h)))
    assert sorted(list(verts) for verts, _, _ in g.local_blocks) == want
    assert all(not bipartite for _, _, bipartite in g.local_blocks)
    assert not g.bipartite and not nx.is_bipartite(h)
    assert g.planar and nx.check_planarity(h)[0]


def test_blocks_do_not_recurse():
    assert [verts for verts, _, _ in cycle_graph(3000).local_blocks] == [
        tuple(range(3000))]
    assert path_graph(3000).local_blocks == ()
    assert is_planar(cycle_graph(3000))


@settings(max_examples=150)
@given(oracles.glued_graphs())
def test_planarity_agrees_with_networkx_on_glued_blocks(g):
    assert is_planar(g) == nx.check_planarity(oracles.to_nx(g))[0]


def _count_lr_tests(monkeypatch) -> list[int]:
    """Patch the left-right test (`planarity.lr_planar`) to record the
    order of each kernel it is given; returns the record."""
    tested = []
    check = planarity.lr_planar

    def counting(nbrs):
        tested.append(len(nbrs))
        return check(nbrs)

    monkeypatch.setattr(planarity, "lr_planar", counting)
    return tested


def test_planarity_tests_rank_four_blocks_once(monkeypatch):
    tested = _count_lr_tests(monkeypatch)
    # K4 (rank 3) and a 5-cycle (rank 1) need no test; the K5 subdivision
    # (rank 6) reduces to K5, whose 10 edges break Euler's bound 3n - 6 = 9,
    # so it needs none either
    k4 = (4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    c5 = (5, [(i, (i + 1) % 5) for i in range(5)])
    g = oracles.glue([k4, c5, oracles.subdivide(5, oracles.K5_EDGES,
                                                [1] + [0] * 9)],
                     [None, 2, 5])
    assert not is_planar(g) and not is_planar(g)
    assert tested == []
    # a K3,3 subdivision reduces to K3,3 (9 <= 12 edges): one test of its
    # six vertices, and the answer is then memoized on the graph
    g = oracles.glue([k4, c5, oracles.subdivide(6, oracles.K33_EDGES,
                                                [2] + [0, 1] * 4)],
                     [None, 2, 5])
    assert not is_planar(g) and not is_planar(g)
    assert tested == [6]
    assert is_planar(cycle_graph(40)) and tested == [6]


def test_five_vertex_kernels_need_no_left_right_test(monkeypatch):
    tested = _count_lr_tests(monkeypatch)
    # the wheel W4 (rank 4) is its own kernel: 5 vertices, 8 <= 9 edges,
    # and K5 is the only non-planar graph on 5 vertices
    w4 = (5, [(0, i) for i in range(1, 5)]
          + [(i, i % 4 + 1) for i in range(1, 5)])
    assert is_planar(from_edges(*w4))
    # subdividing a spoke and a rim edge leaves the kernel W4
    inner = [1, 0, 0, 0, 0, 2, 0, 0]
    assert is_planar(from_edges(*oracles.subdivide(*w4, inner)))
    # K5 has 10 > 9 edges: Euler's bound refuses it before the 5-vertex rule
    assert not is_planar(complete_graph(5))
    assert tested == []


def _shuffled(n: int, edges, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _agrees(g) -> bool:
    """is_planar(g), after checking it against networkx and the Kuratowski
    subdivision search."""
    want = is_planar(g)
    assert nx.check_planarity(oracles.to_nx(g))[0] == want, to_graph6(g)
    assert oracles.planar_by_kuratowski(g) == want, to_graph6(g)
    return want


@pytest.mark.parametrize("k, base", [(5, oracles.K5_EDGES),
                                     (6, oracles.K33_EDGES)])
def test_planarity_of_subdivided_kuratowski_graphs(k, base):
    rng = random.Random(k)
    for _ in range(4):
        n, edges = oracles.subdivide(k, base, [rng.randint(1, 3) for _ in base])
        assert not _agrees(_shuffled(n, edges, rng))
        # cutting one subdivided edge leaves K5 - e or K3,3 - e: planar
        assert _agrees(_shuffled(n, edges[1:], rng))


@pytest.mark.parametrize("k, base", [(5, oracles.K5_EDGES),
                                     (6, oracles.K33_EDGES)])
def test_planarity_of_glued_kuratowski_graphs(k, base):
    # a subdivided K5 or K3,3 at a cut vertex of a planar block (a wheel or
    # the octahedron), with a pendant tree on the subdivision
    rng = random.Random(10 + k)
    octahedron = (6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                      if (u, v) not in [(0, 1), (2, 3), (4, 5)]])
    wheel = (6, [(0, i) for i in range(1, 6)]
             + [(i, i % 5 + 1) for i in range(1, 6)])
    for planar in (octahedron, wheel):
        kuratowski = oracles.subdivide(k, base,
                                       [rng.randint(1, 3) for _ in base])
        tree = (5, oracles.prufer_tree_edges(rng, 5))
        g = oracles.glue([planar, kuratowski, tree],
                         [None, rng.randrange(6),
                          6 + rng.randrange(kuratowski[0] - 1)])
        assert len(g.local_blocks) == 2
        assert not _agrees(_shuffled(g.n, list(g.edges()), rng))


def test_theta_graph_needs_no_left_right_test(monkeypatch):
    tested = _count_lr_tests(monkeypatch)
    # poles 0 and 1 joined by five internally disjoint paths of length 2-4:
    # one block of rank 4; suppressing the inner vertices leaves K2, whose
    # ends then have degree 1, so the kernel is empty
    edges, inner = [], 2
    for length in (2, 3, 4, 2, 3):
        path = [0, *range(inner, inner + length - 1), 1]
        inner += length - 1
        edges += zip(path, path[1:])
    g = from_edges(inner, edges)
    assert len(g.local_blocks) == 1 and oracles.edge_count(g) - g.n + 1 == 4
    _, adj, _ = g.local_blocks[0]
    assert _kernel({v: set(ws) for v, ws in enumerate(adj)}) == {}
    assert is_planar(g) and tested == []


@settings(max_examples=300)
@given(st.integers(0, 16), st.floats(0.15, 0.6), st.randoms())
def test_planarity_matches_networkx_on_random_graphs(n, p, rng):
    g = oracles.random_graph(rng, n, p)
    assert is_planar(g) == nx.check_planarity(oracles.to_nx(g))[0]


def _lr_agrees(g) -> bool:
    """is_planar(g), after checking it and the left-right test on all of
    g (no kernel, no filter) against networkx."""
    want = nx.check_planarity(oracles.to_nx(g))[0]
    assert is_planar(g) == want, to_graph6(g)
    assert lr_planar({v: set(ws) for v, ws in enumerate(g.adj)}) == want
    return want


def _crossing(a, b) -> bool:
    """Chords a and b of a circle whose points are numbered in order cross."""
    (p, q), (r, s) = sorted(a), sorted(b)
    return p < r < q < s or r < p < s < q


@pytest.mark.parametrize("seed", range(6))
def test_left_right_test_on_trees_with_chords(seed):
    # a random tree numbered in preorder, with vertices in that order
    # round a circle, is drawn without crossings; chords crossing no edge
    # keep it planar, and free chords then make it non-planar
    rng = random.Random(seed)
    verdicts = set()
    for n in (20, 60, 120, 200):
        parent = [None] + [rng.randrange(v) for v in range(1, n)]
        kids = [[] for _ in range(n)]
        for v in range(1, n):
            kids[parent[v]].append(v)
        label, stack = [0] * n, [0]
        for i in range(n):
            v = stack.pop()
            label[v] = i
            stack.extend(reversed(kids[v]))
        edges = [(label[parent[v]], label[v]) for v in range(1, n)]
        for _ in range(4 * n):
            chord = tuple(rng.sample(range(n), 2))
            if not any(_crossing(chord, e) for e in edges):
                edges.append(chord)
        assert _lr_agrees(from_edges(n, edges))
        for free in (1, 2, 4, 8):
            edges += (tuple(rng.sample(range(n), 2)) for _ in range(free))
            verdicts.add(_lr_agrees(from_edges(n, edges)))
    assert verdicts == {True, False}


@pytest.mark.parametrize("k", [5, 6, 11, 23, 42, 60])
def test_left_right_test_on_triangulated_grids(k):
    # the k x k grid with one diagonal per square is planar, with every
    # inner face a triangle: an edge joining two corners of the outer face
    # keeps it planar, one joining two inner vertices does not
    def v(i, j):
        return i * k + j
    edges = [(v(i, j), v(i, j + 1)) for i in range(k) for j in range(k - 1)]
    edges += [(v(i, j), v(i + 1, j)) for i in range(k - 1) for j in range(k)]
    edges += [(v(i, j), v(i + 1, j + 1)) for i in range(k - 1)
              for j in range(k - 1)]
    assert _lr_agrees(from_edges(k * k, edges))
    assert _lr_agrees(from_edges(k * k, edges + [(v(0, 0), v(k - 1, k - 1))]))
    assert not _lr_agrees(from_edges(k * k,
                                     edges + [(v(1, 1), v(k - 2, k - 2))]))


def test_left_right_test_does_not_recurse():
    # a 2 x 5,000 ladder with both diagonals of each square (a chain of
    # K4s glued along their rungs) has minimum degree 3, so it is its own
    # kernel, and its DFS runs down the rails; with one diagonal a square
    # it would be series-parallel, with an empty kernel
    n = 5000
    edges = ([(i, i + 1) for i in range(n - 1)]
             + [(n + i, n + i + 1) for i in range(n - 1)]
             + [(i, n + i) for i in range(n)]
             + [(i, n + i + 1) for i in range(n - 1)]
             + [(n + i, i + 1) for i in range(n - 1)])
    ladder = from_edges(2 * n, edges)
    kernel = _kernel({v: set(ws) for v, ws in enumerate(ladder.adj)})
    assert len(kernel) == 2 * n
    assert _lr_agrees(ladder)
    # one chord joining the far corners of the two end squares makes it
    # non-planar
    assert not _lr_agrees(from_edges(2 * n, edges + [(0, 2 * n - 1)]))


def test_planarity_known_graphs():
    assert is_planar(complete_graph(4))
    assert not is_planar(complete_graph(5))
    assert not is_planar(complete_bipartite(3, 3))
    assert is_planar(complete_bipartite(2, 50))
    # K5 and K3,3 minus any edge are planar
    k5 = complete_graph(5)
    edges = [e for e in k5.edges() if e != (0, 1)]
    assert is_planar(from_edges(5, edges))


def test_kuratowski_oracle_self_check():
    assert oracles.has_k5_subdivision(complete_graph(5))
    assert oracles.has_k33_subdivision(complete_bipartite(3, 3))
    assert not oracles.has_k5_subdivision(complete_graph(4))
    assert oracles.planar_by_kuratowski(complete_graph(4))
    assert not oracles.planar_by_kuratowski(complete_graph(5))
    # octahedron: 4-regular and dense but planar
    octa = from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                          if (u, v) not in [(0, 1), (2, 3), (4, 5)]])
    assert oracles.planar_by_kuratowski(octa)
    assert is_planar(octa)
    # Petersen graph: 3-regular, nonplanar through a K3,3 subdivision
    pet = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)])
    assert oracles.has_k33_subdivision(pet)
    assert not oracles.has_k5_subdivision(pet)  # needs five degree-4 vertices
    assert not is_planar(pet)


def test_planarity_matches_subdivision_oracle_small_random():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(4, 8)
        g = oracles.random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
        assert is_planar(g) == oracles.planar_by_kuratowski(g), to_graph6(g)
