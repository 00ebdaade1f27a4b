"""Independent reference implementations the tests check the package against.

The references import nothing from spexplanar's internals beyond the Graph
value type: the point is that eigenvalues, planarity, and cycle sets come
from a second, unrelated route (LAPACK via eigvalsh, Kuratowski subdivision
search, Johnson's algorithm in networkx) so agreement is meaningful.

The last section is different: it holds the comparisons that only the tests
make with the package's own solvers (the Rayleigh quotient of a Graph, the
spectral radius of a possibly disconnected graph, the edge-surgery
comparison of acceptance criterion 8, the constructive cycle of a
canonical hub join that criterion 3 checks against the search, and the
lemma1 family pair decided over every forest of both families). No
verdict, sweep or CLI command reads them.

The section before it holds what only the tests read of the package's
objects: counts and views of a Graph, a LinearForest and a CycleSpectrum,
the extremal join, and the enumerations of a forest family and of the
argmax candidates.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import strategies as st

from spexplanar import (Graph, LinearForest, VerificationReport,
                        enclosure_verdict, from_edges, hub_join_radii,
                        k2_join, spectral_radius, to_graph6, validate_cycle)
from spexplanar.cycles import CycleSpectrum, hub_forest_cycle
from spexplanar.families import extremal_forest, partitions
from spexplanar.graphs import Graph6Error, GraphConstructionError, check_size


def dense_rho(g: Graph) -> float:
    """Spectral radius through the dense symmetric eigensolver."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    if g.n == 0:
        return 0.0
    return float(np.linalg.eigvalsh(a)[-1])


def dense_perron(g: Graph) -> np.ndarray:
    """Max-normalized leading eigenvector (connected inputs only)."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    vals, vecs = np.linalg.eigh(a)
    x = vecs[:, -1]
    # eigh fixes sign arbitrarily; a Perron vector is one-signed
    if x.sum() < 0:
        x = -x
    return x / x.max()


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def from_nx(h: nx.Graph) -> Graph:
    """h as a Graph, its nodes relabeled 0.. in h's node order."""
    h = nx.convert_node_labels_to_integers(h)
    return from_edges(h.number_of_nodes(), h.edges())


def join_nx(parts, hub_edge: bool) -> nx.Graph:
    """The hub join of `parts`, in the given block order, built by networkx
    alone: the full join of two hubs (adjacent or not) with a disjoint
    union of paths. Nodes come hubs first, then the blocks in order."""
    hubs = nx.complete_graph(2) if hub_edge else nx.empty_graph(2)
    forest = nx.disjoint_union_all([nx.path_graph(p) for p in parts])
    return nx.full_join(hubs, forest, rename=("h", "f"))


def join_edges(parts, hub_edge: bool) -> np.ndarray:
    """The edges (u, v), u < v, of the join of two hubs with path blocks
    laid out in the order given (block j starts at 2 + sum(parts[:j])), as
    the rows of an int64 array in sorted order: hub 0's rows, hub 1's, then
    each path vertex's edge to the next one in its block."""
    m = int(sum(parts))
    forest = np.arange(2, m + 2)
    last = np.zeros(m, bool)
    last[np.cumsum(parts, dtype=np.int64) - 1] = True
    tails = forest[~last]
    u = np.concatenate((np.zeros(m + hub_edge, np.int64),
                        np.ones(m, np.int64), tails))
    v = np.concatenate((np.arange(2 - hub_edge, m + 2), forest, tails + 1))
    return np.stack((u, v), axis=1)


def edge_array(g: Graph) -> np.ndarray:
    """g's edges (u, v), u < v, as the rows of an int64 array, in the
    sorted order of `Graph.edges`."""
    rows = np.repeat(np.arange(g.n), np.fromiter(map(len, g.adj), np.int64, g.n))
    nbrs = np.fromiter((v for row in g.adj for v in row), np.int64, len(rows))
    upper = rows < nbrs
    return np.stack((rows[upper], nbrs[upper]), axis=1)


def graph6_from_edges(n: int, edges: np.ndarray) -> str:
    """The graph6 string of the graph on {0..n-1} whose edges are the rows
    (u, v), u < v, of the int64 array `edges`, in any row order: each
    edge's bit k = v(v-1)/2 + u set in numpy, in a second route to the
    package's packer."""
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    else:
        head = [126, 126] + [63 + ((n >> s) & 63) for s in (30, 24, 18, 12, 6, 0)]
    k = edges[:, 1] * (edges[:, 1] - 1) // 2 + edges[:, 0]
    body = np.zeros((n * (n - 1) // 2 + 5) // 6, np.uint8)
    np.bitwise_or.at(body, k // 6, (32 >> k % 6).astype(np.uint8))
    return (bytes(head) + (body + 63).tobytes()).decode("ascii")


def cycle_lengths(g: Graph) -> set[int]:
    """Set of simple-cycle lengths, via networkx (small graphs only)."""
    return {len(c) for c in nx.simple_cycles(to_nx(g))}


def mp_secular_root(parts, hub_edge: bool, rho0, prec: int = 200):
    """The root of the join's secular equation at `prec` bits, near
    `rho0`, with each path sum taken over the path's own eigenpairs (an
    independent route to S_m): for P_m, lambda_j = 2 cos(j pi/(m+1)) and
    (1'v_j)^2 = 2/(m+1) cot^2(j pi/(2(m+1))) for odd j, 0 for even j."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workprec(prec):
        terms = []
        for m, k in Counter(parts).items():
            for j in range(1, m + 1, 2):
                theta = mp.pi * j / (m + 1)
                terms.append((k * 2 * mp.cot(theta / 2) ** 2 / (m + 1),
                              2 * mp.cos(theta)))

        def f(rho):
            return rho - hub_edge - 2 * mp.fsum(w / (rho - lam)
                                                for w, lam in terms)

        root = mp.findroot(f, mp.mpf(rho0))
        assert abs(f(root)) < mp.mpf(2) ** (50 - prec)
        return root


# --- seeded random graphs ----------------------------------------------------


def per_length_search(g: Graph, ell: int, budget: int):
    """A cycle of exactly `ell` vertices by one search of its own, as
    `find_cycle` searches on block labels: the certificate list, None when
    absent, or "budget" when more than `budget` units are needed. Blocks
    and distances come from networkx.

    The search anchors at each vertex s in turn as the smallest cycle
    vertex. A block B holding s takes part at s when |B ∩ [s, n)| >= ell,
    B is non-bipartite for odd `ell`, and s has at least two neighbours
    above s in B. If some block takes part, the anchor costs one unit. Its
    first steps are s's neighbours v1 above s in those blocks, in
    increasing order, each block's largest left out; each costs one unit.
    The closers are s's neighbours in B above v1, and dist is the distance
    to them in B ∩ (s, n) without v1; the step goes on only if `ell` is at
    most the number of vertices at a finite distance plus 2. Then each
    path extension by a neighbour w of the last vertex, in adjacency order,
    that is off the path, at a finite distance and within the steps left to
    reach `ell` vertices costs one unit; a try that reaches `ell` vertices
    closes when w is a closer, and extends nothing.
    """
    h = to_nx(g)
    blocks = [b for b in map(frozenset, nx.biconnected_components(h))
              if len(b) >= 3 and not (ell % 2 and
                                      nx.is_bipartite(h.subgraph(b)))]
    used = 0

    def spend():
        nonlocal used
        used += 1
        return used > budget

    def dfs(path, closers, dist):
        for w in g.adj[path[-1]]:
            if w in path or w not in dist or dist[w] > ell - len(path) - 1:
                continue
            if spend():
                return "budget"
            if len(path) == ell - 1:
                if w in closers:
                    return path + [w]
                continue
            found = dfs(path + [w], closers, dist)
            if found is not None:
                return found
        return None

    for s in range(g.n):
        steps = []
        for b in blocks:
            up = sorted(v for v in g.adj[s] if v in b and v > s)
            if s in b and len([v for v in b if v >= s]) >= ell \
                    and len(up) >= 2:
                steps += [(v1, b, up) for v1 in up[:-1]]
        if not steps:
            continue
        if spend():
            return "budget"
        for v1, b, up in sorted(steps, key=lambda step: step[0]):
            if spend():
                return "budget"
            closers = {c for c in up if c > v1}
            region = h.subgraph(v for v in b if v > s and v != v1)
            dist = nx.multi_source_dijkstra_path_length(region, closers)
            if ell > len(dist) + 2:
                continue
            found = dfs([s, v1], closers, dist)
            if found is not None:
                return found
    return None


def prufer_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    if n < 2:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for s in seq:
        deg[s] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_connected(rng: random.Random, n: int, extra: int = -1) -> Graph:
    """Uniform random tree plus `extra` chords (default: up to n random)."""
    edges = {(min(u, v), max(u, v)) for u, v in prufer_tree_edges(rng, n)}
    if extra < 0:
        extra = rng.randrange(0, max(1, n))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return from_edges(n, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p); may be disconnected or empty."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return from_edges(n, edges)


# --- graphs glued from blocks at cut vertices ---------------------------------

K5_EDGES = list(combinations(range(5), 2))
K33_EDGES = [(u, v) for u in range(3) for v in range(3, 6)]


def subdivide(k: int, edges, inner) -> tuple[int, list[tuple[int, int]]]:
    """Replace edge i of a graph on {0..k-1} by a path with inner[i] new
    interior vertices; returns the new vertex count and edge list."""
    out, nxt = [], k
    for (u, v), s in zip(edges, inner):
        chain = [u, *range(nxt, nxt + s), v]
        nxt += s
        out += zip(chain, chain[1:])
    return nxt, out


def glue(pieces, hooks, isolated: int = 0) -> Graph:
    """Glue pieces (k, edges on {0..k-1}) one after another: piece i's
    vertex 0 becomes vertex hooks[i] % (vertices so far) of the graph built
    so far, a cut vertex, or starts a new component when hooks[i] is None.
    `isolated` lone vertices come last. Each piece's blocks stay blocks."""
    n, edges = 0, []
    for (k, piece), hook in zip(pieces, hooks):
        if hook is None or n == 0:
            label = list(range(n, n + k))
        else:
            label = [hook % n, *range(n, n + k - 1)]
        n = label[-1] + 1  # pieces have k >= 2 vertices
        edges += [(label[u], label[v]) for u, v in piece]
    return from_edges(n + isolated, edges)


def _cycle(k):
    return k, [(i, (i + 1) % k) for i in range(k)]


def _wheel(k):
    return k + 1, [(0, i) for i in range(1, k + 1)] + [
        (i, i % k + 1) for i in range(1, k + 1)]


PLANAR_PIECES = st.one_of(
    st.just((2, [(0, 1)])),                              # a bridge
    st.integers(3, 7).map(_cycle),
    st.integers(3, 6).map(_wheel),                       # rank k: planar
    st.just((5, [e for e in K5_EDGES if e != (0, 1)])),  # K5 - e, rank 5
    st.just((6, [(u, v) for u, v in combinations(range(6), 2)
                 if (u, v) not in [(0, 1), (2, 3), (4, 5)]])),  # octahedron
)
KURATOWSKI_PIECES = st.one_of(
    st.lists(st.integers(0, 1), min_size=10, max_size=10).map(
        lambda inner: subdivide(5, K5_EDGES, inner)),
    st.lists(st.integers(0, 1), min_size=9, max_size=9).map(
        lambda inner: subdivide(6, K33_EDGES, inner)),
)


@st.composite
def glued_graphs(draw, max_n: int = 40):
    """Planar blocks (cycles, wheels, K5 - e, the octahedron), bridges and
    subdivisions of K5 and K3,3, glued at cut vertices into one or more
    components, plus isolated vertices; labels shuffled. Pieces that would
    take the order past `max_n` are dropped."""
    pieces, size = [], 0
    for p in draw(st.lists(st.one_of(PLANAR_PIECES, KURATOWSKI_PIECES),
                           min_size=1, max_size=6)):
        if size + p[0] > max_n:
            break
        pieces.append(p)
        size += p[0]
    hooks = draw(st.lists(st.none() | st.integers(0, max_n),
                          min_size=len(pieces), max_size=len(pieces)))
    g = glue(pieces, hooks, draw(st.integers(0, 2)))
    perm = draw(st.permutations(range(g.n)))
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# --- partition counting -------------------------------------------------------


def partition_count(m: int, k: int, _memo={}) -> int:
    """Partitions of m into exactly k positive parts, by the standard
    recurrence p(m,k) = p(m-1,k-1) + p(m-k,k)."""
    if k == 0:
        return 1 if m == 0 else 0
    if m < k:
        return 0
    key = (m, k)
    if key not in _memo:
        _memo[key] = partition_count(m - 1, k - 1) + partition_count(m - k, k)
    return _memo[key]


def partitions_exact(m: int, k: int) -> list[tuple[int, ...]]:
    """All partitions of m into exactly k parts, brute force, any order."""
    if k == 1:
        return [(m,)] if m >= 1 else []
    out = []
    for first in range(-(-m // k), m - k + 2):
        for rest in partitions_exact(m - first, k - 1):
            if rest[0] <= first:
                out.append((first,) + rest)
    return out


def partitions_desc(total: int, k: int, cap: int):
    """Partitions of `total` into exactly `k` parts, each <= cap,
    non-increasing within each partition, in reverse-lex order, by
    recursion on the first part (the generator `families.partitions`
    replaced)."""
    if k == 0:
        if total == 0:
            yield []
        return
    if total < k:
        return
    # first part from largest feasible down; the rest must fit k-1 parts
    hi = min(cap, total - (k - 1))
    lo = -(-total // k)  # ceil(total/k) keeps the sequence non-increasing
    for p in range(hi, lo - 1, -1):
        for rest in partitions_desc(total - p, k - 1, p):
            yield [p] + rest


# --- planarity by Kuratowski subdivision search -------------------------------
#
# Exact for any n: a graph is planar iff it contains no subdivision of K5 or
# K3,3. Branch vertices are chosen directly; the connecting paths may pass
# through the remaining vertices, found by a depth-first walk over simple
# paths, then a disjoint-set-cover search. Practical when few vertices have
# degree >= 3 or the graph is small (n <= 10): long subdivided edges add
# paths, not branch choices.


def _usable_internal_sets(adj, a, b, spares):
    """Spare-vertex sets that can form the interior of an a..b path."""
    out = set()
    stack = [(a, frozenset())]
    while stack:
        v, inner = stack.pop()
        for w in adj[v]:
            if w == b and inner:
                out.add(inner)
            elif w in spares and w not in inner:
                stack.append((w, inner | {w}))
    return out


def _connect_all(adj, pairs, spares):
    options = []
    for a, b in pairs:
        opts = [frozenset()] if b in adj[a] else []
        opts.extend(_usable_internal_sets(adj, a, b, spares))
        if not opts:
            return False
        options.append(opts)
    options.sort(key=len)

    def rec(i, used):
        if i == len(options):
            return True
        for s in options[i]:
            if not (s & used) and rec(i + 1, used | s):
                return True
        return False

    return rec(0, frozenset())


def has_k5_subdivision(g: Graph) -> bool:
    if g.n < 5 or edge_count(g) < 10:
        return False
    adj = [set(row) for row in g.adj]
    cand = [v for v in range(g.n) if len(adj[v]) >= 4]
    if len(cand) < 5:
        return False
    allv = set(range(g.n))
    for branch in combinations(cand, 5):
        spares = allv - set(branch)
        if _connect_all(adj, list(combinations(branch, 2)), spares):
            return True
    return False


def has_k33_subdivision(g: Graph) -> bool:
    if g.n < 6 or edge_count(g) < 9:
        return False
    adj = [set(row) for row in g.adj]
    cand = [v for v in range(g.n) if len(adj[v]) >= 3]
    if len(cand) < 6:
        return False
    allv = set(range(g.n))
    for six in combinations(cand, 6):
        spares = allv - set(six)
        rest = six[1:]
        for others in combinations(rest, 2):
            side_a = (six[0],) + others
            side_b = [v for v in rest if v not in others]
            pairs = [(a, b) for a in side_a for b in side_b]
            if _connect_all(adj, pairs, spares):
                return True
    return False


def planar_by_kuratowski(g: Graph) -> bool:
    return not (has_k5_subdivision(g) or has_k33_subdivision(g))


# --- views and enumerations that only the tests read --------------------------


def edge_count(g: Graph) -> int:
    return sum(len(row) for row in g.adj) // 2


def two_largest(lf: LinearForest) -> tuple[int, int]:
    """(n1, n2); n2 is 0 for a single-path forest."""
    n1 = lf.parts[0]
    n2 = lf.parts[1] if len(lf.parts) > 1 else 0
    return n1, n2


def present_lengths(spec: CycleSpectrum) -> list[int]:
    return [r.ell for r in spec.records if r.status == "present"]


def first_absent(spec: CycleSpectrum):
    for r in spec.records:
        if r.status == "absent":
            return r.ell
    return None


def extremal_graph(n: int, k: int) -> Graph:
    """The conjectured maximizer: hubs (adjacent) + `extremal_forest(n, k)`."""
    return k2_join(extremal_forest(n, k))


def enumerate_lna(n: int, a: int):
    """All linear forests of order n-2 with exactly a+1 parts.

    Equivalently the partitions of n-2 into exactly a+1 positive parts,
    yielded with parts non-increasing, in reverse-lexicographic order
    (so [m-a, 1, ..., 1] comes first and the most balanced split last):
    the rows of `families.partitions`. Requires n >= a+3 so the family is
    nonempty.
    """
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    if n < a + 3:
        raise ValueError(f"need n >= a+3 = {a + 3}, got n={n}")
    for parts in partitions(n - 2, a + 1, n - 2).tolist():
        yield LinearForest(tuple(parts))


def admissible_forests(n: int, k: int, max_parts: int) -> list[tuple[int, ...]]:
    """Forest part lists of order n-2 with <= max_parts parts whose two
    largest parts sum to at most n-k-3 (so the join misses a cycle length
    in [3, n-k]). Deterministic order: by part count, then reverse-lex.
    The rows of `verify._candidates`, as tuples of ints."""
    from spexplanar.verify import _candidates, _part_lists
    return list(map(tuple, _part_lists(_candidates(n, k, max_parts))))


# --- comparisons made with the package's solvers ------------------------------


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on `vertices`, relabeled 0.. in sorted order."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u in keep for v in g.adj[u]
             if v in index and u < v]
    return from_edges(len(keep), edges)


def spectral_radius_any(g: Graph) -> float:
    """Spectral radius of a possibly disconnected graph (max over components)."""
    best = 0.0
    for comp in nx.connected_components(to_nx(g)):
        sub = induced_subgraph(g, comp)
        best = max(best, spectral_radius(sub).rho)
    return best


def rayleigh_quotient(g: Graph, x) -> float:
    """x'Ax / x'x  =  2 * sum over edges of x_u x_v, over sum of squares.
    The terms x_u x_v are added to 0.0 one at a time in sorted edge order
    (`np.cumsum` is sequential), so the bits are those of a loop over
    `Graph.edges`."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"vector has shape {x.shape}, graph has {g.n} vertices")
    denom = float(x @ x)
    if denom == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    edges = edge_array(g)
    terms = np.concatenate(([0.0], x[edges[:, 0]] * x[edges[:, 1]]))
    return 2.0 * float(np.cumsum(terms)[-1]) / denom


def from_graph6_numpy(text: str) -> Graph:
    """The graph6 decoder in numpy arrays, through `from_edges`: each set
    bit k of the body unpacked and mapped to its column j by a search of
    the triangular numbers. The same checks, messages and offsets as
    `from_graph6`, in the same order."""
    raw = text.strip()
    if raw.startswith(">>graph6<<"):
        raw = raw[len(">>graph6<<"):]
    try:
        data = raw.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ASCII character {raw[exc.start]!r}",
                          exc.start) from None
    if not data:
        raise Graph6Error("empty graph6 input", 0)
    codes = np.frombuffer(data, np.uint8)
    bad = np.flatnonzero((codes < 63) | (codes > 126))
    if len(bad):
        pos = int(bad[0])
        raise Graph6Error(f"byte {data[pos]!r} outside graph6 range", pos)
    if data[0] != 126:
        n = data[0] - 63
        body = 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated long-form vertex count", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = 4
    else:
        if len(data) < 8:
            raise Graph6Error("truncated very-long-form vertex count", len(data))
        n = 0
        for b in data[2:8]:
            n = (n << 6) | (b - 63)
        body = 8
    check_size(n, error=lambda msg: Graph6Error(msg, 0))
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - body != need:
        raise Graph6Error(
            f"expected {need} body bytes for n={n}, got {len(data) - body}",
            min(len(data), body + need))
    groups = np.flatnonzero(codes[body:] != 63)
    row, col = np.nonzero(np.unpackbits(codes[body + groups] - 63)
                          .reshape(-1, 8)[:, 2:])
    k = 6 * groups[row] + col
    if len(k) and k[-1] >= nbits:
        raise Graph6Error("nonzero padding bits", body + int(k[-1]) // 6)
    j = np.searchsorted(np.arange(n + 1) * np.arange(-1, n) // 2, k,
                        side="right") - 1
    i = k - j * (j - 1) // 2
    check_size(n, len(k), lambda msg: Graph6Error(msg, body))
    return from_edges(n, zip(i.tolist(), j.tolist()))


def parse_edge_list_per_line(text: str) -> Graph:
    """The edge-list parser line by line, through `from_edges`: each line
    stripped and split on its own, the edges collected and handed over
    whole. The same checks and messages as `parse_edge_list`, in the same
    order."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise GraphConstructionError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphConstructionError(
            f"first line must be the vertex count, got {lines[0]!r}") from None
    check_size(n, len(lines) - 1)
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise GraphConstructionError(f"bad edge line {ln!r}") from None
        edges.append((u, v))
    return from_edges(n, edges)


def decode_outcome(decode, text: str):
    """`decode(text)`, or the message and offset of its Graph6Error."""
    try:
        return decode(text)
    except Graph6Error as exc:
        return str(exc), exc.offset


def adjacency_from_edge_array(g: Graph) -> np.ndarray:
    """The n x n adjacency matrix assigned from the rows of `edge_array`."""
    u, v = edge_array(g).T
    a = np.zeros((g.n, g.n))
    a[u, v] = a[v, u] = 1.0
    return a


def bipartite_matrix_from_edge_array(g: Graph):
    """The colour classes X and Y of the connected bipartite graph g (X the
    smaller, vertex 0's on a tie) and B = A[X, Y], laid out from the rows
    of `edge_array` with the DFS depth parities as a boolean mask."""
    in_y = np.frombuffer(g._tarjan_pass[2], np.uint8).astype(bool)
    if 2 * int(in_y.sum()) < g.n:
        in_y = ~in_y
    cx, cy = np.flatnonzero(~in_y), np.flatnonzero(in_y)
    pos = np.empty(g.n, np.int64)
    pos[cx], pos[cy] = np.arange(len(cx)), np.arange(len(cy))
    u, v = edge_array(g).T
    u_in_y = in_y[u]  # every edge has one end in each class
    b = np.zeros((len(cx), len(cy)))
    b[pos[np.where(u_in_y, v, u)], pos[np.where(u_in_y, u, v)]] = 1.0
    return cx, cy, b


def join_cycle_certificate(forest, ell: int):
    """Constructive cycle in the canonical hub join of `forest` (a
    LinearForest or a part list), or None.

    Vertex labels follow the canonical layout (hubs 0 and 1, then path
    blocks, parts non-increasing). The certificate is validated against the
    actual join before being returned.
    """
    lf = forest if isinstance(forest, LinearForest) else LinearForest(tuple(forest))
    base = 2
    paths = []
    for p in lf.parts:
        paths.append(list(range(base, base + p)))
        base += p
    cyc = hub_forest_cycle(0, 1, paths, ell)
    if cyc is not None:
        validate_cycle(k2_join(lf), cyc)
    return cyc


@dataclass(frozen=True)
class SurgeryReport:
    rho_g: float
    rho_gp: float
    rayleigh_gp: float      # Rayleigh quotient of G' at G's Perron vector
    surgery_margin: float   # rayleigh_gp - rho_g: > 0 proves rho(G') > rho(G)
    variational_gap: float  # rho_gp - rayleigh_gp: >= 0 up to tolerance
    bound_holds: bool


def surgery_compare(g: Graph, gp: Graph) -> SurgeryReport:
    """Evaluate an edge-surgery comparison through the variational principle.

    Plugs the Perron vector x of G into G' : rho(G') >= x'A(G')x / x'x holds
    for any nonzero x, so `bound_holds` failing beyond tolerance would mean a
    computation bug, not a property of the graphs. When the surgery margin
    (the Rayleigh quotient minus rho(G)) is positive, rho(G') > rho(G) follows
    with no further computation. The variational gap is read with a slack
    of 2e-11, ten times two residuals of 1e-12.
    """
    if g.n != gp.n:
        raise ValueError(f"vertex counts differ: {g.n} vs {gp.n}")
    res = spectral_radius(g)
    rq = rayleigh_quotient(gp, res.vector)
    rho_gp = spectral_radius_any(gp)
    gap, slack = rho_gp - rq, 2e-11
    return SurgeryReport(
        rho_g=res.rho,
        rho_gp=rho_gp,
        rayleigh_gp=rq,
        surgery_margin=rq - res.rho,
        variational_gap=gap,
        bound_holds=enclosure_verdict(gap - slack, gap + slack) != "violated",
    )


def lna_radii(n: int, a: int) -> list[tuple[float, tuple, float, float]]:
    """(rho, parts, lo, hi) of the hub join (no hub edge) of every forest
    in L_{n,a}, by enumeration: rho and its enclosure."""
    forests = [lf.parts for lf in enumerate_lna(n, a)]
    radii = hub_join_radii(forests, hub_edge=False)
    return [(rho, parts, lo, hi)
            for (rho, lo, hi, _), parts in zip(radii, forests)]


def lemma1_pair_by_enumeration(n: int, a1: int, a2: int, fam1,
                               fam2) -> VerificationReport:
    """The lemma1_pair report of (a1, a2) from the radii of every forest
    of both families (`lna_radii`): the float max over L_{n,a1} and the
    float min over L_{n,a2}, ties broken by part list.

    min rho over L2 lies in [min lo, min hi] and max rho over L1 in
    [max lo, max hi], so their difference is enclosed by differences of
    those ends."""
    hi_rho, hi_parts, _, _ = max(fam1)   # worst L1: largest rho
    lo_rho, lo_parts, _, _ = min(fam2)   # worst L2: smallest rho
    min_lo2, min_hi2 = min(r[2] for r in fam2), min(r[3] for r in fam2)
    max_lo1, max_hi1 = max(r[2] for r in fam1), max(r[3] for r in fam1)
    return VerificationReport(
        check_id="lemma1_pair",
        params={"n": n, "a1": a1, "a2": a2,
                "pairs": len(fam1) * len(fam2),
                "worst_l1": list(hi_parts), "worst_l2": list(lo_parts),
                "dominating_edge": False},
        holds=enclosure_verdict(min_lo2 - max_hi1, min_hi2 - max_lo1),
        margins={"min_pair_gap": lo_rho - hi_rho,
                 "max_rho_l1": hi_rho,
                 "min_rho_l2": lo_rho},
        artifacts={"worst_join_l1": to_graph6(k2_join(hi_parts, False)),
                   "worst_join_l2": to_graph6(k2_join(lo_parts, False))},
    )


def sweep_rows(result) -> list[tuple]:
    """(parts, rho, lo, hi, iterations) per candidate of an argmax sweep,
    read off its arrays: parts as a tuple without the zero padding."""
    return [(tuple(p for p in parts if p), *rest) for parts, *rest in zip(
        result.parts.tolist(), result.rho.tolist(), result.lo.tolist(),
        result.hi.tolist(), result.steps.tolist())]


def argmax_leader(rows) -> tuple[list, list, dict, str]:
    """(argmax, ties, margins, holds) of an argmax sweep from its rows
    (parts, rho, lo, hi, iterations), by `max` and list scans: the
    leader is the first row of largest rho, its ties every row whose hi
    reaches the leader's lo."""
    best = max(rows, key=lambda r: r[1])
    others = [r for r in rows if r is not best]
    margins = {"rho_max": best[1]}
    holds = "certified"
    if others:
        margins["runner_up_gap"] = best[1] - max(r[1] for r in others)
        margins["enclosure_gap"] = best[2] - max(r[3] for r in others)
        holds = enclosure_verdict(margins["enclosure_gap"],
                                  best[3] - max(r[2] for r in others))
    return (list(best[0]), [list(r[0]) for r in rows if r[3] >= best[2]],
            margins, holds)


def argmax_rows_jsonl(rows) -> str:
    """The sweep's JSONL rows, one `json.dumps` per row."""
    return "".join(json.dumps({
        "parts": list(parts), "rho": rho, "rho_lo": lo, "rho_hi": hi,
        "iterations": iters}, separators=(",", ":")) + "\n"
        for parts, rho, lo, hi, iters in rows)


def argmax_rows_csv(rows) -> str:
    """The sweep's CSV rows, one formatted line per row."""
    lines = ["parts,rho,rho_lo,rho_hi,iterations"]
    for parts, rho, lo, hi, iters in rows:
        lines.append(f"\"{' '.join(map(str, parts))}\",{rho!r},{lo!r},"
                     f"{hi!r},{iters}")
    return "\n".join(lines) + "\n"
