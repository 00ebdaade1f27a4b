"""Immutable simple graphs on vertex set {0..n-1}, with graph6 and planarity.

Vertices are always consecutive integers starting at 0; an edge is an
unordered pair of distinct vertices. Graphs are value objects: construction
validates, after that nothing mutates, so they can be hashed, compared and
used as dict keys by the layers above. Derived structure that several
layers need is computed on first use and cached on the instance, and takes
no part in equality, hashing or pickling: one depth-first pass gives the
biconnected blocks, each on its own sorted labels with its parity, the
connectivity and each vertex's depth parity (the colour classes of a
bipartite graph); planarity and the cycle search read those blocks; and
the cycle lengths settled so far are kept.

Planarity is decided here on each block's kernel, by the package's own
left-right test (`planarity.lr_planar`, after U. Brandes, "The Left-Right
Planarity Test", 2009) where a kernel needs it, with no third-party graph
library. The layer uses no numpy: a graph6 string or an edge list
decodes straight into adjacency rows, and one graph6 packer
(`pack_graph6`) writes every graph6 string, from a Graph's rows
(`to_graph6`) or from a hub join's part list (`verify._join_graph6`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator


class GraphConstructionError(ValueError):
    """Raised for out-of-range vertices, self-loops, or bad vertex counts."""


# The ceiling on any graph built from input: vertices plus edges. Family
# strings, graph6 and edge-list headers, and the join layout check it
# before allocating, so `spex rho P100000000` or `K200000` is refused at
# once. P500000 (10^6 vertices plus edges) builds in about a second.
MAX_SIZE = 1_000_000
# The ceiling on the forests an argmax sweep lists (`verify.argmax_sweep`),
# counted before any is listed, so `spex sweep argmax --n 100000` is
# refused at once. Three-part sweeps reach it at n = 4,900; at n = 4,099
# (1.4 million forests) a sweep peaks at about 0.45 GB RSS.
MAX_CANDIDATES = 2_000_000


def check_size(n: int, m: int = 0, error=None) -> None:
    """Refuse a graph of n vertices and m edges above MAX_SIZE, before
    anything of its size is allocated: raise `error(message)`, by default
    a GraphConstructionError."""
    if n + m > MAX_SIZE:
        raise (error or GraphConstructionError)(
            f"a graph with n={n}, m={m} exceeds the size ceiling "
            f"n + m <= {MAX_SIZE}")


class Graph6Error(ValueError):
    """Malformed graph6 input. `offset` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus sorted neighbor tuples."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once, as (u, v) with u < v, in sorted order."""
        for u, row in enumerate(self.adj):
            for v in row:
                if u < v:
                    yield (u, v)

    def is_connected(self) -> bool:
        """At most one DFS tree in the Tarjan pass (`_tarjan_pass`): the
        graph with no vertex counts as connected."""
        return self._tarjan_pass[1] <= 1

    @cached_property
    def _tarjan_pass(self) -> tuple[tuple[tuple[tuple[int, ...],
                                                tuple[tuple[int, ...], ...],
                                                bool], ...], int, bytes]:
        """(blocks, trees, parity) of one Tarjan low-point pass in
        O(n + m), over an explicit stack (no recursion): the one walk of
        the graph, read by `local_blocks` (and through it `bipartite`,
        `planar` and the cycle search), `is_connected` and the dense
        solve's bipartite route.

        `blocks` holds each block with >= 3 vertices on its own labels
        (`_local_block`). Every cycle lies inside one block (Hopcroft &
        Tarjan, CACM 16(6), 1973); bridges and isolated vertices belong to
        none. The pass stacks tree and back edges: a child v of u whose
        subtree reaches no higher than u closes the block made of the edges
        stacked since the tree edge (u, v). `trees` counts the DFS trees,
        one per component. `parity` is each vertex's DFS depth mod 2, one
        byte per vertex, with vertex 0 a root. A block's tree edges span it,
        so it is bipartite iff no edge of it joins two vertices of one
        parity; on a connected bipartite graph the parities are its
        2-colouring.
        """
        adj = self.adj
        disc = [0] * self.n  # discovery time, 0 = unvisited
        low = [0] * self.n
        parity = bytearray(self.n)
        out = []
        clock = trees = 0
        for root in range(self.n):
            if disc[root]:
                continue
            trees += 1
            clock += 1
            disc[root] = low[root] = clock
            edges = []  # edges not yet assigned to a block
            # (vertex, its parent, neighbour iterator, height of `edges`
            # below its tree edge)
            stack = [(root, -1, iter(adj[root]), 0)]
            while stack:
                v, parent, it, _ = stack[-1]
                for w in it:
                    if not disc[w]:
                        clock += 1
                        disc[w] = low[w] = clock
                        parity[w] = parity[v] ^ 1
                        stack.append((w, v, iter(adj[w]), len(edges)))
                        edges.append((v, w))
                        break
                    if disc[w] < disc[v] and w != parent:  # back edge
                        edges.append((w, v))
                        if disc[w] < low[v]:
                            low[v] = disc[w]
                else:
                    mark = stack.pop()[3]
                    if not stack:
                        continue
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= disc[parent]:
                        block = edges[mark:]
                        del edges[mark:]
                        if len(block) > 1:  # one edge is a bridge
                            out.append(_local_block(block, parity))
        return tuple(out), trees, bytes(parity)

    @property
    def local_blocks(self) -> tuple[tuple[tuple[int, ...],
                                          tuple[tuple[int, ...], ...], bool],
                                    ...]:
        """Each block with >= 3 vertices on labels of its own, in the order
        the Tarjan pass (`_tarjan_pass`) closes them: (vertices, adjacency,
        bipartite). `vertices` is sorted, so local label i names vertex
        vertices[i] and local order is global order; adjacency[i] holds the
        local labels of i's neighbours in the block, sorted. Built once per
        graph, with the pass, and read by `planar`, `bipartite` and the
        cycle search (`cycles._search`)."""
        return self._tarjan_pass[0]

    @property
    def bipartite(self) -> bool:
        """Every block is bipartite, so the graph is: an odd cycle would lie
        inside one block. Read by the dense solve."""
        return all(flag for _, _, flag in self.local_blocks)

    @cached_property
    def planar(self) -> bool:
        """Planarity, decided block by block on each block's kernel.

        A graph is planar iff each of its blocks is, and by Kuratowski a
        non-planar block contains a subdivision of K5 or K3,3, so its cycle
        rank m - n + 1 is at least 4 (6 for K5, 4 for K3,3; subdividing
        keeps the rank). A block of rank >= 4 is reduced to its kernel
        (`_kernel`) of its local adjacency (`local_blocks`), planar iff the
        block is, and the kernel is decided: one with <= 4 vertices is a
        subgraph of K4, so planar; one with m > 3n - 6 edges breaks Euler's
        bound, so non-planar; one with 5 vertices is then planar, since K5
        (10 > 9 edges) is the only non-planar graph on 5 vertices; only the
        rest go to the left-right test (`planarity.lr_planar`; Brandes
        2009), imported there, so a process that never needs it never
        compiles it. The K4 test comes first because 3n - 6 <= 0 below 3
        vertices: the kernel K2 of a theta graph would break the bound.
        """
        for verts, adj, _ in self.local_blocks:
            if sum(map(len, adj)) // 2 - len(verts) + 1 < 4:
                continue
            kernel = _kernel({v: set(around) for v, around in enumerate(adj)})
            n = len(kernel)
            if n <= 4:
                continue
            m = sum(map(len, kernel.values())) // 2
            if m > 3 * n - 6:
                return False
            if n == 5:
                continue
            from .planarity import lr_planar
            if not lr_planar(kernel):
                return False
        return True

    @cached_property
    def settled_cycles(self) -> dict[int, tuple[int, ...] | None]:
        """The cycle lengths that `cycles.find_cycle` and
        `cycles.cycle_spectrum` have settled on this graph: each maps to its
        certificate, or to None when absent. Filled by those two only."""
        return {}

    def __getstate__(self):
        # the cached properties live in __dict__; pickle the value alone
        return {"n": self.n, "adj": self.adj}


def _local_block(edges: list[tuple[int, int]], parity: bytearray
                 ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                            bool]:
    """The `Graph.local_blocks` record of the block with these edges: its
    sorted vertices, its adjacency on local labels and whether it is
    bipartite (no edge joins two vertices of one DFS parity). The edges are
    listed by their ends, and that list is transposed, which puts each
    neighbour list in order without a sort: O(edges) past sorting the
    vertex set."""
    verts = sorted(set(chain.from_iterable(edges)))
    label = {v: i for i, v in enumerate(verts)}
    ends: list[list[int]] = [[] for _ in verts]
    for a, b in edges:
        a, b = label[a], label[b]
        ends[a].append(b)
        ends[b].append(a)
    adj: list[list[int]] = [[] for _ in verts]
    for v, around in enumerate(ends):
        for w in around:
            adj[w].append(v)
    return (tuple(verts), tuple(map(tuple, adj)),
            all(parity[a] ^ parity[b] for a, b in edges))


def _kernel(nbrs: dict[int, set[int]]) -> dict[int, set[int]]:
    """The kernel of the simple graph with neighbour sets `nbrs`, reduced
    in place: delete each vertex of degree <= 1 and replace each vertex of
    degree 2 by an edge between its two neighbours (dropped if they are
    already adjacent), until every vertex left has degree >= 3. One
    worklist, each vertex removed at most once: O(number of edges).

    Planarity survives both steps in both directions. A subgraph of a
    planar graph is planar, and a vertex of degree <= 1 can be drawn back
    inside any face. Suppressing a degree-2 vertex is the inverse of
    subdividing an edge, so the graph before it is homeomorphic to the
    multigraph after it, parallel edge kept; a parallel edge can always be
    drawn next to its twin, so dropping it changes nothing either. So the
    kernel is homeomorphic to the input up to parallel edges, and (by
    Kuratowski) one is planar iff the other is. Degrees only fall, so a
    vertex put on the worklist stays below 3 until it is removed.
    """
    work = [v for v, s in nbrs.items() if len(s) < 3]
    while work:
        v = work.pop()
        around = nbrs.get(v)
        if around is None:  # listed twice, already removed
            continue
        del nbrs[v]
        for w in around:
            nbrs[w].discard(v)
        if len(around) == 2:
            a, b = around
            nbrs[a].add(b)
            nbrs[b].add(a)
        work.extend(w for w in around if len(nbrs[w]) < 3)
    return nbrs


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph on {0..n-1} from an edge list.

    Duplicate pairs collapse; a self-loop or an endpoint outside the vertex
    range is a construction error naming the offending pair.
    """
    if n < 0:
        raise GraphConstructionError(f"vertex count must be >= 0, got {n}")
    sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise GraphConstructionError(f"self-loop ({u}, {v}) not allowed")
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphConstructionError(
                f"edge ({u}, {v}) out of range for n={n}")
        sets[u].add(v)
        sets[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in sets))


# --- graph6 codec ----------------------------------------------------------
#
# Standard graph6: header N(n), then the upper triangle of the adjacency
# matrix read column by column (x(0,1), x(0,2), x(1,2), x(0,3), ...), packed
# big-endian into 6-bit groups, each offset by 63 into printable ASCII. So
# edge (i, j), i < j, is bit k = j(j-1)/2 + i: bit 5 - k % 6 of group k // 6.

_G6_MAX_N = (1 << 36) - 1
# the bytes 63..126 of graph6, a 6-bit group g as its byte g + 63 and a
# body byte c as its group c - 63, and the positions t of a group's set
# bits, bit k = 6p + t of group p
_G6_ALPHABET = bytes(range(63, 127))
_G6_CHAR = bytes((g + 63) % 256 for g in range(256))
_G6_VALUE = bytes((c - 63) % 256 for c in range(256))
_G6_BITS = [tuple(t for t in range(6) if c >> 5 - t & 1) for c in range(64)]


def graph6_header(n: int) -> bytes:
    """graph6's vertex count N(n): 1, 4 or 8 bytes."""
    if n > _G6_MAX_N:
        raise GraphConstructionError(f"graph6 cannot encode n={n}")
    if n <= 62:
        return bytes((n + 63,))
    if n <= 258047:
        return bytes((126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)))
    return bytes([126, 126] + [63 + ((n >> s) & 63) for s in (30, 24, 18, 12, 6, 0)])


def pack_graph6(n: int, groups: bytearray) -> bytes:
    """The graph6 bytes of the graph on {0..n-1} whose upper-triangle
    bits are `groups`, one 6-bit group (0..63) per byte: the header N(n),
    then the groups moved into 63..126 by one `bytes.translate`."""
    return graph6_header(n) + groups.translate(_G6_CHAR)


def to_graph6(g: Graph) -> str:
    """g's graph6 string: each edge (i, j), i < j, read from row j, whose
    sorted neighbours below j come first, sets its bit in the groups."""
    groups = bytearray((g.n * (g.n - 1) // 2 + 5) // 6)
    t = 0  # j(j-1)/2
    for j, row in enumerate(g.adj):
        for i in row:
            if i >= j:
                break
            k = t + i
            groups[k // 6] |= 32 >> k % 6
        t += j
    return pack_graph6(g.n, groups).decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode one graph6 string; strict about length and zero padding.

    The body lists the upper triangle column by column, so its set bits,
    read in order, append to each adjacency row in increasing order."""
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
    bad = data.translate(None, _G6_ALPHABET)
    if bad:  # the first byte outside it is the first of its value
        pos = data.index(bad[0])
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
    # group p holds bits 6p .. 6p + 5, as a number 0..63 (`_G6_BITS`)
    groups = data[body:].translate(_G6_VALUE)
    if groups and groups[-1] & ((1 << (6 * need - nbits)) - 1):
        raise Graph6Error("nonzero padding bits", len(data) - 1)
    check_size(n, int.from_bytes(groups, "big").bit_count(),
               lambda msg: Graph6Error(msg, body))
    rows: list[list[int]] = [[] for _ in range(n)]
    j = end = 1  # column j holds the bits k < end = j(j+1)/2, from end - j
    # each match skips a run of zero groups at C speed and ends at a set
    # one; with the zero tail stripped no match fails, which would cost
    # the rest of the tail at each of its bytes
    for group in re.finditer(rb"\0*[^\0]", groups.rstrip(b"\0")):
        p = group.end() - 1
        for t in _G6_BITS[groups[p]]:
            k = 6 * p + t
            while k >= end:
                j += 1
                end += j
            i = k - end + j
            rows[i].append(j)
            rows[j].append(i)
    return Graph(n, tuple(map(tuple, rows)))


# --- plain-text edge list ---------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the "n\\nu v\\n..." format; blank lines and #-comments skipped.

    Each line is stripped once and the edge fields are read by one `int`
    map over the joined lines; only input that fails there is read line
    by line, to name its first bad line. The edges go straight into
    adjacency rows, which are then transposed: reading the rows in vertex
    order appends each neighbour in increasing order, and a repeated edge
    side by side, where it collapses. A bad line is reported first, then
    the errors of `from_edges`, in its order."""
    lines = [s for ln in text.splitlines() if (s := ln.strip()) and s[0] != "#"]
    if not lines:
        raise GraphConstructionError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphConstructionError(
            f"first line must be the vertex count, got {lines[0]!r}") from None
    body = lines[1:]
    check_size(n, len(body))
    try:
        ends = list(map(int, " ".join(body).split()))
    except ValueError:
        ends = []
    # two fields a line: twice as many fields as lines, and none alone on
    # a line (a stripped line with a space holds at least two)
    if len(ends) != 2 * len(body) or not all(" " in ln for ln in body):
        ends = []
        for ln in body:
            try:
                u, v = map(int, ln.split())
            except ValueError:  # not two fields, or one is not an integer
                raise GraphConstructionError(f"bad edge line {ln!r}") from None
            ends += (u, v)
    if n < 0:
        raise GraphConstructionError(f"vertex count must be >= 0, got {n}")
    around: list[list[int]] = [[] for _ in range(n)]
    it = iter(ends)
    for u, v in zip(it, it):
        if u == v:
            raise GraphConstructionError(f"self-loop ({u}, {v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphConstructionError(
                f"edge ({u}, {v}) out of range for n={n}")
        around[u].append(v)
        around[v].append(u)
    rows: list[list[int]] = [[] for _ in range(n)]
    for v, ws in enumerate(around):
        for w in ws:
            row = rows[w]
            if not row or row[-1] != v:
                row.append(v)
    return Graph(n, tuple(map(tuple, rows)))


def format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# --- planarity ---------------------------------------------------------------


def is_planar(g: Graph) -> bool:
    """Planarity of g, computed once per graph (see `Graph.planar`)."""
    return g.planar
