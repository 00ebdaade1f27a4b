"""Immutable simple graphs on vertex set {0..n-1}, with graph6 and planarity.

Vertices are always consecutive integers starting at 0; an edge is an
unordered pair of distinct vertices. Graphs are value objects: construction
validates, after that nothing mutates, so they can be hashed, compared and
used as dict keys by the layers above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import networkx as nx


class GraphConstructionError(ValueError):
    """Raised for out-of-range vertices, self-loops, or bad vertex counts."""


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

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edge_count(self) -> int:
        return sum(len(row) for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once, as (u, v) with u < v, in sorted order."""
        for u, row in enumerate(self.adj):
            for v in row:
                if u < v:
                    yield (u, v)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = bytearray(self.n)
        seen[0] = 1
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for v in self.adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    stack.append(v)
        return count == self.n

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest vertex."""
        seen = bytearray(self.n)
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = 1
            comp = [s]
            stack = [s]
            while stack:
                u = stack.pop()
                for v in self.adj[u]:
                    if not seen[v]:
                        seen[v] = 1
                        comp.append(v)
                        stack.append(v)
            comp.sort()
            out.append(comp)
        return out


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


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on `vertices`, relabeled 0.. in sorted order."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u in keep for v in g.adj[u]
             if v in index and u < v]
    return from_edges(len(keep), edges)


def union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; the second graph's vertices are relabeled by +g1.n."""
    off = g1.n
    adj = list(g1.adj) + [tuple(v + off for v in row) for row in g2.adj]
    return Graph(g1.n + g2.n, tuple(adj))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every cross edge (g1 side keeps its labels)."""
    off = g1.n
    left = tuple(row + tuple(range(off, off + g2.n)) for row in g1.adj)
    right = tuple(
        tuple(range(off)) + tuple(v + off for v in row) for row in g2.adj)
    return Graph(g1.n + g2.n, left + right)


# --- graph6 codec ----------------------------------------------------------
#
# Standard graph6: header N(n), then the upper triangle of the adjacency
# matrix read column by column (x(0,1), x(0,2), x(1,2), x(0,3), ...), packed
# big-endian into 6-bit groups, each offset by 63 into printable ASCII.

_G6_MAX_N = (1 << 36) - 1


def to_graph6(g: Graph) -> str:
    n = g.n
    if n > _G6_MAX_N:
        raise GraphConstructionError(f"graph6 cannot encode n={n}")
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    else:
        head = [126, 126] + [63 + ((n >> s) & 63) for s in (30, 24, 18, 12, 6, 0)]
    out = bytearray(head)
    acc = 0
    nbits = 0
    for j in range(1, n):
        row = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | (1 if i in row else 0)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode one graph6 string; strict about length and zero padding."""
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
    for pos, b in enumerate(data):
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b!r} outside graph6 range", pos)
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
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - body != need:
        raise Graph6Error(
            f"expected {need} body bytes for n={n}, got {len(data) - body}",
            min(len(data), body + need))
    edges = []
    i, j = 0, 1
    consumed = 0
    for pos in range(body, len(data)):
        group = data[pos] - 63
        for k in range(5, -1, -1):
            bit = (group >> k) & 1
            if consumed < nbits:
                if bit:
                    edges.append((i, j))
                consumed += 1
                i += 1
                if i == j:
                    i, j = 0, j + 1
            elif bit:
                raise Graph6Error("nonzero padding bits", pos)
    return from_edges(n, edges)


# --- plain-text edge list ---------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the "n\\nu v\\n..." format; blank lines and #-comments skipped."""
    lines = [
        ln.strip() for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise GraphConstructionError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphConstructionError(
            f"first line must be the vertex count, got {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphConstructionError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# --- planarity and the planar edge bounds -----------------------------------


def is_planar(g: Graph) -> bool:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    ok, _ = nx.check_planarity(h, counterexample=False)
    return ok


@dataclass(frozen=True)
class VertexSubsetPair:
    """Two disjoint vertex subsets, as sorted tuples."""

    x: tuple[int, ...]
    y: tuple[int, ...]

    def __post_init__(self):
        xs, ys = set(self.x), set(self.y)
        if len(xs) != len(self.x) or len(ys) != len(self.y):
            raise ValueError("subset contains repeated vertices")
        overlap = xs & ys
        if overlap:
            raise ValueError(f"subsets overlap on {sorted(overlap)}")
        object.__setattr__(self, "x", tuple(sorted(xs)))
        object.__setattr__(self, "y", tuple(sorted(ys)))


@dataclass(frozen=True)
class PlanarBoundsReport:
    e_x: int
    x_bound: int
    e_xy: int
    xy_bound: int
    x_bound_applies: bool   # needs |X| >= 3
    xy_bound_applies: bool  # needs |X|+|Y| >= 3; at 2 vertices the bound is void
    holds: bool


def planar_bounds_check(g: Graph, pair: VertexSubsetPair) -> PlanarBoundsReport:
    """Check e(X) <= 3|X|-6 and e(X,Y) <= 2(|X|+|Y|)-4 on a planar graph.

    Each bound is checked only where it is a theorem: the vertex bound for
    |X| >= 3, the bipartite bound for |X|+|Y| >= 3. Inapplicable bounds are
    reported as such and do not affect `holds`.
    """
    for v in pair.x + pair.y:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    if not is_planar(g):
        raise ValueError("planar_bounds_check requires a planar graph")
    xs = set(pair.x)
    ys = set(pair.y)
    e_x = sum(1 for u in pair.x for v in g.adj[u] if v > u and v in xs)
    e_xy = sum(1 for u in pair.x for v in g.adj[u] if v in ys)
    x_applies = len(xs) >= 3
    xy_applies = len(xs) + len(ys) >= 3
    x_bound = 3 * len(xs) - 6
    xy_bound = 2 * (len(xs) + len(ys)) - 4
    holds = ((not x_applies or e_x <= x_bound)
             and (not xy_applies or e_xy <= xy_bound))
    return PlanarBoundsReport(
        e_x, x_bound, e_xy, xy_bound, x_applies, xy_applies, holds)
