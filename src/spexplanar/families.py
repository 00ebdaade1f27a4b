"""Linear forests and the K2-join constructions built from them.

A linear forest here is a disjoint union of paths, described by its part
list (path orders). The joins place the two hub vertices first, then the
path blocks with consecutive labels, so callers that reason about "the i-th
vertex of the j-th path" get stable indices:

    vertex 0, 1        the two hubs u', u''
    vertex 2 ...       first path, in path order
    next block         second path, and so on

`k2_join` uses the canonical (non-increasing) part order; `join_with_paths`
takes the block order given. Both, and `build_linear_forest`, write the
adjacency rows of the layout directly (`_forest_rows`); the verifier
encodes a join's graph6 from its part list with no Graph built
(`verify._join_graph6`). Only `partitions`, the one array builder, uses
numpy, and imports it where it runs, so this module loads without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .graphs import Graph, check_size, from_edges

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class LinearForest:
    """Part list of a disjoint union of paths, stored non-increasing."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a linear forest needs at least one part")
        for p in self.parts:
            if p < 1:
                raise ValueError(f"path order must be >= 1, got {p}")
        object.__setattr__(
            self, "parts", tuple(sorted(self.parts, reverse=True)))

    @property
    def order(self) -> int:
        return sum(self.parts)


def path_graph(n: int) -> Graph:
    check_size(n, n - 1)
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    check_size(n, n)
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    check_size(n, n * (n - 1) // 2)
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"need both sides nonempty, got {a}, {b}")
    check_size(a + b, a * b)
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def build_linear_forest(parts: Sequence[int]) -> Graph:
    """Disjoint union of paths, blocks in non-increasing part order."""
    lf = LinearForest(tuple(parts))
    join_order(lf.parts, False)  # its join's size ceiling
    return Graph(lf.order, tuple(_forest_rows(lf.parts, ())))


def _forest_rows(parts: Sequence[int], hubs: tuple[int, ...]
                 ) -> list[tuple[int, ...]]:
    """The adjacency rows of a linear forest's vertices, its path blocks
    laid out in the order given and labelled from len(hubs): each row is
    `hubs`, then the vertex's neighbours in its path, in order."""
    rows = []
    v = len(hubs)
    for p in parts:
        if p == 1:
            rows.append(hubs)
        else:
            rows.append((*hubs, v + 1))
            rows += [(*hubs, w - 1, w + 1) for w in range(v + 1, v + p - 1)]
            rows.append((*hubs, v + p - 2))
        v += p
    return rows


def join_order(parts: Sequence[int], hub_edge: bool) -> int:
    """The forest order of a join's part list, after refusing a part below
    1 and a join above `graphs.MAX_SIZE` vertices plus edges."""
    for p in parts:
        if p < 1:
            raise ValueError(f"path order must be >= 1, got {p}")
    m = int(sum(parts))
    check_size(m + 2, 3 * m - len(parts) + hub_edge)
    return m


def join_with_paths(parts: Sequence[int], dominating_edge: bool = True) -> Graph:
    """Two hubs joined to path blocks laid out in the order given.

    This is the raw builder: `parts` is taken as the block layout, not
    sorted. Block j starts at vertex 2 + sum(parts[:j]).
    """
    m = join_order(parts, dominating_edge)
    forest = tuple(range(2, m + 2))
    hubs = ((1, *forest), (0, *forest)) if dominating_edge else (forest,) * 2
    return Graph(m + 2, (*hubs, *_forest_rows(parts, (0, 1))))


def k2_join(forest: LinearForest | Sequence[int],
            dominating_edge: bool = True) -> Graph:
    """Join the forest to two hub vertices (canonical layout).

    With `dominating_edge` the hubs are adjacent to each other as well, i.e.
    the join with a 1-edge graph on two vertices; without it the hubs are
    only adjacent to the forest (so all-singleton parts give K_{2,m}).
    The result is planar either way: a spanning subgraph of K2 + P_{n-2}.
    """
    lf = forest if isinstance(forest, LinearForest) else LinearForest(tuple(forest))
    return join_with_paths(lf.parts, dominating_edge)


def recognize_hub_join(g: Graph
                       ) -> Optional[tuple[int, int, list[list[int]], bool]]:
    """Detect "two hubs over a linear forest" structure exactly.

    Returns (hub1, hub2, paths, hub_edge) or None. Each path is its vertex
    sequence in path order, longest first. With the hub edge the hubs are
    the only two vertices of degree n-1; without it no vertex has degree
    n-1 and the hubs are the only two of degree n-2, not adjacent to each
    other. In both cases the remaining vertices must induce a disjoint
    union of paths. Small joins whose forest vertices reach the hub degree
    (K4, K2 + P3, C4) are not told apart and return None.
    """
    n = g.n
    if n < 4 or max(map(len, g.adj)) < n - 2:
        return None
    hubs = [v for v, row in enumerate(g.adj) if len(row) == n - 1]
    hub_edge = True
    if not hubs:
        hubs = [v for v, row in enumerate(g.adj) if len(row) == n - 2]
        hub_edge = False
    if len(hubs) != 2 or (not hub_edge and g.has_edge(hubs[0], hubs[1])):
        return None
    hubset = set(hubs)
    rest = [v for v in range(n) if v not in hubset]
    nbr = {v: [w for w in g.adj[v] if w not in hubset] for v in rest}
    if any(len(ws) > 2 for ws in nbr.values()):
        return None
    paths: list[list[int]] = []
    seen: set[int] = set()
    for v in rest:
        if v in seen or len(nbr[v]) == 2:
            continue
        # endpoint (or isolated vertex): walk to the other end
        seq = [v]
        seen.add(v)
        prev, cur = v, (nbr[v][0] if nbr[v] else None)
        while cur is not None:
            seq.append(cur)
            seen.add(cur)
            ext = [w for w in nbr[cur] if w != prev]
            prev, cur = cur, (ext[0] if ext else None)
        paths.append(seq)
    if len(seen) != len(rest):
        return None  # leftover vertices all have degree 2: a cycle, not a path
    paths.sort(key=lambda p: (-len(p), p[0]))
    return hubs[0], hubs[1], paths, hub_edge


def extremal_forest(n: int, k: int) -> LinearForest:
    """The forest of the conjectured maximizer: paths of orders n-2k-4,
    k+1, k+1.

    Requires k >= 0 and n >= 3k+7 so the head part dominates the two tails.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if n < 3 * k + 7:
        raise ValueError(f"need n >= 3k+7 = {3 * k + 7}, got n={n}")
    return LinearForest((n - 2 * k - 4, k + 1, k + 1))


def part_counts(total: int) -> Iterator[int]:
    """The number of partitions of `total` into exactly t parts, for
    t = 1, 2, ..., each in O(total) steps: such a partition, less 1 from
    each part and conjugated, is one of total-t into parts of size at most
    t, as `ways` counts them."""
    ways = [1] + [0] * total
    for t in count(1):
        for s in range(t, total + 1):
            ways[s] += ways[s - t]
        yield ways[total - t] if t <= total else 0


def lna_sizes(n: int, a_max: int) -> list[int]:
    """|L_{n,a}| for a = 0..a_max in O(n * a_max) steps (`part_counts`)."""
    return list(islice(part_counts(n - 2), a_max + 1))


def partitions(total: int, k: int, cap: int) -> np.ndarray:
    """The partitions of `total` into exactly `k` parts, each at most
    `cap`, as the rows of a (C, k) int64 array: parts non-increasing along
    a row, rows in reverse-lexicographic order.

    All rows grow one part at a time. A prefix with `left` still to place
    in `slots` parts below its last part `top` takes each next part p from
    min(top, left - (slots-1)) down to max(ceil(left/slots), 1), the
    highest first, so every prefix completes and the order is kept. Each
    step keeps only its new parts and the prefix each extends; the rows
    are read back through those links at the end.
    """
    import numpy as np
    if k == 0:
        return np.zeros((int(total == 0), 0), np.int64)
    left = np.array([total], np.int64)
    top = np.array([cap], np.int64)
    steps = []
    for slots in range(k, 0, -1):
        hi = np.minimum(top, left - (slots - 1))
        lo = np.maximum(-(-left // slots), 1)
        width = np.maximum(hi - lo + 1, 0)
        prefix = np.repeat(np.arange(len(left)), width)
        # the i-th extension of a prefix is its hi less i
        top = hi[prefix] - (np.arange(len(prefix))
                            - np.repeat(np.cumsum(width) - width, width))
        left = left[prefix] - top
        steps.append((prefix, top))
    rows = np.empty((len(left), k), np.int64)
    row = np.arange(len(left))
    for j in range(k - 1, -1, -1):
        prefix, part = steps[j]
        rows[:, j] = part[row]
        row = prefix[row]
    return rows
