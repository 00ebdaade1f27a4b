"""Fixed-length cycle search, constructive certificates, cycle spectra.

`find_cycle` is an exact backtracking search: a returned certificate is a
real cycle (revalidated before return) and `None` means a completed proof of
absence. Exhaustion of the node budget is a third outcome, raised as
SearchBudgetExceeded, never folded into "absent".

Every cycle lies inside one biconnected block, so the search runs only over
the blocks with at least `ell` vertices (`Graph.blocks`, computed once per
graph), for odd `ell` the non-bipartite ones (`Graph.odd_blocks`): a length
above the largest such block is absent at no search cost, and vertices
outside those blocks are never anchors or path vertices. This pruning
leaves every certificate as the unpruned search would find it (the
argument is in `find_cycle`). `in_gnk` asks for planarity through
`is_planar`, which is also computed once per graph, block by block.

Hub joins, two hubs over a linear forest with or without the hub edge,
get a constructive fast path: such a graph has every cycle length from 3
up to n1+n2+2 (two largest path orders plus the hubs) and nothing longer,
except that K_{2,m} (no hub edge, no forest edge) has length 4 only. The
certificate is written down directly instead of searched for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .families import LinearForest, k2_join, recognize_hub_join
from .graphs import Graph, is_planar

DEFAULT_BUDGET = 10 ** 7


class SearchBudgetExceeded(RuntimeError):
    def __init__(self, ell: int, budget: int):
        super().__init__(
            f"cycle search for length {ell} exhausted its budget of "
            f"{budget} node expansions")
        self.ell = ell
        self.budget = budget


def validate_cycle(g: Graph, cycle: Sequence[int]) -> None:
    """Raise ValueError unless `cycle` is a simple cycle of g."""
    k = len(cycle)
    if k < 3:
        raise ValueError(f"cycle needs >= 3 vertices, got {k}")
    if len(set(cycle)) != k:
        raise ValueError("cycle repeats a vertex")
    for u in cycle:
        if not 0 <= u < g.n:
            raise ValueError(f"vertex {u} out of range")
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % k]
        if not g.has_edge(u, v):
            raise ValueError(f"missing edge ({u}, {v}) in claimed cycle")


def find_cycle(g: Graph, ell: int,
               budget: int = DEFAULT_BUDGET) -> Optional[list[int]]:
    """Exact search for a cycle of exactly `ell` vertices.

    Returns the cycle as a vertex list (smallest vertex first) or None when
    none exists. A cycle lies inside one biconnected block, an odd one
    inside a non-bipartite block, so the search sees only the vertices of
    such blocks with at least `ell` vertices, and returns None at once,
    spending no budget, when there are none. It anchors at each of those
    vertices in turn as the smallest cycle vertex, restricts to the 2-core
    of the kept vertices above the anchor, and prunes on BFS distance back
    to the anchor. Raises SearchBudgetExceeded when the shared node budget
    runs out before either outcome is proven.

    The block pruning changes no certificate. The depth-first search
    enumerates paths from the anchor in the order of the adjacency lists,
    and returns the first one that closes into an `ell`-cycle. A vertex
    outside the kept blocks lies on no `ell`-cycle, so every branch through
    it fails; removing it removes failing branches only and keeps the order
    of the rest. The BFS distances in the smaller graph are no shorter, and
    still bound the steps back to the anchor along any `ell`-cycle that
    remains. So the first closed path is the one the unpruned search would
    return, reached after no more node expansions.
    """
    if not 3 <= ell <= g.n:
        raise ValueError(f"cycle length must be in [3, {g.n}], got {ell}")
    keep = bytearray(g.n)
    for block in g.odd_blocks if ell % 2 else g.blocks:
        if len(block) >= ell:
            for v in block:
                keep[v] = 1
    remaining = [budget]
    for s in range(g.n - ell + 1):
        if not keep[s]:
            continue
        found = _search_anchor(g, keep, s, ell, remaining, budget)
        if found is not None:
            validate_cycle(g, found)
            return found
    return None


def _search_anchor(g: Graph, keep: bytearray, s: int, ell: int,
                   remaining: list[int], budget: int) -> Optional[list[int]]:
    n = g.n
    # candidate vertex set: the anchor plus the kept vertices above it
    alive = bytearray(n)
    alive[s:] = keep[s:]
    deg = [0] * n
    for v in range(s, n):
        if alive[v]:
            deg[v] = sum(1 for w in g.adj[v] if alive[w])
    # prune to the 2-core: cycle vertices need two live neighbors
    queue = [v for v in range(s, n) if alive[v] and deg[v] < 2]
    while queue:
        v = queue.pop()
        if not alive[v]:
            continue
        alive[v] = 0
        for w in g.adj[v]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] < 2:
                    queue.append(w)
    if not alive[s]:
        return None
    adj = [[w for w in g.adj[v] if alive[w]] if alive[v] else []
           for v in range(n)]
    # BFS distance to the anchor: a lower bound on steps needed to close
    dist = [n + 1] * n
    dist[s] = 0
    frontier = [s]
    reach = 1
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] > dist[v] + 1:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
                    reach += 1
        frontier = nxt
    if reach < ell:
        return None

    # depth-first over an explicit stack of neighbour iterators, one per
    # path vertex below the current one; each vertex expanded costs one
    # budget unit, and the loop ends when `left` goes negative
    visited = bytearray(n)
    visited[s] = 1
    path = [s]
    stack = []
    it = iter(adj[s])
    target = ell - 1  # edges before the closing edge
    s_nbrs = set(adj[s])
    left = remaining[0] - 1
    while left >= 0:
        cap = ell - len(path)
        for w in it:
            if not visited[w] and dist[w] <= cap:
                break
        else:
            if not stack:
                remaining[0] = left
                return None
            visited[path.pop()] = 0
            it = stack.pop()
            continue
        left -= 1
        if len(path) == target:
            if left >= 0 and w in s_nbrs:
                path.append(w)
                return path
            continue
        visited[w] = 1
        path.append(w)
        stack.append(it)
        it = iter(adj[w])
    raise SearchBudgetExceeded(ell, budget)


# --- constructive certificates for hub joins ---------------------------------


def hub_forest_cycle(hub1: int, hub2: int, paths: list[list[int]],
                     ell: int, hub_edge: bool = True) -> Optional[list[int]]:
    """Cycle of length `ell` in the hub join over `paths` (longest first);
    None when the join has no such cycle.

    With the hub edge the cycle runs through both hubs and prefixes of the
    two longest paths (the second possibly empty), for 3 <= ell <= n1+n2+2.
    Without it, length 3 is a hub plus a forest edge, and length ell >= 4
    takes two non-empty segments: prefixes of the two longest paths, or two
    consecutive pieces of a single path.
    """
    n1 = len(paths[0])
    n2 = len(paths[1]) if len(paths) > 1 else 0
    if ell < 3 or ell > n1 + n2 + 2:
        return None
    if ell == 3 and not hub_edge:
        return [hub1] + paths[0][:2] if n1 >= 2 else None
    a = min(n1, ell - 2 if hub_edge else ell - 3)
    second = paths[1] if n2 else paths[0][a:]
    return [hub1] + paths[0][:a] + [hub2] + second[:ell - 2 - a]


def join_cycle_certificate(forest: LinearForest | Sequence[int],
                           ell: int) -> Optional[list[int]]:
    """Constructive cycle in the canonical hub join of `forest`.

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


# --- spectra -----------------------------------------------------------------


@dataclass(frozen=True)
class CycleRecord:
    ell: int
    status: str  # "present" | "absent" | "budget"
    certificate: Optional[tuple[int, ...]]


@dataclass(frozen=True)
class CycleSpectrum:
    n: int
    ell_max: int
    records: tuple[CycleRecord, ...]

    def status(self, ell: int) -> str:
        return self.records[ell - 3].status

    def present_lengths(self) -> list[int]:
        return [r.ell for r in self.records if r.status == "present"]

    def first_absent(self) -> Optional[int]:
        for r in self.records:
            if r.status == "absent":
                return r.ell
        return None


def cycle_spectrum(g: Graph, ell_max: Optional[int] = None,
                   budget: int = DEFAULT_BUDGET) -> CycleSpectrum:
    """Presence of each cycle length 3..ell_max.

    Uses the constructive hub-join path when `recognize_hub_join` accepts
    g (no search, no budget outcomes); otherwise runs `find_cycle` per length
    with `budget` node expansions each, recording "budget" for lengths the
    search could not settle.
    """
    if ell_max is None:
        ell_max = g.n
    if ell_max > g.n:
        raise ValueError(f"ell_max {ell_max} exceeds vertex count {g.n}")
    return CycleSpectrum(g.n, ell_max, tuple(
        _cycle_records(g, ell_max, budget, recognize_hub_join(g))))


def _cycle_records(g: Graph, ell_max: int, budget: int,
                   hub: Optional[tuple[int, int, list[list[int]], bool]]
                   ) -> Iterator[CycleRecord]:
    """The records of `cycle_spectrum`, one length at a time, in order;
    `hub` is g's `recognize_hub_join` result."""
    for ell in range(3, ell_max + 1):
        try:
            cyc = (find_cycle(g, ell, budget) if hub is None
                   else hub_forest_cycle(*hub[:3], ell, hub[3]))
        except SearchBudgetExceeded:
            yield CycleRecord(ell, "budget", None)
            continue
        if cyc is None:
            yield CycleRecord(ell, "absent", None)
        else:
            if hub is not None:  # find_cycle validates its own result
                validate_cycle(g, cyc)
            yield CycleRecord(ell, "present", tuple(cyc))


def in_gnk(g: Graph, k: int,
           budget: int = DEFAULT_BUDGET) -> tuple[bool, Optional[int]]:
    """Does g miss some cycle length in [3, n-k]? (planar inputs only)

    Returns (member, witness): witness is the smallest missing length when
    member is True. Non-planar input is rejected; a budget outcome at any
    length that could still be the witness raises SearchBudgetExceeded.
    Lengths are settled in order and the walk stops at the first absent
    or unsettled one. A recognized hub join skips the planarity test: it
    is a spanning subgraph of K2 + P_{n-2}, which is maximal planar.
    """
    if not 0 <= k <= g.n - 3:
        raise ValueError(f"need 0 <= k <= n-3 = {g.n - 3}, got k={k}")
    hub = recognize_hub_join(g)
    if hub is None and not is_planar(g):
        raise ValueError("membership is defined for planar graphs only")
    for rec in _cycle_records(g, g.n - k, budget, hub):
        if rec.status == "absent":
            return True, rec.ell
        if rec.status == "budget":
            raise SearchBudgetExceeded(rec.ell, budget)
    return False, None
