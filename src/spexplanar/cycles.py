"""Fixed-length cycle search, constructive certificates, cycle spectra.

`find_cycle` is an exact backtracking search: a returned certificate is a
real cycle (a path over the adjacency lists whose last vertex is a
neighbour of the first, so a cycle by construction; `validate_cycle`
checks one from outside) and `None` means a completed proof of absence.
Exhaustion of the node budget is a third outcome, raised as
SearchBudgetExceeded, never folded into "absent".

There is one search kernel, `_search`: a pass that settles a set of wanted
lengths at once. At each anchor vertex it peels the 2-core and runs the
BFS once, and one depth-first search there settles every wanted length
that closes at that anchor. `find_cycle` runs it for one length,
`cycle_spectrum` for 3..ell_max; a length the pass leaves open when its
budget runs out goes through `find_cycle` with a budget of its own, so each
length gets the outcome of its own search (the argument is in `_search`).

Every cycle lies inside one biconnected block, so the search runs only over
the blocks with at least `ell` vertices (`Graph.blocks`, computed once per
graph), for odd `ell` the non-bipartite ones (`Graph.odd_blocks`): a length
above the largest such block is absent at no search cost, and vertices
outside those blocks are never anchors or path vertices. This pruning
leaves every certificate as the unpruned search would find it. `in_gnk`
asks for planarity through `is_planar`, which is also computed once per
graph, block by block.

Settled lengths are memoized per graph (`Graph.settled_cycles`): a length
maps to its certificate tuple, which the records of `cycle_spectrum` share,
or to None. `find_cycle`, `cycle_spectrum` and `in_gnk` read the memo
first, so `in_gnk` after `cycle_spectrum` of the same graph searches
nothing. A budget outcome is not memoized.

Hub joins, two hubs over a linear forest with or without the hub edge,
need no search. Their cycle lengths are exactly `hub_cycle_lengths`:
every length from 3 up to n1+n2+2 (two largest path orders plus the
hubs), except that K_{2,m} (no hub edge, no forest edge) starts at 4 and
so has length 4 only. `cycle_spectrum` writes each certificate down
directly (`hub_forest_cycle`), and membership is read off that range in
O(number of parts) (`hub_join_member`): `in_gnk` on a recognized join
builds no certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .families import recognize_hub_join
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
    none exists: the search pass `_search` with the one wanted length
    `ell`, whose certificate is a cycle by construction and is not
    re-checked at run time (`validate_cycle` checks one from outside).
    Raises SearchBudgetExceeded when its node budget runs out before
    either outcome is proven. A settled length is kept in the graph's memo
    (`Graph.settled_cycles`) and answered from it on later calls, whatever
    their budget, as a fresh list; a budget outcome is not kept.
    """
    if not 3 <= ell <= g.n:
        raise ValueError(f"cycle length must be in [3, {g.n}], got {ell}")
    memo = g.settled_cycles
    if ell not in memo:
        memo.update(_search(g, (ell,), budget))
        if ell not in memo:
            raise SearchBudgetExceeded(ell, budget)
    cyc = memo[ell]
    return None if cyc is None else list(cyc)


def _search(g: Graph, lengths: Iterable[int],
            budget: int) -> dict[int, Optional[tuple[int, ...]]]:
    """One search pass for every length in `lengths`: a dict that maps each
    length it settles to its certificate, or to None when the length is
    absent. The lengths missing from it were still open when the budget of
    `budget` node expansions, shared by the whole pass, ran out.

    The pass anchors at each vertex s in turn as the smallest cycle vertex.
    A cycle lies inside one biconnected block, an odd one inside a
    non-bipartite block, so the lengths wanted at s are the open ones with
    ell <= n - s for which s lies in such a block with at least ell
    vertices; the kept vertices are those of the blocks that some wanted
    length admits. The anchor restricts to the 2-core of the kept vertices
    from s up and to its BFS component (a wanted length above the
    component's order is dropped), and runs one depth-first search in the
    order of the adjacency lists that prunes a vertex w at path length p
    unless dist(w, s) <= max(wanted) - p. It costs one budget unit, and each
    vertex it expands one more. A path of k vertices whose last vertex is a
    neighbour of s closes a k-cycle; when k is wanted, that cycle is its
    certificate and k is no longer wanted. The anchor ends when nothing is
    wanted. A length still open after the last anchor is absent.

    `find_cycle(g, ell)` is this pass with `lengths = (ell,)`. A length
    that a pass over more lengths settles, that search settles too, with the
    same outcome and within the same budget. Take an anchor s where the
    one-length search runs. While ell is open, the pass wants ell at s as
    well and keeps a superset of the vertices; its 2-core and BFS component
    are then supersets too, its distances are no longer, and max(wanted) >=
    ell. So each vertex that the one-length search expands on a path passes
    the pass's pruning on the same path: the one-length expansions are a
    prefix-closed subset of the pass's, met in the same relative order,
    since both take neighbours in adjacency order. Every ell-cycle with
    smallest vertex s survives both prunings (its vertices lie in a kept
    block and in the 2-core, each no further from s than the steps left
    along the cycle), so both searches meet the same ell-cycles at s, in the
    same order, and the first anchor that has one is the same: the
    certificate is unchanged. By the time the pass settles ell it has spent
    a unit on each anchor and expansion that the one-length search spends
    on before its outcome, so that search stays within any budget the pass
    stayed within. The block pruning of either search is the same argument
    with the unpruned search in the role of the pass: a vertex removed lies
    on no wanted cycle, so removing it removes failing branches only and
    keeps the order of the rest.
    """
    n = g.n
    # the order of the largest block, and of the largest non-bipartite
    # block, that holds each vertex
    span, odd_span = [0] * n, [0] * n
    for blocks, out in ((g.blocks, span), (g.odd_blocks, odd_span)):
        for block in blocks:
            for v in block:
                out[v] = max(out[v], len(block))
    open_ = set(lengths)
    settled = {}
    left = budget
    for s in range(n):
        if not open_:
            break
        want = {ell for ell in open_ if ell <= n - s
                and ell <= (odd_span[s] if ell % 2 else span[s])}
        if not want:
            continue
        even = min((ell for ell in want if ell % 2 == 0), default=n + 1)
        odd = min((ell for ell in want if ell % 2), default=n + 1)
        alive = bytearray(n)
        for v in range(s, n):
            if span[v] >= even or odd_span[v] >= odd:
                alive[v] = 1
        left = _search_anchor(g, alive, s, want, settled, left)
        if left < 0:
            break
        open_.difference_update(settled)
    else:
        settled.update(dict.fromkeys(open_))
    return settled


def _search_anchor(g: Graph, alive: bytearray, s: int, want: set[int],
                   settled: dict[int, Optional[tuple[int, ...]]],
                   left: int) -> int:
    """The anchor-s step of `_search` over the kept vertices `alive`: puts
    each wanted length it closes at s into `settled`, and returns the budget
    left, negative when it ran out."""
    n = g.n
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
        return left
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
    want = {ell for ell in want if ell <= reach}
    if not want:
        return left

    # depth-first over an explicit stack of neighbour iterators, one per
    # path vertex below the current one; each vertex expanded costs one
    # budget unit, and the loop ends when the stack runs out, nothing is
    # wanted, or `left` goes negative
    top = max(want)
    visited = bytearray(n)
    visited[s] = 1
    path = [s]
    stack = []
    it = iter(adj[s])
    left -= 1
    while left >= 0:
        cap = top - len(path)
        for w in it:
            if not visited[w] and dist[w] <= cap:
                break
        else:
            if not stack:
                break
            visited[path.pop()] = 0
            it = stack.pop()
            continue
        left -= 1
        k = len(path) + 1  # vertices on the path through w
        if k in want and dist[w] == 1 and left >= 0:
            settled[k] = (*path, w)
            want.discard(k)
            if not want:
                break
            top = max(want)
        if k >= top:
            continue
        visited[w] = 1
        path.append(w)
        stack.append(it)
        it = iter(adj[w])
    return left


# --- constructive certificates for hub joins ---------------------------------


def hub_cycle_lengths(n1: int, n2: int, hub_edge: bool) -> range:
    """The cycle lengths of a hub join whose two longest paths have n1 and
    n2 vertices (n2 = 0 for a single path): exactly first..last, where
    last = n1 + n2 + 2 and first = 3, except first = 4 for K_{2,m} (no hub
    edge and every part a singleton). `hub_forest_cycle` constructs a
    cycle of each of these lengths; none is longer, since a cycle meets
    the forest in at most two segments, one per pass between the hubs."""
    return range(3 if hub_edge or n1 > 1 else 4, n1 + n2 + 3)


def hub_join_member(parts: Sequence[int], hub_edge: bool,
                    k: int) -> tuple[bool, Optional[int]]:
    """`in_gnk` of the hub join of `parts` (longest first), read off
    `hub_cycle_lengths` in O(len(parts)): the join misses length 3 when
    its lengths start at 4, else it misses last + 1 when that is at most
    n - k, else nothing in [3, n - k]."""
    n = sum(parts) + 2
    _check_k(n, k)
    lengths = hub_cycle_lengths(parts[0], parts[1] if len(parts) > 1 else 0,
                                hub_edge)
    if lengths.start > 3:
        return True, 3
    if lengths.stop <= n - k:
        return True, lengths.stop
    return False, None


def hub_forest_cycle(hub1: int, hub2: int, paths: list[list[int]],
                     ell: int, hub_edge: bool = True) -> Optional[list[int]]:
    """Cycle of length `ell` in the hub join over `paths` (longest first);
    None when `ell` is not in `hub_cycle_lengths`.

    With the hub edge the cycle runs through both hubs and prefixes of the
    two longest paths (the second possibly empty). Without it, length 3 is
    a hub plus a forest edge, and length ell >= 4 takes two non-empty
    segments: prefixes of the two longest paths, or two consecutive pieces
    of a single path.
    """
    n1 = len(paths[0])
    n2 = len(paths[1]) if len(paths) > 1 else 0
    if ell not in hub_cycle_lengths(n1, n2, hub_edge):
        return None
    if ell == 3 and not hub_edge:
        return [hub1] + paths[0][:2]
    a = min(n1, ell - 2 if hub_edge else ell - 3)
    second = paths[1] if n2 else paths[0][a:]
    return [hub1] + paths[0][:a] + [hub2] + second[:ell - 2 - a]


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
        if not 3 <= ell <= self.ell_max:
            raise ValueError(
                f"cycle length must be in [3, {self.ell_max}], got {ell}")
        return self.records[ell - 3].status


def cycle_spectrum(g: Graph, ell_max: Optional[int] = None,
                   budget: int = DEFAULT_BUDGET) -> CycleSpectrum:
    """Presence of each cycle length 3..ell_max (default n; an explicit
    `ell_max` must lie in [3, n]).

    Uses the constructive hub-join path when `recognize_hub_join` accepts
    g (no search, no budget outcomes, and no run-time re-check of the
    construction, which `hub_forest_cycle` proves). Otherwise one search
    pass (`_search`) with `budget` node expansions settles the lengths not
    yet in the graph's memo, and each length it leaves open when that
    budget runs out
    goes through `find_cycle` with a budget of its own; "budget" is recorded
    for the lengths that search cannot settle either. So every record is
    the one a separate `find_cycle(g, ell, budget)` per length gives on a
    fresh graph (the argument is in `_search`). The records share their
    certificate tuples with the memo.
    """
    if ell_max is None:
        ell_max = g.n
    elif ell_max < 3:
        raise ValueError(f"ell_max must be >= 3, got {ell_max}")
    if ell_max > g.n:
        raise ValueError(f"ell_max {ell_max} exceeds vertex count {g.n}")
    hub = recognize_hub_join(g)
    if hub is None:
        memo = g.settled_cycles
        memo.update(_search(g, [ell for ell in range(3, ell_max + 1)
                                if ell not in memo], budget))
    return CycleSpectrum(g.n, ell_max, tuple(
        _cycle_records(g, ell_max, budget, hub)))


def _cycle_records(g: Graph, ell_max: int, budget: int,
                   hub: Optional[tuple[int, int, list[list[int]], bool]]
                   ) -> Iterator[CycleRecord]:
    """The records of `cycle_spectrum`, one length at a time, in order;
    `hub` is g's `recognize_hub_join` result. Without it each length is
    read from the graph's memo, and one not yet settled goes through
    `find_cycle` first."""
    for ell in range(3, ell_max + 1):
        if hub is not None:
            cyc = hub_forest_cycle(*hub[:3], ell, hub[3])
            if cyc is not None:
                cyc = tuple(cyc)
        else:
            memo = g.settled_cycles
            if ell not in memo:
                try:
                    find_cycle(g, ell, budget)
                except SearchBudgetExceeded:
                    yield CycleRecord(ell, "budget", None)
                    continue
            cyc = memo[ell]
        yield CycleRecord(ell, "absent" if cyc is None else "present", cyc)


def _check_k(n: int, k: int) -> None:
    if not 0 <= k <= n - 3:
        raise ValueError(f"need 0 <= k <= n-3 = {n - 3}, got k={k}")


def in_gnk(g: Graph, k: int,
           budget: int = DEFAULT_BUDGET) -> tuple[bool, Optional[int]]:
    """Does g miss some cycle length in [3, n-k]? (planar inputs only)

    Returns (member, witness): witness is the smallest missing length when
    member is True. A recognized hub join is answered by `hub_join_member`
    from its part lengths: no certificate, no search, and no planarity
    test (it is a spanning subgraph of K2 + P_{n-2}, which is maximal
    planar). Any other non-planar input is rejected. Otherwise lengths are
    settled in order, each read from the graph's memo or, when not yet
    settled there, by `find_cycle` (so after `cycle_spectrum` of the same
    graph nothing is searched), and the walk stops at the first absent or
    unsettled one; a budget outcome at a length that could still be the
    witness raises SearchBudgetExceeded.
    """
    hub = recognize_hub_join(g)
    if hub is not None:
        return hub_join_member([len(p) for p in hub[2]], hub[3], k)
    _check_k(g.n, k)
    if not is_planar(g):
        raise ValueError("membership is defined for planar graphs only")
    for rec in _cycle_records(g, g.n - k, budget, None):
        if rec.status == "absent":
            return True, rec.ell
        if rec.status == "budget":
            raise SearchBudgetExceeded(rec.ell, budget)
    return False, None
