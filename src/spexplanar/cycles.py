"""Fixed-length cycle search, constructive certificates, cycle spectra.

`find_cycle` is an exact backtracking search: a returned certificate is a
real cycle (a path over the adjacency lists whose last vertex is a
neighbour of the first, so a cycle by construction; `validate_cycle`
checks one from outside) and `None` means a completed proof of absence.
Exhaustion of the budget is a third outcome, raised as
SearchBudgetExceeded, never folded into "absent". The budget counts one
unit per anchor, per first step and per vertex expanded (`_search`).

There is one search kernel, `_search`: a pass that settles a set of wanted
lengths at once. `find_cycle` runs it for one length, `cycle_spectrum` for
3..ell_max; a length the pass leaves open when its budget runs out goes
through `find_cycle` with a budget of its own, so each length gets the
outcome of its own search (the argument is in `_search`).

Every cycle lies inside one biconnected block, so the pass searches each
block on its own sorted labels (`Graph.local_blocks`, built once per graph
with the Tarjan pass that planarity reads too). At an anchor, the least
vertex of the cycles it looks for, a block wants only the lengths that fit
in its part from the anchor up, and only even ones if it is bipartite: a
length above the largest such block is absent at no search cost. Each
cycle is enumerated once, in the orientation that leaves the anchor by
the smaller of its two cycle-neighbours, which is the orientation of its
certificate, the least such vertex sequence. `in_gnk` asks for planarity
through `is_planar`, which is also computed once per graph, block by
block.

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
            f"{budget} search units")
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
    Raises SearchBudgetExceeded when its budget runs out before
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
    `budget` units, shared by the whole pass, ran out.

    The pass anchors at each vertex s in turn as the smallest cycle vertex,
    and searches each biconnected block B that holds s on B's own labels
    (`Graph.local_blocks`), where vertices above s are labels above s's. A
    cycle lies inside one block, an odd one inside a non-bipartite block,
    so B wants the open lengths ell <= |B ∩ [s, n)|, even ones only if B
    is bipartite, and only if s has two or more neighbours above s in B.
    Each cycle is enumerated once, in the orientation that leaves s by the
    smaller of its two cycle-neighbours: the first steps v1 are s's
    neighbours above s in the blocks that want something, taken in s's
    adjacency order, each block's largest one left out. Under (s, v1) the
    search stays in B ∩ (s, n) and closes only at a closer, a neighbour of s
    in B above v1. dist(w) is w's BFS distance to the closers in
    B ∩ (s, n) without v1, so the cycles through (s, v1) have at most
    reach + 2 vertices (reach: the vertices at a finite distance), and the
    lengths above that are not wanted there. One depth-first search in
    adjacency order then prunes a vertex w that would be the k-th path
    vertex unless dist(w) <= max(wanted) - k. A path of k vertices that
    ends at a closer closes a k-cycle; when k is wanted, that cycle is its
    certificate and k is no longer wanted. A length still open after the
    last anchor is absent. Nothing is peeled and no adjacency is rebuilt:
    the block labels are built once per graph.

    The certificate of a length is the least sequence (s, v1, ...,
    v_(ell-1)) in lexicographic order among its cycles, s the cycle's least
    vertex. That sequence leaves s by the smaller cycle-neighbour (its
    reverse is larger), so it is the first ell-cycle the pass meets: the
    anchors rise, the first steps at s rise, and a depth-first search in
    sorted adjacency order meets the paths under one first step in
    lexicographic order.

    The budget unit: one per anchor at which a block wants a length, one
    per first step taken (its BFS included), and one per vertex expanded.
    A closing expansion counts only within the budget.

    `find_cycle(g, ell)` is this pass with `lengths = (ell,)`. A length
    that a pass over more lengths settles, that search settles too, with
    the same outcome and within the same budget. While ell is open, every
    block that wants ell in the one-length search wants it in the pass as
    well, so each anchor and first step it pays for, the pass pays for
    too, in the same order. Under one first step the distances and the
    reach do not depend on what is wanted, and the pass's max(wanted) is at
    least ell, so each vertex the one-length search expands on a path passes
    the pass's pruning on the same path: its expansions are a prefix-closed
    subset of the pass's, met in the same relative order. Each vertex of an
    ell-cycle through (s, v1) is within the steps left along the cycle of a
    closer, so both searches meet the same ell-cycles, in the same order,
    and close ell at the same one. By the time the pass settles ell, it has
    spent a unit on each anchor, first step and expansion that the
    one-length search spends on before its outcome, so that search stays
    within any budget the pass stayed within.
    """
    blocks = g.local_blocks
    # each vertex's blocks, as (block, the vertex's local label)
    member: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for b, (verts, _, _) in enumerate(blocks):
        for i, v in enumerate(verts):
            member[v].append((b, i))
    open_ = set(lengths)
    settled: dict[int, Optional[tuple[int, ...]]] = {}
    left = budget

    def wanted(b: int, a: int) -> set[int]:
        """The open lengths that block b wants at its local anchor a."""
        verts, _, bipartite = blocks[b]
        room = len(verts) - a
        return {ell for ell in open_
                if ell <= room and not (bipartite and ell % 2)}

    for s, mine in enumerate(member):
        if not open_:
            break
        steps = []
        for b, a in mine:
            verts, adj, _ = blocks[b]
            up = [w for w in adj[a] if w > a]
            if len(up) > 1 and wanted(b, a):
                steps += [(verts[v1], b, a, v1) for v1 in up[:-1]]
        if not steps:
            continue
        left -= 1  # the anchor
        if left < 0:
            return settled
        steps.sort()
        for _, b, a, v1 in steps:
            want = wanted(b, a)
            if not want:
                continue
            left -= 1  # the first step
            if left < 0:
                return settled
            verts, adj, _ = blocks[b]
            # BFS from the closers over B ∩ (s, n) without v1; -1 marks
            # the labels the search may not enter, len(verts) the ones it
            # has not reached
            dist = [-1] * (a + 1) + [len(verts)] * (len(verts) - a - 1)
            dist[v1] = -1
            frontier = [c for c in adj[a] if c > v1]
            for c in frontier:
                dist[c] = 0
            reach = len(frontier)
            while frontier:
                nxt = []
                for v in frontier:
                    d = dist[v] + 1
                    for w in adj[v]:
                        if dist[w] > d:
                            dist[w] = d
                            nxt.append(w)
                reach += len(nxt)
                frontier = nxt
            want = {ell for ell in want if ell <= reach + 2}
            if not want:
                continue
            # depth-first over an explicit stack of neighbour iterators, one
            # per path vertex below the current one. `path` holds v1 on, and
            # a vertex on it has its distance stored as ~dist (negative), so
            # one test refuses path vertices and the labels outside the
            # region. `cap` is top - k, k the cycle vertices with the next w.
            top = max(want)
            path = [v1]
            stack = []
            it = iter(adj[v1])
            cap = top - 3
            while left >= 0:
                for w in it:
                    if 0 <= dist[w] <= cap:
                        break
                else:
                    if not stack:
                        break
                    v = path.pop()
                    dist[v] = ~dist[v]
                    it = stack.pop()
                    cap += 1
                    continue
                left -= 1
                if not dist[w] and top - cap in want and left >= 0:
                    k = top - cap
                    settled[k] = (s, *[verts[v] for v in path], verts[w])
                    want.discard(k)
                    open_.discard(k)
                    if not want:
                        break
                    top = max(want)
                    cap = top - k
                if cap <= 0:
                    continue
                dist[w] = ~dist[w]
                path.append(w)
                stack.append(it)
                it = iter(adj[w])
                cap -= 1
        if left < 0:
            return settled
    settled.update(dict.fromkeys(open_))
    return settled


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


def cycle_spectrum(g: Graph, ell_max: Optional[int] = None,
                   budget: int = DEFAULT_BUDGET) -> CycleSpectrum:
    """Presence of each cycle length 3..ell_max (default n; an explicit
    `ell_max` must lie in [3, n]).

    Uses the constructive hub-join path when `recognize_hub_join` accepts
    g (no search, no budget outcomes, and no run-time re-check of the
    construction, which `hub_forest_cycle` proves). Otherwise one search
    pass (`_search`) settles the lengths not yet in the graph's memo, and
    none runs when every length is there. The pass searches each
    biconnected block on its own labels and meets each cycle once, in its
    certificate's orientation, spending at most `budget` units (one per
    anchor, per first step and per vertex expanded). Each
    length it leaves open when that budget runs out goes through
    `find_cycle` with a budget of its own; "budget" is recorded for the
    lengths that search cannot settle either. So every record is the one
    a separate `find_cycle(g, ell, budget)` per length gives on a fresh
    graph (the argument is in `_search`). The records share their
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
        open_lengths = [ell for ell in range(3, ell_max + 1)
                        if ell not in memo]
        if open_lengths:
            memo.update(_search(g, open_lengths, budget))
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
