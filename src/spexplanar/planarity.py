"""The left-right planarity test, on neighbour sets.

`Graph.planar` hands it each block kernel that its cheaper rules leave
open, and imports this module only then: a process that never needs the
test, such as the CLI's start-up, neither compiles nor loads it. Pure
Python, with no import beyond the language.
"""

from __future__ import annotations


def lr_planar(nbrs: dict[int, set[int]]) -> bool:
    """Planarity of the simple graph with neighbour sets `nbrs`, by the
    yes/no half of the left-right criterion (de Fraysseix & Rosenstiehl),
    as U. Brandes gives it in "The Left-Right Planarity Test" (2009).

    An orientation DFS directs each tree edge down and each back edge up
    to an ancestor, and finds each edge's lowpoint (the least height that
    a return edge from its subtree reaches), the next least, and from
    them its nesting depth, which orders each vertex's out-edges. A
    testing DFS in that order keeps a stack of conflict pairs [left_low,
    left_high, right_low, right_high]: two intervals of return edges that
    must lie on opposite sides, each chained through `ref` from its high
    edge to its low one. A pair whose two sides must both lie on one side
    leaves no left-right partition: not planar. Both DFSs walk explicit
    stacks. No embedding is built, so the `ref` entries that only an
    embedding reads (of aligned or emptied intervals, and of tree edges)
    are not kept.
    """
    height: dict[int, int] = {}
    lowpt: dict[tuple[int, int], int] = {}
    lowpt2: dict[tuple[int, int], int] = {}
    nesting: dict[tuple[int, int], int] = {}
    out: dict[int, list[int]] = {v: [] for v in nbrs}

    def lift(vw, e) -> None:
        # fold the lowpoints of edge vw into those of its parent edge e
        if e is None:
            return
        low, low2, low_e = lowpt[vw], lowpt2[vw], lowpt[e]
        if low < low_e:
            lowpt2[e] = min(low_e, low2)
            lowpt[e] = low
        elif low > low_e:
            lowpt2[e] = min(lowpt2[e], low)
        else:
            lowpt2[e] = min(lowpt2[e], low2)

    roots = []
    for root in nbrs:
        if root in height:
            continue
        height[root] = 0
        roots.append(root)
        stack = [(root, None, iter(nbrs[root]))]  # (v, parent edge, rest)
        while stack:
            v, e, it = stack[-1]
            hv = height[v]
            for w in it:
                hw = height.get(w)
                if hw is None:  # tree edge: finish w's subtree first
                    vw = (v, w)
                    out[v].append(w)
                    height[w] = hv + 1
                    lowpt[vw] = lowpt2[vw] = hv
                    stack.append((w, vw, iter(nbrs[w])))
                    break
                if hw < hv - 1:  # back edge (the edge to the parent, or from
                    # a descendant, is oriented already)
                    vw = (v, w)
                    out[v].append(w)
                    lowpt[vw], lowpt2[vw] = hw, hv
                    nesting[vw] = 2 * hw
                    lift(vw, e)
            else:
                stack.pop()
                if e is not None:
                    nesting[e] = 2 * lowpt[e] + (lowpt2[e] < height[e[0]])
                    lift(e, stack[-1][1])
    order = {v: sorted(ws, key=lambda w: nesting[v, w])
             for v, ws in out.items()}

    pairs: list[list] = []
    bottom: dict[tuple[int, int], list | None] = {}  # top of `pairs` at ei
    ref: dict = {}

    def conflicting(high, ei) -> bool:
        return high is not None and lowpt[high] > lowpt[ei]

    def add_constraints(ei, e) -> bool:
        p = [None, None, None, None]
        # merge the return edges of ei into p's right interval
        while True:
            q = pairs.pop()
            if q[0] is not None or q[1] is not None:
                q[:] = q[2], q[3], q[0], q[1]
            if q[0] is not None or q[1] is not None:
                return False
            if lowpt[q[2]] > lowpt[e]:
                if p[2] is None and p[3] is None:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            if (pairs[-1] if pairs else None) is bottom[ei]:
                break
        # merge the conflicting return edges of ei's elder siblings into
        # p's left interval
        while pairs and (conflicting(pairs[-1][1], ei)
                         or conflicting(pairs[-1][3], ei)):
            q = pairs.pop()
            if conflicting(q[3], ei):
                q[:] = q[2], q[3], q[0], q[1]
            if conflicting(q[3], ei):
                return False
            ref[p[2]] = q[3]
            if q[2] is not None:
                p[2] = q[2]
            if p[0] is None and p[1] is None:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p != [None, None, None, None]:
            pairs.append(p)
        return True

    def remove_back_edges(e) -> None:
        # drop the pairs, then trim the intervals, of the return edges
        # that end at e's tail u
        u = e[0]
        while pairs and min(lowpt[low] for low in pairs[-1][::2]
                            if low is not None) == height[u]:
            pairs.pop()
        if pairs:
            q = pairs[-1]
            for low, high in ((0, 1), (2, 3)):
                while q[high] is not None and q[high][1] == u:
                    q[high] = ref.get(q[high])
                if q[high] is None:
                    q[low] = None

    for root in roots:
        stack = [(root, None, iter(order[root]))]
        while stack:
            v, e, it = stack[-1]
            hv = height[v]
            for w in it:
                ei = (v, w)
                bottom[ei] = pairs[-1] if pairs else None
                if height[w] > hv:  # tree edge: test w's subtree first
                    stack.append((w, ei, iter(order[w])))
                    break
                pairs.append([None, None, ei, ei])
                if w != order[v][0] and not add_constraints(ei, e):
                    return False
            else:
                stack.pop()
                if e is None:
                    continue
                remove_back_edges(e)
                u = e[0]
                if (lowpt[e] < height[u] and e[1] != order[u][0]
                        and not add_constraints(e, stack[-1][1])):
                    return False
    return True
