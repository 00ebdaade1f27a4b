"""Computations made apart from spexplanar, used to check its outputs.

Nothing here imports spexplanar. Eigenvalues and Perron vectors come from
LAPACK through numpy.linalg, graph6 decoding and cycle enumeration from
networkx, partition counts from a recurrence, and the spectral radius of a
hub join from the secular equation of the join (Golub, "Some modified matrix
eigenvalue problems", SIAM Rev. 15, 1973) with the path resolvent sums in
closed form.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import networkx as nx
import numpy as np

# Eigenvalue accuracy the checks demand of LAPACK before they trust it as the
# reference: a verdict is only contradicted by a margin larger than this.
EIG_ERROR = 1e-10


# --- partitions ---------------------------------------------------------------


@lru_cache(maxsize=None)
def partition_count(total: int, parts: int) -> int:
    """Partitions of `total` into exactly `parts` positive parts.

    p(n, k) = p(n-1, k-1) + p(n-k, k): either some part is 1 (drop it) or
    every part is >= 2 (take 1 from each).
    """
    if parts == 0:
        return 1 if total == 0 else 0
    if total < parts:
        return 0
    return partition_count(total - 1, parts - 1) + partition_count(
        total - parts, parts)


def partitions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All partitions of `total` into exactly `parts` parts, each listed
    non-increasing. Built smallest part first, unlike the program."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], left: int, slots: int) -> None:
        if slots == 1:
            if left >= prefix[-1]:
                out.append(tuple(reversed(prefix + [left])))
            return
        low = prefix[-1]
        for p in range(low, left // slots + 1):
            grow(prefix + [p], left - p, slots - 1)

    if parts == 1:
        return [(total,)] if total >= 1 else []
    for first in range(1, total // parts + 1):
        grow([first], total - first, parts - 1)
    return out


def admissible_forests(n: int, k: int, max_parts: int) -> list[tuple[int, ...]]:
    """Forests of order n-2 with at most `max_parts` parts whose two largest
    parts sum to at most n-k-3, listed."""
    return [p for t in range(1, max_parts + 1) for p in partitions(n - 2, t)
            if sum(p[:2]) <= n - k - 3]


def admissible_count(n: int, k: int, max_parts: int) -> int:
    """Forests of order n-2 with at most `max_parts` parts whose two largest
    parts sum to at most n-k-3, counted without listing them for t >= 3.

    For t >= 3 parts the condition n1 + n2 <= n-k-3 says the parts after the
    second sum to at least k+1; it always holds for k = 0.
    """
    m = n - 2
    count = 0
    for t in range(1, max_parts + 1):
        if t <= 2:
            count += sum(1 for p in partitions(m, t)
                         if sum(p[:2]) <= n - k - 3)
        elif k == 0:
            count += partition_count(m, t)
        else:
            count += sum(1 for p in partitions(m, t) if sum(p[2:]) >= k + 1)
    return count


# --- hub joins ------------------------------------------------------------------


def hub_join_edges(parts: Sequence[int], hub_edge: bool) -> list[tuple[int, int]]:
    """Edges of the join in the program's documented layout: hubs 0 and 1,
    then each path block in the order given, consecutive labels."""
    edges = [(0, 1)] if hub_edge else []
    v = 2
    for p in parts:
        edges.extend((v + i, v + i + 1) for i in range(p - 1))
        v += p
    edges.extend((h, w) for h in (0, 1) for w in range(2, v))
    return edges


def _path_resolvent_sums(m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """1'(rho I - A(P_m))^{-1} 1 for rho > 2, elementwise; m = 0 gives 0.

    With rho = t + 1/t and u = 1/t the sum is
    [m - 2(1 - u^m) / ((t - 1)(1 + u^(m+1)))] / (rho - 2).
    """
    t = (rho + np.sqrt(rho * rho - 4.0)) / 2.0
    u = 1.0 / t
    return (m - 2.0 * (1.0 - u ** m) / ((t - 1.0) * (1.0 + u ** (m + 1)))
            ) / (rho - 2.0)


def hub_join_rho(forests: Iterable[Sequence[int]], hub_edge: bool) -> np.ndarray:
    """Spectral radius of each hub join, by bisection on its secular equation.

    Both hubs carry the same Perron entry, so rho is the root above 2 of
    f(rho) = rho - e - 2 * sum_j S_{m_j}(rho), e = 1 with the hub edge. f is
    increasing there; the bracket [2.5, n] is checked, not assumed.
    """
    forests = [tuple(f) for f in forests]
    if not forests:
        return np.zeros(0)
    width = max(len(f) for f in forests)
    m = np.zeros((len(forests), width))
    for i, f in enumerate(forests):
        m[i, :len(f)] = f
    e = 1.0 if hub_edge else 0.0

    def f(rho: np.ndarray) -> np.ndarray:
        return rho - e - 2.0 * _path_resolvent_sums(m, rho[:, None]).sum(axis=1)

    lo = np.full(len(forests), 2.5)
    hi = m.sum(axis=1) + 2.0
    if np.any(f(lo) >= 0) or np.any(f(hi) <= 0):
        raise ValueError("secular bracket [2.5, n] does not hold a root")
    for _ in range(80):
        mid = (lo + hi) / 2.0
        up = f(mid) > 0
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    return (lo + hi) / 2.0


# --- dense reference ---------------------------------------------------------------


def adjacency(n: int, edges: Iterable[tuple[int, int]]) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def dense_rho(n: int, edges: Iterable[tuple[int, int]]) -> float:
    return float(np.linalg.eigvalsh(adjacency(n, edges))[-1])


def dense_perron(n: int, edges: Iterable[tuple[int, int]]
                 ) -> tuple[float, np.ndarray, float]:
    """(rho, max-normalized Perron vector, residual of the unit eigenpair).

    The residual ||Ax - rho x|| of the unit vector bounds the eigenvalue
    error; callers compare it with EIG_ERROR before trusting the pair.
    """
    a = adjacency(n, edges)
    vals, vecs = np.linalg.eigh(a)
    x = vecs[:, -1]
    if x.sum() < 0:
        x = -x
    resid = float(np.linalg.norm(a @ x - vals[-1] * x))
    return float(vals[-1]), x / x.max(), resid


# --- graph6 and cycles through networkx ----------------------------------------------


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    g = nx.from_graph6_bytes(text.encode("ascii"))
    return g.number_of_nodes(), sorted(
        (min(u, v), max(u, v)) for u, v in g.edges())


def encode_graph6(n: int, edges: Iterable[tuple[int, int]]) -> str:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()


def cycle_lengths(n: int, edges: Iterable[tuple[int, int]]) -> set[int]:
    """Every length of a simple cycle, from networkx's cycle enumeration."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return {len(c) for c in nx.simple_cycles(g)}


def is_simple_cycle(edge_set: set[tuple[int, int]], n: int,
                    cycle: Sequence[int]) -> bool:
    """True when `cycle` lists >= 3 distinct vertices of {0..n-1}, each
    consecutive pair (and last-first) an edge of `edge_set` (u < v pairs)."""
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        return False
    if any(not (isinstance(v, int) and 0 <= v < n) for v in cycle):
        return False
    return all((min(cycle[i], cycle[(i + 1) % k]),
                max(cycle[i], cycle[(i + 1) % k])) in edge_set
               for i in range(k))


def lemma1_a_max(n: int) -> int:
    """Largest a with a <= sqrt(2n-4)/4, in integers: 16 a^2 <= 2n - 4."""
    a = 0
    while 16 * (a + 1) ** 2 <= 2 * n - 4:
        a += 1
    return a
