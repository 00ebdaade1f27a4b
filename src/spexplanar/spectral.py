"""Spectral radius computation in numpy, on the kernel (`kernel.py`).

Each graph gets exactly one of two engines, chosen before any solve:

* Hub joins K2 + (linear forest), with or without the hub edge, recognized
  exactly by `families.recognize_hub_join`, take the secular equation of
  the join (`kernel.py`): both hubs carry the same Perron entry (swapping
  them is an automorphism), so rho is the unique root above 2 of a
  rational function of rho with one term per path order, and the Perron
  vector is written down per path block in closed form.
* Everything else takes the dense route: ValueError above DENSE_MAX_ORDER
  vertices (on n, bipartite or not), then DisconnectedGraphError unless
  the graph's Tarjan pass grew one DFS tree. A regular graph of degree d
  gets rho = d and the all-ones vector, an exact eigenvector, residual 0
  and no matrix. Any other graph takes one dense symmetric solve: the top
  eigenvector of `numpy.linalg.eigh`, max-normalized. A bipartite graph
  (`Graph.bipartite`: every block is) with colour classes X, the smaller,
  and Y, read off the same pass's DFS depth parities, has
  A = [[0, B], [B', 0]] for B = A[X, Y], so rho^2 is the top eigenvalue
  of B B' (Brouwer & Haemers, "Spectra of Graphs", 2012): `eigh` runs at
  order |X| <= n/2, about 1/8 of the flops, with x_X its top eigenvector
  and x_Y = B' x_X / rho. The graph is connected, so rho is simple and
  B B' irreducible. Either way rho is the Rayleigh quotient and the
  residual is taken on the full A; it is O(u ||A||) by backward stability
  (on the bipartite route the X block is (B B' x_X - rho^2 x_X) / rho,
  the Y block zero up to rounding), and is gated like every solve below.

A hub join is solved from its part list in one or two stages:

* The root stage: Newton's root, then a proof that rho lies in a float
  interval [lo, hi], in O(distinct part orders) per join (`kernel.py`).
  It is all that `hub_join_radii` runs (every radius gap, and `spex rho`
  without --emit-vector): one forest in Python floats
  (`kernel.join_radius`), more in numpy arrays, one entry per join, over
  the batch's columns (`hub_join_radii_arrays`, a call's rows in slices
  of SLICE_ROWS). Both run the kernel's drivers, generic in their number
  type (`kernel._Floats`, `_Arrays` here), so a join gets the same rho,
  Newton steps, lo and hi bit for bit alone and in any batch.
* The vector stage (`_hub_join_spectrum`), at the scalar Newton root
  (`kernel._secular_root`, the bits of the join's batch row): the Perron
  entries in closed form per path block and their residual
  ||Ax - rho x||_inf from the join's structure, in 1-D arrays with the
  paths longest first, then scattered once into block order. It costs
  O(n) and encloses nothing. Only `spectral_radius` of a recognized join
  and `hub_join_spectrum` run it (so `spex rho --emit-vector`).

Every solve passes the kernel's one gate (`kernel._gate`): a root
enclosure's width, or a Perron vector's residual, is at most
`kernel.TOL` * max(1, rho), or the solve raises ConvergenceError.

`kernel.py` holds, each with its argument, every formula and driver of
the root stage: f with f' (`_secular`), the outward-rounded bound on f
(`_secular_bound`), the Newton driver (`_secular_root`) and the
enclosure driver (`_enclose_root`); the closed forms of the Perron
entries that claim33 and entry bounds read over [lo, hi]
(`_closed_forms`); and the one verdict rule (`enclosure_verdict`).

Below SECULAR_ORDER both stages build the join and let `spectral_radius`
pick the engine, and the root stage encloses that rho by
Collatz-Wielandt bounds on its Perron vector; from SECULAR_ORDER on
every join is recognized. So every entry point gives a join the same rho
and Newton steps bit for bit, and every root-stage entry point the same
enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Sequence

import numpy as np

from .families import join_order, join_with_paths, recognize_hub_join
from .graphs import Graph
from .kernel import (SECULAR_ORDER, _Floats, _gate, _part_groups,
                     _root_stage, _secular_root, check_order, join_radius)

SLICE_ROWS = 16384    # rows per batch solve: its temporaries stay in cache
# Checked on n for every graph. A non-bipartite graph of order 5000 peaks
# at 1.0 GB RSS in eigh (16 s, 2 cores); P5000, bipartite, decomposes at
# order 2500: 0.52 GB and 1.4 s.
DENSE_MAX_ORDER = 5000


class DisconnectedGraphError(ValueError):
    """spectral_radius only accepts connected graphs."""


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """rho plus its max-normalized Perron vector and convergence data.

    `iterations` counts Newton steps on the secular equation for `solver`
    "secular" and is 1 for `solver` "dense".
    """

    rho: float
    vector: np.ndarray
    residual: float
    iterations: int
    solver: str


def adjacency_matrix(g: Graph) -> np.ndarray:
    """The n x n adjacency matrix, filled from g's adjacency rows with one
    `put` of the flat indices u * n + v."""
    n = g.n
    a = np.zeros((n, n))
    a.put([u * n + v for u, row in enumerate(g.adj) for v in row], 1.0)
    return a


def spectral_radius(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue of a connected graph, with Perron vector.

    Deterministic: hub joins take the secular engine, everything else the
    dense solve, which answers a regular graph from its degree, decomposes
    a bipartite graph's B B' at the order of its smaller colour class and
    any other graph's A at n (module docstring). Raises ValueError on a
    graph with no vertex, then on the dense route, in this order,
    ValueError above DENSE_MAX_ORDER vertices and DisconnectedGraphError
    on disconnected input; ConvergenceError if the residual misses the
    gate (`_gate`).
    """
    if g.n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    hub = recognize_hub_join(g)
    if hub is None:
        return _dense_solve(g)
    hub1, hub2, paths, hub_edge = hub
    res = _hub_join_spectrum([len(p) for p in paths], hub_edge)
    # res.vector has the recognized paths as its blocks, in order
    x = np.empty(g.n)
    x[[hub1, hub2, *chain.from_iterable(paths)]] = res.vector
    return replace(res, vector=x)


def _dense_solve(g: Graph) -> SpectralResult:
    """The dense route of `spectral_radius` (module docstring) for a graph
    with >= 1 vertex: a regular graph builds no matrix, and a bipartite
    one only B (`_bipartite_perron`)."""
    if g.n > DENSE_MAX_ORDER:
        raise ValueError(f"dense solve of {g.n} vertices exceeds "
                         f"DENSE_MAX_ORDER {DENSE_MAX_ORDER}")
    if not g.is_connected():
        raise DisconnectedGraphError(
            f"graph with {g.n} vertices is not connected")
    degree = len(g.adj[0])
    if all(len(row) == degree for row in g.adj):
        return SpectralResult(float(degree), np.ones(g.n), 0.0, 1, "dense")
    if g.bipartite:
        x, z = _bipartite_perron(g)
    else:
        a = adjacency_matrix(g)
        x = np.abs(np.linalg.eigh(a)[1][:, -1])
        x = x / x.max()
        z = a @ x
    rho = float(x @ z) / float(x @ x)
    resid = float(np.max(np.abs(z - rho * x)))
    _gate(resid, rho, "residual", _Floats)
    return SpectralResult(rho, x, resid, 1, "dense")


def _bipartite_matrix(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The colour classes X and Y of the connected bipartite graph g, each
    in vertex order, and B = A[X, Y]. The classes are the DFS depth
    parities of the Tarjan pass (`Graph._tarjan_pass`), X the smaller
    (vertex 0's, parity 0, on a tie). Every edge has one end in each
    class, so X's adjacency rows fill B with one `put`."""
    parity = g._tarjan_pass[2]
    y = int(2 * parity.count(1) >= g.n)  # Y's parity: X is the smaller
    in_y = np.frombuffer(parity, np.uint8) == y
    cx, cy = np.flatnonzero(~in_y), np.flatnonzero(in_y)
    col = np.empty(g.n, np.int64)
    col[cy] = np.arange(len(cy))
    col = col.tolist()
    b = np.zeros((len(cx), len(cy)))
    b.put([r * len(cy) + col[v]
           for r, u in enumerate(cx.tolist()) for v in g.adj[u]], 1.0)
    return cx, cy, b


def _bipartite_perron(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The max-normalized Perron vector x of the connected bipartite graph
    g, and Ax, with no n x n matrix, from B = A[X, Y]
    (`_bipartite_matrix`): rho^2 is the top eigenvalue of B B' with
    eigenvector x_X, x_Y = B' x_X / rho, and Ax = (B x_Y, B' x_X)."""
    cx, cy, b = _bipartite_matrix(g)
    w, vec = np.linalg.eigh(b @ b.T)
    x = np.empty(g.n)
    x[cx] = np.abs(vec[:, -1])
    x[cy] = b.T @ x[cx] / math.sqrt(w[-1])
    x = x / x.max()
    z = np.empty(g.n)
    z[cx], z[cy] = b @ x[cy], b.T @ x[cx]
    return x, z


# --- hub joins: batches and the vector stage ---------------------------------
#
# A batch runs the kernel's drivers in the number type `_Arrays`, on the
# layout that the kernel's section comment describes: `_parts_array` lays
# out its part lists and `_columns` reads off their groups.


def _parts_array(forests: Sequence[Sequence[int]]) -> np.ndarray:
    """The batch of part lists: a zero-padded (B, P) int64 array, one
    forest per row, its parts non-increasing."""
    out = np.zeros((len(forests), max(map(len, forests))), np.int64)
    for row, parts in zip(out, forests):
        row[:len(parts)] = sorted(parts, reverse=True)
    return out


def _columns(parts: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """A batch's groups from its zero-padded (B, P) part array, each row
    non-increasing: the rows of the zero-padded (G, B) int arrays
    (m, cnt), column b holding row b's runs of equal parts in order, so
    longest path first (`_part_groups` of that row), by run-length
    encoding: a part's run is the number of runs started up to it."""
    live = parts > 0
    start = live.copy()
    start[:, 1:] &= parts[:, 1:] != parts[:, :-1]
    run = np.cumsum(start, axis=1)[live] - 1
    row = np.nonzero(live)[0]
    m = np.zeros((int(run.max()) + 1, len(parts)), np.int64)
    m[run, row] = parts[live]
    cnt = np.bincount(run * len(parts) + row, minlength=m.size)
    return list(zip(m, cnt.reshape(m.shape)))


class _Arrays:
    """The number type of a batch: float arrays with one entry per row.
    np.sqrt and np.nextafter round like math.sqrt and math.nextafter."""

    sqrt = staticmethod(np.sqrt)
    nextafter = staticmethod(np.nextafter)
    ulp = staticmethod(np.spacing)  # math.ulp for rho > 0
    max = staticmethod(np.maximum)
    any = staticmethod(np.any)
    select = staticmethod(np.where)

    @staticmethod
    def first(miss, *values):
        """`values` as floats at the first row `miss` marks."""
        row = np.flatnonzero(miss)[0]
        return [float(np.ravel(v)[row]) for v in values]

    @staticmethod
    def pow(base, expo, toward=None):
        """`_Floats.pow` per row, to that row's exponent: a digit above a
        row's highest leaves its power as it is."""
        def rnd(x):
            return x if toward is None else np.nextafter(x, toward)
        out = np.ones_like(base)
        for digit in range(int(expo.max()).bit_length()):
            prod = rnd(out * base)
            out = np.where((expo >> digit) & 1 == 1, prod, out)
            base = rnd(base * base)
        return out


def _hub_join_spectrum(parts: Sequence[int], hub_edge: bool
                       ) -> SpectralResult:
    """The vector stage of join_with_paths(parts, hub_edge) at its scalar
    Newton root (`kernel._secular_root`): the Perron vector in that layout,
    its residual through `_gate`."""
    e = float(hub_edge)
    rho, steps = _secular_root(_part_groups(parts), e, _Floats)
    # paths longest first: the residual's sums round in this order
    p = np.asarray(parts, dtype=np.int64)
    order = np.argsort(-p, kind="stable")
    span = p[order]
    part = np.repeat(span, span)
    idx = np.arange(len(part)) + 1 - np.repeat(np.cumsum(span) - span, span)
    y = _forest_entries(idx, part, rho)
    resid = _join_residual(y, idx, part, rho, e)
    _gate(resid, rho, "residual", _Floats)
    x = np.empty(len(y) + 2)
    x[:2] = 1.0
    x[2:][np.repeat((np.cumsum(p) - p)[order], span) + idx - 1] = y
    return SpectralResult(rho, x / x.max(), resid, steps, "secular")


def _forest_entries(idx: np.ndarray, part: np.ndarray, rho: float
                    ) -> np.ndarray:
    """Forest part of the Perron vector with hub entries 1: y_i = 2/(rho-2)
    (1 - (u^i + u^(m+1-i)) / (1 + u^(m+1))) at position i = `idx` of a
    path of order m = `part`."""
    u = 1.0 / ((rho + math.sqrt(rho * rho - 4.0)) / 2.0)
    pw = u ** np.arange(int(part.max()) + 2)
    return 2.0 / (rho - 2.0) * (1.0 - (pw[idx] + pw[part + 1 - idx])
                                / (1.0 + pw[part + 1]))


def _join_residual(y: np.ndarray, idx: np.ndarray, part: np.ndarray,
                   rho: float, e: float) -> float:
    """||Ax - rho x||_inf of the max-normalized join vector, from the
    join's structure: a forest vertex sees both hubs and its path
    neighbours, a hub sees the other hub (if adjacent) and the forest."""
    z = np.concatenate(([0.0], y, [0.0]))  # z[j] and z[j + 2] flank y[j]
    ax = (2.0 + np.where(idx > 1, z[:-2], 0.0)
          + np.where(idx < part, z[2:], 0.0))
    forest = np.abs(ax - rho * y).max()
    hubs = np.abs(e + y.sum() - rho)
    return float(np.maximum(forest, hubs) / np.maximum(1.0, y.max()))


def hub_join_spectrum(parts: Sequence[int], hub_edge: bool) -> SpectralResult:
    """`spectral_radius(join_with_paths(parts, hub_edge))`, bit for bit, from
    the part list: the Perron vector is in that join's layout.

    From SECULAR_ORDER on no forest vertex (degree <= 4) reaches the hub
    degree n - 2, so `recognize_hub_join` accepts every join and
    `spectral_radius` would take the secular solve done here, which
    passes the gate or raises ConvergenceError. Below that order the join
    is built and `spectral_radius` picks the solver. A part below 1, or a
    join above `graphs.MAX_SIZE` vertices plus edges, is a ValueError.
    """
    if join_order(parts, hub_edge) + 2 < SECULAR_ORDER:
        return spectral_radius(join_with_paths(parts, hub_edge))
    return _hub_join_spectrum(parts, hub_edge)


def hub_join_radii(forests: Sequence[Sequence[int]], hub_edge: bool
                   ) -> list[tuple[float, float, float, int]]:
    """(rho, lo, hi, Newton steps) of the hub join of each forest: the
    root stage alone, with lo < rho < hi proven for the join's spectral
    radius rho (module docstring).

    All forests must have the same order. One forest from SECULAR_ORDER
    on runs both drivers in Python floats (`kernel.join_radius`); every
    other call is `hub_join_radii_arrays` of the forests' part array, so
    no graph is built from SECULAR_ORDER on. rho and the steps are those
    of `hub_join_spectrum`. Raises ConvergenceError once an enclosure
    misses the gate (`_gate`), and ValueError on a forest order above
    `kernel.EXACT_ORDER`.
    """
    if len({sum(parts) for parts in forests}) > 1:
        raise ValueError("hub_join_radii needs forests of a single order")
    if not forests:
        return []
    for p in chain.from_iterable(forests):
        if p < 1:
            raise ValueError(f"path order must be >= 1, got {p}")
    if len(forests) == 1 and sum(forests[0]) + 2 >= SECULAR_ORDER:
        return [join_radius(forests[0], hub_edge)]
    check_order(sum(forests[0]))
    return list(zip(*(x.tolist() for x in hub_join_radii_arrays(
        _parts_array(forests), hub_edge))))


def hub_join_radii_arrays(parts: np.ndarray, hub_edge: bool
                          ) -> tuple[np.ndarray, ...]:
    """`hub_join_radii` of a batch given as its zero-padded (B, P) int64
    part array, each row non-increasing and of one order, B >= 1: the
    arrays (rho, lo, hi, Newton steps) of shape (B,), each row the bits of
    that forest solved alone. Both drivers run on slices of SLICE_ROWS
    rows, each slice's columns read off the array (`_columns`); below
    SECULAR_ORDER each row is `_small_join_radius`."""
    if int(parts[0].sum()) + 2 < SECULAR_ORDER:
        rows = [_small_join_radius([p for p in row if p], hub_edge)
                for row in parts.tolist()]
        return tuple(map(np.array, zip(*rows)))
    e = float(hub_edge)
    out = []
    for start in range(0, len(parts), SLICE_ROWS):
        out.append(_root_stage(_columns(parts[start:start + SLICE_ROWS]), e,
                               _Arrays))
    return tuple(map(np.concatenate, zip(*out)))


def _small_join_radius(parts: Sequence[int], hub_edge: bool
                       ) -> tuple[float, float, float, int]:
    """The root stage below SECULAR_ORDER: `spectral_radius` of the join
    built once, its rho enclosed by Collatz-Wielandt bounds on its Perron
    vector x > 0 (for a connected graph, min_v (Ax)_v / x_v <= rho <=
    max_v (Ax)_v / x_v), in exact rationals, rounded outward."""
    from fractions import Fraction  # only these few joins need it
    g = join_with_paths(parts, hub_edge)
    res = spectral_radius(g)
    x = [Fraction(v) for v in res.vector.tolist()]
    if min(x) <= 0:  # bounds nothing: an infinite width
        _gate(math.inf, res.rho, "enclosure width", _Floats)
    ratios = [sum(x[w] for w in around) / xv for around, xv in zip(g.adj, x)]
    lo = math.nextafter(float(min(ratios)), -math.inf)
    hi = math.nextafter(float(max(ratios)), math.inf)
    _gate(hi - lo, res.rho, "enclosure width", _Floats)
    return res.rho, lo, hi, res.iterations
