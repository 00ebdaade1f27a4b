"""Spectral radius computation and the comparison rules built on it.

Each graph gets exactly one of two engines, chosen before any solve:

* Hub joins K2 + (linear forest), with or without the hub edge, recognized
  exactly by `families.recognize_hub_join`, take the secular equation of
  the join. Both hubs carry the same Perron entry (swapping them is an
  automorphism), so rho is the unique root above 2 of

      f(rho) = rho - e - 2 * sum_j S_{m_j}(rho),   e = 1 iff hubs adjacent,

  where S_m(rho) = 1'(rho I - A(P_m))^{-1} 1 has a closed form in u = 1/t,
  rho = t + 1/t (Golub, "Some modified matrix eigenvalue problems", SIAM
  Rev. 15, 1973). Newton's method from the all-singleton lower bound
  converges monotonically (f is increasing and concave there), and the
  Perron vector is written down per path block in closed form.
* Everything else takes the dense route: ValueError above DENSE_MAX_ORDER
  vertices (on n, bipartite or not), then DisconnectedGraphError unless
  the graph's Tarjan pass grew one DFS tree. A regular graph of degree d
  gets rho = d and the all-ones vector, an exact eigenvector, residual 0
  and no matrix. Any other graph takes one dense symmetric solve: the top
  eigenvector of `numpy.linalg.eigh`, max-normalized. A bipartite graph
  (no odd block, `Graph.odd_blocks`) with colour classes X, the smaller,
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
  interval [lo, hi]. f is continuous and increasing above 2, so
  f(lo) < 0 < f(hi) puts its one root there, and each sign is read off an
  interval that holds f at that float point. That interval comes from
  IEEE +, -, *, / and sqrt, each rounded result moved one ulp outward
  with nextafter: running-error interval arithmetic (Rump, "Verification
  methods: Rigorous results using floating-point arithmetic", Acta
  Numerica 19, 2010). [lo, hi] starts ENCLOSE_ULPS ulps either side of
  the Newton root and doubles until the signs hold, so its bits never
  depend on the gate below. It costs O(distinct part orders) per join,
  and it is all that `hub_join_radii` runs (every radius gap, and
  `spex rho` without --emit-vector).
* The vector stage (`_hub_join_spectrum`), at a Newton root it is
  handed (the scalar `_secular_root`, or a batch row: the same bits):
  the Perron entries in closed form per path block and their residual
  ||Ax - rho x||_inf from the join's structure, in 1-D arrays with the
  paths longest first, then scattered once into block order. It costs
  O(n) and encloses nothing. Only `spectral_radius` of a recognized join
  (so `spex rho --emit-vector`) and `_small_join_radius` run it.

Every solve passes one gate (`_gate`): a root enclosure's width hi - lo,
or a Perron vector's residual, is at most TOL * max(1, rho), or the solve
raises ConvergenceError (NaN is not). ||A||_2 = rho for an adjacency
matrix, so this is the backward-stability scale of a residual. The root
stage stops as soon as its signs hold and no vector reads TOL, so the
gate changes no value, only whether one is returned.

The checks on Perron entries (claim33, entry bounds) read O(k) entries,
not the vector: `_closed_forms` evaluates the closed form of each entry
or entry step they read over the root stage's [lo, hi], with rounding
placed as in the enclosure.

Each formula of the root stage is written once, and so is each driver
around them: f with f' (`_secular`), the outward-rounded bound on f
(`_secular_bound`), the Newton driver (`_secular_root`) and the
enclosure driver (`_enclose_root`). Each is generic in its number type:
Python floats for one join (`_Floats`), float arrays with one entry per
join for a batch (`_Arrays`, a call's rows in slices of SLICE_ROWS). The
type supplies only sqrt, nextafter, ulp, max, any, a select (for a batch's
zero-count padding and its finished rows) and u^m by repeated squaring;
math.sqrt, math.nextafter and math.ulp round like np.sqrt, np.nextafter
and np.spacing, so a join gets the same rho, Newton steps, lo and hi bit
for bit alone and in any batch. Below SECULAR_ORDER both
stages build the join and let `spectral_radius` pick the engine, and the
root stage encloses that rho by Collatz-Wielandt bounds on its Perron
vector; from SECULAR_ORDER on every join is recognized. So every entry
point gives a join the same rho and Newton steps bit for bit, and every
root-stage entry point the same enclosure.

One function gives every verdict, `enclosure_verdict(lo, hi)` on an
interval [lo, hi] that holds a margin: certified when lo > 0, violated
when hi < 0, indeterminate when it holds 0. Every gap between two radii
is decided on the float differences of their root-stage enclosures'
ends, and every margin on Perron entries on the outward-rounded sums of
its closed forms' bounds over the same enclosure: a proof, up to the
correctness of IEEE rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Sequence

import numpy as np

from .families import (join_edges, join_order, join_with_paths,
                       recognize_hub_join)
from .graphs import Graph, edge_array

TOL = 1e-12           # a solve's gate, relative to max(1, rho) (`_gate`)
NEWTON_STOP = 1e-14   # relative Newton step at which the root is taken
NEWTON_CAP = 100      # Newton steps before the residual decides (<= 6 seen)
ENCLOSE_ULPS = 8      # first half-width of a root enclosure, in ulps of rho
SECULAR_ORDER = 7     # join order from which the part list alone picks secular
SLICE_ROWS = 16384    # rows per batch solve: its temporaries stay in cache
# Checked on n for every graph. A non-bipartite graph of order 5000 peaks
# at 1.0 GB RSS in eigh (16 s, 2 cores); P5000, bipartite, decomposes at
# order 2500: 0.52 GB and 1.4 s.
DENSE_MAX_ORDER = 5000


class DisconnectedGraphError(ValueError):
    """spectral_radius only accepts connected graphs."""


class ConvergenceError(RuntimeError):
    """A solve whose `measure`, the residual of its Perron vector or the
    width of its root enclosure, is `value` above `bound` (`_gate`)."""

    def __init__(self, value: float, bound: float, measure: str):
        super().__init__(f"{measure} {value:.3e} misses bound {bound:.3e}")
        self.value = value
        self.bound = bound
        self.measure = measure


def _gate(value, rho, measure: str, num) -> None:
    """Raise ConvergenceError on the first row (one, for `_Floats`) whose
    `value` is not at most TOL * max(1, rho), in number type `num`: NaN
    is not."""
    bound = TOL * num.max(1.0, rho)
    miss = num.select(value <= bound, False, True)
    if num.any(miss):
        first = np.flatnonzero(miss)[0]
        raise ConvergenceError(float(np.ravel(value)[first]),
                               float(np.ravel(bound)[first]), measure)


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
    u, v = edge_array(g).T
    a = np.zeros((g.n, g.n))
    a[u, v] = a[v, u] = 1.0
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
    parts = [len(p) for p in paths]
    res = _hub_join_spectrum(parts, hub_edge, *_secular_root(
        _part_groups(parts), float(hub_edge), _Floats))
    # res.vector has the recognized paths as its blocks, in order
    x = np.empty(g.n)
    x[[hub1, hub2]] = res.vector[:2]
    x[np.fromiter(chain.from_iterable(paths), np.int64, g.n - 2)] = \
        res.vector[2:]
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
    if g.odd_blocks:
        a = adjacency_matrix(g)
        x = np.abs(np.linalg.eigh(a)[1][:, -1])
        x = x / x.max()
        z = a @ x
    else:
        x, z = _bipartite_perron(g)
    rho = float(x @ z) / float(x @ x)
    resid = float(np.max(np.abs(z - rho * x)))
    _gate(resid, rho, "residual", _Floats)
    return SpectralResult(rho, x, resid, 1, "dense")


def _bipartite_perron(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The max-normalized Perron vector x of the connected bipartite graph
    g, and Ax, with no n x n matrix: its colour classes are the DFS depth
    parities of the Tarjan pass (`Graph._tarjan_pass`), X the smaller
    (vertex 0's, parity 0, on a tie) and Y, and B = A[X, Y] is laid out
    from the edge rows. rho^2 is the top eigenvalue of B B' with
    eigenvector x_X, x_Y = B' x_X / rho, and Ax = (B x_Y, B' x_X)."""
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
    w, vec = np.linalg.eigh(b @ b.T)
    x = np.empty(g.n)
    x[cx] = np.abs(vec[:, -1])
    x[cy] = b.T @ x[cx] / math.sqrt(w[-1])
    x = x / x.max()
    z = np.empty(g.n)
    z[cx], z[cy] = b @ x[cy], b.T @ x[cx]
    return x, z


# --- the secular engine for hub joins ----------------------------------------
#
# Each formula and each driver is written once, over a forest's groups: its
# distinct path orders in decreasing order, each with how many paths have
# it (grouping keeps the sum over paths short, so its rounding stays far
# below TOL on forests of thousands of paths). One forest's groups are int
# pairs (`_part_groups`) and its values Python floats (`_Floats`). A batch
# is a zero-padded (B, P) int array of part lists, one forest per row with
# its parts non-increasing (`_parts_array` pads and sorts part lists); its
# groups are the rows of two zero-padded (G, B) int arrays (m, cnt), group
# j of forest b being (m[j, b], cnt[j, b]), the j-th run of equal parts in
# row b, read off by run-length encoding (`_columns`), and its values
# float arrays of shape (B,) (`_Arrays`). Only +, -, *, / and sqrt act on
# a value, each elementwise and correctly rounded in both types, and the
# groups are summed left to right. A driver runs every row of a batch each
# round and a finished row keeps its values through `select`, so a
# forest's result does not depend on the batch it is computed in, nor on
# whether it is computed alone.


def _part_groups(parts: Sequence[int]) -> list[tuple[int, int]]:
    """One forest's (path order, count) pairs, longest path first."""
    counts: dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    return sorted(counts.items(), reverse=True)


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


class _Floats:
    """The number type of one forest: Python floats."""

    sqrt = staticmethod(math.sqrt)
    nextafter = staticmethod(math.nextafter)
    ulp = staticmethod(math.ulp)
    max = staticmethod(max)
    any = staticmethod(bool)

    @staticmethod
    def select(keep, a, b):
        return a if keep else b

    @staticmethod
    def pow(base, expo, toward=None):
        """base ** expo by repeated squaring, each product moved one ulp
        toward `toward` if it is given."""
        out = 1.0
        if toward is None:
            while expo:
                if expo & 1:
                    out *= base
                base *= base
                expo >>= 1
            return out
        nextafter = math.nextafter
        while expo:
            if expo & 1:
                out = nextafter(out * base, toward)
            base = nextafter(base * base, toward)
            expo >>= 1
        return out


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


def _secular(groups, rho, e: float, num):
    """f(rho) and f'(rho), for rho > 2, of a forest (or batch) given as its
    groups, in number type `num` (section comment).

    Per path of order m, with D = 1 + u^(m+1) and z = (rho I - A)^{-1} 1:
    S_m = 1'z = [m - W1] / (rho - 2) and z'z = [m - 2 W1 + W2] / (rho - 2)^2,
    where W1 = 2(1 - u^m)/((t - 1) D) is sum_i w_i / D and W2 is
    sum_i w_i^2 / D^2, for w_i = u^i + u^(m+1-i). f' = 1 + 2 sum_j z'z.
    A batch's zero-count padding adds an exact +0.0 to both sums.
    """
    t = (rho + num.sqrt(rho * rho - 4.0)) / 2.0
    u = 1.0 / t
    c = 1.0 / (rho - 2.0)
    # the factors that do not depend on m, once: each is the same float
    # that the per-path formulas below would round it to
    t1, u2, v2, c2 = t - 1.0, 2.0 * u * u, 1.0 - u * u, c * c
    s_sum = q_sum = 0.0  # 0.0 + x is x for the first group's terms
    for m, k in groups:
        um = num.pow(u, m)
        d = 1.0 + um * u
        w1 = 2.0 * (1.0 - um) / (t1 * d)
        w2 = (u2 * (1.0 - um * um) / v2 + 2.0 * m * um * u) / (d * d)
        s_sum = s_sum + k * (c * (m - w1))
        q_sum = q_sum + k * (c2 * (m - 2.0 * w1 + w2))
    return rho - e - 2.0 * s_sum, 1.0 + 2.0 * q_sum


def _secular_root(groups, e: float, num):
    """(rho, Newton steps) of a forest (or batch) given as its groups, in
    number type `num`.

    Starts from the root for all-singleton parts, (e + sqrt(e^2 + 8M))/2
    with M the forest order, a lower bound by subgraph monotonicity. f is
    increasing and concave above 2, so the iterates rise to the root while
    f < 0: a row is done once f >= 0 (rounding noise at the root) or the
    step falls below NEWTON_STOP relative, or after NEWTON_CAP steps, and
    a done row keeps its rho and steps while the others go on. The start
    is above 2 on every join `recognize_hub_join` accepts (not K3 or
    C4 = K_{2,2}, whose start is 2) and from SECULAR_ORDER on.
    """
    order = sum(m * k for m, k in groups)
    rho = (e + num.sqrt(e * e + 8.0 * order)) / 2.0
    steps = 0 * order  # an int, or an int array with one entry per row
    active = steps == 0
    for _ in range(NEWTON_CAP):
        f, df = _secular(groups, rho, e, num)
        step = f / df
        rho = num.select(active, rho - step, rho)
        steps = steps + active
        done = (step >= 0.0) | (-step <= NEWTON_STOP * rho)
        active = num.select(done, False, active)
        if not num.any(active):
            break
    return rho, steps


def _hub_join_spectrum(parts: Sequence[int], hub_edge: bool, rho: float,
                       steps: int) -> SpectralResult:
    """The vector stage of join_with_paths(parts, hub_edge) at the Newton
    root `rho` it is handed, reached in `steps` steps: the Perron vector in
    that layout, its residual through `_gate`."""
    e = float(hub_edge)
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
    return _hub_join_spectrum(parts, hub_edge, *_secular_root(
        _part_groups(parts), float(hub_edge), _Floats))


def hub_join_radii(forests: Sequence[Sequence[int]], hub_edge: bool
                   ) -> list[tuple[float, float, float, int]]:
    """(rho, lo, hi, Newton steps) of the hub join of each forest: the
    root stage alone, with lo < rho < hi proven for the join's spectral
    radius rho (module docstring).

    All forests must have the same order. From SECULAR_ORDER on, both
    drivers run once, in Python floats for one forest and, for more, in
    numpy arrays over the batch's columns (`hub_join_radii_arrays`), and
    no graph is built; below it each forest is `_small_join_radius`, in
    the layout given. rho and the steps are those of `hub_join_spectrum`.
    Raises ConvergenceError once an enclosure misses the gate (`_gate`).
    """
    if len({sum(parts) for parts in forests}) > 1:
        raise ValueError("hub_join_radii needs forests of a single order")
    if not forests:
        return []
    if sum(forests[0]) + 2 < SECULAR_ORDER:
        return [_small_join_radius(parts, hub_edge) for parts in forests]
    for p in chain.from_iterable(forests):
        if p < 1:
            raise ValueError(f"path order must be >= 1, got {p}")
    if len(forests) > 1:
        return list(zip(*(x.tolist() for x in hub_join_radii_arrays(
            _parts_array(forests), hub_edge))))
    e = float(hub_edge)
    groups = _part_groups(forests[0])
    rho, steps = _secular_root(groups, e, _Floats)
    return [(rho, *_enclose_root(groups, rho, e, _Floats), steps)]


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
        groups = _columns(parts[start:start + SLICE_ROWS])
        rho, steps = _secular_root(groups, e, _Arrays)
        out.append((rho, *_enclose_root(groups, rho, e, _Arrays), steps))
    return tuple(map(np.concatenate, zip(*out)))


# --- the root stage's enclosure -----------------------------------------------


def _secular_bound(groups, rho, e: float, toward: float, num):
    """A bound on f(rho), for float rho > 2, of a forest (or batch) given as
    its groups, in number type `num`: an upper bound for `toward` -inf, a
    lower one for +inf.

    f is `_secular`'s. The path sums S_m are bounded toward `toward` (r)
    and f the other way (q): each rounded +, -, *, / and sqrt is followed
    by one ulp in the direction that keeps its bound (halving and doubling
    are exact), so each bound uses the ends of its operands' bounds that
    make it extreme, and u^m comes from repeated squaring of u's bound. A
    lower bound that falls below 0 for a positive quantity (u^m after
    underflow, S_m) is still a lower bound. A batch's zero-count padding
    leaves the sum as it is.
    """
    nextafter = num.nextafter

    def r(x):
        return nextafter(x, toward)

    def q(x):
        return nextafter(x, -toward)

    t_r = r(rho + r(num.sqrt(num.max(r(r(rho * rho) - 4.0), 0.0)))) / 2.0
    t_q = q(rho + q(num.sqrt(num.max(q(q(rho * rho) - 4.0), 0.0)))) / 2.0
    u = r(1.0 / t_q)
    tm = r(t_r - 1.0)
    c = r(1.0 / q(rho - 2.0))
    s = 0.0
    for m, k in groups:
        um = num.pow(u, m, toward)
        w1 = q(2.0 * q(1.0 - um) / r(tm * r(1.0 + r(um * u))))
        s = num.select(k > 0, r(s + r(k * r(c * r(m - w1)))), s)
    return q(q(rho - e) - 2.0 * s)


def _enclose_root(groups, rho, e: float, num):
    """(lo, hi) around the Newton root `rho` of a forest (or batch), with
    f(lo) < 0 < f(hi) proven by `_secular_bound` in number type `num`:
    ENCLOSE_ULPS ulps of rho either side, doubled on each row until its
    signs hold (then it keeps lo and hi), or ConvergenceError once its
    width misses the gate (`_gate`). A row with lo <= 2 fails; its lower bound is taken at
    rho instead, where the bound's formulas hold."""
    half = ENCLOSE_ULPS * num.ulp(rho)
    while True:
        lo, hi = rho - half, rho + half
        _gate(hi - lo, rho, "enclosure width", num)
        above = lo > 2.0
        held = (above
                & (_secular_bound(groups, num.select(above, lo, rho), e,
                                  -math.inf, num) < 0.0)
                & (_secular_bound(groups, hi, e, math.inf, num) > 0.0))
        if not num.any(num.select(held, False, True)):
            return lo, hi
        half = num.select(held, half, 2.0 * half)


def _closed_forms(forms, rho: float, lo: float, hi: float) -> list:
    """[float at rho, lower bound, upper bound] over rho in [lo, hi] of each
    closed form of a hub join's Perron entries (hub entries 1) in `forms`.

    A form (k, p, a, b, c, m) is k rho^p C (1 - u^a) u^b (1 - u^c) /
    (1 + u^(m+1)), with C = 2/(rho - 2) and u = 1/t as in `_secular`, and
    (k, p, 0, 0, 0, 0) is k rho^p alone. A forest vertex v has
    rho y_v = 2 + (its path neighbours' entries), so on a path of order m
    y_j = C (1 - u^j)(1 - u^(m+1-j)) / (1 + u^(m+1)) is
    (1, 0, j, 0, m+1-j, m) and
    y_(i+1) - y_i = C (1 - u) u^i (1 - u^(m-2i)) / (1 + u^(m+1)) is
    (1, 0, 1, i, m-2i, m): products of factors >= 0, each monotone in u
    (which falls as rho rises), so no difference of near-equal floats is
    taken. Each bound is `_forms_toward`. C4, whose rho is 2, needs no C:
    its singleton entries are 2/rho.
    """
    return list(zip(_forms_toward(forms, rho, rho, None),
                    _forms_toward(forms, lo, hi, -math.inf),
                    _forms_toward(forms, lo, hi, math.inf)))


def _forms_toward(forms, lo: float, hi: float, toward) -> list[float]:
    """Each form of `_closed_forms` bounded toward `toward` (-inf: lower,
    +inf: upper) over rho in [lo, hi], in Python floats (`_Floats`); for
    `toward` None, its plain float at rho = lo = hi.

    Each factor is bounded toward `toward` at the end of [lo, hi] that
    makes it extreme, with rounding placed by hand as in `_secular_bound`:
    a result rounded toward `toward` (r), or the other way (q) where it is
    subtracted or divides. u^(m+1) is u^c u^(m+1-c), and a lower bound of a
    factor >= 0 that falls below 0 after underflow is still one.
    """
    if toward is None:
        def r(x):
            return x

        def pow_(base, expo, toward):
            return base ** expo
        q, away, rho_r, rho_q = r, None, lo, lo
    else:
        pow_ = _Floats.pow
        nextafter, away = math.nextafter, -toward

        def r(x):
            return nextafter(x, toward)

        def q(x):
            return nextafter(x, away)
        # a function falling in rho is bounded toward `toward` at rho_r
        rho_r, rho_q = (hi, lo) if toward < 0 else (lo, hi)
    t_q = q(rho_r + q(math.sqrt(max(q(q(rho_r * rho_r) - 4.0), 0.0)))) / 2.0
    t_r = r(rho_q + r(math.sqrt(max(r(r(rho_q * rho_q) - 4.0), 0.0)))) / 2.0
    u_r, u_q = r(1.0 / t_q), q(1.0 / t_r)
    c0 = r(2.0 / max(q(rho_r - 2.0), 5e-324))
    # u^e <= tail < 2^-54 for e >= e_big, where 1 - u^e and 1 + u^e round
    # as 1 - tail and 1 + tail do: tail bounds u^e from above, 0 from below
    e_big, tail = 1, max(u_r, u_q)
    while 2.0 ** -54 <= tail < 1.0 and e_big < 1024:
        e_big, tail = 2 * e_big, math.nextafter(tail * tail, math.inf)
    if tail >= 2.0 ** -54:  # u near 1 (C4's rho = 2): no power is replaced
        e_big = math.inf
    if away != math.inf:
        tail = 0.0

    def u_pow(e):  # u^e bounded away from `toward`
        return u_q if e == 1 else tail if e >= e_big else pow_(u_q, e, away)
    out = []
    for k, p, a, b, c, m in forms:
        f = (k if p == 0 else r(k * pow_(rho_q, p, toward)) if p > 0
             else r(k / pow_(rho_r, -p, away)))
        if m:
            # the middle entry has c = a or a + 1: one power serves both
            ua = u_pow(a)
            uc = ua if c == a else q(ua * u_q) if c == a + 1 else u_pow(c)
            ue = ua if a + c == m + 1 else u_pow(m + 1 - c)
            g = r(c0 * r(1.0 - ua))
            if b:
                g = r(g * (u_r if b == 1 else pow_(u_r, b, toward)))
            g = r(r(g * r(1.0 - uc)) / q(1.0 + q(uc * ue)))
            f = g if k == 1.0 and p == 0 else r(f * g)
        out.append(f)
    return out


def _small_join_radius(parts: Sequence[int], hub_edge: bool
                       ) -> tuple[float, float, float, int]:
    """The root stage below SECULAR_ORDER: `hub_join_spectrum` of the built
    join, its rho enclosed by Collatz-Wielandt bounds on its Perron vector
    x > 0 (for a connected graph, min_v (Ax)_v / x_v <= rho <= max_v
    (Ax)_v / x_v), in exact rationals, rounded outward."""
    from fractions import Fraction  # only these few joins need it
    res = hub_join_spectrum(parts, hub_edge)
    x = [Fraction(v) for v in res.vector.tolist()]
    ax = [Fraction(0)] * len(x)
    for u, v in join_edges(parts, hub_edge).tolist():
        ax[u] += x[v]
        ax[v] += x[u]
    if min(x) <= 0:  # bounds nothing: an infinite width
        _gate(math.inf, res.rho, "enclosure width", _Floats)
    ratios = [a / b for a, b in zip(ax, x)]
    lo = math.nextafter(float(min(ratios)), -math.inf)
    hi = math.nextafter(float(max(ratios)), math.inf)
    _gate(hi - lo, res.rho, "enclosure width", _Floats)
    return res.rho, lo, hi, res.iterations


# --- verdicts -----------------------------------------------------------------


def enclosure_verdict(lo: float, hi: float) -> str:
    """The verdict on a margin proven to lie in [lo, hi]: 'certified' if
    lo > 0, 'violated' if hi < 0, 'indeterminate' when [lo, hi] holds 0
    (and for NaN). For a difference of two enclosed radii, lo and hi are
    float differences of their ends; for a margin m known up to a slack s,
    they are m - s and m + s. The sign of a float difference is exact."""
    if lo > 0.0:
        return "certified"
    if hi < 0.0:
        return "violated"
    return "indeterminate"

