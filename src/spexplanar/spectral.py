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
* Everything else takes one dense symmetric solve: the all-ones vector on
  regular graphs (an exact eigenvector there), otherwise the top
  eigenvector of `numpy.linalg.eigh`, max-normalized. Its residual is
  O(u ||A||) by backward stability; above `tol` it raises
  ConvergenceError, above DENSE_MAX_ORDER vertices ValueError at once.

A hub join is solved from its part list in one or two stages:

* The root stage: Newton's root, then a proof that rho lies in a float
  interval [lo, hi]. f is continuous and increasing above 2, so
  f(lo) < 0 < f(hi) puts its one root there, and each sign is read off an
  interval that holds f at that float point. That interval comes from
  IEEE +, -, *, / and sqrt, each rounded result moved one ulp outward
  with nextafter: running-error interval arithmetic (Rump, "Verification
  methods: Rigorous results using floating-point arithmetic", Acta
  Numerica 19, 2010). [lo, hi] starts ENCLOSE_ULPS ulps either side of
  the Newton root and doubles until the signs hold; once hi - lo passes
  tol * max(1, rho) the solve raises ConvergenceError. It costs
  O(distinct part orders) per join, and it is all that `hub_join_radii`
  runs (every radius gap, and `spex rho` without --emit-vector).
* The vector stage (`_hub_join_spectrum`): the scalar Newton root, the
  Perron entries in closed form per path block and their residual
  ||Ax - rho x||_inf from the join's structure, in 1-D arrays with the
  paths longest first, then scattered once into block order; above `tol`
  it raises ConvergenceError. It costs O(n), and only `hub_join_spectrum`
  and `spectral_radius` run it, with no enclosure.

Each formula of the root stage is written once: f with f' (`_secular`)
and the outward-rounded bound on f (`_secular_bound`). Each kernel is
generic in its number type: Python floats for one join (`_Floats`), float
arrays with one entry per join for a batch (`_Arrays`). The type supplies
only sqrt, nextafter, max, a select (for a batch's zero-count padding)
and u^m by repeated squaring; math.sqrt and math.nextafter round like
np.sqrt and np.nextafter, so a join gets the same bits alone and in any
batch. Two drivers hold the control flow, picked by row count alone: one
row takes `_secular_root` and `_enclose_root`, more rows (all of a call
in one batch) `_secular_roots` and `_enclose_roots`. They return the same
rho, Newton steps, lo and hi bit for bit. Below SECULAR_ORDER both
stages build the join and let `spectral_radius` pick the engine, and the
root stage encloses that rho by Collatz-Wielandt bounds on its Perron
vector; from SECULAR_ORDER on every join is recognized. So every entry
point gives a join the same rho and Newton steps bit for bit, and every
root-stage entry point the same enclosure.

One function gives every verdict, `enclosure_verdict(lo, hi)` on an
interval [lo, hi] that holds a margin: certified when lo > 0, violated
when hi < 0, indeterminate when it holds 0. Every gap between two radii
is decided on the float differences of their root-stage enclosures'
ends: a proof, up to the correctness of IEEE rounding. Margins on Perron
entries (claim33, entry bounds) have no enclosure yet and pass
[margin - slack, margin + slack], slack 10 * tol (times rho^i on a band
scaled by rho^i): a margin within it is indeterminate, never rounded.
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

DEFAULT_TOL = 1e-12
NEWTON_STOP = 1e-14   # relative Newton step at which the root is taken
NEWTON_CAP = 100      # Newton steps before the residual decides (<= 6 seen)
ENCLOSE_ULPS = 8      # first half-width of a root enclosure, in ulps of rho
SECULAR_ORDER = 7     # join order from which the part list alone picks secular
DENSE_MAX_ORDER = 5000  # P5000 peaks at 1.0 GB RSS in eigh (16 s, 2 cores)


class DisconnectedGraphError(ValueError):
    """spectral_radius only accepts connected graphs."""


class ConvergenceError(RuntimeError):
    """A solve that misses `tol`: by the residual of its Perron vector, or
    by the width of its root enclosure (`measure`)."""

    def __init__(self, value: float, tol: float, measure: str = "residual"):
        super().__init__(f"{measure} {value:.3e} misses tol {tol:.1e}")
        self.value = value
        self.tol = tol
        self.measure = measure


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


def spectral_radius(g: Graph, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Largest adjacency eigenvalue of a connected graph, with Perron vector.

    Deterministic: hub joins take the secular engine, everything else the
    dense solve. Raises DisconnectedGraphError on disconnected input,
    ValueError above DENSE_MAX_ORDER on the dense route, and
    ConvergenceError if the residual of either solve misses `tol`.
    """
    if g.n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    hub = recognize_hub_join(g)
    if hub is None:
        if not g.is_connected():
            raise DisconnectedGraphError(
                f"graph with {g.n} vertices is not connected")
        return _dense_solve(g, tol)
    hub1, hub2, paths, hub_edge = hub
    res = _hub_join_spectrum([len(p) for p in paths], hub_edge, tol)
    # res.vector has the recognized paths as its blocks, in order
    x = np.empty(g.n)
    x[[hub1, hub2]] = res.vector[:2]
    x[np.fromiter(chain.from_iterable(paths), np.int64, g.n - 2)] = \
        res.vector[2:]
    return replace(res, vector=x)


def _dense_solve(g: Graph, tol: float) -> SpectralResult:
    if g.n > DENSE_MAX_ORDER:
        raise ValueError(f"dense solve of {g.n} vertices exceeds "
                         f"DENSE_MAX_ORDER {DENSE_MAX_ORDER}")
    a = adjacency_matrix(g)
    x = np.ones(g.n)
    z = a @ x
    if z.min() < z.max():
        # not regular: the all-ones residual max|deg - mean deg| is >= 1/2
        x = np.abs(np.linalg.eigh(a)[1][:, -1])
        x = x / x.max()
        z = a @ x
    rho = float(x @ z) / float(x @ x)
    resid = float(np.max(np.abs(z - rho * x)))
    if resid > tol:
        raise ConvergenceError(resid, tol)
    return SpectralResult(rho, x, resid, 1, "dense")


# --- the secular engine for hub joins ----------------------------------------
#
# Each formula is written once, over a forest's groups: its distinct path
# orders in decreasing order, each with how many paths have it (grouping
# keeps the sum over paths short, so its rounding stays far below tol on
# forests of thousands of paths). One forest's groups are int pairs
# (`_part_groups`) and its values Python floats (`_Floats`). A batch is a
# pair of int arrays (m, cnt) of shape (B, P), one forest per row,
# zero-padded (`_part_matrix`); its groups are the columns (`_columns`)
# and its values float arrays of shape (B,) (`_Arrays`). Only +, -, *, /
# and sqrt act on a value, each elementwise and correctly rounded in both
# types, and the groups are summed left to right, so a forest's result
# does not depend on the batch it is computed in, nor on whether it is
# computed alone.


def _part_groups(parts: Sequence[int]) -> list[tuple[int, int]]:
    """One forest's (path order, count) pairs, longest path first."""
    counts: dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    return sorted(counts.items(), reverse=True)


def _part_matrix(groups: Sequence[Sequence[tuple[int, int]]]
                 ) -> tuple[np.ndarray, np.ndarray]:
    m = np.zeros((len(groups), max(map(len, groups))), dtype=np.int64)
    cnt = np.zeros_like(m)
    for row, grp in enumerate(groups):
        m[row, :len(grp)], cnt[row, :len(grp)] = zip(*grp)
    return m, cnt


def _columns(m: np.ndarray, cnt: np.ndarray
             ) -> list[tuple[np.ndarray, np.ndarray]]:
    """A batch's groups: the columns of (m, cnt), longest path first."""
    return list(zip(m.T, cnt.T))


class _Floats:
    """The number type of one forest: Python floats."""

    sqrt = staticmethod(math.sqrt)
    nextafter = staticmethod(math.nextafter)
    max = staticmethod(max)

    @staticmethod
    def select(keep, a, b):
        return a if keep else b

    @staticmethod
    def pow(base, expo, rnd=None):
        """base ** expo by repeated squaring, `rnd` (if given) applied to
        each product."""
        out = 1.0
        while expo:
            if expo & 1:
                out = out * base if rnd is None else rnd(out * base)
            base = base * base if rnd is None else rnd(base * base)
            expo >>= 1
        return out


class _Arrays:
    """The number type of a batch: float arrays with one entry per row.
    np.sqrt and np.nextafter round like math.sqrt and math.nextafter."""

    sqrt = staticmethod(np.sqrt)
    nextafter = staticmethod(np.nextafter)
    max = staticmethod(np.maximum)
    select = staticmethod(np.where)

    @staticmethod
    def pow(base, expo, rnd=None):
        """`_Floats.pow` per row, to that row's exponent: a digit above a
        row's highest leaves its power as it is."""
        out = np.ones_like(base)
        for digit in range(int(expo.max()).bit_length()):
            prod = out * base if rnd is None else rnd(out * base)
            out = np.where((expo >> digit) & 1 == 1, prod, out)
            base = base * base if rnd is None else rnd(base * base)
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


def _secular_roots(m: np.ndarray, cnt: np.ndarray, e: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(rho, Newton steps) per row.

    Starts from the root for all-singleton parts, (e + sqrt(e^2 + 8M))/2
    with M the forest order, a lower bound by subgraph monotonicity. f is
    increasing and concave above 2, so the iterates rise to the root while
    f < 0: a row is done once f >= 0 (rounding noise at the root) or the
    step falls below NEWTON_STOP relative, or after NEWTON_CAP steps. The
    start is above 2 on every join `recognize_hub_join` accepts (not K3
    or C4 = K_{2,2}, whose start is 2) and from SECULAR_ORDER on.
    """
    rho = (e + np.sqrt(e * e + 8.0 * (m * cnt).sum(axis=1))) / 2.0
    steps = np.zeros(len(rho), dtype=np.int64)
    active = np.ones(len(rho), dtype=bool)
    for _ in range(NEWTON_CAP):
        rows = np.flatnonzero(active)
        if not len(rows):
            break
        f, df = _secular(_columns(m[rows], cnt[rows]), rho[rows], e, _Arrays)
        step = f / df
        rho[rows] = rho[rows] - step
        steps[rows] += 1
        done = (step >= 0.0) | (-step <= NEWTON_STOP * rho[rows])
        active[rows[done]] = False
    return rho, steps


def _secular_root(groups: Sequence[tuple[int, int]], e: float
                  ) -> tuple[float, int]:
    """(rho, Newton steps) of one forest: `_secular_roots` on a batch of
    that one row, bit for bit, with `_secular` in `_Floats` and the same
    start and stopping rule (NEWTON_STOP and NEWTON_CAP included)."""
    rho = (e + math.sqrt(e * e + 8.0 * sum(m * k for m, k in groups))) / 2.0
    steps = 0
    for _ in range(NEWTON_CAP):
        f, df = _secular(groups, rho, e, _Floats)
        step = f / df
        rho = rho - step
        steps += 1
        if step >= 0.0 or -step <= NEWTON_STOP * rho:
            break
    return rho, steps


def _hub_join_spectrum(parts: Sequence[int], hub_edge: bool, tol: float
                       ) -> SpectralResult:
    """The vector stage of join_with_paths(parts, hub_edge): the scalar
    Newton root, the Perron vector in that layout and the residual gate,
    which raises ConvergenceError unless the residual is at most `tol`
    (NaN is not). No other solver runs, and no enclosure."""
    e = float(hub_edge)
    rho, steps = _secular_root(_part_groups(parts), e)
    # paths longest first: the residual's sums round in this order
    p = np.asarray(parts, dtype=np.int64)
    order = np.argsort(-p, kind="stable")
    span = p[order]
    part = np.repeat(span, span)
    idx = np.arange(len(part)) + 1 - np.repeat(np.cumsum(span) - span, span)
    y = _forest_entries(idx, part, rho)
    resid = _join_residual(y, idx, part, rho, e)
    if not resid <= tol:
        raise ConvergenceError(resid, tol)
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


def hub_join_spectrum(parts: Sequence[int], hub_edge: bool,
                      tol: float = DEFAULT_TOL) -> SpectralResult:
    """`spectral_radius(join_with_paths(parts, hub_edge), tol)`, bit for
    bit, from the part list: the Perron vector is in that join's layout.

    From SECULAR_ORDER on no forest vertex (degree <= 4) reaches the hub
    degree n - 2, so `recognize_hub_join` accepts every join and
    `spectral_radius` would take the secular solve done here, which
    certifies `tol` or raises ConvergenceError. Below that order the join
    is built and `spectral_radius` picks the solver. A part below 1, or a
    join above `graphs.MAX_SIZE` vertices plus edges, is a ValueError.
    """
    if join_order(parts, hub_edge) + 2 < SECULAR_ORDER:
        return spectral_radius(join_with_paths(parts, hub_edge), tol)
    return _hub_join_spectrum(parts, hub_edge, tol)


def hub_join_radii(forests: Sequence[Sequence[int]], hub_edge: bool,
                   tol: float = DEFAULT_TOL
                   ) -> list[tuple[float, float, float, int]]:
    """(rho, lo, hi, Newton steps) of the hub join of each forest: the
    root stage alone, with lo < rho < hi proven for the join's spectral
    radius rho (module docstring).

    All forests must have the same order. From SECULAR_ORDER on, one
    forest takes the scalar root and enclosure, more go through the numpy
    ones in a single batch, and no graph is built; below it each forest
    is `_small_join_radius`. rho and the steps are those of
    `hub_join_spectrum`. Raises ConvergenceError once an enclosure gets
    wider than tol * max(1, rho).
    """
    if len({sum(parts) for parts in forests}) > 1:
        raise ValueError("hub_join_radii needs forests of a single order")
    if not forests:
        return []
    if sum(forests[0]) + 2 < SECULAR_ORDER:
        return [_small_join_radius(parts, hub_edge, tol) for parts in forests]
    for p in chain.from_iterable(forests):
        if p < 1:
            raise ValueError(f"path order must be >= 1, got {p}")
    e = float(hub_edge)
    if len(forests) == 1:
        groups = _part_groups(forests[0])
        rho, steps = _secular_root(groups, e)
        return [(rho, *_enclose_root(groups, rho, e, tol), steps)]
    m, cnt = _part_matrix([_part_groups(parts) for parts in forests])
    rho, steps = _secular_roots(m, cnt, e)
    lo, hi = _enclose_roots(m, cnt, rho, e, tol)
    return list(zip(rho.tolist(), lo.tolist(), hi.tolist(),
                    steps.tolist()))


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
        um = num.pow(u, m, r)
        w1 = q(2.0 * q(1.0 - um) / r(tm * r(1.0 + r(um * u))))
        s = num.select(k > 0, r(s + r(k * r(c * r(m - w1)))), s)
    return q(q(rho - e) - 2.0 * s)


def _check_width(lo: float, hi: float, rho: float, tol: float) -> None:
    """Raise ConvergenceError if [lo, hi] is wider than tol * max(1, rho)
    (or NaN)."""
    if not hi - lo <= tol * max(1.0, rho):
        raise ConvergenceError(hi - lo, tol, "enclosure width")


def _enclose_root(groups: Sequence[tuple[int, int]], rho: float, e: float,
                  tol: float) -> tuple[float, float]:
    """(lo, hi) around one forest's Newton root `rho` with f(lo) < 0 < f(hi)
    proven by `_secular_bound` in `_Floats`: ENCLOSE_ULPS ulps of rho
    either side, doubled until the signs hold, or ConvergenceError from
    `_check_width`. `_enclose_roots` is this on a batch, bit for bit."""
    half = ENCLOSE_ULPS * math.ulp(rho)
    while True:
        lo, hi = rho - half, rho + half
        _check_width(lo, hi, rho, tol)
        if (lo > 2.0
                and _secular_bound(groups, lo, e, -math.inf, _Floats) < 0.0
                < _secular_bound(groups, hi, e, math.inf, _Floats)):
            return lo, hi
        half *= 2.0


def _enclose_roots(m: np.ndarray, cnt: np.ndarray, rho: np.ndarray, e: float,
                   tol: float) -> tuple[np.ndarray, np.ndarray]:
    """`_enclose_root` per row of a batch: a row whose signs hold is done,
    the others double."""
    lo, hi = np.empty_like(rho), np.empty_like(rho)
    half = ENCLOSE_ULPS * np.spacing(rho)
    rows = np.arange(len(rho))
    # a row whose lo is at most 2 fails, as in the scalar loop, whatever
    # its (then meaningless) bounds come to
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(rows):
            a, b = rho[rows] - half[rows], rho[rows] + half[rows]
            wide = ~(b - a <= tol * np.maximum(1.0, rho[rows]))
            if wide.any():  # `_check_width`, row by row
                raise ConvergenceError(float((b - a)[wide][0]), tol,
                                       "enclosure width")
            cols = _columns(m[rows], cnt[rows])
            ok = ((a > 2.0)
                  & (_secular_bound(cols, a, e, -np.inf, _Arrays) < 0.0)
                  & (_secular_bound(cols, b, e, np.inf, _Arrays) > 0.0))
            lo[rows[ok]], hi[rows[ok]] = a[ok], b[ok]
            rows = rows[~ok]
            half[rows] *= 2.0
    return lo, hi


def _small_join_radius(parts: Sequence[int], hub_edge: bool, tol: float
                       ) -> tuple[float, float, float, int]:
    """The root stage below SECULAR_ORDER: `hub_join_spectrum` of the built
    join, its rho enclosed by Collatz-Wielandt bounds on its Perron vector
    x > 0 (for a connected graph, min_v (Ax)_v / x_v <= rho <= max_v
    (Ax)_v / x_v), in exact rationals, rounded outward."""
    from fractions import Fraction  # only these few joins need it
    res = hub_join_spectrum(parts, hub_edge, tol)
    x = [Fraction(v) for v in res.vector.tolist()]
    ax = [Fraction(0)] * len(x)
    for u, v in join_edges(parts, hub_edge).tolist():
        ax[u] += x[v]
        ax[v] += x[u]
    if min(x) <= 0:
        raise ConvergenceError(math.inf, tol, "enclosure width")
    ratios = [a / b for a, b in zip(ax, x)]
    lo = math.nextafter(float(min(ratios)), -math.inf)
    hi = math.nextafter(float(max(ratios)), math.inf)
    _check_width(lo, hi, res.rho, tol)
    return res.rho, lo, hi, res.iterations


def edge_quotient(edges: np.ndarray, x: np.ndarray) -> float:
    """The Rayleigh quotient at x of the graph whose edges are the rows
    (u, v) of `edges`. The terms x_u x_v are added to 0.0 one at a time in
    row order (`np.cumsum` is sequential), so sorted rows give the bits of
    a loop over `Graph.edges`."""
    denom = float(x @ x)
    if denom == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    terms = np.concatenate(([0.0], x[edges[:, 0]] * x[edges[:, 1]]))
    return 2.0 * float(np.cumsum(terms)[-1]) / denom


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

