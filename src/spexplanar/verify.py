"""Inequality checks and parameter sweeps over hub-join families.

Every check returns a VerificationReport whose `holds` field is one of
"certified", "violated", or "indeterminate". Reports are plain data:
re-running a check with the recorded params and tol reproduces the report
byte for byte.

One rule decides `holds`: `spectral.enclosure_verdict(lo, hi)` on an
interval [lo, hi] that holds the margin (`spectral` module docstring).
lemma1, lemma1_pair, lemma2 and argmax compare spectral radii, and decide
on the root stage's proven enclosures lo < rho < hi (`hub_join_radii`):
a strict inequality between two radii is certified when their
enclosures are disjoint the right way round, not by a tolerance. They
read no Perron vector. claim33 and entry_bounds read Perron entries,
which have no enclosure yet, and pass [margin - slack, margin + slack]
with slack 10 * tol to the verdict. claim33 is certified when the
margin clears the slack, violated when it falls below -slack, and
indeterminate in between. entry_bounds has no indeterminate state yet:
it is violated only below -slack, and a margin within the slack is
reported certified.

The checks, by what they establish:

* lemma1   — among hub joins (hubs NOT adjacent) over linear forests of a
             fixed order, moving to a family with fewer parts strictly
             raises the spectral radius.
* lemma2   — with hubs adjacent, merging the two leading paths into one
             path of their combined order minus a fixed tail, plus that
             tail, strictly raises the spectral radius.
* claim33  — scaled Perron-entry differences along the two leading paths
             of the pre-merge join lie in explicit geometric intervals,
             with the strict monotonicity consequences.
* entry_bounds — in a hub join without the hub edge, every forest entry of
             the max-normalized Perron vector lies in
             [2/rho, 2/rho + 8/rho^2] and the hubs carry the max entry 1.
* argmax   — exhaustive sweep of admissible forests (two largest parts
             leave room for the forced cycle length): the conjectured
             head-plus-two-tails forest maximizes rho.

Interval-check indices are guarded by chain length: a difference interval
at index i is derived from the eigenvalue recurrence at interior vertices,
so it is only asserted when the chain extends past i+1 (and the cross
difference only when the second chain has at least 2i vertices). The
report counts any indices skipped by these guards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .families import (LinearForest, _partitions_desc, enumerate_lna,
                       join_edges)
from .graphs import graph6_from_edges
from .spectral import (DEFAULT_TOL, SpectralResult, _hub_join_spectrum,
                       enclosure_verdict, hub_join_radii, hub_join_spectrum)

_WORST = {"certified": 0, "indeterminate": 1, "violated": 2}
_RANK = ["certified", "indeterminate", "violated"]


@dataclass(frozen=True)
class IntervalWitness:
    """One scaled entry-difference and the interval that must contain it."""

    i: int
    value: float
    lo: float
    hi: float
    kind: str   # "A" (positive band) or "B" (symmetric band)
    label: str  # "chain1" | "chain2" | "cross"
    contained: bool

    def as_dict(self) -> dict:
        return {
            "i": self.i, "label": self.label, "kind": self.kind,
            "value": self.value, "lo": self.lo, "hi": self.hi,
            "contained": self.contained,
        }


@dataclass(frozen=True)
class VerificationReport:
    check_id: str
    params: dict
    holds: str
    margins: dict
    artifacts: dict
    tol: float

    def to_json(self) -> str:
        return json.dumps({
            "check_id": self.check_id,
            "params": self.params,
            "holds": self.holds,
            "margins": self.margins,
            "artifacts": self.artifacts,
            "tol": self.tol,
        }, separators=(",", ":"))


def _combine(*states: str) -> str:
    return _RANK[max(_WORST[s] for s in states)] if states else "certified"


def reports_to_csv(reports: Iterable[VerificationReport]) -> str:
    """Long-format margin table: one row per (report, margin)."""
    lines = ["check_id,instance,margin,value,holds"]
    for rep in reports:
        # list parameters as compact JSON; no comma reaches the csv
        inst = " ".join(
            f"{k}={json.dumps(v, separators=(',', ':'))}"
            if isinstance(v, list) else f"{k}={v}"
            for k, v in rep.params.items()).replace(",", ";")
        for name, value in rep.margins.items():
            lines.append(f"{rep.check_id},{inst},{name},{value!r},{rep.holds}")
        if not rep.margins:
            lines.append(f"{rep.check_id},{inst},,,{rep.holds}")
    return "\n".join(lines) + "\n"


def _solved_join(parts: Sequence[int], hub_edge: bool, tol: float
                 ) -> tuple[SpectralResult, str]:
    """The hub join of `parts` solved from its part list (in the join's
    layout) and its graph6 (`_join_graph6`): no graph is built."""
    return (hub_join_spectrum(parts, hub_edge, tol),
            _join_graph6(parts, hub_edge))


def _join_graph6(parts: Sequence[int], hub_edge: bool) -> str:
    """The graph6 of the hub join of `parts`, encoded from its edge rows
    (`families.join_edges`): every join artifact of a report is this
    string, and no graph is built."""
    return graph6_from_edges(sum(parts) + 2, join_edges(parts, hub_edge))


# --- lemma1: family ordering under the part count ---------------------------


def _a_limit(n: int) -> float:
    return math.sqrt(2 * n - 4) / 4.0


def _check_lna(n: int, a: int, parts: Sequence[int], name: str) -> LinearForest:
    lf = LinearForest(tuple(parts))
    if lf.order != n - 2:
        raise ValueError(
            f"{name} has order {lf.order}, need n-2 = {n - 2}")
    if len(lf.parts) != a + 1:
        raise ValueError(
            f"{name} has {len(lf.parts)} parts, need a+1 = {a + 1}")
    return lf


def verify_lemma1(n: int, a1: int, a2: int, l1: Sequence[int],
                  l2: Sequence[int], tol: float = DEFAULT_TOL) -> VerificationReport:
    """Certify rho(join(L2)) > rho(join(L1)) for forests with a2 < a1 parts-1.

    Joins are without the hub edge, solved by the root stage alone and
    compared on their enclosures. Preconditions: n >= 4,
    0 <= a2 < a1 <= sqrt(2n-4)/4, and Li must be an order-(n-2) forest with
    exactly ai+1 parts.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if not 0 <= a2 < a1:
        raise ValueError(f"need 0 <= a2 < a1, got a1={a1}, a2={a2}")
    if a1 > _a_limit(n):
        raise ValueError(
            f"need a1 <= sqrt(2n-4)/4 = {_a_limit(n):.4f}, got a1={a1}")
    lf1 = _check_lna(n, a1, l1, "l1")
    lf2 = _check_lna(n, a2, l2, "l2")
    (rho1, lo1, hi1, _), = hub_join_radii([lf1.parts], False, tol)
    (rho2, lo2, hi2, _), = hub_join_radii([lf2.parts], False, tol)
    g6_1, g6_2 = (_join_graph6(lf.parts, False) for lf in (lf1, lf2))
    return VerificationReport(
        check_id="lemma1",
        params={"n": n, "a1": a1, "a2": a2, "l1": list(lf1.parts),
                "l2": list(lf2.parts), "dominating_edge": False},
        holds=enclosure_verdict(lo2 - hi1, hi2 - lo1),
        margins={"rho_gap": rho2 - rho1, "rho_l1": rho1, "rho_l2": rho2},
        artifacts={"join_l1": g6_1, "join_l2": g6_2},
        tol=tol,
    )


def lemma1_sweep(n: int, tol: float = DEFAULT_TOL) -> list[VerificationReport]:
    """All-pairs family comparison at order n, one report per (a1, a2).

    Encloses rho once per forest (the root stage, no graph built), then
    certifies every (L1, L2) pair in one shot: when the smallest lower end
    over the smaller family exceeds the largest upper end over the larger
    one, every L2 beats every L1.
    """
    if n < 10:  # below 10, sqrt(2n-4)/4 < 1 admits no a1 >= 1
        raise ValueError(f"need n >= 10 for a family pair, got n={n}")
    a_max = int(_a_limit(n))
    fams = [_lna_radii(n, a, tol) for a in range(a_max + 1)]
    return [_lemma1_pair(n, a1, a2, fams[a1], fams[a2], tol)
            for a1 in range(1, a_max + 1) for a2 in range(a1)]


def _lna_radii(n: int, a: int, tol: float
               ) -> list[tuple[float, tuple, float, float]]:
    """(rho, parts, lo, hi) of the hub join (no hub edge) of every forest
    in L_{n,a}: rho and its enclosure."""
    forests = [lf.parts for lf in enumerate_lna(n, a)]
    radii = hub_join_radii(forests, hub_edge=False, tol=tol)
    return [(rho, parts, lo, hi)
            for (rho, lo, hi, _), parts in zip(radii, forests)]


def _lemma1_pair(n: int, a1: int, a2: int, fam1, fam2,
                 tol: float) -> VerificationReport:
    """The lemma1_pair report of (a1, a2) from the two families' radii.

    min rho over L2 lies in [min lo, min hi] and max rho over L1 in
    [max lo, max hi], so their difference is enclosed by differences of
    those ends."""
    hi_rho, hi_parts, _, _ = max(fam1)   # worst L1: largest rho
    lo_rho, lo_parts, _, _ = min(fam2)   # worst L2: smallest rho
    gap = lo_rho - hi_rho
    min_lo2, min_hi2 = min(r[2] for r in fam2), min(r[3] for r in fam2)
    max_lo1, max_hi1 = max(r[2] for r in fam1), max(r[3] for r in fam1)
    return VerificationReport(
        check_id="lemma1_pair",
        params={"n": n, "a1": a1, "a2": a2,
                "pairs": len(fam1) * len(fam2),
                "worst_l1": list(hi_parts), "worst_l2": list(lo_parts),
                "dominating_edge": False},
        holds=enclosure_verdict(min_lo2 - max_hi1, min_hi2 - max_lo1),
        margins={"min_pair_gap": float(gap),
                 "max_rho_l1": float(hi_rho),
                 "min_rho_l2": float(lo_rho)},
        artifacts={"worst_join_l1": _join_graph6(hi_parts, False),
                   "worst_join_l2": _join_graph6(lo_parts, False)},
        tol=tol,
    )


# --- lemma2 and claim33: the merge comparison and its entry intervals -------


def merge_threshold(k: int) -> int:
    return (1 << (k + 8)) + 3


def _outside_hypothesis(n: int, k: int, force: bool) -> bool:
    """True below the order threshold 2^(k+8)+3, where only `force` runs."""
    if n >= merge_threshold(k):
        return False
    if not force:
        raise ValueError(
            f"need n >= 2^(k+8)+3 = {merge_threshold(k)}, got n={n} "
            f"(pass force=True to explore outside the hypothesis)")
    return True


def _validate_merge(n: int, k: int, n1: int, n2: int,
                    l_parts: Sequence[int], force: bool) -> bool:
    """Shared precondition checks; returns outside_hypothesis."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not n1 >= n2 >= k + 2:
        raise ValueError(f"need n1 >= n2 >= k+2 = {k + 2}, "
                         f"got n1={n1}, n2={n2}")
    rest = n - 2 - n1 - n2
    if rest < 0:
        raise ValueError(f"n1+n2 = {n1 + n2} exceeds n-2 = {n - 2}")
    for p in l_parts:
        if p < 1:
            raise ValueError(f"residual part must be >= 1, got {p}")
        if p > n2:
            raise ValueError(f"residual part {p} exceeds n2 = {n2}: "
                             "n1 and n2 must be the two longest paths")
    if sum(l_parts) != rest:
        raise ValueError(
            f"residual forest order {sum(l_parts)} != n-2-n1-n2 = {rest}")
    return _outside_hypothesis(n, k, force)


def _chain_indices(n1: int):
    """Vertex index helpers for layout [hubs, chain1 block, chain2 block, ..]."""
    return (lambda i: 1 + i), (lambda j: 1 + n1 + j)


def _merged_parts(k: int, n1: int, n2: int,
                  l_parts: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted([n1 + n2 - (k + 1), k + 1, *l_parts], reverse=True))


def verify_lemma2(n: int, k: int, n1: int, n2: int,
                  l_parts: Sequence[int] = (), tol: float = DEFAULT_TOL,
                  force: bool = False) -> VerificationReport:
    """Certify that merging the two leading paths raises the spectral radius.

    Compares rho of hubs+P_{n1}+P_{n2}+L against hubs+P_{n1+n2-(k+1)}+P_{k+1}+L
    (hub edge present in both) on their root-stage enclosures, and reads
    no Perron vector. Why the merge raises rho: with rho = t + 1/t and
    u = 1/t, each path sum S_m of the secular equation splits into a part
    linear in the path order m and c * h(m), with c > 0 and
    h(m) = u^m (1 + u) / (1 + u^(m+1)) strictly convex in m at every
    rho > 2. Both joins have the same order and part count and share L,
    so only the h terms of the two merged paths differ. As
    k + 1 < n2 <= n1, (n1+n2-k-1, k+1) strictly majorizes (n1, n2), and
    Karamata's inequality puts the merged join's secular function below
    the pre-merge one, so its root lies above: for every k, every
    residual forest L and either hub state.

    The params t1 = ceil(k/2) and t2 = floor(k/2) + 1 name where the
    merge cuts the chains: chain 1 after its t1-th vertex and chain 2
    after its t2-th; the heads glue into P_{k+1} and the tails into
    P_{n1+n2-(k+1)}.
    """
    outside = _validate_merge(n, k, n1, n2, l_parts, force)
    parts = (n1, n2, *l_parts)
    merged = _merged_parts(k, n1, n2, l_parts)
    before, = hub_join_radii([parts], True, tol)
    after, = hub_join_radii([merged], True, tol)
    return _lemma2(n, k, n1, n2, l_parts, tol, outside, before, after,
                   *(_join_graph6(p, True) for p in (parts, merged)))


def _lemma2(n: int, k: int, n1: int, n2: int, l_parts: Sequence[int],
            tol: float, outside: bool, before, after, before_g6: str,
            after_g6: str) -> VerificationReport:
    rho1, lo1, hi1, _ = before
    rho2, lo2, hi2, _ = after
    params = {"n": n, "k": k, "n1": n1, "n2": n2, "l": list(l_parts),
              "t1": (k + 1) // 2, "t2": k // 2 + 1, "dominating_edge": True}
    if outside:
        params["outside_hypothesis"] = True
    return VerificationReport(
        check_id="lemma2",
        params=params,
        holds=enclosure_verdict(lo2 - hi1, hi2 - lo1),
        margins={"rho_gap": rho2 - rho1, "rho_before": rho1,
                 "rho_after": rho2},
        artifacts={"join_before": before_g6, "join_after": after_g6},
        tol=tol,
    )


def verify_claim33(n: int, k: int, n1: int, n2: int,
                   l_parts: Sequence[int] = (), tol: float = DEFAULT_TOL,
                   force: bool = False
                   ) -> tuple[VerificationReport, list[IntervalWitness]]:
    """Interval containment for scaled Perron-entry differences.

    On the pre-merge join (hub edge present), with x max-normalized and
    rho its spectral radius, checks for each admissible index i:

      part (i):  rho^i (x[c_{i+1}] - x[c_i]) in A_i for both chains,
                 A_i = [2/rho - 8*2^i/rho^2, 2/rho + 8*2^i/rho^2]
      part (ii): rho^i (x[chain1_i] - x[chain2_i]) in B_i,
                 B_i = [-8*2^i/rho^2, 8*2^i/rho^2]

    plus the strict monotonicity consequences (entry steps beat an explicit
    positive bound; chain heads interleave). Index guards: part (i) on a
    chain of order m is checked for i <= min(floor((k+2)/2), m-2); part (ii)
    for i <= min(floor((k+3)/2), floor(n2/2)). Skipped indices are counted
    in params["skipped"].
    """
    outside = _validate_merge(n, k, n1, n2, l_parts, force)
    return _claim33(n, k, n1, n2, l_parts, tol, outside,
                    *_solved_join([n1, n2, *l_parts], True, tol))


def _claim33(n: int, k: int, n1: int, n2: int, l_parts: Sequence[int],
             tol: float, outside: bool, res: SpectralResult, g6: str
             ) -> tuple[VerificationReport, list[IntervalWitness]]:
    rho, x = res.rho, res.vector
    c1, c2 = _chain_indices(n1)

    witnesses: list[IntervalWitness] = []
    margins: dict = {"rho": float(rho)}
    states: list[str] = []
    skipped = 0
    slack_x = 10.0 * tol

    def band(i, value, lo, hi, kind, label, slack):
        value = float(value)
        below, above = value - lo, hi - value
        st = _combine(enclosure_verdict(below - slack, below + slack),
                      enclosure_verdict(above - slack, above + slack))
        states.append(st)
        witnesses.append(IntervalWitness(
            i, value, lo, hi, kind, label, st != "violated"))

    i_max_step = (k + 2) // 2
    i_max_cross = (k + 3) // 2

    for i in range(1, i_max_step + 1):
        scale = rho ** i
        half = 8.0 * (2.0 ** i) / rho ** 2
        for label, cidx, order in (("chain1", c1, n1), ("chain2", c2, n2)):
            if order < i + 2:
                skipped += 1
                continue
            band(i, scale * (x[cidx(i + 1)] - x[cidx(i)]), 2.0 / rho - half,
                 2.0 / rho + half, "A", label, 10.0 * tol * scale)

    for i in range(1, i_max_cross + 1):
        if n2 < 2 * i:
            skipped += 1
            continue
        scale = rho ** i
        half = 8.0 * (2.0 ** i) / rho ** 2
        band(i, scale * (x[c1(i)] - x[c2(i)]), -half, half, "B", "cross",
             10.0 * tol * scale)

    # monotonicity: steps beat an explicit positive bound, heads interleave
    for i in range(1, i_max_step + 1):
        step_bound = 2.0 / rho ** (i + 1) - 8.0 * 2.0 ** i / rho ** (i + 2)
        cross_bound = 2.0 / rho ** (i + 1) - 16.0 * 2.0 ** i / rho ** (i + 2)
        for name, guard, u, v, bound in (
                ("chain1_step", n1 >= i + 2, c1(i + 1), c1(i), step_bound),
                ("chain1_over_chain2", n1 >= i + 2 and n2 >= 2 * i,
                 c1(i + 1), c2(i), cross_bound),
                ("chain2_step", n2 >= i + 2, c2(i + 1), c2(i), step_bound),
                ("chain2_over_chain1", n2 >= i + 2 and n2 >= 2 * i,
                 c2(i + 1), c1(i), cross_bound)):
            if not guard:
                skipped += 1
                continue
            d = float(x[u] - x[v])
            margins[f"{name}_i{i}"] = d - bound
            least = min(d - bound, d)
            states.append(enclosure_verdict(least - slack_x, least + slack_x))

    if witnesses:
        margins["min_band_slack"] = float(min(
            min(w.value - w.lo, w.hi - w.value) for w in witnesses))

    params = {"n": n, "k": k, "n1": n1, "n2": n2, "l": list(l_parts),
              "checked": len(states), "skipped": skipped,
              "dominating_edge": True}
    if outside:
        params["outside_hypothesis"] = True
    report = VerificationReport(
        check_id="claim33",
        params=params,
        holds=_combine(*states),
        margins=margins,
        artifacts={"join": g6},
        tol=tol,
    )
    return report, witnesses


def lemma2_sweep(n: int, k: int, tol: float = DEFAULT_TOL,
                 force: bool = False) -> list[VerificationReport]:
    """Merge + interval checks over every split n1 >= n2 >= k+2 of n-2.

    The residual forest is empty throughout (the two paths carry all of
    n-2), so every split merges into the same join (n-k-3, k+1). One
    `hub_join_radii` batch solves and encloses it and every pre-merge
    join. lemma2 compares those enclosures alone; claim33 reads the Perron
    vector at the pre-merge join's batch row, which is its scalar Newton
    root bit for bit. Each join is encoded once. Returns the lemma2 and
    claim33 reports interleaved per split.
    An n with no split, a negative k, or an n below the order threshold
    without `force` is refused before anything is solved: the first
    split's checks stand for all of them.
    """
    if n - 2 < 2 * (k + 2):
        raise ValueError(f"no split n1 >= n2 >= k+2 = {k + 2} of "
                         f"n-2 = {n - 2}")
    splits = [(n - 2 - n2, n2) for n2 in range(k + 2, (n - 2) // 2 + 1)]
    outside = _validate_merge(n, k, *splits[0], (), force)
    merged = _merged_parts(k, *splits[0], ())
    after, *befores = hub_join_radii([merged, *splits], True, tol)
    after_g6 = _join_graph6(merged, True)
    reports = []
    for (n1, n2), before in zip(splits, befores):
        before_g6 = _join_graph6((n1, n2), True)
        res = _hub_join_spectrum((n1, n2), True, before[0], before[3], tol)
        reports.append(_lemma2(n, k, n1, n2, (), tol, outside, before, after,
                               before_g6, after_g6))
        reports.append(_claim33(n, k, n1, n2, (), tol, outside, res,
                                before_g6)[0])
    return reports


# --- entry bounds ------------------------------------------------------------


def verify_entry_bounds(n: int, parts: Sequence[int],
                        tol: float = DEFAULT_TOL) -> VerificationReport:
    """Forest entries of the hub join (no hub edge) sit in
    [2/rho, 2/rho + 8/rho^2]; hubs carry the max entry 1."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    lf = LinearForest(tuple(parts))
    if lf.order != n - 2:
        raise ValueError(f"forest order {lf.order} != n-2 = {n - 2}")
    res, g6 = _solved_join(lf.parts, False, tol)
    rho, x = res.rho, res.vector
    lo = 2.0 / rho
    hi = 2.0 / rho + 8.0 / rho ** 2
    slack = 10.0 * tol
    forest = x[2:]
    lower_slack = float(forest.min() - lo)
    upper_slack = float(hi - forest.max())
    hub_dev = float(max(abs(x[0] - 1.0), abs(x[1] - 1.0)))
    ok = all(enclosure_verdict(m - slack, m + slack) != "violated"
             for m in (lower_slack, upper_slack, -hub_dev))
    return VerificationReport(
        check_id="entry_bounds",
        params={"n": n, "parts": list(lf.parts), "dominating_edge": False},
        holds="certified" if ok else "violated",
        margins={"rho": float(rho), "lower_slack": lower_slack,
                 "upper_slack": upper_slack, "hub_dev": hub_dev},
        artifacts={"join": g6},
        tol=tol,
    )


def entry_bounds_sample(count: int, n_lo: int, n_hi: int, seed: int,
                        tol: float = DEFAULT_TOL) -> list[VerificationReport]:
    """Entry-bound checks on `count` seeded random (n, forest) draws."""
    if count < 1 or not 4 <= n_lo <= n_hi:
        raise ValueError(f"need count >= 1 and 4 <= n_lo <= n_hi, got "
                         f"count={count}, n_lo={n_lo}, n_hi={n_hi}")
    import random
    rng = random.Random(seed)
    reports = []
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        remaining = n - 2
        parts = []
        while remaining:
            p = rng.randint(1, remaining)
            parts.append(p)
            remaining -= p
        reports.append(verify_entry_bounds(n, parts, tol))
    return reports


# --- argmax sweep -------------------------------------------------------------


def admissible_forests(n: int, k: int, max_parts: int) -> list[tuple[int, ...]]:
    """Forest part lists of order n-2 with <= max_parts parts whose two
    largest parts sum to at most n-k-3 (so the join misses a cycle length
    in [3, n-k]). Deterministic order: by part count, then reverse-lex."""
    out = []
    for t in range(1, max_parts + 1):
        for parts in _partitions_desc(n - 2, t, n - 2):
            n1 = parts[0]
            n2 = parts[1] if t > 1 else 0
            if n1 + n2 <= n - k - 3:
                out.append(tuple(parts))
    return out


@dataclass(frozen=True)
class ArgmaxSweepResult:
    report: VerificationReport
    rows: tuple[tuple, ...] = field(repr=False)  # (parts, rho, lo, hi, iters)

    def rows_jsonl(self) -> str:
        lines = []
        for parts, rho, lo, hi, iters in self.rows:
            lines.append(json.dumps({
                "parts": list(parts), "rho": rho, "rho_lo": lo, "rho_hi": hi,
                "iterations": iters,
            }, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def rows_csv(self) -> str:
        lines = ["parts,rho,rho_lo,rho_hi,iterations"]
        for parts, rho, lo, hi, iters in self.rows:
            lines.append(f"\"{' '.join(map(str, parts))}\",{rho!r},{lo!r},"
                         f"{hi!r},{iters}")
        return "\n".join(lines) + "\n"


def argmax_sweep(n: int, k: int, max_parts: int = 3,
                 tol: float = DEFAULT_TOL,
                 force: bool = False) -> ArgmaxSweepResult:
    """Find the admissible forest maximizing rho of its hub join (hub edge
    present), and certify uniqueness of the maximum.

    Every candidate is enclosed by the root stage on its part list
    (`hub_join_radii`, no graph built), and rows come back in enumeration
    order. The leader has the largest rho. Its ties are the candidates
    whose upper end reaches the leader's lower end, the leader included.
    holds is `enclosure_verdict` on the float differences of the ends of
    the leader's and its rivals' enclosures: certified (the leader ties
    alone, or is the lone candidate) or indeterminate. The argmax join's
    artifact is encoded from its part list.
    """
    if max_parts < 3:
        raise ValueError(f"max_parts must be >= 3, got {max_parts}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    outside = _outside_hypothesis(n, k, force)
    cands = admissible_forests(n, k, max_parts)
    if not cands:
        raise ValueError(f"no admissible forests for n={n}, k={k}, "
                         f"max_parts={max_parts}")
    rows = [(parts, *solved) for parts, solved
            in zip(cands, hub_join_radii(cands, hub_edge=True, tol=tol))]

    best = max(rows, key=lambda r: r[1])
    ties = [r[0] for r in rows if r[3] >= best[2]]
    others = [r for r in rows if r is not best]
    expected = (n - 2 * k - 4, k + 1, k + 1)
    params = {"n": n, "k": k, "max_parts": max_parts,
              "candidates": len(rows), "argmax": list(best[0]),
              "expected": list(expected),
              "matches_expected": tuple(best[0]) == expected,
              "ties": [list(t) for t in ties], "dominating_edge": True}
    if outside:
        params["outside_hypothesis"] = True
    margins = {"rho_max": float(best[1])}
    holds = "certified"
    if others:  # a lone candidate has no runner-up to measure a gap to
        margins["runner_up_gap"] = float(best[1] - max(r[1] for r in others))
        margins["enclosure_gap"] = float(best[2] - max(r[3] for r in others))
        holds = enclosure_verdict(margins["enclosure_gap"],
                                  best[3] - max(r[2] for r in others))
    report = VerificationReport(
        check_id="argmax",
        params=params,
        holds=holds,
        margins=margins,
        artifacts={"argmax_join": _join_graph6(best[0], True)},
        tol=tol,
    )
    return ArgmaxSweepResult(report, tuple(rows))


# --- re-running reports --------------------------------------------------------


def rerun(report: VerificationReport) -> VerificationReport:
    """Recompute a report from its own recorded params at its recorded tol.

    Certified reports must reproduce byte for byte; this is the
    self-containment contract for everything the verifier emits.
    """
    p = report.params
    force = bool(p.get("outside_hypothesis", False))
    if report.check_id == "lemma1":
        return verify_lemma1(p["n"], p["a1"], p["a2"], p["l1"], p["l2"],
                             report.tol)
    if report.check_id == "lemma2":
        return verify_lemma2(p["n"], p["k"], p["n1"], p["n2"], tuple(p["l"]),
                             report.tol, force)
    if report.check_id == "claim33":
        rep, _ = verify_claim33(p["n"], p["k"], p["n1"], p["n2"],
                                tuple(p["l"]), report.tol, force)
        return rep
    if report.check_id == "entry_bounds":
        return verify_entry_bounds(p["n"], p["parts"], report.tol)
    if report.check_id == "lemma1_pair":
        n, a1, a2 = p["n"], p["a1"], p["a2"]
        if n < 4 or not 0 <= a2 < a1 <= _a_limit(n):
            raise ValueError(f"pair (a1={a1}, a2={a2}) not in sweep")
        return _lemma1_pair(n, a1, a2, _lna_radii(n, a1, report.tol),
                            _lna_radii(n, a2, report.tol), report.tol)
    if report.check_id == "argmax":
        return argmax_sweep(p["n"], p["k"], p["max_parts"], report.tol,
                            force=force).report
    raise ValueError(f"cannot rerun reports of kind {report.check_id!r}")
