"""Inequality checks and parameter sweeps over hub-join families.

Every check returns a VerificationReport whose `holds` field is one of
"certified", "violated", or "indeterminate". Reports are plain data:
a report is a function of its check_id and params, and re-running the
check with the recorded params reproduces it byte for byte.

One rule decides `holds`: `kernel.enclosure_verdict(lo, hi)` on an
interval [lo, hi] that holds the margin (`kernel` module docstring).
Every check starts from the root stage's proven enclosure lo < rho < hi
(`hub_join_radii`) and reads no Perron vector. lemma1, lemma1_pair,
lemma2 and argmax compare spectral radii: a strict inequality between
two radii is certified when their enclosures are disjoint the right way
round, not by a tolerance. claim33 and entry_bounds read a few Perron
entries in closed form (`kernel._closed_forms`), each bounded over
[lo, hi], and decide each margin on the outward-rounded sums of those
bounds (`_margin`): certified, violated, or indeterminate when the
enclosure holds 0. Each reported margin is its float at rho.

The checks, by what they establish:

* lemma1   — among hub joins (hubs NOT adjacent) over linear forests of a
             fixed order, moving to a family with fewer parts strictly
             raises the spectral radius. A family pair is decided by two
             joins, not by enumeration: within L_{n,a} the secular
             functions differ by c * sum h over the parts (c > 0, h
             strictly convex), a strictly Schur-convex sum, so the most
             spread forest has the largest rho and the most balanced the
             smallest (`lemma1_sweep`).
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

Interval-check indices are guarded by chain length, so that every entry
read lies in the first half of its path: a step x[c_{i+1}] - x[c_i] is
asserted only when the chain has at least 2i+1 vertices, so the step lies
before the middle pair (on 2i vertices it is the middle pair of a
symmetric path, and exactly 0), and an entry x[c_i] only when the chain
has at least 2i vertices (the cross difference, and the other chain's
head in the interleaving checks). The report counts any indices skipped
by these guards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .families import LinearForest, lna_sizes, part_counts, partitions
from .graphs import MAX_CANDIDATES, check_size, graph6_header, pack_graph6
from .kernel import _closed_forms, _forms_toward, enclosure_verdict
from .spectral import hub_join_radii, hub_join_radii_arrays

TIES_SHOWN = 8  # tied candidates an argmax report lists; it counts them all
_WORST = {"certified": 0, "indeterminate": 1, "violated": 2}
_RANK = ["certified", "indeterminate", "violated"]


@dataclass(frozen=True)
class IntervalWitness:
    """One scaled entry-difference and the interval that must contain it,
    its fields in the key order of the witness line that `spex verify
    claim33` prints (`as_dict`)."""

    i: int
    label: str  # "chain1" | "chain2" | "cross"
    kind: str   # "A" (positive band) or "B" (symmetric band)
    value: float
    lo: float
    hi: float
    contained: bool

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class VerificationReport:
    check_id: str
    params: dict
    holds: str
    margins: dict
    artifacts: dict

    def to_json(self) -> str:
        return json.dumps({
            "check_id": self.check_id,
            "params": self.params,
            "holds": self.holds,
            "margins": self.margins,
            "artifacts": self.artifacts,
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


def _check_join_size(n: int, parts: int, hub_edge: bool) -> None:
    """Refuse a check at order n, before anything is listed or solved, when
    its join with `parts` paths (at most n - 2) lies above the size
    ceiling, where its graph6 artifact could not be encoded
    (`families.join_order`)."""
    check_size(n, 3 * (n - 2) - min(parts, n - 2) + hub_edge)


# (N, graph6 body) of K2 v P_{N-2} without the hub edge, for the largest
# order N encoded so far (`_join_graph6`)
_template: tuple[int, bytes] = (0, b"")


def _join_graph6(parts: Sequence[int], hub_edge: bool) -> str:
    """The graph6 of the hub join of `parts`, in the block layout given
    (`families.join_with_paths`), written from the part list with no
    graph built: every join artifact of a report is this string.

    It is K2 v P_{n-2} with the hub edge's bit 0 set when present and,
    at each block start b but the first, the path edge (b - 1, b)'s bit
    T(b) + b - 1 cleared, T(b) = b(b-1)/2. graph6 lists the triangle
    column by column, so that body is the first T(n) bits of the
    template's (`_template`), padding cleared. The bits are edited in its
    bytes, group g as the byte g + 63: a clear bit is added, a set one
    subtracted. A larger order writes a new template, column j holding
    the hub bits T(j), T(j) + 1 and the path bit T(j) + j - 1."""
    global _template
    n = sum(parts) + 2
    top, body = _template  # one read: a call sees one template throughout
    if n > top:
        groups = bytearray((n * (n - 1) // 2 + 5) // 6)
        t = 1  # T(j)
        for j in range(2, n):  # at j = 2 the path bit is the second hub bit
            groups[t // 6] |= 32 >> t % 6
            groups[(t + 1) // 6] |= 32 >> (t + 1) % 6
            groups[(t + j - 1) // 6] |= 32 >> (t + j - 1) % 6
            t += j
        body = pack_graph6(n, groups)[-len(groups):]
        _template = n, body
    bits = n * (n - 1) // 2
    size = (bits + 5) // 6
    out = bytearray(graph6_header(n))
    head = len(out)
    out += memoryview(body)[:size]
    pad = 6 * size - bits
    out[-1] = 63 + ((out[-1] - 63) >> pad << pad)
    out[head] += 32 * hub_edge
    b = 2
    for p in parts[:-1]:
        b += p
        k = b * (b + 1) // 2 - 1  # T(b) + b - 1
        out[head + k // 6] -= 32 >> k % 6
    return out.decode("ascii")


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
                  l2: Sequence[int]) -> VerificationReport:
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
    _check_join_size(n, a2 + 1, False)
    if a1 > _a_limit(n):
        raise ValueError(
            f"need a1 <= sqrt(2n-4)/4 = {_a_limit(n):.4f}, got a1={a1}")
    lf1 = _check_lna(n, a1, l1, "l1")
    lf2 = _check_lna(n, a2, l2, "l2")
    (rho1, lo1, hi1, _), (rho2, lo2, hi2, _) = hub_join_radii(
        [lf1.parts, lf2.parts], False)
    g6_1, g6_2 = (_join_graph6(lf.parts, False) for lf in (lf1, lf2))
    return VerificationReport(
        check_id="lemma1",
        params={"n": n, "a1": a1, "a2": a2, "l1": list(lf1.parts),
                "l2": list(lf2.parts), "dominating_edge": False},
        holds=enclosure_verdict(lo2 - hi1, hi2 - lo1),
        margins={"rho_gap": rho2 - rho1, "rho_l1": rho1, "rho_l2": rho2},
        artifacts={"join_l1": g6_1, "join_l2": g6_2},
    )


def lemma1_sweep(n: int) -> list[VerificationReport]:
    """All-pairs family comparison at order n, one report per (a1, a2).

    Each family pair is decided by two extreme joins, with no enumeration.
    With rho = t + 1/t and u = 1/t, each path sum S_m of the secular equation
    splits into a part linear in the path order m and c * h(m), with
    c > 0 and h(m) = u^m (1 + u) / (1 + u^(m+1)) strictly convex in m at
    every rho > 2 (`verify_lemma2`). The forests of L_{n,a} share their
    order and part count, so their secular functions differ only in
    c * sum h over the parts, and sum h is strictly Schur-convex
    (Marshall, Olkin and Arnold, Inequalities: Theory of Majorization,
    ch. 3). A forest that majorizes another has the larger sum, hence the
    smaller secular function and the larger root. The most spread forest
    T_a = (n-2-a, 1, ..., 1) majorizes every member of L_{n,a}, and the
    most balanced B_a (parts ceil and floor of (n-2)/(a+1)) is majorized
    by every member: T_a has the largest rho in its family and B_a the
    smallest. So rho(B_a2) > rho(T_a1), decided on the two enclosures,
    covers every pair of L_{n,a2} x L_{n,a1}.
    """
    if n < 10:  # below 10, sqrt(2n-4)/4 < 1 admits no a1 >= 1
        raise ValueError(f"need n >= 10 for a family pair, got n={n}")
    _check_join_size(n, 1, False)
    a_max = int(_a_limit(n))
    return list(_lemma1_pairs(n, [(a1, a2) for a1 in range(1, a_max + 1)
                                  for a2 in range(a1)]))


def _lemma1_pairs(n: int, pairs: Sequence[tuple[int, int]]
                  ) -> Iterator[VerificationReport]:
    """The lemma1_pair reports of `pairs`, each (a1, a2) decided on T_a1
    and B_a2 (`lemma1_sweep`), all enclosed in one batch."""
    sizes = lna_sizes(n, max(a1 for a1, _ in pairs))
    # B_a2's parts floor((n-2+i)/(a2+1)), i = a2..0, sum to n-2 (Hermite)
    ends = [((n - 2 - a1,) + (1,) * a1,
             tuple((n - 2 + i) // (a2 + 1) for i in range(a2, -1, -1)))
            for a1, a2 in pairs]
    forests = list(dict.fromkeys(f for end in ends for f in end))
    rows = {f: (rho, lo, hi, _join_graph6(f, False)) for f, (rho, lo, hi, _)
            in zip(forests, hub_join_radii(forests, False))}
    for (a1, a2), (top, bottom) in zip(pairs, ends):
        rho1, lo1, hi1, g6_1 = rows[top]
        rho2, lo2, hi2, g6_2 = rows[bottom]
        yield VerificationReport(
            check_id="lemma1_pair",
            params={"n": n, "a1": a1, "a2": a2,
                    "pairs": sizes[a1] * sizes[a2],
                    "worst_l1": list(top), "worst_l2": list(bottom),
                    "dominating_edge": False},
            holds=enclosure_verdict(lo2 - hi1, hi2 - lo1),
            margins={"min_pair_gap": rho2 - rho1, "max_rho_l1": rho1,
                     "min_rho_l2": rho2},
            artifacts={"worst_join_l1": g6_1, "worst_join_l2": g6_2},
        )


# --- lemma2 and claim33: the merge comparison and its entry intervals -------


def merge_threshold(k: int) -> int:
    return (1 << (k + 8)) + 3


def _outside_hypothesis(n: int, k: int, force: bool) -> bool:
    """True below the order threshold 2^(k+8)+3, where only `force` runs.
    n is compared by its bit length first, so a k far above n builds no
    2^(k+8), and the message shows the threshold only below 2^64."""
    if n.bit_length() > k + 8 and n >= merge_threshold(k):
        return False
    if not force:
        value = f" = {merge_threshold(k)}" if k < 56 else ""
        raise ValueError(
            f"need n >= 2^(k+8)+3{value}, got n={n} "
            f"(pass force=True to explore outside the hypothesis)")
    return True


def _validate_merge(n: int, k: int, n1: int, n2: int,
                    l_parts: Sequence[int], force: bool) -> bool:
    """Shared precondition checks; returns outside_hypothesis."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    _check_join_size(n, 2 + len(l_parts), True)
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


def _merged_parts(k: int, n1: int, n2: int,
                  l_parts: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted([n1 + n2 - (k + 1), k + 1, *l_parts], reverse=True))


def verify_lemma2(n: int, k: int, n1: int, n2: int,
                  l_parts: Sequence[int] = (), force: bool = False
                  ) -> VerificationReport:
    """Certify that merging the two leading paths raises the spectral radius.

    Compares rho of hubs+P_{n1}+P_{n2}+L against hubs+P_{n1+n2-(k+1)}+P_{k+1}+L
    (hub edge present in both) on their root-stage enclosures, both from
    one `hub_join_radii` batch, and reads no Perron vector. Why the merge
    raises rho: with rho = t + 1/t and u = 1/t, each path sum S_m of the
    secular equation splits into a part linear in the path order m and
    c * h(m), with c > 0 and h(m) = u^m (1 + u) / (1 + u^(m+1)) strictly
    convex in m at every rho > 2. Both joins have the same order and part
    count and share L, so only the h terms of the two merged paths
    differ. As k + 1 < n2 <= n1, (n1+n2-k-1, k+1) strictly majorizes
    (n1, n2), and Karamata's inequality puts the merged join's secular
    function below the pre-merge one, so its root lies above: for every
    k, every residual forest L and either hub state.

    The params t1 = ceil(k/2) and t2 = floor(k/2) + 1 name where the
    merge cuts the chains: chain 1 after its t1-th vertex and chain 2
    after its t2-th; the heads glue into P_{k+1} and the tails into
    P_{n1+n2-(k+1)}.
    """
    outside = _validate_merge(n, k, n1, n2, l_parts, force)
    parts = (n1, n2, *l_parts)
    merged = _merged_parts(k, n1, n2, l_parts)
    before, after = hub_join_radii([parts, merged], True)
    return _lemma2(n, k, n1, n2, l_parts, outside, before, after,
                   *(_join_graph6(p, True) for p in (parts, merged)))


def _lemma2(n: int, k: int, n1: int, n2: int, l_parts: Sequence[int],
            outside: bool, before, after, before_g6: str, after_g6: str
            ) -> VerificationReport:
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
    )


def verify_claim33(n: int, k: int, n1: int, n2: int,
                   l_parts: Sequence[int] = (), force: bool = False
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
    chain of order m is checked for i <= min(floor((k+2)/2),
    floor((m-1)/2)); part (ii) for i <= min(floor((k+3)/2), floor(n2/2)).
    Skipped indices are counted in params["skipped"].
    """
    outside = _validate_merge(n, k, n1, n2, l_parts, force)
    parts = (n1, n2, *l_parts)
    radius, = hub_join_radii([parts], True)
    return _claim33(n, k, n1, n2, l_parts, outside, radius,
                    _join_graph6(parts, True))


def _margin(plus, minus=()) -> tuple[float, str]:
    """sum(plus) - sum(minus) over closed forms, each given as (float at
    rho, lower bound, upper bound) (`kernel._closed_forms`): its float at
    rho, and `enclosure_verdict` on the enclosure that the bounds give it,
    summed with each result moved one ulp outward."""
    value = sum(a[0] for a in plus) - sum(a[0] for a in minus)
    lo = hi = 0.0
    for _, a_lo, a_hi in plus:
        lo = math.nextafter(lo + a_lo, -math.inf)
        hi = math.nextafter(hi + a_hi, math.inf)
    for _, a_lo, a_hi in minus:
        lo = math.nextafter(lo - a_hi, -math.inf)
        hi = math.nextafter(hi - a_lo, math.inf)
    return value, enclosure_verdict(lo, hi)


def _entry(j: int, m: int) -> tuple:
    """The `_closed_forms` form of y_j on a path of order m >= 2."""
    return (1.0, 0, j, 0, m + 1 - j, m)


def _power(k: float, p: int) -> tuple:
    """The `_closed_forms` form of k rho^p."""
    return (k, p, 0, 0, 0, 0)


def _hubs_carry_max(parts: Sequence[int], radius, ymax=None) -> str:
    """The verdict on "the hubs carry the max entry 1" for the join of
    `parts` (longest first) with root-stage row `radius`, hub entries 1.
    Every forest entry lies below C = 2/(rho - 2), which is at most 1 once
    rho >= 4. A singleton's entry is 2/rho <= 1, since the join contains
    K_{2,2} and so rho >= 2 (C4 ties). Else the largest entry, at the
    middle of a longest path (`ymax`, its closed form), is compared with 1.
    """
    rho, lo, hi, _ = radius
    m = parts[0]
    if lo >= 4.0 or m == 1:
        return "certified"
    if ymax is None:
        ymax, = _closed_forms([_entry((m + 1) // 2, m)], rho, lo, hi)
    return _margin([(1.0, 1.0, 1.0)], [ymax])[1]


def _claim33(n: int, k: int, n1: int, n2: int, l_parts: Sequence[int],
             outside: bool, radius, g6: str
             ) -> tuple[VerificationReport, list[IntervalWitness]]:
    """The claim33 report of the pre-merge join with root-stage row
    `radius` = (rho, lo, hi, steps). Each margin is the float at rho of
    its closed forms, and each verdict `_margin` on their bounds over
    [lo, hi]. The vector is max-normalized at the hubs once the hubs are
    proven to carry the max; until then the report is indeterminate.

    A band on rho^i times an entry difference holds exactly when the band
    divided by rho^i does, so the verdicts read y_i and y_(i+1) - y_i of
    each chain against powers of 1/rho, and y_(i+1) of one chain minus y_i
    of the other as a step plus the difference of two y_i.
    """
    rho, lo, hi, _ = radius
    i_max_step = (k + 2) // 2
    i_max_cross = (k + 3) // 2
    orders = (n1, n2)
    forms = {}
    for i in range(1, i_max_cross + 1):
        forms["eight", i] = _power(8.0 * 2.0 ** i, -(i + 2))
        for c, m in enumerate(orders):
            forms["y", i, c] = _entry(i, m)
    for i in range(1, i_max_step + 1):
        forms["lead", i] = _power(2.0, -(i + 1))
        for c, m in enumerate(orders):
            forms["step", i, c] = (1.0, 0, 1, i, m - 2 * i, m)
    at = dict(zip(forms, _closed_forms(list(forms.values()), rho, lo, hi)))

    witnesses: list[IntervalWitness] = []
    margins: dict = {"rho": float(rho)}
    states: list[str] = []
    skipped = 0

    def band(i, value, lo_b, hi_b, kind, label, below, above):
        # below and above: the verdicts on value - lo_b and hi_b - value
        st = _combine(below, above)
        states.append(st)
        witnesses.append(IntervalWitness(
            i, label, kind, value, lo_b, hi_b, st != "violated"))

    steps = {}  # (i, chain): the step's margin against its lower bound
    for i in range(1, i_max_step + 1):
        scale = rho ** i
        half = 8.0 * (2.0 ** i) / rho ** 2
        lead, eight = at["lead", i], at["eight", i]
        for c, (label, order) in enumerate((("chain1", n1), ("chain2", n2))):
            if order < 2 * i + 1:
                skipped += 1
                continue
            step = at["step", i, c]
            steps[i, c] = _margin([step, eight], [lead])
            band(i, scale * step[0], 2.0 / rho - half, 2.0 / rho + half,
                 "A", label, steps[i, c][1], _margin([lead, eight], [step])[1])

    for i in range(1, i_max_cross + 1):
        if n2 < 2 * i:
            skipped += 1
            continue
        scale = rho ** i
        half = 8.0 * (2.0 ** i) / rho ** 2
        y1, y2, eight = at["y", i, 0], at["y", i, 1], at["eight", i]
        band(i, scale * (y1[0] - y2[0]), -half, half, "B", "cross",
             _margin([y1, eight], [y2])[1], _margin([y2, eight], [y1])[1])

    # monotonicity: steps beat an explicit positive bound, heads interleave
    for i in range(1, i_max_step + 1):
        # 16 2^i/rho^(i+2), each bound twice eight's: doubling is exact
        lead, sixteen = at["lead", i], [2.0 * e for e in at["eight", i]]
        for name, guard, a, b in (
                ("chain1_step", n1 > 2 * i, 0, None),
                ("chain1_over_chain2", n1 > 2 * i and n2 >= 2 * i, 0, 1),
                ("chain2_step", n2 > 2 * i, 1, None),
                ("chain2_over_chain1", n2 > 2 * i, 1, 0)):
            if not guard:
                skipped += 1
                continue
            step = at["step", i, a]
            if b is None:  # d = the step: 2/rho^(i+1) - 8 2^i/rho^(i+2)
                value, st = steps[i, a]
                d = enclosure_verdict(step[1], step[2])
            else:  # d = y_(i+1) of chain a - y_i of chain b, 16 2^i
                plus, minus = [step, at["y", i, a]], [at["y", i, b]]
                value, st = _margin(plus + [sixteen], minus + [lead])
                # d > lead - sixteen > 0 is proven once st is certified
                d = (st if lead[1] > sixteen[2]
                     else _margin(plus, minus)[1])
            margins[f"{name}_i{i}"] = value
            states.append(_combine(st, d))

    if witnesses:
        margins["min_band_slack"] = float(min(
            min(w.value - w.lo, w.hi - w.value) for w in witnesses))

    params = {"n": n, "k": k, "n1": n1, "n2": n2, "l": list(l_parts),
              "checked": len(states), "skipped": skipped,
              "dominating_edge": True}
    if outside:
        params["outside_hypothesis"] = True
    hubs = _hubs_carry_max(orders, radius)
    report = VerificationReport(
        check_id="claim33",
        params=params,
        holds=_combine(*states, hubs if hubs == "certified"
                       else "indeterminate"),
        margins=margins,
        artifacts={"join": g6},
    )
    return report, witnesses


def lemma2_sweep(n: int, k: int, force: bool = False
                 ) -> list[VerificationReport]:
    """Merge + interval checks over every split n1 >= n2 >= k+2 of n-2.

    The residual forest is empty throughout (the two paths carry all of
    n-2), so every split merges into the same join (n-k-3, k+1). One
    `hub_join_radii` batch solves and encloses it and every pre-merge
    join. lemma2 compares those enclosures alone; claim33 reads its closed
    forms over the pre-merge join's batch row, which is its scalar root
    and enclosure bit for bit. Each join is encoded once. Returns the
    lemma2 and claim33 reports interleaved per split.
    An n above the size ceiling is refused before any split is listed, and
    an n with no split, a negative k, or an n below the order threshold
    without `force` before anything is solved: the first split's checks
    stand for all of them.
    """
    _check_join_size(n, 2, True)
    if n - 2 < 2 * (k + 2):
        raise ValueError(f"no split n1 >= n2 >= k+2 = {k + 2} of "
                         f"n-2 = {n - 2}")
    splits = [(n - 2 - n2, n2) for n2 in range(k + 2, (n - 2) // 2 + 1)]
    outside = _validate_merge(n, k, *splits[0], (), force)
    merged = _merged_parts(k, *splits[0], ())
    after, *befores = hub_join_radii([merged, *splits], True)
    after_g6 = _join_graph6(merged, True)
    reports = []
    for (n1, n2), before in zip(splits, befores):
        before_g6 = _join_graph6((n1, n2), True)
        reports.append(_lemma2(n, k, n1, n2, (), outside, before, after,
                               before_g6, after_g6))
        reports.append(_claim33(n, k, n1, n2, (), outside, before,
                                before_g6)[0])
    return reports


# --- entry bounds ------------------------------------------------------------


def verify_entry_bounds(n: int, parts: Sequence[int]) -> VerificationReport:
    """Forest entries of the hub join (no hub edge) sit in
    [2/rho, 2/rho + 8/rho^2]; hubs carry the max entry 1.

    Reads the closed forms (`kernel._closed_forms`) of two entries at
    the root stage's rho, with the hub entries 1: the largest forest entry,
    at the middle vertex of a longest path, and the smallest, at vertex 1
    of a shortest path. The lower bound needs no numerics once the hubs
    carry the max: rho y_1 = 2 + y_2, so the smallest entry is 2/rho on a
    singleton and 2/rho + y_2/rho above it. Neither does the rest once
    lo >= 4: every forest entry lies below C = 2/(rho - 2), and
    C <= min(1, 2/rho + 8/rho^2) exactly when rho >= 4. Below that the
    largest entry is bounded over [lo, hi] against 1 and 2/rho + 8/rho^2.
    Each margin is its float at rho in the max-normalized vector.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    _check_join_size(n, len(parts), False)
    lf = LinearForest(tuple(parts))
    if lf.order != n - 2:
        raise ValueError(f"forest order {lf.order} != n-2 = {n - 2}")
    radius, = hub_join_radii([lf.parts], False)
    rho, lo, hi, _ = radius
    longest, shortest = lf.parts[0], lf.parts[-1]
    forms = [_power(2.0, -1), _power(8.0, -2),
             _power(2.0, -1) if longest == 1
             else _entry((longest + 1) // 2, longest)]
    if shortest > 1:  # vertex 1's path neighbour
        forms.append(_entry(2, shortest))
    two, eight, y_max, *rest = _forms_toward(forms, rho, rho, None)
    nbr = sum(rest)  # y_2, or 0.0 on a singleton
    if lo >= 4.0:
        holds = "certified"
    else:
        atoms = _closed_forms(forms[:3], rho, lo, hi)
        # the forest max of the max-normalized vector is min(y_max, 1)
        upper = _margin(atoms[:2], [tuple(min(b, 1.0) for b in atoms[2])])
        holds = _combine(_hubs_carry_max(lf.parts, radius, atoms[2]),
                         upper[1])
    lower_slack = (nbr / rho if y_max <= 1.0
                   else (2.0 + nbr) / rho / y_max - 2.0 / rho)
    return VerificationReport(
        check_id="entry_bounds",
        params={"n": n, "parts": list(lf.parts), "dominating_edge": False},
        holds=holds,
        margins={"rho": float(rho), "lower_slack": lower_slack,
                 "upper_slack": two + eight - min(y_max, 1.0),
                 "hub_dev": max(0.0, 1.0 - 1.0 / y_max)},
        artifacts={"join": _join_graph6(lf.parts, False)},
    )


def entry_bounds_sample(count: int, n_lo: int, n_hi: int,
                        seed: int) -> list[VerificationReport]:
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
        reports.append(verify_entry_bounds(n, parts))
    return reports


# --- argmax sweep -------------------------------------------------------------


def _candidates(n: int, k: int, max_parts: int) -> np.ndarray:
    """The admissible forests: part lists of order n-2 with <= max_parts
    parts whose two largest parts sum to at most n-k-3 (so the join misses
    a cycle length in [3, n-k]), as the rows of a zero-padded (C, P) int64
    array, P = max_parts, by part count, then reverse-lex: the rows of
    `families.partitions` for each part count, kept by the sum of their
    first two parts."""
    blocks = []
    for t in range(1, max_parts + 1):
        rows = partitions(n - 2, t, n - 2)
        rows = rows[rows[:, :2].sum(axis=1) <= n - k - 3]
        blocks.append(np.pad(rows, ((0, 0), (0, max_parts - t))))
    return np.concatenate(blocks)


def _part_lists(parts: np.ndarray) -> list[list[int]]:
    """Each row of a zero-padded part array as a list of Python ints,
    its padding dropped (only rows that end in 0 are cut)."""
    rows = parts.tolist()
    short = np.flatnonzero(parts[:, -1] == 0)
    for i, t in zip(short.tolist(),
                    np.count_nonzero(parts[short], axis=1).tolist()):
        rows[i] = rows[i][:t]
    return rows


def _count_candidates(n: int, max_parts: int) -> int:
    """The forests of order n-2 with at most max_parts parts, admissible or
    not, counted by part count (`families.part_counts`) before any is
    listed; the count stops once it passes MAX_CANDIDATES, so it costs
    O(n) per part count and no more part counts than the ceiling takes.
    Every candidate join has n vertices and at least 3(n-2) - max_parts + 1
    edges, so an n above `graphs.MAX_SIZE` is refused first, by its size."""
    _check_join_size(n, max_parts, True)
    total = 0
    for size in islice(part_counts(n - 2), max_parts):
        total += size
        if total > MAX_CANDIDATES:
            break
    return total


@dataclass(frozen=True)
class ArgmaxSweepResult:
    """The argmax report and the sweep's rows as arrays: `parts`, the
    zero-padded (C, P) candidate array, and rho, lo, hi and Newton steps
    of shape (C,), in candidate order."""

    report: VerificationReport
    parts: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    steps: np.ndarray = field(repr=False)

    def _row_values(self):
        return zip(_part_lists(self.parts), self.rho.tolist(),
                   self.lo.tolist(), self.hi.tolist(), self.steps.tolist())

    def rows_jsonl(self) -> str:
        """One compact JSON object per candidate. A float's repr is json's
        own format for it, so each line is `json.dumps(row, separators=(",",
        ":"))`."""
        return "".join(
            f'{{"parts":[{",".join(map(str, parts))}],"rho":{rho!r},'
            f'"rho_lo":{lo!r},"rho_hi":{hi!r},"iterations":{steps}}}\n'
            for parts, rho, lo, hi, steps in self._row_values())

    def rows_csv(self) -> str:
        return "parts,rho,rho_lo,rho_hi,iterations\n" + "".join(
            f"\"{' '.join(map(str, parts))}\",{rho!r},{lo!r},{hi!r},{steps}\n"
            for parts, rho, lo, hi, steps in self._row_values())


def argmax_sweep(n: int, k: int, max_parts: int = 3,
                 force: bool = False) -> ArgmaxSweepResult:
    """Find the admissible forest maximizing rho of its hub join (hub edge
    present), and certify uniqueness of the maximum.

    The candidates are counted first and refused above MAX_CANDIDATES
    (`_count_candidates`). They are listed as the rows of one zero-padded
    int array (`_candidates`), and each is enclosed by the root stage on
    its row, all in one batch over that array's columns
    (`hub_join_radii_arrays`, no graph built); rows stay in enumeration
    order. The leader has the largest rho, the first on a tie. Its ties
    are the candidates whose upper end reaches the leader's lower end,
    the leader included: the report lists the first TIES_SHOWN of them,
    in candidate order, and counts them all. holds is
    `enclosure_verdict` on the float differences of the ends of the
    leader's and its rivals' enclosures: certified (the leader ties
    alone, or is the lone candidate) or indeterminate. The argmax join's
    artifact is encoded from its part list. The report carries Python
    ints and floats only.
    """
    if max_parts < 3:
        raise ValueError(f"max_parts must be >= 3, got {max_parts}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > n - 4:  # a forest's two largest parts sum to at least 1
        raise ValueError(f"no admissible forests for n={n}: need "
                         f"k <= n-4 = {n - 4}")
    outside = _outside_hypothesis(n, k, force)
    count = _count_candidates(n, max_parts)
    if count > MAX_CANDIDATES:
        raise ValueError(
            f"the argmax sweep at n={n} lists at least {count} forests of "
            f"at most {max_parts} parts, above the ceiling MAX_CANDIDATES = "
            f"{MAX_CANDIDATES}")
    cands = _candidates(n, k, max_parts)
    if not len(cands):
        raise ValueError(f"no admissible forests for n={n}, k={k}, "
                         f"max_parts={max_parts}")
    rho, lo, hi, steps = hub_join_radii_arrays(cands, hub_edge=True)

    best = int(np.argmax(rho))  # the first maximum, as max() picks
    lead, lead_lo, lead_hi = rho[best].item(), lo[best].item(), hi[best].item()
    argmax, = _part_lists(cands[best:best + 1])
    tied = np.flatnonzero(hi >= lead_lo)
    expected = [n - 2 * k - 4, k + 1, k + 1]
    params = {"n": n, "k": k, "max_parts": max_parts,
              "candidates": len(cands), "argmax": argmax,
              "expected": expected, "matches_expected": argmax == expected,
              "ties": _part_lists(cands[tied[:TIES_SHOWN]]),
              "tie_count": len(tied), "dominating_edge": True}
    if outside:
        params["outside_hypothesis"] = True
    margins = {"rho_max": lead}
    holds = "certified"
    if len(cands) > 1:  # a lone candidate has no runner-up to measure a gap to
        rival_rho, rival_lo, rival_hi = np.delete(
            np.stack((rho, lo, hi)), best, axis=1).max(axis=1).tolist()
        margins["runner_up_gap"] = lead - rival_rho
        margins["enclosure_gap"] = lead_lo - rival_hi
        holds = enclosure_verdict(margins["enclosure_gap"],
                                  lead_hi - rival_lo)
    report = VerificationReport(
        check_id="argmax",
        params=params,
        holds=holds,
        margins=margins,
        artifacts={"argmax_join": _join_graph6(argmax, True)},
    )
    return ArgmaxSweepResult(report, cands, rho, lo, hi, steps)


# --- re-running reports --------------------------------------------------------


def rerun(report: VerificationReport) -> VerificationReport:
    """Recompute a report from its own check_id and recorded params.

    Certified reports must reproduce byte for byte; this is the
    self-containment contract for everything the verifier emits.
    """
    p = report.params
    force = bool(p.get("outside_hypothesis", False))
    if report.check_id == "lemma1":
        return verify_lemma1(p["n"], p["a1"], p["a2"], p["l1"], p["l2"])
    if report.check_id == "lemma2":
        return verify_lemma2(p["n"], p["k"], p["n1"], p["n2"], tuple(p["l"]),
                             force)
    if report.check_id == "claim33":
        rep, _ = verify_claim33(p["n"], p["k"], p["n1"], p["n2"],
                                tuple(p["l"]), force)
        return rep
    if report.check_id == "entry_bounds":
        return verify_entry_bounds(p["n"], p["parts"])
    if report.check_id == "lemma1_pair":
        n, a1, a2 = p["n"], p["a1"], p["a2"]
        if n < 4 or not 0 <= a2 < a1 <= _a_limit(n):
            raise ValueError(f"pair (a1={a1}, a2={a2}) not in sweep")
        return next(_lemma1_pairs(n, [(a1, a2)]))
    if report.check_id == "argmax":
        return argmax_sweep(p["n"], p["k"], p["max_parts"], force=force).report
    raise ValueError(f"cannot rerun reports of kind {report.check_id!r}")
