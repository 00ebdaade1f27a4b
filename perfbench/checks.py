"""Checkers for the program's outputs, against perfbench.reference.

Each checker takes outputs already parsed from the program and returns a
list of error strings, empty when everything agrees. Checkers never call
spexplanar: every expected value comes from an independent computation.
"""

from __future__ import annotations

import random
from typing import Sequence

from . import reference as R

RHO_TOL = 1e-9      # hub joins: program rho against secular root and eigvalsh
DENSE_TOL = 1e-8    # margins recomputed from a LAPACK Perron vector
MAX_REPORTED = 5    # errors listed per check before summarising


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def capped(errors: list[str]) -> list[str]:
    if len(errors) <= MAX_REPORTED:
        return errors
    return errors[:MAX_REPORTED] + [f"... and {len(errors) - MAX_REPORTED} more"]


def _verdict_errors(where: str, holds: str, margin: float) -> list[str]:
    """A certified or violated verdict is contradicted only by an independent
    margin of the other sign that is larger than the eigensolver's error."""
    if holds == "violated":
        return [f"{where}: verdict is violated"]
    if holds == "certified" and margin < -R.EIG_ERROR:
        return [f"{where}: certified, but the independent margin is {margin:.3e}"]
    return []


# --- argmax sweep ------------------------------------------------------------


def check_argmax(n: int, k: int, max_parts: int, rows: Sequence[dict],
                 report: dict, rng: random.Random, sample: int = 12) -> list[str]:
    """Rows and report of `spex sweep argmax`: candidate set and count, every
    row's rho, the unique maximiser and its margins."""
    errors: list[str] = []
    expected_count = R.admissible_count(n, k, max_parts)
    if len(rows) != expected_count:
        errors.append(f"argmax: {len(rows)} rows, expected {expected_count}")
    if report["params"].get("candidates") != expected_count:
        errors.append(f"argmax: report counts {report['params'].get('candidates')}"
                      f" candidates, expected {expected_count}")
    parts = [tuple(r["parts"]) for r in rows]
    if sorted(parts) != sorted(R.admissible_forests(n, k, max_parts)):
        errors.append("argmax: row forests differ from the admissible set")
        return errors

    ref = R.hub_join_rho(parts, hub_edge=True)
    bad = [f"argmax row {p}: rho {r['rho']!r} vs secular {x!r}"
           for p, r, x in zip(parts, rows, ref)
           if not _close(r["rho"], float(x), RHO_TOL)]
    errors += capped(bad)

    order = sorted(range(len(parts)), key=lambda i: -ref[i])
    best, second = order[0], order[1]
    expected = (n - 2 * k - 4, k + 1, k + 1)
    if parts[best] != expected:
        errors.append(f"argmax: reference maximiser is {parts[best]}, "
                      f"the paper's is {expected}")
    if ref[best] - ref[second] <= 2 * RHO_TOL:
        errors.append("argmax: reference maximum is not unique")
    p = report["params"]
    if tuple(p.get("argmax", ())) != expected:
        errors.append(f"argmax: reported {p.get('argmax')}, expected {list(expected)}")
    if [tuple(t) for t in p.get("ties", [])] != [expected]:
        errors.append(f"argmax: reported ties {p.get('ties')}")
    if report.get("holds") != "certified":
        errors.append(f"argmax: verdict {report.get('holds')}")

    edges = R.hub_join_edges(expected, hub_edge=True)
    dense = R.dense_rho(n, edges)
    margins = report["margins"]
    if not _close(margins["rho_max"], dense, RHO_TOL):
        errors.append(f"argmax: rho_max {margins['rho_max']!r} vs eigvalsh {dense!r}")
    gap = float(ref[best] - ref[second])
    if not _close(margins["runner_up_gap"], gap, 2 * RHO_TOL):
        errors.append(f"argmax: runner_up_gap {margins['runner_up_gap']!r} "
                      f"vs secular {gap!r}")
    n_art, e_art = R.decode_graph6(report["artifacts"]["argmax_join"])
    if (n_art, set(e_art)) != (n, {(min(u, v), max(u, v)) for u, v in edges}):
        errors.append("argmax: argmax_join artifact is not the join of "
                      f"{expected}")

    for i in rng.sample(range(len(rows)), min(sample, len(rows))):
        d = R.dense_rho(n, R.hub_join_edges(parts[i], hub_edge=True))
        if not _close(rows[i]["rho"], d, RHO_TOL):
            errors.append(f"argmax row {parts[i]}: rho {rows[i]['rho']!r} "
                          f"vs eigvalsh {d!r}")
    return errors


def check_member(out: dict, parts: Sequence[int]) -> list[str]:
    """`spex member` at k = 0 on the join of `parts`: the first missing
    cycle length of a hub join is n1 + n2 + 3."""
    witness = parts[0] + (parts[1] if len(parts) > 1 else 0) + 3
    if out != {"member": True, "witness": witness}:
        return [f"member: got {out}, expected witness {witness}"]
    return []


def check_join_rhos(queries: Sequence[tuple[Sequence[int], bool, float]],
                    rng: random.Random, sample: int = 8) -> list[str]:
    """(parts, hub_edge, reported rho) triples, every one against the
    secular root and a seeded sample against eigvalsh."""
    errors = []
    for hub_edge in (True, False):
        sel = [q for q in queries if q[1] == hub_edge]
        if not sel:
            continue
        ref = R.hub_join_rho([q[0] for q in sel], hub_edge)
        errors += [f"join {list(q[0])} (hub edge {hub_edge}): rho {q[2]!r} "
                   f"vs secular {x!r}"
                   for q, x in zip(sel, ref) if not _close(q[2], float(x), RHO_TOL)]
    for parts, hub_edge, rho in rng.sample(list(queries), min(sample, len(queries))):
        n = sum(parts) + 2
        d = R.dense_rho(n, R.hub_join_edges(parts, hub_edge))
        if not _close(rho, d, RHO_TOL):
            errors.append(f"join {list(parts)}: rho {rho!r} vs eigvalsh {d!r}")
    return capped(errors)


# --- verify grid --------------------------------------------------------------


def check_lemma1(n: int, reports: Sequence[dict]) -> list[str]:
    """`spex verify lemma1 --n N`: one report per pair a2 < a1 <= a_max, each
    with the family sizes and worst-case radii over whole families."""
    errors = []
    a_max = R.lemma1_a_max(n)
    want = {(a1, a2) for a1 in range(1, a_max + 1) for a2 in range(a1)}
    got = [(r["params"]["a1"], r["params"]["a2"]) for r in reports]
    if sorted(got) != sorted(want):
        return [f"lemma1 n={n}: pairs {sorted(got)}, expected {sorted(want)}"]
    fams = {a: R.partitions(n - 2, a + 1) for a in range(a_max + 1)}
    rhos = {a: dict(zip(f, R.hub_join_rho(f, hub_edge=False)))
            for a, f in fams.items()}
    for r in reports:
        p, m = r["params"], r["margins"]
        a1, a2 = p["a1"], p["a2"]
        where = f"lemma1 n={n} a1={a1} a2={a2}"
        if p["pairs"] != R.partition_count(n - 2, a1 + 1) * R.partition_count(n - 2, a2 + 1):
            errors.append(f"{where}: pairs {p['pairs']}")
        hi = max(rhos[a1].values())
        lo = min(rhos[a2].values())
        worst1, worst2 = tuple(p["worst_l1"]), tuple(p["worst_l2"])
        if worst1 not in rhos[a1] or not _close(rhos[a1][worst1], hi, RHO_TOL):
            errors.append(f"{where}: worst_l1 {list(worst1)} is not a maximiser")
        if worst2 not in rhos[a2] or not _close(rhos[a2][worst2], lo, RHO_TOL):
            errors.append(f"{where}: worst_l2 {list(worst2)} is not a minimiser")
        if not _close(m["max_rho_l1"], float(hi), RHO_TOL):
            errors.append(f"{where}: max_rho_l1 {m['max_rho_l1']!r} vs {hi!r}")
        if not _close(m["min_rho_l2"], float(lo), RHO_TOL):
            errors.append(f"{where}: min_rho_l2 {m['min_rho_l2']!r} vs {lo!r}")
        if not _close(m["min_pair_gap"], float(lo - hi), 2 * RHO_TOL):
            errors.append(f"{where}: min_pair_gap {m['min_pair_gap']!r}")
        errors += _verdict_errors(where, r["holds"], float(lo - hi))
    return errors


def merge_splits(n: int, k: int) -> list[tuple[int, int]]:
    """(n1, n2) with n1 + n2 = n - 2 and n1 >= n2 >= k + 2."""
    return [(n - 2 - n2, n2) for n2 in range(k + 2, n) if n - 2 - n2 >= n2]


def check_merge(n: int, k: int, reports: Sequence[dict]) -> list[str]:
    """`spex verify lemma2 --n N`: a lemma2 then a claim33 report per split,
    with radii before and after the merge."""
    splits = merge_splits(n, k)
    if [r["check_id"] for r in reports] != ["lemma2", "claim33"] * len(splits):
        return [f"lemma2 n={n}: {len(reports)} reports, expected lemma2 and "
                f"claim33 for each of {len(splits)} splits"]
    got = [(r["params"]["n1"], r["params"]["n2"]) for r in reports[::2]]
    if got != splits or got != [(r["params"]["n1"], r["params"]["n2"])
                                for r in reports[1::2]]:
        return [f"lemma2 n={n}: splits differ from n1 >= n2 >= {k + 2}"]
    before = R.hub_join_rho(splits, hub_edge=True)
    after = R.hub_join_rho([(n1 + n2 - k - 1, k + 1) for n1, n2 in splits],
                           hub_edge=True)
    errors = []
    for (n1, n2), l2, c33, b, a in zip(splits, reports[::2], reports[1::2],
                                       before, after):
        where = f"lemma2 n={n} n1={n1} n2={n2}"
        m = l2["margins"]
        for name, value, ref in (("rho_before", m["rho_before"], b),
                                 ("rho_after", m["rho_after"], a),
                                 ("rho_gap", m["rho_gap"], a - b),
                                 ("claim33 rho", c33["margins"]["rho"], b)):
            if not _close(value, float(ref), 2 * RHO_TOL):
                errors.append(f"{where}: {name} {value!r} vs secular {float(ref)!r}")
        errors += _verdict_errors(where, l2["holds"], float(a - b))
        if c33["holds"] == "violated":
            errors.append(f"claim33 n={n} n1={n1} n2={n2}: verdict is violated")
    return capped(errors)


def check_claim33(n: int, k: int, items: Sequence[tuple[tuple[int, int], list[dict]]]
                  ) -> list[str]:
    """Single `spex verify claim33` runs: ((n1, n2), output lines). The
    report comes first, one witness line per checked interval after it."""
    errors = []
    ref = R.hub_join_rho([split for split, _ in items], hub_edge=True) if items else []
    for ((n1, n2), lines), rho in zip(items, ref):
        where = f"claim33 n={n} n1={n1} n2={n2}"
        rep, witnesses = lines[0], lines[1:]
        p = rep.get("params", {})
        if rep.get("check_id") != "claim33" or (p.get("n"), p.get("k"), p.get("n1"),
                                                p.get("n2")) != (n, k, n1, n2):
            errors.append(f"{where}: report is for {rep.get('check_id')} {p}")
            continue
        if not _close(rep["margins"]["rho"], float(rho), RHO_TOL):
            errors.append(f"{where}: rho {rep['margins']['rho']!r} vs secular {float(rho)!r}")
        if rep["holds"] == "violated":
            errors.append(f"{where}: verdict is violated")
        if any("witness" not in w for w in witnesses):
            errors.append(f"{where}: output line that is neither report nor witness")
    return capped(errors)


def check_entry_bounds(reports: Sequence[dict],
                       expected: Sequence[tuple[int, Sequence[int]]] | None = None,
                       count: int | None = None) -> list[str]:
    """Entry-bound reports: order and forest consistent (and equal to the
    requested ones when `expected` is given), rho against the secular root."""
    errors = []
    if count is not None and len(reports) != count:
        return [f"entry-bounds: {len(reports)} reports, expected {count}"]
    if expected is not None:
        want = [(n, sorted(parts, reverse=True)) for n, parts in expected]
        got = [(r["params"]["n"], r["params"]["parts"]) for r in reports]
        if got != want:
            return ["entry-bounds: reported instances differ from the requested ones"]
    forests = [tuple(r["params"]["parts"]) for r in reports]
    for r, f in zip(reports, forests):
        if sum(f) != r["params"]["n"] - 2:
            errors.append(f"entry-bounds {list(f)}: order != n - 2")
        if r["holds"] == "violated":
            errors.append(f"entry-bounds {list(f)}: verdict is violated")
    ref = R.hub_join_rho(forests, hub_edge=False)
    errors += [f"entry-bounds {list(f)}: rho {r['margins']['rho']!r} vs "
               f"secular {float(x)!r}"
               for r, f, x in zip(reports, forests, ref)
               if not _close(r["margins"]["rho"], float(x), RHO_TOL)]
    return capped(errors)


def dense_margins(report: dict) -> tuple[dict[str, float], float]:
    """Recompute a report's margins from its graph6 artifacts, decoded by
    networkx, with LAPACK's Perron pair; formulas follow the check
    definitions in the program's documentation, not its code. Also returns
    the largest eigenpair residual met on the way."""
    resids = []

    def _perron(graph6: str):
        n, edges = R.decode_graph6(graph6)
        rho, x, resid = R.dense_perron(n, edges)
        resids.append(resid)
        return n, edges, rho, x, resid

    margins = _dense_margins(report, _perron)
    return margins, max(resids)


def _dense_margins(report: dict, _perron) -> dict[str, float]:
    cid, p = report["check_id"], report["params"]
    art = report["artifacts"]
    if cid == "lemma1_pair":
        _, _, r1, _, _ = _perron(art["worst_join_l1"])
        _, _, r2, _, _ = _perron(art["worst_join_l2"])
        return {"min_pair_gap": r2 - r1, "max_rho_l1": r1, "min_rho_l2": r2}
    if cid == "lemma1":
        _, _, r1, _, _ = _perron(art["join_l1"])
        _, _, r2, _, _ = _perron(art["join_l2"])
        return {"rho_gap": r2 - r1, "rho_l1": r1, "rho_l2": r2}
    if cid == "entry_bounds":
        _, _, rho, x, _ = _perron(art["join"])
        forest = x[2:]
        return {"rho": rho, "lower_slack": float(forest.min() - 2.0 / rho),
                "upper_slack": float(2.0 / rho + 8.0 / rho ** 2 - forest.max()),
                "hub_dev": float(max(abs(x[0] - 1.0), abs(x[1] - 1.0)))}
    if cid == "lemma2":
        n, edges, r1, x, _ = _perron(art["join_before"])
        _, _, r2, _, _ = _perron(art["join_after"])
        # swap: cut chain1 after t1 and chain2 after t2, cross-glue the pieces
        n1, t1, t2 = p["n1"], p["t1"], p["t2"]
        c1 = lambda i: 1 + i
        c2 = lambda j: 1 + n1 + j
        es = {(min(u, v), max(u, v)) for u, v in edges}
        if t1 >= 1:
            es.discard((c1(t1), c1(t1 + 1)))
        if t2 >= 1:
            es.discard((c2(t2), c2(t2 + 1)))
        if t1 >= 1 and t2 >= 1:
            es.add((c1(t1), c2(t2)))
        es.add((c1(t1 + 1), c2(t2 + 1)))
        a = R.adjacency(n, es)
        rq = float(x @ a @ x) / float(x @ x)
        return {"rho_gap": r2 - r1, "swap_lower_bound": rq - r1,
                "rho_before": r1, "rho_after": r2}
    if cid == "claim33":
        _, _, rho, x, _ = _perron(art["join"])
        return claim33_margins(rho, x, p["k"], p["n1"], p["n2"])
    raise ValueError(f"no dense recomputation for {cid!r}")


def claim33_margins(rho: float, x, k: int, n1: int, n2: int) -> dict[str, float]:
    """Margins of claim 3.3 on a Perron vector laid out as hubs, chain 1,
    chain 2: entry steps against 2/rho^(i+1) - 8*2^i/rho^(i+2), steps across
    chains against 2/rho^(i+1) - 16*2^i/rho^(i+2), and the smallest slack of
    the scaled differences inside their bands A_i and B_i."""
    c1 = lambda i: 1 + i
    c2 = lambda j: 1 + n1 + j
    out = {"rho": rho}
    slacks = []
    for i in range(1, (k + 2) // 2 + 1):
        half = 8.0 * 2.0 ** i / rho ** 2
        for chain, order in ((c1, n1), (c2, n2)):
            if order >= i + 2:
                v = rho ** i * (x[chain(i + 1)] - x[chain(i)])
                slacks.append(min(v - (2.0 / rho - half), 2.0 / rho + half - v))
        step = 2.0 / rho ** (i + 1) - 8.0 * 2.0 ** i / rho ** (i + 2)
        cross = 2.0 / rho ** (i + 1) - 16.0 * 2.0 ** i / rho ** (i + 2)
        if n1 >= i + 2:
            out[f"chain1_step_i{i}"] = float(x[c1(i + 1)] - x[c1(i)]) - step
        if n1 >= i + 2 and n2 >= 2 * i:
            out[f"chain1_over_chain2_i{i}"] = float(x[c1(i + 1)] - x[c2(i)]) - cross
        if n2 >= i + 2:
            out[f"chain2_step_i{i}"] = float(x[c2(i + 1)] - x[c2(i)]) - step
        if n2 >= i + 2 and n2 >= 2 * i:
            out[f"chain2_over_chain1_i{i}"] = float(x[c2(i + 1)] - x[c1(i)]) - cross
    for i in range(1, (k + 3) // 2 + 1):
        if n2 >= 2 * i:
            half = 8.0 * 2.0 ** i / rho ** 2
            v = rho ** i * (x[c1(i)] - x[c2(i)])
            slacks.append(min(v + half, half - v))
    if slacks:
        out["min_band_slack"] = float(min(slacks))
    return out


# the margin whose sign decides each kind of verdict, when there is one
_DECIDING = {"lemma1_pair": ("min_pair_gap",), "lemma1": ("rho_gap",),
             "lemma2": ("rho_gap",), "entry_bounds": ("lower_slack", "upper_slack"),
             "claim33": ("min_band_slack",)}


def check_dense(report: dict) -> list[str]:
    """Every margin of `report` against its LAPACK recomputation, and the
    verdict against the sign of the deciding margins."""
    where = f"{report['check_id']} {report['params']}"
    ref, resid = dense_margins(report)
    if resid > R.EIG_ERROR:
        return [f"{where}: eigh residual {resid:.2e} exceeds {R.EIG_ERROR:.0e}"]
    errors = []
    for name, value in report["margins"].items():
        if name not in ref:
            errors.append(f"{where}: margin {name} has no recomputation")
        elif not _close(value, ref[name], DENSE_TOL):
            errors.append(f"{where}: {name} {value!r} vs eigh {ref[name]!r}")
    for name in _DECIDING.get(report["check_id"], ()):
        if name in ref:
            errors += _verdict_errors(where, report["holds"], ref[name])
    if report["check_id"] == "claim33":
        steps = [v for n, v in ref.items() if "_step_" in n or "_over_" in n]
        if steps:
            errors += _verdict_errors(where, report["holds"], min(steps))
    return errors


# --- general graphs ----------------------------------------------------------


def check_general(n: int, edges: Sequence[tuple[int, int]], out: dict) -> list[str]:
    """One general-graph query. `out` holds what the program returned:
    decoded `n` and `edges`, `planar`, `rho`, and for small inputs `records`
    [(ell, status, certificate)] and `member` (flag, witness)."""
    where = f"graph n={n} m={len(edges)}"
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    errors = []
    if out["n"] != n or set(out["edges"]) != edge_set:
        errors.append(f"{where}: decoded graph differs from the input")
    if out["planar"] is not True:
        errors.append(f"{where}: is_planar returned {out['planar']}")
    dense = R.dense_rho(n, edges)
    if not _close(out["rho"], dense, DENSE_TOL):
        errors.append(f"{where}: rho {out['rho']!r} vs eigvalsh {dense!r}")
    if "records" not in out:
        return errors
    lengths = R.cycle_lengths(n, edges)
    if [r[0] for r in out["records"]] != list(range(3, n + 1)):
        errors.append(f"{where}: spectrum does not cover lengths 3..{n}")
    for ell, status, cert in out["records"]:
        if status == "present":
            if cert is None or len(cert) != ell or not R.is_simple_cycle(edge_set, n, cert):
                errors.append(f"{where}: certificate for {ell} is not a "
                              f"{ell}-cycle of the input: {cert}")
        elif status == "absent":
            if ell in lengths:
                errors.append(f"{where}: length {ell} reported absent, "
                              "networkx finds a cycle of that length")
        else:
            errors.append(f"{where}: length {ell} unsettled ({status})")
    missing = [ell for ell in range(3, n + 1) if ell not in lengths]
    want = (True, missing[0]) if missing else (False, None)
    if tuple(out["member"]) != want:
        errors.append(f"{where}: in_gnk(k=0) returned {out['member']}, "
                      f"networkx gives {want}")
    return errors


def check_cycle(n: int, cycle) -> list[str]:
    """find_cycle(C_n, n) must return the whole cycle when it returns."""
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    if cycle is None or len(cycle) != n or not R.is_simple_cycle(edges, n, list(cycle)):
        return [f"find_cycle(C{n}, {n}) returned {cycle!r}"]
    return []
