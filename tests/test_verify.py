"""Inequality checks: reports, margins, guards, determinism, reruns."""

import json
import math
import random

import networkx as nx
import numpy as np
import pytest

from spexplanar import (argmax_sweep, from_graph6, lemma1_sweep,
                        lemma2_sweep, merge_threshold, recognize_hub_join,
                        reports_to_csv, rerun,
                        spectral_radius, verify_claim33,
                        verify_entry_bounds, verify_lemma1, verify_lemma2)
from spexplanar import VerificationReport, gridconfig, hub_join_radii
from spexplanar.cli import main
from spexplanar import verify
from spexplanar.families import join_with_paths
from spexplanar.graphs import MAX_CANDIDATES
from spexplanar.verify import entry_bounds_sample

import oracles
from oracles import admissible_forests


# --- lemma1 -------------------------------------------------------------------


def test_lemma1_worked_example():
    rep = verify_lemma1(40, 2, 1, [34, 2, 2], [36, 2])
    assert rep.check_id == "lemma1"
    assert rep.holds == "certified"
    assert 0.02 < rep.margins["rho_gap"] < 0.04
    assert rep.margins["rho_l2"] > rep.margins["rho_l1"]
    assert rep.params["dominating_edge"] is False
    g1 = from_graph6(rep.artifacts["join_l1"])
    g2 = from_graph6(rep.artifacts["join_l2"])
    assert g1.n == 40 and g2.n == 40
    assert not g1.has_edge(0, 1)  # hubs are not adjacent in this check


def shifted_radii(monkeypatch, shift):
    """Make verify's root stage, on part lists and on a part array, report
    each enclosure moved by `shift(parts)`, a pair (to lo, to hi), with
    rho as it is."""
    from spexplanar import verify
    radii, arrays = verify.hub_join_radii, verify.hub_join_radii_arrays

    def moved(forests, hub_edge):
        return [(rho, lo + shift(parts)[0], hi + shift(parts)[1], steps)
                for parts, (rho, lo, hi, steps)
                in zip(forests, radii(forests, hub_edge))]

    def moved_arrays(parts, hub_edge):
        rho, lo, hi, steps = arrays(parts, hub_edge)
        to_lo, to_hi = np.array(
            [shift(p) for p in verify._part_lists(parts)]).T
        return rho, lo + to_lo, hi + to_hi, steps

    monkeypatch.setattr(verify, "hub_join_radii", moved)
    monkeypatch.setattr(verify, "hub_join_radii_arrays", moved_arrays)


def radius_comparisons():
    """lemma1, lemma1_pair, argmax and lemma2 (one instance, one sweep
    report): the reports that compare spectral radii."""
    return [verify_lemma1(40, 2, 1, [34, 2, 2], [36, 2]),
            lemma1_sweep(40)[1], argmax_sweep(30, 0, 3, force=True).report,
            verify_lemma2(300, 0, 160, 138),
            lemma2_sweep(40, 0, force=True)[0]]


def test_radius_comparisons_are_decided_on_enclosures(monkeypatch):
    # lemma1, lemma1_pair, argmax and lemma2 prove their order on the
    # enclosures: overlapping ones decide nothing, reversed ones prove a
    # violation, and the float margins stay what they were
    base = radius_comparisons()
    assert [r.holds for r in base] == ["certified"] * 5
    assert base[4].check_id == "lemma2"
    shifted_radii(monkeypatch, lambda parts: (-1.0, 1.0))
    wide = radius_comparisons()
    assert [r.holds for r in wide] == ["indeterminate"] * 5
    assert wide[2].margins["rho_max"] == base[2].margins["rho_max"]
    for i in (0, 1, 3, 4):
        assert wide[i].margins == base[i].margins
    assert wide[2].params["tie_count"] == wide[2].params["candidates"]
    assert len(wide[2].params["ties"]) == verify.TIES_SHOWN
    monkeypatch.undo()
    # the family with fewer parts pushed below the other one
    shifted_radii(monkeypatch, lambda parts: (-1.0, -1.0) if len(parts) <= 2
                  else (0.0, 0.0))
    assert verify_lemma1(40, 2, 1, [34, 2, 2], [36, 2]).holds == "violated"
    assert lemma1_sweep(40)[1].holds == "violated"
    monkeypatch.undo()
    # the merged join pushed below the pre-merge one: with k = 0 and no
    # residual forest, only the merged join has a part of order 1
    shifted_radii(monkeypatch, lambda parts: (-1.0, -1.0) if 1 in parts
                  else (0.0, 0.0))
    assert verify_lemma2(300, 0, 160, 138).holds == "violated"
    assert lemma2_sweep(40, 0, force=True)[0].holds == "violated"


def test_lemma1_preconditions():
    with pytest.raises(ValueError, match="a1 <= sqrt"):
        verify_lemma1(40, 3, 1, [33, 2, 2, 1], [36, 2])
    with pytest.raises(ValueError, match="a2 < a1"):
        verify_lemma1(40, 1, 1, [36, 2], [36, 2])
    with pytest.raises(ValueError, match="l1 has order"):
        verify_lemma1(40, 2, 1, [30, 2, 2], [36, 2])
    with pytest.raises(ValueError, match="l2 has 3 parts"):
        verify_lemma1(40, 2, 1, [34, 2, 2], [34, 2, 2])
    with pytest.raises(ValueError, match="n >= 4"):
        verify_lemma1(3, 1, 0, [1, 1], [1])


def test_lemma1_sweep_certifies_every_family_pair():
    reports = lemma1_sweep(40)
    # sqrt(76)/4 = 2.17..: families a = 0, 1, 2 -> pairs (1,0), (2,0), (2,1)
    assert [(r.params["a1"], r.params["a2"]) for r in reports] == [
        (1, 0), (2, 0), (2, 1)]
    for rep in reports:
        assert rep.holds == "certified"
        assert rep.margins["min_pair_gap"] > 1e-10
        n_a1 = oracles.partition_count(38, rep.params["a1"] + 1)
        n_a2 = oracles.partition_count(38, rep.params["a2"] + 1)
        assert rep.params["pairs"] == n_a1 * n_a2
        for side in ("l1", "l2"):  # the worst joins, without the hub edge
            assert from_graph6(rep.artifacts[f"worst_join_{side}"]) == \
                oracles.from_nx(oracles.join_nx(rep.params[f"worst_{side}"],
                                                False))


# the 198 pair reports at these orders are checked against the enumeration
LEMMA1_ORDERS = [*range(10, 81), 100, 120]
# the 14 of them, as (n, a1, a2), where the enumeration's float minimum over
# L_{n,a2} is not the most balanced forest B_a2 but another forest, whose
# float rho lies 1 ulp below B_a2's; the list is what
# test_lemma1_pairs_match_the_enumeration finds, not picked by hand
FLOAT_TIES = [(41, 2, 1), (51, 2, 1), (57, 2, 1), (59, 2, 1), (61, 2, 1),
              (68, 2, 1), (74, 3, 2), (76, 3, 2), (78, 2, 1), (78, 3, 1),
              (80, 2, 1), (80, 3, 1), (120, 2, 1), (120, 3, 1)]


@pytest.fixture(scope="module")
def lemma1_families():
    """(rho, parts, lo, hi) of every forest of every family L_{n,a} that
    lemma1_sweep(n) compares at LEMMA1_ORDERS, by enumeration: 56,008
    forests. Each family comes in reverse-lex order, the most spread
    forest T_a first and the most balanced B_a last."""
    return {(n, a): oracles.lna_radii(n, a) for n in LEMMA1_ORDERS
            for a in range(int(math.sqrt(2 * n - 4) / 4) + 1)}


def test_extreme_joins_bound_their_families(lemma1_families):
    for (n, a), fam in lemma1_families.items():
        top, bottom = fam[0][1], fam[-1][1]
        (rho_t, lo_t, hi_t, _), (rho_b, lo_b, hi_b, _) = hub_join_radii(
            [top, bottom], False)
        # T_a is the family's float maximum, bit for bit, and B_a is
        # within a few ulps of its float minimum
        assert max(fam) == (rho_t, top, lo_t, hi_t), (n, a)
        assert abs(rho_b - min(fam)[0]) <= 4 * math.ulp(rho_b), (n, a)
        # and their enclosures hold every member's rho between them
        assert all(lo_b <= hi and lo <= hi_t for _, _, lo, hi in fam), (n, a)


def test_lemma1_pairs_match_the_enumeration(lemma1_families):
    changed = []
    for n in LEMMA1_ORDERS:
        for rep in lemma1_sweep(n):
            a1, a2 = rep.params["a1"], rep.params["a2"]
            fam1, fam2 = lemma1_families[n, a1], lemma1_families[n, a2]
            want = oracles.lemma1_pair_by_enumeration(n, a1, a2, fam1, fam2)
            assert rep.holds == want.holds == "certified"
            assert rep.params["worst_l1"] == list(fam1[0][1])
            assert rep.params["worst_l2"] == list(fam2[-1][1])
            if rep.to_json() == want.to_json():
                continue
            changed.append((n, a1, a2))
            # B_a2 in place of a float tie: only its rho and its join move
            same = {"worst_l2": want.params["worst_l2"]}
            assert {**rep.params, **same} == want.params
            assert rep.artifacts["worst_join_l1"] == \
                want.artifacts["worst_join_l1"]
            assert rep.margins["max_rho_l1"] == want.margins["max_rho_l1"]
            for key in ("min_pair_gap", "min_rho_l2"):
                assert abs(rep.margins[key] - want.margins[key]) <= \
                    4 * math.ulp(rep.margins["min_rho_l2"])
    assert changed == FLOAT_TIES


def test_balanced_forests_lie_below_their_float_ties():
    # the true order of each tie in FLOAT_TIES: B_a2's root lies below the
    # enumeration's pick by 3.0e-17 (at n = 80) down to 2.1e-63 (at
    # n = 120), which 200 bits cannot resolve
    for n, _, a2 in FLOAT_TIES:
        fam = oracles.lna_radii(n, a2)
        rho, pick, _, _ = min(fam)
        bottom = fam[-1][1]
        assert pick != bottom
        assert oracles.mp_secular_root(bottom, False, rho, 600) < \
            oracles.mp_secular_root(pick, False, rho, 600), (n, a2)


# --- lemma2 and the merge machinery -------------------------------------------


def test_merge_threshold():
    assert merge_threshold(0) == 259
    assert merge_threshold(1) == 515
    assert merge_threshold(2) == 1027


def test_lemma2_symmetric_split():
    rep = verify_lemma2(300, 0, 149, 149)
    assert rep.holds == "certified"
    assert rep.margins["rho_gap"] > 0
    assert rep.margins["rho_after"] > rep.margins["rho_before"]
    assert (rep.params["t1"], rep.params["t2"]) == (0, 1)


@pytest.mark.parametrize("l_parts", [(), (2, 1)])
@pytest.mark.parametrize("longer", [0, 3])
@pytest.mark.parametrize("k", range(4))
def test_lemma2_cut_at_t1_t2_glues_the_merged_join(k, longer, l_parts):
    # t1/t2 name the merge as surgery on the pre-merge join: cut chain 1
    # after its t1-th vertex and chain 2 after its t2-th, glue heads to
    # heads and tails to tails, and the merged join comes out
    n2 = k + 4
    n1 = n2 + longer
    rep = verify_lemma2(2 + n1 + n2 + sum(l_parts), k, n1, n2, l_parts,
                        force=True)
    t1, t2 = rep.params["t1"], rep.params["t2"]
    assert t1 + t2 == k + 1
    h = nx.from_graph6_bytes(rep.artifacts["join_before"].encode())
    c1, c2 = (lambda i: 1 + i), (lambda j: 1 + n1 + j)
    for t, c in ((t1, c1), (t2, c2)):
        if t >= 1:
            h.remove_edge(c(t), c(t + 1))
    h.add_edge(c1(t1 + 1), c2(t2 + 1))
    if t1 >= 1 and t2 >= 1:
        h.add_edge(c1(t1), c2(t2))

    def profile(g):
        _, _, paths, hub_edge = recognize_hub_join(g)
        return hub_edge, [len(p) for p in paths]

    merged = [n1 + n2 - k - 1, k + 1, *l_parts]
    assert profile(oracles.from_nx(h)) == profile(
        join_with_paths(merged, dominating_edge=True)) == profile(
        from_graph6(rep.artifacts["join_after"])) == (
        True, sorted(merged, reverse=True))


def test_lemma2_threshold_guard_and_force():
    with pytest.raises(ValueError, match="2\\^\\(k\\+8\\)\\+3 = 259"):
        verify_lemma2(100, 0, 49, 49)
    rep = verify_lemma2(100, 0, 49, 49, force=True)
    assert rep.params["outside_hypothesis"] is True
    assert rep.holds in ("certified", "indeterminate", "violated")


def test_lemma2_preconditions():
    with pytest.raises(ValueError, match="n1 >= n2 >= k\\+2"):
        verify_lemma2(300, 0, 200, 1)
    with pytest.raises(ValueError, match="exceeds n-2"):
        verify_lemma2(300, 0, 250, 250)
    with pytest.raises(ValueError, match="residual forest order"):
        verify_lemma2(300, 0, 100, 100, (50,))
    with pytest.raises(ValueError, match="k must be >= 0"):
        verify_lemma2(300, -1, 149, 149)


def test_merge_checks_refuse_a_residual_path_longer_than_n2():
    msg = ("residual part 198 exceeds n2 = 50: "
           "n1 and n2 must be the two longest paths")
    with pytest.raises(ValueError, match=msg):
        verify_lemma2(300, 0, 50, 50, (198,))
    with pytest.raises(ValueError, match=msg):
        verify_claim33(300, 0, 50, 50, (198,))
    # a residual path as long as n2 is still one of the two longest
    assert verify_lemma2(300, 0, 100, 99, (99,)).holds == "certified"
    assert verify_claim33(300, 0, 100, 99, (99,))[0].holds == "certified"


def test_lemma2_with_residual_forest():
    rep = verify_lemma2(300, 0, 140, 140, (18,))
    assert rep.holds == "certified"
    assert rep.params["l"] == [18]
    before = from_graph6(rep.artifacts["join_before"])
    assert before.n == 300 and before.has_edge(0, 1)


# --- claim33 ------------------------------------------------------------------


def test_claim33_symmetric_split():
    rep, wits = verify_claim33(300, 0, 149, 149)
    assert rep.holds == "certified"
    assert rep.params["checked"] == 7  # 2 step bands + 1 cross + 4 strict
    assert rep.params["skipped"] == 0
    kinds = [(w.kind, w.label) for w in wits]
    assert kinds == [("A", "chain1"), ("A", "chain2"), ("B", "cross")]
    assert all(w.contained for w in wits)
    # identical chains: the cross difference is exactly zero by symmetry
    cross = wits[-1]
    assert cross.value == 0.0
    assert cross.lo < 0.0 < cross.hi
    assert rep.margins["min_band_slack"] > 0
    for name in ("chain1_step_i1", "chain1_over_chain2_i1",
                 "chain2_step_i1", "chain2_over_chain1_i1"):
        assert rep.margins[name] > 0


def test_claim33_short_chain_guards():
    # n2 = 2: a two-vertex chain has no interior step, and its entries are
    # forced equal by the swap symmetry, so those indices are skipped
    rep, wits = verify_claim33(300, 0, 296, 2)
    assert rep.holds == "certified"
    assert rep.params["checked"] == 4
    assert rep.params["skipped"] == 3
    assert [(w.kind, w.label) for w in wits] == [("A", "chain1"),
                                                 ("B", "cross")]
    assert all(w.contained for w in wits)
    assert "chain2_step_i1" not in rep.margins
    assert "chain2_over_chain1_i1" not in rep.margins
    assert rep.margins["chain1_step_i1"] > 0


def test_claim33_forced_equal_tail_entries():
    # the two vertices of a P2 chain are swapped by an automorphism; the
    # deterministic iteration preserves that equality bit for bit
    g = join_with_paths([296, 2], dominating_edge=True)
    x = spectral_radius(g).vector
    assert x[1 + 296 + 1] == x[1 + 296 + 2]


def test_claim33_witness_dict_shape():
    _, wits = verify_claim33(300, 0, 200, 98)
    d = wits[0].as_dict()
    assert list(d) == ["i", "label", "kind", "value", "lo", "hi", "contained"]
    json.dumps(d)  # must be serializable as-is


def test_claim33_interval_geometry():
    rep, wits = verify_claim33(300, 0, 150, 148)
    rho = rep.margins["rho"]
    for w in wits:
        half = 8.0 * 2.0 ** w.i / rho ** 2
        if w.kind == "A":
            assert w.lo == pytest.approx(2.0 / rho - half)
            assert w.hi == pytest.approx(2.0 / rho + half)
        else:
            assert w.lo == pytest.approx(-half)
            assert w.hi == pytest.approx(half)


def test_lemma2_sweep_interleaves_reports():
    reports = lemma2_sweep(20, 0, force=True)
    # splits of 18: n2 = 2..9
    assert len(reports) == 16
    assert [r.check_id for r in reports[:4]] == [
        "lemma2", "claim33", "lemma2", "claim33"]
    assert all(r.params["outside_hypothesis"] for r in reports)
    splits = [(r.params["n1"], r.params["n2"]) for r in reports
              if r.check_id == "lemma2"]
    assert splits == [(16, 2), (15, 3), (14, 4), (13, 5),
                      (12, 6), (11, 7), (10, 8), (9, 9)]


def counting_vector_stage(monkeypatch):
    """Record the (parts, hub_edge) of every vector-stage evaluation,
    through spectral's binding (verify imports none)."""
    from spexplanar import spectral
    solved = []
    solve = spectral._hub_join_spectrum

    def counting_solve(parts, hub_edge):
        solved.append((tuple(parts), hub_edge))
        return solve(parts, hub_edge)

    monkeypatch.setattr(spectral, "_hub_join_spectrum", counting_solve)
    return solved


def test_lemma2_reads_no_vector(monkeypatch):
    solved = counting_vector_stage(monkeypatch)
    rep = verify_lemma2(300, 0, 150, 100, [1, 47])
    assert rep.holds == "certified"
    assert solved == []


def test_lemma2_encloses_its_two_joins_in_one_batch(monkeypatch):
    from spexplanar import verify
    radii = verify.hub_join_radii
    # a batch row has the bits of the join's scalar root and enclosure
    rows = [radii([parts], True)[0] for parts in ((160, 138), (297, 1))]
    enclosed = []

    def counting_radii(forests, hub_edge):
        enclosed.append([tuple(parts) for parts in forests])
        return radii(forests, hub_edge)

    monkeypatch.setattr(verify, "hub_join_radii", counting_radii)
    rep = verify_lemma2(300, 0, 160, 138)
    assert enclosed == [[(160, 138), (297, 1)]]
    assert [rep.margins["rho_before"], rep.margins["rho_after"]] == [
        rho for rho, *_ in rows]
    assert rep.margins["rho_gap"] == rows[1][0] - rows[0][0]


def test_lemma2_sweep_solves_and_encodes_each_join_once(monkeypatch):
    from spexplanar import kernel, spectral, verify
    encoded, enclosed, rooted = [], [], []
    encode, radii = verify._join_graph6, verify.hub_join_radii
    root = kernel._secular_root

    def counting_root(groups, e, num):
        rooted.append(num)
        return root(groups, e, num)

    def counting_encode(parts, hub_edge):
        encoded.append(encode(parts, hub_edge))
        return encoded[-1]

    def counting_radii(forests, hub_edge):
        enclosed.append([tuple(parts) for parts in forests])
        return radii(forests, hub_edge)

    solved = counting_vector_stage(monkeypatch)
    monkeypatch.setattr(verify, "_join_graph6", counting_encode)
    monkeypatch.setattr(verify, "hub_join_radii", counting_radii)
    monkeypatch.setattr(kernel, "_secular_root", counting_root)
    reports = lemma2_sweep(20, 0, force=True)
    # the 8 pre-merge joins and the one post-merge join (17, 1) they share
    # are encoded once each, and solved and enclosed in one batch: one
    # Newton root call; claim33 reads closed forms over the batch rows and
    # evaluates no vector
    assert rooted == [spectral._Arrays]
    assert solved == []
    assert len(encoded) == len(set(encoded)) == 9
    assert enclosed == [[(17, 1)] + [(18 - n2, n2) for n2 in range(2, 10)]]
    assert len(reports) == 16  # equal to the single checks: the test below


@pytest.mark.parametrize("k", range(4))
def test_lemma2_sweep_reports_equal_single_checks_at_forced_orders(k):
    # every forced order from n = 6 (k = 0) on, below the secular order
    # too: a sweep's claim33 vector is evaluated at its join's batch row,
    # a single check's at its own scalar Newton root, and the reports are
    # the same bytes
    for n in range(2 * k + 6, 41):
        reports = lemma2_sweep(n, k, force=True)
        singles = []
        for n2 in range(k + 2, (n - 2) // 2 + 1):
            singles.append(verify_lemma2(n, k, n - 2 - n2, n2, force=True))
            singles.append(
                verify_claim33(n, k, n - 2 - n2, n2, force=True)[0])
        assert [r.to_json() for r in reports] == \
            [r.to_json() for r in singles], n


# --- entry bounds --------------------------------------------------------------


def test_entry_bounds_complete_bipartite_case():
    rep = verify_entry_bounds(20, [1] * 18)
    assert rep.holds == "certified"
    assert rep.margins["rho"] == pytest.approx(6.0, abs=1e-9)
    # all-singleton forest sits exactly on the lower bound 2/rho
    assert abs(rep.margins["lower_slack"]) < 1e-9
    assert rep.margins["upper_slack"] > 0
    assert rep.margins["hub_dev"] <= 1e-11


def test_entry_bounds_mixed_forest():
    rep = verify_entry_bounds(50, [24, 12, 12])
    assert rep.holds == "certified"
    assert rep.params["dominating_edge"] is False
    assert rep.margins["lower_slack"] >= -1e-11
    assert rep.margins["upper_slack"] >= -1e-11


def test_entry_bounds_fails_when_rho_is_small():
    # at tiny orders the interior of a P3 outweighs the hubs: the bound
    # statement needs large rho and must report the failure honestly
    rep = verify_entry_bounds(5, [3])
    assert rep.holds == "violated"
    assert rep.margins["hub_dev"] > 1e-11


def test_entry_bounds_of_c4_hold_on_its_tie():
    # C4 = K_{2,2}: rho = 2 and every entry 1. The hubs carry the max and
    # the singletons sit on 2/rho exactly, which the closed forms prove
    # without C = 2/(rho - 2)
    rep = verify_entry_bounds(4, [1, 1])
    assert rep.holds == "certified"
    assert rep.margins == {"rho": 2.0, "lower_slack": 0.0,
                           "upper_slack": 2.0, "hub_dev": 0.0}


def test_entry_bounds_lower_slack_is_exact_on_singletons():
    # rho y_1 = 2 + y_2: 0.0 on a singleton, y_2/rho > 0 above it
    rep = verify_entry_bounds(30, [14, 10, 3, 1])
    assert rep.margins["lower_slack"] == 0.0
    assert verify_entry_bounds(30, [14, 10, 4]).margins["lower_slack"] > 0


def widen_radii(monkeypatch, half):
    """Make verify's root stage report [rho - half, rho + half]: still an
    enclosure of rho, a wider one."""
    from spexplanar import verify
    radii = verify.hub_join_radii

    def widened(forests, hub_edge):
        return [(rho, rho - half, rho + half, steps)
                for rho, _, _, steps in radii(forests, hub_edge)]
    monkeypatch.setattr(verify, "hub_join_radii", widened)


def test_an_enclosure_that_straddles_a_bound_is_indeterminate(monkeypatch):
    # each verdict is read off the closed forms' bounds over [lo, hi]: at
    # n = 7 rho is below 4, where entry bounds compares y_max with 1, and
    # widened to +-0.2 its bounds straddle 1, as claim33's bands straddle
    # their ends. The margins stay their floats at rho
    def checks():
        return [verify_entry_bounds(7, [4, 1]),
                verify_claim33(300, 0, 149, 149)[0],
                verify_claim33(300, 0, 160, 138)[0]]

    exact = checks()
    assert [r.holds for r in exact] == ["certified"] * 3
    widen_radii(monkeypatch, 1e-6)
    assert [r.to_json() for r in checks()] == [r.to_json() for r in exact]
    widen_radii(monkeypatch, 0.2)
    wide = checks()
    assert [r.holds for r in wide] == ["indeterminate"] * 3
    assert [r.margins for r in wide] == [r.margins for r in exact]


def test_a_proven_hub_deviation_is_violated(monkeypatch):
    # below rho = 4 the middle of a longest path can outweigh the hubs:
    # K4 minus an edge, K2 + P3 and K2 + P4 (no hub edge), proven by
    # y_max's bounds above 1; widened to +-0.5 they straddle 1
    for n, parts in ((4, [2]), (5, [3]), (6, [4])):
        rep = verify_entry_bounds(n, parts)
        assert rep.holds == "violated" and rep.margins["hub_dev"] > 0.01
    widen_radii(monkeypatch, 0.5)
    assert verify_entry_bounds(6, [4]).holds == "indeterminate"


def test_entry_bounds_preconditions():
    with pytest.raises(ValueError, match="forest order"):
        verify_entry_bounds(20, [5, 5])
    with pytest.raises(ValueError, match="n >= 4"):
        verify_entry_bounds(3, [1])


def test_entry_bounds_sample_is_deterministic():
    a = entry_bounds_sample(5, 20, 40, seed=7)
    b = entry_bounds_sample(5, 20, 40, seed=7)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]
    assert len(a) == 5
    assert all(20 <= r.params["n"] <= 40 for r in a)


@pytest.mark.parametrize("count, n_lo, n_hi, match", [
    (0, 20, 100, "count=0"),
    (-1, 20, 100, "count=-1"),
    (5, 3, 100, "n_lo=3"),       # n = 3 has no forest below two hubs
    (5, 41, 40, "n_lo=41, n_hi=40"),
])
def test_entry_bounds_sample_rejects_bad_sampling(count, n_lo, n_hi, match):
    with pytest.raises(ValueError, match=match):
        entry_bounds_sample(count, n_lo, n_hi, seed=7)


# --- argmax sweep ---------------------------------------------------------------


def test_admissible_forests_against_brute_force():
    for n, k in [(10, 0), (12, 1), (20, 0), (30, 2)]:
        mine = admissible_forests(n, k, 3)
        brute = []
        for t in (1, 2, 3):
            for parts in sorted(oracles.partitions_exact(n - 2, t),
                                reverse=True):
                n1, n2 = parts[0], (parts[1] if t > 1 else 0)
                if n1 + n2 <= n - k - 3:
                    brute.append(parts)
        assert mine == brute


def test_admissible_forests_at_the_sweep_point():
    cands = admissible_forests(259, 0, 3)
    assert len(cands) == 5504
    assert cands[0] == (255, 1, 1)
    assert cands[-1] == (86, 86, 85)
    assert all(len(c) == 3 for c in cands)  # 1- and 2-part lists can't fit


def test_argmax_sweep_small_forced():
    result = argmax_sweep(30, 0, 3, force=True)
    rows = oracles.sweep_rows(result)
    rep = result.report
    assert rep.check_id == "argmax"
    assert rep.params["outside_hypothesis"] is True
    assert rep.params["candidates"] == len(rows)
    assert [r[0] for r in rows] == admissible_forests(30, 0, 3)
    assert tuple(rep.params["argmax"]) == max(rows, key=lambda r: r[1])[0]
    assert rep.margins["runner_up_gap"] > 0
    assert from_graph6(rep.artifacts["argmax_join"]) == oracles.from_nx(
        oracles.join_nx(rep.params["argmax"], True))
    jsonl = result.rows_jsonl().strip().split("\n")
    assert len(jsonl) == len(rows)
    assert json.loads(jsonl[0])["parts"] == list(rows[0][0])
    csv = result.rows_csv().strip().split("\n")
    assert csv[0] == "parts,rho,rho_lo,rho_hi,iterations"
    assert len(csv) == len(rows) + 1


@pytest.mark.parametrize("n, k, max_parts", [
    (5, 0, 3), (9, 0, 3), (30, 0, 3), (40, 11, 3), (20, 0, 6)])
def test_sweep_rows_are_the_single_solves(n, k, max_parts):
    # each row of the one batch is its forest solved alone, bit for bit
    # (below order 7, the built join's); the leader, its first ties, their
    # count and its gaps are those of max() and list scans over the rows;
    # the JSONL rows are one json.dumps per row and the CSV one formatted
    # line per row
    result = argmax_sweep(n, k, max_parts, force=True)
    rows = oracles.sweep_rows(result)
    assert [r[0] for r in rows] == admissible_forests(n, k, max_parts)
    for parts, *got in rows:
        want = hub_join_radii([parts], True)[0]
        assert list(map(repr, got)) == list(map(repr, want)), parts
    rep = result.report
    argmax, ties, margins, holds = oracles.argmax_leader(rows)
    assert (rep.params["argmax"], rep.params["ties"], rep.params["tie_count"],
            rep.holds) == (argmax, ties[:verify.TIES_SHOWN], len(ties), holds)
    assert json.dumps(rep.margins) == json.dumps(margins)
    assert result.rows_jsonl() == oracles.argmax_rows_jsonl(rows)
    assert result.rows_csv() == oracles.argmax_rows_csv(rows)


def test_the_n40_k11_argmax_is_a_two_way_tie():
    rep = argmax_sweep(40, 11, force=True).report
    assert rep.params["ties"] == [[14, 12, 12], [13, 13, 12]]
    assert rep.params["tie_count"] == 2
    assert rep.holds == "indeterminate"


def test_argmax_lists_at_most_its_first_ties_and_counts_them_all(
        monkeypatch):
    # the cap keeps the first tied candidates in candidate order, and
    # tie_count, right after ties, still counts every one
    monkeypatch.setattr(verify, "TIES_SHOWN", 1)
    params = argmax_sweep(40, 11, force=True).report.params
    assert params["ties"] == [[14, 12, 12]] and params["tie_count"] == 2
    keys = list(params)
    assert keys[keys.index("ties") + 1] == "tie_count"


def test_a_sweep_carries_python_scalars_only():
    # the report serializes with no json default, and every number of it,
    # of the rows and of the admissible list is a Python int or float
    def walk(x):
        if isinstance(x, (list, tuple)):
            for y in x:
                walk(y)
        elif isinstance(x, dict):
            for y in x.values():
                walk(y)
        else:
            assert type(x) in (int, float, bool, str), (x, type(x))

    result = argmax_sweep(20, 0, 6, force=True)
    rep = result.report
    json.dumps([rep.check_id, rep.params, rep.holds, rep.margins,
                rep.artifacts])
    walk([rep.params, rep.margins, rep.artifacts,
          list(result._row_values()), admissible_forests(20, 0, 6)])


def test_candidates_are_counted_from_the_part_counts():
    for n in range(3, 40):
        for max_parts in range(3, 8):
            count = verify._count_candidates(n, max_parts)
            assert count == sum(oracles.partition_count(n - 2, t)
                                for t in range(1, max_parts + 1))
            assert count >= len(admissible_forests(n, 0, max_parts))
    # 1 + 2,048 + round(4097^2 / 12) forests at n = 4,099: below the ceiling
    assert verify._count_candidates(4099, 3) == 1_400_833 <= MAX_CANDIDATES


@pytest.mark.parametrize("n, max_parts, count", [
    (259, 259, 15835879), (100000, 3, 833350000)])
def test_argmax_refuses_above_the_ceiling_before_listing(
        monkeypatch, n, max_parts, count):
    # p(257) = 3.9e14 forests, and 8.3e8: refused by their count, which
    # stops once past the ceiling, and nothing is listed
    def refused(*args):
        raise AssertionError("a forest was listed")
    monkeypatch.setattr(verify, "partitions", refused)
    with pytest.raises(ValueError, match=(
            f"at least {count} forests .* MAX_CANDIDATES = {MAX_CANDIDATES}")):
        argmax_sweep(n, 0, max_parts)


def test_argmax_sweep_preconditions():
    with pytest.raises(ValueError, match="max_parts"):
        argmax_sweep(259, 0, 2)
    with pytest.raises(ValueError, match="2\\^\\(k\\+8\\)\\+3"):
        argmax_sweep(30, 0, 3)
    with pytest.raises(ValueError, match="no admissible forests"):
        argmax_sweep(4, 0, 3, force=True)
    # a k that admits no forest is refused first, and any other is
    # compared with n by bit length before 2^(k+8) is built: at these
    # sizes the power overflows
    with pytest.raises(ValueError, match="need k <= n-4 = 296"):
        argmax_sweep(300, 10 ** 400, 3, force=True)
    with pytest.raises(ValueError, match=r"2\^\(k\+8\)\+3, got n=10{400} "):
        argmax_sweep(10 ** 400, 10 ** 399, 3)


# --- join artifacts ----------------------------------------------------------


def numpy_join_graph6(parts, hub_edge):
    """The join's graph6 from the oracle's numpy edge rows and encoder."""
    return oracles.graph6_from_edges(sum(parts) + 2,
                                     oracles.join_edges(parts, hub_edge))


def test_join_graph6_matches_the_numpy_encoder():
    # one seeded part list per order 3..300, in unsorted layout order;
    # orders 62 and 63 straddle graph6's header switch, 2051 and 4099 are
    # the paper's large orders
    rng = random.Random(3712)
    cases = []
    for n in range(3, 301):
        m = n - 2
        cuts = sorted(rng.sample(range(1, m), rng.randint(0, min(m - 1, 12))))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [m])]
        rng.shuffle(parts)
        cases.append(parts)
    cases += [[1] * 60, [60], [7, 40, 1, 12], [1] * 61, [61], [3, 1, 57],
              [1, 2047, 1], [1020, 1, 1028], [4097], [4, 4000, 93]]
    for parts in cases:
        for hub_edge in (True, False):
            assert verify._join_graph6(parts, hub_edge) == numpy_join_graph6(
                parts, hub_edge), (parts, hub_edge)


def test_join_graph6_reads_smaller_orders_from_the_largest_template(
        monkeypatch):
    # calls that alternate order and hub state from an empty template:
    # each larger order writes a new template, each smaller one reads a
    # prefix of it, and no edit of a copy reaches it. Orders 3..11 give
    # T(n) = n(n-1)/2 every residue mod 6 it takes (0, 1, 3, 4); all but
    # 0 leave padding bits in the last group, and a larger template sets
    # the first of them, the hub bit of (0, n)
    monkeypatch.setattr(verify, "_template", (0, b""))
    calls = [([5, 3], True), ([5, 3], False), ([3, 5], True),
             ([40, 1, 20], False), ([3, 5], False), ([61], True),
             ([30, 31], False), ([1], True), ([2], False), ([1, 2], True),
             ([2, 2], False), ([1, 4], True), ([60], False), ([1] * 61, True),
             ([8], True), ([1] * 8, False), ([4, 5], True), ([7, 2], False),
             ([200, 100], True), ([1], False)]
    for parts, hub_edge in calls * 2:
        assert verify._join_graph6(parts, hub_edge) == numpy_join_graph6(
            parts, hub_edge), (parts, hub_edge)
    assert verify._template[0] == 302


# --- report plumbing -------------------------------------------------------------


def test_reports_reproduce_byte_for_byte():
    reports = [
        verify_lemma1(40, 2, 1, [34, 2, 2], [36, 2]),
        verify_lemma2(300, 0, 160, 138),
        verify_claim33(300, 0, 160, 138)[0],
        verify_entry_bounds(30, [14, 10, 4]),
        lemma1_sweep(40)[1],
        verify_lemma2(40, 0, 19, 19, force=True),
        argmax_sweep(30, 0, 3, force=True).report,
    ]
    for rep in reports:
        assert rerun(rep).to_json() == rep.to_json(), rep.check_id


@pytest.mark.parametrize("argv", [
    "verify lemma1 --n 40 --a1 2 --a2 1 --l1 36,1,1 --l2 37,1",
    "verify lemma1 --n 40",
    "verify lemma2 --n 300 --n1 150 --n2 100 --l 1,47",
    "verify claim33 --n 300 --n1 149 --n2 149",
    "verify entry-bounds --n 4 --parts 2",
    "sweep argmax --n 40 --k 11 --force --summary-only",
], ids=["lemma1", "lemma1_pair", "lemma2", "claim33", "entry_bounds",
        "argmax"])
def test_a_printed_report_reruns_from_its_check_id_and_params(capsys, argv):
    # a report line holds nothing that rerun needs beyond check_id and
    # params, so the line itself rebuilds it
    main(argv.split())
    line = capsys.readouterr().out.splitlines()[0]
    blob = json.loads(line)
    assert list(blob) == ["check_id", "params", "holds", "margins",
                          "artifacts"]
    assert rerun(VerificationReport(**blob)).to_json() == line


def test_rerun_of_a_pair_solves_only_its_two_families(monkeypatch):
    from spexplanar import verify
    rep = lemma1_sweep(80)[4]
    assert (rep.params["a1"], rep.params["a2"]) == (3, 1)
    solved = []
    radii = verify.hub_join_radii

    def counting(forests, hub_edge):
        solved.append({len(parts) for parts in forests})
        return radii(forests, hub_edge=hub_edge)

    monkeypatch.setattr(verify, "hub_join_radii", counting)
    # T_3 and B_1 alone, enclosed in one batch
    assert rerun(rep).to_json() == rep.to_json()
    assert solved == [{4, 2}]
    with pytest.raises(ValueError, match="not in sweep"):
        rerun(type(rep)(rep.check_id, {**rep.params, "a1": 4}, rep.holds,
                        rep.margins, rep.artifacts))


def test_rerun_rejects_unknown_kind():
    rep = verify_entry_bounds(20, [18])
    bogus = type(rep)(check_id="wat", params={}, holds="certified",
                      margins={}, artifacts={})
    with pytest.raises(ValueError, match="cannot rerun"):
        rerun(bogus)


def test_report_json_shape():
    rep = verify_entry_bounds(20, [18])
    blob = json.loads(rep.to_json())
    assert set(blob) == {"check_id", "params", "holds", "margins",
                         "artifacts"}
    assert math.isfinite(blob["margins"]["rho"])


def test_reports_to_csv_layout():
    reports = [verify_entry_bounds(20, [18]),
               verify_lemma1(40, 1, 0, [36, 2], [38])]
    text = reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "check_id,instance,margin,value,holds"
    n_margins = sum(len(r.margins) for r in reports)
    assert len(lines) == 1 + n_margins
    assert lines[1].startswith("entry_bounds,")
    # instance text never smuggles a comma into the csv
    assert all(ln.count(",") == 4 for ln in lines[1:])


def test_csv_instance_identifies_each_sampled_report():
    reports = entry_bounds_sample(**gridconfig.ENTRY_BOUNDS_SAMPLE)
    lines = reports_to_csv(reports).strip().split("\n")[1:]
    assert len(reports) == 200
    assert len({ln.split(",")[1] for ln in lines}) == 200
    assert lines[0].split(",")[1].startswith("n=")
    assert "parts=[" in lines[0]


def test_rho_cache_consistency_between_checks():
    # lemma2's "before" join and claim33's join are the same graph: the
    # reported rho values must agree to the tolerance scale
    r2 = verify_lemma2(300, 0, 170, 128)
    r3, _ = verify_claim33(300, 0, 170, 128)
    assert r2.margins["rho_before"] == pytest.approx(
        r3.margins["rho"], abs=1e-10)
