"""The benchmark's checkers accept the program's real outputs and reject
deliberately wrong ones. Run with: python3 -m pytest perfbench/tests -q"""

import copy
import json
import random

import networkx as nx
import pytest

from perfbench import checks as C
from perfbench import reference as R
from perfbench.workloads import long_thin_graphs, planar_graph
from spexplanar import verify as V
import spexplanar as spex


@pytest.fixture(scope="module")
def argmax40():
    res = V.argmax_sweep(40, 0, force=True)
    rows = [json.loads(line) for line in res.rows_jsonl().splitlines()]
    return rows, json.loads(res.report.to_json())


def general_output(n, edges):
    g = spex.from_edges(n, edges)
    spec = spex.cycle_spectrum(g)
    return {"n": g.n, "edges": list(g.edges()), "planar": spex.is_planar(g),
            "rho": spex.spectral_radius(g).rho,
            "records": [(r.ell, r.status, None if r.certificate is None
                         else list(r.certificate)) for r in spec.records],
            "member": spex.in_gnk(g, 0)}


@pytest.fixture(scope="module")
def small_graph():
    rng = random.Random(7)
    n = 14
    edges = planar_graph(rng, n, 6)
    return n, edges, general_output(n, edges)


# --- the reference itself ------------------------------------------------------


def test_secular_rho_matches_eigvalsh():
    forests = [(6,), (5, 3), (30, 1, 1), (7, 7, 2, 1), (1,) * 9]
    for hub_edge in (True, False):
        ref = R.hub_join_rho(forests, hub_edge)
        for f, x in zip(forests, ref):
            d = R.dense_rho(sum(f) + 2, R.hub_join_edges(f, hub_edge))
            assert abs(x - d) < 1e-12
    with pytest.raises(ValueError):  # K3: rho = 2 is below the bracket
        R.hub_join_rho([(1,)], hub_edge=True)


def test_partition_counts_agree():
    for total in range(1, 25):
        for parts in range(1, 6):
            assert len(R.partitions(total, parts)) == R.partition_count(total, parts)
    assert R.admissible_count(259, 0, 3) == len(R.admissible_forests(259, 0, 3)) == 5504


def test_generated_inputs_are_planar():
    rng = random.Random(3)
    graphs = [(n, planar_graph(rng, n, n // 2)) for n in (12, 18, 24)]
    graphs += long_thin_graphs(rng)
    for n, edges in graphs:
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        assert nx.is_connected(g)
        assert nx.check_planarity(g)[0]


# --- acceptance of real outputs --------------------------------------------------


def test_real_outputs_pass(argmax40, small_graph):
    rows, report = argmax40
    assert C.check_argmax(40, 0, 3, rows, report, random.Random(1)) == []
    n, edges, out = small_graph
    assert C.check_general(n, edges, out) == []
    reps = [json.loads(r.to_json()) for r in V.lemma2_sweep(40, 0, force=True)]
    assert C.check_merge(40, 0, reps) == []
    assert all(C.check_dense(r) == [] for r in reps)
    reps = [json.loads(r.to_json()) for r in V.lemma1_sweep(40)]
    assert C.check_lemma1(40, reps) == []


# --- rejection of wrong outputs -------------------------------------------------


def test_rho_off_by_1e6_is_rejected(argmax40, small_graph):
    rows, report = argmax40
    bad = copy.deepcopy(rows)
    bad[17]["rho"] += 1e-6
    assert C.check_argmax(40, 0, 3, bad, report, random.Random(1))
    parts = [tuple(r["parts"]) for r in rows[:5]]
    good = [(p, True, r["rho"]) for p, r in zip(parts, rows)]
    assert C.check_join_rhos(good, random.Random(1)) == []
    shifted = [(p, h, rho + 1e-6) for p, h, rho in good]
    assert C.check_join_rhos(shifted, random.Random(1))
    n, edges, out = small_graph
    assert C.check_general(n, edges, dict(out, rho=out["rho"] + 1e-6))


def test_wrong_argmax_is_rejected(argmax40):
    rows, report = argmax40
    bad = copy.deepcopy(report)
    bad["params"]["argmax"] = [35, 2, 1]
    assert C.check_argmax(40, 0, 3, rows, bad, random.Random(1))
    # a maximiser row whose rho is lowered below the runner-up
    bad_rows = copy.deepcopy(rows)
    best = max(bad_rows, key=lambda r: r["rho"])
    best["rho"] -= 1e-3
    assert C.check_argmax(40, 0, 3, bad_rows, report, random.Random(1))


def test_certificate_that_is_not_a_cycle_is_rejected(small_graph):
    n, edges, out = small_graph
    records = list(out["records"])
    i = next(i for i, r in enumerate(records) if r[1] == "present" and r[0] >= 4)
    ell, status, cert = records[i]
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    # reorder the vertices until some step is not an edge of the input
    broken = cert[:]
    for j in range(1, len(broken)):
        broken[0], broken[j] = broken[j], broken[0]
        if not R.is_simple_cycle(edge_set, n, broken):
            break
    assert not R.is_simple_cycle(edge_set, n, broken)
    records[i] = (ell, status, broken)
    assert C.check_general(n, edges, dict(out, records=records))
    records[i] = (ell, status, cert[:-1] + [cert[0]])  # repeats a vertex
    assert C.check_general(n, edges, dict(out, records=records))


def test_absent_length_that_is_present_is_rejected(small_graph):
    n, edges, out = small_graph
    records = list(out["records"])
    i = next(i for i, r in enumerate(records) if r[1] == "present")
    records[i] = (records[i][0], "absent", None)
    assert C.check_general(n, edges, dict(out, records=records))


def test_wrong_member_witness_is_rejected(small_graph):
    n, edges, out = small_graph
    flag, witness = out["member"]
    assert C.check_general(n, edges, dict(out, member=(flag, (witness or n) - 1)))
    assert C.check_member({"member": True, "witness": 258}, (255, 1, 1))
    assert C.check_member({"member": True, "witness": 259}, (255, 1, 1)) == []


def test_wrong_verify_margins_are_rejected():
    reps = [json.loads(r.to_json()) for r in V.lemma2_sweep(40, 0, force=True)]
    claim = copy.deepcopy(reps[1])
    claim["margins"]["min_band_slack"] += 1e-6
    assert C.check_dense(claim)
    lemma = copy.deepcopy(reps[0])
    lemma["margins"]["rho_after"] += 1e-6
    assert C.check_merge(40, 0, [lemma] + reps[1:])
    assert C.check_merge(40, 0, reps[:-2])   # a split missing
    rep, wits = V.verify_claim33(40, 0, 20, 18, force=True)
    lines = [json.loads(rep.to_json())] + [{"witness": w.as_dict()} for w in wits]
    assert C.check_claim33(40, 0, [((20, 18), lines)]) == []
    lines[0]["margins"]["rho"] += 1e-6
    assert C.check_claim33(40, 0, [((20, 18), lines)])
    l1 = [json.loads(r.to_json()) for r in V.lemma1_sweep(60)]
    l1[0]["params"]["worst_l1"] = list(R.partitions(58, l1[0]["params"]["a1"] + 1)[-1])
    assert C.check_lemma1(60, l1)


def test_failing_cycle_search_returns_are_checked():
    n = 8
    assert C.check_cycle(n, list(range(n))) == []
    assert C.check_cycle(n, [0, 2, 1, 3, 4, 5, 6, 7])
    assert C.check_cycle(n, None)
