"""The secular engine for hub joins against the dense eigensolver.

`spectral_radius` sends every join `recognize_hub_join` accepts to the
secular equation and everything else to the dense solve; both must
agree with LAPACK on rho and on the max-normalized Perron vector, and the
residual recomputed from the dense adjacency matrix must meet tol.
"""

import hashlib
import io
import json
import math
import random
import sys

import numpy as np
import pytest

from spexplanar import (ConvergenceError, argmax_sweep, complete_bipartite,
                        complete_graph, cycle_graph, from_edges,
                        from_graph6, hub_join_radii, hub_join_spectrum,
                        join_with_paths, path_graph,
                        recognize_hub_join, spectral_radius, to_graph6)
from spexplanar import kernel, spectral
from spexplanar.cli import main
from spexplanar.verify import (entry_bounds_sample, lemma1_sweep,
                               lemma2_sweep, verify_claim33,
                               verify_entry_bounds, verify_lemma1)
from spexplanar.spectral import adjacency_matrix

import oracles
from oracles import enumerate_lna

TOL = 1e-12
AGREE = 1e-10


def assert_matches_dense(g, solver=None):
    res = spectral_radius(g)
    if solver is not None:
        assert res.solver == solver
    assert abs(res.rho - oracles.dense_rho(g)) <= AGREE
    assert res.vector.max() == 1.0
    assert np.max(np.abs(res.vector - oracles.dense_perron(g))) <= AGREE
    a = adjacency_matrix(g)
    assert np.max(np.abs(a @ res.vector - res.rho * res.vector)) <= TOL
    assert res.residual <= TOL
    return res


def forests_up_to_three_parts(total):
    for a in range(min(3, total)):
        for lf in enumerate_lna(total + 2, a):
            yield lf.parts


def test_every_join_of_at_most_three_parts():
    joins = 0
    for n in range(5, 41):
        for parts in forests_up_to_three_parts(n - 2):
            for hub_edge in (True, False):
                g = join_with_paths(parts, hub_edge)
                recognized = recognize_hub_join(g) is not None
                # from n = 7 no forest vertex reaches the hub degree n - 2
                assert recognized or n < 7, (parts, hub_edge)
                assert_matches_dense(g, "secular" if recognized else "dense")
                joins += 1
    assert joins > 3000


def test_every_forest_up_to_order_fourteen():
    for n in range(5, 15):
        for a in range(n - 2):
            for lf in enumerate_lna(n, a):
                for hub_edge in (True, False):
                    assert_matches_dense(join_with_paths(lf.parts, hub_edge))


def test_relabelled_joins_given_as_graph6():
    rng = random.Random(20261018)
    for _ in range(150):
        total = rng.randint(5, 45)
        parts = []
        while sum(parts) < total:
            parts.append(rng.randint(1, total - sum(parts)))
        rng.shuffle(parts)
        hub_edge = rng.random() < 0.5
        base = join_with_paths(parts, hub_edge)
        perm = list(range(base.n))
        rng.shuffle(perm)
        g = from_graph6(to_graph6(from_edges(
            base.n, [(perm[u], perm[v]) for u, v in base.edges()])))
        res = assert_matches_dense(g, "secular")
        expected = oracles.dense_perron(base)
        mapped = res.vector[perm]  # entry of base vertex v sits at perm[v]
        assert np.max(np.abs(mapped - expected)) <= AGREE


@pytest.mark.parametrize("g", [
    path_graph(3),
    cycle_graph(4),              # C4 = K_{2,2}: rho = 2
    complete_graph(3),           # rho = 2
    complete_graph(4),           # K2 + P2: four vertices of degree n-1
    join_with_paths([3], True),  # K2 + P3: three vertices of degree n-1
    join_with_paths([3], False),
], ids=["P3", "C4", "K3", "K4", "K2+P3", "2K1+P3"])
def test_unrecognized_small_joins_fall_back(g):
    assert recognize_hub_join(g) is None
    assert_matches_dense(g, "dense")


def test_recognizer_reports_the_hub_edge():
    hub1, hub2, paths, hub_edge = recognize_hub_join(
        join_with_paths([2, 3, 1], True))
    assert (hub1, hub2, hub_edge) == (0, 1, True)
    assert paths == [[4, 5, 6], [2, 3], [7]]
    assert recognize_hub_join(complete_bipartite(2, 4))[3] is False
    assert recognize_hub_join(join_with_paths([2, 2], False))[2] == [
        [2, 3], [4, 5]]
    # hubs over a cycle, and a hub pair with a missing spoke
    assert recognize_hub_join(from_edges(
        6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)]
        + [(h, v) for h in (0, 1) for v in range(2, 6)])) is None
    assert recognize_hub_join(from_edges(
        7, [(h, v) for h in (0, 1) for v in range(2, 7) if (h, v) != (1, 6)]
        + [(5, 6)])) is None


def test_thousands_of_parts_stay_on_the_secular_path():
    # equal path orders are summed as one term, so rounding stays below tol
    m = 2000
    for parts, hub_edge, rho in [
            ([1] * m, False, (8 * m) ** 0.5 / 2),           # K_{2,m}
            ([1] * m, True, (1 + (1 + 8 * m) ** 0.5) / 2)]:
        res = spectral_radius(join_with_paths(parts, hub_edge))
        assert res.solver == "secular"
        assert res.residual <= TOL
        assert res.rho == pytest.approx(rho, abs=AGREE)
    res = spectral_radius(join_with_paths([3, 2, 1] * 333, True))
    assert res.solver == "secular" and res.residual <= TOL


def forbid_eigh(monkeypatch):
    def eigh(a):
        raise AssertionError("a hub join reached the dense solve")
    monkeypatch.setattr(np.linalg, "eigh", eigh)


def assert_every_entry_point_raises(parts, hub_edge, capsys):
    # the vector stage, then the root stage: one row takes the scalar root
    # and enclosure, two rows the numpy batch
    for solve in (lambda: spectral_radius(join_with_paths(parts, hub_edge)),
                  lambda: hub_join_spectrum(parts, hub_edge),
                  lambda: hub_join_radii([parts], hub_edge),
                  lambda: hub_join_radii([parts, parts], hub_edge)):
        with pytest.raises(ConvergenceError):
            solve()
    # spex rho on the join's graph6 and, with the hub edge, its join
    # string: each with and without the vector
    graphs = [to_graph6(join_with_paths(parts, hub_edge))]
    if hub_edge:
        graphs.append("k2+[" + ",".join(map(str, parts)) + "]")
    for graph in graphs:
        for vector in ([], ["--emit-vector"]):
            assert main(["rho", graph, *vector]) == 1, (graph, vector)
    assert capsys.readouterr().out == ""


def test_residual_miss_raises_from_every_entry_point(monkeypatch, capsys):
    # the secular engine certifies tol or raises: no dense solve behind it.
    # The vector stage misses on its residual; the root stage on f's bounds,
    # which then never prove a sign, so its enclosure widens past tol
    forbid_eigh(monkeypatch)
    for miss in (1.0, math.nan):
        monkeypatch.setattr(spectral, "_join_residual",
                            lambda y, idx, part, rho, e: miss)
        # one kernel for both number types: a float rho gives the float
        # miss, an array of rho an array of it
        monkeypatch.setattr(
            kernel, "_secular_bound",
            lambda groups, rho, e, toward, num: rho * 0.0 + miss)
        for hub_edge in (True, False):
            assert_every_entry_point_raises((6, 3, 1), hub_edge, capsys)


def test_max_iterations_caps_the_root_finder_too(monkeypatch, capsys):
    g = join_with_paths([9, 4, 2], True)
    assert spectral_radius(g).iterations <= 8
    # a row stopped at the Newton cap misses tol and raises
    monkeypatch.setattr(kernel, "NEWTON_CAP", 1)
    forbid_eigh(monkeypatch)
    assert_every_entry_point_raises((9, 4, 2), True, capsys)


def test_batched_radii_match_single_solves_bit_for_bit():
    forests = [lf.parts for a in range(4) for lf in enumerate_lna(24, a)]
    for hub_edge in (True, False):
        rows = hub_join_radii(forests, hub_edge)
        assert len(rows) == len(forests)
        # a row's bits do not depend on the rows batched with it
        assert hub_join_radii(forests[0::2], hub_edge) == rows[0::2]
        assert hub_join_radii(forests[1::2], hub_edge) == rows[1::2]
        for parts, row in zip(forests, rows):
            rho, lo, hi, steps = row
            assert hub_join_radii([parts], hub_edge) == [row]
            single = spectral_radius(join_with_paths(parts, hub_edge))
            assert single.solver == "secular"
            assert rho == single.rho
            assert steps == single.iterations
            assert lo < rho < hi and hi - lo <= TOL * rho


def test_batched_radii_fall_back_below_the_secular_range():
    # K4 minus an edge: the all-singleton start (e + sqrt(e^2 + 8M))/2 is 2,
    # so its radius is enclosed by Collatz-Wielandt bounds
    (rho, lo, hi, _), = hub_join_radii([(2,)], hub_edge=False)
    assert rho == pytest.approx((1 + 17 ** 0.5) / 2, abs=AGREE)
    assert lo < (1 + 17 ** 0.5) / 2 < hi and hi - lo <= TOL * rho
    # K3 and P3: radius 2 and sqrt(2), where the secular equation has none
    assert hub_join_radii([(1,)], hub_edge=True)[0][1:3] == (
        math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0))
    (_, lo, hi, _), = hub_join_radii([(1,)], hub_edge=False)
    assert lo < math.sqrt(2) < hi
    with pytest.raises(ValueError, match="single order"):
        hub_join_radii([(3, 1), (2,)], hub_edge=True)
    with pytest.raises(ValueError, match=">= 1"):
        hub_join_radii([(3, 0)], hub_edge=True)
    with pytest.raises(ValueError, match=">= 1"):
        hub_join_radii([(9, 0)], hub_edge=True)


def test_cli_rho_equals_sweep_rho_max_bit_for_bit(capsys):
    rho_max = argmax_sweep(259, 0, 3).report.margins["rho_max"]
    assert main(["rho", "k2+[255,1,1]"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rho"] == rho_max


# --- one join, every entry point ---------------------------------------------


def rho_cli(capsys, *argv):
    assert main(["rho", *argv]) == 0
    blob = json.loads(capsys.readouterr().out)
    return blob["rho"], blob["rho_lo"], blob["rho_hi"], blob["iterations"]


def relabelled_graph6(parts, hub_edge, rng):
    base = join_with_paths(parts, hub_edge)
    perm = list(range(base.n))
    rng.shuffle(perm)
    return to_graph6(from_edges(base.n,
                                [(perm[u], perm[v]) for u, v in base.edges()]))


def seeded_joins():
    rng = random.Random(20261019)
    for _ in range(40):
        total = rng.randint(5, 298)
        parts = []
        while sum(parts) < total:
            parts.append(rng.randint(1, total - sum(parts)))
        rng.shuffle(parts)
        yield parts
    yield [1] * 2000
    yield [3, 2, 1] * 333


def test_secular_roots_keep_their_bits(capsys):
    # pinned (rho, Newton steps): a change in the order of the Newton
    # step's floating-point operations shows here. One Newton driver runs
    # a single join in Python floats and a batch of two rows in numpy
    # arrays.
    assert rho_cli(capsys, "k2+[150,60,47]")[::3] == (24.165636165113284, 3)
    assert rho_cli(capsys, "extremal(2051,3)")[::3] == (65.51612262518911, 3)
    for rows in (1, 2):
        assert hub_join_radii([[1] * 2000] * rows, False)[0][::3] == (
            63.24555320336759, 1)
        assert hub_join_radii([[3, 2, 1] * 333] * rows, True)[0][::3] == (
            64.21651837311305, 3)
    assert spectral_radius(join_with_paths([9, 4, 2], False)).rho == \
        float.fromhex("0x1.96f3bb4f840b7p+2")


ONE = "0x1.0000000000000p+0"


@pytest.mark.parametrize("parts, hub_edge, want, digest", [
    ([150, 60, 47], True, ("0x1.82a6721b83248p+4", "0x1.0000000000000p-48",
                           "0x1.92a6721b83246p+4", "0x1.6242dab185e89p-4",
                           ONE), "1e05c807c3548c04"),
    ([3, 5, 1, 5], False, ("0x1.85c509bd21d60p+2", "0x1.0000000000000p-50",
                           "0x1.02e284de90eb0p+3", "0x1.5047d87619adap-2",
                           ONE), "28204042e0165cc1"),
    ([150, 100, 1, 47], True, ("0x1.9e7ba264d3336p+4",
                               "0x1.0000000000000p-47",
                               "0x1.ae7ba264d3337p+4",
                               "0x1.3c3aea6a130a0p-4", ONE),
     "2058e3f44b9bcf2c")])
def test_perron_vectors_keep_their_bits(parts, hub_edge, want, digest):
    # pinned rho, residual and the vector's sum, min and max: a change in
    # the order of the vector stage's floating-point operations, in its
    # residual's layout or in its scatter into block order shows here.
    # The digest of every entry catches a reassociation that leaves the
    # sum and extremes as they were
    res = hub_join_spectrum(parts, hub_edge)
    got = (res.rho, res.residual, *map(float, (
        res.vector.sum(), res.vector.min(), res.vector.max())))
    assert tuple(map(float.hex, got)) == want
    assert hashlib.sha256(res.vector.astype("<f8").tobytes()).hexdigest()[
        :16] == digest


def seeded_forests(rng, count):
    # forest orders 5..4,097 (join orders 7..4,099): short parts, any
    # parts, or a few long ones
    for _ in range(count):
        total = rng.randint(5, 4097)
        longest = rng.choice([4, total, max(1, total // 3)])
        parts = []
        while sum(parts) < total:
            parts.append(rng.randint(1, min(longest, total - sum(parts))))
        yield parts


def seeded_batch():
    # each forest's groups, and the columns of the batch of all of them
    forests = list(seeded_forests(random.Random(20261020), 150))
    return ([kernel._part_groups(parts) for parts in forests],
            spectral._columns(spectral._parts_array(forests)))


def test_columns_are_the_part_groups_of_each_row():
    # read off a batch's part array by run-length encoding, the columns
    # hold each row's (path order, count) pairs longest first, then zero
    # padding: on repeated parts, the admissible forests of 4 to 6 parts
    # (rows padded with 0) and rows of 2,000 singletons
    from spexplanar import verify
    rng = random.Random(20261023)
    repeated = [[rng.choice([1, 2, 3, 7]) for _ in range(rng.randint(1, 12))]
                for _ in range(200)]
    singletons = [[1] * 2000, [2] + [1] * 1998, [3] * 500 + [1] * 500,
                  [1000, 1000], [1999, 1]]
    batches = [spectral._parts_array(repeated),
               verify._candidates(22, 0, 6)[-300:],
               spectral._parts_array(singletons)]
    for parts in batches:
        rows = [[p for p in row if p] for row in parts.tolist()]
        want = [kernel._part_groups(row) for row in rows]
        cols = spectral._columns(parts)
        assert len(cols) == max(map(len, want))
        for i, groups in enumerate(want):
            got = [(int(m[i]), int(cnt[i])) for m, cnt in cols]
            assert got == groups + [(0, 0)] * (len(cols) - len(groups))


@pytest.mark.parametrize("cap", [None, 1, 2])
def test_scalar_root_matches_the_batch_bit_for_bit(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(kernel, "NEWTON_CAP", cap)
    # the one Newton driver in Python floats per row against the same
    # driver in numpy arrays on the batch's columns
    groups, cols = seeded_batch()
    for e in (0.0, 1.0):
        rho, steps = kernel._secular_root(cols, e, spectral._Arrays)
        for grp, want in zip(groups, zip(rho.tolist(), steps.tolist())):
            assert kernel._secular_root(
                grp, e, kernel._Floats) == want, (grp, e)
        if cap is not None:
            assert steps.max() == cap
        else:
            # rows that finish early keep their rho and steps while the
            # others go on
            assert len(set(steps.tolist())) >= 2


def test_scalar_secular_matches_the_batch_bit_for_bit():
    # f and f' themselves, not only the root Newton settles on: a change
    # in rounding that the converged rho absorbs still shows here
    rng = random.Random(20261021)
    groups, cols = seeded_batch()
    for e in (0.0, 1.0):
        root, _ = kernel._secular_root(cols, e, spectral._Arrays)
        for scale in (0.5, 0.9, 1.0, 1.3):
            rho = 2.0 + (root - 2.0) * scale * np.array(
                [rng.uniform(0.99, 1.01) for _ in groups])
            f, df = kernel._secular(cols, rho, e, spectral._Arrays)
            for i, grp in enumerate(groups):
                assert kernel._secular(
                    grp, float(rho[i]), e, kernel._Floats) == (
                    f[i], df[i]), (grp, e, rho[i])


def small_joins():
    # orders 3 to 6: below SECULAR_ORDER, where the recognizer picks
    return [lf.parts for n in range(3, 7) for a in range(n - 2)
            for lf in enumerate_lna(n, a)]


def test_entry_points_agree_bit_for_bit(capsys):
    # the root stage: the join's row of a batch (both drivers in numpy
    # arrays), the join alone (in Python floats), the family string (hubs
    # adjacent) and a relabelled graph6 of the join that the recognizer
    # accepts. The vector stage: the single-join solve from parts and the
    # built join, on the same rho and Newton steps
    rng = random.Random(7)
    for parts in [*small_joins(), *seeded_joins()]:
        total = sum(parts)
        for hub_edge in (True, False):
            want = hub_join_radii([[total], parts, [1] * total], hub_edge)[1]
            rho, lo, hi, steps = want
            assert lo <= rho <= hi, (parts, hub_edge)
            assert hub_join_radii([parts], hub_edge) == [want]
            # the root stage reads the forest, not the layout it is given in
            assert hub_join_radii([parts[::-1]], hub_edge) == [want]
            from_parts = hub_join_spectrum(parts, hub_edge)
            assert (from_parts.rho, from_parts.iterations) == (rho, steps)
            # the vector in join_with_paths layout, parts in any order
            built = spectral_radius(join_with_paths(parts, hub_edge))
            assert (built.rho, built.residual, built.iterations) == (
                from_parts.rho, from_parts.residual, from_parts.iterations)
            assert np.array_equal(from_parts.vector, built.vector)
            assert from_parts.solver == built.solver
            g6 = relabelled_graph6(parts, hub_edge, rng)
            if recognize_hub_join(from_graph6(g6)) is not None:
                assert rho_cli(capsys, g6) == want, (parts, hub_edge)
            else:
                assert total + 2 < kernel.SECULAR_ORDER
            if hub_edge:
                family = "k2+[" + ",".join(map(str, parts)) + "]"
                assert rho_cli(capsys, family) == want, parts


@pytest.mark.parametrize("family", [
    "k2+[150,60,47]", "k2+[3,5,1,5]", "extremal(40,3)", "k2+[1,1,1,1,1]",
    "k2+[2,2]", "k2+[3]", "k2+[1]"])
def test_family_vector_equals_the_built_graph_vector(capsys, monkeypatch,
                                                     family):
    assert main(["build", family]) == 0
    g6 = capsys.readouterr().out
    assert main(["rho", family, "--emit-vector"]) == 0
    direct = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(g6))
    assert main(["rho", "-", "--emit-vector"]) == 0
    assert capsys.readouterr().out == direct


def forbid(monkeypatch, fn):
    """Make every spexplanar module's binding of `fn` raise."""
    def refused(*args, **kwargs):
        raise AssertionError(f"{fn.__name__} was called")
    for name, mod in list(sys.modules.items()):
        if name == "spexplanar" or name.startswith("spexplanar."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, refused)


def test_join_solves_build_and_recognize_nothing(monkeypatch, capsys):
    from spexplanar import families, graphs, verify
    forbid(monkeypatch, families.recognize_hub_join)
    forbid(monkeypatch, graphs.from_edges)
    for argv in (["k2+[150,60,47]"], ["extremal(2051,3)", "--emit-vector"]):
        assert main(["rho", *argv]) == 0
    capsys.readouterr()
    # the vector stage solves from the part list, and verify encodes each
    # join's graph6 from its edge rows
    hub_join_spectrum([9, 4, 2], False)
    verify._join_graph6([9, 4, 2], False)
    verify.verify_lemma1(40, 2, 0, [30, 4, 4], [38])
    verify.lemma1_sweep(40)
    verify.argmax_sweep(30, 0, force=True)
    verify.verify_entry_bounds(22, [16, 3, 1])
    verify.lemma2_sweep(20, 0, force=True)
    verify.verify_claim33(300, 0, 200, 98)


def test_lemma1_enumerates_no_family(monkeypatch, capsys):
    # each family is decided by its two extreme joins: the sweep, a rerun
    # of a pair and the CLI at n = 515 (|L_{515,7}| = 5.3e10) enumerate
    # nothing: `families.partitions` is the one forest generator
    from spexplanar import families, verify
    forbid(monkeypatch, families.partitions)
    rep = lemma1_sweep(80)[4]
    assert verify.rerun(rep).to_json() == rep.to_json()
    assert main(["verify", "lemma1", "--n", "515"]) == 0
    out = capsys.readouterr().out
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 36
    assert {r["holds"] for r in reports} == {"certified"}


# --- root enclosures ------------------------------------------------------------


def test_enclosures_hold_the_200_bit_root():
    rng = random.Random(20261018)
    forests = [*seeded_forests(rng, 16), [4087, 5, 5], [2000, 2000, 97]]
    for parts in forests:
        for hub_edge in (True, False):
            (rho, lo, hi, _), = hub_join_radii([parts], hub_edge)
            root = oracles.mp_secular_root(parts, hub_edge, rho)
            assert lo < root < hi, (parts, hub_edge)
            assert hi - lo <= TOL * rho


def test_the_quotient_start_lies_below_the_root(monkeypatch):
    # Newton starts at the top eigenvalue of the hub/forest quotient
    # matrix: at least the all-singleton root, at most rho by interlacing
    # (a float start may round a few ulps past it), and rho itself on the
    # equitable forests, all parts 1 or all parts 2. With no Newton step
    # allowed, the driver returns its start
    monkeypatch.setattr(kernel, "NEWTON_CAP", 0)
    rng = random.Random(20261024)
    equitable = [[1] * 5, [1] * 2000, [2] * 3, [2] * 1000]
    for parts in [*seeded_forests(rng, 12), [4087, 5, 5], *equitable]:
        order = sum(parts)
        for hub_edge in (True, False):
            e = float(hub_edge)
            start, steps = kernel._secular_root(
                kernel._part_groups(parts), e, kernel._Floats)
            assert steps == 0
            assert start >= (e + math.sqrt(e * e + 8.0 * order)) / 2.0
            root = oracles.mp_secular_root(parts, hub_edge, start)
            assert start - root <= 4 * math.ulp(start), (parts, hub_edge)
            if parts in equitable:
                assert abs(start - root) <= 2 * math.ulp(start), parts


def test_hub_joins_take_three_newton_steps():
    # from the quotient start every argmax candidate at n = 259, 1027 and
    # 2051 takes 3 steps, and no seeded join more than 5
    for n, k in ((259, 0), (1027, 2), (2051, 3)):
        assert set(argmax_sweep(n, k).steps.tolist()) == {3}, n
    rng = random.Random(20261025)
    steps = [kernel.join_radius(parts, hub_edge)[3]
             for parts in seeded_forests(rng, 400)
             for hub_edge in (True, False)]
    assert max(steps) <= 5
    for parts in ([1] * 2000, [2] * 1000):  # the start is the root
        assert kernel.join_radius(parts, True)[3] == 1


def test_the_n2051_argmax_is_proven_by_disjoint_enclosures():
    leader, *others = hub_join_radii(
        [[2041, 4, 4], [2040, 5, 4], [1371, 383, 295]], True)
    for rho, lo, hi, _ in others:
        # float gaps of 2.6e-11 and 5.3e-11 against enclosures 2.3e-13
        # wide, where a slack of 10*(tol + tol) proves nothing
        assert hi < leader[1], (leader, rho)
        assert leader[0] - rho < 1e-10


@pytest.mark.parametrize("ulps", [1, 8])
def test_scalar_enclosure_matches_the_batch_bit_for_bit(monkeypatch, ulps):
    # from one ulp out, most rows double a few times before they hold
    monkeypatch.setattr(kernel, "ENCLOSE_ULPS", ulps)
    arrays, floats = spectral._Arrays, kernel._Floats
    groups, cols = seeded_batch()
    for e in (0.0, 1.0):
        rho, _ = kernel._secular_root(cols, e, arrays)
        lo, hi = kernel._enclose_root(cols, rho, e, arrays)
        for i, grp in enumerate(groups):
            assert kernel._enclose_root(
                grp, float(rho[i]), e, floats) == (
                lo[i], hi[i]), (grp, e)
        # rows that hold early keep their lo and hi while the others
        # double: the widths, in units of the first, take two or more values
        widths = (hi - lo) / (2 * ulps * np.spacing(rho))
        assert len(set(widths.tolist())) >= 2, ulps


def test_scalar_secular_bound_matches_the_batch_bit_for_bit():
    rng = random.Random(20261022)
    groups, cols = seeded_batch()
    arrays, floats = spectral._Arrays, kernel._Floats
    for e in (0.0, 1.0):
        root, _ = kernel._secular_root(cols, e, arrays)
        for scale in (0.5, 1.0, 1.3):
            rho = 2.0 + (root - 2.0) * scale * np.array(
                [rng.uniform(0.99, 1.01) for _ in groups])
            upper = kernel._secular_bound(cols, rho, e, -np.inf, arrays)
            lower = kernel._secular_bound(cols, rho, e, np.inf, arrays)
            f, _ = kernel._secular(cols, rho, e, arrays)
            assert np.all((lower <= f) & (f <= upper))
            for i, grp in enumerate(groups):
                x = float(rho[i])
                assert kernel._secular_bound(
                    grp, x, e, -math.inf, floats) == upper[i], (grp, e, x)
                assert kernel._secular_bound(
                    grp, x, e, math.inf, floats) == lower[i], (grp, e, x)


def test_an_enclosure_wider_than_tol_raises(monkeypatch):
    # the gate reads kernel.TOL at call time
    monkeypatch.setattr(kernel, "TOL", 1e-16)
    for rows in (1, 2):
        with pytest.raises(ConvergenceError) as ei:
            hub_join_radii([[150, 60, 47]] * rows, True)
        assert ei.value.measure == "enclosure width"
        assert ei.value.value > ei.value.bound > 1e-16
        assert "enclosure width" in str(ei.value)


def _root_measure(rows):
    # the row whose width is widest against max(1, rho): the one to miss
    rho, lo, hi, _ = max(rows, key=lambda row: (row[2] - row[1]) / row[0])
    return hi - lo, rho


def _residual_measure(res):
    return res.residual, res.rho


# each route a solve checks: (solve, its gated value and rho, measure),
# every rho above 1, so that a value between TOL and TOL * rho tells the
# rho-relative gate from an absolute one
GATE_ROUTES = {
    "root-one-row": (lambda: hub_join_radii([[150, 60, 47]], True),
                     _root_measure, "enclosure width"),
    "root-two-rows": (lambda: hub_join_radii([[150, 60, 47], [200, 56, 1]],
                                             True),
                      _root_measure, "enclosure width"),
    "vector": (lambda: hub_join_spectrum([150, 60, 47], True),
               _residual_measure, "residual"),
    # a triangle with a tail P4: one odd block, not regular, not a join
    "dense-odd-block": (lambda: spectral_radius(from_edges(
        6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])),
        _residual_measure, "residual"),
    "bipartite": (lambda: spectral_radius(path_graph(12)),
                  _residual_measure, "residual"),
    # K4 minus an edge: Collatz-Wielandt bounds, wider than its residual
    "small-join": (lambda: hub_join_radii([[2]], False),
                   _root_measure, "enclosure width"),
}


def _bits(out):
    if isinstance(out, list):
        return out
    return (out.rho, out.residual, out.iterations, out.solver,
            out.vector.tobytes())


@pytest.mark.parametrize("route", GATE_ROUTES)
def test_one_gate_on_every_route(monkeypatch, route):
    # the gate reads kernel.TOL at call time: with the bound just above
    # the route's gated value the solve returns the same bits, just below
    # it raises on that value
    solve, measure, name = GATE_ROUTES[route]
    out = solve()
    value, rho = measure(out)
    assert rho > 1.0 and value > 0.0
    monkeypatch.setattr(kernel, "TOL", value / rho * (1.0 + 1e-9))
    assert value > kernel.TOL  # an absolute gate would refuse it
    assert _bits(solve()) == _bits(out)
    monkeypatch.setattr(kernel, "TOL", value / rho * (1.0 - 1e-9))
    with pytest.raises(ConvergenceError) as ei:
        solve()
    assert (ei.value.measure, ei.value.value) == (name, value)
    assert ei.value.bound == kernel.TOL * rho
    assert "\n" not in str(ei.value)


@pytest.mark.parametrize("route", GATE_ROUTES)
def test_a_nan_misses_the_gate_on_every_route(monkeypatch, route):
    # a NaN root, or NaN eigenvectors from the dense solve: NaN is not at
    # most any bound
    root, eigh = kernel._secular_root, np.linalg.eigh

    def nan_root(groups, e, num):
        rho, steps = root(groups, e, num)
        return rho * math.nan, steps

    def nan_eigh(a):
        w, vec = eigh(a)
        return w, vec * math.nan
    # the root stage's binding, and the vector stage's
    for mod in (kernel, spectral):
        monkeypatch.setattr(mod, "_secular_root", nan_root)
    monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
    with pytest.raises(ConvergenceError) as ei:
        GATE_ROUTES[route][0]()
    assert math.isnan(ei.value.value)


def test_slices_give_the_rows_of_one_batch(monkeypatch):
    # a row's bits do not depend on the slice it is solved in: slices of
    # 7 rows, the last one short, against all rows in one slice
    from spexplanar import verify
    parts = verify._candidates(24, 0, 6)
    assert 7 * 10 < len(parts) <= spectral.SLICE_ROWS
    for hub_edge in (True, False):
        whole = spectral.hub_join_radii_arrays(parts, hub_edge)
        with monkeypatch.context() as m:
            m.setattr(spectral, "SLICE_ROWS", 7)
            sliced = spectral.hub_join_radii_arrays(parts, hub_edge)
        assert [a.tobytes() for a in sliced] == [a.tobytes() for a in whole]


def test_the_vector_stage_runs_no_enclosure(monkeypatch, capsys):
    # --emit-vector reads the Perron vector and keeps its residual gate,
    # with no enclosure besides
    def enclosure(*args):
        raise AssertionError("an enclosure ran")

    monkeypatch.setattr(kernel, "_enclose_root", enclosure)
    monkeypatch.setattr(spectral, "_small_join_radius", enclosure)
    assert main(["rho", "k2+[150,60,47]", "--emit-vector"]) == 0
    assert main(["rho", "k2+[2,1]", "--emit-vector"]) == 0
    capsys.readouterr()


def test_the_root_stage_builds_no_vector(monkeypatch, capsys):
    # lemma1, the sweeps and spex rho without --emit-vector: O(parts) work
    # per join, no Perron entries
    def entries(*args):
        raise AssertionError("Perron entries were built")

    for name in ("_forest_entries", "_join_residual"):
        monkeypatch.setattr(spectral, name, entries)
    verify_lemma1(40, 2, 1, [34, 2, 2], [36, 2])
    lemma1_sweep(40)
    argmax_sweep(259, 0, 3)
    assert main(["rho", "k2+[150,60,47]"]) == 0
    assert main(["rho", to_graph6(join_with_paths([9, 4, 2], False))]) == 0
    capsys.readouterr()


# --- closed-form Perron entries over the root enclosure ---------------------


def closed_form_joins():
    # every forest below order 7 (C4 among them), then 1,000 seeded
    # forests at n = 7..120, each with and without the hub edge
    rng = random.Random(26)
    forests = [lf.parts for n in range(4, 7) for a in range(n - 2)
               for lf in enumerate_lna(n, a)]
    for _ in range(1000):
        left, parts = rng.randint(5, 118), []
        while left:
            parts.append(rng.randint(1, min(left, rng.choice([3, left]))))
            left -= parts[-1]
        forests.append(tuple(sorted(parts, reverse=True)))
    return [(parts, hub_edge) for parts in forests
            for hub_edge in (True, False)]


def entry_form(j, m):
    # y_j of a path of order m; a singleton's is 2/rho, with no C
    return (2.0, -1, 0, 0, 0, 0) if m == 1 else (1.0, 0, j, 0, m + 1 - j, m)


def test_closed_forms_match_the_vector_where_the_checks_read_it():
    # y_1 rises with the path order and y_j peaks mid-path, so the smallest
    # forest entry is vertex 1 of a shortest path and the largest the
    # middle vertex of a longest one; claim33 reads y_j and y_(j+1) - y_j
    # at the heads of the two longest paths. Each form's float at rho is
    # the vector's entry, with hub entries 1, and its bounds over [lo, hi]
    # hold it, a few ulps wide
    joins = closed_form_joins()
    assert len(joins) >= 2000
    worst = 0.0
    for parts, hub_edge in joins:
        # below order 7 the vector is the dense solve's, good to ~1e-15
        agree = 1e-15 if sum(parts) + 2 >= kernel.SECULAR_ORDER else 1e-14
        (rho, lo, hi, _), = hub_join_radii([parts], hub_edge)
        x = hub_join_spectrum(parts, hub_edge).vector
        y = x[2:] / x[0]
        forms, want = [], []
        m_max, m_min = parts[0], parts[-1]
        forms += [entry_form((m_max + 1) // 2, m_max), entry_form(1, m_min)]
        want += [y.max(), y.min()]
        start = 0
        for m in parts[:2]:
            for j in range(1, min(m, 4) + 1):
                forms.append(entry_form(j, m))
                want.append(y[start + j - 1])
                if 2 * j <= m:  # the step y_(j+1) - y_j
                    forms.append((1.0, 0, 1, j, m - 2 * j, m))
                    want.append(y[start + j] - y[start + j - 1])
            start += m
        for (value, low, high), entry in zip(
                kernel._closed_forms(forms, rho, lo, hi), want):
            worst = max(worst, abs(value - entry))
            assert abs(value - entry) <= agree, (parts, hub_edge)
            assert low <= value <= high and high - low <= 1e-13, (
                parts, hub_edge)
    assert worst > 0.0  # the comparison is made in floats, not by identity


def test_verify_runs_no_vector_stage(monkeypatch):
    # entry bounds and claim33, single and swept, read closed forms over
    # the root stage's enclosure: the vector stage and its residual gate
    # are never reached from order 7 on
    def refused(*args):
        raise AssertionError("the vector stage ran")

    for name in ("_hub_join_spectrum", "_join_residual"):
        monkeypatch.setattr(spectral, name, refused)
    assert verify_entry_bounds(22, [16, 3, 1]).holds == "certified"
    assert verify_entry_bounds(7, [4, 1]).holds == "certified"  # lo < 4
    assert verify_claim33(300, 0, 149, 149)[0].holds == "certified"
    assert verify_claim33(2051, 3, 1025, 1024)[0].holds == "certified"
    assert {r.holds for r in lemma2_sweep(300, 0)} == {"certified"}
    assert {r.holds for r in entry_bounds_sample(50, 7, 100, seed=3)} == {
        "certified"}


def test_closed_form_bounds_hold_the_200_bit_values():
    # every form's bounds hold its value at 200 bits at both ends of the
    # enclosure and at rho: a bound rounded to nearest, or taken at the
    # wrong end of [lo, hi], misses some of these
    mp = pytest.importorskip("mpmath").mp
    rng = random.Random(27)
    joins = rng.sample([j for j in closed_form_joins() if sum(j[0]) >= 5],
                       80)

    def exact(form, x):
        k, p, a, b, c, m = form
        f = k * x ** p
        if m:
            u = 2 / (x + mp.sqrt(x * x - 4))
            f *= (2 / (x - 2) * (1 - u ** a) * u ** b * (1 - u ** c)
                  / (1 + u ** (m + 1)))
        return f

    with mp.workprec(200):
        for parts, hub_edge in joins:
            (rho, lo, hi, _), = hub_join_radii([parts], hub_edge)
            m1, m2 = parts[0], parts[-1]
            forms = [(2.0, -1, 0, 0, 0, 0), (8.0, -2, 0, 0, 0, 0),
                     (32.0, -3, 0, 0, 0, 0), entry_form(1, m2),
                     entry_form((m1 + 1) // 2, m1), entry_form(2, m1)]
            forms += [(1.0, 0, 1, i, m1 - 2 * i, m1)
                      for i in (1, 2) if 2 * i <= m1]
            for form, (_, low, high) in zip(
                    forms, kernel._closed_forms(forms, rho, lo, hi)):
                for x in (lo, rho, hi):
                    assert low <= exact(form, mp.mpf(x)) <= high, (
                        parts, hub_edge, form)
