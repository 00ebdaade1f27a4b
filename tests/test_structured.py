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
                        complete_graph, cycle_graph, enumerate_lna,
                        from_edges, from_graph6, hub_join_radii,
                        hub_join_spectrum, join_with_paths, path_graph,
                        recognize_hub_join, spectral_radius, to_graph6)
from spexplanar import spectral
from spexplanar.cli import main
from spexplanar.verify import (lemma1_sweep, verify_claim33,
                               verify_entry_bounds, verify_lemma1)
from spexplanar.spectral import adjacency_matrix

import oracles

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
            spectral, "_secular_bound",
            lambda groups, rho, e, toward, num: rho * 0.0 + miss)
        for hub_edge in (True, False):
            assert_every_entry_point_raises((6, 3, 1), hub_edge, capsys)


def test_max_iterations_caps_the_root_finder_too(monkeypatch, capsys):
    g = join_with_paths([9, 4, 2], True)
    assert spectral_radius(g).iterations <= 8
    # a row stopped at the Newton cap misses tol and raises
    monkeypatch.setattr(spectral, "NEWTON_CAP", 1)
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
    # step's floating-point operations shows here. A single join takes
    # the scalar root, a batch of two rows the numpy kernel.
    assert rho_cli(capsys, "k2+[150,60,47]")[::3] == (24.165636165113284, 5)
    assert rho_cli(capsys, "extremal(2051,3)")[::3] == (65.51612262518913, 4)
    for rows in (1, 2):
        assert hub_join_radii([[1] * 2000] * rows, False)[0][::3] == (
            63.24555320336759, 1)
        assert hub_join_radii([[3, 2, 1] * 333] * rows, True)[0][::3] == (
            64.21651837311305, 4)
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


def seeded_groups():
    return [spectral._part_groups(parts)
            for parts in seeded_forests(random.Random(20261020), 150)]


@pytest.mark.parametrize("cap", [None, 1, 2])
def test_scalar_root_matches_the_batch_bit_for_bit(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(spectral, "NEWTON_CAP", cap)
    groups = seeded_groups()
    m, cnt = spectral._part_matrix(groups)
    for e in (0.0, 1.0):
        rho, steps = spectral._secular_roots(m, cnt, e)
        for grp, want in zip(groups, zip(rho.tolist(), steps.tolist())):
            assert spectral._secular_root(grp, e) == want, (grp, e)
        if cap is not None:
            assert steps.max() == cap


def test_scalar_secular_matches_the_batch_bit_for_bit():
    # f and f' themselves, not only the root Newton settles on: a change
    # in rounding that the converged rho absorbs still shows here
    rng = random.Random(20261021)
    groups = seeded_groups()
    m, cnt = spectral._part_matrix(groups)
    cols = spectral._columns(m, cnt)
    for e in (0.0, 1.0):
        root, _ = spectral._secular_roots(m, cnt, e)
        for scale in (0.5, 0.9, 1.0, 1.3):
            rho = 2.0 + (root - 2.0) * scale * np.array(
                [rng.uniform(0.99, 1.01) for _ in groups])
            f, df = spectral._secular(cols, rho, e, spectral._Arrays)
            for i, grp in enumerate(groups):
                assert spectral._secular(
                    grp, float(rho[i]), e, spectral._Floats) == (
                    f[i], df[i]), (grp, e, rho[i])


def small_joins():
    # orders 3 to 6: below SECULAR_ORDER, where the recognizer picks
    return [lf.parts for n in range(3, 7) for a in range(n - 2)
            for lf in enumerate_lna(n, a)]


def test_entry_points_agree_bit_for_bit(capsys):
    # the root stage: the join's row of a batch (numpy root and enclosure),
    # the join alone (scalar ones), the family string (hubs adjacent) and a
    # relabelled graph6 of the join that the recognizer accepts. The
    # vector stage: the single-join solve from parts and the built join,
    # on the same rho and Newton steps
    rng = random.Random(7)
    for parts in [*small_joins(), *seeded_joins()]:
        total = sum(parts)
        for hub_edge in (True, False):
            want = hub_join_radii([[total], parts, [1] * total], hub_edge)[1]
            rho, lo, hi, steps = want
            assert lo <= rho <= hi, (parts, hub_edge)
            assert hub_join_radii([parts], hub_edge) == [want]
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
                assert total + 2 < spectral.SECULAR_ORDER
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
    # verify encodes each join's graph6 from its edge rows
    verify._solved_join([9, 4, 2], False, TOL)
    verify.verify_lemma1(40, 2, 0, [30, 4, 4], [38])
    verify.lemma1_sweep(40)
    verify.argmax_sweep(30, 0, force=True)
    verify.verify_entry_bounds(22, [16, 3, 1])
    verify.lemma2_sweep(20, 0, force=True)
    verify.verify_claim33(300, 0, 200, 98)


# --- root enclosures ------------------------------------------------------------


def mp_secular_root(parts, hub_edge, rho0):
    """The root of the join's secular equation at 200 bits, with each path
    sum taken over the path's own eigenpairs (an independent route to
    S_m): for P_m, lambda_j = 2 cos(j pi/(m+1)) and (1'v_j)^2 =
    2/(m+1) cot^2(j pi/(2(m+1))) for odd j, 0 for even j."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workprec(200):
        terms = []
        for m, k in spectral._part_groups(parts):
            for j in range(1, m + 1, 2):
                theta = mp.pi * j / (m + 1)
                terms.append((k * 2 * mp.cot(theta / 2) ** 2 / (m + 1),
                              2 * mp.cos(theta)))

        def f(rho):
            return rho - hub_edge - 2 * mp.fsum(w / (rho - lam)
                                                for w, lam in terms)

        root = mp.findroot(f, mp.mpf(rho0))
        assert abs(f(root)) < mp.mpf(2) ** -150
        return root


def test_enclosures_hold_the_200_bit_root():
    rng = random.Random(20261018)
    forests = [*seeded_forests(rng, 16), [4087, 5, 5], [2000, 2000, 97]]
    for parts in forests:
        for hub_edge in (True, False):
            (rho, lo, hi, _), = hub_join_radii([parts], hub_edge)
            root = mp_secular_root(parts, hub_edge, rho)
            assert lo < root < hi, (parts, hub_edge)
            assert hi - lo <= TOL * rho


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
    monkeypatch.setattr(spectral, "ENCLOSE_ULPS", ulps)
    groups = seeded_groups()
    m, cnt = spectral._part_matrix(groups)
    for e in (0.0, 1.0):
        rho, _ = spectral._secular_roots(m, cnt, e)
        lo, hi = spectral._enclose_roots(m, cnt, rho, e, TOL)
        for i, grp in enumerate(groups):
            assert spectral._enclose_root(grp, float(rho[i]), e, TOL) == (
                lo[i], hi[i]), (grp, e)


def test_scalar_secular_bound_matches_the_batch_bit_for_bit():
    rng = random.Random(20261022)
    groups = seeded_groups()
    m, cnt = spectral._part_matrix(groups)
    cols = spectral._columns(m, cnt)
    arrays, floats = spectral._Arrays, spectral._Floats
    for e in (0.0, 1.0):
        root, _ = spectral._secular_roots(m, cnt, e)
        for scale in (0.5, 1.0, 1.3):
            rho = 2.0 + (root - 2.0) * scale * np.array(
                [rng.uniform(0.99, 1.01) for _ in groups])
            upper = spectral._secular_bound(cols, rho, e, -np.inf, arrays)
            lower = spectral._secular_bound(cols, rho, e, np.inf, arrays)
            f, _ = spectral._secular(cols, rho, e, arrays)
            assert np.all((lower <= f) & (f <= upper))
            for i, grp in enumerate(groups):
                x = float(rho[i])
                assert spectral._secular_bound(
                    grp, x, e, -math.inf, floats) == upper[i], (grp, e, x)
                assert spectral._secular_bound(
                    grp, x, e, math.inf, floats) == lower[i], (grp, e, x)


def test_an_enclosure_wider_than_tol_raises():
    for rows in (1, 2):
        with pytest.raises(ConvergenceError) as ei:
            hub_join_radii([[150, 60, 47]] * rows, True, tol=1e-16)
        assert ei.value.measure == "enclosure width"
        assert "enclosure width" in str(ei.value)


def test_the_vector_stage_runs_no_enclosure(monkeypatch, capsys):
    # entry bounds, claim33 and --emit-vector read Perron entries and keep
    # their residual gate, with no enclosure besides
    def enclosure(*args):
        raise AssertionError("an enclosure ran")

    for name in ("_enclose_root", "_enclose_roots", "_small_join_radius"):
        monkeypatch.setattr(spectral, name, enclosure)
    verify_entry_bounds(22, [16, 3, 1])
    verify_claim33(300, 0, 149, 149)
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
