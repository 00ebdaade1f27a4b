"""The spex command line: parsing, output shapes, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spexplanar
from spexplanar import (TOL, VerificationReport, build_linear_forest,
                        complete_graph, cycle_graph, from_edges, from_graph6,
                        k2_join, kernel, path_graph, reports_to_csv, rerun,
                        to_graph6)
from spexplanar.cli import build_parser, main, parse_family

import oracles
from oracles import extremal_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- family strings -------------------------------------------------------------


def test_parse_family_strings():
    assert parse_family("P12").n == 12
    assert parse_family("c6") == cycle_graph(6)
    assert parse_family("K7") == complete_graph(7)
    assert parse_family("K2,18").n == 20
    assert parse_family("P4+P1+P1") == build_linear_forest([4, 1, 1])
    assert parse_family("p1+P7+p3") == build_linear_forest([7, 3, 1])
    assert parse_family("k2+[4,1,1]") == k2_join([4, 1, 1])
    assert parse_family("extremal(8,0)") == extremal_graph(8, 0)
    assert parse_family("Q17") is None
    assert parse_family("P12 ") == parse_family("P12")


# --- build ----------------------------------------------------------------------


def test_build_extremal_g6(capsys):
    code, out, _ = run(capsys, "build", "extremal(8,0)")
    assert code == 0
    assert out.strip() == to_graph6(extremal_graph(8, 0))


def test_build_forest_edges(capsys):
    code, out, _ = run(capsys, "build", "P3+P1", "--out", "edges")
    assert code == 0
    assert out == "4\n0 1\n1 2\n"


def test_build_family_json(capsys):
    code, out, _ = run(capsys, "build", "k2+[2,1]", "--out", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 5
    assert [0, 1] in blob["edges"]


def test_build_requires_parts_for_forest(capsys):
    # `forest` is no family string: a forest is written P4+P1+P1
    code, out, err = run(capsys, "build", "forest")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: 'forest' is neither a family string")
    assert "nor valid graph6" in err and err.count("\n") == 1


def test_forest_family_with_an_empty_path_exits_two(capsys):
    code, out, err = run(capsys, "build", "P4+P0")
    assert (code, out) == (2, "")
    assert err == "error: path order must be >= 1, got 0\n"


@pytest.mark.parametrize("argv, message", [
    (["rho", "C2"], "cycle needs n >= 3, got 2"),
    (["rho", "K0,3"], "need both sides nonempty, got 0, 3"),
    (["sweep", "argmax", "--n", "259", "--k", "-1"], "k must be >= 0, got -1"),
    (["verify", "lemma2", "--n", "300", "--n1", "150", "--n2", "140",
      "--l", "0,8"], "residual part must be >= 1, got 0"),
    (["sweep", "argmax", "--n", "259", "--parts", "259"],
     "the argmax sweep at n=259 lists at least 15835879 forests of at most "
     "259 parts, above the ceiling MAX_CANDIDATES = 2000000"),
    (["sweep", "argmax", "--n", "100000"],
     "the argmax sweep at n=100000 lists at least 833350000 forests of at "
     "most 3 parts, above the ceiling MAX_CANDIDATES = 2000000"),
])
def test_precondition_errors_exit_two_with_one_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_build_reads_an_edge_list_on_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("4\n0 1\n1 2\n2 3\n"))
    code, out, _ = run(capsys, "build")
    assert code == 0
    assert out == to_graph6(path_graph(4)) + "\n"


# --- rho ------------------------------------------------------------------------


def fresh_python(code, *argv):
    """Run `code` with `argv` in a fresh interpreter on this source tree."""
    src = str(Path(spexplanar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_runs_without_importing_networkx():
    # numpy is imported only by the array code, networkx by nothing: the
    # CLI's import and its parser need neither, and neither a join's solve
    # nor the membership of the 6x6 grid, whose 32-vertex kernel goes to
    # the left-right planarity test, imports networkx
    grid = "36\n" + "".join(f"{v} {w}\n" for v in range(36)
                            for w in (v + 1, v + 6)
                            if w < 36 and (w == v + 6 or v % 6 < 5))
    code = ("import io, sys, spexplanar.cli\n"
            "spexplanar.cli.build_parser()\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
            "assert spexplanar.cli.main(['rho', 'k2+[150,60,47]']) == 0\n"
            "sys.stdin = io.StringIO(sys.argv[1])\n"
            "assert spexplanar.cli.main(['member', '-', '--k', '0']) == 0\n"
            "assert 'networkx' not in sys.modules, 'networkx was imported'\n")
    proc = fresh_python(code, grid)
    assert proc.returncode == 0, proc.stderr
    rho, member = proc.stdout.splitlines()
    assert json.loads(rho)["rho"] > 0
    assert member == '{"member":true,"witness":3}'


# with numpy unavailable: any `import numpy` raises ImportError
WITHOUT_NUMPY = ("import sys\n"
                 "sys.modules['numpy'] = None\n"
                 "from spexplanar.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["rho", "k2+[150,60,47]"],
    ["rho", "extremal(2051,3)"],
    ["member", "k2+[150,60,47]", "--k", "0"],
    ["member", "k2+[150,60,47]"],  # no --k: a usage error
    # a join's rows are written in Python, and its graph6 packed in Python
    ["build", "k2+[150,60,47]"],
    ["build", "k2+[150,60,47]", "--out", "edges"],
    ["spectrum", "k2+[6,6,2]"],
], ids=lambda argv: " ".join(argv))
def test_join_commands_run_with_numpy_unavailable(capsys, argv):
    # the parser, the exit-code mapping and rho and member on a join
    # string run on the kernel: the same bytes as in this process, where
    # numpy is loaded
    code, out, err = run(capsys, *argv)
    proc = fresh_python(WITHOUT_NUMPY, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    if argv == ["member", "k2+[150,60,47]"]:
        assert code == 2 and len(err.splitlines()) == 1
    else:
        assert code == 0 and out and not err


GRID6_G6 = to_graph6(from_edges(36, [(v, w) for v in range(36)
                                     for w in (v + 1, v + 6)
                                     if w < 36 and (w == v + 6 or v % 6 < 5)]))
JOIN_G6 = to_graph6(k2_join([150, 60, 47]))


@pytest.mark.parametrize("argv", [
    ["spectrum", "IheA@GUAo"],
    ["member", GRID6_G6, "--k", "0"],
    ["rho", JOIN_G6],
    ["build", JOIN_G6, "--out", "edges"],
    ["build", GRID6_G6],
], ids=["spectrum petersen", "member grid6x6", "rho k2+[150,60,47]",
        "build k2+[150,60,47] edges", "build grid6x6"])
def test_graph6_commands_run_with_numpy_unavailable(capsys, argv):
    # graph6 decodes into adjacency rows with no numpy, so these run on
    # the pure-Python graph layers and the kernel: the same bytes as in
    # this process, where numpy is loaded
    code, out, err = run(capsys, *argv)
    proc = fresh_python(WITHOUT_NUMPY, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert code == 0 and out and not err
    if argv[0] == "spectrum":
        assert [r["ell"] for r in json.loads(out)
                if r["status"] == "present"] == [5, 6, 8, 9]
    if argv[0] == "member":
        assert out == '{"member":true,"witness":3}\n'


def test_rho_complete_bipartite(capsys):
    # K2,18 is a hub join (hubs not adjacent, 18 singleton paths): the root
    # stage alone, whose enclosure holds the exact radius 6
    code, out, _ = run(capsys, "rho", "K2,18")
    assert code == 0
    blob = json.loads(out)
    assert blob["rho"] == pytest.approx(6.0, abs=1e-9)
    assert blob["n"] == 20
    assert "residual" not in blob
    assert blob["rho_lo"] < 6.0 < blob["rho_hi"]
    assert blob["rho_hi"] - blob["rho_lo"] <= TOL * max(1.0, blob["rho"])


def test_rho_of_a_non_join_reports_its_residual(capsys):
    code, out, _ = run(capsys, "rho", "P5")
    assert code == 0
    blob = json.loads(out)
    assert blob["residual"] <= TOL * max(1.0, blob["rho"])
    assert "rho_lo" not in blob


BIG = 10 ** 400  # no float holds it


def spex_capped(argv, stdin=None):
    """`spex argv` in a fresh interpreter whose address space is capped at
    4 GB, so that a missing size ceiling fails the test, not the machine.
    Returns the exit code, stdout, and stderr less its last line, which is
    the time main() took."""
    code = ("import resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
            "from spexplanar.cli import main\n"
            "t = time.perf_counter()\n"
            "rc = main(sys.argv[1:])\n"
            "print(time.perf_counter() - t, file=sys.stderr)\n"
            "sys.exit(rc)\n")
    src = str(Path(spexplanar.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *argv], input=stdin,
                          env=env, capture_output=True, text=True, timeout=120)
    *err, seconds = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, err, float(seconds)


@pytest.mark.parametrize("argv, stdin", [
    (["rho", "P100000000"], None),
    (["rho", "K200000"], None),
    (["build", "extremal(100000000,0)"], None),
    (["rho", "extremal(100000000,0)", "--emit-vector"], None),
    (["rho", "-"], "1000000000\n0 1\n"),
    (["member", "-", "--k", "0"], "~~??C???\n"),  # graph6 header n = 2^20
    # K1415: n + m = 1,001,820, counted from the body's set bits before
    # any adjacency row is allocated
    pytest.param(["member", "-", "--k", "0"], "~?UF" + "~" * 166734 + "_\n",
                 id="member-K1415-graph6"),
    # a check's join is sized before anything is listed or solved: at
    # n = 10^400 its float overflowed, and at 10^30 every lemma2 split was
    # listed first
    *(pytest.param(["verify", *argv], None, id=f"verify-{argv[0]}-{label}")
      for label, argv in [
          ("1e400", ["entry-bounds", "--n", str(BIG), "--parts",
                     str(BIG - 2)]),
          ("1e400", ["claim33", "--n", str(BIG), "--n1", str(BIG // 2 - 1),
                     "--n2", str(BIG // 2 - 1)]),
          ("1e400", ["lemma2", "--n", str(BIG), "--n1", str(BIG // 2 - 1),
                     "--n2", str(BIG // 2 - 1)]),
          ("1e400", ["lemma1", "--n", str(BIG)]),
          ("1e400-pair", ["lemma1", "--n", str(BIG), "--a1", "2", "--a2",
                          "1", "--l1", f"{BIG - 4},1,1", "--l2",
                          f"{BIG - 3},1"]),
          ("1e30", ["lemma2", "--n", str(10 ** 30)])]),
    # an argmax k that admits no forest is refused before 2^(k+8) is
    # built: at 10^400 that overflowed, at 10^7 it took a 10^7-bit integer
    *(pytest.param(["sweep", "argmax", "--n", "300", "--k", str(k)], None,
                   id=f"sweep-argmax-k-{label}")
      for label, k in [("1e400", BIG), ("1e7", 10 ** 7)]),
])
def test_inputs_above_the_size_ceiling_exit_two_at_once(argv, stdin):
    code, out, err, seconds = spex_capped(argv, stdin)
    assert (code, out) == (2, ""), err
    says = ("no admissible forests for n=300: need k <= n-4 = 296"
            if argv[0] == "sweep" else "exceeds the size ceiling")
    assert len(err) == 1 and says in err[0], err
    assert seconds < 0.5


@pytest.mark.parametrize("join", ["k2+[" + "1" * 400 + "]",
                                  f"extremal({BIG},0)",
                                  f"k2+[{2 ** 53 - 1},2]"],
                         ids=["k2-400-digits", "extremal-1e400",
                              "k2-2^53-plus-1"])
def test_rho_of_a_join_above_exact_floats_exits_two(join):
    # the root stage reads the forest order as an exact float
    code, out, err, seconds = spex_capped(["rho", join])
    assert (code, out) == (2, ""), err
    assert err == ["error: a hub join's forest order must be at most "
                   "2**53 = 9007199254740992, where floats hold it "
                   "exactly"]
    assert seconds < 0.5


def test_rho_of_a_huge_join_string_allocates_nothing():
    # the root stage holds the part list's groups only
    code, out, err, seconds = spex_capped(["rho", "extremal(100000000,0)"])
    assert (code, err) == (0, [])
    assert seconds < 0.5
    blob = json.loads(out)
    assert blob["n"] == 100000000
    assert blob["rho_lo"] < blob["rho"] < blob["rho_hi"]
    assert 0 < blob["rho_hi"] - blob["rho_lo"] <= 1e-12 * blob["rho"]
    assert blob["rho"] == pytest.approx(14143.6355, abs=1e-4)


def test_rho_emit_vector_stdout(capsys):
    code, out, _ = run(capsys, "rho", "C5", "--emit-vector")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "vertex,entry"
    assert len(lines) == 6  # header + 5 entries; regular graph: all ones
    assert all(float(ln.split(",")[1]) == 1.0 for ln in lines[1:])


def test_rho_emit_vector_file(tmp_path, capsys):
    path = tmp_path / "vec.csv"
    code, out, _ = run(capsys, "rho", "P4", "--emit-vector", str(path))
    assert code == 0
    assert json.loads(out)["rho"] == pytest.approx(
        2 * __import__("math").cos(__import__("math").pi / 5), abs=1e-9)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "vertex,entry" and len(lines) == 5


def test_rho_rejects_disconnected(capsys):
    two_triangles = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    g6 = to_graph6(from_edges(6, two_triangles))
    code, _, err = run(capsys, "rho", g6)
    assert code == 2
    assert "not connected" in err


def test_rho_rejects_garbage(capsys):
    code, _, err = run(capsys, "rho", "Q!!notagraph")
    assert code == 2
    assert "neither a family string" in err


def test_out_of_memory_exits_two_with_one_line(capsys, monkeypatch):
    # stands in for an edge-list header of 10^9 or the dense matrix of
    # P30000; numpy's _ArrayMemoryError subclasses MemoryError
    from spexplanar import cli

    def numpy_sized(arg):
        raise MemoryError("Unable to allocate 6.71 GiB for an array")

    def bare(arg):
        raise MemoryError()

    monkeypatch.setattr(cli, "load_graph", numpy_sized)
    for argv in (["rho", "P30000"], ["member", "-", "--k", "0"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == ("error: out of memory: Unable to allocate 6.71 GiB "
                       "for an array\n")
    monkeypatch.setattr(cli, "load_graph", bare)
    code, _, err = run(capsys, "spectrum", "C6")
    assert code == 2 and err == "error: out of memory: allocation failed\n"


@pytest.mark.parametrize("closed", ["write", "flush"])
def test_closed_stdout_ends_quietly(monkeypatch, capsys, closed):
    # `spex ... | head`: the pipe closes during a write or at the last flush
    class ClosedPipe(io.StringIO):
        def fail(self, *args):
            raise BrokenPipeError(32, "Broken pipe")

    pipe = ClosedPipe()
    setattr(pipe, closed, pipe.fail)
    monkeypatch.setattr(sys, "stdout", pipe)
    code = main(["verify", "entry-bounds", "--n", "22", "--parts", "16,3,1"])
    assert code == 141 and capsys.readouterr().err == ""


def test_rho_rejects_non_ascii_graph6(capsys):
    code, out, err = run(capsys, "rho", "A\u00e9")
    assert code == 2
    assert out == ""
    assert "non-ASCII" in err and "byte offset 1" in err
    assert len(err.strip().splitlines()) == 1


def test_rho_tol_below_rounding_exits_one(monkeypatch, capsys):
    # a gate below the rounding floor: the dense solve cannot meet it
    monkeypatch.setattr(kernel, "TOL", 1e-300)
    code, out, err = run(capsys, "rho", "P12")
    assert code == 1
    assert out == ""
    # P12's rho is 1.9419
    assert err.startswith("error: residual ")
    assert err.endswith(" misses bound 1.942e-300\n")
    assert len(err.strip().splitlines()) == 1


# --- stdin ----------------------------------------------------------------------


def test_stdin_graph6(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(cycle_graph(6))))
    code, out, _ = run(capsys, "member", "-", "--k", "0")
    assert code == 0
    assert json.loads(out) == {"member": True, "witness": 3}


def test_stdin_edge_list(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("4\n0 1\n1 2\n2 3\n3 0\n0 2\n1 3\n"))
    code, out, _ = run(capsys, "rho", "-")
    assert code == 0
    assert json.loads(out)["rho"] == pytest.approx(3.0, abs=1e-9)


def test_stdin_empty(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("   \n"))
    code, _, err = run(capsys, "rho", "-")
    assert code == 2


# --- spectrum and member ----------------------------------------------------------


def test_spectrum_join(capsys):
    code, out, _ = run(capsys, "spectrum", "extremal(8,0)")
    assert code == 0
    rows = json.loads(out)
    assert [r["ell"] for r in rows] == [3, 4, 5, 6, 7, 8]
    assert [r["status"] for r in rows] == ["present"] * 5 + ["absent"]
    assert all("certificate" in r for r in rows if r["status"] == "present")


def test_spectrum_max_truncates(capsys):
    code, out, _ = run(capsys, "spectrum", "K5", "--max", "4")
    assert code == 0
    assert [r["ell"] for r in json.loads(out)] == [3, 4]


def test_spectrum_max_below_three_exits_two_with_one_line(capsys):
    for bound in ("-3", "2"):
        code, out, err = run(capsys, "spectrum", "C6", "--max", bound)
        assert code == 2 and out == ""
        assert err == f"error: ell_max must be >= 3, got {bound}\n"


def test_member_non_member(capsys):
    code, out, _ = run(capsys, "member", "K4", "--k", "0")
    assert code == 0
    assert json.loads(out) == {"member": False, "witness": None}


def test_member_answers_a_join_string_without_building_it(capsys,
                                                          monkeypatch):
    from spexplanar import cli

    def refuse(arg):
        raise AssertionError(f"load_graph({arg!r})")

    monkeypatch.setattr(cli, "load_graph", refuse)
    for argv, want in (
            (("k2+[16000,8000,7998]", "--k", "0"), (True, 24003)),
            (("extremal(10,1)", "--k", "1"), (True, 9)),
            (("K2+[6]", "--k", "0"), (False, None)),
            # above the size ceiling: answered from the parts, as rho is
            (("extremal(100000000,0)", "--k", "0"), (True, 100000000))):
        code, out, _ = run(capsys, "member", *argv)
        assert code == 0
        member, witness = want
        assert json.loads(out) == {"member": member, "witness": witness}


@pytest.mark.parametrize("join", ["k2+[1]", "k2+[2]", "k2+[1,1]", "k2+[3,1]",
                                  "k2+[4,4]", "k2+[5,2,1]", "k2+[1,1,1,1]",
                                  "extremal(12,1)"])
def test_member_of_a_join_string_matches_its_graph6(capsys, join):
    # K3, K4 and K2 + 2K1 are joins the recognizer does not tell apart:
    # their graph6 goes through the search, with the same answer
    code, g6, _ = run(capsys, "build", join)
    assert code == 0
    n = from_graph6(g6.strip()).n
    for k in range(-1, n - 1):
        assert (run(capsys, "member", join, "--k", str(k))
                == run(capsys, "member", g6.strip(), "--k", str(k)))


def test_member_of_a_join_string_checks_k(capsys):
    for k in ("9", "-1"):
        code, out, err = run(capsys, "member", "k2+[3,1]", "--k", k)
        assert code == 2 and out == ""
        assert err == f"error: need 0 <= k <= n-3 = 3, got k={k}\n"


def test_member_budget_exhaustion_exits_one(capsys):
    # an odd cycle, so length 3 takes a search (in a bipartite graph such
    # as C30 it is absent without one)
    code, _, err = run(capsys, "member", "C31", "--k", "0", "--budget", "1")
    assert code == 1
    assert "budget" in err


# --- verify ---------------------------------------------------------------------


def test_verify_lemma1_single(capsys):
    code, out, _ = run(capsys, "verify", "lemma1", "--n", "40",
                       "--a1", "2", "--a2", "1",
                       "--l1", "34,2,2", "--l2", "36,2")
    assert code == 0
    blob = json.loads(out)
    assert blob["check_id"] == "lemma1" and blob["holds"] == "certified"


def test_verify_lemma1_sweep_with_csv(tmp_path, capsys):
    path = tmp_path / "margins.csv"
    code, out, _ = run(capsys, "verify", "lemma1", "--n", "40",
                       "--csv", str(path))
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert all(json.loads(ln)["holds"] == "certified" for ln in lines)
    assert path.read_text().startswith("check_id,instance,margin,value,holds")


def test_verify_lemma1_partial_args(capsys):
    code, _, err = run(capsys, "verify", "lemma1", "--n", "40",
                       "--l1", "34,2,2")
    assert code == 2
    assert "needs --a1 --a2 --l1 --l2" in err


def test_verify_instance_flags_never_silently_ignored(capsys):
    # each of these names part of a single instance; falling back to the
    # sweep would discard what the user asked for
    code, _, err = run(capsys, "verify", "lemma1", "--n", "40",
                       "--a1", "2", "--a2", "1")
    assert code == 2 and "needs --a1 --a2 --l1 --l2" in err
    code, _, err = run(capsys, "verify", "lemma2", "--n", "300",
                       "--k", "0", "--l", "4,1")
    assert code == 2 and "needs both --n1 --n2" in err
    code, _, err = run(capsys, "verify", "entry-bounds", "--n", "30")
    assert code == 2 and "needs --parts" in err
    code, _, err = run(capsys, "verify", "entry-bounds", "--n", "30",
                       "--parts", "20,5,3", "--seed", "7")
    assert code == 2 and "sampled run" in err


@pytest.mark.parametrize("argv, err", [
    # each verify check has a parser of its own, so argparse refuses a flag
    # the check does not read, before the check runs
    (["verify", "claim33", "--n", "300", "--n1", "149", "--n2", "149",
      "--a1", "5", "--seed", "3", "--parts", "9"],
     "spex: error: unrecognized arguments: --a1 5 --seed 3 --parts 9"),
    (["verify", "claim33", "--n", "300", "--a1", "5"],
     "spex: error: unrecognized arguments: --a1 5"),
    (["verify", "lemma1", "--n", "40", "--k", "7", "--force", "--n1", "3"],
     "spex: error: unrecognized arguments: --k 7 --force --n1 3"),
    (["verify", "entry-bounds", "--n", "22", "--parts", "16,3,1",
      "--k", "4", "--force"],
     "spex: error: unrecognized arguments: --k 4 --force"),
    (["verify", "entry-bounds", "--count", "3", "--k", "0"],
     "spex: error: unrecognized arguments: --k 0"),
    (["verify", "lemma2", "--n", "300", "--count", "3"],
     "spex: error: unrecognized arguments: --count 3"),
    # build reads one graph argument and --out, like rho and spectrum
    (["build", "P5", "--n", "9", "--k", "3", "--parts", "4,4"],
     "spex: error: unrecognized arguments: --n 9 --k 3 --parts 4,4"),
    # a verdict is read off proven enclosures, which no tolerance moves:
    # no subcommand takes --tol
    *[(argv + ["--tol", "1e-12"],
       "spex: error: unrecognized arguments: --tol 1e-12") for argv in (
        ["verify", "lemma1", "--n", "40"],
        ["verify", "lemma2", "--n", "300"],
        ["verify", "claim33", "--n", "300", "--n1", "149", "--n2", "149"],
        ["verify", "entry-bounds"],
        ["sweep", "argmax", "--n", "259"])],
])
def test_unread_flags_exit_two_naming_them(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err + "\n")


def test_verify_claim33_emits_witnesses(capsys):
    code, out, _ = run(capsys, "verify", "claim33", "--n", "260",
                       "--n1", "129", "--n2", "129")
    assert code == 0
    lines = out.strip().split("\n")
    report = json.loads(lines[0])
    assert report["check_id"] == "claim33"
    wits = [json.loads(ln)["witness"] for ln in lines[1:]]
    assert len(wits) == 3
    assert all(w["contained"] for w in wits)


@pytest.mark.parametrize("n, k, n1, n2, verdict", [
    (1027, 2, 1021, 4, (0, "certified", 11, 3)),
    (1027, 2, 1020, 5, (0, "certified", 14, 0)),
    (4099, 4, 4091, 6, (0, "certified", 18, 3)),
    (4099, 4, 4090, 7, (0, "certified", 21, 0))])
def test_claim33_reads_no_step_at_the_middle_of_a_path(capsys, n, k, n1, n2,
                                                       verdict):
    # at even k the last step index is i = (k + 2)/2, and on n2 = k + 2
    # = 2i vertices that step is the middle pair of a symmetric path,
    # exactly 0: it and the interleaving checks that read it are skipped,
    # three in all. On n2 = k + 3 the step lies before the middle and every
    # index is checked, as before.
    code, out, _ = run(capsys, "verify", "claim33", "--n", str(n), "--k",
                       str(k), "--n1", str(n1), "--n2", str(n2))
    report = json.loads(out.split("\n", 1)[0])
    assert (code, report["holds"], report["params"]["checked"],
            report["params"]["skipped"]) == verdict
    assert (f"chain2_step_i{(k + 2) // 2}" in report["margins"]) == (
        n2 > k + 2)


def test_verify_claim33_needs_split(capsys):
    code, _, err = run(capsys, "verify", "claim33", "--n", "260")
    assert code == 2
    assert "--n1" in err


def test_verify_lemma2_below_threshold(capsys):
    code, _, err = run(capsys, "verify", "lemma2", "--n", "100",
                       "--n1", "49", "--n2", "49")
    assert code == 2
    assert "259" in err
    code, out, _ = run(capsys, "verify", "lemma2", "--n", "100",
                       "--n1", "49", "--n2", "49", "--force")
    assert code == 0
    assert json.loads(out)["params"]["outside_hypothesis"] is True


def test_verify_lemma2_refuses_a_residual_longer_than_n2(capsys):
    code, out, err = run(capsys, "verify", "lemma2", "--n", "300",
                         "--n1", "50", "--n2", "50", "--l", "198")
    assert (code, out) == (2, "")
    assert err == ("error: residual part 198 exceeds n2 = 50: "
                   "n1 and n2 must be the two longest paths\n")


@pytest.mark.parametrize("argv, message", [
    (["lemma2", "--n", "5"], "no split"),
    (["lemma2", "--n", "5", "--force"], "no split"),
    (["lemma2", "--n", "-7"], "no split"),
    # below the threshold 2^208+3 as well, without --force
    (["lemma2", "--n", "259", "--k", "200"], "no split"),
    (["lemma1", "--n", "4"], "need n >= 10"),
    (["lemma1", "--n", "9"], "need n >= 10"),
])
def test_sweep_with_no_instance_exits_two_with_one_line(capsys, argv,
                                                        message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert message in err and err.count("\n") == 1


def test_verify_entry_bounds_single(capsys):
    code, out, _ = run(capsys, "verify", "entry-bounds", "--n", "20",
                       "--parts", "9,9")
    assert code == 0
    assert json.loads(out)["holds"] == "certified"


def test_verify_entry_bounds_violation_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "entry-bounds", "--n", "5",
                       "--parts", "3")
    assert code == 1
    assert json.loads(out)["holds"] == "violated"


def test_verify_entry_bounds_sampled_defaults(capsys):
    code, out, _ = run(capsys, "verify", "entry-bounds",
                       "--count", "3", "--seed", "11")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert all(json.loads(ln)["check_id"] == "entry_bounds" for ln in lines)


@pytest.mark.parametrize("flags, message", [
    (["--count", "0"], "got count=0, n_lo=20, n_hi=100"),
    (["--count", "-1"], "got count=-1, n_lo=20, n_hi=100"),
    (["--n-lo", "0"], "got count=200, n_lo=0, n_hi=100"),
    (["--n-hi", "0"], "got count=200, n_lo=20, n_hi=0"),
])
def test_verify_entry_bounds_sampling_flags_read_as_given(capsys, flags,
                                                          message):
    # 0 is a value, not "use the pinned default"
    code, out, err = run(capsys, "verify", "entry-bounds", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_verify_missing_n(capsys):
    code, _, err = run(capsys, "verify", "lemma1")
    assert code == 2
    assert "needs --n" in err


def test_verify_bad_parts_string(capsys):
    code, _, err = run(capsys, "verify", "entry-bounds", "--n", "20",
                       "--parts", "a,b")
    assert code == 2
    assert "bad part list" in err


@pytest.mark.parametrize("argv, bad", [
    (["entry-bounds", "--n", "8", "--parts", "3,,3"], "3,,3"),
    (["entry-bounds", "--n", "8", "--parts", "3,3,"], "3,3,"),
    (["lemma1", "--n", "40", "--a1", "2", "--a2", "0",
      "--l1", "30,4,4,", "--l2", "38"], "30,4,4,"),
    (["claim33", "--n", "300", "--n1", "149", "--n2", "149", "--l", ","],
     ","),
    (["lemma2", "--n", "300", "--n1", "100", "--n2", "100", "--l", "98, "],
     "98, "),
])
def test_verify_refuses_an_empty_part_field(capsys, argv, bad):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.strip().splitlines() == [
        f"usage error: bad part list {bad!r}; want e.g. 34,2,2"]


def test_verify_empty_residual_forest_is_still_none(capsys):
    code, out, _ = run(capsys, "verify", "claim33", "--n", "300",
                       "--n1", "149", "--n2", "149", "--l", "")
    assert code == 0
    assert json.loads(out.splitlines()[0])["params"]["l"] == []


# --- sweep ----------------------------------------------------------------------


def test_sweep_argmax_summary(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "sweep", "argmax", "--n", "30", "--force",
                       "--summary-only", "--csv", str(path))
    assert code == 0
    blob = json.loads(out)
    assert blob["check_id"] == "argmax"
    assert blob["params"]["candidates"] > 0
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "parts,rho,rho_lo,rho_hi,iterations"
    assert len(rows) == blob["params"]["candidates"] + 1


def test_sweep_argmax_rows_jsonl(capsys):
    code, out, _ = run(capsys, "sweep", "argmax", "--n", "20", "--force")
    assert code == 0
    lines = out.strip().split("\n")
    rows, summary = lines[:-1], json.loads(lines[-1])
    assert len(rows) == summary["params"]["candidates"]
    assert json.loads(rows[0])["parts"] == [16, 1, 1]


def test_sweep_argmax_of_a_lone_candidate_is_strict_json(capsys):
    # one admissible forest, so no runner-up: both gaps are left out, not
    # written as Infinity, and the report reruns byte for byte
    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")

    code, out, _ = run(capsys, "sweep", "argmax", "--n", "12", "--k", "2",
                       "--force", "--summary-only")
    assert code == 0
    blob = json.loads(out, parse_constant=refuse)
    assert blob["params"]["candidates"] == 1
    assert list(blob["margins"]) == ["rho_max"]
    rep = VerificationReport(**blob)
    assert rerun(rep).to_json() == out.rstrip("\n")
    assert "inf" not in reports_to_csv([rep])


@pytest.mark.parametrize("argv", [
    ["verify", "lemma1", "--n", "40", "--csv", "{tmp}"],
    ["verify", "lemma1", "--n", "40", "--csv", "{tmp}/missing/x.csv"],
    ["sweep", "argmax", "--n", "30", "--force", "--summary-only",
     "--csv", "{tmp}"],
    ["rho", "P5", "--emit-vector", "{tmp}/missing/x.csv"],
])
def test_unwritable_output_exits_two_with_one_line(tmp_path, capsys, argv):
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "lemma1", "--n", "40", "--csv", "{tmp}"],
    ["sweep", "argmax", "--n", "259", "--csv", "{tmp}/missing/x.csv"],
])
def test_unwritable_csv_fails_before_any_output(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_unknown_kind(capsys):
    code, _, err = run(capsys, "sweep", "bogus", "--n", "10")
    assert code == 2
    assert "unknown sweep" in err


def test_sweep_below_threshold_without_force(capsys):
    code, _, err = run(capsys, "sweep", "argmax", "--n", "30")
    assert code == 2


# --- parser-level behavior ---------------------------------------------------------


def test_argparse_usage_errors_exit_two(capsys):
    assert main(["member", "K4"]) == 2          # missing required --k
    capsys.readouterr()
    assert main(["verify", "wat", "--n", "5"]) == 2  # bad choice
    capsys.readouterr()
    assert main([]) == 2                         # subcommand required
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    # rho takes no --tol (every solve is gated by kernel.TOL), so each
    # value, valid or not, is an unrecognized argument
    ["rho", "P12", "--tol", "nan"],
    ["rho", "P12", "--tol", "inf"],
    ["rho", "P12", "--tol", "-1"],
    ["rho", "P12", "--tol", "0"],
    ["rho", "P12", "--tol", "abc"],
    ["rho", "P12", "--tol", "1e-400"],
    ["rho", "P12", "--tol", "1e999"],
    ["spectrum", "K4", "--budget", "-5"],
    ["spectrum", "K4", "--budget", "0"],
    ["member", "K4", "--k", "0", "--budget", "1.5"],
])
def test_bad_tol_and_budget_exit_two_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    if argv[-2] == "--tol":
        assert err == ("spex: error: unrecognized arguments: "
                       f"--tol {argv[-1]}\n")
    else:
        assert err.startswith(f"spex {argv[0]}: error: argument {argv[-2]}: ")
        assert f"got {argv[-1]!r}" in err
    assert len(err.strip().splitlines()) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "subcommands" in out or "spex" in out


def test_cli_output_is_deterministic(capsys):
    a = run(capsys, "rho", "k2+[9,4,2]")
    b = run(capsys, "rho", "k2+[9,4,2]")
    assert a == b
    # the parser is built once per process: different commands in a row
    # print what each prints from a freshly built parser
    calls = [("rho", "k2+[9,4,2]", "--emit-vector"),
             ("member", "extremal(10,0)", "--k", "0"), ("rho", "K2,3")]
    warm = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert warm == fresh


def test_build_roundtrip_through_cli(capsys):
    code, out, _ = run(capsys, "build", "K2,7")
    assert code == 0
    assert oracles.edge_count(from_graph6(out.strip())) == 14
