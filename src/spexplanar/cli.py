"""spex: command-line front end.

Subcommands: build, rho, spectrum, member, verify, sweep.
Exit codes: 0 success, an "indeterminate" verdict included; 1 when any
check reports "violated" (or a solve misses its gate, a residual or
enclosure width above `kernel.TOL` * max(1, rho), or a cycle search its
budget); 2 for usage errors (a flag the chosen subcommand or mode would
not read among them, such as --tol, which no subcommand takes), for
inputs too large to fit in memory, above the size ceiling
(`graphs.MAX_SIZE`) or for the dense solve (`spectral.DENSE_MAX_ORDER`)
and for output files that cannot be written (a --csv file is opened
before any work), 141 (128 + SIGPIPE, what a shell reports for a writer
killed by that signal) when stdout is closed before the output is
written, as in `spex verify entry-bounds | head`.

Graph arguments accept, in this order of interpretation:
  * a family string:  P12  P4+P1+P1  C6  K7  K2,18  k2+[4,1,1]  extremal(8,0)
  * a graph6 string
  * "-" to read stdin: an edge list ("n" line then "u v" lines) when the
    first line is an integer, otherwise graph6.

All reporting is JSON / JSON-lines on stdout; `--csv FILE` writes a
delimited margin table next to it. No plots: CSV is the boundary.

The parser, the exit-code mapping of `main`, and `rho` and `member` on a
join string of order >= `kernel.SECULAR_ORDER` run on the proof kernel
and the pure-Python graph layers; the handlers that need `spectral` or
`verify`, and so numpy, import them where they run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from typing import Optional

from . import gridconfig
from .cycles import (SearchBudgetExceeded, cycle_spectrum, hub_join_member,
                     in_gnk, DEFAULT_BUDGET)
from .families import (LinearForest, build_linear_forest, extremal_forest,
                       k2_join, complete_bipartite, complete_graph,
                       cycle_graph, path_graph, recognize_hub_join)
from .graphs import (Graph, Graph6Error, from_graph6, parse_edge_list,
                     format_edge_list, to_graph6)
from .kernel import SECULAR_ORDER, ConvergenceError, join_radius


class UsageError(ValueError):
    pass


# Family strings, one regex each. The hub-join families make the linear
# forest that `k2_join` joins to two adjacent hubs, so that `rho` can solve
# them from the part list; the others make their Graph. No two regexes
# match the same string.
_JOIN_RES = [
    (re.compile(r"[Kk]2\+\[(\d+(?:,\d+)*)\]$"),
     lambda m: LinearForest(tuple(int(p) for p in m.group(1).split(",")))),
    (re.compile(r"extremal\((\d+),(\d+)\)$"),
     lambda m: extremal_forest(int(m.group(1)), int(m.group(2)))),
]
_FAMILY_RES = [
    (re.compile(r"[Pp](\d+)$"), lambda m: path_graph(int(m.group(1)))),
    (re.compile(r"[Pp]\d+(?:\+[Pp]\d+)+$"),
     lambda m: build_linear_forest(
         [int(p) for p in re.findall(r"\d+", m.group(0))])),
    (re.compile(r"[Cc](\d+)$"), lambda m: cycle_graph(int(m.group(1)))),
    (re.compile(r"[Kk](\d+),(\d+)$"),
     lambda m: complete_bipartite(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"[Kk](\d+)$"), lambda m: complete_graph(int(m.group(1)))),
    *_JOIN_RES,
]


def _match_family(text: str, table):
    s = text.strip()
    for rx, make in table:
        m = rx.fullmatch(s)
        if m:
            return make(m)
    return None


def parse_family(text: str) -> Optional[Graph]:
    fam = _match_family(text, _FAMILY_RES)
    return k2_join(fam) if isinstance(fam, LinearForest) else fam


def parse_join(text: str) -> Optional[LinearForest]:
    """The forest of a hub-join family string (k2+[..], extremal(n,k)),
    None for any other input."""
    return _match_family(text, _JOIN_RES)


def load_graph(arg: str) -> Graph:
    if arg == "-":
        text = sys.stdin.read()
        first = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
        if re.fullmatch(r"\d+", first):
            return parse_edge_list(text)
        if not first:
            raise UsageError("empty graph input on stdin")
        return from_graph6(first.split()[0])
    fam = parse_family(arg)
    if fam is not None:
        return fam
    try:
        return from_graph6(arg)
    except Graph6Error as exc:
        raise UsageError(
            f"{arg!r} is neither a family string (P12, P4+P1+P1, C6, K7, "
            f"K2,18, k2+[4,1,1], extremal(8,0)) nor valid graph6: "
            f"{exc}") from None


def _parse_parts(text: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty field (`3,,3`, `3,3,`) is refused
    like any other non-integer."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad part list {text!r}; want e.g. 34,2,2") from None


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _open_csv(path: Optional[str]):
    """The --csv file, opened before any work so that a path that cannot
    be written fails at once; a null context without --csv."""
    return open(path, "w") if path else contextlib.nullcontext()


# --- subcommand handlers -----------------------------------------------------


def cmd_build(a: argparse.Namespace) -> int:
    g = load_graph(a.graph)
    if a.out == "g6":
        print(to_graph6(g))
    elif a.out == "edges":
        sys.stdout.write(format_edge_list(g))
    else:
        _emit({"n": g.n, "edges": list(g.edges())})
    return 0


def cmd_rho(a: argparse.Namespace) -> int:
    # a hub join, given by a join string or as a graph that the recognizer
    # accepts, is solved from its part list
    forest = parse_join(a.graph)
    if forest is not None:
        g, n, join = None, forest.order + 2, (forest.parts, True)
    else:
        g = load_graph(a.graph)
        hub = recognize_hub_join(g)
        n, join = g.n, hub and ([len(p) for p in hub[2]], hub[3])
    if join and a.emit_vector is None:
        # the root stage alone: rho and its proven enclosure, from the
        # kernel once the part list alone picks the secular equation
        if n >= SECULAR_ORDER:
            rho, lo, hi, steps = join_radius(*join)
        else:
            from .spectral import hub_join_radii
            (rho, lo, hi, steps), = hub_join_radii([join[0]], join[1])
        _emit({"n": n, "rho": rho, "rho_lo": lo, "rho_hi": hi,
               "iterations": steps})
        return 0
    from .spectral import hub_join_spectrum, spectral_radius
    res = spectral_radius(g) if g is not None else hub_join_spectrum(*join)
    if a.emit_vector is not None:
        lines = ["vertex,entry"]
        lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(res.vector))
        text = "\n".join(lines) + "\n"
        if a.emit_vector == "-":
            sys.stdout.write(text)
            return 0
        with open(a.emit_vector, "w") as fh:
            fh.write(text)
    _emit({"n": n, "rho": res.rho, "residual": res.residual,
           "iterations": res.iterations})
    return 0


def cmd_spectrum(a: argparse.Namespace) -> int:
    g = load_graph(a.graph)
    spec = cycle_spectrum(g, ell_max=a.max, budget=a.budget)
    out = []
    for rec in spec.records:
        row = {"ell": rec.ell, "status": rec.status}
        if rec.certificate is not None:
            row["certificate"] = list(rec.certificate)
        out.append(row)
    _emit(out)
    return 0


def cmd_member(a: argparse.Namespace) -> int:
    # a join string is answered from its part list, with no graph built
    forest = parse_join(a.graph)
    if forest is not None:
        member, witness = hub_join_member(forest.parts, True, a.k)
    else:
        member, witness = in_gnk(load_graph(a.graph), a.k, budget=a.budget)
    _emit({"member": member, "witness": witness})
    return 0


def _exit_for(reports) -> int:
    return 1 if any(r.holds == "violated" for r in reports) else 0


def cmd_verify(a: argparse.Namespace) -> int:
    from . import verify as V
    with _open_csv(a.csv) as csv:
        reports, witness_lines = _verify_reports(a)
        for rep in reports:
            print(rep.to_json())
        for w in witness_lines:
            _emit({"witness": w})
        if csv:
            csv.write(V.reports_to_csv(reports))
    return _exit_for(reports)


def _verify_reports(a: argparse.Namespace) -> tuple[list, list]:
    from . import verify as V
    reports = []
    witness_lines = []
    if a.n is None and not (a.check == "entry-bounds" and not a.parts):
        raise UsageError(f"verify {a.check} needs --n")
    if a.check == "lemma1":
        if a.l1 or a.l2 or a.a1 is not None or a.a2 is not None:
            if not (a.l1 and a.l2 and a.a1 is not None and a.a2 is not None):
                raise UsageError(
                    "single lemma1 check needs --a1 --a2 --l1 --l2")
            reports.append(V.verify_lemma1(
                a.n, a.a1, a.a2, _parse_parts(a.l1), _parse_parts(a.l2)))
        else:
            reports.extend(V.lemma1_sweep(a.n))
    elif a.check == "lemma2":
        if a.n1 is not None or a.n2 is not None or a.l:
            if a.n1 is None or a.n2 is None:
                raise UsageError("single lemma2 check needs both --n1 --n2")
            l = _parse_parts(a.l) if a.l else ()
            reports.append(V.verify_lemma2(
                a.n, a.k, a.n1, a.n2, l, a.force))
        else:
            reports.extend(V.lemma2_sweep(a.n, a.k, a.force))
    elif a.check == "claim33":
        if a.n1 is None or a.n2 is None:
            raise UsageError("claim33 needs --n1 and --n2")
        l = _parse_parts(a.l) if a.l else ()
        rep, wits = V.verify_claim33(a.n, a.k, a.n1, a.n2, l, a.force)
        reports.append(rep)
        witness_lines.extend(w.as_dict() for w in wits)
    elif a.check == "entry-bounds":
        if a.parts:
            if any(v is not None for v in (a.count, a.n_lo, a.n_hi, a.seed)):
                raise UsageError(
                    "sampling flags apply only to the sampled run (no --parts)")
            reports.append(V.verify_entry_bounds(
                a.n, _parse_parts(a.parts)))
        else:
            if a.n is not None:
                raise UsageError(
                    "entry-bounds with --n needs --parts; "
                    "drop --n for the sampled run")
            s = dict(gridconfig.ENTRY_BOUNDS_SAMPLE)
            s.update((k, v) for k, v in vars(a).items()
                     if k in s and v is not None)
            reports.extend(V.entry_bounds_sample(
                s["count"], s["n_lo"], s["n_hi"], s["seed"]))
    return reports, witness_lines


def cmd_sweep(a: argparse.Namespace) -> int:
    if a.what != "argmax":
        raise UsageError(f"unknown sweep {a.what!r}; available: argmax")
    from . import verify as V
    with _open_csv(a.csv) as csv:
        result = V.argmax_sweep(a.n, a.k, a.parts, force=a.force)
        if not a.summary_only:
            sys.stdout.write(result.rows_jsonl())
        print(result.report.to_json())
        if csv:
            csv.write(result.rows_csv())
    return _exit_for([result.report])


# --- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, like every other usage error (`-h` prints the usage)
        self.exit(2, f"{self.prog}: error: {message}\n")


def _checked(kind, ok, want: str):
    """An argparse type: `kind(text)` when `ok` accepts it, else exit 2."""
    def parse(text: str):
        try:
            if ok(value := kind(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The spex parser, built once per process (parsing never mutates it)."""
    ap = _Parser(
        prog="spex",
        description="spectral-extremal toolkit: hub-join constructions, "
                    "Perron computation, cycle spectra, inequality sweeps")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add_budget(p):
        budget = _checked(int, lambda b: b >= 1, "an integer >= 1")
        p.add_argument("--budget", type=budget, default=DEFAULT_BUDGET,
                       help="search budget per cycle length, in units of "
                            "one per anchor, first step and expanded "
                            "vertex: each length gets the outcome of its "
                            "own search with this budget")

    p = sub.add_parser("build", help="construct a graph and print it")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--out", choices=("g6", "edges", "json"), default="g6")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("rho", help="spectral radius of a graph")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--emit-vector", nargs="?", const="-", default=None,
                   metavar="FILE",
                   help="write the Perron vector as CSV (default stdout)")
    p.set_defaults(fn=cmd_rho)

    p = sub.add_parser("spectrum", help="cycle spectrum of a graph")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--max", type=int, default=None,
                   help="largest length to check (default n)")
    add_budget(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("member",
                       help="does the graph miss a cycle length in [3, n-k]?")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--k", type=int, required=True)
    add_budget(p)
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("verify", help="run an inequality check")
    p.set_defaults(fn=cmd_verify)
    checks = p.add_subparsers(dest="check", required=True, metavar="check")

    def add_check(name, help, n_help="graph order"):
        # each check takes only the flags it reads: argparse refuses others;
        # its errors keep the "spex verify: error:" prefix
        c = checks.add_parser(name, help=help, prog=p.prog,
                              usage=f"%(prog)s {name} [options]")
        c.add_argument("--n", type=int, help=n_help)
        c.add_argument("--csv", help="also write a CSV margin table to FILE")
        return c

    c = add_check("lemma1", "one ordered family pair, or all at --n")
    c.add_argument("--a1", type=int)
    c.add_argument("--a2", type=int)
    c.add_argument("--l1", help="parts of the first forest, e.g. 34,2,2")
    c.add_argument("--l2", help="parts of the second forest")
    for name, help in (("lemma2", "one merge split, or all at --n"),
                       ("claim33", "one merge split, with interval "
                                   "witnesses")):
        c = add_check(name, help)
        c.add_argument("--k", type=int, default=0, help="default 0")
        c.add_argument("--n1", type=int)
        c.add_argument("--n2", type=int)
        c.add_argument("--l", help="residual forest parts, e.g. 4,1")
        c.add_argument("--force", action="store_true",
                       help="run below the order threshold; reports are "
                            "labeled outside_hypothesis")
    c = add_check("entry-bounds", "one join (--n, --parts), or the seeded "
                                  "sample", n_help="graph order (with "
                                                   "--parts)")
    c.add_argument("--parts", help="forest parts, e.g. 16,3,1")
    c.add_argument("--count", type=int)
    c.add_argument("--n-lo", type=int)
    c.add_argument("--n-hi", type=int)
    c.add_argument("--seed", type=int)

    p = sub.add_parser("sweep", help="exhaustive parameter sweep")
    p.add_argument("what", help="sweep kind: argmax")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--parts", type=int, default=3,
                   help="max number of forest parts (default 3)")
    p.add_argument("--force", action="store_true")
    p.add_argument("--summary-only", action="store_true",
                   help="suppress per-candidate JSONL rows")
    p.add_argument("--csv", help="write per-candidate CSV to FILE")
    p.set_defaults(fn=cmd_sweep)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away (`spex ... | head`): nothing is left to say,
        # and what is still buffered goes to devnull so that the flush at
        # interpreter exit does not raise again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return 141  # stdout is not a file descriptor (replaced in-process)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 141
    except OSError as exc:
        # an output file that cannot be opened (--csv naming a directory,
        # --emit-vector into a missing directory)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, Graph6Error) as exc:
        # precondition violations (bad parts, disconnected input, ...) are
        # argument errors; DisconnectedGraphError subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # an input too large to hold (a huge edge-list header, a dense
        # matrix for a long path); numpy's _ArrayMemoryError subclasses this
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
